//! The MINOS protocol engines: the paper's primary contribution.
//!
//! This crate implements, as pure deterministic state machines:
//!
//! * [`NodeEngine`] — the **MINOS-Baseline** (MINOS-B) leaderless
//!   algorithms of §III: Linearizable consistency combined with
//!   Synchronous, Strict, Read-Enforced, Eventual, or Scope persistency
//!   (Figures 2 and 3);
//! * [`ONodeEngine`] — the **MINOS-Offload** (MINOS-O) algorithms of §V:
//!   the same protocols restructured for a SmartNIC with selective
//!   host/NIC metadata coherence, batched host↔NIC descriptors, message
//!   broadcast, and WRLock elimination via vFIFO/dFIFO queues (Figures 7
//!   and 8).
//!
//! Engines consume [`Event`]s and emit [`Action`]s; *time does not exist*
//! inside them. Three harnesses embed the same engines:
//!
//! * `minos-cluster` drives them with OS threads and channels (the paper's
//!   real 5-node machine);
//! * `minos-net` drives them from a discrete-event simulator with the
//!   Table III latency model (the paper's SimGrid setup);
//! * `minos-mc` explores all their interleavings exhaustively and checks
//!   the Table I invariants (the paper's TLA+/TLC verification).
//!
//! # Example: a 3-node write quorum, hand-driven
//!
//! ```
//! use minos_core::{Action, Event, NodeEngine, ReqId};
//! use minos_types::{DdpModel, Key, Message, NodeId, PersistencyModel};
//!
//! let model = DdpModel::lin(PersistencyModel::Eventual);
//! let mut coord = NodeEngine::new(NodeId(0), 3, model);
//! let mut out = Vec::new();
//! coord.on_event(
//!     Event::ClientWrite { key: Key(1), value: "v".into(), scope: None, req: ReqId(9) },
//!     &mut out,
//! );
//! // Deliver the deferred StartWrite, collect the INV fan-out…
//! # let start = out.iter().find_map(|a| match a { Action::Defer { event, .. } => Some(event.clone()), _ => None }).unwrap();
//! # out.clear();
//! # coord.on_event(start, &mut out);
//! assert!(out.iter().any(|a| matches!(a, Action::SendToFollowers { msg: Message::Inv { .. } })));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod baseline;
mod event;
pub mod loopback;
pub mod obs;
mod offload;
pub mod runtime;
mod scope;
mod stats;
mod store;

pub use baseline::{CoordState, CoordTx, CoordTxView, FollTx, NodeEngine};
pub use event::{Action, DelayClass, Event, MetaOp, ReqId};
pub use offload::{OAction, OCoordTx, OEvent, OFollTx, ONodeEngine, PcieMsg, Side};
pub use scope::{PersistTx, ScopeState, ScopeTable};
pub use stats::EngineStats;
pub use store::{RecordMut, Store};

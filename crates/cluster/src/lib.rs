//! The live MINOS-B runtimes: the workspace's stand-in for the paper's
//! real 5-node CloudLab machine (Table II), where each machine runs the
//! protocol as one node program.
//!
//! Both runtimes drive one node core (`core::NodeCore`: engine,
//! dispatch stack, durable state, view changes, gauges) and differ only
//! in how inputs arrive and effects leave the node. The threaded
//! [`Cluster`] runs one OS thread per node, with crossbeam channels plus
//! a delay wheel in the role of eRPC over FDR InfiniBand, heartbeat
//! failure detection (§III-E), and log-shipping recovery — the protocols
//! under *real* concurrency, complementing the deterministic simulator
//! in `minos-net`. The [`tcp`] runtime runs nodes as threads or
//! `minos-noded` processes over real sockets, with a framed client port.
//!
//! # Example
//!
//! ```
//! use minos_cluster::Cluster;
//! use minos_types::{ClusterConfig, DdpModel, Key, NodeId, PersistencyModel};
//!
//! let cluster = Cluster::spawn(
//!     ClusterConfig::cloudlab().with_nodes(3),
//!     DdpModel::lin(PersistencyModel::Synchronous),
//! );
//! cluster.put(NodeId(0), Key(7), "v".into())?;
//! assert_eq!(cluster.get(NodeId(2), Key(7))?, "v");
//! cluster.shutdown();
//! # Ok::<(), minos_types::MinosError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cluster;
mod core;
mod node;
pub mod tcp;
mod timer;

pub use cluster::{Cluster, Outcome};

//! The simulated distributed machine of §VII.
//!
//! This crate drives the `minos-core` protocol engines from a
//! discrete-event simulation with the paper's Table III latency model:
//!
//! * [`BSim`] — MINOS-B nodes: protocol on the host CPU, every message
//!   crossing the PCIe bus to a plain NIC;
//! * [`OSim`] — MINOS-O nodes: protocol offloaded to a SmartNIC with
//!   selective host/NIC coherence, vFIFO/dFIFO queues, batching, and
//!   broadcast;
//! * [`Arch`] — the seven architecture points of the Figure 12 ablation
//!   (baseline/offload × batching × broadcast);
//! * [`driver`] — the closed-loop workload driver producing the
//!   latency/throughput numbers behind Figures 4, 9, 10, 11, 13 and 14,
//!   plus the open-loop driver ([`run_open_loop`] / [`run_slo_curve`])
//!   replaying Poisson arrival schedules for latency-vs-offered-load
//!   (SLO) curves.
//!
//! # Example: one write on the simulated 5-node machine
//!
//! ```
//! use minos_net::{driver, Arch};
//! use minos_types::{DdpModel, PersistencyModel, SimConfig};
//! use minos_workload::WorkloadSpec;
//!
//! let spec = WorkloadSpec::ycsb_default()
//!     .with_records(100)
//!     .with_requests_per_node(20);
//! let result = driver::run(
//!     Arch::baseline(),
//!     &SimConfig::paper_defaults(),
//!     DdpModel::lin(PersistencyModel::Synchronous),
//!     &spec,
//!     7,
//! );
//! assert!(result.write_lat.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod bsim;
mod des;
pub mod driver;
mod osim;
mod timing;

pub use arch::Arch;
pub use bsim::BSim;
pub use des::{Machine, Sim};
pub use driver::{
    run_observed, run_observed_sharded, run_open_loop, run_open_loop_sharded,
    run_open_loop_sharded_traced, run_rolling_restart, run_sharded, run_slo_curve,
    run_with_clients, AvailabilityRun, CompletionKind, CompletionRec, ObservedRun, OpenLoopResult,
    ParMode, RunResult, ShardedOpenLoop,
};
pub use osim::OSim;
pub use timing::{catchup_ns, meta_cost};

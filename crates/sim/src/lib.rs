//! A deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the workspace's SimGrid substitute (DESIGN.md §1): a
//! minimal, fully deterministic toolkit from which `minos-net` builds its
//! simulated distributed machine:
//!
//! * [`EventQueue`] — the time-ordered event heap at the heart of any DES;
//! * [`Resource`] — a serializing server (a link, a DMA engine, an NVM
//!   write port) that turns "this takes X ns and only one can run at a
//!   time" into completion timestamps;
//! * [`CorePool`] — N-server variant for multi-core hosts and SmartNICs;
//! * [`BoundedFifo`] — an occupancy model for the MINOS-O vFIFO/dFIFO
//!   queues, with backpressure when full;
//! * [`LatencyStats`] — streaming summaries (mean/percentiles) for the
//!   benchmark harness.
//!
//! Everything is in integer nanoseconds ([`Time`]); ties are broken by
//! insertion order, so runs are bit-for-bit reproducible.
//!
//! # Example
//!
//! ```
//! use minos_sim::{EventQueue, Resource};
//!
//! let mut q = EventQueue::new();
//! q.schedule(10, "b");
//! q.schedule(5, "a");
//! q.schedule(10, "c"); // same time as "b": FIFO tie-break
//! let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, ["a", "b", "c"]);
//!
//! let mut link = Resource::new();
//! let d1 = link.acquire(0, 100); // busy 0..100
//! let d2 = link.acquire(20, 50); // must wait: busy 100..150
//! assert_eq!((d1, d2), (100, 150));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fifo;
mod queue;
mod resource;
mod stats;

pub use fifo::BoundedFifo;
pub use queue::EventQueue;
pub use resource::{CorePool, DepthTracker, Resource};
pub use stats::LatencyStats;

/// Simulated time, in nanoseconds since the start of the run.
pub type Time = u64;

//! # butterfly-sim
//!
//! A deterministic discrete-event simulator of a BBN Butterfly
//! GP1000-like NUMA shared-memory multiprocessor, built as the substrate
//! for reproducing *"Improving Performance by Use of Adaptive Objects"*
//! (Mukherjee & Schwan, GIT-CC-93/17, HPDC 1993).
//!
//! The simulated machine has:
//!
//! * `P` processors, each co-located with one memory module on its node;
//! * NUMA memory: local references are cheap, remote references traverse
//!   the switch and cost several times more ([`MemoryParams`]);
//! * an `atomior` atomic fetch-or primitive (the GP1000's hardware
//!   synchronization instruction), plus the usual RMW family;
//! * per-processor FIFO run queues with context-switch costs and optional
//!   quantum preemption (checked at simulator calls).
//!
//! Simulated threads are ordinary Rust closures running on real OS
//! threads, but the engine enforces that exactly one executes at a time
//! and that all simulated time flows through explicit calls
//! ([`ctx::advance`], memory references, parking). Runs are therefore
//! bit-for-bit deterministic for a given configuration, on any host.
//!
//! ```
//! use butterfly_sim as sim;
//! use sim::{ctx, Duration, ProcId, SimConfig, SimWord};
//!
//! let (sum, report) = sim::run(SimConfig::butterfly(4), || {
//!     let counter = SimWord::new_local(0);
//!     let c2 = counter.clone();
//!     let t = ctx::spawn(ProcId(1), "adder", move || {
//!         c2.fetch_add(5);
//!     });
//!     ctx::advance(Duration::micros(10));
//!     // Wait for the child by polling (the cthreads crate offers joins).
//!     while counter.load() == 0 {
//!         ctx::advance(Duration::micros(1));
//!     }
//!     let _ = t;
//!     counter.load()
//! })
//! .unwrap();
//! assert_eq!(sum, 5);
//! assert!(report.end_time.as_nanos() > 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod config;
mod engine;
mod error;
mod gate;
mod mem;
mod report;
mod tcb;
mod time;
mod topology;
mod world;

pub mod ctx;
pub mod explore;

pub use config::{MemoryParams, NodeId, ProcId, ScheduleNoise, SimConfig};
pub use topology::Topology;
pub use engine::run;
pub use error::SimError;
pub use crate::explore::{explore, replay, ExploreReport, ScheduleFailure};
pub use mem::{SimCell, SimWord};
pub use report::{ScheduleRecord, ScheduleStep, SimReport, ThreadSpan};
pub use tcb::{CostMeter, TState, ThreadId, WakeReason};
pub use time::{Duration, VirtualTime};

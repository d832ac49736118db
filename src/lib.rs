//! # adaptive-objects
//!
//! A full reproduction of *"Improving Performance by Use of Adaptive
//! Objects: Experimentation with a Configurable Multiprocessor Thread
//! Package"* (Bodhisattwa Mukherjee & Karsten Schwan, Georgia Tech
//! GIT-CC-93/17, HPDC 1993) as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! * [`sim`] — deterministic discrete-event simulator of a BBN Butterfly
//!   GP1000-like NUMA multiprocessor;
//! * [`cthreads`] — the Cthreads-like user-level thread package;
//! * [`model`] — the adaptive-object model (attributes, monitors,
//!   policies, feedback loops, `n1 R n2 W` costs);
//! * [`locks`] — the multiprocessor lock family: spin, backoff, ticket,
//!   MCS, blocking, combined, advisory, reconfigurable, and **adaptive**
//!   locks with FCFS/Priority/Handoff schedulers;
//! * [`monitor`] — the thread-monitor substrate and time-series capture;
//! * [`tsp`] — the LMSK branch-and-bound TSP application in its
//!   centralized / distributed / load-balanced forms;
//! * [`workloads`] — synthetic workloads behind the paper's figures;
//! * [`native`] — a real-thread adaptive mutex with the same feedback
//!   loop, usable as an ordinary synchronization primitive;
//! * [`control`] — the operator control plane over the native locks:
//!   circuit-breaker lifecycle supervision, a line-oriented command
//!   router (in-process channel or local socket), and Prometheus-style
//!   snapshots;
//! * [`service`] — the sharded adaptive KV/counter store: every shard
//!   guarded by its own `AdaptiveMutex`, hot-shard write batching via
//!   flat combining, and contention-triggered resharding;
//! * [`asyncx`] (feature `async`, default-on) — the async layer: a
//!   small task runtime, an `AsyncAdaptiveMutex` that adapts between
//!   re-polling and parking with the same feedback loop and
//!   control-plane surface as the native mutex, and the sharded store
//!   served over TCP.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ```
//! use adaptive_objects::prelude::*;
//!
//! let (kind, _) = sim::run(SimConfig::butterfly(2), || {
//!     let lock = AdaptiveLock::new_local();
//!     for _ in 0..8 {
//!         with_lock(&lock, || ctx::advance(Duration::micros(10)));
//!     }
//!     lock.inner().policy().kind()
//! })
//! .unwrap();
//! assert_eq!(kind, LockKind::PureSpin);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use adaptive_control as control;
pub use adaptive_core as model;
pub use adaptive_locks as locks;
pub use adaptive_native as native;
pub use adaptive_service as service;
#[cfg(feature = "async")]
pub use asyncx;
pub use butterfly_sim as sim;
pub use cthreads;
pub use thread_monitor as monitor;
pub use tsp_app as tsp;
pub use workloads;

/// The most common imports for working with the simulated lock family.
pub mod prelude {
    pub use adaptive_core::{AdaptationPolicy, OpCost, SamplingGate};
    pub use adaptive_locks::{
        with_lock, AdaptiveLock, BlockingLock, Lock, LockKind, ReconfigurableLock, SchedKind,
        SimpleAdapt, SpinLock, WaitingPolicy,
    };
    pub use adaptive_native::AdaptiveMutex;
    pub use butterfly_sim::{self as sim, ctx, Duration, NodeId, ProcId, SimConfig, VirtualTime};
    pub use cthreads::fork;
    pub use tsp_app::{solve_parallel, LockImpl, TspConfig, TspInstance, Variant};
}

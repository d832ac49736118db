//! # adaptive-locks
//!
//! The multiprocessor lock family of *"Improving Performance by Use of
//! Adaptive Objects"* (Mukherjee & Schwan, 1993), implemented on the
//! Butterfly simulator.
//!
//! ## Lock taxonomy
//!
//! | Type | Paper role |
//! |---|---|
//! | [`SpinLock`] | primitive test-and-test-and-set spin lock (`atomior`-based) |
//! | [`SpinBackoffLock`] | Anderson-style spin-with-backoff \[ALL89\] |
//! | [`TicketLock`], [`McsLock`] | classic fair/queue baselines (ablations) |
//! | [`BlockingLock`] | FIFO blocking lock with direct handoff |
//! | [`ReconfigurableLock`] | \[MS93\] configurable lock: mutable waiting-policy attributes `{spin-time, delay-time, sleep-time, timeout}` + pluggable registration/acquisition/release scheduler (FCFS / Priority / Handoff) |
//! | [`ReconfigurableLock::combined`] | static combined lock (spin *k*, then block) — Figure 1's combined(1/10/50) |
//! | [`AdvisoryLock`] | owner-advised (speculative) lock |
//! | [`AdaptiveLock`] | reconfigurable lock + built-in monitor + adaptation policy ([`SimpleAdapt`], [`SchedulerAdapt`]) in a closely-coupled feedback loop |
//!
//! ## Spinning and the simulator
//!
//! Spin waits hold the processor and charge memory references per probe.
//! A spinning thread only yields at simulator calls, so configure a
//! scheduling quantum (`SimConfig::quantum`) when running more threads
//! than processors with spin policies — exactly the regime where the
//! paper shows blocking is the right configuration.
//!
//! ```
//! use butterfly_sim::{self as sim, ctx, Duration, SimConfig};
//! use adaptive_locks::{AdaptiveLock, Lock, with_lock};
//!
//! let (kind, _) = sim::run(SimConfig::butterfly(2), || {
//!     let lock = AdaptiveLock::new_local();
//!     for _ in 0..8 {
//!         with_lock(&lock, || ctx::advance(Duration::micros(10)));
//!     }
//!     // Uncontended: simple-adapt configures the lock to pure spin.
//!     lock.inner().policy().kind()
//! })
//! .unwrap();
//! assert_eq!(kind, adaptive_locks::LockKind::PureSpin);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod active;
mod adaptive;
mod advisory;
mod api;
mod blocking;
mod mcs;
mod oracle;
mod policy;
mod reconfigurable;
mod rwlock;
mod scheduler;
mod spin;
mod ticket;

pub use adaptive::{
    AdaptiveLock, BoxedLockPolicy, LockDecision, LockObservation, SchedulerAdapt, SimpleAdapt,
};
pub use active::{ActiveLock, ActiveLockServer};
pub use advisory::{Advice, AdvisoryLock};
pub use api::{priority, with_lock, Lock, LockCosts, LockStats, PatternSample};
pub use blocking::BlockingLock;
pub use mcs::McsLock;
pub use oracle::{LockOracle, OracleCounts};
pub use policy::{LockKind, WaitingPolicy, SLEEP_FOREVER};
pub use reconfigurable::{agent, AttrError, OwnerId, ReconfigurableLock};
pub use rwlock::{AdaptiveRwLock, RwLock, RwPolicy, RwStats};
pub use scheduler::{
    FcfsScheduler, HandoffScheduler, LockScheduler, PriorityScheduler, SchedKind, Waiter,
};
pub use spin::{SpinBackoffLock, SpinLock};
pub use ticket::TicketLock;

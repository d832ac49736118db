//! # adaptive-native
//!
//! The paper's adaptive lock as a real synchronization primitive:
//! [`AdaptiveMutex`] is a spin-then-park mutex for actual threads whose
//! spin count is a run-time-mutable attribute retuned by an adaptation
//! policy (default: the paper's `simple-adapt`) from a built-in monitor
//! of the waiting-thread count, sampled every other unlock to begin
//! with and less often — down to every 64th — while the policy's
//! decisions change nothing.
//!
//! This is the lineage the paper started: adaptive mutexes later
//! appeared in Solaris, glibc (`PTHREAD_MUTEX_ADAPTIVE_NP`), and JVM
//! biased/adaptive locking. Unlike those, the policy here is pluggable
//! ([`BoxedNativePolicy`]) and the adaptation trajectory observable
//! ([`AdaptiveMutex::stats`], [`AdaptiveMutex::spin_limit`]).
//!
//! ```
//! use adaptive_native::AdaptiveMutex;
//! use std::sync::Arc;
//!
//! let counter = Arc::new(AdaptiveMutex::new(0u64));
//! let handles: Vec<_> = (0..4)
//!     .map(|_| {
//!         let c = Arc::clone(&counter);
//!         std::thread::spawn(move || {
//!             for _ in 0..1000 {
//!                 *c.lock() += 1;
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(*counter.lock(), 4000);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod combining;
mod faults;
mod health;
mod mutex;
mod pad;
mod parker;
mod policy;
mod raw;
mod stats;
mod ticket;

pub use combining::FcLock;
pub use faults::{FaultHook, FaultKind, FaultPlan, FaultReport, FaultSpec, WorkerKilled};
pub use health::{HealthProbe, LockHealth, Watchdog, WatchdogEvent, WatchdogHandle};
pub use mutex::{
    AdaptiveMutex, AdaptiveMutexGuard, BoxedNativePolicy, MutexStats, Poisoned, SPIN_FOREVER,
};
pub use pad::CachePadded;
pub use policy::{
    FixedPolicy, NativeDecision, NativeFairnessAdapt, NativeObservation, NativeSimpleAdapt,
    NativeWaitingPolicy, PolicyChoice, WaitAttrs,
};
pub use raw::{LockAlgorithm, RawLock};
pub use ticket::TicketLock;

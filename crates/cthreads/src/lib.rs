//! # cthreads
//!
//! A user-level thread package for the Butterfly simulator, modelled on
//! the multiprocessor version of Cthreads that the paper's experiments
//! use as their substrate (\[Muk91\] in the paper's bibliography).
//!
//! The package provides:
//!
//! * [`fork`] / [`JoinHandle::join`] — `cthread_fork` / `cthread_join`;
//! * [`Condvar`] — condition variables (lock-agnostic: pair with any
//!   mutual-exclusion object via release/reacquire closures);
//! * [`Barrier`] — generation-counting reusable barriers;
//! * [`channel`] — a shared mailbox for message passing (used by the
//!   thread-monitor substrate);
//! * re-exported scheduling verbs ([`yield_now`], [`sleep`]) from the
//!   simulator's per-processor scheduler.
//!
//! Threads are pinned to the processor they are forked on, exactly like
//! the paper's TSP searchers ("each searcher thread executes on a
//! dedicated processor"). Blocking primitives deschedule the caller so
//! other ready threads on the same processor can run — the property the
//! paper's spin-vs-block experiments hinge on.
//!
//! ```
//! use butterfly_sim::{self as sim, ctx, Duration, ProcId, SimConfig};
//! use cthreads::fork;
//!
//! let (v, _) = sim::run(SimConfig::butterfly(2), || {
//!     let h = fork(ProcId(1), "worker", || {
//!         ctx::advance(Duration::micros(100));
//!         21 * 2
//!     });
//!     h.join()
//! })
//! .unwrap();
//! assert_eq!(v, 42);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod barrier;
mod channel;
mod condvar;
mod join;
mod probe;
mod semaphore;

pub use barrier::{Barrier, BarrierWaitResult};
pub use channel::{channel, channel_on, Receiver, RecvError, Sender};
pub use condvar::Condvar;
pub use join::{fork, fork_join_all, JoinHandle};
pub use probe::{ProbeEvent, SyncProbe};
pub use semaphore::Semaphore;

/// Yield the processor to the next ready thread on the same processor
/// (re-export of the simulator's scheduler verb).
pub use butterfly_sim::ctx::yield_now;

/// Sleep for a span of virtual time, releasing the processor.
pub use butterfly_sim::ctx::sleep;

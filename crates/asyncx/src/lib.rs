//! # asyncx
//!
//! The paper's adaptive waiting policy, reformulated for the regime
//! modern services run in: tasks on an executor, where "blocking" means
//! yielding a *task*, not a core. The spin-vs-block tradeoff the paper
//! tuned with `{spin, delay, timeout}` reappears here as **poll vs
//! park** with different constants:
//!
//! * **poll** — re-try the lock across bounded yields to the executor
//!   (no waker registration, no handoff protocol); cheap when holds are
//!   short, pure scheduler waste when they are not;
//! * **park** — register a waker in the lock's queue and sleep until a
//!   releaser grants the lock directly (the native mutex's handoff,
//!   with a waker where the thread parker used to be).
//!
//! [`AsyncAdaptiveMutex`] embeds the same adaptive half as
//! `adaptive_native::AdaptiveMutex` (`adaptive_native::Adaptation`:
//! attribute set ([`NativeWaitingPolicy`]), sample clock, feedback
//! loop, ledger, poisoning, quarantine, control-plane rows), so one
//! operator surface retunes both.
//!
//! Modules:
//!
//! * [`rt`] — a minimal hand-rolled executor (multi-thread and
//!   current-thread flavors, timers, `yield_now`/`sleep`/`timeout`);
//!   the workspace vendors no async runtime, and the regime under study
//!   needs only this much;
//! * [`mutex`] — the async adaptive mutex itself;
//! * [`net`] — the TCP front end serving the sharded adaptive store
//!   over the control plane's line protocol.
//!
//! [`NativeWaitingPolicy`]: adaptive_native::NativeWaitingPolicy

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod mutex;
pub mod net;
mod reactor;
pub mod rt;

pub use mutex::{
    AsyncAdaptiveMutex, AsyncMutexGuard, AsyncPollAdapt, LockFuture, POLL_BUDGET_CAP,
};
pub use net::{serve_store, BlockingLineClient, StoreServerConfig, StoreServerHandle};
pub use rt::{
    sleep, sleep_until, spawn, timeout, yield_now, Elapsed, Flavor, Handle, JoinHandle, Runtime,
    RuntimeStats,
};

//! Striped statistics slabs for the adaptive mutex.
//!
//! The pre-refactor mutex kept its ~dozen counters as plain `AtomicU64`
//! fields packed next to the state word, so every acquire/release did
//! its `fetch_add`s on lines other cores were also writing — each one a
//! remote transfer in the paper's `n1·R + n2·W` cost model. Here the
//! counters live in [`STRIPE_COUNT`] cache-line-padded *stripes*; a
//! thread picks its stripe once (a cheap thread-id hash) and all its
//! counting lands on that one line, which in steady state stays in its
//! core's cache in exclusive state. Totals are only materialized when
//! somebody asks ([`StatSlabs::sum`], an `O(stripes)` relaxed walk) —
//! monitoring pays, the hot path does not.
//!
//! One counter is *not* here: the acquisition count lives in the
//! mutex's [`SampleClock`](crate::SampleClock), on the line its acquire
//! already writes, and is bumped with a plain load + store while the
//! lock is held (ownership serializes the writers), so the hottest
//! counter costs no RMW and no extra line at all — and the clock
//! derives its sampling decision from that same count at acquire time,
//! so a release performs no counter work whatsoever (the decision rides
//! in the guard). The try-lock failure counter is not here either: it
//! paces the failure stream's samples, and a per-stripe count would
//! make the cadence depend on how many stripes the failing threads
//! spread across, so it lives as one dedicated padded global beside the
//! slabs instead.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::pad::CachePadded;

/// Number of counter stripes. A power of two so the thread id reduces
/// with a mask; 8 covers the worker counts this crate is benched at
/// while keeping a slab at 1 KiB.
pub(crate) const STRIPE_COUNT: usize = 8;

/// One counter slot within a stripe (acquisitions are counted on the
/// mutex's sample clock and try failures on a dedicated global — see
/// the module doc). One slab line holds them all (15 × 8 B = 120 B ≤
/// 128 B), so a thread's whole off-state-line statistical life touches
/// exactly one line. The last three only the async mutex counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Acquisitions that had to wait.
    Contended,
    /// Waits that parked.
    Parked,
    /// Releases that granted the lock to a parked waiter.
    Handoffs,
    /// Policy decisions that changed an attribute or the engine.
    Reconfigurations,
    /// Bounded waits that gave up.
    Timeouts,
    /// Holders that panicked with the lock held.
    PoisonEvents,
    /// Poison flags cleared.
    PoisonClears,
    /// Policy callbacks that panicked.
    PolicyPanics,
    /// Quarantines entered.
    Quarantines,
    /// Quarantines that ended.
    Heals,
    /// Engine migrations installed.
    Switches,
    /// Critical sections a flat-combining drain ran.
    CombinedOps,
    /// Re-polls of a waiting task (async).
    Polls,
    /// Lock futures dropped mid-wait (async).
    Cancellations,
    /// Cancellations that raced a grant and re-released (async).
    CancelledGrants,
}

/// Slots per stripe.
const COUNTER_COUNT: usize = Counter::CancelledGrants as usize + 1;

/// The calling thread's stripe. Assigned round-robin on first use and
/// cached in a thread-local, so the steady-state cost is one TLS read —
/// no hashing, no syscall, and consecutive threads land on distinct
/// stripes (an address hash would collide at the allocator's whim).
#[inline]
pub(crate) fn stripe_index() -> usize {
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let cached = s.get();
        if cached != usize::MAX {
            return cached;
        }
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let idx = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPE_COUNT - 1);
        s.set(idx);
        idx
    })
}

/// The striped counter slab: one padded line of counters per stripe.
pub(crate) struct StatSlabs {
    stripes: [CachePadded<[AtomicU64; COUNTER_COUNT]>; STRIPE_COUNT],
}

impl StatSlabs {
    pub(crate) fn new() -> StatSlabs {
        StatSlabs {
            stripes: std::array::from_fn(|_| {
                CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0)))
            }),
        }
    }

    /// Count one event on the calling thread's stripe (relaxed; the
    /// stripe line is exclusive to this core in steady state).
    #[inline]
    pub(crate) fn bump(&self, counter: Counter) {
        self.stripes[stripe_index()][counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` events at once on the calling thread's stripe — used by
    /// the flat-combining drain, which executes a batch of critical
    /// sections under one hold and charges them with one RMW.
    #[inline]
    pub(crate) fn bump_by(&self, counter: Counter, n: u64) {
        self.stripes[stripe_index()][counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Lazy total across stripes (`O(STRIPE_COUNT)` relaxed loads).
    /// Exact once writers are quiescent; a monitoring-grade snapshot
    /// while they run, same as the single-cell counters were.
    pub(crate) fn sum(&self, counter: Counter) -> u64 {
        self.stripes
            .iter()
            .map(|s| s[counter as usize].load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for StatSlabs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatSlabs")
            .field("stripes", &STRIPE_COUNT)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stripes_are_line_isolated() {
        let slabs = StatSlabs::new();
        let a = &slabs.stripes[0] as *const _ as usize;
        let b = &slabs.stripes[1] as *const _ as usize;
        assert!(b - a >= 128, "stripes must not share a line pair");
    }

    #[test]
    fn sums_are_exact_across_threads() {
        let slabs = Arc::new(StatSlabs::new());
        let threads = 8u64;
        let iters = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let slabs = Arc::clone(&slabs);
                s.spawn(move || {
                    for _ in 0..iters {
                        slabs.bump(Counter::Contended);
                        slabs.bump_by(Counter::Switches, 2);
                    }
                });
            }
        });
        assert_eq!(slabs.sum(Counter::Contended), threads * iters);
        assert_eq!(slabs.sum(Counter::Switches), 2 * threads * iters);
        assert_eq!(slabs.sum(Counter::Heals), 0);
    }

    #[test]
    fn stripe_index_is_stable_per_thread() {
        let first = stripe_index();
        assert!(first < STRIPE_COUNT);
        for _ in 0..100 {
            assert_eq!(stripe_index(), first);
        }
        // Other threads get valid (not necessarily distinct) stripes.
        let other = std::thread::spawn(stripe_index).join().expect("join");
        assert!(other < STRIPE_COUNT);
    }
}

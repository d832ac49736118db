//! Property and regression tests for the striped statistics slabs
//! behind `AdaptiveMutex::stats()`.
//!
//! The hot-path refactor split the counters two ways: the acquisition
//! count moved *onto* the state line (plain load + store under the
//! lock — no RMW), and every other counter moved into per-stripe
//! cache-padded slabs aggregated lazily. These tests pin the two
//! behaviors that refactor must not change: (1) the counts are
//! *exact* — no lost or double counts under arbitrary cross-thread
//! interleavings, including the poison/panic paths — and (2) the
//! sample clock still observes every other unlock at the kernel's floor
//! period (the paper's monitor cadence), decided at acquire time from
//! the serialized acquisition count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adaptive_core::{AdaptationPolicy, SAMPLE_PERIOD_FLOOR};
use adaptive_objects::native::{AdaptiveMutex, NativeDecision, NativeObservation};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// For any thread count, per-thread workload, try_lock mix, and
    /// panic cadence: the striped counters, summed lazily by `stats()`,
    /// equal ground truth tallied independently by the workers
    /// themselves. Threads land on different stripes (and migrate
    /// between runs), so this exercises arbitrary interleavings of
    /// increments across the slab.
    #[test]
    fn striped_aggregation_is_exact(
        threads in 1usize..8,
        iters in 1u64..64,
        try_every in 1u64..8,
        panic_every in 2u64..32,
    ) {
        let mutex = Arc::new(AdaptiveMutex::new(0u64));
        let true_acquisitions = Arc::new(AtomicU64::new(0));
        let true_try_failures = Arc::new(AtomicU64::new(0));
        let true_panics = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mutex = Arc::clone(&mutex);
                let acq = Arc::clone(&true_acquisitions);
                let tf = Arc::clone(&true_try_failures);
                let pan = Arc::clone(&true_panics);
                std::thread::spawn(move || {
                    for i in 0..iters {
                        let step = t as u64 * iters + i;
                        if step.is_multiple_of(try_every) {
                            // try_lock leg: a success is an acquisition,
                            // a failure must be counted exactly once.
                            match mutex.try_lock() {
                                Some(mut g) => {
                                    acq.fetch_add(1, Ordering::Relaxed);
                                    *g += 1;
                                }
                                None => {
                                    tf.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            continue;
                        }
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let mut g = match mutex.lock_checked() {
                                Ok(g) => g,
                                Err(poisoned) => {
                                    mutex.clear_poison();
                                    poisoned.into_inner()
                                }
                            };
                            acq.fetch_add(1, Ordering::Relaxed);
                            *g += 1;
                            if step.is_multiple_of(panic_every) {
                                pan.fetch_add(1, Ordering::Relaxed);
                                panic!("striping test: poison-path increment");
                            }
                        }));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("workers absorb their own panics");
        }

        // Writers quiescent: the lazy sum must now be exact.
        let stats = mutex.stats();
        prop_assert_eq!(
            stats.acquisitions,
            true_acquisitions.load(Ordering::Relaxed),
            "lost or doubled acquisition counts across stripes"
        );
        prop_assert_eq!(
            stats.try_failures,
            true_try_failures.load(Ordering::Relaxed),
            "lost or doubled try-failure counts across stripes"
        );
        prop_assert_eq!(
            stats.poison_events,
            true_panics.load(Ordering::Relaxed),
            "poison path missed the striped slab"
        );
        // The sum is stable while nothing increments.
        let again = mutex.stats();
        prop_assert_eq!(stats.acquisitions, again.acquisitions);
        // Internal consistency: contended acquisitions are a subset.
        prop_assert!(stats.contended <= stats.acquisitions);
    }
}

/// A policy that only counts how many observations reach `decide` —
/// the monitor-side witness of the sampling gate's cadence.
struct CountingPolicy {
    decides: Arc<AtomicU64>,
}

impl AdaptationPolicy<NativeObservation> for CountingPolicy {
    type Decision = NativeDecision;

    fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
        self.decides.fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// A policy that counts its observations and changes the spin count on
/// every one, which keeps the feedback kernel at its floor period.
struct ChangingPolicy {
    decides: Arc<AtomicU64>,
}

impl AdaptationPolicy<NativeObservation> for ChangingPolicy {
    type Decision = NativeDecision;

    fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
        let n = self.decides.fetch_add(1, Ordering::Relaxed);
        Some(NativeDecision::SetSpins(if n.is_multiple_of(2) { 5 } else { 9 }))
    }
}

/// Regression: under the new layout the clock must still observe every
/// other unlock while the policy keeps changing something. The
/// acquisition count is serialized by the lock itself, so it ticks
/// exactly like the old shared gate: `N` unlocks at the floor period
/// produce exactly `N / 2` observations.
#[test]
fn sampling_gate_still_observes_every_other_unlock() {
    for n in [1u64, 2, 3, 10, 101, 256] {
        let decides = Arc::new(AtomicU64::new(0));
        let m = AdaptiveMutex::with_policy(
            0u64,
            Box::new(ChangingPolicy { decides: Arc::clone(&decides) }),
        );
        for _ in 0..n {
            *m.lock() += 1;
        }
        assert_eq!(
            decides.load(Ordering::Relaxed),
            n / 2,
            "gate cadence drifted at n={n}"
        );
    }
}

/// Regression: the *failure* stream's cadence must not depend on how
/// many threads generate the failures. The try-failure count used to
/// live in the striped slab and each stripe paced its own gate, so the
/// same total number of failed `try_lock`s produced up to `stripes`×
/// fewer policy observations once the failing threads spread across
/// stripes — the monitor effectively went deaf on bigger machines.
/// The count is now a single global cell: `N` failures reach the policy
/// exactly `N / 2` times (every other failure, the kernel's floor)
/// whether one thread or eight produced them.
#[test]
fn try_failure_cadence_is_independent_of_thread_count() {
    const PERIOD: u64 = SAMPLE_PERIOD_FLOOR;
    const TOTAL: u64 = 64;
    let mut decides_per_threadcount = Vec::new();
    for threads in [1u64, 2, 8] {
        let decides = Arc::new(AtomicU64::new(0));
        let m = Arc::new(AdaptiveMutex::with_policy(
            0u64,
            Box::new(CountingPolicy { decides: Arc::clone(&decides) }),
        ));
        // Hold the lock so every try_lock below fails deterministically.
        let guard = m.lock();
        for _ in 0..threads {
            let m = Arc::clone(&m);
            // One worker at a time: each lands on its own stripe (the
            // pre-fix failure mode) but never races another worker to
            // the policy's non-blocking busy flag, so the observation
            // count stays exact.
            std::thread::spawn(move || {
                for _ in 0..TOTAL / threads {
                    assert!(m.try_lock().is_none(), "lock is held");
                }
            })
            .join()
            .expect("try-failure worker");
        }
        drop(guard);
        assert_eq!(m.stats().try_failures, TOTAL, "{threads} threads");
        decides_per_threadcount.push(decides.load(Ordering::Relaxed));
    }
    assert_eq!(
        decides_per_threadcount[0],
        TOTAL / PERIOD,
        "single-threaded failure stream samples every {PERIOD}th failure"
    );
    assert!(
        decides_per_threadcount.windows(2).all(|w| w[0] == w[1]),
        "sampling cadence drifted with thread count: {decides_per_threadcount:?}"
    );
}

//! Property tests of the native failure model: a holder that panics at
//! a random point in a random workload never breaks the lock, and a
//! panic/recover cycle is invisible to the `simple-adapt` feedback
//! loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use adaptive_core::AdaptationPolicy;
use adaptive_objects::native::{
    AdaptiveMutex, FaultKind, FaultPlan, FaultSpec, NativeDecision, NativeObservation,
    NativeSimpleAdapt, NativeWaitingPolicy,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// For any seed, thread count, iteration count, panic rate, and
    /// waiting policy: a randomly-timed panicking holder never violates
    /// mutual exclusion, never strands a waiter, and always leaves the
    /// mutex poisoned-but-recoverable.
    #[test]
    fn panicking_holder_is_always_survivable(
        seed in any::<u64>(),
        threads in 2usize..6,
        iters in 8u64..48,
        one_in in 2u32..24,
        policy in 0u8..3,
    ) {
        let mutex = Arc::new(AdaptiveMutex::new(0u64));
        match policy {
            0 => mutex.set_waiting_policy(NativeWaitingPolicy::pure_blocking()),
            1 => mutex.set_waiting_policy(NativeWaitingPolicy::combined(40)),
            _ => {} // keep the adaptive default
        }
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(seed).with_cs_panics(one_in)));
        let holders = Arc::new(AtomicU32::new(0));
        let violated = Arc::new(AtomicBool::new(false));

        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let mutex = Arc::clone(&mutex);
                let plan = Arc::clone(&plan);
                let holders = Arc::clone(&holders);
                let violated = Arc::clone(&violated);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let mut g = match mutex.lock_checked() {
                                Ok(g) => g,
                                Err(poisoned) => {
                                    // A previous victim died mid-CS; the
                                    // counter is still consistent, so
                                    // recover and keep it.
                                    mutex.clear_poison();
                                    poisoned.into_inner()
                                }
                            };
                            if holders.fetch_add(1, Ordering::AcqRel) != 0 {
                                violated.store(true, Ordering::Release);
                            }
                            *g += 1;
                            let dying = plan.fires(FaultKind::CsPanic);
                            if holders.fetch_sub(1, Ordering::AcqRel) != 1 {
                                violated.store(true, Ordering::Release);
                            }
                            if dying {
                                panic!("fault-injection: critical-section panic");
                            }
                        }));
                    }
                })
            })
            .collect();
        // No stranded waiter: every join returns (a waiter parked
        // forever would hang here and fail by timeout).
        for h in handles {
            h.join().expect("workers absorb their own panics via catch_unwind");
        }

        prop_assert!(!violated.load(Ordering::Acquire), "mutual exclusion violated");
        prop_assert_eq!(mutex.waiting_now(), 0, "leaked waiting count");
        let stats = mutex.stats();
        prop_assert_eq!(stats.poison_events, plan.report().cs_panics);
        // Poisoned-but-recoverable: whatever state the run ended in, the
        // poison flag clears and the lock (and its value) remain usable.
        if mutex.is_poisoned() {
            prop_assert!(mutex.clear_poison());
        }
        prop_assert!(!mutex.is_poisoned());
        prop_assert_eq!(*mutex.lock(), threads as u64 * iters, "lost critical sections");
    }
}

/// Fixed-seed regression for the distributed ring's interaction with
/// worker death: a doomed searcher that dies with subproblems still in
/// its local ring queue must not orphan them — the supervisor reports
/// the stranded count, survivors steal the queue through the ring (or
/// the caller drains it), and the tour stays optimal.
#[test]
fn dead_workers_nonempty_ring_queue_is_never_lost() {
    use adaptive_objects::tsp::{
        solve_native, solve_sequential, NativeTspConfig, NativeVariant, TspInstance,
    };

    // Every worker is doomed, with deaths staggered over steps 4..11 by
    // the per-worker jitter. Partial kills are too polite for this
    // regression: on an oversubscribed host the idle majority siphons a
    // busy queue to ~zero between any two of its steps, so a lone doomed
    // worker usually dies empty-handed. With a total kill the last
    // searcher standing has no thieves left — it provably dies holding
    // the remaining frontier in its home queue.
    const SEED: u64 = 0x1993_0009;
    let spec = FaultSpec::seeded(SEED).with_worker_kills(100, 4);
    assert_eq!(
        FaultPlan::new(spec).doomed_workers(8).len(),
        8,
        "fixture spec must doom the whole crew"
    );

    let inst = TspInstance::random_euclidean(12, 500, 3);
    let (optimal, _) = solve_sequential(&inst);
    for variant in [NativeVariant::Distributed, NativeVariant::Balanced] {
        let plan = Arc::new(FaultPlan::new(spec));
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 8,
                variant,
                faults: Some(Arc::clone(&plan)),
                ..NativeTspConfig::default()
            },
        );
        let label = variant.label();
        assert_eq!(res.best, optimal, "{label}: a dead worker's queue was lost");
        assert_eq!(res.workers_died, 8, "{label}: every doomed worker must die");
        assert!(
            res.orphaned > 0,
            "{label}: doomed workers died with empty queues; the regression scenario never ran"
        );
        assert!(
            res.residual_drained > 0,
            "{label}: the caller must drain what the dead crew left behind"
        );
        assert_eq!(res.dropped, 0, "{label}: every subproblem must be recovered");
    }
}

/// One feedback-loop sample as seen by the policy: the observed waiting
/// count and the decision it produced.
type Sample = (u64, Option<NativeDecision>);

/// A policy wrapper that logs every observation the feedback loop
/// actually delivered, so two runs can be compared sample-by-sample.
struct Recording {
    inner: NativeSimpleAdapt,
    log: Arc<Mutex<Vec<Sample>>>,
}

impl AdaptationPolicy<NativeObservation> for Recording {
    type Decision = NativeDecision;

    fn decide(&mut self, obs: NativeObservation) -> Option<NativeDecision> {
        let d = self.inner.decide(obs);
        self.log
            .lock()
            .expect("recording log is never poisoned")
            .push((obs.waiting, d));
        d
    }
}

/// Regression: a panic/recover cycle leaves the `simple-adapt`
/// statistics bit-identical to a run without it. The panicking release
/// goes through `unlock_raw`, which never feeds the monitor — so the
/// policy sees the exact same observation sequence either way. The
/// dying holder is the 17th acquisition, between the samples at 10 and
/// 18 (the kernel's cadence for a policy that re-affirms pure spin), so
/// both runs sample at the same points and a dying holder's unlock that
/// reached the policy would show up as an extra log entry. The mutex's
/// unit test `panicking_unlock_never_reaches_the_policy` puts the dying
/// holder on a sample point.
#[test]
fn panic_recover_cycle_is_invisible_to_the_feedback_loop() {
    let run = |inject: bool| {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mutex = AdaptiveMutex::with_policy(
            0u64,
            Box::new(Recording {
                inner: NativeSimpleAdapt::new(2, 32),
                log: Arc::clone(&log),
            }),
        );
        for i in 0..32u64 {
            if inject && i == 16 {
                let death = catch_unwind(AssertUnwindSafe(|| {
                    let _g = mutex.lock();
                    panic!("fault-injection: critical-section panic");
                }));
                assert!(death.is_err());
                assert!(mutex.is_poisoned(), "a dying holder must poison");
            }
            *mutex.lock() += 1;
        }
        let stats = mutex.stats();
        if inject {
            assert!(mutex.clear_poison(), "poison must be recoverable");
        }
        let log = log.lock().expect("recording log is never poisoned").clone();
        (log, stats)
    };

    let (log_clean, stats_clean) = run(false);
    let (log_faulted, stats_faulted) = run(true);

    assert_eq!(
        log_clean, log_faulted,
        "the panic/recover cycle leaked into the policy's observation stream"
    );
    assert_eq!(stats_clean.reconfigurations, stats_faulted.reconfigurations);
    assert_eq!(stats_clean.poison_events, 0);
    assert_eq!(stats_faulted.poison_events, 1);
}

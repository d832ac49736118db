//! Native port of PR 1's `LockOracle` invariants: the schedule-exploration
//! harness checks the *simulated* lock family; this stress test checks the
//! real-thread `AdaptiveMutex` under genuine OS-scheduler nondeterminism.
//!
//! Invariants ported from `adaptive_locks::LockOracle`:
//!
//! * **Mutual exclusion** — a holder counter incremented on entry and
//!   decremented on exit never observes a second holder, and the sum of
//!   all critical-section increments is exact;
//! * **Waiting-count conservation** — `waiting_now()` returns to zero at
//!   quiescence (every `lock_contended` entry is matched by an exit);
//! * **No stranded waiter** — after the last unlock, every thread that
//!   ever waited has been granted (join completes; nothing parks
//!   forever).
//!
//! All runs use ≥ 8 threads with the waiting policy reconfigured
//! mid-run, both externally (`set_waiting_policy`) and by the
//! `simple-adapt` feedback loop itself.
//!
//! The second half of the file drives the same invariants through the
//! seeded [`FaultPlan`]: critical-section panics (poisoning), dropped
//! and delayed unparks, stalled monitor feeds, timed-waiter abandonment
//! storms, and worker kills inside the TSP solver. Here the
//! `adaptive_locks::LockOracle` itself is the oracle — each real thread
//! reports acquire/release/poison events under a fabricated
//! `ThreadId`, and any capacity, ownership, or conservation violation
//! fails the test immediately.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adaptive_objects::locks::LockOracle;
use adaptive_objects::native::{
    AdaptiveMutex, FaultKind, FaultPlan, FaultSpec, FixedPolicy, LockAlgorithm, NativeDecision,
    NativeSimpleAdapt, NativeWaitingPolicy, PolicyChoice, SPIN_FOREVER,
};
use adaptive_objects::sim::ThreadId;
use adaptive_objects::tsp::{
    solve_native, solve_sequential, NativeTspConfig, NativeVariant, RetunePlan, TspInstance,
};

/// The state protected by the mutex in these tests: a holder counter
/// checked for mutual exclusion plus the count of completed critical
/// sections.
#[derive(Debug, Default)]
struct Oracle {
    completed: u64,
}

fn stress(
    mutex: Arc<AdaptiveMutex<Oracle>>,
    threads: u32,
    iters: u64,
    reconfigure: impl Fn(u64, &AdaptiveMutex<Oracle>) + Send + Sync + 'static,
) {
    let holders = Arc::new(AtomicU32::new(0));
    let violated = Arc::new(AtomicBool::new(false));
    let reconfigure = Arc::new(reconfigure);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mutex = Arc::clone(&mutex);
            let holders = Arc::clone(&holders);
            let violated = Arc::clone(&violated);
            let reconfigure = Arc::clone(&reconfigure);
            std::thread::spawn(move || {
                for i in 0..iters {
                    if t == 0 {
                        // One thread doubles as the reconfigurer,
                        // flipping the waiting policy mid-run while the
                        // other ≥7 threads contend.
                        reconfigure(i, &mutex);
                    }
                    let mut g = mutex.lock();
                    // Mutual exclusion: we must be the only holder from
                    // acquisition to release.
                    if holders.fetch_add(1, Ordering::AcqRel) != 0 {
                        violated.store(true, Ordering::Release);
                    }
                    g.completed += 1;
                    if t % 3 == 0 {
                        std::hint::spin_loop(); // vary hold times a little
                    }
                    if holders.fetch_sub(1, Ordering::AcqRel) != 1 {
                        violated.store(true, Ordering::Release);
                    }
                    drop(g);
                }
            })
        })
        .collect();
    // No stranded waiter: every thread terminates (a waiter parked
    // forever would hang the join and fail the test by timeout).
    for h in handles {
        h.join().expect("no stress thread may panic");
    }
    assert!(
        !violated.load(Ordering::Acquire),
        "mutual exclusion violated"
    );
    // Exactness (`completed == threads * iters`) and waiting-count
    // conservation are asserted by the callers: a test may keep other
    // lock users running while `stress` finishes.
    assert!(
        mutex.lock().completed >= u64::from(threads) * iters,
        "lost critical sections"
    );
}

#[test]
fn oracle_invariants_hold_under_external_reconfiguration() {
    // 8 threads hammer the lock while thread 0 cycles the full waiting
    // policy attribute set: pure spin -> combined -> pure blocking.
    // A static lock (the default `combined(64)`, never sampled), so
    // only the external flips steer.
    let mutex = Arc::new(PolicyChoice::FixedSpin(64).build_mutex(Oracle::default()));
    stress(Arc::clone(&mutex), 8, 400, |i, m| {
        match i % 3 {
            0 => m.set_waiting_policy(NativeWaitingPolicy {
                spin: SPIN_FOREVER,
                delay: 16,
                timeout: None,
            }),
            1 => m.set_waiting_policy(NativeWaitingPolicy::combined(50)),
            _ => m.set_waiting_policy(NativeWaitingPolicy::pure_blocking()),
        };
    });
    assert_eq!(mutex.lock().completed, 8 * 400, "lost critical sections");
    // Waiting-count conservation: at quiescence every lock_contended
    // entry has been matched by an exit.
    assert_eq!(mutex.waiting_now(), 0, "stranded waiting count");
}

#[test]
fn oracle_invariants_hold_under_adaptive_feedback() {
    // The simple-adapt loop reconfigures on its own at the kernel's
    // period; thread 0 additionally jolts the attributes to force
    // transitions the feedback loop then has to recover from.
    let mutex = Arc::new(AdaptiveMutex::with_policy(
        Oracle::default(),
        Box::new(NativeSimpleAdapt::new(2, 32)),
    ));
    stress(Arc::clone(&mutex), 10, 300, |i, m| {
        if i % 64 == 0 {
            m.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
        }
    });
    assert_eq!(mutex.lock().completed, 10 * 300, "lost critical sections");
    assert_eq!(mutex.waiting_now(), 0, "stranded waiting count");
    let stats = mutex.stats();
    assert!(
        stats.reconfigurations > 0,
        "the feedback loop never reconfigured under contention"
    );
}

#[test]
fn oracle_invariants_hold_with_timed_waiters_in_the_mix() {
    // Timed acquires abandon queue nodes mid-run; pruning must never
    // strand a plain waiter or leak a waiting count.
    let mutex = Arc::new(AdaptiveMutex::new(Oracle::default()));
    let timed_mutex = Arc::clone(&mutex);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let timed = std::thread::spawn(move || {
        let mut granted = 0u64;
        while !stop2.load(Ordering::Acquire) {
            if let Some(mut g) = timed_mutex.lock_timeout(Duration::from_micros(80)) {
                g.completed += 1;
                granted += 1;
            }
        }
        granted
    });
    stress(Arc::clone(&mutex), 8, 300, |i, m| {
        if i % 50 == 0 {
            m.set_waiting_policy(NativeWaitingPolicy::combined(25));
        }
    });
    // `stress` already verified conservation for its own 8 threads —
    // but the timed thread is still running, so re-check quiescence
    // after it exits too.
    stop.store(true, Ordering::Release);
    let granted = timed.join().expect("timed thread must not panic");
    assert_eq!(
        mutex.lock().completed,
        8 * 300 + granted,
        "timed grants must be exact"
    );
    assert_eq!(mutex.waiting_now(), 0);
}

#[test]
fn oracle_invariants_hold_on_every_zoo_engine() {
    // The same stress pattern as the spin-park tests above, pinned to
    // each zoo engine: exclusion, exactness, and conservation are
    // engine-independent properties of the mutex.
    for algo in [LockAlgorithm::Ticket, LockAlgorithm::Combining] {
        let mutex = Arc::new(AdaptiveMutex::new(Oracle::default()));
        mutex.set_algorithm(algo);
        stress(Arc::clone(&mutex), 8, 300, |i, m| {
            if i % 50 == 0 {
                // Attribute flips must be harmless on engines that
                // ignore most of the attribute set.
                m.set_waiting_policy(NativeWaitingPolicy::combined(25));
            }
        });
        assert_eq!(mutex.lock().completed, 8 * 300, "{algo:?}: lost critical sections");
        assert_eq!(mutex.waiting_now(), 0, "{algo:?}: stranded waiting count");
        assert_eq!(mutex.algorithm(), algo, "{algo:?}: nothing requested a switch");
    }
}

// ------------------------------------------------------------------------
// Fault-injection sweeps: the same oracle invariants, now with the
// protocol actively sabotaged by a seeded FaultPlan.
// ------------------------------------------------------------------------

/// Run `threads` real threads against one `AdaptiveMutex`, each
/// iteration acquiring, reporting to the `LockOracle`, and panicking
/// with the lock held whenever the plan's CS-panic stream fires. Every
/// thread recovers poisoned locks it encounters (`clear_poison` +
/// `Poisoned::into_inner`). Returns the total critical sections that ran
/// to completion (i.e. did not panic).
fn faulted_stress(
    mutex: &Arc<AdaptiveMutex<Oracle>>,
    oracle: &Arc<LockOracle>,
    plan: &Arc<FaultPlan>,
    threads: usize,
    iters: u64,
) -> u64 {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mutex = Arc::clone(mutex);
            let oracle = Arc::clone(oracle);
            let plan = Arc::clone(plan);
            std::thread::spawn(move || {
                let tid = ThreadId(t);
                let mut clean = 0u64;
                for _ in 0..iters {
                    let cs = catch_unwind(AssertUnwindSafe(|| {
                        let mut g = match mutex.lock_checked() {
                            Ok(g) => g,
                            Err(poisoned) => {
                                // Advisory poison left by an earlier
                                // victim: the counter invariant survives
                                // a mid-CS panic, so vouch for the value
                                // and keep going.
                                mutex.clear_poison();
                                poisoned.into_inner()
                            }
                        };
                        oracle.on_acquire(tid);
                        g.completed += 1;
                        if plan.fires(FaultKind::CsPanic) {
                            // The oracle sees the poison release exactly
                            // where the unwinder performs it (guard drop
                            // while panicking).
                            oracle.on_poison(tid);
                            panic!("fault-injection: critical-section panic");
                        }
                        oracle.on_release(tid);
                    }));
                    if cs.is_ok() {
                        clean += 1;
                    }
                }
                clean
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("oracle violations fail the worker, not the join"))
        .sum()
}

#[test]
fn cs_panics_poison_but_never_break_the_oracle() {
    let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(0xfa117).with_cs_panics(16)));
    let mutex = Arc::new(AdaptiveMutex::new(Oracle::default()));
    let oracle = LockOracle::mutex();
    let (threads, iters) = (8usize, 200u64);

    let clean = faulted_stress(&mutex, &oracle, &plan, threads, iters);

    let injected = plan.report().cs_panics;
    assert!(injected > 0, "one-in-16 over 1600 draws must fire");
    assert_eq!(clean, threads as u64 * iters - injected);
    // Every iteration incremented the counter before (possibly) dying:
    // panics poison, they do not lose critical sections.
    assert_eq!(mutex.lock().completed, threads as u64 * iters);
    assert_eq!(mutex.waiting_now(), 0, "stranded waiting count");

    // The oracle agrees event-by-event: each injected panic was seen as
    // a poison release by the then-current holder, and the permit came
    // back every time (quiescence).
    oracle.assert_quiescent();
    let counts = oracle.counts();
    assert_eq!(counts.poisons, injected);
    assert_eq!(counts.acquires, threads as u64 * iters);
    assert_eq!(counts.releases + counts.poisons, counts.acquires);

    // And the mutex's own books match: every panic poisoned, every
    // poison was recovered.
    let stats = mutex.stats();
    assert_eq!(stats.poison_events, injected);
    assert!(stats.poison_clears > 0, "recoveries must have happened");
    assert!(!mutex.is_poisoned() || mutex.clear_poison());
}

#[test]
fn unpark_faults_and_abandon_storms_never_strand_waiters() {
    // A fixed pure-blocking policy keeps every contended acquire parked,
    // maximizing exposure to dropped/delayed unparks; sampling still
    // runs (at the kernel's period) so the monitor-stall stream is
    // exercised too.
    // Dropped unparks are survivable only because of the parker's
    // rescue poll — each one costs up to one poll interval, so the drop
    // rate is kept low.
    let plan = Arc::new(FaultPlan::new(
        FaultSpec::seeded(0xbad5eed)
            .with_unpark_drops(64)
            .with_unpark_delays(16, Duration::from_micros(50))
            .with_monitor_stalls(4)
            .with_abandon_storms(8),
    ));
    let mutex = Arc::new(AdaptiveMutex::with_policy(
        Oracle::default(),
        Box::new(FixedPolicy(NativeDecision::PureBlocking)),
    ));
    mutex.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
    mutex.set_fault_hook(Arc::clone(&plan) as Arc<_>);
    let oracle = LockOracle::mutex();
    let timed_grants = Arc::new(AtomicU64::new(0));

    let (threads, iters) = (8usize, 100u64);
    // All threads start together and hold the lock long enough that a
    // convoy of parked waiters forms — otherwise the release path never
    // reaches the unpark injection point.
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mutex = Arc::clone(&mutex);
            let oracle = Arc::clone(&oracle);
            let plan = Arc::clone(&plan);
            let timed_grants = Arc::clone(&timed_grants);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let tid = ThreadId(t);
                barrier.wait();
                for _ in 0..iters {
                    let mut g = mutex.lock();
                    oracle.on_acquire(tid);
                    g.completed += 1;
                    for _ in 0..300 {
                        std::hint::spin_loop();
                    }
                    oracle.on_release(tid);
                    drop(g);
                    if t == 0 && plan.fires(FaultKind::AbandonStorm) {
                        // Abandonment storm: a burst of near-zero-timeout
                        // acquires that mostly abandon their queue nodes
                        // at once, racing the pruning path against the
                        // blocked crowd.
                        for _ in 0..6 {
                            if let Some(mut g) = mutex.lock_timeout(Duration::from_micros(30)) {
                                oracle.on_acquire(tid);
                                g.completed += 1;
                                timed_grants.fetch_add(1, Ordering::Relaxed);
                                oracle.on_release(tid);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no stress thread may panic");
    }

    // On a loaded host the free-for-all above may serialize without ever
    // parking a waiter, so force the release-with-queued-waiter path
    // until both unpark fault streams have demonstrably fired: hold the
    // lock, queue one waiter, release into it (one `before_unpark` draw
    // per round).
    let mut forced = 0u64;
    loop {
        let r = plan.report();
        if r.unparks_dropped > 0 && r.unparks_delayed > 0 {
            break;
        }
        forced += 1;
        assert!(forced < 2000, "unpark streams never fired ({r:?})");
        let holder = mutex.lock();
        oracle.on_acquire(ThreadId(100));
        let m2 = Arc::clone(&mutex);
        let o2 = Arc::clone(&oracle);
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock();
            o2.on_acquire(ThreadId(101));
            g.completed += 1;
            o2.on_release(ThreadId(101));
        });
        while !mutex.has_queued_waiters() {
            std::hint::spin_loop();
        }
        oracle.on_release(ThreadId(100));
        drop(holder);
        waiter.join().expect("forced waiter must not panic");
    }

    // No stranded waiter, no leaked waiting count, no lost increment —
    // even though unparks were dropped outright.
    oracle.assert_quiescent();
    assert_eq!(mutex.waiting_now(), 0, "stranded waiting count");
    assert_eq!(
        mutex.lock().completed,
        threads as u64 * iters + timed_grants.load(Ordering::Relaxed) + forced,
        "lost critical sections"
    );
    let report = plan.report();
    assert!(report.abandon_storms > 0, "storm stream never fired");
    assert!(report.unparks_dropped > 0 && report.unparks_delayed > 0);
    assert!(report.monitor_stalls > 0, "monitor-stall stream never fired");
}

#[test]
fn cs_panics_poison_every_zoo_engine_without_breaking_the_oracle() {
    // `faulted_stress` (lock_checked + clear_poison + poison-reporting
    // unwinds) must behave identically on every engine.
    for algo in [LockAlgorithm::Ticket, LockAlgorithm::Combining] {
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(0xfa118).with_cs_panics(16)));
        let mutex = Arc::new(AdaptiveMutex::new(Oracle::default()));
        mutex.set_algorithm(algo);
        let oracle = LockOracle::mutex();
        let (threads, iters) = (8usize, 150u64);
        let clean = faulted_stress(&mutex, &oracle, &plan, threads, iters);
        let injected = plan.report().cs_panics;
        assert!(injected > 0, "{algo:?}: the CS-panic stream never fired");
        assert_eq!(clean, threads as u64 * iters - injected, "{algo:?}");
        assert_eq!(mutex.lock().completed, threads as u64 * iters, "{algo:?}");
        assert_eq!(mutex.waiting_now(), 0, "{algo:?}: stranded waiting count");
        oracle.assert_quiescent();
        let counts = oracle.counts();
        assert_eq!(counts.poisons, injected, "{algo:?}");
        assert_eq!(counts.releases + counts.poisons, counts.acquires, "{algo:?}");
        assert_eq!(mutex.algorithm(), algo, "{algo:?}");
    }
}

/// The tentpole acceptance test: a running, contended lock migrates
/// between all three engines while 10 threads (half through guards, half
/// through `with_locked`) hammer it, critical sections panic, and
/// unparks are dropped. The `LockOracle` audits every event; zero lost
/// waiters means the joins complete and the waiting count conserves.
#[test]
fn live_algorithm_switches_under_faults_lose_no_waiters() {
    let plan = Arc::new(FaultPlan::new(
        FaultSpec::seeded(0x5147c4)
            .with_cs_panics(64)
            .with_unpark_drops(64),
    ));
    let mutex = Arc::new(AdaptiveMutex::new(Oracle::default()));
    mutex.set_fault_hook(Arc::clone(&plan) as Arc<_>);
    let oracle = LockOracle::mutex();
    let (threads, iters) = (10usize, 200u64);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mutex = Arc::clone(&mutex);
            let oracle = Arc::clone(&oracle);
            let plan = Arc::clone(&plan);
            std::thread::spawn(move || {
                let tid = ThreadId(t);
                for i in 0..iters {
                    if t == 0 && i % 10 == 0 {
                        // The switcher: cycle through every engine while
                        // the other 9 threads contend.
                        let algos = LockAlgorithm::ALL;
                        mutex.set_algorithm(algos[((i / 10) as usize) % algos.len()]);
                    }
                    if t % 2 == 0 {
                        // Publication path: combines under the combining
                        // engine, plain guarded lock elsewhere.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            mutex.with_locked(|o| {
                                oracle.on_acquire(tid);
                                o.completed += 1;
                                if plan.fires(FaultKind::CsPanic) {
                                    oracle.on_poison(tid);
                                    panic!("fault-injection: combined CS panic");
                                }
                                oracle.on_release(tid);
                            });
                        }));
                        mutex.clear_poison();
                    } else {
                        // Guard path, recovering any poison it meets.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let mut g = match mutex.lock_checked() {
                                Ok(g) => g,
                                Err(poisoned) => {
                                    mutex.clear_poison();
                                    poisoned.into_inner()
                                }
                            };
                            oracle.on_acquire(tid);
                            g.completed += 1;
                            if plan.fires(FaultKind::CsPanic) {
                                oracle.on_poison(tid);
                                panic!("fault-injection: critical-section panic");
                            }
                            oracle.on_release(tid);
                        }));
                    }
                }
            })
        })
        .collect();
    // Zero lost waiters: every thread joins (a waiter stranded by a
    // mid-switch lost wakeup would hang here).
    for h in handles {
        h.join().expect("no stress thread may panic");
    }
    mutex.set_algorithm(LockAlgorithm::SpinPark);
    assert_eq!(
        mutex.lock().completed,
        threads as u64 * iters,
        "a live switch dropped a critical section"
    );
    assert_eq!(mutex.waiting_now(), 0, "stranded waiting count");
    oracle.assert_quiescent();
    let counts = oracle.counts();
    assert_eq!(counts.acquires, threads as u64 * iters);
    assert_eq!(counts.releases + counts.poisons, counts.acquires);
    let stats = mutex.stats();
    assert!(
        stats.algorithm_switches > 0,
        "the run never actually migrated engines"
    );
    assert!(plan.report().cs_panics > 0, "the CS-panic stream never fired");
}

/// The acceptance demo of the failure model, end to end: 25% of the TSP
/// workers are killed mid-search and one in 64 critical sections panics
/// with a shared lock held — yet the solver returns the known-optimal
/// tour, the lock-protocol oracle stays silent under the same fault
/// plan, the poisoned locks report recovery, and the run is
/// deterministic under the fixed fault seed.
#[test]
fn demo_faulted_tsp_stays_exact_with_quarter_of_workers_dead() {
    const DEMO_SEED: u64 = 0x1993_0615; // fixed fault seed (HPDC '93)
    let spec = FaultSpec::seeded(DEMO_SEED)
        .with_cs_panics(64)
        .with_worker_kills(25, 4);

    // Part 1 — the lock protocol under this plan's fault kinds, checked
    // event-by-event: no oracle invariant fires.
    {
        let plan = Arc::new(FaultPlan::new(spec));
        let mutex = Arc::new(AdaptiveMutex::new(Oracle::default()));
        let oracle = LockOracle::mutex();
        faulted_stress(&mutex, &oracle, &plan, 8, 150);
        oracle.assert_quiescent();
        assert_eq!(oracle.counts().poisons, plan.report().cs_panics);
    }

    // Part 2 — the solver under the same spec, once per program
    // structure: 2 of 8 searchers die, CS panics poison the shared locks
    // mid-expansion, and every structure's answer is still exact.
    let inst = TspInstance::random_euclidean(11, 500, 42);
    let (optimal, _) = solve_sequential(&inst);
    for variant in NativeVariant::ALL {
        let run = || {
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
            (res, plan.report())
        };

        let label = variant.label();
        let (a, ra) = run();
        assert_eq!(a.best, optimal, "{label}: search must stay exact under faults");
        assert_eq!(a.workers_died, 2, "{label}: exactly 25% of 8 workers die");
        assert_eq!(a.worker_panics, a.workers_died + ra.cs_panics, "{label}");
        assert_eq!(a.dropped, 0, "{label}: the retry budget must absorb every panic");
        assert!(ra.cs_panics > 0, "{label}: the CS-panic stream never fired");
        assert!(
            a.poison_recoveries > 0,
            "{label}: poisoned shared locks must report recovery"
        );

        // Deterministic under the fixed seed: the doomed-worker set, the
        // exactness of the answer, and the recovery guarantees reproduce.
        let (b, rb) = run();
        assert_eq!(b.best, a.best, "{label}");
        assert_eq!(b.workers_died, a.workers_died, "{label}");
        assert_eq!(b.dropped, a.dropped, "{label}");
        assert!(rb.cs_panics > 0 && b.poison_recoveries > 0, "{label}");
    }
}

/// ISSUE 4's stress sweep: the distributed ring structures at 8–10
/// searcher threads (oversubscribed on small hosts) with the waiting
/// policy of every `qlock` and best-tour lock reconfigured mid-run by a
/// [`RetunePlan`] cycling pure-spin -> combined -> pure-blocking. The
/// sequential solver is the oracle; distribution, stealing, load
/// balancing, and retuning may change the clock, never the answer.
#[test]
fn distributed_structures_stay_exact_under_mid_run_retuning() {
    let inst = TspInstance::random_euclidean(12, 500, 3);
    let (optimal, _) = solve_sequential(&inst);
    for variant in [NativeVariant::Distributed, NativeVariant::Balanced] {
        for searchers in [8usize, 10] {
            let res = solve_native(
                &inst,
                NativeTspConfig {
                    searchers,
                    variant,
                    retune: Some(RetunePlan::full_cycle(16)),
                    ..NativeTspConfig::default()
                },
            );
            let label = variant.label();
            assert_eq!(res.best, optimal, "{label} x {searchers}");
            assert_eq!(res.per_queue_locks.len(), searchers, "{label} x {searchers}");
            assert!(res.retunes > 0, "{label} x {searchers}: retune plan never fired");
            assert_eq!(res.dropped, 0, "{label} x {searchers}");
            // Quiescence: the merged qlock books balance — every
            // contended acquisition was eventually granted and released
            // (a stranded waiter would have hung the solver's join).
            assert!(res.queue_lock().acquisitions > 0, "{label} x {searchers}");
        }
    }
}

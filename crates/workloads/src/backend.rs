//! Backend-neutral contention workload: one spec, two executions.
//!
//! The paper's lock experiments are defined by a handful of knobs —
//! thread count, critical-section length, think time, waiting policy —
//! not by where they run. [`ContentionSpec`] captures the knobs once;
//! [`run_contention`] executes the same workload on OS threads through
//! [`adaptive_native::AdaptiveMutex`] or, with the `async-backend`
//! feature, as tasks through [`asyncx::AsyncAdaptiveMutex`] (wall time,
//! real hardware). The simulator's contention runner is
//! [`crate::csweep::run_once`], which takes a [`crate::LockSpec`].
//!
//! ## Measurement discipline
//!
//! Both executions follow the same rules, so their rows are comparable:
//!
//! * **The clock excludes setup.** Workers rendezvous on a start
//!   barrier and the clock starts immediately *before* the barrier
//!   release: started after our own `wait()` returns, a single-core
//!   host can run the workers to completion before the main thread is
//!   rescheduled; started before spawn, the row measures
//!   thread-creation cost instead of lock behavior.
//! * **Per-thread accounting.** Every worker tallies its own completed
//!   ops, its summed *acquisition latency* (enter-to-acquired: from
//!   just before the lock call to the first instruction of the critical
//!   section), and its own elapsed time from the common epoch to its
//!   last completed op. Those feed the fairness fields of every row
//!   ([`ContentionPoint::fairness_index`] and the min/max per-thread
//!   throughput spread).
//! * **Honest latency names.** `mean_latency_nanos` is measured
//!   acquisition latency. The old quantity — total wall time divided by
//!   op count, which bakes think time and scheduling into a number
//!   that was *called* latency — survives under the honest name
//!   [`ContentionPoint::wall_nanos_per_op`].
//! * **Lost updates fail loudly.** The shared counter is re-checked
//!   against `threads × iters` with an always-on `assert_eq!`, not a
//!   `debug_assert!`: sweeps run `--release`, which is exactly where a
//!   release-only engine bug would otherwise pass silently.

use adaptive_native::PolicyChoice;
#[cfg(feature = "async-backend")]
use std::sync::Arc;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use crate::fairness::spread_stats;
use crate::measure::LatencyHistogram;

/// Where a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Real OS threads on the host (wall time).
    Native,
    /// Tasks on an asyncx multi-thread runtime contending through the
    /// [`asyncx::AsyncAdaptiveMutex`] (wall time). `threads` counts
    /// *tasks*; the runtime drives them on `min(threads, host
    /// parallelism)` workers.
    #[cfg(feature = "async-backend")]
    Async,
}

impl Backend {
    /// Label used in report rows.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Native => "native",
            #[cfg(feature = "async-backend")]
            Backend::Async => "async",
        }
    }
}

/// One contended-lock workload: `threads` workers each acquire a single
/// shared lock `iters` times, hold it for `cs_nanos` of work, and think
/// for `think_nanos` between acquisitions.
#[derive(Debug, Clone, Copy)]
pub struct ContentionSpec {
    /// Worker threads.
    pub threads: usize,
    /// Lock/unlock iterations per thread.
    pub iters: u32,
    /// Critical-section length, in nanoseconds of busy work.
    pub cs_nanos: u64,
    /// Think time between critical sections, in nanoseconds.
    pub think_nanos: u64,
    /// The waiting policy under test.
    pub policy: PolicyChoice,
}

/// One measured point, backend-tagged so native and async rows can sit
/// in the same table.
#[derive(Debug, Clone)]
pub struct ContentionPoint {
    /// Which backend produced the point.
    pub backend: String,
    /// Waiting-policy label.
    pub policy: String,
    /// Worker threads.
    pub threads: usize,
    /// Total wall time (ns), measured from the start-barrier release —
    /// thread spawn excluded.
    pub total_nanos: u64,
    /// Lock acquisitions per second of wall time.
    pub throughput_per_sec: f64,
    /// Total time divided by total ops (ns). This is *not* latency — it
    /// includes think time and scheduling — but it is the per-op pace
    /// the old `mean_latency_nanos` field actually reported, kept under
    /// an honest name.
    pub wall_nanos_per_op: f64,
    /// Mean measured acquisition latency (enter-to-acquired, ns),
    /// averaged over every op of every thread.
    pub mean_latency_nanos: f64,
    /// Median acquisition latency (ns), from the merged per-op
    /// histogram — what a typical op saw, immune to tail pull.
    pub p50_latency_nanos: u64,
    /// 99th-percentile acquisition latency (ns) — the tail the mean
    /// hides.
    pub p99_latency_nanos: u64,
    /// Jain's fairness index over per-thread throughput (1.0 = every
    /// thread got identical service; 1/threads = one thread got it all).
    pub fairness_index: f64,
    /// Slowest thread's throughput (its ops over its own elapsed time).
    pub min_thread_ops_per_sec: f64,
    /// Fastest thread's throughput.
    pub max_thread_ops_per_sec: f64,
    /// `max_thread_ops_per_sec / min_thread_ops_per_sec` — the per-row
    /// spread; 1.0 is perfectly even service.
    pub thread_spread: f64,
}

/// What a worker does per op: critical-section work and think-time
/// work, each either a calibrated wall-clock burn (`Nanos`) or a raw
/// busy-loop iteration count (`Iters`, the dlock2-style unit).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    /// Busy-wait for this many wall nanoseconds.
    Nanos(u64),
    /// Spin this many loop iterations.
    Iters(u32),
}

impl Work {
    fn run(self) {
        match self {
            Work::Nanos(n) => busy_wait(Duration::from_nanos(n)),
            Work::Iters(n) => busy_iters(n),
        }
    }
}

/// One worker's share of a contention workload. Plans differ per thread
/// only for the imbalanced fairness workloads; `run_contention` hands
/// every thread the same plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerPlan {
    /// Lock/unlock iterations this worker performs.
    pub iters: u32,
    /// Critical-section work per op.
    pub cs: Work,
    /// Think-time (non-critical-section) work per op.
    pub think: Work,
}

/// What one worker measured about itself.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSample {
    /// Ops this thread completed (always its full `iters` quota — the
    /// workload is iteration-bounded — but tallied by the worker itself
    /// so accounting bugs show up as a sum mismatch, not a silent pass).
    pub ops: u64,
    /// Summed enter-to-acquired acquisition latency across those ops (ns).
    pub latency_nanos: u64,
    /// This thread's elapsed time from the common epoch (the
    /// start-barrier release) to its last completed op (ns).
    pub elapsed_nanos: u64,
}

/// Run one contention workload on the chosen backend.
pub fn run_contention(backend: Backend, spec: &ContentionSpec) -> ContentionPoint {
    let plan = WorkerPlan {
        iters: spec.iters,
        cs: Work::Nanos(spec.cs_nanos),
        think: Work::Nanos(spec.think_nanos),
    };
    let plans = vec![plan; spec.threads];
    let (total_nanos, samples, hist) = match backend {
        Backend::Native => run_native_plans(spec.policy, &plans, Duration::ZERO),
        #[cfg(feature = "async-backend")]
        Backend::Async => run_async_plans(spec.policy, &plans),
    };
    let s = spread_stats(&samples);
    let ops = spec.threads as u64 * u64::from(spec.iters);
    ContentionPoint {
        backend: backend.label().into(),
        policy: spec.policy.label(),
        threads: spec.threads,
        total_nanos,
        throughput_per_sec: ops as f64 / (total_nanos.max(1) as f64 / 1e9),
        wall_nanos_per_op: total_nanos as f64 / ops.max(1) as f64,
        mean_latency_nanos: s.mean_latency_nanos,
        p50_latency_nanos: hist.percentile(50.0),
        p99_latency_nanos: hist.percentile(99.0),
        fairness_index: s.fairness_index,
        min_thread_ops_per_sec: s.min_thread_ops_per_sec,
        max_thread_ops_per_sec: s.max_thread_ops_per_sec,
        thread_spread: s.thread_spread,
    }
}

/// Run per-worker plans on OS threads through an [`adaptive_native`]
/// mutex built for `policy`. Returns total wall nanoseconds (measured
/// from the start-barrier release) and per-thread samples.
///
/// `pre_start_stall` is a test hook: a sleep inserted between thread
/// spawn and the clock start, standing in for slow spawn. A correctly
/// bounded measurement window excludes it entirely; the pre-fix window
/// (clock started before spawn) charged all of it to the row.
pub(crate) fn run_native_plans(
    policy: PolicyChoice,
    plans: &[WorkerPlan],
    pre_start_stall: Duration,
) -> (u64, Vec<ThreadSample>, LatencyHistogram) {
    let mutex = policy.build_mutex(0u64);
    let expected: u64 = plans.iter().map(|p| u64::from(p.iters)).sum();
    let (total, samples, hist) = run_native_workers(plans.len(), pre_start_stall, |i| {
        let plan = plans[i];
        let mut latency_nanos = 0u64;
        let mut ops = 0u64;
        let mut hist = LatencyHistogram::new();
        for _ in 0..plan.iters {
            let enter = Instant::now();
            // `with_locked` so a combining engine actually combines; on
            // every other engine it is exactly a guarded `lock()`. The
            // latency tick runs as the critical section's first
            // instruction, so it measures enter-to-acquired (for a
            // combined op: enter-to-served) without the CS body.
            mutex.with_locked(|v| {
                let waited = saturating_nanos(enter.elapsed());
                latency_nanos += waited;
                hist.record(waited);
                *v += 1;
                plan.cs.run();
            });
            ops += 1;
            plan.think.run();
        }
        (ops, latency_nanos, hist)
    });
    // Always-on (not debug_assert!): sweeps run --release, which
    // is exactly where a release-only lost-update bug in an engine
    // would otherwise pass silently.
    assert_eq!(
        mutex.into_inner(),
        expected,
        "lost update: shared counter disagrees with threads x iters"
    );
    (total, samples, hist)
}

/// The async mutex configured for a [`PolicyChoice`]. Spin counts map
/// onto poll budgets (the async `spin` attribute); the engine-zoo
/// choices have no async twin — the async mutex has one engine — so
/// they run the default adaptive policy, keeping every sweep row
/// populated on both backends.
#[cfg(feature = "async-backend")]
fn async_mutex_for(policy: PolicyChoice, value: u64) -> asyncx::AsyncAdaptiveMutex<u64> {
    use asyncx::{AsyncAdaptiveMutex, AsyncPollAdapt};
    match policy {
        PolicyChoice::FixedSpin(k) => AsyncAdaptiveMutex::with_poll_budget(value, k),
        PolicyChoice::PureBlocking => AsyncAdaptiveMutex::with_poll_budget(value, 0),
        PolicyChoice::Adaptive { threshold, n } => {
            AsyncAdaptiveMutex::with_policy(value, Box::new(AsyncPollAdapt::new(threshold, n)))
        }
        PolicyChoice::Algorithm(_) | PolicyChoice::FairAdaptive { .. } => {
            AsyncAdaptiveMutex::new(value)
        }
    }
}

/// Run per-worker plans as tasks on an asyncx multi-thread runtime
/// through the [`asyncx::AsyncAdaptiveMutex`]. Returns total wall
/// nanoseconds (from the start-gate release), per-task samples, and the
/// merged acquisition-latency histogram — the same shapes as the native
/// runner, so async rows sit in the same tables.
///
/// One semantic difference, deliberate and load-bearing: the critical
/// section **spans one executor yield** (guard held across an await).
/// Async critical sections that never await are invisible to sibling
/// tasks on the same worker — cooperative scheduling would serialize
/// the whole workload lock-free and every policy would tie. Holding
/// across a yield is both the realistic async usage (guards held across
/// awaits) and the regime where poll-vs-park actually differs.
#[cfg(feature = "async-backend")]
pub(crate) fn run_async_plans(
    policy: PolicyChoice,
    plans: &[WorkerPlan],
) -> (u64, Vec<ThreadSample>, LatencyHistogram) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(plans.len().max(1));
    let rt = asyncx::Runtime::multi_thread(workers);
    let mutex = Arc::new(async_mutex_for(policy, 0u64));
    let expected: u64 = plans.iter().map(|p| u64::from(p.iters)).sum();
    let start = Arc::new(AtomicBool::new(false));
    let epoch: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let (total, samples, hist) = rt.block_on(async {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let plan = *plan;
                let mutex = Arc::clone(&mutex);
                let start = Arc::clone(&start);
                let epoch = Arc::clone(&epoch);
                asyncx::spawn(async move {
                    // Start gate: every task is spawned and polling
                    // before the clock starts, the tasks' analogue of
                    // the native start barrier.
                    while !start.load(Ordering::Acquire) {
                        asyncx::yield_now().await;
                    }
                    let t0 = epoch.get().copied().unwrap_or_else(Instant::now);
                    let mut ops = 0u64;
                    let mut latency_nanos = 0u64;
                    let mut hist = LatencyHistogram::new();
                    for _ in 0..plan.iters {
                        let enter = Instant::now();
                        let mut guard = mutex.lock().await;
                        let waited = saturating_nanos(enter.elapsed());
                        latency_nanos += waited;
                        hist.record(waited);
                        *guard += 1;
                        plan.cs.run();
                        // The yield that makes the hold visible to
                        // sibling tasks (see the fn docs).
                        asyncx::yield_now().await;
                        drop(guard);
                        ops += 1;
                        plan.think.run();
                    }
                    let sample = ThreadSample {
                        ops,
                        latency_nanos,
                        elapsed_nanos: saturating_nanos(t0.elapsed()).max(1),
                    };
                    (sample, hist)
                })
            })
            .collect();
        let t0 = Instant::now();
        let _ = epoch.set(t0);
        start.store(true, Ordering::Release);
        let mut hist = LatencyHistogram::new();
        let mut samples = Vec::with_capacity(handles.len());
        for h in handles {
            let (sample, h) = h.await;
            hist.merge(&h);
            samples.push(sample);
        }
        (saturating_nanos(t0.elapsed()), samples, hist)
    });
    let mutex = match Arc::try_unwrap(mutex) {
        Ok(m) => m,
        Err(_) => panic!("async workers still hold the mutex after join"),
    };
    // Always-on, exactly like the native runner: sweeps run
    // --release, where a silent lost update would otherwise pass.
    assert_eq!(
        mutex.into_inner(),
        expected,
        "lost update: shared counter disagrees with tasks x iters"
    );
    (total, samples, hist)
}

/// Spawn `nworkers` scoped threads, rendezvous on a start barrier, and
/// run `work(i)` on each; `work` returns `(ops, summed latency ns,
/// per-op latency histogram)`. Returns total wall nanoseconds,
/// per-thread samples, and the merged histogram.
///
/// The clock starts immediately *before* the barrier release (the last
/// arrival frees everyone): started after our own `wait()` returned, a
/// single-core host can run the workers to completion before this
/// thread is rescheduled; started before spawn, the row would charge
/// thread-creation time to the lock. `pre_start_stall` (tests only)
/// sleeps between spawn and clock start to make that exclusion
/// observable.
pub fn run_native_workers<F>(
    nworkers: usize,
    pre_start_stall: Duration,
    work: F,
) -> (u64, Vec<ThreadSample>, LatencyHistogram)
where
    F: Fn(usize) -> (u64, u64, LatencyHistogram) + Sync,
{
    let barrier = Barrier::new(nworkers + 1);
    let epoch: OnceLock<Instant> = OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nworkers)
            .map(|i| {
                let (barrier, epoch, work) = (&barrier, &epoch, &work);
                scope.spawn(move || {
                    barrier.wait();
                    // Set by the main thread before its own wait(), so
                    // it is always present once ours returns.
                    let t0 = epoch.get().copied().unwrap_or_else(Instant::now);
                    let (ops, latency_nanos, hist) = work(i);
                    let sample = ThreadSample {
                        ops,
                        latency_nanos,
                        elapsed_nanos: saturating_nanos(t0.elapsed()).max(1),
                    };
                    (sample, hist)
                })
            })
            .collect();
        if !pre_start_stall.is_zero() {
            std::thread::sleep(pre_start_stall);
        }
        let t0 = Instant::now();
        let _ = epoch.set(t0);
        let mut hist = LatencyHistogram::new();
        barrier.wait();
        let samples: Vec<ThreadSample> = handles
            .into_iter()
            .map(|h| {
                let (sample, h) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                hist.merge(&h);
                sample
            })
            .collect();
        (saturating_nanos(t0.elapsed()), samples, hist)
    })
}

/// `Duration` → `u64` nanoseconds, saturating.
pub fn saturating_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Burn CPU for (at least) `d`, without sleeping — critical-section
/// work must keep the processor, exactly like the simulator's
/// `ctx::advance`.
pub fn busy_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Spin exactly `n` loop iterations — the dlock2-style critical- and
/// non-critical-section unit, which prices *work* rather than a clock
/// target (a `busy_wait` under heavy preemption can overshoot wildly;
/// an iteration count cannot).
fn busy_iters(n: u32) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(policy: PolicyChoice) -> ContentionSpec {
        ContentionSpec {
            threads: 3,
            iters: 20,
            cs_nanos: 500,
            think_nanos: 500,
            policy,
        }
    }

    #[test]
    fn a_native_point_fills_every_field() {
        let spec = quick_spec(PolicyChoice::Adaptive { threshold: 2, n: 32 });
        let p = run_contention(Backend::Native, &spec);
        assert_eq!(p.backend, "native");
        assert_eq!(p.policy, "simple-adapt");
        assert_eq!(p.threads, 3);
        assert!(p.total_nanos > 0);
        assert!(p.throughput_per_sec > 0.0);
        assert!(p.wall_nanos_per_op > 0.0);
        assert!(p.mean_latency_nanos >= 0.0);
        assert!(
            p.p50_latency_nanos <= p.p99_latency_nanos,
            "p50 {} > p99 {}",
            p.p50_latency_nanos,
            p.p99_latency_nanos
        );
        assert!(
            p.fairness_index > 0.0 && p.fairness_index <= 1.0 + 1e-9,
            "fairness {}",
            p.fairness_index
        );
        assert!(p.min_thread_ops_per_sec > 0.0);
        assert!(p.max_thread_ops_per_sec >= p.min_thread_ops_per_sec);
        assert!(p.thread_spread >= 1.0);
    }

    #[test]
    fn wall_pace_and_latency_are_different_metrics() {
        // Long think time, tiny critical section: the wall pace is
        // dominated by think time, which acquisition latency must not
        // include. Pre-fix, "mean_latency_nanos" WAS the wall pace.
        let spec = ContentionSpec {
            threads: 2,
            iters: 30,
            cs_nanos: 100,
            think_nanos: 40_000,
            policy: PolicyChoice::FixedSpin(64),
        };
        let p = run_contention(Backend::Native, &spec);
        assert!(
            p.wall_nanos_per_op >= spec.think_nanos as f64 / 2.0,
            "wall pace {} must reflect think time",
            p.wall_nanos_per_op
        );
        assert!(
            p.mean_latency_nanos < p.wall_nanos_per_op / 2.0,
            "acquisition latency {} must not absorb think time (wall pace {})",
            p.mean_latency_nanos,
            p.wall_nanos_per_op
        );
    }

    #[test]
    fn measured_window_excludes_time_before_the_start_barrier() {
        // Regression for the spawn-time bug: the clock used to start
        // before thread spawn, so anything between spawn and the first
        // op — here an injected 80 ms stall standing in for slow spawn
        // — was charged to the row, and small-iter rows scaled with
        // thread count from spawn overhead alone. With the barrier,
        // total time is work only.
        let stall = Duration::from_millis(80);
        for threads in [1usize, 4] {
            let plan = WorkerPlan { iters: 1, cs: Work::Nanos(0), think: Work::Nanos(0) };
            let (total, samples, _) =
                run_native_plans(PolicyChoice::FixedSpin(64), &vec![plan; threads], stall);
            assert_eq!(samples.len(), threads);
            assert!(
                Duration::from_nanos(total) < stall,
                "{threads} threads: measured window {total} ns swallowed the pre-start stall"
            );
        }
    }

    #[test]
    fn per_thread_samples_account_for_every_op() {
        let spec = quick_spec(PolicyChoice::Algorithm(adaptive_native::LockAlgorithm::Ticket));
        let plan =
            WorkerPlan { iters: spec.iters, cs: Work::Nanos(spec.cs_nanos), think: Work::Nanos(0) };
        let (_, samples, hist) =
            run_native_plans(spec.policy, &vec![plan; spec.threads], Duration::ZERO);
        assert_eq!(samples.len(), spec.threads);
        let total_ops: u64 = samples.iter().map(|s| s.ops).sum();
        assert_eq!(total_ops, spec.threads as u64 * u64::from(spec.iters));
        assert!(samples.iter().all(|s| s.elapsed_nanos > 0));
        // The merged histogram holds exactly one sample per op.
        assert_eq!(hist.count(), total_ops);
        assert!(hist.percentile(50.0) <= hist.percentile(99.0));
    }

    #[test]
    fn native_points_cover_every_policy() {
        use adaptive_native::LockAlgorithm;
        let mut policies = vec![
            PolicyChoice::FixedSpin(32),
            PolicyChoice::PureBlocking,
            PolicyChoice::Adaptive { threshold: 2, n: 32 },
            PolicyChoice::FairAdaptive { unfair_wait_nanos: 200_000, patience: 4 },
        ];
        policies.extend(LockAlgorithm::ALL.map(PolicyChoice::Algorithm));
        for policy in policies {
            let p = run_contention(Backend::Native, &quick_spec(policy));
            assert!(p.total_nanos > 0, "{}", p.policy);
            assert!(p.fairness_index > 0.0, "{}", p.policy);
        }
    }

    #[cfg(feature = "async-backend")]
    #[test]
    fn async_backend_runs_the_same_spec_and_conserves_ops() {
        for policy in [
            PolicyChoice::FixedSpin(16),
            PolicyChoice::PureBlocking,
            PolicyChoice::Adaptive { threshold: 2, n: 32 },
            PolicyChoice::Algorithm(adaptive_native::LockAlgorithm::Ticket),
        ] {
            let p = run_contention(Backend::Async, &quick_spec(policy));
            assert_eq!(p.backend, "async", "{}", p.policy);
            assert!(p.total_nanos > 0, "{}", p.policy);
            assert!(p.throughput_per_sec > 0.0, "{}", p.policy);
            assert!(p.fairness_index > 0.0 && p.fairness_index <= 1.0 + 1e-9, "{}", p.policy);
            assert!(p.p50_latency_nanos <= p.p99_latency_nanos, "{}", p.policy);
        }
    }

    #[cfg(feature = "async-backend")]
    #[test]
    fn async_per_task_samples_account_for_every_op() {
        let spec = quick_spec(PolicyChoice::Adaptive { threshold: 2, n: 32 });
        let plan =
            WorkerPlan { iters: spec.iters, cs: Work::Nanos(spec.cs_nanos), think: Work::Nanos(0) };
        let (_, samples, hist) = run_async_plans(spec.policy, &vec![plan; spec.threads]);
        assert_eq!(samples.len(), spec.threads);
        let total_ops: u64 = samples.iter().map(|s| s.ops).sum();
        assert_eq!(total_ops, spec.threads as u64 * u64::from(spec.iters));
        assert_eq!(hist.count(), total_ops);
        assert!(samples.iter().all(|s| s.elapsed_nanos > 0));
    }
}

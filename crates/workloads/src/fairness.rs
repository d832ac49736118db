//! Fairness and imbalance workloads (the dlock2-style suite).
//!
//! Mean throughput hides what queue locks, combining locks, and barging
//! spin locks actually trade against each other. The regime where they
//! genuinely diverge is *imbalance*: give half the threads a 1000-
//! iteration critical section and the other half a 3000-iteration one,
//! dial the non-critical-section length from zero (saturated lock) to
//! 100k iterations (rare visits), and watch whether every thread still
//! gets served. A FIFO engine (ticket) keeps per-thread service
//! even; a barging engine lets the thread already in cache re-acquire
//! and starve the rest — the fairness collapse the Locks-repo
//! experiments (SNIPPETS.md Snippet 1) and "Mutable Locks" (PAPERS.md)
//! are built around.
//!
//! [`FairnessSpec`] captures the shape once and [`run_fairness`]
//! executes it on either backend through the same plan machinery as
//! [`crate::run_contention`], with per-thread op/latency accounting.
//! Every row reports [Jain's fairness index] over per-thread throughput
//! plus the min/max per-thread spread, alongside the usual ns/op.
//!
//! [Jain's fairness index]: https://en.wikipedia.org/wiki/Fairness_measure
//!
//! Critical- and non-critical-section lengths are *busy-loop iteration
//! counts* (the dlock2 unit), not nanoseconds: an iteration count
//! prices work and cannot overshoot under preemption. On the simulator
//! one iteration advances one virtual nanosecond.

use adaptive_native::PolicyChoice;
use serde::Serialize;

use crate::backend::{run_native_plans, run_sim_plans, Backend, ThreadSample, Work, WorkerPlan};

/// One fairness workload: `threads` workers split into two groups with
/// different critical-section lengths, all hammering one lock.
#[derive(Debug, Clone, Copy)]
pub struct FairnessSpec {
    /// Worker threads.
    pub threads: usize,
    /// How many of them are in group A (the rest are group B).
    pub group_a: usize,
    /// Lock/unlock iterations per thread.
    pub iters: u32,
    /// Group A's critical-section length, in busy-loop iterations.
    pub cs_iters_a: u32,
    /// Group B's critical-section length, in busy-loop iterations
    /// (equal to `cs_iters_a` for a balanced workload; the canonical
    /// imbalanced shape is 1000 vs 3000).
    pub cs_iters_b: u32,
    /// Non-critical-section length between acquisitions, in busy-loop
    /// iterations; 0 saturates the lock, large values make visits rare.
    pub ncs_iters: u32,
    /// The waiting policy / engine under test.
    pub policy: PolicyChoice,
    /// Simulator seed (ignored by the native backend).
    pub seed: u64,
}

impl Default for FairnessSpec {
    fn default() -> Self {
        FairnessSpec {
            threads: 4,
            group_a: 2,
            iters: 100,
            cs_iters_a: 1_000,
            cs_iters_b: 3_000,
            ncs_iters: 100,
            policy: PolicyChoice::Adaptive { threshold: 2, n: 32 },
            seed: 0x51ee9,
        }
    }
}

/// One measured fairness point.
#[derive(Debug, Clone, Serialize)]
pub struct FairnessPoint {
    /// Which backend produced the point.
    pub backend: String,
    /// Waiting-policy / engine label.
    pub policy: String,
    /// Worker threads.
    pub threads: usize,
    /// Threads in group A.
    pub group_a: usize,
    /// Group A critical-section length (busy-loop iterations).
    pub cs_iters_a: u32,
    /// Group B critical-section length (busy-loop iterations).
    pub cs_iters_b: u32,
    /// Non-critical-section length (busy-loop iterations).
    pub ncs_iters: u32,
    /// Lock/unlock iterations per thread.
    pub iters: u32,
    /// Whether the two groups differ (`cs_iters_a != cs_iters_b`).
    pub imbalanced: bool,
    /// Total execution time from the start-barrier release (ns).
    pub total_nanos: u64,
    /// Native only: more worker threads than host parallelism.
    pub oversubscribed: bool,
    /// Lock acquisitions per second.
    pub throughput_per_sec: f64,
    /// Total time over total ops (ns) — pace, not latency.
    pub wall_nanos_per_op: f64,
    /// Mean measured acquisition latency (enter-to-acquired, ns).
    pub mean_latency_nanos: f64,
    /// Median acquisition latency (ns), from the merged per-op
    /// histogram.
    pub p50_latency_nanos: u64,
    /// 99th-percentile acquisition latency (ns) — under a barging
    /// engine this is where starved threads show up long before the
    /// mean moves.
    pub p99_latency_nanos: u64,
    /// Jain's fairness index over per-thread throughput.
    pub fairness_index: f64,
    /// Slowest thread's throughput (ops over its own elapsed time).
    pub min_thread_ops_per_sec: f64,
    /// Fastest thread's throughput.
    pub max_thread_ops_per_sec: f64,
    /// `max / min` per-thread throughput.
    pub thread_spread: f64,
    /// Each thread's completed-op count (group A first).
    pub per_thread_ops: Vec<u64>,
    /// Each thread's throughput (ops over its own elapsed time).
    pub per_thread_ops_per_sec: Vec<f64>,
}

/// Jain's fairness index over per-thread throughput:
/// `(Σx)² / (n · Σx²)`. 1.0 means every thread got identical service;
/// `1/n` means one thread got everything. Empty or all-zero inputs
/// score 1.0 (nothing was served unevenly).
pub fn jains_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Per-thread spread statistics shared by every workload row.
#[derive(Debug, Clone)]
pub(crate) struct SpreadStats {
    pub fairness_index: f64,
    pub min_thread_ops_per_sec: f64,
    pub max_thread_ops_per_sec: f64,
    pub thread_spread: f64,
    pub mean_latency_nanos: f64,
    pub per_thread_ops: Vec<u64>,
    pub per_thread_ops_per_sec: Vec<f64>,
    pub total_ops: u64,
}

/// Summarize per-thread samples: throughput per thread (each thread's
/// ops over its *own* elapsed time, so a starved thread that finishes
/// late scores low even though it eventually completed its quota),
/// Jain's index over those, the min/max spread, and mean acquisition
/// latency weighted by ops.
pub(crate) fn spread_stats(samples: &[ThreadSample]) -> SpreadStats {
    let per_thread_ops: Vec<u64> = samples.iter().map(|s| s.ops).collect();
    let per_thread_ops_per_sec: Vec<f64> = samples
        .iter()
        .map(|s| s.ops as f64 / (s.elapsed_nanos.max(1) as f64 / 1e9))
        .collect();
    let total_ops: u64 = per_thread_ops.iter().sum();
    let total_latency: u64 = samples.iter().map(|s| s.latency_nanos).sum();
    let (mut min, mut max) = (f64::INFINITY, 0.0f64);
    for &x in &per_thread_ops_per_sec {
        min = min.min(x);
        max = max.max(x);
    }
    if !min.is_finite() {
        min = 0.0;
    }
    SpreadStats {
        fairness_index: jains_index(&per_thread_ops_per_sec),
        min_thread_ops_per_sec: min,
        max_thread_ops_per_sec: max,
        thread_spread: if min > 0.0 { max / min } else { 1.0 },
        mean_latency_nanos: total_latency as f64 / total_ops.max(1) as f64,
        per_thread_ops,
        per_thread_ops_per_sec,
        total_ops,
    }
}

/// Run one fairness workload on the chosen backend.
pub fn run_fairness(backend: Backend, spec: &FairnessSpec) -> FairnessPoint {
    let group_a = spec.group_a.min(spec.threads);
    let plans: Vec<WorkerPlan> = (0..spec.threads)
        .map(|i| WorkerPlan {
            iters: spec.iters,
            cs: Work::Iters(if i < group_a { spec.cs_iters_a } else { spec.cs_iters_b }),
            think: Work::Iters(spec.ncs_iters),
        })
        .collect();
    let (total_nanos, samples, hist) = match backend {
        Backend::Sim => run_sim_plans(spec.policy, &plans, spec.seed),
        Backend::Native => run_native_plans(spec.policy, &plans, std::time::Duration::ZERO),
        #[cfg(feature = "async-backend")]
        Backend::Async => crate::backend::run_async_plans(spec.policy, &plans),
    };
    let s = spread_stats(&samples);
    FairnessPoint {
        backend: backend.label().into(),
        policy: spec.policy.label(),
        threads: spec.threads,
        group_a,
        cs_iters_a: spec.cs_iters_a,
        cs_iters_b: spec.cs_iters_b,
        ncs_iters: spec.ncs_iters,
        iters: spec.iters,
        imbalanced: spec.cs_iters_a != spec.cs_iters_b,
        total_nanos,
        oversubscribed: matches!(backend, Backend::Native)
            && spec.threads > std::thread::available_parallelism().map_or(1, |n| n.get()),
        throughput_per_sec: s.total_ops as f64 / (total_nanos.max(1) as f64 / 1e9),
        wall_nanos_per_op: total_nanos as f64 / s.total_ops.max(1) as f64,
        mean_latency_nanos: s.mean_latency_nanos,
        p50_latency_nanos: hist.percentile(50.0),
        p99_latency_nanos: hist.percentile(99.0),
        fairness_index: s.fairness_index,
        min_thread_ops_per_sec: s.min_thread_ops_per_sec,
        max_thread_ops_per_sec: s.max_thread_ops_per_sec,
        thread_spread: s.thread_spread,
        per_thread_ops: s.per_thread_ops,
        per_thread_ops_per_sec: s.per_thread_ops_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_native::LockAlgorithm;

    fn quick_spec(policy: PolicyChoice) -> FairnessSpec {
        FairnessSpec {
            threads: 4,
            group_a: 2,
            iters: 15,
            cs_iters_a: 200,
            cs_iters_b: 600,
            ncs_iters: 50,
            policy,
            seed: 11,
        }
    }

    #[test]
    fn jains_index_is_one_for_identical_threads() {
        assert_eq!(jains_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jains_index(&[42.0]), 1.0);
    }

    #[test]
    fn jains_index_penalizes_constructed_imbalance() {
        // One thread gets 10x the service of the other three.
        let skewed = jains_index(&[10.0, 1.0, 1.0, 1.0]);
        assert!(skewed < 1.0, "skewed service must score below 1, got {skewed}");
        // Total starvation of all but one thread approaches 1/n.
        let starved = jains_index(&[100.0, 1e-9, 1e-9, 1e-9]);
        assert!(starved < 0.26, "near-total starvation must approach 1/n, got {starved}");
        // Mild imbalance sits between.
        let mild = jains_index(&[3.0, 2.0, 3.0, 2.0]);
        assert!(mild > starved && mild < 1.0);
    }

    #[test]
    fn fairness_runs_on_both_backends() {
        let spec = quick_spec(PolicyChoice::Algorithm(LockAlgorithm::Ticket));
        for backend in [Backend::Sim, Backend::Native] {
            let p = run_fairness(backend, &spec);
            assert_eq!(p.backend, backend.label());
            assert!(p.imbalanced);
            assert_eq!(p.per_thread_ops.len(), 4);
            assert_eq!(p.per_thread_ops.iter().sum::<u64>(), 4 * 15);
            assert!(p.fairness_index > 0.0 && p.fairness_index <= 1.0 + 1e-9);
            assert!(p.thread_spread >= 1.0);
            assert!(p.total_nanos > 0);
            assert!(p.p50_latency_nanos <= p.p99_latency_nanos, "{}", p.backend);
        }
    }

    #[test]
    fn every_policy_runs_the_imbalanced_workload() {
        let mut policies = vec![
            PolicyChoice::FixedSpin(32),
            PolicyChoice::PureBlocking,
            PolicyChoice::Adaptive { threshold: 2, n: 32 },
            PolicyChoice::FairAdaptive { unfair_wait_nanos: 200_000, patience: 2 },
        ];
        policies.extend(LockAlgorithm::ALL.map(PolicyChoice::Algorithm));
        for policy in policies {
            let p = run_fairness(Backend::Native, &quick_spec(policy));
            assert_eq!(p.per_thread_ops.iter().sum::<u64>(), 4 * 15, "{}", p.policy);
        }
    }

    #[cfg(feature = "async-backend")]
    #[test]
    fn fairness_runs_on_the_async_backend() {
        let spec = quick_spec(PolicyChoice::Adaptive { threshold: 2, n: 32 });
        let p = run_fairness(Backend::Async, &spec);
        assert_eq!(p.backend, "async");
        assert_eq!(p.per_thread_ops.iter().sum::<u64>(), 4 * 15);
        assert!(p.fairness_index > 0.0 && p.fairness_index <= 1.0 + 1e-9);
        assert!(p.total_nanos > 0);
    }

    #[test]
    fn group_a_is_clamped_to_the_thread_count() {
        let spec = FairnessSpec { threads: 2, group_a: 7, iters: 5, ..quick_spec(PolicyChoice::FixedSpin(16)) };
        let p = run_fairness(Backend::Native, &spec);
        assert_eq!(p.group_a, 2);
        assert_eq!(p.per_thread_ops.len(), 2);
    }

    #[test]
    fn sim_fairness_is_deterministic() {
        let spec = quick_spec(PolicyChoice::Algorithm(LockAlgorithm::Ticket));
        let a = run_fairness(Backend::Sim, &spec);
        let b = run_fairness(Backend::Sim, &spec);
        assert_eq!(a.total_nanos, b.total_nanos);
        assert_eq!(a.fairness_index, b.fairness_index);
        assert_eq!(a.per_thread_ops_per_sec, b.per_thread_ops_per_sec);
    }
}

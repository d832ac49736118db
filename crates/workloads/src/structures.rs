//! Real-data-structure workloads: a lock-protected counter vs a
//! lock-free CAS baseline, and a lock-protected queue and hashmap.
//!
//! The synthetic contention loop prices the *lock*; these price the
//! lock **around real shared state**, the dlock2 benchmark shapes
//! (SNIPPETS.md Snippet 1). The CAS counter is the lower bound a lock
//! must justify itself against: if a lock-protected counter is 10x
//! slower than `fetch_add`, the critical section had better be doing
//! more than incrementing. The queue and hashmap stand in for the
//! pointer-chasing critical sections real services hold locks over.
//!
//! Native-backend only: the CAS baseline *is* real-hardware atomics —
//! the simulator has no meaningful twin for it — and the point of
//! these rows is pricing engines against real memory effects. Every
//! lock-protected structure runs under every [`PolicyChoice`],
//! including the pinned zoo engines and the live-switching
//! `FairAdaptive`, with the same per-thread accounting and fairness
//! reporting as the synthetic suite.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use adaptive_native::PolicyChoice;
use serde::Serialize;

use crate::backend::{busy_iters, run_native_workers, saturating_nanos, ThreadSample};
use crate::fairness::spread_stats;
use crate::measure::LatencyHistogram;

/// Bound on live hashmap keys, so the map measures steady-state
/// insert/remove churn instead of unbounded growth.
const KEYSPACE: u64 = 512;

/// Which shared structure a workload hammers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// `AdaptiveMutex<u64>`: lock, increment, unlock.
    Counter,
    /// `AtomicU64::fetch_add` — the lock-free baseline; ignores the
    /// policy choice (there is no lock).
    CasCounter,
    /// `AdaptiveMutex<VecDeque<u64>>`: alternating push-back / pop-front.
    Queue,
    /// `AdaptiveMutex<HashMap<u64, u64>>`: alternating insert / remove
    /// over a bounded keyspace.
    HashMap,
}

impl StructureKind {
    /// Every structure, lock-protected ones first.
    pub const ALL: [StructureKind; 4] = [
        StructureKind::Counter,
        StructureKind::Queue,
        StructureKind::HashMap,
        StructureKind::CasCounter,
    ];

    /// Label used in report rows and BENCH JSON.
    pub fn label(self) -> &'static str {
        match self {
            StructureKind::Counter => "counter",
            StructureKind::CasCounter => "cas-counter",
            StructureKind::Queue => "queue",
            StructureKind::HashMap => "hashmap",
        }
    }

    /// Whether the structure is guarded by an adaptive lock (false for
    /// the lock-free baseline).
    pub fn lock_protected(self) -> bool {
        self != StructureKind::CasCounter
    }
}

/// One structure workload: `threads` workers each perform `iters` ops
/// on one shared structure, with `ncs_iters` of busy work between ops.
#[derive(Debug, Clone, Copy)]
pub struct StructureSpec {
    /// The shared structure under test.
    pub structure: StructureKind,
    /// Worker threads.
    pub threads: usize,
    /// Structure operations per thread.
    pub iters: u32,
    /// Non-critical-section busy-loop iterations between ops.
    pub ncs_iters: u32,
    /// The lock policy / engine (ignored by [`StructureKind::CasCounter`]).
    pub policy: PolicyChoice,
}

impl Default for StructureSpec {
    fn default() -> Self {
        StructureSpec {
            structure: StructureKind::Counter,
            threads: 4,
            iters: 1_000,
            ncs_iters: 100,
            policy: PolicyChoice::Adaptive { threshold: 2, n: 32 },
        }
    }
}

/// One measured structure point (native backend).
#[derive(Debug, Clone, Serialize)]
pub struct StructurePoint {
    /// Always `"native"`; present so structure rows can sit in the same
    /// tables as backend-tagged contention rows.
    pub backend: String,
    /// Structure label.
    pub structure: String,
    /// Lock policy label, or `"lock-free"` for the CAS baseline.
    pub policy: String,
    /// Worker threads.
    pub threads: usize,
    /// Ops per thread.
    pub iters: u32,
    /// Non-critical-section busy-loop iterations between ops.
    pub ncs_iters: u32,
    /// Total execution time from the start-barrier release (ns).
    pub total_nanos: u64,
    /// More worker threads than host hardware parallelism.
    pub oversubscribed: bool,
    /// Structure ops per second.
    pub throughput_per_sec: f64,
    /// Total time over total ops (ns) — pace, not latency.
    pub wall_nanos_per_op: f64,
    /// Mean enter-to-acquired latency (ns); for the CAS baseline, the
    /// cost of the atomic op itself.
    pub mean_latency_nanos: f64,
    /// Median per-op latency (ns), from the merged histogram.
    pub p50_latency_nanos: u64,
    /// 99th-percentile per-op latency (ns).
    pub p99_latency_nanos: u64,
    /// Jain's fairness index over per-thread throughput.
    pub fairness_index: f64,
    /// Slowest thread's throughput.
    pub min_thread_ops_per_sec: f64,
    /// Fastest thread's throughput.
    pub max_thread_ops_per_sec: f64,
    /// `max / min` per-thread throughput.
    pub thread_spread: f64,
}

/// Run one structure workload on OS threads.
///
/// Every variant ends with an always-on structural check (`assert!`,
/// not `debug_assert!`): a release-only lost-update bug in any engine
/// fails the workload instead of producing a fast wrong number.
pub fn run_structure(spec: &StructureSpec) -> StructurePoint {
    let threads = spec.threads.max(1);
    let iters = spec.iters;
    let ncs = spec.ncs_iters;
    let expected = threads as u64 * u64::from(iters);

    let (total_nanos, samples, hist): (u64, Vec<ThreadSample>, LatencyHistogram) =
        match spec.structure {
        StructureKind::Counter => {
            let m = spec.policy.build_mutex(0u64);
            let r = run_native_workers(threads, Duration::ZERO, |_| {
                let mut latency = 0u64;
                let mut hist = LatencyHistogram::new();
                for _ in 0..iters {
                    let enter = Instant::now();
                    m.with_locked(|v| {
                        let waited = saturating_nanos(enter.elapsed());
                        latency += waited;
                        hist.record(waited);
                        *v += 1;
                    });
                    busy_iters(ncs);
                }
                (u64::from(iters), latency, hist)
            });
            assert_eq!(m.into_inner(), expected, "lost update in lock-protected counter");
            r
        }
        StructureKind::CasCounter => {
            let c = AtomicU64::new(0);
            let r = run_native_workers(threads, Duration::ZERO, |_| {
                let mut latency = 0u64;
                let mut hist = LatencyHistogram::new();
                for _ in 0..iters {
                    let enter = Instant::now();
                    c.fetch_add(1, Ordering::Relaxed);
                    let waited = saturating_nanos(enter.elapsed());
                    latency += waited;
                    hist.record(waited);
                    busy_iters(ncs);
                }
                (u64::from(iters), latency, hist)
            });
            assert_eq!(c.load(Ordering::Relaxed), expected, "lost update in CAS counter");
            r
        }
        StructureKind::Queue => {
            let m = spec.policy.build_mutex(VecDeque::<u64>::new());
            let pushes = AtomicU64::new(0);
            let pops = AtomicU64::new(0);
            let r = run_native_workers(threads, Duration::ZERO, |t| {
                let mut latency = 0u64;
                let mut hist = LatencyHistogram::new();
                let (mut my_pushes, mut my_pops) = (0u64, 0u64);
                for i in 0..u64::from(iters) {
                    let enter = Instant::now();
                    if i % 2 == 0 {
                        m.with_locked(|q| {
                            let waited = saturating_nanos(enter.elapsed());
                            latency += waited;
                            hist.record(waited);
                            q.push_back(t as u64);
                        });
                        my_pushes += 1;
                    } else {
                        let popped = m.with_locked(|q| {
                            let waited = saturating_nanos(enter.elapsed());
                            latency += waited;
                            hist.record(waited);
                            q.pop_front().is_some()
                        });
                        if popped {
                            my_pops += 1;
                        }
                    }
                    busy_iters(ncs);
                }
                pushes.fetch_add(my_pushes, Ordering::Relaxed);
                pops.fetch_add(my_pops, Ordering::Relaxed);
                (u64::from(iters), latency, hist)
            });
            let left = m.into_inner().len() as u64;
            assert_eq!(
                left + pops.load(Ordering::Relaxed),
                pushes.load(Ordering::Relaxed),
                "queue lost or duplicated elements"
            );
            r
        }
        StructureKind::HashMap => {
            let m = spec.policy.build_mutex(HashMap::<u64, u64>::new());
            // Signed: threads share the keyspace, so one thread can
            // remove what another inserted and run a negative balance.
            let net = AtomicI64::new(0);
            let r = run_native_workers(threads, Duration::ZERO, |t| {
                let mut latency = 0u64;
                let mut hist = LatencyHistogram::new();
                let mut my_net = 0i64;
                for i in 0..u64::from(iters) {
                    // Spread keys across the bounded keyspace; odd ops
                    // remove what an even op may have inserted.
                    let key = (t as u64).wrapping_mul(0x9e37_79b9).wrapping_add(i / 2) % KEYSPACE;
                    let enter = Instant::now();
                    if i % 2 == 0 {
                        let fresh = m.with_locked(|h| {
                            let waited = saturating_nanos(enter.elapsed());
                            latency += waited;
                            hist.record(waited);
                            h.insert(key, i).is_none()
                        });
                        if fresh {
                            my_net += 1;
                        }
                    } else {
                        let hit = m.with_locked(|h| {
                            let waited = saturating_nanos(enter.elapsed());
                            latency += waited;
                            hist.record(waited);
                            h.remove(&key).is_some()
                        });
                        if hit {
                            my_net -= 1;
                        }
                    }
                    busy_iters(ncs);
                }
                net.fetch_add(my_net, Ordering::Relaxed);
                (u64::from(iters), latency, hist)
            });
            let map = m.into_inner();
            assert!(map.len() as u64 <= KEYSPACE, "hashmap escaped its bounded keyspace");
            assert_eq!(
                map.len() as i64,
                net.load(Ordering::Relaxed),
                "hashmap occupancy disagrees with the workers' net-insert tally"
            );
            r
        }
    };

    let s = spread_stats(&samples);
    StructurePoint {
        backend: "native".into(),
        structure: spec.structure.label().into(),
        policy: if spec.structure.lock_protected() {
            spec.policy.label()
        } else {
            "lock-free".into()
        },
        threads,
        iters,
        ncs_iters: ncs,
        total_nanos,
        oversubscribed: threads > std::thread::available_parallelism().map_or(1, |n| n.get()),
        throughput_per_sec: s.total_ops as f64 / (total_nanos.max(1) as f64 / 1e9),
        wall_nanos_per_op: total_nanos as f64 / s.total_ops.max(1) as f64,
        mean_latency_nanos: s.mean_latency_nanos,
        p50_latency_nanos: hist.percentile(50.0),
        p99_latency_nanos: hist.percentile(99.0),
        fairness_index: s.fairness_index,
        min_thread_ops_per_sec: s.min_thread_ops_per_sec,
        max_thread_ops_per_sec: s.max_thread_ops_per_sec,
        thread_spread: s.thread_spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_native::LockAlgorithm;

    fn quick(structure: StructureKind, policy: PolicyChoice) -> StructureSpec {
        StructureSpec { structure, threads: 3, iters: 40, ncs_iters: 20, policy }
    }

    #[test]
    fn every_structure_runs_and_reports_spread() {
        for structure in StructureKind::ALL {
            let p = run_structure(&quick(structure, PolicyChoice::FixedSpin(32)));
            assert_eq!(p.structure, structure.label());
            assert!(p.total_nanos > 0, "{}", p.structure);
            assert!(p.throughput_per_sec > 0.0);
            assert!(p.fairness_index > 0.0 && p.fairness_index <= 1.0 + 1e-9);
            assert!(p.thread_spread >= 1.0);
        }
    }

    #[test]
    fn lock_structures_run_under_every_engine_and_the_switcher() {
        let mut policies = vec![
            PolicyChoice::PureBlocking,
            PolicyChoice::Adaptive { threshold: 2, n: 32 },
            PolicyChoice::FairAdaptive { unfair_wait_nanos: 200_000, patience: 2 },
        ];
        policies.extend(LockAlgorithm::ALL.map(PolicyChoice::Algorithm));
        for policy in policies {
            for structure in [StructureKind::Counter, StructureKind::Queue, StructureKind::HashMap]
            {
                let p = run_structure(&quick(structure, policy));
                assert!(p.total_nanos > 0, "{} under {}", p.structure, p.policy);
            }
        }
    }

    #[test]
    fn cas_baseline_ignores_the_policy_label() {
        let p = run_structure(&quick(StructureKind::CasCounter, PolicyChoice::PureBlocking));
        assert_eq!(p.policy, "lock-free");
        assert_eq!(p.structure, "cas-counter");
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = StructureKind::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), StructureKind::ALL.len());
    }
}

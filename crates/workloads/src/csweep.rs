//! The critical-section-length sweep behind the paper's Figure 1:
//! application execution time as a function of critical-section length,
//! for pure spin, pure blocking, and combined locks with different
//! initial spin counts.
//!
//! The regime that makes the figure interesting is *more runnable
//! threads than processors*: a spinning waiter then starves same-
//! processor threads of useful work, while a blocking waiter frees the
//! processor but pays the block/unblock cost. Which side wins depends on
//! the critical-section length — and the best combined lock's spin count
//! sits in between, exactly the paper's motivation for adaptivity.

use std::sync::Arc;

use adaptive_locks::{with_lock, Lock};
use butterfly_sim::{self as sim, ctx, Duration, ProcId, SimConfig};
use cthreads::fork;
use serde::Serialize;

use crate::spec::LockSpec;

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Processors in the machine.
    pub processors: usize,
    /// Worker threads (more than `processors` to exercise the paper's
    /// multi-threads-per-processor regime).
    pub threads: usize,
    /// Lock/unlock iterations per thread.
    pub iters: u32,
    /// Uncontended "think" work between critical sections.
    pub think: Duration,
    /// Scheduling quantum (preemption matters when spinning).
    pub quantum: Duration,
    /// Seed for the simulator.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            processors: 4,
            threads: 8,
            iters: 40,
            think: Duration::micros(100),
            quantum: Duration::millis(2),
            seed: 0x51ee9,
        }
    }
}

/// One measured point of the figure.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Lock variant label.
    pub lock: String,
    /// Critical-section length (ns).
    pub cs_nanos: u64,
    /// Total application execution time (ns of virtual time).
    pub total_nanos: u64,
}

/// Run the workload once for one lock and one critical-section length;
/// returns total virtual execution time.
pub fn run_once(cfg: &SweepConfig, spec: LockSpec, cs: Duration) -> Duration {
    let cfg = cfg.clone();
    let sim_cfg = SimConfig {
        processors: cfg.processors,
        quantum: Some(cfg.quantum),
        seed: cfg.seed,
        ..SimConfig::default()
    };
    let (elapsed, _) = sim::run(sim_cfg, move || {
        let lock: Arc<dyn Lock> = spec.build(ctx::current_node());
        let t0 = ctx::now();
        let handles: Vec<_> = (0..cfg.threads)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let (iters, think) = (cfg.iters, cfg.think);
                fork(ProcId(i % cfg.processors), format!("w{i}"), move || {
                    for _ in 0..iters {
                        with_lock(lock.as_ref(), || ctx::advance(cs));
                        ctx::advance(think);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        ctx::now().since(t0)
    })
    .expect("sweep simulation runs to completion");
    elapsed
}

/// Run the full sweep: every lock at every critical-section length.
pub fn run_sweep(cfg: &SweepConfig, specs: &[LockSpec], cs_lengths: &[Duration]) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(specs.len() * cs_lengths.len());
    for &spec in specs {
        for &cs in cs_lengths {
            let total = run_once(cfg, spec, cs);
            out.push(SweepPoint {
                lock: spec.label(),
                cs_nanos: cs.as_nanos(),
                total_nanos: total.as_nanos(),
            });
        }
    }
    out
}

/// The paper's Figure 1 lock set: pure spin, pure blocking, and
/// combined(1), combined(10), combined(50).
pub fn figure1_locks() -> Vec<LockSpec> {
    vec![
        LockSpec::Spin,
        LockSpec::Blocking,
        LockSpec::Combined(1),
        LockSpec::Combined(10),
        LockSpec::Combined(50),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SweepConfig {
        SweepConfig {
            processors: 2,
            threads: 4,
            iters: 15,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn longer_critical_sections_take_longer() {
        let cfg = small();
        let short = run_once(&cfg, LockSpec::Blocking, Duration::micros(10));
        let long = run_once(&cfg, LockSpec::Blocking, Duration::micros(2_000));
        assert!(long > short);
    }

    #[test]
    fn blocking_beats_spin_for_long_sections_with_oversubscription() {
        // The paper's core claim: with more threads than processors and
        // long critical sections, spinning wastes the processor.
        let cfg = small();
        let cs = Duration::millis(3);
        let spin = run_once(&cfg, LockSpec::Spin, cs);
        let block = run_once(&cfg, LockSpec::Blocking, cs);
        assert!(
            block < spin,
            "blocking ({block}) must beat spinning ({spin}) for long critical sections"
        );
    }

    #[test]
    fn spin_beats_blocking_for_tiny_sections() {
        // Short critical sections: the block/unblock and context-switch
        // overhead dominates; spinning wins (one thread per processor so
        // spinning wastes nothing).
        let cfg = SweepConfig {
            processors: 2,
            threads: 2,
            iters: 30,
            think: Duration::micros(5),
            ..SweepConfig::default()
        };
        let cs = Duration::micros(5);
        let spin = run_once(&cfg, LockSpec::Spin, cs);
        let block = run_once(&cfg, LockSpec::Blocking, cs);
        assert!(
            spin < block,
            "spin ({spin}) must beat blocking ({block}) for tiny critical sections"
        );
    }

    /// Critical-section lengths (µs) of the \[MS93\] ladders below.
    const LADDER_US: [u64; 10] = [5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000];

    /// Two processors with `tpp` threads on each.
    fn per_processor(tpp: usize) -> SweepConfig {
        SweepConfig {
            processors: 2,
            threads: 2 * tpp,
            iters: 12,
            think: Duration::micros(50),
            ..SweepConfig::default()
        }
    }

    /// The first ladder length at which blocking finishes before spin.
    fn first_blocking_win(tpp: usize) -> Option<u64> {
        let cfg = per_processor(tpp);
        LADDER_US.into_iter().find(|&us| {
            let cs = Duration::micros(us);
            run_once(&cfg, LockSpec::Blocking, cs) < run_once(&cfg, LockSpec::Spin, cs)
        })
    }

    #[test]
    fn one_thread_per_processor_blocking_never_beats_spin() {
        // [MS93]: "spin locks consistently outperform blocking locks when
        // the number of processors exceeds the number of threads".
        assert_eq!(first_blocking_win(1), None);
    }

    #[test]
    fn oversubscription_lets_blocking_win_from_a_length_that_falls_with_load() {
        // [MS93]: "when multiple threads on each processor are capable of
        // making progress, the use of blocking is preferred even for
        // fairly small critical sections" — and the more threads per
        // processor, the shorter the section at which blocking wins.
        let two = first_blocking_win(2).expect("blocking wins somewhere at 2 threads/processor");
        assert!(two > LADDER_US[0], "spin must still win at {} µs", LADDER_US[0]);
        let four = first_blocking_win(4).expect("blocking wins somewhere at 4 threads/processor");
        assert!(four <= two, "4 threads/processor: {four} µs, 2: {two} µs");
    }

    #[test]
    fn sweep_produces_all_points() {
        let cfg = small();
        let pts = run_sweep(
            &cfg,
            &[LockSpec::Spin, LockSpec::Combined(10)],
            &[Duration::micros(10), Duration::micros(100)],
        );
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p.total_nanos > 0));
        assert_eq!(pts[0].lock, "spin");
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = small();
        let a = run_once(&cfg, LockSpec::Combined(10), Duration::micros(500));
        let b = run_once(&cfg, LockSpec::Combined(10), Duration::micros(500));
        assert_eq!(a, b);
    }

    #[test]
    fn figure1_set_has_five_locks() {
        assert_eq!(figure1_locks().len(), 5);
    }
}

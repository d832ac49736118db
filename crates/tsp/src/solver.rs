//! The three parallel TSP implementations of Section 4.
//!
//! * **Centralized** — one global work queue and one global best-tour
//!   value (both on node 0): consistent and optimally pruned, but every
//!   queue operation is a remote reference for 9 of 10 searchers and
//!   `qlock` is hot.
//! * **Distributed** — per-processor queues connected in a ring (steal
//!   from the next non-empty queue), per-processor best-tour copies
//!   propagated on improvement: mostly-local work, weaker ordering, some
//!   useless expansions.
//! * **Balanced** — distributed plus the paper's load-balancing rule:
//!   before taking work, move one subproblem from the next processor's
//!   queue into the local queue, then take the local best.
//!
//! Every implementation uses the paper's four locks: `qlock` (per
//! queue), `glob-act-lock` (active-searcher count), `glob-low-lock`
//! (best tour), and `globlock` (global bookkeeping).

use std::sync::Arc;

use adaptive_locks::{Lock, LockStats, PatternSample};
use butterfly_sim::{ctx, Duration, NodeId, ProcId, SimCell};
use cthreads::fork;

use crate::instance::TspInstance;
use crate::lmsk::{best_first_search, Expanded, NodePool, SearchStats, SubProblem};
use crate::shared::{ActiveCounter, BestTour, LockImpl, WorkQueue};

/// Which shared-abstraction structure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Global queue + global best value.
    Centralized,
    /// Ring of per-processor queues + per-processor best copies.
    Distributed,
    /// Distributed with the load-balancing take rule.
    Balanced,
}

impl Variant {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Centralized => "centralized",
            Variant::Distributed => "distributed",
            Variant::Balanced => "distributed+lb",
        }
    }

    /// All three variants, in the paper's order.
    pub const ALL: [Variant; 3] = [Variant::Centralized, Variant::Distributed, Variant::Balanced];
}

/// Tunables of a parallel TSP run.
#[derive(Debug, Clone)]
pub struct TspConfig {
    /// Number of searcher threads (one per processor, starting at 0).
    pub searchers: usize,
    /// Lock implementation backing all four lock roles.
    pub lock_impl: LockImpl,
    /// Simulated cost of expanding one matrix cell (node expansion is
    /// `O(alive^2)` matrix work).
    pub expand_ns_per_cell: u64,
    /// Simulated references charged per subproblem moved through a queue.
    pub transfer_refs: u32,
    /// Balanced only: how many subproblems the load-balancing rule pulls
    /// from the neighbor queue per take, in one batched transfer (one
    /// `qlock` cycle on each side instead of one per item).
    pub balance_batch: usize,
    /// How long an out-of-work searcher sleeps between re-checks.
    pub idle_backoff: Duration,
    /// Record locking patterns for `qlock` and `glob-act-lock`
    /// (Figures 4–9).
    pub trace_locks: bool,
}

impl Default for TspConfig {
    fn default() -> Self {
        TspConfig {
            searchers: 10,
            lock_impl: LockImpl::Blocking,
            // ~577 us per 32-city root-level expansion, matching the
            // paper's sequential-time-per-node on the GP1000.
            expand_ns_per_cell: 560,
            // The queue holds subproblem *pointers*; push/pop moves a
            // descriptor, not the matrix (which is read during the
            // charged expansion work).
            transfer_refs: 1,
            balance_batch: 1,
            idle_backoff: Duration::micros(300),
            trace_locks: false,
        }
    }
}

/// Outcome of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelResult {
    /// Minimum tour cost found (must equal the sequential optimum for
    /// the centralized variant; the distributed variants also find the
    /// optimum — they only ever do *extra* work, never skip the best
    /// leaf).
    pub best: u32,
    /// Aggregated search statistics over all searchers.
    pub stats: SearchStats,
    /// Virtual time from fork to last join.
    pub elapsed: Duration,
    /// `qlock` locking pattern (all queues merged, time-ordered).
    pub qlock_trace: Vec<PatternSample>,
    /// `glob-act-lock` locking pattern.
    pub act_trace: Vec<PatternSample>,
    /// Merged `qlock` statistics.
    pub qlock_stats: LockStats,
    /// `glob-act-lock` statistics.
    pub act_stats: LockStats,
}

struct App {
    cfg: TspConfig,
    variant: Variant,
    queues: Vec<Arc<WorkQueue>>,
    qlocks: Vec<Arc<dyn Lock>>,
    /// Centralized: the single global value. Distributed: per-searcher
    /// local copies.
    best: Vec<Arc<BestTour>>,
    active: ActiveCounter,
    globlock: Arc<dyn Lock>,
    tours_found: SimCell<u64>,
}

impl App {
    fn queue_of(&self, me: usize) -> usize {
        if self.variant == Variant::Centralized {
            0
        } else {
            me
        }
    }

    fn read_best(&self, me: usize) -> u32 {
        let idx = if self.variant == Variant::Centralized { 0 } else { me };
        self.best[idx].read()
    }

    fn publish_best(&self, me: usize, cost: u32) {
        match self.variant {
            Variant::Centralized => {
                self.best[0].offer(cost);
            }
            _ => {
                // Update the local copy, then propagate around the ring.
                let s = self.best.len();
                for k in 0..s {
                    let idx = (me + k) % s;
                    let copy = &self.best[idx];
                    copy.lock.lock();
                    copy.force_min(cost);
                    copy.lock.unlock();
                }
            }
        }
    }

    fn push_work(&self, me: usize, sp: SubProblem) {
        let q = self.queue_of(me);
        self.qlocks[q].lock();
        self.queues[q].push(sp);
        self.qlocks[q].unlock();
    }

    /// Push several subproblems in one `qlock` critical section (both
    /// children of an expansion enter the queue together).
    fn push_work_batch(&self, me: usize, sps: Vec<SubProblem>) {
        if sps.is_empty() {
            return;
        }
        let q = self.queue_of(me);
        self.qlocks[q].lock();
        self.queues[q].push_batch(sps);
        self.qlocks[q].unlock();
    }

    fn pop_from(&self, q: usize) -> Option<SubProblem> {
        self.qlocks[q].lock();
        let sp = self.queues[q].pop();
        self.qlocks[q].unlock();
        sp
    }

    fn take_work(&self, me: usize) -> Option<SubProblem> {
        match self.variant {
            Variant::Centralized => self.pop_from(0),
            Variant::Distributed => {
                if let Some(sp) = self.pop_from(me) {
                    return Some(sp);
                }
                // Ring scan: first non-empty remote queue.
                let s = self.queues.len();
                for k in 1..s {
                    let q = (me + k) % s;
                    if !self.queues[q].looks_empty() {
                        if let Some(sp) = self.pop_from(q) {
                            return Some(sp);
                        }
                    }
                }
                None
            }
            Variant::Balanced => {
                // Load balancing: pull a batch of subproblems from the
                // next processor's queue into the local queue (one
                // `qlock` cycle per side), then take the local best.
                let s = self.queues.len();
                let next = (me + 1) % s;
                if s > 1 && !self.queues[next].looks_empty() {
                    let batch = {
                        self.qlocks[next].lock();
                        let batch = self.queues[next].pop_batch(self.cfg.balance_batch.max(1));
                        self.qlocks[next].unlock();
                        batch
                    };
                    if !batch.is_empty() {
                        self.push_work_batch(me, batch);
                    }
                }
                if let Some(sp) = self.pop_from(me) {
                    return Some(sp);
                }
                // Fall back to the ring scan.
                for k in 1..s {
                    let q = (me + k) % s;
                    if !self.queues[q].looks_empty() {
                        if let Some(sp) = self.pop_from(q) {
                            return Some(sp);
                        }
                    }
                }
                None
            }
        }
    }

    /// Any work visible anywhere? (charged probes)
    fn work_visible(&self) -> bool {
        self.queues.iter().any(|q| !q.looks_empty())
    }

    fn record_tour(&self) {
        self.globlock.lock();
        self.tours_found.update(|t| *t += 1);
        self.globlock.unlock();
    }
}

fn searcher(app: &App, me: usize) -> SearchStats {
    let mut stats = SearchStats::default();
    let mut scratch = Vec::new();
    // A pool of the searcher's own. The simulated queues move nodes by
    // value, so nothing comes back to it and each include child is a new
    // node: the host's allocator is not what this solver measures.
    let mut pool = NodePool::default();
    'outer: loop {
        match app.take_work(me) {
            Some(mut sp) => {
                if sp.bound >= app.read_best(me) {
                    stats.pruned += 1;
                    continue;
                }
                // The node expansion computation itself.
                ctx::advance(Duration::nanos(
                    app.cfg.expand_ns_per_cell * sp.work_cells(),
                ));
                stats.expanded += 1;
                match sp.expand_pooled(&mut scratch, &mut pool) {
                    Expanded::Tour { cost, .. } => {
                        stats.tours += 1;
                        app.record_tour();
                        app.publish_best(me, cost);
                    }
                    Expanded::Branched { include, exclude } => {
                        let best = app.read_best(me);
                        let mut batch = Vec::with_capacity(2);
                        for c in include.map(|c| *c).into_iter().chain(exclude.then_some(sp)) {
                            if c.bound < best {
                                stats.generated += 1;
                                batch.push(c);
                            } else {
                                stats.pruned += 1;
                            }
                        }
                        app.push_work_batch(me, batch);
                    }
                    Expanded::Dead => {}
                }
            }
            None => {
                // Out of work: go inactive and wait for either new work
                // or global termination ("a searcher terminates when at
                // least one tour has been found and there is no more
                // node in the work queue").
                app.active.add(-1);
                loop {
                    if app.work_visible() {
                        app.active.add(1);
                        continue 'outer;
                    }
                    if app.active.read() == 0
                        && app.tours_found.read() > 0
                        && !app.work_visible()
                    {
                        break 'outer;
                    }
                    ctx::sleep(app.cfg.idle_backoff);
                }
            }
        }
    }
    stats
}

fn merged_trace(locks: &[Arc<dyn Lock>]) -> Vec<PatternSample> {
    let mut all: Vec<PatternSample> = locks.iter().flat_map(|l| l.take_trace()).collect();
    all.sort_by_key(|s| s.at);
    all
}

fn merged_stats(locks: &[Arc<dyn Lock>]) -> LockStats {
    locks.iter().map(|l| l.stats()).fold(LockStats::default(), |a, s| LockStats {
        acquisitions: a.acquisitions + s.acquisitions,
        contended: a.contended + s.contended,
        releases: a.releases + s.releases,
        handoffs: a.handoffs + s.handoffs,
        total_wait_nanos: a.total_wait_nanos + s.total_wait_nanos,
        max_waiting: a.max_waiting.max(s.max_waiting),
        reconfigurations: a.reconfigurations + s.reconfigurations,
    })
}

/// Run one parallel TSP solve. Must be called from inside a simulation
/// with at least `cfg.searchers` processors.
pub fn solve_parallel(inst: &TspInstance, variant: Variant, cfg: TspConfig) -> ParallelResult {
    assert!(cfg.searchers >= 1, "need at least one searcher");
    assert!(
        cfg.searchers <= ctx::num_processors(),
        "one searcher per processor: {} searchers > {} processors",
        cfg.searchers,
        ctx::num_processors()
    );
    let s = cfg.searchers;
    let home = NodeId(0);

    let (queues, qlocks): (Vec<_>, Vec<_>) = match variant {
        Variant::Centralized => (
            vec![Arc::new(WorkQueue::new(home, cfg.transfer_refs))],
            vec![cfg.lock_impl.build(home)],
        ),
        _ => (0..s)
            .map(|i| {
                (
                    Arc::new(WorkQueue::new(NodeId(i), cfg.transfer_refs)),
                    cfg.lock_impl.build(NodeId(i)),
                )
            })
            .unzip(),
    };

    let best = match variant {
        Variant::Centralized => vec![Arc::new(BestTour::new(home, cfg.lock_impl))],
        _ => (0..s)
            .map(|i| Arc::new(BestTour::new(NodeId(i), cfg.lock_impl)))
            .collect(),
    };

    let app = Arc::new(App {
        variant,
        queues,
        qlocks,
        best,
        active: ActiveCounter::new(home, cfg.lock_impl, s as i64),
        globlock: cfg.lock_impl.build(home),
        tours_found: SimCell::new_on(home, 0),
        cfg,
    });

    if app.cfg.trace_locks {
        for l in &app.qlocks {
            l.enable_tracing();
        }
        app.active.lock.enable_tracing();
    }

    // Seed the search: the main thread enqueues the root.
    let t0 = ctx::now();
    app.push_work(0, SubProblem::root(inst));

    // Fork one searcher per processor and wait for all of them.
    let handles: Vec<_> = (0..s)
        .map(|i| {
            let app = Arc::clone(&app);
            fork(ProcId(i), format!("searcher{i}"), move || searcher(&app, i))
        })
        .collect();
    let mut stats = SearchStats::default();
    for h in handles {
        let st = h.join();
        stats.expanded += st.expanded;
        stats.generated += st.generated;
        stats.tours += st.tours;
        stats.pruned += st.pruned;
    }
    let elapsed = ctx::now().since(t0);

    let best = app.best.iter().map(|b| b.peek()).min().expect("nonempty");
    debug_assert!(app.queues.iter().all(|q| q.peek_empty()));

    ParallelResult {
        best,
        stats,
        elapsed,
        qlock_trace: merged_trace(&app.qlocks),
        act_trace: app.active.lock.take_trace(),
        qlock_stats: merged_stats(&app.qlocks),
        act_stats: app.active.lock.stats(),
    }
}

/// The sequential baseline of Table 1, in virtual time: one processor,
/// no locks, a private heap — only the node-expansion work is charged.
/// Must be called inside a simulation.
pub fn solve_sequential_timed(
    inst: &TspInstance,
    expand_ns_per_cell: u64,
) -> (u32, SearchStats, Duration) {
    let t0 = ctx::now();
    let (best, stats) = best_first_search(inst, &mut NodePool::default(), |sp| {
        ctx::advance(Duration::nanos(expand_ns_per_cell * sp.work_cells()));
    });
    (best, stats, ctx::now().since(t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lmsk::solve_sequential;
    use butterfly_sim::{self as sim, SimConfig};

    fn run_variant(variant: Variant, lock_impl: LockImpl, n: usize, seed: u64) -> (u32, u32) {
        let inst = TspInstance::random_symmetric(n, 100, seed);
        let oracle = inst.held_karp();
        let cfg = TspConfig {
            searchers: 4,
            lock_impl,
            ..TspConfig::default()
        };
        let (res, _) = sim::run(SimConfig::butterfly(4), move || {
            solve_parallel(&inst, variant, cfg)
        })
        .unwrap();
        assert!(res.stats.expanded > 0);
        assert!(res.stats.tours >= 1);
        assert!(res.elapsed.as_nanos() > 0);
        (res.best, oracle)
    }

    #[test]
    fn centralized_finds_optimum() {
        for seed in [1, 2] {
            let (best, oracle) = run_variant(Variant::Centralized, LockImpl::Blocking, 9, seed);
            assert_eq!(best, oracle, "seed {seed}");
        }
    }

    #[test]
    fn distributed_finds_optimum() {
        for seed in [3, 4] {
            let (best, oracle) = run_variant(Variant::Distributed, LockImpl::Blocking, 9, seed);
            assert_eq!(best, oracle, "seed {seed}");
        }
    }

    #[test]
    fn balanced_finds_optimum() {
        for seed in [5, 6] {
            let (best, oracle) = run_variant(Variant::Balanced, LockImpl::Blocking, 9, seed);
            assert_eq!(best, oracle, "seed {seed}");
        }
    }

    #[test]
    fn balanced_with_batched_transfer_finds_optimum() {
        let inst = TspInstance::random_symmetric(9, 100, 7);
        let oracle = inst.held_karp();
        let cfg = TspConfig {
            searchers: 4,
            lock_impl: LockImpl::Blocking,
            balance_batch: 3,
            ..TspConfig::default()
        };
        let (res, _) = sim::run(SimConfig::butterfly(4), move || {
            solve_parallel(&inst, Variant::Balanced, cfg)
        })
        .unwrap();
        assert_eq!(res.best, oracle);
    }

    #[test]
    fn adaptive_locks_find_optimum_too() {
        for variant in Variant::ALL {
            let (best, oracle) = run_variant(
                variant,
                LockImpl::Adaptive { threshold: 3, n: 5 },
                8,
                7,
            );
            assert_eq!(best, oracle, "{variant:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let inst = TspInstance::random_euclidean(10, 300, 17);
        let (seq_best, _) = solve_sequential(&inst);
        let inst2 = inst.clone();
        let (res, _) = sim::run(SimConfig::butterfly(4), move || {
            solve_parallel(
                &inst2,
                Variant::Centralized,
                TspConfig {
                    searchers: 4,
                    ..TspConfig::default()
                },
            )
        })
        .unwrap();
        assert_eq!(res.best, seq_best);
    }

    #[test]
    fn tracing_collects_patterns() {
        let inst = TspInstance::random_symmetric(9, 100, 9);
        let (res, _) = sim::run(SimConfig::butterfly(4), move || {
            solve_parallel(
                &inst,
                Variant::Centralized,
                TspConfig {
                    searchers: 4,
                    trace_locks: true,
                    ..TspConfig::default()
                },
            )
        })
        .unwrap();
        assert!(!res.qlock_trace.is_empty(), "qlock pattern must be recorded");
        assert!(!res.act_trace.is_empty(), "glob-act-lock pattern must be recorded");
        assert!(res.qlock_trace.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(res.qlock_stats.acquisitions > 0);
        assert!(res.act_stats.acquisitions > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let inst = TspInstance::random_symmetric(9, 100, 21);
            sim::run(SimConfig::butterfly(4), move || {
                let r = solve_parallel(
                    &inst,
                    Variant::Distributed,
                    TspConfig {
                        searchers: 4,
                        ..TspConfig::default()
                    },
                );
                (r.best, r.stats.expanded, r.elapsed)
            })
            .unwrap()
            .0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_searcher_degenerates_to_sequential_order() {
        let inst = TspInstance::random_symmetric(8, 100, 31);
        let (seq_best, _) = solve_sequential(&inst);
        let inst2 = inst.clone();
        let (res, _) = sim::run(SimConfig::butterfly(1), move || {
            solve_parallel(
                &inst2,
                Variant::Centralized,
                TspConfig {
                    searchers: 1,
                    ..TspConfig::default()
                },
            )
        })
        .unwrap();
        assert_eq!(res.best, seq_best);
    }
}

//! Native (OS-thread) parallel LMSK solver.
//!
//! The same branch-and-bound search as the simulator-side
//! [`solve_parallel`](crate::solve_parallel), on real threads
//! synchronized through [`adaptive_native::AdaptiveMutex`], in all
//! three of the paper's program structures ([`NativeVariant`]):
//!
//! * **Centralized** — one global best-first work queue and one global
//!   best tour; every queue operation serializes on the single `qlock`.
//! * **Distributed** — one work queue per searcher connected in a ring:
//!   a searcher takes its work from its own queue and, when that is
//!   empty, scans the ring and *steals* a batch (the
//!   [`NativeTspConfig::transfer_refs`] knob) from the first non-empty
//!   remote queue. Each searcher keeps a
//!   local best-tour copy; improvements propagate around the ring under
//!   each copy's `glob-low-lock`.
//! * **Balanced** — distributed plus the load-balancing rule: when a
//!   push would grow the local queue past
//!   [`NativeTspConfig::balance_threshold`], part of the batch is pushed
//!   to the shorter of the two ring neighbors instead.
//!
//! The lock configuration ([`PolicyChoice`]) is the experiment's
//! independent variable, exactly as `LockImpl` is for the simulated
//! solver, so the perf pipeline can compare static and adaptive waiting
//! policies on the paper's actual application — and, with the variant
//! axis, reproduce its headline result: once the centralized `qlock` is
//! split into N mostly-local ones, contended acquisitions collapse.
//!
//! ## The queue step
//!
//! A searcher visits its home `qlock` once per batch: the critical
//! section that queues the children of the nodes it has just expanded
//! also hands it the next batch (`Shared::exchange`) — the best queued
//! node and, on the centralized queue with more than one searcher, up
//! to `transfer_refs − 1` more ([`NativeTspConfig::transfer_refs`]), as
//! long as each can still beat the incumbent. Where the home `qlock` is
//! the searcher's own — a lone searcher, or a ring queue — a step takes
//! one node: there is no neighbour to amortise the lock against, a lone
//! searcher searches the sequential solver's tree, and on the ring a
//! batch in hand is work the thieves cannot see (measured in
//! EXPERIMENTS.md, PR 42). A steal moves a batch on the ring. The
//! searcher expands its batch best first and queues all the children
//! at its next step. If the best
//! queued node cannot beat the incumbent, nothing behind it can either,
//! so the same critical section takes the whole queue out, to be counted
//! as pruned and handed back, after the lock is released, to the
//! searcher's node pool: pointers move, no node is read. A node is
//! expanded where it lies: the include child is built from it, then it
//! is turned into its own exclude child, so an expansion needs one node,
//! built in a pooled one. Every node the search is done with goes back
//! to a pool, and nothing is freed while the calling thread keeps
//! solving (see *Node pools* below). A queue entry is 16
//! bytes — `(bound << 32) | seq` beside the node's pointer — in a 4-ary
//! heap whose sibling groups are one cache line each, so a level of a
//! sift is one line. The least child of a step is the next node or
//! takes the root's place and sinks from there; only the other child is
//! pushed, and no pop sinks the last entry the whole way down. The FIFO
//! sequence number is a counter beside the heap, under the same lock.
//! The thread that calls [`solve_native`] is searcher 0.
//!
//! ## Node pools
//!
//! The thread that calls [`solve_native`] keeps a [`NodePool`] from one
//! solve to the next, and lends it to the run (`Shared::pool`). Each
//! searcher builds its children in nodes from a pool of its own
//! (`Shared::pools`), locked once per batch it expands, and hands its
//! finished nodes back to it: a node pruned in hand, one that completed
//! a tour or died, a child pruned at birth. A searcher whose pool runs
//! dry borrows [`LEND`] nodes from the run's pool under one lock. A
//! terminal clear's dead queue goes whole to the pool of the searcher
//! that cleared it, whose lock no one else contends. When the run ends
//! every pool goes back to the calling thread, so no node is freed on
//! the way and a helper thread ends holding none.
//!
//! Termination mirrors the simulated solver's protocol, generalized to
//! many queues: an idle searcher retires from the active count and
//! polls the queue-length mirrors of *every* queue; the search is over
//! when all queues are empty and no searcher is active (an inactive
//! searcher can never produce work, and a stealing searcher is active,
//! so all-empty is then stable).
//!
//! ## Failure model
//!
//! Each searcher — the caller's thread included — runs under a
//! supervisor ([`searcher_resilient`]) that catches panics escaping the
//! search loop. A panic may poison the shared locks (the holder died
//! mid-critical-section) and may lose the subproblems the searcher had
//! in hand; the supervisor clears the poison, resynchronizes the
//! queue-length mirrors, and requeues every in-flight subproblem under
//! a bounded retry budget. What is in hand is what the in-flight stash
//! holds: from a queue step or a steal to the next step, the batch it
//! handed over that is not yet expanded (a death in the best-tour update
//! requeues the node under expansion with the rest, and it completes
//! into the same tour again; only that node spends retry budget, not the
//! untouched nodes behind it) and the children of the batch's expanded
//! nodes in push order, each carrying its parent's retry count (a death
//! at the step's injection point, before any queue edit, requeues the
//! children themselves: nothing is lost, nothing is queued twice and
//! nothing is expanded twice). A step that goes through queues its
//! children with a fresh budget. A panic carrying the
//! [`WorkerKilled`] marker retires the worker permanently. It strikes
//! between the queue step and the expansion, so the worker dies with
//! the batch the step handed it in its stash; those nodes are requeued
//! without spending their retry budget (the worker's doom, not the
//! nodes, caused the panic), so kills alone never drop a node, whatever
//! the budget. A doomed worker that sits idle past its kill step dies when
//! it is next handed a node, or at termination. Its local ring queue is
//! *not* orphaned — the length mirrors keep its work visible, idle peers
//! reactivate and steal it through the ordinary ring scan (counted in
//! [`NativeResult::orphaned`]). If every worker dies with work
//! outstanding, the caller's thread drains the residue of all queues
//! sequentially, so `solve_native` still returns the optimal tour when
//! k < N (or even k = N) workers die.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use adaptive_native::{
    AdaptiveMutex, CachePadded, FaultHook, FaultPlan, MutexStats, NativeWaitingPolicy,
    PolicyChoice, WorkerKilled,
};

use crate::instance::{TspInstance, INF};
use crate::lmsk::{BestFirst, Expanded, Node, NodePool, SearchStats, SubProblem};

/// Which shared-abstraction structure the native solver uses — the
/// real-thread counterpart of the simulator's [`Variant`](crate::Variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeVariant {
    /// Global queue + global best value.
    Centralized,
    /// Ring of per-searcher queues + per-searcher best copies.
    Distributed,
    /// Distributed with the push-side load-balancing rule.
    Balanced,
}

impl NativeVariant {
    /// Label used in reports and BENCH JSON (matches the sim labels).
    pub fn label(self) -> &'static str {
        match self {
            NativeVariant::Centralized => "centralized",
            NativeVariant::Distributed => "distributed",
            NativeVariant::Balanced => "distributed+lb",
        }
    }

    /// All three structures, in the paper's order.
    pub const ALL: [NativeVariant; 3] = [
        NativeVariant::Centralized,
        NativeVariant::Distributed,
        NativeVariant::Balanced,
    ];
}

/// Mid-run waiting-policy reconfiguration plan: a searcher retunes every
/// shared lock (all `qlock`s and `glob-low-lock`s) to the next policy in
/// `cycle` each time it completes `every_steps` work items of its own
/// (any searcher, so the plan fires even if the host keeps one of them
/// off the CPU for the whole search). This is the native analogue of the
/// stress harness's external reconfigurer — the locks must stay correct
/// while their attributes change under load.
#[derive(Debug, Clone)]
pub struct RetunePlan {
    /// Work items of one searcher between its retunes (0 disables the plan).
    pub every_steps: u64,
    /// Waiting policies applied round-robin.
    pub cycle: Vec<NativeWaitingPolicy>,
}

impl RetunePlan {
    /// The default stress cycle: pure spin → combined → pure blocking.
    pub fn full_cycle(every_steps: u64) -> RetunePlan {
        RetunePlan {
            every_steps,
            cycle: vec![
                NativeWaitingPolicy::pure_spin(),
                NativeWaitingPolicy::combined(64),
                NativeWaitingPolicy::pure_blocking(),
            ],
        }
    }
}

/// Configuration of the native parallel solver.
#[derive(Debug, Clone)]
pub struct NativeTspConfig {
    /// Searcher threads.
    pub searchers: usize,
    /// Which program structure to run.
    pub variant: NativeVariant,
    /// Configuration of the shared locks (work queues, best-tour
    /// copies) — the independent variable of the TSP perf sweep.
    pub policy: PolicyChoice,
    /// Subproblems moved per `qlock` critical section — the native
    /// analogue of the simulator's `transfer_refs` batching knob. On the
    /// centralized queue with more than one searcher, a queue step hands
    /// over up to this many of the best queued nodes that can still beat
    /// the incumbent; on the ring, a thief takes up to this many from the
    /// victim's queue and a balance transfer diverts up to this many
    /// children. A searcher expands the batch it was handed best first.
    /// A step from a queue that is the searcher's own — a lone
    /// searcher's, or a ring queue — takes one node whatever this says.
    pub transfer_refs: usize,
    /// Balanced only: a push that would grow the local queue beyond
    /// this length diverts part of the batch to the shorter ring
    /// neighbor.
    pub balance_threshold: usize,
    /// Fault plan to execute against this run (testing): critical-section
    /// panics, worker kills, and mutex-internal faults are drawn from it.
    /// `None` disables injection and its per-step overhead.
    pub faults: Option<Arc<FaultPlan>>,
    /// How many times a subproblem lost to a panic is requeued before it
    /// is dropped (the bounded retry budget). A [`WorkerKilled`] death
    /// does not count against the node the worker died holding.
    pub max_retries: u32,
    /// Optional mid-run waiting-policy reconfiguration (testing).
    pub retune: Option<RetunePlan>,
}

impl Default for NativeTspConfig {
    fn default() -> Self {
        NativeTspConfig {
            searchers: 4,
            variant: NativeVariant::Centralized,
            policy: PolicyChoice::Adaptive { threshold: 2, n: 32 },
            transfer_refs: 4,
            balance_threshold: 8,
            faults: None,
            max_retries: 3,
            retune: None,
        }
    }
}

/// Result of a native parallel run.
#[derive(Debug, Clone)]
pub struct NativeResult {
    /// Optimal tour cost found.
    pub best: u32,
    /// Aggregated search statistics across all searchers.
    pub stats: SearchStats,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Per-queue `qlock` counters (one entry for Centralized, one per
    /// searcher for the distributed structures) — the contention
    /// collapse is visible here: a distributed queue is touched by its
    /// owner plus the occasional thief, so its contended count stays
    /// near zero while the centralized queue's grows with searchers.
    ///
    /// These are the only lock-counter snapshots taken per run (once,
    /// after the timed region, `O(stripes)` relaxed loads each); merged
    /// views are computed lazily by [`NativeResult::queue_lock`] /
    /// [`NativeResult::best_lock`] so consumers that only read timing
    /// fields never pay for aggregation.
    pub per_queue_locks: Vec<MutexStats>,
    /// Per-slot counters of the best-tour lock(s) (the paper's
    /// `glob-low-lock`; per-searcher copies in the distributed
    /// structures).
    pub per_best_locks: Vec<MutexStats>,
    /// Successful steals: ring scans that took at least one subproblem
    /// from a remote queue.
    pub steals: u64,
    /// Ring-scan probes that found an apparently non-empty remote queue
    /// empty under its lock (the mirror raced a concurrent pop).
    pub steal_failures: u64,
    /// Subproblems moved between queues: stolen batches plus
    /// load-balance diversions.
    pub transfers: u64,
    /// Load-balance events: pushes diverted to a ring neighbor because
    /// the local queue exceeded the balance threshold.
    pub balance_pushes: u64,
    /// Subproblems a permanently killed worker left in its local ring
    /// queue — work that the survivors must steal (or the caller must
    /// drain) for the search to stay exact.
    pub orphaned: u64,
    /// Panics caught by worker supervisors (transient and fatal).
    pub worker_panics: u64,
    /// Workers that died permanently ([`WorkerKilled`]).
    pub workers_died: u64,
    /// Subproblems requeued after a panic lost them mid-expansion or
    /// mid-steal.
    pub requeued: u64,
    /// Subproblems abandoned after exhausting the retry budget.
    pub dropped: u64,
    /// Times a supervisor cleared a poisoned shared lock.
    pub poison_recoveries: u64,
    /// Subproblems drained sequentially by the caller because every
    /// worker died with work outstanding.
    pub residual_drained: u64,
    /// Waiting-policy retunes applied by the [`RetunePlan`].
    pub retunes: u64,
}

impl NativeResult {
    /// Merged counters of the work-queue lock(s), folded lazily from
    /// [`NativeResult::per_queue_locks`]. Callers that only consume
    /// timing fields never trigger this aggregation.
    pub fn queue_lock(&self) -> MutexStats {
        merge_mutex_stats(self.per_queue_locks.iter())
    }

    /// Merged counters of the best-tour lock(s), folded lazily from
    /// [`NativeResult::per_best_locks`].
    pub fn best_lock(&self) -> MutexStats {
        merge_mutex_stats(self.per_best_locks.iter())
    }
}

/// One work queue and its lock-free length mirror (readable without the
/// `qlock` for idle polling, ring scanning, and balance decisions).
struct QueueSlot {
    lock: Arc<AdaptiveMutex<BestFirst>>,
    /// Cache-line padded: every idle searcher polls every ring slot's
    /// mirror, so a mirror write must invalidate one line per queue,
    /// not one line shared by several slots of the `Vec`.
    len: CachePadded<AtomicUsize>,
}

impl QueueSlot {
    fn new(policy: PolicyChoice) -> QueueSlot {
        QueueSlot {
            lock: Arc::new(policy.build_mutex(BestFirst::default())),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    fn mirror_len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

/// One best-tour copy: the `glob-low-lock` plus an unlocked read mirror
/// (the paper reads the incumbent without the lock; updates are locked
/// read-modify-writes).
struct BestSlot {
    lock: Arc<AdaptiveMutex<u32>>,
    /// Padded like [`QueueSlot::len`]: every expansion reads the
    /// incumbent mirror, and an improvement must not invalidate a
    /// neighbouring slot's copy.
    cached: CachePadded<AtomicU32>,
}

impl BestSlot {
    fn new(policy: PolicyChoice) -> BestSlot {
        BestSlot {
            lock: Arc::new(policy.build_mutex(INF)),
            cached: CachePadded::new(AtomicU32::new(INF)),
        }
    }
}

/// A searcher's in-flight stash: every node it has taken out of a queue
/// or made and not yet queued, which is what its supervisor requeues if
/// a panic strikes. After a queue step or a steal it holds the batch
/// handed over, best first — one node from a searcher's own queue. Each
/// expansion takes the batch's first node from the front and puts its
/// children at the back — `[include, exclude]`, less whatever the
/// incumbent pruned — so when the batch is done the stash holds every
/// child in push order, for the next step to queue.
type Stash = Vec<Node>;

/// Nodes a searcher borrows from the run's pool when its own runs dry:
/// one lock of the run's pool for this many nodes. At 16 a two-searcher
/// solve of the benchmark's instances spent 1.8–3.4 % of its wall time
/// borrowing, at 64 under 0.9 %.
const LEND: usize = 64;

/// A node pool behind a lock that a panic may have poisoned: a pool is
/// whole after every call, so the poison is ignored.
fn lock_pool(pool: &Mutex<NodePool>) -> MutexGuard<'_, NodePool> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    variant: NativeVariant,
    queues: Vec<QueueSlot>,
    best: Vec<BestSlot>,
    stats: Arc<AdaptiveMutex<SearchStats>>,
    /// The pool of the thread that called [`solve_native`], lent for
    /// the run, and the nodes the supervisor drops.
    pool: Mutex<NodePool>,
    /// Each searcher's own pool, locked once a batch: its children are
    /// built in its nodes, and its finished nodes and the dead queue of
    /// its terminal clear go back to it. It borrows [`LEND`] nodes from
    /// `pool` when it runs dry, and every node it holds goes back to the
    /// calling thread when the run ends.
    pools: Vec<CachePadded<Mutex<NodePool>>>,
    /// Searchers currently holding or producing work.
    active: AtomicUsize,
    done: AtomicBool,
    /// Nodes a home queue step hands over: `transfer_refs` where the
    /// home `qlock` is shared (the centralized queue, more than one
    /// searcher), 1 where it is a searcher's own.
    take: usize,
    /// Nodes moved per steal or balance diversion.
    transfer_refs: usize,
    balance_threshold: usize,
    faults: Option<Arc<FaultPlan>>,
    steals: AtomicU64,
    steal_failures: AtomicU64,
    transfers: AtomicU64,
    balance_pushes: AtomicU64,
    orphaned: AtomicU64,
    worker_panics: AtomicU64,
    workers_died: AtomicU64,
    requeued: AtomicU64,
    dropped: AtomicU64,
    poison_recoveries: AtomicU64,
    retunes: AtomicU64,
}

impl Shared {
    /// The shared state of one run of `searchers` searchers under `cfg`.
    fn new(cfg: &NativeTspConfig, searchers: usize) -> Shared {
        let queue_count = if cfg.variant == NativeVariant::Centralized {
            1
        } else {
            searchers
        };
        let best_count = queue_count;
        Shared {
            variant: cfg.variant,
            queues: (0..queue_count).map(|_| QueueSlot::new(cfg.policy)).collect(),
            best: (0..best_count).map(|_| BestSlot::new(cfg.policy)).collect(),
            stats: Arc::new(cfg.policy.build_mutex(SearchStats::default())),
            pool: Mutex::default(),
            pools: (0..searchers).map(|_| CachePadded::new(Mutex::default())).collect(),
            active: AtomicUsize::new(searchers),
            done: AtomicBool::new(false),
            take: if cfg.variant == NativeVariant::Centralized && searchers > 1 {
                cfg.transfer_refs.max(1)
            } else {
                1
            },
            transfer_refs: cfg.transfer_refs.max(1),
            balance_threshold: cfg.balance_threshold,
            faults: cfg.faults.clone(),
            steals: AtomicU64::new(0),
            steal_failures: AtomicU64::new(0),
            transfers: AtomicU64::new(0),
            balance_pushes: AtomicU64::new(0),
            orphaned: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            workers_died: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            retunes: AtomicU64::new(0),
        }
    }

    /// The queue a searcher treats as local.
    fn home(&self, worker: usize) -> usize {
        if self.variant == NativeVariant::Centralized {
            0
        } else {
            worker % self.queues.len()
        }
    }

    /// Panic here if the fault plan says this critical section dies.
    /// Call only at points where the in-flight bookkeeping can recover
    /// (a popped subproblem is stashed before any injected panic).
    fn maybe_die_in_cs(&self) {
        if let Some(p) = &self.faults {
            p.maybe_panic_in_cs();
        }
    }

    /// Work visible anywhere, via the mirrors (no locks).
    fn work_visible(&self) -> bool {
        self.queues.iter().any(|q| q.mirror_len() > 0)
    }

    /// Read the incumbent visible to `worker` (unlocked mirror read).
    fn read_best(&self, worker: usize) -> u32 {
        let idx = if self.variant == NativeVariant::Centralized {
            0
        } else {
            worker % self.best.len()
        };
        self.best[idx].cached.load(Ordering::Acquire)
    }

    /// Publish an improved tour: update the local copy, then propagate
    /// around the ring — each copy's `glob-low-lock` is taken for the
    /// read-modify-write, and its unlocked mirror is refreshed inside
    /// the critical section.
    fn publish_best(&self, worker: usize, cost: u32) {
        let s = self.best.len();
        let start = if self.variant == NativeVariant::Centralized {
            0
        } else {
            worker % s
        };
        for k in 0..s {
            let slot = &self.best[(start + k) % s];
            let mut b = slot.lock.lock();
            self.maybe_die_in_cs();
            if cost < *b {
                *b = cost;
                slot.cached.store(cost, Ordering::Release);
            }
        }
    }

    /// Room for the children of the largest batch a step or a steal
    /// hands over, two a node, so that a stash never grows inside a
    /// critical section.
    fn stash_capacity(&self) -> usize {
        2 * self.take.max(self.transfer_refs)
    }

    /// Push one subproblem into queue `q`, refreshing the mirror.
    fn requeue(&self, q: usize, sp: Node) {
        let slot = &self.queues[q];
        let mut queue = slot.lock.lock();
        queue.push(sp);
        slot.len.store(queue.len(), Ordering::Release);
    }

    /// The Balanced diversion rule, applied to the fresh children a
    /// searcher is about to queue at `home`: when they would grow the
    /// local queue past the threshold, up to one transfer batch goes to
    /// the shorter ring neighbor instead, if it is actually shorter
    /// than us. The rest stays in `batch` for the home queue.
    fn divert_surplus(&self, home: usize, batch: &mut Stash) {
        let s = self.queues.len();
        if self.variant != NativeVariant::Balanced || s < 2 || batch.is_empty() {
            return;
        }
        let local_len = self.queues[home].mirror_len();
        if local_len + batch.len() <= self.balance_threshold {
            return;
        }
        let next = (home + 1) % s;
        let prev = (home + s - 1) % s;
        let target = if self.queues[next].mirror_len() <= self.queues[prev].mirror_len() {
            next
        } else {
            prev
        };
        if self.queues[target].mirror_len() < local_len {
            let n = self.transfer_refs.min(batch.len());
            self.balance_pushes.fetch_add(1, Ordering::Relaxed);
            self.transfers.fetch_add(n as u64, Ordering::Relaxed);
            // `batch` is the caller's in-flight stash, drained after the
            // injection point: a holder that dies there has every child
            // requeued by its supervisor, none of them twice.
            let slot = &self.queues[target];
            let mut queue = slot.lock.lock();
            self.maybe_die_in_cs();
            for mut sp in batch.drain(..n) {
                sp.attempts = 0;
                queue.push(sp);
            }
            slot.len.store(queue.len(), Ordering::Release);
        }
    }

    /// The queue step, in **one** `qlock` critical section of queue
    /// `q` and one [`BestFirst::exchange`]: queue what the stash holds —
    /// the fresh children of the batch the last step handed over, in
    /// push order — and take the next batch into the stash in their
    /// place: the best queued node and up to `most - 1` more, best
    /// first, as long as each can beat `worker`'s incumbent. Returns
    /// whether a node was taken.
    ///
    /// If the best queued node cannot beat the incumbent, nothing
    /// queued can: the whole queue comes out at once, is counted as
    /// pruned, and goes back to `worker`'s own pool after the lock is
    /// released, by pointer, no node read.
    ///
    /// The injection point (`inject`; off for the residual drain) sits
    /// before any queue edit: a holder that dies there has pushed no
    /// child and still has them all in its stash, so the supervisor
    /// requeues the children themselves and nothing is lost, duplicated
    /// or expanded twice. After the point nothing in the critical
    /// section can panic.
    fn exchange(
        &self,
        q: usize,
        worker: usize,
        in_flight: &mut Stash,
        local: &mut SearchStats,
        most: usize,
        inject: bool,
    ) -> bool {
        debug_assert!(
            in_flight.len() <= self.stash_capacity(),
            "the stash holds one batch's children, no more"
        );
        let slot = &self.queues[q];
        let mut queue = slot.lock.lock();
        if inject {
            self.maybe_die_in_cs();
        }
        // Queued whole, the children start with a fresh retry budget.
        for sp in in_flight.iter_mut() {
            sp.attempts = 0;
        }
        let next = queue.exchange(in_flight, self.read_best(worker), most);
        slot.len.store(queue.len(), Ordering::Release);
        drop(queue);
        match next {
            Ok(()) => true,
            Err(dead) => {
                local.pruned += dead.len() as u64;
                lock_pool(&self.pools[worker]).put_queue(dead);
                false
            }
        }
    }

    /// Steal up to `transfer_refs` subproblems from `victim` into the
    /// caller's in-flight stash, best first (so a panic cannot lose them
    /// — they are stashed *inside* the critical section, before the
    /// injection point). The thief keeps the whole batch and expands it
    /// as a queue step's. Returns whether anything was taken.
    fn steal_from(&self, victim: usize, in_flight: &mut Stash) -> bool {
        let slot = &self.queues[victim];
        let mut queue = slot.lock.lock();
        let before = in_flight.len();
        in_flight.extend((0..self.transfer_refs).map_while(|_| queue.pop()));
        slot.len.store(queue.len(), Ordering::Release);
        let took = in_flight.len() - before;
        if took > 0 {
            self.maybe_die_in_cs();
            drop(queue);
            self.steals.fetch_add(1, Ordering::Relaxed);
            self.transfers.fetch_add(took as u64, Ordering::Relaxed);
            true
        } else {
            self.steal_failures.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Queue the fresh children in the stash and acquire the next batch
    /// for `worker`: on success the batch is all the stash holds (stash
    /// semantics — the supervisor requeues whatever is in the stash if
    /// a panic strikes).
    fn take_work(&self, worker: usize, in_flight: &mut Stash, local: &mut SearchStats) -> bool {
        let home = self.home(worker);
        self.divert_surplus(home, in_flight);
        if self.exchange(home, worker, in_flight, local, self.take, true) {
            return true;
        }
        if self.variant == NativeVariant::Centralized {
            return false;
        }
        // Ring scan: steal a batch from the first non-empty remote
        // queue. The mirror probe is free; the steal itself locks the
        // victim's qlock once for the whole batch.
        let s = self.queues.len();
        (1..s)
            .map(|k| (home + k) % s)
            .any(|victim| self.queues[victim].mirror_len() > 0 && self.steal_from(victim, in_flight))
    }

    /// Post-panic repair: clear poison left by the dead holder on any
    /// shared lock and resynchronize every queue-length mirror (the
    /// panic may have struck between a queue edit and the mirror store).
    fn recover_after_panic(&self) {
        for cleared in self
            .queues
            .iter()
            .map(|q| q.lock.clear_poison())
            .chain(self.best.iter().map(|b| b.lock.clear_poison()))
            .chain([self.stats.clear_poison()])
        {
            if cleared {
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            }
        }
        for slot in &self.queues {
            let queue = slot.lock.lock();
            slot.len.store(queue.len(), Ordering::Release);
        }
    }

    /// Expand the batch a step handed over, best first: each node in
    /// turn leaves the front of the stash and its children join the
    /// back, so that the stash ends up holding every child, in push
    /// order, for the next step to queue. `completed` runs after each
    /// node. While a node is under expansion, `untouched` counts the
    /// nodes of the batch behind it, which its supervisor requeues
    /// without charging them ([`Shared::requeue_in_hand`]); it is 0
    /// everywhere else. `worker`'s pool is locked for the whole batch.
    fn expand_batch(
        &self,
        worker: usize,
        in_flight: &mut Stash,
        untouched: &Cell<usize>,
        local: &mut SearchStats,
        scratch: &mut Vec<u32>,
        mut completed: impl FnMut(),
    ) {
        let mut pool = lock_pool(&self.pools[worker]);
        for left in (0..in_flight.len()).rev() {
            if pool.is_empty() {
                pool.borrow(&mut lock_pool(&self.pool), in_flight[0].level + 1, LEND);
            }
            untouched.set(left);
            self.expand_node(worker, in_flight, local, scratch, &mut pool);
            untouched.set(0);
            completed();
        }
    }

    /// Requeue at `home`, under the retry budget, what a panic caught in
    /// a searcher's hands. A node is charged an attempt only if it was
    /// in the work that died: the node under expansion (the stash's
    /// first) and the children made so far, or everything in hand when
    /// a queue step, steal or diversion died in its critical section.
    /// The `untouched` nodes of a batch behind the node under expansion
    /// caused nothing, and go back free; so does everything a
    /// [`WorkerKilled`] panic finds, since the worker's doom, not its
    /// nodes, caused it. Neither ever drops a node.
    fn requeue_in_hand(
        &self,
        home: usize,
        in_flight: &mut Stash,
        untouched: usize,
        killed: bool,
        max_retries: u32,
    ) {
        for (i, mut lost) in in_flight.drain(..).enumerate() {
            let charged = !killed && !(1..=untouched).contains(&i);
            if !charged || lost.attempts < max_retries {
                lost.attempts += u32::from(charged);
                self.requeue(home, lost);
                self.requeued.fetch_add(1, Ordering::Relaxed);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                lock_pool(&self.pool).put(lost);
            }
        }
    }

    /// Prune the stash's first node against `worker`'s incumbent, or
    /// expand it where it lies, publishing a finished tour. Puts at the
    /// back of the stash the children that can still beat the
    /// incumbent, in push order. The node stays stashed until its
    /// children stand in its place, so a panic on the way (the best-tour
    /// update can die) still finds it there. The include child is built
    /// in a node from `pool`, and every node finished with here — the
    /// pruned node, a completed or dead one, a pruned child — goes back
    /// to it.
    fn expand_node(
        &self,
        worker: usize,
        in_flight: &mut Stash,
        local: &mut SearchStats,
        scratch: &mut Vec<u32>,
        pool: &mut NodePool,
    ) {
        let node = &mut in_flight[0];
        let branched = if node.bound >= self.read_best(worker) {
            local.pruned += 1;
            None
        } else {
            local.expanded += 1;
            match node.expand_pooled(scratch, pool) {
                Expanded::Tour { cost, .. } => {
                    local.tours += 1;
                    if cost < self.read_best(worker) {
                        self.publish_best(worker, cost);
                    }
                    None
                }
                Expanded::Branched { include, exclude } => Some((include, exclude)),
                Expanded::Dead => None,
            }
        };
        let node = in_flight.remove(0);
        let Some((include, exclude)) = branched else {
            pool.put(node);
            return;
        };
        // The node is now its own exclude child, if it has one.
        let exclude = if exclude {
            Some(node)
        } else {
            pool.put(node);
            None
        };
        let incumbent = self.read_best(worker);
        for child in include.into_iter().chain(exclude) {
            if child.bound < incumbent {
                local.generated += 1;
                in_flight.push(child);
            } else {
                local.pruned += 1;
                pool.put(child);
            }
        }
    }

    /// Fold one searcher's counters into the run's.
    fn add_stats(&self, local: SearchStats) {
        let mut agg = self.stats.lock();
        agg.expanded += local.expanded;
        agg.generated += local.generated;
        agg.tours += local.tours;
        agg.pruned += local.pruned;
    }

    /// Apply the next retune of `plan` to every shared lock.
    fn apply_retune(&self, plan: &RetunePlan) {
        if plan.cycle.is_empty() {
            return;
        }
        let round = self.retunes.fetch_add(1, Ordering::Relaxed) + 1;
        let policy = plan.cycle[(round as usize) % plan.cycle.len()];
        for q in &self.queues {
            q.lock.set_waiting_policy(policy);
        }
        for b in &self.best {
            b.lock.set_waiting_policy(policy);
        }
    }
}

/// Sum per-lock counters into one merged view.
fn merge_mutex_stats<'a>(stats: impl Iterator<Item = &'a MutexStats>) -> MutexStats {
    stats.fold(MutexStats::default(), |a, s| MutexStats {
        acquisitions: a.acquisitions + s.acquisitions,
        contended: a.contended + s.contended,
        parked: a.parked + s.parked,
        handoffs: a.handoffs + s.handoffs,
        reconfigurations: a.reconfigurations + s.reconfigurations,
        try_failures: a.try_failures + s.try_failures,
        timeouts: a.timeouts + s.timeouts,
        poison_events: a.poison_events + s.poison_events,
        poison_clears: a.poison_clears + s.poison_clears,
        policy_panics: a.policy_panics + s.policy_panics,
        quarantines: a.quarantines + s.quarantines,
        heals: a.heals + s.heals,
        algorithm_switches: a.algorithm_switches + s.algorithm_switches,
        combined_ops: a.combined_ops + s.combined_ops,
    })
}

/// Solve `inst` on real threads. The result is exact: every searcher
/// prunes against its visible incumbent (which only ever lags the true
/// one — extra work, never skipped work), and the search runs to
/// exhaustion of every queue — under fault injection, through requeue
/// and the residual drain (only an exhausted retry budget, counted in
/// [`NativeResult::dropped`], can compromise exactness).
pub fn solve_native(inst: &TspInstance, cfg: NativeTspConfig) -> NativeResult {
    let searchers = cfg.searchers.max(1);
    let mut shared = Shared::new(&cfg, searchers);
    // The calling thread's pool, lent to the run and taken back after it.
    let mut pool = NodePool::of_this_thread();
    shared.requeue(0, SubProblem::root_in(inst, &mut pool));
    shared.pool = Mutex::new(pool);

    // Under a fault plan, the mutexes themselves consult the plan
    // (dropped/delayed unparks, stalled monitor samples); the parker's
    // rescue poll turns a dropped unpark into a bounded delay.
    if let Some(plan) = &cfg.faults {
        let hook = || Arc::clone(plan) as Arc<dyn FaultHook>;
        for q in &shared.queues {
            q.lock.set_fault_hook(hook());
        }
        for b in &shared.best {
            b.lock.set_fault_hook(hook());
        }
    }

    // The caller is searcher 0: the search is under way before the
    // first spawn returns, a helper is placed against a busy CPU rather
    // than beside a parent about to sleep, and one searcher costs no
    // thread at all. A `WorkerKilled` meant for searcher 0 is caught by
    // its supervisor like any other's.
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let (sh, max_retries, retune) = (&shared, cfg.max_retries, cfg.retune.as_ref());
        for worker in 1..searchers {
            scope.spawn(move || searcher_resilient(sh, worker, searchers, max_retries, retune));
        }
        searcher_resilient(sh, 0, searchers, max_retries, retune);
    });

    // Every worker died with work outstanding: finish the search here.
    // No injection on this path — it is the recovery of last resort.
    let mut residual_drained = 0u64;
    if !shared.done.load(Ordering::Acquire) && shared.work_visible() {
        residual_drained = drain_residual(&shared);
    }
    let elapsed = t0.elapsed();

    let per_queue_locks: Vec<MutexStats> =
        shared.queues.iter().map(|q| q.lock.stats()).collect();
    let best = shared
        .best
        .iter()
        .map(|b| *b.lock.lock())
        .min()
        .unwrap_or(INF);
    let stats = *shared.stats.lock();
    let mut pool = std::mem::take(&mut *lock_pool(&shared.pool));
    for own in &shared.pools {
        pool.append(&mut lock_pool(own));
    }
    pool.keep();
    NativeResult {
        best,
        stats,
        elapsed,
        per_best_locks: shared.best.iter().map(|b| b.lock.stats()).collect(),
        per_queue_locks,
        steals: shared.steals.load(Ordering::Relaxed),
        steal_failures: shared.steal_failures.load(Ordering::Relaxed),
        transfers: shared.transfers.load(Ordering::Relaxed),
        balance_pushes: shared.balance_pushes.load(Ordering::Relaxed),
        orphaned: shared.orphaned.load(Ordering::Relaxed),
        worker_panics: shared.worker_panics.load(Ordering::Relaxed),
        workers_died: shared.workers_died.load(Ordering::Relaxed),
        requeued: shared.requeued.load(Ordering::Relaxed),
        dropped: shared.dropped.load(Ordering::Relaxed),
        poison_recoveries: shared.poison_recoveries.load(Ordering::Relaxed),
        residual_drained,
        retunes: shared.retunes.load(Ordering::Relaxed),
    }
}

/// Supervisor wrapping [`searcher_loop`]: catches panics, repairs the
/// shared state, requeues lost work, and decides whether the worker
/// resumes (transient panic) or retires ([`WorkerKilled`]).
fn searcher_resilient(
    sh: &Shared,
    worker: usize,
    total: usize,
    max_retries: u32,
    retune: Option<&RetunePlan>,
) {
    let doom = sh.faults.as_ref().and_then(|p| p.worker_doom(worker, total));
    let mut steps = 0u64;
    let mut in_flight: Stash = Vec::with_capacity(sh.stash_capacity());
    let mut local = SearchStats::default();
    // Whether the worker currently counts itself in `sh.active`; a death
    // in the idle loop (already retired) must not decrement again.
    let active = Cell::new(true);
    // The batch's nodes behind the one under expansion, if any.
    let untouched = Cell::new(0);
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            searcher_loop(
                sh,
                &mut in_flight,
                &mut local,
                &mut steps,
                &active,
                &untouched,
                doom,
                worker,
                retune,
            )
        }));
        match outcome {
            Ok(()) => break, // clean termination
            Err(payload) => {
                sh.worker_panics.fetch_add(1, Ordering::Relaxed);
                sh.recover_after_panic();
                // Requeue everything the panic caught in our hands: the
                // rest of a batch, the node under expansion, and the
                // children on their way to the queue.
                let killed = payload.is::<WorkerKilled>();
                let home = sh.home(worker);
                sh.requeue_in_hand(home, &mut in_flight, untouched.replace(0), killed, max_retries);
                if killed {
                    sh.workers_died.fetch_add(1, Ordering::Relaxed);
                    // Whatever sits in our local ring queue is now
                    // orphaned: visible through the mirrors, stolen by
                    // peers or drained by the caller — never lost.
                    if sh.variant != NativeVariant::Centralized {
                        let left = sh.queues[home].mirror_len() as u64;
                        sh.orphaned.fetch_add(left, Ordering::Relaxed);
                    }
                    // Retire permanently. The requeue above ran first, so
                    // idle peers see the work before they see the retirement.
                    if active.get()
                        && sh.active.fetch_sub(1, Ordering::AcqRel) == 1
                        && !sh.work_visible()
                    {
                        sh.done.store(true, Ordering::Release);
                    }
                    break;
                }
                // Transient panic: the worker stays active and resumes.
            }
        }
    }
    sh.add_stats(local);
}

#[allow(clippy::too_many_arguments)] // internal: the worker's full context
fn searcher_loop(
    sh: &Shared,
    in_flight: &mut Stash,
    local: &mut SearchStats,
    steps: &mut u64,
    active: &Cell<bool>,
    untouched: &Cell<usize>,
    doom: Option<u64>,
    worker: usize,
    retune: Option<&RetunePlan>,
) {
    let mut scratch = Vec::new();
    'outer: loop {
        // Resuming after a panic, the stash is empty (the supervisor
        // requeued it); otherwise it holds what the last expansion left
        // to queue.
        if !sh.take_work(worker, in_flight, local) {
            // Retire from the active count; the last one out with every
            // queue empty ends the search.
            if sh.active.fetch_sub(1, Ordering::AcqRel) == 1 && !sh.work_visible() {
                sh.done.store(true, Ordering::Release);
            }
            active.set(false);
            loop {
                if sh.done.load(Ordering::Acquire) {
                    // A doomed worker never exits cleanly: if the search
                    // ended before its kill step, it dies at termination
                    // instead, so the doomed count is exact either way.
                    if doom.is_some() {
                        std::panic::panic_any(WorkerKilled { worker });
                    }
                    break 'outer;
                }
                if sh.work_visible() {
                    sh.active.fetch_add(1, Ordering::AcqRel);
                    active.set(true);
                    continue 'outer;
                }
                if sh.active.load(Ordering::Acquire) == 0 {
                    sh.done.store(true, Ordering::Release);
                    if doom.is_some() {
                        std::panic::panic_any(WorkerKilled { worker });
                    }
                    break 'outer;
                }
                std::thread::yield_now();
            }
        }
        // From here until the next step queues their children the
        // batch's nodes, and then the children, sit in the in-flight
        // stash; a panic anywhere below requeues whichever it finds
        // there.
        //
        // A doomed worker dies here, between batches: no locks held,
        // and the batch the queue step just handed it goes back to the
        // queue through the stash.
        if doom.is_some_and(|after| *steps >= after) {
            std::panic::panic_any(WorkerKilled { worker });
        }
        sh.expand_batch(worker, in_flight, untouched, local, &mut scratch, || {
            *steps += 1;
            // Here and nowhere else: a searcher that comes back from the
            // idle loop, or resumes after a panic, has completed nothing.
            if let Some(plan) = retune {
                if plan.every_steps > 0 && (*steps).is_multiple_of(plan.every_steps) {
                    sh.apply_retune(plan);
                }
            }
        });
    }
}

/// Sequential drain of whatever the (all-dead) workers left behind, on
/// the caller's thread, across every queue. Fault-free by construction.
/// Returns the number of items processed.
fn drain_residual(sh: &Shared) -> u64 {
    let mut local = SearchStats::default();
    let mut processed = 0u64;
    let mut in_flight = Vec::with_capacity(2);
    let mut scratch = Vec::new();
    // A lone searcher: one node a step, as the sequential search takes.
    // Children go to queue 0; the next node comes from the first queue
    // that still has one worth expanding.
    while (0..sh.queues.len()).any(|q| sh.exchange(q, 0, &mut in_flight, &mut local, 1, false)) {
        let untouched = Cell::new(0);
        sh.expand_batch(0, &mut in_flight, &untouched, &mut local, &mut scratch, || processed += 1);
    }
    sh.done.store(true, Ordering::Release);
    sh.add_stats(local);
    processed
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_native::FaultSpec;

    #[test]
    fn native_solver_matches_held_karp_across_policies() {
        let inst = TspInstance::random_symmetric(9, 100, 7);
        let oracle = inst.held_karp();
        for policy in [
            PolicyChoice::FixedSpin(32),
            PolicyChoice::PureBlocking,
            PolicyChoice::Adaptive { threshold: 2, n: 32 },
            PolicyChoice::Algorithm(adaptive_native::LockAlgorithm::Ticket),
            PolicyChoice::Algorithm(adaptive_native::LockAlgorithm::Combining),
            PolicyChoice::FairAdaptive { unfair_wait_nanos: 200_000, patience: 4 },
        ] {
            for searchers in [1, 4] {
                let res = solve_native(
                    &inst,
                    NativeTspConfig {
                        searchers,
                        policy,
                        ..NativeTspConfig::default()
                    },
                );
                assert_eq!(res.best, oracle, "{} x{searchers}", policy.label());
                assert!(res.stats.expanded > 0);
                assert!(res.stats.tours >= 1);
                assert_eq!(res.worker_panics, 0);
            }
        }
    }

    #[test]
    fn all_three_structures_find_the_optimum() {
        let inst = TspInstance::random_symmetric(9, 100, 13);
        let oracle = inst.held_karp();
        for variant in NativeVariant::ALL {
            for searchers in [1, 2, 4] {
                let res = solve_native(
                    &inst,
                    NativeTspConfig {
                        searchers,
                        variant,
                        ..NativeTspConfig::default()
                    },
                );
                assert_eq!(res.best, oracle, "{} x{searchers}", variant.label());
                assert_eq!(
                    res.per_queue_locks.len(),
                    if variant == NativeVariant::Centralized { 1 } else { searchers },
                );
            }
        }
    }

    #[test]
    fn distributed_structures_steal_work_through_the_ring() {
        // The root seeds queue 0; every other searcher must steal to
        // participate at all. The instance needs a search tree that
        // outlasts thread start-up and a few scheduler quanta on a loaded
        // host in a release build too (~35k expansions here, 0.1 s for
        // one optimised searcher), or searcher 0 can finish the whole
        // search before the others ever run.
        let inst = TspInstance::random_euclidean(20, 500, 10);
        let (oracle, _) = crate::solve_sequential(&inst);
        for variant in [NativeVariant::Distributed, NativeVariant::Balanced] {
            let res = solve_native(
                &inst,
                NativeTspConfig {
                    searchers: 4,
                    variant,
                    transfer_refs: 2,
                    ..NativeTspConfig::default()
                },
            );
            assert_eq!(res.best, oracle, "{}", variant.label());
            assert!(res.steals > 0, "{}: ring steals must happen", variant.label());
            assert!(
                res.transfers >= res.steals,
                "{}: each steal moves >= 1 item",
                variant.label()
            );
        }
    }

    #[test]
    fn native_solver_matches_the_simulated_solver() {
        let inst = TspInstance::random_euclidean(10, 500, 21);
        let (seq, _) = crate::solve_sequential(&inst);
        let res = solve_native(&inst, NativeTspConfig::default());
        assert_eq!(res.best, seq);
    }

    #[test]
    fn lock_traffic_is_observable() {
        let inst = TspInstance::random_symmetric(9, 100, 3);
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 4,
                policy: PolicyChoice::Adaptive { threshold: 2, n: 32 },
                ..NativeTspConfig::default()
            },
        );
        // Every expanded node left the queue under `qlock`, in batches
        // of at most `transfer_refs`.
        let batch = NativeTspConfig::default().transfer_refs as u64;
        assert!(res.queue_lock().acquisitions * batch >= res.stats.expanded);
        assert!(res.best_lock().acquisitions > 0);
        assert_eq!(res.per_queue_locks.len(), 1);
        assert_eq!(
            res.per_queue_locks[0].acquisitions,
            res.queue_lock().acquisitions
        );

        // ... and under little else: the children go in and the next
        // batch comes out in one critical section, and what is left when
        // the optimum is proven comes out in one more. Push-then-pop
        // with a pop per pruned node is 3 per expansion, 3 / batch if
        // the step came apart but still moved batches.
        let searchers = 2;
        let res = solve_native(
            &TspInstance::random_euclidean(14, 500, 3),
            NativeTspConfig {
                searchers,
                ..NativeTspConfig::default()
            },
        );
        let (acquisitions, expanded) = (res.queue_lock().acquisitions, res.stats.expanded);
        assert!(acquisitions * batch >= expanded);
        assert!(
            acquisitions as f64 <= 1.1 * expanded as f64 / batch as f64 + searchers as f64,
            "{acquisitions} qlock acquisitions for {expanded} expansions in batches of {batch}"
        );

        // On the ring a searcher's home `qlock` is its own: its step
        // hands over one node, and only a steal moves a batch. Every
        // expansion beyond one per acquisition came in a stolen batch.
        let transfer_refs = 8;
        for variant in [NativeVariant::Distributed, NativeVariant::Balanced] {
            let res = solve_native(
                &TspInstance::random_euclidean(14, 500, 3),
                NativeTspConfig {
                    searchers: 3,
                    variant,
                    transfer_refs,
                    ..NativeTspConfig::default()
                },
            );
            let (acquisitions, expanded) = (res.queue_lock().acquisitions, res.stats.expanded);
            assert!(
                expanded <= acquisitions + (transfer_refs as u64 - 1) * res.steals,
                "{}: {expanded} expansions for {acquisitions} qlock acquisitions and {} steals",
                variant.label(),
                res.steals
            );
        }
    }

    #[test]
    fn a_lone_searcher_takes_one_node_a_step_whatever_the_batch() {
        // Nothing to amortise a step against: one searcher searches the
        // sequential solver's tree, node for node, even where batches of
        // eight would expand nodes it prunes.
        for n in 9..=12 {
            let inst = TspInstance::random_symmetric(n, 100, 7);
            let (cost, stats) = crate::solve_sequential(&inst);
            for variant in NativeVariant::ALL {
                let res = solve_native(
                    &inst,
                    NativeTspConfig {
                        searchers: 1,
                        variant,
                        transfer_refs: 8,
                        ..NativeTspConfig::default()
                    },
                );
                assert_eq!(res.best, cost, "{n} cities, {}", variant.label());
                assert_eq!(res.stats, stats, "{n} cities, {}", variant.label());
            }
        }
    }

    #[test]
    fn retune_plan_fires_mid_run() {
        let inst = TspInstance::random_euclidean(12, 500, 3);
        let oracle = inst.held_karp();
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 4,
                variant: NativeVariant::Distributed,
                retune: Some(RetunePlan::full_cycle(8)),
                ..NativeTspConfig::default()
            },
        );
        assert_eq!(res.best, oracle);
        assert!(res.retunes > 0, "the retune plan must actually fire");
    }

    #[test]
    fn retunes_count_completed_work_items_and_nothing_else() {
        // With `every_steps` 1 every completed item retunes once, and an
        // item either expands a node or prunes the one it was handed.
        //
        // One searcher whose every fourth critical section dies: the
        // count is exact. Each resumption re-enters the loop with nothing
        // new completed; a death in the best-tour update is an expansion
        // counted and not completed, a death in the queue step neither.
        let inst = TspInstance::random_symmetric(9, 100, 7);
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(5).with_cs_panics(4)));
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 1,
                faults: Some(Arc::clone(&plan)),
                max_retries: u32::MAX,
                retune: Some(RetunePlan::full_cycle(1)),
                ..NativeTspConfig::default()
            },
        );
        assert_eq!(res.best, inst.held_karp());
        assert!(res.worker_panics > res.stats.tours, "no queue step died: {res:?}");
        assert!(res.retunes <= res.stats.expanded, "{res:?}");
        assert!(res.retunes + res.worker_panics >= res.stats.expanded, "{res:?}");

        // Two searchers on a search too small to have work for both:
        // one of them is in and out of the idle loop all the way
        // through, and coming back from it is not a completed item.
        let inst = TspInstance::random_symmetric(6, 100, 5);
        for _ in 0..50 {
            let res = solve_native(
                &inst,
                NativeTspConfig {
                    searchers: 2,
                    retune: Some(RetunePlan::full_cycle(1)),
                    ..NativeTspConfig::default()
                },
            );
            assert_eq!(res.best, inst.held_karp());
            assert!(res.retunes <= res.stats.expanded + res.stats.pruned, "{res:?}");
        }
    }

    #[test]
    fn solver_survives_cs_panics_exactly() {
        // Four searchers moving nodes a batch per critical section make
        // a dozen or two of them on this search; seed 17's one-in-12
        // stream fires at its third draw, and again at its sixth.
        let inst = TspInstance::random_symmetric(9, 100, 7);
        let oracle = inst.held_karp();
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(17).with_cs_panics(12)));
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 4,
                faults: Some(Arc::clone(&plan)),
                ..NativeTspConfig::default()
            },
        );
        assert_eq!(res.best, oracle, "exactness must survive CS panics");
        assert!(
            plan.report().cs_panics > 0,
            "the plan must actually have fired"
        );
        assert_eq!(res.worker_panics, plan.report().cs_panics);
        assert_eq!(res.dropped, 0, "retry budget must suffice at this rate");
        assert!(res.poison_recoveries > 0, "panics poison, supervisors clear");
    }

    #[test]
    fn cs_panics_inside_the_queue_step_lose_nothing() {
        let inst = TspInstance::random_euclidean(12, 500, 3);
        let oracle = inst.held_karp();
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(41).with_cs_panics(16)));
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 2,
                variant: NativeVariant::Centralized,
                faults: Some(Arc::clone(&plan)),
                ..NativeTspConfig::default()
            },
        );
        let cs_panics = plan.report().cs_panics;
        // A centralized run injects in two places: the best-tour update
        // (at most once per tour found) and the queue step.
        assert!(
            cs_panics > res.stats.tours,
            "{cs_panics} panics over {} tours: none is shown to be the queue step's",
            res.stats.tours
        );
        assert_eq!(res.best, oracle, "a holder dying mid-step must lose no node");
        assert_eq!(res.dropped, 0);
        assert_eq!(res.worker_panics, cs_panics);
        assert!(res.requeued > 0, "the dying holder's children go back through the stash");
    }

    #[test]
    fn a_holder_that_always_dies_in_the_queue_step_keeps_both_children_stashed() {
        let inst = TspInstance::random_euclidean(10, 500, 3);
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(1).with_cs_panics(1)));
        let cfg = NativeTspConfig {
            faults: Some(Arc::clone(&plan)),
            ..NativeTspConfig::default()
        };
        let sh = Shared::new(&cfg, 1);
        let mut local = SearchStats::default();
        let mut stash: Stash = vec![Box::new(SubProblem::root(&inst))];
        sh.expand_node(0, &mut stash, &mut local, &mut Vec::new(), &mut NodePool::default());
        let name = |node: &Node| (node.bound, node.level, node.work_cells());
        let children: Vec<_> = stash.iter().map(name).collect();
        assert_eq!(children.len(), 2, "the root branches both ways");
        assert_eq!((children[0].1, children[1].1), (1, 0), "push order: include, then exclude");
        // One node queued already, worse than either child, so that
        // "as before the call" is not "empty".
        let mut queued = Box::new(SubProblem::root(&inst));
        queued.bound = children[1].0 + 1;
        let queued_name = name(&queued);
        sh.requeue(0, queued);

        for _ in 0..3 {
            let died = catch_unwind(AssertUnwindSafe(|| {
                sh.exchange(0, 0, &mut stash, &mut local, 1, true)
            }));
            assert!(died.is_err(), "a one-in-one plan dies at every injection point");
            sh.recover_after_panic();
            assert_eq!(stash.iter().map(name).collect::<Vec<_>>(), children);
            assert_eq!(sh.queues[0].mirror_len(), 1);
            assert_eq!(sh.queues[0].lock.lock().len(), 1);
        }
        assert_eq!(plan.report().cs_panics, 3);

        // The same step with no plan in the way queues each child once.
        assert!(sh.exchange(0, 0, &mut stash, &mut local, 1, false));
        assert_eq!(sh.queues[0].mirror_len(), 2);
        let mut out: Vec<_> = stash.drain(..).map(|node| name(&node)).collect();
        let mut queue = sh.queues[0].lock.lock();
        out.extend(std::iter::from_fn(|| queue.pop()).map(|node| name(&node)));
        let mut each_once = vec![children[0], children[1], queued_name];
        each_once.sort_unstable();
        assert!(out.is_sorted(), "best first: {out:?}");
        assert_eq!(out, each_once);
    }

    #[test]
    fn a_best_tour_panic_mid_batch_charges_only_the_node_under_expansion() {
        // Two searchers in batches of four with no retry budget: the
        // first node of a batch completes a tour and the best-tour
        // update dies. That node is dropped; the three behind it caused
        // nothing and go back to the queue.
        let inst = TspInstance::random_euclidean(7, 500, 3);
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(1).with_cs_panics(1)));
        let cfg = NativeTspConfig {
            searchers: 2,
            transfer_refs: 4,
            faults: Some(Arc::clone(&plan)),
            max_retries: 0,
            ..NativeTspConfig::default()
        };
        let sh = Shared::new(&cfg, 2);
        // Follow the include branch down to a node whose expansion
        // completes a tour.
        let mut scratch = Vec::new();
        let mut node = Box::new(SubProblem::root(&inst));
        loop {
            let mut probe = node.clone();
            match probe.expand_in_place(&mut scratch) {
                Expanded::Tour { .. } => break,
                Expanded::Branched { include, exclude } => {
                    node = include.or(exclude.then_some(probe)).expect("a branch has a child");
                }
                Expanded::Dead => panic!("a complete graph always has a tour"),
            }
        }
        let behind = Box::new(SubProblem::root(&inst));
        let mut batch: Stash = vec![node, behind.clone(), behind.clone(), behind];
        let untouched = Cell::new(0);
        let died = catch_unwind(AssertUnwindSafe(|| {
            let mut local = SearchStats::default();
            sh.expand_batch(0, &mut batch, &untouched, &mut local, &mut scratch, || {})
        }));
        assert!(died.is_err(), "a one-in-one plan dies in the best-tour update");
        assert_eq!((batch.len(), untouched.get()), (4, 3), "the tour's node and three behind it");
        sh.recover_after_panic();
        sh.requeue_in_hand(0, &mut batch, untouched.replace(0), false, cfg.max_retries);
        assert_eq!(sh.dropped.load(Ordering::Relaxed), 1, "only the node under expansion");
        assert_eq!(sh.requeued.load(Ordering::Relaxed), 3);
        assert_eq!(sh.queues[0].mirror_len(), 3);
        let mut queue = sh.queues[0].lock.lock();
        let requeued: Vec<_> =
            std::iter::from_fn(|| queue.pop()).map(|n| (n.level, n.attempts)).collect();
        assert_eq!(requeued, [(0, 0); 3], "the three roots behind it, uncharged");
    }

    #[test]
    fn worker_killed_holding_a_handed_over_node_requeues_it() {
        // The whole crew is doomed within its first few steps of a
        // search that needs hundreds: each searcher dies between the
        // queue step and the expansion, with the batch the step (or, on
        // the ring, a steal) handed it in its stash. None of those nodes
        // may be lost, and a kill must not spend their retry budget
        // (there is none here): kills alone never cost exactness. With
        // batches of one, each worker dies holding exactly one node;
        // with the default batch, holding one to a batch of them.
        let inst = TspInstance::random_euclidean(12, 500, 3);
        let oracle = inst.held_karp();
        for transfer_refs in [1, NativeTspConfig::default().transfer_refs] {
            for (variant, searchers) in [
                (NativeVariant::Centralized, 2),
                (NativeVariant::Distributed, 3),
                (NativeVariant::Balanced, 3),
            ] {
                let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(43).with_worker_kills(100, 2)));
                let res = solve_native(
                    &inst,
                    NativeTspConfig {
                        searchers,
                        variant,
                        transfer_refs,
                        faults: Some(Arc::clone(&plan)),
                        max_retries: 0,
                        ..NativeTspConfig::default()
                    },
                );
                let label = format!("{} in batches of {transfer_refs}", variant.label());
                assert_eq!(res.best, oracle, "{label}: a killed worker's nodes must reach the drain");
                assert_eq!(res.workers_died, searchers as u64, "{label}");
                let held = searchers as u64..=(searchers * transfer_refs) as u64;
                assert!(
                    held.contains(&res.requeued),
                    "{label}: each doomed worker dies with a batch in hand, {} requeued",
                    res.requeued
                );
                if transfer_refs == 1 {
                    assert_eq!(res.requeued, searchers as u64, "{label}: one node in hand each");
                }
                assert_eq!(res.dropped, 0, "{label}");
                assert!(res.residual_drained > 0, "{label}");
            }
        }
    }

    #[test]
    fn solver_survives_worker_deaths_exactly() {
        // Large enough that every searcher participates long past the
        // doomed workers' kill steps.
        let inst = TspInstance::random_symmetric(11, 100, 5);
        let oracle = inst.held_karp();
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(23).with_worker_kills(50, 3)));
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 4,
                faults: Some(Arc::clone(&plan)),
                ..NativeTspConfig::default()
            },
        );
        assert_eq!(res.best, oracle, "exactness must survive worker deaths");
        assert_eq!(res.workers_died, 2, "50% of 4 workers, exactly");
    }

    #[test]
    fn solver_survives_total_worker_loss_via_residual_drain() {
        let inst = TspInstance::random_symmetric(10, 100, 11);
        let oracle = inst.held_karp();
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(31).with_worker_kills(100, 1)));
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 3,
                faults: Some(Arc::clone(&plan)),
                ..NativeTspConfig::default()
            },
        );
        assert_eq!(res.best, oracle, "the residual drain must finish the search");
        assert_eq!(res.workers_died, 3, "every worker dies");
        assert!(res.residual_drained > 0, "the caller drained the residue");
    }

    #[test]
    fn distributed_total_worker_loss_drains_every_queue() {
        let inst = TspInstance::random_symmetric(10, 100, 29);
        let oracle = inst.held_karp();
        for variant in [NativeVariant::Distributed, NativeVariant::Balanced] {
            let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(37).with_worker_kills(100, 2)));
            let res = solve_native(
                &inst,
                NativeTspConfig {
                    searchers: 3,
                    variant,
                    faults: Some(Arc::clone(&plan)),
                    ..NativeTspConfig::default()
                },
            );
            assert_eq!(res.best, oracle, "{}: residual drain over the ring", variant.label());
            assert_eq!(res.workers_died, 3);
        }
    }

    /// Run `f` on a thread of its own, whose pool starts empty.
    fn on_a_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().expect("the thread finishes")
    }

    /// Solve `inst` with `searchers` centralized searchers; the pool's
    /// node count on this thread afterwards.
    fn pooled_after(inst: &TspInstance, searchers: usize) -> usize {
        let res = solve_native(
            inst,
            NativeTspConfig {
                searchers,
                ..NativeTspConfig::default()
            },
        );
        assert_eq!(res.best, inst.held_karp());
        NodePool::held_by_this_thread()
    }

    #[test]
    fn the_pool_keeps_the_largest_solves_peak_and_nothing_more() {
        let small = TspInstance::random_euclidean(12, 500, 3);
        let large = TspInstance::random_euclidean(14, 500, 3);
        // The nodes a fresh thread holds after the larger search alone:
        // every node it ever made, which is what it had out at once.
        let peak = on_a_fresh_thread({
            let large = large.clone();
            move || pooled_after(&large, 1)
        });
        on_a_fresh_thread(move || {
            // One searcher: the first solve sets the count, and solving
            // the same instance again builds every node in a pooled one.
            let first = pooled_after(&small, 1);
            assert!(0 < first && first < peak, "{first} pooled after the small search, {peak} after the large");
            for _ in 0..3 {
                assert_eq!(pooled_after(&small, 1), first, "a repeated solve made nodes");
            }
            // A larger instance after smaller ones: its peak, exactly.
            assert_eq!(pooled_after(&large, 1), peak);
            // Two searchers out of a pool the larger search sized. How
            // many nodes two searchers have out at once moves with the
            // race by a few, so their repeated solves run where the pool
            // covers any of them: none may make a node, and the larger
            // search after them finds its peak, not more.
            for _ in 0..3 {
                assert_eq!(pooled_after(&small, 2), peak, "two searchers made nodes");
                assert_eq!(pooled_after(&large, 1), peak);
            }
        });
    }
}

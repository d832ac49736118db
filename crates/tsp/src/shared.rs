//! Shared abstractions of the parallel TSP implementations: the work
//! queue(s) of subproblems, the best-tour value, and the four locks the
//! paper names (`qlock`, `glob-act-lock`, `glob-low-lock`, `globlock`).

use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
use std::sync::{Arc, Mutex};

use adaptive_locks::{
    AdaptiveLock, BlockingLock, Lock, SimpleAdapt, SpinBackoffLock, SpinLock,
};
use adaptive_native::CachePadded;
use butterfly_sim::{ctx, NodeId, SimCell};

use crate::instance::INF;
use crate::lmsk::{BestFirst, SubProblem};

/// Which lock implementation backs the application's four locks — the
/// independent variable of the paper's Tables 1–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockImpl {
    /// The blocking lock (the paper's baseline columns).
    Blocking,
    /// The adaptive lock with `simple-adapt(threshold, n)`.
    Adaptive {
        /// `Waiting-Threshold`.
        threshold: u64,
        /// Spin increment `n`.
        n: u32,
    },
    /// Pure test-and-test-and-set spinning.
    Spin,
    /// Spin with backoff.
    SpinBackoff,
}

impl LockImpl {
    /// Build one lock of this kind homed on `node`.
    pub fn build(self, node: NodeId) -> Arc<dyn Lock> {
        match self {
            LockImpl::Blocking => Arc::new(BlockingLock::new_on(node)),
            LockImpl::Adaptive { threshold, n } => Arc::new(AdaptiveLock::with_policy(
                node,
                Box::new(SimpleAdapt::new(threshold, n)),
                2,
            )),
            LockImpl::Spin => Arc::new(SpinLock::new_on(node)),
            LockImpl::SpinBackoff => Arc::new(SpinBackoffLock::new_on(node)),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            LockImpl::Blocking => "blocking",
            LockImpl::Adaptive { .. } => "adaptive",
            LockImpl::Spin => "spin",
            LockImpl::SpinBackoff => "spin-backoff",
        }
    }
}

/// A best-first work queue of subproblems homed on one memory node.
///
/// Every push/pop charges `transfer_refs` simulated references against
/// the queue's node — moving a subproblem (a reduced cost matrix) through
/// a remote queue is exactly the remote-memory traffic that makes the
/// centralized TSP slower than the distributed one.
pub struct WorkQueue {
    home: NodeId,
    transfer_refs: u32,
    heap: Mutex<BestFirst>,
    /// Lock-free length mirror on its own cache line, maintained by
    /// every heap mutation while the heap mutex is still held. Monitors
    /// and peek paths read it without touching the mutex, and the pad
    /// keeps those polls from bouncing the line the queue's other
    /// fields (or a neighbouring queue) live on.
    len: CachePadded<AtomicUsize>,
}

impl WorkQueue {
    /// An empty queue on `node`.
    pub fn new(node: NodeId, transfer_refs: u32) -> WorkQueue {
        WorkQueue {
            home: node,
            transfer_refs,
            heap: Mutex::new(BestFirst::default()),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// The queue's home node.
    pub fn home(&self) -> NodeId {
        self.home
    }

    fn charge(&self, op: ctx::MemOp) {
        for _ in 0..self.transfer_refs {
            ctx::charge_mem(op, self.home);
        }
    }

    /// The backing heap, tolerant of poison: every heap operation leaves
    /// the heap itself consistent (the `Mutex` only guards it against
    /// concurrent access), so a panic in some earlier holder does not
    /// invalidate the data.
    fn heap(&self) -> std::sync::MutexGuard<'_, BestFirst> {
        self.heap.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Push a subproblem (call with the queue's `qlock` held).
    pub fn push(&self, sp: SubProblem) {
        self.charge(ctx::MemOp::Write);
        let mut heap = self.heap();
        heap.push(Box::new(sp));
        self.len.store(heap.len(), AOrd::Release);
    }

    /// Pop the best subproblem (call with the queue's `qlock` held).
    pub fn pop(&self) -> Option<SubProblem> {
        let e = {
            let mut heap = self.heap();
            let e = heap.pop();
            self.len.store(heap.len(), AOrd::Release);
            e
        };
        if e.is_some() {
            self.charge(ctx::MemOp::Read);
        } else {
            ctx::charge_mem(ctx::MemOp::Read, self.home);
        }
        e.map(|node| *node)
    }

    /// Steal-aware batched pop: take up to `max` best subproblems in one
    /// `qlock` critical section. Each item moved charges the queue's
    /// transfer references; an empty probe charges one read. This is the
    /// transfer primitive of the distributed structures — one lock hold
    /// amortized over a whole batch instead of `max` lock cycles.
    pub fn pop_batch(&self, max: usize) -> Vec<SubProblem> {
        let mut out = Vec::new();
        {
            let mut heap = self.heap();
            for _ in 0..max {
                match heap.pop() {
                    Some(node) => out.push(*node),
                    None => break,
                }
            }
            self.len.store(heap.len(), AOrd::Release);
        }
        if out.is_empty() {
            ctx::charge_mem(ctx::MemOp::Read, self.home);
        } else {
            for _ in 0..out.len() {
                self.charge(ctx::MemOp::Read);
            }
        }
        out
    }

    /// Batched push: enqueue several subproblems in one `qlock` critical
    /// section, charging transfer references per item.
    pub fn push_batch(&self, sps: Vec<SubProblem>) {
        if sps.is_empty() {
            return;
        }
        for _ in 0..sps.len() {
            self.charge(ctx::MemOp::Write);
        }
        let mut heap = self.heap();
        for sp in sps {
            heap.push(Box::new(sp));
        }
        self.len.store(heap.len(), AOrd::Release);
    }

    /// Remote-visible emptiness probe (one charged read). Reads the
    /// lock-free length mirror — an unlocked single-word read, which is
    /// exactly what the single charged reference models.
    pub fn looks_empty(&self) -> bool {
        ctx::charge_mem(ctx::MemOp::Read, self.home);
        self.len.load(AOrd::Acquire) == 0
    }

    /// Cost-free emptiness peek (for assertions/monitors). Lock-free:
    /// reads the padded length mirror, never the heap mutex.
    pub fn peek_empty(&self) -> bool {
        self.len.load(AOrd::Acquire) == 0
    }

    /// Cost-free length peek. Lock-free, same as [`WorkQueue::peek_empty`].
    pub fn peek_len(&self) -> usize {
        self.len.load(AOrd::Acquire)
    }
}

/// The best-tour value: a simulated word plus its `glob-low-lock`.
/// Reads are unlocked single-word reads; updates take the lock
/// (read-modify-write), which is why the paper observes no contention on
/// this lock.
pub struct BestTour {
    value: SimCell<u32>,
    /// `glob-low-lock`.
    pub lock: Arc<dyn Lock>,
}

impl BestTour {
    /// Fresh incumbent (`INF`) on `node`.
    pub fn new(node: NodeId, lock_impl: LockImpl) -> BestTour {
        BestTour {
            value: SimCell::new_on(node, INF),
            lock: lock_impl.build(node),
        }
    }

    /// Read the incumbent (one charged read, no lock).
    pub fn read(&self) -> u32 {
        self.value.read()
    }

    /// Lower the incumbent to `cost` if it improves it. Returns whether
    /// the update happened.
    pub fn offer(&self, cost: u32) -> bool {
        // Cheap unlocked pre-check, then locked read-modify-write.
        if self.value.read() <= cost {
            return false;
        }
        self.lock.lock();
        let improved = self.value.read() > cost;
        if improved {
            self.value.write(cost);
        }
        self.lock.unlock();
        improved
    }

    /// Overwrite with `cost` if it improves, without taking the lock
    /// (used for propagating into per-processor copies, where the writer
    /// holds its own copy's lock).
    pub fn force_min(&self, cost: u32) {
        if self.value.read() > cost {
            self.value.write(cost);
        }
    }

    /// Cost-free peek.
    pub fn peek(&self) -> u32 {
        self.value.peek()
    }
}

/// Searcher-activity accounting: the "number of active slaves" variable
/// and its `glob-act-lock`.
pub struct ActiveCounter {
    count: SimCell<i64>,
    /// `glob-act-lock`.
    pub lock: Arc<dyn Lock>,
}

impl ActiveCounter {
    /// Counter starting at `initial` on `node`.
    pub fn new(node: NodeId, lock_impl: LockImpl, initial: i64) -> ActiveCounter {
        ActiveCounter {
            count: SimCell::new_on(node, initial),
            lock: lock_impl.build(node),
        }
    }

    /// `count += delta` under the lock.
    pub fn add(&self, delta: i64) -> i64 {
        self.lock.lock();
        let v = self.count.read() + delta;
        self.count.write(v);
        self.lock.unlock();
        v
    }

    /// Read under the lock (the termination check).
    pub fn read(&self) -> i64 {
        self.lock.lock();
        let v = self.count.read();
        self.lock.unlock();
        v
    }

    /// Cost-free peek.
    pub fn peek(&self) -> i64 {
        self.count.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TspInstance;
    use butterfly_sim::{self as sim, SimConfig};

    fn in_sim<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        sim::run(SimConfig::butterfly(2), f).unwrap().0
    }

    #[test]
    fn queue_is_best_first_with_fifo_ties() {
        let out = in_sim(|| {
            let inst = TspInstance::random_symmetric(6, 100, 1);
            let q = WorkQueue::new(ctx::current_node(), 2);
            // Three roots with hand-set bounds.
            let mut a = SubProblem::root(&inst);
            a.bound = 50;
            let mut b = SubProblem::root(&inst);
            b.bound = 10;
            let mut c = SubProblem::root(&inst);
            c.bound = 50;
            q.push(a);
            q.push(b);
            q.push(c);
            let mut bounds = Vec::new();
            while let Some(sp) = q.pop() {
                bounds.push(sp.bound);
            }
            (bounds, q.peek_empty())
        });
        assert_eq!(out.0, vec![10, 50, 50]);
        assert!(out.1);
    }

    #[test]
    fn queue_charges_transfer_refs() {
        let delta = in_sim(|| {
            let inst = TspInstance::random_symmetric(6, 100, 1);
            let q = WorkQueue::new(ctx::current_node(), 8);
            let before = ctx::cost_meter();
            q.push(SubProblem::root(&inst));
            let after_push = ctx::cost_meter() - before;
            let before = ctx::cost_meter();
            let _ = q.pop();
            let after_pop = ctx::cost_meter() - before;
            (after_push.writes(), after_pop.reads())
        });
        assert_eq!(delta.0, 8);
        assert_eq!(delta.1, 8);
    }

    #[test]
    fn batched_transfer_is_best_first_and_charged_per_item() {
        let out = in_sim(|| {
            let inst = TspInstance::random_symmetric(6, 100, 1);
            let q = WorkQueue::new(ctx::current_node(), 2);
            let mk = |b: u32| {
                let mut sp = SubProblem::root(&inst);
                sp.bound = b;
                sp
            };
            q.push_batch(vec![mk(30), mk(10), mk(20)]);
            let before = ctx::cost_meter();
            let got = q.pop_batch(2);
            let reads = (ctx::cost_meter() - before).reads();
            let bounds: Vec<u32> = got.iter().map(|s| s.bound).collect();
            let rest = q.pop_batch(5).len();
            let empty = q.pop_batch(3).len();
            (bounds, reads, rest, empty)
        });
        assert_eq!(out.0, vec![10, 20], "batch pops best-first");
        assert_eq!(out.1, 4, "2 items x 2 transfer refs");
        assert_eq!(out.2, 1, "short batch returns what is there");
        assert_eq!(out.3, 0, "empty batch is empty");
    }

    #[test]
    fn best_tour_offer_keeps_minimum() {
        let out = in_sim(|| {
            let best = BestTour::new(ctx::current_node(), LockImpl::Spin);
            assert!(best.offer(100));
            assert!(!best.offer(150));
            assert!(best.offer(40));
            best.read()
        });
        assert_eq!(out, 40);
    }

    #[test]
    fn active_counter_tracks_under_lock() {
        let out = in_sim(|| {
            let act = ActiveCounter::new(ctx::current_node(), LockImpl::Blocking, 4);
            act.add(-1);
            act.add(-1);
            act.add(1);
            (act.read(), act.peek())
        });
        assert_eq!(out.0, 3);
        assert_eq!(out.1, 3);
    }

    #[test]
    fn lock_impl_builders_produce_named_locks() {
        in_sim(|| {
            let node = ctx::current_node();
            assert_eq!(LockImpl::Blocking.build(node).name(), "blocking");
            assert_eq!(
                LockImpl::Adaptive { threshold: 3, n: 5 }.build(node).name(),
                "adaptive"
            );
            assert_eq!(LockImpl::Spin.build(node).name(), "spin");
            assert_eq!(LockImpl::SpinBackoff.build(node).name(), "spin-backoff");
            assert_eq!(LockImpl::Blocking.label(), "blocking");
        });
    }
}

//! Native CLH queue lock: FIFO handoff with purely local spinning.
//!
//! The native analogue of the simulator's `crates/locks/mcs.rs` (same
//! family; CLH spins on the *predecessor's* node where MCS spins on
//! your own, which lets release be a single store with no
//! wait-for-successor handshake). An acquirer publishes a node with one
//! `swap` on `tail` and then spins on its predecessor's `locked` word —
//! a line only those two threads ever touch — so a release invalidates
//! exactly one waiter's line instead of broadcasting to all of them
//! like [`crate::TicketLock`]. In the paper's `n1·R + n2·W` terms the
//! waiting cost is local: one remote write (the `swap`) to enqueue, one
//! remote write (the handoff store) to be granted, and all polling in
//! between hits the waiter's own cache.
//!
//! # Node lifetime
//!
//! CLH nodes outlive the acquire call that created them (the successor
//! spins on ours after we return), so nodes are heap-allocated and
//! *recycled, never freed* while the lock is alive: a retired node goes
//! to a one-slot `spare` cache, overflow goes to a push-only `garbage`
//! stack that is drained in bulk on the next cache miss and freed only
//! in `Drop`. Keeping every node's memory valid for the lock's lifetime
//! is what makes the optimistic reads in [`RawLock::try_acquire`] and
//! [`RawLock::is_locked`] safe: a stale pointer still names a live
//! `ClhNode`, and the `tail` compare-exchange (plus a post-win recheck
//! of the predecessor) rejects stale claims.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use crate::raw::RawLock;

/// Spins between yields while polling the predecessor.
const POLL_SPINS: u32 = 64;

/// One queue node. Aligned to its own line pair so a waiter spinning on
/// `locked` never false-shares with a neighbouring node.
#[repr(align(128))]
struct ClhNode {
    /// True from enqueue until the owner releases.
    locked: AtomicBool,
    /// Link used only while the node sits on the `garbage` stack.
    free_next: AtomicPtr<ClhNode>,
}

impl ClhNode {
    fn boxed() -> *mut ClhNode {
        Box::into_raw(Box::new(ClhNode {
            locked: AtomicBool::new(true),
            free_next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// CLH queue lock (native, local spinning).
///
/// ```
/// use adaptive_native::{ClhLock, RawLock};
///
/// let lock = ClhLock::new();
/// lock.acquire();
/// assert!(!lock.try_acquire());
/// lock.release();
/// assert!(lock.try_acquire());
/// lock.release();
/// ```
pub struct ClhLock {
    /// Most recently enqueued node; its `locked` word doubles as the
    /// lock's free/held state when no queue has formed.
    tail: AtomicPtr<ClhNode>,
    /// Node the current holder owns; its release store is the handoff.
    /// Guarded by the mutual exclusion of the lock itself: written
    /// after winning, read at release, never concurrently.
    holder: Cell<*mut ClhNode>,
    /// One-slot recycling cache, so the steady uncontended state
    /// allocates nothing.
    spare: AtomicPtr<ClhNode>,
    /// Push-only overflow stack of retired nodes; drained in bulk when
    /// `spare` misses, freed in `Drop`. Push-only CAS plus swap-all
    /// drain keeps it immune to the ABA problem of a pop-one Treiber
    /// stack.
    garbage: AtomicPtr<ClhNode>,
}

// SAFETY: all cross-thread state is atomic. `holder` is a plain Cell,
// but it is only written by the thread that just won the lock and only
// read by the thread releasing it; those are either the same thread or
// synchronize through whatever moved ownership of the guard between
// them, so the accesses never race.
unsafe impl Send for ClhLock {}
// SAFETY: as for `Send` — through a shared `&ClhLock` only the current
// holder touches `holder`. Exercised by
// `exclusion_holds_under_hammering`.
unsafe impl Sync for ClhLock {}

impl ClhLock {
    /// A free CLH lock (allocates the initial dummy node).
    pub fn new() -> ClhLock {
        let dummy = ClhNode::boxed();
        // SAFETY: freshly allocated, unshared.
        unsafe { (*dummy).locked.store(false, Ordering::Relaxed) };
        ClhLock {
            tail: AtomicPtr::new(dummy),
            holder: Cell::new(ptr::null_mut()),
            spare: AtomicPtr::new(ptr::null_mut()),
            garbage: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// A node ready to enqueue (`locked == true`), recycled if possible.
    fn take_node(&self) -> *mut ClhNode {
        let node = self.spare.swap(ptr::null_mut(), Ordering::Acquire);
        let node = if node.is_null() { self.drain_garbage() } else { node };
        if node.is_null() {
            return ClhNode::boxed();
        }
        // SAFETY: a recycled node is exclusively ours until published.
        unsafe { (*node).locked.store(true, Ordering::Relaxed) };
        node
    }

    /// Take the whole garbage stack; keep one node, re-push the rest.
    fn drain_garbage(&self) -> *mut ClhNode {
        let head = self.garbage.swap(ptr::null_mut(), Ordering::Acquire);
        if head.is_null() {
            return head;
        }
        // SAFETY: the swap made the chain exclusively ours.
        let mut rest = unsafe { (*head).free_next.load(Ordering::Relaxed) };
        while !rest.is_null() {
            // SAFETY: `rest` is a link of the chain the swap made
            // exclusively ours, read before `push_garbage` republishes
            // the node. Exercised by
            // `nodes_recycle_through_spare_and_garbage`.
            let next = unsafe { (*rest).free_next.load(Ordering::Relaxed) };
            self.push_garbage(rest);
            rest = next;
        }
        head
    }

    fn push_garbage(&self, node: *mut ClhNode) {
        let mut head = self.garbage.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is exclusively ours until the CAS below
            // publishes it.
            unsafe { (*node).free_next.store(head, Ordering::Relaxed) };
            match self.garbage.compare_exchange_weak(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => head = now,
            }
        }
    }

    /// Recycle a node no thread references any more.
    fn retire(&self, node: *mut ClhNode) {
        if self
            .spare
            .compare_exchange(ptr::null_mut(), node, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        self.push_garbage(node);
    }

    /// Spin until `pred` releases, then take ownership with `node`.
    fn finish_acquire(&self, pred: *mut ClhNode, node: *mut ClhNode) {
        let mut spins = 0u32;
        // SAFETY: `pred` stays allocated for the lock's lifetime, and
        // its owner will not recycle it — *we* retire it below, being
        // its unique successor.
        while unsafe { (*pred).locked.load(Ordering::Acquire) } {
            spins += 1;
            if spins.is_multiple_of(POLL_SPINS) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.retire(pred);
        self.holder.set(node);
    }
}

impl Default for ClhLock {
    fn default() -> ClhLock {
        ClhLock::new()
    }
}

impl RawLock for ClhLock {
    fn acquire(&self) {
        let node = self.take_node();
        let pred = self.tail.swap(node, Ordering::AcqRel);
        self.finish_acquire(pred, node);
    }

    fn try_acquire(&self) -> bool {
        let tail = self.tail.load(Ordering::Acquire);
        // SAFETY: nodes stay allocated for the lock's lifetime, so this
        // optimistic read is always of live memory (possibly stale).
        if unsafe { (*tail).locked.load(Ordering::Acquire) } {
            return false;
        }
        let node = self.take_node();
        if self
            .tail
            .compare_exchange(tail, node, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            self.retire(node);
            return false;
        }
        // Won the enqueue race. In the vanishingly rare case that
        // `tail` was recycled and re-enqueued between our read and the
        // compare-exchange (an ABA on the pointer value), its `locked`
        // word may be true again; we are then a committed FIFO waiter
        // and wait out at most that one predecessor. Normally the spin
        // below exits on its first probe.
        self.finish_acquire(tail, node);
        true
    }

    fn release(&self) {
        let node = self.holder.get();
        debug_assert!(!node.is_null(), "release without a held ClhLock");
        self.holder.set(ptr::null_mut());
        // SAFETY: `node` is the holder's own enqueued node; the
        // successor (or a future acquirer) owns its memory next.
        unsafe { (*node).locked.store(false, Ordering::Release) };
    }

    fn is_locked(&self) -> bool {
        let tail = self.tail.load(Ordering::Acquire);
        // SAFETY: see `try_acquire` — live memory, possibly stale value.
        unsafe { (*tail).locked.load(Ordering::Relaxed) }
    }

    fn label(&self) -> &'static str {
        "clh"
    }
}

impl Drop for ClhLock {
    fn drop(&mut self) {
        // &mut self: no concurrent users. Every node is now either the
        // final tail, the spare, or on the garbage stack.
        let free = |p: *mut ClhNode| {
            if !p.is_null() {
                // SAFETY: allocated by `ClhNode::boxed`, unreferenced.
                drop(unsafe { Box::from_raw(p) });
            }
        };
        let mut g = *self.garbage.get_mut();
        while !g.is_null() {
            // SAFETY: `&mut self` — no concurrent users — and every
            // garbage node is a live `ClhNode::boxed` allocation until
            // `free` below. Exercised by
            // `nodes_recycle_through_spare_and_garbage`, which drops a
            // lock with nodes still on the garbage stack.
            let next = *unsafe { &mut *g }.free_next.get_mut();
            free(g);
            g = next;
        }
        free(*self.spare.get_mut());
        free(*self.tail.get_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64};
    use std::sync::Arc;

    #[test]
    fn exclusion_holds_under_hammering() {
        let lock = Arc::new(ClhLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let inside = Arc::clone(&inside);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        if i.is_multiple_of(5) && lock.try_acquire() {
                            assert_eq!(inside.fetch_add(1, Ordering::Relaxed), 0);
                            counter.fetch_add(1, Ordering::Relaxed);
                            inside.fetch_sub(1, Ordering::Relaxed);
                            lock.release();
                            continue;
                        }
                        lock.acquire();
                        assert_eq!(inside.fetch_add(1, Ordering::Relaxed), 0);
                        counter.fetch_add(1, Ordering::Relaxed);
                        inside.fetch_sub(1, Ordering::Relaxed);
                        lock.release();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 2_000);
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_acquire_fails_while_held() {
        let lock = ClhLock::new();
        assert!(!lock.is_locked());
        lock.acquire();
        assert!(lock.is_locked());
        assert!(!lock.try_acquire());
        lock.release();
        assert!(lock.try_acquire());
        assert!(!lock.try_acquire());
        lock.release();
        assert!(!lock.is_locked());
    }

    #[test]
    fn nodes_recycle_through_spare_and_garbage() {
        let lock = ClhLock::new();
        // Many sequential acquisitions must not grow memory: after the
        // first few, every take_node hits the spare slot.
        for _ in 0..10_000 {
            lock.acquire();
            lock.release();
        }
        // Exercise the garbage path explicitly.
        let extra: Vec<_> = (0..16).map(|_| ClhNode::boxed()).collect();
        for p in extra {
            lock.push_garbage(p);
        }
        for _ in 0..64 {
            lock.acquire();
            lock.release();
        }
        // Drop frees everything (checked by miri/asan-style runs and by
        // not leaking under the 10k-iteration loop above).
    }
}

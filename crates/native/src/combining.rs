//! Native flat-combining lock: waiters hand their critical section to
//! the current holder.
//!
//! Under heavy contention with tiny critical sections, the dominant
//! cost is not the work but moving the lock word and the protected data
//! between cores — the paper's remote references (`n1·R + n2·W`) in
//! modern clothes. Flat combining inverts the handoff: instead of
//! passing the *lock* to each waiter, a waiter publishes its critical
//! section as a closure in a per-slot mailbox and the current holder
//! (the *combiner*) executes whole batches of them while the data is
//! hot in its cache. One line transfer per published op replaces a
//! lock-word transfer plus a data transfer per op.
//!
//! [`FcLock`] is a test-and-set engine ([`RawLock`]) plus a fixed array
//! of publication slots. Guard-style users (`acquire`/`release`) just
//! use the engine; closure-style users ([`FcLock::run`]) publish and
//! either find their op executed by a combiner or become the combiner
//! themselves by taking the engine. `AdaptiveMutex::with_locked` drives
//! the same slots through the mutex's own acquire protocol when the
//! [`crate::LockAlgorithm::Combining`] engine is selected.
//!
//! A panicking published op is caught by the combiner (which marks the
//! slot so the *publisher* re-raises, keeping the panic in the thread
//! that owns the critical section) — the original payload is replaced
//! by a generic message, which `AdaptiveMutex` pairs with its usual
//! poisoning.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use crate::pad::CachePadded;
use crate::raw::RawLock;

/// Publication mailboxes; publishers beyond this run their op inline
/// under the engine instead.
const FC_SLOTS: usize = 8;

/// Spins between yields while waiting for an outcome or the engine.
const POLL_SPINS: u32 = 64;

/// Slot is empty and claimable.
const SLOT_FREE: u32 = 0;
/// A publisher owns the slot and is writing its op.
const SLOT_CLAIMED: u32 = 1;
/// An op is published and waiting for a combiner.
const SLOT_PENDING: u32 = 2;
/// A combiner is executing the op right now.
const SLOT_EXECUTING: u32 = 3;
/// The op ran to completion; the publisher must reclaim.
const SLOT_DONE: u32 = 4;
/// The op panicked; the publisher must reclaim and re-raise.
const SLOT_PANICKED: u32 = 5;

pub(crate) type OpPtr = *mut (dyn FnMut() + Send);

/// One publication mailbox, on its own line pair so publishers do not
/// false-share with each other.
#[repr(align(128))]
struct Slot {
    state: AtomicU32,
    /// Valid only between `SLOT_PENDING` and reclaim; exclusivity is
    /// enforced by the `state` machine (claim, execute, and reclaim
    /// each begin with an atomic transition that confers ownership).
    op: Cell<Option<OpPtr>>,
}

// SAFETY: `op` is a plain Cell, but the state machine in `state` gives
// every access a unique owner (publisher while CLAIMED/reclaiming,
// combiner while EXECUTING), and the Release/Acquire transitions
// publish the pointed-to closure across threads. The closures
// themselves are required to be `Send` at the publish sites.
unsafe impl Send for Slot {}
// SAFETY: as for `Send` — a shared `&Slot` touches `op` only from the
// thread the `state` machine currently names as owner. Exercised by
// `combined_ops_are_exact_and_exclusive`.
unsafe impl Sync for Slot {}

/// What a publisher observes about its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotOutcome {
    /// Not executed yet (pending or mid-execution).
    Pending,
    /// Executed successfully.
    Done,
    /// The op panicked under the combiner.
    Panicked,
}

/// Tally of one combiner pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DrainReport {
    /// Ops executed to completion.
    pub(crate) executed: u32,
    /// Ops that panicked (already counted in neither `executed` nor
    /// re-raised here — the publisher re-raises).
    pub(crate) panicked: u32,
}

/// Flat-combining lock: test-and-set engine plus publication slots.
///
/// ```
/// use adaptive_native::{FcLock, RawLock};
///
/// let lock = FcLock::new();
/// lock.acquire();
/// assert!(!lock.try_acquire());
/// lock.release();
/// let n = lock.run(|| 41 + 1);
/// assert_eq!(n, 42);
/// ```
pub struct FcLock {
    /// The engine: plain test-and-set, padded onto its own line.
    engine: CachePadded<AtomicBool>,
    /// Upper-bound hint of slots currently holding a pending op, so an
    /// empty [`FcLock::drain`] is one load of one line instead of a
    /// scan across every slot line. Incremented before a slot turns
    /// `SLOT_PENDING`, decremented by whoever moves it out (combiner or
    /// cancelling publisher). A stale zero only skips a drain — benign,
    /// because publishers poll `try_acquire` and self-serve; it never
    /// strands an op.
    pending_hint: CachePadded<AtomicU32>,
    slots: [Slot; FC_SLOTS],
}

impl FcLock {
    /// A free flat-combining lock.
    pub fn new() -> FcLock {
        FcLock {
            engine: CachePadded::new(AtomicBool::new(false)),
            pending_hint: CachePadded::new(AtomicU32::new(0)),
            slots: std::array::from_fn(|_| Slot {
                state: AtomicU32::new(SLOT_FREE),
                op: Cell::new(None),
            }),
        }
    }

    /// Publish `op` into a free slot. `None` when every slot is taken
    /// (the caller should fall back to running inline under the lock).
    ///
    /// The returned [`PublishedOp`] guarantees — even on unwind — that
    /// the slot is cancelled or completed before the closure behind
    /// `op` can go out of scope, so a stack-borrowed op never dangles.
    pub(crate) fn publish(&self, op: OpPtr) -> Option<PublishedOp<'_>> {
        for (index, slot) in self.slots.iter().enumerate() {
            if slot
                .state
                .compare_exchange(SLOT_FREE, SLOT_CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                slot.op.set(Some(op));
                // Raise the hint before the slot turns PENDING so a
                // drain that sees the op also sees a nonzero hint.
                self.pending_hint.fetch_add(1, Ordering::Relaxed);
                slot.state.store(SLOT_PENDING, Ordering::Release);
                return Some(PublishedOp { fc: self, index, live: true });
            }
        }
        None
    }

    /// Execute every pending op.
    ///
    /// # Safety
    ///
    /// The caller must hold the mutual exclusion this `FcLock` is part
    /// of (the engine itself, or the owning `AdaptiveMutex` through
    /// whatever algorithm is current): ops are critical sections.
    pub(crate) unsafe fn drain(&self) -> DrainReport {
        let mut report = DrainReport::default();
        if self.pending_hint.load(Ordering::Relaxed) == 0 {
            // Nothing published (the common case on the uncontended
            // fast path): one load, no slot-line traffic.
            return report;
        }
        for slot in &self.slots {
            // Cheap peek before the CAS: a sparse scan is relaxed
            // loads, not RMW attempts, on the untouched slots.
            if slot.state.load(Ordering::Relaxed) != SLOT_PENDING {
                continue;
            }
            if slot
                .state
                .compare_exchange(SLOT_PENDING, SLOT_EXECUTING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            self.pending_hint.fetch_sub(1, Ordering::Relaxed);
            let Some(op) = slot.op.get() else {
                // Unreachable by construction; leave the slot parked in
                // EXECUTING rather than corrupt the protocol.
                debug_assert!(false, "pending slot without an op");
                continue;
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: caller contract + slot state machine — the
                // publisher keeps the closure alive until the slot
                // leaves EXECUTING, and the EXECUTING transition made us
                // its unique executor. Exercised by
                // `combined_ops_are_exact_and_exclusive` and
                // `publisher_rethrows_its_own_panic`.
                unsafe { (*op)() }
            }));
            match outcome {
                Ok(()) => {
                    slot.state.store(SLOT_DONE, Ordering::Release);
                    report.executed += 1;
                }
                Err(_) => {
                    slot.state.store(SLOT_PANICKED, Ordering::Release);
                    report.panicked += 1;
                }
            }
        }
        report
    }

    /// Number of slots currently holding a pending op (test-only
    /// observability for forcing the publication path).
    #[cfg(test)]
    pub(crate) fn pending_ops(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state.load(Ordering::Acquire) == SLOT_PENDING)
            .count()
    }

    /// Run `f` under the lock, letting the current holder execute it
    /// when one exists (flat combining); otherwise this thread takes
    /// the engine and combines on behalf of everyone else.
    ///
    /// Standalone use of the zoo lock; `AdaptiveMutex::with_locked`
    /// implements the same protocol against the mutex's full acquire
    /// path.
    pub fn run<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let mut result: Option<R> = None;
        {
            let mut f = Some(f);
            let mut op = || {
                if let Some(f) = f.take() {
                    result = Some(f());
                }
            };
            let op_dyn: &mut (dyn FnMut() + Send) = &mut op;
            // SAFETY: erases the borrow lifetime so the pointer can sit
            // in a slot; `PublishedOp` cancels or completes the slot
            // before `op` leaves this scope, on every path including
            // unwinds.
            let op_ptr: OpPtr = unsafe { std::mem::transmute(op_dyn) };
            match self.publish(op_ptr) {
                Some(published) => {
                    let mut spins = 0u32;
                    loop {
                        match published.outcome() {
                            SlotOutcome::Done => {
                                published.finish();
                                break;
                            }
                            SlotOutcome::Panicked => {
                                published.finish();
                                panic!("flat-combining critical section panicked");
                            }
                            SlotOutcome::Pending => {
                                if self.try_acquire() {
                                    // Become the combiner: our own op is
                                    // among the pending ones.
                                    // SAFETY: we hold the engine.
                                    unsafe { self.drain() };
                                    self.release();
                                } else {
                                    spins += 1;
                                    if spins.is_multiple_of(POLL_SPINS) {
                                        std::thread::yield_now();
                                    } else {
                                        std::hint::spin_loop();
                                    }
                                }
                            }
                        }
                    }
                }
                None => {
                    // Every slot taken: run inline under the engine and
                    // help the publishers while the data is hot.
                    self.acquire();
                    op();
                    // SAFETY: we hold the engine.
                    unsafe { self.drain() };
                    self.release();
                }
            }
        }
        match result {
            Some(r) => r,
            // Every path above either ran the op or panicked.
            None => unreachable!("flat-combining op did not run"),
        }
    }
}

impl Default for FcLock {
    fn default() -> FcLock {
        FcLock::new()
    }
}

impl RawLock for FcLock {
    fn acquire(&self) {
        let mut spins = 0u32;
        loop {
            if self.try_acquire() {
                return;
            }
            while self.engine.load(Ordering::Relaxed) {
                spins += 1;
                if spins.is_multiple_of(POLL_SPINS) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    fn try_acquire(&self) -> bool {
        !self.engine.load(Ordering::Relaxed)
            && self
                .engine
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    fn release(&self) {
        self.engine.store(false, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.engine.load(Ordering::Relaxed)
    }

    fn label(&self) -> &'static str {
        "flat-combining"
    }
}

/// A claim on a publication slot; completes or cancels the slot before
/// the published closure can go out of scope (the drop path covers
/// unwinds through the publisher).
pub(crate) struct PublishedOp<'a> {
    fc: &'a FcLock,
    index: usize,
    live: bool,
}

impl PublishedOp<'_> {
    /// Racy peek at the slot's progress.
    pub(crate) fn outcome(&self) -> SlotOutcome {
        match self.fc.slots[self.index].state.load(Ordering::Acquire) {
            SLOT_DONE => SlotOutcome::Done,
            SLOT_PANICKED => SlotOutcome::Panicked,
            _ => SlotOutcome::Pending,
        }
    }

    /// Release the slot after observing `Done` or `Panicked`.
    pub(crate) fn finish(mut self) {
        let slot = &self.fc.slots[self.index];
        debug_assert!(matches!(
            slot.state.load(Ordering::Relaxed),
            SLOT_DONE | SLOT_PANICKED
        ));
        slot.op.set(None);
        slot.state.store(SLOT_FREE, Ordering::Release);
        self.live = false;
    }
}

impl Drop for PublishedOp<'_> {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        // Unwinding with the op still published: cancel it if no
        // combiner picked it up yet, otherwise wait the combiner out.
        // Either way the closure is dead to the slots when we return.
        let slot = &self.fc.slots[self.index];
        loop {
            match slot.state.compare_exchange(
                SLOT_PENDING,
                SLOT_CLAIMED,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // We took the op back before any combiner did, so
                    // we also take back its hint count.
                    self.fc.pending_hint.fetch_sub(1, Ordering::Relaxed);
                    slot.op.set(None);
                    slot.state.store(SLOT_FREE, Ordering::Release);
                    return;
                }
                Err(SLOT_EXECUTING) => std::hint::spin_loop(),
                Err(SLOT_DONE) | Err(SLOT_PANICKED) => {
                    slot.op.set(None);
                    slot.state.store(SLOT_FREE, Ordering::Release);
                    return;
                }
                Err(other) => {
                    debug_assert!(false, "published slot in state {other}");
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn engine_exclusion_holds_under_hammering() {
        let lock = Arc::new(FcLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let inside = Arc::clone(&inside);
                std::thread::spawn(move || {
                    for _ in 0..2_000u64 {
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
    fn combined_ops_are_exact_and_exclusive() {
        let lock = Arc::new(FcLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let inside = Arc::clone(&inside);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    for i in 0..2_000u64 {
                        // Mix guard-style and combined users: both must
                        // respect the same exclusion.
                        if (t + i as usize).is_multiple_of(3) {
                            lock.acquire();
                            assert_eq!(inside.fetch_add(1, Ordering::Relaxed), 0);
                            counter.fetch_add(1, Ordering::Relaxed);
                            inside.fetch_sub(1, Ordering::Relaxed);
                            lock.release();
                        } else {
                            seen = lock.run(|| {
                                assert_eq!(inside.fetch_add(1, Ordering::Relaxed), 0);
                                let v = counter.fetch_add(1, Ordering::Relaxed) + 1;
                                inside.fetch_sub(1, Ordering::Relaxed);
                                v
                            });
                        }
                    }
                    assert!(seen <= 8 * 2_000);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 2_000);
        assert!(!lock.is_locked());
        // All slots drained back to FREE.
        for slot in &lock.slots {
            assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_FREE);
        }
    }

    #[test]
    fn publisher_rethrows_its_own_panic() {
        let lock = Arc::new(FcLock::new());
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lock.run(|| panic!("boom"));
        }))
        .expect_err("panic must surface in the publisher");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| err.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("critical section panicked") || msg.contains("boom"), "{msg}");
        // The lock is free and usable afterwards.
        assert!(!lock.is_locked());
        assert_eq!(lock.run(|| 7), 7);
        for slot in &lock.slots {
            assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_FREE);
        }
    }

    #[test]
    fn run_returns_values_from_every_thread() {
        let lock = Arc::new(FcLock::new());
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let v = lock.run(|| total.fetch_add(1, Ordering::Relaxed) + 1);
                        assert!(v >= 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(total.load(Ordering::Relaxed), 6 * 500);
    }
}

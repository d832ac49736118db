//! The waiter node of the mutex's intrusive waiter list.
//!
//! A [`WaitNode`] is one parked thread's entry in the queue: the intrusive
//! `next` link, a three-state grant/abandon word, and the thread handle to
//! unpark. Built on `std::thread::park`/`park_timeout` in the style of
//! chapter 4 of *Rust Atomics and Locks*: the status word carries the
//! synchronization (Release-flavoured CAS on grant, Acquire loads in the
//! park loop), `park` is only the efficient way to wait, and spurious
//! wakeups are filtered by re-checking the status.
//!
//! The three states ([`GrantWord`], which the async mutex's waiter nodes
//! carry too) make timed waits race-free without any lock around the
//! queue: a releaser *grants* with `WAITING -> GRANTED` and a timed-out
//! waiter *abandons* with `WAITING -> ABANDONED`; the two CASes race on the
//! same word, so exactly one side wins. A waiter that loses the abandon
//! race owns the lock (the handoff already happened); a releaser that
//! loses the grant race moves on to the next waiter.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::pad::CachePadded;

/// Rescue-poll interval for untimed waits: instead of parking
/// unboundedly, a waiter re-checks its grant word at least this often.
/// The status word stays the source of truth, so the poll changes
/// nothing semantically — it converts a *lost wakeup* (an unpark that a
/// fault, a bug, or a crashed releaser never delivered) from a permanent
/// hang into a bounded delay. An idle parked thread wakes ~20×/s, which
/// is noise; a correctly-granted thread never waits out the interval.
const RESCUE_POLL: Duration = Duration::from_millis(50);

/// Status word values.
const WAITING: u32 = 0;
const GRANTED: u32 = 1;
const ABANDONED: u32 = 2;

/// A waiter node's three-state handoff word (see the module doc). The
/// grant's AcqRel CAS pairs with the waiter's Acquire loads, making
/// everything the releaser did visible to the granted waiter.
#[derive(Debug, Default)]
pub struct GrantWord(AtomicU32);

impl GrantWord {
    /// Releaser side, `WAITING -> GRANTED`; `false` if the waiter
    /// abandoned first.
    pub fn try_grant(&self) -> bool {
        self.0.compare_exchange(WAITING, GRANTED, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Waiter side, `WAITING -> ABANDONED`; `false` if a grant won the
    /// race, in which case the caller owns the lock.
    pub fn try_abandon(&self) -> bool {
        self.0.compare_exchange(WAITING, ABANDONED, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Whether the grant has landed.
    pub fn is_granted(&self) -> bool {
        self.0.load(Ordering::Acquire) == GRANTED
    }

    /// Whether the waiter abandoned the node (queue maintenance prunes
    /// it).
    pub fn is_abandoned(&self) -> bool {
        self.0.load(Ordering::Acquire) == ABANDONED
    }
}

/// One waiter's entry in the mutex's intrusive queue.
///
/// The handoff word sits on its own [`CachePadded`] line: the parked
/// waiter polls `status` while the releaser walks the queue rewriting
/// `next` links during pruning — without the pad, every link edit would
/// bounce the line the waiter is polling (and, since nodes are heap
/// allocations, two different waiters' words could land on one line).
/// The 128-byte alignment this induces subsumes the old `align(8)`
/// requirement that keeps the low bits of a `WaitNode` pointer free for
/// the mutex's state-word flag bits.
#[derive(Debug)]
pub(crate) struct WaitNode {
    /// Intrusive link toward the *older* end of the queue (the queue is a
    /// prepend-ordered singly-linked list: head = newest, tail = oldest).
    ///
    /// Written by the enqueuing thread before the node is published and
    /// thereafter only by threads holding the queue-lock bit, so a plain
    /// `Cell` suffices (see the `Sync` safety comment).
    pub(crate) next: Cell<*const WaitNode>,
    thread: Thread,
    /// The three-state grant/abandon word (the parker state).
    pub(crate) status: CachePadded<GrantWord>,
}

// SAFETY: `next` is only written (a) by the owning thread before the node
// is published via the mutex's state-word CAS, which carries Release
// ordering, or (b) under the mutex's QUEUE_LOCKED bit, which at most one
// thread holds at a time. `status` and `thread` are Sync on their own.
unsafe impl Send for WaitNode {}
// SAFETY: as for `Send` — shared `&WaitNode` access writes `next` only
// under (a) or (b) above. Exercised by the mutex's
// `timed_and_untimed_waiters_interleave_without_loss`, where releasers
// relink nodes that other threads are parked on.
unsafe impl Sync for WaitNode {}

impl WaitNode {
    /// A node for the calling thread.
    pub(crate) fn new() -> WaitNode {
        WaitNode {
            next: Cell::new(std::ptr::null()),
            thread: std::thread::current(),
            status: CachePadded::new(GrantWord::default()),
        }
    }

    /// Try to grant the handoff and wake the waiter; returns `false` if
    /// the waiter abandoned (timed out) first. A grant without the
    /// unpark (`status.try_grant()`) leaves the waiter to notice at its
    /// next rescue poll: fault injection's lost wakeup.
    pub(crate) fn try_grant(&self) -> bool {
        let granted = self.status.try_grant();
        if granted {
            self.thread.unpark();
        }
        granted
    }

    /// Block the calling thread until granted, self-healing against
    /// lost wakeups: the park is bounded by [`RESCUE_POLL`], so a grant
    /// whose unpark never arrives is still observed at the next poll.
    pub(crate) fn wait(&self) {
        while !self.status.is_granted() {
            std::thread::park_timeout(RESCUE_POLL);
        }
    }

    /// Block until granted or `deadline` passes; returns whether the
    /// grant landed. A `false` return does *not* abandon the node — the
    /// caller must race [`GrantWord::try_abandon`] against a late grant.
    pub(crate) fn wait_deadline(&self, deadline: Instant) -> bool {
        loop {
            if self.status.is_granted() {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return self.status.is_granted();
            };
            std::thread::park_timeout(remaining);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn grant_before_wait_returns_immediately() {
        let w = WaitNode::new();
        assert!(w.try_grant());
        w.wait(); // must not hang
        assert!(w.status.is_granted());
    }

    #[test]
    fn wait_blocks_until_granted() {
        let w = Arc::new(WaitNode::new());
        let w2 = Arc::clone(&w);
        let granter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            assert!(w2.try_grant());
        });
        let t0 = std::time::Instant::now();
        w.wait();
        assert!(w.status.is_granted());
        assert!(t0.elapsed() >= Duration::from_millis(20), "returned before grant");
        granter.join().unwrap();
    }

    #[test]
    fn stale_unparks_are_filtered() {
        // A spurious unpark (permit from elsewhere) must not end the
        // wait before the grant.
        let w = Arc::new(WaitNode::new());
        let w2 = Arc::clone(&w);
        let me = std::thread::current();
        me.unpark(); // leave a stale permit
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            assert!(w2.try_grant());
        });
        w.wait();
        assert!(w.status.is_granted());
        t.join().unwrap();
    }

    #[test]
    fn grant_and_abandon_race_has_one_winner() {
        let w = WaitNode::new();
        assert!(w.status.try_abandon());
        assert!(!w.try_grant(), "grant must lose to an earlier abandon");
        assert!(w.status.is_abandoned());

        let w = WaitNode::new();
        assert!(w.try_grant());
        assert!(!w.status.try_abandon(), "abandon must lose to an earlier grant");
        assert!(w.status.is_granted());
    }

    #[test]
    fn dropped_unpark_is_rescued_by_the_poll() {
        // A grant whose unpark never arrives (lost wakeup) must still
        // end the wait — within a few rescue-poll intervals, not never.
        let w = Arc::new(WaitNode::new());
        let w2 = Arc::clone(&w);
        let granter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            assert!(w2.status.try_grant());
        });
        let t0 = std::time::Instant::now();
        w.wait();
        assert!(w.status.is_granted());
        assert!(
            t0.elapsed() < RESCUE_POLL * 4,
            "rescue poll took too long: {:?}",
            t0.elapsed()
        );
        granter.join().unwrap();
    }

    #[test]
    fn deadline_wait_times_out_without_grant() {
        let w = WaitNode::new();
        let granted = w.wait_deadline(Instant::now() + Duration::from_millis(10));
        assert!(!granted);
        assert!(w.status.try_abandon());
    }

    #[test]
    fn deadline_wait_sees_late_grant() {
        let w = Arc::new(WaitNode::new());
        let w2 = Arc::clone(&w);
        let granter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            assert!(w2.try_grant());
        });
        let granted = w.wait_deadline(Instant::now() + Duration::from_secs(5));
        assert!(granted);
        granter.join().unwrap();
    }
}

//! Native ticket lock: FIFO spinning on a grant counter.
//!
//! The native analogue of the simulator's `crates/locks/ticket.rs`:
//! an acquirer takes a ticket with one fetch-add on `next`, then spins
//! until `serving` reaches it; release is a plain store (only the
//! holder writes `serving`, so no RMW is needed). In the paper's
//! `n1·R + n2·W` terms an uncontended acquire/release pair costs one
//! RMW plus one read on acquire and one read plus one write on release
//! — but under contention every waiter polls the *same* `serving` line,
//! so each grant broadcasts an invalidation to all of them. That shared
//! polling is the price; the ticket lock's virtue is strict FIFO order
//! with two words of state and no per-waiter node to recycle.
//!
//! `next` and `serving` live on separate [`CachePadded`] lines so
//! ticket-taking traffic (writes to `next`) does not disturb the line
//! the waiters poll.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::pad::CachePadded;
use crate::raw::RawLock;

/// Spins between yields while polling `serving`.
const POLL_SPINS: u32 = 64;

/// FIFO ticket lock (native, spinning).
///
/// ```
/// use adaptive_native::{RawLock, TicketLock};
///
/// let lock = TicketLock::new();
/// lock.acquire();
/// assert!(!lock.try_acquire());
/// lock.release();
/// assert!(lock.try_acquire());
/// lock.release();
/// ```
#[derive(Debug, Default)]
pub struct TicketLock {
    /// Next ticket to hand out. RMW'd by every acquirer.
    next: CachePadded<AtomicU32>,
    /// Ticket currently allowed into the critical section. Written
    /// only by the holder; polled by every waiter.
    serving: CachePadded<AtomicU32>,
}

impl TicketLock {
    /// A free ticket lock.
    pub const fn new() -> TicketLock {
        TicketLock {
            next: CachePadded::new(AtomicU32::new(0)),
            serving: CachePadded::new(AtomicU32::new(0)),
        }
    }
}

impl RawLock for TicketLock {
    fn acquire(&self) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u32;
        while self.serving.load(Ordering::Acquire) != ticket {
            spins += 1;
            if spins.is_multiple_of(POLL_SPINS) {
                // Oversubscribed hosts need the holder scheduled to
                // make progress; burn a quantum instead of a core.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn try_acquire(&self) -> bool {
        let serving = self.serving.load(Ordering::Relaxed);
        // Free iff the next ticket to be handed out is the one being
        // served; claiming it atomically either wins the lock outright
        // or fails because someone else took a ticket first.
        self.next
            .compare_exchange(serving, serving.wrapping_add(1), Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn release(&self) {
        // Only the holder writes `serving`: plain load + store, no RMW.
        let now = self.serving.load(Ordering::Relaxed);
        self.serving.store(now.wrapping_add(1), Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.next.load(Ordering::Relaxed) != self.serving.load(Ordering::Relaxed)
    }

    fn label(&self) -> &'static str {
        "ticket"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn exclusion_holds_under_hammering() {
        let lock = Arc::new(TicketLock::new());
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
    fn try_acquire_fails_while_held_and_after_wraparound() {
        let lock = TicketLock::new();
        // Push the counters close to wraparound to check the
        // wrapping_add arithmetic.
        lock.next.store(u32::MAX, Ordering::Relaxed);
        lock.serving.store(u32::MAX, Ordering::Relaxed);
        assert!(!lock.is_locked());
        assert!(lock.try_acquire());
        assert!(lock.is_locked());
        assert!(!lock.try_acquire());
        lock.release();
        assert!(!lock.is_locked());
        assert_eq!(lock.serving.load(Ordering::Relaxed), 0);
        assert!(lock.try_acquire());
        lock.release();
    }
}

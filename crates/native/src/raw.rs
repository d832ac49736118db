//! The common surface of the native lock zoo.
//!
//! The paper's configurable lock separates *interface* from
//! *implementation* so the implementation can be swapped while threads
//! are using the object. [`RawLock`] is the native expression of that
//! split: a value-free mutual-exclusion engine ([`crate::TicketLock`],
//! [`crate::FcLock`]) that `AdaptiveMutex` can drive interchangeably,
//! and [`LockAlgorithm`] names each engine so an adaptation policy can
//! pick one at run time (`NativeDecision::SetAlgorithm`).
//!
//! Every engine follows the PR 5 cache-layout discipline: the words a
//! waiter spins on are [`crate::CachePadded`] so the only line
//! transfers left are the ones the protocol requires (DESIGN.md §13
//! prices each algorithm in the paper's `n1·R + n2·W` terms).

/// A value-free mutual-exclusion engine.
///
/// `release` must only be called by the thread (or, for a moved guard,
/// the owner) that observed `acquire`/`try_acquire` succeed; engines
/// may keep holder-local bookkeeping inside the lock that is protected
/// by the mutual exclusion itself.
pub trait RawLock: Send + Sync {
    /// Block (by spinning — every zoo engine is a spin lock) until the
    /// lock is held.
    fn acquire(&self);

    /// Acquire only if that is possible without waiting.
    fn try_acquire(&self) -> bool;

    /// Release a held lock.
    fn release(&self);

    /// Whether the lock is currently held (racy; for monitoring only).
    fn is_locked(&self) -> bool;

    /// Short label for bench rows and logs.
    fn label(&self) -> &'static str;
}

/// Sentinel for "no algorithm" in the pending-switch word.
pub(crate) const ALGO_NONE: u8 = u8::MAX;

/// Which mutual-exclusion algorithm an `AdaptiveMutex` runs on.
///
/// The default is [`LockAlgorithm::SpinPark`], the adaptive
/// spin-then-park engine whose `{spin, delay, timeout}` attributes the
/// feedback loop retunes; the others are the zoo engines a policy can
/// switch to live via `NativeDecision::SetAlgorithm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LockAlgorithm {
    /// The adaptive spin-then-park engine (test-and-set fast path,
    /// parked waiters with direct handoff, mutable waiting attributes).
    SpinPark = 0,
    /// FIFO ticket lock: two counters, bounded spinning on `serving`.
    Ticket = 1,
    /// Flat combining: a test-and-set engine plus publication slots;
    /// `AdaptiveMutex::with_locked` hands tiny critical sections to the
    /// current holder instead of bouncing the lock line.
    Combining = 2,
}

impl LockAlgorithm {
    /// Every algorithm, in switch-cycle order.
    pub const ALL: [LockAlgorithm; 3] = [
        LockAlgorithm::SpinPark,
        LockAlgorithm::Ticket,
        LockAlgorithm::Combining,
    ];

    /// Label used in bench rows and reports.
    pub fn label(self) -> &'static str {
        match self {
            LockAlgorithm::SpinPark => "spin-park",
            LockAlgorithm::Ticket => "ticket",
            LockAlgorithm::Combining => "flat-combining",
        }
    }

    /// Decode a [`LockAlgorithm::label`] string, for control-plane
    /// commands (`set-algorithm <lock> ticket`). `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<LockAlgorithm> {
        LockAlgorithm::ALL.into_iter().find(|a| a.label() == label)
    }

    /// Decode the `repr(u8)` value; `None` for out-of-range bytes
    /// (including [`ALGO_NONE`]).
    pub(crate) fn from_u8(v: u8) -> Option<LockAlgorithm> {
        match v {
            0 => Some(LockAlgorithm::SpinPark),
            1 => Some(LockAlgorithm::Ticket),
            2 => Some(LockAlgorithm::Combining),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_bytes_round_trip() {
        for algo in LockAlgorithm::ALL {
            assert_eq!(LockAlgorithm::from_u8(algo as u8), Some(algo));
        }
        assert_eq!(LockAlgorithm::from_u8(ALGO_NONE), None);
        assert_eq!(LockAlgorithm::from_u8(3), None);
    }

    #[test]
    fn labels_round_trip() {
        for algo in LockAlgorithm::ALL {
            assert_eq!(LockAlgorithm::from_label(algo.label()), Some(algo));
        }
        assert_eq!(LockAlgorithm::from_label("mcs"), None);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = LockAlgorithm::ALL.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), LockAlgorithm::ALL.len());
    }
}

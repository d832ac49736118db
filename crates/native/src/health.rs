//! The liveness frame a supervisor reads off a lock.
//!
//! [`AdaptiveMutex::health`](crate::AdaptiveMutex::health) snapshots
//! one; a supervisor (`adaptive_control::BreakerHub`) differences two
//! consecutive frames to tell a stalled lock from a busy or idle one.

/// Point-in-time health snapshot of one lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockHealth {
    /// Threads currently waiting (spinning or parked).
    pub waiting: u32,
    /// Successful acquisitions so far.
    pub acquisitions: u64,
    /// Direct handoffs so far.
    pub handoffs: u64,
    /// Whether the lock is currently held.
    pub locked: bool,
    /// Whether the waiter queue is non-empty.
    pub queued: bool,
    /// Whether the lock is poisoned (a holder panicked).
    pub poisoned: bool,
    /// Whether adaptation is currently quarantined.
    pub quarantined: bool,
    /// Adaptation-policy callbacks that have panicked so far (each one
    /// quarantined the lock from the inside). A count rather than a
    /// flag so a supervisor can detect *repeated* policy panics across
    /// polls and escalate instead of treating them as one incident.
    pub policy_panics: u64,
    /// Acquisitions between monitor samples right now (`0`: the monitor
    /// is off). Read-only: on a self-paced lock the feedback kernel
    /// moves it between 2 and 64.
    pub sample_period: u64,
}

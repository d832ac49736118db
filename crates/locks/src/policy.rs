//! Waiting policies — the mutable attributes of a (re)configurable lock.
//!
//! Section 5.1's attribute table maps `{spin-time, delay-time,
//! sleep-time, timeout}` values onto resulting lock behaviours. The
//! `spin` field is the paper's `no-of-spins`: how many probes a waiter
//! makes before it considers sleeping.

use butterfly_sim::Duration;

/// The four mutable attributes of a lock's waiting policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingPolicy {
    /// `spin-time`: number of probe iterations before sleeping is
    /// considered (`u32::MAX` ≈ "pure spin").
    pub spin: u32,
    /// `delay-time`: busy-wait backoff inserted between probes, growing
    /// linearly with the probe count (0 = tight spinning).
    pub delay: Duration,
    /// `sleep-time`: when nonzero, a waiter that exhausts its spins
    /// blocks; the value bounds each sleep episode (`Duration::MAX`-like
    /// large values mean "sleep until granted").
    pub sleep: Duration,
    /// `timeout`: when nonzero, bounds a *conditional* acquire
    /// ([`crate::ReconfigurableLock::lock_timeout`]); plain `lock()`
    /// ignores it.
    pub timeout: Duration,
}

/// "Sleep until granted" sentinel for [`WaitingPolicy::sleep`].
pub const SLEEP_FOREVER: Duration = Duration(u64::MAX / 4);

/// The behaviours of Section 5.1's attribute table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Spin until granted.
    PureSpin,
    /// Spin with backoff delays until granted.
    SpinBackoff,
    /// Block immediately, wake on grant.
    PureSleep,
    /// Bounded overall wait (timeout attribute set).
    ConditionalSleepSpin,
    /// Spin a bounded number of probes, then sleep (combined lock).
    MixedSleepSpin,
}

impl WaitingPolicy {
    /// `spin=n, delay=0, sleep=0, timeout=0` — pure spin.
    pub fn pure_spin() -> WaitingPolicy {
        WaitingPolicy {
            spin: u32::MAX,
            delay: Duration::ZERO,
            sleep: Duration::ZERO,
            timeout: Duration::ZERO,
        }
    }

    /// `spin=n, delay=n` — spin with backoff.
    pub fn backoff(delay: Duration) -> WaitingPolicy {
        WaitingPolicy {
            spin: u32::MAX,
            delay,
            sleep: Duration::ZERO,
            timeout: Duration::ZERO,
        }
    }

    /// `spin=0, sleep=n` — pure sleep (blocking).
    pub fn pure_blocking() -> WaitingPolicy {
        WaitingPolicy {
            spin: 0,
            delay: Duration::ZERO,
            sleep: SLEEP_FOREVER,
            timeout: Duration::ZERO,
        }
    }

    /// Spin `spins` probes, then sleep until granted — the paper's
    /// *combined* lock ("spins 10 times initially before blocking").
    /// Each probe carries a delay on the order of a remote memory
    /// reference, so the spin count translates into waiting time the way
    /// it did on the Butterfly (the paper's mixed sleep/spin row sets
    /// spin-time, delay-time, and sleep-time together).
    pub fn combined(spins: u32) -> WaitingPolicy {
        WaitingPolicy {
            spin: spins,
            delay: Duration::micros(4),
            sleep: SLEEP_FOREVER,
            timeout: Duration::ZERO,
        }
    }

    /// Full mixed policy: spin with backoff, sleep in bounded episodes,
    /// re-spin after each.
    pub fn mixed(spins: u32, delay: Duration, sleep: Duration) -> WaitingPolicy {
        WaitingPolicy {
            spin: spins,
            delay,
            sleep,
            timeout: Duration::ZERO,
        }
    }

    /// Add a conditional-acquire bound.
    pub fn with_timeout(mut self, timeout: Duration) -> WaitingPolicy {
        self.timeout = timeout;
        self
    }

    /// Classify per the paper's attribute table.
    pub fn kind(&self) -> LockKind {
        if self.timeout > Duration::ZERO {
            LockKind::ConditionalSleepSpin
        } else if self.sleep == Duration::ZERO {
            if self.delay == Duration::ZERO {
                LockKind::PureSpin
            } else {
                LockKind::SpinBackoff
            }
        } else if self.spin == 0 {
            LockKind::PureSleep
        } else {
            LockKind::MixedSleepSpin
        }
    }

    /// Whether a waiter under this policy ever blocks.
    pub fn blocks(&self) -> bool {
        self.sleep > Duration::ZERO
    }

    /// Compact descriptor for transition logs.
    pub fn descriptor(&self) -> String {
        match self.kind() {
            LockKind::PureSpin => "spin".to_string(),
            LockKind::SpinBackoff => format!("spin+backoff({})", self.delay),
            LockKind::PureSleep => "blocking".to_string(),
            LockKind::ConditionalSleepSpin => format!("conditional({})", self.timeout),
            LockKind::MixedSleepSpin => format!("combined(spin={})", self.spin),
        }
    }
}

impl Default for WaitingPolicy {
    /// The adaptive lock's initial configuration: a moderate combined
    /// policy (spin a little, then block).
    fn default() -> Self {
        WaitingPolicy::combined(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_table() {
        assert_eq!(WaitingPolicy::pure_spin().kind(), LockKind::PureSpin);
        assert_eq!(
            WaitingPolicy::backoff(Duration::micros(2)).kind(),
            LockKind::SpinBackoff
        );
        assert_eq!(WaitingPolicy::pure_blocking().kind(), LockKind::PureSleep);
        assert_eq!(WaitingPolicy::combined(10).kind(), LockKind::MixedSleepSpin);
        assert_eq!(
            WaitingPolicy::mixed(5, Duration::micros(1), Duration::micros(100)).kind(),
            LockKind::MixedSleepSpin
        );
        assert_eq!(
            WaitingPolicy::pure_spin()
                .with_timeout(Duration::millis(1))
                .kind(),
            LockKind::ConditionalSleepSpin
        );
    }

    #[test]
    fn blocking_predicate() {
        assert!(!WaitingPolicy::pure_spin().blocks());
        assert!(WaitingPolicy::pure_blocking().blocks());
        assert!(WaitingPolicy::combined(3).blocks());
    }

    #[test]
    fn descriptors_are_informative() {
        assert_eq!(WaitingPolicy::pure_spin().descriptor(), "spin");
        assert_eq!(WaitingPolicy::pure_blocking().descriptor(), "blocking");
        assert_eq!(WaitingPolicy::combined(10).descriptor(), "combined(spin=10)");
    }

    #[test]
    fn default_is_moderate_combined() {
        let p = WaitingPolicy::default();
        assert_eq!(p.kind(), LockKind::MixedSleepSpin);
        assert_eq!(p.spin, 10);
    }
}

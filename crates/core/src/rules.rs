//! The unit-free decision rules adaptation policies share. A policy
//! keeps its signal (waiter depth, worst wait, sample gap), its
//! constants and its decision type; the rule is written once, here.

/// What [`SpinLadder::step`] tells the lock to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinStep {
    /// No waiters: spin until granted (lowest-latency handoff).
    Forever,
    /// Spins have decayed to zero: park immediately.
    Block,
    /// Spin this many probes, then park.
    Spins(u32),
}

/// The paper's `simple-adapt` rule:
///
/// ```text
/// IF   waiting == 0                 -> configure pure spin
/// ELIF waiting <= Waiting-Threshold -> no-of-spins += n
/// ELSE                              -> no-of-spins -= 2n
/// IF   no-of-spins <= 0             -> configure pure blocking
/// ```
///
/// `Waiting-Threshold` and `n` depend on the locking pattern and
/// critical-section length; the paper leaves their relationship to
/// future work, so each policy passes its own. Spins never exceed `max`.
///
/// Re-entry from pure blocking: once spins have decayed to zero, a light
/// sample re-enters the combined configuration at `start` (the count a
/// fresh lock starts with) rather than creeping up from `n`. Growing
/// from `n` would emit a barely-spinning combined policy and then a
/// reconfiguration per sample while it climbs — exactly the
/// configuration thrash Section 5 adapts to avoid.
#[derive(Debug, Clone)]
pub struct SpinLadder {
    threshold: u64,
    n: u32,
    start: u32,
    max: u32,
    spins: i64,
}

impl SpinLadder {
    /// Ladder cutting spins above `threshold` waiters, stepping by `n`,
    /// starting (and re-entering from blocking) at `start`, capped at
    /// `max`.
    pub fn new(threshold: u64, n: u32, start: u32, max: u32) -> SpinLadder {
        SpinLadder { threshold, n, start, max, spins: i64::from(start) }
    }

    /// Current nominal spin count.
    pub fn spins(&self) -> i64 {
        self.spins
    }

    /// Feed one sampled waiter count.
    pub fn step(&mut self, waiting: u64) -> SpinStep {
        if waiting == 0 {
            return SpinStep::Forever;
        }
        let (n, max) = (i64::from(self.n), i64::from(self.max));
        if waiting > self.threshold {
            self.spins -= 2 * n;
        } else if self.spins == 0 {
            self.spins = i64::from(self.start).min(max);
        } else {
            self.spins = (self.spins + n).min(max);
        }
        if self.spins <= 0 {
            self.spins = 0;
            SpinStep::Block
        } else {
            SpinStep::Spins(self.spins as u32)
        }
    }
}

/// A two-state switch with hysteresis: from `base` it moves to
/// `engaged` after `patience` consecutive hot samples, and back after
/// `patience` consecutive calm ones. A sample that does not argue for
/// leaving the current state restarts the streak, and so does a switch.
///
/// A switch may start in any state; every state other than `base` leaves
/// for `base` on calm samples.
#[derive(Debug, Clone)]
pub struct Hysteresis<S> {
    base: S,
    engaged: S,
    current: S,
    patience: u32,
    streak: u32,
}

impl<S: Copy + PartialEq> Hysteresis<S> {
    /// Switch between `base` and `engaged`, currently in `current`,
    /// needing `patience` (at least 1) samples in a row to move.
    pub fn new(base: S, engaged: S, current: S, patience: u32) -> Hysteresis<S> {
        Hysteresis { base, engaged, current, patience: patience.max(1), streak: 0 }
    }

    /// The state the switch is in.
    pub fn current(&self) -> S {
        self.current
    }

    /// Feed one sample; returns the new state if it switches. `hot`
    /// argues for `engaged` (read in `base`), `calm` for `base` (read
    /// elsewhere).
    pub fn step(&mut self, hot: bool, calm: bool) -> Option<S> {
        let at_base = self.current == self.base;
        let toward = if at_base { hot } else { calm };
        self.streak = if toward { self.streak + 1 } else { 0 };
        if self.streak < self.patience {
            return None;
        }
        self.streak = 0;
        self.current = if at_base { self.engaged } else { self.base };
        Some(self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The policies' own tests drive both rules through their adaptors;
    // these cover what no adaptor reaches.

    #[test]
    fn ladder_never_exceeds_max_even_on_reentry() {
        let mut l = SpinLadder::new(3, 10, 20, 12);
        assert_eq!(l.step(1), SpinStep::Spins(12));
        assert_eq!(l.step(9), SpinStep::Block);
        assert_eq!(l.step(1), SpinStep::Spins(12));
    }

    #[test]
    fn hysteresis_clamps_patience_and_leaves_any_other_state_for_base() {
        let mut h = Hysteresis::new('b', 'e', 'x', 0);
        assert_eq!(h.step(true, false), None, "a hot sample does not leave 'x'");
        assert_eq!(h.step(false, true), Some('b'));
        assert_eq!(h.step(true, false), Some('e'));
    }
}

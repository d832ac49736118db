//! Built-in monitoring for adaptive objects.
//!
//! The paper's monitor module "senses changes in those object
//! characteristics that are required for reconfiguration" and delivers
//! them to the adaptation policy. Two knobs govern the cost/quality
//! trade-off (Section 3): the **diversity factor** (how many distinct
//! state variables are sensed) and the **sampling rate** (how often).
//! [`SamplingGate`] implements the rate ("sampled once during every other
//! unlock operation" in the TSP experiments is `SamplingGate::every(2)`).
//! Both gates here hold a *fixed* period. A rate that the feedback loop
//! itself moves — backing off while its decisions change nothing — is
//! [`GuardedLoop::period`](crate::GuardedLoop::period).

use std::sync::atomic::{AtomicU64, Ordering};

/// A sampling cadence, classified once at construction so the hot path
/// never pays a runtime divide: power-of-two periods (the paper's
/// every-other-unlock `2` included) reduce to a mask, the static-object
/// sentinels (`0`, `u64::MAX`) to a constant `false`. Stateless — the
/// caller brings the event count; [`SamplingGate`] adds its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleGate {
    /// Never fires (period `0` or `u64::MAX`: a fixed-policy object).
    Never,
    /// Power-of-two period `p`, held as `p - 1`: `count & (p - 1) == 0`.
    Mask(u64),
    /// Arbitrary period: one integer divide per gate event.
    Modulo(u64),
}

impl SampleGate {
    /// Classify `period`.
    pub fn new(period: u64) -> SampleGate {
        match period {
            0 | u64::MAX => SampleGate::Never,
            p if p.is_power_of_two() => SampleGate::Mask(p - 1),
            p => SampleGate::Modulo(p),
        }
    }

    /// The period this gate was classified from (`0`: never fires).
    pub fn period(self) -> u64 {
        match self {
            SampleGate::Never => 0,
            SampleGate::Mask(m) => m + 1,
            SampleGate::Modulo(p) => p,
        }
    }

    /// Whether the `count`-th event of its stream is a sample.
    #[inline]
    pub fn fires(self, count: u64) -> bool {
        match self {
            SampleGate::Never => false,
            SampleGate::Mask(m) => count & m == 0,
            SampleGate::Modulo(p) => count.is_multiple_of(p),
        }
    }
}

/// Event-count based sampling: fires once every `period` events.
///
/// Thread-safe and wait-free; the counter lives on the host, so a gate
/// check costs nothing in simulated time (the *sensing it gates* is what
/// gets charged).
#[derive(Debug)]
pub struct SamplingGate {
    period: u64,
    gate: SampleGate,
    counter: AtomicU64,
}

impl SamplingGate {
    /// A gate firing every `period`-th event (period 1 = every event).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn every(period: u64) -> SamplingGate {
        assert!(period > 0, "sampling period must be positive");
        SamplingGate {
            period,
            // Events count from 0 here, so event 0 fires for every period
            // — even `u64::MAX`, which `SampleGate::new` reads as "never".
            gate: if period == u64::MAX { SampleGate::Modulo(period) } else { SampleGate::new(period) },
            counter: AtomicU64::new(0),
        }
    }

    /// Record one event; returns `true` when this event should be
    /// sampled. The first event of each period fires, so a freshly
    /// created gate fires on the first event.
    pub fn tick(&self) -> bool {
        self.gate.fires(self.counter.fetch_add(1, Ordering::Relaxed))
    }

    /// Configured period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Events seen so far.
    pub fn events(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.events().div_ceil(self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_every_2_fires_on_alternate_events() {
        let g = SamplingGate::every(2);
        let fired: Vec<bool> = (0..6).map(|_| g.tick()).collect();
        assert_eq!(fired, vec![true, false, true, false, true, false]);
        assert_eq!(g.events(), 6);
        assert_eq!(g.samples(), 3);
        assert_eq!(g.period(), 2);
    }

    #[test]
    fn gate_every_1_always_fires() {
        let g = SamplingGate::every(1);
        assert!((0..5).all(|_| g.tick()));
    }

    #[test]
    fn gate_agrees_with_plain_modulo_for_every_period_class() {
        for period in [1u64, 2, 3, 7, 8, 1 << 40, u64::MAX - 1, u64::MAX] {
            let g = SamplingGate::every(period);
            for n in 0..20u64 {
                assert_eq!(g.tick(), n.is_multiple_of(period), "period {period}, event {n}");
            }
        }
    }

    #[test]
    fn stateless_gate_classifies_sentinels_masks_and_divides() {
        assert_eq!(SampleGate::new(0), SampleGate::Never);
        assert_eq!(SampleGate::new(u64::MAX), SampleGate::Never);
        assert_eq!(SampleGate::new(2), SampleGate::Mask(1));
        assert_eq!(SampleGate::new(6), SampleGate::Modulo(6));
        let periods = [0, 1, 2, 6, 64, u64::MAX].map(|p| SampleGate::new(p).period());
        assert_eq!(periods, [0, 1, 2, 6, 64, 0]);
        assert!((1..100).all(|n| !SampleGate::Never.fires(n)));
        let fired: Vec<u64> = (1..=12).filter(|&n| SampleGate::new(4).fires(n)).collect();
        assert_eq!(fired, vec![4, 8, 12]);
        let fired: Vec<u64> = (1..=12).filter(|&n| SampleGate::new(5).fires(n)).collect();
        assert_eq!(fired, vec![5, 10]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = SamplingGate::every(0);
    }
}

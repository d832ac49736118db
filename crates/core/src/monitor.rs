//! Built-in monitoring for adaptive objects.
//!
//! The paper's monitor module "senses changes in those object
//! characteristics that are required for reconfiguration" and delivers
//! them to the adaptation policy. Two knobs govern the cost/quality
//! trade-off (Section 3): the **diversity factor** (how many distinct
//! state variables are sensed) and the **sampling rate** (how often).
//! [`SamplingGate`] implements the rate ("sampled once during every other
//! unlock operation" in the TSP experiments is `SamplingGate::every(2)`)
//! at a *fixed* period, for the simulator's lock. Every lock on real
//! threads and tasks samples at the rate the feedback loop itself moves
//! — backing off while its decisions change nothing —
//! [`GuardedLoop::period`](crate::GuardedLoop::period), and a static lock
//! never samples.

use std::sync::atomic::{AtomicU64, Ordering};

/// Event-count based sampling: fires once every `period` events.
///
/// Thread-safe and wait-free; the counter lives on the host, so a gate
/// check costs nothing in simulated time (the *sensing it gates* is what
/// gets charged).
#[derive(Debug)]
pub struct SamplingGate {
    period: u64,
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
        SamplingGate { period, counter: AtomicU64::new(0) }
    }

    /// Record one event; returns `true` when this event should be
    /// sampled. The first event of each period fires, so a freshly
    /// created gate fires on the first event.
    pub fn tick(&self) -> bool {
        self.counter.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.period)
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
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = SamplingGate::every(0);
    }
}

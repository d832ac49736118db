//! The hot-shard adaptation policy.
//!
//! Shards under a Zipfian workload are not equal: a handful absorb
//! most of the traffic while the long tail sits nearly idle. One lock
//! configuration cannot serve both — which is the paper's thesis, per
//! object. [`HotShardPolicy`] is the per-shard feedback loop that makes
//! the divergence happen. It sees what the shard lock sees, and since a
//! `get` reads the shard's cell table without the lock, and an
//! `increment` of a present key adds to its value word with a CAS,
//! that is `put`s, inserts and closures (`update`, `read`, `scan`
//! visits): a shard that is only read or counted into, however often,
//! stays cold here, and pays nothing for it, because nobody waits for
//! its lock.
//!
//! * **Cold / warm shards** ride the paper's `simple-adapt` on the
//!   spin-park engine, tuning the spin count to the observed waiting
//!   level (an idle shard drifts toward pure spin; a mildly busy one
//!   toward park-early).
//! * **Hot shards** migrate to the **flat-combining** engine. Every
//!   locked store op goes through `with_locked`, so on this engine
//!   queued ops are *batched*: one combiner executes the whole
//!   wait-list's ops in a single lock tenure instead of paying a
//!   handoff per op. That is the batching layer, implemented as
//!   a lock engine choice rather than extra queueing code.
//! * Sustained calm migrates back to spin-park, so a shard whose keys
//!   went cold stops paying the combining indirection.
//!
//! ## How heat is detected
//!
//! Two signals, either sufficient, `patience` consecutive samples of
//! hysteresis in both directions:
//!
//! 1. **Queue depth**: `waiting ≥ high_water` at a sample. Direct
//!    contention evidence — decisive on multiprocessor hosts where
//!    waiters pile up while a holder runs elsewhere.
//! 2. **Sample rate**: the feedback loop delivers one observation per
//!    `N` acquisitions, and says which `N` with each one
//!    ([`NativeObservation::acquisitions`]: 2 at first, up to 64 once
//!    the lock's monitor has backed off), so the *gap between samples*,
//!    scaled to two acquisitions, is inversely proportional to the
//!    shard's locked traffic. An EWMA of that gap below
//!    [`HOT_SAMPLE_GAP_NANOS`] marks the shard hot even when queues
//!    never form — the regime of an oversubscribed host, where the
//!    single runnable holder means `waiting` stays 0 on exactly the
//!    shards doing all the work, and contention appears only as
//!    preemption convoys. Rate is the signal that *precedes* convoys.
//!
//! Calm is the conjunction: a near-empty queue *and* a sample gap at
//! least eight times the hot threshold.

use std::time::Instant;

use adaptive_core::{AdaptationPolicy, Hysteresis};
use adaptive_native::{
    LockAlgorithm, NativeDecision, NativeObservation, NativeSimpleAdapt,
};

/// EWMA sample gap at or below which a shard counts as hot (30µs per
/// two acquisitions ≈ tens of thousands of acquisitions per second).
/// Deliberately tight: under Zipfian service load the *hot* shard's
/// sample gap sits well under this while merely-busy shards sit a few
/// multiples above it, so only genuinely hot shards pay the batching
/// migration.
pub const HOT_SAMPLE_GAP_NANOS: u64 = 30_000;

/// Calm needs the EWMA gap at or above this multiple of the hot gap.
const COLD_GAP_FACTOR: u64 = 8;

/// Gaps are clamped here before entering the EWMA so one long idle
/// period can't poison the average for thousands of samples.
const GAP_CLAMP_NANOS: u64 = 1_000_000_000;

/// Per-shard policy: `simple-adapt` attribute tuning while cold,
/// flat-combining write batching while hot. See the module docs.
#[derive(Debug, Clone)]
pub struct HotShardPolicy {
    /// Waiting level that marks a shard hot.
    high_water: u64,
    tuner: NativeSimpleAdapt,
    engine: Hysteresis<LockAlgorithm>,
    last_sample: Option<Instant>,
    ewma_gap_nanos: u64,
}

impl HotShardPolicy {
    /// Policy with the given hot threshold and migration patience.
    pub fn new(high_water: u64, patience: u32) -> HotShardPolicy {
        HotShardPolicy::starting(high_water, patience, LockAlgorithm::SpinPark)
    }

    /// Policy whose belief starts at `algo` — for shards born from a
    /// split, which inherit the parent's installed engine instead of
    /// re-paying cold-start detection. A policy born on a non-spin-park
    /// engine seeds its gap EWMA *hot*: the parent's traffic justified
    /// the engine, so the child must see sustained calm (not just its
    /// first few samples) before reverting.
    pub fn starting(high_water: u64, patience: u32, algo: LockAlgorithm) -> HotShardPolicy {
        let ewma = if algo == LockAlgorithm::SpinPark {
            GAP_CLAMP_NANOS
        } else {
            HOT_SAMPLE_GAP_NANOS
        };
        let (spin_park, combining) = (LockAlgorithm::SpinPark, LockAlgorithm::Combining);
        HotShardPolicy {
            high_water: high_water.max(1),
            tuner: NativeSimpleAdapt::new(2, 32),
            engine: Hysteresis::new(spin_park, combining, algo, patience),
            last_sample: None,
            ewma_gap_nanos: ewma,
        }
    }

    /// The engine this policy currently believes is installed.
    pub fn algorithm(&self) -> LockAlgorithm {
        self.engine.current()
    }

    /// Smoothed nanoseconds between feedback-loop samples.
    pub fn ewma_gap_nanos(&self) -> u64 {
        self.ewma_gap_nanos
    }

    /// [`AdaptationPolicy::decide`] with the inter-sample gap supplied
    /// by the caller instead of read from the wall clock — the
    /// deterministic entry point for tests and simulations.
    pub fn decide_with_gap(
        &mut self,
        obs: NativeObservation,
        gap_nanos: u64,
    ) -> Option<NativeDecision> {
        let gap = gap_nanos.min(GAP_CLAMP_NANOS);
        self.ewma_gap_nanos = (self.ewma_gap_nanos / 2).saturating_add(gap / 2);
        let busy = obs.waiting >= self.high_water || self.ewma_gap_nanos <= HOT_SAMPLE_GAP_NANOS;
        // Busy reads the smoothed gap (heat must be sustained), but
        // calm reads the *raw* gap: on a saturated host one scheduler
        // hiccup puts a multi-millisecond gap into the EWMA, which then
        // reads "idle" for several samples even though traffic never
        // stopped — and the engine flaps. A raw-gap streak is immune:
        // the next on-rate sample resets it, while a genuinely quiet
        // shard stretches every gap and passes `patience` in a row.
        let calm = obs.waiting <= 1 && gap >= HOT_SAMPLE_GAP_NANOS * COLD_GAP_FACTOR;
        match self.engine.step(busy, calm) {
            Some(algo) => Some(NativeDecision::SetAlgorithm(algo)),
            None if self.algorithm() == LockAlgorithm::SpinPark => self.tuner.decide(obs),
            None => None,
        }
    }
}

impl AdaptationPolicy<NativeObservation> for HotShardPolicy {
    type Decision = NativeDecision;

    fn decide(&mut self, obs: NativeObservation) -> Option<NativeDecision> {
        let now = Instant::now();
        let gap = match self.last_sample {
            Some(prev) => u64::try_from((now - prev).as_nanos()).unwrap_or(u64::MAX),
            None => GAP_CLAMP_NANOS,
        };
        self.last_sample = Some(now);
        // The thresholds are in nanoseconds per two acquisitions, the
        // cadence they were tuned at; a sample that stands for more
        // spans proportionally more time at the same write rate.
        self.decide_with_gap(obs, gap.saturating_mul(2) / obs.acquisitions.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALM_GAP: u64 = HOT_SAMPLE_GAP_NANOS * COLD_GAP_FACTOR * 4;
    const WARM_GAP: u64 = HOT_SAMPLE_GAP_NANOS * 3;

    #[test]
    fn sustained_queueing_batches_and_sustained_calm_unbatches() {
        let mut p = HotShardPolicy::new(3, 2);
        assert_eq!(p.algorithm(), LockAlgorithm::SpinPark);
        // One hot sample is not enough (gap is calm; waiting carries it).
        assert!(p.decide_with_gap(NativeObservation::of(5), CALM_GAP).is_some());
        assert_eq!(p.algorithm(), LockAlgorithm::SpinPark);
        // Second consecutive hot sample migrates to combining.
        assert_eq!(
            p.decide_with_gap(NativeObservation::of(4), CALM_GAP),
            Some(NativeDecision::SetAlgorithm(LockAlgorithm::Combining))
        );
        assert_eq!(p.algorithm(), LockAlgorithm::Combining);
        // Still busy: stays batched.
        assert_eq!(p.decide_with_gap(NativeObservation::of(4), CALM_GAP), None);
        assert_eq!(p.decide_with_gap(NativeObservation::of(2), CALM_GAP), None);
        // Calm twice in a row: back to spin-park.
        assert_eq!(p.decide_with_gap(NativeObservation::of(1), CALM_GAP), None);
        assert_eq!(
            p.decide_with_gap(NativeObservation::of(0), CALM_GAP),
            Some(NativeDecision::SetAlgorithm(LockAlgorithm::SpinPark))
        );
        assert_eq!(p.algorithm(), LockAlgorithm::SpinPark);
    }

    #[test]
    fn a_fast_sample_rate_alone_marks_a_shard_hot() {
        // waiting stays 0 the whole time — the oversubscribed-host
        // regime — but samples arrive at half the hot gap, so the EWMA
        // sinks under the threshold and the shard batches anyway.
        let hot_gap = HOT_SAMPLE_GAP_NANOS / 2;
        let mut p = HotShardPolicy::new(64, 2);
        let mut switched_at = None;
        for i in 0..24 {
            if let Some(NativeDecision::SetAlgorithm(LockAlgorithm::Combining)) =
                p.decide_with_gap(NativeObservation::of(0), hot_gap)
            {
                switched_at = Some(i);
                break;
            }
        }
        assert!(switched_at.is_some(), "rate heat never fired: ewma={}", p.ewma_gap_nanos());
        assert_eq!(p.algorithm(), LockAlgorithm::Combining);
        // A busy shard must NOT unbatch just because queues are empty:
        // gaps stay hot, so calm never accumulates.
        for _ in 0..8 {
            assert_eq!(p.decide_with_gap(NativeObservation::of(0), hot_gap), None);
        }
        assert_eq!(p.algorithm(), LockAlgorithm::Combining);
        // Traffic stops: long gaps drain the EWMA and it unbatches.
        let mut reverted = false;
        for _ in 0..12 {
            if p.decide_with_gap(NativeObservation::of(0), CALM_GAP)
                == Some(NativeDecision::SetAlgorithm(LockAlgorithm::SpinPark))
            {
                reverted = true;
                break;
            }
        }
        assert!(reverted, "a cooled shard must return to spin-park");
    }

    #[test]
    fn a_cool_sample_resets_the_hot_streak() {
        let mut p = HotShardPolicy::new(3, 2);
        assert!(p.decide_with_gap(NativeObservation::of(5), CALM_GAP).is_some());
        // Cool in both signals: streak restarts, attribute tuning runs.
        assert!(
            p.decide_with_gap(NativeObservation::of(0), CALM_GAP).is_some(),
            "cool sample tunes attributes"
        );
        assert!(p.decide_with_gap(NativeObservation::of(5), CALM_GAP).is_some());
        assert_eq!(p.algorithm(), LockAlgorithm::SpinPark, "streak must restart");
    }

    #[test]
    fn warm_middle_ground_neither_batches_nor_flaps() {
        // Gaps between hot and calm with shallow queues: the policy
        // stays on spin-park and keeps tuning attributes.
        let mut p = HotShardPolicy::new(3, 2);
        for _ in 0..16 {
            p.decide_with_gap(NativeObservation::of(1), WARM_GAP);
            assert_eq!(p.algorithm(), LockAlgorithm::SpinPark);
        }
    }

    #[test]
    fn cold_shards_keep_tuning_attributes() {
        let mut p = HotShardPolicy::new(8, 4);
        // An idle shard gets the pure-spin decision from simple-adapt.
        assert_eq!(
            p.decide_with_gap(NativeObservation::of(0), CALM_GAP),
            Some(NativeDecision::PureSpin)
        );
    }

    #[test]
    fn a_policy_born_batched_does_not_instantly_revert() {
        // A split child inherits the hot parent's combining engine; its
        // seeded-hot EWMA means a couple of empty-queue samples (the
        // child's first moments, before traffic lands) must not bounce
        // it back to spin-park.
        let mut p = HotShardPolicy::starting(3, 2, LockAlgorithm::Combining);
        assert_eq!(p.algorithm(), LockAlgorithm::Combining);
        for _ in 0..4 {
            assert_eq!(
                p.decide_with_gap(NativeObservation::of(0), HOT_SAMPLE_GAP_NANOS),
                None
            );
        }
        assert_eq!(p.algorithm(), LockAlgorithm::Combining);
        // Sustained real calm still reverts it eventually.
        let mut reverted = false;
        for _ in 0..16 {
            if p.decide_with_gap(NativeObservation::of(0), CALM_GAP)
                == Some(NativeDecision::SetAlgorithm(LockAlgorithm::SpinPark))
            {
                reverted = true;
                break;
            }
        }
        assert!(reverted, "an inherited engine must still cool down: ewma={}", p.ewma_gap_nanos());
    }

    #[test]
    fn the_wall_clock_entry_point_tracks_real_gaps() {
        let mut p = HotShardPolicy::new(64, 2);
        // Rapid back-to-back calls: real gaps are nanoseconds, so the
        // EWMA collapses below the hot threshold and the shard batches.
        let mut batched = false;
        for _ in 0..24 {
            if p.decide(NativeObservation::of(0))
                == Some(NativeDecision::SetAlgorithm(LockAlgorithm::Combining))
            {
                batched = true;
                break;
            }
        }
        assert!(batched, "back-to-back samples must read as heat: ewma={}", p.ewma_gap_nanos());
    }
}

//! The hardened feedback kernel: one [`FeedbackLoop`] that many threads
//! may sample at once and that survives its own policy.
//!
//! A closely-coupled loop runs inline in the adaptive object's methods,
//! so on a real multiprocessor several releasing threads reach it
//! together, and a user policy that panics would unwind through a lock
//! release. [`GuardedLoop`] is the substrate-independent answer shared
//! by the real-thread and the async adaptive mutex: a busy flag admits
//! one sampler and the rest *skip* (the loop never adds contention to
//! the object it tunes); observe, decide and apply run under
//! `catch_unwind`; a panic starts a quarantine of
//! [`QUARANTINE_BASE_TICKS`]` << level` swallowed samples, after which
//! adaptation resumes *on probation* and the level is forgiven only
//! after [`PROBATION_DECIDES`] clean decisions. Counters, and the snap
//! to the object's safe static configuration, stay with the caller,
//! steered by the [`Sampled`] outcome.
//!
//! The loop also owns its own *sampling period* — the paper's monitor
//! has "a sampling rate", and the rate is an attribute like any other.
//! [`GuardedLoop::period`] starts at [`SAMPLE_PERIOD_FLOOR`], doubles up
//! to [`SAMPLE_PERIOD_CEILING`] after every decision that changed
//! nothing (the policy re-affirmed the configuration it installed
//! earlier, or had no decision), and snaps back to the floor on a
//! change of regime: a decision that changed an attribute, or any
//! [`Sampled::Panicked`] / [`Sampled::CoolingDown`] /
//! [`Sampled::Reenabled`] outcome, so a quarantine sentence runs down at
//! the floor cadence. A [`Sampled::Skipped`] sample leaves it alone. The
//! object reads the period when its gate fires; one that was built with
//! an explicit period ignores it.

#![allow(unsafe_code)] // the policy slot behind the busy flag

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use crate::feedback::FeedbackLoop;
use crate::policy::AdaptationPolicy;

/// Samples swallowed by the first quarantine; each further one doubles
/// it, up to `QUARANTINE_BASE_TICKS << QUARANTINE_MAX_SHIFT`.
pub const QUARANTINE_BASE_TICKS: u64 = 8;
/// Cap on the quarantine backoff exponent.
pub const QUARANTINE_MAX_SHIFT: u32 = 10;
/// Clean decisions after a re-enable before the backoff level resets.
pub const PROBATION_DECIDES: u64 = 64;
/// Shortest sampling period, in gate events: the paper's "once during
/// every other unlock". Where the cadence starts, and where it returns
/// on a change of regime.
pub const SAMPLE_PERIOD_FLOOR: u64 = 2;
/// Longest sampling period the back-off reaches.
pub const SAMPLE_PERIOD_CEILING: u64 = 64;

/// What one [`GuardedLoop::sample`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampled {
    /// Another thread was running the loop; this sample was dropped.
    Skipped,
    /// Quarantined: the sample was swallowed by the countdown.
    CoolingDown,
    /// Ran the quarantine down: re-enabled, on probation. A heal.
    Reenabled,
    /// The policy ran cleanly (and any decision was applied).
    Decided,
    /// Observe, decide or apply panicked. The loop has quarantined
    /// itself; the caller snaps the object to its safe configuration.
    Panicked,
}

/// A [`FeedbackLoop`] behind a non-blocking single-observer guard, with
/// panic containment and the quarantine/probation ladder.
pub struct GuardedLoop<P> {
    /// Guards `inner`: samplers skip rather than contend.
    busy: AtomicBool,
    /// Samples still to swallow (`0` = enabled). Counted down under
    /// `busy`; `quarantine` and `heal` write it from any thread.
    ticks: AtomicU64,
    /// Backoff exponent for the *next* quarantine.
    level: AtomicU32,
    /// Clean decisions remaining until `level` resets.
    probation: AtomicU64,
    /// Gate events between samples (see the module doc). Written under
    /// `busy`, read by whoever re-arms the object's gate.
    period: AtomicU64,
    inner: UnsafeCell<FeedbackLoop<P>>,
}

// SAFETY: every field but `inner` is an atomic, and `inner` is only
// dereferenced by the one thread that swapped `busy` from false to true
// (see `sample`), so `&GuardedLoop` never yields two live `&mut` to the
// loop. That thread mutates the policy, hence `P: Send`.
unsafe impl<P: Send> Sync for GuardedLoop<P> {}

impl<P> GuardedLoop<P> {
    /// Wrap a policy; adaptation starts enabled at backoff level 0.
    pub fn new(policy: P) -> GuardedLoop<P> {
        GuardedLoop {
            busy: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            level: AtomicU32::new(0),
            probation: AtomicU64::new(0),
            period: AtomicU64::new(SAMPLE_PERIOD_FLOOR),
            inner: UnsafeCell::new(FeedbackLoop::new(policy)),
        }
    }

    /// Feed one sample through the loop; never blocks. `observe` is
    /// called only when the policy will actually run, so a monitor
    /// whose read consumes state (a max-since-last-sample window) loses
    /// nothing to a skipped or swallowed sample. `apply` reports
    /// whether the decision changed anything; the answer paces the
    /// next samples (see the module doc).
    pub fn sample<Obs>(
        &self,
        observe: impl FnOnce() -> Obs,
        apply: impl FnOnce(P::Decision) -> bool,
    ) -> Sampled
    where
        P: AdaptationPolicy<Obs>,
    {
        if self.busy.swap(true, Ordering::Acquire) {
            return Sampled::Skipped;
        }
        let ticks = self.ticks.load(Ordering::Relaxed);
        let mut changed = false;
        let outcome = if ticks > 0 {
            // A CAS, not a store: `heal` and `quarantine` write `ticks`
            // without taking `busy`, and one that lands between the
            // load and here must win over the countdown.
            let stepped = self
                .ticks
                .compare_exchange(ticks, ticks - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
            if stepped && ticks == 1 {
                self.probation.store(PROBATION_DECIDES, Ordering::Relaxed);
                Sampled::Reenabled
            } else {
                Sampled::CoolingDown
            }
        } else {
            // SAFETY: the `busy` swap above returned false, so this
            // thread is the only one between that `Acquire` and the
            // `Release` store below, and `inner` is touched nowhere
            // else; `tests::sample_is_never_reentered` hammers this
            // from four threads with a policy that asserts it is alone.
            let feedback = unsafe { &mut *self.inner.get() };
            let step = || feedback.step(observe(), |decision| changed = apply(decision));
            match catch_unwind(AssertUnwindSafe(step)) {
                Ok(_) => {
                    self.note_clean_decide();
                    Sampled::Decided
                }
                Err(_) => {
                    self.quarantine();
                    Sampled::Panicked
                }
            }
        };
        let period = if outcome == Sampled::Decided && !changed {
            (self.period.load(Ordering::Relaxed) * 2).min(SAMPLE_PERIOD_CEILING)
        } else {
            SAMPLE_PERIOD_FLOOR
        };
        self.period.store(period, Ordering::Relaxed);
        self.busy.store(false, Ordering::Release);
        outcome
    }

    /// Gate events the object should let pass before its next sample.
    /// Instantly stale, which is harmless: a reader that misses an
    /// update paces one gap by the previous period.
    pub fn period(&self) -> u64 {
        self.period.load(Ordering::Relaxed)
    }

    /// One clean decision: pay down the probation period, and reset
    /// the backoff level once it is fully served.
    fn note_clean_decide(&self) {
        if self.level.load(Ordering::Relaxed) == 0 {
            return;
        }
        let left = self.probation.load(Ordering::Relaxed);
        if left > 1 {
            self.probation.store(left - 1, Ordering::Relaxed);
        } else {
            self.level.store(0, Ordering::Relaxed);
        }
    }

    /// Disable adaptation for `QUARANTINE_BASE_TICKS << level` samples
    /// and raise the level. Lock-free, callable from any thread: racing
    /// calls may cost a sentence a few ticks, never the caller's snap
    /// to the safe configuration, which does not depend on this state.
    pub fn quarantine(&self) {
        let level = self.level.load(Ordering::Relaxed);
        self.level.store((level + 1).min(QUARANTINE_MAX_SHIFT), Ordering::Relaxed);
        self.ticks.store(QUARANTINE_BASE_TICKS << level, Ordering::Relaxed);
    }

    /// End a quarantine now. Adaptation restarts *on probation*: the
    /// level is kept, so a fault that persists re-quarantines with a
    /// longer sentence. Returns whether a quarantine was in force.
    pub fn heal(&self) -> bool {
        let healed = self.ticks.swap(0, Ordering::Relaxed) != 0;
        if healed {
            self.probation.store(PROBATION_DECIDES, Ordering::Relaxed);
        }
        healed
    }

    /// Whether adaptation is disabled, waiting out a quarantine.
    pub fn is_quarantined(&self) -> bool {
        self.ticks.load(Ordering::Relaxed) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FnPolicy;
    use std::sync::Arc;

    /// A loop whose policy panics whenever `*bomb` is set.
    fn bombable(bomb: Arc<AtomicBool>) -> GuardedLoop<impl AdaptationPolicy<(), Decision = ()>> {
        GuardedLoop::new(FnPolicy::new("bomb", move |()| -> Option<()> {
            assert!(!bomb.load(Ordering::Relaxed), "policy dies");
            None
        }))
    }

    fn tick<P: AdaptationPolicy<(), Decision = ()>>(fb: &GuardedLoop<P>) -> Sampled {
        fb.sample(|| (), |()| false)
    }

    #[test]
    fn sample_is_never_reentered() {
        let inside = Arc::new(AtomicBool::new(false));
        let decides = Arc::new(AtomicU64::new(0));
        let policy = {
            let (inside, decides) = (Arc::clone(&inside), Arc::clone(&decides));
            FnPolicy::new("alone", move |()| {
                assert!(!inside.swap(true, Ordering::SeqCst), "two threads inside the policy");
                decides.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now(); // widen the window
                inside.store(false, Ordering::SeqCst);
                Some(())
            })
        };
        let fb = GuardedLoop::new(policy);
        let applied = AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        let outcomes: Vec<Sampled> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..2_000)
                            .map(|_| {
                                fb.sample(
                                    || (),
                                    |()| {
                                        applied.fetch_add(1, Ordering::Relaxed);
                                        true
                                    },
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("sampler")).collect()
        });
        // A re-entry would have panicked inside the policy and surfaced
        // as `Panicked`; every sample either ran alone or was skipped.
        let decided = outcomes.iter().filter(|o| **o == Sampled::Decided).count() as u64;
        let skipped = outcomes.iter().filter(|o| **o == Sampled::Skipped).count() as u64;
        assert_eq!(decided + skipped, 8_000, "unexpected outcome in {outcomes:?}");
        assert_eq!(decided, decides.load(Ordering::Relaxed));
        assert_eq!(decided, applied.load(Ordering::Relaxed), "apply runs once per decision");
        assert!(!fb.is_quarantined());
    }

    #[test]
    fn backoff_doubles_per_quarantine_and_caps() {
        let bomb = Arc::new(AtomicBool::new(true));
        let fb = bombable(Arc::clone(&bomb));
        for level in 0..=QUARANTINE_MAX_SHIFT + 2 {
            assert_eq!(tick(&fb), Sampled::Panicked);
            assert!(fb.is_quarantined());
            let sentence = QUARANTINE_BASE_TICKS << level.min(QUARANTINE_MAX_SHIFT);
            for _ in 1..sentence {
                assert_eq!(tick(&fb), Sampled::CoolingDown);
            }
            assert!(fb.is_quarantined(), "level {level}: released a tick early");
            assert_eq!(tick(&fb), Sampled::Reenabled);
            assert!(!fb.is_quarantined());
        }
    }

    #[test]
    fn heal_mid_sentence_reenables_on_probation() {
        let bomb = Arc::new(AtomicBool::new(true));
        let fb = bombable(Arc::clone(&bomb));
        assert!(!fb.heal(), "nothing to heal");
        assert_eq!(tick(&fb), Sampled::Panicked);
        assert_eq!(tick(&fb), Sampled::CoolingDown);
        assert!(fb.heal());
        assert!(!fb.is_quarantined());
        assert!(!fb.heal(), "double heal reports nothing to do");
        // On probation the level is kept: the fault persists, so the
        // second sentence is twice the first.
        assert_eq!(tick(&fb), Sampled::Panicked);
        for _ in 1..QUARANTINE_BASE_TICKS * 2 {
            assert_eq!(tick(&fb), Sampled::CoolingDown);
        }
        assert_eq!(tick(&fb), Sampled::Reenabled);
    }

    #[test]
    fn probation_served_resets_the_level() {
        let bomb = Arc::new(AtomicBool::new(true));
        let fb = bombable(Arc::clone(&bomb));
        assert_eq!(tick(&fb), Sampled::Panicked);
        assert!(fb.heal());
        bomb.store(false, Ordering::Relaxed);
        // One clean decide short of the probation period: the level is
        // kept, so the next sentence is the doubled one.
        for _ in 0..PROBATION_DECIDES - 1 {
            assert_eq!(tick(&fb), Sampled::Decided);
        }
        fb.quarantine();
        for _ in 1..QUARANTINE_BASE_TICKS * 2 {
            assert_eq!(tick(&fb), Sampled::CoolingDown);
        }
        assert_eq!(tick(&fb), Sampled::Reenabled);
        // Probation restarted by that re-enable; served in full, the
        // level is forgiven and the next sentence is the base one.
        for _ in 0..PROBATION_DECIDES {
            assert_eq!(tick(&fb), Sampled::Decided);
        }
        fb.quarantine();
        for _ in 1..QUARANTINE_BASE_TICKS {
            assert_eq!(tick(&fb), Sampled::CoolingDown);
        }
        assert_eq!(tick(&fb), Sampled::Reenabled, "level was not forgiven");
    }

    #[test]
    fn quarantined_samples_do_not_observe() {
        let fb = GuardedLoop::new(FnPolicy::new("none", |_: u64| -> Option<()> { None }));
        let observed = AtomicU64::new(0);
        let sample = || fb.sample(|| observed.fetch_add(1, Ordering::Relaxed), |()| false);
        assert_eq!(sample(), Sampled::Decided);
        fb.quarantine();
        for _ in 0..QUARANTINE_BASE_TICKS {
            sample();
        }
        assert_eq!(observed.load(Ordering::Relaxed), 1, "a swallowed sample built an observation");
        assert_eq!(sample(), Sampled::Decided);
        assert_eq!(observed.load(Ordering::Relaxed), 2);
    }

    /// The period after each of `n` samples whose `apply` reports
    /// `changed`.
    fn periods<P: AdaptationPolicy<(), Decision = ()>>(
        fb: &GuardedLoop<P>,
        n: usize,
        changed: bool,
    ) -> Vec<u64> {
        (0..n)
            .map(|_| {
                assert_eq!(fb.sample(|| (), |()| changed), Sampled::Decided);
                fb.period()
            })
            .collect()
    }

    #[test]
    fn period_doubles_to_the_ceiling_while_decisions_change_nothing() {
        let reaffirms = GuardedLoop::new(FnPolicy::new("same", |()| Some(())));
        assert_eq!(reaffirms.period(), SAMPLE_PERIOD_FLOOR);
        assert_eq!(periods(&reaffirms, 8, false), [4, 8, 16, 32, 64, 64, 64, 64]);
        // A policy with no decision changed nothing either.
        let silent = GuardedLoop::new(FnPolicy::new("none", |()| -> Option<()> { None }));
        assert_eq!(periods(&silent, 6, true), [4, 8, 16, 32, 64, 64]);
    }

    #[test]
    fn a_decision_that_changes_something_snaps_the_period_to_the_floor() {
        let fb = GuardedLoop::new(FnPolicy::new("some", |()| Some(())));
        assert_eq!(periods(&fb, 5, false).last(), Some(&SAMPLE_PERIOD_CEILING));
        assert_eq!(periods(&fb, 2, true), [SAMPLE_PERIOD_FLOOR; 2]);
        assert_eq!(periods(&fb, 2, false), [4, 8], "and backs off again from there");
    }

    #[test]
    fn every_quarantine_outcome_keeps_the_period_at_the_floor() {
        let bomb = Arc::new(AtomicBool::new(false));
        let fb = bombable(Arc::clone(&bomb));
        for _ in 0..5 {
            tick(&fb);
        }
        assert_eq!(fb.period(), SAMPLE_PERIOD_CEILING);
        bomb.store(true, Ordering::Relaxed);
        assert_eq!(tick(&fb), Sampled::Panicked);
        assert_eq!(fb.period(), SAMPLE_PERIOD_FLOOR);
        bomb.store(false, Ordering::Relaxed);
        for _ in 1..QUARANTINE_BASE_TICKS {
            assert_eq!(tick(&fb), Sampled::CoolingDown);
            assert_eq!(fb.period(), SAMPLE_PERIOD_FLOOR);
        }
        assert_eq!(tick(&fb), Sampled::Reenabled);
        assert_eq!(fb.period(), SAMPLE_PERIOD_FLOOR);
        assert_eq!(tick(&fb), Sampled::Decided);
        assert_eq!(fb.period(), 2 * SAMPLE_PERIOD_FLOOR);
    }

    #[test]
    fn a_skipped_sample_leaves_the_period_alone() {
        use std::sync::mpsc::channel;
        let (inside_tx, inside_rx) = channel();
        let (go_tx, go_rx) = channel::<()>();
        let mut first = true;
        let fb = GuardedLoop::new(FnPolicy::new("slow", move |()| -> Option<()> {
            // Only the first decision waits, with the loop marked busy.
            if std::mem::take(&mut first) {
                inside_tx.send(()).expect("test is listening");
                go_rx.recv().expect("test lets the policy go");
            }
            None
        }));
        std::thread::scope(|s| {
            let slow = s.spawn(|| tick(&fb));
            inside_rx.recv().expect("policy entered");
            assert_eq!(tick(&fb), Sampled::Skipped);
            assert_eq!(fb.period(), SAMPLE_PERIOD_FLOOR, "a skip neither backs off nor resets");
            go_tx.send(()).expect("policy is waiting");
            assert_eq!(slow.join().expect("sampler"), Sampled::Decided);
        });
        assert_eq!(fb.period(), 2 * SAMPLE_PERIOD_FLOOR);
    }
}

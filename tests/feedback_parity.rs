//! One adaptive half, two substrates: the same scripted policy driven
//! through an `AdaptiveMutex` and an `AsyncAdaptiveMutex` (both runtime
//! flavors) must walk the same quarantine ladder and report it in the
//! same counters —
//! `lock_heals_total` and `lock_reconfigurations_total` on the control
//! plane mean one thing whichever mutex sits behind the target.

#![cfg(feature = "async")]

use adaptive_objects::asyncx::{AsyncAdaptiveMutex, Runtime};
use adaptive_objects::control::ControlTarget;
use adaptive_objects::model::{AdaptationPolicy, QUARANTINE_BASE_TICKS, SAMPLE_PERIOD_FLOOR};
use adaptive_objects::native::{
    AdaptiveMutex, BoxedNativePolicy, NativeDecision, NativeObservation,
};

/// Panics on its 1st and 3rd consultation and changes the spin count
/// otherwise, so the kernel stays at its floor period throughout: every
/// other acquisition is a sample.
struct PanicsOnFirstAndThird {
    calls: u32,
}

impl AdaptationPolicy<NativeObservation> for PanicsOnFirstAndThird {
    type Decision = NativeDecision;

    fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
        self.calls += 1;
        assert!(self.calls != 1 && self.calls != 3, "scripted policy panic");
        Some(NativeDecision::SetSpins(self.calls))
    }
}

fn policy() -> BoxedNativePolicy {
    Box::new(PanicsOnFirstAndThird { calls: 0 })
}

/// `(policy_panics, quarantines, heals, is_quarantined)` after a sample.
type Frame = (u64, u64, u64, bool);

/// Samples to drive: panic, the first sentence, one clean decide on
/// probation, the second panic, the doubled sentence, one clean decide.
const SAMPLES: u64 = 1 + QUARANTINE_BASE_TICKS + 1 + 1 + 2 * QUARANTINE_BASE_TICKS + 1;

fn expected() -> Vec<Frame> {
    let mut frames = vec![(1, 1, 0, true)]; // first panic
    for tick in 1..=QUARANTINE_BASE_TICKS {
        // The sample that runs the sentence down re-enables: a heal.
        let done = tick == QUARANTINE_BASE_TICKS;
        frames.push((1, 1, u64::from(done), !done));
    }
    frames.push((1, 1, 1, false)); // clean decide, on probation
    frames.push((2, 2, 1, true)); // second panic: level kept
    for tick in 1..=2 * QUARANTINE_BASE_TICKS {
        let done = tick == 2 * QUARANTINE_BASE_TICKS;
        frames.push((2, 2, 1 + u64::from(done), !done));
    }
    frames.push((2, 2, 2, false));
    frames
}

fn native_trajectory() -> Vec<Frame> {
    let m = AdaptiveMutex::with_policy((), policy());
    (0..SAMPLES)
        .map(|_| {
            (0..SAMPLE_PERIOD_FLOOR).for_each(|_| drop(m.lock()));
            let s = m.stats();
            (s.policy_panics, s.quarantines, s.heals, m.is_quarantined())
        })
        .collect()
}

fn async_trajectory(rt: &Runtime) -> Vec<Frame> {
    let m = AsyncAdaptiveMutex::with_policy((), policy());
    (0..SAMPLES)
        .map(|_| {
            (0..SAMPLE_PERIOD_FLOOR).for_each(|_| rt.block_on(async { drop(m.lock().await) }));
            let s = m.stats();
            (s.policy_panics, s.quarantines, s.heals, m.is_quarantined())
        })
        .collect()
}

#[test]
fn native_and_async_walk_the_same_quarantine_ladder() {
    let native = native_trajectory();
    assert_eq!(native, expected(), "native trajectory");
    for rt in [Runtime::current_thread(), Runtime::multi_thread(2)] {
        assert_eq!(async_trajectory(&rt), native, "async trajectory diverges from native");
    }
}

/// Decides a spin count of 5, 9, 5, 9, …: a change on every sample,
/// whichever substrate's `delay` the shorthand carries.
struct Alternating {
    calls: u32,
}

impl AdaptationPolicy<NativeObservation> for Alternating {
    type Decision = NativeDecision;

    fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
        self.calls += 1;
        Some(NativeDecision::SetSpins(if self.calls.is_multiple_of(2) { 9 } else { 5 }))
    }
}

/// `(reconfigurations, spin, quarantined)` after each step.
type Counted = (u64, u32, bool);

/// A run that mixes policy decisions, an operator's `set` (which the
/// following decisions are refused under) and its `release`, and a
/// quarantine with its sentence. Only the policy's decisions that
/// changed something count as reconfigurations.
fn mixed<L: ControlTarget>(m: &L, lock: impl Fn(), spin: impl Fn() -> u32) -> Vec<Counted> {
    let mut frames = Vec::new();
    let frame = |frames: &mut Vec<Counted>| {
        frames.push((m.stats().reconfigurations, spin(), m.health().quarantined));
    };
    let run = |frames: &mut Vec<Counted>, n| {
        for _ in 0..n {
            lock();
            frame(frames);
        }
    };
    run(&mut frames, 20);
    m.set("spin", "7").expect("spin is a waiting attribute");
    frame(&mut frames);
    run(&mut frames, 20);
    m.release(None);
    run(&mut frames, 20);
    m.quarantine();
    frame(&mut frames);
    run(&mut frames, 40);
    frames
}

#[test]
fn reconfigurations_count_only_the_policys_changes_on_both_mutexes() {
    let native = AdaptiveMutex::with_policy((), Box::new(Alternating { calls: 0 }));
    let expected = mixed(&native, || drop(native.lock()), || native.spin_limit());
    // Ten decisions before the operator's `set`, one per other
    // acquisition, all of them changes; the `set` itself counts nothing.
    assert_eq!(expected[19].0, 10);
    assert_eq!(expected[20], (10, 7, false), "an operator's set is not a reconfiguration");
    assert_eq!(expected[40].0, 10, "decisions on an operator-owned group change nothing");
    assert!(expected[60].0 > 10, "released: the policy's decisions count again");
    let snapped = expected[61];
    assert_eq!(snapped, (expected[60].0, 0, true), "a quarantine's snap is not a reconfiguration");
    assert!(expected.last().expect("frames").0 > snapped.0, "healed: decisions count again");
    for rt in [Runtime::current_thread(), Runtime::multi_thread(2)] {
        let m = AsyncAdaptiveMutex::with_policy((), Box::new(Alternating { calls: 0 }));
        let lock = || rt.block_on(async { drop(m.lock().await) });
        let frames = mixed(&m, lock, || m.spin_limit());
        // Before the first sample each shows its own starting spin: 64
        // for threads, a 32-poll budget for tasks.
        assert_eq!(frames[0].0, expected[0].0);
        assert_eq!(frames[1..], expected[1..], "async count diverges from native");
    }
}

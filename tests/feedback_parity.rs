//! One feedback kernel, two substrates: the same scripted panicking
//! policy driven through an `AdaptiveMutex` and an `AsyncAdaptiveMutex`
//! (both runtime flavors) must walk the same quarantine ladder and
//! report it in the same counters — `lock_heals_total` on the control
//! plane means one thing whichever mutex sits behind the target.

#![cfg(feature = "async")]

use adaptive_objects::asyncx::{AsyncAdaptiveMutex, Runtime};
use adaptive_objects::model::{AdaptationPolicy, QUARANTINE_BASE_TICKS};
use adaptive_objects::native::{
    AdaptiveMutex, BoxedNativePolicy, NativeDecision, NativeObservation,
};

/// Panics on its 1st and 3rd consultation, decides nothing otherwise.
struct PanicsOnFirstAndThird {
    calls: u32,
}

impl AdaptationPolicy<NativeObservation> for PanicsOnFirstAndThird {
    type Decision = NativeDecision;

    fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
        self.calls += 1;
        assert!(self.calls != 1 && self.calls != 3, "scripted policy panic");
        None
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
    let m = AdaptiveMutex::with_policy((), policy(), 1);
    (0..SAMPLES)
        .map(|_| {
            drop(m.lock());
            let s = m.stats();
            (s.policy_panics, s.quarantines, s.heals, m.is_quarantined())
        })
        .collect()
}

fn async_trajectory(rt: &Runtime) -> Vec<Frame> {
    let m = AsyncAdaptiveMutex::with_policy((), policy(), 1);
    (0..SAMPLES)
        .map(|_| {
            rt.block_on(async { drop(m.lock().await) });
            let s = m.stats();
            assert_eq!(s.as_native().heals, s.heals, "the control-plane projection drops heals");
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

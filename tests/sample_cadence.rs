//! The sampling period is an attribute the feedback kernel owns: on a
//! self-paced `AdaptiveMutex` the monitor runs on one fixed sequence of
//! acquisitions whose gaps double from 2 to 64 while the policy's
//! decisions change nothing, and fall back to 2 on a change of regime.
//! The gate word is a plain store made under the lock, so the sequence
//! is exact — in debug and in release builds, which is where a store
//! placed outside the lock would show.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adaptive_objects::model::{
    AdaptationPolicy, QUARANTINE_BASE_TICKS, SAMPLE_PERIOD_CEILING, SAMPLE_PERIOD_FLOOR,
};
use adaptive_objects::native::{
    AdaptiveMutex, LockAlgorithm, NativeDecision, NativeObservation, NativeWaitingPolicy,
};
use adaptive_objects::service::HotShardPolicy;

/// What a [`Scripted`] policy does with its `k`-th observation (from 0).
type Script = fn(u64) -> Option<NativeDecision>;

/// A policy that follows a script and logs every observation it sees.
struct Scripted {
    script: Script,
    seen: Arc<Mutex<Vec<NativeObservation>>>,
}

impl AdaptationPolicy<NativeObservation> for Scripted {
    type Decision = NativeDecision;

    fn decide(&mut self, obs: NativeObservation) -> Option<NativeDecision> {
        let mut seen = self.seen.lock().expect("log");
        seen.push(obs);
        (self.script)(seen.len() as u64 - 1)
    }
}

/// Lock and unlock a self-paced mutex `acquisitions` times from one
/// thread; returns the acquisition counts whose unlock reached the
/// policy, and the `acquisitions` field of each observation.
fn sampled_acquisitions(script: Script, acquisitions: u64) -> (Vec<u64>, Vec<u64>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let m = AdaptiveMutex::self_paced((), Box::new(Scripted { script, seen: Arc::clone(&seen) }));
    let mut sampled_at = Vec::new();
    for n in 1..=acquisitions {
        let before = seen.lock().expect("log").len();
        drop(m.lock());
        if seen.lock().expect("log").len() > before {
            sampled_at.push(n);
        }
    }
    assert_eq!(m.stats().acquisitions, acquisitions);
    let stood_for = seen.lock().expect("log").iter().map(|o| o.acquisitions).collect();
    (sampled_at, stood_for)
}

/// `combined(64)` is what a new mutex starts from: deciding it again
/// changes nothing.
fn reaffirm(_: u64) -> Option<NativeDecision> {
    Some(NativeDecision::SetSpins(64))
}

const BACKED_OFF: [u64; 10] = [2, 4, 8, 16, 32, 64, 128, 192, 256, 320];

#[test]
fn a_reaffirming_policy_is_sampled_on_one_sequence_whose_gaps_double_to_64() {
    for _repeat in 0..3 {
        let (sampled_at, stood_for) = sampled_acquisitions(reaffirm, 320);
        assert_eq!(sampled_at, BACKED_OFF);
        // Each observation says how many acquisitions it stands for.
        assert_eq!(stood_for, [2, 2, 4, 8, 16, 32, 64, 64, 64, 64]);
    }
    // No decision at all changes nothing either.
    assert_eq!(sampled_acquisitions(|_| None, 320).0, BACKED_OFF);
}

#[test]
fn one_decision_that_changes_an_attribute_brings_the_gaps_back_to_two() {
    // The eighth observation (acquisition 192) moves the spin count, and
    // the ones after it re-affirm the new value. The gap that was armed
    // before the change stands; the next one is 2, then they double.
    let (sampled_at, _) = sampled_acquisitions(
        |k| Some(NativeDecision::SetSpins(if k < 7 { 64 } else { 7 })),
        520,
    );
    let gaps: Vec<u64> = sampled_at.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(sampled_at[7], 192);
    assert_eq!(gaps[..7], [2, 4, 8, 16, 32, 64, 64]);
    assert_eq!(gaps[7..], [64, 2, 4, 8, 16, 32, 64, 64, 64]);
}

#[test]
fn a_quarantine_on_a_backed_off_lock_is_served_at_the_floor_cadence() {
    // Panics on the eighth observation: acquisition 192, period 64.
    fn script(k: u64) -> Option<NativeDecision> {
        assert_ne!(k, 7, "scripted policy panic");
        reaffirm(k)
    }
    let seen = Arc::new(Mutex::new(Vec::new()));
    let m = AdaptiveMutex::self_paced((), Box::new(Scripted { script, seen: Arc::clone(&seen) }));
    let mut panicked_at = None;
    let mut healed_at = None;
    for n in 1..=1_000u64 {
        let period = m.sample_period();
        drop(m.lock());
        let s = m.stats();
        if s.policy_panics == 1 && panicked_at.is_none() {
            assert_eq!(period, SAMPLE_PERIOD_CEILING, "backed off when the policy panicked");
            assert_eq!(m.sample_period(), SAMPLE_PERIOD_FLOOR);
            panicked_at = Some(n);
        }
        if s.heals == 1 {
            healed_at = Some(n);
            break;
        }
    }
    let (panicked_at, healed_at) = (panicked_at.expect("panic"), healed_at.expect("heal"));
    assert_eq!(panicked_at, 192);
    assert!(!m.is_quarantined());
    // One gap was already armed at 64; the sentence's other samples
    // come every other acquisition, not every 64th.
    assert_eq!(
        healed_at - panicked_at,
        SAMPLE_PERIOD_CEILING + SAMPLE_PERIOD_FLOOR * (QUARANTINE_BASE_TICKS - 1)
    );
    assert_eq!(m.waiting_policy(), NativeWaitingPolicy::pure_blocking(), "snapped to the safe endpoint");
}

/// Feed `policy` one observation per `acquisitions` writes arriving one
/// every `write_gap`, through the wall-clock entry point, until it
/// migrates or `samples` run out.
fn drive(policy: &mut HotShardPolicy, acquisitions: u64, write_gap: Duration, samples: u32) {
    let sample_gap = write_gap * u32::try_from(acquisitions).expect("small");
    let obs = NativeObservation { acquisitions, ..NativeObservation::of(0) };
    for _ in 0..samples {
        let until = Instant::now() + sample_gap;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        policy.decide(obs);
        if policy.algorithm() != LockAlgorithm::SpinPark {
            return;
        }
    }
}

#[test]
fn the_heat_sensor_reads_one_write_rate_the_same_at_2_and_at_64_per_sample() {
    // One write every 3 µs is 6 µs per two acquisitions: hot (the
    // threshold is 30 µs), whatever the number a sample stands for. A
    // stall of the host only ever stretches a gap, so it can delay the
    // migration but not cause one.
    let write_gap = Duration::from_micros(3);
    for acquisitions in [SAMPLE_PERIOD_FLOOR, SAMPLE_PERIOD_CEILING] {
        let mut p = HotShardPolicy::new(64, 2);
        drive(&mut p, acquisitions, write_gap, 400);
        assert_eq!(
            p.algorithm(),
            LockAlgorithm::Combining,
            "{acquisitions} per sample: ewma {} ns",
            p.ewma_gap_nanos()
        );
    }
    // The same wall-clock gap between samples that stand for two
    // acquisitions each is a thirty-second of the write rate: cold.
    let mut p = HotShardPolicy::new(64, 2);
    drive(&mut p, SAMPLE_PERIOD_FLOOR, write_gap * 32, 40);
    assert_eq!(p.algorithm(), LockAlgorithm::SpinPark, "ewma {} ns", p.ewma_gap_nanos());
}

#[test]
fn a_lock_backed_off_while_idle_still_reaches_parking_when_waiters_arrive() {
    // Uncontended use settles on pure spin and backs the monitor off.
    let m = Arc::new(AdaptiveMutex::new(()));
    for _ in 0..1_000 {
        drop(m.lock());
    }
    assert_eq!(m.sample_period(), SAMPLE_PERIOD_CEILING);
    assert_eq!(m.waiting_policy(), NativeWaitingPolicy::pure_spin());
    let before = m.stats();
    assert_eq!(before.parked, 0);
    // Long holds under six threads: a pure-spin waiter parks only if a
    // sample gets through and the policy cuts the spin count.
    let workers: Vec<_> = (0..6)
        .map(|_| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for _ in 0..30 {
                    let g = m.lock();
                    std::thread::sleep(Duration::from_micros(300));
                    drop(g);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    let s = m.stats();
    assert!(s.reconfigurations > before.reconfigurations, "policy never fired");
    assert!(s.parked > 0, "nobody ever parked despite long holds");
    assert!(s.handoffs > 0, "parked waiters must be served by handoff");
}

//! The chaos soak, at CI scale and at full scale over three seeds: a
//! seeded fault storm (25% of workers killed, 1-in-64 critical sections
//! panicking, dropped unparks, stalled monitor samples) over a live lock
//! registry while a command driver issues randomized control traffic —
//! graded against the hard oracles from the issue's acceptance bar:
//!
//! * every scripted stall reaches `Quarantined` within 2 supervisor
//!   polls of the wedge being established;
//! * every breaker that opened records a `Healed` edge and every
//!   breaker finishes `Closed` (no stuck-open);
//! * the event chain is legal per target (no transition skips);
//! * conservation: each lock's counter equals the successful ops
//!   recorded against it (no lost update through panics, kills, policy
//!   retunes, and live algorithm switches);
//! * quiescence: every lock free and waiter-less after join (zero lost
//!   waiters);
//! * the driver's well-formed commands never error;
//! * dwell is reported for all five breaker states.

use adaptive_objects::native::{FaultSpec, PolicyChoice};
use adaptive_objects::workloads::{run_soak, SoakSpec};

/// The acceptance storm: deterministic seed, every fault kind on, at
/// the issue's rates (25% worker kills, 1-in-64 CS panics).
fn acceptance_spec(seed: u64) -> SoakSpec {
    SoakSpec {
        locks: 4,
        threads: 8,
        storm_polls: 20,
        calm_polls: 6,
        poll_millis: 20,
        stall_episodes: 3,
        faults: FaultSpec::seeded(seed)
            .with_cs_panics(64)
            .with_unpark_drops(96)
            .with_monitor_stalls(48)
            .with_worker_kills(25, 300),
        command_seed: seed ^ 0x5eed,
        policy: PolicyChoice::Adaptive { threshold: 2, n: 32 },
    }
}

/// The long storm: more locks, a storm three times as long, five
/// stall episodes, and kills after 400 steps. `SoakSpec::quick` keeps
/// eight workers, so two still die.
fn full_scale_spec(seed: u64) -> SoakSpec {
    SoakSpec {
        locks: 6,
        storm_polls: 60,
        calm_polls: 10,
        poll_millis: 25,
        stall_episodes: 5,
        ..SoakSpec::quick(seed)
    }
}

/// Run one soak and grade it against every oracle.
fn assert_every_oracle(spec: &SoakSpec) {
    let r = run_soak(spec);

    // The storm actually stormed: faults flowed and doomed workers died.
    assert!(r.faults_cs_panics > 0, "no CS panics injected: {r:?}");
    assert_eq!(r.panics_absorbed, r.faults_cs_panics, "every injected panic absorbed");
    assert_eq!(r.workers_killed, 2, "25% of 8 workers die mid-storm");
    assert!(r.ops > 0, "survivors made progress");
    assert!(r.commands_ok > 0, "command traffic flowed");

    // Oracle: conservation (no lost update, panics and switches included).
    assert!(
        r.conservation_ok,
        "counter vs ops mismatch: total {} vs {}",
        r.counter_total, r.ops
    );

    // Oracle: breaker-state legality — no skips anywhere in the log.
    assert!(r.illegal.is_none(), "illegal chain: {:?}", r.illegal);

    // Oracle: every scripted stall condemned within 2 polls.
    assert_eq!(
        r.episodes.len() + r.episodes_skipped,
        spec.stall_episodes,
        "all scheduled episodes accounted for: {r:?}"
    );
    assert!(!r.episodes.is_empty(), "at least one stall episode ran");
    for ep in &r.episodes {
        let polls = ep
            .polls_to_quarantine
            .unwrap_or_else(|| panic!("stall on {} never quarantined: {r:?}", ep.target));
        assert!(
            polls <= 2,
            "stall on {} took {polls} polls to quarantine (bound: 2)",
            ep.target
        );
    }

    // Oracle: no stuck-open breaker; every opened breaker healed.
    assert!(r.opened_targets > 0, "storm opened at least one breaker");
    assert!(
        r.all_healed,
        "stuck-open or unhealed breaker: opened {}, healed {}: {r:?}",
        r.opened_targets, r.healed_targets
    );

    // Oracle: zero lost waiters at quiescence.
    assert!(r.quiescent, "lock busy or waiter stranded after join");

    // The driver only issues well-formed commands; all must succeed.
    assert_eq!(r.commands_err, 0, "control plane rejected a valid command");

    // Dwell is reported for every breaker state.
    for state in ["closed", "suspect", "quarantined", "half-open", "healed"] {
        assert!(r.dwell.contains_key(state), "dwell missing state {state}: {:?}", r.dwell);
    }
}

#[test]
fn chaos_soak_upholds_every_oracle() {
    assert_every_oracle(&acceptance_spec(0xc1a05));
}

#[test]
fn full_scale_soak_upholds_every_oracle_at_three_seeds() {
    for seed in [0xb0a7, 0x5eaf, 0xc0de] {
        assert_every_oracle(&full_scale_spec(seed));
    }
}

#[test]
fn soak_is_deterministic_in_its_fault_seed() {
    // Same seed, same doomed-worker count and same injected CS panic
    // decisions *per draw* — wall-clock jitter changes how many draws
    // happen, so the invariant checked here is the deterministic part:
    // the kill set size and that both runs pass the oracles.
    let a = run_soak(&acceptance_spec(0x7ea7));
    let b = run_soak(&acceptance_spec(0x7ea7));
    assert_eq!(a.workers_killed, b.workers_killed);
    for r in [&a, &b] {
        assert!(r.conservation_ok && r.quiescent && r.illegal.is_none() && r.all_healed);
    }
}

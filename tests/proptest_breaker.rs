//! Property tests of the circuit-breaker state machine: under *any*
//! interleaving of hub findings and operator overrides, the
//! lifecycle stays legal (every edge one of the seven allowed, no
//! `Closed → Quarantined` skip), the half-open trial always resolves,
//! a quarantine dwell is bounded by the capped backoff, and an
//! all-clear tail always converges back to `Closed`.

use adaptive_objects::control::{
    validate_chain, Breaker, BreakerConfig, BreakerState, Finding, Transition,
};
use proptest::prelude::*;

/// One step of the simulated world: a hub finding reaching the
/// breaker on a poll, or an operator override between polls.
#[derive(Debug, Clone, Copy)]
enum Op {
    Poll(Finding),
    ForceOpen,
    ForceProbe,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Polls appear twice so findings dominate operator overrides, which
    // are rare in practice (the vendored `prop_oneof!` is unweighted).
    prop_oneof![
        Just(Op::Poll(Finding::Clear)),
        Just(Op::Poll(Finding::Clear)),
        Just(Op::Poll(Finding::Stall)),
        Just(Op::Poll(Finding::Stall)),
        Just(Op::Poll(Finding::Poison)),
        Just(Op::Poll(Finding::Poison)),
        Just(Op::Poll(Finding::PolicyPanic)),
        Just(Op::Poll(Finding::PolicyPanic)),
        Just(Op::ForceOpen),
        Just(Op::ForceProbe),
    ]
}

fn config_strategy() -> impl Strategy<Value = BreakerConfig> {
    (1u32..4, 0u32..5, 1u32..4, 1u32..4).prop_map(
        |(open_base_polls, max_backoff_shift, trial_polls, suspect_patience)| BreakerConfig {
            open_base_polls,
            max_backoff_shift,
            trial_polls,
            suspect_patience,
        },
    )
}

/// Drive `ops` through a breaker, collecting every transition taken (in
/// order) and checking the in-flight invariants as they apply.
fn drive(config: BreakerConfig, ops: &[Op]) -> (Breaker, Vec<Transition>) {
    let mut b = Breaker::new(config);
    let mut edges: Vec<Transition> = Vec::new();
    // Consecutive polls spent inside HalfOpen without leaving it.
    let mut half_open_streak = 0u32;
    // Consecutive *clear* polls spent inside Quarantined.
    let mut quiet_open_streak = 0u32;
    for op in ops {
        let before = b.state();
        let step = match *op {
            Op::Poll(f) => b.step(f),
            Op::ForceOpen => b.force_open(),
            Op::ForceProbe => b.force_probe(),
        };
        edges.extend(step.transitions.iter().copied());

        if let Op::Poll(f) = *op {
            if before == BreakerState::HalfOpen && b.state() == BreakerState::HalfOpen {
                half_open_streak += 1;
                assert!(
                    half_open_streak < config.trial_polls,
                    "half-open never resolved: {half_open_streak} polls with trial_polls={}",
                    config.trial_polls
                );
            } else {
                half_open_streak = 0;
            }
            if before == BreakerState::Quarantined
                && b.state() == BreakerState::Quarantined
                && f == Finding::Clear
            {
                quiet_open_streak += 1;
                let cap = config.open_base_polls << config.max_backoff_shift;
                assert!(
                    quiet_open_streak < cap,
                    "quiet dwell exceeded the backoff cap: {quiet_open_streak} >= {cap}"
                );
            } else {
                quiet_open_streak = 0;
            }
        } else {
            half_open_streak = 0;
            quiet_open_streak = 0;
        }
    }
    (b, edges)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Any interleaving of findings and operator overrides produces a
    /// legal transition chain: starts from `Closed`, every edge among
    /// the seven legal ones, edges consecutive. In particular a lock is
    /// never condemned without evidence (`Closed → Quarantined` is not
    /// an edge) and never un-condemned in one hop (`Quarantined →
    /// Closed` is not an edge either).
    #[test]
    fn any_interleaving_yields_a_legal_chain(
        config in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let (_, edges) = drive(config, &ops);
        validate_chain(edges.iter()).expect("legal chain");
        for e in &edges {
            prop_assert!(
                !(e.from == BreakerState::Closed && e.to == BreakerState::Quarantined),
                "skipped Suspect: {e:?}"
            );
            prop_assert!(
                !(e.from == BreakerState::Quarantined && e.to == BreakerState::Closed),
                "skipped the half-open trial: {e:?}"
            );
        }
    }

    /// After any history, a clean world (all-`Clear` findings) always
    /// brings the breaker back to `Closed`, within the worst-case dwell
    /// plus trial plus re-arm budget — no stuck-open state exists.
    #[test]
    fn all_clear_tail_always_converges_to_closed(
        config in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        let (mut b, _) = drive(config, &ops);
        let budget = (config.open_base_polls << config.max_backoff_shift)
            + config.trial_polls
            + config.suspect_patience
            + 4;
        let mut polls = 0;
        while b.state() != BreakerState::Closed {
            b.step(Finding::Clear);
            polls += 1;
            prop_assert!(
                polls <= budget,
                "not converged after {polls} clear polls (state {:?}, budget {budget})",
                b.state()
            );
        }
        // And it stays closed in a clean world.
        b.step(Finding::Clear);
        prop_assert_eq!(b.state(), BreakerState::Closed);
    }

    /// A stall always condemns within two polls of arriving, whatever
    /// state the breaker was in, and the resulting chain passes through
    /// `Suspect` (no skip) — the acceptance bound of the soak harness,
    /// proven over arbitrary prior histories.
    #[test]
    fn a_stall_is_condemned_within_two_polls(
        config in config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        let (mut b, _) = drive(config, &ops);
        b.step(Finding::Stall);
        if b.state() != BreakerState::Quarantined {
            b.step(Finding::Stall);
        }
        prop_assert_eq!(b.state(), BreakerState::Quarantined);
    }
}

//! Property-based tests of the fairness workload's per-thread
//! accounting: no engine — including a mid-run-switching adaptive one —
//! ever loses or invents an operation, and Jain's index behaves.

use adaptive_native::{LockAlgorithm, PolicyChoice};
use proptest::prelude::*;
use workloads::{jains_index, run_fairness, Backend, FairnessSpec};

/// Strategy: every engine family, including a FairAdaptive tuned to
/// switch algorithms mid-run (a 1 ns unfair wait with patience 1 moves
/// the lock to ticket on the first clocked wait).
fn any_policy() -> impl Strategy<Value = PolicyChoice> {
    prop_oneof![
        Just(PolicyChoice::Algorithm(LockAlgorithm::SpinPark)),
        Just(PolicyChoice::Algorithm(LockAlgorithm::Ticket)),
        Just(PolicyChoice::Algorithm(LockAlgorithm::Combining)),
        (1u32..32).prop_map(PolicyChoice::FixedSpin),
        Just(PolicyChoice::PureBlocking),
        (1u64..4, 1u32..16).prop_map(|(threshold, n)| PolicyChoice::Adaptive { threshold, n }),
        Just(PolicyChoice::FairAdaptive { unfair_wait_nanos: 1, patience: 1 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        ..ProptestConfig::default()
    })]

    /// Per-thread op counts sum exactly to threads x iters for every
    /// engine and workload shape — a mid-run algorithm switch must not
    /// drop or double-count an acquisition, and the row's aggregates
    /// must agree with the per-thread samples they summarize.
    #[test]
    fn per_thread_ops_sum_exactly(
        policy in any_policy(),
        threads in 1usize..5,
        group_a in 0usize..5,
        iters in 1u32..32,
        imbalanced in any::<bool>(),
        ncs_iters in 0u32..200,
    ) {
        let spec = FairnessSpec {
            threads,
            group_a,
            iters,
            cs_iters_a: 200,
            cs_iters_b: if imbalanced { 600 } else { 200 },
            ncs_iters,
            policy,
        };
        let point = run_fairness(Backend::Native, &spec);
        let expected = threads as u64 * iters as u64;
        let total: u64 = point.per_thread_ops.iter().sum();
        prop_assert_eq!(total, expected, "policy {}", policy.label());
        prop_assert_eq!(point.per_thread_ops.len(), threads);
        for &ops in &point.per_thread_ops {
            prop_assert_eq!(ops, iters as u64);
        }
        prop_assert!(point.fairness_index > 0.0 && point.fairness_index <= 1.0 + 1e-9);
        prop_assert!(point.thread_spread >= 1.0 - 1e-9);
        prop_assert!(point.max_thread_ops_per_sec >= point.min_thread_ops_per_sec);
    }
}

#[test]
fn jains_index_is_one_for_identical_threads() {
    assert!((jains_index(&[5.0; 8]) - 1.0).abs() < 1e-12);
    assert!((jains_index(&[123.4]) - 1.0).abs() < 1e-12);
}

#[test]
fn jains_index_penalizes_constructed_imbalance() {
    // One thread does all the work: index collapses toward 1/n.
    let starved = jains_index(&[100.0, 0.0, 0.0, 0.0]);
    assert!((starved - 0.25).abs() < 1e-12, "got {starved}");
    // Mild skew lands strictly between 1/n and 1.
    let skewed = jains_index(&[3.0, 1.0]);
    assert!(skewed < 1.0 && skewed > 0.5, "got {skewed}");
}

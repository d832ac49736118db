//! Property-based end-to-end TSP tests: for arbitrary instances, every
//! parallel implementation with every lock family finds exactly the
//! Held–Karp optimum — parallelism and adaptation change the clock,
//! never the answer.

use adaptive_objects::prelude::*;
use proptest::prelude::*;

fn any_variant() -> impl Strategy<Value = Variant> {
    prop_oneof![
        Just(Variant::Centralized),
        Just(Variant::Distributed),
        Just(Variant::Balanced),
    ]
}

/// A seeded asymmetric `n`-city matrix with entries in `1..=250`; with
/// `forbid`, about one entry in eight is forbidden (`INF` or
/// `u32::MAX`), so some draws have no tour at all.
fn asymmetric(n: usize, seed: u64, forbid: bool) -> TspInstance {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let dist = (0..n * n)
        .map(|_| match next() % 16 {
            0 if forbid => tsp_app::INF,
            1 if forbid => u32::MAX,
            _ => (next() % 250) as u32 + 1,
        })
        .collect();
    TspInstance::from_matrix(n, dist)
}

fn any_lock_impl() -> impl Strategy<Value = LockImpl> {
    prop_oneof![
        Just(LockImpl::Blocking),
        Just(LockImpl::Spin),
        Just(LockImpl::SpinBackoff),
        (1u64..8, 1u32..32).prop_map(|(threshold, n)| LockImpl::Adaptive { threshold, n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        ..ProptestConfig::default()
    })]

    #[test]
    fn parallel_always_finds_the_optimum(
        n in 6usize..10,
        seed in any::<u64>(),
        euclidean in any::<bool>(),
        variant in any_variant(),
        lock_impl in any_lock_impl(),
        searchers in 2usize..5,
    ) {
        let inst = if euclidean {
            TspInstance::random_euclidean(n, 500, seed)
        } else {
            TspInstance::random_symmetric(n, 100, seed)
        };
        let oracle = inst.held_karp();
        let (res, _) = sim::run(SimConfig::butterfly(searchers), move || {
            solve_parallel(
                &inst,
                variant,
                TspConfig {
                    searchers,
                    lock_impl,
                    ..TspConfig::default()
                },
            )
        })
        .unwrap();
        prop_assert_eq!(res.best, oracle);
        prop_assert!(res.stats.tours >= 1);
        prop_assert!(res.stats.expanded >= 1);
    }

    #[test]
    fn sequential_solvers_agree(
        n in 5usize..14,
        seed in any::<u64>(),
        shape in 0u8..3,
    ) {
        // Symmetric, asymmetric, and asymmetric with forbidden entries.
        let inst = match shape {
            0 => TspInstance::random_symmetric(n, 250, seed),
            _ => asymmetric(n, seed, shape == 2),
        };
        let (lmsk, stats) = tsp_app::solve_sequential(&inst);
        prop_assert_eq!(lmsk, inst.held_karp());
        // Accounting invariants of the search itself: a tour is found
        // exactly when one exists.
        prop_assert!(stats.generated <= 2 * stats.expanded);
        prop_assert_eq!(stats.tours >= 1, lmsk < tsp_app::INF);
    }

    #[test]
    fn native_structures_all_find_the_optimum(
        n in 6usize..9,
        seed in any::<u64>(),
        euclidean in any::<bool>(),
        searchers in 2usize..5,
    ) {
        // The OS-thread solver's three program structures (centralized,
        // distributed ring, distributed + load balancing) must agree
        // with the sequential solver on arbitrary instances, under real
        // scheduler nondeterminism.
        use adaptive_objects::tsp::{solve_native, NativeTspConfig, NativeVariant};
        let inst = if euclidean {
            TspInstance::random_euclidean(n, 500, seed)
        } else {
            TspInstance::random_symmetric(n, 100, seed)
        };
        let (oracle, _) = tsp_app::solve_sequential(&inst);
        for variant in NativeVariant::ALL {
            let res = solve_native(&inst, NativeTspConfig {
                searchers,
                variant,
                ..NativeTspConfig::default()
            });
            prop_assert_eq!(res.best, oracle, "structure {}", variant.label());
            let queues = if variant == NativeVariant::Centralized { 1 } else { searchers };
            prop_assert_eq!(res.per_queue_locks.len(), queues);
            prop_assert_eq!(res.dropped, 0);
        }
    }

    #[test]
    fn distributed_never_misses_work(
        n in 6usize..9,
        seed in any::<u64>(),
    ) {
        // After any distributed run, every queue must be empty and the
        // per-processor best-tour copies must have converged to the
        // global optimum (propagation completeness).
        let inst = TspInstance::random_symmetric(n, 100, seed);
        let oracle = inst.held_karp();
        let (res, _) = sim::run(SimConfig::butterfly(3), move || {
            solve_parallel(
                &inst,
                Variant::Distributed,
                TspConfig {
                    searchers: 3,
                    ..TspConfig::default()
                },
            )
        })
        .unwrap();
        prop_assert_eq!(res.best, oracle);
    }
}

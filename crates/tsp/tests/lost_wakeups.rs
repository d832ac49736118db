//! Lost wakeups in the native solver. No supervisor watches its locks,
//! so a waiter whose unpark is dropped is woken by the parker's 50 ms
//! rescue poll alone. The search must still finish exactly, with
//! nothing dropped.

use std::sync::Arc;
use std::time::Duration;

use adaptive_native::{FaultPlan, FaultSpec, PolicyChoice};
use tsp_app::{solve_native, NativeTspConfig, NativeVariant, TspInstance};

#[test]
fn dropped_unparks_are_rescued_on_every_structure() {
    let inst = TspInstance::random_euclidean(16, 500, 3);
    let oracle = inst.held_karp();
    for variant in NativeVariant::ALL {
        let name = variant.label();
        // Once the central queue's waiters convoy, nearly every release
        // is a handoff, and each dropped one idles the lock for a rescue
        // poll; the private queues of the distributed structures hand
        // off only around steals.
        let drop_one_in = if variant == NativeVariant::Centralized { 256 } else { 4 };
        // A run in which the searchers never met at a lock has no unpark
        // to drop: run again until one was.
        let mut dropped_unparks = 0;
        for seed in 0..50 {
            let plan = Arc::new(FaultPlan::new(
                FaultSpec::seeded(seed)
                    .with_unpark_drops(drop_one_in)
                    .with_unpark_delays(drop_one_in, Duration::from_micros(100))
                    // Inert under the fixed policy below, which takes no
                    // monitor samples; live if the policy ever adapts.
                    .with_monitor_stalls(4),
            ));
            let res = solve_native(
                &inst,
                NativeTspConfig {
                    searchers: 8,
                    variant,
                    // Every contended waiter parks, so every release to
                    // a waiter is an unpark the plan may drop.
                    policy: PolicyChoice::PureBlocking,
                    faults: Some(Arc::clone(&plan)),
                    ..NativeTspConfig::default()
                },
            );
            assert_eq!(res.best, oracle, "{name}, seed {seed}: exact under lost wakeups");
            assert_eq!(res.dropped, 0, "{name}, seed {seed}: nothing dropped");
            dropped_unparks = plan.report().unparks_dropped;
            if dropped_unparks > 0 {
                break;
            }
        }
        assert!(dropped_unparks > 0, "{name}: no run dropped an unpark");
    }
}

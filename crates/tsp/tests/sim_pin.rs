//! The simulated solvers are pinned: answer, search counters, virtual
//! time and `qlock` acquisitions of `solve_parallel` and
//! `solve_sequential_timed`, recorded from the commit *before*
//! expansion in place and the line-sized queue (PR 24's parent,
//! `1a97387`). Virtual time is deterministic, so any change to the
//! order nodes are queued, popped or charged in shows here as a
//! different number, not as a slower run.

use butterfly_sim::{self as sim, SimConfig};
use tsp_app::{
    solve_parallel, solve_sequential_timed, LockImpl, SearchStats, TspConfig, TspInstance, Variant,
};

const SEARCHERS: usize = 4;

fn instances() -> [(&'static str, TspInstance); 3] {
    [
        ("euclidean 12 seed 3", TspInstance::random_euclidean(12, 500, 3)),
        ("euclidean 13 seed 24", TspInstance::random_euclidean(13, 500, 24)),
        ("symmetric 14 seed 2", TspInstance::random_symmetric(14, 1000, 2)),
    ]
}

fn counters(s: SearchStats) -> [u64; 4] {
    [s.expanded, s.generated, s.tours, s.pruned]
}

/// `[best, expanded, generated, tours, pruned, virtual ns, qlock acquisitions]`.
type Row = [u64; 7];

/// One row per variant × lock family, in `Variant::ALL` order with
/// blocking before adaptive.
fn parallel_rows(inst: &TspInstance) -> Vec<Row> {
    let mut rows = Vec::new();
    for variant in Variant::ALL {
        for lock_impl in [LockImpl::Blocking, LockImpl::Adaptive { threshold: 3, n: 5 }] {
            let inst = inst.clone();
            let cfg = TspConfig {
                searchers: SEARCHERS,
                lock_impl,
                ..TspConfig::default()
            };
            let (res, _) = sim::run(SimConfig::butterfly(SEARCHERS), move || {
                solve_parallel(&inst, variant, cfg)
            })
            .unwrap();
            let [expanded, generated, tours, pruned] = counters(res.stats);
            rows.push([
                u64::from(res.best),
                expanded,
                generated,
                tours,
                pruned,
                res.elapsed.as_nanos(),
                res.qlock_stats.acquisitions,
            ]);
        }
    }
    rows
}

/// `[best, expanded, generated, tours, pruned, virtual ns]`.
fn sequential_row(inst: &TspInstance) -> [u64; 6] {
    let inst = inst.clone();
    let expand_ns_per_cell = TspConfig::default().expand_ns_per_cell;
    let ((best, stats, elapsed), _) = sim::run(SimConfig::butterfly(1), move || {
        solve_sequential_timed(&inst, expand_ns_per_cell)
    })
    .unwrap();
    let [expanded, generated, tours, pruned] = counters(stats);
    [u64::from(best), expanded, generated, tours, pruned, elapsed.as_nanos()]
}

#[rustfmt::skip]
const PARALLEL: [[Row; 6]; 3] = [
    [
        [1414, 239, 476, 1, 238, 44_757_200, 723],
        [1414, 239, 476, 1, 238, 32_396_360, 720],
        [1414, 234, 275, 1, 233, 7_835_400, 494],
        [1414, 234, 251, 1, 233, 6_826_840, 469],
        [1414, 244, 486, 1, 243, 22_732_800, 1686],
        [1414, 243, 484, 1, 242, 17_249_360, 1677],
    ],
    [
        [1690, 514, 1024, 2, 511, 95_287_240, 1545],
        [1690, 516, 1026, 2, 513, 68_313_200, 1546],
        [1690, 797, 1567, 1, 796, 25_180_080, 2376],
        [1690, 754, 1322, 3, 749, 22_612_200, 2116],
        [1690, 511, 994, 1, 510, 46_103_960, 3466],
        [1690, 513, 1011, 1, 512, 34_719_760, 3521],
    ],
    [
        [1669, 269, 536, 1, 268, 50_460_920, 813],
        [1669, 270, 534, 2, 267, 35_323_320, 808],
        [1669, 328, 566, 2, 325, 13_052_680, 918],
        [1669, 326, 562, 2, 323, 11_349_400, 908],
        [1669, 277, 550, 1, 276, 26_139_360, 1921],
        [1669, 279, 554, 2, 276, 20_490_640, 1910],
    ],
];

const SEQUENTIAL: [[u64; 6]; 3] = [
    [1414, 237, 472, 1, 236, 8_984_080],
    [1690, 513, 1024, 1, 512, 18_844_560],
    [1669, 265, 528, 1, 264, 11_342_800],
];

#[test]
fn simulated_parallel_solves_are_pinned() {
    for ((name, inst), want) in instances().iter().zip(PARALLEL) {
        assert_eq!(parallel_rows(inst), want, "{name}");
    }
}

#[test]
fn simulated_sequential_solves_are_pinned() {
    for ((name, inst), want) in instances().iter().zip(SEQUENTIAL) {
        assert_eq!(sequential_row(inst), want, "{name}");
    }
}

//! "Same tree": the search visits exactly the nodes it visited before
//! the node representation changed. The constants were recorded from
//! the commit *before* live-cell subproblems (full `n × n` matrix plus
//! alive masks) and hold on both sides of that change, through the
//! public API only.

use tsp_app::{
    solve_native, solve_sequential, Expansion, NativeTspConfig, SubProblem, TspInstance,
};

/// `(cost, expanded, generated, pruned, tours)` of a sequential solve.
type Pin = (u32, u64, u64, u64, u64);

fn pin(inst: &TspInstance) -> Pin {
    let (cost, s) = solve_sequential(inst);
    (cost, s.expanded, s.generated, s.pruned, s.tours)
}

#[test]
fn sequential_search_tree_is_pinned() {
    // Four of the benchmark pool's sixteen base instances.
    for (seed, want) in [
        (3, (1611, 7894, 15786, 7893, 1)),
        (24, (1741, 2186, 4370, 2185, 1)),
        (54, (2116, 2786, 5570, 2785, 1)),
        (70, (1635, 14669, 29336, 14668, 1)),
    ] {
        let inst = TspInstance::random_euclidean(16, 500, seed);
        assert_eq!(pin(&inst), want, "euclidean seed {seed}");
    }
    assert_eq!(pin(&TspInstance::random_symmetric(14, 1000, 2)), (1669, 265, 528, 264, 1));
    let asymmetric = TspInstance::from_matrix(
        4,
        vec![
            0, 10, 15, 20, //
            5, 0, 9, 10, //
            6, 13, 0, 12, //
            8, 8, 9, 0,
        ],
    );
    assert_eq!(pin(&asymmetric), (35, 3, 4, 2, 1));
}

/// With one searcher the native solver *is* the sequential search:
/// every counter agrees, the nodes pruned in bulk when the queue's best
/// could no longer beat the incumbent included.
#[test]
fn one_native_searcher_counts_what_the_sequential_solver_counts() {
    for seed in [19, 29] {
        let inst = TspInstance::random_euclidean(16, 500, seed);
        let (cost, stats) = solve_sequential(&inst);
        let res = solve_native(
            &inst,
            NativeTspConfig {
                searchers: 1,
                ..NativeTspConfig::default()
            },
        );
        assert_eq!(res.best, cost, "seed {seed}");
        assert_eq!(res.stats, stats, "seed {seed}");
    }
}

/// Nothing in a node is sized by a constant: a 100-city root builds and
/// a dozen expansions down the include branch run.
#[test]
fn hundred_cities_expand_without_a_size_limit() {
    let inst = TspInstance::random_euclidean(100, 10_000, 1);
    let mut node = SubProblem::root(&inst);
    assert_eq!(node.work_cells(), 100 * 100);
    for depth in 1..=12u16 {
        let Expansion::Children(children) = node.expand() else {
            panic!("a 100-city node at level {} must branch", node.level);
        };
        node = children.into_iter().next().expect("at least one child");
        assert!(node.level <= depth);
        assert_eq!(node.work_cells(), u64::from(100 - node.level).pow(2));
    }
}

//! `tsp-central`: the paper's application. A pool of Euclidean
//! instances is solved over and over by `solve_native` with the
//! centralized work queue and two searchers; every tour cost is checked
//! against the Held–Karp optimum computed in set-up.
//!
//! Hardness varies a hundredfold between instances of one size (of the
//! first 83 `random_euclidean(16, 500, ·)` seeds, sequential LMSK needs
//! 34 node expansions for one and 83 094 for another). Filtering fresh
//! instances in set-up made `setup_s` depend on the seed threefold, so
//! the pool's base instances are fixed: the first sixteen seeds whose
//! sequential search needs 2 000–20 000 expansions. `--seed` relabels
//! every instance's cities and shuffles the pool, which leaves the
//! optimum alone and sends branch-and-bound down another path (the
//! needed expansions move by a few percent).
//!
//! Work is counted in *needed* expansions (the sequential count of the
//! relabelled instance): `ops_per_s` is needed expansions per second of
//! parallel solving, and a latency sample is one solve's time per
//! needed expansion. Speculative expansions the parallel search wastes
//! therefore count against it.

use adaptive_native::MutexStats;
use tsp_app::{solve_native, solve_sequential, NativeTspConfig, NativeVariant, TspInstance};

use crate::measure::{Measured, Timeline};
use crate::trace::SpanBuf;
use crate::util::{median, now_ns, percentile, quartiles, ratio, Rng};
use crate::Sizes;

const SEARCHERS: usize = 2;
const GRID: u32 = 500;

struct Member {
    instance: TspInstance,
    optimum: u32,
    needed: u64,
}

pub struct Input {
    pool: Vec<Member>,
    /// Sequential LMSK time per expansion over the pool, from set-up.
    seq_expand_ns: f64,
}

/// The same distances under a seeded permutation of the city labels.
fn relabelled(base: &TspInstance, rng: &mut Rng) -> TspInstance {
    let n = base.n();
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut dist = vec![0u32; n * n];
    for i in 0..n {
        for j in 0..n {
            dist[label[i] * n + label[j]] = base.dist(i, j);
        }
    }
    TspInstance::from_matrix(n, dist)
}

pub fn setup(seed: u64, sizes: &Sizes) -> Input {
    let mut rng = Rng::new(seed, 0x75b);
    let (mut seq_ns, mut seq_expanded) = (0u64, 0u64);
    let mut pool: Vec<Member> = sizes
        .tsp_base_seeds
        .iter()
        .map(|&base| {
            let instance = relabelled(&TspInstance::random_euclidean(sizes.tsp_cities, GRID, base), &mut rng);
            let t = now_ns();
            let (cost, stats) = solve_sequential(&instance);
            seq_ns += now_ns() - t;
            seq_expanded += stats.expanded;
            let optimum = instance.held_karp();
            assert_eq!(cost, optimum, "sequential LMSK and Held-Karp disagree in set-up");
            Member {
                instance,
                optimum,
                needed: stats.expanded,
            }
        })
        .collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Input {
        pool,
        seq_expand_ns: seq_ns as f64 / seq_expanded as f64,
    }
}

fn add(total: &mut MutexStats, s: MutexStats) {
    total.acquisitions += s.acquisitions;
    total.contended += s.contended;
    total.parked += s.parked;
}

pub fn run(input: &mut Input, seconds: f64, trace: bool) -> Measured {
    let config = NativeTspConfig {
        searchers: SEARCHERS,
        variant: NativeVariant::Centralized,
        ..NativeTspConfig::default()
    };
    let pool_needed: u64 = input.pool.iter().map(|m| m.needed).sum();
    let tl = Timeline::starting_soon(seconds);
    let mut spans = SpanBuf::new(trace);
    // A pass over the pool is this workload's slice: the same work
    // every time, so its rate and percentiles compare between passes.
    let (mut pass_rates, mut pass_s, mut pass_p50, mut pass_p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut solves, mut wrong, mut expanded, mut needed, mut solve_ns) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut qlock, mut bestlock) = (MutexStats::default(), MutexStats::default());
    tl.wait_for_start();
    'passes: loop {
        let pass_start = now_ns();
        let mut samples = Vec::with_capacity(input.pool.len());
        for member in &input.pool {
            let t0 = now_ns();
            if t0 >= tl.end_ns() {
                break 'passes; // the unfinished pass is checked but not measured
            }
            let result = solve_native(&member.instance, config.clone());
            let t1 = now_ns();
            solves += 1;
            wrong += u64::from(result.best != member.optimum);
            expanded += result.stats.expanded;
            needed += member.needed;
            solve_ns += t1 - t0;
            samples.push(((t1 - t0) / member.needed) as u32);
            add(&mut qlock, result.queue_lock());
            add(&mut bestlock, result.best_lock());
            if spans.on {
                let root = spans.open("request", t0, solves);
                spans.child(root, "tsp.solve_native", t0, t1);
                spans.close(root, t1);
            }
        }
        let took_s = (now_ns() - pass_start) as f64 / 1e9;
        pass_rates.push(pool_needed as f64 / took_s);
        pass_s.push(took_s);
        samples.sort_unstable();
        pass_p50.push(percentile(&samples, 0.50) / 1e3);
        pass_p99.push(percentile(&samples, 0.99) / 1e3);
    }
    assert!(
        !pass_rates.is_empty(),
        "--seconds {seconds} is too short for one pass over the pool"
    );
    let par_expand_ns = solve_ns as f64 / needed as f64;
    Measured {
        attempted: solves,
        failed: wrong,
        invalid: None,
        ops_per_s: quartiles(&pass_rates),
        p50_us: median(&pass_p50),
        p99_us: median(&pass_p99),
        samples: pass_rates.len() * input.pool.len(),
        layer: vec![
            ("tsp.seq_expand_ns", input.seq_expand_ns),
            ("tsp.par_expansions", expanded as f64),
            (
                "tsp.wasted_expansion_frac",
                (expanded as f64 - needed as f64) / expanded as f64,
            ),
            ("tsp.speedup_vs_seq", input.seq_expand_ns / par_expand_ns),
            ("tsp.qlock.contended_frac", ratio(qlock.contended, qlock.acquisitions)),
            ("tsp.qlock.parked_frac", ratio(qlock.parked, qlock.acquisitions)),
            ("tsp.qlock.acq_per_expansion", ratio(qlock.acquisitions, expanded)),
            (
                "tsp.bestlock.contended_frac",
                ratio(bestlock.contended, bestlock.acquisitions),
            ),
            ("solve_s", median(&pass_s)),
        ],
        spans: vec![spans],
    }
}

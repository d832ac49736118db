//! The native perf runner: real-thread lock sweeps and TSP runs.
//!
//! Sweeps thread count × critical-section length × waiting policy over
//! the native `AdaptiveMutex` (contention microbenchmark), thread count
//! × critical-section length × lock *algorithm* over the engine zoo
//! (pinned engines plus the switching policies), and the native LMSK
//! TSP solver, prints paper-style rows, and writes
//! `BENCH_native_locks.json` + `BENCH_native_algos.json` +
//! `BENCH_native_tsp.json` at the workspace root so the bench
//! trajectory accumulates across PRs.
//!
//! ```text
//! EXPERIMENT_SCALE=quick cargo run --release -p bench --bin perf   # CI smoke
//! EXPERIMENT_SCALE=full  cargo run --release -p bench --bin perf   # real numbers
//! ```
//!
//! Each configuration runs `REPEATS` times and the best (minimum) total
//! time is kept: on a shared or single-core host, min-of-N is the
//! noise-robust estimator of the achievable time.
//!
//! Failure policy: a sweep cell that panics is recorded in the output's
//! `errors` array and the sweep continues (partial results beat no
//! results); an unwritable `BENCH_*.json` is a clear one-line error and
//! a non-zero exit, not a panic backtrace.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use adaptive_native::{LockAlgorithm, PolicyChoice};
use bench::{improvement_pct, workspace_root, Scale};
use serde::Serialize;
use serde_json::json;
use tsp_app::{solve_native, solve_sequential, NativeTspConfig, NativeVariant, TspInstance};
use workloads::{
    run_contention, run_fairness, run_structure, Backend, ContentionPoint, ContentionSpec,
    FairnessPoint, FairnessSpec, StructureKind, StructurePoint, StructureSpec,
};

/// Repeats per configuration (best-of).
const REPEATS: u32 = 3;

/// What one file of this runner is worth, written into each of them.
const DESCRIPTION: &str = "one run of `perf`: every row is one sample (the selected repeat of \
     `repeats` inside that run), so a difference between two rows or two files is not a finding \
     until it repeats over several runs (EXPERIMENTS.md, PR 16 and PR 23)";

/// The swept policies: the two static baselines and the adaptive lock.
fn policies() -> Vec<PolicyChoice> {
    vec![
        PolicyChoice::FixedSpin(100),
        PolicyChoice::PureBlocking,
        PolicyChoice::Adaptive { threshold: 2, n: 32 },
    ]
}

/// The algorithm sweep's policy axis: every pinned zoo engine plus the
/// two policies that pick for themselves (attribute tuning, and live
/// switching to the FIFO engine on the worst-wait sensor), so the JSON
/// answers both "which engine wins this regime" and "what do the
/// self-tuning policies make of it".
fn algo_policies() -> Vec<PolicyChoice> {
    let mut v: Vec<PolicyChoice> = LockAlgorithm::ALL.map(PolicyChoice::Algorithm).into();
    v.push(PolicyChoice::Adaptive { threshold: 2, n: 32 });
    v.push(PolicyChoice::FairAdaptive { unfair_wait_nanos: 200_000, patience: 3 });
    v
}

fn main() -> ExitCode {
    let scale = bench::scale();
    let scale_label = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("native perf runner — scale={scale_label}, host parallelism={cores}");

    let locks = run_lock_sweep(scale);
    let algos = run_algo_sweep(scale);
    let fairness = run_fairness_sweep(scale);
    let tsp = run_tsp_sweep(scale);
    let cell_errors =
        locks.errors.len() + algos.errors.len() + fairness.errors.len() + tsp.errors.len();

    let root = workspace_root();
    let mut ok = true;
    for (path, write) in [
        (root.join("BENCH_native_locks.json"), write_bench(&root.join("BENCH_native_locks.json"), &locks)),
        (root.join("BENCH_native_algos.json"), write_bench(&root.join("BENCH_native_algos.json"), &algos)),
        (root.join("BENCH_native_fairness.json"), write_bench(&root.join("BENCH_native_fairness.json"), &fairness)),
        (root.join("BENCH_native_tsp.json"), write_bench(&root.join("BENCH_native_tsp.json"), &tsp)),
    ] {
        if let Err(e) = write {
            eprintln!("error: could not write {}: {e}", path.display());
            ok = false;
        }
    }
    if cell_errors > 0 {
        eprintln!("warning: {cell_errors} sweep cell(s) failed; results are partial (see the errors array)");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_bench<T: Serialize>(path: &std::path::Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Render a caught panic payload as a message.
fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------- locks

#[derive(Serialize)]
struct LockBench {
    bench: &'static str,
    description: &'static str,
    scale: String,
    host_parallelism: usize,
    repeats: u32,
    rows: Vec<ContentionPoint>,
    /// Sweep cells that failed, as `"<cell>: <panic message>"`; rows
    /// holds whatever completed.
    errors: Vec<String>,
    summary: serde_json::Value,
}

fn run_lock_sweep(scale: Scale) -> LockBench {
    let (threads, cs_lens, iters): (Vec<usize>, Vec<u64>, u32) = match scale {
        Scale::Quick => (vec![2, 4, 8], vec![500, 5_000], 200),
        Scale::Full => (vec![2, 4, 8, 16], vec![200, 2_000, 20_000], 2_000),
    };

    println!();
    println!("== native lock sweep: threads x critical-section x policy ==");
    println!(
        "{:<16} {:>8} {:>10} {:>14} {:>16} {:>12}",
        "policy", "threads", "cs (ns)", "total (ms)", "ops/sec", "lat (ns)"
    );

    let mut rows: Vec<ContentionPoint> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for &t in &threads {
        for &cs in &cs_lens {
            for policy in policies() {
                let spec = ContentionSpec {
                    threads: t,
                    iters,
                    cs_nanos: cs,
                    think_nanos: cs,
                    policy,
                    seed: 0x51ee9,
                };
                let cell = catch_unwind(AssertUnwindSafe(|| {
                    (0..REPEATS)
                        .map(|_| run_contention(Backend::Native, &spec))
                        .min_by_key(|p| p.total_nanos)
                        .expect("at least one repeat")
                }));
                let best = match cell {
                    Ok(best) => best,
                    Err(payload) => {
                        let msg = format!(
                            "locks cell (policy={}, threads={t}, cs={cs}ns): {}",
                            policy.label(),
                            panic_msg(payload)
                        );
                        eprintln!("error: {msg}");
                        errors.push(msg);
                        continue;
                    }
                };
                println!(
                    "{:<16} {:>8} {:>10} {:>14.2} {:>16.0} {:>12.0}",
                    best.policy,
                    best.threads,
                    best.cs_nanos,
                    best.total_nanos as f64 / 1e6,
                    best.throughput_per_sec,
                    best.mean_latency_nanos
                );
                rows.push(best);
            }
        }
    }

    // Contended-sweep verdict: total time per policy across every
    // (threads, cs) point; the adaptive lock must stay within 10% of
    // the best static policy.
    let total = |label: &str| -> u64 {
        rows.iter()
            .filter(|r| r.policy == label)
            .map(|r| r.total_nanos)
            .sum()
    };
    let fixed = total(&PolicyChoice::FixedSpin(100).label());
    let blocking = total(&PolicyChoice::PureBlocking.label());
    let adaptive = total("simple-adapt");
    let best_static = fixed.min(blocking);
    let vs_best_pct = improvement_pct(best_static as f64, adaptive as f64);
    let within = adaptive as f64 <= best_static as f64 * 1.10;
    println!(
        "adaptive total {:.2} ms vs best static {:.2} ms ({:+.1}% improvement) -> {}",
        adaptive as f64 / 1e6,
        best_static as f64 / 1e6,
        vs_best_pct,
        if within { "WITHIN 10%" } else { "OUTSIDE 10%" }
    );

    LockBench {
        bench: "native_locks",
        description: DESCRIPTION,
        scale: format!("{:?}", scale).to_lowercase(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        repeats: REPEATS,
        rows,
        errors,
        summary: json!({
            "total_nanos_fixed_spin": fixed,
            "total_nanos_blocking": blocking,
            "total_nanos_adaptive": adaptive,
            "adaptive_vs_best_static_improvement_pct": vs_best_pct,
            "adaptive_within_10pct_of_best_static": within,
        }),
    }
}

// ----------------------------------------------------------- algorithms

/// Engine zoo sweep: thread count × critical-section length × lock
/// algorithm, same workload shape as the lock sweep. Pinned-engine rows
/// price each algorithm in each regime; the `simple-adapt` and
/// `fair-adapt` rows show what the self-tuning policies make of the
/// same regimes (the latter switching engines live through
/// `SetAlgorithm`).
fn run_algo_sweep(scale: Scale) -> LockBench {
    let (threads, cs_lens, iters): (Vec<usize>, Vec<u64>, u32) = match scale {
        Scale::Quick => (vec![2, 4, 8], vec![500, 5_000], 200),
        Scale::Full => (vec![2, 4, 8, 16], vec![200, 2_000, 20_000], 2_000),
    };

    println!();
    println!("== native algorithm sweep: threads x critical-section x engine ==");
    println!(
        "{:<16} {:>8} {:>10} {:>14} {:>16} {:>12}",
        "engine", "threads", "cs (ns)", "total (ms)", "ops/sec", "lat (ns)"
    );

    let mut rows: Vec<ContentionPoint> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for &t in &threads {
        for &cs in &cs_lens {
            for policy in algo_policies() {
                let spec = ContentionSpec {
                    threads: t,
                    iters,
                    cs_nanos: cs,
                    think_nanos: cs,
                    policy,
                    seed: 0x51ee9,
                };
                let cell = catch_unwind(AssertUnwindSafe(|| {
                    (0..REPEATS)
                        .map(|_| run_contention(Backend::Native, &spec))
                        .min_by_key(|p| p.total_nanos)
                        .expect("at least one repeat")
                }));
                let best = match cell {
                    Ok(best) => best,
                    Err(payload) => {
                        let msg = format!(
                            "algos cell (engine={}, threads={t}, cs={cs}ns): {}",
                            policy.label(),
                            panic_msg(payload)
                        );
                        eprintln!("error: {msg}");
                        errors.push(msg);
                        continue;
                    }
                };
                println!(
                    "{:<16} {:>8} {:>10} {:>14.2} {:>16.0} {:>12.0}",
                    best.policy,
                    best.threads,
                    best.cs_nanos,
                    best.total_nanos as f64 / 1e6,
                    best.throughput_per_sec,
                    best.mean_latency_nanos
                );
                rows.push(best);
            }
        }
    }

    // Per-regime winners among the pinned engines, and the best single
    // engine's total over the whole sweep.
    let pinned: Vec<String> = LockAlgorithm::ALL
        .iter()
        .map(|a| a.label().to_string())
        .collect();
    let mut winners: Vec<serde_json::Value> = Vec::new();
    for &t in &threads {
        for &cs in &cs_lens {
            let best = rows
                .iter()
                .filter(|r| r.threads == t && r.cs_nanos == cs && pinned.contains(&r.policy))
                .min_by_key(|r| r.total_nanos);
            if let Some(b) = best {
                winners.push(json!({
                    "threads": t,
                    "cs_nanos": cs,
                    "engine": (b.policy.clone()),
                    "total_nanos": (b.total_nanos),
                }));
            }
        }
    }
    let total = |label: &str| -> u64 {
        rows.iter()
            .filter(|r| r.policy == label)
            .map(|r| r.total_nanos)
            .sum()
    };
    let best_pinned = pinned.iter().map(|l| total(l)).filter(|&x| x > 0).min().unwrap_or(0);
    println!("best pinned engine total {:.2} ms", best_pinned as f64 / 1e6);

    LockBench {
        bench: "native_algos",
        description: DESCRIPTION,
        scale: format!("{:?}", scale).to_lowercase(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        repeats: REPEATS,
        rows,
        errors,
        summary: json!({
            "regime_winners": winners,
            "total_nanos_best_pinned_engine": best_pinned,
        }),
    }
}

// ------------------------------------------------------------- fairness

#[derive(Serialize)]
struct FairnessBench {
    bench: &'static str,
    description: &'static str,
    scale: String,
    host_parallelism: usize,
    repeats: u32,
    /// Why fairness rows keep the median repeat, not the fastest.
    selection: &'static str,
    /// Native synthetic fairness sweep: threads × policy × imbalance ×
    /// non-critical-section length.
    rows: Vec<FairnessPoint>,
    /// Simulator rows for the same imbalanced shape (virtual time,
    /// deterministic), so the two backends stay comparable.
    sim_rows: Vec<FairnessPoint>,
    /// Real-structure rows: lock-protected counter vs lock-free CAS,
    /// queue, hashmap.
    structure_rows: Vec<StructurePoint>,
    /// Sweep cells that failed, as `"<cell>: <panic message>"`.
    errors: Vec<String>,
    summary: serde_json::Value,
}

/// One (imbalance, non-critical-section length) regime.
#[derive(Clone, Copy)]
struct FairRegime {
    /// Group B gets a 3000-iteration critical section (vs A's 1000).
    imbalanced: bool,
    /// Busy-loop iterations between acquisitions.
    ncs: u32,
}

/// The swept regimes: the full non-critical-section ladder
/// (0/10/100/1k/10k/100k iterations, saturated → rare) on the balanced
/// shape, plus the imbalanced 1000-vs-3000 shape at the contended end
/// where fairness collapse lives.
fn fairness_regimes(scale: Scale) -> Vec<FairRegime> {
    match scale {
        Scale::Quick => vec![
            FairRegime { imbalanced: false, ncs: 0 },
            FairRegime { imbalanced: true, ncs: 0 },
            FairRegime { imbalanced: false, ncs: 100 },
            FairRegime { imbalanced: true, ncs: 100 },
            FairRegime { imbalanced: false, ncs: 10_000 },
        ],
        Scale::Full => vec![
            FairRegime { imbalanced: false, ncs: 0 },
            FairRegime { imbalanced: true, ncs: 0 },
            FairRegime { imbalanced: false, ncs: 10 },
            FairRegime { imbalanced: false, ncs: 100 },
            FairRegime { imbalanced: true, ncs: 100 },
            FairRegime { imbalanced: false, ncs: 1_000 },
            FairRegime { imbalanced: true, ncs: 1_000 },
            FairRegime { imbalanced: false, ncs: 10_000 },
            FairRegime { imbalanced: false, ncs: 100_000 },
        ],
    }
}

/// The repeat with the median total time. Fairness cells must NOT keep
/// the fastest repeat like the timing sweeps do: a barging engine's
/// fastest run is systematically its most *unfair* one (one thread
/// streaks through cache-hot), so min-by-time selection would censor
/// exactly the collapse this sweep measures.
fn median_by_total(mut runs: Vec<FairnessPoint>) -> FairnessPoint {
    runs.sort_by_key(|p| p.total_nanos);
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

fn run_fairness_sweep(scale: Scale) -> FairnessBench {
    let (threads, base_iters, repeats): (Vec<usize>, u32, u32) = match scale {
        Scale::Quick => (vec![2, 4], 40, 1),
        Scale::Full => (vec![2, 4, 8], 240, 3),
    };
    let (cs_a, cs_b_imbalanced) = (1_000u32, 3_000u32);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!();
    println!("== native fairness sweep: threads x policy x imbalance x ncs ==");
    println!(
        "{:<16} {:>8} {:>6} {:>8} {:>10} {:>8} {:>8} {:>12} {:>12}",
        "policy", "threads", "imbal", "ncs", "total(ms)", "jain", "spread", "lat(ns)", "ns/op"
    );

    let mut rows: Vec<FairnessPoint> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for &t in &threads {
        for regime in fairness_regimes(scale) {
            // Long think times multiply wall time on an oversubscribed
            // host; shrink the per-thread quota so the rare-visit end of
            // the ladder stays affordable without losing its regime.
            let iters = (base_iters / (1 + regime.ncs / 2_000)).max(32);
            for policy in algo_policies() {
                let spec = FairnessSpec {
                    threads: t,
                    group_a: (t / 2).max(1),
                    iters,
                    cs_iters_a: cs_a,
                    cs_iters_b: if regime.imbalanced { cs_b_imbalanced } else { cs_a },
                    ncs_iters: regime.ncs,
                    policy,
                    seed: 0x51ee9,
                };
                let cell = catch_unwind(AssertUnwindSafe(|| {
                    median_by_total(
                        (0..repeats).map(|_| run_fairness(Backend::Native, &spec)).collect(),
                    )
                }));
                let point = match cell {
                    Ok(point) => point,
                    Err(payload) => {
                        let msg = format!(
                            "fairness cell (policy={}, threads={t}, imbalanced={}, ncs={}): {}",
                            policy.label(),
                            regime.imbalanced,
                            regime.ncs,
                            panic_msg(payload)
                        );
                        eprintln!("error: {msg}");
                        errors.push(msg);
                        continue;
                    }
                };
                println!(
                    "{:<16} {:>8} {:>6} {:>8} {:>10.2} {:>8.3} {:>8.2} {:>12.0} {:>12.0}",
                    point.policy,
                    point.threads,
                    point.imbalanced,
                    point.ncs_iters,
                    point.total_nanos as f64 / 1e6,
                    point.fairness_index,
                    point.thread_spread,
                    point.mean_latency_nanos,
                    point.wall_nanos_per_op,
                );
                rows.push(point);
            }
        }
    }

    // Simulator rows, same imbalanced shape: deterministic, one run.
    let mut sim_rows: Vec<FairnessPoint> = Vec::new();
    for imbalanced in [false, true] {
        for policy in algo_policies() {
            let spec = FairnessSpec {
                threads: 4,
                group_a: 2,
                iters: 40,
                cs_iters_a: cs_a,
                cs_iters_b: if imbalanced { cs_b_imbalanced } else { cs_a },
                ncs_iters: 100,
                policy,
                seed: 0x51ee9,
            };
            match catch_unwind(AssertUnwindSafe(|| run_fairness(Backend::Sim, &spec))) {
                Ok(p) => sim_rows.push(p),
                Err(payload) => {
                    let msg = format!(
                        "sim fairness cell (policy={}, imbalanced={imbalanced}): {}",
                        policy.label(),
                        panic_msg(payload)
                    );
                    eprintln!("error: {msg}");
                    errors.push(msg);
                }
            }
        }
    }

    // Real-structure rows: every lock-protected structure under every
    // policy, plus the lock-free CAS baseline once per thread count.
    println!();
    println!("== native structure sweep: structure x policy x threads ==");
    println!(
        "{:<12} {:<16} {:>8} {:>10} {:>14} {:>8} {:>12}",
        "structure", "policy", "threads", "total(ms)", "ops/sec", "jain", "lat(ns)"
    );
    let structure_iters = match scale {
        Scale::Quick => 150,
        Scale::Full => 1_500,
    };
    let mut structure_rows: Vec<StructurePoint> = Vec::new();
    for &t in &threads {
        for structure in StructureKind::ALL {
            let policies: Vec<PolicyChoice> = if structure.lock_protected() {
                algo_policies()
            } else {
                vec![PolicyChoice::FixedSpin(64)] // ignored; one baseline row
            };
            for policy in policies {
                let spec = StructureSpec {
                    structure,
                    threads: t,
                    iters: structure_iters,
                    ncs_iters: 100,
                    policy,
                };
                match catch_unwind(AssertUnwindSafe(|| run_structure(&spec))) {
                    Ok(p) => {
                        println!(
                            "{:<12} {:<16} {:>8} {:>10.2} {:>14.0} {:>8.3} {:>12.0}",
                            p.structure,
                            p.policy,
                            p.threads,
                            p.total_nanos as f64 / 1e6,
                            p.throughput_per_sec,
                            p.fairness_index,
                            p.mean_latency_nanos,
                        );
                        structure_rows.push(p);
                    }
                    Err(payload) => {
                        let msg = format!(
                            "structure cell (structure={}, policy={}, threads={t}): {}",
                            structure.label(),
                            policy.label(),
                            panic_msg(payload)
                        );
                        eprintln!("error: {msg}");
                        errors.push(msg);
                    }
                }
            }
        }
    }

    let summary = fairness_summary(&rows, &structure_rows, &threads);
    FairnessBench {
        bench: "native_fairness",
        description: DESCRIPTION,
        scale: format!("{:?}", scale).to_lowercase(),
        host_parallelism: host,
        repeats,
        selection: "fairness rows keep the median-by-total repeat: a barging engine's \
                    fastest repeat is systematically its most unfair one, so min-by-time \
                    would censor the collapse",
        rows,
        sim_rows,
        structure_rows,
        errors,
        summary,
    }
}

/// Per-regime fairness winners, the FIFO-vs-spin-park separation
/// verdict, and the CAS-vs-lock counter ratio.
fn fairness_summary(
    rows: &[FairnessPoint],
    structure_rows: &[StructurePoint],
    threads: &[usize],
) -> serde_json::Value {
    let pinned: Vec<&str> = LockAlgorithm::ALL.iter().map(|a| a.label()).collect();
    let fifo_engine = LockAlgorithm::Ticket.label();
    let spin_park = LockAlgorithm::SpinPark.label();

    // Group native rows by regime.
    let mut regimes: Vec<(usize, bool, u32)> = rows
        .iter()
        .map(|r| (r.threads, r.imbalanced, r.ncs_iters))
        .collect();
    regimes.sort_unstable();
    regimes.dedup();

    struct Separation {
        sep: f64,
        threads: usize,
        imbalanced: bool,
        ncs_iters: u32,
        fifo_fairness: f64,
        fifo_spread: f64,
        spin_park_fairness: f64,
        spin_park_spread: f64,
    }

    let mut winners: Vec<serde_json::Value> = Vec::new();
    let mut best_sep: Option<Separation> = None;
    for &(t, imb, ncs) in &regimes {
        let regime_rows: Vec<&FairnessPoint> = rows
            .iter()
            .filter(|r| r.threads == t && r.imbalanced == imb && r.ncs_iters == ncs)
            .collect();
        let fairest = regime_rows
            .iter()
            .filter(|r| pinned.contains(&r.policy.as_str()))
            .max_by(|a, b| a.fairness_index.total_cmp(&b.fairness_index));
        if let Some(w) = fairest {
            winners.push(json!({
                "threads": t,
                "imbalanced": imb,
                "ncs_iters": ncs,
                "engine": (w.policy.clone()),
                "fairness_index": (w.fairness_index),
                "thread_spread": (w.thread_spread),
            }));
        }
        // FIFO-vs-spin-park separation: does the FIFO engine hold Jain >=
        // 0.9 in a regime where the barging spin-park engine degrades?
        let sp = regime_rows.iter().find(|r| r.policy == spin_park);
        let fifo = regime_rows.iter().find(|r| r.policy == fifo_engine);
        if let (Some(sp), Some(fifo)) = (sp, fifo) {
            if fifo.fairness_index >= 0.9 {
                let sep = fifo.fairness_index - sp.fairness_index;
                if best_sep.as_ref().is_none_or(|best| sep > best.sep) {
                    best_sep = Some(Separation {
                        sep,
                        threads: t,
                        imbalanced: imb,
                        ncs_iters: ncs,
                        fifo_fairness: fifo.fairness_index,
                        fifo_spread: fifo.thread_spread,
                        spin_park_fairness: sp.fairness_index,
                        spin_park_spread: sp.thread_spread,
                    });
                }
            }
        }
    }
    let fifo_fair_while_spin_park_degrades = best_sep.as_ref().map(|s| s.sep >= 0.10);
    match &best_sep {
        Some(s) => println!(
            "fairness separation: {} jain {:.3} vs spin-park {:.3} (sep {:.3}) at \
             threads={} imbalanced={} ncs={} -> {}",
            fifo_engine,
            s.fifo_fairness,
            s.spin_park_fairness,
            s.sep,
            s.threads,
            s.imbalanced,
            s.ncs_iters,
            if s.sep >= 0.10 { "FIFO FAIR WHERE SPIN-PARK DEGRADES" } else { "SEPARATION < 0.10" }
        ),
        None => println!("fairness separation: no regime with the FIFO engine at jain >= 0.9"),
    }

    // CAS baseline vs the lock-protected counter at the highest thread
    // count: what the cheapest possible synchronization buys.
    let max_t = threads.iter().copied().max().unwrap_or(1);
    let cas = structure_rows
        .iter()
        .find(|r| r.structure == "cas-counter" && r.threads == max_t);
    let best_lock_counter = structure_rows
        .iter()
        .filter(|r| r.structure == "counter" && r.threads == max_t)
        .max_by(|a, b| a.throughput_per_sec.total_cmp(&b.throughput_per_sec));
    let cas_vs_lock = match (cas, best_lock_counter) {
        (Some(c), Some(l)) if l.throughput_per_sec > 0.0 => {
            let ratio = c.throughput_per_sec / l.throughput_per_sec;
            println!(
                "cas-counter {:.0} ops/sec vs best lock counter ({}) {:.0} ops/sec = {ratio:.2}x \
                 at {max_t} threads",
                c.throughput_per_sec, l.policy, l.throughput_per_sec
            );
            json!({
                "threads": max_t,
                "cas_ops_per_sec": (c.throughput_per_sec),
                "best_lock_policy": (l.policy.clone()),
                "best_lock_ops_per_sec": (l.throughput_per_sec),
                "cas_speedup": ratio,
            })
        }
        _ => serde_json::Value::Null,
    };

    let fifo_vs_spin_park = match &best_sep {
        Some(s) => json!({
            "threads": (s.threads),
            "imbalanced": (s.imbalanced),
            "ncs_iters": (s.ncs_iters),
            "fifo_engine": fifo_engine,
            "fifo_fairness_index": (s.fifo_fairness),
            "fifo_thread_spread": (s.fifo_spread),
            "spin_park_fairness_index": (s.spin_park_fairness),
            "spin_park_thread_spread": (s.spin_park_spread),
            "separation": (s.sep),
        }),
        None => serde_json::Value::Null,
    };
    json!({
        "regime_fairness_winners": winners,
        "fifo_vs_spin_park": fifo_vs_spin_park,
        "fifo_fair_while_spin_park_degrades": fifo_fair_while_spin_park_degrades,
        "cas_vs_lock_counter": cas_vs_lock,
    })
}

// ------------------------------------------------------------------ tsp

#[derive(Serialize)]
struct TspRow {
    /// Program structure: `centralized`, `distributed`, `distributed+lb`.
    structure: String,
    policy: String,
    searchers: usize,
    /// More searcher threads than host parallelism: timing reflects
    /// scheduler time-slicing, not lock contention. Read the contended
    /// counters, not the wall clock, on such rows.
    oversubscribed: bool,
    elapsed_nanos: u64,
    expanded: u64,
    expansions_per_sec: f64,
    /// Tour cost the run returned; must equal `optimal_cost`.
    tour_cost: u32,
    /// Summed over every per-searcher queue lock.
    queue_lock_acquisitions: u64,
    queue_lock_contended: u64,
    queue_lock_parked: u64,
    queue_lock_reconfigurations: u64,
    /// Contended `qlock` acquisitions per node expansion — the paper's
    /// contention-collapse axis (centralized vs distributed).
    contended_per_expansion: f64,
    /// Contended acquisitions broken out per queue (one entry for
    /// centralized, `searchers` entries for the distributed structures).
    per_queue_contended: Vec<u64>,
    steals: u64,
    steal_failures: u64,
    transfers: u64,
    balance_pushes: u64,
}

#[derive(Serialize)]
struct TspBench {
    bench: &'static str,
    description: &'static str,
    scale: String,
    host_parallelism: usize,
    cities: usize,
    seed: u64,
    sequential_nanos: u64,
    optimal_cost: u32,
    repeats: u32,
    rows: Vec<TspRow>,
    /// Sweep cells that failed, as `"<cell>: <panic message>"`; rows
    /// holds whatever completed.
    errors: Vec<String>,
    summary: serde_json::Value,
}

fn run_tsp_sweep(scale: Scale) -> TspBench {
    // Instances chosen for search-tree size, not city count: seed 3 is
    // a hard Euclidean layout (~240 expansions at 12 cities, ~7900 at
    // 16), so the search outlives thread spawn and the searchers
    // genuinely overlap — tiny trees finish inside worker 0's first
    // scheduler quantum and every contention/steal counter reads zero,
    // and short runs turn the contended counters into a preemption
    // lottery on few-core hosts.
    let (cities, searchers): (usize, Vec<usize>) = match scale {
        Scale::Quick => (12, vec![1, 2, 4]),
        Scale::Full => (16, vec![1, 2, 4, 8]),
    };
    let seed = 3;
    let inst = TspInstance::random_euclidean(cities, 500, seed);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    let t0 = std::time::Instant::now();
    let (optimal, _) = solve_sequential(&inst);
    let sequential = t0.elapsed();

    println!();
    println!("== native TSP (LMSK, {cities} cities): structure x policy x searchers ==");
    println!("sequential baseline: {:.2} ms (optimal {optimal})", sequential.as_secs_f64() * 1e3);
    println!(
        "{:<16} {:<16} {:>6} {:>12} {:>14} {:>10} {:>12} {:>8}",
        "structure", "policy", "srch", "total (ms)", "exp/sec", "contended", "cont/exp", "steals"
    );

    let mut rows: Vec<TspRow> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for &s in &searchers {
        for variant in NativeVariant::ALL {
            for policy in policies() {
                let cfg = NativeTspConfig {
                    searchers: s,
                    variant,
                    policy,
                    ..NativeTspConfig::default()
                };
                let cell = catch_unwind(AssertUnwindSafe(|| {
                    let mut runs = Vec::with_capacity(REPEATS as usize);
                    for _ in 0..REPEATS {
                        let res = solve_native(&inst, cfg.clone());
                        assert_eq!(res.best, optimal, "parallel search must stay exact");
                        runs.push(res);
                    }
                    runs
                }));
                let runs = match cell {
                    Ok(runs) => runs,
                    Err(payload) => {
                        let msg = format!(
                            "tsp cell (structure={}, policy={}, searchers={s}): {}",
                            variant.label(),
                            policy.label(),
                            panic_msg(payload)
                        );
                        eprintln!("error: {msg}");
                        errors.push(msg);
                        continue;
                    }
                };
                // Timing fields come from the best-of-REPEATS run (the
                // usual least-noise estimator). Counter fields are SUMMED
                // across all repeats instead: on a contended host the
                // fastest run is systematically the one where the
                // centralized qlock cascade did NOT ignite, so min-by-time
                // selection would silently censor exactly the contention
                // this sweep exists to measure.
                let best_run = runs
                    .iter()
                    .min_by_key(|r| r.elapsed)
                    .expect("at least one repeat");
                let nanos = best_run.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
                let expanded: u64 = runs.iter().map(|r| r.stats.expanded).sum();
                // Merge each run's per-queue counters exactly once, after
                // all timing is in hand: the aggregation is lazy on
                // NativeResult precisely so it stays out of the timed
                // region and is never recomputed per consumed field.
                let merged: Vec<_> = runs.iter().map(|r| r.queue_lock()).collect();
                let contended: u64 = merged.iter().map(|q| q.contended).sum();
                let nq = best_run.per_queue_locks.len();
                let per_queue_contended: Vec<u64> = (0..nq)
                    .map(|i| {
                        runs.iter()
                            .map(|r| r.per_queue_locks.get(i).map_or(0, |q| q.contended))
                            .sum()
                    })
                    .collect();
                let row = TspRow {
                    structure: variant.label().to_string(),
                    policy: policy.label(),
                    searchers: s,
                    oversubscribed: s > host,
                    elapsed_nanos: nanos,
                    expanded,
                    expansions_per_sec: best_run.stats.expanded as f64
                        / (nanos.max(1) as f64 / 1e9),
                    tour_cost: best_run.best,
                    queue_lock_acquisitions: merged.iter().map(|q| q.acquisitions).sum(),
                    queue_lock_contended: contended,
                    queue_lock_parked: merged.iter().map(|q| q.parked).sum(),
                    queue_lock_reconfigurations: merged
                        .iter()
                        .map(|q| q.reconfigurations)
                        .sum(),
                    contended_per_expansion: contended as f64 / expanded.max(1) as f64,
                    per_queue_contended,
                    steals: runs.iter().map(|r| r.steals).sum(),
                    steal_failures: runs.iter().map(|r| r.steal_failures).sum(),
                    transfers: runs.iter().map(|r| r.transfers).sum(),
                    balance_pushes: runs.iter().map(|r| r.balance_pushes).sum(),
                };
                println!(
                    "{:<16} {:<16} {:>6} {:>12.2} {:>14.0} {:>10} {:>12.4} {:>8}",
                    row.structure,
                    row.policy,
                    row.searchers,
                    nanos as f64 / 1e6,
                    row.expansions_per_sec,
                    row.queue_lock_contended,
                    row.contended_per_expansion,
                    row.steals
                );
                rows.push(row);
            }
        }
    }

    // Contention-collapse verdict at the highest swept searcher count:
    // contended qlock acquisitions per expansion, summed across policies,
    // for each structure vs centralized.
    let max_s = searchers.iter().copied().max().unwrap_or(1);
    let per_exp = |structure: &str| -> f64 {
        let (contended, expanded) = rows
            .iter()
            .filter(|r| r.searchers == max_s && r.structure == structure)
            .fold((0u64, 0u64), |(c, e), r| (c + r.queue_lock_contended, e + r.expanded));
        contended as f64 / expanded.max(1) as f64
    };
    let central = per_exp("centralized");
    let distributed = per_exp("distributed");
    let balanced = per_exp("distributed+lb");
    // Ratio >= 5 means the structure relieved the central qlock by 5x;
    // a structure with zero contended acquisitions collapses infinitely
    // (reported as f64::INFINITY -> serialized as null, flag still true).
    // On a single-core host even the centralized baseline can read zero
    // (contention needs a mid-CS preemption there), which satisfies the
    // 5x bound vacuously; `collapse_vacuous` records that so readers
    // don't mistake an idle baseline for a measured collapse.
    let ratio = |x: f64| if x > 0.0 { central / x } else { f64::INFINITY };
    let collapse_ok = ratio(distributed) >= 5.0 && ratio(balanced) >= 5.0;
    let vacuous = central == 0.0;
    println!(
        "contended/expansion at {max_s} searchers: centralized {central:.4}, \
         distributed {distributed:.4} ({:.1}x), distributed+lb {balanced:.4} ({:.1}x) -> {}{}",
        ratio(distributed),
        ratio(balanced),
        if collapse_ok { "COLLAPSE >= 5x" } else { "COLLAPSE < 5x" },
        if vacuous { " (vacuous: uncontended baseline)" } else { "" }
    );

    TspBench {
        bench: "native_tsp",
        description: DESCRIPTION,
        scale: format!("{:?}", scale).to_lowercase(),
        host_parallelism: host,
        cities,
        seed,
        sequential_nanos: sequential.as_nanos().min(u128::from(u64::MAX)) as u64,
        optimal_cost: optimal,
        repeats: REPEATS,
        rows,
        errors,
        summary: json!({
            "max_searchers": max_s,
            "contended_per_expansion_centralized": central,
            "contended_per_expansion_distributed": distributed,
            "contended_per_expansion_balanced": balanced,
            "distributed_collapse_ratio": (ratio(distributed)),
            "balanced_collapse_ratio": (ratio(balanced)),
            "contention_collapse_at_least_5x": collapse_ok,
            "collapse_vacuous": vacuous,
        }),
    }
}

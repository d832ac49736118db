//! `agree`: do two sets of runs of the same build tell the same story?
//!
//! Runs `sets` independent sets of `runs` untraced runs of every
//! workload, each run on another seed, and prints per workload and
//! end-to-end metric each set's median and quartiles, how much worse
//! every later set's median is than the first's, and the metric's
//! bound. A difference beyond the bound or a failed oracle makes the
//! exit code non-zero; an invalid run is reported.

use std::process::ExitCode;

use crate::util::quartiles;
use crate::{run_workload, spec, Sizes};

/// One set's values: `[workload][metric]` holds one value per run.
type Set = Vec<Vec<Vec<f64>>>;

pub fn run(sets: usize, runs: usize, seconds: f64, only: Option<&str>, sizes: &Sizes) -> ExitCode {
    println!("{}", crate::host::facts());
    // The workloads `BENCHMARK.json` lists: the others make no promise.
    let workloads: Vec<&str> = spec::WORKLOADS
        .iter()
        .filter(|w| only.map_or(w.listed, |o| o == w.name))
        .map(|w| w.name)
        .collect();
    let mut agreed = true;
    let mut all: Vec<Set> = Vec::new();
    for set in 0..sets {
        let mut values: Set = vec![vec![Vec::new(); spec::END_TO_END.len()]; workloads.len()];
        for run in 0..runs {
            let seed = (1 + set * runs + run) as u64;
            for (name, per_metric) in workloads.iter().zip(&mut values) {
                let outcome = run_workload(name, seed, seconds, false, sizes).expect("a workload of the spec");
                if !outcome.correct() {
                    println!(
                        "set {set} seed {seed} {name}: {} failed of {}",
                        outcome.plain.failed, outcome.plain.attempted
                    );
                    agreed = false;
                }
                // Reported, not fatal: the medians compared below are
                // there to shrug off a spoiled run.
                if let Some(why) = &outcome.plain.invalid {
                    println!("set {set} seed {seed} {name}: invalid: {why}");
                }
                for (metric, runs) in spec::END_TO_END.iter().zip(per_metric) {
                    runs.push(outcome.end_to_end(metric.name));
                }
                eprintln!("set {set} seed {seed} {name} done");
            }
        }
        all.push(values);
    }
    println!(
        "{:<12} {:<10} {:>4} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "set", "q1", "median", "q3", "spread", "worse", "bound"
    );
    for (w, name) in workloads.iter().enumerate() {
        for (m, metric) in spec::END_TO_END.iter().enumerate() {
            let first = quartiles(&all[0][w][m]).1;
            for (set, values) in all.iter().enumerate() {
                let (q1, q2, q3) = quartiles(&values[w][m]);
                // Positive when this set reads worse than the first.
                let worse = if metric.higher_is_better {
                    first - q2
                } else {
                    q2 - first
                } / first;
                let verdict = if worse.abs() > metric.bound { "DISAGREE" } else { "" };
                agreed &= verdict.is_empty();
                println!(
                    "{name:<12} {:<10} {set:>4} {q1:>14.4} {q2:>14.4} {q3:>14.4} {:>8.4} {worse:>+8.4} {:>6.2} {verdict}",
                    metric.name,
                    (q3 - q1) / q2,
                    metric.bound
                );
            }
        }
    }
    if agreed {
        println!("the sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("the sets do not agree");
        ExitCode::FAILURE
    }
}

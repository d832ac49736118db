//! `crowd` — ROADMAP item 2's contention cells on real cores.
//!
//! Does the adaptive lock track the better of spinning and blocking
//! when threads crowd one lock (PAPER.md §1 item 2)? Five cells ask it:
//! 2 × 2 µs with 20 000 acquisitions per thread, 8 × 2 µs with 5 000,
//! 16 × 200 ns with 5 000, 8 × 50 µs with 200 and 4 × 20 µs with 500
//! (threads × critical section), each with a non-critical section (NCS)
//! of a quarter of the critical section. Every [`PolicyChoice`] of the
//! lock axis runs through [`workloads::run_contention`]; `std::sync::Mutex`
//! and a barging `Mutex<bool>` + `Condvar` lock run the same loop
//! through [`workloads::backend::run_native_workers`]. Two more cells
//! run the imbalanced fairness shape through [`workloads::run_fairness`]:
//! 4 + 4 threads holding the lock for 1000 and 3000 busy-loop
//! iterations, at an NCS of 0 and of 100.
//!
//! Every (cell, lock) runs 5 times, the locks of a cell taking turns,
//! and keeps the repeat with the median total time beside the q1–q3 of
//! the five. A cell with more threads than the host has hardware
//! threads is flagged `oversubscribed`. After the tables, every
//! (cell, lock) prints one line in the stack benchmark's result-line
//! shape, led by its `cell` and `lock`; `correct` is false, and the exit
//! status non-zero, when a repeat lost an update.
//!
//! ```text
//! EXPERIMENT_SCALE=quick cargo run --release -p bench --bin crowd   # a tenth of the ops
//! EXPERIMENT_SCALE=full  cargo run --release -p bench --bin crowd
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use adaptive_native::{LockAlgorithm, PolicyChoice};
use bench::Scale;
use workloads::backend::{busy_wait, run_native_workers, saturating_nanos};
use workloads::{
    jains_index, run_contention, run_fairness, Backend, ContentionSpec, FairnessSpec,
    LatencyHistogram,
};

/// Runs per (cell, lock).
const REPEATS: usize = 5;

/// Item 2's cells at full scale: threads, critical section (ns), ops
/// per thread.
const CROWD_CELLS: [(usize, u64, u32); 5] =
    [(2, 2_000, 20_000), (8, 2_000, 5_000), (16, 200, 5_000), (8, 50_000, 200), (4, 20_000, 500)];

/// The fairness cells' NCS lengths (busy-loop iterations); 8 threads,
/// 400 ops each at full scale.
const FAIR_NCS: [u32; 2] = [0, 100];

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every thread holds the lock for `cs_nanos`, then spends
    /// `cs_nanos / 4` outside it.
    Crowd { cs_nanos: u64 },
    /// Half the threads hold it for 1000 busy-loop iterations and half
    /// for 3000, with `ncs_iters` between acquisitions.
    Fair { ncs_iters: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    shape: Shape,
    threads: usize,
    /// Ops per thread.
    iters: u32,
}

impl Cell {
    fn name(&self) -> String {
        match self.shape {
            Shape::Crowd { cs_nanos } if cs_nanos.is_multiple_of(1_000) => {
                format!("{}x{}us", self.threads, cs_nanos / 1_000)
            }
            Shape::Crowd { cs_nanos } => format!("{}x{cs_nanos}ns", self.threads),
            Shape::Fair { ncs_iters } => format!("fair-{0}+{0}-ncs{ncs_iters}", self.threads / 2),
        }
    }

    /// Every policy, and on the crowd cells the two other locks.
    fn locks(&self) -> Vec<Lock> {
        let mut policies = vec![
            PolicyChoice::FixedSpin(100),
            PolicyChoice::PureBlocking,
            PolicyChoice::Adaptive { threshold: 2, n: 32 },
        ];
        policies.extend(LockAlgorithm::ALL.map(PolicyChoice::Algorithm));
        policies.push(PolicyChoice::FairAdaptive { unfair_wait_nanos: 200_000, patience: 3 });
        let mut locks: Vec<Lock> = policies.into_iter().map(Lock::Policy).collect();
        if matches!(self.shape, Shape::Crowd { .. }) {
            locks.extend([Lock::Std, Lock::Barging]);
        }
        locks
    }
}

/// Every cell at `scale`: quick runs a tenth of the ops.
fn cells(scale: Scale) -> Vec<Cell> {
    let div = if scale == Scale::Quick { 10 } else { 1 };
    let crowd = CROWD_CELLS.map(|(threads, cs_nanos, iters)| Cell {
        shape: Shape::Crowd { cs_nanos },
        threads,
        iters: iters / div,
    });
    let fair = FAIR_NCS.map(|ncs_iters| Cell {
        shape: Shape::Fair { ncs_iters },
        threads: 8,
        iters: 400 / div,
    });
    crowd.into_iter().chain(fair).collect()
}

/// The static settings of the engine `simple-adapt` tunes, which
/// `crowd.adaptive_vs_best_static` compares it with.
fn static_labels() -> [String; 3] {
    [
        PolicyChoice::FixedSpin(100).label(),
        LockAlgorithm::SpinPark.label().into(),
        PolicyChoice::PureBlocking.label(),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Lock {
    /// An `AdaptiveMutex` built by [`PolicyChoice::build_mutex`].
    Policy(PolicyChoice),
    /// `std::sync::Mutex<u64>`.
    Std,
    /// [`BargingLock`].
    Barging,
}

impl Lock {
    fn label(&self) -> String {
        match self {
            Lock::Policy(p) => p.label(),
            Lock::Std => "std-mutex".into(),
            Lock::Barging => "barging-condvar".into(),
        }
    }
}

/// A lock that guards a counter.
trait Baseline: Sync {
    /// Run `cs` on the counter with the lock held.
    fn locked(&self, cs: impl FnOnce(&mut u64));
    /// The counter, once every worker is done.
    fn count(self) -> u64;
}

impl Baseline for Mutex<u64> {
    fn locked(&self, cs: impl FnOnce(&mut u64)) {
        cs(&mut self.lock().unwrap_or_else(PoisonError::into_inner));
    }

    fn count(self) -> u64 {
        self.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// ROADMAP item 2's blocking lock without a handoff: a waiter sleeps on
/// the condvar while the flag is set, and unlock clears the flag and
/// wakes one waiter, which must win it again against any newcomer. It
/// never spins.
#[derive(Default)]
struct BargingLock {
    held: Mutex<bool>,
    freed: Condvar,
    /// Read and written only with `held` set: the `held` mutex's unlock
    /// and the next owner's lock order these `Relaxed` accesses, and a
    /// failure of mutual exclusion shows as a lost update.
    value: AtomicU64,
}

impl Baseline for BargingLock {
    fn locked(&self, cs: impl FnOnce(&mut u64)) {
        let mut held = self.held.lock().unwrap_or_else(PoisonError::into_inner);
        while *held {
            held = self.freed.wait(held).unwrap_or_else(PoisonError::into_inner);
        }
        *held = true;
        drop(held);
        let mut v = self.value.load(Ordering::Relaxed);
        cs(&mut v);
        self.value.store(v, Ordering::Relaxed);
        *self.held.lock().unwrap_or_else(PoisonError::into_inner) = false;
        self.freed.notify_one();
    }

    fn count(self) -> u64 {
        self.value.into_inner()
    }
}

/// `run_contention`'s loop over a lock that is not an `AdaptiveMutex`;
/// returns the final counter beside the run.
fn run_baseline(lock: impl Baseline, threads: usize, iters: u32, cs_nanos: u64) -> (u64, Run) {
    let (cs, ncs) = (Duration::from_nanos(cs_nanos), Duration::from_nanos(cs_nanos / 4));
    let (total_nanos, samples, hist) = run_native_workers(threads, Duration::ZERO, |_| {
        let (mut latency_nanos, mut hist) = (0u64, LatencyHistogram::new());
        for _ in 0..iters {
            let enter = Instant::now();
            lock.locked(|v| {
                let waited = saturating_nanos(enter.elapsed());
                latency_nanos += waited;
                hist.record(waited);
                *v += 1;
                busy_wait(cs);
            });
            busy_wait(ncs);
        }
        (u64::from(iters), latency_nanos, hist)
    });
    let ops: u64 = samples.iter().map(|s| s.ops).sum();
    let per_thread: Vec<f64> =
        samples.iter().map(|s| s.ops as f64 * 1e9 / s.elapsed_nanos.max(1) as f64).collect();
    let run = Run {
        total_nanos,
        ops_per_s: ops as f64 * 1e9 / total_nanos.max(1) as f64,
        p50_wait_ns: hist.percentile(50.0),
        p99_wait_ns: hist.percentile(99.0),
        jain: jains_index(&per_thread),
    };
    (lock.count(), run)
}

/// What one repeat measured.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    total_nanos: u64,
    ops_per_s: f64,
    p50_wait_ns: u64,
    p99_wait_ns: u64,
    jain: f64,
}

/// A `ContentionPoint` or a `FairnessPoint`, which name these fields alike.
macro_rules! run_of {
    ($point:expr) => {{
        let p = $point;
        Run {
            total_nanos: p.total_nanos,
            ops_per_s: p.throughput_per_sec,
            p50_wait_ns: p.p50_latency_nanos,
            p99_wait_ns: p.p99_latency_nanos,
            jain: p.fairness_index,
        }
    }};
}

/// One run of `lock` on `cell`; panics on a lost update.
fn run_once(cell: &Cell, lock: Lock) -> Run {
    let (threads, iters) = (cell.threads, cell.iters);
    let (count, run) = match (cell.shape, lock) {
        (Shape::Crowd { cs_nanos }, Lock::Policy(policy)) => {
            let spec =
                ContentionSpec { threads, iters, cs_nanos, think_nanos: cs_nanos / 4, policy };
            return run_of!(run_contention(Backend::Native, &spec));
        }
        (Shape::Fair { ncs_iters }, Lock::Policy(policy)) => {
            let spec = FairnessSpec {
                threads,
                group_a: threads / 2,
                iters,
                cs_iters_a: 1_000,
                cs_iters_b: 3_000,
                ncs_iters,
                policy,
            };
            return run_of!(run_fairness(Backend::Native, &spec));
        }
        (Shape::Crowd { cs_nanos }, Lock::Std) => {
            run_baseline(Mutex::new(0u64), threads, iters, cs_nanos)
        }
        (Shape::Crowd { cs_nanos }, Lock::Barging) => {
            run_baseline(BargingLock::default(), threads, iters, cs_nanos)
        }
        (Shape::Fair { .. }, _) => unreachable!("fairness cells run the policies only"),
    };
    assert_eq!(count, threads as u64 * u64::from(iters), "lost update in {}", lock.label());
    run
}

/// One (cell, lock) over its repeats.
#[derive(Debug, Clone)]
struct Row {
    cell: String,
    lock: String,
    /// Acquisitions over every repeat.
    attempted: u64,
    /// Acquisitions of the repeats that lost an update.
    failed: u64,
    /// The repeats that completed, by total time.
    runs: Vec<Run>,
    /// On the `simple-adapt` row: its median ops/s over the best median
    /// of [`static_labels`].
    adaptive_vs_best_static: Option<f64>,
}

impl Row {
    fn correct(&self) -> bool {
        self.failed == 0 && !self.runs.is_empty()
    }

    /// The repeat at `quarter` / 4 of the way up the sorted runs: 2 is
    /// the median.
    fn quartile(&self, quarter: usize) -> Run {
        self.runs.get(quarter * self.runs.len() / 4).copied().unwrap_or_default()
    }

    /// The stack benchmark's result line, led by `cell` and `lock`.
    fn result_line(&self) -> String {
        let m = self.quartile(2);
        let mut metrics = vec![
            ("crowd.ops_per_s", m.ops_per_s, "1/s"),
            ("crowd.p50_wait_ns", m.p50_wait_ns as f64, "ns"),
            ("crowd.p99_wait_ns", m.p99_wait_ns as f64, "ns"),
            ("crowd.jain", m.jain, "ratio"),
        ];
        if let Some(r) = self.adaptive_vs_best_static {
            metrics.push(("crowd.adaptive_vs_best_static", r, "ratio"));
        }
        let metrics: Vec<String> = metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"cell\": \"{}\", \"lock\": \"{}\", \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {{{}}}}}",
            self.cell,
            self.lock,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run every lock of `cell` `repeats` times, the locks taking turns.
fn measure(cell: &Cell, repeats: usize) -> Vec<Row> {
    let ops = cell.threads as u64 * u64::from(cell.iters);
    let locks = cell.locks();
    let mut rows: Vec<Row> = locks
        .iter()
        .map(|lock| Row {
            cell: cell.name(),
            lock: lock.label(),
            attempted: ops * repeats as u64,
            failed: 0,
            runs: Vec::with_capacity(repeats),
            adaptive_vs_best_static: None,
        })
        .collect();
    for _ in 0..repeats {
        for (row, &lock) in rows.iter_mut().zip(&locks) {
            match catch_unwind(AssertUnwindSafe(|| run_once(cell, lock))) {
                Ok(run) => row.runs.push(run),
                Err(_) => row.failed += ops,
            }
        }
    }
    for row in &mut rows {
        row.runs.sort_by_key(|r| r.total_nanos);
    }
    let median_ops = |label: &str| {
        let row = rows.iter().find(|r| r.lock == label && r.correct())?;
        Some(row.quartile(2).ops_per_s)
    };
    let best_static = static_labels().iter().filter_map(|l| median_ops(l)).reduce(f64::max);
    let adaptive = PolicyChoice::Adaptive { threshold: 2, n: 32 }.label();
    let ratio = median_ops(&adaptive).zip(best_static).map(|(a, b)| a / b);
    if let Some(row) = rows.iter_mut().find(|r| r.lock == adaptive) {
        row.adaptive_vs_best_static = ratio;
    }
    rows
}

/// The cell's table, then its static ranking, fastest first.
fn print_table(cell: &Cell, rows: &[Row]) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shape = match cell.shape {
        Shape::Crowd { cs_nanos } => format!("CS {cs_nanos} ns, NCS {} ns", cs_nanos / 4),
        Shape::Fair { ncs_iters } => format!("CS 1000 / 3000 iterations, NCS {ncs_iters}"),
    };
    println!(
        "\n== {}: {} threads x {} ops, {shape}{} ==",
        cell.name(),
        cell.threads,
        cell.iters,
        if cell.threads > host { ", oversubscribed" } else { "" }
    );
    println!(
        "{:<16} {:>10} {:>19} {:>12} {:>10} {:>10} {:>6}",
        "lock", "median ms", "q1-q3 ms", "ops/s", "p50 ns", "p99 ns", "jain"
    );
    let ms = |r: Run| r.total_nanos as f64 / 1e6;
    for row in rows {
        let m = row.quartile(2);
        println!(
            "{:<16} {:>10.2} {:>9.2}-{:<9.2} {:>12.0} {:>10} {:>10} {:>6.3}{}",
            row.lock,
            ms(m),
            ms(row.quartile(1)),
            ms(row.quartile(3)),
            m.ops_per_s,
            m.p50_wait_ns,
            m.p99_wait_ns,
            m.jain,
            if row.correct() { "" } else { "  LOST AN UPDATE" }
        );
    }
    let mut ranked: Vec<&Row> = rows.iter().filter(|r| static_labels().contains(&r.lock)).collect();
    ranked.sort_by_key(|r| r.quartile(2).total_nanos);
    let ranked: Vec<&str> = ranked.iter().map(|r| r.lock.as_str()).collect();
    let ratio = rows.iter().find_map(|r| r.adaptive_vs_best_static);
    println!(
        "static ranking: {}; simple-adapt / best static: {}",
        ranked.join(" < "),
        ratio.map_or("n/a".into(), |r| format!("{r:.3}"))
    );
}

fn main() -> ExitCode {
    let started = Instant::now();
    let scale = bench::scale();
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "n/a".into());
    println!(
        "crowd — scale={scale:?}, host_parallelism={}, load average {load}, {REPEATS} repeats",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut rows = Vec::new();
    for cell in cells(scale) {
        let cell_rows = measure(&cell, REPEATS);
        print_table(&cell, &cell_rows);
        rows.extend(cell_rows);
    }
    println!();
    for row in &rows {
        println!("{}", row.result_line());
    }
    println!("wall time {:.1} s", started.elapsed().as_secs_f64());
    if rows.iter().all(Row::correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a (cell, lock) lost an update; see the lines with \"correct\": false");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_baselines_count_every_op() {
        let (count, run) = run_baseline(Mutex::new(0u64), 3, 20, 500);
        assert_eq!(count, 3 * 20);
        assert!(run.total_nanos > 0 && run.ops_per_s > 0.0);
        let (count, run) = run_baseline(BargingLock::default(), 3, 20, 500);
        assert_eq!(count, 3 * 20);
        assert!(run.total_nanos > 0 && run.ops_per_s > 0.0);
    }

    #[test]
    fn every_cells_result_lines_parse_as_correct() {
        for cell in cells(Scale::Quick) {
            let cell = Cell { iters: 2, ..cell };
            let rows = measure(&cell, 1);
            assert_eq!(rows.len(), cell.locks().len());
            for row in &rows {
                let text = row.result_line();
                let line: serde_json::Value =
                    serde_json::from_str(&text).expect("a result line is JSON");
                let keys: Vec<&str> = line
                    .as_object()
                    .map(|pairs| pairs.iter().map(|(k, _)| k.as_str()).collect())
                    .unwrap_or_default();
                assert_eq!(keys, ["cell", "lock", "correct", "attempted", "failed", "metrics"]);
                assert_eq!(line["cell"].as_str(), Some(cell.name().as_str()));
                assert_eq!(line["lock"].as_str(), Some(row.lock.as_str()));
                assert_eq!(line["correct"].as_bool(), Some(true), "{text}");
                assert_eq!(line["attempted"].as_u64(), Some(cell.threads as u64 * 2));
                assert_eq!(line["failed"].as_u64(), Some(0));
                for metric in
                    ["crowd.ops_per_s", "crowd.p50_wait_ns", "crowd.p99_wait_ns", "crowd.jain"]
                {
                    assert!(line["metrics"][metric]["value"].as_f64().is_some(), "{text}");
                }
                assert_eq!(
                    line["metrics"]["crowd.adaptive_vs_best_static"]["value"].as_f64().is_some(),
                    row.lock == "simple-adapt",
                    "{text}"
                );
            }
        }
    }
}

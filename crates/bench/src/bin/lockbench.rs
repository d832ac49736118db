//! `lockbench` — ns-scale hot-path microbenchmark for the native lock
//! stack.
//!
//! The paper costs every lock operation in memory references
//! (`t = n1·R + n2·W`, Section 3.1); the modern analog of a remote
//! reference is a cross-core cache-line transfer, and this runner puts
//! a number on it. It measures ns/op for uncontended acquire+release
//! and `try_lock`, and contended throughput across 1–8 threads, for
//! `AdaptiveMutex` vs `std::sync::Mutex` vs a raw spin lock — plus one
//! row set per zoo engine (`ticket`, `flat-combining`), each an
//! `AdaptiveMutex` pinned to that engine so the rows price the
//! *algorithms* side by side, not different wrappers. It then writes
//! `BENCH_native_hotpath.json` at the workspace root with the
//! acceptance verdicts (uncontended overhead vs `std::sync::Mutex`
//! within 2x; at least one contention regime where the combining
//! engine beats the spin-park adaptive mutex by 1.3x ns/op). DESIGN.md
//! §12–§13 explain how to read the numbers against the cost model;
//! EXPERIMENTS.md has the run recipe.
//!
//! Run with `EXPERIMENT_SCALE=full cargo run --release -p bench --bin
//! lockbench` for committed numbers; the default quick scale is sized
//! for CI smoke.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use adaptive_native::{AdaptiveMutex, LockAlgorithm, PolicyChoice};
use bench::{workspace_root, Scale};
use serde::Serialize;
use serde_json::json;

/// Repeats per cell; uncontended cells keep the minimum (the run least
/// disturbed by the scheduler), contended cells keep the best
/// throughput.
const REPEATS: u32 = 5;

/// Thread counts for the contended sweep.
const THREADS: [u32; 4] = [1, 2, 4, 8];

/// Zoo engines measured as their own row sets (the spin-park engine IS
/// the `adaptive` rows).
const ZOO: [LockAlgorithm; 2] = [LockAlgorithm::Ticket, LockAlgorithm::Combining];

/// One measured cell.
#[derive(Debug, Clone, Serialize)]
struct BenchRow {
    lock: String,
    mode: String,
    threads: u32,
    iters_per_thread: u64,
    ns_per_op: f64,
    ops_per_sec: f64,
}

/// A raw test-and-test-and-set spin lock, the "cheapest possible"
/// comparator: one line, no queue, no stats. It yields after a bounded
/// probe burst so the contended sweep stays finite on few-core hosts
/// (a pure spinner burns a whole timeslice per handoff once the holder
/// is descheduled).
struct RawSpin {
    flag: AtomicBool,
}

impl RawSpin {
    fn new() -> RawSpin {
        RawSpin { flag: AtomicBool::new(false) }
    }

    fn lock(&self) {
        while self.flag.swap(true, Ordering::Acquire) {
            let mut probes = 0u32;
            while self.flag.load(Ordering::Relaxed) {
                probes += 1;
                if probes >= 64 {
                    std::thread::yield_now();
                    probes = 0;
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    fn try_lock(&self) -> bool {
        !self.flag.swap(true, Ordering::Acquire)
    }

    fn unlock(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// Time `iters` runs of `op` and return ns/op.
fn time_ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Best (minimum) ns/op over `REPEATS` runs.
fn best_ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| time_ns_per_op(iters, &mut op))
        .fold(f64::INFINITY, f64::min)
}

fn row(lock: &str, mode: &str, threads: u32, iters: u64, ns_per_op: f64) -> BenchRow {
    BenchRow {
        lock: lock.to_string(),
        mode: mode.to_string(),
        threads,
        iters_per_thread: iters,
        ns_per_op,
        ops_per_sec: 1e9 / ns_per_op,
    }
}

/// Uncontended acquire+release and try_lock cells for all three locks.
fn run_uncontended(iters: u64, rows: &mut Vec<BenchRow>) {
    // AdaptiveMutex with its default simple-adapt policy: the cost we
    // actually charge users of the adaptive lock, feedback loop
    // included.
    let adaptive = AdaptiveMutex::new(0u64);
    rows.push(row(
        "adaptive",
        "uncontended",
        1,
        iters,
        best_ns_per_op(iters, || {
            *black_box(&adaptive).lock() += 1;
        }),
    ));
    rows.push(row(
        "adaptive",
        "try_lock",
        1,
        iters,
        best_ns_per_op(iters, || {
            if let Some(mut g) = black_box(&adaptive).try_lock() {
                *g += 1;
            }
        }),
    ));

    let std_mutex = Mutex::new(0u64);
    rows.push(row(
        "std",
        "uncontended",
        1,
        iters,
        best_ns_per_op(iters, || {
            *black_box(&std_mutex).lock().expect("unpoisoned") += 1;
        }),
    ));
    rows.push(row(
        "std",
        "try_lock",
        1,
        iters,
        best_ns_per_op(iters, || {
            if let Ok(mut g) = black_box(&std_mutex).try_lock() {
                *g += 1;
            }
        }),
    ));

    let spin = RawSpin::new();
    let mut cell = 0u64;
    rows.push(row(
        "spin",
        "uncontended",
        1,
        iters,
        best_ns_per_op(iters, || {
            black_box(&spin).lock();
            cell += 1;
            spin.unlock();
        }),
    ));
    rows.push(row(
        "spin",
        "try_lock",
        1,
        iters,
        best_ns_per_op(iters, || {
            if black_box(&spin).try_lock() {
                cell += 1;
                spin.unlock();
            }
        }),
    ));
    black_box(cell);
}

/// One contended cell: `threads` workers hammering `op` (a full
/// lock/increment/unlock cycle) `iters` times each behind a start
/// barrier. Returns the best total-throughput repeat.
fn contended_cell(threads: u32, iters: u64, op: impl Fn() + Sync) -> f64 {
    let mut best_nanos = u128::MAX;
    for _ in 0..REPEATS.min(3) {
        let barrier = Barrier::new(threads as usize + 1);
        let nanos = std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    barrier.wait();
                    for _ in 0..iters {
                        op();
                    }
                });
            }
            // Start the clock *before* releasing the barrier: the last
            // arrival frees everyone, and on a single-core host the
            // workers can run to completion before this thread is
            // rescheduled — a clock started after our wait() returns
            // would miss nearly the whole run. Started here, the only
            // overcount is the barrier release itself.
            let t0 = Instant::now();
            barrier.wait();
            // The scope's implicit joins bound the measured region.
            t0
        })
        .elapsed()
        .as_nanos();
        best_nanos = best_nanos.min(nanos);
    }
    best_nanos as f64 / (threads as u64 * iters) as f64
}

/// Contended sweep over 1–8 threads for all three locks.
fn run_contended(iters: u64, rows: &mut Vec<BenchRow>) {
    for &threads in &THREADS {
        let adaptive = AdaptiveMutex::new(0u64);
        let ns = contended_cell(threads, iters, || {
            *adaptive.lock() += 1;
        });
        rows.push(row("adaptive", "contended", threads, iters, ns));

        let std_mutex = Mutex::new(0u64);
        let ns = contended_cell(threads, iters, || {
            *std_mutex.lock().expect("unpoisoned") += 1;
        });
        rows.push(row("std", "contended", threads, iters, ns));

        let spin = RawSpin::new();
        // The guarded CS mutates an atomic (relaxed) so the work is
        // comparable to the guard-based locks without unsafe.
        let cell = std::sync::atomic::AtomicU64::new(0);
        let ns = contended_cell(threads, iters, || {
            spin.lock();
            cell.fetch_add(1, Ordering::Relaxed);
            spin.unlock();
        });
        rows.push(row("spin", "contended", threads, iters, ns));
    }
}

/// One critical-section cycle through a zoo-pinned mutex, using the
/// API that gives each engine its natural shape: `with_locked` for the
/// combining engine (operation publication is *how* it combines; a
/// plain `lock()` would price only its degraded slots-full path) and a
/// guarded `lock()` everywhere else (`with_locked` compiles to exactly
/// that on non-combining engines).
fn zoo_op(m: &AdaptiveMutex<u64>, algo: LockAlgorithm) {
    if algo == LockAlgorithm::Combining {
        black_box(m).with_locked(|v| *v += 1);
    } else {
        *black_box(m).lock() += 1;
    }
}

/// Uncontended, try_lock, and contended cells for every zoo engine.
/// Each cell runs an `AdaptiveMutex` pinned to one engine (static
/// policy, no feedback), so differences between rows are the
/// algorithms themselves — same wrapper, same stats discipline.
fn run_zoo(unc_iters: u64, con_iters: u64, rows: &mut Vec<BenchRow>) {
    for algo in ZOO {
        let label = algo.label();
        let m = PolicyChoice::Algorithm(algo).build_mutex(0u64);
        rows.push(row(
            label,
            "uncontended",
            1,
            unc_iters,
            best_ns_per_op(unc_iters, || zoo_op(&m, algo)),
        ));
        rows.push(row(
            label,
            "try_lock",
            1,
            unc_iters,
            best_ns_per_op(unc_iters, || {
                if let Some(mut g) = black_box(&m).try_lock() {
                    *g += 1;
                }
            }),
        ));
        for &threads in &THREADS {
            let m = PolicyChoice::Algorithm(algo).build_mutex(0u64);
            let ns = contended_cell(threads, con_iters, || zoo_op(&m, algo));
            rows.push(row(label, "contended", threads, con_iters, ns));
        }
    }
}

/// Find the ns/op of a (lock, mode, threads) cell.
fn cell<'a>(rows: &'a [BenchRow], lock: &str, mode: &str, threads: u32) -> Option<&'a BenchRow> {
    rows.iter()
        .find(|r| r.lock == lock && r.mode == mode && r.threads == threads)
}

fn main() -> ExitCode {
    let scale = bench::scale();
    let (scale_label, unc_iters, con_iters) = match scale {
        Scale::Quick => ("quick", 200_000u64, 20_000u64),
        Scale::Full => ("full", 2_000_000u64, 100_000u64),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("lockbench — scale={scale_label}, host parallelism={cores}");

    let mut rows: Vec<BenchRow> = Vec::new();
    run_uncontended(unc_iters, &mut rows);
    run_contended(con_iters, &mut rows);
    run_zoo(unc_iters, con_iters, &mut rows);

    println!();
    println!("{:<10} {:<12} {:>7} {:>12} {:>16}", "lock", "mode", "threads", "ns/op", "ops/sec");
    for r in &rows {
        println!(
            "{:<10} {:<12} {:>7} {:>12.2} {:>16.0}",
            r.lock, r.mode, r.threads, r.ns_per_op, r.ops_per_sec
        );
    }

    // Verdict 1: uncontended AdaptiveMutex within 2x of std::sync::Mutex.
    let adaptive_unc = cell(&rows, "adaptive", "uncontended", 1).map(|r| r.ns_per_op);
    let std_unc = cell(&rows, "std", "uncontended", 1).map(|r| r.ns_per_op);
    let vs_std_ratio = match (adaptive_unc, std_unc) {
        (Some(a), Some(s)) if s > 0.0 => Some(a / s),
        _ => None,
    };
    let within_2x = vs_std_ratio.map(|r| r <= 2.0);

    // Verdict 2: in at least one contention regime the combining
    // engine beats the spin-park adaptive mutex by >= 1.3x ns/op — the
    // zoo has to earn its place, not just exist.
    let name = LockAlgorithm::Combining.label();
    let mut zoo_best: Option<(f64, u32)> = None;
    for &t in &THREADS {
        let Some(a) = cell(&rows, "adaptive", "contended", t) else { continue };
        let Some(z) = cell(&rows, name, "contended", t) else { continue };
        if z.ns_per_op > 0.0 {
            let ratio = a.ns_per_op / z.ns_per_op;
            if zoo_best.is_none_or(|(best, _)| ratio > best) {
                zoo_best = Some((ratio, t));
            }
        }
    }
    let zoo_beats_1_3x = zoo_best.map(|(r, _)| r >= 1.3);

    println!();
    match vs_std_ratio {
        Some(r) => println!(
            "uncontended adaptive vs std: {r:.2}x ({})",
            if r <= 2.0 { "within 2x: PASS" } else { "within 2x: FAIL" }
        ),
        None => println!("uncontended adaptive vs std: missing cells"),
    }
    match zoo_best {
        Some((r, t)) => println!(
            "best zoo regime: {name} at {t} threads, {r:.2}x vs adaptive ({})",
            if r >= 1.3 { ">=1.3x: PASS" } else { ">=1.3x: FAIL" }
        ),
        None => println!("best zoo regime: missing cells"),
    }

    let zoo_best_speedup = zoo_best.map(|(r, _)| r);
    let zoo_best_regime = zoo_best.map(|(_, t)| json!({ "lock": name, "threads": t }));

    let out = json!({
        "description": "ns-scale lock hot-path microbench: AdaptiveMutex vs std::sync::Mutex vs raw spin, plus the zoo engines (ticket, flat-combining) pinned through the same AdaptiveMutex wrapper (DESIGN.md §12-§13); one run, so every row is one sample (the best of `repeats` inside it)",
        "scale": scale_label,
        "host_parallelism": cores,
        "repeats": REPEATS,
        "rows": rows,
        "verdicts": {
            "uncontended_adaptive_vs_std_ratio": vs_std_ratio,
            "uncontended_adaptive_within_2x_std": within_2x,
            "zoo_best_contended_speedup_vs_adaptive": zoo_best_speedup,
            "zoo_best_contended_regime": zoo_best_regime,
            "combining_beats_adaptive_1_3x": zoo_beats_1_3x,
        },
    });

    let path = workspace_root().join("BENCH_native_hotpath.json");
    let payload = match serde_json::to_string_pretty(&out) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: serializing lockbench results failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&path, payload + "\n") {
        eprintln!("error: writing {} failed: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", path.display());
    ExitCode::SUCCESS
}

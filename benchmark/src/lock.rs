//! `lock-solo` and `lock-duel`: the native `AdaptiveMutex` used both
//! ways. Solo never leaves the fast path; the duel lives on the waiting
//! path (spin, park, handoff) and the feedback loop.
//!
//! The critical section is SNIPPETS.md's fetch-and-multiply: a value
//! with no native atomic, so the lock is all that keeps it whole.

use std::hint::{black_box, spin_loop};

use adaptive_native::{AdaptiveMutex, MutexStats};

use crate::measure::{summarise, Log, Measured, Timeline};
use crate::util::{jain, now_ns, percentile, ratio, Rng};

const FACTOR: f64 = 1.000001;
/// Duel: pause iterations inside the critical section.
const DUEL_CS_SPINS: u32 = 20;
/// Duel: one unit of non-critical work, in pause iterations; each
/// operation is followed by 1 to 8 units. With no such gap one thread
/// keeps the cache line and the throughput is bimodal.
const DUEL_NCS_UNIT: u32 = 10;
/// Duel: one operation in this many is timed; the rest read no clock.
const DUEL_SAMPLE_EVERY: u64 = 64;
/// Solo: an operation is shorter than a clock read, so a latency
/// sample is this many back-to-back operations.
const SOLO_BURST: u64 = 32768;
const NCS_STREAM: usize = 1 << 16;
/// Set-up ends with this many operations per thread, so that the
/// lock's feedback loop has settled before the timed region and
/// whatever the lock does lazily is paid for in `setup_s`.
const SOLO_WARM_UP_OPS: usize = 2_000_000;
const DUEL_WARM_UP_OPS: usize = 100_000;

/// What the lock guards, here and in `async-duel`.
pub struct Cell {
    pub x: f64,
    pub count: u64,
}

impl Cell {
    pub const fn new() -> Cell {
        Cell { x: 1.0, count: 0 }
    }

    /// Fetch-and-multiply, and count it for the mutual-exclusion oracle.
    #[inline]
    pub fn bump(&mut self) {
        self.x *= FACTOR;
        self.count += 1;
    }
}

pub struct Input {
    mutex: AdaptiveMutex<Cell>,
    /// Per thread: the non-critical units after each operation.
    ncs: Vec<Vec<u8>>,
}

pub fn setup(threads: usize, seed: u64) -> Input {
    let ncs = (0..threads)
        .map(|t| {
            let mut rng = Rng::new(seed, 0x10c0 + t as u64);
            (0..NCS_STREAM).map(|_| 1 + rng.below(8) as u8).collect()
        })
        .collect();
    let input = Input {
        mutex: AdaptiveMutex::new(Cell::new()),
        ncs,
    };
    let m = &input.mutex;
    if threads == 1 {
        // On this thread: one spawned for 50 ms of work starts on a
        // core the host has to wake first, and `setup_s` then read up
        // to a fifth higher after a busy spell than after a quiet one.
        (0..SOLO_WARM_UP_OPS).for_each(|_| op(m, 0));
        return input;
    }
    std::thread::scope(|s| {
        for ncs in &input.ncs {
            s.spawn(move || {
                for i in 0..DUEL_WARM_UP_OPS {
                    op(m, DUEL_CS_SPINS);
                    pause(u32::from(ncs[i % NCS_STREAM]) * DUEL_NCS_UNIT);
                }
            });
        }
    });
    input
}

#[inline]
fn pause(iters: u32) {
    for _ in 0..iters {
        spin_loop();
    }
}

#[inline]
fn op(m: &AdaptiveMutex<Cell>, cs_spins: u32) {
    let mut g = m.lock();
    g.bump();
    pause(cs_spins);
}

/// One operation with its three parts apart, as spans of one request.
/// Returns when it began, when it had the lock and when it ended.
fn traced_op(m: &AdaptiveMutex<Cell>, cs_spins: u32, log: &mut Log) -> (u64, u64, u64) {
    let t0 = now_ns();
    let mut g = m.lock();
    let t1 = now_ns();
    g.bump();
    pause(cs_spins);
    let t2 = now_ns();
    drop(g);
    let t3 = now_ns();
    let root = log.spans.open("request", t0, log.ops);
    log.spans.child(root, "native.lock", t0, t1);
    log.spans.child(root, "workloads.cs", t1, t2);
    log.spans.child(root, "native.unlock", t2, t3);
    log.spans.close(root, t3);
    (t0, t1, t3)
}

fn solo(m: &AdaptiveMutex<Cell>, tl: &Timeline, mut log: Log) -> Log {
    tl.wait_for_start();
    let mut prev = now_ns();
    loop {
        for _ in 0..SOLO_BURST - 1 {
            op(m, 0);
        }
        if log.spans.on {
            traced_op(m, 0, &mut log);
        } else {
            op(m, 0);
        }
        let now = now_ns();
        if !log.record(tl, now, SOLO_BURST, now - prev) {
            return log;
        }
        prev = now;
    }
}

/// Returns the log and the sampled acquire waits (traced runs only).
fn duel(m: &AdaptiveMutex<Cell>, ncs: &[u8], tl: &Timeline, mut log: Log) -> (Log, Vec<u32>) {
    let mut waits = Vec::with_capacity(if log.spans.on { 1 << 16 } else { 0 });
    let mut i = 0usize;
    let after = |i: &mut usize| {
        pause(u32::from(ncs[*i % NCS_STREAM]) * DUEL_NCS_UNIT);
        *i += 1;
    };
    tl.wait_for_start();
    loop {
        for _ in 0..DUEL_SAMPLE_EVERY - 1 {
            op(m, DUEL_CS_SPINS);
            after(&mut i);
        }
        let (t0, t3);
        if log.spans.on {
            let t1;
            (t0, t1, t3) = traced_op(m, DUEL_CS_SPINS, &mut log);
            waits.push((t1 - t0).min(u64::from(u32::MAX)) as u32);
        } else {
            t0 = now_ns();
            op(m, DUEL_CS_SPINS);
            t3 = now_ns();
        }
        if !log.record(tl, t3, DUEL_SAMPLE_EVERY, t3 - t0) {
            return (log, waits);
        }
        after(&mut i);
    }
}

pub fn run(input: &mut Input, seconds: f64, trace: bool) -> Measured {
    let m = &input.mutex;
    let (before, count_before) = (m.stats(), m.lock().count);
    let tl = Timeline::starting_soon(seconds);
    let is_solo = input.ncs.len() == 1;
    // Solo ≈ 5 k bursts/s; a duel thread ≈ 12 k samples/s.
    let hint = (seconds * 30_000.0) as usize;
    let results: Vec<(Log, Vec<u32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = input
            .ncs
            .iter()
            .map(|ncs| {
                let tl = &tl;
                let log = Log::new(trace, hint);
                s.spawn(move || {
                    if is_solo {
                        (solo(m, tl, log), Vec::new())
                    } else {
                        duel(m, ncs, tl, log)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lock worker panicked"))
            .collect()
    });
    let now = m.stats();
    let (x, count) = {
        let g = m.lock();
        (g.x, g.count - count_before)
    };
    black_box(x);
    let since = |f: fn(&MutexStats) -> u64| f(&now) - f(&before);
    // The read of the cell before the region is an acquisition too.
    let acquisitions = since(|s| s.acquisitions) - 1;

    let mut waits: Vec<u32> = results.iter().flat_map(|(_, w)| w.iter().copied()).collect();
    waits.sort_unstable();
    let per_thread: Vec<u64> = results.iter().map(|(l, _)| l.ops).collect();
    let logs = results.into_iter().map(|(l, _)| l).collect();
    let scale = if is_solo { 1.0 / SOLO_BURST as f64 } else { 1.0 };
    let mut out = summarise(logs, &tl, scale);

    // Mutual exclusion: every increment made under the lock survived.
    // The last burst of each thread ran past the end of the region and
    // was not credited, so count what the threads did, not `out.attempted`.
    let unit = if is_solo { SOLO_BURST } else { DUEL_SAMPLE_EVERY };
    let done: u64 = per_thread.iter().map(|ops| ops + unit).sum();
    out.failed += done.abs_diff(count) + done.abs_diff(acquisitions);

    let kops = acquisitions as f64 / 1e3;
    out.layer = vec![
        (
            "native.duel.contended_frac",
            ratio(since(|s| s.contended), acquisitions),
        ),
        ("native.duel.parked_frac", ratio(since(|s| s.parked), acquisitions)),
        ("native.duel.handoffs_per_kop", since(|s| s.handoffs) as f64 / kops),
        (
            "native.duel.reconfigs_per_kop",
            since(|s| s.reconfigurations) as f64 / kops,
        ),
        ("native.duel.acquire_wait_p50_ns", percentile(&waits, 0.50)),
        ("native.duel.acquire_wait_p99_ns", percentile(&waits, 0.99)),
        ("native.duel.jain", jain(&per_thread)),
    ];
    if is_solo {
        out.layer.push(("ns_per_op", 1e9 / out.ops_per_s.1));
    }
    out
}

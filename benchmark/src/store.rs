//! `store-zipf`: the in-process `ShardedStore` under two closed-loop
//! threads. `service` and `native::with_locked` do the work; there is
//! no `asyncx` here, so a reactor must not move this workload.
//!
//! Roughly a third of a naive loop is the generator (a Zipf draw and
//! two clock reads per operation), so the key/op streams are made in
//! set-up and only one operation in [`SAMPLE_EVERY`] is timed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use adaptive_service::{ServiceConfig, ShardedStore};

use crate::measure::{summarise, Log, Measured, Timeline};
use crate::util::{median, now_ns, percentile, ratio, Rng, Zipf};
use crate::Sizes;

const THREADS: usize = 2;
const SAMPLE_EVERY: u64 = 16;
const ZIPF_S: f64 = 0.99;
const INCR_PERCENT: u64 = 20;
const INCR_BIT: u32 = 1 << 31;
/// The store splits hot shards only when asked to look.
const MAINTENANCE_EVERY: Duration = Duration::from_millis(100);

pub struct Input {
    store: ShardedStore,
    keys: usize,
    /// Per thread: key rank, with [`INCR_BIT`] set for an increment.
    streams: Vec<Vec<u32>>,
    /// Nanoseconds per generated operation, paid in set-up.
    gen_ns: f64,
}

/// A store with keys `0..keys` all set to 1.
pub fn preloaded(keys: usize) -> ShardedStore {
    let store = ShardedStore::new(ServiceConfig::default());
    for k in 0..keys as u64 {
        store.put(k, 1);
    }
    store
}

pub fn setup(seed: u64, sizes: &Sizes) -> Input {
    let store = preloaded(sizes.store_keys);
    let zipf = Zipf::new(sizes.store_keys, ZIPF_S);
    let t = now_ns();
    let streams: Vec<Vec<u32>> = (0..THREADS)
        .map(|th| {
            let mut rng = Rng::new(seed, 0x5707 + th as u64);
            (0..sizes.store_stream)
                .map(|_| {
                    let key = zipf.sample(&mut rng) as u32;
                    if rng.below(100) < INCR_PERCENT {
                        key | INCR_BIT
                    } else {
                        key
                    }
                })
                .collect()
        })
        .collect();
    let gen_ns = (now_ns() - t) as f64 / (THREADS * sizes.store_stream) as f64;
    Input {
        store,
        keys: sizes.store_keys,
        streams,
        gen_ns,
    }
}

/// One operation; false if the store's answer is impossible (every key
/// was preloaded with 1 and values only grow).
#[inline]
fn op(store: &ShardedStore, word: u32) -> bool {
    let key = u64::from(word & !INCR_BIT);
    if word & INCR_BIT != 0 {
        store.increment(key, 1) >= 2
    } else {
        store.get(key).is_some_and(|v| v >= 1)
    }
}

fn worker(store: &ShardedStore, stream: &[u32], tl: &Timeline, mut log: Log) -> (Log, u64) {
    let mut i = 0usize;
    let mut increments = 0u64;
    let mut next = |increments: &mut u64| {
        let word = stream[i];
        i = if i + 1 == stream.len() { 0 } else { i + 1 };
        *increments += u64::from(word >> 31);
        word
    };
    tl.wait_for_start();
    loop {
        let mut bad = 0u64;
        for _ in 0..SAMPLE_EVERY - 1 {
            bad += u64::from(!op(store, next(&mut increments)));
        }
        let word = next(&mut increments);
        let t0 = now_ns();
        bad += u64::from(!op(store, word));
        let t1 = now_ns();
        log.failed += bad;
        if log.spans.on {
            let name = if word & INCR_BIT != 0 {
                "service.store.increment"
            } else {
                "service.store.get"
            };
            let root = log.spans.open("request", t0, log.ops);
            log.spans.child(root, name, t0, t1);
            log.spans.close(root, t1);
        }
        if !log.record(tl, t1, SAMPLE_EVERY, t1 - t0) {
            // The burst that crossed the line was applied all the same.
            return (log, increments);
        }
    }
}

pub fn run(input: &mut Input, seconds: f64, trace: bool) -> Measured {
    let store = &input.store;
    let before = store.total();
    let stats_before = lock_totals(store);
    let tl = Timeline::starting_soon(seconds);
    let hint = (seconds * 150_000.0) as usize;
    let stop = AtomicBool::new(false);
    let mut maintenance_ns = Vec::new();
    let results: Vec<(Log, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = input
            .streams
            .iter()
            .map(|stream| {
                let (tl, log) = (&tl, Log::new(trace, hint));
                s.spawn(move || worker(store, stream, tl, log))
            })
            .collect();
        let ticker = s.spawn(|| {
            let mut took = Vec::new();
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(MAINTENANCE_EVERY);
                let t = now_ns();
                store.maintenance();
                took.push(now_ns() - t);
            }
            took
        });
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("store worker panicked"))
            .collect();
        stop.store(true, Ordering::Release);
        maintenance_ns = ticker.join().expect("maintenance ticker panicked");
        results
    });

    let increments: u64 = results.iter().map(|(_, n)| n).sum();
    let mut samples: Vec<u32> = results
        .iter()
        .flat_map(|(l, _)| l.samples.iter().flatten().copied())
        .collect();
    samples.sort_unstable();
    let logs = results.into_iter().map(|(l, _)| l).collect();
    let mut out = summarise(logs, &tl, 1.0);

    // Conservation: every increment is in the total, no key appeared
    // or vanished.
    out.failed += (store.total() - before).abs_diff(u128::from(increments)) as u64;
    out.failed += store.len().abs_diff(input.keys) as u64;

    // A split retires a shard and its counters with it, hence saturating.
    let now = lock_totals(store);
    let since = |now: u64, before: u64| now.saturating_sub(before);
    let maintenance_us: Vec<f64> = maintenance_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let per_op_ns = 1e9 * THREADS as f64 / out.ops_per_s.1;
    out.layer = vec![
        ("service.store.op_p50_ns", percentile(&samples, 0.50)),
        ("service.store.op_p99_ns", percentile(&samples, 0.99)),
        (
            "service.store.contended_frac",
            ratio(since(now.1, stats_before.1), since(now.0, stats_before.0)),
        ),
        ("service.store.combined_ops", since(now.2, stats_before.2) as f64),
        ("service.store.algorithm_switches", since(now.3, stats_before.3) as f64),
        ("service.store.splits", store.splits() as f64),
        ("service.store.shards_final", store.shard_count() as f64),
        ("service.store.maintenance_us", median(&maintenance_us)),
        ("workloads.gen_ns", input.gen_ns),
        (
            "workloads.generator_frac",
            generator_ns_per_op(&input.streams[0]) / per_op_ns,
        ),
    ];
    out
}

/// What the worker's loop costs per operation with the store call
/// taken out: the stream read, the bookkeeping and the sampled clock
/// reads. Measured on one thread after the run.
fn generator_ns_per_op(stream: &[u32]) -> f64 {
    let t = now_ns();
    let (mut increments, mut clock) = (0u64, 0u64);
    for burst in stream.chunks(SAMPLE_EVERY as usize) {
        for &word in burst {
            increments += u64::from(std::hint::black_box(word) >> 31);
        }
        clock = clock.wrapping_add(now_ns()).wrapping_add(now_ns());
    }
    std::hint::black_box((increments, clock));
    (now_ns() - t) as f64 / stream.len() as f64
}

/// Acquisitions, contended, combined ops and algorithm switches summed
/// over the live shards.
fn lock_totals(store: &ShardedStore) -> (u64, u64, u64, u64) {
    store.snapshots().iter().fold((0, 0, 0, 0), |t, s| {
        (
            t.0 + s.acquisitions,
            t.1 + s.contended,
            t.2 + s.combined_ops,
            t.3 + s.algorithm_switches,
        )
    })
}

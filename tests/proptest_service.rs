//! Property tests of the sharded adaptive service: counter
//! conservation and key visibility must survive any interleaving of
//! concurrent ops with mid-run resharding.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_objects::service::{ServiceConfig, ServicePolicy, ShardedStore};
use proptest::prelude::*;

fn eager_split_config(initial_depth: u32, max_depth: u32) -> ServiceConfig {
    ServiceConfig {
        initial_depth,
        max_depth,
        // Thresholds at the floor: maintenance splits any shard that
        // saw traffic, so every case exercises live resharding.
        split_contended_per_sec: 0.0,
        split_min_acquisitions: 1,
        split_imbalance_factor: 0.0,
        split_sustain: 1,
        policy: ServicePolicy::HotShard {
            high_water: 2,
            patience: 2,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// For any worker count, op count, keyspace, and seed: with a
    /// maintenance thread aggressively splitting shards underneath,
    /// the sum of all counters equals the number of increments applied
    /// (nothing lost, nothing double-applied) and every key any worker
    /// wrote is visible afterwards through normal routing.
    #[test]
    fn conservation_and_visibility_survive_mid_run_resharding(
        workers in 2usize..5,
        ops in 64u64..512,
        keyspace in 1u64..64,
        seed in any::<u64>(),
    ) {
        let store = Arc::new(ShardedStore::new(eager_split_config(1, 6)));
        let stop = Arc::new(AtomicBool::new(false));
        let splitter = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    store.maintenance();
                    std::thread::yield_now();
                }
            })
        };

        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    // Deterministic per-worker key walk derived from the
                    // case seed; mixes hot reuse with coverage.
                    let mut x = seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    for i in 0..ops {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = (x >> 33) % keyspace;
                        store.increment(key, 1);
                        if i % 7 == 0 {
                            // Read-your-write through live routing.
                            assert!(
                                store.get(key).is_some(),
                                "key {key} vanished right after an increment"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("service workers never panic");
        }
        stop.store(true, Ordering::Release);
        splitter.join().expect("maintenance thread never panics");

        let expected = workers as u64 * ops;
        prop_assert_eq!(
            store.total(),
            u128::from(expected),
            "increments lost or double-applied across resharding"
        );
        // Every key that got traffic is visible, and the per-key sums
        // re-add to the same total through point reads.
        let mut readback = 0u128;
        for key in 0..keyspace {
            if let Some(v) = store.get(key) {
                readback += u128::from(v);
            }
        }
        prop_assert_eq!(readback, u128::from(expected), "point reads disagree with total()");
        prop_assert!(store.shard_count() >= 2, "eager thresholds must actually split");
    }
}

/// Fixed-scenario regression: a put is visible through routing even
/// when its home shard splits between the write and the read, and
/// updates routed through a stale directory snapshot still land
/// exactly once.
#[test]
fn puts_stay_visible_across_an_explicit_split() {
    let store = ShardedStore::new(eager_split_config(0, 4));
    for key in 0..128u64 {
        store.put(key, key * 3);
    }
    // Split repeatedly until the depth cap stops progress.
    while store.maintenance() > 0 {}
    assert!(store.shard_count() > 1, "the store must have resharded");
    for key in 0..128u64 {
        assert_eq!(store.get(key), Some(key * 3), "key {key} lost by resharding");
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                store.maintenance();
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        for key in 0..128u64 {
            store.increment(key, 1);
        }
        stop.store(true, Ordering::Release);
        h.join().expect("splitter never panics");
        for key in 0..128u64 {
            assert_eq!(store.get(key), Some(key * 3 + 1), "increment on {key} misapplied");
        }
    });
}

/// Regression for `scan` folding a shard in twice: the scan has
/// visited the first shard and is inside the second when the first
/// splits and doubles the directory, so its children appear at slots
/// the scan has not reached. Each pair is still seen once.
#[test]
fn a_scan_sees_a_shard_that_splits_behind_it_once() {
    const KEYS: u64 = 512;
    let store = ShardedStore::new(eager_split_config(1, 4));
    for key in 0..KEYS {
        store.put(key, 1);
    }
    let router = store.current_router();
    assert_eq!(router.slots(), 2, "two shards, visited in slot order");
    let in_first = (0..KEYS).filter(|&key| router.slot(key) == 0).count() as u64;
    let first_seen = AtomicU64::new(0);
    let first_seen_at_injection = AtomicU64::new(u64::MAX);
    let go = AtomicBool::new(false);
    let seen = std::thread::scope(|scope| {
        // Eager thresholds: one pass splits the first shard, then waits
        // for the scan to let go of the second.
        scope.spawn(|| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            store.maintenance();
        });
        store.scan(0u64, |seen, key, _| {
            *seen += 1;
            if router.slot(key) == 0 {
                first_seen.fetch_add(1, Ordering::Relaxed);
            } else if !go.swap(true, Ordering::AcqRel) {
                first_seen_at_injection.store(first_seen.load(Ordering::Relaxed), Ordering::Relaxed);
                let deadline = Instant::now() + Duration::from_secs(30);
                while store.shard_count() == 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
        })
    });
    assert_eq!(
        first_seen_at_injection.load(Ordering::Relaxed),
        in_first,
        "the first shard was to be folded in whole before it split"
    );
    assert!(store.shard_count() > 2, "the split was to land inside the scan");
    assert_eq!(seen, KEYS, "a pair was seen twice or not at all");
    assert_eq!(store.len() as u64, KEYS);
    assert_eq!(store.total(), u128::from(KEYS));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// For a fixed key set `len()` and `total()` are exact on every
    /// scan, not only at quiescence, while a splitter takes the
    /// directory from its initial depth to `max_depth` underneath
    /// (the scans themselves are the traffic that lets each new child
    /// qualify for the next pass).
    #[test]
    fn scans_stay_exact_while_a_splitter_runs_to_max_depth(
        keys in 1u64..600,
        initial_depth in 0u32..3,
        max_depth in 3u32..7,
        seed in any::<u64>(),
    ) {
        let store = ShardedStore::new(eager_split_config(initial_depth, max_depth));
        for i in 0..keys {
            store.put(seed.wrapping_add(i), i + 1);
        }
        let total = u128::from(keys) * u128::from(keys + 1) / 2;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    store.maintenance();
                    std::thread::yield_now();
                }
            });
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut exact = true;
            while exact && store.shard_count() < 1 << max_depth && Instant::now() < deadline {
                exact = store.len() as u64 == keys && store.total() == total;
            }
            stop.store(true, Ordering::Release);
            prop_assert!(exact, "a scan beside a split miscounted");
        });
        prop_assert_eq!(store.shard_count(), 1usize << max_depth, "the splitter never got there");
        prop_assert_eq!(store.len() as u64, keys);
        prop_assert_eq!(store.total(), total);
    }
}

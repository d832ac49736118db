//! Lock-free reads of the sharded store against everything that can
//! move underneath them: a writer changing values and inserting keys
//! (so tables grow), and a splitter retiring shards and rewiring the
//! directory as fast as it can. A `get` takes no lock, so nothing but
//! the cell table's publication order keeps these properties.
//!
//! Nor does an `increment` of a present key: it is one CAS on the
//! value word, which growth and splits claim as they copy the pair
//! out. The second test races two such writers on the same counters
//! against both, and counts every increment.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use adaptive_objects::service::{ServiceConfig, ServicePolicy, ShardedStore};

const COUNTERS: u64 = 63;
const WRITES: u64 = 400_000;
/// Every this many writes, one is a `put` of a key nobody has seen:
/// write `i` puts `fresh(i)`.
const FRESH_EVERY: u64 = 8;

/// The `i`-th write's fresh key and the value it is born with — never
/// 0, which is what a cell published key-first would show.
fn fresh(i: u64) -> (u64, u64) {
    ((1 << 40) + i, !i)
}

#[test]
fn readers_see_every_key_and_never_go_back_while_a_writer_and_a_splitter_run() {
    let store = ShardedStore::new(ServiceConfig {
        initial_depth: 0,
        max_depth: 8,
        // Thresholds at the floor: every pass splits every shard that
        // took a write, down to `max_depth`.
        split_contended_per_sec: 0.0,
        split_min_acquisitions: 1,
        split_imbalance_factor: 0.0,
        split_sustain: 1,
        policy: ServicePolicy::HotShard { high_water: 2, patience: 2 },
    });
    for k in 0..COUNTERS {
        store.put(k, 1);
    }
    let done = AtomicBool::new(false);
    let start = Barrier::new(4);
    let (store, done, start) = (&store, &done, &start);
    let (counters, inserted) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut last = [1u64; COUNTERS as usize];
                    let mut awaited = 0;
                    start.wait();
                    loop {
                        // A round begun after the last write sees them all.
                        let finishing = done.load(Ordering::Acquire);
                        for (k, last) in (0..COUNTERS).zip(&mut last) {
                            let seen = store.get(k).expect("a reader lost a preloaded key");
                            assert!(seen >= *last, "key {k} went back: {seen} after {last}");
                            *last = seen;
                        }
                        // Poll the key the writer inserts next: a reader
                        // that catches the insert half done sees all of
                        // the pair or none of it.
                        while let Some(seen) = store.get(fresh(awaited).0) {
                            assert_eq!(seen, fresh(awaited).1, "a key appeared before its value");
                            awaited += FRESH_EVERY;
                        }
                        if finishing {
                            return last;
                        }
                    }
                })
            })
            .collect();
        scope.spawn(move || {
            start.wait();
            // One more pass after the writer's last op, so a split
            // happens however the threads were scheduled.
            while !done.load(Ordering::Acquire) {
                store.maintenance();
            }
            store.maintenance();
        });
        start.wait();
        let mut counters = [1u64; COUNTERS as usize];
        let mut inserted = 0u64;
        for i in 0..WRITES {
            if i % FRESH_EVERY == 0 {
                let (key, value) = fresh(i);
                assert_eq!(store.get(key), None);
                assert_eq!(store.put(key, value), None, "a fresh key was already there");
                assert_eq!(store.get(key), Some(value), "the writer lost its own insert");
                inserted += 1;
            } else {
                let key = i % COUNTERS;
                let now = store.increment(key, 1);
                assert_eq!(store.get(key), Some(now), "the writer lost its own increment");
                counters[key as usize] = now;
            }
        }
        done.store(true, Ordering::Release);
        for reader in readers {
            let last = reader.join().expect("a reader's assertion failed");
            assert_eq!(last, counters, "a reader's last round missed a completed write");
        }
        (counters, inserted)
    });

    assert!(store.splits() > 0, "the splitter never split");
    assert_eq!(store.len() as u64, COUNTERS + inserted);
    let increments = WRITES - inserted;
    assert_eq!(counters.iter().sum::<u64>(), COUNTERS + increments);
    let fresh_pairs = (0..WRITES).step_by(FRESH_EVERY as usize).map(fresh);
    let fresh_sum: u128 = fresh_pairs.clone().map(|(_, value)| u128::from(value)).sum();
    assert_eq!(store.total(), u128::from(COUNTERS + increments) + fresh_sum);
    for (key, value) in fresh_pairs {
        assert_eq!(store.get(key), Some(value));
    }
}

#[test]
fn two_incrementers_lose_nothing_while_tables_grow_and_shards_split() {
    const WRITERS: u64 = 2;
    let store = ShardedStore::new(ServiceConfig {
        initial_depth: 0,
        max_depth: 8,
        split_contended_per_sec: 0.0,
        split_min_acquisitions: 1,
        split_imbalance_factor: 0.0,
        split_sustain: 1,
        policy: ServicePolicy::HotShard { high_water: 2, patience: 2 },
    });
    for k in 0..COUNTERS {
        store.put(k, 1);
    }
    // Writer `w`'s `i`-th write, when it is an insert, puts this.
    let fresh_of = |w: u64, i: u64| fresh(w * WRITES + i);
    let done = AtomicBool::new(false);
    let start = Barrier::new(3 + WRITERS as usize);
    let (store, done, start) = (&store, &done, &start);
    let (want, answers) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut last = [1u64; COUNTERS as usize];
                    start.wait();
                    loop {
                        // A round begun after the last write sees them all.
                        let finishing = done.load(Ordering::Acquire);
                        for (k, last) in (0..COUNTERS).zip(&mut last) {
                            let seen = store.get(k).expect("a reader lost a counter");
                            assert!(seen >= *last, "key {k} went back: {seen} after {last}");
                            *last = seen;
                        }
                        if finishing {
                            return last;
                        }
                    }
                })
            })
            .collect();
        scope.spawn(move || {
            start.wait();
            while !done.load(Ordering::Acquire) {
                store.maintenance();
            }
            store.maintenance();
        });
        // Both writers walk the counters in step, so they meet on the
        // same value words; every eighth write grows some table instead.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut answers = vec![Vec::new(); COUNTERS as usize];
                    start.wait();
                    for i in 0..WRITES / WRITERS {
                        if i % FRESH_EVERY == 0 {
                            let (key, value) = fresh_of(w, i);
                            assert_eq!(store.put(key, value), None, "{key} was already there");
                        } else {
                            let key = i % COUNTERS;
                            let now = store.increment(key, 1);
                            let seen = store.get(key).expect("a writer lost a counter");
                            assert!(seen >= now, "key {key} went back: {seen} after {now}");
                            answers[key as usize].push(now);
                        }
                    }
                    answers
                })
            })
            .collect();
        let written: Vec<_> = writers.into_iter().map(|writer| writer.join()).collect();
        // Before anything can fail here: the readers stop on this.
        done.store(true, Ordering::Release);
        let mut answers = vec![Vec::new(); COUNTERS as usize];
        for theirs in written {
            let theirs = theirs.expect("a writer's assertion failed");
            for (all, one) in answers.iter_mut().zip(theirs) {
                all.extend(one);
            }
        }
        let want: Vec<u64> = answers.iter().map(|a| 1 + a.len() as u64).collect();
        for reader in readers {
            let last = reader.join().expect("a reader's assertion failed");
            assert_eq!(last.to_vec(), want, "a reader's last round missed a completed increment");
        }
        (want, answers)
    });

    assert!(store.splits() > 0, "the splitter never split");
    // Each increment answered a value no other did: together the
    // answers for a key are 2, 3, … up to its final value.
    for (k, mut answered) in answers.into_iter().enumerate() {
        answered.sort_unstable();
        assert!(answered.iter().copied().eq(2..=want[k]), "key {k}: an increment was lost");
        assert_eq!(store.get(k as u64), Some(want[k]));
    }
    let inserts = (0..WRITES / WRITERS).step_by(FRESH_EVERY as usize);
    let fresh_pairs: Vec<(u64, u64)> =
        (0..WRITERS).flat_map(|w| inserts.clone().map(move |i| fresh_of(w, i))).collect();
    let fresh_sum: u128 = fresh_pairs.iter().map(|&(_, value)| u128::from(value)).sum();
    let counted: u128 = want.iter().map(|&v| u128::from(v)).sum();
    assert_eq!(store.len(), COUNTERS as usize + fresh_pairs.len());
    assert_eq!(store.total(), counted + fresh_sum);
    for (key, value) in fresh_pairs {
        assert_eq!(store.get(key), Some(value));
    }
}

//! The sharded store: an extendible-hashing directory of shards, each
//! a table of atomic cells whose *shape* — which keys it holds, which
//! array holds them — only the shard's own `AdaptiveMutex` changes.
//!
//! ## Concurrency protocol
//!
//! There is at most one lock level an op takes: its shard's. A `get`
//! takes none: it routes, probes the shard's cell table and checks the
//! shard's `retired` flag, loads all three, and writes no line another
//! thread reads. Nor does an `increment` of a key that is already
//! there: it routes and adds to the value word with one CAS
//! (`crate::table` has the cell protocol: a key is published once,
//! after its value; a value word is a value or `CLAIMED`, and only the
//! holder of the table's one `Writer` claims one; a bigger table is
//! published beside the smaller one, which it froze). What the lock
//! guards is that `Writer`, and with it everything that changes a
//! table's shape or claims a value word: an insert and the growth it
//! may bring, every `put`, a split's copy, the closures of `update` and
//! `read`, and each shard visit of `scan`. Those still go through
//! `with_locked`, and a hot shard's flat-combining engine batches them;
//! an increment that finds its key absent or its value word `CLAIMED`
//! joins them. The lock's statistics, and everything decided from them
//! (heat, splits, the load ranking), therefore describe that load —
//! `put`s, inserts and closures — and not increments of present keys.
//!
//! The shard lock is not reentrant, and a lock-free op may need it: a
//! closure passed to `update`, `read` or `scan` must not call the store
//! for a key of the shard it runs on. A `get` there that finds the
//! value word `CLAIMED` — the key `update` is running on, or any value
//! of `u64::MAX` — waits for the lock its own caller holds.
//!
//! The directory in front of the shards is *published*, never locked
//! by a reader, so routing a key is a handful of loads from lines that
//! are written once per split — no read-modify-write, no store, no
//! reference count — and it hands out a `&Shard` that lives as long as
//! the store:
//!
//! * **Slot tables, one per global depth.** `tables[d]` has `2^d`
//!   slots, each the id of a shard; `depth` names the table ops route
//!   through. A split that needs no more slots stores its children's
//!   ids *in place* into the current table; a split that does builds
//!   table `d + 1` (slot `i` mirrors slot `i % 2^d`), wires the
//!   children into it, sets it, and only then raises `depth`. A table
//!   is never written again once `depth` has moved past it.
//! * **An append-only arena.** Every shard ever created lives at a
//!   fixed index (its id) in doubling chunks that are allocated on
//!   demand and never move. A retired shard stays there, frozen table
//!   and all, until the store drops.
//! * **One writer mutex** (`created`) serialises splits from "append
//!   the children" to "slots rewired". Readers never touch it, so a
//!   rewire blocks nobody.
//!
//! Publication is `Release` (slot stores, the `depth` store; the
//! `OnceLock`s of tables and arena slots release on `set`) against the
//! `Acquire` loads in `route`: whoever can see a shard's id in a slot
//! can see the shard, and whoever can see a depth can see its table.
//!
//! What keeps this correct is the shard's `retired` flag, stored under
//! the shard lock. Any slot of any table — the current one or a stale
//! one a reader picked up before a doubling — holds a shard that owned
//! that slot's keys when it was written; that shard is either still
//! their live owner or has been retired by a split. A locked op checks
//! the flag under the lock; an op that reaches a retired shard comes
//! back un-run and routes again through the current `depth` (the split
//! is a few stores from done, so it yields rather than spins). A
//! lock-free write needs no flag: the split claims every value word for
//! good as it copies the pairs out, so a CAS on a retired shard either
//! landed before its pair was copied, and the heir has it, or was
//! refused and goes to the lock like any other write. A `get` loads
//! the flag *after* the value: heirs are wired only after the flag is
//! stored, so "not retired" says that when the value was read no heir
//! existed that a completed write could have gone to, and the value was
//! the key's current one. "Retired" sends it round again like a writer,
//! although the frozen table still has the key. A `CLAIMED` value on a
//! live shard sends it to the locked `read`, since only the writer can
//! tell a claim from a real `u64::MAX`.
//!
//! A split holds the shard lock only to mark it retired and copy its
//! pairs out, releases it, and only then takes the writer mutex; no
//! thread holds a shard lock and the writer mutex together.
//!
//! Retained until drop: tables `initial_depth..=depth`, at most
//! `2 × slots() × 4` bytes together; one arena entry per shard ever
//! created (`initial shards + 2 × splits`, in chunks that at most
//! double that count); and with each shard its cell arrays — the
//! smaller ones it grew out of, under twice the cells of its last, and
//! a retired parent's whole table, so a key has one stale copy per
//! split level above it. Nothing is sized by `max_depth` up front.
//!
//! ## Resharding
//!
//! Classic extendible hashing: the directory has `2^global_depth`
//! slots indexed by the low bits of the mixed hash; each shard carries
//! a `local_depth ≤ global_depth` and owns every slot whose low
//! `local_depth` bits match. Splitting partitions the shard's keys on
//! hash bit `local_depth`, doubling the directory first if
//! `local_depth == global_depth`. [`ShardedStore::maintenance`] splits
//! any shard whose *contended-acquisition ratio* crossed the configured
//! threshold — the lock's own contention statistics, not key counts,
//! decide where more parallelism is needed. Reads and increments take
//! no lock, so it is contention among `put`s, inserts and closures that
//! splits a shard: the thing a split relieves. A split could not spread one
//! hot counter anyway; its key lands in one child.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use adaptive_control::BreakerHub;
use adaptive_native::{AdaptiveMutex, LockAlgorithm, PolicyChoice};
use serde::Serialize;

use crate::policy::HotShardPolicy;
use crate::router::{scramble, ShardRouter};
use crate::table::{Table, Writer, CLAIMED};

/// How each shard's lock is configured.
#[derive(Debug, Clone, Copy)]
pub enum ServicePolicy {
    /// Every shard gets the same fixed configuration — the baseline the
    /// adaptive layer must beat.
    Static(PolicyChoice),
    /// Every shard runs [`HotShardPolicy`]: attribute tuning while
    /// cold, flat-combining batching of locked ops while hot.
    HotShard {
        /// Waiting level that marks a shard hot.
        high_water: u64,
        /// Consecutive samples before migrating (both directions).
        patience: u32,
    },
}

impl ServicePolicy {
    /// Row label for reports.
    pub fn label(&self) -> String {
        match self {
            ServicePolicy::Static(p) => p.label(),
            ServicePolicy::HotShard { .. } => "hot-shard".into(),
        }
    }

    fn build(&self, writer: Writer) -> AdaptiveMutex<Writer> {
        match *self {
            ServicePolicy::Static(p) => p.build_mutex(writer),
            ServicePolicy::HotShard { high_water, patience } => AdaptiveMutex::self_paced(
                writer,
                Box::new(HotShardPolicy::new(high_water, patience)),
            ),
        }
    }

    /// Build the lock for a split child: adaptive children inherit the
    /// parent's installed engine (a hot shard's halves are still hot —
    /// resetting them to spin-park would un-batch the hottest keys
    /// exactly when batching pays), while static children stay whatever
    /// the static choice dictates.
    fn build_child(&self, writer: Writer, parent: LockAlgorithm) -> AdaptiveMutex<Writer> {
        match *self {
            ServicePolicy::Static(_) => self.build(writer),
            ServicePolicy::HotShard { high_water, patience } => {
                let m = AdaptiveMutex::self_paced(
                    writer,
                    Box::new(HotShardPolicy::starting(high_water, patience, parent)),
                );
                // The lock is unshared until the directory rewire
                // publishes it, so the switch installs immediately.
                m.set_algorithm(parent);
                m
            }
        }
    }
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Initial directory depth: the store starts with `2^initial_depth`
    /// shards.
    pub initial_depth: u32,
    /// No shard ever exceeds this local depth (caps the shard count at
    /// `2^max_depth`).
    pub max_depth: u32,
    /// Split a shard once its contended-acquisition *rate* — contended
    /// acquisitions per second, measured between maintenance passes —
    /// reaches this. Only `put`s, inserts and closures (`update`,
    /// `read`, `scan`) acquire a shard lock; a `get` or an `increment`
    /// of a present key does not, so they never move this rate. A rate,
    /// not a ratio: on an oversubscribed host the
    /// contended *fraction* stays tiny everywhere (contention appears
    /// only at preemption boundaries), but hot shards still rack up
    /// contended events orders of magnitude faster than cold ones.
    pub split_contended_per_sec: f64,
    /// ... but only after it has absorbed this many acquisitions —
    /// `put`s, inserts and closures, that is; `get`s and increments of
    /// present keys are not counted (don't split on startup noise).
    pub split_min_acquisitions: u64,
    /// ... and only while its contended rate is at least this multiple
    /// of the mean rate across all shards. Splitting answers *skew*:
    /// a uniformly busy store gains nothing from more shards (every
    /// split briefly retires a shard mid-run), so uniform contention —
    /// however high in absolute terms — must not cascade the whole
    /// directory to `max_depth`. Zero disables the gate. A store with
    /// a single shard has no imbalance to measure and always passes.
    pub split_imbalance_factor: f64,
    /// ... held for this many *consecutive* maintenance passes. One
    /// pass's rates are a handful of events on a short window — on a
    /// saturated host they concentrate on whichever shards sat at a
    /// scheduler slice boundary, so any single window shows some shard
    /// far above the mean and the imbalance gate alone would still
    /// cascade. Genuine skew re-elects the same shard pass after pass;
    /// noise rotates. Values ≤ 1 split on the first qualifying pass.
    pub split_sustain: u32,
    /// Per-shard lock policy.
    pub policy: ServicePolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            initial_depth: 3,
            max_depth: 8,
            split_contended_per_sec: 50.0,
            split_min_acquisitions: 10_000,
            split_imbalance_factor: 3.0,
            split_sustain: 3,
            policy: ServicePolicy::HotShard { high_water: 3, patience: 2 },
        }
    }
}

/// One shard: an immutable identity, the pairs, and the lock that
/// guards the right to insert, grow, freeze and claim them.
struct Shard {
    /// Arena index, handed out in creation order; the number in the
    /// registry name.
    id: u32,
    local_depth: u32,
    /// The low `local_depth` bits of `scramble(key)` for every key this
    /// shard owns; with `local_depth`, the slots it is wired into.
    pattern: u64,
    /// The shard's pairs. Anyone reads them; `lock` holds the writer.
    table: Table,
    lock: Arc<AdaptiveMutex<Writer>>,
    /// Stored (`Release`) under the shard lock by a split, before it
    /// freezes the pairs and copies them out: from then on an op that
    /// reaches this shard routes again through the (rewired) directory.
    /// Locked ops check it under the lock, `get` after its value load;
    /// a lock-free write is refused by the frozen value word instead.
    retired: AtomicBool,
    /// Contended-acquisition count as of the last maintenance pass;
    /// the baseline for the per-second split-rate computation.
    seen_contended: AtomicU64,
    /// Consecutive maintenance passes this shard's contended rate has
    /// satisfied every split gate (see `ServiceConfig::split_sustain`).
    split_streak: AtomicU32,
}

impl Shard {
    fn new(
        id: u32,
        local_depth: u32,
        pattern: u64,
        table: Table,
        lock: AdaptiveMutex<Writer>,
    ) -> Shard {
        Shard {
            id,
            local_depth,
            pattern,
            table,
            lock: Arc::new(lock),
            retired: AtomicBool::new(false),
            seen_contended: AtomicU64::new(0),
            split_streak: AtomicU32::new(0),
        }
    }

    fn name(&self) -> String {
        format!("shard-{}", self.id)
    }
}

/// Slot tables exist for global depths `0..=MAX_GLOBAL_DEPTH`.
const MAX_GLOBAL_DEPTH: u32 = 32;
/// Slots in the arena's first chunk; chunk `c` holds `ARENA_FIRST << c`.
const ARENA_FIRST: u64 = 16;
/// Doubling chunks from `ARENA_FIRST` that cover every `u32` id.
const ARENA_CHUNKS: usize = (u32::BITS - ARENA_FIRST.ilog2() + 1) as usize;

/// Append-only home of every shard the store creates. A shard's index
/// is its id and never changes, chunks are allocated on demand and
/// never move, so a `&Shard` is good for the life of the store and
/// finding one is loads only. Appends are the writer's (see the module
/// docs); reads are anyone's.
struct Arena {
    chunks: [OnceLock<Box<[OnceLock<Shard>]>>; ARENA_CHUNKS],
}

impl Arena {
    fn new() -> Arena {
        Arena { chunks: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// Chunk and offset of an id: chunk `c` starts at id
    /// `ARENA_FIRST × (2^c − 1)`.
    fn locate(id: u32) -> (usize, usize) {
        let n = u64::from(id) + ARENA_FIRST;
        let chunk = n.ilog2() - ARENA_FIRST.ilog2();
        (chunk as usize, (n - (ARENA_FIRST << chunk)) as usize)
    }

    fn get(&self, id: u32) -> &Shard {
        let (chunk, at) = Arena::locate(id);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[at].get())
            .expect("an id read from a slot table names a shard already in the arena")
    }

    fn push(&self, shard: Shard) -> &Shard {
        let (chunk, at) = Arena::locate(shard.id);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..ARENA_FIRST << chunk).map(|_| OnceLock::new()).collect());
        assert!(slots[at].set(shard).is_ok(), "shard ids are handed out once");
        slots[at].get().expect("set just above")
    }
}

/// Point-in-time view of one shard: identity, occupancy, and the lock
/// configuration its policy has settled on — the evidence rows for the
/// hot-vs-cold divergence verdict.
#[derive(Debug, Clone, Serialize)]
pub struct ShardSnapshot {
    /// Registry name (`shard-<id>`).
    pub name: String,
    /// Extendible-hashing local depth.
    pub local_depth: u32,
    /// Live keys, as last published by the shard's writer; read
    /// without the lock.
    pub keys: usize,
    /// Engine currently installed on the shard lock.
    pub algorithm: String,
    /// Current spin attribute.
    pub spin_limit: u32,
    /// Acquisitions between the lock's monitor samples right now
    /// (`0`: a static lock whose monitor is off).
    pub sample_period: u64,
    /// Waiters at snapshot time.
    pub waiting: u32,
    /// Total lock acquisitions — the ranking by `put`s, inserts and
    /// closures: a `get` or an `increment` of a present key acquires
    /// nothing.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held.
    pub contended: u64,
    /// Times a waiter fully parked.
    pub parked: u64,
    /// Critical sections executed for other threads by a combining
    /// drain — direct evidence of write batching.
    pub combined_ops: u64,
    /// Engine migrations installed on this lock.
    pub algorithm_switches: u64,
    /// Attribute retunes applied by the feedback loop.
    pub reconfigurations: u64,
}

/// The hot-vs-cold divergence verdict, computed from shard snapshots:
/// did the shards busiest and idlest with `put`s, inserts and closures
/// — the only load a shard lock sees; increments of present keys are
/// not among it — actually settle on different lock configurations?
#[derive(Debug, Clone, Serialize)]
pub struct DivergenceVerdict {
    /// Busiest shard (most acquisitions, so most locked ops).
    pub hot_name: String,
    /// Its engine.
    pub hot_algorithm: String,
    /// Its spin attribute.
    pub hot_spin_limit: u32,
    /// Its acquisition count.
    pub hot_acquisitions: u64,
    /// Idlest shard (fewest acquisitions).
    pub cold_name: String,
    /// Its engine.
    pub cold_algorithm: String,
    /// Its spin attribute.
    pub cold_spin_limit: u32,
    /// Its acquisition count.
    pub cold_acquisitions: u64,
    /// Distinct engines across all shards.
    pub engines: Vec<String>,
    /// True when hot and cold settled on different engines or
    /// different spin attributes.
    pub diverged: bool,
}

/// Compute the divergence verdict over a set of shard snapshots.
pub fn divergence(snapshots: &[ShardSnapshot]) -> Option<DivergenceVerdict> {
    let hot = snapshots.iter().max_by_key(|s| s.acquisitions)?;
    let cold = snapshots.iter().min_by_key(|s| s.acquisitions)?;
    let engines: BTreeSet<&str> = snapshots.iter().map(|s| s.algorithm.as_str()).collect();
    Some(DivergenceVerdict {
        hot_name: hot.name.clone(),
        hot_algorithm: hot.algorithm.clone(),
        hot_spin_limit: hot.spin_limit,
        hot_acquisitions: hot.acquisitions,
        cold_name: cold.name.clone(),
        cold_algorithm: cold.algorithm.clone(),
        cold_spin_limit: cold.spin_limit,
        cold_acquisitions: cold.acquisitions,
        engines: engines.iter().map(|e| e.to_string()).collect(),
        diverged: hot.algorithm != cold.algorithm || hot.spin_limit != cold.spin_limit,
    })
}

/// The sharded KV/counter store. See the module docs for the
/// concurrency protocol.
pub struct ShardedStore {
    /// Global depth: ops route through `tables[depth]`.
    depth: AtomicU32,
    /// `tables[d]`, once set, has `2^d` slots of shard ids.
    tables: [OnceLock<Box<[AtomicU32]>>; MAX_GLOBAL_DEPTH as usize + 1],
    arena: Arena,
    /// Shards ever created, which is the next id. Its mutex is the
    /// writer mutex: held from a split's first arena append to its last
    /// slot store.
    created: Mutex<u32>,
    config: ServiceConfig,
    splits: AtomicU64,
    hub: Mutex<Option<Arc<BreakerHub>>>,
    last_maintenance: Mutex<Instant>,
}

fn low_bits(depth: u32) -> u64 {
    (1u64 << depth) - 1
}

impl ShardedStore {
    /// An empty store with `2^initial_depth` shards.
    pub fn new(config: ServiceConfig) -> ShardedStore {
        let config = ServiceConfig { max_depth: config.max_depth.min(MAX_GLOBAL_DEPTH), ..config };
        let depth = config.initial_depth.min(config.max_depth);
        let shards = u32::try_from(1u64 << depth).expect("2^32 initial shards");
        let store = ShardedStore {
            depth: AtomicU32::new(depth),
            tables: std::array::from_fn(|_| OnceLock::new()),
            arena: Arena::new(),
            created: Mutex::new(shards),
            config,
            splits: AtomicU64::new(0),
            hub: Mutex::new(None),
            last_maintenance: Mutex::new(Instant::now()),
        };
        let table = (0..shards)
            .map(|id| {
                let (table, writer) = Table::with_room(0);
                let lock = config.policy.build(writer);
                store.arena.push(Shard::new(id, depth, u64::from(id), table, lock));
                AtomicU32::new(id)
            })
            .collect();
        store.tables[depth as usize].set(table).expect("a new store has no tables");
        store
    }

    fn table(&self, depth: u32) -> &[AtomicU32] {
        self.tables[depth as usize]
            .get()
            .expect("a table is set before the depth that names it is stored")
    }

    /// The shard wired into `hash`'s slot of table `depth`. Loads only.
    /// `depth` is the current one for an op and may be an older one a
    /// reader picked up before a doubling: either way the shard is the
    /// hash's live owner or retired.
    fn route(&self, depth: u32, hash: u64) -> &Shard {
        let table = self.table(depth);
        let slot = (hash & (table.len() as u64 - 1)) as usize;
        self.arena.get(table[slot].load(Ordering::Acquire))
    }

    fn shard_for(&self, key: u64) -> &Shard {
        self.route(self.depth.load(Ordering::Acquire), scramble(key))
    }

    /// The distinct shards wired into the current table's slots whose
    /// low `local_depth` bits are `pattern`, in id order: the live
    /// owners of that part of the hash space (mid-split, a retired
    /// shard whose children are not wired yet). `(0, 0)` is the whole
    /// directory.
    fn owners(&self, local_depth: u32, pattern: u64) -> Vec<&Shard> {
        let table = self.table(self.depth.load(Ordering::Acquire));
        let mut ids: Vec<u32> = (pattern as usize..table.len())
            .step_by(1 << local_depth)
            .map(|slot| table[slot].load(Ordering::Acquire))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(|id| self.arena.get(id)).collect()
    }

    /// Run `f` on `shard`, which `key` was routed to, routing again if
    /// a split retired it mid-flight.
    fn with_key_shard<'a, R: Send>(
        &'a self,
        mut shard: &'a Shard,
        key: u64,
        f: impl Fn(&Table, &mut Writer) -> R + Send + Sync,
    ) -> R {
        loop {
            let fr = &f;
            let done = shard.lock.with_locked(move |writer| {
                // Stored under this lock, so `Relaxed` reads it exactly.
                if shard.retired.load(Ordering::Relaxed) {
                    None
                } else {
                    Some(fr(&shard.table, writer))
                }
            });
            if let Some(r) = done {
                return r;
            }
            // The routed shard is retired: its keys are being
            // partitioned right now on another thread. Yield rather
            // than spin — on a saturated host a spin loop here steals
            // the timeslice the partitioner needs to finish.
            std::thread::yield_now();
            shard = self.shard_for(key);
        }
    }

    /// Like `with_key_shard` for one-shot closures: the
    /// op moves into the critical section and is executed exactly once
    /// — a routed-to-retired shard returns it un-run for the retry.
    fn with_key_shard_once<R, F>(&self, key: u64, mut f: F) -> R
    where
        R: Send,
        F: FnOnce(&Table, &mut Writer) -> R + Send,
    {
        loop {
            let shard = self.shard_for(key);
            let done = shard.lock.with_locked(move |writer| {
                if shard.retired.load(Ordering::Relaxed) {
                    Err(f)
                } else {
                    Ok(f(&shard.table, writer))
                }
            });
            match done {
                Ok(r) => return r,
                Err(back) => {
                    f = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Read a key: route, probe, check `retired` — loads only. It takes
    /// no lock, writes no shared line and never waits for a writer
    /// unless it finds the value word `CLAIMED`; otherwise the one
    /// thing it waits for is the rewire of a split it ran into.
    pub fn get(&self, key: u64) -> Option<u64> {
        loop {
            let shard = self.shard_for(key);
            let value = shard.table.get(key);
            // Loaded after the value (an `Acquire` load in `Table::get`
            // keeps it there): not retired now means that when the value
            // was read no heir existed a completed write could have gone
            // to, so the value was the key's current one.
            if !shard.retired.load(Ordering::Acquire) {
                if value == Some(CLAIMED) {
                    // A writer's claim or a real `u64::MAX`: ask the writer.
                    return self.read(key, |v| v);
                }
                return value;
            }
            // Frozen, its heirs a few stores from wired; see
            // `with_key_shard` for why this yields.
            std::thread::yield_now();
        }
    }

    /// Write a key; returns the previous value.
    pub fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.with_key_shard(self.shard_for(key), key, move |table, writer| {
            table.upsert(writer, key, |_| value).0
        })
    }

    /// Add `by` to a counter key (missing counters start at 0, and the
    /// sum wraps); returns the new value. A present key's value takes
    /// the add with one CAS, without the lock; the lock is only for a
    /// missing key, or for one whose value word the writer has claimed.
    pub fn increment(&self, key: u64, by: u64) -> u64 {
        let shard = self.shard_for(key);
        if let Some(new) = shard.table.add(key, by) {
            return new;
        }
        self.with_key_shard(shard, key, move |table, writer| {
            table.upsert(writer, key, |v| v.unwrap_or(0).wrapping_add(by)).1
        })
    }

    /// Read `key` through `f` inside the shard critical section: `f`
    /// gets the value (or `None`) as it was when loaded under the lock
    /// and computes the response from that copy; a lock-free
    /// `increment` may land while it runs. This is the knob every other
    /// workload in this workspace exposes as `cs_iters` — the request
    /// processing a real service does under the lock (decode,
    /// validate, serialize). Runs exactly once; `f` must not call the
    /// store for a key of this shard (see the module docs).
    pub fn read<R: Send>(&self, key: u64, f: impl FnOnce(Option<u64>) -> R + Send) -> R {
        // No claim is outstanding under the writer, so a value word of
        // `CLAIMED` here is a real `u64::MAX`.
        self.with_key_shard_once(key, move |table, _| f(table.get(key)))
    }

    /// Read-modify-write `key` inside the shard critical section: `f`
    /// maps the current value (or `None`) to the new value, which is
    /// stored and returned. Like [`ShardedStore::read`], the closure is
    /// where a workload models per-request work done under the lock;
    /// here the record is claimed, so nothing changes it until `f`
    /// returns. Runs exactly once; if it panics, the key keeps the
    /// value it had. `f` must not call the store for a key of this
    /// shard (see the module docs).
    pub fn update(&self, key: u64, f: impl FnOnce(Option<u64>) -> u64 + Send) -> u64 {
        self.with_key_shard_once(key, move |table, writer| table.upsert(writer, key, f).1)
    }

    /// Fold over every key/value pair, shard by shard (each shard
    /// visited under its lock, so no key appears or moves during the
    /// visit, though an `increment` of a present key may land in it;
    /// the whole scan is not a snapshot — run it at quiescence when
    /// exact totals matter). `f` must not call the store (see the
    /// module docs).
    /// Splits racing the scan move pairs between shards but neither
    /// hide one nor show it twice.
    pub fn scan<A: Send>(&self, mut acc: A, f: impl Fn(&mut A, u64, u64) + Send + Sync) -> A {
        // One view of the directory, walked to the end. A shard found
        // retired is replaced by the current owners of its slots; the
        // parts of the hash space already folded in, as
        // `(local_depth, pattern)`, keep a shard visited live from
        // being met again through the children it has split into since.
        let mut folded: BTreeSet<(u32, u64)> = BTreeSet::new();
        let mut pending = self.owners(0, 0);
        pending.reverse();
        while let Some(shard) = pending.pop() {
            if (0..=shard.local_depth).any(|d| folded.contains(&(d, shard.pattern & low_bits(d)))) {
                continue;
            }
            let fr = &f;
            let acc_ref = &mut acc;
            let visited = shard.lock.with_locked(move |writer| {
                if shard.retired.load(Ordering::Relaxed) {
                    return false;
                }
                shard.table.for_each(writer, |k, v| fr(acc_ref, k, v));
                true
            });
            if visited {
                folded.insert((shard.local_depth, shard.pattern));
                continue;
            }
            let heirs = self.owners(shard.local_depth, shard.pattern);
            if heirs.iter().any(|heir| heir.id == shard.id) {
                // Retired but not rewired yet: give the splitter the core.
                std::thread::yield_now();
            }
            pending.extend(heirs.into_iter().rev());
        }
        acc
    }

    /// Total number of live keys.
    pub fn len(&self) -> usize {
        self.scan(0usize, |n, _, _| *n += 1)
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of every value — the conservation oracle for counter
    /// workloads.
    pub fn total(&self) -> u128 {
        self.scan(0u128, |t, _, v| *t += u128::from(v))
    }

    /// Distinct shards currently wired into the directory.
    pub fn shard_count(&self) -> usize {
        self.owners(0, 0).len()
    }

    /// Splits performed since creation.
    pub fn splits(&self) -> u64 {
        self.splits.load(Ordering::Relaxed)
    }

    /// Current directory slot count (`2^global_depth`).
    pub fn slots(&self) -> usize {
        self.current_router().slots()
    }

    /// Snapshot every shard's identity, occupancy, and lock
    /// configuration. Acquires no shard lock.
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.owners(0, 0)
            .into_iter()
            .map(|shard| {
                let stats = shard.lock.stats();
                ShardSnapshot {
                    name: shard.name(),
                    local_depth: shard.local_depth,
                    keys: shard.table.keys(),
                    algorithm: shard.lock.algorithm().label().to_string(),
                    spin_limit: shard.lock.spin_limit(),
                    sample_period: shard.lock.sample_period(),
                    waiting: shard.lock.waiting_now(),
                    acquisitions: stats.acquisitions,
                    contended: stats.contended,
                    parked: stats.parked,
                    combined_ops: stats.combined_ops,
                    algorithm_switches: stats.algorithm_switches,
                    reconfigurations: stats.reconfigurations,
                }
            })
            .collect()
    }

    /// Register every shard lock with a [`BreakerHub`] (names
    /// `shard-<id>`). The store keeps the hub and maintains the
    /// registry across splits: retired shards are unregistered, their
    /// children registered.
    pub fn register_with_hub(&self, hub: Arc<BreakerHub>) {
        for shard in self.owners(0, 0) {
            hub.register(shard.name(), shard.lock.clone());
        }
        *self.hub_slot() = Some(hub);
    }

    fn hub_slot(&self) -> std::sync::MutexGuard<'_, Option<Arc<BreakerHub>>> {
        match self.hub.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// One maintenance pass: split every shard whose contended-
    /// acquisition rate (per second, measured since the previous pass)
    /// crossed the configured threshold *and* stands out against the
    /// directory — at least `split_imbalance_factor` times the mean
    /// rate across all shards. Returns the number of splits made. Call
    /// periodically from a maintenance tick (the load generator does);
    /// ops never split inline, so their tail is not taxed.
    pub fn maintenance(&self) -> usize {
        let secs = {
            let mut last = match self.last_maintenance.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let now = Instant::now();
            let dt = now - *last;
            *last = now;
            // Back-to-back passes still get a sane denominator.
            (dt.as_nanos() as f64 / 1e9).max(1e-6)
        };
        // First pass: roll every shard's contended baseline forward and
        // compute this interval's rates, so the mean is taken over the
        // same window for everyone (and a shard that later crosses the
        // acquisition floor doesn't report its whole history as one
        // interval's rate).
        let rated: Vec<(&Shard, u64, f64)> = self
            .owners(0, 0)
            .into_iter()
            .map(|shard| {
                let stats = shard.lock.stats();
                let prev = shard.seen_contended.swap(stats.contended, Ordering::Relaxed);
                let rate = stats.contended.saturating_sub(prev) as f64 / secs;
                (shard, stats.acquisitions, rate)
            })
            .collect();
        let peers = rated.len();
        let mean_rate = rated.iter().map(|&(_, _, r)| r).sum::<f64>() / peers.max(1) as f64;
        let mut performed = 0;
        for (shard, acquisitions, rate) in rated {
            // The imbalance gate: a lone shard has no peers to compare
            // against, so it always passes.
            let stands_out =
                peers <= 1 || rate >= self.config.split_imbalance_factor * mean_rate;
            let qualifies = shard.local_depth < self.config.max_depth
                && acquisitions >= self.config.split_min_acquisitions
                && rate >= self.config.split_contended_per_sec
                && stands_out;
            if !qualifies {
                // One window's contended events are sparse and cluster at
                // scheduler slice boundaries; a shard that fails any gate
                // restarts its streak rather than coasting on old heat.
                shard.split_streak.store(0, Ordering::Relaxed);
                continue;
            }
            let streak = shard.split_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak < self.config.split_sustain {
                continue;
            }
            if self.split(shard) {
                performed += 1;
            } else {
                // Lost the race (someone else retired it); start over.
                shard.split_streak.store(0, Ordering::Relaxed);
            }
        }
        self.splits.fetch_add(performed as u64, Ordering::Relaxed);
        performed
    }

    /// Split one shard: retire it, partition its keys on hash bit
    /// `local_depth`, rewire (and double, if needed) the directory.
    fn split(&self, old: &Shard) -> bool {
        // Phase 1 — retire under the shard lock only, then freeze the
        // pairs and copy them out: a lock-free write lands before its
        // pair is claimed, and is copied, or is refused and re-routes.
        // The table itself stays for the readers still in it.
        let bit = 1u64 << old.local_depth;
        let taken = old.lock.with_locked(|writer| {
            if old.retired.load(Ordering::Relaxed) {
                return None;
            }
            old.retired.store(true, Ordering::Release);
            // Phase 2 — partition on the next hash bit.
            let (mut low, mut high) = (Vec::new(), Vec::new());
            old.table.freeze_each(writer, |k, v| {
                if scramble(k) & bit != 0 { &mut high } else { &mut low }.push((k, v));
            });
            Some((low, high))
        });
        let Some((low, high)) = taken else {
            return false; // another maintenance pass won the race
        };
        let parent_algo = old.lock.algorithm();
        let child = |pairs: Vec<(u64, u64)>| {
            // Sized for what it receives, so filling it never grows it.
            let (table, mut writer) = Table::with_room(pairs.len());
            for &(k, v) in &pairs {
                table.upsert(&mut writer, k, |_| v);
            }
            // Only a child that actually received keys inherits the
            // parent's (possibly hot) engine; an empty child has no
            // traffic to justify it — and, getting no samples, would
            // otherwise sit on the inherited engine forever.
            let algo = if pairs.is_empty() { LockAlgorithm::SpinPark } else { parent_algo };
            (table, self.config.policy.build_child(writer, algo))
        };
        let (low, high) = (child(low), child(high));

        // Phase 3 — append the children and rewire, as the one writer.
        let (s_low, s_high) = {
            let mut created = match self.created.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let mut child = |pattern, (table, lock)| {
                let id = *created;
                *created = id.checked_add(1).expect("more than 2^32 shards");
                self.arena.push(Shard::new(id, old.local_depth + 1, pattern, table, lock))
            };
            let (s_low, s_high) = (child(old.pattern, low), child(old.pattern | bit, high));
            let wire = |table: &[AtomicU32]| {
                for slot in (old.pattern as usize..table.len()).step_by(1 << old.local_depth) {
                    let heir = if slot as u64 & bit != 0 { s_high } else { s_low };
                    table[slot].store(heir.id, Ordering::Release);
                }
            };
            // Only the writer stores `depth`, and that is us.
            let depth = self.depth.load(Ordering::Relaxed);
            if old.local_depth == depth {
                // Double: new slot i mirrors old slot i % old_len. The
                // old table keeps pointing at `old`, which sends the
                // readers still holding it back through the new depth.
                let current = self.table(depth);
                let doubled: Box<[AtomicU32]> = current
                    .iter()
                    .chain(current)
                    .map(|slot| AtomicU32::new(slot.load(Ordering::Relaxed)))
                    .collect();
                wire(&doubled);
                self.tables[depth as usize + 1].set(doubled).expect("one table per depth");
                self.depth.store(depth + 1, Ordering::Release);
            } else {
                wire(self.table(depth));
            }
            (s_low, s_high)
        };

        // Phase 4 — keep the control-plane registry current.
        if let Some(hub) = self.hub_slot().clone() {
            hub.unregister(&old.name());
            hub.register(s_low.name(), s_low.lock.clone());
            hub.register(s_high.name(), s_high.lock.clone());
        }
        true
    }

    /// The store's current router (slot arithmetic for the present
    /// directory size).
    pub fn current_router(&self) -> ShardRouter {
        ShardRouter::new(self.depth.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tiny(policy: ServicePolicy) -> ServiceConfig {
        ServiceConfig {
            initial_depth: 1,
            max_depth: 4,
            split_contended_per_sec: 0.0,
            split_min_acquisitions: 1,
            split_imbalance_factor: 0.0,
            split_sustain: 1,
            policy,
        }
    }

    #[test]
    fn get_put_increment_scan_round_trip() {
        let store = ShardedStore::new(ServiceConfig::default());
        assert!(store.is_empty());
        assert_eq!(store.put(7, 100), None);
        assert_eq!(store.put(7, 200), Some(100));
        assert_eq!(store.get(7), Some(200));
        assert_eq!(store.get(8), None);
        assert_eq!(store.increment(9, 5), 5);
        assert_eq!(store.increment(9, 5), 10);
        assert_eq!(store.len(), 2);
        assert_eq!(store.total(), 210);
        let keys = store.scan(Vec::new(), |v: &mut Vec<u64>, k, _| v.push(k));
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn read_and_update_run_their_closure_exactly_once_across_splits() {
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        // Upsert semantics: None for a missing key, then read-modify-write.
        assert_eq!(store.update(3, |v| v.unwrap_or(0) + 10), 10);
        assert_eq!(store.update(3, |v| v.unwrap_or(0) + 10), 20);
        assert_eq!(store.read(3, |v| v.map(|x| x * 2)), Some(40));
        assert!(!store.read(4, |v| v.is_some()));
        // Splits rewire the directory under the ops; each closure must
        // still run exactly once (runs counts every execution).
        for k in 0..200u64 {
            store.put(k, 1);
        }
        while store.maintenance() > 0 {}
        assert!(store.splits() > 0);
        let mut runs = 0u32;
        for k in 0..200u64 {
            store.update(k, |v| {
                runs += 1;
                v.expect("key was written before the splits") + 1
            });
        }
        assert_eq!(runs, 200, "an update closure ran twice or not at all");
        // The put loop overwrote key 3, so every key holds exactly 2.
        assert_eq!(store.total(), 400);
    }

    #[test]
    fn splits_preserve_every_key_and_deepen_the_directory() {
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        assert_eq!(store.shard_count(), 2);
        for k in 0..500u64 {
            store.put(k, k);
        }
        // Thresholds are zeroed, so every touched shard splits.
        let mut rounds = 0;
        while store.maintenance() > 0 && rounds < 8 {
            rounds += 1;
        }
        assert!(store.splits() > 0, "zeroed thresholds must trigger splits");
        assert!(store.shard_count() > 2);
        assert!(store.slots() >= store.shard_count());
        // Nothing lost, nothing duplicated, every key still routable.
        assert_eq!(store.len(), 500);
        for k in 0..500u64 {
            assert_eq!(store.get(k), Some(k), "key {k} lost across resharding");
        }
        // Every shard is capped at max_depth.
        assert!(store.snapshots().iter().all(|s| s.local_depth <= 4));
    }

    #[test]
    fn concurrent_increments_survive_a_mid_run_split() {
        let store = Arc::new(ShardedStore::new(tiny(ServicePolicy::HotShard {
            high_water: 2,
            patience: 2,
        })));
        let threads = 4;
        let per = 2_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..per {
                        store.increment((t * per + i) % 97, 1);
                        if i % 500 == 0 {
                            store.maintenance();
                        }
                    }
                });
            }
        });
        assert_eq!(
            store.total(),
            u128::from(threads * per),
            "increments lost or double-applied across concurrent resharding"
        );
        assert!(store.len() <= 97);
    }

    #[test]
    fn split_children_inherit_a_hot_parents_engine() {
        // One shard takes every op: back-to-back updates — locked, where
        // an increment of a present key is not — give the policy
        // sub-microsecond sample gaps, which read as heat and migrate
        // the shard to flat combining.
        let store = ShardedStore::new(ServiceConfig {
            initial_depth: 0,
            max_depth: 2,
            split_contended_per_sec: 0.0,
            split_min_acquisitions: 1,
            split_imbalance_factor: 0.0,
            split_sustain: 1,
            policy: ServicePolicy::HotShard { high_water: 64, patience: 2 },
        });
        let mut flipped = false;
        for i in 0..40_000u64 {
            store.update(i % 64, |v| v.unwrap_or(0) + 1);
            if i % 512 == 0
                && store.snapshots().iter().any(|s| s.algorithm == "flat-combining")
            {
                flipped = true;
                break;
            }
        }
        assert!(flipped, "sustained single-shard traffic must batch");
        // Zeroed thresholds split it; the children must come up batched
        // rather than re-paying cold-start detection.
        assert!(store.maintenance() > 0, "the hot shard must split");
        let snaps = store.snapshots();
        assert!(snaps.len() >= 2);
        for s in &snaps {
            assert_eq!(
                s.algorithm, "flat-combining",
                "{} lost the parent's engine across the split", s.name
            );
        }
    }

    #[test]
    fn arena_chunks_double_and_cover_every_id() {
        assert_eq!(Arena::locate(0), (0, 0));
        assert_eq!(Arena::locate(15), (0, 15));
        assert_eq!(Arena::locate(16), (1, 0));
        assert_eq!(Arena::locate(47), (1, 31));
        assert_eq!(Arena::locate(48), (2, 0));
        let (last_chunk, at) = Arena::locate(u32::MAX);
        assert_eq!(last_chunk, ARENA_CHUNKS - 1);
        assert!((at as u64) < ARENA_FIRST << last_chunk);
    }

    fn is_retired(shard: &Shard) -> bool {
        shard.retired.load(Ordering::Acquire)
    }

    #[test]
    fn a_held_writer_mutex_blocks_no_op_on_another_shard() {
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        for k in 0..64u64 {
            store.put(k, k);
        }
        let victim = store.shard_for(0);
        let (elsewhere, on_victim): (Vec<u64>, Vec<u64>) =
            (0..64u64).partition(|&k| !std::ptr::eq(store.shard_for(k), victim));
        assert!(!elsewhere.is_empty() && !on_victim.is_empty());

        // Stop a split half way: its shard retired, its children not
        // wired, the writer mutex taken.
        let writer = store.created.lock().expect("no thread panicked holding it");
        std::thread::scope(|scope| {
            let splitter = scope.spawn(|| store.split(victim));
            while !is_retired(victim) {
                std::thread::yield_now();
            }
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let keys = &elsewhere;
            let store = &store;
            scope.spawn(move || {
                for &k in keys {
                    assert_eq!(store.get(k), Some(k));
                    assert_eq!(store.increment(k, 1), k + 1);
                    assert_eq!(store.put(k, k), Some(k + 1));
                }
                done_tx.send(()).expect("the test is waiting");
            });
            let finished = done_rx.recv_timeout(std::time::Duration::from_secs(30));
            drop(writer);
            finished.expect("an op on another shard waited for the writer mutex");
            assert!(splitter.join().expect("the split does not panic"));
        });
        // The victim's keys were waiting for the rewire, not lost.
        for k in on_victim {
            assert_eq!(store.get(k), Some(k));
        }
        assert_eq!(store.len(), 64);
    }

    #[test]
    fn a_get_that_meets_a_retired_shard_waits_for_the_rewire() {
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        for k in 0..64u64 {
            store.put(k, k);
        }
        let victim = store.shard_for(0);
        let (elsewhere, on_victim): (Vec<u64>, Vec<u64>) =
            (0..64u64).partition(|&k| !std::ptr::eq(store.shard_for(k), victim));
        assert!(!elsewhere.is_empty() && !on_victim.is_empty());

        // The same half-way split: retired, children not wired.
        let writer = store.created.lock().expect("no thread panicked holding it");
        std::thread::scope(|scope| {
            let splitter = scope.spawn(|| store.split(victim));
            while !is_retired(victim) {
                std::thread::yield_now();
            }
            let (tx, rx) = std::sync::mpsc::channel();
            let (store, key) = (&store, on_victim[0]);
            scope.spawn(move || {
                tx.send(None).expect("the test is waiting");
                tx.send(Some(store.get(key))).expect("the test is waiting");
            });
            assert_eq!(rx.recv(), Ok(None), "the reader is about to call get");
            // Reads of the other shards take no notice of any of it.
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let keys = &elsewhere;
            scope.spawn(move || {
                for &k in keys {
                    assert_eq!(store.get(k), Some(k));
                }
                done_tx.send(()).expect("the test is waiting");
            });
            let elsewhere_done = done_rx.recv_timeout(std::time::Duration::from_secs(30));
            // The frozen table still has the pair; handing it out would
            // be a read of a shard whose heirs may already take writes.
            let early = rx.recv_timeout(std::time::Duration::from_millis(50));
            drop(writer);
            elsewhere_done.expect("a get on another shard waited for the split");
            assert!(early.is_err(), "a get answered from a retired shard: {early:?}");
            let late = rx.recv_timeout(std::time::Duration::from_secs(30));
            assert_eq!(late, Ok(Some(Some(key))), "the get did not come back from the heir");
            assert!(splitter.join().expect("the split does not panic"));
        });
        let heir = store.shard_for(on_victim[0]);
        assert!(!is_retired(heir) && heir.local_depth == victim.local_depth + 1);
    }

    #[test]
    fn reads_neither_heat_nor_split_a_shard() {
        // One shard; every split gate open to a shard that has taken a
        // thousand acquisitions, and a policy that batches a shard whose
        // lock is taken back to back (`split_children_inherit_a_hot_
        // parents_engine` heats it with updates in well under 40 000).
        let store = ShardedStore::new(ServiceConfig {
            initial_depth: 0,
            max_depth: 2,
            split_contended_per_sec: 0.0,
            split_min_acquisitions: 1_000,
            split_imbalance_factor: 0.0,
            split_sustain: 1,
            policy: ServicePolicy::HotShard { high_water: 64, patience: 2 },
        });
        for k in 0..8u64 {
            store.put(k, k);
        }
        let before = store.snapshots();
        assert_eq!((before.len(), before[0].keys, before[0].acquisitions), (1, 8, 8));
        for i in 0..100_000u64 {
            assert_eq!(store.get(i % 8), Some(i % 8));
        }
        let after = store.snapshots();
        // A count, and it repeats exactly: reads and snapshots take no lock.
        assert_eq!(after[0].acquisitions - before[0].acquisitions, 0);
        assert_eq!(after[0].algorithm, "spin-park", "reads heated the shard lock");
        assert_eq!(store.maintenance(), 0, "reads counted towards a split");
        assert_eq!(store.shard_count(), 1);
    }

    #[test]
    fn the_sentinel_key_and_its_neighbours_round_trip_across_splits() {
        // `u64::MAX` is the table's empty-cell sentinel and lives in a
        // side cell; 0 is what a zeroed cell would hold.
        let edge = [0, u64::MAX - 1, u64::MAX];
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        for k in edge {
            assert_eq!(store.get(k), None);
            assert_eq!(store.put(k, 7), None);
            assert_eq!(store.put(k, !k), Some(7));
            assert_eq!(store.increment(k, 1), (!k).wrapping_add(1));
            assert_eq!(store.update(k, |v| v.expect("just written").wrapping_sub(1)), !k);
        }
        let scanned = |store: &ShardedStore| {
            let mut pairs = store.scan(Vec::new(), |v: &mut Vec<(u64, u64)>, k, x| v.push((k, x)));
            pairs.sort_unstable();
            pairs
        };
        let want: Vec<(u64, u64)> = edge.iter().map(|&k| (k, !k)).collect();
        assert_eq!(scanned(&store), want);
        while store.maintenance() > 0 {}
        assert!(store.splits() > 0);
        assert_eq!(scanned(&store), want);
        for k in edge {
            assert_eq!(store.read(k, |v| v), Some(!k));
            assert_eq!(store.get(k), Some(!k));
        }
        assert_eq!(store.snapshots().iter().map(|s| s.keys).sum::<usize>(), 3);
    }

    #[test]
    fn a_value_of_u64_max_reads_wraps_and_splits_like_any_other() {
        // `u64::MAX` is also the claimed value word: lock-free ops find
        // it refused and go to the writer, which knows it is a value.
        let keys = [0, 1, 2, u64::MAX - 1, u64::MAX];
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        let check = |store: &ShardedStore| {
            for k in keys {
                assert_eq!(store.put(k, u64::MAX), Some(0), "key {k}");
                assert_eq!(store.get(k), Some(u64::MAX), "key {k}");
                assert_eq!(store.increment(k, 1), 0, "key {k}");
                assert_eq!(store.get(k), Some(0), "key {k}");
            }
        };
        for k in keys {
            assert_eq!(store.put(k, u64::MAX), None);
            assert_eq!(store.put(k, 5), Some(u64::MAX));
            assert_eq!(store.increment(k, u64::MAX - 5), u64::MAX);
            assert_eq!(store.read(k, |v| v), Some(u64::MAX));
            assert_eq!(store.increment(k, 1), 0);
        }
        check(&store);
        assert_eq!(store.put(keys[0], u64::MAX), Some(0));
        while store.maintenance() > 0 {}
        assert!(store.splits() > 0);
        assert_eq!(store.get(keys[0]), Some(u64::MAX), "a split lost a value of u64::MAX");
        assert_eq!(store.increment(keys[0], 1), 0);
        check(&store);
        assert_eq!(store.len(), keys.len());
    }

    #[test]
    fn a_pair_claimed_by_an_update_sends_increments_and_gets_to_its_lock() {
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        store.put(3, 10);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let store = &store;
            let holder = scope.spawn(move || {
                store.update(3, move |v| {
                    entered_tx.send(()).expect("the test is waiting");
                    release_rx.recv().expect("the test releases the update");
                    v.expect("put above") + 5
                })
            });
            entered_rx.recv().expect("the update runs");
            let (tx, rx) = std::sync::mpsc::channel();
            let incr_tx = tx.clone();
            scope.spawn(move || incr_tx.send(("increment", store.increment(3, 1))));
            scope.spawn(move || tx.send(("get", store.get(3).expect("put above"))));
            // Both find the value word claimed and wait for the lock.
            let early = rx.recv_timeout(std::time::Duration::from_millis(50));
            assert!(early.is_err(), "an op read or changed a claimed pair: {early:?}");
            release_tx.send(()).expect("the update is waiting");
            assert_eq!(holder.join().expect("the update does not panic"), 15);
            let mut answers: Vec<_> = rx.iter().take(2).collect();
            answers.sort_unstable();
            // The get ran before or after the increment, never before the update.
            assert!(
                answers == [("get", 15), ("increment", 16)]
                    || answers == [("get", 16), ("increment", 16)],
                "{answers:?}"
            );
        });
        assert_eq!(store.get(3), Some(16));
    }

    #[test]
    fn an_update_closure_that_panics_leaves_the_old_value_in_place() {
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        store.put(3, 7);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.update(3, |_| panic!("an update closure unwinds"))
        }));
        assert!(unwound.is_err());
        assert_eq!(store.get(3), Some(7));
        assert_eq!(store.increment(3, 1), 8, "the pair was left claimed");
        assert_eq!(store.update(3, |v| v.map_or(0, |v| v * 2)), 16);
    }

    #[test]
    fn a_stale_table_leads_to_the_owner_or_to_one_reroute_per_split() {
        let store = ShardedStore::new(ServiceConfig {
            max_depth: 8,
            ..tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64)))
        });
        let keys: Vec<u64> = (0..256).collect();
        for &k in &keys {
            store.put(k, k);
        }
        let first_table = store.depth.load(Ordering::Acquire);
        let (mut direct, mut rerouted) = (0, 0);
        for round in 0..4 {
            // Key 0's owner is always as deep as the directory, so
            // splitting it doubles; the last round rewires in place.
            let depth = store.depth.load(Ordering::Acquire);
            let victim = if round < 3 {
                store.shard_for(0)
            } else {
                let shallow = keys.iter().find(|&&k| store.shard_for(k).local_depth < depth);
                store.shard_for(*shallow.expect("one initial shard was never split"))
            };
            assert!(store.split(victim));
            let current = store.depth.load(Ordering::Acquire);
            assert_eq!(current, if round < 3 { depth + 1 } else { depth });
            for &k in &keys {
                let owner = store.shard_for(k);
                assert!(!is_retired(owner) && owner.table.get(k).is_some());
                for held in first_table..current {
                    // Through a table from before the doublings: home
                    // at once, or at a retired shard, from which the op
                    // comes back un-run and `shard_for` is its one
                    // re-route.
                    let reached = store.route(held, scramble(k));
                    if std::ptr::eq(reached, owner) {
                        direct += 1;
                    } else {
                        assert!(is_retired(reached), "table {held} sent {k} to a live stranger");
                        rerouted += 1;
                    }
                }
            }
        }
        assert!(direct > 0 && rerouted > 0, "direct {direct}, rerouted {rerouted}");
        // What is kept until drop: tables 1..=4, under twice the final
        // one, and an arena entry per shard ever created.
        let kept: usize = store.tables.iter().filter_map(|t| t.get()).map(|t| t.len()).sum();
        assert_eq!((store.slots(), kept), (16, 2 + 4 + 8 + 16));
        assert_eq!(*store.created.lock().expect("unpoisoned"), 2 + 2 * 4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..Default::default() })]

        /// Arbitrary split sequences, doublings included, against a
        /// reference extendible-hash map of `(local_depth, low bits) →
        /// shard id`: after every split the current table routes every
        /// key to the model's owner, and every older table routes it
        /// there too or to a retired shard.
        #[test]
        fn every_table_routes_like_the_reference_directory(
            initial_depth in 0u32..3,
            victims in proptest::collection::vec(proptest::any::<u64>(), 1..48),
        ) {
            const MAX_DEPTH: u32 = 6;
            let store = ShardedStore::new(ServiceConfig {
                initial_depth,
                max_depth: MAX_DEPTH,
                ..tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64)))
            });
            let mut model: BTreeMap<(u32, u64), u32> =
                (0..1u32 << initial_depth).map(|id| ((initial_depth, u64::from(id)), id)).collect();
            let mut next_id = 1u32 << initial_depth;
            let owner = |model: &BTreeMap<(u32, u64), u32>, hash: u64| {
                (0..=MAX_DEPTH)
                    .find_map(|d| model.get_key_value(&(d, hash & low_bits(d))))
                    .map(|(&region, &id)| (region, id))
                    .expect("the model's regions cover the hash space")
            };
            let keys: Vec<u64> = (0..384).collect();
            for &k in &keys {
                store.put(k, !k);
            }
            for victim in victims {
                let ((depth, pattern), id) = owner(&model, scramble(victim));
                let shard = store.shard_for(victim);
                proptest::prop_assert_eq!(shard.id, id);
                if depth == MAX_DEPTH {
                    continue;
                }
                proptest::prop_assert!(store.split(shard));
                model.remove(&(depth, pattern));
                model.insert((depth + 1, pattern), next_id);
                model.insert((depth + 1, pattern | 1 << depth), next_id + 1);
                next_id += 2;

                let global = model.keys().map(|&(d, _)| d).max().expect("never empty");
                proptest::prop_assert_eq!(store.slots(), 1usize << global.max(initial_depth));
                proptest::prop_assert_eq!(store.shard_count(), model.len());
                for table in initial_depth..=store.depth.load(Ordering::Acquire) {
                    for &k in &keys {
                        let (_, want) = owner(&model, scramble(k));
                        let reached = store.route(table, scramble(k));
                        if reached.id != want {
                            proptest::prop_assert!(
                                table < global && is_retired(reached),
                                "table {} sent key {} to live shard {}, not to {}",
                                table, k, reached.id, want
                            );
                        }
                    }
                }
            }
            for &k in &keys {
                proptest::prop_assert_eq!(store.get(k), Some(!k));
            }
        }
    }

    #[test]
    fn snapshots_rank_load_and_feed_the_divergence_verdict() {
        let store = ShardedStore::new(ServiceConfig {
            initial_depth: 2,
            ..ServiceConfig::default()
        });
        // Hammer one key so its shard outranks the others.
        for _ in 0..200 {
            store.increment(42, 1);
        }
        let snaps = store.snapshots();
        assert_eq!(snaps.len(), 4);
        let verdict = divergence(&snaps).expect("non-empty snapshot set");
        assert!(verdict.hot_acquisitions >= verdict.cold_acquisitions);
        assert!(!verdict.engines.is_empty());
    }

    #[test]
    fn sustained_hot_shard_traffic_switches_its_engine() {
        // Near-total skew: one key absorbs almost everything, so its
        // shard must go hot (flat-combining write batching) while the
        // cold shards keep the spin-park default — the observable
        // per-shard divergence the service exists to demonstrate. The
        // critical section sits in the policy's design regime (a few
        // µs): heat is a *rate* signal, and a CS long enough to pin
        // lock utilization near 100% pushes the sample gap into the
        // no-man's-land between the hot and calm thresholds where the
        // engine would ride scheduler noise instead of load.
        let store = ShardedStore::new(ServiceConfig {
            initial_depth: 2,
            max_depth: 2,
            policy: ServicePolicy::HotShard { high_water: 2, patience: 2 },
            ..ServiceConfig::default()
        });
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..4_000u64 {
                        let key = if i % 32 == t { (t << 32) | (i % 1_000) } else { 0 };
                        store.update(key, |v| {
                            for _ in 0..250 {
                                std::hint::spin_loop();
                            }
                            v.unwrap_or(0) + 1
                        });
                    }
                });
            }
        });
        let verdict = divergence(&store.snapshots()).expect("shards exist");
        assert!(
            verdict.engines.contains(&"flat-combining".to_string()),
            "the hot shard never switched to write batching: {verdict:?}"
        );
        assert!(verdict.diverged, "hot and cold shards ended identically: {verdict:?}");
    }

    #[test]
    fn hub_registry_follows_splits() {
        let store = ShardedStore::new(tiny(ServicePolicy::Static(PolicyChoice::FixedSpin(64))));
        let hub = Arc::new(BreakerHub::default());
        store.register_with_hub(Arc::clone(&hub));
        assert_eq!(hub.names().len(), 2);
        for k in 0..200u64 {
            store.increment(k, 1);
        }
        while store.maintenance() > 0 {}
        let names = hub.names();
        assert_eq!(names.len(), store.shard_count(), "registry must track live shards");
        let snaps = store.snapshots();
        for s in &snaps {
            assert!(names.contains(&s.name), "{} missing from hub", s.name);
        }
    }

    #[test]
    fn divergence_on_identical_configs_is_false() {
        let mk = |name: &str, acq: u64| ShardSnapshot {
            name: name.into(),
            local_depth: 2,
            keys: 1,
            algorithm: "spin-park".into(),
            spin_limit: 64,
            sample_period: 2,
            waiting: 0,
            acquisitions: acq,
            contended: 0,
            parked: 0,
            combined_ops: 0,
            algorithm_switches: 0,
            reconfigurations: 0,
        };
        let v = divergence(&[mk("a", 100), mk("b", 1)]).expect("two snapshots");
        assert!(!v.diverged);
        let mut hot = mk("a", 100);
        hot.algorithm = "flat-combining".into();
        let v = divergence(&[hot, mk("b", 1)]).expect("two snapshots");
        assert!(v.diverged);
        assert_eq!(v.hot_name, "a");
        assert_eq!(v.cold_name, "b");
    }
}

//! # adaptive-service
//!
//! The paper's claim, taken to service scale: a sharded in-memory
//! KV/counter store where **every shard's `put`s, inserts and closures
//! are serialised by its own [`AdaptiveMutex`](adaptive_native::AdaptiveMutex)** — so
//! per-object lock configuration can diverge with per-shard load, which
//! a single global lock choice cannot do.
//!
//! The object is adjusted to how a caller uses it: a shard's pairs live
//! in a table of atomic cells, a caller that only reads
//! ([`ShardedStore::get`]) walks it with loads and takes no lock, one
//! that increments a present key ([`ShardedStore::increment`]) adds to
//! its value word with one CAS, and what the lock guards is what
//! changes a table's shape — inserts, growth, splits — every
//! [`ShardedStore::put`], and the closures of [`ShardedStore::update`]
//! and [`ShardedStore::read`]. Shard-lock statistics — and the heat,
//! split and ranking decisions made from them — are therefore about
//! that load.
//!
//! Three adaptive mechanisms stack on the plain sharded store:
//!
//! * **Per-shard policy divergence** — each shard lock runs
//!   [`HotShardPolicy`] (or any static
//!   [`PolicyChoice`](adaptive_native::PolicyChoice)); under Zipfian
//!   skew the hot shards observably settle on different engines and
//!   spin attributes than the cold ones ([`divergence`] asserts this
//!   from stats, not vibes).
//! * **Hot-shard batching** — every locked op (a `put`, an insert, an
//!   [`ShardedStore::update`] or [`ShardedStore::read`], whose closure
//!   runs in the critical section) goes through the
//!   mutex's `with_locked` op-shipping path, so when a hot shard's
//!   policy installs the flat-combining engine, queued ops are
//!   batched through a single combiner pass instead of a handoff
//!   per op.
//! * **Resharding** — [`ShardedStore::maintenance`] splits a shard
//!   (extendible-hashing style: local depth + directory doubling) when
//!   its contended-acquisition rate crosses a threshold, halving the
//!   locked load the hottest lock sees.
//!
//! The store integrates with the PR 8 control plane: pass a
//! [`BreakerHub`](adaptive_control::BreakerHub) and every shard lock is
//! registered (and retired shards unregistered) by name, so breakers,
//! the socket command router, and the `snapshot` command see shard
//! locks like any other supervised lock.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

mod policy;
mod router;
mod store;
mod table;

pub use policy::HotShardPolicy;
pub use router::{scramble, ShardRouter};
pub use store::{
    divergence, DivergenceVerdict, ServiceConfig, ShardSnapshot, ShardedStore, ServicePolicy,
};

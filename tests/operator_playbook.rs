//! The operator playbook: an operator works the control plane against
//! the hottest shard of a live store — retune it to park-only,
//! force its breaker open, heal it, ask for its health — while four
//! closed-loop clients keep updating. Every op adds 1 under the shard
//! lock, so the oracle is exact: `store.total()` must equal the op
//! count. A retune, quarantine or heal that loses a waiter or an op
//! shows up as a deficit. Each command waits for the op count to move
//! since the last one, so every phase of the timeline serves ops.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use adaptive_objects::control::{BreakerHub, ControlPlane};
use adaptive_objects::service::{ServiceConfig, ShardedStore};

/// Ops a phase must serve before the operator's next command.
const PHASE_OPS: u64 = 2_000;

#[test]
fn playbook_loses_no_op_and_every_command_answers_ok() {
    // Fixed topology (no resharding): the shard the operator names
    // keeps that name for the whole scenario.
    let store = ShardedStore::new(ServiceConfig {
        initial_depth: 2,
        max_depth: 2,
        ..ServiceConfig::default()
    });
    let hub = Arc::new(BreakerHub::default());
    store.register_with_hub(Arc::clone(&hub));
    let plane = ControlPlane::new(hub);

    let ops = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (replies, phases) = std::thread::scope(|scope| {
        for id in 0..4u64 {
            let (store, ops, done) = (&store, &ops, &done);
            scope.spawn(move || {
                let mut i = 0u64;
                while !done.load(Ordering::Relaxed) {
                    // 60% of ops hammer one key — a clearly hot shard for
                    // the operator to find — and the rest scatter.
                    let key = if i % 5 < 3 {
                        7
                    } else {
                        (id << 32) | (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 4096)
                    };
                    // An update, not an increment: an increment of a
                    // present key takes no shard lock, and the lock is
                    // what the operator's levers act on.
                    store.update(key, |v| v.unwrap_or(0) + 1);
                    ops.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        let mut last = 0;
        let mut phases = Vec::new();
        let mut await_phase = || {
            while ops.load(Ordering::Relaxed) < last + PHASE_OPS {
                std::thread::yield_now();
            }
            let now = ops.load(Ordering::Relaxed);
            phases.push(now - last);
            last = now;
        };
        await_phase();
        let hot = store
            .snapshots()
            .into_iter()
            .max_by_key(|s| s.acquisitions)
            .map(|s| s.name)
            .expect("the store has shards");
        let mut replies = Vec::new();
        for (i, cmd) in [
            format!("retune {hot} spin 0"),
            format!("quarantine {hot}"),
            format!("heal {hot}"),
            format!("health {hot}"),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                await_phase();
            }
            replies.push((cmd.clone(), plane.execute(&cmd)));
        }
        done.store(true, Ordering::Relaxed);
        (replies, phases)
    });

    for (cmd, reply) in &replies {
        assert!(reply.is_ok(), "`{cmd}` answered {reply:?}");
    }
    assert_eq!(phases.len(), 4, "closed, retuned, breaker open, healed");
    assert!(phases.iter().all(|&n| n > 0), "a phase served no ops: {phases:?}");
    assert_eq!(
        store.total(),
        u128::from(ops.load(Ordering::Relaxed)),
        "the playbook lost or double-applied an op"
    );
}

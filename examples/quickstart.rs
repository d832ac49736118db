//! Quickstart: an adaptive lock on the simulated Butterfly.
//!
//! Builds a 4-processor machine, runs a lock through two workload
//! phases — first uncontended, then heavily contended — and prints the
//! lock's configuration trajectory: the feedback loop drives it to pure
//! spin while nobody waits and toward blocking when the queue deepens.
//!
//! Run with `cargo run --release --example quickstart`.

use adaptive_objects::prelude::*;
use adaptive_locks::SimpleAdapt;
use std::sync::Arc;

fn main() {
    let (summary, report) = sim::run(SimConfig::butterfly(4), || {
        let lock = Arc::new(AdaptiveLock::with_policy(
            ctx::current_node(),
            Box::new(SimpleAdapt::new(1, 5)),
            2, // sample every other unlock, as in the paper
        ));

        // Phase 1: a single thread uses the lock; no contention.
        for _ in 0..20 {
            with_lock(lock.as_ref(), || ctx::advance(Duration::micros(10)));
        }
        let phase1 = lock.inner().policy().kind();

        // Phase 2: four threads hammer long critical sections.
        let handles: Vec<_> = (0..4)
            .map(|p| {
                let lock = Arc::clone(&lock);
                fork(ProcId(p), format!("hammer{p}"), move || {
                    for _ in 0..25 {
                        with_lock(lock.as_ref(), || ctx::advance(Duration::millis(1)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }

        let log = lock.inner().transition_log();
        (phase1, log, lock.stats(), lock.samples())
    })
    .expect("simulation failed");

    let (phase1, log, stats, samples) = summary;
    println!("after the uncontended phase the lock is: {phase1:?}");
    println!(
        "lock statistics: {} acquisitions, {} contended, max {} waiting, {} reconfigurations",
        stats.acquisitions, stats.contended, stats.max_waiting, stats.reconfigurations
    );
    // simple-adapt decides on every sample, and each decision is one
    // reconfiguration.
    println!(
        "feedback loop: {} observations -> {} decisions",
        samples, stats.reconfigurations
    );
    println!("\nconfiguration trajectory (paper: M --v_i--> P --d_c--> Ψ):");
    for t in log.transitions().iter().take(12) {
        println!(
            "  t={:>9}ns  {}  {:<28} -> {:<28} [{}]",
            t.at_nanos, t.kind, t.from, t.to, t.cost
        );
    }
    if log.len() > 12 {
        println!("  ... {} more transitions", log.len() - 12);
    }
    println!(
        "\nsimulated {} threads, {} events, end time {:.3} ms",
        report.threads,
        report.events,
        report.end_time.as_nanos() as f64 / 1e6
    );
}

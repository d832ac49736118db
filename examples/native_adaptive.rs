//! The adaptive mutex on real threads: watch the spin attribute track
//! the workload.
//!
//! Phase 1 is uncontended (the policy configures pure spin); phase 2
//! hammers the mutex from several threads with long holds (spins get
//! cut, waiters park). This is the paper's feedback loop running on
//! `std` atomics rather than the simulator.
//!
//! Run with `cargo run --release --example native_adaptive`.

use adaptive_native::{AdaptiveMutex, NativeSimpleAdapt, SPIN_FOREVER};
use std::sync::Arc;
use std::time::Duration;

fn spin_label(limit: u32) -> String {
    if limit == SPIN_FOREVER {
        "pure spin".to_string()
    } else if limit == 0 {
        "pure blocking".to_string()
    } else {
        format!("combined({limit})")
    }
}

fn main() {
    // Sampled every other unlock while the policy keeps changing the
    // spin count, and less often once it settles.
    let m = Arc::new(AdaptiveMutex::with_policy(0u64, Box::new(NativeSimpleAdapt::new(0, 16))));

    // Phase 1: single-threaded.
    for _ in 0..64 {
        *m.lock() += 1;
    }
    println!(
        "after the uncontended phase: spin attribute = {}",
        spin_label(m.spin_limit())
    );

    // Phase 2: contention with long holds. A watcher samples the spin
    // attribute while the storm is in flight (once the storm drains, the
    // policy sees zero waiters and flips back toward pure spin — that
    // recovery is itself the point of adaptivity).
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = {
        let (m, stop) = (Arc::clone(&m), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut min_limit = u32::MAX;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                min_limit = min_limit.min(m.spin_limit());
                std::thread::sleep(Duration::from_micros(500));
            }
            min_limit
        })
    };
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for _ in 0..40 {
                    let mut g = m.lock();
                    *g += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let min_limit = watcher.join().unwrap();
    println!(
        "during the contended phase:  spin attribute reached {}",
        spin_label(min_limit)
    );
    println!(
        "after the storm drained:     spin attribute = {}",
        spin_label(m.spin_limit())
    );

    let s = m.stats();
    println!(
        "\ncounter = {}, stats: {} acquisitions / {} contended / {} parked / {} reconfigurations",
        *m.lock(),
        s.acquisitions,
        s.contended,
        s.parked,
        s.reconfigurations
    );
    assert_eq!(*m.lock(), 64 + 6 * 40);
    println!("(no lost updates; the lock retuned itself to match each phase — zero code changes)");
}

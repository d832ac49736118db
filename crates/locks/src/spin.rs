//! Pure spin locks: raw test-and-set, test-and-test-and-set, and the
//! Anderson-style spin-with-backoff variant the paper measures.
//!
//! Spinning holds the processor: on the simulator, every probe charges a
//! (possibly remote) memory read and the thread never yields — exactly
//! the behaviour whose costs and benefits the paper quantifies.

use std::sync::Mutex;

use butterfly_sim::{ctx, Duration, NodeId, SimWord};

use crate::api::{charge_overhead, Lock, LockCosts, LockStats};

/// A test-and-test-and-set spin lock built on the Butterfly's `atomior`.
pub struct SpinLock {
    word: SimWord,
    costs: LockCosts,
    stats: Mutex<LockStats>,
}

impl SpinLock {
    /// Create on an explicit node.
    pub fn new_on(node: NodeId) -> SpinLock {
        SpinLock::with_costs(node, LockCosts::default())
    }

    /// Create on the caller's node.
    pub fn new_local() -> SpinLock {
        SpinLock::new_on(ctx::current_node())
    }

    /// Create with an explicit cost model (benchmarks use
    /// [`LockCosts::free`] to measure the bare protocol).
    pub fn with_costs(node: NodeId, costs: LockCosts) -> SpinLock {
        SpinLock {
            word: SimWord::new_on(node, 0),
            costs,
            stats: Mutex::new(LockStats::default()),
        }
    }

    /// The node the lock word lives on.
    pub fn home(&self) -> NodeId {
        self.word.home()
    }
}

impl Lock for SpinLock {
    fn lock(&self) {
        charge_overhead(self.costs.lock_overhead);
        let t0 = ctx::now();
        // First attempt goes straight to test-and-set (uncontended fast
        // path is a single RMW).
        let mut contended = false;
        while self.word.test_and_set() {
            contended = true;
            // Test-and-test-and-set: spin reading until the word looks
            // free, then retry the RMW.
            while self.word.load() & 1 == 1 {}
        }
        let mut s = self.stats.lock().unwrap();
        s.acquisitions += 1;
        if contended {
            s.contended += 1;
            s.total_wait_nanos += ctx::now().since(t0).as_nanos();
        }
    }

    fn unlock(&self) {
        charge_overhead(self.costs.unlock_overhead);
        self.word.store(0);
        self.stats.lock().unwrap().releases += 1;
    }

    fn try_lock(&self) -> bool {
        charge_overhead(self.costs.lock_overhead);
        let got = !self.word.test_and_set();
        if got {
            self.stats.lock().unwrap().acquisitions += 1;
        }
        got
    }

    fn name(&self) -> &'static str {
        "spin"
    }

    fn stats(&self) -> LockStats {
        *self.stats.lock().unwrap()
    }
}

/// Spin lock with backoff, after Anderson et al. \[ALL89\]: a thread probes,
/// and while the lock is busy backs off for an exponentially growing,
/// bounded delay (a stand-in for "proportional to the number of active
/// threads waiting", which the hardware cannot observe directly).
pub struct SpinBackoffLock {
    word: SimWord,
    /// Base backoff unit (first delay).
    base: Duration,
    /// Maximum doubling: delays are capped at `base * 2^cap_shift`.
    cap_shift: u32,
    costs: LockCosts,
    stats: Mutex<LockStats>,
}

impl SpinBackoffLock {
    /// Create on an explicit node with the default backoff (base 2 µs,
    /// doubling up to 32 µs).
    pub fn new_on(node: NodeId) -> SpinBackoffLock {
        SpinBackoffLock::with_params(node, Duration::micros(2), 4, LockCosts::default())
    }

    /// Create on the caller's node.
    pub fn new_local() -> SpinBackoffLock {
        SpinBackoffLock::new_on(ctx::current_node())
    }

    /// Full-control constructor: delays run `base, 2*base, ...,
    /// base * 2^cap_shift`.
    pub fn with_params(
        node: NodeId,
        base: Duration,
        cap_shift: u32,
        costs: LockCosts,
    ) -> SpinBackoffLock {
        assert!(cap_shift < 32, "cap_shift must stay in u32 range");
        assert!(base > Duration::ZERO, "backoff base must be positive");
        SpinBackoffLock {
            word: SimWord::new_on(node, 0),
            base,
            cap_shift,
            costs,
            stats: Mutex::new(LockStats::default()),
        }
    }
}

impl Lock for SpinBackoffLock {
    fn lock(&self) {
        charge_overhead(self.costs.lock_overhead);
        let t0 = ctx::now();
        let mut shift: u32 = 0;
        let mut contended = false;
        while self.word.test_and_set() {
            contended = true;
            // Back off while holding the processor (a busy-wait delay, not
            // a yield): the paper's spin-with-backoff never blocks.
            ctx::advance(self.base * (1u64 << shift));
            shift = (shift + 1).min(self.cap_shift);
        }
        let mut s = self.stats.lock().unwrap();
        s.acquisitions += 1;
        if contended {
            s.contended += 1;
            s.total_wait_nanos += ctx::now().since(t0).as_nanos();
        }
    }

    fn unlock(&self) {
        charge_overhead(self.costs.unlock_overhead);
        self.word.store(0);
        self.stats.lock().unwrap().releases += 1;
    }

    fn try_lock(&self) -> bool {
        charge_overhead(self.costs.lock_overhead);
        let got = !self.word.test_and_set();
        if got {
            self.stats.lock().unwrap().acquisitions += 1;
        }
        got
    }

    fn name(&self) -> &'static str {
        "spin-backoff"
    }

    fn stats(&self) -> LockStats {
        *self.stats.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::with_lock;
    use butterfly_sim::{self as sim, ProcId, SimCell, SimConfig};
    use cthreads::fork_join_all;

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            processors: n,
            ..SimConfig::default()
        }
    }

    fn hammer(lock: &dyn Lock, counter: &SimCell<u64>, iters: usize) {
        for _ in 0..iters {
            with_lock(lock, || {
                let v = counter.read();
                ctx::advance(Duration::micros(2)); // critical section body
                counter.write(v + 1);
            });
        }
    }

    #[test]
    fn spin_lock_mutual_exclusion() {
        let (total, _) = sim::run(cfg(4), || {
            let lock = std::sync::Arc::new(SpinLock::new_local());
            let counter = SimCell::new_local(0u64);
            let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
            fork_join_all(&procs, "w", |_| {
                let (l, c) = (lock.clone(), counter.clone());
                move || hammer(l.as_ref(), &c, 25)
            });
            counter.read()
        })
        .unwrap();
        assert_eq!(total, 100, "lost updates => mutual exclusion violated");
    }

    #[test]
    fn backoff_lock_mutual_exclusion() {
        let (total, _) = sim::run(cfg(4), || {
            let lock = std::sync::Arc::new(SpinBackoffLock::new_local());
            let counter = SimCell::new_local(0u64);
            let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
            fork_join_all(&procs, "w", |_| {
                let (l, c) = (lock.clone(), counter.clone());
                move || hammer(l.as_ref(), &c, 25)
            });
            counter.read()
        })
        .unwrap();
        assert_eq!(total, 100);
    }

    #[test]
    fn try_lock_fails_on_held_lock() {
        let (r, _) = sim::run(cfg(1), || {
            let lock = SpinLock::new_local();
            assert!(lock.try_lock());
            let second = lock.try_lock();
            lock.unlock();
            let third = lock.try_lock();
            lock.unlock();
            (second, third)
        })
        .unwrap();
        assert!(!r.0);
        assert!(r.1);
    }

    #[test]
    fn uncontended_spin_lock_is_one_rmw() {
        let (meter, _) = sim::run(cfg(1), || {
            let lock = SpinLock::with_costs(ctx::current_node(), LockCosts::free());
            let before = ctx::cost_meter();
            lock.lock();
            let delta = ctx::cost_meter() - before;
            lock.unlock();
            delta
        })
        .unwrap();
        assert_eq!(meter.rmws, 1, "fast path must be a single atomior");
        assert_eq!(meter.reads(), 1);
        assert_eq!(meter.writes(), 1);
    }

    #[test]
    fn backoff_spends_less_memory_traffic_under_contention() {
        // Under contention, backoff should issue fewer probes (RMW/reads)
        // than plain TTAS spinning for the same workload.
        fn traffic<L: Lock + 'static>(make: impl FnOnce() -> L + Send + 'static) -> u64 {
            let (_, report) = sim::run(cfg(4), move || {
                let lock = std::sync::Arc::new(make());
                let counter = SimCell::new_local(0u64);
                let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
                fork_join_all(&procs, "w", |_| {
                    let (l, c) = (lock.clone(), counter.clone());
                    move || hammer(l.as_ref(), &c, 10)
                });
            })
            .unwrap();
            report.mem.reads() + report.mem.writes()
        }
        let ttas = traffic(SpinLock::new_local);
        let backoff = traffic(SpinBackoffLock::new_local);
        assert!(
            backoff < ttas,
            "backoff ({backoff} ops) should reduce traffic vs TTAS ({ttas} ops)"
        );
    }

    #[test]
    fn stats_track_contention() {
        let (s, _) = sim::run(cfg(2), || {
            let lock = std::sync::Arc::new(SpinLock::new_local());
            let l2 = lock.clone();
            let h = cthreads::fork(ProcId(1), "w", move || {
                for _ in 0..10 {
                    with_lock(l2.as_ref(), || ctx::advance(Duration::micros(5)));
                }
            });
            for _ in 0..10 {
                with_lock(lock.as_ref(), || ctx::advance(Duration::micros(5)));
            }
            h.join();
            lock.stats()
        })
        .unwrap();
        assert_eq!(s.acquisitions, 20);
        assert_eq!(s.releases, 20);
        assert!(s.contended > 0, "two hammering threads must contend");
        assert!(s.mean_wait() > Duration::ZERO);
    }
}

//! Seeded fault injection for the native lock stack — the OS-thread
//! analogue of `sim::explore`'s schedule noise.
//!
//! The simulator explores failure-adjacent interleavings by perturbing
//! the *schedule*; on real threads the scheduler is out of reach, so a
//! [`FaultPlan`] perturbs the *protocol* instead: it decides, from a
//! fixed seed, which critical sections panic, which unparks are delayed
//! or dropped, which monitor samples are stalled, which workers die
//! mid-task, and when timed waiters should mount an abandonment storm.
//! Harnesses (`tests/native_stress.rs`, `tsp_app::solve_native`) consult
//! the plan at the corresponding protocol points and inject the fault;
//! the [`LockOracle`] invariants and the solver's exactness check are
//! the oracle.
//!
//! Decisions are drawn from per-kind counters hashed with the seed
//! (splitmix64), so the *stream of decisions at each injection site* is
//! a pure function of the seed: two runs with the same plan inject the
//! same faults in the same per-site order, even though the OS scheduler
//! assigns them to different threads. Every injected fault is tallied in
//! a [`FaultReport`] so a test can assert the sweep actually exercised
//! the failure paths it claims to cover.
//!
//! Memory-ordering audit: no `SeqCst` here either. The decision
//! sequencers and injection tallies are all Relaxed `fetch_add`s — each
//! site's stream only needs per-counter atomicity (same-variable
//! modification order), and [`FaultPlan::report`] is read after the
//! harness joins its workers, so no cross-variable ordering is required.
//!
//! [`LockOracle`]: https://docs.rs/adaptive-locks

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The kinds of fault a [`FaultPlan`] can inject. Each kind has its own
/// deterministic decision stream and its own injected-fault tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside a critical section, with the lock held (the holder
    /// dies and the mutex is poisoned).
    CsPanic,
    /// Drop the unpark of a granted waiter (a lost wakeup; recovered by
    /// the parker's rescue poll).
    UnparkDrop,
    /// Delay the unpark of a granted waiter.
    UnparkDelay,
    /// Stall the monitor: silently drop a sampled observation before it
    /// reaches the adaptation policy.
    MonitorStall,
    /// Mount a timed-waiter abandonment storm: a burst of conditional
    /// acquires with near-zero timeouts that all abandon their queue
    /// nodes at once.
    AbandonStorm,
}

impl FaultKind {
    const ALL: [FaultKind; 5] = [
        FaultKind::CsPanic,
        FaultKind::UnparkDrop,
        FaultKind::UnparkDelay,
        FaultKind::MonitorStall,
        FaultKind::AbandonStorm,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::CsPanic => 0,
            FaultKind::UnparkDrop => 1,
            FaultKind::UnparkDelay => 2,
            FaultKind::MonitorStall => 3,
            FaultKind::AbandonStorm => 4,
        }
    }
}

/// Configuration of a [`FaultPlan`]: the seed and, per fault kind, the
/// injection rate as "one in N draws" (`0` disables the kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for every decision stream.
    pub seed: u64,
    /// One in N critical sections panics with the lock held.
    pub cs_panic_one_in: u32,
    /// One in N grants drops its unpark (lost wakeup).
    pub unpark_drop_one_in: u32,
    /// One in N grants delays its unpark by [`FaultSpec::unpark_delay`].
    pub unpark_delay_one_in: u32,
    /// How long a delayed unpark is held back.
    pub unpark_delay: Duration,
    /// One in N sampled monitor observations is stalled (dropped).
    pub monitor_stall_one_in: u32,
    /// One in N storm polls triggers an abandonment burst.
    pub abandon_storm_one_in: u32,
    /// Percentage (0–100) of workers doomed to die mid-task.
    pub kill_workers_percent: u32,
    /// Base number of work items a doomed worker completes before dying
    /// (each doomed worker adds a seeded offset so deaths are staggered).
    pub kill_after_steps: u64,
}

impl Default for FaultSpec {
    /// Everything disabled; a plan with the default spec injects nothing.
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            cs_panic_one_in: 0,
            unpark_drop_one_in: 0,
            unpark_delay_one_in: 0,
            unpark_delay: Duration::from_micros(200),
            monitor_stall_one_in: 0,
            abandon_storm_one_in: 0,
            kill_workers_percent: 0,
            kill_after_steps: 0,
        }
    }
}

impl FaultSpec {
    /// A plan seeded with `seed` and everything else off; chain the
    /// `with_*` builders to enable individual kinds.
    pub fn seeded(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// Panic in one of every `n` critical sections.
    pub fn with_cs_panics(mut self, n: u32) -> FaultSpec {
        self.cs_panic_one_in = n;
        self
    }

    /// Drop one of every `n` unparks.
    pub fn with_unpark_drops(mut self, n: u32) -> FaultSpec {
        self.unpark_drop_one_in = n;
        self
    }

    /// Delay one of every `n` unparks by `by`.
    pub fn with_unpark_delays(mut self, n: u32, by: Duration) -> FaultSpec {
        self.unpark_delay_one_in = n;
        self.unpark_delay = by;
        self
    }

    /// Stall one of every `n` monitor samples.
    pub fn with_monitor_stalls(mut self, n: u32) -> FaultSpec {
        self.monitor_stall_one_in = n;
        self
    }

    /// Trigger an abandonment burst on one of every `n` storm polls.
    pub fn with_abandon_storms(mut self, n: u32) -> FaultSpec {
        self.abandon_storm_one_in = n;
        self
    }

    /// Doom `percent`% of workers to die after roughly `after` steps.
    pub fn with_worker_kills(mut self, percent: u32, after: u64) -> FaultSpec {
        self.kill_workers_percent = percent.min(100);
        self.kill_after_steps = after;
        self
    }
}

/// How many faults of each kind a plan has actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Critical-section panics injected.
    pub cs_panics: u64,
    /// Unparks dropped.
    pub unparks_dropped: u64,
    /// Unparks delayed.
    pub unparks_delayed: u64,
    /// Monitor samples stalled.
    pub monitor_stalls: u64,
    /// Abandonment bursts triggered.
    pub abandon_storms: u64,
}

/// Panic payload used to kill a worker thread outright (as opposed to a
/// transient critical-section panic the worker survives). Raise it with
/// `std::panic::panic_any(WorkerKilled { worker })`; supervisors match
/// on the payload type to tell "this worker is dead" from "this task
/// failed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKilled {
    /// Index of the killed worker.
    pub worker: usize,
}

/// Injection points inside [`AdaptiveMutex`](crate::AdaptiveMutex)
/// itself. The mutex consults its installed hook (if any) at each
/// point; the default implementations inject nothing, and a mutex with
/// no hook installed pays one atomic load per contended release.
pub trait FaultHook: Send + Sync {
    /// Called by a releasing thread immediately before it unparks a
    /// granted waiter. May sleep (a delayed unpark); returning `true`
    /// drops the unpark entirely (a lost wakeup, survivable because the
    /// parker re-checks its grant word on a rescue interval).
    fn before_unpark(&self) -> bool {
        false
    }

    /// Called for each sample that came due;
    /// returning `true` stalls the monitor feed (the sample never
    /// reaches the policy).
    fn stall_monitor_sample(&self) -> bool {
        false
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, thread-safe fault plan. Cheap to share (`Arc<FaultPlan>`);
/// every decision method is lock-free.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Per-kind draw counters (the position in each decision stream).
    seq: [AtomicU64; 5],
    /// Per-kind injected-fault tallies.
    injected: [AtomicU64; 5],
}

impl FaultPlan {
    /// A plan executing `spec`.
    pub fn new(spec: FaultSpec) -> FaultPlan {
        FaultPlan {
            spec,
            seq: Default::default(),
            injected: Default::default(),
        }
    }

    /// The spec this plan executes.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Draw the next decision of `kind`'s stream: whether this
    /// occurrence of the injection point should fault. Deterministic
    /// per-site: the n-th draw of a kind is a pure function of
    /// `(seed, kind, n)`.
    pub fn fires(&self, kind: FaultKind) -> bool {
        let one_in = match kind {
            FaultKind::CsPanic => self.spec.cs_panic_one_in,
            FaultKind::UnparkDrop => self.spec.unpark_drop_one_in,
            FaultKind::UnparkDelay => self.spec.unpark_delay_one_in,
            FaultKind::MonitorStall => self.spec.monitor_stall_one_in,
            FaultKind::AbandonStorm => self.spec.abandon_storm_one_in,
        };
        if one_in == 0 {
            return false;
        }
        let i = kind.index();
        let n = self.seq[i].fetch_add(1, Ordering::Relaxed);
        let draw = splitmix64(self.spec.seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f) ^ n);
        let fire = draw.is_multiple_of(u64::from(one_in));
        if fire {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Panic (with the caller's locks held, if any) when the plan says
    /// this critical section dies. The payload is a fixed string so
    /// supervisors can tell injected panics from genuine bugs.
    pub fn maybe_panic_in_cs(&self) {
        if self.fires(FaultKind::CsPanic) {
            panic!("fault-injection: critical-section panic");
        }
    }

    /// Whether worker `worker` of `total` is doomed, and if so after how
    /// many completed steps it dies. The doomed set is the first
    /// `total * percent / 100` positions of a seeded permutation of the
    /// workers, so the *count* of killed workers is exact and the choice
    /// is deterministic in the seed alone. Supervisors uphold the exact
    /// count by never letting a doomed worker exit cleanly: it dies at
    /// its kill step, or at search termination if it never got that far.
    pub fn worker_doom(&self, worker: usize, total: usize) -> Option<u64> {
        let pct = u64::from(self.spec.kill_workers_percent.min(100));
        if pct == 0 || total == 0 {
            return None;
        }
        let kill = (total as u64 * pct) / 100;
        // Seeded Fisher–Yates permutation of 0..total; doomed = first `kill`.
        let mut perm: Vec<usize> = (0..total).collect();
        for i in (1..total).rev() {
            let j = (splitmix64(self.spec.seed ^ 0x5ee1_bad5 ^ i as u64) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let rank = perm
            .iter()
            .position(|&w| w == worker)
            .expect("worker index in range by construction");
        if (rank as u64) < kill {
            // Stagger deaths so doomed workers don't all die on the same
            // step.
            let jitter = splitmix64(self.spec.seed ^ 0xdead ^ worker as u64) % 7;
            Some(self.spec.kill_after_steps + jitter)
        } else {
            None
        }
    }

    /// The full doomed set for a crew of `total` workers, in worker-index
    /// order. This is exactly the set of workers for which
    /// [`FaultPlan::worker_doom`] returns `Some`, exposed so tests can
    /// assert against the chosen victims (e.g. pre-load a doomed worker's
    /// local queue) without re-deriving the permutation.
    pub fn doomed_workers(&self, total: usize) -> Vec<usize> {
        (0..total).filter(|&w| self.worker_doom(w, total).is_some()).collect()
    }

    /// Injected-fault tallies so far.
    pub fn report(&self) -> FaultReport {
        let get = |k: FaultKind| self.injected[k.index()].load(Ordering::Relaxed);
        FaultReport {
            cs_panics: get(FaultKind::CsPanic),
            unparks_dropped: get(FaultKind::UnparkDrop),
            unparks_delayed: get(FaultKind::UnparkDelay),
            monitor_stalls: get(FaultKind::MonitorStall),
            abandon_storms: get(FaultKind::AbandonStorm),
        }
    }

    /// Total faults injected, every kind combined.
    pub fn total_injected(&self) -> u64 {
        FaultKind::ALL
            .iter()
            .map(|k| self.injected[k.index()].load(Ordering::Relaxed))
            .sum()
    }
}

impl FaultHook for FaultPlan {
    fn before_unpark(&self) -> bool {
        if self.fires(FaultKind::UnparkDelay) {
            std::thread::sleep(self.spec.unpark_delay);
        }
        self.fires(FaultKind::UnparkDrop)
    }

    fn stall_monitor_sample(&self) -> bool {
        self.fires(FaultKind::MonitorStall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_injects_nothing() {
        let plan = FaultPlan::new(FaultSpec::default());
        for _ in 0..1000 {
            for k in FaultKind::ALL {
                assert!(!plan.fires(k));
            }
        }
        assert_eq!(plan.report(), FaultReport::default());
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn decision_streams_are_deterministic_per_seed() {
        let a = FaultPlan::new(FaultSpec::seeded(42).with_cs_panics(8));
        let b = FaultPlan::new(FaultSpec::seeded(42).with_cs_panics(8));
        let draws_a: Vec<bool> = (0..500).map(|_| a.fires(FaultKind::CsPanic)).collect();
        let draws_b: Vec<bool> = (0..500).map(|_| b.fires(FaultKind::CsPanic)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(a.report().cs_panics > 0, "one-in-8 over 500 draws must fire");

        let c = FaultPlan::new(FaultSpec::seeded(43).with_cs_panics(8));
        let draws_c: Vec<bool> = (0..500).map(|_| c.fires(FaultKind::CsPanic)).collect();
        assert_ne!(draws_a, draws_c, "a different seed must give a different stream");
    }

    #[test]
    fn injection_rate_is_roughly_one_in_n() {
        let plan = FaultPlan::new(FaultSpec::seeded(7).with_cs_panics(64));
        for _ in 0..64_000 {
            plan.fires(FaultKind::CsPanic);
        }
        let hits = plan.report().cs_panics;
        assert!(
            (500..1500).contains(&hits),
            "one-in-64 over 64k draws should hit ~1000 times, got {hits}"
        );
    }

    #[test]
    fn worker_doom_kills_the_exact_fraction() {
        let plan = FaultPlan::new(FaultSpec::seeded(9).with_worker_kills(25, 3));
        for total in [4usize, 8, 16] {
            let doomed: Vec<usize> =
                (0..total).filter(|&w| plan.worker_doom(w, total).is_some()).collect();
            assert_eq!(doomed.len(), total / 4, "25% of {total} workers");
        }
        // Deterministic: the same seed dooms the same workers.
        let again = FaultPlan::new(FaultSpec::seeded(9).with_worker_kills(25, 3));
        for w in 0..8 {
            assert_eq!(plan.worker_doom(w, 8), again.worker_doom(w, 8));
        }
        // A doomed worker dies after at least the configured step count.
        for w in 0..8 {
            if let Some(after) = plan.worker_doom(w, 8) {
                assert!(after >= 3);
            }
        }
        // doomed_workers is exactly the Some-set of worker_doom.
        let expect: Vec<usize> =
            (0..8).filter(|&w| plan.worker_doom(w, 8).is_some()).collect();
        assert_eq!(plan.doomed_workers(8), expect);
        assert_eq!(expect.len(), 2);
    }

    #[test]
    fn cs_panic_panics_with_the_marker_payload() {
        let plan = FaultPlan::new(FaultSpec::seeded(1).with_cs_panics(1));
        let err = std::panic::catch_unwind(|| plan.maybe_panic_in_cs())
            .expect_err("one-in-1 must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("fault-injection"), "got {msg:?}");
    }

    #[test]
    fn hook_drop_and_delay_streams_are_tallied() {
        let plan = FaultPlan::new(
            FaultSpec::seeded(3)
                .with_unpark_drops(4)
                .with_unpark_delays(4, Duration::from_micros(1))
                .with_monitor_stalls(4),
        );
        let mut dropped = 0;
        for _ in 0..200 {
            if plan.before_unpark() {
                dropped += 1;
            }
            plan.stall_monitor_sample();
        }
        let r = plan.report();
        assert_eq!(r.unparks_dropped, dropped);
        assert!(r.unparks_delayed > 0);
        assert!(r.monitor_stalls > 0);
        assert_eq!(
            plan.total_injected(),
            r.unparks_dropped + r.unparks_delayed + r.monitor_stalls
        );
    }
}

//! The adaptive lock: a reconfigurable lock with a built-in monitor and
//! a user-provided adaptation policy, wired into a closely-coupled
//! feedback loop (paper Sections 4–5).
//!
//! The customized lock monitor uses the application threads themselves
//! (here: the unlocking thread) to collect information — the paper found
//! a dedicated monitor thread "too loosely coupled to be used in adaptive
//! lock objects". The default sensor samples `no-of-waiting-threads`
//! once during every other unlock operation.
//! The loop is [`GuardedLoop`], at the paper's fixed cadence: a policy
//! that panics is quarantined, and the lock keeps the configuration its
//! last clean decision installed.

use adaptive_core::{
    AdaptationPolicy, GuardedLoop, Hysteresis, Sampled, SamplingGate, SpinLadder, SpinStep,
};
use butterfly_sim::{ctx, NodeId, VirtualTime};

use crate::api::{Lock, LockCosts, LockStats, PatternSample};
use crate::policy::WaitingPolicy;
use crate::reconfigurable::{OwnerId, ReconfigurableLock};
use crate::scheduler::SchedKind;

/// What the lock monitor reports to the adaptation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockObservation {
    /// Sampled `no-of-waiting-threads`.
    pub waiting: u64,
    /// Virtual time of the sample.
    pub at: VirtualTime,
}

/// A reconfiguration decision (`d_c`) emitted by a lock adaptation
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockDecision {
    /// Configure the lock to be pure spin (lowest-latency handoff).
    PureSpin,
    /// Configure the lock to be pure blocking.
    PureBlocking,
    /// Install a combined policy with this many initial spins.
    SetSpins(u32),
    /// Install a different lock scheduler.
    SetScheduler(SchedKind),
}

/// A boxed lock adaptation policy.
pub type BoxedLockPolicy =
    Box<dyn AdaptationPolicy<LockObservation, Decision = LockDecision> + Send>;

/// The paper's `simple-adapt` policy ([`SpinLadder`]) on the
/// simulated lock: spin counts are memory probes, a fresh lock (and a
/// light sample after pure blocking) starts at the default combined
/// policy's spin count, and spins stop at 2¹⁴.
#[derive(Debug, Clone)]
pub struct SimpleAdapt {
    ladder: SpinLadder,
}

impl SimpleAdapt {
    /// Policy with the given threshold and increment, starting from the
    /// default combined policy's spin count.
    pub fn new(waiting_threshold: u64, n: u32) -> SimpleAdapt {
        let start = WaitingPolicy::default().spin;
        SimpleAdapt { ladder: SpinLadder::new(waiting_threshold, n, start, 1 << 14) }
    }

    /// Current nominal spin count (for inspection in tests/reports).
    pub fn spins(&self) -> i64 {
        self.ladder.spins()
    }
}

impl Default for SimpleAdapt {
    fn default() -> Self {
        SimpleAdapt::new(3, 5)
    }
}

impl AdaptationPolicy<LockObservation> for SimpleAdapt {
    type Decision = LockDecision;

    fn decide(&mut self, obs: LockObservation) -> Option<LockDecision> {
        Some(match self.ladder.step(obs.waiting) {
            SpinStep::Forever => LockDecision::PureSpin,
            SpinStep::Block => LockDecision::PureBlocking,
            SpinStep::Spins(k) => LockDecision::SetSpins(k),
        })
    }
}

/// Extension policy realizing the paper's future-work direction of
/// "applying closely-coupled adaptation to alter lock *schedulers* in
/// different phases of a computation": when the waiting queue stays deep
/// (at least `depth_threshold` waiters) for `consecutive` samples in a
/// row, grant order starts to matter and the policy installs the
/// priority scheduler; when the queue stays shallow as long, it reverts
/// to FCFS (whose registration/release paths are cheapest).
#[derive(Debug, Clone)]
pub struct SchedulerAdapt {
    depth_threshold: u64,
    switch: Hysteresis<SchedKind>,
}

impl SchedulerAdapt {
    /// Policy switching to Priority after `consecutive` samples at depth
    /// `depth_threshold` or more.
    pub fn new(depth_threshold: u64, consecutive: u32) -> SchedulerAdapt {
        assert!(consecutive > 0, "need at least one sample to decide");
        let (fcfs, priority) = (SchedKind::Fcfs, SchedKind::Priority);
        SchedulerAdapt { depth_threshold, switch: Hysteresis::new(fcfs, priority, fcfs, consecutive) }
    }

    /// Scheduler the policy believes is installed.
    pub fn current(&self) -> SchedKind {
        self.switch.current()
    }
}

impl AdaptationPolicy<LockObservation> for SchedulerAdapt {
    type Decision = LockDecision;

    fn decide(&mut self, obs: LockObservation) -> Option<LockDecision> {
        let deep = obs.waiting >= self.depth_threshold;
        self.switch.step(deep, !deep).map(LockDecision::SetScheduler)
    }
}

/// Agent id the feedback loop reconfigures as (the lock object itself;
/// implicit ownership through the unlock method).
const SELF_AGENT: OwnerId = OwnerId(u64::MAX);

/// The adaptive lock object.
pub struct AdaptiveLock {
    inner: ReconfigurableLock,
    gate: SamplingGate,
    feedback: GuardedLoop<BoxedLockPolicy>,
}

impl AdaptiveLock {
    /// Adaptive lock with the paper's defaults: combined initial policy,
    /// FCFS scheduler, `simple-adapt`, sampling every other unlock.
    pub fn new_on(node: NodeId) -> AdaptiveLock {
        AdaptiveLock::with_policy(node, Box::new(SimpleAdapt::default()), 2)
    }

    /// Adaptive lock on the caller's node.
    pub fn new_local() -> AdaptiveLock {
        AdaptiveLock::new_on(ctx::current_node())
    }

    /// Adaptive lock with an explicit adaptation policy and sampling
    /// period (`sample_every` unlock operations per sample).
    pub fn with_policy(node: NodeId, policy: BoxedLockPolicy, sample_every: u64) -> AdaptiveLock {
        AdaptiveLock::with_parts(
            node,
            WaitingPolicy::default(),
            SchedKind::Fcfs,
            LockCosts::default(),
            policy,
            sample_every,
        )
    }

    /// Full-control constructor.
    pub fn with_parts(
        node: NodeId,
        initial: WaitingPolicy,
        sched: SchedKind,
        costs: LockCosts,
        policy: BoxedLockPolicy,
        sample_every: u64,
    ) -> AdaptiveLock {
        AdaptiveLock {
            inner: ReconfigurableLock::with_parts("adaptive", node, initial, sched, costs),
            gate: SamplingGate::every(sample_every),
            feedback: GuardedLoop::new(policy),
        }
    }

    /// The wrapped reconfigurable lock (for inspection: policy, log,
    /// scheduler).
    pub fn inner(&self) -> &ReconfigurableLock {
        &self.inner
    }

    /// Attach an invariant oracle to the wrapped reconfigurable lock, so
    /// invariants are checked across mid-flight reconfigurations too.
    pub fn attach_oracle(&self, oracle: std::sync::Arc<crate::oracle::LockOracle>) {
        self.inner.attach_oracle(oracle);
    }

    /// Unlocks the monitor has sampled so far, one observation each.
    pub fn samples(&self) -> u64 {
        self.gate.samples()
    }

    fn apply(&self, d: LockDecision) {
        let policy = match d {
            LockDecision::PureSpin => WaitingPolicy::pure_spin(),
            LockDecision::PureBlocking => WaitingPolicy::pure_blocking(),
            LockDecision::SetSpins(n) => WaitingPolicy::combined(n),
            LockDecision::SetScheduler(k) => return self.inner.configure_scheduler(k),
        };
        // An external agent may have acquired the waiting group; the
        // built-in loop then skips the reconfiguration (it does not own
        // the attributes).
        let _ = self.inner.configure_policy(SELF_AGENT, policy);
    }
}

impl Lock for AdaptiveLock {
    fn lock(&self) {
        self.inner.lock();
    }

    fn unlock(&self) {
        self.inner.unlock();
        // Closely-coupled feedback loop, driven by the unlocking thread:
        // monitor -> policy -> reconfigure, inline.
        if self.gate.tick() {
            // Sense before the sample and apply after it: both are
            // charged simulator calls (yield points), and none may run
            // while the loop is busy, or another unlocker would skip.
            let obs = LockObservation {
                waiting: self.inner.sense_waiting(),
                at: ctx::now(),
            };
            let mut decided = None;
            let outcome = self.feedback.sample(
                || obs,
                |d| {
                    decided = Some(d);
                    false // the period is never read: the cadence is fixed
                },
            );
            debug_assert_ne!(outcome, Sampled::Skipped, "a simulated sample yielded while busy");
            if let Some(d) = decided {
                self.apply(d);
            }
        }
    }

    fn try_lock(&self) -> bool {
        self.inner.try_lock()
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn waiting_now(&self) -> u64 {
        self.inner.waiting_now()
    }

    fn stats(&self) -> LockStats {
        self.inner.stats()
    }

    fn enable_tracing(&self) {
        self.inner.enable_tracing();
    }

    fn take_trace(&self) -> Vec<PatternSample> {
        self.inner.take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::with_lock;
    use crate::policy::LockKind;
    use adaptive_core::{FnPolicy, OpKind};
    use butterfly_sim::{self as sim, Duration, ProcId, SimCell, SimConfig};
    use cthreads::fork_join_all;
    use std::sync::Arc;

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            processors: n,
            ..SimConfig::default()
        }
    }

    #[test]
    fn simple_adapt_follows_paper_rules() {
        let mut p = SimpleAdapt::new(3, 5);
        let obs = |w| LockObservation {
            waiting: w,
            at: VirtualTime::ZERO,
        };
        // Zero waiters -> pure spin.
        assert_eq!(p.decide(obs(0)), Some(LockDecision::PureSpin));
        // Light waiting -> spins grow by n.
        let base = p.spins();
        assert_eq!(p.decide(obs(2)), Some(LockDecision::SetSpins((base + 5) as u32)));
        // Heavy waiting -> spins shrink by 2n.
        assert_eq!(p.decide(obs(9)), Some(LockDecision::SetSpins(base as u32 + 5 - 10)));
        // Keep shrinking until pure blocking.
        let mut last = None;
        for _ in 0..10 {
            last = p.decide(obs(9));
        }
        assert_eq!(last, Some(LockDecision::PureBlocking));
        assert_eq!(p.spins(), 0);
    }

    #[test]
    fn simple_adapt_reenters_combined_at_default_spin_after_blocking() {
        // Regression: leaving pure blocking used to creep up from `n`
        // (SetSpins(5), SetSpins(10), ...), emitting a barely-spinning
        // policy plus one reconfiguration per sample — re-entry thrash.
        // A light sample after blocking must restart at the default
        // combined spin count in a single step.
        let mut p = SimpleAdapt::new(3, 5);
        let obs = |w| LockObservation {
            waiting: w,
            at: VirtualTime::ZERO,
        };
        while p.spins() > 0 {
            assert!(p.decide(obs(9)).is_some()); // heavy: decay to blocking
        }
        assert_eq!(p.decide(obs(9)), Some(LockDecision::PureBlocking));
        let default_spin = WaitingPolicy::default().spin;
        assert_eq!(
            p.decide(obs(1)),
            Some(LockDecision::SetSpins(default_spin)),
            "light sample after blocking must re-enter at the default spin count"
        );
        // And from there the normal +n rule applies again.
        assert_eq!(
            p.decide(obs(1)),
            Some(LockDecision::SetSpins(default_spin + 5))
        );
    }

    #[test]
    fn adaptive_lock_converges_to_spin_without_contention() {
        let (kind, _) = sim::run(cfg(1), || {
            let lock = AdaptiveLock::new_local();
            for _ in 0..10 {
                with_lock(&lock, || ctx::advance(Duration::micros(5)));
            }
            lock.inner().policy().kind()
        })
        .unwrap();
        assert_eq!(kind, LockKind::PureSpin, "no-contention lock must become pure spin");
    }

    #[test]
    fn adaptive_lock_converges_to_blocking_under_heavy_waiting() {
        // The *final* policy depends on the drain phase (waiting falls to
        // zero as searchers finish, flipping the lock back toward spin),
        // so assert on the trajectory: the lock must have been driven to
        // pure blocking at some point during the heavy phase.
        let (reached_blocking, _) = sim::run(cfg(8), || {
            let lock = Arc::new(AdaptiveLock::with_policy(
                ctx::current_node(),
                Box::new(SimpleAdapt::new(1, 5)),
                2,
            ));
            let procs: Vec<ProcId> = (0..8).map(ProcId).collect();
            fork_join_all(&procs, "w", |_| {
                let l = lock.clone();
                move || {
                    for _ in 0..30 {
                        // Long critical sections -> deep waiting queues.
                        with_lock(l.as_ref(), || ctx::advance(Duration::millis(1)));
                    }
                }
            });
            lock.inner()
                .transition_log()
                .transitions()
                .iter()
                .any(|t| t.to.contains("{blocking}"))
        })
        .unwrap();
        assert!(
            reached_blocking,
            "heavily contended lock must be driven to pure blocking"
        );
    }

    #[test]
    fn sampling_period_is_respected() {
        let (samples, _) = sim::run(cfg(1), || {
            let lock = AdaptiveLock::with_policy(
                ctx::current_node(),
                Box::new(SimpleAdapt::default()),
                2,
            );
            for _ in 0..10 {
                with_lock(&lock, || {});
            }
            lock.samples()
        })
        .unwrap();
        assert_eq!(samples, 5, "every other unlock must be sampled");
    }

    /// Four sim-threads each increment a shared counter 25 times under
    /// `lock`, as a read and a later write; returns the final count.
    fn hammer(lock: &Arc<AdaptiveLock>) -> u64 {
        let counter = SimCell::new_local(0u64);
        let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
        fork_join_all(&procs, "w", |_| {
            let (l, c) = (lock.clone(), counter.clone());
            move || {
                for _ in 0..25 {
                    with_lock(l.as_ref(), || {
                        let v = c.read();
                        ctx::advance(Duration::micros(3));
                        c.write(v + 1);
                    });
                }
            }
        });
        counter.read()
    }

    #[test]
    fn mutual_exclusion_under_adaptation() {
        let (total, _) = sim::run(cfg(4), || hammer(&Arc::new(AdaptiveLock::new_local()))).unwrap();
        assert_eq!(total, 100, "adaptation must never break mutual exclusion");
    }

    #[test]
    fn a_panicking_policy_is_quarantined_not_unwound_through_unlock() {
        let ((total, samples, reconfigurations), _) = sim::run(cfg(4), || {
            // `SimpleAdapt`, except that its first decision panics.
            let (mut died, mut then) = (false, SimpleAdapt::default());
            let policy = FnPolicy::new(move |obs| {
                assert!(std::mem::replace(&mut died, true), "policy dies on its first decision");
                then.decide(obs)
            });
            let lock = Arc::new(AdaptiveLock::with_policy(ctx::current_node(), Box::new(policy), 1));
            let total = hammer(&lock);
            let log = lock.inner().transition_log();
            (total, lock.samples(), log.count_of(OpKind::Reconfiguration) as u64)
        })
        .expect("a policy panic must not tear the simulation down");
        assert_eq!(total, 100, "a contained panic must never break mutual exclusion");
        assert_eq!(samples, 100);
        // The panicking sample and the sentence it earned decide
        // nothing; every later sample reconfigures again.
        assert_eq!(reconfigurations, samples - 1 - adaptive_core::QUARANTINE_BASE_TICKS);
    }

    #[test]
    fn reconfigurations_are_logged() {
        let (n, _) = sim::run(cfg(1), || {
            let lock = AdaptiveLock::new_local();
            for _ in 0..6 {
                with_lock(&lock, || {});
            }
            lock.inner().transition_log().len()
        })
        .unwrap();
        assert!(n >= 2, "uncontended unlocks must have triggered pure-spin decisions");
    }

    #[test]
    fn scheduler_adapt_switches_after_consecutive_deep_samples() {
        let mut p = SchedulerAdapt::new(3, 2);
        let obs = |w| LockObservation {
            waiting: w,
            at: VirtualTime::ZERO,
        };
        assert_eq!(p.decide(obs(5)), None, "one deep sample is not enough");
        assert_eq!(
            p.decide(obs(4)),
            Some(LockDecision::SetScheduler(SchedKind::Priority))
        );
        assert_eq!(p.current(), SchedKind::Priority);
        // A single shallow sample does not flap back.
        assert_eq!(p.decide(obs(0)), None);
        assert_eq!(p.decide(obs(5)), None, "deep again: stays Priority, no decision");
        assert_eq!(p.decide(obs(0)), None);
        assert_eq!(
            p.decide(obs(1)),
            Some(LockDecision::SetScheduler(SchedKind::Fcfs))
        );
        assert_eq!(p.current(), SchedKind::Fcfs);
    }

    #[test]
    fn adaptive_lock_reinstalls_scheduler_under_sustained_depth() {
        // End-to-end: an adaptive lock driven by SchedulerAdapt must end
        // up with the priority scheduler installed while deep queues
        // persist, and grants must then follow priorities.
        let (sched, _) = sim::run(cfg(6), || {
            let lock = Arc::new(AdaptiveLock::with_parts(
                ctx::current_node(),
                WaitingPolicy::pure_blocking(),
                SchedKind::Fcfs,
                crate::api::LockCosts::default(),
                Box::new(SchedulerAdapt::new(2, 2)),
                1,
            ));
            let procs: Vec<butterfly_sim::ProcId> = (0..6).map(butterfly_sim::ProcId).collect();
            fork_join_all(&procs, "w", |_| {
                let l = lock.clone();
                move || {
                    for _ in 0..20 {
                        with_lock(l.as_ref(), || ctx::advance(Duration::micros(400)));
                    }
                }
            });
            // The drain phase may flip back to FCFS; assert on the
            // trajectory: Priority must have been installed at some point.
            lock.inner()
                .transition_log()
                .transitions()
                .iter()
                .any(|t| t.to.starts_with("priority{"))
        })
        .unwrap();
        assert!(sched, "sustained deep queues must install the Priority scheduler");
    }
}

//! The reconfigurable lock ([MS93]): a lock whose waiting policy
//! (mutable attributes) and scheduler (method set) can be changed at run
//! time behind the unchanged `Lock` interface.
//!
//! Structure (paper Section 5.1):
//!
//! * **internal state** — lock word, guard, waiting-thread count,
//!   current owner, registration queue;
//! * **mutable attributes** — the [`WaitingPolicy`]
//!   `{spin-time, delay-time, sleep-time, timeout}`, one group with one
//!   owner: an agent that acquires any of the four holds all four;
//! * **configurable methods** — `Lock`/`Unlock`, decomposed into
//!   registration / acquisition / release scheduling components with
//!   pluggable [`LockScheduler`]s;
//! * **configure operations** — [`ReconfigurableLock::configure_policy`]
//!   costs `1R 1W`, [`ReconfigurableLock::configure_scheduler`] costs
//!   `5W` (three sub-module pointers plus setting and resetting the
//!   configuration-delay flag), matching the paper's Table 8 narrative.
//!
//! Registered waiters spin or block on a *grant flag homed on their own
//! node* (local spinning, as in queue locks), and releases are direct
//! handoffs chosen by the installed scheduler.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use adaptive_core::{OpCost, OpKind, TransitionLog};
use butterfly_sim::{ctx, Duration, NodeId, SimCell, SimWord, ThreadId};

use crate::api::{charge_overhead, priority, Lock, LockCosts, LockStats, PatternSample};
use crate::oracle::{LockOracle, OracleSlot};
use crate::policy::{WaitingPolicy, SLEEP_FOREVER};
use crate::scheduler::{LockScheduler, SchedKind, Waiter};

const FREE: u64 = 0;
const HELD: u64 = 1;
const HELD_WAITERS: u64 = 2;

/// The names of the waiting group's attributes.
const WAITING_ATTRS: [&str; 4] = ["spin-time", "delay-time", "sleep-time", "timeout"];

/// An agent (simulated thread or external monitor) that can own attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerId(pub u64);

/// The paper's agent id for the calling simulated thread.
pub fn agent() -> OwnerId {
    OwnerId(ctx::current().0 as u64)
}

/// Errors from attribute ownership and configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrError {
    /// No attribute with that name exists on the lock.
    Unknown(&'static str),
    /// The waiting attributes are owned by a different agent.
    Owned(OwnerId),
}

impl std::fmt::Display for AttrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrError::Unknown(a) => write!(f, "unknown attribute `{a}`"),
            AttrError::Owned(owner) => write!(f, "waiting attributes owned by agent {}", owner.0),
        }
    }
}

impl std::error::Error for AttrError {}

/// A lock with run-time configurable waiting policy and scheduler.
pub struct ReconfigurableLock {
    name: &'static str,
    node: NodeId,
    word: SimWord,
    guard: SimWord,
    waiting: SimWord,
    /// The waiting policy lives in simulated memory: reading it on the
    /// contended path and rewriting it on reconfiguration are charged.
    policy_cell: SimCell<WaitingPolicy>,
    sched: Mutex<Box<dyn LockScheduler>>,
    reg_seq: AtomicU64,
    holder: Mutex<Option<ThreadId>>,
    /// Who holds the waiting group, if an agent acquired it. Host
    /// memory: taking and giving it up are charged by the callers.
    owner: Mutex<Option<OwnerId>>,
    tlog: Mutex<TransitionLog>,
    costs: LockCosts,
    stats: Mutex<LockStats>,
    trace: Mutex<Option<Vec<PatternSample>>>,
    oracle: OracleSlot,
}

impl ReconfigurableLock {
    /// Create with an initial policy and scheduler on `node`.
    pub fn new(node: NodeId, policy: WaitingPolicy, sched: SchedKind) -> ReconfigurableLock {
        ReconfigurableLock::with_parts("reconfigurable", node, policy, sched, LockCosts::default())
    }

    /// Create on the caller's node with defaults (combined policy, FCFS).
    pub fn new_local() -> ReconfigurableLock {
        ReconfigurableLock::new(ctx::current_node(), WaitingPolicy::default(), SchedKind::Fcfs)
    }

    /// A statically *combined* lock: spin `spins` probes, then block.
    /// (The paper's Figure 1 compares combined(1) / combined(10) /
    /// combined(50).)
    pub fn combined(node: NodeId, spins: u32) -> ReconfigurableLock {
        ReconfigurableLock::with_parts(
            "combined",
            node,
            WaitingPolicy::combined(spins),
            SchedKind::Fcfs,
            LockCosts::default(),
        )
    }

    /// Full-control constructor.
    pub fn with_parts(
        name: &'static str,
        node: NodeId,
        policy: WaitingPolicy,
        sched: SchedKind,
        costs: LockCosts,
    ) -> ReconfigurableLock {
        let mut tlog = TransitionLog::new();
        let desc = format!("{}{{{}}}", sched, policy.descriptor());
        // Initialization (I): one write per attribute.
        tlog.record(0, OpKind::Initialization, "-", desc, OpCost::writes(4));
        ReconfigurableLock {
            name,
            node,
            word: SimWord::new_on(node, FREE),
            guard: SimWord::new_on(node, 0),
            waiting: SimWord::new_on(node, 0),
            policy_cell: SimCell::new_on(node, policy),
            sched: Mutex::new(sched.build()),
            reg_seq: AtomicU64::new(0),
            holder: Mutex::new(None),
            owner: Mutex::new(None),
            tlog: Mutex::new(tlog),
            costs,
            stats: Mutex::new(LockStats::default()),
            trace: Mutex::new(None),
            oracle: OracleSlot::default(),
        }
    }

    /// Attach an invariant oracle (host-memory only, does not perturb
    /// the simulated cost model). At most one oracle per lock.
    pub fn attach_oracle(&self, oracle: Arc<LockOracle>) {
        self.oracle.attach(oracle);
    }

    /// The node the lock's state lives on.
    pub fn home(&self) -> NodeId {
        self.node
    }

    /// Current waiting policy (monitor peek, no simulated cost).
    pub fn policy(&self) -> WaitingPolicy {
        self.policy_cell.peek()
    }

    /// Currently installed scheduler kind.
    pub fn sched_kind(&self) -> SchedKind {
        self.sched.lock().unwrap().kind()
    }

    /// Current holder, if any (monitor peek).
    pub fn holder(&self) -> Option<ThreadId> {
        *self.holder.lock().unwrap()
    }

    /// Snapshot of the configuration transition log.
    pub fn transition_log(&self) -> TransitionLog {
        self.tlog.lock().unwrap().clone()
    }

    fn guard_acquire(&self) {
        while self.guard.test_and_set() {}
    }

    fn guard_release(&self) {
        self.guard.store(0);
    }

    fn record_sample(&self) {
        if let Some(tr) = self.trace.lock().unwrap().as_mut() {
            tr.push(PatternSample {
                at: ctx::now(),
                waiting: self.waiting.peek(),
            });
        }
    }

    fn descriptor(&self) -> String {
        format!(
            "{}{{{}}}",
            self.sched.lock().unwrap().kind(),
            self.policy_cell.peek().descriptor()
        )
    }

    /// The acquisition component: wait on the grant flag per `policy`.
    fn wait_for_grant(&self, flag: &SimWord, parked: &Arc<AtomicBool>, policy: WaitingPolicy) {
        let mut probes: u32 = 0;
        loop {
            if flag.load() == 1 {
                return;
            }
            probes = probes.saturating_add(1);
            if policy.blocks() && probes > policy.spin {
                // Release (not SeqCst): no store-buffering hazard here —
                // `flag` is a `SimWord` whose load/store lock an internal
                // mutex, so a waiter that re-reads `flag == 0` had its
                // critical section *before* the granter's `flag.store(1)`,
                // and the mutex edge makes this store visible to the
                // granter's subsequent `parked` load. Ordering on
                // `parked` itself is only publish intent.
                parked.store(true, Ordering::Release);
                // Re-check after publishing `parked` so a racing grant
                // either sees the flag read or unparks us.
                if flag.load() == 1 {
                    // Same-variable coherence only; a granter reading a
                    // stale `true` at worst issues a spurious unpark,
                    // which the next park consumes as a permit.
                    parked.store(false, Ordering::Relaxed);
                    return;
                }
                if policy.sleep >= SLEEP_FOREVER {
                    ctx::park();
                } else {
                    ctx::park_timeout(policy.sleep);
                }
                parked.store(false, Ordering::Relaxed);
                probes = 0; // re-spin after each sleep episode
            } else if policy.delay > Duration::ZERO {
                // Flat inter-probe delay (the delay-time attribute); the
                // dedicated SpinBackoffLock implements growing backoff.
                ctx::advance(policy.delay);
            }
        }
    }

    /// Register the calling thread as a waiter (under the guard). Returns
    /// `None` if the lock was acquired directly instead.
    fn register_self(&self, flag: &SimWord, parked: &Arc<AtomicBool>) -> Option<()> {
        loop {
            self.guard_acquire();
            let cur = self.word.load();
            if cur == FREE {
                if self.word.compare_exchange(FREE, HELD).is_ok() {
                    self.guard_release();
                    return None; // acquired without waiting
                }
                self.guard_release();
                continue;
            }
            if self.word.compare_exchange(cur, HELD_WAITERS).is_err() {
                self.guard_release();
                continue;
            }
            // Registration component: one queue write.
            ctx::charge_mem(ctx::MemOp::Write, self.node);
            let w = Waiter {
                tid: ctx::current(),
                priority: priority::get(),
                seq: self.reg_seq.fetch_add(1, Ordering::Relaxed),
                flag: flag.clone(),
                parked: parked.clone(),
            };
            self.sched.lock().unwrap().register(w);
            if let Some(o) = self.oracle.get() {
                o.on_enqueue(ctx::current());
            }
            self.guard_release();
            return Some(());
        }
    }

    fn finish_acquire(&self, t0: butterfly_sim::VirtualTime, contended: bool, waiting_peak: u64) {
        if let Some(o) = self.oracle.get() {
            o.on_acquire(ctx::current());
        }
        *self.holder.lock().unwrap() = Some(ctx::current());
        let mut s = self.stats.lock().unwrap();
        s.acquisitions += 1;
        if contended {
            s.contended += 1;
            s.max_waiting = s.max_waiting.max(waiting_peak);
            s.total_wait_nanos += ctx::now().since(t0).as_nanos();
        }
    }

    /// Bounded (conditional) acquire: wait at most `timeout`. Returns
    /// whether the lock was acquired. This is the behaviour the `timeout`
    /// attribute row of the paper's table describes.
    pub fn lock_timeout(&self, timeout: Duration) -> bool {
        charge_overhead(self.costs.lock_overhead);
        let t0 = ctx::now();
        if self.word.compare_exchange(FREE, HELD).is_ok() {
            self.finish_acquire(t0, false, 0);
            return true;
        }
        let waiting_now = self.waiting.fetch_add(1) + 1;
        if let Some(o) = self.oracle.get() {
            o.on_waiting_inc();
        }
        let policy = self.policy_cell.read();
        let flag = SimWord::new_on(ctx::current_node(), 0);
        let parked = Arc::new(AtomicBool::new(false));
        let deadline = t0 + timeout;

        if self.register_self(&flag, &parked).is_none() {
            self.waiting.fetch_sub(1);
            if let Some(o) = self.oracle.get() {
                o.on_waiting_dec();
            }
            self.finish_acquire(t0, true, waiting_now);
            return true;
        }

        // Bounded acquisition: spin/sleep in episodes, checking the
        // deadline between them.
        let mut probes: u32 = 0;
        let acquired = loop {
            if flag.load() == 1 {
                break true;
            }
            if ctx::now() >= deadline {
                // Deregister under the guard; a grant may race with us.
                self.guard_acquire();
                if flag.load() == 1 {
                    self.guard_release();
                    break true;
                }
                let removed = self.sched.lock().unwrap().remove(ctx::current());
                assert!(removed.is_some(), "timed-out waiter missing from queue");
                if let Some(o) = self.oracle.get() {
                    o.on_dequeue(ctx::current());
                }
                if self.sched.lock().unwrap().is_empty()
                    && self.word.load() == HELD_WAITERS
                {
                    // Last registered waiter gone; drop the waiters mark.
                    let _ = self.word.compare_exchange(HELD_WAITERS, HELD);
                }
                self.guard_release();
                break false;
            }
            probes = probes.saturating_add(1);
            if policy.blocks() && probes > policy.spin {
                // Release/Relaxed pair: see the ordering note in
                // `wait_for_grant` — the `flag` mutex supplies the
                // happens-before edge that defeats the lost wakeup.
                parked.store(true, Ordering::Release);
                if flag.load() == 1 {
                    parked.store(false, Ordering::Relaxed);
                    break true;
                }
                let episode = if policy.sleep >= SLEEP_FOREVER {
                    deadline.saturating_since(ctx::now())
                } else {
                    policy.sleep
                };
                ctx::park_timeout(episode);
                parked.store(false, Ordering::Relaxed);
                probes = 0;
            } else if policy.delay > Duration::ZERO {
                ctx::advance(policy.delay);
            }
        };
        self.waiting.fetch_sub(1);
        if let Some(o) = self.oracle.get() {
            o.on_waiting_dec();
        }
        if acquired {
            self.finish_acquire(t0, true, waiting_now);
        }
        acquired
    }

    /// Reconfigure the waiting policy (Ψ), all four attributes or none:
    /// refused unless the waiting group is unowned or owned by `by`.
    /// Charged `1R 1W` against the lock's node.
    pub fn configure_policy(&self, by: OwnerId, new: WaitingPolicy) -> Result<(), AttrError> {
        charge_overhead(self.costs.unlock_overhead); // configure-call overhead
        let from = self.descriptor();
        if let Some(owner) = self.owner.lock().unwrap().filter(|&o| o != by) {
            return Err(AttrError::Owned(owner));
        }
        // The hot-path policy word: one read + one write.
        self.policy_cell.update(|p| *p = new);
        let to = self.descriptor();
        self.tlog.lock().unwrap().record(
            ctx::now().as_nanos(),
            OpKind::Reconfiguration,
            from,
            to,
            OpCost::new(1, 1),
        );
        self.stats.lock().unwrap().reconfigurations += 1;
        Ok(())
    }

    /// Reconfigure the scheduler (Ψ). Pre-registered waiters are
    /// transferred in grant order. Charged `5W`: three sub-module
    /// pointers, plus setting and resetting the configuration-delay flag.
    pub fn configure_scheduler(&self, kind: SchedKind) {
        charge_overhead(self.costs.unlock_overhead); // configure-call overhead
        let from = self.descriptor();
        self.guard_acquire();
        for _ in 0..5 {
            ctx::charge_mem(ctx::MemOp::Write, self.node);
        }
        {
            let mut sched = self.sched.lock().unwrap();
            if sched.kind() != kind {
                let mut fresh = kind.build();
                for w in sched.drain() {
                    fresh.register(w);
                }
                *sched = fresh;
            }
        }
        self.guard_release();
        let to = self.descriptor();
        self.tlog.lock().unwrap().record(
            ctx::now().as_nanos(),
            OpKind::Reconfiguration,
            from,
            to,
            OpCost::writes(5),
        );
        self.stats.lock().unwrap().reconfigurations += 1;
    }

    /// Explicitly acquire ownership of the waiting group by naming any
    /// of its attributes (external agent protocol; cost comparable to a
    /// test-and-set). Re-acquiring a group `by` already holds succeeds.
    pub fn acquire_attr(&self, by: OwnerId, name: &'static str) -> Result<(), AttrError> {
        // Comparable to a lock acquisition: call overhead plus one RMW.
        charge_overhead(self.costs.lock_overhead);
        ctx::charge_mem(ctx::MemOp::Rmw, self.node);
        self.hand_over(by, name, Some(by))
    }

    /// Give up the waiting group, named by any of its attributes.
    /// Refused if another agent holds it; a no-op if no one does.
    pub fn release_attr(&self, by: OwnerId, name: &'static str) -> Result<(), AttrError> {
        ctx::charge_mem(ctx::MemOp::Write, self.node);
        self.hand_over(by, name, None)
    }

    /// Make `to` the waiting group's owner on behalf of `by`, unless
    /// another agent holds it. `name` must be one of the group's.
    fn hand_over(
        &self,
        by: OwnerId,
        name: &'static str,
        to: Option<OwnerId>,
    ) -> Result<(), AttrError> {
        if !WAITING_ATTRS.contains(&name) {
            return Err(AttrError::Unknown(name));
        }
        let mut owner = self.owner.lock().unwrap();
        match *owner {
            Some(o) if o != by => Err(AttrError::Owned(o)),
            _ => {
                *owner = to;
                Ok(())
            }
        }
    }

    /// Handoff hint: the owner designates which thread should get the
    /// lock at the next release (effective with [`SchedKind::Handoff`]).
    pub fn set_successor(&self, tid: Option<ThreadId>) {
        self.guard_acquire();
        ctx::charge_mem(ctx::MemOp::Write, self.node);
        self.sched.lock().unwrap().set_successor(tid);
        self.guard_release();
    }

    /// Sense the waiting-thread count as the customized lock monitor
    /// does: one charged read of the state variable plus the monitor's
    /// processing overhead.
    pub fn sense_waiting(&self) -> u64 {
        charge_overhead(self.costs.monitor_overhead);
        self.waiting.load()
    }

    /// Lock-op cost model in use.
    pub fn costs(&self) -> LockCosts {
        self.costs
    }
}

impl Lock for ReconfigurableLock {
    fn lock(&self) {
        charge_overhead(self.costs.lock_overhead);
        let t0 = ctx::now();
        // Uncontended fast path: a single RMW, like a primitive spin
        // lock (the paper's Table 4 point about adaptive lock latency).
        if self.word.compare_exchange(FREE, HELD).is_ok() {
            self.finish_acquire(t0, false, 0);
            return;
        }
        let waiting_now = self.waiting.fetch_add(1) + 1;
        if let Some(o) = self.oracle.get() {
            o.on_waiting_inc();
        }
        // Read the waiting policy (one charged read of the attributes).
        let policy = self.policy_cell.read();
        let flag = SimWord::new_on(ctx::current_node(), 0);
        let parked = Arc::new(AtomicBool::new(false));
        if self.register_self(&flag, &parked).is_some() {
            self.wait_for_grant(&flag, &parked, policy);
        }
        self.waiting.fetch_sub(1);
        if let Some(o) = self.oracle.get() {
            o.on_waiting_dec();
        }
        self.finish_acquire(t0, true, waiting_now);
    }

    fn unlock(&self) {
        charge_overhead(self.costs.unlock_overhead);
        {
            let mut h = self.holder.lock().unwrap();
            assert_eq!(
                *h,
                Some(ctx::current()),
                "{} lock released by a thread that does not hold it",
                self.name
            );
            *h = None;
        }
        // Oracle: announce the release *before* any state transition can
        // let the next acquirer in, so observations stay well-ordered.
        if let Some(o) = self.oracle.get() {
            o.on_release(ctx::current());
        }
        self.record_sample();
        if self.word.compare_exchange(HELD, FREE).is_ok() {
            self.stats.lock().unwrap().releases += 1;
            return;
        }
        // Release component: select and grant under the guard so that
        // timed-out waiters cannot race with an in-flight grant.
        self.guard_acquire();
        ctx::charge_mem(ctx::MemOp::Read, self.node);
        let next = self.sched.lock().unwrap().select();
        match next {
            Some(w) => {
                ctx::charge_mem(ctx::MemOp::Write, self.node);
                if self.sched.lock().unwrap().is_empty() {
                    self.word.store(HELD);
                } else {
                    self.word.store(HELD_WAITERS);
                }
                if let Some(o) = self.oracle.get() {
                    o.on_grant(w.tid);
                }
                w.flag.store(1); // grant: write to the waiter's node
                // Acquire pairs with the waiter's Release publish of
                // `parked`; if the waiter missed this grant, the `flag`
                // mutex edge guarantees we read `true` here and unpark.
                if w.parked.load(Ordering::Acquire) {
                    ctx::unpark(w.tid);
                }
                self.guard_release();
                let mut s = self.stats.lock().unwrap();
                s.releases += 1;
                s.handoffs += 1;
            }
            None => {
                self.word.store(FREE);
                self.guard_release();
                self.stats.lock().unwrap().releases += 1;
            }
        }
    }

    fn try_lock(&self) -> bool {
        charge_overhead(self.costs.lock_overhead);
        if self.word.compare_exchange(FREE, HELD).is_ok() {
            self.finish_acquire(ctx::now(), false, 0);
            true
        } else {
            false
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn waiting_now(&self) -> u64 {
        self.waiting.peek()
    }

    fn stats(&self) -> LockStats {
        *self.stats.lock().unwrap()
    }

    fn enable_tracing(&self) {
        *self.trace.lock().unwrap() = Some(Vec::new());
    }

    fn take_trace(&self) -> Vec<PatternSample> {
        self.trace
            .lock()
            .unwrap()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::with_lock;
    use butterfly_sim::{self as sim, ProcId, SimCell, SimConfig};
    use cthreads::{fork, fork_join_all};

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            processors: n,
            ..SimConfig::default()
        }
    }

    fn exercise(policy: WaitingPolicy, sched: SchedKind) -> u64 {
        let (total, _) = sim::run(cfg(4), move || {
            let lock = Arc::new(ReconfigurableLock::new(ctx::current_node(), policy, sched));
            let counter = SimCell::new_local(0u64);
            let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
            fork_join_all(&procs, "w", |_| {
                let (l, c) = (lock.clone(), counter.clone());
                move || {
                    for _ in 0..20 {
                        with_lock(l.as_ref(), || {
                            let v = c.read();
                            ctx::advance(Duration::micros(3));
                            c.write(v + 1);
                        });
                    }
                }
            });
            counter.read()
        })
        .unwrap();
        total
    }

    #[test]
    fn mutual_exclusion_all_policies() {
        for policy in [
            WaitingPolicy::pure_spin(),
            WaitingPolicy::backoff(Duration::micros(2)),
            WaitingPolicy::pure_blocking(),
            WaitingPolicy::combined(5),
            WaitingPolicy::mixed(3, Duration::micros(1), Duration::micros(200)),
        ] {
            assert_eq!(exercise(policy, SchedKind::Fcfs), 80, "policy {policy:?}");
        }
    }

    #[test]
    fn mutual_exclusion_all_schedulers() {
        for sched in [SchedKind::Fcfs, SchedKind::Priority, SchedKind::Handoff] {
            assert_eq!(exercise(WaitingPolicy::combined(5), sched), 80, "sched {sched:?}");
        }
    }

    #[test]
    fn priority_scheduler_grants_high_priority_first() {
        let (order, _) = sim::run(cfg(4), || {
            let lock = Arc::new(ReconfigurableLock::new(
                ctx::current_node(),
                WaitingPolicy::pure_blocking(),
                SchedKind::Priority,
            ));
            let order = SimCell::new_local(Vec::<i32>::new());
            lock.lock();
            let handles: Vec<_> = [(1, 1), (2, 9), (3, 5)]
                .into_iter()
                .map(|(p, prio)| {
                    let (l, o) = (lock.clone(), order.clone());
                    fork(ProcId(p), format!("w{p}"), move || {
                        ctx::advance(Duration::micros(10 * p as u64));
                        priority::set(prio);
                        l.lock();
                        o.poke(|v| v.push(prio));
                        l.unlock();
                        priority::set(0);
                    })
                })
                .collect();
            ctx::advance(Duration::millis(1));
            lock.unlock();
            for h in handles {
                h.join();
            }
            order.peek()
        })
        .unwrap();
        assert_eq!(order, vec![9, 5, 1], "priority scheduler must grant 9 before 5 before 1");
    }

    #[test]
    fn handoff_successor_wins() {
        let (order, _) = sim::run(cfg(4), || {
            let lock = Arc::new(ReconfigurableLock::new(
                ctx::current_node(),
                WaitingPolicy::pure_blocking(),
                SchedKind::Handoff,
            ));
            let order = SimCell::new_local(Vec::<usize>::new());
            lock.lock();
            let handles: Vec<_> = (1..4)
                .map(|p| {
                    let (l, o) = (lock.clone(), order.clone());
                    fork(ProcId(p), format!("w{p}"), move || {
                        ctx::advance(Duration::micros(10 * p as u64));
                        l.lock();
                        o.poke(|v| v.push(p));
                        l.unlock();
                    })
                })
                .collect();
            ctx::advance(Duration::millis(1));
            // Designate the *last* arrival as successor.
            let succ = handles[2].thread();
            lock.set_successor(Some(succ));
            lock.unlock();
            for h in handles {
                h.join();
            }
            order.peek()
        })
        .unwrap();
        assert_eq!(order[0], 3, "designated successor must be granted first");
    }

    #[test]
    fn configure_policy_changes_behavior_and_logs() {
        let (log_len, _) = sim::run(cfg(1), || {
            let lock = ReconfigurableLock::new_local();
            assert_eq!(lock.policy().kind(), crate::policy::LockKind::MixedSleepSpin);
            lock.configure_policy(agent(), WaitingPolicy::pure_spin()).unwrap();
            assert_eq!(lock.policy().kind(), crate::policy::LockKind::PureSpin);
            lock.configure_policy(agent(), WaitingPolicy::pure_blocking()).unwrap();
            assert_eq!(lock.policy().kind(), crate::policy::LockKind::PureSleep);
            let log = lock.transition_log();
            assert_eq!(log.count_of(OpKind::Reconfiguration), 2);
            assert_eq!(log.count_of(OpKind::Initialization), 1);
            assert_eq!(log.total_cost(), OpCost::new(2, 6)); // I: 4W, 2×Ψ: 1R1W
            assert_eq!(lock.stats().reconfigurations, 2);
            log.len()
        })
        .unwrap();
        assert_eq!(log_len, 3);
    }

    #[test]
    fn configure_scheduler_transfers_waiters() {
        let (order, _) = sim::run(cfg(4), || {
            let lock = Arc::new(ReconfigurableLock::new(
                ctx::current_node(),
                WaitingPolicy::pure_blocking(),
                SchedKind::Fcfs,
            ));
            let order = SimCell::new_local(Vec::<i32>::new());
            lock.lock();
            let handles: Vec<_> = [(1, 1), (2, 9), (3, 5)]
                .into_iter()
                .map(|(p, prio)| {
                    let (l, o) = (lock.clone(), order.clone());
                    fork(ProcId(p), format!("w{p}"), move || {
                        ctx::advance(Duration::micros(10 * p as u64));
                        priority::set(prio);
                        l.lock();
                        o.poke(|v| v.push(prio));
                        l.unlock();
                        priority::set(0);
                    })
                })
                .collect();
            ctx::advance(Duration::millis(1));
            // Swap FCFS -> Priority while three threads wait.
            lock.configure_scheduler(SchedKind::Priority);
            assert_eq!(lock.sched_kind(), SchedKind::Priority);
            lock.unlock();
            for h in handles {
                h.join();
            }
            order.peek()
        })
        .unwrap();
        assert_eq!(order, vec![9, 5, 1], "waiters must be re-scheduled by the new scheduler");
    }

    #[test]
    fn attribute_ownership_blocks_foreign_configuration() {
        let (res, _) = sim::run(cfg(1), || {
            let lock = ReconfigurableLock::new_local();
            let external_agent = OwnerId(999);
            lock.acquire_attr(external_agent, "spin-time").unwrap();
            let blocked = lock.configure_policy(agent(), WaitingPolicy::pure_spin());
            let allowed = lock.configure_policy(external_agent, WaitingPolicy::pure_spin());
            lock.release_attr(external_agent, "spin-time").unwrap();
            let after = lock.configure_policy(agent(), WaitingPolicy::pure_blocking());
            (blocked, allowed, after)
        })
        .unwrap();
        assert!(matches!(res.0, Err(AttrError::Owned { .. })));
        assert!(res.1.is_ok());
        assert!(res.2.is_ok());
    }

    #[test]
    fn an_unknown_attribute_name_is_refused() {
        let (res, _) = sim::run(cfg(1), || {
            let lock = ReconfigurableLock::new_local();
            [lock.acquire_attr(agent(), "no-such"), lock.release_attr(agent(), "no-such")]
        })
        .unwrap();
        assert_eq!(res, [Err(AttrError::Unknown("no-such")), Err(AttrError::Unknown("no-such"))]);
    }

    #[test]
    fn a_second_agent_cannot_take_an_owned_group() {
        let (res, _) = sim::run(cfg(1), || {
            let lock = ReconfigurableLock::new_local();
            lock.acquire_attr(OwnerId(7), "spin-time").unwrap();
            // Any name of the group answers for all four; the holder may
            // take it again, and once released it is free.
            let taken = lock.acquire_attr(OwnerId(8), "timeout");
            let again = lock.acquire_attr(OwnerId(7), "delay-time");
            lock.release_attr(OwnerId(7), "sleep-time").unwrap();
            [taken, again, lock.acquire_attr(OwnerId(8), "timeout")]
        })
        .unwrap();
        assert_eq!(res, [Err(AttrError::Owned(OwnerId(7))), Ok(()), Ok(())]);
    }

    #[test]
    fn a_non_owner_cannot_release_the_group() {
        let (res, _) = sim::run(cfg(1), || {
            let lock = ReconfigurableLock::new_local();
            lock.acquire_attr(OwnerId(7), "spin-time").unwrap();
            let released = lock.release_attr(OwnerId(8), "delay-time");
            // Still the holder's: the other agent cannot configure.
            [released, lock.configure_policy(OwnerId(8), WaitingPolicy::pure_spin())]
        })
        .unwrap();
        assert_eq!(res, [Err(AttrError::Owned(OwnerId(7))), Err(AttrError::Owned(OwnerId(7)))]);
    }

    #[test]
    fn lock_timeout_expires_and_recovers() {
        let (out, _) = sim::run(cfg(2), || {
            let lock = Arc::new(ReconfigurableLock::new_local());
            let l2 = lock.clone();
            let h = fork(ProcId(1), "holder", move || {
                l2.lock();
                ctx::advance(Duration::millis(10));
                l2.unlock();
            });
            ctx::advance(Duration::millis(1));
            let t0 = ctx::now();
            let got = lock.lock_timeout(Duration::millis(2));
            let waited = ctx::now().since(t0);
            h.join();
            // The lock must still be usable afterwards.
            let got_after = lock.lock_timeout(Duration::millis(1));
            if got_after {
                lock.unlock();
            }
            (got, waited, got_after, lock.waiting_now())
        })
        .unwrap();
        assert!(!out.0, "holder keeps the lock for 10ms; 2ms timeout must fail");
        assert!(out.1 >= Duration::millis(2));
        assert!(out.1 < Duration::millis(8), "timed out far too late: {}", out.1);
        assert!(out.2, "lock must be acquirable after the holder releases");
        assert_eq!(out.3, 0, "timed-out waiter must deregister");
    }

    #[test]
    fn lock_timeout_succeeds_when_granted_in_time() {
        let (got, _) = sim::run(cfg(2), || {
            let lock = Arc::new(ReconfigurableLock::new_local());
            let l2 = lock.clone();
            let h = fork(ProcId(1), "holder", move || {
                l2.lock();
                ctx::advance(Duration::millis(1));
                l2.unlock();
            });
            ctx::advance(Duration::micros(100));
            let got = lock.lock_timeout(Duration::millis(50));
            if got {
                lock.unlock();
            }
            h.join();
            got
        })
        .unwrap();
        assert!(got);
    }

    #[test]
    fn unlock_by_non_holder_is_detected() {
        let err = sim::run(cfg(2), || {
            let lock = Arc::new(ReconfigurableLock::new_local());
            let l2 = lock.clone();
            lock.lock();
            fork(ProcId(1), "rogue", move || l2.unlock()).join();
        })
        .unwrap_err();
        match err {
            sim::SimError::ThreadPanicked { message, .. } => {
                assert!(message.contains("does not hold it"), "got: {message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn pure_spin_waiters_never_block() {
        let (_, report) = sim::run(cfg(2), || {
            let lock = Arc::new(ReconfigurableLock::new(
                ctx::current_node(),
                WaitingPolicy::pure_spin(),
                SchedKind::Fcfs,
            ));
            let l2 = lock.clone();
            let h = fork(ProcId(1), "w", move || {
                for _ in 0..5 {
                    with_lock(l2.as_ref(), || ctx::advance(Duration::micros(50)));
                }
            });
            for _ in 0..5 {
                with_lock(lock.as_ref(), || ctx::advance(Duration::micros(50)));
            }
            h.join();
        })
        .unwrap();
        // Two single-thread processors: context switches only for
        // spawn/join bookkeeping, none from lock waits. A blocked waiter
        // would force extra switches on proc 1.
        assert!(
            report.proc_switches[1] <= 2,
            "pure-spin waiter appears to have blocked (switches={})",
            report.proc_switches[1]
        );
    }
}

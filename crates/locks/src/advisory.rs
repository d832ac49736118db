//! The advisory (speculative) lock.
//!
//! "The owner of such a lock advises other requesting threads whether to
//! spin or sleep while waiting, dynamically changing some attributes of
//! its internal state during different phases of computation" [MS93].
//! The paper's earlier experiments found this lock to perform well for
//! variable-length critical sections: the owner knows whether its
//! current critical section is short (advise spin) or long (advise
//! sleep).

use butterfly_sim::{ctx, NodeId};

use crate::api::{Lock, LockCosts, LockStats, PatternSample};
use crate::policy::WaitingPolicy;
use crate::reconfigurable::{AttrError, OwnerId, ReconfigurableLock};
use crate::scheduler::SchedKind;

/// The owner's advice to waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Critical section will be short: spin.
    Spin,
    /// Critical section will be long: sleep.
    Sleep,
}

/// A lock whose waiting policy is steered explicitly by its owner.
pub struct AdvisoryLock {
    inner: ReconfigurableLock,
}

/// The agent the owner's advice reconfigures as.
const ADVISOR: OwnerId = OwnerId(u64::MAX - 1);

impl AdvisoryLock {
    /// Create on an explicit node (initial advice: spin).
    pub fn new_on(node: NodeId) -> AdvisoryLock {
        AdvisoryLock {
            inner: ReconfigurableLock::with_parts(
                "advisory",
                node,
                WaitingPolicy::pure_spin(),
                SchedKind::Fcfs,
                LockCosts::default(),
            ),
        }
    }

    /// Create on the caller's node.
    pub fn new_local() -> AdvisoryLock {
        AdvisoryLock::new_on(ctx::current_node())
    }

    /// Post advice for threads that arrive from now on. Typically called
    /// by the owner right after acquiring, when it knows what kind of
    /// critical section it is entering. Costs one attribute
    /// reconfiguration (`1R 1W`).
    pub fn advise(&self, advice: Advice) -> Result<(), AttrError> {
        let policy = match advice {
            Advice::Spin => WaitingPolicy::pure_spin(),
            Advice::Sleep => WaitingPolicy::pure_blocking(),
        };
        self.inner.configure_policy(ADVISOR, policy)
    }

    /// Current advice.
    pub fn advice(&self) -> Advice {
        if self.inner.policy().blocks() {
            Advice::Sleep
        } else {
            Advice::Spin
        }
    }

    /// The wrapped reconfigurable lock.
    pub fn inner(&self) -> &ReconfigurableLock {
        &self.inner
    }
}

impl Lock for AdvisoryLock {
    fn lock(&self) {
        self.inner.lock();
    }

    fn unlock(&self) {
        self.inner.unlock();
    }

    fn try_lock(&self) -> bool {
        self.inner.try_lock()
    }

    fn name(&self) -> &'static str {
        "advisory"
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
    fn advice_switches_policy() {
        let (out, _) = sim::run(cfg(1), || {
            let lock = AdvisoryLock::new_local();
            assert_eq!(lock.advice(), Advice::Spin);
            lock.advise(Advice::Sleep).unwrap();
            let a1 = lock.advice();
            lock.advise(Advice::Spin).unwrap();
            let a2 = lock.advice();
            (a1, a2, lock.inner().stats().reconfigurations)
        })
        .unwrap();
        assert_eq!(out.0, Advice::Sleep);
        assert_eq!(out.1, Advice::Spin);
        assert_eq!(out.2, 2);
    }

    #[test]
    fn phased_usage_preserves_mutual_exclusion() {
        let (total, _) = sim::run(cfg(4), || {
            let lock = Arc::new(AdvisoryLock::new_local());
            let counter = SimCell::new_local(0u64);
            let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
            fork_join_all(&procs, "w", |i| {
                let (l, c) = (lock.clone(), counter.clone());
                move || {
                    for round in 0..10 {
                        l.lock();
                        // Owner advises based on upcoming section length.
                        let long = (round + i) % 3 == 0;
                        let _ = l.advise(if long { Advice::Sleep } else { Advice::Spin });
                        let v = c.read();
                        ctx::advance(if long {
                            Duration::micros(300)
                        } else {
                            Duration::micros(5)
                        });
                        c.write(v + 1);
                        l.unlock();
                    }
                }
            });
            counter.read()
        })
        .unwrap();
        assert_eq!(total, 40);
    }
}

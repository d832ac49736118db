//! The control plane's view of a lock.
//!
//! [`HealthProbe`](adaptive_native::HealthProbe) is the watchdog's
//! read-mostly surface; operator commands need more: retuning waiting
//! attributes, swapping the engine via the quiesce-and-switch protocol,
//! and explicit heal/clear-poison. [`ControlTarget`] is that richer,
//! value-type-erased surface, implemented for every
//! `AdaptiveMutex<T: Send>` so any lock in the program can be
//! registered by name without the registry caring what it guards.

use std::time::Duration;

use adaptive_native::{
    AdaptiveMutex, LockAlgorithm, LockHealth, MutexStats, NativeWaitingPolicy,
};

/// A named lock the control plane can observe and reconfigure live.
pub trait ControlTarget: Send + Sync {
    /// Snapshot liveness health (same data the watchdog polls).
    fn health(&self) -> LockHealth;

    /// Snapshot the full striped statistics.
    fn stats(&self) -> MutexStats;

    /// Snap to the safe endpoint: pure blocking, adaptation disabled
    /// with exponential backoff.
    fn quarantine(&self);

    /// End a quarantine immediately (adaptation restarts on probation).
    /// Returns whether one was in force.
    fn heal(&self) -> bool;

    /// Try-lock acquire/release to re-run the contended release path,
    /// rescuing lost wakeups. Returns whether the nudge ran.
    fn nudge(&self) -> bool;

    /// Clear the poison flag. Returns whether it was set.
    fn clear_poison(&self) -> bool;

    /// Current waiting-policy attributes.
    fn waiting_policy(&self) -> NativeWaitingPolicy;

    /// Install new waiting-policy attributes.
    fn set_waiting_policy(&self, policy: NativeWaitingPolicy);

    /// The engine currently installed.
    fn algorithm(&self) -> LockAlgorithm;

    /// Request a live engine migration (PR 6's quiesce-and-switch).
    /// Returns whether the target took the request: `false` from a lock
    /// with one engine, which stays on [`ControlTarget::algorithm`].
    fn set_algorithm(&self, algo: LockAlgorithm) -> bool;
}

impl<T: Send> ControlTarget for AdaptiveMutex<T> {
    fn health(&self) -> LockHealth {
        adaptive_native::HealthProbe::health(self)
    }

    fn stats(&self) -> MutexStats {
        AdaptiveMutex::stats(self)
    }

    fn quarantine(&self) {
        AdaptiveMutex::quarantine(self);
    }

    fn heal(&self) -> bool {
        AdaptiveMutex::heal(self)
    }

    fn nudge(&self) -> bool {
        adaptive_native::HealthProbe::nudge(self)
    }

    fn clear_poison(&self) -> bool {
        AdaptiveMutex::clear_poison(self)
    }

    fn waiting_policy(&self) -> NativeWaitingPolicy {
        AdaptiveMutex::waiting_policy(self)
    }

    fn set_waiting_policy(&self, policy: NativeWaitingPolicy) {
        AdaptiveMutex::set_waiting_policy(self, policy);
    }

    fn algorithm(&self) -> LockAlgorithm {
        AdaptiveMutex::algorithm(self)
    }

    fn set_algorithm(&self, algo: LockAlgorithm) -> bool {
        AdaptiveMutex::set_algorithm(self, algo);
        true
    }
}

/// One `health` line for a target: compact `key=value` pairs.
pub(crate) fn health_line(name: &str, state: &str, t: &dyn ControlTarget) -> String {
    let h = t.health();
    format!(
        "{name} state={state} algo={algo} policy={policy} sample_every={sample_every} \
         waiting={waiting} acq={acq} handoffs={handoffs} locked={locked} poisoned={poisoned} \
         quarantined={quarantined} policy_panics={panics}",
        algo = t.algorithm().label(),
        policy = t.waiting_policy().descriptor(),
        sample_every = h.sample_period,
        waiting = h.waiting,
        acq = h.acquisitions,
        handoffs = h.handoffs,
        locked = h.locked,
        poisoned = h.poisoned,
        quarantined = h.quarantined,
        panics = h.policy_panics,
    )
}

/// Parse a `retune` attribute assignment onto an existing policy.
pub(crate) fn retune(
    mut policy: NativeWaitingPolicy,
    attr: &str,
    value: &str,
) -> Result<NativeWaitingPolicy, String> {
    match attr {
        "spin" => {
            policy.spin = if value == "forever" {
                adaptive_native::SPIN_FOREVER
            } else {
                value.parse().map_err(|_| format!("bad spin count {value:?}"))?
            };
        }
        "delay" => {
            policy.delay = value.parse().map_err(|_| format!("bad delay {value:?}"))?;
        }
        "timeout" => {
            policy.timeout = if value == "none" {
                None
            } else {
                let nanos: u64 =
                    value.parse().map_err(|_| format!("bad timeout nanos {value:?}"))?;
                Some(Duration::from_nanos(nanos))
            };
        }
        other => return Err(format!("unknown attribute {other:?} (spin|delay|timeout)")),
    }
    Ok(policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_mutex_satisfies_the_trait_type_erased() {
        let m = std::sync::Arc::new(AdaptiveMutex::new(vec![1u8, 2, 3]));
        let t: std::sync::Arc<dyn ControlTarget> = m.clone();
        assert!(!t.health().locked);
        t.set_waiting_policy(NativeWaitingPolicy::pure_spin());
        assert_eq!(m.waiting_policy(), NativeWaitingPolicy::pure_spin());
        assert!(t.set_algorithm(LockAlgorithm::Ticket));
        assert_eq!(t.algorithm(), LockAlgorithm::Ticket);
        t.quarantine();
        assert!(t.health().quarantined);
        assert!(t.heal());
        assert!(!t.health().quarantined);
        assert!(t.nudge());
        assert!(t.stats().acquisitions >= 1);
    }

    #[test]
    fn retune_edits_one_attribute_at_a_time() {
        let base = NativeWaitingPolicy::combined(32);
        let p = retune(base, "spin", "128").unwrap();
        assert_eq!(p.spin, 128);
        assert_eq!(p.delay, base.delay);
        let p = retune(p, "spin", "forever").unwrap();
        assert_eq!(p.spin, adaptive_native::SPIN_FOREVER);
        let p = retune(p, "delay", "16").unwrap();
        assert_eq!(p.delay, 16);
        let p = retune(p, "timeout", "5000").unwrap();
        assert_eq!(p.timeout, Some(Duration::from_nanos(5000)));
        let p = retune(p, "timeout", "none").unwrap();
        assert_eq!(p.timeout, None);
        assert!(retune(p, "spin", "soon").is_err());
        assert!(retune(p, "jitter", "1").is_err());
    }
}

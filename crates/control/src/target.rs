//! The control plane's view of a lock.
//!
//! [`ControlTarget`] is the one surface a supervisor sees: the breaker
//! hub reads its health frames and quarantines, nudges and heals it;
//! operator commands also read and write its live attributes through
//! one table with an owner per attribute group, and clear its poison.
//! It is value-type-erased and implemented for every
//! `AdaptiveMutex<T: Send>` (and, in `asyncx`, the async mutex), so any
//! lock in the program can be registered by name without the registry
//! caring what it guards. Both mutexes embed the same [`Adaptation`],
//! which answers every method a lock does not answer itself.

use adaptive_native::{
    Adaptation, AdaptiveMutex, AttrGroup, LockAlgorithm, LockHealth, MutexStats,
};

/// A named lock the control plane can observe and reconfigure live.
pub trait ControlTarget: Send + Sync {
    /// The lock's adaptive half.
    fn adaptation(&self) -> &Adaptation;

    /// Snapshot liveness health (the frame the breaker hub polls).
    fn health(&self) -> LockHealth;

    /// Snapshot the full striped statistics.
    fn stats(&self) -> MutexStats;

    /// Snap to the safe endpoint: pure blocking, adaptation disabled
    /// with exponential backoff. Writes through any owner.
    fn quarantine(&self);

    /// End a quarantine immediately (adaptation restarts on probation).
    /// Returns whether one was in force.
    fn heal(&self) -> bool {
        self.adaptation().heal()
    }

    /// Try-lock acquire/release to re-run the contended release path,
    /// rescuing lost wakeups. Returns whether the nudge ran.
    fn nudge(&self) -> bool;

    /// Clear the poison flag. Returns whether it was set.
    fn clear_poison(&self) -> bool {
        self.adaptation().clear_poison()
    }

    /// Every live attribute as a `(name, value, operator_owned)` row,
    /// the value spelled as [`ControlTarget::set`] reads it.
    fn attrs(&self) -> Vec<(&'static str, String, bool)> {
        self.adaptation().rows()
    }

    /// Write attribute `name` and take its group for the operator: the
    /// policy's decisions on the group are refused until
    /// [`ControlTarget::release`].
    fn set(&self, name: &str, value: &str) -> Result<(), String> {
        self.adaptation().set(name, value)
    }

    /// Hand the group of attribute `name`, or every group, back to the
    /// policy.
    fn release(&self, name: Option<&str>) {
        self.adaptation().release(name);
    }
}

/// The waiting group's rows plus the engine, which only the native
/// mutex has.
impl<T: Send> ControlTarget for AdaptiveMutex<T> {
    fn adaptation(&self) -> &Adaptation {
        AdaptiveMutex::adaptation(self)
    }

    fn health(&self) -> LockHealth {
        AdaptiveMutex::health(self)
    }

    fn stats(&self) -> MutexStats {
        AdaptiveMutex::stats(self)
    }

    fn quarantine(&self) {
        AdaptiveMutex::quarantine(self);
    }

    fn nudge(&self) -> bool {
        AdaptiveMutex::nudge(self)
    }

    fn attrs(&self) -> Vec<(&'static str, String, bool)> {
        let adaptation = self.adaptation();
        let mut rows = adaptation.rows();
        let algorithm = self.algorithm().label().to_string();
        rows.push(("algorithm", algorithm, adaptation.operator_owns(AttrGroup::Algorithm)));
        rows
    }

    fn set(&self, name: &str, value: &str) -> Result<(), String> {
        if name != "algorithm" {
            return self.adaptation().set(name, value);
        }
        let algo = LockAlgorithm::from_label(value).ok_or_else(|| {
            let labels = LockAlgorithm::ALL.map(LockAlgorithm::label).join("|");
            format!("unknown algorithm {value:?} (one of {labels})")
        })?;
        self.adaptation().set_operator_owns(AttrGroup::Algorithm, true);
        self.set_algorithm(algo);
        Ok(())
    }
}

/// One `health` line for a target: compact `key=value` pairs, a value
/// an operator owns marked `@operator`.
pub(crate) fn health_line(name: &str, state: &str, t: &dyn ControlTarget) -> String {
    let h = t.health();
    let attrs: String = t
        .attrs()
        .into_iter()
        .map(|(n, v, operator)| format!(" {n}={v}{}", if operator { "@operator" } else { "" }))
        .collect();
    format!(
        "{name} state={state}{attrs} sample_every={sample_every} waiting={waiting} acq={acq} \
         handoffs={handoffs} locked={locked} poisoned={poisoned} quarantined={quarantined} \
         policy_panics={panics}",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_mutex_satisfies_the_trait_type_erased() {
        let m = std::sync::Arc::new(AdaptiveMutex::new(vec![1u8, 2, 3]));
        let t: std::sync::Arc<dyn ControlTarget> = m.clone();
        assert!(!t.health().locked);
        t.set("algorithm", "ticket").unwrap();
        assert_eq!(m.algorithm(), LockAlgorithm::Ticket);
        let owns = |group| m.adaptation().operator_owns(group);
        assert!(owns(AttrGroup::Algorithm) && !owns(AttrGroup::Waiting));
        t.release(None);
        assert!(!owns(AttrGroup::Algorithm));
        t.quarantine();
        assert!(t.health().quarantined);
        assert!(t.heal());
        assert!(!t.health().quarantined);
        assert!(t.nudge());
        assert!(t.stats().acquisitions >= 1);
    }
}

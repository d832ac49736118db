//! The configuration space `C = Γ × Φ` (Section 3.1).
//!
//! A configuration pairs a *method-set implementation* `Γ_i` (e.g. which
//! lock scheduler is installed, named by a [`MethodSetId`]) with an
//! *attribute instance* `Φ_i` (the current values of the mutable
//! attributes, e.g. a lock's waiting policy). Reconfiguration (Ψ) moves
//! the object between configurations; [`TransitionLog`] records each
//! move, as a pair of descriptors, with its cost so experiments can
//! audit the adaptation trajectory.

use serde::{Deserialize, Serialize};

use crate::cost::{OpCost, OpKind};

/// Identifies one element of Γ — a concrete implementation of the
/// object's method set (e.g. `"fcfs"`, `"priority"`, `"handoff"` for a
/// lock's scheduler component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct MethodSetId(pub &'static str);

impl std::fmt::Display for MethodSetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// One recorded Ψ (or I) transition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transition {
    /// Virtual-time nanoseconds at which the transition happened (0 when
    /// unknown / outside a simulation).
    pub at_nanos: u64,
    /// Operation category (Ψ for reconfiguration, I for initialization).
    pub kind: OpKind,
    /// `C_pre` descriptor.
    pub from: String,
    /// `C_post` descriptor.
    pub to: String,
    /// `t = n1 R n2 W`.
    pub cost: OpCost,
}

/// An append-only log of configuration transitions.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TransitionLog {
    transitions: Vec<Transition>,
}

impl TransitionLog {
    /// An empty log.
    pub fn new() -> TransitionLog {
        TransitionLog::default()
    }

    /// Record a transition.
    pub fn record(
        &mut self,
        at_nanos: u64,
        kind: OpKind,
        from: impl Into<String>,
        to: impl Into<String>,
        cost: OpCost,
    ) {
        self.transitions.push(Transition {
            at_nanos,
            kind,
            from: from.into(),
            to: to.into(),
            cost,
        });
    }

    /// All transitions, in order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Total reconfiguration cost accrued (sum rule for complex
    /// reconfigurations).
    pub fn total_cost(&self) -> OpCost {
        self.transitions
            .iter()
            .fold(OpCost::ZERO, |a, t| a + t.cost)
    }

    /// Number of transitions of a given kind.
    pub fn count_of(&self, kind: OpKind) -> usize {
        self.transitions.iter().filter(|t| t.kind == kind).count()
    }

    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_log_accumulates() {
        let mut log = TransitionLog::new();
        log.record(0, OpKind::Initialization, "-", "fcfs{spin=10}", OpCost::new(0, 4));
        log.record(
            100,
            OpKind::Reconfiguration,
            "fcfs{spin=10}",
            "fcfs{spin=0}",
            OpCost::new(1, 1),
        );
        log.record(
            250,
            OpKind::Reconfiguration,
            "fcfs{spin=0}",
            "handoff{spin=0}",
            OpCost::new(0, 5),
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log.count_of(OpKind::Reconfiguration), 2);
        assert_eq!(log.total_cost(), OpCost::new(1, 10));
        assert_eq!(log.transitions()[1].to, "fcfs{spin=0}");
        assert!(!log.is_empty());
    }
}

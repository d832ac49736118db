//! The paper's operation cost model.
//!
//! Section 3.1 expresses the cost of every state-transition (Υ),
//! reconfiguration (Ψ), and initialization (I) operation as
//! `t = n1 R n2 W` — a count of memory reads and writes. [`OpCost`]
//! carries that pair and adds, so the cost of a *complex*
//! reconfiguration ("obtained by adding costs of the individual
//! operations") falls out by summation, as
//! [`TransitionLog::total_cost`](crate::TransitionLog::total_cost) does.

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Cost of one primitive operation in memory reads and writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCost {
    /// `n1`: number of memory reads.
    pub reads: u64,
    /// `n2`: number of memory writes.
    pub writes: u64,
}

impl OpCost {
    /// Zero cost.
    pub const ZERO: OpCost = OpCost { reads: 0, writes: 0 };

    /// `n1 R n2 W`.
    pub const fn new(reads: u64, writes: u64) -> OpCost {
        OpCost { reads, writes }
    }

    /// A pure-read cost.
    pub const fn reads(n: u64) -> OpCost {
        OpCost { reads: n, writes: 0 }
    }

    /// A pure-write cost.
    pub const fn writes(n: u64) -> OpCost {
        OpCost { reads: 0, writes: n }
    }

    /// Total memory operations.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl Add for OpCost {
    type Output = OpCost;
    fn add(self, r: OpCost) -> OpCost {
        OpCost {
            reads: self.reads + r.reads,
            writes: self.writes + r.writes,
        }
    }
}

impl AddAssign for OpCost {
    fn add_assign(&mut self, r: OpCost) {
        self.reads += r.reads;
        self.writes += r.writes;
    }
}

impl std::fmt::Display for OpCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}R {}W", self.reads, self.writes)
    }
}

/// Which of the paper's three configurable-method categories an operation
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Υ — a state-transition operation on the internal state `IV`.
    StateTransition,
    /// Ψ — a reconfiguration operation on the configuration `C = Γ × Φ`.
    Reconfiguration,
    /// I — an initialization operation.
    Initialization,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpKind::StateTransition => "Υ",
            OpKind::Reconfiguration => "Ψ",
            OpKind::Initialization => "I",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_algebra() {
        let a = OpCost::new(1, 2);
        let b = OpCost::reads(3) + OpCost::writes(1);
        assert_eq!(a + b, OpCost::new(4, 3));
        assert_eq!((a + b).total(), 7);
        assert_eq!(format!("{}", a), "1R 2W");
    }

    #[test]
    fn opkind_display_is_greek() {
        assert_eq!(format!("{}", OpKind::StateTransition), "Υ");
        assert_eq!(format!("{}", OpKind::Reconfiguration), "Ψ");
        assert_eq!(format!("{}", OpKind::Initialization), "I");
    }
}

//! # adaptive-core
//!
//! The adaptive-object model of *"Improving Performance by Use of
//! Adaptive Objects"* (Mukherjee & Schwan, 1993), as a reusable Rust
//! library.
//!
//! The paper classifies objects into three kinds:
//!
//! * **non-configurable** — plain encapsulated state and methods;
//! * **reconfigurable** — the implementation of methods can be swapped at
//!   run time behind an immutable interface, steered by *mutable
//!   attributes* whose ownership is held per usage group: whoever holds
//!   a group (the object's own policy, or an external agent that
//!   acquired it) is the only one that may change it;
//! * **adaptive** — a reconfigurable object plus a built-in *monitor*
//!   (a sensor read inline, at a rate set by a [`SamplingGate`] or by
//!   the loop's own period) and a user-provided *adaptation policy*
//!   ([`AdaptationPolicy`]), wired into a closely-coupled feedback loop
//!   `M --v_i--> P --d_c--> Ψ` — [`GuardedLoop`], one kernel for the
//!   simulated lock, real threads and tasks alike.
//!
//! The decision rules policies share are written once: the paper's
//! `simple-adapt` spin ladder ([`SpinLadder`]) and a two-state switch
//! with hysteresis ([`Hysteresis`]).
//!
//! Costs follow the paper's `t = n1 R n2 W` formalism ([`OpCost`]), and
//! every reconfiguration can be audited through a [`TransitionLog`].
//!
//! This crate is platform-agnostic: the `adaptive-locks` crate
//! instantiates the model for multiprocessor locks on the Butterfly
//! simulator, and `adaptive-native` instantiates it for real threads.
//!
//! ```
//! use adaptive_core::{AdaptationPolicy, GuardedLoop, Sampled, SamplingGate};
//!
//! // The paper's simple-adapt policy shape: observe waiting threads,
//! // decide a new spin count.
//! struct SimpleAdapt { spins: i64 }
//! impl AdaptationPolicy<u32> for SimpleAdapt {
//!     type Decision = i64;
//!     fn decide(&mut self, waiting: u32) -> Option<i64> {
//!         self.spins = if waiting == 0 { 100 } else { self.spins - 10 };
//!         Some(self.spins.max(0))
//!     }
//! }
//!
//! let gate = SamplingGate::every(2); // sample every other unlock
//! let feedback = GuardedLoop::new(SimpleAdapt { spins: 50 });
//! let mut spin_attr = 50i64;
//! for unlock in 0..4u32 {
//!     if gate.tick() {
//!         let outcome = feedback.sample(
//!             || unlock % 2,
//!             |new_spins| std::mem::replace(&mut spin_attr, new_spins) != new_spins,
//!         );
//!         assert_eq!(outcome, Sampled::Decided);
//!     }
//! }
//! assert_eq!((gate.samples(), spin_attr), (2, 100));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod config_space;
mod cost;
mod guarded;
mod monitor;
mod policy;
mod rules;

pub use config_space::{MethodSetId, Transition, TransitionLog};
pub use cost::{OpCost, OpKind};
pub use guarded::{
    GuardedLoop, Sampled, PROBATION_DECIDES, QUARANTINE_BASE_TICKS, QUARANTINE_MAX_SHIFT,
    SAMPLE_PERIOD_CEILING, SAMPLE_PERIOD_FLOOR,
};
pub use monitor::SamplingGate;
pub use policy::{AdaptationPolicy, FnPolicy};
pub use rules::{Hysteresis, SpinLadder, SpinStep};

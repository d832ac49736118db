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
//!   attributes* ([`AttrSet`]) with explicit mutability and ownership
//!   rules;
//! * **adaptive** — a reconfigurable object plus a built-in *monitor*
//!   ([`Sensor`], [`SamplingGate`]) and a user-provided *adaptation
//!   policy* ([`AdaptationPolicy`]), wired into a feedback loop
//!   ([`FeedbackLoop`]): `M --v_i--> P --d_c--> Ψ` — hardened for real
//!   threads and tasks as [`GuardedLoop`].
//!
//! Costs follow the paper's `t = n1 R n2 W` formalism ([`OpCost`]), and
//! every reconfiguration can be audited through a [`TransitionLog`].
//!
//! This crate is platform-agnostic: the `adaptive-locks` crate
//! instantiates the model for multiprocessor locks on the Butterfly
//! simulator, and `adaptive-native` instantiates it for real threads.
//!
//! ```
//! use adaptive_core::{AdaptationPolicy, FeedbackLoop, SamplingGate};
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
//! let mut feedback = FeedbackLoop::new(SimpleAdapt { spins: 50 });
//! let mut spin_attr = 50i64;
//! for unlock in 0..4u32 {
//!     if gate.tick() {
//!         feedback.step(unlock % 2, |new_spins| spin_attr = new_spins);
//!     }
//! }
//! assert_eq!(feedback.stats().observations, 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod attrs;
mod config_space;
mod cost;
mod feedback;
mod guarded;
mod monitor;
mod policy;

pub use attrs::{AttrError, AttrName, AttrSet, AttrValue, OwnerId};
pub use config_space::{Configuration, MethodSetId, Transition, TransitionLog};
pub use cost::{CostLog, CostRecord, OpCost, OpKind};
pub use feedback::{FeedbackLoop, LaggedLoop, LoopStats};
pub use guarded::{
    GuardedLoop, Sampled, PROBATION_DECIDES, QUARANTINE_BASE_TICKS, QUARANTINE_MAX_SHIFT,
    SAMPLE_PERIOD_CEILING, SAMPLE_PERIOD_FLOOR,
};
pub use monitor::{FnSensor, MonitorStats, SampleGate, SamplingGate, Sensor};
pub use policy::{AdaptationPolicy, FnPolicy, NullPolicy};

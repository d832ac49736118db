//! # adaptive-control
//!
//! The runtime control plane for the native lock stack: the part the
//! paper leaves to the *program* (reconfiguration decided by policies
//! compiled into the object) made *operator-driven* for a production
//! system.
//!
//! Three layers:
//!
//! * **Lifecycle** ([`breaker`], [`hub`]) — every registered lock is
//!   supervised by a circuit breaker, `Closed → Suspect → Quarantined →
//!   HalfOpen → Healed`, driven by the findings the hub reads off
//!   consecutive health frames (stalls, poisonings, repeated policy
//!   panics) with exponential hysteresis on re-open. The machine is
//!   pure and property-tested; the [`BreakerHub`] applies its decisions
//!   to the live locks and logs every edge as a structured
//!   [`BreakerEvent`].
//! * **Commands** ([`plane`], [`socket`]) — a line-oriented router
//!   (`get`, `set`, `release`, `quarantine`, `heal`, `health`,
//!   `snapshot`, …) over a local Unix socket or from any thread: `set`
//!   takes an attribute's group from the lock's policy until `release`,
//!   writing through the live-reconfiguration paths the policies use.
//! * **Telemetry** — [`ControlPlane::snapshot`] renders the whole
//!   registry as Prometheus-style text (via
//!   [`thread_monitor::TextSnapshot`]), each breaker's state among its
//!   gauges, and [`BreakerHub::events`] returns the lifecycle's edge log.
//!
//! The chaos soak harness exercising all of this under seeded fault
//! storms lives in `workloads::soak`; `tests/control_soak.rs` drives
//! it, and `tests/operator_playbook.rs` drives an operator against a
//! live store.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![deny(unsafe_code)]

pub mod breaker;
pub mod hub;
pub mod plane;
#[cfg(unix)]
pub mod socket;
mod target;

pub use breaker::{
    validate_chain, Breaker, BreakerAction, BreakerConfig, BreakerState, BreakerStep, Finding,
    Transition,
};
pub use hub::{validate_events, BreakerEvent, BreakerHub, HubHandle};
pub use plane::ControlPlane;
#[cfg(unix)]
pub use socket::{SocketClient, SocketServer};
pub use target::ControlTarget;

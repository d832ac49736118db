//! # workloads
//!
//! Synthetic lock workloads and micro-measurements behind the paper's
//! evaluation:
//!
//! * [`csweep`] — the critical-section-length sweep of **Figure 1**
//!   (pure spin vs pure blocking vs combined(1)/(10)/(50));
//! * [`cycle`] — the locking-cycle (unlock→lock on a busy lock)
//!   measurement of **Tables 6 and 7**;
//! * [`measure`] — uncontended lock/unlock latencies (**Tables 4/5**)
//!   and configuration-operation costs (**Table 8**), local vs remote;
//! * [`clientserver`] — the FCFS vs Priority vs Handoff scheduler
//!   comparison recalled from \[MS93\] in Section 2;
//! * [`phased`] — a phase-changing pattern demonstrating when adaptation
//!   pays;
//! * [`backend`] — backend-neutral contention workloads: the same spec
//!   runs on the butterfly simulator or on real OS threads, with
//!   per-thread op/latency accounting behind every row;
//! * [`fairness`] — the dlock2-style imbalance suite: two critical-
//!   section groups, a non-critical-section length sweep, and Jain's
//!   fairness index + per-thread throughput spread per row;
//! * [`structures`] — real-data-structure workloads (lock-protected
//!   counter vs lock-free CAS, queue, hashmap) under every policy;
//! * [`soak`] — the chaos soak: contention under a seeded fault storm
//!   with live control-plane traffic, graded against conservation,
//!   breaker-lifecycle, and quiescence oracles.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used)]

pub mod backend;
pub mod clientserver;
pub mod crossover;
pub mod csweep;
pub mod cycle;
pub mod fairness;
pub mod measure;
pub mod phased;
pub mod soak;
pub mod spec;
pub mod structures;

pub use backend::{
    run_contention, sim_lock_spec, Backend, ContentionPoint, ContentionSpec, ThreadSample,
};
pub use fairness::{jains_index, run_fairness, FairnessPoint, FairnessSpec};
pub use structures::{run_structure, StructureKind, StructurePoint, StructureSpec};
pub use clientserver::{run_all_schedulers, run_client_server, ClientServerConfig, ClientServerResult};
pub use crossover::{find_crossover, Crossover};
pub use csweep::{figure1_locks, run_once, run_sweep, SweepConfig, SweepPoint};
pub use cycle::{measure_cycle, measure_cycle_on};
pub use measure::{
    atomior_cost, config_op_costs, config_op_rw_costs, lock_unlock_cost, LatencyHistogram,
};
pub use phased::{compare_phased, run_phased, PhasedConfig, PhasedResult};
pub use soak::{run_soak, SoakResult, SoakSpec, StallEpisode};
pub use spec::LockSpec;

//! # tsp-app
//!
//! The paper's application study (Section 4): the LMSK branch-and-bound
//! Travelling Sales Person program as a collection of cooperating
//! searcher threads on the Butterfly simulator, in the three
//! shared-abstraction structures the paper compares:
//!
//! * [`Variant::Centralized`] — global work queue + global best tour;
//! * [`Variant::Distributed`] — per-processor queues in a ring +
//!   per-processor best-tour copies;
//! * [`Variant::Balanced`] — distributed + load balancing of the work
//!   queues.
//!
//! Each implementation synchronizes through the paper's four locks
//! (`qlock`, `glob-act-lock`, `glob-low-lock`, `globlock`), whose
//! implementation ([`LockImpl`]) is the experiments' independent
//! variable: blocking vs adaptive locks (Tables 1–3), with locking
//! patterns traced for Figures 4–9.
//!
//! ```
//! use butterfly_sim::{self as sim, SimConfig};
//! use tsp_app::{solve_parallel, LockImpl, TspConfig, TspInstance, Variant};
//!
//! let inst = TspInstance::random_symmetric(8, 100, 42);
//! let oracle = inst.held_karp();
//! let (res, _) = sim::run(SimConfig::butterfly(4), move || {
//!     solve_parallel(&inst, Variant::Centralized, TspConfig {
//!         searchers: 4,
//!         lock_impl: LockImpl::Adaptive { threshold: 3, n: 5 },
//!         ..TspConfig::default()
//!     })
//! })
//! .unwrap();
//! assert_eq!(res.best, oracle);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

mod instance;
mod lmsk;
mod native;
mod shared;
mod solver;

pub use instance::{TspInstance, INF};
pub use lmsk::{is_single_cycle, solve_sequential, Expansion, SearchStats, SubProblem};
pub use native::{solve_native, NativeResult, NativeTspConfig, NativeVariant, RetunePlan};
pub use shared::{ActiveCounter, BestTour, LockImpl, WorkQueue};
pub use solver::{solve_parallel, solve_sequential_timed, ParallelResult, TspConfig, Variant};

//! Machine configuration: processor count, scheduling costs, and the NUMA
//! memory cost model.
//!
//! The defaults are calibrated to be *GP1000-shaped*: a local memory
//! reference costs ~600 ns, a remote (through-the-switch) reference about
//! 6-7x that, and a context switch in the user-level thread package is a
//! couple of orders of magnitude more expensive than a memory reference.
//! Absolute values are not meant to match the paper's tables; orderings
//! and ratios are.

use crate::time::Duration;
use crate::topology::Topology;

/// Identifies a processor. On the simulated Butterfly each processor sits
/// on its own node together with one memory module, so a `ProcId` is also
/// a node id for memory-placement purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// Identifies a memory node (one memory module per processor node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl ProcId {
    /// The memory node co-located with this processor.
    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Cost model for references to the simulated NUMA memory.
///
/// The BBN Butterfly GP1000 connects 1..=256 nodes through a multistage
/// ("butterfly") switch; references to a non-local memory module traverse
/// the switch and cost several times a local reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryParams {
    /// Cost of a read from the local node's memory module.
    pub local_read: Duration,
    /// Cost of a write to the local node's memory module.
    pub local_write: Duration,
    /// Cost of a read from a remote memory module.
    pub remote_read: Duration,
    /// Cost of a write to a remote memory module.
    pub remote_write: Duration,
    /// Extra cost of an atomic read-modify-write (the Butterfly's
    /// `atomior` and friends lock the memory module for the duration),
    /// added on top of one read plus one write.
    pub rmw_extra: Duration,
}

impl Default for MemoryParams {
    fn default() -> Self {
        MemoryParams {
            local_read: Duration::nanos(600),
            local_write: Duration::nanos(600),
            remote_read: Duration::nanos(4_000),
            remote_write: Duration::nanos(4_000),
            rmw_extra: Duration::nanos(400),
        }
    }
}

impl MemoryParams {
    /// Cost of a read issued from `from` against memory homed at `home`.
    #[inline]
    pub fn read_cost(&self, from: NodeId, home: NodeId) -> Duration {
        if from == home {
            self.local_read
        } else {
            self.remote_read
        }
    }

    /// Cost of a write issued from `from` against memory homed at `home`.
    #[inline]
    pub fn write_cost(&self, from: NodeId, home: NodeId) -> Duration {
        if from == home {
            self.local_write
        } else {
            self.remote_write
        }
    }

    /// Cost of an atomic read-modify-write from `from` against `home`.
    #[inline]
    pub fn rmw_cost(&self, from: NodeId, home: NodeId) -> Duration {
        self.read_cost(from, home) + self.write_cost(from, home) + self.rmw_extra
    }

    /// A uniform-memory variant (UMA), useful for ablations that ask how
    /// much of an effect is due to NUMA-ness.
    pub fn uniform(access: Duration) -> MemoryParams {
        MemoryParams {
            local_read: access,
            local_write: access,
            remote_read: access,
            remote_write: access,
            rmw_extra: Duration::ZERO,
        }
    }
}

/// Schedule-noise parameters for the exploration harness
/// ([`crate::explore`](mod@crate::explore)).
///
/// When attached to a [`SimConfig`], the engine perturbs its scheduling
/// decisions using a dedicated deterministic random stream seeded from
/// `seed`:
///
/// * **forced preemptions** — at any simulator call (timed work, memory
///   reference, spawn) the running thread may be preempted even though
///   its quantum has not expired, exercising every instruction boundary
///   the simulator can observe;
/// * **ready-queue reordering** — a thread becoming ready may jump to
///   the *front* of its processor's run queue instead of the back,
///   randomizing dispatch order;
/// * **bounded wake delays** — sleep timers and park timeouts may fire
///   up to `max_delay` late, modelling timer/interrupt jitter.
///
/// The workload-visible random stream ([`crate::ctx::rand_u64`], seeded
/// from [`SimConfig::seed`]) is *not* affected, so the same workload
/// decisions replay under a different interleaving. Runs remain
/// bit-for-bit deterministic: the same `SimConfig` (including this
/// seed) always produces the same schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleNoise {
    /// Seed of the noise stream (independent of [`SimConfig::seed`]).
    pub seed: u64,
    /// Probability, in parts per million per simulator call, of a
    /// forced preemption.
    pub preempt_ppm: u32,
    /// Probability, in ppm per ready transition, that the thread jumps
    /// the run queue.
    pub reorder_ppm: u32,
    /// Probability, in ppm per timer, that a wake is delivered late.
    pub delay_ppm: u32,
    /// Upper bound on the injected wake delay.
    pub max_delay: Duration,
}

impl Default for ScheduleNoise {
    /// Moderate rates that meaningfully shuffle schedules without
    /// drowning runs in context switches; seed 0 (callers normally
    /// override it per schedule).
    fn default() -> Self {
        ScheduleNoise {
            seed: 0,
            preempt_ppm: 50_000,  // ~1 in 20 simulator calls
            reorder_ppm: 250_000, // ~1 in 4 ready transitions
            delay_ppm: 100_000,   // ~1 in 10 timers
            max_delay: Duration::micros(200),
        }
    }
}

impl ScheduleNoise {
    /// Default rates with an explicit seed.
    pub fn from_seed(seed: u64) -> ScheduleNoise {
        ScheduleNoise {
            seed,
            ..ScheduleNoise::default()
        }
    }

    fn validate(&self) {
        for (name, ppm) in [
            ("preempt_ppm", self.preempt_ppm),
            ("reorder_ppm", self.reorder_ppm),
            ("delay_ppm", self.delay_ppm),
        ] {
            assert!(
                ppm <= 1_000_000,
                "ScheduleNoise: {name} = {ppm} exceeds 1_000_000 (a probability in ppm)"
            );
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processors (== number of memory nodes).
    pub processors: usize,
    /// Cost charged whenever a processor switches from one thread to
    /// another (dispatch latency of the user-level thread package).
    pub context_switch: Duration,
    /// Cost charged to a thread for creating another thread.
    pub thread_create: Duration,
    /// Scheduling quantum. A thread that has run for at least this long
    /// is preempted at its next simulator call *if* other threads are
    /// ready on its processor. `None` disables preemption (the paper's
    /// TSP runs use one thread per processor, where it never triggers).
    pub quantum: Option<Duration>,
    /// NUMA memory cost model.
    pub memory: MemoryParams,
    /// Interconnect model: adds distance-dependent latency to remote
    /// references beyond the flat remote base cost.
    pub topology: Topology,
    /// Occupancy of a memory module per reference: while one reference
    /// is in flight, others to the same module queue behind it
    /// (hot-spot contention). Zero disables module queueing.
    pub module_occupancy: Duration,
    /// Seed recorded in the report; used by workloads for deterministic
    /// pseudo-randomness.
    pub seed: u64,
    /// Optional schedule perturbation for race exploration (see
    /// [`ScheduleNoise`] and [`crate::explore`](fn@crate::explore)).
    /// `None` (the default) keeps the canonical deterministic schedule.
    pub schedule_noise: Option<ScheduleNoise>,
    /// Record every scheduling decision (dispatches, preemptions, ready
    /// transitions) into [`crate::SimReport::schedule`]. Off by default;
    /// intended for diffing the interleavings two noise seeds produce.
    pub record_schedule: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            processors: 10,
            context_switch: Duration::micros(15),
            thread_create: Duration::micros(150),
            quantum: Some(Duration::millis(10)),
            memory: MemoryParams::default(),
            topology: Topology::Flat,
            module_occupancy: Duration::ZERO,
            seed: 0x5eed_1993,
            schedule_noise: None,
            record_schedule: false,
        }
    }
}

impl SimConfig {
    /// Configuration resembling the paper's testbed: a 32-node Butterfly
    /// GP1000 (use [`SimConfig::processors`] to restrict to the 10-node
    /// partition the TSP experiments ran on).
    pub fn butterfly(processors: usize) -> SimConfig {
        SimConfig {
            processors,
            ..SimConfig::default()
        }
    }

    /// Validates the configuration, panicking with a descriptive message
    /// on nonsense values. Called by the engine at startup.
    pub fn validate(&self) {
        assert!(self.processors > 0, "SimConfig: need at least 1 processor");
        assert!(
            self.processors <= 4096,
            "SimConfig: {} processors is beyond any Butterfly configuration",
            self.processors
        );
        if let Some(q) = self.quantum {
            assert!(q > Duration::ZERO, "SimConfig: zero quantum would livelock");
        }
        if let Some(noise) = &self.schedule_noise {
            noise.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_vs_remote_costs() {
        let m = MemoryParams::default();
        let here = NodeId(0);
        let there = NodeId(3);
        assert!(m.read_cost(here, there) > m.read_cost(here, here));
        assert!(m.write_cost(here, there) > m.write_cost(here, here));
        assert!(m.rmw_cost(here, here) > m.read_cost(here, here) + m.write_cost(here, here) - Duration(1));
    }

    #[test]
    fn uniform_memory_has_no_numa_penalty() {
        let m = MemoryParams::uniform(Duration::nanos(100));
        assert_eq!(m.read_cost(NodeId(0), NodeId(5)), m.read_cost(NodeId(0), NodeId(0)));
        assert_eq!(m.rmw_cost(NodeId(1), NodeId(2)), Duration::nanos(200));
    }

    #[test]
    fn proc_node_colocation() {
        assert_eq!(ProcId(7).node(), NodeId(7));
        assert_eq!(format!("{}", ProcId(7)), "P7");
        assert_eq!(format!("{}", NodeId(7)), "N7");
    }

    #[test]
    #[should_panic(expected = "at least 1 processor")]
    fn zero_processors_rejected() {
        SimConfig {
            processors: 0,
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "exceeds 1_000_000")]
    fn overrange_noise_probability_rejected() {
        SimConfig {
            schedule_noise: Some(ScheduleNoise {
                preempt_ppm: 1_000_001,
                ..ScheduleNoise::default()
            }),
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    fn noise_seed_constructor_keeps_default_rates() {
        let n = ScheduleNoise::from_seed(42);
        assert_eq!(n.seed, 42);
        assert_eq!(n.preempt_ppm, ScheduleNoise::default().preempt_ppm);
        SimConfig {
            schedule_noise: Some(n),
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "zero quantum")]
    fn zero_quantum_rejected() {
        SimConfig {
            quantum: Some(Duration::ZERO),
            ..SimConfig::default()
        }
        .validate();
    }
}

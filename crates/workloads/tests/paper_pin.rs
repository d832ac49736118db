//! The simulated paper numbers are pinned: the Table 8 mechanism costs,
//! the `n1 R n2 W` costs of the two configure operations, one phased
//! comparison, and the whole transition log of one scripted adaptive
//! lock under each of the two simulated policies. Virtual time is
//! deterministic, so a refactor of the feedback kernel or of attribute
//! ownership that moves a charge or a decision shows here as a changed
//! number, not as a hand diff of bench output.

use std::sync::Arc;

use adaptive_locks::{
    with_lock, AdaptiveLock, BoxedLockPolicy, Lock, LockCosts, SchedKind, SchedulerAdapt,
    SimpleAdapt, WaitingPolicy,
};
use butterfly_sim::{self as sim, ctx, Duration, NodeId, ProcId, SimConfig};
use cthreads::fork_join_all;
use workloads::{config_op_costs, config_op_rw_costs, run_phased, LockSpec, PhasedConfig};

fn nanos(costs: (Duration, Duration, Duration, Duration)) -> [u64; 4] {
    [costs.0.as_nanos(), costs.1.as_nanos(), costs.2.as_nanos(), costs.3.as_nanos()]
}

#[test]
fn table8_mechanism_costs_at_a_local_and_a_remote_home() {
    // (acquisition, configure waiting policy, configure scheduler,
    // monitor one state variable), in virtual ns.
    assert_eq!(nanos(config_op_costs(NodeId(0))), PIN_TABLE8_LOCAL);
    assert_eq!(nanos(config_op_costs(NodeId(2))), PIN_TABLE8_REMOTE);
}

#[test]
fn configure_operations_cost_the_papers_reads_and_writes() {
    let (policy, scheduler) = config_op_rw_costs();
    assert_eq!([policy.to_string(), scheduler.to_string()], ["1R 1W", "0R 5W"]);
}

#[test]
fn phased_comparison_adaptive_time_and_reconfigurations() {
    let r = run_phased(&PhasedConfig::default(), LockSpec::Adaptive { threshold: 2, n: 5 });
    assert_eq!((r.total_nanos, r.reconfigurations), PIN_PHASED);
}

/// Every transition of one scripted run: `threads` sim-threads, each
/// taking the lock `iters` times around a `cs` critical section, the
/// lock sampling every `sample_every`-th unlock.
fn scripted_log(
    initial: WaitingPolicy,
    policy: fn() -> BoxedLockPolicy,
    sample_every: u64,
    threads: usize,
    iters: u32,
    cs: Duration,
) -> Vec<String> {
    let (log, _) = sim::run(SimConfig::butterfly(threads), move || {
        let lock = Arc::new(AdaptiveLock::with_parts(
            ctx::current_node(),
            initial,
            SchedKind::Fcfs,
            LockCosts::default(),
            policy(),
            sample_every,
        ));
        let procs: Vec<ProcId> = (0..threads).map(ProcId).collect();
        fork_join_all(&procs, "w", |_| {
            let lock = Arc::clone(&lock);
            move || {
                for _ in 0..iters {
                    with_lock(lock.as_ref(), || ctx::advance(cs));
                }
            }
        });
        assert_eq!(lock.stats().acquisitions, threads as u64 * u64::from(iters));
        lock.inner().transition_log()
    })
    .expect("scripted adaptive-lock run completes");
    log.transitions()
        .iter()
        .map(|t| format!("{} {} {} -> {} [{}]", t.at_nanos, t.kind, t.from, t.to, t.cost))
        .collect()
}

#[test]
fn simple_adapt_transition_log() {
    let log = scripted_log(
        WaitingPolicy::default(),
        || Box::new(SimpleAdapt::new(1, 5)),
        2,
        3,
        6,
        Duration::micros(300),
    );
    assert_eq!(log, PIN_SIMPLE_ADAPT);
}

#[test]
fn scheduler_adapt_transition_log() {
    let log = scripted_log(
        WaitingPolicy::pure_blocking(),
        || Box::new(SchedulerAdapt::new(2, 2)),
        1,
        4,
        6,
        Duration::micros(400),
    );
    assert_eq!(log, PIN_SCHEDULER_ADAPT);
}

// Recorded at `aaba1c5`, while the simulated adaptive lock still ran
// its own feedback loop behind a host mutex and `ReconfigurableLock`
// kept one owner per attribute name.

const PIN_TABLE8_LOCAL: [u64; 4] = [9_600, 4_200, 8_200, 10_600];
const PIN_TABLE8_REMOTE: [u64; 4] = [16_400, 11_000, 35_400, 14_000];
const PIN_PHASED: (u64, u64) = (112_011_600, 180);
const PIN_SIMPLE_ADAPT: &[&str] = &[
    "0 I - -> fcfs{combined(spin=10)} [0R 4W]",
    "561200 Ψ fcfs{combined(spin=10)} -> fcfs{blocking} [1R 1W]",
    "1236600 Ψ fcfs{blocking} -> fcfs{blocking} [1R 1W]",
    "1969800 Ψ fcfs{blocking} -> fcfs{combined(spin=10)} [1R 1W]",
    "2658800 Ψ fcfs{combined(spin=10)} -> fcfs{blocking} [1R 1W]",
    "3334200 Ψ fcfs{blocking} -> fcfs{blocking} [1R 1W]",
    "4067400 Ψ fcfs{blocking} -> fcfs{combined(spin=10)} [1R 1W]",
    "4756400 Ψ fcfs{combined(spin=10)} -> fcfs{blocking} [1R 1W]",
    "5431800 Ψ fcfs{blocking} -> fcfs{blocking} [1R 1W]",
    "6165000 Ψ fcfs{blocking} -> fcfs{spin} [1R 1W]",
];
const PIN_SCHEDULER_ADAPT: &[&str] = &[
    "0 I - -> fcfs{blocking} [0R 4W]",
    "1145400 Ψ fcfs{blocking} -> priority{blocking} [0R 5W]",
    "11035400 Ψ priority{blocking} -> fcfs{blocking} [0R 5W]",
];

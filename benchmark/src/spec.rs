//! The names `BENCHMARK.json` publishes. A test holds the two equal.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, so that a later change is
    /// held to its end-to-end figures. Two are not listed, because ten
    /// runs of them on the reference host do not agree with the next
    /// ten. `tcp-paced`: its median latency is the host's timer and
    /// wake-up latency (the server polls an idle connection every
    /// 500 us), which moved by 12 to 30 % between sets and severalfold
    /// straight after a compute-heavy workload. `async-duel`: its one
    /// busy thread runs at 910 k or at 750 k ops/s for minutes at a
    /// time, by the host's choosing, so a set's quartiles lay 10 or
    /// 23 % apart. Both run with the others and print the same report.
    pub listed: bool,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "lock-solo",
        why: "1 thread on a default AdaptiveMutex, fetch-and-multiply CS: only the lock fast path works, the waiting path is never entered",
        listed: true,
    },
    Workload {
        name: "lock-duel",
        why: "2 threads, same mutex, short CS and seeded 1-8 unit gaps: the waiting path (spin, park, handoff) and the feedback loop; a fast-path gain that taxes waiters shows here",
        listed: true,
    },
    Workload {
        name: "async-duel",
        why: "8 tasks on a 1-worker runtime, one AsyncAdaptiveMutex, CS spans a yield: asyncx.mutex and the asyncx.rt scheduler with no socket",
        listed: false,
    },
    Workload {
        name: "store-zipf",
        why: "in-process ShardedStore, 200k keys, 2 closed-loop threads over pre-generated Zipf 0.99 streams, 80% get: service and native::with_locked, no asyncx, so a reactor must not move it",
        listed: true,
    },
    Workload {
        name: "tcp-paced",
        why: "1-worker server with hub and plane, 2 connections open loop at 1000 req/s each: every request finds its connection idle, so asyncx.net's yield-then-sleep ladder is the latency",
        listed: false,
    },
    Workload {
        name: "tcp-closed",
        why: "same server without control, 2 connections closed loop, all incr on 64 hot keys: back-to-back requests caught in the yield window; a wake-up fix that taxes the busy path shows here",
        listed: true,
    },
    Workload {
        name: "tsp-central",
        why: "the paper's application: solve_native, centralized queue, 2 searchers, 16 relabelled 16-city instances checked against Held-Karp: lmsk compute with a contended qlock",
        listed: true,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

pub const PER_LAYER: [PerLayer; 69] = [
    // native: prices of single calls, then the duel's counters.
    lower("native.lock_unlock_ns", "ns"),
    lower("native.try_lock_ns", "ns"),
    lower("native.with_locked_ns", "ns"),
    lower("native.stats_ns", "ns"),
    lower("native.duel.contended_frac", "ratio"),
    lower("native.duel.parked_frac", "ratio"),
    lower("native.duel.handoffs_per_kop", "count"),
    lower("native.duel.reconfigs_per_kop", "count"),
    lower("native.duel.acquire_wait_p50_ns", "ns"),
    lower("native.duel.acquire_wait_p99_ns", "ns"),
    higher("native.duel.jain", "ratio"),
    // asyncx.mutex
    lower("asyncx.mutex.lock_unlock_ns", "ns"),
    lower("asyncx.mutex.duel.contended_frac", "ratio"),
    lower("asyncx.mutex.duel.polls_per_op", "count"),
    lower("asyncx.mutex.duel.parked_frac", "ratio"),
    lower("asyncx.mutex.duel.handoffs_per_kop", "count"),
    // asyncx.rt
    lower("asyncx.rt.yield_ns", "ns"),
    lower("asyncx.rt.spawn_join_ns", "ns"),
    lower("asyncx.rt.block_on_ns", "ns"),
    lower("asyncx.rt.sleep500_overshoot_us", "us"),
    // asyncx.net
    lower("asyncx.net.idle_wake_p50_us", "us"),
    lower("asyncx.net.busy_rtt_p50_us", "us"),
    lower("asyncx.net.slow_frac", "ratio"),
    lower("asyncx.net.residual_p50_us", "us"),
    lower("asyncx.net.cpu_ms_per_s", "ms/s"),
    lower("asyncx.net.idle_cpu_ms_per_s", "ms/s"),
    higher("asyncx.net.server_ops", "count"),
    lower("asyncx.net.server_errors", "count"),
    // service
    lower("service.router.slot_ns", "ns"),
    lower("service.store.get_ns", "ns"),
    lower("service.store.incr_ns", "ns"),
    lower("service.store.put_ns", "ns"),
    lower("service.store.total_us", "us"),
    lower("service.store.maintenance_us", "us"),
    lower("service.store.op_p50_ns", "ns"),
    lower("service.store.op_p99_ns", "ns"),
    lower("service.store.contended_frac", "ratio"),
    higher("service.store.combined_ops", "count"),
    lower("service.store.algorithm_switches", "count"),
    lower("service.store.splits", "count"),
    lower("service.store.shards_final", "count"),
    // control
    lower("control.execute_targets_us", "us"),
    lower("control.execute_health_us", "us"),
    lower("control.snapshot_us", "us"),
    lower("control.hub_poll_us", "us"),
    // tsp
    lower("tsp.seq_expand_ns", "ns"),
    lower("tsp.par_expansions", "count"),
    lower("tsp.wasted_expansion_frac", "ratio"),
    higher("tsp.speedup_vs_seq", "ratio"),
    lower("tsp.qlock.contended_frac", "ratio"),
    lower("tsp.qlock.parked_frac", "ratio"),
    lower("tsp.qlock.acq_per_expansion", "count"),
    lower("tsp.bestlock.contended_frac", "ratio"),
    // workloads: how much of each figure is the generator.
    lower("workloads.gen_ns", "ns"),
    lower("workloads.format_ns", "ns"),
    lower("workloads.late_p50_us", "us"),
    lower("workloads.late_p99_us", "us"),
    higher("workloads.achieved_rate_frac", "ratio"),
    // host: the floor the figures above can reach here.
    lower("host.std_mutex_ns", "ns"),
    lower("host.loopback_rtt_us", "us"),
    lower("host.clock_read_ns", "ns"),
    lower("host.load1", "count"),
    // trace
    lower("trace.overhead_frac", "ratio"),
    higher("trace.spans", "count"),
    // The issue's workload-specific headline figures, restated from
    // the end-to-end ones (see README).
    lower("ns_per_op", "ns"),
    lower("solve_s", "s"),
    lower("failed_frac", "ratio"),
    // Demoted from the end-to-end metrics: between ten runs on the
    // reference host its quartiles lie 40 to 170 % of the median apart
    // on `tcp-paced`, whatever the run length and slicing.
    lower("p99_us", "us"),
    lower("workloads.generator_frac", "ratio"),
];

/// The command the driver runs from the root of a checkout; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];
pub const PATHS: [&str; 1] = ["benchmark"];
pub const RUN_SECONDS: u32 = 20;

/// The text of `BENCHMARK.json`: `stack-benchmark spec` prints it and a
/// test holds the file at the root of the repo equal to it.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let rows = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        rows(WORKLOADS
            .iter()
            .filter(|w| w.listed)
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect()),
        rows(END_TO_END
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            ))
            .collect()),
        rows(PER_LAYER
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            ))
            .collect()),
    )
}

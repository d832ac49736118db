//! The repo's one benchmark. See README.md beside this crate.
//!
//! ```text
//! stack-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! stack-benchmark trace [--workload W] [--seed N] [--seconds S]
//! stack-benchmark agree [--sets 2] [--runs 3] [--seconds S] [--workload W]
//! stack-benchmark spec                      (prints BENCHMARK.json)
//! ```

mod agree;
mod async_duel;
mod host;
mod lock;
mod measure;
mod probes;
mod spec;
mod store;
mod tcp;
mod trace;
mod tsp;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use measure::Measured;

/// A run sets up in two batches, one before the timed region and one
/// after it; `setup_s` is the median of both. A batch is at least
/// `MIN_SETUPS` set-ups, and goes on until it has taken
/// `SETUP_BUDGET_S` or made `MAX_SETUPS`. On the reference host one
/// thread's speed moves by 40 % for a second or four at a time, about
/// a third of the time: set-ups taken in one second all sit on one side
/// of that, and the median of ten runs then moved by a third from one
/// set of runs to the next. Two batches 20 s apart rarely both do.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 12;
const SETUP_BUDGET_S: f64 = 1.0;
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;

/// Input sizes. `full` is what `BENCHMARK.json` is measured at;
/// `tiny` lets the tests cross every code path in a second.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub store_keys: usize,
    pub store_stream: usize,
    pub tcp_keys: u64,
    pub tcp_rate_per_conn: f64,
    pub tsp_cities: usize,
    /// Seeds of `TspInstance::random_euclidean` for the pool's base
    /// instances; see `tsp.rs` for how the full ones were chosen.
    pub tsp_base_seeds: &'static [u64],
    /// Scales the probes' batch sizes.
    pub probe_scale: f64,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            store_keys: 200_000,
            store_stream: 1 << 20,
            tcp_keys: 10_000,
            tcp_rate_per_conn: 1000.0,
            tsp_cities: 16,
            tsp_base_seeds: &[3, 10, 19, 24, 27, 29, 40, 54, 56, 59, 67, 70, 75, 76, 78, 82],
            probe_scale: 1.0,
        }
    }

    pub const fn tiny() -> Sizes {
        Sizes {
            store_keys: 2_000,
            store_stream: 1 << 12,
            tcp_keys: 100,
            tcp_rate_per_conn: 1000.0,
            tsp_cities: 10,
            tsp_base_seeds: &[0, 1],
            probe_scale: 0.02,
        }
    }
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub setup_s: f64,
    pub setups: usize,
    /// The tracing-off pass: the end-to-end figures come from here.
    pub plain: Measured,
    /// Per-layer metrics by name, from the traced pass and the probes;
    /// empty unless the run was traced.
    pub layer: BTreeMap<&'static str, f64>,
    pub trace_file: Option<std::path::PathBuf>,
}

impl Outcome {
    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "ops_per_s" => self.plain.ops_per_s.1,
            "p50_us" => self.plain.p50_us,
            "setup_s" => self.setup_s,
            other => unreachable!("no end-to-end metric {other}"),
        }
    }

    pub fn correct(&self) -> bool {
        self.plain.failed == 0
    }
}

/// One run of one workload: what to run and how.
struct Drive<'a> {
    workload: &'static str,
    seconds: f64,
    traced: bool,
    sizes: &'a Sizes,
}

impl Drive<'_> {
    /// The workload's headline figure as a time (lower is better); the
    /// relative difference between the traced and the plain pass in it
    /// is the tracing overhead.
    fn cost(&self, m: &Measured) -> f64 {
        match self.workload {
            "tcp-paced" => m.p50_us,
            _ => 1.0 / m.ops_per_s.1,
        }
    }

    /// Set up several times, run with tracing off and, if asked,
    /// again with spans on, then set up several times more. A traced
    /// run splits its time between the two passes and then takes the
    /// price list.
    fn go<I>(&self, setup: impl Fn() -> I, mut run: impl FnMut(&mut I, f64, bool) -> Measured) -> Outcome {
        let &Drive {
            workload,
            seconds,
            traced,
            sizes,
        } = self;
        let mut times = Vec::new();
        // One batch of set-ups; the last one's input is kept.
        let batch = |times: &mut Vec<f64>| {
            let (start, mut made, mut input) = (Instant::now(), 0, None);
            while made < MIN_SETUPS || (made < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_BUDGET_S) {
                drop(input.take()); // tear-down is not set-up
                let t = Instant::now();
                input = Some(setup());
                times.push(t.elapsed().as_secs_f64());
                made += 1;
            }
            input.expect("MIN_SETUPS > 0")
        };
        let mut input = batch(&mut times);
        if !traced {
            let plain = run(&mut input, seconds, false);
            drop(input);
            drop(batch(&mut times));
            let setup_s = util::median(&times);
            return Outcome {
                workload,
                setup_s,
                setups: times.len(),
                plain,
                layer: BTreeMap::new(),
                trace_file: None,
            };
        }
        let mut plain = run(&mut input, seconds / 2.0, false);
        let spans_on = run(&mut input, seconds / 2.0, true);
        drop(input);
        drop(batch(&mut times));
        let setup_s = util::median(&times);

        let mut layer: BTreeMap<&'static str, f64> = spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        let mut put = |name: &'static str, value: f64| {
            let slot = layer
                .get_mut(name)
                .unwrap_or_else(|| panic!("{name} is not in spec::PER_LAYER"));
            *slot = if value.is_finite() { value } else { 0.0 };
        };
        for (name, value) in probes::all(sizes) {
            put(name, value);
        }
        for &(name, value) in &spans_on.layer {
            put(name, value);
        }
        let (off, on) = (self.cost(&plain), self.cost(&spans_on));
        put("trace.overhead_frac", (on - off) / off);
        put("trace.spans", spans_on.spans.iter().map(|b| b.len() as f64).sum());
        put("failed_frac", util::ratio(spans_on.failed, spans_on.attempted));
        put("p99_us", plain.p99_us);
        put("host.load1", host::load1());
        let trace_file = match trace::write(workload, &spans_on.spans) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("could not write the trace file: {e}");
                None
            }
        };
        // The end-to-end figures stay the plain pass's; the traced
        // pass adds its spans for the report, and its failures count.
        plain.attempted += spans_on.attempted;
        plain.failed += spans_on.failed;
        plain.spans = spans_on.spans;
        plain.invalid = plain.invalid.or(spans_on.invalid);
        Outcome {
            workload,
            setup_s,
            setups: times.len(),
            plain,
            layer,
            trace_file,
        }
    }
}

/// `None` for a name that is not a workload.
pub fn run_workload(workload: &str, seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Option<Outcome> {
    let workload = spec::WORKLOADS.iter().find(|w| w.name == workload)?.name;
    let d = Drive {
        workload,
        seconds,
        traced,
        sizes,
    };
    Some(match workload {
        "lock-solo" => d.go(|| lock::setup(1, seed), lock::run),
        "lock-duel" => d.go(|| lock::setup(2, seed), lock::run),
        "async-duel" => d.go(async_duel::setup, async_duel::run),
        "store-zipf" => d.go(|| store::setup(seed, sizes), store::run),
        "tcp-paced" => d.go(|| tcp::setup(tcp::Mode::Paced, seed, seconds, sizes), tcp::run),
        "tcp-closed" => d.go(|| tcp::setup(tcp::Mode::Closed, seed, seconds, sizes), tcp::run),
        "tsp-central" => d.go(|| tsp::setup(seed, sizes), tsp::run),
        other => unreachable!("{other} is in spec::WORKLOADS but has no driver"),
    })
}

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        sets: 2,
        runs: 3,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked");
        }
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?,
            "--trace" => args.traced = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--sets" => args.sets = value.parse().map_err(|_| bad("a count"))?,
            "--runs" => args.runs = value.parse().map_err(|_| bad("a count"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds >= 0.2 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside 0.2..=60", args.seconds));
    }
    if let Some(w) = &args.workload {
        if !spec::WORKLOADS.iter().any(|s| s.name == w) {
            let names: Vec<_> = spec::WORKLOADS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload {w:?}; the workloads are {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// The contract's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, outcome.layer[m.name], m.unit
                )
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    outcome.end_to_end(m.name),
                    m.unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.plain.attempted.max(1),
        outcome.plain.failed,
        metrics.join(", ")
    )
}

fn print_report(outcome: &Outcome, seed: u64, traced: bool) {
    let m = &outcome.plain;
    println!(
        "== {}  seed {seed}  {}",
        outcome.workload,
        if traced { "traced" } else { "tracing off" }
    );
    if let Some(w) = spec::WORKLOADS.iter().find(|w| w.name == outcome.workload) {
        println!("  why        {}", w.why);
    }
    let (q1, q2, q3) = m.ops_per_s;
    println!("  ops_per_s  {q2:>14.1} 1/s   (slices: q1 {q1:.1}, q3 {q3:.1})");
    println!(
        "  p50_us     {:>14.3} us    ({} raw samples, median slice)",
        m.p50_us, m.samples
    );
    println!("  p99_us     {:>14.3} us    (a per-layer metric)", m.p99_us);
    println!(
        "  setup_s    {:>14.4} s     (median of {} set-ups)",
        outcome.setup_s, outcome.setups
    );
    println!(
        "  failed_frac {:>13.6}       ({} failed or wrong of {} attempted)",
        util::ratio(m.failed, m.attempted),
        m.failed,
        m.attempted
    );
    if let Some(why) = &m.invalid {
        println!("  status     invalid: {why}");
    }
    if traced {
        for spec in &spec::PER_LAYER {
            println!("  {:<40} {:>16.4} {}", spec.name, outcome.layer[spec.name], spec.unit);
        }
        println!("  span name                              count     total_ms      self_ms");
        for (name, n, total, own) in trace::self_times(&m.spans) {
            println!(
                "  {name:<36} {n:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let dropped: u64 = m.spans.iter().map(|b| b.dropped).sum();
        println!("  spans past the buffers' end, not recorded: {dropped}");
        if let Some(path) = &outcome.trace_file {
            println!("  trace file {}", path.display());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    util::now_ns(); // fix the epoch
    let sizes = Sizes::full();
    match args.command.as_str() {
        "run" | "trace" => {
            let traced = args.traced || args.command == "trace";
            println!("{}", host::facts());
            let names: Vec<&str> = match &args.workload {
                Some(w) => vec![w.as_str()],
                None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
            };
            let mut ok = true;
            for name in names {
                let outcome = run_workload(name, args.seed, args.seconds, traced, &sizes).expect("name was checked");
                print_report(&outcome, args.seed, traced);
                ok &= outcome.correct();
                println!("{}", result_line(&outcome, traced));
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("an oracle failed: see failed_frac above");
                ExitCode::FAILURE
            }
        }
        "agree" => agree::run(args.sets, args.runs, args.seconds, args.workload.as_deref(), &sizes),
        "spec" => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}; use run, trace, agree or spec");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;

//! `tcp-paced` and `tcp-closed`: the store served by `serve_store`
//! over loopback, driven through `BlockingLineClient`.
//!
//! Paced is an open loop: each connection sends on a seeded, jittered
//! schedule at a rate well below capacity, so every request finds its
//! connection idle and pays `asyncx.net`'s yield-then-sleep ladder.
//! Latency is taken from the *scheduled* send time. Closed sends the
//! next request when the reply arrives, so requests are caught inside
//! the yield window.
//!
//! The server's worker is bound to one core and so are the closed
//! loop's connection threads. Left to the kernel, a reply wakes its
//! reader on the server's core or across to an idle one, and which of
//! the two depends on what the host ran before: straight after a
//! compute-heavy workload the closed loop made 3.9 k requests a second
//! instead of 16 k, and the paced median was anything from 420 us to
//! 4.8 ms instead of 290 us. On one core a wake-up is a context
//! switch, whatever came before; it is also where the kernel puts
//! these threads on a quiet host. The paced connections are bound to
//! the next core: they spin for up to 200 us before every send, which
//! must not be the server's time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adaptive_control::{BreakerHub, ControlPlane, HubHandle};
use adaptive_service::ShardedStore;
use asyncx::{serve_store, BlockingLineClient, StoreServerConfig, StoreServerHandle};

use crate::host::{bind_current, bind_threads_of, process_cpu_ms, Echo, EchoClient};
use crate::measure::{summarise, Log, Measured, Timeline};
use crate::store::preloaded;
use crate::util::{now_ns, percentile, ratio, wait_until, Rng};
use crate::Sizes;

const CONNECTIONS: usize = 2;
const HUB_POLL_EVERY: Duration = Duration::from_millis(10);
/// Paced: share of requests that are `incr`; the rest are `get`.
const PACED_INCR_PERCENT: u64 = 20;
/// Paced: connection 0 asks `ctl health` once in this many requests.
const CTL_EVERY: usize = 1000;
/// Closed: every request goes to one of the first this many keys.
const CLOSED_HOT_KEYS: u64 = 64;
/// Traced paced runs: one request in this many is followed by its shadows.
const SHADOW_EVERY: usize = 16;
/// The core of the server's worker and the closed loop's connections.
pub const CORE: usize = 0;
const SLOW_NS: u64 = 200_000;
/// How long past the end of the region a run may go on before the
/// watchdog ends it.
const HANG_GRACE_NS: u64 = 10_000_000_000;
/// A paced run whose generator sent later than this at the median
/// slice's 99th percentile, or completed less than this share of its
/// schedule, measured the generator and is reported invalid.
const MAX_LATE_P99_US: f64 = 500.0;
const MIN_ACHIEVED: f64 = 0.98;

const INCR_BIT: u32 = 1 << 31;
const CTL: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Paced,
    Closed,
}

/// What one connection will send: key with [`INCR_BIT`] for `incr`,
/// or [`CTL`]; paced plans carry each request's due time from start.
struct Plan {
    ops: Vec<u32>,
    due_ns: Vec<u64>,
}

pub struct Input {
    mode: Mode,
    keys: u64,
    store: Arc<ShardedStore>,
    clients: Vec<BlockingLineClient>,
    plans: Vec<Plan>,
    // Dropped in this order: the poller, then the server.
    _hub: Option<HubHandle>,
    /// `None` once the watchdog had to cut a hung run short.
    server: Option<StoreServerHandle>,
}

pub fn setup(mode: Mode, seed: u64, seconds: f64, sizes: &Sizes) -> Input {
    let keys = sizes.tcp_keys;
    let drawn_from = if mode == Mode::Paced {
        keys
    } else {
        CLOSED_HOT_KEYS.min(keys)
    };
    let store = Arc::new(preloaded(keys as usize));
    let mut config = StoreServerConfig {
        workers: 1,
        ..StoreServerConfig::default()
    };
    let mut poller = None;
    if mode == Mode::Paced {
        let hub = Arc::new(BreakerHub::default());
        store.register_with_hub(Arc::clone(&hub));
        config.plane = Some(ControlPlane::new(Arc::clone(&hub)));
        config.hub = Some(Arc::clone(&hub));
        poller = Some(hub);
    }
    let server = bind_threads_of(CORE, || {
        serve_store(Arc::clone(&store), config).expect("bind the store server on loopback")
    });
    let hub = poller.map(|hub| hub.spawn(HUB_POLL_EVERY));
    // No warm-up requests: one connection's back-to-back round trip is
    // 15 us or 600 us depending on where the scheduler put the threads,
    // which would make `setup_s` a coin toss. The dropped first slice
    // absorbs the connections' first requests instead.
    let clients = (0..CONNECTIONS)
        .map(|_| BlockingLineClient::connect(server.addr()).expect("connect to the store server"))
        .collect();

    let per_conn = match mode {
        Mode::Paced => (sizes.tcp_rate_per_conn * seconds) as usize,
        // More than a closed loop gets through; it wraps if not.
        Mode::Closed => 1 << 16,
    };
    let gap_ns = 1e9 / sizes.tcp_rate_per_conn;
    let plans = (0..CONNECTIONS)
        .map(|c| {
            let mut rng = Rng::new(seed, 0x7c90 + c as u64);
            let mut due = 0.0f64;
            let mut plan = Plan {
                ops: Vec::with_capacity(per_conn),
                due_ns: Vec::new(),
            };
            for i in 0..per_conn {
                let key = rng.below(drawn_from) as u32;
                plan.ops.push(match mode {
                    Mode::Closed => key | INCR_BIT,
                    Mode::Paced if c == 0 && i % CTL_EVERY == CTL_EVERY - 1 => CTL,
                    Mode::Paced if rng.below(100) < PACED_INCR_PERCENT => key | INCR_BIT,
                    Mode::Paced => key,
                });
                if mode == Mode::Paced {
                    // Gaps uniform in 0.5..1.5 of the mean.
                    due += gap_ns * (0.5 + rng.unit());
                    plan.due_ns.push(due as u64);
                }
            }
            plan
        })
        .collect();
    Input {
        mode,
        keys,
        store,
        clients,
        plans,
        _hub: hub,
        server: Some(server),
    }
}

fn command(word: u32) -> String {
    match word {
        CTL => "ctl health".to_string(),
        w if w & INCR_BIT != 0 => format!("incr {} 1", w & !INCR_BIT),
        w => format!("get {w}"),
    }
}

/// Whether the server's answer to `word` can be right: keys start at 1
/// and only grow.
fn plausible(word: u32, reply: &std::io::Result<Result<String, String>>) -> bool {
    let Ok(Ok(body)) = reply else { return false };
    match word {
        CTL => body.lines().count() >= 2,
        w => body.parse::<u64>().is_ok_and(|v| v > u64::from(w >> 31)),
    }
}

/// The same operation applied to the in-process twin (`ctl` has none).
fn shadow_op(twin: &ShardedStore, word: u32) {
    match word {
        CTL => {}
        w if w & INCR_BIT != 0 => {
            std::hint::black_box(twin.increment(u64::from(w & !INCR_BIT), 1));
        }
        w => {
            std::hint::black_box(twin.get(u64::from(w)));
        }
    }
}

/// What a traced connection carries beside its client.
struct Shadows {
    twin: Arc<ShardedStore>,
    echo: EchoClient,
}

/// What a connection thread hands back.
struct ConnResult {
    log: Log,
    increments: u64,
    sent: u64,
    planned: u64,
    /// How late each request was sent, sliced like the latencies.
    late: Log,
    format_ns: Vec<u32>,
    /// Request span minus format, echo and twin spans, per shadowed request.
    residual_ns: Vec<u32>,
    slow: u64,
}

/// What every connection of a run shares.
struct Job {
    mode: Mode,
    /// Requests each connection may send.
    budget: usize,
    /// Samples to make room for.
    hint: usize,
    trace: bool,
    tl: Timeline,
}

fn connection(job: &Job, client: &mut BlockingLineClient, plan: &Plan, mut shadows: Option<Shadows>) -> ConnResult {
    let &Job {
        mode,
        budget,
        hint,
        trace,
        ref tl,
    } = job;
    let mut r = ConnResult {
        log: Log::new(trace, hint),
        increments: 0,
        sent: 0,
        planned: if mode == Mode::Paced { budget as u64 } else { 0 },
        late: Log::new(false, hint),
        format_ns: Vec::with_capacity(hint),
        residual_ns: Vec::new(),
        slow: 0,
    };
    bind_current(if mode == Mode::Paced { CORE + 1 } else { CORE });
    tl.wait_for_start();
    let mut previous_done = 0u64;
    for i in 0..budget {
        let word = plan.ops[i % plan.ops.len()];
        let due = (mode == Mode::Paced).then(|| tl.start_ns + plan.due_ns[i]);
        if let Some(due) = due {
            wait_until(due);
        }
        let t0 = now_ns();
        // A closed loop's request is due when the last reply arrived.
        let due = due.unwrap_or(t0);
        let line = command(word);
        let t1 = now_ns();
        let reply = client.send(&line);
        let t2 = now_ns();
        r.sent += 1;
        r.increments += u64::from(word != CTL && word & INCR_BIT != 0 && matches!(reply, Ok(Ok(_))));
        let latency = t2 - due;
        // A right answer that came late is in the latency figures, not
        // here: on a shared host a stall of the whole machine would
        // otherwise decide the exit code.
        r.log.failed += u64::from(!plausible(word, &reply));
        r.slow += u64::from(latency > SLOW_NS);
        // Waiting for the previous reply is the server's lateness and
        // is in the latency; what is left is the generator's own.
        r.late.record(tl, t2, 1, t0 - due.max(previous_done));
        previous_done = t2;
        r.format_ns.push((t1 - t0) as u32);

        if r.log.spans.on {
            let id = i as u64;
            let root = r.log.spans.open("request", due, id);
            r.log.spans.child(root, "workloads.wait_to_send", due, t0);
            r.log.spans.child(root, "workloads.format", t0, t1);
            r.log.spans.child(root, "asyncx.net.send", t1, t2);
            r.log.spans.close(root, t2);
            if let (Some(sh), true) = (&mut shadows, i % SHADOW_EVERY == 0) {
                let s0 = now_ns();
                shadow_op(&sh.twin, word);
                let s1 = now_ns();
                let _ = sh.echo.round_trip(&line);
                let s2 = now_ns();
                let twin = r.log.spans.open("service.store.shadow", s0, id);
                r.log.spans.close(twin, s1);
                let echo = r.log.spans.open("host.loopback_echo", s1, id);
                r.log.spans.close(echo, s2);
                let priced = (t1 - t0) + (s1 - s0) + (s2 - s1);
                r.residual_ns
                    .push(latency.saturating_sub(priced).min(u64::from(u32::MAX)) as u32);
            }
        }

        if !r.log.record(tl, t2, 1, latency) && mode == Mode::Closed {
            break;
        }
        if reply.is_err() {
            // The connection is gone; what was planned and not sent failed.
            r.log.failed += r.planned.saturating_sub(r.sent);
            break;
        }
    }
    r
}

pub fn run(input: &mut Input, seconds: f64, trace: bool) -> Measured {
    let mode = input.mode;
    let budget = match mode {
        Mode::Paced => input
            .plans
            .iter()
            .map(|p| p.due_ns.partition_point(|&d| d < (seconds * 1e9) as u64))
            .min()
            .unwrap_or(0),
        Mode::Closed => usize::MAX,
    };
    // Shadows price a paced request's parts. A closed loop has no idle
    // time to put them in: they would break the rhythm being measured.
    let shadowed = trace && mode == Mode::Paced;
    let echo = shadowed.then(|| Echo::start().expect("start the loopback echo"));
    let twin = shadowed.then(|| Arc::new(preloaded(input.keys as usize)));
    let stats_before = input.server.as_ref().map(StoreServerHandle::stats).unwrap_or_default();
    let total_before = input.store.total();
    let cpu_before = process_cpu_ms();
    let job = Job {
        mode,
        budget,
        hint: (seconds * if mode == Mode::Paced { 1_100.0 } else { 30_000.0 }) as usize,
        trace,
        tl: Timeline::starting_soon(seconds),
    };
    let tl = &job.tl;

    // `BlockingLineClient` has no read timeout: if the server stops
    // answering, dropping it closes the connections and ends the run.
    let done = AtomicBool::new(false);
    let deadline_ns = tl.end_ns() + HANG_GRACE_NS;
    let server = &mut input.server;
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = input
            .clients
            .iter_mut()
            .zip(&input.plans)
            .map(|(client, plan)| {
                let job = &job;
                let shadows = echo.as_ref().zip(twin.as_ref()).map(|(e, twin)| Shadows {
                    twin: Arc::clone(twin),
                    echo: e.connect().expect("connect to the loopback echo"),
                });
                s.spawn(move || connection(job, client, plan, shadows))
            })
            .collect();
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if now_ns() > deadline_ns {
                    eprintln!("the store server stopped answering; shutting it down");
                    drop(server.take());
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        done.store(true, Ordering::Release);
        results
    });
    let wall_s = (now_ns() - tl.start_ns) as f64 / 1e9;
    let cpu_ms_per_s = (process_cpu_ms() - cpu_before) / wall_s;
    drop(echo);

    let sent: u64 = results.iter().map(|r| r.sent).sum();
    let planned: u64 = results.iter().map(|r| r.planned).sum();
    let increments: u64 = results.iter().map(|r| r.increments).sum();
    let slow: u64 = results.iter().map(|r| r.slow).sum();
    let sorted = |pick: fn(&ConnResult) -> &Vec<u32>| {
        let mut v: Vec<u32> = results.iter().flat_map(|r| pick(r).iter().copied()).collect();
        v.sort_unstable();
        v
    };
    let (format, residual) = (sorted(|r| &r.format_ns), sorted(|r| &r.residual_ns));
    let (logs, late): (Vec<Log>, Vec<Log>) = results.into_iter().map(|r| (r.log, r.late)).unzip();
    let late = summarise(late, tl, 1.0);
    let mut out = summarise(logs, tl, 1.0);
    // A paced run attempts its whole schedule; what it completed inside
    // the region is `achieved` of it.
    let achieved = if mode == Mode::Paced {
        ratio(out.attempted, planned)
    } else {
        1.0
    };
    if mode == Mode::Paced {
        out.attempted = planned;
    }

    // Conservation, asked of the server itself: every acknowledged
    // increment is in `total`, no key appeared or vanished, and the
    // server counted exactly the commands that were sent.
    let ask =
        |client: &mut BlockingLineClient, what: &str| -> Option<u128> { client.send(what).ok()?.ok()?.parse().ok() };
    let total = ask(&mut input.clients[0], "total");
    let len = ask(&mut input.clients[0], "len");
    let stats = input.server.as_ref().map(StoreServerHandle::stats).unwrap_or_default();
    let server_ops = stats.ops - stats_before.ops;
    let server_errors = stats.errors - stats_before.errors;
    out.failed += u64::from(total != Some(total_before + u128::from(increments)));
    out.failed += u64::from(len != Some(u128::from(input.keys)));
    out.failed += server_ops.abs_diff(sent + 2) + server_errors;

    if mode == Mode::Paced && (late.p99_us > MAX_LATE_P99_US || achieved < MIN_ACHIEVED) {
        out.invalid = Some(format!(
            "the generator ran late (late_p99 {:.0} us, limit {MAX_LATE_P99_US}) or fell short (achieved {achieved:.3} of the schedule, limit {MIN_ACHIEVED})",
            late.p99_us
        ));
    }
    out.layer = vec![
        ("asyncx.net.slow_frac", ratio(slow, sent)),
        ("asyncx.net.residual_p50_us", percentile(&residual, 0.50) / 1e3),
        ("asyncx.net.cpu_ms_per_s", cpu_ms_per_s),
        ("asyncx.net.server_ops", server_ops as f64),
        ("asyncx.net.server_errors", server_errors as f64),
        ("workloads.format_ns", percentile(&format, 0.50)),
        ("workloads.late_p50_us", late.p50_us),
        ("workloads.late_p99_us", late.p99_us),
        ("workloads.achieved_rate_frac", achieved),
    ];
    out
}

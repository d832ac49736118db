//! `async-duel`: eight tasks on a two-worker runtime contend for one
//! `AsyncAdaptiveMutex`. The critical section spans a yield, so waiters
//! re-poll or park, and no socket exists: the async mutex and the
//! scheduler do most of the work.
//!
//! Eight tasks, not four: with four the run queue empties often enough
//! that the workers sleep on it, and the OS then stacks both on one
//! core for a second or so at a time. On one core the same loop runs
//! 2.6 times faster (680 k against 260 k ops/s: no line bounces, no
//! contended queue mutex), so a run's figure depended on how long the
//! kernel left them stacked. Eight keep both workers awake.

use std::hint::black_box;
use std::sync::Arc;

use asyncx::mutex::AsyncMutexStats;
use asyncx::{yield_now, AsyncAdaptiveMutex, Runtime};

use crate::lock::Cell;
use crate::measure::{summarise, Log, Measured, Timeline};
use crate::util::{now_ns, ratio};

const WORKERS: usize = 2;
const TASKS: usize = 8;
const SAMPLE_EVERY: u64 = 64;
/// Set-up ends with this many operations per task, so that the
/// runtime's workers are up and the mutex's feedback loop has settled.
const WARM_UP_OPS: usize = 5_000;

async fn op(m: &AsyncAdaptiveMutex<Cell>) {
    let mut g = m.lock().await;
    g.bump();
    yield_now().await;
}

async fn task(m: Arc<AsyncAdaptiveMutex<Cell>>, tl: Timeline, mut log: Log) -> Log {
    loop {
        for _ in 0..SAMPLE_EVERY - 1 {
            op(&m).await;
            yield_now().await;
        }
        let t0 = now_ns();
        let t3;
        if log.spans.on {
            let mut g = m.lock().await;
            let t1 = now_ns();
            g.bump();
            yield_now().await;
            let t2 = now_ns();
            drop(g);
            t3 = now_ns();
            let root = log.spans.open("request", t0, log.ops);
            log.spans.child(root, "asyncx.mutex.lock", t0, t1);
            log.spans.child(root, "asyncx.rt.yield_in_cs", t1, t2);
            log.spans.child(root, "asyncx.mutex.unlock", t2, t3);
            log.spans.close(root, t3);
        } else {
            op(&m).await;
            t3 = now_ns();
        }
        if !log.record(&tl, t3, SAMPLE_EVERY, t3 - t0) {
            return log;
        }
        yield_now().await;
    }
}

pub struct Input {
    rt: Runtime,
    mutex: Arc<AsyncAdaptiveMutex<Cell>>,
}

pub fn setup() -> Input {
    let input = Input {
        rt: Runtime::multi_thread(WORKERS),
        mutex: Arc::new(AsyncAdaptiveMutex::new(Cell::new())),
    };
    input.rt.block_on(async {
        let tasks: Vec<_> = (0..TASKS)
            .map(|_| {
                let m = Arc::clone(&input.mutex);
                asyncx::spawn(async move {
                    for _ in 0..WARM_UP_OPS {
                        op(&m).await;
                        yield_now().await;
                    }
                })
            })
            .collect();
        for t in tasks {
            t.await;
        }
    });
    input
}

pub fn run(input: &mut Input, seconds: f64, trace: bool) -> Measured {
    let (rt, m) = (&input.rt, &input.mutex);
    let before = m.stats();
    let count_before = rt.block_on(async { m.lock().await.count });
    let tl = Timeline::starting_soon(seconds);
    let hint = (seconds * 20_000.0) as usize;
    let logs: Vec<Log> = rt.block_on(async {
        let handles: Vec<_> = (0..TASKS)
            .map(|_| asyncx::spawn(task(Arc::clone(m), tl, Log::new(trace, hint))))
            .collect();
        let mut logs = Vec::new();
        for h in handles {
            logs.push(h.await);
        }
        logs
    });
    let now = m.stats();
    let (x, count) = rt.block_on(async {
        let g = m.lock().await;
        (g.x, g.count - count_before)
    });
    black_box(x);
    let since = |f: fn(&AsyncMutexStats) -> u64| f(&now) - f(&before);
    // The read of the cell before the region is an acquisition too.
    let acquisitions = since(|s| s.acquisitions) - 1;

    // Each task's last burst ended past the region and was not credited.
    let done: u64 = logs.iter().map(|l| l.ops + SAMPLE_EVERY).sum();
    let mut out = summarise(logs, &tl, 1.0);
    out.failed += done.abs_diff(count) + done.abs_diff(acquisitions);
    out.layer = vec![
        (
            "asyncx.mutex.duel.contended_frac",
            ratio(since(|s| s.contended), acquisitions),
        ),
        (
            "asyncx.mutex.duel.polls_per_op",
            ratio(since(|s| s.polls), acquisitions),
        ),
        (
            "asyncx.mutex.duel.parked_frac",
            ratio(since(|s| s.parked), acquisitions),
        ),
        (
            "asyncx.mutex.duel.handoffs_per_kop",
            ratio(since(|s| s.handoffs) * 1000, acquisitions),
        ),
    ];
    out
}

//! The discrete-event engine.
//!
//! Simulated threads are real OS threads, but the engine enforces a strict
//! coroutine discipline: at any real-time instant, either the engine or
//! exactly one simulated thread is executing. Threads hand control back at
//! every *simulator call* (timed work, memory reference, park, spawn, ...),
//! or — as a pure optimization — keep running without a handshake when the
//! engine can prove no other event precedes them ("fast-path advance").
//! This makes runs bit-for-bit deterministic on any host, including the
//! single-core machine this crate was developed on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::config::{ProcId, SimConfig};
use crate::ctx;
use crate::error::SimError;
use crate::gate::Gate;
use crate::report::SimReport;
use crate::tcb::{TState, Tcb, ThreadId, WakeReason};
use crate::world::{EvKind, World};

/// Panic payload used to unwind simulated threads during teardown.
pub(crate) struct ShutdownToken;

/// State shared between the engine and all simulated threads.
pub(crate) struct Shared {
    pub world: Mutex<World>,
    /// The engine parks here while a simulated thread runs.
    pub engine_gate: Gate,
    /// Set when the run is being torn down (normal end, deadlock, panic).
    pub shutdown: AtomicBool,
    /// Join handles of all simulated threads' OS threads.
    pub handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn new(cfg: SimConfig) -> Arc<Shared> {
        Arc::new(Shared {
            world: Mutex::new(World::new(cfg)),
            engine_gate: Gate::new(),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
        })
    }
}

/// Create a simulated thread: registers a TCB (state `Ready`, enqueued on
/// `proc`'s run queue) and starts the backing OS thread, which parks until
/// first dispatched. Returns the new thread's id.
pub(crate) fn spawn_thread(
    shared: &Arc<Shared>,
    proc: ProcId,
    name: String,
    f: impl FnOnce() + Send + 'static,
) -> ThreadId {
    let (tid, gate) = {
        let mut w = shared.world.lock().unwrap();
        let tid = ThreadId(w.tcbs.len());
        let tcb = Tcb::new(tid, proc, name.clone(), w.now);
        let gate = tcb.gate.clone();
        w.add_thread(tcb);
        (tid, gate)
    };

    let shared2 = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("sim-{}", name))
        .spawn(move || {
            // Wait for first dispatch.
            gate.pass();
            if shared2.shutdown.load(Ordering::Acquire) {
                return;
            }
            ctx::install(Arc::clone(&shared2), tid, proc, Arc::clone(&gate));
            let result = catch_unwind(AssertUnwindSafe(f));
            ctx::clear();
            if shared2.shutdown.load(Ordering::Acquire) {
                // Torn down mid-run via ShutdownToken; the engine is no
                // longer listening. Leave quietly.
                return;
            }
            let mut w = shared2.world.lock().unwrap();
            {
                let now = w.now;
                let tcb = w.tcb_mut(tid);
                tcb.state = TState::Finished;
                tcb.finished_at = Some(now);
            }
            w.unfinished -= 1;
            w.release_processor(tid);
            if let Err(payload) = result {
                let msg = panic_message(payload.as_ref());
                if w.panic.is_none() {
                    w.panic = Some((name, msg));
                }
            }
            drop(w);
            shared2.engine_gate.open();
        })
        .expect("failed to spawn OS thread backing a simulated thread");

    shared.handles.lock().unwrap().push(handle);
    tid
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Process one event; returns the gate of a thread to resume, if any.
fn handle_event(w: &mut World, kind: EvKind) -> Option<Arc<Gate>> {
    match kind {
        EvKind::Resume(tid) => {
            debug_assert_eq!(w.tcb(tid).state, TState::Advancing, "Resume of non-advancing {}", tid);
            if w.should_preempt(tid) || w.tcb(tid).force_preempt {
                w.requeue(tid);
                None
            } else {
                let tcb = w.tcb_mut(tid);
                tcb.state = TState::Running;
                Some(tcb.gate.clone())
            }
        }
        EvKind::Wake { tid, epoch } => {
            let tcb = w.tcb(tid);
            if tcb.park_epoch == epoch && matches!(tcb.state, TState::Blocked | TState::Sleeping) {
                w.make_ready(tid, WakeReason::Timeout);
            }
            None
        }
        EvKind::Dispatch(p) => {
            w.procs[p.0].dispatch_pending = false;
            if w.procs[p.0].current.is_some() {
                return None;
            }
            let tid = w.procs[p.0].ready.pop_front()?;
            w.procs[p.0].current = Some(tid);
            w.procs[p.0].switches += 1;
            let tcb = w.tcb_mut(tid);
            debug_assert_eq!(tcb.state, TState::Ready, "dispatch of non-ready {}", tid);
            tcb.state = TState::Running;
            tcb.quantum_used = crate::time::Duration::ZERO;
            let gate = tcb.gate.clone();
            w.record(tid, crate::report::ScheduleStep::Dispatched(p));
            Some(gate)
        }
    }
}

fn engine_loop(shared: &Arc<Shared>) -> Result<(), SimError> {
    loop {
        let to_run = {
            let mut w = shared.world.lock().unwrap();
            if let Some((thread, message)) = w.panic.take() {
                return Err(SimError::ThreadPanicked { thread, message });
            }
            match w.pop_event() {
                None => {
                    if w.unfinished == 0 {
                        return Ok(());
                    }
                    return Err(SimError::Deadlock {
                        at: w.now,
                        blocked: w.unfinished_threads(),
                    });
                }
                Some(ev) => {
                    debug_assert!(ev.at >= w.now, "time went backwards");
                    w.now = ev.at;
                    w.stats.events += 1;
                    let gate = handle_event(&mut w, ev.kind);
                    if gate.is_some() {
                        w.stats.handshakes += 1;
                    }
                    gate
                }
            }
        };
        if let Some(gate) = to_run {
            gate.open();
            shared.engine_gate.pass();
        }
    }
}

/// Tear down all still-live simulated threads and join every OS thread.
fn shutdown_and_join(shared: &Arc<Shared>) {
    shared.shutdown.store(true, Ordering::Release);
    let gates: Vec<Arc<Gate>> = {
        let w = shared.world.lock().unwrap();
        w.tcbs
            .iter()
            .filter(|t| t.state != TState::Finished)
            .map(|t| t.gate.clone())
            .collect()
    };
    for g in gates {
        g.open();
    }
    let handles = std::mem::take(&mut *shared.handles.lock().unwrap());
    for h in handles {
        let _ = h.join();
    }
}

fn build_report(shared: &Arc<Shared>) -> SimReport {
    let w = shared.world.lock().unwrap();
    let thread_spans = w
        .tcbs
        .iter()
        .map(|t| crate::report::ThreadSpan {
            name: t.name.clone(),
            spawned_at: t.spawned_at,
            finished_at: t.finished_at,
        })
        .collect();
    SimReport {
        end_time: w.now,
        events: w.stats.events,
        handshakes: w.stats.handshakes,
        fast_advances: w.stats.fast_advances,
        threads: w.stats.threads_spawned,
        proc_busy: w.procs.iter().map(|p| p.busy).collect(),
        proc_switches: w.procs.iter().map(|p| p.switches).collect(),
        mem: w.mem_stats,
        thread_spans,
        seed: w.cfg.seed,
        schedule: w.sched_trace.clone(),
    }
}

/// Run a simulation to completion.
///
/// `root` executes as the first simulated thread, on processor 0. The run
/// ends when every spawned thread has finished; `root`'s return value is
/// handed back together with a [`SimReport`].
///
/// # Errors
///
/// [`SimError::Deadlock`] if all remaining threads are blocked forever;
/// [`SimError::ThreadPanicked`] if any simulated thread panics (including
/// assertion failures inside tests).
///
/// # Panics
///
/// Panics if called from inside a simulated thread (nested simulations are
/// not supported) or if the configuration is invalid.
pub fn run<R, F>(cfg: SimConfig, root: F) -> Result<(R, SimReport), SimError>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    assert!(
        !ctx::in_sim(),
        "butterfly_sim::run called from inside a simulated thread"
    );
    let shared = Shared::new(cfg);
    let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    spawn_thread(&shared, ProcId(0), "root".to_string(), move || {
        let r = root();
        *slot2.lock().unwrap() = Some(r);
    });

    let outcome = engine_loop(&shared);
    shutdown_and_join(&shared);

    match outcome {
        Ok(()) => {
            let report = build_report(&shared);
            let value = slot
                .lock()
                .unwrap()
                .take()
                .expect("root thread finished without storing its result");
            Ok((value, report))
        }
        Err(e) => Err(e),
    }
}

//! The client-server scheduler-comparison workload (\[MS93\], recalled in
//! Section 2): "for such applications, priority locks exhibit the best
//! performance whereas FCFS locks exhibit the worst".
//!
//! One high-priority server thread and several clients share one lock.
//! Clients hold the lock for their critical sections continuously; the
//! server periodically needs it and its acquisition latency is the
//! figure of merit. With FCFS the server queues behind every client;
//! with a priority scheduler it is granted next; with handoff scheduling
//! the clients cooperatively designate the waiting server as successor.

use std::sync::Arc;

use adaptive_locks::{priority, Lock, LockCosts, ReconfigurableLock, SchedKind, WaitingPolicy};
use butterfly_sim::{self as sim, ctx, Duration, ProcId, SimConfig, SimWord};
use cthreads::fork;
use serde::Serialize;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct ClientServerConfig {
    /// Number of client threads (each on its own processor; the server
    /// gets one more).
    pub clients: usize,
    /// Lock requests the server makes.
    pub server_requests: u32,
    /// Client critical-section length.
    pub client_cs: Duration,
    /// Client think time between sections.
    pub client_think: Duration,
    /// Server think time between requests.
    pub server_interval: Duration,
    /// Server critical-section length.
    pub server_cs: Duration,
}

impl Default for ClientServerConfig {
    fn default() -> Self {
        ClientServerConfig {
            clients: 5,
            server_requests: 20,
            client_cs: Duration::micros(150),
            client_think: Duration::micros(20),
            server_interval: Duration::micros(500),
            server_cs: Duration::micros(50),
        }
    }
}

/// Measured outcome for one scheduler.
#[derive(Debug, Clone, Serialize)]
pub struct ClientServerResult {
    /// Scheduler label.
    pub scheduler: String,
    /// Mean server lock-acquisition latency (ns).
    pub mean_server_wait_nanos: u64,
    /// Worst server lock-acquisition latency (ns).
    pub max_server_wait_nanos: u64,
    /// Total run time (ns).
    pub total_nanos: u64,
}

/// Run the workload under one lock scheduler.
pub fn run_client_server(cfg: &ClientServerConfig, sched: SchedKind) -> ClientServerResult {
    let cfg = cfg.clone();
    let processors = cfg.clients + 1;
    let sim_cfg = SimConfig {
        processors,
        ..SimConfig::default()
    };
    let ((mean, max, total), _) = sim::run(sim_cfg, move || {
        let lock = Arc::new(ReconfigurableLock::with_parts(
            "cs-lock",
            ctx::current_node(),
            WaitingPolicy::pure_blocking(),
            sched,
            LockCosts::default(),
        ));
        // The server raises this flag while it wants the lock so that
        // handoff-scheduling clients know whom to designate.
        let server_waiting = SimWord::new_local(0);
        let server_tid = tid_cell();
        let stop = SimWord::new_local(0);
        let t0 = ctx::now();

        // Clients on processors 1..=clients.
        let client_handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let server_waiting = server_waiting.clone();
                let server_tid = server_tid.clone();
                let stop = stop.clone();
                let (cs, think) = (cfg.client_cs, cfg.client_think);
                fork(ProcId(i + 1), format!("client{i}"), move || {
                    while stop.load() == 0 {
                        lock.lock();
                        ctx::advance(cs);
                        if sched == SchedKind::Handoff && server_waiting.load() == 1 {
                            let tid = server_tid.peek();
                            if tid != 0 {
                                lock.set_successor(Some(butterfly_sim::ThreadId(
                                    (tid - 1) as usize,
                                )));
                            }
                        }
                        lock.unlock();
                        ctx::advance(think);
                    }
                })
            })
            .collect();

        // Server on processor 0 (this thread).
        priority::set(10);
        server_tid.poke(|v| *v = ctx::current().0 as u64 + 1);
        let mut waits: Vec<u64> = Vec::with_capacity(cfg.server_requests as usize);
        for _ in 0..cfg.server_requests {
            ctx::advance(cfg.server_interval);
            server_waiting.store(1);
            let t = ctx::now();
            lock.lock();
            waits.push(ctx::now().since(t).as_nanos());
            server_waiting.store(0);
            ctx::advance(cfg.server_cs);
            lock.unlock();
        }
        priority::set(0);
        stop.store(1);
        for h in client_handles {
            h.join();
        }
        let total = ctx::now().since(t0).as_nanos();
        let mean = waits.iter().sum::<u64>() / waits.len() as u64;
        let max = *waits.iter().max().expect("every round records one wait");
        (mean, max, total)
    })
    .expect("client/server simulation runs to completion");
    ClientServerResult {
        scheduler: format!("{sched}"),
        mean_server_wait_nanos: mean,
        max_server_wait_nanos: max,
        total_nanos: total,
    }
}

// Small helper: a SimCell<u64> holding the server's ThreadId + 1 (0 =
// unset), created on the caller's node.
fn tid_cell() -> butterfly_sim::SimCell<u64> {
    butterfly_sim::SimCell::new_local(0)
}

/// Run under all three schedulers (FCFS, Priority, Handoff).
pub fn run_all_schedulers(cfg: &ClientServerConfig) -> Vec<ClientServerResult> {
    [SchedKind::Fcfs, SchedKind::Priority, SchedKind::Handoff]
        .into_iter()
        .map(|s| run_client_server(cfg, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClientServerConfig {
        ClientServerConfig {
            clients: 3,
            server_requests: 10,
            ..ClientServerConfig::default()
        }
    }

    #[test]
    fn priority_beats_fcfs_for_server_latency() {
        let cfg = small();
        let fcfs = run_client_server(&cfg, SchedKind::Fcfs);
        let prio = run_client_server(&cfg, SchedKind::Priority);
        assert!(
            prio.mean_server_wait_nanos < fcfs.mean_server_wait_nanos,
            "priority ({}) must beat FCFS ({})",
            prio.mean_server_wait_nanos,
            fcfs.mean_server_wait_nanos
        );
    }

    #[test]
    fn handoff_beats_fcfs_for_server_latency() {
        let cfg = small();
        let fcfs = run_client_server(&cfg, SchedKind::Fcfs);
        let handoff = run_client_server(&cfg, SchedKind::Handoff);
        assert!(
            handoff.mean_server_wait_nanos < fcfs.mean_server_wait_nanos,
            "handoff ({}) must beat FCFS ({})",
            handoff.mean_server_wait_nanos,
            fcfs.mean_server_wait_nanos
        );
    }

    #[test]
    fn all_schedulers_complete() {
        let out = run_all_schedulers(&small());
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.total_nanos > 0));
        assert_eq!(out[0].scheduler, "fcfs");
        assert_eq!(out[1].scheduler, "priority");
        assert_eq!(out[2].scheduler, "handoff");
    }
}

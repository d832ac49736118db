//! The loosely-coupled monitor: a dedicated monitor thread on its own
//! processor, fed by application-thread probes.
//!
//! This reproduces the structure of the general-purpose thread monitor
//! \[GS93\] the paper started from: application threads send trace data
//! to a *local monitor* (a thread on a dedicated processor) which
//! performs low-level processing (and, in \[GS93\], forwards summaries
//! to a central monitor; only the local stage is modelled here). The
//! paper found this pipeline "too loosely coupled to be used in adaptive
//! lock objects" — observations arrive late — which is why the adaptive
//! lock's customized monitor samples inline instead. The local stage
//! alone shows that lag, so the coupling trade-off is measurable.

use std::collections::HashMap;

use butterfly_sim::{ctx, Duration, ProcId, VirtualTime};
use cthreads::{channel_on, JoinHandle, Receiver, Sender};
use serde::Serialize;

use crate::trace::TraceEvent;

/// Per-sensor aggregate computed by the monitor thread.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SensorSummary {
    /// Observations received.
    pub count: u64,
    /// Minimum observed value.
    pub min: i64,
    /// Maximum observed value.
    pub max: i64,
    /// Mean observed value.
    pub mean: f64,
    /// Last observed value.
    pub last: i64,
    /// Mean delivery lag: virtual time between an observation being made
    /// and the monitor thread processing it.
    pub mean_lag_nanos: u64,
}

/// Final report of a local monitor run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MonitorReport {
    /// Aggregates keyed by sensor name.
    pub sensors: HashMap<&'static str, SensorSummary>,
    /// Total events processed.
    pub events: u64,
}

impl MonitorReport {
    /// Aggregate for one sensor.
    pub fn sensor(&self, name: &str) -> Option<&SensorSummary> {
        self.sensors.get(name)
    }
}

/// Application-side handle for depositing observations.
#[derive(Clone)]
pub struct ProbePort {
    tx: Sender<TraceEvent>,
}

impl ProbePort {
    /// Record `value` for `sensor` now (charged as one mailbox write).
    pub fn record(&self, sensor: &'static str, value: i64) {
        self.tx.send(TraceEvent::now(sensor, value));
    }
}

/// Spawn a local monitor thread on `proc` (a *dedicated* processor in
/// the paper's setup). Returns the probe port for application threads
/// and a join handle yielding the final [`MonitorReport`].
///
/// `poll` is the monitor's processing period: it drains its mailbox, then
/// sleeps — the source of the loosely-coupled lag. The monitor exits when
/// every [`ProbePort`] clone has been dropped.
pub fn spawn_local_monitor(proc: ProcId, poll: Duration) -> (ProbePort, JoinHandle<MonitorReport>) {
    let (tx, rx): (Sender<TraceEvent>, Receiver<TraceEvent>) = channel_on(proc.node());
    let handle = cthreads::fork(proc, "local-monitor", move || run_monitor(rx, poll));
    (ProbePort { tx }, handle)
}

fn run_monitor(rx: Receiver<TraceEvent>, poll: Duration) -> MonitorReport {
    struct Acc {
        count: u64,
        min: i64,
        max: i64,
        sum: i64,
        last: i64,
        lag_sum: u64,
    }
    let mut accs: HashMap<&'static str, Acc> = HashMap::new();
    let mut events = 0u64;
    // Polling loop: the periodic drain is exactly what makes this
    // pipeline loosely coupled — observations sit in the mailbox for up
    // to one polling period before they are processed.
    loop {
        let batch = rx.drain();
        if batch.is_empty() && rx.is_closed() {
            break;
        }
        for ev in batch {
            process(&mut accs, &mut events, ev);
        }
        ctx::sleep(poll);
    }

    fn process(accs: &mut HashMap<&'static str, Acc>, events: &mut u64, ev: TraceEvent) {
        *events += 1;
        let lag = ctx::now().saturating_since(VirtualTime(ev.at_nanos)).as_nanos();
        let a = accs.entry(ev.sensor).or_insert(Acc {
            count: 0,
            min: i64::MAX,
            max: i64::MIN,
            sum: 0,
            last: 0,
            lag_sum: 0,
        });
        a.count += 1;
        a.min = a.min.min(ev.value);
        a.max = a.max.max(ev.value);
        a.sum += ev.value;
        a.last = ev.value;
        a.lag_sum += lag;
    }

    MonitorReport {
        sensors: accs
            .into_iter()
            .map(|(k, a)| {
                (
                    k,
                    SensorSummary {
                        count: a.count,
                        min: a.min,
                        max: a.max,
                        mean: a.sum as f64 / a.count as f64,
                        last: a.last,
                        mean_lag_nanos: a.lag_sum / a.count,
                    },
                )
            })
            .collect(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use butterfly_sim::{self as sim, SimConfig};
    use cthreads::fork;

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            processors: n,
            ..SimConfig::default()
        }
    }

    #[test]
    fn monitor_aggregates_observations() {
        let (report, _) = sim::run(cfg(2), || {
            let (port, handle) = spawn_local_monitor(ProcId(1), Duration::micros(100));
            for v in [3, 1, 7, 5] {
                port.record("waiting", v);
                ctx::advance(Duration::micros(50));
            }
            port.record("other", 42);
            drop(port);
            handle.join()
        })
        .unwrap();
        assert_eq!(report.events, 5);
        let w = report.sensor("waiting").unwrap();
        assert_eq!(w.count, 4);
        assert_eq!(w.min, 1);
        assert_eq!(w.max, 7);
        assert_eq!(w.last, 5);
        assert!((w.mean - 4.0).abs() < 1e-9);
        assert_eq!(report.sensor("other").unwrap().count, 1);
        assert!(report.sensor("missing").is_none());
    }

    #[test]
    fn loosely_coupled_monitor_lags_observations() {
        // With a slow polling period, mean delivery lag must be visible —
        // the phenomenon that motivated the closely-coupled lock monitor.
        let (report, _) = sim::run(cfg(2), || {
            let (port, handle) = spawn_local_monitor(ProcId(1), Duration::millis(5));
            for v in 0..20 {
                port.record("waiting", v);
                ctx::advance(Duration::micros(200));
            }
            drop(port);
            handle.join()
        })
        .unwrap();
        let w = report.sensor("waiting").unwrap();
        assert!(
            w.mean_lag_nanos > 500_000,
            "expected visible lag, got {}ns",
            w.mean_lag_nanos
        );
    }

    #[test]
    fn probes_from_multiple_threads() {
        let (report, _) = sim::run(cfg(4), || {
            let (port, handle) = spawn_local_monitor(ProcId(3), Duration::micros(100));
            let workers: Vec<_> = (0..3)
                .map(|p| {
                    let port = port.clone();
                    fork(ProcId(p), format!("w{p}"), move || {
                        for i in 0..10 {
                            port.record("load", i);
                            ctx::advance(Duration::micros(30));
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join();
            }
            drop(port);
            handle.join()
        })
        .unwrap();
        assert_eq!(report.sensor("load").unwrap().count, 30);
    }
}

//! The command router: a line-oriented operator surface over a
//! [`BreakerHub`].
//!
//! One command per line, `ok`/`err` semantics via `Result`, transports
//! layered on top: [`ControlChannel`] (in-process mpsc, for embedding
//! in a service) and [`socket`](crate::socket) (a local Unix socket,
//! for an operator with `nc`). Builtin commands:
//!
//! ```text
//! targets                              list registered lock names
//! health [lock]                        one status line per lock
//! retune <lock> <spin|delay|timeout> <value>   edit one waiting attribute
//! set-policy <lock> <descriptor>       spin | blocking | combined:<n> [+timeout:<ns>]
//! set-algorithm <lock> <label>         any `LockAlgorithm::ALL` label (`help` lists them)
//! quarantine <lock>                    force the breaker open
//! heal <lock>                          end the dwell, start the half-open trial
//! clear-poison <lock>                  clear the poison flag
//! snapshot                             Prometheus-style text exposition
//! help                                 this list
//! ```
//!
//! Every mutation goes through the same live-reconfiguration paths the
//! adaptation policies use (`set_waiting_policy`, quiesce-and-switch
//! `set_algorithm`, `quarantine`/`heal`), so an operator command is
//! exactly as safe mid-traffic as a policy decision.

use std::sync::mpsc;
use std::sync::Arc;

use adaptive_native::{LockAlgorithm, NativeWaitingPolicy};
use thread_monitor::TextSnapshot;

use crate::hub::BreakerHub;
use crate::target::{health_line, retune, ControlTarget};

/// Every engine label, `|`-separated, for usage and error text.
fn algorithm_labels() -> String {
    LockAlgorithm::ALL.map(LockAlgorithm::label).join("|")
}

/// The router. Cheap to clone; all clones share the hub.
#[derive(Clone)]
pub struct ControlPlane {
    hub: Arc<BreakerHub>,
}

impl ControlPlane {
    /// A router over `hub`.
    pub fn new(hub: Arc<BreakerHub>) -> ControlPlane {
        ControlPlane { hub }
    }

    /// The hub behind this router.
    pub fn hub(&self) -> &Arc<BreakerHub> {
        &self.hub
    }

    fn target(&self, name: &str) -> Result<Arc<dyn ControlTarget>, String> {
        self.hub
            .target(name)
            .ok_or_else(|| format!("unknown lock {name:?} (try `targets`)"))
    }

    /// Build the Prometheus-style exposition for every registered lock:
    /// per-lock stats gauges, breaker state codes, and hub totals.
    pub fn snapshot(&self) -> TextSnapshot {
        let mut snap = TextSnapshot::new();
        let states = self.hub.states();
        for (name, state) in &states {
            let Some(t) = self.hub.target(name) else {
                continue;
            };
            let labels = [("lock", name.as_str())];
            let s = t.stats();
            let h = ControlTarget::health(&*t);
            snap.gauge("lock_acquisitions_total", &labels, s.acquisitions as f64)
                .gauge("lock_contended_total", &labels, s.contended as f64)
                .gauge("lock_handoffs_total", &labels, s.handoffs as f64)
                .gauge("lock_timeouts_total", &labels, s.timeouts as f64)
                .gauge("lock_poison_events_total", &labels, s.poison_events as f64)
                .gauge("lock_policy_panics_total", &labels, s.policy_panics as f64)
                .gauge("lock_quarantines_total", &labels, s.quarantines as f64)
                .gauge("lock_heals_total", &labels, s.heals as f64)
                .gauge(
                    "lock_algorithm_switches_total",
                    &labels,
                    s.algorithm_switches as f64,
                )
                .gauge("lock_waiting", &labels, f64::from(h.waiting))
                .gauge("lock_poisoned", &labels, u8::from(h.poisoned).into())
                .gauge("lock_quarantined", &labels, u8::from(h.quarantined).into())
                .gauge("breaker_state", &labels, f64::from(state.code()));
        }
        for (label, polls) in self.hub.dwell_totals() {
            snap.gauge("breaker_dwell_polls_total", &[("state", label)], polls as f64);
        }
        snap.gauge("breaker_polls_total", &[], self.hub.polls() as f64)
            .gauge(
                "breaker_transitions_total",
                &[],
                self.hub.events().len() as f64,
            );
        snap
    }

    /// Execute one command line. `Ok` is the (possibly multi-line)
    /// response body; `Err` a one-line diagnostic.
    pub fn execute(&self, line: &str) -> Result<String, String> {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let arity = |n: usize, usage: &str| -> Result<(), String> {
            if args.len() == n {
                Ok(())
            } else {
                Err(format!("usage: {usage}"))
            }
        };
        match cmd {
            "" => Err("empty command (try `help`)".into()),
            "help" => Ok(format!(
                "commands: targets | health [lock] | \
                 retune <lock> <spin|delay|timeout> <value> | \
                 set-policy <lock> <spin|blocking|combined:N[+timeout:NS]> | \
                 set-algorithm <lock> <{}> | \
                 quarantine <lock> | heal <lock> | clear-poison <lock> | snapshot",
                algorithm_labels()
            )),
            "targets" => {
                let names = self.hub.names();
                if names.is_empty() {
                    Ok("(no targets registered)".into())
                } else {
                    Ok(names.join("\n"))
                }
            }
            "health" => {
                let states = self.hub.states();
                let one = |name: &str| -> Result<String, String> {
                    let t = self.target(name)?;
                    let state = states
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, s)| s.label())
                        .unwrap_or("unknown");
                    Ok(health_line(name, state, &*t))
                };
                match args.as_slice() {
                    [] => {
                        if states.is_empty() {
                            return Ok("(no targets registered)".into());
                        }
                        let lines: Result<Vec<String>, String> =
                            states.iter().map(|(n, _)| one(n)).collect();
                        Ok(lines?.join("\n"))
                    }
                    [name] => one(name),
                    _ => Err("usage: health [lock]".into()),
                }
            }
            "retune" => {
                arity(3, "retune <lock> <spin|delay|timeout> <value>")?;
                let t = self.target(args[0])?;
                let p = retune(t.waiting_policy(), args[1], args[2])?;
                t.set_waiting_policy(p);
                Ok(format!("retuned {} to {}", args[0], p.descriptor()))
            }
            "set-policy" => {
                arity(2, "set-policy <lock> <spin|blocking|combined:N[+timeout:NS]>")?;
                let t = self.target(args[0])?;
                let p = NativeWaitingPolicy::parse(args[1])
                    .ok_or_else(|| format!("bad policy descriptor {:?}", args[1]))?;
                t.set_waiting_policy(p);
                Ok(format!("policy of {} set to {}", args[0], p.descriptor()))
            }
            "set-algorithm" => {
                let labels = algorithm_labels();
                arity(2, &format!("set-algorithm <lock> <{labels}>"))?;
                let t = self.target(args[0])?;
                let algo = LockAlgorithm::from_label(args[1])
                    .ok_or_else(|| format!("unknown algorithm {:?} (one of {labels})", args[1]))?;
                if !t.set_algorithm(algo) {
                    return Err(format!("{} has one engine ({})", args[0], t.algorithm().label()));
                }
                if t.algorithm() == algo {
                    Ok(format!("{} now running {}", args[0], algo.label()))
                } else {
                    Ok(format!(
                        "{} switching to {} (installs at next quiesce)",
                        args[0],
                        algo.label()
                    ))
                }
            }
            "quarantine" => {
                arity(1, "quarantine <lock>")?;
                self.target(args[0])?;
                self.hub.force_open(args[0]);
                Ok(format!("{} breaker forced open", args[0]))
            }
            "heal" => {
                arity(1, "heal <lock>")?;
                self.target(args[0])?;
                self.hub.force_probe(args[0]);
                Ok(format!("{} probing (half-open trial started)", args[0]))
            }
            "clear-poison" => {
                arity(1, "clear-poison <lock>")?;
                let t = self.target(args[0])?;
                if t.clear_poison() {
                    Ok(format!("{} poison cleared", args[0]))
                } else {
                    Ok(format!("{} was not poisoned", args[0]))
                }
            }
            "snapshot" => {
                arity(0, "snapshot")?;
                Ok(self.snapshot().render())
            }
            other => Err(format!("unknown command {other:?} (try `help`)")),
        }
    }
}

type Request = (String, mpsc::Sender<Result<String, String>>);

/// In-process transport: commands in, responses out, over mpsc
/// channels, with the router running on its own thread. Dropping the
/// channel stops the thread.
pub struct ControlChannel {
    tx: mpsc::Sender<Request>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ControlChannel {
    /// Spawn a router thread serving `plane`.
    pub fn spawn(plane: ControlPlane) -> ControlChannel {
        let (tx, rx) = mpsc::channel::<Request>();
        let thread = std::thread::spawn(move || {
            while let Ok((line, reply)) = rx.recv() {
                let _ = reply.send(plane.execute(&line));
            }
        });
        ControlChannel {
            tx,
            thread: Some(thread),
        }
    }

    /// Execute one command on the router thread and wait for the
    /// response. The outer `Err` means the channel is gone.
    pub fn send(&self, line: &str) -> Result<Result<String, String>, String> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send((line.to_string(), reply_tx))
            .map_err(|_| "control channel closed".to_string())?;
        reply_rx
            .recv()
            .map_err(|_| "control channel closed".to_string())
    }
}

impl Drop for ControlChannel {
    fn drop(&mut self) {
        // Close the request side so the router thread's recv() ends.
        let (dead_tx, _) = mpsc::channel();
        self.tx = dead_tx;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_native::{AdaptiveMutex, SPIN_FOREVER};

    fn plane_with(names: &[&str]) -> (ControlPlane, Vec<Arc<AdaptiveMutex<u64>>>) {
        let hub = Arc::new(BreakerHub::default());
        let mut locks = Vec::new();
        for n in names {
            let m = Arc::new(AdaptiveMutex::new(0u64));
            hub.register(*n, m.clone());
            locks.push(m);
        }
        (ControlPlane::new(hub), locks)
    }

    #[test]
    fn targets_and_health_list_the_registry() {
        let (plane, _locks) = plane_with(&["a.lock", "b.lock"]);
        assert_eq!(plane.execute("targets").unwrap(), "a.lock\nb.lock");
        let health = plane.execute("health").unwrap();
        assert_eq!(health.lines().count(), 2);
        assert!(health.contains("a.lock state=closed"));
        let one = plane.execute("health b.lock").unwrap();
        assert!(one.starts_with("b.lock "));
        assert!(one.contains(" policy=combined(64) sample_every=2 "), "{one}");
        assert!(plane.execute("health nope").is_err());
    }

    #[test]
    fn retune_and_set_policy_change_the_live_lock() {
        let (plane, locks) = plane_with(&["hot"]);
        plane.execute("retune hot spin forever").unwrap();
        assert_eq!(locks[0].waiting_policy().spin, SPIN_FOREVER);
        plane.execute("retune hot delay 16").unwrap();
        assert_eq!(locks[0].waiting_policy().delay, 16);
        plane.execute("set-policy hot blocking").unwrap();
        assert_eq!(locks[0].waiting_policy().spin, 0);
        assert!(plane.execute("set-policy hot hammock").is_err());
        assert!(plane.execute("retune hot spin").is_err(), "arity checked");
    }

    #[test]
    fn set_algorithm_switches_an_idle_lock_immediately() {
        let (plane, locks) = plane_with(&["z"]);
        let resp = plane.execute("set-algorithm z flat-combining").unwrap();
        assert!(resp.contains("now running flat-combining"), "{resp}");
        assert_eq!(locks[0].algorithm(), LockAlgorithm::Combining);
        let err = plane.execute("set-algorithm z mcs").unwrap_err();
        assert!(
            err.contains("spin-park|ticket|flat-combining"),
            "the error must list the valid labels: {err}"
        );
        assert_eq!(locks[0].algorithm(), LockAlgorithm::Combining, "a bad label moved the lock");
        let resp = plane.execute("set-algorithm z ticket").unwrap();
        assert!(resp.contains("now running ticket"), "{resp}");
    }

    #[test]
    fn quarantine_heal_and_clear_poison_round_trip() {
        let (plane, locks) = plane_with(&["q"]);
        plane.execute("quarantine q").unwrap();
        assert!(locks[0].is_quarantined());
        assert!(plane.execute("health q").unwrap().contains("state=quarantined"));
        plane.execute("heal q").unwrap();
        assert!(!locks[0].is_quarantined());
        assert!(plane.execute("health q").unwrap().contains("state=half-open"));
        assert_eq!(
            plane.execute("clear-poison q").unwrap(),
            "q was not poisoned"
        );
    }

    #[test]
    fn snapshot_renders_prometheus_lines_for_every_lock() {
        let (plane, locks) = plane_with(&["s1", "s2"]);
        drop(locks[0].lock());
        let text = plane.execute("snapshot").unwrap();
        assert!(text.contains("lock_acquisitions_total{lock=\"s1\"} 1"));
        assert!(text.contains("breaker_state{lock=\"s2\"} 0"));
        assert!(text.contains("breaker_polls_total 0"));
        assert!(text.contains("breaker_dwell_polls_total{state=\"closed\"}"));
    }

    #[test]
    fn unknown_and_empty_commands_are_errors() {
        let (plane, _locks) = plane_with(&[]);
        assert!(plane.execute("").is_err());
        assert!(plane.execute("frobnicate all").is_err());
        assert_eq!(plane.execute("targets").unwrap(), "(no targets registered)");
    }

    #[test]
    fn channel_transport_serves_commands_from_another_thread() {
        let (plane, _locks) = plane_with(&["c"]);
        let chan = ControlChannel::spawn(plane);
        assert_eq!(chan.send("targets").unwrap().unwrap(), "c");
        assert!(chan.send("bogus").unwrap().is_err());
        for _ in 0..4 {
            assert!(chan.send("health c").unwrap().is_ok());
        }
    }
}

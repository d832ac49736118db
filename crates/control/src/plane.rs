//! The command router: a line-oriented operator surface over a
//! [`BreakerHub`].
//!
//! One command per line, `ok`/`err` semantics via `Result`, callable
//! from any thread; [`socket`](crate::socket) (a local Unix socket, for
//! an operator with `nc`) and `asyncx`'s TCP `ctl` carry it. Commands:
//!
//! ```text
//! targets                      list registered lock names
//! health [lock]                one status line per lock
//! get <lock> [attr]            one `name value owner` row per attribute
//! set <lock> <attr> <value>    write one attribute; the operator takes its group
//! release <lock> [attr]        hand the attribute's group, or every group, back
//! quarantine <lock>            force the breaker open
//! heal <lock>                  end the dwell, start the half-open trial
//! clear-poison <lock>          clear the poison flag
//! snapshot                     Prometheus-style text exposition
//! help                         this list
//! ```
//!
//! Attributes: `spin <n|forever>`, `delay <n>`, `timeout <ns|none>` (one
//! group) and, given an engine zoo, `algorithm <label>`. An operator's
//! group is closed to the lock's policy until `release` (a quarantine
//! writes through); writes take the paths the policies use. `set`
//! answers with the row read back, and an engine switch on a busy lock
//! shows once it installs at the next quiesce.

use std::sync::Arc;

use thread_monitor::TextSnapshot;

use crate::hub::BreakerHub;
use crate::target::{health_line, ControlTarget};

/// `lock`'s attributes as `name value owner` rows: every row, or only
/// `attr`'s, which must be one of them.
fn attr_rows(lock: &str, t: &dyn ControlTarget, attr: Option<&str>) -> Result<String, String> {
    let rows: Vec<String> = t
        .attrs()
        .into_iter()
        .filter(|(name, ..)| attr.is_none_or(|a| a == *name))
        .map(|(name, value, operator)| {
            format!("{name} {value} {}", if operator { "operator" } else { "policy" })
        })
        .collect();
    if rows.is_empty() {
        return Err(format!("{lock} has no attribute {:?} (try `get {lock}`)", attr.unwrap_or("")));
    }
    Ok(rows.join("\n"))
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
            "help" => Ok("commands: targets | health [lock] | get <lock> [attr] | \
                 set <lock> <attr> <value> | release <lock> [attr] | quarantine <lock> | \
                 heal <lock> | clear-poison <lock> | snapshot"
                .into()),
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
            "get" => match args.as_slice() {
                [lock] => attr_rows(lock, &*self.target(lock)?, None),
                [lock, attr] => attr_rows(lock, &*self.target(lock)?, Some(attr)),
                _ => Err("usage: get <lock> [attr]".into()),
            },
            "set" => {
                arity(3, "set <lock> <attr> <value>")?;
                let (lock, attr) = (args[0], args[1]);
                let t = self.target(lock)?;
                attr_rows(lock, &*t, Some(attr))?;
                t.set(attr, args[2])?;
                attr_rows(lock, &*t, Some(attr))
            }
            "release" => {
                let (lock, attr) = match args.as_slice() {
                    [lock] => (*lock, None),
                    [lock, attr] => (*lock, Some(*attr)),
                    _ => return Err("usage: release <lock> [attr]".into()),
                };
                let t = self.target(lock)?;
                attr_rows(lock, &*t, attr)?;
                t.release(attr);
                attr_rows(lock, &*t, None)
            }
            "quarantine" => {
                arity(1, "quarantine <lock>")?;
                self.target(args[0])?;
                let edge = if self.hub.force_open(args[0]) { "forced" } else { "already" };
                Ok(format!("{} breaker {edge} open", args[0]))
            }
            "heal" => {
                arity(1, "heal <lock>")?;
                self.target(args[0])?;
                Ok(if self.hub.force_probe(args[0]) {
                    format!("{} probing (half-open trial started)", args[0])
                } else {
                    format!("{} not open, nothing to heal", args[0])
                })
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

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_native::{AdaptiveMutex, LockAlgorithm, SPIN_FOREVER};
    use std::sync::atomic::{AtomicBool, Ordering};

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
        let attrs = " spin=64 delay=64 timeout=none algorithm=spin-park sample_every=2 ";
        assert!(one.contains(attrs), "{one}");
        assert!(plane.execute("health nope").is_err());
    }

    #[test]
    fn set_takes_one_group_for_the_operator_and_release_hands_it_back() {
        let (plane, locks) = plane_with(&["hot"]);
        assert_eq!(plane.execute("set hot spin forever").unwrap(), "spin forever operator");
        assert_eq!(locks[0].waiting_policy().spin, SPIN_FOREVER);
        plane.execute("set hot timeout 5000").unwrap();
        let rows = "spin forever operator\ndelay 64 operator\ntimeout 5000 operator\n\
                    algorithm spin-park policy";
        assert_eq!(plane.execute("get hot").unwrap(), rows);
        assert!(plane.execute("health hot").unwrap().contains(" delay=64@operator "));
        assert_eq!(plane.execute("set hot timeout none").unwrap(), "timeout none operator");
        assert!(plane.execute("set hot spin soon").is_err());
        assert!(plane.execute("set hot jitter 1").is_err());
        assert!(plane.execute("set hot spin").is_err(), "arity checked");
        plane.execute("release hot delay").unwrap();
        assert_eq!(plane.execute("get hot spin").unwrap(), "spin forever policy");
    }

    #[test]
    fn set_algorithm_switches_an_idle_lock_immediately() {
        let (plane, locks) = plane_with(&["z"]);
        let resp = plane.execute("set z algorithm flat-combining").unwrap();
        assert_eq!(resp, "algorithm flat-combining operator");
        assert_eq!(locks[0].algorithm(), LockAlgorithm::Combining);
        let err = plane.execute("set z algorithm mcs").unwrap_err();
        assert!(
            err.contains("spin-park|ticket|flat-combining"),
            "the error must list the valid labels: {err}"
        );
        assert_eq!(locks[0].algorithm(), LockAlgorithm::Combining, "a bad label moved the lock");
        plane.execute("set z algorithm ticket").unwrap();
        assert_eq!(locks[0].algorithm(), LockAlgorithm::Ticket);
    }

    #[test]
    fn an_operators_set_outlasts_the_policy_until_release() {
        let (plane, locks) = plane_with(&["hot"]);
        let (m, stop) = (&*locks[0], AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        *m.lock() += 1;
                    }
                });
            }
            let wait_for = |n| while m.stats().acquisitions < n { std::thread::yield_now() };
            wait_for(1_000);
            plane.execute("set hot spin 0").unwrap();
            let (at_set, reconfigs) = (m.stats().acquisitions, m.stats().reconfigurations);
            wait_for(at_set + 10_000);
            stop.store(true, Ordering::Relaxed);
            assert_eq!(m.waiting_policy().spin, 0, "the policy overwrote the operator");
            assert_eq!(m.stats().reconfigurations, reconfigs, "a refused decision counted");
        });
        plane.execute("release hot spin").unwrap();
        // Uncontended, `simple-adapt` decides pure spin at its next
        // sample, at most one backed-off period (64) away.
        let back = (0..2 * 64).any(|_| {
            drop(m.lock());
            m.waiting_policy().spin == SPIN_FOREVER
        });
        assert!(back, "the policy did not take the group back");
    }

    #[test]
    fn quarantine_and_heal_answer_only_for_an_edge_taken() {
        let (plane, _locks) = plane_with(&["q"]);
        assert_eq!(plane.execute("heal q").unwrap(), "q not open, nothing to heal");
        assert_eq!(plane.execute("quarantine q").unwrap(), "q breaker forced open");
        let edges = plane.hub().events().len();
        assert_eq!(plane.execute("quarantine q").unwrap(), "q breaker already open");
        assert_eq!(plane.hub().events().len(), edges, "no edge, no event");
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

}

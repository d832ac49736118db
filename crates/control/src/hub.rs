//! The breaker hub: a live registry of named locks, each supervised by
//! a [`Breaker`], polled on an interval.
//!
//! The hub is the impure half of the lifecycle and the one supervisor a
//! lock has: each poll snapshots every target's [`LockHealth`], reduces
//! the delta against the previous snapshot to a [`Finding`], steps the
//! pure state machine, and applies whatever [`BreakerAction`]s it
//! returns. Every edge taken is appended to a structured
//! [`BreakerEvent`] log (timestamped and poll-numbered) that the soak
//! harness checks with [`validate_events`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::breaker::{Breaker, BreakerAction, BreakerConfig, BreakerState, Finding, Transition};
use crate::target::ControlTarget;
use adaptive_native::LockHealth;

/// One structured lifecycle transition, as recorded by the hub.
#[derive(Debug, Clone, Serialize)]
pub struct BreakerEvent {
    /// Name of the lock whose breaker moved.
    pub target: String,
    /// Hub poll sequence number at which the edge was taken (operator
    /// overrides reuse the latest completed poll's number).
    pub poll: u64,
    /// Nanoseconds since the hub was created.
    pub at_nanos: u64,
    /// State before the edge.
    pub from: BreakerState,
    /// State after the edge.
    pub to: BreakerState,
    /// Why the edge was taken.
    pub reason: String,
    /// Waiters observed on the target when the edge was taken.
    pub waiting: u32,
}

struct HubTarget {
    probe: Arc<dyn ControlTarget>,
    breaker: Breaker,
    last: Option<LockHealth>,
}

struct HubInner {
    targets: BTreeMap<String, HubTarget>,
    events: Vec<BreakerEvent>,
}

/// Registry + supervisor. Shared (`Arc`) between the poll loop, the
/// command router, and the workload.
pub struct BreakerHub {
    inner: Mutex<HubInner>,
    config: BreakerConfig,
    start: Instant,
    polls: AtomicU64,
}

impl Default for BreakerHub {
    fn default() -> BreakerHub {
        BreakerHub::new(BreakerConfig::default())
    }
}

impl BreakerHub {
    /// An empty hub.
    pub fn new(config: BreakerConfig) -> BreakerHub {
        BreakerHub {
            inner: Mutex::new(HubInner {
                targets: BTreeMap::new(),
                events: Vec::new(),
            }),
            config,
            start: Instant::now(),
            polls: AtomicU64::new(0),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, HubInner> {
        // The hub keeps working even if a panic unwound through a
        // holder (nothing inside is left half-updated: every mutation
        // is a push or a field store).
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Register a lock under `name` (replacing any previous entry with
    /// that name; its breaker starts closed).
    pub fn register(&self, name: impl Into<String>, probe: Arc<dyn ControlTarget>) {
        self.locked().targets.insert(
            name.into(),
            HubTarget {
                probe,
                breaker: Breaker::new(self.config),
                last: None,
            },
        );
    }

    /// Remove `name` from the registry (a retired lock — e.g. a shard
    /// that was split — stops being polled; its past events stay in the
    /// log). Returns whether the name was known.
    pub fn unregister(&self, name: &str) -> bool {
        self.locked().targets.remove(name).is_some()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.locked().targets.keys().cloned().collect()
    }

    /// Look up a target by name.
    pub fn target(&self, name: &str) -> Option<Arc<dyn ControlTarget>> {
        self.locked().targets.get(name).map(|t| Arc::clone(&t.probe))
    }

    /// Breaker state per target, sorted by name.
    pub fn states(&self) -> Vec<(String, BreakerState)> {
        self.locked()
            .targets
            .iter()
            .map(|(n, t)| (n.clone(), t.breaker.state()))
            .collect()
    }

    /// Completed polls.
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Snapshot the event log.
    pub fn events(&self) -> Vec<BreakerEvent> {
        self.locked().events.clone()
    }

    /// Polls each breaker has spent per state, summed over targets and
    /// keyed by [`BreakerState::label`].
    pub fn dwell_totals(&self) -> BTreeMap<&'static str, u64> {
        let inner = self.locked();
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for state in BreakerState::ALL {
            let sum: u64 = inner
                .targets
                .values()
                .map(|t| t.breaker.dwell_polls(state))
                .sum();
            totals.insert(state.label(), sum);
        }
        totals
    }

    /// Reduce two consecutive health snapshots to this interval's
    /// finding. Ordered by severity of evidence: a fresh policy panic
    /// outranks a fresh poisoning outranks a stall.
    fn finding(prev: &LockHealth, now: &LockHealth) -> Finding {
        if now.policy_panics > prev.policy_panics {
            Finding::PolicyPanic
        } else if now.poisoned && !prev.poisoned {
            Finding::Poison
        } else if now.waiting > 0
            && prev.waiting > 0
            && now.acquisitions == prev.acquisitions
            && now.handoffs == prev.handoffs
        {
            Finding::Stall
        } else {
            Finding::Clear
        }
    }

    fn record(
        inner: &mut HubInner,
        name: &str,
        poll: u64,
        at_nanos: u64,
        waiting: u32,
        transitions: &[Transition],
    ) {
        for t in transitions {
            inner.events.push(BreakerEvent {
                target: name.to_string(),
                poll,
                at_nanos,
                from: t.from,
                to: t.to,
                reason: t.reason.to_string(),
                waiting,
            });
        }
    }

    fn apply(probe: &dyn ControlTarget, actions: &[BreakerAction]) {
        for a in actions {
            match a {
                BreakerAction::Quarantine => probe.quarantine(),
                BreakerAction::Nudge => {
                    probe.nudge();
                }
                BreakerAction::Heal => {
                    probe.heal();
                }
            }
        }
    }

    /// Examine every target once: derive findings, step the breakers,
    /// apply their actions, log the edges. Returns the number of edges
    /// taken this poll. The first poll per target only baselines.
    pub fn poll(&self) -> usize {
        let poll = self.polls.fetch_add(1, Ordering::Relaxed) + 1;
        let at_nanos = self.start.elapsed().as_nanos() as u64;
        let mut inner = self.locked();
        let inner = &mut *inner;
        let mut edges = 0;
        // Step each breaker while borrowing the map mutably; events are
        // buffered per target then appended.
        let names: Vec<String> = inner.targets.keys().cloned().collect();
        for name in names {
            let (transitions, actions, probe, waiting) = {
                let t = inner.targets.get_mut(&name).expect("name from keys()");
                let now = ControlTarget::health(&*t.probe);
                let step = match t.last {
                    Some(prev) => t.breaker.step(Self::finding(&prev, &now)),
                    None => Default::default(),
                };
                t.last = Some(now);
                // While the breaker holds a lock open, keep the
                // mutex-side quarantine in force if its internal
                // backoff ran down first — gated on the mutex's own
                // state, so a long sentence is not a re-quarantine
                // storm.
                if t.breaker.state() == BreakerState::Quarantined
                    && step.transitions.is_empty()
                    && !now.quarantined
                {
                    t.probe.quarantine();
                }
                (step.transitions, step.actions, Arc::clone(&t.probe), now.waiting)
            };
            edges += transitions.len();
            Self::record(inner, &name, poll, at_nanos, waiting, &transitions);
            Self::apply(&*probe, &actions);
        }
        edges
    }

    /// Operator override: force `name`'s breaker open and quarantine
    /// the lock. Returns whether an edge was taken: none if already open.
    pub fn force_open(&self, name: &str) -> bool {
        self.override_with(name, |b| b.force_open())
    }

    /// Operator override: end `name`'s dwell and start the half-open
    /// trial now. Returns whether an edge was taken: none unless open.
    pub fn force_probe(&self, name: &str) -> bool {
        self.override_with(name, |b| b.force_probe())
    }

    fn override_with(
        &self,
        name: &str,
        f: impl FnOnce(&mut Breaker) -> crate::breaker::BreakerStep,
    ) -> bool {
        let poll = self.polls();
        let at_nanos = self.start.elapsed().as_nanos() as u64;
        let mut inner = self.locked();
        let inner = &mut *inner;
        let Some(t) = inner.targets.get_mut(name) else {
            return false;
        };
        let step = f(&mut t.breaker);
        let waiting = ControlTarget::health(&*t.probe).waiting;
        let probe = Arc::clone(&t.probe);
        Self::record(inner, name, poll, at_nanos, waiting, &step.transitions);
        Self::apply(&*probe, &step.actions);
        !step.transitions.is_empty()
    }

    /// Run the hub on a background thread, polling every `interval`,
    /// until the handle is stopped or dropped.
    pub fn spawn(self: &Arc<Self>, interval: Duration) -> HubHandle {
        let hub = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                hub.poll();
                std::thread::park_timeout(interval);
            }
        });
        HubHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// Handle to a background hub poll loop.
pub struct HubHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HubHandle {
    /// Stop and join the poll loop.
    pub fn stop(mut self) {
        self.signal();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn signal(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }
}

impl Drop for HubHandle {
    fn drop(&mut self) {
        self.signal();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Validate the full hub event log: per target, the edges must form a
/// legal chain from `Closed`. Returns the first violation.
pub fn validate_events(events: &[BreakerEvent]) -> Result<(), String> {
    let mut chains: BTreeMap<&str, Vec<Transition>> = BTreeMap::new();
    for ev in events {
        chains.entry(&ev.target).or_default().push(Transition {
            from: ev.from,
            to: ev.to,
            // Reasons are not part of legality; a static placeholder
            // keeps `Transition` copy-friendly.
            reason: "",
        });
    }
    for (target, chain) in chains {
        crate::breaker::validate_chain(chain.iter())
            .map_err(|e| format!("target {target}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_native::AdaptiveMutex;

    #[test]
    fn stalled_lock_walks_the_full_lifecycle() {
        let hub = BreakerHub::default();
        let m = Arc::new(AdaptiveMutex::new(0u32));
        hub.register("app.lock", m.clone());

        // Wedge it: hold the lock while a real waiter blocks.
        let g = m.lock();
        let m2 = m.clone();
        let waiter = std::thread::spawn(move || drop(m2.lock()));
        while m.waiting_now() == 0 {
            std::thread::yield_now();
        }

        hub.poll(); // baseline
        hub.poll(); // waiting>0 twice, no progress: stall -> open
        assert_eq!(
            hub.states(),
            vec![("app.lock".into(), BreakerState::Quarantined)]
        );
        assert!(m.is_quarantined());

        // Release; the waiter drains. The breaker serves its dwell
        // (clear polls), trials, and heals.
        drop(g);
        waiter.join().expect("waiter completes");
        let mut polls = 0;
        while hub.states()[0].1 != BreakerState::Closed && polls < 32 {
            hub.poll();
            polls += 1;
        }
        assert_eq!(hub.states()[0].1, BreakerState::Closed, "healed and re-armed");
        let events = hub.events();
        validate_events(&events).expect("legal chain");
        assert!(
            events
                .iter()
                .any(|e| e.to == BreakerState::Healed && e.reason == "trial-clean"),
            "must pass through Healed: {events:?}"
        );
        let quarantines = m.stats().quarantines;
        assert!(
            (1..=3).contains(&quarantines),
            "one incident must not spam quarantines, got {quarantines}"
        );
    }

    #[test]
    fn operator_overrides_are_logged_and_applied() {
        let hub = BreakerHub::default();
        let m = Arc::new(AdaptiveMutex::new(()));
        hub.register("db", m.clone());
        assert!(!hub.force_open("nope"));
        assert!(hub.force_open("db"));
        assert!(m.is_quarantined());
        assert_eq!(hub.states()[0].1, BreakerState::Quarantined);
        assert!(hub.force_probe("db"));
        assert!(!m.is_quarantined(), "probe heals the mutex side");
        assert_eq!(hub.states()[0].1, BreakerState::HalfOpen);
        validate_events(&hub.events()).expect("legal chain");
    }

    #[test]
    fn unregister_removes_the_target_but_keeps_its_events() {
        let hub = BreakerHub::default();
        let m = Arc::new(AdaptiveMutex::new(()));
        hub.register("shard-0", m);
        hub.force_open("shard-0");
        assert!(!hub.events().is_empty());
        assert!(hub.unregister("shard-0"));
        assert!(!hub.unregister("shard-0"), "second removal finds nothing");
        assert!(hub.names().is_empty());
        assert_eq!(hub.poll(), 0, "retired targets are no longer polled");
        assert!(!hub.events().is_empty(), "history survives retirement");
    }

    #[test]
    fn findings_follow_the_frame_rule() {
        use Finding::{Clear, Stall};
        let f = |waiting, acquisitions| LockHealth {
            waiting,
            acquisitions,
            ..LockHealth::default()
        };
        // Each row: a run of frames, and the finding of each consecutive pair.
        let table = [
            (
                "busy: waiters, acquisitions advancing",
                vec![f(3, 1), f(3, 2), f(3, 5), f(2, 9)],
                vec![Clear; 3],
            ),
            ("idle: no waiters, no progress", vec![f(0, 7); 5], vec![Clear; 4]),
            ("wedged: waiters across frozen frames", vec![f(2, 4); 3], vec![Stall; 2]),
            (
                "drained, then waiters back",
                vec![f(2, 4), f(2, 4), f(0, 9), f(3, 9), f(3, 9)],
                vec![Stall, Clear, Clear, Stall],
            ),
        ];
        for (case, frames, want) in table {
            let got: Vec<Finding> =
                frames.windows(2).map(|w| BreakerHub::finding(&w[0], &w[1])).collect();
            assert_eq!(got, want, "{case}");
        }
    }

    #[test]
    fn the_background_loop_quarantines_a_wedged_lock_and_joins_on_stop_or_drop() {
        let hub = Arc::new(BreakerHub::default());
        let m = Arc::new(AdaptiveMutex::new(0u32));
        hub.register("app.lock", m.clone());
        let g = m.lock();
        let m2 = m.clone();
        let waiter = std::thread::spawn(move || drop(m2.lock()));
        while m.waiting_now() == 0 {
            std::thread::yield_now();
        }

        // No manual poll: the loop alone condemns the lock.
        let handle = hub.spawn(Duration::from_millis(1));
        let deadline = Instant::now() + Duration::from_secs(10);
        while hub.states()[0].1 != BreakerState::Quarantined {
            assert!(Instant::now() < deadline, "the loop never quarantined the lock");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(m.is_quarantined());
        handle.stop();
        assert_eq!(Arc::strong_count(&hub), 1, "stop joined the loop's thread");
        drop(g);
        waiter.join().expect("waiter completes");

        let polls = hub.polls();
        let handle = hub.spawn(Duration::from_millis(1));
        while hub.polls() == polls {
            std::thread::yield_now();
        }
        drop(handle);
        assert_eq!(Arc::strong_count(&hub), 1, "drop joined the loop's thread");
        let polls = hub.polls();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(hub.polls(), polls, "no poll after the drop");
    }
}

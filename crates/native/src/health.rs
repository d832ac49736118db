//! Liveness watchdog for the native lock stack.
//!
//! The feedback loop `M --v_i--> P --d_c--> Ψ` assumes its own machinery
//! stays healthy; the [`Watchdog`] is the part that checks the
//! assumption. It polls a set of [`HealthProbe`] targets (any
//! [`AdaptiveMutex`](crate::AdaptiveMutex)) and intervenes when a target
//! shows a *stall*: threads are waiting but no acquisition or handoff
//! has completed for a full poll interval. The intervention is the
//! paper's safe endpoint — [`HealthProbe::quarantine`] snaps the waiting
//! policy to pure blocking and disables adaptation (the mutex itself
//! retries re-enabling it with exponential backoff) — plus a
//! [`HealthProbe::nudge`]: an acquire/release that re-runs the contended
//! release path, granting any waiter a lost wakeup left stranded.
//!
//! The watchdog is deliberately poll-driven and synchronous at its core
//! ([`Watchdog::poll`]), so tests can drive it deterministically;
//! [`Watchdog::spawn`] wraps it in a background thread for production
//! use.
//!
//! Memory-ordering audit: no `SeqCst` anywhere in this module. The
//! `stop` flag is a Release store / Acquire load pair (the poller must
//! observe everything published before shutdown), and the probe
//! counters are Relaxed (monotonic telemetry; exactness is only needed
//! after the poller thread is joined).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Point-in-time health snapshot of one lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockHealth {
    /// Threads currently waiting (spinning or parked).
    pub waiting: u32,
    /// Successful acquisitions so far.
    pub acquisitions: u64,
    /// Direct handoffs so far.
    pub handoffs: u64,
    /// Whether the lock is currently held.
    pub locked: bool,
    /// Whether the waiter queue is non-empty.
    pub queued: bool,
    /// Whether the lock is poisoned (a holder panicked).
    pub poisoned: bool,
    /// Whether adaptation is currently quarantined.
    pub quarantined: bool,
    /// Adaptation-policy callbacks that have panicked so far (each one
    /// quarantined the lock from the inside). A count rather than a
    /// flag so a supervisor can detect *repeated* policy panics across
    /// polls and escalate instead of treating them as one incident.
    pub policy_panics: u64,
    /// Acquisitions between monitor samples right now (`0`: the monitor
    /// is off). Read-only: on a self-paced lock the feedback kernel
    /// moves it between 2 and 64.
    pub sample_period: u64,
}

/// A lock the watchdog can examine and heal.
pub trait HealthProbe: Send + Sync {
    /// Snapshot the target's health.
    fn health(&self) -> LockHealth;

    /// Degrade to the safe static endpoint (pure blocking) and disable
    /// adaptation; the target re-enables it later with backoff.
    fn quarantine(&self);

    /// Attempt to un-wedge the target without perturbing its users: if
    /// the lock is free, acquire and release it so the contended release
    /// path re-runs waiter grant/prune. Returns whether the nudge ran.
    fn nudge(&self) -> bool;
}

/// One watchdog intervention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogEvent {
    /// Label of the target that stalled.
    pub target: String,
    /// The health snapshot that triggered the intervention.
    pub health: LockHealth,
    /// Whether the nudge ran (the lock was free to acquire).
    pub nudged: bool,
}

struct WatchTarget {
    label: String,
    probe: Arc<dyn HealthProbe>,
    last: Option<LockHealth>,
    /// Whether the previous poll already intervened on a stall that is
    /// still in force. Interventions are edge-triggered: a target that
    /// stays stalled across many polls is quarantined exactly once, and
    /// only re-quarantined after it makes progress (or drains its
    /// waiters) and then stalls *again*.
    stalled: bool,
}

/// Polls registered locks and quarantines + nudges any that stall.
///
/// Detection rule: a target is stalled when one full poll interval
/// passes with `waiting > 0` and neither `acquisitions` nor `handoffs`
/// advancing — waiters exist but nobody is making progress, which is
/// exactly the stranded-waiter / quiescence violation the oracles check
/// for at test time.
#[derive(Default)]
pub struct Watchdog {
    targets: Vec<WatchTarget>,
    events: Vec<WatchdogEvent>,
}

impl Watchdog {
    /// A watchdog with no targets.
    pub fn new() -> Watchdog {
        Watchdog::default()
    }

    /// Register a lock to watch.
    pub fn watch(&mut self, label: impl Into<String>, probe: Arc<dyn HealthProbe>) {
        self.targets.push(WatchTarget {
            label: label.into(),
            probe,
            last: None,
            stalled: false,
        });
    }

    /// Examine every target once against its previous snapshot,
    /// intervening on stalls. Returns the number of interventions this
    /// poll. Call on an interval (or from a test, interleaved with the
    /// workload) — the first poll only baselines.
    ///
    /// Interventions are gated on a state *change*: a stall fires
    /// quarantine + nudge once when it is first detected, not again on
    /// every subsequent poll while the same stall persists (quarantine
    /// is level-triggered on the mutex side, so re-asserting it every
    /// interval only inflated the backoff and the stats). The gate
    /// re-arms as soon as the target makes progress or drains its
    /// waiters.
    pub fn poll(&mut self) -> usize {
        let mut interventions = 0;
        for t in &mut self.targets {
            let now = t.probe.health();
            if let Some(prev) = t.last {
                let no_progress =
                    now.acquisitions == prev.acquisitions && now.handoffs == prev.handoffs;
                let stalled = now.waiting > 0 && prev.waiting > 0 && no_progress;
                if stalled && !t.stalled {
                    t.probe.quarantine();
                    let nudged = t.probe.nudge();
                    self.events.push(WatchdogEvent {
                        target: t.label.clone(),
                        health: now,
                        nudged,
                    });
                    interventions += 1;
                }
                t.stalled = stalled;
            }
            t.last = Some(now);
        }
        interventions
    }

    /// Every intervention so far.
    pub fn events(&self) -> &[WatchdogEvent] {
        &self.events
    }

    /// Run the watchdog on a background thread, polling every
    /// `interval`. The returned handle stops and joins the thread on
    /// [`WatchdogHandle::stop`] (or on drop), handing the watchdog —
    /// and its event log — back.
    pub fn spawn(self, interval: Duration) -> WatchdogHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut dog = self;
        let thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                dog.poll();
                std::thread::park_timeout(interval);
            }
            dog
        });
        WatchdogHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// Handle to a background [`Watchdog`] thread.
pub struct WatchdogHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Watchdog>>,
}

impl WatchdogHandle {
    /// Stop the watchdog and recover it (with its event log).
    pub fn stop(mut self) -> Watchdog {
        self.signal();
        self.thread
            .take()
            .expect("thread present until stop or drop")
            .join()
            .unwrap_or_default()
    }

    fn signal(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }
}

impl Drop for WatchdogHandle {
    fn drop(&mut self) {
        self.signal();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A scripted probe: plays back a fixed sequence of health
    /// snapshots and records quarantine/nudge calls.
    struct Scripted {
        frames: Mutex<Vec<LockHealth>>,
        quarantines: std::sync::atomic::AtomicU64,
        nudges: std::sync::atomic::AtomicU64,
    }

    impl Scripted {
        fn new(frames: Vec<LockHealth>) -> Arc<Scripted> {
            Arc::new(Scripted {
                frames: Mutex::new(frames),
                quarantines: std::sync::atomic::AtomicU64::new(0),
                nudges: std::sync::atomic::AtomicU64::new(0),
            })
        }

        fn quarantined(&self) -> bool {
            self.quarantines.load(Ordering::Relaxed) > 0
        }
    }

    impl HealthProbe for Scripted {
        fn health(&self) -> LockHealth {
            let mut f = self.frames.lock().unwrap();
            if f.len() > 1 {
                f.remove(0)
            } else {
                f[0]
            }
        }

        fn quarantine(&self) {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
        }

        fn nudge(&self) -> bool {
            self.nudges.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    fn frame(waiting: u32, acquisitions: u64) -> LockHealth {
        LockHealth {
            waiting,
            acquisitions,
            ..LockHealth::default()
        }
    }

    #[test]
    fn progress_is_never_flagged() {
        // Waiters present but acquisitions advancing: healthy contention.
        let probe = Scripted::new(vec![frame(3, 1), frame(3, 2), frame(3, 5), frame(2, 9)]);
        let mut dog = Watchdog::new();
        dog.watch("busy", Arc::clone(&probe) as Arc<dyn HealthProbe>);
        for _ in 0..4 {
            assert_eq!(dog.poll(), 0);
        }
        assert!(!probe.quarantined());
        assert!(dog.events().is_empty());
    }

    #[test]
    fn idle_lock_is_never_flagged() {
        // No waiters, no progress: just idle, not stalled.
        let probe = Scripted::new(vec![frame(0, 7)]);
        let mut dog = Watchdog::new();
        dog.watch("idle", Arc::clone(&probe) as Arc<dyn HealthProbe>);
        for _ in 0..5 {
            assert_eq!(dog.poll(), 0);
        }
        assert!(!probe.quarantined());
    }

    #[test]
    fn stall_triggers_quarantine_and_nudge() {
        // Two consecutive frames with waiters and frozen counters.
        let probe = Scripted::new(vec![frame(2, 4)]);
        let mut dog = Watchdog::new();
        dog.watch("wedged", Arc::clone(&probe) as Arc<dyn HealthProbe>);
        assert_eq!(dog.poll(), 0, "first poll only baselines");
        assert_eq!(dog.poll(), 1, "second identical frame is a stall");
        assert!(probe.quarantined());
        assert_eq!(probe.nudges.load(Ordering::Relaxed), 1);
        let ev = &dog.events()[0];
        assert_eq!(ev.target, "wedged");
        assert!(ev.nudged);
    }

    #[test]
    fn persistent_stall_is_quarantined_exactly_once() {
        // Regression: a target that stays stalled used to be
        // re-quarantined on *every* poll, inflating the mutex's
        // exponential backoff and drowning the event log. The
        // intervention must fire on the not-stalled → stalled edge only.
        let probe = Scripted::new(vec![frame(2, 4)]);
        let mut dog = Watchdog::new();
        dog.watch("wedged", Arc::clone(&probe) as Arc<dyn HealthProbe>);
        assert_eq!(dog.poll(), 0, "baseline");
        assert_eq!(dog.poll(), 1, "stall detected");
        for _ in 0..10 {
            assert_eq!(dog.poll(), 0, "same stall must not re-fire");
        }
        assert_eq!(probe.quarantines.load(Ordering::Relaxed), 1);
        assert_eq!(probe.nudges.load(Ordering::Relaxed), 1);
        assert_eq!(dog.events().len(), 1);
    }

    #[test]
    fn recovery_rearms_the_stall_gate() {
        // Stall → progress → stall again: two distinct incidents, two
        // interventions.
        let probe = Scripted::new(vec![
            frame(2, 4), // baseline
            frame(2, 4), // stall #1 detected here
            frame(0, 9), // progress, waiters drained: gate re-arms
            frame(3, 9), // waiters back, but prev frame had none
            frame(3, 9), // stall #2 detected here
        ]);
        let mut dog = Watchdog::new();
        dog.watch("flappy", Arc::clone(&probe) as Arc<dyn HealthProbe>);
        assert_eq!(dog.poll(), 0);
        assert_eq!(dog.poll(), 1, "first stall");
        assert_eq!(dog.poll(), 0, "progress frame");
        assert_eq!(dog.poll(), 0, "waiters back, but only one frame so far");
        assert_eq!(dog.poll(), 1, "second stall after recovery");
        assert_eq!(dog.poll(), 0, "second stall persists without re-firing");
        assert_eq!(probe.quarantines.load(Ordering::Relaxed), 2);
        assert_eq!(dog.events().len(), 2);
    }

    #[test]
    fn spawned_watchdog_stops_and_returns_its_log() {
        let probe = Scripted::new(vec![frame(1, 1)]);
        let mut dog = Watchdog::new();
        dog.watch("bg", Arc::clone(&probe) as Arc<dyn HealthProbe>);
        let handle = dog.spawn(Duration::from_millis(1));
        // Let it poll a few times, then stop.
        while !probe.quarantined() {
            std::thread::yield_now();
        }
        let dog = handle.stop();
        assert!(!dog.events().is_empty());
    }
}

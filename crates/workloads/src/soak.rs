//! The chaos soak: long-running contention under a seeded fault storm,
//! supervised by the control plane, graded against hard oracles.
//!
//! One run wires the whole robustness stack together:
//!
//! * `locks` adaptive mutexes, each protecting a monotone counter,
//!   registered by name in a [`BreakerHub`];
//! * `threads` workers hammering seeded-random locks; the [`FaultPlan`]
//!   injects critical-section panics (absorbed by `catch_unwind`,
//!   poisoning the lock) and dooms a deterministic subset of workers to
//!   die mid-storm;
//! * unpark drops/delays and monitor stalls flow through the same plan
//!   via a storm gate (a [`FaultHook`] wrapper) that is open only
//!   during the storm phase;
//! * a command driver issues seeded-random control traffic (`health`,
//!   `set` of `spin`, `timeout` or `algorithm`, `quarantine`, `heal`,
//!   `release`, `clear-poison`, `snapshot`) through
//!   [`ControlPlane::execute`], concurrently with everything else;
//! * scripted stall episodes wedge a lock (guard held across polls, a
//!   real waiter queued) so the hub sees a genuinely frozen lock,
//!   and the run measures how many supervisor polls the breaker needs
//!   to reach `Quarantined`;
//! * after the storm an operator `heal` sweep starts half-open trials,
//!   and a convergence loop polls until every breaker re-arms.
//!
//! The hub is polled *by the coordinator thread itself* (not a
//! background [`BreakerHub::spawn`] loop), so "polls to quarantine" is
//! a deterministic count: the wedge is fully established strictly
//! between two polls, the next poll baselines the frozen frame, and the
//! one after that must take `Closed → Suspect → Quarantined`.
//!
//! [`SoakResult`] carries everything the oracles grade — conservation
//! (counter values vs successful ops), event-chain legality, per-
//! episode polls-to-quarantine, heal coverage, quiescence — and the
//! grader lives in `tests/control_soak.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use adaptive_control::{
    validate_events, BreakerEvent, BreakerHub, BreakerState, ControlPlane,
};
use adaptive_native::{
    AdaptiveMutex, FaultHook, FaultPlan, FaultSpec, LockAlgorithm, PolicyChoice,
};
use std::collections::BTreeMap;

/// Configuration of one soak run. Durations are denominated in
/// supervisor polls (`poll_millis` each), so a spec scales between a
/// CI smoke and a long soak by changing one number.
#[derive(Debug, Clone)]
pub struct SoakSpec {
    /// Locks in the registry (each protects its own counter).
    pub locks: usize,
    /// Worker threads (before storm kills).
    pub threads: usize,
    /// Storm length in supervisor polls (stall episodes extend it).
    pub storm_polls: u64,
    /// Calm (fault-free) length in supervisor polls.
    pub calm_polls: u64,
    /// Supervisor poll interval.
    pub poll_millis: u64,
    /// Scripted wedge-a-lock stall episodes to run during the storm.
    pub stall_episodes: usize,
    /// The seeded fault storm (CS panics, unpark drops, monitor
    /// stalls, worker kills).
    pub faults: FaultSpec,
    /// Seed for the command driver's and the workers' own choices
    /// (independent of the fault seed).
    pub command_seed: u64,
    /// Waiting policy the locks are built with.
    pub policy: PolicyChoice,
}

impl SoakSpec {
    /// A CI-sized storm: a few seconds end to end, every fault kind
    /// exercised, deterministic in its two seeds.
    pub fn quick(seed: u64) -> SoakSpec {
        SoakSpec {
            locks: 4,
            threads: 8,
            storm_polls: 24,
            calm_polls: 8,
            poll_millis: 25,
            stall_episodes: 3,
            faults: FaultSpec::seeded(seed)
                .with_cs_panics(64)
                .with_unpark_drops(96)
                .with_monitor_stalls(48)
                .with_worker_kills(25, 400),
            command_seed: seed ^ 0xc0_ffee,
            policy: PolicyChoice::Adaptive { threshold: 2, n: 32 },
        }
    }
}

/// One scripted stall episode's outcome.
#[derive(Debug, Clone)]
pub struct StallEpisode {
    /// The wedged lock.
    pub target: String,
    /// Supervisor polls from wedge establishment to the breaker
    /// reaching `Quarantined`; `None` if it never did within the
    /// episode's bounded window (an oracle failure).
    pub polls_to_quarantine: Option<u64>,
}

/// Everything a soak run measured, ready for the oracles.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Total supervisor polls taken.
    pub polls: u64,
    /// Successful (non-panicked) critical sections across all workers.
    pub ops: u64,
    /// Sum of the protected counters at quiescence.
    pub counter_total: u64,
    /// Conservation oracle: every lock's counter equals the successful
    /// ops recorded against it.
    pub conservation_ok: bool,
    /// Injected CS panics absorbed by workers.
    pub panics_absorbed: u64,
    /// Workers that the fault plan doomed and that died mid-run.
    pub workers_killed: usize,
    /// Fault-plan tallies: injected CS panics.
    pub faults_cs_panics: u64,
    /// Fault-plan tallies: unparks dropped.
    pub faults_unparks_dropped: u64,
    /// Fault-plan tallies: monitor samples stalled.
    pub faults_monitor_stalls: u64,
    /// Control commands that returned `Ok`.
    pub commands_ok: u64,
    /// Control commands that returned `Err` (the driver only issues
    /// well-formed commands, so the oracle expects zero).
    pub commands_err: u64,
    /// Operator `heal` commands issued by the calm-phase sweep.
    pub heal_commands: u64,
    /// Scripted stall episodes actually run.
    pub episodes: Vec<StallEpisode>,
    /// Episodes skipped because no breaker was `Closed` to wedge.
    pub episodes_skipped: usize,
    /// Extra polls past the calm phase before every breaker re-armed.
    pub convergence_polls: u64,
    /// Targets whose breaker opened (reached `Quarantined`) at least
    /// once.
    pub opened_targets: usize,
    /// Opened targets that later recorded a `Healed` edge.
    pub healed_targets: usize,
    /// Every opened breaker healed and every breaker finished `Closed`.
    pub all_healed: bool,
    /// First event-chain legality violation, if any.
    pub illegal: Option<String>,
    /// Zero lost waiters at quiescence: every lock free and waiter-less
    /// after all threads joined.
    pub quiescent: bool,
    /// Lifecycle transitions recorded (length of [`SoakResult::events`]).
    pub transitions: usize,
    /// Polls spent per breaker state, summed over targets.
    pub dwell: BTreeMap<String, u64>,
    /// The full structured event log, for traces and debugging.
    pub events: Vec<BreakerEvent>,
}

/// Gates a [`FaultPlan`] behind a storm flag: faults flow only while
/// the flag is up, so the calm phase is genuinely fault-free without
/// rebuilding the locks (the hook on a mutex is install-once).
struct StormGate {
    plan: Arc<FaultPlan>,
    active: AtomicBool,
}

impl FaultHook for StormGate {
    fn before_unpark(&self) -> bool {
        self.active.load(Ordering::Relaxed) && FaultHook::before_unpark(&*self.plan)
    }

    fn stall_monitor_sample(&self) -> bool {
        self.active.load(Ordering::Relaxed) && FaultHook::stall_monitor_sample(&*self.plan)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny seeded stream for worker/driver choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A wedged lock: a holder thread keeps the guard while a dedicated
/// waiter blocks behind it, so the hub's health frames show
/// `waiting > 0` with frozen progress until [`Wedge::release`].
struct Wedge {
    release: mpsc::Sender<()>,
    holder: std::thread::JoinHandle<()>,
    waiter: std::thread::JoinHandle<()>,
}

fn wedge(lock: &Arc<AdaptiveMutex<u64>>) -> Wedge {
    let (release, release_rx) = mpsc::channel::<()>();
    let (ready, ready_rx) = mpsc::channel::<()>();
    let l = Arc::clone(lock);
    let holder = std::thread::spawn(move || {
        let g = l.lock();
        let _ = ready.send(());
        let _ = release_rx.recv();
        drop(g);
    });
    let _ = ready_rx.recv();
    let l = Arc::clone(lock);
    let waiter = std::thread::spawn(move || drop(l.lock()));
    while lock.waiting_now() == 0 {
        std::thread::yield_now();
    }
    Wedge {
        release,
        holder,
        waiter,
    }
}

impl Wedge {
    fn release(self) {
        let _ = self.release.send(());
        let _ = self.holder.join();
        let _ = self.waiter.join();
    }
}

/// The commands the driver draws from (all well-formed, so every reply
/// should be `Ok`). Destructive lifecycle commands are storm-only; the
/// calm phase keeps observation and recovery traffic flowing.
fn draw_command(rng: &mut Rng, names: &[String], storm: bool) -> String {
    let name = &names[rng.below(names.len())];
    let destructive = ["quarantine", "set algorithm", "set spin", "set timeout"];
    let gentle = ["health", "health-one", "targets", "snapshot", "heal", "clear-poison", "release"];
    let pool = if storm {
        rng.below(destructive.len() + gentle.len())
    } else {
        destructive.len() + rng.below(gentle.len())
    };
    match pool {
        0 => format!("quarantine {name}"),
        1 => {
            let algo = LockAlgorithm::ALL[rng.below(LockAlgorithm::ALL.len())];
            format!("set {name} algorithm {}", algo.label())
        }
        2 => {
            let spin = [16u32, 64, 256][rng.below(3)];
            format!("set {name} spin {spin}")
        }
        3 => {
            let timeout = ["none", "5000000"][rng.below(2)];
            format!("set {name} timeout {timeout}")
        }
        4 => "health".into(),
        5 => format!("health {name}"),
        6 => "targets".into(),
        7 => "snapshot".into(),
        8 => format!("heal {name}"),
        9 => format!("clear-poison {name}"),
        _ => format!("release {name}"),
    }
}

/// Run one soak to completion and return its measurements. Panics only
/// on harness-internal errors; oracle violations are *reported* in the
/// result, not asserted, so graders can print context.
pub fn run_soak(spec: &SoakSpec) -> SoakResult {
    let hub = Arc::new(BreakerHub::default());
    let plan = Arc::new(FaultPlan::new(spec.faults));
    let gate = Arc::new(StormGate {
        plan: Arc::clone(&plan),
        active: AtomicBool::new(true),
    });
    // `names[i]` is `locks[i]`'s registry name — built here (not via
    // `hub.names()`) so the index mapping survives lexicographic
    // sorting when `locks >= 10`.
    let names: Vec<String> = (0..spec.locks.max(1)).map(|i| format!("soak.lock{i}")).collect();
    let locks: Vec<Arc<AdaptiveMutex<u64>>> = names
        .iter()
        .map(|name| {
            let m = Arc::new(spec.policy.build_mutex(0u64));
            m.set_fault_hook(Arc::clone(&gate) as Arc<dyn FaultHook>);
            hub.register(name.clone(), m.clone() as Arc<dyn adaptive_control::ControlTarget>);
            m
        })
        .collect();
    let plane = ControlPlane::new(Arc::clone(&hub));

    let stop = AtomicBool::new(false);
    let ok_ops: Vec<AtomicU64> = (0..locks.len()).map(|_| AtomicU64::new(0)).collect();
    let panics_absorbed = AtomicU64::new(0);
    let workers_killed = AtomicU64::new(0);
    let commands_ok = AtomicU64::new(0);
    let commands_err = AtomicU64::new(0);
    let poll_interval = Duration::from_millis(spec.poll_millis.max(1));

    let mut episodes: Vec<StallEpisode> = Vec::new();
    let mut episodes_skipped = 0usize;
    let mut heal_commands = 0u64;
    let mut convergence_polls = 0u64;

    std::thread::scope(|scope| {
        // Workers: hammer seeded-random locks; a doomed worker dies at
        // its kill step (the storm's "worker kill" fault).
        for w in 0..spec.threads {
            let (locks, ok_ops, plan, gate, stop) = (&locks, &ok_ops, &plan, &gate, &stop);
            let (panics_absorbed, workers_killed) = (&panics_absorbed, &workers_killed);
            let mut rng = Rng(spec.command_seed ^ (w as u64).wrapping_mul(0x9e37));
            let doom = plan.worker_doom(w, spec.threads);
            scope.spawn(move || {
                let mut steps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if doom.is_some_and(|at| steps >= at) {
                        workers_killed.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    let k = rng.below(locks.len());
                    let storm = gate.active.load(Ordering::Relaxed);
                    let died = catch_unwind(AssertUnwindSafe(|| {
                        locks[k].with_locked(|v| {
                            if storm {
                                plan.maybe_panic_in_cs();
                            }
                            *v += 1;
                        });
                    }))
                    .is_err();
                    if died {
                        panics_absorbed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        ok_ops[k].fetch_add(1, Ordering::Relaxed);
                    }
                    steps += 1;
                    for _ in 0..rng.below(64) {
                        std::hint::spin_loop();
                    }
                }
            });
        }

        // Command driver: seeded well-formed traffic, concurrent with
        // the workers and the supervisor.
        {
            let (plane, names, gate, stop) = (&plane, &names, &gate, &stop);
            let (commands_ok, commands_err) = (&commands_ok, &commands_err);
            let mut rng = Rng(spec.command_seed ^ 0xd21e);
            let pace = Duration::from_millis((spec.poll_millis / 2).max(1));
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let line = draw_command(&mut rng, names, gate.active.load(Ordering::Relaxed));
                    match plane.execute(&line) {
                        Ok(_) => commands_ok.fetch_add(1, Ordering::Relaxed),
                        Err(_) => commands_err.fetch_add(1, Ordering::Relaxed),
                    };
                    std::thread::sleep(pace);
                }
            });
        }

        // The coordinator: this thread is the supervisor poll loop.
        let step = |hub: &BreakerHub| {
            std::thread::sleep(poll_interval);
            hub.poll();
        };
        let state_of = |name: &str| {
            hub.states()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s)
        };

        // Storm phase, with stall episodes evenly interleaved. An
        // episode wedges a lock whose breaker is Closed, then keeps
        // polling until the breaker opens (bounded window).
        let gap = (spec.storm_polls / (spec.stall_episodes as u64 + 1)).max(1);
        let mut tick = 0u64;
        let mut next_episode = gap;
        let mut attempts = 0usize;
        while tick < spec.storm_polls || episodes.len() + episodes_skipped < spec.stall_episodes
        {
            step(&hub);
            tick += 1;
            if tick > spec.storm_polls.saturating_mul(3) {
                break; // safety net: never storm forever
            }
            if episodes.len() + episodes_skipped >= spec.stall_episodes || tick < next_episode {
                continue;
            }
            next_episode = tick + gap;
            let closed = names
                .iter()
                .position(|n| state_of(n.as_str()) == Some(BreakerState::Closed));
            let Some(idx) = closed else {
                attempts += 1;
                if attempts > spec.stall_episodes * 4 {
                    episodes_skipped += 1; // storm too hot to find a Closed lock
                }
                continue;
            };
            let name = names[idx].clone();
            let w = wedge(&locks[idx]);
            let p0 = hub.polls();
            // Read the quarantine's arrival off the event log, not a
            // momentary state probe: a concurrent operator `heal` can
            // flip the state back before we look, but the edge stays
            // recorded. `poll >= p0` also credits a driver-forced open
            // that raced the wedge (the breaker was open by wedge time,
            // trivially within bound).
            let quarantined_at = |hub: &BreakerHub| {
                hub.events()
                    .iter()
                    .find(|e| {
                        e.target == name && e.to == BreakerState::Quarantined && e.poll >= p0
                    })
                    .map(|e| e.poll - p0)
            };
            let mut opened = quarantined_at(&hub);
            for _ in 0..6u64 {
                if opened.is_some() {
                    break;
                }
                step(&hub);
                tick += 1;
                opened = quarantined_at(&hub);
            }
            w.release();
            episodes.push(StallEpisode {
                target: name,
                polls_to_quarantine: opened,
            });
        }

        // Calm: faults off, operator heal sweep, then fault-free polls.
        gate.active.store(false, Ordering::Relaxed);
        let heal_sweep = |hub: &BreakerHub, plane: &ControlPlane, healed: &mut u64| {
            for (name, s) in hub.states() {
                if s == BreakerState::Quarantined && plane.execute(&format!("heal {name}")).is_ok()
                {
                    *healed += 1;
                }
            }
        };
        heal_sweep(&hub, &plane, &mut heal_commands);
        for _ in 0..spec.calm_polls {
            step(&hub);
            heal_sweep(&hub, &plane, &mut heal_commands);
        }
        // Convergence: every breaker must re-arm to Closed.
        while hub.states().iter().any(|(_, s)| *s != BreakerState::Closed) {
            if convergence_polls >= 64 {
                break; // stuck-open: reported via all_healed below
            }
            step(&hub);
            convergence_polls += 1;
            heal_sweep(&hub, &plane, &mut heal_commands);
        }

        stop.store(true, Ordering::Relaxed);
    });
    hub.poll(); // final post-quiescence frame

    // Oracles' raw material.
    let per_lock: Vec<(u64, u64)> = locks
        .iter()
        .zip(&ok_ops)
        .map(|(l, ops)| (l.with_locked(|v| *v), ops.load(Ordering::Relaxed)))
        .collect();
    let conservation_ok = per_lock.iter().all(|(counter, ops)| counter == ops);
    let ops: u64 = per_lock.iter().map(|(_, o)| o).sum();
    let counter_total: u64 = per_lock.iter().map(|(c, _)| c).sum();
    let quiescent = locks.iter().all(|l| {
        let free = l.try_lock().is_some();
        free && l.waiting_now() == 0
    });

    let events = hub.events();
    let illegal = validate_events(&events).err();
    let opened: Vec<&String> = names
        .iter()
        .filter(|n| {
            events
                .iter()
                .any(|e| &e.target == *n && e.to == BreakerState::Quarantined)
        })
        .collect();
    let healed_targets = opened
        .iter()
        .filter(|n| {
            events
                .iter()
                .any(|e| &e.target == **n && e.to == BreakerState::Healed)
        })
        .count();
    let all_closed = hub
        .states()
        .iter()
        .all(|(_, s)| *s == BreakerState::Closed);
    let report = plan.report();
    let dwell: BTreeMap<String, u64> = hub
        .dwell_totals()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();

    SoakResult {
        polls: hub.polls(),
        ops,
        counter_total,
        conservation_ok,
        panics_absorbed: panics_absorbed.load(Ordering::Relaxed),
        workers_killed: workers_killed.load(Ordering::Relaxed) as usize,
        faults_cs_panics: report.cs_panics,
        faults_unparks_dropped: report.unparks_dropped,
        faults_monitor_stalls: report.monitor_stalls,
        commands_ok: commands_ok.load(Ordering::Relaxed),
        commands_err: commands_err.load(Ordering::Relaxed),
        heal_commands,
        all_healed: all_closed && healed_targets == opened.len(),
        opened_targets: opened.len(),
        healed_targets,
        episodes,
        episodes_skipped,
        convergence_polls,
        illegal,
        quiescent,
        transitions: events.len(),
        dwell,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_passes_every_oracle() {
        let mut spec = SoakSpec::quick(0x50a1);
        spec.storm_polls = 10;
        spec.calm_polls = 4;
        spec.stall_episodes = 1;
        spec.poll_millis = 10;
        spec.threads = 4;
        let r = run_soak(&spec);
        assert!(r.conservation_ok, "lost update: {r:?}");
        assert!(r.quiescent, "lost waiter: {r:?}");
        assert!(r.illegal.is_none(), "illegal chain: {:?}", r.illegal);
        assert_eq!(r.commands_err, 0, "driver issued only valid commands");
        assert!(r.all_healed, "stuck-open breaker: {r:?}");
        for ep in &r.episodes {
            let polls = ep.polls_to_quarantine.expect("episode quarantined");
            assert!(polls <= 2, "stall took {polls} polls to quarantine");
        }
    }
}

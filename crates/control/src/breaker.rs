//! The circuit-breaker lock lifecycle.
//!
//! A one-shot `quarantine()` on a stall would condemn a lock and forget
//! it; this module gives each lock an explicit state machine in the
//! style of a service-mesh circuit breaker instead:
//!
//! ```text
//!            stall / repeated poison / policy panics
//!   Closed ───────────► Suspect ───────────► Quarantined ◄─┐
//!     ▲                    │                     │         │ fault during
//!     │   finding cleared  │      backoff served │         │ trial (backoff
//!     │◄───────────────────┘                     ▼         │ doubles)
//!     │                                      HalfOpen ─────┘
//!     │            trial window clean            │
//!     └────────────── Healed ◄───────────────────┘
//! ```
//!
//! The machine itself is *pure*: [`Breaker::step`] consumes one
//! [`Finding`] per poll interval and returns the [`Transition`]s taken
//! plus the [`BreakerAction`]s the supervisor should apply to the lock
//! (quarantine, nudge, heal). Keeping side effects out of the machine
//! makes every reachable transition sequence checkable by the property
//! test in `tests/proptest_breaker.rs`.
//!
//! Design points (DESIGN.md §15):
//!
//! * **No skips.** A stall escalates `Closed → Suspect → Quarantined`
//!   in a single poll — two legal edges, never a `Closed → Quarantined`
//!   jump — so an observer replaying the event log always sees the
//!   suspicion that preceded the sentence.
//! * **Hysteresis on re-open.** Every entry into `Quarantined` serves a
//!   dwell of `open_base_polls << level` and raises the level; `Healed`
//!   pays one level back. A lock that flaps open/closed therefore sits
//!   out exponentially longer sentences, while one clean heal does not
//!   reset the breaker's memory of the incident.
//! * **Half-open probing is a nudge + bounded trial window.** The
//!   breaker cannot synchronously "test" a lock without becoming a
//!   contender itself, so the probe is [`BreakerAction::Heal`] (re-arm
//!   adaptation) plus [`BreakerAction::Nudge`] (a try-lock
//!   acquire/release that re-runs the contended release path, granting
//!   any waiter whose wakeup was lost), followed by `trial_polls` of
//!   observation. `HalfOpen` always resolves within that window: a
//!   fault re-opens immediately, a clean window heals.

use serde::Serialize;

/// The lifecycle state of one lock's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BreakerState {
    /// Healthy: findings are clear, adaptation runs normally.
    Closed,
    /// A finding was observed; watching for escalation or recovery.
    Suspect,
    /// The breaker is open: the lock is quarantined (pure blocking,
    /// adaptation disabled) while the backoff dwell is served.
    Quarantined,
    /// Probing: adaptation re-armed, trial window in progress.
    HalfOpen,
    /// The trial window passed clean; transient afterglow state that
    /// re-arms to [`BreakerState::Closed`] on the next poll.
    Healed,
}

impl BreakerState {
    /// Every state, in lifecycle order.
    pub const ALL: [BreakerState; 5] = [
        BreakerState::Closed,
        BreakerState::Suspect,
        BreakerState::Quarantined,
        BreakerState::HalfOpen,
        BreakerState::Healed,
    ];

    /// Label used in events, snapshots, and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Suspect => "suspect",
            BreakerState::Quarantined => "quarantined",
            BreakerState::HalfOpen => "half-open",
            BreakerState::Healed => "healed",
        }
    }

    /// Small integer code: the value of the `breaker_state` snapshot
    /// gauge, and the state's index into the breaker's dwell counts.
    pub fn code(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Suspect => 1,
            BreakerState::Quarantined => 2,
            BreakerState::HalfOpen => 3,
            BreakerState::Healed => 4,
        }
    }

    /// Whether `from → to` is an edge of the lifecycle graph. This is
    /// the single source of truth the property test and the soak
    /// harness validate every emitted transition against.
    pub fn legal(from: BreakerState, to: BreakerState) -> bool {
        use BreakerState::*;
        matches!(
            (from, to),
            (Closed, Suspect)
                | (Suspect, Closed)
                | (Suspect, Quarantined)
                | (Quarantined, HalfOpen)
                | (HalfOpen, Quarantined)
                | (HalfOpen, Healed)
                | (Healed, Closed)
        )
    }
}

/// What one poll interval observed about a lock, already reduced to the
/// breaker's vocabulary (the supervisor derives this from consecutive
/// [`LockHealth`](adaptive_native::LockHealth) snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finding {
    /// Nothing wrong this interval.
    Clear,
    /// Waiters exist but neither acquisitions nor handoffs advanced.
    Stall,
    /// The lock became poisoned (a holder panicked) this interval.
    Poison,
    /// The adaptation policy panicked (the mutex self-quarantined) this
    /// interval.
    PolicyPanic,
}

impl Finding {
    /// Label used as the transition reason.
    pub fn label(self) -> &'static str {
        match self {
            Finding::Clear => "clear",
            Finding::Stall => "stall",
            Finding::Poison => "poison",
            Finding::PolicyPanic => "policy-panic",
        }
    }

    /// Whether this finding indicates a fault.
    pub fn is_fault(self) -> bool {
        !matches!(self, Finding::Clear)
    }
}

/// What the supervisor should do to the lock after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerAction {
    /// Snap the lock to the safe endpoint (pure blocking, adaptation
    /// off) — [`AdaptiveMutex::quarantine`](adaptive_native::AdaptiveMutex::quarantine).
    Quarantine,
    /// Acquire/release via try-lock to re-run the contended release
    /// path, rescuing waiters with lost wakeups.
    Nudge,
    /// Re-arm adaptation immediately (end the mutex-side quarantine, on
    /// probation).
    Heal,
}

/// One edge taken by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before the edge.
    pub from: BreakerState,
    /// State after the edge.
    pub to: BreakerState,
    /// Why (a [`Finding::label`], `"operator"`, `"backoff-elapsed"`,
    /// `"trial-clean"`, or `"rearmed"`).
    pub reason: &'static str,
}

/// Everything one [`Breaker::step`] decided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakerStep {
    /// Edges taken, in order (possibly several in one poll — a stall in
    /// `Closed` takes `Closed → Suspect` and `Suspect → Quarantined`).
    pub transitions: Vec<Transition>,
    /// Lock interventions to apply, in order.
    pub actions: Vec<BreakerAction>,
}

impl BreakerStep {
    /// Whether this step changed nothing (quiet poll / no-op override).
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty() && self.actions.is_empty()
    }
}

/// Tunables of the lifecycle machine.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Base dwell in `Quarantined`, in polls, at backoff level 0.
    pub open_base_polls: u32,
    /// Cap on the backoff shift: the dwell never exceeds
    /// `open_base_polls << max_backoff_shift`.
    pub max_backoff_shift: u32,
    /// Length of the `HalfOpen` trial window, in clean polls.
    pub trial_polls: u32,
    /// Non-stall findings (poison, policy panics) observed in `Suspect`
    /// before escalating to `Quarantined`. A stall escalates
    /// immediately.
    pub suspect_patience: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            open_base_polls: 2,
            max_backoff_shift: 6,
            trial_polls: 2,
            suspect_patience: 2,
        }
    }
}

/// The per-lock circuit breaker.
#[derive(Debug, Clone)]
pub struct Breaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Re-open count driving the exponential dwell (capped).
    level: u32,
    /// Polls left to serve in `Quarantined`.
    open_left: u32,
    /// Clean polls left in the `HalfOpen` trial window.
    trial_left: u32,
    /// Consecutive non-stall fault polls while `Suspect`.
    suspect_streak: u32,
    /// Polls spent in each state, indexed by [`BreakerState::code`].
    dwell: [u64; 5],
    polls: u64,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker::new(BreakerConfig::default())
    }
}

impl Breaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Breaker {
        Breaker {
            config,
            state: BreakerState::Closed,
            level: 0,
            open_left: 0,
            trial_left: 0,
            suspect_streak: 0,
            dwell: [0; 5],
            polls: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Current backoff level (entries into `Quarantined` not yet paid
    /// back by heals).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Polls observed while in `state` (the state each poll *started*
    /// in).
    pub fn dwell_polls(&self, state: BreakerState) -> u64 {
        self.dwell[state.code() as usize]
    }

    /// Total polls stepped.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// The dwell a quarantine entered now would serve, in polls.
    pub fn open_dwell_polls(&self) -> u32 {
        self.config.open_base_polls << self.level.min(self.config.max_backoff_shift)
    }

    fn go(&mut self, out: &mut BreakerStep, to: BreakerState, reason: &'static str) {
        debug_assert!(
            BreakerState::legal(self.state, to),
            "illegal breaker transition {} -> {}",
            self.state.label(),
            to.label()
        );
        out.transitions.push(Transition {
            from: self.state,
            to,
            reason,
        });
        self.state = to;
    }

    /// Enter `Quarantined`: serve the dwell for the current level, then
    /// raise the level (capped so the shift stays meaningful).
    fn open(&mut self, out: &mut BreakerStep, reason: &'static str) {
        self.open_left = self.open_dwell_polls();
        self.level = (self.level + 1).min(self.config.max_backoff_shift + 1);
        self.go(out, BreakerState::Quarantined, reason);
        out.actions.push(BreakerAction::Quarantine);
        out.actions.push(BreakerAction::Nudge);
    }

    /// Consume one poll interval's finding. Returns the edges taken and
    /// the interventions to apply (empty on a quiet poll).
    pub fn step(&mut self, finding: Finding) -> BreakerStep {
        let mut out = BreakerStep::default();
        self.polls += 1;
        self.dwell[self.state.code() as usize] += 1;

        // `Healed` is transient afterglow: re-arm first, then let the
        // (now `Closed`) machine judge this poll's finding normally.
        if self.state == BreakerState::Healed {
            self.go(&mut out, BreakerState::Closed, "rearmed");
        }

        match self.state {
            BreakerState::Closed => match finding {
                Finding::Clear => {}
                Finding::Stall => {
                    // A stall is the oracle-grade failure (waiters exist,
                    // nobody progresses): suspicion and sentence in the
                    // same poll, as two legal edges.
                    self.go(&mut out, BreakerState::Suspect, "stall");
                    self.open(&mut out, "stall");
                }
                f => {
                    self.suspect_streak = 1;
                    self.go(&mut out, BreakerState::Suspect, f.label());
                }
            },
            BreakerState::Suspect => match finding {
                Finding::Clear => {
                    self.suspect_streak = 0;
                    self.go(&mut out, BreakerState::Closed, "recovered");
                }
                Finding::Stall => self.open(&mut out, "stall"),
                f => {
                    self.suspect_streak += 1;
                    if self.suspect_streak >= self.config.suspect_patience {
                        self.suspect_streak = 0;
                        self.open(&mut out, f.label());
                    }
                }
            },
            BreakerState::Quarantined => {
                if finding.is_fault() {
                    // The fault is still live: restart the dwell at the
                    // current level. A stall additionally gets a nudge —
                    // the rescue for lost wakeups — but *not* another
                    // quarantine (that gate is the point of the breaker;
                    // see `persistent_fault_extends_the_dwell_without_requarantining`).
                    self.open_left = self.open_dwell_polls().max(1);
                    if finding == Finding::Stall {
                        out.actions.push(BreakerAction::Nudge);
                    }
                } else {
                    self.open_left = self.open_left.saturating_sub(1);
                    if self.open_left == 0 {
                        self.trial_left = self.config.trial_polls.max(1);
                        self.go(&mut out, BreakerState::HalfOpen, "backoff-elapsed");
                        out.actions.push(BreakerAction::Heal);
                        out.actions.push(BreakerAction::Nudge);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if finding.is_fault() {
                    self.open(&mut out, finding.label());
                } else {
                    self.trial_left = self.trial_left.saturating_sub(1);
                    if self.trial_left == 0 {
                        self.level = self.level.saturating_sub(1);
                        self.go(&mut out, BreakerState::Healed, "trial-clean");
                    }
                }
            }
            BreakerState::Healed => unreachable!("re-armed above"),
        }
        out
    }

    /// Operator override: force the breaker open (the `quarantine`
    /// command). Walks the legal path from the current state; a no-op
    /// if already open.
    pub fn force_open(&mut self) -> BreakerStep {
        let mut out = BreakerStep::default();
        if self.state == BreakerState::Healed {
            self.go(&mut out, BreakerState::Closed, "operator");
        }
        match self.state {
            BreakerState::Closed => {
                self.go(&mut out, BreakerState::Suspect, "operator");
                self.open(&mut out, "operator");
            }
            BreakerState::Suspect | BreakerState::HalfOpen => self.open(&mut out, "operator"),
            BreakerState::Quarantined => {}
            BreakerState::Healed => unreachable!("re-armed above"),
        }
        out
    }

    /// Operator override: end the dwell now and start the half-open
    /// trial (the `heal` command). A no-op unless currently open.
    pub fn force_probe(&mut self) -> BreakerStep {
        let mut out = BreakerStep::default();
        if self.state == BreakerState::Quarantined {
            self.open_left = 0;
            self.trial_left = self.config.trial_polls.max(1);
            self.go(&mut out, BreakerState::HalfOpen, "operator");
            out.actions.push(BreakerAction::Heal);
            out.actions.push(BreakerAction::Nudge);
        }
        out
    }
}

/// Validate an event chain (per target): the first edge must leave
/// `Closed`, every edge must be legal, and consecutive edges must
/// chain (`to` of one is `from` of the next). Returns a description of
/// the first violation.
pub fn validate_chain<'a>(
    edges: impl IntoIterator<Item = &'a Transition>,
) -> Result<(), String> {
    let mut prev: Option<BreakerState> = None;
    for t in edges {
        if !BreakerState::legal(t.from, t.to) {
            return Err(format!(
                "illegal edge {} -> {} ({})",
                t.from.label(),
                t.to.label(),
                t.reason
            ));
        }
        if let Some(p) = prev {
            if p != t.from {
                return Err(format!(
                    "broken chain: edge leaves {} but machine was in {}",
                    t.from.label(),
                    p.label()
                ));
            }
        } else if t.from != BreakerState::Closed {
            return Err(format!("first edge leaves {}, not closed", t.from.label()));
        }
        prev = Some(t.to);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use BreakerAction::*;
    use BreakerState::*;
    use Finding::*;

    fn drive(b: &mut Breaker, findings: &[Finding]) -> Vec<Transition> {
        findings
            .iter()
            .flat_map(|f| b.step(*f).transitions)
            .collect()
    }

    #[test]
    fn stall_opens_via_suspect_in_one_poll() {
        let mut b = Breaker::default();
        let step = b.step(Stall);
        assert_eq!(
            step.transitions
                .iter()
                .map(|t| (t.from, t.to))
                .collect::<Vec<_>>(),
            vec![(Closed, Suspect), (Suspect, Quarantined)]
        );
        assert_eq!(step.actions, vec![Quarantine, Nudge]);
        assert_eq!(b.state(), Quarantined);
    }

    #[test]
    fn poison_needs_patience_before_opening() {
        let mut b = Breaker::default();
        assert_eq!(b.step(Poison).transitions, vec![Transition {
            from: Closed,
            to: Suspect,
            reason: "poison"
        }]);
        // One more poison poll reaches suspect_patience = 2 and opens.
        let step = b.step(Poison);
        assert_eq!(b.state(), Quarantined);
        assert_eq!(step.actions, vec![Quarantine, Nudge]);
    }

    #[test]
    fn suspect_recovers_to_closed_on_clear() {
        let mut b = Breaker::default();
        b.step(Poison);
        let step = b.step(Clear);
        assert_eq!(b.state(), Closed);
        assert_eq!(step.transitions[0].reason, "recovered");
        assert!(step.actions.is_empty());
    }

    #[test]
    fn full_cycle_heals_and_rearms() {
        let mut b = Breaker::default();
        b.step(Stall); // open, dwell = 2 polls at level 0
        let edges = drive(&mut b, &[Clear, Clear]); // serve dwell
        assert_eq!(b.state(), HalfOpen);
        assert_eq!(edges.last().map(|t| t.reason), Some("backoff-elapsed"));
        let edges = drive(&mut b, &[Clear, Clear]); // trial window
        assert_eq!(b.state(), Healed);
        assert_eq!(edges.last().map(|t| t.reason), Some("trial-clean"));
        let edges = drive(&mut b, &[Clear]);
        assert_eq!(b.state(), Closed);
        assert_eq!(edges.last().map(|t| t.reason), Some("rearmed"));
        assert_eq!(b.level(), 0, "clean heal paid the level back");
    }

    #[test]
    fn fault_during_trial_reopens_with_longer_sentence() {
        let mut b = Breaker::default();
        b.step(Stall);
        assert_eq!(b.level(), 1);
        drive(&mut b, &[Clear, Clear]); // -> HalfOpen
        let step = b.step(Stall); // trial fails
        assert_eq!(b.state(), Quarantined);
        assert_eq!(step.transitions, vec![Transition {
            from: HalfOpen,
            to: Quarantined,
            reason: "stall"
        }]);
        assert_eq!(b.level(), 2);
        // The second sentence is twice as long: 4 clear polls to reach
        // HalfOpen again (dwell was set from level 1).
        drive(&mut b, &[Clear, Clear, Clear]);
        assert_eq!(b.state(), Quarantined);
        drive(&mut b, &[Clear]);
        assert_eq!(b.state(), HalfOpen);
    }

    #[test]
    fn persistent_fault_extends_the_dwell_without_requarantining() {
        let mut b = Breaker::default();
        let first = b.step(Stall);
        assert_eq!(
            first.actions.iter().filter(|a| **a == Quarantine).count(),
            1
        );
        for _ in 0..10 {
            let step = b.step(Stall);
            assert!(step.transitions.is_empty(), "stays open, no re-entry");
            assert!(
                !step.actions.contains(&Quarantine),
                "no quarantine spam while already open"
            );
            assert!(step.actions.contains(&Nudge), "still rescuing waiters");
        }
        assert_eq!(b.state(), Quarantined);
    }

    #[test]
    fn operator_overrides_walk_legal_paths() {
        let mut b = Breaker::default();
        let step = b.force_open();
        assert!(validate_chain(step.transitions.iter()).is_ok());
        assert_eq!(b.state(), Quarantined);
        assert!(b.force_open().is_empty(), "already open: no-op");
        let step = b.force_probe();
        assert_eq!(b.state(), HalfOpen);
        assert_eq!(step.actions, vec![Heal, Nudge]);
        assert!(b.force_probe().is_empty(), "probe only applies when open");
    }

    #[test]
    fn validate_chain_rejects_skips_and_breaks() {
        let skip = [Transition {
            from: Closed,
            to: Quarantined,
            reason: "bogus",
        }];
        assert!(validate_chain(skip.iter()).is_err());
        let broken = [
            Transition {
                from: Closed,
                to: Suspect,
                reason: "stall",
            },
            Transition {
                from: HalfOpen,
                to: Healed,
                reason: "trial-clean",
            },
        ];
        assert!(validate_chain(broken.iter()).is_err());
    }
}

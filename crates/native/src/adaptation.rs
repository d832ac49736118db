//! The adaptive half of a mutex, written once for every substrate.
//!
//! The paper's adaptive object is one model: mutable attributes, a
//! monitor with a sampling rate, and a policy, wired into one loop.
//! [`Adaptation`] is that model for a lock — the attribute cells and
//! their owners, the monitor's state, the striped ledger, the feedback
//! kernel and the poison flag — and it builds every observation,
//! applies every decision, quarantines, heals, and answers for the
//! lock's statistics, health frame and control-plane rows. The
//! real-thread [`AdaptiveMutex`](crate::AdaptiveMutex) and the async
//! mutex each embed one and keep only how they wait and wake; what
//! differs between waiting threads and waiting tasks is what their
//! [`Substrate`] says.
//!
//! The one part a substrate places itself is the [`SampleClock`], on the
//! line its acquire already writes. Every lock with a policy samples at
//! the feedback kernel's period ([`GuardedLoop::period`], 2 … 64); a
//! static lock's clock never fires.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use adaptive_core::{AdaptationPolicy, GuardedLoop, Sampled, SAMPLE_PERIOD_FLOOR};

use crate::pad::CachePadded;
use crate::policy::{AttrGroup, NativeDecision, NativeObservation, NativeWaitingPolicy, WaitAttrs};
use crate::raw::LockAlgorithm;
use crate::stats::{Counter, StatSlabs};
use crate::SPIN_FOREVER;

/// A boxed native lock adaptation policy.
pub type BoxedNativePolicy =
    Box<dyn AdaptationPolicy<NativeObservation, Decision = NativeDecision> + Send>;

/// Counters published by an adaptive mutex (all relaxed; monitoring
/// only).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MutexStats {
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
    /// Contended acquires that parked at least once (counted when the
    /// waiter first parks, not when it finally acquires).
    pub parked: u64,
    /// Releases that handed the lock directly to a parked waiter.
    pub handoffs: u64,
    /// Policy decisions that changed an attribute or the engine. An
    /// operator's `set`, a `set_waiting_policy` call and a quarantine's
    /// snap are not counted.
    pub reconfigurations: u64,
    /// `try_lock` calls that found the lock held (sampled into the
    /// monitor as would-be waiters).
    pub try_failures: u64,
    /// Timed acquires that gave up.
    pub timeouts: u64,
    /// Holders that panicked with the lock held (each one poisoned the
    /// mutex).
    pub poison_events: u64,
    /// Successful [`Adaptation::clear_poison`] recoveries.
    pub poison_clears: u64,
    /// Adaptation-policy callbacks that panicked (each one triggered a
    /// quarantine).
    pub policy_panics: u64,
    /// Times adaptation was quarantined (snapped to pure blocking and
    /// disabled), by a policy panic or a supervisor.
    pub quarantines: u64,
    /// Times adaptation was re-enabled: a quarantine that ran down, or
    /// an explicit heal.
    pub heals: u64,
    /// Engine migrations actually installed by the quiesce-and-switch
    /// protocol (requests that re-affirmed the current engine are not
    /// counted).
    pub algorithm_switches: u64,
    /// Critical sections executed *for another thread* by a
    /// flat-combining drain (plus the combiner's own published op).
    pub combined_ops: u64,
}

/// Point-in-time liveness frame of one lock: a supervisor
/// (`adaptive_control::BreakerHub`) differences two consecutive frames
/// to tell a stalled lock from a busy or idle one.
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
    /// is off). Read-only: on a lock with a policy the feedback kernel
    /// moves it between 2 and 64.
    pub sample_period: u64,
}

/// What a mutex tells its [`Adaptation`] about itself.
pub trait Substrate {
    /// The `delay` a shorthand decision (`PureSpin`, `SetSpins`)
    /// installs beside its spin count: a backoff cap for threads, the
    /// pause before each re-poll for tasks. `PureBlocking` installs
    /// [`NativeWaitingPolicy::pure_blocking`] everywhere.
    const SHORTHAND_DELAY: u32;

    /// Act on a policy's engine decision; returns whether it changed
    /// anything. A substrate with one engine changes nothing.
    fn switch_engine(&self, _algo: LockAlgorithm) -> bool {
        false
    }

    /// Return to the safe engine, as part of a quarantine.
    fn snap_engine(&self) {}

    /// Whether a sample that came due reaches the monitor (a fault hook
    /// may stall the feed).
    fn feeds_monitor(&self) -> bool {
        true
    }
}

/// A lock's acquisition count and its monitor's next sample point. Its
/// words are written with a plain load + store, not an RMW: every writer
/// holds the lock, and the lock's own release/acquire chain orders them.
/// On the line the acquire CAS has just made exclusive, charging an
/// acquisition is three register-width moves and a compare.
#[derive(Debug)]
pub struct SampleClock {
    acquisitions: AtomicU64,
    /// The count at which the clock fires next (`u64::MAX`: never).
    next_sample: AtomicU64,
    /// The count at which it last fired.
    sampled_at: AtomicU64,
}

impl SampleClock {
    /// A clock that first fires at [`SAMPLE_PERIOD_FLOOR`], or never (a
    /// static lock).
    pub fn new(sampled: bool) -> SampleClock {
        let first = if sampled { SAMPLE_PERIOD_FLOOR } else { u64::MAX };
        SampleClock {
            acquisitions: AtomicU64::new(0),
            next_sample: AtomicU64::new(first),
            sampled_at: AtomicU64::new(0),
        }
    }

    /// Count `n` acquisitions by the caller, who holds the lock, and
    /// decide from the same count whether its release is a sample:
    /// non-zero is the number of acquisitions the sample stands for. At
    /// or past the sample point the clock fires once, however far a
    /// combined batch jumped, and re-arms at the kernel's period.
    #[inline]
    pub fn charge(&self, n: u64, adaptation: &Adaptation) -> u64 {
        let count = self.acquisitions.load(Ordering::Relaxed) + n;
        self.acquisitions.store(count, Ordering::Relaxed);
        if count < self.next_sample.load(Ordering::Relaxed) {
            return 0;
        }
        let since = count - self.sampled_at.load(Ordering::Relaxed);
        self.sampled_at.store(count, Ordering::Relaxed);
        let next = count.saturating_add(adaptation.feedback.period());
        self.next_sample.store(next, Ordering::Relaxed);
        since
    }

    /// Acquisitions charged so far (exact: serialized by the lock).
    fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    fn fires(&self) -> bool {
        self.next_sample.load(Ordering::Relaxed) != u64::MAX
    }
}

/// The adaptive half of a mutex (see the module doc). Each part sits on
/// lines of its own (DESIGN.md §12): the attributes are read by every
/// waiter and written only by a reconfiguration, the waiter count and
/// the max-wait window by contended acquires, the ledger per thread
/// stripe, the feedback kernel only by a sample.
pub struct Adaptation {
    /// `{spin, delay, timeout}` and the owner bits.
    attrs: CachePadded<WaitAttrs>,
    /// Current number of waiters (the monitored state variable).
    waiters: CachePadded<AtomicU32>,
    /// Longest single contended wait (ns) since the previous sample, the
    /// cheap proxy for the per-thread fairness signal: raised with
    /// `fetch_max` by waiters that started their clock, consumed with
    /// `swap(0)` by a sample.
    max_wait: CachePadded<AtomicU64>,
    /// The striped ledger (acquisitions live on the clock).
    stats: StatSlabs,
    /// Failed `try_lock`s. One global cell, not a stripe slot, so
    /// "every other failure" does not depend on how many stripes the
    /// failing threads spread across.
    try_failures: CachePadded<AtomicU64>,
    feedback: CachePadded<GuardedLoop<BoxedNativePolicy>>,
    /// Sticky: a holder panicked with the lock held.
    poisoned: AtomicBool,
}

impl Adaptation {
    /// The adaptive half of a lock whose attributes start at `initial`
    /// and whose decisions come from `policy`.
    pub fn new(policy: BoxedNativePolicy, initial: NativeWaitingPolicy) -> Adaptation {
        Adaptation {
            attrs: CachePadded::new(WaitAttrs::new(initial)),
            waiters: CachePadded::new(AtomicU32::new(0)),
            max_wait: CachePadded::new(AtomicU64::new(0)),
            stats: StatSlabs::new(),
            try_failures: CachePadded::new(AtomicU64::new(0)),
            feedback: CachePadded::new(GuardedLoop::new(policy)),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The live attribute cells, read by waiters.
    #[inline]
    pub fn attrs(&self) -> &WaitAttrs {
        &self.attrs
    }

    /// Count one event on the calling thread's stripe.
    #[inline]
    pub fn count(&self, counter: Counter) {
        self.stats.bump(counter);
    }

    /// Count `n` events at once on the calling thread's stripe.
    pub fn count_n(&self, counter: Counter, n: u64) {
        self.stats.bump_by(counter, n);
    }

    /// Total of `counter` across stripes (monitoring).
    pub fn total(&self, counter: Counter) -> u64 {
        self.stats.sum(counter)
    }

    /// A waiter arrives: counted as contended and as waiting.
    pub fn begin_wait(&self) {
        self.stats.bump(Counter::Contended);
        self.waiters.fetch_add(1, Ordering::Relaxed);
    }

    /// A waiter leaves; one that got the lock after starting its wait
    /// clock at `since` enters the max-wait window.
    pub fn end_wait(&self, since: Option<Instant>) {
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        if let Some(since) = since {
            let ns = since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.max_wait.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Current waiter count (monitoring).
    pub fn waiting_now(&self) -> u32 {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Run the monitor for a release whose [`SampleClock::charge`] came
    /// due, standing for `acquisitions` acquisitions. Called after the
    /// lock is released, and never for a panicking holder, whose
    /// release must look as if it was not sampled.
    #[cold]
    pub fn sample<S: Substrate>(&self, substrate: &S, acquisitions: u64) {
        self.observe(substrate, u64::from(self.waiting_now()), acquisitions);
    }

    /// Count a failed `try_lock`. Every [`SAMPLE_PERIOD_FLOOR`]-th
    /// failure on a lock whose clock fires is a sample that counts the
    /// caller as one more waiter, so a workload of nothing but
    /// `try_lock`s still drives the policy.
    #[cold]
    pub fn try_failed<S: Substrate>(&self, substrate: &S, clock: &SampleClock) {
        let n = self.try_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if clock.fires() && n.is_multiple_of(SAMPLE_PERIOD_FLOOR) {
            let waiting = u64::from(self.waiting_now()) + 1;
            self.observe(substrate, waiting, SAMPLE_PERIOD_FLOOR);
        }
    }

    /// Feed one observation through the feedback kernel: never contends
    /// (a sample that finds another inside is skipped), and a policy
    /// callback that panics is caught, counted and quarantined.
    fn observe<S: Substrate>(&self, substrate: &S, waiting: u64, acquisitions: u64) {
        if !substrate.feeds_monitor() {
            return; // the policy sees a gap, not a stale value
        }
        let outcome = self.feedback.sample(
            // Consume the window: one historic stall cannot pin a
            // fairness policy forever.
            || NativeObservation {
                waiting,
                max_wait_nanos: self.max_wait.swap(0, Ordering::Relaxed),
                acquisitions,
            },
            |decision| self.apply(substrate, decision),
        );
        match outcome {
            Sampled::Reenabled => self.stats.bump(Counter::Heals),
            Sampled::Panicked => {
                self.stats.bump(Counter::PolicyPanics);
                self.snap_to_safe_endpoint(substrate);
            }
            Sampled::Skipped | Sampled::CoolingDown | Sampled::Decided => {}
        }
    }

    /// Install a decision; returns whether it changed anything, and
    /// counts a reconfiguration if so. A decision on a group an operator
    /// owns is refused: it changes nothing. Every waiting decision
    /// installs a *complete* `{spin, delay, timeout}` set, so a
    /// shorthand never leaves an earlier `SetPolicy`'s timeout live.
    fn apply<S: Substrate>(&self, substrate: &S, decision: NativeDecision) -> bool {
        if self.attrs.operator_owns(decision.group()) {
            return false;
        }
        let shorthand =
            |spin| NativeWaitingPolicy { spin, delay: S::SHORTHAND_DELAY, timeout: None };
        let changed = match decision {
            NativeDecision::PureSpin => self.attrs.store(shorthand(SPIN_FOREVER)),
            NativeDecision::PureBlocking => self.attrs.store(NativeWaitingPolicy::pure_blocking()),
            NativeDecision::SetSpins(n) => self.attrs.store(shorthand(n)),
            NativeDecision::SetPolicy(p) => self.attrs.store(p),
            NativeDecision::SetAlgorithm(algo) => substrate.switch_engine(algo),
        };
        if changed {
            self.stats.bump(Counter::Reconfigurations);
        }
        changed
    }

    /// Degrade to the safe static endpoint: snap the attributes to pure
    /// blocking, through any owner, and disable adaptation for an
    /// exponentially backed-off number of samples, after which it is
    /// retried. Called on a policy panic, and by a supervisor that has
    /// condemned the lock.
    pub fn quarantine<S: Substrate>(&self, substrate: &S) {
        self.feedback.quarantine();
        self.snap_to_safe_endpoint(substrate);
    }

    fn snap_to_safe_endpoint<S: Substrate>(&self, substrate: &S) {
        self.stats.bump(Counter::Quarantines);
        self.attrs.store(NativeWaitingPolicy::pure_blocking());
        substrate.snap_engine();
    }

    /// Whether adaptation is quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.feedback.is_quarantined()
    }

    /// End a quarantine now (an operator- or breaker-driven heal). The
    /// attributes stay where the quarantine snapped them until the
    /// policy decides otherwise, and adaptation restarts *on
    /// probation*: a lock healed too early re-quarantines with a longer
    /// sentence. Returns whether a quarantine was in force.
    pub fn heal(&self) -> bool {
        let healed = self.feedback.heal();
        if healed {
            self.stats.bump(Counter::Heals);
        }
        healed
    }

    /// Mark the protected value suspect: `events` holders panicked with
    /// the lock held.
    pub fn poison(&self, events: u64) {
        self.poisoned.store(true, Ordering::Release);
        self.stats.bump_by(Counter::PoisonEvents, events);
    }

    /// Whether a holder has panicked with the lock held (sticky).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Un-poison after verifying (or repairing) the protected value.
    /// Returns whether it was poisoned.
    pub fn clear_poison(&self) -> bool {
        let was = self.poisoned.swap(false, Ordering::AcqRel);
        if was {
            self.stats.bump(Counter::PoisonClears);
        }
        was
    }

    /// Whether an operator owns attribute group `group`.
    pub fn operator_owns(&self, group: AttrGroup) -> bool {
        self.attrs.operator_owns(group)
    }

    /// Hand `group` to an operator (`true`), whose group the policy's
    /// decisions cannot write, or back to the policy. Waits out a
    /// decision in flight, so none that read the old owner lands later.
    pub fn set_operator_owns(&self, group: AttrGroup, operator: bool) {
        self.feedback.exclusive(|| self.attrs.set_operator_owns(group, operator));
    }

    /// The waiting group's `(name, value, operator_owned)` rows.
    pub fn rows(&self) -> Vec<(&'static str, String, bool)> {
        let operator = self.operator_owns(AttrGroup::Waiting);
        self.attrs.load().attrs().into_iter().map(|(n, v)| (n, v, operator)).collect()
    }

    /// Write waiting attribute `name` from its control-plane spelling
    /// and take the waiting group for the operator.
    pub fn set(&self, name: &str, value: &str) -> Result<(), String> {
        let p = self.attrs.load().with_attr(name, value)?;
        self.set_operator_owns(AttrGroup::Waiting, true);
        self.attrs.store(p);
        Ok(())
    }

    /// Hand the group of attribute `name`, or every group, back to the
    /// policy.
    pub fn release(&self, name: Option<&str>) {
        for group in [AttrGroup::Waiting, AttrGroup::Algorithm] {
            if name.is_none_or(|n| AttrGroup::of(n) == Some(group)) {
                self.set_operator_owns(group, false);
            }
        }
    }

    /// Acquisitions between samples right now: the kernel's period, or
    /// `0` on a static lock.
    pub fn sample_period(&self, clock: &SampleClock) -> u64 {
        if clock.fires() {
            self.feedback.period()
        } else {
            0
        }
    }

    /// Counter snapshot, summed lazily across the stripes: exact once
    /// writers are quiescent, the acquisition count at all times.
    pub fn stats(&self, clock: &SampleClock) -> MutexStats {
        let sum = |c| self.stats.sum(c);
        MutexStats {
            acquisitions: clock.acquisitions(),
            contended: sum(Counter::Contended),
            parked: sum(Counter::Parked),
            handoffs: sum(Counter::Handoffs),
            reconfigurations: sum(Counter::Reconfigurations),
            try_failures: self.try_failures.load(Ordering::Relaxed),
            timeouts: sum(Counter::Timeouts),
            poison_events: sum(Counter::PoisonEvents),
            poison_clears: sum(Counter::PoisonClears),
            policy_panics: sum(Counter::PolicyPanics),
            quarantines: sum(Counter::Quarantines),
            heals: sum(Counter::Heals),
            algorithm_switches: sum(Counter::Switches),
            combined_ops: sum(Counter::CombinedOps),
        }
    }

    /// The liveness frame, given what only the substrate knows: whether
    /// the lock is held and whether its queue has waiters.
    pub fn health(&self, clock: &SampleClock, locked: bool, queued: bool) -> LockHealth {
        LockHealth {
            waiting: self.waiting_now(),
            acquisitions: clock.acquisitions(),
            handoffs: self.stats.sum(Counter::Handoffs),
            locked,
            queued,
            poisoned: self.is_poisoned(),
            quarantined: self.is_quarantined(),
            policy_panics: self.stats.sum(Counter::PolicyPanics),
            sample_period: self.sample_period(clock),
        }
    }
}

//! Native adaptation policies (real-thread counterparts of the
//! simulator-side policies, built on the same [`AdaptationPolicy`]
//! trait), and the native waiting-policy attribute set.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use adaptive_core::AdaptationPolicy;

use crate::mutex::SPIN_FOREVER;
use crate::raw::LockAlgorithm;

/// The paper's mutable waiting-policy attributes, on the native side:
/// `{spin, delay, timeout}` (Section 5.1's attribute table, minus
/// `sleep-time` — a real parked thread always sleeps until granted).
///
/// Every field is a run-time-mutable attribute of
/// [`AdaptiveMutex`](crate::AdaptiveMutex), retuned either by the
/// feedback loop ([`NativeDecision::SetPolicy`]) or externally
/// ([`AdaptiveMutex::set_waiting_policy`](crate::AdaptiveMutex::set_waiting_policy)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeWaitingPolicy {
    /// `no-of-spins`: probes made in the spin phase before parking;
    /// [`SPIN_FOREVER`] means "pure spin" (never park), `0` means "pure
    /// blocking" (park immediately).
    pub spin: u32,
    /// `delay-time`: cap on the bounded exponential backoff between
    /// probes, in `spin_loop` hint units (each probe pauses 1, 2, 4, …
    /// up to `delay` hints). `0` disables backoff (tight spinning).
    pub delay: u32,
    /// `timeout`: default bound for a *conditional* acquire
    /// ([`AdaptiveMutex::lock_conditional`](crate::AdaptiveMutex::lock_conditional));
    /// plain `lock()` ignores it, exactly like the simulator's
    /// reconfigurable lock.
    pub timeout: Option<Duration>,
}

impl NativeWaitingPolicy {
    /// Spin until granted, with backoff.
    pub fn pure_spin() -> NativeWaitingPolicy {
        NativeWaitingPolicy {
            spin: SPIN_FOREVER,
            delay: 64,
            timeout: None,
        }
    }

    /// Park immediately.
    pub fn pure_blocking() -> NativeWaitingPolicy {
        NativeWaitingPolicy {
            spin: 0,
            delay: 0,
            timeout: None,
        }
    }

    /// Spin `spins` probes (with backoff), then park — the paper's
    /// combined lock.
    pub fn combined(spins: u32) -> NativeWaitingPolicy {
        NativeWaitingPolicy {
            spin: spins,
            delay: 64,
            timeout: None,
        }
    }

    /// Add a conditional-acquire bound.
    pub fn with_timeout(mut self, timeout: Duration) -> NativeWaitingPolicy {
        self.timeout = Some(timeout);
        self
    }

    /// Compact descriptor for reports.
    pub fn descriptor(&self) -> String {
        let base = if self.spin == SPIN_FOREVER {
            "spin".to_string()
        } else if self.spin == 0 {
            "blocking".to_string()
        } else {
            format!("combined({})", self.spin)
        };
        match self.timeout {
            Some(t) => format!("{base}+timeout({t:?})"),
            None => base,
        }
    }

    /// Parse a control-plane policy descriptor: `spin`, `blocking`, or
    /// `combined:<spins>`, optionally suffixed with `+timeout:<nanos>`
    /// (`spin+timeout:1000000`). The inverse, up to formatting, of
    /// [`NativeWaitingPolicy::descriptor`]; returns `None` on anything
    /// it does not recognise.
    pub fn parse(s: &str) -> Option<NativeWaitingPolicy> {
        let (base, timeout) = match s.split_once("+timeout:") {
            Some((base, nanos)) => {
                let nanos: u64 = nanos.parse().ok()?;
                (base, Some(Duration::from_nanos(nanos)))
            }
            None => (s, None),
        };
        let mut policy = match base {
            "spin" => NativeWaitingPolicy::pure_spin(),
            "blocking" => NativeWaitingPolicy::pure_blocking(),
            _ => {
                let spins: u32 = base.strip_prefix("combined:")?.parse().ok()?;
                NativeWaitingPolicy::combined(spins)
            }
        };
        policy.timeout = timeout;
        Some(policy)
    }
}

impl Default for NativeWaitingPolicy {
    /// The adaptive mutex's initial configuration: a moderate combined
    /// policy (spin a little with backoff, then park).
    fn default() -> Self {
        NativeWaitingPolicy::combined(64)
    }
}

/// Sentinel for "no timeout" in the `timeout_nanos` attribute cell.
/// `u64::MAX`, not `0`: a zero-length timeout means "give up at once",
/// the opposite of "wait forever", so real timeouts clamp into
/// `1..=u64::MAX - 1` — zero rounds up to one nanosecond and durations
/// beyond ~584 years saturate instead of truncating.
const TIMEOUT_NONE: u64 = u64::MAX;

fn encode_timeout(t: Option<Duration>) -> u64 {
    match t {
        None => TIMEOUT_NONE,
        Some(d) => d.as_nanos().clamp(1, (TIMEOUT_NONE - 1) as u128) as u64,
    }
}

/// Store `v` only if the cell holds something else; returns whether it
/// stored. A relaxed load of a line in shared state is core-local; any
/// store claims it exclusive and invalidates every reader.
fn store_if_changed_u32(cell: &AtomicU32, v: u32) -> bool {
    let changed = cell.load(Ordering::Relaxed) != v;
    if changed {
        cell.store(v, Ordering::Relaxed);
    }
    changed
}

/// `u64` twin of [`store_if_changed_u32`].
fn store_if_changed_u64(cell: &AtomicU64, v: u64) -> bool {
    let changed = cell.load(Ordering::Relaxed) != v;
    if changed {
        cell.store(v, Ordering::Relaxed);
    }
    changed
}

/// The live `{spin, delay, timeout}` cells of one lock: a
/// [`NativeWaitingPolicy`] that waiters read while reconfigurations
/// write (all relaxed — each attribute is a self-contained hint). Shared
/// by the real-thread and the async mutex; what one unit of `spin` or
/// `delay` costs is up to the mutex that reads them. Read-mostly:
/// [`WaitAttrs::store`] leaves a re-affirmed cell's line shared.
pub struct WaitAttrs {
    spin: AtomicU32,
    delay: AtomicU32,
    timeout_nanos: AtomicU64,
}

impl WaitAttrs {
    /// Cells holding `initial`.
    pub fn new(initial: NativeWaitingPolicy) -> WaitAttrs {
        WaitAttrs {
            spin: AtomicU32::new(initial.spin),
            delay: AtomicU32::new(initial.delay),
            timeout_nanos: AtomicU64::new(encode_timeout(initial.timeout)),
        }
    }

    /// The `spin` attribute.
    #[inline]
    pub fn spin(&self) -> u32 {
        self.spin.load(Ordering::Relaxed)
    }

    /// The `delay` attribute.
    #[inline]
    pub fn delay(&self) -> u32 {
        self.delay.load(Ordering::Relaxed)
    }

    /// The `timeout` attribute.
    #[inline]
    pub fn timeout(&self) -> Option<Duration> {
        let ns = self.timeout_nanos.load(Ordering::Relaxed);
        (ns != TIMEOUT_NONE).then(|| Duration::from_nanos(ns))
    }

    /// The whole set (three independent loads: a concurrent `store` may
    /// be seen half-applied, which every reader tolerates).
    pub fn load(&self) -> NativeWaitingPolicy {
        NativeWaitingPolicy { spin: self.spin(), delay: self.delay(), timeout: self.timeout() }
    }

    /// Install a complete set; returns whether anything changed.
    pub fn store(&self, p: NativeWaitingPolicy) -> bool {
        store_if_changed_u32(&self.spin, p.spin)
            | store_if_changed_u32(&self.delay, p.delay)
            | store_if_changed_u64(&self.timeout_nanos, encode_timeout(p.timeout))
    }
}

/// A comparable lock configuration for experiments: either a *static*
/// waiting policy (the paper's fixed spin / pure blocking baselines) or
/// the adaptive feedback loop. This is the independent variable of the
/// native perf sweeps, shared by the lock microbenchmarks and the
/// native TSP solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Static combined policy: spin `k` probes (with backoff), then park.
    FixedSpin(u32),
    /// Static pure-blocking policy: park immediately.
    PureBlocking,
    /// The paper's `simple-adapt` feedback loop.
    Adaptive {
        /// `Waiting-Threshold`.
        threshold: u64,
        /// Spin increment `n`.
        n: u32,
    },
    /// Pin the lock to one zoo algorithm with default attributes and no
    /// feedback — the static baselines of the algorithm sweep.
    Algorithm(LockAlgorithm),
    /// Fairness-aware switching ([`NativeFairnessAdapt`]): FIFO ticket
    /// engine when the per-window worst wait says barging is starving
    /// someone, barging spin-park (with attribute tuning) when service
    /// is even and throughput matters.
    FairAdaptive {
        /// A single contended wait this long (ns) counts as a fairness
        /// collapse signal.
        unfair_wait_nanos: u64,
        /// Consecutive unfair (or calm) samples before switching.
        patience: u32,
    },
}

impl PolicyChoice {
    /// Label used in report rows and BENCH JSON.
    pub fn label(&self) -> String {
        match self {
            PolicyChoice::FixedSpin(k) => format!("fixed-spin({k})"),
            PolicyChoice::PureBlocking => "blocking".into(),
            PolicyChoice::Adaptive { .. } => "simple-adapt".into(),
            PolicyChoice::Algorithm(algo) => algo.label().into(),
            PolicyChoice::FairAdaptive { .. } => "fair-adapt".into(),
        }
    }

    /// Build an [`AdaptiveMutex`](crate::AdaptiveMutex) configured for
    /// this choice: static choices install a fixed waiting policy and a
    /// no-op feedback loop; the adaptive ones install their policy on a
    /// self-paced mutex ([`AdaptiveMutex::self_paced`](crate::AdaptiveMutex::self_paced)).
    pub fn build_mutex<T>(&self, value: T) -> crate::AdaptiveMutex<T> {
        use crate::AdaptiveMutex;
        match *self {
            PolicyChoice::FixedSpin(k) => {
                let m = AdaptiveMutex::with_policy(
                    value,
                    Box::new(FixedPolicy(NativeDecision::SetSpins(k))),
                    u64::MAX,
                );
                m.set_waiting_policy(NativeWaitingPolicy::combined(k));
                m
            }
            PolicyChoice::PureBlocking => {
                let m = AdaptiveMutex::with_policy(
                    value,
                    Box::new(FixedPolicy(NativeDecision::PureBlocking)),
                    u64::MAX,
                );
                m.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
                m
            }
            PolicyChoice::Adaptive { threshold, n } => {
                AdaptiveMutex::self_paced(value, Box::new(NativeSimpleAdapt::new(threshold, n)))
            }
            PolicyChoice::Algorithm(algo) => {
                let m = AdaptiveMutex::with_policy(
                    value,
                    Box::new(FixedPolicy(NativeDecision::SetAlgorithm(algo))),
                    u64::MAX,
                );
                // The lock is unshared, so the switch installs
                // immediately rather than waiting for a release.
                m.set_algorithm(algo);
                m
            }
            PolicyChoice::FairAdaptive { unfair_wait_nanos, patience } => AdaptiveMutex::self_paced(
                value,
                Box::new(NativeFairnessAdapt::new(unfair_wait_nanos, patience)),
            ),
        }
    }
}

/// What the native mutex's monitor reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeObservation {
    /// Waiting threads at the sampled unlock (a failed `try_lock`
    /// attempt is sampled as one would-be waiter on top of the parked
    /// and spinning ones).
    pub waiting: u64,
    /// Longest single contended wait (enter-to-acquired, ns) completed
    /// since the previous sample — the cheap online proxy for the
    /// per-thread spread signal. On a fair engine every wait is about
    /// `waiting × holding time`; under barging collapse one victim's
    /// wait stretches far past that, so this maximum diverges from the
    /// mean long before a full per-thread histogram could say so.
    pub max_wait_nanos: u64,
    /// Acquisitions this sample stands for: how many the lock has
    /// served since its previous sample. `2` at the paper's cadence, up
    /// to 64 once the feedback kernel has backed the monitor off (more
    /// after a combined batch). A policy that reads the *time* between
    /// its samples as a load signal must divide by this.
    pub acquisitions: u64,
}

impl NativeObservation {
    /// Observation with only the waiter count (no recorded wait in the
    /// window, the paper's every-other-unlock cadence) — the common
    /// case for tests and synthetic feeds.
    pub fn of(waiting: u64) -> NativeObservation {
        NativeObservation { waiting, max_wait_nanos: 0, acquisitions: 2 }
    }
}

/// Reconfiguration decision for the native mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeDecision {
    /// Spin until granted.
    PureSpin,
    /// Park immediately.
    PureBlocking,
    /// Spin this many iterations, then park.
    SetSpins(u32),
    /// Install a full `{spin, delay, timeout}` attribute set.
    SetPolicy(NativeWaitingPolicy),
    /// Migrate the lock to a different mutual-exclusion algorithm; the
    /// switch installs at the next release (quiesce-and-switch), so no
    /// waiter is lost mid-migration.
    SetAlgorithm(LockAlgorithm),
}

/// The paper's `simple-adapt`, scaled for spin-loop iterations instead
/// of memory probes.
#[derive(Debug, Clone)]
pub struct NativeSimpleAdapt {
    /// `Waiting-Threshold`.
    pub waiting_threshold: u64,
    /// Spin increment `n`.
    pub n: u32,
    /// Upper clamp.
    pub max_spins: u32,
    spins: i64,
}

impl NativeSimpleAdapt {
    /// Policy with the given threshold and increment.
    pub fn new(waiting_threshold: u64, n: u32) -> NativeSimpleAdapt {
        NativeSimpleAdapt {
            waiting_threshold,
            n,
            max_spins: 1 << 16,
            spins: 64,
        }
    }
}

impl AdaptationPolicy<NativeObservation> for NativeSimpleAdapt {
    type Decision = NativeDecision;

    fn decide(&mut self, obs: NativeObservation) -> Option<NativeDecision> {
        if obs.waiting == 0 {
            return Some(NativeDecision::PureSpin);
        }
        if obs.waiting <= self.waiting_threshold {
            self.spins = (self.spins + i64::from(self.n)).min(i64::from(self.max_spins));
        } else {
            self.spins -= 2 * i64::from(self.n);
        }
        if self.spins <= 0 {
            self.spins = 0;
            Some(NativeDecision::PureBlocking)
        } else {
            Some(NativeDecision::SetSpins(self.spins as u32))
        }
    }

    fn name(&self) -> &'static str {
        "native-simple-adapt"
    }
}

/// Fairness-aware adaptation: barging for throughput until the fairness
/// proxy says someone is being starved, FIFO until service is cheap to
/// make even again.
///
/// The signal is [`NativeObservation::max_wait_nanos`] — the worst
/// single contended wait completed in the sample window. On a fair
/// engine that maximum tracks `waiting × holding time`; when a barging
/// spin-park lock starts re-granting to the thread whose line is hot,
/// one victim's wait stretches far beyond it (the per-thread spread
/// collapse `BENCH_native_fairness.json` measures offline, here read
/// from one atomic `fetch_max`). `patience` consecutive unfair samples
/// migrate the lock to the strict-FIFO ticket engine; `patience`
/// consecutive calm samples (worst wait under half the threshold, at
/// most one waiter) migrate it back to attribute-tuned spin-park, which
/// is cheaper when fairness is not at risk. While on spin-park, the
/// inner [`NativeSimpleAdapt`] keeps tuning the spin attribute.
#[derive(Debug, Clone)]
pub struct NativeFairnessAdapt {
    /// Attribute tuning used while on the spin-park engine.
    attrs: NativeSimpleAdapt,
    /// A single contended wait this long (ns) counts as unfair.
    pub unfair_wait_nanos: u64,
    /// Consecutive unfair (or calm) samples before switching.
    pub patience: u32,
    unfair_streak: u32,
    calm_streak: u32,
    algo: LockAlgorithm,
}

impl NativeFairnessAdapt {
    /// Policy that tolerates worst waits up to `unfair_wait_nanos`
    /// before trading barging throughput for FIFO fairness.
    pub fn new(unfair_wait_nanos: u64, patience: u32) -> NativeFairnessAdapt {
        NativeFairnessAdapt {
            attrs: NativeSimpleAdapt::new(2, 32),
            unfair_wait_nanos: unfair_wait_nanos.max(1),
            patience: patience.max(1),
            unfair_streak: 0,
            calm_streak: 0,
            algo: LockAlgorithm::SpinPark,
        }
    }

    /// The algorithm this policy believes is installed (it mirrors its
    /// own `SetAlgorithm` decisions; a re-request after an external
    /// switch is harmless — the mutex drops no-op switches).
    pub fn algorithm(&self) -> LockAlgorithm {
        self.algo
    }
}

impl AdaptationPolicy<NativeObservation> for NativeFairnessAdapt {
    type Decision = NativeDecision;

    fn decide(&mut self, obs: NativeObservation) -> Option<NativeDecision> {
        let unfair = obs.max_wait_nanos >= self.unfair_wait_nanos;
        // Calm needs more than "not unfair": the worst wait must sit
        // comfortably under the threshold *and* pressure must be light,
        // or the switch back would re-trigger immediately (hysteresis).
        let calm = obs.max_wait_nanos <= self.unfair_wait_nanos / 2 && obs.waiting <= 1;
        match self.algo {
            LockAlgorithm::SpinPark => {
                self.unfair_streak = if unfair { self.unfair_streak + 1 } else { 0 };
                if self.unfair_streak >= self.patience {
                    self.algo = LockAlgorithm::Ticket;
                    self.unfair_streak = 0;
                    self.calm_streak = 0;
                    return Some(NativeDecision::SetAlgorithm(LockAlgorithm::Ticket));
                }
                self.attrs.decide(obs)
            }
            _ => {
                self.calm_streak = if calm { self.calm_streak + 1 } else { 0 };
                if self.calm_streak >= self.patience {
                    self.algo = LockAlgorithm::SpinPark;
                    self.calm_streak = 0;
                    return Some(NativeDecision::SetAlgorithm(LockAlgorithm::SpinPark));
                }
                None
            }
        }
    }

    fn name(&self) -> &'static str {
        "native-fairness-adapt"
    }
}

/// A fixed (non-adaptive) policy, for using `AdaptiveMutex` as a plain
/// spin-then-park mutex in comparisons.
#[derive(Debug, Clone, Copy)]
pub struct FixedPolicy(
    /// The decision to hold forever.
    pub NativeDecision,
);

impl AdaptationPolicy<NativeObservation> for FixedPolicy {
    type Decision = NativeDecision;

    fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
        Some(self.0)
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_attrs_store_reports_change_and_round_trips() {
        let attrs = WaitAttrs::new(NativeWaitingPolicy::default());
        assert_eq!(attrs.load(), NativeWaitingPolicy::default());
        assert!(!attrs.store(NativeWaitingPolicy::default()), "re-affirming stores nothing");
        let timed = NativeWaitingPolicy::combined(7).with_timeout(Duration::ZERO);
        assert!(attrs.store(timed));
        assert_eq!((attrs.spin(), attrs.delay()), (7, 64));
        // A zero-length timeout stays a bounded wait, not the sentinel.
        assert_eq!(attrs.timeout(), Some(Duration::from_nanos(1)));
        assert!(attrs.store(NativeWaitingPolicy::combined(7)), "clearing the timeout is a change");
        assert_eq!(attrs.timeout(), None);
    }

    #[test]
    fn zero_waiting_means_pure_spin() {
        let mut p = NativeSimpleAdapt::new(2, 8);
        assert_eq!(
            p.decide(NativeObservation::of(0)),
            Some(NativeDecision::PureSpin)
        );
    }

    #[test]
    fn light_waiting_grows_spins_heavy_cuts_double() {
        let mut p = NativeSimpleAdapt::new(2, 8);
        assert_eq!(
            p.decide(NativeObservation::of(1)),
            Some(NativeDecision::SetSpins(72))
        );
        assert_eq!(
            p.decide(NativeObservation::of(9)),
            Some(NativeDecision::SetSpins(56))
        );
    }

    #[test]
    fn sustained_pressure_reaches_pure_blocking() {
        let mut p = NativeSimpleAdapt::new(0, 16);
        let mut last = None;
        for _ in 0..10 {
            last = p.decide(NativeObservation::of(5));
        }
        assert_eq!(last, Some(NativeDecision::PureBlocking));
    }

    #[test]
    fn fixed_policy_never_changes() {
        let mut p = FixedPolicy(NativeDecision::SetSpins(7));
        for w in 0..5 {
            assert_eq!(
                p.decide(NativeObservation::of(w)),
                Some(NativeDecision::SetSpins(7))
            );
        }
    }

    #[test]
    fn waiting_policy_parse_round_trips_the_descriptor_shapes() {
        assert_eq!(
            NativeWaitingPolicy::parse("spin"),
            Some(NativeWaitingPolicy::pure_spin())
        );
        assert_eq!(
            NativeWaitingPolicy::parse("blocking"),
            Some(NativeWaitingPolicy::pure_blocking())
        );
        assert_eq!(
            NativeWaitingPolicy::parse("combined:48"),
            Some(NativeWaitingPolicy::combined(48))
        );
        assert_eq!(
            NativeWaitingPolicy::parse("blocking+timeout:250000"),
            Some(NativeWaitingPolicy::pure_blocking().with_timeout(Duration::from_nanos(250_000)))
        );
        assert_eq!(NativeWaitingPolicy::parse("adaptive"), None);
        assert_eq!(NativeWaitingPolicy::parse("combined:lots"), None);
        assert_eq!(NativeWaitingPolicy::parse("spin+timeout:soon"), None);
    }

    #[test]
    fn waiting_policy_constructors_cover_the_attribute_table() {
        assert_eq!(NativeWaitingPolicy::pure_spin().spin, SPIN_FOREVER);
        assert_eq!(NativeWaitingPolicy::pure_blocking().spin, 0);
        assert_eq!(NativeWaitingPolicy::combined(10).spin, 10);
        assert_eq!(NativeWaitingPolicy::default().spin, 64);
        let timed = NativeWaitingPolicy::combined(5).with_timeout(Duration::from_millis(2));
        assert_eq!(timed.timeout, Some(Duration::from_millis(2)));
    }

    #[test]
    fn policy_choices_build_working_mutexes() {
        for choice in [
            PolicyChoice::FixedSpin(16),
            PolicyChoice::PureBlocking,
            PolicyChoice::Adaptive { threshold: 2, n: 32 },
            PolicyChoice::Algorithm(LockAlgorithm::SpinPark),
            PolicyChoice::Algorithm(LockAlgorithm::Ticket),
            PolicyChoice::Algorithm(LockAlgorithm::Combining),
        ] {
            let m = choice.build_mutex(0u32);
            *m.lock() += 1;
            assert_eq!(m.into_inner(), 1, "{}", choice.label());
        }
        assert_eq!(PolicyChoice::FixedSpin(16).label(), "fixed-spin(16)");
        assert_eq!(PolicyChoice::PureBlocking.label(), "blocking");
        assert_eq!(
            PolicyChoice::Adaptive { threshold: 2, n: 32 }.label(),
            "simple-adapt"
        );
        // Pinning an algorithm installs it immediately on an unshared lock.
        let m = PolicyChoice::Algorithm(LockAlgorithm::Ticket).build_mutex(());
        assert_eq!(m.algorithm(), LockAlgorithm::Ticket);
        // Static choices pin the attribute set.
        let m = PolicyChoice::PureBlocking.build_mutex(());
        assert_eq!(m.waiting_policy(), NativeWaitingPolicy::pure_blocking());
    }

    /// Observation carrying a worst-wait signal.
    fn obs(waiting: u64, max_wait_nanos: u64) -> NativeObservation {
        NativeObservation { max_wait_nanos, ..NativeObservation::of(waiting) }
    }

    #[test]
    fn sustained_unfair_waits_switch_to_ticket_and_calm_switches_back() {
        let mut p = NativeFairnessAdapt::new(1_000_000, 3);
        assert_eq!(p.algorithm(), LockAlgorithm::SpinPark);
        // Two unfair samples: not patient enough yet; attribute tuning
        // keeps running underneath.
        assert!(p.decide(obs(3, 2_000_000)).is_some());
        assert!(p.decide(obs(3, 5_000_000)).is_some());
        assert_eq!(p.algorithm(), LockAlgorithm::SpinPark);
        // Third consecutive unfair sample crosses patience.
        assert_eq!(
            p.decide(obs(3, 1_000_000)),
            Some(NativeDecision::SetAlgorithm(LockAlgorithm::Ticket))
        );
        assert_eq!(p.algorithm(), LockAlgorithm::Ticket);
        // On the FIFO engine: stays put while loaded or while the worst
        // wait is still near the threshold.
        assert_eq!(p.decide(obs(4, 600_000)), None);
        assert_eq!(p.decide(obs(0, 900_000)), None, "wait above half threshold is not calm");
        // Calm = light pressure AND comfortable worst wait, sustained.
        assert_eq!(p.decide(obs(1, 100_000)), None);
        assert_eq!(p.decide(obs(0, 0)), None);
        assert_eq!(
            p.decide(obs(0, 200_000)),
            Some(NativeDecision::SetAlgorithm(LockAlgorithm::SpinPark))
        );
        assert_eq!(p.algorithm(), LockAlgorithm::SpinPark);
    }

    #[test]
    fn a_fair_sample_resets_the_unfair_streak() {
        let mut p = NativeFairnessAdapt::new(1_000, 2);
        assert!(p.decide(obs(2, 5_000)).is_some());
        assert!(p.decide(obs(2, 0)).is_some(), "fair sample breaks the streak");
        assert!(p.decide(obs(2, 5_000)).is_some());
        assert_eq!(p.algorithm(), LockAlgorithm::SpinPark, "streak must restart");
        assert_eq!(
            p.decide(obs(2, 5_000)),
            Some(NativeDecision::SetAlgorithm(LockAlgorithm::Ticket))
        );
    }

    #[test]
    fn fair_adaptive_choice_builds_a_working_mutex() {
        let choice = PolicyChoice::FairAdaptive { unfair_wait_nanos: 1_000_000, patience: 4 };
        assert_eq!(choice.label(), "fair-adapt");
        let m = choice.build_mutex(0u32);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 1);
    }

    #[test]
    fn descriptors_are_informative() {
        assert_eq!(NativeWaitingPolicy::pure_spin().descriptor(), "spin");
        assert_eq!(NativeWaitingPolicy::pure_blocking().descriptor(), "blocking");
        assert_eq!(NativeWaitingPolicy::combined(10).descriptor(), "combined(10)");
        assert!(NativeWaitingPolicy::combined(1)
            .with_timeout(Duration::from_micros(3))
            .descriptor()
            .contains("timeout"));
    }
}

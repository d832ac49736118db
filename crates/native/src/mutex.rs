//! A real-thread adaptive mutex with the paper's feedback loop.
//!
//! `AdaptiveMutex<T>` is a spin-then-park mutex whose waiting policy is a
//! *mutable attribute set* `{spin, delay, timeout}` retuned at run time
//! by an adaptation policy fed from a built-in monitor (waiter count,
//! sampled every other unlock to begin with, then at whatever period the
//! feedback kernel has backed off to: up to every 64th while its
//! decisions change nothing, every other one again once they do) — the
//! paper's adaptive lock, thirty years on, on `std` atomics.
//!
//! Protocol: a single state word packs the `LOCKED` bit, a `QUEUE_LOCKED`
//! maintenance bit, and the head pointer of an *intrusive MCS-style
//! waiter list* (prepend-ordered: head = newest waiter, tail = oldest).
//!
//! * **Acquire** — one CAS on the uncontended fast path; the contended
//!   path spins with bounded exponential backoff (re-reading the mutable
//!   spin attribute periodically, so a reconfiguration is observed even
//!   mid-spin), then enqueues itself with a lock-free CAS prepend and
//!   parks. No internal mutex anywhere.
//! * **Release** — one CAS on the fast path; the contended path takes the
//!   `QUEUE_LOCKED` bit (held only ever by the single lock holder, so it
//!   is uncontended by construction), walks the list pruning abandoned
//!   (timed-out) waiters, dequeues the oldest live waiter, and *directly
//!   hands the lock off* to it: the `LOCKED` bit never clears, ownership
//!   transfers through the waiter's status word.
//! * **Timed acquire** — a timed-out waiter abandons its queue node with
//!   a `WAITING -> ABANDONED` status CAS that races the releaser's
//!   `WAITING -> GRANTED` grant CAS; exactly one side wins, so no lock is
//!   ever lost or double-granted. Abandoned nodes are pruned lazily by
//!   the next contended release (or when the mutex is dropped).
//!
//! Memory layout follows the paper's `n1·R + n2·W` cost model (DESIGN.md
//! §12): the state word and the [`SampleClock`] share one
//! [`CachePadded`] line, and the [`Adaptation`] shared with the async
//! mutex (attribute set, waiter count, striped statistics, feedback
//! kernel) puts each of its parts on lines of their own. The clock
//! counts an acquisition with a plain load + store under the lock and
//! decides whether its release is a sample with one compare on the same
//! line, at acquire time — so an unsampled acquire/release touches
//! exactly *one* line (the state line) and performs no RMW beyond its
//! two CASes. An acquisition whose clock fires re-arms it from the
//! sampling period, which lives with the feedback kernel on the line
//! its release is about to write anyway.
//!
//! # The engine zoo and live algorithm switching
//!
//! The spin-then-park protocol above is only the *default engine*. The
//! mutex also embeds the native lock zoo — [`crate::TicketLock`] and
//! [`crate::FcLock`] — and an adaptation policy (or
//! [`AdaptiveMutex::set_algorithm`]) can migrate a running, contended
//! lock between engines with a quiesce-and-switch protocol:
//!
//! 1. A switch request parks in a `pending` cell; nobody blocks on it.
//! 2. The *releasing holder* consumes the request: it publishes the new
//!    engine in `current` and only then releases the old engine. Only
//!    holders switch, so `current` never changes while anyone is inside
//!    a critical section.
//! 3. Every acquirer re-checks `current` *after* winning its engine: if
//!    the lock migrated while it waited, it releases the stale engine
//!    (waking the next stale waiter, so the drain cascades) and retries
//!    on the new one. No waiter is ever lost — a stale waiter is always
//!    woken by either the switching holder or the stale waiter before
//!    it.
//!
//! Mutual exclusion across the switch: while a thread holds engine `E`
//! with `current == E`, every other thread either waits on `E` or fails
//! the post-acquire re-check and goes to `E` — and `current` cannot
//! move off `E` until the holder itself releases. Value visibility
//! rides the `current` cell: the switching holder stores it with
//! `Release` and every acquirer re-reads it with `Acquire`, so critical
//! sections that cross an engine transition are ordered through that
//! pair (same-engine chains use the engine's own release/acquire).

#![allow(unsafe_code)] // UnsafeCell + intrusive queue: the point of a mutex.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::adaptation::{
    Adaptation, BoxedNativePolicy, LockHealth, MutexStats, SampleClock, Substrate,
};
use crate::combining::{FcLock, OpPtr, SlotOutcome};
use crate::faults::FaultHook;
use crate::pad::CachePadded;
use crate::parker::WaitNode;
use crate::policy::{NativeSimpleAdapt, NativeWaitingPolicy};
use crate::raw::{LockAlgorithm, RawLock, ALGO_NONE};
use crate::stats::Counter;
use crate::ticket::TicketLock;

/// State-word bit: the lock is held.
const LOCKED: usize = 0b01;
/// State-word bit: a releaser is editing the waiter list.
const QUEUE_LOCKED: usize = 0b10;
const FLAG_MASK: usize = LOCKED | QUEUE_LOCKED;
/// The remaining bits hold the list head (`WaitNode` is 8-aligned).
const PTR_MASK: usize = !FLAG_MASK;

/// Spin-limit value meaning "pure spin" (never park).
pub const SPIN_FOREVER: u32 = u32::MAX;

/// How often the spin phase re-reads the mutable spin attribute, in
/// probes. Keeps a pure-spin waiter responsive to a policy downgrade
/// without adding a load to every probe.
const SPIN_RECHECK_PROBES: u32 = 32;
/// How often a long-spinning waiter yields the processor, in probes —
/// on an oversubscribed host the lock holder needs CPU time to release,
/// so a waiter that has already burned through its backoff ramp (~a few
/// microseconds) must hand the core back often or every spin phase
/// costs a scheduler quantum.
const SPIN_YIELD_PROBES: u32 = 32;
/// How often the timed spin phase consults the clock, in probes.
const SPIN_DEADLINE_PROBES: u32 = 8;

/// Error of [`AdaptiveMutex::lock_checked`]: the mutex was poisoned by
/// a holder that panicked. Like [`std::sync::PoisonError`], the guard is
/// still inside — poisoning is advisory, mutual exclusion held through
/// the unwind — so a caller that can vouch for (or repair) the protected
/// value takes it with [`Poisoned::into_inner`].
pub struct Poisoned<G> {
    guard: G,
}

impl<G> Poisoned<G> {
    /// Wrap a guard in the poisoned error. Public so runtime ports of
    /// the adaptive mutex (e.g. the async one) surface the *same* error
    /// type from their `lock_checked`, and callers handle poison
    /// identically across backends.
    pub fn new(guard: G) -> Poisoned<G> {
        Poisoned { guard }
    }

    /// Take the guard anyway, accepting that a previous holder died
    /// mid-critical-section.
    pub fn into_inner(self) -> G {
        self.guard
    }

    /// Borrow the guard without consuming the error.
    pub fn get_ref(&self) -> &G {
        &self.guard
    }
}

impl<G> std::fmt::Debug for Poisoned<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poisoned").finish_non_exhaustive()
    }
}

impl<G> std::fmt::Display for Poisoned<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        "adaptive mutex poisoned: a holder panicked in its critical section".fmt(f)
    }
}

impl<G> std::error::Error for Poisoned<G> {}

/// The waiter list head + flag bits. A separate type so that dropping
/// the mutex reclaims any abandoned (timed-out) nodes still linked in.
struct QueueWord(AtomicUsize);

impl QueueWord {
    #[inline]
    fn head(s: usize) -> *const WaitNode {
        (s & PTR_MASK) as *const WaitNode
    }
}

/// The state line: the queue word and the sample clock, padded
/// together, so counting an acquisition and asking the clock happen on
/// the very line the acquire CAS just made exclusive (the
/// release/acquire chain on the queue word orders the clock's plain
/// stores).
struct StateLine {
    word: QueueWord,
    clock: SampleClock,
}

impl Drop for QueueWord {
    fn drop(&mut self) {
        let mut cur = Self::head(*self.0.get_mut());
        while !cur.is_null() {
            // SAFETY: `&mut self` proves no thread is using the mutex, so
            // nobody else walks or edits the list; every node still
            // linked was leaked into it with `Arc::into_raw` by an
            // enqueuer whose wait was abandoned, and is reclaimed exactly
            // once here because `cur` advances past it. Exercised by
            // `lock_timeout_expires_and_recovers` and
            // `timed_and_untimed_waiters_interleave_without_loss`, which
            // drop mutexes that timed-out waiters left nodes in.
            let node = unsafe { Arc::from_raw(cur) };
            cur = node.next.get();
        }
    }
}

/// The engine-selection words, padded together on one read-mostly line:
/// every acquire and release loads `current`, but it is only *stored*
/// when a switch installs, so in steady state the line is silently
/// shared by every core (like the attribute line).
struct EngineMeta {
    /// The engine every acquire and release must go through, as a
    /// `LockAlgorithm` byte. Stored only by a releasing holder (or by
    /// `set_algorithm` on a lock it momentarily acquired), always with
    /// `Release`; re-read by acquirers with `Acquire`.
    current: AtomicU8,
    /// Requested engine awaiting installation ([`ALGO_NONE`] = none).
    /// Consumed by the next releasing holder.
    pending: AtomicU8,
}

/// The native lock zoo embedded in every mutex: the spin-then-park
/// protocol (on the state word) plus one instance of each `RawLock`
/// engine, selected through [`EngineMeta`]. The inactive engines are
/// idle memory — no thread touches their lines until a switch makes
/// one current.
struct Engines {
    meta: CachePadded<EngineMeta>,
    ticket: TicketLock,
    combining: FcLock,
}

impl Engines {
    fn new() -> Engines {
        Engines {
            meta: CachePadded::new(EngineMeta {
                current: AtomicU8::new(LockAlgorithm::SpinPark as u8),
                pending: AtomicU8::new(ALGO_NONE),
            }),
            ticket: TicketLock::new(),
            combining: FcLock::new(),
        }
    }

    /// The engine acquires and releases must currently go through.
    #[inline]
    fn current(&self) -> LockAlgorithm {
        LockAlgorithm::from_u8(self.meta.current.load(Ordering::Acquire))
            .unwrap_or(LockAlgorithm::SpinPark)
    }

    /// Whether a switch request is parked (release-path fast check).
    #[inline]
    fn has_pending(&self) -> bool {
        self.meta.pending.load(Ordering::Relaxed) != ALGO_NONE
    }

    /// Park a switch request for the next releasing holder.
    fn request(&self, algo: LockAlgorithm) {
        self.meta.pending.store(algo as u8, Ordering::Release);
    }

    /// Take the parked request, if any (at most one consumer wins).
    fn take_pending(&self) -> Option<LockAlgorithm> {
        LockAlgorithm::from_u8(self.meta.pending.swap(ALGO_NONE, Ordering::AcqRel))
    }

    /// Publish `algo` as the current engine. Caller must hold the lock.
    fn install(&self, algo: LockAlgorithm) {
        self.meta.current.store(algo as u8, Ordering::Release);
    }
}

/// The adaptive mutex.
///
/// Field order is the cache layout (DESIGN.md §12): one exclusive line
/// for the state word and the sample clock, the shared adaptive half
/// (each of its parts padded), the engine zoo, and a cold tail (fault
/// hook, value).
pub struct AdaptiveMutex<T> {
    state: CachePadded<StateLine>,
    /// Attributes, monitor, ledger, feedback kernel and poison flag.
    adaptation: Adaptation,
    /// Engine selection plus the zoo itself (each engine pads its own
    /// hot words).
    engines: Engines,
    /// Optional fault-injection hook (tests); one relaxed load on the
    /// contended release and sampled-observation paths when unset.
    fault_hook: OnceLock<Arc<dyn FaultHook>>,
    value: UnsafeCell<T>,
}

// SAFETY: the mutex protocol guarantees at most one thread holds the
// lock (single CAS winner or single status-word handoff grantee), and
// only the holder touches `value` through the guard. Every other field
// is `Sync` on its own (the policy slot through `GuardedLoop`).
unsafe impl<T: Send> Send for AdaptiveMutex<T> {}
// SAFETY: as for `Send` — shared `&AdaptiveMutex` access reaches `value`
// only through the one holder, so `T: Send` (not `T: Sync`) is the
// bound, exactly as for `std::sync::Mutex`. Exercised by
// `counter_hammering_loses_no_updates` and, across engine switches, by
// `live_switching_under_contention_loses_no_updates`.
unsafe impl<T: Send> Sync for AdaptiveMutex<T> {}

/// RAII guard; releases (and runs the feedback loop) on drop.
pub struct AdaptiveMutexGuard<'a, T> {
    mutex: &'a AdaptiveMutex<T>,
    /// Non-zero when this acquisition's unlock is a monitor sample: the
    /// number of acquisitions the sample stands for. Decided at acquire
    /// time from the same state-line count that records the
    /// acquisition, so the release path does no counter work at all.
    sampled: u64,
}

impl<T> AdaptiveMutex<T> {
    /// Mutex with the default `simple-adapt` policy (threshold 2,
    /// increment 32 spins), starting from a moderate combined
    /// configuration.
    pub fn new(value: T) -> AdaptiveMutex<T> {
        AdaptiveMutex::with_policy(value, Box::new(NativeSimpleAdapt::new(2, 32)))
    }

    /// Mutex with an explicit adaptation policy, whose monitor the
    /// feedback kernel paces: sampled every other unlock at first, then
    /// at a period that doubles up to 64 while the policy's decisions
    /// change nothing and returns to 2 when one does.
    pub fn with_policy(value: T, policy: BoxedNativePolicy) -> AdaptiveMutex<T> {
        AdaptiveMutex::build(value, policy, true)
    }

    /// Mutex whose monitor samples (`sampled`) or never runs: a static
    /// lock's policy is never consulted.
    pub(crate) fn build(value: T, policy: BoxedNativePolicy, sampled: bool) -> AdaptiveMutex<T> {
        AdaptiveMutex {
            state: CachePadded::new(StateLine {
                word: QueueWord(AtomicUsize::new(0)),
                clock: SampleClock::new(sampled),
            }),
            adaptation: Adaptation::new(policy, NativeWaitingPolicy::default()),
            engines: Engines::new(),
            fault_hook: OnceLock::new(),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquisitions between monitor samples right now: the period the
    /// feedback kernel has reached (`0`: a static lock, never sampled).
    pub fn sample_period(&self) -> u64 {
        self.adaptation.sample_period(&self.state.clock)
    }

    /// The adaptive half this mutex shares with the async one.
    pub fn adaptation(&self) -> &Adaptation {
        &self.adaptation
    }

    /// A guard for the lock the caller has just won.
    fn guard(&self) -> AdaptiveMutexGuard<'_, T> {
        AdaptiveMutexGuard { mutex: self, sampled: self.state.clock.charge(1, &self.adaptation) }
    }

    /// Acquire the mutex.
    pub fn lock(&self) -> AdaptiveMutexGuard<'_, T> {
        let acquired = self.acquire(None);
        debug_assert!(acquired, "untimed acquire cannot fail");
        self.guard()
    }

    /// Acquire through the current engine, re-dispatching across any
    /// live switch (see the module doc). Returns whether the lock was
    /// acquired — always, when `deadline` is `None`.
    fn acquire(&self, deadline: Option<Instant>) -> bool {
        let mut algo = self.engines.current();
        loop {
            let got = match algo {
                LockAlgorithm::SpinPark => {
                    // Uncontended fast path: one CAS, like a raw spin
                    // lock.
                    self.state
                        .word
                        .0
                        .compare_exchange(0, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                        || self.lock_contended(deadline)
                }
                LockAlgorithm::Ticket => self.acquire_zoo(&self.engines.ticket, deadline),
                LockAlgorithm::Combining => self.acquire_zoo(&self.engines.combining, deadline),
            };
            if !got {
                return false;
            }
            // Quiesce-and-switch re-check: a holder may have migrated
            // the lock while we waited on engine `algo`. If so, release
            // the stale engine (cascading the drain to the next stale
            // waiter) and retry on the new one; the deadline still
            // applies. `current` cannot change under us once it names
            // the engine we hold — only a holder switches, and a
            // would-be switcher must first acquire through `now`.
            let now = self.engines.current();
            if now == algo {
                return true;
            }
            self.release_engine(algo);
            algo = now;
        }
    }

    /// Contended acquire on a zoo engine. Stats and the waiter count
    /// work exactly like [`AdaptiveMutex::lock_contended`]; the wait
    /// itself is the engine's. A timed wait polls `try_acquire` instead
    /// of joining the queue — a zoo engine's queue slot cannot be
    /// abandoned, so a timed waiter must never enter it (FIFO order is
    /// therefore not guaranteed for timed acquires on zoo engines). The
    /// wait clock follows [`AdaptiveMutex::lock_contended`]'s rule, with
    /// joining the engine's queue in the place of the park.
    #[cold]
    fn acquire_zoo(&self, raw: &dyn RawLock, deadline: Option<Instant>) -> bool {
        if raw.try_acquire() {
            return true;
        }
        self.adaptation.begin_wait();
        let mut wait_start = None;
        let acquired = match deadline {
            None => {
                wait_start = Some(Instant::now());
                raw.acquire();
                true
            }
            Some(d) => {
                let mut backoff: u32 = 1;
                let mut probes: u32 = 0;
                loop {
                    if raw.try_acquire() {
                        break true;
                    }
                    probes = probes.wrapping_add(1);
                    if probes.is_multiple_of(SPIN_DEADLINE_PROBES) && Instant::now() >= d {
                        break false;
                    }
                    for _ in 0..backoff {
                        std::hint::spin_loop();
                    }
                    backoff = (backoff << 1).min(self.adaptation.attrs().delay().max(1));
                    if probes.is_multiple_of(SPIN_RECHECK_PROBES) {
                        wait_start.get_or_insert_with(Instant::now);
                    }
                    if probes.is_multiple_of(SPIN_YIELD_PROBES) {
                        std::thread::yield_now();
                    }
                }
            }
        };
        self.end_wait(acquired, wait_start)
    }

    /// Try-acquire through the current engine, re-dispatching across
    /// any live switch. No stats, no monitor feed — callers decide what
    /// a failure means.
    fn try_acquire_raw(&self) -> bool {
        let mut algo = self.engines.current();
        loop {
            let got = match algo {
                LockAlgorithm::SpinPark => self.try_acquire_spin_park(),
                LockAlgorithm::Ticket => self.engines.ticket.try_acquire(),
                LockAlgorithm::Combining => self.engines.combining.try_acquire(),
            };
            if !got {
                return false;
            }
            let now = self.engines.current();
            if now == algo {
                return true;
            }
            self.release_engine(algo);
            algo = now;
        }
    }

    /// One non-waiting claim of the spin-park state word.
    fn try_acquire_spin_park(&self) -> bool {
        let mut s = self.state.word.0.load(Ordering::Relaxed);
        loop {
            if s & LOCKED != 0 {
                return false;
            }
            match self.state.word.0.compare_exchange_weak(
                s,
                s | LOCKED,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(e) => s = e,
            }
        }
    }

    /// Acquire the mutex, reporting poisoning. Exactly
    /// [`AdaptiveMutex::lock`] — same protocol, same infallibility — but
    /// a caller that cares whether a previous holder died
    /// mid-critical-section learns it from the `Err` arm (which still
    /// carries the guard; see [`Poisoned`]).
    pub fn lock_checked(&self) -> Result<AdaptiveMutexGuard<'_, T>, Poisoned<AdaptiveMutexGuard<'_, T>>> {
        let guard = self.lock();
        if self.is_poisoned() {
            Err(Poisoned::new(guard))
        } else {
            Ok(guard)
        }
    }

    /// Whether a holder has panicked with the lock held. Sticky until
    /// [`AdaptiveMutex::clear_poison`].
    pub fn is_poisoned(&self) -> bool {
        self.adaptation.is_poisoned()
    }

    /// Un-poison the mutex after verifying (or repairing) the protected
    /// value. Returns whether it was poisoned — `true` means a recovery
    /// actually happened, and is counted in [`MutexStats::poison_clears`].
    pub fn clear_poison(&self) -> bool {
        self.adaptation.clear_poison()
    }

    /// Acquire with a bound on the wait. Returns `None` if `timeout`
    /// elapses first; the attempt leaves no trace beyond an abandoned
    /// queue node that the next contended release prunes.
    pub fn lock_timeout(&self, timeout: Duration) -> Option<AdaptiveMutexGuard<'_, T>> {
        if self.try_acquire_raw() {
            return Some(self.guard());
        }
        // A timeout too large for the clock to represent is no bound at
        // all (`None` deadline = untimed), not an instant failure.
        let deadline = Instant::now().checked_add(timeout);
        self.acquire(deadline).then(|| self.guard())
    }

    /// *Conditional* acquire, bounded by the mutable `timeout` attribute
    /// (the paper's conditional sleep/spin row). With the attribute
    /// unset this is a plain [`AdaptiveMutex::lock`].
    pub fn lock_conditional(&self) -> Option<AdaptiveMutexGuard<'_, T>> {
        match self.adaptation.attrs().timeout() {
            None => Some(self.lock()),
            Some(timeout) => self.lock_timeout(timeout),
        }
    }

    /// The contended path: spin (bounded, with backoff), then enqueue and
    /// park. Returns whether the lock was acquired (always, when
    /// `deadline` is `None`).
    ///
    /// The wait is timed for the monitor's `max_wait` window, but the
    /// clock starts only at the first [`SPIN_RECHECK_PROBES`] boundary
    /// or at the park, whichever comes first: a wait that ends sooner —
    /// most of them under two-thread contention — reads no clock and
    /// leaves the `max_wait` line alone, instead of paying two clock
    /// reads and a `fetch_max` while holding the lock it just won. Every
    /// recorded wait is therefore short by its first 32 probes: at the
    /// default `delay` of 64 that is about 1 700 pause hints, some
    /// 18 µs, against the 200 µs and up that the one consumer
    /// ([`NativeFairnessAdapt`](crate::NativeFairnessAdapt)) looks for.
    #[cold]
    fn lock_contended(&self, deadline: Option<Instant>) -> bool {
        self.adaptation.begin_wait();
        let attrs = self.adaptation.attrs();
        let mut wait_start = None;
        let acquired = 'acquire: {
            // --- Spin phase, bounded by the mutable spin attribute. ---
            let mut limit = attrs.spin();
            let mut probes: u32 = 0;
            let mut backoff: u32 = 1;
            loop {
                let s = self.state.word.0.load(Ordering::Relaxed);
                if s & LOCKED == 0
                    && self
                        .state
                        .word
                        .0
                        .compare_exchange_weak(s, s | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    break 'acquire true;
                }
                if limit != SPIN_FOREVER && probes >= limit {
                    break;
                }
                probes = probes.wrapping_add(1);
                // Bounded exponential backoff between probes.
                for _ in 0..backoff {
                    std::hint::spin_loop();
                }
                backoff = (backoff << 1).min(attrs.delay().max(1));
                // Re-read the mutable attribute periodically: a waiter
                // spinning under SPIN_FOREVER must observe a policy
                // downgrade to blocking instead of burning a core
                // forever.
                if probes.is_multiple_of(SPIN_RECHECK_PROBES) {
                    limit = attrs.spin();
                    wait_start.get_or_insert_with(Instant::now);
                    if probes.is_multiple_of(SPIN_YIELD_PROBES) {
                        std::thread::yield_now();
                    }
                }
                if let Some(d) = deadline {
                    if probes.is_multiple_of(SPIN_DEADLINE_PROBES) && Instant::now() >= d {
                        break 'acquire false;
                    }
                }
            }

            // --- Park phase: lock-free CAS prepend onto the waiter
            // list, marked in the same state word so release cannot
            // miss us. ---
            wait_start.get_or_insert_with(Instant::now);
            let node = Arc::new(WaitNode::new());
            let node_ptr = Arc::into_raw(Arc::clone(&node));
            let mut enqueued = false;
            loop {
                let s = self.state.word.0.load(Ordering::Relaxed);
                if s & LOCKED == 0 {
                    if self
                        .state
                        .word
                        .0
                        .compare_exchange_weak(s, s | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        break;
                    }
                    continue;
                }
                node.next.set(QueueWord::head(s));
                // Release ordering publishes `next` to list walkers.
                if self
                    .state
                    .word
                    .0
                    .compare_exchange_weak(
                        s,
                        node_ptr as usize | (s & FLAG_MASK),
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    enqueued = true;
                    break;
                }
            }
            if !enqueued {
                // Took the lock in the enqueue window; reclaim the ref
                // that was meant for the queue.
                // SAFETY: the node was never published.
                unsafe { drop(Arc::from_raw(node_ptr)) };
                break 'acquire true;
            }
            self.adaptation.count(Counter::Parked);
            match deadline {
                None => {
                    node.wait();
                    // Direct handoff: the releaser transferred ownership.
                    break 'acquire true;
                }
                Some(d) => {
                    if node.wait_deadline(d) {
                        break 'acquire true;
                    }
                    if node.status.try_abandon() {
                        // Timed out; the node stays linked (harmless) and
                        // is pruned by the next contended release.
                        break 'acquire false;
                    }
                    // A grant landed just as the deadline passed; the
                    // handoff already happened, so we own the lock.
                    break 'acquire true;
                }
            }
        };
        // Acquisitions are charged by the caller when it builds the
        // guard (the charge also decides the guard's sample flag).
        self.end_wait(acquired, wait_start)
    }

    /// Close a contended wait: a timeout is counted; a completed wait
    /// that got as far as starting its clock goes into the per-window
    /// maximum (the monitor's fairness proxy). Returns `acquired`.
    fn end_wait(&self, acquired: bool, clocked_since: Option<Instant>) -> bool {
        self.adaptation.end_wait(clocked_since.filter(|_| acquired));
        if !acquired {
            self.adaptation.count(Counter::Timeouts);
        }
        acquired
    }

    /// Release (and hand off) without feeding the monitor. Sampling is
    /// the guard's job — its `sampled` count, decided at acquire time,
    /// says whether this unlock feeds the policy — and the unwind path
    /// uses this directly: a panicking holder must still wake its
    /// waiters, but it must not run the adaptation policy, so the
    /// feedback loop's state looks exactly as if that acquisition's
    /// unlock was never sampled.
    fn unlock_raw(&self) {
        let algo = self.engines.current();
        // Quiesce-and-switch: the releasing holder is the only thread
        // that may move `current` (nobody is inside a critical section,
        // and every in-flight acquirer re-checks after it wins). Install
        // the pending engine *before* releasing the old one, so the
        // thread we wake — and everyone behind it — re-dispatches.
        if self.engines.has_pending() {
            self.consume_pending_switch(algo);
        }
        self.release_engine(algo);
    }

    /// Release engine `algo` without consuming a pending switch — used
    /// by the release half of [`AdaptiveMutex::unlock_raw`] and by
    /// acquirers backing off an engine the lock migrated away from.
    fn release_engine(&self, algo: LockAlgorithm) {
        match algo {
            LockAlgorithm::SpinPark => {
                // Uncontended fast path: queue empty, just clear LOCKED.
                if self
                    .state
                    .word
                    .0
                    .compare_exchange(LOCKED, 0, Ordering::Release, Ordering::Relaxed)
                    .is_err()
                {
                    self.unlock_contended();
                }
            }
            LockAlgorithm::Ticket => self.engines.ticket.release(),
            LockAlgorithm::Combining => self.engines.combining.release(),
        }
    }

    /// Consume a parked switch request while holding engine `from`.
    #[cold]
    fn consume_pending_switch(&self, from: LockAlgorithm) {
        let Some(to) = self.engines.take_pending() else {
            return; // raced another consumer (e.g. set_algorithm's probe)
        };
        if to == from {
            return;
        }
        self.engines.install(to);
        self.adaptation.count(Counter::Switches);
    }

    #[cold]
    fn unlock_contended(&self) {
        let mut s = self.state.word.0.load(Ordering::Acquire);
        loop {
            debug_assert!(s & LOCKED != 0, "unlock of an unheld mutex");
            if s & PTR_MASK == 0 {
                // Queue empty after all (the fast path raced an enqueue
                // that then won the lock another way): plain release.
                match self.state.word.0.compare_exchange_weak(
                    s,
                    s & !LOCKED,
                    Ordering::Release,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return,
                    Err(e) => {
                        s = e;
                        continue;
                    }
                }
            }
            // Take the maintenance bit. Only the (single) lock holder
            // ever holds it, so this CAS only retries on concurrent
            // enqueues.
            debug_assert_eq!(s & QUEUE_LOCKED, 0);
            match self.state.word.0.compare_exchange_weak(
                s,
                s | QUEUE_LOCKED,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(e) => s = e,
            }
        }
        // SAFETY: we hold LOCKED and QUEUE_LOCKED.
        unsafe { self.dequeue_and_grant() };
    }

    /// Dequeue the oldest live waiter and hand the lock to it (pruning
    /// abandoned nodes on the way), or fully release if every waiter
    /// abandoned.
    ///
    /// # Safety
    ///
    /// Caller must hold both `LOCKED` and `QUEUE_LOCKED`.
    unsafe fn dequeue_and_grant(&self) {
        'scan: loop {
            let mut s = self.state.word.0.load(Ordering::Acquire);
            if QueueWord::head(s).is_null() {
                // Queue drained (every waiter abandoned): full release,
                // clearing both bits. CAS-retry against late enqueues.
                loop {
                    if s & PTR_MASK != 0 {
                        continue 'scan; // a new waiter arrived: grant it
                    }
                    match self.state.word.0.compare_exchange_weak(
                        s,
                        0,
                        Ordering::Release,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return,
                        Err(e) => s = e,
                    }
                }
            }

            // Walk head -> tail (newest -> oldest), pruning abandoned
            // nodes; the grant target is the oldest live node (FIFO).
            let mut prev: *const WaitNode = std::ptr::null();
            let mut cur = QueueWord::head(s);
            let mut live: *const WaitNode = std::ptr::null();
            let mut live_prev: *const WaitNode = std::ptr::null();
            while !cur.is_null() {
                let next = (*cur).next.get();
                if (*cur).status.is_abandoned() {
                    if prev.is_null() {
                        // Unlink an abandoned head by swinging the state
                        // pointer; a failure means a fresh enqueue won —
                        // restart the walk from the new head.
                        let new_s = next as usize | (s & FLAG_MASK);
                        match self.state.word.0.compare_exchange(
                            s,
                            new_s,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                drop(Arc::from_raw(cur));
                                s = new_s;
                                cur = next;
                            }
                            Err(_) => continue 'scan,
                        }
                    } else {
                        (*prev).next.set(next);
                        drop(Arc::from_raw(cur));
                        cur = next;
                    }
                } else {
                    live = cur;
                    live_prev = prev;
                    prev = cur;
                    cur = next;
                }
            }
            if live.is_null() {
                continue; // pruned everything; re-check for late arrivals
            }

            // Unlink the target. Everything after it was abandoned and
            // pruned above, so it is the tail.
            debug_assert!((*live).next.get().is_null());
            if live_prev.is_null() {
                // Target is the head (single live node and no fresher
                // enqueues): swing the pointer to empty.
                debug_assert_eq!(QueueWord::head(s), live);
                if self
                    .state
                    .word
                    .0
                    .compare_exchange(s, s & FLAG_MASK, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue; // fresh enqueue; rewalk (target stays queued)
                }
            } else {
                (*live_prev).next.set(std::ptr::null());
            }
            let target = Arc::from_raw(live);
            // Drop the maintenance bit before waking; LOCKED stays set —
            // ownership transfers through the grant (direct handoff).
            self.state.word.0.fetch_and(!QUEUE_LOCKED, Ordering::Release);
            // Fault injection: the hook may delay the unpark (sleeping
            // here, before the grant) or drop it (granting quietly; the
            // waiter's rescue poll recovers).
            let drop_unpark = self
                .fault_hook
                .get()
                .is_some_and(|h| h.before_unpark());
            let granted = if drop_unpark {
                target.status.try_grant()
            } else {
                target.try_grant()
            };
            if granted {
                self.adaptation.count(Counter::Handoffs);
                return;
            }
            // The target abandoned between the walk and the grant:
            // retake the bit and pick another waiter.
            drop(target);
            loop {
                let s2 = self.state.word.0.load(Ordering::Relaxed);
                debug_assert!(s2 & LOCKED != 0);
                if s2 & QUEUE_LOCKED == 0
                    && self
                        .state
                        .word
                        .0
                        .compare_exchange_weak(
                            s2,
                            s2 | QUEUE_LOCKED,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }

    /// Degrade to the safe static endpoint: snap the attribute set to
    /// pure blocking and the engine to spin-park, and disable adaptation
    /// for an exponentially backed-off number of samples (see
    /// [`Adaptation::quarantine`]).
    pub fn quarantine(&self) {
        self.adaptation.quarantine(self);
    }

    /// Whether adaptation is currently quarantined (disabled, waiting
    /// out its backoff).
    pub fn is_quarantined(&self) -> bool {
        self.adaptation.is_quarantined()
    }

    /// End a quarantine immediately, on probation (see
    /// [`Adaptation::heal`]). Returns whether one was in force.
    pub fn heal(&self) -> bool {
        self.adaptation.heal()
    }

    /// Install a fault-injection hook (testing). At most one per mutex,
    /// for its whole lifetime.
    ///
    /// # Panics
    ///
    /// Panics if a hook is already installed.
    pub fn set_fault_hook(&self, hook: Arc<dyn FaultHook>) {
        if self.fault_hook.set(hook).is_err() {
            panic!("a fault hook is already installed on this mutex");
        }
    }

    /// Externally install a full `{spin, delay, timeout}` attribute set
    /// (the paper's charged `configure` operation, minus the simulated
    /// charge). This takes no ownership: while the policy owns the
    /// waiting group, its next decision may override the set.
    pub fn set_waiting_policy(&self, p: NativeWaitingPolicy) {
        self.adaptation.attrs().store(p);
    }

    /// Current `{spin, delay, timeout}` attribute set.
    pub fn waiting_policy(&self) -> NativeWaitingPolicy {
        self.adaptation.attrs().load()
    }

    /// The engine currently serving acquires and releases.
    pub fn algorithm(&self) -> LockAlgorithm {
        self.engines.current()
    }

    /// The engine a parked switch request will install at the next
    /// release, if any (monitoring; instantly stale).
    pub fn pending_algorithm(&self) -> Option<LockAlgorithm> {
        LockAlgorithm::from_u8(self.engines.meta.pending.load(Ordering::Relaxed))
    }

    /// Request a migration to `algo`. The switch installs via the
    /// quiesce-and-switch protocol — consumed by the next releasing
    /// holder, never blocking the requester — except that a currently
    /// *free* lock is switched immediately (the request momentarily
    /// acquires it to become that holder), so configuring an idle lock
    /// is deterministic.
    pub fn set_algorithm(&self, algo: LockAlgorithm) {
        if self.engines.current() == algo && !self.engines.has_pending() {
            return;
        }
        self.engines.request(algo);
        if self.try_acquire_raw() {
            // We are now the holder: our release consumes the request.
            self.unlock_raw();
        }
    }

    /// Acquire without waiting.
    ///
    /// A *failed* attempt is not invisible to the adaptation policy, the
    /// way a bypassed fast path would be: it is recorded in
    /// [`MutexStats::try_failures`], and every other failure is a monitor
    /// sample counting the caller as one would-be waiter on top of the
    /// current waiter count ([`Adaptation::try_failed`]). Try-lock-heavy
    /// workloads therefore still drive the feedback loop; the
    /// alternative (counting failures but never sampling them) would
    /// let a 100%-try_lock workload pin the policy at its initial
    /// configuration forever.
    pub fn try_lock(&self) -> Option<AdaptiveMutexGuard<'_, T>> {
        if self.try_acquire_raw() {
            return Some(self.guard());
        }
        self.adaptation.try_failed(self, &self.state.clock);
        None
    }

    /// Run `f` on the protected value as one critical section.
    ///
    /// On every engine but the flat-combining one this is exactly
    /// `f(&mut *self.lock())`. Under [`LockAlgorithm::Combining`] the
    /// operation is *published* instead: a waiter hands its critical
    /// section to whichever thread holds the lock (the combiner), which
    /// executes whole batches under one hold — the queue-of-work
    /// alternative to a queue of waiters. Guard-based `lock()` calls
    /// keep working under the combining engine too; they simply never
    /// combine.
    ///
    /// # Panics
    ///
    /// If `f` panics the mutex is poisoned and the panic resurfaces in
    /// *this* thread (a combiner executing it on our behalf catches it
    /// and keeps running its batch).
    pub fn with_locked<R: Send>(&self, f: impl FnOnce(&mut T) -> R + Send) -> R {
        if self.engines.current() != LockAlgorithm::Combining {
            return f(&mut *self.lock());
        }
        // Combining fast path: the lock is free — take it and run `f`
        // directly, helping any published backlog while we hold it.
        // Publication (slot claim, outcome polling, reclaim: three
        // extra line transfers plus the closure-erasure plumbing) only
        // pays off when a combiner already holds the lock and can
        // batch us; an uncontended `with_locked` costs a guarded
        // `lock()` plus one pending-hint load. A panic in `f` unwinds
        // through the guard and poisons, exactly like the `lock()`
        // path.
        if self.try_acquire_raw() {
            let mut guard = self.guard();
            // SAFETY: we hold the mutex (the guard above releases it).
            let r = f(unsafe { &mut *self.value.get() });
            guard.sampled += self.drain_combined();
            drop(guard);
            return r;
        }
        self.run_combined(f)
    }

    /// The combining path of [`AdaptiveMutex::with_locked`].
    #[cold]
    fn run_combined<R: Send>(&self, f: impl FnOnce(&mut T) -> R + Send) -> R {
        // An op lands here because the lock was held when it arrived:
        // that is a contended acquisition in every sense that matters
        // to observers (the shipped op waits for a holder exactly like
        // a queued waiter), so it counts in `MutexStats::contended` —
        // otherwise a lock that migrates to combining goes dark to
        // contention-rate monitors (e.g. resharding triggers) at the
        // moment it becomes hottest.
        self.adaptation.count(Counter::Contended);
        /// A `*mut T` the op closure may carry across threads; the
        /// executor holds the mutex when it dereferences.
        struct ValuePtr<T>(*mut T);
        // SAFETY: see above — access is serialized by the mutex.
        unsafe impl<T> Send for ValuePtr<T> {}
        // SAFETY: the op closure only dereferences the pointer while its
        // executor (the publisher after acquiring, or a combiner) holds
        // the mutex, so a shared `&ValuePtr` never yields two live
        // `&mut T`. Exercised by
        // `with_locked_combines_under_the_combining_engine`.
        unsafe impl<T> Sync for ValuePtr<T> {}

        let value = ValuePtr(self.value.get());
        let mut result: Option<R> = None;
        {
            // Capture the Sync wrapper, not the raw pointer field (2021
            // disjoint capture would otherwise pull in the bare `*mut T`).
            let value = &value;
            let mut f = Some(f);
            let mut op = || {
                if let Some(f) = f.take() {
                    // SAFETY: whoever runs the op (us after acquiring,
                    // or a combiner that already holds the lock) owns
                    // the mutex for its duration.
                    result = Some(f(unsafe { &mut *value.0 }));
                }
            };
            let op_dyn: &mut (dyn FnMut() + Send) = &mut op;
            // SAFETY: the pointer's lifetime is erased, but `PublishedOp`
            // guarantees (cancelling or waiting out execution on drop)
            // that it is never used after this scope unwinds.
            let op_ptr: OpPtr = unsafe { std::mem::transmute(op_dyn) };
            match self.engines.combining.publish(op_ptr) {
                Some(published) => {
                    let mut probes: u32 = 0;
                    loop {
                        match published.outcome() {
                            SlotOutcome::Done => {
                                published.finish();
                                break;
                            }
                            SlotOutcome::Panicked => {
                                published.finish();
                                panic!("adaptive mutex combined critical section panicked");
                            }
                            SlotOutcome::Pending => {
                                // Try to become the combiner ourselves
                                // (through the full engine protocol, so
                                // this stays correct across a live
                                // switch away from Combining).
                                if self.try_acquire_raw() {
                                    let mut guard = self.guard();
                                    guard.sampled += self.drain_combined();
                                    drop(guard);
                                    continue;
                                }
                                probes = probes.wrapping_add(1);
                                if probes.is_multiple_of(SPIN_YIELD_PROBES) {
                                    std::thread::yield_now();
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                }
                None => {
                    // Publication slots full: run inline under the lock
                    // (and help drain the backlog while holding it).
                    let mut guard = self.lock();
                    op();
                    guard.sampled += self.drain_combined();
                    drop(guard);
                }
            }
        }
        match result {
            Some(r) => r,
            // `Done` without a result would mean the op ran without
            // taking `f` — impossible by construction.
            None => unreachable!("combined op completed without running"),
        }
    }

    /// Execute every published combining op. The caller must hold the
    /// mutex (any engine). Panicked ops poison the mutex — their
    /// publishers re-raise — and executed ops are charged to
    /// [`MutexStats::combined_ops`] in one batch RMW.
    ///
    /// Returns non-zero when the batch carried the count past the clock's
    /// sample point (the acquisitions that sample stands for), so the
    /// caller can add it to its guard's `sampled`. Shipped ops are charged to the
    /// acquisition count too: an op the lock serviced is an op the lock
    /// serviced, whichever thread ran it — and if batches didn't
    /// advance the sample clock, a lock that migrates to combining
    /// would starve its own policy of samples at peak load (reading as
    /// idle exactly when hottest, then flapping engines), and look
    /// frozen to the breaker's stall detector.
    fn drain_combined(&self) -> u64 {
        // SAFETY: the caller holds the mutex, which is the exclusion
        // `drain` requires.
        let report = unsafe { self.engines.combining.drain() };
        let mut sampled = 0;
        if report.executed > 0 {
            let executed = u64::from(report.executed);
            self.adaptation.count_n(Counter::CombinedOps, executed);
            sampled = self.state.clock.charge(executed, &self.adaptation);
        }
        if report.panicked > 0 {
            self.adaptation.poison(u64::from(report.panicked));
        }
        sampled
    }

    /// Current value of the spin attribute.
    pub fn spin_limit(&self) -> u32 {
        self.adaptation.attrs().spin()
    }

    /// Current waiter count (monitoring).
    pub fn waiting_now(&self) -> u32 {
        self.adaptation.waiting_now()
    }

    /// Whether the lock is currently held (monitoring; instantly stale).
    pub fn is_locked(&self) -> bool {
        match self.engines.current() {
            LockAlgorithm::SpinPark => self.state.word.0.load(Ordering::Relaxed) & LOCKED != 0,
            LockAlgorithm::Ticket => self.engines.ticket.is_locked(),
            LockAlgorithm::Combining => self.engines.combining.is_locked(),
        }
    }

    /// Whether the spin-park waiter queue is non-empty (monitoring;
    /// instantly stale). Zoo engines keep their waiters in their own
    /// structures — [`AdaptiveMutex::waiting_now`] covers every engine.
    pub fn has_queued_waiters(&self) -> bool {
        self.state.word.0.load(Ordering::Relaxed) & PTR_MASK != 0
    }

    /// Liveness frame for a supervisor (monitoring; instantly stale).
    pub fn health(&self) -> LockHealth {
        self.adaptation.health(&self.state.clock, self.is_locked(), self.has_queued_waiters())
    }

    /// Try to un-wedge the lock without perturbing its users: if it is
    /// free, acquire and release it, which re-runs the contended release
    /// path and grants (or prunes) any queued waiter whose wakeup was
    /// lost. A held lock is left alone. Returns whether the nudge ran.
    pub fn nudge(&self) -> bool {
        self.try_lock().map(drop).is_some()
    }

    /// Counter snapshot, aggregated lazily across the counter stripes
    /// (see [`Adaptation::stats`]).
    pub fn stats(&self) -> MutexStats {
        self.adaptation.stats(&self.state.clock)
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

/// Threads back off up to a `delay` of 64 between spin probes, own a
/// zoo of engines, and a fault hook may stall their monitor feed.
impl<T> Substrate for AdaptiveMutex<T> {
    const SHORTHAND_DELAY: u32 = 64;

    fn switch_engine(&self, algo: LockAlgorithm) -> bool {
        // The waiting attributes are left alone: they steer the
        // spin-park engine and the timed zoo waits, whichever is current.
        let changed = self.engines.current() != algo;
        if changed {
            self.set_algorithm(algo);
        }
        changed
    }

    fn snap_engine(&self) {
        // The only engine whose waiters park (and honour the snap to
        // pure blocking) instead of burning cores.
        self.set_algorithm(LockAlgorithm::SpinPark);
    }

    fn feeds_monitor(&self) -> bool {
        !self.fault_hook.get().is_some_and(|h| h.stall_monitor_sample())
    }
}

impl<T> Deref for AdaptiveMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive ownership of the lock.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T> DerefMut for AdaptiveMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, plus `&mut self` for exclusive reborrow.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T> Drop for AdaptiveMutexGuard<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The critical section died mid-flight: mark the data suspect
            // and release without running the adaptation policy. Waiters
            // are still woken (no one is stranded by a panic) and the
            // waiter count, queue words, and handoff protocol unwind
            // exactly as on the normal path — only the policy callback is
            // skipped, so the feedback state is bit-identical to a run in
            // which this acquisition's unlock was simply never sampled.
            self.mutex.adaptation.poison(1);
            self.mutex.unlock_raw();
        } else {
            self.mutex.unlock_raw();
            if self.sampled != 0 {
                self.mutex.adaptation.sample(self.mutex, self.sampled);
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AdaptiveMutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AdaptiveMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("AdaptiveMutex");
        d.field("spin_limit", &self.spin_limit());
        d.field("sample_period", &self.sample_period());
        d.field("waiting", &self.waiting_now());
        match self.try_lock() {
            Some(g) => d.field("value", &*g).finish(),
            None => d.field("value", &"<locked>").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, NativeDecision, NativeObservation};
    use adaptive_core::{AdaptationPolicy, QUARANTINE_BASE_TICKS, SAMPLE_PERIOD_FLOOR};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn guard_gives_exclusive_access() {
        let m = AdaptiveMutex::new(5u32);
        {
            let mut g = m.lock();
            *g += 1;
            assert_eq!(*g, 6);
        }
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = AdaptiveMutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        assert_eq!(m.stats().try_failures, 1);
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn counter_hammering_loses_no_updates() {
        let m = Arc::new(AdaptiveMutex::new(0u64));
        let threads = 8;
        let iters = 2_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), threads * iters);
        let s = m.stats();
        assert_eq!(s.acquisitions, threads * iters + 1);
    }

    #[test]
    fn uncontended_usage_converges_to_pure_spin() {
        let m = AdaptiveMutex::new(());
        for _ in 0..16 {
            drop(m.lock());
        }
        assert_eq!(m.spin_limit(), SPIN_FOREVER, "no waiters -> pure spin");
    }

    #[test]
    fn long_holds_drive_spins_down() {
        // Saturate with long critical sections: waiters accumulate and
        // the policy must cut spinning (possibly to pure blocking).
        let m = Arc::new(AdaptiveMutex::with_policy((), Box::new(NativeSimpleAdapt::new(0, 16))));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..30 {
                        let g = m.lock();
                        std::thread::sleep(Duration::from_micros(300));
                        drop(g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = m.stats();
        assert!(s.reconfigurations > 0, "policy never fired");
        assert!(s.parked > 0, "nobody ever parked despite long holds");
        assert!(s.handoffs > 0, "parked waiters must be served by handoff");
    }

    #[test]
    fn guard_drop_wakes_waiters_promptly() {
        let m = Arc::new(AdaptiveMutex::with_policy(
            0u32,
            Box::new(FixedPolicy(NativeDecision::PureBlocking)),
        ));
        // Force pure-blocking mode so the waiter definitely parks.
        m.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            *m2.lock() += 1;
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(g);
        waiter.join().unwrap();
        assert_eq!(*m.lock(), 1);
        assert!(m.stats().handoffs >= 1);
    }

    #[test]
    fn stale_spin_limit_is_rechecked_mid_spin() {
        // Regression test: a pure-spin waiter used to load `spin_limit`
        // once per acquire round, so a policy downgrade to blocking was
        // never observed by a thread already spinning under SPIN_FOREVER
        // — it burned a core until the lock happened to be released.
        // The spin loop must now observe the downgrade and park.
        let m = Arc::new(AdaptiveMutex::build(
            (),
            // A static lock, whose policy is never consulted, so only
            // the external configuration below steers the attributes.
            Box::new(FixedPolicy(NativeDecision::SetSpins(0))),
            false,
        ));
        m.set_waiting_policy(NativeWaitingPolicy {
            spin: SPIN_FOREVER,
            delay: 4,
            timeout: None,
        });
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            drop(m2.lock()); // spins forever under the initial policy
        });
        // Let the waiter reach its spin loop.
        while m.waiting_now() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        // Downgrade to pure blocking while the waiter is mid-spin: it
        // must re-check the attribute, park, and be handed the lock.
        m.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
        let t0 = std::time::Instant::now();
        while m.stats().parked == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "waiter never observed the mid-spin policy downgrade"
            );
            std::thread::yield_now();
        }
        drop(g);
        waiter.join().unwrap();
        let s = m.stats();
        assert!(s.parked >= 1, "waiter must have parked after the downgrade");
        assert!(s.handoffs >= 1, "parked waiter must be served by handoff");
    }

    #[test]
    fn lock_timeout_expires_and_recovers() {
        let m = Arc::new(AdaptiveMutex::new(0u32));
        m.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
        let g = m.lock();
        // Times out while held...
        assert!(m.lock_timeout(Duration::from_millis(10)).is_none());
        assert_eq!(m.stats().timeouts, 1);
        drop(g);
        // ...and the abandoned node must not wedge the lock.
        *m.lock_timeout(Duration::from_secs(5)).expect("lock free now") += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn conditional_acquire_honours_the_timeout_attribute() {
        let m = AdaptiveMutex::new(());
        // Unset attribute: conditional acquire is a plain lock.
        assert!(m.lock_conditional().is_some());
        m.set_waiting_policy(
            NativeWaitingPolicy::pure_blocking().with_timeout(Duration::from_millis(5)),
        );
        let g = m.lock();
        assert!(m.lock_conditional().is_none(), "attribute must bound the wait");
        drop(g);
        assert!(m.lock_conditional().is_some());
    }

    #[test]
    fn timed_and_untimed_waiters_interleave_without_loss() {
        // Hammer the lock with a mix of plain and timed-out acquires;
        // abandoned nodes must be pruned and every grant must land.
        let m = Arc::new(AdaptiveMutex::new(0u64));
        m.set_waiting_policy(NativeWaitingPolicy::combined(8));
        let plain = 4u64;
        let iters = 500u64;
        let mut handles: Vec<_> = (0..plain)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        handles.push({
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for _ in 0..iters {
                    if let Some(mut g) = m.lock_timeout(Duration::from_micros(50)) {
                        *g += 1;
                    }
                }
            })
        });
        for h in handles {
            h.join().unwrap();
        }
        let s = m.stats();
        let total = *m.lock();
        assert_eq!(total, s.acquisitions, "every acquisition incremented once");
        assert!(total >= plain * iters, "plain acquires can never be lost");
        assert_eq!(m.waiting_now(), 0, "no stranded waiter");
    }

    #[test]
    fn debug_format_shows_state() {
        let m = AdaptiveMutex::new(7u8);
        let s = format!("{m:?}");
        assert!(s.contains("spin_limit"));
        assert!(s.contains("sample_period: 2"), "{s}");
        assert!(s.contains('7'));
    }

    #[test]
    fn panic_while_holding_poisons_but_recovers() {
        let m = Arc::new(AdaptiveMutex::new(0u32));
        let m2 = Arc::clone(&m);
        let dead = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 13;
            panic!("die mid-critical-section");
        });
        assert!(dead.join().is_err());
        assert!(m.is_poisoned());
        assert_eq!(m.stats().poison_events, 1);
        // The infallible API keeps working: poisoning is advisory.
        assert_eq!(*m.lock(), 13);
        assert_eq!(m.waiting_now(), 0, "panic must not leak a waiter slot");
        // Checked API surfaces it, with the guard still usable.
        let e = m.lock_checked().expect_err("must report poison");
        assert_eq!(**e.get_ref(), 13);
        *e.into_inner() = 14;
        assert!(m.clear_poison());
        assert!(!m.is_poisoned());
        assert!(!m.clear_poison(), "second clear is a no-op");
        assert_eq!(m.stats().poison_clears, 1);
        assert_eq!(*m.lock_checked().expect("clean again"), 14);
    }

    #[test]
    fn panicking_holder_wakes_its_waiters() {
        // A holder that dies must still hand the lock to parked waiters
        // — poisoning is advisory, stranding would be a bug.
        let m = Arc::new(AdaptiveMutex::new(0u32));
        m.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
        let m2 = Arc::clone(&m);
        let dead = std::thread::spawn(move || {
            let _g = m2.lock();
            // Hold until a waiter has actually parked, then die.
            while m2.waiting_now() == 0 {
                std::thread::yield_now();
            }
            panic!("holder dies with a waiter parked");
        });
        while !m.is_locked() {
            std::thread::yield_now();
        }
        let m3 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            *m3.lock() += 1;
        });
        assert!(dead.join().is_err());
        waiter.join().unwrap();
        assert!(m.is_poisoned());
        assert_eq!(*m.lock(), 1);
    }

    /// A policy that panics on its first decision and then behaves.
    struct PanicOnce {
        panicked: bool,
    }

    impl AdaptationPolicy<NativeObservation> for PanicOnce {
        type Decision = NativeDecision;

        fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
            if !self.panicked {
                self.panicked = true;
                panic!("policy callback dies");
            }
            Some(NativeDecision::PureSpin)
        }
    }

    #[test]
    fn policy_panic_quarantines_then_heals_with_backoff() {
        let m = AdaptiveMutex::with_policy(0u32, Box::new(PanicOnce { panicked: false }));
        // The kernel samples at its floor period through a quarantine
        // and after a decision that changes something: every other
        // acquisition.
        let sample = || (0..SAMPLE_PERIOD_FLOOR).for_each(|_| drop(m.lock()));
        // First sampled unlock: the policy panics; the lock must survive,
        // snap to pure blocking, and disable adaptation.
        sample();
        let s = m.stats();
        assert_eq!(s.policy_panics, 1);
        assert_eq!(s.quarantines, 1);
        assert!(m.is_quarantined());
        assert_eq!(m.spin_limit(), 0, "quarantine snaps to pure blocking");
        // Serve out the backoff: QUARANTINE_BASE_TICKS sampled
        // observations pass policy-free.
        for _ in 0..QUARANTINE_BASE_TICKS {
            sample();
        }
        assert!(!m.is_quarantined());
        assert_eq!(m.stats().heals, 1);
        // Next sample reaches the (now well-behaved) policy again.
        sample();
        assert_eq!(m.spin_limit(), SPIN_FOREVER, "healed policy runs again");
        assert_eq!(m.stats().policy_panics, 1, "no further panics");
    }

    #[test]
    fn operator_heal_ends_quarantine_immediately() {
        let m = AdaptiveMutex::new(0u32);
        assert!(!m.heal(), "healing a healthy lock is a no-op");
        m.quarantine();
        assert!(m.is_quarantined());
        assert!(m.heal());
        assert!(!m.is_quarantined(), "heal skips the backoff countdown");
        let s = m.stats();
        assert_eq!(s.quarantines, 1);
        assert_eq!(s.heals, 1);
        assert!(!m.heal(), "double heal reports nothing to do");
        // A healed lock re-quarantines with a longer sentence until the
        // probation period is served (the level was not reset).
        m.quarantine();
        assert!(m.is_quarantined());
        assert_eq!(m.stats().quarantines, 2);
    }

    /// A policy that counts how often it is consulted.
    struct CountingPolicy(Arc<std::sync::atomic::AtomicU64>);

    impl AdaptationPolicy<NativeObservation> for CountingPolicy {
        type Decision = NativeDecision;

        fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
            self.0.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    #[test]
    fn panicking_unlock_never_reaches_the_policy() {
        // The release path of a panicking holder must not feed the
        // feedback loop: the monitor stream looks exactly as if that
        // acquisition's unlock was never sampled.
        let decides = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let m = Arc::new(AdaptiveMutex::with_policy(
            (),
            Box::new(CountingPolicy(Arc::clone(&decides))),
        ));
        // A policy that decides nothing is sampled at acquisitions 2, 4,
        // 8, 16, … (`tests/sample_cadence.rs`).
        let lock_n = |n| (0..n).for_each(|_| drop(m.lock()));
        lock_n(4);
        let before = decides.load(Ordering::Relaxed);
        assert_eq!(before, 2);
        // Acquisition 8 is a sample point, and its holder dies.
        lock_n(3);
        let m2 = Arc::clone(&m);
        let dead = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        });
        assert!(dead.join().is_err());
        assert_eq!(
            decides.load(Ordering::Relaxed),
            before,
            "panicking unlock must skip the policy"
        );
        lock_n(8);
        assert_eq!(decides.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn health_probe_snapshots_and_nudges() {
        let m = Arc::new(AdaptiveMutex::new(0u32));
        let h = m.health();
        assert!(!h.locked && !h.poisoned && !h.quarantined);
        assert_eq!(h.waiting, 0);
        assert!(m.nudge(), "free lock accepts the nudge");
        let g = m.lock();
        let h = m.health();
        assert!(h.locked);
        assert!(!m.nudge(), "held lock declines the nudge");
        drop(g);
        m.quarantine();
        assert!(m.health().quarantined);
        assert_eq!(m.stats().quarantines, 1);
    }

    #[test]
    fn fault_hook_stalls_starve_the_policy() {
        use crate::faults::{FaultPlan, FaultSpec};
        let decides = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let m = AdaptiveMutex::with_policy((), Box::new(CountingPolicy(Arc::clone(&decides))));
        // Stall every sample: the clock fires but nothing reaches the
        // policy — a dead monitor feed, not a crashed lock. The kernel
        // never hears of a stalled sample, so it stays at its floor
        // period: ten samples are twenty acquisitions.
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(5).with_monitor_stalls(1)));
        m.set_fault_hook(Arc::clone(&plan) as Arc<dyn FaultHook>);
        for _ in 0..10 * SAMPLE_PERIOD_FLOOR {
            drop(m.lock());
        }
        assert_eq!(decides.load(Ordering::Relaxed), 0);
        assert_eq!(plan.report().monitor_stalls, 10);
    }

    #[test]
    fn dropped_unparks_do_not_strand_waiters() {
        use crate::faults::{FaultPlan, FaultSpec};
        let m = Arc::new(AdaptiveMutex::new(0u64));
        m.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
        // Drop every unpark: every parked waiter must be rescued by the
        // parker's poll instead of hanging forever.
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(11).with_unpark_drops(1)));
        m.set_fault_hook(Arc::clone(&plan) as Arc<dyn FaultHook>);
        // Park all the waiters behind a held lock, so every subsequent
        // grant flows through the queue (and its dropped unpark).
        let g = m.lock();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    *m.lock() += 1;
                })
            })
            .collect();
        while m.waiting_now() < 4 {
            std::thread::yield_now();
        }
        drop(g);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4);
        assert_eq!(m.waiting_now(), 0);
        assert!(
            plan.report().unparks_dropped > 0,
            "the run must actually have exercised lost wakeups"
        );
    }

    #[test]
    fn zero_timeout_conditional_gives_up_immediately() {
        // Regression test: the timeout attribute used `0` ns as its
        // "no timeout" sentinel, so `Some(Duration::ZERO)` (and any
        // sub-nanosecond timeout) encoded as *unbounded* — a
        // lock_conditional that was asked to give up instantly would
        // instead wait the full hold. It must now fail fast.
        let m = Arc::new(AdaptiveMutex::new(()));
        m.set_waiting_policy(
            NativeWaitingPolicy::pure_blocking().with_timeout(Duration::ZERO),
        );
        assert_eq!(
            m.waiting_policy().timeout,
            Some(Duration::from_nanos(1)),
            "a zero timeout must stay a (minimal) bound, not become the sentinel"
        );
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            let got = m2.lock_conditional();
            (got.is_some(), t0.elapsed())
        });
        let (acquired, waited) = waiter.join().unwrap();
        assert!(!acquired, "zero timeout must not wait out the holder");
        assert!(
            waited < Duration::from_secs(2),
            "zero timeout blocked for {waited:?} — the sentinel inversion is back"
        );
        drop(g);
        assert!(
            m.lock_conditional().is_some(),
            "a free lock is acquired within any bound"
        );
    }

    #[test]
    fn huge_timeouts_saturate_instead_of_truncating() {
        // `as_nanos() as u64` truncation could turn a ~585-year timeout
        // into a tiny (or zero) one. It must saturate near u64::MAX.
        let m = AdaptiveMutex::new(());
        m.set_waiting_policy(
            NativeWaitingPolicy::pure_blocking()
                .with_timeout(Duration::new(u64::MAX, 999_999_999)),
        );
        let t = m.waiting_policy().timeout.expect("timeout must survive");
        assert!(
            t >= Duration::from_secs(u64::MAX / 1_000_000_000),
            "huge timeout truncated to {t:?}"
        );
        // And the bounded-but-huge wait acquires a free lock instantly.
        assert!(m.lock_conditional().is_some());
    }

    /// A policy that replays a fixed decision script, one per sample.
    struct ScriptedPolicy(std::vec::IntoIter<NativeDecision>);

    impl AdaptationPolicy<NativeObservation> for ScriptedPolicy {
        type Decision = NativeDecision;

        fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
            self.0.next()
        }
    }

    #[test]
    fn decisions_install_complete_attribute_sets() {
        // Regression test: PureSpin/PureBlocking/SetSpins used to write
        // only the spin attribute, leaving a previous SetPolicy's delay
        // and conditional-timeout attributes live underneath.
        let script = vec![
            NativeDecision::SetPolicy(
                NativeWaitingPolicy::combined(7).with_timeout(Duration::from_millis(5)),
            ),
            NativeDecision::PureSpin,
        ];
        let m = AdaptiveMutex::with_policy((), Box::new(ScriptedPolicy(script.into_iter())));
        // Each decision changes something, so the kernel samples every
        // other acquisition.
        let sample = || (0..SAMPLE_PERIOD_FLOOR).for_each(|_| drop(m.lock()));
        sample();
        assert!(
            m.waiting_policy().timeout.is_some(),
            "SetPolicy must install its timeout"
        );
        sample();
        let p = m.waiting_policy();
        assert_eq!(p.spin, SPIN_FOREVER);
        assert_eq!(
            p.timeout, None,
            "PureSpin left a stale conditional timeout behind"
        );
        assert_eq!(p.delay, NativeWaitingPolicy::pure_spin().delay);
    }

    #[test]
    fn set_algorithm_switches_a_free_lock_immediately() {
        let m = AdaptiveMutex::new(0u32);
        assert_eq!(m.algorithm(), LockAlgorithm::SpinPark);
        for algo in LockAlgorithm::ALL {
            m.set_algorithm(algo);
            assert_eq!(m.algorithm(), algo, "free lock must switch in place");
            assert_eq!(m.pending_algorithm(), None);
            *m.lock() += 1;
            assert!(!m.is_locked());
        }
        assert_eq!(*m.lock(), LockAlgorithm::ALL.len() as u32);
        // SpinPark -> Ticket -> Combining: ALL starts at SpinPark, so
        // the first request re-affirms and does not count.
        assert_eq!(m.stats().algorithm_switches, LockAlgorithm::ALL.len() as u64 - 1);
    }

    #[test]
    fn pending_switch_installs_at_the_next_release() {
        let m = Arc::new(AdaptiveMutex::new(0u32));
        let g = m.lock();
        m.set_algorithm(LockAlgorithm::Ticket);
        assert_eq!(
            m.algorithm(),
            LockAlgorithm::SpinPark,
            "a held lock must not switch under its holder"
        );
        assert_eq!(m.pending_algorithm(), Some(LockAlgorithm::Ticket));
        drop(g);
        assert_eq!(m.algorithm(), LockAlgorithm::Ticket, "release installs the switch");
        assert_eq!(m.pending_algorithm(), None);
        assert_eq!(m.stats().algorithm_switches, 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn live_switching_under_contention_loses_no_updates() {
        let m = Arc::new(AdaptiveMutex::new(0u64));
        let threads = 8u64;
        let iters = 500u64;
        let stop = Arc::new(AtomicBool::new(false));
        let switcher = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    m.set_algorithm(LockAlgorithm::ALL[k % LockAlgorithm::ALL.len()]);
                    k += 1;
                    std::thread::yield_now();
                }
            })
        };
        // The workers' whole run fits in one scheduler quantum; without
        // this wait the switcher may never get on a core before they
        // finish, and the test would have switched nothing.
        while m.stats().algorithm_switches == 0 {
            std::thread::yield_now();
        }
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for j in 0..iters {
                        if (i + j).is_multiple_of(3) {
                            m.with_locked(|v| *v += 1);
                        } else {
                            *m.lock() += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        switcher.join().unwrap();
        m.set_algorithm(LockAlgorithm::SpinPark);
        assert_eq!(*m.lock(), threads * iters, "a live switch dropped an update");
        assert_eq!(m.waiting_now(), 0, "no stranded waiter after switching");
        assert!(m.stats().algorithm_switches > 0, "the run never actually switched");
    }

    #[test]
    fn with_locked_combines_under_the_combining_engine() {
        let m = Arc::new(AdaptiveMutex::new(0u64));
        m.set_algorithm(LockAlgorithm::Combining);
        // A free lock takes the fast path: the op runs inline under a
        // plain acquisition, no slot traffic.
        m.with_locked(|v| *v += 1);
        assert_eq!(m.stats().combined_ops, 0, "fast path must not publish");
        // A held lock forces publication: park the lock under a guard,
        // wait until every worker's op sits in a slot, then release —
        // whoever acquires first drains the whole batch.
        let workers = 4u64;
        let guard = m.lock();
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    m.with_locked(|v| *v += 1);
                })
            })
            .collect();
        while m.engines.combining.pending_ops() < workers as usize {
            std::thread::yield_now();
        }
        drop(guard);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.with_locked(|v| *v), 1 + workers);
        let s = m.stats();
        assert_eq!(
            s.combined_ops, workers,
            "every published op must be executed by a drain"
        );
        // Concurrent mixed traffic still sums exactly (fast path and
        // slots may interleave freely).
        let threads = 4u64;
        let iters = 500u64;
        let before = m.with_locked(|v| *v);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        m.with_locked(|v| *v += 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.with_locked(|v| *v), before + threads * iters);
    }

    #[test]
    fn a_combined_batch_that_jumps_the_gate_yields_one_sample_and_rearms() {
        let decides = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let m = Arc::new(AdaptiveMutex::with_policy(
            (),
            Box::new(CountingPolicy(Arc::clone(&decides))),
        ));
        m.set_algorithm(LockAlgorithm::Combining);
        let base = m.stats().acquisitions;
        // Acquisition 1 holds the lock while four ops are published;
        // acquisition 2 is the worker that becomes the combiner (the
        // clock fires there and re-arms at 4), and its drain takes the
        // count from 2 to 6, over the sample point at 4.
        let guard = m.lock();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || m.with_locked(|()| {}))
            })
            .collect();
        while m.engines.combining.pending_ops() < 4 {
            std::thread::yield_now();
        }
        drop(guard);
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(m.stats().acquisitions, base + 6);
        assert_eq!(decides.load(Ordering::Relaxed), 1, "one batch, one sample");
        // Re-armed from where the count landed: the next sample is a
        // period (2) on, at 8, not a period on from the 4 it passed.
        for expected in [1, 2] {
            drop(m.lock());
            assert_eq!(decides.load(Ordering::Relaxed), expected);
        }
    }

    #[test]
    fn combined_panic_poisons_and_rethrows_to_the_publisher() {
        let m = AdaptiveMutex::new(0u32);
        m.set_algorithm(LockAlgorithm::Combining);
        let err = catch_unwind(AssertUnwindSafe(|| {
            m.with_locked(|_| panic!("die combined"));
        }))
        .expect_err("the publisher must see its op's panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("panicked") || msg.contains("die combined"), "{msg}");
        assert!(m.is_poisoned(), "a dead combined op must poison the mutex");
        assert!(m.stats().poison_events >= 1);
        // The lock itself stays serviceable.
        m.with_locked(|v| *v += 1);
        assert_eq!(m.with_locked(|v| *v), 1);
    }

    #[test]
    fn timed_acquires_time_out_on_zoo_engines() {
        for algo in [LockAlgorithm::Ticket, LockAlgorithm::Combining] {
            let m = AdaptiveMutex::new(());
            m.set_algorithm(algo);
            let g = m.lock();
            assert!(
                m.lock_timeout(Duration::from_millis(5)).is_none(),
                "{algo:?}: timed acquire must expire while held"
            );
            assert_eq!(m.stats().timeouts, 1, "{algo:?}");
            drop(g);
            assert!(
                m.lock_timeout(Duration::from_secs(5)).is_some(),
                "{algo:?}: lock must be free after the hold"
            );
            assert_eq!(m.waiting_now(), 0, "{algo:?}: no leaked waiter count");
        }
    }
}

//! The async adaptive mutex: the paper's waiting-policy attribute set,
//! reformulated as **poll vs park**.
//!
//! On real threads the tradeoff is spin (keep the core, win short
//! holds) vs block (pay two context switches, win long holds). On an
//! executor the same fork reappears with different constants:
//!
//! * **poll** — retry the lock across *yields to the executor*. Each
//!   failed probe re-schedules the task at the back of the run queue
//!   (one task switch, no waker registration, no handoff protocol) and
//!   tries again next poll. The `spin` attribute is the re-poll budget;
//!   the `delay` attribute is a bounded synchronous pause
//!   (`spin_loop` hints) before each retry — the only true spinning
//!   left, useful exactly when the holder runs on another worker.
//! * **park** — push a waker node onto the lock's FIFO queue and go to
//!   sleep. A releaser *grants the lock directly* to the head waiter
//!   (the native mutex's direct handoff, with `Waker::wake` where
//!   `Thread::unpark` used to be) — the lock never appears free in
//!   between, so pollers cannot barge past a granted waiter.
//! * **timeout** — a parked waiter abandons its node when the `timeout`
//!   attribute elapses and retries as a fresh arrival, exactly like the
//!   native timed wait: the grant/abandon race on the node's status
//!   word has one winner.
//!
//! Which side wins is a measured property, so the [`Adaptation`] of
//! [`adaptive_native::AdaptiveMutex`] drives it — the same one, not a
//! copy: attributes and owners, monitor, ledger, the feedback kernel and
//! its sampling period, poisoning, quarantine, control-plane rows. This
//! file keeps how a task waits and wakes, and its default policy.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use adaptive_core::AdaptationPolicy;
use adaptive_native::{
    Adaptation, BoxedNativePolicy, Counter, FixedPolicy, GrantWord, LockHealth, MutexStats,
    NativeDecision, NativeObservation, NativeWaitingPolicy, Poisoned, SampleClock, Substrate,
};

use crate::rt;

/// Cap on the poll budget the default adaptive policy will grant
/// itself. An operator (or a fixed policy) may still install
/// [`SPIN_FOREVER`](adaptive_native::SPIN_FOREVER); the cap only bounds
/// *automatic* escalation, so a misread sample cannot commit the lock
/// to unbounded scheduler churn.
pub const POLL_BUDGET_CAP: u32 = 256;

/// Tasks: a shorthand decision installs a `delay` of 0 (the native 64
/// is a backoff cap; here it would be 64 `spin_loop` hints wasted per
/// re-poll on a worker the holder may need), and there is one engine.
struct Tasks;

impl Substrate for Tasks {
    const SHORTHAND_DELAY: u32 = 0;
}

/// The complete attribute set behind a bare poll budget, as a shorthand
/// decision spells it: no park timeout, no pause.
fn poll_policy(budget: u32) -> NativeWaitingPolicy {
    NativeWaitingPolicy { spin: budget, delay: Tasks::SHORTHAND_DELAY, timeout: None }
}

/// A host mutex's guard, whatever a panicking holder left: no code
/// panics while holding the queue or a waker slot.
fn unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One parked task's entry in the waiter queue: the native waiter's
/// grant/abandon word, with a waker where the thread handle was.
#[derive(Default)]
struct Waiter {
    status: GrantWord,
    waker: Mutex<Option<Waker>>,
}

impl Waiter {
    /// Store the current waker. Called by the waiting task on every
    /// poll *before* it re-checks `status`, pairing with the granter's
    /// status-then-waker order: whichever way the race falls, either
    /// the granter wakes the fresh waker or the waiter sees `GRANTED`.
    fn set_waker(&self, waker: &Waker) {
        let mut slot = unpoisoned(&self.waker);
        match slot.as_ref() {
            Some(old) if old.will_wake(waker) => {}
            _ => *slot = Some(waker.clone()),
        }
    }

    /// Releaser side: grant, then wake. Returns `false` if the waiter
    /// abandoned first.
    fn try_grant(&self) -> bool {
        if !self.status.try_grant() {
            return false;
        }
        let waker = unpoisoned(&self.waker).take();
        if let Some(w) = waker {
            w.wake();
        }
        true
    }
}

/// Counter snapshot of an [`AsyncAdaptiveMutex`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncMutexStats {
    /// Total acquisitions (fast path + handoffs).
    pub acquisitions: u64,
    /// Acquisitions that found the lock held on arrival.
    pub contended: u64,
    /// Re-poll probes (each cost one task switch).
    pub polls: u64,
    /// Times a task registered a waker and parked.
    pub parked: u64,
    /// Direct grants from a releaser to the head waiter.
    pub handoffs: u64,
    /// As [`MutexStats::reconfigurations`].
    pub reconfigurations: u64,
    /// Failed `try_lock` calls.
    pub try_failures: u64,
    /// Parked waits that hit the `timeout` attribute and retried.
    pub timeouts: u64,
    /// Lock futures dropped while waiting (cancelled mid-wait).
    pub cancellations: u64,
    /// Cancellations that raced a grant and had to re-release the lock.
    pub cancelled_grants: u64,
    /// Holders that panicked (poisoning the mutex).
    pub poison_events: u64,
    /// Successful [`AsyncAdaptiveMutex::clear_poison`] calls.
    pub poison_clears: u64,
    /// Policy `decide` panics (each triggers a quarantine).
    pub policy_panics: u64,
    /// Quarantines entered.
    pub quarantines: u64,
    /// As [`MutexStats::heals`].
    pub heals: u64,
}

/// An async mutex whose waiting policy — poll budget, pre-retry delay,
/// park timeout — is retuned at runtime by a sampled-contention
/// feedback loop. See the module docs for the protocol.
pub struct AsyncAdaptiveMutex<T> {
    /// 0 = free, 1 = held. A granted handoff keeps it at 1.
    locked: AtomicU32,
    /// Acquisitions and the next sample point, written beside `locked`
    /// by whoever holds the lock.
    clock: SampleClock,
    /// FIFO waker queue. The release path sets `locked = 0` only while
    /// holding this lock, and the park path re-tries the acquire while
    /// holding it, so a release and a park cannot miss each other.
    queue: Mutex<VecDeque<Arc<Waiter>>>,
    /// The adaptive half shared with the native mutex. Its `spin` is
    /// the re-poll budget before parking, `delay` the `spin_loop` hints
    /// before each in-poll retry, `timeout` the park bound; its waiter
    /// count is in tasks.
    adaptation: Adaptation,
    value: UnsafeCell<T>,
}

// SAFETY: the value is only reachable through a guard, and a guard
// exists only while `locked` (or a granted handoff) proves exclusive
// ownership; every other field is `Sync` on its own.
unsafe impl<T: Send> Send for AsyncAdaptiveMutex<T> {}
// SAFETY: as above; `T: Send` is enough because a shared reference
// only ever hands out the value to one guard at a time.
unsafe impl<T: Send> Sync for AsyncAdaptiveMutex<T> {}

impl<T> AsyncAdaptiveMutex<T> {
    /// A mutex with the default adaptive policy ([`AsyncPollAdapt`]),
    /// starting from a 32-poll budget.
    pub fn new(value: T) -> AsyncAdaptiveMutex<T> {
        AsyncAdaptiveMutex::with_policy(value, Box::new(AsyncPollAdapt::default()))
    }

    /// A mutex with a fixed poll budget and a monitor that never
    /// samples: `0` parks on the first failed probe (*pure async
    /// wait*), [`SPIN_FOREVER`](adaptive_native::SPIN_FOREVER) never
    /// parks.
    pub fn with_poll_budget(value: T, budget: u32) -> AsyncAdaptiveMutex<T> {
        let policy = Box::new(FixedPolicy(NativeDecision::SetSpins(budget)));
        AsyncAdaptiveMutex::build(value, policy, poll_policy(budget), false)
    }

    /// A mutex with an explicit policy, sampled at the feedback
    /// kernel's period.
    pub fn with_policy(value: T, policy: BoxedNativePolicy) -> AsyncAdaptiveMutex<T> {
        AsyncAdaptiveMutex::build(value, policy, poll_policy(32), true)
    }

    fn build(
        value: T,
        policy: BoxedNativePolicy,
        initial: NativeWaitingPolicy,
        sampled: bool,
    ) -> AsyncAdaptiveMutex<T> {
        AsyncAdaptiveMutex {
            locked: AtomicU32::new(0),
            clock: SampleClock::new(sampled),
            queue: Mutex::new(VecDeque::new()),
            adaptation: Adaptation::new(policy, initial),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquire the lock. The returned future is **cancellation-safe**:
    /// dropping it mid-wait abandons its queue node (or, if a grant
    /// raced the drop, re-releases the lock) — no waker is lost and no
    /// other waiter is stranded.
    ///
    /// # Panics
    ///
    /// The resolved guard panics at acquisition if the mutex is
    /// poisoned; use [`AsyncAdaptiveMutex::lock_checked`] to handle
    /// poison explicitly.
    pub fn lock(&self) -> LockFuture<'_, T> {
        LockFuture { inner: self.lock_checked() }
    }

    /// Like [`AsyncAdaptiveMutex::lock`], but poison resolves to
    /// `Err(Poisoned)` carrying the guard instead of panicking.
    pub fn lock_checked(&self) -> LockCheckedFuture<'_, T> {
        LockCheckedFuture { inner: Acquire::new(self) }
    }

    /// Try to acquire without waiting.
    pub fn try_lock(&self) -> Option<AsyncMutexGuard<'_, T>> {
        if self.try_acquire() {
            Some(self.make_guard())
        } else {
            self.adaptation.try_failed(&Tasks, &self.clock);
            None
        }
    }

    fn try_acquire(&self) -> bool {
        self.locked
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Build a guard for a lock we already own, charging the
    /// acquisition and deciding whether this release should sample.
    fn make_guard(&self) -> AsyncMutexGuard<'_, T> {
        AsyncMutexGuard { mutex: self, sampled: self.clock.charge(1, &self.adaptation) }
    }

    /// Release the lock: grant it directly to the oldest live waiter,
    /// or mark it free. Setting `locked = 0` happens under the queue
    /// lock, which the park path also holds while re-trying its
    /// acquire — so a concurrent park either sees the free lock or is
    /// seen by the next release.
    fn release(&self) {
        loop {
            // The queue guard lives to the end of this statement, so the
            // store that frees the lock happens under it.
            let next = match unpoisoned(&self.queue).pop_front() {
                Some(w) => w,
                None => {
                    self.locked.store(0, Ordering::Release);
                    return;
                }
            };
            // Grant outside the queue lock: `wake` may run arbitrary
            // executor code. An abandoned (timed-out / cancelled) node
            // just gets pruned here; try the next one.
            if next.try_grant() {
                self.adaptation.count(Counter::Handoffs);
                return;
            }
        }
    }

    /// Snap to the safe endpoint (pure park) and disable adaptation
    /// with exponential backoff (see [`Adaptation::quarantine`]).
    pub fn quarantine(&self) {
        self.adaptation.quarantine(&Tasks);
    }

    /// End a quarantine immediately; adaptation resumes on probation.
    /// Returns whether one was in force.
    pub fn heal(&self) -> bool {
        self.adaptation.heal()
    }

    /// Whether adaptation is currently suspended by a quarantine.
    pub fn is_quarantined(&self) -> bool {
        self.adaptation.is_quarantined()
    }

    /// Whether a holder has panicked since the last clear.
    pub fn is_poisoned(&self) -> bool {
        self.adaptation.is_poisoned()
    }

    /// Clear the poison flag; returns whether it was set.
    pub fn clear_poison(&self) -> bool {
        self.adaptation.clear_poison()
    }

    /// Install new waiting-policy attributes. This takes no ownership:
    /// while the policy owns the waiting group, the feedback loop keeps
    /// adapting from here.
    pub fn set_waiting_policy(&self, policy: NativeWaitingPolicy) {
        self.adaptation.attrs().store(policy);
    }

    /// Current waiting-policy attributes.
    pub fn waiting_policy(&self) -> NativeWaitingPolicy {
        self.adaptation.attrs().load()
    }

    /// Current poll budget (the `spin` attribute).
    pub fn spin_limit(&self) -> u32 {
        self.adaptation.attrs().spin()
    }

    /// Tasks currently waiting (polling or parked).
    pub fn waiting_now(&self) -> u32 {
        self.adaptation.waiting_now()
    }

    /// Whether the lock is currently held (instantly stale).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed) != 0
    }

    /// Whether the parked-waiter queue is non-empty (instantly stale).
    pub fn has_queued_waiters(&self) -> bool {
        !unpoisoned(&self.queue).is_empty()
    }

    /// Counter snapshot: the native ledger plus the three counters only
    /// tasks have.
    pub fn stats(&self) -> AsyncMutexStats {
        let s = self.adaptation.stats(&self.clock);
        let total = |c| self.adaptation.total(c);
        AsyncMutexStats {
            acquisitions: s.acquisitions,
            contended: s.contended,
            polls: total(Counter::Polls),
            parked: s.parked,
            handoffs: s.handoffs,
            reconfigurations: s.reconfigurations,
            try_failures: s.try_failures,
            timeouts: s.timeouts,
            cancellations: total(Counter::Cancellations),
            cancelled_grants: total(Counter::CancelledGrants),
            poison_events: s.poison_events,
            poison_clears: s.poison_clears,
            policy_panics: s.policy_panics,
            quarantines: s.quarantines,
            heals: s.heals,
        }
    }

    /// Liveness health in the shared [`LockHealth`] shape.
    pub fn health(&self) -> LockHealth {
        self.adaptation.health(&self.clock, self.is_locked(), self.has_queued_waiters())
    }

    /// Acquire/release if the lock is free, re-running the grant path
    /// and rescuing any waiter whose wake was lost; a busy lock is left
    /// alone. Returns whether the nudge ran.
    pub fn nudge(&self) -> bool {
        self.try_lock().map(drop).is_some()
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

impl<T: std::fmt::Debug> std::fmt::Debug for AsyncAdaptiveMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("AsyncAdaptiveMutex");
        d.field("spin_limit", &self.spin_limit());
        d.field("waiting", &self.waiting_now());
        match self.try_lock() {
            Some(g) => d.field("value", &*g).finish(),
            None => d.field("value", &"<locked>").finish(),
        }
    }
}

/// The shared acquisition state machine behind both lock futures.
struct Acquire<'a, T> {
    mutex: &'a AsyncAdaptiveMutex<T>,
    /// Re-polls consumed against the budget.
    polls: u32,
    /// Whether we are counted in `waiters` (and when we started).
    started: Option<Instant>,
    /// Our parked node, if we registered one.
    node: Option<Arc<Waiter>>,
    /// Park deadline from the `timeout` attribute, set at park time.
    deadline: Option<Instant>,
}

impl<'a, T> Acquire<'a, T> {
    fn new(mutex: &'a AsyncAdaptiveMutex<T>) -> Acquire<'a, T> {
        Acquire { mutex, polls: 0, started: None, node: None, deadline: None }
    }

    /// We own the lock: settle accounting and build the guard.
    fn acquired(&mut self) -> AsyncMutexGuard<'a, T> {
        self.node = None;
        self.deadline = None;
        if let Some(t0) = self.started.take() {
            self.mutex.adaptation.end_wait(Some(t0));
        }
        self.mutex.make_guard()
    }

    fn poll_acquire(&mut self, cx: &mut Context<'_>) -> Poll<AsyncMutexGuard<'a, T>> {
        let m = self.mutex;

        // A parked wait in progress: status word first (via the waker
        // protocol: store waker, then check).
        if let Some(node) = self.node.clone() {
            node.set_waker(cx.waker());
            if node.status.is_granted() {
                return Poll::Ready(self.acquired());
            }
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    if node.status.try_abandon() {
                        // Timed out: retry as a fresh arrival with a
                        // fresh poll budget (the native timed path's
                        // abandon-and-return, made a retry because an
                        // async caller cannot be handed a timeout
                        // error from inside `lock()`).
                        m.adaptation.count(Counter::Timeouts);
                        self.node = None;
                        self.deadline = None;
                        self.polls = 0;
                    } else {
                        // The grant won the race: we own the lock.
                        return Poll::Ready(self.acquired());
                    }
                } else {
                    self.arm_timer(deadline, cx);
                    return Poll::Pending;
                }
            } else {
                return Poll::Pending;
            }
        }

        // Fast path.
        if m.try_acquire() {
            return Poll::Ready(self.acquired());
        }

        // Contended: count ourselves as a waiter once.
        if self.started.is_none() {
            self.started = Some(Instant::now());
            m.adaptation.begin_wait();
        }

        // Poll phase: burn one re-poll if the budget allows.
        let attrs = m.adaptation.attrs();
        if self.polls < attrs.spin() {
            self.polls = self.polls.saturating_add(1);
            m.adaptation.count(Counter::Polls);
            // The bounded *synchronous* spin: `delay` hints, then one
            // retry before yielding. Pays off only when the holder
            // runs concurrently on another worker.
            for _ in 0..attrs.delay() {
                std::hint::spin_loop();
            }
            if m.try_acquire() {
                return Poll::Ready(self.acquired());
            }
            // Yield: back of the run queue, retry next poll.
            cx.waker().wake_by_ref();
            return Poll::Pending;
        }

        // Park phase: publish a waker node. The queue lock serializes
        // us against the release path's `locked = 0`, so we re-try the
        // acquire under it — either we get the lock or the next
        // release sees our node.
        let node = Arc::new(Waiter::default());
        node.set_waker(cx.waker());
        {
            let mut q = unpoisoned(&m.queue);
            if m.try_acquire() {
                return Poll::Ready(self.acquired());
            }
            q.push_back(Arc::clone(&node));
        }
        m.adaptation.count(Counter::Parked);
        self.node = Some(node);
        // A timeout too large for the clock to represent is no bound.
        if let Some(deadline) = attrs.timeout().and_then(|t| Instant::now().checked_add(t)) {
            self.deadline = Some(deadline);
            self.arm_timer(deadline, cx);
        }
        Poll::Pending
    }

    /// Arrange a wake at `deadline` so the timeout is observed even
    /// though nobody grants us. Outside a runtime (manual polling)
    /// there is no timer to arm; the caller's own re-polls carry the
    /// deadline check instead.
    fn arm_timer(&self, deadline: Instant, cx: &mut Context<'_>) {
        if let Some(handle) = rt::Handle::try_current() {
            handle.register_timer_at(deadline, cx.waker().clone());
        }
    }
}

impl<T> Drop for Acquire<'_, T> {
    fn drop(&mut self) {
        let m = self.mutex;
        if let Some(node) = self.node.take() {
            if node.status.try_abandon() {
                // Cancelled while parked: the node stays queued and is
                // pruned by the next release. Nothing is owed.
                m.adaptation.count(Counter::Cancellations);
            } else {
                // A grant raced the drop (`select!` lost after the
                // handoff landed): we own a lock nobody will ever
                // guard — release it or every waiter behind us hangs.
                m.adaptation.count(Counter::CancelledGrants);
                m.release();
            }
        } else if self.started.is_some() {
            m.adaptation.count(Counter::Cancellations);
        }
        if self.started.take().is_some() {
            m.adaptation.end_wait(None);
        }
    }
}

/// Future of [`AsyncAdaptiveMutex::lock`].
pub struct LockFuture<'a, T> {
    inner: LockCheckedFuture<'a, T>,
}

impl<'a, T> Future for LockFuture<'a, T> {
    type Output = AsyncMutexGuard<'a, T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // `Acquire` holds no self-reference: both futures are `Unpin`.
        Pin::new(&mut self.get_mut().inner).poll(cx).map(|checked| match checked {
            Ok(guard) => guard,
            Err(poisoned) => {
                // Release first: a guard dropped by the unwind would
                // count this caller as one more dying holder.
                drop(poisoned);
                panic!("adaptive mutex poisoned: a holder panicked (use lock_checked to recover)")
            }
        })
    }
}

/// Future of [`AsyncAdaptiveMutex::lock_checked`].
pub struct LockCheckedFuture<'a, T> {
    inner: Acquire<'a, T>,
}

impl<'a, T> Future for LockCheckedFuture<'a, T> {
    type Output = Result<AsyncMutexGuard<'a, T>, Poisoned<AsyncMutexGuard<'a, T>>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match this.inner.poll_acquire(cx) {
            Poll::Ready(guard) => Poll::Ready(if guard.mutex.is_poisoned() {
                Err(Poisoned::new(guard))
            } else {
                Ok(guard)
            }),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// RAII guard of an acquired [`AsyncAdaptiveMutex`]. May be held across
/// `.await` points (it is `Send` when `T` is).
pub struct AsyncMutexGuard<'a, T> {
    mutex: &'a AsyncAdaptiveMutex<T>,
    /// Non-zero when this release is a monitor sample: the acquisitions
    /// it stands for.
    sampled: u64,
}

impl<T> Deref for AsyncMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive ownership.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T> DerefMut for AsyncMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, plus `&mut self`.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T> Drop for AsyncMutexGuard<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The critical section died mid-flight (the panic is
            // unwinding through the task): poison and release without
            // running the policy, exactly like the native guard.
            self.mutex.adaptation.poison(1);
            self.mutex.release();
        } else {
            self.mutex.release();
            if self.sampled != 0 {
                self.mutex.adaptation.sample(&Tasks, self.sampled);
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AsyncMutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// The default poll-vs-park policy: `simple-adapt` re-derived for poll
/// budgets.
///
/// The native crossover constants do not transfer — a parked *task*
/// costs a waker round-trip (~a queue push and a re-schedule), not two
/// context switches, while every re-poll costs a full task switch of
/// its own. So the budget moves in poll units: no waiters → widen
/// toward [`POLL_BUDGET_CAP`] (polling is winning); a short queue →
/// creep up; a deep queue → halve toward zero (park, the scheduler is
/// churning through pollers who cannot win).
pub struct AsyncPollAdapt {
    /// Queue depth up to which polling is still considered winnable.
    threshold: u64,
    /// Budget increment per favourable sample.
    step: u32,
    budget: u32,
}

impl AsyncPollAdapt {
    /// A policy with an explicit threshold and step.
    pub fn new(threshold: u64, step: u32) -> AsyncPollAdapt {
        AsyncPollAdapt { threshold, step, budget: 32 }
    }
}

impl Default for AsyncPollAdapt {
    fn default() -> AsyncPollAdapt {
        AsyncPollAdapt::new(3, 16)
    }
}

impl AdaptationPolicy<NativeObservation> for AsyncPollAdapt {
    type Decision = NativeDecision;

    fn decide(&mut self, obs: NativeObservation) -> Option<NativeDecision> {
        let before = self.budget;
        if obs.waiting <= self.threshold {
            // Few (or no) waiters: polls usually win the next release.
            self.budget = self.budget.saturating_add(self.step).min(POLL_BUDGET_CAP);
        } else {
            // Deep queue: every poller burns a task switch per release;
            // collapse toward parking.
            self.budget /= 2;
            if self.budget < self.step {
                self.budget = 0;
            }
        }
        (self.budget != before).then_some(NativeDecision::SetSpins(self.budget))
    }
}

/// The control plane sees the shared half and, the async mutex having
/// one engine, only the waiting group's rows.
impl<T: Send> adaptive_control::ControlTarget for AsyncAdaptiveMutex<T> {
    fn adaptation(&self) -> &Adaptation {
        &self.adaptation
    }

    fn health(&self) -> LockHealth {
        AsyncAdaptiveMutex::health(self)
    }

    fn stats(&self) -> MutexStats {
        self.adaptation.stats(&self.clock)
    }

    fn quarantine(&self) {
        AsyncAdaptiveMutex::quarantine(self);
    }

    fn nudge(&self) -> bool {
        AsyncAdaptiveMutex::nudge(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::{self, Runtime};
    use adaptive_core::SAMPLE_PERIOD_FLOOR;
    use adaptive_native::SPIN_FOREVER;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::task::Wake;
    use std::time::Duration;

    struct NoopWake;
    impl Wake for NoopWake {
        fn wake(self: Arc<Self>) {}
    }

    fn noop_cx_waker() -> Waker {
        Waker::from(Arc::new(NoopWake))
    }

    fn both_flavors() -> [Runtime; 2] {
        [Runtime::current_thread(), Runtime::multi_thread(2)]
    }

    #[test]
    fn uncontended_lock_resolves_immediately() {
        let rt = Runtime::current_thread();
        let m = AsyncAdaptiveMutex::new(5u32);
        rt.block_on(async {
            {
                let mut g = m.lock().await;
                *g += 1;
            }
            assert_eq!(*m.lock().await, 6);
        });
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn contended_counter_loses_no_updates_on_both_flavors() {
        for rt in both_flavors() {
            let m = Arc::new(AsyncAdaptiveMutex::new(0u64));
            let (tasks, iters) = (8u64, 200u64);
            rt.block_on(async {
                let handles: Vec<_> = (0..tasks)
                    .map(|_| {
                        let m = Arc::clone(&m);
                        rt::spawn(async move {
                            for _ in 0..iters {
                                *m.lock().await += 1;
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.await;
                }
            });
            assert_eq!(*rt.block_on(m.lock()), tasks * iters);
            assert_eq!(m.waiting_now(), 0, "leaked waiter count");
            let s = m.stats();
            assert_eq!(s.acquisitions, tasks * iters + 1);
        }
    }

    #[test]
    fn pure_async_wait_parks_and_hands_off() {
        let rt = Runtime::multi_thread(2);
        let m = Arc::new(AsyncAdaptiveMutex::with_poll_budget(0u64, 0));
        rt.block_on(async {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let m = Arc::clone(&m);
                    rt::spawn(async move {
                        for _ in 0..100 {
                            // Hold across a yield so other tasks must
                            // observe the lock held and park.
                            let mut g = m.lock().await;
                            *g += 1;
                            rt::yield_now().await;
                            drop(g);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.await;
            }
        });
        let s = m.stats();
        assert_eq!(*rt.block_on(m.lock()), 400);
        assert!(s.parked > 0, "budget 0 must park on contention");
        assert!(s.handoffs > 0, "parked waiters must be served by handoff");
        assert_eq!(s.polls, 0, "budget 0 must never re-poll");
    }

    #[test]
    fn adaptation_widens_budget_when_uncontended() {
        let rt = Runtime::current_thread();
        let m = AsyncAdaptiveMutex::new(());
        rt.block_on(async {
            for _ in 0..64 {
                drop(m.lock().await);
            }
        });
        assert!(
            m.spin_limit() > 32,
            "uncontended usage must widen the poll budget (got {})",
            m.spin_limit()
        );
        assert!(m.stats().reconfigurations > 0);
    }

    #[test]
    fn deep_queue_collapses_budget_toward_parking() {
        let mut policy = AsyncPollAdapt::default();
        // Feed it a storm of deep-queue samples.
        let mut last = None;
        for _ in 0..16 {
            if let Some(d) = policy.decide(NativeObservation::of(12)) {
                last = Some(d);
            }
        }
        assert_eq!(last, Some(NativeDecision::SetSpins(0)), "deep queue must end at pure park");
    }

    #[test]
    fn cancelled_wait_is_pruned_not_stranded() {
        // Deterministic manual-poll version of the select!-loses race:
        // a parked waiter is dropped *before* any grant.
        let m = Arc::new(AsyncAdaptiveMutex::with_poll_budget(0u32, 0));
        let g = m.try_lock().expect("uncontended");
        let waker = noop_cx_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = Box::pin(m.lock());
        assert!(fut.as_mut().poll(&mut cx).is_pending(), "budget 0 parks immediately");
        assert_eq!(m.waiting_now(), 1);
        drop(fut); // cancelled while parked
        assert_eq!(m.waiting_now(), 0, "cancellation must uncount the waiter");
        drop(g); // release prunes the abandoned node, lock ends free
        assert!(m.try_lock().is_some(), "lock must be free after pruning");
        assert_eq!(m.stats().cancellations, 1);
    }

    #[test]
    fn grant_racing_cancellation_re_releases_the_lock() {
        // The nasty half of cancellation safety: the grant lands, THEN
        // the future is dropped without being polled. The drop must
        // re-release, or every later waiter hangs.
        let m = Arc::new(AsyncAdaptiveMutex::with_poll_budget(0u32, 0));
        let g = m.try_lock().expect("uncontended");
        let waker = noop_cx_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = Box::pin(m.lock());
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        drop(g); // handoff: the parked node is GRANTED, lock stays held
        assert_eq!(m.stats().handoffs, 1);
        drop(fut); // never polled again — must release on drop
        assert!(m.try_lock().is_some(), "granted-but-dropped must free the lock");
        assert_eq!(m.stats().cancelled_grants, 1);
        assert_eq!(m.waiting_now(), 0);
    }

    #[test]
    fn poisoning_and_recovery() {
        let rt = Runtime::multi_thread(1);
        let m = Arc::new(AsyncAdaptiveMutex::new(0u32));
        let m2 = Arc::clone(&m);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.block_on(async move {
                let death = rt::spawn(async move {
                    let _g = m2.lock().await;
                    panic!("critical section dies");
                });
                death.await
            })
        }));
        assert!(res.is_err(), "join re-raises the holder's panic");
        assert!(m.is_poisoned(), "dying holder must poison");
        let recovered = rt.block_on(async {
            match m.lock_checked().await {
                Ok(_) => false,
                Err(poisoned) => {
                    let g = poisoned.into_inner();
                    drop(g);
                    m.clear_poison()
                }
            }
        });
        assert!(recovered);
        assert!(!m.is_poisoned());
        assert_eq!(m.stats().poison_events, 1);
        assert_eq!(m.stats().poison_clears, 1);
    }

    #[test]
    fn a_lock_that_panics_on_poison_is_not_a_second_poisoning() {
        // Regression test: `lock()` used to assert "not poisoned" with
        // the guard alive, so the guard dropped during that unwind and
        // poisoned the mutex again, once per refused caller.
        let rt = Runtime::multi_thread(1);
        let m = Arc::new(AsyncAdaptiveMutex::new(0u32));
        for task in ["holder", "waiter"] {
            let m = Arc::clone(&m);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.block_on(async move {
                    // The holder dies in its critical section; the
                    // waiter's `lock()` panics on the poison.
                    rt::spawn(async move {
                        let _g = m.lock().await;
                        panic!("critical section dies");
                    })
                    .await
                })
            }));
            assert!(res.is_err(), "the {task} task must panic");
        }
        assert_eq!(m.stats().poison_events, 1, "only the holder poisoned the mutex");
        assert!(!m.is_locked(), "the refused waiter released the lock");
    }

    #[test]
    fn quarantine_snaps_to_pure_park_and_heals_on_command() {
        let m = AsyncAdaptiveMutex::new(());
        assert!(m.spin_limit() > 0);
        m.quarantine();
        assert!(m.is_quarantined());
        assert_eq!(m.spin_limit(), 0, "quarantine must snap to pure park");
        assert!(m.heal());
        assert!(!m.is_quarantined());
        assert!(!m.heal(), "second heal is a no-op");
        let s = m.stats();
        assert_eq!((s.quarantines, s.heals), (1, 1));
    }

    #[test]
    fn policy_panic_quarantines_the_lock() {
        struct Bomb;
        impl AdaptationPolicy<NativeObservation> for Bomb {
            type Decision = NativeDecision;
            fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
                panic!("policy dies");
            }
        }
        let rt = Runtime::current_thread();
        let m = AsyncAdaptiveMutex::with_policy((), Box::new(Bomb));
        // The first sample is the second release.
        rt.block_on(async {
            for _ in 0..SAMPLE_PERIOD_FLOOR {
                drop(m.lock().await);
            }
        });
        assert!(m.is_quarantined(), "a panicking policy must be quarantined");
        assert_eq!(m.stats().policy_panics, 1);
    }

    #[test]
    fn shorthand_decisions_clear_a_stale_park_timeout() {
        // Regression test: PureSpin/PureBlocking/SetSpins used to write
        // only the poll budget, leaving a previous SetPolicy's park
        // timeout live — parked waiters kept abandoning and re-queueing
        // on a bound no current policy had asked for.
        struct Scripted(std::vec::IntoIter<NativeDecision>);
        impl AdaptationPolicy<NativeObservation> for Scripted {
            type Decision = NativeDecision;
            fn decide(&mut self, _obs: NativeObservation) -> Option<NativeDecision> {
                self.0.next()
            }
        }
        let script = vec![
            NativeDecision::SetPolicy(NativeWaitingPolicy {
                spin: 0,
                delay: 3,
                timeout: Some(Duration::from_millis(1)),
            }),
            NativeDecision::PureBlocking,
        ];
        let rt = Runtime::multi_thread(2);
        let m = Arc::new(AsyncAdaptiveMutex::with_policy(0u32, Box::new(Scripted(script.into_iter()))));
        // Each decision changes something, so every other release is a
        // sample.
        let sample = || {
            rt.block_on(async {
                for _ in 0..SAMPLE_PERIOD_FLOOR {
                    drop(m.lock().await);
                }
            })
        };
        sample();
        assert_eq!(m.waiting_policy().timeout, Some(Duration::from_millis(1)));
        sample();
        assert_eq!(
            m.waiting_policy(),
            NativeWaitingPolicy { spin: 0, delay: 0, timeout: None },
            "PureBlocking must install the complete pure-park set"
        );
        // A waiter parked behind a 20 ms hold must now sleep through it.
        let (m2, m3) = (Arc::clone(&m), Arc::clone(&m));
        rt.block_on(async move {
            let holder = rt::spawn(async move {
                let _g = m2.lock().await;
                std::thread::sleep(Duration::from_millis(20));
            });
            rt::sleep(Duration::from_millis(2)).await;
            drop(m3.lock().await);
            holder.await;
        });
        let s = m.stats();
        assert!(s.parked > 0, "the waiter never parked: {s:?}");
        assert_eq!(s.timeouts, 0, "a parked waiter still timed out: {s:?}");
    }

    #[test]
    fn live_retune_changes_the_budget_under_load() {
        let m = AsyncAdaptiveMutex::with_poll_budget(0u32, 64);
        assert_eq!(m.spin_limit(), 64);
        m.set_waiting_policy(NativeWaitingPolicy::pure_blocking());
        assert_eq!(m.spin_limit(), 0);
        assert_eq!(m.waiting_policy().spin, 0);
        m.set_waiting_policy(NativeWaitingPolicy {
            spin: 8,
            delay: 4,
            timeout: Some(Duration::from_micros(50)),
        });
        let p = m.waiting_policy();
        assert_eq!((p.spin, p.delay), (8, 4));
        assert_eq!(p.timeout, Some(Duration::from_micros(50)));
    }

    #[test]
    fn park_timeout_abandons_and_retries() {
        let rt = Runtime::multi_thread(2);
        let m = Arc::new(AsyncAdaptiveMutex::with_poll_budget(0u64, 0));
        m.set_waiting_policy(NativeWaitingPolicy {
            spin: 0,
            delay: 0,
            timeout: Some(Duration::from_millis(5)),
        });
        let hold = Duration::from_millis(40);
        let m2 = Arc::clone(&m);
        let m3 = Arc::clone(&m);
        rt.block_on(async move {
            let holder = rt::spawn(async move {
                let _g = m2.lock().await;
                // Hold synchronously well past several timeout windows.
                std::thread::sleep(hold);
            });
            // Give the holder a head start, then wait through timeouts.
            rt::sleep(Duration::from_millis(2)).await;
            let t0 = Instant::now();
            let _g = m3.lock().await;
            assert!(t0.elapsed() >= Duration::from_millis(20), "acquired before release?");
            drop(_g);
            holder.await;
        });
        assert!(m.stats().timeouts > 0, "bounded parks must have timed out and retried");
        assert_eq!(m.waiting_now(), 0);
    }

    #[test]
    fn control_target_round_trip() {
        use adaptive_control::ControlTarget;
        let m: Arc<AsyncAdaptiveMutex<Vec<u8>>> = Arc::new(AsyncAdaptiveMutex::new(vec![1]));
        let t: Arc<dyn ControlTarget> = m.clone();
        assert!(!t.health().locked);
        t.set("spin", "forever").unwrap();
        assert_eq!(m.waiting_policy().spin, SPIN_FOREVER);
        assert!(t.attrs().iter().all(|r| r.2), "the operator took the group");
        t.release(None);
        assert!(t.attrs().iter().all(|r| !r.2));
        t.quarantine();
        assert!(t.health().quarantined);
        assert!(t.heal());
        assert!(t.nudge());
        // No engine to switch: the plane refuses, on every call.
        let hub = Arc::new(adaptive_control::BreakerHub::default());
        hub.register("a", t.clone());
        let plane = adaptive_control::ControlPlane::new(hub);
        for _ in 0..2 {
            let err = plane.execute("set a algorithm ticket").unwrap_err();
            assert_eq!(err, "a has no attribute \"algorithm\" (try `get a`)");
        }
        assert!(t.stats().acquisitions >= 1);
    }

    #[test]
    fn fairness_of_handoff_under_saturation() {
        // Pure-park mode is FIFO by construction: per-task op counts
        // under saturation must stay close.
        let rt = Runtime::multi_thread(2);
        let m = Arc::new(AsyncAdaptiveMutex::with_poll_budget((), 0));
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        rt.block_on(async {
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let m = Arc::clone(&m);
                    let counts = Arc::clone(&counts);
                    let stop = Arc::clone(&stop);
                    rt::spawn(async move {
                        while !stop.load(Ordering::Relaxed) {
                            let _g = m.lock().await;
                            counts[i].fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            rt::sleep(Duration::from_millis(50)).await;
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                h.await;
            }
        });
        let ops: Vec<usize> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let min = ops.iter().copied().min().unwrap_or(0);
        let max = ops.iter().copied().max().unwrap_or(0);
        assert!(min > 0, "a task starved entirely: {ops:?}");
        assert!(
            (max as f64) / (min as f64) < 50.0,
            "handoff fairness collapsed: {ops:?}"
        );
    }
}

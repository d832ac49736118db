//! A minimal hand-rolled async runtime.
//!
//! The workspace vendors no async executor, and the point of the async
//! backend is the *locking* regime — "blocking" that yields a task, not
//! a core — so the runtime here is deliberately small: an injector run
//! queue shared by N worker threads (or serviced inline by `block_on`
//! for the current-thread flavor), a timer heap, an epoll reactor for
//! the sockets of `net.rs` (`reactor.rs`), and the three combinators
//! the mutex and the benchmarks need ([`yield_now`], [`sleep`],
//! [`timeout`]).
//!
//! Two flavors, mirroring the shapes services actually deploy:
//!
//! * [`Runtime::multi_thread`] — N OS worker threads pull from one
//!   injector queue. Wakes go back through the queue.
//! * [`Runtime::current_thread`] — no worker threads; the thread inside
//!   [`Runtime::block_on`] alternates between the root future and the
//!   run queue. This is the flavor where synchronous spinning in a task
//!   can *never* succeed (the lock holder shares the only thread), which
//!   is exactly the regime the poll-vs-park adaptation has to detect.
//!
//! Tasks are reference-counted state machines (`Idle → Scheduled →
//! Running → {Idle, Done}` with a `Notified` overlap state), so a wake
//! that lands mid-poll re-schedules instead of being lost, and a wake
//! of an already-queued task is a no-op — the standard executor
//! contract, in ~100 lines.
//!
//! # The driver
//!
//! There is no reactor thread and no timer thread: a thread hop per
//! request would double the context switches a request costs. Instead,
//! of the threads that find nothing to run (`Shared::idle`) the first
//! takes the driver's seat and blocks in `epoll_pwait2`, with the time
//! to the next timer as its timeout; the others wait on a condvar for a
//! task to be pushed. With one worker, the worker is the driver
//! whenever it is idle, and a request costs the one wake-up it cannot
//! avoid. The current-thread flavor's `block_on` runs the same
//! `Shared::turn`, so both flavors serve sockets.
//!
//! A driver with no timer to keep calls `sched_yield` once before it
//! blocks (`Shared::drive` says why): the paper's spin-then-block with
//! a spin of one. On a core with nobody else to run the call returns
//! at once.
//!
//! What the driver blocks on can be changed by a thread that is awake:
//! a task is pushed, an earlier timer is registered, the `block_on`
//! root is woken, the runtime shuts down. Each of those first makes
//! its change and then looks at `blocked`; the driver first raises
//! `blocked` and then looks for every such change, before it blocks.
//! Both sides are `SeqCst`, so one of the two sees the other (Dekker's
//! argument), and if it is the waker, it writes the reactor's eventfd.
//! While the driver is awake nobody writes anything: a push costs a
//! futex or eventfd syscall only when there is a thread to wake. A task
//! that re-queues itself (a yield) wakes nobody even then: the thread
//! that ran it pops next.
//!
//! A sleeper on the condvar is never left without a driver while work
//! could arrive: the driver gives up its seat before it pops, whatever
//! it makes runnable (a timer, a socket's task) is pushed and notifies
//! a sleeper, and a sleeper does not wait once the seat is empty.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use std::os::fd::AsRawFd;

use crate::reactor::{Io, Reactor};

/// Task lifecycle states (see module docs).
const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// A spawned future plus its scheduling state.
struct Task {
    /// The future, checked out by whichever worker is polling it.
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    state: AtomicU8,
    shared: Arc<Shared>,
}

impl Task {
    /// Move `Scheduled → Running` and poll; afterwards either retire
    /// (`Done`), go idle, or re-enqueue if a wake landed mid-poll.
    fn run(self: &Arc<Task>) {
        self.state.store(RUNNING, Ordering::Release);
        self.shared.polls.fetch_add(1, Ordering::Relaxed);
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        let mut slot = self
            .future
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(fut) = slot.as_mut() else {
            // Already completed (a stale wake raced retirement).
            self.state.store(DONE, Ordering::Release);
            return;
        };
        // A panicking task must not kill the worker thread: the panic is
        // captured by the JoinHandle wrapper future (which re-raises it
        // at the join point), so a poll-level panic here means the task
        // body escaped that wrapper — treat it as completion.
        let polled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        match polled {
            Ok(Poll::Pending) => {
                drop(slot);
                // `Running → Idle` unless a wake upgraded us to
                // `Notified`, in which case we owe ourselves a re-run.
                if self
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    self.state.store(SCHEDULED, Ordering::Release);
                    // Nobody is told: this thread pops next, and its
                    // pop passes the word on if more than one task
                    // waits. A yield beside an idle worker is free.
                    self.shared.queue().push_back(Arc::clone(self));
                }
            }
            Ok(Poll::Ready(())) | Err(_) => {
                *slot = None;
                drop(slot);
                self.state.store(DONE, Ordering::Release);
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.shared.enqueue(Arc::clone(self));
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already notified, or retired.
                _ => return,
            }
        }
    }
}

/// One pending timer: fire `waker` at `deadline`. Ordered by deadline
/// (then sequence number, so equal deadlines stay FIFO in the heap).
struct TimerEntry {
    deadline: Instant,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// How long an idle thread waits with nothing to wait for. The wake
/// protocol does not depend on it; it bounds what a missed wake-up
/// could cost if that protocol had a hole.
const TICK: Duration = Duration::from_millis(50);

/// A thread that always has something to run looks at the reactor
/// (without blocking) once in this many turns, so that tasks that
/// yield in a loop cannot starve the ones waiting for a socket.
const IO_EVERY: u32 = 61;

/// State shared by every handle, worker, and task of one runtime.
struct Shared {
    queue: Mutex<VecDeque<Arc<Task>>>,
    timers: Mutex<BinaryHeap<Reverse<TimerEntry>>>,
    reactor: Arc<Reactor>,
    /// Held by the one idle thread that waits in the reactor (the
    /// driver); the other idle threads wait on `cv`.
    driving: AtomicBool,
    /// Set by the driver before it re-checks for work and blocks;
    /// whoever takes it back to false owes the eventfd a write.
    blocked: AtomicBool,
    cv: Condvar,
    /// Threads waiting on `cv`; raised under `queue`'s lock.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    timer_seq: AtomicU64,
    // `RuntimeStats`; the reactor counts its own events.
    polls: AtomicU64,
    timer_fires: AtomicU64,
    driver_parks: AtomicU64,
    driver_interrupts: AtomicU64,
}

impl Shared {
    fn new() -> Arc<Shared> {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            timers: Mutex::new(BinaryHeap::new()),
            reactor: Arc::new(
                Reactor::new().expect(
                    "create the runtime's epoll instance and eventfd \
                     (epoll_pwait2 needs Linux 5.11 or later)",
                ),
            ),
            driving: AtomicBool::new(false),
            blocked: AtomicBool::new(false),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            timer_seq: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            timer_fires: AtomicU64::new(0),
            driver_parks: AtomicU64::new(0),
            driver_interrupts: AtomicU64::new(0),
        })
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<Arc<Task>>> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn timers(&self) -> MutexGuard<'_, BinaryHeap<Reverse<TimerEntry>>> {
        self.timers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn enqueue(&self, task: Arc<Task>) {
        self.queue().push_back(task);
        self.wake_one();
    }

    /// The queue holds a task that nobody was told about: tell one idle
    /// thread, if there is one. No syscall otherwise.
    ///
    /// A sleeper raises `sleepers` and a driver raises `blocked` before
    /// they look at the queue for the last time, and this runs after
    /// the push, so one side always sees the other (Dekker; hence
    /// `SeqCst`).
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.cv.notify_one();
        } else {
            self.interrupt_driver();
        }
    }

    /// Make the driver return from the reactor, if it is in there. One
    /// write per park: the swap elects the writer (and the load before
    /// it keeps a push beside an awake driver free of a locked op).
    fn interrupt_driver(&self) {
        if self.blocked.load(Ordering::SeqCst) && self.blocked.swap(false, Ordering::SeqCst) {
            self.driver_interrupts.fetch_add(1, Ordering::Relaxed);
            self.reactor.interrupt();
        }
    }

    fn pop(&self) -> Option<Arc<Task>> {
        let (task, more) = {
            let mut queue = self.queue();
            (queue.pop_front()?, !queue.is_empty())
        };
        // Two pushes in a row can both notify the same sleeper (it has
        // not yet run to lower `sleepers`); passing the word on here
        // gets the second task its own thread.
        if more {
            self.wake_one();
        }
        Some(task)
    }

    /// Wake every timer whose deadline has passed.
    fn fire_due_timers(&self) {
        let mut due = Vec::new();
        {
            let mut timers = self.timers();
            if timers.is_empty() {
                return;
            }
            let now = Instant::now();
            while timers.peek().is_some_and(|Reverse(head)| head.deadline <= now) {
                due.extend(timers.pop().map(|Reverse(entry)| entry.waker));
            }
        }
        self.timer_fires.fetch_add(due.len() as u64, Ordering::Relaxed);
        // Wake outside the timer lock: a waker may immediately try to
        // register a new timer.
        for waker in due {
            waker.wake();
        }
    }

    fn register_timer(&self, deadline: Instant, waker: Waker) {
        let seq = self.timer_seq.fetch_add(1, Ordering::Relaxed);
        let earliest = {
            let mut timers = self.timers();
            timers.push(Reverse(TimerEntry { deadline, seq, waker }));
            timers.peek().is_some_and(|Reverse(head)| head.seq == seq)
        };
        // A blocked driver took its timeout from the old head, which
        // covers every deadline but an earlier one.
        if earliest {
            self.interrupt_driver();
        }
    }

    /// One scheduler turn: fire due timers, run one task if there is
    /// one, and wait for work if there is none and `woken` (the
    /// `block_on` root's flag; constant false on a worker) is false.
    fn turn(&self, turns: &mut u32, woken: &dyn Fn() -> bool) {
        *turns = turns.wrapping_add(1);
        self.fire_due_timers();
        if let Some(task) = self.pop() {
            task.run();
        } else if !woken() {
            return self.idle(woken);
        }
        // A driver in its seat is looking already.
        if turns.is_multiple_of(IO_EVERY) && !self.driving.load(Ordering::SeqCst) {
            self.reactor.wait(Duration::ZERO).into_iter().for_each(Waker::wake);
        }
    }

    /// Nothing to run: wait in the reactor if no other thread does,
    /// else on the condvar until a task is pushed.
    fn idle(&self, woken: &dyn Fn() -> bool) {
        if !self.driving.swap(true, Ordering::SeqCst) {
            self.drive(woken);
            // Given up before this thread pops again: a sleeper that
            // finds the queue emptied by the driver also finds the
            // driver's seat empty.
            self.driving.store(false, Ordering::SeqCst);
            return;
        }
        let queue = self.queue();
        // Raised before the last look at `woken` and `shutdown`:
        // `wake_all` looks at `sleepers` after its caller set them.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // The driver fires the timers and notifies a sleeper for every
        // task it makes runnable, so a push is all there is to wait
        // for; without a driver, not even that.
        if queue.is_empty()
            && !woken()
            && !self.shutdown.load(Ordering::SeqCst)
            && self.driving.load(Ordering::SeqCst)
        {
            drop(self.cv.wait_timeout(queue, TICK));
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// The driver's wait: block in `epoll_pwait2` until a socket is
    /// ready, the next timer is due, or `interrupt_driver` says that
    /// one of the things checked here has changed.
    fn drive(&self, woken: &dyn Fn() -> bool) {
        // Give the core away once first: a peer that shares it (a
        // loopback client the last task has just answered) sends its
        // next request now, and the wait below finds it without this
        // thread having slept. A sleeper has to be woken, and whether
        // the kernel then runs it at once or lets the waker go on is
        // decided anew at every wake-up: the closed loop's median
        // round trip read 7 us in one run and 11 in the next. On a core
        // of its own the call returns at once. Not with a timer armed:
        // a busy neighbour may keep the core for a whole slice, which a
        // sleeper woken at its deadline does not wait for.
        if self.timers().is_empty() {
            std::thread::yield_now();
        }
        self.blocked.store(true, Ordering::SeqCst);
        // Everything read from here on is re-read after `blocked` is
        // visible: a push, a root wake, a shutdown or an earlier timer
        // that these reads miss will see `blocked` and interrupt.
        let idle = self.queue().is_empty() && !woken() && !self.shutdown.load(Ordering::SeqCst);
        let wakers = if idle {
            let next = self.timers().peek().map(|Reverse(head)| head.deadline);
            let timeout =
                next.map_or(TICK, |d| d.saturating_duration_since(Instant::now()).min(TICK));
            self.driver_parks.fetch_add(1, Ordering::Relaxed);
            self.reactor.wait(timeout)
        } else {
            Vec::new()
        };
        // Before the wakes: they are pushes by a thread that is awake.
        self.blocked.store(false, Ordering::SeqCst);
        wakers.into_iter().for_each(Waker::wake);
    }

    /// Wake every thread of the runtime, however it waits (shutdown,
    /// and a `block_on` root woken from another thread).
    fn wake_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // A sleeper holds the lock from its last look at what the
            // caller changed until it waits: after this, it waits.
            drop(self.queue());
            self.cv.notify_all();
        }
        self.interrupt_driver();
    }
}

std::thread_local! {
    static CURRENT: std::cell::RefCell<Option<Handle>> = const { std::cell::RefCell::new(None) };
}

/// Sets the thread-local current handle for a scope, restoring the
/// previous one on drop (so nested `block_on`s unwind correctly).
struct EnterGuard(Option<Handle>);

fn enter(handle: Handle) -> EnterGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(handle));
    EnterGuard(prev)
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// A cloneable reference to a runtime: spawn tasks and register timers
/// from anywhere that holds one.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// The handle of the runtime driving the current thread.
    ///
    /// # Panics
    ///
    /// Outside a runtime (no `block_on` or worker on this thread).
    pub fn current() -> Handle {
        Handle::try_current().expect("not inside an asyncx runtime")
    }

    /// Like [`Handle::current`], but `None` outside a runtime.
    pub fn try_current() -> Option<Handle> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Spawn a future onto the runtime; returns a [`JoinHandle`] that
    /// resolves to the future's output (re-raising its panic, if any).
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let join = Arc::new(JoinState {
            inner: Mutex::new(JoinInner { result: None, waker: None }),
            done: AtomicBool::new(false),
        });
        let join2 = Arc::clone(&join);
        let wrapped = async move {
            // Catch the panic at the await points too, not just inside
            // one poll: wrap the whole future so the payload travels to
            // the join point instead of killing a worker.
            let result = CatchUnwind { inner: future }.await;
            let waker = {
                let mut inner = join2
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                inner.result = Some(result);
                inner.waker.take()
            };
            join2.done.store(true, Ordering::Release);
            if let Some(w) = waker {
                w.wake();
            }
        };
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            state: AtomicU8::new(SCHEDULED),
            shared: Arc::clone(&self.shared),
        });
        self.shared.enqueue(task);
        JoinHandle { state: join }
    }

    /// Arrange for `waker` to be woken at `deadline` (fire-once; a
    /// stale registration costs one spurious wake). This is the hook
    /// the async mutex's park-timeout path uses directly, bypassing
    /// [`Sleep`] so the deadline lives outside any future of its own.
    pub fn register_timer_at(&self, deadline: Instant, waker: Waker) {
        self.shared.register_timer(deadline, waker);
    }

    /// What the scheduler has done so far (see [`RuntimeStats`]).
    pub fn stats(&self) -> RuntimeStats {
        let shared = &self.shared;
        RuntimeStats {
            polls: shared.polls.load(Ordering::Relaxed),
            io_events: shared.reactor.events(),
            timer_fires: shared.timer_fires.load(Ordering::Relaxed),
            driver_parks: shared.driver_parks.load(Ordering::Relaxed),
            driver_interrupts: shared.driver_interrupts.load(Ordering::Relaxed),
        }
    }

    /// Register a nonblocking socket with this runtime's reactor; its
    /// tasks have to run on this runtime to be woken.
    pub(crate) fn register<T: AsRawFd>(&self, socket: T) -> std::io::Result<Io<T>> {
        Io::new(Arc::clone(&self.shared.reactor), socket)
    }

    /// Wake every task parked on a registered socket (spuriously, as
    /// far as the socket goes): a server does it to have them look at
    /// its stop flag.
    pub(crate) fn wake_io(&self) {
        self.shared.reactor.take_wakers().into_iter().for_each(Waker::wake);
    }
}

/// Counters of one runtime since it was built, for tests and
/// operators: is anything waking up that should not? Each is bumped
/// with a relaxed add beside the event it counts, so a snapshot is not
/// one instant across the five.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Polls of spawned tasks (`block_on` roots are not counted).
    pub polls: u64,
    /// Readiness events the reactor delivered for a registered socket.
    pub io_events: u64,
    /// Timer entries fired.
    pub timer_fires: u64,
    /// Times an idle thread blocked in the reactor. An idle runtime
    /// adds one per 50 ms housekeeping tick and nothing else.
    pub driver_parks: u64,
    /// Times a blocked driver was woken through the eventfd: by a task
    /// made runnable on another thread, an earlier timer, a `block_on`
    /// root wake, or shutdown.
    pub driver_interrupts: u64,
}

/// Spawn onto the current thread's runtime (see [`Handle::spawn`]).
///
/// # Panics
///
/// Outside a runtime.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    Handle::current().spawn(future)
}

/// Catches a panic that unwinds out of any poll of `inner`.
struct CatchUnwind<F> {
    inner: F,
}

impl<F: Future> Future for CatchUnwind<F> {
    type Output = std::thread::Result<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural projection — `inner` is never moved out.
        let inner = unsafe { self.map_unchecked_mut(|s| &mut s.inner) };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inner.poll(cx))) {
            Ok(Poll::Pending) => Poll::Pending,
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Err(payload) => Poll::Ready(Err(payload)),
        }
    }
}

struct JoinInner<T> {
    result: Option<std::thread::Result<T>>,
    waker: Option<Waker>,
}

struct JoinState<T> {
    inner: Mutex<JoinInner<T>>,
    done: AtomicBool,
}

/// Awaitable completion of a spawned task.
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

impl<T> JoinHandle<T> {
    /// Whether the task has finished (without consuming the result).
    pub fn is_finished(&self) -> bool {
        self.state.done.load(Ordering::Acquire)
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut inner = self
            .state
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(result) = inner.result.take() {
            drop(inner);
            match result {
                Ok(v) => Poll::Ready(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        } else {
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// How many worker threads a runtime drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// No workers: `block_on` services the run queue inline.
    CurrentThread,
    /// This many dedicated worker threads.
    MultiThread(usize),
}

/// The runtime: a run queue, a timer heap, and zero or more workers.
pub struct Runtime {
    shared: Arc<Shared>,
    flavor: Flavor,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// A runtime with `workers` dedicated worker threads (min 1).
    ///
    /// # Panics
    ///
    /// If the process cannot open two more descriptors (the epoll
    /// instance and its eventfd), if the kernel is older than 5.11 (no
    /// `epoll_pwait2`), or if the threads cannot be spawned.
    pub fn multi_thread(workers: usize) -> Runtime {
        let workers = workers.max(1);
        let shared = Shared::new();
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("asyncx-worker-{i}"))
                    .spawn(move || {
                        let _enter = enter(Handle { shared: Arc::clone(&shared) });
                        let mut turns = 0;
                        while !shared.shutdown.load(Ordering::SeqCst) {
                            shared.turn(&mut turns, &|| false);
                        }
                    })
                    .expect("spawn asyncx worker")
            })
            .collect();
        Runtime { shared, flavor: Flavor::MultiThread(workers), workers: threads }
    }

    /// A single-threaded runtime: tasks run interleaved with the root
    /// future on the thread that calls [`Runtime::block_on`].
    ///
    /// # Panics
    ///
    /// If the process cannot open two more descriptors, or if the
    /// kernel is older than 5.11.
    pub fn current_thread() -> Runtime {
        Runtime { shared: Shared::new(), flavor: Flavor::CurrentThread, workers: Vec::new() }
    }

    /// This runtime's flavor.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// A cloneable [`Handle`] for spawning from outside the runtime.
    pub fn handle(&self) -> Handle {
        Handle { shared: Arc::clone(&self.shared) }
    }

    /// Drive `root` to completion on the calling thread.
    ///
    /// Multi-thread flavor: spawned tasks run on the workers; this
    /// thread only polls `root` and parks between its wakes.
    /// Current-thread flavor: this thread alternates between `root` and
    /// the run queue, and is the driver whenever both are idle.
    pub fn block_on<F: Future>(&self, root: F) -> F::Output {
        let _enter = enter(self.handle());
        let root_wake = Arc::new(RootWaker {
            woken: AtomicBool::new(true),
            thread: std::thread::current(),
            shared: Arc::clone(&self.shared),
            drives: self.flavor == Flavor::CurrentThread,
        });
        let waker = Waker::from(Arc::clone(&root_wake));
        let mut cx = Context::from_waker(&waker);
        let mut root = std::pin::pin!(root);
        let mut turns = 0;
        loop {
            if root_wake.woken.swap(false, Ordering::SeqCst) {
                if let Poll::Ready(v) = root.as_mut().poll(&mut cx) {
                    return v;
                }
            }
            if root_wake.drives {
                self.shared
                    .turn(&mut turns, &|| root_wake.woken.load(Ordering::SeqCst));
            } else if !root_wake.woken.load(Ordering::SeqCst) {
                // `unpark` before this `park` makes it return at once;
                // the bound is the same belt as `TICK`.
                std::thread::park_timeout(TICK);
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Retire whatever never finished, so that what the tasks hold
        // drops and the waker → task → runtime cycles break. Taken out
        // first: a task's drop deregisters its sockets and may wake.
        let queued = std::mem::take(&mut *self.shared.queue());
        drop(queued);
        let timers = std::mem::take(&mut *self.shared.timers());
        drop(timers);
        drop(self.shared.reactor.take_wakers());
    }
}

/// Wakes the `block_on` thread.
struct RootWaker {
    woken: AtomicBool,
    thread: std::thread::Thread,
    shared: Arc<Shared>,
    /// Current-thread flavor: the thread waits in `Shared::turn`, not
    /// in `park`.
    drives: bool,
}

impl Wake for RootWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::SeqCst);
        if self.drives {
            self.shared.wake_all();
        } else {
            self.thread.unpark();
        }
    }
}

/// Yield once: re-schedule the current task at the back of the run
/// queue and return `Pending`. This is the async analogue of the
/// paper's *delay* between lock probes — it costs a task switch, not a
/// core.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future of [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Sleep for `duration`. The deadline becomes the driver's
/// `epoll_pwait2` timeout (nanosecond resolution), so on an idle
/// runtime the overshoot is the kernel's timer slack and wake-up
/// latency: tens of microseconds, not a scheduler tick. With every
/// thread busy the timer fires at the next task switch.
pub fn sleep(duration: Duration) -> Sleep {
    sleep_until(Instant::now() + duration)
}

/// Sleep until `deadline`.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep { deadline }
}

/// Future of [`sleep`] / [`sleep_until`].
pub struct Sleep {
    deadline: Instant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        // Re-register on every poll: timer entries are fire-once and
        // wakers may change between polls. A stale entry costs one
        // spurious wake, nothing more.
        let handle = Handle::current();
        handle.register_timer_at(self.deadline, cx.waker().clone());
        Poll::Pending
    }
}

/// Error of [`timeout`]: the deadline elapsed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Race `future` against a deadline. On timeout the future is dropped
/// mid-wait — exactly the cancellation path the async mutex must keep
/// safe (see `tests/proptest_async_cancel.rs`).
pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    Timeout { sleep: sleep(duration), future }
}

/// Future of [`timeout`].
pub struct Timeout<F> {
    sleep: Sleep,
    future: F,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural projection; neither field is moved out.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: `this.future` is a field of the pinned `self` and is
        // only ever polled through this pin.
        let future = unsafe { Pin::new_unchecked(&mut this.future) };
        if let Poll::Ready(v) = future.poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn both_flavors() -> [Runtime; 2] {
        [Runtime::current_thread(), Runtime::multi_thread(2)]
    }

    #[test]
    fn block_on_returns_the_root_value() {
        for rt in both_flavors() {
            assert_eq!(rt.block_on(async { 41 + 1 }), 42);
        }
    }

    #[test]
    fn spawned_tasks_run_and_join() {
        for rt in both_flavors() {
            let n = rt.block_on(async {
                let handles: Vec<_> = (0..8u64).map(|i| spawn(async move { i * 2 })).collect();
                let mut sum = 0;
                for h in handles {
                    sum += h.await;
                }
                sum
            });
            assert_eq!(n, 56);
        }
    }

    #[test]
    fn yield_now_interleaves_tasks() {
        for rt in both_flavors() {
            let counter = Arc::new(AtomicUsize::new(0));
            rt.block_on(async {
                let c = Arc::clone(&counter);
                let a = spawn(async move {
                    for _ in 0..100 {
                        c.fetch_add(1, Ordering::Relaxed);
                        yield_now().await;
                    }
                });
                let c = Arc::clone(&counter);
                let b = spawn(async move {
                    for _ in 0..100 {
                        c.fetch_add(1, Ordering::Relaxed);
                        yield_now().await;
                    }
                });
                a.await;
                b.await;
            });
            assert_eq!(counter.load(Ordering::Relaxed), 200);
        }
    }

    #[test]
    fn sleep_actually_sleeps() {
        for rt in both_flavors() {
            let t0 = Instant::now();
            rt.block_on(async {
                sleep(Duration::from_millis(20)).await;
            });
            assert!(t0.elapsed() >= Duration::from_millis(20));
        }
    }

    #[test]
    fn sleep_500us_on_an_idle_runtime_returns_within_a_millisecond() {
        // The root's timer reaches a driver that is blocked until the
        // next tick (a worker, on the multi-thread flavor: registered
        // from another thread), which has to come out and re-arm.
        for rt in both_flavors() {
            let mut took: Vec<Duration> = (0..9)
                .map(|_| {
                    std::thread::sleep(Duration::from_millis(2)); // the workers go idle
                    rt.block_on(async {
                        let t = Instant::now();
                        sleep(Duration::from_micros(500)).await;
                        t.elapsed()
                    })
                })
                .collect();
            took.sort();
            assert!(took[0] >= Duration::from_micros(500));
            assert!(took[4] < Duration::from_millis(1), "{:?}: {took:?}", rt.flavor());
        }
    }

    struct Flag(AtomicBool);

    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// Returns once the runtime's driver has stayed in one park for a
    /// few milliseconds: with no task to run, it is blocked.
    fn wait_until_blocked(handle: &Handle) {
        loop {
            let parks = handle.stats().driver_parks;
            std::thread::sleep(Duration::from_millis(3));
            if parks > 0 && handle.stats().driver_parks == parks {
                return;
            }
        }
    }

    #[test]
    fn a_timer_from_another_thread_interrupts_the_driver_iff_it_is_the_earliest() {
        let rt = Runtime::multi_thread(1);
        let handle = rt.handle();
        let idle = Waker::from(Arc::new(Flag(AtomicBool::new(false))));
        let far = Instant::now() + Duration::from_secs(60);
        let mut interrupts = 0;
        // (deadline, whether the blocked driver's timeout is too long)
        for (deadline, earlier) in [
            (far, true),
            (far - Duration::from_secs(20), true),
            (far - Duration::from_secs(10), false),
            (far + Duration::from_secs(10), false),
        ] {
            wait_until_blocked(&handle);
            handle.register_timer_at(deadline, idle.clone());
            interrupts += u64::from(earlier);
            assert_eq!(handle.stats().driver_interrupts, interrupts, "after {deadline:?}");
        }
        // And the interrupt does what it is for: a near deadline is met
        // though the driver went to sleep until the tick.
        wait_until_blocked(&handle);
        let fired = Arc::new(Flag(AtomicBool::new(false)));
        let t = Instant::now();
        handle.register_timer_at(t + Duration::from_millis(1), Waker::from(Arc::clone(&fired)));
        assert_eq!(handle.stats().driver_interrupts, interrupts + 1);
        while !fired.0.load(Ordering::SeqCst) {
            assert!(t.elapsed() < Duration::from_secs(10), "the timer never fired");
            std::thread::yield_now();
        }
        assert_eq!(handle.stats().timer_fires, 1);
    }

    #[test]
    fn a_yield_beside_an_idle_worker_wakes_nobody() {
        // The yielding task's worker pops it again itself; poking the
        // other worker out of the reactor for each yield would cost a
        // syscall on both sides and bounce the task between cores.
        let rt = Runtime::multi_thread(2);
        rt.block_on(async {
            spawn(async {
                for _ in 0..100 {
                    // Long enough for the other worker to block again.
                    std::thread::sleep(Duration::from_micros(300));
                    yield_now().await;
                }
            })
            .await;
        });
        let interrupts = rt.handle().stats().driver_interrupts;
        assert!(interrupts <= 10, "{interrupts} interrupts for 100 yields of one task");
    }

    #[test]
    fn dropping_an_idle_runtime_does_not_wait_for_the_tick() {
        // One worker sleeps in the reactor and two on the condvar:
        // `wake_all` has to reach all three.
        let mut took: Vec<Duration> = (0..9)
            .map(|_| {
                let rt = Runtime::multi_thread(3);
                wait_until_blocked(&rt.handle());
                let t = Instant::now();
                drop(rt);
                t.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[4] < TICK / 5, "{took:?}");
    }

    #[test]
    fn timeout_cancels_a_slow_future_and_passes_a_fast_one() {
        for rt in both_flavors() {
            let (slow, fast) = rt.block_on(async {
                let slow = timeout(Duration::from_millis(10), sleep(Duration::from_secs(30))).await;
                let fast = timeout(Duration::from_secs(30), async { 7 }).await;
                (slow, fast)
            });
            assert_eq!(slow, Err(Elapsed));
            assert_eq!(fast, Ok(7));
        }
    }

    #[test]
    fn task_panics_surface_at_the_join_point_not_in_the_worker() {
        for rt in both_flavors() {
            // The panic must not kill a worker: a second task spawned
            // after the panicking one still runs to completion, and
            // awaiting the panicked handle re-raises the payload.
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.block_on(async {
                    let doomed = spawn(async {
                        panic!("task body panic");
                    });
                    let healthy = spawn(async { 11 });
                    assert_eq!(healthy.await, 11, "worker survived the panic");
                    doomed.await
                })
            }));
            assert!(res.is_err(), "join must re-raise the task panic");
        }
    }

    #[test]
    fn wake_during_poll_reschedules_instead_of_losing_the_wake() {
        // A future that wakes itself and stays Pending exactly once: if
        // the mid-poll wake were lost, the task would hang and the join
        // below would never resolve.
        struct SelfWake {
            polls: usize,
        }
        impl Future for SelfWake {
            type Output = usize;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
                self.polls += 1;
                if self.polls < 3 {
                    cx.waker().wake_by_ref();
                    Poll::Pending
                } else {
                    Poll::Ready(self.polls)
                }
            }
        }
        for rt in both_flavors() {
            let polls = rt.block_on(async { spawn(SelfWake { polls: 0 }).await });
            assert_eq!(polls, 3);
        }
    }

    #[test]
    fn handle_spawns_from_outside_the_runtime() {
        let rt = Runtime::multi_thread(1);
        let h = rt.handle().spawn(async { "out-of-band" });
        assert_eq!(rt.block_on(h), "out-of-band");
    }

    #[test]
    fn nested_block_on_restores_the_outer_handle() {
        let outer = Runtime::current_thread();
        let got = outer.block_on(async {
            let inner = Runtime::current_thread();
            let v = inner.block_on(async { 5 });
            // Back on the outer runtime: spawning must still work.
            let h = spawn(async move { v + 1 });
            h.await
        });
        assert_eq!(got, 6);
    }
}

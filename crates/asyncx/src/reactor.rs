//! The readiness reactor: one epoll instance per runtime.
//!
//! A socket is registered **once**, edge-triggered, for both directions
//! (`EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET`), so the steady state
//! pays no `epoll_ctl`. Each registered source owns a slot in a slab
//! with one fire-once waker per direction. An I/O future stores its
//! waker *before* each attempt and returns `Pending` only after the
//! attempt said `WouldBlock`; that is race-free without caching
//! readiness, because an edge either precedes the attempt (and the
//! attempt sees the bytes) or follows it (and finds the waker).
//!
//! There is no reactor thread. Whichever thread of the runtime has
//! nothing to run calls [`Reactor::wait`] (see `rt.rs`, *the driver*);
//! everything else that needs the driver awake writes the eventfd
//! through [`Reactor::interrupt`].
//!
//! Linux only (5.11 or later, for `epoll_pwait2` and its nanosecond
//! timeout; glibc 2.35 or later to link it). The workspace vendors no
//! `libc`, so the six calls are declared here by hand.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "asyncx's reactor declares epoll_pwait2 and a 64-bit `struct timespec` by hand: \
     it builds for 64-bit Linux only"
);

use std::ffi::{c_int, c_long, c_void};
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// `struct epoll_event`: packed on x86-64 only (the kernel kept the
/// 32-bit layout there), naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` of a 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// Which of a source's two wakers an operation parks on.
#[derive(Clone, Copy)]
pub(crate) enum Direction {
    Read,
    Write,
}

/// One slot of the slab. `generation` counts the tenants that have
/// left: an event carries the generation its source registered under,
/// so one that is dispatched after the source left wakes nobody, least
/// of all the slot's next tenant.
#[derive(Default)]
struct Source {
    generation: u32,
    read: Option<Waker>,
    write: Option<Waker>,
}

#[derive(Default)]
struct Slab {
    sources: Vec<Source>,
    free: Vec<u32>,
}

/// Slab index in the low half, generation in the high half.
type Token = u64;

/// The eventfd's token; no slab index reaches it.
const INTERRUPT: Token = u64::MAX;

/// Events taken per `epoll_pwait2`; more stay queued in the kernel for
/// the next call.
const BATCH: usize = 64;

pub(crate) struct Reactor {
    epfd: RawFd,
    eventfd: RawFd,
    slab: Mutex<Slab>,
    /// Events that named a live source (`RuntimeStats::io_events`).
    events: AtomicU64,
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl Reactor {
    pub(crate) fn new() -> io::Result<Reactor> {
        // SAFETY: no pointers; the call returns a new descriptor or -1.
        let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // From here on `Drop` closes what was opened.
        let mut reactor = Reactor {
            epfd,
            eventfd: -1,
            slab: Mutex::default(),
            events: AtomicU64::new(0),
        };
        // SAFETY: no pointers; the call returns a new descriptor or -1.
        reactor.eventfd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // Edge-triggered, so the counter is never read back: every
        // write is a new edge, and 2^64 writes are out of reach.
        reactor.ctl_add(reactor.eventfd, EPOLLIN | EPOLLET, INTERRUPT)?;
        // A kernel older than 5.11 has no `epoll_pwait2`: fail here,
        // not in a driver whose every wait returns at once.
        reactor.collect(Duration::ZERO, &mut [EpollEvent { events: 0, data: 0 }; BATCH])?;
        Ok(reactor)
    }

    fn ctl_add(&self, fd: RawFd, events: u32, token: Token) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live `epoll_event` for the length of the
        // call, which only reads it; `epfd` is this reactor's own.
        check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut event) }).map(drop)
    }

    fn slab(&self) -> std::sync::MutexGuard<'_, Slab> {
        // Every update leaves the slab valid, so a panic elsewhere
        // while it was held (a waker's `Drop`) poisons nothing real.
        self.slab
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn register(&self, fd: RawFd) -> io::Result<Token> {
        let mut slab = self.slab();
        let index = slab.free.pop().unwrap_or_else(|| {
            slab.sources.push(Source::default());
            (slab.sources.len() - 1) as u32
        });
        let source = &mut slab.sources[index as usize];
        let token = u64::from(source.generation) << 32 | u64::from(index);
        let added = self.ctl_add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, token);
        if added.is_err() {
            slab.free.push(index);
        }
        added.map(|()| token)
    }

    fn deregister(&self, fd: RawFd, token: Token) {
        let mut event = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl_add`. The result is ignored: the caller is
        // about to close `fd`, which removes it from the set anyway.
        unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) };
        let wakers = {
            let mut slab = self.slab();
            let source = &mut slab.sources[token as u32 as usize];
            source.generation = source.generation.wrapping_add(1);
            let wakers = (source.read.take(), source.write.take());
            slab.free.push(token as u32);
            wakers
        };
        // A waker's drop may free a task, which may own another source.
        drop(wakers);
    }

    fn set_waker(&self, token: Token, direction: Direction, waker: &Waker) {
        let mut slab = self.slab();
        let source = &mut slab.sources[token as u32 as usize];
        let slot = match direction {
            Direction::Read => &mut source.read,
            Direction::Write => &mut source.write,
        };
        if !slot.as_ref().is_some_and(|w| w.will_wake(waker)) {
            let old = slot.replace(waker.clone());
            drop(slab);
            // As in `deregister`.
            drop(old);
        }
    }

    /// Block until a source is ready, the eventfd is written or
    /// `timeout` passes, and return the wakers the events name. The
    /// caller wakes them: a wake pushes a task, and whether that
    /// should interrupt a driver is the caller's to have settled first.
    pub(crate) fn wait(&self, timeout: Duration) -> Vec<Waker> {
        let mut events = [EpollEvent { events: 0, data: 0 }; BATCH];
        // An error is `EINTR` (`new` has seen the call work): the
        // caller comes round again.
        let n = self.collect(timeout, &mut events).unwrap_or(0);
        self.dispatch(&events[..n])
    }

    fn collect(&self, timeout: Duration, events: &mut [EpollEvent; BATCH]) -> io::Result<usize> {
        let timeout = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `events` has room for `BATCH` entries and `timeout`
        // is a `timespec`, both live for the length of the call; a null
        // `sigmask` leaves the signal mask alone.
        let n = unsafe {
            epoll_pwait2(
                self.epfd,
                events.as_mut_ptr(),
                BATCH as c_int,
                &timeout,
                std::ptr::null(),
            )
        };
        check(n).map(|n| n as usize)
    }

    /// By now any of the sources may have left, and its slot may have
    /// a new tenant: another thread of the runtime was running tasks
    /// while this one was in `collect`.
    fn dispatch(&self, events: &[EpollEvent]) -> Vec<Waker> {
        let mut wakers = Vec::new();
        let mut hits = 0;
        let mut slab = self.slab();
        for &EpollEvent {
            events: mask,
            data: token,
        } in events
        {
            let Some(source) = slab.sources.get_mut(token as u32 as usize) else {
                continue; // the eventfd
            };
            if u64::from(source.generation) != token >> 32 {
                continue;
            }
            hits += 1;
            // An error or a hang-up ends both directions' waits.
            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                wakers.extend(source.read.take());
            }
            if mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
                wakers.extend(source.write.take());
            }
        }
        self.events.fetch_add(hits, Ordering::Relaxed);
        wakers
    }

    pub(crate) fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Make a `wait` that is blocked, or the next one, return.
    pub(crate) fn interrupt(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `one` is eight readable bytes, which is what an
        // eventfd takes. It cannot fail short of 2^64 - 1 unread writes.
        unsafe { write(self.eventfd, one.as_ptr().cast(), one.len()) };
    }

    /// Take every stored waker: to wake them, when a server wants its
    /// parked connections to look at their stop flag, or to drop them
    /// when the runtime goes. Either happens outside the lock.
    pub(crate) fn take_wakers(&self) -> Vec<Waker> {
        let mut slab = self.slab();
        let slots = slab
            .sources
            .iter_mut()
            .flat_map(|s| [s.read.take(), s.write.take()]);
        slots.flatten().collect()
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        for fd in [self.eventfd, self.epfd] {
            if fd >= 0 {
                // SAFETY: the descriptor is this reactor's own and is
                // not used again.
                unsafe { close(fd) };
            }
        }
    }
}

/// A nonblocking socket registered with a runtime's reactor for as
/// long as it lives.
pub(crate) struct Io<T: AsRawFd> {
    reactor: Arc<Reactor>,
    token: Token,
    inner: T,
}

impl<T: AsRawFd> Io<T> {
    pub(crate) fn new(reactor: Arc<Reactor>, inner: T) -> io::Result<Io<T>> {
        let token = reactor.register(inner.as_raw_fd())?;
        Ok(Io {
            reactor,
            token,
            inner,
        })
    }

    pub(crate) fn get_ref(&self) -> &T {
        &self.inner
    }

    /// Arrange for `waker` to be woken at the next readiness edge in
    /// `direction`. Call it *before* the attempt whose `WouldBlock` it
    /// covers (see the module docs).
    pub(crate) fn set_waker(&self, direction: Direction, waker: &Waker) {
        self.reactor.set_waker(self.token, direction, waker);
    }
}

impl<T: AsRawFd> Drop for Io<T> {
    fn drop(&mut self) {
        // Runs before `inner` closes the descriptor: once closed, the
        // number could be another thread's new socket.
        self.reactor.deregister(self.inner.as_raw_fd(), self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    struct Count(AtomicUsize);

    impl std::task::Wake for Count {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<Count>, Waker) {
        let count = Arc::new(Count(AtomicUsize::new(0)));
        (Arc::clone(&count), Waker::from(count))
    }

    #[test]
    fn a_stale_event_wakes_nobody_and_leaves_the_next_tenant_its_waker() {
        let reactor = Arc::new(Reactor::new().expect("reactor"));
        let (a, mut a_peer) = UnixStream::pair().expect("pair");
        let a = Io::new(Arc::clone(&reactor), a).expect("register");
        let (first, waker) = counting_waker();
        a.set_waker(Direction::Read, &waker);

        // `a` becomes readable and the batch that says so is collected;
        // before it is dispatched `a` closes and `b` moves into its slot.
        a_peer.write_all(b"x").expect("write");
        let mut events = [EpollEvent { events: 0, data: 0 }; BATCH];
        let n = reactor
            .collect(Duration::from_secs(5), &mut events)
            .expect("epoll_pwait2");
        assert!(
            events[..n].iter().any(|e| e.data == a.token),
            "no event for `a`"
        );
        let slot = a.token as u32;
        drop(a);
        let (b, mut b_peer) = UnixStream::pair().expect("pair");
        let b = Io::new(Arc::clone(&reactor), b).expect("register");
        assert_eq!(b.token as u32, slot, "`b` did not reuse the slot");
        let (second, waker) = counting_waker();
        b.set_waker(Direction::Read, &waker);

        assert!(reactor.dispatch(&events[..n]).is_empty());
        assert_eq!(
            first.0.load(Ordering::SeqCst),
            0,
            "a waker outlived its source"
        );
        // `b`'s waker was not taken either: its own edge still finds it.
        b_peer.write_all(b"y").expect("write");
        let wakers = reactor.wait(Duration::from_secs(5));
        assert_eq!(wakers.len(), 1);
        wakers.into_iter().for_each(Waker::wake);
        assert_eq!(second.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn every_interrupt_is_a_new_edge_though_the_eventfd_is_never_read() {
        let reactor = Reactor::new().expect("reactor");
        for _ in 0..3 {
            std::thread::scope(|s| {
                let blocked = s.spawn(|| {
                    let t = Instant::now();
                    assert!(reactor.wait(Duration::from_secs(30)).is_empty());
                    t.elapsed()
                });
                // Before or after the wait begins: either way it ends.
                reactor.interrupt();
                let waited = blocked.join().expect("waiter");
                assert!(waited < Duration::from_secs(10), "the interrupt was lost");
            });
        }
        // And with nothing written since, the next wait runs its course.
        let t = Instant::now();
        assert!(reactor.wait(Duration::from_millis(20)).is_empty());
        assert!(t.elapsed() >= Duration::from_millis(20));
    }
}

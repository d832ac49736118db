//! Forking and joining of simulated threads, in the style of the
//! multiprocessor Cthreads package the paper builds on (`cthread_fork` /
//! `cthread_join`).

use std::sync::{Arc, Mutex};

use butterfly_sim::{ctx, ProcId, SimWord, ThreadId};

/// State shared between a forked thread and its join handle.
struct JoinState<T> {
    /// Simulated completion flag, homed on the child's node: joiners poll
    /// or block on it, and pay the NUMA cost of reading it.
    done: SimWord,
    /// Host-side slot for the result value (transferred out of band; the
    /// simulated cost of result delivery is the `done` flag traffic).
    value: Mutex<Option<T>>,
    /// Threads parked in `join`, to be unparked at completion.
    waiters: Mutex<Vec<ThreadId>>,
}

/// Owner side of a forked thread; consume with [`JoinHandle::join`].
pub struct JoinHandle<T> {
    tid: ThreadId,
    state: Arc<JoinState<T>>,
}

/// Fork a simulated thread on processor `proc`, returning a handle that
/// yields the closure's result.
///
/// The spawning thread is charged the configured thread-creation cost.
pub fn fork<T, F>(proc: ProcId, name: impl Into<String>, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let state = Arc::new(JoinState {
        done: SimWord::new_on(proc.node(), 0),
        value: Mutex::new(None),
        waiters: Mutex::new(Vec::new()),
    });
    let st = Arc::clone(&state);
    let tid = ctx::spawn(proc, name, move || {
        let v = f();
        *st.value.lock().unwrap() = Some(v);
        st.done.store(1);
        let waiters = std::mem::take(&mut *st.waiters.lock().unwrap());
        for w in waiters {
            ctx::unpark(w);
        }
    });
    JoinHandle { tid, state }
}

impl<T> JoinHandle<T> {
    /// The simulated thread's id.
    pub fn thread(&self) -> ThreadId {
        self.tid
    }

    /// Whether the thread has completed (no simulated cost; a monitor-
    /// style peek).
    pub fn is_finished(&self) -> bool {
        self.state.done.peek() == 1
    }

    /// Block until the thread completes and return its result. The caller
    /// is descheduled while waiting, freeing its processor for other
    /// ready threads.
    pub fn join(self) -> T {
        loop {
            // Register before the final check so a completion racing with
            // our park is caught by the unpark permit.
            self.state.waiters.lock().unwrap().push(ctx::current());
            if self.state.done.load() == 1 {
                break;
            }
            ctx::park();
        }
        self.state
            .value
            .lock()
            .unwrap()
            .take()
            .expect("joined thread completed without a result")
    }
}

/// Fork one thread per processor in `procs` and join them all, returning
/// results in order. The paper's TSP master does exactly this with its
/// searcher threads.
pub fn fork_join_all<T, F>(procs: &[ProcId], name_prefix: &str, make: impl Fn(usize) -> F) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let handles: Vec<JoinHandle<T>> = procs
        .iter()
        .enumerate()
        .map(|(i, &p)| fork(p, format!("{name_prefix}{i}"), make(i)))
        .collect();
    handles.into_iter().map(JoinHandle::join).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use butterfly_sim::{self as sim, Duration, SimConfig};

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            processors: n,
            ..SimConfig::default()
        }
    }

    #[test]
    fn fork_and_join_returns_value() {
        let (v, _) = sim::run(cfg(2), || {
            let h = fork(ProcId(1), "child", || {
                ctx::advance(Duration::micros(100));
                7u32
            });
            h.join()
        })
        .unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn join_already_finished_thread() {
        let (v, _) = sim::run(cfg(2), || {
            let h = fork(ProcId(1), "child", || 3u8);
            ctx::advance(Duration::millis(5)); // child certainly done
            assert!(h.is_finished());
            h.join()
        })
        .unwrap();
        assert_eq!(v, 3);
    }

    #[test]
    fn joiner_frees_processor_while_waiting() {
        // Root joins a slow child on proc 1; a second thread on proc 0
        // must be able to run while root is parked in join.
        let (ran, _) = sim::run(cfg(2), || {
            let flag = sim::SimWord::new_local(0);
            let f2 = flag.clone();
            let slow = fork(ProcId(1), "slow", || {
                ctx::advance(Duration::millis(2));
            });
            fork(ProcId(0), "peer", move || {
                f2.store(1);
            });
            slow.join();
            flag.load()
        })
        .unwrap();
        assert_eq!(ran, 1, "peer on the joiner's processor never ran");
    }

    #[test]
    fn fork_join_all_collects_in_order() {
        let (vs, _) = sim::run(cfg(4), || {
            let procs: Vec<ProcId> = (0..4).map(ProcId).collect();
            fork_join_all(&procs, "w", |i| move || {
                // Finish in reverse order to prove result order is by
                // index, not completion.
                ctx::advance(Duration::micros(100 * (4 - i as u64)));
                i * 10
            })
        })
        .unwrap();
        assert_eq!(vs, vec![0, 10, 20, 30]);
    }

    #[test]
    fn many_joiners_is_an_error_free_single_consumer() {
        // JoinHandle is consumed by join(); this is a compile-time
        // property, but verify is_finished works for observers.
        let (ok, _) = sim::run(cfg(2), || {
            let h = fork(ProcId(1), "c", || ());
            let t = h.thread();
            h.join();
            t.0 > 0
        })
        .unwrap();
        assert!(ok);
    }
}

//! Prices of single calls into each layer, taken one layer at a time
//! on one thread with nothing else running. A layer that cannot be
//! seen from outside during a request is priced here with the same
//! inputs, and what remains of the request is assigned by subtraction.
//!
//! Every price is the median of [`ROUNDS`] batches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use adaptive_control::{BreakerHub, ControlPlane};
use adaptive_native::AdaptiveMutex;
use adaptive_service::ShardedStore;
use asyncx::{serve_store, AsyncAdaptiveMutex, BlockingLineClient, Runtime, StoreServerConfig};

use crate::host::{bind_current, bind_threads_of, process_cpu_ms, Echo};
use crate::util::{median, now_ns, Rng};
use crate::{tcp, Sizes};

const ROUNDS: usize = 11;

/// Median over rounds of the nanoseconds one of `batch` calls takes.
fn price(batch: usize, mut round: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = now_ns();
            round(batch);
            (now_ns() - t) as f64 / batch as f64
        })
        .collect();
    median(&per_call)
}

/// Median of `n` individually timed events, in nanoseconds.
fn each(n: usize, mut event: impl FnMut() -> u64) -> f64 {
    let ns: Vec<f64> = (0..n).map(|_| event() as f64).collect();
    median(&ns)
}

fn scaled(n: usize, sizes: &Sizes) -> usize {
    ((n as f64 * sizes.probe_scale) as usize).max(8)
}

pub fn all(sizes: &Sizes) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    host(sizes, &mut out);
    native(sizes, &mut out);
    asyncx_mutex_and_rt(sizes, &mut out);
    service_and_control(sizes, &mut out);
    net(sizes, &mut out);
    out
}

fn host(sizes: &Sizes, out: &mut Vec<(&'static str, f64)>) {
    let n = scaled(200_000, sizes);
    out.push((
        "host.clock_read_ns",
        price(n, |b| {
            (0..b).for_each(|_| {
                black_box(now_ns());
            })
        }),
    ));
    let m = std::sync::Mutex::new(0u64);
    out.push((
        "host.std_mutex_ns",
        price(n, |b| (0..b).for_each(|_| *m.lock().expect("not poisoned") += 1)),
    ));
}

fn native(sizes: &Sizes, out: &mut Vec<(&'static str, f64)>) {
    let n = scaled(200_000, sizes);
    let m = AdaptiveMutex::new(0u64);
    out.push((
        "native.lock_unlock_ns",
        price(n, |b| (0..b).for_each(|_| *m.lock() += 1)),
    ));
    out.push((
        "native.try_lock_ns",
        price(n, |b| {
            (0..b).for_each(|_| {
                if let Some(mut g) = m.try_lock() {
                    *g += 1;
                }
            })
        }),
    ));
    out.push((
        "native.with_locked_ns",
        price(n, |b| (0..b).for_each(|_| m.with_locked(|v| *v += 1))),
    ));
    out.push((
        "native.stats_ns",
        price(n / 10, |b| {
            (0..b).for_each(|_| {
                black_box(m.stats());
            })
        }),
    ));
}

fn asyncx_mutex_and_rt(sizes: &Sizes, out: &mut Vec<(&'static str, f64)>) {
    let n = scaled(50_000, sizes);
    let rt = Runtime::current_thread();
    let m = AsyncAdaptiveMutex::new(0u64);
    out.push((
        "asyncx.mutex.lock_unlock_ns",
        price(n, |b| {
            rt.block_on(async {
                for _ in 0..b {
                    *m.lock().await += 1;
                }
            })
        }),
    ));
    out.push((
        "asyncx.rt.yield_ns",
        price(n, |b| {
            rt.block_on(async {
                for _ in 0..b {
                    asyncx::yield_now().await;
                }
            })
        }),
    ));
    out.push((
        "asyncx.rt.spawn_join_ns",
        price(n / 5, |b| {
            rt.block_on(async {
                for i in 0..b {
                    black_box(asyncx::spawn(async move { i }).await);
                }
            })
        }),
    ));
    out.push((
        "asyncx.rt.block_on_ns",
        price(n / 5, |b| {
            (0..b).for_each(|i| {
                black_box(rt.block_on(async move { i }));
            })
        }),
    ));
    // The idle-connection ladder ends in a 500 us timer sleep on the
    // server's worker; how late does that timer fire?
    let worker = Runtime::multi_thread(1);
    let overshoot_ns = each(scaled(200, sizes), || {
        worker.block_on(async {
            asyncx::spawn(async {
                let t = now_ns();
                asyncx::sleep(Duration::from_micros(500)).await;
                (now_ns() - t).saturating_sub(500_000)
            })
            .await
        })
    });
    out.push(("asyncx.rt.sleep500_overshoot_us", overshoot_ns / 1e3));
}

fn service_and_control(sizes: &Sizes, out: &mut Vec<(&'static str, f64)>) {
    let n = scaled(100_000, sizes);
    let keys = sizes.store_keys as u64;
    let store = Arc::new(crate::store::preloaded(sizes.store_keys));
    let router = store.current_router();
    let mut rng = Rng::new(0, 0x9e0b);
    let stream: Vec<u64> = (0..n).map(|_| rng.below(keys)).collect();
    out.push((
        "service.router.slot_ns",
        price(n, |b| {
            stream[..b].iter().for_each(|&k| {
                black_box(router.slot(k));
            })
        }),
    ));
    out.push((
        "service.store.get_ns",
        price(n, |b| {
            stream[..b].iter().for_each(|&k| {
                black_box(store.get(k));
            })
        }),
    ));
    out.push((
        "service.store.incr_ns",
        price(n, |b| {
            stream[..b].iter().for_each(|&k| {
                black_box(store.increment(k, 1));
            })
        }),
    ));
    out.push((
        "service.store.put_ns",
        price(n, |b| {
            stream[..b].iter().for_each(|&k| {
                black_box(store.put(k, 1));
            })
        }),
    ));
    out.push((
        "service.store.total_us",
        price(1, |_| {
            black_box(store.total());
        }) / 1e3,
    ));

    // The paced server's registry: eight shard locks and one async lock.
    let hub = Arc::new(BreakerHub::default());
    let small = ShardedStore::new(Default::default());
    small.register_with_hub(Arc::clone(&hub));
    hub.register("tcp-server.stats", Arc::new(AsyncAdaptiveMutex::new(0u64)));
    let plane = ControlPlane::new(Arc::clone(&hub));
    let m = scaled(2_000, sizes);
    out.push((
        "control.execute_targets_us",
        price(m, |b| {
            (0..b).for_each(|_| {
                let _ = black_box(plane.execute("targets"));
            })
        }) / 1e3,
    ));
    out.push((
        "control.execute_health_us",
        price(m, |b| {
            (0..b).for_each(|_| {
                let _ = black_box(plane.execute("health"));
            })
        }) / 1e3,
    ));
    out.push((
        "control.snapshot_us",
        price(m / 4, |b| {
            (0..b).for_each(|_| {
                black_box(plane.snapshot());
            })
        }) / 1e3,
    ));
    out.push((
        "control.hub_poll_us",
        price(m, |b| {
            (0..b).for_each(|_| {
                black_box(hub.poll());
            })
        }) / 1e3,
    ));
}

/// The server's worker and its client share a core, as in the tcp
/// workloads (see `tcp.rs`), so that these prices are theirs.
fn net(sizes: &Sizes, out: &mut Vec<(&'static str, f64)>) {
    std::thread::scope(|s| {
        s.spawn(|| {
            bind_current(tcp::CORE);
            net_on_this_core(sizes, out);
        });
    });
}

fn net_on_this_core(sizes: &Sizes, out: &mut Vec<(&'static str, f64)>) {
    const SILENCE: Duration = Duration::from_millis(5);
    let store = Arc::new(ShardedStore::new(Default::default()));
    let server = bind_threads_of(tcp::CORE, || {
        serve_store(
            store,
            StoreServerConfig {
                workers: 1,
                ..StoreServerConfig::default()
            },
        )
        .expect("bind the probe server on loopback")
    });
    let mut a = BlockingLineClient::connect(server.addr()).expect("connect to the probe server");
    let _b = BlockingLineClient::connect(server.addr()).expect("connect to the probe server");
    let rtt = |client: &mut BlockingLineClient| {
        let t = now_ns();
        let _ = black_box(client.send("get 1"));
        now_ns() - t
    };
    out.push((
        "asyncx.net.busy_rtt_p50_us",
        each(scaled(5_000, sizes), || rtt(&mut a)) / 1e3,
    ));
    out.push((
        "asyncx.net.idle_wake_p50_us",
        each(scaled(100, sizes), || {
            std::thread::sleep(SILENCE);
            rtt(&mut a)
        }) / 1e3,
    ));
    // Two connected, silent clients: what does waiting for them cost?
    let quiet = Duration::from_secs_f64(sizes.probe_scale.max(0.05));
    let (cpu, t) = (process_cpu_ms(), now_ns());
    std::thread::sleep(quiet);
    out.push((
        "asyncx.net.idle_cpu_ms_per_s",
        (process_cpu_ms() - cpu) / ((now_ns() - t) as f64 / 1e9),
    ));
    drop(a);

    let echo = Echo::start().expect("start the loopback echo");
    let mut client = echo.connect().expect("connect to the loopback echo");
    out.push((
        "host.loopback_rtt_us",
        each(scaled(5_000, sizes), || {
            let t = now_ns();
            let _ = client.round_trip("get 1");
            now_ns() - t
        }) / 1e3,
    ));
    drop(client);
}

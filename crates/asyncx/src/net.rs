//! TCP front end for the sharded adaptive store.
//!
//! Serves [`ShardedStore`] over real TCP using the control plane's
//! line-oriented protocol (one command per line; `ok`/`err <diag>`,
//! dot-stuffed body, `.` terminator). The frame format is written and
//! read only by `adaptive_control::socket`'s codec: the server renders
//! each reply with `render_response` and writes it in one go, and
//! [`BlockingLineClient`] sends each request with `write_request` (one
//! `write`, so one loopback segment) and reads with `read_response`.
//! Connections are **tasks**, not threads: the listener and every
//! connection run on an asyncx [`Runtime`], so a thousand idle
//! connections cost a thousand parked tasks, and the store's shard
//! locks see the exact async regime the poll-vs-park adaptation tunes.
//!
//! Readiness comes from the runtime's epoll reactor (`reactor.rs`): a
//! nonblocking socket op that says `WouldBlock` parks its task until
//! the socket's next edge wakes it, so an idle connection costs no
//! wake-ups at all and a request is picked up when it arrives, not at
//! the next tick (`ready`, below).
//!
//! Commands:
//!
//! | command            | body                                   |
//! |--------------------|----------------------------------------|
//! | `get <key>`        | the value, or `none`                   |
//! | `put <key> <val>`  | the previous value, or `none`          |
//! | `incr <key> <by>`  | the new value                          |
//! | `total`            | sum of every value                     |
//! | `len`              | number of entries                      |
//! | `shards`           | current shard count                    |
//! | `stats`            | server counters, one `name value`/line |
//! | `ctl <command...>` | forwarded to the control plane         |
//! | `quit`             | closes the connection                  |
//!
//! A line that reaches `MAX_LINE` (64 KiB, shared with the Unix-socket
//! transport) without its terminator is answered `err line too long`
//! and the connection is closed.
//!
//! `ctl` is the piece that makes a mid-run retune real: an operator
//! connects over the same TCP port the data path uses and quarantines,
//! heals, or `set`s and so pins an attribute of a live shard lock while
//! gets and puts keep flowing (`a_mid_run_retune_over_tcp_loses_no_increment`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};

use adaptive_control::socket::{self, MAX_LINE};
use adaptive_control::{BreakerHub, ControlPlane};
use adaptive_service::ShardedStore;

use crate::mutex::AsyncAdaptiveMutex;
use crate::reactor::{Direction, Io};
use crate::rt::{self, Handle, Runtime};

/// How a [`serve_store`] server is built.
pub struct StoreServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`StoreServerHandle::addr`]).
    pub addr: String,
    /// Worker threads of the serving runtime.
    pub workers: usize,
    /// Control plane reachable through the `ctl` command; `None`
    /// makes `ctl` answer `err no control plane`.
    pub plane: Option<ControlPlane>,
    /// Hub to register the server's own stats lock with (as
    /// `tcp-server.stats`), so the circuit breakers supervise the
    /// async mutex alongside the shard locks.
    pub hub: Option<Arc<BreakerHub>>,
}

impl Default for StoreServerConfig {
    fn default() -> StoreServerConfig {
        StoreServerConfig { addr: "127.0.0.1:0".into(), workers: 2, plane: None, hub: None }
    }
}

/// Server-side counters, guarded by an [`AsyncAdaptiveMutex`] — the
/// server's own metadata lock is a live specimen of the lock under
/// study (every command takes it once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Commands served (any outcome).
    pub ops: u64,
    /// `get` commands.
    pub gets: u64,
    /// `put` commands.
    pub puts: u64,
    /// `incr` commands.
    pub incrs: u64,
    /// `ctl` commands forwarded to the control plane.
    pub ctls: u64,
    /// Commands answered with `err`.
    pub errors: u64,
}

/// A running TCP store server. Dropping it (or calling
/// [`StoreServerHandle::shutdown`]) stops the acceptor, drains live
/// connections briefly, and joins the runtime.
pub struct StoreServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicU32>,
    stats: Arc<AsyncAdaptiveMutex<ServerStats>>,
    runtime: Option<Runtime>,
}

impl StoreServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> u32 {
        self.active.load(Ordering::Acquire)
    }

    /// Snapshot of the server counters (taken through the async lock).
    pub fn stats(&self) -> ServerStats {
        match &self.runtime {
            Some(rt) => *rt.block_on(self.stats.lock()),
            None => ServerStats::default(),
        }
    }

    /// The server's stats lock, for registering with additional
    /// supervisors or probing its adaptation directly.
    pub fn stats_lock(&self) -> Arc<AsyncAdaptiveMutex<ServerStats>> {
        Arc::clone(&self.stats)
    }

    /// Stop accepting, wait up to `grace` for in-flight connections to
    /// drain, then join the runtime. Returns whether the drain
    /// completed (false = connections were cut off).
    pub fn shutdown(mut self, grace: Duration) -> bool {
        self.raise_stop();
        let deadline = Instant::now() + grace;
        while self.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let drained = self.active.load(Ordering::Acquire) == 0;
        self.runtime.take(); // joins the workers
        drained
    }

    /// Raise the stop flag and wake every task parked on a socket to
    /// look at it: a silent connection would otherwise wait for its
    /// peer, and the acceptor for one more client.
    fn raise_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(rt) = &self.runtime {
            rt.handle().wake_io();
        }
    }
}

impl Drop for StoreServerHandle {
    fn drop(&mut self) {
        self.raise_stop();
    }
}

/// Serve `store` over TCP on its own runtime. Returns once the
/// listener is bound; serving continues until the handle is shut down.
pub fn serve_store(
    store: Arc<ShardedStore>,
    config: StoreServerConfig,
) -> std::io::Result<StoreServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let runtime = Runtime::multi_thread(config.workers);
    let listener = runtime.handle().register(listener)?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicU32::new(0));
    let stats = Arc::new(AsyncAdaptiveMutex::new(ServerStats::default()));
    if let Some(hub) = &config.hub {
        hub.register("tcp-server.stats", stats.clone());
    }
    let shared = Arc::new(ServerShared {
        store,
        plane: config.plane,
        stop: Arc::clone(&stop),
        active: Arc::clone(&active),
        stats: Arc::clone(&stats),
    });
    runtime.handle().spawn(accept_loop(listener, shared));
    Ok(StoreServerHandle { addr, stop, active, stats, runtime: Some(runtime) })
}

/// Everything a connection task needs.
struct ServerShared {
    store: Arc<ShardedStore>,
    plane: Option<ControlPlane>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicU32>,
    stats: Arc<AsyncAdaptiveMutex<ServerStats>>,
}

async fn accept_loop(listener: Io<TcpListener>, shared: Arc<ServerShared>) {
    // Every pass calls `accept`, and only its `WouldBlock` parks: the
    // backlog is drained on every wake, as one edge may stand for many
    // connections.
    while !shared.stop.load(Ordering::SeqCst) {
        match ready(&listener, Direction::Read, &shared.stop, |l| l.accept()).await {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                shared.active.fetch_add(1, Ordering::AcqRel);
                shared.stats.lock().await.connections += 1;
                let shared2 = Arc::clone(&shared);
                rt::spawn(async move {
                    let _ = serve_connection(stream, &shared2).await;
                    shared2.active.fetch_sub(1, Ordering::AcqRel);
                });
            }
            // Out of descriptors, or the peer gave up in the backlog:
            // no edge will announce that `accept` can work again, so
            // back off and ask it.
            Err(_) => rt::sleep(Duration::from_millis(1)).await,
        }
    }
}

/// Run the nonblocking `op` on `io`'s socket, parking the task on the
/// reactor whenever it says `WouldBlock`. The waker goes in *before*
/// each attempt, so an edge that lands between the attempt and the
/// `Pending` finds it. The server's stop flag ends the wait (`raise_stop`
/// wakes every parked task after raising it), so shutdown cannot hang
/// on a silent connection.
async fn ready<S: std::os::fd::AsRawFd, T>(
    io: &Io<S>,
    direction: Direction,
    stop: &AtomicBool,
    mut op: impl FnMut(&S) -> std::io::Result<T>,
) -> std::io::Result<T> {
    std::future::poll_fn(|cx| loop {
        io.set_waker(direction, cx.waker());
        match op(io.get_ref()) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Read after the waker is in: a `stop` that this misses
                // finds the waker.
                if stop.load(Ordering::SeqCst) {
                    return Poll::Ready(Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "server shutting down",
                    )));
                }
                return Poll::Pending;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            other => return Poll::Ready(other),
        }
    })
    .await
}

/// A nonblocking stream plus its carry buffer of unconsumed bytes.
struct Conn {
    stream: Io<TcpStream>,
    /// Never longer than [`MAX_LINE`].
    carry: Vec<u8>,
    /// Prefix of `carry` already known to hold no `\n`, so each read
    /// scans only the bytes it appended.
    scanned: usize,
}

impl Conn {
    /// Registers `stream` with the current runtime's reactor.
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        let stream = Handle::current().register(stream)?;
        Ok(Conn { stream, carry: Vec::new(), scanned: 0 })
    }

    /// Read one `\n`-terminated line (without the terminator); `None`
    /// at EOF. A line that reaches [`MAX_LINE`] bytes without its
    /// terminator is an `InvalidData` error: the caller answers it and
    /// closes, since the rest of the stream cannot be re-framed.
    async fn read_line(&mut self, stop: &AtomicBool) -> std::io::Result<Option<String>> {
        loop {
            if let Some(off) = self.carry[self.scanned..].iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.carry.drain(..=self.scanned + off).collect();
                self.scanned = 0;
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            self.scanned = self.carry.len();
            if self.scanned >= MAX_LINE {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "line too long",
                ));
            }
            let mut chunk = [0u8; 4096];
            let room = chunk.len().min(MAX_LINE - self.scanned);
            let n = ready(&self.stream, Direction::Read, stop, |mut s| s.read(&mut chunk[..room]))
                .await?;
            if n == 0 {
                return Ok(None); // EOF (any carry without \n is discarded)
            }
            self.carry.extend_from_slice(&chunk[..n]);
            debug_assert!(self.carry.len() <= MAX_LINE);
        }
    }

    async fn write_all(&mut self, mut bytes: &[u8], stop: &AtomicBool) -> std::io::Result<()> {
        while !bytes.is_empty() {
            let n = ready(&self.stream, Direction::Write, stop, |mut s| s.write(bytes)).await?;
            bytes = &bytes[n..];
        }
        Ok(())
    }
}

async fn serve_connection(stream: TcpStream, shared: &ServerShared) -> std::io::Result<()> {
    let mut conn = Conn::new(stream)?;
    loop {
        let mut counted = None;
        let (response, close) = match conn.read_line(&shared.stop).await {
            Ok(Some(line)) => {
                let line = line.trim();
                if line == "quit" {
                    return Ok(());
                }
                if line.is_empty() {
                    continue;
                }
                (execute(line, shared, &mut counted).await, false)
            }
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                (Err(e.to_string()), true)
            }
            Err(e) => return Err(e),
        };
        {
            let mut s = shared.stats.lock().await;
            s.ops += 1;
            s.errors += u64::from(response.is_err());
            if let Some(counter) = counted {
                *counter(&mut s) += 1;
            }
        }
        let frame = socket::render_response(&response);
        conn.write_all(frame.as_bytes(), &shared.stop).await?;
        if close {
            return Ok(());
        }
    }
}

/// The per-command [`ServerStats`] counter a request bumps, beside
/// `ops` and `errors`.
type Counter = fn(&mut ServerStats) -> &mut u64;

/// Run one command. The counter it bumps, if any, goes in `counted`:
/// the caller bumps it with `ops` and `errors`, under one acquisition
/// of the stats lock.
async fn execute(
    line: &str,
    shared: &ServerShared,
    counted: &mut Option<Counter>,
) -> Result<String, String> {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or_default();
    let parse = |s: Option<&str>, what: &str| -> Result<u64, String> {
        s.ok_or_else(|| format!("missing {what}"))?
            .parse::<u64>()
            .map_err(|_| format!("bad {what}"))
    };
    match cmd {
        "get" => {
            let key = parse(parts.next(), "key")?;
            *counted = Some(|s| &mut s.gets);
            Ok(match shared.store.get(key) {
                Some(v) => v.to_string(),
                None => "none".into(),
            })
        }
        "put" => {
            let key = parse(parts.next(), "key")?;
            let val = parse(parts.next(), "value")?;
            *counted = Some(|s| &mut s.puts);
            Ok(match shared.store.put(key, val) {
                Some(prev) => prev.to_string(),
                None => "none".into(),
            })
        }
        "incr" => {
            let key = parse(parts.next(), "key")?;
            let by = parse(parts.next(), "by")?;
            *counted = Some(|s| &mut s.incrs);
            Ok(shared.store.increment(key, by).to_string())
        }
        "total" => Ok(shared.store.total().to_string()),
        "len" => Ok(shared.store.len().to_string()),
        "shards" => Ok(shared.store.shard_count().to_string()),
        "stats" => {
            let s = *shared.stats.lock().await;
            Ok(format!(
                "connections {}\nops {}\ngets {}\nputs {}\nincrs {}\nctls {}\nerrors {}",
                s.connections, s.ops, s.gets, s.puts, s.incrs, s.ctls, s.errors
            ))
        }
        "ctl" => {
            *counted = Some(|s| &mut s.ctls);
            let rest = line["ctl".len()..].trim();
            if rest.is_empty() {
                return Err("missing control command".into());
            }
            match &shared.plane {
                Some(plane) => plane.execute(rest),
                None => Err("no control plane".into()),
            }
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// A minimal blocking client for the TCP store protocol — the stack
/// benchmark's and tests' counterpart to `adaptive_control::SocketClient`,
/// over TCP instead of a Unix socket.
pub struct BlockingLineClient {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl BlockingLineClient {
    /// Connect to a [`StoreServerHandle::addr`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<BlockingLineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(BlockingLineClient {
            reader: std::io::BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Send one command and read the framed response: `Ok(Ok(body))`,
    /// `Ok(Err(diagnostic))`, or a transport error.
    pub fn send(&mut self, line: &str) -> std::io::Result<Result<String, String>> {
        socket::write_request(&mut self.writer, line)?;
        socket::read_response(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_control::ControlPlane;
    use adaptive_service::{ServiceConfig, ShardedStore};

    fn test_store() -> Arc<ShardedStore> {
        Arc::new(ShardedStore::new(ServiceConfig {
            initial_depth: 2,
            ..ServiceConfig::default()
        }))
    }

    #[test]
    fn tcp_round_trips_the_data_commands() {
        let store = test_store();
        let server = serve_store(store, StoreServerConfig::default()).expect("bind");
        let mut c = BlockingLineClient::connect(server.addr()).expect("connect");
        assert_eq!(c.send("get 7").unwrap().unwrap(), "none");
        assert_eq!(c.send("put 7 40").unwrap().unwrap(), "none");
        assert_eq!(c.send("incr 7 2").unwrap().unwrap(), "42");
        assert_eq!(c.send("get 7").unwrap().unwrap(), "42");
        assert_eq!(c.send("put 9 8").unwrap().unwrap(), "none");
        assert_eq!(c.send("total").unwrap().unwrap(), "50");
        assert_eq!(c.send("len").unwrap().unwrap(), "2");
        assert_eq!(c.send("shards").unwrap().unwrap(), "4");
        let err = c.send("frobnicate").unwrap();
        assert!(err.is_err());
        let stats = c.send("stats").unwrap().unwrap();
        assert!(stats.contains("gets 2"), "stats body: {stats}");
        assert!(stats.contains("errors 1"), "stats body: {stats}");
        assert!(server.shutdown(Duration::from_secs(2)));
    }

    #[test]
    fn concurrent_clients_conserve_every_increment() {
        let store = test_store();
        let server = serve_store(Arc::clone(&store), StoreServerConfig::default()).expect("bind");
        let addr = server.addr();
        let clients: u32 = 4;
        let per_client: u32 = 50;
        let threads: Vec<_> = (0..clients)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = BlockingLineClient::connect(addr).expect("connect");
                    for i in 0..per_client {
                        let key = (t * 7 + i) % 5;
                        c.send(&format!("incr {key} 1")).unwrap().unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }
        assert_eq!(store.total(), u128::from(clients * per_client), "lost increments");
        let stats = server.stats();
        assert_eq!(stats.incrs, u64::from(clients * per_client));
        assert_eq!(stats.connections, u64::from(clients));
        assert!(server.shutdown(Duration::from_secs(2)));
    }

    #[test]
    fn ctl_reaches_a_live_shard_lock_through_tcp() {
        let store = test_store();
        let hub = Arc::new(BreakerHub::default());
        store.register_with_hub(Arc::clone(&hub));
        let server = serve_store(
            Arc::clone(&store),
            StoreServerConfig {
                plane: Some(ControlPlane::new(Arc::clone(&hub))),
                hub: Some(Arc::clone(&hub)),
                ..StoreServerConfig::default()
            },
        )
        .expect("bind");
        let mut c = BlockingLineClient::connect(server.addr()).expect("connect");
        let targets = c.send("ctl targets").unwrap().unwrap();
        assert!(targets.contains("shard-0"), "targets body: {targets}");
        assert!(
            targets.contains("tcp-server.stats"),
            "server stats lock must be hub-registered: {targets}"
        );
        c.send("ctl set shard-0 spin 0").unwrap().unwrap();
        let health = c.send("ctl health shard-0").unwrap().unwrap();
        assert!(!health.is_empty());
        let err = c.send("ctl set shard-0 spin soon").unwrap();
        assert!(err.is_err(), "plane diagnostics must travel back as err frames");
        assert!(server.shutdown(Duration::from_secs(2)));
    }

    #[test]
    fn a_mid_run_retune_over_tcp_loses_no_increment() {
        // An operator connection retunes a live shard through `ctl`
        // while four clients are halfway through their increments; the
        // retune must not cost a single one.
        let store = test_store();
        let hub = Arc::new(BreakerHub::default());
        store.register_with_hub(Arc::clone(&hub));
        let server = serve_store(
            Arc::clone(&store),
            StoreServerConfig {
                plane: Some(ControlPlane::new(Arc::clone(&hub))),
                hub: Some(Arc::clone(&hub)),
                ..StoreServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.addr();
        let (clients, per_client) = (4u64, 400u64);
        let sent = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..clients)
            .map(|id| {
                let sent = Arc::clone(&sent);
                std::thread::spawn(move || {
                    let mut c = BlockingLineClient::connect(addr).expect("connect");
                    let mut errors = Vec::new();
                    for i in 0..per_client {
                        let key = (id << 32) | ((i * 31) % 512);
                        match c.send(&format!("incr {key} 1")) {
                            Ok(Ok(_)) => {}
                            other => errors.push(format!("{other:?}")),
                        }
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                    c.send("quit").ok();
                    errors
                })
            })
            .collect();

        let mut operator = BlockingLineClient::connect(addr).expect("connect operator");
        while sent.load(Ordering::Relaxed) < clients * per_client / 2 {
            std::thread::yield_now();
        }
        for cmd in [
            "ctl targets",
            "ctl set shard-0 spin 0",
            "ctl set shard-0 delay 16",
            "ctl health shard-0",
        ] {
            let reply = operator.send(cmd).expect("operator transport");
            assert!(reply.is_ok(), "`{cmd}` answered {reply:?}");
        }
        for t in threads {
            let errors = t.join().expect("client thread");
            assert!(errors.is_empty(), "client errors: {errors:?}");
        }
        let total = operator.send("total").expect("operator transport");
        assert_eq!(total, Ok((clients * per_client).to_string()), "lost increments");
        operator.send("quit").ok();
        assert!(server.shutdown(Duration::from_secs(5)), "connections did not drain");
    }

    #[test]
    fn dot_stuffed_bodies_survive_the_tcp_frame() {
        // `ctl snapshot` bodies are long and may contain arbitrary
        // lines; round-trip one through the real socket.
        let store = test_store();
        let hub = Arc::new(BreakerHub::default());
        store.register_with_hub(Arc::clone(&hub));
        let server = serve_store(
            Arc::clone(&store),
            StoreServerConfig {
                plane: Some(ControlPlane::new(Arc::clone(&hub))),
                ..StoreServerConfig::default()
            },
        )
        .expect("bind");
        let mut c = BlockingLineClient::connect(server.addr()).expect("connect");
        let snap = c.send("ctl snapshot").unwrap().unwrap();
        assert!(snap.lines().count() > 10, "multi-line body survives framing");
        assert!(server.shutdown(Duration::from_secs(2)));
    }

    /// A connected client that says nothing, once the server has
    /// accepted it and parked its task.
    fn silent_clients(server: &StoreServerHandle, n: u64) -> Vec<TcpStream> {
        let clients: Vec<_> = (0..n)
            .map(|_| TcpStream::connect(server.addr()).expect("connect"))
            .collect();
        while server.stats().connections < n {
            std::thread::sleep(Duration::from_millis(1));
        }
        clients
    }

    fn runtime_of(server: &StoreServerHandle) -> rt::Handle {
        server.runtime.as_ref().expect("running").handle()
    }

    #[test]
    fn one_edge_for_two_connections_gets_both_served() {
        let config = StoreServerConfig { workers: 1, ..StoreServerConfig::default() };
        let server = serve_store(test_store(), config).expect("bind");
        // Hold the only worker while both connections land in the
        // backlog: the parked acceptor then gets one wake for the two.
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (holding, is_held) = std::sync::mpsc::channel::<()>();
        runtime_of(&server).spawn(async move {
            holding.send(()).expect("test thread");
            held.recv().expect("test thread");
        });
        is_held.recv().expect("worker");
        let mut clients: Vec<_> = (0..2)
            .map(|_| BlockingLineClient::connect(server.addr()).expect("connect"))
            .collect();
        release.send(()).expect("worker");
        for (i, c) in clients.iter_mut().enumerate() {
            c.writer
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let reply = c.send("incr 3 1").expect("left in the backlog");
            assert_eq!(reply, Ok((i + 1).to_string()));
        }
        assert!(server.shutdown(Duration::from_secs(2)));
    }

    #[test]
    fn shutdown_and_drop_wake_connections_parked_in_the_reactor() {
        let server = serve_store(test_store(), StoreServerConfig::default()).expect("bind");
        let clients = silent_clients(&server, 4);
        let t = Instant::now();
        assert!(server.shutdown(Duration::from_secs(2)), "parked connections did not drain");
        assert!(t.elapsed() < Duration::from_secs(1), "drained by the grace period, not the wake");
        drop(clients);

        // Without `shutdown`: dropping the handle joins the workers and
        // closes the server's end of every connection.
        let server = serve_store(test_store(), StoreServerConfig::default()).expect("bind");
        let mut clients = silent_clients(&server, 4);
        drop(server);
        for c in &mut clients {
            c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            assert_eq!(c.read(&mut [0u8; 8]).expect("EOF, not a timeout"), 0);
        }
    }

    #[test]
    fn silent_clients_cost_no_wakeups() {
        let server = serve_store(test_store(), StoreServerConfig::default()).expect("bind");
        let _clients = silent_clients(&server, 8);
        let rt = runtime_of(&server);
        std::thread::sleep(Duration::from_millis(20)); // `stats()` above was the last task to run
        let (before, t) = (rt.stats(), Instant::now());
        std::thread::sleep(Duration::from_millis(300));
        let (after, ticks) = (rt.stats(), t.elapsed().as_millis() as u64 / 50 + 1);
        assert_eq!(after.polls, before.polls, "a task ran with nothing to do");
        assert_eq!(after.io_events, before.io_events);
        assert_eq!(after.timer_fires, before.timer_fires);
        let parks = after.driver_parks - before.driver_parks;
        assert!(parks <= ticks, "{parks} parks in {ticks} housekeeping ticks");
        assert!(server.shutdown(Duration::from_secs(2)));
    }

    #[test]
    fn a_reply_the_socket_cannot_take_parks_on_write_readiness() {
        use std::io::BufRead;
        let store = test_store();
        let hub = Arc::new(BreakerHub::default());
        store.register_with_hub(Arc::clone(&hub));
        let config = StoreServerConfig {
            plane: Some(ControlPlane::new(hub)),
            ..StoreServerConfig::default()
        };
        let server = serve_store(store, config).expect("bind");
        let mut c = TcpStream::connect(server.addr()).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        c.set_write_timeout(Some(Duration::from_secs(10))).expect("timeout");

        // Pipeline requests and read nothing, until the server stops
        // getting through them: its `write` said `WouldBlock`, and the
        // connection's task is parked until this end drains.
        let mut sent = 0u64;
        let stuck_at = loop {
            assert!(sent < 100_000, "the socket buffers never filled");
            for _ in 0..50 {
                c.write_all(b"ctl snapshot\nincr 1 1\n").expect("write");
                sent += 2;
            }
            let ops = server.stats().ops;
            std::thread::sleep(Duration::from_millis(20));
            if ops < sent && server.stats().ops == ops {
                break ops;
            }
        };

        // Every frame arrives whole and in order: the `incr`s count up.
        let mut reader = std::io::BufReader::new(c);
        let mut frame = || {
            let mut lines = Vec::new();
            loop {
                let mut l = String::new();
                assert!(reader.read_line(&mut l).expect("reply") > 0, "closed mid-frame");
                if l == ".\n" {
                    return lines;
                }
                lines.push(l);
            }
        };
        for i in 1..=sent / 2 {
            let snapshot = frame();
            assert_eq!(snapshot[0], "ok\n");
            assert!(snapshot.len() > 10 && snapshot.iter().all(|l| l.ends_with('\n')));
            assert_eq!(frame(), ["ok\n".to_string(), format!("{i}\n")]);
        }
        let stats = server.stats();
        assert!(stuck_at < stats.ops, "nothing was left to serve when the client began to read");
        assert_eq!((stats.ops, stats.errors), (sent, 0));
        assert!(server.shutdown(Duration::from_secs(2)));
    }

    #[test]
    fn a_task_that_yields_in_a_loop_does_not_starve_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        // On the current-thread flavor the root below never lets the
        // thread go idle, so nobody ever blocks in the reactor.
        let line = Runtime::current_thread().block_on(async move {
            let reader = rt::spawn(async move {
                let stop = AtomicBool::new(false);
                Conn::new(stream).expect("register").read_line(&stop).await
            });
            rt::yield_now().await; // the reader parks
            peer.write_all(b"hello\n").expect("write");
            let t = Instant::now();
            while !reader.is_finished() {
                assert!(t.elapsed() < Duration::from_secs(10), "the reader was never woken");
                rt::yield_now().await;
            }
            reader.await
        });
        assert_eq!(line.expect("read").as_deref(), Some("hello"));
    }

    /// Stream `len` bytes with no newline, ignoring the error: a server
    /// that has refused the line closes mid-stream and the rest of the
    /// write fails.
    fn stream_without_newline(stream: &mut TcpStream, len: usize) {
        let _ = stream.write_all(&vec![b'x'; len]);
    }

    #[test]
    fn newline_free_stream_is_cut_off_at_the_line_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            stream_without_newline(&mut c, 1 << 20);
        });
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        let stop = AtomicBool::new(false);
        let rt = Runtime::current_thread();
        // Inside `block_on`: registration needs a current runtime.
        let (conn, err) = rt.block_on(async {
            let mut conn = Conn::new(stream).expect("register");
            let err = conn.read_line(&stop).await;
            (conn, err)
        });
        let err = err.expect_err("1 MiB without a newline must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // `read_line` debug-asserts the bound after every read; this is
        // where it stopped.
        assert_eq!(conn.carry.len(), MAX_LINE, "buffered past (or refused before) the cap");
        drop(conn);
        client.join().expect("client thread");
    }

    #[test]
    fn oversized_line_gets_an_error_frame_and_a_closed_connection() {
        use std::io::BufRead;
        let server = serve_store(test_store(), StoreServerConfig::default()).expect("bind");
        let timeout = Some(Duration::from_secs(10));

        // Exactly the cap, so the server has read everything we sent
        // and its close is a clean FIN: the reply is deterministic.
        let mut c = TcpStream::connect(server.addr()).expect("connect");
        c.set_read_timeout(timeout).expect("timeout");
        stream_without_newline(&mut c, MAX_LINE);
        let mut reply = String::new();
        let mut reader = std::io::BufReader::new(c);
        while reader.read_line(&mut reply).expect("reply or EOF, not a timeout") > 0 {}
        assert_eq!(reply, "err line too long\n.\n");

        // 1 MiB: the server closes with our bytes still in flight, so
        // the reply may be lost to a reset — but the connection must
        // end (not hang buffering), and nothing else may come back.
        let mut c = TcpStream::connect(server.addr()).expect("connect");
        c.set_read_timeout(timeout).expect("timeout");
        stream_without_newline(&mut c, 1 << 20);
        let mut reply = Vec::new();
        match c.read_to_end(&mut reply) {
            Ok(_) => {}
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ),
                "connection still open after 1 MiB without a newline: {e}"
            ),
        }
        assert!(b"err line too long\n.\n".starts_with(&reply), "unexpected reply {reply:?}");

        // The server itself is unharmed.
        let mut ok = BlockingLineClient::connect(server.addr()).expect("connect");
        assert_eq!(ok.send("incr 1 1").unwrap().unwrap(), "1");
        assert_eq!(server.stats().errors, 2);
        assert!(server.shutdown(Duration::from_secs(2)));
    }

    #[test]
    fn a_command_split_across_partial_writes_is_still_served() {
        use std::io::BufRead;
        let server = serve_store(test_store(), StoreServerConfig::default()).expect("bind");
        let mut c = TcpStream::connect(server.addr()).expect("connect");
        c.set_nodelay(true).expect("nodelay");
        c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut reader = std::io::BufReader::new(c.try_clone().expect("clone"));
        let frame = |reader: &mut std::io::BufReader<TcpStream>| {
            let mut lines = Vec::new();
            loop {
                let mut l = String::new();
                assert!(reader.read_line(&mut l).expect("reply") > 0, "closed mid-frame");
                if l == ".\n" {
                    return lines.concat();
                }
                lines.push(l);
            }
        };
        // The newline arrives two reads after the command starts, so it
        // is found past the already-scanned prefix of the carry.
        for part in ["in", "cr 7 ", "2\n"] {
            c.write_all(part.as_bytes()).expect("write");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(frame(&mut reader), "ok\n2\n");
        // And two commands in one segment: the second is found in what
        // the first left behind.
        c.write_all(b"incr 7 3\nget 7\n").expect("write");
        assert_eq!(frame(&mut reader), "ok\n5\n");
        assert_eq!(frame(&mut reader), "ok\n5\n");
        assert!(server.shutdown(Duration::from_secs(2)));
    }
}

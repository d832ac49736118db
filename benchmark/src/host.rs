//! Facts about the host a run was made on, the process's own CPU time,
//! and a plain loopback echo to compare the store server with.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

pub fn nproc() -> usize {
    cores().len()
}

pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The cores this process may run on, as the kernel numbers them; read
/// once, before any thread is bound.
fn cores() -> &'static [usize] {
    static CORES: OnceLock<Vec<usize>> = OnceLock::new();
    CORES.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into `mask`.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
        let cores: Vec<usize> = (0..64 * mask.len())
            .filter(|c| ok && mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if cores.is_empty() {
            vec![0]
        } else {
            cores
        }
    })
}

/// Bind thread `tid` (0 is the caller) to the `nth` core of this
/// process, counting round. Which core a thread wakes on is otherwise
/// the kernel's choice from run to run, and with two cores that choice
/// is most of the difference between two runs: two threads that share
/// a line run faster stacked on one core than apart, and a blocked
/// reader wakes sooner on the writer's core than on an idle one.
fn bind(tid: i32, nth: usize) {
    let cores = cores();
    let core = cores[nth % cores.len()];
    let mut mask = [0u64; 16];
    mask[core / 64] = 1 << (core % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`.
    // A refusal (a sandbox without the call) leaves the thread unbound.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Bind the calling thread to the `nth` core; see [`bind`].
pub fn bind_current(nth: usize) {
    bind(0, nth);
}

fn thread_ids() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Run `start` and bind the threads it leaves running to the `nth`
/// core: how the workers of a runtime the benchmark does not spawn
/// itself are placed.
pub fn bind_threads_of<T>(nth: usize, start: impl FnOnce() -> T) -> T {
    let before = thread_ids();
    let out = start();
    for tid in thread_ids() {
        if !before.contains(&tid) {
            bind(tid, nth);
        }
    }
    out
}

/// One line recorded at the head of every report.
pub fn facts() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = first_line_of("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "none".into());
    let n = nproc();
    format!(
        "host: nproc {n}{}, cpu \"{cpu}\", {rustc}, git {rev}, load1 {:.2}",
        if n < 2 {
            " (oversubscribed: every contended figure is time-slicing)"
        } else {
            ""
        },
        load1()
    )
}

/// User plus system CPU time of this process, all threads, in
/// milliseconds (`/proc/self/stat`, 10 ms ticks).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| f.get(i).and_then(|v| v.parse::<u64>().ok()))
        .sum();
    ticks as f64 * 10.0
}

/// A plain `std::net` line echo on loopback: what a request/reply of
/// the same size costs on this host with no `asyncx` in the way.
pub struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Echo {
    pub fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                conns.push(std::thread::spawn(move || {
                    let _ = stream.set_nodelay(true);
                    let Ok(mut writer) = stream.try_clone() else {
                        return;
                    };
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    // Ends at the client's EOF.
                    while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                        if writer.write_all(line.as_bytes()).is_err() {
                            return;
                        }
                        line.clear();
                    }
                }));
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Echo {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    pub fn connect(&self) -> std::io::Result<EchoClient> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(EchoClient {
            reader,
            writer: stream,
            reply: String::new(),
        })
    }
}

impl Drop for Echo {
    /// Every [`EchoClient`] must be gone by now, or the join waits for it.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // wake the acceptor
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }
}

pub struct EchoClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl EchoClient {
    /// Send `line` and wait for it to come back.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.reply.clear();
        self.reader.read_line(&mut self.reply)?;
        Ok(())
    }
}

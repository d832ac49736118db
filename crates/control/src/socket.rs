//! Line-oriented local-socket transport for the control plane, and the
//! frame codec every line transport shares.
//!
//! A Unix-domain stream socket an operator can drive with `nc -U` (or
//! any line client). Protocol, chosen for copy-paste ergonomics over a
//! terminal:
//!
//! * client sends one command per line;
//! * server replies with `ok` or `err <diagnostic>`, then the response
//!   body (possibly multi-line), then a single `.` terminator line —
//!   SMTP-style, so multi-line bodies like `snapshot` need no length
//!   prefix (body lines starting with `.` are dot-stuffed);
//! * a line that reaches [`MAX_LINE`] bytes without its terminator is
//!   answered `err line too long` and the connection is closed;
//! * `quit` closes the connection.
//!
//! The format is written and read only by the codec below, which the
//! TCP store server and its client (`asyncx::net`) share. Each message
//! goes out in one `write_all`, so one segment on an unbuffered socket.
//!
//! Each connection is served by its own thread; the listener thread
//! accepts until the [`SocketServer`] handle is dropped (which unblocks
//! the accept loop by connecting to itself).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::plane::ControlPlane;

/// Longest command line a server accepts, terminator included. The
/// longest well-formed command (a store `put` with two 20-digit
/// numbers) is under 50 bytes and control commands are short operator
/// lines, so 64 KiB is a bound on what a connection may make a server
/// buffer, not a limit any real client meets.
pub const MAX_LINE: usize = 64 * 1024;

/// Send `line` as one request: the line and its `\n` in one
/// `write_all`, so an unbuffered socket sends it as one segment.
pub fn write_request(w: &mut impl Write, line: &str) -> io::Result<()> {
    w.write_all(&[line.as_bytes(), b"\n"].concat())
}

/// Render a response as one frame: `ok`, the body with every line that
/// starts with `.` stuffed with one more, and the `.` terminator; or
/// `err <diagnostic>` and the terminator. A body's one trailing newline
/// is not carried, and neither may contain `\r`.
pub fn render_response(response: &Result<String, String>) -> String {
    let mut frame = String::new();
    match response {
        Ok(body) => {
            frame.push_str("ok\n");
            for line in body.lines() {
                if line.starts_with('.') {
                    frame.push('.');
                }
                frame.push_str(line);
                frame.push('\n');
            }
        }
        Err(e) => {
            frame.push_str("err ");
            frame.push_str(e);
            frame.push('\n');
        }
    }
    frame.push_str(".\n");
    frame
}

/// Read one frame: `Ok(Ok(body))`, `Ok(Err(diagnostic))`, or a
/// transport error — `UnexpectedEof` if the stream ends before the
/// terminator, `InvalidData` for a status line that is neither `ok` nor
/// `err …`.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Result<String, String>> {
    let eof = |what| io::Error::new(io::ErrorKind::UnexpectedEof, what);
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(eof("server closed the connection"));
    }
    let status = line.trim_end_matches(['\n', '\r']);
    let outcome = if status == "ok" {
        Ok(())
    } else if let Some(e) = status.strip_prefix("err ") {
        Err(e.to_string())
    } else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad status line {status:?}"),
        ));
    };
    // Error frames still end with the `.` terminator.
    let mut body = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(eof("truncated response frame"));
        }
        let l = line.strip_suffix('\n').unwrap_or(&line);
        if l == "." {
            break;
        }
        // Undo dot-stuffing (the bare `.` terminator is handled above).
        body.push_str(l.strip_prefix('.').unwrap_or(l));
        body.push('\n');
    }
    body.pop(); // the last line's `\n`, if there was a line
    Ok(outcome.map(|()| body))
}

/// A running control-plane socket server.
pub struct SocketServer {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SocketServer {
    /// Bind `path` (removing any stale socket file first) and serve
    /// `plane` on a background accept loop.
    pub fn bind(path: impl AsRef<Path>, plane: ControlPlane) -> std::io::Result<SocketServer> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                let Ok(read_half) = conn.try_clone() else {
                    continue;
                };
                let plane = plane.clone();
                std::thread::spawn(move || serve_connection(read_half, conn, &plane));
            }
        });
        Ok(SocketServer {
            path,
            stop,
            thread: Some(thread),
        })
    }

    /// The socket path being served.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection, then join.
        let _ = UnixStream::connect(&self.path);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

fn serve_connection(input: impl Read, mut output: impl Write, plane: &ControlPlane) {
    let mut reader = BufReader::new(input);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match (&mut reader)
            .take(MAX_LINE as u64)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => return,
            Ok(_) if buf.last() == Some(&b'\n') => {}
            // The cap, reached without a terminator: the rest of the
            // stream cannot be re-framed, so answer and close.
            Ok(n) if n == MAX_LINE => {
                let frame = render_response(&Err("line too long".into()));
                let _ = output.write_all(frame.as_bytes());
                return;
            }
            Ok(_) => return, // EOF mid-line
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line == "quit" {
            return;
        }
        let frame = render_response(&plane.execute(line));
        if output.write_all(frame.as_bytes()).is_err() {
            return;
        }
    }
}

/// A minimal blocking client for the socket protocol (used by tests,
/// the soak harness's command driver, and scripts).
pub struct SocketClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl SocketClient {
    /// Connect to a [`SocketServer`].
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<SocketClient> {
        let stream = UnixStream::connect(path)?;
        let read_half = stream.try_clone()?;
        Ok(SocketClient {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Send one command and read the framed response.
    pub fn send(&mut self, line: &str) -> std::io::Result<Result<String, String>> {
        write_request(&mut self.writer, line)?;
        read_response(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::BreakerHub;
    use adaptive_native::AdaptiveMutex;
    use proptest::prelude::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn temp_socket(tag: &str) -> PathBuf {
        let pid = std::process::id();
        std::env::temp_dir().join(format!("adaptive-control-{tag}-{pid}.sock"))
    }

    /// A writer that keeps what each `write` call carried.
    #[derive(Default)]
    struct Writes(Vec<String>);

    impl Write for Writes {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(String::from_utf8_lossy(bytes).into_owned());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_is_one_write() {
        let mut w = Writes::default();
        write_request(&mut w, "incr 7 1").expect("write");
        assert_eq!(w.0, ["incr 7 1\n"]);
    }

    #[test]
    fn the_server_writes_each_frame_with_one_write() {
        let hub = Arc::new(BreakerHub::default());
        hub.register("net.lock", Arc::new(AdaptiveMutex::new(0u32)));
        hub.register("disk.lock", Arc::new(AdaptiveMutex::new(0u32)));
        let mut w = Writes::default();
        let requests = b"targets\nset net.lock spin soon\nsnapshot\n";
        serve_connection(&requests[..], &mut w, &ControlPlane::new(hub));
        assert_eq!(w.0.len(), 3, "writes: {:?}", w.0);
        assert_eq!(w.0[0], "ok\ndisk.lock\nnet.lock\n.\n");
        assert!(
            w.0[1].starts_with("err ") && w.0[1].ends_with("\n.\n"),
            "{:?}",
            w.0[1]
        );
        assert!(w.0[2].starts_with("ok\n") && w.0[2].lines().count() > 10);
        for frame in &w.0 {
            let decoded = read_response(&mut frame.as_bytes()).expect("one whole frame");
            assert_eq!(decoded.is_ok(), frame.starts_with("ok\n"));
        }
    }

    #[test]
    fn frames_that_end_early_or_open_badly_are_transport_errors() {
        let kind = |bytes: &[u8]| read_response(&mut &bytes[..]).expect_err("refused").kind();
        assert_eq!(kind(b""), io::ErrorKind::UnexpectedEof);
        assert_eq!(kind(b"ok\n7\n"), io::ErrorKind::UnexpectedEof);
        assert_eq!(kind(b"err gone\n"), io::ErrorKind::UnexpectedEof);
        assert_eq!(kind(b"hello\n.\n"), io::ErrorKind::InvalidData);
    }

    /// Text over `.`, `a` and space: leading-dot lines, bare `.` lines
    /// and empty lines all come up.
    fn text(picks: &[u8]) -> String {
        picks
            .iter()
            .map(|&p| ['.', 'a', ' '][usize::from(p)])
            .collect()
    }

    proptest! {
        #[test]
        fn rendered_frames_read_back_to_what_was_sent(
            lines in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..4), 0..6),
            diagnostic in proptest::collection::vec(0u8..3, 0..6),
        ) {
            let body = lines.iter().map(|l| text(l)).collect::<Vec<_>>().join("\n");
            let mut reader = io::Cursor::new(Vec::new());
            let sent = [Ok(body), Err(text(&diagnostic)), Ok(String::new())];
            for response in &sent {
                reader.get_mut().extend_from_slice(render_response(response).as_bytes());
            }
            for response in &sent {
                let expected = response.clone().map(|body| match body.strip_suffix('\n') {
                    Some(b) => b.to_string(),
                    None => body,
                });
                prop_assert_eq!(read_response(&mut reader).expect("frame"), expected);
            }
            prop_assert_eq!(reader.position() as usize, reader.get_ref().len());
        }
    }

    #[test]
    fn socket_round_trips_commands_and_multiline_bodies() {
        let hub = Arc::new(BreakerHub::default());
        let m = Arc::new(AdaptiveMutex::new(0u32));
        hub.register("net.lock", m.clone());
        hub.register("disk.lock", Arc::new(AdaptiveMutex::new(0u32)));
        let server =
            SocketServer::bind(temp_socket("rt"), ControlPlane::new(hub)).expect("bind");

        let mut client = SocketClient::connect(server.path()).expect("connect");
        assert_eq!(
            client.send("targets").unwrap().unwrap(),
            "disk.lock\nnet.lock"
        );
        let snap = client.send("snapshot").unwrap().unwrap();
        assert!(snap.lines().count() > 10, "multi-line body survives framing");
        assert!(snap.contains("breaker_state{lock=\"net.lock\"} 0"));
        client.send("quarantine net.lock").unwrap().unwrap();
        assert!(m.is_quarantined(), "command reached the live lock");
        let err = client.send("set net.lock spin soon").unwrap();
        assert!(err.is_err());
        // A second concurrent client works (per-connection threads).
        let mut c2 = SocketClient::connect(server.path()).expect("connect 2");
        assert!(c2.send("health net.lock").unwrap().unwrap().contains("quarantined"));
        drop(server);
    }

    #[test]
    fn server_drop_removes_the_socket_file() {
        let path = temp_socket("rm");
        let server =
            SocketServer::bind(&path, ControlPlane::new(Arc::new(BreakerHub::default())))
                .expect("bind");
        assert!(path.exists());
        drop(server);
        assert!(!path.exists());
    }

    #[test]
    fn oversized_line_gets_an_error_frame_and_a_closed_connection() {
        let plane = ControlPlane::new(Arc::new(BreakerHub::default()));
        let server = SocketServer::bind(temp_socket("cap"), plane).expect("bind");
        let timeout = Some(Duration::from_secs(10));

        // Exactly the cap, so the server has read everything we sent
        // and the reply is deterministic.
        let mut c = UnixStream::connect(server.path()).expect("connect");
        c.set_read_timeout(timeout).expect("timeout");
        c.write_all(&vec![b'x'; MAX_LINE]).expect("write");
        let mut reply = String::new();
        c.read_to_string(&mut reply)
            .expect("reply and EOF, not a timeout");
        assert_eq!(reply, "err line too long\n.\n");

        // 1 MiB: the server closes with our bytes unread, so the write
        // fails and the reply may be lost to a reset — but the
        // connection must end (not buffer without limit), and nothing
        // else may come back.
        let mut c = UnixStream::connect(server.path()).expect("connect");
        c.set_read_timeout(timeout).expect("timeout");
        c.set_write_timeout(timeout).expect("timeout");
        let _ = c.write_all(&vec![b'x'; 1 << 20]);
        let mut reply = Vec::new();
        match c.read_to_end(&mut reply) {
            Ok(_) => {}
            Err(e) => assert_eq!(
                e.kind(),
                io::ErrorKind::ConnectionReset,
                "connection still open after 1 MiB without a newline: {e}"
            ),
        }
        assert!(
            b"err line too long\n.\n".starts_with(&reply),
            "unexpected reply {reply:?}"
        );

        // The server itself is unharmed.
        let mut ok = SocketClient::connect(server.path()).expect("connect");
        assert_eq!(
            ok.send("targets").unwrap().unwrap(),
            "(no targets registered)"
        );
        drop(server);
    }
}

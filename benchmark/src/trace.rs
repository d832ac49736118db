//! Spans around the calls the benchmark makes into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}`. Each
//! generator thread owns one pre-sized buffer, so recording a span is a
//! bounds check and a store; the buffers are written out as JSON lines
//! when the run ends. A layer's self time is its span's duration minus
//! what its child spans cover.

use std::io::Write;
use std::path::PathBuf;

/// Spans one thread may record; later ones are counted as dropped so
/// that a long run cannot grow the buffer inside the timed region.
const SPANS_PER_THREAD: usize = 1 << 16;

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
}

pub struct SpanBuf {
    pub on: bool,
    spans: Vec<Span>,
    pub dropped: u64,
}

/// Handle of an open root span; `None` inside when the buffer is full.
#[derive(Clone, Copy)]
pub struct Root(Option<u32>, u64);

impl SpanBuf {
    pub fn new(on: bool) -> SpanBuf {
        SpanBuf {
            on,
            spans: Vec::with_capacity(if on { SPANS_PER_THREAD } else { 0 }),
            dropped: 0,
        }
    }

    fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() == SPANS_PER_THREAD {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Open the span of one request; children attach to the handle.
    pub fn open(&mut self, name: &'static str, start_ns: u64, request_id: u64) -> Root {
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            request_id,
        };
        Root(self.push(span), request_id)
    }

    pub fn child(&mut self, root: Root, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Root(Some(parent), request_id) = root {
            self.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request_id,
            });
        }
    }

    pub fn close(&mut self, root: Root, end_ns: u64) {
        if let Root(Some(idx), _) = root {
            self.spans[idx as usize].end_ns = end_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Where trace files go: the benchmark's own (git-ignored) target
/// directory, inside the checkout it was built in.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("trace-{workload}.jsonl"))
}

/// One JSON object per span; `id` and `parent` are `<thread>.<index>`.
pub fn write(workload: &str, bufs: &[SpanBuf]) -> std::io::Result<PathBuf> {
    let path = trace_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (thread, buf) in bufs.iter().enumerate() {
        for (idx, s) in buf.spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => format!("\"{thread}.{p}\""),
            };
            writeln!(
                out,
                "{{\"id\":\"{thread}.{idx}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
    }
    out.flush()?;
    Ok(path)
}

/// Per span name: count, total duration and self time (duration minus
/// the children's), over every buffer.
pub fn self_times(bufs: &[SpanBuf]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut rows: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for buf in bufs {
        let mut child_ns = vec![0u64; buf.spans.len()];
        for s in &buf.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in buf.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += dur;
            row.2 += dur.saturating_sub(covered);
        }
    }
    rows.into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect()
}

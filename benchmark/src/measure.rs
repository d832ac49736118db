//! What every workload records while it runs, and how a run's
//! end-to-end figures are taken from it.
//!
//! The timed region is cut into [`SLICES`] equal slices and every
//! figure is the median slice's, so that a host stall moves the slices
//! it falls in and not the figure. Latency samples are raw `u32`
//! nanoseconds, kept per thread and slice; a slice's percentile is
//! exact (sorted raw samples).

use crate::trace::SpanBuf;
use crate::util::{median, now_ns, percentile, quartiles};

pub const SLICES: usize = 40;

/// Shared by every generator thread of a run.
#[derive(Clone, Copy)]
pub struct Timeline {
    pub start_ns: u64,
    pub slice_ns: u64,
}

impl Timeline {
    /// A timed region of `seconds`, starting shortly from now so that
    /// every thread can be at its mark first.
    pub fn starting_soon(seconds: f64) -> Timeline {
        const LEAD_NS: u64 = 20_000_000;
        Timeline {
            start_ns: now_ns() + LEAD_NS,
            slice_ns: (seconds * 1e9) as u64 / SLICES as u64,
        }
    }

    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.slice_ns * SLICES as u64
    }

    /// The slice `t_ns` falls in; `None` once the region is over.
    #[inline]
    pub fn slice_of(&self, t_ns: u64) -> Option<usize> {
        let s = (t_ns.saturating_sub(self.start_ns) / self.slice_ns) as usize;
        (s < SLICES).then_some(s)
    }

    pub fn wait_for_start(&self) {
        crate::util::wait_until(self.start_ns);
    }
}

/// One generator thread's record of a run.
pub struct Log {
    pub slice_ops: [u64; SLICES],
    pub samples: [Vec<u32>; SLICES],
    pub ops: u64,
    pub failed: u64,
    pub spans: SpanBuf,
}

impl Log {
    /// `samples_hint` pre-sizes the sample vectors so that the timed
    /// region does not allocate.
    pub fn new(trace: bool, samples_hint: usize) -> Log {
        Log {
            slice_ops: [0; SLICES],
            samples: std::array::from_fn(|_| Vec::with_capacity(samples_hint / SLICES + 1)),
            ops: 0,
            failed: 0,
            spans: SpanBuf::new(trace),
        }
    }

    /// Credit `ops` operations, the last of which ended at `end_ns`
    /// and took `sample_ns`. Returns false once the region is over.
    #[inline]
    pub fn record(&mut self, tl: &Timeline, end_ns: u64, ops: u64, sample_ns: u64) -> bool {
        let Some(slice) = tl.slice_of(end_ns) else {
            return false;
        };
        self.ops += ops;
        self.slice_ops[slice] += ops;
        self.samples[slice].push(sample_ns.min(u64::from(u32::MAX)) as u32);
        true
    }
}

/// A run's end-to-end figures and whatever per-layer counters the
/// workload read at the same boundaries.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Set when the generator, not the program, spoiled the run.
    pub invalid: Option<String>,
    /// First quartile, median, third quartile over slices.
    pub ops_per_s: (f64, f64, f64),
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    pub layer: Vec<(&'static str, f64)>,
    pub spans: Vec<SpanBuf>,
}

/// Fold the threads' logs. `ns_per_sample_unit` converts a stored
/// sample to nanoseconds per operation (1 unless a sample spans a
/// burst of operations).
pub fn summarise(logs: Vec<Log>, tl: &Timeline, ns_per_sample_unit: f64) -> Measured {
    let slice_s = tl.slice_ns as f64 / 1e9;
    // The first slice absorbs thread start-up and cold caches.
    let rates: Vec<f64> = (1..SLICES)
        .map(|s| logs.iter().map(|l| l.slice_ops[s]).sum::<u64>() as f64 / slice_s)
        .collect();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut samples = 0;
    for slice in 1..SLICES {
        let mut all: Vec<u32> = logs.iter().flat_map(|l| l.samples[slice].iter().copied()).collect();
        if all.is_empty() {
            continue;
        }
        all.sort_unstable();
        samples += all.len();
        p50s.push(percentile(&all, 0.50) * ns_per_sample_unit / 1e3);
        p99s.push(percentile(&all, 0.99) * ns_per_sample_unit / 1e3);
    }
    Measured {
        attempted: logs.iter().map(|l| l.ops).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        invalid: None,
        ops_per_s: quartiles(&rates),
        p50_us: median(&p50s),
        p99_us: median(&p99s),
        samples,
        layer: Vec::new(),
        spans: logs.into_iter().map(|l| l.spans).collect(),
    }
}

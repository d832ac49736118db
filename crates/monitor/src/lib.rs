//! # thread-monitor
//!
//! The monitoring substrate of the adaptive-objects paper: a
//! general-purpose thread monitor in the style of \[GS93\] with
//! insertable sensors/probes, bounded per-thread trace buffers, a
//! loosely-coupled *local monitor* thread with central aggregation, and
//! the time-series capture used for the paper's locking-pattern figures
//! (Figures 4–9).
//!
//! The closely-coupled "customized lock monitor" the adaptive lock uses
//! lives inside `adaptive-locks` (inline sampling from the unlocking
//! thread); this crate provides the general machinery and the tools to
//! compare both couplings (delivery-lag accounting in
//! [`SensorSummary::mean_lag_nanos`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod central;
mod chrome;
mod local;
mod snapshot;
mod timeseries;
mod trace;

pub use central::{spawn_pipeline, CentralReport, ForwardingMonitor, SummaryBatch};
pub use chrome::ChromeTrace;
pub use local::{spawn_local_monitor, MonitorReport, Probe, ProbePort, SensorSummary};
pub use snapshot::TextSnapshot;
pub use timeseries::{to_long_csv, Series};
pub use trace::{TraceBuffer, TraceEvent};

use adaptive_locks::{Lock, PatternSample};

/// Convert a lock's pattern trace (one sample per unlock) into a named
/// [`Series`] — the exact data behind the paper's Figures 4–9.
pub fn pattern_series(name: impl Into<String>, samples: &[PatternSample]) -> Series {
    Series::from_points(
        name,
        samples
            .iter()
            .map(|s| (s.at.as_nanos(), s.waiting as f64))
            .collect(),
    )
}

/// Drain a lock's trace into a series directly.
pub fn take_pattern_series(name: impl Into<String>, lock: &dyn Lock) -> Series {
    pattern_series(name, &lock.take_trace())
}

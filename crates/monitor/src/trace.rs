//! Trace events: the datum a probe sends to the local monitor.
//!
//! The general-purpose thread monitor \[GS93\] lets users insert data
//! collecting *sensors* and *probes* into an application. Application
//! threads send [`TraceEvent`]s, stamped with the virtual time of the
//! observation, to a monitor thread, which measures how late each one
//! arrives.

use butterfly_sim::{ctx, ThreadId, VirtualTime};
use serde::Serialize;

/// One monitored datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    /// Virtual-time nanoseconds of the observation.
    pub at_nanos: u64,
    /// Observing thread.
    #[serde(skip)]
    pub thread: ThreadId,
    /// Sensor name.
    pub sensor: &'static str,
    /// Observed value.
    pub value: i64,
}

impl TraceEvent {
    /// Capture an event now, from inside a simulated thread.
    pub fn now(sensor: &'static str, value: i64) -> TraceEvent {
        TraceEvent {
            at_nanos: ctx::now().as_nanos(),
            thread: ctx::current(),
            sensor,
            value,
        }
    }

    /// The observation instant.
    pub fn at(&self) -> VirtualTime {
        VirtualTime(self.at_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use butterfly_sim::{self as sim, SimConfig};

    #[test]
    fn capture_now_stamps_time_and_thread() {
        let ((ev, t0), _) = sim::run(SimConfig::butterfly(1), || {
            let t0 = ctx::now();
            ctx::advance(sim::Duration::micros(7));
            (TraceEvent::now("waiting", 3), t0)
        })
        .unwrap();
        assert_eq!(ev.at(), t0 + sim::Duration::micros(7));
        assert_eq!(ev.sensor, "waiting");
        assert_eq!(ev.value, 3);
    }
}

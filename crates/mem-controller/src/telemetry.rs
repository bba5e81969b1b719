//! Controller-side telemetry.
//!
//! [`CtlTelemetry`] aggregates what the scheduler *decided* — one
//! counter per decision class, queue-depth histograms sampled once per
//! tick per channel, and the end-to-end read queue latency (enqueue to
//! last data beat). The commands themselves, with row, timing class
//! and refresh tRFC, are recorded by the channels' bounded command
//! trace ([`crate::MemoryController::enable_command_trace`]), which
//! `mcr_sim --trace-out` dumps.

use mcr_telemetry::{Counter, LatencyHistogram};

/// Scheduler-decision counters and queue histograms for one
/// [`crate::MemoryController`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtlTelemetry {
    /// Read-queue depth, sampled once per tick per channel.
    pub read_queue_depth: LatencyHistogram,
    /// Write-queue depth, sampled once per tick per channel.
    pub write_queue_depth: LatencyHistogram,
    /// Read round-trip latency (enqueue cycle to last data beat).
    pub read_latency: LatencyHistogram,
    /// CAS-read decisions issued.
    pub sched_cas_read: Counter,
    /// CAS-write decisions issued (write drain).
    pub sched_cas_write: Counter,
    /// ACTIVATE decisions issued.
    pub sched_activates: Counter,
    /// PRECHARGE decisions issued (conflict or idle-rank closes).
    pub sched_precharges: Counter,
    /// REFRESH decisions issued (normal and fast).
    pub sched_refreshes: Counter,
    /// Fast-class ACTIVATEs the retention detector rejected; each was
    /// retried in the same cycle with the full-restore baseline class.
    pub retention_retries: Counter,
    /// Guardband degradation steps (ladder moves down).
    pub guardband_degrades: Counter,
    /// Guardband re-arm steps (ladder moves back up).
    pub guardband_rearms: Counter,
}

impl CtlTelemetry {
    /// Folds another controller's telemetry into this one.
    pub fn merge(&mut self, other: &CtlTelemetry) {
        self.read_queue_depth.merge(&other.read_queue_depth);
        self.write_queue_depth.merge(&other.write_queue_depth);
        self.read_latency.merge(&other.read_latency);
        self.sched_cas_read.merge(&other.sched_cas_read);
        self.sched_cas_write.merge(&other.sched_cas_write);
        self.sched_activates.merge(&other.sched_activates);
        self.sched_precharges.merge(&other.sched_precharges);
        self.sched_refreshes.merge(&other.sched_refreshes);
        self.retention_retries.merge(&other.retention_retries);
        self.guardband_degrades.merge(&other.guardband_degrades);
        self.guardband_rearms.merge(&other.guardband_rearms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = CtlTelemetry::default();
        let mut b = CtlTelemetry::default();
        a.sched_activates.inc();
        a.read_queue_depth.record(3);
        b.sched_activates.add(2);
        b.read_queue_depth.record(5);
        a.merge(&b);
        assert_eq!(a.sched_activates.get(), 3);
        assert_eq!(a.read_queue_depth.count(), 2);
        assert_eq!(a.read_queue_depth.max(), Some(5));
    }
}

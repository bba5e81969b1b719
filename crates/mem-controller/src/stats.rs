//! Aggregate controller statistics.

use crate::refresh::RefreshStats;

/// End-of-run statistics for one memory controller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerStats {
    /// Read requests completed. A read counts once the tick that issues
    /// its CAS (or delivers it by store-to-load forwarding) hands it out,
    /// even if its data is still in flight; once the controller is
    /// [`crate::MemoryController::idle`], every counted read's data has
    /// arrived.
    pub reads_done: u64,
    /// Write requests drained to DRAM.
    pub writes_done: u64,
    /// Sum of read latencies in memory cycles (enqueue → last data beat).
    pub read_latency_sum: u64,
    /// Reads serviced as row-buffer hits.
    pub row_hits: u64,
    /// Reads/writes serviced with the bank closed (ACT needed).
    pub row_misses: u64,
    /// Reads/writes that had to close another row first.
    pub row_conflicts: u64,
    /// Memory cycles the channel spent in write-drain mode.
    pub drain_cycles: u64,
    /// Refresh scheduler statistics.
    pub refresh: RefreshStats,
    /// Fast-class ACTIVATEs rejected by the retention margin detector and
    /// reissued with the full-restore baseline class.
    pub retention_retries: u64,
    /// Guardband degradation steps taken (ladder moves down).
    pub guardband_degrades: u64,
    /// Guardband re-arm steps taken (ladder moves back up).
    pub guardband_rearms: u64,
    /// Memory cycles spent at any degraded guardband level.
    pub guardband_degraded_cycles: u64,
}

impl ControllerStats {
    /// Mean read latency in memory cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_done == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_done as f64
        }
    }

    /// Fraction of serviced requests that hit the row buffer.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_guard_zero() {
        let s = ControllerStats::default();
        assert_eq!(s.avg_read_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn averages_compute() {
        let s = ControllerStats {
            reads_done: 4,
            read_latency_sum: 100,
            row_hits: 3,
            row_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.avg_read_latency(), 25.0);
        assert_eq!(s.row_hit_rate(), 0.75);
    }
}

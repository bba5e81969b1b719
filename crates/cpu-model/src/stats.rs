//! Per-core execution statistics.

use mcr_telemetry::LatencyHistogram;

/// Counters accumulated by a [`crate::Core`] while it runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired (non-memory + reads + writes).
    pub committed: u64,
    /// Read requests sent to the memory system.
    pub reads_issued: u64,
    /// Write requests sent to the memory system.
    pub writes_issued: u64,
    /// CPU cycles on which fetch was blocked because a memory-controller
    /// queue refused a request.
    pub queue_stall_cycles: u64,
    /// CPU cycles on which fetch was blocked because the ROB was full.
    pub rob_stall_cycles: u64,
    /// CPU cycle at which the core retired its last instruction
    /// (0 while still running).
    pub done_cycle: u64,
    /// Memory read latency as seen by this core, issue to data delivery,
    /// in CPU cycles.
    pub mem_read_latency: LatencyHistogram,
}

impl CoreStats {
    /// Instructions per cycle at completion.
    ///
    /// Returns 0.0 while the core is still running.
    pub fn ipc(&self) -> f64 {
        if self.done_cycle == 0 {
            0.0
        } else {
            self.committed as f64 / self.done_cycle as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_guards_division_by_zero() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
        let s = CoreStats {
            committed: 100,
            done_cycle: 50,
            ..Default::default()
        };
        assert_eq!(s.ipc(), 2.0);
    }
}

//! System-level telemetry aggregation.
//!
//! [`Telemetry`] is the section of [`crate::RunReport`] that collects
//! what the instrumented layers recorded during a run: per-bank command
//! counters and the ACT→data histogram from `dram-device`, scheduler
//! decisions and queue-depth histograms from `mem-controller`, and the
//! per-core memory-latency histogram from `cpu-model`. Everything is
//! integer state with deterministic ordering (plain `Vec`s, no hash
//! iteration), so telemetry is bit-identical for the same seed
//! regardless of sweep worker count, and merging across runs is
//! associative.

use dram_device::ChannelTelemetry;
use mcr_telemetry::LatencyHistogram;
use mem_controller::CtlTelemetry;

/// Command counts for one (channel, rank, bank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankCommandCounts {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// ACTIVATE commands issued to this bank.
    pub activates: u64,
    /// READ commands issued to this bank.
    pub reads: u64,
    /// WRITE commands issued to this bank.
    pub writes: u64,
    /// PRECHARGE closures (explicit or auto) of this bank.
    pub precharges: u64,
}

/// The telemetry section of a [`crate::RunReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Per-bank command counters, channel-major then rank then bank.
    pub banks: Vec<BankCommandCounts>,
    /// Full-tRFC REFRESH commands issued (all channels).
    pub refreshes_normal: u64,
    /// Fast-Refresh REFRESH commands issued (all channels).
    pub refreshes_fast: u64,
    /// Precharge power-down entries (all ranks).
    pub powerdown_entries: u64,
    /// MRS-style MCR mode changes observed.
    pub mode_changes: u64,
    /// ACTIVATE issue to last data beat of the first READ it serves,
    /// in memory cycles (the Early-Access lever, measured directly).
    pub act_to_data: LatencyHistogram,
    /// Controller-side telemetry: scheduler decisions, queue depths,
    /// and the enqueue→data read latency histogram.
    pub controller: CtlTelemetry,
    /// Per-core memory read latency (issue→data, CPU cycles), merged
    /// across cores.
    pub core_read_latency: LatencyHistogram,
    /// Retention sense-margin checks evaluated on fast-class ACTIVATEs
    /// (all zero unless a fault plan is armed).
    pub retention_checks: u64,
    /// Margin violations the armed detector caught (each one forced a
    /// full-restore retry in the controller).
    pub retention_violations: u64,
    /// Margin failures with the detector disarmed — corrupt data escaped.
    pub retention_escapes: u64,
    /// Cycles from the modeled retention-boundary crossing to detection.
    pub retention_detect_latency: LatencyHistogram,
}

impl Telemetry {
    /// Folds one channel's device telemetry into this aggregate.
    pub fn absorb_channel(&mut self, channel: usize, t: &ChannelTelemetry) {
        for (rank, bank, c) in t.per_bank() {
            self.banks.push(BankCommandCounts {
                channel,
                rank,
                bank,
                activates: c.activates.get(),
                reads: c.reads.get(),
                writes: c.writes.get(),
                precharges: c.precharges.get(),
            });
        }
        self.refreshes_normal += t.refreshes_normal.get();
        self.refreshes_fast += t.refreshes_fast.get();
        self.powerdown_entries += t.powerdown_entries.get();
        self.mode_changes += t.mode_changes.get();
        self.act_to_data.merge(&t.act_to_data);
        self.retention_checks += t.retention_checks.get();
        self.retention_violations += t.retention_violations.get();
        self.retention_escapes += t.retention_escapes.get();
        self.retention_detect_latency
            .merge(&t.retention_detect_latency);
    }

    /// Total commands of each kind across every bank:
    /// `(activates, reads, writes, precharges)`.
    pub fn command_totals(&self) -> (u64, u64, u64, u64) {
        self.banks.iter().fold((0, 0, 0, 0), |acc, b| {
            (
                acc.0 + b.activates,
                acc.1 + b.reads,
                acc.2 + b.writes,
                acc.3 + b.precharges,
            )
        })
    }

    /// Folds another run's telemetry into this one.
    ///
    /// Banks are matched by (channel, rank, bank); unmatched entries
    /// are appended, so merging runs with different geometries is still
    /// well-defined. The fold is associative and commutative up to bank
    /// ordering, and fully deterministic for a fixed merge order (the
    /// sweep engine merges in declared point order).
    pub fn merge(&mut self, other: &Telemetry) {
        for b in &other.banks {
            match self
                .banks
                .iter_mut()
                .find(|a| a.channel == b.channel && a.rank == b.rank && a.bank == b.bank)
            {
                Some(a) => {
                    a.activates += b.activates;
                    a.reads += b.reads;
                    a.writes += b.writes;
                    a.precharges += b.precharges;
                }
                None => self.banks.push(b.clone()),
            }
        }
        self.refreshes_normal += other.refreshes_normal;
        self.refreshes_fast += other.refreshes_fast;
        self.powerdown_entries += other.powerdown_entries;
        self.mode_changes += other.mode_changes;
        self.act_to_data.merge(&other.act_to_data);
        self.controller.merge(&other.controller);
        self.core_read_latency.merge(&other.core_read_latency);
        self.retention_checks += other.retention_checks;
        self.retention_violations += other.retention_violations;
        self.retention_escapes += other.retention_escapes;
        self.retention_detect_latency
            .merge(&other.retention_detect_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Telemetry {
        let mut ct = ChannelTelemetry::new(1, 2);
        ct.note_activate(0, 1, 10);
        ct.note_cas(0, 1, true, false, 32);
        ct.note_refresh(false);
        let mut t = Telemetry::default();
        t.absorb_channel(0, &ct);
        t
    }

    #[test]
    fn absorb_channel_flattens_banks_in_order() {
        let t = sample();
        assert_eq!(t.banks.len(), 2);
        assert_eq!((t.banks[0].rank, t.banks[0].bank), (0, 0));
        assert_eq!((t.banks[1].rank, t.banks[1].bank), (0, 1));
        assert_eq!(t.banks[1].activates, 1);
        assert_eq!(t.banks[1].reads, 1);
        assert_eq!(t.refreshes_normal, 1);
        assert_eq!(t.act_to_data.count(), 1);
        assert_eq!(t.command_totals(), (1, 1, 0, 0));
    }

    #[test]
    fn merge_matches_banks_by_coordinates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.banks.len(), 2, "same coordinates must not duplicate");
        assert_eq!(a.banks[1].activates, 2);
        assert_eq!(a.refreshes_normal, 2);
        assert_eq!(a.act_to_data.count(), 2);
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut a = sample();
        let before = a.clone();
        a.merge(&Telemetry::default());
        assert_eq!(a, before);
    }
}

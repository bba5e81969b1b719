//! Per-bank device telemetry.
//!
//! [`ChannelTelemetry`] rides inside every [`crate::Channel`] and is
//! fed by the command-issue paths: per-bank command counters, per-rank
//! refresh and power-down counters, and an ACT→data latency histogram
//! (command-issue cycle of the ACTIVATE to the last data beat of the
//! first READ it serves — the paper's Early-Access lever measured
//! directly).

use crate::timing::Cycle;
use mcr_telemetry::{Counter, LatencyHistogram};

/// Command counters for one bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankCounters {
    /// ACTIVATE commands issued to this bank.
    pub activates: Counter,
    /// READ (and RDA) commands issued to this bank.
    pub reads: Counter,
    /// WRITE (and WRA) commands issued to this bank.
    pub writes: Counter,
    /// PRECHARGE closures (explicit or auto) of this bank.
    pub precharges: Counter,
}

impl BankCounters {
    /// Folds another bank's counters into this one.
    pub fn merge(&mut self, other: &BankCounters) {
        self.activates.merge(&other.activates);
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.precharges.merge(&other.precharges);
    }
}

/// Telemetry owned by one [`crate::Channel`]: per-bank command
/// counters, refresh / power-down counters, and the ACT→data
/// histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelTelemetry {
    banks_per_rank: usize,
    banks: Vec<BankCounters>,
    /// ACT issue cycle per (rank, bank), pending until the first READ.
    pending_act: Vec<Option<Cycle>>,
    /// Full-tRFC REFRESH commands issued.
    pub refreshes_normal: Counter,
    /// Fast-Refresh (overridden-tRFC) REFRESH commands issued.
    pub refreshes_fast: Counter,
    /// Precharge power-down entries (CKE low edges).
    pub powerdown_entries: Counter,
    /// MRS-style MCR mode changes observed.
    pub mode_changes: Counter,
    /// ACTIVATE issue to last data beat of the first READ it serves.
    pub act_to_data: LatencyHistogram,
    /// Retention sense-margin checks evaluated on fast-class ACTIVATEs.
    pub retention_checks: Counter,
    /// Margin violations detected by the armed detector (and handled by
    /// the controller's full-restore retry).
    pub retention_violations: Counter,
    /// Margin failures with the detector disarmed: corrupt data escaped.
    pub retention_escapes: Counter,
    /// Cycles from the modeled retention-boundary crossing to detection.
    pub retention_detect_latency: LatencyHistogram,
}

impl ChannelTelemetry {
    /// Fresh telemetry for a `ranks` × `banks_per_rank` channel.
    pub fn new(ranks: usize, banks_per_rank: usize) -> Self {
        let slots = ranks * banks_per_rank;
        ChannelTelemetry {
            banks_per_rank,
            banks: vec![BankCounters::default(); slots],
            pending_act: vec![None; slots],
            refreshes_normal: Counter::new(),
            refreshes_fast: Counter::new(),
            powerdown_entries: Counter::new(),
            mode_changes: Counter::new(),
            act_to_data: LatencyHistogram::new(),
            retention_checks: Counter::new(),
            retention_violations: Counter::new(),
            retention_escapes: Counter::new(),
            retention_detect_latency: LatencyHistogram::new(),
        }
    }

    fn slot(&self, rank: u8, bank: u8) -> usize {
        rank as usize * self.banks_per_rank + bank as usize
    }

    /// Number of banks per rank this telemetry was sized for.
    pub fn banks_per_rank(&self) -> usize {
        self.banks_per_rank
    }

    /// Number of ranks this telemetry was sized for.
    pub fn ranks(&self) -> usize {
        self.banks
            .len()
            .checked_div(self.banks_per_rank)
            .unwrap_or(0)
    }

    /// Counters of one bank.
    ///
    /// # Panics
    ///
    /// Panics if (rank, bank) is outside the sized geometry.
    pub fn bank(&self, rank: u8, bank: u8) -> &BankCounters {
        &self.banks[self.slot(rank, bank)]
    }

    /// All banks as `(rank, bank, counters)`, rank-major.
    pub fn per_bank(&self) -> impl Iterator<Item = (usize, usize, &BankCounters)> {
        let per = self.banks_per_rank.max(1);
        self.banks
            .iter()
            .enumerate()
            .map(move |(i, c)| (i / per, i % per, c))
    }

    /// Records an ACTIVATE to (rank, bank) at `now`.
    pub fn note_activate(&mut self, rank: u8, bank: u8, now: Cycle) {
        let i = self.slot(rank, bank);
        self.banks[i].activates.inc();
        self.pending_act[i] = Some(now);
    }

    /// Records a CAS to (rank, bank); `data_end` is the last data beat.
    /// The first READ after an ACTIVATE completes that ACT's
    /// ACT→data sample.
    pub fn note_cas(&mut self, rank: u8, bank: u8, is_read: bool, auto_pre: bool, data_end: Cycle) {
        let i = self.slot(rank, bank);
        if is_read {
            self.banks[i].reads.inc();
            if let Some(act) = self.pending_act[i].take() {
                self.act_to_data.record(data_end.saturating_sub(act));
            }
        } else {
            self.banks[i].writes.inc();
        }
        if auto_pre {
            self.banks[i].precharges.inc();
            self.pending_act[i] = None;
        }
    }

    /// Records an explicit PRECHARGE of (rank, bank).
    pub fn note_precharge(&mut self, rank: u8, bank: u8) {
        let i = self.slot(rank, bank);
        self.banks[i].precharges.inc();
        // A row closed before any READ never produces an ACT→data sample.
        self.pending_act[i] = None;
    }

    /// Records a REFRESH; `fast` marks a Fast-Refresh tRFC override.
    pub fn note_refresh(&mut self, fast: bool) {
        if fast {
            self.refreshes_fast.inc();
        } else {
            self.refreshes_normal.inc();
        }
    }

    /// Records a precharge power-down entry.
    pub fn note_powerdown_enter(&mut self) {
        self.powerdown_entries.inc();
    }

    /// Records an MRS-style MCR mode change.
    pub fn note_mode_change(&mut self) {
        self.mode_changes.inc();
    }

    /// Records one retention sense-margin evaluation.
    pub fn note_retention_check(&mut self) {
        self.retention_checks.inc();
    }

    /// Records a detected margin violation and its detection latency.
    pub fn note_retention_violation(&mut self, detect_latency: Cycle) {
        self.retention_violations.inc();
        self.retention_detect_latency.record(detect_latency);
    }

    /// Records an escaped margin failure (detector disarmed).
    pub fn note_retention_escape(&mut self) {
        self.retention_escapes.inc();
    }

    /// Folds another channel's telemetry into this one (bank slots are
    /// matched positionally; geometries must agree).
    pub fn merge(&mut self, other: &ChannelTelemetry) {
        for (a, b) in self.banks.iter_mut().zip(other.banks.iter()) {
            a.merge(b);
        }
        self.refreshes_normal.merge(&other.refreshes_normal);
        self.refreshes_fast.merge(&other.refreshes_fast);
        self.powerdown_entries.merge(&other.powerdown_entries);
        self.mode_changes.merge(&other.mode_changes);
        self.act_to_data.merge(&other.act_to_data);
        self.retention_checks.merge(&other.retention_checks);
        self.retention_violations.merge(&other.retention_violations);
        self.retention_escapes.merge(&other.retention_escapes);
        self.retention_detect_latency
            .merge(&other.retention_detect_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn act_to_data_pairs_first_read_with_activate() {
        let mut t = ChannelTelemetry::new(2, 8);
        t.note_activate(1, 3, 100);
        t.note_cas(1, 3, true, false, 120);
        // Second read on the same open row: no new ACT pending.
        t.note_cas(1, 3, true, false, 130);
        assert_eq!(t.bank(1, 3).activates.get(), 1);
        assert_eq!(t.bank(1, 3).reads.get(), 2);
        assert_eq!(t.act_to_data.count(), 1);
        assert_eq!(t.act_to_data.min(), Some(20));
    }

    #[test]
    fn precharge_cancels_pending_act_sample() {
        let mut t = ChannelTelemetry::new(1, 8);
        t.note_activate(0, 0, 10);
        t.note_precharge(0, 0);
        t.note_cas(0, 0, true, false, 50);
        assert_eq!(t.act_to_data.count(), 0, "closed row produced no sample");
        assert_eq!(t.bank(0, 0).precharges.get(), 1);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = ChannelTelemetry::new(1, 2);
        let mut b = ChannelTelemetry::new(1, 2);
        a.note_activate(0, 0, 0);
        a.note_cas(0, 0, true, true, 30);
        b.note_activate(0, 0, 5);
        b.note_cas(0, 0, false, false, 40);
        b.note_refresh(true);
        b.note_refresh(false);
        a.merge(&b);
        assert_eq!(a.bank(0, 0).activates.get(), 2);
        assert_eq!(a.bank(0, 0).reads.get(), 1);
        assert_eq!(a.bank(0, 0).writes.get(), 1);
        assert_eq!(a.refreshes_fast.get(), 1);
        assert_eq!(a.refreshes_normal.get(), 1);
        assert_eq!(a.act_to_data.count(), 1);
    }
}

//! Per-bank DRAM state machine.
//!
//! A bank tracks its open row plus the earliest-legal-cycle registers for
//! each same-bank timing constraint. Cross-bank (rank/channel) constraints
//! live in [`crate::channel`].

use crate::error::TimingError;
use crate::proto::{self, BankProtoState};
use crate::timing::{Cycle, RowTiming, TimingSet};

/// Coarse lifecycle phase of a bank, for inspection and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankPhase {
    /// All wordlines low, bitlines precharged; ready for ACTIVATE.
    Idle,
    /// A row is latched in the row buffer (possibly still restoring).
    Active,
}

/// One DRAM bank: the open-row register and same-bank timing windows.
///
/// The legality windows and register updates are the pure algebra of
/// [`crate::proto`]; this type adds the mutable front-end, the typed
/// rejections, and the open-row timing bookkeeping.
#[derive(Debug, Clone)]
pub struct Bank {
    /// The four protocol registers (shared algebra with [`crate::proto`]).
    state: BankProtoState,
    /// Cycle of the last ACTIVATE (for tRC bookkeeping and stats).
    last_act: Cycle,
    /// Row-timing the open row was activated with (None when idle).
    open_timing: Option<RowTiming>,
}

impl Bank {
    /// A freshly-precharged bank with no pending constraints.
    pub fn new() -> Self {
        Bank {
            state: BankProtoState::default(),
            last_act: 0,
            open_timing: None,
        }
    }

    /// The currently-open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.state.open_row
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> BankPhase {
        if self.state.open_row.is_some() {
            BankPhase::Active
        } else {
            BankPhase::Idle
        }
    }

    /// Earliest cycle at which an ACTIVATE is legal (same-bank constraints
    /// only; the rank may impose tRRD/tFAW on top).
    pub fn next_activate_cycle(&self) -> Cycle {
        self.state.next_act
    }

    /// Earliest cycle at which a READ/WRITE is legal (tRCD).
    pub fn next_cas_cycle(&self) -> Cycle {
        self.state.next_cas
    }

    /// Earliest cycle at which a PRECHARGE is legal.
    pub fn next_precharge_cycle(&self) -> Cycle {
        self.state.next_pre
    }

    /// Issues an ACTIVATE at `now` with per-row timing `rt`.
    ///
    /// # Errors
    ///
    /// [`TimingError::BankOpen`] if a row is already open, or
    /// [`TimingError::TooEarly`] if tRP/tRC has not elapsed.
    pub fn activate(
        &mut self,
        row: u64,
        now: Cycle,
        rt: RowTiming,
        ts: &TimingSet,
    ) -> Result<(), TimingError> {
        if let Some(open) = self.state.open_row {
            return Err(TimingError::BankOpen(open));
        }
        match proto::bank_earliest_activate(self.state) {
            Some(ready_at) if now < ready_at => {
                return Err(TimingError::TooEarly {
                    constraint: "tRP/tRC",
                    ready_at,
                })
            }
            _ => {}
        }
        self.open_timing = Some(rt);
        self.last_act = now;
        self.state = proto::bank_apply_activate(self.state, row, now, rt, ts);
        Ok(())
    }

    /// Issues a column READ at `now`. Returns nothing; data-bus scheduling
    /// is the channel's job.
    ///
    /// # Errors
    ///
    /// [`TimingError::BankClosed`], [`TimingError::RowMismatch`] or
    /// [`TimingError::TooEarly`] (tRCD).
    pub fn read(&mut self, row: u64, now: Cycle, ts: &TimingSet) -> Result<(), TimingError> {
        self.check_cas(row, now)?;
        self.state = proto::bank_apply_read(self.state, now, ts);
        Ok(())
    }

    /// Issues a column WRITE at `now`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Bank::read`].
    pub fn write(&mut self, row: u64, now: Cycle, ts: &TimingSet) -> Result<(), TimingError> {
        self.check_cas(row, now)?;
        self.state = proto::bank_apply_write(self.state, now, ts);
        Ok(())
    }

    /// Issues a PRECHARGE at `now`, closing the open row.
    ///
    /// # Errors
    ///
    /// [`TimingError::BankClosed`] or [`TimingError::TooEarly`]
    /// (tRAS/tRTP/tWR).
    pub fn precharge(&mut self, now: Cycle, ts: &TimingSet) -> Result<(), TimingError> {
        let Some(ready_at) = proto::bank_earliest_precharge(self.state) else {
            return Err(TimingError::BankClosed);
        };
        if now < ready_at {
            return Err(TimingError::TooEarly {
                constraint: "tRAS/tRTP/tWR",
                ready_at,
            });
        }
        self.open_timing = None;
        self.state = proto::bank_apply_precharge(self.state, now, ts);
        Ok(())
    }

    /// Auto-precharge (the RDA/WRA command suffix): the bank closes itself
    /// at the earliest cycle every precharge constraint allows, without a
    /// separate PRECHARGE command on the bus.
    ///
    /// Returns the effective precharge cycle. The open row is cleared
    /// immediately (no further CAS may target it) and the next ACTIVATE
    /// becomes legal `tRP` after the effective precharge.
    ///
    /// # Errors
    ///
    /// [`TimingError::BankClosed`] when no row is open.
    pub fn auto_precharge(&mut self, now: Cycle, ts: &TimingSet) -> Result<Cycle, TimingError> {
        let Some(earliest) = proto::bank_earliest_precharge(self.state) else {
            return Err(TimingError::BankClosed);
        };
        let pre_at = earliest.max(now);
        self.open_timing = None;
        self.state = proto::bank_apply_precharge(self.state, pre_at, ts);
        Ok(pre_at)
    }

    /// Blocks the bank until `until` (used by rank-level REFRESH, which
    /// occupies every bank for tRFC).
    pub fn block_until(&mut self, until: Cycle) {
        self.state = proto::bank_apply_block_until(self.state, until);
    }

    fn check_cas(&mut self, row: u64, now: Cycle) -> Result<(), TimingError> {
        let open = self.state.open_row.ok_or(TimingError::BankClosed)?;
        if open != row {
            return Err(TimingError::RowMismatch {
                open,
                requested: row,
            });
        }
        match proto::bank_earliest_cas(self.state, row) {
            Some(ready_at) if now < ready_at => Err(TimingError::TooEarly {
                constraint: "tRCD",
                ready_at,
            }),
            _ => Ok(()),
        }
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts() -> TimingSet {
        TimingSet::default()
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let mut b = Bank::new();
        b.activate(5, 100, RowTiming::baseline(), &ts()).unwrap();
        assert_eq!(b.open_row(), Some(5));
        let err = b.read(5, 105, &ts()).unwrap_err();
        assert_eq!(
            err,
            TimingError::TooEarly {
                constraint: "tRCD",
                ready_at: 111
            }
        );
        b.read(5, 111, &ts()).unwrap();
    }

    #[test]
    fn relaxed_class_allows_earlier_read() {
        let mut b = Bank::new();
        // 4x MCR timing from Table 3: tRCD 6.90 ns -> 6 cycles.
        let mcr = RowTiming::from_ns(6.90, 20.0);
        b.activate(5, 100, mcr, &ts()).unwrap();
        b.read(5, 106, &ts()).unwrap();
    }

    #[test]
    fn precharge_waits_for_tras() {
        let mut b = Bank::new();
        b.activate(5, 0, RowTiming::baseline(), &ts()).unwrap();
        assert!(matches!(
            b.precharge(10, &ts()),
            Err(TimingError::TooEarly { .. })
        ));
        b.precharge(28, &ts()).unwrap();
        assert_eq!(b.phase(), BankPhase::Idle);
        // tRP before the next activate.
        assert!(matches!(
            b.activate(6, 30, RowTiming::baseline(), &ts()),
            Err(TimingError::TooEarly { .. })
        ));
        b.activate(6, 39, RowTiming::baseline(), &ts()).unwrap();
    }

    #[test]
    fn early_precharge_class_shortens_tras() {
        let mut b = Bank::new();
        // 4/4x MCR: tRAS 20 ns -> 16 cycles.
        b.activate(5, 0, RowTiming::from_ns(6.90, 20.0), &ts())
            .unwrap();
        b.precharge(16, &ts()).unwrap();
    }

    #[test]
    fn read_pushes_precharge_by_trtp() {
        let mut b = Bank::new();
        b.activate(5, 0, RowTiming::baseline(), &ts()).unwrap();
        b.read(5, 27, &ts()).unwrap();
        // tRTP=6 from the read at 27 -> 33, later than tRAS=28.
        assert_eq!(b.next_precharge_cycle(), 33);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut b = Bank::new();
        b.activate(5, 0, RowTiming::baseline(), &ts()).unwrap();
        b.write(5, 11, &ts()).unwrap();
        // write end = 11 + 8 + 4 = 23; +tWR 12 => 35.
        assert_eq!(b.next_precharge_cycle(), 35);
    }

    #[test]
    fn wrong_row_and_closed_bank_are_rejected() {
        let mut b = Bank::new();
        assert_eq!(b.read(1, 0, &ts()).unwrap_err(), TimingError::BankClosed);
        b.activate(2, 0, RowTiming::baseline(), &ts()).unwrap();
        assert_eq!(
            b.read(1, 50, &ts()).unwrap_err(),
            TimingError::RowMismatch {
                open: 2,
                requested: 1
            }
        );
        assert_eq!(
            b.activate(3, 50, RowTiming::baseline(), &ts()).unwrap_err(),
            TimingError::BankOpen(2)
        );
    }

    #[test]
    fn block_until_defers_activation() {
        let mut b = Bank::new();
        b.block_until(500);
        assert!(matches!(
            b.activate(0, 499, RowTiming::baseline(), &ts()),
            Err(TimingError::TooEarly { .. })
        ));
        b.activate(0, 500, RowTiming::baseline(), &ts()).unwrap();
    }
}

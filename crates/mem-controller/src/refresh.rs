//! Controller-side refresh scheduling.
//!
//! JEDEC requires 8K REFRESH commands per retention window, one every
//! `tREFI` on average, with up to 8 postponed. The scheduler tracks, per
//! rank, the slots that have come due and the [`RefreshAction`] the device
//! policy chose for each; the controller issues them opportunistically and
//! forces them as the backlog approaches the postponement cap.
//!
//! When a [`mcr_faults::FaultPlan`] is installed, due slots pass through
//! its refresh-fault stream first: a *dropped* slot is consumed without
//! ever issuing a command (the targeted row silently misses its restore),
//! and a *late* slot enters the backlog with a `not_before` release cycle
//! the controller must respect.

use crate::policy::{DevicePolicy, RefreshAction};
use dram_device::{Cycle, RefreshCounter, RefreshWiring};
use mcr_faults::{FaultPlan, RefreshFault};
use std::collections::VecDeque;

/// One due-but-unissued refresh slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRefresh {
    /// Refresh-counter row the slot targets.
    pub row: u64,
    /// Device action the policy chose for the slot.
    pub action: RefreshAction,
    /// Earliest cycle the controller may issue it (0 normally; pushed
    /// into the future by a late-refresh fault).
    pub not_before: Cycle,
}

/// Per-rank refresh bookkeeping.
#[derive(Debug)]
struct RankRefresh {
    /// Shadow of the device-internal refresh row counter.
    counter: RefreshCounter,
    /// Slots that are due but not yet issued.
    backlog: VecDeque<PendingRefresh>,
    /// Next slot deadline in memory cycles.
    next_due: Cycle,
    /// Monotone count of slots that have come due (the fault-plan's
    /// per-rank refresh-fault stream coordinate).
    slot_index: u64,
}

/// Statistics reported by the refresh scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// REFRESH commands issued with baseline tRFC.
    pub normal: u64,
    /// REFRESH commands issued with a Fast-Refresh override.
    pub fast: u64,
    /// Slots skipped entirely (Refresh-Skipping).
    pub skipped: u64,
    /// Slots consumed by an injected dropped-refresh fault (no command
    /// was ever issued for them).
    pub dropped: u64,
    /// Slots delayed by an injected late-refresh fault.
    pub late: u64,
}

/// Tracks refresh slot deadlines and backlog for every rank of a channel.
#[derive(Debug)]
pub struct RefreshScheduler {
    ranks: Vec<RankRefresh>,
    t_refi: Cycle,
    postpone_cap: usize,
    stats: RefreshStats,
}

impl RefreshScheduler {
    /// Scheduler for `ranks` ranks with `row_bits`-bit row addresses and
    /// slot period `t_refi`, using `wiring` for the shadow counter.
    pub fn new(ranks: u8, row_bits: u32, t_refi: Cycle, wiring: RefreshWiring) -> Self {
        RefreshScheduler {
            ranks: (0..ranks)
                .map(|i| RankRefresh {
                    counter: RefreshCounter::new(row_bits, wiring),
                    backlog: VecDeque::new(),
                    // Stagger ranks so both don't demand the bus at once.
                    next_due: t_refi / ranks as Cycle * i as Cycle + t_refi,
                    slot_index: 0,
                })
                .collect(),
            t_refi,
            postpone_cap: 8,
            stats: RefreshStats::default(),
        }
    }

    /// Advances slot deadlines to `now`, consulting `policy` for each slot
    /// that comes due and `faults` (when armed) for injected refresh
    /// faults. Skip and dropped slots are consumed immediately (no command
    /// needed); others join the backlog. Returns `true` when at least one
    /// slot came due this call (scheduler state changed).
    pub fn tick(
        &mut self,
        now: Cycle,
        policy: &mut dyn DevicePolicy,
        faults: Option<&FaultPlan>,
    ) -> bool {
        let mut any_due = false;
        for (rank_id, r) in self.ranks.iter_mut().enumerate() {
            while now >= r.next_due {
                any_due = true;
                r.next_due += self.t_refi;
                // Advance the shadow counter at decision time: each due
                // slot targets the next row in the sweep even while a
                // backlog of unissued refreshes exists.
                let row = r.counter.advance();
                let slot = r.slot_index;
                r.slot_index += 1;
                match policy.refresh_action(rank_id as u8, row) {
                    RefreshAction::Skip => {
                        self.stats.skipped += 1;
                    }
                    action => {
                        let fault = faults
                            .map_or(RefreshFault::None, |p| p.refresh_fault(rank_id as u8, slot));
                        match fault {
                            RefreshFault::Dropped => self.stats.dropped += 1,
                            RefreshFault::Late(delay) => {
                                self.stats.late += 1;
                                r.backlog.push_back(PendingRefresh {
                                    row,
                                    action,
                                    not_before: now.saturating_add(delay),
                                });
                            }
                            RefreshFault::None => r.backlog.push_back(PendingRefresh {
                                row,
                                action,
                                not_before: 0,
                            }),
                        }
                    }
                }
            }
        }
        any_due
    }

    /// Number of pending (due, unissued) refreshes for `rank`.
    pub fn backlog(&self, rank: u8) -> usize {
        self.ranks[rank as usize].backlog.len()
    }

    /// Cycle the next refresh slot of `rank` comes due. Late-refresh
    /// faults stamp `not_before` relative to the cycle [`RefreshScheduler::tick`]
    /// observes the slot, so an event-wheel driver must never jump past
    /// this deadline without ticking the scheduler on it.
    pub fn next_due(&self, rank: u8) -> Cycle {
        self.ranks[rank as usize].next_due
    }

    /// True when `rank`'s backlog is close enough to the postponement cap
    /// that the controller must prioritize refreshing over requests.
    pub fn urgent(&self, rank: u8) -> bool {
        self.backlog(rank) >= self.postpone_cap - 1
    }

    /// `rank`'s oldest pending refresh, if any. The caller must honor its
    /// `not_before` release cycle before issuing.
    pub fn peek(&self, rank: u8) -> Option<PendingRefresh> {
        self.ranks[rank as usize].backlog.front().copied()
    }

    /// Consumes the oldest pending refresh for `rank` after the controller
    /// has successfully issued it. Returns the slot consumed, or `None`
    /// when the backlog was empty (nothing to consume).
    pub fn consume(&mut self, rank: u8) -> Option<PendingRefresh> {
        let r = &mut self.ranks[rank as usize];
        let pending = r.backlog.pop_front()?;
        match pending.action {
            RefreshAction::Normal => self.stats.normal += 1,
            RefreshAction::Fast(_) => self.stats.fast += 1,
            RefreshAction::Skip => unreachable!("skips never enter the backlog"),
        }
        Some(pending)
    }

    /// Aggregate refresh statistics.
    pub fn stats(&self) -> RefreshStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BaselinePolicy;

    #[test]
    fn slots_accumulate_at_trefi() {
        let mut s = RefreshScheduler::new(1, 6, 100, RefreshWiring::Reversed);
        let mut p = BaselinePolicy;
        s.tick(99, &mut p, None);
        assert_eq!(s.backlog(0), 0);
        s.tick(100, &mut p, None);
        assert_eq!(s.backlog(0), 1);
        s.tick(450, &mut p, None);
        assert_eq!(s.backlog(0), 4);
        assert!(!s.urgent(0));
        s.tick(800, &mut p, None);
        assert!(s.urgent(0));
    }

    #[test]
    fn consume_pops_and_counts() {
        let mut s = RefreshScheduler::new(1, 6, 100, RefreshWiring::Reversed);
        let mut p = BaselinePolicy;
        s.tick(300, &mut p, None);
        // Slots due at 100, 200, 300.
        assert_eq!(s.backlog(0), 3);
        let front = s.peek(0).expect("backlog non-empty");
        assert_eq!(front.action, RefreshAction::Normal);
        assert_eq!(front.not_before, 0);
        s.consume(0);
        assert_eq!(s.backlog(0), 2);
        assert_eq!(s.stats().normal, 1);
    }

    #[test]
    fn pending_slots_carry_the_counter_row() {
        let mut s = RefreshScheduler::new(1, 6, 100, RefreshWiring::Direct);
        let mut p = BaselinePolicy;
        s.tick(300, &mut p, None);
        // Direct wiring: the sweep visits rows 0, 1, 2 in order.
        let rows: Vec<u64> = (0..3).filter_map(|_| s.consume(0).map(|f| f.row)).collect();
        assert_eq!(rows, vec![0, 1, 2]);
    }

    #[test]
    fn skipping_policy_never_queues() {
        struct SkipAll;
        impl DevicePolicy for SkipAll {
            fn activate_class(
                &self,
                _: &dram_device::DramAddress,
            ) -> (dram_device::RowTimingClass, u32) {
                (dram_device::RowTimingClass(0), 0)
            }
            fn refresh_action(&mut self, _: u8, _: u64) -> RefreshAction {
                RefreshAction::Skip
            }
        }
        let mut s = RefreshScheduler::new(2, 6, 100, RefreshWiring::Reversed);
        let mut p = SkipAll;
        s.tick(1000, &mut p, None);
        assert_eq!(s.backlog(0), 0);
        assert_eq!(s.backlog(1), 0);
        assert!(s.stats().skipped >= 18);
    }

    #[test]
    fn ranks_are_staggered() {
        let mut s = RefreshScheduler::new(2, 6, 100, RefreshWiring::Reversed);
        let mut p = BaselinePolicy;
        s.tick(120, &mut p, None);
        // Rank 0 due at 100, rank 1 at 150.
        assert_eq!(s.backlog(0), 1);
        assert_eq!(s.backlog(1), 0);
        s.tick(160, &mut p, None);
        assert_eq!(s.backlog(1), 1);
    }

    #[test]
    fn dropped_faults_consume_slots_without_queuing() {
        let plan = FaultPlan::new(7).with_refresh_drops(1.0);
        let mut s = RefreshScheduler::new(1, 6, 100, RefreshWiring::Reversed);
        let mut p = BaselinePolicy;
        s.tick(1000, &mut p, Some(&plan));
        assert_eq!(s.backlog(0), 0, "all slots dropped");
        assert_eq!(s.stats().dropped, 10);
        assert_eq!(s.stats().normal, 0);
    }

    #[test]
    fn late_faults_set_a_release_cycle() {
        let plan = FaultPlan::new(7).with_late_refreshes(1.0, 500);
        let mut s = RefreshScheduler::new(1, 6, 100, RefreshWiring::Reversed);
        let mut p = BaselinePolicy;
        s.tick(100, &mut p, None);
        s.tick(200, &mut p, Some(&plan));
        assert_eq!(s.backlog(0), 2);
        let healthy = s.consume(0).expect("first slot queued without plan");
        assert_eq!(healthy.not_before, 0);
        let late = s.peek(0).expect("late slot queued");
        assert_eq!(late.not_before, 700);
        assert_eq!(s.stats().late, 1);
    }
}

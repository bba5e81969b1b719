//! Channel- and rank-level DRAM device model.
//!
//! A [`Channel`] owns its ranks and banks and enforces every constraint the
//! command/data buses impose on top of the per-bank windows:
//!
//! * `tRRD` and the `tFAW` four-activate window per rank,
//! * data-bus occupancy (one burst at a time), read/write turnaround and
//!   rank-to-rank switch (`tRTRS`),
//! * `tWTR` write-to-read on the same rank,
//! * rank-wide REFRESH occupancy (`tRFC`, optionally overridden per command
//!   for Fast-Refresh).
//!
//! The controller is expected to issue at most one command per cycle per
//! channel (command-bus width); that invariant is asserted here.

use crate::audit::{audit_default_enabled, AuditConfig, CloneFrame, ProtocolAuditor, Violation};
use crate::bank::Bank;
use crate::command::{Command, CommandKind};
use crate::counters::ActivityCounters;
use crate::error::{DeviceError, TimingError};
use crate::retention::{MarginOutcome, RetentionConfig, RetentionTracker};
use crate::telemetry::ChannelTelemetry;
use crate::timing::{Cycle, RowTiming, RowTimingClass, TimingSet};
use crate::{DramAddress, Geometry};
use mcr_faults::FaultPlan;
use std::collections::VecDeque;

/// Set of banks with an open row: bank `b` is bit `b % 64` of word
/// `b / 64` (bank ids are `u8`, so four words cover every geometry).
#[derive(Debug, Clone, Copy, Default)]
struct BankMask([u64; 4]);

impl BankMask {
    fn set(&mut self, bank: u8, open: bool) {
        let (word, bit) = (usize::from(bank / 64), 1u64 << (bank % 64));
        if open {
            self.0[word] |= bit;
        } else {
            self.0[word] &= !bit;
        }
    }

    fn count(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn is_empty(self) -> bool {
        self.0 == [0; 4]
    }

    /// Set bank ids in ascending order.
    fn iter(self) -> impl Iterator<Item = u8> {
        (0u8..4).flat_map(move |word| {
            let mut bits = self.0[usize::from(word)];
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros();
                bits &= bits.wrapping_sub(1);
                (bit < 64).then(|| word * 64 + bit as u8)
            })
        })
    }
}

/// One rank: a set of banks plus rank-level constraint state.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Banks with an open row, kept in step with every ACTIVATE,
    /// PRECHARGE and auto-precharge so readiness queries are O(1).
    open: BankMask,
    /// Cycles of the most recent ACTIVATEs (bounded to 4 for tFAW).
    act_window: VecDeque<Cycle>,
    /// Earliest next ACTIVATE on any bank (tRRD).
    next_act: Cycle,
    /// Earliest next READ command (tWTR after writes).
    next_read: Cycle,
    /// Earliest next CAS of either kind on this rank (tCCD).
    next_cas: Cycle,
    /// Busy with refresh until this cycle.
    refresh_until: Cycle,
    /// In precharge power-down since this cycle (CKE low).
    powered_down_since: Option<Cycle>,
    /// Activity statistics for the power model.
    pub counters: ActivityCounters,
}

impl Rank {
    fn new(banks: u8) -> Self {
        Rank {
            banks: (0..banks).map(|_| Bank::new()).collect(),
            open: BankMask::default(),
            act_window: VecDeque::with_capacity(4),
            next_act: 0,
            next_read: 0,
            next_cas: 0,
            refresh_until: 0,
            powered_down_since: None,
            counters: ActivityCounters::new(),
        }
    }

    /// True while the rank is in precharge power-down.
    pub fn powered_down(&self) -> bool {
        self.powered_down_since.is_some()
    }

    /// Cycle at which the rank's current refresh (if any) completes; a
    /// power-down entry is rejected until then, so event-wheel drivers
    /// treat it as a wake edge for pending power-down transitions.
    pub fn refresh_busy_until(&self) -> Cycle {
        self.refresh_until
    }

    /// Immutable view of one bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: u8) -> &Bank {
        &self.banks[bank as usize]
    }

    /// Number of banks with an open row.
    pub fn open_banks(&self) -> usize {
        self.open.count()
    }

    /// Ids of the banks with an open row, in ascending order.
    pub fn open_bank_ids(&self) -> impl Iterator<Item = u8> {
        self.open.iter()
    }

    /// True when every bank is precharged (required for REFRESH).
    pub fn all_idle(&self) -> bool {
        self.open.is_empty()
    }

    fn faw_ready(&self, ts: &TimingSet) -> Cycle {
        if self.act_window.len() < 4 {
            0
        } else {
            self.act_window[0] + ts.t_faw as Cycle
        }
    }

    fn note_activate(&mut self, now: Cycle) {
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(now);
    }
}

/// Which operation last owned the data bus (for turnaround penalties).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusOp {
    None,
    Read,
    Write,
}

/// One memory channel: ranks, banks, and the shared data bus.
#[derive(Debug, Clone)]
pub struct Channel {
    geometry: Geometry,
    timing: TimingSet,
    ranks: Vec<Rank>,
    row_timings: Vec<RowTiming>,
    /// Data bus free-at cycle (start-of-burst granularity).
    bus_free: Cycle,
    last_bus_op: BusOp,
    last_bus_rank: Option<u8>,
    /// Cycle of the last command on the command bus (1/cycle invariant).
    last_cmd: Option<Cycle>,
    /// Bounded trace of recently issued commands (None = disabled).
    cmd_trace: Option<(usize, VecDeque<Command>)>,
    /// Online protocol auditor (None = disabled).
    audit: Option<ProtocolAuditor>,
    /// Retention-fault tracker (None = retention checks disabled).
    retention: Option<RetentionTracker>,
    /// Per-bank command counters and ACT→data histogram.
    telemetry: ChannelTelemetry,
}

impl Channel {
    /// A channel with the given geometry and timing, all banks precharged,
    /// and a single registered row-timing class (class 0 = baseline).
    ///
    /// The protocol auditor is armed automatically in debug builds and
    /// under the `protocol-audit` cargo feature (see
    /// [`audit_default_enabled`]).
    pub fn new(geometry: Geometry, timing: TimingSet) -> Self {
        let baseline = RowTiming {
            t_rcd: timing.t_rcd,
            t_ras: timing.t_ras,
        };
        let audit = audit_default_enabled().then(|| {
            ProtocolAuditor::new(AuditConfig::new(
                timing.clone(),
                geometry.ranks,
                geometry.banks,
            ))
        });
        Channel {
            ranks: (0..geometry.ranks)
                .map(|_| Rank::new(geometry.banks))
                .collect(),
            telemetry: ChannelTelemetry::new(geometry.ranks as usize, geometry.banks as usize),
            geometry,
            timing,
            row_timings: vec![baseline],
            bus_free: 0,
            last_bus_op: BusOp::None,
            last_bus_rank: None,
            last_cmd: None,
            cmd_trace: None,
            audit,
            retention: None,
        }
    }

    // ----- retention tracking ----------------------------------------

    /// Arms retention-fault tracking: per-row restore history plus the
    /// leakage-model sense-margin check on every fast-class ACTIVATE (see
    /// [`RetentionConfig`]).
    ///
    /// # Errors
    ///
    /// [`DeviceError::InvalidRetentionConfig`] for non-positive clock
    /// periods or non-finite restore voltages.
    pub fn set_retention(&mut self, cfg: RetentionConfig) -> Result<(), DeviceError> {
        if !cfg.t_ck_ns.is_finite() || cfg.t_ck_ns <= 0.0 {
            return Err(DeviceError::InvalidRetentionConfig {
                reason: "t_ck_ns must be positive and finite",
            });
        }
        let all_finite = cfg
            .class_restore_v
            .iter()
            .chain([&cfg.fast_refresh_restore_v, &cfg.full_restore_v])
            .all(|v| v.is_finite());
        if !all_finite {
            return Err(DeviceError::InvalidRetentionConfig {
                reason: "restore voltages must be finite",
            });
        }
        self.retention = Some(RetentionTracker::new(
            cfg,
            self.geometry.ranks,
            self.geometry.rows_per_bank,
        ));
        Ok(())
    }

    /// True while retention-fault tracking is armed.
    pub fn retention_enabled(&self) -> bool {
        self.retention.is_some()
    }

    /// The armed fault plan, if retention tracking is on.
    pub fn retention_plan(&self) -> Option<&FaultPlan> {
        self.retention.as_ref().map(|t| &t.config().plan)
    }

    /// The channel's telemetry.
    pub fn telemetry(&self) -> &ChannelTelemetry {
        &self.telemetry
    }

    /// Enables recording of the last `capacity` issued commands (a
    /// drop-oldest ring): the record behind command-sequence assertions
    /// and `mcr_sim --trace-out`.
    pub fn enable_command_trace(&mut self, capacity: usize) {
        self.cmd_trace = Some((capacity.max(1), VecDeque::with_capacity(capacity.max(1))));
    }

    /// The recorded command trace, oldest first (empty when disabled).
    pub fn command_trace(&self) -> impl Iterator<Item = &Command> {
        self.cmd_trace.iter().flat_map(|(_, t)| t.iter())
    }

    // ----- protocol audit --------------------------------------------

    /// True when the online protocol auditor is armed.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// Arms (or disarms) the online protocol auditor regardless of build
    /// flags, preserving already-registered row-timing classes.
    pub fn set_audit_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.audit = None;
        } else if self.audit.is_none() {
            let mut cfg = AuditConfig::new(
                self.timing.clone(),
                self.geometry.ranks,
                self.geometry.banks,
            );
            cfg.classes = self.row_timings.clone();
            self.audit = Some(ProtocolAuditor::new(cfg));
        }
    }

    /// Sets the refresh-starvation budget checked by the auditor: the
    /// maximum tolerated cycle gap between REFRESH commands to one rank
    /// (64 ms/M per MCR under Refresh-Skipping, plus postponement slack).
    /// No-op while the auditor is disarmed.
    pub fn set_audit_refresh_budget(&mut self, budget: Option<Cycle>) {
        if let Some(audit) = &mut self.audit {
            audit.set_refresh_budget(budget);
        }
    }

    /// Declares live clone-row frames the auditor must guard against write
    /// collisions. No-op while the auditor is disarmed.
    pub fn set_audit_clone_frames(&mut self, frames: Vec<CloneFrame>) {
        if let Some(audit) = &mut self.audit {
            audit.set_clone_frames(frames);
        }
    }

    /// Violations found so far by the online auditor (empty when disarmed).
    pub fn audit_violations(&self) -> &[Violation] {
        self.audit.as_ref().map(|a| a.violations()).unwrap_or(&[])
    }

    /// Total violation count, including any beyond the recording cap.
    pub fn audit_total(&self) -> u64 {
        self.audit.as_ref().map(|a| a.total()).unwrap_or(0)
    }

    /// Ends the audited timeline at `now` (tail refresh-starvation check).
    pub fn audit_finish(&mut self, now: Cycle) {
        if let Some(audit) = &mut self.audit {
            audit.finish(now);
        }
    }

    /// Records an MRS-style MCR mode change (paper Sec. 4.4) in the command
    /// stream. The auditor flags the change when banks are still open; this
    /// simulator applies it regardless (the modeled OS quiesces around it).
    pub fn note_mode_change(&mut self, now: Cycle) {
        self.telemetry.note_mode_change();
        let baseline = self.row_timings[0];
        self.observe(
            Command {
                kind: CommandKind::ModeChange,
                addr: DramAddress {
                    channel: 0,
                    rank: 0,
                    bank: 0,
                    row: 0,
                    col: 0,
                },
                cycle: now,
                class: RowTimingClass(0),
                auto_pre: false,
                t_rfc: None,
            },
            baseline,
        );
    }

    /// Records `cmd` into the bounded trace (when enabled) and feeds the
    /// protocol auditor (when armed). `rt` is the resolved row timing for
    /// ACTIVATE commands.
    fn observe(&mut self, cmd: Command, rt: RowTiming) {
        if let Some((cap, trace)) = &mut self.cmd_trace {
            if trace.len() == *cap {
                trace.pop_front();
            }
            trace.push_back(cmd);
        }
        if let Some(audit) = &mut self.audit {
            audit.observe(&cmd, rt);
        }
    }

    /// Registers an additional per-row timing class (e.g. an MCR class from
    /// Table 3) and returns its handle.
    ///
    /// # Errors
    ///
    /// [`DeviceError::TimingClassOverflow`] when the `u8` class table is
    /// exhausted.
    pub fn register_row_timing(&mut self, rt: RowTiming) -> Result<RowTimingClass, DeviceError> {
        let limit = u8::MAX as usize;
        if self.row_timings.len() >= limit {
            return Err(DeviceError::TimingClassOverflow { limit });
        }
        self.row_timings.push(rt);
        if let Some(audit) = &mut self.audit {
            audit.push_class(rt);
        }
        Ok(RowTimingClass((self.row_timings.len() - 1) as u8))
    }

    /// Looks up a registered row-timing class, or `None` when the class was
    /// never registered.
    pub fn try_row_timing(&self, class: RowTimingClass) -> Option<RowTiming> {
        self.row_timings.get(class.0 as usize).copied()
    }

    /// Looks up a registered row-timing class.
    ///
    /// # Panics
    ///
    /// Panics if the class was never registered.
    pub fn row_timing(&self, class: RowTimingClass) -> RowTiming {
        self.row_timings[class.0 as usize]
    }

    /// The channel's timing set.
    pub fn timing(&self) -> &TimingSet {
        &self.timing
    }

    /// The channel's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Immutable view of one rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn rank(&self, rank: u8) -> &Rank {
        &self.ranks[rank as usize]
    }

    /// Finalizes residency integration in every rank at `now` (ranks still
    /// in power-down get their final span credited).
    pub fn finish_counters(&mut self, now: Cycle) {
        for r in &mut self.ranks {
            if let Some(since) = r.powered_down_since.take() {
                r.counters.powerdown_cycles += now.saturating_sub(since);
            }
            r.counters.finish(now);
        }
    }

    /// Puts a rank into precharge power-down (CKE low). Requires every
    /// bank precharged and no refresh in flight.
    ///
    /// # Errors
    ///
    /// [`TimingError::RankNotIdle`] when a bank is open, or
    /// [`TimingError::TooEarly`] during a refresh.
    pub fn enter_power_down(&mut self, rank: u8, now: Cycle) -> Result<(), TimingError> {
        let r = &mut self.ranks[rank as usize];
        if !r.all_idle() {
            return Err(TimingError::RankNotIdle);
        }
        if now < r.refresh_until {
            return Err(TimingError::TooEarly {
                constraint: "tRFC",
                ready_at: r.refresh_until,
            });
        }
        if r.powered_down_since.is_none() {
            r.powered_down_since = Some(now);
            self.telemetry.note_powerdown_enter();
        }
        Ok(())
    }

    /// Wakes a rank from power-down (CKE high). The first command becomes
    /// legal `tXP` after `now`. Idempotent on awake ranks.
    pub fn exit_power_down(&mut self, rank: u8, now: Cycle) {
        let t_xp = self.timing.t_xp as Cycle;
        let r = &mut self.ranks[rank as usize];
        if let Some(since) = r.powered_down_since.take() {
            r.counters.powerdown_cycles += now.saturating_sub(since);
            let ready = now + t_xp;
            r.next_act = r.next_act.max(ready);
            r.next_cas = r.next_cas.max(ready);
            r.refresh_until = r.refresh_until.max(ready);
        }
    }

    /// True while `rank` is in precharge power-down.
    pub fn rank_powered_down(&self, rank: u8) -> bool {
        self.ranks[rank as usize].powered_down()
    }

    // ----- query API -------------------------------------------------

    /// Open row of a bank, if any.
    pub fn open_row(&self, rank: u8, bank: u8) -> Option<u64> {
        self.ranks[rank as usize].banks[bank as usize].open_row()
    }

    /// Earliest cycle an ACTIVATE to (rank, bank) could be legal,
    /// considering bank tRP/tRC, rank tRRD/tFAW and refresh occupancy.
    pub fn next_activate_cycle(&self, rank: u8, bank: u8) -> Cycle {
        let r = &self.ranks[rank as usize];
        let b = &r.banks[bank as usize];
        b.next_activate_cycle()
            .max(r.next_act)
            .max(r.faw_ready(&self.timing))
            .max(r.refresh_until)
    }

    /// Earliest cycle a READ/WRITE to the open row could be legal
    /// (bank tRCD, rank tCCD and, for reads, tWTR).
    pub fn next_cas_cycle(&self, rank: u8, bank: u8, is_read: bool) -> Cycle {
        let r = &self.ranks[rank as usize];
        let b = &r.banks[bank as usize];
        let mut c = b.next_cas_cycle().max(r.next_cas).max(r.refresh_until);
        if is_read {
            c = c.max(r.next_read);
        }
        c
    }

    /// Convenience: earliest READ cycle for (rank, bank).
    pub fn next_read_cycle(&self, rank: u8, bank: u8) -> Cycle {
        self.next_cas_cycle(rank, bank, true)
    }

    /// Earliest cycle a PRECHARGE to (rank, bank) is legal.
    pub fn next_precharge_cycle(&self, rank: u8, bank: u8) -> Cycle {
        let r = &self.ranks[rank as usize];
        r.banks[bank as usize]
            .next_precharge_cycle()
            .max(r.refresh_until)
    }

    /// Earliest cycle a REFRESH to `rank` is legal, assuming banks idle.
    pub fn next_refresh_cycle(&self, rank: u8) -> Cycle {
        let r = &self.ranks[rank as usize];
        let bank_ready = r
            .banks
            .iter()
            .map(|b| b.next_activate_cycle())
            .max()
            .unwrap_or(0);
        bank_ready.max(r.refresh_until)
    }

    /// Earliest command cycle at which the *data bus* no longer rejects a
    /// CAS to `rank` — the channel-level constraint [`Channel::read`] and
    /// [`Channel::write`] check before any per-rank window. Mirrors the
    /// internal check exactly: a CAS at cycle `c` places its data at
    /// `c + CL/CWL`, which must not start before the bus frees plus any
    /// turnaround / rank-switch penalty.
    pub fn next_bus_cas_cycle(&self, rank: u8, is_read: bool) -> Cycle {
        let ts = &self.timing;
        let lat = if is_read { ts.cl } else { ts.cwl } as Cycle;
        let turnaround = match (self.last_bus_op, is_read) {
            (BusOp::Read, false) | (BusOp::Write, true) => ts.t_rtrs as Cycle,
            _ => 0,
        };
        let rank_switch = match self.last_bus_rank {
            Some(r) if r != rank => ts.t_rtrs as Cycle,
            _ => 0,
        };
        (self.bus_free + turnaround.max(rank_switch)).saturating_sub(lat)
    }

    // ----- issue API -------------------------------------------------

    /// Issues an ACTIVATE.
    ///
    /// `extra_wordlines` is the number of wordlines raised beyond one (K-1
    /// for a Kx MCR activation) and only affects energy accounting.
    ///
    /// # Errors
    ///
    /// Any same-bank error from [`Bank::activate`], or
    /// [`TimingError::TooEarly`] for tRRD/tFAW/refresh, or
    /// [`TimingError::OutOfRange`].
    pub fn activate(
        &mut self,
        rank: u8,
        bank: u8,
        row: u64,
        now: Cycle,
        class: RowTimingClass,
    ) -> Result<(), TimingError> {
        self.activate_mcr(rank, bank, row, now, class, 0)
    }

    /// Issues an ACTIVATE with explicit extra-wordline accounting.
    ///
    /// # Errors
    ///
    /// See [`Channel::activate`].
    pub fn activate_mcr(
        &mut self,
        rank: u8,
        bank: u8,
        row: u64,
        now: Cycle,
        class: RowTimingClass,
        extra_wordlines: u32,
    ) -> Result<(), TimingError> {
        self.check_addr(rank, bank, row)?;
        let rt = self
            .try_row_timing(class)
            .ok_or(TimingError::UnknownClass(class.0))?;
        let ts = self.timing.clone();
        let base_ras = ts.t_ras;
        let r = &mut self.ranks[rank as usize];
        if r.powered_down() {
            return Err(TimingError::TooEarly {
                constraint: "power-down (CKE low)",
                ready_at: now + ts.t_xp as Cycle,
            });
        }
        if now < r.refresh_until {
            return Err(TimingError::TooEarly {
                constraint: "tRFC",
                ready_at: r.refresh_until,
            });
        }
        if now < r.next_act {
            return Err(TimingError::TooEarly {
                constraint: "tRRD",
                ready_at: r.next_act,
            });
        }
        let faw = r.faw_ready(&ts);
        if now < faw {
            return Err(TimingError::TooEarly {
                constraint: "tFAW",
                ready_at: faw,
            });
        }
        // Retention sense-margin check (fault injection): fast-timing
        // classes only — the baseline class senses with full worst-case
        // windows and is the always-safe retry path — and only once the
        // ACT is otherwise legal, so a detected violation leaves the bank
        // untouched for the controller's full-restore retry.
        if class.0 != 0 && self.retention.is_some() {
            let b = &self.ranks[rank as usize].banks[bank as usize];
            if b.open_row().is_none() && now >= b.next_activate_cycle() {
                let k = extra_wordlines as u64 + 1;
                let outcome = match &mut self.retention {
                    Some(t) => t.evaluate(rank, bank, row, k, now),
                    None => MarginOutcome::Ok,
                };
                self.telemetry.note_retention_check();
                match outcome {
                    MarginOutcome::Ok => {}
                    MarginOutcome::Violation(event) => {
                        self.telemetry
                            .note_retention_violation(event.detect_latency);
                        if let Some(audit) = &mut self.audit {
                            audit.note_retention(&event);
                        }
                        return Err(TimingError::RetentionViolation {
                            interval_cycles: event.interval_cycles,
                        });
                    }
                    MarginOutcome::Escape(event) => {
                        self.telemetry.note_retention_escape();
                        if let Some(audit) = &mut self.audit {
                            audit.note_retention(&event);
                        }
                    }
                }
            }
        }
        self.ranks[rank as usize].banks[bank as usize].activate(row, now, rt, &ts)?;
        self.note_cmd(now);
        self.observe(
            Command {
                kind: CommandKind::Activate,
                addr: DramAddress {
                    channel: 0,
                    rank,
                    bank,
                    row,
                    col: 0,
                },
                cycle: now,
                class,
                auto_pre: false,
                t_rfc: None,
            },
            rt,
        );
        let r = &mut self.ranks[rank as usize];
        r.open.set(bank, true);
        r.note_activate(now);
        r.next_act = now + ts.t_rrd as Cycle;
        r.counters.observe(now, 1);
        r.counters.activates += 1;
        r.counters.extra_wordlines += extra_wordlines as u64;
        r.counters.restore_truncation_cycles += base_ras.saturating_sub(rt.t_ras) as u64;
        self.telemetry.note_activate(rank, bank, now);
        if let Some(t) = &mut self.retention {
            // Any successful ACT (including the full-restore class-0 retry)
            // recharges the whole K-row group to its class's target.
            t.note_act_restore(rank, bank, row, extra_wordlines as u64 + 1, now, class.0);
        }
        Ok(())
    }

    /// Issues a column READ. Returns the cycle at which the last data beat
    /// arrives at the controller.
    ///
    /// # Errors
    ///
    /// Same-bank errors from [`Bank::read`] plus rank tCCD/tWTR and data-bus
    /// conflicts, all as [`TimingError`].
    pub fn read(&mut self, rank: u8, bank: u8, col: u32, now: Cycle) -> Result<Cycle, TimingError> {
        self.cas(rank, bank, col, now, true, false)
    }

    /// Issues a column READ with auto-precharge (RDA): the bank closes
    /// itself at the earliest legal cycle with no extra command-bus slot.
    /// Returns the data-end cycle.
    ///
    /// # Errors
    ///
    /// See [`Channel::read`].
    pub fn read_auto_precharge(
        &mut self,
        rank: u8,
        bank: u8,
        col: u32,
        now: Cycle,
    ) -> Result<Cycle, TimingError> {
        self.cas(rank, bank, col, now, true, true)
    }

    /// Issues a column WRITE with auto-precharge (WRA).
    ///
    /// # Errors
    ///
    /// See [`Channel::read`].
    pub fn write_auto_precharge(
        &mut self,
        rank: u8,
        bank: u8,
        col: u32,
        now: Cycle,
    ) -> Result<Cycle, TimingError> {
        self.cas(rank, bank, col, now, false, true)
    }

    /// Issues a column WRITE. Returns the cycle at which the last data beat
    /// has been driven (write completion for queue-retirement purposes).
    ///
    /// # Errors
    ///
    /// See [`Channel::read`].
    pub fn write(
        &mut self,
        rank: u8,
        bank: u8,
        col: u32,
        now: Cycle,
    ) -> Result<Cycle, TimingError> {
        self.cas(rank, bank, col, now, false, false)
    }

    fn cas(
        &mut self,
        rank: u8,
        bank: u8,
        col: u32,
        now: Cycle,
        is_read: bool,
        auto_pre: bool,
    ) -> Result<Cycle, TimingError> {
        if rank >= self.geometry.ranks
            || bank >= self.geometry.banks
            || col >= self.geometry.cols_per_row
        {
            return Err(TimingError::OutOfRange);
        }
        let ts = self.timing.clone();
        // Data-bus availability check first (channel-level).
        let data_start = now + if is_read { ts.cl } else { ts.cwl } as Cycle;
        let mut bus_ready = self.bus_free;
        let turnaround = match (self.last_bus_op, is_read) {
            (BusOp::Read, false) | (BusOp::Write, true) => ts.t_rtrs as Cycle,
            _ => 0,
        };
        let rank_switch = match self.last_bus_rank {
            Some(r) if r != rank => ts.t_rtrs as Cycle,
            _ => 0,
        };
        bus_ready += turnaround.max(rank_switch);
        if data_start < bus_ready {
            return Err(TimingError::TooEarly {
                constraint: "data bus",
                ready_at: now + (bus_ready - data_start),
            });
        }
        {
            let r = &self.ranks[rank as usize];
            if now < r.refresh_until {
                return Err(TimingError::TooEarly {
                    constraint: "tRFC",
                    ready_at: r.refresh_until,
                });
            }
            if now < r.next_cas {
                return Err(TimingError::TooEarly {
                    constraint: "tCCD",
                    ready_at: r.next_cas,
                });
            }
            if is_read && now < r.next_read {
                return Err(TimingError::TooEarly {
                    constraint: "tWTR",
                    ready_at: r.next_read,
                });
            }
        }
        let row = self.ranks[rank as usize].banks[bank as usize]
            .open_row()
            .ok_or(TimingError::BankClosed)?;
        {
            let r = &mut self.ranks[rank as usize];
            if is_read {
                r.banks[bank as usize].read(row, now, &ts)?;
                r.counters.reads += 1;
            } else {
                r.banks[bank as usize].write(row, now, &ts)?;
                r.counters.writes += 1;
                // tWTR: read commands must wait past end of write data.
                let write_end = now + (ts.cwl + ts.burst_cycles) as Cycle;
                r.next_read = r.next_read.max(write_end + ts.t_wtr as Cycle);
            }
            r.next_cas = r.next_cas.max(now + ts.t_ccd as Cycle);
            if auto_pre {
                // The row was open for the CAS above, so this cannot fail.
                r.banks[bank as usize].auto_precharge(now, &ts)?;
                r.open.set(bank, false);
                // Residency approximation: count the bank idle from the
                // command cycle (the true close is at the internal
                // precharge point a few cycles later).
                r.counters.observe(now, -1);
                r.counters.precharges += 1;
            }
        }
        self.note_cmd(now);
        let baseline = self.row_timings[0];
        self.observe(
            Command {
                kind: if is_read {
                    CommandKind::Read
                } else {
                    CommandKind::Write
                },
                addr: DramAddress {
                    channel: 0,
                    rank,
                    bank,
                    row,
                    col,
                },
                cycle: now,
                class: RowTimingClass(0),
                auto_pre,
                t_rfc: None,
            },
            baseline,
        );
        let data_end = data_start + ts.burst_cycles as Cycle;
        self.bus_free = data_end;
        self.last_bus_op = if is_read { BusOp::Read } else { BusOp::Write };
        self.last_bus_rank = Some(rank);
        self.telemetry
            .note_cas(rank, bank, is_read, auto_pre, data_end);
        Ok(data_end)
    }

    /// Issues a PRECHARGE to one bank.
    ///
    /// # Errors
    ///
    /// Same-bank errors from [`Bank::precharge`], or refresh occupancy.
    pub fn precharge(&mut self, rank: u8, bank: u8, now: Cycle) -> Result<(), TimingError> {
        if rank >= self.geometry.ranks || bank >= self.geometry.banks {
            return Err(TimingError::OutOfRange);
        }
        let ts = self.timing.clone();
        let r = &mut self.ranks[rank as usize];
        if now < r.refresh_until {
            return Err(TimingError::TooEarly {
                constraint: "tRFC",
                ready_at: r.refresh_until,
            });
        }
        r.banks[bank as usize].precharge(now, &ts)?;
        r.open.set(bank, false);
        self.note_cmd(now);
        let baseline = self.row_timings[0];
        self.observe(
            Command {
                kind: CommandKind::Precharge,
                addr: DramAddress {
                    channel: 0,
                    rank,
                    bank,
                    row: 0,
                    col: 0,
                },
                cycle: now,
                class: RowTimingClass(0),
                auto_pre: false,
                t_rfc: None,
            },
            baseline,
        );
        let r = &mut self.ranks[rank as usize];
        r.counters.observe(now, -1);
        r.counters.precharges += 1;
        self.telemetry.note_precharge(rank, bank);
        Ok(())
    }

    /// Issues a REFRESH to a rank. `t_rfc_override` replaces the baseline
    /// tRFC for this command (Fast-Refresh, Table 3).
    ///
    /// Retention tracking (when armed) treats this row-less entry point
    /// coarsely: every row of the rank counts as restored. Fault-aware
    /// controllers must use [`Channel::refresh_slot`] so dropped or late
    /// refresh slots actually stretch per-row retention intervals.
    ///
    /// # Errors
    ///
    /// [`TimingError::RankNotIdle`] if any bank has an open row, or
    /// [`TimingError::TooEarly`] during a previous refresh or before every
    /// bank's tRP has elapsed.
    pub fn refresh(
        &mut self,
        rank: u8,
        now: Cycle,
        t_rfc_override: Option<u32>,
    ) -> Result<(), TimingError> {
        self.refresh_inner(rank, None, now, t_rfc_override)
    }

    /// Issues a REFRESH to a rank, naming the refresh-counter slot row it
    /// restores (in every bank of the rank). Identical timing to
    /// [`Channel::refresh`]; the slot row feeds retention tracking and the
    /// observed command stream.
    ///
    /// # Errors
    ///
    /// See [`Channel::refresh`]; additionally [`TimingError::OutOfRange`]
    /// for a slot row outside the geometry.
    pub fn refresh_slot(
        &mut self,
        rank: u8,
        slot_row: u64,
        now: Cycle,
        t_rfc_override: Option<u32>,
    ) -> Result<(), TimingError> {
        if slot_row >= self.geometry.rows_per_bank {
            return Err(TimingError::OutOfRange);
        }
        self.refresh_inner(rank, Some(slot_row), now, t_rfc_override)
    }

    fn refresh_inner(
        &mut self,
        rank: u8,
        slot_row: Option<u64>,
        now: Cycle,
        t_rfc_override: Option<u32>,
    ) -> Result<(), TimingError> {
        if rank >= self.geometry.ranks {
            return Err(TimingError::OutOfRange);
        }
        let t_rfc = t_rfc_override.unwrap_or(self.timing.t_rfc);
        let t_xp = self.timing.t_xp;
        let r = &mut self.ranks[rank as usize];
        if r.powered_down() {
            return Err(TimingError::TooEarly {
                constraint: "power-down (CKE low)",
                ready_at: now + t_xp as Cycle,
            });
        }
        if !r.all_idle() {
            return Err(TimingError::RankNotIdle);
        }
        let ready = r
            .banks
            .iter()
            .map(|b| b.next_activate_cycle())
            .max()
            .unwrap_or(0)
            .max(r.refresh_until);
        if now < ready {
            return Err(TimingError::TooEarly {
                constraint: "tRP/tRFC",
                ready_at: ready,
            });
        }
        let until = now + t_rfc as Cycle;
        r.refresh_until = until;
        for b in &mut r.banks {
            b.block_until(until);
        }
        r.counters.refreshes += 1;
        r.counters.refresh_busy_cycles += t_rfc as u64;
        self.telemetry.note_refresh(t_rfc_override.is_some());
        if let Some(t) = &mut self.retention {
            t.note_refresh(rank, slot_row, now, t_rfc_override.is_some());
        }
        self.note_cmd(now);
        let baseline = self.row_timings[0];
        self.observe(
            Command {
                kind: CommandKind::Refresh,
                addr: DramAddress {
                    channel: 0,
                    rank,
                    bank: 0,
                    row: slot_row.unwrap_or(0),
                    col: 0,
                },
                cycle: now,
                class: RowTimingClass(0),
                auto_pre: false,
                t_rfc: t_rfc_override,
            },
            baseline,
        );
        Ok(())
    }

    fn check_addr(&self, rank: u8, bank: u8, row: u64) -> Result<(), TimingError> {
        if rank >= self.geometry.ranks
            || bank >= self.geometry.banks
            || row >= self.geometry.rows_per_bank
        {
            return Err(TimingError::OutOfRange);
        }
        Ok(())
    }

    fn note_cmd(&mut self, now: Cycle) {
        debug_assert!(
            self.last_cmd != Some(now),
            "two commands on one command-bus cycle ({now})"
        );
        debug_assert!(
            self.last_cmd.is_none_or(|c| c <= now),
            "command bus time went backwards"
        );
        self.last_cmd = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> Channel {
        Channel::new(Geometry::tiny(), TimingSet::default())
    }

    #[test]
    fn full_access_sequence() {
        let mut c = chan();
        c.activate(0, 0, 3, 0, RowTimingClass(0)).unwrap();
        let rd_at = c.next_read_cycle(0, 0);
        assert_eq!(rd_at, 11);
        let done = c.read(0, 0, 5, rd_at).unwrap();
        assert_eq!(done, 11 + 11 + 4); // CL + burst
        let pre_at = c.next_precharge_cycle(0, 0);
        c.precharge(0, 0, pre_at).unwrap();
        assert_eq!(c.open_row(0, 0), None);
    }

    #[test]
    fn trrd_between_banks() {
        let mut c = chan();
        c.activate(0, 0, 1, 0, RowTimingClass(0)).unwrap();
        assert!(matches!(
            c.activate(0, 1, 2, 2, RowTimingClass(0)),
            Err(TimingError::TooEarly {
                constraint: "tRRD",
                ..
            })
        ));
        c.activate(0, 1, 2, 5, RowTimingClass(0)).unwrap();
    }

    #[test]
    fn tfaw_limits_activation_burst() {
        let g = Geometry {
            banks: 8,
            ..Geometry::tiny()
        };
        let mut c = Channel::new(g, TimingSet::default());
        // 4 activates spaced at tRRD=5: cycles 0,5,10,15.
        for (i, t) in [(0u8, 0u64), (1, 5), (2, 10), (3, 15)] {
            c.activate(0, i, 0, t, RowTimingClass(0)).unwrap();
        }
        // Fifth must wait for tFAW = 24 from cycle 0.
        assert!(matches!(
            c.activate(0, 4, 0, 20, RowTimingClass(0)),
            Err(TimingError::TooEarly {
                constraint: "tFAW",
                ..
            })
        ));
        assert_eq!(c.next_activate_cycle(0, 4), 24);
        c.activate(0, 4, 0, 24, RowTimingClass(0)).unwrap();
    }

    #[test]
    fn data_bus_serializes_bursts() {
        let g = Geometry {
            banks: 4,
            ..Geometry::tiny()
        };
        let mut c = Channel::new(g, TimingSet::default());
        c.activate(0, 0, 0, 0, RowTimingClass(0)).unwrap();
        c.activate(0, 1, 0, 5, RowTimingClass(0)).unwrap();
        let d0 = c.read(0, 0, 0, 11).unwrap();
        assert_eq!(d0, 26);
        // Second read one cycle later would overlap the bus AND violate
        // tCCD; at 15 (tCCD ok) bus is also fine since bursts abut.
        assert!(c.read(0, 1, 0, 12).is_err());
        let d1 = c.read(0, 1, 0, 16).unwrap();
        assert_eq!(d1, 31);
    }

    #[test]
    fn write_to_read_needs_twtr() {
        let mut c = chan();
        c.activate(0, 0, 0, 0, RowTimingClass(0)).unwrap();
        c.write(0, 0, 0, 11).unwrap();
        // write data ends at 11+8+4=23; tWTR=6 -> read legal at 29.
        assert_eq!(c.next_cas_cycle(0, 0, true), 29);
        assert!(matches!(
            c.read(0, 0, 1, 27),
            Err(TimingError::TooEarly { .. })
        ));
        c.read(0, 0, 1, 29).unwrap();
    }

    #[test]
    fn refresh_blocks_rank_for_trfc() {
        let mut c = chan();
        c.refresh(0, 0, None).unwrap();
        assert_eq!(c.next_activate_cycle(0, 0), 88);
        assert!(matches!(
            c.activate(0, 0, 0, 50, RowTimingClass(0)),
            Err(TimingError::TooEarly { .. })
        ));
        c.activate(0, 0, 0, 88, RowTimingClass(0)).unwrap();
    }

    #[test]
    fn fast_refresh_override_shortens_busy_window() {
        let mut c = chan();
        c.refresh(0, 0, Some(61)).unwrap(); // 4/4x MCR tRFC (1 Gb)
        assert_eq!(c.next_activate_cycle(0, 0), 61);
        assert_eq!(c.rank(0).counters.refresh_busy_cycles, 61);
    }

    #[test]
    fn refresh_requires_idle_banks() {
        let mut c = chan();
        c.activate(0, 0, 0, 0, RowTimingClass(0)).unwrap();
        assert_eq!(c.refresh(0, 5, None).unwrap_err(), TimingError::RankNotIdle);
    }

    #[test]
    fn registered_mcr_class_applies() {
        let mut c = chan();
        let class = c
            .register_row_timing(RowTiming::from_ns(6.90, 20.0))
            .unwrap();
        c.activate(0, 0, 0, 0, class).unwrap();
        assert_eq!(c.next_read_cycle(0, 0), 6);
        assert_eq!(c.next_precharge_cycle(0, 0), 16);
    }

    #[test]
    fn auto_precharge_closes_bank_and_charges_trp() {
        let mut c = chan();
        c.activate(0, 0, 3, 0, RowTimingClass(0)).unwrap();
        let rd = c.next_read_cycle(0, 0);
        let done = c.read_auto_precharge(0, 0, 0, rd).unwrap();
        assert!(done > rd);
        assert_eq!(c.open_row(0, 0), None);
        // Internal precharge at max(tRAS=28, rd+tRTP=17) = 28; +tRP=11.
        assert_eq!(c.next_activate_cycle(0, 0), 39);
        assert_eq!(c.rank(0).counters.precharges, 1);
    }

    #[test]
    fn write_auto_precharge_respects_write_recovery() {
        let mut c = chan();
        c.activate(0, 0, 3, 0, RowTimingClass(0)).unwrap();
        c.write_auto_precharge(0, 0, 0, 11).unwrap();
        // write data ends 11+8+4=23, +tWR 12 -> pre at 35, +tRP -> 46.
        assert_eq!(c.next_activate_cycle(0, 0), 46);
        assert_eq!(c.open_row(0, 0), None);
    }

    #[test]
    fn counters_track_commands() {
        let mut c = chan();
        c.activate_mcr(0, 0, 0, 0, RowTimingClass(0), 3).unwrap();
        c.read(0, 0, 0, 11).unwrap();
        c.precharge(0, 0, 33).unwrap();
        let k = &c.rank(0).counters;
        assert_eq!(k.activates, 1);
        assert_eq!(k.reads, 1);
        assert_eq!(k.precharges, 1);
        assert_eq!(k.extra_wordlines, 3);
    }

    #[test]
    fn power_down_blocks_commands_until_txp_after_wake() {
        let mut c = chan();
        c.enter_power_down(0, 100).unwrap();
        assert!(c.rank_powered_down(0));
        assert!(matches!(
            c.activate(0, 0, 0, 150, RowTimingClass(0)),
            Err(TimingError::TooEarly { .. })
        ));
        assert!(matches!(
            c.refresh(0, 150, None),
            Err(TimingError::TooEarly { .. })
        ));
        c.exit_power_down(0, 200);
        assert!(!c.rank_powered_down(0));
        // tXP = 5: legal from 205.
        assert!(matches!(
            c.activate(0, 0, 0, 204, RowTimingClass(0)),
            Err(TimingError::TooEarly { .. })
        ));
        c.activate(0, 0, 0, 205, RowTimingClass(0)).unwrap();
        assert_eq!(c.rank(0).counters.powerdown_cycles, 100);
    }

    #[test]
    fn power_down_requires_idle_rank() {
        let mut c = chan();
        c.activate(0, 0, 0, 0, RowTimingClass(0)).unwrap();
        assert_eq!(
            c.enter_power_down(0, 10).unwrap_err(),
            TimingError::RankNotIdle
        );
    }

    #[test]
    fn finish_counters_closes_open_powerdown_span() {
        let mut c = chan();
        c.enter_power_down(0, 50).unwrap();
        c.finish_counters(80);
        assert_eq!(c.rank(0).counters.powerdown_cycles, 30);
    }

    #[test]
    fn command_trace_records_issue_order() {
        use crate::command::CommandKind;
        let mut c = chan();
        c.enable_command_trace(8);
        c.activate(0, 0, 3, 0, RowTimingClass(0)).unwrap();
        c.read(0, 0, 1, 11).unwrap();
        c.precharge(0, 0, 33).unwrap();
        c.refresh(0, 60, None).unwrap();
        let kinds: Vec<CommandKind> = c.command_trace().map(|cmd| cmd.kind).collect();
        assert_eq!(
            kinds,
            vec![
                CommandKind::Activate,
                CommandKind::Read,
                CommandKind::Precharge,
                CommandKind::Refresh,
            ]
        );
        let cycles: Vec<u64> = c.command_trace().map(|cmd| cmd.cycle).collect();
        assert_eq!(cycles, vec![0, 11, 33, 60]);
        assert_eq!(c.command_trace().next().unwrap().addr.row, 3);
    }

    #[test]
    fn command_trace_is_bounded() {
        let mut c = chan();
        c.enable_command_trace(2);
        let mut now = 0;
        for i in 0..5u64 {
            c.activate(0, 0, i, now, RowTimingClass(0)).unwrap();
            now = c.next_precharge_cycle(0, 0);
            c.precharge(0, 0, now).unwrap();
            now += 12;
        }
        assert_eq!(c.command_trace().count(), 2);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut c = chan();
        c.activate(0, 0, 0, 0, RowTimingClass(0)).unwrap();
        assert_eq!(c.command_trace().count(), 0);
    }

    fn retention_cfg(plan: FaultPlan) -> RetentionConfig {
        let params = circuit_model::CircuitParams::calibrated();
        RetentionConfig {
            plan,
            leakage: circuit_model::LeakageModel::new(params),
            // Class 1 restores only half the slack: survives ~32 ms.
            class_restore_v: vec![params.v_full, params.v_full - 0.15],
            fast_refresh_restore_v: params.v_full,
            full_restore_v: params.v_full,
            t_ck_ns: 1.25,
        }
    }

    /// 64 ms of DDR3-1600 cycles.
    const MS64: Cycle = 51_200_000;

    #[test]
    fn retention_violation_rejects_fast_act_and_class0_retry_succeeds() {
        let mut c = chan();
        c.set_audit_enabled(false); // stale-by-construction stream
        let class = c
            .register_row_timing(RowTiming::from_ns(6.90, 20.0))
            .unwrap();
        c.set_retention(retention_cfg(FaultPlan::new(3))).unwrap();
        // Restore row 0's group with the truncated class-1 target, then
        // leave it a full retention window.
        c.activate(0, 0, 0, 0, class).unwrap();
        c.precharge(0, 0, 16).unwrap();
        let err = c.activate(0, 0, 0, MS64, class).unwrap_err();
        assert!(matches!(err, TimingError::RetentionViolation { .. }));
        assert_eq!(c.telemetry().retention_violations.get(), 1);
        // The full-restore baseline retry is always safe…
        c.activate(0, 0, 0, MS64 + 1, RowTimingClass(0)).unwrap();
        c.precharge(0, 0, MS64 + 1 + 28).unwrap();
        // …and recharges the group, so the fast class works again.
        c.activate(0, 0, 0, MS64 + 100, class).unwrap();
        assert_eq!(c.telemetry().retention_escapes.get(), 0);
    }

    #[test]
    fn refresh_slot_resets_the_retention_clock() {
        let mut c = chan();
        c.set_audit_enabled(false);
        let class = c
            .register_row_timing(RowTiming::from_ns(6.90, 20.0))
            .unwrap();
        c.set_retention(retention_cfg(FaultPlan::new(3))).unwrap();
        c.activate(0, 0, 5, 0, class).unwrap();
        c.precharge(0, 0, 16).unwrap();
        // A full refresh naming slot row 5 shortly before the deadline.
        c.refresh_slot(0, 5, MS64 - 1_000, None).unwrap();
        c.activate(0, 0, 5, MS64, class).unwrap();
        assert_eq!(c.telemetry().retention_violations.get(), 0);
        assert!(c.retention_enabled());
        assert_eq!(c.retention_plan().map(|p| p.seed()), Some(3));
    }

    #[test]
    fn disarmed_detector_lets_corruption_escape_and_audit_flags_it() {
        let mut c = chan();
        c.set_audit_enabled(true);
        let class = c
            .register_row_timing(RowTiming::from_ns(6.90, 20.0))
            .unwrap();
        let plan = FaultPlan::new(3).with_detector(false);
        c.set_retention(retention_cfg(plan)).unwrap();
        c.activate(0, 0, 0, 0, class).unwrap();
        c.precharge(0, 0, 16).unwrap();
        // The stale fast ACT proceeds (corrupt data) instead of erroring.
        c.activate(0, 0, 0, MS64, class).unwrap();
        assert_eq!(c.telemetry().retention_escapes.get(), 1);
        assert!(c
            .audit_violations()
            .iter()
            .any(|v| v.class == crate::audit::ViolationClass::RetentionEscape));
    }

    #[test]
    fn invalid_retention_config_is_rejected() {
        let mut c = chan();
        let mut cfg = retention_cfg(FaultPlan::new(1));
        cfg.t_ck_ns = 0.0;
        assert!(matches!(
            c.set_retention(cfg),
            Err(DeviceError::InvalidRetentionConfig { .. })
        ));
        let mut cfg = retention_cfg(FaultPlan::new(1));
        cfg.class_restore_v[1] = f64::NAN;
        assert!(matches!(
            c.set_retention(cfg),
            Err(DeviceError::InvalidRetentionConfig { .. })
        ));
        assert!(!c.retention_enabled());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut c = chan();
        assert_eq!(
            c.activate(5, 0, 0, 0, RowTimingClass(0)).unwrap_err(),
            TimingError::OutOfRange
        );
        assert_eq!(c.read(0, 9, 0, 0).unwrap_err(), TimingError::OutOfRange);
    }
}

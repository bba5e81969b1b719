//! Command-stream protocol auditor.
//!
//! A redundant, independent re-implementation of the DDR3 + MCR protocol
//! rules (paper Sec. 4, Table 3): the auditor watches the command stream a
//! [`crate::Channel`] actually issues and re-checks every inter-command
//! constraint from scratch, without reusing the bank/rank state machines
//! that admitted the commands in the first place. Disagreement between the
//! two implementations surfaces as [`Violation`]s instead of silently
//! corrupt simulation results.
//!
//! The auditor runs in two modes:
//!
//! * **online** — a [`ProtocolAuditor`] embedded in the channel (armed by
//!   default in debug builds, and in any build by
//!   [`crate::Channel::set_audit_enabled`]) observes each command as it is
//!   issued;
//! * **replay** — [`audit_commands`] replays a recorded `&[Command]` slice,
//!   which is what fault-injection tests and the `mcr-lint` tool use.
//!
//! Checked invariants, each with its own [`ViolationClass`]:
//! ACT→CAS before `tRCD` (Early-Access window, Table 3), PRE before `tRAS`
//! (Early-Precharge window), ACT before `tRP`/`tRC`, `tRRD` and the `tFAW`
//! four-activate window, commands inside a `tRFC` refresh window
//! (Fast-Refresh, Table 3), structural bank-state errors, per-rank refresh
//! starvation beyond the Refresh-Skipping budget (Fig. 9), MRS mode change
//! with open banks (Sec. 4.4), writes that collide with live clone-row
//! data (Sec. 4.2), and retention-margin events (fault injection,
//! DESIGN.md §5f): fast-class ACTIVATEs issued past the configured
//! retention budget on replay, plus detected violations and escapes the
//! channel's leakage-model margin detector reports online.

use crate::command::{Command, CommandKind};
use crate::timing::{Cycle, RowTiming, TimingSet};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// How serious a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A hard protocol violation: the stream is illegal DDR3/MCR traffic.
    Error,
    /// A modeling-level concern that does not invalidate device state in
    /// this simulator (e.g. an MRS issued while banks are open, which real
    /// hardware would require the controller to quiesce around).
    Warning,
}

/// The protocol rule a command violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationClass {
    /// READ/WRITE issued before `tRCD` elapsed after the ACTIVATE
    /// (the Early-Access window of Table 3).
    TrcdViolation,
    /// PRECHARGE issued before `tRAS`/`tRTP`/`tWR` allowed closing the row
    /// (the Early-Precharge window of Table 3).
    TrasViolation,
    /// ACTIVATE or REFRESH issued before the bank's `tRP`/`tRC` recovery.
    TrcViolation,
    /// ACTIVATE issued within `tRRD` of the previous same-rank ACTIVATE.
    TrrdViolation,
    /// A fifth ACTIVATE inside one `tFAW` rolling window.
    TfawViolation,
    /// Any command issued while the rank was busy refreshing (`tRFC`,
    /// possibly shortened by Fast-Refresh, Table 3).
    TrfcViolation,
    /// READ/WRITE to a closed bank or to a row other than the open one.
    CasBankMismatch,
    /// ACTIVATE to a bank that already has an open row.
    ActOnOpenBank,
    /// REFRESH while a bank of the rank still had an open row.
    RefreshBankOpen,
    /// The gap between refreshes of a rank exceeded the retention budget
    /// (64 ms/M under `M/Kx` Refresh-Skipping, Fig. 9, plus the
    /// controller's postponement allowance).
    RefreshStarvation,
    /// MRS mode change while banks were open (Sec. 4.4 requires the
    /// controller to quiesce first).
    ModeChangeBankOpen,
    /// WRITE to a non-frame clone row of a group holding live data: all K
    /// wordlines of an MCR rise together, so the write destroys the frame
    /// row's data (Sec. 4.2).
    CloneWriteCollision,
    /// Two commands on the one-command-per-cycle command bus.
    BusConflict,
    /// ACTIVATE used a row-timing class the auditor knows nothing about.
    UnknownTimingClass,
    /// A fast-class ACTIVATE failed its retention sense-margin check and
    /// the armed detector caught it (fault injection, DESIGN.md §5f). A
    /// warning, not an error: the controller handles it by retrying with a
    /// full-restore class, so no corrupt data is returned.
    RetentionViolation,
    /// A retention margin failure with the detector disarmed: the
    /// activation proceeded and corrupt data escaped to the requester.
    RetentionEscape,
}

impl ViolationClass {
    /// Default severity of this class.
    pub fn severity(self) -> Severity {
        match self {
            ViolationClass::ModeChangeBankOpen | ViolationClass::RetentionViolation => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationClass::TrcdViolation => "tRCD violation",
            ViolationClass::TrasViolation => "tRAS violation",
            ViolationClass::TrcViolation => "tRP/tRC violation",
            ViolationClass::TrrdViolation => "tRRD violation",
            ViolationClass::TfawViolation => "tFAW violation",
            ViolationClass::TrfcViolation => "tRFC violation",
            ViolationClass::CasBankMismatch => "CAS bank-state violation",
            ViolationClass::ActOnOpenBank => "ACT on open bank",
            ViolationClass::RefreshBankOpen => "REFRESH with open bank",
            ViolationClass::RefreshStarvation => "refresh starvation",
            ViolationClass::ModeChangeBankOpen => "mode change with open banks",
            ViolationClass::CloneWriteCollision => "clone-row write collision",
            ViolationClass::BusConflict => "command-bus conflict",
            ViolationClass::UnknownTimingClass => "unknown row-timing class",
            ViolationClass::RetentionViolation => "retention margin violation (detected)",
            ViolationClass::RetentionEscape => "retention escape (corrupt data returned)",
        };
        f.write_str(s)
    }
}

/// One audited protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violated rule.
    pub class: ViolationClass,
    /// Cycle of the offending command.
    pub cycle: Cycle,
    /// Rank of the offending command.
    pub rank: u8,
    /// Bank of the offending command (0 for rank-level commands).
    pub bank: u8,
    /// Human-readable specifics (constraint deadline, rows involved, ...).
    pub detail: String,
}

impl Violation {
    /// Severity, derived from the class.
    pub fn severity(&self) -> Severity {
        self.class.severity()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{} rank{} bank{}: {} ({})",
            self.cycle, self.rank, self.bank, self.class, self.detail
        )
    }
}

/// A live clone-row frame the auditor protects against collisions: the
/// first-in-group row `frame_row` of a `Kx` MCR holds allocated data, so a
/// WRITE to any of the other `k - 1` rows of the group would clobber it
/// (all K wordlines rise together, Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloneFrame {
    /// Rank holding the frame.
    pub rank: u8,
    /// Bank holding the frame.
    pub bank: u8,
    /// First-in-group row address of the frame.
    pub frame_row: u64,
    /// MCR degree K of the frame's region.
    pub k: u32,
}

/// Static configuration of an audit run.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Baseline timing constants.
    pub timing: TimingSet,
    /// Ranks per channel.
    pub ranks: u8,
    /// Banks per rank.
    pub banks: u8,
    /// Registered row-timing classes (index = `RowTimingClass.0`); used by
    /// replay audits. The online auditor resolves classes via the channel.
    pub classes: Vec<RowTiming>,
    /// Maximum tolerated gap between REFRESH commands to one rank, in
    /// cycles. `None` disables the starvation check (e.g. when the
    /// controller has refresh disabled for an ablation).
    pub refresh_budget: Option<Cycle>,
    /// Live clone-row frames to guard against write collisions.
    pub clone_frames: Vec<CloneFrame>,
    /// Maximum tolerated cycle gap between restore events (a REFRESH of
    /// the rank or an ACTIVATE of the same row) before a *fast-class*
    /// ACTIVATE is flagged as a [`ViolationClass::RetentionViolation`].
    /// `None` disables the check. This is the replay-side approximation of
    /// the channel's leakage-model margin detector: it has no fault plan,
    /// so it audits against a fixed worst-case budget.
    pub retention_limit: Option<Cycle>,
}

impl AuditConfig {
    /// Config with the given structure and no MCR-specific checks armed.
    pub fn new(timing: TimingSet, ranks: u8, banks: u8) -> Self {
        let baseline = RowTiming {
            t_rcd: timing.t_rcd,
            t_ras: timing.t_ras,
        };
        AuditConfig {
            timing,
            ranks,
            banks,
            classes: vec![baseline],
            refresh_budget: None,
            clone_frames: Vec::new(),
            retention_limit: None,
        }
    }
}

/// True when a new channel arms its protocol auditor by default: in
/// debug builds. Any build arms it with [`crate::Channel::set_audit_enabled`].
pub fn audit_default_enabled() -> bool {
    cfg!(debug_assertions)
}

#[derive(Debug, Clone)]
struct BankShadow {
    open_row: Option<u64>,
    next_act: Cycle,
    next_cas: Cycle,
    next_pre: Cycle,
    /// Last ACTIVATE cycle per row; populated only while the
    /// `retention_limit` check is armed.
    last_act: HashMap<u64, Cycle>,
}

#[derive(Debug, Clone)]
struct RankShadow {
    banks: Vec<BankShadow>,
    act_window: VecDeque<Cycle>,
    next_act: Cycle,
    refresh_until: Cycle,
    last_refresh: Option<Cycle>,
}

impl RankShadow {
    fn new(banks: u8) -> Self {
        RankShadow {
            banks: (0..banks)
                .map(|_| BankShadow {
                    open_row: None,
                    next_act: 0,
                    next_cas: 0,
                    next_pre: 0,
                    last_act: HashMap::new(),
                })
                .collect(),
            act_window: VecDeque::with_capacity(4),
            next_act: 0,
            refresh_until: 0,
            last_refresh: None,
        }
    }

    fn open_banks(&self) -> usize {
        self.banks.iter().filter(|b| b.open_row.is_some()).count()
    }
}

/// Cap on retained [`Violation`] values; later ones only bump the count.
const MAX_RECORDED: usize = 256;

/// The online protocol auditor: an independent shadow of the bank/rank
/// timing state, fed one [`Command`] at a time.
#[derive(Debug, Clone)]
pub struct ProtocolAuditor {
    cfg: AuditConfig,
    ranks: Vec<RankShadow>,
    last_cmd: Option<Cycle>,
    violations: Vec<Violation>,
    total: u64,
}

impl ProtocolAuditor {
    /// A fresh auditor for the given configuration.
    pub fn new(cfg: AuditConfig) -> Self {
        let ranks = (0..cfg.ranks).map(|_| RankShadow::new(cfg.banks)).collect();
        ProtocolAuditor {
            cfg,
            ranks,
            last_cmd: None,
            violations: Vec::new(),
            total: 0,
        }
    }

    /// Replaces the refresh-starvation budget (cycles between REFRESHes).
    pub fn set_refresh_budget(&mut self, budget: Option<Cycle>) {
        self.cfg.refresh_budget = budget;
    }

    /// Registers an additional row-timing class for replayed ACTIVATEs.
    pub fn push_class(&mut self, rt: RowTiming) {
        self.cfg.classes.push(rt);
    }

    /// Replaces the set of guarded live clone-row frames.
    pub fn set_clone_frames(&mut self, frames: Vec<CloneFrame>) {
        self.cfg.clone_frames = frames;
    }

    /// Records a retention event detected by the channel's leakage-model
    /// margin detector (the online counterpart of the replay-side
    /// `retention_limit` rule: the channel has the fault plan and restore
    /// history, the auditor only archives the verdict).
    pub fn note_retention(&mut self, event: &crate::retention::RetentionEvent) {
        let class = if event.escaped {
            ViolationClass::RetentionEscape
        } else {
            ViolationClass::RetentionViolation
        };
        let what = if event.glitch {
            "transient sense glitch"
        } else {
            "charge droop past retention voltage"
        };
        self.flag(
            class,
            event.cycle,
            event.rank,
            event.bank,
            format!(
                "{what} on row {} ({} cycles since last restore)",
                event.row, event.interval_cycles
            ),
        );
    }

    /// Recorded violations, oldest first (capped; see [`Self::total`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations observed, including any beyond the recording cap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Violations with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Error)
    }

    fn flag(&mut self, class: ViolationClass, cycle: Cycle, rank: u8, bank: u8, detail: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation {
                class,
                cycle,
                rank,
                bank,
                detail,
            });
        }
    }

    /// Observes one command. `rt` is the resolved row timing for ACTIVATE
    /// commands (pass the class-0 baseline for everything else).
    pub fn observe(&mut self, cmd: &Command, rt: RowTiming) {
        let now = cmd.cycle;
        let (rank, bank) = (cmd.addr.rank, cmd.addr.bank);
        if cmd.kind != CommandKind::ModeChange {
            if self.last_cmd == Some(now) {
                self.flag(
                    ViolationClass::BusConflict,
                    now,
                    rank,
                    bank,
                    "two commands in one command-bus cycle".to_string(),
                );
            }
            self.last_cmd = Some(now);
        }
        if rank as usize >= self.ranks.len() {
            return; // out-of-geometry commands never reach the stream
        }
        match cmd.kind {
            CommandKind::Activate => self.observe_activate(cmd, rt),
            CommandKind::Read | CommandKind::Write => self.observe_cas(cmd),
            CommandKind::Precharge => self.observe_precharge(cmd),
            CommandKind::Refresh => self.observe_refresh(cmd),
            CommandKind::ModeChange => self.observe_mode_change(cmd),
        }
    }

    fn observe_activate(&mut self, cmd: &Command, rt: RowTiming) {
        let now = cmd.cycle;
        let (rank, bank, row) = (cmd.addr.rank, cmd.addr.bank, cmd.addr.row);
        let ts = self.cfg.timing.clone();
        let r = &self.ranks[rank as usize];
        if bank as usize >= r.banks.len() {
            return;
        }
        let mut flags: Vec<(ViolationClass, String)> = Vec::new();
        if now < r.refresh_until {
            flags.push((
                ViolationClass::TrfcViolation,
                format!("ACT during refresh; rank busy until {}", r.refresh_until),
            ));
        }
        if now < r.next_act {
            flags.push((
                ViolationClass::TrrdViolation,
                format!("tRRD not met; earliest ACT at {}", r.next_act),
            ));
        }
        if r.act_window.len() == 4 {
            let window_end = r.act_window[0] + ts.t_faw as Cycle;
            if now < window_end {
                flags.push((
                    ViolationClass::TfawViolation,
                    format!("fifth ACT before tFAW window ends at {window_end}"),
                ));
            }
        }
        let b = &r.banks[bank as usize];
        if let Some(open) = b.open_row {
            flags.push((
                ViolationClass::ActOnOpenBank,
                format!("row {open} still open"),
            ));
        } else if now < b.next_act {
            flags.push((
                ViolationClass::TrcViolation,
                format!("tRP/tRC not met; bank ready at {}", b.next_act),
            ));
        }
        if let Some(limit) = self.cfg.retention_limit {
            // Replay-side retention rule: a fast-class ACT must come within
            // the budget of a restore event (rank REFRESH or same-row ACT).
            let last_restore = r
                .last_refresh
                .unwrap_or(0)
                .max(b.last_act.get(&row).copied().unwrap_or(0));
            let since = now.saturating_sub(last_restore);
            if cmd.class.0 != 0 && since > limit {
                flags.push((
                    ViolationClass::RetentionViolation,
                    format!(
                        "fast-class ACT {since} cycles after last restore exceeds limit {limit}"
                    ),
                ));
            }
        }
        for (class, detail) in flags {
            self.flag(class, now, rank, bank, detail);
        }
        let limit_armed = self.cfg.retention_limit.is_some();
        let r = &mut self.ranks[rank as usize];
        let b = &mut r.banks[bank as usize];
        if limit_armed {
            b.last_act.insert(row, now);
        }
        b.open_row = Some(row);
        b.next_cas = now + rt.t_rcd as Cycle;
        b.next_pre = now + rt.t_ras as Cycle;
        b.next_act = now + (rt.t_ras + ts.t_rp) as Cycle;
        if r.act_window.len() == 4 {
            r.act_window.pop_front();
        }
        r.act_window.push_back(now);
        r.next_act = r.next_act.max(now + ts.t_rrd as Cycle);
    }

    fn observe_cas(&mut self, cmd: &Command) {
        let now = cmd.cycle;
        let (rank, bank, row) = (cmd.addr.rank, cmd.addr.bank, cmd.addr.row);
        let ts = self.cfg.timing.clone();
        let is_read = cmd.kind == CommandKind::Read;
        let mut flags: Vec<(ViolationClass, String)> = Vec::new();
        let r = &self.ranks[rank as usize];
        if bank as usize >= r.banks.len() {
            return;
        }
        if now < r.refresh_until {
            flags.push((
                ViolationClass::TrfcViolation,
                format!("CAS during refresh; rank busy until {}", r.refresh_until),
            ));
        }
        let b = &r.banks[bank as usize];
        match b.open_row {
            None => flags.push((
                ViolationClass::CasBankMismatch,
                "CAS on a closed bank".to_string(),
            )),
            Some(open) if open != row => flags.push((
                ViolationClass::CasBankMismatch,
                format!("CAS row {row} but row {open} is open"),
            )),
            Some(_) if now < b.next_cas => flags.push((
                ViolationClass::TrcdViolation,
                format!("Early-Access window: CAS legal at {}", b.next_cas),
            )),
            Some(_) => {}
        }
        if !is_read {
            for f in &self.cfg.clone_frames {
                let k = f.k.max(1) as u64;
                let base = f.frame_row - f.frame_row % k;
                if f.rank == rank
                    && f.bank == bank
                    && row >= base
                    && row < base + k
                    && row != f.frame_row
                {
                    flags.push((
                        ViolationClass::CloneWriteCollision,
                        format!(
                            "WRITE to clone row {row} of live {}x frame {}",
                            f.k, f.frame_row
                        ),
                    ));
                }
            }
        }
        for (class, detail) in flags {
            self.flag(class, now, rank, bank, detail);
        }
        let r = &mut self.ranks[rank as usize];
        let b = &mut r.banks[bank as usize];
        if b.open_row.is_some() {
            if is_read {
                b.next_pre = b.next_pre.max(now + ts.t_rtp as Cycle);
            } else {
                let write_end = now + (ts.cwl + ts.burst_cycles) as Cycle;
                b.next_pre = b.next_pre.max(write_end + ts.t_wr as Cycle);
            }
            if cmd.auto_pre {
                let pre_at = b.next_pre.max(now);
                b.open_row = None;
                b.next_act = b.next_act.max(pre_at + ts.t_rp as Cycle);
            }
        }
    }

    fn observe_precharge(&mut self, cmd: &Command) {
        let now = cmd.cycle;
        let (rank, bank) = (cmd.addr.rank, cmd.addr.bank);
        let ts = self.cfg.timing.clone();
        let r = &mut self.ranks[rank as usize];
        if bank as usize >= r.banks.len() {
            return;
        }
        let refresh_until = r.refresh_until;
        let b = &mut r.banks[bank as usize];
        let mut flags: Vec<(ViolationClass, String)> = Vec::new();
        if now < refresh_until {
            flags.push((
                ViolationClass::TrfcViolation,
                format!("PRE during refresh; rank busy until {refresh_until}"),
            ));
        }
        if b.open_row.is_some() {
            if now < b.next_pre {
                flags.push((
                    ViolationClass::TrasViolation,
                    format!("Early-Precharge window: PRE legal at {}", b.next_pre),
                ));
            }
            b.open_row = None;
            b.next_act = b.next_act.max(now + ts.t_rp as Cycle);
        }
        for (class, detail) in flags {
            self.flag(class, now, rank, bank, detail);
        }
    }

    fn observe_refresh(&mut self, cmd: &Command) {
        let now = cmd.cycle;
        let rank = cmd.addr.rank;
        let t_rfc = cmd.t_rfc.unwrap_or(self.cfg.timing.t_rfc);
        let budget = self.cfg.refresh_budget;
        let r = &self.ranks[rank as usize];
        let mut flags: Vec<(ViolationClass, String)> = Vec::new();
        if r.open_banks() > 0 {
            flags.push((
                ViolationClass::RefreshBankOpen,
                format!("{} banks still open", r.open_banks()),
            ));
        }
        if now < r.refresh_until {
            flags.push((
                ViolationClass::TrfcViolation,
                format!("REF during refresh; rank busy until {}", r.refresh_until),
            ));
        } else {
            let bank_ready = r.banks.iter().map(|b| b.next_act).max().unwrap_or(0);
            if now < bank_ready {
                flags.push((
                    ViolationClass::TrcViolation,
                    format!("REF before tRP; banks ready at {bank_ready}"),
                ));
            }
        }
        if let Some(budget) = budget {
            let since = now.saturating_sub(r.last_refresh.unwrap_or(0));
            if since > budget {
                flags.push((
                    ViolationClass::RefreshStarvation,
                    format!("{since} cycles since previous REF exceeds budget {budget}"),
                ));
            }
        }
        for (class, detail) in flags {
            self.flag(class, now, rank, 0, detail);
        }
        let r = &mut self.ranks[rank as usize];
        let until = now + t_rfc as Cycle;
        r.refresh_until = r.refresh_until.max(until);
        for b in &mut r.banks {
            b.next_act = b.next_act.max(until);
        }
        r.last_refresh = Some(now);
    }

    fn observe_mode_change(&mut self, cmd: &Command) {
        let open: usize = self.ranks.iter().map(|r| r.open_banks()).sum();
        if open > 0 {
            self.flag(
                ViolationClass::ModeChangeBankOpen,
                cmd.cycle,
                0,
                0,
                format!("MRS with {open} open banks across the channel"),
            );
        }
    }

    /// Ends the audited timeline at `now`: checks the tail refresh gap
    /// against the budget (a stream that simply stops refreshing must not
    /// escape the starvation check).
    pub fn finish(&mut self, now: Cycle) {
        if let Some(budget) = self.cfg.refresh_budget {
            for rank in 0..self.ranks.len() {
                let last = self.ranks[rank].last_refresh.unwrap_or(0);
                let since = now.saturating_sub(last);
                if since > budget {
                    self.flag(
                        ViolationClass::RefreshStarvation,
                        now,
                        rank as u8,
                        0,
                        format!("{since} cycles since last REF exceeds budget {budget}"),
                    );
                }
            }
        }
    }
}

/// Replays a recorded command stream against `cfg` and returns every
/// violation found. Row-timing classes are resolved via `cfg.classes`;
/// unknown classes are themselves flagged.
pub fn audit_commands(commands: &[Command], cfg: &AuditConfig) -> Vec<Violation> {
    let baseline = RowTiming {
        t_rcd: cfg.timing.t_rcd,
        t_ras: cfg.timing.t_ras,
    };
    let mut auditor = ProtocolAuditor::new(cfg.clone());
    let mut end = 0;
    for cmd in commands {
        let rt = if cmd.kind == CommandKind::Activate {
            match cfg.classes.get(cmd.class.0 as usize) {
                Some(rt) => *rt,
                None => {
                    auditor.flag(
                        ViolationClass::UnknownTimingClass,
                        cmd.cycle,
                        cmd.addr.rank,
                        cmd.addr.bank,
                        format!("class {} not registered", cmd.class.0),
                    );
                    baseline
                }
            }
        } else {
            baseline
        };
        auditor.observe(cmd, rt);
        end = end.max(cmd.cycle);
    }
    auditor.finish(end);
    auditor.violations.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DramAddress;
    use crate::timing::RowTimingClass;

    fn cmd(kind: CommandKind, rank: u8, bank: u8, row: u64, cycle: Cycle) -> Command {
        Command {
            kind,
            addr: DramAddress {
                channel: 0,
                rank,
                bank,
                row,
                col: 0,
            },
            cycle,
            class: RowTimingClass(0),
            auto_pre: false,
            t_rfc: None,
        }
    }

    fn cfg() -> AuditConfig {
        AuditConfig::new(TimingSet::default(), 2, 8)
    }

    #[test]
    fn legal_sequence_is_clean() {
        let cmds = vec![
            cmd(CommandKind::Activate, 0, 0, 3, 0),
            cmd(CommandKind::Read, 0, 0, 3, 11),
            cmd(CommandKind::Precharge, 0, 0, 0, 28),
            cmd(CommandKind::Refresh, 0, 0, 0, 60),
        ];
        assert!(audit_commands(&cmds, &cfg()).is_empty());
    }

    #[test]
    fn early_read_flags_trcd() {
        let cmds = vec![
            cmd(CommandKind::Activate, 0, 0, 3, 0),
            cmd(CommandKind::Read, 0, 0, 3, 10),
        ];
        let v = audit_commands(&cmds, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].class, ViolationClass::TrcdViolation);
    }

    #[test]
    fn early_precharge_flags_tras() {
        let cmds = vec![
            cmd(CommandKind::Activate, 0, 0, 3, 0),
            cmd(CommandKind::Precharge, 0, 0, 0, 27),
        ];
        let v = audit_commands(&cmds, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].class, ViolationClass::TrasViolation);
    }

    #[test]
    fn relaxed_class_shifts_the_checked_window() {
        // 4/4x Table 3 class: tRCD 6 cycles, tRAS 16 cycles.
        let mut c = cfg();
        c.classes.push(RowTiming {
            t_rcd: 6,
            t_ras: 16,
        });
        let mut act = cmd(CommandKind::Activate, 0, 0, 3, 0);
        act.class = RowTimingClass(1);
        let cmds = vec![
            act,
            cmd(CommandKind::Read, 0, 0, 3, 6),
            cmd(CommandKind::Precharge, 0, 0, 0, 16),
        ];
        assert!(audit_commands(&cmds, &c).is_empty());
    }

    #[test]
    fn fifth_act_in_faw_window_flagged() {
        let cmds = vec![
            cmd(CommandKind::Activate, 0, 0, 0, 0),
            cmd(CommandKind::Activate, 0, 1, 0, 5),
            cmd(CommandKind::Activate, 0, 2, 0, 10),
            cmd(CommandKind::Activate, 0, 3, 0, 15),
            cmd(CommandKind::Activate, 0, 4, 0, 20),
        ];
        let v = audit_commands(&cmds, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].class, ViolationClass::TfawViolation);
    }

    #[test]
    fn starvation_budget_catches_silent_streams() {
        let mut c = cfg();
        c.refresh_budget = Some(10_000);
        // One refresh, then silence until cycle 50k on rank 0 (and forever
        // on rank 1).
        let cmds = vec![
            cmd(CommandKind::Refresh, 0, 0, 0, 5_000),
            cmd(CommandKind::Activate, 0, 0, 1, 50_000),
        ];
        let v = audit_commands(&cmds, &c);
        assert!(v
            .iter()
            .any(|v| v.class == ViolationClass::RefreshStarvation && v.rank == 0));
        assert!(v
            .iter()
            .any(|v| v.class == ViolationClass::RefreshStarvation && v.rank == 1));
    }

    #[test]
    fn clone_collision_only_for_non_frame_writes() {
        let mut c = cfg();
        c.clone_frames.push(CloneFrame {
            rank: 0,
            bank: 0,
            frame_row: 8,
            k: 4,
        });
        let mut clean = vec![cmd(CommandKind::Activate, 0, 0, 8, 0)];
        clean.push(cmd(CommandKind::Write, 0, 0, 8, 11));
        assert!(audit_commands(&clean, &c).is_empty());
        let dirty = vec![
            cmd(CommandKind::Activate, 0, 0, 9, 0),
            cmd(CommandKind::Write, 0, 0, 9, 11),
        ];
        let v = audit_commands(&dirty, &c);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].class, ViolationClass::CloneWriteCollision);
    }

    #[test]
    fn mode_change_with_open_bank_is_a_warning() {
        let cmds = vec![
            cmd(CommandKind::Activate, 0, 0, 3, 0),
            cmd(CommandKind::ModeChange, 0, 0, 0, 5),
        ];
        let v = audit_commands(&cmds, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].class, ViolationClass::ModeChangeBankOpen);
        assert_eq!(v[0].severity(), Severity::Warning);
    }

    #[test]
    fn retention_limit_flags_stale_fast_acts_only() {
        let mut c = cfg();
        c.classes.push(RowTiming {
            t_rcd: 6,
            t_ras: 16,
        });
        c.retention_limit = Some(10_000);
        let mut fast = cmd(CommandKind::Activate, 0, 0, 3, 50_000);
        fast.class = RowTimingClass(1);
        let v = audit_commands(&[fast], &c);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].class, ViolationClass::RetentionViolation);
        assert_eq!(v[0].severity(), Severity::Warning);
        // The same stale ACT with baseline class 0 is the safe fallback.
        let slow = cmd(CommandKind::Activate, 0, 0, 3, 50_000);
        assert!(audit_commands(&[slow], &c).is_empty());
    }

    #[test]
    fn retention_limit_resets_on_refresh_and_same_row_act() {
        let mut c = cfg();
        c.classes.push(RowTiming {
            t_rcd: 6,
            t_ras: 16,
        });
        c.retention_limit = Some(10_000);
        c.refresh_budget = None;
        let fast = |cycle| {
            let mut a = cmd(CommandKind::Activate, 0, 0, 3, cycle);
            a.class = RowTimingClass(1);
            a
        };
        let cmds = vec![
            cmd(CommandKind::Refresh, 0, 0, 0, 45_000),
            fast(50_000),
            cmd(CommandKind::Precharge, 0, 0, 0, 50_016),
            // Within budget of the same-row ACT at 50_000 even though the
            // refresh is now stale.
            fast(59_000),
        ];
        assert!(audit_commands(&cmds, &c).is_empty());
    }

    #[test]
    fn note_retention_maps_escape_to_error() {
        let mut a = ProtocolAuditor::new(cfg());
        a.note_retention(&crate::retention::RetentionEvent {
            rank: 0,
            bank: 1,
            row: 7,
            cycle: 99,
            interval_cycles: 1_000,
            detect_latency: 10,
            glitch: false,
            escaped: false,
        });
        a.note_retention(&crate::retention::RetentionEvent {
            rank: 0,
            bank: 1,
            row: 7,
            cycle: 120,
            interval_cycles: 1_000,
            detect_latency: 10,
            glitch: false,
            escaped: true,
        });
        let v = a.violations();
        assert_eq!(v[0].class, ViolationClass::RetentionViolation);
        assert_eq!(v[0].severity(), Severity::Warning);
        assert_eq!(v[1].class, ViolationClass::RetentionEscape);
        assert_eq!(v[1].severity(), Severity::Error);
    }

    #[test]
    fn bus_conflict_detected() {
        let cmds = vec![
            cmd(CommandKind::Activate, 0, 0, 3, 0),
            cmd(CommandKind::Activate, 0, 1, 3, 0),
        ];
        let v = audit_commands(&cmds, &cfg());
        assert!(v.iter().any(|v| v.class == ViolationClass::BusConflict));
    }
}

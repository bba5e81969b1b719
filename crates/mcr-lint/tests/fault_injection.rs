//! Fault-injection coverage for the protocol auditor (ISSUE 2, satellite 3).
//!
//! Each test starts from a *legal* DDR3-1600 command stream and mutates
//! exactly one command (or injects one extra command) so that exactly one
//! auditor rule fires, proving each [`ViolationClass`] is both reachable
//! and precisely attributed. All sixteen classes are exercised (the
//! retention-escape class only arises from live margin events, so its
//! replay-side sibling — the `retention_limit` budget — stands in here).
//! The last test drives live margin events through a whole system instead,
//! to check that `audit_system_point` arms the online auditor itself.

use dram_device::{Command, CommandKind, Cycle, DramAddress, RowTiming, RowTimingClass, TimingSet};
use mcr_dram::{FaultPlan, McrMode, SystemConfig};
use mcr_lint::audit::{
    audit_commands, audit_system_point, AuditConfig, CloneFrame, Severity, Violation,
    ViolationClass,
};

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

/// Asserts the stream produced exactly one violation, of `class`.
fn assert_single(v: &[Violation], class: ViolationClass) {
    assert_eq!(v.len(), 1, "expected one {class:?}, got {v:?}");
    assert_eq!(v[0].class, class, "wrong class: {v:?}");
}

/// The legal skeleton every mutation starts from: open, read at the tRCD
/// deadline (11), close at the tRAS deadline (28), refresh well after tRP.
fn legal() -> Vec<Command> {
    vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::Read, 0, 0, 3, 11),
        cmd(CommandKind::Precharge, 0, 0, 0, 28),
        cmd(CommandKind::Refresh, 0, 0, 0, 60),
    ]
}

#[test]
fn base_stream_is_legal() {
    assert!(audit_commands(&legal(), &cfg()).is_empty());
}

#[test]
fn injected_trcd_violation() {
    let mut cmds = legal();
    cmds[1].cycle = 10; // READ one cycle inside the tRCD = 11 window
    assert_single(
        &audit_commands(&cmds, &cfg()),
        ViolationClass::TrcdViolation,
    );
}

#[test]
fn injected_tras_violation() {
    // Drop the READ so only the early PRECHARGE (27 < tRAS = 28) fires.
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::Precharge, 0, 0, 0, 27),
    ];
    assert_single(
        &audit_commands(&cmds, &cfg()),
        ViolationClass::TrasViolation,
    );
}

#[test]
fn injected_trc_violation() {
    // Re-ACTIVATE at PRE + tRP - 1 = 38 (legal from 39 = tRC after ACT@0).
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::Read, 0, 0, 3, 11),
        cmd(CommandKind::Precharge, 0, 0, 0, 28),
        cmd(CommandKind::Activate, 0, 0, 5, 38),
    ];
    assert_single(&audit_commands(&cmds, &cfg()), ViolationClass::TrcViolation);
}

#[test]
fn injected_trrd_violation() {
    // Second ACT on a sibling bank at tRRD - 1 = 4.
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::Activate, 0, 1, 3, 4),
    ];
    assert_single(
        &audit_commands(&cmds, &cfg()),
        ViolationClass::TrrdViolation,
    );
}

#[test]
fn injected_tfaw_violation() {
    // Fifth ACT at cycle 20, inside the tFAW = 24 window opened at cycle 0.
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 0, 0),
        cmd(CommandKind::Activate, 0, 1, 0, 5),
        cmd(CommandKind::Activate, 0, 2, 0, 10),
        cmd(CommandKind::Activate, 0, 3, 0, 15),
        cmd(CommandKind::Activate, 0, 4, 0, 20),
    ];
    assert_single(
        &audit_commands(&cmds, &cfg()),
        ViolationClass::TfawViolation,
    );
}

#[test]
fn injected_trfc_violation() {
    // PRE one cycle before the refresh recovery (tRFC = 88) completes.
    // (An ACT would also trip the bank-ready/tRC window the refresh set,
    // so a closed-bank PRE is the one-rule injection for this class.)
    let cmds = vec![
        cmd(CommandKind::Refresh, 0, 0, 0, 0),
        cmd(CommandKind::Precharge, 0, 0, 0, 87),
    ];
    assert_single(
        &audit_commands(&cmds, &cfg()),
        ViolationClass::TrfcViolation,
    );
}

#[test]
fn fast_refresh_override_shortens_the_trfc_window() {
    // With the 4/4x Fast-Refresh tRFC = 61 cycles (76.15 ns, Table 3) a
    // PRE@87 is legal; at 60 it is still inside the shortened window.
    let mut refresh = cmd(CommandKind::Refresh, 0, 0, 0, 0);
    refresh.t_rfc = Some(61);
    let legal_pre = cmd(CommandKind::Precharge, 0, 0, 0, 87);
    assert!(audit_commands(&[refresh, legal_pre], &cfg()).is_empty());
    let early_pre = cmd(CommandKind::Precharge, 0, 0, 0, 60);
    assert_single(
        &audit_commands(&[refresh, early_pre], &cfg()),
        ViolationClass::TrfcViolation,
    );
}

#[test]
fn injected_cas_bank_mismatch() {
    // READ with no open row in the bank.
    let cmds = vec![cmd(CommandKind::Read, 0, 0, 3, 0)];
    assert_single(
        &audit_commands(&cmds, &cfg()),
        ViolationClass::CasBankMismatch,
    );
}

#[test]
fn injected_act_on_open_bank() {
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::Activate, 0, 0, 5, 100),
    ];
    assert_single(
        &audit_commands(&cmds, &cfg()),
        ViolationClass::ActOnOpenBank,
    );
}

#[test]
fn injected_refresh_with_open_bank() {
    // Drop the PRECHARGE from the legal skeleton: REFRESH@60 now hits an
    // open bank.
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::Read, 0, 0, 3, 11),
        cmd(CommandKind::Refresh, 0, 0, 0, 60),
    ];
    assert_single(
        &audit_commands(&cmds, &cfg()),
        ViolationClass::RefreshBankOpen,
    );
}

#[test]
fn injected_refresh_starvation() {
    // Single-rank config so only the seeded gap (not an unrefreshed
    // sibling rank) can fire. Budget 10k cycles, gap 50k.
    let mut c = AuditConfig::new(TimingSet::default(), 1, 8);
    c.refresh_budget = Some(10_000);
    let cmds = vec![
        cmd(CommandKind::Refresh, 0, 0, 0, 0),
        cmd(CommandKind::Refresh, 0, 0, 0, 50_000),
    ];
    assert_single(
        &audit_commands(&cmds, &c),
        ViolationClass::RefreshStarvation,
    );
}

#[test]
fn injected_mode_change_with_open_banks_warns() {
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::ModeChange, 0, 0, 0, 50),
    ];
    let v = audit_commands(&cmds, &cfg());
    assert_single(&v, ViolationClass::ModeChangeBankOpen);
    // Sec. 4.4 quiesce concern is a modeling warning, not a hard error.
    assert_eq!(v[0].severity(), Severity::Warning);
}

#[test]
fn injected_clone_write_collision() {
    // Frame row 8 of a 4x group (rows 8..12) holds live data; writing a
    // sibling clone row raises all four wordlines and destroys it.
    let mut c = cfg();
    c.clone_frames.push(CloneFrame {
        rank: 0,
        bank: 0,
        frame_row: 8,
        k: 4,
    });
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 9, 0),
        cmd(CommandKind::Write, 0, 0, 9, 11),
    ];
    assert_single(
        &audit_commands(&cmds, &c),
        ViolationClass::CloneWriteCollision,
    );
    // Writing the frame row itself is fine.
    let frame_cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 8, 0),
        cmd(CommandKind::Write, 0, 0, 8, 11),
    ];
    assert!(audit_commands(&frame_cmds, &c).is_empty());
}

#[test]
fn injected_bus_conflict() {
    // Two commands in the same cycle on the one-command-per-cycle bus
    // (different ranks, so no timing rule can fire instead).
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::Activate, 1, 0, 3, 0),
    ];
    assert_single(&audit_commands(&cmds, &cfg()), ViolationClass::BusConflict);
}

#[test]
fn injected_unknown_timing_class() {
    let mut act = cmd(CommandKind::Activate, 0, 0, 3, 0);
    act.class = RowTimingClass(9); // never registered
    assert_single(
        &audit_commands(&[act], &cfg()),
        ViolationClass::UnknownTimingClass,
    );
}

#[test]
fn retention_limit_replay_flags_stale_fast_acts_only() {
    // Replay-side retention budget: a fast-class ACT 50k cycles after the
    // last restore breaches limit 10k and warns; the same stale ACT with
    // the baseline class is the always-safe path and stays clean.
    let mut c = cfg();
    c.classes.push(RowTiming {
        t_rcd: 6,
        t_ras: 16,
    });
    c.retention_limit = Some(10_000);
    let mut fast = cmd(CommandKind::Activate, 0, 0, 3, 50_000);
    fast.class = RowTimingClass(1);
    let v = audit_commands(&[fast], &c);
    assert_single(&v, ViolationClass::RetentionViolation);
    assert_eq!(v[0].severity(), Severity::Warning);
    let slow = cmd(CommandKind::Activate, 0, 0, 3, 50_000);
    assert!(audit_commands(&[slow], &c).is_empty());
}

#[test]
fn retention_limit_replay_resets_on_refresh() {
    // A REFRESH 2k cycles before the fast ACT restarts the budget clock,
    // so the formerly-stale activation is clean again.
    let mut c = cfg();
    c.classes.push(RowTiming {
        t_rcd: 6,
        t_ras: 16,
    });
    c.retention_limit = Some(10_000);
    let mut fast = cmd(CommandKind::Activate, 0, 0, 3, 50_000);
    fast.class = RowTimingClass(1);
    let cmds = vec![cmd(CommandKind::Refresh, 0, 0, 0, 48_000), fast];
    assert!(audit_commands(&cmds, &c).is_empty());
}

#[test]
fn mode_change_under_fire_attributes_both_violations() {
    // A guardband MRS racing an in-flight ACT: the mode change lands with
    // the bank open (warning) and the next fast-class ACT is already past
    // the retention budget (warning). Both must be attributed, neither
    // may mask the other.
    let mut c = cfg();
    c.classes.push(RowTiming {
        t_rcd: 6,
        t_ras: 16,
    });
    c.retention_limit = Some(10_000);
    let mut stale_fast = cmd(CommandKind::Activate, 0, 1, 7, 50_000);
    stale_fast.class = RowTimingClass(1);
    let cmds = vec![
        cmd(CommandKind::Activate, 0, 0, 3, 0),
        cmd(CommandKind::ModeChange, 0, 0, 0, 40),
        stale_fast,
    ];
    let v = audit_commands(&cmds, &c);
    assert_eq!(
        v.len(),
        2,
        "expected MRS warning + retention warning: {v:?}"
    );
    assert_eq!(v[0].class, ViolationClass::ModeChangeBankOpen);
    assert_eq!(v[1].class, ViolationClass::RetentionViolation);
    assert!(v.iter().all(|v| v.severity() == Severity::Warning));
}

#[test]
fn relaxed_class_moves_the_injection_point() {
    // Under the registered 4/4x class (tRCD 6, tRAS 16, Table 3) the
    // formerly-illegal READ@6 is clean, and the violation point moves to 5.
    let mut c = cfg();
    c.classes.push(RowTiming {
        t_rcd: 6,
        t_ras: 16,
    });
    let mut act = cmd(CommandKind::Activate, 0, 0, 3, 0);
    act.class = RowTimingClass(1);
    let ok = vec![act, cmd(CommandKind::Read, 0, 0, 3, 6)];
    assert!(audit_commands(&ok, &c).is_empty());
    let bad = vec![act, cmd(CommandKind::Read, 0, 0, 3, 5)];
    assert_single(&audit_commands(&bad, &c), ViolationClass::TrcdViolation);
}

#[test]
fn audit_system_point_arms_the_auditor_in_any_build() {
    // The armed detector catches glitched senses, and the online auditor
    // logs each catch as a warning: warnings appear only if it saw the
    // stream, which no release-build channel arms it for by default.
    let config = SystemConfig::single_core("libq", 2_000)
        .with_mode(McrMode::new(2, 4, 1.0).expect("Table 1 mode"))
        .with_fault_plan(FaultPlan::new(0x0fa7_17ed).with_sense_glitches(0.05));
    let audit = audit_system_point("glitches", &config).expect("valid point");
    assert!(audit.errors.is_empty(), "{:?}", audit.errors);
    assert!(audit.warnings > 0, "no warning recorded: auditor disarmed");
}

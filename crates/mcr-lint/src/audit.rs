//! Audit front-ends: refresh-schedule replay (Fig. 8 × Fig. 9) and the
//! experiment-suite protocol audit.
//!
//! The command-stream protocol auditor itself lives in
//! [`dram_device::audit`] (re-exported here) so it can shadow the channel
//! online; this module adds the two replay drivers `mcr-lint` runs:
//!
//! * [`audit_refresh_schedule`] — drives the Refresh-Skipping policy
//!   (Fig. 9) with the device's refresh counter (Fig. 8) and checks, per
//!   MCR clone group, that exactly M of its K per-sweep visits issue and
//!   that no group's refresh gap exceeds its 64/M ms retention budget.
//! * [`audit_suite`] — runs a fig9/fig11-style set of system
//!   configurations end to end with the online auditor armed and turns
//!   any recorded violation into a diagnostic.

pub use dram_device::{
    audit_commands, AuditConfig, CloneFrame, ProtocolAuditor, Severity, Violation, ViolationClass,
};

use crate::Diagnostic;
use dram_device::{RefreshCounter, RefreshWiring};
use mcr_dram::{
    ConfigError, DeviceClass, FaultPlan, McrMode, McrPolicy, McrTimingTable, Mechanisms, RegionMap,
    System, SystemConfig, WEDGE_CAP,
};
use mem_controller::{DevicePolicy, RefreshAction};
use std::collections::HashMap;

/// At most this many diagnostics are emitted per rule code; the rest are
/// folded into one summary warning so a badly broken schedule doesn't
/// produce one diagnostic per clone group.
const MAX_PER_CODE: usize = 8;

struct CappedDiags {
    diags: Vec<Diagnostic>,
    counts: HashMap<&'static str, usize>,
}

impl CappedDiags {
    fn new() -> Self {
        CappedDiags {
            diags: Vec::new(),
            counts: HashMap::new(),
        }
    }

    fn push(&mut self, d: Diagnostic) {
        let n = self.counts.entry(d.code).or_insert(0);
        *n += 1;
        if *n <= MAX_PER_CODE {
            self.diags.push(d);
        }
    }

    fn finish(mut self) -> Vec<Diagnostic> {
        for (code, n) in self.counts {
            if n > MAX_PER_CODE {
                self.diags.push(Diagnostic::warning(
                    "audit/truncated",
                    code,
                    format!("{} further findings suppressed", n - MAX_PER_CODE),
                    "diagnostic cap",
                ));
            }
        }
        self.diags
    }
}

/// Replays `sweeps` full refresh-counter sweeps of a `2^row_bits`-row bank
/// against the Fig. 9 Refresh-Skipping policy for `regions` and checks the
/// per-group refresh arithmetic:
///
/// * normal rows are always refreshed normally (never skipped, never
///   Fast-Refreshed);
/// * every MCR clone group gets exactly M issued refreshes per sweep when
///   Refresh-Skipping is on (all K visits issue when it is off);
/// * the gap between consecutive issued refreshes of any group never
///   exceeds the mode's 64/M ms retention budget (Fig. 8's argument for
///   the reversed counter wiring: direct wiring fails this for K > 1).
pub fn audit_refresh_schedule(
    name: &str,
    regions: &RegionMap,
    mechanisms: Mechanisms,
    wiring: RefreshWiring,
    row_bits: u32,
    sweeps: u32,
) -> Vec<Diagnostic> {
    assert!(sweeps >= 2, "gap analysis needs at least two sweeps");
    let table = McrTimingTable::paper(DeviceClass::OneGb);
    let mut policy = McrPolicy::from_regions(regions.clone(), mechanisms, &table, 1, row_bits);
    let mut counter = RefreshCounter::new(row_bits, wiring);
    let rows = 1u64 << row_bits;
    let slot_ms = 64.0 / rows as f64;
    let mut out = CappedDiags::new();
    // (tier, group base row) -> global slot indices of issued refreshes.
    let mut issues: HashMap<(usize, u64), Vec<u64>> = HashMap::new();
    for slot in 0..rows * u64::from(sweeps) {
        let row = counter.advance();
        let action = policy.refresh_action(0, row);
        match regions.classify(row) {
            None => match action {
                RefreshAction::Normal => {}
                RefreshAction::Skip => out.push(Diagnostic::error(
                    "refresh/skip-normal-row",
                    format!("{name} row {row}"),
                    "Refresh-Skipping dropped a normal row's refresh slot",
                    "paper Fig. 9 (skipping applies to MCR rows only)",
                )),
                RefreshAction::Fast(t) => out.push(Diagnostic::error(
                    "refresh/fast-normal-row",
                    format!("{name} row {row}"),
                    format!("normal row refreshed with Fast-Refresh tRFC {t}"),
                    "paper Sec. 3.3 (Fast-Refresh applies to MCR rows only)",
                )),
            },
            Some((tier, region)) => {
                if !matches!(action, RefreshAction::Skip) {
                    issues
                        .entry((tier, region.group_base(row)))
                        .or_default()
                        .push(slot);
                }
            }
        }
    }
    for (tier, region) in regions.regions().iter().enumerate() {
        let mode = region.mode();
        let expected = if mechanisms.refresh_skipping {
            u64::from(mode.m())
        } else {
            u64::from(mode.k())
        };
        let budget_ms = mode.refresh_interval_ms();
        // Every group of this region, bank-wide (region bounds repeat per
        // 512-row sub-array).
        let k = u64::from(mode.k());
        for base in (0..rows).step_by(k as usize) {
            if !region.contains(base) {
                continue;
            }
            let group_issues = issues.remove(&(tier, base)).unwrap_or_default();
            for sweep in 0..u64::from(sweeps) {
                let in_sweep = group_issues.iter().filter(|&&s| s / rows == sweep).count() as u64;
                if in_sweep != expected {
                    out.push(Diagnostic::error(
                        "refresh/issue-count",
                        format!("{name} tier {tier} group {base} sweep {sweep}"),
                        format!(
                            "{in_sweep} of {} visits issued; mode {}/{}x requires exactly {expected}",
                            mode.k(),
                            mode.m(),
                            mode.k()
                        ),
                        "paper Fig. 9 (M of K refresh slots issue)",
                    ));
                }
            }
            // Retention: consecutive issued refreshes (across sweep
            // boundaries) must stay within 64/M ms. Allow 1.5 slots of
            // quantization slack on top of the budget.
            for pair in group_issues.windows(2) {
                let gap_ms = (pair[1] - pair[0]) as f64 * slot_ms;
                if gap_ms > budget_ms + 1.5 * slot_ms {
                    out.push(Diagnostic::error(
                        "refresh/retention-gap",
                        format!("{name} tier {tier} group {base}"),
                        format!(
                            "{gap_ms:.2} ms between refreshes exceeds the {budget_ms:.2} ms \
                             budget of mode {}/{}x",
                            mode.m(),
                            mode.k()
                        ),
                        "paper Fig. 8 (uniform per-MCR intervals), footnote 3",
                    ));
                    break; // one gap finding per group is enough
                }
            }
        }
    }
    out.finish()
}

/// Result of auditing one system configuration end to end.
#[derive(Debug)]
pub struct PointAudit {
    /// Display label of the configuration.
    pub label: String,
    /// Cycle count the run finished at.
    pub end_cycle: u64,
    /// Error-severity protocol violations, rendered.
    pub errors: Vec<String>,
    /// Number of warning-severity violations (e.g. MRS with open banks).
    pub warnings: usize,
}

/// Drives an audit replay to completion on the event wheel, bounded by
/// the same generous wedge cap `System::run` enforces.
fn run_to_completion(sys: &mut System) {
    assert!(
        sys.run_until(WEDGE_CAP),
        "audit replay wedged at cycle {}",
        sys.now()
    );
}

/// Builds and runs one [`SystemConfig`] to completion with the online
/// protocol auditor armed (in any build) and collects what the auditor
/// saw, without panicking the way [`System::report`] does on violations.
///
/// # Errors
///
/// Propagates the [`ConfigError`] when the configuration itself is
/// rejected.
pub fn audit_system_point(label: &str, config: &SystemConfig) -> Result<PointAudit, ConfigError> {
    let mut sys = System::try_build(config)?;
    sys.set_audit_enabled(true);
    run_to_completion(&mut sys);
    sys.audit_finish_now();
    let mut errors = Vec::new();
    let mut warnings = 0usize;
    for v in sys.audit_violations() {
        match v.severity() {
            Severity::Error => errors.push(v.to_string()),
            Severity::Warning => warnings += 1,
        }
    }
    Ok(PointAudit {
        label: label.to_string(),
        end_cycle: sys.now(),
        errors,
        warnings,
    })
}

/// Runs the fig9/fig11-style audit suite: representative single-core
/// configurations covering baseline DRAM, every mechanism bundle, maximum
/// Refresh-Skipping, a region boundary, the combined 2x + 4x layout, and a
/// runtime mode change. Every command issued in every run flows through
/// the online protocol auditor; any error-severity violation becomes a
/// diagnostic. The auditor is armed per run, so any build audits.
pub fn audit_suite(trace_len: usize) -> Vec<Diagnostic> {
    let mode = |m, k, l| match McrMode::new(m, k, l) {
        Ok(mode) => mode,
        Err(e) => unreachable!("suite modes are Table 1 literals: {e:?}"),
    };
    let mut points: Vec<(String, SystemConfig)> = vec![
        (
            "baseline-off".to_string(),
            SystemConfig::single_core("libq", trace_len),
        ),
        (
            "4-4x-100".to_string(),
            SystemConfig::single_core("libq", trace_len).with_mode(mode(4, 4, 1.0)),
        ),
        (
            "2-2x-50-boundary".to_string(),
            SystemConfig::single_core("mummer", trace_len).with_mode(mode(2, 2, 0.5)),
        ),
        (
            "1-4x-100-max-skip".to_string(),
            SystemConfig::single_core("libq", trace_len).with_mode(mode(1, 4, 1.0)),
        ),
        (
            "combined-4x25-2x25".to_string(),
            SystemConfig::single_core("libq", trace_len).with_combined_regions(4, 0.25, 2, 0.25),
        ),
        (
            "direct-wiring-4-4x".to_string(),
            SystemConfig::single_core("libq", trace_len)
                .with_mode(mode(4, 4, 1.0))
                .with_wiring(RefreshWiring::Direct),
        ),
    ];
    for case in 1..=4 {
        points.push((
            format!("fig17-case{case}"),
            SystemConfig::single_core("libq", trace_len)
                .with_mode(mode(2, 2, 1.0))
                .with_mechanisms(Mechanisms::fig17_case(case)),
        ));
    }
    // Faulted campaign point: sense glitches + refresh faults with the
    // detector armed. Detected margin violations are warnings (the
    // controller's full-restore retry handles them); any escape is an
    // error-severity violation and fails the suite — the "zero escaped
    // corruptions" guarantee, audited end to end.
    points.push((
        "faulted-2-4x-glitches".to_string(),
        SystemConfig::single_core("libq", trace_len)
            .with_mode(mode(2, 4, 1.0))
            .with_fault_plan(
                FaultPlan::new(0x0fa7_17ed)
                    .with_sense_glitches(0.05)
                    .with_refresh_drops(0.05)
                    .with_late_refreshes(0.05, 1_000),
            ),
    ));
    let mut out = CappedDiags::new();
    for (label, config) in &points {
        match audit_system_point(label, config) {
            Err(e) => out.push(Diagnostic::error(
                "audit/config",
                label.clone(),
                format!("configuration rejected: {e}"),
                "paper Table 1 / Table 4",
            )),
            Ok(audit) => {
                for v in &audit.errors {
                    out.push(Diagnostic::error(
                        "audit/protocol",
                        label.clone(),
                        v.clone(),
                        "paper Sec. 4, Table 3 (JEDEC + MCR command rules)",
                    ));
                }
            }
        }
    }
    // A runtime MRS relaxation (Sec. 4.4): 4x -> 2x mid-run must stay
    // audit-clean apart from (tolerated) mode-change warnings.
    let mut sys = match System::try_build(
        &SystemConfig::single_core("libq", trace_len).with_mode(mode(4, 4, 1.0)),
    ) {
        Ok(sys) => sys,
        Err(e) => {
            out.push(Diagnostic::error(
                "audit/config",
                "mode-change",
                format!("configuration rejected: {e}"),
                "paper Table 1 / Table 4",
            ));
            return out.finish();
        }
    };
    sys.set_audit_enabled(true);
    sys.run_until(2_000);
    if let Err(e) = sys.reconfigure(mode(2, 2, 1.0)) {
        out.push(Diagnostic::error(
            "audit/config",
            "mode-change",
            format!("mode change rejected: {e}"),
            "paper Sec. 4.4, Table 2",
        ));
        return out.finish();
    }
    run_to_completion(&mut sys);
    sys.audit_finish_now();
    for v in sys.audit_violations() {
        if v.severity() == Severity::Error {
            out.push(Diagnostic::error(
                "audit/protocol",
                "mode-change",
                v.to_string(),
                "paper Sec. 4.4, Table 2 (runtime mode change)",
            ));
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(m: u32, k: u32, l: f64) -> RegionMap {
        RegionMap::single(McrMode::new(m, k, l).unwrap())
    }

    #[test]
    fn reversed_wiring_schedules_are_clean() {
        for (m, k, l) in [
            (1, 1, 1.0),
            (2, 2, 1.0),
            (1, 4, 1.0),
            (2, 4, 0.5),
            (4, 4, 0.25),
        ] {
            let map = if k == 1 {
                RegionMap::single(McrMode::off())
            } else {
                single(m, k, l)
            };
            let diags = audit_refresh_schedule(
                "reversed",
                &map,
                Mechanisms::all(),
                RefreshWiring::Reversed,
                11,
                3,
            );
            assert!(diags.is_empty(), "[{m}/{k}x/{l}]: {diags:?}");
        }
    }

    #[test]
    fn direct_wiring_breaks_retention_for_skipping_modes() {
        // Fig. 8's point: with K-to-K wiring the policy's visit-index
        // arithmetic no longer spaces issues 64/M ms apart.
        let diags = audit_refresh_schedule(
            "direct",
            &single(2, 4, 1.0),
            Mechanisms::all(),
            RefreshWiring::Direct,
            11,
            3,
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == "refresh/retention-gap" || d.code == "refresh/issue-count"),
            "direct wiring should violate uniformity: {diags:?}"
        );
    }

    #[test]
    fn skipping_off_issues_every_visit() {
        let mech = Mechanisms {
            refresh_skipping: false,
            ..Mechanisms::all()
        };
        let diags = audit_refresh_schedule(
            "no-skip",
            &single(1, 4, 1.0),
            mech,
            RefreshWiring::Reversed,
            10,
            2,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}

//! Golden-report regression suite.
//!
//! Every Table-3 mode (plus one combined-region config) is run with a
//! fixed seed and its scalar outcome — execution time, latency, EDP,
//! refresh counts, telemetry command totals — is compared byte-for-byte
//! against a checked-in JSON snapshot in `tests/goldens/`. Reports are
//! pure functions of the config, so any drift here is a real behaviour
//! change: either a bug or an intentional change that must be blessed.
//!
//! Regenerate the snapshots after an intentional change with
//!
//! ```text
//! MCR_BLESS=1 cargo test -p mcr-dram --test golden_reports
//! ```
//!
//! (or `make bless`), then review the diff like any other code change.
//! The goldens assume the default `telemetry` feature; run this suite
//! with default features.

use mcr_dram::{McrMode, RunReport, System, SystemConfig};
use std::path::{Path, PathBuf};
use trace_gen::multi_programmed_mixes;

// Long enough that refresh management (normal, fast, skipped) is
// exercised and frozen in the snapshots; short runs never cross tREFI.
const LEN: usize = 20_000;

/// The six Table-3 modes plus the Sec. 4.4 combined-region config, with
/// stable snapshot names, and two multi-core cases that pin the order in
/// which several cores reach the controller.
fn golden_cases() -> Vec<(&'static str, SystemConfig)> {
    let mode_cases = [
        ("mode_1_1x", McrMode::off()),
        ("mode_1_2x", mode(1, 2)),
        ("mode_2_2x", mode(2, 2)),
        ("mode_1_4x", mode(1, 4)),
        ("mode_2_4x", mode(2, 4)),
        ("mode_4_4x", mode(4, 4)),
    ];
    let mut cases: Vec<(&'static str, SystemConfig)> = mode_cases
        .into_iter()
        .map(|(name, m)| (name, SystemConfig::single_core("libq", LEN).with_mode(m)))
        .collect();
    cases.push((
        "combined_4x25_2x25",
        SystemConfig::single_core("libq", LEN)
            .with_combined_regions(4, 0.25, 2, 0.25)
            .with_alloc_ratio(0.20),
    ));
    // Eight libq cores on one channel keep the controller's queues full,
    // so this case pins the order of refused and retried requests.
    let libq = *trace_gen::workload("libq").expect("built-in workload");
    cases.push((
        "libq_x8_queue_full",
        SystemConfig {
            workloads: vec![libq; 8],
            ..SystemConfig::single_core("libq", LEN / 4)
        },
    ));
    cases.push((
        "mix01_4_4x",
        SystemConfig::multi_core_mix(&multi_programmed_mixes(2015)[0], LEN)
            .with_mode(McrMode::headline()),
    ));
    cases
}

fn mode(m: u32, k: u32) -> McrMode {
    McrMode::new(m, k, 1.0).expect("valid Table 1 mode")
}

/// The scalar fields frozen in the snapshot. Floats use `{:?}` (shortest
/// round-trip) so the rendering itself cannot drift.
fn snapshot(label: &str, r: &RunReport) -> String {
    let (acts, reads, writes, pres) = r.telemetry.command_totals();
    format!(
        "{{\n  \"label\": \"{label}\",\n  \"exec_cpu_cycles\": {},\n  \"exec_ns\": {:?},\n  \"total_mem_cycles\": {},\n  \"reads_done\": {},\n  \"instructions\": {},\n  \"avg_read_latency\": {:?},\n  \"edp\": {:?},\n  \"energy_total_pj\": {:?},\n  \"refresh_normal\": {},\n  \"refresh_fast\": {},\n  \"refresh_skipped\": {},\n  \"cmd_activates\": {},\n  \"cmd_reads\": {},\n  \"cmd_writes\": {},\n  \"cmd_precharges\": {},\n  \"act_to_data_p95\": {},\n  \"read_latency_p99\": {}\n}}\n",
        r.exec_cpu_cycles,
        r.exec_ns(),
        r.total_mem_cycles,
        r.reads_done,
        r.instructions,
        r.avg_read_latency,
        r.edp,
        r.energy.total_pj(),
        r.controller.refresh.normal,
        r.controller.refresh.fast,
        r.controller.refresh.skipped,
        acts,
        reads,
        writes,
        pres,
        r.telemetry.act_to_data.p95().unwrap_or(0),
        r.telemetry.controller.read_latency.p99().unwrap_or(0),
    )
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(format!("{name}.json"))
}

fn blessing() -> bool {
    std::env::var_os("MCR_BLESS").is_some_and(|v| v == "1")
}

#[test]
fn reports_match_goldens() {
    let mut mismatches = Vec::new();
    for (name, cfg) in golden_cases() {
        let report = System::build(&cfg).run();
        let rendered = snapshot(name, &report);
        let path = golden_path(name);
        if blessing() {
            std::fs::write(&path, &rendered)
                .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); generate with MCR_BLESS=1 (make bless)",
                path.display()
            )
        });
        if rendered != golden {
            mismatches.push(format!(
                "--- {name}: report drifted from {} ---\ngolden:\n{golden}\ngot:\n{rendered}",
                path.display()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} golden report(s) drifted; if intentional, re-bless with \
         MCR_BLESS=1 (make bless) and review the diff:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn snapshot_rendering_is_deterministic() {
    let (_, cfg) = golden_cases().remove(0);
    let a = snapshot("x", &System::build(&cfg).run());
    let b = snapshot("x", &System::build(&cfg).run());
    assert_eq!(a, b, "same config must render the same snapshot");
}

#[test]
fn zero_rate_fault_plan_does_not_drift_goldens() {
    // The fault-injection subsystem must be invisible to the golden
    // surface when its plan injects nothing: arming an all-zero
    // FaultPlan turns the margin detector on, but every byte of the
    // rendered snapshot must match the plain run's.
    for (name, cfg) in golden_cases() {
        let plain = snapshot(name, &System::build(&cfg).run());
        let armed_cfg = cfg.with_fault_plan(mcr_dram::FaultPlan::new(2015));
        let armed = snapshot(name, &System::build(&armed_cfg).run());
        assert_eq!(
            plain, armed,
            "{name}: an inert fault plan changed the golden snapshot"
        );
    }
}

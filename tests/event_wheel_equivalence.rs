//! Event-wheel ⇄ dense-drive equivalence suite.
//!
//! The §5h event wheel is a pure wall-clock optimization: skipping a
//! quiet span must leave every architecturally visible outcome —
//! [`mcr_dram::RunReport`], telemetry histograms, the completion cycle —
//! bit-identical to executing the same span one memory cycle at a time.
//! These tests run the same seeded config under both drives
//! ([`System::set_skip_ahead`] selects the reference dense drive) and
//! compare the full reports with `assert_eq!`. Any drift here is a
//! missing or late wheel edge, never a tolerance question.

use mcr_dram::{
    FaultPlan, GuardbandConfig, McrMode, RowCacheConfig, RunReport, System, SystemConfig,
};
use mem_controller::{RowPolicy, SchedulerKind};
use trace_gen::multi_programmed_mixes;

const LEN: usize = 8_000;

fn mode(m: u32, k: u32) -> McrMode {
    McrMode::new(m, k, 1.0).expect("valid Table 1 mode")
}

/// Runs `cfg` under the event wheel and under the dense reference drive;
/// returns both reports for comparison.
fn wheel_and_dense(cfg: &SystemConfig) -> (RunReport, RunReport) {
    let wheel = System::build(cfg).run();
    let mut dense = System::build(cfg);
    dense.set_skip_ahead(false);
    (wheel, dense.run())
}

/// Asserts that both drives report alike, and that each one's `exec`
/// section accounts for every simulated cycle. Returns the wheel's report.
fn assert_identical(label: &str, cfg: &SystemConfig) -> RunReport {
    let (wheel, dense) = wheel_and_dense(cfg);
    assert_eq!(wheel, dense, "{label}: wheel and dense reports differ");
    let e = dense.exec;
    assert_eq!(
        e.dense_cycles, dense.total_mem_cycles,
        "{label}: dense exec"
    );
    assert_eq!(
        e.quiet_skipped_cycles + e.overlapped_span_cycles,
        0,
        "{label}: dense exec"
    );
    assert_eq!(
        e.controller_ticks, dense.total_mem_cycles,
        "{label}: dense exec"
    );
    let e = wheel.exec;
    assert_eq!(
        e.dense_cycles + e.quiet_skipped_cycles + e.overlapped_span_cycles,
        wheel.total_mem_cycles,
        "{label}: wheel exec {e:?}"
    );
    assert!(
        (e.overlapped_span_cycles..=e.dense_cycles + e.overlapped_span_cycles)
            .contains(&e.controller_ticks),
        "{label}: wheel exec {e:?}"
    );
    wheel
}

/// Asserts that the wheel ticked the controller in a cycle no core
/// called in, while the cores ran alone, so the case covers that path.
fn assert_overlapped(label: &str, wheel: &RunReport) {
    assert!(
        wheel.exec.overlapped_span_cycles > 0,
        "{label}: no controller tick while the cores ran alone: {:?}",
        wheel.exec
    );
}

#[test]
fn all_mcr_modes_are_wheel_identical() {
    let cases = [
        ("off", McrMode::off()),
        ("1_2x", mode(1, 2)),
        ("2_2x", mode(2, 2)),
        ("1_4x", mode(1, 4)),
        ("2_4x", mode(2, 4)),
        ("4_4x", mode(4, 4)),
    ];
    for (label, m) in cases {
        let cfg = SystemConfig::single_core("libq", LEN).with_mode(m);
        assert_identical(label, &cfg);
    }
}

#[test]
fn combined_region_config_is_wheel_identical() {
    let cfg = SystemConfig::single_core("libq", LEN)
        .with_combined_regions(4, 0.25, 2, 0.25)
        .with_alloc_ratio(0.20);
    assert_identical("combined_4x25_2x25", &cfg);
}

#[test]
fn fault_campaigns_are_wheel_identical() {
    // Nonzero rates on every fault class: dropped and late refreshes
    // interact directly with the wheel's refresh-deadline edges.
    for seed in [7, 2015] {
        let plan = FaultPlan::chaos(seed, 0.05);
        let cfg = SystemConfig::single_core("mummer", LEN)
            .with_mode(mode(2, 2))
            .with_fault_plan(plan)
            .with_seed(seed);
        assert_identical("chaos campaign", &cfg);
    }
}

#[test]
fn powerdown_thresholds_are_wheel_identical() {
    // Power-down entry/exit is the idle-heaviest path the wheel skips
    // across; the entry threshold and pending-entry retries are edges.
    for threshold in [64, 256, 4096] {
        let cfg = SystemConfig::single_core("libq", LEN)
            .with_mode(mode(1, 2))
            .with_powerdown(threshold);
        assert_identical("powerdown", &cfg);
    }
}

#[test]
fn scheduler_and_row_policy_variants_are_wheel_identical() {
    let fcfs = SystemConfig::single_core("libq", LEN)
        .with_mode(mode(2, 2))
        .with_scheduler(SchedulerKind::Fcfs);
    assert_identical("fcfs", &fcfs);
    let closed = SystemConfig::single_core("libq", LEN)
        .with_mode(mode(2, 2))
        .with_row_policy(RowPolicy::Closed);
    assert_identical("closed-row", &closed);
}

#[test]
fn multi_core_mix_is_wheel_identical() {
    let mixes = multi_programmed_mixes(2015);
    let cfg = SystemConfig::multi_core(mixes[0].cores, 2_000).with_mode(McrMode::headline());
    assert_identical(mixes[0].name, &cfg);
}

#[test]
fn mid_run_mode_change_lands_on_the_same_cycle() {
    // A reconfigure between run_until calls must observe the exact same
    // intermediate state under both drives, and both runs must finish on
    // the same cycle with the same report.
    let cfg = SystemConfig::single_core("libq", LEN).with_mode(mode(4, 4));
    let mut wheel = System::build(&cfg);
    let mut dense = System::build(&cfg);
    dense.set_skip_ahead(false);

    assert_eq!(wheel.run_until(2_500), dense.run_until(2_500));
    assert_eq!(wheel.now(), dense.now(), "mid-run cycle differs");
    assert_eq!(
        wheel.telemetry_snapshot(),
        dense.telemetry_snapshot(),
        "telemetry differs at the reconfigure point"
    );

    // Relax [4/4x] -> [2/2x]: the only legal mode-change direction.
    wheel.reconfigure(mode(2, 2)).expect("MCR backend");
    dense.reconfigure(mode(2, 2)).expect("MCR backend");

    assert!(wheel.run_until(u64::MAX), "wheel run did not finish");
    assert!(dense.run_until(u64::MAX), "dense run did not finish");
    assert_eq!(wheel.now(), dense.now(), "completion cycle differs");
    assert_eq!(wheel.report(), dense.report(), "post-change reports differ");
}

#[test]
fn row_cache_copies_are_wheel_identical() {
    // Promotions inject copy traffic under a core id nobody waits on; its
    // completions are dropped, inside overlapped compute spans too.
    let cfg = SystemConfig::single_core("comm2", LEN)
        .with_mode(McrMode::new(4, 4, 0.5).expect("valid Table 1 mode"))
        .with_row_cache(RowCacheConfig {
            promote_threshold: 4,
        });
    let wheel = assert_identical("row cache", &cfg);
    let stats = wheel.cache.expect("row cache armed");
    assert!(stats.promotions > 0, "no copy traffic: {stats:?}");
    assert_overlapped("row cache", &wheel);
}

#[test]
fn guardband_moves_are_wheel_identical() {
    // Sense glitches walk the guardband ladder down and back up; every
    // move reprograms the policy that later ACTIVATEs of the same
    // overlapped span read. Gap-heavy `black` spends most of its cycles
    // in such spans; on `libq` a drive that applied the moves only at
    // the next dense cycle still matched.
    let pacing = GuardbandConfig {
        window: 25_000,
        threshold: 2,
        hysteresis: 2_000,
        backoff_base: 1_000,
        backoff_cap: 2,
    };
    let cfg = SystemConfig::single_core("black", LEN)
        .with_mode(McrMode::headline())
        .with_fault_plan(FaultPlan::new(7).with_sense_glitches(0.02))
        .with_guardband(pacing);
    let wheel = assert_identical("guardband", &cfg);
    let r = &wheel.reliability;
    assert!(
        r.guardband_degrades > 0 && r.guardband_rearms > 0,
        "the ladder never moved both ways: {r:?}"
    );
    assert_overlapped("guardband", &wheel);
}

#[test]
fn quad_core_powerdown_is_wheel_identical() {
    // Four cores finish at different cycles, so overlapped spans run with
    // done cores alongside, across power-down entry and exit edges. The
    // paper's mixes keep the ranks awake (of mix01..mix14 at 2,000
    // operations and 16 idle cycles, only mix12 powers down, once), so
    // this quad runs the gap-heavy `black` on every core.
    let black = trace_gen::workload("black").expect("built-in workload");
    for threshold in [16, 64, 512] {
        let cfg = SystemConfig::multi_core([black; 4], 2_000)
            .with_mode(McrMode::headline())
            .with_powerdown(threshold);
        let label = format!("quad black powerdown {threshold}");
        let wheel = assert_identical(&label, &cfg);
        // At 512 idle cycles the ranks never sleep; the idle timers
        // still arm and reset.
        assert_eq!(
            wheel.telemetry.powerdown_entries > 0,
            threshold < 512,
            "{label}: {} power-down entries",
            wheel.telemetry.powerdown_entries
        );
        assert_overlapped(&label, &wheel);
    }
}

#[test]
fn queue_full_row_cache_is_wheel_identical() {
    // Eight cores keep the read queue full, so fetch stages park on
    // refused enqueues. With a row cache armed, every retry routes
    // through the cache and moves its LRU and promotion state even when
    // refused: a queue retry is then no proof that the core sits a frozen
    // span out. A wheel that accepted it diverged here.
    let libq = *trace_gen::workload("libq").expect("built-in workload");
    let cfg = SystemConfig {
        workloads: vec![libq; 8],
        ..SystemConfig::single_core("libq", 2_000)
    }
    .with_mode(McrMode::new(4, 4, 0.5).expect("valid Table 1 mode"))
    .with_row_cache(RowCacheConfig {
        promote_threshold: 4,
    });
    let wheel = assert_identical("queue-full row cache", &cfg);
    assert!(
        wheel.exec.quiet_skipped_cycles > 0,
        "no frozen span: {:?}",
        wheel.exec
    );
}

#[test]
fn chunked_runs_match_one_run() {
    // `run_until` lands on its target exactly, so every span clamps at a
    // chunk's end and the next chunk starts with a dense cycle. Short,
    // irregular chunks must still reach the cycle and report of one run.
    let mixes = multi_programmed_mixes(2015);
    let black = trace_gen::workload("black").expect("built-in workload");
    let cases = [
        (
            "libq 4/4x",
            SystemConfig::single_core("libq", LEN).with_mode(mode(4, 4)),
        ),
        (
            mixes[0].name,
            SystemConfig::multi_core(mixes[0].cores, 2_000).with_mode(McrMode::headline()),
        ),
        (
            "quad black powerdown 16",
            SystemConfig::multi_core([black; 4], 2_000)
                .with_mode(McrMode::headline())
                .with_powerdown(16),
        ),
    ];
    for (label, cfg) in cases {
        let whole = System::build(&cfg).run();
        let mut sys = System::build(&cfg);
        let mut chunks = [1, 3, 7, 64, 997].into_iter().cycle();
        loop {
            let target = sys.now() + chunks.next().expect("an endless cycle");
            if sys.run_until(target) {
                break;
            }
            assert_eq!(
                sys.now(),
                target,
                "{label}: a chunk did not end on its target"
            );
        }
        assert_eq!(sys.now(), whole.total_mem_cycles, "{label}: end cycle");
        assert_eq!(
            sys.report(),
            whole,
            "{label}: chunked and whole reports differ"
        );
    }
}

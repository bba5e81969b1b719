//! Retention-fault injection and guardband response, end to end.
//!
//! The seeded [`FaultPlan`] perturbs retention physics underneath a live
//! run; the margin detector must catch every weakened sense, the
//! controller must retry with the full-restore baseline class, and the
//! guardband monitor must walk the degrade ladder (Full → NoSkip →
//! FullRas) instead of letting corrupt data escape. Droop-only failures
//! need ~64 ms of simulated time to develop, so these tests lean on
//! sense glitches, which trip the same margin check on any fast-class
//! ACTIVATE regardless of elapsed interval.

use mcr_dram::{
    DegradeLevel, FaultPlan, GuardbandConfig, McrMode, RunReport, SweepBuilder, System,
    SystemConfig,
};

const LEN: usize = 8_000;

fn mcr_config(len: usize) -> SystemConfig {
    SystemConfig::single_core("libq", len).with_mode(McrMode::headline())
}

fn glitch_storm(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_sense_glitches(1.0)
}

#[test]
fn zero_rate_plan_matches_unfaulted_run() {
    // Arming an all-zero plan turns the margin detector on but must not
    // change a single architectural outcome: the checks all pass, no
    // retry fires, and the performance/energy story is bit-identical.
    let clean = System::build(&mcr_config(LEN)).run();
    let armed = System::build(&mcr_config(LEN).with_fault_plan(FaultPlan::new(42))).run();

    assert!(armed.reliability.fault_injection);
    assert_eq!(armed.reliability.fault_seed, 42);
    assert_eq!(armed.reliability.retention_retries, 0);
    assert_eq!(armed.reliability.retention_violations, 0);
    assert_eq!(armed.reliability.retention_escapes, 0);
    assert!(
        armed.reliability.retention_checks > 0,
        "an armed detector must actually evaluate margins"
    );

    assert_eq!(armed.exec_cpu_cycles, clean.exec_cpu_cycles);
    assert_eq!(armed.reads_done, clean.reads_done);
    assert_eq!(armed.avg_read_latency, clean.avg_read_latency);
    assert_eq!(armed.controller, clean.controller);
    assert_eq!(armed.energy, clean.energy);
    assert!(!clean.reliability.fault_injection);
}

#[test]
fn glitch_storm_degrades_gracefully_with_zero_escapes() {
    // Every fast-class ACTIVATE fails its margin check, so the detector
    // retries each one at the full-restore baseline and the guardband
    // ladder steps down. The run must still complete with every read
    // served — slower, never corrupt.
    let clean = System::build(&mcr_config(LEN)).run();

    let cfg = mcr_config(LEN).with_fault_plan(glitch_storm(2015));
    let mut sys = System::build(&cfg);
    assert_eq!(sys.guardband_level(), DegradeLevel::Full);
    assert!(sys.run_until(400_000_000), "faulted run wedged");
    let level = sys.guardband_level();
    let r = sys.report();

    assert!(r.reliability.retention_retries > 0, "detector never fired");
    assert!(
        r.reliability.guardband_degrades >= 1,
        "sustained violations must step the ladder down"
    );
    assert!(r.reliability.guardband_degraded_cycles > 0);
    assert!(
        level > DegradeLevel::Full,
        "storm never quiets, so the run should end degraded"
    );
    assert_eq!(r.reliability.retention_escapes, 0, "corruption escaped");
    assert_eq!(r.reads_done, clean.reads_done, "reads were lost");
    assert!(
        r.exec_cpu_cycles >= clean.exec_cpu_cycles,
        "retries + degraded timing cannot be faster than the clean run \
         ({} vs {})",
        r.exec_cpu_cycles,
        clean.exec_cpu_cycles
    );
    assert_eq!(
        r.reliability.retention_violations,
        r.reliability.retention_retries
    );
    assert!(
        r.telemetry.mode_changes >= r.reliability.guardband_degrades,
        "each ladder step rides the MRS path"
    );
}

#[test]
fn guardband_rearms_after_quiet_window() {
    // A moderate glitch rate produces violation bursts (degrade) with
    // quiet stretches between them; a tightened hysteresis/backoff makes
    // those stretches long enough to win the ladder back (re-arm) within
    // a short trace. Deterministic for a fixed plan seed.
    let pacing = GuardbandConfig {
        window: 25_000,
        threshold: 2,
        hysteresis: 2_000,
        backoff_base: 1_000,
        backoff_cap: 2,
    };
    let cfg = mcr_config(24_000)
        .with_fault_plan(FaultPlan::new(7).with_sense_glitches(0.02))
        .with_guardband(pacing);
    let r = System::build(&cfg).run();
    assert!(r.reliability.guardband_degrades >= 1, "never degraded");
    assert!(
        r.reliability.guardband_rearms >= 1,
        "quiet windows must walk the ladder back up (degrades={}, rearms={})",
        r.reliability.guardband_degrades,
        r.reliability.guardband_rearms
    );
    assert_eq!(r.reliability.retention_escapes, 0);
}

#[test]
fn disarmed_detector_escapes_are_audit_errors() {
    // With the detector fused off, weakened senses proceed and return
    // corrupt data. The protocol auditor must log every one as an
    // error-severity RetentionEscape (which is why this test inspects
    // violations directly instead of calling `report`, which panics on
    // audit errors while the auditor is armed).
    let cfg = mcr_config(LEN).with_fault_plan(
        FaultPlan::new(99)
            .with_sense_glitches(1.0)
            .with_detector(false),
    );
    let mut sys = System::build(&cfg);
    // Armed explicitly: by default only debug builds arm the auditor.
    sys.set_audit_enabled(true);
    assert!(sys.run_until(400_000_000), "wedged");
    sys.audit_finish_now();
    let escapes = sys
        .audit_violations()
        .filter(|v| v.class == dram_device::ViolationClass::RetentionEscape)
        .count();
    assert!(escapes > 0, "disarmed detector produced no escapes");
    assert!(sys
        .audit_violations()
        .filter(|v| v.class == dram_device::ViolationClass::RetentionEscape)
        .all(|v| v.class.severity() == dram_device::Severity::Error));
    // Telemetry counts every escape; the auditor stores at most the
    // first 256 violation records, so it can only lag behind.
    let t = sys.telemetry_snapshot();
    assert!(t.retention_escapes >= escapes as u64);
    assert_eq!(t.retention_violations, 0, "nothing was detected");
    // Dropped without `report()`: the escapes are the expected outcome
    // here, not a test failure.
}

#[test]
fn fault_campaign_is_bit_identical_across_jobs() {
    // The plan's stateless per-query RNG keeps seeded campaigns
    // deterministic, so a sweep must produce byte-identical reports
    // whether it runs serially or on eight workers.
    let rates = [0.0, 0.05, 0.25];
    let build = |jobs: usize| {
        SweepBuilder::new(4_000)
            .fault_campaign(&mcr_config(4_000), &rates, 0xDEAD)
            .jobs(jobs)
            .build()
            .expect("campaign builds")
            .run()
    };
    let serial = build(1);
    let parallel = build(8);
    let a: Vec<&RunReport> = serial.reports();
    let b: Vec<&RunReport> = parallel.reports();
    assert_eq!(a.len(), rates.len());
    assert_eq!(a, b, "jobs=1 and jobs=8 diverged");
    // Rising fault rates must not lose work: every point serves the
    // same reads, only slower.
    let reads: Vec<u64> = a.iter().map(|r| r.reads_done).collect();
    assert!(
        reads.windows(2).all(|w| w[0] == w[1]),
        "reads differ: {reads:?}"
    );
}

#[test]
fn degrade_ladder_is_ordered() {
    assert!(DegradeLevel::Full < DegradeLevel::NoSkip);
    assert!(DegradeLevel::NoSkip < DegradeLevel::FullRas);
}

//! Dynamic MCR-mode change (paper Sec. 4.4, Table 2): relaxing the mode
//! frees capacity without data movement, and the simulator honors a
//! reconfigured mode.

use mcr_dram::experiments::run_single;
use mcr_dram::{
    BackendKind, BackendSpec, ConfigError, McrGenerator, McrMode, Mechanisms, ModeChangePlan,
    System, SystemConfig,
};

#[test]
fn relaxation_chain_grows_capacity_monotonically() {
    let plan = ModeChangePlan::new(4 << 30);
    let mut mode = McrMode::headline();
    let mut last = plan.os_view(mode).bytes;
    while let Some(next) = mode.relaxed() {
        let bytes = plan.os_view(next).bytes;
        assert!(bytes > last, "{next:?} must expose more memory");
        assert!(plan.change_is_collision_free(mode, next));
        last = bytes;
        mode = next;
    }
    assert!(mode.is_off());
    assert_eq!(last, 4 << 30);
}

#[test]
fn mrs_reprogram_switches_generator_behaviour() {
    // Model the MRS sequence: 4x -> 2x -> off on a live generator.
    let mut g = McrGenerator::new(McrMode::headline());
    assert_eq!(g.translate(12).wordlines(), 4);
    g.reprogram(McrMode::new(2, 2, 1.0).unwrap());
    assert_eq!(g.translate(12).wordlines(), 2);
    g.reprogram(McrMode::off());
    assert_eq!(g.translate(12).wordlines(), 1);
}

#[test]
fn relaxed_mode_trades_latency_for_capacity() {
    // 4x offers lower tRCD than 2x; after relaxing for capacity, latency
    // benefit shrinks but must remain non-negative vs baseline.
    let len = 10_000;
    let base = run_single("libq", McrMode::off(), Mechanisms::none(), 0.0, len).unwrap();
    let m44 = run_single("libq", McrMode::headline(), Mechanisms::all(), 0.0, len).unwrap();
    let m22 = run_single(
        "libq",
        McrMode::headline().relaxed().unwrap(),
        Mechanisms::all(),
        0.0,
        len,
    )
    .unwrap();
    assert!(m44.avg_read_latency < base.avg_read_latency);
    assert!(m22.avg_read_latency < base.avg_read_latency);
    assert!(
        m44.avg_read_latency <= m22.avg_read_latency + 0.2,
        "4x {:.2} vs relaxed 2x {:.2}",
        m44.avg_read_latency,
        m22.avg_read_latency
    );
}

#[test]
fn usable_capacity_matches_table2_views() {
    let plan = ModeChangePlan::new(16 << 30);
    for (k, frac) in [(4u32, 0.25), (2, 0.5), (1, 1.0)] {
        let mode = McrMode::new(k, k, 1.0).unwrap();
        let view = plan.os_view(mode);
        assert_eq!(view.bytes as f64, (16u64 << 30) as f64 * frac, "K={k}");
        assert!((mode.usable_capacity() - frac).abs() < 1e-12);
    }
}

#[test]
fn runtime_reconfiguration_mid_run() {
    // Start in [4/4x/100%reg], relax to [2/2x] mid-run, then turn MCR off:
    // the run must complete, and the relaxation chain must be accepted.
    let cfg = SystemConfig::single_core("leslie", 8_000).with_mode(McrMode::headline());
    let mut sys = System::build(&cfg);
    sys.run_until(50_000);
    assert!(!sys.done(), "trace should still be running at 50k cycles");
    sys.reconfigure(McrMode::new(2, 2, 1.0).unwrap())
        .expect("MCR backend");
    sys.run_until(80_000);
    sys.reconfigure(McrMode::off()).expect("MCR backend");
    assert!(sys.run_until(100_000_000), "wedged");
    let r = sys.report();
    assert!(r.reads_done > 0);
    assert!(r.exec_cpu_cycles > 0);
}

#[test]
fn reconfiguration_is_audit_clean_and_preserves_telemetry() {
    // Mode changes ride the MRS path while banks may be open; with the
    // protocol auditor armed this must stay free of error-severity
    // violations, and telemetry must carry across the transition instead
    // of resetting (counters are monotone, the MRS itself is counted).
    let cfg = SystemConfig::single_core("leslie", 8_000).with_mode(McrMode::headline());
    let mut sys = System::build(&cfg);
    // Armed explicitly: by default only debug builds arm the auditor.
    sys.set_audit_enabled(true);
    sys.run_until(50_000);
    let before = sys.telemetry_snapshot();
    assert!(before.controller.sched_cas_read.get() > 0);
    assert_eq!(before.mode_changes, 0);

    sys.reconfigure(McrMode::new(2, 2, 1.0).unwrap())
        .expect("MCR backend");
    let after = sys.telemetry_snapshot();
    assert_eq!(after.mode_changes, 1, "the MRS itself must be counted");
    assert_eq!(
        after.controller.sched_cas_read.get(),
        before.controller.sched_cas_read.get(),
        "reconfigure must not reset or inflate scheduler counters"
    );
    assert_eq!(after.act_to_data.count(), before.act_to_data.count());

    sys.run_until(80_000);
    sys.reconfigure(McrMode::off()).expect("MCR backend");
    assert!(sys.run_until(100_000_000), "wedged");
    let end = sys.telemetry_snapshot();
    assert_eq!(end.mode_changes, 2);
    assert!(
        end.controller.sched_cas_read.get() > after.controller.sched_cas_read.get(),
        "telemetry must keep accumulating after the mode changes"
    );

    sys.audit_finish_now();
    let errors: Vec<String> = sys
        .audit_violations()
        .filter(|v| v.class.severity() == dram_device::Severity::Error)
        .map(|v| v.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "mode changes must not break protocol: {errors:?}"
    );
    let r = sys.report();
    assert_eq!(r.telemetry.mode_changes, 2);
    assert!(r.reads_done > 0);
}

#[test]
fn mode_change_under_fire_stays_audit_clean() {
    // DESIGN.md §5f: an OS-initiated relaxation (MRS) racing an active
    // fault campaign — margin retries in flight, the guardband ladder
    // possibly mid-step — must neither corrupt data (no retention
    // escapes) nor break the command protocol. Detected violations are
    // warning-severity by design; anything error-severity fails here.
    use mcr_dram::FaultPlan;
    let cfg = SystemConfig::single_core("leslie", 8_000)
        .with_mode(McrMode::headline())
        .with_fault_plan(FaultPlan::new(0xF1FE).with_sense_glitches(0.5));
    let mut sys = System::build(&cfg);
    // Armed explicitly: by default only debug builds arm the auditor.
    sys.set_audit_enabled(true);
    sys.run_until(50_000);
    assert!(!sys.done(), "trace should still be running at 50k cycles");
    sys.reconfigure(McrMode::new(2, 2, 1.0).unwrap())
        .expect("MCR backend");
    sys.run_until(80_000);
    sys.reconfigure(McrMode::off()).expect("MCR backend");
    assert!(sys.run_until(100_000_000), "wedged");
    let r = sys.report(); // panics on any error-severity audit record
    assert!(r.reads_done > 0);
    assert!(
        r.reliability.retention_retries > 0,
        "the campaign must have been live across the mode changes"
    );
    assert_eq!(r.reliability.retention_escapes, 0);
    assert!(
        r.telemetry.mode_changes >= 2,
        "the two OS relaxations must be counted alongside guardband MRS steps"
    );
}

#[test]
#[should_panic(expected = "not a relaxation")]
fn tightening_reconfiguration_is_rejected() {
    let cfg = SystemConfig::single_core("black", 2_000).with_mode(McrMode::new(2, 2, 1.0).unwrap());
    let mut sys = System::build(&cfg);
    sys.run_until(1_000);
    sys.reconfigure(McrMode::headline()).expect("MCR backend"); // 2x -> 4x would collide
}

#[test]
fn reconfiguring_a_non_mcr_backend_is_a_typed_error() {
    // Only MCR defines an MRS-driven mode change; every other backend
    // must refuse it with a typed error, not a panic.
    for kind in [
        BackendKind::Baseline,
        BackendKind::TlDram,
        BackendKind::ClrDram,
    ] {
        let cfg = SystemConfig::single_core("black", 2_000).with_backend(BackendSpec::new(kind));
        let mut sys = System::build(&cfg);
        sys.run_until(1_000);
        for mode in [McrMode::off(), McrMode::headline()] {
            match sys.reconfigure(mode) {
                Err(ConfigError::Backend(msg)) => assert!(msg.contains("MCR"), "{kind}: {msg}"),
                other => panic!("{kind}: expected a backend error, got {other:?}"),
            }
        }
        assert!(
            sys.run_until(100_000_000),
            "{kind}: wedged after the refusal"
        );
    }
}

#[test]
fn reconfigured_run_lands_between_pure_modes() {
    // A run that spends half its time in 4/4x and half in off-mode should
    // land between the two pure runs in read latency.
    let len = 10_000;
    let pure_mcr = run_single("libq", McrMode::headline(), Mechanisms::all(), 0.0, len).unwrap();
    let pure_off = run_single("libq", McrMode::off(), Mechanisms::none(), 0.0, len).unwrap();
    let cfg = SystemConfig::single_core("libq", len).with_mode(McrMode::headline());
    let mut sys = System::build(&cfg);
    // Switch off roughly halfway through the pure-MCR cycle count.
    sys.run_until(pure_mcr.total_mem_cycles / 2);
    sys.reconfigure(McrMode::off()).expect("MCR backend");
    assert!(sys.run_until(100_000_000), "wedged");
    let mixed = sys.report();
    let lo = pure_mcr.avg_read_latency.min(pure_off.avg_read_latency);
    let hi = pure_mcr.avg_read_latency.max(pure_off.avg_read_latency);
    assert!(
        mixed.avg_read_latency >= lo - 0.3 && mixed.avg_read_latency <= hi + 0.3,
        "mixed {:.2} outside [{lo:.2}, {hi:.2}]",
        mixed.avg_read_latency
    );
}

#[test]
fn combined_regions_run_end_to_end() {
    // Sec. 4.4 "Combination of 2x and 4x MCR": hottest pages in the 4x
    // tier, moderately hot in 2x. Must complete and beat the baseline.
    let len = 10_000;
    let base = run_single("comm2", McrMode::off(), Mechanisms::none(), 0.0, len).unwrap();
    let cfg = SystemConfig::single_core("comm2", len)
        .with_combined_regions(4, 0.25, 2, 0.25)
        .with_alloc_ratio(0.20);
    let r = System::build(&cfg).run();
    assert!(r.reads_done > 0);
    assert!(
        r.avg_read_latency <= base.avg_read_latency,
        "combined {:.2} vs baseline {:.2}",
        r.avg_read_latency,
        base.avg_read_latency
    );
}

#[test]
fn combination_of_2x_and_4x_is_expressible_per_region() {
    // Sec. 4.4 "Combination of 2x and 4x MCR": hot pages to 4x, cooler to
    // 2x. We express it as two disjoint region layouts whose membership
    // never overlaps when regions partition the sub-array.
    use mcr_dram::McrLayout;
    let l4 = McrLayout::new(McrMode::new(4, 4, 0.25).unwrap()); // top quarter
    let l2 = McrLayout::new(McrMode::new(2, 2, 0.5).unwrap()); // top half
    let mut both = 0;
    let mut only2 = 0;
    for row in 0..512u64 {
        let in4 = l4.is_mcr_row(row);
        let in2 = l2.is_mcr_row(row);
        if in4 {
            assert!(in2, "4x region must nest inside the 2x region");
            both += 1;
        } else if in2 {
            only2 += 1;
        }
    }
    assert_eq!(both, 128);
    assert_eq!(only2, 128);
}

//! End-to-end integration tests spanning cpu-model, mem-controller,
//! dram-device, trace-gen, dram-power and the MCR layer.

use dram_device::CommandKind;
use mcr_dram::{McrMode, Mechanisms, System, SystemConfig, WEDGE_CAP};
use trace_gen::{multi_programmed_mixes, multi_threaded_group, single_core_workloads};

const LEN: usize = 4_000;

#[test]
fn every_single_core_workload_completes_on_baseline() {
    for w in single_core_workloads() {
        let cfg = SystemConfig::single_core(w.name, LEN);
        let r = System::build(&cfg).run();
        assert!(r.reads_done > 0, "{}: no reads completed", w.name);
        assert!(
            r.instructions >= LEN as u64,
            "{}: trace not fully committed",
            w.name
        );
        assert!(r.exec_cpu_cycles > 0, "{}", w.name);
    }
}

#[test]
fn every_single_core_workload_completes_on_headline_mcr() {
    for w in single_core_workloads() {
        let cfg = SystemConfig::single_core(w.name, LEN).with_mode(McrMode::headline());
        let r = System::build(&cfg).run();
        assert!(r.reads_done > 0, "{}: no reads completed", w.name);
    }
}

#[test]
fn all_mixes_complete_multi_core() {
    for mix in multi_programmed_mixes(2015).iter().take(3) {
        let cfg = SystemConfig::multi_core(mix.cores, 1_000).with_mode(McrMode::headline());
        let r = System::build(&cfg).run();
        assert_eq!(r.per_core_cpu_cycles.len(), 4, "{}", mix.name);
        assert!(r.per_core_cpu_cycles.iter().all(|&c| c > 0), "{}", mix.name);
    }
}

#[test]
fn multi_threaded_workloads_run() {
    for mix in multi_threaded_group() {
        let cfg = SystemConfig::multi_core_mix(&mix, 1_000);
        let r = System::build(&cfg).run();
        assert!(r.reads_done > 0, "{}", mix.name);
    }
}

#[test]
fn multi_threaded_workloads_share_their_footprint() {
    // MT threads walk one address space: the memory footprint of four
    // threads is about the size of one thread's, while a 4-program mix
    // touches ~4 disjoint slices. Compare baseline row conflicts instead
    // of raw addresses: sharing shows up as higher per-bank contention on
    // the same rows. Use the direct signal: re-run the MT mix as if it
    // were multi-programmed (private slices) and check that the shared
    // variant has more row-buffer hits from cross-thread locality.
    let mix = &multi_threaded_group()[0]; // MT-fluid
    let shared = System::build(&SystemConfig::multi_core_mix(mix, 2_000)).run();
    let private = System::build(&SystemConfig::multi_core(mix.cores, 2_000)).run();
    assert!(shared.reads_done > 0 && private.reads_done > 0);
    // Same workload intensity either way.
    let total_shared =
        shared.controller.row_hits + shared.controller.row_misses + shared.controller.row_conflicts;
    assert!(total_shared > 0);
    // The shared variant must actually collide in the same rows sometimes:
    // its conflict+hit profile differs from the private-slice variant.
    assert_ne!(
        (shared.controller.row_hits, shared.controller.row_conflicts),
        (
            private.controller.row_hits,
            private.controller.row_conflicts
        ),
        "shared and private address spaces should behave differently"
    );
}

#[test]
fn two_channel_geometry_works_and_spreads_load() {
    use dram_device::Geometry;
    // Double the channels (halving rows/bank keeps capacity at 4 GB).
    let two_chan = Geometry {
        channels: 2,
        rows_per_bank: 16_384,
        ..Geometry::single_core_4gb()
    };
    let mut cfg = SystemConfig::single_core("leslie", 6_000);
    cfg.geometry = two_chan;
    let r2 = System::build(&cfg).run();
    let r1 = System::build(&SystemConfig::single_core("leslie", 6_000)).run();
    assert!(r2.reads_done > 0);
    // Twice the data-bus width: the streaming workload must not be slower.
    assert!(
        r2.exec_cpu_cycles <= r1.exec_cpu_cycles,
        "2-channel {} vs 1-channel {}",
        r2.exec_cpu_cycles,
        r1.exec_cpu_cycles
    );
}

#[test]
fn two_channel_mcr_still_improves() {
    use dram_device::Geometry;
    let two_chan = Geometry {
        channels: 2,
        rows_per_bank: 16_384,
        ..Geometry::single_core_4gb()
    };
    let mut base_cfg = SystemConfig::single_core("mummer", 6_000);
    base_cfg.geometry = two_chan;
    let mcr_cfg = base_cfg.clone().with_mode(McrMode::headline());
    let base = System::build(&base_cfg).run();
    let mcr = System::build(&mcr_cfg).run();
    assert!(
        mcr.avg_read_latency < base.avg_read_latency,
        "MCR {:.2} vs base {:.2} on 2 channels",
        mcr.avg_read_latency,
        base.avg_read_latency
    );
}

#[test]
fn read_count_matches_trace_reads() {
    // The controller must complete exactly the reads the core issued
    // (store-to-load forwards included).
    let cfg = SystemConfig::single_core("libq", 8_000);
    let r = System::build(&cfg).run();
    // libq is 95% reads: expect ~7600.
    assert!(
        (7_000..=8_000).contains(&(r.reads_done as usize)),
        "reads_done {}",
        r.reads_done
    );
}

#[test]
fn command_trace_matches_scheduler_decisions() {
    // The channels' command trace is the only record of issued commands,
    // so it must agree with the controller's decision counters: a command
    // path that stops feeding the trace shows up as a count mismatch.
    // Both runs last long enough for postponed refresh slots to issue.
    let mix = &multi_programmed_mixes(2015)[0];
    let cases = [
        (
            "libq",
            SystemConfig::single_core("libq", 8_000).with_mode(McrMode::headline()),
        ),
        (
            mix.name,
            SystemConfig::multi_core_mix(mix, 3_000).with_mode(McrMode::headline()),
        ),
    ];
    for (name, cfg) in cases {
        // At most PRE + ACT + CAS per request, plus refreshes: never wraps.
        let cap = 4 * cfg.trace_len * cfg.workloads.len() + 65_536;
        let mut sys = System::build(&cfg);
        sys.enable_command_trace(cap);
        assert!(sys.run_until(WEDGE_CAP), "{name}: wedged");
        let mut counts = [0u64; 5];
        let (mut fast_refs, mut fast_acts) = (0, 0);
        for (_, cmd) in sys.command_trace() {
            let slot = match cmd.kind {
                CommandKind::Activate => 0,
                CommandKind::Read => 1,
                CommandKind::Write => 2,
                CommandKind::Precharge => 3,
                CommandKind::Refresh => 4,
                CommandKind::ModeChange => continue,
            };
            counts[slot] += 1;
            fast_refs += u64::from(cmd.kind == CommandKind::Refresh && cmd.t_rfc.is_some());
            fast_acts += u64::from(cmd.kind == CommandKind::Activate && cmd.class.0 > 0);
        }
        // No channel holds more than the whole trace.
        assert!(sys.command_trace().count() < cap, "{name}: ring wrapped");
        let t = sys.telemetry_snapshot();
        let c = &t.controller;
        let decided = [
            c.sched_activates.get(),
            c.sched_cas_read.get(),
            c.sched_cas_write.get(),
            c.sched_precharges.get(),
            c.sched_refreshes.get(),
        ];
        assert_eq!(counts, decided, "{name}: ACT/RD/WR/PRE/REF");
        assert!(counts[4] > 0, "{name}: no refresh in the trace");
        assert_eq!(fast_refs, t.refreshes_fast, "{name}: Fast-Refresh REFs");
        assert!(fast_acts > 0, "{name}: no ACT carried an MCR class");
    }
}

#[test]
fn energy_components_are_all_populated() {
    let cfg = SystemConfig::single_core("comm1", 6_000);
    let r = System::build(&cfg).run();
    assert!(r.energy.act_pre_pj > 0.0);
    assert!(r.energy.read_pj > 0.0);
    assert!(r.energy.write_pj > 0.0);
    assert!(r.energy.refresh_pj > 0.0, "refresh energy missing");
    assert!(r.energy.background_pj > 0.0);
    assert!(r.edp > 0.0);
}

#[test]
fn seeds_change_results_configs_do_not() {
    let a = System::build(&SystemConfig::single_core("ferret", LEN)).run();
    let b = System::build(&SystemConfig::single_core("ferret", LEN)).run();
    let c = System::build(&SystemConfig::single_core("ferret", LEN).with_seed(99)).run();
    assert_eq!(a.exec_cpu_cycles, b.exec_cpu_cycles);
    assert_ne!(a.exec_cpu_cycles, c.exec_cpu_cycles);
}

#[test]
fn mechanisms_off_equals_baseline_even_in_mcr_mode() {
    // Turning every mechanism off makes an "MCR" run identical in timing
    // to the baseline: the region exists but nothing exploits it.
    let base = System::build(&SystemConfig::single_core("black", LEN)).run();
    let off = System::build(
        &SystemConfig::single_core("black", LEN)
            .with_mode(McrMode::headline())
            .with_mechanisms(Mechanisms::none()),
    )
    .run();
    assert_eq!(base.exec_cpu_cycles, off.exec_cpu_cycles);
    assert_eq!(base.reads_done, off.reads_done);
}

#[test]
fn mechanisms_are_inert_with_mcr_off() {
    // With MCR off there is nothing for a mechanism to act on, so every
    // mechanism set gives the same report: the claims ledger measures
    // every row against one `Mechanisms::none()` baseline.
    let mix = multi_programmed_mixes(2015)[0];
    let targets = single_core_workloads()
        .into_iter()
        .map(|w| SystemConfig::single_core(w.name, LEN))
        .chain([SystemConfig::multi_core_mix(&mix, 1_000)]);
    for cfg in targets {
        let run = |m: Mechanisms| System::build(&cfg.clone().with_mechanisms(m)).run();
        let none = run(Mechanisms::none());
        for case in 1..=4 {
            let with = run(Mechanisms::fig17_case(case));
            assert_eq!(none, with, "{:?} case {case}", cfg.workloads[0].name);
        }
    }
}

#[test]
fn row_buffer_stats_are_consistent() {
    let cfg = SystemConfig::single_core("libq", 8_000);
    let r = System::build(&cfg).run();
    let c = &r.controller;
    let classified = c.row_hits + c.row_misses + c.row_conflicts;
    // Forwarded reads are never classified; everything else is.
    assert!(classified <= c.reads_done + c.writes_done);
    assert!(classified > 0);
    // libq streams: expect a high hit rate.
    assert!(
        c.row_hit_rate() > 0.5,
        "libq hit rate {:.2}",
        c.row_hit_rate()
    );
}

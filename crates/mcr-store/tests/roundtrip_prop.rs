//! Seeded property tests for the store's codec and entry format: a
//! report — randomized or produced by a real (faulted, guardband-
//! degraded) simulation — must survive `RunReport` → sim-json text →
//! store entry → disk → back with every bit intact. Failures print the
//! iteration seed, so any counterexample replays exactly.

use mcr_dram::{FaultPlan, McrMode, ReportStore, RunReport, System, SystemConfig, Telemetry};
use mcr_store::{report_from_json, report_to_json, ResultStore};
use mcr_telemetry::{Counter, LatencyHistogram, HISTOGRAM_BUCKETS};
use mem_controller::{ControllerStats, CtlTelemetry, RefreshStats};
use sim_json::Json;
use sim_rng::SmallRng;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcr-store-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Random `u64` biased toward the representational traps: saturation,
/// the 2^53 f64-exactness boundary, and small ordinary values.
fn ru(rng: &mut SmallRng) -> u64 {
    match rng.next_u64() % 6 {
        0 => u64::MAX,
        1 => u64::MAX - 1,
        2 => 1 << 53,
        3 => (1 << 53) + 1,
        4 => rng.next_u64() % 1_000,
        _ => rng.next_u64(),
    }
}

/// Random finite `f64` spanning magnitudes, signs and subnormals.
/// (NaN is excluded here because `NaN != NaN` would poison the `==`
/// oracle; the non-finite encodings get their own dedicated test.)
fn rf(rng: &mut SmallRng) -> f64 {
    match rng.next_u64() % 6 {
        0 => 0.0,
        1 => -0.0,
        2 => 1e300,
        3 => 5e-324,
        4 => rng.gen_range(-1e6..1e6),
        _ => {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                x
            } else {
                -273.15
            }
        }
    }
}

fn rhist(rng: &mut SmallRng) -> LatencyHistogram {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for _ in 0..rng.gen_range(0..8u32) {
        buckets[rng.gen_range(0..HISTOGRAM_BUCKETS)] = ru(rng);
    }
    LatencyHistogram::from_raw_parts(buckets, ru(rng), ru(rng), ru(rng), ru(rng))
}

fn rcounter(rng: &mut SmallRng) -> Counter {
    let mut c = Counter::new();
    c.add(ru(rng));
    c
}

fn random_report(rng: &mut SmallRng) -> RunReport {
    let cores = rng.gen_range(0..4usize);
    let banks = (0..rng.gen_range(0..5usize))
        .map(|_| mcr_dram::BankCommandCounts {
            channel: rng.gen_range(0..4usize),
            rank: rng.gen_range(0..2usize),
            bank: rng.gen_range(0..8usize),
            activates: ru(rng),
            reads: ru(rng),
            writes: ru(rng),
            precharges: ru(rng),
        })
        .collect();
    RunReport {
        exec_cpu_cycles: ru(rng),
        per_core_cpu_cycles: (0..cores).map(|_| ru(rng)).collect(),
        total_mem_cycles: ru(rng),
        reads_done: ru(rng),
        avg_read_latency: rf(rng),
        controller: ControllerStats {
            reads_done: ru(rng),
            writes_done: ru(rng),
            read_latency_sum: ru(rng),
            row_hits: ru(rng),
            row_misses: ru(rng),
            row_conflicts: ru(rng),
            drain_cycles: ru(rng),
            refresh: RefreshStats {
                normal: ru(rng),
                fast: ru(rng),
                skipped: ru(rng),
                dropped: ru(rng),
                late: ru(rng),
            },
            retention_retries: ru(rng),
            guardband_degrades: ru(rng),
            guardband_rearms: ru(rng),
            guardband_degraded_cycles: ru(rng),
        },
        energy: dram_power::EnergyBreakdown {
            act_pre_pj: rf(rng),
            read_pj: rf(rng),
            write_pj: rf(rng),
            refresh_pj: rf(rng),
            background_pj: rf(rng),
        },
        edp: rf(rng),
        instructions: ru(rng),
        cache: if rng.gen_bool(0.5) {
            Some(mcr_dram::RowCacheStats {
                hits: ru(rng),
                misses: ru(rng),
                promotions: ru(rng),
                evictions: ru(rng),
            })
        } else {
            None
        },
        per_core_read_latency: (0..cores).map(|_| rf(rng)).collect(),
        telemetry: Telemetry {
            banks,
            refreshes_normal: ru(rng),
            refreshes_fast: ru(rng),
            powerdown_entries: ru(rng),
            mode_changes: ru(rng),
            act_to_data: rhist(rng),
            controller: CtlTelemetry {
                read_queue_depth: rhist(rng),
                write_queue_depth: rhist(rng),
                read_latency: rhist(rng),
                sched_cas_read: rcounter(rng),
                sched_cas_write: rcounter(rng),
                sched_activates: rcounter(rng),
                sched_precharges: rcounter(rng),
                sched_refreshes: rcounter(rng),
                retention_retries: rcounter(rng),
                guardband_degrades: rcounter(rng),
                guardband_rearms: rcounter(rng),
            },
            core_read_latency: rhist(rng),
            retention_checks: ru(rng),
            retention_violations: ru(rng),
            retention_escapes: ru(rng),
            retention_detect_latency: rhist(rng),
        },
        reliability: mcr_dram::ReliabilityReport {
            fault_injection: rng.gen_bool(0.5),
            fault_seed: ru(rng),
            retention_retries: ru(rng),
            refresh_dropped: ru(rng),
            refresh_late: ru(rng),
            guardband_degrades: ru(rng),
            guardband_rearms: ru(rng),
            guardband_degraded_cycles: ru(rng),
            retention_checks: ru(rng),
            retention_violations: ru(rng),
            retention_escapes: ru(rng),
        },
        // Not stored: a decoded report carries zeros here and must still
        // compare equal.
        exec: mcr_dram::RunExecStats {
            dense_cycles: ru(rng),
            quiet_skipped_cycles: ru(rng),
            overlapped_span_cycles: ru(rng),
            controller_alone_ticks: ru(rng),
            controller_ticks: ru(rng),
            wakes: std::array::from_fn(|_| ru(rng)),
        },
    }
}

/// The full persistence path for one report: value codec, text codec,
/// and a store publish → reopen (cold hot tier) → lookup.
fn assert_full_round_trip(store: &ResultStore, key: u64, report: &RunReport, seed: u64) {
    let encoded = report_to_json(report);
    let decoded = report_from_json(&encoded).expect("value codec decodes");
    assert_eq!(&decoded, report, "value codec diverged (seed {seed})");
    let reparsed = Json::parse(&encoded.to_string()).expect("serialized text parses");
    assert_eq!(
        &report_from_json(&reparsed).expect("text codec decodes"),
        report,
        "text codec diverged (seed {seed})"
    );
    store.publish(key, report);
    assert_eq!(
        store.lookup(key).as_ref(),
        Some(report),
        "hot-tier lookup diverged (seed {seed})"
    );
}

#[test]
fn randomized_reports_survive_codec_and_store() {
    let dir = tmp_dir("random");
    let store = ResultStore::open(&dir).expect("open");
    let mut published = Vec::new();
    for seed in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0FF_EE00 + seed);
        let report = random_report(&mut rng);
        let key = rng.next_u64();
        assert_full_round_trip(&store, key, &report, seed);
        published.push((key, report, seed));
    }
    // One cold reopen at the end: every entry must come back off disk
    // byte-identical, through the checksum and the full decode.
    let fresh = ResultStore::open(&dir).expect("reopen");
    assert_eq!(fresh.hot_len(), 0);
    for (key, report, seed) in &published {
        assert_eq!(
            fresh.lookup(*key).as_ref(),
            Some(report),
            "disk round trip diverged (seed {seed})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_plan_and_guardband_reports_round_trip() {
    // A real faulted run: weak cells, dropped and late refreshes all
    // armed, which drives the guardband ladder and fills the
    // reliability section with non-zero counters.
    let dir = tmp_dir("faulted");
    let store = ResultStore::open(&dir).expect("open");
    let plan = FaultPlan::new(77)
        .with_weak_cells(0.25, 0.5)
        .with_refresh_drops(0.25)
        .with_late_refreshes(0.25, 1_000);
    let cfg = SystemConfig::single_core("libq", 2_000)
        .with_mode(McrMode::headline())
        .with_fault_plan(plan);
    let key = cfg.config_key();
    let report = System::try_build(&cfg).expect("valid config").run();
    assert!(report.reliability.fault_injection, "fault plan was armed");
    assert!(
        report.reliability.retention_checks > 0,
        "the campaign actually checked retention margins"
    );
    assert_full_round_trip(&store, key, &report, 77);
    let fresh = ResultStore::open(&dir).expect("reopen");
    assert_eq!(fresh.lookup(key).as_ref(), Some(&report));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_floats_round_trip_as_values() {
    // NaN breaks the `==` oracle, so the non-finite encodings are
    // checked field-by-field instead.
    let cfg = SystemConfig::single_core("libq", 1_000);
    let mut report = System::try_build(&cfg).expect("valid config").run();
    report.edp = f64::NAN;
    report.avg_read_latency = f64::INFINITY;
    report.energy.read_pj = f64::NEG_INFINITY;
    let text = report_to_json(&report).to_string();
    let back = report_from_json(&Json::parse(&text).expect("parses")).expect("decodes");
    assert!(back.edp.is_nan());
    assert_eq!(back.avg_read_latency, f64::INFINITY);
    assert_eq!(back.energy.read_pj, f64::NEG_INFINITY);
}

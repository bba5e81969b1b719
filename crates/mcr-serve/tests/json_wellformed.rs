//! The exported documents' content, checked on the `sim-json` trees
//! that `mcr-serve` builds for them (`telemetry_json`, `results_json`),
//! and every golden snapshot on disk parsed back through `sim-json` —
//! the same codec the service uses on the wire.

use mcr_dram::{McrMode, SweepBuilder, System, SystemConfig, Telemetry};
use mcr_serve::protocol::results_json;
use mcr_serve::telemetry_json;
use sim_json::Json;

#[test]
fn telemetry_emitter_output_parses() {
    // A real instrumented run, so the histograms are populated.
    let cfg = SystemConfig::single_core("libq", 3_000).with_mode(McrMode::headline());
    let report = System::try_build(&cfg).expect("valid config").run();
    let v = telemetry_json(&report.telemetry);
    let sched = v.get("sched").expect("sched section");
    assert!(
        sched.get("cas_read").and_then(Json::as_u64).unwrap_or(0) > 0,
        "instrumented run must record reads"
    );
    assert!(
        v.get("read_latency")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "latency histogram must be populated"
    );

    // The all-default (empty) telemetry exercises the null percentiles.
    let empty = telemetry_json(&Telemetry::default());
    let h = empty.get("read_latency").expect("read_latency histogram");
    for key in ["p50", "p95", "p99"] {
        assert_eq!(h.get(key), Some(&Json::Null), "{key}");
    }
}

#[test]
fn sweep_results_emitter_output_parses() {
    let results = SweepBuilder::new(1_200)
        .workload("libq")
        .mode(McrMode::off())
        .mode(McrMode::headline())
        .jobs(1)
        .build()
        .expect("valid grid")
        .run();
    let v = results_json(&results);
    let points = v
        .get("points")
        .and_then(Json::as_array)
        .expect("points array");
    assert_eq!(points.len(), 2);
    for p in points {
        // Cache keys export as fixed-width hex strings.
        let key = p.get("key").and_then(Json::as_str).expect("key field");
        assert_eq!(key.len(), 16, "16-hex-digit key, got {key:?}");
        assert!(p.get("exec_cpu_cycles").and_then(Json::as_u64).is_some());
    }
}

#[test]
fn every_golden_snapshot_parses() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(dir).expect("goldens directory exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable golden");
        let v = Json::parse(&text)
            .unwrap_or_else(|e| panic!("golden {} is malformed: {e}", path.display()));
        assert!(
            v.as_object().is_some() || v.as_array().is_some(),
            "golden {} must be a container",
            path.display()
        );
        // Round-trip through the codec stays parseable (the serializer
        // normalizes whitespace, so only semantic stability is checked).
        let again = Json::parse(&v.to_string()).expect("re-serialized golden parses");
        assert_eq!(
            again,
            v,
            "golden {} drifts through the codec",
            path.display()
        );
        checked += 1;
    }
    assert!(checked > 0, "no golden snapshots found in {dir}");
}

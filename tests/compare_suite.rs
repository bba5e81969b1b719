//! Cross-backend compare-campaign suite (DESIGN.md §5l).
//!
//! The `compare` campaign races the same trace and seed across every
//! registered DRAM-architecture backend. It is a sweep over
//! `SweepBuilder`'s backend axis, so it inherits the repo's two
//! standing determinism contracts: worker count never changes results,
//! and a request submitted over the wire is bit-identical to the same
//! campaign executed locally. On top of those, the comparison table for
//! a fixed spec is frozen byte-for-byte in `tests/goldens/` (re-bless
//! with `MCR_BLESS=1`), and the event wheel must stay a pure wall-clock
//! optimization for the non-MCR backends too.

use mcr_dram::{
    registered_backends, BackendKind, BackendSpec, CompareTable, McrMode, Sweep, SweepBuilder,
    System, SystemConfig, DEFAULT_SEED,
};
use mcr_serve::protocol::{compare_json, results_json, SweepSpec};
use mcr_serve::{Client, ServeConfig, Server};
use sim_json::Json;
use std::path::{Path, PathBuf};

const LEN: usize = 1_500;

/// Long enough that refresh management diverges between the backends
/// (normal vs fast vs skipped); short runs never cross tREFI.
const GOLDEN_LEN: usize = 20_000;

/// The default `compare` campaign on libq: every registered backend,
/// the headline MCR mode.
fn libq_compare(len: usize, jobs: usize) -> Sweep {
    SweepBuilder::new(len)
        .workload("libq")
        .backends(BackendKind::all())
        .mode(McrMode::headline())
        .jobs(jobs)
        .build()
        .expect("valid grid")
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
fn compare_table_matches_golden() {
    // The full head-to-head table — every registered backend, one fixed
    // workload/len/seed — frozen byte-for-byte. Any drift is a real
    // behaviour change in one of the backend models.
    let sweep = libq_compare(GOLDEN_LEN, 1);
    let table = CompareTable::new("libq", &sweep, &sweep.run());
    // What `mcr_sim compare --json` prints: one compact line.
    let rendered = format!("{}\n", compare_json(&table));
    let path = golden_path("compare_libq");
    if blessing() {
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate with MCR_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "compare table drifted from {}; if intentional, re-bless with \
         MCR_BLESS=1 and review the diff",
        path.display()
    );
}

#[test]
fn worker_count_never_changes_compare_results() {
    // jobs=1 and jobs=8 must agree per backend point — same order, same
    // cache key, byte-identical report — and therefore render the same
    // comparison table.
    let (serial_sweep, parallel_sweep) = (libq_compare(LEN, 1), libq_compare(LEN, 8));
    let serial = serial_sweep.run();
    let parallel = parallel_sweep.run();
    assert_eq!(serial.points.len(), registered_backends().len());
    // Requested jobs are clamped to the point count, but stay parallel.
    assert!(parallel.jobs > 1, "jobs: {}", parallel.jobs);
    for (s, p) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(s.label, p.label, "backend order must be preserved");
        assert_eq!(s.key, p.key);
        assert_eq!(
            s.report, p.report,
            "jobs=1 vs jobs=8 diverged at {}",
            s.label
        );
    }
    assert_eq!(
        compare_json(&CompareTable::new("libq", &serial_sweep, &serial)).to_string(),
        compare_json(&CompareTable::new("libq", &parallel_sweep, &parallel)).to_string(),
        "rendered tables must not depend on worker count"
    );
}

#[test]
fn every_backend_produces_distinct_cache_keys() {
    // The content-addressed store must never conflate two architectures:
    // each campaign point owns a distinct config key, and the MCR key is
    // the same one a plain (pre-backend) MCR sweep would use.
    let sweep = libq_compare(LEN, 1);
    let mut keys: Vec<u64> = sweep
        .points()
        .iter()
        .map(|p| p.config.config_key())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(
        keys.len(),
        registered_backends().len(),
        "every backend must hash to its own cache key"
    );
    let plain_mcr = SystemConfig::single_core("libq", LEN)
        .with_mode(McrMode::headline())
        .config_key();
    assert!(
        sweep
            .points()
            .iter()
            .any(|p| p.config.config_key() == plain_mcr),
        "the MCR point must keep its pre-backend cache key"
    );
}

/// Zeroes the volatile (timing/caching) fields of a serialized sweep
/// result, leaving only the deterministic simulation payload.
fn strip_volatile(doc: &mut Json) {
    doc.set("wall_ns", Json::from(0u64));
    doc.set("cache_hits", Json::from(0u64));
    doc.set("jobs", Json::from(0u64));
    if let Json::Obj(members) = doc {
        for (key, value) in members.iter_mut() {
            if key == "points" {
                if let Json::Arr(points) = value {
                    for p in points {
                        p.set("wall_ns", Json::from(0u64));
                        p.set("cache_hit", Json::from(false));
                    }
                }
            }
        }
    }
}

#[test]
fn submitted_and_local_compare_are_bit_identical() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_cap: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");

    // (wire request, the `--backends` list the CLI passes for the same
    // flags)
    let cases: [(&str, &[&str]); 2] = [
        (
            // Default backend list: every registered architecture.
            r#"{"cmd": "compare", "workload": "libq", "len": 1500}"#,
            &[],
        ),
        (
            // An explicit subset, out of registry order.
            r#"{"cmd": "compare", "workload": "libq", "len": 1500,
                "backends": ["tldram", "baseline"]}"#,
            &["tldram", "baseline"],
        ),
    ];
    for (request, backends) in cases {
        let backends: Vec<String> = backends.iter().map(|b| b.to_string()).collect();
        let spec = SweepSpec::compare(
            Some("libq".into()),
            None,
            McrMode::headline(),
            LEN,
            DEFAULT_SEED,
            &backends,
        )
        .expect("valid compare");
        let mut local = results_json(&spec.sweep(Some(1)).expect("local sweep").run());
        let reply = client
            .request(&Json::parse(request).expect("request parses"))
            .expect("request round-trips");
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("ok"),
            "reply: {reply:?}"
        );
        assert_eq!(reply.get("kind").and_then(Json::as_str), Some("compare"));
        let mut remote = reply.get("result").cloned().expect("result body");
        strip_volatile(&mut local);
        strip_volatile(&mut remote);
        assert_eq!(
            local, remote,
            "a submitted compare and a local compare must produce \
             identical results ({request})"
        );
        assert_eq!(local.to_string(), remote.to_string());
    }

    client
        .request(&Json::parse(r#"{"cmd": "shutdown"}"#).expect("shutdown parses"))
        .expect("shutdown answered");
    handle.join().expect("server thread");
}

#[test]
fn config_keys_are_pinned_for_every_backend() {
    // Persistent result stores are keyed by `config_key`, so a key that
    // drifts silently turns every stored point into a miss. Pin the key
    // of one fixed config under each registered backend.
    let pinned = [
        (BackendKind::Baseline, 0xc970_4a50_17f8_b948),
        (BackendKind::Mcr, 0xfcb7_c938_7100_c82d),
        (BackendKind::TlDram, 0x0601_2d6d_e3b1_028b),
        (BackendKind::ClrDram, 0x56be_2b97_e640_29ca),
    ];
    for (kind, key) in pinned {
        let cfg = SystemConfig::single_core("libq", 8_000).with_backend(BackendSpec::new(kind));
        assert_eq!(cfg.config_key(), key, "{kind}: config_key drifted");
    }
}

#[test]
fn non_mcr_backends_are_wheel_identical() {
    // The §5h event wheel is a pure wall-clock optimization for every
    // backend, not just MCR: skipping a quiet span under the TL-DRAM
    // segment timings or the CLR-DRAM coupling table must leave the
    // report bit-identical to the dense one-cycle-at-a-time drive.
    for kind in [
        BackendKind::Baseline,
        BackendKind::TlDram,
        BackendKind::ClrDram,
    ] {
        let cfg = SystemConfig::single_core("libq", 8_000).with_backend(BackendSpec::new(kind));
        let wheel = System::build(&cfg).run();
        let mut dense = System::build(&cfg);
        dense.set_skip_ahead(false);
        let dense = dense.run();
        assert_eq!(wheel, dense, "{kind}: wheel and dense reports differ");
    }
}

#[test]
fn compare_cli_rejects_bad_flags_without_panicking() {
    // The `compare` subcommand's typed-error surface: exit code 1 and a
    // one-line `error:` diagnostic, never a panic or a usage dump.
    let bin = env!("CARGO_BIN_EXE_mcr_sim");
    let cases: [(&[&str], &str); 4] = [
        (
            &["compare", "--workload", "libq", "--backends", "bogus"],
            "unknown backend",
        ),
        (&["compare"], "compare needs --workload or --mix"),
        (
            &["compare", "--workload", "libq", "--backends", "mcr,mcr"],
            "duplicate backend",
        ),
        (
            &["compare", "--workload", "libq", "--len"],
            "--len needs a value",
        ),
    ];
    for (args, needle) in cases {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("spawn mcr_sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?}: expected exit 1, got {:?} (stderr: {stderr})",
            out.status
        );
        assert!(
            stderr.contains("error:") && stderr.contains(needle),
            "{args:?}: stderr missing {needle:?}: {stderr}"
        );
    }
}

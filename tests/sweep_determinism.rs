//! The sweep engine's two contracts: worker count never changes results
//! (jobs = 1 and jobs = N are byte-identical, in the same order), and the
//! content-addressed cache turns repeated grids into pure lookups. Plus
//! the `ConfigError` surface of the fallible builder API, and the
//! service-era guard: a request submitted over the wire and the same
//! run executed locally produce bit-identical sweep results.

use mcr_dram::{
    CancelToken, ConfigError, McrMode, Mechanisms, RowCacheConfig, RunBudget, SweepBuilder, System,
    SystemConfig,
};
use mcr_serve::{protocol, telemetry_json, Client, RunSpec, ServeConfig, Server};
use mcr_store::ResultStore;
use sim_json::Json;
use std::path::PathBuf;

const LEN: usize = 1_500;

/// A fig-11-shaped grid: three workloads × (baseline + three modes).
fn grid(jobs: usize) -> mcr_dram::Sweep {
    SweepBuilder::new(LEN)
        .workloads(["libq", "comm1", "leslie"])
        .mode(McrMode::off())
        .mode(McrMode::new(2, 2, 1.0).unwrap())
        .mode(McrMode::new(4, 4, 0.5).unwrap())
        .mode(McrMode::headline())
        .mechanisms(Mechanisms::access_only())
        .jobs(jobs)
        .build()
        .expect("valid grid")
}

#[test]
fn parallel_equals_serial() {
    let serial = grid(1).run();
    let parallel = grid(4).run();
    assert_eq!(serial.points.len(), 12);
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 4);
    for (s, p) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(s.label, p.label, "ordering must be preserved");
        assert_eq!(s.key, p.key);
        assert_eq!(
            s.report, p.report,
            "jobs=1 vs jobs=4 diverged at {}",
            s.label
        );
    }
}

#[test]
fn telemetry_is_bit_identical_across_worker_counts() {
    // The telemetry section rides inside RunReport and must obey the same
    // determinism contract as every other field: jobs=1 and jobs=8 produce
    // byte-identical histograms and counters, per point and merged.
    let serial = grid(1).run();
    let parallel = grid(8).run();
    assert_eq!(parallel.jobs, 8);
    for (s, p) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(
            s.report.telemetry, p.report.telemetry,
            "telemetry diverged between jobs=1 and jobs=8 at {}",
            s.label
        );
        assert!(
            s.report.telemetry.controller.sched_cas_read.get() > 0,
            "telemetry must actually record at {}",
            s.label
        );
    }
    assert_eq!(
        serial.merged_telemetry(),
        parallel.merged_telemetry(),
        "merged telemetry must not depend on worker count"
    );
}

#[test]
fn repeated_run_is_all_cache_hits() {
    let sweep = grid(2);
    let first = sweep.run();
    assert_eq!(first.cache_hits(), 0, "cold cache");
    let second = sweep.run();
    assert_eq!(
        second.cache_hits(),
        second.points.len(),
        "warm cache must serve every point"
    );
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a.report, b.report);
    }
}

#[test]
fn point_order_matches_declaration_order() {
    let sweep = grid(1);
    let labels: Vec<&str> = sweep.points().iter().map(|p| p.label.as_str()).collect();
    // Workload-major, modes in insertion order, baseline (off) first.
    assert!(labels[0].starts_with("libq [off]"));
    assert!(labels[1].starts_with("libq [2/2x"));
    assert!(labels[3].starts_with("libq [4/4x/100%"));
    assert!(labels[4].starts_with("comm1 [off]"));
    assert!(labels[8].starts_with("leslie [off]"));
}

#[test]
fn config_key_is_stable_and_discriminating() {
    let a = SystemConfig::single_core("libq", LEN).with_mode(McrMode::headline());
    let b = SystemConfig::single_core("libq", LEN).with_mode(McrMode::headline());
    assert_eq!(a, b);
    assert_eq!(a.config_key(), b.config_key(), "equal configs, equal keys");
    // The knobs the cache must distinguish.
    assert_ne!(a.config_key(), b.clone().with_seed(7).config_key());
    assert_ne!(a.config_key(), b.clone().with_alloc_ratio(0.1).config_key());
    assert_ne!(
        a.config_key(),
        b.clone().with_mechanisms(Mechanisms::none()).config_key()
    );
    assert_ne!(
        a.config_key(),
        b.with_mode(McrMode::new(2, 2, 1.0).unwrap()).config_key()
    );
}

#[test]
fn try_build_rejects_mode_with_region_map() {
    let cfg = SystemConfig::single_core("libq", LEN)
        .with_combined_regions(2, 0.25, 1, 0.25)
        .with_mode(McrMode::headline());
    match System::try_build(&cfg) {
        Err(ConfigError::ModeWithRegionMap { mode }) => assert_eq!(mode, McrMode::headline()),
        other => panic!("expected ModeWithRegionMap, got {other:?}"),
    }
}

#[test]
fn try_build_rejects_each_invalid_config() {
    let ok = SystemConfig::single_core("libq", LEN);
    assert!(System::try_build(&ok).is_ok());

    let mut empty = ok.clone();
    empty.workloads.clear();
    assert!(matches!(
        System::try_build(&empty),
        Err(ConfigError::EmptyWorkloads)
    ));

    let mut no_trace = ok.clone();
    no_trace.trace_len = 0;
    assert!(matches!(
        System::try_build(&no_trace),
        Err(ConfigError::EmptyTrace)
    ));

    for bad in [-0.1, 1.5, f64::NAN] {
        assert!(matches!(
            System::try_build(&ok.clone().with_alloc_ratio(bad)),
            Err(ConfigError::AllocRatioRange(_))
        ));
    }

    let conflict = ok
        .with_mode(McrMode::headline())
        .with_alloc_ratio(0.2)
        .with_row_cache(RowCacheConfig::default());
    assert!(matches!(
        System::try_build(&conflict),
        Err(ConfigError::AllocWithRowCache)
    ));
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
fn submitted_and_local_runs_are_bit_identical() {
    // The exact request the CLI would send with:
    //   mcr_sim submit - <<< '{"cmd":"run","workload":"libq",...}'
    let request = r#"{"cmd": "run", "workload": "libq", "mode": "4/4x/100", "len": 1500,
                      "metrics": true}"#;
    // ... and the RunSpec the CLI builds locally for the same flags.
    let spec = RunSpec {
        workload: Some("libq".into()),
        mode: protocol::parse_mode("4/4x/100").expect("headline mode"),
        len: 1_500,
        ..RunSpec::default()
    };
    let local_results = spec.sweep(Some(1)).expect("local sweep").run();
    let mut local = protocol::results_json(&local_results);

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
    let reply = client
        .request(&Json::parse(request).expect("request parses"))
        .expect("request round-trips");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("ok"),
        "reply: {reply:?}"
    );
    let mut remote = reply.get("result").cloned().expect("result body");
    // The merged telemetry a `"metrics": true` reply carries is the
    // local run's, byte for byte.
    let telemetry = reply.get("telemetry").expect("telemetry member");
    assert_eq!(
        telemetry.to_string(),
        telemetry_json(&local_results.merged_telemetry()).to_string()
    );
    client
        .request(&Json::parse(r#"{"cmd": "shutdown"}"#).expect("shutdown parses"))
        .expect("shutdown answered");
    handle.join().expect("server thread");

    strip_volatile(&mut local);
    strip_volatile(&mut remote);
    assert_eq!(
        local, remote,
        "a submitted run and a local run must produce identical results"
    );
    // Bit-identical all the way down to the serialized bytes.
    assert_eq!(local.to_string(), remote.to_string());
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcr-sweep-determinism-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A second, smaller grid whose keyset is a strict subset of [`grid`]'s
/// (same workloads and modes, fewer of each), so concurrent sweeps
/// genuinely contend for the same store entries.
fn small_grid(jobs: usize) -> mcr_dram::Sweep {
    SweepBuilder::new(LEN)
        .workloads(["libq", "comm1"])
        .mode(McrMode::off())
        .mode(McrMode::headline())
        .mechanisms(Mechanisms::access_only())
        .jobs(jobs)
        .build()
        .expect("valid grid")
}

#[test]
fn concurrent_sweeps_share_one_persistent_store() {
    // Eight threads hammer one disk-backed store with two different
    // sweeps (overlapping keysets, work-stealing workers inside each).
    // Every thread must come back bit-identical to the jobs=1 cold
    // reference of its sweep, no matter who computed or who hit.
    let cold_big = grid(1).run();
    let cold_small = small_grid(1).run();
    let dir = store_dir("threads");
    let store = ResultStore::open(&dir).expect("open store");
    std::thread::scope(|scope| {
        for t in 0..8 {
            let store = &store;
            let (cold, mine): (_, fn(usize) -> mcr_dram::Sweep) = if t % 2 == 0 {
                (&cold_big, grid)
            } else {
                (&cold_small, small_grid)
            };
            scope.spawn(move || {
                let results = mine(2).run_with_store(store);
                assert_eq!(results.points.len(), cold.points.len());
                for (c, r) in cold.points.iter().zip(&results.points) {
                    assert_eq!(c.label, r.label, "thread {t}: order preserved");
                    assert_eq!(
                        c.report, r.report,
                        "thread {t}: shared-store run diverged at {}",
                        c.label
                    );
                }
            });
        }
    });
    // Exactly the union of both keysets was committed (the small grid
    // is a subset of the big one), and a final cold-process pass is
    // served entirely from disk.
    assert_eq!(store.len(), 12, "the union of both keysets, exactly once");
    let fresh = ResultStore::open(&dir).expect("reopen");
    let warm = grid(1).run_with_store(&fresh);
    assert_eq!(warm.cache_hits(), warm.points.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spawned_processes_share_one_cache_dir() {
    // Two real `mcr_sim` processes race on one --cache-dir; each must
    // emit results bit-identical to an in-process jobs=1 cold run.
    let spec = RunSpec {
        workload: Some("libq".into()),
        mode: protocol::parse_mode("4/4x/100").expect("headline mode"),
        len: LEN,
        ..RunSpec::default()
    };
    let mut local = protocol::results_json(&spec.sweep(Some(1)).expect("local sweep").run());
    strip_volatile(&mut local);

    let bin = env!("CARGO_BIN_EXE_mcr_sim");
    let dir = store_dir("procs");
    let dir_s = dir.to_string_lossy().into_owned();
    let spawn = || {
        std::process::Command::new(bin)
            .args([
                "--workload",
                "libq",
                "--mode",
                "4/4x/100",
                "--len",
                &LEN.to_string(),
                "--jobs",
                "2",
                "--cache-dir",
                &dir_s,
                "--json",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn mcr_sim")
    };
    let (a, b) = (spawn(), spawn());
    for (tag, child) in [("first", a), ("second", b)] {
        let out = child.wait_with_output().expect("mcr_sim exits");
        assert!(out.status.success(), "{tag} process failed: {out:?}");
        let mut doc =
            Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("output parses");
        strip_volatile(&mut doc);
        assert_eq!(
            doc.to_string(),
            local.to_string(),
            "{tag} process diverged from the local cold run"
        );
    }
    let store = ResultStore::open(&dir).expect("open store");
    assert_eq!(store.len(), 2, "baseline + MCR point committed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_expiry_still_publishes_completed_points() {
    // Regression: points that finish before the budget expires must
    // already be in the store when `run_budgeted` gives up — a cancelled
    // sweep may cost the un-run tail, never completed work.
    let dir = store_dir("budget");
    let store = ResultStore::open(&dir).expect("open store");
    let cancel = CancelToken::new();
    let budget = RunBudget::unbounded().with_cancel(cancel.clone());
    let published_at_cancel = std::thread::scope(|scope| {
        let watcher = {
            let store = &store;
            let cancel = cancel.clone();
            scope.spawn(move || {
                // Cancel as soon as the first point is durably on disk.
                for _ in 0..4_000 {
                    let n = store.len();
                    if n >= 1 {
                        cancel.cancel();
                        return n;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                cancel.cancel();
                0
            })
        };
        let outcome = grid(2).run_budgeted(&store, &budget);
        let seen = watcher.join().expect("watcher thread");
        assert!(seen >= 1, "a point must have been published before cancel");
        if let Some(results) = &outcome {
            // The cancel raced the final point: then ALL points must be
            // in the store, not just the one the watcher saw.
            assert_eq!(results.points.len(), 12);
        }
        seen
    });
    let published = store.len();
    assert!(
        published >= published_at_cancel,
        "publishes never roll back"
    );
    // Whatever was published is bit-identical to a cold run, and a
    // warm retry serves it straight from disk.
    let cold = grid(1).run();
    let retry = grid(1).run_with_store(&store);
    assert!(retry.cache_hits() >= usize::try_from(published).unwrap_or(usize::MAX));
    for (c, r) in cold.points.iter().zip(&retry.points) {
        assert_eq!(
            c.report, r.report,
            "published point diverged at {}",
            c.label
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_errors_display_cleanly() {
    let errors: Vec<ConfigError> = vec![
        ConfigError::EmptyWorkloads,
        ConfigError::EmptyTrace,
        ConfigError::AllocRatioRange(1.5),
        ConfigError::AllocWithRowCache,
        ConfigError::ModeWithRegionMap {
            mode: McrMode::headline(),
        },
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert!(msg.is_ascii(), "keep messages terminal-safe: {msg}");
        // std::error::Error is implemented (usable with `?` and dyn Error).
        let _: &dyn std::error::Error = &e;
    }
}

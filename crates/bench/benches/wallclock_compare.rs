//! Simulation throughput of each DRAM-architecture backend (DESIGN.md
//! §5l).
//!
//! Times one full run of the same trace under every registered backend
//! — the exact per-point work a `compare` campaign schedules — and
//! writes `BENCH_compare.json` at the repo root with per-backend
//! points/sec plus wall-clock speedup vs the plain-DDR3 baseline
//! backend. The dynamic CLR-DRAM coupling table and the TL-DRAM segment
//! map both ride the same `DevicePolicy` seam as MCR, so none of them
//! should cost more than a small constant factor over baseline.
//!
//! Knobs:
//! - `MCR_BENCH_COMPARE_LEN` — trace length per point (default 4_000).
//! - `MCR_BENCH_GATE=1`      — fail unless every backend produced a
//!   nonzero throughput and the table covers every registered backend
//!   (`make check` sets this).

use mcr_bench::{header, timed};
use mcr_dram::{BackendKind, McrMode, SweepBuilder, System};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed runs per backend (best-of-N).
const ITERS: u32 = 3;

fn trace_len() -> usize {
    std::env::var("MCR_BENCH_COMPARE_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    timed("wallclock_compare", || {
        header(
            "wallclock_compare",
            "per-backend simulation throughput of the compare campaign",
        );
        let len = trace_len();
        let sweep = SweepBuilder::new(len)
            .workload("libq")
            .backends(BackendKind::all())
            .mode(McrMode::headline())
            .build()
            .expect("valid compare grid");

        // (backend name, best wall ns) per campaign point.
        let mut rows: Vec<(String, u64)> = Vec::new();
        for point in sweep.points() {
            let kind = point.config.backend.kind;
            let mut best_ns = u64::MAX;
            for _ in 0..ITERS {
                let sys = System::build(&point.config);
                let t = Instant::now();
                let report = sys.run();
                let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                assert!(report.reads_done > 0, "{kind} did no reads");
                best_ns = best_ns.min(ns);
            }
            rows.push((kind.name().to_string(), best_ns));
        }

        let baseline_ns = rows
            .iter()
            .find(|(name, _)| name == "baseline")
            .map(|&(_, ns)| ns)
            .expect("baseline backend in the default registry");

        let mut json =
            format!("{{\n  \"trace_len\": {len},\n  \"iters\": {ITERS},\n  \"backends\": [\n");
        for (i, (name, ns)) in rows.iter().enumerate() {
            let points_per_sec = 1e9 / *ns as f64;
            let speedup = baseline_ns as f64 / *ns as f64;
            println!(
                "{name:<10} {ns:>12} ns/point   {points_per_sec:>8.2} points/s   \
                 speedup vs baseline {speedup:>5.2}x"
            );
            let _ = writeln!(
                json,
                "    {{\"backend\": \"{name}\", \"wall_ns\": {ns}, \
                 \"points_per_sec\": {points_per_sec:.3}, \
                 \"speedup_vs_baseline\": {speedup:.3}}}{}",
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        json.push_str("  ]\n}\n");
        let out = repo_root().join("BENCH_compare.json");
        std::fs::write(&out, json).expect("write BENCH_compare.json");
        println!("wrote {}", out.display());

        if std::env::var("MCR_BENCH_GATE").as_deref() == Ok("1") {
            assert_eq!(
                rows.len(),
                mcr_dram::registered_backends().len(),
                "the bench must cover every registered backend"
            );
            for (name, ns) in &rows {
                assert!(
                    *ns > 0 && *ns < u64::MAX,
                    "{name}: no valid timing recorded"
                );
            }
            println!("[gate] {} backends timed ok", rows.len());
        }
    });
}

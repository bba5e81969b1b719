//! Wall clock of the simulator itself, written as [`Metrics`] to
//! `BENCH_wallclock.json` at the repo root. Three sections:
//!
//! - `core.*` (DESIGN.md §5h): event wheel vs the dense reference drive
//!   on five cases, with the two `RunReport`s asserted bit-identical.
//! - `sweep.*` (DESIGN.md §5j): a fig-11 grid cold (empty `mcr-store`
//!   directory) vs warm (a fresh store on the populated directory, every
//!   point a validated disk hit), warm results asserted identical.
//! - `compare.*` (DESIGN.md §5l): one run per registered backend, as
//!   best-of-3 ns per point and points per second (no cross-backend
//!   ratio: best-of-3 timings at 4k ops do not rank the backends).
//!
//! `MCR_BLESS_BENCH=1` rewrites `BENCH_baseline.json` from this run;
//! `MCR_BENCH_GATE=1` (set by `make check`) fails the bench unless
//! [`mcr_bench::gate`] passes against `BENCH_baseline.json`.

use mcr_bench::{gate, Metrics};
use mcr_dram::{BackendKind, McrMode, Mechanisms, SweepBuilder, System, SystemConfig};
use mcr_store::ResultStore;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace_gen::{Suite, WorkloadProfile};

/// Trace length of the core cases (the idle cases use a quarter).
const CORE_LEN: usize = 20_000;
/// Timed runs per drive per core case, after one warm-up run each.
const CORE_ITERS: u32 = 5;
/// Trace length per sweep point.
const SWEEP_LEN: usize = 4_000;
/// Cold sweeps, each into a pristine directory.
const COLD_ITERS: u32 = 2;
/// Warm sweeps over the directory the last cold sweep populated.
const WARM_ITERS: u32 = 5;
/// Trace length per compare point.
const COMPARE_LEN: usize = 4_000;
/// Timed runs per backend.
const COMPARE_ITERS: u32 = 3;

fn env_on(var: &str) -> bool {
    std::env::var_os(var).is_some_and(|v| v == "1")
}

/// Best-of-`iters` wall ns of `run` (the minimum is the least
/// noise-sensitive estimator), plus every run's output for the caller
/// to check. `setup` runs untimed before each `run`.
fn best_ns<S, T>(
    iters: u32,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> (u64, Vec<T>) {
    let mut best = u64::MAX;
    let mut outputs = Vec::new();
    for _ in 0..iters {
        let input = setup();
        let t = Instant::now();
        outputs.push(run(input));
        best = best.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    (best, outputs)
}

/// Times `cfg` under both drives and records `core.<name>.*`.
fn core_case(metrics: &mut Metrics, name: &str, cfg: &SystemConfig) {
    let drive = |skip_ahead: bool| {
        let run = |()| {
            let mut sys = System::build(cfg);
            sys.set_skip_ahead(skip_ahead);
            sys.run()
        };
        let warm_up = run(()); // also the equality witness
        let (ns, reports) = best_ns(CORE_ITERS, || (), run);
        assert!(
            reports.iter().all(|r| *r == warm_up),
            "{name}: non-deterministic"
        );
        (ns, warm_up)
    };
    let (wheel_ns, wheel) = drive(true);
    let (dense_ns, dense) = drive(false);
    assert_eq!(wheel, dense, "{name}: wheel and dense reports differ");
    let speedup = dense_ns as f64 / wheel_ns as f64;
    println!("{name:<24} wheel {wheel_ns:>12} ns   dense {dense_ns:>12} ns   {speedup:>6.2}x");
    metrics.push(format!("core.{name}.wheel_ns"), wheel_ns as f64, "ns");
    metrics.push(format!("core.{name}.dense_ns"), dense_ns as f64, "ns");
    metrics.push(format!("core.{name}.speedup"), speedup, "x");
}

fn core(metrics: &mut Metrics) {
    let mode = |m, k| McrMode::new(m, k, 1.0).expect("valid Table 1 mode");
    // Near-idle (0.5 memory ops per kilo-instruction): the rank sits in
    // power-down or refresh-only spans most of the run, which the wheel
    // skips. Each record covers ~250 memory cycles, hence fewer records.
    let black = trace_gen::workload("black").expect("library workload");
    let idle = WorkloadProfile {
        name: "idle",
        suite: Suite::Commercial,
        mpki: 0.5,
        ..*black
    };
    let idle_cfg = |cfg: SystemConfig| SystemConfig {
        workloads: vec![idle],
        ..cfg
    };
    let powerdown = SystemConfig::single_core("black", CORE_LEN / 4).with_mode(mode(1, 2));
    core_case(
        metrics,
        "powerdown_idle",
        &idle_cfg(powerdown.with_powerdown(64)),
    );
    let refresh_skip = SystemConfig::single_core("black", CORE_LEN / 4).with_mode(mode(4, 4));
    core_case(metrics, "refresh_skip_idle", &idle_cfg(refresh_skip));
    // Gap-heavy but compute-bound: the wheel wins by batching compute spans.
    let gap_black = SystemConfig::single_core("black", CORE_LEN).with_mode(mode(1, 2));
    core_case(metrics, "gap_heavy_black", &gap_black);
    // Loaded control: about a wash, never a loss that trips the gate.
    let loaded = SystemConfig::single_core("libq", CORE_LEN).with_mode(McrMode::headline());
    core_case(metrics, "loaded_libq_headline", &loaded);
    // Quad-core loaded control: the benchmark's `mix_quad` cores (mix01),
    // a quarter of the single-core length each. Deep write queues and
    // four cores per memory cycle leave the wheel the fewest skips.
    let mix01 = ["comm3", "leslie", "fluid", "mummer"]
        .map(|name| trace_gen::workload(name).expect("library workload"));
    let quad = SystemConfig::multi_core(mix01, CORE_LEN / 4).with_mode(McrMode::headline());
    core_case(metrics, "loaded_mix_quad", &quad);
}

fn sweep(metrics: &mut Metrics) {
    // The fig-11 shape the determinism suite uses: three workloads x
    // (baseline + three MCR modes), all worker threads.
    let grid = SweepBuilder::new(SWEEP_LEN)
        .workloads(["libq", "comm1", "leslie"])
        .mode(McrMode::off())
        .mode(McrMode::new(2, 2, 1.0).expect("valid mode"))
        .mode(McrMode::new(4, 4, 0.5).expect("valid mode"))
        .mode(McrMode::headline())
        .mechanisms(Mechanisms::access_only())
        .jobs(0)
        .build()
        .expect("valid grid");
    let mut tag = 0;
    let (cold_ns, mut colds) = best_ns(
        COLD_ITERS,
        || {
            tag += 1;
            let dir =
                std::env::temp_dir().join(format!("mcr-bench-sweep-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (ResultStore::open(&dir).expect("open cold store"), dir)
        },
        |(store, dir)| (grid.run_with_store(&store), dir),
    );
    assert!(
        colds.iter().all(|(r, _)| r.cache_hits() == 0),
        "cold run must simulate"
    );
    let (reference, dir) = colds.pop().expect("at least one cold run");
    for (_, stale) in colds {
        let _ = std::fs::remove_dir_all(stale);
    }
    let (warm_ns, warms) = best_ns(
        WARM_ITERS,
        || ResultStore::open(&dir).expect("open warm store"),
        |store| grid.run_with_store(&store),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let points = grid.points().len();
    for warm in &warms {
        assert_eq!(warm.cache_hits(), points, "warm run must hit every point");
        for (c, w) in reference.points.iter().zip(&warm.points) {
            assert_eq!((c.key, &c.report), (w.key, &w.report), "warm {}", c.label);
        }
    }
    let speedup = cold_ns as f64 / warm_ns as f64;
    println!("sweep   cold {cold_ns:>12} ns   warm {warm_ns:>12} ns   {speedup:>7.2}x");
    metrics.push("sweep.cold_ns", cold_ns as f64, "ns");
    metrics.push("sweep.warm_ns", warm_ns as f64, "ns");
    metrics.push("sweep.warm_over_cold", speedup, "x");
}

fn compare(metrics: &mut Metrics) {
    let grid = SweepBuilder::new(COMPARE_LEN)
        .workload("libq")
        .backends(BackendKind::all())
        .mode(McrMode::headline())
        .build()
        .expect("valid compare grid");
    for point in grid.points() {
        let kind = point.config.backend.kind;
        let setup = || System::build(&point.config);
        let (ns, reports) = best_ns(COMPARE_ITERS, setup, |sys| sys.run());
        assert!(
            reports.iter().all(|r| r.reads_done > 0),
            "{kind} did no reads"
        );
        let (name, ns) = (kind.name(), ns as f64);
        println!("{name:<10} {ns:>12} ns/point");
        metrics.push(format!("compare.{name}.ns_per_point"), ns, "ns");
        metrics.push(format!("compare.{name}.points_per_s"), 1e9 / ns, "points/s");
    }
}

fn main() {
    let mut metrics = Metrics::default();
    let t = Instant::now();
    core(&mut metrics);
    sweep(&mut metrics);
    compare(&mut metrics);
    println!("[wallclock] completed in {:.1?}", t.elapsed());
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let write = |path: PathBuf| {
        std::fs::write(&path, metrics.render()).expect("write bench file");
        println!("wrote {}", path.display());
    };
    write(root.join("BENCH_wallclock.json"));
    let baseline_path = root.join("BENCH_baseline.json");
    if env_on("MCR_BLESS_BENCH") {
        write(baseline_path.clone());
    }
    if env_on("MCR_BENCH_GATE") {
        let baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| Metrics::parse(&text))
            .unwrap_or_else(|e| panic!("[gate] {}: {e}", baseline_path.display()));
        if let Err(failures) = gate(&metrics, &baseline) {
            panic!(
                "[gate] wall-clock regression (re-bless with `make bless-bench` only \
                 after an intended perf change):\n{}",
                failures.join("\n")
            );
        }
        println!("[gate] ok");
    }
}

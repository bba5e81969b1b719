//! Wall-clock benchmark of the MCR-DRAM simulator, end to end and layer
//! by layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload <libq_headline|black_powerdown|mix_quad|fig11_sweep|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` (also written to
//! `--out`). Exits 1 when any operation failed, 2 on a usage error.
//! `all` runs each workload in a process of its own, so each reports its
//! own peak RSS. All times are host wall-clock time; simulated time only
//! appears in counts named in cycles.
//!
//! # Workloads
//!
//! The seed (default 2015) feeds `SystemConfig::with_seed` /
//! `SweepBuilder::seed`, so it varies the generated traces; the
//! configurations themselves are fixed.
//!
//! * `libq_headline` — `single_core("libq", 100_000)` at the headline
//!   4/4x@100% mode: the paper's headline workload, and a loaded one, so
//!   the controller's tick and `next_event` dominate (the event wheel runs
//!   slower than the dense drive here).
//! * `black_powerdown` — `single_core("black", 50_000)` at 1/2x@100% with
//!   power-down after 64 idle cycles: gap-heavy and mostly idle, so the
//!   cores' compute spans and the wheel's skips do the work and the
//!   controller does little per cycle.
//! * `mix_quad` — mix01 (comm3/leslie/fluid/mummer) on four cores, 12_500
//!   operations each, headline mode: the same controller used another way,
//!   four cores per memory cycle, about 30% writes (write queue and drain)
//!   and low row locality.
//! * `fig11_sweep` — libq/comm1/leslie × {off, 2/2x, 4/4x@50%, 4/4x@100%},
//!   Early-Access/Early-Precharge only, 20_000 operations per point, on two
//!   workers (fewer on a one-core host): the sweep engine and the result
//!   store.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! One client in a closed loop: each sample starts when the previous one
//! ended. An untimed reference run, one dense-drive run and warm-up runs
//! come first; then `--seconds` of timed samples. A cold sample builds and
//! runs one `System` (for the sweep: builds the sweep, opens a
//! `ResultStore` in an empty directory and computes every point). A warm
//! sample opens a fresh `ResultStore` over the populated directory and
//! looks every point up from disk. Warm samples follow each cold one and
//! take a twentieth of the time, so both kinds span the whole run.
//!
//! On a shared host, neighbours slow the simulator through shared caches
//! and cores, by up to 2x for seconds or minutes at a time. So every time
//! is scaled to a host on which a fixed calibration kernel (benchmark
//! code: pseudo-random, branchy updates to a 256 KiB table) takes exactly
//! 1 ms. The kernel runs just before every cold sample, on as many
//! threads as the workload uses. It feels the same contention, only
//! less: the simulator's time grows as the kernel's time to the power
//! 1.8, so each sample is divided by that power of the kernel time taken
//! just before it. Over two sets of ten 25-second runs per workload on a
//! busy shared 2-vCPU 2.1 GHz Xeon, the spread (IQR over median) of
//! median run times was up to 41% raw, up to 21% divided by the kernel
//! time, and at most 7% divided by its 1.8th power, the power that fitted
//! best (`measured_spread.json` records two later sets of the metrics:
//! at most 11%). A register-only loop, which contention barely touches,
//! cannot do this.
//!
//! Every time metric is a scaled median. Every sample does the same work,
//! so the tail of the samples is the host's, not the program's: the raw
//! wall-clock median and p90 are printed above the metrics, with the
//! sample counts (a 25-second run takes about 100 or more cold samples on
//! the single-run workloads, 70 to 120 on the sweep) and the median
//! calibration time, but no tail is a metric.
//!
//! * `setup_s` — `System::try_build` time (sweep: `SweepBuilder::build`
//!   plus `ResultStore::open`).
//! * `run_ms_p50` — one run (one cold sweep pass).
//! * `ns_per_request` — `run_ms_p50` over the requests the controller
//!   served (`reads_done + writes_done`, summed over points).
//! * `points_per_s` — points over set-up plus run time.
//! * `warm_points_per_s` — points over one warm sample.
//! * `peak_rss_mb` — `VmHWM` of the process.
//!
//! Failures are not a metric: `failed` counts them against `attempted`.
//!
//! # Correctness gate
//!
//! The first run is each workload's reference. Every timed and warm run
//! must equal it, and so must one dense-drive run
//! (`System::set_skip_ahead(false)`). At seed 2015 an FNV-64 digest of the
//! store codec's JSON of every point must match the digest pinned in
//! `workload.rs`. A panic, a build error or a mismatch counts as a failed
//! operation.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A separate, traced invocation. `capture` drives the workload's run
//! (for `fig11_sweep`: its libq 4/4x@100% point) through the same public
//! calls `System::run` makes and records the controller's call sequence,
//! the cores' call sequence and each channel's command stream; the
//! captured run must match `System::run` bit for bit. Each layer is then
//! replayed alone under one timer, and must answer exactly as captured:
//! the controller's sequence with and without its `next_event` queries,
//! the cores' sequence against the recorded answers over pre-generated
//! traces, the command stream on a fresh `Channel`, and the ACT addresses
//! through `McrPolicy::activate_class`. The sweep and the store are timed
//! through a `ReportStore` wrapper over a cold, a disk-warm and a hot pass.
//!
//! Which end-to-end metric each layer should move, and where:
//!
//! | layer            | metrics                                           | moves                          | on                                   |
//! |------------------|---------------------------------------------------|--------------------------------|--------------------------------------|
//! | `mem-controller` | `ms`, `self_ms`, ticks, `next_event` cost, skips  | `run_ms_p50`, `ns_per_request` | `libq_headline`, `mix_quad`; less on `black_powerdown` |
//! | `cpu-model`      | `ms`, cycle calls, compute spans, refused requests | `run_ms_p50`                  | `black_powerdown` (over half its run), `mix_quad` |
//! | `trace-gen`      | `ms`, records                                     | `run_ms_p50` by about 2%       | all                                  |
//! | `dram-device`    | `ms`, commands                                    | predicted: nothing past its bound (about 2%) | all                    |
//! | `policy`         | `activate_class` calls and cost                   | predicted: nothing (under 1%)  | all                                  |
//! | `system`         | untraced and dense run, residual                  | `run_ms_p50`                   | all                                  |
//! | `sweep`          | worker busy ratio, steals, point time             | `points_per_s`                 | `fig11_sweep`                        |
//! | `mcr-store`      | publish, disk and hot lookup, encode, entry size  | `warm_points_per_s`            | all; most on `fig11_sweep`           |
//! | `trace`          | capture time and its overhead over the plain run  | —                              | —                                    |
//!
//! Per-layer times are raw wall time (medians over repetitions), not
//! scaled. `mem-controller.self_ms` is its replay time less `next_event`
//! and the device replay. `system.residual_ms` is the untraced run less
//! the controller, core and trace-gen replays; it may be slightly
//! negative, since each replay also checks every answer.
//!
//! # Limitation
//!
//! The capture loop is a copy of `System::run`'s event-wheel drive loop.
//! A change to that loop in `crates/core/src/system.rs` leaves the copy,
//! and so `system.residual_ms`, stale until a benchmark change updates it.
//! (If the change alters results, the capture fails its bit-identity
//! check instead.) The layer replays always time the current code of
//! each layer.

mod capture;
mod e2e;
mod layers;
mod workload;

use mcr_dram::RunReport;
use sim_json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use workload::{Workload, PINNED_SEED};

const USAGE: &str =
    "usage: mcr-benchmark --workload <libq_headline|black_powerdown|mix_quad|fig11_sweep|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 25.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::from_name(&args.workload) else {
        eprintln!("error: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::measure(w, args.seed, args.seconds, &mut tally)
    } else {
        e2e::measure(w, args.seed, args.seconds, &mut tally)
    }
    .unwrap_or_default();
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let result = result_json(&mut tally, &metrics);
    println!("{result}");
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, format!("{result}\n")) {
            eprintln!("error: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line. A run that produced no metrics, or a metric that is
/// not a finite number, counts as one more failure.
fn result_json(tally: &mut Tally, metrics: &[Metric]) -> String {
    if metrics.is_empty() || metrics.iter().any(|m| !m.value.is_finite()) {
        tally.error("result", "missing or non-finite metrics");
    }
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Json::obj([("value", Json::from(m.value)), ("unit", Json::str(m.unit))]);
            (m.name.to_string(), value)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// Runs every workload in a process of its own (so each reports its own
/// peak RSS), one after another.
fn run_all(args: &Args) -> ExitCode {
    if args.out.is_some() {
        eprintln!("error: --out needs a single workload\n{USAGE}");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed. A failure is a panic, an error from
/// the simulator, or an output that differs from the reference.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one operation, counting it, and its failure if it panics or
    /// returns an error.
    pub fn attempt<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.failed += 1;
                self.report(what, &e);
                None
            }
            Err(_) => {
                self.failed += 1;
                self.report(what, "panicked");
                None
            }
        }
    }

    /// Records a failure outside any attempted operation.
    pub fn error(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.report(what, why);
    }

    fn report(&self, what: &str, why: &str) {
        if self.failed <= 10 {
            eprintln!("error: {what}: {why}");
        }
    }
}

/// Checks that `got` equals `want`, point for point.
pub fn same_reports(got: &[RunReport], want: &[RunReport]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err("report differs from the reference".into())
    }
}

/// At the pinned seed, the reports must hash to the pinned digest.
pub fn check_digest(w: Workload, seed: u64, reports: &[RunReport], tally: &mut Tally) {
    if seed == PINNED_SEED {
        tally.attempt("pinned digest", || {
            let got = workload::digest(reports);
            if got == w.pinned_digest() {
                Ok(())
            } else {
                Err(format!(
                    "digest {got:#018x}, pinned {:#018x}",
                    w.pinned_digest()
                ))
            }
        });
    }
}

/// Nearest-rank quantile; `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A directory for result stores under `.bench_tmp/` of the working
/// directory, unique to this process and instance, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new() -> Result<ScratchDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(".bench_tmp").join(format!("{}-{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_tmp` itself only if another run still uses it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_dram::{McrMode, System};

    /// Not the pinned seed: unit tests run every trace cut 100-fold, so the
    /// pinned digests do not apply.
    const SEED: u64 = 7;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared_names(doc: &Json, section: &str) -> Vec<String> {
        let mut names: Vec<String> = doc
            .get(section)
            .and_then(Json::as_array)
            .expect(section)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        names.sort();
        names
    }

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let doc = benchmark_json();
        let workloads = declared_names(&doc, "workloads");
        let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        ours.sort();
        assert_eq!(workloads, ours);
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let declared = declared_names(&doc, section);
            assert!(
                declared.iter().all(|n| legal_name(n)),
                "{section}: {declared:?}"
            );
            for w in Workload::ALL {
                let mut tally = Tally::default();
                let metrics = if trace {
                    layers::measure(w, SEED, 0.01, &mut tally)
                } else {
                    e2e::measure(w, SEED, 0.01, &mut tally)
                }
                .expect("metrics");
                assert_eq!(tally.failed, 0, "{} {section}", w.name());
                let mut emitted: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
                emitted.sort();
                assert_eq!(emitted, declared, "{} {section}", w.name());
                assert!(metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }

    #[test]
    fn capture_and_every_replay_are_bit_identical() {
        for w in Workload::ALL {
            let cfg = w.config(SEED);
            let reference = System::try_build(&cfg).expect("valid config").run();
            if let Err(e) = layers::layer_rep(&cfg, &reference) {
                panic!("{}: {e}", w.name());
            }
        }
    }

    #[test]
    fn layers_plus_residual_add_up_to_the_run() {
        let mut tally = Tally::default();
        let metrics = layers::measure(Workload::MixQuad, SEED, 0.01, &mut tally).expect("metrics");
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect(name)
        };
        let sum = get("mem-controller.ms")
            + get("cpu-model.ms")
            + get("trace-gen.ms")
            + get("system.residual_ms");
        let run = get("system.run_ms");
        assert!((sum - run).abs() <= 1e-9 * run, "{sum} vs {run}");
    }

    #[test]
    fn a_tampered_reference_fails_the_gate() {
        let cfg = Workload::LibqHeadline.config(SEED);
        let run = || System::try_build(&cfg).expect("valid config").run();
        let mut tampered = run();
        tampered.controller.reads_done += 1;
        assert_ne!(workload::digest([&run()]), workload::digest([&tampered]));
        let mut tally = Tally::default();
        let ok = tally.attempt("timed run", || {
            same_reports(&[run()], std::slice::from_ref(&tampered))
        });
        assert!(ok.is_none());
        let result = Json::parse(&result_json(&mut tally, &[metric("run_ms_p50", 1.0, "ms")]))
            .expect("result parses");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn workloads_are_the_configurations_they_claim() {
        let mix = &trace_gen::multi_programmed_mixes(2015)[0];
        let quad = Workload::MixQuad.config(SEED);
        assert_eq!(mix.name, "mix01");
        assert!(mix
            .cores
            .iter()
            .zip(&quad.workloads)
            .all(|(a, b)| a.name == b.name));
        let profiled = Workload::Fig11Sweep.config(SEED);
        assert_eq!(profiled.workloads[0].name, "libq");
        assert_eq!(profiled.mode, McrMode::headline());
        assert_eq!(profiled.seed, SEED);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "mix_quad", "--trace", "1"]).is_ok_and(|a| a.trace));
        for bad in [
            &["--trace", "0"][..],
            &["--workload", "mix_quad", "--trace", "2"],
            &["--workload", "mix_quad", "--seed"],
            &["--workload", "mix_quad", "--seconds", "0"],
            &["--workload", "mix_quad", "--jobs", "4"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}

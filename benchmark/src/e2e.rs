//! End-to-end metrics: closed-loop timed runs with tracing off.

use crate::workload::Workload;
use crate::{check_digest, median, metric, quantile, same_reports, Metric, ScratchDir, Tally};
use mcr_dram::{ReportStore, RunReport, System, SystemConfig};
use mcr_store::ResultStore;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Untimed runs after the reference run, before the timed loop.
const WARMUP_RUNS: usize = 2;

/// Share of `--seconds` spent on warm (memoized) lookups; the rest times
/// cold runs.
const WARM_SHARE: f64 = 0.05;

/// When neighbours contend for the host, the simulator slows as the
/// calibration kernel's time to this power: it leans on caches and branch
/// prediction harder than the kernel does. Fitted over runs of every
/// workload on a busy shared host (see the module doc of `main.rs`).
const CONTENTION_EXPONENT: f64 = 1.8;

/// Sample buffers are sized for this many samples per second up front (a
/// cold sample takes at least the 1 ms calibration kernel), so they never
/// reallocate: a reallocation copies into fresh pages and would move
/// `peak_rss_mb` with the sample count.
const SAMPLES_PER_SECOND: f64 = 2_000.0;

/// Words in the calibration kernel's table (256 KiB): small enough for a
/// core's L2 cache, so the kernel waits on caches, not on DRAM.
const CALIBRATION_WORDS: usize = 1 << 16;

/// Table updates per calibration: about 1 ms on a quiet 2.1 GHz Xeon.
const CALIBRATION_UPDATES: usize = 125_000;

/// Wall time, in ms, of a fixed number of pseudo-random read-modify-write
/// updates to `table` (refilled with the same words first, untimed), each
/// taking one of three branches by the word it reads: the yardstick for
/// how fast the host runs this kind of code right now. A neighbour that
/// slows the simulator through shared caches or a shared core slows this
/// too, where a register-only loop barely notices. It is benchmark code,
/// so no change to the simulator moves it.
fn calibration_kernel_ms(table: &mut [u32]) -> f64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut xorshift = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for word in table.iter_mut() {
        *word = (xorshift() >> 32) as u32;
    }
    let mask = table.len() - 1;
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..CALIBRATION_UPDATES {
        let i = xorshift() as usize & mask;
        let v = table[i];
        if v & 1 == 0 {
            table[i] = v.wrapping_add(3);
            acc = acc.wrapping_add(u64::from(v));
        } else if v & 2 == 0 {
            table[(i + 1) & mask] ^= v;
        } else {
            acc ^= u64::from(v);
            table[i] = v >> 1;
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The calibration kernel on one thread per table at once, as a harmonic
/// mean: the time per kernel when work spreads over all of them, as a
/// sweep's does.
fn calibration_ms(tables: &mut [Vec<u32>]) -> f64 {
    if let [table] = tables {
        return calibration_kernel_ms(table);
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let kernels: Vec<_> = tables
            .iter_mut()
            .map(|t| s.spawn(|| calibration_kernel_ms(t)))
            .collect();
        kernels
            .into_iter()
            .map(|k| k.join().expect("the calibration kernel does not panic"))
            .collect()
    });
    tables.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// One cold sample: set-up and run wall time.
struct Sample {
    setup: Duration,
    run: Duration,
}

/// The samples of one measurement, each with the calibration time taken
/// just before its cold run.
struct Samples {
    cold: Vec<(Sample, f64)>,
    warm: Vec<(Duration, f64)>,
}

/// The median of wall times (in seconds or ms), each first scaled to a
/// host on which the calibration kernel takes exactly 1 ms.
fn scaled_median(times: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    let scaled: Vec<f64> = times
        .map(|(t, calibration_ms)| t / calibration_ms.powf(CONTENTION_EXPONENT))
        .collect();
    median(&scaled)
}

/// Runs `cold` back to back for `seconds` (at least once), one client in a
/// closed loop. Each cold run is preceded by the calibration kernel on
/// the workload's `threads` and followed by `warm` runs for
/// [`WARM_SHARE`] of the time, so warm samples span the whole measurement
/// too. Keeps the samples of the runs that succeeded.
fn closed_loop(
    tally: &mut Tally,
    seconds: f64,
    threads: usize,
    mut cold: impl FnMut() -> Result<Sample, String>,
    mut warm: impl FnMut() -> Result<Duration, String>,
) -> Samples {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let capacity = (seconds.min(60.0) * SAMPLES_PER_SECOND) as usize;
    let mut tables = vec![vec![0; CALIBRATION_WORDS]; threads.max(1)];
    let mut samples = Samples {
        cold: Vec::with_capacity(capacity),
        warm: Vec::with_capacity(capacity),
    };
    loop {
        let calibration = calibration_ms(&mut tables);
        let t = Instant::now();
        if let Some(sample) = tally.attempt("timed cold run", &mut cold) {
            samples.cold.push((sample, calibration));
        }
        let warm_end = Instant::now() + t.elapsed().mul_f64(WARM_SHARE / (1.0 - WARM_SHARE));
        loop {
            if let Some(d) = tally.attempt("timed warm run", &mut warm) {
                samples.warm.push((d, calibration));
            }
            if Instant::now() >= warm_end {
                break;
            }
        }
        if Instant::now() >= end {
            return samples;
        }
    }
}

pub fn measure(w: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Option<Vec<Metric>> {
    let scratch = ScratchDir::new()
        .map_err(|e| tally.error("scratch directory", &e))
        .ok()?;
    let (reference, samples) = if w.is_sweep() {
        sweep_loop(w, seed, seconds, &scratch, tally)?
    } else {
        single_loop(w, seed, seconds, &scratch, tally)?
    };
    let points = reference.len() as f64;
    let requests: u64 = reference
        .iter()
        .map(|r| r.controller.reads_done + r.controller.writes_done)
        .sum();
    let cold = || samples.cold.iter();
    let raw_run_ms: Vec<f64> = cold().map(|(s, _)| ms(s.run)).collect();
    let calibrations: Vec<f64> = cold().map(|&(_, c)| c).collect();
    println!(
        "{}: {} points, {requests} requests; {} cold samples, wall p50 {:.3} ms, \
         p90 {:.3} ms; {} warm samples; calibration kernel p50 {:.4} ms",
        w.name(),
        reference.len(),
        raw_run_ms.len(),
        median(&raw_run_ms)?,
        quantile(&raw_run_ms, 0.9)?,
        samples.warm.len(),
        median(&calibrations)?,
    );
    let run_ms = scaled_median(cold().map(|(s, c)| (ms(s.run), *c)))?;
    let setup_s = scaled_median(cold().map(|(s, c)| (s.setup.as_secs_f64(), *c)))?;
    let point_s = scaled_median(cold().map(|(s, c)| ((s.setup + s.run).as_secs_f64(), *c)))?;
    let warm_s = scaled_median(samples.warm.iter().map(|(d, c)| (d.as_secs_f64(), *c)))?;
    Some(vec![
        metric("setup_s", setup_s, "s"),
        metric("run_ms_p50", run_ms, "ms"),
        metric("ns_per_request", run_ms * 1e6 / requests as f64, "ns"),
        metric("points_per_s", points / point_s, "points/s"),
        metric("warm_points_per_s", points / warm_s, "points/s"),
        metric("peak_rss_mb", peak_rss_mb(tally)?, "MB"),
    ])
}

/// A single-run workload: each cold sample builds and runs one `System`;
/// each warm sample opens a fresh store over a directory holding the
/// reference report and looks it up.
fn single_loop(
    w: Workload,
    seed: u64,
    seconds: f64,
    scratch: &ScratchDir,
    tally: &mut Tally,
) -> Option<(Vec<RunReport>, Samples)> {
    let cfg = w.config(seed);
    let run = |skip_ahead: bool| -> Result<(Sample, RunReport), String> {
        let t0 = Instant::now();
        let mut sys = System::try_build(&cfg).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        sys.set_skip_ahead(skip_ahead);
        let report = sys.run();
        let sample = Sample {
            setup: t1 - t0,
            run: t1.elapsed(),
        };
        Ok((sample, report))
    };
    let (_, reference) = tally.attempt("reference run", || run(true))?;
    let reference = vec![reference];
    check_digest(w, seed, &reference, tally);
    tally.attempt("dense-drive run", || {
        same_reports(&[run(false)?.1], &reference)
    });
    for _ in 0..WARMUP_RUNS {
        tally.attempt("warm-up run", || same_reports(&[run(true)?.1], &reference));
    }
    let key = cfg.config_key();
    let dir = scratch.path().join("warm");
    tally.attempt("store publish", || {
        ResultStore::open(&dir)
            .map(|s| s.publish(key, &reference[0]))
            .map_err(|e| e.to_string())
    })?;

    let samples = closed_loop(
        tally,
        seconds,
        1,
        || {
            let (sample, report) = run(true)?;
            same_reports(&[report], &reference)?;
            Ok(sample)
        },
        || {
            let t = Instant::now();
            let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
            let found = store.lookup(key);
            let d = t.elapsed();
            same_reports(&[found.ok_or("warm lookup missed")?], &reference)?;
            Ok(d)
        },
    );
    Some((reference, samples))
}

/// The grid workload: each cold sample builds the sweep, opens a store
/// in an empty directory and computes every point (publishing each);
/// each warm sample opens a fresh store over the populated directory and
/// runs the sweep again, which only looks points up.
fn sweep_loop(
    w: Workload,
    seed: u64,
    seconds: f64,
    scratch: &ScratchDir,
    tally: &mut Tally,
) -> Option<(Vec<RunReport>, Samples)> {
    let dir = scratch.path().join("store");
    let cold_pass = || -> Result<(Sample, Vec<RunReport>), String> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        let t0 = Instant::now();
        let sweep = w.sweep(seed).build().map_err(|e| e.to_string())?;
        let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let results = sweep.run_with_store(&store);
        let sample = Sample {
            setup: t1 - t0,
            run: t1.elapsed(),
        };
        if results.cache_hits() != 0 {
            return Err("cold pass hit the store".into());
        }
        Ok((
            sample,
            results.points.into_iter().map(|p| p.report).collect(),
        ))
    };
    let (_, reference) = tally.attempt("reference pass", cold_pass)?;
    check_digest(w, seed, &reference, tally);
    let sweep = tally.attempt("sweep build", || {
        w.sweep(seed).build().map_err(|e| e.to_string())
    })?;
    tally.attempt("dense-drive pass", || {
        let dense: Result<Vec<RunReport>, String> = sweep
            .points()
            .iter()
            .map(|p| dense_run(&p.config))
            .collect();
        same_reports(&dense?, &reference)
    });
    tally.attempt("warm-up pass", || same_reports(&cold_pass()?.1, &reference));

    let samples = closed_loop(
        tally,
        seconds,
        sweep.jobs(),
        || {
            let (sample, reports) = cold_pass()?;
            same_reports(&reports, &reference)?;
            Ok(sample)
        },
        || {
            let t = Instant::now();
            let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
            let results = sweep.run_with_store(&store);
            let d = t.elapsed();
            if results.cache_hits() != results.points.len() {
                return Err("warm pass simulated".into());
            }
            let reports: Vec<RunReport> = results.points.into_iter().map(|p| p.report).collect();
            same_reports(&reports, &reference)?;
            Ok(d)
        },
    );
    Some((reference, samples))
}

/// One run on the dense reference drive (event wheel off).
fn dense_run(cfg: &SystemConfig) -> Result<RunReport, String> {
    let mut sys = System::try_build(cfg).map_err(|e| e.to_string())?;
    sys.set_skip_ahead(false);
    Ok(sys.run())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb(tally: &mut Tally) -> Option<f64> {
    tally.attempt("peak RSS", || {
        let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc/self/status")?;
        Ok(kib / 1024.0)
    })
}

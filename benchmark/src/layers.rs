//! Per-layer metrics: one traced invocation that captures a run's layer
//! boundaries, replays each layer alone, and times the sweep engine and
//! the result store through a timing wrapper.

use crate::capture::{self, Capture};
use crate::workload::Workload;
use crate::{check_digest, median, metric, same_reports, Metric, ScratchDir, Tally};
use mcr_dram::{ReportStore, RunReport, Sweep, SweepResults, System, SystemConfig};
use mcr_store::ResultStore;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall times of one repetition of the traced measurement, in ms.
#[derive(Default)]
pub(crate) struct Rep {
    run: f64,
    dense: f64,
    capture: f64,
    trace_gen: f64,
    ctl: f64,
    ctl_bare: f64,
    cores: f64,
    policy: f64,
    device: f64,
}

/// Store and sweep timings of one cold + warm + hot pass triple.
#[derive(Default)]
struct StorePasses {
    publish_us: Vec<f64>,
    lookup_disk_us: Vec<f64>,
    lookup_hot_us: Vec<f64>,
    point_ms: Vec<f64>,
    busy_ratio: Vec<f64>,
    steals: Vec<f64>,
}

pub fn measure(w: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Option<Vec<Metric>> {
    let cfg = w.config(seed);
    let scratch = ScratchDir::new()
        .map_err(|e| tally.error("scratch directory", &e))
        .ok()?;
    let reference = tally.attempt("reference run", || {
        Ok(System::try_build(&cfg).map_err(|e| e.to_string())?.run())
    })?;
    let sweep = tally.attempt("sweep build", || {
        w.sweep(seed).build().map_err(|e| e.to_string())
    })?;
    let sweep_reference: Vec<RunReport> = if w.is_sweep() {
        sweep.run().points.into_iter().map(|p| p.report).collect()
    } else {
        vec![reference.clone()]
    };
    check_digest(w, seed, &sweep_reference, tally);

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps = Vec::new();
    let mut store = StorePasses::default();
    let mut counts = None;
    loop {
        let rep = tally.attempt("traced repetition", || {
            let (rep, cap) = layer_rep(&cfg, &reference)?;
            counts = Some(cap.counts());
            Ok(rep)
        });
        reps.extend(rep);
        tally.attempt("store passes", || {
            store_passes(&sweep, &sweep_reference, scratch.path(), &mut store)
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    let counts = counts?;
    let encode = tally.attempt("encode", || Ok(encode_stats(&sweep_reference)))?;
    println!("{}: {} traced repetitions", w.name(), reps.len());

    let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let run_ms = med(|r| r.run)?;
    let dense_ms = med(|r| r.dense)?;
    let capture_ms = med(|r| r.capture)?;
    let trace_gen_ms = med(|r| r.trace_gen)?;
    let ctl_ms = med(|r| r.ctl)?;
    let next_event_ms = med(|r| r.ctl - r.ctl_bare)?;
    let cores_ms = med(|r| r.cores)?;
    let policy_ms = med(|r| r.policy)?;
    let device_ms = med(|r| r.device)?;
    let residual_ms = run_ms - ctl_ms - cores_ms - trace_gen_ms;
    let records = (cfg.trace_len * cfg.workloads.len()) as f64;
    let per = |ms: f64, n: u64| ms * 1e6 / n.max(1) as f64;
    let c = counts;
    let n = |v: u64| v as f64;
    Some(vec![
        metric("mem-controller.ms", ctl_ms, "ms"),
        metric(
            "mem-controller.self_ms",
            ctl_ms - next_event_ms - device_ms,
            "ms",
        ),
        metric("mem-controller.ticks", n(c.ticks), "count"),
        metric(
            "mem-controller.ns_per_tick",
            per(ctl_ms - next_event_ms, c.ticks),
            "ns",
        ),
        metric(
            "mem-controller.next_event_calls",
            n(c.next_event_calls),
            "count",
        ),
        metric("mem-controller.next_event_ms", next_event_ms, "ms"),
        metric(
            "mem-controller.ns_per_next_event",
            per(next_event_ms, c.next_event_calls),
            "ns",
        ),
        metric(
            "mem-controller.skip_hit_ratio",
            n(c.skips) / n(c.next_event_calls.max(1)),
            "ratio",
        ),
        metric(
            "mem-controller.skipped_cycle_share",
            n(c.skipped_cycles) / n(c.total_mem_cycles.max(1)),
            "ratio",
        ),
        metric("mem-controller.enqueues", n(c.enqueues), "count"),
        metric(
            "mem-controller.sim_read_latency_cycles",
            c.read_latency_cycles,
            "cycles",
        ),
        metric("mem-controller.sim_row_hit_rate", c.row_hit_rate, "ratio"),
        metric("cpu-model.ms", cores_ms, "ms"),
        metric("cpu-model.cycle_calls", n(c.cycle_calls), "count"),
        metric(
            "cpu-model.ns_per_cycle_call",
            per(cores_ms, c.cycle_calls),
            "ns",
        ),
        metric("cpu-model.compute_spans", n(c.compute_spans), "count"),
        metric("cpu-model.compute_cycles", n(c.compute_cycles), "cycles"),
        metric("cpu-model.refused_requests", n(c.refused_requests), "count"),
        metric("trace-gen.ms", trace_gen_ms, "ms"),
        metric("trace-gen.records", records, "count"),
        metric(
            "trace-gen.ns_per_record",
            trace_gen_ms * 1e6 / records,
            "ns",
        ),
        metric("dram-device.ms", device_ms, "ms"),
        metric("dram-device.commands", n(c.commands), "count"),
        metric(
            "dram-device.ns_per_command",
            per(device_ms, c.commands),
            "ns",
        ),
        metric("policy.activate_class_calls", n(c.activates), "count"),
        metric(
            "policy.ns_per_activate_class",
            per(policy_ms, c.activates),
            "ns",
        ),
        metric("system.run_ms", run_ms, "ms"),
        metric("system.residual_ms", residual_ms, "ms"),
        metric("system.residual_share", residual_ms / run_ms, "ratio"),
        metric("system.dense_run_ms", dense_ms, "ms"),
        metric("system.wheel_over_dense", dense_ms / run_ms, "ratio"),
        metric(
            "sweep.worker_busy_ratio",
            median(&store.busy_ratio)?,
            "ratio",
        ),
        metric("sweep.steals", median(&store.steals)?, "count"),
        metric("sweep.point_ms_p50", median(&store.point_ms)?, "ms"),
        metric("mcr-store.publish_us_p50", median(&store.publish_us)?, "us"),
        metric(
            "mcr-store.lookup_disk_us_p50",
            median(&store.lookup_disk_us)?,
            "us",
        ),
        metric(
            "mcr-store.lookup_hot_us_p50",
            median(&store.lookup_hot_us)?,
            "us",
        ),
        metric("mcr-store.encode_us_p50", encode.0, "us"),
        metric("mcr-store.entry_bytes", encode.1, "bytes"),
        metric("trace.capture_ms", capture_ms, "ms"),
        metric("trace.overhead_ms", capture_ms - run_ms, "ms"),
    ])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One repetition: the untraced run, the dense run, the capture, and
/// every layer replay, each checked bit-identical to the reference.
pub(crate) fn layer_rep(
    cfg: &SystemConfig,
    reference: &RunReport,
) -> Result<(Rep, Capture), String> {
    let mut rep = Rep::default();
    let sys = System::try_build(cfg).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let report = sys.run();
    rep.run = ms(t.elapsed());
    same_reports(&[report], std::slice::from_ref(reference))?;

    let sys = {
        let mut sys = System::try_build(cfg).map_err(|e| e.to_string())?;
        sys.set_skip_ahead(false);
        sys
    };
    let t = Instant::now();
    let report = sys.run();
    rep.dense = ms(t.elapsed());
    same_reports(&[report], std::slice::from_ref(reference))?;

    let (cap, capture_time) = capture::capture(cfg)?;
    rep.capture = ms(capture_time);
    cap.check_against(reference)?;

    let t = Instant::now();
    let traces = capture::generate_traces(cfg);
    rep.trace_gen = ms(t.elapsed());

    rep.ctl = ms(capture::replay_controller(cfg, &cap, true)?);
    rep.ctl_bare = ms(capture::replay_controller(cfg, &cap, false)?);
    rep.cores = ms(capture::replay_cores(&cap, traces)?);
    let (policy_time, extra_wordlines) = capture::replay_policy(cfg, &cap)?;
    rep.policy = ms(policy_time);
    rep.device = ms(capture::replay_device(cfg, &cap, &extra_wordlines)?);
    Ok((rep, cap))
}

/// A [`ReportStore`] that times every `lookup` and `publish` it forwards
/// to a [`ResultStore`].
struct TimedStore {
    inner: ResultStore,
    lookups: Mutex<Vec<Duration>>,
    publishes: Mutex<Vec<Duration>>,
}

impl TimedStore {
    fn open(dir: &Path) -> Result<TimedStore, String> {
        Ok(TimedStore {
            inner: ResultStore::open(dir).map_err(|e| e.to_string())?,
            lookups: Mutex::new(Vec::new()),
            publishes: Mutex::new(Vec::new()),
        })
    }

    fn take(times: &Mutex<Vec<Duration>>) -> Vec<f64> {
        let times = std::mem::take(&mut *times.lock().expect("timing lock"));
        times.iter().map(|d| d.as_secs_f64() * 1e6).collect()
    }
}

impl ReportStore for TimedStore {
    fn lookup(&self, key: u64) -> Option<RunReport> {
        let t = Instant::now();
        let found = self.inner.lookup(key);
        let d = t.elapsed();
        self.lookups.lock().expect("timing lock").push(d);
        found
    }

    fn publish(&self, key: u64, report: &RunReport) {
        let t = Instant::now();
        self.inner.publish(key, report);
        let d = t.elapsed();
        self.publishes.lock().expect("timing lock").push(d);
    }
}

/// Runs the workload's sweep cold into an empty store, then twice over
/// one fresh store instance on the populated directory: the first pass
/// reads every point from disk, the second from the hot tier. The hit
/// counters confirm which tier answered each pass.
fn store_passes(
    sweep: &Sweep,
    reference: &[RunReport],
    scratch: &Path,
    out: &mut StorePasses,
) -> Result<(), String> {
    let dir = scratch.join("traced");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let points = reference.len() as u64;
    let reports =
        |r: SweepResults| -> Vec<RunReport> { r.points.into_iter().map(|p| p.report).collect() };

    let cold = TimedStore::open(&dir)?;
    let results = sweep.run_with_store(&cold);
    let walls: f64 = results.points.iter().map(|p| p.wall.as_secs_f64()).sum();
    out.busy_ratio
        .push(walls / (results.jobs as f64 * results.wall.as_secs_f64()));
    out.steals.push(results.exec.steals.get() as f64);
    out.point_ms
        .extend(results.points.iter().map(|p| p.wall.as_secs_f64() * 1e3));
    same_reports(&reports(results), reference)?;
    out.publish_us.extend(TimedStore::take(&cold.publishes));

    let warm = TimedStore::open(&dir)?;
    same_reports(&reports(sweep.run_with_store(&warm)), reference)?;
    if warm.inner.stats().hits_disk.get() != points {
        return Err("warm pass was not served from disk".into());
    }
    out.lookup_disk_us.extend(TimedStore::take(&warm.lookups));
    same_reports(&reports(sweep.run_with_store(&warm)), reference)?;
    if warm.inner.stats().hits_hot.get() != points {
        return Err("second warm pass was not served from the hot tier".into());
    }
    out.lookup_hot_us.extend(TimedStore::take(&warm.lookups));
    Ok(())
}

/// Median time to encode one report as a store entry's JSON, and the
/// median encoded size.
fn encode_stats(reports: &[RunReport]) -> (f64, f64) {
    const REPEATS: usize = 50;
    let mut us = Vec::new();
    let mut bytes = Vec::new();
    for r in reports {
        for _ in 0..REPEATS {
            let t = Instant::now();
            let text = mcr_store::report_to_json(r).to_string();
            us.push(t.elapsed().as_secs_f64() * 1e6);
            bytes.push(text.len() as f64);
        }
    }
    (
        median(&us).unwrap_or(f64::NAN),
        median(&bytes).unwrap_or(f64::NAN),
    )
}

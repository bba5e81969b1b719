//! # mcr-bench
//!
//! The paper's evaluation as one checked ledger, and the simulator's own
//! wall clock.
//!
//! * [`claims`] holds one row per claim of the paper's Table 3, Figs.
//!   8–18, headline, ablations and known deltas. `make claims` runs
//!   every row at [`claims::FULL`] scale through a disk store under
//!   `target/`, prints min / median / max per row, rewrites
//!   EXPERIMENTS.md's generated tables and fails on any row below its
//!   stated share of seeds. `cargo test` runs the [`claims::CHECK`]
//!   rows.
//! * The `wallclock` bench times the simulator. Its results are a
//!   [`Metrics`] file, `BENCH_wallclock.json`, and [`gate`] checks them
//!   against the committed `BENCH_baseline.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod claims;

use mcr_dram::registered_backends;
use sim_json::Json;

/// A `core.*.speedup` (wheel over dense) may drop to this fraction of
/// its committed baseline before [`gate`] fails: a >15% regression.
pub const SPEEDUP_FLOOR: f64 = 0.85;

/// [`gate`] fails when `sweep.warm_over_cold` is below this: a warm
/// sweep must beat a cold one by at least this factor, or the result
/// store is not paying for itself.
pub const WARM_OVER_COLD_FLOOR: f64 = 5.0;

/// Named measurements `(name, value, unit)` in insertion order, stored
/// as `{"metrics": {name: {"value": number, "unit": string}}}`: the
/// shape of every `BENCH_*.json` file and of the `benchmark/` runner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Appends one measurement.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push((name.into(), value, unit.to_string()));
    }

    /// The value of `name`, if it was measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|m| m.1)
    }

    /// Renders the file text, one metric per line so diffs stay small.
    pub fn render(&self) -> String {
        let lines: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj([("value", Json::from(*value)), ("unit", Json::str(unit))]);
                format!("    {}: {entry}", Json::str(name))
            })
            .collect();
        format!("{{\n  \"metrics\": {{\n{}\n  }}\n}}\n", lines.join(",\n"))
    }

    /// Parses a file in the [`Metrics::render`] shape.
    ///
    /// # Errors
    ///
    /// A message naming the first member that is not JSON of that shape.
    pub fn parse(text: &str) -> Result<Metrics, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let members = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("no \"metrics\" object")?;
        let mut metrics = Metrics::default();
        for (name, entry) in members {
            let value = entry.get("value").and_then(Json::as_f64);
            let unit = entry.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("{name}: expected a number value and a string unit"));
            };
            metrics.push(name.clone(), value, unit);
        }
        Ok(metrics)
    }
}

/// The wall-clock gate. Fails, naming each metric at fault, unless
///
/// * every `core.<case>.speedup` in `current` or `baseline` is measured,
///   has a baseline, and is at least [`SPEEDUP_FLOOR`] × that baseline
///   (and at least one is measured);
/// * `sweep.warm_over_cold` is at least [`WARM_OVER_COLD_FLOOR`];
/// * every registered backend `b` has a finite, positive
///   `compare.<b>.points_per_s`.
///
/// # Errors
///
/// One message per failed check.
pub fn gate(current: &Metrics, baseline: &Metrics) -> Result<(), Vec<String>> {
    let mut speedups: Vec<&str> = Vec::new();
    for (name, ..) in current.0.iter().chain(&baseline.0) {
        let is_speedup = name.starts_with("core.") && name.ends_with(".speedup");
        if is_speedup && !speedups.contains(&name.as_str()) {
            speedups.push(name);
        }
    }
    let mut failures = Vec::new();
    if speedups.is_empty() {
        failures.push("core.*.speedup: nothing measured".to_string());
    }
    for name in speedups {
        match (current.get(name), baseline.get(name)) {
            (None, _) => failures.push(format!("{name}: in the baseline but not measured")),
            (Some(_), None) => failures.push(format!("{name}: no baseline entry")),
            (Some(now), Some(base)) if now >= base * SPEEDUP_FLOOR => {}
            (Some(now), Some(base)) => failures.push(format!(
                "{name}: {now:.3}x is below {SPEEDUP_FLOOR} x baseline {base:.3}x \
                 (floor {:.3}x)",
                base * SPEEDUP_FLOOR
            )),
        }
    }
    let warm = "sweep.warm_over_cold";
    match current.get(warm) {
        Some(x) if x >= WARM_OVER_COLD_FLOOR => {}
        Some(x) => failures.push(format!(
            "{warm}: {x:.2}x is below {WARM_OVER_COLD_FLOOR}x; the store is not paying for itself"
        )),
        None => failures.push(format!("{warm}: not measured")),
    }
    for spec in registered_backends() {
        let name = format!("compare.{}.points_per_s", spec.kind.name());
        match current.get(&name) {
            Some(x) if x.is_finite() && x > 0.0 => {}
            Some(x) => failures.push(format!("{name}: {x} is not a finite positive throughput")),
            None => failures.push(format!("{name}: backend not timed")),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A current run sitting exactly on every floor of [`gate`], and
    /// its baseline.
    fn at_floor() -> (Metrics, Metrics) {
        let (mut current, mut baseline) = (Metrics::default(), Metrics::default());
        for (case, base) in [("powerdown_idle", 8.094), ("loaded_libq_headline", 0.878)] {
            let name = format!("core.{case}.speedup");
            baseline.push(name.clone(), base, "x");
            current.push(name, base * SPEEDUP_FLOOR, "x");
        }
        current.push("sweep.warm_over_cold", WARM_OVER_COLD_FLOOR, "x");
        for spec in registered_backends() {
            let name = format!("compare.{}.points_per_s", spec.kind.name());
            current.push(name, f64::MIN_POSITIVE, "points/s");
        }
        (current, baseline)
    }

    fn set(metrics: &mut Metrics, name: &str, value: f64) {
        metrics
            .0
            .iter_mut()
            .filter(|m| m.0 == name)
            .for_each(|m| m.1 = value);
    }

    fn remove(metrics: &mut Metrics, name: &str) {
        metrics.0.retain(|m| m.0 != name);
    }

    /// After `edit` of the at-floor maps, the gate fails with exactly
    /// one message, and it names `metric`.
    fn fails_on(metric: &str, edit: impl FnOnce(&mut Metrics, &mut Metrics)) {
        let (mut current, mut baseline) = at_floor();
        edit(&mut current, &mut baseline);
        let failures = gate(&current, &baseline).expect_err("gate must fail");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with(metric), "{failures:?}");
    }

    #[test]
    fn gate_passes_exactly_at_every_floor() {
        let (current, baseline) = at_floor();
        assert_eq!(gate(&current, &baseline), Ok(()));
    }

    #[test]
    fn gate_fails_naming_each_metric_off_its_floor() {
        let speedup = "core.loaded_libq_headline.speedup";
        fails_on(speedup, |current, _| set(current, speedup, 0.84 * 0.878));
        let warm = "sweep.warm_over_cold";
        fails_on(warm, |current, _| set(current, warm, 4.9));
        let backend = "compare.tldram.points_per_s";
        fails_on(backend, |current, _| remove(current, backend));
        let case = "core.powerdown_idle.speedup";
        fails_on(case, |_, baseline| remove(baseline, case));
    }

    #[test]
    fn gate_fails_an_empty_baseline() {
        let (current, _) = at_floor();
        let failures = gate(&current, &Metrics::default()).expect_err("gate must fail");
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("core.powerdown_idle.speedup"));
        assert!(failures[1].starts_with("core.loaded_libq_headline.speedup"));
    }

    #[test]
    fn rendered_metrics_parse_back_unchanged() {
        let mut metrics = Metrics::default();
        metrics.push("core.powerdown_idle.wheel_ns", 17_488_685.0, "ns");
        metrics.push("core.powerdown_idle.speedup", 8.094, "x");
        metrics.push("sweep.warm_over_cold", 1.0 / 3.0, "x");
        metrics.push("compare.mcr.points_per_s", 0.1 + 0.2, "points/s");
        assert_eq!(Metrics::parse(&metrics.render()), Ok(metrics));
    }

    #[test]
    fn every_bench_file_at_the_repo_root_has_the_metrics_shape() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = 0;
        for entry in std::fs::read_dir(&root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).expect("readable bench file");
                Metrics::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                files += 1;
            }
        }
        assert!(files > 0, "no BENCH_*.json at {}", root.display());
    }
}

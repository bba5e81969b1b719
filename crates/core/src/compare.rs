//! Cross-paper head-to-head comparison: one trace, many architectures.
//!
//! A [`CompareSpec`] replays the *same* workload (or mix), trace seed and
//! length once per registered DRAM-architecture backend (see
//! [`crate::backend`]) and folds the per-backend [`RunReport`]s into a
//! [`CompareTable`] — execution time, mean read latency, EDP and refresh
//! telemetry side by side, plus speedup relative to the plain-DDR3
//! baseline row. The campaign is an ordinary [`Sweep`] under the hood, so
//! it inherits the engine's guarantees for free: results are bit-identical
//! for any `--jobs` count and memoized by [`SystemConfig::config_key`].
//!
//! ```
//! use mcr_dram::CompareSpec;
//!
//! let spec = CompareSpec {
//!     workload: Some("libq".into()),
//!     len: 2_000,
//!     ..CompareSpec::default()
//! };
//! let results = spec.sweep(Some(1)).expect("valid spec").run();
//! let table = spec.table(&results);
//! assert_eq!(table.rows.len(), 4); // baseline, mcr, tldram, clrdram
//! ```

use trace_gen::{mix, workload};

use crate::backend::{registered_backends, BackendKind, BackendSpec};
use crate::mode::McrMode;
use crate::sweep::{Sweep, SweepBuilder, SweepResults};
use crate::system::SystemConfig;

/// Default memory operations per core for a compare campaign (matches
/// the service default).
pub const DEFAULT_COMPARE_LEN: usize = 50_000;

/// Default trace seed for a compare campaign (matches the service
/// default).
pub const DEFAULT_COMPARE_SEED: u64 = 2015;

/// Declarative description of one head-to-head campaign: a single trace
/// replayed across a list of architecture backends.
///
/// Exactly one of [`CompareSpec::workload`] / [`CompareSpec::mix`] must
/// be set. The MCR row runs under [`CompareSpec::mode`]; every other
/// backend runs with MCR fully off (its timing behavior comes from the
/// device policy its [`BackendSpec`] selects — the validator in
/// [`SystemConfig::validate`] enforces that separation).
#[derive(Debug, Clone, PartialEq)]
pub struct CompareSpec {
    /// Single-core workload name (mutually exclusive with `mix`).
    pub workload: Option<String>,
    /// Multi-core mix name (mutually exclusive with `workload`).
    pub mix: Option<String>,
    /// MCR mode used by the MCR row only.
    pub mode: McrMode,
    /// Memory operations per core, shared by every row.
    pub len: usize,
    /// Trace seed, shared by every row.
    pub seed: u64,
    /// Backends to race, in report order. Must be non-empty and free of
    /// duplicate kinds.
    pub backends: Vec<BackendSpec>,
}

impl Default for CompareSpec {
    /// Every registered backend in canonical order, the paper's headline
    /// MCR mode, and the service's default length and seed.
    fn default() -> Self {
        CompareSpec {
            workload: None,
            mix: None,
            mode: McrMode::headline(),
            len: DEFAULT_COMPARE_LEN,
            seed: DEFAULT_COMPARE_SEED,
            backends: registered_backends(),
        }
    }
}

impl CompareSpec {
    /// Resolves the spec into one labelled [`SystemConfig`] per backend,
    /// in `backends` order, plus the target name.
    ///
    /// # Errors
    ///
    /// A human-readable message for an empty or duplicated backend list,
    /// an unknown workload/mix name, or a missing/ambiguous target.
    pub fn configs(&self) -> Result<(Vec<(String, SystemConfig)>, String), String> {
        if self.backends.is_empty() {
            return Err("compare needs at least one backend".into());
        }
        for (i, spec) in self.backends.iter().enumerate() {
            if self.backends[..i].iter().any(|s| s.kind == spec.kind) {
                return Err(format!("duplicate backend {}", spec.kind));
            }
        }
        let (base, target) = match (&self.workload, &self.mix) {
            (Some(name), None) => {
                workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                (SystemConfig::single_core(name, self.len), name.clone())
            }
            (None, Some(name)) => {
                let mix = mix(name)
                    .ok_or_else(|| format!("unknown mix {name:?} (mix01..mix14, MT-*)"))?;
                (SystemConfig::multi_core_mix(&mix, self.len), name.clone())
            }
            (Some(_), Some(_)) => return Err("workload and mix are mutually exclusive".into()),
            (None, None) => return Err("compare needs a workload or a mix".into()),
        };
        let base = base.with_seed(self.seed);
        let points = self
            .backends
            .iter()
            .map(|spec| match spec.kind {
                BackendKind::Mcr => (
                    format!("mcr {}", self.mode),
                    base.clone().with_mode(self.mode),
                ),
                kind => (kind.name().to_string(), base.clone().with_backend(*spec)),
            })
            .collect();
        Ok((points, target))
    }

    /// Builds the campaign as an ordinary [`Sweep`]: one explicit point
    /// per backend, so `jobs = 1` and `jobs = N` stay bit-identical and
    /// every point memoizes under its own [`SystemConfig::config_key`].
    ///
    /// # Errors
    ///
    /// See [`CompareSpec::configs`]; additionally a formatted
    /// [`crate::ConfigError`] when a per-backend config fails validation.
    pub fn sweep(&self, jobs: Option<usize>) -> Result<Sweep, String> {
        let (points, _) = self.configs()?;
        let mut builder = SweepBuilder::new(self.len);
        for (label, cfg) in points {
            builder = builder.point(label, cfg);
        }
        if let Some(jobs) = jobs {
            builder = builder.jobs(jobs);
        }
        builder.build().map_err(|e| e.to_string())
    }

    /// Folds a finished campaign into the head-to-head table.
    ///
    /// `results` must come from this spec's own [`CompareSpec::sweep`]
    /// (rows are paired with backends by position). The table carries no
    /// wall-clock or cache fields, so its renderings are bit-identical
    /// across jobs counts and across local vs. submitted execution.
    pub fn table(&self, results: &SweepResults) -> CompareTable {
        let baseline_cycles = self
            .backends
            .iter()
            .position(|s| s.kind == BackendKind::Baseline)
            .and_then(|i| results.points.get(i))
            .map(|p| p.report.exec_cpu_cycles);
        let rows = self
            .backends
            .iter()
            .zip(&results.points)
            .map(|(spec, p)| {
                let r = &p.report;
                CompareRow {
                    backend: spec.kind.name().to_string(),
                    label: p.label.clone(),
                    exec_cpu_cycles: r.exec_cpu_cycles,
                    avg_read_latency: r.avg_read_latency,
                    edp: r.edp,
                    reads_done: r.reads_done,
                    refresh_normal: r.controller.refresh.normal,
                    refresh_fast: r.controller.refresh.fast,
                    refresh_skipped: r.controller.refresh.skipped,
                    speedup: baseline_cycles.map(|b| b as f64 / r.exec_cpu_cycles.max(1) as f64),
                }
            })
            .collect();
        CompareTable {
            target: self
                .workload
                .clone()
                .or_else(|| self.mix.clone())
                .unwrap_or_default(),
            len: self.len,
            seed: self.seed,
            rows,
        }
    }
}

/// One backend's line in a [`CompareTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Canonical backend name (`baseline`, `mcr`, `tldram`, `clrdram`).
    pub backend: String,
    /// The sweep-point label (the MCR row includes its mode).
    pub label: String,
    /// Execution time in CPU cycles (the paper's headline metric).
    pub exec_cpu_cycles: u64,
    /// Mean read latency in memory cycles.
    pub avg_read_latency: f64,
    /// Energy-delay product (J·s).
    pub edp: f64,
    /// Reads completed.
    pub reads_done: u64,
    /// Full-latency refresh slots issued.
    pub refresh_normal: u64,
    /// Fast-refresh slots issued.
    pub refresh_fast: u64,
    /// Refresh slots skipped.
    pub refresh_skipped: u64,
    /// Execution-time speedup relative to the `baseline` row (`None`
    /// when the campaign ran without a baseline backend).
    pub speedup: Option<f64>,
}

/// Head-to-head comparison table over one trace: one [`CompareRow`] per
/// backend, in campaign order, with text/CSV/JSON renderings that are
/// pure functions of the per-backend reports (no volatile fields).
#[derive(Debug, Clone, PartialEq)]
pub struct CompareTable {
    /// Workload or mix name the campaign replayed.
    pub target: String,
    /// Memory operations per core.
    pub len: usize,
    /// Trace seed.
    pub seed: u64,
    /// Per-backend rows.
    pub rows: Vec<CompareRow>,
}

/// RFC-4180 field quoting (same rules as `ResultTable::to_csv`).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl CompareTable {
    /// Plain-text table: one aligned row per backend, speedup rendered
    /// as `-` when no baseline row exists.
    pub fn to_text(&self) -> String {
        let width = self
            .rows
            .iter()
            .map(|r| r.backend.len())
            .max()
            .unwrap_or(0)
            .max("backend".len());
        let mut out = format!(
            "compare {} (len {}, seed {})\n{:<width$}  {:>14}  {:>12}  {:>12}  {:>10}  {:>9}  {:>9}  {:>9}  {:>8}\n",
            self.target,
            self.len,
            self.seed,
            "backend",
            "exec_cycles",
            "avg_read_lat",
            "edp",
            "reads",
            "refr_norm",
            "refr_fast",
            "refr_skip",
            "speedup",
        );
        for r in &self.rows {
            let speedup = match r.speedup {
                Some(s) => format!("{s:.3}x"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<width$}  {:>14}  {:>12.3}  {:>12.5e}  {:>10}  {:>9}  {:>9}  {:>9}  {:>8}\n",
                r.backend,
                r.exec_cpu_cycles,
                r.avg_read_latency,
                r.edp,
                r.reads_done,
                r.refresh_normal,
                r.refresh_fast,
                r.refresh_skipped,
                speedup,
            ));
        }
        out
    }

    /// CSV rendering with a header row; `speedup_vs_baseline` is empty
    /// when the campaign ran without a baseline backend.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "backend,exec_cpu_cycles,avg_read_latency,edp,reads_done,\
             refresh_normal,refresh_fast,refresh_skipped,speedup_vs_baseline\n",
        );
        for r in &self.rows {
            let speedup = r.speedup.map(|s| s.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                csv_field(&r.backend),
                r.exec_cpu_cycles,
                r.avg_read_latency,
                r.edp,
                r.reads_done,
                r.refresh_normal,
                r.refresh_fast,
                r.refresh_skipped,
                speedup,
            ));
        }
        out
    }

    /// Deterministic JSON rendering (stable key order, `null` speedup
    /// when no baseline row exists).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"target\": \"{}\",\n  \"len\": {},\n  \"seed\": {},\n  \"rows\": [\n",
            json_escape(&self.target),
            self.len,
            self.seed
        );
        for (i, r) in self.rows.iter().enumerate() {
            let speedup = r
                .speedup
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                concat!(
                    "    {{\"backend\": \"{}\", \"label\": \"{}\", ",
                    "\"exec_cpu_cycles\": {}, \"avg_read_latency\": {}, ",
                    "\"edp\": {}, \"reads_done\": {}, ",
                    "\"refresh\": {{\"normal\": {}, \"fast\": {}, \"skipped\": {}}}, ",
                    "\"speedup_vs_baseline\": {}}}{}\n"
                ),
                json_escape(&r.backend),
                json_escape(&r.label),
                r.exec_cpu_cycles,
                r.avg_read_latency,
                r.edp,
                r.reads_done,
                r.refresh_normal,
                r.refresh_fast,
                r.refresh_skipped,
                speedup,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CompareSpec {
        CompareSpec {
            workload: Some("libq".into()),
            len: 2_000,
            ..CompareSpec::default()
        }
    }

    #[test]
    fn default_spec_races_every_registered_backend() {
        let spec = CompareSpec::default();
        assert_eq!(spec.backends, registered_backends());
        assert_eq!(spec.mode, McrMode::headline());
    }

    #[test]
    fn configs_reject_bad_backend_lists_and_targets() {
        let mut spec = small_spec();
        spec.backends.clear();
        assert!(spec.configs().unwrap_err().contains("at least one"));

        let mut spec = small_spec();
        spec.backends.push(BackendSpec::new(BackendKind::Baseline));
        assert!(spec.configs().unwrap_err().contains("duplicate backend"));

        let mut spec = small_spec();
        spec.workload = Some("no-such-workload".into());
        assert!(spec.configs().unwrap_err().contains("unknown workload"));

        let mut spec = small_spec();
        spec.mix = Some("mix01".into());
        assert!(spec.configs().unwrap_err().contains("mutually exclusive"));

        let mut spec = small_spec();
        spec.workload = None;
        assert!(spec
            .configs()
            .unwrap_err()
            .contains("needs a workload or a mix"));
    }

    #[test]
    fn campaign_builds_one_point_per_backend_and_tables_them() {
        let spec = small_spec();
        let results = spec.sweep(Some(1)).expect("valid spec").run();
        assert_eq!(results.points.len(), spec.backends.len());
        let table = spec.table(&results);
        assert_eq!(table.rows.len(), spec.backends.len());
        assert_eq!(table.target, "libq");
        for row in &table.rows {
            assert!(row.reads_done > 0, "{} did no reads", row.backend);
        }
        let baseline = table
            .rows
            .iter()
            .find(|r| r.backend == "baseline")
            .expect("baseline row");
        assert_eq!(baseline.speedup, Some(1.0));
        let mcr = table.rows.iter().find(|r| r.backend == "mcr").unwrap();
        assert!(
            mcr.speedup.unwrap() >= baseline.speedup.unwrap(),
            "MCR should not lose to the baseline on its headline mode"
        );
    }

    #[test]
    fn renderings_are_complete_and_deterministic() {
        let spec = small_spec();
        let results = spec.sweep(Some(1)).expect("valid spec").run();
        let table = spec.table(&results);

        let text = table.to_text();
        assert!(text.contains("backend") && text.contains("speedup"));

        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), table.rows.len() + 1);
        assert!(csv.starts_with("backend,exec_cpu_cycles"));

        let json = table.to_json();
        assert!(json.contains("\"speedup_vs_baseline\": 1"));

        // Same spec re-run (memoized or not) renders byte-identically.
        let again = spec.table(&spec.sweep(Some(2)).unwrap().run());
        assert_eq!(json, again.to_json());
    }

    #[test]
    fn speedup_is_null_without_a_baseline_row() {
        let mut spec = small_spec();
        spec.backends = vec![
            BackendSpec::new(BackendKind::TlDram),
            BackendSpec::new(BackendKind::ClrDram),
        ];
        let results = spec.sweep(Some(1)).expect("valid spec").run();
        let table = spec.table(&results);
        assert!(table.rows.iter().all(|r| r.speedup.is_none()));
        assert!(table.to_json().contains("\"speedup_vs_baseline\": null"));
        assert!(table.to_text().lines().skip(2).all(|l| l.ends_with('-')));
    }
}

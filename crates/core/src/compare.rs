//! Cross-paper head-to-head comparison: one trace, many architectures.
//!
//! The `compare` campaign is an ordinary [`Sweep`]: one target and one
//! trace seed crossed with [`SweepBuilder`]'s backend axis (see
//! [`crate::backend`]), so it inherits the engine's guarantees for free:
//! results are bit-identical for any `--jobs` count and memoized by
//! [`crate::SystemConfig::config_key`]. [`CompareTable`] folds the
//! finished points into execution time, mean read latency, EDP and
//! refresh telemetry side by side, plus speedup relative to the
//! plain-DDR3 baseline row.
//!
//! ```
//! use mcr_dram::{BackendKind, CompareTable, McrMode, SweepBuilder};
//!
//! let sweep = SweepBuilder::new(2_000)
//!     .workload("libq")
//!     .backends(BackendKind::all())
//!     .mode(McrMode::headline())
//!     .build()
//!     .expect("valid grid");
//! let results = sweep.run();
//! let table = CompareTable::new("libq", &sweep, &results);
//! assert_eq!(table.rows.len(), 4); // baseline, mcr, tldram, clrdram
//! ```

use crate::backend::BackendKind;
use crate::sweep::{Sweep, SweepResults};
use crate::system::RunReport;

/// One CSV field, quoted per RFC 4180 when it holds a comma or a quote.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One backend's line in a [`CompareTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Canonical backend name (`baseline`, `mcr`, `tldram`, `clrdram`).
    pub backend: String,
    /// Row label: the backend name, plus the mode on the MCR row.
    pub label: String,
    /// The backend's run over the shared trace.
    pub report: RunReport,
    /// Execution-time speedup relative to the `baseline` row (`None`
    /// when the campaign ran without a baseline backend).
    pub speedup: Option<f64>,
}

/// Head-to-head comparison table over one trace: one `CompareRow` per
/// backend, in campaign order, with text and CSV renderings that are
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

impl CompareTable {
    /// Folds a finished campaign into the head-to-head table: one row
    /// per point of `sweep`, whose `results` must come from running it.
    /// Each row reads its backend and MCR mode from its point's config;
    /// the trace length and seed come from the first point. The table
    /// carries no wall-clock or cache fields, so its renderings are
    /// bit-identical across jobs counts and across local vs. submitted
    /// execution.
    pub fn new(target: impl Into<String>, sweep: &Sweep, results: &SweepResults) -> Self {
        let points = || sweep.points().iter().zip(&results.points);
        let baseline_cycles = points()
            .find(|(point, _)| point.config.backend.kind == BackendKind::Baseline)
            .map(|(_, p)| p.report.exec_cpu_cycles);
        let rows = points()
            .map(|(point, p)| {
                let (cfg, r) = (&point.config, &p.report);
                let kind = cfg.backend.kind;
                CompareRow {
                    backend: kind.name().to_string(),
                    label: match kind {
                        BackendKind::Mcr => format!("{kind} {}", cfg.mode),
                        _ => kind.name().to_string(),
                    },
                    report: r.clone(),
                    speedup: baseline_cycles.map(|b| b as f64 / r.exec_cpu_cycles.max(1) as f64),
                }
            })
            .collect();
        let first = sweep.points().first().map(|p| &p.config);
        CompareTable {
            target: target.into(),
            len: first.map_or(0, |c| c.trace_len),
            seed: first.map_or(0, |c| c.seed),
            rows,
        }
    }

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
                r.report.exec_cpu_cycles,
                r.report.avg_read_latency,
                r.report.edp,
                r.report.reads_done,
                r.report.controller.refresh.normal,
                r.report.controller.refresh.fast,
                r.report.controller.refresh.skipped,
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
                r.report.exec_cpu_cycles,
                r.report.avg_read_latency,
                r.report.edp,
                r.report.reads_done,
                r.report.controller.refresh.normal,
                r.report.controller.refresh.fast,
                r.report.controller.refresh.skipped,
                speedup,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::McrMode;
    use crate::sweep::SweepBuilder;

    #[test]
    fn csv_roundtrips_structure() {
        assert_eq!(csv_field("libq"), "libq");
        assert_eq!(csv_field("weird,label"), "\"weird,label\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    fn libq_table(backends: &[BackendKind], jobs: usize) -> CompareTable {
        let sweep = SweepBuilder::new(2_000)
            .workload("libq")
            .backends(backends.iter().copied())
            .mode(McrMode::headline())
            .jobs(jobs)
            .build()
            .expect("valid grid");
        CompareTable::new("libq", &sweep, &sweep.run())
    }

    #[test]
    fn campaign_builds_one_point_per_backend_and_tables_them() {
        let table = libq_table(&BackendKind::all(), 1);
        assert_eq!(table.rows.len(), BackendKind::all().len());
        assert_eq!(
            (table.target.as_str(), table.len, table.seed),
            ("libq", 2_000, 2015)
        );
        for row in &table.rows {
            assert!(row.report.reads_done > 0, "{} did no reads", row.backend);
        }
        let baseline = table
            .rows
            .iter()
            .find(|r| r.backend == "baseline")
            .expect("baseline row");
        assert_eq!(baseline.speedup, Some(1.0));
        let mcr = table.rows.iter().find(|r| r.backend == "mcr").unwrap();
        assert_eq!(mcr.label, "mcr [4/4x/100%reg]");
        assert!(
            mcr.speedup.unwrap() >= baseline.speedup.unwrap(),
            "MCR should not lose to the baseline on its headline mode"
        );
    }

    #[test]
    fn renderings_are_complete_and_deterministic() {
        let table = libq_table(&BackendKind::all(), 1);

        let text = table.to_text();
        assert!(text.contains("backend") && text.contains("speedup"));

        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), table.rows.len() + 1);
        assert!(csv.starts_with("backend,exec_cpu_cycles"));

        // The same campaign on two workers builds the same table.
        assert_eq!(table, libq_table(&BackendKind::all(), 2));
    }

    #[test]
    fn speedup_is_null_without_a_baseline_row() {
        let table = libq_table(&[BackendKind::TlDram, BackendKind::ClrDram], 1);
        assert!(table.rows.iter().all(|r| r.speedup.is_none()));
        assert!(table.to_text().lines().skip(2).all(|l| l.ends_with('-')));
    }
}

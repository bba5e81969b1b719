//! Reductions against a baseline, and a one-point runner.
//!
//! The paper-claims ledger (`mcr_bench::claims`) reduces each figure's
//! runs to [`Outcome`]s and their [`mean`]; tests and examples use
//! [`run_single`] for one configuration.

use crate::mechanisms::Mechanisms;
use crate::mode::McrMode;
use crate::sweep::SweepBuilder;
use crate::system::{ConfigError, RunReport, SystemConfig};

/// Percentage reduction of `new` relative to `base` (positive = better).
///
/// A zero baseline makes the relative reduction undefined unless the new
/// value is also zero (no change): `reduction_pct(0.0, 0.0)` is `0.0`,
/// while `reduction_pct(0.0, x)` for `x != 0` returns [`f64::NAN`] so a
/// meaningless "0% change" can never be reported for a real regression.
pub fn reduction_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::NAN
        }
    } else {
        (base - new) / base * 100.0
    }
}

/// Side-by-side outcome of an MCR configuration against its baseline.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Label (workload or mix name).
    pub label: String,
    /// Execution-time reduction (%) vs baseline.
    pub exec_reduction: f64,
    /// Read-latency reduction (%) vs baseline.
    pub latency_reduction: f64,
    /// EDP reduction (%) vs baseline.
    pub edp_reduction: f64,
}

impl Outcome {
    /// Computes the three headline reductions from two reports.
    pub fn versus(label: impl Into<String>, base: &RunReport, new: &RunReport) -> Self {
        Outcome {
            label: label.into(),
            exec_reduction: reduction_pct(base.exec_cpu_cycles as f64, new.exec_cpu_cycles as f64),
            latency_reduction: reduction_pct(base.avg_read_latency, new.avg_read_latency),
            edp_reduction: reduction_pct(base.edp, new.edp),
        }
    }
}

/// Arithmetic mean of a metric over outcomes.
pub fn mean(outcomes: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
}

/// Runs one single-core configuration.
///
/// # Errors
///
/// Returns the [`ConfigError`] of the composed configuration (e.g. an
/// allocation ratio outside `[0, 1]`).
pub fn run_single(
    name: &str,
    mode: McrMode,
    mechanisms: Mechanisms,
    alloc_ratio: f64,
    trace_len: usize,
) -> Result<RunReport, ConfigError> {
    let cfg = SystemConfig::single_core(name, trace_len)
        .with_mode(mode)
        .with_mechanisms(mechanisms)
        .with_alloc_ratio(alloc_ratio);
    // A one-point sweep, so validation is the same as for every grid.
    let sweep = SweepBuilder::new(trace_len)
        .point(name, cfg)
        .jobs(1)
        .build()?;
    Ok(sweep.run().points.remove(0).report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = 5_000;

    #[test]
    fn reduction_math() {
        assert_eq!(reduction_pct(100.0, 90.0), 10.0);
        assert_eq!(reduction_pct(0.0, 0.0), 0.0);
        assert!(
            reduction_pct(0.0, 50.0).is_nan(),
            "undefined reduction must not masquerade as 0%"
        );
        assert!(reduction_pct(100.0, 110.0) < 0.0);
    }

    /// Baseline and `[M/Kx]` at ratio 1.0 with Early-Access and
    /// Early-Precharge only (the Fig. 11 setup).
    fn full_region(name: &str, m: u32, k: u32) -> (RunReport, RunReport) {
        let base = run_single(name, McrMode::off(), Mechanisms::none(), 0.0, LEN).unwrap();
        let mode = McrMode::new(m, k, 1.0).unwrap();
        let mcr = run_single(name, mode, Mechanisms::access_only(), 0.0, LEN).unwrap();
        (base, mcr)
    }

    #[test]
    fn ratio_point_improves_latency_at_full_region() {
        let (base, mcr) = full_region("libq", 4, 4);
        let o = Outcome::versus("libq", &base, &mcr);
        assert!(
            o.latency_reduction > 0.0,
            "4/4x full region should cut read latency, got {:+.2}%",
            o.latency_reduction
        );
    }

    #[test]
    fn higher_k_does_not_lose_to_lower_k_at_same_ratio() {
        // Paper Fig. 11: mode [4/4x] beats [2/2x] at equal MCR ratio.
        let (base, m22) = full_region("leslie", 2, 2);
        let (_, m44) = full_region("leslie", 4, 4);
        let o22 = Outcome::versus("2/2x", &base, &m22);
        let o44 = Outcome::versus("4/4x", &base, &m44);
        assert!(
            o44.latency_reduction >= o22.latency_reduction - 0.5,
            "4/4x {:.2}% vs 2/2x {:.2}%",
            o44.latency_reduction,
            o22.latency_reduction
        );
    }

    #[test]
    fn mean_helper() {
        let outs = vec![
            Outcome {
                label: "a".into(),
                exec_reduction: 10.0,
                latency_reduction: 0.0,
                edp_reduction: 0.0,
            },
            Outcome {
                label: "b".into(),
                exec_reduction: 20.0,
                latency_reduction: 0.0,
                edp_reduction: 0.0,
            },
        ];
        assert_eq!(mean(&outs, |o| o.exec_reduction), 15.0);
        assert_eq!(mean(&[], |o| o.exec_reduction), 0.0);
    }
}

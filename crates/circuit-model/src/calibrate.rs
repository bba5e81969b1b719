//! Grid-search calibration of the analytical model against Table 3.
//!
//! The paper obtained its timing constants from SPICE on a 55 nm process;
//! we don't have the netlist, so we fit the free time constants of the
//! analytical model to the published numbers instead. The capacitances
//! stay fixed at their physically-representative values — only the sensing
//! and restore time constants (and offsets) are searched.

use crate::params::CircuitParams;
use crate::solver::TimingSolver;
use crate::PaperTable3;

/// Result of a calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// The best parameters found.
    pub params: CircuitParams,
    /// Maximum relative error across the fitted tRCD entries.
    pub max_rcd_err: f64,
    /// Maximum relative error across the fitted tRAS entries.
    pub max_ras_err: f64,
}

fn rcd_error(s: &TimingSolver) -> f64 {
    [1u32, 2, 4]
        .iter()
        .map(|&k| {
            let want = PaperTable3::t_rcd_ns(k);
            ((s.t_rcd_ns(k) - want) / want).abs()
        })
        .fold(0.0, f64::max)
}

fn ras_error(s: &TimingSolver) -> f64 {
    PaperTable3::modes()
        .iter()
        .map(|&(m, k)| {
            let want = PaperTable3::t_ras_ns(m, k);
            ((s.t_ras_ns(m, k) - want) / want).abs()
        })
        .fold(0.0, f64::max)
}

/// Fits the sensing (`tau_sense_ns`, `t_sense_overhead_ns`) and restore
/// (`tau_restore_ns`, `restore_beta`, `t_restore_offset_ns`, `d64`)
/// parameters to Table 3 by coarse-to-fine grid search, starting from
/// `seed`.
///
/// Deterministic and fast (a few hundred thousand evaluations of a pair of
/// closed-form expressions); used by the claims ledger's `table3.*` rows
/// and by the crate's own regression test.
pub fn calibrate(seed: CircuitParams) -> FitReport {
    // --- sensing: 2-D grid over (tau, overhead) ---
    let mut best = seed;
    let mut best_rcd = f64::INFINITY;
    let mut center = (seed.tau_sense_ns, seed.t_sense_overhead_ns);
    let mut span = (3.0, 3.0);
    for _ in 0..4 {
        for i in -10i32..=10 {
            for j in -10i32..=10 {
                let mut p = best;
                p.tau_sense_ns = (center.0 + span.0 * i as f64 / 10.0).max(0.1);
                p.t_sense_overhead_ns = (center.1 + span.1 * j as f64 / 10.0).max(0.0);
                let e = rcd_error(&TimingSolver::new(p));
                if e < best_rcd {
                    best_rcd = e;
                    best.tau_sense_ns = p.tau_sense_ns;
                    best.t_sense_overhead_ns = p.t_sense_overhead_ns;
                }
            }
        }
        center = (best.tau_sense_ns, best.t_sense_overhead_ns);
        span = (span.0 / 5.0, span.1 / 5.0);
    }

    // --- restore: 3-D grid over (tau_restore, beta, offset) ---
    let mut best_ras = f64::INFINITY;
    let mut c3 = (
        best.tau_restore_ns,
        best.restore_beta,
        best.t_restore_offset_ns,
    );
    let mut s3 = (4.0, 0.4, 3.0);
    for _ in 0..4 {
        for i in -8i32..=8 {
            for j in -8i32..=8 {
                for l in -8i32..=8 {
                    let mut p = best;
                    p.tau_restore_ns = (c3.0 + s3.0 * i as f64 / 8.0).max(0.5);
                    p.restore_beta = (c3.1 + s3.1 * j as f64 / 8.0).max(0.0);
                    p.t_restore_offset_ns = (c3.2 + s3.2 * l as f64 / 8.0).max(0.0);
                    let e = ras_error(&TimingSolver::new(p));
                    if e < best_ras {
                        best_ras = e;
                        best.tau_restore_ns = p.tau_restore_ns;
                        best.restore_beta = p.restore_beta;
                        best.t_restore_offset_ns = p.t_restore_offset_ns;
                    }
                }
            }
        }
        c3 = (
            best.tau_restore_ns,
            best.restore_beta,
            best.t_restore_offset_ns,
        );
        s3 = (s3.0 / 4.0, s3.1 / 4.0, s3.2 / 4.0);
    }

    FitReport {
        params: best,
        max_rcd_err: best_rcd,
        max_ras_err: best_ras,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_fits_table3_closely() {
        let fit = calibrate(CircuitParams::calibrated());
        // tRCD is a clean 2-parameter exponential fit: very tight.
        assert!(fit.max_rcd_err < 0.02, "tRCD error {}", fit.max_rcd_err);
        // tRAS spans six modes with three free parameters: allow more slack
        // but stay in the same regime as the paper.
        assert!(fit.max_ras_err < 0.15, "tRAS error {}", fit.max_ras_err);
    }

    #[test]
    fn shipped_defaults_are_near_the_fit() {
        // `CircuitParams::calibrated()` should itself be a good fit so
        // downstream users don't need to re-run the search.
        let s = TimingSolver::new(CircuitParams::calibrated());
        assert!(rcd_error(&s) < 0.10, "rcd {}", rcd_error(&s));
        assert!(ras_error(&s) < 0.25, "ras {}", ras_error(&s));
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = calibrate(CircuitParams::calibrated());
        let b = calibrate(CircuitParams::calibrated());
        assert_eq!(a.params, b.params);
    }
}

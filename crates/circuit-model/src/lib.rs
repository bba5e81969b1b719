//! # circuit-model
//!
//! An analytical DRAM cell/bitline circuit model replacing the paper's
//! 55 nm SPICE simulations (the substitution is documented in DESIGN.md).
//!
//! The model covers the three phases of Fig. 3 / Fig. 10:
//!
//! 1. **Charge sharing** — a Kx MCR puts `K` cell capacitors on each
//!    bitline, so the charge-sharing voltage grows with `K`
//!    (Key Observation 1):
//!    `ΔV = (VDD/2) · K·C_cell / (K·C_cell + C_bit)`.
//! 2. **Sensing** — the sense amplifier amplifies the differential
//!    exponentially; the bitline reaches the *accessible voltage* sooner
//!    when ΔV is larger, which is exactly Early-Access (lower `tRCD`).
//! 3. **Restore** — the sense amplifier recharges the cells through the
//!    access transistors. With `K` cells per sense amp the restore tail is
//!    slower, but thanks to the shorter per-MCR refresh interval
//!    (Key Observation 2) the restore may stop at a *lower* target voltage:
//!    Early-Precharge (lower `tRAS`) and Fast-Refresh (lower `tRFC`).
//!
//! [`TimingSolver`] turns the waveforms into `tRCD`/`tRAS`/`tRFC` numbers
//! for every MCR mode; [`CircuitParams::calibrated`] ships parameters fit
//! (by the grid search in [`calibrate`]) against the paper's published
//! Table 3, and the crate's tests assert the fit error stays small.
//!
//! ## Example
//!
//! ```
//! use circuit_model::{CircuitParams, TimingSolver};
//!
//! let solver = TimingSolver::new(CircuitParams::calibrated());
//! let t1 = solver.t_rcd_ns(1);
//! let t4 = solver.t_rcd_ns(4);
//! assert!(t4 < t1, "4x MCR must sense faster than a normal row");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod calibrate;
mod leakage;
mod params;
mod solver;
mod waveform;

pub use calibrate::{calibrate, FitReport};
pub use leakage::{LeakageModel, BOUNDARY_EPS_V};
pub use params::CircuitParams;
pub use solver::{McrTimingNs, TimingSolver};
pub use waveform::{cell_restore_waveform, sense_waveform, WaveformPoint};

/// Table 3 of the paper, in nanoseconds, used as the calibration target and
/// as the canonical constants for the system-level simulator.
///
/// Index semantics: `(m, k)` = mode `M/Kx`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTable3;

impl PaperTable3 {
    /// Published `tRCD` for a Kx MCR (same for all M).
    pub fn t_rcd_ns(k: u32) -> f64 {
        match k {
            1 => 13.75,
            2 => 9.94,
            4 => 6.90,
            _ => panic!("paper evaluates K in {{1, 2, 4}}"),
        }
    }

    /// Published `tRAS` for mode `M/Kx`.
    pub fn t_ras_ns(m: u32, k: u32) -> f64 {
        match (m, k) {
            (1, 1) => 35.0,
            (1, 2) => 37.52,
            (2, 2) => 21.46,
            (1, 4) => 46.51,
            (2, 4) => 22.78,
            (4, 4) => 20.00,
            _ => panic!("mode {m}/{k}x not in Table 3"),
        }
    }

    /// Published `tRFC` for mode `M/Kx` on a 1 Gb-class device.
    pub fn t_rfc_1gb_ns(m: u32, k: u32) -> f64 {
        match (m, k) {
            (1, 1) => 110.0,
            (1, 2) => 118.46,
            (2, 2) => 81.79,
            (1, 4) => 138.21,
            (2, 4) => 84.62,
            (4, 4) => 76.15,
            _ => panic!("mode {m}/{k}x not in Table 3"),
        }
    }

    /// Published `tRFC` for mode `M/Kx` on a 4 Gb-class device.
    pub fn t_rfc_4gb_ns(m: u32, k: u32) -> f64 {
        match (m, k) {
            (1, 1) => 260.0,
            (1, 2) => 280.0,
            (2, 2) => 193.33,
            (1, 4) => 326.67,
            (2, 4) => 200.0,
            (4, 4) => 180.0,
            _ => panic!("mode {m}/{k}x not in Table 3"),
        }
    }

    /// All `(m, k)` mode pairs in the table, in column order.
    pub fn modes() -> [(u32, u32); 6] {
        [(1, 1), (1, 2), (2, 2), (1, 4), (2, 4), (4, 4)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_is_internally_consistent() {
        // tRFC scales between devices by a constant factor (260/110).
        for (m, k) in PaperTable3::modes() {
            let ratio = PaperTable3::t_rfc_4gb_ns(m, k) / PaperTable3::t_rfc_1gb_ns(m, k);
            assert!(
                (ratio - 260.0 / 110.0).abs() < 0.01,
                "mode {m}/{k}x: {ratio}"
            );
        }
    }

    #[test]
    fn trfc_tracks_refresh_row_cycle_in_clocks() {
        // tRFC(mode)/tRFC(1x) == (ck(tRAS_mode)+tRP_ck)/(ck(tRAS_1x)+tRP_ck)
        let ck = |ns: f64| (ns / 1.25).ceil();
        for (m, k) in PaperTable3::modes() {
            let expect = 110.0 * (ck(PaperTable3::t_ras_ns(m, k)) + 11.0) / 39.0;
            let got = PaperTable3::t_rfc_1gb_ns(m, k);
            assert!(
                (expect - got).abs() < 0.05,
                "mode {m}/{k}x: expected {expect}, table says {got}"
            );
        }
    }
}

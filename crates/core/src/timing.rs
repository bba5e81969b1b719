//! Table 3 timing constants for every MCR mode.
//!
//! The system-level simulator consumes the paper's published constants
//! (the canonical source); [`McrTimingTable::from_circuit_model`] derives
//! the same table from the analytical circuit model instead, whose fit
//! error the claims ledger's `table3.*` rows bound.

use circuit_model::{PaperTable3, TimingSolver};
use dram_device::{ns_to_cycles, RowTiming};

/// Device density class, which selects the `tRFC` column of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// 1 Gb-class device (the paper's 4 GB single-core configuration).
    OneGb,
    /// 4 Gb-class device (the paper's 16 GB multi-core configuration).
    FourGb,
}

impl DeviceClass {
    /// Picks the class matching a bank's row count (same rule as
    /// `TimingSet::ddr3_1600`).
    pub fn for_rows_per_bank(rows: u64) -> Self {
        if rows > 32_768 {
            DeviceClass::FourGb
        } else {
            DeviceClass::OneGb
        }
    }
}

/// The `tRCD`/`tRAS`/`tRFC` constants for one `M/Kx` mode, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeTiming {
    /// `M` of the mode.
    pub m: u32,
    /// `K` of the mode.
    pub k: u32,
    /// Activation timing (Early-Access `tRCD` + Early-Precharge `tRAS`).
    pub row: RowTiming,
    /// Fast-Refresh `tRFC` in cycles for the configured device class.
    pub t_rfc: u32,
}

/// Timing constants for all six Table 3 modes at one device class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McrTimingTable {
    device: DeviceClass,
    entries: Vec<ModeTiming>,
}

impl McrTimingTable {
    /// The canonical table: the paper's published Table 3 values.
    pub fn paper(device: DeviceClass) -> Self {
        let entries = PaperTable3::modes()
            .iter()
            .map(|&(m, k)| ModeTiming {
                m,
                k,
                row: RowTiming::from_ns(PaperTable3::t_rcd_ns(k), PaperTable3::t_ras_ns(m, k)),
                t_rfc: ns_to_cycles(match device {
                    DeviceClass::OneGb => PaperTable3::t_rfc_1gb_ns(m, k),
                    DeviceClass::FourGb => PaperTable3::t_rfc_4gb_ns(m, k),
                }),
            })
            .collect();
        McrTimingTable { device, entries }
    }

    /// The same table derived from the analytical circuit model (for the
    /// Table 3 reproduction bench; within the fit tolerance of the paper).
    pub fn from_circuit_model(device: DeviceClass, solver: &TimingSolver) -> Self {
        let base = match device {
            DeviceClass::OneGb => 110.0,
            DeviceClass::FourGb => 260.0,
        };
        let entries = PaperTable3::modes()
            .iter()
            .map(|&(m, k)| ModeTiming {
                m,
                k,
                row: RowTiming::from_ns(solver.t_rcd_ns(k), solver.t_ras_ns(m, k)),
                t_rfc: ns_to_cycles(solver.t_rfc_ns(m, k, base)),
            })
            .collect();
        McrTimingTable { device, entries }
    }

    /// The device class this table is for.
    pub fn device(&self) -> DeviceClass {
        self.device
    }

    /// Timing for mode `M/Kx`.
    ///
    /// # Panics
    ///
    /// Panics for modes outside Table 3.
    pub fn mode(&self, m: u32, k: u32) -> ModeTiming {
        *self
            .entries
            .iter()
            .find(|e| e.m == m && e.k == k)
            .unwrap_or_else(|| panic!("mode {m}/{k}x not in Table 3"))
    }

    /// All entries in Table 3 column order.
    pub fn entries(&self) -> &[ModeTiming] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit_model::CircuitParams;

    #[test]
    fn paper_values_in_cycles() {
        let t = McrTimingTable::paper(DeviceClass::OneGb);
        let m44 = t.mode(4, 4);
        assert_eq!(m44.row.t_rcd, 6); // 6.90 ns
        assert_eq!(m44.row.t_ras, 16); // 20.00 ns
        assert_eq!(m44.t_rfc, 61); // 76.15 ns
        let m11 = t.mode(1, 1);
        assert_eq!(m11.row.t_rcd, 11);
        assert_eq!(m11.row.t_ras, 28);
        assert_eq!(m11.t_rfc, 88);
    }

    #[test]
    fn four_gb_trfc_column() {
        let t = McrTimingTable::paper(DeviceClass::FourGb);
        assert_eq!(t.mode(1, 1).t_rfc, 208); // 260 ns
        assert_eq!(t.mode(4, 4).t_rfc, 144); // 180 ns
        assert_eq!(t.mode(2, 2).t_rfc, 155); // 193.33 ns
    }

    #[test]
    fn device_class_selection() {
        assert_eq!(DeviceClass::for_rows_per_bank(32_768), DeviceClass::OneGb);
        assert_eq!(DeviceClass::for_rows_per_bank(131_072), DeviceClass::FourGb);
    }

    #[test]
    fn circuit_model_table_close_to_paper() {
        let solver = TimingSolver::new(CircuitParams::calibrated());
        let paper = McrTimingTable::paper(DeviceClass::OneGb);
        let model = McrTimingTable::from_circuit_model(DeviceClass::OneGb, &solver);
        for (p, m) in paper.entries().iter().zip(model.entries()) {
            let rcd_err = (p.row.t_rcd as f64 - m.row.t_rcd as f64).abs() / p.row.t_rcd as f64;
            let ras_err = (p.row.t_ras as f64 - m.row.t_ras as f64).abs() / p.row.t_ras as f64;
            assert!(rcd_err <= 0.10, "{}/{}x tRCD {rcd_err}", p.m, p.k);
            assert!(ras_err <= 0.20, "{}/{}x tRAS {ras_err}", p.m, p.k);
        }
    }

    #[test]
    #[should_panic(expected = "not in Table 3")]
    fn unknown_mode_panics() {
        McrTimingTable::paper(DeviceClass::OneGb).mode(3, 4);
    }
}

//! # dram-power
//!
//! An IDD-based DDR3 power and energy model following the standard
//! datasheet methodology (the paper cites Micron's technical note and the
//! Rambus power model): energy is decomposed into activate/precharge
//! pairs, read/write bursts, refresh, and background (standby) components,
//! each derived from datasheet supply currents.
//!
//! MCR-DRAM-specific adjustments (paper Sec. 6.4):
//!
//! * **Extra wordlines** — activating a Kx MCR raises K wordlines; the
//!   wordline-drive energy is small relative to the sense amplifiers, so
//!   each extra wordline adds a small configurable fraction of the
//!   activate energy.
//! * **Early-Precharge credit** — cells, bitlines and sense amps are not
//!   fully charged when the restore is truncated; the restore share of the
//!   activate energy is credited proportionally to the truncation.
//! * **Fast-Refresh / Refresh-Skipping credit** — refresh energy scales
//!   with the actual busy cycles per REFRESH (`refresh_busy_cycles`), and
//!   skipped REFRESH commands simply never appear in the counters.
//!
//! ## Example
//!
//! ```
//! use dram_power::{EnergyBreakdown, PowerParams};
//! use dram_device::{ActivityCounters, TimingSet};
//!
//! let params = PowerParams::ddr3_1600(&TimingSet::default());
//! let mut counters = ActivityCounters::new();
//! counters.activates = 100;
//! counters.precharges = 100;
//! counters.reads = 300;
//! let e = EnergyBreakdown::for_rank(&params, &counters, 1_000_000);
//! assert!(e.total_pj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use dram_device::{ActivityCounters, Cycle, TimingSet};

/// Datasheet currents and model knobs for one rank.
///
/// Current values are representative of a 4 Gb x8 DDR3-1600 device; a rank
/// is `chips` such devices switching together. Absolute watts matter less
/// than component ratios for the paper's EDP comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Core supply voltage (V).
    pub vdd: f64,
    /// One-bank activate-precharge current (mA).
    pub idd0_ma: f64,
    /// Precharge standby current (mA).
    pub idd2n_ma: f64,
    /// Precharge power-down current (mA, CKE low).
    pub idd2p_ma: f64,
    /// Active standby current (mA).
    pub idd3n_ma: f64,
    /// Read burst current (mA).
    pub idd4r_ma: f64,
    /// Write burst current (mA).
    pub idd4w_ma: f64,
    /// Refresh burst current (mA).
    pub idd5_ma: f64,
    /// Devices per rank.
    pub chips: u32,
    /// Clock period (ns).
    pub t_ck_ns: f64,
    /// `tRAS` in cycles (for the IDD0 decomposition).
    pub t_ras_ck: u32,
    /// `tRC` in cycles.
    pub t_rc_ck: u32,
    /// Baseline `tRFC` in cycles.
    pub t_rfc_ck: u32,
    /// Burst length in cycles.
    pub burst_ck: u32,
    /// Fraction of activate energy added per extra raised wordline
    /// (paper: "relatively small compared to that of sense-amplifiers").
    pub extra_wordline_frac: f64,
    /// Fraction of activate energy spent in the restore phase (credited
    /// back proportionally under Early-Precharge).
    pub restore_energy_frac: f64,
}

impl PowerParams {
    /// Parameters for a 2-rank DDR3-1600 DIMM built from x8 devices,
    /// deriving cycle counts from `timing`.
    pub fn ddr3_1600(timing: &TimingSet) -> Self {
        PowerParams {
            vdd: 1.5,
            idd0_ma: 90.0,
            idd2n_ma: 42.0,
            idd2p_ma: 12.0,
            idd3n_ma: 48.0,
            idd4r_ma: 150.0,
            idd4w_ma: 160.0,
            idd5_ma: 220.0,
            chips: 8,
            t_ck_ns: 1.25,
            t_ras_ck: timing.t_ras,
            t_rc_ck: timing.t_rc(),
            t_rfc_ck: timing.t_rfc,
            burst_ck: timing.burst_cycles,
            extra_wordline_frac: 0.02,
            restore_energy_frac: 0.45,
        }
    }

    fn pj_per_ma_cycle(&self) -> f64 {
        // I(mA) × V(V) × t(ns) = pJ; scaled by devices per rank.
        self.vdd * self.t_ck_ns * self.chips as f64
    }

    /// Energy of one activate+precharge pair (pJ), from the IDD0
    /// decomposition: the burst current minus the standby currents that
    /// would flow anyway over one `tRC`.
    pub fn act_pre_energy_pj(&self) -> f64 {
        let ras = self.t_ras_ck as f64;
        let rc = self.t_rc_ck as f64;
        let net_ma = self.idd0_ma * rc - self.idd3n_ma * ras - self.idd2n_ma * (rc - ras);
        net_ma * self.pj_per_ma_cycle()
    }

    /// Energy of one read burst (pJ), above active standby.
    pub fn read_energy_pj(&self) -> f64 {
        (self.idd4r_ma - self.idd3n_ma) * self.burst_ck as f64 * self.pj_per_ma_cycle()
    }

    /// Energy of one write burst (pJ), above active standby.
    pub fn write_energy_pj(&self) -> f64 {
        (self.idd4w_ma - self.idd3n_ma) * self.burst_ck as f64 * self.pj_per_ma_cycle()
    }

    /// Refresh energy per busy cycle (pJ/cycle), above precharge standby.
    /// Fast-Refresh pays for fewer busy cycles; a skipped slot pays none.
    pub fn refresh_energy_pj_per_cycle(&self) -> f64 {
        (self.idd5_ma - self.idd2n_ma) * self.pj_per_ma_cycle()
    }

    /// Background power draw (pJ/cycle) with at least one bank active.
    pub fn active_standby_pj_per_cycle(&self) -> f64 {
        self.idd3n_ma * self.pj_per_ma_cycle()
    }

    /// Background power draw (pJ/cycle) with all banks precharged.
    pub fn precharge_standby_pj_per_cycle(&self) -> f64 {
        self.idd2n_ma * self.pj_per_ma_cycle()
    }

    /// Background power draw (pJ/cycle) in precharge power-down (CKE low).
    pub fn powerdown_pj_per_cycle(&self) -> f64 {
        self.idd2p_ma * self.pj_per_ma_cycle()
    }
}

/// Per-component energy for one rank over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Activate/precharge energy, including the extra-wordline surcharge
    /// and the Early-Precharge restore credit (pJ).
    pub act_pre_pj: f64,
    /// Read burst energy (pJ).
    pub read_pj: f64,
    /// Write burst energy (pJ).
    pub write_pj: f64,
    /// Refresh energy (pJ).
    pub refresh_pj: f64,
    /// Background energy (pJ).
    pub background_pj: f64,
}

impl EnergyBreakdown {
    /// Computes the rank's energy from its activity counters over
    /// `total_cycles` memory cycles.
    pub fn for_rank(p: &PowerParams, c: &ActivityCounters, total_cycles: Cycle) -> Self {
        let base_act = p.act_pre_energy_pj();
        // Extra wordlines: small surcharge per extra wordline raised.
        let wordline_pj = base_act * p.extra_wordline_frac * c.extra_wordlines as f64;
        // Early-Precharge: the restore portion of the activate energy is
        // credited for the truncated fraction of the restore window.
        let restore_credit = if c.activates == 0 {
            0.0
        } else {
            let avg_trunc =
                c.restore_truncation_cycles as f64 / c.activates as f64 / p.t_ras_ck as f64;
            base_act * p.restore_energy_frac * avg_trunc * c.activates as f64
        };
        let act_pre_pj = base_act * c.activates as f64 + wordline_pj - restore_credit;
        let read_pj = p.read_energy_pj() * c.reads as f64;
        let write_pj = p.write_energy_pj() * c.writes as f64;
        let refresh_pj = p.refresh_energy_pj_per_cycle() * c.refresh_busy_cycles as f64;
        // Idle cycles split into awake standby (IDD2N) and power-down
        // (IDD2P); power-down cycles are always a subset of idle cycles.
        let idle = c.idle_cycles(total_cycles) as f64;
        let pd = (c.powerdown_cycles as f64).min(idle);
        let background_pj = p.active_standby_pj_per_cycle() * c.active_cycles as f64
            + p.precharge_standby_pj_per_cycle() * (idle - pd)
            + p.powerdown_pj_per_cycle() * pd;
        EnergyBreakdown {
            act_pre_pj,
            read_pj,
            write_pj,
            refresh_pj,
            background_pj,
        }
    }

    /// Total energy (pJ).
    pub fn total_pj(&self) -> f64 {
        self.act_pre_pj + self.read_pj + self.write_pj + self.refresh_pj + self.background_pj
    }

    /// Adds another rank's breakdown.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.act_pre_pj += other.act_pre_pj;
        self.read_pj += other.read_pj;
        self.write_pj += other.write_pj;
        self.refresh_pj += other.refresh_pj;
        self.background_pj += other.background_pj;
    }
}

/// Energy-delay product in J·s, the paper's energy-efficiency metric
/// (Sec. 5.1): total energy × execution time.
pub fn edp(total_pj: f64, cycles: Cycle, t_ck_ns: f64) -> f64 {
    let energy_j = total_pj * 1e-12;
    let time_s = cycles as f64 * t_ck_ns * 1e-9;
    energy_j * time_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PowerParams {
        PowerParams::ddr3_1600(&TimingSet::default())
    }

    fn counters(acts: u64) -> ActivityCounters {
        let mut c = ActivityCounters::new();
        c.activates = acts;
        c.precharges = acts;
        c.reads = acts * 2;
        c
    }

    #[test]
    fn components_are_positive() {
        let p = params();
        assert!(p.act_pre_energy_pj() > 0.0);
        assert!(p.read_energy_pj() > 0.0);
        assert!(p.write_energy_pj() > p.read_energy_pj());
        assert!(p.refresh_energy_pj_per_cycle() > 0.0);
    }

    #[test]
    fn energy_scales_with_activity() {
        let p = params();
        let a = EnergyBreakdown::for_rank(&p, &counters(10), 1000);
        let b = EnergyBreakdown::for_rank(&p, &counters(20), 1000);
        assert!(b.act_pre_pj > a.act_pre_pj);
        assert!(b.read_pj > a.read_pj);
        assert_eq!(a.background_pj, b.background_pj);
    }

    #[test]
    fn extra_wordlines_cost_little() {
        let p = params();
        let base = counters(100);
        let mut mcr = counters(100);
        mcr.extra_wordlines = 300; // 4x MCR on every activate
        let e0 = EnergyBreakdown::for_rank(&p, &base, 10_000);
        let e1 = EnergyBreakdown::for_rank(&p, &mcr, 10_000);
        let overhead = (e1.act_pre_pj - e0.act_pre_pj) / e0.act_pre_pj;
        assert!(overhead > 0.0 && overhead < 0.10, "overhead {overhead}");
    }

    #[test]
    fn early_precharge_reduces_activate_energy() {
        let p = params();
        let base = counters(100);
        let mut ep = counters(100);
        // 4/4x MCR: tRAS 16 vs 28 cycles -> 12 truncated cycles each.
        ep.restore_truncation_cycles = 12 * 100;
        let e0 = EnergyBreakdown::for_rank(&p, &base, 10_000);
        let e1 = EnergyBreakdown::for_rank(&p, &ep, 10_000);
        assert!(e1.act_pre_pj < e0.act_pre_pj);
    }

    #[test]
    fn fast_refresh_and_skipping_cut_refresh_energy() {
        let p = params();
        let mut normal = ActivityCounters::new();
        normal.refreshes = 100;
        normal.refresh_busy_cycles = 100 * 88;
        let mut fast = ActivityCounters::new();
        fast.refreshes = 100;
        fast.refresh_busy_cycles = 100 * 61; // 4/4x Fast-Refresh
        let mut skipped = ActivityCounters::new();
        skipped.refreshes = 50; // half the slots skipped
        skipped.refresh_busy_cycles = 50 * 88;
        let t = 1_000_000;
        let e_n = EnergyBreakdown::for_rank(&p, &normal, t).refresh_pj;
        let e_f = EnergyBreakdown::for_rank(&p, &fast, t).refresh_pj;
        let e_s = EnergyBreakdown::for_rank(&p, &skipped, t).refresh_pj;
        assert!(e_f < e_n);
        assert!((e_s - e_n / 2.0).abs() < 1e-6);
    }

    #[test]
    fn powerdown_cuts_background_energy() {
        let p = params();
        let mut awake = ActivityCounters::new();
        let mut asleep = ActivityCounters::new();
        asleep.powerdown_cycles = 800;
        let t = 1_000;
        let e_awake = EnergyBreakdown::for_rank(&p, &awake, t).background_pj;
        let e_asleep = EnergyBreakdown::for_rank(&p, &asleep, t).background_pj;
        assert!(e_asleep < e_awake);
        // 800 cycles at IDD2P instead of IDD2N.
        let expect =
            e_awake - 800.0 * (p.precharge_standby_pj_per_cycle() - p.powerdown_pj_per_cycle());
        assert!((e_asleep - expect).abs() < 1e-6);
        let _ = &mut awake;
    }

    #[test]
    fn edp_units() {
        // 1 J over 1 s -> EDP 1.
        let e = edp(1e12, 800_000_000, 1.25);
        assert!((e - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let p = params();
        let mut a = EnergyBreakdown::for_rank(&p, &counters(5), 100);
        let b = EnergyBreakdown::for_rank(&p, &counters(5), 100);
        let total_before = a.total_pj();
        a.merge(&b);
        assert!((a.total_pj() - 2.0 * total_before).abs() < 1e-6);
    }
}

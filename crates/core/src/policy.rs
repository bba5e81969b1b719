//! [`McrPolicy`]: the MCR-DRAM architecture backend — injects the
//! paper's mechanisms into the baseline memory controller through the
//! `DevicePolicy` extension point. One of several registered backends
//! (see [`crate::backend`]); the others model competing low-latency
//! DRAM proposals for head-to-head comparison.

use crate::layout::{McrLayout, RegionMap};
use crate::mechanisms::Mechanisms;
use crate::mode::McrMode;
use crate::timing::{DeviceClass, McrTimingTable};
use dram_device::{DramAddress, RowTiming, RowTimingClass};
use mem_controller::{DevicePolicy, RefreshAction};

/// One registered timing class: a Table 3 mode with mechanisms applied.
#[derive(Debug, Clone, Copy)]
struct ClassEntry {
    m: u32,
    k: u32,
    /// Row timing applied to activations of rows using this class.
    row: RowTiming,
    /// Fast-Refresh tRFC for refresh slots targeting this class's rows.
    t_rfc: u32,
}

/// The MCR device policy: decides, per ACTIVATE, whether the target row is
/// in an MCR (and hence gets the relaxed Table 3 timing class) and, per
/// refresh slot, whether to Fast-Refresh or skip it.
///
/// Supports one region per mode tier: the common single-mode layouts of
/// Table 1 and the paper's combined 2x + 4x configuration (Sec. 4.4).
///
/// The refresh-slot visit index needed for Refresh-Skipping (which of an
/// MCR's K per-sweep visits a slot is, Fig. 9) is tracked with per-rank
/// slot counters that shadow the device's internal refresh counter: with
/// the paper's K-to-N-1-K wiring, the visit index of slot `c` is simply
/// the top `log2 K` bits of `c`.
#[derive(Debug, Clone)]
pub struct McrPolicy {
    regions: RegionMap,
    /// All six Table 3 modes, pre-registered so an MRS-style runtime mode
    /// change only re-maps rows onto existing classes.
    classes: Vec<ClassEntry>,
    mechanisms: Mechanisms,
    /// Baseline row timing (class 0).
    baseline: RowTiming,
    /// Row-address width in bits (for the slot-visit-index computation).
    row_bits: u32,
    /// Per-rank refresh slot counters.
    slot_counters: Vec<u64>,
    /// Guardband rung `NoSkip` (and below): Refresh-Skipping suspended,
    /// every slot issues a REFRESH.
    skip_disabled: bool,
    /// Guardband rung `FullRas`: MCR activations use the degraded
    /// full-`tRAS` class variants (full restores; Early-Access `tRCD` is
    /// kept, only Early-Precharge is reverted).
    full_ras: bool,
}

impl McrPolicy {
    /// Builds the policy for a region map with the given mechanism
    /// switches.
    ///
    /// * `table` supplies the Table 3 constants for the device class.
    /// * `ranks` and `row_bits` describe the refresh counter space.
    pub fn from_regions(
        regions: RegionMap,
        mechanisms: Mechanisms,
        table: &McrTimingTable,
        ranks: u8,
        row_bits: u32,
    ) -> Self {
        let baseline = table.mode(1, 1);
        // Pre-register every Table 3 mode so runtime reconfiguration never
        // needs new classes. Ablation: Early-Access off -> baseline tRCD;
        // Early-Precharge off -> baseline tRAS (the device restores fully
        // even though the shorter refresh interval would allow stopping
        // early).
        let classes = table
            .entries()
            .iter()
            .filter(|e| !(e.m == 1 && e.k == 1))
            .map(|e| ClassEntry {
                m: e.m,
                k: e.k,
                row: RowTiming {
                    t_rcd: if mechanisms.early_access {
                        e.row.t_rcd
                    } else {
                        baseline.row.t_rcd
                    },
                    t_ras: if mechanisms.early_precharge {
                        e.row.t_ras
                    } else {
                        baseline.row.t_ras
                    },
                },
                t_rfc: e.t_rfc,
            })
            .collect();
        McrPolicy {
            regions,
            classes,
            mechanisms,
            baseline: baseline.row,
            row_bits,
            slot_counters: vec![0; ranks as usize],
            skip_disabled: false,
            full_ras: false,
        }
    }

    /// Index into `classes` for mode `M/Kx`.
    fn class_index(&self, m: u32, k: u32) -> usize {
        self.classes
            .iter()
            .position(|c| c.m == m && c.k == k)
            .unwrap_or_else(|| panic!("mode {m}/{k}x has no registered class"))
    }

    /// Models the MRS command for a dynamic MCR-mode change (Sec. 4.4):
    /// swaps the active region map. Timing classes were pre-registered at
    /// construction, so the change is instantaneous from the controller's
    /// perspective.
    ///
    /// Collision freedom is the *caller's* obligation (paper Table 2):
    /// only relax — reduce K or shrink regions — while data is live, or
    /// pair a tightening change with page migration.
    pub fn reprogram(&mut self, regions: RegionMap) {
        self.regions = regions;
    }

    /// Single-mode policy (Table 1 configuration `[M/Kx/L%reg]`).
    pub fn new(
        mode: McrMode,
        mechanisms: Mechanisms,
        table: &McrTimingTable,
        ranks: u8,
        row_bits: u32,
    ) -> Self {
        Self::from_regions(RegionMap::single(mode), mechanisms, table, ranks, row_bits)
    }

    /// Convenience: single-mode policy with the paper's canonical Table 3
    /// constants for a geometry's device class.
    pub fn for_geometry(
        mode: McrMode,
        mechanisms: Mechanisms,
        geometry: &dram_device::Geometry,
    ) -> Self {
        let table = McrTimingTable::paper(DeviceClass::for_rows_per_bank(geometry.rows_per_bank));
        Self::new(
            mode,
            mechanisms,
            &table,
            geometry.ranks,
            geometry.row_bits(),
        )
    }

    /// Convenience: the combined 2x + 4x configuration of Sec. 4.4 with
    /// canonical constants.
    pub fn combined_for_geometry(
        m4: u32,
        frac4: f64,
        m2: u32,
        frac2: f64,
        mechanisms: Mechanisms,
        geometry: &dram_device::Geometry,
    ) -> Self {
        let table = McrTimingTable::paper(DeviceClass::for_rows_per_bank(geometry.rows_per_bank));
        Self::from_regions(
            RegionMap::combined(m4, frac4, m2, frac2),
            mechanisms,
            &table,
            geometry.ranks,
            geometry.row_bits(),
        )
    }

    /// The active region map.
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Single-region view for callers that assume one mode (the layout of
    /// the hottest tier; an off-mode layout when no regions exist).
    pub fn layout(&self) -> McrLayout {
        match self.regions.regions().first() {
            Some(r) => McrLayout::new(r.mode()),
            None => McrLayout::new(McrMode::off()),
        }
    }

    /// The row timing rows of tier `i` receive under the current
    /// mechanisms (tier 0 is the hottest region).
    pub fn tier_row_timing(&self, i: usize) -> RowTiming {
        let mode = self.regions.regions()[i].mode();
        self.classes[self.class_index(mode.m(), mode.k())].row
    }

    /// The row timing MCR rows receive under the current mechanisms
    /// (single-region policies only; baseline when MCR-mode is off).
    pub fn mcr_row_timing(&self) -> RowTiming {
        if self.regions.is_off() {
            self.baseline
        } else {
            self.tier_row_timing(0)
        }
    }

    /// The baseline (normal-row) timing, class 0.
    pub fn baseline_row_timing(&self) -> RowTiming {
        self.baseline
    }

    /// `(M, K)` of each registered non-baseline class, in class-index
    /// order (`RowTimingClass(1 + i)`). Used by the system layer to derive
    /// per-class restore voltages for retention tracking; the degraded
    /// full-`tRAS` variants at offset `len()` always restore fully.
    pub fn class_modes(&self) -> Vec<(u32, u32)> {
        self.classes.iter().map(|c| (c.m, c.k)).collect()
    }

    /// Applies one guardband ladder rung (graceful timing degradation).
    ///
    /// The rungs are cumulative: `NoSkip` suspends Refresh-Skipping,
    /// `FullRas` additionally reverts Early-Precharge by re-mapping MCR
    /// rows onto the pre-registered degraded full-`tRAS` classes. `Full`
    /// restores the configured mechanisms. K never changes, so every
    /// rung is a relaxation (Table 2) and needs no page migration.
    pub fn apply_degrade_level(&mut self, level: mem_controller::DegradeLevel) {
        use mem_controller::DegradeLevel;
        self.skip_disabled = level >= DegradeLevel::NoSkip;
        self.full_ras = level >= DegradeLevel::FullRas;
    }

    /// True while Refresh-Skipping is suspended by the guardband ladder.
    pub fn skip_disabled(&self) -> bool {
        self.skip_disabled
    }

    /// True while MCR activations use the degraded full-`tRAS` classes.
    pub fn full_ras(&self) -> bool {
        self.full_ras
    }

    /// Visit index (0..K) of refresh slot `c` for the MCR its row belongs
    /// to, under K-to-N-1-K wiring: the top `log2 K` bits of the counter.
    fn visit_index(&self, c: u64, k: u32) -> u64 {
        let logk = k.trailing_zeros();
        if logk == 0 {
            0
        } else {
            (c >> (self.row_bits - logk)) & (k as u64 - 1)
        }
    }
}

impl DevicePolicy for McrPolicy {
    fn activate_class(&self, addr: &DramAddress) -> (RowTimingClass, u32) {
        match self.regions.classify(addr.row) {
            // Classes 1..=6 are the pre-registered Table 3 modes; K-1
            // extra wordlines rise for a Kx MCR activation.
            Some((_, r)) => {
                let mode = r.mode();
                let idx = self.class_index(mode.m(), mode.k());
                // Guardband rung FullRas: same mode, but the degraded
                // variant at offset `classes.len()` (full-tRAS restore).
                let idx = if self.full_ras {
                    idx + self.classes.len()
                } else {
                    idx
                };
                (RowTimingClass(1 + idx as u8), mode.k() - 1)
            }
            None => (RowTimingClass(0), 0),
        }
    }

    fn refresh_action(&mut self, rank: u8, slot_row: u64) -> RefreshAction {
        let c = self.slot_counters[rank as usize];
        self.slot_counters[rank as usize] += 1;
        let Some((tier, region)) = self.regions.classify(slot_row) else {
            return RefreshAction::Normal;
        };
        let mode = region.mode();
        // Refresh-Skipping (Fig. 9): of the K per-sweep visits to this MCR,
        // issue only every (K/M)-th. Each group gets a fixed issue phase
        // φ_g so its issued refreshes stay uniformly 64/M ms apart; taking
        // φ_g from the TOP log2(K/M) bits of the group index also spreads
        // the skipped slots evenly in time, because under K-to-N-1-K
        // wiring the group visited at quarter-offset o is bit-reverse(o):
        // the group's top bits are o's low bits, so adjacent slots carry
        // consecutive phases. (Without the stagger, all groups share one
        // phase and whole 16 ms quarter-sweeps would go refresh-free.)
        if self.mechanisms.refresh_skipping && !self.skip_disabled {
            let p = mode.skip_period() as u64;
            if p > 1 {
                let q = self.visit_index(c, mode.k());
                let logk = mode.k().trailing_zeros();
                let group_bits = self.row_bits - logk;
                let g = slot_row >> logk;
                let phase = g >> (group_bits - p.trailing_zeros());
                if q % p != phase % p {
                    return RefreshAction::Skip;
                }
            }
        }
        if self.mechanisms.fast_refresh {
            let _ = tier;
            RefreshAction::Fast(self.classes[self.class_index(mode.m(), mode.k())].t_rfc)
        } else {
            RefreshAction::Normal
        }
    }

    fn timing_classes(&self) -> Vec<RowTiming> {
        // Normal classes first (indices 0..n → RowTimingClass 1..=n), then
        // their degraded full-tRAS variants (guardband rung FullRas) at
        // offset n: Early-Access tRCD kept, Early-Precharge reverted so
        // every activation restores cells fully.
        self.classes
            .iter()
            .map(|c| c.row)
            .chain(self.classes.iter().map(|c| RowTiming {
                t_rcd: c.row.t_rcd,
                t_ras: self.baseline.t_ras,
            }))
            .collect()
    }

    fn apply_degrade_level(&mut self, level: mem_controller::DegradeLevel) {
        McrPolicy::apply_degrade_level(self, level);
    }

    fn restore_classes(&self) -> Vec<(u32, u32)> {
        self.class_modes()
    }

    fn max_refresh_skip(&self) -> u32 {
        self.regions
            .regions()
            .iter()
            .map(|r| r.mode().skip_period())
            .max()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_device::Geometry;

    fn policy(m: u32, k: u32, l: f64, mech: Mechanisms) -> McrPolicy {
        McrPolicy::for_geometry(
            McrMode::new(m, k, l).unwrap(),
            mech,
            &Geometry::single_core_4gb(),
        )
    }

    fn addr(row: u64) -> DramAddress {
        DramAddress {
            row,
            ..DramAddress::default()
        }
    }

    // Class indices follow Table 3 order minus the baseline:
    // 1 = 1/2x, 2 = 2/2x, 3 = 1/4x, 4 = 2/4x, 5 = 4/4x.

    #[test]
    fn mcr_rows_get_their_modes_class_with_extra_wordlines() {
        let p = policy(4, 4, 1.0, Mechanisms::all());
        assert_eq!(p.activate_class(&addr(0)), (RowTimingClass(5), 3));
        let half = policy(2, 2, 0.5, Mechanisms::all());
        assert_eq!(half.activate_class(&addr(0)), (RowTimingClass(0), 0));
        assert_eq!(half.activate_class(&addr(300)), (RowTimingClass(2), 1));
    }

    #[test]
    fn off_mode_is_all_baseline() {
        let p = McrPolicy::for_geometry(
            McrMode::off(),
            Mechanisms::all(),
            &Geometry::single_core_4gb(),
        );
        assert_eq!(p.activate_class(&addr(511)), (RowTimingClass(0), 0));
        assert_eq!(p.mcr_row_timing(), p.baseline_row_timing());
        // Classes stay registered (runtime mode change may need them) but
        // no row maps to any of them: 5 Table-3 modes plus their 5
        // degraded full-tRAS guardband variants.
        assert_eq!(p.timing_classes().len(), 10);
    }

    #[test]
    fn mechanism_switches_shape_row_timing() {
        let ea_only = policy(4, 4, 1.0, Mechanisms::fig17_case(1));
        assert_eq!(ea_only.mcr_row_timing().t_rcd, 6);
        assert_eq!(ea_only.mcr_row_timing().t_ras, 28); // baseline tRAS
        let both = policy(4, 4, 1.0, Mechanisms::fig17_case(2));
        assert_eq!(both.mcr_row_timing().t_ras, 16);
    }

    #[test]
    fn fast_refresh_overrides_trfc() {
        let mut p = policy(4, 4, 1.0, Mechanisms::fig17_case(3));
        // 100% region: every slot targets an MCR row.
        assert_eq!(p.refresh_action(0, 0), RefreshAction::Fast(61));
        let mut normal = policy(4, 4, 1.0, Mechanisms::fig17_case(2));
        assert_eq!(normal.refresh_action(0, 0), RefreshAction::Normal);
    }

    #[test]
    fn skipping_follows_fig9_pattern_per_group() {
        // Drive the policy with a realistic reversed-wiring counter and
        // check, per MCR group, that mode 2/4x issues exactly 2 of its 4
        // visits, uniformly spaced (alternating REF/S, Fig. 9).
        use dram_device::{RefreshCounter, RefreshWiring};
        let mut p = policy(2, 4, 1.0, Mechanisms::all());
        let bits = 15;
        let mut ctr = RefreshCounter::new(bits, RefreshWiring::Reversed);
        let sweep = 1u64 << bits;
        let groups = (sweep / 4) as usize;
        let mut per_group: Vec<Vec<bool>> = vec![Vec::new(); groups];
        let mut issued_total = 0u64;
        for _ in 0..sweep {
            let row = ctr.advance();
            let issued = matches!(p.refresh_action(0, row), RefreshAction::Fast(_));
            per_group[(row / 4) as usize].push(issued);
            issued_total += issued as u64;
        }
        // Every group: 4 visits, exactly 2 issued, alternating.
        for (g, visits) in per_group.iter().enumerate() {
            assert_eq!(visits.len(), 4, "group {g}");
            let n: usize = visits.iter().map(|&b| b as usize).sum();
            assert_eq!(n, 2, "group {g}: {visits:?}");
            assert_ne!(visits[0], visits[1], "group {g} must alternate");
            assert_eq!(visits[0], visits[2], "group {g} must be uniform");
        }
        // Globally, half the slots issue.
        assert_eq!(issued_total, sweep / 2);
    }

    #[test]
    fn skipping_is_spread_within_a_quarter_sweep() {
        // Short simulations only see the first few slots; skipping must be
        // visible there, not bunched into later quarter-sweeps.
        use dram_device::{RefreshCounter, RefreshWiring};
        let mut p = policy(2, 4, 1.0, Mechanisms::all());
        let mut ctr = RefreshCounter::new(15, RefreshWiring::Reversed);
        let first_100: Vec<bool> = (0..100)
            .map(|_| {
                let row = ctr.advance();
                matches!(p.refresh_action(0, row), RefreshAction::Skip)
            })
            .collect();
        let skips = first_100.iter().filter(|&&s| s).count();
        assert!(
            (35..=65).contains(&skips),
            "2/4x should skip about half of the first 100 slots, got {skips}"
        );
    }

    #[test]
    fn overall_skip_fraction_matches_mode() {
        // 1/4x issues a quarter of MCR slots.
        use dram_device::{RefreshCounter, RefreshWiring};
        let mut p14 = policy(1, 4, 1.0, Mechanisms::all());
        let mut ctr = RefreshCounter::new(15, RefreshWiring::Reversed);
        let sweep = 1u64 << 15;
        let issued = (0..sweep)
            .filter(|_| {
                let row = ctr.advance();
                matches!(p14.refresh_action(0, row), RefreshAction::Fast(_))
            })
            .count() as u64;
        assert_eq!(issued, sweep / 4);
    }

    #[test]
    fn no_skipping_when_m_equals_k() {
        let mut p = policy(4, 4, 1.0, Mechanisms::all());
        for c in 0..4096u64 {
            assert!(matches!(
                p.refresh_action(0, c % 512),
                RefreshAction::Fast(_)
            ));
        }
    }

    #[test]
    fn normal_rows_always_refresh_normally() {
        // 50% region: lower-half rows are normal.
        let mut p = policy(2, 4, 0.5, Mechanisms::all());
        assert_eq!(p.refresh_action(0, 5), RefreshAction::Normal);
        assert_eq!(p.refresh_action(1, 100), RefreshAction::Normal);
    }

    #[test]
    fn timing_classes_exports_all_table3_modes() {
        let p = policy(4, 4, 1.0, Mechanisms::all());
        let classes = p.timing_classes();
        // 5 Table-3 modes plus their degraded full-tRAS variants.
        assert_eq!(classes.len(), 10);
        // 4/4x is class index 4 (RowTimingClass(5)).
        assert_eq!(classes[4].t_rcd, 6);
        assert_eq!(classes[4].t_ras, 16);
        // 2/2x is class index 1.
        assert_eq!(classes[1].t_rcd, 8);
        assert_eq!(classes[1].t_ras, 18);
        // Degraded variants keep Early-Access tRCD, revert tRAS to
        // baseline (full restore).
        assert_eq!(classes[9].t_rcd, 6);
        assert_eq!(classes[9].t_ras, 28);
        assert_eq!(classes[6].t_rcd, 8);
        assert_eq!(classes[6].t_ras, 28);
    }

    #[test]
    fn degrade_levels_remap_classes_and_suspend_skipping() {
        use mem_controller::DegradeLevel;
        let mut p = policy(2, 4, 1.0, Mechanisms::all());
        // A row whose group phase is 1 (g = row >> 2 = 4096, top stagger
        // bit set): at low slot counters the visit index q is 0, so 2/4x
        // skips this slot whenever skipping is armed.
        let skippy = 1u64 << 14;
        assert_eq!(p.activate_class(&addr(0)), (RowTimingClass(4), 3));
        assert_eq!(p.refresh_action(0, skippy), RefreshAction::Skip);
        // NoSkip: every slot issues, activations unchanged.
        p.apply_degrade_level(DegradeLevel::NoSkip);
        assert!(p.skip_disabled() && !p.full_ras());
        for c in 0..64u64 {
            assert!(
                !matches!(p.refresh_action(0, skippy), RefreshAction::Skip),
                "slot {c} skipped while skipping suspended"
            );
        }
        assert_eq!(p.activate_class(&addr(0)), (RowTimingClass(4), 3));
        // FullRas: 2/4x (class index 3) re-maps to its degraded variant
        // at index 3 + 5 → RowTimingClass(9).
        p.apply_degrade_level(DegradeLevel::FullRas);
        assert!(p.skip_disabled() && p.full_ras());
        assert_eq!(p.activate_class(&addr(0)), (RowTimingClass(9), 3));
        // Re-arm back to Full restores the configured behaviour.
        p.apply_degrade_level(DegradeLevel::Full);
        assert!(!p.skip_disabled() && !p.full_ras());
        assert_eq!(p.activate_class(&addr(0)), (RowTimingClass(4), 3));
        assert_eq!(
            p.refresh_action(0, skippy),
            RefreshAction::Skip,
            "skipping resumes after re-arm"
        );
    }

    #[test]
    fn class_modes_lists_m_k_in_class_order() {
        let p = policy(4, 4, 1.0, Mechanisms::all());
        assert_eq!(
            p.class_modes(),
            vec![(1, 2), (2, 2), (1, 4), (2, 4), (4, 4)]
        );
    }

    #[test]
    fn combined_policy_maps_tiers_to_their_classes() {
        let g = Geometry::single_core_4gb();
        let p = McrPolicy::combined_for_geometry(4, 0.25, 2, 0.25, Mechanisms::all(), &g);
        // Top quarter rows -> the 4/4x class with 3 extra wordlines.
        assert_eq!(p.activate_class(&addr(400)), (RowTimingClass(5), 3));
        // Next quarter -> the 2/2x class with 1 extra wordline.
        assert_eq!(p.activate_class(&addr(300)), (RowTimingClass(2), 1));
        // Bottom half -> baseline.
        assert_eq!(p.activate_class(&addr(100)), (RowTimingClass(0), 0));
        // Tier timings resolve through the class table.
        assert_eq!(p.tier_row_timing(0).t_rcd, 6);
        assert_eq!(p.tier_row_timing(1).t_rcd, 8);
    }

    #[test]
    fn reprogram_models_runtime_mrs_change() {
        let g = Geometry::single_core_4gb();
        let mut p = policy(4, 4, 1.0, Mechanisms::all());
        assert_eq!(p.activate_class(&addr(8)), (RowTimingClass(5), 3));
        // Relax 4x -> 2x at runtime (collision-free per Table 2).
        p.reprogram(crate::layout::RegionMap::single(
            McrMode::new(2, 2, 1.0).unwrap(),
        ));
        assert_eq!(p.activate_class(&addr(8)), (RowTimingClass(2), 1));
        // Turn MCR-mode off entirely.
        p.reprogram(crate::layout::RegionMap::single(McrMode::off()));
        assert_eq!(p.activate_class(&addr(8)), (RowTimingClass(0), 0));
        let _ = g;
    }

    #[test]
    fn combined_policy_fast_refresh_per_tier() {
        let g = Geometry::single_core_4gb();
        let mut p = McrPolicy::combined_for_geometry(4, 0.25, 2, 0.5, Mechanisms::all(), &g);
        // 4x tier slot (row 400): 4/4x tRFC = 61 cycles.
        assert_eq!(p.refresh_action(0, 400), RefreshAction::Fast(61));
        // 2x tier slot (row 200): 2/2x tRFC = 66 cycles (81.79 ns).
        assert_eq!(p.refresh_action(0, 200), RefreshAction::Fast(66));
        // Normal row.
        assert_eq!(p.refresh_action(0, 10), RefreshAction::Normal);
    }
}

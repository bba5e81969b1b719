//! # mcr-faults
//!
//! Deterministic fault plans for the MCR-DRAM reliability subsystem.
//!
//! The paper's low-latency mechanisms (Early-Precharge, Fast-Refresh,
//! Refresh-Skipping) are safe only while the Kx refresh multiplication
//! keeps worst-case droop above the retention voltage (Sec. 3.3, Fig. 1).
//! Real retention margins are *distributional* — per-cell retention times
//! spread over orders of magnitude and drift with temperature — so the
//! simulator needs a way to inject the scenarios where the margin
//! assumption breaks and prove the system degrades gracefully instead of
//! silently returning corrupt data.
//!
//! A [`FaultPlan`] is a pure function of its seed: every query derives a
//! fresh [`sim_rng::SmallRng`] from `(seed, stream, coordinates)`, so
//! results never depend on query order, thread count, or how many other
//! rows were examined first. That is what makes fault campaigns
//! bit-identical across `--jobs 1` and `--jobs 8`.
//!
//! Fault taxonomy (DESIGN.md §5f):
//!
//! * **Retention variation** — every row's retention time is drawn around
//!   the nominal [`circuit_model::CircuitParams::retention_ms`] with a
//!   relative spread ([`FaultPlan::with_retention_sigma`]).
//! * **Weak cells** — a seeded fraction of rows get their retention time
//!   scaled down hard ([`FaultPlan::with_weak_cells`]), modelling the tail
//!   of the retention distribution.
//! * **Dropped / late REFRESH** — individual refresh slots are dropped or
//!   delayed at the controller ([`FaultPlan::refresh_fault`]), stretching
//!   the real refresh interval past what Refresh-Skipping budgeted for.
//! * **Transient sense-margin glitches** — an activation occasionally
//!   fails its margin check even on a healthy row
//!   ([`FaultPlan::sense_glitch`]), modelling supply noise.
//!
//! ```
//! use mcr_faults::FaultPlan;
//!
//! let plan = FaultPlan::new(7).with_weak_cells(0.01, 0.25);
//! let a = plan.retention_ms(0, 3, 1_000, 64.0);
//! let b = plan.retention_ms(0, 3, 1_000, 64.0);
//! assert_eq!(a, b); // pure function of (seed, coordinates)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use sim_rng::SmallRng;

/// Distinct query streams, mixed into the seed so that e.g. the weak-cell
/// draw for a row is independent from its sigma draw.
const STREAM_WEAK: u64 = 0x57_45_41_4b; // "WEAK"
const STREAM_SIGMA: u64 = 0x53_49_47_4d; // "SIGM"
const STREAM_REFRESH: u64 = 0x52_45_46_52; // "REFR"
const STREAM_SENSE: u64 = 0x53_45_4e_53; // "SENS"

/// What a refresh slot suffers under a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshFault {
    /// The slot is issued on time.
    None,
    /// The REFRESH command is silently dropped (the device never sees
    /// it, so the affected rows' retention intervals stretch).
    Dropped,
    /// The REFRESH command is held back this many memory cycles before
    /// it may issue.
    Late(u64),
}

/// A deterministic, seeded fault plan.
///
/// All rates are probabilities in `[0, 1]`; the default plan
/// ([`FaultPlan::new`]) injects nothing and exists so a run can carry the
/// reliability bookkeeping without perturbing behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    weak_cell_rate: f64,
    weak_retention_factor: f64,
    retention_sigma: f64,
    refresh_drop_rate: f64,
    refresh_late_rate: f64,
    refresh_late_cycles: u64,
    sense_glitch_rate: f64,
    detector_enabled: bool,
}

impl FaultPlan {
    /// A quiet plan: no faults injected, margin detector armed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            weak_cell_rate: 0.0,
            weak_retention_factor: 0.25,
            retention_sigma: 0.0,
            refresh_drop_rate: 0.0,
            refresh_late_rate: 0.0,
            refresh_late_cycles: 10_000,
            sense_glitch_rate: 0.0,
            detector_enabled: true,
        }
    }

    /// A one-knob chaos plan: `rate` scales every fault class at once
    /// (weak cells at `rate`, refresh drops at `rate / 4`, late
    /// refreshes at `rate / 4`, sense glitches at `rate / 50`). Only
    /// tests use it; no command-line flag or service request arms a
    /// fault plan.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultPlan::new(seed)
            .with_weak_cells(rate, 0.25)
            .with_retention_sigma(rate.min(0.1))
            .with_refresh_drops(rate / 4.0)
            .with_late_refreshes(rate / 4.0, 10_000)
            .with_sense_glitches(rate / 50.0)
    }

    /// Marks a `rate` fraction of rows weak, scaling their retention
    /// time by `factor` (clamped to `[0.01, 1]`).
    pub fn with_weak_cells(mut self, rate: f64, factor: f64) -> Self {
        self.weak_cell_rate = rate.clamp(0.0, 1.0);
        self.weak_retention_factor = factor.clamp(0.01, 1.0);
        self
    }

    /// Relative spread of per-row retention variation: every non-weak row
    /// draws a factor uniform in `1 ± sigma` (clamped to stay positive).
    pub fn with_retention_sigma(mut self, sigma: f64) -> Self {
        self.retention_sigma = sigma.clamp(0.0, 0.95);
        self
    }

    /// Probability that any given refresh slot is dropped entirely.
    pub fn with_refresh_drops(mut self, rate: f64) -> Self {
        self.refresh_drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability that a (non-dropped) refresh slot is issued `cycles`
    /// memory cycles late.
    pub fn with_late_refreshes(mut self, rate: f64, cycles: u64) -> Self {
        self.refresh_late_rate = rate.clamp(0.0, 1.0);
        self.refresh_late_cycles = cycles;
        self
    }

    /// Probability that an activation suffers a transient sense-margin
    /// glitch even when the charge arithmetic is healthy.
    pub fn with_sense_glitches(mut self, rate: f64) -> Self {
        self.sense_glitch_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Arms or disarms the device's margin detector. With the detector
    /// off, margin violations *escape*: corrupt data is returned and only
    /// counted — the configuration exists so tests can prove the escape
    /// accounting works, not for normal runs.
    pub fn with_detector(mut self, enabled: bool) -> Self {
        self.detector_enabled = enabled;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the device margin detector is armed.
    pub fn detector_enabled(&self) -> bool {
        self.detector_enabled
    }

    /// True when the plan injects nothing (all rates zero).
    pub fn is_quiet(&self) -> bool {
        self.weak_cell_rate == 0.0
            && self.retention_sigma == 0.0
            && self.refresh_drop_rate == 0.0
            && self.refresh_late_rate == 0.0
            && self.sense_glitch_rate == 0.0
    }

    /// Stable field encoding for config hashing: every field that changes
    /// plan behaviour, as raw u64 words in a fixed order.
    pub fn stable_words(&self) -> [u64; 9] {
        [
            self.seed,
            self.weak_cell_rate.to_bits(),
            self.weak_retention_factor.to_bits(),
            self.retention_sigma.to_bits(),
            self.refresh_drop_rate.to_bits(),
            self.refresh_late_rate.to_bits(),
            self.refresh_late_cycles,
            self.sense_glitch_rate.to_bits(),
            u64::from(self.detector_enabled),
        ]
    }

    /// A fresh generator for one `(stream, coordinates)` query. SplitMix64
    /// inside `seed_from_u64` gives the final avalanche; the multipliers
    /// keep distinct coordinates from colliding before it.
    fn query_rng(&self, stream: u64, a: u64, b: u64, c: u64) -> SmallRng {
        let mut x = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = x
            .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(c.wrapping_mul(0x2545_F491_4F6C_DD1D));
        SmallRng::seed_from_u64(x)
    }

    /// The retention-time scale factor of one row: `weak_retention_factor`
    /// for weak rows, `1 ± retention_sigma` otherwise. Always positive.
    pub fn retention_factor(&self, rank: u8, bank: u8, row: u64) -> f64 {
        if self.weak_cell_rate > 0.0 {
            let mut weak = self.query_rng(STREAM_WEAK, u64::from(rank), u64::from(bank), row);
            if weak.gen_bool(self.weak_cell_rate) {
                return self.weak_retention_factor;
            }
        }
        if self.retention_sigma > 0.0 {
            let mut sig = self.query_rng(STREAM_SIGMA, u64::from(rank), u64::from(bank), row);
            let factor = 1.0 + self.retention_sigma * (2.0 * sig.gen_f64() - 1.0);
            return factor.max(0.05);
        }
        1.0
    }

    /// The faulted retention time (ms) of one row, given the nominal
    /// circuit-model retention time.
    pub fn retention_ms(&self, rank: u8, bank: u8, row: u64, nominal_ms: f64) -> f64 {
        nominal_ms * self.retention_factor(rank, bank, row)
    }

    /// The fate of refresh slot number `slot_index` (a per-rank monotone
    /// counter) on `rank`.
    pub fn refresh_fault(&self, rank: u8, slot_index: u64) -> RefreshFault {
        if self.refresh_drop_rate == 0.0 && self.refresh_late_rate == 0.0 {
            return RefreshFault::None;
        }
        let mut rng = self.query_rng(STREAM_REFRESH, u64::from(rank), slot_index, 0);
        let u = rng.gen_f64();
        if u < self.refresh_drop_rate {
            RefreshFault::Dropped
        } else if u < self.refresh_drop_rate + self.refresh_late_rate {
            RefreshFault::Late(self.refresh_late_cycles)
        } else {
            RefreshFault::None
        }
    }

    /// Whether activation number `act_index` of `(rank, bank, row)`
    /// suffers a transient sense-margin glitch.
    pub fn sense_glitch(&self, rank: u8, bank: u8, row: u64, act_index: u64) -> bool {
        if self.sense_glitch_rate == 0.0 {
            return false;
        }
        let coord = (u64::from(rank) << 32) ^ (u64::from(bank) << 24) ^ row;
        let mut rng = self.query_rng(STREAM_SENSE, coord, act_index, 1);
        rng.gen_bool(self.sense_glitch_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_pure_functions_of_seed_and_coordinates() {
        let plan = FaultPlan::chaos(42, 0.05);
        for row in [0u64, 17, 511, 1 << 20] {
            assert_eq!(
                plan.retention_factor(0, 3, row),
                plan.retention_factor(0, 3, row)
            );
        }
        // Query order must not matter.
        let a = plan.retention_factor(1, 0, 9);
        let _ = plan.refresh_fault(1, 77);
        let _ = plan.sense_glitch(1, 0, 9, 3);
        assert_eq!(a, plan.retention_factor(1, 0, 9));
        assert_eq!(plan.refresh_fault(1, 77), plan.refresh_fault(1, 77));
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::chaos(1, 0.5);
        let b = FaultPlan::chaos(2, 0.5);
        let differs = (0..256u64).any(|row| {
            a.retention_factor(0, 0, row) != b.retention_factor(0, 0, row)
                || a.refresh_fault(0, row) != b.refresh_fault(0, row)
        });
        assert!(differs, "seeds 1 and 2 produced identical plans");
    }

    #[test]
    fn weak_cell_rate_tracks_probability() {
        let plan = FaultPlan::new(9).with_weak_cells(0.1, 0.25);
        let weak = (0..20_000u64)
            .filter(|&row| plan.retention_factor(0, 0, row) == 0.25)
            .count();
        let f = weak as f64 / 20_000.0;
        assert!((f - 0.1).abs() < 0.01, "weak fraction {f}");
    }

    #[test]
    fn sigma_variation_stays_in_band_and_weak_rows_override_it() {
        let plan = FaultPlan::new(11).with_retention_sigma(0.05);
        for row in 0..5_000u64 {
            let f = plan.retention_factor(0, 0, row);
            assert!((0.95..=1.05).contains(&f), "row {row}: {f}");
        }
        let both = FaultPlan::new(11)
            .with_weak_cells(1.0, 0.25)
            .with_retention_sigma(0.05);
        assert_eq!(both.retention_factor(0, 0, 3), 0.25);
    }

    #[test]
    fn refresh_fault_rates_track_probability() {
        let plan = FaultPlan::new(5)
            .with_refresh_drops(0.2)
            .with_late_refreshes(0.1, 500);
        let mut dropped = 0;
        let mut late = 0;
        for slot in 0..50_000u64 {
            match plan.refresh_fault(0, slot) {
                RefreshFault::Dropped => dropped += 1,
                RefreshFault::Late(c) => {
                    assert_eq!(c, 500);
                    late += 1;
                }
                RefreshFault::None => {}
            }
        }
        let d = dropped as f64 / 50_000.0;
        let l = late as f64 / 50_000.0;
        assert!((d - 0.2).abs() < 0.01, "drop rate {d}");
        assert!((l - 0.1).abs() < 0.01, "late rate {l}");
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::new(123);
        assert!(plan.is_quiet());
        assert!(plan.detector_enabled());
        for row in 0..1_000u64 {
            assert_eq!(plan.retention_factor(0, 0, row), 1.0);
            assert_eq!(plan.retention_ms(0, 0, row, 64.0), 64.0);
            assert_eq!(plan.refresh_fault(0, row), RefreshFault::None);
            assert!(!plan.sense_glitch(0, 0, row, row));
        }
    }

    #[test]
    fn chaos_scales_all_classes_and_stable_words_cover_every_knob() {
        let a = FaultPlan::chaos(3, 0.1);
        assert!(!a.is_quiet());
        let b = a.with_detector(false);
        assert_ne!(a.stable_words(), b.stable_words());
        let c = FaultPlan::chaos(4, 0.1);
        assert_ne!(a.stable_words(), c.stable_words());
        assert_eq!(a.stable_words(), FaultPlan::chaos(3, 0.1).stable_words());
    }

    #[test]
    fn retention_ms_scales_nominal_time() {
        let plan = FaultPlan::new(6).with_weak_cells(1.0, 0.5);
        assert_eq!(plan.retention_ms(0, 1, 42, 64.0), 32.0);
        assert_eq!(plan.retention_ms(0, 1, 42, 32.0), 16.0);
    }
}

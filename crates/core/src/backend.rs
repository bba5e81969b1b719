//! Pluggable DRAM-architecture backends.
//!
//! The memory controller is architecture-agnostic: everything a DRAM
//! proposal changes — per-ACT timing overrides, refresh scheduling,
//! restore classes — goes through the [`DevicePolicy`] seam. This
//! module turns that seam into a small registry of *backends* so the
//! same trace, seed, and controller can replay head-to-head across
//! competing low-latency DRAM architectures:
//!
//! * [`BackendKind::Mcr`] — Multiple Clone Row DRAM (Choi et al.,
//!   ISCA 2015), the repo's reproduction target. Implemented by
//!   [`crate::McrPolicy`].
//! * [`BackendKind::Baseline`] — plain DDR3-1600; every row is a
//!   normal row and every refresh slot issues a normal REFRESH.
//! * [`BackendKind::TlDram`] — Tiered-Latency DRAM (Lee et al.,
//!   HPCA 2013): each subarray's bitlines are split by an isolation
//!   transistor into a fast near segment and a slightly slower far
//!   segment, giving a static per-row timing map.
//! * [`BackendKind::ClrDram`] — Capacity-Latency-Reconfigurable DRAM
//!   (Luo et al., ISCA 2020): hot rows are dynamically *coupled*
//!   (two physical rows store one logical row) for faster activation,
//!   and decoupled again when the coupled set overflows.
//!
//! Every backend is one [`DevicePolicy`], built by
//! [`crate::SystemConfig::make_policy`]. Backends other than MCR keep
//! the trait's refresh, restore and skip defaults; their timing classes
//! are validated by the same mcr-lint invariant checks that guard the
//! MCR mode table (`registered_backends` is the registry those checks
//! iterate).

use crate::layout::SUBARRAY_ROWS;
use dram_device::{DramAddress, RowTiming, RowTimingClass};
pub use mem_controller::BaselinePolicy;
use mem_controller::DevicePolicy;
use std::collections::{HashMap, VecDeque};

/// TL-DRAM near-segment ACTIVATE → READ latency (cycles): short
/// bitlines charge fast (Lee et al., Table 3-equivalent).
const TLDRAM_NEAR_TRCD: u32 = 6;
/// TL-DRAM near-segment ACTIVATE → PRECHARGE latency (cycles).
const TLDRAM_NEAR_TRAS: u32 = 16;
/// TL-DRAM far-segment `tRCD` (cycles): one cycle *worse* than the
/// DDR3 baseline — the isolation transistor sits in the charge path.
const TLDRAM_FAR_TRCD: u32 = 12;
/// TL-DRAM far-segment `tRAS` (cycles), likewise slightly degraded.
const TLDRAM_FAR_TRAS: u32 = 29;
/// CLR-DRAM coupled-row `tRCD` (cycles): two cells drive one bitline.
const CLRDRAM_COUPLED_TRCD: u32 = 7;
/// CLR-DRAM coupled-row `tRAS` (cycles).
const CLRDRAM_COUPLED_TRAS: u32 = 17;

/// TL-DRAM near-segment size in rows per 512-row subarray.
pub const DEFAULT_NEAR_ROWS: u64 = 32;
/// CLR-DRAM coupling threshold (ACTs to the same row).
pub const DEFAULT_COUPLE_THRESHOLD: u32 = 4;
/// CLR-DRAM coupled-set capacity (rows per device).
pub const DEFAULT_COUPLE_CAP: usize = 64;

/// Which DRAM-architecture backend a [`crate::SystemConfig`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Multiple Clone Row DRAM (the paper under reproduction).
    #[default]
    Mcr,
    /// Plain DDR3-1600, no latency mechanism at all.
    Baseline,
    /// Tiered-Latency DRAM: static near/far segment map.
    TlDram,
    /// CLR-DRAM: dynamic per-row capacity-latency coupling.
    ClrDram,
}

impl BackendKind {
    /// All registered kinds, in canonical (report-table) order.
    pub fn all() -> [BackendKind; 4] {
        [
            BackendKind::Baseline,
            BackendKind::Mcr,
            BackendKind::TlDram,
            BackendKind::ClrDram,
        ]
    }

    /// The CLI/protocol name (`--backends mcr,tldram,clrdram,baseline`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Mcr => "mcr",
            BackendKind::Baseline => "baseline",
            BackendKind::TlDram => "tldram",
            BackendKind::ClrDram => "clrdram",
        }
    }

    /// Parses a CLI/protocol backend name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "mcr" => Some(BackendKind::Mcr),
            "baseline" | "ddr3" => Some(BackendKind::Baseline),
            "tldram" | "tl-dram" => Some(BackendKind::TlDram),
            "clrdram" | "clr-dram" => Some(BackendKind::ClrDram),
            _ => None,
        }
    }

    /// Stable discriminant folded into `config_key` (never reorder).
    pub fn key_discriminant(self) -> u64 {
        match self {
            BackendKind::Mcr => 0,
            BackendKind::Baseline => 1,
            BackendKind::TlDram => 2,
            BackendKind::ClrDram => 3,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A backend choice. Each kind runs at its `DEFAULT_*` constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendSpec {
    /// Which architecture to simulate.
    pub kind: BackendKind,
}

impl BackendSpec {
    /// The spec for `kind`.
    pub fn new(kind: BackendKind) -> Self {
        BackendSpec { kind }
    }
}

/// Tiered-Latency DRAM (Lee et al.): the first `near_rows` rows of
/// every 512-row subarray sit on the short near-segment bitlines and
/// activate fast (class 1); the rest pay the isolation-transistor
/// penalty (class 2). The map is static, so the policy is stateless.
#[derive(Debug, Clone, Copy)]
pub struct TlDramPolicy {
    near_rows: u64,
}

impl TlDramPolicy {
    /// A near segment of `near_rows` rows per subarray.
    pub fn new(near_rows: u64) -> Self {
        TlDramPolicy { near_rows }
    }

    /// True when `row` lies in its subarray's near segment.
    pub fn is_near(&self, row: u64) -> bool {
        row % SUBARRAY_ROWS < self.near_rows
    }
}

impl DevicePolicy for TlDramPolicy {
    fn activate_class(&self, addr: &DramAddress) -> (RowTimingClass, u32) {
        if self.is_near(addr.row) {
            (RowTimingClass(1), 0)
        } else {
            (RowTimingClass(2), 0)
        }
    }

    fn timing_classes(&self) -> Vec<RowTiming> {
        vec![
            RowTiming {
                t_rcd: TLDRAM_NEAR_TRCD,
                t_ras: TLDRAM_NEAR_TRAS,
            },
            RowTiming {
                t_rcd: TLDRAM_FAR_TRCD,
                t_ras: TLDRAM_FAR_TRAS,
            },
        ]
    }
}

/// Per-row key for CLR-DRAM's coupling table.
type RowKey = (u8, u8, u8, u64);

fn row_key(addr: &DramAddress) -> RowKey {
    (addr.channel, addr.rank, addr.bank, addr.row)
}

/// CLR-DRAM (Luo et al.): rows start in max-capacity mode (class 0);
/// after `threshold` ACTIVATEs a row is *coupled* — its cell pairs are
/// merged for a stronger, faster activation (class 1) at half the
/// capacity — and the oldest coupled row is decoupled once more than
/// `cap` rows are coupled at once.
///
/// Determinism: the table mutates only in [`DevicePolicy::on_activate`],
/// which the controller calls exactly once per *issued* ACT, in
/// command order. Speculative legality probes go through the `&self`
/// `activate_class` and never perturb the state, so the coupled set is
/// a pure function of the command stream and results stay bit-identical
/// across sweep worker counts.
#[derive(Debug, Clone)]
pub struct ClrDramPolicy {
    threshold: u32,
    cap: usize,
    /// ACT counts of not-yet-coupled rows.
    counts: HashMap<RowKey, u32>,
    /// Currently coupled rows (value unused; the map is the set).
    coupled: HashMap<RowKey, ()>,
    /// Coupling order, oldest first, for FIFO decoupling.
    fifo: VecDeque<RowKey>,
}

impl ClrDramPolicy {
    /// Couple after `threshold` ACTs, keep at most `cap` rows coupled.
    pub fn new(threshold: u32, cap: usize) -> Self {
        ClrDramPolicy {
            threshold,
            cap,
            counts: HashMap::new(),
            coupled: HashMap::new(),
            fifo: VecDeque::new(),
        }
    }

    /// Number of currently coupled rows.
    pub fn coupled_rows(&self) -> usize {
        self.coupled.len()
    }
}

impl DevicePolicy for ClrDramPolicy {
    fn activate_class(&self, addr: &DramAddress) -> (RowTimingClass, u32) {
        if self.coupled.contains_key(&row_key(addr)) {
            (RowTimingClass(1), 0)
        } else {
            (RowTimingClass(0), 0)
        }
    }

    fn timing_classes(&self) -> Vec<RowTiming> {
        vec![RowTiming {
            t_rcd: CLRDRAM_COUPLED_TRCD,
            t_ras: CLRDRAM_COUPLED_TRAS,
        }]
    }

    fn on_activate(&mut self, addr: &DramAddress) {
        let key = row_key(addr);
        if self.coupled.contains_key(&key) {
            return;
        }
        let count = self.counts.entry(key).or_insert(0);
        *count += 1;
        if *count < self.threshold {
            return;
        }
        self.counts.remove(&key);
        self.coupled.insert(key, ());
        self.fifo.push_back(key);
        while self.coupled.len() > self.cap {
            // Decouple the oldest row; it must re-earn coupling.
            if let Some(old) = self.fifo.pop_front() {
                self.coupled.remove(&old);
            }
        }
    }
}

/// The backend registry: one spec per kind, in canonical
/// order. mcr-lint's invariant checks iterate this list so every
/// registered backend's timing classes stay legal, not just MCR's.
pub fn registered_backends() -> Vec<BackendSpec> {
    BackendKind::all()
        .iter()
        .map(|&k| BackendSpec::new(k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceClass, McrMode, McrPolicy, McrTimingTable, RegionMap, SystemConfig};

    fn addr(row: u64) -> DramAddress {
        DramAddress {
            row,
            ..DramAddress::default()
        }
    }

    #[test]
    fn kinds_roundtrip_through_names() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("tl-dram"), Some(BackendKind::TlDram));
        assert_eq!(BackendKind::parse("nope"), None);
    }

    #[test]
    fn discriminants_are_distinct_and_stable() {
        let d: Vec<u64> = BackendKind::all()
            .iter()
            .map(|k| k.key_discriminant())
            .collect();
        assert_eq!(d, vec![1, 0, 2, 3]);
    }

    #[test]
    fn tldram_splits_each_subarray() {
        let p = TlDramPolicy::new(32);
        assert_eq!(p.activate_class(&addr(0)).0, RowTimingClass(1));
        assert_eq!(p.activate_class(&addr(31)).0, RowTimingClass(1));
        assert_eq!(p.activate_class(&addr(32)).0, RowTimingClass(2));
        // The split repeats per 512-row subarray.
        assert_eq!(p.activate_class(&addr(512)).0, RowTimingClass(1));
        assert_eq!(p.activate_class(&addr(512 + 40)).0, RowTimingClass(2));
        let classes = p.timing_classes();
        assert_eq!(classes[0].t_rcd, TLDRAM_NEAR_TRCD);
        assert_eq!(classes[1].t_ras, TLDRAM_FAR_TRAS);
    }

    #[test]
    fn clrdram_couples_after_threshold_and_evicts_fifo() {
        let mut p = ClrDramPolicy::new(2, 1);
        let a = addr(10);
        let b = addr(20);
        assert_eq!(p.activate_class(&a).0, RowTimingClass(0));
        p.on_activate(&a);
        assert_eq!(p.activate_class(&a).0, RowTimingClass(0), "one ACT short");
        p.on_activate(&a);
        assert_eq!(p.activate_class(&a).0, RowTimingClass(1), "coupled now");
        // Coupling b evicts a (cap 1, FIFO).
        p.on_activate(&b);
        p.on_activate(&b);
        assert_eq!(p.activate_class(&b).0, RowTimingClass(1));
        assert_eq!(p.activate_class(&a).0, RowTimingClass(0), "a decoupled");
        assert_eq!(p.coupled_rows(), 1);
        // A decoupled row re-earns coupling from scratch.
        p.on_activate(&a);
        assert_eq!(p.activate_class(&a).0, RowTimingClass(0));
        p.on_activate(&a);
        assert_eq!(p.activate_class(&a).0, RowTimingClass(1));
    }

    #[test]
    fn registry_covers_every_kind_with_valid_specs() {
        let specs = registered_backends();
        assert_eq!(specs.len(), BackendKind::all().len());
        for spec in &specs {
            let cfg = SystemConfig::single_core("libq", 1).with_backend(*spec);
            let policy = cfg.make_policy();
            for t in policy.timing_classes() {
                assert!(t.t_rcd >= 1 && t.t_ras >= t.t_rcd);
            }
            if spec.kind != BackendKind::Mcr {
                assert!(policy.restore_classes().is_empty(), "{}", spec.kind);
                assert_eq!(policy.max_refresh_skip(), 1, "{}", spec.kind);
            }
        }
        // MCR: both build-time facts follow the modes of the region map,
        // for every Table-3 mode and for a combined 2x + 4x map.
        let mut configs: Vec<SystemConfig> = McrTimingTable::paper(DeviceClass::OneGb)
            .entries()
            .iter()
            .map(|e| {
                let mode = McrMode::new(e.m, e.k, 0.5).expect("Table 3 modes are valid");
                SystemConfig::single_core("libq", 1).with_mode(mode)
            })
            .collect();
        configs.push(SystemConfig::single_core("libq", 1).with_combined_regions(2, 0.25, 1, 0.25));
        for cfg in configs {
            let regions = cfg
                .region_map
                .clone()
                .unwrap_or_else(|| RegionMap::single(cfg.mode));
            let largest = regions
                .regions()
                .iter()
                .map(|r| r.mode().k() / r.mode().m())
                .max()
                .unwrap_or(1);
            let policy = cfg.make_policy();
            assert_eq!(policy.max_refresh_skip(), largest, "{}", cfg.mode);
            let any: &dyn std::any::Any = policy.as_ref();
            let mcr = any
                .downcast_ref::<McrPolicy>()
                .expect("the MCR backend builds an McrPolicy");
            assert_eq!(policy.restore_classes(), mcr.class_modes());
        }
    }
}

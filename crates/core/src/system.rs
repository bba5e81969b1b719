//! Full-system simulation: cores + controller + MCR-DRAM + power.

use crate::alloc::RowRemapper;
use crate::backend::{
    BackendKind, BackendSpec, BaselinePolicy, ClrDramPolicy, TlDramPolicy, DEFAULT_COUPLE_CAP,
    DEFAULT_COUPLE_THRESHOLD, DEFAULT_NEAR_ROWS,
};
use crate::cache::{CacheOutcome, RowCache, RowCacheConfig, RowCacheStats};
use crate::layout::RegionMap;
use crate::mechanisms::Mechanisms;
use crate::mode::McrMode;
use crate::policy::McrPolicy;
use crate::telemetry::Telemetry;
use circuit_model::{CircuitParams, LeakageModel, TimingSolver};
use cpu_model::{Core, CoreParams, RequestSink, TraceRecord, CPU_PER_MEM_CYCLE};
use dram_device::{
    Command, Cycle, Geometry, PhysAddr, RefreshWiring, RetentionConfig, TimingSet, T_CK_NS,
};
use dram_power::{edp, EnergyBreakdown, PowerParams};
use mcr_faults::FaultPlan;
use mem_controller::{
    AddressMapper, BitReversal, Completion, ControllerConfig, ControllerStats, DegradeLevel,
    DevicePolicy, EdgeSource, GuardbandConfig, GuardbandTransition, MemoryController,
    PageInterleave, PermutationInterleave, RowPolicy, SchedulerKind,
};
use trace_gen::{hot_rows, workload, TraceGenerator, WorkloadProfile, ROW_BYTES};

/// Sample length used when profiling a workload for hot rows.
const PROFILE_SAMPLE: usize = 60_000;

/// Master RNG seed of the preset configs ([`SystemConfig::single_core`],
/// [`SystemConfig::multi_core`]), and the CLI and service default.
pub const DEFAULT_SEED: u64 = 2015;

/// Why a [`SystemConfig`] cannot be built into a [`System`].
///
/// Returned by [`System::try_build`]; the panicking convenience
/// [`System::build`] formats these into its panic message.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The workload list is empty — a system needs at least one core.
    EmptyWorkloads,
    /// The profile-based allocation ratio must lie in `[0, 1]`.
    AllocRatioRange(
        /// The offending ratio.
        f64,
    ),
    /// Profile-based page allocation (Sec. 4.4) and the hardware row
    /// cache (Sec. 7) both claim the MCR frames — they are mutually
    /// exclusive.
    AllocWithRowCache,
    /// Both a non-off [`McrMode`] and an explicit [`RegionMap`] were set.
    /// The region map *replaces* the single mode; setting both makes the
    /// intent ambiguous, so it is rejected instead of silently ignoring
    /// the mode.
    ModeWithRegionMap {
        /// The single mode that would have been shadowed.
        mode: McrMode,
    },
    /// `trace_len` is zero — the run would finish before it starts.
    EmptyTrace,
    /// The DRAM device rejected the configuration (e.g. the policy's
    /// row-timing class table overflowed the per-channel limit).
    Device(
        /// The underlying device error.
        dram_device::DeviceError,
    ),
    /// An `[M/Kx/L%reg]` mode violated Table 1 (bad K, M > K, or a region
    /// fraction outside `[0, 1]`).
    Mode(
        /// The underlying mode error.
        crate::mode::ModeError,
    ),
    /// An MCR-only option (mode, region map, allocation, row cache) or
    /// operation (runtime mode change) met a non-MCR backend.
    Backend(
        /// Human-readable reason naming the offending option.
        String,
    ),
    /// No built-in workload has this name.
    UnknownWorkload(
        /// The name that did not resolve.
        String,
    ),
    /// A sweep's backend axis lists the same backend twice.
    DuplicateBackend(
        /// The repeated backend.
        BackendKind,
    ),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyWorkloads => write!(f, "workload list is empty"),
            ConfigError::AllocRatioRange(r) => {
                write!(f, "alloc_ratio must be in [0, 1], got {r}")
            }
            ConfigError::AllocWithRowCache => write!(
                f,
                "row cache and static page allocation are mutually exclusive"
            ),
            ConfigError::ModeWithRegionMap { mode } => write!(
                f,
                "both mode {mode} and an explicit region map are set; \
                 the map would silently shadow the mode"
            ),
            ConfigError::EmptyTrace => write!(f, "trace_len must be at least 1"),
            ConfigError::Device(e) => write!(f, "device rejected the configuration: {e}"),
            ConfigError::Mode(e) => write!(f, "invalid MCR mode: {e}"),
            ConfigError::Backend(msg) => write!(f, "invalid backend configuration: {msg}"),
            ConfigError::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            ConfigError::DuplicateBackend(kind) => write!(f, "duplicate backend {kind}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<dram_device::DeviceError> for ConfigError {
    fn from(e: dram_device::DeviceError) -> Self {
        ConfigError::Device(e)
    }
}

impl From<crate::mode::ModeError> for ConfigError {
    fn from(e: crate::mode::ModeError) -> Self {
        ConfigError::Mode(e)
    }
}

/// Configuration of one full-system run.
///
/// # Builder surface
///
/// Start from a preset ([`SystemConfig::single_core`],
/// [`SystemConfig::multi_core`], [`SystemConfig::multi_core_mix`]) and
/// refine it with the order-independent `with_*` knobs — each knob sets
/// one field and they may be chained in any order. Validation happens
/// once, in [`System::try_build`], so intermediate states may be
/// inconsistent. Two configs with equal fields compare equal and hash to
/// the same [`SystemConfig::config_key`], which the [`crate::sweep`]
/// engine uses as its result-cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Memory-system shape (selects 4 GB or 16 GB per the paper).
    pub geometry: Geometry,
    /// MCR mode `[M/Kx/L%reg]`.
    pub mode: McrMode,
    /// Overrides `mode` with an explicit multi-tier region map (the
    /// paper's combined 2x + 4x configuration) when set.
    pub region_map: Option<RegionMap>,
    /// Which MCR mechanisms are active.
    pub mechanisms: Mechanisms,
    /// One workload profile per core.
    pub workloads: Vec<WorkloadProfile>,
    /// Memory operations per core trace.
    pub trace_len: usize,
    /// Pseudo profile-based page allocation: fraction of each workload's
    /// footprint (hottest first) remapped into MCR frames. `0.0` disables
    /// allocation (the MCR-ratio experiments of Fig. 11/14).
    pub alloc_ratio: f64,
    /// Request scheduling policy.
    pub scheduler: SchedulerKind,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// Address mapping policy.
    pub mapping: MappingKind,
    /// Refresh-counter wiring (paper proposes `Reversed`).
    pub wiring: RefreshWiring,
    /// Rank power-down after this many idle cycles (`None` = never; the
    /// paper's Sec. 6.4 notes Early-Precharge/Refresh-Skipping lengthen
    /// the idle windows this exploits).
    pub powerdown_idle_threshold: Option<u32>,
    /// Multi-threaded workloads: all cores walk ONE address space instead
    /// of private per-core slices (set by [`SystemConfig::multi_core_mix`]
    /// for the `MT-*` workloads).
    pub shared_address_space: bool,
    /// Manage the MCR region as a hardware row cache of the normal rows
    /// (paper Sec. 7) instead of relying on static page allocation.
    /// Mutually exclusive with `alloc_ratio > 0`.
    pub row_cache: Option<RowCacheConfig>,
    /// Retention-fault injection plan (DESIGN.md §5f). `None` disables
    /// fault injection entirely; `Some` arms per-row retention tracking,
    /// sense-margin checks on fast-class ACTIVATEs, refresh drop/late
    /// faults and the guardband degradation ladder. A plan with all rates
    /// zero is behaviourally identical to `None` (every margin holds).
    pub fault_plan: Option<FaultPlan>,
    /// Guardband-monitor pacing override. `None` uses
    /// [`GuardbandConfig::default`], tuned to the DDR3-1600 refresh
    /// cadence. Only consulted when a fault plan is armed.
    pub guardband: Option<GuardbandConfig>,
    /// Master RNG seed.
    pub seed: u64,
    /// DRAM-architecture backend (default: MCR). Non-MCR backends run
    /// the same trace and controller under a competing architecture's
    /// timing/refresh model; MCR-only options (mode, region map,
    /// allocation, row cache) must stay unset for them
    /// ([`ConfigError::Backend`]).
    pub backend: BackendSpec,
}

/// Address-mapping policy selector for [`SystemConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingKind {
    /// Page interleaving (the paper's baseline).
    #[default]
    PageInterleave,
    /// Permutation-based interleaving (Zhang et al., MICRO '00).
    Permutation,
    /// Bit-reversal row mapping (Shao & Davis, SCOPES '05).
    BitReversal,
}

impl SystemConfig {
    /// The paper's single-core setup (4 GB) for a named MSC workload.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an MSC workload; see
    /// [`SystemConfig::try_single_core`].
    pub fn single_core(name: &str, trace_len: usize) -> Self {
        Self::try_single_core(name, trace_len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SystemConfig::single_core`] for a name from outside the process.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownWorkload`] if `name` is not an MSC workload.
    pub fn try_single_core(name: &str, trace_len: usize) -> Result<Self, ConfigError> {
        let w = workload(name).ok_or_else(|| ConfigError::UnknownWorkload(name.to_string()))?;
        Ok(Self::preset(
            Geometry::single_core_4gb(),
            vec![*w],
            trace_len,
        ))
    }

    /// The paper's quad-core setup for a [`trace_gen::Mix`], honoring its
    /// shared-address-space flag (multi-threaded `MT-*` workloads share
    /// one footprint; multi-programmed mixes get private slices).
    pub fn multi_core_mix(mix: &trace_gen::Mix, trace_len: usize) -> Self {
        SystemConfig {
            shared_address_space: mix.shared_address_space,
            ..Self::multi_core(mix.cores, trace_len)
        }
    }

    /// The paper's quad-core setup (16 GB) for four workload profiles.
    pub fn multi_core(workloads: [&WorkloadProfile; 4], trace_len: usize) -> Self {
        let workloads = workloads.iter().map(|w| **w).collect();
        Self::preset(Geometry::multi_core_16gb(), workloads, trace_len)
    }

    /// The paper's baseline system (Table 4) on `geometry`: MCR off,
    /// every mechanism on, FR-FCFS, open page, page interleaving,
    /// reversed refresh wiring, [`DEFAULT_SEED`].
    fn preset(geometry: Geometry, workloads: Vec<WorkloadProfile>, trace_len: usize) -> Self {
        SystemConfig {
            geometry,
            mode: McrMode::off(),
            region_map: None,
            mechanisms: Mechanisms::all(),
            workloads,
            trace_len,
            alloc_ratio: 0.0,
            scheduler: SchedulerKind::FrFcfs,
            row_policy: RowPolicy::Open,
            mapping: MappingKind::PageInterleave,
            wiring: RefreshWiring::Reversed,
            powerdown_idle_threshold: None,
            shared_address_space: false,
            row_cache: None,
            fault_plan: None,
            guardband: None,
            seed: DEFAULT_SEED,
            backend: BackendSpec::default(),
        }
    }

    /// Sets the MCR mode `[M/Kx/L%reg]` (paper Table 1, Sec. 4.1).
    ///
    /// Mutually exclusive with [`SystemConfig::with_combined_regions`];
    /// setting both is a [`ConfigError::ModeWithRegionMap`] at build time.
    pub fn with_mode(mut self, mode: McrMode) -> Self {
        self.mode = mode;
        self
    }

    /// Uses the combined 2x + 4x configuration of Sec. 4.4: mode `m4/4x`
    /// over the top `frac4` of each sub-array and `m2/2x` over the next
    /// `frac2`, with hot pages allocated 4x-first.
    pub fn with_combined_regions(mut self, m4: u32, frac4: f64, m2: u32, frac2: f64) -> Self {
        self.region_map = Some(RegionMap::combined(m4, frac4, m2, frac2));
        self
    }

    /// Sets the mechanism switches — the ablation axes of Fig. 17
    /// (Early-Access, Early-Precharge, Fast-Refresh, Refresh-Skipping;
    /// paper Secs. 3.1–3.3).
    pub fn with_mechanisms(mut self, mechanisms: Mechanisms) -> Self {
        self.mechanisms = mechanisms;
        self
    }

    /// Sets the pseudo profile-based allocation ratio (paper Sec. 4.4 /
    /// Sec. 6.1): the hottest `ratio` of each workload's footprint is
    /// remapped into MCR frames. Must lie in `[0, 1]`
    /// ([`ConfigError::AllocRatioRange`]); `> 0` is incompatible with the
    /// row cache ([`ConfigError::AllocWithRowCache`]).
    pub fn with_alloc_ratio(mut self, ratio: f64) -> Self {
        self.alloc_ratio = ratio;
        self
    }

    /// Sets the request scheduler (paper Table 4: FR-FCFS baseline).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the refresh-counter wiring (paper Fig. 8: the proposal wires
    /// the counter K-to-N-1-K, i.e. [`RefreshWiring::Reversed`]).
    pub fn with_wiring(mut self, wiring: RefreshWiring) -> Self {
        self.wiring = wiring;
        self
    }

    /// Sets the row-buffer management policy (paper Table 4: open-row
    /// baseline; closed-row is an ablation).
    pub fn with_row_policy(mut self, row_policy: RowPolicy) -> Self {
        self.row_policy = row_policy;
        self
    }

    /// Sets the physical-address mapping policy (paper Table 4: page
    /// interleaving baseline).
    pub fn with_mapping(mut self, mapping: MappingKind) -> Self {
        self.mapping = mapping;
        self
    }

    /// Enables rank power-down after `threshold` idle cycles (paper
    /// Sec. 6.4: Early-Precharge and Refresh-Skipping lengthen the idle
    /// windows power-down exploits).
    pub fn with_powerdown(mut self, threshold: u32) -> Self {
        self.powerdown_idle_threshold = Some(threshold);
        self
    }

    /// Manages the MCR region as a hardware row cache (paper Sec. 7,
    /// "Low Latency Rows Used as Caches"). Incompatible with a non-zero
    /// allocation ratio ([`ConfigError::AllocWithRowCache`]).
    pub fn with_row_cache(mut self, cache: RowCacheConfig) -> Self {
        self.row_cache = Some(cache);
        self
    }

    /// Arms retention-fault injection with `plan` (DESIGN.md §5f): per-row
    /// retention tracking, sense-margin checks on fast-class ACTIVATEs,
    /// refresh drop/late faults and the guardband degradation ladder. The
    /// plan's own seed drives every fault decision, independently of
    /// [`SystemConfig::with_seed`], so fault campaigns replay exactly.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the guardband monitor's pacing (window, threshold,
    /// hysteresis, backoff). Inert unless a fault plan is armed via
    /// [`SystemConfig::with_fault_plan`].
    pub fn with_guardband(mut self, guardband: GuardbandConfig) -> Self {
        self.guardband = Some(guardband);
        self
    }

    /// Sets the master RNG seed. Every run is a pure function of its
    /// config (seed included), which is what makes sweep results
    /// cacheable and thread-count independent.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the DRAM-architecture backend (see [`crate::backend`]).
    /// Non-MCR backends must leave the MCR-only knobs — mode, region
    /// map, allocation ratio, row cache — at their defaults
    /// ([`ConfigError::Backend`] at build time otherwise).
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Checks the cross-field invariants [`System::try_build`] enforces
    /// without paying for a build.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] violated, checking in order:
    /// workloads, trace length, allocation ratio, allocation/row-cache
    /// exclusivity, mode/region-map exclusivity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workloads.is_empty() {
            return Err(ConfigError::EmptyWorkloads);
        }
        if self.trace_len == 0 {
            return Err(ConfigError::EmptyTrace);
        }
        if !(0.0..=1.0).contains(&self.alloc_ratio) {
            return Err(ConfigError::AllocRatioRange(self.alloc_ratio));
        }
        if self.alloc_ratio > 0.0 && self.row_cache.is_some() {
            return Err(ConfigError::AllocWithRowCache);
        }
        if self.region_map.is_some() && !self.mode.is_off() {
            return Err(ConfigError::ModeWithRegionMap { mode: self.mode });
        }
        if self.backend.kind != BackendKind::Mcr {
            let kind = self.backend.kind;
            if !self.mode.is_off() {
                return Err(ConfigError::Backend(format!(
                    "backend {kind} cannot use MCR mode {}",
                    self.mode
                )));
            }
            if self.region_map.is_some() {
                return Err(ConfigError::Backend(format!(
                    "backend {kind} cannot use an MCR region map"
                )));
            }
            if self.alloc_ratio > 0.0 {
                return Err(ConfigError::Backend(format!(
                    "backend {kind} has no MCR frames for profile-based allocation"
                )));
            }
            if self.row_cache.is_some() {
                return Err(ConfigError::Backend(format!(
                    "backend {kind} has no MCR region to manage as a row cache"
                )));
            }
        }
        Ok(())
    }

    /// A stable 64-bit key identifying this configuration's *behaviour*:
    /// equal configs produce equal keys across runs and processes (the
    /// hash is FNV-1a over a canonical field encoding, not the
    /// randomized `std` hasher). The [`crate::sweep`] result cache is
    /// content-addressed by this key.
    pub fn config_key(&self) -> u64 {
        let mut h = StableHasher::new();
        let g = &self.geometry;
        h.u64(g.channels as u64)
            .u64(g.ranks as u64)
            .u64(g.banks as u64)
            .u64(g.rows_per_bank)
            .u64(g.cols_per_row as u64)
            .u64(g.line_bytes as u64);
        h.u64(self.mode.m() as u64)
            .u64(self.mode.k() as u64)
            .f64(self.mode.region());
        match &self.region_map {
            None => {
                h.u64(0);
            }
            Some(map) => {
                h.u64(1).u64(map.regions().len() as u64);
                for r in map.regions() {
                    h.u64(r.start())
                        .u64(r.end())
                        .u64(r.mode().m() as u64)
                        .u64(r.mode().k() as u64)
                        .f64(r.mode().region());
                }
            }
        }
        h.bool(self.mechanisms.early_access)
            .bool(self.mechanisms.early_precharge)
            .bool(self.mechanisms.fast_refresh)
            .bool(self.mechanisms.refresh_skipping);
        h.u64(self.workloads.len() as u64);
        for w in &self.workloads {
            h.str(w.name)
                .f64(w.mpki)
                .f64(w.read_fraction)
                .f64(w.row_locality)
                .u64(w.footprint_rows)
                .f64(w.zipf_theta)
                .bool(w.multi_threaded);
        }
        h.u64(self.trace_len as u64).f64(self.alloc_ratio);
        h.u64(match self.scheduler {
            SchedulerKind::FrFcfs => 0,
            SchedulerKind::Fcfs => 1,
        });
        h.u64(match self.row_policy {
            RowPolicy::Open => 0,
            RowPolicy::Closed => 1,
        });
        h.u64(match self.mapping {
            MappingKind::PageInterleave => 0,
            MappingKind::Permutation => 1,
            MappingKind::BitReversal => 2,
        });
        h.u64(match self.wiring {
            RefreshWiring::Direct => 0,
            RefreshWiring::Reversed => 1,
        });
        match self.powerdown_idle_threshold {
            None => h.u64(0),
            Some(t) => h.u64(1).u64(t as u64),
        };
        h.bool(self.shared_address_space);
        match self.row_cache {
            None => h.u64(0),
            Some(c) => h.u64(1).u64(c.promote_threshold as u64),
        };
        match &self.fault_plan {
            None => {
                h.u64(0);
            }
            Some(plan) => {
                h.u64(1);
                for w in plan.stable_words() {
                    h.u64(w);
                }
            }
        }
        match self.guardband {
            None => {
                h.u64(0);
            }
            Some(g) => {
                h.u64(1)
                    .u64(g.window)
                    .u64(g.threshold as u64)
                    .u64(g.hysteresis)
                    .u64(g.backoff_base)
                    .u64(g.backoff_cap as u64);
            }
        }
        h.u64(self.seed);
        // Backend fold — appended *after* every pre-existing field and
        // only for non-MCR kinds, so every key minted before the backend
        // registry existed (all of them MCR) is unchanged and persistent
        // result stores stay warm across the upgrade. The TL-DRAM and
        // CLR-DRAM constants stay in the fold so keys minted while they
        // were per-spec knobs remain valid.
        if self.backend.kind != BackendKind::Mcr {
            h.u64(self.backend.kind.key_discriminant())
                .u64(DEFAULT_NEAR_ROWS)
                .u64(u64::from(DEFAULT_COUPLE_THRESHOLD))
                .u64(DEFAULT_COUPLE_CAP as u64);
        }
        h.finish()
    }

    /// Per-core base byte offset: each core of a multi-programmed mix gets
    /// a private slice of the physical address space; threads of a
    /// multi-threaded workload share one.
    fn core_base(&self, core: usize) -> u64 {
        if self.shared_address_space {
            0
        } else {
            self.geometry.capacity_bytes() / self.workloads.len().max(1) as u64 * core as u64
        }
    }

    fn make_mapper(&self) -> Box<dyn AddressMapper> {
        match self.mapping {
            MappingKind::PageInterleave => Box::new(PageInterleave::new(self.geometry)),
            MappingKind::Permutation => Box::new(PermutationInterleave::new(self.geometry)),
            MappingKind::BitReversal => Box::new(BitReversal::new(self.geometry)),
        }
    }

    /// The MCR region layout: the explicit map, else the single mode.
    fn regions(&self) -> RegionMap {
        self.region_map
            .clone()
            .unwrap_or_else(|| RegionMap::single(self.mode))
    }

    /// Builds the configured backend's device policy, MCR included. The
    /// system layer reads the policy's restore classes and largest
    /// refresh skip before handing it to the controller.
    pub fn make_policy(&self) -> Box<dyn DevicePolicy> {
        match self.backend.kind {
            BackendKind::Mcr => {
                let device =
                    crate::timing::DeviceClass::for_rows_per_bank(self.geometry.rows_per_bank);
                Box::new(McrPolicy::from_regions(
                    self.regions(),
                    self.mechanisms,
                    &crate::timing::McrTimingTable::paper(device),
                    self.geometry.ranks,
                    self.geometry.row_bits(),
                ))
            }
            BackendKind::Baseline => Box::new(BaselinePolicy),
            BackendKind::TlDram => Box::new(TlDramPolicy::new(DEFAULT_NEAR_ROWS)),
            BackendKind::ClrDram => Box::new(ClrDramPolicy::new(
                DEFAULT_COUPLE_THRESHOLD,
                DEFAULT_COUPLE_CAP,
            )),
        }
    }
}

/// FNV-1a, 64 bit: a tiny *stable* hasher. `std`'s `DefaultHasher` is
/// randomized per process, which would make [`SystemConfig::config_key`]
/// useless as a persistent cache key.
struct StableHasher(u64);

impl StableHasher {
    fn new() -> Self {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
        self
    }

    /// `f64`s are hashed by bit pattern; `-0.0 != 0.0` here, which is
    /// fine — config code never produces negative zero.
    fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    fn bool(&mut self, v: bool) -> &mut Self {
        self.byte(v as u8);
        self
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
        self
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Reliability section of a [`RunReport`]: what the fault-injection
/// campaign did and how the detector/guardband stack responded. All-zero
/// (with `fault_injection == false`) when no fault plan was armed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityReport {
    /// True when a fault plan was armed for this run.
    pub fault_injection: bool,
    /// The armed plan's seed (0 when `fault_injection` is false).
    pub fault_seed: u64,
    /// Fast-class ACTIVATEs rejected by the margin detector and reissued
    /// with the full-restore baseline class.
    pub retention_retries: u64,
    /// REFRESH slots silently dropped by injected faults.
    pub refresh_dropped: u64,
    /// REFRESH slots delayed by injected faults.
    pub refresh_late: u64,
    /// Guardband ladder steps down (Full → NoSkip → FullRas).
    pub guardband_degrades: u64,
    /// Guardband ladder steps back up after quiet re-arm windows.
    pub guardband_rearms: u64,
    /// Memory cycles spent at any degraded guardband level.
    pub guardband_degraded_cycles: u64,
    /// Retention sense-margin checks evaluated.
    pub retention_checks: u64,
    /// Margin violations the armed detector caught.
    pub retention_violations: u64,
    /// Margin failures that escaped a disarmed detector (also a
    /// protocol-audit *error*, so [`System::report`] panics on any escape
    /// while the auditor is armed).
    pub retention_escapes: u64,
}

/// Where a run's simulated memory cycles went: with an ordered core
/// cycle, or crossed by the cores running alone (DESIGN.md §5h).
///
/// Carried on [`RunReport::exec`]. The counts describe the drive, not the
/// simulated machine: the dense drive ([`System::set_skip_ahead`]) and
/// the event loop reach the same report by different work. So, like
/// [`crate::SweepExecStats`], they are left out of the report's equality
/// and of its serialization, and a report read back from a result store
/// carries zeros. The three cycle counts sum to `total_mem_cycles`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunExecStats {
    /// Memory cycles in which some core ran a cycle that may call the
    /// memory system, in order with the other cores' such cycles. The
    /// dense drive counts every cycle here.
    pub dense_cycles: u64,
    /// The other cycles in which the controller did not tick: it replayed
    /// them in closed form.
    pub quiet_skipped_cycles: u64,
    /// The other cycles in which the controller ticked.
    pub overlapped_span_cycles: u64,
    /// Controller ticks in all: at most one per dense or overlapped cycle.
    /// The dense drive ticks every cycle.
    pub controller_ticks: u64,
    /// Wakes armed, by the edge source that claimed each one, indexed by
    /// `source as usize` ([`EdgeSource::ALL`] names the slots): one per
    /// [`MemoryController::next_tick`] answer, asked once a cycle that
    /// ticked or admitted an enqueue is over. The dense drive arms none.
    pub wakes: [u64; EdgeSource::COUNT],
}

/// End-of-run metrics.
///
/// Reports are pure functions of the [`SystemConfig`] that produced them
/// (compare with `==`): the simulator is single-threaded per run and all
/// randomness flows from the config's seed, which is what lets the
/// [`crate::sweep`] engine cache and parallelize runs freely. Equality
/// ignores the drive-dependent [`RunReport::exec`] section.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// CPU cycle at which the last core retired its final instruction —
    /// the paper's execution-time metric.
    pub exec_cpu_cycles: u64,
    /// Per-core completion cycles (CPU domain).
    pub per_core_cpu_cycles: Vec<u64>,
    /// Memory cycles simulated (through write drain).
    pub total_mem_cycles: Cycle,
    /// Reads completed.
    pub reads_done: u64,
    /// Mean read latency in memory cycles (enqueue → data).
    pub avg_read_latency: f64,
    /// Controller statistics snapshot.
    pub controller: ControllerStats,
    /// Total DRAM energy.
    pub energy: EnergyBreakdown,
    /// Energy-delay product (J·s) over the execution time.
    pub edp: f64,
    /// Instructions committed across all cores.
    pub instructions: u64,
    /// Row-cache statistics (`Some` only when the row cache is enabled).
    pub cache: Option<RowCacheStats>,
    /// Mean read latency per core, in memory cycles (0.0 for cores that
    /// issued no reads).
    pub per_core_read_latency: Vec<f64>,
    /// Telemetry section: per-bank command counters, refresh/power-down
    /// counts and latency histograms from every instrumented layer.
    pub telemetry: Telemetry,
    /// Reliability section: fault-injection campaign counters and the
    /// guardband ladder's response (all-zero without a fault plan).
    pub reliability: ReliabilityReport,
    /// How the drive spent the run (volatile: excluded from `==` and from
    /// serialization).
    pub exec: RunExecStats,
}

impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so that a new field cannot be left out silently.
        let RunReport {
            exec_cpu_cycles,
            per_core_cpu_cycles,
            total_mem_cycles,
            reads_done,
            avg_read_latency,
            controller,
            energy,
            edp,
            instructions,
            cache,
            per_core_read_latency,
            telemetry,
            reliability,
            exec: _,
        } = self;
        *exec_cpu_cycles == other.exec_cpu_cycles
            && *per_core_cpu_cycles == other.per_core_cpu_cycles
            && *total_mem_cycles == other.total_mem_cycles
            && *reads_done == other.reads_done
            && *avg_read_latency == other.avg_read_latency
            && *controller == other.controller
            && *energy == other.energy
            && *edp == other.edp
            && *instructions == other.instructions
            && *cache == other.cache
            && *per_core_read_latency == other.per_core_read_latency
            && *telemetry == other.telemetry
            && *reliability == other.reliability
    }
}

impl RunReport {
    /// Execution time in nanoseconds.
    pub fn exec_ns(&self) -> f64 {
        self.exec_cpu_cycles as f64 / CPU_PER_MEM_CYCLE as f64 * T_CK_NS
    }
}

/// A ready-to-run full system.
///
/// Drive it either with [`System::run`] / [`System::run_budgeted`] (to
/// completion, optionally under a [`crate::sweep::RunBudget`]) or
/// incrementally with [`System::run_until`], which allows runtime
/// MCR-mode changes via [`System::reconfigure`] between calls.
///
/// Internally it is one event loop (DESIGN.md §5h): each core runs alone
/// ([`Core::run_to_call`]) up to the next CPU cycle in which it may call
/// the memory system, those cycles run in the dense drive's
/// `(cpu_cycle, core)` order, and the controller ticks only at its wake
/// ([`MemoryController::next_tick`]). Reports stay *bit-identical* to the
/// dense drive ([`System::set_skip_ahead`]), as
/// `tests/event_wheel_equivalence.rs` checks.
pub struct System {
    cores: Vec<Core<Trace>>,
    controller: MemoryController,
    /// The first memory cycle the controller has neither ticked nor replayed.
    mem_now: Cycle,
    active_regions: RegionMap,
    cache: Option<RowCache>,
    mapper: Box<dyn AddressMapper>,
    /// Per-core (latency sum, completed reads) for fairness analysis.
    per_core_reads: Vec<(u64, u64)>,
    /// Each core's place in the event loop.
    lanes: Vec<Lane>,
    /// `false` forces the dense reference drive.
    skip_ahead: bool,
    /// The next cycle the controller must tick; `None` until an enqueue.
    wake: Option<Cycle>,
    /// Memory cycle `mem_now - 1` while cores may still call in it.
    open: Option<OpenCycle>,
    /// A tick at cycle `w` stamps a read's data no earlier than
    /// `w + read_latency` (tCL + burst).
    read_latency: Cycle,
    /// Completions of the current tick, one buffer for the whole run.
    completions: Vec<Completion>,
    /// Refresh-starvation budget the protocol auditor gets whenever it is
    /// armed ([`System::set_audit_enabled`]).
    audit_refresh_budget: Cycle,
    /// Where simulated time went so far ([`RunReport::exec`]).
    exec: RunExecStats,
}

/// A core's place in the event loop.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// The next CPU cycle the core runs.
    next: u64,
    /// `controller_ticks` at its last ordered cycle: until the next tick,
    /// a request refused in that cycle stays refused.
    ticks: u64,
}

/// Whether the open memory cycle ticked, and whether a core called in it.
#[derive(Debug, Clone, Copy, Default)]
struct OpenCycle {
    ticked: bool,
    called: bool,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("controller", &self.controller)
            .finish()
    }
}

/// Core id used for cache-copy traffic; its completions are dropped.
const COPY_CORE: u32 = u32::MAX;

/// How often [`System::run_budgeted`] re-checks its
/// [`crate::sweep::RunBudget`], in memory cycles: a poll boundary only
/// stops the cores and brings the controller up to it.
const BUDGET_POLL_CYCLES: Cycle = 100_000;

/// Cycle bound past which an unbudgeted run is declared wedged. Generous:
/// even a fully serialized run needs < ~tRC cycles per memory op;
/// anything past this is a scheduling deadlock (a simulator bug), not a
/// slow workload. Drivers that call [`System::run_until`] themselves
/// pass it as their horizon.
pub const WEDGE_CAP: Cycle = 500_000_000;

struct CtlSink<'a> {
    ctl: &'a mut MemoryController,
    cache: Option<&'a mut RowCache>,
    mapper: &'a dyn AddressMapper,
}

impl CtlSink<'_> {
    /// Cache lookup + copy-traffic injection; returns the (possibly
    /// redirected) physical address to access.
    fn route(&mut self, addr: PhysAddr) -> PhysAddr {
        let Some(cache) = self.cache.as_deref_mut() else {
            return addr;
        };
        match cache.access(self.mapper.decode(addr)) {
            CacheOutcome::Miss => addr,
            CacheOutcome::Hit(redirect) => self.mapper.encode(&redirect),
            CacheOutcome::Promoted { redirect, copies } => {
                // Charge the row copies as sentinel traffic through the
                // regular queues (best effort: full queues under-charge).
                for copy in copies {
                    let from = self.mapper.encode(&copy.from);
                    let to = self.mapper.encode(&copy.to);
                    let _ = self.ctl.enqueue_read(COPY_CORE, from);
                    let _ = self.ctl.enqueue_write(COPY_CORE, to);
                }
                self.mapper.encode(&redirect)
            }
        }
    }
}

impl RequestSink for CtlSink<'_> {
    fn try_read(&mut self, core_id: u32, addr: PhysAddr) -> Option<u64> {
        let routed = self.route(addr);
        self.ctl.enqueue_read(core_id, routed)
    }

    fn try_write(&mut self, core_id: u32, addr: PhysAddr) -> bool {
        let routed = self.route(addr);
        self.ctl.enqueue_write(core_id, routed)
    }
}

/// A core's instruction trace.
type Trace = Box<dyn Iterator<Item = TraceRecord>>;

impl System {
    /// Builds cores, traces (with profile-based allocation applied),
    /// controller and device from a configuration — the infallible
    /// convenience over [`System::try_build`] for configs known valid at
    /// the call site (presets, tests, examples).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message when the configuration is
    /// invalid. Library code and anything handling user input should use
    /// [`System::try_build`] instead.
    pub fn build(config: &SystemConfig) -> Self {
        match Self::try_build(config) {
            Ok(sys) => sys,
            Err(e) => panic!("invalid SystemConfig: {e}"),
        }
    }

    /// Builds cores, traces (with profile-based allocation applied),
    /// controller and device from a configuration, validating the
    /// cross-field invariants first.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] reported by
    /// [`SystemConfig::validate`] — e.g. an empty workload list, an
    /// allocation ratio outside `[0, 1]`, allocation combined with the
    /// row cache, or an explicit region map shadowing a non-off mode.
    pub fn try_build(config: &SystemConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let geometry = config.geometry;
        let timing = TimingSet::ddr3_1600(geometry.rows_per_bank);
        let regions = config.regions();
        // Restore classes feed retention tracking; `max_skip` is the
        // auditor's refresh-starvation allowance. Both are read before
        // the policy moves into the controller.
        let policy = config.make_policy();
        let class_modes = policy.restore_classes();
        let max_skip = policy.max_refresh_skip();
        let ctl_config = ControllerConfig {
            scheduler: config.scheduler,
            row_policy: config.row_policy,
            wiring: config.wiring,
            powerdown_idle_threshold: config.powerdown_idle_threshold,
            ..ControllerConfig::msc_default()
        };
        let t_refi = timing.t_refi;
        let read_latency = Cycle::from(timing.read_latency());
        let mut controller =
            MemoryController::try_new(geometry, timing, ctl_config, config.make_mapper(), policy)?;
        if let Some(plan) = config.fault_plan {
            let params = CircuitParams::calibrated();
            let solver = TimingSolver::new(params);
            // Restore voltages indexed by `RowTimingClass.0`: slot 0 is the
            // baseline full restore; 1..=n are the Table-3 classes (an
            // M-of-K ACTIVATE restores to the solver's per-M target); the
            // degraded variants registered after them fall beyond the table
            // and therefore count as full restores, which is exactly what
            // their full-tRAS timing buys.
            let mut class_restore_v = vec![params.v_full];
            class_restore_v.extend(class_modes.iter().map(|&(m, _)| solver.restore_target_v(m)));
            let fast_refresh_restore_v = class_modes
                .iter()
                .map(|&(m, _)| solver.restore_target_v(m))
                .fold(params.v_full, f64::min);
            controller.set_retention(RetentionConfig {
                plan,
                leakage: LeakageModel::new(params),
                class_restore_v,
                fast_refresh_restore_v,
                full_restore_v: params.v_full,
                t_ck_ns: T_CK_NS,
            })?;
            controller.set_guardband(config.guardband.unwrap_or_default());
        }
        // Refresh-starvation budget for the protocol auditor: with
        // Refresh-Skipping, a group legally goes up to one skip period of
        // tREFI slots without a REFRESH; add the JEDEC postponement cap
        // and a wide margin so the check only fires on streams that
        // stopped refreshing altogether. `max_skip` is the backend's
        // legality view — 1 for every backend that keeps the JEDEC
        // every-slot contract. A no-op while the auditor is disarmed.
        let audit_refresh_budget = Cycle::from(max_skip) * 10 * Cycle::from(t_refi);
        controller.set_audit_refresh_budget(Some(audit_refresh_budget));

        let cores = config
            .workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let base = config.core_base(i);
                let seed = config.seed.wrapping_add(i as u64).wrapping_mul(0x9e37);
                let gen = TraceGenerator::new(w, seed, base).take(config.trace_len);
                let trace: Trace = if config.alloc_ratio > 0.0 && !regions.is_off() {
                    let top_n = (w.footprint_rows as f64 * config.alloc_ratio).round() as usize;
                    let base_frame = base / ROW_BYTES;
                    let hot: Vec<u64> = hot_rows(w, seed, PROFILE_SAMPLE, top_n)
                        .into_iter()
                        .map(|r| r + base_frame)
                        .collect();
                    let mapper = config.make_mapper();
                    let remap = RowRemapper::profile_based_regions(
                        &hot,
                        &regions,
                        mapper.as_ref(),
                        &geometry,
                    );
                    Box::new(gen.map(move |mut r| {
                        r.addr = remap.remap_phys(r.addr, mapper.as_ref());
                        r
                    }))
                } else {
                    Box::new(gen)
                };
                Core::new(i as u32, CoreParams::msc_default(), trace)
            })
            .collect();

        let cache = config
            .row_cache
            .map(|cache_cfg| RowCache::new(geometry, regions.clone(), cache_cfg));
        let n_cores = config.workloads.len();
        Ok(System {
            cores,
            controller,
            mem_now: 0,
            active_regions: regions,
            cache,
            mapper: config.make_mapper(),
            per_core_reads: vec![(0, 0); n_cores],
            lanes: vec![Lane::default(); n_cores],
            skip_ahead: true,
            wake: Some(0),
            open: None,
            read_latency,
            completions: Vec::new(),
            audit_refresh_budget,
            exec: RunExecStats::default(),
        })
    }

    /// True when every core retired its trace and the controller drained.
    pub fn done(&self) -> bool {
        self.cores.iter().all(|c| c.done()) && self.controller.idle()
    }

    /// Current simulation time in memory cycles.
    pub fn now(&self) -> Cycle {
        self.mem_now
    }

    /// Disables (or re-enables) the event loop. With `false` the system
    /// executes every memory cycle densely — the reference drive that the
    /// loop must match bit-for-bit. Meant for equivalence testing and
    /// debugging; the loop is on by default.
    pub fn set_skip_ahead(&mut self, enabled: bool) {
        self.skip_ahead = enabled;
        // The dense drive does not keep the wake up to date.
        self.wake = Some(self.mem_now);
    }

    /// The dense drive's memory cycle `mem_now`: a controller tick, then
    /// four CPU subcycles, each cycling every live core in core order.
    fn dense_cycle(&mut self) {
        self.tick_controller();
        let cpu_now = self.mem_now * CPU_PER_MEM_CYCLE;
        let mut sink = CtlSink {
            ctl: &mut self.controller,
            cache: self.cache.as_mut(),
            mapper: self.mapper.as_ref(),
        };
        for now in cpu_now..cpu_now + CPU_PER_MEM_CYCLE {
            for core in self.cores.iter_mut().filter(|c| !c.done()) {
                core.cycle(now, &mut sink);
            }
        }
        self.mem_now += 1;
        self.exec.dense_cycles += 1;
    }

    /// The controller's half of memory cycle `mem_now`: one tick, each
    /// read it completes handed to its core, then the guardband's MRS
    /// moves (later ACTIVATEs read the policy they set). A read served by
    /// DRAM completes at the tick that issues its CAS, stamped with its
    /// later data arrival: the core holds the stamp and retires the read
    /// no earlier, exactly as if it had been handed over on that cycle.
    fn tick_controller(&mut self) {
        self.exec.controller_ticks += 1;
        let mut done = std::mem::take(&mut self.completions);
        self.controller.tick_into(self.mem_now, &mut done);
        for c in done.drain(..) {
            debug_assert!(c.ready_at >= self.mem_now, "late completion");
            if c.core_id == COPY_CORE {
                continue; // cache-copy traffic; nobody waits on it
            }
            let (core, ready_at) = (c.core_id as usize, c.ready_at * CPU_PER_MEM_CYCLE);
            debug_assert!(
                !self.skip_ahead || ready_at >= self.lanes[core].next,
                "core {core} ran past the data cycle of a read"
            );
            let slot = &mut self.per_core_reads[core];
            slot.0 += c.latency;
            slot.1 += 1;
            self.cores[core].complete_read(c.token, ready_at);
        }
        self.completions = done;
        self.apply_guardband_transitions();
    }

    fn replay_to(&mut self, end: Cycle) {
        self.controller.note_skipped_cycles(end - self.mem_now);
        self.mem_now = end;
    }

    /// Ticks at the wake `w`; cycle `w` stays open, its wake spent.
    fn tick_at(&mut self, w: Cycle) {
        self.replay_to(w);
        self.tick_controller();
        self.mem_now = w + 1;
        self.wake = None;
        self.open = Some(OpenCycle {
            ticked: true,
            called: false,
        });
    }

    /// Closes the open cycle, if any: counts it, and re-arms the wake when
    /// it ticked or admitted an enqueue.
    fn close(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        if open.called {
            self.exec.dense_cycles += 1;
        } else if open.ticked {
            self.exec.overlapped_span_cycles += 1;
        }
        if open.ticked || self.controller.had_activity() {
            let edge = self.controller.next_tick_detail(self.mem_now - 1);
            if let Some(e) = edge {
                self.exec.wakes[e.source as usize] += 1;
            }
            self.wake = edge.map(|e| e.cycle);
        }
    }

    /// Brings the controller to cycle `end`, ticking at each wake before it.
    fn settle(&mut self, end: Cycle) {
        loop {
            self.close();
            match self.wake {
                Some(w) if w < end => self.tick_at(w),
                _ => break,
            }
        }
        self.replay_to(end);
    }

    /// Runs core `i` alone from CPU cycle `from` to its next possible call,
    /// short of any cycle a tick still to come could stamp one of its reads
    /// with. No tick comes before the wake, nor before the cycle after an
    /// enqueue still to come: the open cycle's, or another core's.
    fn run_alone(&mut self, i: usize, from: u64, target: Cycle) -> u64 {
        let open = self.open.map(|_| self.mem_now);
        let calls = (self.cores.iter().zip(&self.lanes).enumerate())
            .filter(|&(j, (core, _))| j != i && !core.done())
            .map(|(_, (_, lane))| lane.next / CPU_PER_MEM_CYCLE + 1);
        let next_tick = self.wake.into_iter().chain(open).chain(calls).min();
        let stamp = next_tick.map(|t| t + self.read_latency);
        // A forwarded read is stamped with its tick's own cycle.
        let forwarded = self.controller.forwarded_due(i as u32);
        let limit = stamp.into_iter().chain(forwarded).fold(target, Cycle::min);
        // Queues only grow between ticks, so a request refused since the
        // last one stays refused until the next; with a row cache, every
        // retry moves the cache and must run in order.
        let refused = self.cache.is_none() && self.lanes[i].ticks == self.exec.controller_ticks;
        let refused_until = next_tick.filter(|_| refused).unwrap_or(0);
        self.cores[i].run_to_call(
            from,
            limit.saturating_mul(CPU_PER_MEM_CYCLE),
            refused_until * CPU_PER_MEM_CYCLE,
        )
    }

    /// The event loop up to `target`: the live core with the earliest next
    /// cycle (the lowest id on ties) runs on, after the ticks up to it.
    /// Once all are done, the run ends where the controller is idle, which
    /// only a tick or the last data in flight landing can change.
    fn drive(&mut self, target: Cycle) -> bool {
        // Every live core stands at `mem_now`, and none is known refused.
        let start = self.mem_now * CPU_PER_MEM_CYCLE;
        self.lanes.fill(Lane {
            next: start,
            ticks: u64::MAX,
        });
        while let Some(i) = (0..self.cores.len())
            .filter(|&i| !self.cores[i].done())
            .min_by_key(|&i| self.lanes[i].next)
        {
            let p = self.lanes[i].next;
            let m = p / CPU_PER_MEM_CYCLE;
            if m >= target {
                self.settle(target);
                return false;
            }
            if m >= self.mem_now {
                self.close();
            }
            // No core calls in a wake before `m`, so it closes at once.
            while let Some(w) = self.wake.filter(|&w| w <= m) {
                self.tick_at(w);
                if w < m {
                    self.close();
                }
            }
            let mut next = self.run_alone(i, p, target);
            if next == p {
                if self.open.is_none() {
                    self.replay_to(m + 1);
                }
                self.open.get_or_insert_with(OpenCycle::default).called = true;
                let mut sink = CtlSink {
                    ctl: &mut self.controller,
                    cache: self.cache.as_mut(),
                    mapper: self.mapper.as_ref(),
                };
                self.cores[i].cycle(p, &mut sink);
                self.lanes[i].ticks = self.exec.controller_ticks;
                next = self.run_alone(i, p + 1, target);
            }
            self.lanes[i].next = next;
        }
        let done = self
            .cores
            .iter()
            .map(|c| c.stats().done_cycle / CPU_PER_MEM_CYCLE);
        self.settle(done.fold(self.mem_now, |t, d| t.max(d + 1)).min(target));
        while !self.controller.idle() && self.mem_now < target {
            let landed = self.controller.data_in_flight_until();
            let next = self.wake.into_iter().chain(landed).min();
            self.settle(next.map_or(target, |t| target.min(t + 1)));
        }
        self.controller.idle()
    }

    /// Advances the simulation to memory cycle `target` (exactly, unless
    /// everything finishes first). Returns `true` when done — every core
    /// retired its trace and the controller drained.
    ///
    /// This is the one incremental drive: callers that previously looped
    /// `step(chunk)` land on the same cycle with a single call, and
    /// [`System::reconfigure`] remains legal between calls.
    pub fn run_until(&mut self, target: Cycle) -> bool {
        if self.skip_ahead && self.mem_now < target {
            return self.drive(target);
        }
        while self.mem_now < target && !self.done() {
            self.dense_cycle();
        }
        self.done()
    }

    /// Applies ladder moves the guardband monitor decided during the last
    /// controller tick: each one is an MRS-style reprogram that re-maps
    /// rows onto the degraded (or restored) timing classes. Degradation is
    /// always a relaxation — degraded classes keep K and only lengthen
    /// tRAS — so, unlike [`System::reconfigure`], no Table-2 check is
    /// needed.
    fn apply_guardband_transitions(&mut self) {
        for (_, t) in self.controller.drain_guardband_transitions() {
            let level = match t {
                GuardbandTransition::Degrade(l) | GuardbandTransition::Rearm(l) => l,
            };
            // Surface the MRS in the audited command stream, mirroring
            // reconfigure(). Ladder moves go through the backend-agnostic
            // DevicePolicy hook: non-MCR backends with no relaxed timing
            // to give back treat it as a no-op.
            self.controller.note_mode_change(self.mem_now);
            self.controller.policy_mut().apply_degrade_level(level);
        }
    }

    /// The guardband ladder's current level ([`DegradeLevel::Full`] when
    /// no monitor is armed) — observable mid-run between steps.
    pub fn guardband_level(&self) -> DegradeLevel {
        self.controller
            .guardband()
            .map(|g| g.level())
            .unwrap_or(DegradeLevel::Full)
    }

    /// Runtime MCR-mode change (the MRS command of Sec. 4.1/4.4): swaps
    /// the active mode between [`System::run_until`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Backend`] when the system was built with a
    /// non-MCR backend: only MCR defines an MRS-driven mode change.
    ///
    /// # Panics
    ///
    /// Panics if the change could collide with live data — the new mode
    /// must be a *relaxation* (K not growing, per Table 2) of the current
    /// hottest tier. Tightening changes require page migration, which the
    /// paper (and this simulator) leaves to the OS.
    pub fn reconfigure(&mut self, mode: McrMode) -> Result<(), ConfigError> {
        let policy: &mut dyn std::any::Any = self.controller.policy_mut();
        let Some(policy) = policy.downcast_mut::<McrPolicy>() else {
            return Err(ConfigError::Backend(format!(
                "runtime mode change to {mode} needs the MCR backend"
            )));
        };
        let old_k = self
            .active_regions
            .regions()
            .iter()
            .map(|r| r.mode().k())
            .max()
            .unwrap_or(1);
        assert!(
            mode.k() <= old_k,
            "mode change {old_k}x -> {}x is not a relaxation (Table 2)",
            mode.k()
        );
        let new = RegionMap::single(mode);
        policy.reprogram(new.clone());
        // Surface the MRS in the audited command stream: reconfiguring
        // while banks are open is a protocol warning (paper Sec. 4.1).
        self.controller.note_mode_change(self.mem_now);
        self.active_regions = new;
        Ok(())
    }

    /// Runs to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds a generous cycle bound (indicates
    /// a scheduling deadlock — a simulator bug, not a configuration error).
    pub fn run(self) -> RunReport {
        match self.run_budgeted(&crate::sweep::RunBudget::unbounded()) {
            Some(report) => report,
            None => unreachable!("an unbounded RunBudget never expires"),
        }
    }

    /// Runs to completion unless `budget` runs out first — its deadline
    /// passes, its [`crate::sweep::CancelToken`] fires, or `mem_now`
    /// reaches its cycle cap. Returns `None` when the budget expired —
    /// the partially-advanced simulation is discarded, which is what a
    /// deadline-bound service wants (a half-run report would be neither
    /// reproducible nor comparable).
    ///
    /// The budget is re-checked every 100k simulated cycles. Chunked
    /// advancing does not perturb results: [`System::run_until`] lands on exact
    /// cycle boundaries, so any chunking produces the same [`RunReport`]
    /// as [`System::run`] — `chunked_runs_match_one_run` in
    /// `tests/event_wheel_equivalence.rs` pins this.
    ///
    /// # Panics
    ///
    /// Panics on the wedge bound when the budget sets no cycle cap.
    pub fn run_budgeted(mut self, budget: &crate::sweep::RunBudget) -> Option<RunReport> {
        loop {
            let target = match budget.max_cycles {
                Some(cap) => {
                    if self.mem_now >= cap && !self.done() {
                        return None;
                    }
                    cap.min(self.mem_now.saturating_add(BUDGET_POLL_CYCLES))
                }
                None => self.mem_now.saturating_add(BUDGET_POLL_CYCLES),
            };
            if self.run_until(target) {
                return Some(self.report());
            }
            if budget.expired() {
                return None;
            }
            if budget.max_cycles.is_none() {
                assert!(
                    self.mem_now < WEDGE_CAP,
                    "simulation wedged at cycle {}",
                    self.mem_now
                );
            }
        }
    }

    /// True when the command-stream protocol auditor is armed (debug
    /// builds and the `protocol-audit` feature of `dram-device`).
    pub fn audit_enabled(&self) -> bool {
        self.controller.audit_enabled()
    }

    /// Arms (or disarms) the command-stream protocol auditor on every
    /// channel, whatever the build profile, with the refresh-starvation
    /// budget [`System::try_build`] gives an auditor armed by default.
    /// Arm it before the run starts: an auditor armed mid-run has not seen
    /// the commands before it.
    pub fn set_audit_enabled(&mut self, enabled: bool) {
        self.controller.set_audit_enabled(enabled);
        self.controller
            .set_audit_refresh_budget(Some(self.audit_refresh_budget));
    }

    /// Protocol violations the auditor has recorded so far, across all
    /// channels (empty when the auditor is disarmed).
    pub fn audit_violations(&self) -> impl Iterator<Item = &dram_device::Violation> {
        self.controller.audit_violations()
    }

    /// Snapshot of everything the instrumented layers have recorded so
    /// far: per-bank command counters and the ACT→data histogram from the
    /// device, scheduler/queue telemetry from the controller, and the
    /// per-core memory-latency histogram (merged across cores).
    ///
    /// Callable mid-run between [`System::run_until`] calls;
    /// [`System::report`] embeds the final snapshot in
    /// [`RunReport::telemetry`].
    pub fn telemetry_snapshot(&self) -> Telemetry {
        let mut t = Telemetry::default();
        for (ci, chan) in self.controller.channels().enumerate() {
            t.absorb_channel(ci, chan.telemetry());
        }
        t.controller = self.controller.telemetry().clone();
        for core in &self.cores {
            t.core_read_latency.merge(&core.stats().mem_read_latency);
        }
        t
    }

    /// Records the last `capacity` commands each channel issues
    /// (ACT/RD/WR/PRE/REF/MRS, with row, timing class and refresh tRFC).
    pub fn enable_command_trace(&mut self, capacity: usize) {
        self.controller.enable_command_trace(capacity);
    }

    /// The recorded commands as `(channel, command)`, channel by channel,
    /// oldest first within each. Call before [`System::report`], which
    /// consumes the system.
    pub fn command_trace(&self) -> impl Iterator<Item = (usize, &Command)> {
        self.controller
            .channels()
            .enumerate()
            .flat_map(|(ci, chan)| chan.command_trace().map(move |cmd| (ci, cmd)))
    }

    /// Runs the auditor's end-of-timeline checks (tail refresh-starvation)
    /// without consuming the system, so external drivers like `mcr-lint`
    /// can collect violations as diagnostics instead of panicking the way
    /// [`System::report`] does.
    pub fn audit_finish_now(&mut self) {
        self.controller.audit_finish(self.mem_now);
    }

    /// Finalizes counters and produces the report (for incremental
    /// drivers that used [`System::run_until`]; [`System::run`] calls it).
    ///
    /// # Panics
    ///
    /// Panics when the protocol auditor is armed and recorded any
    /// error-severity violation: the simulated command stream broke a
    /// JEDEC or MCR timing rule, which is a simulator bug, not a
    /// configuration error. Warnings (e.g. a mode change with banks
    /// open) do not panic.
    pub fn report(mut self) -> RunReport {
        let mem_now = self.mem_now;
        let telemetry = self.telemetry_snapshot();
        self.controller.finish(mem_now);
        self.controller.audit_finish(mem_now);
        let errors: Vec<_> = self
            .controller
            .audit_violations()
            .filter(|v| v.class.severity() == dram_device::Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "protocol audit failed ({} violation(s)); first: {}",
            errors.len(),
            errors[0]
        );

        let per_core: Vec<u64> = self.cores.iter().map(|c| c.stats().done_cycle).collect();
        let exec_cpu_cycles = per_core.iter().copied().max().unwrap_or(0);
        let instructions = self.cores.iter().map(|c| c.stats().committed).sum();
        let controller = self.controller.stats();
        let timing = TimingSet::ddr3_1600(self.controller.geometry().rows_per_bank);
        let power = PowerParams::ddr3_1600(&timing);
        let mut energy = EnergyBreakdown::default();
        for chan in self.controller.channels() {
            for rank in 0..chan.geometry().ranks {
                energy.merge(&EnergyBreakdown::for_rank(
                    &power,
                    &chan.rank(rank).counters,
                    mem_now,
                ));
            }
        }
        let exec_mem_cycles = exec_cpu_cycles / CPU_PER_MEM_CYCLE;
        let cache = self.cache.as_ref().map(|c| c.stats());
        let reliability = ReliabilityReport {
            fault_injection: self.controller.fault_plan().is_some(),
            fault_seed: self.controller.fault_plan().map_or(0, |p| p.seed()),
            retention_retries: controller.retention_retries,
            refresh_dropped: controller.refresh.dropped,
            refresh_late: controller.refresh.late,
            guardband_degrades: controller.guardband_degrades,
            guardband_rearms: controller.guardband_rearms,
            guardband_degraded_cycles: controller.guardband_degraded_cycles,
            retention_checks: telemetry.retention_checks,
            retention_violations: telemetry.retention_violations,
            retention_escapes: telemetry.retention_escapes,
        };
        let per_core_read_latency = self
            .per_core_reads
            .iter()
            .map(|&(sum, n)| if n == 0 { 0.0 } else { sum as f64 / n as f64 })
            .collect();
        RunReport {
            exec_cpu_cycles,
            per_core_cpu_cycles: per_core,
            total_mem_cycles: mem_now,
            reads_done: controller.reads_done,
            avg_read_latency: controller.avg_read_latency(),
            edp: edp(energy.total_pj(), exec_mem_cycles.max(1), T_CK_NS),
            energy,
            controller,
            instructions,
            cache,
            per_core_read_latency,
            telemetry,
            reliability,
            exec: RunExecStats {
                quiet_skipped_cycles: mem_now
                    - self.exec.dense_cycles
                    - self.exec.overlapped_span_cycles,
                ..self.exec
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_device::ReqKind;

    #[test]
    fn baseline_single_core_completes() {
        let cfg = SystemConfig::single_core("black", 2_000);
        let r = System::build(&cfg).run();
        assert!(r.exec_cpu_cycles > 0);
        assert!(r.reads_done > 0);
        assert!(r.avg_read_latency > 0.0);
        assert!(r.energy.total_pj() > 0.0);
        assert!(r.instructions >= 2_000);
    }

    #[test]
    fn a_run_ends_when_copy_data_nobody_waits_on_arrives() {
        // Once every core is done, a row-cache copy read can be the last
        // work left. It completes at its CAS, so its data arrival is no
        // wake; the run must still end on the dense drive's cycle, right
        // after that arrival, not at the next refresh deadline.
        let end_cycle = |skip_ahead: bool| {
            let mut sys = System::build(&SystemConfig::single_core("black", 200));
            sys.set_skip_ahead(skip_ahead);
            assert!(sys.run_until(WEDGE_CAP));
            let start = sys.mem_now;
            assert!(sys
                .controller
                .enqueue_read(COPY_CORE, PhysAddr(0))
                .is_some());
            sys.wake = Some(start);
            assert!(sys.run_until(WEDGE_CAP));
            (start, sys.mem_now)
        };
        let (start, end) = end_cycle(false);
        assert!(end > start + 15, "ACT, CAS and burst: {start} -> {end}");
        assert_eq!(end_cycle(true), (start, end));
    }

    #[test]
    fn random_traces_match_the_dense_drive() {
        // Hand-made traces on 1-4 cores over one pool of 16 lines, so reads
        // hit queued writes (forwarded) and writes merge. Gaps run 0-40:
        // a core starting on two gap-0 records calls twice in CPU cycle 0.
        // Lengths differ, so cores finish apart; power-down is at 16 idle
        // cycles or off.
        let run = |traces: &[Vec<TraceRecord>], powerdown: bool, skip_ahead: bool| {
            let black = *trace_gen::workload("black").expect("built-in workload");
            let cfg = SystemConfig {
                workloads: vec![black; traces.len()],
                shared_address_space: true,
                powerdown_idle_threshold: powerdown.then_some(16),
                ..SystemConfig::single_core("black", 1)
            };
            let mut sys = System::build(&cfg);
            for (id, trace) in traces.iter().enumerate() {
                let trace = Box::new(trace.clone().into_iter());
                sys.cores[id] = Core::new(id as u32, CoreParams::msc_default(), trace);
            }
            sys.set_skip_ahead(skip_ahead);
            sys.run()
        };
        // Case 0: core 0 writes line 0 and, in the same subcycle, core 1
        // reads it with no trace left. The read is forwarded, and core 1
        // retires it in the cycle of the tick that stamps it, after the tick.
        let rec = |gap, kind, line: u64| TraceRecord::new(gap, kind, PhysAddr(line * 4160));
        let case0 = [
            vec![rec(0, ReqKind::Write, 0)],
            vec![rec(0, ReqKind::Read, 0)],
        ];
        let wheel = run(&case0, false, true);
        assert_eq!(wheel.per_core_cpu_cycles[1], CPU_PER_MEM_CYCLE);
        assert_eq!(wheel, run(&case0, false, false));
        let mut rng = sim_rng::SmallRng::seed_from_u64(0x5eed_2015);
        let (mut forwarded, mut burst, mut slept) = (false, false, false);
        for case in 1..60 {
            let traces: Vec<Vec<TraceRecord>> = (0..rng.gen_range(1..5usize))
                .map(|_| {
                    (0..rng.gen_range(1..150usize))
                        .map(|_| {
                            let gap = rng.gen_range(0..41u32) * u32::from(rng.gen_bool(0.6));
                            let kind = [ReqKind::Read, ReqKind::Write][rng.gen_range(0..2usize)];
                            rec(gap, kind, rng.gen_range(0..16u64))
                        })
                        .collect()
                })
                .collect();
            burst |= traces
                .iter()
                .any(|t| t.len() > 1 && t[0].gap == 0 && t[1].gap == 0);
            let powerdown = rng.gen_bool(0.5);
            let wheel = run(&traces, powerdown, true);
            assert_eq!(wheel, run(&traces, powerdown, false), "case {case}");
            forwarded |= wheel.telemetry.controller.read_latency.min() == Some(0);
            slept |= wheel.telemetry.powerdown_entries > 0;
        }
        assert!(forwarded && burst && slept, "{forwarded} {burst} {slept}");
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = SystemConfig::single_core("ferret", 1_500);
        let a = System::build(&cfg).run();
        let b = System::build(&cfg).run();
        assert_eq!(a.exec_cpu_cycles, b.exec_cpu_cycles);
        assert_eq!(a.reads_done, b.reads_done);
        assert_eq!(a.controller.row_hits, b.controller.row_hits);
    }

    #[test]
    fn headline_mode_beats_baseline() {
        let base = SystemConfig::single_core("libq", 6_000);
        let mcr = base.clone().with_mode(McrMode::headline());
        let rb = System::build(&base).run();
        let rm = System::build(&mcr).run();
        assert!(
            rm.exec_cpu_cycles < rb.exec_cpu_cycles,
            "MCR {} vs baseline {}",
            rm.exec_cpu_cycles,
            rb.exec_cpu_cycles
        );
        assert!(rm.avg_read_latency < rb.avg_read_latency);
    }

    #[test]
    fn multi_core_completes() {
        let mixes = trace_gen::multi_programmed_mixes(2015);
        let cfg = SystemConfig::multi_core(
            [
                mixes[0].cores[0],
                mixes[0].cores[1],
                mixes[0].cores[2],
                mixes[0].cores[3],
            ],
            1_000,
        );
        let r = System::build(&cfg).run();
        assert_eq!(r.per_core_cpu_cycles.len(), 4);
        assert!(r.per_core_cpu_cycles.iter().all(|&c| c > 0));
    }

    #[test]
    fn allocation_increases_mcr_benefit_for_partial_region() {
        let len = 6_000;
        let mode = McrMode::new(4, 4, 0.5).unwrap();
        let none = SystemConfig::single_core("comm2", len).with_mode(mode);
        let alloc = none.clone().with_alloc_ratio(0.10);
        let r0 = System::build(&none).run();
        let r1 = System::build(&alloc).run();
        // With hot rows steered into MCR frames, latency should not worsen.
        assert!(r1.avg_read_latency <= r0.avg_read_latency * 1.02);
    }
}

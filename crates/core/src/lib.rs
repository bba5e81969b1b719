//! # mcr-dram
//!
//! A full implementation of **Multiple Clone Row DRAM** (Choi et al.,
//! ISCA 2015): a low-latency DRAM that keeps the area-optimized bank
//! structure untouched by treating K physically adjacent rows as one
//! logical row (a *Multiple Clone Row*, Kx MCR).
//!
//! The crate implements every moving part of the proposal:
//!
//! * [`McrMode`] — the `[M/Kx/L%reg]` mode vocabulary of Table 1, with the
//!   validation rules (`1 ≤ M ≤ K`, K ∈ {1, 2, 4}).
//! * [`McrLayout`] — which rows of each 512-row sub-array belong to MCRs
//!   (the rows nearest the sense amplifiers, selected by address MSBs as in
//!   Sec. 4.2), group membership, and usable-capacity accounting.
//! * [`McrGenerator`] — the peripheral-region address generator of Fig. 7:
//!   MCR detection from 1–2 address bits plus the address changer that
//!   forces the low `log2 K` true/complement internal address lines high so
//!   all K wordlines of the MCR rise together.
//! * [`McrTimingTable`] — Table 3 (`tRCD`/`tRAS`/`tRFC` for every mode on
//!   1 Gb and 4 Gb-class devices), in both nanoseconds and DDR3-1600
//!   cycles, plus the option to derive the table from the analytical
//!   circuit model instead of the published constants.
//! * [`McrPolicy`] — the MCR architecture backend: plugs the three latency
//!   mechanisms into the baseline memory controller — **Early-Access**/
//!   **Early-Precharge** (relaxed `tRCD`/`tRAS` classes for MCR rows),
//!   **Fast-Refresh** (shorter `tRFC` for refresh slots that target MCR
//!   rows), and **Refresh-Skipping** (mode `M/Kx` issues only M of each
//!   MCR's K refresh slots, Fig. 9).
//! * [`backend`] — the pluggable DRAM-architecture registry: the same
//!   controller and trace replay under MCR, plain DDR3 ([`BaselinePolicy`]),
//!   TL-DRAM ([`TlDramPolicy`]) or CLR-DRAM ([`ClrDramPolicy`]). The
//!   head-to-head `compare` campaign is a sweep over
//!   [`SweepBuilder::backend`]'s axis, rendered as a [`CompareTable`].
//! * [`Mechanisms`] — individual on/off switches for the ablation of
//!   Fig. 17.
//! * [`RowRemapper`] — pseudo profile-based page allocation (Sec. 4.4):
//!   the hottest rows of a workload are swapped into collision-free MCR
//!   frames of the *same bank*.
//! * [`ModeChangePlan`] — the Table 2 physical-address-mapping scheme that
//!   makes dynamic MCR-mode changes collision-free.
//! * [`System`] — the full-system simulator (USIMM-style cores + FR-FCFS
//!   controller + DDR3 device model + power accounting) used by every
//!   experiment, and [`experiments`] — runners that regenerate the paper's
//!   figures.
//! * [`sweep`] — the deterministic parallel experiment engine: declare a
//!   grid of configs (targets × backends × modes × mechanisms × alloc
//!   ratios × seeds) with [`SweepBuilder`], run it across a scoped worker
//!   pool with content-addressed result memoization. `jobs = 1` and
//!   `jobs = N` produce identical results. The crate writes no JSON:
//!   `mcr-serve` renders results, compare tables and telemetry as
//!   `sim-json` trees for the CLI and the service.
//!
//! ## Quickstart
//!
//! ```
//! use mcr_dram::{McrMode, SystemConfig, System};
//!
//! // 4/4x MCR over 100 % of the rows, paper's headline configuration.
//! let mode = McrMode::new(4, 4, 1.0).expect("valid Table 1 mode");
//! let config = SystemConfig::single_core("libq", 20_000)
//!     .with_mode(mode);
//! let report = System::build(&config).run();
//! assert!(report.reads_done > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod alloc;
pub mod backend;
mod cache;
mod compare;
pub mod experiments;
mod generator;
mod layout;
mod mechanisms;
mod mode;
mod mode_change;
mod policy;
pub mod sweep;
mod system;
mod telemetry;
mod timing;

pub use alloc::RowRemapper;
pub use backend::{
    registered_backends, BackendKind, BackendSpec, BaselinePolicy, ClrDramPolicy, TlDramPolicy,
};
pub use cache::{CacheOutcome, RowCache, RowCacheConfig, RowCacheStats, RowCopy};
pub use compare::CompareTable;
pub use generator::{McrAddress, McrGenerator};
pub use layout::{McrLayout, Region, RegionMap, SUBARRAY_ROWS};
pub use mechanisms::Mechanisms;
pub use mode::{McrMode, ModeError};
pub use mode_change::{ModeChangePlan, OsVisibleMemory};
pub use policy::McrPolicy;
pub use sweep::{
    CancelToken, PointResult, ReportStore, ResultCache, Sweep, SweepBuilder, SweepExecStats,
    SweepPoint, SweepResults,
};
pub use system::{
    ConfigError, MappingKind, ReliabilityReport, RunExecStats, RunReport, System, SystemConfig,
    DEFAULT_SEED, WEDGE_CAP,
};
pub use telemetry::{BankCommandCounts, Telemetry};
// Fault-injection surface, re-exported so experiment drivers need only
// this crate: the seeded plan and the guardband vocabulary it trips.
pub use mcr_faults::FaultPlan;
pub use mem_controller::{DegradeLevel, GuardbandConfig, GuardbandTransition};
// Names the slots of `RunExecStats::wakes`.
pub use mem_controller::EdgeSource;
pub use timing::{DeviceClass, McrTimingTable, ModeTiming};

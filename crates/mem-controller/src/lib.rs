//! # mem-controller
//!
//! A DDR3 memory controller modeled after the paper's baseline (Table 4):
//! per-channel 32-entry read and write queues, write-drain watermarks 24/8,
//! FR-FCFS scheduling, page-interleaved address mapping, and JEDEC refresh
//! with postponement.
//!
//! Two extension points let DRAM-architecture backends (MCR in crate
//! `mcr-dram`, plus the TL-DRAM / CLR-DRAM / plain-DDR3 backends of its
//! `backend` module) plug in without this crate knowing anything about
//! any particular architecture:
//!
//! * [`DevicePolicy`] — chooses the row-timing class for every ACTIVATE
//!   (MCR's Early-Access / Early-Precharge, TL-DRAM's near/far segments,
//!   CLR-DRAM's coupled rows), observes each issued ACT
//!   (`on_activate`, for stateful backends), and decides, per refresh
//!   slot, whether to issue a normal REFRESH, a Fast-Refresh (shorter
//!   `tRFC`), or to skip the slot entirely (Refresh-Skipping). It also
//!   reports two build-time facts: the partial-restore classes and the
//!   largest legal refresh-skip period. The baseline policy
//!   ([`BaselinePolicy`], plain DDR3) always picks class 0 and keeps
//!   every other default.
//! * [`AddressMapper`] — translates physical addresses to DRAM coordinates;
//!   [`PageInterleave`] is the paper's policy, with permutation-based and
//!   bit-reversal variants for ablation.
//!
//! ## Example
//!
//! ```
//! use mem_controller::{ControllerConfig, MemoryController, BaselinePolicy, PageInterleave};
//! use dram_device::{Geometry, PhysAddr, TimingSet};
//!
//! let geometry = Geometry::single_core_4gb();
//! let mut ctl = MemoryController::new(
//!     geometry,
//!     TimingSet::ddr3_1600(geometry.rows_per_bank),
//!     ControllerConfig::msc_default(),
//!     Box::new(PageInterleave::new(geometry)),
//!     Box::new(BaselinePolicy),
//! );
//! let token = ctl.enqueue_read(0, PhysAddr(0x12345640)).expect("queue has space");
//! let mut done = Vec::new();
//! for cycle in 0..200 {
//!     done.extend(ctl.tick(cycle));
//! }
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].token, token);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod controller;
mod guardband;
mod mapping;
mod policy;
mod refresh;
mod request;
mod stats;
mod telemetry;

pub use controller::{
    Completion, ControllerConfig, EdgeInfo, EdgeSource, MemoryController, RowPolicy, SchedulerKind,
};
pub use guardband::{DegradeLevel, GuardbandConfig, GuardbandMonitor, GuardbandTransition};
pub use mapping::{AddressMapper, BitReversal, PageInterleave, PermutationInterleave};
pub use policy::{BaselinePolicy, DevicePolicy, RefreshAction};
pub use refresh::{PendingRefresh, RefreshScheduler, RefreshStats};
pub use request::{Request, ServiceClass};
pub use stats::ControllerStats;
pub use telemetry::CtlTelemetry;

//! # dram-device
//!
//! A cycle-accurate DDR3-style DRAM *device* timing model: the substrate the
//! MCR-DRAM reproduction (ISCA '15) simulates on top of.
//!
//! The crate models what sits on the other side of the memory channel from
//! the controller:
//!
//! * [`Geometry`] — channels × ranks × banks × rows × columns.
//! * [`TimingSet`] — the JEDEC timing constraints (`tRCD`, `tRAS`, `tRP`,
//!   `tRFC`, …) in memory-bus cycles, with DDR3-1600 presets for the paper's
//!   4 GB and 16 GB configurations.
//! * [`Channel`] — per-bank state machines plus rank- and channel-level
//!   constraints (`tFAW`, `tRRD`, data-bus occupancy, rank-to-rank switch),
//!   exposed as a `can_issue`/`issue` command interface.
//! * [`RefreshCounter`] — the device-internal refresh row-address counter
//!   with the paper's two wiring methods (Fig. 8): *K to K* and
//!   *K to N-1-K* (bit-reversed), the latter making per-MCR refresh
//!   intervals uniform.
//! * [`RowTimingClass`] — per-row timing classes so that rows inside a
//!   Multiple Clone Row region can be activated/restored with the relaxed
//!   `tRCD`/`tRAS` of Table 3 while normal rows keep baseline timings.
//!
//! The model is timing-only: it tracks *when* commands are legal and when
//! data transfers complete, not data contents. Activity counters
//! ([`ActivityCounters`]) record everything the power model needs.
//!
//! ## Example
//!
//! ```
//! use dram_device::{Channel, Geometry, TimingSet, CommandKind};
//!
//! let geometry = Geometry::single_core_4gb();
//! let timing = TimingSet::ddr3_1600(geometry.rows_per_bank);
//! let mut channel = Channel::new(geometry, timing);
//!
//! // Activate row 7 of (rank 0, bank 0) at cycle 0, then read column 3.
//! channel.activate(0, 0, 7, 0, Default::default()).unwrap();
//! let ready = channel.next_read_cycle(0, 0);
//! let done = channel.read(0, 0, 3, ready).unwrap();
//! assert!(done > ready);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod addr;
pub mod audit;
mod bank;
mod channel;
mod command;
mod counters;
mod error;
pub mod proto;
mod refresh;
mod retention;
mod telemetry;
mod timing;

pub use addr::{DramAddress, Geometry, PhysAddr};
pub use audit::{
    audit_commands, audit_default_enabled, AuditConfig, CloneFrame, ProtocolAuditor, Severity,
    Violation, ViolationClass,
};
pub use bank::{Bank, BankPhase};
pub use channel::{Channel, Rank};
pub use command::{Command, CommandKind, ReqKind};
pub use counters::ActivityCounters;
pub use error::{DeviceError, TimingError};
pub use proto::{BankProtoState, RankProtoState};
pub use refresh::{max_refresh_interval_ms, refresh_schedule, RefreshCounter, RefreshWiring};
pub use retention::{RetentionConfig, RetentionEvent};
pub use telemetry::{BankCounters, ChannelTelemetry};
pub use timing::{ns_to_cycles, Cycle, RowTiming, RowTimingClass, TimingSet, T_CK_NS};

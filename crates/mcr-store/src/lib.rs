//! # mcr-store
//!
//! Persistent, sharded, content-addressed result store for MCR-DRAM
//! sweeps (DESIGN.md §5j). The sweep engine's in-process memo
//! (`mcr_dram::ResultCache`) dies with the process; this crate supplies
//! the [`ReportStore`](mcr_dram::ReportStore) tier that doesn't:
//!
//! * [`ResultStore`] — sharded [`DEFAULT_SHARDS`] ways by `config_key` bits, disk-backed
//!   with an in-memory hot tier, atomic write-then-rename publishing,
//!   FNV-1a-checksummed entries and quarantine-on-corruption (a bad
//!   entry is moved aside and silently recomputed, never trusted).
//! * [`codec`] — the lossless `RunReport` ↔ `sim-json` codec the
//!   entries are written in: full-range `u64`s, raw histogram state and
//!   non-finite floats all round-trip to `==`-equal reports.
//!
//! `mcr-serve` opens one per `--cache-dir` so a warm cache survives
//! restarts; `mcr_sim` exposes the same store via `--cache-dir` and the
//! `cache stats`/`cache verify`/`cache gc` subcommands; concurrent
//! sweeps, worker threads and whole processes may share one directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod codec;
mod store;

pub use codec::{decode_report, report_to_json, CodecError};
pub use store::{GcReport, ResultStore, StoreStats, VerifyReport, DEFAULT_SHARDS};

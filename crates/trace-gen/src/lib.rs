//! # trace-gen
//!
//! Deterministic synthetic workload generators standing in for the MSC
//! (Memory Scheduling Championship) trace files the paper evaluates with.
//!
//! The original traces are not redistributable, so each MSC workload is
//! replaced by a parametric profile spanning the behavioural axes the
//! paper's conclusions depend on: memory intensity (MPKI), read/write mix,
//! row-buffer locality, footprint, and hot-row skew (a Zipf exponent —
//! e.g. the paper notes 88 % of `comm2`'s requests land on its 10 % hottest
//! rows, which our `comm2` profile reproduces via a steep Zipf).
//! DESIGN.md documents this substitution.
//!
//! Everything is seeded and reproducible: the same profile + seed yields a
//! bit-identical trace stream.
//!
//! ## Example
//!
//! ```
//! use trace_gen::{workload, TraceGenerator};
//!
//! let profile = workload("libq").expect("libq is an MSC workload");
//! let trace: Vec<_> = TraceGenerator::new(profile, 42, 0).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! // High row locality: most consecutive accesses share a DRAM row.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod generator;
mod mixes;
mod profile;
mod profiler;
mod zipf;

pub use generator::TraceGenerator;
pub use mixes::{mix, multi_programmed_mixes, multi_threaded_group, Mix};
pub use profile::{
    all_workloads, single_core_workloads, workload, Suite, WorkloadProfile, ROW_BYTES,
};
pub use profiler::{hot_rows, row_histogram};
pub use zipf::Zipf;

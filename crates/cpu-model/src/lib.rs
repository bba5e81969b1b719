//! # cpu-model
//!
//! A USIMM-style trace-driven processor model: the front end the MCR-DRAM
//! evaluation drives the memory system with (paper Table 4: ROB 128,
//! fetch width 4, retire width 2, pipeline depth 10, 3.2 GHz core over an
//! 800 MHz DDR3 bus).
//!
//! A [`Core`] consumes a stream of [`TraceRecord`]s. Each record says "after
//! `gap` non-memory instructions, perform this read/write". Non-memory
//! instructions and writes complete a fixed pipeline depth after fetch;
//! reads complete when the memory system returns data. Instructions retire
//! in order, up to `retire_width` per CPU cycle; fetch stalls when the ROB
//! or the memory controller's queues are full.
//!
//! The memory system is abstracted as a [`RequestSink`] so the model can be
//! unit-tested against toy memories and composed with the real controller.
//!
//! ## Example
//!
//! ```
//! use cpu_model::{Core, CoreParams, InstantMemory, TraceRecord};
//! use dram_device::{PhysAddr, ReqKind};
//!
//! let trace = vec![TraceRecord::new(3, ReqKind::Read, PhysAddr(0x40))];
//! let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
//! let mut mem = InstantMemory::new(10); // every read takes 10 CPU cycles
//! let mut cycle = 0;
//! while !core.done() {
//!     mem.deliver(cycle, &mut core);
//!     core.cycle(cycle, &mut mem);
//!     cycle += 1;
//! }
//! assert_eq!(core.stats().committed, 4); // 3 gap instructions + 1 read
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod core_model;
mod instant;
mod stats;
mod trace;
mod trace_io;

pub use core_model::{Core, CoreParams, CoreWait, RequestSink};
pub use instant::InstantMemory;
pub use stats::CoreStats;
pub use trace::TraceRecord;
pub use trace_io::{read_trace, write_trace, ParseTraceError};

/// CPU cycles per memory-bus cycle (3.2 GHz core / 800 MHz bus).
pub const CPU_PER_MEM_CYCLE: u64 = 4;

//! # mcr-serve
//!
//! A concurrent simulation service for the MCR-DRAM simulator: a
//! std-only TCP server speaking line-delimited JSON, feeding a bounded
//! job queue drained by a worker pool built on the `mcr-dram` sweep
//! engine.
//!
//! The service contract (DESIGN.md §5g):
//!
//! * **Admission control** — oversized jobs are rejected (413) before
//!   work is built; a full queue sheds load (429) instead of growing.
//! * **Deadlines** — `deadline_ms` runs the job under a cooperative
//!   [`mcr_dram::CancelToken`]; expiry answers `"status": "timeout"`.
//! * **Graceful shutdown** — `{"cmd": "shutdown"}` drains queued and
//!   in-flight jobs (each still delivers its response), rejects new
//!   ones (503), then stops the acceptor and workers.
//! * **Memoization** — results are cached across requests by the
//!   stable config key, in process or in the persistent `mcr-store`
//!   tier ([`ServeConfig::cache_dir`]) every worker shares; a repeated
//!   request never re-simulates.
//! * **Determinism** — a `run` request builds the exact two-point
//!   sweep the `mcr_sim` CLI runs locally, so remote and local results
//!   are byte-identical (`tests/sweep_determinism.rs` enforces it).
//!
//! ```no_run
//! use mcr_serve::{Client, ServeConfig, Server};
//! use sim_json::Json;
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let reply = client.request(&Json::parse(
//!     r#"{"cmd": "run", "workload": "libq", "mode": "4/4x/100", "len": 2000}"#,
//! )?)?;
//! assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
//! client.request(&Json::parse(r#"{"cmd": "shutdown"}"#)?)?;
//! let telemetry = handle.join().unwrap();
//! assert_eq!(telemetry.completed.get(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod client;
pub mod protocol;
mod server;
mod telemetry;

pub use client::{Client, ClientError};
pub use protocol::{JobRequest, JobSpec, ProtocolError, Request, RunSpec};
pub use server::{ServeConfig, Server};
pub use telemetry::{telemetry_json, ServeTelemetry};

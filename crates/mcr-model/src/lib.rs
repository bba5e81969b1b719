//! # mcr-model
//!
//! Bounded exhaustive model checking for the MCR-DRAM protocol stack,
//! plus a wake-soundness certifier for the event-wheel controller core.
//!
//! Two halves, both surfaced through the `mcr-lint -- model` pass:
//!
//! * [`explore()`] — enumerates every reachable abstract state of a
//!   small-but-complete device/controller machine ([`Machine`]): bank
//!   phase, `[M/Kx]` restore tier, retention-margin bucket, refresh
//!   backlog, and guardband degrade rung. Every candidate command is
//!   applied in every state against twin protocol views built from
//!   [`dram_device::proto`]; disagreements with the always-correct
//!   reference view, refresh-deadline unreachability, and guardband
//!   ladder contract breaches become [`Finding`]s. Command-level findings
//!   carry a greedily minimized, replayable counterexample script
//!   ([`script`]) cross-checked against [`dram_device::audit_commands`].
//! * [`certify()`] — proves the event wheel never overshoots: for every
//!   quiet state reached by a deterministic scenario matrix, the claimed
//!   [`mem_controller::MemoryController::next_event`] edge is validated
//!   by differentially micro-stepping a dense twin controller across the
//!   whole skip span; any observable activity before the edge is a
//!   wake-soundness violation attributed to its
//!   [`mem_controller::EdgeSource`].
//!
//! [`teeth`] proves the checker is live by seeding a one-cycle error into
//! the scheduler's timing table ([`SeededBug`]) and demanding a minimized
//! counterexample of at most six commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod explore;
pub mod machine;
pub mod script;

pub use certify::{certify, CertifyReport};
pub use explore::{explore, teeth, ExploreReport, TeethProof};
pub use machine::{Action, Machine, MachineState, ModelSpec, SeededBug, Step};
pub use script::{parse_script, replay_script, script_from_commands, ParsedScript};

/// One model-checker finding: an invariant the enumerated machine (or the
/// event wheel) can be driven to break.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable finding code (`model/<rule>`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Replayable counterexample script, when the finding is a command
    /// stream the replay auditor confirms (see [`script`]).
    pub script: Option<String>,
    /// Whether the finding is an error (protocol violation) or a warning
    /// (modeling-level concern).
    pub error: bool,
}

impl Finding {
    /// An error-severity finding without a script.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Finding {
            code,
            message: message.into(),
            script: None,
            error: true,
        }
    }
}

//! # mcr-lint
//!
//! Static analysis for the MCR-DRAM reproduction (Choi et al., ISCA 2015):
//! four passes that check, without running full experiments, that the
//! workspace still encodes the paper's timing rules correctly.
//!
//! * [`config_check`] — validates every [`dram_device::TimingSet`] and MCR
//!   mode table against the JEDEC cross-field inequalities and the
//!   MCR-specific rules of Table 3 / Sec. 4 (Kx `tRCD` relaxations,
//!   `M ≤ K` retention bounds, collision-free `L%reg` region maps).
//! * [`audit`] — replay front-end for the command-stream protocol auditor
//!   that lives in `dram-device` ([`dram_device::audit`]), plus a
//!   refresh-schedule replay that drives the Fig. 9 Refresh-Skipping
//!   policy against the Fig. 8 refresh counter and checks per-MCR
//!   retention gaps.
//! * [`srclint`] — a textual lint over `crates/*/src`: no
//!   `unwrap`/`expect` outside test code, no truncating casts in timing
//!   arithmetic, no panicking paths inside sweep worker closures, no
//!   `MAX`-sentinel defaults on event-wheel edge math.
//! * [`model`] — the bounded-exhaustive protocol model checker and
//!   event-wheel wake-soundness certifier (crate `mcr-model`): every
//!   reachable abstract state checked against the invariant catalog,
//!   seeded-bug teeth proofs, dense-twin certification of every quiet
//!   span, and replay of the shipped counterexample scripts.
//!
//! The binary (`cargo run -p mcr-lint -- [--json]
//! [src|config|audit|model|all]`) runs the passes and exits nonzero when
//! any error-level diagnostic is produced, which is what `make check`,
//! `make audit` and `make model` hook into. `--json` swaps the human
//! report for one machine-readable object.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod audit;
pub mod config_check;
pub mod model;
pub mod srclint;

use std::fmt;

/// How serious a lint finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// The workspace (or a configuration) violates a paper/JEDEC rule.
    Error,
    /// Suspicious but not provably wrong; reported, does not fail the gate.
    Warning,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Error => f.write_str("error"),
            Level::Warning => f.write_str("warning"),
        }
    }
}

/// One structured finding from any of the three passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub level: Level,
    /// Stable rule identifier, `pass/rule` (e.g. `timing/tras-window`,
    /// `src/truncating-cast`).
    pub code: &'static str,
    /// Human-readable description of the specific violation.
    pub message: String,
    /// Where the rule comes from: the paper section / table or the JEDEC
    /// constraint the rule encodes.
    pub citation: &'static str,
    /// What was checked: a `file:line` for source lints, a config/table
    /// name for static checks.
    pub location: String,
}

impl Diagnostic {
    /// An error-level diagnostic.
    pub fn error(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
        citation: &'static str,
    ) -> Self {
        Diagnostic {
            level: Level::Error,
            code,
            message: message.into(),
            citation,
            location: location.into(),
        }
    }

    /// A warning-level diagnostic.
    pub fn warning(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
        citation: &'static str,
    ) -> Self {
        Diagnostic {
            level: Level::Warning,
            code,
            message: message.into(),
            citation,
            location: location.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} [{}]",
            self.level, self.code, self.location, self.message, self.citation
        )
    }
}

/// True when any diagnostic in `diags` is an [`Level::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.level == Level::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_code_location_and_citation() {
        let d = Diagnostic::error("timing/trc-sum", "ddr3-1600", "tRC mismatch", "Table 4");
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("timing/trc-sum"));
        assert!(s.contains("ddr3-1600"));
        assert!(s.contains("Table 4"));
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let w = Diagnostic::warning("x/y", "here", "hm", "Sec. 0");
        assert!(!has_errors(std::slice::from_ref(&w)));
        let e = Diagnostic::error("x/y", "here", "bad", "Sec. 0");
        assert!(has_errors(&[w, e]));
    }
}

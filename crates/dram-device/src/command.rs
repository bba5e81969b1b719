//! DRAM command and request vocabulary.

use crate::addr::DramAddress;
use crate::timing::{Cycle, RowTimingClass};
use std::fmt;

/// Whether a memory request reads or writes a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Load: the requesting instruction blocks retirement until data returns.
    Read,
    /// Store: fire-and-forget from the core's perspective (write buffered).
    Write,
}

impl fmt::Display for ReqKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReqKind::Read => f.write_str("R"),
            ReqKind::Write => f.write_str("W"),
        }
    }
}

/// The kind of a DRAM bus command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Open a row in a bank (load it into the row buffer).
    Activate,
    /// Column read from the open row.
    Read,
    /// Column write into the open row.
    Write,
    /// Close the open row of one bank.
    Precharge,
    /// Refresh a batch of rows in every bank of a rank.
    Refresh,
    /// MRS-style MCR mode change (paper Sec. 4.4). A channel-level marker
    /// in the audited stream; carries no bank/row coordinates.
    ModeChange,
}

impl fmt::Display for CommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommandKind::Activate => "ACT",
            CommandKind::Read => "RD",
            CommandKind::Write => "WR",
            CommandKind::Precharge => "PRE",
            CommandKind::Refresh => "REF",
            CommandKind::ModeChange => "MRS",
        };
        f.write_str(s)
    }
}

/// A fully-specified DRAM command as placed on the command bus.
///
/// This is primarily a trace artifact: the scheduler calls the typed
/// methods on [`crate::Channel`] directly, and the channel feeds each
/// `Command` it issues to the protocol auditor and to its opt-in command
/// trace, the one record of the issued stream (read by tests and
/// `mcr_sim --trace-out`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Command kind.
    pub kind: CommandKind,
    /// Target coordinates (for `Refresh`, only `rank` is meaningful).
    pub addr: DramAddress,
    /// Issue cycle.
    pub cycle: Cycle,
    /// Row timing class used (meaningful for `Activate`).
    pub class: RowTimingClass,
    /// True for RDA/WRA: the bank auto-precharges after this CAS.
    pub auto_pre: bool,
    /// Fast-Refresh tRFC override (meaningful for `Refresh`, Table 3).
    pub t_rfc: Option<u32>,
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {} {}", self.cycle, self.kind, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip_is_informative() {
        let c = Command {
            kind: CommandKind::Activate,
            addr: DramAddress {
                channel: 0,
                rank: 1,
                bank: 3,
                row: 42,
                col: 0,
            },
            cycle: 100,
            class: RowTimingClass(2),
            auto_pre: false,
            t_rfc: None,
        };
        let s = c.to_string();
        assert!(s.contains("ACT"));
        assert!(s.contains("row42"));
        assert!(s.contains("@100"));
    }

    #[test]
    fn req_kind_display() {
        assert_eq!(ReqKind::Read.to_string(), "R");
        assert_eq!(ReqKind::Write.to_string(), "W");
    }
}

//! Replayable counterexample scripts.
//!
//! A minimized counterexample is shipped as a small line-oriented text
//! format that is self-contained: it names the expected violation class,
//! the geometry, the registered row-timing classes, and the command
//! stream. [`replay_script`] rebuilds an [`AuditConfig`] from the header
//! and re-runs the independent replay auditor, so a shipped script keeps
//! reproducing its violation even if the model that found it changes
//! (`tests/counterexamples/` is replayed by an integration test).
//! Command cycles are at most 2^48 and class timings at most 2^20, so no
//! script that parses can overflow the replay.
//!
//! ```text
//! # seeded tRP off-by-one: re-ACT one cycle early after PRE
//! expect: TrcViolation
//! geometry: ranks=1 banks=2
//! rows-per-bank: 64
//! classes: 11/28 8/18
//! retention-limit: 400        # optional
//! cmd: ACT rank0 bank0 row0 class0 @0
//! cmd: PRE rank0 bank0 @28
//! cmd: ACT rank0 bank0 row0 class0 @38
//! ```

use crate::machine::ModelSpec;
use dram_device::{
    audit_commands, AuditConfig, Command, CommandKind, Cycle, DramAddress, RowTiming,
    RowTimingClass, TimingSet, ViolationClass,
};

/// A parsed counterexample script.
#[derive(Debug, Clone)]
pub struct ParsedScript {
    /// The violation class the replay must reproduce.
    pub expect: ViolationClass,
    /// Ranks per channel.
    pub ranks: u8,
    /// Banks per rank.
    pub banks: u8,
    /// Refresh scaling class selector for [`TimingSet::ddr3_1600`].
    pub rows_per_bank: u64,
    /// Registered row-timing classes (index = `RowTimingClass.0`).
    pub classes: Vec<RowTiming>,
    /// Optional retention budget (arms the auditor's retention rule).
    pub retention_limit: Option<Cycle>,
    /// The command stream.
    pub commands: Vec<Command>,
}

fn class_name(class: ViolationClass) -> String {
    format!("{class:?}")
}

fn class_from_name(name: &str) -> Option<ViolationClass> {
    use ViolationClass::*;
    let all = [
        TrcdViolation,
        TrasViolation,
        TrcViolation,
        TrrdViolation,
        TfawViolation,
        TrfcViolation,
        CasBankMismatch,
        ActOnOpenBank,
        RefreshBankOpen,
        RefreshStarvation,
        ModeChangeBankOpen,
        CloneWriteCollision,
        BusConflict,
        UnknownTimingClass,
        RetentionViolation,
        RetentionEscape,
    ];
    all.into_iter().find(|c| format!("{c:?}") == name)
}

/// Serializes a command stream into a replayable script reproducing
/// `expect` under the reference view of `spec`.
pub fn script_from_commands(expect: ViolationClass, cmds: &[Command], spec: &ModelSpec) -> String {
    let mut out = String::new();
    out.push_str(&format!("expect: {}\n", class_name(expect)));
    out.push_str(&format!(
        "geometry: ranks=1 banks={}\n",
        crate::machine::BANKS
    ));
    out.push_str("rows-per-bank: 64\n");
    let classes: Vec<String> = spec
        .ref_classes
        .iter()
        .map(|c| format!("{}/{}", c.t_rcd, c.t_ras))
        .collect();
    out.push_str(&format!("classes: {}\n", classes.join(" ")));
    if expect == ViolationClass::RetentionViolation {
        out.push_str(&format!("retention-limit: {}\n", spec.ref_retention_limit));
    }
    for c in cmds {
        out.push_str(&render_command(c));
        out.push('\n');
    }
    out
}

fn render_command(c: &Command) -> String {
    let mut line = format!("cmd: {} rank{} bank{}", c.kind, c.addr.rank, c.addr.bank);
    match c.kind {
        CommandKind::Activate => {
            line.push_str(&format!(" row{} class{}", c.addr.row, c.class.0));
        }
        CommandKind::Read | CommandKind::Write => {
            line.push_str(&format!(" row{} col{}", c.addr.row, c.addr.col));
            if c.auto_pre {
                line.push_str(" auto");
            }
        }
        CommandKind::Refresh => {
            if let Some(t) = c.t_rfc {
                line.push_str(&format!(" trfc{t}"));
            }
        }
        CommandKind::Precharge | CommandKind::ModeChange => {}
    }
    line.push_str(&format!(" @{}", c.cycle));
    line
}

fn parse_err(line_no: usize, what: &str) -> String {
    format!("script line {line_no}: {what}")
}

/// Largest command cycle a script may name: far past any simulated run,
/// and low enough that the auditor's sums of a cycle and timing
/// parameters cannot overflow.
const MAX_SCRIPT_CYCLE: Cycle = 1 << 48;

/// Largest class timing (tRCD, tRAS) a script may name, so the auditor's
/// `tRAS + tRP` cannot overflow.
const MAX_SCRIPT_TIMING: u32 = 1 << 20;

/// Parses `v` as a number no larger than `max`.
fn parse_bounded<T: std::str::FromStr + PartialOrd>(
    v: &str,
    max: T,
    no: usize,
    what: &str,
) -> Result<T, String> {
    match v.parse() {
        Ok(n) if n <= max => Ok(n),
        Ok(_) => Err(parse_err(no, &format!("{what} out of range"))),
        Err(_) => Err(parse_err(no, &format!("bad {what}"))),
    }
}

/// Parses a counterexample script.
pub fn parse_script(text: &str) -> Result<ParsedScript, String> {
    let mut expect = None;
    let mut ranks: u8 = 1;
    let mut banks: u8 = 1;
    let mut rows_per_bank: u64 = 64;
    let mut classes: Vec<RowTiming> = Vec::new();
    let mut retention_limit = None;
    let mut commands = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, rest)) = line.split_once(':') else {
            return Err(parse_err(no, "expected `key: value`"));
        };
        let rest = rest.trim();
        match key.trim() {
            "expect" => {
                expect = Some(
                    class_from_name(rest)
                        .ok_or_else(|| parse_err(no, "unknown violation class"))?,
                );
            }
            "geometry" => {
                for tok in rest.split_whitespace() {
                    if let Some(v) = tok.strip_prefix("ranks=") {
                        ranks = v.parse().map_err(|_| parse_err(no, "bad ranks"))?;
                    } else if let Some(v) = tok.strip_prefix("banks=") {
                        banks = v.parse().map_err(|_| parse_err(no, "bad banks"))?;
                    } else {
                        return Err(parse_err(no, "unknown geometry field"));
                    }
                }
            }
            "rows-per-bank" => {
                rows_per_bank = rest.parse().map_err(|_| parse_err(no, "bad row count"))?;
            }
            "classes" => {
                for tok in rest.split_whitespace() {
                    let Some((rcd, ras)) = tok.split_once('/') else {
                        return Err(parse_err(no, "class must be tRCD/tRAS"));
                    };
                    classes.push(RowTiming {
                        t_rcd: parse_bounded(rcd, MAX_SCRIPT_TIMING, no, "tRCD")?,
                        t_ras: parse_bounded(ras, MAX_SCRIPT_TIMING, no, "tRAS")?,
                    });
                }
            }
            "retention-limit" => {
                retention_limit = Some(
                    rest.parse()
                        .map_err(|_| parse_err(no, "bad retention limit"))?,
                );
            }
            "cmd" => commands.push(parse_command(rest, no)?),
            other => return Err(parse_err(no, &format!("unknown key `{other}`"))),
        }
    }
    let expect = expect.ok_or("script has no `expect:` header")?;
    if commands.is_empty() {
        return Err("script has no commands".to_string());
    }
    Ok(ParsedScript {
        expect,
        ranks,
        banks,
        rows_per_bank,
        classes,
        retention_limit,
        commands,
    })
}

fn parse_command(rest: &str, no: usize) -> Result<Command, String> {
    let mut toks = rest.split_whitespace();
    let kind = match toks.next() {
        Some("ACT") => CommandKind::Activate,
        Some("RD") => CommandKind::Read,
        Some("WR") => CommandKind::Write,
        Some("PRE") => CommandKind::Precharge,
        Some("REF") => CommandKind::Refresh,
        Some("MRS") => CommandKind::ModeChange,
        _ => return Err(parse_err(no, "unknown command kind")),
    };
    let mut cmd = Command {
        kind,
        addr: DramAddress {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 0,
            col: 0,
        },
        cycle: 0,
        class: RowTimingClass(0),
        auto_pre: false,
        t_rfc: None,
    };
    let mut have_cycle = false;
    for tok in toks {
        if let Some(v) = tok.strip_prefix('@') {
            cmd.cycle = parse_bounded(v, MAX_SCRIPT_CYCLE, no, "cycle")?;
            have_cycle = true;
        } else if let Some(v) = tok.strip_prefix("rank") {
            cmd.addr.rank = v.parse().map_err(|_| parse_err(no, "bad rank"))?;
        } else if let Some(v) = tok.strip_prefix("bank") {
            cmd.addr.bank = v.parse().map_err(|_| parse_err(no, "bad bank"))?;
        } else if let Some(v) = tok.strip_prefix("row") {
            cmd.addr.row = v.parse().map_err(|_| parse_err(no, "bad row"))?;
        } else if let Some(v) = tok.strip_prefix("col") {
            cmd.addr.col = v.parse().map_err(|_| parse_err(no, "bad col"))?;
        } else if let Some(v) = tok.strip_prefix("class") {
            cmd.class = RowTimingClass(v.parse().map_err(|_| parse_err(no, "bad class"))?);
        } else if let Some(v) = tok.strip_prefix("trfc") {
            cmd.t_rfc = Some(v.parse().map_err(|_| parse_err(no, "bad tRFC"))?);
        } else if tok == "auto" {
            cmd.auto_pre = true;
        } else {
            return Err(parse_err(no, &format!("unknown token `{tok}`")));
        }
    }
    if !have_cycle {
        return Err(parse_err(no, "command has no @cycle"));
    }
    Ok(cmd)
}

/// Replays a parsed script through the independent auditor and checks the
/// expected violation class is reproduced. Returns the violation count on
/// success.
pub fn replay_script(script: &ParsedScript) -> Result<usize, String> {
    let mut cfg = AuditConfig::new(
        TimingSet::ddr3_1600(script.rows_per_bank),
        script.ranks,
        script.banks,
    );
    if !script.classes.is_empty() {
        cfg.classes = script.classes.clone();
    }
    cfg.retention_limit = script.retention_limit;
    let violations = audit_commands(&script.commands, &cfg);
    if violations.iter().any(|v| v.class == script.expect) {
        Ok(violations.len())
    } else {
        Err(format!(
            "expected {:?}, audit produced {:?}",
            script.expect,
            violations.iter().map(|v| v.class).collect::<Vec<_>>()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ModelSpec;

    fn sample_commands() -> Vec<Command> {
        let addr = |bank: u8, row: u64| DramAddress {
            channel: 0,
            rank: 0,
            bank,
            row,
            col: 0,
        };
        vec![
            Command {
                kind: CommandKind::Activate,
                addr: addr(0, 0),
                cycle: 0,
                class: RowTimingClass(0),
                auto_pre: false,
                t_rfc: None,
            },
            Command {
                kind: CommandKind::Precharge,
                addr: addr(0, 0),
                cycle: 28,
                class: RowTimingClass(0),
                auto_pre: false,
                t_rfc: None,
            },
            Command {
                kind: CommandKind::Activate,
                addr: addr(0, 0),
                cycle: 38,
                class: RowTimingClass(0),
                auto_pre: false,
                t_rfc: None,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_commands() {
        let spec = ModelSpec::paper();
        let text = script_from_commands(ViolationClass::TrcViolation, &sample_commands(), &spec);
        let parsed = parse_script(&text).expect("parse");
        assert_eq!(parsed.expect, ViolationClass::TrcViolation);
        assert_eq!(parsed.commands, sample_commands());
        assert_eq!(parsed.classes.len(), spec.ref_classes.len());
    }

    #[test]
    fn replay_confirms_a_true_violation_and_rejects_a_legal_stream() {
        let spec = ModelSpec::paper();
        let text = script_from_commands(ViolationClass::TrcViolation, &sample_commands(), &spec);
        let parsed = parse_script(&text).expect("parse");
        assert!(replay_script(&parsed).is_ok());
        let mut legal = parsed.clone();
        legal.commands[2].cycle = 39; // tRP satisfied
        assert!(replay_script(&legal).is_err());
    }

    #[test]
    fn parser_rejects_malformed_scripts() {
        assert!(parse_script("").is_err());
        assert!(parse_script("expect: NotAClass\ncmd: ACT @0\n").is_err());
        assert!(parse_script("expect: TrcViolation\n").is_err());
        assert!(parse_script("expect: TrcViolation\ncmd: ACT bank0 row0\n").is_err());
        assert!(parse_script("expect: TrcViolation\nwat: 1\ncmd: ACT @0\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\n\nexpect: ActOnOpenBank # trailing\n\
                    cmd: ACT rank0 bank0 row0 class0 @0\n\
                    cmd: ACT rank0 bank0 row0 class0 @5\n";
        let parsed = parse_script(text).expect("parse");
        assert_eq!(parsed.commands.len(), 2);
        // The auditor classifies an ACT landing on an open bank as
        // ActOnOpenBank (the tRC check only applies to closed banks).
        assert!(replay_script(&parsed).is_ok());
    }
}

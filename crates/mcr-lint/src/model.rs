//! The `model` pass: bounded-exhaustive protocol model checking and
//! event-wheel wake-soundness certification, backed by the `mcr-model`
//! crate.
//!
//! Four stages, all mandatory:
//!
//! 1. **Explore** — enumerate every reachable abstract state of the
//!    device/controller model under [`mcr_model::ModelSpec::paper`] and
//!    check the full invariant catalog (JEDEC cross-field windows,
//!    Table 3 Kx rules, M ≤ K retention bounds, guardband ladder
//!    monotonicity, refresh-deadline conservation). Any violation is
//!    minimized and emitted with a replayable command script.
//! 2. **Teeth** — seed known off-by-one bugs into the scheduler view
//!    ([`mcr_model::SeededBug`]) and demand the sweep catch each with a
//!    minimized counterexample of at most six commands. A seeded bug
//!    the sweep misses means the checker lost its teeth.
//! 3. **Certify** — differentially validate every event-wheel span
//!    ([`mcr_model::certify()`]), after quiet and after active cycles: a
//!    dense twin ticks every cycle the wheel skips; observable work
//!    before the claimed wake is a wake-soundness violation attributed
//!    to its edge source.
//! 4. **Replay** — re-run every shipped script under
//!    `tests/counterexamples/`; a script that stops reproducing its
//!    violation class is stale and fails the gate.
//!
//! The pass writes `BENCH_model.json` (states, states/s, elapsed,
//! certification coverage) at the repo root, in the
//! `{"metrics": {name: {"value", "unit"}}}` shape of every bench file,
//! and honors a wall-clock budget via `MCR_MODEL_BUDGET_MS` (default
//! 120000): exceeding it is itself an error, so the gate cannot
//! silently grow unbounded. Certification runs `CERTIFY_BURSTS` (10)
//! request bursts per scenario schedule.

use crate::{Diagnostic, Level};
use mcr_model::{certify, explore, parse_script, replay_script, teeth, ModelSpec, SeededBug};
use sim_json::Json;
use std::path::Path;
use std::time::Instant;

/// Where the pass's findings point readers: the invariant catalog and
/// lattice definition live in DESIGN.md §5i.
const CITATION: &str = "mcr-model invariant catalog (DESIGN.md §5i)";

/// Minimum deduplicated abstract states the sweep must reach; fewer
/// means the abstraction collapsed and the "exhaustive" claim is hollow.
const MIN_STATES: usize = 10_000;

/// Maximum commands in a teeth-proof counterexample.
const MAX_TEETH_COMMANDS: usize = 6;

/// Request bursts per certification scenario schedule.
const CERTIFY_BURSTS: usize = 10;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn finding_diag(stage: &str, f: &mcr_model::Finding) -> Diagnostic {
    let mut message = f.message.clone();
    if let Some(script) = &f.script {
        message.push_str("\n  replayable counterexample:\n");
        for line in script.lines() {
            message.push_str("    ");
            message.push_str(line);
            message.push('\n');
        }
    }
    if f.error {
        Diagnostic::error(f.code, format!("model:{stage}"), message, CITATION)
    } else {
        Diagnostic::warning(f.code, format!("model:{stage}"), message, CITATION)
    }
}

/// Replays every `*.script` under `root/tests/counterexamples/`.
fn replay_shipped(root: &Path, diags: &mut Vec<Diagnostic>) -> usize {
    let dir = root.join("tests/counterexamples");
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            diags.push(Diagnostic::error(
                "model/counterexample-stale",
                dir.display().to_string(),
                format!("cannot read shipped counterexamples: {e}"),
                CITATION,
            ));
            return 0;
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "script"))
        .collect();
    paths.sort();
    let mut replayed = 0;
    for path in &paths {
        let loc = path.display().to_string();
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_script(&text))
            .and_then(|parsed| replay_script(&parsed));
        match outcome {
            Ok(violations) if violations > 0 => replayed += 1,
            Ok(_) => diags.push(Diagnostic::error(
                "model/counterexample-stale",
                loc,
                "shipped counterexample no longer reproduces its violation class",
                CITATION,
            )),
            Err(e) => diags.push(Diagnostic::error(
                "model/counterexample-stale",
                loc,
                format!("shipped counterexample failed to replay: {e}"),
                CITATION,
            )),
        }
    }
    replayed
}

/// Runs the model pass rooted at `root` (the workspace checkout) and
/// returns its diagnostics. Writes `BENCH_model.json` beside `Cargo.toml`
/// as a side effect; failure to write the bench file is a warning, not
/// an error (read-only checkouts still get the full gate).
pub fn run(root: &Path) -> Vec<Diagnostic> {
    let budget_ms = env_u64("MCR_MODEL_BUDGET_MS", 120_000);
    let started = Instant::now();
    let mut diags = Vec::new();

    // Stage 1: exhaustive sweep of the correct spec.
    let sweep_started = Instant::now();
    let report = explore(ModelSpec::paper());
    let sweep_elapsed = sweep_started.elapsed();
    for f in &report.findings {
        diags.push(finding_diag("explore", f));
    }
    if report.states < MIN_STATES {
        diags.push(Diagnostic::error(
            "model/state-coverage",
            "model:explore",
            format!(
                "abstract sweep reached only {} deduplicated states (< {MIN_STATES}); \
                 the quotient collapsed and exhaustiveness is not credible",
                report.states
            ),
            CITATION,
        ));
    }
    if report.capped {
        diags.push(Diagnostic::warning(
            "model/state-cap",
            "model:explore",
            format!(
                "sweep stopped at the {}-state cap before exhausting the quotient",
                ModelSpec::paper().max_states
            ),
            CITATION,
        ));
    }

    // Stage 2: the checker must still catch seeded bugs, minimized.
    let mut teeth_commands = Vec::new();
    for bug in [SeededBug::TrpOffByOne, SeededBug::TrcdOffByOne] {
        match teeth(bug, MAX_TEETH_COMMANDS) {
            Ok(proof) => teeth_commands.push((format!("{bug:?}"), proof.commands as u64)),
            Err(e) => diags.push(Diagnostic::error(
                "model/teeth",
                "model:teeth",
                format!("seeded bug {bug:?} was not caught: {e}"),
                CITATION,
            )),
        }
    }

    // Stage 3: wake-soundness certification of the event wheel.
    let cert = certify(CERTIFY_BURSTS);
    for f in &cert.findings {
        diags.push(finding_diag("certify", f));
    }
    if cert.findings.is_empty()
        && (cert.quiet_states == 0 || cert.active_states == 0 || cert.active_spans == 0)
    {
        diags.push(Diagnostic::error(
            "model/certify-coverage",
            "model:certify",
            "certification ran but observed no quiet or post-activity states/spans; \
             the scenario matrix no longer exercises the event wheel",
            CITATION,
        ));
    }

    // Stage 4: shipped counterexamples must still reproduce.
    let replayed = replay_shipped(root, &mut diags);

    let elapsed = started.elapsed();
    let elapsed_ms = elapsed.as_millis() as u64;
    if elapsed_ms > budget_ms {
        diags.push(Diagnostic::error(
            "model/budget",
            "model:budget",
            format!(
                "model pass took {elapsed_ms} ms, over the {budget_ms} ms budget \
                 (MCR_MODEL_BUDGET_MS); shrink the spec or raise the budget deliberately"
            ),
            CITATION,
        ));
    }

    let sweep_secs = sweep_elapsed.as_secs_f64();
    let states_per_sec = if sweep_secs > 0.0 {
        report.states as f64 / sweep_secs
    } else {
        0.0
    };
    let teeth = teeth_commands
        .into_iter()
        .map(|(bug, commands)| (format!("teeth.{bug}"), commands as f64, "commands"));
    let metrics = [
        ("states", report.states as f64, "count"),
        ("transitions", report.transitions as f64, "count"),
        ("states_per_s", states_per_sec, "states/s"),
        ("sweep_elapsed_ms", sweep_elapsed.as_millis() as f64, "ms"),
        ("elapsed_ms", elapsed_ms as f64, "ms"),
        ("budget_ms", budget_ms as f64, "ms"),
        ("certify.scenarios", cert.scenarios as f64, "count"),
        ("certify.quiet_states", cert.quiet_states as f64, "count"),
        ("certify.active_states", cert.active_states as f64, "count"),
        ("certify.spans", cert.spans as f64, "count"),
        ("certify.active_spans", cert.active_spans as f64, "count"),
        (
            "certify.skipped_cycles",
            cert.skipped_cycles as f64,
            "count",
        ),
        ("counterexamples_replayed", replayed as f64, "count"),
    ]
    .map(|(name, value, unit)| (name.to_string(), value, unit))
    .into_iter()
    .chain(teeth)
    .map(|(name, value, unit)| {
        let entry = Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))]);
        (format!("model.{name}"), entry)
    })
    .collect();
    let bench = Json::obj([("metrics", Json::Obj(metrics))]);
    let bench_path = root.join("BENCH_model.json");
    if let Err(e) = std::fs::write(&bench_path, format!("{bench}\n")) {
        diags.push(Diagnostic::warning(
            "model/bench-io",
            bench_path.display().to_string(),
            format!("cannot write bench file: {e}"),
            CITATION,
        ));
    }
    diags
}

/// Serializes diagnostics the way the binary's `--json` flag emits them:
/// a single object with per-level counts and the full finding list.
pub fn diagnostics_to_json(passes: &[&str], diags: &[Diagnostic]) -> Json {
    let errors = diags.iter().filter(|d| d.level == Level::Error).count();
    Json::obj([
        (
            "passes",
            Json::Arr(passes.iter().map(|p| Json::str(*p)).collect()),
        ),
        ("errors", Json::from(errors as u64)),
        ("warnings", Json::from((diags.len() - errors) as u64)),
        (
            "diagnostics",
            Json::Arr(
                diags
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("level", Json::str(d.level.to_string())),
                            ("code", Json::str(d.code)),
                            ("location", Json::str(d.location.clone())),
                            ("message", Json::str(d.message.clone())),
                            ("citation", Json::str(d.citation)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_serialization_is_stable_and_reparses() {
        let diags = vec![
            Diagnostic::error("model/teeth", "model:teeth", "missed bug", CITATION),
            Diagnostic::warning("model/state-cap", "model:explore", "capped", CITATION),
        ];
        let doc = diagnostics_to_json(&["model"], &diags);
        let text = doc.to_string();
        let reparsed = Json::parse(&text).expect("round-trip");
        assert_eq!(reparsed.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(reparsed.get("warnings").and_then(Json::as_u64), Some(1));
        let list = reparsed
            .get("diagnostics")
            .and_then(Json::as_array)
            .expect("array");
        assert_eq!(list.len(), 2);
        assert_eq!(
            list[0].get("code").and_then(Json::as_str),
            Some("model/teeth")
        );
    }

    #[test]
    fn finding_scripts_are_indented_into_the_message() {
        let f = mcr_model::Finding {
            code: "model/protocol-violation",
            message: "tRC window broken".to_string(),
            script: Some("expect: TrcViolation\ncmd: ACT rank0 bank0 row0 class0 @0".to_string()),
            error: true,
        };
        let d = finding_diag("explore", &f);
        assert_eq!(d.level, Level::Error);
        assert!(d.message.contains("replayable counterexample"));
        assert!(d.message.contains("    cmd: ACT"));
    }
}

//! `mcr-lint` — the workspace's static-analysis gate.
//!
//! ```text
//! cargo run -p mcr-lint --                 # src + config (the make check passes)
//! cargo run -p mcr-lint -- src            # source lint only
//! cargo run -p mcr-lint -- config         # timing/mode-table/region checks only
//! cargo run -p mcr-lint -- audit          # refresh replay + full-suite protocol audit
//! cargo run -p mcr-lint -- model          # bounded (state-capped) model check + wake certification
//! cargo run -p mcr-lint -- all            # everything
//! cargo run -p mcr-lint -- --json model   # machine-readable diagnostics on stdout
//! ```
//!
//! Exits 0 when no error-level diagnostic was produced, 1 otherwise, 2 on
//! usage/I-O problems. The `audit` pass needs the online auditor compiled
//! in (`--features protocol-audit`, or any debug build); its suite run
//! replays `SUITE_TRACE_LEN` (4000) requests per point. The `model` pass
//! honors `MCR_MODEL_BUDGET_MS` and writes `BENCH_model.json` at the repo
//! root. With `--json` the human lines are replaced by one JSON object
//! (`{passes, errors, warnings, diagnostics: [{level, code, location,
//! message, citation}]}`); exit codes are unchanged.

use mcr_dram::{McrMode, Mechanisms, RegionMap};
use mcr_lint::{audit, config_check, has_errors, model, srclint, Diagnostic, Level};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workspace root, resolved at compile time from this crate's
/// manifest directory (`crates/mcr-lint` -> two levels up).
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

/// Requests per point in the `audit` pass's full-system suite.
const SUITE_TRACE_LEN: usize = 4000;

/// The Fig. 9 refresh-schedule replays the `audit` pass always runs
/// (these need no armed auditor: they replay the policy directly).
fn refresh_replays() -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let wiring = dram_device::RefreshWiring::Reversed;
    for (m, k, l) in [
        (1u32, 2u32, 1.0),
        (2, 2, 0.5),
        (1, 4, 1.0),
        (2, 4, 1.0),
        (4, 4, 0.25),
    ] {
        let Ok(mode) = McrMode::new(m, k, l) else {
            unreachable!("replay modes are Table 1 literals")
        };
        diags.extend(audit::audit_refresh_schedule(
            &format!("replay[{m}/{k}x/{l}]"),
            &RegionMap::single(mode),
            Mechanisms::all(),
            wiring,
            12,
            3,
        ));
    }
    diags.extend(audit::audit_refresh_schedule(
        "replay[combined 4x+2x]",
        &RegionMap::combined(4, 0.25, 2, 0.25),
        Mechanisms::all(),
        wiring,
        12,
        3,
    ));
    diags
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut passes: Vec<&str> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                eprintln!("mcr-lint: unknown flag `{flag}`");
                eprintln!("usage: mcr-lint [--json] [src|config|audit|model|all]...");
                return ExitCode::from(2);
            }
            pass => passes.push(pass),
        }
    }
    if passes.is_empty() {
        passes = vec!["src", "config"];
    }
    if passes == ["all"] {
        passes = vec!["src", "config", "audit", "model"];
    }
    let mut diags: Vec<Diagnostic> = Vec::new();
    for pass in &passes {
        match *pass {
            "src" => match srclint::lint_workspace(&workspace_root()) {
                Ok(d) => diags.extend(d),
                Err(e) => {
                    eprintln!("mcr-lint: cannot walk {}: {e}", workspace_root().display());
                    return ExitCode::from(2);
                }
            },
            "config" => diags.extend(config_check::check_builtin()),
            "audit" => {
                diags.extend(refresh_replays());
                diags.extend(audit::audit_suite(SUITE_TRACE_LEN));
            }
            "model" => diags.extend(model::run(&workspace_root())),
            other => {
                eprintln!("mcr-lint: unknown pass `{other}`");
                eprintln!("usage: mcr-lint [--json] [src|config|audit|model|all]...");
                return ExitCode::from(2);
            }
        }
    }
    if json {
        println!("{}", model::diagnostics_to_json(&passes, &diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        let errors = diags.iter().filter(|d| d.level == Level::Error).count();
        let warnings = diags.len() - errors;
        println!(
            "mcr-lint: {} pass(es) [{}], {errors} error(s), {warnings} warning(s)",
            passes.len(),
            passes.join(", ")
        );
    }
    if has_errors(&diags) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

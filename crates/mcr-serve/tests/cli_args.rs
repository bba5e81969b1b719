//! CLI hardening: every bad flag combination exits with a readable
//! `error:` line and a non-zero `ExitCode` — no panics, no silent
//! defaults — across the legacy flags and the `serve`/`submit`
//! subcommands.

use std::process::Command;

struct Outcome {
    code: i32,
    stdout: String,
    stderr: String,
}

fn run(args: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_mcr_sim"))
        .args(args)
        .output()
        .expect("binary runs");
    Outcome {
        code: out.status.code().expect("exit code, not a signal"),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let o = run(args);
    assert_eq!(o.code, 1, "{args:?} must exit 1, stderr: {}", o.stderr);
    assert!(
        o.stderr.contains(needle),
        "{args:?} stderr must mention {needle:?}, got: {}",
        o.stderr
    );
    assert!(
        o.stderr.contains("error:"),
        "{args:?} must print an error line: {}",
        o.stderr
    );
}

#[test]
fn unknown_flags_fail_with_exit_one() {
    assert_usage_error(&["--bogus"], "unknown flag");
    assert_usage_error(&["serve", "--bogus"], "unknown flag");
    assert_usage_error(&["submit", "--bogus"], "unknown flag");
    assert_usage_error(&["cache", "--bogus"], "unknown flag");
    assert_usage_error(&["compare", "--bogus"], "unknown flag");
    // Subcommands without an operand reject stray words as flags.
    assert_usage_error(&["serve", "extra"], "unknown flag");
}

#[test]
fn missing_values_name_the_flag() {
    // Existing flags.
    assert_usage_error(&["--len"], "--len needs a value");
    assert_usage_error(&["--workload"], "--workload needs a value");
    // New subcommand flags.
    assert_usage_error(&["serve", "--workers"], "--workers needs a value");
    assert_usage_error(&["serve", "--queue-cap"], "--queue-cap needs a value");
    assert_usage_error(&["submit", "--deadline-ms"], "--deadline-ms needs a value");
    assert_usage_error(&["cache", "--cache-dir"], "--cache-dir needs a value");
    assert_usage_error(&["compare", "--backends"], "--backends needs a value");
    assert_usage_error(&["compare", "--mode"], "--mode needs a value");
}

#[test]
fn malformed_values_are_typed_errors() {
    assert_usage_error(&["--workload", "libq", "--len", "many"], "bad --len");
    assert_usage_error(&["--workload", "libq", "--mode", "zzz"], "bad mode");
    assert_usage_error(
        &["--workload", "libq", "--mechanisms", "9"],
        "mechanisms case must be 1-4",
    );
    assert_usage_error(&["serve", "--workers", "lots"], "bad --workers");
    assert_usage_error(
        &["serve", "--queue-cap", "0"],
        "--queue-cap must be at least 1",
    );
    assert_usage_error(
        &["submit", "x.json", "--deadline-ms", "soon"],
        "bad --deadline-ms",
    );
    assert_usage_error(
        &["cache", "frob", "--cache-dir", "unused"],
        "unknown cache action",
    );
    assert_usage_error(
        &["compare", "--workload", "libq", "--len", "many"],
        "bad --len",
    );
    assert_usage_error(
        &["compare", "--workload", "libq", "--mode", "zzz"],
        "bad mode",
    );
    assert_usage_error(
        &["compare", "--workload", "libq", "--backends", ","],
        "--backends needs at least one backend",
    );
}

#[test]
fn conflicting_or_missing_targets_are_rejected() {
    assert_usage_error(&[], "need --workload or --mix");
    assert_usage_error(
        &["--workload", "libq", "--mix", "mix01"],
        "mutually exclusive",
    );
    assert_usage_error(&["submit"], "needs a request file");
    assert_usage_error(&["submit", "a.json", "--shutdown"], "mutually exclusive");
    assert_usage_error(&["submit", "a.json", "b.json"], "exactly one request file");
    assert_usage_error(&["cache", "--cache-dir", "unused"], "cache needs an action");
    assert_usage_error(&["cache", "stats"], "cache needs --cache-dir");
    assert_usage_error(&["cache", "stats", "gc"], "exactly one action");
    // Each flag at most once: a repeated flag is an error, not "last
    // one wins" (which silently ran `[off]` here).
    assert_usage_error(
        &[
            "--workload",
            "libq",
            "--len",
            "1000",
            "--mode",
            "4/4x/100",
            "--mode",
            "off",
        ],
        "--mode given more than once",
    );
    assert_usage_error(
        &["compare", "--workload", "libq", "--len", "9", "--len", "10"],
        "--len given more than once",
    );
    // At most one control request (this silently sent `stats`).
    assert_usage_error(
        &["submit", "--ping", "--stats", "--addr", "127.0.0.1:1"],
        "at most one of --ping, --stats, --shutdown",
    );
}

#[test]
fn retired_fleet_subcommands_are_usage_errors() {
    // `dispatch` and `loadtest` no longer exist; the words must not
    // fall through to a local simulation.
    assert_usage_error(&["dispatch", "x.json"], "\"dispatch\"");
    assert_usage_error(&["loadtest", "--loopback"], "\"loadtest\"");
}

#[test]
fn submit_reports_unreachable_server_and_unreadable_files() {
    let o = run(&["submit", "/no/such/request.json"]);
    assert_eq!(o.code, 1);
    assert!(o.stderr.contains("cannot read"), "{}", o.stderr);
    // A port no service listens on (reserved, never assigned here).
    let o = run(&["submit", "--ping", "--addr", "127.0.0.1:1"]);
    assert_eq!(o.code, 1);
    assert!(o.stderr.contains("cannot reach"), "{}", o.stderr);
}

#[test]
fn help_exits_cleanly_for_every_entry_point() {
    for args in [
        &["--help"][..],
        &["serve", "--help"][..],
        &["submit", "--help"][..],
        &["cache", "-h"][..],
        &["compare", "--help"][..],
    ] {
        let o = run(args);
        assert_eq!(o.code, 0, "{args:?} help must exit 0");
        assert!(o.stderr.contains("usage:"), "{args:?}: {}", o.stderr);
        assert!(
            o.stderr.contains("serve options:"),
            "{args:?}: {}",
            o.stderr
        );
        for section in [
            "\noptions:",
            "submit options:",
            "cache subcommand (against a --cache-dir store):",
            "compare options (head-to-head across DRAM architectures):",
        ] {
            assert!(o.stderr.contains(section), "{args:?} lacks {section:?}");
        }
    }
}

#[test]
fn trace_out_writes_one_json_line_per_command() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("cli_trace_out.jsonl");
    let path = path.to_str().expect("utf-8 temp path");
    // 8000 ops: a shorter libq run ends before any postponed refresh issues.
    let args = ["--workload", "libq", "--mode", "4/4x/100", "--len", "8000"];
    let o = run(&[&args[..], &["--trace-out", path]].concat());
    assert_eq!(o.code, 0, "stderr: {}", o.stderr);
    let text = std::fs::read_to_string(path).expect("trace file written");
    let (mut kinds, mut last_cycle) = (Vec::new(), 0);
    for line in text.lines() {
        let j = sim_json::Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        for key in ["cycle", "channel", "rank", "bank", "row", "col", "class"] {
            assert!(
                j.get(key).and_then(|v| v.as_u64()).is_some(),
                "{key}: {line}"
            );
        }
        let cycle = j.get("cycle").and_then(|v| v.as_u64()).unwrap_or(0);
        assert!(cycle >= last_cycle, "oldest first: {line}");
        last_cycle = cycle;
        assert!(
            j.get("auto_pre").and_then(|v| v.as_bool()).is_some(),
            "{line}"
        );
        assert!(j.get("t_rfc").is_some(), "{line}");
        kinds.push(j.get("cmd").and_then(|v| v.as_str()).map(str::to_owned));
    }
    for kind in ["ACT", "REF"] {
        assert!(
            kinds.iter().any(|k| k.as_deref() == Some(kind)),
            "no {kind} line"
        );
    }
    // A directory that does not exist: the dump fails with a typed error.
    let bad = dir.join("no-such-dir").join("trace.jsonl");
    let bad = bad.to_str().expect("utf-8 temp path");
    let o = run(&[&args[..4], &["--len", "500", "--trace-out", bad]].concat());
    assert_eq!(o.code, 1, "stderr: {}", o.stderr);
    assert!(o.stderr.contains("error:"), "{}", o.stderr);
}

#[test]
fn report_prints_one_exec_line() {
    let o = run(&["--workload", "libq", "--mode", "4/4x/100", "--len", "1000"]);
    assert_eq!(o.code, 0, "stderr: {}", o.stderr);
    let lines: Vec<&str> = o
        .stdout
        .lines()
        .filter(|l| l.starts_with("exec:"))
        .collect();
    let [line] = lines[..] else {
        panic!("one exec line expected: {}", o.stdout)
    };
    // "exec: D dense, S skipped, O controller-only cycles | T controller ticks
    // | wakes: QueueCas W, RefreshDue W, ..."
    let (cycles, wakes) = line.split_once(" | wakes: ").expect("wake counts");
    let n: Vec<u64> = cycles
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    let [dense, skipped, overlapped, ticks] = n[..] else {
        panic!("four counts expected: {line}")
    };
    assert!(dense > 0 && dense + skipped + overlapped > ticks, "{line}");
    assert!(ticks > 0 && ticks <= dense + overlapped, "{line}");
    // Every tick after the first ticks at a wake one re-arm named, and
    // only nonzero sources are printed, each once.
    let mut sources = Vec::new();
    let mut armed = 0;
    for entry in wakes.split(", ") {
        let (source, n) = entry.rsplit_once(' ').expect("source and count");
        let n: u64 = n.parse().expect("wake count");
        assert!(n > 0 && !sources.contains(&source), "{line}");
        sources.push(source);
        armed += n;
    }
    assert!(sources.contains(&"QueueCas"), "{line}");
    assert!(armed >= ticks - 1, "{line}");
}

#[test]
fn cache_actions_work_on_a_store_with_no_shards_yet() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_fresh_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf-8 temp path");
    for action in ["stats", "verify", "gc"] {
        let o = run(&["cache", action, "--cache-dir", dir_s]);
        assert_eq!(o.code, 0, "cache {action}: {}", o.stderr);
    }
    let o = run(&["cache", "stats", "--cache-dir", dir_s]);
    let stats = sim_json::Json::parse(o.stdout.trim()).expect("stats JSON");
    assert_eq!(stats.get("disk_entries").and_then(|v| v.as_u64()), Some(0));
    let made = std::fs::read_dir(&dir).expect("store root").count();
    assert_eq!(made, 0, "no shard or quarantine directory yet");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sweep keys of a `--json` document, in point order.
fn keys(doc: &sim_json::Json) -> Vec<String> {
    let points = doc
        .get("points")
        .and_then(|p| p.as_array())
        .expect("points");
    let key = |p: &sim_json::Json| p.get("key").and_then(|k| k.as_str()).map(str::to_owned);
    points.iter().map(|p| key(p).expect("key")).collect()
}

#[test]
fn string_seed_runs_the_cli_key() {
    use mcr_serve::protocol::{parse_request, results_json, JobSpec, Request};
    let args = ["--workload", "libq", "--mode", "4/4x/100", "--len", "300"];
    let mut seen = Vec::new();
    for seed in ["9007199254740993", "9007199254740992"] {
        let o = run(&[&args[..], &["--seed", seed, "--json"]].concat());
        assert_eq!(o.code, 0, "stderr: {}", o.stderr);
        let cli = sim_json::Json::parse(o.stdout.trim()).expect("--json output");
        let request = format!(
            r#"{{"cmd": "run", "workload": "libq", "mode": "4/4x/100", "len": 300,
                 "seed": "{seed}"}}"#
        );
        let Ok(Request::Job(job)) = parse_request(&request) else {
            panic!("{request} parses")
        };
        assert!(matches!(job.spec, JobSpec::Run(_)));
        let results = job.spec.sweep(Some(1)).expect("valid spec").run();
        assert_eq!(keys(&results_json(&results)), keys(&cli), "seed {seed}");
        seen.push(keys(&cli));
    }
    assert_ne!(seen[0], seen[1], "the two seeds are distinct configs");
}

//! `mcr-sim` — command-line driver for the MCR-DRAM full-system simulator.
//!
//! ```text
//! mcr-sim --workload libq --mode 4/4x/100 --len 100000
//! mcr-sim --mix mix03 --mode 2/4x/75 --alloc 0.1 --len 20000
//! mcr-sim --workload comm2 --mode 4/4x/50 --row-cache 4 --csv
//! mcr-sim serve --addr 127.0.0.1:4015 --workers 4 --queue-cap 32
//! mcr-sim submit request.json --deadline-ms 5000
//! mcr-sim --list
//! ```
//!
//! Always prints the baseline (conventional DRAM) next to the requested
//! configuration so the reductions are immediately visible. The `serve`
//! and `submit` subcommands expose the same simulations as a concurrent
//! TCP service (line-delimited JSON; see DESIGN.md §5g).
//!
//! Every entry point is one flag table ([`Cmd`]): [`parse_flags`] reads
//! it and `--help` prints it, and each flag may be given at most once.
//!
//! Exit codes: 0 success, 1 usage/transport/configuration error (one
//! `error:` line), 2 the service answered with a non-`ok` status
//! (rejected, timeout, error) or `cache verify` found corruption.

use mcr_dram::experiments::Outcome;
use mcr_dram::{
    CompareTable, McrMode, RunReport, Sweep, SweepResults, System, SystemConfig, DEFAULT_SEED,
    WEDGE_CAP,
};
use mcr_serve::protocol::{compare_json, parse_mode, results_json, SweepSpec, DEFAULT_LEN};
use mcr_serve::{telemetry_json, Client, ProtocolError, RunSpec, ServeConfig, Server};
use mcr_store::{ResultStore, DEFAULT_SHARDS};
use sim_json::Json;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::process::ExitCode;
use std::str::FromStr;
use trace_gen::all_workloads;

/// Per-channel command-trace capacity for `--trace-out`: the trailing
/// window of issued commands kept for the dump.
const TRACE_CAPACITY: usize = 1 << 16;

/// Default service address for `serve` and `submit`.
const DEFAULT_ADDR: &str = "127.0.0.1:4015";

/// One table row: flag, value placeholder (`""` for a switch), help.
/// A row without a leading dash names an accepted operand instead.
type Flag = (&'static str, &'static str, &'static str);

/// Everything one entry point accepts. The parser and `--help` both
/// read it, so a flag cannot be accepted without being documented.
struct Cmd {
    /// Subcommand word, used in operand errors.
    name: &'static str,
    /// Usage line, after `mcr-sim`.
    synopsis: &'static str,
    /// Help section heading.
    title: &'static str,
    /// What a bare argument is; `None` rejects bare arguments.
    operand: Option<&'static str>,
    flags: &'static [Flag],
}

const LOCAL: Cmd = Cmd {
    name: "mcr-sim",
    synopsis: "[--workload NAME | --mix NAME] [options]",
    title: "options:",
    operand: None,
    flags: &[
        ("--workload", "NAME", "single-core workload (see --list)"),
        ("--mix", "NAME", "four-core mix, mix01..mix14 or MT-*"),
        ("--mode", "M/Kx/L", "MCR mode, e.g. 4/4x/100 (default: off)"),
        ("--len", "N", "memory operations per core (default 50000)"),
        ("--alloc", "F", "profile-based allocation ratio 0..1 (default 0)"),
        ("--row-cache", "T", "manage MCR region as a cache, promote threshold T"),
        ("--mechanisms", "CASE", "fig17 case 1-4 (default: all on)"),
        ("--seed", "N", "RNG seed (default 2015)"),
        ("--jobs", "N", "sweep worker threads (default: all cores)"),
        ("--cache-dir", "DIR", "persistent result store; known points are\nserved from disk instead of re-simulated"),
        ("--csv", "", "emit one CSV line instead of the report"),
        ("--json", "", "emit the sweep results as JSON"),
        ("--metrics", "", "append the MCR point's telemetry as JSON"),
        ("--trace-out", "FILE", "re-run the MCR point and dump its trailing DRAM\ncommands (ACT/RD/WR/PRE/REF/MRS) as JSONL"),
        ("--list", "", "list workloads and mixes and exit"),
    ],
};

const SERVE: Cmd = Cmd {
    name: "serve",
    synopsis: "serve [serve options]",
    title: "serve options:",
    operand: None,
    flags: &[
        ("--addr", "A", "listen address (default 127.0.0.1:4015)"),
        ("--workers", "N", "worker threads (default: all cores)"),
        ("--queue-cap", "N", "bounded queue capacity (default 64)"),
        (
            "--max-points",
            "N",
            "largest grid a job may expand to (default 512)",
        ),
        ("--max-len", "N", "largest trace length a job may request"),
        (
            "--cache-dir",
            "DIR",
            "persistent result store shared by the\nworkers; a warm cache survives restarts",
        ),
        (
            "--read-deadline-ms",
            "N",
            "drop a connection whose partial request\nline stalls this long (default 10000)",
        ),
        (
            "--max-line",
            "N",
            "largest request line in bytes (default 1 MiB)",
        ),
    ],
};

const SUBMIT: Cmd = Cmd {
    name: "submit",
    synopsis: "submit <REQUEST.json | - | --ping | --stats | --shutdown> [submit options]",
    title: "submit options:",
    operand: Some("request file"),
    flags: &[
        ("--addr", "A", "service address (default 127.0.0.1:4015)"),
        ("--deadline-ms", "N", "set/override the request deadline"),
        ("--ping", "", "send a ping instead of a request file"),
        ("--stats", "", "ask for the service counters instead"),
        ("--shutdown", "", "drain and stop the service instead"),
    ],
};

const CACHE: Cmd = Cmd {
    name: "cache",
    synopsis: "cache <stats | verify | gc> --cache-dir DIR",
    title: "cache subcommand (against a --cache-dir store):",
    operand: Some("action"),
    flags: &[
        ("--cache-dir", "DIR", "the store to operate on (required)"),
        ("stats", "", "print the store's occupancy and counters"),
        (
            "verify",
            "",
            "full integrity scan; corrupt entries are\nquarantined; exit 0 clean, 2 corruption",
        ),
        ("gc", "", "remove stale .tmp files and drain quarantine"),
    ],
};

const COMPARE: Cmd = Cmd {
    name: "compare",
    synopsis: "compare [--workload NAME | --mix NAME] [compare options]",
    title: "compare options (head-to-head across DRAM architectures):",
    operand: None,
    flags: &[
        ("--workload", "NAME", "single-core workload (see --list)"),
        ("--mix", "NAME", "four-core mix, mix01..mix14 or MT-*"),
        ("--backends", "A,B,C", "comma-separated backend names from\nmcr, baseline, tldram, clrdram\n(default: all four)"),
        ("--mode", "M/Kx/L", "MCR mode of the mcr row (default 4/4x/100)"),
        ("--len", "N", "memory operations per core (default 50000)"),
        ("--seed", "N", "trace seed shared by every row (default 2015)"),
        ("--jobs", "N", "sweep worker threads (default: all cores)"),
        ("--cache-dir", "DIR", "persistent result store for the rows"),
        ("--csv", "", "emit the table as CSV"),
        ("--json", "", "emit the table as JSON (default: aligned text)"),
    ],
};

const COMMANDS: [&Cmd; 5] = [&LOCAL, &SERVE, &SUBMIT, &CACHE, &COMPARE];

/// Column where flag help text starts.
const HELP_COL: usize = 20;

/// Prints the synopsis lines, then every flag table as its own section.
fn usage() {
    let mut out = String::new();
    for (i, cmd) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "" };
        let _ = writeln!(out, "{lead:<6} mcr-sim {}", cmd.synopsis);
    }
    let _ = writeln!(out, "{:<6} mcr-sim [SUBCOMMAND] -h | --help", "");
    let indent = format!("\n{:HELP_COL$}", "");
    for cmd in COMMANDS {
        let _ = write!(out, "\n{}\n", cmd.title);
        for (name, value, help) in cmd.flags {
            let head = format!("  {name} {value}");
            let head = head.trim_end();
            let help = help.replace('\n', &indent);
            if head.len() < HELP_COL {
                let _ = writeln!(out, "{head:<HELP_COL$}{help}");
            } else {
                let _ = writeln!(out, "{head}{indent}{help}");
            }
        }
    }
    eprint!("{out}");
}

/// A usage error: the message plus a pointer to `--help`.
fn usage_error(msg: impl std::fmt::Display) -> String {
    format!("{msg}\nrun 'mcr-sim --help' for options")
}

/// One entry point's argv, checked against its [`Cmd`] table.
struct Parsed {
    cmd: &'static Cmd,
    /// Each given flag once, with its value (`None` for a switch).
    given: Vec<(&'static str, Option<String>)>,
    operand: Option<String>,
}

/// Walks `argv` against `cmd`'s table. `Ok(None)` means `--help` was
/// given and the help text is already printed.
fn parse_flags(argv: &[String], cmd: &'static Cmd) -> Result<Option<Parsed>, String> {
    let mut p = Parsed {
        cmd,
        given: Vec::new(),
        operand: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            usage();
            return Ok(None);
        }
        if !arg.starts_with('-') || arg == "-" {
            let Some(what) = cmd.operand else {
                return Err(usage_error(format!("unknown flag {arg:?}")));
            };
            if p.operand.is_some() {
                return Err(usage_error(format!(
                    "{} takes exactly one {what}",
                    cmd.name
                )));
            }
            let choices: Vec<&str> = cmd
                .flags
                .iter()
                .map(|f| f.0)
                .filter(|n| !n.starts_with('-'))
                .collect();
            if !choices.is_empty() && !choices.contains(&arg.as_str()) {
                return Err(usage_error(format!(
                    "unknown {} {what} {arg:?} (want {})",
                    cmd.name,
                    choices.join(", ")
                )));
            }
            p.operand = Some(arg.clone());
            continue;
        }
        let Some(&(name, placeholder, _)) = cmd.flags.iter().find(|f| f.0 == arg) else {
            return Err(usage_error(format!("unknown flag {arg:?}")));
        };
        if p.given.iter().any(|(n, _)| *n == name) {
            return Err(usage_error(format!("{name} given more than once")));
        }
        let value = match placeholder {
            "" => None,
            _ => Some(
                it.next()
                    .cloned()
                    .ok_or_else(|| usage_error(format!("{name} needs a value")))?,
            ),
        };
        p.given.push((name, value));
    }
    Ok(Some(p))
}

impl Parsed {
    fn find(&self, flag: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.cmd.flags.iter().any(|f| f.0 == flag),
            "{flag} is missing from the {} table",
            self.cmd.name
        );
        self.given.iter().find(|(n, _)| *n == flag).map(|(_, v)| v)
    }

    /// Whether the switch `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// The value of `flag` parsed as `T`, or `None` when absent.
    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.find(flag)
            .and_then(Option::as_deref)
            .map(|v| {
                v.parse()
                    .map_err(|e| usage_error(format!("bad {flag}: {e}")))
            })
            .transpose()
    }

    /// Overwrites `field` (which holds the default) when `flag` is given.
    fn set<T: FromStr>(&self, flag: &str, field: &mut T) -> Result<(), String>
    where
        T::Err: std::fmt::Display,
    {
        if let Some(v) = self.get(flag)? {
            *field = v;
        }
        Ok(())
    }

    /// [`Parsed::set`] for an `M/Kx/L` (or `off`) mode.
    fn mode(&self, flag: &str, field: &mut McrMode) -> Result<(), String> {
        if let Some(v) = self.get::<String>(flag)? {
            *field = parse_mode(&v)
                .ok_or_else(|| usage_error(format!("bad mode {v:?} (want M/Kx/L or off)")))?;
        }
        Ok(())
    }

    /// A non-empty comma-separated list of `what`s, or `None` when absent.
    fn list(&self, flag: &str, what: &str) -> Result<Option<Vec<String>>, String> {
        let Some(v) = self.get::<String>(flag)? else {
            return Ok(None);
        };
        let list: Vec<String> = v
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if list.is_empty() {
            return Err(usage_error(format!("{flag} needs at least one {what}")));
        }
        Ok(Some(list))
    }
}

/// Reads a request file, or stdin for `-`.
fn read_request(path: &str) -> Result<String, String> {
    if path != "-" {
        return std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    }
    let mut buf = String::new();
    std::io::stdin()
        .read_to_string(&mut buf)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    Ok(buf)
}

/// Runs `sweep` through the persistent store in `cache_dir`, so a
/// repeated invocation (or another process sharing the directory)
/// skips known points; in memory without one.
fn run_sweep(sweep: &Sweep, cache_dir: Option<&str>) -> Result<SweepResults, String> {
    let Some(dir) = cache_dir else {
        return Ok(sweep.run());
    };
    let store = ResultStore::open(dir).map_err(|e| format!("cannot open cache {dir}: {e}"))?;
    Ok(sweep.run_with_store(&store))
}

/// Re-runs `cfg` with the channels' command trace armed and writes the
/// last [`TRACE_CAPACITY`] commands of each channel to `path`, one JSON
/// line per command, merged across channels by cycle.
fn dump_trace(cfg: &SystemConfig, path: &str) -> Result<(), String> {
    let mut sys = System::try_build(cfg).map_err(|e| format!("invalid configuration: {e}"))?;
    sys.enable_command_trace(TRACE_CAPACITY);
    if !sys.run_until(WEDGE_CAP) {
        return Err(format!("simulation wedged at cycle {}", sys.now()));
    }
    let mut cmds: Vec<_> = sys.command_trace().collect();
    cmds.sort_by_key(|(_, cmd)| cmd.cycle);
    let mut out = String::new();
    for (channel, cmd) in &cmds {
        let a = cmd.addr;
        let line = Json::obj([
            ("cycle", Json::from(cmd.cycle)),
            ("channel", Json::from(*channel as u64)),
            ("cmd", Json::str(cmd.kind.to_string())),
            ("rank", Json::from(u64::from(a.rank))),
            ("bank", Json::from(u64::from(a.bank))),
            ("row", Json::from(a.row)),
            ("col", Json::from(u64::from(a.col))),
            ("class", Json::from(u64::from(cmd.class.0))),
            ("auto_pre", Json::from(cmd.auto_pre)),
            (
                "t_rfc",
                cmd.t_rfc.map_or(Json::Null, |t| Json::from(u64::from(t))),
            ),
        ]);
        line.write(&mut out);
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("trace: {} commands written to {path}", cmds.len());
    Ok(())
}

fn print_report(label: &str, r: &RunReport) {
    println!(
        "{label:<22} exec {:>11} cpu-cycles | read-lat {:>6.2} | EDP {:.4e} J*s | hits {:.2}",
        r.exec_cpu_cycles,
        r.avg_read_latency,
        r.edp,
        r.controller.row_hit_rate(),
    );
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn serve_main(argv: &[String]) -> Result<ExitCode, String> {
    let Some(p) = parse_flags(argv, &SERVE)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let mut addr = DEFAULT_ADDR.to_string();
    p.set("--addr", &mut addr)?;
    let mut cfg = ServeConfig {
        cache_dir: p.get("--cache-dir")?,
        ..ServeConfig::default()
    };
    p.set("--workers", &mut cfg.workers)?;
    p.set("--queue-cap", &mut cfg.queue_cap)?;
    p.set("--max-points", &mut cfg.max_points)?;
    p.set("--max-len", &mut cfg.max_trace_len)?;
    p.set("--read-deadline-ms", &mut cfg.read_deadline_ms)?;
    p.set("--max-line", &mut cfg.max_line_len)?;
    if cfg.queue_cap == 0 {
        return Err(usage_error("--queue-cap must be at least 1"));
    }
    if cfg.max_line_len == 0 {
        return Err(usage_error("--max-line must be at least 1"));
    }
    let server =
        Server::bind(addr.as_str(), cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    match &server.config().cache_dir {
        Some(dir) => println!(
            "mcr-serve listening on {} ({} workers, queue capacity {}, \
             cache {} with {} warm entries)",
            server.local_addr(),
            server.config().workers,
            server.config().queue_cap,
            dir.display(),
            server.warm_entries()
        ),
        None => println!(
            "mcr-serve listening on {} ({} workers, queue capacity {})",
            server.local_addr(),
            server.config().workers,
            server.config().queue_cap
        ),
    }
    let _ = std::io::stdout().flush();
    let t = server.run();
    println!(
        "mcr-serve drained: {} accepted, {} completed, {} timeouts, {} shed, {} refused draining",
        t.accepted.get(),
        t.completed.get(),
        t.timeouts.get(),
        t.rejected_queue_full.get(),
        t.rejected_draining.get()
    );
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// submit
// ---------------------------------------------------------------------------

fn submit_main(argv: &[String]) -> Result<ExitCode, String> {
    let Some(p) = parse_flags(argv, &SUBMIT)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let mut addr = DEFAULT_ADDR.to_string();
    p.set("--addr", &mut addr)?;
    let deadline_ms: Option<u64> = p.get("--deadline-ms")?;
    let controls: Vec<&str> = ["ping", "stats", "shutdown"]
        .into_iter()
        .filter(|c| p.on(&format!("--{c}")))
        .collect();
    let body = match (&controls[..], &p.operand) {
        ([cmd], None) => Json::obj([("cmd", Json::str(*cmd))]),
        ([], Some(path)) => {
            let text = read_request(path)?;
            let mut body =
                Json::parse(&text).map_err(|e| format!("bad request JSON in {path}: {e}"))?;
            if let Some(ms) = deadline_ms {
                if !body.set("deadline_ms", Json::from(ms)) {
                    return Err("request must be a JSON object".into());
                }
            }
            body
        }
        ([], None) => {
            return Err(usage_error(
                "submit needs a request file ('-' for stdin) or --ping/--stats/--shutdown",
            ))
        }
        ([_], Some(_)) => {
            return Err(usage_error(
                "a request file and a control flag are mutually exclusive",
            ))
        }
        _ => return Err(usage_error("at most one of --ping, --stats, --shutdown")),
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let reply = client
        .request_line(&body.to_string())
        .map_err(|e| e.to_string())?;
    println!("{reply}");
    let status = Json::parse(&reply)
        .ok()
        .and_then(|v| v.get("status").and_then(Json::as_str).map(|s| s == "ok"));
    match status {
        Some(true) => Ok(ExitCode::SUCCESS),
        Some(false) => Ok(ExitCode::from(2)),
        None => Err("unparsable response".into()),
    }
}

// ---------------------------------------------------------------------------
// cache
// ---------------------------------------------------------------------------

/// The `cache` subcommand: operate on a `--cache-dir` store without
/// running any simulation. `verify` exits 0 when the scan is clean and
/// 2 when it found (and quarantined) corruption, so scripts can gate
/// on the store's integrity the same way they gate on a `submit`.
fn cache_main(argv: &[String]) -> Result<ExitCode, String> {
    let Some(p) = parse_flags(argv, &CACHE)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let Some(action) = &p.operand else {
        return Err(usage_error("cache needs an action: stats, verify or gc"));
    };
    let Some(dir) = p.get::<String>("--cache-dir")? else {
        return Err(usage_error("cache needs --cache-dir DIR"));
    };
    let store = ResultStore::open(&dir).map_err(|e| format!("cannot open cache {dir}: {e}"))?;
    Ok(match action.as_str() {
        "stats" => {
            let st = store.stats();
            let per_shard = st
                .disk_entries_per_shard
                .iter()
                .map(|&n| Json::from(n))
                .collect();
            println!(
                "{}",
                Json::obj([
                    ("dir", Json::str(dir)),
                    ("shards", Json::from(DEFAULT_SHARDS as u64)),
                    ("disk_entries", Json::from(st.disk_entries())),
                    ("disk_entries_per_shard", Json::Arr(per_shard)),
                    ("quarantined", Json::from(st.quarantined.get())),
                ])
            );
            ExitCode::SUCCESS
        }
        "verify" => {
            let v = store.verify();
            for path in &v.corrupt {
                eprintln!("corrupt (quarantined): {}", path.display());
            }
            println!(
                "verify: {} intact, {} corrupt, {} stale tmp",
                v.intact,
                v.corrupt.len(),
                v.stale_tmp
            );
            if v.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        _ => {
            let g = store.gc();
            println!(
                "gc: {} stale tmp removed, {} quarantined removed",
                g.tmp_removed, g.quarantine_removed
            );
            ExitCode::SUCCESS
        }
    })
}

// ---------------------------------------------------------------------------
// compare subcommand
// ---------------------------------------------------------------------------

fn compare_main(argv: &[String]) -> Result<ExitCode, String> {
    let Some(p) = parse_flags(argv, &COMPARE)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let (workload, mix): (Option<String>, Option<String>) = (p.get("--workload")?, p.get("--mix")?);
    let Some(target) = workload.clone().or_else(|| mix.clone()) else {
        return Err(usage_error("compare needs --workload or --mix"));
    };
    let mut mode = McrMode::headline();
    p.mode("--mode", &mut mode)?;
    // The same grid a `compare` request builds server-side, so a local
    // table and a submitted one come from identical sweeps
    // (tests/compare_suite.rs pins the round trip).
    let spec = SweepSpec::compare(
        workload,
        mix,
        mode,
        p.get("--len")?.unwrap_or(DEFAULT_LEN),
        p.get("--seed")?.unwrap_or(DEFAULT_SEED),
        &p.list("--backends", "backend")?.unwrap_or_default(),
    )
    .map_err(usage_error)?;
    let sweep = spec.sweep(p.get("--jobs")?).map_err(|e| e.to_string())?;
    let results = run_sweep(&sweep, p.get::<String>("--cache-dir")?.as_deref())?;
    let table = CompareTable::new(target, &sweep, &results);
    if p.on("--json") {
        println!("{}", compare_json(&table));
    } else if p.on("--csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// local (legacy) run
// ---------------------------------------------------------------------------

fn local_main(argv: &[String]) -> Result<ExitCode, String> {
    let Some(p) = parse_flags(argv, &LOCAL)? else {
        return Ok(ExitCode::SUCCESS);
    };
    if p.on("--list") {
        println!("single-core workloads:");
        for w in all_workloads() {
            let mt = if w.multi_threaded {
                " (MT, quad-core only)"
            } else {
                ""
            };
            println!("  {:<12} {:?}, {:.0} MPKI{mt}", w.name, w.suite, w.mpki);
        }
        println!("mixes: mix01..mix14, MT-fluid, MT-canneal");
        return Ok(ExitCode::SUCCESS);
    }
    // The same spec a `run` request builds server-side, so local and
    // submitted runs are byte-identical (tests/sweep_determinism.rs).
    // `RunSpec::configs` checks the target and the mechanisms case.
    let mut spec = RunSpec {
        workload: p.get("--workload")?,
        mix: p.get("--mix")?,
        row_cache: p.get("--row-cache")?,
        mechanisms_case: p.get("--mechanisms")?,
        ..RunSpec::default()
    };
    p.mode("--mode", &mut spec.mode)?;
    p.set("--len", &mut spec.len)?;
    p.set("--alloc", &mut spec.alloc)?;
    p.set("--seed", &mut spec.seed)?;
    let jobs = p.get("--jobs")?;
    let cache_dir: Option<String> = p.get("--cache-dir")?;
    let trace_out: Option<String> = p.get("--trace-out")?;
    let (_, cfg, target) = spec.configs().map_err(|e| match e {
        ProtocolError::Schema(_) => usage_error(e),
        _ => e.to_string(),
    })?;
    // One two-point sweep: the engine validates both configs (a proper
    // error instead of a panic on bad flag combinations) and runs them in
    // parallel when --jobs allows.
    let sweep = spec.sweep(jobs).map_err(|e| e.to_string())?;
    let results = run_sweep(&sweep, cache_dir.as_deref())?;
    if let Some(path) = &trace_out {
        dump_trace(&cfg, path)?;
    }
    let (Some(base), Some(run)) = (results.points.first(), results.points.get(1)) else {
        return Err(format!(
            "sweep produced {} point(s), expected baseline + MCR",
            results.points.len()
        ));
    };
    let run_from_store = run.cache_hit;
    let (base, run) = (&base.report, &run.report);
    if p.on("--json") {
        println!("{}", results_json(&results));
        if p.on("--metrics") {
            println!("{}", telemetry_json(&run.telemetry));
        }
        return Ok(ExitCode::SUCCESS);
    }
    let o = Outcome::versus(&target, base, run);

    if p.on("--csv") {
        println!("target,mode,exec_reduction_pct,latency_reduction_pct,edp_reduction_pct");
        println!(
            "{target},{},{:.4},{:.4},{:.4}",
            spec.mode, o.exec_reduction, o.latency_reduction, o.edp_reduction
        );
        if p.on("--metrics") {
            println!("{}", telemetry_json(&run.telemetry));
        }
        return Ok(ExitCode::SUCCESS);
    }

    println!(
        "target: {target}, {} memory ops/core, seed {}",
        spec.len, spec.seed
    );
    print_report("baseline [off]", base);
    print_report(&format!("MCR {}", spec.mode), run);
    println!();
    println!(
        "reductions: exec {:+.2}%  read-latency {:+.2}%  EDP {:+.2}%",
        o.exec_reduction, o.latency_reduction, o.edp_reduction
    );
    println!(
        "refresh: {} normal, {} fast, {} skipped | usable capacity {:.0}%",
        run.controller.refresh.normal,
        run.controller.refresh.fast,
        run.controller.refresh.skipped,
        spec.mode.usable_capacity() * 100.0
    );
    if run_from_store {
        println!("exec: MCR point read from the result store, not simulated");
    } else {
        let e = &run.exec;
        let wakes: Vec<String> = mcr_dram::EdgeSource::ALL
            .iter()
            .zip(e.wakes)
            .filter(|&(_, n)| n > 0)
            .map(|(source, n)| format!("{source:?} {n}"))
            .collect();
        println!(
            "exec: {} dense, {} skipped, {} controller-only cycles | {} controller ticks | wakes: {}",
            e.dense_cycles,
            e.quiet_skipped_cycles,
            e.overlapped_span_cycles,
            e.controller_ticks,
            wakes.join(", ")
        );
    }
    if let Some(c) = &run.cache {
        println!(
            "row cache: {} hits, {} misses, {} promotions, {} evictions",
            c.hits, c.misses, c.promotions, c.evictions
        );
    }
    if p.on("--metrics") {
        println!();
        println!("{}", telemetry_json(&run.telemetry));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => serve_main(&argv[1..]),
        Some("submit") => submit_main(&argv[1..]),
        Some("cache") => cache_main(&argv[1..]),
        Some("compare") => compare_main(&argv[1..]),
        _ => local_main(&argv),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

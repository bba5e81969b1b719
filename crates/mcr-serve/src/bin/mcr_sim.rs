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
//! Exit codes: 0 success, 1 usage/transport/configuration error, 2 the
//! service answered with a non-`ok` status (rejected, timeout, error).

use mcr_dram::experiments::Outcome;
use mcr_dram::{
    telemetry_to_json, BackendKind, BackendSpec, CompareSpec, McrMode, RunReport, System,
    SystemConfig,
};
use mcr_serve::protocol::parse_mode;
use mcr_serve::{Client, DispatchConfig, Dispatcher, LoadtestConfig, RunSpec, ServeConfig, Server};
use mcr_store::ResultStore;
use mcr_telemetry::RingRecorder;
use sim_json::Json;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::process::ExitCode;
use trace_gen::all_workloads;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    mix: Option<String>,
    mode: McrMode,
    len: usize,
    alloc: f64,
    row_cache: Option<u32>,
    seed: u64,
    csv: bool,
    json: bool,
    metrics: bool,
    trace_out: Option<String>,
    jobs: Option<usize>,
    mechanisms_case: Option<u32>,
    fault_rate: Option<f64>,
    fault_seed: Option<u64>,
    chaos: bool,
    cache_dir: Option<String>,
}

/// Ring capacity for `--trace-out`: the trailing window of scheduler
/// events kept for the dump.
const TRACE_CAPACITY: usize = 1 << 16;

/// Default service address for `serve` and `submit`.
const DEFAULT_ADDR: &str = "127.0.0.1:4015";

fn usage() {
    eprintln!(
        "usage: mcr-sim [--workload NAME | --mix NAME] [options]\n\
         \x20      mcr-sim serve [serve options]\n\
         \x20      mcr-sim submit <REQUEST.json | - | --ping | --stats | --shutdown> [submit options]\n\
         \x20      mcr-sim dispatch <REQUEST.json | -> --backends A,B,C [dispatch options]\n\
         \x20      mcr-sim loadtest <--addr A | --backends A,B,C | --loopback> [loadtest options]\n\
         \x20      mcr-sim cache <stats | verify | gc> --cache-dir DIR\n\
         \x20      mcr-sim compare [--workload NAME | --mix NAME] [compare options]\n\
         \n\
         options:\n\
           --mode M/Kx/L     MCR mode, e.g. 4/4x/100 (default: off)\n\
           --len N           memory operations per core (default 50000)\n\
           --alloc F         profile-based allocation ratio 0..1 (default 0)\n\
           --row-cache T     manage MCR region as a cache, promote threshold T\n\
           --mechanisms CASE fig17 case 1-4 (default: all on)\n\
           --seed N          RNG seed (default 2015)\n\
           --jobs N          sweep worker threads (default: all cores)\n\
           --cache-dir DIR   persistent result store; known points are\n\
                             served from disk instead of re-simulated\n\
           --csv             emit one CSV line instead of the report\n\
           --json            emit the sweep results as JSON\n\
           --metrics         append the MCR point's telemetry as JSON\n\
           --trace-out FILE  re-run the MCR point with a ring recorder and\n\
                             dump the trailing scheduler events as JSONL\n\
           --fault-rate F    arm retention-fault injection at rate F (0..1)\n\
           --fault-seed N    fault-plan seed (default: --seed value)\n\
           --chaos           seeded randomized fault campaign across rates;\n\
                             prints the failing seed for replay on failure\n\
           --list            list workloads and mixes and exit\n\
         \n\
         serve options:\n\
           --addr A          listen address (default {DEFAULT_ADDR})\n\
           --workers N       worker threads (default: all cores)\n\
           --queue-cap N     bounded queue capacity (default 64)\n\
           --max-points N    largest grid a job may expand to (default 512)\n\
           --max-len N       largest trace length a job may request\n\
           --cache-dir DIR   persistent result store shared by the\n\
                             workers; a warm cache survives restarts\n\
           --read-deadline-ms N\n\
                             drop a connection whose partial request\n\
                             line stalls this long (default 10000)\n\
           --max-line N      largest request line in bytes (default 1 MiB)\n\
         \n\
         dispatch options (split one job across a backend fleet):\n\
           --backends A,B,C  comma-separated backend addresses (required)\n\
           --deadline-ms N   campaign deadline (also sent to backends)\n\
           --retries N       extra attempts per shard (default 4)\n\
           --backoff-ms N    base backoff; attempt k waits base<<(k-1)\n\
                             plus seeded jitter (default 25)\n\
           --hedge-ms N      duplicate a still-silent shard on another\n\
                             backend after N ms (default: never)\n\
           --seed N          backoff-jitter seed (default 0)\n\
         \n\
         loadtest options (seeded replay of mixed submissions):\n\
           --addr A | --backends A,B,C | --loopback\n\
                             target: one server, a dispatched fleet, or\n\
                             a self-hosted in-process server\n\
           --submissions N   total submissions per phase (default 40)\n\
           --concurrency N   submitter threads (default 4)\n\
           --len N           trace length of generated jobs (default 2000)\n\
           --seed N          generator/jitter/chaos seed (default 7)\n\
           --chaos-rate F    add a second phase through a NetChaos proxy\n\
                             injecting faults at rate F (default 0: off)\n\
           --jitter-ms N     max seeded arrival jitter (default 5)\n\
           --retries N       transport retries per submission (default 6)\n\
           --deadline-ms N   deadline attached to every submission\n\
           --out FILE        write the JSON report (default BENCH_serve.json)\n\
           --check           exit 2 unless the shed/served/retried\n\
                             accounting balances exactly\n\
         \n\
         cache subcommand (against a --cache-dir store):\n\
           stats             print the store's occupancy and counters\n\
           verify            full integrity scan; corrupt entries are\n\
                             quarantined; exit 0 clean, 2 corruption\n\
           gc                remove stale .tmp files and drain quarantine\n\
         \n\
         compare options (head-to-head across DRAM architectures):\n\
           --backends A,B,C  comma-separated backend names from\n\
                             mcr, baseline, tldram, clrdram\n\
                             (default: all four)\n\
           --mode M/Kx/L     MCR mode of the mcr row (default 4/4x/100)\n\
           --len N           memory operations per core (default 50000)\n\
           --seed N          trace seed shared by every row (default 2015)\n\
           --jobs N          sweep worker threads (default: all cores)\n\
           --cache-dir DIR   persistent result store for the rows\n\
           --csv | --json    table format (default: aligned text)\n\
         \n\
         submit options:\n\
           --addr A          service address (default {DEFAULT_ADDR})\n\
           --deadline-ms N   set/override the request deadline\n\
           --ping | --stats | --shutdown\n\
                             send a control request instead of a file"
    );
}

fn parse_args(argv: Vec<String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        mix: None,
        mode: McrMode::off(),
        len: 50_000,
        alloc: 0.0,
        row_cache: None,
        seed: 2015,
        csv: false,
        json: false,
        metrics: false,
        trace_out: None,
        jobs: None,
        mechanisms_case: None,
        fault_rate: None,
        fault_seed: None,
        chaos: false,
        cache_dir: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--list" => {
                println!("single-core workloads:");
                for w in all_workloads() {
                    println!(
                        "  {:<12} {:?}, {:.0} MPKI{}",
                        w.name,
                        w.suite,
                        w.mpki,
                        if w.multi_threaded {
                            " (MT, quad-core only)"
                        } else {
                            ""
                        }
                    );
                }
                println!("mixes: mix01..mix14, MT-fluid, MT-canneal");
                return Ok(None);
            }
            "--workload" => args.workload = Some(value("--workload")?),
            "--mix" => args.mix = Some(value("--mix")?),
            "--mode" => {
                let v = value("--mode")?;
                args.mode =
                    parse_mode(&v).ok_or_else(|| format!("bad mode {v:?} (want M/Kx/L or off)"))?;
            }
            "--len" => {
                args.len = value("--len")?
                    .parse()
                    .map_err(|e| format!("bad --len: {e}"))?
            }
            "--alloc" => {
                args.alloc = value("--alloc")?
                    .parse()
                    .map_err(|e| format!("bad --alloc: {e}"))?
            }
            "--row-cache" => {
                args.row_cache = Some(
                    value("--row-cache")?
                        .parse()
                        .map_err(|e| format!("bad --row-cache: {e}"))?,
                )
            }
            "--mechanisms" => {
                let case: u32 = value("--mechanisms")?
                    .parse()
                    .map_err(|e| format!("bad --mechanisms: {e}"))?;
                if !(1..=4).contains(&case) {
                    return Err("mechanisms case must be 1-4".into());
                }
                args.mechanisms_case = Some(case);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--jobs" => {
                args.jobs = Some(
                    value("--jobs")?
                        .parse()
                        .map_err(|e| format!("bad --jobs: {e}"))?,
                )
            }
            "--fault-rate" => {
                let rate: f64 = value("--fault-rate")?
                    .parse()
                    .map_err(|e| format!("bad --fault-rate: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--fault-rate must be in [0, 1], got {rate}"));
                }
                args.fault_rate = Some(rate);
            }
            "--fault-seed" => {
                args.fault_seed = Some(
                    value("--fault-seed")?
                        .parse()
                        .map_err(|e| format!("bad --fault-seed: {e}"))?,
                )
            }
            "--chaos" => args.chaos = true,
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")?),
            "--csv" => args.csv = true,
            "--json" => args.json = true,
            "--metrics" => args.metrics = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_none() && args.mix.is_none() {
        return Err("need --workload or --mix (or --list)".into());
    }
    if args.workload.is_some() && args.mix.is_some() {
        return Err("--workload and --mix are mutually exclusive".into());
    }
    Ok(Some(args))
}

/// Re-runs `cfg` with a [`RingRecorder`] installed and writes the trailing
/// [`TRACE_CAPACITY`] scheduler events as JSON lines to `path`.
fn dump_trace(cfg: &SystemConfig, path: &str) -> Result<(), String> {
    let mut sys = System::try_build(cfg).map_err(|e| format!("invalid configuration: {e}"))?;
    sys.set_trace_sink(Box::new(RingRecorder::new(TRACE_CAPACITY)));
    // The event wheel jumps between interesting cycles, so one bounded
    // run_until call replaces the old chunked-step polling loop.
    let cap: u64 = 500_000_000;
    if !sys.run_until(cap) {
        return Err(format!("simulation wedged at cycle {}", sys.now()));
    }
    let Some(sink) = sys.take_trace_sink() else {
        return Err("trace sink disappeared mid-run".into());
    };
    let sink: &dyn std::any::Any = sink.as_ref();
    let Some(ring) = sink.downcast_ref::<RingRecorder>() else {
        return Err("trace sink is not the installed ring recorder".into());
    };
    let mut out = String::new();
    for ev in ring.events() {
        let _ = writeln!(
            out,
            "{{\"cycle\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}",
            ev.cycle,
            ev.kind.name(),
            ev.a,
            ev.b
        );
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "trace: {} events written to {path} ({} recorded, {} dropped by the ring)",
        ring.len(),
        ring.total(),
        ring.dropped()
    );
    Ok(())
}

/// Chaos campaign rates: a zero-rate control plus escalating injection.
const CHAOS_RATES: [f64; 4] = [0.0, 0.02, 0.10, 0.25];

/// Runs the seeded chaos campaign: one run per [`CHAOS_RATES`] entry,
/// each with a fault plan derived from `fault_seed`, checking the
/// reliability invariants after every run. On any failure the message
/// names the exact `--fault-rate`/`--fault-seed` pair that replays it.
fn run_chaos(cfg: &SystemConfig, fault_seed: u64) -> Result<(), String> {
    let control = std::panic::catch_unwind(|| System::try_build(cfg).map(System::run))
        .map_err(|_| "control run (no faults) panicked".to_string())?
        .map_err(|e| format!("invalid configuration: {e}"))?;
    for (i, &rate) in CHAOS_RATES.iter().enumerate() {
        let seed = fault_seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9);
        let faulted = cfg
            .clone()
            .with_fault_plan(mcr_serve::protocol::fault_plan(rate, seed));
        let replay = format!("replay: --fault-rate {rate} --fault-seed {seed}");
        let r = std::panic::catch_unwind(|| System::try_build(&faulted).map(System::run))
            .map_err(|_| format!("chaos run panicked (audit violation?); {replay}"))?
            .map_err(|e| format!("invalid chaos configuration: {e}"))?;
        let rel = &r.reliability;
        if rel.retention_escapes != 0 {
            return Err(format!(
                "{} retention escape(s) with the detector armed; {replay}",
                rel.retention_escapes
            ));
        }
        if r.reads_done != control.reads_done {
            return Err(format!(
                "faulted run completed {} reads, control {}; {replay}",
                r.reads_done, control.reads_done
            ));
        }
        println!(
            "chaos rate {rate:<5} seed {seed:>20}: {} retries, {} dropped, {} late, \
             {} degrades, {} rearms, exec {:+.2}% vs control",
            rel.retention_retries,
            rel.refresh_dropped,
            rel.refresh_late,
            rel.guardband_degrades,
            rel.guardband_rearms,
            (r.exec_cpu_cycles as f64 / control.exec_cpu_cycles.max(1) as f64 - 1.0) * 100.0,
        );
    }
    println!("chaos campaign passed ({} rates)", CHAOS_RATES.len());
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

fn parse_serve_args(argv: &[String]) -> Result<Option<(String, ServeConfig)>, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut cfg = ServeConfig::default();
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--queue-cap" => {
                cfg.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("bad --queue-cap: {e}"))?
            }
            "--max-points" => {
                cfg.max_points = value("--max-points")?
                    .parse()
                    .map_err(|e| format!("bad --max-points: {e}"))?
            }
            "--max-len" => {
                cfg.max_trace_len = value("--max-len")?
                    .parse()
                    .map_err(|e| format!("bad --max-len: {e}"))?
            }
            "--cache-dir" => cfg.cache_dir = Some(value("--cache-dir")?.into()),
            "--read-deadline-ms" => {
                cfg.read_deadline_ms = value("--read-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("bad --read-deadline-ms: {e}"))?
            }
            "--max-line" => {
                cfg.max_line_len = value("--max-line")?
                    .parse()
                    .map_err(|e| format!("bad --max-line: {e}"))?
            }
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if cfg.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    if cfg.max_line_len == 0 {
        return Err("--max-line must be at least 1".into());
    }
    Ok(Some((addr, cfg)))
}

fn serve_main(argv: &[String]) -> ExitCode {
    let (addr, cfg) = match parse_serve_args(argv) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(addr.as_str(), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
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
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// submit
// ---------------------------------------------------------------------------

struct SubmitArgs {
    addr: String,
    file: Option<String>,
    deadline_ms: Option<u64>,
    control: Option<&'static str>,
}

fn parse_submit_args(argv: &[String]) -> Result<Option<SubmitArgs>, String> {
    let mut args = SubmitArgs {
        addr: DEFAULT_ADDR.to_string(),
        file: None,
        deadline_ms: None,
        control: None,
    };
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                )
            }
            "--ping" => args.control = Some("ping"),
            "--stats" => args.control = Some("stats"),
            "--shutdown" => args.control = Some("shutdown"),
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            _ => {
                if args.file.is_some() {
                    return Err("submit takes exactly one request file".into());
                }
                args.file = Some(flag);
            }
        }
    }
    if args.file.is_none() && args.control.is_none() {
        return Err(
            "submit needs a request file ('-' for stdin) or --ping/--stats/--shutdown".into(),
        );
    }
    if args.file.is_some() && args.control.is_some() {
        return Err("a request file and a control flag are mutually exclusive".into());
    }
    Ok(Some(args))
}

fn load_request(args: &SubmitArgs) -> Result<Json, String> {
    if let Some(cmd) = args.control {
        return Ok(Json::obj([("cmd", Json::str(cmd))]));
    }
    let Some(path) = &args.file else {
        return Err("submit needs a request file".into());
    };
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let mut body = Json::parse(&text).map_err(|e| format!("bad request JSON in {path}: {e}"))?;
    if let Some(ms) = args.deadline_ms {
        if !body.set("deadline_ms", Json::from(ms)) {
            return Err("request must be a JSON object".into());
        }
    }
    Ok(body)
}

fn submit_main(argv: &[String]) -> ExitCode {
    let args = match parse_submit_args(argv) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let body = match load_request(&args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(args.addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let reply = match client.request_line(&body.to_string()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{reply}");
    match Json::parse(&reply).ok().as_ref().and_then(|v| {
        v.get("status")
            .and_then(Json::as_str)
            .map(|s| s.to_string())
    }) {
        Some(status) if status == "ok" => ExitCode::SUCCESS,
        Some(_) => ExitCode::from(2),
        None => {
            eprintln!("error: unparsable response");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

struct DispatchArgs {
    file: String,
    cfg: DispatchConfig,
}

fn parse_backend_list(v: &str) -> Result<Vec<String>, String> {
    let list: Vec<String> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if list.is_empty() {
        return Err("--backends needs at least one address".into());
    }
    Ok(list)
}

fn parse_dispatch_args(argv: &[String]) -> Result<Option<DispatchArgs>, String> {
    let mut file: Option<String> = None;
    let mut cfg = DispatchConfig::default();
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--backends" => cfg.backends = parse_backend_list(&value("--backends")?)?,
            "--deadline-ms" => {
                cfg.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                )
            }
            "--retries" => {
                cfg.max_retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("bad --retries: {e}"))?
            }
            "--backoff-ms" => {
                cfg.backoff_base_ms = value("--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("bad --backoff-ms: {e}"))?
            }
            "--hedge-ms" => {
                cfg.hedge_after_ms = Some(
                    value("--hedge-ms")?
                        .parse()
                        .map_err(|e| format!("bad --hedge-ms: {e}"))?,
                )
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            _ => {
                if file.is_some() {
                    return Err("dispatch takes exactly one request file".into());
                }
                file = Some(flag);
            }
        }
    }
    let Some(file) = file else {
        return Err("dispatch needs a request file ('-' for stdin)".into());
    };
    if cfg.backends.is_empty() {
        return Err("dispatch needs --backends A,B,C".into());
    }
    Ok(Some(DispatchArgs { file, cfg }))
}

/// The `dispatch` subcommand: split one run/sweep/campaign across a
/// backend fleet by config-key hash and print the merged reply a
/// single server would have produced. Same exit-code contract as
/// `submit`: 0 ok, 2 non-`ok` status, 1 usage/transport error.
fn dispatch_main(argv: &[String]) -> ExitCode {
    let args = match parse_dispatch_args(argv) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let text = if args.file == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("error: cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&args.file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", args.file);
                return ExitCode::FAILURE;
            }
        }
    };
    let d = match Dispatcher::new(args.cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match d.dispatch_line(text.trim()) {
        Ok(out) => {
            println!("{}", out.line);
            eprintln!("dispatch: {}", out.telemetry.to_json());
            if out.timed_out {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// loadtest
// ---------------------------------------------------------------------------

enum LoadtestTarget {
    Addr(String),
    Backends(Vec<String>),
    Loopback,
}

struct LoadtestArgs {
    target: LoadtestTarget,
    cfg: LoadtestConfig,
    out: String,
    check: bool,
}

fn parse_loadtest_args(argv: &[String]) -> Result<Option<LoadtestArgs>, String> {
    let mut target: Option<LoadtestTarget> = None;
    let mut cfg = LoadtestConfig::default();
    let mut out = "BENCH_serve.json".to_string();
    let mut check = false;
    let set_target = |t: LoadtestTarget, slot: &mut Option<LoadtestTarget>| {
        if slot.is_some() {
            return Err("pick exactly one of --addr, --backends, --loopback".to_string());
        }
        *slot = Some(t);
        Ok(())
    };
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => set_target(LoadtestTarget::Addr(value("--addr")?), &mut target)?,
            "--backends" => set_target(
                LoadtestTarget::Backends(parse_backend_list(&value("--backends")?)?),
                &mut target,
            )?,
            "--loopback" => set_target(LoadtestTarget::Loopback, &mut target)?,
            "--submissions" => {
                cfg.submissions = value("--submissions")?
                    .parse()
                    .map_err(|e| format!("bad --submissions: {e}"))?
            }
            "--concurrency" => {
                cfg.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|e| format!("bad --concurrency: {e}"))?
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--len" => {
                cfg.len = value("--len")?
                    .parse()
                    .map_err(|e| format!("bad --len: {e}"))?
            }
            "--chaos-rate" => {
                let rate: f64 = value("--chaos-rate")?
                    .parse()
                    .map_err(|e| format!("bad --chaos-rate: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--chaos-rate must be in [0, 1], got {rate}"));
                }
                cfg.chaos_rate = rate;
            }
            "--jitter-ms" => {
                cfg.arrival_jitter_ms = value("--jitter-ms")?
                    .parse()
                    .map_err(|e| format!("bad --jitter-ms: {e}"))?
            }
            "--retries" => {
                cfg.max_retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("bad --retries: {e}"))?
            }
            "--deadline-ms" => {
                cfg.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                )
            }
            "--out" => out = value("--out")?,
            "--check" => check = true,
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let Some(target) = target else {
        return Err("loadtest needs a target: --addr, --backends or --loopback".into());
    };
    if cfg.submissions == 0 {
        return Err("--submissions must be at least 1".into());
    }
    Ok(Some(LoadtestArgs {
        target,
        cfg,
        out,
        check,
    }))
}

fn phase_summary(name: &str, p: &mcr_serve::PhaseReport) {
    println!(
        "{name}: {} ok, {} shed (429 {}, 503 {}, 413 {}), {} timeouts, {} errors, \
         {} failed | {} retries | p50 {} ms, p95 {} ms | wall {} ms",
        p.ok,
        p.shed_queue_full + p.shed_draining + p.shed_too_large,
        p.shed_queue_full,
        p.shed_draining,
        p.shed_too_large,
        p.timeouts,
        p.errors,
        p.failed,
        p.retries,
        p.latency_ms.p50().unwrap_or(0),
        p.latency_ms.p95().unwrap_or(0),
        p.wall_ms
    );
}

/// The `loadtest` subcommand: replay a seeded submission volume and
/// write the shed/latency ledger as JSON. With `--check`, exit 2
/// unless every submission is accounted for exactly once and nothing
/// was lost.
fn loadtest_main(argv: &[String]) -> ExitCode {
    let args = match parse_loadtest_args(argv) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let report = match &args.target {
        LoadtestTarget::Addr(addr) => mcr_serve::loadtest::run_addr(&args.cfg, addr),
        LoadtestTarget::Backends(list) => mcr_serve::loadtest::run_backends(&args.cfg, list),
        LoadtestTarget::Loopback => {
            mcr_serve::loadtest::run_loopback(&args.cfg, ServeConfig::default())
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    phase_summary("clean", &report.clean);
    if let Some(chaos) = &report.chaos {
        phase_summary("chaos", chaos);
    }
    if let Some(st) = report.chaos_stats {
        println!(
            "proxy: {} connections, {} faults injected ({} refused, {} truncated, \
             {} delayed, {} blackholed, {} garbage)",
            st.connections,
            st.faults(),
            st.refused,
            st.truncated,
            st.delayed,
            st.blackholed,
            st.garbage
        );
    }
    let doc = report.to_json(&args.cfg);
    if let Err(e) = std::fs::write(&args.out, format!("{doc}\n")) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("report written to {}", args.out);
    if args.check {
        if let Err(e) = report.check(&args.cfg) {
            eprintln!("error: accounting check failed: {e}");
            return ExitCode::from(2);
        }
        println!("accounting balanced: every submission classified, none lost");
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// cache
// ---------------------------------------------------------------------------

fn parse_cache_args(argv: &[String]) -> Result<Option<(String, String)>, String> {
    let mut action: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--cache-dir" => dir = Some(value("--cache-dir")?),
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            _ => {
                if action.is_some() {
                    return Err("cache takes exactly one action".into());
                }
                action = Some(flag);
            }
        }
    }
    let Some(action) = action else {
        return Err("cache needs an action: stats, verify or gc".into());
    };
    if !matches!(action.as_str(), "stats" | "verify" | "gc") {
        return Err(format!(
            "unknown cache action {action:?} (want stats, verify or gc)"
        ));
    }
    let Some(dir) = dir else {
        return Err("cache needs --cache-dir DIR".into());
    };
    Ok(Some((action, dir)))
}

/// The `cache` subcommand: operate on a `--cache-dir` store without
/// running any simulation. `verify` exits 0 when the scan is clean and
/// 2 when it found (and quarantined) corruption, so scripts can gate
/// on the store's integrity the same way they gate on a `submit`.
fn cache_main(argv: &[String]) -> ExitCode {
    let (action, dir) = match parse_cache_args(argv) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let store = match ResultStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot open cache {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match action.as_str() {
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
                    ("shards", Json::from(st.shards as u64)),
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
    }
}

// ---------------------------------------------------------------------------
// compare subcommand
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct CompareArgs {
    spec: CompareSpec,
    jobs: Option<usize>,
    cache_dir: Option<String>,
    csv: bool,
    json: bool,
}

/// Parses a comma-separated list of backend *names* (`mcr,tldram,...`)
/// into backend specs — not to be confused with the dispatch
/// subcommand's `--backends`, which takes service addresses.
fn parse_compare_backends(list: &str) -> Result<Vec<BackendSpec>, String> {
    let specs: Vec<BackendSpec> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|name| {
            BackendKind::parse(name)
                .map(BackendSpec::new)
                .ok_or_else(|| {
                    format!("unknown backend {name:?} (want mcr, baseline, tldram, or clrdram)")
                })
        })
        .collect::<Result<_, _>>()?;
    if specs.is_empty() {
        return Err("--backends needs at least one backend".into());
    }
    Ok(specs)
}

fn parse_compare_args(argv: &[String]) -> Result<Option<CompareArgs>, String> {
    let mut args = CompareArgs {
        spec: CompareSpec::default(),
        jobs: None,
        cache_dir: None,
        csv: false,
        json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.spec.workload = Some(value("--workload")?),
            "--mix" => args.spec.mix = Some(value("--mix")?),
            "--backends" => args.spec.backends = parse_compare_backends(&value("--backends")?)?,
            "--mode" => {
                let v = value("--mode")?;
                args.spec.mode =
                    parse_mode(&v).ok_or_else(|| format!("bad mode {v:?} (want M/Kx/L or off)"))?;
            }
            "--len" => {
                args.spec.len = value("--len")?
                    .parse()
                    .map_err(|e| format!("bad --len: {e}"))?
            }
            "--seed" => {
                args.spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--jobs" => {
                args.jobs = Some(
                    value("--jobs")?
                        .parse()
                        .map_err(|e| format!("bad --jobs: {e}"))?,
                )
            }
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")?),
            "--csv" => args.csv = true,
            "--json" => args.json = true,
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.spec.workload.is_none() && args.spec.mix.is_none() {
        return Err("compare needs --workload or --mix".into());
    }
    Ok(Some(args))
}

fn compare_main(argv: &[String]) -> ExitCode {
    let args = match parse_compare_args(argv) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    // The same spec a `compare` request builds server-side, so a local
    // table and a submitted one come from identical sweeps
    // (tests/compare_suite.rs pins the round trip).
    let sweep = match args.spec.sweep(args.jobs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let results = match &args.cache_dir {
        Some(dir) => match ResultStore::open(dir) {
            Ok(store) => sweep.run_with_store(&store),
            Err(e) => {
                eprintln!("error: cannot open cache {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => sweep.run(),
    };
    let table = args.spec.table(&results);
    if args.json {
        print!("{}", table.to_json());
    } else if args.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// local (legacy) run
// ---------------------------------------------------------------------------

fn local_main(argv: Vec<String>) -> ExitCode {
    let args = match parse_args(argv) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    // The same spec a `run` request builds server-side, so local and
    // submitted runs are byte-identical (tests/sweep_determinism.rs).
    let spec = RunSpec {
        workload: args.workload.clone(),
        mix: args.mix.clone(),
        mode: args.mode,
        len: args.len,
        alloc: args.alloc,
        row_cache: args.row_cache,
        seed: args.seed,
        mechanisms_case: args.mechanisms_case,
        fault_rate: args.fault_rate,
        fault_seed: args.fault_seed,
    };
    let (cfg, target) = match spec.configs() {
        Ok((_, cfg, target)) => (cfg, target),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.chaos {
        let fault_seed = args.fault_seed.unwrap_or(args.seed);
        let mut chaos_cfg = cfg.clone();
        chaos_cfg.fault_plan = None; // the campaign arms its own plans
        println!("chaos campaign: target {target}, fault seed {fault_seed}");
        return match run_chaos(&chaos_cfg, fault_seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // One two-point sweep: the engine validates both configs (a proper
    // error instead of a panic on bad flag combinations) and runs them in
    // parallel when --jobs allows.
    let sweep = match spec.sweep(args.jobs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // With --cache-dir the sweep reads and publishes through the
    // persistent store, so a repeated invocation (or another process
    // sharing the directory) skips the simulation entirely.
    let results = match &args.cache_dir {
        Some(dir) => match ResultStore::open(dir) {
            Ok(store) => sweep.run_with_store(&store),
            Err(e) => {
                eprintln!("error: cannot open cache {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => sweep.run(),
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = dump_trace(&cfg, path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let (base, run) = match (results.points.first(), results.points.get(1)) {
        (Some(b), Some(r)) => (&b.report, &r.report),
        _ => {
            eprintln!(
                "error: sweep produced {} point(s), expected baseline + MCR",
                results.points.len()
            );
            return ExitCode::FAILURE;
        }
    };
    if args.json {
        print!("{}", results.to_json());
        if args.metrics {
            print!("{}", telemetry_to_json(&run.telemetry));
        }
        return ExitCode::SUCCESS;
    }
    let o = Outcome::versus(&target, base, run);

    if args.csv {
        println!("target,mode,exec_reduction_pct,latency_reduction_pct,edp_reduction_pct");
        println!(
            "{target},{},{:.4},{:.4},{:.4}",
            args.mode, o.exec_reduction, o.latency_reduction, o.edp_reduction
        );
        if args.metrics {
            print!("{}", telemetry_to_json(&run.telemetry));
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "target: {target}, {} memory ops/core, seed {}",
        args.len, args.seed
    );
    print_report("baseline [off]", base);
    print_report(&format!("MCR {}", args.mode), run);
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
        args.mode.usable_capacity() * 100.0
    );
    if let Some(c) = &run.cache {
        println!(
            "row cache: {} hits, {} misses, {} promotions, {} evictions",
            c.hits, c.misses, c.promotions, c.evictions
        );
    }
    let rel = &run.reliability;
    if rel.fault_injection {
        println!(
            "faults (seed {}): {} margin checks, {} violations, {} retries, {} escapes",
            rel.fault_seed,
            rel.retention_checks,
            rel.retention_violations,
            rel.retention_retries,
            rel.retention_escapes
        );
        println!(
            "guardband: {} degrades, {} rearms, {} degraded cycles | refresh {} dropped, {} late",
            rel.guardband_degrades,
            rel.guardband_rearms,
            rel.guardband_degraded_cycles,
            rel.refresh_dropped,
            rel.refresh_late
        );
    }
    if args.metrics {
        println!();
        print!("{}", telemetry_to_json(&run.telemetry));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => serve_main(&argv[1..]),
        Some("submit") => submit_main(&argv[1..]),
        Some("dispatch") => dispatch_main(&argv[1..]),
        Some("loadtest") => loadtest_main(&argv[1..]),
        Some("cache") => cache_main(&argv[1..]),
        Some("compare") => compare_main(&argv[1..]),
        _ => local_main(argv),
    }
}

//! `trace_dump` — write a synthetic MSC-format trace to stdout or a file.
//!
//! ```text
//! cargo run -p trace-gen --bin trace_dump --release -- libq 100000 42 > libq.trc
//! ```
//!
//! Arguments: `<workload> [records=100000] [seed=2015]`. The output is the
//! USIMM text format (`<gap> <R|W> <hex-addr>`), so it can drive other
//! DRAM simulators for cross-validation. A missing workload, an unknown
//! name, a value that is not a non-negative integer and any extra argument
//! exit 1 with one `error:` line.

use cpu_model::write_trace;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::str::FromStr;
use trace_gen::{all_workloads, workload, TraceGenerator};

const USAGE: &str = "usage: trace_dump <workload> [records] [seed]";

/// The optional positional argument `what` at `index`, or `default`.
fn arg_or<T: FromStr>(args: &[String], index: usize, what: &str, default: T) -> Result<T, String> {
    match args.get(index) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad {what} {v:?} (want a non-negative integer)")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        let names: Vec<&str> = all_workloads().iter().map(|w| w.name).collect();
        return Err(format!(
            "missing workload ({USAGE}; workloads: {})",
            names.join(", ")
        ));
    };
    let profile = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let records: usize = arg_or(args, 1, "records", 100_000)?;
    let seed: u64 = arg_or(args, 2, "seed", 2015)?;
    if let Some(extra) = args.get(3) {
        return Err(format!("unexpected argument {extra:?} ({USAGE})"));
    }

    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let trace = TraceGenerator::new(profile, seed, 0).take(records);
    write_trace(&mut out, trace)
        .and_then(|()| out.flush())
        .map_err(|e| format!("write failed: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

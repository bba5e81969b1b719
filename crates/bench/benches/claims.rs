//! `make claims`: the paper-claims ledger at FULL scale.
//!
//! Runs every row of `mcr_bench::claims` through a disk store in
//! `target/claims-store` (a rerun simulates nothing new), prints the
//! ledger, rewrites the generated tables of EXPERIMENTS.md, and exits
//! non-zero when a row holds at fewer seeds than its stated share.

use mcr_bench::claims::{evaluate, splice, FULL};
use mcr_store::ResultStore;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let store = ResultStore::open(root.join("target/claims-store")).expect("open the store");
    let t = Instant::now();
    let ledger = evaluate(&FULL, &store);
    let table = ledger.render();
    println!("{table}");
    println!(
        "[claims] {} points, {} simulated, {} store hits, wall {:.1?}",
        ledger.points,
        ledger.simulated,
        ledger.points - ledger.simulated,
        t.elapsed()
    );
    let path = root.join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let doc = splice(&doc, &table).expect("EXPERIMENTS.md keeps its claims markers");
    std::fs::write(&path, doc).expect("write EXPERIMENTS.md");
    for v in ledger.verdicts.iter().filter(|v| !v.passes()) {
        eprintln!("[claims] FAIL {}: {}", v.row.id, v.seed_note());
    }
    if ledger.passes() {
        println!("[claims] every row meets its share");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Dynamic MCR-mode change in a live system (paper Sec. 4.1/4.4):
//! start in low-latency [4/4x/100%reg], relax to [2/2x] when more
//! capacity is needed, and finally fall back to full-capacity DRAM —
//! all mid-run, with no data movement (Table 2's address-mapping trick).
//!
//! ```text
//! cargo run -p mcr-dram --example dynamic_reconfig --release
//! ```

use mcr_dram::{McrMode, ModeChangePlan, System, SystemConfig};

fn main() {
    let plan = ModeChangePlan::new(4 << 30);
    let cfg = SystemConfig::single_core("leslie", 60_000).with_mode(McrMode::headline());
    let mut sys = System::try_build(&cfg).expect("valid config");

    let mut mode = McrMode::headline();
    println!(
        "phase 1: {mode} — OS sees {} GiB",
        plan.os_view(mode).bytes >> 30
    );
    sys.run_until(250_000);

    let relaxed = mode.relaxed().expect("4x relaxes to 2x");
    assert!(plan.change_is_collision_free(mode, relaxed));
    sys.reconfigure(relaxed)
        .expect("the MCR backend reconfigures");
    mode = relaxed;
    println!(
        "phase 2 @ cycle {}: relaxed to {mode} — OS sees {} GiB, no data copied",
        sys.now(),
        plan.os_view(mode).bytes >> 30
    );
    sys.run_until(500_000);

    let off = mode.relaxed().expect("2x relaxes to off");
    assert!(plan.change_is_collision_free(mode, off));
    sys.reconfigure(off).expect("the MCR backend reconfigures");
    println!(
        "phase 3 @ cycle {}: MCR-mode off — full {} GiB available",
        sys.now(),
        plan.os_view(off).bytes >> 30
    );
    sys.run_until(u64::MAX);

    let r = sys.report();
    println!();
    println!(
        "run finished: {} reads, avg read latency {:.1} mem cycles, {} mem cycles total",
        r.reads_done, r.avg_read_latency, r.total_mem_cycles
    );
    println!("every phase transition was a Table 2 relaxation: collision-free by construction.");
}

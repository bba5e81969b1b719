//! Micro-benchmarks of the simulator's hot paths: the bank state machine,
//! FR-FCFS scheduling under load, trace generation, and a short
//! end-to-end run. Uses the same lightweight `Instant`-based harness as
//! the figure benches (no external benchmarking framework).

use dram_device::{Channel, Geometry, PhysAddr, RowTimingClass, TimingSet};
use mcr_bench::{header, timed};
use mcr_dram::{McrMode, System, SystemConfig};
use mcr_telemetry::{Counter, LatencyHistogram};
use mem_controller::{BaselinePolicy, ControllerConfig, MemoryController, PageInterleave};
use std::time::Instant;
use trace_gen::{workload, TraceGenerator};

/// Runs `f` `iters` times after a warm-up fifth and prints mean ns/iter.
/// The u64 the closure returns is accumulated and printed to keep the
/// optimizer from deleting the measured work.
fn bench(name: &str, iters: u32, mut f: impl FnMut() -> u64) {
    let mut sink = 0u64;
    for _ in 0..iters / 5 {
        sink = sink.wrapping_add(f());
    }
    let t = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(f());
    }
    let per = t.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<28} {per:>12.0} ns/iter   (sink {sink:x})");
}

fn bench_bank_fsm() {
    let mut chan = Channel::new(Geometry::tiny(), TimingSet::default());
    let mut now = 0u64;
    bench("device/act_rd_pre_cycle", 100_000, || {
        chan.activate(0, 0, 1, now, RowTimingClass(0)).unwrap();
        let rd = chan.next_read_cycle(0, 0);
        chan.read(0, 0, 0, rd).unwrap();
        let pre = chan.next_precharge_cycle(0, 0);
        chan.precharge(0, 0, pre).unwrap();
        now = chan.next_activate_cycle(0, 0).max(pre + 1);
        now
    });
}

fn bench_controller() {
    bench("controller/tick_loaded", 200, || {
        let g = Geometry::single_core_4gb();
        let mut ctl = MemoryController::new(
            g,
            TimingSet::default(),
            ControllerConfig::msc_default(),
            Box::new(PageInterleave::new(g)),
            Box::new(BaselinePolicy),
        );
        for i in 0..32u64 {
            ctl.enqueue_read(0, PhysAddr(i * 8192));
        }
        let mut done = 0u64;
        for now in 0..2_000u64 {
            done += ctl.tick(now).len() as u64;
        }
        done
    });
}

fn bench_tracegen() {
    let w = workload("comm1").unwrap();
    let mut seed = 0u64;
    bench("tracegen/10k_records", 200, || {
        seed += 1;
        TraceGenerator::new(w, seed, 0).take(10_000).count() as u64
    });
}

fn bench_telemetry() {
    // The primitives sit on the per-command hot path; they must cost a
    // handful of ns and allocate nothing in steady state.
    let mut counter = Counter::new();
    bench("telemetry/counter_inc_1k", 100_000, || {
        for _ in 0..1_000 {
            counter.inc();
        }
        counter.get()
    });
    let mut hist = LatencyHistogram::new();
    let mut v = 1u64;
    bench("telemetry/hist_record_1k", 100_000, || {
        for _ in 0..1_000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(v >> 40);
        }
        hist.count()
    });
    let other = hist.clone();
    bench("telemetry/hist_merge", 100_000, || {
        hist.merge(&other);
        hist.count()
    });
}

fn bench_end_to_end() {
    bench("system/end_to_end_5k", 10, || {
        let cfg = SystemConfig::single_core("libq", 5_000).with_mode(McrMode::headline());
        System::build(&cfg).run().exec_cpu_cycles
    });
}

fn main() {
    timed("micro", || {
        header("micro_hotpaths", "hot-path micro-benchmarks (mean ns/iter)");
        bench_bank_fsm();
        bench_controller();
        bench_tracegen();
        bench_telemetry();
        bench_end_to_end();
    });
}

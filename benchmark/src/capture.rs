//! Layer boundaries of one simulation, captured and replayed.
//!
//! [`capture`] drives a run the way `System::run` does, through the same
//! public calls on the controller and the cores, and records what crosses
//! each boundary: the controller's call sequence (with every answer), the
//! cores' call sequence (with every completion and wheel query), and each
//! channel's command stream. The `replay_*` functions then re-execute one
//! layer alone against those recordings under a single timer, and check
//! that the layer answers exactly as it did in the captured run.

use cpu_model::{
    Core, CoreParams, CoreStats, CoreWait, RequestSink, TraceRecord, CPU_PER_MEM_CYCLE,
};
use dram_device::{
    ActivityCounters, Channel, Command, CommandKind, Cycle, DramAddress, PhysAddr, TimingSet,
};
use mcr_dram::{
    BackendKind, DeviceClass, MappingKind, McrPolicy, McrTimingTable, RegionMap, RunReport,
    SystemConfig,
};
use mem_controller::{
    AddressMapper, BitReversal, Completion, ControllerConfig, ControllerStats, DevicePolicy,
    MemoryController, PageInterleave, PermutationInterleave,
};
use std::time::{Duration, Instant};
use trace_gen::TraceGenerator;

/// `System::run` advances in windows of this many memory cycles (its
/// budget-poll granularity); skips never cross a window edge.
const BUDGET_POLL_CYCLES: Cycle = 100_000;

/// Same wedge bound as `System::run`.
const WEDGE_CAP: Cycle = 500_000_000;

/// One call the capture loop made on the memory controller, with its answer.
#[derive(Debug, Clone, Copy)]
enum CtlCall {
    /// `tick(now)`, which returned the next `completions` entries of
    /// [`Capture::completions`].
    Tick {
        now: Cycle,
        completions: u32,
    },
    EnqueueRead {
        core: u32,
        addr: PhysAddr,
        token: Option<u64>,
    },
    EnqueueWrite {
        core: u32,
        addr: PhysAddr,
        accepted: bool,
    },
    HadActivity(bool),
    NextEvent {
        now: Cycle,
        edge: Option<Cycle>,
    },
    NoteSkipped(Cycle),
    Idle(bool),
}

/// One call the capture loop made on a core. `Cycles` stands for the four CPU
/// sub-cycles of one memory cycle, each ticking every live core.
#[derive(Debug, Clone, Copy)]
enum CoreCall {
    Cycles {
        mem_now: Cycle,
    },
    Complete {
        core: u32,
        token: u64,
        ready_at: u64,
    },
    WaitHint {
        core: u32,
        hint: CoreWait,
    },
    ComputeQuiet {
        core: u32,
        cycles: u64,
    },
    AdvanceCompute {
        core: u32,
        start: u64,
        cycles: u64,
    },
    NoteSkipped {
        core: u32,
        cycles: u64,
    },
}

/// Everything one captured run sent across the layer boundaries.
pub struct Capture {
    ctl_calls: Vec<CtlCall>,
    completions: Vec<Completion>,
    core_calls: Vec<CoreCall>,
    /// Command stream per channel.
    commands: Vec<Vec<Command>>,
    ctl_stats: ControllerStats,
    core_stats: Vec<CoreStats>,
    /// Activity counters per channel, per rank.
    counters: Vec<Vec<ActivityCounters>>,
    total_mem_cycles: Cycle,
    cycle_calls: u64,
}

/// Work counts of a captured run, one per layer metric that counts work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub ticks: u64,
    pub next_event_calls: u64,
    pub skips: u64,
    pub skipped_cycles: u64,
    pub enqueues: u64,
    pub refused_requests: u64,
    pub cycle_calls: u64,
    pub compute_spans: u64,
    pub compute_cycles: u64,
    pub commands: u64,
    pub activates: u64,
    pub total_mem_cycles: u64,
    pub read_latency_cycles: f64,
    pub row_hit_rate: f64,
}

impl Capture {
    pub fn counts(&self) -> Counts {
        let mut c = Counts {
            cycle_calls: self.cycle_calls,
            total_mem_cycles: self.total_mem_cycles,
            read_latency_cycles: self.ctl_stats.avg_read_latency(),
            row_hit_rate: self.ctl_stats.row_hit_rate(),
            ..Counts::default()
        };
        for call in &self.ctl_calls {
            match *call {
                CtlCall::Tick { .. } => c.ticks += 1,
                CtlCall::EnqueueRead { token, .. } => {
                    c.enqueues += 1;
                    c.refused_requests += u64::from(token.is_none());
                }
                CtlCall::EnqueueWrite { accepted, .. } => {
                    c.enqueues += 1;
                    c.refused_requests += u64::from(!accepted);
                }
                CtlCall::NextEvent { .. } => c.next_event_calls += 1,
                CtlCall::NoteSkipped(n) => {
                    c.skips += 1;
                    c.skipped_cycles += n;
                }
                CtlCall::HadActivity(_) | CtlCall::Idle(_) => {}
            }
        }
        for call in &self.core_calls {
            if let CoreCall::AdvanceCompute { cycles, .. } = *call {
                c.compute_spans += 1;
                c.compute_cycles += cycles;
            }
        }
        for cmd in self.commands.iter().flatten() {
            c.commands += 1;
            c.activates += u64::from(cmd.kind == CommandKind::Activate);
        }
        c
    }

    /// Checks the captured run against `System::run`'s report of the same
    /// configuration.
    pub fn check_against(&self, report: &RunReport) -> Result<(), String> {
        let per_core: Vec<u64> = self.core_stats.iter().map(|s| s.done_cycle).collect();
        let exec = per_core.iter().copied().max().unwrap_or(0);
        if self.ctl_stats != report.controller
            || self.total_mem_cycles != report.total_mem_cycles
            || exec != report.exec_cpu_cycles
            || per_core != report.per_core_cpu_cycles
        {
            return Err("captured run diverged from System::run".into());
        }
        Ok(())
    }
}

/// Capture supports the configurations the benchmark runs: the MCR
/// backend without fault injection, row cache or page allocation (each
/// of those adds drive-loop work that this mirror does not model).
fn supported(cfg: &SystemConfig) -> Result<(), String> {
    if cfg.backend.kind != BackendKind::Mcr
        || cfg.fault_plan.is_some()
        || cfg.row_cache.is_some()
        || cfg.alloc_ratio > 0.0
    {
        return Err("capture supports plain MCR configurations only".into());
    }
    Ok(())
}

fn policy(cfg: &SystemConfig) -> McrPolicy {
    let g = cfg.geometry;
    let regions = cfg
        .region_map
        .clone()
        .unwrap_or_else(|| RegionMap::single(cfg.mode));
    let table = McrTimingTable::paper(DeviceClass::for_rows_per_bank(g.rows_per_bank));
    McrPolicy::from_regions(regions, cfg.mechanisms, &table, g.ranks, g.row_bits())
}

/// A controller built the way `System::try_build` builds it, with the
/// protocol auditor off so debug and release builds replay the same work.
fn controller(cfg: &SystemConfig) -> Result<MemoryController, String> {
    supported(cfg)?;
    let g = cfg.geometry;
    let mapper: Box<dyn AddressMapper> = match cfg.mapping {
        MappingKind::PageInterleave => Box::new(PageInterleave::new(g)),
        MappingKind::Permutation => Box::new(PermutationInterleave::new(g)),
        MappingKind::BitReversal => Box::new(BitReversal::new(g)),
    };
    let ctl_config = ControllerConfig {
        scheduler: cfg.scheduler,
        row_policy: cfg.row_policy,
        wiring: cfg.wiring,
        powerdown_idle_threshold: cfg.powerdown_idle_threshold,
        ..ControllerConfig::msc_default()
    };
    let timing = TimingSet::ddr3_1600(g.rows_per_bank);
    let mut ctl = MemoryController::try_new(g, timing, ctl_config, mapper, Box::new(policy(cfg)))
        .map_err(|e| e.to_string())?;
    ctl.set_audit_enabled(false);
    Ok(ctl)
}

/// Per-core trace generators, seeded and placed as `System::try_build`
/// places them.
fn generators(cfg: &SystemConfig) -> impl Iterator<Item = std::iter::Take<TraceGenerator>> + '_ {
    let cores = cfg.workloads.len() as u64;
    cfg.workloads.iter().enumerate().map(move |(i, w)| {
        let i = i as u64;
        let base = if cfg.shared_address_space {
            0
        } else {
            cfg.geometry.capacity_bytes() / cores * i
        };
        let seed = cfg.seed.wrapping_add(i).wrapping_mul(0x9e37);
        TraceGenerator::new(w, seed, base).take(cfg.trace_len)
    })
}

/// The trace-gen layer's whole output for `cfg`, one record list per core.
pub fn generate_traces(cfg: &SystemConfig) -> Vec<Vec<TraceRecord>> {
    generators(cfg).map(Iterator::collect).collect()
}

/// Runs `cfg` through the capture loop. Returns the recordings and the
/// wall time of the run itself (recording included, set-up excluded).
pub fn capture(cfg: &SystemConfig) -> Result<(Capture, Duration), String> {
    let mut ctl = controller(cfg)?;
    // Every request costs at most PRE + ACT + CAS; refreshes add about one
    // command per 6k cycles. The trace is a ring, so it must never fill.
    let trace_cap = 4 * cfg.trace_len * cfg.workloads.len() + 65_536;
    ctl.enable_command_trace(trace_cap);
    let cores = generators(cfg)
        .enumerate()
        .map(|(i, g)| {
            let trace: Box<dyn Iterator<Item = TraceRecord>> = Box::new(g);
            Core::new(i as u32, CoreParams::msc_default(), trace)
        })
        .collect();
    let mut m = Mirror {
        cores,
        ctl,
        mem_now: 0,
        ctl_calls: Vec::new(),
        completions: Vec::new(),
        core_calls: Vec::new(),
        cycle_calls: 0,
    };
    let t = Instant::now();
    m.run()?;
    let elapsed = t.elapsed();
    m.ctl.finish(m.mem_now);
    let commands: Vec<Vec<Command>> = m
        .ctl
        .channels()
        .map(|c| c.command_trace().copied().collect())
        .collect();
    if commands.iter().any(|c| c.len() >= trace_cap) {
        return Err("command trace overflowed its ring".into());
    }
    let ranks = cfg.geometry.ranks;
    let counters = m
        .ctl
        .channels()
        .map(|c| (0..ranks).map(|r| c.rank(r).counters.clone()).collect())
        .collect();
    let capture = Capture {
        ctl_stats: m.ctl.stats(),
        core_stats: m.cores.iter().map(|c| c.stats().clone()).collect(),
        ctl_calls: m.ctl_calls,
        completions: m.completions,
        core_calls: m.core_calls,
        commands,
        counters,
        total_mem_cycles: m.mem_now,
        cycle_calls: m.cycle_calls,
    };
    Ok((capture, elapsed))
}

/// `System`'s event-wheel drive (skip-ahead on, no row cache, no
/// guardband), rebuilt from public calls with a recorder on each one.
struct Mirror {
    cores: Vec<Core<Box<dyn Iterator<Item = TraceRecord>>>>,
    ctl: MemoryController,
    mem_now: Cycle,
    ctl_calls: Vec<CtlCall>,
    completions: Vec<Completion>,
    core_calls: Vec<CoreCall>,
    cycle_calls: u64,
}

impl Mirror {
    fn run(&mut self) -> Result<(), String> {
        loop {
            let target = self.mem_now.saturating_add(BUDGET_POLL_CYCLES);
            if self.run_until(target)? {
                return Ok(());
            }
            if self.mem_now >= WEDGE_CAP {
                return Err(format!("simulation wedged at cycle {}", self.mem_now));
            }
        }
    }

    fn run_until(&mut self, target: Cycle) -> Result<bool, String> {
        while self.mem_now < target {
            if self.done() {
                return Ok(true);
            }
            let quiet = self.advance_cycle()?;
            if !self.done() {
                if quiet {
                    self.skip_to_next_edge(target);
                } else if !self.had_activity() {
                    self.skip_compute_span(target);
                }
            }
        }
        Ok(self.done())
    }

    fn done(&mut self) -> bool {
        if !self.cores.iter().all(|c| c.done()) {
            return false;
        }
        let idle = self.ctl.idle();
        self.ctl_calls.push(CtlCall::Idle(idle));
        idle
    }

    fn had_activity(&mut self) -> bool {
        let active = self.ctl.had_activity();
        self.ctl_calls.push(CtlCall::HadActivity(active));
        active
    }

    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        let edge = self.ctl.next_event(now);
        self.ctl_calls.push(CtlCall::NextEvent { now, edge });
        edge
    }

    fn wait_hint(&mut self, core: usize) -> CoreWait {
        let hint = self.cores[core].wait_hint();
        self.core_calls.push(CoreCall::WaitHint {
            core: core as u32,
            hint,
        });
        hint
    }

    fn compute_quiet(&mut self, core: usize) -> u64 {
        let cycles = self.cores[core].compute_quiet_cycles();
        self.core_calls.push(CoreCall::ComputeQuiet {
            core: core as u32,
            cycles,
        });
        cycles
    }

    fn note_ctl_skipped(&mut self, skipped: Cycle) {
        self.ctl.note_skipped_cycles(skipped);
        self.ctl_calls.push(CtlCall::NoteSkipped(skipped));
    }

    fn note_core_skipped(&mut self, core: usize, cycles: u64) {
        self.cores[core].note_skipped_cycles(cycles);
        self.core_calls.push(CoreCall::NoteSkipped {
            core: core as u32,
            cycles,
        });
    }

    fn advance_cycle(&mut self) -> Result<bool, String> {
        let done = self.ctl.tick(self.mem_now);
        self.ctl_calls.push(CtlCall::Tick {
            now: self.mem_now,
            completions: done.len() as u32,
        });
        for c in done {
            let ready_at = c.ready_at * CPU_PER_MEM_CYCLE;
            self.cores[c.core_id as usize].complete_read(c.token, ready_at);
            self.core_calls.push(CoreCall::Complete {
                core: c.core_id,
                token: c.token,
                ready_at,
            });
            self.completions.push(c);
        }
        if !self.ctl.drain_guardband_transitions().is_empty() {
            return Err("guardband moves are not mirrored".into());
        }
        self.core_calls.push(CoreCall::Cycles {
            mem_now: self.mem_now,
        });
        let mut sink = RecordingSink {
            ctl: &mut self.ctl,
            calls: &mut self.ctl_calls,
        };
        for sub in 0..CPU_PER_MEM_CYCLE {
            let cpu_now = self.mem_now * CPU_PER_MEM_CYCLE + sub;
            for core in &mut self.cores {
                if !core.done() {
                    core.cycle(cpu_now, &mut sink);
                    self.cycle_calls += 1;
                }
            }
        }
        let quiet = !self.had_activity() && self.cores_quiet();
        self.mem_now += 1;
        Ok(quiet)
    }

    fn cores_quiet(&mut self) -> bool {
        (0..self.cores.len()).all(|i| match self.wait_hint(i) {
            CoreWait::Done => true,
            CoreWait::Active => false,
            CoreWait::Stalled { retire_at, .. } => {
                retire_at.is_none_or(|t| t / CPU_PER_MEM_CYCLE > self.mem_now + 1)
            }
        })
    }

    fn skip_to_next_edge(&mut self, until: Cycle) {
        let now = self.mem_now - 1;
        let mut edge = self.next_event(now);
        for i in 0..self.cores.len() {
            if let CoreWait::Stalled {
                retire_at: Some(t), ..
            } = self.wait_hint(i)
            {
                let mem = t / CPU_PER_MEM_CYCLE;
                if mem > now {
                    edge = Some(edge.map_or(mem, |e| e.min(mem)));
                }
            }
        }
        let Some(edge) = edge else { return };
        let target = edge.max(self.mem_now).min(until);
        let skipped = target.saturating_sub(self.mem_now);
        if skipped == 0 {
            return;
        }
        self.note_ctl_skipped(skipped);
        for i in 0..self.cores.len() {
            self.note_core_skipped(i, skipped * CPU_PER_MEM_CYCLE);
        }
        self.mem_now = target;
    }

    fn skip_compute_span(&mut self, until: Cycle) {
        let now = self.mem_now - 1;
        let mut span_cpu = Cycle::MAX;
        let mut any_compute = false;
        for i in 0..self.cores.len() {
            let safe = self.compute_quiet(i);
            if safe > 0 {
                any_compute = true;
                span_cpu = span_cpu.min(safe);
                continue;
            }
            if self.wait_hint(i) == CoreWait::Active {
                return;
            }
        }
        let span_mem = span_cpu / CPU_PER_MEM_CYCLE;
        if !any_compute || span_mem == 0 {
            return;
        }
        let mut target = self.mem_now.saturating_add(span_mem).min(until);
        if let Some(e) = self.next_event(now) {
            target = target.min(e);
        }
        for i in 0..self.cores.len() {
            if self.compute_quiet(i) > 0 {
                continue;
            }
            if let CoreWait::Stalled {
                retire_at: Some(t), ..
            } = self.wait_hint(i)
            {
                target = target.min(t / CPU_PER_MEM_CYCLE);
            }
        }
        let skipped = target.saturating_sub(self.mem_now);
        if skipped == 0 {
            return;
        }
        self.note_ctl_skipped(skipped);
        let start = self.mem_now * CPU_PER_MEM_CYCLE;
        let cycles = skipped * CPU_PER_MEM_CYCLE;
        for i in 0..self.cores.len() {
            if self.compute_quiet(i) > 0 {
                self.cores[i].advance_compute(start, cycles);
                self.core_calls.push(CoreCall::AdvanceCompute {
                    core: i as u32,
                    start,
                    cycles,
                });
            } else {
                self.note_core_skipped(i, cycles);
            }
        }
        self.mem_now = target;
    }
}

/// The controller as the cores see it, recording every answer.
struct RecordingSink<'a> {
    ctl: &'a mut MemoryController,
    calls: &'a mut Vec<CtlCall>,
}

impl RequestSink for RecordingSink<'_> {
    fn try_read(&mut self, core: u32, addr: PhysAddr) -> Option<u64> {
        let token = self.ctl.enqueue_read(core, addr);
        self.calls.push(CtlCall::EnqueueRead { core, addr, token });
        token
    }

    fn try_write(&mut self, core: u32, addr: PhysAddr) -> bool {
        let accepted = self.ctl.enqueue_write(core, addr);
        self.calls.push(CtlCall::EnqueueWrite {
            core,
            addr,
            accepted,
        });
        accepted
    }
}

/// Replays the controller's call sequence on a fresh controller, with or
/// without its `next_event` queries (which take `&self`, so dropping them
/// leaves every other answer unchanged).
pub fn replay_controller(
    cfg: &SystemConfig,
    cap: &Capture,
    with_next_event: bool,
) -> Result<Duration, String> {
    let mut ctl = controller(cfg)?;
    let mut pos = 0;
    let mut mismatches = 0u64;
    let t = Instant::now();
    for call in &cap.ctl_calls {
        let same = match *call {
            CtlCall::Tick { now, completions } => {
                let done = ctl.tick(now);
                let end = pos + completions as usize;
                let same = cap.completions.get(pos..end) == Some(&done[..]);
                pos = end;
                same && ctl.drain_guardband_transitions().is_empty()
            }
            CtlCall::EnqueueRead { core, addr, token } => ctl.enqueue_read(core, addr) == token,
            CtlCall::EnqueueWrite {
                core,
                addr,
                accepted,
            } => ctl.enqueue_write(core, addr) == accepted,
            CtlCall::HadActivity(active) => ctl.had_activity() == active,
            CtlCall::NextEvent { now, edge } => !with_next_event || ctl.next_event(now) == edge,
            CtlCall::NoteSkipped(n) => {
                ctl.note_skipped_cycles(n);
                true
            }
            CtlCall::Idle(idle) => ctl.idle() == idle,
        };
        mismatches += u64::from(!same);
    }
    let elapsed = t.elapsed();
    ctl.finish(cap.total_mem_cycles);
    if mismatches > 0 || ctl.stats() != cap.ctl_stats {
        return Err(format!(
            "controller replay diverged ({mismatches} differing answers)"
        ));
    }
    Ok(elapsed)
}

/// Replays the cores' call sequence over pre-generated traces, answering
/// their requests from the recording instead of a controller.
pub fn replay_cores(cap: &Capture, traces: Vec<Vec<TraceRecord>>) -> Result<Duration, String> {
    let mut cores: Vec<_> = traces
        .into_iter()
        .enumerate()
        .map(|(i, t)| Core::new(i as u32, CoreParams::msc_default(), t.into_iter()))
        .collect();
    let mut sink = ReplaySink {
        answers: &cap.ctl_calls,
        pos: 0,
        mismatches: 0,
    };
    let mut mismatches = 0u64;
    let t = Instant::now();
    for call in &cap.core_calls {
        match *call {
            CoreCall::Cycles { mem_now } => {
                for sub in 0..CPU_PER_MEM_CYCLE {
                    let cpu_now = mem_now * CPU_PER_MEM_CYCLE + sub;
                    for core in &mut cores {
                        if !core.done() {
                            core.cycle(cpu_now, &mut sink);
                        }
                    }
                }
            }
            CoreCall::Complete {
                core,
                token,
                ready_at,
            } => cores[core as usize].complete_read(token, ready_at),
            CoreCall::WaitHint { core, hint } => {
                mismatches += u64::from(cores[core as usize].wait_hint() != hint);
            }
            CoreCall::ComputeQuiet { core, cycles } => {
                mismatches += u64::from(cores[core as usize].compute_quiet_cycles() != cycles);
            }
            CoreCall::AdvanceCompute {
                core,
                start,
                cycles,
            } => cores[core as usize].advance_compute(start, cycles),
            CoreCall::NoteSkipped { core, cycles } => {
                cores[core as usize].note_skipped_cycles(cycles);
            }
        }
    }
    let elapsed = t.elapsed();
    let stats_same = cores.iter().map(|c| c.stats()).eq(cap.core_stats.iter());
    let unanswered = sink.answers[sink.pos..].iter().any(|c| {
        matches!(
            c,
            CtlCall::EnqueueRead { .. } | CtlCall::EnqueueWrite { .. }
        )
    });
    if mismatches + sink.mismatches > 0 || unanswered || !stats_same {
        return Err("core replay diverged".into());
    }
    Ok(elapsed)
}

/// Answers core requests from the recorded controller call sequence.
struct ReplaySink<'a> {
    answers: &'a [CtlCall],
    pos: usize,
    mismatches: u64,
}

impl ReplaySink<'_> {
    fn next_answer(&mut self) -> Option<CtlCall> {
        while let Some(&call) = self.answers.get(self.pos) {
            self.pos += 1;
            if matches!(
                call,
                CtlCall::EnqueueRead { .. } | CtlCall::EnqueueWrite { .. }
            ) {
                return Some(call);
            }
        }
        None
    }
}

impl RequestSink for ReplaySink<'_> {
    fn try_read(&mut self, core_id: u32, addr: PhysAddr) -> Option<u64> {
        match self.next_answer() {
            Some(CtlCall::EnqueueRead {
                core,
                addr: a,
                token,
            }) if core == core_id && a == addr => token,
            _ => {
                self.mismatches += 1;
                None
            }
        }
    }

    fn try_write(&mut self, core_id: u32, addr: PhysAddr) -> bool {
        match self.next_answer() {
            Some(CtlCall::EnqueueWrite {
                core,
                addr: a,
                accepted,
            }) if core == core_id && a == addr => accepted,
            _ => {
                self.mismatches += 1;
                false
            }
        }
    }
}

/// Replays every captured ACT address through the MCR policy's
/// `activate_class`, checking the class against the one the controller
/// issued. Returns the wall time and the extra-wordline answers per
/// channel, in command order (the device replay needs them).
pub fn replay_policy(
    cfg: &SystemConfig,
    cap: &Capture,
) -> Result<(Duration, Vec<Vec<u32>>), String> {
    let policy = policy(cfg);
    let acts: Vec<Vec<(DramAddress, dram_device::RowTimingClass)>> = cap
        .commands
        .iter()
        .enumerate()
        .map(|(ch, cmds)| {
            cmds.iter()
                .filter(|c| c.kind == CommandKind::Activate)
                .map(|c| {
                    (
                        DramAddress {
                            channel: ch as u8,
                            ..c.addr
                        },
                        c.class,
                    )
                })
                .collect()
        })
        .collect();
    let mut extra: Vec<Vec<u32>> = acts.iter().map(|a| Vec::with_capacity(a.len())).collect();
    let mut mismatches = 0u64;
    let t = Instant::now();
    for (ch_acts, ch_extra) in acts.iter().zip(&mut extra) {
        for (addr, class) in ch_acts {
            let (c, wordlines) = policy.activate_class(addr);
            mismatches += u64::from(c != *class);
            ch_extra.push(wordlines);
        }
    }
    let elapsed = t.elapsed();
    if mismatches > 0 {
        return Err(format!(
            "policy replay chose {mismatches} different classes"
        ));
    }
    Ok((elapsed, extra))
}

/// Replays each channel's command stream on a fresh `Channel`. Power-down
/// entry and exit are not commands, so the replayed ranks never sleep;
/// that only removes constraints, so every command stays legal.
pub fn replay_device(
    cfg: &SystemConfig,
    cap: &Capture,
    extra_wordlines: &[Vec<u32>],
) -> Result<Duration, String> {
    let g = cfg.geometry;
    let timing = TimingSet::ddr3_1600(g.rows_per_bank);
    let classes = policy(cfg).timing_classes();
    let mut channels = Vec::with_capacity(cap.commands.len());
    for _ in &cap.commands {
        let mut chan = Channel::new(g, timing.clone());
        chan.set_audit_enabled(false);
        for rt in &classes {
            chan.register_row_timing(*rt).map_err(|e| e.to_string())?;
        }
        channels.push(chan);
    }
    let mut refused = 0u64;
    let t = Instant::now();
    for ((chan, cmds), extra) in channels.iter_mut().zip(&cap.commands).zip(extra_wordlines) {
        let mut extra = extra.iter().copied();
        for c in cmds {
            let a = c.addr;
            let ok = match c.kind {
                CommandKind::Activate => {
                    let wordlines = extra.next().unwrap_or(0);
                    chan.activate_mcr(a.rank, a.bank, a.row, c.cycle, c.class, wordlines)
                        .is_ok()
                }
                CommandKind::Read if c.auto_pre => chan
                    .read_auto_precharge(a.rank, a.bank, a.col, c.cycle)
                    .is_ok(),
                CommandKind::Read => chan.read(a.rank, a.bank, a.col, c.cycle).is_ok(),
                CommandKind::Write if c.auto_pre => chan
                    .write_auto_precharge(a.rank, a.bank, a.col, c.cycle)
                    .is_ok(),
                CommandKind::Write => chan.write(a.rank, a.bank, a.col, c.cycle).is_ok(),
                CommandKind::Precharge => chan.precharge(a.rank, a.bank, c.cycle).is_ok(),
                CommandKind::Refresh => chan.refresh_slot(a.rank, a.row, c.cycle, c.t_rfc).is_ok(),
                CommandKind::ModeChange => {
                    chan.note_mode_change(c.cycle);
                    true
                }
            };
            refused += u64::from(!ok);
        }
    }
    let elapsed = t.elapsed();
    if refused > 0 {
        return Err(format!("device refused {refused} replayed commands"));
    }
    for (chan, captured) in channels.iter_mut().zip(&cap.counters) {
        chan.finish_counters(cap.total_mem_cycles);
        for (rank, want) in captured.iter().enumerate() {
            // Power-down residency is the one counter the replay cannot
            // reproduce (see above).
            let mut got = chan.rank(rank as u8).counters.clone();
            got.powerdown_cycles = want.powerdown_cycles;
            if &got != want {
                return Err(format!("device replay diverged on rank {rank}"));
            }
        }
    }
    Ok(elapsed)
}

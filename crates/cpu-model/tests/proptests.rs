//! Randomized (seeded, deterministic) tests for the core model and trace
//! I/O — a dependency-free replacement for the former `proptest` suite.
//! Trace files come from outside the process, so the trace reader is
//! also mutation-fuzzed, in the style of `mcr-serve`'s `protocol_fuzz.rs`.

use cpu_model::{
    read_trace, write_trace, Core, CoreParams, CoreStats, CoreWait, InstantMemory, ParseTraceError,
    RequestSink, TraceRecord, CPU_PER_MEM_CYCLE,
};
use dram_device::{PhysAddr, ReqKind};
use sim_rng::SmallRng;
use std::io::BufReader;

fn random_record(rng: &mut SmallRng) -> TraceRecord {
    TraceRecord::new(
        rng.gen_range(0..200u32),
        if rng.gen_bool(0.5) {
            ReqKind::Read
        } else {
            ReqKind::Write
        },
        PhysAddr(rng.gen_range(0..(1u64 << 32)) * 64),
    )
}

fn random_trace(rng: &mut SmallRng, min: usize, max: usize) -> Vec<TraceRecord> {
    let n = rng.gen_range(min..max);
    (0..n).map(|_| random_record(rng)).collect()
}

/// Any trace completes against the instant memory, retiring exactly the
/// trace's instruction count, and the completion cycle is at least
/// instructions / retire_width.
#[test]
fn core_always_retires_everything() {
    let mut rng = SmallRng::seed_from_u64(0xC9);
    for _ in 0..200 {
        let trace = random_trace(&mut rng, 1, 60);
        let latency = rng.gen_range(0..400u64);
        let instrs: u64 = trace.iter().map(|r| r.instructions()).sum();
        let mem_ops = trace.len() as u64;
        let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
        let mut mem = InstantMemory::new(latency);
        let mut now = 0u64;
        while !core.done() {
            assert!(now < 4_000_000, "core wedged");
            mem.deliver(now, &mut core);
            core.cycle(now, &mut mem);
            now += 1;
        }
        let stats = core.stats();
        assert_eq!(stats.committed, instrs);
        assert!(
            stats.done_cycle as f64 >= instrs as f64 / 2.0 - 1.0,
            "retire width 2 bounds throughput"
        );
        // Every trace record produced exactly one memory request.
        assert_eq!(stats.reads_issued + stats.writes_issued, mem_ops);
    }
}

/// Longer memory latency never makes a trace finish earlier.
#[test]
fn completion_monotone_in_latency() {
    let mut rng = SmallRng::seed_from_u64(0xCC);
    for _ in 0..100 {
        let trace = random_trace(&mut rng, 1, 40);
        let run = |lat: u64| {
            let mut core = Core::new(0, CoreParams::msc_default(), trace.clone().into_iter());
            let mut mem = InstantMemory::new(lat);
            let mut now = 0u64;
            while !core.done() {
                assert!(now < 4_000_000);
                mem.deliver(now, &mut core);
                core.cycle(now, &mut mem);
                now += 1;
            }
            core.stats().done_cycle
        };
        let fast = run(10);
        let slow = run(200);
        assert!(slow >= fast, "slow {slow} < fast {fast}");
    }
}

/// A sink that refuses requests at random and logs every call with its
/// answer. Two sinks with the same seed answer the same call sequence
/// alike.
struct FlakySink {
    rng: SmallRng,
    next_token: u64,
    outstanding: Vec<u64>,
    calls: Vec<(ReqKind, u64, bool)>,
}

impl RequestSink for FlakySink {
    fn try_read(&mut self, _core_id: u32, addr: PhysAddr) -> Option<u64> {
        let ok = self.rng.gen_bool(0.7);
        self.calls.push((ReqKind::Read, addr.0, ok));
        ok.then(|| {
            self.next_token += 1;
            self.outstanding.push(self.next_token);
            self.next_token
        })
    }

    fn try_write(&mut self, _core_id: u32, addr: PhysAddr) -> bool {
        let ok = self.rng.gen_bool(0.7);
        self.calls.push((ReqKind::Write, addr.0, ok));
        ok
    }
}

/// One memory cycle's view of a core: stats, wait hint and occupancy.
type Snapshot = (CoreStats, CoreWait, usize);

/// Drives `trace` four CPU cycles per memory cycle, delivering each
/// outstanding read at random with a random completion time, and with
/// the four cycles taken by one `step` or by four `cycle` calls.
fn drive_in_memory_cycles(
    trace: &[TraceRecord],
    seed: u64,
    batched: bool,
) -> (Vec<Snapshot>, Vec<(ReqKind, u64, bool)>) {
    let mut core = Core::new(0, CoreParams::msc_default(), trace.iter().copied());
    let mut sink = FlakySink {
        rng: SmallRng::seed_from_u64(seed),
        next_token: 0,
        outstanding: Vec::new(),
        calls: Vec::new(),
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut log = Vec::new();
    let mut now = 0u64;
    while !core.done() {
        assert!(now < 4_000_000, "core wedged");
        // Completion times land before, inside and past this memory
        // cycle's four CPU cycles.
        let mut waiting = Vec::new();
        for token in std::mem::take(&mut sink.outstanding) {
            if rng.gen_bool(0.2) {
                core.complete_read(token, now.saturating_sub(2) + rng.gen_range(0..12u64));
            } else {
                waiting.push(token);
            }
        }
        sink.outstanding = waiting;
        if batched {
            core.step(now, CPU_PER_MEM_CYCLE, &mut sink);
        } else {
            for sub in 0..CPU_PER_MEM_CYCLE {
                core.cycle(now + sub, &mut sink);
            }
        }
        log.push((core.stats().clone(), core.wait_hint(), core.rob_occupancy()));
        now += CPU_PER_MEM_CYCLE;
    }
    (log, sink.calls)
}

/// `step` over a memory cycle is four `cycle` calls: the same stats, wait
/// hint and ROB occupancy after every memory cycle, and the same sink
/// calls in the same order, across gap-heavy and memory-bound traces,
/// refused requests and reads that complete early, mid-step or late.
#[test]
fn step_matches_four_cycles() {
    let mut rng = SmallRng::seed_from_u64(0x57e9);
    for case in 0..150 {
        let n = rng.gen_range(1..80usize);
        let trace: Vec<TraceRecord> = (0..n)
            .map(|_| {
                let kind = if rng.gen_bool(0.6) {
                    ReqKind::Read
                } else {
                    ReqKind::Write
                };
                TraceRecord::new(
                    rng.gen_range(0..301u32),
                    kind,
                    PhysAddr(rng.gen_range(0..1u64 << 20) * 64),
                )
            })
            .collect();
        let seed = rng.gen_range(0..u64::MAX);
        let stepped = drive_in_memory_cycles(&trace, seed, true);
        let cycled = drive_in_memory_cycles(&trace, seed, false);
        assert!(
            stepped == cycled,
            "case {case}: step diverged from four cycles"
        );
    }
}

/// Trace I/O round-trips arbitrary records through the MSC format.
#[test]
fn trace_io_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC10);
    for _ in 0..100 {
        let trace = random_trace(&mut rng, 0, 100);
        let mut buf = Vec::new();
        write_trace(&mut buf, trace.clone()).unwrap();
        let back: Vec<TraceRecord> = read_trace(BufReader::new(buf.as_slice()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, trace);
    }
}

fn read(doc: &[u8]) -> Vec<Result<TraceRecord, ParseTraceError>> {
    read_trace(BufReader::new(doc)).collect()
}

/// Valid lines in every accepted spelling, then a comment and a blank
/// line, which yield no record.
const TRACE_SEEDS: [&str; 8] = [
    "0 R 0x40",
    "117 W 0xdeadbeef",
    "3 r 0X0",
    "42 w 7f3a40",
    "4294967295 R 0xffffffffffffffff",
    "  9\tR\t0x1000\r",
    "# USIMM trace",
    "",
];

/// `|`-separated tokens that hit the gap, kind and address checks.
const TRACE_TOKENS: &str = "R|W|X|0x|0x10|-1|4294967296|1ffffffffffffffff|#| |\t|\r|\u{e9}|+|zz|7";

/// One to three edits of `line`: remove a byte, overwrite or insert any
/// byte but a newline, or splice in a token. The result need not be
/// UTF-8.
fn mutate(rng: &mut SmallRng, line: &str) -> Vec<u8> {
    let tokens: Vec<&str> = TRACE_TOKENS.split('|').collect();
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..bytes.len() + 1);
        let b = match rng.gen_range(0..256u32) as u8 {
            b'\n' => b'\\',
            b => b,
        };
        match rng.gen_range(0..4u32) {
            0 if at < bytes.len() => _ = bytes.remove(at),
            1 if at < bytes.len() => bytes[at] = b,
            2 => bytes.insert(at, b),
            _ => _ = bytes.splice(at..at, tokens[rng.gen_range(0..tokens.len())].bytes()),
        }
    }
    bytes
}

/// Every error in `doc` is `Malformed` on a line `ok_line` accepts, in
/// increasing line order. Returns whether any line failed.
fn check_trace(doc: &[u8], ok_line: impl Fn(usize) -> bool) -> bool {
    let mut last = 0;
    for r in read(doc) {
        match r {
            Ok(_) => {}
            Err(ParseTraceError::Malformed { line, .. }) if ok_line(line) && line > last => {
                last = line;
            }
            Err(e) => panic!("{e:?} for {:?}", String::from_utf8_lossy(doc)),
        }
    }
    last > 0
}

#[test]
fn unmutated_trace_seeds_parse_ok() {
    let results = read(TRACE_SEEDS.join("\n").as_bytes());
    assert_eq!(results.len(), 6);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
}

#[test]
fn a_mutated_trace_line_fails_typed_on_that_line() {
    let mut rng = SmallRng::seed_from_u64(0x7ace_f00d);
    let mut rejected = 0usize;
    for _ in 0..4_000 {
        let at = rng.gen_range(0..TRACE_SEEDS.len());
        let mut doc = Vec::new();
        for (i, &seed) in TRACE_SEEDS.iter().enumerate() {
            let line = if i == at {
                mutate(&mut rng, seed)
            } else {
                seed.into()
            };
            doc.extend(line);
            doc.push(b'\n');
        }
        rejected += usize::from(check_trace(&doc, |line| line == at + 1));
    }
    // Both outcomes must be well exercised, or the fuzz proves little.
    assert!(
        (1_000..3_800).contains(&rejected),
        "{rejected} of 4000 rejected"
    );
}

#[test]
fn trace_byte_noise_never_panics() {
    let mut rng = SmallRng::seed_from_u64(2015);
    for _ in 0..2_000 {
        let n = rng.gen_range(0..200usize);
        let doc: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let lines = doc.split(|&b| b == b'\n').count();
        check_trace(&doc, |line| line <= lines);
    }
}

/// Shrunk from `trace_byte_noise_never_panics`: a line that is not UTF-8 used
/// to surface as an unnumbered I/O error.
#[test]
fn non_utf8_line_is_malformed_with_its_line_number() {
    let results = read(b"5 R 0x100\n7 W 0x\xff\n9 R 0x200\n");
    assert!(results[0].is_ok() && results[2].is_ok());
    assert!(matches!(
        results[1],
        Err(ParseTraceError::Malformed { line: 2, .. })
    ));
}

/// A sink that accepts a random 80% of requests and times every read:
/// its data arrives a random 1–80 CPU cycles after issue, and the early
/// driver may learn of it any time from issue on. Two sinks with the same
/// seed answer the same call sequence alike.
struct TimedSink {
    rng: SmallRng,
    now: u64,
    next_token: u64,
    /// `(token, data cycle, cycle the early driver delivers it)`.
    outstanding: Vec<(u64, u64, u64)>,
}

impl TimedSink {
    fn new(seed: u64) -> Self {
        TimedSink {
            rng: SmallRng::seed_from_u64(seed),
            now: 0,
            next_token: 0,
            outstanding: Vec::new(),
        }
    }

    /// Hands `core` every read that `due` picks, keeping the rest.
    fn deliver<T: Iterator<Item = TraceRecord>>(
        &mut self,
        core: &mut Core<T>,
        due: impl Fn(u64, u64) -> bool,
    ) {
        self.outstanding.retain(|&(token, ready, early)| {
            let hand_over = due(ready, early);
            if hand_over {
                core.complete_read(token, ready);
            }
            !hand_over
        });
    }
}

impl RequestSink for TimedSink {
    fn try_read(&mut self, _core_id: u32, _addr: PhysAddr) -> Option<u64> {
        if !self.rng.gen_bool(0.8) {
            return None;
        }
        self.next_token += 1;
        let ready = self.now + self.rng.gen_range(1..81u64);
        let early = self.rng.gen_range(self.now..ready + 1);
        self.outstanding.push((self.next_token, ready, early));
        Some(self.next_token)
    }

    fn try_write(&mut self, _core_id: u32, _addr: PhysAddr) -> bool {
        self.rng.gen_bool(0.8)
    }
}

/// The on-time reference: one `cycle` per CPU cycle, each read handed
/// over just before the cycle its data arrives. Returns the snapshot
/// after every cycle, indexed by the cycle count so far.
fn drive_on_time(trace: &[TraceRecord], seed: u64) -> Vec<Snapshot> {
    let mut core = Core::new(0, CoreParams::msc_default(), trace.iter().copied());
    let mut sink = TimedSink::new(seed);
    let mut log = vec![(core.stats().clone(), core.wait_hint(), core.rob_occupancy())];
    while !core.done() {
        let now = sink.now;
        assert!(now < 4_000_000, "core wedged");
        sink.deliver(&mut core, |ready, _| ready <= now);
        core.cycle(now, &mut sink);
        sink.now += 1;
        log.push((core.stats().clone(), core.wait_hint(), core.rob_occupancy()));
    }
    log
}

/// What the early driver did: its `advance_compute` calls, and those of
/// them that started with the ROB full behind a head due inside the span
/// (the blocked closed form, then the head's retirement, in one call).
#[derive(Default)]
struct SpanCounts {
    spans: usize,
    due_inside: usize,
}

/// The early driver: each read is handed over at a random cycle between
/// its issue and its data, and where [`Core::compute_quiet_cycles`]
/// vouches for a span, a random prefix of it runs as one
/// `advance_compute` with every read due inside it handed over first.
/// Returns `(cycle count, snapshot)` after every call, and its span
/// counts.
fn drive_early(trace: &[TraceRecord], seed: u64) -> (Vec<(u64, Snapshot)>, SpanCounts) {
    let mut core = Core::new(0, CoreParams::msc_default(), trace.iter().copied());
    let mut sink = TimedSink::new(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xea21);
    let mut log = Vec::new();
    let mut counts = SpanCounts::default();
    while !core.done() {
        let now = sink.now;
        assert!(now < 4_000_000, "core wedged");
        sink.deliver(&mut core, |_, early| early <= now);
        let safe = core.compute_quiet_cycles();
        if safe > 0 && rng.gen_bool(0.7) {
            let n = rng.gen_range(1..safe + 1);
            sink.deliver(&mut core, |ready, _| ready < now + n);
            // Mid-gap, only a full ROB stalls the core.
            if let CoreWait::Stalled {
                retire_at: Some(t), ..
            } = core.wait_hint()
            {
                counts.due_inside += usize::from(t > now && t < now + n);
            }
            core.advance_compute(now, n);
            sink.now += n;
            counts.spans += 1;
        } else {
            core.cycle(now, &mut sink);
            sink.now += 1;
        }
        log.push((
            sink.now,
            (core.stats().clone(), core.wait_hint(), core.rob_occupancy()),
        ));
    }
    (log, counts)
}

/// `hint` as seen from cycle `at`: a retire cycle already reached reads
/// as `at`. (`advance_compute`'s churn form stamps a run of refills with
/// the earliest of their times, all of them due.)
fn seen_at(hint: CoreWait, at: u64) -> CoreWait {
    match hint {
        CoreWait::Stalled {
            retire_at: Some(t),
            queue_retry,
        } => CoreWait::Stalled {
            retire_at: Some(t.max(at)),
            queue_retry,
        },
        other => other,
    }
}

/// A read handed over before the core reaches its data cycle changes
/// nothing but what `wait_hint` knows and when its latency is recorded:
/// same `CoreStats` at the end, the same ones but the latency histogram
/// and the same ROB occupancy after every call, through `cycle` and through `advance_compute`, and
/// the same wait hint except that a head the on-time core still sees as
/// pending may already show its retire cycle. This is the contract that
/// lets a driver deliver a span's completions before the span runs.
#[test]
fn early_completions_match_on_time_ones() {
    let mut rng = SmallRng::seed_from_u64(0xea71);
    let (mut spans, mut due_inside, mut known_early) = (0usize, 0usize, 0usize);
    for case in 0..200 {
        let n = rng.gen_range(1..60usize);
        let trace: Vec<TraceRecord> = (0..n)
            .map(|_| {
                let kind = if rng.gen_bool(0.6) {
                    ReqKind::Read
                } else {
                    ReqKind::Write
                };
                TraceRecord::new(
                    rng.gen_range(0..400u32),
                    kind,
                    PhysAddr(rng.gen_range(0..1u64 << 20) * 64),
                )
            })
            .collect();
        let seed = rng.gen_range(0..u64::MAX);
        let on_time = drive_on_time(&trace, seed);
        let (early, counts) = drive_early(&trace, seed);
        spans += counts.spans;
        due_inside += counts.due_inside;
        for (at, (stats, hint, occupancy)) in &early {
            let (ref_stats, ref_hint, ref_occupancy) = &on_time[*at as usize];
            // The read-latency histogram records a read when it is handed
            // over, so it only matches once both cores have every read.
            let without_latency = |s: &CoreStats| CoreStats {
                mem_read_latency: Default::default(),
                ..s.clone()
            };
            assert!(
                without_latency(stats) == without_latency(ref_stats) && occupancy == ref_occupancy,
                "case {case}: diverged by cycle {at}"
            );
            let (hint, ref_hint) = (seen_at(*hint, *at), seen_at(*ref_hint, *at));
            if hint != ref_hint {
                known_early += 1;
                assert!(
                    matches!(
                        (ref_hint, hint),
                        (
                            CoreWait::Stalled { retire_at: None, queue_retry: a },
                            CoreWait::Stalled { retire_at: Some(t), queue_retry: b },
                        ) if a == b && t >= *at
                    ),
                    "case {case}: cycle {at}: {hint:?} vs {ref_hint:?}"
                );
            }
        }
        let (finished, (stats, ..)) = early.last().expect("a trace takes a cycle");
        let (ref_stats, ..) = on_time.last().expect("a trace takes a cycle");
        assert_eq!(*finished, on_time.len() as u64 - 1, "case {case}");
        assert_eq!(stats, ref_stats, "case {case}: final stats differ");
    }
    // The batched path, a span that waits on a head due inside it and an
    // early-stamped head must all be exercised, or the test proves little.
    assert!(
        spans > 1_000 && due_inside > 50 && known_early > 100,
        "{spans} spans ({due_inside} with a head due inside), {known_early} early heads"
    );
}

//! Randomized (seeded, deterministic) tests for the core model and trace
//! I/O — a dependency-free replacement for the former `proptest` suite.
//! Trace files come from outside the process, so the trace reader is
//! also mutation-fuzzed, in the style of `mcr-serve`'s `protocol_fuzz.rs`.

use cpu_model::{
    read_trace, write_trace, Core, CoreParams, CoreStats, CoreWait, InstantMemory, ParseTraceError,
    RequestSink, TraceRecord,
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

/// One memory cycle's view of a core: stats, wait hint and occupancy.
type Snapshot = (CoreStats, CoreWait, usize);

/// A sink open or closed by 16-cycle windows, at random per window. It
/// logs each accepted call with its cycle, and hands each read over at a
/// random later cycle, stamped with a data cycle no earlier (sometimes the
/// same, like a forwarded read).
struct WindowSink {
    seed: u64,
    now: u64,
    /// (token, handed over at, data cycle).
    outstanding: Vec<(u64, u64, u64)>,
    calls: Vec<(u64, ReqKind, u64)>,
}

impl WindowSink {
    fn open(&self) -> bool {
        SmallRng::seed_from_u64(self.seed ^ (self.now / 16)).gen_range(0..4u32) != 0
    }

    fn accept(&mut self, kind: ReqKind, addr: PhysAddr) -> bool {
        let ok = self.open();
        if ok {
            self.calls.push((self.now, kind, addr.0));
        }
        ok
    }
}

impl RequestSink for WindowSink {
    fn try_read(&mut self, _core_id: u32, addr: PhysAddr) -> Option<u64> {
        if !self.accept(ReqKind::Read, addr) {
            return None;
        }
        let token = self.calls.len() as u64;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ token.rotate_left(32));
        let at = self.now + rng.gen_range(1..60u64);
        let ready = at + rng.gen_range(0..3u64) * rng.gen_range(0..40u64);
        self.outstanding.push((token, at, ready));
        Some(token)
    }

    fn try_write(&mut self, _core_id: u32, addr: PhysAddr) -> bool {
        self.accept(ReqKind::Write, addr)
    }
}

/// Drives `trace` against a [`WindowSink`]: with `alone`, `run_to_call`
/// carries the core to its next possible call, a hand-over or a random
/// chunk's end, retrying a parked request alone while the sink's window
/// stays closed, and only the cycles it stops at run with the sink; else
/// one `cycle` per CPU cycle. Returns the final stats, the accepted calls,
/// and how often a parked core ran alone.
fn drive_windowed(
    trace: &[TraceRecord],
    seed: u64,
    alone: bool,
) -> (CoreStats, Vec<(u64, ReqKind, u64)>, usize) {
    let mut core = Core::new(0, CoreParams::msc_default(), trace.iter().copied());
    let (outstanding, calls) = (Vec::new(), Vec::new());
    let mut sink = WindowSink {
        seed,
        now: 0,
        outstanding,
        calls,
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa10e);
    let mut parked = 0;
    while !core.done() {
        let now = sink.now;
        assert!(now < 4_000_000, "core wedged");
        sink.outstanding.retain(|&(token, at, ready)| {
            if at <= now {
                core.complete_read(token, ready);
            }
            at > now
        });
        let mut stop = now;
        if alone {
            let handover = sink.outstanding.iter().map(|r| r.1).min();
            let limit = handover
                .unwrap_or(u64::MAX)
                .min(now + rng.gen_range(1..200u64));
            let refused_until = if sink.open() { 0 } else { (now / 16 + 1) * 16 };
            let was_parked = matches!(
                core.wait_hint(),
                CoreWait::Stalled {
                    queue_retry: true,
                    ..
                }
            );
            stop = core.run_to_call(now, limit, refused_until);
            parked += usize::from(was_parked && stop > now);
        }
        if stop == now {
            core.cycle(now, &mut sink);
            stop += 1;
        }
        sink.now = stop;
    }
    (core.stats().clone(), sink.calls, parked)
}

/// A core that runs alone up to its next possible call, and calls the
/// sink only in the cycles it stops at, matches one `cycle` per CPU
/// cycle: the same stats and the same accepted calls on the same cycles,
/// across gap-heavy and memory-bound traces, gap-0 bursts, refused
/// requests retried alone while the sink stays closed, and reads stamped
/// on the cycle they are handed over or later.
#[test]
fn run_to_call_matches_per_cycle_execution() {
    let mut rng = SmallRng::seed_from_u64(0x57e9);
    let mut parked = 0;
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
                    rng.gen_range(0..301u32) * rng.gen_range(0..2u32),
                    kind,
                    PhysAddr(rng.gen_range(0..1u64 << 20) * 64),
                )
            })
            .collect();
        let seed = rng.gen_range(0..u64::MAX);
        let (stats, calls, p) = drive_windowed(&trace, seed, true);
        parked += p;
        let (ref_stats, ref_calls, _) = drive_windowed(&trace, seed, false);
        assert_eq!(stats, ref_stats, "case {case}: stats differ");
        assert!(calls == ref_calls, "case {case}: calls differ");
    }
    assert!(parked > 100, "{parked} parked runs alone");
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
        mut due: impl FnMut(u64, u64) -> bool,
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

/// What the early driver did: its `advance_compute` calls, those of them
/// that started with the ROB full behind a head due inside the span (the
/// blocked closed form, then the head's retirement, in one call), and
/// the cycles its parked spans started on.
#[derive(Default)]
struct SpanCounts {
    spans: usize,
    due_inside: usize,
    parked: Vec<u64>,
}

/// The early driver: each read is handed over at a random cycle between
/// its issue and its data, and where [`Core::compute_quiet_cycles`]
/// vouches for a span, a random prefix of it runs as one
/// `advance_compute` with every read due inside it handed over first.
/// A core parked without a queue retry (`Stalled` with no vouched gap)
/// gets random reads handed over early, then, if its ROB head's retire
/// cycle is known, sits out a random span up to, not past, that cycle
/// with one `note_skipped_cycles`, as the system's drive does. Returns
/// `(cycle count, snapshot)` after every call, and its span counts.
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
        } else if let (
            0,
            CoreWait::Stalled {
                queue_retry: false, ..
            },
        ) = (safe, core.wait_hint())
        {
            sink.deliver(&mut core, |_, _| rng.gen_bool(0.3));
            match core.wait_hint() {
                CoreWait::Stalled {
                    retire_at: Some(t), ..
                } if t > now => {
                    let n = rng.gen_range(1..t - now + 1);
                    sink.deliver(&mut core, |ready, _| ready < now + n);
                    core.note_skipped_cycles(n);
                    sink.now += n;
                    counts.parked.push(now);
                }
                _ => {
                    core.cycle(now, &mut sink);
                    sink.now += 1;
                }
            }
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
/// and the same ROB occupancy after every call, through `cycle`,
/// `advance_compute` and `note_skipped_cycles`, and the same wait hint
/// except that a head the on-time core still sees as pending may already
/// show its retire cycle. This is the contract that lets a driver deliver
/// a span's completions before the span runs, and park a stalled core up
/// to the retire cycle of a head it stamped early.
#[test]
fn early_completions_match_on_time_ones() {
    let mut rng = SmallRng::seed_from_u64(0xea71);
    let (mut spans, mut due_inside, mut known_early) = (0usize, 0usize, 0usize);
    let (mut parked, mut parked_early) = (0usize, 0usize);
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
        // A parked span's head was stamped early when the on-time core
        // still waits on it.
        parked += counts.parked.len();
        parked_early += counts
            .parked
            .iter()
            .filter(|&&at| {
                matches!(
                    on_time[at as usize].1,
                    CoreWait::Stalled {
                        retire_at: None,
                        ..
                    }
                )
            })
            .count();
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
    // The batched path, a span that waits on a head due inside it, an
    // early-stamped head and a parked span behind one must all be
    // exercised, or the test proves little.
    assert!(
        spans > 1_000 && due_inside > 50 && known_early > 100,
        "{spans} spans ({due_inside} with a head due inside), {known_early} early heads"
    );
    assert!(
        parked_early > 50,
        "{parked} parked spans, {parked_early} behind a head stamped early"
    );
}

//! The ROB-based core model.

use crate::stats::CoreStats;
use crate::trace::TraceRecord;
use dram_device::{PhysAddr, ReqKind};
use std::collections::VecDeque;

/// Completion sentinel for reads still waiting on DRAM.
const PENDING: u64 = u64::MAX;

/// Core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// Reorder-buffer capacity in instructions.
    pub rob_size: usize,
    /// Instructions fetched per CPU cycle.
    pub fetch_width: u32,
    /// Instructions retired per CPU cycle.
    pub retire_width: u32,
    /// Fetch-to-complete latency of non-memory instructions (CPU cycles).
    pub pipeline_depth: u32,
}

impl CoreParams {
    /// The MSC/USIMM defaults used by the paper (Table 4).
    pub fn msc_default() -> Self {
        CoreParams {
            rob_size: 128,
            fetch_width: 4,
            retire_width: 2,
            pipeline_depth: 10,
        }
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        Self::msc_default()
    }
}

/// The memory system as seen by a core.
///
/// `try_read`/`try_write` may refuse a request (typically because the
/// corresponding controller queue is full); the core then stalls fetch and
/// retries on a later cycle. A successful `try_read` returns a token the
/// memory system echoes back through [`Core::complete_read`].
pub trait RequestSink {
    /// Attempts to enqueue a read. Returns a completion token on success.
    fn try_read(&mut self, core_id: u32, addr: PhysAddr) -> Option<u64>;
    /// Attempts to enqueue a write. Returns `true` on success.
    fn try_write(&mut self, core_id: u32, addr: PhysAddr) -> bool;
}

/// What a core is waiting on, as seen by an event-wheel driver.
///
/// Computed by [`Core::wait_hint`] after a cycle: a `Stalled` core is
/// guaranteed to do no observable work (no fetch, no retire, no memory
/// request) on any later cycle until either its `retire_at` edge arrives,
/// a read completes ([`Core::complete_read`]), or — when `queue_retry` is
/// set — the memory system frees queue space (which only happens on a
/// cycle the controller itself reports as active).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreWait {
    /// The core will fetch or retire next cycle; it must be ticked.
    Active,
    /// The core is blocked and safe to skip.
    Stalled {
        /// CPU cycle at which the ROB head retires, if its completion
        /// time is already known (`None` while the head waits on DRAM).
        retire_at: Option<u64>,
        /// The fetch stage is parked on a refused memory request and
        /// retries every cycle.
        queue_retry: bool,
    },
    /// Trace drained and ROB empty; the core never acts again.
    Done,
}

/// What the fetch stage is currently working through.
#[derive(Debug, Clone, Copy)]
enum FetchState {
    /// Need to pull the next trace record.
    NextRecord,
    /// Fetching the `gap` non-memory instructions of the current record.
    Gap {
        left: u32,
        kind: ReqKind,
        addr: PhysAddr,
    },
    /// Gap done; the memory operation itself is next.
    MemOp { kind: ReqKind, addr: PhysAddr },
    /// Trace exhausted.
    Drained,
}

/// `count` consecutive ROB instructions that all complete at CPU cycle
/// `complete_at`.
#[derive(Debug, Clone, Copy)]
struct Run {
    complete_at: u64,
    count: u32,
}

/// A read waiting on DRAM: the sink's token, the id of the ROB run that
/// holds it, and its issue CPU cycle.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    token: u64,
    run: u64,
    issued_at: u64,
}

/// A single trace-driven core.
///
/// Generic over the trace iterator so synthetic generators stream records
/// lazily without materializing whole traces.
///
/// The ROB is stored run-length encoded: instructions fetched in one
/// cycle share a completion time, so they form one run. A read always
/// starts a run of its own (completion `PENDING`) that nothing merges
/// into until DRAM answers, so the read is addressed by its run id.
#[derive(Debug)]
pub struct Core<T> {
    id: u32,
    params: CoreParams,
    trace: T,
    fetch: FetchState,
    /// In-flight instructions in fetch order, as runs.
    rob: VecDeque<Run>,
    /// Instructions in `rob` (the sum of the run counts).
    rob_len: usize,
    /// Id of the run at `rob[0]`; run ids count every run ever pushed.
    head_run: u64,
    /// Reads waiting on DRAM, in issue order.
    inflight: VecDeque<InFlight>,
    /// The last memory request of the fetch stage was refused (the fetch
    /// stage is parked on [`FetchState::MemOp`] retrying every cycle).
    queue_blocked: bool,
    stats: CoreStats,
}

impl<T: Iterator<Item = TraceRecord>> Core<T> {
    /// A core with the given id and parameters, reading from `trace`.
    pub fn new(id: u32, params: CoreParams, trace: T) -> Self {
        Core {
            id,
            params,
            trace,
            fetch: FetchState::NextRecord,
            rob: VecDeque::with_capacity(params.rob_size),
            rob_len: 0,
            head_run: 0,
            inflight: VecDeque::new(),
            queue_blocked: false,
            stats: CoreStats::default(),
        }
    }

    /// Core id (passed to the [`RequestSink`]).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// True when the trace is exhausted and every instruction has retired.
    pub fn done(&self) -> bool {
        matches!(self.fetch, FetchState::Drained) && self.rob.is_empty()
    }

    /// Number of instructions currently in the ROB.
    pub fn rob_occupancy(&self) -> usize {
        self.rob_len
    }

    fn rob_full(&self) -> bool {
        self.rob_len >= self.params.rob_size
    }

    /// Completion cycle of the ROB head (`PENDING` for a read still
    /// waiting on DRAM).
    fn head_complete_at(&self) -> Option<u64> {
        self.rob.front().map(|r| r.complete_at)
    }

    /// Appends `count` instructions completing at `complete_at`, merging
    /// them into the tail run when its completion time is the same. A
    /// pending read's run never merges: pushed completions are finite.
    fn push(&mut self, complete_at: u64, count: u32) {
        self.rob_len += count as usize;
        match self.rob.back_mut() {
            Some(tail) if tail.complete_at == complete_at => tail.count += count,
            _ => self.rob.push_back(Run { complete_at, count }),
        }
    }

    /// Appends a read waiting on DRAM as a run of its own and returns its
    /// run id.
    fn push_read(&mut self) -> u64 {
        self.rob_len += 1;
        self.rob.push_back(Run {
            complete_at: PENDING,
            count: 1,
        });
        self.head_run + self.rob.len() as u64 - 1
    }

    /// Removes the `n` oldest instructions.
    fn pop(&mut self, mut n: u64) {
        self.rob_len -= n as usize;
        while n > 0 {
            let Some(head) = self.rob.front_mut() else {
                unreachable!("popped past the ROB tail")
            };
            let count = u64::from(head.count);
            if count > n {
                head.count -= n as u32;
                return;
            }
            n -= count;
            self.rob.pop_front();
            self.head_run += 1;
        }
    }

    /// Marks the read with token `token` as completing at CPU cycle
    /// `ready_at` (data has arrived from DRAM). The call may come any time
    /// before the core reaches `ready_at` (see [`Core::advance_compute`]).
    ///
    /// # Panics
    ///
    /// Panics if the token does not refer to an in-flight read.
    pub fn complete_read(&mut self, token: u64, ready_at: u64) {
        let pos = self.inflight.iter().position(|r| r.token == token);
        let Some(read) = pos.and_then(|pos| self.inflight.remove(pos)) else {
            panic!("token {token} does not name an in-flight read of this core")
        };
        self.stats
            .mem_read_latency
            .record(ready_at.saturating_sub(read.issued_at));
        let Some(idx) = read.run.checked_sub(self.head_run) else {
            panic!("read {token} retired before completing")
        };
        let Some(run) = self.rob.get_mut(idx as usize) else {
            panic!("token {token} beyond ROB tail")
        };
        assert_eq!(run.complete_at, PENDING, "ROB slot is not a pending read");
        run.complete_at = ready_at;
    }

    /// Advances the core by one CPU cycle: retire, then fetch.
    ///
    /// `now` must increase by exactly 1 between calls for stall accounting
    /// to be meaningful (the model does not enforce it).
    pub fn cycle(&mut self, now: u64, mem: &mut impl RequestSink) {
        self.retire(now);
        self.fetch_stage(now, mem);
        if self.done() && self.stats.done_cycle == 0 {
            self.stats.done_cycle = now;
        }
    }

    /// Executes the `n` cycles starting at CPU cycle `start`, exactly as
    /// `n` [`Core::cycle`] calls would, stopping early once the core is
    /// done (a driver cycles live cores only).
    ///
    /// Once the ROB is full behind a head not due before `start + n`,
    /// every remaining cycle retires nothing and fetch only records a rob
    /// stall, so those cycles are accounted in one step. This is the
    /// end-of-window form of [`Core::advance_compute`]'s blocked rule:
    /// drivers step one memory cycle at a time, and a window whose head
    /// falls due inside it just runs its cycles.
    pub fn step(&mut self, start: u64, n: u64, mem: &mut impl RequestSink) {
        let end = start + n;
        for now in start..end {
            if self.done() {
                return;
            }
            if self.rob_full() && self.head_complete_at().is_some_and(|t| t >= end) {
                self.stats.rob_stall_cycles += end - now;
                return;
            }
            self.cycle(now, mem);
        }
    }

    /// The blocked-ROB rule of `advance_compute`: while the ROB is full
    /// behind a head due at `t > now` (or pending), every cycle before `t`
    /// retires nothing and fetch only records a rob stall. Accounts the
    /// cycles up to `min(t, end)` in one step and returns their number (0
    /// when the ROB is not so blocked at `now`).
    fn skip_blocked(&mut self, now: u64, end: u64) -> u64 {
        let head = self.head_complete_at().filter(|_| self.rob_full());
        let k = head.map_or(0, |t| t.min(end).saturating_sub(now));
        self.stats.rob_stall_cycles += k;
        k
    }

    fn retire(&mut self, now: u64) {
        let mut budget = self.params.retire_width;
        while budget > 0 {
            let Some(head) = self.rob.front_mut() else {
                return;
            };
            if head.complete_at > now {
                return;
            }
            let k = budget.min(head.count);
            budget -= k;
            self.rob_len -= k as usize;
            self.stats.committed += u64::from(k);
            head.count -= k;
            if head.count == 0 {
                self.rob.pop_front();
                self.head_run += 1;
            }
        }
    }

    fn fetch_stage(&mut self, now: u64, mem: &mut impl RequestSink) {
        let complete_at = now + self.params.pipeline_depth as u64;
        let mut budget = self.params.fetch_width;
        while budget > 0 {
            if self.rob_full() {
                self.stats.rob_stall_cycles += 1;
                return;
            }
            match self.fetch {
                FetchState::Drained => return,
                FetchState::NextRecord => match self.trace.next() {
                    None => {
                        self.fetch = FetchState::Drained;
                        return;
                    }
                    Some(rec) => {
                        self.fetch = if rec.gap > 0 {
                            FetchState::Gap {
                                left: rec.gap,
                                kind: rec.kind,
                                addr: rec.addr,
                            }
                        } else {
                            FetchState::MemOp {
                                kind: rec.kind,
                                addr: rec.addr,
                            }
                        };
                    }
                },
                FetchState::Gap { left, kind, addr } => {
                    // As many gap instructions as budget and ROB space
                    // allow, in one run; the loop then retries the ROB-full
                    // check exactly where per-instruction fetch would.
                    let room = (self.params.rob_size - self.rob_len) as u32;
                    let k = budget.min(left).min(room);
                    self.push(complete_at, k);
                    budget -= k;
                    self.fetch = if left > k {
                        FetchState::Gap {
                            left: left - k,
                            kind,
                            addr,
                        }
                    } else {
                        FetchState::MemOp { kind, addr }
                    };
                }
                FetchState::MemOp { kind, addr } => match kind {
                    ReqKind::Read => match mem.try_read(self.id, addr) {
                        Some(token) => {
                            let run = self.push_read();
                            self.inflight.push_back(InFlight {
                                token,
                                run,
                                issued_at: now,
                            });
                            self.stats.reads_issued += 1;
                            self.queue_blocked = false;
                            budget -= 1;
                            self.fetch = FetchState::NextRecord;
                        }
                        None => {
                            self.stats.queue_stall_cycles += 1;
                            self.queue_blocked = true;
                            return;
                        }
                    },
                    ReqKind::Write => {
                        if mem.try_write(self.id, addr) {
                            self.push(complete_at, 1);
                            self.stats.writes_issued += 1;
                            self.queue_blocked = false;
                            budget -= 1;
                            self.fetch = FetchState::NextRecord;
                        } else {
                            self.stats.queue_stall_cycles += 1;
                            self.queue_blocked = true;
                            return;
                        }
                    }
                },
            }
        }
    }

    /// What the core is waiting on after the cycle just simulated — the
    /// edge this core contributes to an event-wheel driver.
    ///
    /// `Stalled` is only reported when the next [`Core::cycle`] call is
    /// guaranteed to be a no-op apart from the stall counters that
    /// [`Core::note_skipped_cycles`] replays: the ROB is full, or the
    /// fetch stage is parked on a refused memory request, or the trace is
    /// drained — and in every case the ROB head is not yet retirable.
    pub fn wait_hint(&self) -> CoreWait {
        if self.done() {
            return CoreWait::Done;
        }
        let rob_full = self.rob_full();
        let fetch_blocked = match self.fetch {
            FetchState::Drained => true,
            FetchState::MemOp { .. } => self.queue_blocked,
            FetchState::NextRecord | FetchState::Gap { .. } => false,
        };
        if !rob_full && !fetch_blocked {
            return CoreWait::Active;
        }
        CoreWait::Stalled {
            retire_at: self.head_complete_at().filter(|&t| t != PENDING),
            queue_retry: !rob_full && self.queue_blocked,
        }
    }

    /// Number of upcoming CPU cycles this core is guaranteed not to call
    /// the [`RequestSink`] or pull a trace record, or 0 when no such span
    /// can be proven.
    ///
    /// Only the gap-fetch state qualifies: with `left` gap instructions
    /// still to fetch and at most `fetch_width` consumed per cycle, the
    /// memory operation behind the gap cannot issue for the next
    /// `left / fetch_width` cycles no matter how retire and ROB occupancy
    /// interleave (a full ROB only slows consumption down). Over such a
    /// span the core's evolution — fetch, retire, ROB-full churn, stall
    /// accounting — is a pure function of its own state, so an
    /// event-wheel driver may execute it in bulk with
    /// [`Core::advance_compute`], delivering the span's read completions
    /// before it runs (see there).
    pub fn compute_quiet_cycles(&self) -> u64 {
        let FetchState::Gap { left, .. } = self.fetch else {
            return 0;
        };
        let fw = u64::from(self.params.fetch_width);
        let rw = u64::from(self.params.retire_width);
        let Some(budget) = u64::from(left).checked_sub(fw) else {
            return 0; // the memory op may issue this very cycle
        };
        // Gap instructions consumed over k cycles are bounded both by the
        // fetch width and by ROB space: the current headroom plus at most
        // `retire_width` slots freed per cycle (a pending head only slows
        // this further). The span is safe while consumption cannot exceed
        // `budget`, so take the larger of the two guarantees — a full ROB
        // stretches the provable span from `gap/fetch_width` to nearly
        // the whole gap.
        let headroom = (self.params.rob_size - self.rob_len) as u64;
        let mut k = budget / fw;
        if budget >= headroom {
            k = k.max((budget - headroom) / rw);
        }
        k
    }

    /// Executes `cpu_cycles` consecutive cycles starting at CPU cycle
    /// `start_cpu`, exactly as that many [`Core::cycle`] calls would —
    /// same fetch/retire interleaving, same stall counters — but without
    /// a memory system in reach.
    ///
    /// Only valid for a span [`Core::compute_quiet_cycles`] vouched for,
    /// so that the core cannot touch memory. A read whose data arrives
    /// inside the span must be delivered ([`Core::complete_read`]) before
    /// the call. Delivering `complete_read(token, t)` at any time before
    /// the core reaches cycle `t` is exact: until `t` the stamped read
    /// does not retire, just like a pending one, so the core evolves as
    /// if it had been delivered at `t`. Only [`Core::wait_hint`] can tell,
    /// by naming a head's retire cycle sooner, and the latency histogram
    /// records the read sooner.
    ///
    /// Two regimes dominate a long gap and are replayed in closed form
    /// rather than cycle by cycle: a full ROB whose head is not yet due
    /// (every cycle up to the head's due cycle, or to the span's end, is
    /// a pure rob-stall no-op), and
    /// steady churn (a full ROB retiring `retire_width` due entries and
    /// refilling exactly that many each cycle). Everything else — fill
    /// transients, partially due heads — falls back to the real
    /// per-cycle logic, so the end state is bit-identical either way.
    pub fn advance_compute(&mut self, start_cpu: u64, cpu_cycles: u64) {
        /// Unreachable by construction over a vouched-for span.
        struct NoMem;
        impl RequestSink for NoMem {
            fn try_read(&mut self, _core_id: u32, _addr: PhysAddr) -> Option<u64> {
                unreachable!("compute-quiet span touched memory")
            }
            fn try_write(&mut self, _core_id: u32, _addr: PhysAddr) -> bool {
                unreachable!("compute-quiet span touched memory")
            }
        }
        let end = start_cpu + cpu_cycles;
        let mut now = start_cpu;
        while now < end {
            let mut k = self.skip_blocked(now, end);
            if k == 0 && self.rob_full() {
                k = self.churn_cycles(now, end - now);
                if k > 0 {
                    self.churn(now, k);
                }
            }
            if k == 0 {
                self.cycle(now, &mut NoMem);
                k = 1;
            }
            now += k;
        }
    }

    /// Number of upcoming cycles, at most `limit` (starting at `now`, ROB
    /// currently full), over which retire is guaranteed to pop exactly
    /// `retire_width` due entries per cycle — the steady-churn invariant
    /// [`Core::churn`] replays in closed form. Returns 0 when the
    /// invariant cannot be proven (e.g. a pending read sits near the head).
    fn churn_cycles(&self, now: u64, limit: u64) -> u64 {
        let rw = u64::from(self.params.retire_width);
        let fw = u64::from(self.params.fetch_width);
        // Churn holds the ROB full only when fetch can refill every freed
        // slot, and extends past the original contents only when the ROB
        // is deep enough that refills (due `pipeline_depth` cycles after
        // their push, popped `rob_size/retire_width` cycles after it) are
        // always due by the time they reach the head.
        if fw < rw
            || (self.params.rob_size as u64) < rw * (u64::from(self.params.pipeline_depth) + 1)
        {
            return 0;
        }
        let mut j = 0;
        for run in &self.rob {
            // The entry at index j is popped in the cycle now + j/rw; a
            // later completion time (or a pending read) ends the churn.
            // Within a run that bound only grows, so its first entry
            // decides, and a run first popped at `now + limit` or later
            // cannot shorten the span.
            if j / rw >= limit {
                return limit;
            }
            if run.complete_at > now + j / rw {
                return j / rw;
            }
            j += u64::from(run.count);
        }
        limit
    }

    /// Replays `k` steady-churn cycles starting at `now` in one step:
    /// per cycle, retire pops `retire_width` due entries and fetch
    /// refills exactly that many gap instructions (stalling on the
    /// residual budget when `fetch_width > retire_width`), leaving the
    /// ROB full throughout. Callers must have proven the span via
    /// [`Core::churn_cycles`] and bounded it so the gap cannot run out.
    fn churn(&mut self, now: u64, k: u64) {
        let rw = u64::from(self.params.retire_width);
        let fw = u64::from(self.params.fetch_width);
        let depth = u64::from(self.params.pipeline_depth);
        let FetchState::Gap { left, kind, addr } = self.fetch else {
            unreachable!("churn outside a gap span")
        };
        let consumed = k * rw;
        debug_assert!(u64::from(left) >= consumed + fw, "churn overran the gap");
        self.fetch = FetchState::Gap {
            left: left - consumed as u32,
            kind,
            addr,
        };
        self.stats.committed += consumed;
        if fw > rw {
            // After the refill fills the freed slots, the leftover fetch
            // budget hits the ROB-full check once per cycle.
            self.stats.rob_stall_cycles += k;
        }
        let len = self.rob_len as u64;
        // Of the `consumed` refills (`retire_width` per cycle), the last
        // `min(consumed, len)` are still in flight; everything older,
        // original contents first, retired.
        self.pop(len.min(consumed));
        // Refill `idx` was fetched in cycle `idx / rw` and completes
        // `depth` cycles later, but it cannot reach the head sooner than
        // `rob_size / rw > depth` cycles after its fetch: every refill is
        // due by the time it is the head. So they retire alike as one run
        // stamped with the earliest of their times, and every reader, who
        // compares a head's time with the current cycle or a later one,
        // sees what per-instruction times would show.
        let first = consumed.saturating_sub(len);
        self.push(now + first / rw + depth, (consumed - first) as u32);
    }

    /// Replays the stall accounting of `cpu_cycles` skipped quiet cycles,
    /// exactly as per-cycle [`Core::cycle`] calls would have recorded it.
    /// Only valid for a span over which [`Core::wait_hint`] stayed
    /// `Stalled` (the event-wheel driver guarantees this by bounding every
    /// skip at the core's retire edge and at controller activity).
    pub fn note_skipped_cycles(&mut self, cpu_cycles: u64) {
        if self.done() {
            return;
        }
        if self.rob_full() {
            // The fetch stage hits the ROB-full check first, once per call.
            self.stats.rob_stall_cycles += cpu_cycles;
        } else if matches!(self.fetch, FetchState::MemOp { .. }) && self.queue_blocked {
            self.stats.queue_stall_cycles += cpu_cycles;
        }
        // A drained fetch stage with a non-full ROB counts nothing.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instant::InstantMemory;
    use dram_device::PhysAddr;

    fn run_to_completion<T: Iterator<Item = TraceRecord>>(
        core: &mut Core<T>,
        mem: &mut InstantMemory,
        max_cycles: u64,
    ) -> u64 {
        let mut now = 0;
        while !core.done() {
            assert!(now < max_cycles, "did not finish in {max_cycles} cycles");
            mem.deliver(now, core);
            core.cycle(now, mem);
            now += 1;
        }
        core.stats().done_cycle
    }

    #[test]
    fn retire_width_bounds_throughput() {
        // 100 non-memory instructions, no memory ops: retire 2/cycle.
        let trace = vec![TraceRecord::new(99, ReqKind::Write, PhysAddr(0))];
        let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
        let mut mem = InstantMemory::new(0);
        let done = run_to_completion(&mut core, &mut mem, 10_000);
        assert_eq!(core.stats().committed, 100);
        // 100 instructions at 2/cycle >= 50 cycles, plus pipeline fill.
        assert!((50..80).contains(&done), "done at {done}");
    }

    #[test]
    fn read_latency_stalls_retirement() {
        let trace = vec![
            TraceRecord::new(0, ReqKind::Read, PhysAddr(0)),
            TraceRecord::new(0, ReqKind::Read, PhysAddr(64)),
        ];
        let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
        let mut slow = InstantMemory::new(500);
        let done = run_to_completion(&mut core, &mut slow, 100_000);
        // Both reads issue immediately (independent), so they overlap:
        // completion at ~500, not ~1000.
        assert!((500..600).contains(&done), "done at {done}");
        assert_eq!(core.stats().reads_issued, 2);
    }

    #[test]
    fn rob_fills_under_long_latency() {
        // More independent reads than ROB slots: occupancy caps at 128.
        let trace: Vec<TraceRecord> = (0..200)
            .map(|i| TraceRecord::new(0, ReqKind::Read, PhysAddr(i * 64)))
            .collect();
        let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
        let mut slow = InstantMemory::new(10_000);
        let mut now = 0;
        let mut max_occ = 0;
        while !core.done() && now < 50_000 {
            slow.deliver(now, &mut core);
            core.cycle(now, &mut slow);
            max_occ = max_occ.max(core.rob_occupancy());
            now += 1;
        }
        assert_eq!(max_occ, 128);
    }

    #[test]
    fn refused_writes_stall_fetch() {
        struct NoWrites;
        impl RequestSink for NoWrites {
            fn try_read(&mut self, _: u32, _: PhysAddr) -> Option<u64> {
                None
            }
            fn try_write(&mut self, _: u32, _: PhysAddr) -> bool {
                false
            }
        }
        let trace = vec![TraceRecord::new(0, ReqKind::Write, PhysAddr(0))];
        let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
        let mut mem = NoWrites;
        for now in 0..10 {
            core.cycle(now, &mut mem);
        }
        assert!(!core.done());
        assert_eq!(core.stats().writes_issued, 0);
        assert!(core.stats().queue_stall_cycles >= 9);
    }

    #[test]
    fn done_cycle_recorded_once() {
        let trace = vec![TraceRecord::new(1, ReqKind::Write, PhysAddr(0))];
        let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
        let mut mem = InstantMemory::new(0);
        let done = run_to_completion(&mut core, &mut mem, 1000);
        for now in done + 1..done + 10 {
            core.cycle(now, &mut mem);
        }
        assert_eq!(core.stats().done_cycle, done);
    }

    /// A sink that mints sequential read tokens and accepts a write only
    /// once `accept_writes` is set.
    #[derive(Default)]
    struct GatedWrites {
        next_token: u64,
        accept_writes: bool,
    }

    impl RequestSink for GatedWrites {
        fn try_read(&mut self, _: u32, _: PhysAddr) -> Option<u64> {
            self.next_token += 1;
            Some(self.next_token - 1)
        }
        fn try_write(&mut self, _: u32, _: PhysAddr) -> bool {
            self.accept_writes
        }
    }

    fn runs<T>(core: &Core<T>) -> Vec<(u64, u32)> {
        core.rob.iter().map(|r| (r.complete_at, r.count)).collect()
    }

    /// A core that has issued one read (token 0) at cycle 0 and whose
    /// fetch is parked on a refused write right behind it.
    fn read_then_parked_write() -> (Core<std::vec::IntoIter<TraceRecord>>, GatedWrites) {
        let trace = vec![
            TraceRecord::new(0, ReqKind::Read, PhysAddr(0)),
            TraceRecord::new(0, ReqKind::Write, PhysAddr(64)),
        ];
        let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
        let mut mem = GatedWrites::default();
        core.cycle(0, &mut mem);
        assert_eq!(runs(&core), [(PENDING, 1)]);
        mem.accept_writes = true;
        (core, mem)
    }

    #[test]
    fn pushes_never_merge_into_a_pending_read() {
        // Gap instructions fetched behind a read in the same cycle get a
        // run of their own, and so does each later cycle's fetch.
        let trace = vec![
            TraceRecord::new(0, ReqKind::Read, PhysAddr(0)),
            TraceRecord::new(9, ReqKind::Write, PhysAddr(64)),
        ];
        let mut core = Core::new(0, CoreParams::msc_default(), trace.into_iter());
        let mut mem = GatedWrites::default();
        core.cycle(0, &mut mem);
        core.cycle(1, &mut mem);
        assert_eq!(runs(&core), [(PENDING, 1), (10, 3), (11, 4)]);
        assert_eq!(core.rob_occupancy(), 8);
        // The parked write behind the read never merges into it either.
        let (mut core, mut mem) = read_then_parked_write();
        core.cycle(1, &mut mem);
        assert_eq!(runs(&core), [(PENDING, 1), (11, 1)]);
    }

    #[test]
    fn a_push_merges_into_a_completed_read_with_the_same_time() {
        // The write fetched at cycle 1 completes at 1 + depth = 11, the
        // same cycle DRAM delivers the read, so the two share a run.
        let (mut core, mut mem) = read_then_parked_write();
        core.complete_read(0, 11);
        core.cycle(1, &mut mem);
        assert_eq!(runs(&core), [(11, 2)]);
        // A different time starts a run of its own.
        let (mut core, mut mem) = read_then_parked_write();
        core.complete_read(0, 12);
        core.cycle(1, &mut mem);
        assert_eq!(runs(&core), [(12, 1), (11, 1)]);
    }

    #[test]
    #[should_panic(expected = "does not name an in-flight read")]
    fn completing_an_unknown_token_panics() {
        let (mut core, _) = read_then_parked_write();
        core.complete_read(7, 20);
    }

    #[test]
    #[should_panic(expected = "retired before completing")]
    fn completing_a_retired_read_panics() {
        let (mut core, mut mem) = read_then_parked_write();
        core.complete_read(0, 5);
        for now in 1..20 {
            core.cycle(now, &mut mem);
        }
        assert!(core.done());
        // Corrupt the bookkeeping: the retired read is in flight again.
        core.inflight.push_back(InFlight {
            token: 0,
            run: 0,
            issued_at: 0,
        });
        core.complete_read(0, 30);
    }

    #[test]
    #[should_panic(expected = "not a pending read")]
    fn completing_a_read_twice_panics() {
        let (mut core, _) = read_then_parked_write();
        core.complete_read(0, 20);
        // Corrupt the bookkeeping: the completed read is in flight again.
        core.inflight.push_back(InFlight {
            token: 0,
            run: 0,
            issued_at: 0,
        });
        core.complete_read(0, 30);
    }

    /// `advance_compute` over vouched-for spans must leave the core in
    /// the exact state per-cycle execution would: same stats, same
    /// completion cycle, same issue stream. The trace crosses every
    /// regime — fill transients, steady churn, a pending read blocking
    /// the ROB inside a gap (the read latency of 400 far exceeds the ROB
    /// drain time), and short gaps the batch cannot vouch for. Like
    /// `System::overlap_compute_span`, the batched run hands each read
    /// over before the span that holds its ready cycle, so a full ROB
    /// also waits inside spans on a head stamped as due mid-span.
    #[test]
    fn advance_compute_matches_per_cycle_execution() {
        let trace = vec![
            TraceRecord::new(3_000, ReqKind::Read, PhysAddr(0)),
            TraceRecord::new(5_000, ReqKind::Read, PhysAddr(64)),
            TraceRecord::new(7, ReqKind::Write, PhysAddr(128)),
            TraceRecord::new(2_000, ReqKind::Read, PhysAddr(192)),
            TraceRecord::new(900, ReqKind::Write, PhysAddr(256)),
        ];
        let run = |batch: bool| -> (CoreStats, usize) {
            let mut core = Core::new(0, CoreParams::msc_default(), trace.clone().into_iter());
            let mut mem = InstantMemory::new(400);
            let mut now = 0u64;
            let mut early = 0;
            while !core.done() {
                assert!(now < 100_000, "did not finish");
                mem.deliver(now, &mut core);
                let span = core.compute_quiet_cycles();
                if batch && span > 1 {
                    // `deliver` also sets the clock that stamps new reads;
                    // none issue inside the span, and the next call resets it.
                    early += usize::from(mem.next_ready_at().is_some_and(|r| r < now + span));
                    mem.deliver(now + span - 1, &mut core);
                    core.advance_compute(now, span);
                    now += span;
                } else {
                    core.cycle(now, &mut mem);
                    now += 1;
                }
            }
            (core.stats().clone(), early)
        };
        let ((batched, early), (cycled, _)) = (run(true), run(false));
        assert_eq!(batched, cycled);
        assert!(early > 0, "no span held a read's ready cycle");
    }

    type VecCore = Core<std::vec::IntoIter<TraceRecord>>;

    /// Cycle at which [`blocked_behind_read`] hands its core over.
    const BLOCKED_AT: u64 = 100;

    /// A core whose ROB is full behind its first read (token 0, issued at
    /// cycle 0) at cycle [`BLOCKED_AT`], fetching through a long gap, with
    /// the read stamped as due at `ready_at`. Its pipeline is too deep for
    /// the churn form to apply (`rob_size < retire_width × (depth + 1)`),
    /// so batched and per-cycle execution must leave the same ROB runs.
    fn blocked_behind_read(ready_at: u64) -> (VecCore, GatedWrites) {
        let trace = vec![
            TraceRecord::new(0, ReqKind::Read, PhysAddr(0)),
            TraceRecord::new(5_000, ReqKind::Write, PhysAddr(64)),
        ];
        let params = CoreParams {
            pipeline_depth: 64,
            ..CoreParams::msc_default()
        };
        let mut core = Core::new(0, params, trace.into_iter());
        let mut mem = GatedWrites::default();
        for now in 0..BLOCKED_AT {
            core.cycle(now, &mut mem);
        }
        assert!(core.rob_full() && core.head_complete_at() == Some(PENDING));
        core.complete_read(0, ready_at);
        (core, mem)
    }

    /// `batch` leaves a [`blocked_behind_read`] core with the same stats
    /// and ROB runs as `n` per-cycle calls.
    fn assert_matches_cycles(
        ready_at: u64,
        n: u64,
        batch: impl FnOnce(&mut VecCore, &mut GatedWrites),
    ) {
        let (mut batched, mut mem) = blocked_behind_read(ready_at);
        batch(&mut batched, &mut mem);
        let (mut cycled, mut mem) = blocked_behind_read(ready_at);
        for now in BLOCKED_AT..BLOCKED_AT + n {
            cycled.cycle(now, &mut mem);
        }
        assert_eq!(batched.stats(), cycled.stats(), "head due at {ready_at}");
        assert_eq!(runs(&batched), runs(&cycled), "head due at {ready_at}");
    }

    /// A full ROB behind a head stamped as due inside the span: over a
    /// long span `advance_compute` stalls in one step up to that cycle,
    /// then retires and refills exactly as per-cycle execution does, and
    /// so does `step` over a memory cycle's window.
    #[test]
    fn a_head_due_mid_span_matches_per_cycle_execution() {
        let (at, span) = (BLOCKED_AT, 400);
        for ready_at in [at + 1, at + 60, at + span - 1] {
            assert_matches_cycles(ready_at, span, |core, _| {
                assert!(core.compute_quiet_cycles() >= span);
                core.advance_compute(at, span);
            });
        }
        for ready_at in at + 1..at + 4 {
            assert_matches_cycles(ready_at, 4, |core, mem| core.step(at, 4, mem));
        }
    }
}

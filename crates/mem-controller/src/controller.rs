//! The memory controller proper: queues, FR-FCFS scheduling, write drain,
//! and refresh issue.

use crate::guardband::{GuardbandConfig, GuardbandMonitor, GuardbandTransition};
use crate::mapping::AddressMapper;
use crate::policy::{DevicePolicy, RefreshAction};
use crate::refresh::RefreshScheduler;
use crate::request::Request;
use crate::stats::ControllerStats;
use crate::telemetry::CtlTelemetry;
use dram_device::{
    Channel, CloneFrame, Cycle, DeviceError, Geometry, PhysAddr, RefreshWiring, ReqKind,
    RetentionConfig, RowTimingClass, TimingError, TimingSet, Violation,
};
use mcr_faults::FaultPlan;

/// Scheduling policy for picking among queued requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// First-Ready FCFS (Rixner et al., ISCA '00): row hits first, then
    /// oldest. The paper's baseline.
    #[default]
    FrFcfs,
    /// Strict in-order service of the oldest request (ablation baseline).
    Fcfs,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Keep rows open until a conflict or refresh forces them closed
    /// (the paper's baseline; pairs with FR-FCFS).
    #[default]
    Open,
    /// Close the row with auto-precharge after the last queued CAS to it
    /// (ablation: trades row-hit latency for conflict latency).
    Closed,
}

/// Controller configuration (defaults follow the paper's Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Read queue capacity per channel.
    pub read_queue_cap: usize,
    /// Write queue capacity per channel.
    pub write_queue_cap: usize,
    /// Enter write-drain mode at this write-queue occupancy.
    pub wq_high_watermark: usize,
    /// Leave write-drain mode at this occupancy.
    pub wq_low_watermark: usize,
    /// Request scheduling policy.
    pub scheduler: SchedulerKind,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// Refresh-counter wiring (paper Fig. 8; `Reversed` is the proposal).
    pub wiring: RefreshWiring,
    /// Master switch for refresh (off only for focused unit tests).
    pub refresh_enabled: bool,
    /// Put a rank into precharge power-down after this many consecutive
    /// idle cycles (no open banks, no queued requests, no refresh
    /// backlog); `None` disables power-down management.
    pub powerdown_idle_threshold: Option<u32>,
}

impl ControllerConfig {
    /// The MSC/USIMM defaults used in the paper's evaluation.
    pub fn msc_default() -> Self {
        ControllerConfig {
            read_queue_cap: 32,
            write_queue_cap: 32,
            wq_high_watermark: 24,
            wq_low_watermark: 8,
            scheduler: SchedulerKind::FrFcfs,
            row_policy: RowPolicy::Open,
            wiring: RefreshWiring::Reversed,
            refresh_enabled: true,
            powerdown_idle_threshold: None,
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::msc_default()
    }
}

/// A read whose data arrival cycle is fixed, handed back to the driving
/// core model by the tick that fixes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Token returned by [`MemoryController::enqueue_read`].
    pub token: u64,
    /// Core that issued the read.
    pub core_id: u32,
    /// Memory cycle at which the last data beat arrives. For a read served
    /// by DRAM this is the CAS's data end, which lies after the tick that
    /// issued the CAS and handed the completion out; for a store-to-load
    /// forwarded read it is the cycle of the tick that hands it out.
    pub ready_at: Cycle,
    /// Queueing + service latency in memory cycles.
    pub latency: Cycle,
}

/// The edge computation that produced a [`MemoryController::next_tick`]
/// (or [`MemoryController::next_event`]) wake-up cycle. Each variant names
/// one term of the fold in [`MemoryController::next_tick_detail`]; the
/// `mcr-model` certifier uses it to attribute a wake-soundness violation
/// to the source that under-estimated (overshot) the earliest observable
/// state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeSource {
    /// Guardband monitor re-arm poll deadline.
    GuardbandRearm,
    /// Delivery of the store-to-load forwarded reads enqueued since the
    /// last tick. A read served by DRAM is handed out by the tick that
    /// issues its CAS, so its data arrival is no edge.
    Completion,
    /// A rank's next refresh-slot deadline (tREFI cadence).
    RefreshDue,
    /// A postponed refresh slot becoming issuable (fault release window
    /// or the rank's tRFC/tRP recovery).
    RefreshRelease,
    /// An urgent rank precharging an open bank to quiesce for REFRESH.
    RefreshQuiesce,
    /// A queued row-hit request's CAS (or shared data bus) becoming legal.
    QueueCas,
    /// A queued row-conflict request's PRECHARGE becoming legal.
    QueuePrecharge,
    /// A queued row-miss request's ACTIVATE becoming legal.
    QueueActivate,
    /// A rank crossing the power-down idle threshold.
    PowerdownDue,
    /// A pending power-down entry retrying after refresh/precharges.
    PowerdownRetry,
    /// Bookkeeping an active cycle left for the next tick: a write-drain
    /// flip, or a rank's power-down idle-since or exit transition.
    Bookkeeping,
    /// A channel holding more than four queued requests after an active
    /// cycle: the next cycle ticks without a scan (more work is
    /// likely legal at once).
    BusyQueue,
}

impl EdgeSource {
    /// The number of sources: the length of a per-source count array
    /// indexed by `source as usize`.
    pub const COUNT: usize = 12;

    /// Every source, in declaration (and so index) order.
    pub const ALL: [EdgeSource; Self::COUNT] = [
        EdgeSource::GuardbandRearm,
        EdgeSource::Completion,
        EdgeSource::RefreshDue,
        EdgeSource::RefreshRelease,
        EdgeSource::RefreshQuiesce,
        EdgeSource::QueueCas,
        EdgeSource::QueuePrecharge,
        EdgeSource::QueueActivate,
        EdgeSource::PowerdownDue,
        EdgeSource::PowerdownRetry,
        EdgeSource::Bookkeeping,
        EdgeSource::BusyQueue,
    ];
}

/// Queued requests in one channel beyond which
/// [`MemoryController::next_tick`] answers the next cycle after an active
/// one without scanning for edges (DESIGN.md §5h): a threshold of one
/// left a third of single-core libq's ticks quiet, and none at all made
/// the four-core mix slower by scanning deep queues in which some
/// command was legal at once.
const BUSY_QUEUE: usize = 4;

/// One wake-up edge: the cycle and the computation that claimed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeInfo {
    /// Earliest cycle (strictly after the queried `now`) work can happen.
    pub cycle: Cycle,
    /// The edge source that produced `cycle`.
    pub source: EdgeSource,
}

/// Per-channel controller state.
struct ChannelCtl {
    chan: Channel,
    read_q: Vec<Request>,
    write_q: Vec<Request>,
    refresh: RefreshScheduler,
    draining: bool,
    /// Per-rank cycle since which the rank has been continuously idle
    /// (for power-down entry decisions).
    rank_idle_since: Vec<Option<Cycle>>,
    /// Per-rank count of queued requests (both queues), kept in step with
    /// enqueue and issue so power-down decisions need no queue scan.
    rank_queued: Vec<u32>,
}

/// Set of ranks (ids are `u8`, so four words cover every geometry): the
/// urgent-refresh ranks `schedule` keeps requests off.
#[derive(Debug, Clone, Copy, Default)]
struct RankMask([u64; 4]);

impl RankMask {
    fn insert(&mut self, rank: u8) {
        self.0[usize::from(rank / 64)] |= 1 << (rank % 64);
    }

    fn contains(self, rank: u8) -> bool {
        self.0[usize::from(rank / 64)] & (1 << (rank % 64)) != 0
    }
}

/// The running minimum of the edge fold: the earliest edge strictly
/// after `now`, the first source in scan order on ties.
struct EdgeFold {
    now: Cycle,
    edge: Option<EdgeInfo>,
}

impl EdgeFold {
    /// Folds in edge `cycle`; true once the fold is settled.
    fn note(&mut self, cycle: Cycle, source: EdgeSource) -> bool {
        if cycle > self.now && self.edge.is_none_or(|e| cycle < e.cycle) {
            self.edge = Some(EdgeInfo { cycle, source });
        }
        self.settled()
    }

    /// True once the edge is `now + 1`, which no later term can beat.
    fn settled(&self) -> bool {
        self.edge.is_some_and(|e| e.cycle == self.now + 1)
    }
}

impl ChannelCtl {
    /// True when `rank` has queued requests or a refresh backlog (keeps it
    /// out of power-down).
    fn rank_has_work(&self, rank: u8) -> bool {
        self.rank_queued[rank as usize] > 0 || self.refresh.backlog(rank) > 0
    }

    /// True when the write queue has crossed the watermark that flips
    /// drain mode (`low` while draining, `high` otherwise).
    fn drain_flip_pending(&self, low: usize, high: usize) -> bool {
        if self.draining {
            self.write_q.len() <= low
        } else {
            self.write_q.len() >= high
        }
    }
}

/// The memory controller: one instance drives every channel of the system.
///
/// Drive it by calling [`MemoryController::tick`] once per memory cycle;
/// enqueue requests between ticks via [`MemoryController::enqueue_read`] /
/// [`MemoryController::enqueue_write`].
pub struct MemoryController {
    geometry: Geometry,
    config: ControllerConfig,
    channels: Vec<ChannelCtl>,
    mapper: Box<dyn AddressMapper>,
    policy: Box<dyn DevicePolicy>,
    next_token: u64,
    stats: ControllerStats,
    /// The last cycle ticked or replayed by
    /// [`MemoryController::note_skipped_cycles`]; enqueues stamp the next.
    last_tick: Option<Cycle>,
    /// Store-to-load forwarded reads as (token, core, due cycle), enqueued
    /// since the last tick and delivered by the next one.
    forwarded: Vec<(u64, u32, Cycle)>,
    /// The latest data arrival of any read whose CAS has issued.
    data_until: Option<Cycle>,
    /// Whether the current memory cycle (since the last [`MemoryController::tick`]
    /// entry or skipped-cycle replay) did or queued any observable work.
    /// Cleared at the top of every tick and by every replay; set by
    /// command issue, refresh-slot arrival, forwarded-read delivery,
    /// power-down transitions, drain-mode flips, guardband moves, and
    /// request enqueues. [`MemoryController::next_tick`] reads it to pick
    /// its rule.
    activity: bool,
    /// Scheduler-decision counters and queue histograms.
    telemetry: CtlTelemetry,
    /// Installed fault plan (`None` = no fault injection); feeds the
    /// refresh scheduler's drop/late fault stream.
    fault_plan: Option<FaultPlan>,
    /// Guardband monitor (`None` = degradation ladder disabled).
    guardband: Option<GuardbandMonitor>,
    /// Ladder moves the monitor decided on, awaiting the owner (the MCR
    /// policy layer applies them and drains this queue).
    guardband_events: Vec<(Cycle, GuardbandTransition)>,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("geometry", &self.geometry)
            .field("config", &self.config)
            .field("mapper", &self.mapper.name())
            .field("next_token", &self.next_token)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MemoryController {
    /// Builds a controller over fresh DRAM channels.
    ///
    /// The policy's extra row-timing classes (Table 3 entries for MCR
    /// modes) are registered on every channel; class indices observed by
    /// the policy start at 1 in registration order.
    ///
    /// # Panics
    ///
    /// Panics when the policy declares more row-timing classes than a
    /// channel can register; use [`MemoryController::try_new`] to handle
    /// that fallibly.
    pub fn new(
        geometry: Geometry,
        timing: TimingSet,
        config: ControllerConfig,
        mapper: Box<dyn AddressMapper>,
        policy: Box<dyn DevicePolicy>,
    ) -> Self {
        match Self::try_new(geometry, timing, config, mapper, policy) {
            Ok(ctl) => ctl,
            Err(e) => panic!("invalid controller configuration: {e}"),
        }
    }

    /// Fallible variant of [`MemoryController::new`]: returns a
    /// [`DeviceError`] instead of panicking when the policy's row-timing
    /// class table cannot be registered on the channels.
    pub fn try_new(
        geometry: Geometry,
        timing: TimingSet,
        config: ControllerConfig,
        mapper: Box<dyn AddressMapper>,
        policy: Box<dyn DevicePolicy>,
    ) -> Result<Self, DeviceError> {
        let row_bits = geometry.row_bits();
        let mut channels = Vec::with_capacity(geometry.channels as usize);
        for _ in 0..geometry.channels {
            let mut chan = Channel::new(geometry, timing.clone());
            for rt in policy.timing_classes() {
                chan.register_row_timing(rt)?;
            }
            channels.push(ChannelCtl {
                chan,
                read_q: Vec::with_capacity(config.read_queue_cap),
                write_q: Vec::with_capacity(config.write_queue_cap),
                refresh: RefreshScheduler::new(
                    geometry.ranks,
                    row_bits,
                    timing.t_refi as Cycle,
                    config.wiring,
                ),
                draining: false,
                rank_idle_since: vec![None; geometry.ranks as usize],
                rank_queued: vec![0; geometry.ranks as usize],
            });
        }
        Ok(MemoryController {
            geometry,
            config,
            channels,
            mapper,
            policy,
            next_token: 0,
            stats: ControllerStats::default(),
            last_tick: None,
            forwarded: Vec::new(),
            data_until: None,
            activity: true,
            telemetry: CtlTelemetry::default(),
            fault_plan: None,
            guardband: None,
            guardband_events: Vec::new(),
        })
    }

    /// Arms retention tracking on every channel and installs the plan's
    /// refresh-fault stream on the scheduler.
    ///
    /// # Errors
    ///
    /// Returns the device's [`DeviceError::InvalidRetentionConfig`] when
    /// the configuration is structurally invalid.
    pub fn set_retention(&mut self, cfg: RetentionConfig) -> Result<(), DeviceError> {
        for ch in &mut self.channels {
            ch.chan.set_retention(cfg.clone())?;
        }
        self.fault_plan = Some(cfg.plan);
        Ok(())
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Installs (or replaces) the guardband monitor driving the graceful
    /// timing-degradation ladder.
    pub fn set_guardband(&mut self, cfg: GuardbandConfig) {
        self.guardband = Some(GuardbandMonitor::new(cfg));
    }

    /// The guardband monitor, if one is installed.
    pub fn guardband(&self) -> Option<&GuardbandMonitor> {
        self.guardband.as_ref()
    }

    /// Drains the guardband ladder moves decided since the last call.
    /// The owner must apply each one (re-map rows onto the degraded or
    /// restored timing classes via its MRS machinery).
    pub fn drain_guardband_transitions(&mut self) -> Vec<(Cycle, GuardbandTransition)> {
        std::mem::take(&mut self.guardband_events)
    }

    /// Queues a guardband transition and counts it.
    fn push_guardband_event(&mut self, now: Cycle, t: GuardbandTransition) {
        match t {
            GuardbandTransition::Degrade(_) => {
                self.stats.guardband_degrades += 1;
                self.telemetry.guardband_degrades.inc();
            }
            GuardbandTransition::Rearm(_) => {
                self.stats.guardband_rearms += 1;
                self.telemetry.guardband_rearms.inc();
            }
        }
        self.guardband_events.push((now, t));
        self.activity = true;
    }

    /// The controller's telemetry.
    pub fn telemetry(&self) -> &CtlTelemetry {
        &self.telemetry
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The system geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Aggregate statistics (refresh stats folded in lazily).
    pub fn stats(&self) -> ControllerStats {
        let mut s = self.stats.clone();
        for ch in &self.channels {
            let r = ch.refresh.stats();
            s.refresh.normal += r.normal;
            s.refresh.fast += r.fast;
            s.refresh.skipped += r.skipped;
            s.refresh.dropped += r.dropped;
            s.refresh.late += r.late;
        }
        if let Some(g) = &self.guardband {
            s.guardband_degraded_cycles = g.degraded_cycles(self.last_tick.unwrap_or(0));
        }
        s
    }

    /// Read access to the underlying channels (for power accounting).
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter().map(|c| &c.chan)
    }

    /// Mutable access to the device policy, for runtime reconfiguration
    /// (an MRS-style mode change). Timing classes stay as registered at
    /// construction; the policy may only re-map rows onto those classes.
    pub fn policy_mut(&mut self) -> &mut dyn DevicePolicy {
        self.policy.as_mut()
    }

    /// Enables command tracing (last `capacity` commands) on every
    /// channel, for debugging and sequence assertions.
    pub fn enable_command_trace(&mut self, capacity: usize) {
        for ch in &mut self.channels {
            ch.chan.enable_command_trace(capacity);
        }
    }

    /// Finalizes per-rank residency counters at the end of simulation.
    pub fn finish(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.chan.finish_counters(now);
        }
        if let Some(g) = &mut self.guardband {
            g.finish(now);
        }
    }

    /// True when the protocol auditor is armed on any channel.
    pub fn audit_enabled(&self) -> bool {
        self.channels.iter().any(|c| c.chan.audit_enabled())
    }

    /// Arms or disarms the protocol auditor on every channel.
    pub fn set_audit_enabled(&mut self, enabled: bool) {
        for ch in &mut self.channels {
            ch.chan.set_audit_enabled(enabled);
        }
    }

    /// Sets the refresh-starvation budget (max cycles between REFRESH
    /// commands on a rank before the auditor flags starvation) on every
    /// channel. `None` disables the check — use it when refresh is off.
    pub fn set_audit_refresh_budget(&mut self, budget: Option<Cycle>) {
        for ch in &mut self.channels {
            ch.chan.set_audit_refresh_budget(budget);
        }
    }

    /// Installs clone-frame descriptors on channel `ch` so the auditor can
    /// flag writes that land on a live clone row (opt-in; see
    /// `dram_device::audit`).
    pub fn set_audit_clone_frames(&mut self, ch: usize, frames: Vec<CloneFrame>) {
        self.channels[ch].chan.set_audit_clone_frames(frames);
    }

    /// All protocol violations recorded so far, across every channel.
    pub fn audit_violations(&self) -> impl Iterator<Item = &Violation> {
        self.channels.iter().flat_map(|c| c.chan.audit_violations())
    }

    /// Total number of violations observed (including any beyond the
    /// recording cap).
    pub fn audit_total(&self) -> u64 {
        self.channels.iter().map(|c| c.chan.audit_total()).sum()
    }

    /// Runs the auditor's end-of-stream checks (e.g. tail refresh
    /// starvation) on every channel.
    pub fn audit_finish(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.chan.audit_finish(now);
        }
    }

    /// Records an MRS-style mode change in every channel's command stream
    /// so the auditor can flag reconfiguration while banks are open.
    pub fn note_mode_change(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.chan.note_mode_change(now);
        }
    }

    /// Number of queued reads in channel `ch`.
    pub fn read_queue_len(&self, ch: usize) -> usize {
        self.channels[ch].read_q.len()
    }

    /// Number of queued writes in channel `ch`.
    pub fn write_queue_len(&self, ch: usize) -> usize {
        self.channels[ch].write_q.len()
    }

    /// True when every queue is empty, no forwarded read awaits delivery,
    /// and a tick or [`MemoryController::note_skipped_cycles`] has covered
    /// the data arrival of every read whose CAS issued
    /// ([`MemoryController::data_in_flight_until`] is `None`).
    pub fn idle(&self) -> bool {
        self.forwarded.is_empty()
            && self.data_in_flight_until().is_none()
            && self
                .channels
                .iter()
                .all(|c| c.read_q.is_empty() && c.write_q.is_empty())
    }

    /// The cycle the last data of an issued read arrives on, while no tick
    /// or [`MemoryController::note_skipped_cycles`] has covered it yet. It
    /// is no edge of [`MemoryController::next_tick`]: the tick that issued
    /// the CAS already handed the read out. A driver whose cores are all
    /// done runs until then, since the run ends once the controller is
    /// [`MemoryController::idle`].
    pub fn data_in_flight_until(&self) -> Option<Cycle> {
        self.data_until
            .filter(|&t| self.last_tick.is_none_or(|last| t > last))
    }

    /// The due cycle of the store-to-load forwarded reads `core_id` enqueued
    /// since the last tick: the next tick hands them out stamped with it.
    pub fn forwarded_due(&self, core_id: u32) -> Option<Cycle> {
        self.forwarded.iter().find(|f| f.1 == core_id).map(|f| f.2)
    }

    /// True when the current memory cycle did or queued observable work:
    /// the span since the last [`MemoryController::tick`] entry (or the
    /// last [`MemoryController::note_skipped_cycles`]), including enqueues
    /// made after it. A `false` answer guarantees the controller's
    /// externally visible state is frozen until the edge
    /// [`MemoryController::next_event`] reports. Either way,
    /// [`MemoryController::next_tick`] names the next cycle that can
    /// change it, which is what an event-wheel driver follows.
    pub fn had_activity(&self) -> bool {
        self.activity
    }

    /// Earliest cycle strictly after `now` at which a quiet controller can
    /// next do work: command legality for every queued request (including
    /// the shared data bus), forwarded-read delivery, refresh-slot deadlines
    /// and backlog release, power-down thresholds and pending entries, and
    /// guardband re-arms. Returns `None` when no such edge exists (e.g. a
    /// fully idle controller).
    ///
    /// Edges may be conservative (a wake where nothing issues is a
    /// harmless no-op tick) but are never late: every state change a
    /// quiet controller can undergo happens at or after the reported
    /// cycle. The per-rank refresh deadline is always included — a
    /// late-refresh fault stamps its release relative to the cycle the
    /// slot is observed, so jumping past a deadline would change behavior.
    ///
    /// A rank with a refresh backlog adds its oldest slot's `not_before`
    /// release, and then:
    ///
    /// * with every bank closed, the cycle a REFRESH becomes legal (no
    ///   earlier than that release);
    /// * when urgent, one quiesce edge per open bank (the cycle its
    ///   precharge becomes legal), since the scheduler closes those banks
    ///   itself;
    /// * otherwise nothing. A non-urgent rank with an open bank can only
    ///   refresh after a bank closes, and a bank closes only through a
    ///   command the controller issues (PRE, RDA/WRA or a power-down
    ///   precharge), each of which marks the cycle active. Urgency changes
    ///   only when a slot comes due, which the deadline edge covers.
    ///
    /// The contract covers only a quiet cycle (`had_activity()` false).
    /// After an active one, an edge already at or before `now` (a command
    /// that lost the channel's one-command slot, a second guardband re-arm
    /// step already due) is dropped, and the bookkeeping an active cycle
    /// leaves for the next tick (a write-drain flip, a power-down
    /// idle-since or exit transition) has no edge at all; use
    /// [`MemoryController::next_tick`] there.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.edges(now, false).map(|e| e.cycle)
    }

    /// The next cycle at which the controller must tick, asked once cycle
    /// `now` is over: after its tick (or the
    /// [`MemoryController::note_skipped_cycles`] that covered it) and
    /// every enqueue made in it. Every cycle before the answer can be
    /// replayed with `note_skipped_cycles`; `None` means nothing happens
    /// until the next enqueue.
    ///
    /// * After a quiet cycle, this is [`MemoryController::next_event`].
    /// * After an active one (a command, completion, refresh slot,
    ///   guardband move or enqueue) it is `now + 1` when a write-drain
    ///   flip or a power-down idle-since or exit transition is pending,
    ///   since the next tick does that bookkeeping whatever the device
    ///   timing says ([`EdgeSource::Bookkeeping`]).
    /// * It is also `now + 1`, without a scan, when a channel holds more
    ///   than four queued requests ([`EdgeSource::BusyQueue`]):
    ///   more work is then usually legal at once, and the scan would cost
    ///   about as much as the tick it might save.
    /// * Otherwise it is `next_event`'s fold with every legality edge
    ///   (queued CAS, PRE and ACT, refresh quiesce, the all-idle REFRESH,
    ///   power-down retry, guardband re-arm) clamped to at least
    ///   `now + 1`: such an edge may already be due, because its command
    ///   lost the channel's one-command slot or its step came due again
    ///   right after the last one. Refresh deadlines, `not_before`
    ///   releases and forwarded-read delivery stay unclamped: once cycle
    ///   `now` is over, each one that still matters lies after it.
    pub fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        self.next_tick_detail(now).map(|e| e.cycle)
    }

    /// Like [`MemoryController::next_tick`], but also reports which edge
    /// source claimed the wake (ties keep the first source in scan
    /// order). This is the introspection surface the
    /// `mcr-model` wake-soundness certifier uses to attribute an
    /// overshoot to the edge computation that produced it.
    pub fn next_tick_detail(&self, now: Cycle) -> Option<EdgeInfo> {
        if !self.activity {
            return self.edges(now, false);
        }
        let next = |source| {
            Some(EdgeInfo {
                cycle: now + 1,
                source,
            })
        };
        let low = self.config.wq_low_watermark;
        let high = self.config.wq_high_watermark;
        let powerdown = self.config.powerdown_idle_threshold.is_some();
        let pending = self.channels.iter().any(|ch| {
            ch.drain_flip_pending(low, high)
                || powerdown
                    && (0..self.geometry.ranks).any(|rank| {
                        let has_work = ch.rank_has_work(rank);
                        if ch.chan.rank_powered_down(rank) {
                            has_work
                        } else {
                            has_work == ch.rank_idle_since[rank as usize].is_some()
                        }
                    })
        });
        if pending {
            return next(EdgeSource::Bookkeeping);
        }
        if self
            .channels
            .iter()
            .any(|ch| ch.read_q.len() + ch.write_q.len() > BUSY_QUEUE)
        {
            return next(EdgeSource::BusyQueue);
        }
        self.edges(now, true)
    }

    /// The edge fold behind [`MemoryController::next_event`] (`active`
    /// false) and [`MemoryController::next_tick`] (`active` true, which
    /// clamps every legality edge to at least `now + 1`). It stops at the
    /// first edge at `now + 1`, which no later term can beat.
    fn edges(&self, now: Cycle, active: bool) -> Option<EdgeInfo> {
        let mut fold = EdgeFold { now, edge: None };
        let legal = |c: Cycle| if active { c.max(now + 1) } else { c };
        if let Some(c) = self.guardband.as_ref().and_then(|g| g.next_rearm_cycle()) {
            if fold.note(legal(c), EdgeSource::GuardbandRearm) {
                return fold.edge;
            }
        }
        if let Some(&(.., due)) = self.forwarded.first() {
            if fold.note(due, EdgeSource::Completion) {
                return fold.edge;
            }
        }
        for ch in &self.channels {
            if self.config.refresh_enabled {
                for rank in 0..self.geometry.ranks {
                    fold.note(ch.refresh.next_due(rank), EdgeSource::RefreshDue);
                    let Some(p) = ch.refresh.peek(rank) else {
                        continue;
                    };
                    fold.note(p.not_before, EdgeSource::RefreshRelease);
                    let r = ch.chan.rank(rank);
                    if r.all_idle() {
                        fold.note(
                            legal(ch.chan.next_refresh_cycle(rank).max(p.not_before)),
                            EdgeSource::RefreshRelease,
                        );
                    } else if ch.refresh.urgent(rank) {
                        // An urgent rank quiesces by precharging its open
                        // banks before the REFRESH can issue; each of
                        // those precharges is an edge of its own.
                        for bank in r.open_bank_ids() {
                            fold.note(
                                legal(ch.chan.next_precharge_cycle(rank, bank)),
                                EdgeSource::RefreshQuiesce,
                            );
                        }
                    }
                    if fold.settled() {
                        return fold.edge;
                    }
                }
            }
            // Command legality for the queue the scheduler is serving.
            // Drain mode cannot flip during a quiet span (queue lengths
            // only change on active cycles), so the selection is stable.
            let drain = ch.draining || (ch.read_q.is_empty() && !ch.write_q.is_empty());
            let q = if drain { &ch.write_q } else { &ch.read_q };
            let is_read = !drain;
            for r in q {
                let (rank, bank, row) = (r.dram.rank, r.dram.bank, r.dram.row);
                let (c, source) = match ch.chan.open_row(rank, bank) {
                    Some(open) if open == row => (
                        ch.chan
                            .next_cas_cycle(rank, bank, is_read)
                            .max(ch.chan.next_bus_cas_cycle(rank, is_read)),
                        EdgeSource::QueueCas,
                    ),
                    Some(_) => (
                        ch.chan.next_precharge_cycle(rank, bank),
                        EdgeSource::QueuePrecharge,
                    ),
                    None => (
                        ch.chan.next_activate_cycle(rank, bank),
                        EdgeSource::QueueActivate,
                    ),
                };
                if fold.note(legal(c), source) {
                    return fold.edge;
                }
            }
            if let Some(threshold) = self.config.powerdown_idle_threshold {
                for rank in 0..self.geometry.ranks {
                    if let Some(since) = ch.rank_idle_since[rank as usize] {
                        let due = since.saturating_add(threshold as Cycle);
                        fold.note(due, EdgeSource::PowerdownDue);
                        if due <= now {
                            // Entry is pending: it retries as soon as the
                            // rank finishes refreshing, and open banks
                            // still need power-down precharges.
                            fold.note(
                                legal(ch.chan.rank(rank).refresh_busy_until()),
                                EdgeSource::PowerdownRetry,
                            );
                            for bank in ch.chan.rank(rank).open_bank_ids() {
                                fold.note(
                                    legal(ch.chan.next_precharge_cycle(rank, bank)),
                                    EdgeSource::PowerdownRetry,
                                );
                            }
                        }
                        if fold.settled() {
                            return fold.edge;
                        }
                    }
                }
            }
        }
        fold.edge
    }

    /// Pending refresh backlog (postponed slots) of `rank` on channel
    /// `ch` — introspection for wake certification and diagnostics.
    pub fn refresh_backlog(&self, ch: usize, rank: u8) -> usize {
        self.channels[ch].refresh.backlog(rank)
    }

    /// True while channel `ch` is in write-drain mode.
    pub fn is_draining(&self, ch: usize) -> bool {
        self.channels[ch].draining
    }

    /// Replays `skipped` cycles without a tick in one step, exactly as
    /// that many [`MemoryController::tick`] calls would have left a frozen
    /// controller: write-drain residency, the per-channel queue-depth
    /// telemetry samples, and the clock. The last skipped cycle becomes
    /// the last tick, so an enqueue made after it stamps `enqueued_at`
    /// as it would after a tick, and the activity flag is cleared, so
    /// [`MemoryController::had_activity`] then reports only such
    /// enqueues. Only valid for a span that ends before the
    /// [`MemoryController::next_tick`] edge asked at its start (the
    /// event-wheel driver guarantees it).
    pub fn note_skipped_cycles(&mut self, skipped: Cycle) {
        if skipped == 0 {
            return;
        }
        self.last_tick = Some(self.last_tick.map_or(skipped - 1, |t| t + skipped));
        self.activity = false;
        let draining = self.channels.iter().filter(|c| c.draining).count() as Cycle;
        self.stats.drain_cycles += draining * skipped;
        for ch in &self.channels {
            self.telemetry
                .read_queue_depth
                .record_n(ch.read_q.len() as u64, skipped);
            self.telemetry
                .write_queue_depth
                .record_n(ch.write_q.len() as u64, skipped);
        }
    }

    /// Attempts to enqueue a read for `core_id` at physical address `phys`.
    ///
    /// Returns the completion token, or `None` when the target channel's
    /// read queue is full. A read that matches a queued write is forwarded
    /// from the write queue (store-to-load forwarding) and completes on the
    /// next tick without touching DRAM.
    pub fn enqueue_read(&mut self, core_id: u32, phys: PhysAddr) -> Option<u64> {
        let dram = self.mapper.decode(phys);
        let ch = &mut self.channels[dram.channel as usize];
        if ch.read_q.len() >= self.config.read_queue_cap {
            return None;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.activity = true;
        let now = self.last_tick.map_or(0, |c| c + 1);
        // Store-to-load forwarding from the write queue.
        if ch.write_q.iter().any(|w| w.phys == phys) {
            self.forwarded.push((token, core_id, now));
            return Some(token);
        }
        ch.rank_queued[dram.rank as usize] += 1;
        ch.read_q.push(Request {
            token,
            core_id,
            kind: ReqKind::Read,
            phys,
            dram,
            enqueued_at: now,
            did_precharge: false,
            did_activate: false,
        });
        Some(token)
    }

    /// Attempts to enqueue a write. Returns `false` when the write queue is
    /// full. Writes to an already-queued line merge into the existing
    /// entry.
    pub fn enqueue_write(&mut self, core_id: u32, phys: PhysAddr) -> bool {
        let dram = self.mapper.decode(phys);
        let ch = &mut self.channels[dram.channel as usize];
        if ch.write_q.iter().any(|w| w.phys == phys) {
            self.activity = true;
            return true; // write merging
        }
        if ch.write_q.len() >= self.config.write_queue_cap {
            return false;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.activity = true;
        ch.rank_queued[dram.rank as usize] += 1;
        ch.write_q.push(Request {
            token,
            core_id,
            kind: ReqKind::Write,
            phys,
            dram,
            enqueued_at: self.last_tick.map_or(0, |c| c + 1),
            did_precharge: false,
            did_activate: false,
        });
        true
    }

    /// Advances one memory cycle: updates refresh deadlines, issues at most
    /// one command per channel, and returns the reads it completes: each
    /// read whose CAS issued at `now`, stamped with the later cycle its
    /// data arrives on, and each store-to-load forwarded read enqueued
    /// since the last tick, stamped `now`. A read is returned exactly once;
    /// [`ControllerStats::reads_done`] and the latency counters count it
    /// here.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `now` does not advance monotonically.
    pub fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// [`MemoryController::tick`] that appends the completed reads to
    /// `done`, so a driver can reuse one buffer for every tick.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `now` does not advance monotonically.
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<Completion>) {
        debug_assert!(
            self.last_tick.is_none_or(|t| now > t),
            "tick must advance: {:?} -> {now}",
            self.last_tick
        );
        self.last_tick = Some(now);
        self.activity = false;
        if let Some(g) = &mut self.guardband {
            if let Some(t) = g.poll(now) {
                self.push_guardband_event(now, t);
            }
        }
        for ci in 0..self.channels.len() {
            let ch = &self.channels[ci];
            self.telemetry
                .read_queue_depth
                .record(ch.read_q.len() as u64);
            self.telemetry
                .write_queue_depth
                .record(ch.write_q.len() as u64);
            if self.config.refresh_enabled
                && self.channels[ci].refresh.tick(
                    now,
                    self.policy.as_mut(),
                    self.fault_plan.as_ref(),
                )
            {
                self.activity = true;
            }
            self.manage_power_down(ci, now);
            self.update_drain_mode(ci);
            self.schedule(ci, now, done);
        }
        for (token, core_id, due) in std::mem::take(&mut self.forwarded) {
            debug_assert!(due <= now, "forwarded read due at {due} ticked at {now}");
            self.activity = true;
            self.complete(done, token, core_id, due, due);
        }
    }

    /// Counts a read whose data arrives at `ready_at` and hands it out.
    fn complete(
        &mut self,
        done: &mut Vec<Completion>,
        token: u64,
        core_id: u32,
        ready_at: Cycle,
        enqueued_at: Cycle,
    ) {
        let latency = ready_at - enqueued_at;
        self.stats.reads_done += 1;
        self.stats.read_latency_sum += latency;
        self.telemetry.read_latency.record(latency);
        done.push(Completion {
            token,
            core_id,
            ready_at,
            latency,
        });
    }

    /// Power-down management: wake ranks that have work, put long-idle
    /// ranks to sleep (precharge power-down, CKE low).
    fn manage_power_down(&mut self, ci: usize, now: Cycle) {
        let Some(threshold) = self.config.powerdown_idle_threshold else {
            return;
        };
        for rank in 0..self.geometry.ranks {
            let ch = &self.channels[ci];
            let has_work = ch.rank_has_work(rank);
            let powered_down = ch.chan.rank_powered_down(rank);
            if powered_down {
                if has_work {
                    self.channels[ci].chan.exit_power_down(rank, now);
                    self.channels[ci].rank_idle_since[rank as usize] = None;
                    self.activity = true;
                }
                continue;
            }
            // "Idle" means no pending work; open-but-unused banks still
            // count (the scheduler precharges them once the threshold is
            // reached, see `try_powerdown_precharge`).
            let ch = &mut self.channels[ci];
            match (!has_work, ch.rank_idle_since[rank as usize]) {
                (false, _) => {
                    if ch.rank_idle_since[rank as usize].take().is_some() {
                        self.activity = true;
                    }
                }
                (true, None) => {
                    ch.rank_idle_since[rank as usize] = Some(now);
                    self.activity = true;
                }
                (true, Some(since)) => {
                    if now.saturating_sub(since) >= threshold as Cycle
                        && ch.chan.rank(rank).all_idle()
                        && ch.chan.enter_power_down(rank, now).is_ok()
                    {
                        ch.rank_idle_since[rank as usize] = None;
                        self.activity = true;
                    }
                }
            }
        }
    }

    fn update_drain_mode(&mut self, ci: usize) {
        let ch = &mut self.channels[ci];
        if ch.drain_flip_pending(self.config.wq_low_watermark, self.config.wq_high_watermark) {
            ch.draining = !ch.draining;
            self.activity = true;
        }
        if ch.draining {
            self.stats.drain_cycles += 1;
        }
    }

    /// Issues at most one command on channel `ci` at cycle `now`; a read
    /// CAS appends its completion to `done`.
    fn schedule(&mut self, ci: usize, now: Cycle, done: &mut Vec<Completion>) {
        // 1. Urgent refresh takes absolute priority for its rank.
        let ranks = self.geometry.ranks;
        let mut urgent = RankMask::default();
        if self.config.refresh_enabled {
            for rank in 0..ranks {
                if self.channels[ci].refresh.urgent(rank) {
                    urgent.insert(rank);
                    if self.try_refresh(ci, rank, now) || self.try_idle_rank(ci, rank, now) {
                        return;
                    }
                }
            }
        }

        // 2. Serve the active request queue.
        let drain = {
            let ch = &self.channels[ci];
            ch.draining || (ch.read_q.is_empty() && !ch.write_q.is_empty())
        };
        let issued = match self.config.scheduler {
            SchedulerKind::FrFcfs => self.schedule_fr_fcfs(ci, now, drain, urgent, done),
            SchedulerKind::Fcfs => self.schedule_fcfs(ci, now, drain, urgent, done),
        };
        if issued {
            return;
        }

        // 3. Opportunistic refresh in an otherwise idle command slot. A
        // rank with an open bank cannot refresh, so it is not tried.
        if self.config.refresh_enabled {
            for rank in 0..ranks {
                let ch = &self.channels[ci];
                if ch.refresh.backlog(rank) > 0
                    && ch.chan.rank(rank).all_idle()
                    && self.try_refresh(ci, rank, now)
                {
                    return;
                }
            }
        }

        // 4. Power-down preparation: precharge open-but-unused banks of
        // ranks that have exceeded the idle threshold.
        if let Some(threshold) = self.config.powerdown_idle_threshold {
            for rank in 0..ranks {
                let due = matches!(
                    self.channels[ci].rank_idle_since[rank as usize],
                    Some(since) if now.saturating_sub(since) >= threshold as Cycle
                );
                if due && self.try_idle_rank(ci, rank, now) {
                    return;
                }
            }
        }
    }

    /// FR-FCFS: oldest issuable row hit, else oldest ACT, else oldest PRE.
    fn schedule_fr_fcfs(
        &mut self,
        ci: usize,
        now: Cycle,
        drain: bool,
        urgent: RankMask,
        done: &mut Vec<Completion>,
    ) -> bool {
        let is_read = !drain;
        // Pass 1: row hits.
        let hit = self.find_request(ci, drain, urgent, |ch, r| {
            ch.open_row(r.dram.rank, r.dram.bank) == Some(r.dram.row)
                && ch.next_cas_cycle(r.dram.rank, r.dram.bank, is_read) <= now
        });
        if let Some(idx) = hit {
            return self.issue_cas(ci, idx, drain, now, done);
        }
        // Pass 2: closed banks -> ACTIVATE.
        let act = self.find_request(ci, drain, urgent, |ch, r| {
            ch.open_row(r.dram.rank, r.dram.bank).is_none()
                && ch.next_activate_cycle(r.dram.rank, r.dram.bank) <= now
        });
        if let Some(idx) = act {
            return self.issue_act(ci, idx, drain, now);
        }
        // Pass 3: conflicts -> PRECHARGE, but never close a row that still
        // has pending hits in the active queue.
        let pre = self.find_request(ci, drain, urgent, |ch, r| {
            matches!(ch.open_row(r.dram.rank, r.dram.bank), Some(open) if open != r.dram.row)
                && ch.next_precharge_cycle(r.dram.rank, r.dram.bank) <= now
        });
        if let Some(idx) = pre {
            let (rank, bank) = {
                let q = self.queue(ci, drain);
                (q[idx].dram.rank, q[idx].dram.bank)
            };
            let open = self.channels[ci].chan.open_row(rank, bank);
            let has_pending_hit = self
                .queue(ci, drain)
                .iter()
                .any(|r| r.dram.rank == rank && r.dram.bank == bank && Some(r.dram.row) == open);
            if !has_pending_hit {
                return self.issue_pre(ci, idx, drain, now);
            }
        }
        false
    }

    /// FCFS: work only on the oldest request.
    fn schedule_fcfs(
        &mut self,
        ci: usize,
        now: Cycle,
        drain: bool,
        urgent: RankMask,
        done: &mut Vec<Completion>,
    ) -> bool {
        let oldest = self.find_request(ci, drain, urgent, |_, _| true);
        let Some(idx) = oldest else { return false };
        let (rank, bank, row) = {
            let q = self.queue(ci, drain);
            (q[idx].dram.rank, q[idx].dram.bank, q[idx].dram.row)
        };
        let is_read = !drain;
        let ch = &self.channels[ci].chan;
        match ch.open_row(rank, bank) {
            Some(open) if open == row => {
                if ch.next_cas_cycle(rank, bank, is_read) <= now {
                    return self.issue_cas(ci, idx, drain, now, done);
                }
            }
            Some(_) => {
                if ch.next_precharge_cycle(rank, bank) <= now {
                    return self.issue_pre(ci, idx, drain, now);
                }
            }
            None => {
                if ch.next_activate_cycle(rank, bank) <= now {
                    return self.issue_act(ci, idx, drain, now);
                }
            }
        }
        false
    }

    fn queue(&self, ci: usize, drain: bool) -> &Vec<Request> {
        if drain {
            &self.channels[ci].write_q
        } else {
            &self.channels[ci].read_q
        }
    }

    /// Index (in queue order, i.e. oldest-first) of the first request not
    /// targeting an urgent rank for which `pred` holds.
    fn find_request(
        &self,
        ci: usize,
        drain: bool,
        urgent: RankMask,
        pred: impl Fn(&Channel, &Request) -> bool,
    ) -> Option<usize> {
        let ch = &self.channels[ci];
        self.queue(ci, drain)
            .iter()
            .enumerate()
            .find(|(_, r)| !urgent.contains(r.dram.rank) && pred(&ch.chan, r))
            .map(|(i, _)| i)
    }

    /// Issues the CAS of queue entry `idx`. A read completes here: its
    /// data arrival is fixed by the CAS, so its completion goes to `done`.
    fn issue_cas(
        &mut self,
        ci: usize,
        idx: usize,
        drain: bool,
        now: Cycle,
        done: &mut Vec<Completion>,
    ) -> bool {
        let req = if drain {
            self.channels[ci].write_q[idx].clone()
        } else {
            self.channels[ci].read_q[idx].clone()
        };
        // Closed-page policy: auto-precharge when no other queued request
        // (either queue) still wants this row.
        let auto_pre = self.config.row_policy == RowPolicy::Closed && {
            let ch = &self.channels[ci];
            let wants_row = |r: &Request| {
                r.token != req.token
                    && r.dram.rank == req.dram.rank
                    && r.dram.bank == req.dram.bank
                    && r.dram.row == req.dram.row
            };
            !ch.read_q.iter().any(wants_row) && !ch.write_q.iter().any(wants_row)
        };
        let ch = &mut self.channels[ci];
        let result = match (drain, auto_pre) {
            (true, false) => ch
                .chan
                .write(req.dram.rank, req.dram.bank, req.dram.col, now),
            (true, true) => {
                ch.chan
                    .write_auto_precharge(req.dram.rank, req.dram.bank, req.dram.col, now)
            }
            (false, false) => ch
                .chan
                .read(req.dram.rank, req.dram.bank, req.dram.col, now),
            (false, true) => {
                ch.chan
                    .read_auto_precharge(req.dram.rank, req.dram.bank, req.dram.col, now)
            }
        };
        let Ok(data_end) = result else { return false };
        self.activity = true;
        if drain {
            self.telemetry.sched_cas_write.inc();
        } else {
            self.telemetry.sched_cas_read.inc();
        }
        match req.service_class() {
            crate::request::ServiceClass::RowHit => self.stats.row_hits += 1,
            crate::request::ServiceClass::RowMiss => self.stats.row_misses += 1,
            crate::request::ServiceClass::RowConflict => self.stats.row_conflicts += 1,
        }
        let ch = &mut self.channels[ci];
        ch.rank_queued[req.dram.rank as usize] -= 1;
        if drain {
            ch.write_q.remove(idx);
            self.stats.writes_done += 1;
        } else {
            let r = ch.read_q.remove(idx);
            self.data_until = self.data_until.max(Some(data_end));
            self.complete(done, r.token, r.core_id, data_end, r.enqueued_at);
        }
        true
    }

    fn issue_act(&mut self, ci: usize, idx: usize, drain: bool, now: Cycle) -> bool {
        let dram = self.queue(ci, drain)[idx].dram;
        let (class, extra) = self.policy.activate_class(&dram);
        let ch = &mut self.channels[ci];
        match ch
            .chan
            .activate_mcr(dram.rank, dram.bank, dram.row, now, class, extra)
        {
            Ok(()) => {}
            Err(TimingError::RetentionViolation { .. }) => {
                // The retention detector rejected a fast-class restore on a
                // decayed row. Retry in the same cycle with the full-restore
                // baseline class (class 0 never runs a margin check), and
                // feed the violation to the guardband ladder. Stats and
                // guardband state change even when the retry fails, so the
                // cycle counts as active either way.
                self.activity = true;
                self.stats.retention_retries += 1;
                self.telemetry.retention_retries.inc();
                let retried = self.channels[ci]
                    .chan
                    .activate_mcr(
                        dram.rank,
                        dram.bank,
                        dram.row,
                        now,
                        RowTimingClass(0),
                        extra,
                    )
                    .is_ok();
                let transition = self.guardband.as_mut().and_then(|g| g.note_violation(now));
                if let Some(t) = transition {
                    self.push_guardband_event(now, t);
                }
                if !retried {
                    return false;
                }
            }
            Err(_) => return false,
        }
        // The ACT was issued (directly or via the full-restore retry):
        // let the policy update any per-row dynamic state.
        self.policy.on_activate(&dram);
        self.activity = true;
        self.telemetry.sched_activates.inc();
        let q = if drain {
            &mut self.channels[ci].write_q
        } else {
            &mut self.channels[ci].read_q
        };
        q[idx].did_activate = true;
        true
    }

    fn issue_pre(&mut self, ci: usize, idx: usize, drain: bool, now: Cycle) -> bool {
        let dram = self.queue(ci, drain)[idx].dram;
        let ch = &mut self.channels[ci];
        if ch.chan.precharge(dram.rank, dram.bank, now).is_err() {
            return false;
        }
        self.activity = true;
        self.telemetry.sched_precharges.inc();
        let q = if drain {
            &mut self.channels[ci].write_q
        } else {
            &mut self.channels[ci].read_q
        };
        q[idx].did_precharge = true;
        true
    }

    /// Tries to issue the oldest pending refresh for `rank`.
    fn try_refresh(&mut self, ci: usize, rank: u8, now: Cycle) -> bool {
        let Some(pending) = self.channels[ci].refresh.peek(rank) else {
            return false;
        };
        if pending.not_before > now {
            return false; // late-refresh fault: slot not released yet
        }
        let t_rfc = match pending.action {
            RefreshAction::Fast(t) => Some(t),
            RefreshAction::Normal => None,
            RefreshAction::Skip => unreachable!("skips never enter the backlog"),
        };
        let ch = &mut self.channels[ci];
        if ch.chan.refresh_slot(rank, pending.row, now, t_rfc).is_ok() {
            let consumed = ch.refresh.consume(rank).is_some();
            self.activity = true;
            if consumed {
                self.telemetry.sched_refreshes.inc();
            }
            consumed
        } else {
            false
        }
    }

    /// Urgent-refresh helper: precharges one open bank of `rank` if legal.
    fn try_idle_rank(&mut self, ci: usize, rank: u8, now: Cycle) -> bool {
        let ch = &mut self.channels[ci];
        for bank in ch.chan.rank(rank).open_bank_ids() {
            if ch.chan.next_precharge_cycle(rank, bank) <= now
                && ch.chan.precharge(rank, bank, now).is_ok()
            {
                self.activity = true;
                self.telemetry.sched_precharges.inc();
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PageInterleave;
    use crate::policy::BaselinePolicy;
    use circuit_model::{CircuitParams, LeakageModel};

    /// Policy that always activates with class 1 (a truncated
    /// Early-Precharge restore), for retention-path tests.
    struct FastClassPolicy;

    impl DevicePolicy for FastClassPolicy {
        fn activate_class(&self, _: &dram_device::DramAddress) -> (RowTimingClass, u32) {
            (RowTimingClass(1), 0)
        }
        fn timing_classes(&self) -> Vec<dram_device::RowTiming> {
            vec![dram_device::RowTiming {
                t_rcd: 11,
                t_ras: 20,
            }]
        }
    }

    /// Retention config whose class 1 restores 0.15 V short of full
    /// charge (survives ~32 ms of nominal leakage).
    fn retention_cfg(plan: FaultPlan) -> RetentionConfig {
        let params = CircuitParams::calibrated();
        RetentionConfig {
            plan,
            leakage: LeakageModel::new(params),
            class_restore_v: vec![params.v_full, params.v_full - 0.15],
            fast_refresh_restore_v: params.v_full,
            full_restore_v: params.v_full,
            t_ck_ns: 1.25,
        }
    }

    fn controller(refresh: bool) -> MemoryController {
        let g = Geometry::tiny();
        let mut cfg = ControllerConfig::msc_default();
        cfg.refresh_enabled = refresh;
        MemoryController::new(
            g,
            TimingSet::default(),
            cfg,
            Box::new(PageInterleave::new(g)),
            Box::new(BaselinePolicy),
        )
    }

    fn run(ctl: &mut MemoryController, from: Cycle, to: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in from..to {
            done.extend(ctl.tick(now));
        }
        done
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let mut ctl = controller(false);
        let token = ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        let done = run(&mut ctl, 0, 100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        // ACT at 0, RD at tRCD=11, data at 11+CL+BL = 26.
        assert_eq!(done[0].ready_at, 26);
        assert_eq!(ctl.stats().row_misses, 1);
    }

    /// Ticks from `from` until a tick hands out a completion; returns
    /// that tick's cycle and completions.
    fn tick_until_completion(ctl: &mut MemoryController, from: Cycle) -> (Cycle, Vec<Completion>) {
        (from..from + 1_000)
            .find_map(|now| Some((now, ctl.tick(now))).filter(|(_, done)| !done.is_empty()))
            .expect("a read completes")
    }

    #[test]
    fn a_read_completes_at_the_tick_that_issues_its_cas() {
        let mut ctl = controller(false);
        ctl.enable_command_trace(8);
        let token = ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        let (cas, done) = tick_until_completion(&mut ctl, 0);
        // ACT at 0, RD at tRCD=11: the RD's tick hands the read out with
        // its data arrival, 11+CL+BL = 26, and the latency from enqueue.
        assert_eq!(cas, 11);
        let read = ctl
            .channels()
            .next()
            .unwrap()
            .command_trace()
            .nth(1)
            .unwrap();
        assert_eq!(
            (read.kind, read.cycle),
            (dram_device::CommandKind::Read, cas)
        );
        let want = Completion {
            token,
            core_id: 0,
            ready_at: 26,
            latency: 26,
        };
        assert_eq!(done, vec![want]);
        let s = ctl.stats();
        assert_eq!((s.reads_done, s.read_latency_sum), (1, 26));
        // The data arrival is no edge: with nothing else pending the
        // controller sleeps until the next enqueue.
        assert_eq!(ctl.data_in_flight_until(), Some(26));
        assert_eq!(ctl.next_tick(cas), None);
        assert_eq!(ctl.next_event(cas), None);
        assert!(run(&mut ctl, cas + 1, 100).is_empty(), "handed out once");
    }

    #[test]
    fn idle_waits_for_the_last_data_arrival() {
        // Covered by skipped-cycle replays...
        let mut ctl = controller(false);
        ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        let (cas, _) = tick_until_completion(&mut ctl, 0);
        assert!(!ctl.idle(), "data in flight after the CAS tick");
        ctl.note_skipped_cycles(26 - cas - 1);
        assert!(!ctl.idle(), "replayed through cycle 25");
        ctl.note_skipped_cycles(1);
        assert!(ctl.idle(), "replayed through cycle 26");
        assert_eq!(ctl.data_in_flight_until(), None);
        // ...or by a tick.
        let mut ctl = controller(false);
        ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        tick_until_completion(&mut ctl, 0);
        ctl.tick(25);
        assert!(!ctl.idle(), "ticked through cycle 25");
        ctl.tick(26);
        assert!(ctl.idle(), "ticked through cycle 26");
    }

    #[test]
    fn a_forwarded_read_completes_at_the_next_tick() {
        let mut ctl = controller(false);
        assert!(ctl.enqueue_write(0, PhysAddr(0)));
        ctl.tick(0);
        let token = ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        assert!(!ctl.idle());
        assert_eq!(wake(&ctl, 0), Some((1, EdgeSource::Completion)));
        let want = Completion {
            token,
            core_id: 0,
            ready_at: 1,
            latency: 0,
        };
        assert_eq!(ctl.tick(1), vec![want]);
        assert!(ctl.tick(2).is_empty(), "handed out once");
        assert_eq!(ctl.stats().reads_done, 1);
    }

    #[test]
    fn every_edge_source_sits_at_its_index() {
        for (i, &source) in EdgeSource::ALL.iter().enumerate() {
            assert_eq!(source as usize, i, "{source:?}");
        }
    }

    #[test]
    fn second_read_same_row_is_a_hit() {
        let mut ctl = controller(false);
        ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        ctl.enqueue_read(0, PhysAddr(64)).unwrap();
        let done = run(&mut ctl, 0, 100);
        assert_eq!(done.len(), 2);
        let s = ctl.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
        // Hit's data trails the first by one burst (tCCD-limited).
        assert!(done[1].ready_at <= done[0].ready_at + 5);
    }

    #[test]
    fn conflicting_row_forces_precharge() {
        let mut ctl = controller(false);
        let g = Geometry::tiny();
        let m = PageInterleave::new(g);
        // Same bank (bank 0), different rows.
        let a = m.encode(&dram_device::DramAddress {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
            col: 0,
        });
        let b = m.encode(&dram_device::DramAddress {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 2,
            col: 0,
        });
        ctl.enqueue_read(0, a).unwrap();
        ctl.enqueue_read(0, b).unwrap();
        let done = run(&mut ctl, 0, 200);
        assert_eq!(done.len(), 2);
        let s = ctl.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_conflicts, 1);
        // Conflict pays tRAS + tRP before its ACT: first data 26, second
        // ACT no earlier than tRAS(28)+tRP(11)=39.
        assert!(done[1].ready_at >= 39 + 11 + 15);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut ctl = controller(false);
        for i in 0..32 {
            assert!(ctl.enqueue_read(0, PhysAddr(i * 4096)).is_some());
        }
        assert!(ctl.enqueue_read(0, PhysAddr(99 * 4096)).is_none());
    }

    #[test]
    fn write_merging_and_forwarding() {
        let mut ctl = controller(false);
        assert!(ctl.enqueue_write(0, PhysAddr(0)));
        assert!(ctl.enqueue_write(0, PhysAddr(0))); // merged
        assert_eq!(ctl.write_queue_len(0), 1);
        let t = ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        let done = run(&mut ctl, 0, 5);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, t);
        assert_eq!(ctl.stats().reads_done, 1);
        assert_eq!(ctl.stats().row_hits + ctl.stats().row_misses, 0); // forwarded
    }

    #[test]
    fn writes_drain_when_reads_idle() {
        let mut ctl = controller(false);
        assert!(ctl.enqueue_write(0, PhysAddr(0)));
        run(&mut ctl, 0, 100);
        assert_eq!(ctl.write_queue_len(0), 0);
        assert_eq!(ctl.stats().writes_done, 1);
    }

    #[test]
    fn high_watermark_triggers_drain_mode() {
        let mut ctl = controller(false);
        for i in 0..24 {
            assert!(ctl.enqueue_write(0, PhysAddr(i * 4096)));
        }
        // Reads waiting too: drain mode should still kick in.
        ctl.enqueue_read(0, PhysAddr(1 << 20)).unwrap();
        run(&mut ctl, 0, 2000);
        let s = ctl.stats();
        assert!(s.drain_cycles > 0);
        assert!(s.writes_done >= 16, "drained to low watermark");
        assert_eq!(s.reads_done, 1);
    }

    #[test]
    fn refresh_occurs_every_trefi() {
        let mut ctl = controller(true);
        run(&mut ctl, 0, 20_000);
        let s = ctl.stats();
        // tiny geometry has 1 rank: slots due at 6240, 12480, 18720.
        assert_eq!(s.refresh.normal, 3);
    }

    #[test]
    fn reads_still_complete_with_refresh_on() {
        let mut ctl = controller(true);
        let mut completed = 0;
        let mut enqueued = 0u64;
        for now in 0..50_000u64 {
            if now % 100 == 0
                && now < 45_000
                && ctl
                    .enqueue_read(0, PhysAddr((now * 64) % (1 << 18)))
                    .is_some()
            {
                enqueued += 1;
            }
            completed += ctl.tick(now).len();
        }
        assert_eq!(completed as u64, enqueued);
        assert!(ctl.idle());
    }

    #[test]
    fn fr_fcfs_command_sequence_prefers_hits() {
        use dram_device::CommandKind;
        let g = Geometry::tiny();
        let mut cfg = ControllerConfig::msc_default();
        cfg.refresh_enabled = false;
        let mut ctl = MemoryController::new(
            g,
            TimingSet::default(),
            cfg,
            Box::new(PageInterleave::new(g)),
            Box::new(BaselinePolicy),
        );
        ctl.enable_command_trace(32);
        let m = PageInterleave::new(g);
        let mk = |row, col| {
            m.encode(&dram_device::DramAddress {
                channel: 0,
                rank: 0,
                bank: 0,
                row,
                col,
            })
        };
        // Conflict (row 2) enqueued before a hit (row 1, already open
        // after the first request) — FR-FCFS serves the hit's CAS before
        // precharging for the conflict.
        ctl.enqueue_read(0, mk(1, 0)).unwrap();
        ctl.enqueue_read(0, mk(2, 0)).unwrap();
        ctl.enqueue_read(0, mk(1, 1)).unwrap();
        run(&mut ctl, 0, 300);
        let kinds: Vec<(CommandKind, u64)> = ctl
            .channels()
            .next()
            .unwrap()
            .command_trace()
            .map(|c| (c.kind, c.addr.row))
            .collect();
        // ACT(1), RD(1,0), RD(1,1) — the hit jumps the older conflict —
        // then PRE, ACT(2), RD(2).
        assert_eq!(kinds[0], (CommandKind::Activate, 1));
        assert_eq!(kinds[1].0, CommandKind::Read);
        assert_eq!(kinds[2].0, CommandKind::Read);
        assert_eq!(
            kinds[2].1, 1,
            "row-1 hit must be served before the conflict"
        );
        assert_eq!(kinds[3].0, CommandKind::Precharge);
        assert_eq!(kinds[4], (CommandKind::Activate, 2));
    }

    #[test]
    fn idle_rank_powers_down_and_wakes_for_requests() {
        let g = Geometry::tiny();
        let mut cfg = ControllerConfig::msc_default();
        cfg.refresh_enabled = false;
        cfg.powerdown_idle_threshold = Some(30);
        let mut ctl = MemoryController::new(
            g,
            TimingSet::default(),
            cfg,
            Box::new(PageInterleave::new(g)),
            Box::new(BaselinePolicy),
        );
        // Serve one read, then go idle long enough to power down.
        ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        run(&mut ctl, 0, 200);
        let powered_down = {
            let chan = ctl.channels().next().unwrap();
            chan.rank_powered_down(0)
        };
        assert!(powered_down, "rank should be asleep after long idle");
        // A new request wakes it and still completes (with tXP penalty).
        let t = ctl.enqueue_read(0, PhysAddr(4096)).unwrap();
        let done = run(&mut ctl, 200, 400);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, t);
        ctl.finish(400);
        let pd = ctl
            .channels()
            .next()
            .unwrap()
            .rank(0)
            .counters
            .powerdown_cycles;
        assert!(pd > 50, "power-down residency recorded ({pd})");
    }

    #[test]
    fn closed_page_auto_precharges_last_access() {
        let g = Geometry::tiny();
        let mut cfg = ControllerConfig::msc_default();
        cfg.refresh_enabled = false;
        cfg.row_policy = RowPolicy::Closed;
        let mut ctl = MemoryController::new(
            g,
            TimingSet::default(),
            cfg,
            Box::new(PageInterleave::new(g)),
            Box::new(BaselinePolicy),
        );
        let m = PageInterleave::new(g);
        let mk = |row, col| {
            m.encode(&dram_device::DramAddress {
                channel: 0,
                rank: 0,
                bank: 0,
                row,
                col,
            })
        };
        // Two reads to the same row: the first stays open (a pending
        // request wants the row), the second auto-precharges.
        ctl.enqueue_read(0, mk(1, 0)).unwrap();
        ctl.enqueue_read(0, mk(1, 1)).unwrap();
        let done = run(&mut ctl, 0, 200);
        assert_eq!(done.len(), 2);
        assert_eq!(ctl.stats().row_hits, 1, "second read still hits");
        // Bank closed itself without an explicit PRE from the scheduler: a
        // new read to another row needs only ACT (a miss, not a conflict).
        ctl.enqueue_read(0, mk(2, 0)).unwrap();
        let done = run(&mut ctl, 200, 400);
        assert_eq!(done.len(), 1);
        assert_eq!(ctl.stats().row_conflicts, 0);
        assert_eq!(ctl.stats().row_misses, 2);
    }

    #[test]
    fn retention_violation_retries_with_baseline_class() {
        const MS64: Cycle = 51_200_000;
        let g = Geometry::tiny();
        let mut cfg = ControllerConfig::msc_default();
        cfg.refresh_enabled = false;
        let mut ctl = MemoryController::new(
            g,
            TimingSet::default(),
            cfg,
            Box::new(PageInterleave::new(g)),
            Box::new(FastClassPolicy),
        );
        ctl.set_retention(retention_cfg(FaultPlan::new(3))).unwrap();
        ctl.set_guardband(crate::guardband::GuardbandConfig {
            window: 1_000,
            threshold: 1,
            ..Default::default()
        });
        // Within the fresh retention window the class-1 ACT is accepted.
        ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        let done = run(&mut ctl, 0, 100);
        assert_eq!(done.len(), 1);
        assert_eq!(ctl.stats().retention_retries, 0);
        // A different row of the same bank, a hair past the 64 ms window:
        // the conflict forces PRE + ACT, the fast-class ACT fails its
        // margin check, and the controller retries with class 0 in the
        // same cycle — the read still completes.
        let m = PageInterleave::new(g);
        let b = m.encode(&dram_device::DramAddress {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 2,
            col: 0,
        });
        ctl.enqueue_read(0, b).unwrap();
        let done = run(&mut ctl, MS64 + 1_000, MS64 + 1_200);
        assert_eq!(done.len(), 1, "read completes via the class-0 retry");
        let s = ctl.stats();
        assert_eq!(s.retention_retries, 1);
        assert_eq!(s.guardband_degrades, 1);
        let events = ctl.drain_guardband_transitions();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].1,
            GuardbandTransition::Degrade(crate::guardband::DegradeLevel::NoSkip)
        );
        assert!(ctl.drain_guardband_transitions().is_empty(), "drained");
    }

    #[test]
    fn dropped_refresh_faults_surface_in_stats() {
        let mut ctl = controller(true);
        ctl.set_retention(retention_cfg(FaultPlan::new(9).with_refresh_drops(1.0)))
            .unwrap();
        run(&mut ctl, 0, 20_000);
        let s = ctl.stats();
        // tiny geometry, 1 rank: slots due at 6240, 12480, 18720 — all
        // consumed by the injected drop fault, none issued.
        assert_eq!(s.refresh.dropped, 3);
        assert_eq!(s.refresh.normal, 0);
    }

    #[test]
    fn late_refresh_faults_delay_issue_until_release() {
        let mut ctl = controller(true);
        ctl.set_retention(retention_cfg(
            FaultPlan::new(9).with_late_refreshes(1.0, 5_000),
        ))
        .unwrap();
        run(&mut ctl, 0, 11_000);
        // The slot due at 6240 is held until its release cycle 11_240.
        let s = ctl.stats();
        assert_eq!(s.refresh.late, 1);
        assert_eq!(s.refresh.normal, 0);
        run(&mut ctl, 11_000, 12_000);
        assert_eq!(ctl.stats().refresh.normal, 1);
    }

    #[test]
    fn open_bank_refresh_edges_follow_urgency() {
        // Bank 0 opens just as slots come due, so its precharge is still
        // in the future. One slot (not urgent): only the next deadline
        // wakes. Seven slots (urgent): the wheel wakes to precharge it.
        for (at, urgent) in [(6_240, false), (43_680, true)] {
            let mut ctl = controller(true);
            let ch = &mut ctl.channels[0];
            ch.chan.activate(0, 0, 5, at, RowTimingClass(0)).unwrap();
            ch.refresh.tick(at, ctl.policy.as_mut(), None);
            assert_eq!(ctl.channels[0].refresh.urgent(0), urgent);
            let pre = ctl.channels[0].chan.next_precharge_cycle(0, 0);
            assert!(pre > at + 1);
            let want = if urgent {
                (pre, EdgeSource::RefreshQuiesce)
            } else {
                (at + 6_240, EdgeSource::RefreshDue)
            };
            let got = ctl.edges(at + 1, false).map(|e| (e.cycle, e.source));
            assert_eq!(got, Some(want), "urgent {urgent}");
        }
    }

    #[test]
    fn readiness_masks_and_queue_counts_match_a_rescan() {
        let g = Geometry::single_core_4gb();
        for row_policy in [RowPolicy::Open, RowPolicy::Closed] {
            let mut cfg = ControllerConfig::msc_default();
            cfg.row_policy = row_policy;
            cfg.powerdown_idle_threshold = Some(40);
            let mut ctl = MemoryController::new(
                g,
                TimingSet::default(),
                cfg,
                Box::new(PageInterleave::new(g)),
                Box::new(BaselinePolicy),
            );
            let mut rng = sim_rng::SmallRng::seed_from_u64(2015);
            for now in 0..60_000u64 {
                let r = rng.next_u64();
                // Every third 4k-cycle phase is idle, so ranks power down.
                if (now / 4_000) % 3 != 2 && r % 100 < 30 {
                    // 64 row pages: hits, conflicts and merges all occur.
                    let addr = PhysAddr((r >> 8) % 64 * (1 << 13) + (r >> 20) % 4 * 64);
                    if r >> 60 < 4 {
                        ctl.enqueue_write(0, addr);
                    } else {
                        ctl.enqueue_read(0, addr);
                    }
                }
                ctl.tick(now);
                let ch = &ctl.channels[0];
                for rank in 0..g.ranks {
                    let queued = ch
                        .read_q
                        .iter()
                        .chain(&ch.write_q)
                        .filter(|q| q.dram.rank == rank)
                        .count();
                    assert_eq!(ch.rank_queued[rank as usize] as usize, queued, "@{now}");
                    let open: Vec<u8> = (0..g.banks)
                        .filter(|&b| ch.chan.open_row(rank, b).is_some())
                        .collect();
                    let r = ch.chan.rank(rank);
                    assert_eq!(r.open_bank_ids().collect::<Vec<_>>(), open, "@{now}");
                    assert_eq!(r.open_banks(), open.len());
                    assert_eq!(r.all_idle(), open.is_empty());
                }
            }
            let s = ctl.stats();
            assert!(s.reads_done > 1_000 && s.writes_done > 1_000, "{s:?}");
            assert!(s.row_hits > 0 && s.row_conflicts > 0, "{s:?}");
        }
    }

    /// The wake after the tick of `now`, as (cycle, source).
    fn wake(ctl: &MemoryController, now: Cycle) -> Option<(Cycle, EdgeSource)> {
        ctl.next_tick_detail(now).map(|e| (e.cycle, e.source))
    }

    #[test]
    fn next_tick_wakes_for_a_command_that_lost_the_slot() {
        // Rank 0's first refresh slot comes due at 6,240 with every bank
        // closed, so its REFRESH is legal at once; a read to rank 1 takes
        // the channel's one command slot with its ACTIVATE. The REFRESH
        // edge is then already due: `next_event` drops it and would sleep
        // until the read's CAS, `next_tick` wakes the next cycle.
        let g = Geometry::single_core_4gb();
        let mut ctl = MemoryController::new(
            g,
            TimingSet::default(),
            ControllerConfig::msc_default(),
            Box::new(PageInterleave::new(g)),
            Box::new(BaselinePolicy),
        );
        run(&mut ctl, 0, 6_240);
        let read = PageInterleave::new(g).encode(&dram_device::DramAddress {
            channel: 0,
            rank: 1,
            bank: 0,
            row: 1,
            col: 0,
        });
        ctl.enqueue_read(0, read).unwrap();
        ctl.tick(6_240);
        assert_eq!(ctl.refresh_backlog(0, 0), 1);
        assert!(ctl.had_activity());
        assert_eq!(wake(&ctl, 6_240), Some((6_241, EdgeSource::RefreshRelease)));
        assert!(ctl.next_event(6_240).is_some_and(|c| c > 6_241));
        ctl.tick(6_241);
        assert_eq!(ctl.stats().refresh.normal, 1, "REFRESH issued at 6,241");
    }

    #[test]
    fn next_tick_wakes_for_a_pending_drain_flip() {
        let mut ctl = controller(false);
        ctl.tick(0);
        // The enqueue that reaches the high watermark flips drain mode on
        // at the next tick.
        for i in 0..24 {
            assert!(ctl.enqueue_write(0, PhysAddr(i * 4096)));
        }
        assert_eq!(wake(&ctl, 0), Some((1, EdgeSource::Bookkeeping)));
        ctl.tick(1);
        assert!(ctl.is_draining(0));
        // The write CAS that reaches the low watermark flips it off.
        let mut now = 1;
        while ctl.write_queue_len(0) > 8 {
            now += 1;
            ctl.tick(now);
        }
        assert!(ctl.is_draining(0));
        assert_eq!(wake(&ctl, now), Some((now + 1, EdgeSource::Bookkeeping)));
        ctl.tick(now + 1);
        assert!(!ctl.is_draining(0));
    }

    #[test]
    fn next_tick_wakes_when_a_rank_goes_idle() {
        let g = Geometry::tiny();
        let mut cfg = ControllerConfig::msc_default();
        cfg.refresh_enabled = false;
        cfg.powerdown_idle_threshold = Some(30);
        let mut ctl = MemoryController::new(
            g,
            TimingSet::default(),
            cfg,
            Box::new(PageInterleave::new(g)),
            Box::new(BaselinePolicy),
        );
        ctl.enqueue_read(0, PhysAddr(0)).unwrap();
        let mut now = 0;
        ctl.tick(now);
        while ctl.read_queue_len(0) > 0 {
            now += 1;
            ctl.tick(now);
        }
        // The rank's last queued request issued its CAS at `now`: the
        // next tick stamps the rank idle, whatever the device timing says.
        assert_eq!(ctl.channels[0].rank_idle_since[0], None);
        assert_eq!(wake(&ctl, now), Some((now + 1, EdgeSource::Bookkeeping)));
        ctl.tick(now + 1);
        assert_eq!(ctl.channels[0].rank_idle_since[0], Some(now + 1));
    }

    #[test]
    fn next_tick_wakes_for_a_second_rearm_step() {
        let mut ctl = controller(false);
        ctl.set_guardband(GuardbandConfig {
            window: 1_000,
            threshold: 1,
            hysteresis: 100,
            backoff_base: 10,
            backoff_cap: 2,
        });
        // Two violations step the ladder down twice; both re-arm steps
        // come due together, 100 + 10 * 2 cycles after the last one.
        let g = ctl.guardband.as_mut().unwrap();
        assert!(g.note_violation(5).is_some() && g.note_violation(5).is_some());
        run(&mut ctl, 0, 125);
        assert!(ctl.drain_guardband_transitions().is_empty());
        ctl.tick(125);
        assert_eq!(wake(&ctl, 125), Some((126, EdgeSource::GuardbandRearm)));
        assert_eq!(ctl.next_event(125), None);
        ctl.tick(126);
        let steps: Vec<Cycle> = ctl
            .drain_guardband_transitions()
            .iter()
            .map(|&(at, _)| at)
            .collect();
        assert_eq!(steps, vec![125, 126]);
    }

    #[test]
    fn fcfs_serves_in_order() {
        let g = Geometry::tiny();
        let mut cfg = ControllerConfig::msc_default();
        cfg.refresh_enabled = false;
        cfg.scheduler = SchedulerKind::Fcfs;
        let mut ctl = MemoryController::new(
            g,
            TimingSet::default(),
            cfg,
            Box::new(PageInterleave::new(g)),
            Box::new(BaselinePolicy),
        );
        let m = PageInterleave::new(g);
        let mk = |row, col| {
            m.encode(&dram_device::DramAddress {
                channel: 0,
                rank: 0,
                bank: 0,
                row,
                col,
            })
        };
        let t0 = ctl.enqueue_read(0, mk(1, 0)).unwrap();
        let t1 = ctl.enqueue_read(0, mk(2, 0)).unwrap();
        let t2 = ctl.enqueue_read(0, mk(1, 1)).unwrap(); // would be a hit under FR-FCFS
        let done = run(&mut ctl, 0, 500);
        let order: Vec<u64> = done.iter().map(|c| c.token).collect();
        assert_eq!(order, vec![t0, t1, t2]);
    }
}

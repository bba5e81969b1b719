//! Deterministic parallel experiment engine.
//!
//! Every figure in the paper is a *grid* of [`SystemConfig`] points —
//! workloads × modes × mechanisms × ratios × seeds — and every point is a
//! pure function of its config (see [`RunReport`]). This module exploits
//! that purity twice:
//!
//! * **Parallelism.** [`Sweep::run`] fans the grid across a scoped worker
//!   pool (`std::thread::scope`; worker count from
//!   [`std::thread::available_parallelism`], overridable with
//!   [`SweepBuilder::jobs`]). Each worker starts with a contiguous chunk
//!   of points in its own deque and, once drained, steals half the
//!   remaining queue of the richest victim — so heterogeneous-cost grids
//!   (a fault campaign next to zero-rate controls) keep every worker
//!   busy instead of straggling on one long tail. Results land in
//!   pre-allocated, order-preserving slots, so the output order always
//!   equals the input order and `jobs = 1` and `jobs = N` produce
//!   byte-identical [`RunReport`]s regardless of who stole what.
//! * **Memoization.** Results are cached content-addressed, keyed by
//!   [`SystemConfig::config_key`] — a stable (cross-process) hash of every
//!   field that influences the simulation. Re-running a sweep, or adding
//!   overlapping points (e.g. the shared baselines of Fig. 11), costs one
//!   cache lookup per duplicate instead of a simulation. Any
//!   [`ReportStore`] can back the memo: the in-process [`ResultCache`]
//!   here, or the sharded on-disk store in `mcr-store`, which survives
//!   the process.
//!
//! ```
//! use mcr_dram::{McrMode, SweepBuilder};
//!
//! let sweep = SweepBuilder::new(2_000)
//!     .workload("libq")
//!     .mode(McrMode::off())
//!     .mode(McrMode::headline())
//!     .build()
//!     .expect("valid grid");
//! let results = sweep.run();
//! assert_eq!(results.points.len(), 2);
//! assert!(results.points[1].report.reads_done > 0);
//! ```

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mcr_telemetry::{Counter, LatencyHistogram};

use crate::backend::{BackendKind, BackendSpec};
use crate::mechanisms::Mechanisms;
use crate::mode::McrMode;
use crate::system::{ConfigError, RunReport, System, SystemConfig};
use crate::telemetry::Telemetry;
use dram_device::Cycle;
use trace_gen::Mix;

/// Cooperative cancellation handle shared between a sweep (or single
/// [`System`] run) and whoever supervises it — e.g. the `mcr-serve`
/// worker pool enforcing per-request deadlines. Usually carried inside a
/// [`RunBudget`] rather than passed around on its own.
///
/// Cancellation is *cooperative*: the running simulation polls
/// [`CancelToken::is_cancelled`] between work chunks (at budget-poll
/// boundaries within a run — which the event wheel crosses in
/// microseconds when the simulated system idles — and between grid
/// points), abandons cleanly, and the driver reports `None` instead of a
/// result. A token can carry an optional deadline, after which it reads
/// as cancelled without anyone calling [`CancelToken::cancel`]. Clones
/// share the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never cancels until [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally reads as cancelled from `deadline` on.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// The deadline this token carries, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Requests cancellation (visible to every clone of this token).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] was called on any clone or the
    /// deadline (when set) has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Typed resource budget for a run or sweep: how far it may simulate and
/// how long it may take on the wall clock. Replaces the old positional
/// `CancelToken` argument of `run_cancellable` — every limit is named,
/// optional, and composable:
///
/// * [`RunBudget::max_cycles`] — hard cap on *simulated* memory cycles;
///   reaching it without finishing expires the run.
/// * [`RunBudget::deadline`] — wall-clock instant after which the budget
///   reads as expired (the `mcr-serve` per-request deadline maps here).
/// * [`RunBudget::cancel`] — cooperative [`CancelToken`] polled alongside
///   the deadline (supervisor-driven aborts, shutdown).
///
/// The default budget is unbounded: [`System::run_budgeted`] then only
/// enforces its internal wedge cap, exactly like [`System::run`].
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    /// Hard cap on simulated memory cycles (`None` = no cap; the wedge
    /// bound still applies).
    pub max_cycles: Option<Cycle>,
    /// Wall-clock deadline after which the budget reads as expired.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation handle checked alongside the deadline.
    pub cancel: Option<CancelToken>,
}

impl RunBudget {
    /// A budget with no limits — the run goes to completion.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Caps the simulated length at `max_cycles` memory cycles.
    pub fn with_max_cycles(mut self, max_cycles: Cycle) -> Self {
        self.max_cycles = Some(max_cycles);
        self
    }

    /// Expires the budget at wall-clock `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// True once the wall-clock deadline passed or the attached token
    /// fired. The simulated-cycle cap is enforced by the run loop itself
    /// ([`System::run_budgeted`]), not here — it is a property of the
    /// simulation position, not of wall time.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// One labelled grid point: a config plus the human-readable name it is
/// reported under.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Display label (workload/mix name plus the axis values).
    pub label: String,
    /// The full system configuration to run.
    pub config: SystemConfig,
}

/// A content-addressed memo tier for completed runs, keyed by
/// [`SystemConfig::config_key`]. Implemented by the in-process
/// [`ResultCache`] and by the sharded, disk-backed store in the
/// `mcr-store` crate — the sweep engine is agnostic about which tier
/// backs it.
///
/// Contract: a report is a pure function of its config, so `publish`
/// may race freely (last-writer-wins stores identical bytes), and
/// `lookup` may miss spuriously (the caller recomputes). A persistent
/// implementation must make `publish` durable *before returning*, so
/// every point completed before a budget expiry survives the process —
/// the sweep engine publishes each point the moment its simulation
/// finishes, never batched at the end.
pub trait ReportStore: Send + Sync {
    /// Returns the memoized report for `key`, if present and intact.
    fn lookup(&self, key: u64) -> Option<RunReport>;

    /// Publishes a completed report under `key`.
    fn publish(&self, key: u64, report: &RunReport);
}

/// Shared, content-addressed memo of completed runs, keyed by
/// [`SystemConfig::config_key`]. A [`Sweep`] owns one internally; pass
/// your own to [`Sweep::run_with_store`] to share results across sweeps
/// in one process (identical configs are simulated once). This is the
/// process-local [`ReportStore`]; `mcr-store` provides the one that
/// survives restarts.
#[derive(Debug, Default)]
pub struct ResultCache {
    map: Mutex<HashMap<u64, RunReport>>,
}

impl ResultCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct configurations cached.
    pub fn len(&self) -> usize {
        // A poisoned lock only means a worker panicked mid-simulation; the
        // map itself is always in a consistent state (whole-value inserts).
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ReportStore for ResultCache {
    fn lookup(&self, key: u64) -> Option<RunReport> {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned()
    }

    fn publish(&self, key: u64, report: &RunReport) {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, report.clone());
    }
}

/// Builder for a [`Sweep`]: declare grid axes, call
/// [`SweepBuilder::build`] to expand the cross product and validate every
/// point up front (so [`Sweep::run`] is infallible).
///
/// The grid is the cross product *target × backend × mode × mechanisms ×
/// alloc ratio × seed*, where a target is a single-core workload or a
/// quad-core mix. Axes left empty fall back to a single default (MCR,
/// mode off, [`Mechanisms::all`], ratio `0.0`, the preset seed). Mode,
/// mechanisms and alloc ratio are MCR-only, so a non-MCR backend crosses
/// only the target and seed axes. Point order is deterministic: targets
/// outermost (in insertion order), then backends, modes, mechanisms,
/// ratios, seeds — so "baseline first, then each mode" falls out
/// naturally when [`McrMode::off`] is the first mode axis entry.
pub struct SweepBuilder {
    trace_len: usize,
    workloads: Vec<String>,
    mixes: Vec<Mix>,
    backends: Vec<BackendKind>,
    modes: Vec<McrMode>,
    mechanisms: Vec<Mechanisms>,
    alloc_ratios: Vec<f64>,
    seeds: Vec<u64>,
    jobs: Option<usize>,
    configure: Option<Box<dyn Fn(SystemConfig) -> SystemConfig>>,
    extra: Vec<SweepPoint>,
}

impl std::fmt::Debug for SweepBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepBuilder")
            .field("trace_len", &self.trace_len)
            .field("workloads", &self.workloads)
            .field("mixes", &self.mixes.len())
            .field("backends", &self.backends)
            .field("modes", &self.modes)
            .field("mechanisms", &self.mechanisms)
            .field("alloc_ratios", &self.alloc_ratios)
            .field("seeds", &self.seeds)
            .field("jobs", &self.jobs)
            .field("extra", &self.extra.len())
            .finish()
    }
}

impl SweepBuilder {
    /// Starts an empty grid whose points simulate `trace_len` memory
    /// operations per core.
    pub fn new(trace_len: usize) -> Self {
        SweepBuilder {
            trace_len,
            workloads: Vec::new(),
            mixes: Vec::new(),
            backends: Vec::new(),
            modes: Vec::new(),
            mechanisms: Vec::new(),
            alloc_ratios: Vec::new(),
            seeds: Vec::new(),
            jobs: None,
            configure: None,
            extra: Vec::new(),
        }
    }

    /// Adds a single-core MSC workload (by name) to the target axis.
    pub fn workload(mut self, name: &str) -> Self {
        self.workloads.push(name.to_string());
        self
    }

    /// Adds several single-core workloads to the target axis.
    pub fn workloads<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.workloads.extend(names.into_iter().map(String::from));
        self
    }

    /// Adds a quad-core mix to the target axis.
    pub fn mix(mut self, mix: &Mix) -> Self {
        self.mixes.push(*mix);
        self
    }

    /// Adds one DRAM-architecture backend to the backend axis (the
    /// cross-architecture `compare` campaign). An empty axis means MCR
    /// only.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backends.push(kind);
        self
    }

    /// Adds several backends to the backend axis.
    pub fn backends(mut self, kinds: impl IntoIterator<Item = BackendKind>) -> Self {
        self.backends.extend(kinds);
        self
    }

    /// Adds one `[M/Kx/L%reg]` mode to the mode axis.
    pub fn mode(mut self, mode: McrMode) -> Self {
        self.modes.push(mode);
        self
    }

    /// Adds one mechanism set to the mechanism axis (the Fig. 17
    /// ablation).
    pub fn mechanisms(mut self, mechanisms: Mechanisms) -> Self {
        self.mechanisms.push(mechanisms);
        self
    }

    /// Adds one profile-based allocation ratio to the ratio axis.
    pub fn alloc_ratio(mut self, ratio: f64) -> Self {
        self.alloc_ratios.push(ratio);
        self
    }

    /// Adds one RNG seed to the seed axis (error-bar sweeps).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Adds several RNG seeds to the seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Overrides the worker count (default:
    /// [`std::thread::available_parallelism`]). Clamped to at least 1.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Post-processes every grid config (applied after the axis values,
    /// before validation) — the hook for knobs without a dedicated axis,
    /// e.g. scheduler, wiring, or the row cache.
    pub fn configure(mut self, f: impl Fn(SystemConfig) -> SystemConfig + 'static) -> Self {
        self.configure = Some(Box::new(f));
        self
    }

    /// Appends one fully explicit point after the grid (escape hatch for
    /// irregular sweeps such as Fig. 17's per-case modes). A non-empty
    /// seed axis crosses explicit points too: one copy per seed.
    pub fn point(mut self, label: impl Into<String>, config: SystemConfig) -> Self {
        self.extra.push(SweepPoint {
            label: label.into(),
            config,
        });
        self
    }

    /// Appends a seeded fault-rate campaign: one explicit point per rate,
    /// each arming `base` with a [`mcr_faults::FaultPlan`] that injects
    /// weak cells, dropped refreshes and late refreshes at that rate.
    /// The plan seed (not the config seed) drives every fault decision,
    /// so a failing rate replays exactly from its label. Rate `0.0`
    /// produces a point that is behaviourally identical to the unfaulted
    /// `base` — the campaign's built-in control. Unlike the service's
    /// `fault_rate` plan (`mcr_serve::protocol::fault_plan`), this plan
    /// injects no sense glitches.
    pub fn fault_campaign(mut self, base: &SystemConfig, rates: &[f64], fault_seed: u64) -> Self {
        for &rate in rates {
            let plan = mcr_faults::FaultPlan::new(fault_seed)
                .with_weak_cells(rate, 0.5)
                .with_refresh_drops(rate)
                .with_late_refreshes(rate, 1_000);
            self = self.point(
                format!("fault-rate-{rate}-seed-{fault_seed}"),
                base.clone().with_fault_plan(plan),
            );
        }
        self
    }

    /// Expands the grid, validates every point
    /// ([`SystemConfig::validate`]), and returns the ready-to-run sweep.
    ///
    /// # Errors
    ///
    /// [`ConfigError::EmptyWorkloads`] when the grid has no targets and no
    /// explicit points, [`ConfigError::UnknownWorkload`] for a workload
    /// name that does not resolve, [`ConfigError::DuplicateBackend`] for
    /// a backend listed twice, or the first validation error of any point.
    pub fn build(self) -> Result<Sweep, ConfigError> {
        for (i, &kind) in self.backends.iter().enumerate() {
            if self.backends[..i].contains(&kind) {
                return Err(ConfigError::DuplicateBackend(kind));
            }
        }
        let backends = or_default(self.backends, BackendKind::Mcr);
        let modes = or_default(self.modes, McrMode::off());
        let mechanisms = or_default(self.mechanisms, Mechanisms::all());
        let ratios = or_default(self.alloc_ratios, 0.0);

        let mut bases = Vec::new();
        for name in &self.workloads {
            bases.push((
                name.clone(),
                SystemConfig::try_single_core(name, self.trace_len)?,
            ));
        }
        for mix in &self.mixes {
            bases.push((
                mix.name.to_string(),
                SystemConfig::multi_core_mix(mix, self.trace_len),
            ));
        }
        let mut points = Vec::new();
        for (name, base) in &bases {
            let seeds: &[u64] = if self.seeds.is_empty() {
                &[base.seed]
            } else {
                &self.seeds
            };
            for &kind in &backends {
                // Mode, mechanisms and alloc ratio are MCR-only.
                let mut variants = Vec::new();
                if kind == BackendKind::Mcr {
                    for &mode in &modes {
                        for &mech in &mechanisms {
                            for &ratio in &ratios {
                                variants.push(
                                    base.clone()
                                        .with_mode(mode)
                                        .with_mechanisms(mech)
                                        .with_alloc_ratio(ratio),
                                );
                            }
                        }
                    }
                } else {
                    variants.push(base.clone().with_backend(BackendSpec::new(kind)));
                }
                for variant in variants {
                    for &seed in seeds {
                        let mut cfg = variant.clone().with_seed(seed);
                        if let Some(f) = &self.configure {
                            cfg = f(cfg);
                        }
                        points.push(SweepPoint {
                            label: point_label(name, &cfg),
                            config: cfg,
                        });
                    }
                }
            }
        }
        for extra in self.extra {
            if self.seeds.is_empty() {
                points.push(extra);
                continue;
            }
            for &seed in &self.seeds {
                points.push(SweepPoint {
                    label: extra.label.clone(),
                    config: extra.config.clone().with_seed(seed),
                });
            }
        }
        if points.is_empty() {
            return Err(ConfigError::EmptyWorkloads);
        }
        for p in &points {
            p.config.validate()?;
        }
        Ok(Sweep {
            points,
            jobs: self.jobs,
            cache: ResultCache::new(),
        })
    }
}

fn or_default<T>(axis: Vec<T>, default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        axis
    }
}

fn point_label(name: &str, cfg: &SystemConfig) -> String {
    if cfg.backend.kind != BackendKind::Mcr {
        return format!("{name} {}", cfg.backend.kind);
    }
    let mut label = format!("{name} {}", cfg.mode);
    if cfg.alloc_ratio > 0.0 {
        label.push_str(&format!(" alloc={:.2}", cfg.alloc_ratio));
    }
    if cfg.mechanisms != Mechanisms::all() {
        label.push_str(&format!(" {:?}", cfg.mechanisms));
    }
    label
}

/// A validated, ready-to-run grid of experiment points.
///
/// Running is infallible (validation happened in
/// [`SweepBuilder::build`]) and idempotent: the sweep memoizes each
/// distinct config, so a second [`Sweep::run`] call reports 100 % cache
/// hits and byte-identical results.
#[derive(Debug)]
pub struct Sweep {
    /// The grid, in deterministic input order.
    points: Vec<SweepPoint>,
    jobs: Option<usize>,
    cache: ResultCache,
}

impl Sweep {
    /// The grid points in the order results will be reported.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Resolved worker count: the explicit [`SweepBuilder::jobs`]
    /// override, else [`std::thread::available_parallelism`] (1 when
    /// undetectable), never more than the number of points.
    pub fn jobs(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .clamp(1, self.points.len().max(1))
    }

    /// Runs every point using the sweep's own memo cache.
    pub fn run(&self) -> SweepResults {
        self.run_with_store(&self.cache)
    }

    /// Runs every point against any [`ReportStore`] tier — e.g. the
    /// sharded disk-backed store from `mcr-store`, which persists
    /// results across processes and restarts.
    pub fn run_with_store(&self, store: &dyn ReportStore) -> SweepResults {
        match self.run_budgeted(store, &RunBudget::unbounded()) {
            Some(results) => results,
            None => unreachable!("an unbounded RunBudget never expires"),
        }
    }

    /// Like [`Sweep::run_with_store`], but bounded by a [`RunBudget`]:
    /// workers re-check the budget between points and (via
    /// [`System::run_budgeted`]) at poll boundaries within a point, so a
    /// deadline or cancellation bounds how long the sweep can overshoot,
    /// and a `max_cycles` cap bounds how far any point may simulate.
    /// Returns `None` when the budget ran out — partial results are
    /// discarded as a set, but every point that *completed* was already
    /// published to `store` the moment its simulation finished (never
    /// batched, regardless of which worker's deque it sat in), so a
    /// retried request only re-simulates the interrupted tail.
    ///
    /// Work distribution is chunked work stealing: each worker starts
    /// with a contiguous chunk of the grid in a private deque, pops
    /// points off its front, and when drained steals the back half of
    /// the richest victim's deque. Execution order therefore varies run
    /// to run, but results are written to index-addressed slots and
    /// every report is a pure function of its config, so the returned
    /// [`SweepResults`] is bit-identical for any jobs count and any
    /// steal schedule ([`SweepResults::exec`] carries the volatile
    /// scheduling counters, outside the serialized results).
    pub fn run_budgeted(
        &self,
        store: &dyn ReportStore,
        budget: &RunBudget,
    ) -> Option<SweepResults> {
        self.run_budgeted_traced(store, budget, &|_| {})
    }

    /// Like [`Sweep::run_budgeted`], but calls `on_start` with each
    /// point's config key just before that point is looked up or
    /// simulated. Supervisors (e.g. the `mcr-serve` worker pool) use
    /// the hook to record which point a worker was running, so a
    /// contained panic can name the offending config key in its error
    /// response. The hook runs inside the worker closure and must not
    /// panic (source lint `panicking-sweep-worker`).
    pub fn run_budgeted_traced(
        &self,
        store: &dyn ReportStore,
        budget: &RunBudget,
        on_start: &(dyn Fn(u64) + Sync),
    ) -> Option<SweepResults> {
        let jobs = self.jobs();
        let t0 = Instant::now();
        let slots: Vec<Mutex<Option<Result<PointResult, ConfigError>>>> =
            self.points.iter().map(|_| Mutex::new(None)).collect();
        let deques = chunked_deques(self.points.len(), jobs);
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);
        let steals = AtomicU64::new(0);
        let stolen_points = AtomicU64::new(0);
        let point_wall_us = Mutex::new(LatencyHistogram::new());

        // The worker closure must stay free of panicking paths (source
        // lint `panicking-sweep-worker`): a panicking worker would poison
        // the slot mutexes and take the whole sweep down with it. Build
        // failures travel out through the slot as a `Result` instead and
        // are re-raised on the driving thread below.
        let work = |worker: usize| loop {
            if budget.expired() {
                break;
            }
            let i = match pop_local(&deques[worker]) {
                Some(i) => i,
                None => match steal_half(&deques, worker) {
                    Some((i, batch)) => {
                        steals.fetch_add(1, Ordering::Relaxed);
                        stolen_points.fetch_add(batch, Ordering::Relaxed);
                        i
                    }
                    None => break, // every deque is dry — the grid is done
                },
            };
            let point = &self.points[i];
            let key = point.config.config_key();
            on_start(key);
            let t = Instant::now();
            let (report, cache_hit) = match store.lookup(key) {
                Some(report) => (Ok(Some(report)), true),
                None => {
                    // Validated in `build`, so `try_build` cannot fail;
                    // `run_budgeted` yields `None` when the budget runs
                    // out mid-simulation (the point is abandoned, not
                    // published).
                    let report =
                        System::try_build(&point.config).map(|sys| sys.run_budgeted(budget));
                    if let Ok(Some(r)) = &report {
                        // Publish immediately — even if the budget expires
                        // on the very next poll, this point survives into
                        // the store (durably, for persistent tiers).
                        store.publish(key, r);
                    }
                    (report, false)
                }
            };
            if cache_hit {
                hits.fetch_add(1, Ordering::Relaxed);
            } else {
                misses.fetch_add(1, Ordering::Relaxed);
            }
            let wall = t.elapsed();
            point_wall_us
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));
            let result = match report {
                Ok(Some(report)) => Some(Ok(PointResult {
                    label: point.label.clone(),
                    key,
                    report,
                    wall,
                    cache_hit,
                })),
                Ok(None) => None, // budget ran out mid-point; slot stays empty
                Err(e) => Some(Err(e)),
            };
            if let Some(result) = result {
                let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
                *slot = Some(result);
            }
        };

        if jobs == 1 {
            // Run inline: exercising the same code path as workers keeps
            // serial and parallel sweeps trivially comparable.
            work(0);
        } else {
            std::thread::scope(|scope| {
                for worker in 0..jobs {
                    scope.spawn(move || work(worker));
                }
            });
        }

        let exec = SweepExecStats {
            hits: counter_of(hits.into_inner()),
            misses: counter_of(misses.into_inner()),
            steals: counter_of(steals.into_inner()),
            stolen_points: counter_of(stolen_points.into_inner()),
            point_wall_us: point_wall_us
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        };
        let mut points = Vec::with_capacity(slots.len());
        for slot in slots {
            let inner = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            match inner {
                Some(Ok(p)) => points.push(p),
                Some(Err(e)) => panic!("sweep point failed despite pre-validation: {e}"),
                // An empty slot means the budget ran out (expired mid-run,
                // or a point exhausted `max_cycles`) before this point
                // produced a report.
                None => return None,
            }
        }
        Some(SweepResults {
            points,
            wall: t0.elapsed(),
            jobs,
            exec,
        })
    }
}

/// One private work deque per worker, seeded with contiguous chunks of
/// the grid (`0..n` split as evenly as possible, earlier workers taking
/// the remainder). Contiguous seeding keeps the common "baseline first"
/// grid order roughly front-to-back under `jobs = 1` and gives thieves
/// large coherent batches to take.
fn chunked_deques(n: usize, jobs: usize) -> Vec<Mutex<VecDeque<usize>>> {
    let jobs = jobs.max(1);
    let base = n / jobs;
    let extra = n % jobs;
    let mut next = 0usize;
    (0..jobs)
        .map(|w| {
            let take = base + usize::from(w < extra);
            let chunk: VecDeque<usize> = (next..next + take).collect();
            next += take;
            Mutex::new(chunk)
        })
        .collect()
}

/// Pops the next point index off the front of a worker's own deque.
fn pop_local(deque: &Mutex<VecDeque<usize>>) -> Option<usize> {
    deque
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_front()
}

/// Steals half (rounded up) of the richest victim's deque, taken from
/// its back, into the thief's (empty) deque. Returns the first stolen
/// index — run it now — and how many points moved in total, or `None`
/// once every victim is dry. Length snapshots race with the owners, so
/// the pick is re-validated under the victim's lock and the scan
/// retried until a steal lands or the grid is exhausted.
fn steal_half(deques: &[Mutex<VecDeque<usize>>], thief: usize) -> Option<(usize, u64)> {
    loop {
        let mut victim: Option<(usize, usize)> = None;
        for (v, d) in deques.iter().enumerate() {
            if v == thief {
                continue;
            }
            let len = d.lock().unwrap_or_else(PoisonError::into_inner).len();
            if len > 0 && victim.is_none_or(|(_, best)| len > best) {
                victim = Some((v, len));
            }
        }
        let (v, _) = victim?;
        let mut batch = {
            let mut q = deques[v].lock().unwrap_or_else(PoisonError::into_inner);
            let len = q.len();
            if len == 0 {
                continue; // emptied between snapshot and lock; rescan
            }
            q.split_off(len - len.div_ceil(2))
        };
        let total = batch.len() as u64;
        let first = batch.pop_front()?; // non-empty: len > 0 above
        if !batch.is_empty() {
            // The thief only steals once its own deque is drained, so
            // installing the batch wholesale cannot clobber anything.
            *deques[thief].lock().unwrap_or_else(PoisonError::into_inner) = batch;
        }
        return Some((first, total));
    }
}

fn counter_of(n: u64) -> Counter {
    let mut c = Counter::new();
    c.add(n);
    c
}

/// Outcome of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The point's display label.
    pub label: String,
    /// Stable config key ([`SystemConfig::config_key`]) the result is
    /// cached under.
    pub key: u64,
    /// The simulation report (identical for every run of this config).
    pub report: RunReport,
    /// Wall-clock time spent obtaining the report (near zero on a cache
    /// hit).
    pub wall: Duration,
    /// True when the report came from the cache instead of a simulation.
    pub cache_hit: bool,
}

/// Work-distribution accounting for one sweep run, carried on
/// [`SweepResults::exec`]. Everything here is *volatile* — wall clock
/// and the steal schedule vary run to run — which is why it lives
/// outside the exported results and the bit-identity contract: the
/// serialized results stay byte-equal across jobs counts while the
/// scheduling story remains observable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepExecStats {
    /// Points served from the memo store.
    pub hits: Counter,
    /// Points that required a simulation.
    pub misses: Counter,
    /// Successful steal operations (one per batch moved).
    pub steals: Counter,
    /// Points that migrated to a thief's deque (batch sizes summed).
    pub stolen_points: Counter,
    /// Per-point wall clock, in microseconds (hits and misses alike) —
    /// the cost spread that motivates stealing in the first place.
    pub point_wall_us: LatencyHistogram,
}

/// All results of one [`Sweep::run`], in the sweep's input order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// Per-point results, index-aligned with [`Sweep::points`].
    pub points: Vec<PointResult>,
    /// Total wall-clock time of the run.
    pub wall: Duration,
    /// Worker count actually used.
    pub jobs: usize,
    /// Scheduling/memo accounting for this run (volatile; excluded from
    /// the exported results).
    pub exec: SweepExecStats,
}

impl SweepResults {
    /// Number of points served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.points.iter().filter(|p| p.cache_hit).count()
    }

    /// Number of points that required a simulation.
    pub fn cache_misses(&self) -> usize {
        self.points.len() - self.cache_hits()
    }

    /// The reports alone, in input order.
    pub fn reports(&self) -> Vec<&RunReport> {
        self.points.iter().map(|p| &p.report).collect()
    }

    /// Every point's telemetry folded into one aggregate.
    ///
    /// The fold always walks the sweep's declared input order — worker
    /// scheduling cannot reorder it — so the merged telemetry is
    /// bit-identical for any `jobs` count, like the per-point reports.
    pub fn merged_telemetry(&self) -> Telemetry {
        let mut merged = Telemetry::default();
        for p in &self.points {
            merged.merge(&p.report.telemetry);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = 1_500;

    #[test]
    fn grid_expansion_order_is_deterministic() {
        let sweep = SweepBuilder::new(LEN)
            .workloads(["libq", "comm1"])
            .mode(McrMode::off())
            .mode(McrMode::headline())
            .build()
            .unwrap();
        let labels: Vec<&str> = sweep.points().iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels.len(), 4);
        assert!(labels[0].starts_with("libq") && labels[1].starts_with("libq"));
        assert!(labels[2].starts_with("comm1") && labels[3].starts_with("comm1"));
        assert!(sweep.points()[0].config.mode.is_off());
    }

    #[test]
    fn traced_run_reports_every_started_key() {
        use std::sync::Mutex as StdMutex;
        let sweep = SweepBuilder::new(LEN)
            .workload("libq")
            .mode(McrMode::off())
            .mode(McrMode::headline())
            .jobs(1)
            .build()
            .unwrap();
        let started: StdMutex<Vec<u64>> = StdMutex::new(Vec::new());
        let results = sweep
            .run_budgeted_traced(&ResultCache::new(), &RunBudget::unbounded(), &|key| {
                started.lock().unwrap().push(key);
            })
            .expect("unbounded budget completes");
        let mut started = started.into_inner().unwrap();
        started.sort_unstable();
        let mut keys: Vec<u64> = results.points.iter().map(|p| p.key).collect();
        keys.sort_unstable();
        assert_eq!(started, keys);
    }

    #[test]
    fn empty_grid_is_an_error() {
        assert!(matches!(
            SweepBuilder::new(LEN).mode(McrMode::headline()).build(),
            Err(ConfigError::EmptyWorkloads)
        ));
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let err = SweepBuilder::new(10).workload("bogus").build().unwrap_err();
        assert_eq!(err, ConfigError::UnknownWorkload("bogus".into()));
        assert!(err.to_string().contains("unknown workload \"bogus\""));
    }

    #[test]
    fn non_mcr_backends_cross_only_targets_and_seeds() {
        let sweep = SweepBuilder::new(LEN)
            .workloads(["libq", "comm1"])
            .backends([BackendKind::Baseline, BackendKind::Mcr, BackendKind::TlDram])
            .mode(McrMode::off())
            .mode(McrMode::headline())
            .build()
            .unwrap();
        let got: Vec<(&str, BackendKind, McrMode)> = sweep
            .points()
            .iter()
            .map(|p| (p.label.as_str(), p.config.backend.kind, p.config.mode))
            .collect();
        let (off, head) = (McrMode::off(), McrMode::headline());
        assert_eq!(
            got,
            [
                ("libq baseline", BackendKind::Baseline, off),
                ("libq [off]", BackendKind::Mcr, off),
                ("libq [4/4x/100%reg]", BackendKind::Mcr, head),
                ("libq tldram", BackendKind::TlDram, off),
                ("comm1 baseline", BackendKind::Baseline, off),
                ("comm1 [off]", BackendKind::Mcr, off),
                ("comm1 [4/4x/100%reg]", BackendKind::Mcr, head),
                ("comm1 tldram", BackendKind::TlDram, off),
            ]
        );
    }

    #[test]
    fn explicit_mcr_axis_expands_like_no_axis() {
        let grid = || {
            SweepBuilder::new(LEN)
                .workloads(["libq", "comm1"])
                .mode(McrMode::off())
                .mode(McrMode::headline())
                .mechanisms(Mechanisms::all())
                .mechanisms(Mechanisms::access_only())
                .alloc_ratio(0.0)
                .alloc_ratio(0.25)
                .seeds([1, 2])
        };
        let implicit = grid().build().unwrap();
        let explicit = grid().backend(BackendKind::Mcr).build().unwrap();
        assert_eq!(implicit.points().len(), 32);
        // Equal configs, so equal labels and `config_key`s too.
        assert_eq!(implicit.points(), explicit.points());
    }

    #[test]
    fn explicit_points_cross_the_seed_axis() {
        let cfg = SystemConfig::single_core("libq", LEN).with_mode(McrMode::headline());
        let sweep = SweepBuilder::new(LEN)
            .point("a", cfg.clone())
            .point("b", cfg.clone())
            .seeds([7, 8])
            .build()
            .unwrap();
        let points = sweep.points();
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["a", "a", "b", "b"]);
        assert_eq!(points[0].config, cfg.clone().with_seed(7));
        assert_eq!(points[3].config, cfg.with_seed(8));
    }

    #[test]
    fn duplicate_backend_is_a_typed_error() {
        let err = SweepBuilder::new(LEN)
            .workload("libq")
            .backends([BackendKind::Mcr, BackendKind::TlDram, BackendKind::Mcr])
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::DuplicateBackend(BackendKind::Mcr));
        assert_eq!(err.to_string(), "duplicate backend mcr");
    }

    #[test]
    fn invalid_point_is_rejected_at_build() {
        let err = SweepBuilder::new(LEN)
            .workload("libq")
            .alloc_ratio(1.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::AllocRatioRange(_)));
    }

    #[test]
    fn duplicate_points_hit_the_cache_within_one_run() {
        // Same config twice (two identical explicit points): the second
        // resolves from the cache unless both raced — either way the
        // reports must be identical.
        let cfg = SystemConfig::single_core("libq", LEN);
        let sweep = SweepBuilder::new(LEN)
            .point("a", cfg.clone())
            .point("b", cfg)
            .jobs(1)
            .build()
            .unwrap();
        let r = sweep.run();
        assert_eq!(r.cache_hits(), 1, "serial duplicate must hit");
        assert_eq!(r.points[0].report, r.points[1].report);
    }

    #[test]
    fn shared_cache_spans_sweeps() {
        let cache = ResultCache::new();
        let build = || {
            SweepBuilder::new(LEN)
                .workload("libq")
                .mode(McrMode::headline())
                .build()
                .unwrap()
        };
        let first = build().run_with_store(&cache);
        assert_eq!(first.cache_misses(), 1);
        let second = build().run_with_store(&cache);
        assert_eq!(second.cache_hits(), 1, "fresh sweep, warm shared cache");
        assert_eq!(first.points[0].report, second.points[0].report);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn expired_budget_aborts_and_generous_budget_completes() {
        let sweep = SweepBuilder::new(LEN).workload("libq").build().unwrap();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(
            sweep
                .run_budgeted(
                    &ResultCache::new(),
                    &RunBudget::unbounded().with_cancel(cancelled)
                )
                .is_none(),
            "pre-cancelled token must abort the sweep"
        );
        let expired = RunBudget::unbounded().with_deadline(Instant::now());
        assert!(expired.expired(), "past deadline reads as expired");
        assert!(sweep.run_budgeted(&ResultCache::new(), &expired).is_none());
        let generous =
            RunBudget::unbounded().with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!generous.expired());
        let r = sweep.run_budgeted(&ResultCache::new(), &generous);
        assert!(r.is_some(), "a far-future deadline must not expire");
    }

    #[test]
    fn exhausted_cycle_cap_aborts_the_sweep() {
        let sweep = SweepBuilder::new(LEN).workload("libq").build().unwrap();
        // Two cycles is never enough to retire a 1 500-op trace.
        let starved = RunBudget::unbounded().with_max_cycles(2);
        assert!(sweep.run_budgeted(&ResultCache::new(), &starved).is_none());
        let roomy = RunBudget::unbounded().with_max_cycles(500_000_000);
        assert!(sweep.run_budgeted(&ResultCache::new(), &roomy).is_some());
    }

    #[test]
    fn budgeted_and_plain_runs_agree() {
        let sweep = SweepBuilder::new(LEN).workload("libq").build().unwrap();
        let plain = sweep.run();
        let Some(budgeted) = sweep.run_budgeted(&ResultCache::new(), &RunBudget::unbounded())
        else {
            panic!("unbounded budget expired")
        };
        assert_eq!(plain.points[0].report, budgeted.points[0].report);
    }
}

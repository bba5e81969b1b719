//! Request/response schema of the simulation service.
//!
//! One request per line, one JSON object per request; one JSON object
//! per response line. Every request carries a `"cmd"` discriminator:
//!
//! * `ping` / `stats` / `shutdown` — control plane, answered out of
//!   band (never queued).
//! * `run` — the CLI's two-point comparison (baseline vs one MCR
//!   configuration), same field vocabulary as the `mcr_sim` flags.
//! * `sweep` — a full experiment grid (workloads × modes × mechanisms ×
//!   alloc ratios × seeds), the service face of [`SweepBuilder`].
//! * `campaign` — a seeded fault-injection campaign: a zero-fault
//!   control point plus one point per requested rate.
//! * `compare` — the cross-architecture head-to-head: one trace
//!   replayed once per requested backend. It is a `sweep` with one
//!   target, one mode, one seed and a backend axis
//!   ([`SweepSpec::compare`]); the reply's `"kind"` is `"compare"`.
//!
//! Parsing is strict: unknown fields and type mismatches are rejected
//! with a [`ProtocolError`] naming the offending key, so a typo'd
//! request fails loudly instead of silently running defaults.

use crate::telemetry::{finite, telemetry_json};
use mcr_dram::{
    BackendKind, CompareTable, ConfigError, FaultPlan, McrMode, Mechanisms, RowCacheConfig,
    RunReport, Sweep, SweepBuilder, SweepResults, SystemConfig, DEFAULT_SEED,
};
use sim_json::{Json, JsonError, MAX_EXACT_INT};
use trace_gen::Mix;

/// Default trace length (memory operations per core) when a request
/// does not specify `"len"` — matches the CLI default.
pub const DEFAULT_LEN: usize = 50_000;

/// Reject code for a full queue (load shedding).
pub const CODE_QUEUE_FULL: u64 = 429;

/// Reject code for a request that exceeds the service's size limits.
pub const CODE_TOO_LARGE: u64 = 413;

/// Reject code for a request arriving while the service drains.
pub const CODE_DRAINING: u64 = 503;

/// Why a request could not be turned into work.
#[derive(Debug)]
pub enum ProtocolError {
    /// The line was not valid JSON.
    Json(JsonError),
    /// The JSON did not match the request schema.
    Schema(String),
    /// The request described an invalid simulator configuration.
    Config(ConfigError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Json(e) => write!(f, "bad JSON: {e}"),
            ProtocolError::Schema(msg) => write!(f, "{msg}"),
            ProtocolError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Json(e) => Some(e),
            ProtocolError::Schema(_) => None,
            ProtocolError::Config(e) => Some(e),
        }
    }
}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::Json(e)
    }
}

impl From<ConfigError> for ProtocolError {
    fn from(e: ConfigError) -> Self {
        ProtocolError::Config(e)
    }
}

fn schema(msg: impl Into<String>) -> ProtocolError {
    ProtocolError::Schema(msg.into())
}

/// Parses the CLI/protocol mode notation: `"off"` or `M/Kx/L` (L in
/// percent), e.g. `"4/4x/100"` for the paper's headline mode.
pub fn parse_mode(text: &str) -> Option<McrMode> {
    if text == "off" {
        return Some(McrMode::off());
    }
    let mut parts = text.split('/');
    let m: u32 = parts.next()?.parse().ok()?;
    let k: u32 = parts.next()?.strip_suffix('x')?.parse().ok()?;
    let l: f64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    McrMode::new(m, k, l / 100.0).ok()
}

/// Applies the optional worker-count override, then builds the grid.
fn build(builder: SweepBuilder, jobs: Option<usize>) -> Result<Sweep, ProtocolError> {
    let builder = match jobs {
        Some(jobs) => builder.jobs(jobs),
        None => builder,
    };
    Ok(builder.build()?)
}

/// The mechanisms of Fig. 17 case `case` (1-4).
fn mechanisms_case(case: u32) -> Result<Mechanisms, ProtocolError> {
    if !(1..=4).contains(&case) {
        return Err(schema("mechanisms case must be 1-4"));
    }
    Ok(Mechanisms::fig17_case(case))
}

/// Resolves a mix name (`mix01`..`mix14`, `MT-*`).
fn mix_named(name: &str) -> Result<Mix, ProtocolError> {
    trace_gen::mix(name).ok_or_else(|| schema(format!("unknown mix {name:?} (mix01..mix14, MT-*)")))
}

/// Resolves backend names (`mcr`, `baseline`, `tldram`, `clrdram`); an
/// empty list means every registered backend, in canonical order. The
/// `compare` request and `mcr_sim compare --backends` share it.
///
/// # Errors
///
/// [`ProtocolError::Schema`] naming the first unknown backend.
pub fn parse_backends(names: &[String]) -> Result<Vec<BackendKind>, ProtocolError> {
    if names.is_empty() {
        return Ok(BackendKind::all().to_vec());
    }
    names
        .iter()
        .map(|name| {
            BackendKind::parse(name).ok_or_else(|| {
                schema(format!(
                    "unknown backend {name:?} (want mcr, baseline, tldram, or clrdram)"
                ))
            })
        })
        .collect()
}

/// Fault plan used for `"fault_rate"` requests and the CLI's
/// `--fault-rate`: weak cells (at half retention), dropped and late
/// refreshes all at `rate`, plus sense glitches at a tenth of it, all
/// driven by `seed`.
pub fn fault_plan(rate: f64, seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_weak_cells(rate, 0.5)
        .with_refresh_drops(rate)
        .with_late_refreshes(rate, 1_000)
        .with_sense_glitches(rate / 10.0)
}

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe; answered immediately.
    Ping,
    /// Service counters and queue state; answered immediately.
    Stats,
    /// Graceful shutdown: drain in-flight work, reject new work.
    Shutdown,
    /// A simulation job to queue.
    Job(Box<JobRequest>),
}

/// A queued simulation job: the spec plus delivery options.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Caller-chosen identifier, echoed in the response.
    pub id: Option<String>,
    /// Deadline budget in milliseconds from admission; the job is
    /// cancelled (and answered with `"status": "timeout"`) once spent.
    pub deadline_ms: Option<u64>,
    /// Attach the merged simulator telemetry to the response.
    pub metrics: bool,
    /// What to simulate.
    pub spec: JobSpec,
}

/// The simulation described by a job request.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Two-point baseline-vs-MCR comparison.
    Run(RunSpec),
    /// Full experiment grid; with a backend axis, the cross-architecture
    /// `compare` campaign.
    Sweep(SweepSpec),
    /// Fault-injection campaign.
    Campaign(CampaignSpec),
}

impl JobSpec {
    /// Wire name of the spec kind, echoed in responses. Only `compare`
    /// requests fill the backend axis, so a grid with one is a compare.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Run(_) => "run",
            JobSpec::Sweep(s) if s.backends.is_empty() => "sweep",
            JobSpec::Sweep(_) => "compare",
            JobSpec::Campaign(_) => "campaign",
        }
    }

    /// Number of grid points the job will expand to (admission control
    /// sizes the work before building it).
    pub fn point_count(&self) -> usize {
        match self {
            JobSpec::Run(_) => 2,
            JobSpec::Sweep(s) => s.point_count(),
            JobSpec::Campaign(c) => c.rates.len() + 1,
        }
    }

    /// Trace length (memory operations per core) of the job.
    pub fn trace_len(&self) -> usize {
        match self {
            JobSpec::Run(r) => r.len,
            JobSpec::Sweep(s) => s.len,
            JobSpec::Campaign(c) => c.base.len,
        }
    }

    /// Builds the validated, ready-to-run sweep for this spec.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Schema`] for unresolvable names or out-of-range
    /// fields, [`ProtocolError::Config`] when the simulator rejects a
    /// point.
    pub fn sweep(&self, jobs: Option<usize>) -> Result<Sweep, ProtocolError> {
        match self {
            JobSpec::Run(r) => r.sweep(jobs),
            JobSpec::Sweep(s) => s.sweep(jobs),
            JobSpec::Campaign(c) => c.sweep(jobs),
        }
    }
}

/// The CLI's two-point comparison as a request: one target (workload or
/// mix), one MCR configuration, always run next to the zeroed baseline.
///
/// Field-for-field the same vocabulary as the `mcr_sim` flags, so a
/// request submitted over the wire and a local `--json` run build the
/// *identical* sweep — the determinism guard in
/// `tests/sweep_determinism.rs` holds the two byte-equal.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Single-core workload name (mutually exclusive with `mix`).
    pub workload: Option<String>,
    /// Multi-core mix name (mutually exclusive with `workload`).
    pub mix: Option<String>,
    /// MCR mode of the non-baseline point.
    pub mode: McrMode,
    /// Memory operations per core.
    pub len: usize,
    /// Profile-based allocation ratio in `[0, 1]`.
    pub alloc: f64,
    /// Manage the MCR region as a row cache with this promote
    /// threshold.
    pub row_cache: Option<u32>,
    /// Config seed.
    pub seed: u64,
    /// Fig. 17 mechanisms case (1–4); `None` means all mechanisms on.
    pub mechanisms_case: Option<u32>,
    /// Arm retention-fault injection at this rate.
    pub fault_rate: Option<f64>,
    /// Fault-plan seed; defaults to `seed`.
    pub fault_seed: Option<u64>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: None,
            mix: None,
            mode: McrMode::off(),
            len: DEFAULT_LEN,
            alloc: 0.0,
            row_cache: None,
            seed: DEFAULT_SEED,
            mechanisms_case: None,
            fault_rate: None,
            fault_seed: None,
        }
    }
}

impl RunSpec {
    /// Resolves the spec into `(baseline config, MCR config, target
    /// name)`. The baseline is the MCR config with every MCR knob
    /// zeroed — identical to the CLI's construction.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Schema`] for an unknown mix or out-of-range
    /// fields, [`ProtocolError::Config`] for an unknown workload.
    pub fn configs(&self) -> Result<(SystemConfig, SystemConfig, String), ProtocolError> {
        let (mut cfg, target) = match (&self.workload, &self.mix) {
            (Some(name), None) => (SystemConfig::try_single_core(name, self.len)?, name.clone()),
            (None, Some(name)) => (
                SystemConfig::multi_core_mix(&mix_named(name)?, self.len),
                name.clone(),
            ),
            (Some(_), Some(_)) => {
                return Err(schema("--workload and --mix are mutually exclusive"))
            }
            (None, None) => return Err(schema("need --workload or --mix (or --list)")),
        };
        let mechanisms = self
            .mechanisms_case
            .map_or(Ok(Mechanisms::all()), mechanisms_case)?;
        cfg = cfg
            .with_mode(self.mode)
            .with_mechanisms(mechanisms)
            .with_alloc_ratio(self.alloc)
            .with_seed(self.seed);
        if let Some(threshold) = self.row_cache {
            cfg = cfg.with_row_cache(RowCacheConfig {
                promote_threshold: threshold,
            });
        }
        if let Some(rate) = self.fault_rate {
            if !(0.0..=1.0).contains(&rate) {
                return Err(schema(format!("fault_rate must be in [0, 1], got {rate}")));
            }
            cfg = cfg.with_fault_plan(fault_plan(rate, self.fault_seed.unwrap_or(self.seed)));
        }
        let mut base = cfg.clone();
        base.mode = McrMode::off();
        base.region_map = None;
        base.mechanisms = Mechanisms::none();
        base.alloc_ratio = 0.0;
        base.row_cache = None;
        base.fault_plan = None;
        Ok((base, cfg, target))
    }

    /// The two-point sweep (`"baseline [off]"` then `"MCR <mode>"`) —
    /// the exact shape the CLI runs locally.
    ///
    /// # Errors
    ///
    /// See [`RunSpec::configs`]; additionally
    /// [`ProtocolError::Config`] when either point fails validation.
    pub fn sweep(&self, jobs: Option<usize>) -> Result<Sweep, ProtocolError> {
        let (base, cfg, _) = self.configs()?;
        let builder = SweepBuilder::new(self.len)
            .point("baseline [off]", base)
            .point(format!("MCR {}", self.mode), cfg);
        build(builder, jobs)
    }
}

/// A full experiment grid: the service face of [`SweepBuilder`]'s
/// cartesian axes. A `sweep` request leaves the backend axis empty (MCR
/// only); a `compare` request fills it ([`SweepSpec::compare`]).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Memory operations per core.
    pub len: usize,
    /// Single-core workload names.
    pub workloads: Vec<String>,
    /// Multi-core mix names.
    pub mixes: Vec<String>,
    /// MCR modes axis (empty means `[off]`).
    pub modes: Vec<McrMode>,
    /// Fig. 17 mechanisms cases axis (empty means all-on).
    pub mechanisms: Vec<u32>,
    /// Allocation-ratio axis (empty means `[0.0]`).
    pub allocs: Vec<f64>,
    /// Seed axis (empty means the config default).
    pub seeds: Vec<u64>,
    /// Backend axis (empty means MCR only).
    pub backends: Vec<BackendKind>,
}

impl SweepSpec {
    /// The `compare` campaign as a grid: one target, mode axis `[mode]`,
    /// seed axis `[seed]` and the backends named in `backends` (empty
    /// means every registered backend). The `compare` request and
    /// `mcr_sim compare` both build their grid here.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Schema`] for a missing or ambiguous target or an
    /// unknown backend name.
    pub fn compare(
        workload: Option<String>,
        mix: Option<String>,
        mode: McrMode,
        len: usize,
        seed: u64,
        backends: &[String],
    ) -> Result<SweepSpec, ProtocolError> {
        let (workloads, mixes) = match (workload, mix) {
            (Some(name), None) => (vec![name], Vec::new()),
            (None, Some(name)) => (Vec::new(), vec![name]),
            (Some(_), Some(_)) => return Err(schema("workload and mix are mutually exclusive")),
            (None, None) => return Err(schema("compare needs a workload or a mix")),
        };
        Ok(SweepSpec {
            len,
            workloads,
            mixes,
            modes: vec![mode],
            mechanisms: Vec::new(),
            allocs: Vec::new(),
            seeds: vec![seed],
            backends: parse_backends(backends)?,
        })
    }

    /// Expanded grid size (for admission control): per target, every
    /// non-empty MCR axis for the MCR backend, plus the seed axis once
    /// for each other backend. The axes come off the wire, so the
    /// arithmetic saturates: a grid too large to count is `usize::MAX`,
    /// never a wrapped small number that slips under the cap.
    pub fn point_count(&self) -> usize {
        let axis = |n: usize| n.max(1);
        let mcr = [
            self.modes.len(),
            self.mechanisms.len(),
            self.allocs.len(),
            self.seeds.len(),
        ]
        .into_iter()
        .fold(1, |n: usize, len| n.saturating_mul(axis(len)));
        let per_target = if self.backends.is_empty() {
            mcr
        } else {
            self.backends
                .iter()
                .map(|&kind| match kind {
                    BackendKind::Mcr => mcr,
                    _ => axis(self.seeds.len()),
                })
                .fold(0, usize::saturating_add)
        };
        (self.workloads.len() + self.mixes.len()).saturating_mul(per_target)
    }

    /// Builds the grid.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Schema`] for unknown mixes or bad cases,
    /// [`ProtocolError::Config`] for an unknown workload, a repeated
    /// backend, or a point that fails validation.
    pub fn sweep(&self, jobs: Option<usize>) -> Result<Sweep, ProtocolError> {
        let mut builder = SweepBuilder::new(self.len)
            .workloads(self.workloads.iter().map(String::as_str))
            .backends(self.backends.iter().copied())
            .seeds(self.seeds.iter().copied());
        for name in &self.mixes {
            builder = builder.mix(&mix_named(name)?);
        }
        for &mode in &self.modes {
            builder = builder.mode(mode);
        }
        for &case in &self.mechanisms {
            builder = builder.mechanisms(mechanisms_case(case)?);
        }
        for &ratio in &self.allocs {
            builder = builder.alloc_ratio(ratio);
        }
        build(builder, jobs)
    }
}

/// A seeded fault-injection campaign: the base configuration run clean
/// (the control) plus one faulted point per rate.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Target configuration; its `fault_rate` must be unset (the
    /// campaign arms its own plans).
    pub base: RunSpec,
    /// Injection rates, each in `[0, 1]`.
    pub rates: Vec<f64>,
    /// Seed driving every fault plan of the campaign.
    pub fault_seed: u64,
}

impl CampaignSpec {
    /// Builds the control + campaign sweep.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Schema`] for empty/out-of-range rates or a base
    /// spec that arms its own faults; see also [`RunSpec::configs`].
    pub fn sweep(&self, jobs: Option<usize>) -> Result<Sweep, ProtocolError> {
        if self.base.fault_rate.is_some() {
            return Err(schema(
                "campaign base must not set fault_rate (the campaign arms its own plans)",
            ));
        }
        if self.rates.is_empty() {
            return Err(schema("campaign needs at least one rate"));
        }
        for &rate in &self.rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(schema(format!("rate must be in [0, 1], got {rate}")));
            }
        }
        let (_, cfg, target) = self.base.configs()?;
        let builder = SweepBuilder::new(self.base.len)
            .point(format!("control {target}"), cfg.clone())
            .fault_campaign(&cfg, &self.rates, self.fault_seed);
        build(builder, jobs)
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// Typed field access with schema-shaped errors.
struct Fields<'a> {
    members: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn of(v: &'a Json, what: &str) -> Result<Self, ProtocolError> {
        let members = v
            .as_object()
            .ok_or_else(|| schema(format!("{what} must be a JSON object")))?;
        Ok(Fields { members })
    }

    /// Rejects any member whose key is not in `allowed`.
    fn restrict(&self, allowed: &[&str]) -> Result<(), ProtocolError> {
        for (key, _) in self.members {
            if !allowed.contains(&key.as_str()) {
                return Err(schema(format!(
                    "unknown field {key:?} (allowed: {})",
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The member under `key` converted by `get` (absent or `null` reads
    /// as `None`); `what` names the expected type.
    fn opt<T>(
        &self,
        key: &str,
        what: &str,
        get: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, ProtocolError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => get(v)
                .map(Some)
                .ok_or_else(|| schema(format!("{key:?} must be {what}"))),
        }
    }

    fn str_opt(&self, key: &str) -> Result<Option<String>, ProtocolError> {
        self.opt(key, "a string", |v| v.as_str().map(str::to_string))
    }

    fn u64_opt(&self, key: &str) -> Result<Option<u64>, ProtocolError> {
        self.opt(key, "a non-negative integer below 2^53", exact_u64)
    }

    fn seed_opt(&self, key: &str) -> Result<Option<u64>, ProtocolError> {
        self.opt(key, SEED, seed_of)
    }

    fn u32_opt(&self, key: &str) -> Result<Option<u32>, ProtocolError> {
        match self.u64_opt(key)? {
            None => Ok(None),
            Some(n) => u32::try_from(n)
                .map(Some)
                .map_err(|_| schema(format!("{key:?} is out of range"))),
        }
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, ProtocolError> {
        match self.u64_opt(key)? {
            None => Ok(default),
            Some(n) => usize::try_from(n).map_err(|_| schema(format!("{key:?} is out of range"))),
        }
    }

    fn f64_opt(&self, key: &str) -> Result<Option<f64>, ProtocolError> {
        self.opt(key, "a number", Json::as_f64)
    }

    fn bool_or(&self, key: &str, default: bool) -> Result<bool, ProtocolError> {
        Ok(self
            .opt(key, "a boolean", Json::as_bool)?
            .unwrap_or(default))
    }

    /// The array under `key` (absent or `null` reads as empty), each
    /// entry converted by `get`; `what` names the expected entry type.
    fn list<T>(
        &self,
        key: &str,
        what: &str,
        get: impl Fn(&Json) -> Option<T>,
    ) -> Result<Vec<T>, ProtocolError> {
        let items = self.opt(key, "an array", Json::as_array)?.unwrap_or(&[]);
        items
            .iter()
            .map(|v| get(v).ok_or_else(|| schema(format!("{key:?} entries must be {what}"))))
            .collect()
    }

    fn strs(&self, key: &str) -> Result<Vec<String>, ProtocolError> {
        self.list(key, "strings", |v| v.as_str().map(str::to_string))
    }

    fn mode_or(&self, key: &str, default: McrMode) -> Result<McrMode, ProtocolError> {
        self.str_opt(key)?
            .map_or(Ok(default), |text| mode_named(&text))
    }
}

/// A whole number that an `f64` holds exactly. From 2^53 on, a request's
/// digits may have been rounded on the way in: `9007199254740993` reads
/// as 2^53.
fn exact_u64(v: &Json) -> Option<u64> {
    v.as_u64().filter(|&n| n < MAX_EXACT_INT)
}

/// What a seed may be, for the schema error.
const SEED: &str = "a non-negative integer below 2^53 or a string of decimal digits";

/// A seed: an exact number, or the decimal string that [`seed_json`]
/// writes a seed of 2^53 or more as.
fn seed_of(v: &Json) -> Option<u64> {
    match v {
        Json::Str(_) => v.as_u64_lossless(),
        _ => exact_u64(v),
    }
}

/// A seed in the form [`seed_of`] reads back: a number below 2^53, the
/// decimal string from 2^53 on.
fn seed_json(seed: u64) -> Json {
    if seed < MAX_EXACT_INT {
        Json::from(seed)
    } else {
        Json::Str(seed.to_string())
    }
}

fn mode_named(text: &str) -> Result<McrMode, ProtocolError> {
    parse_mode(text).ok_or_else(|| schema(format!("bad mode {text:?} (want M/Kx/L or off)")))
}

/// Fields shared by every job request.
const JOB_COMMON: [&str; 4] = ["cmd", "id", "deadline_ms", "metrics"];

/// Parses a job request: rejects members outside [`JOB_COMMON`] and
/// `fields`, reads the spec with `spec`, then the shared members.
fn job(
    f: &Fields<'_>,
    fields: &[&str],
    spec: impl FnOnce(&Fields<'_>) -> Result<JobSpec, ProtocolError>,
) -> Result<Request, ProtocolError> {
    let allowed: Vec<&str> = JOB_COMMON.iter().chain(fields).copied().collect();
    f.restrict(&allowed)?;
    let spec = spec(f)?;
    Ok(Request::Job(Box::new(JobRequest {
        id: f.str_opt("id")?,
        deadline_ms: f.u64_opt("deadline_ms")?,
        metrics: f.bool_or("metrics", false)?,
        spec,
    })))
}

fn run_spec_from(f: &Fields<'_>) -> Result<RunSpec, ProtocolError> {
    Ok(RunSpec {
        workload: f.str_opt("workload")?,
        mix: f.str_opt("mix")?,
        mode: f.mode_or("mode", McrMode::off())?,
        len: f.usize_or("len", DEFAULT_LEN)?,
        alloc: f.f64_opt("alloc")?.unwrap_or(0.0),
        row_cache: f.u32_opt("row_cache")?,
        seed: f.seed_opt("seed")?.unwrap_or(DEFAULT_SEED),
        mechanisms_case: f.u32_opt("mechanisms")?,
        fault_rate: f.f64_opt("fault_rate")?,
        fault_seed: f.seed_opt("fault_seed")?,
    })
}

/// Field names a `run` spec understands (also the campaign base).
const RUN_FIELDS: [&str; 10] = [
    "workload",
    "mix",
    "mode",
    "len",
    "alloc",
    "row_cache",
    "seed",
    "mechanisms",
    "fault_rate",
    "fault_seed",
];

/// Parses one request line.
///
/// # Errors
///
/// [`ProtocolError::Json`] when the line is not JSON,
/// [`ProtocolError::Schema`] when it does not match the request schema.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let doc = Json::parse(line)?;
    let f = Fields::of(&doc, "a request")?;
    let cmd = f
        .str_opt("cmd")?
        .ok_or_else(|| schema("request needs a \"cmd\" field"))?;
    match cmd.as_str() {
        "ping" => {
            f.restrict(&["cmd", "id"])?;
            Ok(Request::Ping)
        }
        "stats" => {
            f.restrict(&["cmd", "id"])?;
            Ok(Request::Stats)
        }
        "shutdown" => {
            f.restrict(&["cmd", "id"])?;
            Ok(Request::Shutdown)
        }
        "run" => job(&f, &RUN_FIELDS, |f| Ok(JobSpec::Run(run_spec_from(f)?))),
        "sweep" => job(
            &f,
            &[
                "len",
                "workloads",
                "mixes",
                "modes",
                "mechanisms",
                "allocs",
                "seeds",
            ],
            |f| {
                let spec = SweepSpec {
                    len: f.usize_or("len", DEFAULT_LEN)?,
                    workloads: f.strs("workloads")?,
                    mixes: f.strs("mixes")?,
                    modes: f
                        .strs("modes")?
                        .iter()
                        .map(|text| mode_named(text))
                        .collect::<Result<_, _>>()?,
                    mechanisms: f.list("mechanisms", "non-negative integers", |v| {
                        exact_u64(v).map(|n| u32::try_from(n).unwrap_or(u32::MAX))
                    })?,
                    allocs: f.list("allocs", "numbers", Json::as_f64)?,
                    seeds: f.list("seeds", SEED, seed_of)?,
                    backends: Vec::new(),
                };
                if spec.workloads.is_empty() && spec.mixes.is_empty() {
                    return Err(schema("sweep needs at least one workload or mix"));
                }
                Ok(JobSpec::Sweep(spec))
            },
        ),
        "campaign" => job(&f, &[&RUN_FIELDS[..], &["rates"]].concat(), |f| {
            let base = run_spec_from(f)?;
            Ok(JobSpec::Campaign(CampaignSpec {
                fault_seed: base.fault_seed.unwrap_or(base.seed),
                base,
                rates: f.list("rates", "numbers", Json::as_f64)?,
            }))
        }),
        "compare" => job(
            &f,
            &["workload", "mix", "mode", "len", "seed", "backends"],
            |f| {
                Ok(JobSpec::Sweep(SweepSpec::compare(
                    f.str_opt("workload")?,
                    f.str_opt("mix")?,
                    f.mode_or("mode", McrMode::headline())?,
                    f.usize_or("len", DEFAULT_LEN)?,
                    f.seed_opt("seed")?.unwrap_or(DEFAULT_SEED),
                    &f.strs("backends")?,
                )?))
            },
        ),
        other => Err(schema(format!(
            "unknown cmd {other:?} (want ping, stats, shutdown, run, sweep, campaign, or compare)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

/// `{"status": "ok", "pong": true}` — the ping answer.
pub fn render_pong() -> String {
    Json::obj([("status", Json::str("ok")), ("pong", Json::from(true))]).to_string()
}

/// A typed rejection (load shedding, drain, size limits).
pub fn render_rejected(code: u64, reason: &str) -> String {
    Json::obj([
        ("status", Json::str("rejected")),
        ("code", Json::from(code)),
        ("reason", Json::str(reason)),
    ])
    .to_string()
}

/// A deadline-expiry answer.
pub fn render_timeout(id: Option<&str>, deadline_ms: u64) -> String {
    Json::obj([
        ("status", Json::str("timeout")),
        ("id", id.map(Json::str).unwrap_or(Json::Null)),
        ("deadline_ms", Json::from(deadline_ms)),
    ])
    .to_string()
}

/// A request-level failure (bad JSON, schema violation, invalid
/// configuration, internal error).
pub fn render_error(reason: &str) -> String {
    Json::obj([
        ("status", Json::str("error")),
        ("reason", Json::str(reason)),
    ])
    .to_string()
}

/// The answer for a job whose simulation panicked inside a worker
/// (contained by `catch_unwind`). Names the config key of the point
/// that was running when the panic fired — both in the reason text and
/// as a structured member — so the failing point is diagnosable and
/// replayable from the client side.
pub fn render_panic(id: Option<&str>, config_key: Option<u64>) -> String {
    let reason = match config_key {
        Some(key) => format!("internal: simulation panicked at config_key {key:016x}"),
        None => "internal: simulation panicked".to_string(),
    };
    Json::obj([
        ("status", Json::str("error")),
        ("id", id.map(Json::str).unwrap_or(Json::Null)),
        ("reason", Json::str(reason)),
        (
            "config_key",
            config_key
                .map(|key| Json::str(format!("{key:016x}")))
                .unwrap_or(Json::Null),
        ),
    ])
    .to_string()
}

/// A report's refresh slots by kind: normal, fast, skipped.
fn refresh_json(r: &RunReport) -> Json {
    let refresh = &r.controller.refresh;
    Json::obj([
        ("normal", Json::from(refresh.normal)),
        ("fast", Json::from(refresh.fast)),
        ("skipped", Json::from(refresh.skipped)),
    ])
}

/// The results of one sweep run: labels, cache keys (16 hex digits),
/// timing and headline metrics per point. The `wall_ns`, `cache_hit(s)`
/// and `jobs` members are volatile; everything else is bit-identical
/// across jobs counts and across local vs. submitted runs.
pub fn results_json(results: &SweepResults) -> Json {
    let points = results
        .points
        .iter()
        .map(|p| {
            let r = &p.report;
            Json::obj([
                ("label", Json::str(p.label.as_str())),
                ("key", Json::str(format!("{:016x}", p.key))),
                ("cache_hit", Json::from(p.cache_hit)),
                ("wall_ns", Json::Num(p.wall.as_nanos() as f64)),
                ("exec_cpu_cycles", Json::from(r.exec_cpu_cycles)),
                ("avg_read_latency", finite(r.avg_read_latency)),
                ("edp", finite(r.edp)),
                ("reads_done", Json::from(r.reads_done)),
                ("instructions", Json::from(r.instructions)),
                ("refresh", refresh_json(r)),
            ])
        })
        .collect();
    Json::obj([
        ("jobs", Json::from(results.jobs as u64)),
        ("wall_ns", Json::Num(results.wall.as_nanos() as f64)),
        ("cache_hits", Json::from(results.cache_hits() as u64)),
        ("points", Json::Arr(points)),
    ])
}

/// The head-to-head table of a `compare` campaign: one row per
/// backend, `null` speedup when the campaign ran without a baseline.
/// Carries no volatile member. A seed of 2^53 or more exports as a
/// decimal string, so the table's seed can be sent back in a request.
pub fn compare_json(table: &CompareTable) -> Json {
    let rows = table
        .rows
        .iter()
        .map(|row| {
            let r = &row.report;
            Json::obj([
                ("backend", Json::str(row.backend.as_str())),
                ("label", Json::str(row.label.as_str())),
                ("exec_cpu_cycles", Json::from(r.exec_cpu_cycles)),
                ("avg_read_latency", finite(r.avg_read_latency)),
                ("edp", finite(r.edp)),
                ("reads_done", Json::from(r.reads_done)),
                ("refresh", refresh_json(r)),
                (
                    "speedup_vs_baseline",
                    row.speedup.map_or(Json::Null, finite),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("target", Json::str(table.target.as_str())),
        ("len", Json::from(table.len as u64)),
        // The CLI takes any u64 seed; from 2^53 on an f64 may round it.
        ("seed", seed_json(table.seed)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Renders a completed job: the sweep results, optional per-point
/// reliability (campaigns), optional merged telemetry.
pub fn render_job_ok(
    req: &JobRequest,
    results: &SweepResults,
    queue_ms: u64,
    service_ms: u64,
) -> String {
    let mut members: Vec<(String, Json)> = vec![
        ("status".into(), Json::str("ok")),
        (
            "id".into(),
            req.id.as_deref().map(Json::str).unwrap_or(Json::Null),
        ),
        ("kind".into(), Json::str(req.spec.kind())),
        ("queue_ms".into(), Json::from(queue_ms)),
        ("service_ms".into(), Json::from(service_ms)),
        ("result".into(), results_json(results)),
    ];
    if let JobSpec::Campaign(_) = req.spec {
        members.push(("reliability".into(), reliability_json(results)));
        // Clean: no retention escape, and every faulted point finished
        // as many reads as the control (the first point).
        let reads0 = results.points.first().map(|p| p.report.reads_done);
        let clean = results.points.iter().all(|p| {
            p.report.reliability.retention_escapes == 0 && Some(p.report.reads_done) == reads0
        });
        members.push(("clean".into(), Json::from(clean)));
    }
    if req.metrics {
        members.push((
            "telemetry".into(),
            telemetry_json(&results.merged_telemetry()),
        ));
    }
    Json::Obj(members).to_string()
}

/// Per-point reliability summary for campaign responses.
fn reliability_json(results: &SweepResults) -> Json {
    Json::Arr(
        results
            .points
            .iter()
            .map(|p| {
                let rel = &p.report.reliability;
                Json::obj([
                    ("label", Json::str(p.label.as_str())),
                    ("escapes", Json::from(rel.retention_escapes)),
                    ("retries", Json::from(rel.retention_retries)),
                    ("dropped", Json::from(rel.refresh_dropped)),
                    ("late", Json::from(rel.refresh_late)),
                    ("degrades", Json::from(rel.guardband_degrades)),
                    ("reads_done", Json::from(p.report.reads_done)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_request_with_defaults() {
        let req = parse_request(r#"{"cmd": "run", "workload": "libq"}"#).expect("parses");
        let Request::Job(job) = req else {
            panic!("expected a job")
        };
        assert!(job.id.is_none());
        assert!(job.deadline_ms.is_none());
        let JobSpec::Run(spec) = &job.spec else {
            panic!("expected run spec")
        };
        assert_eq!(spec.workload.as_deref(), Some("libq"));
        assert_eq!(spec.len, DEFAULT_LEN);
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.mode, McrMode::off());
    }

    #[test]
    fn rejects_unknown_fields_and_commands() {
        let e = parse_request(r#"{"cmd": "run", "workload": "libq", "bogus": 1}"#)
            .expect_err("unknown field");
        assert!(e.to_string().contains("bogus"), "{e}");
        let e = parse_request(r#"{"cmd": "explode"}"#).expect_err("unknown cmd");
        assert!(e.to_string().contains("explode"), "{e}");
        let e = parse_request("not json").expect_err("bad json");
        assert!(matches!(e, ProtocolError::Json(_)), "{e}");
    }

    #[test]
    fn run_spec_builds_the_cli_shaped_sweep() {
        let spec = RunSpec {
            workload: Some("libq".into()),
            mode: parse_mode("4/4x/100").expect("headline mode"),
            len: 1_000,
            ..RunSpec::default()
        };
        let sweep = spec.sweep(None).expect("builds");
        let labels: Vec<&str> = sweep.points().iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["baseline [off]", "MCR [4/4x/100%reg]"]);
    }

    #[test]
    fn sweep_spec_counts_points_before_building() {
        let req = parse_request(
            r#"{"cmd": "sweep", "len": 800, "workloads": ["libq", "comm1"],
                "modes": ["off", "4/4x/100"], "seeds": [1, 2, 3]}"#,
        )
        .expect("parses");
        let Request::Job(job) = req else {
            panic!("expected job")
        };
        assert_eq!(job.spec.kind(), "sweep");
        assert_eq!(job.spec.point_count(), 12);
        let sweep = job.spec.sweep(Some(1)).expect("builds");
        assert_eq!(sweep.points().len(), 12);
    }

    #[test]
    fn point_count_saturates_instead_of_wrapping() {
        // 2^13 modes x 2^17 mechanisms x 2^17 allocs x 2^17 seeds = 2^64:
        // the unchecked product wraps to 0 and would pass any cap.
        let spec = SweepSpec {
            len: 1_000,
            workloads: vec!["libq".into()],
            mixes: Vec::new(),
            modes: vec![McrMode::off(); 1 << 13],
            mechanisms: vec![1; 1 << 17],
            allocs: vec![0.0; 1 << 17],
            seeds: vec![0; 1 << 17],
            backends: Vec::new(),
        };
        assert_eq!(spec.point_count(), usize::MAX);
        let compare = SweepSpec {
            backends: BackendKind::all().to_vec(),
            ..spec
        };
        assert_eq!(compare.point_count(), usize::MAX);
    }

    #[test]
    fn compare_request_is_a_grid_over_every_backend() {
        let Request::Job(job) =
            parse_request(r#"{"cmd": "compare", "workload": "libq", "len": 800}"#).expect("parses")
        else {
            panic!("expected a job")
        };
        let JobSpec::Sweep(spec) = &job.spec else {
            panic!("expected a grid")
        };
        assert_eq!(spec.backends, BackendKind::all());
        assert_eq!(spec.modes, [McrMode::headline()]);
        assert_eq!(spec.seeds, [DEFAULT_SEED]);
        assert_eq!(job.spec.kind(), "compare");
        assert_eq!(job.spec.point_count(), 4);
        assert_eq!(job.spec.sweep(Some(1)).expect("builds").points().len(), 4);
    }

    #[test]
    fn compare_point_count_matches_the_grid() {
        let spec = SweepSpec {
            modes: vec![McrMode::off(), McrMode::headline()],
            seeds: vec![1, 2],
            backends: vec![BackendKind::Baseline, BackendKind::Mcr],
            ..SweepSpec::compare(Some("libq".into()), None, McrMode::off(), 800, 1, &[])
                .expect("valid compare")
        };
        // Baseline crosses only the seeds (2); MCR crosses modes x seeds (4).
        assert_eq!(spec.point_count(), 6);
        assert_eq!(spec.sweep(Some(1)).expect("builds").points().len(), 6);
    }

    #[test]
    fn compare_rejects_bad_targets_and_backends() {
        let err = |line: &str| match parse_request(line) {
            Err(e) => e.to_string(),
            Ok(req) => req.job_sweep_err().to_string(),
        };
        for (line, needle) in [
            (r#"{"cmd": "compare"}"#, "compare needs a workload or a mix"),
            (
                r#"{"cmd": "compare", "workload": "libq", "mix": "mix01"}"#,
                "mutually exclusive",
            ),
            (
                r#"{"cmd": "compare", "workload": "libq", "backends": ["bogus"]}"#,
                "unknown backend",
            ),
            (
                r#"{"cmd": "compare", "workload": "libq", "backends": ["mcr", "mcr"]}"#,
                "duplicate backend mcr",
            ),
            (
                r#"{"cmd": "compare", "workload": "no-such-workload"}"#,
                "unknown workload",
            ),
        ] {
            let e = err(line);
            assert!(e.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn campaign_rejects_armed_base_and_bad_rates() {
        let e = parse_request(
            r#"{"cmd": "campaign", "workload": "libq", "rates": [0.1], "fault_rate": 0.5}"#,
        )
        .expect("parses")
        .job_sweep_err();
        assert!(e.to_string().contains("campaign base"), "{e}");
        let e = parse_request(r#"{"cmd": "campaign", "workload": "libq", "rates": [1.5]}"#)
            .expect("parses")
            .job_sweep_err();
        assert!(e.to_string().contains("[0, 1]"), "{e}");
    }

    impl Request {
        /// Test helper: building the job's sweep must fail.
        fn job_sweep_err(self) -> ProtocolError {
            let Request::Job(job) = self else {
                panic!("expected a job")
            };
            job.spec.sweep(None).expect_err("sweep must fail")
        }
    }

    #[test]
    fn mode_strings_round_trip_through_the_parser() {
        for text in ["off", "4/4x/100", "2/4x/75", "1/2x/50"] {
            let mode = parse_mode(text).unwrap_or_else(|| panic!("mode {text}"));
            if text == "off" {
                assert_eq!(mode, McrMode::off());
            }
        }
        for text in ["", "4/4/100", "5/4x/100", "4/4x/100/extra", "4/3x/100"] {
            assert!(parse_mode(text).is_none(), "{text:?} must be rejected");
        }
    }

    #[test]
    fn responses_are_single_line_json() {
        for line in [
            render_pong(),
            render_rejected(CODE_QUEUE_FULL, "queue-full"),
            render_timeout(Some("j1"), 25),
            render_error("nope"),
        ] {
            assert!(!line.contains('\n'), "multi-line response: {line}");
            let v = Json::parse(&line).expect("response parses");
            assert!(v.get("status").is_some());
        }
    }

    #[test]
    fn json_export_is_wellformed_enough() {
        let sweep = SweepBuilder::new(1_500).workload("libq").build().unwrap();
        let json = results_json(&sweep.run());
        let points = json.get("points").and_then(Json::as_array).expect("points");
        assert!(!points.is_empty());
        for p in points {
            assert!(p.get("exec_cpu_cycles").and_then(Json::as_u64).is_some());
            for key in ["avg_read_latency", "edp"] {
                assert!(p.get(key).and_then(Json::as_f64).is_some(), "{key}: {p}");
            }
        }
        assert_eq!(Json::parse(&json.to_string()), Ok(json));
    }

    #[test]
    fn compare_json_exports_null_speedups_without_a_baseline() {
        let sweep = SweepBuilder::new(2_000)
            .workload("libq")
            .backends([BackendKind::TlDram, BackendKind::ClrDram])
            .mode(McrMode::headline())
            .build()
            .expect("valid grid");
        let json = compare_json(&CompareTable::new("libq", &sweep, &sweep.run()));
        let rows = json.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.get("speedup_vs_baseline"), Some(&Json::Null), "{row}");
        }
    }

    #[test]
    fn compare_json_keeps_full_range_seeds() {
        for seed in [
            DEFAULT_SEED,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX,
        ] {
            let table = CompareTable {
                target: "libq".into(),
                len: 300,
                seed,
                rows: Vec::new(),
            };
            let json = Json::parse(&compare_json(&table).to_string()).expect("parses");
            let exported = json.get("seed").expect("a seed");
            assert_eq!(exported.as_u64_lossless(), Some(seed));
            // The exported seed goes back into a request as it stands.
            let request =
                format!(r#"{{"cmd": "compare", "workload": "libq", "seed": {exported}}}"#);
            let Ok(Request::Job(job)) = parse_request(&request) else {
                panic!("{request}")
            };
            let JobSpec::Sweep(spec) = job.spec else {
                panic!("a sweep")
            };
            assert_eq!(spec.seeds, [seed], "{request}");
        }
    }

    #[test]
    fn seeds_past_the_f64_window_must_be_strings() {
        // 2^53 + 1 arrives as 2^53 through an f64, so both are refused:
        // a number gives no way to tell them apart.
        for seed in ["9007199254740993", "9007199254740992"] {
            for request in [
                format!(r#"{{"cmd": "run", "workload": "libq", "seed": {seed}}}"#),
                format!(r#"{{"cmd": "run", "workload": "libq", "fault_seed": {seed}}}"#),
                format!(r#"{{"cmd": "sweep", "workloads": ["libq"], "seeds": [1, {seed}]}}"#),
                format!(r#"{{"cmd": "compare", "workload": "libq", "seed": {seed}}}"#),
            ] {
                let e = parse_request(&request).expect_err(&request);
                assert!(matches!(e, ProtocolError::Schema(_)), "{request}: {e}");
                assert!(e.to_string().contains("below 2^53"), "{request}: {e}");
            }
        }
        // The decimal string is exact, as `compare_json` writes it.
        let seed = (1u64 << 53) + 1;
        let run = |request: &str| match parse_request(request) {
            Ok(Request::Job(job)) => match job.spec {
                JobSpec::Run(spec) => spec,
                other => panic!("{request}: {other:?}"),
            },
            other => panic!("{request}: {other:?}"),
        };
        let spec = run(
            r#"{"cmd": "run", "workload": "libq", "seed": "9007199254740993",
                           "fault_seed": "18446744073709551615"}"#,
        );
        assert_eq!((spec.seed, spec.fault_seed), (seed, Some(u64::MAX)));
        assert_eq!(
            run(r#"{"cmd": "run", "seed": 9007199254740991}"#).seed,
            seed - 2
        );
        for bad in [r#""-1""#, r#""1e3""#, r#""""#, "1.5"] {
            let request = format!(r#"{{"cmd": "run", "workload": "libq", "seed": {bad}}}"#);
            assert!(parse_request(&request).is_err(), "{request}");
        }
        let Ok(Request::Job(job)) = parse_request(
            r#"{"cmd": "sweep", "workloads": ["libq"], "seeds": [1, "9007199254740993"]}"#,
        ) else {
            panic!("string seeds parse")
        };
        let JobSpec::Sweep(spec) = job.spec else {
            panic!("a sweep")
        };
        assert_eq!(spec.seeds, [1, seed]);
    }
}

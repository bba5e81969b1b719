//! The paper-claims ledger: every number and shape EXPERIMENTS.md
//! states, as one table of rows checked over a band of seeds.
//!
//! A [`Row`] names the paper's figure, the configurations it measures
//! (a target set crossed with a few arms), how one seed's reports
//! reduce to a number, the predicate that number must meet, and the
//! share of seeds at which it must meet it. [`evaluate`] expands every
//! row of a [`Scale`] into one [`SweepBuilder`] grid with a seed axis,
//! so a configuration several rows share (a baseline above all) is
//! simulated once per seed. A row that holds at fewer seeds than its
//! share fails, and its verdict names the seeds.
//!
//! Every arm starts from the target's baseline: MCR off with
//! [`Mechanisms::none`]. With MCR off the mechanisms are inert
//! (`tests/full_system.rs` pins that), so one baseline serves every row.

use circuit_model::{calibrate, CircuitParams, FitReport, LeakageModel, PaperTable3, TimingSolver};
use dram_device::{max_refresh_interval_ms, refresh_schedule, Geometry, RefreshWiring};
use mcr_dram::experiments::{mean, reduction_pct, Outcome};
use mcr_dram::{
    MappingKind, McrMode, McrPolicy, Mechanisms, ReportStore, RowCacheConfig, RunReport,
    SweepBuilder, SystemConfig,
};
use mem_controller::{DevicePolicy, RefreshAction, RowPolicy, SchedulerKind};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use trace_gen::{multi_programmed_mixes, multi_threaded_group, single_core_workloads, Mix};
use Targets::{AllMixes, AllSingle, Analytic, Mixes, Single};

/// How much is simulated: trace lengths and the seed band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Name printed with the ledger.
    pub name: &'static str,
    /// Memory operations per single-core trace.
    pub single_len: usize,
    /// Memory operations per core in quad-core runs.
    pub multi_len: usize,
    /// The seed axis: every row is measured once per seed.
    pub seeds: &'static [u64],
    /// Run every row, or only those whose `check` field is set.
    pub every_row: bool,
}

/// The paper's workload sets and lengths over five seeds: `make claims`.
pub const FULL: Scale = Scale {
    name: "FULL",
    single_len: 60_000,
    multi_len: 20_000,
    seeds: &[2015, 2016, 2017, 2018, 2019],
    every_row: true,
};

/// The rows whose `check` field is set, at 12k operations over the
/// same seeds: the ledger's `cargo test` pass.
pub const CHECK: Scale = Scale {
    name: "CHECK",
    single_len: 12_000,
    multi_len: 3_000, // no CHECK row runs a mix today
    seeds: &[2015, 2016, 2017, 2018, 2019],
    every_row: false,
};

/// The predicate a row's number must meet at a seed. NaN meets none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Holds {
    /// Strictly greater than the bound.
    Above(f64),
    /// At least the bound.
    AtLeast(f64),
    /// At most the bound.
    AtMost(f64),
    /// Inside the closed interval.
    Between(f64, f64),
}

impl Holds {
    /// Whether `x` meets the predicate.
    pub fn test(self, x: f64) -> bool {
        match self {
            Holds::Above(b) => x > b,
            Holds::AtLeast(b) => x >= b,
            Holds::AtMost(b) => x <= b,
            Holds::Between(lo, hi) => lo <= x && x <= hi,
        }
    }
}

impl std::fmt::Display for Holds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Holds::Above(b) => write!(f, "> {b}"),
            Holds::AtLeast(b) => write!(f, "≥ {b}"),
            Holds::AtMost(b) => write!(f, "≤ {b}"),
            Holds::Between(lo, hi) => write!(f, "in [{lo}, {hi}]"),
        }
    }
}

/// The simulated targets of a row, each run under every arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Targets {
    /// Nothing: the number comes from the circuit model or the refresh
    /// counter.
    Analytic,
    /// These single-core workloads.
    Single(&'static [&'static str]),
    /// Every single-core workload (16).
    AllSingle,
    /// The first `n` quad-core mixes of the paper's seed-2015 draw.
    Mixes(usize),
    /// All 14 mixes plus the two multi-threaded workloads.
    AllMixes,
}

impl Targets {
    /// Baseline configuration of every target at `scale`.
    fn baselines(self, scale: &Scale) -> Vec<SystemConfig> {
        let mut mixes = multi_programmed_mixes(2015);
        mixes.extend(multi_threaded_group());
        let (names, mixes): (Vec<&str>, &[Mix]) = match self {
            Analytic => (vec![], &[]),
            Single(names) => (names.to_vec(), &[]),
            AllSingle => (
                single_core_workloads().iter().map(|w| w.name).collect(),
                &[],
            ),
            Mixes(n) => (vec![], &mixes[..n]),
            AllMixes => (vec![], &mixes),
        };
        let single = names
            .iter()
            .map(|n| SystemConfig::single_core(n, scale.single_len));
        let quad = mixes
            .iter()
            .map(|m| SystemConfig::multi_core_mix(m, scale.multi_len));
        single
            .chain(quad)
            .map(|c| c.with_mechanisms(Mechanisms::none()))
            .collect()
    }
}

/// One configuration of a target, derived from its baseline.
pub type Arm = fn(SystemConfig) -> SystemConfig;

/// One seed's reports of a row: per target, one report per arm.
#[derive(Debug)]
pub struct Runs<'a> {
    reports: Vec<&'a RunReport>,
    arms: usize,
}

impl<'a> Runs<'a> {
    /// Per target, the reports in arm order.
    fn targets(&self) -> impl Iterator<Item = &[&'a RunReport]> {
        self.reports.chunks(self.arms.max(1))
    }

    /// Mean over targets of an [`Outcome`] field, arm `b` against arm `a`.
    fn mean(&self, a: usize, b: usize, field: fn(&Outcome) -> f64) -> f64 {
        let outcomes: Vec<Outcome> = self
            .targets()
            .map(|t| Outcome::versus("", t[a], t[b]))
            .collect();
        mean(&outcomes, field)
    }

    /// Smallest per-target value (NaN if any is NaN).
    fn min(&self, f: impl Fn(&[&RunReport]) -> f64) -> f64 {
        self.targets().map(f).fold(f64::INFINITY, nan_min)
    }

    /// Number of targets where `f` holds.
    fn count(&self, f: impl Fn(&[&RunReport]) -> bool) -> f64 {
        self.targets().filter(|t| f(t)).count() as f64
    }
}

/// `min` that lets NaN through instead of dropping it.
fn nan_min(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.min(b)
    }
}

/// Smallest of several numbers, NaN if any is NaN.
fn min_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, nan_min)
}

/// Largest of several numbers, NaN if any is NaN.
fn max_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    -min_of(xs.into_iter().map(|x| -x))
}

const EXEC: fn(&Outcome) -> f64 = |o| o.exec_reduction;
const LAT: fn(&Outcome) -> f64 = |o| o.latency_reduction;
const EDP: fn(&Outcome) -> f64 = |o| o.edp_reduction;

/// 1 when `ok`, else 0: the number of a yes/no row.
fn yes(ok: bool) -> f64 {
    f64::from(u8::from(ok))
}

/// One claim of the paper (or of EXPERIMENTS.md about the paper).
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Ledger id, `<figure>.<claim>`.
    pub id: &'static str,
    /// The paper's figure or table.
    pub figure: &'static str,
    /// What the number is and what the row claims about it.
    pub claim: &'static str,
    /// The value the paper reports for this number, if it reports one.
    pub paper: Option<f64>,
    /// The predicate, tolerance included.
    pub holds: Holds,
    /// Share of seeds at which `holds` must be met.
    pub share: f64,
    /// Also gates at [`CHECK`] scale.
    pub check: bool,
    /// What is simulated.
    pub targets: Targets,
    /// Configurations per target; index 0 is usually the baseline.
    pub arms: &'static [Arm],
    /// One seed's number.
    pub measure: fn(&Runs) -> f64,
}

/// A row of `figure` claiming `holds`; it still needs its words and number.
const fn row(id: &'static str, figure: &'static str, holds: Holds) -> Row {
    Row {
        id,
        figure,
        claim: "",
        paper: None,
        holds,
        share: 1.0,
        check: false,
        targets: Targets::Analytic,
        arms: &[],
        measure: |_| f64::NAN,
    }
}

impl Row {
    const fn says(mut self, claim: &'static str) -> Row {
        self.claim = claim;
        self
    }

    const fn paper(mut self, value: f64) -> Row {
        self.paper = Some(value);
        self
    }

    const fn share(mut self, share: f64) -> Row {
        self.share = share;
        self
    }

    const fn check(mut self) -> Row {
        self.check = true;
        self
    }

    /// The number needs no simulation.
    const fn analytic(mut self, measure: fn(&Runs) -> f64) -> Row {
        self.measure = measure;
        self
    }

    /// The number comes from `targets` simulated under `arms`.
    const fn runs(
        mut self,
        targets: Targets,
        arms: &'static [Arm],
        measure: fn(&Runs) -> f64,
    ) -> Row {
        self.targets = targets;
        self.arms = arms;
        self.measure = measure;
        self
    }

    /// Every configuration the row measures at `scale`, target-major.
    pub fn grid(&self, scale: &Scale) -> Vec<SystemConfig> {
        let mut grid = Vec::new();
        for base in self.targets.baselines(scale) {
            grid.extend(self.arms.iter().map(|arm| arm(base.clone())));
        }
        grid
    }
}

/// An MCR mode of Table 1.
///
/// # Panics
///
/// Panics on a combination Table 1 does not have.
fn mode(m: u32, k: u32, frac: f64) -> McrMode {
    McrMode::new(m, k, frac).unwrap_or_else(|e| panic!("[{m}/{k}x/{frac}]: {e}"))
}

fn mcr(c: SystemConfig, m: u32, k: u32, frac: f64, mech: Mechanisms) -> SystemConfig {
    c.with_mode(mode(m, k, frac)).with_mechanisms(mech)
}

const BASE: Arm = |c| c;
/// [2/2x] at ratio 1.0 with Early-Access and Early-Precharge only.
const K22: Arm = |c| mcr(c, 2, 2, 1.0, Mechanisms::access_only());
/// [4/4x] at ratio 0.25, 0.5 and 1.0, EA+EP only (1.0 is Fig. 17 case 2).
const K44_QUARTER: Arm = |c| mcr(c, 4, 4, 0.25, Mechanisms::access_only());
const K44_HALF: Arm = |c| mcr(c, 4, 4, 0.5, Mechanisms::access_only());
const K44: Arm = |c| mcr(c, 4, 4, 1.0, Mechanisms::access_only());
/// Fig. 17 case 1 (EA), case 3 (+FR) and case 4 (+RS, at [2/4x]).
const EA: Arm = |c| mcr(c, 4, 4, 1.0, Mechanisms::fig17_case(1));
const FR: Arm = |c| mcr(c, 4, 4, 1.0, Mechanisms::fig17_case(3));
const RS: Arm = |c| mcr(c, 2, 4, 1.0, Mechanisms::fig17_case(4));
/// [4/4x/100%reg] with every mechanism: the headline configuration.
const ALL44: Arm = |c| mcr(c, 4, 4, 1.0, Mechanisms::all());

/// Fig. 11/14: base, then [2/2x] and [4/4x] at ratio 0.25/0.5/1.0, EA+EP.
const RATIO: &[Arm] = &[
    BASE,
    |c| mcr(c, 2, 2, 0.25, Mechanisms::access_only()),
    |c| mcr(c, 2, 2, 0.5, Mechanisms::access_only()),
    K22,
    K44_QUARTER,
    K44_HALF,
    K44,
];

/// Fig. 12/15: base, then [4/4x/50%reg] with 10/20/30 % allocation.
const ALLOC: &[Arm] = &[
    BASE,
    |c| K44_HALF(c).with_alloc_ratio(0.1),
    |c| K44_HALF(c).with_alloc_ratio(0.2),
    |c| K44_HALF(c).with_alloc_ratio(0.3),
];

/// Fig. 13/16: base, then M/4x for M = 4, 2, 1 at 25/50/75 %reg with
/// 10 % allocation and every mechanism.
const SKIP: &[Arm] = &[
    BASE,
    |c| mcr(c, 4, 4, 0.25, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| mcr(c, 4, 4, 0.5, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| mcr(c, 4, 4, 0.75, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| mcr(c, 2, 4, 0.25, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| mcr(c, 2, 4, 0.5, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| mcr(c, 2, 4, 0.75, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| mcr(c, 1, 4, 0.25, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| mcr(c, 1, 4, 0.5, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| mcr(c, 1, 4, 0.75, Mechanisms::all()).with_alloc_ratio(0.1),
];

/// Fig. 16 drops [1/4x], which quad-core runs make expensive.
const SKIP_K4: &[Arm] = &[
    SKIP[0], SKIP[1], SKIP[2], SKIP[3], SKIP[4], SKIP[5], SKIP[6],
];

/// Fig. 17: base, then cases 1-4.
const CASES: &[Arm] = &[BASE, EA, K44, FR, RS];

/// Fig. 18 and the headline: base, then [4/4x], [2/4x], [2/2x], [1/2x]
/// at 100 %reg with every mechanism.
const MODES: &[Arm] = &[
    BASE,
    ALL44,
    |c| mcr(c, 2, 4, 1.0, Mechanisms::all()),
    |c| mcr(c, 2, 2, 1.0, Mechanisms::all()),
    |c| mcr(c, 1, 2, 1.0, Mechanisms::all()),
];

/// Per mapping: base, then [4/4x] with every mechanism.
const MAPPING: &[Arm] = &[
    |c| c.with_mapping(MappingKind::PageInterleave),
    |c| ALL44(c).with_mapping(MappingKind::PageInterleave),
    |c| c.with_mapping(MappingKind::Permutation),
    |c| ALL44(c).with_mapping(MappingKind::Permutation),
    |c| c.with_mapping(MappingKind::BitReversal),
    |c| ALL44(c).with_mapping(MappingKind::BitReversal),
];

/// Base and [2/4x], each without and then with power-down after 60
/// idle cycles.
const POWERDOWN: &[Arm] = &[
    BASE,
    |c| c.with_powerdown(60),
    RS,
    |c| RS(c).with_powerdown(60),
];

/// Base, static 10 % allocation into [4/4x/50%reg], and the same region
/// run as a row cache that promotes after 4 accesses.
const ROW_CACHE: &[Arm] = &[
    BASE,
    |c| mcr(c, 4, 4, 0.5, Mechanisms::all()).with_alloc_ratio(0.1),
    |c| {
        let cache = RowCacheConfig {
            promote_threshold: 4,
        };
        mcr(c, 4, 4, 0.5, Mechanisms::all()).with_row_cache(cache)
    },
];

/// Memory-intensive workloads where latency effects are clearly visible.
const PROBES: &[&str] = &["libq", "leslie", "mummer"];

/// Smallest successive mean exec gain along `arms` (each against arm 0).
fn min_step(r: &Runs, arms: &[usize]) -> f64 {
    min_of(
        arms.windows(2)
            .map(|w| r.mean(0, w[1], EXEC) - r.mean(0, w[0], EXEC)),
    )
}

/// Exec gain 20→30 % allocation minus 10→20 %: negative when returns
/// diminish.
fn alloc_curvature(r: &Runs) -> f64 {
    let e = [1, 2, 3].map(|i| r.mean(0, i, EXEC));
    (e[2] - e[1]) - (e[1] - e[0])
}

/// The circuit model fitted to Table 3 (computed once per process).
fn fit() -> &'static FitReport {
    static FIT: OnceLock<FitReport> = OnceLock::new();
    FIT.get_or_init(|| calibrate(CircuitParams::calibrated()))
}

/// Largest relative error (%) of `model` against `paper` over Table 3's modes.
fn table3_error(model: impl Fn(&TimingSolver, u32, u32) -> f64, paper: fn(u32, u32) -> f64) -> f64 {
    let s = TimingSolver::new(fit().params);
    let errs = PaperTable3::modes().map(|(m, k)| (model(&s, m, k) / paper(m, k) - 1.0).abs());
    max_of(errs) * 100.0
}

/// Fig. 9: per-visit REF/Skip pattern of MCR group 0 in mode [M/4x].
fn skip_pattern(m: u32) -> Vec<bool> {
    let geometry = Geometry::single_core_4gb();
    let mut policy = McrPolicy::for_geometry(mode(m, 4, 1.0), Mechanisms::all(), &geometry);
    // The four visits of group 0 per 15-bit sweep, at counter values j << 13.
    let sweep = 1u64 << 15;
    (0..sweep)
        .map(|c| (c, policy.refresh_action(0, 0) != RefreshAction::Skip))
        .filter(|(c, _)| c.is_multiple_of(sweep / 4))
        .map(|(_, refreshed)| refreshed)
        .collect()
}

/// Largest deviation (ms) of the worst per-MCR refresh interval from
/// `want` for K = 2 and 4.
fn interval_error(bits: u32, wiring: RefreshWiring, want: [f64; 2]) -> f64 {
    let got = [2, 4].map(|k| max_refresh_interval_ms(bits, wiring, k, 64.0));
    max_of(got.iter().zip(want).map(|(g, w)| (g - w).abs()))
}

/// Every claim, in EXPERIMENTS.md order.
pub const ROWS: &[Row] = &[
    row("table3.trcd_fit", "Table 3", Holds::AtMost(0.3))
        .says("circuit model's largest tRCD error against Table 3 (%)")
        .check()
        .analytic(|_| table3_error(|s, _, k| s.t_rcd_ns(k), |_, k| PaperTable3::t_rcd_ns(k))),
    row("table3.tras_fit", "Table 3", Holds::AtMost(3.6))
        .says("Known delta 4: circuit model's largest tRAS error against Table 3 (%)")
        .check()
        .analytic(|_| table3_error(TimingSolver::t_ras_ns, PaperTable3::t_ras_ns)),
    row("table3.trfc_fit", "Table 3", Holds::AtMost(2.5))
        .says("largest tRFC error of the ck(tRAS)+ck(tRP) rule, 1 Gb and 4 Gb (%)")
        .check()
        .analytic(|_| {
            let gb1 = table3_error(|s, m, k| s.t_rfc_ns(m, k, 110.0), PaperTable3::t_rfc_1gb_ns);
            let gb4 = table3_error(|s, m, k| s.t_rfc_ns(m, k, 260.0), PaperTable3::t_rfc_4gb_ns);
            gb1.max(gb4)
        }),
    row("fig8.sequences", "Fig. 8", Holds::AtLeast(1.0))
        .says("3-bit addresses: K-to-K 0..7, K-to-N-1-K 0,4,2,6,1,5,3,7 (1 = exact)")
        .check()
        .analytic(|_| {
            yes(
                refresh_schedule(3, RefreshWiring::Direct) == [0, 1, 2, 3, 4, 5, 6, 7]
                    && refresh_schedule(3, RefreshWiring::Reversed) == [0, 4, 2, 6, 1, 5, 3, 7],
            )
        }),
    row("fig8.intervals", "Fig. 8", Holds::AtMost(0.0))
        .says("3-bit worst 2x/4x interval off 56/40 ms (K-to-K), 32/16 (K-to-N-1-K) (ms)")
        .check()
        .analytic(|_| {
            let direct = interval_error(3, RefreshWiring::Direct, [56.0, 40.0]);
            direct.max(interval_error(3, RefreshWiring::Reversed, [32.0, 16.0]))
        }),
    row("fig8.uniform_at_15_bits", "Fig. 8", Holds::AtMost(0.0005))
        .says("15-bit K-to-N-1-K worst interval off the uniform 32/16 ms (ms)")
        .check()
        .analytic(|_| interval_error(15, RefreshWiring::Reversed, [32.0, 16.0])),
    row("fig9.patterns", "Fig. 9", Holds::AtLeast(1.0))
        .says("REF/Skip per visit: 4/4x RRRR, 2/4x RSRS, 1/4x RSSS (1 = exact)")
        .check()
        .analytic(|_| {
            yes(skip_pattern(4) == [true; 4]
                && skip_pattern(2) == [true, false, true, false]
                && skip_pattern(1) == [true, false, false, false])
        }),
    row("fig9.skips_grow_as_m_drops", "Fig. 9", Holds::AtLeast(1.0))
        .says("libq: skipped refresh slots 0 at [4/4x] < [2/4x] < [1/4x] (1 = holds)")
        .runs(
            Single(&["libq"]),
            &[ALL44, RS, |c| mcr(c, 1, 4, 1.0, Mechanisms::all())],
            |r| {
                r.min(|t| {
                    let s = t
                        .iter()
                        .map(|r| r.controller.refresh.skipped)
                        .collect::<Vec<_>>();
                    yes(s[0] == 0 && 0 < s[1] && s[1] < s[2])
                })
            },
        ),
    row("fig10.crossings", "Fig. 10", Holds::AtMost(0.05))
        .says("time to the accessible voltage off 13.7/10.0/6.9 ns for 1x/2x/4x (ns)")
        .check()
        .analytic(|_| {
            let s = TimingSolver::new(CircuitParams::calibrated());
            max_of([(1, 13.7), (2, 10.0), (4, 6.9)].map(|(k, ns)| (s.t_rcd_ns(k) - ns).abs()))
        }),
    row("fig10.restore_crossover", "Fig. 10", Holds::AtLeast(1.0))
        .says("restore curves cross: higher K starts higher, restores slower (1 = holds)")
        .check()
        .analytic(|_| {
            let s = TimingSolver::new(CircuitParams::calibrated());
            let (v, tau) = (
                [1, 2, 4].map(|k| s.restore_start_v(k)),
                [1, 2, 4].map(|k| s.restore_tau_ns(k)),
            );
            yes(v[0] < v[1] && v[1] < v[2] && tau[0] < tau[1] && tau[1] < tau[2])
        }),
    row("fig11.k44_exec", "Fig. 11", Holds::Between(4.9, 10.9))
        .says("mean exec-time reduction, [4/4x] ratio 1.0, EA+EP (%)")
        .paper(7.9)
        .runs(AllSingle, RATIO, |r| r.mean(0, 6, EXEC)),
    row("fig11.k44_latency", "Fig. 11", Holds::Between(9.5, 15.5))
        .says("mean read-latency reduction, [4/4x] ratio 1.0 (%)")
        .paper(12.5)
        .runs(AllSingle, RATIO, |r| r.mean(0, 6, LAT)),
    row("fig11.k22_exec", "Fig. 11", Holds::Between(2.7, 8.7))
        .says("mean exec-time reduction, [2/2x] ratio 1.0 (%)")
        .paper(5.7)
        .runs(AllSingle, RATIO, |r| r.mean(0, 3, EXEC)),
    row("fig11.k22_latency", "Fig. 11", Holds::Between(5.5, 11.5))
        .says("mean read-latency reduction, [2/2x] ratio 1.0 (%)")
        .paper(8.5)
        .runs(AllSingle, RATIO, |r| r.mean(0, 3, LAT)),
    row("fig11.k22_beats_k44_half", "Fig. 11", Holds::Above(0.0))
        .says("[2/2x]@1.0 minus [4/4x]@0.5, mean exec reduction (points)")
        .runs(AllSingle, RATIO, |r| {
            r.mean(0, 3, EXEC) - r.mean(0, 5, EXEC)
        }),
    row("fig11.monotone_in_ratio", "Fig. 11", Holds::AtLeast(0.0))
        .says("smallest mean exec gain from one ratio to the next, both modes (points)")
        .runs(AllSingle, RATIO, |r| {
            nan_min(min_step(r, &[1, 2, 3]), min_step(r, &[4, 5, 6]))
        }),
    row("fig11.k44_beats_k22", "Fig. 11", Holds::AtLeast(0.0))
        .says("[4/4x] minus [2/2x] mean exec reduction, smallest over the ratios (points)")
        .runs(AllSingle, RATIO, |r| {
            min_of((1..=3).map(|i| r.mean(0, i + 3, EXEC) - r.mean(0, i, EXEC)))
        }),
    row("probe.latency_cut", "Fig. 11", Holds::Above(0.0))
        .says("libq/leslie/mummer: smallest read-latency cut, [4/4x]@1.0, EA+EP (%)")
        .check()
        .runs(Single(PROBES), &[BASE, K44], |r| {
            r.min(|t| Outcome::versus("", t[0], t[1]).latency_reduction)
        }),
    row("probe.ratio_1_vs_0_25", "Fig. 11", Holds::Above(-0.3))
        .says("libq/leslie: smallest read latency at [4/4x]@0.25 minus @1.0 (cycles)")
        .check()
        .runs(
            Single(&["libq", "leslie"]),
            &[BASE, K44_QUARTER, K44],
            |r| r.min(|t| t[1].avg_read_latency - t[2].avg_read_latency),
        ),
    row("probe.ratio_1_vs_base", "Fig. 11", Holds::Above(0.0))
        .says("libq/leslie: smallest baseline read latency minus [4/4x]@1.0's (cycles)")
        .check()
        .runs(
            Single(&["libq", "leslie"]),
            &[BASE, K44_QUARTER, K44],
            |r| r.min(|t| t[0].avg_read_latency - t[2].avg_read_latency),
        ),
    row("probe.k44_vs_k22", "Fig. 11", Holds::AtLeast(-0.5))
        .says("probes: smallest [4/4x] minus [2/2x] read-latency cut at ratio 1.0 (points)")
        .check()
        .runs(Single(PROBES), &[BASE, K22, K44], |r| {
            r.min(|t| {
                let cut = |i| Outcome::versus("", t[0], t[i]).latency_reduction;
                cut(2) - cut(1)
            })
        }),
    row("probe.k22_full_vs_k44_half", "Fig. 11", Holds::AtLeast(2.0))
        .says("probes where [2/2x]@1.0's read latency ≤ [4/4x]@0.5's + 0.2 cycles")
        .check()
        .runs(Single(PROBES), &[K22, K44_HALF], |r| {
            r.count(|t| t[0].avg_read_latency <= t[1].avg_read_latency + 0.2)
        }),
    row("fig12.monotone_in_alloc", "Fig. 12", Holds::AtLeast(0.0))
        .says("[4/4x/50%reg]: smallest mean exec gain, 10 → 20 → 30 % allocation (points)")
        .runs(AllSingle, ALLOC, |r| min_step(r, &[1, 2, 3])),
    row("fig12.diminishing_returns", "Fig. 12", Holds::AtMost(0.0))
        .says("exec gain 20→30 % minus gain 10→20 % allocation (points)")
        .runs(AllSingle, ALLOC, alloc_curvature),
    row("fig13.skipping_order", "Fig. 13", Holds::AtLeast(0.0))
        .says("smallest step of 4/4x ≥ 2/4x ≥ 1/4x mean exec cut, 25/50/75 %reg (points)")
        .runs(AllSingle, SKIP, |r| {
            min_of((1..=3).flat_map(|reg| {
                let e = [0, 3, 6].map(|m| r.mean(0, reg + m, EXEC));
                [e[0] - e[1], e[1] - e[2]]
            }))
        }),
    row("fig13.k24_ties_k44", "Fig. 13", Holds::Between(-0.5, 0.5))
        .says("[4/4x/75%reg] minus [2/4x/75%reg] mean exec reduction (points)")
        .runs(AllSingle, SKIP, |r| r.mean(0, 3, EXEC) - r.mean(0, 6, EXEC)),
    row("fig14.k44_latency", "Fig. 14", Holds::Between(7.2, 13.2))
        .says("quad-core mean read-latency reduction, [4/4x] ratio 1.0 (%)")
        .paper(10.2)
        .runs(AllMixes, RATIO, |r| r.mean(0, 6, LAT)),
    row("fig14.multi_exec_gap", "Fig. 14", Holds::Between(1.0, 5.0))
        .says("Known delta 2: paper's 10.3 % minus quad-core mean exec cut, [4/4x] (points)")
        .runs(AllMixes, RATIO, |r| 10.3 - r.mean(0, 6, EXEC)),
    row("fig14.k22_beats_k44_half", "Fig. 14", Holds::Above(0.0))
        .says("quad-core [2/2x]@1.0 minus [4/4x]@0.5, mean exec reduction (points)")
        .runs(AllMixes, RATIO, |r| r.mean(0, 3, EXEC) - r.mean(0, 5, EXEC)),
    row("fig14.monotone_in_ratio", "Fig. 14", Holds::AtLeast(0.0))
        .says("quad-core smallest mean exec gain from one ratio to the next (points)")
        .runs(AllMixes, RATIO, |r| {
            nan_min(min_step(r, &[1, 2, 3]), min_step(r, &[4, 5, 6]))
        }),
    row("fig15.alloc30_exec", "Fig. 15", Holds::Between(4.8, 10.8))
        .says("quad-core mean exec reduction at 30 % allocation (%)")
        .paper(7.8)
        .runs(AllMixes, ALLOC, |r| r.mean(0, 3, EXEC)),
    row("fig15.monotone_in_alloc", "Fig. 15", Holds::AtLeast(0.0))
        .says("quad-core smallest mean exec gain, 10 → 20 → 30 % allocation (points)")
        .runs(AllMixes, ALLOC, |r| min_step(r, &[1, 2, 3])),
    row("fig15.diminishing_returns", "Fig. 15", Holds::AtMost(0.0))
        .says("quad-core gain 20→30 % minus gain 10→20 % allocation (points)")
        .runs(AllMixes, ALLOC, alloc_curvature),
    row("fig16.k24_tracks_k44", "Fig. 16", Holds::AtMost(0.3))
        .says("quad-core gap between [4/4x] and [2/4x] mean exec cut, largest %reg (points)")
        .runs(AllMixes, SKIP_K4, |r| {
            max_of((1..=3).map(|i| (r.mean(0, i, EXEC) - r.mean(0, i + 3, EXEC)).abs()))
        }),
    row("fig16.k24_75_sometimes_wins", "Fig. 16", Holds::Above(0.0))
        .says("quad-core [2/4x/75%reg] minus [4/4x/75%reg] mean exec cut (points)")
        .share(0.2)
        .runs(AllMixes, SKIP_K4, |r| {
            r.mean(0, 6, EXEC) - r.mean(0, 3, EXEC)
        }),
    row("fig17.single_ep_adds", "Fig. 17", Holds::Above(0.0))
        .says("single-core case 2 (EA+EP) minus case 1 (EA), mean exec cut (points)")
        .runs(AllSingle, CASES, |r| {
            r.mean(0, 2, EXEC) - r.mean(0, 1, EXEC)
        }),
    row("fig17.single_fr_adds", "Fig. 17", Holds::AtLeast(0.0))
        .says("single-core case 3 (+FR) minus case 2 (points)")
        .runs(AllSingle, CASES, |r| {
            r.mean(0, 3, EXEC) - r.mean(0, 2, EXEC)
        }),
    row("fig17.rs_not_at_4gb", "Fig. 17", Holds::AtMost(0.1))
        .says("single-core (4 GB) case 4 (+RS, [2/4x]) minus case 3: no help (points)")
        .runs(AllSingle, CASES, |r| {
            r.mean(0, 4, EXEC) - r.mean(0, 3, EXEC)
        }),
    row("fig17.ea_largest_lever", "Fig. 17", Holds::AtLeast(0.0))
        .says("single-core case 1 minus the largest later increment (points)")
        .runs(AllSingle, CASES, |r| {
            let c = [1, 2, 3, 4].map(|i| r.mean(0, i, EXEC));
            c[0] - max_of((1..4).map(|i| c[i] - c[i - 1]))
        }),
    row("fig17.multi_ep_adds", "Fig. 17", Holds::Above(0.0))
        .says("quad-core (6 mixes) case 2 minus case 1 (points)")
        .runs(Mixes(6), CASES, |r| r.mean(0, 2, EXEC) - r.mean(0, 1, EXEC)),
    row("fig17.multi_fr_adds", "Fig. 17", Holds::AtLeast(0.0))
        .says("quad-core case 3 minus case 2 (points)")
        .runs(Mixes(6), CASES, |r| r.mean(0, 3, EXEC) - r.mean(0, 2, EXEC)),
    row("fig17.rs_helps_at_16gb", "Fig. 17", Holds::Above(0.1))
        .says("quad-core (16 GB) case 4 minus case 3: RS helps (points)")
        .runs(Mixes(6), CASES, |r| r.mean(0, 4, EXEC) - r.mean(0, 3, EXEC)),
    row("probe.fr_cuts_refresh_energy", "Fig. 17", Holds::Above(0.0))
        .says("comm1: refresh-energy cut of case 3 (+FR) against the baseline (%)")
        .check()
        .runs(Single(&["comm1"]), &[BASE, FR, RS], |r| {
            r.min(|t| reduction_pct(t[0].energy.refresh_pj, t[1].energy.refresh_pj))
        }),
    row("probe.rs_skips", "Fig. 17", Holds::Above(0.0))
        .says("comm1: refresh slots skipped by case 4 ([2/4x])")
        .check()
        .runs(Single(&["comm1"]), &[BASE, FR, RS], |r| {
            r.min(|t| t[2].controller.refresh.skipped as f64)
        }),
    row("probe.rs_cuts_refresh_energy", "Fig. 17", Holds::Above(0.0))
        .says("comm1: refresh-energy cut of case 4 against case 3 (%)")
        .check()
        .runs(Single(&["comm1"]), &[BASE, FR, RS], |r| {
            r.min(|t| reduction_pct(t[1].energy.refresh_pj, t[2].energy.refresh_pj))
        }),
    row("probe.ep_adds", "Fig. 17", Holds::AtLeast(-0.3))
        .says("mummer: case 2 (EA+EP) minus case 1 (EA) exec reduction (points)")
        .check()
        .runs(Single(&["mummer"]), &[BASE, EA, K44], |r| {
            r.mean(0, 2, EXEC) - r.mean(0, 1, EXEC)
        }),
    row("fig18.k44_best_single_edp", "Fig. 18", Holds::AtLeast(0.0))
        .says("single-core [4/4x] minus the best other mode, mean EDP cut (points)")
        .runs(AllSingle, MODES, |r| {
            r.mean(0, 1, EDP) - max_of((2..=4).map(|i| r.mean(0, i, EDP)))
        }),
    row("fig18.multi_edp_gap", "Fig. 18", Holds::Between(4.0, 8.0))
        .says("Known delta 3: paper's 23.2 % minus quad-core (8 mixes) EDP cut (points)")
        .runs(Mixes(8), &[BASE, ALL44], |r| 23.2 - r.mean(0, 1, EDP)),
    row("probe.edp_improves", "Fig. 18", Holds::AtLeast(2.0))
        .says("probes whose EDP improves at [4/4x/100%reg]")
        .check()
        .runs(Single(PROBES), &[BASE, ALL44], |r| {
            r.count(|t| Outcome::versus("", t[0], t[1]).edp_reduction > 0.0)
        }),
    row("headline.exec", "Headline", Holds::Between(5.3, 11.3))
        .says("single-core mean exec-time reduction, [4/4x/100%reg], all mechanisms (%)")
        .paper(8.3)
        .runs(AllSingle, MODES, |r| r.mean(0, 1, EXEC)),
    row("headline.edp", "Headline", Holds::Between(11.1, 17.1))
        .says("single-core mean EDP reduction, [4/4x/100%reg] (%)")
        .paper(14.1)
        .runs(AllSingle, MODES, |r| r.mean(0, 1, EDP)),
    row("headline.latency_gap", "Headline", Holds::Between(1.0, 4.0))
        .says("Known delta 1: paper's 13.1 % minus mean read-latency cut, [4/4x] (points)")
        .runs(AllSingle, MODES, |r| 13.1 - r.mean(0, 1, LAT)),
    row("ablation.scheduler", "Ablation", Holds::AtLeast(0.0))
        .says("MCR's mean exec gain under FCFS minus under FR-FCFS (points)")
        .runs(
            Single(&["libq", "leslie", "mummer", "comm1", "stream"]),
            &[
                BASE,
                ALL44,
                |c| c.with_scheduler(SchedulerKind::Fcfs),
                |c| ALL44(c).with_scheduler(SchedulerKind::Fcfs),
            ],
            |r| r.mean(2, 3, EXEC) - r.mean(0, 1, EXEC),
        ),
    row("ablation.wiring", "Ablation", Holds::AtLeast(1.0))
        .says("2x/4x restore targets retention-safe with K-to-N-1-K, not K-to-K (1 = holds)")
        .check()
        .analytic(|_| {
            let p = CircuitParams::calibrated();
            let (solver, leak) = (TimingSolver::new(p), LeakageModel::new(p));
            let safe = |wiring, k: u32| {
                let worst = max_refresh_interval_ms(15, wiring, u64::from(k), 64.0);
                leak.survives(solver.restore_target_v(k), worst)
            };
            yes([2, 4]
                .iter()
                .all(|&k| safe(RefreshWiring::Reversed, k) && !safe(RefreshWiring::Direct, k)))
        }),
    row("ablation.row_policy", "Ablation", Holds::AtLeast(0.0))
        .says("closed-page minus open-page mean read-latency gain from MCR (points)")
        .runs(
            Single(&["libq", "leslie", "mummer", "tigr", "comm1"]),
            &[
                BASE,
                ALL44,
                |c| c.with_row_policy(RowPolicy::Closed),
                |c| ALL44(c).with_row_policy(RowPolicy::Closed),
            ],
            |r| r.mean(2, 3, LAT) - r.mean(0, 1, LAT),
        ),
    row("ablation.mapping_gain", "Ablation", Holds::Above(0.0))
        .says("smallest mean MCR exec gain over the three address mappings (%)")
        .runs(
            Single(&["libq", "comm1", "mummer", "stream"]),
            MAPPING,
            |r| min_of([0, 2, 4].map(|a| r.mean(a, a + 1, EXEC))),
        ),
    row("ablation.mapping_spread", "Ablation", Holds::AtMost(1.0))
        .says("largest minus smallest of those gains: insensitive to mapping (points)")
        .runs(
            Single(&["libq", "comm1", "mummer", "stream"]),
            MAPPING,
            |r| {
                let gains = [0, 2, 4].map(|a| r.mean(a, a + 1, EXEC));
                max_of(gains) - min_of(gains)
            },
        ),
    row("ablation.powerdown_cut", "Ablation", Holds::Above(0.0))
        .says("smallest background-energy cut from power-down, baseline and [2/4x] (%)")
        .runs(Single(&["black", "face", "swapt"]), POWERDOWN, |r| {
            let bg = |t: &[&RunReport], a: usize| {
                reduction_pct(t[a].energy.background_pj, t[a + 1].energy.background_pj)
            };
            r.min(|t| nan_min(bg(t, 0), bg(t, 2)))
        }),
    row("ablation.powerdown_mcr", "Ablation", Holds::AtLeast(0.0))
        .says("black: EDP cut from power-down under [2/4x] minus under the baseline (points)")
        .runs(Single(&["black"]), POWERDOWN, |r| {
            r.min(|t| reduction_pct(t[2].edp, t[3].edp) - reduction_pct(t[0].edp, t[1].edp))
        }),
    row("rowcache.comm2_hit_rate", "Row cache", Holds::AtLeast(0.8))
        .says("hit rate of the dynamic MCR row cache on hot-skewed comm2")
        .runs(Single(&["comm2"]), ROW_CACHE, |r| {
            r.min(|t| {
                t[2].cache
                    .as_ref()
                    .map_or(f64::NAN, |c| c.hits as f64 / (c.hits + c.misses) as f64)
            })
        }),
    row("rowcache.recovery", "Row cache", Holds::Between(0.4, 0.8))
        .says("comm2: the cache's read-latency cut over static 10 % allocation's (ratio)")
        .runs(Single(&["comm2"]), ROW_CACHE, |r| {
            r.mean(0, 2, LAT) / r.mean(0, 1, LAT)
        }),
    row("rowcache.libq_loses", "Row cache", Holds::AtMost(0.0))
        .says("streaming libq: the cache's read-latency cut; copies cost more (%)")
        .runs(Single(&["libq"]), ROW_CACHE, |r| r.mean(0, 2, LAT)),
];

/// A row's numbers over the seed band, and its verdict.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The row.
    pub row: Row,
    /// `(seed, number)` in seed order.
    pub values: Vec<(u64, f64)>,
}

impl Verdict {
    /// Seeds at which the row's predicate holds (`true`) or fails (NaN
    /// fails).
    pub fn seeds_where(&self, holds: bool) -> Vec<u64> {
        let (test, values) = (self.row.holds, &self.values);
        values
            .iter()
            .filter(|v| test.test(v.1) == holds)
            .map(|v| v.0)
            .collect()
    }

    /// Whether the predicate holds at no fewer seeds than the row's share.
    pub fn passes(&self) -> bool {
        let needed = (self.row.share * self.values.len() as f64 - 1e-9).ceil();
        self.seeds_where(true).len() as f64 >= needed
    }

    /// Minimum, median and maximum over seeds (NaN sorts last).
    ///
    /// # Panics
    ///
    /// Panics when there are no seeds.
    pub fn spread(&self) -> (f64, f64, f64) {
        let mut xs: Vec<f64> = self.values.iter().map(|v| v.1).collect();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        (xs[0], (xs[(n - 1) / 2] + xs[n / 2]) / 2.0, xs[n - 1])
    }

    /// The seed column: "all", or the seeds it fails at, or (when it
    /// holds at fewer than half) the seeds it holds at.
    pub fn seed_note(&self) -> String {
        let (holding, failing) = (self.seeds_where(true), self.seeds_where(false));
        let list = |seeds: Vec<u64>| format!("{seeds:?}").replace(['[', ']'], "");
        match (holding.len(), failing.len()) {
            (_, 0) => "all".to_string(),
            (0, _) => "none".to_string(),
            (h, f) if h < f => format!("holds at {}", list(holding)),
            _ => format!("fails at {}", list(failing)),
        }
    }
}

/// The ledger of one scale: a verdict per row plus how the grid ran.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// The scale measured.
    pub scale: Scale,
    /// One verdict per row, in [`ROWS`] order.
    pub verdicts: Vec<Verdict>,
    /// Grid points (distinct configurations × seeds).
    pub points: usize,
    /// Points that had to be simulated (the rest were store hits).
    pub simulated: usize,
}

/// The rows a scale runs.
fn rows(scale: &Scale) -> impl Iterator<Item = &'static Row> + '_ {
    ROWS.iter().filter(|r| scale.every_row || r.check)
}

/// Runs every row of `scale` as one grid through `store` and judges it.
///
/// # Panics
///
/// Panics if a row's configuration fails validation (a ledger bug).
pub fn evaluate(scale: &Scale, store: &dyn ReportStore) -> Ledger {
    let mut seen = HashSet::new();
    let mut builder = SweepBuilder::new(scale.single_len).seeds(scale.seeds.iter().copied());
    for row in rows(scale) {
        for cfg in row.grid(scale) {
            if seen.insert(cfg.config_key()) {
                builder = builder.point(row.id, cfg);
            }
        }
    }
    let results = builder
        .build()
        .unwrap_or_else(|e| panic!("claims grid: {e}"))
        .run_with_store(store);
    let (points, simulated) = (results.points.len(), results.cache_misses());
    let reports: HashMap<u64, RunReport> = results
        .points
        .into_iter()
        .map(|p| (p.key, p.report))
        .collect();
    let verdicts = rows(scale)
        .map(|row| {
            let grid = row.grid(scale);
            let values = scale
                .seeds
                .iter()
                .map(|&seed| {
                    let runs = Runs {
                        reports: grid
                            .iter()
                            .map(|c| &reports[&c.clone().with_seed(seed).config_key()])
                            .collect(),
                        arms: row.arms.len(),
                    };
                    (seed, (row.measure)(&runs))
                })
                .collect();
            Verdict { row: *row, values }
        })
        .collect();
    Ledger {
        scale: *scale,
        verdicts,
        points,
        simulated,
    }
}

impl Ledger {
    /// Whether every row meets its share.
    pub fn passes(&self) -> bool {
        self.verdicts.iter().all(Verdict::passes)
    }

    /// The ledger as Markdown: one table per figure, in row order.
    pub fn render(&self) -> String {
        let s = &self.scale;
        let mut out = format!(
            "{} scale: {} single-core / {} per-core quad-core operations, seeds {:?}; \
             min / median / max over the seeds.\n",
            s.name, s.single_len, s.multi_len, s.seeds
        );
        let mut figure = "";
        for v in &self.verdicts {
            let row = &v.row;
            if row.figure != figure {
                figure = row.figure;
                out.push_str(&format!(
                    "\n### {figure}\n\n\
                     | row | claim | paper | holds if | share | min | median | max | verdict | seeds |\n\
                     |---|---|---|---|---|---|---|---|---|---|\n"
                ));
            }
            let (min, median, max) = v.spread();
            let paper = row.paper.map_or("—".to_string(), |p| p.to_string());
            let verdict = if v.passes() { "PASS" } else { "**FAIL**" };
            out.push_str(&format!(
                "| `{}` | {} | {paper} | {} | {} | {min:.3} | {median:.3} | {max:.3} | {verdict} | {} |\n",
                row.id,
                row.claim,
                row.holds,
                row.share,
                v.seed_note()
            ));
        }
        out
    }
}

/// Marks the generated part of EXPERIMENTS.md.
pub const BEGIN: &str = "<!-- claims:begin (generated by `make claims`; do not edit) -->";
/// Ends the generated part of EXPERIMENTS.md.
pub const END: &str = "<!-- claims:end -->";

/// `doc` with the text between [`BEGIN`] and [`END`] replaced by
/// `generated`, or `None` when a marker is missing.
pub fn splice(doc: &str, generated: &str) -> Option<String> {
    let start = doc.find(BEGIN)? + BEGIN.len();
    let end = start + doc[start..].find(END)?;
    Some(format!("{}\n{generated}{}", &doc[..start], &doc[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A verdict for `row` with one synthetic number per seed.
    fn verdict(holds: Holds, share: f64, xs: &[f64]) -> Verdict {
        let row = row("test.row", "Test", holds).share(share);
        let values = (2015..).zip(xs.iter().copied()).collect();
        Verdict { row, values }
    }

    /// The CHECK rows (analytic, plus the libq/leslie/mummer/comm1
    /// probes at 12k operations) gate `cargo test`.
    #[test]
    fn check_scale_rows_meet_their_share() {
        let ledger = evaluate(&CHECK, &mcr_dram::ResultCache::new());
        assert!(ledger.passes(), "{}", ledger.render());
    }

    #[test]
    fn one_failing_seed_of_five_fails_the_row_and_is_named() {
        let v = verdict(Holds::Above(0.0), 1.0, &[1.0, 2.0, -0.5, 3.0, 4.0]);
        assert!(!v.passes());
        assert_eq!(v.seeds_where(false), [2017]);
        assert_eq!(v.seed_note(), "fails at 2017");
    }

    #[test]
    fn the_stated_share_is_honoured() {
        let xs = [1.0, -1.0, -1.0, -1.0, -1.0];
        assert!(verdict(Holds::Above(0.0), 0.2, &xs).passes());
        assert!(!verdict(Holds::Above(0.0), 0.4, &xs).passes());
        let v = verdict(Holds::Above(0.0), 0.2, &xs);
        assert_eq!(v.seed_note(), "holds at 2015");
        let four_of_five = [1.0, 1.0, -1.0, 1.0, 1.0];
        assert!(verdict(Holds::Above(0.0), 0.8, &four_of_five).passes());
        assert!(!verdict(Holds::Above(0.0), 0.81, &four_of_five).passes());
    }

    #[test]
    fn spread_of_an_even_seed_count() {
        let v = verdict(Holds::AtLeast(0.0), 1.0, &[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(v.spread(), (1.0, 2.5, 4.0));
        let odd = verdict(Holds::AtLeast(0.0), 1.0, &[5.0, 1.0, 3.0]);
        assert_eq!(odd.spread(), (1.0, 3.0, 5.0));
    }

    #[test]
    fn nan_is_a_failure_never_a_pass() {
        let undefined = reduction_pct(0.0, 5.0);
        assert!(undefined.is_nan());
        for holds in [
            Holds::Above(f64::NEG_INFINITY),
            Holds::AtLeast(f64::NEG_INFINITY),
            Holds::AtMost(f64::INFINITY),
            Holds::Between(f64::NEG_INFINITY, f64::INFINITY),
        ] {
            assert!(!holds.test(undefined), "{holds}");
            let v = verdict(holds, 1.0, &[1.0, undefined, 1.0]);
            assert!(!v.passes());
            assert_eq!(v.seeds_where(false), [2016]);
        }
        assert!(min_of([1.0, f64::NAN]).is_nan());
        assert!(max_of([1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn splice_replaces_only_the_generated_part() {
        let doc = format!("intro\n{BEGIN}\nold\n{END}\noutro\n");
        let new = splice(&doc, "new\n").expect("markers present");
        assert_eq!(new, format!("intro\n{BEGIN}\nnew\n{END}\noutro\n"));
        assert_eq!(splice("no markers", "x"), None);
    }

    #[test]
    fn row_ids_are_unique_and_name_their_figure() {
        let mut ids = HashSet::new();
        for row in ROWS {
            assert!(ids.insert(row.id), "duplicate row {}", row.id);
            assert!(
                !row.figure.is_empty() && !row.claim.is_empty(),
                "{}",
                row.id
            );
            assert!(row.share > 0.0 && row.share <= 1.0, "{}", row.id);
        }
    }
}

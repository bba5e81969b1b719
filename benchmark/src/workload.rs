//! The four benchmark workloads and the correctness gate's digests.

use mcr_dram::{McrMode, Mechanisms, RunReport, SweepBuilder, SystemConfig};

/// The seed the pinned digests were taken at.
pub const PINNED_SEED: u64 = 2015;

/// Unit tests check behaviour, not speed: they cut every trace 100-fold.
const LEN_DIVISOR: usize = if cfg!(test) { 100 } else { 1 };

/// Trace length per point of the `fig11_sweep` grid.
const SWEEP_LEN: usize = 20_000 / LEN_DIVISOR;

/// Index of the libq 4/4x@100% point in the `fig11_sweep` grid: the point
/// whose layers the traced run of that workload profiles.
const SWEEP_PROFILED_POINT: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LibqHeadline,
    BlackPowerdown,
    MixQuad,
    Fig11Sweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LibqHeadline,
        Workload::BlackPowerdown,
        Workload::MixQuad,
        Workload::Fig11Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LibqHeadline => "libq_headline",
            Workload::BlackPowerdown => "black_powerdown",
            Workload::MixQuad => "mix_quad",
            Workload::Fig11Sweep => "fig11_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the grid workload (measured through the sweep engine and
    /// the persistent store); the others are one `System` run each.
    pub fn is_sweep(self) -> bool {
        self == Workload::Fig11Sweep
    }

    /// The sweep that computes this workload's points. Single-run
    /// workloads are one-point sweeps on one worker; the grid runs on at
    /// most two workers, never more than the host has cores.
    pub fn sweep(self, seed: u64) -> SweepBuilder {
        match self {
            Workload::Fig11Sweep => {
                let mode = |m, k, frac| McrMode::new(m, k, frac).expect("Table 1 mode");
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                SweepBuilder::new(SWEEP_LEN)
                    .workloads(["libq", "comm1", "leslie"])
                    .mode(McrMode::off())
                    .mode(mode(2, 2, 1.0))
                    .mode(mode(4, 4, 0.5))
                    .mode(McrMode::headline())
                    .mechanisms(Mechanisms::access_only())
                    .seed(seed)
                    .jobs(cores.min(2))
            }
            single => SweepBuilder::new(1)
                .point(single.name(), single.config(seed))
                .jobs(1),
        }
    }

    /// The configuration of a single-run workload, or of the grid point
    /// the traced run profiles for `fig11_sweep`.
    pub fn config(self, seed: u64) -> SystemConfig {
        let profile = |name| trace_gen::workload(name).expect("built-in workload");
        match self {
            Workload::LibqHeadline => SystemConfig::single_core("libq", 100_000 / LEN_DIVISOR)
                .with_mode(McrMode::headline()),
            Workload::BlackPowerdown => SystemConfig::single_core("black", 50_000 / LEN_DIVISOR)
                .with_mode(McrMode::new(1, 2, 1.0).expect("Table 1 mode"))
                .with_powerdown(64),
            // mix01 of the paper's seed-2015 draw, pinned by name so the
            // benchmark seed varies the traces, not the composition.
            Workload::MixQuad => SystemConfig::multi_core(
                [
                    profile("comm3"),
                    profile("leslie"),
                    profile("fluid"),
                    profile("mummer"),
                ],
                12_500 / LEN_DIVISOR,
            )
            .with_mode(McrMode::headline()),
            Workload::Fig11Sweep => {
                let sweep = self.sweep(seed).build().expect("valid grid");
                return sweep.points()[SWEEP_PROFILED_POINT].config.clone();
            }
        }
        .with_seed(seed)
    }

    /// FNV-64 digest of this workload's reports at [`PINNED_SEED`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::LibqHeadline => 0x8a76_7ad5_d622_a29e,
            Workload::BlackPowerdown => 0x58af_f538_50ec_e385,
            Workload::MixQuad => 0x2369_80a5_9630_e780,
            Workload::Fig11Sweep => 0xe96d_8430_a184_8751,
        }
    }
}

/// FNV-1a 64 over the store codec's JSON of each report, folded over the
/// points in grid order.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> u64 {
    let per_point: Vec<u8> = reports
        .into_iter()
        .flat_map(|r| fnv64(mcr_store::report_to_json(r).to_string().as_bytes()).to_le_bytes())
        .collect();
    fnv64(&per_point)
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

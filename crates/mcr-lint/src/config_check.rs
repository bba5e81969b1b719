//! Static configuration checks: JEDEC cross-field timing inequalities and
//! the MCR-specific rules of Table 1 / Table 3 / Sec. 4.
//!
//! These run without simulating anything: they take a [`TimingSet`], an
//! [`McrTimingTable`] or a [`RegionMap`] and verify the relationships
//! between fields that the rest of the simulator silently assumes.

use crate::Diagnostic;
use dram_device::TimingSet;
use mcr_dram::{
    registered_backends, McrMode, McrTimingTable, RegionMap, SystemConfig, SUBARRAY_ROWS,
};

/// Checks the JEDEC cross-field inequalities of one [`TimingSet`].
///
/// `name` labels the configuration in diagnostics (e.g. `ddr3-1600/1gb`).
pub fn check_timing_set(name: &str, ts: &TimingSet) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // A row must stay open at least long enough to deliver one column
    // access: ACT -> CAS (tRCD) plus the burst.
    if ts.t_ras < ts.t_rcd + ts.burst_cycles {
        diags.push(Diagnostic::error(
            "timing/tras-window",
            name,
            format!(
                "tRAS {} < tRCD {} + burst {}: a row closes before one access completes",
                ts.t_ras, ts.t_rcd, ts.burst_cycles
            ),
            "JEDEC DDR3; paper Table 4",
        ));
    }
    // tRC is defined as tRAS + tRP; the accessor must agree with the fields.
    if ts.t_rc() != ts.t_ras + ts.t_rp {
        diags.push(Diagnostic::error(
            "timing/trc-sum",
            name,
            format!(
                "t_rc() = {} but tRAS {} + tRP {} = {}",
                ts.t_rc(),
                ts.t_ras,
                ts.t_rp,
                ts.t_ras + ts.t_rp
            ),
            "JEDEC DDR3 (tRC = tRAS + tRP)",
        ));
    }
    // Four ACTs spaced tRRD apart already span 4*tRRD; a tFAW below that
    // never constrains anything (the window is vacuous), above it does.
    if ts.t_faw < 4 * ts.t_rrd {
        diags.push(Diagnostic::warning(
            "timing/tfaw-vacuous",
            name,
            format!(
                "tFAW {} < 4 x tRRD {}: the four-activate window can never bind",
                ts.t_faw,
                4 * ts.t_rrd
            ),
            "JEDEC DDR3 (tFAW vs tRRD); paper Table 4",
        ));
    }
    // If a refresh takes longer than the refresh interval the rank never
    // leaves the refresh busy state.
    if ts.t_refi <= ts.t_rfc {
        diags.push(Diagnostic::error(
            "timing/refresh-livelock",
            name,
            format!(
                "tREFI {} <= tRFC {}: the device refreshes faster than it recovers",
                ts.t_refi, ts.t_rfc
            ),
            "JEDEC DDR3 (tREFI vs tRFC)",
        ));
    }
    // DDR3 write latency never exceeds read latency.
    if ts.cwl > ts.cl {
        diags.push(Diagnostic::warning(
            "timing/cwl-exceeds-cl",
            name,
            format!("CWL {} > CL {}", ts.cwl, ts.cl),
            "JEDEC DDR3 (CWL <= CL)",
        ));
    }
    diags
}

/// Checks an MCR mode-timing table (Table 3) against its baseline
/// [`TimingSet`].
///
/// The structural rules, from the paper's circuit analysis (Sec. 3):
///
/// * `tRCD` depends only on K and is non-increasing in K — K cells drive
///   the bitline together, so sensing is never slower than baseline.
/// * For a fixed K, `tRAS` and `tRFC` are non-increasing in M — more
///   refreshes per 64 ms mean less charge must be restored.  They may
///   exceed baseline for small M (e.g. 1/4x restores four cells from one
///   64 ms slot), but must not for `M = K`.
/// * Every `(M, K)` pair must satisfy Table 1 (`1 <= M <= K`,
///   K in {1, 2, 4}); `M` must divide `K` or the Fig. 9 skip pattern
///   degenerates.
pub fn check_mode_table(
    name: &str,
    table: &McrTimingTable,
    baseline: &TimingSet,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let entries = table.entries();
    let Some(base) = entries.iter().find(|e| e.m == 1 && e.k == 1) else {
        diags.push(Diagnostic::error(
            "mcr/missing-baseline",
            name,
            "mode table has no 1/1x baseline entry",
            "paper Table 3",
        ));
        return diags;
    };
    // The 1/1x column must agree with the plain DDR3 timing set the
    // simulator pairs the table with.
    if base.row.t_rcd != baseline.t_rcd
        || base.row.t_ras != baseline.t_ras
        || base.t_rfc != baseline.t_rfc
    {
        diags.push(Diagnostic::error(
            "mcr/baseline-mismatch",
            name,
            format!(
                "1/1x entry (tRCD {}, tRAS {}, tRFC {}) disagrees with the \
                 DDR3 timing set (tRCD {}, tRAS {}, tRFC {})",
                base.row.t_rcd,
                base.row.t_ras,
                base.t_rfc,
                baseline.t_rcd,
                baseline.t_ras,
                baseline.t_rfc
            ),
            "paper Table 3 vs Table 4",
        ));
    }
    for e in entries {
        let loc = format!("{name} mode {}/{}x", e.m, e.k);
        if let Err(err) = McrMode::new(e.m, e.k, 1.0) {
            diags.push(Diagnostic::error(
                "mcr/bad-mode",
                loc.clone(),
                format!("mode outside Table 1: {err:?}"),
                "paper Table 1",
            ));
            continue;
        }
        if e.k % e.m != 0 {
            diags.push(Diagnostic::warning(
                "mcr/skip-degenerate",
                loc.clone(),
                format!(
                    "M {} does not divide K {}; Refresh-Skipping degenerates",
                    e.m, e.k
                ),
                "paper Fig. 9",
            ));
        }
        // Early-Access: activating K clone rows is never slower.
        if e.row.t_rcd > base.row.t_rcd {
            diags.push(Diagnostic::error(
                "mcr/trcd-not-relaxed",
                loc.clone(),
                format!(
                    "Kx tRCD {} exceeds baseline {}",
                    e.row.t_rcd, base.row.t_rcd
                ),
                "paper Sec. 3.1 (Early-Access), Table 3",
            ));
        }
        // With the full refresh rate restored (M = K), the restore target
        // is no deeper than baseline.
        if e.m == e.k && e.k > 1 {
            if e.row.t_ras > base.row.t_ras {
                diags.push(Diagnostic::error(
                    "mcr/tras-not-relaxed",
                    loc.clone(),
                    format!(
                        "K/Kx tRAS {} exceeds baseline {}",
                        e.row.t_ras, base.row.t_ras
                    ),
                    "paper Sec. 3.2 (Early-Precharge), Table 3",
                ));
            }
            if e.t_rfc > base.t_rfc {
                diags.push(Diagnostic::error(
                    "mcr/trfc-not-relaxed",
                    loc.clone(),
                    format!("K/Kx tRFC {} exceeds baseline {}", e.t_rfc, base.t_rfc),
                    "paper Sec. 3.3 (Fast-Refresh), Table 3",
                ));
            }
        }
        // An MCR row must still be able to serve one access per activation.
        if e.row.t_ras < e.row.t_rcd + baseline.burst_cycles {
            diags.push(Diagnostic::error(
                "mcr/tras-window",
                loc.clone(),
                format!(
                    "tRAS {} < tRCD {} + burst {}",
                    e.row.t_ras, e.row.t_rcd, baseline.burst_cycles
                ),
                "JEDEC DDR3; paper Table 3",
            ));
        }
    }
    // Monotonicity across modes.
    for a in entries {
        for b in entries {
            let loc = format!("{name} modes {}/{}x vs {}/{}x", a.m, a.k, b.m, b.k);
            // tRCD non-increasing in K (more clone cells sense faster).
            if a.k < b.k && a.row.t_rcd < b.row.t_rcd {
                diags.push(Diagnostic::error(
                    "mcr/trcd-monotonic",
                    loc.clone(),
                    format!(
                        "tRCD grows with K: {}x has {}, {}x has {}",
                        a.k, a.row.t_rcd, b.k, b.row.t_rcd
                    ),
                    "paper Sec. 3.1, Table 3",
                ));
            }
            if a.k == b.k && a.m < b.m {
                // tRAS / tRFC non-increasing in M for fixed K (shorter
                // retention window -> earlier precharge, faster refresh).
                if a.row.t_ras < b.row.t_ras {
                    diags.push(Diagnostic::error(
                        "mcr/tras-monotonic",
                        loc.clone(),
                        format!(
                            "tRAS grows with M at K={}: M={} has {}, M={} has {}",
                            a.k, a.m, a.row.t_ras, b.m, b.row.t_ras
                        ),
                        "paper Sec. 3.2, Table 3",
                    ));
                }
                if a.t_rfc < b.t_rfc {
                    diags.push(Diagnostic::error(
                        "mcr/trfc-monotonic",
                        loc,
                        format!(
                            "tRFC grows with M at K={}: M={} has {}, M={} has {}",
                            a.k, a.m, a.t_rfc, b.m, b.t_rfc
                        ),
                        "paper Sec. 3.3, Table 3",
                    ));
                }
            }
        }
    }
    diags
}

/// Checks the device policy `config` builds (its backend's legality
/// view) against the baseline [`TimingSet`] it will be paired with.
///
/// The invariants mirror [`check_mode_table`], re-pointed at the
/// pluggable-backend seam: whatever per-class `tRCD`/`tRAS` overrides a
/// backend registers via `DevicePolicy::timing_classes`, every class
/// must still serve one burst per activation, and no class may be
/// *slower* than twice baseline — a faster-DRAM proposal whose override
/// lands there is a typo'd constant, not a mechanism. MCR is checked
/// the same way: its classes are the Table 3 modes plus their degraded
/// full-`tRAS` variants.
pub fn check_backend(name: &str, config: &SystemConfig, baseline: &TimingSet) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, t) in config.make_policy().timing_classes().iter().enumerate() {
        // Class indices start at 1; class 0 is always the baseline set.
        let loc = format!("{name} class {}", i + 1);
        if t.t_rcd == 0 || t.t_ras == 0 {
            diags.push(Diagnostic::error(
                "backend/zero-timing",
                loc.clone(),
                format!(
                    "tRCD {} / tRAS {}: a zero-cycle window is a typo",
                    t.t_rcd, t.t_ras
                ),
                "JEDEC DDR3 (every window spans at least one cycle)",
            ));
        }
        if t.t_ras < t.t_rcd + baseline.burst_cycles {
            diags.push(Diagnostic::error(
                "backend/tras-window",
                loc.clone(),
                format!(
                    "tRAS {} < tRCD {} + burst {}: a row closes before one access completes",
                    t.t_ras, t.t_rcd, baseline.burst_cycles
                ),
                "JEDEC DDR3; backend registry (DESIGN.md §5l)",
            ));
        }
        if t.t_rcd > 2 * baseline.t_rcd || t.t_ras > 2 * baseline.t_ras {
            diags.push(Diagnostic::error(
                "backend/timing-outlier",
                loc,
                format!(
                    "class timing (tRCD {}, tRAS {}) exceeds twice the baseline \
                     (tRCD {}, tRAS {})",
                    t.t_rcd, t.t_ras, baseline.t_rcd, baseline.t_ras
                ),
                "backend registry (DESIGN.md §5l)",
            ));
        }
    }
    diags
}

/// Checks that a [`RegionMap`] is collision-free: regions stay inside one
/// 512-row sub-array, are K-aligned (no clone group straddles a region
/// boundary), and do not overlap.
pub fn check_region_map(name: &str, map: &RegionMap) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let regions = map.regions();
    for (i, r) in regions.iter().enumerate() {
        let loc = format!("{name} region {i}");
        let k = u64::from(r.mode().k());
        if r.start() >= r.end() || r.end() > SUBARRAY_ROWS {
            diags.push(Diagnostic::error(
                "mcr/region-bounds",
                loc.clone(),
                format!(
                    "rows {}..{} outside the {}-row sub-array",
                    r.start(),
                    r.end(),
                    SUBARRAY_ROWS
                ),
                "paper Sec. 4.2, Fig. 6",
            ));
        }
        if r.start() % k != 0 || r.end() % k != 0 {
            diags.push(Diagnostic::error(
                "mcr/region-alignment",
                loc.clone(),
                format!(
                    "rows {}..{} not aligned to K={}: a clone group straddles the boundary",
                    r.start(),
                    r.end(),
                    k
                ),
                "paper Sec. 4.2 (all K wordlines rise together)",
            ));
        }
        if r.mode().k() % r.mode().m() != 0 {
            diags.push(Diagnostic::warning(
                "mcr/skip-degenerate",
                loc.clone(),
                format!(
                    "M {} does not divide K {}; Refresh-Skipping degenerates",
                    r.mode().m(),
                    r.mode().k()
                ),
                "paper Fig. 9",
            ));
        }
        for (j, other) in regions.iter().enumerate().skip(i + 1) {
            if r.start() < other.end() && other.start() < r.end() {
                diags.push(Diagnostic::error(
                    "mcr/region-overlap",
                    format!("{name} regions {i} and {j}"),
                    format!(
                        "rows {}..{} overlap rows {}..{}: one row would carry two modes",
                        r.start(),
                        r.end(),
                        other.start(),
                        other.end()
                    ),
                    "paper Sec. 4.4, Table 2 (collision-free mapping)",
                ));
            }
        }
    }
    diags
}

/// Validates a raw `[M/Kx/L%reg]` mode triple against Table 1.
pub fn check_mode_params(name: &str, m: u32, k: u32, region: f64) -> Vec<Diagnostic> {
    match McrMode::new(m, k, region) {
        Ok(_) => Vec::new(),
        Err(e) => vec![Diagnostic::error(
            "mcr/bad-mode",
            name,
            format!("[{m}/{k}x/{region}reg] violates Table 1: {e:?}"),
            "paper Table 1",
        )],
    }
}

/// The single-core configuration of `kind`. Only its geometry, mode and
/// mechanisms reach the device policy; the workload does not.
fn backend_config(kind: mcr_dram::BackendKind) -> SystemConfig {
    SystemConfig::single_core("libq", 1).with_backend(mcr_dram::BackendSpec::new(kind))
}

/// Runs every static check over the workspace's built-in configurations:
/// both DDR3-1600 device classes (plus the high-temperature variants),
/// both canonical Table 3 mode tables, and the Table 1 / Sec. 4.4 region
/// layouts the experiments use.
pub fn check_builtin() -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let ts_1gb = TimingSet::ddr3_1600(32_768);
    let ts_4gb = TimingSet::ddr3_1600(131_072);
    diags.extend(check_timing_set("ddr3-1600/1gb", &ts_1gb));
    diags.extend(check_timing_set("ddr3-1600/4gb", &ts_4gb));
    diags.extend(check_timing_set(
        "ddr3-1600/1gb/high-temp",
        &ts_1gb.clone().with_high_temp_refresh(),
    ));
    diags.extend(check_timing_set(
        "ddr3-1600/4gb/high-temp",
        &ts_4gb.clone().with_high_temp_refresh(),
    ));
    diags.extend(check_mode_table(
        "table3/1gb",
        &McrTimingTable::paper(mcr_dram::DeviceClass::OneGb),
        &ts_1gb,
    ));
    diags.extend(check_mode_table(
        "table3/4gb",
        &McrTimingTable::paper(mcr_dram::DeviceClass::FourGb),
        &ts_4gb,
    ));
    // Table 1 single-mode layouts at the paper's region fractions.
    for (m, k) in [(1, 1), (1, 2), (2, 2), (1, 4), (2, 4), (4, 4)] {
        for frac in [1.0, 0.5, 0.25] {
            let name = format!("single[{m}/{k}x/{frac}reg]");
            diags.extend(check_mode_params(&name, m, k, frac));
            if let Ok(mode) = McrMode::new(m, k, frac) {
                diags.extend(check_region_map(&name, &RegionMap::single(mode)));
            }
        }
    }
    // Every registered architecture backend's legality view, built on
    // the comparison harness's single-core geometry (1 Gb devices) and
    // checked against the matching baseline.
    for spec in registered_backends() {
        diags.extend(check_backend(
            &format!("backend/{}", spec.kind),
            &backend_config(spec.kind),
            &ts_1gb,
        ));
    }
    // The Sec. 4.4 combined 2x + 4x configurations.
    for (m4, f4, m2, f2) in [(4, 0.25, 2, 0.25), (4, 0.25, 2, 0.5), (2, 0.25, 1, 0.25)] {
        let name = format!("combined[{m4}/4x/{f4} + {m2}/2x/{f2}]");
        match RegionMap::try_combined(m4, f4, m2, f2) {
            Ok(map) => diags.extend(check_region_map(&name, &map)),
            Err(e) => diags.push(Diagnostic::error(
                "mcr/bad-mode",
                name,
                format!("combined map rejected: {e:?}"),
                "paper Sec. 4.4, Table 1",
            )),
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::has_errors;

    #[test]
    fn builtin_tables_are_clean() {
        let diags = check_builtin();
        assert!(
            !has_errors(&diags),
            "built-in configurations must pass: {:?}",
            diags
                .iter()
                .filter(|d| d.level == crate::Level::Error)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn broken_tras_window_is_flagged() {
        let base = TimingSet::default();
        let ts = TimingSet {
            t_ras: base.t_rcd, // row closes before the burst finishes
            ..base
        };
        let diags = check_timing_set("broken", &ts);
        assert!(diags.iter().any(|d| d.code == "timing/tras-window"));
    }

    #[test]
    fn refresh_livelock_is_flagged() {
        let base = TimingSet::default();
        let ts = TimingSet {
            t_refi: base.t_rfc, // never recovers between refreshes
            ..base
        };
        let diags = check_timing_set("broken", &ts);
        assert!(diags.iter().any(|d| d.code == "timing/refresh-livelock"));
    }

    #[test]
    fn vacuous_tfaw_is_a_warning() {
        let base = TimingSet::default();
        let ts = TimingSet {
            t_faw: 4 * base.t_rrd - 1,
            ..base
        };
        let diags = check_timing_set("broken", &ts);
        let d = diags
            .iter()
            .find(|d| d.code == "timing/tfaw-vacuous")
            .expect("tfaw warning");
        assert_eq!(d.level, crate::Level::Warning);
    }

    #[test]
    fn mode_table_baseline_mismatch_is_flagged() {
        let table = McrTimingTable::paper(mcr_dram::DeviceClass::OneGb);
        // Pair the 1 Gb table with the 4 Gb timing set: tRFC disagrees.
        let diags = check_mode_table("mismatched", &table, &TimingSet::ddr3_1600(131_072));
        assert!(diags.iter().any(|d| d.code == "mcr/baseline-mismatch"));
    }

    #[test]
    fn bad_mode_params_are_flagged() {
        assert!(has_errors(&check_mode_params("m>k", 4, 2, 1.0)));
        assert!(has_errors(&check_mode_params("bad-k", 1, 3, 1.0)));
        assert!(has_errors(&check_mode_params("bad-region", 1, 2, 0.0)));
        assert!(check_mode_params("ok", 2, 4, 0.5).is_empty());
    }

    #[test]
    fn registered_backends_pass_their_legality_views() {
        let ts = TimingSet::ddr3_1600(32_768);
        for spec in registered_backends() {
            let cfg = backend_config(spec.kind);
            let diags = check_backend(&format!("backend/{}", spec.kind), &cfg, &ts);
            assert!(diags.is_empty(), "{}: {diags:?}", spec.kind);
        }
    }

    #[test]
    fn broken_backend_specs_and_windows_are_flagged() {
        let ts = TimingSet::ddr3_1600(32_768);
        // A baseline with a huge burst makes every near-segment class
        // close its row before one access completes.
        let tight = TimingSet {
            burst_cycles: 100,
            ..ts.clone()
        };
        let tldram = backend_config(mcr_dram::BackendKind::TlDram);
        let diags = check_backend("backend/tldram", &tldram, &tight);
        assert!(
            diags.iter().any(|d| d.code == "backend/tras-window"),
            "{diags:?}"
        );

        // Against a much faster baseline the far-segment override reads
        // as an outlier, not a mechanism.
        let fast = TimingSet {
            t_rcd: 2,
            t_ras: 8,
            burst_cycles: 2,
            ..ts
        };
        let diags = check_backend("backend/tldram", &tldram, &fast);
        assert!(
            diags.iter().any(|d| d.code == "backend/timing-outlier"),
            "{diags:?}"
        );
    }

    #[test]
    fn combined_map_is_collision_free() {
        // The public constructors only build disjoint, K-aligned maps, so
        // the paper's combined configuration must pass with zero findings.
        let map = RegionMap::combined(4, 0.25, 2, 0.25);
        assert!(check_region_map("combined", &map).is_empty());
    }
}

//! Lossless [`RunReport`] ↔ [`Json`] codec.
//!
//! The store persists *full* reports — every counter, histogram and
//! energy figure — and the determinism suite demands that a report
//! pulled off disk compares equal (`==`) to the one the simulator
//! produced. Three representational traps make that non-trivial with a
//! JSON codec whose only number type is `f64`:
//!
//! * **Full-range `u64`s.** Counters can saturate at `u64::MAX`, and an
//!   empty [`LatencyHistogram`] carries a `u64::MAX` min sentinel —
//!   both beyond the 2^53 window an `f64` holds exactly. Every `u64`
//!   goes through [`Json::from_u64_lossless`], which falls back to a
//!   decimal string past that window.
//! * **Histogram internals.** `count`/`sum`/`min`/`max` are not
//!   derivable from the buckets, so histograms are persisted via
//!   [`LatencyHistogram::raw_parts`] and rebuilt with
//!   [`LatencyHistogram::from_raw_parts`], sentinels and all.
//! * **Non-finite floats.** JSON has no `NaN`/`Infinity` literals (the
//!   serializer renders them as `null`); the codec sidesteps the hole
//!   by encoding non-finite values as the strings `"NaN"`, `"inf"` and
//!   `"-inf"`. Finite values ride the serializer's shortest-round-trip
//!   formatting and re-parse to the identical bits.
//!
//! Decoding is total and typed: any missing, mistyped or out-of-range
//! field yields a [`CodecError`] naming the path, which the store maps
//! to quarantine-and-recompute.

use mcr_dram::{
    BankCommandCounts, ReliabilityReport, RowCacheStats, RunExecStats, RunReport, Telemetry,
};
use mcr_telemetry::{LatencyHistogram, HISTOGRAM_BUCKETS};
use mem_controller::{ControllerStats, CtlTelemetry, RefreshStats};
use sim_json::Json;

/// Why a JSON document failed to decode back into a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Dotted path of the offending field (e.g. `telemetry.act_to_data.sum`).
    pub path: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl CodecError {
    fn new(path: impl Into<String>, reason: &'static str) -> Self {
        CodecError {
            path: path.into(),
            reason,
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode failed at `{}`: {}", self.path, self.reason)
    }
}

impl std::error::Error for CodecError {}

// ---- scalar helpers ----------------------------------------------------

fn ju(n: u64) -> Json {
    Json::from_u64_lossless(n)
}

fn jf(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else if x.is_nan() {
        Json::str("NaN")
    } else if x > 0.0 {
        Json::str("inf")
    } else {
        Json::str("-inf")
    }
}

fn member<'a>(j: &'a Json, key: &str, path: &str) -> Result<&'a Json, CodecError> {
    match j.get(key) {
        Some(v) => Ok(v),
        None => Err(CodecError::new(format!("{path}.{key}"), "missing member")),
    }
}

fn du(j: &Json, key: &str, path: &str) -> Result<u64, CodecError> {
    member(j, key, path)?
        .as_u64_lossless()
        .ok_or_else(|| CodecError::new(format!("{path}.{key}"), "not a lossless u64"))
}

fn df(j: &Json, key: &str, path: &str) -> Result<f64, CodecError> {
    let v = member(j, key, path)?;
    decode_f64(v).ok_or_else(|| CodecError::new(format!("{path}.{key}"), "not an f64"))
}

fn decode_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Str(s) => match s.as_str() {
            "NaN" => Some(f64::NAN),
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        _ => None,
    }
}

fn dbool(j: &Json, key: &str, path: &str) -> Result<bool, CodecError> {
    member(j, key, path)?
        .as_bool()
        .ok_or_else(|| CodecError::new(format!("{path}.{key}"), "not a bool"))
}

fn darr<'a>(j: &'a Json, key: &str, path: &str) -> Result<&'a [Json], CodecError> {
    member(j, key, path)?
        .as_array()
        .ok_or_else(|| CodecError::new(format!("{path}.{key}"), "not an array"))
}

// ---- histograms --------------------------------------------------------

fn hist_to_json(h: &LatencyHistogram) -> Json {
    let (buckets, count, sum, min, max) = h.raw_parts();
    let sparse: Vec<Json> = buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| Json::Arr(vec![ju(i as u64), ju(n)]))
        .collect();
    Json::obj([
        ("buckets", Json::Arr(sparse)),
        ("count", ju(count)),
        ("sum", ju(sum)),
        ("min", ju(min)),
        ("max", ju(max)),
    ])
}

fn hist_from_json(j: &Json, path: &str) -> Result<LatencyHistogram, CodecError> {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for (slot, pair) in darr(j, "buckets", path)?.iter().enumerate() {
        let bad = || CodecError::new(format!("{path}.buckets[{slot}]"), "bad [index, count] pair");
        let pair = pair.as_array().ok_or_else(bad)?;
        let (i, n) = match pair {
            [i, n] => (
                i.as_u64_lossless().ok_or_else(bad)?,
                n.as_u64_lossless().ok_or_else(bad)?,
            ),
            _ => return Err(bad()),
        };
        let i = usize::try_from(i).ok().filter(|&i| i < HISTOGRAM_BUCKETS);
        match i {
            Some(i) => buckets[i] = n,
            None => {
                return Err(CodecError::new(
                    format!("{path}.buckets[{slot}]"),
                    "bucket index out of range",
                ))
            }
        }
    }
    Ok(LatencyHistogram::from_raw_parts(
        buckets,
        du(j, "count", path)?,
        du(j, "sum", path)?,
        du(j, "min", path)?,
        du(j, "max", path)?,
    ))
}

fn counter_to_json(c: &mcr_telemetry::Counter) -> Json {
    ju(c.get())
}

fn counter_from(j: &Json, key: &str, path: &str) -> Result<mcr_telemetry::Counter, CodecError> {
    let mut c = mcr_telemetry::Counter::new();
    c.add(du(j, key, path)?);
    Ok(c)
}

// ---- report sections ---------------------------------------------------

fn controller_to_json(c: &ControllerStats) -> Json {
    Json::obj([
        ("reads_done", ju(c.reads_done)),
        ("writes_done", ju(c.writes_done)),
        ("read_latency_sum", ju(c.read_latency_sum)),
        ("row_hits", ju(c.row_hits)),
        ("row_misses", ju(c.row_misses)),
        ("row_conflicts", ju(c.row_conflicts)),
        ("drain_cycles", ju(c.drain_cycles)),
        (
            "refresh",
            Json::obj([
                ("normal", ju(c.refresh.normal)),
                ("fast", ju(c.refresh.fast)),
                ("skipped", ju(c.refresh.skipped)),
                ("dropped", ju(c.refresh.dropped)),
                ("late", ju(c.refresh.late)),
            ]),
        ),
        ("retention_retries", ju(c.retention_retries)),
        ("guardband_degrades", ju(c.guardband_degrades)),
        ("guardband_rearms", ju(c.guardband_rearms)),
        ("guardband_degraded_cycles", ju(c.guardband_degraded_cycles)),
    ])
}

fn controller_from_json(j: &Json, path: &str) -> Result<ControllerStats, CodecError> {
    let r = member(j, "refresh", path)?;
    let rp = format!("{path}.refresh");
    Ok(ControllerStats {
        reads_done: du(j, "reads_done", path)?,
        writes_done: du(j, "writes_done", path)?,
        read_latency_sum: du(j, "read_latency_sum", path)?,
        row_hits: du(j, "row_hits", path)?,
        row_misses: du(j, "row_misses", path)?,
        row_conflicts: du(j, "row_conflicts", path)?,
        drain_cycles: du(j, "drain_cycles", path)?,
        refresh: RefreshStats {
            normal: du(r, "normal", &rp)?,
            fast: du(r, "fast", &rp)?,
            skipped: du(r, "skipped", &rp)?,
            dropped: du(r, "dropped", &rp)?,
            late: du(r, "late", &rp)?,
        },
        retention_retries: du(j, "retention_retries", path)?,
        guardband_degrades: du(j, "guardband_degrades", path)?,
        guardband_rearms: du(j, "guardband_rearms", path)?,
        guardband_degraded_cycles: du(j, "guardband_degraded_cycles", path)?,
    })
}

fn ctl_telemetry_to_json(t: &CtlTelemetry) -> Json {
    Json::obj([
        ("read_queue_depth", hist_to_json(&t.read_queue_depth)),
        ("write_queue_depth", hist_to_json(&t.write_queue_depth)),
        ("read_latency", hist_to_json(&t.read_latency)),
        ("sched_cas_read", counter_to_json(&t.sched_cas_read)),
        ("sched_cas_write", counter_to_json(&t.sched_cas_write)),
        ("sched_activates", counter_to_json(&t.sched_activates)),
        ("sched_precharges", counter_to_json(&t.sched_precharges)),
        ("sched_refreshes", counter_to_json(&t.sched_refreshes)),
        ("retention_retries", counter_to_json(&t.retention_retries)),
        ("guardband_degrades", counter_to_json(&t.guardband_degrades)),
        ("guardband_rearms", counter_to_json(&t.guardband_rearms)),
    ])
}

fn ctl_telemetry_from_json(j: &Json, path: &str) -> Result<CtlTelemetry, CodecError> {
    Ok(CtlTelemetry {
        read_queue_depth: hist_from_json(member(j, "read_queue_depth", path)?, path)?,
        write_queue_depth: hist_from_json(member(j, "write_queue_depth", path)?, path)?,
        read_latency: hist_from_json(member(j, "read_latency", path)?, path)?,
        sched_cas_read: counter_from(j, "sched_cas_read", path)?,
        sched_cas_write: counter_from(j, "sched_cas_write", path)?,
        sched_activates: counter_from(j, "sched_activates", path)?,
        sched_precharges: counter_from(j, "sched_precharges", path)?,
        sched_refreshes: counter_from(j, "sched_refreshes", path)?,
        retention_retries: counter_from(j, "retention_retries", path)?,
        guardband_degrades: counter_from(j, "guardband_degrades", path)?,
        guardband_rearms: counter_from(j, "guardband_rearms", path)?,
    })
}

fn telemetry_to_json(t: &Telemetry) -> Json {
    let banks: Vec<Json> = t
        .banks
        .iter()
        .map(|b| {
            Json::Arr(vec![
                ju(b.channel as u64),
                ju(b.rank as u64),
                ju(b.bank as u64),
                ju(b.activates),
                ju(b.reads),
                ju(b.writes),
                ju(b.precharges),
            ])
        })
        .collect();
    Json::obj([
        ("banks", Json::Arr(banks)),
        ("refreshes_normal", ju(t.refreshes_normal)),
        ("refreshes_fast", ju(t.refreshes_fast)),
        ("powerdown_entries", ju(t.powerdown_entries)),
        ("mode_changes", ju(t.mode_changes)),
        ("act_to_data", hist_to_json(&t.act_to_data)),
        ("controller", ctl_telemetry_to_json(&t.controller)),
        ("core_read_latency", hist_to_json(&t.core_read_latency)),
        ("retention_checks", ju(t.retention_checks)),
        ("retention_violations", ju(t.retention_violations)),
        ("retention_escapes", ju(t.retention_escapes)),
        (
            "retention_detect_latency",
            hist_to_json(&t.retention_detect_latency),
        ),
    ])
}

fn telemetry_from_json(j: &Json, path: &str) -> Result<Telemetry, CodecError> {
    let mut banks = Vec::new();
    for (slot, row) in darr(j, "banks", path)?.iter().enumerate() {
        let bad = || CodecError::new(format!("{path}.banks[{slot}]"), "bad 7-tuple");
        let row = row.as_array().ok_or_else(bad)?;
        let v: Vec<u64> = row
            .iter()
            .map(Json::as_u64_lossless)
            .collect::<Option<Vec<u64>>>()
            .ok_or_else(bad)?;
        let [channel, rank, bank, activates, reads, writes, precharges] = v[..] else {
            return Err(bad());
        };
        banks.push(BankCommandCounts {
            channel: usize::try_from(channel).map_err(|_| bad())?,
            rank: usize::try_from(rank).map_err(|_| bad())?,
            bank: usize::try_from(bank).map_err(|_| bad())?,
            activates,
            reads,
            writes,
            precharges,
        });
    }
    Ok(Telemetry {
        banks,
        refreshes_normal: du(j, "refreshes_normal", path)?,
        refreshes_fast: du(j, "refreshes_fast", path)?,
        powerdown_entries: du(j, "powerdown_entries", path)?,
        mode_changes: du(j, "mode_changes", path)?,
        act_to_data: hist_from_json(member(j, "act_to_data", path)?, path)?,
        controller: ctl_telemetry_from_json(
            member(j, "controller", path)?,
            &format!("{path}.controller"),
        )?,
        core_read_latency: hist_from_json(member(j, "core_read_latency", path)?, path)?,
        retention_checks: du(j, "retention_checks", path)?,
        retention_violations: du(j, "retention_violations", path)?,
        retention_escapes: du(j, "retention_escapes", path)?,
        retention_detect_latency: hist_from_json(
            member(j, "retention_detect_latency", path)?,
            path,
        )?,
    })
}

fn reliability_to_json(r: &ReliabilityReport) -> Json {
    Json::obj([
        ("fault_injection", Json::Bool(r.fault_injection)),
        ("fault_seed", ju(r.fault_seed)),
        ("retention_retries", ju(r.retention_retries)),
        ("refresh_dropped", ju(r.refresh_dropped)),
        ("refresh_late", ju(r.refresh_late)),
        ("guardband_degrades", ju(r.guardband_degrades)),
        ("guardband_rearms", ju(r.guardband_rearms)),
        ("guardband_degraded_cycles", ju(r.guardband_degraded_cycles)),
        ("retention_checks", ju(r.retention_checks)),
        ("retention_violations", ju(r.retention_violations)),
        ("retention_escapes", ju(r.retention_escapes)),
    ])
}

fn reliability_from_json(j: &Json, path: &str) -> Result<ReliabilityReport, CodecError> {
    Ok(ReliabilityReport {
        fault_injection: dbool(j, "fault_injection", path)?,
        fault_seed: du(j, "fault_seed", path)?,
        retention_retries: du(j, "retention_retries", path)?,
        refresh_dropped: du(j, "refresh_dropped", path)?,
        refresh_late: du(j, "refresh_late", path)?,
        guardband_degrades: du(j, "guardband_degrades", path)?,
        guardband_rearms: du(j, "guardband_rearms", path)?,
        guardband_degraded_cycles: du(j, "guardband_degraded_cycles", path)?,
        retention_checks: du(j, "retention_checks", path)?,
        retention_violations: du(j, "retention_violations", path)?,
        retention_escapes: du(j, "retention_escapes", path)?,
    })
}

// ---- top level ---------------------------------------------------------

/// Encodes a full [`RunReport`] — every scalar, histogram and section —
/// as a [`Json`] value that [`report_from_json`] inverts exactly.
pub fn report_to_json(r: &RunReport) -> Json {
    Json::obj([
        ("exec_cpu_cycles", ju(r.exec_cpu_cycles)),
        (
            "per_core_cpu_cycles",
            Json::Arr(r.per_core_cpu_cycles.iter().map(|&c| ju(c)).collect()),
        ),
        ("total_mem_cycles", ju(r.total_mem_cycles)),
        ("reads_done", ju(r.reads_done)),
        ("avg_read_latency", jf(r.avg_read_latency)),
        ("controller", controller_to_json(&r.controller)),
        (
            "energy",
            Json::obj([
                ("act_pre_pj", jf(r.energy.act_pre_pj)),
                ("read_pj", jf(r.energy.read_pj)),
                ("write_pj", jf(r.energy.write_pj)),
                ("refresh_pj", jf(r.energy.refresh_pj)),
                ("background_pj", jf(r.energy.background_pj)),
            ]),
        ),
        ("edp", jf(r.edp)),
        ("instructions", ju(r.instructions)),
        (
            "cache",
            match &r.cache {
                None => Json::Null,
                Some(c) => Json::obj([
                    ("hits", ju(c.hits)),
                    ("misses", ju(c.misses)),
                    ("promotions", ju(c.promotions)),
                    ("evictions", ju(c.evictions)),
                ]),
            },
        ),
        (
            "per_core_read_latency",
            Json::Arr(r.per_core_read_latency.iter().map(|&x| jf(x)).collect()),
        ),
        ("telemetry", telemetry_to_json(&r.telemetry)),
        ("reliability", reliability_to_json(&r.reliability)),
    ])
}

/// Decodes a [`report_to_json`] document back into the identical
/// (`==`) [`RunReport`].
///
/// # Errors
///
/// [`CodecError`] naming the first missing or mistyped field.
pub fn report_from_json(j: &Json) -> Result<RunReport, CodecError> {
    let path = "report";
    let energy = member(j, "energy", path)?;
    let ep = format!("{path}.energy");
    let cache = match member(j, "cache", path)? {
        Json::Null => None,
        c => {
            let cp = format!("{path}.cache");
            Some(RowCacheStats {
                hits: du(c, "hits", &cp)?,
                misses: du(c, "misses", &cp)?,
                promotions: du(c, "promotions", &cp)?,
                evictions: du(c, "evictions", &cp)?,
            })
        }
    };
    let mut per_core_read_latency = Vec::new();
    for (i, v) in darr(j, "per_core_read_latency", path)?.iter().enumerate() {
        per_core_read_latency.push(decode_f64(v).ok_or_else(|| {
            CodecError::new(format!("{path}.per_core_read_latency[{i}]"), "not an f64")
        })?);
    }
    let mut per_core_cpu_cycles = Vec::new();
    for (i, v) in darr(j, "per_core_cpu_cycles", path)?.iter().enumerate() {
        per_core_cpu_cycles.push(v.as_u64_lossless().ok_or_else(|| {
            CodecError::new(
                format!("{path}.per_core_cpu_cycles[{i}]"),
                "not a lossless u64",
            )
        })?);
    }
    Ok(RunReport {
        exec_cpu_cycles: du(j, "exec_cpu_cycles", path)?,
        per_core_cpu_cycles,
        total_mem_cycles: du(j, "total_mem_cycles", path)?,
        reads_done: du(j, "reads_done", path)?,
        avg_read_latency: df(j, "avg_read_latency", path)?,
        controller: controller_from_json(
            member(j, "controller", path)?,
            &format!("{path}.controller"),
        )?,
        energy: dram_power::EnergyBreakdown {
            act_pre_pj: df(energy, "act_pre_pj", &ep)?,
            read_pj: df(energy, "read_pj", &ep)?,
            write_pj: df(energy, "write_pj", &ep)?,
            refresh_pj: df(energy, "refresh_pj", &ep)?,
            background_pj: df(energy, "background_pj", &ep)?,
        },
        edp: df(j, "edp", path)?,
        instructions: du(j, "instructions", path)?,
        cache,
        per_core_read_latency,
        telemetry: telemetry_from_json(
            member(j, "telemetry", path)?,
            &format!("{path}.telemetry"),
        )?,
        reliability: reliability_from_json(
            member(j, "reliability", path)?,
            &format!("{path}.reliability"),
        )?,
        // How the drive spent the run is not part of the stored result.
        exec: RunExecStats::default(),
    })
}

/// Parses the canonical 16-hex-digit key rendering (`{:016x}`).
pub fn parse_key_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_dram::SystemConfig;

    #[test]
    fn real_report_round_trips_exactly() {
        let cfg = SystemConfig::single_core("libq", 1_500);
        let report = mcr_dram::System::try_build(&cfg)
            .expect("valid config")
            .run();
        let encoded = report_to_json(&report);
        let decoded = report_from_json(&encoded).expect("decodes");
        assert_eq!(decoded, report);
        // And through the serializer: text → value → report, same bits.
        let reparsed = Json::parse(&encoded.to_string()).expect("well-formed");
        assert_eq!(report_from_json(&reparsed).expect("decodes"), report);
    }

    #[test]
    fn missing_member_names_its_path() {
        let cfg = SystemConfig::single_core("libq", 1_000);
        let report = mcr_dram::System::try_build(&cfg)
            .expect("valid config")
            .run();
        let mut j = report_to_json(&report);
        j.set("edp", Json::Null);
        let err = report_from_json(&j).expect_err("null edp must fail");
        assert_eq!(err.path, "report.edp");
    }

    #[test]
    fn key_hex_is_strict() {
        assert_eq!(parse_key_hex("00000000000000ff"), Some(255));
        assert_eq!(parse_key_hex("ff"), None, "short");
        assert_eq!(parse_key_hex("00000000000000zz"), None, "non-hex");
        assert_eq!(parse_key_hex("00000000000000ff0"), None, "long");
    }
}

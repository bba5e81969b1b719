//! The machine-readable export of a run's [`Telemetry`] section
//! ([`telemetry_to_json`]), and the CSV quoting the compare table
//! shares.

use crate::telemetry::Telemetry;
use mcr_telemetry::LatencyHistogram;
use std::fmt::Write as _;

/// One CSV field, quoted per RFC 4180 when it holds a comma or a quote.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// JSON has no NaN/Infinity literals; map them to null.
fn opt_f64_json(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn opt_u64_json(x: Option<u64>) -> String {
    match x {
        Some(v) => format!("{v}"),
        None => "null".to_string(),
    }
}

fn hist_json(h: &LatencyHistogram) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .iter()
        .map(|(ub, n)| format!("[{ub}, {n}]"))
        .collect();
    format!(
        concat!(
            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, ",
            "\"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, ",
            "\"buckets\": [{}]}}"
        ),
        h.count(),
        h.sum(),
        opt_u64_json(h.min()),
        opt_u64_json(h.max()),
        opt_f64_json(h.mean()),
        opt_u64_json(h.p50()),
        opt_u64_json(h.p95()),
        opt_u64_json(h.p99()),
        buckets.join(", "),
    )
}

/// Renders a run's [`Telemetry`] section as a self-contained JSON object
/// (what `mcr_sim --metrics` prints).
///
/// Histograms export count/sum/min/max, the mean, the p50/p95/p99
/// percentiles and the non-empty `[upper_bound, count]` buckets; empty
/// histograms export `null` for min/max/mean/percentiles. Output is
/// deterministic: same telemetry, same string.
pub fn telemetry_to_json(t: &Telemetry) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"refreshes_normal\": {},", t.refreshes_normal);
    let _ = writeln!(out, "  \"refreshes_fast\": {},", t.refreshes_fast);
    let _ = writeln!(out, "  \"powerdown_entries\": {},", t.powerdown_entries);
    let _ = writeln!(out, "  \"mode_changes\": {},", t.mode_changes);
    let c = &t.controller;
    let _ = writeln!(out, "  \"sched\": {{");
    let _ = writeln!(out, "    \"activates\": {},", c.sched_activates.get());
    let _ = writeln!(out, "    \"cas_read\": {},", c.sched_cas_read.get());
    let _ = writeln!(out, "    \"cas_write\": {},", c.sched_cas_write.get());
    let _ = writeln!(out, "    \"precharges\": {},", c.sched_precharges.get());
    let _ = writeln!(out, "    \"refreshes\": {}", c.sched_refreshes.get());
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"act_to_data\": {},", hist_json(&t.act_to_data));
    let _ = writeln!(out, "  \"read_latency\": {},", hist_json(&c.read_latency));
    let _ = writeln!(
        out,
        "  \"read_queue_depth\": {},",
        hist_json(&c.read_queue_depth)
    );
    let _ = writeln!(
        out,
        "  \"write_queue_depth\": {},",
        hist_json(&c.write_queue_depth)
    );
    let _ = writeln!(
        out,
        "  \"core_read_latency\": {},",
        hist_json(&t.core_read_latency)
    );
    let _ = writeln!(out, "  \"retention\": {{");
    let _ = writeln!(out, "    \"checks\": {},", t.retention_checks);
    let _ = writeln!(out, "    \"violations\": {},", t.retention_violations);
    let _ = writeln!(out, "    \"escapes\": {},", t.retention_escapes);
    let _ = writeln!(out, "    \"retries\": {},", c.retention_retries.get());
    let _ = writeln!(
        out,
        "    \"guardband_degrades\": {},",
        c.guardband_degrades.get()
    );
    let _ = writeln!(
        out,
        "    \"guardband_rearms\": {}",
        c.guardband_rearms.get()
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"retention_detect_latency\": {},",
        hist_json(&t.retention_detect_latency)
    );
    let _ = writeln!(out, "  \"banks\": [");
    for (i, b) in t.banks.iter().enumerate() {
        let sep = if i + 1 == t.banks.len() { "" } else { "," };
        let _ = writeln!(
            out,
            concat!(
                "    {{\"channel\": {}, \"rank\": {}, \"bank\": {}, ",
                "\"activates\": {}, \"reads\": {}, \"writes\": {}, ",
                "\"precharges\": {}}}{}"
            ),
            b.channel, b.rank, b.bank, b.activates, b.reads, b.writes, b.precharges, sep
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrips_structure() {
        assert_eq!(csv_field("libq"), "libq");
        assert_eq!(csv_field("weird,label"), "\"weird,label\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn telemetry_exports_are_deterministic_and_complete() {
        let mut t = Telemetry {
            refreshes_normal: 7,
            ..Default::default()
        };
        t.act_to_data.record(40);
        t.act_to_data.record(60);
        t.banks.push(crate::telemetry::BankCommandCounts {
            channel: 0,
            rank: 1,
            bank: 2,
            activates: 3,
            reads: 4,
            writes: 5,
            precharges: 6,
        });
        let json = telemetry_to_json(&t);
        assert_eq!(json, telemetry_to_json(&t));
        assert!(json.contains("\"refreshes_normal\": 7"));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"bank\": 2"));
    }

    #[test]
    fn empty_histograms_export_null_in_json() {
        let t = Telemetry::default();
        let json = telemetry_to_json(&t);
        assert!(json.contains("\"min\": null"));
        assert!(json.contains("\"p50\": null"));
        assert!(json.contains("\"banks\": [\n  ]"));
    }
}

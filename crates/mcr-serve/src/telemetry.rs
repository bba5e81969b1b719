//! Exported metrics, in one histogram shape.
//!
//! [`telemetry_json`] renders a run's [`Telemetry`] section (what
//! `mcr_sim --metrics` prints and a `"metrics": true` reply carries);
//! [`ServeTelemetry`] holds the service's own counters and histograms
//! (the `stats` answer and the shutdown summary). Both are built from
//! the same `mcr-telemetry` primitives and render every histogram
//! through one function, so they share one JSON shape.

use mcr_dram::Telemetry;
use mcr_telemetry::{Counter, LatencyHistogram};
use sim_json::Json;

/// JSON has no NaN/Infinity literals: non-finite numbers become
/// `null`, so a built tree equals its own parsed serialization.
pub(crate) fn finite(x: f64) -> Json {
    if x.is_finite() {
        Json::from(x)
    } else {
        Json::Null
    }
}

/// The one exported histogram shape: count, sum, min, max, mean, the
/// p50/p95/p99 percentiles and the non-empty `[upper_bound, count]`
/// buckets. An empty histogram exports `null` for min, max, mean and
/// the percentiles.
fn histogram_json(h: &LatencyHistogram) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
    let buckets = h
        .nonzero_buckets()
        .into_iter()
        .map(|(ub, n)| Json::Arr(vec![Json::from(ub), Json::from(n)]))
        .collect();
    Json::obj([
        ("count", Json::from(h.count())),
        ("sum", Json::from(h.sum())),
        ("min", opt(h.min())),
        ("max", opt(h.max())),
        ("mean", finite(h.mean())),
        ("p50", opt(h.p50())),
        ("p95", opt(h.p95())),
        ("p99", opt(h.p99())),
        ("buckets", Json::Arr(buckets)),
    ])
}

/// Renders a run's [`Telemetry`] section as one JSON object: the
/// refresh, power-down and mode-change counts, the scheduler's
/// decisions, the latency and queue-depth histograms, the retention
/// and guardband counters, and the per-bank command counts.
/// Deterministic: same telemetry, same tree.
pub fn telemetry_json(t: &Telemetry) -> Json {
    let c = &t.controller;
    let banks = t
        .banks
        .iter()
        .map(|b| {
            Json::obj([
                ("channel", Json::from(b.channel as u64)),
                ("rank", Json::from(b.rank as u64)),
                ("bank", Json::from(b.bank as u64)),
                ("activates", Json::from(b.activates)),
                ("reads", Json::from(b.reads)),
                ("writes", Json::from(b.writes)),
                ("precharges", Json::from(b.precharges)),
            ])
        })
        .collect();
    Json::obj([
        ("refreshes_normal", Json::from(t.refreshes_normal)),
        ("refreshes_fast", Json::from(t.refreshes_fast)),
        ("powerdown_entries", Json::from(t.powerdown_entries)),
        ("mode_changes", Json::from(t.mode_changes)),
        (
            "sched",
            Json::obj([
                ("activates", Json::from(c.sched_activates.get())),
                ("cas_read", Json::from(c.sched_cas_read.get())),
                ("cas_write", Json::from(c.sched_cas_write.get())),
                ("precharges", Json::from(c.sched_precharges.get())),
                ("refreshes", Json::from(c.sched_refreshes.get())),
            ]),
        ),
        ("act_to_data", histogram_json(&t.act_to_data)),
        ("read_latency", histogram_json(&c.read_latency)),
        ("read_queue_depth", histogram_json(&c.read_queue_depth)),
        ("write_queue_depth", histogram_json(&c.write_queue_depth)),
        ("core_read_latency", histogram_json(&t.core_read_latency)),
        (
            "retention",
            Json::obj([
                ("checks", Json::from(t.retention_checks)),
                ("violations", Json::from(t.retention_violations)),
                ("escapes", Json::from(t.retention_escapes)),
                ("retries", Json::from(c.retention_retries.get())),
                ("guardband_degrades", Json::from(c.guardband_degrades.get())),
                ("guardband_rearms", Json::from(c.guardband_rearms.get())),
            ]),
        ),
        (
            "retention_detect_latency",
            histogram_json(&t.retention_detect_latency),
        ),
        ("banks", Json::Arr(banks)),
    ])
}

/// Counters and histograms the server maintains across its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeTelemetry {
    /// Client connections accepted.
    pub connections: Counter,
    /// Jobs admitted into the queue.
    pub accepted: Counter,
    /// Jobs that finished with an `ok` response.
    pub completed: Counter,
    /// Jobs shed because the queue was full (code 429).
    pub rejected_queue_full: Counter,
    /// Jobs refused because the service was draining (code 503).
    pub rejected_draining: Counter,
    /// Jobs refused by the size limits (code 413).
    pub rejected_too_large: Counter,
    /// Jobs cancelled by their deadline.
    pub timeouts: Counter,
    /// Request lines that failed to parse or validate.
    pub protocol_errors: Counter,
    /// Jobs whose simulation failed internally.
    pub internal_errors: Counter,
    /// Jobs whose worker panicked inside `catch_unwind` (a subset of
    /// `internal_errors`, kept separate so panics are diagnosable).
    pub worker_panics: Counter,
    /// Connections dropped because a partial request line stalled past
    /// the per-connection read deadline.
    pub read_deadline_drops: Counter,
    /// Connections dropped because a request line exceeded the
    /// configured maximum length.
    pub oversized_lines: Counter,
    /// Queue depth observed at each admission (before the push).
    pub queue_depth: LatencyHistogram,
    /// Admission-to-response service latency, in milliseconds.
    pub service_ms: LatencyHistogram,
    /// Pure simulation wall time per job, in milliseconds.
    pub sim_ms: LatencyHistogram,
}

impl ServeTelemetry {
    /// The `stats` response body: lifetime counters plus the live queue
    /// state supplied by the server.
    pub fn to_json(&self, queue_depth_now: u64, in_flight: u64, draining: bool) -> Json {
        Json::obj([
            ("connections", Json::from(self.connections.get())),
            ("accepted", Json::from(self.accepted.get())),
            ("completed", Json::from(self.completed.get())),
            (
                "rejected_queue_full",
                Json::from(self.rejected_queue_full.get()),
            ),
            (
                "rejected_draining",
                Json::from(self.rejected_draining.get()),
            ),
            (
                "rejected_too_large",
                Json::from(self.rejected_too_large.get()),
            ),
            ("timeouts", Json::from(self.timeouts.get())),
            ("protocol_errors", Json::from(self.protocol_errors.get())),
            ("internal_errors", Json::from(self.internal_errors.get())),
            ("worker_panics", Json::from(self.worker_panics.get())),
            (
                "read_deadline_drops",
                Json::from(self.read_deadline_drops.get()),
            ),
            ("oversized_lines", Json::from(self.oversized_lines.get())),
            ("queue_depth_now", Json::from(queue_depth_now)),
            ("in_flight", Json::from(in_flight)),
            ("draining", Json::from(draining)),
            ("queue_depth", histogram_json(&self.queue_depth)),
            ("service_ms", histogram_json(&self.service_ms)),
            ("sim_ms", histogram_json(&self.sim_ms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_carries_counters_and_histograms() {
        let mut t = ServeTelemetry::default();
        t.accepted.inc();
        t.completed.inc();
        t.service_ms.record(12);
        t.service_ms.record(40);
        let v = t.to_json(3, 1, false);
        assert_eq!(v.get("accepted").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("queue_depth_now").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("draining").and_then(Json::as_bool), Some(false));
        let svc = v.get("service_ms").expect("histogram present");
        assert_eq!(svc.get("count").and_then(Json::as_u64), Some(2));
        assert!(svc.get("p50").and_then(Json::as_u64).is_some());
        // The same shape as the run telemetry's histograms.
        assert_eq!(svc, &histogram_json(&t.service_ms));
        assert_eq!(svc.get("min").and_then(Json::as_u64), Some(12));
        assert_eq!(svc.get("mean").and_then(Json::as_f64), Some(26.0));
        assert_eq!(
            svc.get("buckets").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        // Single-line, reparsable.
        let line = v.to_string();
        assert!(!line.contains('\n'));
        assert!(Json::parse(&line).is_ok());
    }

    #[test]
    fn telemetry_exports_are_deterministic_and_complete() {
        let mut t = Telemetry {
            refreshes_normal: 7,
            ..Default::default()
        };
        t.act_to_data.record(40);
        t.act_to_data.record(60);
        t.banks.push(mcr_dram::BankCommandCounts {
            channel: 0,
            rank: 1,
            bank: 2,
            activates: 3,
            reads: 4,
            writes: 5,
            precharges: 6,
        });
        let json = telemetry_json(&t);
        assert_eq!(json, telemetry_json(&t));
        assert_eq!(json.get("refreshes_normal").and_then(Json::as_u64), Some(7));
        let act = json.get("act_to_data").expect("act_to_data histogram");
        assert_eq!(act.get("count").and_then(Json::as_u64), Some(2));
        let banks = json.get("banks").and_then(Json::as_array).expect("banks");
        assert_eq!(banks.len(), 1);
        assert_eq!(banks[0].get("bank").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn empty_histograms_export_null_in_json() {
        let json = telemetry_json(&Telemetry::default());
        let h = json.get("read_latency").expect("read_latency histogram");
        for key in ["min", "max", "mean", "p50", "p95", "p99"] {
            assert_eq!(h.get(key), Some(&Json::Null), "{key}");
        }
        assert_eq!(h.get("buckets"), Some(&Json::Arr(Vec::new())));
        assert_eq!(json.get("banks"), Some(&Json::Arr(Vec::new())));
    }
}

//! Event-wheel wake-soundness certifier.
//!
//! The event-wheel run loop (core crate) only ticks the controller at
//! cycles where something can happen: after a quiet tick it asks
//! [`MemoryController::next_event`] for the earliest future edge and
//! jumps straight to it. That is only sound if no edge source ever
//! *overshoots* — claims a wake-up later than the first cycle at which
//! the controller would actually do observable work.
//!
//! This module proves it differentially: twin controllers are driven
//! through a deterministic scenario matrix (MCR modes × power-down
//! management, plus a closed-page run and a late-refresh-fault run;
//! seeded request schedules with bursts, write-drain crossings, and idle
//! gaps). The *wheel* twin follows the skip discipline; the *dense* twin
//! is ticked on every single cycle of every claimed-quiet span. Any completion or activity the dense twin shows
//! strictly before the claimed edge is a wake-soundness violation,
//! attributed to the [`EdgeSource`] that produced the too-late edge.
//! Every distinct quiet-state fingerprint encountered is counted, so the
//! report states exactly how many reachable quiet states were certified.

use crate::Finding;
use circuit_model::{CircuitParams, LeakageModel};
use dram_device::{Cycle, DeviceError, Geometry, PhysAddr, RetentionConfig, TimingSet, T_CK_NS};
use mcr_dram::{FaultPlan, McrMode, McrPolicy, Mechanisms};
use mem_controller::{
    ControllerConfig, EdgeInfo, EdgeSource, MemoryController, PageInterleave, RowPolicy,
};
use sim_rng::SmallRng;
use std::collections::{HashMap, HashSet};

/// Outcome of a certification run.
#[derive(Debug, Clone)]
pub struct CertifyReport {
    /// Scenarios driven (mode × power-down combinations).
    pub scenarios: usize,
    /// Distinct quiet-state fingerprints certified.
    pub quiet_states: usize,
    /// Quiet spans validated by dense micro-stepping.
    pub spans: u64,
    /// Total cycles the wheel skipped across all certified spans.
    pub skipped_cycles: Cycle,
    /// Spans per claiming edge source (coverage evidence).
    pub edge_spans: Vec<(String, u64)>,
    /// Wake-soundness violations and twin divergences.
    pub findings: Vec<Finding>,
}

#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    m: u32,
    k: u32,
    powerdown: Option<u32>,
    row_policy: RowPolicy,
    /// Holds half of the refresh slots back by a late-refresh fault, so
    /// release edges (`not_before`) gate the backlog.
    late_refresh: bool,
    seed: u64,
}

/// The MCR-mode × power-down matrix entries: open pages, no faults.
const fn open_page(
    name: &'static str,
    m: u32,
    k: u32,
    powerdown: Option<u32>,
    seed: u64,
) -> Scenario {
    Scenario {
        name,
        m,
        k,
        powerdown,
        row_policy: RowPolicy::Open,
        late_refresh: false,
        seed,
    }
}

const SCENARIOS: [Scenario; 10] = [
    open_page("off", 1, 1, None, 11),
    open_page("off+pd", 1, 1, Some(64), 12),
    open_page("2/2x", 2, 2, None, 13),
    open_page("2/2x+pd", 2, 2, Some(64), 14),
    open_page("2/4x", 2, 4, None, 15),
    open_page("2/4x+pd", 2, 4, Some(64), 16),
    open_page("4/4x", 4, 4, None, 17),
    open_page("4/4x+pd", 4, 4, Some(48), 18),
    Scenario {
        name: "4/4x+closed+pd",
        m: 4,
        k: 4,
        powerdown: Some(64),
        row_policy: RowPolicy::Closed,
        late_refresh: false,
        seed: 19,
    },
    Scenario {
        name: "2/4x+closed+late",
        m: 2,
        k: 4,
        powerdown: None,
        row_policy: RowPolicy::Closed,
        late_refresh: true,
        seed: 20,
    },
];

fn build_controller(sc: &Scenario) -> Result<MemoryController, DeviceError> {
    let geometry = Geometry::tiny();
    let timing = TimingSet::ddr3_1600(geometry.rows_per_bank);
    let mut config = ControllerConfig::msc_default();
    config.powerdown_idle_threshold = sc.powerdown;
    config.row_policy = sc.row_policy;
    let mode = McrMode::new(sc.m, sc.k, 1.0).unwrap_or_else(|_| McrMode::off());
    let policy = McrPolicy::for_geometry(mode, Mechanisms::all(), &geometry);
    let mut ctl = MemoryController::new(
        geometry,
        timing,
        config,
        Box::new(PageInterleave::new(geometry)),
        Box::new(policy),
    );
    if sc.late_refresh {
        // Every class restores fully, so only the refresh-fault stream
        // of the plan is in play.
        let params = CircuitParams::calibrated();
        ctl.set_retention(RetentionConfig {
            plan: FaultPlan::new(sc.seed).with_late_refreshes(0.5, 3_000),
            leakage: LeakageModel::new(params),
            class_restore_v: vec![params.v_full],
            fast_refresh_restore_v: params.v_full,
            full_restore_v: params.v_full,
            t_ck_ns: T_CK_NS,
        })?;
    }
    Ok(ctl)
}

struct Ev {
    at: Cycle,
    write: bool,
    addr: u64,
}

/// A deterministic request schedule: short read/write bursts, an
/// occasional write burst deep enough to cross the drain watermark, and
/// idle gaps spanning everything from a few bus cycles to well past the
/// power-down threshold and multiple refresh slots.
fn schedule(seed: u64, bursts: usize, capacity: u64) -> Vec<Ev> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lines = capacity / 64;
    let mut draw = |span: u64| rng.next_u64() % span.max(1);
    let mut out = Vec::new();
    let mut now: Cycle = 10;
    for burst in 0..bursts {
        let drain_burst = burst % 5 == 3;
        let len = if drain_burst {
            26
        } else {
            2 + draw(8) as usize
        };
        for _ in 0..len {
            now += draw(4);
            out.push(Ev {
                at: now,
                write: drain_burst || draw(10) < 3,
                addr: draw(lines) * 64,
            });
        }
        now += match burst % 3 {
            0 => 20 + draw(100),
            1 => 200 + draw(700),
            _ => 2_000 + draw(7_000),
        };
    }
    out
}

fn source_name(edge: Option<EdgeInfo>) -> String {
    match edge {
        Some(e) => format!("{:?}", e.source),
        None => "None".to_string(),
    }
}

fn source_idx(edge: Option<EdgeInfo>) -> u8 {
    match edge.map(|e| e.source) {
        None => 255,
        Some(EdgeSource::GuardbandRearm) => 0,
        Some(EdgeSource::Completion) => 1,
        Some(EdgeSource::RefreshDue) => 2,
        Some(EdgeSource::RefreshRelease) => 3,
        Some(EdgeSource::RefreshQuiesce) => 4,
        Some(EdgeSource::QueueCas) => 5,
        Some(EdgeSource::QueuePrecharge) => 6,
        Some(EdgeSource::QueueActivate) => 7,
        Some(EdgeSource::PowerdownDue) => 8,
        Some(EdgeSource::PowerdownRetry) => 9,
    }
}

/// Quiet-state fingerprint: scenario identity plus everything observable
/// that shapes the next edge.
type QuietFp = (usize, usize, usize, bool, usize, u8);

fn fingerprint(scn: usize, ctl: &MemoryController, edge: Option<EdgeInfo>) -> QuietFp {
    (
        scn,
        ctl.read_queue_len(0),
        ctl.write_queue_len(0),
        ctl.is_draining(0),
        ctl.refresh_backlog(0, 0),
        source_idx(edge),
    )
}

/// Certifies wake-soundness of the event-wheel edges over the scenario
/// matrix. `bursts` scales each scenario's schedule (the lint pass uses a
/// larger value than the unit tests).
pub fn certify(bursts: usize) -> CertifyReport {
    let mut findings = Vec::new();
    let mut fingerprints: HashSet<QuietFp> = HashSet::new();
    let mut edge_spans: HashMap<String, u64> = HashMap::new();
    let mut spans: u64 = 0;
    let mut skipped_cycles: Cycle = 0;

    for (scn_idx, sc) in SCENARIOS.iter().enumerate() {
        let (mut wheel, mut dense) = match (build_controller(sc), build_controller(sc)) {
            (Ok(w), Ok(d)) => (w, d),
            (Err(e), _) | (_, Err(e)) => {
                findings.push(Finding::error(
                    "model/certify-setup",
                    format!("scenario {}: {e}", sc.name),
                ));
                continue;
            }
        };
        let events = schedule(sc.seed, bursts, Geometry::tiny().capacity_bytes());
        let hard_end = events.last().map_or(0, |e| e.at) + 30_000;
        let mut i = 0;
        let mut now: Cycle = 0;
        let mut guard: u64 = 0;
        let scenario_budget = 40_000_000;
        loop {
            guard += 1;
            if guard > scenario_budget {
                findings.push(Finding::error(
                    "model/wake-stall",
                    format!(
                        "scenario {}: run loop exceeded its iteration budget",
                        sc.name
                    ),
                ));
                break;
            }
            let wc = wheel.tick(now);
            let dc = dense.tick(now);
            if wc != dc {
                findings.push(Finding::error(
                    "model/twin-divergence",
                    format!(
                        "scenario {}: completions diverged @{now} (wheel {:?}, dense {:?})",
                        sc.name, wc, dc
                    ),
                ));
                break;
            }
            // Arrivals land *after* the tick, mirroring the run loop where
            // cores enqueue in the CPU subcycles that follow the
            // controller tick — both twins then stamp the same
            // `enqueued_at`.
            let mut enqueued = false;
            while i < events.len() && events[i].at <= now {
                let ev = &events[i];
                if ev.write {
                    let a = wheel.enqueue_write(0, PhysAddr(ev.addr));
                    let b = dense.enqueue_write(0, PhysAddr(ev.addr));
                    if a != b {
                        findings.push(Finding::error(
                            "model/twin-divergence",
                            format!("scenario {}: write admission diverged @{now}", sc.name),
                        ));
                    }
                } else {
                    let a = wheel.enqueue_read(0, PhysAddr(ev.addr));
                    let b = dense.enqueue_read(0, PhysAddr(ev.addr));
                    if a != b {
                        findings.push(Finding::error(
                            "model/twin-divergence",
                            format!("scenario {}: read admission diverged @{now}", sc.name),
                        ));
                    }
                }
                i += 1;
                enqueued = true;
            }
            if now >= hard_end {
                break;
            }
            if wheel.had_activity() || enqueued {
                now += 1;
                continue;
            }
            // Quiet tick: the wheel claims nothing observable happens
            // before its earliest edge. Certify the claim.
            let edge = wheel.next_event_detail(now);
            fingerprints.insert(fingerprint(scn_idx, &wheel, edge));
            if let Some(e) = edge {
                if e.cycle <= now {
                    findings.push(Finding::error(
                        "model/edge-contract",
                        format!(
                            "scenario {}: next_event({now}) returned non-future edge {} ({:?})",
                            sc.name, e.cycle, e.source
                        ),
                    ));
                    break;
                }
            }
            let next_enqueue = events.get(i).map(|e| e.at);
            let mut target = hard_end.max(now + 1);
            let mut claimed: Option<EdgeInfo> = None;
            if let Some(e) = edge {
                if e.cycle < target {
                    target = e.cycle;
                    claimed = Some(e);
                }
            }
            if let Some(at) = next_enqueue {
                if at < target {
                    target = at;
                    claimed = None;
                }
            }
            let mut overshoot = None;
            for c in (now + 1)..target {
                let comps = dense.tick(c);
                if !comps.is_empty() || dense.had_activity() {
                    overshoot = Some((c, comps.len()));
                    break;
                }
            }
            if let Some((c, comps)) = overshoot {
                findings.push(Finding::error(
                    "model/wake-overshoot",
                    format!(
                        "scenario {}: dense twin did observable work @{c} \
                         ({comps} completion(s)) inside a span the wheel claimed \
                         quiet until {target} (claimed edge: {})",
                        sc.name,
                        source_name(claimed),
                    ),
                ));
                break;
            }
            if claimed.is_some() || target > now + 1 {
                spans += 1;
                skipped_cycles += target - now - 1;
                *edge_spans.entry(source_name(claimed)).or_insert(0) += 1;
            }
            wheel.note_skipped_cycles(target - now - 1);
            now = target;
        }
        // In audit-armed builds both twins must also be violation-free.
        if wheel.audit_enabled() && (wheel.audit_total() != 0 || dense.audit_total() != 0) {
            findings.push(Finding::error(
                "model/certify-audit",
                format!(
                    "scenario {}: online auditor flagged {} (wheel) / {} (dense) violations",
                    sc.name,
                    wheel.audit_total(),
                    dense.audit_total()
                ),
            ));
        }
    }

    let mut edge_spans: Vec<(String, u64)> = edge_spans.into_iter().collect();
    edge_spans.sort();
    CertifyReport {
        scenarios: SCENARIOS.len(),
        quiet_states: fingerprints.len(),
        spans,
        skipped_cycles,
        edge_spans,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_edges_are_sound_across_the_scenario_matrix() {
        let report = certify(6);
        assert!(
            report.findings.is_empty(),
            "wake-soundness findings: {:?}",
            report
                .findings
                .iter()
                .map(|f| f.message.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(report.scenarios, 10);
        assert!(
            report.quiet_states > 10,
            "{} quiet states",
            report.quiet_states
        );
        assert!(report.spans > 50, "{} spans", report.spans);
        assert!(report.skipped_cycles > 1_000);
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = schedule(42, 8, Geometry::tiny().capacity_bytes());
        let b = schedule(42, 8, Geometry::tiny().capacity_bytes());
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.write == y.write && x.addr == y.addr));
        let c = schedule(43, 8, Geometry::tiny().capacity_bytes());
        assert!(
            a.len() != c.len()
                || a.iter()
                    .zip(&c)
                    .any(|(x, y)| x.at != y.at || x.addr != y.addr)
        );
    }
}

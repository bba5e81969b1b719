//! Event-wheel wake-soundness certifier.
//!
//! The event-wheel run loop (core crate) ticks the controller only at its
//! wake: after every tick, and after every cycle with an admitted
//! enqueue, it asks [`MemoryController::next_tick`] for the next cycle
//! that can change the controller's state, and replays the cycles before
//! it with [`MemoryController::note_skipped_cycles`]. That is only sound
//! if no edge source ever *overshoots* — claims a wake-up later than the
//! first cycle at which the controller would actually do observable
//! work, after a quiet cycle or an active one.
//!
//! This module proves it differentially: twin controllers are driven
//! through a deterministic scenario matrix (MCR modes × power-down
//! management, plus a closed-page run and a late-refresh-fault run;
//! seeded request schedules with bursts, write-drain crossings, and idle
//! gaps). The *wheel* twin follows the skip discipline; the *dense* twin
//! is ticked on every cycle, and every cycle the wheel skips must be
//! quiet on it. Any completion or activity the dense twin shows strictly
//! before the claimed wake is a wake-soundness violation, attributed to
//! the [`mem_controller::EdgeSource`] that produced the too-late edge. At
//! the end of each scenario both twins' statistics and telemetry must
//! agree. Every distinct wake-state fingerprint encountered is counted,
//! after quiet and after active cycles apart, so the report states
//! exactly how many reachable states were certified.

use crate::Finding;
use circuit_model::{CircuitParams, LeakageModel};
use dram_device::{Cycle, DeviceError, Geometry, PhysAddr, RetentionConfig, TimingSet, T_CK_NS};
use mcr_dram::{FaultPlan, McrMode, McrPolicy, Mechanisms};
use mem_controller::{ControllerConfig, EdgeInfo, MemoryController, PageInterleave, RowPolicy};
use sim_rng::SmallRng;
use std::collections::{HashMap, HashSet};

/// Outcome of a certification run.
#[derive(Debug, Clone)]
pub struct CertifyReport {
    /// Scenarios driven (mode × power-down combinations).
    pub scenarios: usize,
    /// Distinct wake-state fingerprints certified after a quiet cycle.
    pub quiet_states: usize,
    /// Distinct wake-state fingerprints certified after an active cycle
    /// (a tick that did work, or an admitted enqueue).
    pub active_states: usize,
    /// Wheel spans of at least one skipped cycle, each validated by dense
    /// micro-stepping.
    pub spans: u64,
    /// The spans among `spans` that follow an active cycle.
    pub active_spans: u64,
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
    edge.map_or(u8::MAX, |e| e.source as u8)
}

/// Wake-state fingerprint: scenario identity, whether the cycle that
/// claimed the wake was active, plus everything observable that shapes
/// the next edge.
type WakeFp = (usize, bool, usize, usize, bool, usize, u8);

fn fingerprint(scn: usize, ctl: &MemoryController, edge: Option<EdgeInfo>) -> WakeFp {
    (
        scn,
        ctl.had_activity(),
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
    let mut fingerprints: HashSet<WakeFp> = HashSet::new();
    let mut edge_spans: HashMap<String, u64> = HashMap::new();
    let mut spans: u64 = 0;
    let mut active_spans: u64 = 0;
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
        // The wheel twin ticks only at its wake, as `System` does; the
        // first cycle always ticks.
        let mut wake: Option<Cycle> = Some(0);
        let mut claimed: Option<EdgeInfo> = None;
        let mut guard: u64 = 0;
        let scenario_budget = 40_000_000;
        let mut finished = false;
        'run: loop {
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
            let dc = dense.tick(now);
            let ticked = wake.is_some_and(|w| w <= now);
            if ticked {
                let wc = wheel.tick(now);
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
            } else {
                wheel.note_skipped_cycles(1);
                skipped_cycles += 1;
                if !dc.is_empty() || dense.had_activity() {
                    findings.push(overshoot(sc.name, now, dc.len(), wake, claimed));
                    break;
                }
            }
            // Arrivals land *after* the tick, mirroring the run loop where
            // cores enqueue in the CPU subcycles that follow the
            // controller tick — both twins then stamp the same
            // `enqueued_at`, ticked cycle or not.
            while i < events.len() && events[i].at <= now {
                let ev = &events[i];
                let agree = if ev.write {
                    wheel.enqueue_write(0, PhysAddr(ev.addr))
                        == dense.enqueue_write(0, PhysAddr(ev.addr))
                } else {
                    wheel.enqueue_read(0, PhysAddr(ev.addr))
                        == dense.enqueue_read(0, PhysAddr(ev.addr))
                };
                if !agree {
                    findings.push(Finding::error(
                        "model/twin-divergence",
                        format!("scenario {}: admission diverged @{now}", sc.name),
                    ));
                }
                i += 1;
            }
            if now >= hard_end {
                finished = true;
                break;
            }
            // A tick or an admitted enqueue re-arms the wake; the claim
            // is that nothing observable happens before it.
            if ticked || wheel.had_activity() {
                let edge = wheel.next_tick_detail(now);
                if let Some(e) = edge.filter(|e| e.cycle <= now) {
                    findings.push(Finding::error(
                        "model/edge-contract",
                        format!(
                            "scenario {}: next_tick({now}) returned non-future edge {} ({:?})",
                            sc.name, e.cycle, e.source
                        ),
                    ));
                    break;
                }
                fingerprints.insert(fingerprint(scn_idx, &wheel, edge));
                let end = edge.map_or(hard_end, |e| e.cycle.min(hard_end));
                if end > now + 1 {
                    spans += 1;
                    active_spans += u64::from(wheel.had_activity());
                    *edge_spans.entry(source_name(edge)).or_insert(0) += 1;
                }
                wake = edge.map(|e| e.cycle);
                claimed = edge;
            }
            // The dense twin checks every cycle the wheel skips, up to the
            // wake or the next arrival (which may re-arm it).
            let next_arrival = events.get(i).map_or(hard_end, |e| e.at);
            let target = wake
                .unwrap_or(hard_end)
                .min(next_arrival)
                .min(hard_end)
                .max(now + 1);
            for c in (now + 1)..target {
                let comps = dense.tick(c);
                if !comps.is_empty() || dense.had_activity() {
                    findings.push(overshoot(sc.name, c, comps.len(), wake, claimed));
                    break 'run;
                }
            }
            wheel.note_skipped_cycles(target - now - 1);
            skipped_cycles += target - now - 1;
            now = target;
        }
        // The closed-form replay must leave the wheel's statistics and
        // telemetry where the dense twin's ticks left them.
        if finished && (wheel.stats() != dense.stats() || wheel.telemetry() != dense.telemetry()) {
            findings.push(Finding::error(
                "model/twin-divergence",
                format!(
                    "scenario {}: statistics or telemetry diverged by the end @{now}",
                    sc.name
                ),
            ));
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
    let active_states = fingerprints.iter().filter(|fp| fp.1).count();
    CertifyReport {
        scenarios: SCENARIOS.len(),
        quiet_states: fingerprints.len() - active_states,
        active_states,
        spans,
        active_spans,
        skipped_cycles,
        edge_spans,
        findings,
    }
}

/// The finding for observable work the dense twin did at `at`, inside a
/// span the wheel claimed quiet until `wake`.
fn overshoot(
    scenario: &str,
    at: Cycle,
    completions: usize,
    wake: Option<Cycle>,
    claimed: Option<EdgeInfo>,
) -> Finding {
    let until = wake.map_or("the next enqueue".to_string(), |w| w.to_string());
    Finding::error(
        "model/wake-overshoot",
        format!(
            "scenario {scenario}: dense twin did observable work @{at} \
             ({completions} completion(s)) inside a span the wheel claimed \
             quiet until {until} (claimed edge: {})",
            source_name(claimed),
        ),
    )
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
            report.quiet_states > 10 && report.active_states > 10,
            "{} quiet and {} active states",
            report.quiet_states,
            report.active_states
        );
        assert!(
            report.spans > 50 && report.active_spans > 50,
            "{} spans, {} after active cycles",
            report.spans,
            report.active_spans
        );
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

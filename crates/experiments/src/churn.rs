//! Membership churn study (beyond the paper): view-convergence latency
//! after a node crash, decentralized SWIM gossip vs the paper's
//! centralized coordinator.
//!
//! The paper's membership service is "a simple centralized membership
//! service, running on a coordinator node" with a 30-minute timeout —
//! fine for its evaluation, but a single point of failure and the first
//! scaling bottleneck. This experiment measures what replacing it buys:
//!
//! * a node is crashed at a scheduled time (via
//!   [`apor_topology::NodeOutage`], so the event loop stays seeded and
//!   the run is deterministic end-to-end);
//! * **convergence latency** is the time from the crash until every
//!   surviving node's installed [`MembershipView`] excludes the victim
//!   *and* all surviving views are identical (same version, same
//!   member list — the quorum-grid invariant);
//! * four scenarios: {centralized, SWIM} × {ordinary member,
//!   coordinator/introducer}. The coordinator-victim scenario is the
//!   one the centralized design cannot survive: no further membership
//!   change is ever installed.
//!
//! The centralized runs use the paper's join/keepalive dance with the
//! timeout scaled to the experiment horizon ([`ChurnParams::member_timeout_s`]);
//! the SWIM runs use the protocol's constants and are expected to
//! converge within [`apor_membership::detection_budget_s`] ([`check`]).

use crate::trace_support::{
    assemble_episode, first_span_at, fleet_spans, recovery_phases, richest_episode, Phase,
};
use crate::ResultTable;
use apor_analysis::write_csv;
use apor_membership::detection_budget_s;
use apor_netsim::{Simulator, TrafficClass};
use apor_overlay::config::{Algorithm, MembershipMode, NodeConfig};
use apor_overlay::membership::MembershipView;
use apor_overlay::simnode::{fleet_snapshot, overlay_at, overlay_sim_config, populate};
use apor_quorum::NodeId;
use apor_telemetry::trace::{Span, SpanKind};
use apor_telemetry::Snapshot;
use apor_topology::{FailureParams, FailureSchedule, LatencyMatrix, NodeOutage};
use serde::Serialize;

/// Flight-recorder capacity per node (see `partition::TRACE_CAPACITY`).
const TRACE_CAPACITY: usize = 1024;

/// Parameters of the churn study.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Overlay size.
    pub n: usize,
    /// The ordinary member crashed in the member-victim scenarios.
    pub kill: usize,
    /// Crash time, seconds (must leave room for joins to settle).
    pub kill_at_s: f64,
    /// How long after the crash the run keeps sampling, seconds.
    pub horizon_s: f64,
    /// Coordinator-side membership timeout for the centralized runs,
    /// seconds (the paper's 30 min scaled to the experiment horizon).
    pub member_timeout_s: f64,
    /// Keepalive period for the centralized runs, seconds.
    pub keepalive_s: f64,
    /// Uniform mesh RTT, ms.
    pub rtt_ms: f64,
    /// Master seed: the whole study is a pure function of it.
    pub seed: u64,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            n: 16,
            kill: 3,
            kill_at_s: 120.0,
            horizon_s: 300.0,
            member_timeout_s: 60.0,
            keepalive_s: 15.0,
            rtt_ms: 40.0,
            seed: 0xC0C0,
        }
    }
}

/// One scenario's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnOutcome {
    /// `"centralized"` or `"swim"`.
    pub mode: String,
    /// Was the crashed node the coordinator / introducer (node 0)?
    pub victim_is_coordinator: bool,
    /// Seconds from the crash until all surviving views agree and
    /// exclude the victim; `None` when never within the horizon.
    pub convergence_s: Option<f64>,
    /// Surviving views identical at the end of the run?
    pub final_views_agree: bool,
    /// Fleet-mean per-node membership traffic before the crash, bps.
    pub membership_bps: f64,
    /// Fleet telemetry aggregated over all nodes at the end of the
    /// scenario (sync frame sizes, probe RTTs, queue depth, …).
    /// Exported as `churn_telemetry.json`, not part of the CSV.
    #[serde(skip)]
    pub telemetry: Snapshot,
    /// Every span the fleet's flight recorders held at the end of the
    /// scenario (feeds the dump-on-failure hook).
    #[serde(skip)]
    pub spans: Vec<Span>,
    /// The richest causal episode of the crash, assembled for the
    /// Chrome-trace export (`churn_trace.json`). Empty in the
    /// centralized scenarios (no suspicion plane, no episodes).
    #[serde(skip)]
    pub episode: Vec<Span>,
    /// The crash→convergence interval decomposed into consecutive
    /// phases (`churn_phases.csv`); empty when the scenario never
    /// converged. Durations sum to `convergence_s` by construction.
    #[serde(skip)]
    pub phases: Vec<Phase>,
}

impl ChurnOutcome {
    /// The victim column: `"coordinator"` or `"member"`.
    #[must_use]
    pub fn victim(&self) -> &'static str {
        if self.victim_is_coordinator {
            "coordinator"
        } else {
            "member"
        }
    }
}

/// The full study output.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnResult {
    /// Overlay size the scenarios ran at.
    pub n: usize,
    /// One outcome per scenario.
    pub outcomes: Vec<ChurnOutcome>,
}

fn scenario_config(params: &ChurnParams, mode: MembershipMode, i: usize) -> NodeConfig {
    let mut cfg = NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
        .with_tracing(TRACE_CAPACITY);
    cfg.seed ^= params.seed;
    match mode {
        MembershipMode::Centralized => {
            // The paper's join dance, with timeouts scaled to the
            // experiment horizon so detection is observable at all.
            cfg.member_timeout_s = params.member_timeout_s;
            cfg.keepalive_s = params.keepalive_s;
            cfg.join_retry_s = 2.0;
            cfg
        }
        MembershipMode::Swim => {
            // Static bootstrap: every node derives the same initial
            // view; SWIM maintains it from there.
            let members: Vec<NodeId> = (0..params.n as u16).map(NodeId).collect();
            cfg.with_static_members(members).with_swim()
        }
    }
}

/// Do all survivors hold identical views that exclude the victim?
fn converged(sim: &Simulator, n: usize, victim: usize) -> bool {
    let mut reference: Option<&MembershipView> = None;
    for i in (0..n).filter(|&i| i != victim) {
        let Some(view) = overlay_at(sim, i).view() else {
            return false;
        };
        if view.contains(NodeId(victim as u16)) {
            return false;
        }
        match reference {
            None => reference = Some(view),
            Some(r) if r == view => {}
            Some(_) => return false,
        }
    }
    reference.is_some()
}

/// Run one scenario: crash `victim` at `kill_at_s`, sample convergence
/// once per second afterwards.
fn run_scenario(params: &ChurnParams, mode: MembershipMode, victim: usize) -> ChurnOutcome {
    let n = params.n;
    let mut failure = FailureParams::with_n(n);
    failure.seed = params.seed ^ 0xFA11;
    failure.median_concurrent = 1e-12; // churn only, no background noise
    failure.duration_s = params.kill_at_s + params.horizon_s + 60.0;
    failure.node_outages = vec![NodeOutage {
        node: victim,
        start_s: params.kill_at_s,
        end_s: failure.duration_s,
    }];
    let mut sim = Simulator::new(
        LatencyMatrix::uniform(n, params.rtt_ms),
        FailureSchedule::generate(&failure),
        apor_netsim::SimulatorConfig {
            seed: params.seed,
            ..overlay_sim_config()
        },
    );
    populate(&mut sim, n, 10.0, {
        let params = params.clone();
        move |i| scenario_config(&params, mode, i)
    });

    sim.run_until(params.kill_at_s);
    let membership_bps =
        sim.stats()
            .fleet_mean_bps(&[TrafficClass::Membership], 30.0, params.kill_at_s);

    // Sample once per second until convergence or the horizon.
    let mut convergence_s = None;
    let mut t = params.kill_at_s;
    let end = params.kill_at_s + params.horizon_s;
    while t < end {
        t += 1.0;
        sim.run_until(t);
        if converged(&sim, n, victim) {
            convergence_s = Some(t - params.kill_at_s);
            break;
        }
    }
    sim.run_until(end);

    // The causal record of the crash (SWIM scenarios; the centralized
    // plane raises no suspicions and records no episodes).
    let spans = fleet_spans(&sim, n);
    let episode = richest_episode(&spans).map_or_else(Vec::new, |ep| {
        assemble_episode(
            &spans,
            ep,
            params.kill_at_s,
            convergence_s.map(|s| params.kill_at_s + s),
        )
    });
    let phases = convergence_s.map_or_else(Vec::new, |total| {
        let kill = params.kill_at_s;
        let suspicion = first_span_at(&spans, &[SpanKind::Suspicion], kill).map(|t| t - kill);
        let confirm = first_span_at(&spans, &[SpanKind::Confirm], kill).map(|t| t - kill);
        let install = first_span_at(&spans, &[SpanKind::ViewInstall], kill).map(|t| t - kill);
        recovery_phases(
            &[
                ("first_suspicion", suspicion),
                ("suspicion_window", confirm),
                ("first_view_install", install),
            ],
            "view_agreement",
            total,
        )
    });
    ChurnOutcome {
        mode: match mode {
            MembershipMode::Centralized => "centralized".to_string(),
            MembershipMode::Swim => "swim".to_string(),
        },
        victim_is_coordinator: victim == 0,
        convergence_s,
        final_views_agree: converged(&sim, n, victim),
        membership_bps,
        telemetry: crate::aggregate_fleet(&fleet_snapshot(&sim, n)),
        spans,
        episode,
        phases,
    }
}

/// Run all four scenarios.
#[must_use]
pub fn run(params: &ChurnParams) -> ChurnResult {
    let scenarios = [
        (MembershipMode::Centralized, params.kill),
        (MembershipMode::Centralized, 0),
        (MembershipMode::Swim, params.kill),
        (MembershipMode::Swim, 0),
    ];
    ChurnResult {
        n: params.n,
        outcomes: scenarios
            .iter()
            .map(|&(mode, victim)| run_scenario(params, mode, victim))
            .collect(),
    }
}

/// `churn.csv`: per scenario, the convergence latency (empty when it
/// never converged — not a sentinel a consumer could mistake for a
/// measured value), final agreement and steady membership traffic.
#[must_use]
pub fn table(r: &ChurnResult) -> ResultTable {
    let header = &[
        "membership",
        "victim",
        "convergence_s",
        "views_agree",
        "membership_bps",
    ];
    let rows = r
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.mode.clone(),
                o.victim().to_string(),
                o.convergence_s.map_or_else(String::new, |s| s.to_string()),
                o.final_views_agree.to_string(),
                format!("{:.1}", o.membership_bps),
            ]
        })
        .collect();
    (header, rows)
}

/// Run, print and write `churn.csv` plus the per-scenario aggregated
/// fleet telemetry (`churn_telemetry.json`).
///
/// # Errors
/// Propagates CSV I/O errors.
pub fn run_and_report(params: &ChurnParams) -> std::io::Result<ChurnResult> {
    let r = run(params);
    let title = format!(
        "Membership churn — view convergence after a crash (n={}, SWIM budget {:.0} s)",
        params.n,
        detection_budget_s(params.n)
    );
    crate::report_table(&title, "churn.csv", &table(&r))?;

    // Phase breakdown of the crash→convergence interval, one row per
    // (scenario, phase); scenarios that never converged contribute no
    // rows. Durations sum to the scenario's convergence_s exactly.
    let phase_rows: Vec<Vec<String>> = r
        .outcomes
        .iter()
        .flat_map(|o| {
            o.phases.iter().map(|p| {
                vec![
                    o.mode.clone(),
                    o.victim().to_string(),
                    p.name.to_string(),
                    format!("{:.3}", p.start_s),
                    format!("{:.3}", p.end_s),
                    format!("{:.3}", p.duration_s()),
                ]
            })
        })
        .collect();
    write_csv(
        crate::results_path("churn_phases.csv"),
        &[
            "membership",
            "victim",
            "phase",
            "start_s",
            "end_s",
            "duration_s",
        ],
        &phase_rows,
    )?;

    // The richest causal episode of a SWIM crash, Perfetto-loadable.
    if let Some(o) = r.outcomes.iter().find(|o| !o.episode.is_empty()) {
        let trace_path = crate::results_path("churn_trace.json");
        std::fs::write(&trace_path, apor_telemetry::chrome_trace_json(&o.episode))?;
        println!(
            "episode trace -> {} ({} spans)",
            trace_path.display(),
            o.episode.len()
        );
    }

    // The aggregated fleet telemetry, one JSON object per scenario.
    crate::write_arms_json(
        "churn_telemetry.json",
        r.outcomes.iter().map(|o| {
            (
                format!(
                    "\"membership\": \"{}\", \"victim\": \"{}\"",
                    o.mode,
                    o.victim()
                ),
                &o.telemetry,
            )
        }),
    )?;
    check(&r);
    Ok(r)
}

/// The claim: a decentralized membership service survives any single
/// crash — every SWIM scenario converges within the protocol's
/// detection budget with agreeing views — while the paper's
/// centralized service never converges once its coordinator is killed.
///
/// # Panics
/// Panics, naming the claim, when a scenario misses its bound.
pub fn check(r: &ChurnResult) {
    let budget = detection_budget_s(r.n);
    for o in &r.outcomes {
        if o.mode == "swim" {
            let latency = o.convergence_s.unwrap_or(f64::INFINITY);
            assert!(
                latency <= budget && o.final_views_agree,
                "section 5: SWIM must converge within the {budget:.0} s detection budget \
                 with agreeing views; coordinator victim {}: {:?} s, views agree {}",
                o.victim_is_coordinator,
                o.convergence_s,
                o.final_views_agree
            );
        } else if o.victim_is_coordinator {
            assert_eq!(
                o.convergence_s, None,
                "section 5: the centralized service must never converge once its \
                 coordinator is killed"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ChurnParams {
        ChurnParams {
            n: 10,
            kill: 3,
            kill_at_s: 60.0,
            horizon_s: 120.0,
            ..Default::default()
        }
    }

    /// The acceptance scenario: with SWIM, a scheduled failure is
    /// detected and all surviving views agree within the protocol's
    /// detection budget, deterministically from the master seed.
    #[test]
    fn swim_converges_within_budget_and_deterministically() {
        let params = quick();
        let r = run(&params);
        let a = r
            .outcomes
            .iter()
            .find(|o| o.mode == "swim" && !o.victim_is_coordinator)
            .unwrap();
        // Ship the causal evidence with any failure below.
        let _dump = apor_telemetry::DumpOnPanic::new("churn", a.spans.clone(), 20);
        check(&r);
        let latency = a.convergence_s.unwrap();
        // The crash's causal episode must reconstruct detection end to
        // end and export as valid, properly nested trace JSON, with a
        // phase breakdown summing to the measured convergence latency.
        let kinds = crate::trace_support::kinds_present(&a.episode);
        for k in [
            SpanKind::Episode,
            SpanKind::Failure,
            SpanKind::Suspicion,
            SpanKind::Confirm,
            SpanKind::GossipHop,
            SpanKind::ViewInstall,
        ] {
            assert!(
                kinds.contains(&k),
                "episode must contain a {k:?} span, has {kinds:?}"
            );
        }
        apor_telemetry::validate_chrome_trace(&apor_telemetry::chrome_trace_json(&a.episode))
            .expect("episode export must validate");
        let total: f64 = a.phases.iter().map(Phase::duration_s).sum();
        assert!(
            (total - latency).abs() <= 0.1 * latency,
            "phase sum {total:.3}s must match convergence_s {latency:.3}s"
        );
        // Bit-determinism: the identical master seed reproduces the
        // identical outcome.
        let b = run_scenario(&params, MembershipMode::Swim, params.kill);
        assert_eq!(a.convergence_s, b.convergence_s);
        assert_eq!(a.membership_bps, b.membership_bps);
    }

    /// The coordinator-victim scenario separates the designs in the
    /// causal record too: SWIM's crash is an episode decomposed into
    /// phases, while the centralized plane raises no suspicion, records
    /// no episode and ends with survivors that disagree with the truth.
    #[test]
    fn coordinator_loss_separates_the_designs() {
        let params = quick();
        let swim = run_scenario(&params, MembershipMode::Swim, 0);
        assert!(!swim.episode.is_empty() && !swim.phases.is_empty());
        let central = run_scenario(&params, MembershipMode::Centralized, 0);
        assert!(central.episode.is_empty() && central.phases.is_empty());
        assert!(!central.final_views_agree);
    }
}

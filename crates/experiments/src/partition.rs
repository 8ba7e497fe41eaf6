//! Partition-healing study (beyond the paper): can the overlay's
//! membership plane re-merge after a network split, and how fast?
//!
//! A minority of the overlay is cut off for a while — long enough that
//! the majority confirms every minority node faulty and installs views
//! without them. (The minority's verdicts about the majority lag by
//! design: as its probes starve, its Lifeguard local-health multipliers
//! rise and slow its own judgments — the adaptive-suspicion half of
//! this PR working as intended.) Once a side's ledger marks the other
//! dead, dead members leave the probe rotation, so after the heal no
//! probe (and no piggyback) crosses the healed boundary from that side
//! again; with both sides fully split the divorce is permanent, and
//! even a partial split reconverges only through slow incidental
//! echoes.
//!
//! Anti-entropy ([`apor_membership::AntiEntropyConfig`]) fixes exactly
//! this: the periodic push-pull full-ledger sync picks partners among
//! *all* known members, dead or alive, so sync frames cross the healed
//! boundary, death verdicts reach the nodes they are about, those nodes
//! refute with bumped incarnations, and the refutations mix through
//! random pairwise syncs in `O(log n)` rounds.
//!
//! The experiment partitions a [`PartitionParams::minority`]-node
//! minority out of an `n`-node overlay for
//! [`PartitionParams::partition_s`] seconds and measures, from the
//! moment of the heal, how long until **every** node again holds the
//! identical full view (same version, same `n` members — the
//! quorum-grid invariant), in seconds and in SWIM protocol periods.
//! Both arms (anti-entropy on / off) run from the same master seed and
//! land in `results/partition.csv`; [`check`] holds the anti-entropy arm
//! to its bounds.

use crate::trace_support::{
    assemble_episode, first_span_at, recovery_phases, richest_episode, Phase, TRACE_CAPACITY,
};
use crate::ResultTable;
use apor_analysis::write_csv;
use apor_membership::{AntiEntropyConfig, PERIOD_S};
use apor_netsim::TrafficClass;
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::simnode::{overlay_sim_config, World};
use apor_quorum::NodeId;
use apor_telemetry::trace::{Span, SpanKind};
use apor_telemetry::Snapshot;
use apor_topology::{FailureParams, FailureSchedule, LatencyMatrix};

/// Parameters of the partition study.
#[derive(Debug, Clone)]
pub struct PartitionParams {
    /// Overlay size.
    pub n: usize,
    /// Size of the partitioned minority (the highest-numbered nodes).
    pub minority: usize,
    /// When the partition starts, seconds (leaves time to converge).
    pub partition_at_s: f64,
    /// Partition duration, seconds (must exceed the detection budget so
    /// both sides confirm the other faulty).
    pub partition_s: f64,
    /// How long after the heal the run keeps sampling, seconds.
    pub horizon_s: f64,
    /// The SWIM plane's anti-entropy arm; each arm of the study
    /// overrides `enabled`.
    pub anti_entropy: AntiEntropyConfig,
    /// Uniform mesh RTT, ms.
    pub rtt_ms: f64,
    /// Master seed: the whole study is a pure function of it.
    pub seed: u64,
}

impl Default for PartitionParams {
    fn default() -> Self {
        PartitionParams {
            n: 32,
            minority: 5,
            partition_at_s: 60.0,
            partition_s: 60.0,
            horizon_s: 180.0,
            // Sync once per protocol period: the experiment is about
            // reconvergence speed, and O(n)-byte frames at n=32 are far
            // below the probing budget.
            anti_entropy: AntiEntropyConfig {
                enabled: true,
                sync_period_s: PERIOD_S,
            },
            rtt_ms: 40.0,
            seed: 0x9A27,
        }
    }
}

/// One arm's outcome.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Was the push-pull anti-entropy sync enabled?
    pub anti_entropy: bool,
    /// Did every majority node install a view excluding the entire
    /// minority while partitioned — the precondition that makes healing
    /// non-trivial? (The minority's reverse verdicts are deliberately
    /// slowed by local health as its probes starve.)
    pub split_confirmed: bool,
    /// Seconds from the heal until all `n` views are identical and
    /// full again; `None` when never within the horizon.
    pub reconverge_s: Option<f64>,
    /// [`PartitionOutcome::reconverge_s`] in SWIM protocol periods.
    pub reconverge_periods: Option<f64>,
    /// Seconds from the heal until the *routing plane* recovers too:
    /// every cross-boundary pair (majority ↔ minority, both
    /// directions) again has a usable route. Strictly after membership
    /// reconvergence — the healed view must be installed, the probers
    /// must re-mark the cross links alive, and the quorum exchange must
    /// warm up. `None` when never within the horizon.
    pub routes_restored_s: Option<f64>,
    /// All views identical and full at the end of the run?
    pub final_views_agree: bool,
    /// Fleet-mean per-node membership traffic over the whole run, bps
    /// (the price of the sync frames).
    pub membership_bps: f64,
    /// Total anti-entropy transfers skipped fleet-wide by the
    /// version-digest short-circuit (0 with anti-entropy off).
    pub sync_skips: u64,
    /// Total full-ledger pushes actually sent fleet-wide.
    pub sync_full: u64,
    /// Round trips removed fleet-wide by the digest-mismatch piggyback
    /// (the responder ships its first ledger chunk on the mismatch echo
    /// instead of waiting to be pulled).
    pub sync_piggyback_saved: u64,
    /// The merged fleet telemetry at the end of the arm: every node's
    /// registry plus the netsim per-node packet accounting. Not part of
    /// the CSV — exported as `partition_telemetry.json`.
    pub telemetry: Snapshot,
    /// Every span the fleet's flight recorders held at the end of the
    /// arm (the raw causal record; feeds the dump-on-failure hook).
    pub spans: Vec<Span>,
    /// The richest causal episode of the incident, assembled for the
    /// Chrome-trace export (`partition_trace.json`): live spans plus
    /// the synthesized root / failure / routes-restored markers.
    pub episode: Vec<Span>,
    /// The heal→routes-restored interval decomposed into consecutive
    /// phases (`partition_phases.csv`); empty when routes were never
    /// restored. Durations sum to `routes_restored_s` by construction.
    pub phases: Vec<Phase>,
}

/// The full study output.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// One outcome per arm, anti-entropy on first.
    pub outcomes: Vec<PartitionOutcome>,
}

/// Do all `n` nodes hold one view containing all `n` members?
fn reconverged(world: &World, n: usize) -> bool {
    world.common_view(0..n).is_some_and(|view| view.len() == n)
}

/// During the partition: does every majority node hold a view
/// containing exactly the majority?
fn split_views_installed(world: &World, n: usize, minority: usize) -> bool {
    let cut = n - minority;
    (0..cut).all(|i| {
        let Some(view) = world.node(i).view() else {
            return false;
        };
        (0..n).all(|j| view.contains(NodeId(j as u16)) == (j < cut))
    })
}

/// Run one arm of the study.
#[must_use]
pub fn run_arm(params: &PartitionParams, anti_entropy: bool) -> PartitionOutcome {
    let n = params.n;
    let minority: Vec<usize> = (n - params.minority..n).collect();
    let heal_at = params.partition_at_s + params.partition_s;
    let end = heal_at + params.horizon_s;

    // The partition is the only failure.
    let failure = FailureParams::scripted(n, end + 60.0);
    let failure = failure.with_partition(&minority, params.partition_at_s, heal_at);

    let mut world = World::new(
        LatencyMatrix::uniform(n, params.rtt_ms),
        FailureSchedule::generate(&failure),
        apor_netsim::SimulatorConfig {
            seed: params.seed,
            ..overlay_sim_config()
        },
        5.0,
        |i| {
            NodeConfig::static_member(i, n, Algorithm::Quorum)
                .with_anti_entropy(AntiEntropyConfig {
                    enabled: anti_entropy,
                    ..params.anti_entropy.clone()
                })
                .with_tracing(TRACE_CAPACITY)
        },
    );

    // Let the split be confirmed, then heal.
    world.run_until(heal_at);
    let split_confirmed = split_views_installed(&world, n, params.minority);

    // Sample twice per second until both the membership plane and the
    // routing plane have recovered, or the horizon runs out. The
    // routing-plane criterion is every cross-boundary pair routing
    // again in both directions (view healing alone does not move
    // packets), and it can only hold once everyone holds the healed
    // view (cross entries need matching grid indices).
    let cut = n - params.minority;
    let cross: Vec<(usize, usize)> = (0..cut)
        .flat_map(|i| (cut..n).map(move |j| (i, j)))
        .collect();
    let mut reconverge_s = None;
    let routes_restored_s = world
        .first_sample(heal_at, 0.5, end, |w, t| {
            if reconverge_s.is_none() && reconverged(w, n) {
                reconverge_s = Some(t - heal_at);
            }
            reconverge_s.is_some() && w.routes_both_ways(&cross, t)
        })
        .map(|t| t - heal_at);
    let membership_bps = world
        .sim()
        .stats()
        .fleet_mean_bps(&[TrafficClass::Membership], 30.0, end);
    let telemetry = world.snapshot();

    // The causal record: drain every flight recorder, assemble the
    // richest episode of the incident (synthesizing the ground-truth
    // failure/restoration markers), and decompose the measured
    // heal→routes-restored total into phases anchored on live spans.
    let spans = world.spans();
    let episode = richest_episode(&spans).map_or_else(Vec::new, |ep| {
        assemble_episode(
            &spans,
            ep,
            params.partition_at_s,
            routes_restored_s.map(|s| heal_at + s),
        )
    });
    let phases = routes_restored_s.map_or_else(Vec::new, |routes| {
        let contact = first_span_at(&spans, &[SpanKind::GossipHop, SpanKind::SyncRound], heal_at)
            .map(|t| t - heal_at);
        let install = first_span_at(&spans, &[SpanKind::ViewInstall], heal_at).map(|t| t - heal_at);
        recovery_phases(
            &[
                ("gossip_contact", contact),
                ("first_view_install", install),
                ("view_agreement", reconverge_s),
            ],
            "route_recovery",
            routes,
        )
    });
    PartitionOutcome {
        anti_entropy,
        split_confirmed,
        reconverge_s,
        reconverge_periods: reconverge_s.map(|s| s / PERIOD_S),
        routes_restored_s,
        final_views_agree: reconverged(&world, n),
        membership_bps,
        sync_skips: telemetry.counter_total("membership", "sync_digest_skips"),
        sync_full: telemetry.counter_total("membership", "sync_full_pushes"),
        sync_piggyback_saved: telemetry.counter_total("membership", "sync_piggyback_rtt_saved"),
        telemetry,
        spans,
        episode,
        phases,
    }
}

/// Run both arms.
#[must_use]
pub fn run(params: &PartitionParams) -> PartitionResult {
    PartitionResult {
        outcomes: vec![run_arm(params, true), run_arm(params, false)],
    }
}

/// `partition.csv`: per arm, the split, both recovery times (empty when
/// never within the horizon — not a sentinel a consumer could mistake
/// for a measured value), final agreement, traffic and sync counts.
#[must_use]
pub fn table(r: &PartitionResult) -> ResultTable {
    let header = &[
        "anti_entropy",
        "split_confirmed",
        "reconverge_s",
        "reconverge_periods",
        "routes_restored_s",
        "views_agree",
        "membership_bps",
        "sync_skips",
        "sync_full",
    ];
    let rows = r
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.anti_entropy.to_string(),
                o.split_confirmed.to_string(),
                o.reconverge_s.map_or_else(String::new, |s| s.to_string()),
                o.reconverge_periods
                    .map_or_else(String::new, |p| p.to_string()),
                o.routes_restored_s
                    .map_or_else(String::new, |s| s.to_string()),
                o.final_views_agree.to_string(),
                format!("{:.1}", o.membership_bps),
                o.sync_skips.to_string(),
                o.sync_full.to_string(),
            ]
        })
        .collect();
    (header, rows)
}

/// Run, print and write `partition.csv` plus the merged fleet
/// telemetry snapshot (`partition_telemetry.json`).
///
/// # Errors
/// Propagates CSV/JSON I/O errors.
pub fn run_and_report(params: &PartitionParams) -> std::io::Result<PartitionResult> {
    let r = run(params);
    let title = format!(
        "Partition healing — {}-node minority cut from n={} for {:.0} s (period {:.0} s)",
        params.minority, params.n, params.partition_s, PERIOD_S
    );
    crate::report_table(&title, "partition.csv", &table(&r))?;
    // Phase breakdown of the heal→routes-restored interval, one row
    // per (arm, phase); arms that never restored routes contribute no
    // rows. Durations sum to the arm's routes_restored_s exactly.
    let phase_rows: Vec<Vec<String>> = r
        .outcomes
        .iter()
        .flat_map(|o| {
            o.phases.iter().map(|p| {
                vec![
                    o.anti_entropy.to_string(),
                    p.name.to_string(),
                    format!("{:.3}", p.start_s),
                    format!("{:.3}", p.end_s),
                    format!("{:.3}", p.duration_s()),
                ]
            })
        })
        .collect();
    write_csv(
        crate::results_path("partition_phases.csv"),
        &["anti_entropy", "phase", "start_s", "end_s", "duration_s"],
        &phase_rows,
    )?;

    // The richest causal episode of the incident, Perfetto-loadable.
    if let Some(o) = r.outcomes.iter().find(|o| !o.episode.is_empty()) {
        let trace_path = crate::results_path("partition_trace.json");
        std::fs::write(&trace_path, apor_telemetry::chrome_trace_json(&o.episode))?;
        println!(
            "episode trace -> {} ({} spans)",
            trace_path.display(),
            o.episode.len()
        );
    }

    let mut fleet = Snapshot::default();
    for o in &r.outcomes {
        fleet.merge(&o.telemetry);
    }
    let json_path = crate::results_path("partition_telemetry.json");
    std::fs::write(&json_path, fleet.to_json())?;
    println!(
        "fleet telemetry -> {} ({} piggyback round trips saved)",
        json_path.display(),
        r.outcomes
            .iter()
            .map(|o| o.sync_piggyback_saved)
            .sum::<u64>()
    );
    check(&r);
    Ok(r)
}

/// The claim: with anti-entropy a healed split reconverges to one full
/// view within ten protocol periods, and every cross-boundary pair
/// routes again within 90 s of the heal — a probe interval plus a few
/// routing intervals.
///
/// # Panics
/// Panics, naming the claim, when the anti-entropy arm misses a bound.
pub fn check(r: &PartitionResult) {
    for o in r.outcomes.iter().filter(|o| o.anti_entropy) {
        let periods = o.reconverge_periods.unwrap_or(f64::INFINITY);
        assert!(
            periods <= 10.0,
            "partition healing: anti-entropy must reconverge within 10 periods; \
             took {:?} periods",
            o.reconverge_periods
        );
        let routes = o.routes_restored_s.unwrap_or(f64::INFINITY);
        assert!(
            routes <= 90.0,
            "partition healing: routes must be restored within 90 s of the heal; \
             took {:?} s",
            o.routes_restored_s
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PartitionParams {
        PartitionParams {
            n: 16,
            minority: 4,
            partition_at_s: 50.0,
            partition_s: 50.0,
            horizon_s: 120.0,
            ..Default::default()
        }
    }

    /// The acceptance scenario in miniature: with anti-entropy the
    /// healed minority reconverges within ten protocol periods; without
    /// it the split is permanent (each side holds the other dead and no
    /// traffic ever crosses the healed boundary again).
    #[test]
    fn anti_entropy_heals_the_partition_within_ten_periods() {
        let params = quick();
        let r = run(&params);
        let (with, without) = (&r.outcomes[0], &r.outcomes[1]);
        // If any assertion below fails, ship the causal evidence with
        // the failure message: the last spans of every involved node.
        let _dump = apor_telemetry::DumpOnPanic::new("partition", with.spans.clone(), 20);
        check(&r);
        assert!(with.split_confirmed, "partition must first split views");
        assert!(with.final_views_agree);
        // The routing plane recovers after the membership plane: the
        // healed view installs, probers re-mark the cross links alive
        // (≤ one probe interval), and the two-round exchange warms up.
        let routes = with.routes_restored_s.unwrap();
        assert!(
            routes >= with.reconverge_s.unwrap(),
            "routes cannot recover before the views do"
        );
        // In the healthy phases almost every sync pair agrees: the
        // digest short-circuit must be skipping transfers.
        assert!(
            with.sync_skips > with.sync_full,
            "steady state should skip more transfers ({}) than it pushes ({})",
            with.sync_skips,
            with.sync_full
        );
        // Every digest mismatch ships the responder's first ledger
        // chunk on the echo; healing a real split must have saved at
        // least one pull round trip.
        assert!(
            with.sync_piggyback_saved > 0,
            "digest mismatches during healing must ride the piggyback"
        );

        // The merged fleet snapshot is the observability acceptance
        // criterion: the probe, suspicion, sync-skip and drop planes
        // must all report from at least two distinct nodes.
        let snap = &with.telemetry;
        for (component, name) in [
            ("membership", "probe_sent"),
            ("membership", "suspicion_raised"),
            ("membership", "sync_digest_skips"),
        ] {
            assert!(
                snap.nodes_with_nonzero(component, name).len() >= 2,
                "{component}/{name} must be nonzero on >= 2 nodes"
            );
        }
        // The hot-path latency/size distributions must actually be
        // populated — an instrumented path that never observes is
        // indistinguishable from a broken one. p50 and p99 nonzero
        // means real observations, not a single stray zero sample.
        for (component, name) in [
            ("routing", "probe_rtt_us"),
            ("membership", "sync_frame_bytes"),
            ("netsim", "event_queue_depth"),
        ] {
            let h = snap.histogram_total(component, name);
            assert!(h.count > 0, "{component}/{name} recorded nothing");
            assert!(
                h.quantile(0.5) > 0 && h.quantile(0.99) > 0,
                "{component}/{name}: zero p50/p99 over {} observations",
                h.count
            );
        }
        let dropping: std::collections::BTreeSet<u32> = [
            "drop_link_down",
            "drop_unreachable",
            "drop_loss",
            "drop_receiver_down",
        ]
        .iter()
        .flat_map(|name| snap.nodes_with_nonzero("netsim", name))
        .collect();
        assert!(
            dropping.len() >= 2,
            "the partition must bill drops to >= 2 nodes, got {dropping:?}"
        );
        assert!(snap.counter_total("routing", "rec_entries_received") > 0);

        // The causal-trace acceptance criterion: the assembled episode
        // must reconstruct the whole convergence chain — failure,
        // suspicion window, confirm, gossip wavefront, view install,
        // row remap, routes restored — and export as valid,
        // properly-nested Chrome trace JSON.
        let kinds = crate::trace_support::kinds_present(&with.episode);
        for k in [
            SpanKind::Episode,
            SpanKind::Failure,
            SpanKind::Suspicion,
            SpanKind::Confirm,
            SpanKind::GossipHop,
            SpanKind::ViewInstall,
            SpanKind::Remap,
            SpanKind::RoutesRestored,
        ] {
            assert!(
                kinds.contains(&k),
                "episode must contain a {k:?} span, has {kinds:?}"
            );
        }
        let stats = apor_telemetry::validate_chrome_trace(&apor_telemetry::chrome_trace_json(
            &with.episode,
        ))
        .expect("episode export must be valid, properly nested trace JSON");
        assert_eq!(stats.spans, with.episode.len());
        assert_eq!(stats.episodes, 1, "export is one episode's causal tree");
        // The phase breakdown decomposes the measured recovery total:
        // consecutive, starting at the heal, summing to within 10% of
        // routes_restored_s (here: exactly, by construction).
        let total: f64 = with.phases.iter().map(Phase::duration_s).sum();
        assert!(
            (total - routes).abs() <= 0.1 * routes,
            "phase sum {total:.3}s must be within 10% of routes_restored_s {routes:.3}s"
        );
        assert!(with.phases.iter().all(|p| p.duration_s() >= 0.0));
        assert_eq!(with.phases.first().map(|p| p.start_s), Some(0.0));

        assert!(without.split_confirmed);
        assert_eq!(
            without.reconverge_s, None,
            "without anti-entropy the split must persist"
        );
        assert_eq!(
            without.routes_restored_s, None,
            "cross-boundary routes cannot recover while views disagree"
        );
        assert!(!without.final_views_agree);
        assert_eq!(without.sync_skips + without.sync_full, 0);
    }

    /// Bit-determinism: the identical master seed reproduces the
    /// identical outcome — and the identical telemetry export, byte for
    /// byte: every exported metric is a function of simulated time and
    /// messages, none of the wall clock.
    #[test]
    fn study_is_deterministic_in_the_seed() {
        let params = quick();
        let a = run_arm(&params, true);
        let b = run_arm(&params, true);
        assert_eq!(a.reconverge_s, b.reconverge_s);
        assert_eq!(a.membership_bps, b.membership_bps);
        assert_eq!(a.telemetry.to_json(), b.telemetry.to_json());
    }
}

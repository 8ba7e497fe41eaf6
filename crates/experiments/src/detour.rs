//! Recovery-time CDFs: 1-hop failover vs feasibility-checked k-hop
//! detours under a correlated grid-row blackout on a lossy WAN.
//!
//! The paper's overlay only ever forwards 1-hop detours; the
//! feasibility layer (`routing::feasibility`) opens loop-free k-hop
//! splicing over the live rows. This study measures what that buys:
//! how fast broken (src, dst) pairs regain a working route when a
//! whole grid row goes dark at once
//! ([`apor_topology::FailureParams::with_row_blackout`]).
//!
//! The underlay is shaped so the question has teeth:
//!
//! - **Grid rows** are a clean full mesh ([`DetourParams::row_rtt_ms`]).
//! - **Grid columns** are adjacent rings (with wrap): only `|Δrow| = 1`
//!   column links carry traffic, at a per-row-varied RTT.
//! - **Column long-hauls** (ring distance ≥ 2) are lossy WAN paths:
//!   reachable, but with total loss in the ring-climbing direction
//!   ([`apor_topology::LatencyMatrix::set_loss_directed`]). Probes die
//!   in both directions (the climbing probe is lost outright; the
//!   descending probe's ack is lost), so neither side ever routes over
//!   the long-haul — but link-state frames still *descend*, which is
//!   exactly what keeps each node's store stocked with the fresh relay
//!   rows a multi-relay detour needs.
//! - **Cross pairs** (different row and column) are unreachable; they
//!   never route and fall out of the baseline.
//!
//! With the blackout on grid row `b`, a same-column pair at ring
//! distance 2 across row `b` (e.g. row `b−1` → row `b+1`) loses its
//! only 1-hop relay — the row-`b` member between them. The 1-hop arm
//! stays dark until the heal plus a probe/publish round trip. The
//! k-hop arm splices the surviving ring side (e.g. `b−1 → b−2 → … →
//! b+1`) as soon as its own probes declare the relay dead, recovering
//! mid-blackout. Routability is judged end to end: the sampler walks
//! each pair's `best_hop` chain hop by hop against the ground-truth
//! schedule, so a stale hop pointing into the dead row counts as down,
//! and any revisit counts as a forwarding loop ([`check`] asserts there
//! are none — the live-fleet companion to the loop-freedom proptest).
//!
//! Outputs: `results/detour_cdf.csv` (both arms' recovery-time step
//! functions) and `results/detour_telemetry.json` (merged fleet
//! telemetry; `routing/loops_detected`, `routing/routes_retracted` and
//! the `routing/detour_hops` histogram must all be live).

use apor_analysis::{write_csv, Cdf, Table};
use apor_linkstate::RecFormat;
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::simnode::{overlay_sim_config, World};
use apor_quorum::{Grid, NodeId};
use apor_telemetry::Snapshot;
use apor_topology::{FailureParams, FailureSchedule, LatencyMatrix};

/// Parameters of the detour-recovery study.
#[derive(Debug, Clone)]
pub struct DetourParams {
    /// Overlay size (gridded per the paper's footnote 5; sizes whose
    /// grid has ≥ 5 rows give distance-2 column pairs a unique 1-hop
    /// relay, which is what the blackout severs).
    pub n: usize,
    /// Grid row taken down as one correlated failure.
    pub blackout_row: usize,
    /// When the row goes dark, seconds (leaves time to converge).
    pub blackout_at_s: f64,
    /// Blackout duration, seconds (must exceed the 1-hop arm's only
    /// recovery path: waiting the outage out).
    pub blackout_s: f64,
    /// How long after the heal the run keeps sampling, seconds.
    pub horizon_s: f64,
    /// Intra-row full-mesh RTT, ms.
    pub row_rtt_ms: f64,
    /// Column adjacent-ring RTT base, ms.
    pub col_rtt_base_ms: f64,
    /// Per-row increment on column-ring RTTs, ms (breaks cost ties so
    /// detour selection is strict).
    pub col_rtt_step_ms: f64,
    /// RTT of the lossy column long-hauls, ms.
    pub wan_rtt_ms: f64,
    /// Master seed: the whole study is a pure function of it.
    pub seed: u64,
}

impl Default for DetourParams {
    fn default() -> Self {
        DetourParams {
            n: 25,
            blackout_row: 1,
            blackout_at_s: 75.0,
            blackout_s: 150.0,
            horizon_s: 120.0,
            row_rtt_ms: 20.0,
            col_rtt_base_ms: 40.0,
            col_rtt_step_ms: 4.0,
            wan_rtt_ms: 90.0,
            seed: 0xDE70,
        }
    }
}

/// One arm's outcome.
#[derive(Debug, Clone)]
pub struct DetourOutcome {
    /// The arm's detour budget (1 = the paper's failover behaviour).
    pub max_detour_hops: usize,
    /// Ordered survivor pairs routable end to end just before the
    /// blackout — the denominator everything below is relative to.
    pub baseline_pairs: usize,
    /// Baseline pairs that lost their route during the run.
    pub broken_pairs: usize,
    /// Broken pairs that regained a route within the horizon.
    pub recovered_pairs: usize,
    /// Broken pairs still dark at the end (censored).
    pub censored_pairs: usize,
    /// Median recovery time over broken pairs, censored counted as
    /// `+inf`; `None` when nothing broke.
    pub median_recovery_s: Option<f64>,
    /// 90th-percentile recovery time, same convention.
    pub p90_recovery_s: Option<f64>,
    /// Forwarding-walk revisits observed while sampling (the live-run
    /// loop check; must stay 0).
    pub loops_observed: u64,
    /// Fleet total of `routing/loops_detected`: candidates the
    /// feasibility discipline refused.
    pub loops_detected: u64,
    /// Fleet total of `routing/routes_retracted`.
    pub routes_retracted: u64,
    /// Fleet count of the `routing/detour_hops` histogram: detours the
    /// discipline accepted (0 in the 1-hop arm, whose `best_hop` never
    /// reaches the splicer).
    pub detours_selected: u64,
    /// Raw recovery times of the recovered pairs, seconds.
    pub recoveries: Vec<f64>,
    /// Merged fleet telemetry at the end of the arm (exported as
    /// `detour_telemetry.json`, not part of the CSV).
    pub telemetry: Snapshot,
}

/// The full study output.
#[derive(Debug, Clone)]
pub struct DetourResult {
    /// One outcome per arm, 1-hop failover first.
    pub outcomes: Vec<DetourOutcome>,
}

/// Ring distance between two grid rows on an `rows`-row column ring.
fn ring_distance(a: usize, b: usize, rows: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(rows - d)
}

/// The entitlement-aligned fabric described in the module docs: row
/// meshes, column rings, lossy descending-only long-hauls.
fn fabric(params: &DetourParams, grid: &Grid) -> LatencyMatrix {
    let rows = grid.shape().rows;
    let mut m = LatencyMatrix::unreachable(params.n);
    for i in 0..params.n {
        for j in (i + 1)..params.n {
            let (ri, ci) = grid.position(i);
            let (rj, cj) = grid.position(j);
            if ri == rj {
                m.set_rtt(i, j, params.row_rtt_ms);
            } else if ci == cj {
                if ring_distance(ri, rj, rows) == 1 {
                    #[allow(clippy::cast_precision_loss)]
                    m.set_rtt(
                        i,
                        j,
                        params.col_rtt_base_ms + params.col_rtt_step_ms * ri.min(rj) as f64,
                    );
                } else {
                    // Lossy WAN long-haul: frames descend the ring
                    // (higher row → lower row) but never climb. Both
                    // ends' probes fail, so the link is dead for
                    // forwarding; descending link-state still arrives.
                    m.set_rtt(i, j, params.wan_rtt_ms);
                    let (lo, hi) = if ri < rj { (i, j) } else { (j, i) };
                    m.set_loss_directed(lo, hi, 1.0);
                }
            }
        }
    }
    m
}

/// What one end-to-end `best_hop` walk found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// The chain reached the destination over live nodes.
    Delivered,
    /// A node had no next hop, or the next hop is down.
    Down,
    /// The chain revisited a node — a forwarding loop.
    Looped,
}

/// Walk the next-hop chain for (src, dst) at `now`, judging each hop
/// against the ground-truth schedule.
///
/// Two forwarding modes, mirroring [`RouteDecision`]: when the current
/// node holds a spliced k-hop detour the packet is *source-routed* —
/// the carried relay list decides the rest of the journey, and the walk
/// judges every listed node against ground truth. Otherwise the walk
/// steps one hop and lets the next node re-decide from its own tables.
///
/// [`RouteDecision`]: apor_routing::RouteDecision
fn walk_route(world: &World, n: usize, src: usize, dst: usize, now: f64) -> Walk {
    let schedule = world.sim().schedule();
    let mut visited = vec![false; n];
    visited[src] = true;
    let mut cur = src;
    loop {
        let node = world.node(cur);
        #[allow(clippy::cast_possible_truncation)]
        if let Some(path) = node.detour_path(NodeId(dst as u16), now) {
            // Source-routed splice: the relays don't re-decide, so the
            // packet arrives iff every listed node is actually up. The
            // selection layer guarantees the path is simple, so a loop
            // through `visited` territory is impossible here.
            let all_up = path[1..]
                .iter()
                .all(|&h| schedule.is_node_up(usize::from(h.0), now));
            return if all_up { Walk::Delivered } else { Walk::Down };
        }
        #[allow(clippy::cast_possible_truncation)]
        let Some(hop) = node.best_hop(NodeId(dst as u16), now) else {
            return Walk::Down;
        };
        let h = usize::from(hop.0);
        if !schedule.is_node_up(h, now) {
            return Walk::Down;
        }
        if h == dst {
            return Walk::Delivered;
        }
        if visited[h] {
            return Walk::Looped;
        }
        visited[h] = true;
        cur = h;
    }
}

/// Per-pair recovery bookkeeping: first break, first recovery after it.
struct PairState {
    src: usize,
    dst: usize,
    broken_at: Option<f64>,
    recovery_s: Option<f64>,
}

/// Median/p90 over broken pairs, censored pairs counted as `+inf`.
fn recovery_stats(recoveries: &[f64], broken: usize) -> (Option<f64>, Option<f64>) {
    if broken == 0 {
        return (None, None);
    }
    let mut all = recoveries.to_vec();
    all.resize(broken, f64::INFINITY);
    let cdf = Cdf::new(all);
    (Some(cdf.quantile(0.5)), Some(cdf.quantile(0.9)))
}

/// Run one arm of the study with the given detour budget.
///
/// # Panics
/// Panics when `blackout_row` is outside the grid for `n`.
#[must_use]
pub fn run_arm(params: &DetourParams, max_detour_hops: usize) -> DetourOutcome {
    let n = params.n;
    let grid = Grid::new(n);
    assert!(
        params.blackout_row < grid.shape().rows,
        "blackout row {} outside the {} grid rows for n={n}",
        params.blackout_row,
        grid.shape().rows
    );
    let blackout: Vec<usize> = grid.row_members(params.blackout_row).collect();
    let heal_at = params.blackout_at_s + params.blackout_s;
    let end = heal_at + params.horizon_s;

    // The blackout is the only failure.
    let failure = FailureParams::scripted(n, end + 60.0);
    let failure = failure.with_row_blackout(&blackout, params.blackout_at_s, heal_at);

    let mut world = World::new(
        fabric(params, &grid),
        FailureSchedule::generate(&failure),
        apor_netsim::SimulatorConfig {
            seed: params.seed,
            ..overlay_sim_config()
        },
        5.0,
        |i| {
            let mut cfg = NodeConfig::static_member(i, n, Algorithm::Quorum);
            cfg.protocol = cfg.protocol.with_detour_hops(max_detour_hops);
            // Costed recommendations feed the feasibility distances; a
            // tighter probe plane keeps detection (not probing cadence)
            // the thing the CDF measures.
            cfg.protocol.rec_format = RecFormat::WithCost;
            cfg.protocol.probe_interval_s = 10.0;
            cfg.protocol.probe_interval_max_s = 10.0;
            cfg.protocol.rapid_probe_interval_s = 2.0;
            cfg.protocol.probe_timeout_s = 1.5;
            cfg
        },
    );

    // Baseline: which ordered survivor pairs route end to end just
    // before the lights go out?
    let t0 = params.blackout_at_s - 1.0;
    world.run_until(t0);
    let survivors: Vec<usize> = (0..n).filter(|i| !blackout.contains(i)).collect();
    let mut loops_observed = 0u64;
    let mut pairs: Vec<PairState> = Vec::new();
    for &src in &survivors {
        for &dst in &survivors {
            if src == dst {
                continue;
            }
            match walk_route(&world, n, src, dst, t0) {
                Walk::Delivered => pairs.push(PairState {
                    src,
                    dst,
                    broken_at: None,
                    recovery_s: None,
                }),
                Walk::Looped => loops_observed += 1,
                Walk::Down => {}
            }
        }
    }
    let baseline_pairs = pairs.len();

    // Sample once per second through the blackout and the post-heal
    // horizon. Each pair is tracked to its first break and the first
    // recovery after it; a walk that loops counts as down *and* as a
    // loop observation.
    let mut t = t0;
    while t < end {
        t += 1.0;
        world.run_until(t);
        for p in &mut pairs {
            if p.recovery_s.is_some() {
                continue;
            }
            match walk_route(&world, n, p.src, p.dst, t) {
                Walk::Delivered => {
                    if let Some(b) = p.broken_at {
                        p.recovery_s = Some(t - b);
                    }
                }
                Walk::Down => {
                    if p.broken_at.is_none() {
                        p.broken_at = Some(t);
                    }
                }
                Walk::Looped => {
                    loops_observed += 1;
                    if p.broken_at.is_none() {
                        p.broken_at = Some(t);
                    }
                }
            }
        }
        // Exercise the discipline against the dead row too: queries
        // toward blacked-out destinations are where stale neighbour
        // rows would otherwise splice blackhole detours, and where the
        // feasibility gate's rejections (`routing/loops_detected`)
        // actually fire. Not measured — routes to dead hosts have no
        // recovery to time.
        for &src in &survivors {
            for &dst in &blackout {
                #[allow(clippy::cast_possible_truncation)]
                let _ = world.node(src).best_hop(NodeId(dst as u16), t);
            }
        }
    }

    let broken_pairs = pairs.iter().filter(|p| p.broken_at.is_some()).count();
    let recoveries: Vec<f64> = pairs.iter().filter_map(|p| p.recovery_s).collect();
    let (median_recovery_s, p90_recovery_s) = recovery_stats(&recoveries, broken_pairs);
    let telemetry = world.snapshot();
    DetourOutcome {
        max_detour_hops,
        baseline_pairs,
        broken_pairs,
        recovered_pairs: recoveries.len(),
        censored_pairs: broken_pairs - recoveries.len(),
        median_recovery_s,
        p90_recovery_s,
        loops_observed,
        loops_detected: telemetry.counter_total("routing", "loops_detected"),
        routes_retracted: telemetry.counter_total("routing", "routes_retracted"),
        detours_selected: telemetry.histogram_total("routing", "detour_hops").count,
        recoveries,
        telemetry,
    }
}

/// Run both arms: the paper's 1-hop failover, then k ≤ 8 detours.
#[must_use]
pub fn run(params: &DetourParams) -> DetourResult {
    DetourResult {
        outcomes: vec![run_arm(params, 1), run_arm(params, 8)],
    }
}

/// Run, print and write `detour_cdf.csv` plus the merged fleet
/// telemetry snapshot (`detour_telemetry.json`).
///
/// # Errors
/// Propagates CSV/JSON I/O errors.
pub fn run_and_report(params: &DetourParams) -> std::io::Result<DetourResult> {
    let r = run(params);
    let mut table = Table::new(&[
        "detour hops",
        "baseline pairs",
        "broken",
        "recovered",
        "censored",
        "median recovery",
        "p90",
        "detours",
        "rejections",
        "retractions",
    ]);
    for o in &r.outcomes {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{s:.0} s"));
        table.row(vec![
            o.max_detour_hops.to_string(),
            o.baseline_pairs.to_string(),
            o.broken_pairs.to_string(),
            o.recovered_pairs.to_string(),
            o.censored_pairs.to_string(),
            fmt(o.median_recovery_s),
            fmt(o.p90_recovery_s),
            o.detours_selected.to_string(),
            o.loops_detected.to_string(),
            o.routes_retracted.to_string(),
        ]);
    }
    println!(
        "Detour recovery — grid row {} dark for {:.0} s at n={} (lossy-WAN column fabric)",
        params.blackout_row, params.blackout_s, params.n
    );
    println!("{}", table.render());

    // The step functions of both arms' recovery CDFs; fractions are
    // relative to each arm's broken-pair count, so censored pairs show
    // up as a curve that never reaches 1.
    let mut rows = Vec::new();
    for o in &r.outcomes {
        let cdf = Cdf::new(o.recoveries.clone());
        for (x, c) in cdf.steps() {
            #[allow(clippy::cast_precision_loss)]
            let frac = c as f64 / (o.broken_pairs.max(1)) as f64;
            rows.push(vec![
                o.max_detour_hops.to_string(),
                format!("{x:.1}"),
                c.to_string(),
                format!("{frac:.4}"),
            ]);
        }
    }
    write_csv(
        crate::results_path("detour_cdf.csv"),
        &[
            "max_detour_hops",
            "recovery_s",
            "pairs_recovered",
            "fraction_of_broken",
        ],
        &rows,
    )?;

    let mut fleet = Snapshot::default();
    for o in &r.outcomes {
        fleet.merge(&o.telemetry);
    }
    let json_path = crate::results_path("detour_telemetry.json");
    std::fs::write(&json_path, fleet.to_json())?;
    println!(
        "fleet telemetry -> {} ({} detours spliced, {} candidates refused)",
        json_path.display(),
        r.outcomes.iter().map(|o| o.detours_selected).sum::<u64>(),
        r.outcomes.iter().map(|o| o.loops_detected).sum::<u64>()
    );
    check(&r);
    Ok(r)
}

/// The claim: feasibility-checked detours never loop, and with them the
/// median broken pair recovers sooner than with 1-hop failover alone.
///
/// # Panics
/// Panics, naming the claim, when either arm loops or the k-hop arm's
/// median recovery is not below the 1-hop arm's.
pub fn check(r: &DetourResult) {
    for o in &r.outcomes {
        assert_eq!(
            o.loops_observed, 0,
            "k-hop detours: forwarding must never loop; the {}-hop arm walked into {} loops",
            o.max_detour_hops, o.loops_observed
        );
    }
    let [one, khop] =
        [&r.outcomes[0], &r.outcomes[1]].map(|o| o.median_recovery_s.unwrap_or(f64::INFINITY));
    assert!(
        khop < one,
        "k-hop detours: median recovery must beat 1-hop failover; {khop:.0} s vs {one:.0} s"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DetourParams {
        DetourParams {
            n: 20,
            blackout_at_s: 60.0,
            blackout_s: 120.0,
            horizon_s: 90.0,
            ..Default::default()
        }
    }

    /// The acceptance scenario in miniature: both arms break the same
    /// pairs, nobody ever loops, and the k-hop arm's median recovery
    /// beats the 1-hop arm's (which can only wait the blackout out).
    #[test]
    fn k_hop_detours_recover_before_the_heal() {
        let params = quick();
        let r = run(&params);
        check(&r);
        let (one, khop) = (&r.outcomes[0], &r.outcomes[1]);

        for o in [one, khop] {
            assert!(o.baseline_pairs > 0, "fabric must route before the outage");
            assert!(o.broken_pairs > 0, "the blackout must break pairs");
            assert_eq!(o.censored_pairs, 0, "all pairs must recover in-horizon");
            assert!(o.routes_retracted > 0, "link deaths must retract routes");
        }
        // k-hop splicing legitimately *expands* pre-outage routability:
        // cross pairs two ring-steps apart have no 1-hop route at all,
        // but detour down the source's own column and row-hop at the end.
        assert!(
            khop.baseline_pairs > one.baseline_pairs,
            "k-hop must widen the routable baseline ({} vs {})",
            khop.baseline_pairs,
            one.baseline_pairs
        );

        let km = khop.median_recovery_s.expect("k-hop arm broke pairs");
        let om = one.median_recovery_s.expect("1-hop arm broke pairs");
        assert!(
            km < params.blackout_s,
            "k-hop arm must recover mid-blackout, took {km:.0}s"
        );
        assert!(
            om >= params.blackout_s * 0.8,
            "1-hop arm should be blackout-bound, took {om:.0}s"
        );

        // The telemetry plane must see the discipline working: detours
        // accepted (k arm only — 1-hop `best_hop` never reaches the
        // splicer), and at least one stale candidate refused.
        assert!(khop.detours_selected > 0, "no detours were spliced");
        assert_eq!(one.detours_selected, 0, "1-hop arm must not splice");
        assert!(
            khop.loops_detected > 0,
            "queries toward the dead row must trip the feasibility gate"
        );
        let h = khop.telemetry.histogram_total("routing", "detour_hops");
        assert!(
            h.quantile(0.5) >= 2,
            "spliced detours here need >= 2 relays, median {}",
            h.quantile(0.5)
        );
    }

    /// Bit-determinism: the identical master seed reproduces the
    /// identical outcome.
    #[test]
    fn study_is_deterministic_in_the_seed() {
        let params = quick();
        let a = run_arm(&params, 8);
        let b = run_arm(&params, 8);
        assert_eq!(a.median_recovery_s, b.median_recovery_s);
        assert_eq!(a.broken_pairs, b.broken_pairs);
        assert_eq!(a.loops_detected, b.loops_detected);
        assert_eq!(a.recoveries, b.recoveries);
    }
}

//! Scale study: the full stack at n up to 4096 (beyond the paper).
//!
//! The paper's evaluation stops at n ≈ 200, and so did this repository
//! until two bottlenecks fell: a dense `n × n` link-state table on
//! every node (quorum nodes now hold a sparse `RowStore`, dropping
//! per-node state to the paper's own `O(n√n)` bound) and the simulator's fixed per-interval
//! polling ticks (replaced by the idle-aware coalesced scheduler plus
//! the sub-quadratic prober, so idle nodes cost no events and per-node
//! probe traffic grows `O(√n)`). Two arms exercise the two layers:
//!
//! * **fabric** — a synchronous two-round fabric (`QuorumRouter`s over
//!   ground-truth rows, messages delivered instantly) at n ∈ {256,
//!   1024}: the maximum rows any node holds is asserted at runtime
//!   against the `4√n` acceptance bound, and per-node entries are
//!   reported beside the `n²` a full matrix would hold;
//! * **netsim** — the real event-driven simulator at n ∈ {1024, 4096}
//!   with sub-quadratic probing, a churn batch and a minority
//!   partition: steady coverage ≥ 0.99, probe bytes per node sub-linear
//!   in n (< 2× when n quadruples), cross-partition routes restored
//!   after the heal, and the aggregated fleet telemetry exported.
//!
//! Results land in `results/scale.csv` + `results/scale_telemetry.json`,
//! regenerated by the CI scale-gate job under a hard wall-clock budget.

use crate::ResultTable;
use apor_linkstate::{LinkEntry, LinkStateStore, Message};
use apor_netsim::{Direction, Simulator, TrafficClass};
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::simnode::{fleet_snapshot, overlay_at, overlay_sim_config, populate};
use apor_quorum::NodeId;
use apor_routing::onehop;
use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm};
use apor_telemetry::Snapshot;
use apor_topology::{FailureParams, FailureSchedule, NodeOutage, PlanetLabParams, Topology};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Parameters of the scale study.
#[derive(Debug, Clone)]
pub struct ScaleParams {
    /// Sizes of the fabric arm.
    pub sizes: Vec<usize>,
    /// Routing ticks driven (two suffice for all-pairs optimality;
    /// a third exercises steady state).
    pub ticks: usize,
    /// Ordered (src, dst) pairs sampled for the quality metrics.
    pub max_pairs: usize,
    /// High-latency threshold for the figure 1-style rescue metric, ms.
    pub threshold_ms: f64,
    /// Topology / sampling seed.
    pub seed: u64,
    /// The event-driven netsim arm (full stack, churn + partition).
    pub netsim: NetsimScaleParams,
}

impl Default for ScaleParams {
    fn default() -> Self {
        ScaleParams {
            sizes: vec![256, 1024],
            ticks: 3,
            max_pairs: 20_000,
            threshold_ms: 400.0,
            seed: 0x5CA1E,
            netsim: NetsimScaleParams::default(),
        }
    }
}

impl ScaleParams {
    /// The CI smoke configuration: same sizes (n = 1024 completing in
    /// CI *is* the acceptance criterion), fewer sampled pairs.
    #[must_use]
    pub fn quick() -> Self {
        ScaleParams {
            max_pairs: 5_000,
            netsim: NetsimScaleParams::quick(),
            ..ScaleParams::default()
        }
    }
}

/// Parameters of the event-driven netsim arm: the full overlay stack
/// (coalesced timers, batched sub-quadratic probing, two-round quorum
/// routing) under churn and a partition, at sizes the fixed-tick
/// simulator could not afford to wake.
#[derive(Debug, Clone)]
pub struct NetsimScaleParams {
    /// Overlay sizes; consecutive entries are held to the sub-linear
    /// probe-byte bound (4× the nodes must cost < 2× the per-node probe
    /// bytes — `O(√n)` growth, not `O(n)`).
    pub sizes: Vec<usize>,
    /// Steady-state measurement instant; probe bytes are accounted over
    /// the two probe intervals ending here.
    pub steady_at_s: f64,
    /// Nodes crashed (permanently) right after the steady measurement.
    pub churn_kills: usize,
    /// When the crash batch lands, seconds.
    pub churn_at_s: f64,
    /// Partition start, seconds (after churn has been routed around).
    pub partition_at_s: f64,
    /// Partition duration, seconds.
    pub partition_s: f64,
    /// Size of the partitioned minority (the highest-numbered nodes).
    pub minority: usize,
    /// How long after the heal restoration is sampled, seconds.
    pub heal_horizon_s: f64,
    /// Restoration sampling period after the heal, seconds.
    pub heal_sample_s: f64,
    /// Ordered pairs sampled for coverage/stretch (and, filtered to the
    /// cut, for restoration).
    pub max_pairs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for NetsimScaleParams {
    fn default() -> Self {
        NetsimScaleParams {
            sizes: vec![1024, 4096],
            steady_at_s: 100.0,
            churn_kills: 8,
            churn_at_s: 105.0,
            partition_at_s: 150.0,
            partition_s: 60.0,
            minority: 32,
            heal_horizon_s: 120.0,
            heal_sample_s: 5.0,
            max_pairs: 20_000,
            seed: 0x5CA1E2,
        }
    }
}

impl NetsimScaleParams {
    /// The CI gate configuration: identical schedule (n = 4096 finishing
    /// under the job timeout *is* the acceptance criterion), fewer
    /// sampled pairs.
    #[must_use]
    pub fn quick() -> Self {
        NetsimScaleParams {
            max_pairs: 4_000,
            ..NetsimScaleParams::default()
        }
    }
}

/// One fabric measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Overlay size.
    pub n: usize,
    /// The store column of `scale.csv`: always `"sparse"`.
    pub store: String,
    /// Maximum link-state rows held by any node after convergence.
    pub max_rows: usize,
    /// The acceptance bound `4·√n` the sparse arm is asserted against.
    pub row_bound: f64,
    /// Maximum link entries allocated by any node's store.
    pub max_entries: usize,
    /// What a full matrix would hold per node (`n²` entries).
    pub dense_entries: usize,
    /// Fraction of sampled pairs with a usable route.
    pub coverage: f64,
    /// Of the sampled *rescuable* pairs (direct > threshold but the
    /// offline optimal one-hop ≤ threshold — per figure 1 only about
    /// half of high-latency pairs are), the fraction the protocol
    /// actually routed to ≤ threshold.
    pub rescued: f64,
    /// Mean achieved/optimal one-hop latency over sampled pairs.
    pub mean_stretch: f64,
    /// Worst stretch over sampled pairs.
    pub max_stretch: f64,
    /// Wall-clock seconds for build + ticks + evaluation.
    pub elapsed_s: f64,
}

/// Deterministic sample of ordered pairs (all of them when they fit).
fn sample_pairs(n: usize, max_pairs: usize, seed: u64) -> Vec<(usize, usize)> {
    let all = n * (n - 1);
    if all <= max_pairs {
        let mut out = Vec::with_capacity(all);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    out.push((i, j));
                }
            }
        }
        return out;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(max_pairs);
    let idx: Vec<usize> = (0..n).collect();
    while out.len() < max_pairs {
        let &i = idx.choose(&mut rng).expect("n > 0");
        let &j = idx.choose(&mut rng).expect("n > 0");
        if i != j {
            out.push((i, j));
        }
    }
    out
}

/// Drive `ticks` routing intervals over a synchronous fabric of `n`
/// quorum routers and evaluate state + quality.
fn run_fabric(n: usize, params: &ScaleParams) -> ScalePoint {
    let started = std::time::Instant::now();
    let topo = Topology::generate(&PlanetLabParams {
        n,
        seed: params.seed ^ n as u64,
        ..Default::default()
    });
    let m = &topo.latency;
    let rows: Vec<Vec<LinkEntry>> = (0..n).map(|i| onehop::ground_truth_row(m, i)).collect();
    let cfg = ProtocolConfig::quorum();
    let mut routers: Vec<QuorumRouter> = (0..n)
        .map(|i| QuorumRouter::new(i, n, 0, cfg.clone()))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);

    let interval = cfg.routing_interval_s;
    let mut now = 0.0;
    for _ in 0..params.ticks {
        // Per-node tick with immediate delivery: messages (and cascaded
        // replies) land before the next node ticks, keeping peak queue
        // memory O(√n · n) instead of O(n · √n · n) for the whole round.
        for i in 0..n {
            let mut queue: Vec<Message> = routers[i].on_routing_tick(now, &rows[i], &mut rng);
            while let Some(msg) = queue.pop() {
                let to = msg.to().index();
                queue.extend(routers[to].on_message(now + 0.001, &msg));
            }
        }
        now += interval;
    }

    // State accounting.
    let max_rows = routers.iter().map(|r| r.table().row_count()).max().unwrap();
    let max_entries = routers
        .iter()
        .map(|r| r.table().entry_count())
        .max()
        .unwrap();
    let row_bound = 4.0 * (n as f64).sqrt();

    // Quality vs the offline optimum, figure 1-style.
    let pairs = sample_pairs(n, params.max_pairs, params.seed ^ 0xA17);
    let mut covered = 0usize;
    let mut high = 0usize;
    let mut rescued = 0usize;
    let mut stretch_sum = 0.0;
    let mut stretch_n = 0usize;
    let mut max_stretch: f64 = 1.0;
    for &(i, j) in &pairs {
        let optimal = m.best_path_with_one_hop(i, j);
        let achieved = routers[i].best_hop(j, now).map(|hop| {
            if hop == j {
                m.rtt(i, j)
            } else {
                m.rtt(i, hop) + m.rtt(hop, j)
            }
        });
        let rescuable = m.rtt(i, j) > params.threshold_ms && optimal <= params.threshold_ms;
        if rescuable {
            high += 1;
        }
        if let Some(achieved) = achieved {
            covered += 1;
            if optimal.is_finite() && optimal > 0.0 {
                let s = achieved / optimal;
                stretch_sum += s;
                stretch_n += 1;
                max_stretch = max_stretch.max(s);
            }
            if rescuable && achieved <= params.threshold_ms {
                rescued += 1;
            }
        }
    }

    ScalePoint {
        n,
        store: "sparse".to_string(),
        max_rows,
        row_bound,
        max_entries,
        dense_entries: n * n,
        coverage: covered as f64 / pairs.len() as f64,
        rescued: if high == 0 {
            1.0
        } else {
            rescued as f64 / high as f64
        },
        mean_stretch: if stretch_n == 0 {
            f64::NAN
        } else {
            stretch_sum / stretch_n as f64
        },
        max_stretch,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// Run the fabric arm at every size.
///
/// # Panics
/// Panics when a quorum node's row count exceeds the `4√n` acceptance
/// bound (the state-accounting assertion the ISSUE requires).
#[must_use]
pub fn run(params: &ScaleParams) -> Vec<ScalePoint> {
    params
        .sizes
        .iter()
        .map(|&n| {
            let p = run_fabric(n, params);
            assert!(
                (p.max_rows as f64) <= p.row_bound,
                "n={n}: a quorum node holds {} rows > 4√n = {:.0}",
                p.max_rows,
                p.row_bound
            );
            p
        })
        .collect()
}

/// One size of the netsim arm.
#[derive(Debug, Clone, Serialize)]
pub struct NetsimScalePoint {
    /// Overlay size.
    pub n: usize,
    /// Coverage over sampled pairs at the steady-state instant (all
    /// nodes alive) — held to the ≥ 0.99 acceptance bound.
    pub coverage: f64,
    /// Mean achieved/optimal one-hop stretch over the covered sampled
    /// pairs at the steady-state instant.
    pub mean_stretch: f64,
    /// Coverage over live-pair samples after the crash batch has been
    /// routed around (just before the partition).
    pub postchurn_coverage: f64,
    /// Mean per-node probe bytes *sent* over the two probe intervals
    /// ending at the steady-state instant — the `O(√n)` claim under
    /// test: 4× the overlay must cost < 2× this figure.
    pub probe_bytes_per_node: f64,
    /// Seconds from the partition heal until every sampled
    /// cross-boundary pair routes again, both directions; `None` when
    /// never within the horizon.
    pub routes_restored_s: Option<f64>,
    /// Maximum link-state rows held by any live node at the end.
    pub max_rows: usize,
    /// The `6√n + 16` row-state acceptance bound (entitled + sampled +
    /// recommendation-installed rows).
    pub row_bound: f64,
    /// Simulator events processed — the idle-aware scheduling dividend
    /// shows up here (no per-tick wakeups for 4096 mostly-idle nodes).
    pub events: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_s: f64,
    /// Fleet telemetry aggregated over all nodes (probe RTTs, round-two
    /// latency, sync frame sizes, event-queue depth, …). Exported as
    /// `scale_telemetry.json`, not part of the CSV.
    #[serde(skip)]
    pub telemetry: Snapshot,
}

/// Coverage and mean stretch over `pairs`, skipping pairs that touch a
/// node for which `alive` is false.
fn sampled_quality(
    sim: &Simulator,
    m: &apor_topology::LatencyMatrix,
    pairs: &[(usize, usize)],
    alive: &[bool],
    now: f64,
) -> (f64, f64) {
    let mut considered = 0usize;
    let mut covered = 0usize;
    let mut stretch_sum = 0.0;
    let mut stretch_n = 0usize;
    for &(i, j) in pairs {
        if !alive[i] || !alive[j] {
            continue;
        }
        considered += 1;
        let Some(hop) = overlay_at(sim, i).best_hop(NodeId(j as u16), now) else {
            continue;
        };
        covered += 1;
        let hop = usize::from(hop.0);
        let achieved = if hop == j {
            m.rtt(i, j)
        } else {
            m.rtt(i, hop) + m.rtt(hop, j)
        };
        let optimal = m.best_path_with_one_hop(i, j);
        if optimal.is_finite() && optimal > 0.0 {
            stretch_sum += achieved / optimal;
            stretch_n += 1;
        }
    }
    (
        if considered == 0 {
            f64::NAN
        } else {
            covered as f64 / considered as f64
        },
        if stretch_n == 0 {
            f64::NAN
        } else {
            stretch_sum / stretch_n as f64
        },
    )
}

/// Run one netsim size: warm up, measure steady coverage/stretch and
/// probe bytes, crash [`NetsimScaleParams::churn_kills`] nodes, cut a
/// minority off, heal, and time route restoration.
fn run_netsim_size(n: usize, params: &NetsimScaleParams) -> NetsimScalePoint {
    let started = std::time::Instant::now();
    assert!(
        params.minority + params.churn_kills < n / 2,
        "churn + minority must leave a working majority"
    );
    let heal_at = params.partition_at_s + params.partition_s;
    let end = heal_at + params.heal_horizon_s;

    let topo = Topology::generate(&PlanetLabParams {
        n,
        seed: params.seed ^ n as u64,
        ..Default::default()
    });
    let minority: Vec<usize> = (n - params.minority..n).collect();
    // Victims from the middle of the index space: disjoint from both the
    // minority and the low-index rendezvous-heavy rows.
    let victims: Vec<usize> = (n / 2..n / 2 + params.churn_kills).collect();
    let mut failure = FailureParams::with_n(n);
    failure.seed = params.seed ^ 0xFA11;
    failure.median_concurrent = 1e-12; // churn + partition only
    failure.duration_s = end + 60.0;
    failure.node_outages = victims
        .iter()
        .map(|&node| NodeOutage {
            node,
            start_s: params.churn_at_s,
            end_s: failure.duration_s,
        })
        .collect();
    let failure = failure.with_partition(&minority, params.partition_at_s, heal_at);

    let mut sim = Simulator::new(
        topo.latency.clone(),
        FailureSchedule::generate(&failure),
        apor_netsim::SimulatorConfig {
            seed: params.seed ^ n as u64,
            ..overlay_sim_config()
        },
    );
    let members: Vec<NodeId> = (0..n as u16).map(NodeId).collect();
    let seed = params.seed;
    populate(&mut sim, n, 10.0, move |i| {
        let mut cfg = NodeConfig::new(NodeId(i as u16), NodeId(0), Algorithm::Quorum)
            .with_static_members(members.clone());
        cfg.seed ^= seed;
        cfg.protocol = cfg.protocol.with_subquadratic_probing(240.0);
        cfg
    });

    let mut alive = vec![true; n];

    // Steady state: everyone converged, nothing failed yet.
    sim.run_until(params.steady_at_s);
    let pairs = sample_pairs(n, params.max_pairs, params.seed ^ 0xA17 ^ n as u64);
    let (coverage, mean_stretch) =
        sampled_quality(&sim, &topo.latency, &pairs, &alive, params.steady_at_s);
    let probe_window = 2.0 * ProtocolConfig::quorum().probe_interval_s;
    let probe_bytes_per_node = (0..n)
        .map(|i| {
            sim.stats().total_bytes(
                i,
                &[TrafficClass::Probing],
                &[Direction::Out],
                params.steady_at_s - probe_window,
                params.steady_at_s,
            ) as f64
        })
        .sum::<f64>()
        / n as f64;

    // Churn: the crash batch lands, survivors route around it.
    for &v in &victims {
        alive[v] = false;
    }
    sim.run_until(params.partition_at_s);
    let (postchurn_coverage, _) =
        sampled_quality(&sim, &topo.latency, &pairs, &alive, params.partition_at_s);

    // Partition and heal.
    sim.run_until(heal_at);
    // Dedicated cross-boundary sample: restoration means every sampled
    // (majority, minority) pair routes again, in both directions.
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0xC807 ^ n as u64);
    let majority_live: Vec<usize> = (0..n - params.minority).filter(|&i| alive[i]).collect();
    let cross: Vec<(usize, usize)> = (0..512)
        .map(|_| {
            (
                *majority_live.choose(&mut rng).expect("majority nonempty"),
                *minority.choose(&mut rng).expect("minority nonempty"),
            )
        })
        .collect();
    let mut routes_restored_s = None;
    let mut t = heal_at;
    while t < end {
        t += params.heal_sample_s;
        sim.run_until(t);
        let restored = cross.iter().all(|&(i, j)| {
            overlay_at(&sim, i).best_hop(NodeId(j as u16), t).is_some()
                && overlay_at(&sim, j).best_hop(NodeId(i as u16), t).is_some()
        });
        if restored {
            routes_restored_s = Some(t - heal_at);
            break;
        }
    }
    sim.run_until(end);

    let max_rows = (0..n)
        .filter(|&i| alive[i])
        .map(|i| {
            overlay_at(&sim, i)
                .quorum_router()
                .expect("quorum node")
                .table()
                .row_count()
        })
        .max()
        .unwrap();
    NetsimScalePoint {
        n,
        coverage,
        mean_stretch,
        postchurn_coverage,
        probe_bytes_per_node,
        routes_restored_s,
        max_rows,
        // Wider than the fabric's 4√n: the full overlay also holds the
        // 16 sampled-probe rows and rows installed from round-two
        // recommendations (measured ≈ 4.5√n at n=64, shrinking with n).
        row_bound: 6.0 * (n as f64).sqrt() + 16.0,
        events: sim.events_processed(),
        elapsed_s: started.elapsed().as_secs_f64(),
        telemetry: crate::aggregate_fleet(&fleet_snapshot(&sim, n)),
    }
}

/// Run the netsim arm at every size.
///
/// # Panics
/// Panics when a size misses the acceptance bounds: steady coverage
/// ≥ 0.99, cross-routes restored within the heal horizon, row state
/// within `6√n + 16` — or when growing the overlay 4× costs ≥ 2× the
/// per-node probe bytes (the sub-linear probing claim).
#[must_use]
pub fn run_netsim(params: &NetsimScaleParams) -> Vec<NetsimScalePoint> {
    let mut points: Vec<NetsimScalePoint> = Vec::new();
    for &n in &params.sizes {
        let p = run_netsim_size(n, params);
        assert!(
            p.coverage >= 0.99,
            "n={n}: steady coverage {:.4} < 0.99",
            p.coverage
        );
        assert!(
            p.routes_restored_s.is_some(),
            "n={n}: cross routes not restored within {:.0} s of the heal",
            params.heal_horizon_s
        );
        assert!(
            (p.max_rows as f64) <= p.row_bound,
            "n={n}: a node holds {} rows > 6√n + 16 = {:.0}",
            p.max_rows,
            p.row_bound
        );
        if let Some(prev) = points.last() {
            let ratio = p.probe_bytes_per_node / prev.probe_bytes_per_node;
            assert!(
                ratio < 2.0,
                "probe bytes/node grew {:.2}× from n={} to n={} (≥ 2× — \
                 super-√n growth)",
                ratio,
                prev.n,
                p.n
            );
        }
        points.push(p);
    }
    points
}

/// `scale.csv`: one row per fabric size (`store` = `sparse`), then one
/// per netsim size (`store` = `netsim`). `row_bound` is the bound the
/// row's own arm asserts — `4√n` for the fabric, `6√n + 16` for the
/// netsim arm — and a column an arm does not measure is empty.
#[must_use]
pub fn table(points: &[ScalePoint], netsim: &[NetsimScalePoint]) -> ResultTable {
    let header = &[
        "n",
        "store",
        "max_rows",
        "row_bound",
        "max_entries",
        "dense_entries",
        "coverage",
        "rescued",
        "mean_stretch",
        "max_stretch",
        "elapsed_s",
        "probe_bytes_per_node",
        "routes_restored_s",
    ];
    let fabric = points.iter().map(|p| {
        vec![
            p.n.to_string(),
            p.store.clone(),
            p.max_rows.to_string(),
            format!("{:.1}", p.row_bound),
            p.max_entries.to_string(),
            p.dense_entries.to_string(),
            format!("{:.5}", p.coverage),
            format!("{:.5}", p.rescued),
            format!("{:.6}", p.mean_stretch),
            format!("{:.6}", p.max_stretch),
            format!("{:.2}", p.elapsed_s),
            String::new(), // probe_bytes_per_node: fabric has no prober
            String::new(), // routes_restored_s: fabric has no failures
        ]
    });
    let netsim = netsim.iter().map(|p| {
        vec![
            p.n.to_string(),
            "netsim".to_string(),
            p.max_rows.to_string(),
            format!("{:.1}", p.row_bound),
            String::new(),
            String::new(),
            format!("{:.5}", p.coverage),
            String::new(),
            format!("{:.6}", p.mean_stretch),
            String::new(),
            format!("{:.2}", p.elapsed_s),
            format!("{:.1}", p.probe_bytes_per_node),
            p.routes_restored_s
                .map_or(String::new(), |s| format!("{s:.1}")),
        ]
    });
    (header, fabric.chain(netsim).collect())
}

/// Run both arms, print and write `scale.csv` plus the netsim arm's
/// aggregated fleet telemetry (`scale_telemetry.json`).
///
/// # Errors
/// Propagates CSV/JSON I/O errors.
pub fn run_and_report(params: &ScaleParams) -> std::io::Result<Vec<ScalePoint>> {
    let points = run(params);
    let netsim_points = run_netsim(&params.netsim);
    let title = format!(
        "Scale study — sparse row store over the two-round fabric ({} sampled pairs), \
         and the full stack under churn ({} kills) + {}-node partition",
        params.max_pairs, params.netsim.churn_kills, params.netsim.minority
    );
    crate::report_table(&title, "scale.csv", &table(&points, &netsim_points))?;
    // The aggregated fleet telemetry, one JSON object per netsim size.
    crate::write_arms_json(
        "scale_telemetry.json",
        netsim_points.iter().map(|p| {
            let label = format!(
                "\"n\": {}, \"probe_bytes_per_node\": {:.1}, \"routes_restored_s\": {}, \
                 \"events\": {}",
                p.n,
                p.probe_bytes_per_node,
                p.routes_restored_s
                    .map_or("null".to_string(), |s| format!("{s:.1}")),
                p.events,
            );
            (label, &p.telemetry)
        }),
    )?;
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleParams {
        ScaleParams {
            sizes: vec![49, 64],
            max_pairs: 1_500,
            netsim: NetsimScaleParams {
                sizes: vec![64, 256],
                churn_kills: 2,
                partition_s: 40.0,
                minority: 6,
                heal_sample_s: 2.0,
                max_pairs: 1_500,
                seed: 0xBEEF,
                ..NetsimScaleParams::default()
            },
            ..ScaleParams::default()
        }
    }

    /// The study in miniature: the state bound holds (asserted inside
    /// `run`) and the two-round fabric reaches full coverage at optimal
    /// stretch.
    #[test]
    fn miniature_study_meets_all_bounds() {
        let points = run(&tiny());
        assert_eq!(points.len(), 2);
        let sparse64 = points.iter().find(|p| p.n == 64).unwrap();
        // A full matrix is n² entries; the store holds ~ (2√n + 1)·n.
        assert_eq!(sparse64.dense_entries, 64 * 64);
        assert!(
            sparse64.max_entries < 64 * 64 / 2,
            "the store must hold far less than a full matrix: {}",
            sparse64.max_entries
        );
        assert!((sparse64.max_rows as f64) <= sparse64.row_bound);
        // Ground-truth rows + lossless fabric ⇒ optimal routes known
        // for every sampled pair after two ticks.
        for p in &points {
            assert!(
                p.coverage > 0.999,
                "{}@{}: coverage {}",
                p.store,
                p.n,
                p.coverage
            );
            // The hop choice runs on wire-quantized (integer ms) costs,
            // so it can land within rounding of the float optimum but
            // not beat it systematically.
            assert!(
                p.mean_stretch < 1.01,
                "{}@{}: stretch {}",
                p.store,
                p.n,
                p.mean_stretch
            );
            assert!(
                p.rescued > 0.95,
                "{}@{}: rescued {}",
                p.store,
                p.n,
                p.rescued
            );
        }
    }

    /// The netsim arm in miniature: `run_netsim` itself asserts the
    /// acceptance bounds (steady coverage, restoration, row state,
    /// sub-√n probe-byte growth across a 4× size step); on top of that
    /// the aggregated fleet telemetry must carry the hot-path
    /// distributions with nonzero medians and tails.
    #[test]
    fn miniature_netsim_arm_meets_bounds() {
        let points = run_netsim(&tiny().netsim);
        assert_eq!(points.len(), 2);
        for p in &points {
            for (component, name) in [("routing", "probe_rtt_us"), ("netsim", "event_queue_depth")]
            {
                let h = p
                    .telemetry
                    .histogram(0, component, name)
                    .unwrap_or_else(|| panic!("{component}/{name} missing at n={}", p.n));
                assert!(h.count > 0, "{component}/{name} empty at n={}", p.n);
                assert!(
                    h.quantile(0.5) > 0 && h.quantile(0.99) > 0,
                    "{component}/{name} has zero quantiles at n={}",
                    p.n
                );
            }
            // The held-bytes gauge (what the rows own, summed over
            // nodes: `LaneRow::held_bytes`) must be live in the fleet
            // aggregate.
            let lanes = p
                .telemetry
                .gauge(0, "linkstate", "row_bytes_lanes")
                .unwrap_or_else(|| panic!("row_bytes_lanes missing at n={}", p.n));
            assert!(lanes > 0, "row_bytes_lanes zero at n={}", p.n);
            assert!(p.events > 0 && p.postchurn_coverage > 0.9);
        }
    }

    /// Each row of `scale.csv` carries the row bound its own arm
    /// asserts: `4√n` on a fabric row, `6√n + 16` on a netsim row.
    #[test]
    fn each_row_carries_its_own_arms_row_bound() {
        let params = tiny();
        let netsim = NetsimScaleParams {
            sizes: vec![64],
            ..params.netsim.clone()
        };
        let (header, rows) = table(&run(&params), &run_netsim(&netsim));
        let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.len(), header.len());
            let root_n = row[col("n")].parse::<f64>().unwrap().sqrt();
            let bound = match row[col("store")].as_str() {
                "sparse" => 4.0 * root_n,
                "netsim" => 6.0 * root_n + 16.0,
                other => panic!("unknown arm {other:?}"),
            };
            assert_eq!(row[col("row_bound")], format!("{bound:.1}"));
        }
    }

    #[test]
    fn pair_sampling_is_deterministic_and_bounded() {
        let a = sample_pairs(50, 100, 7);
        let b = sample_pairs(50, 100, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&(i, j)| i != j && i < 50 && j < 50));
        // Small n: exhaustive.
        assert_eq!(sample_pairs(5, 100, 7).len(), 20);
    }
}

//! The three simulated workloads: one repetition builds the overlay on
//! `apor-netsim`, runs the scenario's timeline, queries routes at the
//! probe instants and checks them against the failure schedule and the
//! offline one-hop optimum.

use crate::meter::{Cost, Phase};
use crate::node::{BenchNode, Recorder, Shared};
use crate::oracle;
use crate::seeds::{sample_pairs, sub_seed};
use apor_netsim::{Direction, Simulator, SimulatorConfig, TrafficClass};
use apor_overlay::simnode::overlay_sim_config;
use apor_overlay::{Algorithm, NodeConfig, OverlayNode};
use apor_quorum::{Grid, NodeId};
use apor_telemetry::Snapshot;
use apor_topology::{
    FailureParams, FailureSchedule, LatencyMatrix, NodeOutage, PlanetLabParams, Topology,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Ordered pairs whose routes are queried at each probe instant.
pub const SAMPLED_PAIRS: usize = 4_000;
/// (majority, minority) pairs that must route both ways after the heal.
const CROSS_PAIRS: usize = 512;
/// Route-restoration sampling step after the heal, simulated seconds.
const RECOVERY_STEP_S: f64 = 5.0;
/// View-agreement sampling step after the crash batch: one SWIM period.
const DETECT_STEP_S: f64 = 2.0;
/// Passes over the sampled pairs when a traced run times route lookups.
const LOOKUP_PASSES: usize = 5;
/// Traffic accounting bucket. Every window the benchmark reads is a
/// whole number of these.
const BUCKET_S: f64 = 5.0;

/// A crash batch followed by a minority partition that heals.
#[derive(Debug, Clone, Copy)]
pub struct Faults {
    pub crashes: usize,
    pub crash_at_s: f64,
    pub minority: usize,
    pub partition_at_s: f64,
    pub heal_at_s: f64,
}

/// One simulated workload.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub n: usize,
    pub algorithm: Algorithm,
    pub subquadratic_probing: bool,
    /// SWIM membership instead of the static view, 8-hop feasible
    /// detours, and loss-free links: under the topology's default
    /// packet loss SWIM's view at this size flaps by a member or two for
    /// the whole run, and detection and recovery times then depend on
    /// the sampling instant more than on the protocol.
    pub swim: bool,
    /// Steady-state probe instant; the control-traffic window is the
    /// `traffic_window_s` before it. Nothing has failed yet.
    pub steady_at_s: f64,
    pub traffic_window_s: f64,
    pub faults: Option<Faults>,
    pub end_s: f64,
}

impl Scenario {
    /// The same scenario on a quarter of the nodes (`--smoke`).
    pub fn quartered(mut self) -> Self {
        self.n /= 4;
        if let Some(f) = &mut self.faults {
            f.crashes /= 4;
            f.minority /= 4;
        }
        self
    }
}

/// Wall seconds of the set-up steps of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub total_s: f64,
    pub topology_s: f64,
    pub schedule_s: f64,
}

/// Everything a repetition computes from the simulation alone: a pure
/// function of scenario and seed, identical traced and untraced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    pub events: u64,
    pub ctrl_bytes_per_node_s: f64,
    pub probe_bytes_per_node_s: f64,
    pub routing_bytes_per_node_s: f64,
    pub membership_bytes_per_node_s: f64,
    /// Route queries on the sampled pairs at the steady instant, and how
    /// many came back empty or through a dead link.
    pub attempted: u64,
    pub failed: u64,
    pub coverage: f64,
    pub mean_stretch: f64,
    /// Share of sampled live pairs with a valid route at the end of a
    /// run with faults.
    pub end_coverage: Option<f64>,
    /// Simulated seconds from heal to all cross pairs routing both ways.
    pub recovery_s: Option<f64>,
    /// Simulated seconds from the crash batch to every live view
    /// excluding every victim.
    pub detect_s: Option<f64>,
    pub rows_held_max: u64,
    pub entries_max: u64,
}

/// What the traced run adds.
pub struct Trace {
    pub recorder: Recorder,
    /// Wall seconds inside `run_until`.
    pub run_wall_s: f64,
    pub fleet: Snapshot,
    pub fleet_snapshot_s: f64,
    pub grid_build_us: f64,
    /// Fabric only: time in `Message::encode`, ns.
    pub encode_ns: u64,
    /// Median over passes of one route lookup, ns.
    pub lookup_ns: f64,
    /// Fabric only: wall seconds of the measured read phase.
    pub read_wall_s: f64,
}

pub struct Rep {
    pub setup: Setup,
    pub cost: Cost,
    pub outcome: Outcome,
    pub trace: Option<Trace>,
}

struct World {
    sim: Simulator,
    nodes: Vec<Shared>,
    latency: LatencyMatrix,
    alive: Vec<bool>,
    phase: Phase,
}

impl World {
    fn run_until(&mut self, t: f64) {
        let sim = &mut self.sim;
        self.phase.measure(|| sim.run_until(t));
    }

    /// Is the first hop `hop` a usable route `src → dst` at time `t`?
    fn valid(&self, src: usize, dst: usize, hop: usize, t: f64) -> bool {
        let schedule = self.sim.schedule();
        if hop == dst {
            schedule.is_link_up(src, dst, t)
        } else {
            self.alive[hop] && schedule.is_link_up(src, hop, t) && schedule.is_link_up(hop, dst, t)
        }
    }

    fn route(&self, src: usize, dst: usize, t: f64) -> Option<usize> {
        let hop = self.nodes[src]
            .borrow()
            .node
            .best_hop(NodeId(dst as u16), t)?
            .index();
        self.valid(src, dst, hop, t).then_some(hop)
    }

    /// Query every sampled live pair at `t`: (attempted, failed, mean
    /// stretch over the pairs that routed).
    fn probe(&self, pairs: &[(usize, usize)], t: f64) -> (u64, u64, f64) {
        let m = &self.latency;
        let (mut attempted, mut failed, mut stretch, mut covered) = (0, 0, 0.0, 0u64);
        for &(i, j) in pairs {
            if !self.alive[i] || !self.alive[j] {
                continue;
            }
            attempted += 1;
            let Some(hop) = self.route(i, j, t) else {
                failed += 1;
                continue;
            };
            if let Some(s) = oracle::stretch(m, i, j, hop) {
                stretch += s;
                covered += 1;
            }
        }
        (attempted, failed, stretch / covered as f64)
    }

    /// Median over `passes` of the time of one `best_hop` on the
    /// sampled pairs, ns.
    fn time_lookups(&self, pairs: &[(usize, usize)], t: f64, passes: usize) -> f64 {
        let per_lookup: Vec<f64> = (0..passes)
            .map(|_| {
                let started = Instant::now();
                for &(i, j) in pairs {
                    let hosted = self.nodes[i].borrow();
                    std::hint::black_box(hosted.node.best_hop(NodeId(j as u16), t));
                }
                started.elapsed().as_nanos() as f64 / pairs.len() as f64
            })
            .collect();
        crate::stats::median(&per_lookup)
    }

    fn bytes_per_node_s(&self, classes: &[TrafficClass], from_s: f64, to_s: f64) -> f64 {
        let n = self.nodes.len();
        let total: u64 = (0..n)
            .map(|i| {
                self.sim
                    .stats()
                    .total_bytes(i, classes, &[Direction::Out], from_s, to_s)
            })
            .sum();
        total as f64 / n as f64 / (to_s - from_s)
    }
}

struct Built {
    world: World,
    setup: Setup,
    victims: Vec<usize>,
    minority: Vec<usize>,
}

/// Set-up: topology, failure schedule, simulator and nodes, up to but
/// not including the first event.
fn build(scenario: &Scenario, seed: u64, traced: bool) -> Built {
    let n = scenario.n;
    let faults = scenario.faults;
    let setup_started = Instant::now();
    let topology = Topology::generate(&PlanetLabParams {
        n,
        seed: sub_seed(seed, "topology"),
        ..if scenario.swim {
            PlanetLabParams {
                loss_median: 0.0,
                ..Default::default()
            }
        } else {
            PlanetLabParams::default()
        }
    });
    let topology_s = setup_started.elapsed().as_secs_f64();

    let victims: Vec<usize> = faults.map_or(Vec::new(), |f| (n / 2..n / 2 + f.crashes).collect());
    let minority: Vec<usize> = faults.map_or(Vec::new(), |f| (n - f.minority..n).collect());
    let schedule_started = Instant::now();
    let mut failure = FailureParams::with_n(n);
    failure.seed = sub_seed(seed, "failures");
    // No background link failures: the scenario's own faults only.
    failure.median_concurrent = 1e-12;
    failure.duration_s = scenario.end_s + 60.0;
    if let Some(f) = faults {
        failure.node_outages = victims
            .iter()
            .map(|&node| NodeOutage {
                node,
                start_s: f.crash_at_s,
                end_s: failure.duration_s,
            })
            .collect();
        failure = failure.with_partition(&minority, f.partition_at_s, f.heal_at_s);
    }
    let schedule = FailureSchedule::generate(&failure);
    let schedule_s = schedule_started.elapsed().as_secs_f64();

    let mut sim = Simulator::new(
        topology.latency.clone(),
        schedule,
        SimulatorConfig {
            seed: sub_seed(seed, "netsim"),
            bucket_secs: BUCKET_S,
            ..overlay_sim_config()
        },
    );
    let members: Vec<NodeId> = (0..n as u16).map(NodeId).collect();
    let node_seed = sub_seed(seed, "nodes");
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let mut cfg = NodeConfig::new(NodeId(i as u16), NodeId(0), scenario.algorithm)
            .with_static_members(members.clone());
        cfg.seed ^= node_seed;
        if scenario.subquadratic_probing {
            cfg.protocol = cfg.protocol.with_subquadratic_probing(240.0);
        }
        if scenario.swim {
            cfg = cfg.with_swim();
            cfg.protocol = cfg.protocol.with_detour_hops(8);
        }
        let (behavior, shared) = BenchNode::host(OverlayNode::new(cfg), traced);
        sim.add_node(behavior, 10.0 * i as f64 / n as f64);
        nodes.push(shared);
    }
    let setup = Setup {
        total_s: setup_started.elapsed().as_secs_f64(),
        topology_s,
        schedule_s,
    };
    Built {
        world: World {
            sim,
            nodes,
            latency: topology.latency,
            alive: vec![true; n],
            phase: Phase::new(),
        },
        setup,
        victims,
        minority,
    }
}

/// Microseconds to build the quorum grid over `n` nodes and read every
/// node's rendezvous servers off it: what each view install pays.
pub fn time_grid_build_us(n: usize) -> f64 {
    let started = Instant::now();
    let grid = Grid::new(n);
    for i in 0..n {
        std::hint::black_box(grid.rendezvous_servers(i));
    }
    started.elapsed().as_secs_f64() * 1e6
}

/// Set up `scenario` and throw it away: one more sample of set-up time.
pub fn time_setup(scenario: &Scenario, seed: u64) -> Setup {
    build(scenario, seed, false).setup
}

/// Run one repetition of `scenario` under `seed`.
pub fn run(scenario: &Scenario, seed: u64, traced: bool) -> Rep {
    let n = scenario.n;
    let faults = scenario.faults;
    let Built {
        mut world,
        setup,
        victims,
        minority,
    } = build(scenario, seed, traced);

    // Outside set-up: the traced run's one-off layer timing.
    let grid_build_us = traced.then(|| time_grid_build_us(n));

    let pairs = sample_pairs(n, SAMPLED_PAIRS, sub_seed(seed, "pairs"));
    let mut outcome = Outcome::default();

    // ---- steady state ---------------------------------------------------
    let steady = scenario.steady_at_s;
    world.run_until(steady);
    let (attempted, failed, mean_stretch) = world.probe(&pairs, steady);
    outcome.attempted = attempted;
    outcome.failed = failed;
    outcome.coverage = (attempted - failed) as f64 / attempted as f64;
    outcome.mean_stretch = mean_stretch;
    let lookup_ns = traced.then(|| world.time_lookups(&pairs, steady, LOOKUP_PASSES));
    let window = (steady - scenario.traffic_window_s, steady);
    outcome.ctrl_bytes_per_node_s = world.bytes_per_node_s(&TrafficClass::ALL, window.0, window.1);
    outcome.probe_bytes_per_node_s =
        world.bytes_per_node_s(&[TrafficClass::Probing], window.0, window.1);
    outcome.routing_bytes_per_node_s =
        world.bytes_per_node_s(&[TrafficClass::Routing], window.0, window.1);
    outcome.membership_bytes_per_node_s =
        world.bytes_per_node_s(&[TrafficClass::Membership], window.0, window.1);

    // ---- crash batch, partition, heal -----------------------------------
    if let Some(f) = faults {
        world.run_until(f.crash_at_s);
        for &v in &victims {
            world.alive[v] = false;
        }
        if scenario.swim {
            let mut t = f.crash_at_s;
            while t < f.partition_at_s && outcome.detect_s.is_none() {
                t = (t + DETECT_STEP_S).min(f.partition_at_s);
                world.run_until(t);
                let agreed = (0..n).filter(|&i| world.alive[i]).all(|i| {
                    let hosted = world.nodes[i].borrow();
                    let view = hosted.node.view().expect("static members installed");
                    victims.iter().all(|&v| !view.contains(NodeId(v as u16)))
                });
                if agreed {
                    outcome.detect_s = Some(t - f.crash_at_s);
                }
            }
        }
        world.run_until(f.heal_at_s);

        let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, "cross"));
        let majority: Vec<usize> = (0..n - f.minority).filter(|&i| world.alive[i]).collect();
        let cross: Vec<(usize, usize)> = (0..CROSS_PAIRS)
            .map(|_| {
                (
                    majority[rng.gen_range(0..majority.len())],
                    minority[rng.gen_range(0..minority.len())],
                )
            })
            .collect();
        let mut t = f.heal_at_s;
        while t < scenario.end_s && outcome.recovery_s.is_none() {
            t = (t + RECOVERY_STEP_S).min(scenario.end_s);
            world.run_until(t);
            let restored = cross
                .iter()
                .all(|&(i, j)| world.route(i, j, t).is_some() && world.route(j, i, t).is_some());
            if restored {
                outcome.recovery_s = Some(t - f.heal_at_s);
            }
        }
    }

    // ---- end of run -----------------------------------------------------
    world.run_until(scenario.end_s);
    if faults.is_some() {
        let (attempted, failed, _) = world.probe(&pairs, scenario.end_s);
        outcome.end_coverage = Some((attempted - failed) as f64 / attempted as f64);
    }
    outcome.events = world.sim.events_processed();
    for (i, shared) in world.nodes.iter().enumerate() {
        let hosted = shared.borrow();
        if let (true, Some(router)) = (world.alive[i], hosted.node.quorum_router()) {
            use apor_linkstate::LinkStateStore;
            outcome.rows_held_max = outcome.rows_held_max.max(router.table().row_count() as u64);
            outcome.entries_max = outcome.entries_max.max(router.table().entry_count() as u64);
        }
    }

    let trace = grid_build_us.map(|grid_build_us| {
        let mut recorder = Recorder::default();
        for shared in &world.nodes {
            recorder.merge(shared.borrow().recorder.as_ref().expect("traced run"));
        }
        let started = Instant::now();
        let mut fleet = world.sim.telemetry_snapshot();
        for shared in &world.nodes {
            fleet.merge(&shared.borrow().node.telemetry().snapshot());
        }
        Trace {
            recorder,
            run_wall_s: world.phase.cost().wall_s,
            fleet,
            fleet_snapshot_s: started.elapsed().as_secs_f64(),
            grid_build_us,
            encode_ns: 0,
            lookup_ns: lookup_ns.expect("traced run"),
            read_wall_s: 0.0,
        }
    });
    Rep {
        setup,
        cost: world.phase.cost(),
        outcome,
        trace,
    }
}

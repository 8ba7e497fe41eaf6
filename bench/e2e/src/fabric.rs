//! The simulator-free workload: `n` quorum routers over ground-truth
//! rows, ticked synchronously with every message carried through the
//! wire codec, then a read phase of route lookups over all ordered pairs.
//!
//! The same `routing` and `linkstate` code as the simulated workloads,
//! used differently: row writes beside route reads, with `netsim`, the
//! prober, `membership` and `overlay` doing no work at all.

use crate::meter::Phase;
use crate::node::{Kind, Recorder};
use crate::oracle;
use crate::scenario::{time_grid_build_us, Outcome, Rep, Setup, Trace, SAMPLED_PAIRS};
use crate::seeds::{sample_pairs, sub_seed};
use apor_linkstate::{wire::UDP_IP_OVERHEAD, LinkEntry, LinkStateStore, Message};
use apor_routing::{onehop, ProtocolConfig, QuorumRouter, RoutingAlgorithm};
use apor_telemetry::Snapshot;
use apor_topology::{PlanetLabParams, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Fabric {
    pub n: usize,
    /// Routing intervals driven; two suffice for all-pairs optimal routes.
    pub ticks: usize,
    /// Passes of `best_hop` over all ordered pairs.
    pub read_passes: usize,
}

impl Fabric {
    pub fn quartered(mut self) -> Self {
        self.n /= 4;
        self
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

struct Built {
    topology: Topology,
    rows: Vec<Vec<LinkEntry>>,
    routers: Vec<QuorumRouter>,
    setup: Setup,
}

/// Set-up: topology, ground-truth rows and one router per node.
fn build(fabric: &Fabric, seed: u64) -> Built {
    let n = fabric.n;
    let config = ProtocolConfig::quorum();
    let setup_started = Instant::now();
    let topology = Topology::generate(&PlanetLabParams {
        n,
        seed: sub_seed(seed, "topology"),
        ..Default::default()
    });
    let topology_s = setup_started.elapsed().as_secs_f64();
    let rows = (0..n)
        .map(|i| onehop::ground_truth_row(&topology.latency, i))
        .collect();
    let routers = (0..n)
        .map(|i| QuorumRouter::new(i, n, 0, config.clone()))
        .collect();
    let setup = Setup {
        total_s: setup_started.elapsed().as_secs_f64(),
        topology_s,
        schedule_s: 0.0,
    };
    Built {
        topology,
        rows,
        routers,
        setup,
    }
}

/// Set up `fabric` and throw it away: one more sample of set-up time.
pub fn time_setup(fabric: &Fabric, seed: u64) -> Setup {
    build(fabric, seed).setup
}

pub fn run(fabric: &Fabric, seed: u64, traced: bool) -> Rep {
    let n = fabric.n;
    let interval_s = ProtocolConfig::quorum().routing_interval_s;
    let Built {
        topology,
        rows,
        mut routers,
        setup,
    } = build(fabric, seed);
    let m = &topology.latency;
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, "fabric"));

    let grid_build_us = traced.then(|| time_grid_build_us(n));
    let mut recorder = Recorder::default();
    let mut encode_ns = 0u64;

    // ---- ticks: every message goes encode → decode → on_message ----------
    let mut phase = Phase::new();
    let mut frame_bytes = 0u64;
    let mut now = 0.0;
    phase.open();
    for _ in 0..fabric.ticks {
        // Per-node tick with immediate delivery: replies land before the
        // next node ticks, so the in-flight queue stays O(√n) frames.
        for i in 0..n {
            let t = Instant::now();
            let mut queue = routers[i].on_routing_tick(now, &rows[i], &mut rng);
            if traced {
                let span = &mut recorder.spans[Kind::TimerRouting as usize];
                span.calls += 1;
                span.ns += ns_since(t);
                span.sends += queue.len() as u64;
            }
            while let Some(msg) = queue.pop() {
                let to = msg.to().index();
                if !traced {
                    let frame = msg.encode();
                    frame_bytes += (frame.len() + UDP_IP_OVERHEAD) as u64;
                    let (decoded, _) = Message::decode_traced(&frame).expect("own frame decodes");
                    queue.extend(routers[to].on_message(now + 0.001, &decoded));
                    continue;
                }
                let t0 = Instant::now();
                let frame = msg.encode();
                let t1 = Instant::now();
                let (decoded, _) = Message::decode_traced(&frame).expect("own frame decodes");
                let t2 = Instant::now();
                let replies = routers[to].on_message(now + 0.001, &decoded);
                let t3 = Instant::now();
                frame_bytes += (frame.len() + UDP_IP_OVERHEAD) as u64;
                let kind = match decoded {
                    Message::Recommendations(_) => Kind::PacketRec,
                    _ => Kind::PacketLinkState,
                };
                let span = &mut recorder.spans[kind as usize];
                span.calls += 1;
                span.bytes += frame.len() as u64;
                span.sends += replies.len() as u64;
                encode_ns += (t1 - t0).as_nanos() as u64;
                span.decode_ns += (t2 - t1).as_nanos() as u64;
                span.ns += (t3 - t2).as_nanos() as u64;
                queue.extend(replies);
            }
        }
        now += interval_s;
    }
    phase.close();

    // ---- reads: best_hop over all ordered pairs --------------------------
    let lookups = (n * (n - 1)) as u64;
    let mut missing = 0u64;
    let mut pass_ns = Vec::with_capacity(fabric.read_passes);
    for pass in 0..fabric.read_passes {
        let started = Instant::now();
        phase.open();
        let mut none = 0u64;
        for (i, router) in routers.iter().enumerate() {
            for j in (0..n).filter(|&j| j != i) {
                none += u64::from(black_box(router.best_hop(j, now)).is_none());
            }
        }
        phase.close();
        pass_ns.push(ns_since(started) as f64 / lookups as f64);
        if pass == 0 {
            missing = none;
        }
    }

    // ---- checks against the oracle (not measured) -------------------------
    let pairs = sample_pairs(n, SAMPLED_PAIRS, sub_seed(seed, "pairs"));
    let (mut stretch, mut covered) = (0.0, 0u64);
    for &(i, j) in &pairs {
        let Some(hop) = routers[i].best_hop(j, now) else {
            continue;
        };
        if let Some(s) = oracle::stretch(m, i, j, hop) {
            stretch += s;
            covered += 1;
        }
    }
    let per_node_s = n as f64 * fabric.ticks as f64 * interval_s;
    let outcome = Outcome {
        ctrl_bytes_per_node_s: frame_bytes as f64 / per_node_s,
        routing_bytes_per_node_s: frame_bytes as f64 / per_node_s,
        attempted: lookups,
        failed: missing,
        coverage: (lookups - missing) as f64 / lookups as f64,
        mean_stretch: stretch / covered as f64,
        rows_held_max: routers
            .iter()
            .map(|r| r.table().row_count())
            .max()
            .unwrap_or(0) as u64,
        entries_max: routers
            .iter()
            .map(|r| r.table().entry_count())
            .max()
            .unwrap_or(0) as u64,
        ..Outcome::default()
    };

    let cost = phase.cost();
    let trace = grid_build_us.map(|grid_build_us| Trace {
        recorder,
        run_wall_s: cost.wall_s,
        fleet: Snapshot::default(),
        fleet_snapshot_s: 0.0,
        grid_build_us,
        encode_ns,
        lookup_ns: crate::stats::median(&pass_ns),
        read_wall_s: pass_ns.iter().sum::<f64>() * lookups as f64 / 1e9,
    });
    Rep {
        setup,
        cost,
        outcome,
        trace,
    }
}

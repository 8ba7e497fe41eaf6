//! Waking exactly when there is work must be a pure *scheduling* choice:
//! with a deterministic network (no jitter, no loss) the overlay must end
//! up with bit-identical routing state whether its prober is woken by
//! the node's own coalesced `next_wake` timers or polled on a fixed
//! 0.5 s tick regardless of pending work — while processing strictly
//! fewer simulator events. The fixed-tick side is a driver this test
//! owns ([`PollingNode`]): the node itself has one timer discipline.

use allpairs_overlay::linkstate::{LaneRow, LinkStateStore, RowStore};
use allpairs_overlay::netsim::{Ctx, NodeBehavior, Simulator, SimulatorConfig};
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::overlay::node::{Outbox, OverlayNode, TOKEN_PROBE};
use allpairs_overlay::overlay::simnode::{overlay_sim_config, World};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::topology::{FailureParams, LatencyMatrix};

const N: usize = 32;
const HORIZON_S: f64 = 600.0;

/// A varied but fully deterministic symmetric latency matrix: distinct
/// RTTs so best hops are non-trivial, zero loss so no RNG is consumed
/// by the network model (RNG draws are the one way event *order* could
/// leak into protocol state).
fn varied_matrix() -> LatencyMatrix {
    let mut m = LatencyMatrix::uniform(N, 40.0);
    for i in 0..N {
        for j in (i + 1)..N {
            let rtt = 20.0 + ((i * 7 + j * 13) % 80) as f64;
            m.set_rtt(i, j, rtt);
        }
    }
    m
}

/// How often [`PollingNode`] polls the prober, seconds. Dyadic, like
/// the prober's phase slots, so every probe deadline falls exactly on a
/// poll instant.
const POLL_S: f64 = 0.5;

/// The reference driver: throws away the node's own [`TOKEN_PROBE`]
/// timers and instead delivers one every [`POLL_S`], due work or
/// not. (The overlay under test runs no SWIM plane, so there is no
/// second timer to poll.)
struct PollingNode {
    node: OverlayNode,
}

impl PollingNode {
    fn flush(out: Outbox, ctx: &mut Ctx<'_>) {
        for (to, class, bytes) in out.sends {
            ctx.send(to.index(), class, bytes);
        }
        for (delay, token) in out.timers {
            if token != TOKEN_PROBE {
                ctx.set_timer(delay, token);
            }
        }
    }
}

impl NodeBehavior for PollingNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Outbox::default();
        self.node.on_start(ctx.now(), &mut out);
        Self::flush(out, ctx);
        ctx.set_timer(POLL_S, TOKEN_PROBE);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: usize, payload: &[u8]) {
        let mut out = Outbox::default();
        self.node.on_packet(ctx.now(), payload, &mut out);
        Self::flush(out, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let mut out = Outbox::default();
        self.node.on_timer(ctx.now(), token, &mut out);
        Self::flush(out, ctx);
        if token == TOKEN_PROBE {
            ctx.set_timer(POLL_S, TOKEN_PROBE);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn node_config(i: usize) -> NodeConfig {
    NodeConfig::static_member(i, N, Algorithm::Quorum)
}

fn sim_config() -> SimulatorConfig {
    SimulatorConfig {
        seed: 42,
        jitter_frac: 0.0,
        ..overlay_sim_config()
    }
}

/// The overlay under its own coalesced timers.
fn run_coalesced() -> World {
    let mut world = World::new(
        varied_matrix(),
        FailureParams::none(N, 1e6),
        sim_config(),
        5.0,
        node_config,
    );
    world.run_until(HORIZON_S);
    world
}

/// The same overlay behind [`PollingNode`].
fn run_fixed_tick() -> Simulator {
    let mut sim = Simulator::new(varied_matrix(), FailureParams::none(N, 1e6), sim_config());
    // Same staggered starts as `World::new`.
    for i in 0..N {
        let node = OverlayNode::new(node_config(i));
        sim.add_node(Box::new(PollingNode { node }), 5.0 * i as f64 / N as f64);
    }
    sim.run_until(HORIZON_S);
    sim
}

/// Every held row as `(origin, receipt time bits, row)` — the row's
/// lanes, seqno and retractions: what two runs must agree on, down to
/// the f64 bits.
fn held(table: &RowStore) -> Vec<(usize, u64, LaneRow)> {
    table
        .held_rows()
        .map(|(origin, at, _)| {
            (
                origin.get(),
                at.to_bits(),
                table.row(origin).expect("held").clone(),
            )
        })
        .collect()
}

/// The overlay node [`PollingNode`] hosts at simulator slot `i`.
fn polled(sim: &Simulator, i: usize) -> &OverlayNode {
    let host = sim.node(i).as_any().downcast_ref::<PollingNode>();
    &host.expect("slot hosts a PollingNode").node
}

#[test]
fn coalesced_replays_fixed_tick_bit_identically() {
    let (fixed, coalesced) = (run_fixed_tick(), run_coalesced());

    for i in 0..N {
        let f = polled(&fixed, i);
        let c = coalesced.node(i);

        // Identical link-state tables, down to the f64 bits of the row
        // timestamps and every wire-quantized entry.
        let (fr, cr) = (f.quorum_router(), c.quorum_router());
        let fr = held(fr.expect("quorum node").table());
        let cr = held(cr.expect("quorum node").table());
        assert_eq!(fr.len(), cr.len(), "node {i}: row count");
        for (f_row, c_row) in fr.iter().zip(cr.iter()) {
            let fo = f_row.0;
            assert_eq!(fo, c_row.0, "node {i}: row origin");
            assert_eq!(
                f_row.1,
                c_row.1,
                "node {i}: row {fo} timestamp ({} vs {})",
                f64::from_bits(f_row.1),
                f64::from_bits(c_row.1)
            );
            assert_eq!(f_row, c_row, "node {i}: row {fo} entries and version");
        }

        // Identical routing decisions for every destination.
        for dst in 0..N {
            if dst == i {
                continue;
            }
            let d = NodeId(dst as u16);
            assert_eq!(
                f.best_hop(d, HORIZON_S),
                c.best_hop(d, HORIZON_S),
                "node {i} → {dst}: best hop"
            );
            assert_eq!(
                f.route_age(d, HORIZON_S).map(f64::to_bits),
                c.route_age(d, HORIZON_S).map(f64::to_bits),
                "node {i} → {dst}: route age"
            );
        }

        // Identical link measurements.
        for dst in 0..N {
            let d = NodeId(dst as u16);
            assert_eq!(
                f.measured_latency_ms(d).map(f64::to_bits),
                c.measured_latency_ms(d).map(f64::to_bits),
                "node {i} → {dst}: measured latency"
            );
        }
    }

    // Waking only for due work must do the same work with strictly
    // fewer simulator events. Packet deliveries dominate at n=32 (full
    // mesh probing), so the saving shows up as a solid margin rather
    // than an order of magnitude — the 0.5 s polling ticks are what
    // disappears.
    let (fixed_events, coalesced_events) =
        (fixed.events_processed(), coalesced.sim().events_processed());
    assert!(
        coalesced_events * 10 < fixed_events * 9,
        "coalesced {coalesced_events} vs fixed {fixed_events}: \
         expected >10% fewer events"
    );
}

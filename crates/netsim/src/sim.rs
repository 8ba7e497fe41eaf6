//! The simulator core: event loop, network model and node harness.

use crate::queue::EventQueue;
use crate::stats::{Direction, TrafficClass, TrafficStats};
use apor_telemetry::{Counter, Histogram, Snapshot, Telemetry};
use apor_topology::{FailureSchedule, LatencyMatrix};
use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Safety valve: [`Simulator::run_until`] aborts after this many
/// events (a runaway behavior, not a normal condition).
pub const MAX_EVENTS: u64 = 200_000_000;

/// What a driver sets on the simulator.
#[derive(Debug, Clone)]
pub struct SimulatorConfig {
    /// Master seed; the run is a pure function of it (plus inputs).
    pub seed: u64,
    /// Per-packet delay jitter as a fraction of the one-way delay
    /// (uniform in `±jitter_frac`). Desynchronizes otherwise lock-stepped
    /// nodes, like real networks do.
    pub jitter_frac: f64,
    /// Width of the traffic-accounting buckets (60 s = figure 10's
    /// 1-minute windows).
    pub bucket_secs: f64,
    /// Bytes of per-packet framing added to every transmission in the
    /// bandwidth accounting. Defaults to 0 (the simulator is
    /// protocol-agnostic); drivers set it from their real wire constant
    /// — the overlay uses `apor_overlay::simnode::overlay_sim_config()`,
    /// which injects `apor_linkstate::wire::UDP_IP_OVERHEAD`.
    pub per_packet_overhead: usize,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            seed: 1,
            jitter_frac: 0.03,
            bucket_secs: 60.0,
            per_packet_overhead: 0,
        }
    }
}

impl SimulatorConfig {
    /// Same configuration, accounting `bytes` of framing per packet.
    #[must_use]
    pub fn with_per_packet_overhead(mut self, bytes: usize) -> Self {
        self.per_packet_overhead = bytes;
        self
    }
}

/// What a node may do during a callback. Commands are buffered and applied
/// by the simulator after the callback returns.
enum Command {
    Send {
        to: usize,
        class: TrafficClass,
        payload: Bytes,
    },
    Timer {
        delay_s: f64,
        token: u64,
    },
}

/// The callback context handed to node behaviors.
///
/// Mirrors a sans-io driver: a node can learn the time, send packets, arm
/// timers and draw randomness — nothing else. The identical behavior can
/// therefore be driven by a real socket and clock instead.
pub struct Ctx<'a> {
    now: f64,
    node: usize,
    n: usize,
    rng: &'a mut ChaCha8Rng,
    cmds: &'a mut Vec<Command>,
}

impl Ctx<'_> {
    /// Current simulation time, seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// This node's index.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Number of nodes in the simulation.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Send an encoded message to `to`. Self-sends are ignored (a real
    /// socket could loop back, but the overlay never needs it).
    pub fn send(&mut self, to: usize, class: TrafficClass, payload: Bytes) {
        if to == self.node {
            return;
        }
        self.cmds.push(Command::Send { to, class, payload });
    }

    /// Arm a one-shot timer that fires `delay_s` from now with `token`.
    /// There is no cancellation: handlers must ignore stale tokens.
    pub fn set_timer(&mut self, delay_s: f64, token: u64) {
        assert!(delay_s >= 0.0, "timer delay must be non-negative");
        self.cmds.push(Command::Timer { delay_s, token });
    }

    /// Deterministic per-run randomness (jitter, random failover picks).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }
}

/// A simulated node: a pure event-driven state machine.
pub trait NodeBehavior {
    /// Called once when the node starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);
    /// Called when a packet addressed to this node arrives.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: usize, payload: &[u8]);
    /// Called when a timer armed with `token` fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);
    /// Called when the node is shut down gracefully (via
    /// [`Simulator::shutdown_node`]): the last chance to flush farewell
    /// traffic — e.g. departure gossip — before the process "exits".
    /// Default: no farewell.
    fn on_shutdown(&mut self, _ctx: &mut Ctx<'_>) {}
    /// Downcast hook so experiment harnesses can inspect node state after
    /// a run (`sim.node(i).as_any().downcast_ref::<MyNode>()`).
    fn as_any(&self) -> &dyn std::any::Any;
}

enum Event {
    Start {
        node: usize,
    },
    Deliver {
        from: usize,
        to: usize,
        class: TrafficClass,
        payload: Bytes,
        sent_at: f64,
    },
    Timer {
        node: usize,
        token: u64,
    },
}

/// Why the simulated network dropped a packet. The distinction is the
/// point: a link-down drop indicts the failure schedule (partition or
/// outage), a receiver-down drop a crash while the packet was in
/// flight. Declaration order is the order of a node's drop counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The failure schedule had the link (or an endpoint) down —
    /// partitions and outages land here.
    LinkDown,
    /// The latency matrix marks the pair unreachable (no path exists).
    Unreachable,
    /// Bernoulli packet loss on an up link.
    Loss,
    /// The receiver was down at delivery time (crashed mid-flight).
    ReceiverDown,
}

impl DropCause {
    /// Stable lowercase label (the suffix of its `netsim/drop_*`
    /// counter).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DropCause::LinkDown => "link_down",
            DropCause::Unreachable => "unreachable",
            DropCause::Loss => "loss",
            DropCause::ReceiverDown => "receiver_down",
        }
    }
}

/// Pre-registered per-node network metrics: the packet fate counters
/// (one per [`DropCause`], so partition drops never collapse into the
/// same cell as crashes or loss) and the delivery latency histogram.
struct NetMetrics {
    telemetry: Telemetry,
    sent: Counter,
    delivered: Counter,
    queued: Counter,
    drops: [Counter; 4],
    deliver_latency_us: Histogram,
}

impl NetMetrics {
    fn new(node: u32) -> Self {
        let telemetry = Telemetry::new(node);
        NetMetrics {
            sent: telemetry.counter("netsim", "pkt_sent"),
            delivered: telemetry.counter("netsim", "pkt_delivered"),
            queued: telemetry.counter("netsim", "pkt_queued"),
            drops: [
                telemetry.counter("netsim", "drop_link_down"),
                telemetry.counter("netsim", "drop_unreachable"),
                telemetry.counter("netsim", "drop_loss"),
                telemetry.counter("netsim", "drop_receiver_down"),
            ],
            deliver_latency_us: telemetry.histogram("netsim", "deliver_latency_us"),
            telemetry,
        }
    }
}

/// Sentinel node id under which the simulator core's own metrics (the
/// event-queue depth histogram) are recorded. Picked from the top of the
/// id space so it can never collide with a real node index.
pub const CORE_TELEMETRY_NODE: u32 = u32::MAX - 1;

/// The discrete-event simulator.
pub struct Simulator {
    nodes: Vec<Box<dyn NodeBehavior>>,
    latency: LatencyMatrix,
    schedule: FailureSchedule,
    config: SimulatorConfig,
    queue: EventQueue<Event>,
    now: f64,
    rng: ChaCha8Rng,
    stats: TrafficStats,
    events_processed: u64,
    cmd_buf: Vec<Command>,
    net: Vec<NetMetrics>,
    /// The core's own metrics, keyed by [`CORE_TELEMETRY_NODE`].
    core: Telemetry,
    /// Queue depth observed on every event insertion: the working-set
    /// metric the idle-aware scheduler is meant to shrink.
    event_queue_depth: Histogram,
}

impl Simulator {
    /// Create a simulator over the given network. Nodes are added with
    /// [`add_node`](Self::add_node) and start at their given offsets.
    #[must_use]
    pub fn new(latency: LatencyMatrix, schedule: FailureSchedule, config: SimulatorConfig) -> Self {
        let n = latency.len();
        assert_eq!(
            schedule.len(),
            n,
            "failure schedule and latency matrix disagree on n"
        );
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let stats = TrafficStats::new(n, config.bucket_secs);
        let core = Telemetry::new(CORE_TELEMETRY_NODE);
        let event_queue_depth = core.histogram("netsim", "event_queue_depth");
        Simulator {
            nodes: Vec::with_capacity(n),
            latency,
            schedule,
            config,
            queue: EventQueue::new(),
            now: 0.0,
            rng,
            stats,
            events_processed: 0,
            cmd_buf: Vec::new(),
            net: (0..n).map(|i| NetMetrics::new(i as u32)).collect(),
            core,
            event_queue_depth,
        }
    }

    /// Insert an event and record the resulting queue depth, so the
    /// telemetry captures the simulator's working set over time.
    fn enqueue(&mut self, time: f64, event: Event) {
        self.queue.push(time, event);
        self.event_queue_depth.observe(self.queue.len() as u64);
    }

    /// Add the next node (index = insertion order), starting at
    /// `start_at_s`.
    ///
    /// # Panics
    /// Panics if more nodes are added than the latency matrix covers.
    pub fn add_node(&mut self, behavior: Box<dyn NodeBehavior>, start_at_s: f64) {
        let idx = self.nodes.len();
        assert!(idx < self.latency.len(), "more nodes than matrix rows");
        self.nodes.push(behavior);
        self.enqueue(start_at_s, Event::Start { node: idx });
    }

    /// Current simulation time, seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The traffic accounting so far.
    #[must_use]
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Node `i`'s network-layer telemetry handle (packet fate counters
    /// and the delivery-latency histogram).
    #[must_use]
    pub fn telemetry(&self, i: usize) -> &Telemetry {
        &self.net[i].telemetry
    }

    /// Every node's network metrics, plus the simulator core's own
    /// (under [`CORE_TELEMETRY_NODE`]), merged into one fleet snapshot.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for m in &self.net {
            snap.merge(&m.telemetry.snapshot());
        }
        snap.merge(&self.core.snapshot());
        snap
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Borrow a node's behavior (for post-run inspection).
    #[must_use]
    pub fn node(&self, i: usize) -> &dyn NodeBehavior {
        self.nodes[i].as_ref()
    }

    /// Gracefully shut node `i` down at the current simulation time:
    /// its [`NodeBehavior::on_shutdown`] runs immediately and any
    /// farewell packets it emits are transmitted through the normal
    /// network model (timers it arms are dropped — the node is gone).
    /// Call between [`Simulator::run_until`] segments. The behavior
    /// itself decides whether to ignore later deliveries; packets *to*
    /// the slot are not blocked by the simulator unless the failure
    /// schedule also marks the node down.
    pub fn shutdown_node(&mut self, i: usize) {
        debug_assert!(self.cmd_buf.is_empty());
        let mut ctx = Ctx {
            now: self.now,
            node: i,
            n: self.latency.len(),
            rng: &mut self.rng,
            cmds: &mut self.cmd_buf,
        };
        self.nodes[i].on_shutdown(&mut ctx);
        let cmds = std::mem::take(&mut self.cmd_buf);
        for cmd in cmds {
            match cmd {
                Command::Send { to, class, payload } => self.transmit(i, to, class, payload),
                Command::Timer { .. } => {} // a departing node has no future
            }
        }
    }

    /// The failure schedule driving this run.
    #[must_use]
    pub fn schedule(&self) -> &FailureSchedule {
        &self.schedule
    }

    /// The latency matrix driving this run.
    #[must_use]
    pub fn latency(&self) -> &LatencyMatrix {
        &self.latency
    }

    /// Run until the queue is empty or simulated time reaches `until_s`.
    ///
    /// # Panics
    /// Panics when the [`MAX_EVENTS`] safety valve trips (a runaway
    /// behavior, not a normal condition).
    pub fn run_until(&mut self, until_s: f64) {
        while let Some(t) = self.queue.peek_time() {
            if t > until_s {
                break;
            }
            let scheduled = self.queue.pop().expect("peeked event");
            self.now = scheduled.time.max(self.now);
            self.events_processed += 1;
            assert!(
                self.events_processed <= MAX_EVENTS,
                "event budget exceeded: runaway behavior?"
            );
            self.dispatch(scheduled.event);
        }
        self.now = self.now.max(until_s);
    }

    fn dispatch(&mut self, event: Event) {
        debug_assert!(self.cmd_buf.is_empty());
        let node_idx;
        match event {
            Event::Start { node } => {
                node_idx = node;
                let mut ctx = Ctx {
                    now: self.now,
                    node,
                    n: self.latency.len(),
                    rng: &mut self.rng,
                    cmds: &mut self.cmd_buf,
                };
                self.nodes[node].on_start(&mut ctx);
            }
            Event::Deliver {
                from,
                to,
                class,
                payload,
                sent_at,
            } => {
                node_idx = to;
                // A crashed receiver takes no delivery.
                if !self.schedule.is_node_up(to, self.now) {
                    self.drop_packet(from, to, DropCause::ReceiverDown);
                    return;
                }
                self.net[to].delivered.inc();
                self.net[to]
                    .deliver_latency_us
                    .observe(((self.now - sent_at).max(0.0) * 1e6) as u64);
                self.stats.record(
                    to,
                    class,
                    Direction::In,
                    payload.len() + self.config.per_packet_overhead,
                    self.now,
                );
                let mut ctx = Ctx {
                    now: self.now,
                    node: to,
                    n: self.latency.len(),
                    rng: &mut self.rng,
                    cmds: &mut self.cmd_buf,
                };
                self.nodes[to].on_packet(&mut ctx, from, &payload);
            }
            Event::Timer { node, token } => {
                node_idx = node;
                let mut ctx = Ctx {
                    now: self.now,
                    node,
                    n: self.latency.len(),
                    rng: &mut self.rng,
                    cmds: &mut self.cmd_buf,
                };
                self.nodes[node].on_timer(&mut ctx, token);
            }
        }
        self.apply_commands(node_idx);
    }

    fn apply_commands(&mut self, from: usize) {
        let cmds = std::mem::take(&mut self.cmd_buf);
        for cmd in cmds {
            match cmd {
                Command::Send { to, class, payload } => self.transmit(from, to, class, payload),
                Command::Timer { delay_s, token } => {
                    self.enqueue(self.now + delay_s, Event::Timer { node: from, token });
                }
            }
        }
    }

    /// Account a dropped packet to the node that owns the failure:
    /// send-side causes (down link, unreachable pair, Bernoulli loss)
    /// bill the sender, a crashed receiver bills the receiver. Each
    /// cause has its own counter, so a partition cut never collapses
    /// into the same cell as a crash.
    fn drop_packet(&mut self, from: usize, to: usize, cause: DropCause) {
        let owner = match cause {
            DropCause::LinkDown | DropCause::Unreachable | DropCause::Loss => from,
            DropCause::ReceiverDown => to,
        };
        self.net[owner].drops[cause as usize].inc();
    }

    /// The network model: account the transmission, then decide loss and
    /// delay.
    fn transmit(&mut self, from: usize, to: usize, class: TrafficClass, payload: Bytes) {
        let size = payload.len() + self.config.per_packet_overhead;
        // The sender pays for the transmission whether or not it arrives.
        self.stats
            .record(from, class, Direction::Out, size, self.now);
        self.net[from].sent.inc();

        // A down link (or endpoint) swallows the packet.
        if !self.schedule.is_link_up(from, to, self.now) {
            self.drop_packet(from, to, DropCause::LinkDown);
            return;
        }
        if !self.latency.reachable(from, to) {
            self.drop_packet(from, to, DropCause::Unreachable);
            return;
        }
        // Bernoulli loss.
        if self.latency.loss(from, to) > 0.0 && self.rng.gen::<f64>() < self.latency.loss(from, to)
        {
            self.drop_packet(from, to, DropCause::Loss);
            return;
        }
        let base = self.latency.one_way(from, to) / 1000.0; // ms → s
        let jitter = if self.config.jitter_frac > 0.0 {
            1.0 + self.config.jitter_frac * self.rng.gen_range(-1.0..1.0)
        } else {
            1.0
        };
        let arrival = self.now + (base * jitter).max(0.0);
        self.net[to].queued.inc();
        self.enqueue(
            arrival,
            Event::Deliver {
                from,
                to,
                class,
                payload,
                sent_at: self.now,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_topology::FailureParams;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Node 0 pings node 1 on start; node 1 echoes; node 0 records the RTT.
    struct Pinger {
        peer: usize,
        sent_at: f64,
        log: Rc<RefCell<Vec<f64>>>,
    }

    impl NodeBehavior for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.sent_at = ctx.now();
            ctx.send(
                self.peer,
                TrafficClass::Probing,
                Bytes::from_static(b"ping"),
            );
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: usize, payload: &[u8]) {
            if payload == b"pong" {
                self.log.borrow_mut().push(ctx.now() - self.sent_at);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    struct Echoer;
    impl NodeBehavior for Echoer {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: usize, payload: &[u8]) {
            if payload == b"ping" {
                ctx.send(from, TrafficClass::Probing, Bytes::from_static(b"pong"));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn no_jitter_config(seed: u64) -> SimulatorConfig {
        SimulatorConfig {
            seed,
            jitter_frac: 0.0,
            // The 28 bytes of IP+UDP framing an overlay driver would
            // configure; these tests assert overhead accounting.
            per_packet_overhead: 28,
            ..Default::default()
        }
    }

    fn two_node_sim(rtt_ms: f64, seed: u64) -> (Simulator, Rc<RefCell<Vec<f64>>>) {
        let m = LatencyMatrix::uniform(2, rtt_ms);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, FailureParams::none(2, 1e6), no_jitter_config(seed));
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log: Rc::clone(&log),
            }),
            0.0,
        );
        sim.add_node(Box::new(Echoer), 0.0);
        (sim, log)
    }

    #[test]
    fn ping_rtt_matches_matrix() {
        let (mut sim, log) = two_node_sim(80.0, 7);
        sim.run_until(10.0);
        let rtts = log.borrow();
        assert_eq!(rtts.len(), 1);
        // 80 ms RTT = 0.080 s round trip.
        assert!((rtts[0] - 0.080).abs() < 1e-9, "rtt {}", rtts[0]);
    }

    #[test]
    fn stats_account_both_directions_with_overhead() {
        let (mut sim, _log) = two_node_sim(10.0, 7);
        sim.run_until(10.0);
        let s = sim.stats();
        // ping out of 0: 4 bytes + 28; pong out of 1: same.
        assert_eq!(
            s.total_bytes(0, &[TrafficClass::Probing], &[Direction::Out], 0.0, 10.0),
            32
        );
        assert_eq!(
            s.total_bytes(0, &[TrafficClass::Probing], &[Direction::In], 0.0, 10.0),
            32
        );
        assert_eq!(
            s.total_bytes(1, &[TrafficClass::Probing], &[Direction::In], 0.0, 10.0),
            32
        );
    }

    #[test]
    fn total_loss_blocks_delivery() {
        let mut m = LatencyMatrix::uniform(2, 10.0);
        m.set_loss(0, 1, 1.0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, FailureParams::none(2, 1e6), no_jitter_config(3));
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log: Rc::clone(&log),
            }),
            0.0,
        );
        sim.add_node(Box::new(Echoer), 0.0);
        sim.run_until(10.0);
        assert!(log.borrow().is_empty());
        // Sender still paid for the transmission.
        assert_eq!(
            sim.stats()
                .total_bytes(0, &[TrafficClass::Probing], &[Direction::Out], 0.0, 10.0),
            32
        );
    }

    #[test]
    fn directed_loss_only_drops_one_direction() {
        // Kill only the 1 → 0 direction: the ping still reaches the
        // echoer, the echo never makes it back.
        let mut m = LatencyMatrix::uniform(2, 10.0);
        m.set_loss_directed(1, 0, 1.0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, FailureParams::none(2, 1e6), no_jitter_config(3));
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log: Rc::clone(&log),
            }),
            0.0,
        );
        sim.add_node(Box::new(Echoer), 0.0);
        sim.run_until(10.0);
        assert!(log.borrow().is_empty(), "echo direction is fully lossy");
        // The forward direction delivered: the echoer received the ping.
        assert_eq!(
            sim.stats()
                .total_bytes(1, &[TrafficClass::Probing], &[Direction::In], 0.0, 10.0),
            32
        );
        // And the loss was billed to node 1, the sender of the echo.
        assert_eq!(drop_counts(&sim, 1), [0, 0, 1, 0]);
        assert_eq!(drop_counts(&sim, 0), [0, 0, 0, 0]);
    }

    #[test]
    fn unreachable_pair_never_delivers() {
        let m = LatencyMatrix::unreachable(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, FailureParams::none(2, 1e6), no_jitter_config(3));
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log: Rc::clone(&log),
            }),
            0.0,
        );
        sim.add_node(Box::new(Echoer), 0.0);
        sim.run_until(10.0);
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn failure_schedule_blocks_link() {
        use apor_topology::failures::NodeOutage;
        let m = LatencyMatrix::uniform(2, 10.0);
        let mut params = FailureParams::with_n(2);
        params.median_concurrent = 1e-9;
        params.duration_s = 1e6;
        params.node_outages = vec![NodeOutage {
            node: 1,
            start_s: 0.0,
            end_s: 100.0,
        }];
        let schedule = apor_topology::FailureSchedule::generate(&params);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, schedule, no_jitter_config(3));
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log: Rc::clone(&log),
            }),
            0.0, // pings while node 1 is down
        );
        sim.add_node(Box::new(Echoer), 0.0);
        sim.run_until(200.0);
        assert!(log.borrow().is_empty(), "ping during outage must be lost");
    }

    /// Timers fire in order and re-arming works.
    struct Ticker {
        ticks: Rc<RefCell<Vec<f64>>>,
        period: f64,
        remaining: u32,
    }
    impl NodeBehavior for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, 1);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: usize, _payload: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            assert_eq!(token, 1);
            self.ticks.borrow_mut().push(ctx.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(self.period, 1);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn periodic_timers() {
        let m = LatencyMatrix::uniform(1, 1.0);
        let ticks = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, FailureParams::none(1, 1e6), no_jitter_config(1));
        sim.add_node(
            Box::new(Ticker {
                ticks: Rc::clone(&ticks),
                period: 5.0,
                remaining: 3,
            }),
            0.0,
        );
        sim.run_until(100.0);
        assert_eq!(*ticks.borrow(), vec![5.0, 10.0, 15.0, 20.0]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let m = LatencyMatrix::uniform(1, 1.0);
        let ticks = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, FailureParams::none(1, 1e6), no_jitter_config(1));
        sim.add_node(
            Box::new(Ticker {
                ticks: Rc::clone(&ticks),
                period: 10.0,
                remaining: u32::MAX,
            }),
            0.0,
        );
        sim.run_until(35.0);
        assert_eq!(ticks.borrow().len(), 3);
        assert_eq!(sim.now(), 35.0);
        sim.run_until(45.0);
        assert_eq!(ticks.borrow().len(), 4);
    }

    #[test]
    fn deterministic_event_counts() {
        let run = |seed| {
            let t = apor_topology::Topology::generate(&apor_topology::PlanetLabParams {
                n: 10,
                ..Default::default()
            });
            let mut sim = Simulator::new(
                t.latency,
                FailureParams::none(10, 1e6),
                SimulatorConfig {
                    seed,
                    ..Default::default()
                },
            );
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..10 {
                if i == 0 {
                    sim.add_node(
                        Box::new(Pinger {
                            peer: 5,
                            sent_at: 0.0,
                            log: Rc::clone(&log),
                        }),
                        0.0,
                    );
                } else {
                    sim.add_node(Box::new(Echoer), 0.0);
                }
            }
            sim.run_until(60.0);
            let rtts = log.borrow().clone();
            (sim.events_processed(), rtts)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn shutdown_hook_flushes_farewell_traffic() {
        struct Farewell {
            peer: usize,
        }
        impl NodeBehavior for Farewell {
            fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: usize, _payload: &[u8]) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
            fn on_shutdown(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(
                    self.peer,
                    TrafficClass::Membership,
                    Bytes::from_static(b"bye"),
                );
                ctx.set_timer(1.0, 9); // must be dropped, not fire
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        struct Recorder {
            got: Rc<RefCell<Vec<Vec<u8>>>>,
        }
        impl NodeBehavior for Recorder {
            fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: usize, payload: &[u8]) {
                self.got.borrow_mut().push(payload.to_vec());
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let m = LatencyMatrix::uniform(2, 10.0);
        let mut sim = Simulator::new(m, FailureParams::none(2, 1e6), no_jitter_config(4));
        sim.add_node(Box::new(Farewell { peer: 1 }), 0.0);
        sim.add_node(
            Box::new(Recorder {
                got: Rc::clone(&got),
            }),
            0.0,
        );
        sim.run_until(5.0);
        sim.shutdown_node(0);
        let before = sim.events_processed();
        sim.run_until(20.0);
        assert_eq!(*got.borrow(), vec![b"bye".to_vec()]);
        // Only the farewell delivery — the shutdown timer never fired.
        assert_eq!(sim.events_processed(), before + 1);
    }

    /// Every drop cause must land in its own counter — a partition cut
    /// and a crash are different diagnoses.
    fn drop_counts(sim: &Simulator, node: usize) -> [u64; 4] {
        let snap = sim.telemetry(node).snapshot();
        [
            "drop_link_down",
            "drop_unreachable",
            "drop_loss",
            "drop_receiver_down",
        ]
        .map(|name| snap.counter(node as u32, "netsim", name).unwrap_or(0))
    }

    #[test]
    fn loss_drop_is_counted_as_loss() {
        let mut m = LatencyMatrix::uniform(2, 10.0);
        m.set_loss(0, 1, 1.0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, FailureParams::none(2, 1e6), no_jitter_config(3));
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log,
            }),
            0.0,
        );
        sim.add_node(Box::new(Echoer), 0.0);
        sim.run_until(10.0);
        assert_eq!(drop_counts(&sim, 0), [0, 0, 1, 0], "loss bills sender");
        assert_eq!(drop_counts(&sim, 1), [0, 0, 0, 0]);
    }

    #[test]
    fn unreachable_drop_is_counted_as_unreachable() {
        let m = LatencyMatrix::unreachable(2);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, FailureParams::none(2, 1e6), no_jitter_config(3));
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log,
            }),
            0.0,
        );
        sim.add_node(Box::new(Echoer), 0.0);
        sim.run_until(10.0);
        assert_eq!(drop_counts(&sim, 0), [0, 1, 0, 0]);
    }

    #[test]
    fn drop_cause_labels_are_distinct() {
        let all = [
            DropCause::LinkDown,
            DropCause::Unreachable,
            DropCause::Loss,
            DropCause::ReceiverDown,
        ];
        let mut labels: Vec<&str> = all.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn partition_drop_is_counted_as_link_down() {
        use apor_topology::failures::NodeOutage;
        let m = LatencyMatrix::uniform(2, 10.0);
        let mut params = FailureParams::with_n(2);
        params.median_concurrent = 1e-9;
        params.duration_s = 1e6;
        params.node_outages = vec![NodeOutage {
            node: 1,
            start_s: 0.0,
            end_s: 100.0,
        }];
        let schedule = apor_topology::FailureSchedule::generate(&params);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, schedule, no_jitter_config(3));
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log,
            }),
            0.0,
        );
        sim.add_node(Box::new(Echoer), 0.0);
        sim.run_until(50.0);
        assert_eq!(drop_counts(&sim, 0), [1, 0, 0, 0]);
    }

    #[test]
    fn mid_flight_crash_is_counted_as_receiver_down() {
        use apor_topology::failures::NodeOutage;
        let m = LatencyMatrix::uniform(2, 100.0); // 50 ms one-way
        let mut params = FailureParams::with_n(2);
        params.median_concurrent = 1e-9;
        params.duration_s = 1e6;
        params.node_outages = vec![NodeOutage {
            node: 1,
            start_s: 5.0,
            end_s: 100.0,
        }];
        let schedule = apor_topology::FailureSchedule::generate(&params);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(m, schedule, no_jitter_config(3));
        // Sent at t=4.99 (link up), arrives t=5.04 (receiver down).
        sim.add_node(
            Box::new(Pinger {
                peer: 1,
                sent_at: 0.0,
                log: Rc::clone(&log),
            }),
            4.99,
        );
        sim.add_node(Box::new(Echoer), 0.0);
        sim.run_until(50.0);
        assert!(log.borrow().is_empty());
        assert_eq!(drop_counts(&sim, 0), [0, 0, 0, 0]);
        assert_eq!(drop_counts(&sim, 1), [0, 0, 0, 1]);
    }

    #[test]
    fn delivery_metrics_and_latency_histogram() {
        let (mut sim, _log) = two_node_sim(80.0, 7);
        sim.run_until(10.0);
        let fleet = sim.telemetry_snapshot();
        // Ping (0→1) and pong (1→0): one delivery each.
        assert_eq!(fleet.counter(0, "netsim", "pkt_delivered"), Some(1));
        assert_eq!(fleet.counter(1, "netsim", "pkt_delivered"), Some(1));
        assert_eq!(fleet.counter_total("netsim", "pkt_sent"), 2);
        let h = fleet.histogram(0, "netsim", "deliver_latency_us").unwrap();
        // 40 ms one-way = 40 000 µs.
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 40_000);
    }

    #[test]
    fn event_queue_depth_histogram_is_recorded() {
        let (mut sim, _log) = two_node_sim(80.0, 7);
        sim.run_until(10.0);
        let fleet = sim.telemetry_snapshot();
        let h = fleet
            .histogram(CORE_TELEMETRY_NODE, "netsim", "event_queue_depth")
            .expect("core records queue depth");
        // Two Start events + ping + pong = four insertions.
        assert_eq!(h.count, 4);
        assert!(h.max >= 1);
    }

    #[test]
    fn self_send_is_ignored() {
        struct SelfSender;
        impl NodeBehavior for SelfSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.node();
                ctx.send(me, TrafficClass::Probing, Bytes::from_static(b"x"));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: usize, _payload: &[u8]) {
                panic!("self-delivery must not happen");
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let m = LatencyMatrix::uniform(1, 1.0);
        let mut sim = Simulator::new(m, FailureParams::none(1, 1e6), no_jitter_config(1));
        sim.add_node(Box::new(SelfSender), 0.0);
        sim.run_until(10.0);
    }
}

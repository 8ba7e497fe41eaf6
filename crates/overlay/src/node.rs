//! The sans-io overlay node: membership client, prober and router glued
//! into one event-driven state machine.
//!
//! The node reacts to exactly three stimuli — `on_start`, `on_packet`,
//! `on_timer` — and responds by filling an [`Outbox`] with packets to send
//! and timers to arm. It never touches sockets or clocks, so the netsim
//! driver ([`World`](crate::simnode::World)) and the real-clock UDP
//! driver ([`udp`](crate::udp)) run the identical protocol logic; this is
//! how the paper can claim its emulation and deployment share one
//! implementation.
//!
//! ## Timers
//!
//! Periodic work has one timer discipline. The prober and the SWIM
//! machine each report when they next have work (`next_wake`), and the
//! node keeps at most one useful timer outstanding per plane: it arms a
//! [`TOKEN_PROBE`] / [`TOKEN_SWIM`] timer only when that wake is
//! strictly earlier than the one already armed, so an idle node arms
//! nothing. Drivers cannot cancel timers, so superseded ones still fire;
//! polling then finds nothing due and re-arms through the same rule.
//!
//! A fired timer clears the armed wake when it arrives *at or after* the
//! armed instant. The simulator delivers a timer exactly on time, but a
//! real clock always delivers it a little late, and a timer cannot fire
//! before the instant it was armed for — so any firing at or after that
//! instant is the armed timer (or one armed for it earlier), and it has
//! consumed the wake. A superseded timer fires *before* the armed
//! instant and leaves it alone. Clearing only on an exact match would
//! leave a real-clock node with a stale armed wake that deduplicates
//! every later arm: one probe round, then silence.
//!
//! ## View install
//!
//! A SWIM fleet under churn installs views by the thousand, so an
//! install costs what changed, not what the view holds. The prober and
//! the router are not dropped and built again: each is *reinstalled*
//! ([`Prober::reinstall`], [`QuorumRouter::reinstall`]), which keeps
//! its settings, the registry cells it reports into, its tracer and the
//! storage of every vector sized by the view (emptied and resized in
//! place), and starts everything else over. What a reinstalled router
//! or prober has in common with one built from nothing for the same
//! view is everything: both come out of one assembly routine, and the
//! routing crate's tests compare them field for field.
//!
//! The node's part of an install is one table and two calls. The table
//! says where each member of the old view sits in the new one
//! (`Vec<Option<u16>>`, `None` = departed); it is built here, once, and
//! nothing else builds one. Through it cross, each moved rather than
//! copied:
//!
//! * **link measurements** — a probe target that is a target again
//!   keeps its slot and its measurement under its new index, with a
//!   fresh schedule and probe rate;
//!   only the old targets (`~2√n + 16` under entitled probing) are
//!   walked, never the member list;
//! * **rows** — the router drains its own store and puts back, renamed
//!   through the table, the rows that are fresh, whose origin is still
//!   a member and that the new grid entitles it to — receipt times and
//!   retraction lanes intact, the seqnos dropped (every origin numbers
//!   its rows from 0 again), and no work spent on a row it will not
//!   keep;
//! * **retractions** — routes through a departed destination or hop
//!   are withdrawn first, so they are counted.
//!
//! Everything else — routes, failovers, feasibility distances, the own
//! seqno, adopted gauges — starts empty, as it always did. The first
//! install of a node's life builds both from nothing; the full-mesh
//! baseline is built anew each time and keeps nothing (every full-mesh
//! run installs one static view).
//!
//! ## Index vs identity
//!
//! Routers and probers operate in *grid-index space* (positions in the
//! current sorted membership view). The wire carries *identities*
//! ([`NodeId`]). This module owns the translation at the boundary, in
//! both directions, including the `dst`/`hop` fields inside
//! recommendation messages.
//!
//! An incoming routing frame is never decoded into a message. It is
//! checked where it lies ([`LinkStateFrame`], [`RecFrame`]), its sender
//! is translated, and the router reads the frame itself — a
//! recommendation's entries translated one by one as the router walks
//! them — so a frame allocates only what the router keeps: nothing for
//! the full-mesh baseline, which writes the row into its matrix, and
//! the held row for the quorum router.

use crate::config::{Algorithm, MembershipMode, NodeConfig};
use crate::membership::{Coordinator, MembershipView};
use apor_linkstate::{
    readdress_linkstate, LinkStateFrame, LinkStateMsg, Message, ProbeBatchMsg, ProbeItem, ProbeMsg,
    ProbeReplyMsg, RecEntry, RecFrame, WireError,
};
use apor_membership::{wire as swim_wire, Swim, SwimConfig, SwimMsg};
use apor_netsim::TrafficClass;
use apor_quorum::NodeId;
use apor_routing::{
    FullMeshRouter, ProbeAction, Prober, QuorumRouter, RouteDecision, RoutingAlgorithm,
};
use apor_telemetry::{Histogram, SpanKind, Telemetry, TraceCtx, Tracer};

/// The concrete router running inside a node.
// The size gap between the two routers is fine: exactly one RouterBox
// exists per node, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum RouterBox {
    /// RON's full-mesh baseline.
    FullMesh(FullMeshRouter),
    /// The paper's grid-quorum router.
    Quorum(QuorumRouter),
}

impl RouterBox {
    fn as_dyn(&self) -> &dyn RoutingAlgorithm {
        match self {
            RouterBox::FullMesh(r) => r,
            RouterBox::Quorum(r) => r,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn RoutingAlgorithm {
        match self {
            RouterBox::FullMesh(r) => r,
            RouterBox::Quorum(r) => r,
        }
    }
}
use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Timer token: prober poll loop.
pub const TOKEN_PROBE: u64 = 1;
/// Timer token: routing interval tick.
pub const TOKEN_ROUTING: u64 = 2;
/// Timer token: join retry / keepalive.
pub const TOKEN_JOIN: u64 = 3;
/// Timer token: coordinator membership-expiry sweep.
pub const TOKEN_EXPIRE: u64 = 4;
/// Timer token: SWIM gossip tick ([`MembershipMode::Swim`]).
pub const TOKEN_SWIM: u64 = 5;

/// Coordinator expiry sweep period, seconds.
const EXPIRE_SWEEP_S: f64 = 60.0;
/// Slack when comparing armed wake times: two wakes closer than this
/// are the same instant (drivers only promise f64 time arithmetic).
const TIMER_EPS: f64 = 1e-9;

/// Commands produced by one callback.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Packets to transmit: `(destination, class, encoded bytes)`.
    pub sends: Vec<(NodeId, TrafficClass, Bytes)>,
    /// Timers to arm: `(delay seconds, token)`.
    pub timers: Vec<(f64, u64)>,
}

impl Outbox {
    fn send(&mut self, to: NodeId, msg: &Message) {
        self.sends.push((to, class_of(msg), msg.encode()));
    }

    fn timer(&mut self, delay_s: f64, token: u64) {
        self.timers.push((delay_s, token));
    }
}

/// Traffic class of a message, matching the paper's bandwidth breakdown.
#[must_use]
pub fn class_of(msg: &Message) -> TrafficClass {
    match msg {
        Message::Probe(_) | Message::ProbeReply(_) | Message::ProbeBatch(_) => {
            TrafficClass::Probing
        }
        Message::LinkState(_) | Message::LinkStateSparse(_) | Message::Recommendations(_) => {
            TrafficClass::Routing
        }
        Message::Join { .. } | Message::Leave { .. } | Message::View(_) => TrafficClass::Membership,
    }
}

/// The overlay node state machine.
pub struct OverlayNode {
    cfg: NodeConfig,
    telemetry: Telemetry,
    rng: ChaCha8Rng,
    view: Option<MembershipView>,
    my_index: Option<usize>,
    prober: Option<Prober>,
    router: Option<RouterBox>,
    coordinator: Option<Coordinator>,
    swim: Option<Swim>,
    routing_tick_armed: bool,
    shut_down: bool,
    /// Earliest outstanding [`TOKEN_PROBE`] timer; `∞` = none armed.
    /// Timers cannot be cancelled, so stale ones fire, process
    /// harmlessly (polling only emits *due* work) and re-arm through
    /// the same dedupe.
    armed_probe_wake: f64,
    /// Earliest outstanding [`TOKEN_SWIM`] timer.
    armed_swim_wake: f64,
    /// Sizes of outgoing anti-entropy sync frames, bytes.
    sync_frame_bytes: Histogram,
    /// Causal-trace flight recorder. Disabled (zero-capacity) unless
    /// [`NodeConfig::trace_capacity`] is set; every instrumentation
    /// site below guards on [`Tracer::enabled`] — one field read.
    tracer: Tracer,
}

impl OverlayNode {
    /// Build a node from its configuration.
    #[must_use]
    pub fn new(cfg: NodeConfig) -> Self {
        cfg.protocol.validate();
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let telemetry = Telemetry::new(u32::from(cfg.id.0));
        let sync_frame_bytes = telemetry.histogram("membership", "sync_frame_bytes");
        let tracer = if cfg.trace_capacity > 0 {
            Tracer::new(u32::from(cfg.id.0), cfg.trace_capacity)
        } else {
            Tracer::disabled()
        };
        OverlayNode {
            cfg,
            telemetry,
            rng,
            view: None,
            my_index: None,
            prober: None,
            router: None,
            coordinator: None,
            swim: None,
            routing_tick_armed: false,
            shut_down: false,
            armed_probe_wake: f64::INFINITY,
            armed_swim_wake: f64::INFINITY,
            sync_frame_bytes,
            tracer,
        }
    }

    /// This node's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.cfg.id
    }

    /// The installed membership view.
    #[must_use]
    pub fn view(&self) -> Option<&MembershipView> {
        self.view.as_ref()
    }

    /// This node's grid index in the current view.
    #[must_use]
    pub fn my_index(&self) -> Option<usize> {
        self.my_index
    }

    /// Is the node a functioning overlay member (view installed, prober
    /// and router running)?
    #[must_use]
    pub fn is_member(&self) -> bool {
        self.my_index.is_some() && self.router.is_some()
    }

    /// The node's configuration.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// This node's telemetry registry. Every subsystem the node runs
    /// (SWIM membership, the quorum router, its row store) reports into
    /// this handle; experiments snapshot it per node and
    /// [`merge`](apor_telemetry::Snapshot::merge) across the fleet.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// This node's causal-trace flight recorder. Disabled unless the
    /// node was configured with [`NodeConfig::with_tracing`];
    /// experiments drain it with [`Tracer::recent`] after a
    /// convergence episode and assemble the fleet-wide causal tree.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    /// Node start-up.
    pub fn on_start(&mut self, now: f64, out: &mut Outbox) {
        match self.cfg.membership {
            MembershipMode::Centralized => self.start_centralized(now, out),
            MembershipMode::Swim => self.start_swim(now, out),
        }
        // install_view (when a view is already known) armed the prober
        // wake; a node without a view has nothing to probe and arms it
        // on its first view install instead.
        self.arm_probe(now, out);
    }

    /// The paper's join dance against the coordinator.
    fn start_centralized(&mut self, now: f64, out: &mut Outbox) {
        if self.cfg.is_coordinator() {
            self.coordinator = Some(Coordinator::new(
                self.cfg.id,
                now,
                self.cfg.member_timeout_s,
            ));
            out.timer(EXPIRE_SWEEP_S, TOKEN_EXPIRE);
        }
        if let Some(members) = self.cfg.static_members.clone() {
            let view = MembershipView::new(1, members);
            self.install_view(view, now, out);
        } else if self.cfg.is_coordinator() {
            let view = self.coordinator.as_ref().expect("just built").view();
            self.install_view(view, now, out);
            out.timer(self.cfg.keepalive_s, TOKEN_JOIN);
        } else {
            out.send(
                self.cfg.coordinator,
                &Message::Join {
                    from: self.cfg.id,
                    to: self.cfg.coordinator,
                },
            );
            out.timer(self.cfg.join_retry_s, TOKEN_JOIN);
        }
    }

    /// Coordinator-free start: bring up the SWIM gossip plane. With
    /// static members every node bootstraps the identical initial view;
    /// otherwise the `coordinator` field names the introducer this node
    /// pings first, and the join disseminates by gossip.
    fn start_swim(&mut self, now: f64, out: &mut Outbox) {
        let swim_cfg = SwimConfig {
            anti_entropy: self.cfg.anti_entropy.clone(),
            seed: self.cfg.seed ^ SwimConfig::default().seed,
        };
        let mut swim = if let Some(members) = self.cfg.static_members.clone() {
            Swim::bootstrap(self.cfg.id, swim_cfg, &members)
        } else if self.cfg.id == self.cfg.coordinator {
            Swim::bootstrap(self.cfg.id, swim_cfg, &[self.cfg.id])
        } else {
            Swim::new(self.cfg.id, swim_cfg, &[self.cfg.coordinator])
        }
        .with_telemetry(self.telemetry.clone())
        .with_tracer(self.tracer.clone());
        if let Some(view) = swim.poll_view(now) {
            self.install_view(view, now, out);
        }
        self.swim = Some(swim);
        self.arm_swim(now, out);
    }

    /// Graceful shutdown: announce the departure on whichever
    /// membership plane the node runs, so the rest of the overlay
    /// reconfigures immediately instead of waiting for failure
    /// detection. Drivers call this exactly once, flush `out`, and then
    /// stop delivering events; any events that still arrive are
    /// ignored. Idempotent.
    pub fn on_shutdown(&mut self, now: f64, out: &mut Outbox) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        match self.cfg.membership {
            MembershipMode::Swim => {
                let mut msgs = Vec::new();
                if let Some(swim) = self.swim.as_mut() {
                    swim.leave(&mut msgs);
                }
                for msg in msgs {
                    self.send_swim(now, &msg, out);
                }
            }
            MembershipMode::Centralized => {
                if !self.cfg.is_coordinator() {
                    out.send(
                        self.cfg.coordinator,
                        &Message::Leave {
                            from: self.cfg.id,
                            to: self.cfg.coordinator,
                        },
                    );
                }
            }
        }
    }

    /// Has [`OverlayNode::on_shutdown`] run?
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        self.shut_down
    }

    /// A timer armed with `token` fired.
    pub fn on_timer(&mut self, now: f64, token: u64, out: &mut Outbox) {
        if self.shut_down {
            return;
        }
        match token {
            TOKEN_PROBE => {
                if now + TIMER_EPS >= self.armed_probe_wake {
                    self.armed_probe_wake = f64::INFINITY;
                }
                self.run_prober(now, out);
                self.arm_probe(now, out);
            }
            TOKEN_ROUTING => {
                out.timer(self.cfg.protocol.routing_interval_s, TOKEN_ROUTING);
                self.run_routing_tick(now, out);
            }
            TOKEN_JOIN => {
                if self.cfg.is_coordinator() {
                    if let Some(c) = &mut self.coordinator {
                        c.heartbeat_self(self.cfg.id, now);
                    }
                    out.timer(self.cfg.keepalive_s, TOKEN_JOIN);
                } else if self.cfg.static_members.is_none() {
                    // Retry fast until in a view, then keepalive slowly.
                    out.send(
                        self.cfg.coordinator,
                        &Message::Join {
                            from: self.cfg.id,
                            to: self.cfg.coordinator,
                        },
                    );
                    let delay = if self.is_member() {
                        self.cfg.keepalive_s
                    } else {
                        self.cfg.join_retry_s
                    };
                    out.timer(delay, TOKEN_JOIN);
                }
            }
            TOKEN_EXPIRE => {
                out.timer(EXPIRE_SWEEP_S, TOKEN_EXPIRE);
                if let Some(c) = &mut self.coordinator {
                    c.heartbeat_self(self.cfg.id, now);
                    if c.expire(now) {
                        let view = c.view();
                        self.broadcast_view(&view, out);
                        self.install_view(view, now, out);
                    }
                }
            }
            TOKEN_SWIM if self.swim.is_some() => {
                if now + TIMER_EPS >= self.armed_swim_wake {
                    self.armed_swim_wake = f64::INFINITY;
                }
                self.run_swim_tick(now, out);
                self.arm_swim(now, out);
            }
            _ => {}
        }
    }

    /// A packet arrived.
    pub fn on_packet(&mut self, now: f64, payload: &[u8], out: &mut Outbox) {
        if self.shut_down {
            return;
        }
        // The SWIM plane owns its tag space; dispatch on the first byte.
        if payload.first().copied().is_some_and(swim_wire::is_swim_tag) {
            self.on_swim_packet(now, payload, out);
            return;
        }
        // Routing frames are read where they lie; every other frame is
        // decoded into a message. Malformed datagrams are dropped
        // silently.
        match LinkStateFrame::parse(payload) {
            Ok(frame) => return self.on_linkstate_frame(now, &frame),
            Err(WireError::BadType(_)) => {}
            Err(_) => return,
        }
        match RecFrame::parse(payload) {
            Ok(frame) => return self.on_rec_frame(now, &frame),
            Err(WireError::BadType(_)) => {}
            Err(_) => return,
        }
        let Ok((msg, probe_ctx)) = Message::decode_traced(payload) else {
            return;
        };
        if let Some(ctx) = probe_ctx {
            // A traced probe batch: the sender is reprobing as part of
            // a convergence episode. Arm our prober so the answering
            // activity is attributed to the same episode.
            if let Some(prober) = self.prober.as_mut() {
                prober.note_episode(ctx);
            }
        }
        match msg {
            Message::Probe(p) => {
                // Liveness works at identity level, independent of views.
                out.send(
                    p.from,
                    &Message::ProbeReply(ProbeReplyMsg {
                        from: self.cfg.id,
                        to: p.from,
                        view: p.view,
                        seq: p.seq,
                        echo_sent_ms: p.sent_ms,
                    }),
                );
            }
            Message::ProbeReply(r) => {
                if let (Some(view), Some(prober)) = (&self.view, &mut self.prober) {
                    if let Some(idx) = view.index_of(r.from) {
                        prober.on_reply(idx, r.seq, now);
                    }
                }
            }
            Message::ProbeBatch(b) => {
                // Pings are answered at identity level (like Probe);
                // pongs and gauges feed the prober in index space.
                let mut reply_items = Vec::new();
                let peer = self.view.as_ref().and_then(|view| view.index_of(b.from));
                for item in b.items {
                    match item {
                        ProbeItem::Ping { seq, sent_ms } => {
                            reply_items.push(ProbeItem::Pong {
                                seq,
                                echo_sent_ms: sent_ms,
                            });
                        }
                        ProbeItem::Pong { seq, .. } => {
                            if let (Some(idx), Some(prober)) = (peer, self.prober.as_mut()) {
                                prober.on_reply(idx, seq, now);
                            }
                        }
                        ProbeItem::Gauge { rtt_ms, loss_pm } => {
                            if let (Some(idx), Some(prober)) = (peer, self.prober.as_mut()) {
                                prober.adopt_gauge(idx, rtt_ms, loss_pm, now);
                            }
                        }
                    }
                }
                if !reply_items.is_empty() {
                    out.send(
                        b.from,
                        &Message::ProbeBatch(ProbeBatchMsg {
                            from: self.cfg.id,
                            to: b.from,
                            view: b.view,
                            items: reply_items,
                        }),
                    );
                }
            }
            // Read above, where they lie.
            Message::LinkState(_) | Message::LinkStateSparse(_) | Message::Recommendations(_) => {}
            Message::Join { from, .. } => {
                if let Some(c) = &mut self.coordinator {
                    let changed = c.on_join(from, now);
                    let view = c.view();
                    if changed {
                        self.broadcast_view(&view, out);
                        self.install_view(view, now, out);
                    } else {
                        // Keepalive: refresh the sender's copy of the view.
                        out.send(
                            from,
                            &Message::View(apor_linkstate::wire::ViewMsg {
                                from: self.cfg.id,
                                to: from,
                                view: view.version,
                                members: view.members,
                            }),
                        );
                    }
                }
            }
            Message::Leave { from, .. } => {
                if let Some(c) = &mut self.coordinator {
                    if c.on_leave(from) {
                        let view = c.view();
                        self.broadcast_view(&view, out);
                        self.install_view(view, now, out);
                    }
                }
            }
            Message::View(v) => {
                // Only the coordinator announces views, and only to the
                // centralized plane's other nodes. Anyone else's view
                // would replace the installed one and, being newer,
                // shut out every honest view after it; it is counted
                // (registered on the first refusal) and dropped.
                if self.cfg.membership == MembershipMode::Centralized
                    && v.from == self.cfg.coordinator
                    && !self.cfg.is_coordinator()
                {
                    self.install_view(MembershipView::new(v.view, v.members), now, out);
                } else {
                    self.telemetry.counter("membership", "views_rejected").inc();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Metrics / inspection (used by experiments)
    // ------------------------------------------------------------------

    /// Best first hop towards `dst` (`Some(dst)` ⇒ direct link).
    #[must_use]
    pub fn best_hop(&self, dst: NodeId, now: f64) -> Option<NodeId> {
        let view = self.view.as_ref()?;
        let router = self.router.as_ref()?;
        let idx = view.index_of(dst)?;
        let hop = router.as_dyn().best_hop(idx, now)?;
        view.id_of(hop)
    }

    /// The full relay path towards `dst` when the current route is a
    /// source-routed spliced detour (identity space, `[me, …, dst]`).
    ///
    /// `None` whenever forwarding is single-hop — a recommendation,
    /// the direct link, or a 1-hop scavenge, where each relay
    /// re-decides from its own tables — or when there is no route at
    /// all. Spliced detours are the exception: the source commits to
    /// the chain it derived from its own rows, so the carried path is
    /// what the packet follows.
    #[must_use]
    pub fn detour_path(&self, dst: NodeId, now: f64) -> Option<Vec<NodeId>> {
        let view = self.view.as_ref()?;
        let idx = view.index_of(dst)?;
        match self.quorum_router()?.route_decision(idx, now)? {
            RouteDecision::Spliced(d) => d
                .path
                .iter()
                .map(|&i| view.id_of(i))
                .collect::<Option<Vec<_>>>(),
            RouteDecision::Hop(_) => None,
        }
    }

    /// Seconds since the last routing information about `dst` arrived.
    #[must_use]
    pub fn route_age(&self, dst: NodeId, now: f64) -> Option<f64> {
        let view = self.view.as_ref()?;
        let router = self.router.as_ref()?;
        router.as_dyn().route_age(view.index_of(dst)?, now)
    }

    /// Destinations currently under a double rendezvous failure
    /// (figure 11's metric; 0 for the full-mesh baseline).
    #[must_use]
    pub fn double_rendezvous_failures(&self, now: f64) -> usize {
        self.router
            .as_ref()
            .map_or(0, |r| r.as_dyn().double_rendezvous_failures(now))
    }

    /// Concurrent direct-link failures as seen by this node's prober
    /// (figure 8's metric).
    #[must_use]
    pub fn concurrent_link_failures(&self) -> usize {
        self.prober.as_ref().map_or(0, Prober::concurrent_failures)
    }

    /// Measured (EWMA) RTT to `dst`, ms.
    #[must_use]
    pub fn measured_latency_ms(&self, dst: NodeId) -> Option<f64> {
        let view = self.view.as_ref()?;
        self.prober.as_ref()?.latency_ms(view.index_of(dst)?)
    }

    /// Borrow the quorum router, when running the quorum algorithm.
    #[must_use]
    pub fn quorum_router(&self) -> Option<&QuorumRouter> {
        match self.router.as_ref()? {
            RouterBox::Quorum(r) => Some(r),
            RouterBox::FullMesh(_) => None,
        }
    }

    /// Borrow the SWIM machine, when running [`MembershipMode::Swim`]
    /// (experiment inspection: suspicion state, ledger, incarnations).
    #[must_use]
    pub fn swim(&self) -> Option<&Swim> {
        self.swim.as_ref()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Coalesced probe wake: one outstanding timer at the prober's
    /// `next_wake`, re-armed only when a strictly earlier wake appears.
    /// No prober (not yet a member) ⇒ no timer — the idle-node
    /// contract the netsim event loop relies on.
    fn arm_probe(&mut self, now: f64, out: &mut Outbox) {
        let Some(prober) = &self.prober else { return };
        let wake = prober.next_wake(now);
        if wake.is_finite() && wake + TIMER_EPS < self.armed_probe_wake {
            out.timer((wake - now).max(0.0), TOKEN_PROBE);
            self.armed_probe_wake = wake;
        }
    }

    /// Coalesced SWIM wake — same discipline as [`Self::arm_probe`].
    fn arm_swim(&mut self, now: f64, out: &mut Outbox) {
        let Some(swim) = &self.swim else { return };
        let wake = swim.next_wake(now);
        if wake.is_finite() && wake + TIMER_EPS < self.armed_swim_wake {
            out.timer((wake - now).max(0.0), TOKEN_SWIM);
            self.armed_swim_wake = wake;
        }
    }

    /// Queue one SWIM frame, feeding the sync-frame size histogram for
    /// anti-entropy traffic. While a convergence episode is hot the
    /// frame carries the trace context (hop count bumped), so receivers
    /// can reconstruct the gossip wavefront per hop.
    fn send_swim(&self, now: f64, msg: &SwimMsg, out: &mut Outbox) {
        let ctx = self
            .swim
            .as_ref()
            .and_then(|s| s.gossip_trace(now))
            .map(TraceCtx::next_hop);
        let bytes = msg.encode_traced(ctx.as_ref());
        if msg.kind.is_sync() {
            self.sync_frame_bytes.observe(bytes.len() as u64);
        }
        out.sends.push((msg.to, TrafficClass::Membership, bytes));
    }

    fn install_view(&mut self, view: MembershipView, now: f64, out: &mut Outbox) {
        if let Some(current) = &self.view {
            if view.version <= current.version {
                return;
            }
        }
        let my_index = view.index_of(self.cfg.id);
        let old = self.view.take();
        let old_prober = self.prober.take();
        let old_router = self.router.take();
        self.my_index = my_index;
        // The convergence episode this install belongs to, if one is
        // hot: parents the ViewInstall/Remap spans and primes the
        // prober and router so their recovery work is attributed too.
        let episode_ctx = if self.tracer.enabled() {
            self.swim.as_ref().and_then(|s| s.gossip_trace(now))
        } else {
            None
        };

        if let Some(me) = my_index {
            let n = view.len();
            // Where each member of the old view sits in the new one:
            // the one translation the prober and the router both carry
            // their state through. Indices fit the wire's 16 bits.
            #[allow(clippy::cast_possible_truncation)]
            let old_to_new: Vec<Option<u16>> = old.as_ref().map_or_else(Vec::new, |old_view| {
                let moved = |&id| view.index_of(id).map(|i| i as u16);
                old_view.members.iter().map(moved).collect()
            });
            let mut prober = match old_prober {
                Some(old_prober) => old_prober.reinstall(me, n, now, &old_to_new),
                None => Prober::new(me, n, self.cfg.protocol.clone(), now)
                    .with_telemetry(&self.telemetry)
                    .with_tracer(self.tracer.clone()),
            };
            if let Some(ctx) = episode_ctx {
                prober.note_episode(ctx);
            }
            self.prober = Some(prober);
            self.router = Some(match (old_router, self.cfg.algorithm) {
                (Some(RouterBox::Quorum(mut q)), Algorithm::Quorum) => {
                    if let Some(ctx) = episode_ctx {
                        q.note_episode(ctx);
                    }
                    let (q, carried_rows) = q.reinstall(me, n, view.version, &old_to_new, now);
                    if let Some(ctx) = episode_ctx {
                        #[allow(clippy::cast_possible_truncation)]
                        self.tracer.instant(
                            SpanKind::Remap,
                            ctx.episode,
                            0,
                            carried_rows as u32,
                            now,
                        );
                    }
                    RouterBox::Quorum(q)
                }
                (_, Algorithm::Quorum) => RouterBox::Quorum(
                    QuorumRouter::new_with_telemetry(
                        me,
                        n,
                        view.version,
                        self.cfg.protocol.clone(),
                        &self.telemetry,
                    )
                    .with_tracer(self.tracer.clone()),
                ),
                (_, Algorithm::FullMesh) => RouterBox::FullMesh(FullMeshRouter::new(
                    me,
                    n,
                    view.version,
                    self.cfg.protocol.clone(),
                )),
            });
            if !self.routing_tick_armed {
                // Desynchronize routing ticks across the fleet.
                let phase = self
                    .rng
                    .gen_range(0.0..self.cfg.protocol.routing_interval_s);
                out.timer(phase, TOKEN_ROUTING);
                self.routing_tick_armed = true;
            }
            // The restarted prober's schedule replaces the old one's.
            self.armed_probe_wake = f64::INFINITY;
            self.arm_probe(now, out);
        }
        if let Some(ctx) = episode_ctx {
            // Parent the install on the Confirm span when this node is
            // the one that confirmed the failure; elsewhere it hangs
            // off the episode root.
            let parent = self
                .swim
                .as_ref()
                .and_then(|s| s.last_confirm())
                .filter(|&(ep, _)| ep == ctx.episode)
                .map_or(0, |(_, span)| span);
            self.tracer.instant(
                SpanKind::ViewInstall,
                ctx.episode,
                parent,
                view.version,
                now,
            );
        }
        self.view = Some(view);
    }

    fn broadcast_view(&self, view: &MembershipView, out: &mut Outbox) {
        for &m in &view.members {
            if m == self.cfg.id {
                continue;
            }
            out.send(
                m,
                &Message::View(apor_linkstate::wire::ViewMsg {
                    from: self.cfg.id,
                    to: m,
                    view: view.version,
                    members: view.members.clone(),
                }),
            );
        }
    }

    /// One SWIM timer tick: drive the protocol, transmit its messages,
    /// and install a freshly published view when the batching cadence
    /// yields one.
    fn run_swim_tick(&mut self, now: f64, out: &mut Outbox) {
        let (msgs, published) = {
            let Some(swim) = self.swim.as_mut() else {
                return;
            };
            let mut msgs = Vec::new();
            swim.on_tick(now, &mut msgs);
            (msgs, swim.poll_view(now))
        };
        for msg in msgs {
            self.send_swim(now, &msg, out);
        }
        if let Some(view) = published {
            self.install_view(view, now, out);
        }
    }

    /// A datagram from the SWIM tag space arrived.
    fn on_swim_packet(&mut self, now: f64, payload: &[u8], out: &mut Outbox) {
        let Ok((msg, ctx)) = SwimMsg::decode_traced(payload) else {
            return; // malformed datagrams are dropped silently
        };
        let Some(swim) = self.swim.as_mut() else {
            return; // not running the gossip plane
        };
        if let Some(ctx) = ctx {
            // One span per receiving node per gossip hop: the episode's
            // wavefront through the fleet, aux = hop distance from the
            // first suspecting node.
            self.tracer
                .instant(SpanKind::GossipHop, ctx.episode, 0, u32::from(ctx.hop), now);
            swim.note_remote_trace(now, ctx);
        }
        let mut replies = Vec::new();
        swim.on_message(now, &msg, &mut replies);
        for reply in replies {
            self.send_swim(now, &reply, out);
        }
        // A message can start suspicions, relays or a pending publish
        // whose deadlines undercut the currently armed wake.
        self.arm_swim(now, out);
    }

    fn run_prober(&mut self, now: f64, out: &mut Outbox) {
        let (Some(view), Some(prober)) = (&self.view, &mut self.prober) else {
            return;
        };
        let Some(_me) = self.my_index else { return };
        let version = view.version;
        // `poll_traced` hands back the armed episode context exactly
        // once, on the first poll that emits work after a view change;
        // the batches it produced carry the context (hop bumped) so the
        // probed peers attribute the reprobe wave to the episode.
        let (actions, episode) = prober.poll_traced(now);
        let batch_ctx = episode.map(TraceCtx::next_hop);
        for action in actions {
            match action {
                ProbeAction::SendProbe { to, seq } => {
                    let Some(to_id) = view.id_of(to) else {
                        continue;
                    };
                    out.send(
                        to_id,
                        &Message::Probe(ProbeMsg {
                            from: self.cfg.id,
                            to: to_id,
                            view: version,
                            seq,
                            sent_ms: (now * 1000.0) as u32,
                        }),
                    );
                }
                ProbeAction::SendBatch { to, items } => {
                    let Some(to_id) = view.id_of(to) else {
                        continue;
                    };
                    let msg = Message::ProbeBatch(ProbeBatchMsg {
                        from: self.cfg.id,
                        to: to_id,
                        view: version,
                        items,
                    });
                    out.sends
                        .push((to_id, class_of(&msg), msg.encode_traced(batch_ctx.as_ref())));
                }
            }
        }
        // Links the 5-failure rule just declared dead retract their
        // routes now (seqno bump + feasibility withdrawal) instead of
        // waiting for the next routing tick's own-row diff.
        if let Some(prober) = &mut self.prober {
            let losses = prober.take_link_losses();
            if let Some(RouterBox::Quorum(q)) = &mut self.router {
                for peer in losses {
                    q.on_link_loss(peer, now);
                }
            }
        }
    }

    fn run_routing_tick(&mut self, now: f64, out: &mut Outbox) {
        let (Some(prober), Some(router)) = (&self.prober, &mut self.router) else {
            return;
        };
        let row = prober.own_row(now);
        let msgs = router
            .as_dyn_mut()
            .on_routing_tick(now, &row, &mut self.rng);
        self.send_index_msgs(msgs, out);
    }

    /// Translate router-produced (index-space) messages to identity
    /// space (see [`Self::index_to_wire`]) and queue them, encoding a
    /// row once per run: a message that is a link-state frame of the
    /// same row and header as the one queued just before it, but for
    /// the addressee, is that frame's copy with `to` stamped in. A
    /// full-mesh broadcast is one run of `n − 1` frames; quorum round
    /// one, a run of about `2√n`.
    fn send_index_msgs(&self, msgs: Vec<Message>, out: &mut Outbox) {
        let mut last: Option<Message> = None;
        for msg in msgs {
            let Some(msg) = self.index_to_wire(msg) else {
                continue;
            };
            match (&last, out.sends.last()) {
                (Some(prev), Some((_, _, frame))) if differs_only_in_to(prev, &msg) => {
                    let copy = readdress_linkstate(frame, msg.to());
                    out.sends.push((msg.to(), TrafficClass::Routing, copy));
                }
                _ => out.send(msg.to(), &msg),
            }
            last = Some(msg);
        }
    }

    /// A router-produced (index-space) message in identity space,
    /// rewritten in place — one `id_of` per index. A message naming an
    /// index outside the view is dropped, a recommendation entry naming
    /// one is left out; any other message passes as it is.
    fn index_to_wire(&self, mut msg: Message) -> Option<Message> {
        let view = self.view.as_ref()?;
        let id = |idx: NodeId| view.id_of(idx.index());
        let (from, to) = match &mut msg {
            // Entry indices are view-positional, guarded by the
            // receiver's view/width check: only the envelope translates.
            Message::LinkState(ls) | Message::LinkStateSparse(ls) => (&mut ls.from, &mut ls.to),
            Message::Recommendations(rm) => {
                translate_recs(&mut rm.recs, id);
                (&mut rm.from, &mut rm.to)
            }
            _ => return Some(msg),
        };
        (*from, *to) = (id(*from)?, id(*to)?);
        Some(msg)
    }

    /// Where `from` sits in my view, when I am a member and it is one:
    /// an incoming routing frame's sender in the routers' index space.
    fn sender_index(&self, from: NodeId) -> Option<usize> {
        self.my_index?;
        self.view.as_ref()?.index_of(from)
    }

    /// Hand a link-state frame, still in its payload, to the router. Only
    /// the sender is translated: entry destinations are view-positional
    /// on both sides, guarded by the router's view and width checks. No
    /// message is built, so neither is the frame's liveness lane; what
    /// the router keeps of the row is all the frame allocates.
    fn on_linkstate_frame(&mut self, now: f64, frame: &LinkStateFrame<'_>) {
        let Some(from) = self.sender_index(frame.from) else {
            return;
        };
        match &mut self.router {
            Some(RouterBox::FullMesh(router)) => router.on_linkstate(now, from, frame),
            Some(RouterBox::Quorum(router)) => router.on_linkstate(now, from, frame),
            None => {}
        }
    }

    /// Hand a recommendation frame, still in its payload, to the quorum
    /// router, each entry translated into index space as the router
    /// walks it ([`rec_to_index`]); the full-mesh baseline takes none.
    fn on_rec_frame(&mut self, now: f64, frame: &RecFrame<'_>) {
        let server = self.sender_index(frame.from);
        let (Some(server), Some(view), Some(RouterBox::Quorum(router))) =
            (server, &self.view, &mut self.router)
        else {
            return;
        };
        let recs = frame.entries().filter_map(|r| rec_to_index(view, r));
        router.on_recommendations(now, server, frame.view, recs);
    }
}

/// An incoming recommendation in index space: its `dst` and `hop`
/// translated through `view`; `None` when the view lacks either.
fn rec_to_index(view: &MembershipView, r: RecEntry) -> Option<RecEntry> {
    let index = |id: NodeId| view.index_of(id).map(NodeId::from_index);
    Some(RecEntry {
        dst: index(r.dst)?,
        hop: index(r.hop)?,
        ..r
    })
}

/// Do `a` and `b` encode to the same frame but for the addressee? They
/// must be link-state frames of one form that share the row and the
/// liveness lane themselves (not merely equal ones) and every other
/// header field.
fn differs_only_in_to(a: &Message, b: &Message) -> bool {
    let ((Message::LinkState(a), Message::LinkState(b))
    | (Message::LinkStateSparse(a), Message::LinkStateSparse(b))) = (a, b)
    else {
        return false;
    };
    // Exhaustive, so that a header field added later is compared too.
    let LinkStateMsg {
        from,
        to: _,
        view,
        round,
        basis_ms,
        width,
        row,
        liveness_loss,
    } = a;
    Arc::ptr_eq(row, &b.row)
        && Arc::ptr_eq(liveness_loss, &b.liveness_loss)
        && (*from, *view, *round, *basis_ms, *width)
            == (b.from, b.view, b.round, b.basis_ms, b.width)
}

/// Rewrite each recommendation's `dst` and `hop` through `map` in one
/// pass, dropping the entries that name an id `map` does not know.
fn translate_recs(recs: &mut Vec<RecEntry>, map: impl Fn(NodeId) -> Option<NodeId>) {
    recs.retain_mut(|r| match (map(r.dst), map(r.hop)) {
        (Some(dst), Some(hop)) => {
            (r.dst, r.hop) = (dst, hop);
            true
        }
        _ => false,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_linkstate::{LaneRow, LinkEntry, LinkStateMsg, RecFormat, RecommendationMsg};
    use proptest::prelude::{any, prop, prop_assert_eq, proptest};
    use std::sync::Arc;

    fn static_node(id: usize, n: usize, algo: Algorithm) -> OverlayNode {
        OverlayNode::new(NodeConfig::static_member(id, n, algo))
    }

    #[test]
    fn static_member_starts_ready() {
        let mut node = static_node(2, 9, Algorithm::Quorum);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        assert!(node.is_member());
        assert_eq!(node.my_index(), Some(2));
        // Probe poll and routing timers armed.
        let tokens: Vec<u64> = out.timers.iter().map(|&(_, t)| t).collect();
        assert!(tokens.contains(&TOKEN_PROBE));
        assert!(tokens.contains(&TOKEN_ROUTING));
    }

    /// A real clock delivers every timer a little late. The late firing
    /// must still consume the armed wake, or every later arm is
    /// deduplicated against it and the plane goes silent.
    #[test]
    fn a_late_timer_still_rearms() {
        let mut node =
            OverlayNode::new(NodeConfig::static_member(1, 4, Algorithm::Quorum).with_swim());
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        for token in [TOKEN_SWIM, TOKEN_PROBE] {
            let armed = out
                .timers
                .iter()
                .filter(|&&(_, t)| t == token)
                .map(|&(delay, _)| delay)
                .fold(f64::INFINITY, f64::min);
            assert!(armed.is_finite(), "token {token} armed at start");
            let mut fired = Outbox::default();
            node.on_timer(armed + 0.010, token, &mut fired);
            assert!(
                fired.timers.iter().any(|&(_, t)| t == token),
                "token {token} delivered 10 ms late must arm its successor"
            );
        }
    }

    #[test]
    fn probe_and_reply_measure_latency() {
        let mut a = static_node(0, 2, Algorithm::Quorum);
        let mut b = static_node(1, 2, Algorithm::Quorum);
        let mut out_a = Outbox::default();
        let mut out_b = Outbox::default();
        a.on_start(0.0, &mut out_a);
        b.on_start(0.0, &mut out_b);
        // Drive a's probe poll until it emits a probe for b.
        let mut probe: Option<Bytes> = None;
        let mut t = 0.0;
        while probe.is_none() && t < 40.0 {
            let mut out = Outbox::default();
            a.on_timer(t, TOKEN_PROBE, &mut out);
            for (to, class, bytes) in out.sends {
                if to == NodeId(1) && class == TrafficClass::Probing {
                    probe = Some(bytes);
                }
            }
            t += 0.5;
        }
        let probe = probe.expect("probe emitted");
        let sent_at = t - 0.5;
        // b replies.
        let mut out = Outbox::default();
        b.on_packet(sent_at + 0.02, &probe, &mut out);
        let (to, class, reply) = out.sends.pop().expect("probe reply");
        assert_eq!(to, NodeId(0));
        assert_eq!(class, TrafficClass::Probing);
        // a ingests the reply 40 ms after sending.
        let mut out = Outbox::default();
        a.on_packet(sent_at + 0.04, &reply, &mut out);
        let l = a.measured_latency_ms(NodeId(1)).expect("latency measured");
        assert!((l - 40.0).abs() < 1.0, "latency {l}");
    }

    #[test]
    fn join_dance_converges() {
        let mut coord = OverlayNode::new(NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum));
        let mut joiner = OverlayNode::new(NodeConfig::new(NodeId(7), NodeId(0), Algorithm::Quorum));
        let mut out_c = Outbox::default();
        let mut out_j = Outbox::default();
        coord.on_start(0.0, &mut out_c);
        joiner.on_start(0.0, &mut out_j);
        assert!(coord.is_member(), "coordinator is its own first view");
        assert!(!joiner.is_member());
        // The joiner sent a Join to node 0.
        let (to, class, join_bytes) = out_j
            .sends
            .iter()
            .find(|(_, c, _)| *c == TrafficClass::Membership)
            .cloned()
            .expect("join sent");
        assert_eq!(to, NodeId(0));
        assert_eq!(class, TrafficClass::Membership);
        // Coordinator processes the join and broadcasts a view.
        let mut out = Outbox::default();
        coord.on_packet(0.5, &join_bytes, &mut out);
        let view_msg = out
            .sends
            .iter()
            .find(|(to, _, _)| *to == NodeId(7))
            .cloned()
            .expect("view broadcast to joiner");
        // Joiner installs the view.
        let mut out = Outbox::default();
        joiner.on_packet(0.6, &view_msg.2, &mut out);
        assert!(joiner.is_member());
        assert_eq!(joiner.view().unwrap().members, vec![NodeId(0), NodeId(7)]);
        assert_eq!(joiner.my_index(), Some(1));
        assert_eq!(
            coord.view().unwrap().version,
            joiner.view().unwrap().version
        );
    }

    /// A `View` from anyone but the coordinator, or into a SWIM node or
    /// the coordinator itself, is refused and counted: installed, its
    /// top version would shut out every honest view after it.
    #[test]
    fn a_view_from_anyone_but_the_coordinator_is_refused() {
        let forged = |from: u16, to: u16| {
            Message::View(apor_linkstate::wire::ViewMsg {
                from: NodeId(from),
                to: NodeId(to),
                view: u32::MAX,
                members: vec![NodeId(from), NodeId(to)],
            })
            .encode()
        };
        let centralized = |id| NodeConfig::static_member(id, 4, Algorithm::Quorum);
        let cases = [
            (centralized(1), forged(3, 1)),
            (centralized(0), forged(0, 0)),
            (centralized(1).with_swim(), forged(3, 1)),
            (centralized(1).with_swim(), forged(0, 1)),
        ];
        for (cfg, frame) in cases {
            let mut node = OverlayNode::new(cfg);
            node.on_start(0.0, &mut Outbox::default());
            let before = node.view().cloned().expect("static view");
            node.on_packet(1.0, &frame, &mut Outbox::default());
            assert_eq!(node.view(), Some(&before), "{:?}", node.config().membership);
            assert_eq!(node.my_index(), Some(node.id().index()));
            let snap = node.telemetry().snapshot();
            assert_eq!(snap.counter_total("membership", "views_rejected"), 1);
        }
        // The coordinator's own view still installs, uncounted.
        let mut node = OverlayNode::new(centralized(1));
        node.on_start(0.0, &mut Outbox::default());
        node.on_packet(1.0, &forged(0, 1), &mut Outbox::default());
        assert_eq!(node.view().map(|v| v.version), Some(u32::MAX));
        let snap = node.telemetry().snapshot();
        assert_eq!(snap.counter_total("membership", "views_rejected"), 0);
    }

    #[test]
    fn sparse_ids_translate_correctly() {
        // Members {3, 10, 200}: identity ≠ index. Node 10 (index 1) sends
        // link state; the wire message must carry identities.
        let members = vec![NodeId(3), NodeId(10), NodeId(200)];
        let mut node = OverlayNode::new(
            NodeConfig::new(NodeId(10), NodeId(3), Algorithm::Quorum).with_static_members(members),
        );
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        assert_eq!(node.my_index(), Some(1));
        let mut out = Outbox::default();
        node.on_timer(20.0, TOKEN_ROUTING, &mut out);
        assert!(!out.sends.is_empty(), "routing tick must emit link state");
        for (to, class, bytes) in &out.sends {
            assert_eq!(*class, TrafficClass::Routing);
            assert!(
                [NodeId(3), NodeId(200)].contains(to),
                "wire destination must be an identity, got {to}"
            );
            let m = Message::decode(bytes).unwrap();
            assert_eq!(m.from(), NodeId(10), "wire sender must be identity");
        }
    }

    /// The clone-and-`retain` translation this module used before ids
    /// were rewritten in place, kept as the definition the in-place
    /// and per-entry versions are held to. `to_index` maps identity → index and forces
    /// `to` to `me`; `!to_index` maps index → identity.
    fn translate_by_definition(
        view: &MembershipView,
        me: usize,
        msg: &Message,
        to_index: bool,
    ) -> Option<Message> {
        let map = |id: NodeId| {
            if to_index {
                view.members.binary_search(&id).ok().map(NodeId::from_index)
            } else {
                view.members.get(id.index()).copied()
            }
        };
        let to = |to: NodeId| {
            if to_index {
                Some(NodeId::from_index(me))
            } else {
                map(to)
            }
        };
        match msg {
            Message::LinkState(ls) | Message::LinkStateSparse(ls) => {
                let mut inner = ls.clone();
                inner.from = map(ls.from)?;
                inner.to = to(ls.to)?;
                Some(match msg {
                    Message::LinkState(_) => Message::LinkState(inner),
                    _ => Message::LinkStateSparse(inner),
                })
            }
            Message::Recommendations(rm) => {
                let mut inner = rm.clone();
                inner.from = map(rm.from)?;
                inner.to = to(rm.to)?;
                inner
                    .recs
                    .retain(|r| map(r.dst).is_some() && map(r.hop).is_some());
                for r in &mut inner.recs {
                    r.dst = map(r.dst).expect("retained");
                    r.hop = map(r.hop).expect("retained");
                }
                Some(Message::Recommendations(inner))
            }
            _ => None,
        }
    }

    proptest! {
        /// Translation equals the clone-and-`retain` definition in both
        /// directions — what a router is handed of an incoming frame,
        /// and what an outgoing message becomes — for all three routing
        /// variants, on views where identity ≠ index: a `0..k` prefix
        /// (where the identity slot answers), then gaps. Ids are drawn
        /// from a range wider than the view, so `from` is sometimes
        /// unknown (the frame is dropped) and `dst`/`hop` sometimes are
        /// (the entry is dropped); `to` always ends up this node.
        #[test]
        fn in_place_translation_equals_the_definition(
            prefix in 0u16..6,
            gaps in prop::collection::vec(1u16..5, 1..10),
            me_pick in any::<u16>(),
            variant in 0u8..3,
            from in 0u16..40,
            to in 0u16..40,
            recs in prop::collection::vec((0u16..40, 0u16..40, any::<u16>()), 0..12),
        ) {
            let mut members: Vec<NodeId> = (0..prefix).map(NodeId).collect();
            let mut next = prefix;
            for g in gaps {
                next += g;
                members.push(NodeId(next));
                next += 1;
            }
            let me = usize::from(me_pick) % members.len();
            let mut node = OverlayNode::new(
                NodeConfig::new(members[me], members[0], Algorithm::Quorum)
                    .with_static_members(members.clone()),
            );
            node.on_start(0.0, &mut Outbox::default());
            let view = node.view().expect("static view installed").clone();
            prop_assert_eq!(node.my_index(), Some(me));

            let entries = vec![LinkEntry::live(7, 0.0); view.len()];
            let ls = LinkStateMsg {
                from: NodeId(from),
                to: NodeId(to),
                view: view.version,
                round: 2,
                basis_ms: 9,
                width: view.len() as u16,
                row: Arc::new(LaneRow::from_dense(&entries)),
                liveness_loss: LinkStateMsg::liveness_lane(&entries),
            };
            let msg = match variant {
                0 => Message::LinkState(ls),
                1 => Message::LinkStateSparse(ls),
                _ => Message::Recommendations(RecommendationMsg {
                    from: NodeId(from),
                    to: NodeId(to),
                    view: view.version,
                    round: 2,
                    basis_ms: 9,
                    format: RecFormat::WithCost,
                    recs: recs
                        .iter()
                        .map(|&(dst, hop, cost_ms)| RecEntry {
                            dst: NodeId(dst),
                            hop: NodeId(hop),
                            cost_ms,
                        })
                        .collect(),
                }),
            };

            // Wire → index: the sender and entries a router is handed.
            let me_index = NodeId::from_index(me);
            let handed = match &msg {
                Message::LinkState(ls) | Message::LinkStateSparse(ls) => {
                    node.sender_index(ls.from).map(|from| {
                        let inner = LinkStateMsg {
                            from: NodeId::from_index(from),
                            to: me_index,
                            ..ls.clone()
                        };
                        if variant == 0 {
                            Message::LinkState(inner)
                        } else {
                            Message::LinkStateSparse(inner)
                        }
                    })
                }
                Message::Recommendations(rm) => node.sender_index(rm.from).map(|from| {
                    Message::Recommendations(RecommendationMsg {
                        from: NodeId::from_index(from),
                        to: me_index,
                        recs: rm.recs.iter().filter_map(|&r| rec_to_index(&view, r)).collect(),
                        ..rm.clone()
                    })
                }),
                _ => unreachable!("a routing message"),
            };
            prop_assert_eq!(handed, translate_by_definition(&view, me, &msg, true));
            // Index → wire: what lands in the outbox is the definition's
            // message, encoded, addressed to its `to`.
            let mut out = Outbox::default();
            node.send_index_msgs(vec![msg.clone()], &mut out);
            let want: Vec<_> = translate_by_definition(&view, me, &msg, false)
                .map(|m| (m.to(), class_of(&m), m.encode()))
                .into_iter()
                .collect();
            prop_assert_eq!(out.sends, want);
        }
    }

    /// A tick's frames, stamped once per run of one row, are each the
    /// frame `Message::encode` writes for that message: runs on a full
    /// row, a dense row with dead slots, a sparse row and a versioned
    /// row with a retraction lane, broken by a new row, a changed
    /// header field, the other frame form, a recommendation and an
    /// addressee outside the view — none of which is ever stamped from
    /// the frame before it.
    #[test]
    fn stamped_tick_frames_are_the_encoded_frames() {
        let members: Vec<NodeId> = (0..9).map(|i| NodeId(100 + 7 * i)).collect();
        let mut node = OverlayNode::new(
            NodeConfig::new(members[0], members[0], Algorithm::Quorum)
                .with_static_members(members.clone()),
        );
        node.on_start(0.0, &mut Outbox::default());
        let view = node.view().expect("static view installed").clone();

        let live = LinkEntry::live(40, 0.01);
        let mut holes = vec![live; 9];
        (holes[2], holes[7]) = (LinkEntry::dead(), LinkEntry::dead());
        // Each row with its liveness lane, shared by every frame of it.
        let body = |row: LaneRow, entries: &[LinkEntry]| {
            (Arc::new(row), LinkStateMsg::liveness_lane(entries))
        };
        let full = body(LaneRow::from_dense(&[live; 9]), &[live; 9]);
        let holey = body(LaneRow::from_dense(&holes), &holes);
        let listed = [(1, live), (6, LinkEntry::live(300, 0.5))];
        let pairs = body(LaneRow::from_pairs(&listed), &[listed[0].1, listed[1].1]);
        let versioned = body(
            LaneRow::from_dense(&holes).with_version(41, &[2, 7]),
            &holes,
        );
        let frame = |sparse: bool,
                     (row, liveness_loss): &(Arc<LaneRow>, Arc<[u8]>),
                     round: u32,
                     to: u16| {
            let ls = LinkStateMsg {
                from: NodeId(0),
                to: NodeId(to),
                view: view.version,
                round,
                basis_ms: 123_456,
                width: 9,
                row: Arc::clone(row),
                liveness_loss: Arc::clone(liveness_loss),
            };
            if sparse {
                Message::LinkStateSparse(ls)
            } else {
                Message::LinkState(ls)
            }
        };
        let rec = Message::Recommendations(RecommendationMsg {
            from: NodeId(0),
            to: NodeId(3),
            view: view.version,
            round: 5,
            basis_ms: 9,
            format: RecFormat::Compact,
            recs: vec![RecEntry {
                dst: NodeId(4),
                hop: NodeId(2),
                cost_ms: u16::MAX,
            }],
        });
        let mut msgs: Vec<Message> = (1..9).map(|to| frame(false, &full, 5, to)).collect();
        msgs.extend((1..4).map(|to| frame(false, &holey, 5, to)));
        msgs.push(frame(false, &holey, 6, 4));
        msgs.push(frame(true, &holey, 6, 5));
        msgs.extend((1..4).map(|to| frame(true, &pairs, 6, to)));
        msgs.push(rec);
        msgs.push(frame(true, &pairs, 6, 4));
        msgs.push(frame(true, &pairs, 6, 42));
        msgs.push(frame(true, &pairs, 6, 5));
        msgs.extend((1..9).map(|to| frame(false, &versioned, 6, to)));
        msgs.extend((1..3).map(|to| frame(true, &versioned, 6, to)));

        let mut out = Outbox::default();
        node.send_index_msgs(msgs.clone(), &mut out);
        let want: Vec<_> = msgs
            .iter()
            .filter_map(|m| translate_by_definition(&view, 0, m, false))
            .map(|m| (m.to(), class_of(&m), m.encode()))
            .collect();
        assert_eq!(want.len(), msgs.len() - 1, "only the outsider is dropped");
        assert_eq!(out.sends, want);
    }

    #[test]
    fn malformed_packets_ignored() {
        let mut node = static_node(0, 4, Algorithm::Quorum);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        let mut out = Outbox::default();
        node.on_packet(1.0, &[0xFF, 1, 2], &mut out);
        node.on_packet(1.0, &[], &mut out);
        assert!(out.sends.is_empty());
        assert!(node.is_member());
    }

    #[test]
    fn non_member_routing_messages_dropped() {
        let mut node = static_node(0, 4, Algorithm::Quorum);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        // A link-state message from an unknown identity 99.
        let bogus = Message::LinkState(LinkStateMsg {
            from: NodeId(99),
            to: NodeId(0),
            view: 1,
            round: 1,
            basis_ms: 0,
            width: 4,
            row: Arc::default(),
            liveness_loss: Arc::default(),
        });
        let mut out = Outbox::default();
        node.on_packet(1.0, &bogus.encode(), &mut out);
        assert!(out.sends.is_empty());
        // The table must not have been touched: route_age for all real
        // members is still None.
        for id in 1..4u16 {
            assert_eq!(node.route_age(NodeId(id), 2.0), None);
        }
    }

    #[test]
    fn full_mesh_algorithm_selectable() {
        let mut node = static_node(1, 9, Algorithm::FullMesh);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        let mut out = Outbox::default();
        node.on_timer(35.0, TOKEN_ROUTING, &mut out);
        // Full mesh broadcasts to all 8 peers.
        let ls = out
            .sends
            .iter()
            .filter(|(_, c, _)| *c == TrafficClass::Routing)
            .count();
        assert_eq!(ls, 8);
        assert!(node.quorum_router().is_none());
    }

    #[test]
    fn quorum_algorithm_talks_to_2_sqrt_n() {
        let mut node = static_node(1, 100, Algorithm::Quorum);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        let mut out = Outbox::default();
        node.on_timer(20.0, TOKEN_ROUTING, &mut out);
        let ls = out
            .sends
            .iter()
            .filter(|(_, c, _)| *c == TrafficClass::Routing)
            .count();
        assert!(
            ls <= 20,
            "quorum node sent {ls} routing messages, ~2√100 expected"
        );
        assert!(node.quorum_router().is_some());
    }
}

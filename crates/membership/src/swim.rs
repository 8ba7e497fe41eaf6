//! The sans-io SWIM state machine.
//!
//! ## Protocol sketch (Das et al., DSN 2002)
//!
//! Time is divided into *protocol periods* of [`PERIOD_S`]
//! seconds. Each period the node picks one live peer from a shuffled
//! rotation and sends it a [`SwimKind::Ping`]. If no ack arrives within
//! [`PING_TIMEOUT_S`], the node asks
//! [`PING_REQ_FANOUT`] other peers to probe the target
//! indirectly ([`SwimKind::PingReq`] → [`SwimKind::ProxyAck`]), which
//! distinguishes a dead target from a lossy direct path. A target that
//! stays silent through the whole period becomes **suspected**; the
//! suspicion gossips through the cluster, and the target can refute it
//! by bumping its *incarnation* and gossiping a fresh `Alive`. A
//! suspicion that survives [`SUSPICION_PERIODS`] periods is
//! **confirmed faulty** — only then does the membership view change.
//!
//! Every outgoing message piggybacks up to [`MAX_PIGGYBACK`] pending
//! membership events, each retransmitted at most
//! [`GOSSIP_TRANSMISSIONS`] times — infection-style dissemination with
//! per-node traffic constant in `n`.
//!
//! ## Constants
//!
//! The timings are fixed, as the SWIM paper fixes its period and
//! suspicion multiplier: [`PERIOD_S`] 2 s, [`PING_TIMEOUT_S`] 0.5 s,
//! [`SUSPICION_PERIODS`] 3 and [`SUSPICION_LOG_SCALE`] 1 (the effective
//! suspicion lifetime is `max(3, log₂ n)` periods, times the Lifeguard
//! local-health multiplier), [`PUBLISH_PERIOD_S`] 2 s and
//! [`TOMBSTONE_GC_SYNCS`] 50 sync periods. What a node is given is its
//! [`SwimConfig`]: a randomness seed and the anti-entropy arm
//! ([`AntiEntropyConfig`]), which the partition study switches off and
//! runs at a 2 s sync period.
//!
//! ## What an event costs
//!
//! The driver calls in on every datagram and every timer, and after
//! each asks [`Swim::next_wake`] when to come back — so the steady
//! state must not pay for the size of the cluster. `next_wake` is
//! `O(suspicions + relays)`, both empty when nothing is wrong, and
//! reads the view version from the ledger's running sum; the
//! suspicion timeout reads the live count from its counter; a digest
//! reads a remembered fingerprint (see [`crate::view`]). Applying an
//! update is one slot probe into the sorted ledger. An anti-entropy
//! round picks its partner by counting the eligible members and
//! drawing one index — a single draw, and no scratch list — and
//! answers a push by walking the (ascending) claims beside its own
//! records. Helper choice for indirect probes draws as
//! `choose_multiple` would, over the live members in place.
//!
//! ## Interface
//!
//! Strictly sans-io, like every protocol core in this workspace: the
//! driver calls [`Swim::on_tick`] on a coarse timer and
//! [`Swim::on_message`] per datagram; both append frames to an output
//! vector, each addressed by its own `to`. View installation goes
//! through [`Swim::poll_view`], which batches ledger changes on the
//! [`PUBLISH_PERIOD_S`] cadence and returns monotonically versioned
//! [`MembershipView`] snapshots (see [`crate::view`] for why concurrent
//! publishers agree).

use crate::view::{MemberState, MembershipView, ViewLedger};
use crate::wire::{
    SwimKind, SwimMsg, SwimStatus, SwimUpdate, SWIM_MAX_FRAME_ENTRIES, SWIM_MTU_FRAME_ENTRIES,
};
use apor_quorum::NodeId;
use apor_telemetry::trace::{episode_id, episode_root_span};
use apor_telemetry::{Counter, SpanKind, Telemetry, TraceCtx, Tracer};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Anti-entropy (push-pull full-ledger sync) settings.
///
/// Piggybacked gossip disseminates *fresh* events; a node that missed
/// an event while partitioned (or that holds verdicts the other side of
/// a healed partition never saw) has no retransmission left to learn
/// from. Anti-entropy closes that gap: each `sync_period_s` a node
/// picks one partner uniformly from **every member it has ever heard
/// of — dead or alive** — and reconciles ledgers with it. Including
/// confirmed-dead partners is what heals partitions: each side of a
/// split considers the other dead, so a live-only choice would never
/// cross the healed boundary.
///
/// A round has one shape. It opens with a 15-byte version digest
/// ([`SwimKind::SyncDigest`]), not the `O(n)` ledger: a partner whose
/// ledger fingerprint matches answers with an empty delta and the
/// transfer is skipped — in steady state almost every pair agrees, so
/// the per-period sync cost is `O(1)` bytes. A partner that disagrees
/// echoes its own digest with the first chunk of its ledger riding on
/// the echo ([`SwimKind::SyncDigestPush`]), so that direction of the
/// transfer lands a round-trip before the pull would (counted by
/// `membership/sync_piggyback_rtt_saved`); the initiator then pushes
/// its full ledger ([`SwimKind::SyncReq`], chunked at
/// [`SWIM_MTU_FRAME_ENTRIES`] records per frame) and the partner
/// merges and pulls back the delta it knows better
/// ([`SwimKind::SyncRsp`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AntiEntropyConfig {
    /// Run the periodic push-pull sync at all.
    pub enabled: bool,
    /// Seconds between sync rounds initiated by this node. Random pair
    /// selection mixes any divergence through the cluster in `O(log n)`
    /// rounds.
    pub sync_period_s: f64,
}

impl Default for AntiEntropyConfig {
    fn default() -> Self {
        AntiEntropyConfig {
            enabled: true,
            sync_period_s: 4.0,
        }
    }
}

impl AntiEntropyConfig {
    /// An explicitly disabled configuration (ablation baselines).
    #[must_use]
    pub fn disabled() -> Self {
        AntiEntropyConfig {
            enabled: false,
            ..AntiEntropyConfig::default()
        }
    }
}

/// Protocol period: one probe round per period, seconds.
pub const PERIOD_S: f64 = 2.0;
/// Deadline for the direct ack before indirect probing kicks in,
/// seconds.
pub const PING_TIMEOUT_S: f64 = 0.5;
/// Minimum suspicion lifetime before a silent member is confirmed
/// faulty, in protocol periods. The *effective* lifetime scales with
/// cluster size and local health — see [`suspicion_periods_for`].
pub const SUSPICION_PERIODS: f64 = 3.0;
/// Protocol periods of suspicion per `log₂ n` of cluster size: the
/// effective base lifetime is
/// `max(SUSPICION_PERIODS, SUSPICION_LOG_SCALE · log₂ n)`, the
/// SWIM/Lifeguard scaling that keeps the false-positive rate flat as
/// gossip needs more hops to refute.
pub const SUSPICION_LOG_SCALE: f64 = 1.0;
/// Cadence at which ledger changes are batched into installed views,
/// seconds.
pub const PUBLISH_PERIOD_S: f64 = 2.0;
/// Dead-record GC: a member that has been confirmed dead for this many
/// sync periods ([`AntiEntropyConfig::sync_period_s`]) is
/// *tombstone-expired* — it stops being chosen as a sync partner, so
/// long-lived ledgers stop wasting sync rounds on permanently dead
/// members.
///
/// The window must comfortably exceed any partition expected to heal:
/// partition healing works precisely because dead members stay in the
/// partner pool (see [`AntiEntropyConfig`]), and it keeps working as
/// long as the split is shorter than
/// `TOMBSTONE_GC_SYNCS · sync_period_s`. The records themselves are
/// never deleted from the ledger — removal would break the version
/// lattice's monotonicity and resurrect tombstones through peers that
/// still hold them; only *partner selection* forgets.
pub const TOMBSTONE_GC_SYNCS: u32 = 50;
/// Number of helpers asked to probe indirectly after a direct miss.
pub const PING_REQ_FANOUT: usize = 3;
/// Cap on the Lifeguard local-health counter. A node that misses acks
/// or has to refute its own suspicion is probably the lossy one; its
/// counter rises and *its own* suspicion verdicts slow by `1 + health`
/// until evidence of good connectivity drains it.
pub const MAX_LOCAL_HEALTH: u32 = 8;
/// Maximum membership events piggybacked per message.
pub const MAX_PIGGYBACK: usize = 10;
/// Times each event is retransmitted before leaving the gossip queue
/// (≈ λ·log n in the SWIM paper; a safe constant here).
pub const GOSSIP_TRANSMISSIONS: u32 = 10;

/// The effective base suspicion lifetime, in protocol periods, for a
/// cluster of `n` live members:
/// `max(SUSPICION_PERIODS, SUSPICION_LOG_SCALE · log₂ n)`.
#[must_use]
pub fn suspicion_periods_for(n: usize) -> f64 {
    let log_n = (n.max(1) as f64).log2();
    SUSPICION_PERIODS.max(SUSPICION_LOG_SCALE * log_n)
}

/// [`suspicion_periods_for`] in seconds.
#[must_use]
pub fn suspicion_timeout_s_for(n: usize) -> f64 {
    suspicion_periods_for(n) * PERIOD_S
}

/// Worst-case seconds from a member's crash to every live ledger
/// confirming it, assuming gossip reaches the cluster within one period
/// per hop: one period until somebody's rotation probes it, one period
/// of ping/ping-req silence, then the (size-scaled) suspicion timeout.
/// Assumes healthy observers (local-health multiplier 1); a lossy
/// observer's verdict is deliberately slower.
#[must_use]
pub fn detection_budget_s(n: usize) -> f64 {
    let rotation = (n as f64).max(1.0) * PERIOD_S;
    rotation + PERIOD_S + suspicion_timeout_s_for(n) + PUBLISH_PERIOD_S
}

/// What one SWIM node is given beyond the protocol constants above.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwimConfig {
    /// Periodic push-pull full-ledger reconciliation.
    pub anti_entropy: AntiEntropyConfig,
    /// Seed for this node's probe-order and helper-choice randomness.
    pub seed: u64,
}

impl Default for SwimConfig {
    fn default() -> Self {
        SwimConfig {
            anti_entropy: AntiEntropyConfig::default(),
            seed: 0x5111_0000,
        }
    }
}

impl SwimConfig {
    /// Sanity-check the settable values.
    ///
    /// # Panics
    /// Panics when anti-entropy is on with a non-positive sync period.
    pub fn validate(&self) {
        if self.anti_entropy.enabled {
            assert!(
                self.anti_entropy.sync_period_s > 0.0,
                "sync period must be positive"
            );
        }
    }
}

/// The probe in flight during the current protocol period.
#[derive(Debug, Clone)]
struct Outstanding {
    target: NodeId,
    seq: u32,
    direct_deadline: f64,
    indirect_sent: bool,
    acked: bool,
}

/// A ping we performed on behalf of a ping-req origin.
#[derive(Debug, Clone)]
struct Relay {
    origin: NodeId,
    origin_seq: u32,
    target: NodeId,
    seq: u32,
    deadline: f64,
}

/// An active suspicion (transient; never in the ledger).
#[derive(Debug, Clone, Copy)]
struct Suspicion {
    incarnation: u32,
    deadline: f64,
    /// When the suspicion opened — the start of the causal-trace
    /// suspicion span if it later confirms.
    started_s: f64,
}

/// A gossip-queue entry with its remaining retransmission budget.
#[derive(Debug, Clone)]
struct Gossip {
    update: SwimUpdate,
    remaining: u32,
}

/// A partially reassembled multi-chunk sync push. One per sender at
/// most — a newer `seq` from the same sender replaces it — and none
/// older than one sync period: the key is the frame's unauthenticated
/// `from`, so without the age bound every distinct sender id that ever
/// lost a last chunk would pin its chunks here for good (see
/// [`Swim::on_tick`]).
#[derive(Debug, Clone)]
struct PendingSync {
    seq: u32,
    total: u8,
    /// When the first chunk of this `seq` arrived.
    opened_at: f64,
    chunks: BTreeMap<u8, Vec<SwimUpdate>>,
}

/// The SWIM plane's registry-backed counters (component
/// `"membership"`). Handles are plain atomic cells, so counting costs
/// one relaxed add whether or not a real [`Telemetry`] registry is
/// attached, and the counts are read through that registry's snapshot.
#[derive(Debug, Clone)]
struct SwimMetrics {
    probe_sent: Counter,
    probe_acked: Counter,
    suspicion_raised: Counter,
    suspicion_refuted: Counter,
    digest_rounds: Counter,
    digest_skips: Counter,
    full_pushes: Counter,
    piggyback_saved: Counter,
}

impl SwimMetrics {
    fn new(t: &Telemetry) -> Self {
        SwimMetrics {
            probe_sent: t.counter("membership", "probe_sent"),
            probe_acked: t.counter("membership", "probe_acked"),
            suspicion_raised: t.counter("membership", "suspicion_raised"),
            suspicion_refuted: t.counter("membership", "suspicion_refuted"),
            digest_rounds: t.counter("membership", "sync_digest_rounds"),
            digest_skips: t.counter("membership", "sync_digest_skips"),
            full_pushes: t.counter("membership", "sync_full_pushes"),
            piggyback_saved: t.counter("membership", "sync_piggyback_rtt_saved"),
        }
    }
}

/// The per-node SWIM state machine.
#[derive(Debug, Clone)]
pub struct Swim {
    me: NodeId,
    cfg: SwimConfig,
    incarnation: u32,
    ledger: ViewLedger,
    rng: ChaCha8Rng,
    seq: u32,
    probe_order: Vec<NodeId>,
    probe_pos: usize,
    next_period_at: Option<f64>,
    outstanding: Option<Outstanding>,
    relays: Vec<Relay>,
    suspicions: BTreeMap<NodeId, Suspicion>,
    gossip: VecDeque<Gossip>,
    next_publish_at: f64,
    published_version: u32,
    local_health: u32,
    next_sync_at: Option<f64>,
    pending_syncs: BTreeMap<NodeId, PendingSync>,
    answered_syncs: BTreeMap<NodeId, u32>,
    /// When each currently-dead member was (last) confirmed dead here —
    /// the clock behind [`TOMBSTONE_GC_SYNCS`].
    /// Entries vanish on resurrection.
    tombstones: BTreeMap<NodeId, f64>,
    /// The digest round in flight: `(partner, seq)` — a matching echo
    /// triggers the full push.
    outstanding_digest: Option<(NodeId, u32)>,
    /// Last digest `seq` answered per sender. A duplicated (or late)
    /// digest frame is dropped instead of re-answered: without this, a
    /// single duplicated mismatch echo bounces between two diverged
    /// peers forever (each side sees a "fresh" digest, mismatches, and
    /// echoes back) — the digest analogue of `answered_syncs`.
    answered_digests: BTreeMap<NodeId, u32>,
    telemetry: Telemetry,
    metrics: SwimMetrics,
    tracer: Tracer,
    /// The convergence episode this node currently propagates on its
    /// outgoing gossip (adopted locally when a suspicion opens, or from
    /// a traced inbound frame).
    active_trace: Option<TraceCtx>,
    /// Frames carry `active_trace` only until this sim-time — a hot
    /// window refreshed by episode activity, so steady-state gossip
    /// stays trailer-free.
    trace_hot_until: f64,
    /// `(episode, confirm-span id)` of the most recent local
    /// confirmation, letting the driver parent its view-install span
    /// under the confirm that caused it.
    last_confirm: Option<(u32, u64)>,
    departed: bool,
}

impl Swim {
    /// A joining node: knows itself plus `seeds` (its introducers). Its
    /// own `Alive` gossips outward from the first ping, so the rest of
    /// the cluster learns of the join without any coordinator.
    #[must_use]
    pub fn new(me: NodeId, cfg: SwimConfig, seeds: &[NodeId]) -> Self {
        cfg.validate();
        let mut initial: Vec<NodeId> = seeds.iter().copied().filter(|&s| s != me).collect();
        initial.push(me);
        let mut swim = Swim::with_ledger(me, cfg, ViewLedger::bootstrap(&initial));
        swim.enqueue_gossip(SwimUpdate {
            id: me,
            incarnation: 0,
            status: SwimStatus::Alive,
        });
        swim
    }

    /// A statically bootstrapped node: the full initial membership is
    /// known up front (the steady-state experiments), so every node
    /// derives the identical initial view with zero join traffic.
    #[must_use]
    pub fn bootstrap(me: NodeId, cfg: SwimConfig, members: &[NodeId]) -> Self {
        cfg.validate();
        let mut all: Vec<NodeId> = members.to_vec();
        if !all.contains(&me) {
            all.push(me);
        }
        Swim::with_ledger(me, cfg, ViewLedger::bootstrap(&all))
    }

    fn with_ledger(me: NodeId, cfg: SwimConfig, ledger: ViewLedger) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let telemetry = Telemetry::disabled();
        let metrics = SwimMetrics::new(&telemetry);
        Swim {
            me,
            cfg,
            incarnation: 0,
            ledger,
            rng,
            seq: 0,
            probe_order: Vec::new(),
            probe_pos: 0,
            next_period_at: None,
            outstanding: None,
            relays: Vec::new(),
            suspicions: BTreeMap::new(),
            gossip: VecDeque::new(),
            next_publish_at: 0.0,
            published_version: 0,
            local_health: 0,
            next_sync_at: None,
            pending_syncs: BTreeMap::new(),
            answered_syncs: BTreeMap::new(),
            tombstones: BTreeMap::new(),
            outstanding_digest: None,
            answered_digests: BTreeMap::new(),
            telemetry,
            metrics,
            tracer: Tracer::disabled(),
            active_trace: None,
            trace_hot_until: f64::NEG_INFINITY,
            last_confirm: None,
            departed: false,
        }
    }

    /// Attach a telemetry handle: probe, suspicion and sync counters
    /// register under component `"membership"`. Call before driving the
    /// node — the attached registry starts with fresh (zeroed) counter
    /// cells.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.metrics = SwimMetrics::new(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// Attach a causal tracer: suspicion/confirm/sync spans enter its
    /// flight recorder, and gossip sent during a convergence episode's
    /// hot window carries the episode's [`TraceCtx`] on the wire. With
    /// the default disabled tracer every trace call is a single
    /// relaxed-bool no-op and frames stay trailer-free.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// `(episode, confirm-span id)` of the most recent locally
    /// confirmed suspicion, if any — the causal parent for the view
    /// install it triggers.
    #[must_use]
    pub fn last_confirm(&self) -> Option<(u32, u64)> {
        self.last_confirm
    }

    /// The trace context outgoing gossip should carry at `now`: the
    /// active episode while its hot window is open, `None` otherwise
    /// (the steady-state case — frames stay bit-identical to the
    /// legacy format).
    #[must_use]
    pub fn gossip_trace(&self, now: f64) -> Option<TraceCtx> {
        if self.tracer.enabled() && now <= self.trace_hot_until {
            self.active_trace
        } else {
            None
        }
    }

    /// Adopt the episode context of a traced inbound frame and refresh
    /// the hot window, so this node relays the episode onward with an
    /// incremented hop. Called by the driver *before* handing the
    /// message to [`Swim::on_message`].
    pub fn note_remote_trace(&mut self, now: f64, ctx: TraceCtx) {
        if !self.tracer.enabled() {
            return;
        }
        // A different episode replaces the current one; the same
        // episode only refreshes the window (keeping our lowest hop).
        match self.active_trace {
            Some(cur) if cur.episode == ctx.episode => {}
            _ => self.active_trace = Some(ctx),
        }
        self.trace_hot_until = now + self.trace_window_s();
    }

    /// How long episode context stays attached to outgoing frames
    /// after the last episode activity: long enough for the suspicion
    /// to confirm and the confirmation wavefront to gossip out.
    fn trace_window_s(&self) -> f64 {
        self.effective_suspicion_timeout_s() + 4.0 * PERIOD_S
    }

    /// This node's identity.
    #[must_use]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// This node's current incarnation.
    #[must_use]
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// The converged-state ledger (diagnostics and tests).
    #[must_use]
    pub fn ledger(&self) -> &ViewLedger {
        &self.ledger
    }

    /// Is `id` currently under active suspicion here?
    #[must_use]
    pub fn is_suspected(&self, id: NodeId) -> bool {
        self.suspicions.contains_key(&id)
    }

    /// The Lifeguard local-health counter: 0 = healthy; each missed
    /// ack or self-refutation raises it (capped), each clean probe
    /// round lowers it. This node's suspicion verdicts take
    /// `1 + local_health` times the base timeout.
    #[must_use]
    pub fn local_health(&self) -> u32 {
        self.local_health
    }

    /// The suspicion timeout this node currently applies to new
    /// suspicions: cluster-size-scaled base times the local-health
    /// multiplier.
    #[must_use]
    pub fn effective_suspicion_timeout_s(&self) -> f64 {
        let n = self.ledger.live_count();
        suspicion_timeout_s_for(n) * f64::from(1 + self.local_health)
    }

    /// The current view, regardless of the publish cadence.
    #[must_use]
    pub fn current_view(&self) -> MembershipView {
        MembershipView {
            version: self.ledger.version(),
            members: self.ledger.members(),
        }
    }

    /// Is `id` tombstone-expired at `now` — confirmed dead long enough
    /// that anti-entropy partner selection has forgotten it?
    #[must_use]
    pub fn is_tombstone_expired(&self, id: NodeId, now: f64) -> bool {
        let window = f64::from(TOMBSTONE_GC_SYNCS) * self.cfg.anti_entropy.sync_period_s;
        self.tombstones
            .get(&id)
            .is_some_and(|&dead_at| now - dead_at >= window)
    }

    /// Apply one confirmed event to the ledger, maintaining the
    /// tombstone clock: a member that (re-)enters the dead state is
    /// stamped `now`; a resurrection clears the stamp.
    fn ledger_apply(&mut self, now: f64, id: NodeId, incarnation: u32, dead: bool) -> bool {
        let moved = self.ledger.apply(id, incarnation, dead);
        if moved {
            if dead {
                self.tombstones.insert(id, now);
            } else {
                self.tombstones.remove(&id);
            }
        }
        moved
    }

    // ------------------------------------------------------------------
    // Driver interface
    // ------------------------------------------------------------------

    /// Advance timers. The driver calls this on a coarse tick (a few
    /// times per [`PING_TIMEOUT_S`]); all deadlines are
    /// computed from `now`, so tick jitter only delays, never corrupts.
    pub fn on_tick(&mut self, now: f64, out: &mut Vec<SwimMsg>) {
        self.relays.retain(|r| r.deadline > now);
        self.drop_overdue_syncs(now);
        self.fire_indirect_probes(now, out);
        self.confirm_expired_suspicions(now);
        let period_start = match self.next_period_at {
            None => true,
            Some(t) => now >= t,
        };
        if period_start {
            self.next_period_at = Some(now + PERIOD_S);
            self.finish_probe_round(now);
            self.start_probe_round(now, out);
        }
        self.run_anti_entropy(now, out);
    }

    /// The earliest time at which [`on_tick`](Self::on_tick) (or a
    /// [`poll_view`](Self::poll_view) call after it) could have work:
    /// the minimum over the next protocol period, the outstanding
    /// probe's direct deadline, suspicion and relay expiries, the next
    /// anti-entropy sync, and — when the ledger has moved past the last
    /// published version — the publish cadence. Drivers using
    /// wake-coalescing schedule exactly one timer at this instant
    /// instead of polling on a fixed sub-second tick; ticking earlier
    /// or later than the returned time is still correct (all deadlines
    /// are absolute), it just wastes or delays work.
    ///
    /// Called after every packet and every timer, so it costs
    /// `O(suspicions + relays)` — both empty in steady state — and
    /// never walks the ledger: the version is one of the summaries the
    /// ledger maintains (see [`crate::view`]).
    #[must_use]
    pub fn next_wake(&self, now: f64) -> f64 {
        let mut wake = self.next_period_at.unwrap_or(now);
        if let Some(o) = &self.outstanding {
            if !o.acked && !o.indirect_sent {
                wake = wake.min(o.direct_deadline);
            }
        }
        for s in self.suspicions.values() {
            wake = wake.min(s.deadline);
        }
        for r in &self.relays {
            wake = wake.min(r.deadline);
        }
        if self.cfg.anti_entropy.enabled && !self.departed {
            wake = wake.min(self.next_sync_at.unwrap_or(now));
        }
        if self.ledger.version() > self.published_version {
            wake = wake.min(self.next_publish_at);
        }
        wake.max(now)
    }

    /// Handle one decoded SWIM datagram.
    pub fn on_message(&mut self, now: f64, msg: &SwimMsg, out: &mut Vec<SwimMsg>) {
        self.apply_updates(now, &msg.updates);
        let (from, seq) = (msg.from, msg.seq);
        match msg.kind {
            SwimKind::Ping => {
                // A ping proves the sender exists; incarnation 0 is the
                // weakest claim, so stale knowledge is never overwritten.
                self.ledger_apply(now, from, 0, false);
                let mut updates = self.take_piggyback();
                // A pinger our ledger marks dead doesn't know it was
                // confirmed faulty (the original gossip has long left
                // the queue): echo the verdict so it can refute with a
                // higher incarnation and rejoin instead of staying
                // split-brained forever.
                if let Some(state) = self.ledger.state(from) {
                    if state.dead && !updates.iter().any(|u| u.id == from) {
                        updates.push(SwimUpdate {
                            id: from,
                            incarnation: state.incarnation,
                            status: SwimStatus::Faulty,
                        });
                    }
                }
                out.push(self.frame(from, seq, SwimKind::Ack, updates));
            }
            SwimKind::Ack => {
                if let Some(o) = &mut self.outstanding {
                    if o.seq == seq && o.target == from && !o.acked {
                        o.acked = true;
                        self.metrics.probe_acked.inc();
                    }
                }
                // Serve any ping-req this ack answers.
                if let Some(pos) = self
                    .relays
                    .iter()
                    .position(|r| r.seq == seq && r.target == from)
                {
                    let relay = self.relays.swap_remove(pos);
                    let updates = self.take_piggyback();
                    let kind = SwimKind::ProxyAck {
                        target: relay.target,
                    };
                    out.push(self.frame(relay.origin, relay.origin_seq, kind, updates));
                }
            }
            SwimKind::PingReq { target } => {
                self.ledger_apply(now, from, 0, false);
                self.seq = self.seq.wrapping_add(1);
                self.relays.push(Relay {
                    origin: from,
                    origin_seq: seq,
                    target,
                    seq: self.seq,
                    deadline: now + 2.0 * PING_TIMEOUT_S + PERIOD_S,
                });
                let updates = self.take_piggyback();
                out.push(self.frame(target, self.seq, SwimKind::Ping, updates));
            }
            SwimKind::ProxyAck { target } => {
                if let Some(o) = &mut self.outstanding {
                    if o.seq == seq && o.target == target && !o.acked {
                        o.acked = true;
                        self.metrics.probe_acked.inc();
                    }
                }
            }
            SwimKind::SyncReq { chunk, chunks } => {
                // The push half was already merged chunk-by-chunk by
                // `apply_updates` above; the pull half — everything we
                // know better than the push claimed — answers once per
                // `seq`, over the reassembled claim set, so a chunked
                // sync still costs O(n) per round. The answered-`seq`
                // memory also keeps a duplicated (or replayed) request
                // from re-eliciting the delta — the merge above is an
                // idempotent no-op, the response would be an amplifier.
                if self.answered_syncs.get(&from) == Some(&seq) {
                    return;
                }
                let claims = if chunks == 1 {
                    Some(msg.updates.clone())
                } else {
                    self.absorb_sync_chunk(now, from, seq, chunk, chunks, &msg.updates)
                };
                if let Some(claims) = claims {
                    self.answered_syncs.insert(from, seq);
                    // An explicitly empty response is still sent so the
                    // initiator learns the pair is converged (and the
                    // partner reachable).
                    let delta = self.sync_delta(&claims);
                    let mut frames: Vec<Vec<SwimUpdate>> = delta
                        .chunks(SWIM_MTU_FRAME_ENTRIES)
                        .map(<[SwimUpdate]>::to_vec)
                        .collect();
                    if frames.is_empty() {
                        frames.push(Vec::new());
                    }
                    for frame in frames {
                        out.push(self.frame(from, seq, SwimKind::SyncRsp, frame));
                    }
                }
            }
            // The pull half: the generic merge above does the work;
            // an (empty or not) response also closes any digest round
            // in flight with this partner.
            SwimKind::SyncRsp => {
                if self.outstanding_digest == Some((from, seq)) {
                    self.outstanding_digest = None;
                }
            }
            SwimKind::SyncDigest { fingerprint, known } => {
                if self.outstanding_digest == Some((from, seq)) {
                    // The partner echoed our round's digest back: the
                    // fingerprints disagree, so the short-circuit
                    // failed — proceed with the full push-pull.
                    self.outstanding_digest = None;
                    self.metrics.full_pushes.inc();
                    self.push_full_ledger(from, out);
                } else if self.answered_digests.get(&from) == Some(&seq) {
                    // Duplicated or stale frame from an already-answered
                    // round: answering again would start a data-free
                    // digest ping-pong between diverged peers (and act
                    // as a replay amplifier).
                } else {
                    self.answered_digests.insert(from, seq);
                    let (my_fingerprint, my_known) = self.digest_fingerprint();
                    if fingerprint == my_fingerprint && known == my_known {
                        // Converged pair: skip the transfer. The empty
                        // response still tells the initiator the
                        // partner is reachable and the round is done.
                        self.metrics.digest_skips.inc();
                        out.push(self.frame(from, seq, SwimKind::SyncRsp, Vec::new()));
                    } else {
                        // Mismatch: echo our digest so the initiator
                        // pushes its full ledger — and piggyback the
                        // first chunk of ours on the echo, sparing the
                        // initiator the round-trip it would otherwise
                        // spend waiting for our pull delta.
                        let kind = SwimKind::SyncDigestPush {
                            fingerprint: my_fingerprint,
                            known: my_known,
                        };
                        let updates = self.ledger_updates().take(SWIM_MTU_FRAME_ENTRIES).collect();
                        out.push(self.frame(from, seq, kind, updates));
                    }
                }
            }
            SwimKind::SyncDigestPush { .. } => {
                // The piggybacked chunk was already merged by the
                // generic `apply_updates` above; what remains is the
                // mismatch echo closing our digest round. A frame that
                // matches no round in flight (duplicate or replay) is
                // dropped — the merge above was an idempotent no-op and
                // answering would amplify.
                if self.outstanding_digest == Some((from, seq)) {
                    self.outstanding_digest = None;
                    self.metrics.piggyback_saved.inc();
                    self.metrics.full_pushes.inc();
                    self.push_full_ledger(from, out);
                }
            }
        }
    }

    /// A frame from this node to `to`.
    fn frame(&self, to: NodeId, seq: u32, kind: SwimKind, updates: Vec<SwimUpdate>) -> SwimMsg {
        SwimMsg {
            from: self.me,
            to,
            seq,
            kind,
            updates,
        }
    }

    /// Stash one chunk of a multi-chunk sync; `Some(all claims)` once
    /// the set is complete. At most one pending sync per sender: a
    /// different `seq` (or shape) from the same sender replaces the old
    /// one, so a lost chunk wastes one round and leaks nothing.
    fn absorb_sync_chunk(
        &mut self,
        now: f64,
        from: NodeId,
        seq: u32,
        chunk: u8,
        total: u8,
        updates: &[SwimUpdate],
    ) -> Option<Vec<SwimUpdate>> {
        let fresh = || PendingSync {
            seq,
            total,
            opened_at: now,
            chunks: BTreeMap::new(),
        };
        let pending = self
            .pending_syncs
            .entry(from)
            .and_modify(|p| {
                if p.seq != seq || p.total != total {
                    *p = fresh();
                }
            })
            .or_insert_with(fresh);
        pending.chunks.insert(chunk, updates.to_vec());
        if pending.chunks.len() < usize::from(total) {
            return None;
        }
        let complete = self.pending_syncs.remove(&from).expect("just inserted");
        Some(complete.chunks.into_values().flatten().collect())
    }

    /// Forget reassemblies whose first chunk is a whole sync period
    /// old. The chunks of one push leave back to back, so a set still
    /// incomplete by then lost a chunk for good; its sender's next
    /// round carries a new `seq` and starts over anyway. Each one
    /// forgotten counts in `membership/sync_chunks_dropped` (registered
    /// on the first drop, so a run that never drops exports no such
    /// cell).
    fn drop_overdue_syncs(&mut self, now: f64) {
        if self.pending_syncs.is_empty() {
            return;
        }
        let period = self.cfg.anti_entropy.sync_period_s;
        let before = self.pending_syncs.len();
        self.pending_syncs.retain(|_, p| now - p.opened_at < period);
        let dropped = before - self.pending_syncs.len();
        if dropped > 0 {
            self.telemetry
                .counter("membership", "sync_chunks_dropped")
                .add(dropped as u64);
        }
    }

    /// Batched view publication: the current view when the publish
    /// cadence has elapsed *and* the ledger moved past the last
    /// published version. All events confirmed since the previous
    /// publication collapse into one installed view.
    pub fn poll_view(&mut self, now: f64) -> Option<MembershipView> {
        if now < self.next_publish_at {
            return None;
        }
        self.next_publish_at = now + PUBLISH_PERIOD_S;
        let version = self.ledger.version();
        if version > self.published_version {
            self.published_version = version;
            Some(self.current_view())
        } else {
            None
        }
    }

    /// Announce a voluntary departure: gossip `Left` directly to a few
    /// live peers (the node stops ticking afterwards, so the update
    /// must leave immediately rather than ride the queue).
    pub fn leave(&mut self, out: &mut Vec<SwimMsg>) {
        let update = SwimUpdate {
            id: self.me,
            incarnation: self.incarnation,
            status: SwimStatus::Left,
        };
        self.departed = true;
        self.ledger.apply(self.me, self.incarnation, true);
        let (me, ledger) = (self.me, &self.ledger);
        let (chosen, picked) = pick_fanout(&mut self.rng, || {
            ledger.live_ids().filter(move |&p| p != me)
        });
        for &peer in &chosen[..picked] {
            self.seq = self.seq.wrapping_add(1);
            out.push(self.frame(peer, self.seq, SwimKind::Ping, vec![update]));
        }
    }

    // ------------------------------------------------------------------
    // Probe rounds
    // ------------------------------------------------------------------

    fn start_probe_round(&mut self, now: f64, out: &mut Vec<SwimMsg>) {
        let Some(target) = self.next_target() else {
            return;
        };
        self.seq = self.seq.wrapping_add(1);
        self.outstanding = Some(Outstanding {
            target,
            seq: self.seq,
            direct_deadline: now + PING_TIMEOUT_S,
            indirect_sent: false,
            acked: false,
        });
        self.metrics.probe_sent.inc();
        let updates = self.take_piggyback();
        out.push(self.frame(target, self.seq, SwimKind::Ping, updates));
    }

    /// Judge the previous period's probe: a silent target becomes
    /// suspected. The outcome also feeds the Lifeguard local-health
    /// counter — a missed ack is as likely our own lossy link as the
    /// target's crash, so it slows *our* future verdicts; a clean round
    /// drains the counter. The suspicion just started is judged with
    /// the health accumulated *before* this round, so one isolated miss
    /// doesn't inflate its own verdict.
    fn finish_probe_round(&mut self, now: f64) {
        let Some(o) = self.outstanding.take() else {
            return;
        };
        if o.acked {
            self.local_health = self.local_health.saturating_sub(1);
            return;
        }
        if !self.ledger.is_live(o.target) {
            return;
        }
        let incarnation = self.ledger.incarnation(o.target);
        self.start_suspicion(now, o.target, incarnation);
        self.bump_local_health();
    }

    fn bump_local_health(&mut self) {
        self.local_health = (self.local_health + 1).min(MAX_LOCAL_HEALTH);
    }

    fn fire_indirect_probes(&mut self, now: f64, out: &mut Vec<SwimMsg>) {
        let Some(o) = &self.outstanding else { return };
        if o.acked || o.indirect_sent || now < o.direct_deadline {
            return;
        }
        let (target, seq) = (o.target, o.seq);
        let (me, ledger) = (self.me, &self.ledger);
        let (helpers, picked) = pick_fanout(&mut self.rng, || {
            ledger.live_ids().filter(move |&p| p != me && p != target)
        });
        for &helper in &helpers[..picked] {
            let updates = self.take_piggyback();
            out.push(self.frame(helper, seq, SwimKind::PingReq { target }, updates));
        }
        if let Some(o) = &mut self.outstanding {
            o.indirect_sent = true;
        }
    }

    /// Round-robin over a shuffled rotation of live peers; reshuffles
    /// when the rotation is exhausted (every peer is probed once per
    /// `n − 1` periods — SWIM's bounded-detection-time property).
    fn next_target(&mut self) -> Option<NodeId> {
        for _rebuild in 0..2 {
            while self.probe_pos < self.probe_order.len() {
                let candidate = self.probe_order[self.probe_pos];
                self.probe_pos += 1;
                if candidate != self.me && self.ledger.is_live(candidate) {
                    return Some(candidate);
                }
            }
            // The spent rotation's buffer holds the next one.
            let mut rotation = std::mem::take(&mut self.probe_order);
            rotation.clear();
            rotation.extend(self.ledger.live_ids().filter(|&m| m != self.me));
            rotation.shuffle(&mut self.rng);
            self.probe_order = rotation;
            self.probe_pos = 0;
            if self.probe_order.is_empty() {
                return None;
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Suspicion and dissemination
    // ------------------------------------------------------------------

    fn start_suspicion(&mut self, now: f64, id: NodeId, incarnation: u32) {
        let deadline = now + self.effective_suspicion_timeout_s();
        match self.suspicions.get_mut(&id) {
            Some(existing) if existing.incarnation >= incarnation => {}
            Some(existing) => {
                existing.incarnation = incarnation;
                existing.deadline = deadline;
            }
            None => {
                self.suspicions.insert(
                    id,
                    Suspicion {
                        incarnation,
                        deadline,
                        started_s: now,
                    },
                );
                self.metrics.suspicion_raised.inc();
                if self.tracer.enabled() {
                    // A fresh suspicion opens (or re-activates) the
                    // convergence episode for the suspect — derived
                    // deterministically from (member, incarnation), so
                    // every node that suspects independently lands on
                    // the same episode id with no coordination.
                    let episode = episode_id(id.0, incarnation);
                    if self.active_trace.is_none_or(|c| c.episode != episode) {
                        self.active_trace = Some(TraceCtx {
                            episode,
                            origin: self.me.0,
                            hop: 0,
                        });
                    }
                    self.trace_hot_until = now + self.trace_window_s();
                }
            }
        }
        self.enqueue_gossip(SwimUpdate {
            id,
            incarnation,
            status: SwimStatus::Suspect,
        });
    }

    fn confirm_expired_suspicions(&mut self, now: f64) {
        let expired: Vec<(NodeId, u32, f64)> = self
            .suspicions
            .iter()
            .filter(|(_, s)| s.deadline <= now)
            .map(|(&id, s)| (id, s.incarnation, s.started_s))
            .collect();
        for (id, incarnation, started_s) in expired {
            self.suspicions.remove(&id);
            if self.ledger_apply(now, id, incarnation, true) {
                if self.tracer.enabled() {
                    // The suspicion span covers open → confirm; the
                    // confirm instant hangs beneath it. Parented on the
                    // episode root so every node's spans assemble into
                    // one tree without cross-node id exchange.
                    let episode = episode_id(id.0, incarnation);
                    let suspicion = self.tracer.record(
                        SpanKind::Suspicion,
                        episode,
                        episode_root_span(episode),
                        u32::from(id.0),
                        started_s,
                        now,
                    );
                    let confirm = self.tracer.instant(
                        SpanKind::Confirm,
                        episode,
                        suspicion,
                        u32::from(id.0),
                        now,
                    );
                    self.last_confirm = Some((episode, confirm));
                    if self.active_trace.is_none_or(|c| c.episode != episode) {
                        self.active_trace = Some(TraceCtx {
                            episode,
                            origin: self.me.0,
                            hop: 0,
                        });
                    }
                    self.trace_hot_until = now + self.trace_window_s();
                }
                self.enqueue_gossip(SwimUpdate {
                    id,
                    incarnation,
                    status: SwimStatus::Faulty,
                });
            }
        }
    }

    fn apply_updates(&mut self, now: f64, updates: &[SwimUpdate]) {
        for u in updates {
            if u.id == self.me {
                self.refute_if_needed(*u);
                continue;
            }
            match u.status {
                SwimStatus::Alive => {
                    if self.ledger_apply(now, u.id, u.incarnation, false) {
                        // A higher incarnation refutes any older suspicion.
                        if self
                            .suspicions
                            .get(&u.id)
                            .is_some_and(|s| u.incarnation > s.incarnation)
                        {
                            self.suspicions.remove(&u.id);
                            self.metrics.suspicion_refuted.inc();
                        }
                        self.enqueue_gossip(*u);
                    }
                }
                SwimStatus::Suspect => {
                    if self.ledger.state(u.id).is_some_and(|s| s.dead)
                        || u.incarnation < self.ledger.incarnation(u.id)
                    {
                        continue; // stale suspicion
                    }
                    // A suspected member is still a member at that
                    // incarnation.
                    self.ledger_apply(now, u.id, u.incarnation, false);
                    let fresh = match self.suspicions.get(&u.id) {
                        Some(s) => u.incarnation > s.incarnation,
                        None => true,
                    };
                    if fresh {
                        self.start_suspicion(now, u.id, u.incarnation);
                    }
                }
                SwimStatus::Faulty | SwimStatus::Left => {
                    if self.ledger_apply(now, u.id, u.incarnation, true) {
                        self.suspicions.remove(&u.id);
                        self.enqueue_gossip(*u);
                    }
                }
            }
        }
    }

    /// Somebody claims *we* are suspected/faulty: bump our incarnation
    /// and gossip a fresh `Alive`, the SWIM refutation. A node that
    /// announced its own departure stops refuting — otherwise its
    /// `Left` gossip echoing back would resurrect it.
    fn refute_if_needed(&mut self, u: SwimUpdate) {
        if self.departed || u.status == SwimStatus::Alive || u.incarnation < self.incarnation {
            return;
        }
        self.incarnation = u.incarnation.wrapping_add(1);
        self.ledger.apply(self.me, self.incarnation, false);
        self.metrics.suspicion_refuted.inc();
        self.enqueue_gossip(SwimUpdate {
            id: self.me,
            incarnation: self.incarnation,
            status: SwimStatus::Alive,
        });
        // Lifeguard: needing to defend ourselves is evidence our acks
        // are getting lost — slow our own verdicts.
        self.bump_local_health();
    }

    // ------------------------------------------------------------------
    // Anti-entropy (push-pull full-ledger sync)
    // ------------------------------------------------------------------

    /// Initiate one push-pull sync round when the cadence has elapsed.
    /// The first round is staggered uniformly inside one sync period so
    /// a fleet bootstrapped at the same instant doesn't synchronize its
    /// sync traffic.
    fn run_anti_entropy(&mut self, now: f64, out: &mut Vec<SwimMsg>) {
        if !self.cfg.anti_entropy.enabled || self.departed {
            return;
        }
        let period = self.cfg.anti_entropy.sync_period_s;
        match self.next_sync_at {
            None => {
                self.next_sync_at = Some(now + self.rng.gen_range(0.0..period));
            }
            Some(t) if now >= t => {
                self.next_sync_at = Some(now + period);
                self.start_sync(now, out);
            }
            Some(_) => {}
        }
    }

    /// The ledger fingerprint carried by digest frames: the FNV content
    /// hash plus the known-member count. Never the salted version sum —
    /// its small-integer weights would let two *diverged* ledgers
    /// (e.g. the two sides of a healed partition) collide at
    /// percent-level odds and silently pin anti-entropy off between
    /// them; the content hash collides at ≈ 2⁻³².
    fn digest_fingerprint(&self) -> (u32, u16) {
        let known = self.ledger.known().min(usize::from(u16::MAX)) as u16;
        (self.ledger.fingerprint(), known)
    }

    /// The members a sync round may be opened towards at `now`, in
    /// ledger order: everyone ever heard of but this node and the
    /// tombstone-expired. Only a dead record can have a tombstone
    /// (every event about another member goes through `ledger_apply`),
    /// so live members skip that lookup.
    fn sync_partners(&self, now: f64) -> impl Iterator<Item = NodeId> + '_ {
        self.ledger
            .iter()
            .filter(move |&(id, state)| {
                id != self.me && !(state.dead && self.is_tombstone_expired(id, now))
            })
            .map(|(id, _)| id)
    }

    /// Open one sync round towards a partner chosen uniformly from
    /// every member ever heard of — dead or alive (see
    /// [`AntiEntropyConfig`] for why dead partners must stay in the
    /// pool) — except members whose tombstone has expired
    /// ([`TOMBSTONE_GC_SYNCS`]): a ledger full of
    /// permanently dead members would otherwise waste a growing share
    /// of rounds syncing into silence. The round opens with a 15-byte
    /// fingerprint.
    ///
    /// The choice draws once: count the eligible partners, draw an
    /// index below the count, take that one in ledger order — the draw
    /// `choose` would make over the collected pool, without the pool.
    /// An empty pool draws nothing.
    fn start_sync(&mut self, now: f64, out: &mut Vec<SwimMsg>) {
        let count = self.sync_partners(now).count();
        if count == 0 {
            return;
        }
        let pick = self.rng.gen_range(0..count);
        let target = self
            .sync_partners(now)
            .nth(pick)
            .expect("pick is below the count");
        if let Some(ctx) = self.gossip_trace(now) {
            // Sync rounds inside an episode's hot window are part of
            // the heal story — record which partner this round chose.
            self.tracer.instant(
                SpanKind::SyncRound,
                ctx.episode,
                0,
                u32::from(target.0),
                now,
            );
        }
        self.seq = self.seq.wrapping_add(1);
        self.outstanding_digest = Some((target, self.seq));
        self.metrics.digest_rounds.inc();
        let (fingerprint, known) = self.digest_fingerprint();
        let kind = SwimKind::SyncDigest { fingerprint, known };
        out.push(self.frame(target, self.seq, kind, Vec::new()));
    }

    /// The push half of a round: the full ledger, chunked, to `target`.
    fn push_full_ledger(&mut self, target: NodeId, out: &mut Vec<SwimMsg>) {
        self.seq = self.seq.wrapping_add(1);
        let seq = self.seq;
        let mut records = self.ledger.known();
        // Widen frames past the MTU-friendly default if the chunk index
        // byte would otherwise overflow; a ledger beyond the wire's
        // 255 × 255 ceiling (impossible to reach before exhausting the
        // u16 id space minus 511) is truncated for this round.
        let mut per_frame = SWIM_MTU_FRAME_ENTRIES.max(records.div_ceil(u8::MAX.into()));
        if per_frame > SWIM_MAX_FRAME_ENTRIES {
            per_frame = SWIM_MAX_FRAME_ENTRIES;
            records = records.min(SWIM_MAX_FRAME_ENTRIES * usize::from(u8::MAX));
        }
        let total = records.div_ceil(per_frame) as u8;
        let mut entries = self.ledger_updates().take(records);
        for chunk in 0..total {
            let kind = SwimKind::SyncReq {
                chunk,
                chunks: total,
            };
            out.push(self.frame(
                target,
                seq,
                kind,
                entries.by_ref().take(per_frame).collect(),
            ));
        }
    }

    /// One ledger record as a wire record: `(incarnation, dead)`
    /// encodes as `Alive` / `Faulty`, the exact event
    /// [`ViewLedger::apply`] replays on the receiving side. Suspicion
    /// is transient and never synced.
    fn record_to_update(id: NodeId, state: MemberState) -> SwimUpdate {
        SwimUpdate {
            id,
            incarnation: state.incarnation,
            status: if state.dead {
                SwimStatus::Faulty
            } else {
                SwimStatus::Alive
            },
        }
    }

    /// The full ledger as wire records, ascending by id.
    fn ledger_updates(&self) -> impl Iterator<Item = SwimUpdate> + '_ {
        self.ledger
            .iter()
            .map(|(id, state)| Self::record_to_update(id, state))
    }

    /// The pull half of a sync: every record where our (post-merge)
    /// ledger strictly supersedes what the push claimed, plus every
    /// member the push did not mention. Computed once per sync round
    /// over the full (reassembled) claim set.
    ///
    /// An honest push is the sender's ledger in order, so its claims
    /// ascend strictly by id and one cursor walks them beside our own
    /// records. Anything else a peer may send — unsorted, an id listed
    /// twice — is looked up through a map, where the last claim about
    /// an id stands for it; the answer is the same function of the
    /// claim set either way.
    fn sync_delta(&self, claimed: &[SwimUpdate]) -> Vec<SwimUpdate> {
        let ascending = claimed.windows(2).all(|w| w[0].id < w[1].id);
        let mut cursor = claimed.iter().peekable();
        let by_id: BTreeMap<NodeId, &SwimUpdate> = if ascending {
            BTreeMap::new()
        } else {
            claimed.iter().map(|u| (u.id, u)).collect()
        };
        self.ledger
            .iter()
            .filter(|&(id, state)| {
                let claim = if ascending {
                    while cursor.next_if(|c| c.id < id).is_some() {}
                    cursor.peek().copied().filter(|c| c.id == id)
                } else {
                    by_id.get(&id).copied()
                };
                claim.is_none_or(|c| {
                    MemberState {
                        incarnation: c.incarnation,
                        dead: c.status.is_dead(),
                    }
                    .superseded_by(state.incarnation, state.dead)
                })
            })
            .map(|(id, state)| Self::record_to_update(id, state))
            .collect()
    }

    /// Queue an event for dissemination, superseding any queued event
    /// about the same member.
    fn enqueue_gossip(&mut self, update: SwimUpdate) {
        self.gossip.retain(|g| g.update.id != update.id);
        self.gossip.push_back(Gossip {
            update,
            remaining: GOSSIP_TRANSMISSIONS,
        });
    }

    /// Up to [`MAX_PIGGYBACK`] queued events, round-robin, each drawn
    /// from its retransmission budget.
    fn take_piggyback(&mut self) -> Vec<SwimUpdate> {
        let take = MAX_PIGGYBACK.min(self.gossip.len());
        let mut updates = Vec::with_capacity(take);
        for _ in 0..take {
            let Some(mut g) = self.gossip.pop_front() else {
                break;
            };
            updates.push(g.update);
            g.remaining -= 1;
            if g.remaining > 0 {
                self.gossip.push_back(g);
            }
        }
        updates
    }
}

/// Up to [`PING_REQ_FANOUT`] distinct members of `pool()` in random
/// order, as `(members, how many)` — the members and the draws
/// `choose_multiple` gives over the collected pool, without collecting
/// it. `pool` is walked more than once (to count, then per pick), so it
/// must yield the same sequence every time.
///
/// `choose_multiple` runs a partial Fisher–Yates over the index vector
/// `0..len`: step `i` swaps position `i` with a drawn `j ∈ i..len` and
/// picks what lands at `i`. Only the drawn positions ever hold anything
/// but their own index, so the writes to them — one per step, the
/// latest standing — stand in for the vector.
fn pick_fanout<I: Iterator<Item = NodeId>>(
    rng: &mut ChaCha8Rng,
    pool: impl Fn() -> I,
) -> ([NodeId; PING_REQ_FANOUT], usize) {
    let len = pool().count();
    let amount = PING_REQ_FANOUT.min(len);
    // `written[k]`: the `(position, index)` step `k` wrote at its `j`.
    let mut written = [(0usize, 0usize); PING_REQ_FANOUT];
    let mut members = [NodeId(0); PING_REQ_FANOUT];
    for i in 0..amount {
        let j = rng.gen_range(i..len);
        let at = |p: usize| {
            let latest = written[..i].iter().rev().find(|w| w.0 == p);
            latest.map_or(p, |w| w.1)
        };
        let (picked, displaced) = (at(j), at(i));
        written[i] = (j, displaced);
        members[i] = pool().nth(picked).expect("an index below the count");
    }
    (members, amount)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u16]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    impl Swim {
        /// The full ledger as the records of one push.
        fn ledger_entries(&self) -> Vec<SwimUpdate> {
            self.ledger_updates().collect()
        }
    }

    /// Probe-centric tests count exact per-tick messages, so the
    /// periodic sync traffic is disabled here; the anti-entropy tests
    /// below enable it explicitly.
    fn cfg(seed: u64) -> SwimConfig {
        SwimConfig {
            anti_entropy: AntiEntropyConfig::disabled(),
            seed,
        }
    }

    fn sync_cfg(seed: u64, sync_period_s: f64) -> SwimConfig {
        SwimConfig {
            anti_entropy: AntiEntropyConfig {
                enabled: true,
                sync_period_s,
            },
            seed,
        }
    }

    /// A syncing node reporting into a registry of its own, so its
    /// anti-entropy counters can be read through the snapshot.
    fn syncing(id: u16, seed: u64, members: &[NodeId]) -> Swim {
        Swim::bootstrap(NodeId(id), sync_cfg(seed, 1.0), members)
            .with_telemetry(Telemetry::new(u32::from(id)))
    }

    /// The counter `membership/<name>` of `swim`, read through its
    /// registry's snapshot.
    fn sync_count(swim: &Swim, name: &str) -> u64 {
        swim.telemetry.snapshot().counter_total("membership", name)
    }

    #[test]
    fn bootstrap_views_agree_without_traffic() {
        let members = ids(&[0, 1, 2, 3]);
        let a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        let b = Swim::bootstrap(NodeId(3), cfg(99), &members);
        assert_eq!(a.current_view(), b.current_view());
        assert_eq!(a.current_view().members, members);
    }

    #[test]
    fn probe_round_pings_one_live_peer() {
        let members = ids(&[0, 1, 2, 3]);
        let mut s = Swim::bootstrap(NodeId(0), cfg(7), &members);
        let mut out = Vec::new();
        s.on_tick(0.0, &mut out);
        assert_eq!(out.len(), 1, "one ping per period");
        let SwimMsg {
            from,
            to,
            kind: SwimKind::Ping,
            ..
        } = out[0]
        else {
            panic!("expected ping, got {:?}", out[0])
        };
        assert_eq!(from, NodeId(0));
        assert_ne!(to, NodeId(0));
        // Within the same period, no further pings.
        let mut out2 = Vec::new();
        s.on_tick(0.1, &mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn ack_prevents_suspicion() {
        let members = ids(&[0, 1]);
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        let mut b = Swim::bootstrap(NodeId(1), cfg(2), &members);
        let mut out = Vec::new();
        a.on_tick(0.0, &mut out);
        let ping = out.pop().expect("ping");
        let mut reply = Vec::new();
        b.on_message(0.05, &ping, &mut reply);
        let ack = reply.pop().expect("ack");
        assert_eq!(ack.to, NodeId(0));
        a.on_message(0.1, &ack, &mut Vec::new());
        // Period rolls over: no suspicion of node 1.
        a.on_tick(2.0, &mut Vec::new());
        assert!(!a.is_suspected(NodeId(1)));
        assert!(a.ledger().is_live(NodeId(1)));
    }

    #[test]
    fn silent_peer_is_suspected_then_confirmed() {
        let members = ids(&[0, 1]);
        let timeout = suspicion_timeout_s_for(2);
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        let mut out = Vec::new();
        a.on_tick(0.0, &mut out); // ping sent, never answered
        a.on_tick(0.6, &mut out); // indirect probes (nobody to ask in n=2)
        a.on_tick(2.0, &mut out); // period judgment → suspect
        assert!(a.is_suspected(NodeId(1)));
        assert!(a.ledger().is_live(NodeId(1)), "suspicion is not removal");
        let before = a.ledger().version();
        a.on_tick(2.0 + timeout + 0.1, &mut out);
        assert!(!a.is_suspected(NodeId(1)));
        assert!(!a.ledger().is_live(NodeId(1)), "confirmed faulty");
        assert!(a.ledger().version() > before);
    }

    #[test]
    fn ping_req_round_trip_defeats_a_dead_direct_path() {
        // a → b direct path is "down" (we simply don't deliver a's
        // ping); helper h relays and b's ack comes back as ProxyAck.
        let members = ids(&[0, 1, 2]);
        let mut a = Swim::bootstrap(NodeId(0), cfg(5), &members);
        let mut h = Swim::bootstrap(NodeId(2), cfg(6), &members);
        let mut b = Swim::bootstrap(NodeId(1), cfg(7), &members);

        let mut out = Vec::new();
        a.on_tick(0.0, &mut out);
        let target = out.pop().expect("ping").to;
        // Force the scenario where the probe target is node 1; with
        // seed 5 the first rotation may pick node 2 — then swap roles.
        let (target_node, helper_node) = if target == NodeId(1) {
            (&mut b, &mut h)
        } else {
            (&mut h, &mut b)
        };

        // Direct deadline passes → ping-req to the remaining peer.
        let mut out = Vec::new();
        a.on_tick(0.6, &mut out);
        assert_eq!(out.len(), 1, "one helper available");
        let ping_req = out.pop().expect("ping-req");
        assert!(matches!(ping_req.kind, SwimKind::PingReq { .. }));

        let mut relayed = Vec::new();
        helper_node.on_message(0.7, &ping_req, &mut relayed);
        let relay_ping = relayed.pop().expect("relayed ping");
        assert_eq!(relay_ping.to, target);
        let mut acked = Vec::new();
        target_node.on_message(0.8, &relay_ping, &mut acked);
        let ack = acked.pop().expect("ack to helper");
        assert_eq!(ack.to, ping_req.to);
        let mut proxied = Vec::new();
        helper_node.on_message(0.9, &ack, &mut proxied);
        let proxy_ack = proxied.pop().expect("proxy-ack to origin");
        assert_eq!(proxy_ack.to, NodeId(0));
        a.on_message(1.0, &proxy_ack, &mut Vec::new());

        // Judgment at the period boundary: no suspicion.
        a.on_tick(2.0, &mut Vec::new());
        assert!(!a.is_suspected(target));
    }

    #[test]
    fn suspicion_is_refuted_by_higher_incarnation() {
        let members = ids(&[0, 1, 2]);
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        // Gossip arrives: node 1 suspected at incarnation 0.
        let suspect = SwimMsg {
            from: NodeId(2),
            to: NodeId(0),
            seq: 1,
            kind: SwimKind::Ping,
            updates: vec![SwimUpdate {
                id: NodeId(1),
                incarnation: 0,
                status: SwimStatus::Suspect,
            }],
        };
        a.on_message(1.0, &suspect, &mut Vec::new());
        assert!(a.is_suspected(NodeId(1)));
        // Node 1 refutes with incarnation 1.
        let refute = SwimMsg {
            from: NodeId(1),
            to: NodeId(0),
            seq: 2,
            kind: SwimKind::Ping,
            updates: vec![SwimUpdate {
                id: NodeId(1),
                incarnation: 1,
                status: SwimStatus::Alive,
            }],
        };
        a.on_message(1.5, &refute, &mut Vec::new());
        assert!(!a.is_suspected(NodeId(1)));
        assert!(a.ledger().is_live(NodeId(1)));
        assert_eq!(a.ledger().incarnation(NodeId(1)), 1);
    }

    #[test]
    fn node_refutes_its_own_suspicion() {
        let members = ids(&[0, 1]);
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        let gossip = SwimMsg {
            from: NodeId(1),
            to: NodeId(0),
            seq: 3,
            kind: SwimKind::Ping,
            updates: vec![SwimUpdate {
                id: NodeId(0),
                incarnation: 0,
                status: SwimStatus::Suspect,
            }],
        };
        let mut out = Vec::new();
        a.on_message(0.5, &gossip, &mut out);
        assert_eq!(a.incarnation(), 1, "incarnation bumped to refute");
        // The refutation rides the ack's piggyback.
        let ack = out.pop().expect("ack");
        assert!(ack
            .updates
            .iter()
            .any(|u| { u.id == NodeId(0) && u.incarnation == 1 && u.status == SwimStatus::Alive }));
    }

    #[test]
    fn join_via_seed_discovers_both_ways() {
        let mut seed_node = Swim::bootstrap(NodeId(0), cfg(1), &ids(&[0, 1]));
        let mut joiner = Swim::new(NodeId(7), cfg(2), &[NodeId(0)]);
        assert_eq!(joiner.current_view().members, ids(&[0, 7]));
        // Joiner's first period pings the seed.
        let mut out = Vec::new();
        joiner.on_tick(0.0, &mut out);
        let ping = out.pop().expect("join ping");
        assert_eq!(ping.to, NodeId(0));
        assert!(
            ping.updates
                .iter()
                .any(|u| u.id == NodeId(7) && u.status == SwimStatus::Alive),
            "join must announce itself"
        );
        let mut reply = Vec::new();
        seed_node.on_message(0.1, &ping, &mut reply);
        assert!(
            seed_node.ledger().is_live(NodeId(7)),
            "seed learned the joiner"
        );
        // And the seed's ack gossips the cluster to the joiner.
        let ack = reply.pop().expect("ack");
        joiner.on_message(0.2, &ack, &mut Vec::new());
        assert!(joiner.ledger().is_live(NodeId(1)) || !ack.updates.is_empty());
    }

    #[test]
    fn publish_batches_and_is_monotone() {
        let members = ids(&[0, 1, 2]);
        let mut s = Swim::bootstrap(NodeId(0), cfg(1), &members);
        let first = s.poll_view(0.0).expect("initial publish");
        assert_eq!(first.members, members);
        assert!(s.poll_view(0.5).is_none(), "cadence not elapsed");
        // Two confirmed events between publishes…
        s.apply_updates(
            3.0,
            &[
                SwimUpdate {
                    id: NodeId(9),
                    incarnation: 0,
                    status: SwimStatus::Alive,
                },
                SwimUpdate {
                    id: NodeId(1),
                    incarnation: 0,
                    status: SwimStatus::Faulty,
                },
            ],
        );
        // …collapse into a single new view.
        let second = s.poll_view(3.0).expect("batched publish");
        assert!(second.version > first.version);
        assert_eq!(second.members, ids(&[0, 2, 9]));
        assert!(s.poll_view(6.0).is_none(), "no further change");
    }

    #[test]
    fn gossip_budget_drains() {
        let members = ids(&[0, 1]);
        let mut s = Swim::bootstrap(NodeId(0), cfg(1), &members);
        s.enqueue_gossip(SwimUpdate {
            id: NodeId(5),
            incarnation: 0,
            status: SwimStatus::Alive,
        });
        for _ in 0..GOSSIP_TRANSMISSIONS {
            assert_eq!(s.take_piggyback().len(), 1);
        }
        assert!(s.take_piggyback().is_empty(), "budget exhausted");
    }

    #[test]
    fn dead_pinger_is_told_and_rejoins() {
        let members = ids(&[0, 1, 2]);
        let mut alive = Swim::bootstrap(NodeId(0), cfg(1), &members);
        // Node 1 was confirmed faulty at incarnation 0 long ago.
        alive.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(1),
                incarnation: 0,
                status: SwimStatus::Faulty,
            }],
        );
        // Drain the gossip queue: the Faulty event is no longer pending.
        while !alive.take_piggyback().is_empty() {}
        // The "dead" node recovers with its old state and pings us.
        let mut zombie = Swim::bootstrap(NodeId(1), cfg(2), &members);
        let mut pings = Vec::new();
        zombie.on_tick(100.0, &mut pings);
        // If the zombie's rotation picked node 2 first, craft the
        // equivalent direct ping.
        let ping = pings
            .into_iter()
            .find(|m| m.to == NodeId(0))
            .unwrap_or(SwimMsg {
                from: NodeId(1),
                to: NodeId(0),
                seq: 9,
                kind: SwimKind::Ping,
                updates: vec![],
            });
        let mut acks = Vec::new();
        alive.on_message(100.1, &ping, &mut acks);
        let ack = acks.pop().expect("ack");
        assert!(
            ack.updates
                .iter()
                .any(|u| u.id == NodeId(1) && u.status == SwimStatus::Faulty),
            "ack must echo the faulty verdict to the zombie"
        );
        // The zombie refutes with a higher incarnation…
        zombie.on_message(100.2, &ack, &mut Vec::new());
        assert_eq!(zombie.incarnation(), 1);
        // …and its next ping's piggyback resurrects it in our ledger.
        let refute = SwimMsg {
            from: NodeId(1),
            to: NodeId(0),
            seq: 10,
            kind: SwimKind::Ping,
            updates: vec![SwimUpdate {
                id: NodeId(1),
                incarnation: 1,
                status: SwimStatus::Alive,
            }],
        };
        alive.on_message(100.3, &refute, &mut Vec::new());
        assert!(alive.ledger().is_live(NodeId(1)), "rejoin must succeed");
    }

    #[test]
    fn departed_node_does_not_refute_its_own_left() {
        let members = ids(&[0, 1, 2]);
        let mut s = Swim::bootstrap(NodeId(2), cfg(1), &members);
        s.leave(&mut Vec::new());
        let inc_after_leave = s.incarnation();
        // The node's own Left gossip echoes back before shutdown.
        let echo = SwimMsg {
            from: NodeId(0),
            to: NodeId(2),
            seq: 4,
            kind: SwimKind::Ping,
            updates: vec![SwimUpdate {
                id: NodeId(2),
                incarnation: inc_after_leave,
                status: SwimStatus::Left,
            }],
        };
        s.on_message(1.0, &echo, &mut Vec::new());
        assert_eq!(s.incarnation(), inc_after_leave, "no self-resurrection");
        assert!(!s.ledger().is_live(NodeId(2)));
    }

    #[test]
    fn concurrent_distinct_confirmations_get_distinct_versions() {
        // The salted version weights: two ledgers diverging by events
        // about *different* members must (for these members) disagree
        // on the version, so colliding view numbers cannot pair with
        // different member lists.
        let members = ids(&[0, 1, 2, 3, 4]);
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        let mut b = Swim::bootstrap(NodeId(3), cfg(2), &members);
        a.apply_updates(
            1.0,
            &[SwimUpdate {
                id: NodeId(1),
                incarnation: 0,
                status: SwimStatus::Faulty,
            }],
        );
        b.apply_updates(
            1.0,
            &[SwimUpdate {
                id: NodeId(2),
                incarnation: 0,
                status: SwimStatus::Faulty,
            }],
        );
        let (va, vb) = (a.current_view(), b.current_view());
        assert_ne!(va.members, vb.members);
        assert_ne!(
            va.version, vb.version,
            "diverged ledgers must not share a version"
        );
    }

    #[test]
    fn suspicion_periods_scale_with_log_n() {
        // Small clusters keep the floor…
        assert_eq!(suspicion_periods_for(2), SUSPICION_PERIODS);
        assert_eq!(suspicion_periods_for(8), SUSPICION_PERIODS);
        // …large clusters scale ~log₂ n.
        assert_eq!(suspicion_periods_for(32), 5.0);
        assert_eq!(suspicion_periods_for(1024), 10.0);
        assert!(detection_budget_s(1024) > detection_budget_s(32));
    }

    #[test]
    fn timing_constants_keep_their_invariants() {
        const { assert!(PERIOD_S > 0.0) };
        // The indirect round must fit in what is left of the period.
        const { assert!(PING_TIMEOUT_S > 0.0 && PING_TIMEOUT_S < PERIOD_S / 2.0) };
        const { assert!(SUSPICION_PERIODS >= 1.0) };
        const { assert!(SUSPICION_LOG_SCALE >= 0.0) };
        const { assert!(PUBLISH_PERIOD_S > 0.0) };
        const { assert!(TOMBSTONE_GC_SYNCS >= 1) };
    }

    #[test]
    fn local_health_slows_own_verdicts_and_drains() {
        let members = ids(&[0, 1]);
        let base_timeout = suspicion_timeout_s_for(2);
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        assert_eq!(a.local_health(), 0);
        assert_eq!(a.effective_suspicion_timeout_s(), base_timeout);
        let ack = |a: &mut Swim, out: &mut Vec<SwimMsg>, t: f64| {
            let ping = out.pop().expect("ping");
            let SwimMsg {
                seq,
                kind: SwimKind::Ping,
                ..
            } = ping
            else {
                panic!("expected ping")
            };
            a.on_message(
                t,
                &SwimMsg {
                    from: NodeId(1),
                    to: NodeId(0),
                    seq,
                    kind: SwimKind::Ack,
                    updates: vec![],
                },
                &mut Vec::new(),
            );
        };
        // Period 1 answered: health stays 0. Period 2 silent: the
        // suspicion is judged at multiplier 1 (health *before* the
        // miss), then health rises and future verdicts would be slower.
        let mut out = Vec::new();
        a.on_tick(0.0, &mut out);
        ack(&mut a, &mut out, 0.1);
        a.on_tick(2.0, &mut out); // period 2's probe: left silent
        assert_eq!(a.local_health(), 0);
        out.clear();
        a.on_tick(4.0, &mut out); // judgment: suspect + health 1
        assert!(a.is_suspected(NodeId(1)));
        assert_eq!(a.local_health(), 1);
        assert_eq!(a.effective_suspicion_timeout_s(), 2.0 * base_timeout);
        // An answered round drains the counter back to 0.
        ack(&mut a, &mut out, 4.1);
        a.on_tick(6.0, &mut Vec::new());
        assert_eq!(a.local_health(), 0);
    }

    #[test]
    fn local_health_caps_at_config() {
        // Sixteen silent peers: the rotation reaches a fresh one every
        // period, none of them confirmed dead yet, so every period
        // keeps missing (and bumping health).
        let members: Vec<NodeId> = (0..17).map(NodeId).collect();
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        let cap = MAX_LOCAL_HEALTH;
        let mut t = 0.0;
        for _ in 0..(cap + 5) {
            t += 2.0;
            a.on_tick(t, &mut Vec::new());
        }
        assert_eq!(a.local_health(), cap);
    }

    #[test]
    fn refuting_own_suspicion_raises_local_health() {
        let members = ids(&[0, 1]);
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members);
        let gossip = SwimMsg {
            from: NodeId(1),
            to: NodeId(0),
            seq: 3,
            kind: SwimKind::Ping,
            updates: vec![SwimUpdate {
                id: NodeId(0),
                incarnation: 0,
                status: SwimStatus::Suspect,
            }],
        };
        a.on_message(0.5, &gossip, &mut Vec::new());
        assert_eq!(a.incarnation(), 1);
        assert_eq!(a.local_health(), 1);
    }

    #[test]
    fn sync_round_trip_reconciles_divergent_ledgers() {
        let members = ids(&[0, 1, 2, 3]);
        let mut a = Swim::bootstrap(NodeId(0), sync_cfg(1, 2.0), &members);
        let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members);
        // Diverge: a confirmed 2 faulty; b learned a join of 9.
        a.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(2),
                incarnation: 0,
                status: SwimStatus::Faulty,
            }],
        );
        b.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(9),
                incarnation: 0,
                status: SwimStatus::Alive,
            }],
        );
        assert_ne!(a.ledger(), b.ledger());
        // One full push-pull exchange a → b.
        let req = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 7,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: a.ledger_entries(),
        };
        let mut rsp = Vec::new();
        b.on_message(1.0, &req, &mut rsp);
        assert!(!rsp.is_empty(), "pull half must answer");
        for msg in &rsp {
            assert_eq!(msg.to, NodeId(0));
            assert!(matches!(
                msg,
                SwimMsg {
                    seq: 7,
                    kind: SwimKind::SyncRsp,
                    ..
                }
            ));
            a.on_message(1.1, msg, &mut Vec::new());
        }
        assert_eq!(a.ledger(), b.ledger(), "push-pull must converge the pair");
        assert_eq!(a.current_view(), b.current_view());
    }

    #[test]
    fn converged_sync_answers_with_empty_delta() {
        let members = ids(&[0, 1, 2]);
        let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members);
        let a = Swim::bootstrap(NodeId(0), sync_cfg(1, 2.0), &members);
        let req = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 9,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: a.ledger_entries(),
        };
        let mut rsp = Vec::new();
        b.on_message(1.0, &req, &mut rsp);
        assert_eq!(rsp.len(), 1);
        assert!(rsp[0].updates.is_empty(), "no delta when converged");
    }

    #[test]
    fn chunked_sync_answers_once_with_one_delta() {
        let members = ids(&[0, 1, 2, 3]);
        let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members);
        let a = Swim::bootstrap(NodeId(0), sync_cfg(1, 2.0), &members);
        let entries = a.ledger_entries();
        assert!(entries.len() >= 2, "need at least two records to chunk");
        let (first, rest) = entries.split_at(1);
        let frame = |chunk: u8, updates: &[SwimUpdate]| SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 5,
            kind: SwimKind::SyncReq { chunk, chunks: 2 },
            updates: updates.to_vec(),
        };
        // First chunk (delivered out of order): no response yet.
        let mut rsp = Vec::new();
        b.on_message(1.0, &frame(1, rest), &mut rsp);
        assert!(rsp.is_empty(), "partial sync must not answer");
        // Second chunk completes the set: exactly one (empty) delta —
        // the converged pair costs O(n), not O(n) per chunk.
        b.on_message(1.1, &frame(0, first), &mut rsp);
        assert_eq!(rsp.len(), 1);
        assert!(rsp[0].updates.is_empty());
        // A replayed chunk from the answered round is suppressed.
        let mut replay = Vec::new();
        b.on_message(1.2, &frame(0, first), &mut replay);
        assert!(replay.is_empty());
    }

    #[test]
    fn duplicated_single_frame_sync_is_answered_once() {
        let members = ids(&[0, 1, 2]);
        let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members);
        let a = Swim::bootstrap(NodeId(0), sync_cfg(1, 2.0), &members);
        let req = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 11,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: a.ledger_entries(),
        };
        let mut rsp = Vec::new();
        b.on_message(1.0, &req, &mut rsp);
        assert_eq!(rsp.len(), 1);
        // The network duplicates (or an attacker replays) the request:
        // no fresh delta — the response would be a traffic amplifier.
        let mut dup = Vec::new();
        b.on_message(1.5, &req, &mut dup);
        assert!(dup.is_empty(), "duplicate seq must not be re-answered");
        // The next round (new seq) is served normally.
        let next = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 12,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: a.ledger_entries(),
        };
        let mut rsp2 = Vec::new();
        b.on_message(3.0, &next, &mut rsp2);
        assert_eq!(rsp2.len(), 1);
    }

    #[test]
    fn interrupted_chunked_sync_is_replaced_by_the_next_round() {
        let members = ids(&[0, 1, 2, 3]);
        let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members);
        let a = Swim::bootstrap(NodeId(0), sync_cfg(1, 2.0), &members);
        let entries = a.ledger_entries();
        let (first, rest) = entries.split_at(1);
        let frame = |seq: u32, chunk: u8, updates: &[SwimUpdate]| SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq,
            kind: SwimKind::SyncReq { chunk, chunks: 2 },
            updates: updates.to_vec(),
        };
        let mut rsp = Vec::new();
        // Round 5 loses its second chunk…
        b.on_message(1.0, &frame(5, 0, first), &mut rsp);
        assert!(rsp.is_empty());
        // …round 6 replaces it and completes normally.
        b.on_message(3.0, &frame(6, 0, first), &mut rsp);
        assert!(rsp.is_empty(), "chunk 1 of round 6 still missing");
        b.on_message(3.1, &frame(6, 1, rest), &mut rsp);
        assert_eq!(rsp.len(), 1, "round 6 must complete");
    }

    #[test]
    fn sync_targets_include_confirmed_dead_members() {
        // The partition-healing property: a node whose ledger marks the
        // whole other side dead must still sync *towards* it.
        let members = ids(&[0, 1]);
        let mut a = Swim::bootstrap(NodeId(0), sync_cfg(3, 1.0), &members);
        a.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(1),
                incarnation: 0,
                status: SwimStatus::Faulty,
            }],
        );
        assert!(!a.ledger().is_live(NodeId(1)));
        // Node 1 is the only possible partner; over a few sync periods
        // a sync round towards it must open even though it is "dead"
        // (the opener is the digest frame).
        let mut out = Vec::new();
        let mut t = 0.0;
        while t < 10.0 {
            a.on_tick(t, &mut out);
            t += 0.25;
        }
        assert!(
            out.iter().any(|m| m.to == NodeId(1)
                && matches!(
                    m.kind,
                    SwimKind::SyncReq { .. } | SwimKind::SyncDigest { .. }
                )),
            "sync must reach across the dead boundary"
        );
    }

    #[test]
    fn digest_round_skips_transfer_when_converged() {
        let members = ids(&[0, 1, 2]);
        let mut a = syncing(0, 1, &members);
        let mut b = syncing(1, 2, &members);
        // Drive a until it opens a sync round: the opener must be a
        // digest, not a full push.
        let mut out: Vec<SwimMsg> = Vec::new();
        let mut t = 0.0;
        while !out
            .iter()
            .any(|m| matches!(m.kind, SwimKind::SyncDigest { .. }))
        {
            assert!(t < 20.0, "digest round must open");
            a.on_tick(t, &mut out);
            t += 0.25;
        }
        assert!(
            !out.iter()
                .any(|m| matches!(m.kind, SwimKind::SyncReq { .. })),
            "converged steady state must not push full ledgers"
        );
        let digest = out
            .iter()
            .find(|m| matches!(m.kind, SwimKind::SyncDigest { .. }))
            .cloned()
            .unwrap();
        // Every bootstrapped ledger is identical, so b can answer the
        // digest whichever partner a picked: empty delta, skip counted.
        let mut rsp = Vec::new();
        b.on_message(t, &digest, &mut rsp);
        assert_eq!(sync_count(&b, "sync_digest_skips"), 1);
        assert_eq!(rsp.len(), 1);
        let SwimMsg {
            kind: SwimKind::SyncRsp,
            updates,
            ..
        } = &rsp[0]
        else {
            panic!("converged digest must be answered with an empty SyncRsp");
        };
        assert!(updates.is_empty());
        // The initiator closes the round; no full push follows.
        let mut follow = Vec::new();
        a.on_message(t + 0.1, &rsp[0], &mut follow);
        assert!(follow.is_empty());
        assert_eq!(sync_count(&a, "sync_full_pushes"), 0);
        assert!(sync_count(&a, "sync_digest_rounds") >= 1);
    }

    #[test]
    fn digest_mismatch_falls_back_to_full_push_pull() {
        let members = ids(&[0, 1]);
        let mut a = syncing(0, 1, &members);
        let mut b = syncing(1, 2, &members);
        // Diverge the pair.
        a.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(9),
                incarnation: 0,
                status: SwimStatus::Alive,
            }],
        );
        assert_ne!(a.ledger(), b.ledger());
        // a opens a digest round towards b (the only partner).
        let mut out: Vec<SwimMsg> = Vec::new();
        let mut t = 0.0;
        while !out
            .iter()
            .any(|m| matches!(m.kind, SwimKind::SyncDigest { .. }))
        {
            assert!(t < 20.0);
            a.on_tick(t, &mut out);
            t += 0.25;
        }
        let digest = out
            .iter()
            .find(|m| matches!(m.kind, SwimKind::SyncDigest { .. }))
            .cloned()
            .unwrap();
        // b mismatches: echoes its own digest with its first ledger
        // chunk piggybacked, no pull transfer yet.
        let mut echo = Vec::new();
        b.on_message(t, &digest, &mut echo);
        assert_eq!(echo.len(), 1);
        assert!(matches!(echo[0].kind, SwimKind::SyncDigestPush { .. }));
        assert_eq!(sync_count(&b, "sync_digest_skips"), 0);
        // The echo triggers a's full push; the normal push-pull then
        // converges the pair.
        let mut push = Vec::new();
        a.on_message(t + 0.1, &echo[0], &mut push);
        assert!(!push.is_empty());
        assert!(push
            .iter()
            .all(|m| matches!(m.kind, SwimKind::SyncReq { .. })));
        assert_eq!(sync_count(&a, "sync_full_pushes"), 1);
        assert_eq!(sync_count(&a, "sync_piggyback_rtt_saved"), 1);
        let mut delta = Vec::new();
        for m in &push {
            b.on_message(t + 0.2, m, &mut delta);
        }
        for m in &delta {
            a.on_message(t + 0.3, m, &mut Vec::new());
        }
        assert_eq!(a.ledger(), b.ledger(), "push-pull must converge the pair");
    }

    #[test]
    fn piggybacked_echo_reconciles_the_initiator_without_the_pull_rtt() {
        let members = ids(&[0, 1]);
        let mut a = syncing(0, 1, &members);
        let mut b = syncing(1, 2, &members);
        // The *responder* holds the newer record this time.
        b.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(9),
                incarnation: 0,
                status: SwimStatus::Alive,
            }],
        );
        let mut out: Vec<SwimMsg> = Vec::new();
        let mut t = 0.0;
        while !out
            .iter()
            .any(|m| matches!(m.kind, SwimKind::SyncDigest { .. }))
        {
            assert!(t < 20.0);
            a.on_tick(t, &mut out);
            t += 0.25;
        }
        let digest = out
            .iter()
            .find(|m| matches!(m.kind, SwimKind::SyncDigest { .. }))
            .cloned()
            .unwrap();
        let mut echo = Vec::new();
        b.on_message(t, &digest, &mut echo);
        assert_eq!(echo.len(), 1);
        // The echo alone — before b's SyncRsp pull would ever arrive —
        // already hands a the record it was missing.
        a.on_message(t + 0.1, &echo[0], &mut Vec::new());
        assert!(a.ledger().is_live(NodeId(9)), "piggyback must merge");
        assert_eq!(sync_count(&a, "sync_piggyback_rtt_saved"), 1);
        // A replayed echo is dropped: the round is closed.
        let mut replay = Vec::new();
        a.on_message(t + 0.2, &echo[0], &mut replay);
        assert!(replay.is_empty());
        assert_eq!(sync_count(&a, "sync_piggyback_rtt_saved"), 1);
    }

    /// This node always answers a mismatch with `SyncDigestPush`, but a
    /// peer may answer with the bare digest echo; the initiator must
    /// still take that as "we disagree" and push its ledger.
    #[test]
    fn plain_digest_echo_from_a_peer_opens_the_full_push() {
        let members = ids(&[0, 1]);
        let mut a = syncing(0, 1, &members);
        let mut out = Vec::new();
        let mut t = 0.0;
        let seq = loop {
            assert!(t < 20.0, "digest round must open");
            a.on_tick(t, &mut out);
            t += 0.25;
            let opened = out.iter().find_map(|m| match m.kind {
                SwimKind::SyncDigest { .. } => Some(m.seq),
                _ => None,
            });
            if let Some(seq) = opened {
                break seq;
            }
        };
        let (mine, known) = a.digest_fingerprint();
        let echo = SwimMsg {
            from: NodeId(1),
            to: NodeId(0),
            seq,
            kind: SwimKind::SyncDigest {
                fingerprint: !mine,
                known,
            },
            updates: Vec::new(),
        };
        let mut push = Vec::new();
        a.on_message(t, &echo, &mut push);
        assert!(!push.is_empty());
        assert!(push
            .iter()
            .all(|m| m.to == NodeId(1) && matches!(m.kind, SwimKind::SyncReq { .. })));
        assert_eq!(sync_count(&a, "sync_full_pushes"), 1);
        assert_eq!(sync_count(&a, "sync_piggyback_rtt_saved"), 0);
    }

    #[test]
    fn telemetry_counts_probes_and_suspicions() {
        use apor_telemetry::Telemetry;
        let members = ids(&[0, 1]);
        let telemetry = Telemetry::new(0);
        let mut a = Swim::bootstrap(NodeId(0), cfg(1), &members).with_telemetry(telemetry.clone());
        let mut out = Vec::new();
        a.on_tick(0.0, &mut out); // ping sent, never answered
        a.on_tick(0.6, &mut out);
        a.on_tick(2.0, &mut out); // judgment → suspicion
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(0, "membership", "probe_sent"), Some(2));
        assert_eq!(snap.counter(0, "membership", "probe_acked"), Some(0));
        assert_eq!(snap.counter(0, "membership", "suspicion_raised"), Some(1));
    }

    #[test]
    fn expired_tombstones_leave_the_partner_pool() {
        // TOMBSTONE_GC_SYNCS sync periods of 1 s: the dead member is a
        // valid partner inside the window and excluded after it.
        let c = sync_cfg(5, 1.0);
        let window = f64::from(TOMBSTONE_GC_SYNCS);
        let members = ids(&[0, 1]);
        let mut a = Swim::bootstrap(NodeId(0), c, &members);
        a.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(1),
                incarnation: 0,
                status: SwimStatus::Faulty,
            }],
        );
        assert!(!a.is_tombstone_expired(NodeId(1), window - 0.1));
        assert!(a.is_tombstone_expired(NodeId(1), window));
        // Within the window sync rounds still target the dead member…
        let mut early = Vec::new();
        let mut t = 0.0;
        while t < window - 0.5 {
            a.on_tick(t, &mut early);
            t += 0.25;
        }
        assert!(
            early.iter().any(|m| m.to == NodeId(1)
                && matches!(
                    m.kind,
                    SwimKind::SyncDigest { .. } | SwimKind::SyncReq { .. }
                )),
            "dead member must stay a partner inside the tombstone window"
        );
        // …after it, the pool is empty (node 1 was the only partner) and
        // rounds stop entirely. (Rounds firing in the last half second
        // before the window closes may still legitimately target the
        // not-yet-expired tombstone; drain them.)
        let mut boundary = Vec::new();
        while t < window + 0.25 {
            a.on_tick(t, &mut boundary);
            t += 0.25;
        }
        let mut late = Vec::new();
        while t < window + 20.0 {
            a.on_tick(t, &mut late);
            t += 0.25;
        }
        assert!(
            !late.iter().any(|m| m.to == NodeId(1)
                && matches!(
                    m.kind,
                    SwimKind::SyncDigest { .. } | SwimKind::SyncReq { .. }
                )),
            "expired tombstones must not be chosen as sync partners"
        );
    }

    #[test]
    fn resurrection_clears_the_tombstone() {
        let c = sync_cfg(1, 1.0);
        let members = ids(&[0, 1, 2]);
        let mut a = Swim::bootstrap(NodeId(0), c, &members);
        a.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(1),
                incarnation: 0,
                status: SwimStatus::Faulty,
            }],
        );
        assert!(a.is_tombstone_expired(NodeId(1), 1e9));
        // The member refutes with a higher incarnation: tombstone gone.
        a.apply_updates(
            5.0,
            &[SwimUpdate {
                id: NodeId(1),
                incarnation: 1,
                status: SwimStatus::Alive,
            }],
        );
        assert!(a.ledger().is_live(NodeId(1)));
        assert!(!a.is_tombstone_expired(NodeId(1), 1e9));
    }

    #[test]
    fn sync_tells_a_declared_dead_node_so_it_refutes() {
        let members = ids(&[0, 1, 2]);
        let mut alive = Swim::bootstrap(NodeId(0), sync_cfg(1, 2.0), &members);
        alive.apply_updates(
            0.0,
            &[SwimUpdate {
                id: NodeId(1),
                incarnation: 0,
                status: SwimStatus::Faulty,
            }],
        );
        let mut zombie = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members);
        // The zombie syncs with us: our delta carries its death verdict.
        let req = SwimMsg {
            from: NodeId(1),
            to: NodeId(0),
            seq: 4,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: zombie.ledger_entries(),
        };
        let mut rsp = Vec::new();
        alive.on_message(1.0, &req, &mut rsp);
        let verdict = rsp
            .iter()
            .flat_map(|m| &m.updates)
            .find(|u| u.id == NodeId(1));
        assert!(
            verdict.is_some_and(|u| u.status == SwimStatus::Faulty),
            "delta must carry the death verdict"
        );
        for m in &rsp {
            zombie.on_message(1.1, m, &mut Vec::new());
        }
        assert_eq!(zombie.incarnation(), 1, "zombie must refute");
        assert!(zombie.ledger().is_live(NodeId(1)));
    }

    #[test]
    fn departed_node_stops_syncing() {
        let members = ids(&[0, 1, 2]);
        let mut s = Swim::bootstrap(NodeId(0), sync_cfg(1, 0.5), &members);
        s.leave(&mut Vec::new());
        let mut out = Vec::new();
        for i in 0..40 {
            s.on_tick(f64::from(i) * 0.25, &mut out);
        }
        assert!(
            !out.iter()
                .any(|m| matches!(m.kind, SwimKind::SyncReq { .. })),
            "departed nodes must not initiate syncs"
        );
    }

    #[test]
    fn leave_gossips_departure() {
        let members = ids(&[0, 1, 2, 3]);
        let mut s = Swim::bootstrap(NodeId(2), cfg(1), &members);
        let mut out = Vec::new();
        s.leave(&mut out);
        assert!(!out.is_empty());
        for msg in &out {
            assert!(msg
                .updates
                .iter()
                .any(|u| u.id == NodeId(2) && u.status == SwimStatus::Left));
        }
        assert!(!s.ledger().is_live(NodeId(2)));
    }

    #[test]
    fn abandoned_chunked_syncs_are_forgotten_after_one_period() {
        let members = ids(&[0, 1, 2, 3]);
        let telemetry = Telemetry::new(1);
        let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members)
            .with_telemetry(telemetry.clone());
        let a = Swim::bootstrap(NodeId(0), sync_cfg(1, 2.0), &members);
        let entries = a.ledger_entries();
        let (first, rest) = entries.split_at(1);
        let chunk = |from: u16, chunk: u8, updates: &[SwimUpdate]| SwimMsg {
            from: NodeId(from),
            to: NodeId(1),
            seq: 5,
            kind: SwimKind::SyncReq { chunk, chunks: 2 },
            updates: updates.to_vec(),
        };
        // 300 distinct senders (the `from` of a frame is whatever the
        // frame says) each deliver the first of two chunks and never
        // the second.
        let mut rsp = Vec::new();
        for sender in 0..300u16 {
            b.on_message(10.0, &chunk(1000 + sender, 0, first), &mut rsp);
        }
        assert!(rsp.is_empty(), "a partial sync is not answered");
        assert_eq!(b.pending_syncs.len(), 300);
        // Inside the period they are kept — a complete push is still
        // answered, once…
        b.on_tick(11.9, &mut Vec::new());
        assert_eq!(b.pending_syncs.len(), 300);
        b.on_message(11.0, &chunk(0, 0, first), &mut rsp);
        b.on_message(11.1, &chunk(0, 1, rest), &mut rsp);
        let answers = rsp
            .iter()
            .filter(|m| m.to == NodeId(0) && matches!(m.kind, SwimKind::SyncRsp))
            .count();
        assert_eq!((rsp.len(), answers), (1, 1));
        assert!(telemetry
            .snapshot()
            .counter(1, "membership", "sync_chunks_dropped")
            .is_none());
        // …one period after their first chunk they are gone, counted.
        b.on_tick(12.0, &mut Vec::new());
        assert!(b.pending_syncs.is_empty());
        assert_eq!(
            telemetry
                .snapshot()
                .counter(1, "membership", "sync_chunks_dropped"),
            Some(300)
        );
    }

    /// `sync_delta` as it was before claims were walked with a cursor:
    /// every claim into a map (a later claim about an id replaces an
    /// earlier one), every ledger record looked up in it.
    fn sync_delta_by_map(ledger: &ViewLedger, claimed: &[SwimUpdate]) -> Vec<SwimUpdate> {
        let claims: BTreeMap<NodeId, (u32, bool)> = claimed
            .iter()
            .map(|u| (u.id, (u.incarnation, u.status.is_dead())))
            .collect();
        ledger
            .iter()
            .filter(|&(id, state)| match claims.get(&id) {
                None => true,
                Some(&(incarnation, dead)) => {
                    MemberState { incarnation, dead }.superseded_by(state.incarnation, state.dead)
                }
            })
            .map(|(id, state)| Swim::record_to_update(id, state))
            .collect()
    }

    /// The delta `responder` returns for a single-frame push of `claims`.
    fn pushed_delta(responder: &mut Swim, seq: u32, claims: &[SwimUpdate]) -> Vec<SwimUpdate> {
        let req = SwimMsg {
            from: NodeId(0),
            to: responder.me(),
            seq,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: claims.to_vec(),
        };
        let mut rsp = Vec::new();
        responder.on_message(1.0, &req, &mut rsp);
        assert!(rsp
            .iter()
            .all(|m| m.to == NodeId(0) && matches!(m.kind, SwimKind::SyncRsp)));
        rsp.iter().flat_map(|m| m.updates.to_vec()).collect()
    }

    #[test]
    fn a_hostile_claim_set_does_not_change_the_delta() {
        let claim = |id: u16, incarnation: u32, status: SwimStatus| SwimUpdate {
            id: NodeId(id),
            incarnation,
            status,
        };
        let members = ids(&[0, 1, 2, 3, 4, 5, 6]);
        let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members);
        b.apply_updates(
            0.0,
            &[
                claim(4, 2, SwimStatus::Faulty),
                claim(5, 3, SwimStatus::Alive),
            ],
        );
        // Descending ids: not the order any ledger pushes in.
        let descending = [
            claim(6, 0, SwimStatus::Alive),
            claim(5, 1, SwimStatus::Alive),
            claim(4, 2, SwimStatus::Alive),
            claim(2, 0, SwimStatus::Alive),
        ];
        let delta = pushed_delta(&mut b, 1, &descending);
        assert_eq!(delta, sync_delta_by_map(b.ledger(), &descending));
        assert!(delta.contains(&claim(5, 3, SwimStatus::Alive)));
        assert!(delta.contains(&claim(4, 2, SwimStatus::Faulty)));
        assert!(
            delta.contains(&claim(3, 0, SwimStatus::Alive)),
            "never claimed"
        );
        assert!(
            !delta.contains(&claim(6, 0, SwimStatus::Alive)),
            "claimed as held"
        );
        // One id twice, at different incarnations: the later claim is
        // the one the answer is measured against, whichever is higher.
        for twice in [
            [
                claim(5, 9, SwimStatus::Alive),
                claim(5, 1, SwimStatus::Alive),
            ],
            [
                claim(5, 1, SwimStatus::Alive),
                claim(5, 9, SwimStatus::Alive),
            ],
        ] {
            let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &members);
            let delta = pushed_delta(&mut b, 1, &twice);
            assert_eq!(delta, sync_delta_by_map(b.ledger(), &twice));
            // The merge took 9 either way; only a last claim of 1 is
            // behind it.
            assert_eq!(
                delta.contains(&claim(5, 9, SwimStatus::Alive)),
                twice[1].incarnation == 1
            );
        }
    }

    proptest! {
        /// The answer to a push is the map model's for any claim set:
        /// strictly ascending (the cursor), or in any order with any
        /// duplication (the map), over a ledger that knows members the
        /// claims do not and lacks members they name.
        #[test]
        fn sync_delta_equals_the_map_model(
            known in prop::collection::vec((2u16..30, 0u32..4, any::<bool>()), 0..20),
            claims in prop::collection::vec((0u16..30, 0u32..4, 0u8..4), 0..24),
            ascending in any::<bool>(),
        ) {
            let mut b = Swim::bootstrap(NodeId(1), sync_cfg(2, 2.0), &ids(&[0, 1]));
            for (id, incarnation, dead) in known {
                b.ledger_apply(0.0, NodeId(id), incarnation, dead);
            }
            let mut claims: Vec<SwimUpdate> = claims
                .into_iter()
                .map(|(id, incarnation, status)| SwimUpdate {
                    id: NodeId(id),
                    incarnation,
                    status: match status {
                        0 => SwimStatus::Alive,
                        1 => SwimStatus::Suspect,
                        2 => SwimStatus::Faulty,
                        _ => SwimStatus::Left,
                    },
                })
                .collect();
            if ascending {
                claims.sort_by_key(|c| c.id);
                claims.dedup_by_key(|c| c.id);
            }
            let delta = pushed_delta(&mut b, 1, &claims);
            prop_assert_eq!(&delta, &sync_delta_by_map(b.ledger(), &claims));
            prop_assert_eq!(&b.sync_delta(&claims), &delta);
        }

        /// The partner a sync round picks is the one `choose` picks
        /// from the pool collected the old way, on the same draw — and
        /// an empty pool draws nothing — with live members, tombstones
        /// inside the window and expired ones in the ledger.
        #[test]
        fn sync_partner_is_choose_over_the_collected_pool(
            seed in any::<u64>(),
            deaths in prop::collection::vec((1u16..12, 0.0f64..40.0), 0..12),
            now in 0.0f64..100.0,
        ) {
            // Deaths at up to 40 s and a 50 s window: `now` lands
            // before, inside and past the window.
            let c = sync_cfg(seed, 1.0);
            let members: Vec<NodeId> = (0..12).map(NodeId).collect();
            let mut s = Swim::bootstrap(NodeId(0), c, &members);
            for (id, at) in deaths {
                s.ledger_apply(at, NodeId(id), 0, true);
            }
            let candidates: Vec<NodeId> = s
                .ledger
                .iter()
                .map(|(id, _)| id)
                .filter(|&id| id != s.me)
                .filter(|&id| !s.is_tombstone_expired(id, now))
                .collect();
            let mut model_rng = s.rng.clone();
            let want = candidates.choose(&mut model_rng).copied();
            let mut out = Vec::new();
            s.start_sync(now, &mut out);
            let got: Vec<NodeId> = out.iter().map(|m| m.to).collect();
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(s.rng.gen::<u64>(), model_rng.gen::<u64>(), "same draws");
        }

        /// `pick_fanout` is `choose_multiple` over the collected pool:
        /// same members, same order, same draws.
        #[test]
        fn pick_fanout_is_choose_multiple(seed in any::<u64>(), len in 0u16..12) {
            let pool: Vec<NodeId> = (0..len).map(|i| NodeId(i * 7)).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut model_rng = rng.clone();
            let want: Vec<NodeId> = pool
                .choose_multiple(&mut model_rng, PING_REQ_FANOUT)
                .copied()
                .collect();
            let (picked, count) = pick_fanout(&mut rng, || pool.iter().copied());
            prop_assert_eq!(&picked[..count], &want[..]);
            prop_assert_eq!(rng.gen::<u64>(), model_rng.gen::<u64>(), "same draws");
        }
    }
}

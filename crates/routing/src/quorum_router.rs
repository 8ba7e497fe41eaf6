//! The two-round grid-quorum router — the paper's contribution.
//!
//! Round one: send the measured link-state row to the rendezvous servers
//! (the node's grid row and column, ~`2√n` nodes) plus any active failover
//! servers. Round two (in the same tick, as a *server*): for every pair of
//! fresh rendezvous clients compute the optimal one-hop path and return
//! per-client recommendation messages. Every pair of nodes shares at least
//! two rendezvous servers, so every node keeps learning its optimal
//! one-hop route to every destination with `Θ(n√n)` per-node traffic.
//!
//! The router owns a [`RowStore`], which holds only the `O(√n)` rows the
//! node actually receives, so per-node state matches the paper's
//! `O(n√n)` bound — the grid removes not just the traffic but the memory
//! of the full mesh. There is no store parameter: the full-mesh
//! baseline is a different router with its own matrix. Costs are
//! integer milliseconds from the wire to the route decision.
//!
//! Section 4's failure machinery is implemented in full:
//!
//! * **proximal failures** — my own probes say the server is dead;
//! * **remote failures** — the server is alive but stopped recommending a
//!   destination (it must have lost that destination's link state);
//! * **rapid rendezvous failover** — on a double failure, pick a random
//!   reachable node from the destination's row/column, send it link state
//!   immediately, and watch whether its recommendations cover the
//!   destination; retry otherwise;
//! * **dead-destination suppression** — after the first failover attempt,
//!   only keep trying while somebody's link-state table still reaches the
//!   destination;
//! * **reversion** — the failover server is dropped as soon as a default
//!   rendezvous works again;
//! * **§4.2 scavenging** — with no usable recommendation, route through
//!   the best of the `2√n` neighbour tables the node already holds.

use crate::config::ProtocolConfig;
use crate::feasibility::{select_detour, Feasibility};
use crate::RoutingAlgorithm;
use apor_linkstate::{
    Detour, LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, RecEntry, RecommendationMsg,
    RowStore, INFINITE_COST,
};
use apor_quorum::{Grid, NodeId};
use apor_telemetry::{Counter, Gauge, Histogram, SpanKind, Telemetry, TraceCtx, Tracer};
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A received best-hop recommendation for one destination.
#[derive(Debug, Clone, Copy)]
pub struct RouteEntry {
    /// Recommended first hop (`hop == dst` ⇒ direct link).
    pub hop: usize,
    /// The rendezvous server that sent it.
    pub from_server: usize,
    /// When it arrived, seconds.
    pub received_at: f64,
    /// Path cost as computed by the server, ms (`u16::MAX` = not on wire).
    pub cost_ms: u16,
}

/// How this node forwards towards a destination right now.
///
/// [`RouteDecision::Hop`] is the paper's forwarding mode — a fresh
/// recommendation, the direct link, or a 1-hop scavenge; each relay
/// re-decides from its own tables. [`RouteDecision::Spliced`] is the
/// feasibility-gated k-hop fallback: the source commits to the whole
/// relay chain and the packet is source-routed along it, because the
/// intermediate relays were chosen from rows *this* node holds — their
/// own stores need not contain the rows that justified the splice.
#[derive(Debug, Clone)]
pub enum RouteDecision {
    /// Forward to this first hop; downstream nodes re-decide.
    Hop(usize),
    /// Source-route along the spliced detour's full path.
    Spliced(Detour),
}

impl RouteDecision {
    /// The first hop either way — what the wire forwards to next.
    #[must_use]
    pub fn first_hop(&self) -> usize {
        match self {
            Self::Hop(h) => *h,
            Self::Spliced(d) => d.path[1],
        }
    }
}

/// Everything this node keeps about one destination — one record, as a
/// Babel route table keeps one per prefix (RFC 8966).
#[derive(Debug, Clone, Default)]
struct Route {
    /// The latest accepted recommendation.
    rec: Option<RouteEntry>,
    /// The route discipline's record for k-hop detours.
    feas: Feasibility,
    /// Section 4.1: the active failover rendezvous, if any.
    failover: Option<usize>,
    /// Failover candidates already tried (and failed) in this episode.
    tried: BTreeSet<usize>,
}

/// Sentinel for "no timestamp yet" in the dense `serving_since` vector.
const NEVER: f64 = f64::NEG_INFINITY;

/// `RowImport` spans one view install may record: enough for the carry
/// (`~2√n` client rows) at experiment scales without letting a large
/// store fill the flight recorder.
const ROW_IMPORT_SPANS: usize = 32;

/// The router's registry cells (component `"routing"`). A router
/// attached to a live [`Telemetry`] feeds the fleet snapshot for free;
/// its counts are read through that snapshot.
#[derive(Debug, Clone)]
struct RouterCounters {
    failovers_selected: Counter,
    ls_sent: Counter,
    recs_sent: Counter,
    rec_entries_received: Counter,
    loops_detected: Counter,
    routes_retracted: Counter,
    /// Relay count of every spliced detour admitted.
    detour_hops: Histogram,
    /// Bytes of `rec_seen` entries held: 16 per `(dst, timestamp)`.
    rec_seen_bytes: Gauge,
}

impl RouterCounters {
    fn new(t: &Telemetry) -> Self {
        RouterCounters {
            failovers_selected: t.counter("routing", "failovers_selected"),
            ls_sent: t.counter("routing", "ls_sent"),
            recs_sent: t.counter("routing", "recs_sent"),
            rec_entries_received: t.counter("routing", "rec_entries_received"),
            loops_detected: t.counter("routing", "loops_detected"),
            routes_retracted: t.counter("routing", "routes_retracted"),
            detour_hops: t.histogram("routing", "detour_hops"),
            rec_seen_bytes: t.gauge("routing", "rec_seen_bytes"),
        }
    }
}

/// The per-node quorum routing state machine.
#[derive(Debug)]
pub struct QuorumRouter {
    me: usize,
    n: usize,
    grid: Grid,
    view: u32,
    round: u32,
    config: ProtocolConfig,
    table: RowStore,
    own_row: Vec<LinkEntry>,
    /// Cached: my default rendezvous servers (grid row + column).
    my_servers: Vec<usize>,
    /// The route table, indexed by destination: its recommendation,
    /// feasibility record and failover episode in one [`Route`].
    routes: Vec<Route>,
    /// `rec_seen[s]` — last time server `s` recommended any route for a
    /// destination: `(dst, time)` entries sorted by `dst`, one flat
    /// allocation per server that has ever recommended (absent entry =
    /// no recommendation yet). A frame lists its destinations
    /// ascending, so ingest walks a cursor and `last_rec` is a binary
    /// search over `≤ 2√n` contiguous entries. Only the `~2√n` servers
    /// that actually send recommendations hold entries, and each holds
    /// only the destinations it has vouched for — `O(√n · √n)` entries
    /// total versus the `n` slots per server a dense row would burn.
    /// An entry is never removed.
    rec_seen: Vec<Vec<(usize, f64)>>,
    /// Entries held over all of `rec_seen`, counted where they are
    /// inserted, so the byte gauge costs `O(1)` per message instead of
    /// a walk over all `n` servers.
    rec_seen_entries: usize,
    /// When I first sent link state to each server (grace-period
    /// anchor); grid-indexed, [`NEVER`] = never served.
    serving_since: Vec<f64>,
    /// My row's sequence number: 0 until the first retraction event
    /// (frames stay bit-identical to the legacy format), then bumped on
    /// every tick that withdraws at least one link, so receivers'
    /// replay guards and feasibility resets key off it.
    own_seqno: u16,
    /// Links withdrawn recently: destination → round of withdrawal.
    /// Advertised in the link-state retraction lane for a few rounds,
    /// dropped as soon as the link recovers.
    retractions: BTreeMap<u16, u32>,
    /// Registry-backed event counters.
    counters: RouterCounters,
    tracer: Tracer,
    /// Episode context noted ahead of a [`reinstall`](Self::reinstall),
    /// which records its first [`ROW_IMPORT_SPANS`] kept rows as
    /// `RowImport` spans under it; no router comes out of `assemble`
    /// with one.
    trace_ctx: Option<TraceCtx>,
}

/// What of a router outlives the view it was built for: the settings,
/// the handles it reports into, and the storage of everything sized by
/// the view. [`QuorumRouter::assemble`] turns it into a router for a
/// view, and is the only thing that does — so a router built from
/// nothing and one built over a predecessor's parts go through the same
/// code and cannot differ in anything but spare capacity.
struct Parts {
    config: ProtocolConfig,
    table: RowStore,
    own_row: Vec<LinkEntry>,
    my_servers: Vec<usize>,
    routes: Vec<Route>,
    rec_seen: Vec<Vec<(usize, f64)>>,
    serving_since: Vec<f64>,
    retractions: BTreeMap<u16, u32>,
    counters: RouterCounters,
    tracer: Tracer,
}

impl QuorumRouter {
    /// A quorum router for node `me` under membership `view` of size `n`,
    /// its row store under the `O(√n)` entitlement guard (stale rows are
    /// shed under capacity pressure — see
    /// [`RowStore::with_entitlement`]). It counts, but reports into no
    /// registry.
    ///
    /// # Panics
    /// Panics if `me ≥ n`.
    #[must_use]
    pub fn new(me: usize, n: usize, view: u32, config: ProtocolConfig) -> Self {
        Self::new_with_telemetry(me, n, view, config, &Telemetry::disabled())
    }

    /// [`QuorumRouter::new`] with the router counters and the backing
    /// [`RowStore`] registered on `telemetry` — each cell once. Re-using
    /// a registry a previous router reported into resumes its
    /// cumulative cells.
    #[must_use]
    pub fn new_with_telemetry(
        me: usize,
        n: usize,
        view: u32,
        config: ProtocolConfig,
        telemetry: &Telemetry,
    ) -> Self {
        // `assemble` sizes the store and sets its real entitlement.
        let table = RowStore::with_entitlement(n, 0, config.staleness_s(), telemetry.clone());
        let parts = Parts {
            config,
            table,
            own_row: Vec::new(),
            my_servers: Vec::new(),
            routes: Vec::new(),
            rec_seen: Vec::new(),
            serving_since: Vec::new(),
            retractions: BTreeMap::new(),
            counters: RouterCounters::new(telemetry),
            tracer: Tracer::disabled(),
        };
        Self::assemble(me, n, view, parts)
    }

    /// This router carried into membership `view` of size `n`, where it
    /// is node `me`. `old_to_new[i]` is where the member at index `i` of
    /// the view it was built for sits in the new one (`None`: departed;
    /// an index the table does not cover counts as departed), and it is
    /// order-preserving, as a translation between two sorted member
    /// lists is.
    ///
    /// Settings, registry cells and tracer are kept, every vector sized
    /// by the view is emptied and resized in place, and of what the
    /// router knew — the route table, retractions, seqno — only rows
    /// survive, and of those exactly the ones that are all of
    ///
    /// * **fresh** at `now` (the staleness window, section 6.2.2 — the
    ///   kernel would ignore a stale row anyway),
    /// * from an origin that is **still a member**, and
    /// * **entitled** in the new grid: the node's own row and its
    ///   rendezvous clients', so a view change cannot re-grow `O(n)`
    ///   rows.
    ///
    /// Such a row — and no other — is renamed through the table
    /// ([`LaneRow::relabelled`]: destinations and the retraction lane
    /// move by identity, a departed one leaves, a joined one is absent)
    /// and put back, ascending by origin, under its original receipt
    /// time and retraction lane, unversioned: every origin numbers its
    /// rows from 0 again in the new view (`docs/ROUTING.md`). Before any
    /// of it, routes to or through a departed member are withdrawn, so
    /// they are counted in `routing/routes_retracted`.
    ///
    /// Returns the router and how many rows were fresh and of a
    /// surviving origin — entitled or not, what the `Remap` span
    /// reports. With a table that maps nothing the router is what
    /// [`QuorumRouter::new_with_telemetry`] (and
    /// [`with_tracer`](Self::with_tracer)) would have built on the same
    /// registry, without its allocations.
    ///
    /// # Panics
    /// Panics if `me ≥ n`, or if the table maps a member a kept row
    /// names to an index `≥ n`.
    #[must_use]
    pub fn reinstall(
        mut self,
        me: usize,
        n: usize,
        view: u32,
        old_to_new: &[Option<u16>],
        now: f64,
    ) -> (Self, usize) {
        self.retract_departed_routes(old_to_new);
        let max_age = self.config.staleness_s();
        let episode = self.trace_ctx.take();
        let held = self.table.drain();
        let parts = Parts {
            config: self.config,
            table: self.table,
            own_row: self.own_row,
            my_servers: self.my_servers,
            routes: self.routes,
            rec_seen: self.rec_seen,
            serving_since: self.serving_since,
            retractions: self.retractions,
            counters: self.counters,
            tracer: self.tracer,
        };
        let mut router = Self::assemble(me, n, view, parts);
        let (mut survived, mut kept) = (0, 0);
        for (origin, received_at, row) in held {
            let Some(origin) = old_to_new.get(origin).copied().flatten() else {
                continue; // the origin departed
            };
            if now - received_at > max_age {
                continue;
            }
            let origin = usize::from(origin);
            survived += 1;
            if origin != me && !router.grid.serves(origin, me) {
                continue;
            }
            let row = Arc::new(row.relabelled(old_to_new));
            router.table.put_row(origin, row, received_at);
            if let Some(ctx) = episode.filter(|_| kept < ROW_IMPORT_SPANS) {
                #[allow(clippy::cast_possible_truncation)]
                router.tracer.instant(
                    SpanKind::RowImport,
                    ctx.episode,
                    0,
                    origin as u32,
                    received_at,
                );
            }
            kept += 1;
        }
        (router, survived)
    }

    /// The enforced bound on *fresh* rows a quorum node may hold:
    /// its own row, its `≤ 2·max(rows, cols)` rendezvous clients, plus
    /// slack for transient failover clients (nodes that selected us as
    /// a failover rendezvous and sent us their link state).
    #[must_use]
    pub fn row_entitlement(n: usize) -> usize {
        Self::entitlement_in(&Grid::new(n.max(1)))
    }

    /// [`row_entitlement`](Self::row_entitlement) read off a grid
    /// already built: the bound depends on its shape alone.
    fn entitlement_in(grid: &Grid) -> usize {
        2 * grid.max_rendezvous_degree() + 16
    }

    /// A router for `(me, n, view)` with no history, over `parts`.
    /// Whatever `parts`' vectors and maps held is discarded; their
    /// allocations are what is kept. (The per-server `rec_seen` lists
    /// are freed, not kept: which indices are servers changes with the
    /// view, and capacity left at the old ones would only pile up.)
    fn assemble(me: usize, n: usize, view: u32, parts: Parts) -> Self {
        assert!(me < n);
        let Parts {
            config,
            mut table,
            mut own_row,
            mut my_servers,
            mut routes,
            mut rec_seen,
            mut serving_since,
            mut retractions,
            counters,
            tracer,
        } = parts;
        let grid = Grid::new(n);
        table.reset(n, Self::entitlement_in(&grid));
        own_row.clear();
        own_row.resize(n, LinkEntry::dead());
        grid.rendezvous_servers_into(me, &mut my_servers);
        routes.clear();
        routes.resize_with(n, Route::default);
        rec_seen.clear();
        rec_seen.resize_with(n, Vec::new);
        serving_since.clear();
        serving_since.resize(n, NEVER);
        retractions.clear();
        QuorumRouter {
            me,
            n,
            grid,
            view,
            round: 0,
            config,
            table,
            own_row,
            my_servers,
            routes,
            rec_seen,
            rec_seen_entries: 0,
            serving_since,
            own_seqno: 0,
            retractions,
            counters,
            tracer,
            trace_ctx: None,
        }
    }

    /// Attach a causal tracer (disabled by default; see
    /// [`QuorumRouter::note_episode`]).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Mark the view change about to happen as part of a convergence
    /// episode: the [`reinstall`](Self::reinstall) that follows records
    /// the rows it keeps as `RowImport` spans under `ctx`.
    pub fn note_episode(&mut self, ctx: TraceCtx) {
        if self.tracer.enabled() {
            self.trace_ctx = Some(ctx);
        }
    }

    /// The grid this router derives its quorum from.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The link-state store (for inspection).
    #[must_use]
    pub fn table(&self) -> &RowStore {
        &self.table
    }

    /// My row's current sequence number (0 = no retraction event yet).
    #[must_use]
    pub fn own_seqno(&self) -> u16 {
        self.own_seqno
    }

    /// Decide how to forward towards `dst` right now.
    ///
    /// Preference order: a fresh recommendation over a live first leg,
    /// then the §4.2 1-hop scavenge (direct link included), then — only
    /// when configured past the paper's 1-hop behaviour and everything
    /// above is gone — a feasibility-gated spliced detour, which is
    /// source-routed (see [`RouteDecision`]).
    #[must_use]
    pub fn route_decision(&self, dst: usize, now: f64) -> Option<RouteDecision> {
        if dst == self.me || dst >= self.n {
            return None;
        }
        // Fresh recommendation wins — but only over a live first leg: a
        // hop my own probes have since declared dead cannot forward, so
        // a stale recommendation no longer shadows the scavenge paths.
        if let Some(r) = self.routes[dst].rec {
            if now - r.received_at <= self.config.route_expiry_s() && self.own_row[r.hop].alive {
                return Some(RouteDecision::Hop(r.hop));
            }
        }
        // §4.2: scavenge from the neighbour tables we already hold.
        let max_age = self.config.staleness_s();
        let mut best = (dst, self.own_row[dst].cost());
        for (h, c) in self.table.one_hop_options(self.me, dst, now, max_age) {
            if c < best.1 {
                best = (h, c);
            }
        }
        if best.1 != INFINITE_COST {
            return Some(RouteDecision::Hop(best.0));
        }
        // The generalized scavenge: splice a feasibility-checked k-hop
        // detour from the live rows. Off unless configured past the
        // paper's 1-hop behaviour, and only reached when both the
        // recommendation and every 1-hop option are gone — never on the
        // steady-state hot path.
        if self.config.max_detour_hops > 1 {
            match select_detour(
                &self.table,
                &self.routes[dst].feas,
                self.me,
                dst,
                self.config.max_detour_hops,
                now,
                max_age,
            ) {
                Some(Ok(d)) => {
                    self.counters.detour_hops.observe((d.path.len() - 1) as u64);
                    return Some(RouteDecision::Spliced(d));
                }
                Some(Err(_)) => self.counters.loops_detected.inc(),
                None => {}
            }
        }
        None
    }

    /// The next seqno after `s`, skipping the unversioned sentinel 0.
    fn next_seqno(s: u16) -> u16 {
        let n = s.wrapping_add(1);
        if n == 0 {
            1
        } else {
            n
        }
    }

    /// Withdraw my link to `dst`: record the retraction (bumping my
    /// seqno on the transition) and mark the route infeasible until the
    /// destination announces a newer seqno. The prober calls this the
    /// moment its 5-failure rule declares the link dead, so retraction
    /// propagates a routing tick earlier than the own-row refresh
    /// would.
    pub fn on_link_loss(&mut self, dst: usize, now: f64) {
        if dst >= self.n || dst == self.me {
            return;
        }
        if self.retractions.insert(dst as u16, self.round).is_none() {
            self.own_seqno = Self::next_seqno(self.own_seqno);
        }
        self.retract(dst);
        self.own_row[dst] = LinkEntry::dead();
        let held = self.table.row(self.me);
        let row = held.map_or_else(LaneRow::default, |r| r.without(dst as u16));
        self.table.put_row(self.me, Arc::new(row), now);
    }

    /// Withdraw the route to `dst`, at the seqno of the row I hold from
    /// it (0 if none), counting a transition into the retracted state in
    /// `routing/routes_retracted`. Every withdrawal goes through here.
    fn retract(&mut self, dst: usize) {
        let seqno = self.table.row_seqno(dst);
        if self.routes[dst].feas.retract(seqno) {
            self.counters.routes_retracted.inc();
        }
    }

    /// Retract (rather than silently drop) every established route that
    /// cannot carry into a new membership view: those whose destination
    /// or recommended hop `old_to_new` maps nowhere.
    fn retract_departed_routes(&mut self, old_to_new: &[Option<u16>]) {
        let survives = |idx: usize| old_to_new.get(idx).is_some_and(Option::is_some);
        for dst in 0..self.n {
            if let Some(r) = self.routes[dst].rec {
                if !survives(dst) || !survives(r.hop) {
                    self.retract(dst);
                    self.routes[dst].rec = None;
                }
            }
        }
    }

    /// The retraction lane advertised this round, ascending.
    fn retraction_lane(&self) -> Vec<u16> {
        self.retractions.keys().copied().collect()
    }

    /// React to an *accepted* versioned row from `from`: a nonzero seqno
    /// releases feasibility constraints keyed to older ones, and every
    /// destination the row explicitly retracts is withdrawn if this node
    /// was routing to it *through* `from` (the first leg just vanished).
    fn note_row_version(&mut self, from: usize, seqno: u16, retractions: &[u16]) {
        if seqno != 0 {
            self.routes[from].feas.note_seqno(seqno);
        }
        for &r in retractions {
            let dst = usize::from(r);
            if dst >= self.n || dst == self.me {
                continue;
            }
            if self.routes[dst].rec.is_some_and(|e| e.hop == from) {
                self.routes[dst].rec = None;
                self.retract(dst);
            }
        }
    }

    /// The latest recommendation stored for `dst`.
    #[must_use]
    pub fn route_entry(&self, dst: usize) -> Option<RouteEntry> {
        self.routes[dst].rec
    }

    /// The currently active failover server for `dst`, if any.
    #[must_use]
    pub fn active_failover(&self, dst: usize) -> Option<usize> {
        self.routes[dst].failover
    }

    /// Last time server `s` recommended any route to `dst`.
    fn last_rec(&self, s: usize, dst: usize) -> Option<f64> {
        let seen = &self.rec_seen[s];
        seen.binary_search_by_key(&dst, |e| e.0)
            .ok()
            .map(|i| seen[i].1)
    }

    /// Record that `server` recommended a route to `dst` at `now`.
    /// `cursor` is where the frame's previous destination landed plus
    /// one: frames list destinations ascending, so the next one is
    /// usually right there; anything else (a destination out of order,
    /// new, or skipped by this frame) falls back to a binary search.
    fn note_rec(&mut self, server: usize, dst: usize, now: f64, cursor: &mut usize) {
        let seen = &mut self.rec_seen[server];
        let at = if seen.get(*cursor).is_some_and(|e| e.0 == dst) {
            *cursor
        } else {
            match seen.binary_search_by_key(&dst, |e| e.0) {
                Ok(i) => i,
                Err(i) => {
                    self.rec_seen_entries += 1;
                    // Grow by exactly one: a server's destination set
                    // settles within a few ticks and entries never
                    // leave, so doubling would strand up to half of
                    // every list, on every node, for good.
                    seen.reserve_exact(1);
                    seen.insert(i, (dst, now));
                    i
                }
            }
        };
        seen[at].1 = now;
        *cursor = at + 1;
    }

    /// Has rendezvous server `s` failed *for destination `dst`*, judged at
    /// `now`? Covers proximal failures (my link to `s` is dead), remote
    /// failures (`s` stopped recommending `dst`), and the degenerate cases
    /// where `s` is me or the destination itself.
    fn server_failed(&self, s: usize, dst: usize, now: f64) -> bool {
        if s == self.me {
            // I am my own rendezvous for same-row/column destinations; I
            // have "failed" when I no longer hold fresh link state for dst.
            return !self.table.row_fresh(dst, now, self.config.staleness_s());
        }
        if s == dst {
            // The destination can only vouch for itself over a live link.
            return !self.own_row[s].alive;
        }
        // Proximal rendezvous failure.
        if !self.own_row[s].alive {
            return true;
        }
        // Remote rendezvous failure: no recommendation for dst recently.
        let since = self.serving_since[s];
        if since == NEVER {
            // Never even sent them link state yet — not failed, just young.
            return false;
        }
        let anchor = self
            .last_rec(s, dst)
            .unwrap_or(since + self.config.server_grace_s() - self.config.remote_failure_s());
        now - anchor > self.config.remote_failure_s()
    }

    fn both_defaults_failed(&self, dst: usize, now: f64) -> bool {
        if dst == self.me {
            return false;
        }
        // Derived from the grid on demand: caching the pair per
        // destination costs O(n) Vecs per node — measurable at n = 4096 —
        // for an O(1) position computation.
        let pair = self.grid.default_rendezvous_pair(self.me, dst);
        !pair.is_empty() && pair.iter().all(|&s| self.server_failed(s, dst, now))
    }

    /// Run the section 4.1 failover state machine for every destination;
    /// returns servers newly selected this tick (they get link state
    /// immediately).
    fn manage_failovers(&mut self, now: f64, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let mut newly_selected = Vec::new();
        // One candidate buffer for the whole sweep, refilled per
        // destination; like the round-two lanes it lives for the tick,
        // not in the router.
        let mut pool = Vec::new();
        for dst in 0..self.n {
            if dst == self.me {
                continue;
            }
            // Reversion: a working default rendezvous ends the episode.
            if !self.both_defaults_failed(dst, now) {
                let r = &mut self.routes[dst];
                r.failover = None;
                r.tried.clear();
                continue;
            }
            // Double rendezvous failure. Is the current failover healthy?
            if let Some(f) = self.routes[dst].failover {
                if !self.server_failed(f, dst, now) {
                    continue;
                }
                self.routes[dst].tried.insert(f);
                self.routes[dst].failover = None;
            }
            // Dead-destination suppression: after the first attempt, only
            // continue while someone's table still reaches dst.
            let attempted_before = !self.routes[dst].tried.is_empty();
            if attempted_before {
                let reachable = self
                    .table
                    .anyone_reaches(dst, now, self.config.staleness_s())
                    || self.own_row[dst].alive;
                if !reachable {
                    continue;
                }
            }

            // Pick a failover uniformly at random from dst's reachable
            // row/column (its rendezvous servers), excluding
            // already-tried candidates. Candidates are derived from the
            // grid on demand — caching them per destination would be
            // O(n√n) aux state per node for a path that only runs under
            // double failures.
            self.grid.rendezvous_servers_into(dst, &mut pool);
            pool.retain(|&c| {
                c != self.me
                    && c != dst
                    && self.own_row[c].alive
                    && !self.routes[dst].tried.contains(&c)
            });
            if pool.is_empty() {
                // Exhausted: restart the episode so candidates that have
                // recovered become eligible again.
                self.routes[dst].tried.clear();
                continue;
            }
            let f = *pool.choose(rng).expect("non-empty pool");
            self.routes[dst].failover = Some(f);
            self.routes[dst].tried.insert(f);
            self.counters.failovers_selected.inc();
            newly_selected.push(f);
        }
        newly_selected.sort_unstable();
        newly_selected.dedup();
        newly_selected
    }

    /// The round-one frame carrying `row` (my own, built once per tick
    /// and shared by every frame of the tick) to server `to`.
    fn linkstate_msg(&self, to: usize, now: f64, row: &Arc<LaneRow>) -> Message {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ls = LinkStateMsg {
            from: NodeId::from_index(self.me),
            to: NodeId::from_index(to),
            view: self.view,
            round: self.round,
            basis_ms: (now * 1000.0) as u32,
            width: self.n as u16,
            row: Arc::clone(row),
        };
        // Sparse encoding pays off once the live-entry count k satisfies
        // 23 + 5k < 21 + 3n, i.e. k < (3n − 2)/5. Under entitled probing
        // a row holds O(√n) live entries and this always wins; fully-live
        // rows (the full-mesh probing baseline) keep the dense format, so
        // the section 6 bandwidth formulas stay byte-exact.
        if 5 * row.len() < 3 * self.n - 2 {
            Message::LinkStateSparse(ls)
        } else {
            Message::LinkState(ls)
        }
    }

    /// The set of servers that receive my link state this round: defaults
    /// plus all active failovers.
    fn current_servers(&self) -> Vec<usize> {
        let mut servers = self.my_servers.clone();
        servers.extend(self.routes.iter().filter_map(|r| r.failover));
        servers.sort_unstable();
        servers.dedup();
        servers.retain(|&s| s != self.me);
        servers
    }

    /// Round two, as a rendezvous server: recommendations for each fresh
    /// client about every other fresh client (and about me). With the
    /// sparse store, enumerating clients scans the `O(√n)` held rows
    /// instead of all `n` indices.
    fn compute_recommendations(&mut self, now: f64) -> Vec<Message> {
        let max_age = self.config.staleness_s();
        // Every held row but mine, ascending (as `present_rows` is), so
        // each frame lists its destinations as `clients ascending ++
        // [me]`: I count as a destination for my clients. The kernel
        // applies the freshness rule, once per row — a stale client gets
        // no frame and appears in nobody else's.
        let clients: Vec<usize> = self
            .table
            .present_rows()
            .into_iter()
            .filter(|&c| c != self.me)
            .collect();
        let round_two = self.table.round_two(&clients, self.me, now, max_age);
        let mut msgs = Vec::new();
        for (i, &c) in clients.iter().enumerate() {
            let mut recs = Vec::with_capacity(clients.len() + 1);
            for (d, hop, cost) in round_two.recommendations(i) {
                recs.push(RecEntry {
                    dst: NodeId::from_index(d),
                    hop: NodeId::from_index(hop),
                    // Saturates below the dead sentinel, as the wire does.
                    cost_ms: u16::try_from(cost)
                        .unwrap_or(u16::MAX)
                        .min(LinkEntry::DEAD_LATENCY - 1),
                });
            }
            if recs.is_empty() {
                continue;
            }
            self.counters.recs_sent.inc();
            msgs.push(Message::Recommendations(RecommendationMsg {
                from: NodeId::from_index(self.me),
                to: NodeId::from_index(c),
                view: self.view,
                round: self.round,
                basis_ms: (now * 1000.0) as u32,
                format: self.config.rec_format,
                recs,
            }));
        }
        msgs
    }
}

impl RoutingAlgorithm for QuorumRouter {
    fn on_routing_tick(
        &mut self,
        now: f64,
        own_row: &[LinkEntry],
        rng: &mut ChaCha8Rng,
    ) -> Vec<Message> {
        assert_eq!(own_row.len(), self.n);
        self.round += 1;
        // The own-row put below needs the pass's seqno and lane, and the
        // pass's ratchet needs the seqnos that put leaves. They differ
        // only when the put is an insert at the entitlement bound, which
        // sheds every stale row first (`RowStore::with_entitlement`): a
        // row it sheds reads seqno 0.
        let max_age = self.config.staleness_s();
        let sheds = self.table.row_time(self.me).is_none()
            && self
                .table
                .entitlement()
                .is_some_and(|limit| self.table.row_count() >= limit);
        // Route discipline bookkeeping, one pass over the fresh row. A
        // newly dead link becomes a retraction event (my seqno bumps
        // once per tick that has any; stale lane entries age out after a
        // few rounds of advertisement), a recovered one leaves the lane
        // at once, and acting on a live direct link ratchets that
        // destination's feasibility distance: a detour must strictly
        // beat what this node can already do on its own.
        let mut new_deaths = false;
        for dst in 0..self.n {
            if dst == self.me {
                continue;
            }
            if own_row[dst].alive {
                self.retractions.remove(&(dst as u16));
                let seqno = if sheds && !self.table.row_fresh(dst, now, max_age) {
                    0
                } else {
                    self.table.row_seqno(dst)
                };
                self.routes[dst].feas.advance(seqno, own_row[dst].cost());
            } else if self.own_row[dst].alive
                && self.retractions.insert(dst as u16, self.round).is_none()
            {
                new_deaths = true;
            }
        }
        if new_deaths {
            self.own_seqno = Self::next_seqno(self.own_seqno);
        }
        let round = self.round;
        self.retractions.retain(|_, r| round - *r < 3);
        self.own_row.copy_from_slice(own_row);
        // My row as lanes, built once: the store keeps it and every
        // round-one frame of this tick shares it.
        let own_lanes = Arc::new(
            LaneRow::from_dense(own_row).with_version(self.own_seqno, &self.retraction_lane()),
        );
        self.table.put_row(self.me, Arc::clone(&own_lanes), now);

        // Section 4.1 failover management happens before round one so a
        // freshly selected failover gets link state in this very tick.
        let _newly = self.manage_failovers(now, rng);

        let mut msgs = Vec::new();
        // Round one: link state to all current servers.
        for s in self.current_servers() {
            if self.serving_since[s] == NEVER {
                self.serving_since[s] = now;
            }
            self.counters.ls_sent.inc();
            msgs.push(self.linkstate_msg(s, now, &own_lanes));
        }
        // Round two: recommendations to all fresh clients.
        msgs.extend(self.compute_recommendations(now));
        msgs
    }

    fn on_message(&mut self, now: f64, msg: &Message) -> Vec<Message> {
        match msg {
            Message::LinkState(ls) | Message::LinkStateSparse(ls) => {
                let from = ls.from.index();
                if ls.view == self.view
                    && usize::from(ls.width) == self.n
                    && from < self.n
                    && from != self.me
                    && self.table.put_row(from, Arc::clone(&ls.row), now)
                {
                    self.note_row_version(from, ls.row.seqno(), ls.row.retracted());
                }
                Vec::new()
            }
            Message::Recommendations(rm) => {
                let server = rm.from.index();
                if rm.view != self.view || server >= self.n {
                    return Vec::new();
                }
                // Room for the whole frame in one step (a first frame
                // would otherwise grow entry by entry).
                let seen = &mut self.rec_seen[server];
                seen.reserve_exact(rm.recs.len().saturating_sub(seen.len()));
                let (mut cursor, mut accepted) = (0, 0);
                for rec in &rm.recs {
                    let dst = rec.dst.index();
                    let hop = rec.hop.index();
                    if dst >= self.n || hop >= self.n || dst == self.me {
                        continue;
                    }
                    self.note_rec(server, dst, now, &mut cursor);
                    accepted += 1;
                    let route = &mut self.routes[dst];
                    if route.rec.is_none_or(|r| now >= r.received_at) {
                        route.rec = Some(RouteEntry {
                            hop,
                            from_server: server,
                            received_at: now,
                            cost_ms: rec.cost_ms,
                        });
                        // Acting on a costed recommendation ratchets the
                        // feasibility distance (the compact format carries
                        // no cost and leaves the constraint untouched).
                        if rec.cost_ms != u16::MAX {
                            route
                                .feas
                                .advance(self.table.row_seqno(dst), u32::from(rec.cost_ms));
                        }
                    }
                }
                self.counters.rec_entries_received.add(accepted);
                self.counters
                    .rec_seen_bytes
                    .set((self.rec_seen_entries * 16) as u64);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn best_hop(&self, dst: usize, now: f64) -> Option<usize> {
        self.route_decision(dst, now).map(|d| d.first_hop())
    }

    fn route_age(&self, dst: usize, now: f64) -> Option<f64> {
        self.routes[dst].rec.map(|r| now - r.received_at)
    }

    fn double_rendezvous_failures(&self, now: f64) -> usize {
        (0..self.n)
            .filter(|&dst| dst != self.me)
            .filter(|&dst| self.both_defaults_failed(dst, now))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::FeasEntry;
    use proptest::prelude::{any, prop, prop_assert_eq, proptest};
    use rand::{Rng, SeedableRng};

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(12345)
    }

    /// The counter `routing/<name>` of node 0, read through the
    /// registry snapshot.
    fn routing_counter(telemetry: &Telemetry, name: &str) -> u64 {
        telemetry
            .snapshot()
            .counter(0, "routing", name)
            .unwrap_or(0)
    }

    /// The table of a view change in which nobody moves.
    fn identity(n: usize) -> Vec<Option<u16>> {
        (0..n as u16).map(Some).collect()
    }

    /// A tiny synchronous fabric: run all routers' ticks, deliver all
    /// messages instantly (optionally dropping some links).
    struct Fabric {
        routers: Vec<QuorumRouter>,
        rng: ChaCha8Rng,
        /// Link filter: `false` ⇒ messages on (from, to) are dropped.
        link_up: Box<dyn Fn(usize, usize) -> bool>,
    }

    impl Fabric {
        fn new(n: usize, cfg: &ProtocolConfig) -> Self {
            Fabric {
                routers: (0..n)
                    .map(|i| QuorumRouter::new(i, n, 0, cfg.clone()))
                    .collect(),
                rng: rng(),
                link_up: Box::new(|_, _| true),
            }
        }

        /// One routing interval for everyone. `rows[i]` is node i's own row.
        fn tick(&mut self, now: f64, rows: &[Vec<LinkEntry>]) {
            let mut inbox: Vec<Message> = Vec::new();
            for (i, r) in self.routers.iter_mut().enumerate() {
                inbox.extend(r.on_routing_tick(now, &rows[i], &mut self.rng));
            }
            // Deliver, collecting any immediate responses (failover LS).
            let mut queue = inbox;
            while let Some(m) = queue.pop() {
                let (f, t) = (m.from().index(), m.to().index());
                if !(self.link_up)(f, t) {
                    continue;
                }
                queue.extend(self.routers[t].on_message(now + 0.01, &m));
            }
        }
    }

    /// Symmetric rows from a cost matrix; `u16::MAX` ⇒ dead link.
    fn rows_from(costs: &[&[u16]]) -> Vec<Vec<LinkEntry>> {
        costs
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| {
                        if c == u16::MAX {
                            LinkEntry::dead()
                        } else {
                            LinkEntry::live(c, 0.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// A 9-node world (3×3 grid, figure 2) where the direct path 0→8 is
    /// expensive and node 4 is the best relay for everyone.
    fn nine_node_rows() -> Vec<Vec<LinkEntry>> {
        let n = 9;
        let mut costs = vec![vec![0u16; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    costs[i][j] = 100;
                }
            }
        }
        // Node 4 is a hub: cheap to everyone.
        for i in 0..n {
            if i != 4 {
                costs[i][4] = 10;
                costs[4][i] = 10;
            }
        }
        // 0↔8 is terrible.
        costs[0][8] = 400;
        costs[8][0] = 400;
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        rows_from(&refs)
    }

    /// After two routing intervals every node must know the optimal
    /// one-hop route to every destination (Theorem 1 made operational).
    #[test]
    fn two_rounds_find_all_optimal_one_hops() {
        let cfg = ProtocolConfig::quorum();
        let mut fabric = Fabric::new(9, &cfg);
        let rows = nine_node_rows();
        fabric.tick(0.0, &rows);
        fabric.tick(15.0, &rows);
        // 0's best hop to 8 is via the hub 4 (10 + 10 = 20 vs 400 direct).
        assert_eq!(fabric.routers[0].best_hop(8, 16.0), Some(4));
        assert_eq!(fabric.routers[8].best_hop(0, 16.0), Some(4));
        // All pairs: either the direct 100 (via hub = 20 — hub wins), so
        // everyone should route via 4, except pairs involving 4.
        for i in 0..9 {
            for j in 0..9 {
                if i == j {
                    continue;
                }
                let hop = fabric.routers[i].best_hop(j, 16.0).expect("route known");
                if i == 4 || j == 4 {
                    assert_eq!(hop, j, "adjacent to hub: direct is optimal");
                } else {
                    assert_eq!(hop, 4, "{i}→{j} should relay via hub");
                }
            }
        }
    }

    /// `rec_seen` holds entries only for (server, dst) pairs that were
    /// actually recommended, and the byte gauge reports them.
    #[test]
    fn rec_seen_is_sparse_and_gauged() {
        let telemetry = Telemetry::new(3);
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut fabric = Fabric::new(n, &cfg);
        fabric.routers[3] = QuorumRouter::new_with_telemetry(3, n, 0, cfg.clone(), &telemetry);
        let rows = nine_node_rows();
        fabric.tick(0.0, &rows);
        fabric.tick(15.0, &rows);

        let r = &fabric.routers[3];
        let servers_with_entries = r.rec_seen.iter().filter(|m| !m.is_empty()).count();
        let total_entries: usize = r.rec_seen.iter().map(Vec::len).sum();
        // Only my ~2√n rendezvous servers recommend to me, about n-1
        // destinations each — nowhere near the n² dense worst case.
        assert!(servers_with_entries > 0);
        assert!(servers_with_entries <= r.grid().max_rendezvous_degree() * 2 + 1);
        assert!(total_entries <= servers_with_entries * (n - 1));
        for (s, m) in r.rec_seen.iter().enumerate() {
            assert!(m.windows(2).all(|w| w[0].0 < w[1].0), "sorted by dst");
            for &(dst, _) in m {
                assert!(r.last_rec(s, dst).is_some());
                assert_ne!(dst, 3, "never records recs about myself");
            }
        }

        // The gauge's running total equals a recount of the entries,
        // and every entry held was received at least once.
        assert!(total_entries > 0);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.gauge(3, "routing", "rec_seen_bytes"),
            Some((total_entries * 16) as u64)
        );
        let received = snap.counter(3, "routing", "rec_entries_received");
        assert!(received.unwrap_or(0) >= total_entries as u64);
        assert!(snap.counter(3, "routing", "ls_sent").unwrap_or(0) > 0);
    }

    proptest! {
        /// `rec_seen` against a `BTreeMap` model, frame by frame:
        /// several servers, destinations in any order (ascending frames
        /// ride the cursor, the rest the binary search), duplicates
        /// within a frame, destinations a server has never vouched for,
        /// and entries the router refuses (out of range, about itself).
        /// `last_rec`, the running total, the byte gauge and the
        /// per-frame `rec_entries_received` count all agree.
        #[test]
        fn rec_seen_matches_a_map_model(
            frames in prop::collection::vec(
                (
                    0usize..9,
                    any::<bool>(),
                    prop::collection::vec((0u16..12, 0u16..12), 0..14),
                ),
                1..24,
            ),
        ) {
            let n = 9;
            let telemetry = Telemetry::new(1);
            let mut me =
                QuorumRouter::new_with_telemetry(0, n, 0, ProtocolConfig::quorum(), &telemetry);
            let mut model: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
            let mut accepted = 0u64;
            for (k, (server, ascending, picks)) in frames.into_iter().enumerate() {
                let now = k as f64;
                let mut picks = picks;
                if ascending {
                    picks.sort_unstable();
                }
                let _ = me.on_message(
                    now,
                    &Message::Recommendations(RecommendationMsg {
                        from: NodeId::from_index(server),
                        to: NodeId(0),
                        view: 0,
                        round: 1,
                        basis_ms: 0,
                        format: apor_linkstate::RecFormat::Compact,
                        recs: picks
                            .iter()
                            .map(|&(dst, hop)| RecEntry {
                                dst: NodeId(dst),
                                hop: NodeId(hop),
                                cost_ms: u16::MAX,
                            })
                            .collect(),
                    }),
                );
                for (dst, hop) in picks {
                    let (dst, hop) = (usize::from(dst), usize::from(hop));
                    if dst < n && hop < n && dst != 0 {
                        model[server].insert(dst, now);
                        accepted += 1;
                    }
                }
                for (s, seen) in model.iter().enumerate() {
                    for dst in 0..n {
                        prop_assert_eq!(me.last_rec(s, dst), seen.get(&dst).copied());
                    }
                }
                let entries: usize = model.iter().map(BTreeMap::len).sum();
                prop_assert_eq!(me.rec_seen_entries, entries);
                let snap = telemetry.snapshot();
                prop_assert_eq!(
                    snap.gauge(1, "routing", "rec_seen_bytes"),
                    Some((entries * 16) as u64)
                );
                prop_assert_eq!(snap.counter(1, "routing", "rec_entries_received"), Some(accepted));
            }
        }
    }

    /// A mostly-dead own row (the entitled-probing shape) rides the
    /// sparse wire format, and the receiver reconstructs the identical
    /// row; fully-live rows keep the dense format so the section 6
    /// bandwidth formulas stay byte-exact.
    #[test]
    fn sparse_rows_use_sparse_wire_format() {
        let cfg = ProtocolConfig::quorum();
        let n = 100;
        let mut sender = QuorumRouter::new(3, n, 0, cfg.clone());
        // Live entries only to self and a handful of peers — the shape
        // entitled probing produces.
        let mut own = vec![LinkEntry::dead(); n];
        own[3] = LinkEntry::live(0, 0.0);
        for &j in &[7usize, 13, 23, 43, 53] {
            own[j] = LinkEntry::live(20 + j as u16, 0.0);
        }
        let mut g = rng();
        let msgs = sender.on_routing_tick(0.0, &own, &mut g);
        let mut saw_sparse = false;
        let mut receiver = QuorumRouter::new(13, n, 0, cfg.clone());
        for m in &msgs {
            match m {
                Message::LinkStateSparse(sm) => {
                    saw_sparse = true;
                    assert_eq!(usize::from(sm.width), n);
                    assert_eq!(sm.row.len(), 6, "the live entries and nothing else");
                    if sm.to.index() == 13 {
                        let _ = receiver.on_message(0.5, m);
                    }
                }
                Message::LinkState(_) => panic!("sparse row must not go dense"),
                _ => {}
            }
        }
        assert!(saw_sparse, "round one emits sparse link state");
        assert_eq!(
            receiver.table().row_dense(3).expect("row stored"),
            own,
            "receiver reconstructs the identical row"
        );

        // Fully-live rows stay dense.
        let full: Vec<LinkEntry> = (0..n).map(|_| LinkEntry::live(10, 0.0)).collect();
        let msgs = sender.on_routing_tick(15.0, &full, &mut g);
        assert!(msgs
            .iter()
            .all(|m| !matches!(m, Message::LinkStateSparse(_))));
    }

    /// The sparse store only ever holds the rows the node's role grants
    /// it: own row + rendezvous clients — the O(√n) state bound.
    #[test]
    fn steady_state_holds_only_entitled_rows() {
        let cfg = ProtocolConfig::quorum();
        for n in [9usize, 25, 100] {
            let mut fabric = Fabric::new(n, &cfg);
            let row = vec![LinkEntry::live(10, 0.0); n];
            let rows: Vec<Vec<LinkEntry>> = (0..n).map(|_| row.clone()).collect();
            for k in 0..3 {
                fabric.tick(k as f64 * 15.0, &rows);
            }
            for (i, r) in fabric.routers.iter().enumerate() {
                let held = r.table().row_count();
                let entitled = r.grid().rendezvous_servers(i).len() + 1;
                assert_eq!(
                    held, entitled,
                    "n={n}, node {i}: holds {held} rows, entitled to {entitled}"
                );
                assert!(held <= QuorumRouter::row_entitlement(n));
            }
        }
    }

    #[test]
    fn round1_message_complexity_is_2_sqrt_n() {
        let cfg = ProtocolConfig::quorum();
        for n in [9usize, 16, 25, 100, 144] {
            let mut r = QuorumRouter::new(0, n, 0, cfg.clone());
            let row = vec![LinkEntry::live(10, 0.0); n];
            let mut g = rng();
            let msgs = r.on_routing_tick(0.0, &row, &mut g);
            let ls_count = msgs
                .iter()
                .filter(|m| matches!(m, Message::LinkState(_)))
                .count();
            let bound = 2 * (n as f64).sqrt().ceil() as usize;
            assert!(
                ls_count <= bound,
                "n={n}: {ls_count} LS messages > 2√n = {bound}"
            );
            assert!(ls_count >= (n as f64).sqrt() as usize, "suspiciously few");
        }
    }

    #[test]
    fn recommendations_only_flow_to_clients() {
        let cfg = ProtocolConfig::quorum();
        let mut fabric = Fabric::new(9, &cfg);
        let rows = nine_node_rows();
        fabric.tick(0.0, &rows);
        // After one tick node 4 (grid position (1,1)) has clients = its
        // row {3, 5} and column {1, 7}.
        let mut g = rng();
        let msgs = fabric.routers[4].on_routing_tick(15.0, &rows[4], &mut g);
        let rec_targets: Vec<usize> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Recommendations(r) => Some(r.to.index()),
                _ => None,
            })
            .collect();
        for &t in &rec_targets {
            assert!(
                fabric.routers[4].grid().rendezvous_servers(4).contains(&t),
                "rec sent to non-client {t}"
            );
        }
        assert!(!rec_targets.is_empty());
    }

    #[test]
    fn proximal_failover_selects_new_rendezvous() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        // 0's default rendezvous pair towards 8 is {2, 6}. Kill links
        // 0–2 and 0–6 (proximal failures) and the direct 0–8.
        let dead_links: &[(usize, usize)] = &[(0, 2), (0, 6), (0, 8)];
        let mut costs = vec![vec![100u16; n]; n];
        for i in 0..n {
            costs[i][i] = 0;
        }
        for &(a, b) in dead_links {
            costs[a][b] = u16::MAX;
            costs[b][a] = u16::MAX;
        }
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        let rows = rows_from(&refs);

        let mut fabric = Fabric::new(n, &cfg);
        let up = move |f: usize, t: usize| {
            !dead_links.contains(&(f, t)) && !dead_links.contains(&(t, f))
        };
        fabric.link_up = Box::new(up);

        for k in 0..6 {
            fabric.tick(k as f64 * 15.0, &rows);
        }
        let now = 80.0;
        // Double failure must have been detected…
        assert!(fabric.routers[0].both_defaults_failed(8, now));
        // …a failover selected from 8's row/column…
        let f = fabric.routers[0]
            .active_failover(8)
            .expect("failover selected");
        assert!(fabric.routers[0].grid().rendezvous_servers(8).contains(&f));
        // …and a route to 8 recovered through it.
        let hop = fabric.routers[0].best_hop(8, now).expect("route recovered");
        assert_ne!(hop, 8, "direct link is dead; must relay");
        // The route must avoid dead links.
        assert!(up(0, hop) && up(hop, 8), "hop {hop} uses a dead link");
    }

    #[test]
    fn failover_reverts_when_default_recovers() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut costs = vec![vec![100u16; n]; n];
        for i in 0..n {
            costs[i][i] = 0;
        }
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        let healthy_rows = rows_from(&refs);

        // Phase 1: 0 cannot reach 2 or 6 → failover for dst 8.
        let mut broken = costs.clone();
        for &(a, b) in &[(0usize, 2usize), (0, 6), (0, 8)] {
            broken[a][b] = u16::MAX;
            broken[b][a] = u16::MAX;
        }
        let refs2: Vec<&[u16]> = broken.iter().map(|r| r.as_slice()).collect();
        let broken_rows = rows_from(&refs2);

        let mut fabric = Fabric::new(n, &cfg);
        let dead = [(0usize, 2usize), (0, 6), (0, 8)];
        fabric.link_up = Box::new(move |f, t| !dead.contains(&(f, t)) && !dead.contains(&(t, f)));
        for k in 0..5 {
            fabric.tick(k as f64 * 15.0, &broken_rows);
        }
        assert!(fabric.routers[0].active_failover(8).is_some());

        // Phase 2: everything heals.
        fabric.link_up = Box::new(|_, _| true);
        for k in 5..10 {
            fabric.tick(k as f64 * 15.0, &healthy_rows);
        }
        assert!(
            fabric.routers[0].active_failover(8).is_none(),
            "failover must be dropped once defaults recover"
        );
        assert_eq!(fabric.routers[0].double_rendezvous_failures(10.0 * 15.0), 0);
    }

    #[test]
    fn dead_destination_suppresses_failover_churn() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut costs = vec![vec![50u16; n]; n];
        for i in 0..n {
            costs[i][i] = 0;
        }
        // Node 8 is dead: everyone's link to 8 is dead.
        for i in 0..n {
            costs[i][8] = u16::MAX;
            costs[8][i] = u16::MAX;
        }
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        let rows = rows_from(&refs);
        let telemetry = Telemetry::new(0);
        let mut fabric = Fabric::new(n, &cfg);
        fabric.routers[0] = QuorumRouter::new_with_telemetry(0, n, 0, cfg.clone(), &telemetry);
        fabric.link_up = Box::new(|f, t| f != 8 && t != 8);
        for k in 0..12 {
            fabric.tick(k as f64 * 15.0, &rows);
        }
        // A couple of initial attempts are fine; unbounded retry is not.
        let failovers = routing_counter(&telemetry, "failovers_selected");
        assert!(
            failovers <= 4,
            "failover churn for dead destination: {failovers}"
        );
        assert!(fabric.routers[0].best_hop(8, 12.0 * 15.0).is_none());
    }

    #[test]
    fn scavenging_routes_without_recommendations() {
        // §4.2: no recs at all (we never tick the other routers so nobody
        // computes recommendations), but receiving a neighbour's link
        // state row lets us route through it.
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut me = QuorumRouter::new(0, n, 0, cfg.clone());
        let mut own = vec![LinkEntry::live(100, 0.0); n];
        own[0] = LinkEntry::live(0, 0.0);
        own[8] = LinkEntry::dead(); // can't reach 8 directly
        let mut g = rng();
        let _ = me.on_routing_tick(0.0, &own, &mut g);
        // Neighbour 1 says it reaches everyone at 20 ms.
        let row1: Vec<LinkEntry> = (0..n)
            .map(|j| {
                if j == 1 {
                    LinkEntry::live(0, 0.0)
                } else {
                    LinkEntry::live(20, 0.0)
                }
            })
            .collect();
        let _ = me.on_message(
            1.0,
            &Message::LinkState(LinkStateMsg {
                from: NodeId(1),
                to: NodeId(0),
                view: 0,
                round: 1,
                basis_ms: 0,
                width: 9,
                row: Arc::new(LaneRow::from_dense(&row1)),
            }),
        );
        assert_eq!(me.best_hop(8, 2.0), Some(1), "scavenged route via 1");
    }

    /// Two-relay splice helper: node 0 only reaches 1, 1 only reaches 2,
    /// 2 reaches 8 — invisible to 1-hop scavenging, found by k-hop.
    fn chain_to_eight(cfg: ProtocolConfig, telemetry: &Telemetry) -> QuorumRouter {
        let n = 9;
        let mut me = QuorumRouter::new_with_telemetry(0, n, 0, cfg, telemetry);
        let mut own = vec![LinkEntry::dead(); n];
        own[0] = LinkEntry::live(0, 0.0);
        own[1] = LinkEntry::live(10, 0.0);
        let _ = me.on_routing_tick(0.0, &own, &mut rng());
        for (from, reaches) in [(1usize, 2usize), (2, 8)] {
            let row: Vec<LinkEntry> = (0..n)
                .map(|j| {
                    if j == from {
                        LinkEntry::live(0, 0.0)
                    } else if j == reaches || (from == 1 && j == 0) {
                        LinkEntry::live(10, 0.0)
                    } else {
                        LinkEntry::dead()
                    }
                })
                .collect();
            let _ = me.on_message(
                1.0,
                &Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(from),
                    to: NodeId(0),
                    view: 0,
                    round: 1,
                    basis_ms: 0,
                    width: 9,
                    row: Arc::new(LaneRow::from_dense(&row)),
                }),
            );
        }
        me
    }

    #[test]
    fn k_hop_detours_recover_where_one_hop_scavenging_fails() {
        // Paper behaviour (1 hop): the chain is invisible.
        let me = chain_to_eight(ProtocolConfig::quorum(), &Telemetry::disabled());
        assert_eq!(me.best_hop(8, 2.0), None, "1-hop scavenge cannot splice");
        // k ≤ 4: the feasible detour 0→1→2→8 is spliced from live rows.
        let telemetry = Telemetry::new(0);
        let me = chain_to_eight(ProtocolConfig::quorum().with_detour_hops(4), &telemetry);
        assert_eq!(me.best_hop(8, 2.0), Some(1), "k-hop detour via 1");
        assert_eq!(routing_counter(&telemetry, "loops_detected"), 0);
    }

    #[test]
    fn route_decision_distinguishes_hops_from_spliced_detours() {
        let me = chain_to_eight(
            ProtocolConfig::quorum().with_detour_hops(4),
            &Telemetry::disabled(),
        );
        // A live direct link is a plain hop: relays re-decide.
        match me.route_decision(1, 2.0) {
            Some(RouteDecision::Hop(1)) => {}
            other => panic!("direct link must be Hop(1), got {other:?}"),
        }
        // The chain to 8 needs a splice: the full committed path rides
        // with the decision so the packet can be source-routed.
        match me.route_decision(8, 2.0) {
            Some(RouteDecision::Spliced(d)) => {
                assert_eq!(d.path, vec![0, 1, 2, 8]);
                assert_eq!(d.path[1], me.best_hop(8, 2.0).unwrap());
            }
            other => panic!("chain must be Spliced, got {other:?}"),
        }
        // Out-of-range and self queries decide nothing.
        assert!(me.route_decision(0, 2.0).is_none());
        assert!(me.route_decision(99, 2.0).is_none());
    }

    #[test]
    fn incoming_retractions_withdraw_acted_on_routes() {
        let n = 9;
        let telemetry = Telemetry::new(0);
        let mut me =
            QuorumRouter::new_with_telemetry(0, n, 0, ProtocolConfig::quorum(), &telemetry);
        let mut own = vec![LinkEntry::dead(); n];
        own[0] = LinkEntry::live(0, 0.0);
        own[4] = LinkEntry::live(10, 0.0);
        let _ = me.on_routing_tick(0.0, &own, &mut rng());
        let _ = me.on_message(
            1.0,
            &Message::Recommendations(RecommendationMsg {
                from: NodeId(2),
                to: NodeId(0),
                view: 0,
                round: 1,
                basis_ms: 0,
                format: apor_linkstate::RecFormat::WithCost,
                recs: vec![RecEntry {
                    dst: NodeId(8),
                    hop: NodeId(4),
                    cost_ms: 30,
                }],
            }),
        );
        assert_eq!(me.best_hop(8, 2.0), Some(4));
        // Node 4 retracts its link to 8 at seqno 2: the route through it
        // is withdrawn, not kept until expiry.
        let row4: Vec<LinkEntry> = (0..n)
            .map(|j| {
                if j == 4 {
                    LinkEntry::live(0, 0.0)
                } else if j == 0 {
                    LinkEntry::live(10, 0.0)
                } else {
                    LinkEntry::dead()
                }
            })
            .collect();
        let _ = me.on_message(
            2.0,
            &Message::LinkState(LinkStateMsg {
                from: NodeId(4),
                to: NodeId(0),
                view: 0,
                round: 2,
                basis_ms: 0,
                width: 9,
                row: Arc::new(LaneRow::from_dense(&row4).with_version(2, &[8])),
            }),
        );
        assert!(
            me.route_entry(8).is_none(),
            "retraction withdraws the route"
        );
        assert_eq!(routing_counter(&telemetry, "routes_retracted"), 1);
        assert_eq!(me.best_hop(8, 2.5), None);
        // A delayed replay of 4's older row (seqno 1, link to 8 alive)
        // must not resurrect the route.
        let mut stale = row4;
        stale[8] = LinkEntry::live(5, 0.0);
        let _ = me.on_message(
            3.0,
            &Message::LinkState(LinkStateMsg {
                from: NodeId(4),
                to: NodeId(0),
                view: 0,
                round: 1,
                basis_ms: 0,
                width: 9,
                row: Arc::new(LaneRow::from_dense(&stale).with_version(1, &[])),
            }),
        );
        assert_eq!(me.table().row_seqno(4), 2, "stale replay rejected");
        assert!(me.table().row_retracts(4, 8));
        assert_eq!(me.best_hop(8, 3.5), None);
    }

    #[test]
    fn own_link_death_bumps_seqno_and_advertises_retraction() {
        let n = 9;
        let mut me = QuorumRouter::new(0, n, 0, ProtocolConfig::quorum());
        let mut own: Vec<LinkEntry> = (0..n).map(|_| LinkEntry::live(50, 0.0)).collect();
        own[0] = LinkEntry::live(0, 0.0);
        let mut g = rng();
        let msgs = me.on_routing_tick(0.0, &own, &mut g);
        assert_eq!(me.own_seqno(), 0, "no retraction event yet");
        let Some(Message::LinkState(ls)) = msgs.iter().find(|m| matches!(m, Message::LinkState(_)))
        else {
            panic!("expected dense link state");
        };
        assert_eq!((ls.row.seqno(), ls.row.retracted()), (0, &[][..]));
        // Link to 3 dies: seqno bumps once, the lane advertises dst 3.
        own[3] = LinkEntry::dead();
        let msgs = me.on_routing_tick(15.0, &own, &mut g);
        assert_eq!(me.own_seqno(), 1);
        let Some(Message::LinkState(ls)) = msgs.iter().find(|m| matches!(m, Message::LinkState(_)))
        else {
            panic!("expected dense link state");
        };
        assert_eq!((ls.row.seqno(), ls.row.retracted()), (1, &[3u16][..]));
        // The lane ages out after three rounds of advertisement…
        let _ = me.on_routing_tick(30.0, &own, &mut g);
        let _ = me.on_routing_tick(45.0, &own, &mut g);
        let msgs = me.on_routing_tick(60.0, &own, &mut g);
        let Some(Message::LinkState(ls)) = msgs.iter().find(|m| matches!(m, Message::LinkState(_)))
        else {
            panic!("expected dense link state");
        };
        assert!(ls.row.retracted().is_empty(), "lane aged out");
        assert_eq!(me.own_seqno(), 1, "seqno sticks");
        // …and a recovery drops a fresh lane entry immediately.
        own[5] = LinkEntry::dead();
        let _ = me.on_routing_tick(75.0, &own, &mut g);
        assert_eq!(me.own_seqno(), 2);
        own[5] = LinkEntry::live(50, 0.0);
        let msgs = me.on_routing_tick(90.0, &own, &mut g);
        let Some(Message::LinkState(ls)) = msgs.iter().find(|m| matches!(m, Message::LinkState(_)))
        else {
            panic!("expected dense link state");
        };
        assert!(ls.row.retracted().is_empty(), "recovered link leaves");
    }

    #[test]
    fn link_loss_hook_and_departure_retraction() {
        let n = 9;
        let telemetry = Telemetry::new(0);
        let mut me =
            QuorumRouter::new_with_telemetry(0, n, 0, ProtocolConfig::quorum(), &telemetry);
        let mut own = vec![LinkEntry::dead(); n];
        own[0] = LinkEntry::live(0, 0.0);
        own[4] = LinkEntry::live(10, 0.0);
        own[5] = LinkEntry::live(10, 0.0);
        let _ = me.on_routing_tick(0.0, &own, &mut rng());
        for dst in [7usize, 8] {
            let _ = me.on_message(
                1.0,
                &Message::Recommendations(RecommendationMsg {
                    from: NodeId(2),
                    to: NodeId(0),
                    view: 0,
                    round: 1,
                    basis_ms: 0,
                    format: apor_linkstate::RecFormat::WithCost,
                    recs: vec![RecEntry {
                        dst: NodeId::from_index(dst),
                        hop: NodeId(if dst == 7 { 4 } else { 5 }),
                        cost_ms: 30,
                    }],
                }),
            );
        }
        // Prober-declared loss of the link to 4: seqno bumps out of band.
        me.on_link_loss(4, 2.0);
        assert_eq!(me.own_seqno(), 1);
        assert!(!me.table().entry(0, 4).alive);
        assert_eq!(routing_counter(&telemetry, "routes_retracted"), 1);
        // View change: node 5 does not survive → its route is retracted.
        let table: Vec<Option<u16>> = (0..9).map(|i| (i != 5).then_some(i)).collect();
        me.retract_departed_routes(&table);
        assert!(me.route_entry(8).is_none());
        assert!(me.route_entry(7).is_some(), "surviving route kept");
        assert_eq!(routing_counter(&telemetry, "routes_retracted"), 2);
    }

    /// A link-state frame from node 1 to node 0 in `view`.
    fn frame_from_one(view: u32, row: &[LinkEntry], seqno: u16, retracted: &[u16]) -> Message {
        Message::LinkState(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(0),
            view,
            round: 1,
            basis_ms: 0,
            width: row.len() as u16,
            row: Arc::new(LaneRow::from_dense(row).with_version(seqno, retracted)),
        })
    }

    /// A carried row keeps its retraction lane but is unversioned: the
    /// origin numbers its rows from 0 again in the new view, and its
    /// frames replace the carried row whatever their seqno. The replay
    /// guard holds across the carry all the same: a delayed frame of the
    /// old view is refused whatever its seqno — by the view check.
    #[test]
    fn versioned_export_import_preserves_the_replay_guard() {
        // Node 1 is in node 0's grid row, so 0 is entitled to its row in
        // both views.
        let n = 9;
        let mut a = QuorumRouter::new(0, n, 0, ProtocolConfig::quorum());
        let row1: Vec<LinkEntry> = (0..n)
            .map(|j| LinkEntry::live(if j == 1 { 0 } else { 10 }, 0.0))
            .collect();
        let _ = a.on_message(1.0, &frame_from_one(0, &row1, 9, &[6]));
        // The same nine members under a new view number.
        let (mut b, carried) = a.reinstall(0, n, 1, &identity(n), 1.5);
        assert_eq!(carried, 1);
        assert_eq!(b.table().row_seqno(1), 0, "carried unversioned");
        assert!(b.table().row_retracts(1, 6), "with its retraction lane");
        let mut newer = row1;
        newer[6] = LinkEntry::live(5, 0.0);
        let _ = b.on_message(2.0, &frame_from_one(0, &newer, 10, &[]));
        assert_eq!(b.table().row_time(1), Some(1.0), "old-view frame refused");
        assert!(b.table().row_retracts(1, 6));
        let _ = b.on_message(3.0, &frame_from_one(1, &newer, 1, &[]));
        assert_eq!(
            b.table().row_time(1),
            Some(3.0),
            "new-view seqno 1 < 9 taken"
        );
        assert_eq!(b.table().row_seqno(1), 1);
        assert!(b.table().entry(1, 6).alive);
    }

    /// Node 0 of the nine-node world after three link deaths, one per
    /// tick (seqno 3), carried into view 1 with nobody moving at t = 50.
    fn three_deaths_then_a_view_change() -> (QuorumRouter, Vec<LinkEntry>) {
        let mut r = QuorumRouter::new(0, 9, 0, ProtocolConfig::quorum());
        let mut own = nine_node_rows().swap_remove(0);
        let mut g = rng();
        let _ = r.on_routing_tick(0.0, &own, &mut g);
        for (k, dst) in [1usize, 2, 3].into_iter().enumerate() {
            own[dst] = LinkEntry::dead();
            let _ = r.on_routing_tick(15.0 * (k + 1) as f64, &own, &mut g);
        }
        assert_eq!(r.table().row_seqno(0), 3);
        let (r, _) = r.reinstall(0, 9, 1, &identity(9), 50.0);
        (r, own)
    }

    /// A link lost before the first tick of a new view bumps the seqno
    /// from 0 to 1; the node's own carried row must not shadow the rows
    /// it puts from then on (it froze at seqno 3 and went stale when
    /// the carried row kept its seqno).
    #[test]
    fn the_own_row_carried_across_a_view_change_takes_the_next_tick() {
        let (mut r, mut own) = three_deaths_then_a_view_change();
        r.on_link_loss(5, 55.0);
        own[5] = LinkEntry::dead();
        assert_eq!(r.own_seqno(), 1);
        let mut g = rng();
        for k in 0..4 {
            let now = 60.0 + 15.0 * f64::from(k);
            let _ = r.on_routing_tick(now, &own, &mut g);
            assert_eq!(r.table().row_time(0), Some(now), "own row put at {now}");
            assert_eq!(r.table().row_seqno(0), r.own_seqno());
        }
    }

    /// The same freeze at the servers holding node 0's row: each one
    /// carries it across the view change, and must take node 0's first
    /// new-view frame, already at seqno 1.
    #[test]
    fn a_servers_carried_copy_takes_the_origins_next_frame() {
        let n = 9;
        let mut fabric = Fabric::new(n, &ProtocolConfig::quorum());
        let mut rows = nine_node_rows();
        fabric.tick(0.0, &rows);
        for (k, dst) in [1usize, 2, 3].into_iter().enumerate() {
            rows[0][dst] = LinkEntry::dead();
            fabric.tick(15.0 * (k + 1) as f64, &rows);
        }
        // Node 0's rendezvous servers (a failover server's copy is not
        // carried).
        let servers: Vec<usize> = (1..n)
            .filter(|&s| fabric.routers[s].grid().serves(0, s))
            .collect();
        assert!(!servers.is_empty());
        for &s in &servers {
            assert_eq!(fabric.routers[s].table().row_seqno(0), 3);
        }
        fabric.routers = std::mem::take(&mut fabric.routers)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.reinstall(i, n, 1, &identity(n), 50.0).0)
            .collect();
        fabric.routers[0].on_link_loss(5, 55.0);
        rows[0][5] = LinkEntry::dead();
        fabric.tick(60.0, &rows);
        for &s in &servers {
            let table = fabric.routers[s].table();
            assert_eq!(table.row_time(0), Some(60.01), "server {s}");
            assert_eq!(table.row_seqno(0), 1, "server {s}");
            assert!(!table.entry(0, 5).alive, "server {s}");
        }
    }

    /// A link loss puts the held own row without the link — lanes less
    /// `dst`, the seqno and retraction lane it was put with, stamped
    /// now — and an empty row when none is held. A link the row already
    /// lacks puts the same row again.
    #[test]
    fn a_link_loss_puts_the_held_own_row_without_the_link() {
        let mut r = QuorumRouter::new(0, 9, 0, ProtocolConfig::quorum());
        r.on_link_loss(3, 1.0);
        assert_eq!(r.table().row(0), Some(&LaneRow::default()));
        assert_eq!(r.table().row_time(0), Some(1.0));
        let mut own = nine_node_rows().swap_remove(0);
        let mut g = rng();
        let _ = r.on_routing_tick(10.0, &own, &mut g);
        own[2] = LinkEntry::dead();
        let _ = r.on_routing_tick(25.0, &own, &mut g);
        // The loss at t = 1 and the tick's; 3 is alive again, so only 2
        // is retracted.
        assert_eq!(r.own_seqno(), 2);
        let held = r.table().row(0).cloned().expect("own row");
        assert_eq!(held, LaneRow::from_dense(&own).with_version(2, &[2]));
        r.on_link_loss(4, 30.0);
        assert_eq!(r.own_seqno(), 3);
        own[4] = LinkEntry::dead();
        let want = LaneRow::from_dense(&own).with_version(2, &[2]);
        assert_eq!(r.table().row(0), Some(&want), "held seqno and lane");
        assert_eq!(r.table().row_time(0), Some(30.0));
        r.on_link_loss(2, 31.0);
        assert_eq!(r.table().row(0), Some(&want));
        assert_eq!(r.table().row_time(0), Some(31.0));
    }

    #[test]
    fn recommendations_update_routes_and_age() {
        let cfg = ProtocolConfig::quorum();
        let mut me = QuorumRouter::new(0, 9, 0, cfg);
        assert_eq!(me.route_age(8, 10.0), None);
        // A recommendation is only usable over a live first leg, so give
        // node 0 a measured link to the hop it is about to be recommended.
        let mut own = vec![LinkEntry::dead(); 9];
        own[4] = LinkEntry::live(10, 0.0);
        let _ = me.on_routing_tick(0.0, &own, &mut rng());
        let rec = Message::Recommendations(RecommendationMsg {
            from: NodeId(2),
            to: NodeId(0),
            view: 0,
            round: 3,
            basis_ms: 0,
            format: apor_linkstate::RecFormat::Compact,
            recs: vec![RecEntry {
                dst: NodeId(8),
                hop: NodeId(4),
                cost_ms: 20,
            }],
        });
        let _ = me.on_message(5.0, &rec);
        assert_eq!(me.best_hop(8, 6.0), Some(4));
        assert_eq!(me.route_age(8, 9.0), Some(4.0));
        // Expired recommendations stop being used directly.
        assert!(me.route_age(8, 500.0).unwrap() > 400.0);
        assert_eq!(me.best_hop(8, 500.0), None, "no fresh info at all");
    }

    #[test]
    fn cross_view_messages_dropped() {
        let cfg = ProtocolConfig::quorum();
        let mut me = QuorumRouter::new(0, 9, 3, cfg);
        let rec = Message::Recommendations(RecommendationMsg {
            from: NodeId(2),
            to: NodeId(0),
            view: 99,
            round: 3,
            basis_ms: 0,
            format: apor_linkstate::RecFormat::Compact,
            recs: vec![RecEntry {
                dst: NodeId(8),
                hop: NodeId(4),
                cost_ms: 20,
            }],
        });
        let _ = me.on_message(5.0, &rec);
        assert_eq!(me.best_hop(8, 6.0), None);
    }

    #[test]
    fn malformed_recs_ignored_without_panic() {
        let cfg = ProtocolConfig::quorum();
        let mut me = QuorumRouter::new(0, 9, 0, cfg);
        let rec = Message::Recommendations(RecommendationMsg {
            from: NodeId(2),
            to: NodeId(0),
            view: 0,
            round: 3,
            basis_ms: 0,
            format: apor_linkstate::RecFormat::Compact,
            recs: vec![
                RecEntry {
                    dst: NodeId(200), // out of range
                    hop: NodeId(4),
                    cost_ms: 20,
                },
                RecEntry {
                    dst: NodeId(8),
                    hop: NodeId(250), // out of range
                    cost_ms: 20,
                },
                RecEntry {
                    dst: NodeId(0), // about myself
                    hop: NodeId(4),
                    cost_ms: 20,
                },
            ],
        });
        let _ = me.on_message(5.0, &rec);
        assert_eq!(me.best_hop(8, 6.0), None);
    }

    #[test]
    fn double_failure_metric_counts_destinations() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        // Kill my links to 2 and 6 — the default pair for dst 8 AND the
        // servers covering several other destinations.
        let mut own: Vec<LinkEntry> = (0..n).map(|_| LinkEntry::live(50, 0.0)).collect();
        own[0] = LinkEntry::live(0, 0.0);
        own[2] = LinkEntry::dead();
        own[6] = LinkEntry::dead();
        let mut me = QuorumRouter::new(0, n, 0, cfg);
        let mut g = rng();
        let _ = me.on_routing_tick(0.0, &own, &mut g);
        let d = me.double_rendezvous_failures(0.1);
        // dst 8's default pair {2, 6} is fully dead → at least dst 8 counts.
        assert!(me.both_defaults_failed(8, 0.1));
        assert!(d >= 1);
        // dst 1 shares my row: I am one of its default rendezvous, and my
        // own data for 1 is fresh → not a double failure.
        assert!(!me.both_defaults_failed(1, 0.1));
    }

    /// What leaves the old view comes back only if the new grid
    /// entitles the node to it: a fresh row of a surviving origin that
    /// is not a rendezvous client is counted as having survived, is not
    /// relabelled into the store, and is not counted as merged.
    #[test]
    fn export_import_round_trips_entitled_rows() {
        let telemetry = Telemetry::new(0);
        let n = 9;
        let mut a = QuorumRouter::new_with_telemetry(0, n, 0, ProtocolConfig::quorum(), &telemetry);
        // Node 1 is a client of node 0 (shares row 0); node 4 is not.
        let row = |base: u16| -> Vec<LinkEntry> {
            (0..n)
                .map(|j| LinkEntry::live(base + j as u16, 0.0))
                .collect()
        };
        for from in [1usize, 4] {
            let _ = a.on_message(
                2.0,
                &Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(from),
                    to: NodeId(0),
                    view: 0,
                    round: 1,
                    basis_ms: 0,
                    width: 9,
                    row: Arc::new(LaneRow::from_dense(&row(from as u16 * 10))),
                }),
            );
        }
        let merged = telemetry.counter("linkstate", "rows_merged");
        let before = merged.get();
        let (b, survived) = a.reinstall(0, n, 1, &identity(n), 3.0);
        assert_eq!(survived, 2, "both rows are fresh and of surviving origins");
        assert_eq!(b.table().row_time(1), Some(2.0), "client row carried");
        assert!(
            b.table().row_time(4).is_none(),
            "non-client row must be dropped by the entitlement filter"
        );
        assert_eq!(b.table().row_count(), 1);
        assert_eq!(merged.get() - before, 1, "only the kept row is merged");
    }

    /// An unversioned row with every link alive at the given cost.
    fn lanes(costs: &[u16]) -> LaneRow {
        let entries: Vec<LinkEntry> = costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect();
        LaneRow::from_dense(&entries)
    }

    /// Node 0 of `n`, holding `rows` (`(origin, receipt time, row)`),
    /// carried through `table` into a view of `n_new` at `now`. In
    /// grids this small every member is a rendezvous client of node 0.
    fn carried(
        n: usize,
        rows: Vec<(usize, f64, LaneRow)>,
        table: &[Option<u16>],
        n_new: usize,
        now: f64,
    ) -> (QuorumRouter, usize) {
        let mut r = QuorumRouter::new(0, n, 1, ProtocolConfig::quorum());
        for (origin, at, row) in rows {
            r.table.put_row(origin, Arc::new(row), at);
        }
        let (r, survived) = r.reinstall(0, n_new, 2, table, now);
        assert!((1..n_new).all(|c| r.grid.serves(c, 0)));
        (r, survived)
    }

    #[test]
    fn entries_move_by_identity() {
        // Old view {1, 5, 9} → indices {0, 1, 2}. Node 5 leaves, node 3
        // joins: new view {1, 3, 9} → node 9 stays at index 2, node 1 at
        // 0, the new index 1 is node 3 (unmeasured).
        let table = [Some(0), None, Some(2)];
        let rows = vec![(0, 10.0, lanes(&[0, 50, 70]))];
        let (r, survived) = carried(3, rows, &table, 3, 12.0);
        assert_eq!(survived, 1);
        assert_eq!(r.table.row_count(), 1);
        assert_eq!(
            r.table.row_time(0),
            Some(10.0),
            "receipt time preserved, not refreshed"
        );
        let (_, _, row) = r.table.held_rows().next().expect("node 1 keeps index 0");
        let listed: Vec<usize> = row.iter_live().map(|(dst, _)| dst).collect();
        assert_eq!(listed, [0, 2], "joiner 3 is absent, not listed dead");
        assert_eq!(r.table.entry(0, 0).latency_ms, 0, "1→1 self entry");
        assert!(!r.table.entry(0, 1).alive, "joiner 3 reads as dead");
        assert_eq!(
            r.table.entry(0, 2).latency_ms,
            70,
            "1→9 carried by identity"
        );
    }

    #[test]
    fn departed_origin_rows_dropped() {
        // {1, 5, 9} → {1, 9}: node 5's row (old index 1) has no home.
        let table = [Some(0), None, Some(1)];
        let rows = vec![
            (1, 10.0, lanes(&[40, 0, 60])),
            (2, 10.0, lanes(&[70, 60, 0])),
        ];
        let (r, survived) = carried(3, rows, &table, 2, 11.0);
        assert_eq!(survived, 1);
        assert_eq!(r.table.present_rows(), [1], "node 9 is index 1 now");
        assert_eq!(r.table.row_ref(1).expect("held").width(), 2);
        assert_eq!(r.table.entry(1, 0).latency_ms, 70, "9→1 survives");
    }

    #[test]
    fn stale_rows_dropped_per_freshness_rule() {
        // At now = 70 under the 45 s window: the row stamped 10 is
        // stale, the row stamped 60 survives.
        let rows = vec![(0, 10.0, lanes(&[0, 50])), (1, 60.0, lanes(&[50, 0]))];
        let (r, survived) = carried(2, rows, &identity(2), 2, 70.0);
        assert_eq!(survived, 1);
        assert_eq!(r.table.present_rows(), [1]);
    }

    #[test]
    fn the_retraction_lane_is_translated() {
        // Old view {1, 5, 9}: node 1's row retracts 5 (index 1) and 9
        // (index 2) at seqno 7. Node 5 leaves, node 3 joins.
        let table = [Some(0), None, Some(2)];
        let rows = vec![(0, 10.0, lanes(&[0, 50, 70]).with_version(7, &[1, 2]))];
        let (r, survived) = carried(3, rows, &table, 3, 12.0);
        assert_eq!(survived, 1);
        assert_eq!(r.table.row_seqno(0), 0, "carried unversioned");
        assert_eq!(
            r.table.row_retractions(0),
            [2],
            "retraction against departed 5 dropped; 9 stays at index 2"
        );
        assert_eq!(r.table.row_time(0), Some(10.0));
    }

    /// The sweep before it filled one buffer per tick: candidates from
    /// `rendezvous_servers(dst)`, a fresh `Vec` per destination.
    /// Returns the failover state it would leave — `(current, tried)`
    /// per destination — and the servers it would newly select, drawing
    /// from `rng`.
    fn sweep_by_definition(
        r: &QuorumRouter,
        now: f64,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<FailoverEpisode>, Vec<usize>) {
        let mut failover = failover_episodes(r);
        let mut newly = Vec::new();
        for dst in (0..r.n).filter(|&d| d != r.me) {
            let (current, tried) = &mut failover[dst];
            if !r.both_defaults_failed(dst, now) {
                (*current, *tried) = (None, BTreeSet::new());
                continue;
            }
            if let Some(f) = *current {
                if !r.server_failed(f, dst, now) {
                    continue;
                }
                tried.insert(f);
                *current = None;
            }
            if !tried.is_empty() {
                let reachable = r.table.anyone_reaches(dst, now, r.config.staleness_s())
                    || r.own_row[dst].alive;
                if !reachable {
                    continue;
                }
            }
            let mut pool = r.grid.rendezvous_servers(dst);
            pool.retain(|&c| c != r.me && c != dst && r.own_row[c].alive && !tried.contains(&c));
            let Some(&f) = pool.choose(rng) else {
                tried.clear();
                continue;
            };
            *current = Some(f);
            tried.insert(f);
            newly.push(f);
        }
        newly.sort_unstable();
        newly.dedup();
        (failover, newly)
    }

    /// A destination's failover episode: the active server and the
    /// candidates tried.
    type FailoverEpisode = (Option<usize>, BTreeSet<usize>);

    fn failover_episodes(r: &QuorumRouter) -> Vec<FailoverEpisode> {
        r.routes
            .iter()
            .map(|s| (s.failover, s.tried.clone()))
            .collect()
    }

    /// On an incomplete grid (250 nodes on 16×16, ten in the last row)
    /// with this node beyond the last row's end — so destinations there
    /// have one crossing, the other cell being blank — and 80-odd
    /// destinations under a double failure: sweep after sweep, as
    /// failovers are tried, die and run out, the kept-buffer sweep
    /// leaves the state and makes the draws the per-destination one did.
    #[test]
    fn failover_sweep_matches_the_per_destination_definition() {
        let n = 250;
        let me = 2 * 16 + 12;
        let mut r = QuorumRouter::new(me, n, 0, ProtocolConfig::quorum());
        assert!(!r.grid.is_complete());
        assert_eq!(r.grid.default_rendezvous_pair(me, 15 * 16 + 3).len(), 1);
        // My whole row is unreachable, and so are my column's nodes in
        // five other rows: every destination of those rows has lost
        // both default servers. A few destinations are dead outright.
        let mut own = vec![LinkEntry::live(40, 0.0); n];
        for c in 0..16 {
            own[2 * 16 + c] = LinkEntry::dead();
        }
        own[me] = LinkEntry::live(0, 0.0);
        for row in [0, 5, 9, 14, 15] {
            if let Some(s) = r.grid.at(row, 12) {
                own[s] = LinkEntry::dead();
            }
            own[row * 16 + 3] = LinkEntry::dead();
        }
        r.own_row.copy_from_slice(&own);
        let mut rng = rng();
        let mut selected_total = 0;
        for sweep in 0..12 {
            let now = f64::from(sweep) * 15.0;
            let in_branch = (0..n)
                .filter(|&d| d != me && r.both_defaults_failed(d, now))
                .count();
            assert!(in_branch >= 60, "{in_branch} destinations");
            let mut model_rng = rng.clone();
            let (want_state, want_new) = sweep_by_definition(&r, now, &mut model_rng);
            let new = r.manage_failovers(now, &mut rng);
            assert_eq!(new, want_new, "sweep {sweep}");
            assert_eq!(failover_episodes(&r), want_state, "sweep {sweep}");
            assert_eq!(
                rng.clone().gen::<u64>(),
                model_rng.gen::<u64>(),
                "sweep {sweep}: same draws"
            );
            selected_total += new.len();
            // Whoever was just selected dies too, so the next sweep has
            // tried candidates to exclude and, in time, pools to exhaust.
            for f in new {
                r.own_row[f] = LinkEntry::dead();
            }
        }
        assert!(selected_total > 100, "{selected_total} selections");
        // Some destination was given up on: its episode has tried
        // candidates and no active server.
        assert!(r
            .routes
            .iter()
            .any(|s| s.failover.is_none() && !s.tried.is_empty()));
    }

    /// The tick's route-discipline bookkeeping by definition: the
    /// retraction diff and the fd ratchet as two passes on either side
    /// of the own-row put, over a map of feasibility entries. It keeps
    /// its own store and is fed what the router's is.
    struct TwoPassModel {
        me: usize,
        round: u32,
        own_seqno: u16,
        own_row: Vec<LinkEntry>,
        retractions: BTreeMap<u16, u32>,
        feas: BTreeMap<usize, FeasEntry>,
        table: RowStore,
    }

    impl TwoPassModel {
        fn new(me: usize, n: usize) -> Self {
            TwoPassModel {
                me,
                round: 0,
                own_seqno: 0,
                own_row: vec![LinkEntry::dead(); n],
                retractions: BTreeMap::new(),
                feas: BTreeMap::new(),
                table: RowStore::with_entitlement(
                    n,
                    QuorumRouter::row_entitlement(n),
                    ProtocolConfig::quorum().staleness_s(),
                    Telemetry::disabled(),
                ),
            }
        }

        /// Apply one rule to `dst`'s entry; an entry exists once a rule
        /// has created it.
        fn feas(&mut self, dst: usize, rule: impl FnOnce(&mut Feasibility)) {
            let mut f = Feasibility(self.feas.get(&dst).copied());
            rule(&mut f);
            if let Some(e) = f.0 {
                self.feas.insert(dst, e);
            }
        }

        fn tick(&mut self, now: f64, own_row: &[LinkEntry]) {
            let me = self.me;
            self.round += 1;
            let mut new_deaths = false;
            for dst in (0..own_row.len()).filter(|&d| d != me) {
                if own_row[dst].alive {
                    self.retractions.remove(&(dst as u16));
                } else if self.own_row[dst].alive
                    && self.retractions.insert(dst as u16, self.round).is_none()
                {
                    new_deaths = true;
                }
            }
            if new_deaths {
                self.own_seqno = QuorumRouter::next_seqno(self.own_seqno);
            }
            let round = self.round;
            self.retractions.retain(|_, r| round - *r < 3);
            self.own_row.copy_from_slice(own_row);
            let lane: Vec<u16> = self.retractions.keys().copied().collect();
            let row = LaneRow::from_dense(own_row).with_version(self.own_seqno, &lane);
            self.table.put_row(self.me, Arc::new(row), now);
            for dst in (0..own_row.len()).filter(|&d| d != me) {
                if own_row[dst].alive {
                    let seqno = self.table.row_seqno(dst);
                    self.feas(dst, |f| f.advance(seqno, own_row[dst].cost()));
                }
            }
        }

        fn link_loss(&mut self, dst: usize, now: f64) {
            if self.retractions.insert(dst as u16, self.round).is_none() {
                self.own_seqno = QuorumRouter::next_seqno(self.own_seqno);
            }
            let seqno = self.table.row_seqno(dst);
            self.feas(dst, |f| {
                f.retract(seqno);
            });
            self.own_row[dst] = LinkEntry::dead();
            // The held own row's live entries but `dst`, at its seqno
            // and retraction lane; an empty row when none is held.
            let me = self.me;
            let row = match self.table.row_ref(me) {
                Some(held) => {
                    let pairs: Vec<(u16, LinkEntry)> = held
                        .iter_live()
                        .filter(|&(d, _)| d != dst)
                        .map(|(d, e)| (d as u16, e))
                        .collect();
                    LaneRow::from_pairs(&pairs)
                        .with_version(self.table.row_seqno(me), &self.table.row_retractions(me))
                }
                None => LaneRow::default(),
            };
            self.table.put_row(me, Arc::new(row), now);
        }

        fn row(&mut self, from: usize, row: Arc<LaneRow>, now: f64) {
            let seqno = row.seqno();
            if self.table.put_row(from, row, now) && seqno != 0 {
                self.feas(from, |f| f.note_seqno(seqno));
            }
        }
    }

    /// An empty row at `seqno`, and the frame carrying it from `from`.
    fn versioned_row(from: usize, n: usize, seqno: u16) -> (Arc<LaneRow>, Message) {
        let row = Arc::new(LaneRow::default().with_version(seqno, &[]));
        let frame = Message::LinkStateSparse(LinkStateMsg {
            from: NodeId::from_index(from),
            to: NodeId(0),
            view: 0,
            round: 1,
            basis_ms: 0,
            width: n as u16,
            row: Arc::clone(&row),
        });
        (row, frame)
    }

    proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..Default::default() })]

        /// The one-pass tick against the two-pass model, step by step:
        /// links die and recover, the prober declares losses between
        /// ticks, rows arrive carrying seqnos, and time jumps far enough
        /// for rows — my own included — to go stale. About half the
        /// cases start with a store at its entitlement holding stale
        /// rows, so the first put of my own row sheds rows whose seqnos
        /// the ratchet reads. Seqno, retraction lane, every
        /// destination's feasibility entry and the rows held agree
        /// after every step.
        #[test]
        fn one_tick_pass_matches_the_two_pass_definition(
            me in 0usize..64,
            preload in prop::collection::vec((0u16..4, any::<bool>()), 36..64),
            steps in prop::collection::vec((0u8..6, 0usize..64, 0u16..4, any::<bool>()), 10..40),
        ) {
            let n = 64;
            let mut router = QuorumRouter::new(me, n, 0, ProtocolConfig::quorum());
            let mut model = TwoPassModel::new(me, n);
            prop_assert_eq!(QuorumRouter::row_entitlement(n), 48, "the preload straddles it");
            let origins = (0..n).filter(|&o| o != me);
            for (from, &(seqno, stale)) in origins.zip(&preload) {
                let at = if stale { 0.0 } else { 30.0 };
                let (row, frame) = versioned_row(from, n, seqno);
                let _ = router.on_message(at, &frame);
                model.row(from, row, at);
            }
            let mut truth: Vec<LinkEntry> =
                (0..n).map(|d| LinkEntry::live(10 + d as u16, 0.0)).collect();
            truth[me] = LinkEntry::live(0, 0.0);
            let mut now = 50.0;
            let mut g = rng();
            for (kind, a, seqno, flag) in steps {
                let dst = a % n;
                match kind {
                    0..=2 if dst != me => {
                        truth[dst] = if flag {
                            LinkEntry::dead()
                        } else {
                            LinkEntry::live(10 + dst as u16, 0.0)
                        };
                        let _ = router.on_routing_tick(now, &truth, &mut g);
                        model.tick(now, &truth);
                        now += 15.0;
                    }
                    3 if dst != me => {
                        router.on_link_loss(dst, now - 5.0);
                        model.link_loss(dst, now - 5.0);
                        if flag {
                            truth[dst] = LinkEntry::dead();
                        }
                    }
                    4 if dst != me => {
                        let (row, frame) = versioned_row(dst, n, seqno);
                        let _ = router.on_message(now - 3.0, &frame);
                        model.row(dst, row, now - 3.0);
                    }
                    _ => now += 50.0,
                }
                prop_assert_eq!(router.own_seqno(), model.own_seqno);
                let lane: Vec<u16> = model.retractions.keys().copied().collect();
                prop_assert_eq!(router.retraction_lane(), lane);
                for d in 0..n {
                    prop_assert_eq!(router.routes[d].feas.0, model.feas.get(&d).copied(), "dst {}", d);
                }
                prop_assert_eq!(router.table.present_rows(), model.table.present_rows());
            }
        }
    }

    /// One destination's record costs what its recommendation and
    /// failover episode cost apart.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_route_slot_is_at_most_88_bytes() {
        assert!(std::mem::size_of::<Route>() <= 88);
    }

    /// A router rebuilt over the parts of one that has lived — ticks,
    /// recommendations held, failovers in progress, retractions pending,
    /// rows stored, an episode armed — is, field for field, the router
    /// built from nothing for the same `(me, n, view)` on the same
    /// registry and tracer: `Debug` prints every field.
    #[test]
    fn a_reinstalled_router_equals_a_fresh_one() {
        let telemetry = Telemetry::new(0);
        let tracer = Tracer::new(0, 64);
        let cfg = ProtocolConfig::quorum().with_detour_hops(4);
        let n = 9;
        let dead = [(0usize, 2usize), (0, 6), (0, 8)];
        let mut costs = vec![vec![100u16; n]; n];
        for i in 0..n {
            costs[i][i] = 0;
        }
        for &(a, b) in &dead {
            costs[a][b] = u16::MAX;
            costs[b][a] = u16::MAX;
        }
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        let mut rows = rows_from(&refs);
        let mut fabric = Fabric::new(n, &cfg);
        fabric.routers[0] = QuorumRouter::new_with_telemetry(0, n, 0, cfg.clone(), &telemetry)
            .with_tracer(tracer.clone());
        fabric.link_up = Box::new(move |f, t| !dead.contains(&(f, t)) && !dead.contains(&(t, f)));
        for k in 0..5 {
            fabric.tick(f64::from(k) * 15.0, &rows);
        }
        // A link dies late: a retraction is still being advertised.
        rows[0][4] = LinkEntry::dead();
        fabric.tick(75.0, &rows);
        let mut lived = fabric.routers.swap_remove(0);
        lived.on_link_loss(5, 76.0);
        lived.note_episode(TraceCtx {
            episode: 7,
            origin: 0,
            hop: 0,
        });
        assert!(lived.active_failover(8).is_some(), "a failover in progress");
        assert!(lived.own_seqno() > 0 && !lived.retractions.is_empty());
        assert!(lived.routes.iter().any(|s| s.rec.is_some()));
        assert!(lived.table.row_count() > 1 && lived.rec_seen_entries > 0);
        assert!(lived.routes[1].feas.0.is_some() && lived.trace_ctx.is_some());

        for (me, n, view) in [(3, 7, 2), (11, 30, 3), (0, 1, 4)] {
            let (reinstalled, carried) = lived.reinstall(me, n, view, &[], 100.0);
            assert_eq!(carried, 0);
            let fresh = QuorumRouter::new_with_telemetry(me, n, view, cfg.clone(), &telemetry)
                .with_tracer(tracer.clone());
            assert_eq!(format!("{reinstalled:?}"), format!("{fresh:?}"));
            assert_eq!(reinstalled.table.peak_rows(), 0);
            lived = reinstalled;
            // Live a little in this view before the next one.
            let mut own = vec![LinkEntry::live(20, 0.0); n];
            own[me] = LinkEntry::live(0, 0.0);
            let _ = lived.on_routing_tick(100.0, &own, &mut rng());
        }
    }
}

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
use crate::feasibility::{select_detour, FeasEntry, Feasibility};
use crate::RoutingAlgorithm;
use apor_linkstate::{
    Detour, LaneRow, LinkEntry, LinkStateMsg, LinkStateRow, LinkStateStore, Message, RecEntry,
    RecommendationMsg, RowStore, INFINITE_COST,
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

/// Everything this node keeps about one destination in steady state —
/// one 24 B record, as a Babel route table keeps one per prefix
/// (RFC 8966): the latest accepted recommendation at the width the wire
/// fixes (node indices are `u16` on every frame; [`RouteEntry`] is built
/// from it on read), the route discipline's [`Feasibility`] record for
/// k-hop detours, and my own link to the destination as my last tick's
/// row — or a link loss since — left it. A failover episode, rare and
/// short, lives beside it in [`QuorumRouter`]'s episode table.
///
/// The fields are flat so the three share the record's padding; the
/// default is no recommendation, no feasibility record and a dead link.
#[derive(Debug, Clone, Copy)]
struct Route {
    /// When the recommendation arrived.
    received_at: f64,
    /// Its first hop; [`NO_HOP`] = no recommendation held.
    hop: u16,
    from_server: u16,
    cost_ms: u16,
    /// My link's latency, as my row reported it.
    link_ms: u16,
    /// Whether my row reported the link alive.
    link_alive: bool,
    /// The feasibility record, unpacked (see [`Route::feas`]).
    feas: FeasState,
    seqno: u16,
    fd: u32,
}

/// Whether a [`Route`] holds a feasibility record, and if so whether
/// it is retracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeasState {
    None,
    Held,
    Retracted,
}

/// The hop of a [`Route`] that holds no recommendation. A view has at
/// most `u16::MAX` members, so no member's index is this.
const NO_HOP: u16 = u16::MAX;

impl Default for Route {
    fn default() -> Self {
        Route {
            received_at: 0.0,
            hop: NO_HOP,
            from_server: NO_HOP,
            cost_ms: u16::MAX,
            link_ms: LinkEntry::DEAD_LATENCY,
            link_alive: false,
            feas: FeasState::None,
            seqno: 0,
            fd: 0,
        }
    }
}

impl Route {
    /// The recommendation held, if any.
    fn rec(&self) -> Option<RouteEntry> {
        (self.hop != NO_HOP).then(|| RouteEntry {
            hop: usize::from(self.hop),
            from_server: usize::from(self.from_server),
            received_at: self.received_at,
            cost_ms: self.cost_ms,
        })
    }

    /// Hold `hop` (recommended by `from_server` at `cost_ms`) from
    /// `received_at` on.
    fn set_rec(&mut self, received_at: f64, hop: u16, from_server: u16, cost_ms: u16) {
        (self.received_at, self.hop, self.from_server, self.cost_ms) =
            (received_at, hop, from_server, cost_ms);
    }

    /// Hold no recommendation.
    fn drop_rec(&mut self) {
        let none = Route::default();
        self.set_rec(none.received_at, none.hop, none.from_server, none.cost_ms);
    }

    /// The feasibility record.
    fn feas(&self) -> Feasibility {
        Feasibility((self.feas != FeasState::None).then_some(FeasEntry {
            seqno: self.seqno,
            fd: self.fd,
            retracted: self.feas == FeasState::Retracted,
        }))
    }

    /// Apply one of [`Feasibility`]'s rules to the record.
    fn feas_with<R>(&mut self, rule: impl FnOnce(&mut Feasibility) -> R) -> R {
        let mut f = self.feas();
        let out = rule(&mut f);
        self.feas = match f.0 {
            None => FeasState::None,
            Some(e) if e.retracted => FeasState::Retracted,
            Some(_) => FeasState::Held,
        };
        if let Some(e) = f.0 {
            (self.seqno, self.fd) = (e.seqno, e.fd);
        }
        out
    }

    /// My link's routing cost: [`LinkEntry::cost`] of what my row said.
    fn link_cost(&self) -> u32 {
        if self.link_alive {
            u32::from(self.link_ms)
        } else {
            INFINITE_COST
        }
    }

    /// Take my link's latency and liveness from `entry`.
    fn set_link(&mut self, entry: &LinkEntry) {
        (self.link_ms, self.link_alive) = (entry.latency_ms, entry.alive);
    }
}

/// A destination's open section 4.1 failover episode: the active
/// failover rendezvous, if any, and the candidates already tried (and
/// failed). An episode with neither is closed and not held.
#[derive(Debug, Default)]
struct Episode {
    failover: Option<u16>,
    tried: BTreeSet<u16>,
}

/// What this node knows of one server: when I first sent it link state
/// (the grace-period anchor; [`NEVER`] = not yet), and when it last
/// recommended a route to each destination it has vouched for.
///
/// A frame stamps every destination it names with the one time it
/// arrived, so a time is held once per frame, not once per destination:
/// an entry names its time by a `u16` handle. The latest frame's time
/// sits in the record itself, so a server whose frames keep naming the
/// same destinations needs nothing beside its entries. An earlier
/// frame's time moves into a slot of `earlier` only while some entry
/// still holds it, and a slot no entry holds is reused, so `earlier`
/// never has more slots than the record has entries.
#[derive(Debug)]
struct ServerRecord {
    since: f64,
    /// When the latest frame that stamped an entry arrived.
    latest: f64,
    /// Sorted by destination, one allocation. A frame lists its
    /// destinations ascending, so ingest walks a cursor and a lookup is
    /// a binary search over `≤ 2√n` contiguous entries. An entry is
    /// never removed.
    seen: Vec<Seen>,
    /// The times of earlier frames that entries still hold.
    earlier: Vec<Slot>,
    /// How many entries hold `latest`.
    at_latest: u16,
    /// The handle that stands for `latest`: [`LATEST`] or `LATEST ^ 1`.
    /// A frame at a new time stamps its entries with the other one, so
    /// the entries it skips still tell the old latest time apart.
    fresh: u16,
}

/// One destination a server has recommended a route to, and which
/// time it last did: 4 B.
#[derive(Debug, Clone, Copy)]
struct Seen {
    dst: u16,
    /// A slot of [`ServerRecord::earlier`], or [`ServerRecord::fresh`].
    at: u16,
}

/// An earlier frame's time and how many entries hold it (none = free):
/// 10 B, packed to the `u16`'s alignment.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(2))]
struct Slot {
    at: f64,
    holders: u16,
}

/// One of the two handles that stand for a record's latest time. A
/// record has at most `n − 1 < u16::MAX` entries, so its slots, each
/// held by one, are numbered below both.
const LATEST: u16 = u16::MAX;

impl ServerRecord {
    fn new() -> Self {
        ServerRecord {
            since: NEVER,
            latest: NEVER,
            seen: Vec::new(),
            earlier: Vec::new(),
            at_latest: 0,
            fresh: LATEST,
        }
    }

    /// Last time this server recommended any route to `dst`.
    fn last_rec(&self, dst: u16) -> Option<f64> {
        let i = self.seen.binary_search_by_key(&dst, |e| e.dst).ok()?;
        let at = self.seen[i].at;
        Some(if at == self.fresh {
            self.latest
        } else {
            self.earlier[usize::from(at)].at
        })
    }

    /// Record one frame from this server, arrived at `now`, naming
    /// `dsts`; returns the bytes that added to the entries and slots.
    /// Frames list destinations ascending, so the next one is usually
    /// just past where the previous one landed; anything else (a
    /// destination out of order, new, or skipped by this frame) falls
    /// back to a binary search.
    fn note_frame(&mut self, now: f64, dsts: impl Iterator<Item = u16>) -> usize {
        let stamp = if now.to_bits() == self.latest.to_bits() {
            self.fresh
        } else {
            self.fresh ^ 1
        };
        let (mut cursor, mut stamped, mut from_latest, mut added) = (0, 0u16, 0u16, 0);
        for dst in dsts {
            let i = if self.seen.get(cursor).is_some_and(|e| e.dst == dst) {
                cursor
            } else {
                match self.seen.binary_search_by_key(&dst, |e| e.dst) {
                    Ok(i) => i,
                    Err(i) => {
                        // Grow by exactly one: a server's destination
                        // set settles within a few ticks and entries
                        // never leave, so doubling would strand up to
                        // half of every list, on every node, for good.
                        self.seen.reserve_exact(1);
                        self.seen.insert(i, Seen { dst, at: stamp });
                        cursor = i + 1;
                        stamped += 1;
                        added += size_of::<Seen>();
                        continue;
                    }
                }
            };
            cursor = i + 1;
            let held = self.seen[i].at;
            if held == stamp {
                continue;
            }
            if held == self.fresh {
                from_latest += 1;
            } else {
                self.earlier[usize::from(held)].holders -= 1;
            }
            self.seen[i].at = stamp;
            stamped += 1;
        }
        if stamp == self.fresh {
            self.at_latest += stamped;
        } else if stamped > 0 {
            let left = self.at_latest - from_latest;
            if left > 0 {
                let (slot, grown) = self.keep(self.latest, left);
                added += grown;
                for e in &mut self.seen {
                    if e.at == self.fresh {
                        e.at = slot;
                    }
                }
            }
            (self.latest, self.at_latest, self.fresh) = (now, stamped, stamp);
        }
        added
    }

    /// A slot holding `at` for `holders` entries — a free one if there
    /// is one — and the bytes a new slot added.
    fn keep(&mut self, at: f64, holders: u16) -> (u16, usize) {
        let slot = Slot { at, holders };
        // Every slot is held by an entry other than the latest frame's,
        // so there are fewer than u16::MAX − 1 of them.
        if let Some(i) = self.earlier.iter().position(|s| s.holders == 0) {
            self.earlier[i] = slot;
            (i as u16, 0)
        } else {
            self.earlier.push(slot);
            ((self.earlier.len() - 1) as u16, size_of::<Slot>())
        }
    }
}

/// A `server_slot` that points at no [`ServerRecord`].
const NO_RECORD: u16 = u16::MAX;

/// A [`ServerRecord`]'s "never sent link state" anchor.
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
    /// Bytes the server records' entries and slots hold: 4 per
    /// `(dst, time handle)` and 10 per earlier frame's time.
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
    /// Cached: my default rendezvous servers (grid row + column).
    my_servers: Vec<usize>,
    /// The route table, indexed by destination: its recommendation,
    /// feasibility record and my own link to it in one [`Route`].
    routes: Vec<Route>,
    /// The open failover episodes, by destination: an entry exactly
    /// while the destination has an active failover server or tried
    /// candidates.
    episodes: BTreeMap<u16, Episode>,
    /// `server_slot[s]` — where server `s`'s record sits in `servers`;
    /// [`NO_RECORD`] = it has none.
    server_slot: Vec<u16>,
    /// One record per server I have sent link state to or heard a
    /// recommendation from, in the order they appeared. Only the
    /// `~2√n` rendezvous servers and any failovers have one, each
    /// holding only the destinations it has vouched for — `O(√n · √n)`
    /// entries total versus the `n` slots per server a dense row would
    /// burn. Nothing leaves a record until a view change.
    servers: Vec<ServerRecord>,
    /// Bytes the entries and slots of all of `servers` hold, counted
    /// where they are added, so the byte gauge costs `O(1)` per message
    /// instead of a walk over every record.
    seen_bytes: usize,
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
    my_servers: Vec<usize>,
    routes: Vec<Route>,
    episodes: BTreeMap<u16, Episode>,
    server_slot: Vec<u16>,
    servers: Vec<ServerRecord>,
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
    /// Panics if `n > u16::MAX` — node indices are `u16` on every frame,
    /// and a frame's `width` could not say `n` — or if `me ≥ n`.
    #[must_use]
    pub fn new(me: usize, n: usize, view: u32, config: ProtocolConfig) -> Self {
        Self::new_with_telemetry(me, n, view, config, &Telemetry::disabled())
    }

    /// [`QuorumRouter::new`] with the router counters and the backing
    /// [`RowStore`] registered on `telemetry` — each cell once. Re-using
    /// a registry a previous router reported into resumes its
    /// cumulative cells.
    ///
    /// # Panics
    /// As [`QuorumRouter::new`].
    #[must_use]
    pub fn new_with_telemetry(
        me: usize,
        n: usize,
        view: u32,
        config: ProtocolConfig,
        telemetry: &Telemetry,
    ) -> Self {
        assert!(n <= usize::from(u16::MAX), "n = {n} past u16 indices");
        // `assemble` sizes the store and sets its real entitlement.
        let table = RowStore::with_entitlement(n, 0, config.staleness_s(), telemetry.clone());
        let parts = Parts {
            config,
            table,
            my_servers: Vec::new(),
            routes: Vec::new(),
            episodes: BTreeMap::new(),
            server_slot: Vec::new(),
            servers: Vec::new(),
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
    /// Panics if `n > u16::MAX` or `me ≥ n`, or if the table maps a
    /// member a kept row names to an index `≥ n`.
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
            my_servers: self.my_servers,
            routes: self.routes,
            episodes: self.episodes,
            server_slot: self.server_slot,
            servers: self.servers,
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
    /// allocations are what is kept. (The server records' entry lists
    /// are freed, not kept: which indices are servers changes with the
    /// view, and capacity left at the old ones would only pile up.)
    fn assemble(me: usize, n: usize, view: u32, parts: Parts) -> Self {
        assert!(n <= usize::from(u16::MAX), "n = {n} past u16 indices");
        assert!(me < n);
        let Parts {
            config,
            mut table,
            mut my_servers,
            mut routes,
            mut episodes,
            mut server_slot,
            mut servers,
            mut retractions,
            counters,
            tracer,
        } = parts;
        let grid = Grid::new(n);
        table.reset(n, Self::entitlement_in(&grid));
        grid.rendezvous_servers_into(me, &mut my_servers);
        routes.clear();
        routes.resize_with(n, Route::default);
        episodes.clear();
        server_slot.clear();
        server_slot.resize(n, NO_RECORD);
        servers.clear();
        // Round one makes a record for each default server, so room for
        // them from the start; only failovers grow the vector past it.
        servers.reserve_exact(my_servers.len());
        retractions.clear();
        QuorumRouter {
            me,
            n,
            grid,
            view,
            round: 0,
            config,
            table,
            my_servers,
            routes,
            episodes,
            server_slot,
            servers,
            seen_bytes: 0,
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
        if let Some(r) = self.routes[dst].rec() {
            let fresh = now - r.received_at <= self.config.route_expiry_s();
            if fresh && self.routes[r.hop].link_alive {
                return Some(RouteDecision::Hop(r.hop));
            }
        }
        // §4.2: scavenge from the neighbour tables we already hold.
        let max_age = self.config.staleness_s();
        let mut best = (dst, self.routes[dst].link_cost());
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
                &self.routes[dst].feas(),
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
        self.routes[dst].set_link(&LinkEntry::dead());
        let held = self.table.row(self.me);
        let row = held.map_or_else(LaneRow::default, |r| r.without(dst as u16));
        self.table.put_row(self.me, Arc::new(row), now);
    }

    /// Withdraw the route to `dst`, at the seqno of the row I hold from
    /// it (0 if none), counting a transition into the retracted state in
    /// `routing/routes_retracted`. Every withdrawal goes through here.
    fn retract(&mut self, dst: usize) {
        let seqno = self.table.row_seqno(dst);
        if self.routes[dst].feas_with(|f| f.retract(seqno)) {
            self.counters.routes_retracted.inc();
        }
    }

    /// Retract (rather than silently drop) every established route that
    /// cannot carry into a new membership view: those whose destination
    /// or recommended hop `old_to_new` maps nowhere.
    fn retract_departed_routes(&mut self, old_to_new: &[Option<u16>]) {
        let survives = |idx: usize| old_to_new.get(idx).is_some_and(Option::is_some);
        for dst in 0..self.n {
            if let Some(r) = self.routes[dst].rec() {
                if !survives(dst) || !survives(r.hop) {
                    self.retract(dst);
                    self.routes[dst].drop_rec();
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
            self.routes[from].feas_with(|f| f.note_seqno(seqno));
        }
        for &r in retractions {
            let dst = usize::from(r);
            if dst >= self.n || dst == self.me {
                continue;
            }
            if self.routes[dst].rec().is_some_and(|e| e.hop == from) {
                self.routes[dst].drop_rec();
                self.retract(dst);
            }
        }
    }

    /// The latest recommendation stored for `dst`.
    #[must_use]
    pub fn route_entry(&self, dst: usize) -> Option<RouteEntry> {
        self.routes[dst].rec()
    }

    /// The currently active failover server for `dst`, if any.
    #[must_use]
    pub fn active_failover(&self, dst: usize) -> Option<usize> {
        let dst = u16::try_from(dst).ok()?;
        self.episodes.get(&dst)?.failover.map(usize::from)
    }

    /// Server `s`'s record, if it has one.
    fn record(&self, s: usize) -> Option<&ServerRecord> {
        let slot = self.server_slot[s];
        (slot != NO_RECORD).then(|| &self.servers[usize::from(slot)])
    }

    /// Where server `s`'s record sits in `servers`, made (never sent
    /// link state, no entry) if it has none yet.
    fn record_slot(&mut self, s: usize) -> usize {
        if self.server_slot[s] == NO_RECORD {
            // At most n ≤ u16::MAX records: the slot is below NO_RECORD.
            self.server_slot[s] = self.servers.len() as u16;
            if self.servers.len() == self.servers.capacity() {
                // Past the default servers `assemble` made room for:
                // failovers, which come a few per double failure and
                // never leave. Half as many again at a time strands at
                // most a third of the vector, where doubling would
                // strand up to half.
                self.servers.reserve_exact(self.servers.len() / 2 + 1);
            }
            self.servers.push(ServerRecord::new());
        }
        usize::from(self.server_slot[s])
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
            return !self.routes[s].link_alive;
        }
        // Proximal rendezvous failure.
        if !self.routes[s].link_alive {
            return true;
        }
        // Remote rendezvous failure: no recommendation for dst recently.
        let Some(record) = self.record(s).filter(|r| r.since != NEVER) else {
            // Never even sent them link state yet — not failed, just young.
            return false;
        };
        let anchor = record.last_rec(dst as u16).unwrap_or(
            record.since + self.config.server_grace_s() - self.config.remote_failure_s(),
        );
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
                if !self.episodes.is_empty() {
                    self.episodes.remove(&(dst as u16));
                }
                continue;
            }
            let key = dst as u16;
            // Double rendezvous failure. Is the current failover healthy?
            if let Some(f) = self.episodes.get(&key).and_then(|e| e.failover) {
                if !self.server_failed(usize::from(f), dst, now) {
                    continue;
                }
                let episode = self.episodes.get_mut(&key).expect("an open episode");
                episode.tried.insert(f);
                episode.failover = None;
            }
            // Dead-destination suppression: after the first attempt, only
            // continue while someone's table still reaches dst. An open
            // episode here has tried a candidate.
            let tried = self.episodes.get(&key).map(|e| &e.tried);
            if tried.is_some() {
                let reachable = self
                    .table
                    .anyone_reaches(dst, now, self.config.staleness_s())
                    || self.routes[dst].link_alive;
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
                    && self.routes[c].link_alive
                    && !tried.is_some_and(|t| t.contains(&(c as u16)))
            });
            if pool.is_empty() {
                // Exhausted: restart the episode so candidates that have
                // recovered become eligible again.
                self.episodes.remove(&key);
                continue;
            }
            let f = *pool.choose(rng).expect("non-empty pool");
            let episode = self.episodes.entry(key).or_default();
            episode.failover = Some(f as u16);
            episode.tried.insert(f as u16);
            self.counters.failovers_selected.inc();
            newly_selected.push(f);
        }
        newly_selected.sort_unstable();
        newly_selected.dedup();
        newly_selected
    }

    /// The round-one frame carrying `row` and its `liveness_loss` lane
    /// (my own, built once per tick and shared by every frame of the
    /// tick) to server `to`.
    fn linkstate_msg(
        &self,
        to: usize,
        now: f64,
        row: &Arc<LaneRow>,
        liveness_loss: &Arc<[u8]>,
    ) -> Message {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ls = LinkStateMsg {
            from: NodeId::from_index(self.me),
            to: NodeId::from_index(to),
            view: self.view,
            round: self.round,
            basis_ms: (now * 1000.0) as u32,
            width: self.n as u16,
            row: Arc::clone(row),
            liveness_loss: Arc::clone(liveness_loss),
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
        servers.extend(
            self.episodes
                .values()
                .filter_map(|e| e.failover.map(usize::from)),
        );
        servers.sort_unstable();
        servers.dedup();
        servers.retain(|&s| s != self.me);
        servers
    }

    /// Take in a link-state row from client `from` — an owned message or
    /// a frame still in its payload, dense or sparse. A row from another
    /// view, of another width, from outside the view or from me is
    /// ignored, and costs nothing: only a row that passes those checks
    /// is built ([`LinkStateRow::shared_row`]) and offered to the store.
    /// An accepted versioned row releases feasibility constraints and
    /// withdraws the routes through `from` that it retracts.
    pub fn on_linkstate(&mut self, now: f64, from: usize, ls: &impl LinkStateRow) {
        if ls.view() != self.view
            || usize::from(ls.width()) != self.n
            || from >= self.n
            || from == self.me
        {
            return;
        }
        let row = ls.shared_row();
        if self.table.put_row(from, Arc::clone(&row), now) {
            self.note_row_version(from, row.seqno(), row.retracted());
        }
    }

    /// Take in server `server`'s round-two frame of view `view`: `recs`,
    /// in frame order and in index space, each held as the route to its
    /// destination and stamped in the server's record. `recs` is walked
    /// once and never collected, so a node can hand over a frame's
    /// entries as it translates them. Entries naming an index outside
    /// the view, or me as the destination, are ignored.
    pub fn on_recommendations(
        &mut self,
        now: f64,
        server: usize,
        view: u32,
        recs: impl Iterator<Item = RecEntry>,
    ) {
        if view != self.view || server >= self.n {
            return;
        }
        // Room for the whole frame in one step (a first frame would
        // otherwise grow entry by entry): as many entries as the frame
        // names, before any is refused.
        let slot = self.record_slot(server);
        let record = &mut self.servers[slot];
        if let Some(most) = recs.size_hint().1 {
            record
                .seen
                .reserve_exact(most.saturating_sub(record.seen.len()));
        }
        let (n, me) = (self.n, self.me);
        let (routes, table) = (&mut self.routes, &self.table);
        let mut count = 0;
        // One walk: each accepted entry is held as the route to its
        // destination as the record stamps it.
        let accepted = recs
            .filter(|rec| {
                let dst = rec.dst.index();
                dst < n && rec.hop.index() < n && dst != me
            })
            .inspect(|rec| {
                count += 1;
                let dst = rec.dst.index();
                let route = &mut routes[dst];
                if route.rec().is_none_or(|r| now >= r.received_at) {
                    route.set_rec(now, rec.hop.0, server as u16, rec.cost_ms);
                    // Acting on a costed recommendation ratchets the
                    // feasibility distance (the compact format carries
                    // no cost and leaves the constraint untouched).
                    if rec.cost_ms != u16::MAX {
                        let seqno = table.row_seqno(dst);
                        route.feas_with(|f| f.advance(seqno, u32::from(rec.cost_ms)));
                    }
                }
            });
        self.seen_bytes += record.note_frame(now, accepted.map(|r| r.dst.0));
        self.counters.rec_entries_received.add(count);
        self.counters.rec_seen_bytes.set(self.seen_bytes as u64);
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
        for (dst, entry) in own_row.iter().enumerate() {
            let route = &mut self.routes[dst];
            if dst != self.me && entry.alive {
                self.retractions.remove(&(dst as u16));
                let seqno = if sheds && !self.table.row_fresh(dst, now, max_age) {
                    0
                } else {
                    self.table.row_seqno(dst)
                };
                route.feas_with(|f| f.advance(seqno, entry.cost()));
            } else if dst != self.me && route.link_alive {
                new_deaths |= self.retractions.insert(dst as u16, self.round).is_none();
            }
            route.set_link(entry);
        }
        if new_deaths {
            self.own_seqno = Self::next_seqno(self.own_seqno);
        }
        let round = self.round;
        self.retractions.retain(|_, r| round - *r < 3);
        // My row as lanes and its liveness lane, each built once: the
        // store keeps the row, and every round-one frame of this tick
        // shares both.
        let own_lanes = Arc::new(
            LaneRow::from_dense(own_row).with_version(self.own_seqno, &self.retraction_lane()),
        );
        let own_liveness = LinkStateMsg::liveness_lane(own_row);
        self.table.put_row(self.me, Arc::clone(&own_lanes), now);

        // Section 4.1 failover management happens before round one so a
        // freshly selected failover gets link state in this very tick.
        let _newly = self.manage_failovers(now, rng);

        let mut msgs = Vec::new();
        // Round one: link state to all current servers.
        for s in self.current_servers() {
            let slot = self.record_slot(s);
            let record = &mut self.servers[slot];
            if record.since == NEVER {
                record.since = now;
            }
            self.counters.ls_sent.inc();
            msgs.push(self.linkstate_msg(s, now, &own_lanes, &own_liveness));
        }
        // Round two: recommendations to all fresh clients.
        msgs.extend(self.compute_recommendations(now));
        msgs
    }

    fn on_message(&mut self, now: f64, msg: &Message) -> Vec<Message> {
        match msg {
            Message::LinkState(ls) | Message::LinkStateSparse(ls) => {
                self.on_linkstate(now, ls.from.index(), ls);
            }
            Message::Recommendations(rm) => {
                self.on_recommendations(now, rm.from.index(), rm.view, rm.recs.iter().copied());
            }
            _ => {}
        }
        Vec::new()
    }

    fn best_hop(&self, dst: usize, now: f64) -> Option<usize> {
        self.route_decision(dst, now).map(|d| d.first_hop())
    }

    fn route_age(&self, dst: usize, now: f64) -> Option<f64> {
        self.routes[dst].rec().map(|r| now - r.received_at)
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

    /// Last time server `s` recommended any route to `dst`, as `r` holds it.
    fn last_rec(r: &QuorumRouter, s: usize, dst: usize) -> Option<f64> {
        r.record(s)?.last_rec(dst as u16)
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

    /// Bytes `r`'s server records hold — entries and slots — after
    /// checking that each record's bookkeeping agrees with its entries:
    /// sorted by destination, `at_latest` and every slot's `holders`
    /// counting the entries that name them, no entry on the handle a
    /// frame in flight would use, and no more slots than entries.
    fn held_bytes(r: &QuorumRouter) -> usize {
        let mut bytes = 0;
        for m in &r.servers {
            assert!(
                m.seen.windows(2).all(|w| w[0].dst < w[1].dst),
                "sorted by dst"
            );
            let holding = |at: u16| m.seen.iter().filter(|e| e.at == at).count();
            assert_eq!(usize::from(m.at_latest), holding(m.fresh));
            assert_eq!(holding(m.fresh ^ 1), 0);
            for (i, slot) in m.earlier.iter().enumerate() {
                assert_eq!(usize::from(slot.holders), holding(i as u16));
            }
            assert!(m.earlier.len() <= m.seen.len());
            bytes += m.seen.len() * size_of::<Seen>() + m.earlier.len() * size_of::<Slot>();
        }
        bytes
    }

    /// The server records hold entries only for (server, dst) pairs that
    /// were actually recommended, and the byte gauge reports what they
    /// hold: 4 B an entry and 10 B a slot.
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
        let servers_with_entries = r.servers.iter().filter(|m| !m.seen.is_empty()).count();
        let total_entries: usize = r.servers.iter().map(|m| m.seen.len()).sum();
        // Only my ~2√n rendezvous servers recommend to me, about n-1
        // destinations each — nowhere near the n² dense worst case.
        assert!(servers_with_entries > 0);
        assert!(servers_with_entries <= r.grid().max_rendezvous_degree() * 2 + 1);
        assert!(total_entries <= servers_with_entries * (n - 1));
        for s in 0..n {
            let Some(m) = r.record(s) else { continue };
            for &Seen { dst, .. } in &m.seen {
                assert!(last_rec(r, s, usize::from(dst)).is_some());
                assert_ne!(dst, 3, "never records recs about myself");
            }
        }

        // The gauge's running total equals a recount of the entries and
        // slots, and every entry held was received at least once.
        assert!(total_entries > 0);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.gauge(3, "routing", "rec_seen_bytes"),
            Some(held_bytes(r) as u64)
        );
        let received = snap.counter(3, "routing", "rec_entries_received");
        assert!(received.unwrap_or(0) >= total_entries as u64);
        assert!(snap.counter(3, "routing", "ls_sent").unwrap_or(0) > 0);
    }

    proptest! {
        /// The server records against a `BTreeMap` model, frame by frame:
        /// several servers, destinations in any order (ascending frames
        /// ride the cursor, the rest the binary search), the honest
        /// shape `clients ascending ++ [server]`, duplicates within a
        /// frame, destinations a server has never vouched for, entries
        /// the router refuses (out of range, about itself), and two
        /// frames to a time, so consecutive frames of one server share
        /// it or not. Up to ~200 frames, so earlier times are kept,
        /// released and their slots reused many times over. `last_rec`,
        /// the running total, the byte gauge and the per-frame
        /// `rec_entries_received` count all agree.
        #[test]
        fn rec_seen_matches_a_map_model(
            frames in prop::collection::vec(
                (
                    0usize..9,
                    0u8..3,
                    prop::collection::vec((0u16..12, 0u16..12), 0..14),
                ),
                1..200,
            ),
        ) {
            let n = 9;
            let telemetry = Telemetry::new(1);
            let mut me =
                QuorumRouter::new_with_telemetry(0, n, 0, ProtocolConfig::quorum(), &telemetry);
            let mut model: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
            // The most earlier times each server's entries have held at
            // once: its slot count, as slots are reused, never dropped.
            let mut slots = vec![0usize; n];
            let mut accepted = 0u64;
            for (k, (server, order, picks)) in frames.into_iter().enumerate() {
                let now = (k / 2) as f64;
                let mut picks = picks;
                if order > 0 {
                    picks.sort_unstable();
                }
                if order == 2 {
                    picks.push((server as u16, server as u16));
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
                let times: BTreeSet<u64> = model[server].values().map(|t| t.to_bits()).collect();
                slots[server] = slots[server].max(times.len().saturating_sub(1));
                for (s, seen) in model.iter().enumerate() {
                    for dst in 0..n {
                        prop_assert_eq!(last_rec(&me, s, dst), seen.get(&dst).copied());
                    }
                }
                let entries: usize = model.iter().map(BTreeMap::len).sum();
                let bytes = entries * 4 + slots.iter().sum::<usize>() * 10;
                prop_assert_eq!(me.seen_bytes, bytes);
                prop_assert_eq!(held_bytes(&me), bytes);
                let snap = telemetry.snapshot();
                prop_assert_eq!(snap.gauge(1, "routing", "rec_seen_bytes"), Some(bytes as u64));
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
            receiver.table().row(3),
            Some(&LaneRow::from_dense(&own)),
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
                liveness_loss: LinkStateMsg::liveness_lane(&row1),
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
                    liveness_loss: LinkStateMsg::liveness_lane(&row),
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
                liveness_loss: LinkStateMsg::liveness_lane(&row4),
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
                liveness_loss: LinkStateMsg::liveness_lane(&stale),
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
        assert_eq!(me.table().cost(0, 4), INFINITE_COST);
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
            liveness_loss: LinkStateMsg::liveness_lane(row),
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
        assert_ne!(b.table().cost(1, 6), INFINITE_COST);
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
            assert_eq!(table.cost(0, 5), INFINITE_COST, "server {s}");
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
            let entries = row(from as u16 * 10);
            let _ = a.on_message(
                2.0,
                &Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(from),
                    to: NodeId(0),
                    view: 0,
                    round: 1,
                    basis_ms: 0,
                    width: 9,
                    row: Arc::new(LaneRow::from_dense(&entries)),
                    liveness_loss: LinkStateMsg::liveness_lane(&entries),
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
        let (listed, _) = r.table.row(0).expect("node 1 keeps index 0").lanes();
        assert_eq!(listed, [0, 2], "joiner 3 is absent, not listed dead");
        let row = r.table.row_ref(0).expect("held");
        assert_eq!(row.cost(0), 0, "1→1 self entry");
        assert_eq!(row.cost(1), INFINITE_COST, "joiner 3 reads as dead");
        assert_eq!(row.cost(2), 70, "1→9 carried by identity");
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
        assert_eq!(r.table.cost(1, 0), 70, "9→1 survives");
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
            r.table.row(0).map_or(&[][..], LaneRow::retracted),
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
                    || r.routes[dst].link_alive;
                if !reachable {
                    continue;
                }
            }
            let mut pool = r.grid.rendezvous_servers(dst);
            pool.retain(|&c| {
                c != r.me && c != dst && r.routes[c].link_alive && !tried.contains(&c)
            });
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
        let mut episodes = vec![(None, BTreeSet::new()); r.n];
        for (&dst, e) in &r.episodes {
            episodes[usize::from(dst)] = (
                e.failover.map(usize::from),
                e.tried.iter().copied().map(usize::from).collect(),
            );
        }
        episodes
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
        for (route, entry) in r.routes.iter_mut().zip(&own) {
            route.set_link(entry);
        }
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
            // The table holds exactly the open episodes.
            let open: Vec<u16> = (0..n as u16)
                .filter(|&d| {
                    let (failover, tried) = &want_state[usize::from(d)];
                    failover.is_some() || !tried.is_empty()
                })
                .collect();
            assert_eq!(
                r.episodes.keys().copied().collect::<Vec<_>>(),
                open,
                "sweep {sweep}"
            );
            assert_eq!(
                rng.clone().gen::<u64>(),
                model_rng.gen::<u64>(),
                "sweep {sweep}: same draws"
            );
            selected_total += new.len();
            // Whoever was just selected dies too, so the next sweep has
            // tried candidates to exclude and, in time, pools to exhaust.
            for f in new {
                r.routes[f].set_link(&LinkEntry::dead());
            }
        }
        assert!(selected_total > 100, "{selected_total} selections");
        // Some destination was given up on: its episode has tried
        // candidates and no active server.
        assert!(r
            .episodes
            .values()
            .any(|e| e.failover.is_none() && !e.tried.is_empty()));
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
            let row = match self.table.row(me) {
                Some(held) => {
                    let (dsts, latency_ms) = held.lanes();
                    let pairs: Vec<(u16, LinkEntry)> = dsts
                        .iter()
                        .zip(latency_ms)
                        .filter(|&(&d, _)| usize::from(d) != dst)
                        .map(|(&d, &l)| (d, LinkEntry::live(l, 0.0)))
                        .collect();
                    LaneRow::from_pairs(&pairs).with_version(held.seqno(), held.retracted())
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
            liveness_loss: LinkStateMsg::liveness_lane(&[]),
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
                    prop_assert_eq!(router.routes[d].feas().0, model.feas.get(&d).copied(), "dst {}", d);
                }
                prop_assert_eq!(router.table.present_rows(), model.table.present_rows());
            }
        }
    }

    /// My own link to every destination, as `r`'s route slots hold it,
    /// equals `model`, the dense row it was last given: latency and
    /// liveness, and the cost the route decision reads.
    fn assert_own_links(r: &QuorumRouter, model: &[LinkEntry], step: &str) {
        assert_eq!(r.routes.len(), model.len(), "{step}");
        for (dst, (route, entry)) in r.routes.iter().zip(model).enumerate() {
            assert_eq!(
                (route.link_ms, route.link_alive, route.link_cost()),
                (entry.latency_ms, entry.alive, entry.cost()),
                "{step}: dst {dst}"
            );
        }
    }

    /// The own link lives in the route slot, not in a dense row beside
    /// it, and reads exactly what a dense row would: through ticks whose
    /// rows hold a live link at `u16::MAX − 1` ms and an adopted gauge
    /// at `u16::MAX` ms (live, though its latency is the dead sentinel),
    /// a link loss between ticks, and a view change, after which every
    /// link reads dead until the next tick.
    #[test]
    fn own_links_in_the_route_slots_read_as_a_dense_row() {
        let (n, me) = (100, 7);
        // Entitled probing leaves most peers unprobed, so their gauges
        // are adopted.
        let probing = ProtocolConfig::quorum().with_subquadratic_probing(120.0);
        let mut prober = crate::prober::Prober::new(me, n, probing, 0.0);
        for peer in (0..n).filter(|&p| p != me) {
            prober.adopt_gauge(peer, u16::MAX - (peer % 3) as u16, 10, 5.0);
        }
        let mut row = prober.own_row(6.0);
        let gauge = (0..n)
            .find(|&d| row[d].alive && row[d].latency_ms == u16::MAX)
            .expect("an adopted gauge at u16::MAX ms");
        let others: Vec<usize> = (0..n).filter(|&d| d != me && d != gauge).collect();
        row[others[0]] = LinkEntry::live(u16::MAX - 1, 0.25);
        row[others[1]] = LinkEntry::live(0, 0.0);
        row[others[2]] = LinkEntry::dead();
        let mut r = QuorumRouter::new(me, n, 0, ProtocolConfig::quorum());
        let mut model = vec![LinkEntry::dead(); n];
        assert_own_links(&r, &model, "built");
        let mut g = rng();
        let mut now = 10.0;
        for tick in 0..6 {
            // Links die and come back from tick to tick.
            let toggled = others[3..].iter().filter(|&&d| (d + tick) % 5 == 0);
            for &d in toggled {
                row[d] = if row[d].alive {
                    LinkEntry::dead()
                } else {
                    LinkEntry::live(30 + d as u16, 0.0)
                };
            }
            let _ = r.on_routing_tick(now, &row, &mut g);
            model.clone_from(&row);
            assert_own_links(&r, &model, &format!("tick {tick}"));
            let lost = others[3 + tick];
            r.on_link_loss(lost, now + 1.0);
            model[lost] = LinkEntry::dead();
            assert_own_links(&r, &model, &format!("loss after tick {tick}"));
            now += 15.0;
        }
        assert!(model[gauge].alive && model[gauge].latency_ms == u16::MAX);
        assert_eq!(model[others[0]].cost(), u32::from(u16::MAX - 1));
        let (mut r, _) = r.reinstall(me, n, 1, &identity(n), now);
        model.fill(LinkEntry::dead());
        assert_own_links(&r, &model, "reinstalled");
        let _ = r.on_routing_tick(now, &row, &mut g);
        assert_own_links(&r, &row, "first tick in the new view");
    }

    /// One destination's record is its recommendation at wire width,
    /// its feasibility record and my own link to it (24 B); one server's entry for a
    /// destination is 4 B, an earlier frame's time 10 B, and a server's
    /// record 72 B (`tests/router_heap.rs` budgets with these).
    #[test]
    fn a_route_slot_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<Route>() <= 24);
        assert_eq!(std::mem::size_of::<Seen>(), 4);
        assert_eq!(std::mem::size_of::<Slot>(), 10);
        assert_eq!(std::mem::size_of::<ServerRecord>(), 72);
    }

    /// A frame's `width` is a `u16`: a view of 65 536 would stamp 0 and
    /// every receiver would refuse the row. The constructor says so.
    #[test]
    #[should_panic(expected = "past u16 indices")]
    fn a_view_past_u16_indices_is_refused() {
        let _ = QuorumRouter::new(0, 1 << 16, 0, ProtocolConfig::quorum());
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
        assert!(lived.routes.iter().any(|s| s.rec().is_some()));
        assert!(!lived.episodes.is_empty() && !lived.servers.is_empty());
        assert!(lived.table.row_count() > 1 && lived.seen_bytes > 0);
        assert!(lived.routes[1].feas().0.is_some() && lived.trace_ctx.is_some());

        for (me, n, view) in [(3, 7, 2), (11, 30, 3), (0, 1, 4)] {
            let (reinstalled, carried) = lived.reinstall(me, n, view, &[], 100.0);
            assert_eq!(carried, 0);
            let fresh = QuorumRouter::new_with_telemetry(me, n, view, cfg.clone(), &telemetry)
                .with_tracer(tracer.clone());
            assert_eq!(format!("{reinstalled:?}"), format!("{fresh:?}"));
            lived = reinstalled;
            // Live a little in this view before the next one.
            let mut own = vec![LinkEntry::live(20, 0.0); n];
            own[me] = LinkEntry::live(0, 0.0);
            let _ = lived.on_routing_tick(100.0, &own, &mut rng());
        }
    }
}

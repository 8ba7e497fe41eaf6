//! Property tests for what a node carries across a view change
//! ([`QuorumRouter::reinstall`], driven through [`OverlayNode`] the way
//! a membership service drives it: frames in, a `View` message in, the
//! router's store read afterwards):
//!
//! 1. **Identity-model equivalence** — one view change equals a
//!    rebuild-from-scratch fed the same (surviving) row messages, keyed
//!    purely by `NodeId`; stale rows are dropped per the
//!    3-routing-interval freshness rule.
//! 2. **Join/leave/rejoin chains** — a sequence of views keeps exactly
//!    the rows whose origin (and the entries whose destination) stayed
//!    a member through *every* intermediate view: leaving destroys
//!    measurements, rejoining does not resurrect them.
//! 3. **Entitlement** — the node keeps only the rows its *new* grid
//!    role grants it (own row + rendezvous clients), so a view change
//!    can never re-grow `O(n)` rows.
//! 4. **Carrying a row is relabelling, nothing else** — a view install
//!    on a live node leaves its router's store holding exactly what
//!    widening every held row to one `LinkEntry` per member, moving the
//!    entries by identity and reducing the result to lanes again would
//!    leave: the chain the carry ran through before rows crossed a view
//!    change as lanes, kept here as the model.
//!
//! Then the end-to-end cases: a surviving route answers at once, a
//! stale row stays behind, the prober and the router move a member to
//! the same new index, and the full-mesh baseline starts over.

use apor_linkstate::wire::ViewMsg;
use apor_linkstate::{
    LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, ProbeReplyMsg, RowStore,
    INFINITE_COST,
};
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::membership::MembershipView;
use apor_overlay::node::{Outbox, TOKEN_PROBE, TOKEN_ROUTING};
use apor_overlay::OverlayNode;
use apor_quorum::{Grid, NodeId, NodeIdx};
use apor_routing::QuorumRouter;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The quorum staleness window: 3 × 15 s.
const MAX_AGE: f64 = 45.0;

/// A sorted, deduplicated member set drawn from a small id universe.
fn arb_members(universe: u16) -> impl Strategy<Value = Vec<NodeId>> {
    prop::collection::vec(0u16..universe, 2..12).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(NodeId).collect()
    })
}

/// Per-origin row messages: `origin id → (receipt time, latency by dst id)`.
/// Latencies are keyed by *identity* over the whole universe so the model
/// below never touches index space.
type Rows = BTreeMap<u16, (f64, Vec<u16>)>;

fn arb_rows(universe: u16) -> impl Strategy<Value = Rows> {
    prop::collection::vec(
        (
            0u16..universe,
            0.0f64..100.0,
            prop::collection::vec(1u16..500, universe as usize),
        ),
        0..10,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(origin, t, lats)| (origin, (t, lats)))
            .collect()
    })
}

/// Index `i` of the widest view.
fn ix(i: usize) -> NodeIdx {
    NodeIdx::new(i, usize::from(u16::MAX)).expect("an index")
}

/// Every held row as `(origin, receipt time bits, the row)`: its
/// lanes, seqno and retraction lane, as the store holds them.
fn held_rows(table: &RowStore) -> Vec<(usize, u64, LaneRow)> {
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

/// The coordinator every node here is configured with: outside every
/// view, so no node under test is its own coordinator, and each one
/// installs the views `install` hands it in the coordinator's name.
const COORDINATOR: NodeId = NodeId(u16::MAX);

/// `ids` with `me` among them, as a view.
fn view_with(version: u32, mut ids: Vec<NodeId>, me: NodeId) -> MembershipView {
    ids.push(me);
    MembershipView::new(version, ids)
}

/// A quorum node `me` started in `view` that has received `rows` in
/// order of receipt time: every origin's full row, retracting *every*
/// destination of the view at seqno 1 — so a carried lane shows exactly
/// which destinations survived, and in what order. A message from a
/// non-member is never delivered; the node's own row is its own
/// business.
fn node_holding(me: NodeId, view: &MembershipView, rows: &Rows) -> OverlayNode {
    let mut node = OverlayNode::new(
        NodeConfig::new(me, COORDINATOR, Algorithm::Quorum)
            .with_static_members(view.members.clone()),
    );
    let mut out = Outbox::default();
    node.on_start(0.0, &mut out);
    let every_dst: Vec<NodeIdx> = NodeIdx::all(view.len()).collect();
    let mut by_time: Vec<(&u16, &(f64, Vec<u16>))> = rows.iter().collect();
    by_time.sort_by(|a, b| a.1 .0.total_cmp(&b.1 .0));
    for (&origin, (at, lats)) in by_time {
        if origin == me.0 || !view.contains(NodeId(origin)) {
            continue;
        }
        let entries: Vec<LinkEntry> = view
            .members
            .iter()
            .map(|d| LinkEntry::live(lats[usize::from(d.0)], 0.0))
            .collect();
        let frame = Message::LinkState(LinkStateMsg {
            from: NodeId(origin),
            to: me,
            view: view.version,
            round: 1,
            basis_ms: 0,
            width: view.len() as u16,
            row: Arc::new(LaneRow::from_dense(&entries).with_version(1, &every_dst)),
            liveness_loss: LinkStateMsg::liveness_lane(&entries),
        });
        node.on_packet(*at, &frame.encode(), &mut out);
    }
    node
}

/// Hand `node` the next view, as the coordinator's broadcast would.
fn install(node: &mut OverlayNode, view: &MembershipView, at: f64) {
    let msg = Message::View(ViewMsg {
        from: COORDINATOR,
        to: node.id(),
        view: view.version,
        members: view.members.clone(),
    });
    node.on_packet(at, &msg.encode(), &mut Outbox::default());
}

/// Is `origin` a row `me` may hold in `view`'s grid?
fn entitled(view: &MembershipView, origin: NodeId, me: NodeId) -> bool {
    let (origin, me) = (view.index_of(origin).unwrap(), view.index_of(me).unwrap());
    origin == me || Grid::new(view.len()).serves(origin, me)
}

fn store_of(node: &OverlayNode) -> &RowStore {
    node.quorum_router().expect("quorum node").table()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// One view change equals the identity-keyed rebuild: for every
    /// origin id in both views with a fresh row the new grid entitles
    /// the node to, the carried row holds the original entry for every
    /// surviving destination id and dead for joiners, and its
    /// retraction lane but no seqno; departed origins and stale rows
    /// vanish, and nothing else appears. A carried row takes its
    /// origin's next new-view frame and refuses an old-view one.
    #[test]
    fn remap_matches_identity_model(
        old_ids in arb_members(20),
        new_ids in arb_members(20),
        rows in arb_rows(20),
        me_pick in 0usize..12,
        now in 100.0f64..150.0,
    ) {
        let me = new_ids[me_pick % new_ids.len()];
        let old_view = view_with(1, old_ids, me);
        let new_view = MembershipView::new(2, new_ids);
        let mut node = node_holding(me, &old_view, &rows);
        install(&mut node, &new_view, now);
        let store = store_of(&node);

        let surviving: Vec<NodeIdx> = (0..new_view.len())
            .filter(|&d| old_view.contains(new_view.members[d]))
            .map(ix)
            .collect();
        let mut expected_rows = 0;
        let mut carried = Vec::new();
        for (&origin_id, (t, lats)) in &rows {
            let origin_id = NodeId(origin_id);
            let Some(new_origin) = new_view.index_of(origin_id) else {
                continue; // nowhere to look for it
            };
            let expected_carried = origin_id != me
                && old_view.contains(origin_id)
                && now - t <= MAX_AGE
                && entitled(&new_view, origin_id, me);
            if !expected_carried {
                prop_assert!(
                    store.row_time(ix(new_origin)).is_none(),
                    "row for {} should have been dropped", origin_id.0
                );
                continue;
            }
            expected_rows += 1;
            carried.push((origin_id, new_origin, *t));
            prop_assert_eq!(store.row_time(ix(new_origin)), Some(*t), "receipt time must be preserved");
            // The row is unversioned; its lane drops departed
            // destinations and comes out strictly ascending without a
            // sort.
            prop_assert_eq!(store.row_seqno(ix(new_origin)), 0);
            prop_assert_eq!(
                store.row(ix(new_origin)).map_or(&[][..], LaneRow::retracted),
                &surviving[..]
            );
            let row = store.row_ref(ix(new_origin)).expect("held");
            for (new_dst, d) in new_view.members.iter().enumerate() {
                if old_view.contains(*d) {
                    prop_assert_eq!(
                        row.cost(ix(new_dst)), u32::from(lats[usize::from(d.0)]),
                        "entry {}→{} must move by identity", origin_id.0, d.0
                    );
                } else {
                    prop_assert_eq!(row.cost(ix(new_dst)), INFINITE_COST, "joined dst must read as dead");
                }
            }
        }
        prop_assert_eq!(store.row_count(), expected_rows, "no fabricated origins");
        if let Some(&(id, origin, t)) = carried.first() {
            for (view, taken) in [(&old_view, false), (&new_view, true)] {
                node.on_packet(now + 1.0, &frame_at(id, me, view, 1).encode(), &mut Outbox::default());
                let at = if taken { now + 1.0 } else { t };
                prop_assert_eq!(store_of(&node).row_time(ix(origin)), Some(at), "view {}", view.version);
            }
        }
    }

    /// A chain of view changes through an arbitrary join/leave/rejoin
    /// sequence keeps exactly the rows/entries whose ids were members
    /// of every view in the chain (and rows the node was entitled to
    /// in each) — and for those, the values equal a single direct
    /// rebuild into the final view.
    #[test]
    fn chained_remap_keeps_only_continuous_members(
        views in prop::collection::vec(arb_members(16), 2..5),
        rows in arb_rows(16),
        me in 0u16..16,
    ) {
        let me = NodeId(me);
        let views: Vec<MembershipView> = views
            .into_iter()
            .enumerate()
            .map(|(i, m)| view_with(1 + i as u32, m, me))
            .collect();
        // All rows stamped inside the fresh window; all installs at
        // now=0-ish so staleness never interferes with the membership
        // argument.
        let rows: Rows = rows.into_iter().map(|(o, (_, l))| (o, (0.0, l))).collect();
        let mut node = node_holding(me, &views[0], &rows);
        for view in &views[1..] {
            install(&mut node, view, 1.0);
        }
        let last = views.last().unwrap();
        prop_assert_eq!(node.view(), Some(last));
        let store = store_of(&node);
        for (&origin_id, (_, lats)) in &rows {
            let origin_id = NodeId(origin_id);
            let Some(origin) = last.index_of(origin_id).filter(|_| origin_id != me) else {
                continue;
            };
            let kept = views.iter().all(|v| v.contains(origin_id))
                && views[1..].iter().all(|v| entitled(v, origin_id, me));
            if !kept {
                prop_assert!(
                    store.row_ref(ix(origin)).is_none(),
                    "origin {} left mid-chain (or stopped being a client): \
                     its row must not be resurrected",
                    origin_id.0
                );
                continue;
            }
            let row = store.row_ref(ix(origin)).expect("continuous member's row survives");
            for (new_dst, d) in last.members.iter().enumerate() {
                if views.iter().all(|v| v.contains(*d)) {
                    prop_assert_eq!(row.cost(ix(new_dst)), u32::from(lats[usize::from(d.0)]));
                } else {
                    prop_assert_eq!(
                        row.cost(ix(new_dst)),
                        INFINITE_COST,
                        "dst {} left mid-chain: entry must stay dead even after rejoin",
                        d.0
                    );
                }
            }
        }
    }

    /// A view change keeps only the entitled rows: the node's own and
    /// its rendezvous clients' in the *new* grid.
    #[test]
    fn quorum_import_enforces_new_grid_entitlement(
        old_ids in arb_members(20),
        new_ids in arb_members(20),
        rows in arb_rows(20),
        me_pick in 0usize..12,
    ) {
        let me = new_ids[me_pick % new_ids.len()];
        let old_view = view_with(1, old_ids, me);
        let new_view = MembershipView::new(2, new_ids);
        // Every row fresh at the install, one routing tick before it so
        // the node holds its own row too.
        let rows: Rows = rows.into_iter().map(|(o, (t, l))| (o, (60.0 + t / 4.0, l))).collect();
        let mut node = node_holding(me, &old_view, &rows);
        node.on_timer(90.0, TOKEN_ROUTING, &mut Outbox::default());
        let held_before = store_of(&node).present_rows();
        install(&mut node, &new_view, 100.0);

        let store = store_of(&node);
        for origin in held_before {
            let origin_id = old_view.members[origin.get()];
            let Some(new_origin) = new_view.index_of(origin_id) else {
                continue;
            };
            prop_assert_eq!(
                store.row_time(ix(new_origin)).is_some(),
                entitled(&new_view, origin_id, me),
                "origin {}", origin_id.0
            );
        }
        prop_assert!(store.row_time(ix(new_view.index_of(me).unwrap())).is_some(), "own row kept");
        prop_assert!(
            store.row_count() <= QuorumRouter::row_entitlement(new_view.len()),
            "a view change must never exceed the O(√n) entitlement"
        );
    }

    /// A view install on a live node against the widen-move-reduce
    /// model: random views (members leave, join, both; this node's
    /// index moves), held rows sparse and full, unversioned and
    /// versioned with a retraction lane, fresh and stale at the install,
    /// from origins that depart, stay clients, or stop being clients in
    /// the new grid. Every row the new router holds has the model's
    /// lanes, retractions and receipt time, unversioned, and it holds no
    /// other. A carried row refuses an old-view frame whatever its seqno
    /// and takes its origin's new-view frame at seqno 1.
    #[test]
    fn view_install_carries_rows_as_the_dense_chain_did(
        old_ids in arb_members(24),
        new_ids in arb_members(24),
        me_pick in 0usize..12,
        frames in prop::collection::vec(
            (
                0usize..12,                                      // origin (index into the old view)
                0.0f64..100.0,                                   // receipt time
                prop::collection::vec((any::<bool>(), 1u16..500, 0u8..128), 24), // per-dst: live?, latency, loss quantum
                any::<bool>(),                                   // full row?
                0u16..4,                                         // seqno (0 = unversioned)
                prop::collection::vec(any::<bool>(), 24),        // retraction lane membership
            ),
            0..10,
        ),
        install_at in 100.0f64..160.0,
    ) {
        // `me` is a member of both views, at whatever index each gives it.
        let new_view = MembershipView::new(2, new_ids);
        let me_id = new_view.members[me_pick % new_view.len()];
        let mut old_ids = old_ids;
        old_ids.push(me_id);
        let old_view = MembershipView::new(1, old_ids);
        let n_old = old_view.len();

        let mut node = OverlayNode::new(
            NodeConfig::new(me_id, COORDINATOR, Algorithm::Quorum)
                .with_static_members(old_view.members.clone()),
        );
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        let mut frames = frames;
        frames.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (origin, at, cells, full, seqno, retracts) in frames {
            let origin = origin % n_old;
            if old_view.members[origin] == me_id {
                continue;
            }
            let pairs: Vec<(NodeIdx, LinkEntry)> = (0..n_old)
                .filter(|&d| full || cells[d].0)
                .map(|d| (ix(d), LinkEntry::live(cells[d].1, f32::from(cells[d].2) / 200.0)))
                .collect();
            let retracted: Vec<NodeIdx> = (0..n_old)
                .filter(|&d| seqno != 0 && retracts[d])
                .map(ix)
                .collect();
            let ls = LinkStateMsg {
                from: old_view.members[origin],
                to: me_id,
                view: 1,
                round: 1,
                basis_ms: 0,
                width: n_old as u16,
                row: Arc::new(LaneRow::from_pairs(&pairs).with_version(seqno, &retracted)),
                liveness_loss: LinkStateMsg::liveness_lane(
                    &pairs.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
                ),
            };
            let frame = if full { Message::LinkState(ls) } else { Message::LinkStateSparse(ls) };
            node.on_packet(at, &frame.encode(), &mut out);
        }
        // One routing tick, so the node holds its own row too.
        node.on_timer(100.0, TOKEN_ROUTING, &mut out);

        // The model: every held row widened, moved by identity, reduced.
        let max_age = node.config().protocol.staleness_s();
        let me_new = new_view.index_of(me_id).unwrap();
        let grid = Grid::new(new_view.len());
        let mut model = RowStore::new(new_view.len());
        let held = node.quorum_router().expect("quorum node").table();
        for (origin, received_at, row) in held.held_rows() {
            let new_origin = new_view.index_of(old_view.members[origin.get()]);
            let Some(new_origin) = new_origin.filter(|_| install_at - received_at <= max_age) else {
                continue;
            };
            if new_origin != me_new && !grid.serves(new_origin, me_new) {
                continue;
            }
            let entries: Vec<LinkEntry> = new_view
                .members
                .iter()
                .map(|&id| match old_view.index_of(id).map(|d| row.cost(ix(d))) {
                    Some(c) if c != INFINITE_COST => LinkEntry::live(c as u16, 0.0),
                    _ => LinkEntry::dead(),
                })
                .collect();
            let retracted: Vec<NodeIdx> = held
                .row(origin)
                .map_or(&[][..], LaneRow::retracted)
                .iter()
                .filter_map(|&d| new_view.index_of(old_view.members[d.get()]))
                .map(ix)
                .collect();
            let row = LaneRow::from_dense(&entries).with_version(0, &retracted);
            model.put_row(ix(new_origin), Arc::new(row), received_at);
        }

        let view2 = Message::View(apor_linkstate::wire::ViewMsg {
            from: COORDINATOR,
            to: me_id,
            view: 2,
            members: new_view.members.clone(),
        });
        node.on_packet(install_at, &view2.encode(), &mut out);
        prop_assert_eq!(node.my_index(), Some(me_new));
        let carried = held_rows(node.quorum_router().expect("quorum node").table());
        prop_assert_eq!(&carried, &held_rows(&model));
        let other = carried.iter().find(|row| row.0 != me_new);
        if let Some(&(origin, at, _)) = other {
            let id = new_view.members[origin];
            for (view, seqno, taken) in [(&old_view, 3, false), (&new_view, 1, true)] {
                let frame = frame_at(id, me_id, view, seqno);
                node.on_packet(install_at + 1.0, &frame.encode(), &mut out);
                let want = if taken { install_at + 1.0 } else { f64::from_bits(at) };
                let table = node.quorum_router().expect("quorum node").table();
                prop_assert_eq!(table.row_time(ix(origin)), Some(want), "view {}", view.version);
            }
        }
    }
}

/// A full row from `from` to `to` in `view`, 7 ms to everyone, at `seqno`.
fn frame_at(from: NodeId, to: NodeId, view: &MembershipView, seqno: u16) -> Message {
    let row = vec![LinkEntry::live(7, 0.0); view.len()];
    Message::LinkState(LinkStateMsg {
        from,
        to,
        view: view.version,
        round: 2,
        basis_ms: 0,
        width: view.len() as u16,
        row: Arc::new(LaneRow::from_dense(&row).with_version(seqno, &[])),
        liveness_loss: LinkStateMsg::liveness_lane(&row),
    })
}

/// A full row from `from` as `view` numbers its members: 20 ms to everyone.
fn full_row(from: NodeId, to: NodeId, view: &MembershipView) -> Message {
    let entries = vec![LinkEntry::live(20, 0.0); view.len()];
    Message::LinkState(LinkStateMsg {
        from,
        to,
        view: view.version,
        round: 1,
        basis_ms: 0,
        width: view.len() as u16,
        row: Arc::new(LaneRow::from_dense(&entries)),
        liveness_loss: LinkStateMsg::liveness_lane(&entries),
    })
}

fn view_of(version: u32, ids: &[u16]) -> MembershipView {
    MembershipView::new(version, ids.iter().map(|&i| NodeId(i)).collect())
}

/// Node 0 started in `view` with `algorithm`, nothing received yet.
fn node_zero(view: &MembershipView, algorithm: Algorithm) -> OverlayNode {
    let members = view.members.clone();
    let cfg = NodeConfig::new(NodeId(0), COORDINATOR, algorithm).with_static_members(members);
    let mut node = OverlayNode::new(cfg);
    node.on_start(0.0, &mut Outbox::default());
    node
}

/// End-to-end through the overlay node: a view change must carry fresh
/// rows into the new router instead of rebuilding from empty — the
/// surviving route is answerable immediately, without waiting for a new
/// probe/exchange cycle.
#[test]
fn view_change_preserves_routes_end_to_end() {
    // Members {0, 1, 2, 9}; node 0 is us. Node 1 (a rendezvous client
    // of 0 in the 2×2 grid) sends its link-state row; then node 9
    // leaves. After the view change, node 1's row must still be present
    // (index 1 → 1, entry for 9 dropped).
    let view1 = view_of(1, &[0, 1, 2, 9]);
    let mut node = node_zero(&view1, Algorithm::Quorum);
    assert_eq!(node.my_index(), Some(0));
    let row1: Vec<LinkEntry> = [40, 0, 25, 30].map(|c| LinkEntry::live(c, 0.0)).into();
    let ls = Message::LinkState(LinkStateMsg {
        from: NodeId(1),
        to: NodeId(0),
        view: 1,
        round: 1,
        basis_ms: 0,
        width: 4,
        row: Arc::new(LaneRow::from_dense(&row1)),
        liveness_loss: LinkStateMsg::liveness_lane(&row1),
    });
    node.on_packet(5.0, &ls.encode(), &mut Outbox::default());
    assert!(
        store_of(&node).row_time(ix(1)).is_some(),
        "row received in view 1"
    );

    install(&mut node, &view_of(2, &[0, 1, 2]), 10.0);
    let store = store_of(&node);
    assert_eq!(
        store.row_time(ix(1)),
        Some(5.0),
        "node 1's row must survive the view change with its original receipt time"
    );
    let row = store.row_ref(ix(1)).expect("carried row present");
    assert_eq!(row.width(), 3, "row width follows the new view");
    assert_eq!(row.cost(ix(0)), 40, "1→0 carried");
    assert_eq!(row.cost(ix(2)), 25, "1→2 carried");

    // A control node that really is rebuilt from scratch (started
    // directly in view 2, no messages) knows nothing — the difference
    // the carry makes.
    let control = node_zero(&view_of(2, &[0, 1, 2]), Algorithm::Quorum);
    assert!(
        store_of(&control).row_time(ix(1)).is_none(),
        "rebuild-from-empty holds nothing"
    );
}

/// Stale rows (older than 3 routing intervals at the moment of the view
/// change) are *not* carried — the freshness rule applies to the carry
/// exactly as it applies to the kernel.
#[test]
fn view_change_drops_stale_rows() {
    let view1 = view_of(1, &[0, 1, 2, 9]);
    let mut node = node_zero(&view1, Algorithm::Quorum);
    let ls = full_row(NodeId(1), NodeId(0), &view1);
    node.on_packet(5.0, &ls.encode(), &mut Outbox::default());
    assert_eq!(store_of(&node).row_time(ix(1)), Some(5.0));

    // The quorum staleness window is 3 × 15 s = 45 s; install at t = 100.
    install(&mut node, &view_of(2, &[0, 1, 2]), 100.0);
    assert_eq!(
        store_of(&node).row_time(ix(1)),
        None,
        "a stale row must not survive the view change"
    );
}

/// Drive `node`'s prober over `[from, until)` in half-second steps,
/// answering every probe 40 ms after it was sent.
fn answer_probes(node: &mut OverlayNode, from: f64, until: f64) {
    let mut t = from;
    while t < until {
        let mut out = Outbox::default();
        node.on_timer(t, TOKEN_PROBE, &mut out);
        for (_, _, bytes) in out.sends {
            if let Ok(Message::Probe(p)) = Message::decode(&bytes) {
                let reply = Message::ProbeReply(ProbeReplyMsg {
                    from: p.to,
                    to: p.from,
                    view: p.view,
                    seq: p.seq,
                    echo_sent_ms: p.sent_ms,
                });
                node.on_packet(t + 0.04, &reply.encode(), &mut Outbox::default());
            }
        }
        t += 0.5;
    }
}

/// The prober and the router are handed the same table: a member that
/// moves index keeps its estimator *and* its row, both under the one
/// new index, while a member that joins there has neither.
#[test]
fn prober_and_router_move_a_member_to_the_same_index() {
    let (me, mover) = (NodeId(0), NodeId(5));
    let view1 = view_of(1, &[0, 2, 5, 9]);
    let mut node = node_zero(&view1, Algorithm::Quorum);
    answer_probes(&mut node, 0.0, 35.0);
    let measured = node.measured_latency_ms(mover).expect("5 was probed");
    assert!((measured - 40.0).abs() < 1.0, "latency {measured}");
    node.on_packet(
        36.0,
        &full_row(mover, me, &view1).encode(),
        &mut Outbox::default(),
    );
    assert_eq!(store_of(&node).row_time(ix(2)), Some(36.0), "5 is index 2");

    // Member 2 leaves: 5 moves from index 2 to 1, 9 from 3 to 2.
    let view2 = view_of(2, &[0, 5, 9]);
    install(&mut node, &view2, 40.0);
    assert_eq!(node.measured_latency_ms(mover), Some(measured), "estimator");
    assert_eq!(store_of(&node).row_time(ix(1)), Some(36.0), "row");
    assert_eq!(store_of(&node).present_rows(), [ix(1)], "and nowhere else");

    // Member 3 joins at index 1, pushing 5 to 2: never measured, no row.
    let view3 = view_of(3, &[0, 3, 5, 9]);
    install(&mut node, &view3, 41.0);
    assert_eq!(node.measured_latency_ms(NodeId(3)), None);
    assert_eq!(node.measured_latency_ms(mover), Some(measured));
    assert_eq!(store_of(&node).present_rows(), [ix(2)]);
}

/// The full-mesh baseline carries nothing: handed a second view it
/// holds an empty matrix and knows no route, and it routes again once
/// one routing interval's broadcasts have arrived.
#[test]
fn a_full_mesh_node_starts_over_in_a_second_view() {
    let me = NodeId(0);
    let view1 = view_of(1, &[0, 1, 2, 3]);
    let mut node = node_zero(&view1, Algorithm::FullMesh);
    answer_probes(&mut node, 0.0, 35.0);
    node.on_timer(35.0, TOKEN_ROUTING, &mut Outbox::default());
    for peer in [1, 2, 3] {
        let row = full_row(NodeId(peer), me, &view1);
        node.on_packet(36.0, &row.encode(), &mut Outbox::default());
    }
    assert_eq!(node.best_hop(NodeId(3), 37.0), Some(NodeId(3)));

    let view2 = view_of(2, &[0, 1, 3]);
    install(&mut node, &view2, 40.0);
    for peer in [1, 3] {
        assert_eq!(node.route_age(NodeId(peer), 40.0), None, "empty matrix");
        assert_eq!(node.best_hop(NodeId(peer), 40.0), None);
    }

    // The next routing tick (the prober kept its estimators, so the own
    // row is live at once) and the peers' broadcasts for the new view.
    node.on_timer(41.0, TOKEN_ROUTING, &mut Outbox::default());
    for peer in [1, 3] {
        let row = full_row(NodeId(peer), me, &view2);
        node.on_packet(42.0, &row.encode(), &mut Outbox::default());
    }
    assert_eq!(node.best_hop(NodeId(1), 43.0), Some(NodeId(1)));
    assert_eq!(node.best_hop(NodeId(3), 43.0), Some(NodeId(3)));
    assert_eq!(node.route_age(NodeId(3), 43.0), Some(1.0));
}

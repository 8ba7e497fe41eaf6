//! Property tests for the incremental view remap (`overlay::remap`):
//!
//! 1. **Identity-model equivalence** — one remap across an arbitrary
//!    membership change equals a rebuild-from-scratch fed the same
//!    (surviving) row messages, keyed purely by `NodeId`; stale rows
//!    are dropped per the 3-routing-interval freshness rule.
//! 2. **Join/leave/rejoin chains** — remapping through an arbitrary
//!    sequence of views keeps exactly the rows whose origin (and the
//!    entries whose destination) stayed a member through *every*
//!    intermediate view: leaving destroys measurements, rejoining does
//!    not resurrect them.
//! 3. **Entitlement on import** — feeding remapped rows through a
//!    `QuorumRouter` keeps only the rows the node's new grid role
//!    grants it (own row + rendezvous clients), so a remap can never
//!    re-grow `O(n)` rows.
//! 4. **Carrying a row is relabelling, nothing else** — a view install
//!    on a live node leaves its router's store holding exactly what
//!    widening every held row to one `LinkEntry` per member, moving the
//!    entries by identity and reducing the result to lanes again would
//!    leave: the chain the carry ran through before rows crossed a view
//!    change as lanes, kept here as the model.

use apor_linkstate::{LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, RowStore};
use apor_overlay::config::{Algorithm, NodeConfig};
use apor_overlay::membership::MembershipView;
use apor_overlay::node::{Outbox, TOKEN_ROUTING};
use apor_overlay::remap::remap_rows;
use apor_overlay::OverlayNode;
use apor_quorum::{Grid, NodeId};
use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm, VersionedRow};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

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
fn arb_rows(universe: u16) -> impl Strategy<Value = BTreeMap<u16, (f64, Vec<u16>)>> {
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

/// Load the generated rows into a store shaped by `view` (index space).
fn load_store(view: &MembershipView, rows: &BTreeMap<u16, (f64, Vec<u16>)>) -> RowStore {
    let mut store = RowStore::new(view.len());
    for (&origin_id, (t, lats)) in rows {
        let Some(origin) = view.index_of(NodeId(origin_id)) else {
            continue; // message from a non-member is never delivered
        };
        let entries: Vec<LinkEntry> = view
            .members
            .iter()
            .map(|d| LinkEntry::live(lats[d.0 as usize], 0.0))
            .collect();
        store.put_row(origin, Arc::new(LaneRow::from_dense(&entries)), *t);
    }
    store
}

/// Every held row as a router would export it, each retracting *every*
/// destination of its view at seqno 1 — so the remapped lane shows
/// exactly which destinations survived, and in what order.
fn export(store: &RowStore) -> Vec<VersionedRow> {
    let every_dst: Vec<u16> = (0..store.len() as u16).collect();
    store
        .held_lanes()
        .map(|(origin, received_at, row)| VersionedRow {
            origin,
            received_at,
            row: Arc::new(LaneRow::clone(row).with_version(1, &every_dst)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// One remap equals the identity-keyed rebuild: for every origin id
    /// in both views with a fresh row, the remapped row holds the
    /// original entry for every surviving destination id and dead for
    /// joiners; departed origins and stale rows vanish.
    #[test]
    fn remap_matches_identity_model(
        old_ids in arb_members(20),
        new_ids in arb_members(20),
        rows in arb_rows(20),
        now in 50.0f64..150.0,
    ) {
        let old_view = MembershipView::new(1, old_ids);
        let new_view = MembershipView::new(2, new_ids);
        let store = load_store(&old_view, &rows);
        let remapped = remap_rows(export(&store), &old_view, &new_view, now, MAX_AGE);

        // No fabricated origins, no duplicates.
        let mut seen = std::collections::BTreeSet::new();
        let surviving: Vec<u16> = (0..new_view.len())
            .filter(|&d| old_view.contains(new_view.members[d]))
            .map(|d| d as u16)
            .collect();
        for row in &remapped {
            prop_assert!(seen.insert(row.origin), "duplicate remapped origin");
            // The lane keeps the seqno, drops departed destinations and
            // comes out strictly ascending without a sort.
            prop_assert_eq!(row.row.seqno(), 1);
            prop_assert_eq!(row.row.retracted(), &surviving[..]);
        }

        for (&origin_id, (t, lats)) in &rows {
            let in_old = old_view.contains(NodeId(origin_id));
            let new_origin = new_view.index_of(NodeId(origin_id));
            let fresh = now - t <= MAX_AGE;
            let expected_carried = in_old && new_origin.is_some() && fresh;
            let carried = remapped.iter().find(|r| Some(r.origin) == new_origin);
            if !expected_carried {
                if in_old {
                    prop_assert!(
                        carried.is_none() || new_origin.is_none(),
                        "row for {origin_id} should have been dropped"
                    );
                }
                continue;
            }
            let carried = carried.expect("fresh surviving row must be carried");
            let entries = carried.row.as_row_ref(new_view.len()).to_dense();
            prop_assert_eq!(carried.received_at, *t, "receipt time must be preserved");
            for (new_dst, d) in new_view.members.iter().enumerate() {
                if old_view.contains(*d) {
                    prop_assert_eq!(
                        entries[new_dst].latency_ms, lats[d.0 as usize],
                        "entry {}→{} must move by identity", origin_id, d.0
                    );
                    prop_assert!(entries[new_dst].alive);
                } else {
                    prop_assert!(!entries[new_dst].alive, "joined dst must read as dead");
                }
            }
        }
    }

    /// Chaining remaps through an arbitrary join/leave/rejoin sequence
    /// keeps exactly the rows/entries whose ids were members of every
    /// view in the chain — and for those, the values equal a single
    /// direct rebuild into the final view.
    #[test]
    fn chained_remap_keeps_only_continuous_members(
        views in prop::collection::vec(arb_members(16), 2..5),
        rows in arb_rows(16),
    ) {
        let views: Vec<MembershipView> = views
            .into_iter()
            .enumerate()
            .map(|(i, m)| MembershipView::new(1 + i as u32, m))
            .collect();
        // All rows stamped inside the fresh window; all remaps at now=0-ish
        // so staleness never interferes with the membership argument.
        let rows: BTreeMap<u16, (f64, Vec<u16>)> =
            rows.into_iter().map(|(o, (_, l))| (o, (0.0, l))).collect();
        let mut store = load_store(&views[0], &rows);
        for w in views.windows(2) {
            let remapped = remap_rows(export(&store), &w[0], &w[1], 1.0, MAX_AGE);
            let mut next = RowStore::new(w[1].len());
            for row in remapped {
                next.put_row(row.origin, row.row, row.received_at);
            }
            store = next;
        }
        let last = views.last().unwrap();
        for (&origin_id, (_, lats)) in &rows {
            let continuous = views.iter().all(|v| v.contains(NodeId(origin_id)));
            let final_origin = last.index_of(NodeId(origin_id));
            match (continuous, final_origin) {
                (true, Some(origin)) => {
                    let row = store.row_dense(origin).expect("continuous member's row survives");
                    for (new_dst, d) in last.members.iter().enumerate() {
                        let dst_continuous = views.iter().all(|v| v.contains(*d));
                        if dst_continuous {
                            prop_assert_eq!(row[new_dst].latency_ms, lats[d.0 as usize]);
                            prop_assert!(row[new_dst].alive);
                        } else {
                            prop_assert!(
                                !row[new_dst].alive,
                                "dst {} left mid-chain: entry must stay dead even after rejoin",
                                d.0
                            );
                        }
                    }
                }
                (false, Some(origin)) => {
                    prop_assert!(
                        store.row_ref(origin).is_none(),
                        "origin {} left mid-chain: its row must not be resurrected",
                        origin_id
                    );
                }
                (_, None) => {}
            }
        }
    }

    /// Importing remapped rows into a quorum router keeps only the
    /// entitled ones: the node's own row and its rendezvous clients' in
    /// the *new* grid.
    #[test]
    fn quorum_import_enforces_new_grid_entitlement(
        old_ids in arb_members(20),
        new_ids in arb_members(20),
        rows in arb_rows(20),
        me_pick in 0usize..12,
    ) {
        // `me` must be a member of both views.
        let mut old_ids = old_ids;
        let new_view = MembershipView::new(2, new_ids);
        let me_id = new_view.members[me_pick % new_view.len()];
        if !old_ids.contains(&me_id) {
            old_ids.push(me_id);
        }
        let old_view = MembershipView::new(1, old_ids);
        let store = load_store(&old_view, &rows);
        let remapped = remap_rows(export(&store), &old_view, &new_view, 10.0, 200.0);

        let me = new_view.index_of(me_id).unwrap();
        let n = new_view.len();
        let mut router = QuorumRouter::new(me, n, 2, ProtocolConfig::quorum());
        for row in &remapped {
            router.import_row(row.clone());
        }
        let grid = router.grid().clone();
        for VersionedRow { origin, .. } in &remapped {
            let entitled = *origin == me || grid.serves(*origin, me);
            prop_assert_eq!(
                router.table().row_time(*origin).is_some(),
                entitled,
                "origin {} entitled={}", origin, entitled
            );
        }
        prop_assert!(
            router.table().row_count() <= QuorumRouter::row_entitlement(n),
            "remap must never exceed the O(√n) entitlement"
        );
    }

    /// A view install on a live node against the widen-move-reduce
    /// model: random views (members leave, join, both; this node's
    /// index moves), held rows sparse and full, unversioned and
    /// versioned with a retraction lane, fresh and stale at the install,
    /// from origins that depart, stay clients, or stop being clients in
    /// the new grid. Every row the new router holds has the model's
    /// lanes, seqno, retractions and receipt time, and it holds no other.
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
            NodeConfig::new(me_id, old_view.members[0], Algorithm::Quorum)
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
            let pairs: Vec<(u16, LinkEntry)> = (0..n_old)
                .filter(|&d| full || cells[d].0)
                .map(|d| (d as u16, LinkEntry::live(cells[d].1, f32::from(cells[d].2) / 200.0)))
                .collect();
            let retracted: Vec<u16> = (0..n_old as u16)
                .filter(|&d| seqno != 0 && retracts[usize::from(d)])
                .collect();
            let ls = LinkStateMsg {
                from: old_view.members[origin],
                to: me_id,
                view: 1,
                round: 1,
                basis_ms: 0,
                width: n_old as u16,
                row: Arc::new(LaneRow::from_pairs(&pairs).with_version(seqno, &retracted)),
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
        for (origin, received_at, lanes) in held.held_lanes() {
            let new_origin = new_view.index_of(old_view.members[origin]);
            let Some(new_origin) = new_origin.filter(|_| install_at - received_at <= max_age) else {
                continue;
            };
            if new_origin != me_new && !grid.serves(new_origin, me_new) {
                continue;
            }
            let dense = lanes.as_row_ref(n_old).to_dense();
            let entries: Vec<LinkEntry> = new_view
                .members
                .iter()
                .map(|&id| old_view.index_of(id).map_or_else(LinkEntry::dead, |d| dense[d]))
                .collect();
            let retracted: Vec<u16> = lanes
                .retracted()
                .iter()
                .filter_map(|&d| new_view.index_of(old_view.members[usize::from(d)]))
                .map(|d| d as u16)
                .collect();
            let row = LaneRow::from_dense(&entries).with_version(lanes.seqno(), &retracted);
            model.put_row(new_origin, Arc::new(row), received_at);
        }

        let view2 = Message::View(apor_linkstate::wire::ViewMsg {
            from: me_id,
            to: me_id,
            view: 2,
            members: new_view.members.clone(),
        });
        node.on_packet(install_at, &view2.encode(), &mut out);
        prop_assert_eq!(node.my_index(), Some(me_new));
        let carried: Vec<(usize, u64, LaneRow)> = node
            .quorum_router()
            .expect("quorum node")
            .table()
            .held_lanes()
            .map(|(origin, at, row)| (origin, at.to_bits(), LaneRow::clone(row)))
            .collect();
        let want: Vec<(usize, u64, LaneRow)> = model
            .held_lanes()
            .map(|(origin, at, row)| (origin, at.to_bits(), LaneRow::clone(row)))
            .collect();
        prop_assert_eq!(carried, want);
    }
}

/// End-to-end through the overlay node: a view change must carry fresh
/// rows into the new router instead of rebuilding from empty — the
/// surviving route is answerable immediately, without waiting for a new
/// probe/exchange cycle.
#[test]
fn view_change_preserves_routes_end_to_end() {
    use apor_linkstate::{LaneRow, LinkStateMsg, Message};
    use apor_overlay::config::{Algorithm, NodeConfig};
    use apor_overlay::node::Outbox;
    use apor_overlay::OverlayNode;
    use std::sync::Arc;

    // Members {0, 1, 2, 9}; node 0 is us. Node 1 (a rendezvous client
    // of 0 in the 2×2 grid) sends its link-state row; then node 9
    // leaves. After the view change, node 1's row must still be present
    // (remapped from index 1 → 1, entry for 9 dropped).
    let members: Vec<NodeId> = [0u16, 1, 2, 9].iter().map(|&i| NodeId(i)).collect();
    let mut node = OverlayNode::new(
        NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum).with_static_members(members),
    );
    let mut out = Outbox::default();
    node.on_start(0.0, &mut out);
    assert_eq!(node.my_index(), Some(0));

    let row1 = vec![
        LinkEntry::live(40, 0.0),
        LinkEntry::live(0, 0.0),
        LinkEntry::live(25, 0.0),
        LinkEntry::live(30, 0.0),
    ];
    let ls = Message::LinkState(LinkStateMsg {
        from: NodeId(1),
        to: NodeId(0),
        view: 1,
        round: 1,
        basis_ms: 0,
        width: 4,
        row: Arc::new(LaneRow::from_dense(&row1)),
    });
    let mut out = Outbox::default();
    node.on_packet(5.0, &ls.encode(), &mut out);
    let store_has_row = |node: &OverlayNode, idx: usize| {
        node.quorum_router()
            .is_some_and(|r| r.table().row_time(idx).is_some())
    };
    assert!(store_has_row(&node, 1), "row received in view 1");

    // Node 9 departs: view version 2 with {0, 1, 2}.
    let view2 = Message::View(apor_linkstate::wire::ViewMsg {
        from: NodeId(0),
        to: NodeId(0),
        view: 2,
        members: [0u16, 1, 2].iter().map(|&i| NodeId(i)).collect(),
    });
    let mut out = Outbox::default();
    node.on_packet(10.0, &view2.encode(), &mut out);

    let router = node.quorum_router().expect("router rebuilt");
    assert_eq!(
        router.table().row_time(1),
        Some(5.0),
        "node 1's row must survive the view change with its original receipt time"
    );
    let row = router.table().row_dense(1).expect("remapped row present");
    assert_eq!(row.len(), 3, "row width follows the new view");
    assert_eq!(row[0].latency_ms, 40, "1→0 carried");
    assert_eq!(row[2].latency_ms, 25, "1→2 carried");

    // A control node that really is rebuilt from scratch (started
    // directly in view 2, no messages) knows nothing — the difference
    // the incremental remap makes.
    let members2: Vec<NodeId> = [0u16, 1, 2].iter().map(|&i| NodeId(i)).collect();
    let mut control = OverlayNode::new(
        NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum).with_static_members(members2),
    );
    let mut out = Outbox::default();
    control.on_start(10.0, &mut out);
    assert!(
        !store_has_row(&control, 1),
        "rebuild-from-empty holds nothing"
    );
}

/// Stale rows (older than 3 routing intervals at the moment of the view
/// change) are *not* carried — the freshness rule applies to the remap
/// exactly as it applies to the kernel.
#[test]
fn view_change_drops_stale_rows() {
    use apor_linkstate::{LaneRow, LinkStateMsg, Message};
    use apor_overlay::config::{Algorithm, NodeConfig};
    use apor_overlay::node::Outbox;
    use apor_overlay::OverlayNode;
    use std::sync::Arc;

    let members: Vec<NodeId> = [0u16, 1, 2, 9].iter().map(|&i| NodeId(i)).collect();
    let mut node = OverlayNode::new(
        NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum).with_static_members(members),
    );
    let mut out = Outbox::default();
    node.on_start(0.0, &mut out);
    let ls = Message::LinkState(LinkStateMsg {
        from: NodeId(1),
        to: NodeId(0),
        view: 1,
        round: 1,
        basis_ms: 0,
        width: 4,
        row: Arc::new(LaneRow::from_dense(&[LinkEntry::live(40, 0.0); 4])),
    });
    let mut out = Outbox::default();
    node.on_packet(5.0, &ls.encode(), &mut out);

    // The quorum staleness window is 3 × 15 s = 45 s; remap at t = 100.
    let view2 = Message::View(apor_linkstate::wire::ViewMsg {
        from: NodeId(0),
        to: NodeId(0),
        view: 2,
        members: [0u16, 1, 2].iter().map(|&i| NodeId(i)).collect(),
    });
    let mut out = Outbox::default();
    node.on_packet(100.0, &view2.encode(), &mut out);
    let router = node.quorum_router().expect("router rebuilt");
    assert_eq!(
        router.table().row_time(1),
        None,
        "a stale row must not survive the remap"
    );
}

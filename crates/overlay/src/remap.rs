//! Incremental view remap: carry surviving link-state rows across
//! membership changes.
//!
//! Routers and their stores operate in *grid-index space* — positions
//! in the sorted member list of the current view. A membership change
//! permutes that space, so the old store's rows cannot be reused as-is.
//! The seed implementation simply rebuilt every router from empty,
//! throwing away up to `O(n√n)` perfectly fresh measurements on every
//! churn event and blinding the overlay for a full probe-and-exchange
//! cycle.
//!
//! [`remap_rows`] instead translates each surviving row **by
//! [`NodeId`]**: the row of origin identity `o` moves to `o`'s index in
//! the new view; within the row, the entry for destination identity `d`
//! moves to `d`'s new index. Entries for departed members are dropped;
//! entries for joined members start dead (they have never been
//! measured). Rows whose origin departed, and rows older than the
//! staleness window (the paper's 3-routing-interval rule, section
//! 6.2.2 — stale rows would be ignored by the kernel anyway), are not
//! carried. Receipt times are preserved, *not* refreshed: a remap is a
//! relabeling, not new information.
//!
//! Each row is carried as a [`VersionedRow`], so the origin's seqno and
//! retraction lane cross the view change with the measurements. The
//! router's [`import_row`](apor_routing::RoutingAlgorithm::import_row)
//! applies its own entitlement filter on top — a quorum router keeps
//! only rows owned by itself or its rendezvous clients *in the new
//! grid*, so the remap cannot re-grow `O(n)` rows.

use crate::membership::MembershipView;
use apor_linkstate::LinkEntry;
use apor_routing::VersionedRow;

/// Translate exported rows from `old_view`'s index space into
/// `new_view`'s, dropping rows that are stale at `now` (older than
/// `max_age`) or whose origin left the overlay.
///
/// The route discipline rides along: each row's origin seqno survives
/// the relabeling verbatim (a carried row must keep shadowing delayed
/// replays of older frames), and the retraction lane is translated
/// destination by destination — a retraction aimed at a departed member
/// leaves with it, everything else moves to the destination's new
/// index.
#[must_use]
pub fn remap_rows(
    exported: &[VersionedRow],
    old_view: &MembershipView,
    new_view: &MembershipView,
    now: f64,
    max_age: f64,
) -> Vec<VersionedRow> {
    let n_new = new_view.len();
    // Precompute the index translations once (O(n) lookups instead of a
    // binary search per entry).
    let new_to_old: Vec<Option<usize>> = new_view
        .members
        .iter()
        .map(|&id| old_view.index_of(id))
        .collect();
    let old_to_new: Vec<Option<usize>> = old_view
        .members
        .iter()
        .map(|&id| new_view.index_of(id))
        .collect();
    let mut out = Vec::new();
    for row in exported {
        if now - row.received_at > max_age {
            continue; // 3-interval freshness rule: stale rows are dropped
        }
        let Some(origin_id) = old_view.id_of(row.origin) else {
            continue;
        };
        let Some(new_origin) = new_view.index_of(origin_id) else {
            continue; // origin departed
        };
        if row.entries.len() != old_view.len() {
            continue; // malformed export; never expected
        }
        let entries: Vec<LinkEntry> = (0..n_new)
            .map(|new_dst| {
                new_to_old[new_dst].map_or_else(LinkEntry::dead, |old_dst| row.entries[old_dst])
            })
            .collect();
        // Both views list their members sorted by id, so surviving
        // indices keep their relative order: the translated lane is
        // still strictly ascending and needs no re-sort.
        #[allow(clippy::cast_possible_truncation)]
        let retractions: Vec<u16> = row
            .retractions
            .iter()
            .filter_map(|&d| old_to_new.get(usize::from(d)).copied().flatten())
            .map(|new_dst| new_dst as u16)
            .collect();
        out.push(VersionedRow {
            origin: new_origin,
            received_at: row.received_at,
            seqno: row.seqno,
            retractions,
            entries,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_quorum::NodeId;

    fn view(version: u32, ids: &[u16]) -> MembershipView {
        MembershipView::new(version, ids.iter().map(|&i| NodeId(i)).collect())
    }

    /// An unversioned exported row: origin index, receipt time, costs.
    fn row(origin: usize, received_at: f64, costs: &[u16]) -> VersionedRow {
        VersionedRow {
            origin,
            received_at,
            seqno: 0,
            retractions: Vec::new(),
            entries: costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect(),
        }
    }

    #[test]
    fn entries_move_by_identity() {
        // Old view {1, 5, 9} → indices {0, 1, 2}. Node 5 leaves, node 3
        // joins: new view {1, 3, 9} → node 9 moves from index 2 to 2,
        // node 1 stays at 0, the new index 1 is node 3 (unmeasured).
        let old = view(1, &[1, 5, 9]);
        let new = view(2, &[1, 3, 9]);
        let exported = vec![row(0, 10.0, &[0, 50, 70])];
        let remapped = remap_rows(&exported, &old, &new, 12.0, 45.0);
        assert_eq!(remapped.len(), 1);
        let VersionedRow {
            origin,
            received_at,
            entries,
            ..
        } = &remapped[0];
        assert_eq!(*origin, 0, "node 1 keeps index 0");
        assert_eq!(*received_at, 10.0, "receipt time preserved, not refreshed");
        assert_eq!(entries[0].latency_ms, 0, "1→1 self entry");
        assert!(!entries[1].alive, "joiner 3 starts dead");
        assert_eq!(entries[2].latency_ms, 70, "1→9 carried by identity");
    }

    #[test]
    fn departed_origin_rows_dropped() {
        let old = view(1, &[1, 5, 9]);
        let new = view(2, &[1, 9]);
        // Node 5's row (old index 1) has no home in the new view.
        let exported = vec![row(1, 10.0, &[40, 0, 60]), row(2, 10.0, &[70, 60, 0])];
        let remapped = remap_rows(&exported, &old, &new, 11.0, 45.0);
        assert_eq!(remapped.len(), 1);
        assert_eq!(remapped[0].origin, 1, "node 9 is index 1 in the new view");
        assert_eq!(remapped[0].entries.len(), 2);
        assert_eq!(remapped[0].entries[0].latency_ms, 70, "9→1 survives");
    }

    #[test]
    fn stale_rows_dropped_per_freshness_rule() {
        let old = view(1, &[1, 9]);
        let new = view(2, &[1, 9]);
        let exported = vec![row(0, 10.0, &[0, 50]), row(1, 60.0, &[50, 0])];
        // At now = 70 with max_age = 45: row stamped 10 is stale, row
        // stamped 60 survives.
        let remapped = remap_rows(&exported, &old, &new, 70.0, 45.0);
        assert_eq!(remapped.len(), 1);
        assert_eq!(remapped[0].origin, 1);
    }

    #[test]
    fn remap_translates_the_retraction_lane() {
        // Old view {1, 5, 9}: node 1's row retracts 5 (index 1) and 9
        // (index 2) at seqno 7. Node 5 leaves, node 3 joins.
        let old = view(1, &[1, 5, 9]);
        let new = view(2, &[1, 3, 9]);
        let exported = vec![VersionedRow {
            seqno: 7,
            retractions: vec![1, 2],
            ..row(0, 10.0, &[0, 50, 70])
        }];
        let remapped = remap_rows(&exported, &old, &new, 12.0, 45.0);
        assert_eq!(remapped.len(), 1);
        let r = &remapped[0];
        assert_eq!(r.origin, 0, "node 1 keeps index 0");
        assert_eq!(r.seqno, 7, "seqno survives verbatim");
        assert_eq!(
            r.retractions,
            vec![2],
            "retraction against departed 5 dropped; 9 stays at index 2"
        );
        assert_eq!(r.received_at, 10.0);
    }
}

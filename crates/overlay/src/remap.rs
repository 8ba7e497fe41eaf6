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
//! entries for joined members are absent (they have never been
//! measured, and a row holds live entries only). Rows whose origin
//! departed, and rows older than the staleness window (the paper's
//! 3-routing-interval rule, section 6.2.2 — stale rows would be ignored
//! by the kernel anyway), are not carried. Receipt times are preserved,
//! *not* refreshed: a remap is a relabeling, not new information.
//!
//! Rows cross a view change **as lanes**. A [`VersionedRow`] carries
//! the row the way the store holds it — the `Arc<LaneRow>` with its
//! live entries, the origin's seqno and its retraction lane — and the
//! translation renames the destination lane and the retraction lane
//! through one `old index → new index` table
//! ([`LaneRow::relabelled`](apor_linkstate::LaneRow::relabelled)),
//! copying the latency and liveness bytes as they are. Both views are
//! sorted by id, so the destinations that survive keep their order and
//! the lanes stay ascending without a sort. A row costs what it holds
//! (`~2√n + 16` entries under entitled probing), not the width of the
//! view, and no row is ever widened to one slot per member on the way.
//!
//! The router's [`import_row`](apor_routing::RoutingAlgorithm::import_row)
//! applies its own entitlement filter on top — a quorum router keeps
//! only rows owned by itself or its rendezvous clients *in the new
//! grid*, so the remap cannot re-grow `O(n)` rows.
//!
//! [`NodeId`]: apor_quorum::NodeId

use crate::membership::MembershipView;
use apor_routing::VersionedRow;
use std::sync::Arc;

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
    exported: Vec<VersionedRow>,
    old_view: &MembershipView,
    new_view: &MembershipView,
    now: f64,
    max_age: f64,
) -> Vec<VersionedRow> {
    // One table for every row (O(n) lookups instead of a search per
    // entry). Grid indices fit the wire's 16-bit destinations.
    #[allow(clippy::cast_possible_truncation)]
    let old_to_new: Vec<Option<u16>> = old_view
        .members
        .iter()
        .map(|&id| new_view.index_of(id).map(|i| i as u16))
        .collect();
    exported
        .into_iter()
        .filter(|row| now - row.received_at <= max_age) // the 3-interval freshness rule
        .filter_map(|row| {
            // `None`: the origin departed.
            let origin = usize::from((*old_to_new.get(row.origin)?)?);
            Some(VersionedRow {
                origin,
                received_at: row.received_at,
                row: Arc::new(row.row.relabelled(&old_to_new)),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_linkstate::{LaneRow, LinkEntry};
    use apor_quorum::NodeId;

    fn view(version: u32, ids: &[u16]) -> MembershipView {
        MembershipView::new(version, ids.iter().map(|&i| NodeId(i)).collect())
    }

    /// An unversioned exported row: origin index, receipt time, costs.
    fn row(origin: usize, received_at: f64, costs: &[u16]) -> VersionedRow {
        let entries: Vec<LinkEntry> = costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect();
        VersionedRow {
            origin,
            received_at,
            row: Arc::new(LaneRow::from_dense(&entries)),
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
        let remapped = remap_rows(exported, &old, &new, 12.0, 45.0);
        assert_eq!(remapped.len(), 1);
        let VersionedRow {
            origin,
            received_at,
            row,
        } = &remapped[0];
        assert_eq!(*origin, 0, "node 1 keeps index 0");
        assert_eq!(*received_at, 10.0, "receipt time preserved, not refreshed");
        assert_eq!(row.lanes().0, [0, 2], "joiner 3 is absent, not listed dead");
        let entries = row.as_row_ref(3);
        assert_eq!(entries.get(0).latency_ms, 0, "1→1 self entry");
        assert!(!entries.get(1).alive, "joiner 3 reads as dead");
        assert_eq!(entries.get(2).latency_ms, 70, "1→9 carried by identity");
    }

    #[test]
    fn departed_origin_rows_dropped() {
        let old = view(1, &[1, 5, 9]);
        let new = view(2, &[1, 9]);
        // Node 5's row (old index 1) has no home in the new view.
        let exported = vec![row(1, 10.0, &[40, 0, 60]), row(2, 10.0, &[70, 60, 0])];
        let remapped = remap_rows(exported, &old, &new, 11.0, 45.0);
        assert_eq!(remapped.len(), 1);
        assert_eq!(remapped[0].origin, 1, "node 9 is index 1 in the new view");
        assert_eq!(remapped[0].row.len(), 2);
        assert_eq!(
            remapped[0].row.as_row_ref(2).get(0).latency_ms,
            70,
            "9→1 survives"
        );
    }

    #[test]
    fn stale_rows_dropped_per_freshness_rule() {
        let old = view(1, &[1, 9]);
        let new = view(2, &[1, 9]);
        let exported = vec![row(0, 10.0, &[0, 50]), row(1, 60.0, &[50, 0])];
        // At now = 70 with max_age = 45: row stamped 10 is stale, row
        // stamped 60 survives.
        let remapped = remap_rows(exported, &old, &new, 70.0, 45.0);
        assert_eq!(remapped.len(), 1);
        assert_eq!(remapped[0].origin, 1);
    }

    #[test]
    fn remap_translates_the_retraction_lane() {
        // Old view {1, 5, 9}: node 1's row retracts 5 (index 1) and 9
        // (index 2) at seqno 7. Node 5 leaves, node 3 joins.
        let old = view(1, &[1, 5, 9]);
        let new = view(2, &[1, 3, 9]);
        let mut exported = row(0, 10.0, &[0, 50, 70]);
        exported.row = Arc::new(LaneRow::clone(&exported.row).with_version(7, &[1, 2]));
        let remapped = remap_rows(vec![exported], &old, &new, 12.0, 45.0);
        assert_eq!(remapped.len(), 1);
        let r = &remapped[0];
        assert_eq!(r.origin, 0, "node 1 keeps index 0");
        assert_eq!(r.row.seqno(), 7, "seqno survives verbatim");
        assert_eq!(
            r.row.retracted(),
            [2],
            "retraction against departed 5 dropped; 9 stays at index 2"
        );
        assert_eq!(r.received_at, 10.0);
    }
}

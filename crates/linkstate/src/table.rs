//! The dense `n × n` link-state table — the full-mesh baseline's store.
//!
//! Kept for the RON baseline (which genuinely holds every row) and as
//! the reference implementation in tests; quorum nodes use the sparse
//! [`RowStore`](crate::store::RowStore) instead. All route computation
//! lives in the [`LinkStateStore`] trait, written once over both.

use crate::entry::LinkEntry;
use crate::store::{LaneRow, LinkStateStore, RowRef};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A node's dense view of the full `n × n` link-state matrix.
///
/// Row `i` holds node `i`'s own measurements of its direct links. A node
/// populates its own row from its probers and the other rows from the
/// link-state messages of its rendezvous clients (or, in the full-mesh
/// baseline, of everyone). Rows carry the receipt time so the round-two
/// computation can ignore stale data — the paper accepts measurements
/// "sent to it within the last 3 routing intervals" (section 6.2.2).
///
/// Indices are membership/grid indices, not raw [`NodeId`]s; the overlay
/// layer owns that mapping and remaps stores on membership change.
///
/// [`NodeId`]: apor_quorum::NodeId
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkStateTable {
    n: usize,
    entries: Vec<LinkEntry>,
    /// Receipt time (seconds) of each row; `None` = never received.
    row_time: Vec<Option<f64>>,
}

impl LinkStateTable {
    /// An empty table over `n` nodes (all entries dead, all rows unknown).
    #[must_use]
    pub fn new(n: usize) -> Self {
        LinkStateTable {
            n,
            entries: vec![LinkEntry::dead(); n * n],
            row_time: vec![None; n],
        }
    }
}

impl LinkStateStore for LinkStateTable {
    fn len(&self) -> usize {
        self.n
    }

    fn update_row(&mut self, origin: usize, entries: &[LinkEntry], now: f64) {
        assert!(origin < self.n, "row {origin} out of range");
        assert_eq!(entries.len(), self.n, "row must have n entries");
        self.entries[origin * self.n..(origin + 1) * self.n].copy_from_slice(entries);
        self.row_time[origin] = Some(now);
    }

    fn update_row_sparse(&mut self, origin: usize, entries: &[(u16, LinkEntry)], now: f64) {
        assert!(origin < self.n, "row {origin} out of range");
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let row = &mut self.entries[origin * self.n..(origin + 1) * self.n];
        row.fill(LinkEntry::dead());
        for &(dst, e) in entries {
            row[dst as usize] = e;
        }
        self.row_time[origin] = Some(now);
    }

    fn put_row(&mut self, origin: usize, row: Arc<LaneRow>, now: f64) -> bool {
        assert!(origin < self.n, "row {origin} out of range");
        let slots = &mut self.entries[origin * self.n..(origin + 1) * self.n];
        let (dst, latency_ms, liveness_loss) = row.lanes();
        slots.fill(LinkEntry::dead());
        for i in 0..dst.len() {
            slots[usize::from(dst[i])] =
                LinkEntry::from_wire_parts(latency_ms[i], liveness_loss[i]);
        }
        self.row_time[origin] = Some(now);
        true
    }

    fn update_entry(&mut self, origin: usize, dst: usize, entry: LinkEntry, now: f64) {
        assert!(origin < self.n && dst < self.n);
        self.entries[origin * self.n + dst] = entry;
        self.row_time[origin] = Some(now);
    }

    fn clear_row(&mut self, origin: usize) {
        for e in &mut self.entries[origin * self.n..(origin + 1) * self.n] {
            *e = LinkEntry::dead();
        }
        self.row_time[origin] = None;
    }

    fn row_ref(&self, origin: usize) -> Option<RowRef<'_>> {
        self.row_time[origin]?;
        Some(RowRef::Dense(
            &self.entries[origin * self.n..(origin + 1) * self.n],
        ))
    }

    fn row_time(&self, origin: usize) -> Option<f64> {
        self.row_time[origin]
    }

    fn held_rows(&self) -> impl Iterator<Item = (usize, f64, RowRef<'_>)> {
        self.row_time.iter().enumerate().filter_map(|(origin, t)| {
            let row = &self.entries[origin * self.n..(origin + 1) * self.n];
            Some((origin, (*t)?, RowRef::Dense(row)))
        })
    }

    fn row_count(&self) -> usize {
        self.row_time.iter().filter(|t| t.is_some()).count()
    }

    fn entry_count(&self) -> usize {
        // Dense: the full matrix is allocated whether received or not.
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_row(costs: &[u16]) -> Vec<LinkEntry> {
        costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect()
    }

    /// A 4-node world where 0→3 direct is 500 ms but 0→1→3 is 150 ms.
    fn detour_table() -> LinkStateTable {
        let mut t = LinkStateTable::new(4);
        t.update_row(0, &live_row(&[0, 50, 200, 500]), 10.0);
        t.update_row(1, &live_row(&[50, 0, 80, 100]), 10.0);
        t.update_row(2, &live_row(&[200, 80, 0, 90]), 10.0);
        t.update_row(3, &live_row(&[500, 100, 90, 0]), 10.0);
        t
    }

    #[test]
    fn best_one_hop_finds_detour() {
        let t = detour_table();
        let (hop, cost) = t.best_one_hop(0, 3, 11.0, 45.0).unwrap();
        assert_eq!(hop, 1);
        assert_eq!(cost, 150.0);
    }

    #[test]
    fn best_one_hop_prefers_direct_on_tie() {
        let mut t = LinkStateTable::new(3);
        t.update_row(0, &live_row(&[0, 50, 100]), 0.0);
        t.update_row(1, &live_row(&[50, 0, 50]), 0.0);
        t.update_row(2, &live_row(&[100, 50, 0]), 0.0);
        // 0→2 direct = 100 = 0→1→2; prefer direct (hop == dst).
        let (hop, cost) = t.best_one_hop(0, 2, 1.0, 45.0).unwrap();
        assert_eq!(hop, 2);
        assert_eq!(cost, 100.0);
    }

    #[test]
    fn best_one_hop_requires_fresh_rows() {
        let t = detour_table();
        // Rows stamped at t=10; at now=100 with max_age=45 they're stale.
        assert!(t.best_one_hop(0, 3, 100.0, 45.0).is_none());
        assert!(t.best_one_hop(0, 3, 55.0, 45.0).is_some());
    }

    #[test]
    fn best_one_hop_missing_row_is_none() {
        let mut t = LinkStateTable::new(3);
        t.update_row(0, &live_row(&[0, 10, 10]), 0.0);
        assert!(t.best_one_hop(0, 2, 0.0, 45.0).is_none());
    }

    #[test]
    fn best_one_hop_skips_dead_links() {
        let mut t = detour_table();
        // Kill 0→1 (in 0's row): detour must shift to hop 2 (200+90=290).
        t.update_entry(0, 1, LinkEntry::dead(), 10.0);
        let (hop, cost) = t.best_one_hop(0, 3, 11.0, 45.0).unwrap();
        assert_eq!(hop, 2);
        assert_eq!(cost, 290.0);
    }

    #[test]
    fn best_one_hop_uses_min_direction_for_direct() {
        let mut t = LinkStateTable::new(2);
        t.update_row(0, &live_row(&[0, 300]), 0.0);
        t.update_row(1, &live_row(&[200, 0]), 0.0);
        let (hop, cost) = t.best_one_hop(0, 1, 0.0, 45.0).unwrap();
        assert_eq!(hop, 1);
        assert_eq!(cost, 200.0);
    }

    #[test]
    fn all_dead_returns_none() {
        let mut t = LinkStateTable::new(3);
        t.update_row(
            0,
            &[LinkEntry::dead(), LinkEntry::dead(), LinkEntry::dead()],
            0.0,
        );
        t.update_row(
            2,
            &[LinkEntry::dead(), LinkEntry::dead(), LinkEntry::dead()],
            0.0,
        );
        assert!(t.best_one_hop(0, 2, 0.0, 45.0).is_none());
    }

    #[test]
    fn one_hop_options_sorted() {
        let t = detour_table();
        let opts = t.one_hop_options(0, 3, 11.0, 45.0);
        assert_eq!(opts.len(), 2);
        assert_eq!(opts[0], (1, 150.0));
        assert_eq!(opts[1], (2, 290.0));
    }

    #[test]
    fn one_hop_options_skip_stale_relays() {
        let mut t = detour_table();
        t.clear_row(1);
        let opts = t.one_hop_options(0, 3, 11.0, 45.0);
        assert_eq!(opts, vec![(2, 290.0)]);
    }

    #[test]
    fn anyone_reaches_sees_live_entries() {
        let mut t = LinkStateTable::new(3);
        assert!(!t.anyone_reaches(2, 0.0, 45.0));
        t.update_row(1, &live_row(&[10, 0, 10]), 0.0);
        assert!(t.anyone_reaches(2, 1.0, 45.0));
        // Staleness disqualifies.
        assert!(!t.anyone_reaches(2, 100.0, 45.0));
        // A dead entry doesn't count.
        let mut dead_row = live_row(&[10, 0, 10]);
        dead_row[2] = LinkEntry::dead();
        t.update_row(1, &dead_row, 200.0);
        assert!(!t.anyone_reaches(2, 201.0, 45.0));
    }

    #[test]
    fn clear_row_resets() {
        let mut t = detour_table();
        t.clear_row(0);
        assert!(t.row_time(0).is_none());
        assert!(t.cost(0, 1).is_infinite());
        assert_eq!(t.cost(0, 0), 0.0);
    }

    #[test]
    fn path_cost_direct_and_relayed() {
        let t = detour_table();
        assert_eq!(t.path_cost(0, 3, 3), 500.0);
        assert_eq!(t.path_cost(0, 1, 3), 150.0);
    }

    #[test]
    fn row_age_tracking() {
        let mut t = LinkStateTable::new(2);
        assert_eq!(t.row_age(0, 5.0), None);
        t.update_row(0, &live_row(&[0, 5]), 3.0);
        assert_eq!(t.row_age(0, 5.0), Some(2.0));
        assert!(t.row_fresh(0, 5.0, 2.0));
        assert!(!t.row_fresh(0, 5.1, 2.0));
    }

    #[test]
    fn state_accounting_is_dense() {
        let mut t = LinkStateTable::new(5);
        assert_eq!(t.entry_count(), 25, "dense allocates n² regardless");
        assert_eq!(t.row_count(), 0);
        t.update_row(3, &live_row(&[1, 1, 1, 1, 1]), 0.0);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.present_rows(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_row_bounds_checked() {
        LinkStateTable::new(2).update_row(2, &live_row(&[0, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "n entries")]
    fn update_row_length_checked() {
        LinkStateTable::new(3).update_row(0, &live_row(&[0, 1]), 0.0);
    }
}

//! The centralized membership service (section 5, "Membership Service").
//!
//! "Because the focus of this paper is to evaluate the effectiveness of
//! the overlay routing, we use a simple centralized membership service,
//! running on a coordinator node" — we follow the paper. The coordinator
//! keeps the live member set; any change bumps a monotonic view version
//! and broadcasts the *sorted* member list. Every node with the same view
//! populates its quorum grid from that sorted list in row-major order, so
//! identical views imply identical grids.
//!
//! Membership lifetimes are long (30-minute timeout); transient failures
//! are the failover machinery's business, not membership's.

pub use apor_membership::MembershipView;
use apor_quorum::NodeId;
use std::collections::BTreeMap;

/// Coordinator-side membership state.
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// Member → last time we heard a join/keepalive from it.
    last_heard: BTreeMap<NodeId, f64>,
    version: u32,
    member_timeout_s: f64,
}

impl Coordinator {
    /// A coordinator that knows only itself.
    #[must_use]
    pub fn new(self_id: NodeId, now: f64, member_timeout_s: f64) -> Self {
        let mut last_heard = BTreeMap::new();
        last_heard.insert(self_id, now);
        Coordinator {
            last_heard,
            version: 1,
            member_timeout_s,
        }
    }

    /// Current view.
    #[must_use]
    pub fn view(&self) -> MembershipView {
        MembershipView::new(self.version, self.last_heard.keys().copied().collect())
    }

    /// Handle a join or keepalive. Returns `true` when the view changed
    /// (⇒ broadcast).
    pub fn on_join(&mut self, id: NodeId, now: f64) -> bool {
        let is_new = self.last_heard.insert(id, now).is_none();
        if is_new {
            self.version += 1;
        }
        is_new
    }

    /// Handle an explicit leave. Returns `true` when the view changed.
    pub fn on_leave(&mut self, id: NodeId) -> bool {
        let removed = self.last_heard.remove(&id).is_some();
        if removed {
            self.version += 1;
        }
        removed
    }

    /// Expire members not heard from within the timeout. Returns `true`
    /// when the view changed. The coordinator never expires itself
    /// (callers keep its own entry fresh).
    pub fn expire(&mut self, now: f64) -> bool {
        let before = self.last_heard.len();
        let timeout = self.member_timeout_s;
        self.last_heard
            .retain(|_, &mut heard| now - heard <= timeout);
        if self.last_heard.len() != before {
            self.version += 1;
            true
        } else {
            false
        }
    }

    /// Refresh the coordinator's own liveness entry.
    pub fn heartbeat_self(&mut self, self_id: NodeId, now: f64) {
        self.last_heard.insert(self_id, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_sorted_and_deduped() {
        let v = MembershipView::new(3, vec![NodeId(5), NodeId(1), NodeId(5), NodeId(9)]);
        assert_eq!(v.members, vec![NodeId(1), NodeId(5), NodeId(9)]);
        assert_eq!(v.index_of(NodeId(5)), Some(1));
        assert_eq!(v.id_of(2), Some(NodeId(9)));
        assert_eq!(v.index_of(NodeId(7)), None);
        assert!(v.contains(NodeId(1)));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn joins_bump_version_once() {
        let mut c = Coordinator::new(NodeId(0), 0.0, 1800.0);
        assert_eq!(c.view().version, 1);
        assert!(c.on_join(NodeId(4), 1.0));
        assert!(!c.on_join(NodeId(4), 2.0), "keepalive is not a change");
        assert_eq!(c.view().version, 2);
        assert_eq!(c.view().members, vec![NodeId(0), NodeId(4)]);
    }

    #[test]
    fn leave_and_expire() {
        let mut c = Coordinator::new(NodeId(0), 0.0, 100.0);
        c.on_join(NodeId(1), 0.0);
        c.on_join(NodeId(2), 10.0);
        assert!(c.on_leave(NodeId(1)));
        assert!(!c.on_leave(NodeId(1)));
        // At t=120 node 2 (heard at 10) exceeds the 100 s timeout; the
        // coordinator keeps itself alive with a heartbeat.
        c.heartbeat_self(NodeId(0), 120.0);
        assert!(c.expire(120.0), "node heard at t=10 should expire");
        let v = c.view();
        assert_eq!(v.members, vec![NodeId(0)]);
        assert!(!c.expire(121.0), "no further change");
    }

    #[test]
    fn identical_views_identical_grids() {
        use apor_quorum::Grid;
        let v1 = MembershipView::new(2, vec![NodeId(9), NodeId(3), NodeId(7), NodeId(1)]);
        let v2 = MembershipView::new(2, vec![NodeId(1), NodeId(3), NodeId(7), NodeId(9)]);
        assert_eq!(v1, v2);
        // The grid is derived from len() alone plus index order, so the
        // grids coincide member-for-member.
        let g1 = Grid::new(v1.len());
        let g2 = Grid::new(v2.len());
        assert_eq!(g1, g2);
        assert_eq!(v1.id_of(0), v2.id_of(0));
    }
}

//! The Babel-style route discipline (RFC 8966) over link-state rows:
//! per-destination feasibility distances, seqno-gated acceptance, and
//! explicit retraction — the machinery that makes k-hop detour splicing
//! loop-free under churn and stale rows.
//!
//! Every destination `d` originates its own row; the row carries `d`'s
//! sequence number. A node tracks, per destination, the smallest cost
//! it has ever acted on at the destination's current seqno — the
//! *feasibility distance* (fd), integer milliseconds like every cost in
//! the routing path, with the all-ones [`INFINITE_COST`] for
//! "unconstrained". Loop freedom is layered:
//!
//! 1. **Commit-or-drop** ([`select_detour`]): a node forwards along
//!    its single cheapest spliced candidate or drops — never a pricier
//!    fallback. With positive link costs over shared row state, the
//!    remaining total cost then strictly decreases hop over hop, so a
//!    chain can never revisit a node (a revisited node would need a
//!    candidate cheaper than its own minimum).
//! 2. **Feasibility** (the DUAL/Babel condition): where row state has
//!    diverged, the cheapest candidate is accepted only when the cost
//!    its first relay effectively advertises for the remaining path is
//!    **strictly** below the node's own fd at the destination's seqno
//!    (or carries a strictly newer seqno) — stale cheapness from
//!    before a failure cannot be acted on. Recovering a route that
//!    feasibility forbids requires the origin to bump its seqno (which
//!    it does on every retraction event), never a local override.
//!
//! Both arguments hold even if every relay re-decides per hop (the
//! model `tests/loop_freedom.rs` stress-walks). The overlay is
//! stricter still: an accepted splice is *source-routed* — the
//! committed path travels with the decision
//! (`QuorumRouter::route_decision` → `RouteDecision::Spliced`) and
//! relays forward without re-deciding, so a spliced path is loop-free
//! simply because [`LinkStateStore::k_hop_options`] never emits a
//! path that repeats a node.
//!
//! The table also owns the detour-layer telemetry: candidates rejected
//! by the discipline count as `routing/loops_detected` (each rejection
//! is a potential forwarding loop refused), explicit withdrawals count
//! as `routing/routes_retracted`, and accepted detours feed the
//! `routing/detour_hops` histogram.

use apor_linkstate::{seqno_newer, Detour, LinkStateStore, RowStore, INFINITE_COST};
use apor_telemetry::{Counter, Histogram, Telemetry};
use std::collections::BTreeMap;

/// Per-destination feasibility state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeasEntry {
    /// The destination-origin seqno this state is relative to.
    pub seqno: u16,
    /// Feasibility distance: the smallest cost acted on at `seqno`
    /// ([`INFINITE_COST`] = unconstrained).
    pub fd: u32,
    /// Set when the route was explicitly withdrawn: only a strictly
    /// newer seqno restores feasibility.
    pub retracted: bool,
}

/// Per-(source, destination) feasibility distances for one node, where
/// the *source* of a destination's reachability is the destination's
/// own row origin (it vouches for itself, like a Babel router
/// originating its prefix).
#[derive(Debug)]
pub struct FeasibilityTable {
    entries: BTreeMap<usize, FeasEntry>,
    loops_detected: Counter,
    routes_retracted: Counter,
    detour_hops: Histogram,
}

impl Default for FeasibilityTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FeasibilityTable {
    /// An empty table on the disabled telemetry registry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_telemetry(&Telemetry::disabled())
    }

    /// An empty table counting under component `"routing"` on a live
    /// registry.
    #[must_use]
    pub fn with_telemetry(t: &Telemetry) -> Self {
        FeasibilityTable {
            entries: BTreeMap::new(),
            loops_detected: t.counter("routing", "loops_detected"),
            routes_retracted: t.counter("routing", "routes_retracted"),
            detour_hops: t.histogram("routing", "detour_hops"),
        }
    }

    /// The feasibility state for `dst`, if any has been established.
    #[must_use]
    pub fn entry(&self, dst: usize) -> Option<FeasEntry> {
        self.entries.get(&dst).copied()
    }

    /// Is a route to `dst` advertised at (`seqno`, `cost`) feasible?
    /// No established state means unconstrained; a strictly newer seqno
    /// is always feasible; at the current seqno the advertised cost
    /// must be **strictly** below the feasibility distance (and the
    /// entry not retracted); an older seqno never is.
    #[must_use]
    pub fn is_feasible(&self, dst: usize, seqno: u16, cost: u32) -> bool {
        match self.entries.get(&dst) {
            None => true,
            Some(e) => {
                if seqno_newer(e.seqno, seqno) {
                    true
                } else if seqno == e.seqno {
                    !e.retracted && cost < e.fd
                } else {
                    false
                }
            }
        }
    }

    /// Record that this node acted on a route to `dst` costing `cost`
    /// at the destination's `seqno`: the fd ratchets down at one seqno
    /// and resets when the origin moves to a newer one. Older seqnos
    /// are ignored.
    pub fn advance(&mut self, dst: usize, seqno: u16, cost: u32) {
        let e = self.entries.entry(dst).or_insert(FeasEntry {
            seqno,
            fd: INFINITE_COST,
            retracted: false,
        });
        if seqno_newer(e.seqno, seqno) {
            *e = FeasEntry {
                seqno,
                fd: cost,
                retracted: false,
            };
        } else if seqno == e.seqno && !e.retracted {
            e.fd = e.fd.min(cost);
        } else if seqno == 0 && e.seqno == 0 && e.retracted {
            // Unversioned destinations (a row this node is not entitled
            // to hold never shows a seqno) have no bump to recover
            // through: a retraction there is *soft*, cleared by fresh
            // evidence the route works again — acting on it at `cost`.
            *e = FeasEntry {
                seqno: 0,
                fd: cost,
                retracted: false,
            };
        }
    }

    /// The origin of `dst`'s row announced `seqno`: a strictly newer
    /// one clears the fd constraint (and any retraction) — the Babel
    /// seqno-request escape hatch, closed by the origin's bump.
    pub fn note_seqno(&mut self, dst: usize, seqno: u16) {
        if let Some(e) = self.entries.get_mut(&dst) {
            if seqno_newer(e.seqno, seqno) {
                *e = FeasEntry {
                    seqno,
                    fd: INFINITE_COST,
                    retracted: false,
                };
            }
        }
    }

    /// Explicitly withdraw the route to `dst`, known to be at the
    /// destination-origin `seqno` (an established entry keeps its own,
    /// possibly newer, seqno). Returns `true` (and counts
    /// `routing/routes_retracted`) on the transition into the retracted
    /// state; re-retracting is a no-op.
    pub fn retract(&mut self, dst: usize, seqno: u16) -> bool {
        let e = self.entries.entry(dst).or_insert(FeasEntry {
            seqno,
            fd: INFINITE_COST,
            retracted: false,
        });
        if e.retracted {
            return false;
        }
        e.retracted = true;
        self.routes_retracted.inc();
        true
    }

    /// The seqno that would make `dst` feasible again — what a Babel
    /// seqno request would ask the origin for. In this overlay origins
    /// bump unprompted on every retraction event, so the request is
    /// implicit; the value is still useful to tests and diagnostics.
    #[must_use]
    pub fn request_seqno(&self, dst: usize) -> u16 {
        let next = self
            .entries
            .get(&dst)
            .map_or(1, |e| e.seqno.wrapping_add(1));
        if next == 0 {
            1
        } else {
            next
        }
    }

    /// Drop all feasibility state (view change: indices are remapped,
    /// so every fd is about a destination that may no longer exist).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Detour candidates rejected by the discipline so far — each one a
    /// potential forwarding loop refused.
    #[must_use]
    pub fn loops_detected(&self) -> u64 {
        self.loops_detected.get()
    }

    /// Explicit route withdrawals recorded so far.
    #[must_use]
    pub fn routes_retracted(&self) -> u64 {
        self.routes_retracted.get()
    }

    fn count_loop(&self) {
        self.loops_detected.inc();
    }

    fn observe_detour(&self, hops: usize) {
        self.detour_hops.observe(hops as u64);
    }
}

/// Pick the *cheapest* detour `me → … → dst` through at most
/// `max_hops` intermediate relays, or nothing: candidates come from
/// [`LinkStateStore::k_hop_options`] (cost-sorted, simple paths over
/// fresh rows only), and only the single cheapest one is considered.
/// It is admitted if its first relay's advertised remaining cost is
/// strictly feasible under `feas` and the relay's row does not
/// explicitly retract its next edge; otherwise the packet is dropped —
/// **never** demoted to a pricier candidate.
///
/// Commit-or-drop is what keeps hop-by-hop forwarding loop-free: with
/// every node forwarding along its cheapest spliced path (positive
/// link costs, shared row state), the remaining total cost strictly
/// decreases at each hop — a revisited node would have to hold a
/// candidate cheaper than its own minimum. Falling through to the
/// second-cheapest candidate is exactly how transient loops form: the
/// next relay, whose cheapest path may lead straight back, has no way
/// to know this node already passed over it. Where row state *has*
/// diverged (stale rows, delayed frames), the seqno/fd discipline
/// bounds the damage: a node never acts on a remainder at or above the
/// best cost it has itself acted on at the destination's current
/// seqno, so stale cheapness cannot re-enter. A rejected candidate
/// counts as a detected loop; the accepted one feeds the detour-hops
/// histogram. Recovery from a drop is the origin's next seqno bump —
/// one routing tick — not a worse route now.
pub fn select_detour(
    store: &RowStore,
    feas: &FeasibilityTable,
    me: usize,
    dst: usize,
    max_hops: usize,
    now: f64,
    max_age: f64,
) -> Option<Detour> {
    let seqno = store.row_seqno(dst);
    let detour = store
        .k_hop_options(me, dst, max_hops, now, max_age)
        .into_iter()
        .next()?;
    if store.row_retracts(detour.path[1], detour.path[2])
        || !feas.is_feasible(dst, seqno, detour.advertised)
    {
        feas.count_loop();
        return None;
    }
    feas.observe_detour(detour.path.len() - 1);
    Some(detour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_linkstate::{LaneRow, LinkEntry};
    use std::sync::Arc;

    #[test]
    fn feasibility_is_strict_at_one_seqno() {
        let mut f = FeasibilityTable::new();
        assert!(f.is_feasible(3, 1, 500), "no state, no constraint");
        f.advance(3, 1, 100);
        assert!(f.is_feasible(3, 1, 99));
        assert!(!f.is_feasible(3, 1, 100), "equality is not feasible");
        assert!(!f.is_feasible(3, 1, 101));
        // A strictly newer seqno is always feasible; an older one never.
        assert!(f.is_feasible(3, 2, 500));
        assert!(!f.is_feasible(3, 0, 1));
        // fd ratchets down, never up.
        f.advance(3, 1, 40);
        f.advance(3, 1, 80);
        assert_eq!(f.entry(3).unwrap().fd, 40);
        // The origin bumping its seqno resets the constraint.
        f.note_seqno(3, 2);
        assert!(f.is_feasible(3, 2, 500));
        assert_eq!(f.entry(3).unwrap().fd, INFINITE_COST);
    }

    #[test]
    fn retraction_requires_a_newer_seqno_to_recover() {
        let mut f = FeasibilityTable::new();
        f.advance(7, 5, 100);
        assert!(f.retract(7, 5));
        assert!(!f.retract(7, 5), "re-retracting is a no-op");
        assert_eq!(f.routes_retracted(), 1);
        assert!(!f.is_feasible(7, 5, 1), "retracted at this seqno");
        assert_eq!(f.request_seqno(7), 6);
        assert!(f.is_feasible(7, 6, 1), "the requested seqno recovers");
        f.note_seqno(7, 6);
        assert!(!f.entry(7).unwrap().retracted);
    }

    #[test]
    fn unversioned_retraction_is_soft() {
        // A destination whose row this node never holds stays at seqno
        // 0 forever — no bump can arrive, so the retraction must yield
        // to fresh evidence (a new recommendation being acted on).
        let mut f = FeasibilityTable::new();
        f.advance(4, 0, 80);
        assert!(f.retract(4, 0));
        assert!(!f.is_feasible(4, 0, 1));
        f.advance(4, 0, 120);
        assert!(f.is_feasible(4, 0, 119), "soft retraction cleared");
        assert_eq!(f.entry(4).unwrap().fd, 120, "fd restarts at the evidence");
        // Versioned retractions stay hard: only a newer seqno recovers.
        f.note_seqno(4, 3);
        f.advance(4, 3, 50);
        assert!(f.retract(4, 3));
        f.advance(4, 3, 60);
        assert!(!f.is_feasible(4, 3, 1), "versioned retraction holds");
    }

    #[test]
    fn select_detour_rejects_infeasible_candidates_as_loops() {
        // 0 → 1 → 2 with row 1 advertising 2 at cost 10.
        let n = 3;
        let mut s = RowStore::new(n);
        let relay_row = [
            LinkEntry::live(10, 0.0),
            LinkEntry::live(0, 0.0),
            LinkEntry::live(10, 0.0),
        ];
        let own_row = [
            LinkEntry::live(0, 0.0),
            LinkEntry::live(10, 0.0),
            LinkEntry::dead(),
        ];
        s.put_row(0, Arc::new(LaneRow::from_dense(&own_row)), 1.0);
        s.put_row(1, Arc::new(LaneRow::from_dense(&relay_row)), 1.0);
        let mut f = FeasibilityTable::new();
        let d = select_detour(&s, &f, 0, 2, 4, 1.5, 45.0).expect("unconstrained detour");
        assert_eq!(d.path, vec![0, 1, 2]);
        assert_eq!((d.cost, d.advertised), (20, 10));
        // Once our own fd to 2 is at or below the advertised cost, the
        // same candidate is a potential loop and must be refused.
        f.advance(2, 0, 10);
        assert!(select_detour(&s, &f, 0, 2, 4, 1.5, 45.0).is_none());
        assert_eq!(f.loops_detected(), 1);
        // An explicit retraction by the relay also kills the splice.
        let f = FeasibilityTable::new();
        let retracting = LaneRow::from_dense(&relay_row).with_version(2, &[2]);
        assert!(s.put_row(1, Arc::new(retracting), 2.0));
        assert!(select_detour(&s, &f, 0, 2, 4, 2.5, 45.0).is_none());
        assert_eq!(f.loops_detected(), 1);
    }
}

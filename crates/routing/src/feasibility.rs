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
//! The rules here count nothing; they say what to count. The router
//! that keeps the records counts candidates [`select_detour`] refuses
//! as `routing/loops_detected` (each one a potential forwarding loop
//! refused), transitions [`Feasibility::retract`] reports as
//! `routing/routes_retracted`, and admitted detours into the
//! `routing/detour_hops` histogram.

use apor_linkstate::{seqno_newer, Detour, LinkStateStore, RowStore, INFINITE_COST};
use apor_quorum::NodeIdx;

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

impl FeasEntry {
    /// No constraint yet at `seqno`.
    fn unconstrained(seqno: u16) -> Self {
        FeasEntry {
            seqno,
            fd: INFINITE_COST,
            retracted: false,
        }
    }
}

/// One destination's feasibility record, where the *source* of the
/// destination's reachability is its own row origin (it vouches for
/// itself, like a Babel router originating its prefix): nothing until
/// this node first acts on or withdraws a route to it, then one
/// [`FeasEntry`]. A router keeps one per destination, in the slot
/// beside the route it constrains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Feasibility(pub Option<FeasEntry>);

impl Feasibility {
    /// Is a route advertised at (`seqno`, `cost`) feasible? No
    /// established state means unconstrained; a strictly newer seqno is
    /// always feasible; at the current seqno the advertised cost must be
    /// **strictly** below the feasibility distance (and the entry not
    /// retracted); an older seqno never is.
    #[must_use]
    pub fn is_feasible(&self, seqno: u16, cost: u32) -> bool {
        match self.0 {
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

    /// Record that this node acted on a route costing `cost` at the
    /// destination's `seqno`: the fd ratchets down at one seqno and
    /// resets when the origin moves to a newer one. Older seqnos are
    /// ignored.
    pub fn advance(&mut self, seqno: u16, cost: u32) {
        let e = self.0.get_or_insert(FeasEntry::unconstrained(seqno));
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

    /// The destination's origin announced `seqno`: a strictly newer one
    /// clears the fd constraint (and any retraction) — the Babel
    /// seqno-request escape hatch, closed by the origin's bump.
    pub fn note_seqno(&mut self, seqno: u16) {
        if let Some(e) = &mut self.0 {
            if seqno_newer(e.seqno, seqno) {
                *e = FeasEntry::unconstrained(seqno);
            }
        }
    }

    /// Explicitly withdraw the route, known to be at the
    /// destination-origin `seqno` (an established entry keeps its own,
    /// possibly newer, seqno). Returns `true` on the transition into the
    /// retracted state — what `routing/routes_retracted` counts;
    /// re-retracting is a no-op.
    pub fn retract(&mut self, seqno: u16) -> bool {
        let e = self.0.get_or_insert(FeasEntry::unconstrained(seqno));
        if e.retracted {
            return false;
        }
        e.retracted = true;
        true
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
/// seqno, so stale cheapness cannot re-enter. Recovery from a drop is
/// the origin's next seqno bump — one routing tick — not a worse route
/// now.
///
/// `None`: no candidate at all. `Some(Err(d))`: the cheapest candidate
/// `d`, refused — a detected loop. `Some(Ok(d))`: `d`, admitted.
pub fn select_detour(
    store: &RowStore,
    feas: &Feasibility,
    me: NodeIdx,
    dst: NodeIdx,
    max_hops: usize,
    now: f64,
    max_age: f64,
) -> Option<Result<Detour, Detour>> {
    let detour = store
        .k_hop_options(me, dst, max_hops, now, max_age)
        .into_iter()
        .next()?;
    if store.row_retracts(detour.path[1], detour.path[2])
        || !feas.is_feasible(store.row_seqno(dst), detour.advertised)
    {
        return Some(Err(detour));
    }
    Some(Ok(detour))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_linkstate::{LaneRow, LinkEntry};
    use std::sync::Arc;

    #[test]
    fn feasibility_is_strict_at_one_seqno() {
        let mut f = Feasibility::default();
        assert!(f.is_feasible(1, 500), "no state, no constraint");
        f.advance(1, 100);
        assert!(f.is_feasible(1, 99));
        assert!(!f.is_feasible(1, 100), "equality is not feasible");
        assert!(!f.is_feasible(1, 101));
        // A strictly newer seqno is always feasible; an older one never.
        assert!(f.is_feasible(2, 500));
        assert!(!f.is_feasible(0, 1));
        // fd ratchets down, never up.
        f.advance(1, 40);
        f.advance(1, 80);
        assert_eq!(f.0.unwrap().fd, 40);
        // The origin bumping its seqno resets the constraint.
        f.note_seqno(2);
        assert!(f.is_feasible(2, 500));
        assert_eq!(f.0.unwrap().fd, INFINITE_COST);
    }

    #[test]
    fn retraction_requires_a_newer_seqno_to_recover() {
        let mut f = Feasibility::default();
        f.advance(5, 100);
        assert!(f.retract(5));
        assert!(!f.retract(5), "re-retracting is a no-op");
        assert!(!f.is_feasible(5, 1), "retracted at this seqno");
        assert!(f.is_feasible(6, 1), "the next seqno recovers");
        f.note_seqno(6);
        assert!(!f.0.unwrap().retracted);
    }

    #[test]
    fn unversioned_retraction_is_soft() {
        // A destination whose row this node never holds stays at seqno
        // 0 forever — no bump can arrive, so the retraction must yield
        // to fresh evidence (a new recommendation being acted on).
        let mut f = Feasibility::default();
        f.advance(0, 80);
        assert!(f.retract(0));
        assert!(!f.is_feasible(0, 1));
        f.advance(0, 120);
        assert!(f.is_feasible(0, 119), "soft retraction cleared");
        assert_eq!(f.0.unwrap().fd, 120, "fd restarts at the evidence");
        // Versioned retractions stay hard: only a newer seqno recovers.
        f.note_seqno(3);
        f.advance(3, 50);
        assert!(f.retract(3));
        f.advance(3, 60);
        assert!(!f.is_feasible(3, 1), "versioned retraction holds");
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
        let ix = |i| NodeIdx::new(i, n).unwrap();
        s.put_row(ix(0), Arc::new(LaneRow::from_dense(&own_row)), 1.0);
        s.put_row(ix(1), Arc::new(LaneRow::from_dense(&relay_row)), 1.0);
        let mut f = Feasibility::default();
        let d = select_detour(&s, &f, ix(0), ix(2), 4, 1.5, 45.0)
            .expect("a candidate")
            .expect("unconstrained detour");
        assert_eq!(d.path, vec![ix(0), ix(1), ix(2)]);
        assert_eq!((d.cost, d.advertised), (20, 10));
        // Once our own fd to 2 is at or below the advertised cost, the
        // same candidate is a potential loop and must be refused.
        f.advance(0, 10);
        let refused = select_detour(&s, &f, ix(0), ix(2), 4, 1.5, 45.0).expect("a candidate");
        assert_eq!(refused.expect_err("infeasible").path, d.path);
        // An explicit retraction by the relay also kills the splice.
        let f = Feasibility::default();
        let retracting = LaneRow::from_dense(&relay_row).with_version(2, &[ix(2)]);
        assert!(s.put_row(ix(1), Arc::new(retracting), 2.0));
        assert!(matches!(
            select_detour(&s, &f, ix(0), ix(2), 4, 2.5, 45.0),
            Some(Err(_))
        ));
    }
}

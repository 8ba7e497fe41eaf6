//! The view-agreement ledger: from gossip events to agreed, versioned
//! membership views.
//!
//! ## The invariant
//!
//! The overlay's quorum grid is derived from the *sorted member list* of
//! the current view, and routing messages are tagged with the *view
//! version*; two nodes that exchange grid-indexed state while holding
//! the same version must hold the same list. A centralized coordinator
//! gets this for free by numbering its broadcasts. A gossip protocol
//! has no single sequencer, so this module makes both the list and the
//! version **pure functions of converged state**:
//!
//! * Per member, the ledger keeps `(incarnation, dead)` — a
//!   join-semilattice ordered by incarnation first, then `dead > alive`.
//!   Applying events in any order, with any duplication, converges to
//!   the same per-member state (eventual-consistency workhorse).
//! * The **version** is the sum over members of `2·incarnation + dead + 1`.
//!   Every lattice step strictly increases one summand (or adds one), so
//!   the version is monotone along every node's local history, and equal
//!   ledgers give equal versions — no counter exchange needed.
//!
//! Transient *suspicion* never enters the ledger: only confirmed events
//! (join, refutation, confirmed-faulty, leave) move views, which keeps
//! the grid stable under probe noise.
//!
//! ## What is maintained incrementally
//!
//! The SWIM machine asks the ledger for its version on every packet and
//! every timer (is a view publication pending?), for its live count on
//! every suspicion, and for its content fingerprint on every
//! anti-entropy digest — tens of thousands of reads per node against a
//! few dozen records that ever move. So the ledger keeps those three
//! *summaries* beside the records instead of walking the records on
//! each read:
//!
//! * the version as a running `u64` sum of the per-member weights,
//!   clamped to `u32::MAX` on read — bit-equal to a saturating `u32`
//!   fold over the records, because every summand is non-negative;
//! * the live count as a counter;
//! * the fingerprint computed on the first read after a record moved
//!   and remembered until the next move.
//!
//! All three change only inside [`ViewLedger::apply`], the one place a
//! record can move. They are functions of the records, so equality
//! ignores them (two ledgers are equal when they hold the same records,
//! whether or not either has been asked for its fingerprint yet) and
//! they never enter a serialized form.
//!
//! The records themselves are one vector sorted by id. A lookup tries
//! slot `id` first — where the record of `id` sits while the ledger
//! knows every id below it, as it does in every `0..n` deployment — and
//! falls back to a binary search; there is no table indexed by raw id.

use apor_quorum::NodeId;
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Converged per-member state: the lattice point `(incarnation, dead)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberState {
    /// The member's self-asserted incarnation (bumped to refute
    /// suspicion).
    pub incarnation: u32,
    /// Confirmed faulty or departed at this incarnation.
    pub dead: bool,
}

impl MemberState {
    /// Does `(incarnation, dead)` supersede `self` in the lattice?
    #[must_use]
    pub fn superseded_by(self, incarnation: u32, dead: bool) -> bool {
        incarnation > self.incarnation || (incarnation == self.incarnation && dead && !self.dead)
    }

    /// This state's contribution to the view version, scaled by the
    /// member's salt so that *different* concurrent events almost
    /// never sum to the same version (see [`ViewLedger::version`]).
    fn version_weight(self, id: NodeId) -> u32 {
        (2 * self.incarnation + u32::from(self.dead) + 1).saturating_mul(version_salt(id))
    }
}

/// A deterministic per-member multiplier in `1..=16`, so two ledgers
/// that diverge by events about *different* members disagree on the
/// version with high probability (equal-sum collisions need
/// `salt(a)·Δa = salt(b)·Δb`).
fn version_salt(id: NodeId) -> u32 {
    let mut z = u32::from(id.0).wrapping_mul(0x9E37_79B9);
    z ^= z >> 16;
    1 + (z & 0xF)
}

/// The grow-only membership ledger shared (by convergence, not by
/// consensus) across all nodes.
#[derive(Debug, Clone, Default)]
pub struct ViewLedger {
    /// One record per member ever heard of, strictly ascending by id.
    records: Vec<(NodeId, MemberState)>,
    /// Sum of [`MemberState::version_weight`] over the records. At most
    /// 2¹⁶ members of weight below 2³² each, so a `u64` never wraps.
    version_sum: u64,
    /// Number of records with `dead == false`.
    live: usize,
    /// The content fingerprint of the records as they are now; `None`
    /// since a record last moved.
    fingerprint: Cell<Option<u32>>,
}

/// Equality is "same records": the summaries are functions of them.
impl PartialEq for ViewLedger {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl Eq for ViewLedger {}

impl ViewLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        ViewLedger::default()
    }

    /// A ledger bootstrapped with `members` all live at incarnation 0 —
    /// every node bootstrapped with the same set derives the identical
    /// initial view.
    #[must_use]
    pub fn bootstrap(members: &[NodeId]) -> Self {
        let mut ledger = ViewLedger::new();
        ledger.records.reserve_exact(members.len());
        for &m in members {
            ledger.apply(m, 0, false);
        }
        ledger
    }

    /// Where the record of `id` is (`Ok`) or would be inserted (`Err`):
    /// slot `id` when that is where it sits, a binary search otherwise.
    fn find(&self, id: NodeId) -> Result<usize, usize> {
        if self.records.get(id.index()).is_some_and(|r| r.0 == id) {
            return Ok(id.index());
        }
        self.records.binary_search_by_key(&id, |r| r.0)
    }

    /// Apply one confirmed event. Returns `true` when the ledger moved
    /// (⇒ the event is news worth re-gossiping). The only place a
    /// record changes, and so the only place the summaries do.
    pub fn apply(&mut self, id: NodeId, incarnation: u32, dead: bool) -> bool {
        let new = MemberState { incarnation, dead };
        match self.find(id) {
            Ok(i) => {
                let old = self.records[i].1;
                if !old.superseded_by(incarnation, dead) {
                    return false;
                }
                self.version_sum -= u64::from(old.version_weight(id));
                self.live -= usize::from(!old.dead);
                self.records[i].1 = new;
            }
            Err(i) => self.records.insert(i, (id, new)),
        }
        self.version_sum += u64::from(new.version_weight(id));
        self.live += usize::from(!dead);
        self.fingerprint.set(None);
        true
    }

    /// The member's converged state, if ever heard of.
    #[must_use]
    pub fn state(&self, id: NodeId) -> Option<MemberState> {
        self.find(id).ok().map(|i| self.records[i].1)
    }

    /// The member's current incarnation (0 when unknown).
    #[must_use]
    pub fn incarnation(&self, id: NodeId) -> u32 {
        self.state(id).map_or(0, |s| s.incarnation)
    }

    /// Is `id` currently a live member?
    #[must_use]
    pub fn is_live(&self, id: NodeId) -> bool {
        self.state(id).is_some_and(|s| !s.dead)
    }

    /// Number of live members.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// The live members, ascending — the quorum grid's order — without
    /// materializing the list.
    pub fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.records.iter().filter(|r| !r.1.dead).map(|r| r.0)
    }

    /// The live members, sorted ascending — the quorum grid's order.
    #[must_use]
    pub fn members(&self) -> Vec<NodeId> {
        let mut members = Vec::with_capacity(self.live);
        members.extend(self.live_ids());
        members
    }

    /// The view version: monotone along any application order, equal
    /// for equal ledgers.
    ///
    /// ## The transient-collision window
    ///
    /// No monotone 32-bit scalar can injectively name every member
    /// list, so two ledgers that have diverged by *different*
    /// concurrent events could in principle share a version while
    /// holding different lists — a transient violation of the
    /// identical-views ⇒ identical-grids invariant, healed at the
    /// next gossip convergence (the union of the events is a strictly
    /// higher version, which rebuilds the grid). The per-member salt
    /// in `version_salt` makes such collisions require
    /// `salt(a)·Δa = salt(b)·Δb` rather than the common symmetric
    /// case `Δa = Δb`; eliminating the window entirely needs a
    /// content digest in the routing wire (ROADMAP follow-on).
    #[must_use]
    pub fn version(&self) -> u32 {
        u32::try_from(self.version_sum).unwrap_or(u32::MAX)
    }

    /// Number of members ever heard of (live + dead).
    #[must_use]
    pub fn known(&self) -> usize {
        self.records.len()
    }

    /// A 32-bit content fingerprint: FNV-1a over the sorted records,
    /// folded from 64 bits. Equal ledgers give equal fingerprints;
    /// *different* ledgers collide with probability ≈ 2⁻³², not the
    /// percent-level odds of the salted [`version`](Self::version) sum
    /// — which is why anti-entropy digests compare this, never the
    /// version. (Unlike the version it is not monotone; it only
    /// answers "same or different?".)
    #[must_use]
    pub fn fingerprint(&self) -> u32 {
        if let Some(known) = self.fingerprint.get() {
            return known;
        }
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        };
        for &(id, s) in &self.records {
            for b in id.0.to_be_bytes() {
                eat(b);
            }
            for b in s.incarnation.to_be_bytes() {
                eat(b);
            }
            eat(u8::from(s.dead));
        }
        let folded = (h ^ (h >> 32)) as u32;
        self.fingerprint.set(Some(folded));
        folded
    }

    /// Iterate over all records, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, MemberState)> + '_ {
        self.records.iter().copied()
    }
}

/// An installed membership view: version + sorted members. The SWIM
/// plane publishes one from its ledger, the overlay's centralized
/// coordinator builds one from its member set, and the overlay installs
/// either as it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Monotonic version.
    pub version: u32,
    /// Members sorted ascending by id; grid index = position here.
    pub members: Vec<NodeId>,
}

impl MembershipView {
    /// Build a view (sorts and deduplicates the member list).
    #[must_use]
    pub fn new(version: u32, mut members: Vec<NodeId>) -> Self {
        members.sort_unstable();
        members.dedup();
        MembershipView { version, members }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the view has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The grid index of `id` in this view.
    ///
    /// While no member below `id` has ever departed, `id` sits at
    /// position `id` — every id of a `0..n` view, and the prefix under
    /// the first gap afterwards — so that slot is tried before the
    /// binary search.
    #[must_use]
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        if self.members.get(id.index()) == Some(&id) {
            return Some(id.index());
        }
        self.members.binary_search(&id).ok()
    }

    /// The member at grid index `idx`.
    #[must_use]
    pub fn id_of(&self, idx: usize) -> Option<NodeId> {
        self.members.get(idx).copied()
    }

    /// Does the view contain `id`?
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.index_of(id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The summaries of `ledger`, each recomputed from its records the
    /// way the ledger did before it kept them: `(version, live count,
    /// fingerprint, members, known)`.
    fn recomputed(ledger: &ViewLedger) -> (u32, usize, u32, Vec<NodeId>, usize) {
        let version = ledger
            .iter()
            .map(|(id, s)| s.version_weight(id))
            .fold(0u32, u32::saturating_add);
        let live = ledger.iter().filter(|(_, s)| !s.dead).count();
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for (id, s) in ledger.iter() {
            let bytes =
                id.0.to_be_bytes()
                    .into_iter()
                    .chain(s.incarnation.to_be_bytes())
                    .chain([u8::from(s.dead)]);
            for b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let members = ledger
            .iter()
            .filter(|(_, s)| !s.dead)
            .map(|(id, _)| id)
            .collect();
        (
            version,
            live,
            (h ^ (h >> 32)) as u32,
            members,
            ledger.iter().count(),
        )
    }

    fn summaries(ledger: &ViewLedger) -> (u32, usize, u32, Vec<NodeId>, usize) {
        (
            ledger.version(),
            ledger.live_count(),
            ledger.fingerprint(),
            ledger.members(),
            ledger.known(),
        )
    }

    /// Events over a small id space with gaps (so both the identity
    /// slot and the binary search answer lookups): joins, deaths,
    /// resurrections, duplicates and stale news fall out of the small
    /// incarnation range; the large one puts single weights near and
    /// past `u32::MAX`, so the version sum saturates.
    fn arb_events() -> impl Strategy<Value = Vec<(NodeId, u32, bool)>> {
        let incarnation = (any::<bool>(), 0u32..4).prop_map(|(huge, small)| {
            if huge {
                u32::MAX / 32 - 2 + small
            } else {
                small
            }
        });
        prop::collection::vec(
            (0u16..24, incarnation, any::<bool>())
                .prop_map(|(id, incarnation, dead)| (NodeId(id * 3 % 40), incarnation, dead)),
            0..60,
        )
    }

    proptest! {
        /// The summaries are the records: after every step of a random
        /// event sequence — with the fingerprint read at some steps and
        /// left stale at others — version, live count, fingerprint,
        /// member list and record count equal their recomputation from
        /// `iter()`, and `apply` reports a move exactly when a record
        /// changed.
        #[test]
        fn summaries_equal_a_recomputation_after_every_step(
            events in arb_events(),
            read_fingerprint in prop::collection::vec(any::<bool>(), 60),
        ) {
            let mut ledger = ViewLedger::new();
            prop_assert_eq!(summaries(&ledger), recomputed(&ledger));
            for (step, &(id, incarnation, dead)) in events.iter().enumerate() {
                let before: Vec<_> = ledger.iter().collect();
                let moved = ledger.apply(id, incarnation, dead);
                prop_assert_eq!(moved, before != ledger.iter().collect::<Vec<_>>());
                prop_assert!(ledger.iter().map(|(id, _)| id).is_sorted());
                if read_fingerprint[step] {
                    prop_assert_eq!(summaries(&ledger), recomputed(&ledger));
                } else {
                    prop_assert_eq!(ledger.version(), recomputed(&ledger).0);
                    prop_assert_eq!(ledger.live_count(), recomputed(&ledger).1);
                }
                prop_assert_eq!(ledger.state(id).map(|s| s.incarnation >= incarnation), Some(true));
            }
            prop_assert_eq!(summaries(&ledger), recomputed(&ledger));
            // A clone carries the summaries with the records.
            prop_assert_eq!(summaries(&ledger.clone()), recomputed(&ledger));
        }

        /// The same events in another order give an equal ledger with
        /// equal summaries, whether or not either side has been asked
        /// for its fingerprint; `bootstrap` is the same applies.
        #[test]
        fn order_and_bootstrap_do_not_show_in_the_summaries(
            events in arb_events(),
            members in prop::collection::vec(0u16..40, 0..20),
        ) {
            let mut forward = ViewLedger::new();
            for &(id, incarnation, dead) in &events {
                forward.apply(id, incarnation, dead);
            }
            let _ = forward.fingerprint();
            let mut backward = ViewLedger::new();
            for &(id, incarnation, dead) in events.iter().rev() {
                backward.apply(id, incarnation, dead);
            }
            prop_assert_eq!(&forward, &backward);
            prop_assert_eq!(summaries(&forward), summaries(&backward));

            let members: Vec<NodeId> = members.into_iter().map(NodeId).collect();
            let booted = ViewLedger::bootstrap(&members);
            let mut applied = ViewLedger::new();
            for &m in &members {
                applied.apply(m, 0, false);
            }
            prop_assert_eq!(&booted, &applied);
            prop_assert_eq!(summaries(&booted), recomputed(&applied));
        }
    }

    #[test]
    fn apply_is_order_insensitive_and_idempotent() {
        let events = [
            (NodeId(3), 0, false),
            (NodeId(5), 0, false),
            (NodeId(3), 0, true),
            (NodeId(3), 1, false),
            (NodeId(9), 2, true),
        ];
        let mut forward = ViewLedger::new();
        for &(id, inc, dead) in &events {
            forward.apply(id, inc, dead);
            forward.apply(id, inc, dead); // duplicate delivery
        }
        let mut backward = ViewLedger::new();
        for &(id, inc, dead) in events.iter().rev() {
            backward.apply(id, inc, dead);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.version(), backward.version());
        assert_eq!(forward.members(), vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn version_is_monotone() {
        let mut ledger = ViewLedger::bootstrap(&[NodeId(1), NodeId(2)]);
        let mut last = ledger.version();
        let events = [
            (NodeId(7), 0, false), // join
            (NodeId(2), 0, true),  // confirmed faulty
            (NodeId(2), 1, false), // rejoin at next incarnation
            (NodeId(1), 3, false), // refutations skipped ahead
            (NodeId(1), 3, true),  // then confirmed dead
        ];
        for &(id, inc, dead) in &events {
            assert!(ledger.apply(id, inc, dead));
            let v = ledger.version();
            assert!(v > last, "version must strictly increase, {v} vs {last}");
            last = v;
        }
        // Stale news moves nothing.
        assert!(!ledger.apply(NodeId(2), 0, true));
        assert_eq!(ledger.version(), last);
    }

    #[test]
    fn dead_beats_alive_within_incarnation_only() {
        let mut ledger = ViewLedger::new();
        ledger.apply(NodeId(4), 1, true);
        assert!(
            !ledger.apply(NodeId(4), 1, false),
            "alive(1) loses to dead(1)"
        );
        assert!(!ledger.is_live(NodeId(4)));
        assert!(ledger.apply(NodeId(4), 2, false), "alive(2) resurrects");
        assert!(ledger.is_live(NodeId(4)));
    }

    #[test]
    fn fingerprint_separates_what_the_version_sum_conflates() {
        // Two ledgers diverged by different events can share a version
        // (the salted sum has percent-level collisions); the content
        // fingerprint must still tell them apart. Construct a real sum
        // collision: two dead-flips whose salts are equal.
        let ids: Vec<NodeId> = (0..200).map(NodeId).collect();
        let (a_id, b_id) = {
            let mut found = None;
            'outer: for &a in &ids {
                for &b in &ids {
                    if a != b {
                        let base = ViewLedger::bootstrap(&[a, b]);
                        let mut da = base.clone();
                        da.apply(a, 0, true);
                        let mut db = base.clone();
                        db.apply(b, 0, true);
                        if da.version() == db.version() {
                            found = Some((a, b));
                            break 'outer;
                        }
                    }
                }
            }
            found.expect("16 salt values over 200 ids must collide")
        };
        let base = ViewLedger::bootstrap(&[a_id, b_id]);
        let mut da = base.clone();
        da.apply(a_id, 0, true);
        let mut db = base.clone();
        db.apply(b_id, 0, true);
        assert_eq!(da.version(), db.version(), "constructed version collision");
        assert_ne!(da, db);
        assert_ne!(
            da.fingerprint(),
            db.fingerprint(),
            "the content fingerprint must separate diverged ledgers"
        );
        // Equal ledgers always agree.
        assert_eq!(
            base.fingerprint(),
            ViewLedger::bootstrap(&[b_id, a_id]).fingerprint()
        );
    }

    #[test]
    fn bootstrap_views_identical() {
        let a = ViewLedger::bootstrap(&[NodeId(9), NodeId(1), NodeId(4)]);
        let b = ViewLedger::bootstrap(&[NodeId(1), NodeId(4), NodeId(9)]);
        assert_eq!(a.version(), b.version());
        assert_eq!(a.members(), b.members());
        assert_eq!(a.members(), vec![NodeId(1), NodeId(4), NodeId(9)]);
    }
}

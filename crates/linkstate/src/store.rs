//! The link-state row store and the round-two kernel.
//!
//! The paper's headline result is that quorum-grid rendezvous cuts
//! per-node state and traffic from `O(n²)` to `O(n√n)`: a quorum node
//! receives link-state rows only from its `~2√n` rendezvous clients, so
//! there is no reason for it to *allocate* an `n × n` matrix. This
//! module makes storage honour that bound:
//!
//! * [`RowStore`] — a sparse indexed map `origin → (receipt time, row)`
//!   holding exactly the rows a node's role entitles it to: its own
//!   row plus its rendezvous clients' rows. Each held row is a
//!   [`LaneRow`]: two parallel contiguous lanes (`dst`, `latency_ms`)
//!   holding only the *live* entries, ascending by destination, in the
//!   wire's own fixed-point quantization — 4 bytes per entry, or 2 when
//!   the row is live to every destination and its `dst` lane is the
//!   shared identity lane. The entry's liveness/loss byte is not held:
//!   no route reads it, so it rides the frame
//!   ([`LinkStateMsg::liveness_loss`](crate::LinkStateMsg::liveness_loss))
//!   and is dropped with it. A node probing `O(√n)`
//!   targets therefore stores `O(√n)` entries per row and `O(n)`
//!   overall, far below even the paper's `O(n√n)` wire bound. An optional row *entitlement* is enforced
//!   on insert: a fresh row beyond it is refused and counted, so
//!   neither a protocol bug nor a peer can re-grow `O(n)` rows and
//!   silently reintroduce the quadratic table.
//! * [`LinkStateStore`] — the trait [`RowStore`] implements, and its
//!   only implementor. The required methods are pure storage
//!   (put/get rows); the **round-two kernel**
//!   ([`round_two`](LinkStateStore::round_two)) and the scavenging
//!   queries ([`one_hop_options`](LinkStateStore::one_hop_options),
//!   [`k_hop_options`](LinkStateStore::k_hop_options),
//!   [`anyone_reaches`](LinkStateStore::anyone_reaches)) are written as
//!   provided methods over them. It is a trait, with one implementor,
//!   because the end-to-end benchmark package imports it by name (the
//!   full-mesh baseline keeps a private matrix in `apor-routing` and
//!   does not use it); folding it into [`RowStore`] waits for a
//!   benchmark change.
//! * [`RowRef`] — a borrowed view of one row's lanes. There is one row
//!   layout, so it is a plain `Copy` struct. The round-two kernel is
//!   written over it and is **integer-only**, as is every cost in the
//!   routing path: the latency lanes are already integer milliseconds
//!   (the wire carries nothing finer), so a path cost is a `u32` add of
//!   two `u16` legs with [`INFINITE_COST`] (all ones) as the sentinel.
//! * [`RoundTwo`] — the one round-two kernel, a whole tick at a time
//!   ([`round_two`](LinkStateStore::round_two)): every row resolved and
//!   freshness-checked once, each *unordered* pair computed once by
//!   scattering one row into a dense lane and gathering over the other's
//!   live entries — or, when the two rows list the same destinations, by
//!   an elementwise reduction over their latency lanes (in saturating
//!   `u16`, redone in `u32` only when it saturates). Which of the two
//!   a pair takes is read off the rows (see the struct docs). A single
//!   pair is a tick with one client.

use crate::entry::{LinkEntry, INFINITE_COST};
use apor_quorum::NodeIdx;
use apor_telemetry::{Counter, Gauge, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A borrowed view of one link-state row: the two index-aligned lanes
/// of a [`LaneRow`] over a row of `width` destinations.
///
/// The lanes hold **live entries only**, strictly ascending by
/// destination: `latency_ms[i]` is the wire latency of `dst[i]`
/// ([`LinkEntry::encode`]). Destinations not listed cost
/// [`INFINITE_COST`]. Random access is `O(log k)` (none on a full row);
/// repeated ascending probes should go through [`RowRef::cursor`]
/// instead of [`RowRef::cost`].
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// Full row width (`n`); destinations ≥ `width` are out of range.
    width: usize,
    /// Destination lane, strictly ascending.
    dst: &'a [NodeIdx],
    /// Latency lane (integer milliseconds, wire-clamped).
    latency_ms: &'a [u16],
}

impl<'a> RowRef<'a> {
    /// Full width of the row (`n`).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Lane position of `dst`, when stored. Slot `dst` is tried first:
    /// a strictly ascending lane holds `dst` there exactly when
    /// everything before it is its own index, which is every slot of a
    /// full row — so on one the position is the destination itself and
    /// nothing is searched.
    fn position(&self, dst: NodeIdx) -> Option<usize> {
        if self.dst.get(dst.get()) == Some(&dst) {
            return Some(dst.get());
        }
        self.dst.binary_search(&dst).ok()
    }

    /// Routing cost of the `dst` entry: the latency lane when alive,
    /// [`INFINITE_COST`] otherwise.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    #[must_use]
    pub fn cost(&self, dst: NodeIdx) -> u32 {
        assert!(dst.get() < self.width, "dst {dst:?} out of range");
        self.position(dst)
            .map_or(INFINITE_COST, |i| u32::from(self.latency_ms[i]))
    }

    /// A resumable lookup cursor over this row. Probing destinations in
    /// ascending order costs amortized `O(1)` per probe (the cursor
    /// only ever walks forward); a backwards probe falls back to one
    /// binary search to re-position. [`RowRef::cost`] by contrast pays a
    /// fresh `O(log k)` search on every call off a full row.
    #[must_use]
    pub fn cursor(&self) -> RowCursor<'a> {
        RowCursor { row: *self, pos: 0 }
    }

    /// Iterate the live entries as `(dst, cost)`, ascending by `dst`.
    fn iter_costs(&self) -> impl Iterator<Item = (NodeIdx, u32)> + 'a {
        let (dst, latency_ms) = (self.dst, self.latency_ms);
        dst.iter()
            .copied()
            .zip(latency_ms.iter().map(|&l| u32::from(l)))
    }
}

/// A resumable lookup cursor over one [`RowRef`].
///
/// Created by [`RowRef::cursor`]. Probes that ascend by destination —
/// the shape of every per-candidate scavenging loop, since
/// [`LinkStateStore::present_rows`] is ascending — advance the cursor
/// linearly, so a full ascending sweep over a row of `k` entries costs
/// `O(k + probes)` total instead of `O(probes · log k)` fresh binary
/// searches. A backwards probe re-positions with a single binary
/// search; correctness never depends on probe order.
#[derive(Debug, Clone)]
pub struct RowCursor<'a> {
    row: RowRef<'a>,
    pos: usize,
}

impl RowCursor<'_> {
    /// Position the cursor on `dst`; returns the lane index on a hit.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    fn seek(&mut self, target: NodeIdx) -> Option<usize> {
        assert!(target.get() < self.row.width, "dst {target:?} out of range");
        let keys = self.row.dst;
        if keys.get(self.pos).is_some_and(|&k| k <= target) {
            // Ascending (or repeated) probe: walk forward.
            while keys.get(self.pos).is_some_and(|&k| k < target) {
                self.pos += 1;
            }
        } else {
            // Backwards probe or exhausted cursor: one binary search.
            self.pos = keys.partition_point(|&k| k < target);
        }
        (keys.get(self.pos) == Some(&target)).then_some(self.pos)
    }

    /// Routing cost of the `dst` entry ([`INFINITE_COST`] when dead or
    /// not stored), like [`RowRef::cost`] but amortized `O(1)` across
    /// ascending probes.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    pub fn cost(&mut self, dst: NodeIdx) -> u32 {
        self.seek(dst)
            .map_or(INFINITE_COST, |i| u32::from(self.row.latency_ms[i]))
    }
}

/// Index ranges of `0..len` with up to two positions excluded — how the
/// kernel's lane fast path skips the endpoints `a` and `b` without
/// branching inside the reduction loops.
fn excluded_ranges(
    len: usize,
    skip_a: Option<usize>,
    skip_b: Option<usize>,
) -> [std::ops::Range<usize>; 3] {
    match (skip_a, skip_b) {
        (None, None) => [0..len, 0..0, 0..0],
        (Some(p), None) | (None, Some(p)) => [0..p, p + 1..len, 0..0],
        (Some(x), Some(y)) => {
            let (p, q) = if x <= y { (x, y) } else { (y, x) };
            if p == q {
                [0..p, p + 1..len, 0..0]
            } else {
                [0..p, p + 1..q, q + 1..len]
            }
        }
    }
}

/// Minimum elementwise sum of two equal-length latency lanes, exact
/// (`u32::MAX` when empty) — the reduction the `u16` one falls back to
/// when it cannot tell a sum of 65 535 from a larger one.
#[inline]
fn min_lane_sum(la: &[u16], lb: &[u16]) -> u32 {
    la.iter()
        .zip(lb)
        .fold(u32::MAX, |m, (&x, &y)| m.min(u32::from(x) + u32::from(y)))
}

/// Minimum elementwise *saturating* sum of two equal-length latency
/// lanes (`u16::MAX` when empty): eight lanes per 128-bit operation
/// where the exact `u32` sum fits four, and an unsigned 16-bit `min`
/// that baseline x86-64 can express (its 32-bit one needs SSE4.1).
/// Below `u16::MAX` the result is the exact minimum — every sum that
/// saturated is above it; at `u16::MAX` it says only "65 535 or more".
/// This is the kernel's innermost loop.
#[inline]
fn min_lane_sum_saturating(la: &[u16], lb: &[u16]) -> u16 {
    la.iter()
        .zip(lb)
        .fold(u16::MAX, |m, (&x, &y)| m.min(x.saturating_add(y)))
}

/// First index at which `hit` holds for the paired lanes. Each chunk
/// of `FIND_CHUNK` entries is first asked whether it holds a hit at all — an
/// or-reduction with no exit inside the chunk, which vectorizes where
/// an early-exit scan cannot — and only the chunk that does is scanned
/// for the position.
#[inline]
fn find_lane_pair(la: &[u16], lb: &[u16], hit: impl Fn(u16, u16) -> bool) -> Option<usize> {
    /// Entries per any-then-position step.
    const FIND_CHUNK: usize = 64;
    for (chunk, (ca, cb)) in la.chunks(FIND_CHUNK).zip(lb.chunks(FIND_CHUNK)).enumerate() {
        let pairs = || ca.iter().zip(cb);
        if pairs().fold(false, |any, (&x, &y)| any | hit(x, y)) {
            return pairs()
                .position(|(&x, &y)| hit(x, y))
                .map(|p| chunk * FIND_CHUNK + p);
        }
    }
    None
}

/// Best relay over two rows with **identical destination lanes**: the
/// live intersection is the shared support itself, so the search is an
/// elementwise reduction over the two latency lanes (both lanes hold
/// live entries only — a lane row never materialises dead entries).
/// Two vectorizable passes with the `a`/`b` positions carved out: a
/// min-reduction over the saturating `u16` sums, then a first-index
/// search for the winner — the lowest-index relay of the lowest cost,
/// as the gather's packed `min` picks it. Only when the reduction
/// saturates (the best sum is 65 535 or more, or nothing is left to
/// relay through) are both passes redone on exact `u32` sums.
fn lanes_shared_best(
    row_a: &RowRef,
    row_b: &RowRef,
    a: NodeIdx,
    b: NodeIdx,
) -> Option<(NodeIdx, u32)> {
    let (dsts, la, lb) = (row_a.dst, row_a.latency_ms, row_b.latency_ms);
    let ranges = excluded_ranges(dsts.len(), row_a.position(a), row_a.position(b));
    let lanes = |r: &std::ops::Range<usize>| (&la[r.clone()], &lb[r.clone()]);
    let best16 = ranges.iter().fold(u16::MAX, |m, r| {
        let (la, lb) = lanes(r);
        m.min(min_lane_sum_saturating(la, lb))
    });
    let best = if best16 < u16::MAX {
        u32::from(best16)
    } else {
        ranges.iter().fold(u32::MAX, |m, r| {
            let (la, lb) = lanes(r);
            m.min(min_lane_sum(la, lb))
        })
    };
    if best == u32::MAX {
        return None;
    }
    ranges.iter().find_map(|r| {
        let (la, lb) = lanes(r);
        let p = if best16 < u16::MAX {
            find_lane_pair(la, lb, |x, y| x.saturating_add(y) == best16)
        } else {
            find_lane_pair(la, lb, |x, y| u32::from(x) + u32::from(y) == best)
        };
        p.map(|p| (dsts[r.start + p], best))
    })
}

/// A dead slot of the scatter lane: above any sum of two `u16` legs
/// (≤ 131 070), and small enough that adding a `u16` leg to it cannot
/// wrap a `u32`. A candidate sum is a real path exactly when it is
/// below this.
const LANE_DEAD: u32 = 1 << 17;

/// "No finite path" in a packed `(cost << 16) | hop` cell.
const NO_PATH: u64 = u64::MAX;

/// Pack a candidate so that `min` orders by cost, then by hop index.
#[inline]
fn pack(cost: u32, hop: NodeIdx) -> u64 {
    (u64::from(cost) << 16) | u64::from(u16::from(hop))
}

/// The cheapest relay towards the origin of `row_b`, given the other
/// endpoint's costs scattered into `lane`: a branch-free `min` over
/// `row_b`'s live entries of the packed `(lane[h] + row_b[h], h)`. A
/// dead first leg yields a sum of at least [`LANE_DEAD`], which loses
/// to every real path and which the caller rejects.
fn gather_best_relay(row_b: &RowRef, lane: &[u32]) -> u64 {
    row_b
        .iter_costs()
        .fold(NO_PATH, |m, (h, c)| m.min(pack(lane[h.get()] + c, h)))
}

/// **The round-two kernel**: every recommendation of one tick. For each
/// ordered pair `(a, b)` of the server's nodes (`clients ++ [me]`), the
/// best one-hop path `a → h → b` computable from row `a` and row `b`
/// (`h == b` means the direct link), held as one flat matrix of packed
/// `(cost << 16) | hop` cells.
///
/// Costs are exact: the wire carries integer-millisecond latencies, so
/// a path cost is a `u32` add of two `u16` legs. Link costs are assumed
/// symmetric (paper section 3), so a relayed path costs
/// `row_a[h] + row_b[h]`; the direct cost is the *minimum* of the two
/// directions' estimates (they may disagree transiently). Ties prefer
/// the direct link, then the lowest hop index, which makes the
/// recommendation deterministic across rendezvous servers with
/// identical data.
///
/// Built by [`LinkStateStore::round_two`] with a scatter-gather. For
/// each node `a` in turn, the live costs of row `a` are scattered into
/// a dense width-`n` `u32` lane (every other slot holds a dead sentinel
/// above any sum of two `u16` legs); then for each *later* node `b` the
/// kernel walks row `b`'s live entries only, adding `lane[h]` to each
/// and keeping the `min` of the packed `(sum, h)` — no branch in the
/// loop. A finite path needs both legs alive, so only the intersection
/// of the two live sets can win, at `O(k_b)` per pair.
///
/// * **Endpoints need no masking.** A live self-entry lets `h == a` and
///   `h == b` through as candidates, harmlessly. Relaying "via `a`"
///   costs `row_a[a] + row_b[a]` and "via `b`" costs
///   `row_a[b] + row_b[b]`: each contains one direction of the direct
///   link, so neither is below `min(row_a[b], row_b[a])`, and only a
///   relay *strictly* cheaper than the direct link is taken. If one
///   ties with a real relay, that relay is no cheaper than the direct
///   link either.
/// * **Pair symmetry.** The relay cost `row_a[h] + row_b[h]` and the
///   direct cost `min(row_a[b], row_b[a])` are both symmetric in
///   `(a, b)`, so each unordered pair is computed once and mirrored,
///   the only difference being that the direct link is spelled
///   `hop == b` one way and `hop == a` the other.
/// * **Tie-break.** The `min` of `(cost << 16) | hop` is the
///   lowest-index relay of the lowest cost whatever order the entries
///   are visited in. The direct link still wins ties against it.
/// * **Shared lanes.** Two lane rows listing the same destinations keep
///   an elementwise reduction over the two latency lanes
///   (`lanes_shared_best`), which vectorizes where a gather cannot. The
///   choice is made per pair from the rows alone: same address and
///   length first — two full rows of one width borrow the very same
///   identity lane, so nothing is compared — and same contents only
///   after. Under full-mesh probing every pair takes it, under entitled
///   probing none does, and the end-to-end benchmark has a workload on
///   each side. The reduction runs on saturating `u16` sums, eight to a
///   128-bit operation, and is exact below 65 535; a result at that
///   ceiling (a best path of 65 535 ms or more, or nothing to relay
///   through) is recomputed on `u32` sums, so costs stay exact.
/// * **Buffers are per call.** The lane and the matrix live for one
///   tick. One process may host thousands of routers; buffers kept per
///   router would sit idle between ticks and add `O(n)` bytes to each.
#[derive(Debug, Clone)]
pub struct RoundTwo {
    /// The row width, which every hop index is below.
    n: usize,
    nodes: Vec<NodeIdx>,
    /// `packed[i * nodes.len() + j]`: the path `nodes[i] → nodes[j]`.
    packed: Vec<u64>,
}

impl RoundTwo {
    /// Run the kernel over `rows[i]`, the resolved fresh row of
    /// `nodes[i]` (`None` = missing or stale), at row width `n`.
    fn compute(n: usize, nodes: Vec<NodeIdx>, rows: &[Option<RowRef>]) -> Self {
        let k = nodes.len();
        let mut packed = vec![NO_PATH; k * k];
        let mut lane = vec![LANE_DEAD; n];
        for i in 0..k {
            let Some(row_a) = rows[i] else { continue };
            let a = nodes[i];
            for (h, c) in row_a.iter_costs() {
                lane[h.get()] = c;
            }
            for j in i + 1..k {
                let Some(row_b) = rows[j] else { continue };
                let b = nodes[j];
                if a == b {
                    continue;
                }
                let direct = lane[b.get()].min(row_b.cost(a));
                // Two full rows of one width borrow the very same lane:
                // address and length settle it before any content is read.
                let shared = std::ptr::eq(row_a.dst, row_b.dst) || row_a.dst == row_b.dst;
                let relay = if shared {
                    lanes_shared_best(&row_a, &row_b, a, b).map_or(NO_PATH, |(h, c)| pack(c, h))
                } else {
                    gather_best_relay(&row_b, &lane)
                };
                // `direct ≤ LANE_DEAD`, so a relay that beats it is real.
                let (ab, ba) = if relay >> 16 < u64::from(direct) {
                    (relay, relay)
                } else if direct < LANE_DEAD {
                    (pack(direct, b), pack(direct, a))
                } else {
                    (NO_PATH, NO_PATH)
                };
                packed[i * k + j] = ab;
                packed[j * k + i] = ba;
            }
            for (h, _) in row_a.iter_costs() {
                lane[h.get()] = LANE_DEAD;
            }
        }
        RoundTwo { n, nodes, packed }
    }

    /// The nodes the tick covers: the clients in the order given, then
    /// the server itself.
    #[must_use]
    pub fn nodes(&self) -> &[NodeIdx] {
        &self.nodes
    }

    /// The best one-hop path `nodes()[i] → nodes()[j]` as `(hop, cost)`
    /// in integer milliseconds (`hop == nodes()[j]` is the direct link),
    /// or `None` when either row was missing or stale, `i == j`, or no
    /// finite path exists.
    ///
    /// # Panics
    /// Panics if `i` or `j` is not an index into [`nodes`](Self::nodes).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> Option<(NodeIdx, u32)> {
        let k = self.nodes.len();
        assert!(i < k && j < k, "pair ({i},{j}) outside the {k} nodes");
        let p = self.packed[i * k + j];
        #[allow(clippy::cast_possible_truncation)]
        let hop = NodeIdx::new((p & 0xFFFF) as usize, self.n);
        hop.filter(|_| p != NO_PATH)
            .map(|hop| (hop, (p >> 16) as u32))
    }

    /// What the server recommends to `nodes()[i]`: `(dst, hop, cost)`
    /// for every destination with a finite path, in [`nodes`](Self::nodes)
    /// order.
    pub fn recommendations(&self, i: usize) -> impl Iterator<Item = (NodeIdx, NodeIdx, u32)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(move |(j, &d)| self.get(i, j).map(|(hop, cost)| (d, hop, cost)))
    }
}

/// Slots of the identity lane: every index a view can have.
const MAX_WIDTH: usize = u16::MAX as usize;

/// The identity lane `0, 1, …, 65 534`. The destination lane of every
/// full row is a prefix of it, so no full row holds one of its own.
/// `const`-initialised: it sits in read-only data — no allocation, no
/// lock, no first-use check — and is the same slice for every row that
/// borrows it, which is what lets the kernel tell two full rows apart
/// from two listed ones by address.
static IDENTITY: [NodeIdx; MAX_WIDTH] = {
    const fn idx(i: usize) -> NodeIdx {
        match NodeIdx::new(i, MAX_WIDTH) {
            Some(i) => i,
            None => panic!("below the widest view"),
        }
    }
    let mut lane = [idx(0); MAX_WIDTH];
    let mut i = 1;
    while i < MAX_WIDTH {
        lane[i] = idx(i);
        i += 1;
    }
    lane
};

/// A destination lane: strictly ascending indices, read through `Deref`
/// as the `[NodeIdx]` every consumer sees. A lane that reads `0..len` — a
/// **full row**, which is every row under full-mesh probing — owns
/// nothing and borrows a prefix of [`IDENTITY`]; any other lane owns
/// its destinations. Which of the two a lane is never shows: equality
/// and `Debug` go by content, and `From<Vec<NodeIdx>>` — the one way in
/// for destinations that were listed somewhere — picks the shared form
/// itself.
#[derive(Clone)]
pub(crate) enum DstLane {
    /// `0..len`.
    Full(usize),
    /// Anything else, as listed.
    Listed(Box<[NodeIdx]>),
}

impl std::ops::Deref for DstLane {
    type Target = [NodeIdx];

    fn deref(&self) -> &[NodeIdx] {
        match self {
            DstLane::Full(len) => &IDENTITY[..*len],
            DstLane::Listed(dst) => dst,
        }
    }
}

impl From<Vec<NodeIdx>> for DstLane {
    /// `dst` must be strictly ascending (debug-asserted). Such a lane
    /// starts at 0 or above and climbs by at least one a step, so its
    /// last entry is `len − 1` exactly when every entry is its own
    /// index: an `O(1)` test for "is a full row".
    fn from(dst: Vec<NodeIdx>) -> Self {
        debug_assert!(dst.windows(2).all(|w| w[0] < w[1]));
        if dst.last().is_none_or(|&d| d.get() + 1 == dst.len()) {
            DstLane::Full(dst.len())
        } else {
            DstLane::Listed(dst.into_boxed_slice())
        }
    }
}

impl Default for DstLane {
    fn default() -> Self {
        DstLane::Full(0)
    }
}

impl PartialEq for DstLane {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for DstLane {}

impl std::fmt::Debug for DstLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One owned link-state row in struct-of-arrays form: two parallel
/// lanes holding the **live** entries only, strictly ascending by
/// destination — `dst`, and `latency_ms`, the wire's
/// integer-millisecond latency (clamped below the dead sentinel, as
/// [`LinkEntry::encode`] would emit it). That is everything routing
/// reads: a route's cost is its latency. The entry's third wire byte,
/// liveness and loss, is not held: it rides the frame beside the row
/// ([`LinkStateMsg::liveness_loss`](crate::LinkStateMsg::liveness_loss)),
/// and a frame's row plus that lane re-encode to the frame's bytes.
///
/// A row that lists its destinations holds 4 bytes per entry; a **full
/// row** — live to every destination `0..k`, which is every row under
/// full-mesh probing — holds 2, its latency alone, because its
/// destination lane is the shared identity lane
/// ([`LaneRow::held_bytes`] counts either).
/// There is still one row type and one set of lanes: [`LaneRow::lanes`]
/// and [`RowRef`] hand out `&[NodeIdx]` destinations whichever they are,
/// and the latency lane is directly consumable by the integer kernel
/// with no decode step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneRow {
    dst: DstLane,
    latency_ms: Box<[u16]>,
    /// The origin's row sequence number (0 = unversioned legacy row).
    /// Bumped by the origin on retraction events; the store refuses to
    /// replace a versioned row with a strictly older one, so delayed or
    /// replayed frames can never resurrect a withdrawn link.
    seqno: u16,
    /// Destinations the origin explicitly withdrew at this seqno,
    /// strictly ascending — a fourth lane alongside the live-entry
    /// lanes. Retraction is stronger than mere absence: receivers
    /// propagate it into their feasibility tables.
    retracted: Box<[NodeIdx]>,
}

/// Is `b` strictly newer than `a` under the RFC 8966 circular 16-bit
/// comparison? Sequence numbers wrap, so "newer" means the forward
/// distance `b − a (mod 2¹⁶)` lands in the first half of the circle.
#[must_use]
pub fn seqno_newer(a: u16, b: u16) -> bool {
    b != a && b.wrapping_sub(a) < 0x8000
}

impl LaneRow {
    /// Bytes this row holds: the lanes it owns — a full row's
    /// destinations are borrowed, not owned — plus the retraction lane.
    /// A listed entry is 2 (dst) + 2 (latency) bytes; a full row's entry
    /// is its latency alone.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        let per_entry = match self.dst {
            DstLane::Full(_) => 2,
            DstLane::Listed(_) => 4,
        };
        self.len() * per_entry + 2 * self.retracted.len()
    }

    /// Reduce a dense row to its live entries.
    ///
    /// # Panics
    /// Panics if `entries` is wider than a view can be (`u16::MAX`).
    #[must_use]
    pub fn from_dense(entries: &[LinkEntry]) -> Self {
        assert!(entries.len() <= MAX_WIDTH, "a row wider than a view");
        let live = NodeIdx::all(entries.len())
            .zip(entries)
            .filter(|(_, e)| e.alive)
            .map(|(d, &e)| (d, e));
        Self::collect(entries.iter().filter(|e| e.alive).count(), live)
    }

    /// Reduce `(dst, entry)` pairs (strictly ascending by `dst`) to
    /// their live entries.
    #[must_use]
    pub fn from_pairs(pairs: &[(NodeIdx, LinkEntry)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        Self::collect(
            pairs.iter().filter(|(_, e)| e.alive).count(),
            pairs.iter().filter(|(_, e)| e.alive).copied(),
        )
    }

    /// Quantize the `count` entries of `live` into exact-capacity lanes.
    fn collect(count: usize, live: impl Iterator<Item = (NodeIdx, LinkEntry)>) -> Self {
        let mut dst = Vec::with_capacity(count);
        let mut latency_ms = Vec::with_capacity(count);
        for (d, e) in live {
            let wire = e.encode();
            dst.push(d);
            latency_ms.push(u16::from_be_bytes([wire[0], wire[1]]));
        }
        Self::from_wire_lanes(dst.into(), latency_ms, 0, Vec::new())
    }

    /// Assemble a row from lanes that already hold wire-exact values —
    /// what the frame decoder fills straight from the bytes. The caller
    /// guarantees what every other constructor does: index-aligned
    /// lanes, live entries only, destinations (and retractions)
    /// strictly ascending, live latencies below the dead sentinel.
    pub(crate) fn from_wire_lanes(
        dst: DstLane,
        latency_ms: Vec<u16>,
        seqno: u16,
        retracted: Vec<NodeIdx>,
    ) -> Self {
        debug_assert!(dst.len() == latency_ms.len());
        debug_assert!(retracted.windows(2).all(|w| w[0] < w[1]));
        LaneRow {
            dst,
            latency_ms: latency_ms.into_boxed_slice(),
            seqno,
            retracted: retracted.into_boxed_slice(),
        }
    }

    /// The two index-aligned lanes — destination and latency — of the
    /// live entries, ascending by destination.
    #[must_use]
    pub fn lanes(&self) -> (&[NodeIdx], &[u16]) {
        (&self.dst, &self.latency_ms)
    }

    /// Stamp the row with the origin's seqno and retraction lane
    /// (strictly ascending destinations, debug-asserted).
    #[must_use]
    pub fn with_version(mut self, seqno: u16, retracted: &[NodeIdx]) -> Self {
        debug_assert!(retracted.windows(2).all(|w| w[0] < w[1]));
        self.seqno = seqno;
        self.retracted = retracted.into();
        self
    }

    /// This row in another index space: every destination — of the live
    /// entries and of the retraction lane alike — renamed through `map`
    /// (`map[old] = Some(new)`), entries and retractions whose
    /// destination has no new name (`None`, or beyond the table)
    /// dropped. Latencies are copied as they are: a wire latency reads
    /// back as the entry that encodes to it, so there is nothing to
    /// re-quantize. The retraction lane stays, but the seqno
    /// does not: the copy is unversioned (0). A seqno orders one
    /// origin's frames within one view, and every origin numbers its
    /// rows from 0 again in a new view, so a carried seqno would refuse
    /// the origin's next frames until it counted past it; an old view's
    /// frames never reach the row, as the view check refuses them.
    /// `map` must keep the order of the names it keeps (debug-asserted),
    /// as a translation between two sorted member lists does, so the
    /// lanes stay strictly ascending. Costs `O(entries held)`, whatever
    /// the row width.
    #[must_use]
    pub fn relabelled(&self, map: &[Option<NodeIdx>]) -> Self {
        let rename = |d: &NodeIdx| map.get(d.get()).copied().flatten();
        let kept = self.dst.iter().filter(|d| rename(d).is_some()).count();
        let mut dst = Vec::with_capacity(kept);
        let mut latency_ms = Vec::with_capacity(kept);
        for (i, new) in self.dst.iter().map(rename).enumerate() {
            if let Some(new) = new {
                dst.push(new);
                latency_ms.push(self.latency_ms[i]);
            }
        }
        let retracted = self.retracted.iter().filter_map(rename).collect();
        Self::from_wire_lanes(dst.into(), latency_ms, 0, retracted)
    }

    /// The origin's row sequence number (0 = unversioned).
    #[must_use]
    pub fn seqno(&self) -> u16 {
        self.seqno
    }

    /// The retraction lane: destinations the origin explicitly
    /// withdrew, strictly ascending.
    #[must_use]
    pub fn retracted(&self) -> &[NodeIdx] {
        &self.retracted
    }

    /// Number of (live) entries stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dst.len()
    }

    /// True when no live entry is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// Borrow as a [`RowRef`] over a row of `width` destinations.
    #[must_use]
    pub fn as_row_ref(&self, width: usize) -> RowRef<'_> {
        RowRef {
            width,
            dst: &self.dst,
            latency_ms: &self.latency_ms,
        }
    }

    /// This row without its entry for `dst`, seqno and retraction lane
    /// kept: what the row reads once the link to `dst` is dead. A row
    /// that loses an entry lists its destinations, a full one's written
    /// out. Without an entry for `dst`, the same row.
    #[must_use]
    pub fn without(&self, dst: NodeIdx) -> Self {
        let Ok(i) = self.dst.binary_search(&dst) else {
            return self.clone();
        };
        fn cut<T: Copy>(lane: &[T], i: usize) -> Box<[T]> {
            [&lane[..i], &lane[i + 1..]].concat().into_boxed_slice()
        }
        LaneRow {
            dst: DstLane::Listed(cut(&self.dst, i)),
            latency_ms: cut(&self.latency_ms, i),
            seqno: self.seqno,
            retracted: self.retracted.clone(),
        }
    }
}

/// A candidate detour `a → r₁ → … → b` spliced from held rows by
/// [`LinkStateStore::k_hop_options`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detour {
    /// The full path: `path[0]` is the source, `path[1]` the first
    /// relay, the last element the destination.
    pub path: Vec<NodeIdx>,
    /// Total path cost, ms.
    pub cost: u32,
    /// The *remaining* cost after the first leg — what the first relay
    /// effectively advertises for the rest of the path, and what the
    /// feasibility discipline compares against its feasibility
    /// distance.
    pub advertised: u32,
}

/// Storage of link-state rows plus the round-two route computation.
///
/// A row logically covers all `n` destinations; a store decides *which*
/// origins have a row at all, and a held row materialises its live
/// entries only (see [`RowRef`]). "Present" means a row was received
/// (it has a receipt time); a present row may still be stale for
/// routing — the kernel methods apply the paper's 3-routing-interval
/// freshness rule (section 6.2.2) on top.
pub trait LinkStateStore {
    /// Number of nodes covered (row width).
    fn len(&self) -> usize;

    /// True when the store covers no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// **The row ingest.** Replace row `origin` with `row` — live-entry
    /// lanes plus the origin's seqno and retraction lane, as a
    /// link-state frame carries them — stamped at `now` seconds.
    /// Returns `false` (store unchanged) when the held row is versioned
    /// and strictly newer than the incoming one — the stale-replay
    /// guard; a zero seqno on either side is unversioned and always
    /// accepted — or when the store is bounded, full of fresh rows and
    /// `origin` is not among them. The store holds on to the `Arc`
    /// itself, so a decoded frame's row is stored without copying; a
    /// caller with a full-width `&[LinkEntry]` reduces it first
    /// ([`LaneRow::from_dense`]).
    ///
    /// # Panics
    /// Panics if `origin ≥ len()` or the row lists a destination
    /// `≥ len()`.
    fn put_row(&mut self, origin: NodeIdx, row: Arc<LaneRow>, now: f64) -> bool;

    /// The held seqno of row `origin` (0 = absent or unversioned).
    fn row_seqno(&self, origin: NodeIdx) -> u16;

    /// Did row `origin` explicitly retract `dst` at its current seqno?
    fn row_retracts(&self, origin: NodeIdx, dst: NodeIdx) -> bool;

    /// A borrowed view of row `origin`, when present.
    fn row_ref(&self, origin: NodeIdx) -> Option<RowRef<'_>>;

    /// Receipt time of row `origin`; `None` = never received.
    fn row_time(&self, origin: NodeIdx) -> Option<f64>;

    /// Every held row as `(origin, receipt time, row)`, ascending by
    /// origin — one walk over the store instead of a lookup per origin.
    fn held_rows(&self) -> impl Iterator<Item = (NodeIdx, f64, RowRef<'_>)>;

    /// The origins that currently have a row, ascending.
    fn present_rows(&self) -> Vec<NodeIdx> {
        self.held_rows().map(|(origin, _, _)| origin).collect()
    }

    /// Number of rows currently held — the state-accounting counter the
    /// scale experiments assert against (`O(√n)` for a quorum node).
    fn row_count(&self) -> usize;

    /// Number of link entries currently held — the per-node memory
    /// figure the scale experiments report.
    fn entry_count(&self) -> usize;

    // ------------------------------------------------------------------
    // Provided accessors
    // ------------------------------------------------------------------

    /// Age of row `origin` at time `now`, if ever received.
    fn row_age(&self, origin: NodeIdx, now: f64) -> Option<f64> {
        self.row_time(origin).map(|t| now - t)
    }

    /// Is row `origin` present and no older than `max_age` at `now`?
    fn row_fresh(&self, origin: NodeIdx, now: f64, max_age: f64) -> bool {
        self.row_age(origin, now).is_some_and(|a| a <= max_age)
    }

    /// Routing cost of `origin → dst` in integer milliseconds
    /// ([`INFINITE_COST`] when dead/unknown).
    fn cost(&self, origin: NodeIdx, dst: NodeIdx) -> u32 {
        if origin == dst {
            return 0;
        }
        self.row_ref(origin).map_or(INFINITE_COST, |r| r.cost(dst))
    }

    // ------------------------------------------------------------------
    // The round-two kernel
    // ------------------------------------------------------------------

    /// **Round two for a whole tick.** Every recommendation a rendezvous
    /// server owes its `clients` about each other and about the server
    /// itself (`me`), in one pass: each row is resolved and
    /// freshness-checked once (≤ `max_age` at `now`), and each unordered
    /// pair is computed once and mirrored (see [`RoundTwo`]). A missing
    /// or stale row yields no recommendation as source or as
    /// destination. One pair is a tick with one client:
    /// `round_two(&[a], b, now, max_age).get(0, 1)`.
    fn round_two(&self, clients: &[NodeIdx], me: NodeIdx, now: f64, max_age: f64) -> RoundTwo {
        let mut nodes = Vec::with_capacity(clients.len() + 1);
        nodes.extend_from_slice(clients);
        nodes.push(me);
        let rows: Vec<Option<RowRef<'_>>> = nodes
            .iter()
            .map(|&o| {
                self.row_fresh(o, now, max_age)
                    .then(|| self.row_ref(o))
                    .flatten()
            })
            .collect();
        RoundTwo::compute(self.len(), nodes, &rows)
    }

    /// All one-hop options from `a` to `b` with finite cost, sorted by
    /// cost (the §4.2 "redundant link-state information" scavenging
    /// uses this over the rows a node happens to hold). Only present,
    /// fresh relay rows participate — which for a sparse store is an
    /// `O(√n)` scan instead of `O(n)`. The per-candidate probes into
    /// row `a` ascend with `present_rows`, so they ride a [`RowCursor`]
    /// (amortized `O(1)` per candidate) rather than a fresh binary
    /// search each.
    fn one_hop_options(
        &self,
        a: NodeIdx,
        b: NodeIdx,
        now: f64,
        max_age: f64,
    ) -> Vec<(NodeIdx, u32)> {
        if a == b || !self.row_fresh(a, now, max_age) {
            return Vec::new();
        }
        let row_a = self.row_ref(a).expect("fresh row present");
        let mut cur_a = row_a.cursor();
        let mut out = Vec::new();
        for h in self.present_rows() {
            if h == a || h == b {
                continue;
            }
            if !self.row_fresh(h, now, max_age) {
                continue;
            }
            let leg1 = cur_a.cost(h);
            if leg1 == INFINITE_COST {
                continue;
            }
            let leg2 = self.cost(h, b);
            if leg2 == INFINITE_COST {
                continue;
            }
            out.push((h, leg1 + leg2));
        }
        out.sort_by_key(|&(h, c)| (c, h));
        out
    }

    /// Generalized §4.2 scavenging: candidate detours `a → r₁ → … → b`
    /// through up to `max_hops` intermediate relays (`max_hops == 1`
    /// reproduces [`one_hop_options`](LinkStateStore::one_hop_options)
    /// exactly, entry for entry). Only present, *fresh* relay rows
    /// participate — `O(√n)` relays for a quorum node — and paths are
    /// simple by construction, so a candidate can never revisit a node.
    ///
    /// Returns one [`Detour`] per viable first relay, sorted by total
    /// cost, lowest first-relay index on ties. The hop-layered relaxation runs `O(k·√n·√n)` integer
    /// additions off the per-tick hot path (failover only); the
    /// per-tick round-two kernel is untouched.
    fn k_hop_options(
        &self,
        a: NodeIdx,
        b: NodeIdx,
        max_hops: usize,
        now: f64,
        max_age: f64,
    ) -> Vec<Detour> {
        if a == b || max_hops == 0 || !self.row_fresh(a, now, max_age) {
            return Vec::new();
        }
        let relays: Vec<NodeIdx> = self
            .present_rows()
            .into_iter()
            .filter(|&r| r != a && r != b && self.row_fresh(r, now, max_age))
            .collect();
        // best[i]: cheapest known tail `relays[i] → … → b` and its cost,
        // grown one relay per layer (classic hop-bounded relaxation).
        let mut best: Vec<Option<(u32, Vec<NodeIdx>)>> = relays
            .iter()
            .map(|&r| {
                let c = self.cost(r, b);
                (c != INFINITE_COST).then(|| (c, vec![r, b]))
            })
            .collect();
        for _ in 1..max_hops {
            let prev = best.clone();
            for (i, &r) in relays.iter().enumerate() {
                let row_r = self.row_ref(r).expect("fresh row present");
                let mut cur = row_r.cursor();
                for (j, &s) in relays.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let Some((tail_cost, tail)) = &prev[j] else {
                        continue;
                    };
                    let leg = cur.cost(s);
                    if leg == INFINITE_COST || tail.contains(&r) {
                        continue;
                    }
                    let total = leg + tail_cost;
                    if best[i].as_ref().is_none_or(|(c, _)| total < *c) {
                        let mut path = Vec::with_capacity(tail.len() + 1);
                        path.push(r);
                        path.extend_from_slice(tail);
                        debug_assert!(path.len() <= max_hops + 1);
                        best[i] = Some((total, path));
                    }
                }
            }
        }
        let row_a = self.row_ref(a).expect("fresh row present");
        let mut cur_a = row_a.cursor();
        let mut out = Vec::new();
        for (i, &r) in relays.iter().enumerate() {
            let Some((tail_cost, tail)) = &best[i] else {
                continue;
            };
            let leg1 = cur_a.cost(r);
            if leg1 == INFINITE_COST {
                continue;
            }
            let mut path = Vec::with_capacity(tail.len() + 1);
            path.push(a);
            path.extend_from_slice(tail);
            out.push(Detour {
                path,
                cost: leg1 + tail_cost,
                advertised: *tail_cost,
            });
        }
        out.sort_by_key(|d| (d.cost, d.path[1]));
        out
    }

    /// Does any fresh row report `dst` as alive? (Used to decide
    /// whether a destination has failed outright — section 4.1's "check
    /// if any of its rendezvous clients' link-state tables show that
    /// Dst is reachable".)
    fn anyone_reaches(&self, dst: NodeIdx, now: f64, max_age: f64) -> bool {
        self.held_rows().any(|(origin, received_at, row)| {
            origin != dst && now - received_at <= max_age && row.cost(dst) != INFINITE_COST
        })
    }
}

/// One stored row: receipt time plus the live entries as parallel
/// wire-quantized lanes ([`LaneRow`]), ascending by destination.
/// Dead/unknown destinations are not materialised.
#[derive(Debug, Clone)]
struct StoredRow {
    received_at: f64,
    lanes: Arc<LaneRow>,
}

/// The sparse row store: `origin → (receipt time, live-entry lanes)`
/// for exactly the rows this node actually receives.
///
/// A quorum node holds its own row plus its `~2√n` rendezvous clients'
/// rows, and each row stores only its live entries, in struct-of-arrays
/// lanes at 4 B/entry (2 B/entry for a full row, see [`LaneRow`]) —
/// which under entitled + sampled probing is `O(√n)` per row, so
/// per-node state is `O(n)` where a full matrix needs `O(n²)`. Lookups
/// are `O(log √n)` map + `O(log k)` row binary search (none on a full
/// row); the round-two kernel costs `O(k)` per pair — a scatter-gather
/// — or streams the two latency lanes elementwise when the rows share
/// a destination lane.
/// The `row_bytes_lanes` gauge reports the bytes the held rows own
/// ([`LaneRow::held_bytes`], summed).
#[derive(Debug, Clone)]
pub struct RowStore {
    n: usize,
    rows: BTreeMap<NodeIdx, StoredRow>,
    /// Maximum rows this node's role entitles it to: a row that would
    /// be one more is refused. `None` = unbounded.
    entitlement: Option<usize>,
    /// Rows older than this are evicted when a new row arrives at the
    /// entitlement boundary. One-time senders (e.g. nodes that briefly
    /// selected us as a failover rendezvous) would otherwise accumulate
    /// rows forever; a stale row is useless to the kernel, so shedding
    /// it is free.
    stale_after: Option<f64>,
    /// Live entries held across all rows — what
    /// [`entry_count`](LinkStateStore::entry_count) returns — kept
    /// current by every path that adds, replaces or evicts a row, so the
    /// size gauge costs `O(1)` per merged row.
    live_entries: usize,
    /// [`LaneRow::held_bytes`] summed over all rows, kept current beside
    /// `live_entries` — what the `row_bytes_lanes` gauge reads.
    held_bytes: usize,
    telemetry: Telemetry,
    rows_merged: Counter,
    rows_evicted: Counter,
    rows_held: Gauge,
    row_bytes_lanes: Gauge,
}

impl RowStore {
    /// An empty, unbounded store over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::on(n, Telemetry::disabled())
    }

    /// An empty, unbounded store over `n` nodes whose cells are
    /// registered on `telemetry`.
    fn on(n: usize, telemetry: Telemetry) -> Self {
        let rows_merged = telemetry.counter("linkstate", "rows_merged");
        let rows_evicted = telemetry.counter("linkstate", "rows_evicted");
        let rows_held = telemetry.gauge("linkstate", "rows_held");
        let row_bytes_lanes = telemetry.gauge("linkstate", "row_bytes_lanes");
        RowStore {
            n,
            rows: BTreeMap::new(),
            entitlement: None,
            stale_after: None,
            live_entries: 0,
            held_bytes: 0,
            telemetry,
            rows_merged,
            rows_evicted,
            rows_held,
            row_bytes_lanes,
        }
    }

    /// Refresh the held-rows gauge and the stored lane bytes — the
    /// memory figure the scale study exports.
    fn update_size_gauges(&self) {
        self.rows_held.set(self.rows.len() as u64);
        self.row_bytes_lanes.set(self.held_bytes as u64);
    }

    /// Count one merged row (counter + size gauges).
    fn note_merge(&mut self) {
        self.rows_merged.inc();
        self.update_size_gauges();
    }

    /// An empty store, reporting into `telemetry`, that keeps
    /// `row_count ≤ max_rows` — the `O(√n)` entitlement guard. When a
    /// row from a new origin arrives at the boundary, rows older than
    /// `stale_after` (the staleness window: stale rows are dead weight
    /// the kernel already ignores) are evicted first; if every held row
    /// is fresh the newcomer is refused ([`LinkStateStore::put_row`]
    /// returns `false`) and counted in `linkstate/rows_rejected`, in
    /// release builds as in debug ones: bytes from the network cannot
    /// grow a node's state past its role.
    #[must_use]
    pub fn with_entitlement(
        n: usize,
        max_rows: usize,
        stale_after: f64,
        telemetry: Telemetry,
    ) -> Self {
        RowStore {
            entitlement: Some(max_rows),
            stale_after: Some(stale_after),
            ..RowStore::on(n, telemetry)
        }
    }

    /// Empty the store for a new index space of `n` nodes entitled to
    /// `max_rows` rows, as a membership change calls for: no row. What
    /// it reports into and the staleness window
    /// stay. Indistinguishable afterwards from
    /// [`RowStore::with_entitlement`] on the same registry.
    pub fn reset(&mut self, n: usize, max_rows: usize) {
        self.n = n;
        self.rows.clear();
        self.entitlement = Some(max_rows);
        self.live_entries = 0;
        self.held_bytes = 0;
    }

    /// Every held row as `(origin, receipt time, the shared lanes)`,
    /// ascending by origin: every row leaves the store, which holds
    /// nothing afterwards. The owner of a store
    /// calls this on a membership change, [`reset`](Self::reset)s it
    /// for the new index space and puts back what it keeps.
    pub fn drain(&mut self) -> impl Iterator<Item = (NodeIdx, f64, Arc<LaneRow>)> {
        self.live_entries = 0;
        self.held_bytes = 0;
        std::mem::take(&mut self.rows)
            .into_iter()
            .map(|(origin, s)| (origin, s.received_at, s.lanes))
    }

    /// Row `origin` as held — lanes, seqno and retraction lane — when
    /// present.
    #[must_use]
    pub fn row(&self, origin: NodeIdx) -> Option<&LaneRow> {
        self.rows.get(&origin).map(|s| &*s.lanes)
    }

    /// The configured entitlement, if any.
    #[must_use]
    pub fn entitlement(&self) -> Option<usize> {
        self.entitlement
    }

    /// Make room for an insert at `now`: at the entitlement boundary,
    /// shed rows the staleness window has already invalidated.
    fn evict_stale(&mut self, now: f64) {
        if let (Some(limit), Some(window)) = (self.entitlement, self.stale_after) {
            if self.rows.len() >= limit {
                let stale: Vec<NodeIdx> = self
                    .rows
                    .iter()
                    .filter(|(_, r)| now - r.received_at > window)
                    .map(|(&origin, _)| origin)
                    .collect();
                for origin in stale {
                    if let Some(row) = self.rows.remove(&origin) {
                        self.live_entries -= row.lanes.len();
                        self.held_bytes -= row.lanes.held_bytes();
                    }
                    self.rows_evicted.inc();
                }
                self.update_size_gauges();
            }
        }
    }
}

impl LinkStateStore for RowStore {
    fn len(&self) -> usize {
        self.n
    }

    fn put_row(&mut self, origin: NodeIdx, row: Arc<LaneRow>, now: f64) -> bool {
        assert!(origin.get() < self.n, "row {origin:?} out of range");
        assert!(
            row.dst.last().is_none_or(|&d| d.get() < self.n),
            "row destination out of range"
        );
        // One map walk serves the replay check and the replace.
        match self.rows.get_mut(&origin) {
            Some(slot) => {
                let held = slot.lanes.seqno();
                if row.seqno() != 0 && held != 0 && seqno_newer(row.seqno(), held) {
                    return false;
                }
                self.live_entries = self.live_entries - slot.lanes.len() + row.len();
                self.held_bytes = self.held_bytes - slot.lanes.held_bytes() + row.held_bytes();
                slot.lanes = row;
                slot.received_at = now;
            }
            None => {
                self.evict_stale(now);
                if self
                    .entitlement
                    .is_some_and(|limit| self.rows.len() >= limit)
                {
                    // Every held row is fresh: a quorum node's state
                    // stays O(√n) whatever the network sends. The cell
                    // is registered by the first refusal: no run of
                    // ours has one, and a store that never refuses
                    // costs what it did without the counter.
                    self.telemetry.counter("linkstate", "rows_rejected").inc();
                    return false;
                }
                self.live_entries += row.len();
                self.held_bytes += row.held_bytes();
                self.rows.insert(
                    origin,
                    StoredRow {
                        received_at: now,
                        lanes: row,
                    },
                );
            }
        }
        self.note_merge();
        true
    }

    fn row_seqno(&self, origin: NodeIdx) -> u16 {
        self.rows.get(&origin).map_or(0, |s| s.lanes.seqno())
    }

    fn row_retracts(&self, origin: NodeIdx, dst: NodeIdx) -> bool {
        self.rows
            .get(&origin)
            .is_some_and(|s| s.lanes.retracted().binary_search(&dst).is_ok())
    }

    fn row_ref(&self, origin: NodeIdx) -> Option<RowRef<'_>> {
        self.rows.get(&origin).map(|s| s.lanes.as_row_ref(self.n))
    }

    fn row_time(&self, origin: NodeIdx) -> Option<f64> {
        self.rows.get(&origin).map(|s| s.received_at)
    }

    fn held_rows(&self) -> impl Iterator<Item = (NodeIdx, f64, RowRef<'_>)> {
        self.rows
            .iter()
            .map(|(&origin, s)| (origin, s.received_at, s.lanes.as_row_ref(self.n)))
    }

    fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn entry_count(&self) -> usize {
        self.live_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index `i` of the widest view.
    fn ix(i: usize) -> NodeIdx {
        NodeIdx::new(i, MAX_WIDTH).expect("an index")
    }

    fn ixs(indices: &[usize]) -> Vec<NodeIdx> {
        indices.iter().map(|&i| ix(i)).collect()
    }

    fn live_row(costs: &[u16]) -> Vec<LinkEntry> {
        costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect()
    }

    /// Ingest a full-width row the way every caller does: reduce to
    /// lanes, then `put_row`.
    fn put(s: &mut RowStore, origin: usize, entries: &[LinkEntry], now: f64) {
        s.put_row(ix(origin), Arc::new(LaneRow::from_dense(entries)), now);
    }

    /// One pair through the round-two kernel: a tick whose only client
    /// is `a`, at server `b`.
    fn one_pair(s: &RowStore, a: usize, b: usize, now: f64, max_age: f64) -> Option<(usize, u32)> {
        let pair = s.round_two(&[ix(a)], ix(b), now, max_age).get(0, 1);
        pair.map(|(hop, cost)| (hop.get(), cost))
    }

    fn store_of(rows: &[&[u16]], now: f64) -> RowStore {
        let mut s = RowStore::new(rows.len());
        for (i, row) in rows.iter().enumerate() {
            put(&mut s, i, &live_row(row), now);
        }
        s
    }

    /// A 4-node world where 0→3 direct is 500 ms but 0→1→3 is 150 ms,
    /// every row received at t = 10.
    fn detour_store() -> RowStore {
        store_of(
            &[
                &[0, 50, 200, 500],
                &[50, 0, 80, 100],
                &[200, 80, 0, 90],
                &[500, 100, 90, 0],
            ],
            10.0,
        )
    }

    #[test]
    fn best_one_hop_finds_detour() {
        let s = detour_store();
        assert_eq!(one_pair(&s, 0, 3, 11.0, 45.0), Some((1, 150)));
    }

    #[test]
    fn best_one_hop_prefers_direct_on_tie() {
        let s = store_of(&[&[0, 50, 100], &[50, 0, 50], &[100, 50, 0]], 0.0);
        // 0→2 direct = 100 = 0→1→2; prefer direct (hop == dst).
        assert_eq!(one_pair(&s, 0, 2, 1.0, 45.0), Some((2, 100)));
    }

    #[test]
    fn best_one_hop_requires_fresh_rows() {
        let s = detour_store();
        // Rows stamped at t=10; at now=100 with max_age=45 they're stale.
        assert!(one_pair(&s, 0, 3, 100.0, 45.0).is_none());
        assert!(one_pair(&s, 0, 3, 55.0, 45.0).is_some());
    }

    #[test]
    fn best_one_hop_missing_row_is_none() {
        let mut s = RowStore::new(3);
        put(&mut s, 0, &live_row(&[0, 10, 10]), 0.0);
        assert!(one_pair(&s, 0, 2, 0.0, 45.0).is_none());
    }

    #[test]
    fn best_one_hop_skips_dead_links() {
        let mut s = detour_store();
        // Kill 0→1 (in 0's row): detour must shift to hop 2 (200+90=290).
        let held = s.row(ix(0)).expect("held").without(ix(1));
        s.put_row(ix(0), Arc::new(held), 10.0);
        assert_eq!(one_pair(&s, 0, 3, 11.0, 45.0), Some((2, 290)));
    }

    #[test]
    fn best_one_hop_uses_min_direction_for_direct() {
        let s = store_of(&[&[0, 300], &[200, 0]], 0.0);
        assert_eq!(one_pair(&s, 0, 1, 0.0, 45.0), Some((1, 200)));
    }

    #[test]
    fn all_dead_returns_none() {
        let mut s = RowStore::new(3);
        put(&mut s, 0, &[LinkEntry::dead(); 3], 0.0);
        put(&mut s, 2, &[LinkEntry::dead(); 3], 0.0);
        assert!(one_pair(&s, 0, 2, 0.0, 45.0).is_none());
    }

    #[test]
    fn one_hop_options_sorted() {
        let s = detour_store();
        assert_eq!(
            s.one_hop_options(ix(0), ix(3), 11.0, 45.0),
            vec![(ix(1), 150), (ix(2), 290)]
        );
    }

    #[test]
    fn anyone_reaches_sees_live_entries() {
        let mut s = RowStore::new(3);
        assert!(!s.anyone_reaches(ix(2), 0.0, 45.0));
        put(&mut s, 1, &live_row(&[10, 0, 10]), 0.0);
        assert!(s.anyone_reaches(ix(2), 1.0, 45.0));
        // Staleness disqualifies.
        assert!(!s.anyone_reaches(ix(2), 100.0, 45.0));
        // A dead entry doesn't count.
        let mut dead_row = live_row(&[10, 0, 10]);
        dead_row[2] = LinkEntry::dead();
        put(&mut s, 1, &dead_row, 200.0);
        assert!(!s.anyone_reaches(ix(2), 201.0, 45.0));
    }

    #[test]
    fn row_age_tracking() {
        let mut s = RowStore::new(2);
        assert_eq!(s.row_age(ix(0), 5.0), None);
        put(&mut s, 0, &live_row(&[0, 5]), 3.0);
        assert_eq!(s.row_age(ix(0), 5.0), Some(2.0));
        assert!(s.row_fresh(ix(0), 5.0, 2.0));
        assert!(!s.row_fresh(ix(0), 5.1, 2.0));
    }

    #[test]
    fn sparse_holds_only_received_rows() {
        let mut s = RowStore::new(100);
        assert_eq!(s.row_count(), 0);
        assert_eq!(s.entry_count(), 0);
        put(&mut s, 7, &vec![LinkEntry::dead(); 100], 1.0);
        put(&mut s, 42, &vec![LinkEntry::dead(); 100], 2.0);
        assert_eq!(s.row_count(), 2);
        // All-dead rows are present (they have a receipt time) but
        // materialise zero entries — absent reads as dead.
        assert_eq!(s.entry_count(), 0);
        assert_eq!(s.present_rows(), ixs(&[7, 42]));
        assert_eq!(s.row_time(ix(7)), Some(1.0));
        assert_eq!(s.row_time(ix(8)), None);
        assert!(s.row_ref(ix(8)).is_none());
        // Absent rows read as dead.
        assert_eq!(s.cost(ix(8), ix(9)), INFINITE_COST);
        assert_eq!(s.cost(ix(8), ix(8)), 0);
        // Refreshing a row does not grow the store.
        put(&mut s, 7, &vec![LinkEntry::dead(); 100], 3.0);
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.row_time(ix(7)), Some(3.0));
    }

    #[test]
    fn rows_store_live_entries_only() {
        let mut s = RowStore::new(100);
        let mut row = vec![LinkEntry::dead(); 100];
        row[3] = LinkEntry::live(10, 0.0);
        row[64] = LinkEntry::live(20, 0.01);
        put(&mut s, 7, &row, 1.0);
        assert_eq!(s.entry_count(), 2, "dense input reduced to live entries");
        assert_eq!(
            s.row(ix(7)).unwrap().lanes(),
            (&ixs(&[3, 64])[..], &[10, 20][..])
        );
        assert_eq!(s.cost(ix(7), ix(64)), 20);
        assert_eq!(s.cost(ix(7), ix(4)), INFINITE_COST);
        // A row built from its live pairs stores the same thing.
        let mut t = RowStore::new(100);
        let pairs = [
            (ix(3), LinkEntry::live(10, 0.0)),
            (ix(64), LinkEntry::live(20, 0.01)),
        ];
        t.put_row(ix(7), Arc::new(LaneRow::from_pairs(&pairs)), 1.0);
        assert_eq!(t.row(ix(7)), s.row(ix(7)));
        assert_eq!(t.entry_count(), 2);
    }

    /// Relabelling equals widening, moving by the table and reducing
    /// again — entries and retractions alike; a destination the table
    /// does not name (or does not reach) leaves. The seqno does not
    /// cross: the relabelled row is unversioned, so a store holding it
    /// takes the origin's next row whatever that row's seqno.
    #[test]
    fn relabelled_row_equals_the_widened_and_reduced_one() {
        let mut wide = vec![LinkEntry::dead(); 8];
        wide[0] = LinkEntry::live(10, 0.0);
        wide[3] = LinkEntry::live(33, 0.125);
        wide[4] = LinkEntry::live(u16::MAX, 0.635);
        wide[7] = LinkEntry::live(77, 0.01);
        let row = LaneRow::from_dense(&wide).with_version(9, &ixs(&[1, 3, 7]));
        // Old 0→0, 1→1, 2 leaves, 3→2, 4→3, 5→4, 6 leaves; 7 is beyond
        // the table.
        let map = [Some(0), Some(1), None, Some(2), Some(3), Some(4), None].map(|i| i.map(ix));
        let moved = row.relabelled(&map);
        let mut want = vec![LinkEntry::dead(); 5];
        for (old, new) in map.iter().enumerate() {
            if let Some(new) = new {
                want[new.get()] = wide[old];
            }
        }
        assert_eq!(
            moved,
            LaneRow::from_dense(&want).with_version(0, &ixs(&[1, 2]))
        );
        assert_eq!(moved.lanes().0, ixs(&[0, 2, 3]));
        assert_eq!(moved.seqno(), 0);
        let mut s = RowStore::new(5);
        assert!(s.put_row(ix(1), Arc::new(moved), 1.0));
        let next = LaneRow::from_dense(&want).with_version(1, &[]);
        assert!(
            s.put_row(ix(1), Arc::new(next), 2.0),
            "seqno 1 < 9 replaces it"
        );
        assert_eq!(s.row_seqno(ix(1)), 1);
        // Nothing to rename: the same row, unversioned.
        let identity: Vec<Option<NodeIdx>> = (0..8).map(|i| Some(ix(i))).collect();
        assert_eq!(
            row.relabelled(&identity),
            row.clone().with_version(0, &ixs(&[1, 3, 7]))
        );
    }

    /// A full row — live to every destination `0..k` — is one row
    /// however it was built: reduced from a dense row, collected from
    /// pairs, decoded from either frame form, or relabelled through a
    /// table that renames nothing. Each borrows the identity lane (the
    /// very same slice), holds 2 bytes an entry, and equals the others.
    #[test]
    fn a_full_row_borrows_the_identity_lane_however_it_was_built() {
        use crate::wire::{LinkStateMsg, Message};
        use apor_quorum::NodeId;
        let k = 70usize;
        let entries: Vec<LinkEntry> = (0..k)
            .map(|d| LinkEntry::live(d as u16 * 3, 0.01))
            .collect();
        let pairs: Vec<(NodeIdx, LinkEntry)> =
            (0..k).map(ix).zip(entries.iter().copied()).collect();
        let dense = LaneRow::from_dense(&entries).with_version(4, &ixs(&[2, 69]));
        let mut built = vec![LaneRow::from_pairs(&pairs).with_version(4, &ixs(&[2, 69]))];
        let frame = LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            round: 0,
            basis_ms: 0,
            width: k as u16,
            row: Arc::new(dense.clone()),
            liveness_loss: LinkStateMsg::liveness_lane(&entries),
        };
        for msg in [
            Message::LinkState(frame.clone()),
            Message::LinkStateSparse(frame),
        ] {
            let (Message::LinkState(back) | Message::LinkStateSparse(back)) =
                Message::decode(&msg.encode()).expect("decodes")
            else {
                panic!("a link-state frame");
            };
            built.push(LaneRow::clone(&back.row));
        }
        let identity: Vec<Option<NodeIdx>> = (0..k).map(|i| Some(ix(i))).collect();
        let relabelled = dense.relabelled(&identity);
        assert_eq!(relabelled.seqno(), 0, "a relabelled row is unversioned");
        assert_eq!(relabelled.retracted(), ixs(&[2, 69]));
        built.push(relabelled.with_version(4, &ixs(&[2, 69])));
        for row in &built {
            assert_eq!(*row, dense);
            assert!(matches!(row.dst, DstLane::Full(len) if len == k));
            assert!(std::ptr::eq(row.lanes().0, dense.lanes().0));
            assert_eq!(row.held_bytes(), 2 * k + 2 * 2);
        }
        assert_eq!(dense.lanes().0, (0..k).map(ix).collect::<Vec<_>>());
        // Listed anew, the lane is the shared form again.
        let listed = dense.lanes().0.to_vec();
        assert!(matches!(DstLane::from(listed), DstLane::Full(len) if len == k));
        // Dropping the tail keeps a (shorter) full row; dropping from
        // the middle does not.
        let mut shorter = identity.clone();
        shorter[k - 1] = None;
        assert!(matches!(dense.relabelled(&shorter).dst, DstLane::Full(len) if len == k - 1));
        let mut holed = identity;
        holed[5] = None;
        assert!(matches!(dense.relabelled(&holed).dst, DstLane::Listed(_)));
        // Not every lane that starts at 0 is full, and an empty one is.
        assert!(matches!(DstLane::from(ixs(&[0, 1, 3])), DstLane::Listed(_)));
        assert!(matches!(DstLane::from(ixs(&[1])), DstLane::Listed(_)));
        assert!(matches!(DstLane::from(vec![]), DstLane::Full(0)));
        assert_eq!(
            LaneRow::from_dense(&[LinkEntry::dead(); 3]),
            LaneRow::default()
        );
    }

    /// A full row that loses an entry is the listed row it always was —
    /// the same as reducing the dense row with that entry dead — and
    /// owns its destinations from then on: 4 bytes an entry, even when
    /// what is left reads `0..k`. Seqno and retraction lane stay, and a
    /// row without the entry is the row itself.
    #[test]
    fn a_full_row_that_loses_an_entry_lists_its_destinations() {
        let entries = live_row(&[7, 8, 9, 10, 11, 12]);
        let full = LaneRow::from_dense(&entries).with_version(3, &ixs(&[9]));
        for dead_at in [0usize, 3, 5] {
            let row = full.without(ix(dead_at));
            let mut want = entries.clone();
            want[dead_at] = LinkEntry::dead();
            assert_eq!(
                row,
                LaneRow::from_dense(&want).with_version(3, &ixs(&[9])),
                "dead at {dead_at}"
            );
            assert!(matches!(row.dst, DstLane::Listed(_)));
            assert_eq!(row.held_bytes(), 4 * 5 + 2);
            let costs: Vec<u32> = (0..6).map(|d| row.as_row_ref(6).cost(ix(d))).collect();
            assert_eq!(costs, want.iter().map(LinkEntry::cost).collect::<Vec<_>>());
            assert_eq!(row.without(ix(dead_at)), row, "nothing left to lose");
        }
        assert_eq!(full.held_bytes(), 2 * 6 + 2);
    }

    /// Partial rows: only the intersection of the two live sets can
    /// relay, and with no row from a relay nothing can be scavenged.
    #[test]
    fn kernel_on_partial_rows() {
        let mut s = RowStore::new(12);
        // Row 0: live to {1, 3, 5, 7}; row 9: live to {3, 4, 7, 11}.
        let row = |pairs: &[(usize, u16)]| -> Arc<LaneRow> {
            let pairs: Vec<(NodeIdx, LinkEntry)> = pairs
                .iter()
                .map(|&(d, c)| (ix(d), LinkEntry::live(c, 0.0)))
                .collect();
            Arc::new(LaneRow::from_pairs(&pairs))
        };
        s.put_row(ix(0), row(&[(1, 10), (3, 40), (5, 25), (7, 60)]), 1.0);
        s.put_row(ix(9), row(&[(3, 15), (4, 5), (7, 30), (11, 80)]), 1.0);
        // Best hop is the live-intersection minimum: h=3 (40+15=55)
        // beats h=7 (60+30=90); no direct link exists.
        assert_eq!(one_pair(&s, 0, 9, 2.0, 45.0), Some((3, 55)));
        assert!(s.one_hop_options(ix(0), ix(9), 2.0, 45.0).is_empty());
        // Once relay 3's own row arrives, scavenging sees it.
        s.put_row(ix(3), row(&[(0, 40), (9, 20)]), 1.0);
        assert_eq!(
            s.one_hop_options(ix(0), ix(9), 2.0, 45.0),
            vec![(ix(3), 60)]
        );
    }

    #[test]
    fn one_hop_options_skip_stale_and_absent_relays() {
        // The detour world without relay 1's row.
        let mut s = RowStore::new(4);
        put(&mut s, 0, &live_row(&[0, 50, 200, 500]), 10.0);
        put(&mut s, 2, &live_row(&[200, 80, 0, 90]), 10.0);
        put(&mut s, 3, &live_row(&[500, 100, 90, 0]), 10.0);
        let opts = s.one_hop_options(ix(0), ix(3), 11.0, 45.0);
        assert_eq!(opts, vec![(ix(2), 290)]);
        // A stale relay row disqualifies too.
        put(&mut s, 2, &live_row(&[200, 80, 0, 90]), -100.0);
        assert!(s.one_hop_options(ix(0), ix(3), 11.0, 45.0).is_empty());
    }

    #[test]
    fn capacity_pressure_evicts_stale_rows_first() {
        let mut s = RowStore::with_entitlement(10, 2, 45.0, Telemetry::disabled());
        assert_eq!(s.entitlement(), Some(2));
        put(&mut s, 0, &[LinkEntry::dead(); 10], 0.0);
        put(&mut s, 1, &[LinkEntry::dead(); 10], 50.0);
        // At t=100, row 0 (age 100) and row 1 (age 50) are both stale:
        // a new arrival at the boundary sheds them instead of tripping
        // the entitlement assertion.
        put(&mut s, 2, &[LinkEntry::dead(); 10], 100.0);
        assert_eq!(s.present_rows(), ixs(&[2]));
        // A fresh row is never evicted by pressure.
        put(&mut s, 3, &[LinkEntry::dead(); 10], 101.0);
        assert_eq!(s.present_rows(), ixs(&[2, 3]));
    }

    /// All rows fresh: eviction frees nothing, so a third origin is
    /// turned away — in release builds too — and counted, while the
    /// origins already held keep refreshing. Once a held row goes stale
    /// the newcomer takes its place.
    #[test]
    fn a_row_beyond_the_entitlement_is_refused_and_counted() {
        let telemetry = Telemetry::new(3);
        let mut s = RowStore::with_entitlement(10, 2, 45.0, telemetry.clone());
        let row = |cost: u16| Arc::new(LaneRow::from_dense(&live_row(&[cost; 10])));
        assert!(s.put_row(ix(0), row(1), 1.0));
        assert!(s.put_row(ix(1), row(2), 1.0));
        let before = (s.entry_count(), s.held_bytes);
        assert!(
            !s.put_row(ix(2), row(3), 2.0),
            "a third fresh origin is refused"
        );
        assert_eq!(s.present_rows(), ixs(&[0, 1]));
        assert_eq!((s.entry_count(), s.held_bytes), before);
        assert!(
            s.put_row(ix(1), row(4), 3.0),
            "a held origin still refreshes"
        );
        assert_eq!(s.cost(ix(1), ix(5)), 4);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(3, "linkstate", "rows_rejected"), Some(1));
        assert_eq!(snap.counter(3, "linkstate", "rows_merged"), Some(3));
        assert_eq!(snap.gauge(3, "linkstate", "rows_held"), Some(2));
        // Row 0 (t = 1) is stale at t = 47, row 1 (t = 3) is not.
        assert!(s.put_row(ix(2), row(3), 47.0));
        assert_eq!(s.present_rows(), ixs(&[1, 2]));
    }

    #[test]
    fn telemetry_counts_merges_and_evictions() {
        let telemetry = Telemetry::new(7);
        let mut s = RowStore::with_entitlement(10, 2, 45.0, telemetry.clone());
        put(&mut s, 0, &[LinkEntry::dead(); 10], 0.0);
        put(&mut s, 1, &[LinkEntry::dead(); 10], 50.0);
        // Both prior rows are stale at t=100: the boundary insert
        // sheds them, and every arrival counted as a merge.
        put(&mut s, 2, &[LinkEntry::dead(); 10], 100.0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(7, "linkstate", "rows_merged"), Some(3));
        assert_eq!(snap.counter(7, "linkstate", "rows_evicted"), Some(2));
        assert_eq!(snap.gauge(7, "linkstate", "rows_held"), Some(1));
    }

    /// The running totals behind `entry_count` and the size gauge —
    /// live entries, and the bytes the rows own — equal a recount of the
    /// held rows after every kind of mutation: insert, whole-row replace
    /// (growing and shrinking), a row losing an entry and having another
    /// repriced, row creation, and eviction under capacity pressure. A full
    /// row counts 2 bytes an entry, a listed one 4, a retraction 2.
    #[test]
    fn live_entry_total_tracks_recount() {
        let telemetry = Telemetry::new(1);
        let mut s = RowStore::with_entitlement(10, 3, 45.0, telemetry.clone());
        let check = |s: &RowStore, step: &str, bytes: usize| {
            let recount: usize = s.rows.values().map(|r| r.lanes.lanes().0.len()).sum();
            assert_eq!(s.entry_count(), recount, "{step}");
            let held: usize = s.rows.values().map(|r| r.lanes.held_bytes()).sum();
            assert_eq!(held, bytes, "{step}");
            let snap = telemetry.snapshot();
            assert_eq!(
                snap.gauge(1, "linkstate", "row_bytes_lanes"),
                Some(bytes as u64),
                "{step}"
            );
        };
        put(&mut s, 0, &live_row(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]), 0.0);
        check(&s, "insert, a full row", 10 * 2);
        let one = |dst: usize, cost: u16| {
            Arc::new(LaneRow::from_pairs(&[(
                ix(dst),
                LinkEntry::live(cost, 0.0),
            )]))
        };
        s.put_row(ix(0), one(3, 7), 1.0);
        check(&s, "replace, shrinking to a listed row", 4);
        let versioned = LaneRow::from_dense(&live_row(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]))
            .with_version(1, &ixs(&[2]));
        s.put_row(ix(0), Arc::new(versioned), 2.0);
        check(&s, "replace, growing, one retraction", 10 * 2 + 2);
        let mut nine = live_row(&[0, 1, 2, 3, 4, 50, 6, 7, 8, 9]);
        nine[4] = LinkEntry::dead();
        let nine = LaneRow::from_dense(&nine).with_version(1, &ixs(&[2]));
        s.put_row(ix(0), Arc::new(nine), 3.0);
        check(&s, "entry killed: the row lists its 9", 9 * 4 + 2);
        s.put_row(ix(1), one(2, 9), 4.0);
        s.put_row(ix(2), Arc::new(LaneRow::default()), 4.0);
        check(&s, "rows created", 9 * 4 + 2 + 4);
        assert_eq!(s.entry_count(), 10);
        // Rows 0–2 are stale at t = 100: a fourth origin arriving at the
        // entitlement boundary sheds all three.
        s.put_row(ix(7), one(1, 5), 100.0);
        assert_eq!(s.present_rows(), ixs(&[7]));
        check(&s, "evict", 4);
        assert_eq!(s.entry_count(), 1);
    }

    /// The cursor agrees with fresh `cost` lookups, and both with the
    /// dense row, under any probe order — ascending (the fast path),
    /// backwards (the binary search fallback), repeats, and misses.
    #[test]
    fn cursor_matches_fresh_lookups_in_any_order() {
        let n = 12;
        let mut row = vec![LinkEntry::dead(); n];
        for d in [1usize, 4, 5, 9, 11] {
            row[d] = LinkEntry::live(10 * d as u16, 0.01);
        }
        let lanes = LaneRow::from_dense(&row);
        let view = lanes.as_row_ref(n);
        let probes = [0usize, 1, 4, 4, 9, 11, 2, 5, 10, 0, 11, 3];
        let mut cur = view.cursor();
        for &d in &probes {
            assert_eq!(cur.cost(ix(d)), view.cost(ix(d)), "cost({d}) via cursor");
            assert_eq!(view.cost(ix(d)), row[d].cost());
        }
    }

    /// Lane rows store the exact wire latencies: building from entries
    /// that need wire clamping (latency 65535, off-grid loss) equals
    /// building from their decoded wire forms, and a dead entry is not
    /// held at all.
    #[test]
    fn lane_rows_are_wire_exact() {
        let row = vec![
            LinkEntry::live(u16::MAX, 0.123), // latency clamps to 65534
            LinkEntry::dead(),
            LinkEntry::live(0, 0.9999), // loss saturates at 63.5 %
        ];
        let wired: Vec<LinkEntry> = row.iter().map(|e| LinkEntry::decode(e.encode())).collect();
        assert_eq!(LaneRow::from_dense(&row), LaneRow::from_dense(&wired));
        let lanes = LaneRow::from_dense(&row);
        assert_eq!(lanes.lanes(), (&ixs(&[0, 2])[..], &[u16::MAX - 1, 0][..]));
        let view = lanes.as_row_ref(3);
        assert_eq!(view.cost(ix(0)), LinkEntry::decode(row[0].encode()).cost());
        assert_eq!(view.cost(ix(1)), INFINITE_COST);
    }

    #[test]
    fn seqno_comparison_is_circular() {
        assert!(seqno_newer(1, 2));
        assert!(!seqno_newer(2, 1));
        assert!(!seqno_newer(5, 5));
        // Wrap-around: 2 is newer than 65535, not 32767 behind it.
        assert!(seqno_newer(u16::MAX, 2));
        assert!(!seqno_newer(2, u16::MAX));
    }

    #[test]
    fn versioned_updates_reject_stale_replays() {
        let n = 4;
        let mut s = RowStore::new(n);
        let full = |costs: &[u16], seqno: u16| {
            Arc::new(LaneRow::from_dense(&live_row(costs)).with_version(seqno, &[]))
        };
        assert!(s.put_row(ix(0), full(&[0, 10, 20, 30], 5), 1.0));
        assert_eq!(s.row_seqno(ix(0)), 5);
        // Same seqno refreshes (periodic re-announcement), newer advances.
        assert!(s.put_row(ix(0), full(&[0, 11, 20, 30], 5), 2.0));
        assert_eq!(s.row_time(ix(0)), Some(2.0));
        let retracting =
            LaneRow::from_pairs(&[(ix(1), LinkEntry::live(9, 0.0))]).with_version(6, &ixs(&[2]));
        assert!(s.put_row(ix(0), Arc::new(retracting), 3.0));
        assert_eq!(s.row_seqno(ix(0)), 6);
        assert!(s.row_retracts(ix(0), ix(2)));
        assert!(!s.row_retracts(ix(0), ix(1)));
        // A delayed replay of the older row must not resurrect dst 2.
        assert!(!s.put_row(ix(0), full(&[0, 10, 20, 30], 5), 4.0));
        assert_eq!(s.row_seqno(ix(0)), 6);
        assert_eq!(
            s.row_time(ix(0)),
            Some(3.0),
            "rejected replay leaves the row"
        );
        assert_eq!(s.cost(ix(0), ix(2)), INFINITE_COST);
        assert_eq!(s.entry_count(), 1, "and the running total");
        // Unversioned rows (seqno 0) always pass — no flag day.
        assert!(s.put_row(ix(0), full(&[0, 10, 20, 30], 0), 5.0));
        assert_eq!(s.row_seqno(ix(0)), 0);
        assert!(!s.row_retracts(ix(0), ix(2)));
    }

    /// The store keeps the row it is handed, not a copy — the frame
    /// path's zero-copy ingest — and a link death, written as the held
    /// row without that entry, lets go of the shared row and leaves the
    /// other holder's row alone.
    #[test]
    fn put_row_shares_the_row_until_an_entry_update() {
        let mut s = RowStore::new(4);
        let row = Arc::new(LaneRow::from_dense(&live_row(&[0, 10, 20, 30])));
        assert!(s.put_row(ix(2), Arc::clone(&row), 1.0));
        assert_eq!(Arc::strong_count(&row), 2, "stored, not copied");
        let held = s.row(ix(2)).expect("held").without(ix(3));
        s.put_row(ix(2), Arc::new(held), 2.0);
        assert_eq!(Arc::strong_count(&row), 1, "the store let go of it");
        assert_eq!(row.len(), 4, "the frame's row is untouched");
        assert_eq!(s.entry_count(), 3);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn put_row_destination_bounds_checked() {
        let wide = LaneRow::from_pairs(&[(ix(7), LinkEntry::live(1, 0.0))]);
        RowStore::new(4).put_row(ix(0), Arc::new(wide), 0.0);
    }

    /// `k_hop_options` with one hop is `one_hop_options`, option for
    /// option; with more hops it splices paths scavenging can't see.
    #[test]
    fn k_hop_options_generalize_one_hop() {
        let n = 5;
        let mut s = RowStore::new(n);
        // A chain 0 → 1 → 2 → 3 → 4 plus a dead-end shortcut 0 → 2.
        let inf = u16::MAX;
        let rows: &[&[u16]] = &[
            &[0, 10, 50, inf, inf],
            &[10, 0, 10, inf, inf],
            &[50, 10, 0, 10, inf],
            &[inf, inf, 10, 0, 10],
            &[inf, inf, inf, 10, 0],
        ];
        for (origin, costs) in rows.iter().enumerate() {
            let entries: Vec<LinkEntry> = costs
                .iter()
                .map(|&c| {
                    if c == inf {
                        LinkEntry::dead()
                    } else {
                        LinkEntry::live(c, 0.0)
                    }
                })
                .collect();
            put(&mut s, origin, &entries, 10.0);
        }
        // k = 1 parity with the scavenging kernel.
        for (a, b) in [(0, 2), (0, 4), (1, 3), (2, 0)] {
            let one = s.one_hop_options(ix(a), ix(b), 10.5, 45.0);
            let k: Vec<(NodeIdx, u32)> = s
                .k_hop_options(ix(a), ix(b), 1, 10.5, 45.0)
                .into_iter()
                .map(|d| {
                    assert_eq!(d.path.len(), 3);
                    assert_eq!((d.path[0], d.path[2]), (ix(a), ix(b)));
                    (d.path[1], d.cost)
                })
                .collect();
            assert_eq!(one, k, "pair ({a},{b})");
        }
        // 0 → 4 needs at least two intermediate relays; 1-hop scavenging
        // finds nothing, 2-hop pays the expensive 0 → 2 link, 3-hop
        // routes around it.
        assert!(s.k_hop_options(ix(0), ix(4), 1, 10.5, 45.0).is_empty());
        let two = s.k_hop_options(ix(0), ix(4), 2, 10.5, 45.0);
        assert_eq!(
            (&two[0].path[..], two[0].cost),
            (&ixs(&[0, 2, 3, 4])[..], 70)
        );
        let opts = s.k_hop_options(ix(0), ix(4), 3, 10.5, 45.0);
        assert_eq!(opts[0].path, ixs(&[0, 1, 2, 3, 4]));
        assert_eq!(opts[0].cost, 40);
        assert_eq!(opts[0].advertised, 30, "cost the first relay advertises");
        // Wider budgets don't invent longer paths when shorter ones win.
        assert_eq!(
            s.k_hop_options(ix(0), ix(4), 8, 10.5, 45.0)[0].path,
            ixs(&[0, 1, 2, 3, 4])
        );
        // Paths are simple: no candidate revisits a node.
        for Detour { path, .. } in s.k_hop_options(ix(0), ix(4), 8, 10.5, 45.0) {
            let mut seen = path.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), path.len(), "path {path:?} revisits a node");
        }
    }

    #[test]
    #[should_panic(expected = "row 2 out of range")]
    fn put_row_origin_bounds_checked() {
        put(&mut RowStore::new(2), 2, &live_row(&[0, 1]), 0.0);
    }
}

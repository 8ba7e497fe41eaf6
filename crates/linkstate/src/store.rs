//! The link-state storage abstraction and the sparse row store.
//!
//! The paper's headline result is that quorum-grid rendezvous cuts
//! per-node state and traffic from `O(n²)` to `O(n√n)`: a quorum node
//! receives link-state rows only from its `~2√n` rendezvous clients, so
//! there is no reason for it to *allocate* an `n × n` matrix. This
//! module makes storage honour that bound:
//!
//! * [`LinkStateStore`] — the trait both stores implement. The required
//!   methods are pure storage (put/get/drop rows); the **round-two
//!   kernel** ([`best_one_hop`](LinkStateStore::best_one_hop),
//!   [`round_two`](LinkStateStore::round_two),
//!   [`one_hop_options`](LinkStateStore::one_hop_options),
//!   [`anyone_reaches`](LinkStateStore::anyone_reaches)) is written once
//!   as provided methods, so the dense baseline and the sparse store
//!   run the identical routing computation.
//! * [`RowStore`] — a sparse indexed map `origin → (receipt time, row)`
//!   holding exactly the rows a node's role entitles it to: its own
//!   row plus its rendezvous clients' rows. Each held row is a
//!   [`LaneRow`]: three parallel contiguous lanes (`dst`, `latency_ms`,
//!   liveness/loss) holding only the *live* entries, ascending by
//!   destination, in the wire's own fixed-point quantization — ~5 bytes
//!   per entry where an array of `LinkEntry` structs needs 12. A node
//!   probing `O(√n)` targets therefore stores `O(√n)` entries per row
//!   and `O(n)` overall, far below even the paper's `O(n√n)` wire
//!   bound. An optional row *entitlement* is debug-asserted on insert,
//!   so a protocol bug that re-grows `O(n)` rows fails loudly in tests
//!   instead of silently reintroducing the quadratic table.
//! * [`RowRef`] — a borrowed view of one row: dense, sparse pairs, or
//!   lanes. The round-two kernel is written once over it and is
//!   **integer-only**: the latency lanes are already integer
//!   milliseconds (the wire carries nothing finer), so a path cost is a
//!   `u32` add of two `u16` legs — bit-identical to the historical
//!   `f64` computation, because every `u16` sum is exactly
//!   representable in both domains. It comes in two forms that agree
//!   entry for entry:
//!   * [`best_one_hop_rows`], one pair: an ascending merge-join over
//!     the *live* entries of both rows, which reproduces the dense
//!     `h = 0..n` scan's lowest-index tie-break exactly (dead entries
//!     have infinite cost and can never win, so skipping them is
//!     observationally neutral). It is the single-pair API and the
//!     oracle the tests hold the other form to.
//!   * [`RoundTwo`], a whole tick
//!     ([`round_two`](LinkStateStore::round_two)): every row resolved
//!     and freshness-checked once, each *unordered* pair computed once —
//!     link costs are symmetric, so `a → b` and `b → a` are one
//!     computation — by scattering one row into a dense lane and
//!     gathering over the other's live entries with a branch-free `min`
//!     of `(cost << 16) | hop`, which is the merge-join's tie-break
//!     whatever the visiting order. Under entitled probing every client
//!     probes a different `~2√n` peers, so no two rows list the same
//!     destinations and this is the path production runs.
//!
//!   When both rows of a pair do list the same destinations — every
//!   pair, under full-mesh probing — either form collapses to an
//!   elementwise reduction over the two latency lanes, which the
//!   compiler vectorizes.
//!
//! The dense [`LinkStateTable`](crate::table::LinkStateTable) stays for
//! the full-mesh baseline (which genuinely holds all `n` rows, each
//! dense lookups `O(1)`) and as the reference implementation in tests.

use crate::entry::{Cost, LinkEntry, INFINITE_COST, INFINITE_COST_U32};
use apor_telemetry::{Counter, EventKind, Gauge, Severity, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A borrowed view of one link-state row: dense, sparse pairs, or lanes.
///
/// Sparse rows hold `(dst, entry)` pairs strictly ascending by `dst`;
/// destinations not listed read as [`LinkEntry::dead`]. Lane rows are
/// the struct-of-arrays equivalent (see [`LaneRow`]): three parallel
/// slices in wire quantization, holding **live entries only**. All
/// variants expose `O(1)`/`O(log k)` random access and an ascending
/// iterator over *live* entries, which is all the round-two kernel
/// needs; repeated ascending probes should go through [`RowRef::cursor`]
/// instead of [`RowRef::get`].
#[derive(Debug, Clone, Copy)]
pub enum RowRef<'a> {
    /// A full-width row — every destination has an explicit entry.
    Dense(&'a [LinkEntry]),
    /// Live-entries-only row over a row of `width` destinations.
    Sparse {
        /// Full row width (`n`); destinations ≥ `width` are out of range.
        width: usize,
        /// `(dst, entry)` pairs, strictly ascending by `dst`.
        entries: &'a [(u16, LinkEntry)],
    },
    /// Struct-of-arrays live entries over a row of `width` destinations.
    ///
    /// The three lanes are index-aligned and hold live entries only,
    /// strictly ascending by destination, in the exact wire
    /// quantization ([`LinkEntry::encode`]): `liveness_loss[i]` is the
    /// wire liveness byte (bit 7 always set here), `latency_ms[i]` the
    /// wire latency.
    Lanes {
        /// Full row width (`n`); destinations ≥ `width` are out of range.
        width: usize,
        /// Destination lane, strictly ascending.
        dst: &'a [u16],
        /// Latency lane (integer milliseconds, wire-clamped).
        latency_ms: &'a [u16],
        /// Liveness/loss lane (the exact wire byte).
        liveness_loss: &'a [u8],
    },
}

impl<'a> RowRef<'a> {
    /// Full width of the row (`n`).
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            RowRef::Dense(r) => r.len(),
            RowRef::Sparse { width, .. } | RowRef::Lanes { width, .. } => *width,
        }
    }

    /// The entry for `dst` (dead when not stored).
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    #[must_use]
    pub fn get(&self, dst: usize) -> LinkEntry {
        match self {
            RowRef::Dense(r) => r[dst],
            RowRef::Sparse { width, entries } => {
                assert!(dst < *width, "dst {dst} out of range");
                match entries.binary_search_by_key(&(dst as u16), |e| e.0) {
                    Ok(i) => entries[i].1,
                    Err(_) => LinkEntry::dead(),
                }
            }
            RowRef::Lanes {
                width,
                dst: dsts,
                latency_ms,
                liveness_loss,
            } => {
                assert!(dst < *width, "dst {dst} out of range");
                match dsts.binary_search(&(dst as u16)) {
                    Ok(i) => LinkEntry::from_wire_parts(latency_ms[i], liveness_loss[i]),
                    Err(_) => LinkEntry::dead(),
                }
            }
        }
    }

    /// Routing cost of the `dst` entry as the integer kernel sees it:
    /// the latency lane when alive, [`INFINITE_COST_U32`] otherwise.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    #[must_use]
    pub fn cost_u32(&self, dst: usize) -> u32 {
        match self {
            RowRef::Dense(r) => r[dst].cost_u32(),
            RowRef::Sparse { width, entries } => {
                assert!(dst < *width, "dst {dst} out of range");
                match entries.binary_search_by_key(&(dst as u16), |e| e.0) {
                    Ok(i) => entries[i].1.cost_u32(),
                    Err(_) => INFINITE_COST_U32,
                }
            }
            RowRef::Lanes {
                width,
                dst: dsts,
                latency_ms,
                ..
            } => {
                assert!(dst < *width, "dst {dst} out of range");
                match dsts.binary_search(&(dst as u16)) {
                    Ok(i) => u32::from(latency_ms[i]),
                    Err(_) => INFINITE_COST_U32,
                }
            }
        }
    }

    /// A resumable lookup cursor over this row. Probing destinations in
    /// ascending order costs amortized `O(1)` per probe (the cursor
    /// only ever walks forward); a backwards probe falls back to one
    /// binary search to re-position. [`RowRef::get`] by contrast pays a
    /// fresh `O(log k)` search on every call.
    #[must_use]
    pub fn cursor(&self) -> RowCursor<'a> {
        RowCursor { row: *self, pos: 0 }
    }

    /// Iterate the live entries as `(dst, entry)`, ascending by `dst`.
    #[must_use]
    pub fn iter_live(&self) -> LiveEntries<'a> {
        match self {
            RowRef::Dense(r) => LiveEntries::Dense { row: r, next: 0 },
            RowRef::Sparse { entries, .. } => LiveEntries::Sparse {
                iter: entries.iter(),
            },
            RowRef::Lanes {
                dst,
                latency_ms,
                liveness_loss,
                ..
            } => LiveEntries::Lanes {
                dst,
                latency_ms,
                liveness_loss,
                next: 0,
            },
        }
    }

    /// Iterate the live entries as `(dst, integer cost)`, ascending by
    /// `dst` — the kernel-facing view: no `LinkEntry` (and no `f32`
    /// loss reconstruction) is materialised.
    fn iter_costs(&self) -> LiveCosts<'a> {
        match self {
            RowRef::Dense(r) => LiveCosts::Dense { row: r, next: 0 },
            RowRef::Sparse { entries, .. } => LiveCosts::Sparse {
                iter: entries.iter(),
            },
            RowRef::Lanes {
                dst, latency_ms, ..
            } => LiveCosts::Lanes {
                dst,
                latency_ms,
                next: 0,
            },
        }
    }

    /// Materialise a full-width row (absent entries dead).
    #[must_use]
    pub fn to_dense(&self) -> Vec<LinkEntry> {
        match self {
            RowRef::Dense(r) => r.to_vec(),
            RowRef::Sparse { width, entries } => {
                let mut out = vec![LinkEntry::dead(); *width];
                for &(dst, e) in *entries {
                    out[dst as usize] = e;
                }
                out
            }
            RowRef::Lanes { width, .. } => {
                let mut out = vec![LinkEntry::dead(); *width];
                for (dst, e) in self.iter_live() {
                    out[dst] = e;
                }
                out
            }
        }
    }
}

/// Ascending iterator over the live entries of a [`RowRef`].
#[derive(Debug)]
pub enum LiveEntries<'a> {
    /// Scanning a dense row, skipping dead entries.
    Dense {
        /// The row being scanned.
        row: &'a [LinkEntry],
        /// Next index to examine.
        next: usize,
    },
    /// Walking a sparse row's stored pairs.
    Sparse {
        /// Remaining pairs.
        iter: std::slice::Iter<'a, (u16, LinkEntry)>,
    },
    /// Walking a lane row's parallel slices (live by construction).
    Lanes {
        /// Destination lane.
        dst: &'a [u16],
        /// Latency lane.
        latency_ms: &'a [u16],
        /// Liveness/loss lane (wire byte).
        liveness_loss: &'a [u8],
        /// Next lane index to yield.
        next: usize,
    },
}

impl Iterator for LiveEntries<'_> {
    type Item = (usize, LinkEntry);

    fn next(&mut self) -> Option<(usize, LinkEntry)> {
        match self {
            LiveEntries::Dense { row, next } => {
                while *next < row.len() {
                    let i = *next;
                    *next += 1;
                    if row[i].alive {
                        return Some((i, row[i]));
                    }
                }
                None
            }
            LiveEntries::Sparse { iter } => iter
                .by_ref()
                .find(|(_, e)| e.alive)
                .map(|&(d, e)| (d as usize, e)),
            LiveEntries::Lanes {
                dst,
                latency_ms,
                liveness_loss,
                next,
            } => {
                let i = *next;
                if i < dst.len() {
                    *next += 1;
                    Some((
                        dst[i] as usize,
                        LinkEntry::from_wire_parts(latency_ms[i], liveness_loss[i]),
                    ))
                } else {
                    None
                }
            }
        }
    }
}

/// Ascending iterator over `(dst, integer cost)` of a row's live
/// entries — what the integer kernel consumes. Unlike [`LiveEntries`]
/// it never reconstructs a `LinkEntry` (no `f32` loss division on the
/// hot path).
enum LiveCosts<'a> {
    Dense {
        row: &'a [LinkEntry],
        next: usize,
    },
    Sparse {
        iter: std::slice::Iter<'a, (u16, LinkEntry)>,
    },
    Lanes {
        dst: &'a [u16],
        latency_ms: &'a [u16],
        next: usize,
    },
}

impl Iterator for LiveCosts<'_> {
    type Item = (usize, u32);

    // The merge-join's inner loop. With the round-two kernel as further
    // call sites the compiler stops inlining it unprompted, and the
    // dense-row `best_one_hop` benches run ~40 % slower.
    #[inline]
    fn next(&mut self) -> Option<(usize, u32)> {
        match self {
            LiveCosts::Dense { row, next } => {
                while *next < row.len() {
                    let i = *next;
                    *next += 1;
                    if row[i].alive {
                        return Some((i, u32::from(row[i].latency_ms)));
                    }
                }
                None
            }
            LiveCosts::Sparse { iter } => iter
                .by_ref()
                .find(|(_, e)| e.alive)
                .map(|&(d, e)| (d as usize, u32::from(e.latency_ms))),
            LiveCosts::Lanes {
                dst,
                latency_ms,
                next,
            } => {
                let i = *next;
                if i < dst.len() {
                    *next += 1;
                    Some((dst[i] as usize, u32::from(latency_ms[i])))
                } else {
                    None
                }
            }
        }
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
    /// Position the cursor on `target` within a keyed lane/pair row of
    /// `len` entries whose `i`-th key is `key(i)`; returns the entry
    /// index on a hit.
    fn seek(&mut self, len: usize, key: impl Fn(usize) -> u16, target: u16) -> Option<usize> {
        if self.pos < len && key(self.pos) <= target {
            // Ascending (or repeated) probe: walk forward.
            while self.pos < len && key(self.pos) < target {
                self.pos += 1;
            }
            return (self.pos < len && key(self.pos) == target).then_some(self.pos);
        }
        // Backwards probe or exhausted cursor: one binary search.
        let mut lo = 0usize;
        let mut hi = len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if key(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.pos = lo;
        (lo < len && key(lo) == target).then_some(lo)
    }

    /// The entry for `dst` (dead when not stored), like [`RowRef::get`]
    /// but amortized `O(1)` across ascending probes.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    pub fn get(&mut self, dst: usize) -> LinkEntry {
        match self.row {
            RowRef::Dense(r) => r[dst],
            RowRef::Sparse { width, entries } => {
                assert!(dst < width, "dst {dst} out of range");
                self.seek(entries.len(), |i| entries[i].0, dst as u16)
                    .map_or_else(LinkEntry::dead, |i| entries[i].1)
            }
            RowRef::Lanes {
                width,
                dst: dsts,
                latency_ms,
                liveness_loss,
            } => {
                assert!(dst < width, "dst {dst} out of range");
                self.seek(dsts.len(), |i| dsts[i], dst as u16)
                    .map_or_else(LinkEntry::dead, |i| {
                        LinkEntry::from_wire_parts(latency_ms[i], liveness_loss[i])
                    })
            }
        }
    }

    /// Integer routing cost of the `dst` entry ([`INFINITE_COST_U32`]
    /// when dead or not stored), like [`RowRef::cost_u32`] but
    /// amortized `O(1)` across ascending probes.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    pub fn cost_u32(&mut self, dst: usize) -> u32 {
        match self.row {
            RowRef::Dense(r) => r[dst].cost_u32(),
            RowRef::Sparse { width, entries } => {
                assert!(dst < width, "dst {dst} out of range");
                self.seek(entries.len(), |i| entries[i].0, dst as u16)
                    .map_or(INFINITE_COST_U32, |i| entries[i].1.cost_u32())
            }
            RowRef::Lanes {
                width,
                dst: dsts,
                latency_ms,
                ..
            } => {
                assert!(dst < width, "dst {dst} out of range");
                self.seek(dsts.len(), |i| dsts[i], dst as u16)
                    .map_or(INFINITE_COST_U32, |i| u32::from(latency_ms[i]))
            }
        }
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

/// Minimum elementwise sum of two equal-length latency lanes
/// (`u32::MAX` when empty). A pure integer reduction the compiler
/// vectorizes — this is the kernel's innermost loop.
#[inline]
fn min_lane_sum(la: &[u16], lb: &[u16]) -> u32 {
    la.iter()
        .zip(lb)
        .fold(u32::MAX, |m, (&x, &y)| m.min(u32::from(x) + u32::from(y)))
}

/// First index whose elementwise sum equals `target`.
#[inline]
fn find_lane_sum(la: &[u16], lb: &[u16], target: u32) -> Option<usize> {
    la.iter()
        .zip(lb)
        .position(|(&x, &y)| u32::from(x) + u32::from(y) == target)
}

/// Best relay over two lane rows with **identical destination lanes**:
/// the live intersection is the shared support itself, so the ascending
/// merge-join collapses to an elementwise reduction over the two
/// latency lanes (both lanes hold live entries only — a lane row never
/// materialises dead entries). Two vectorizable passes: a min-reduction
/// over the sums with the `a`/`b` positions carved out, then a
/// first-index search for the winner, which reproduces the merge-join's
/// lowest-index tie-break exactly.
fn lanes_shared_best(
    dsts: &[u16],
    la: &[u16],
    lb: &[u16],
    a: usize,
    b: usize,
) -> Option<(usize, u32)> {
    let skip_a = dsts.binary_search(&(a as u16)).ok();
    let skip_b = dsts.binary_search(&(b as u16)).ok();
    let ranges = excluded_ranges(dsts.len(), skip_a, skip_b);
    let mut best = u32::MAX;
    for r in &ranges {
        best = best.min(min_lane_sum(&la[r.clone()], &lb[r.clone()]));
    }
    if best == u32::MAX {
        return None;
    }
    for r in &ranges {
        if let Some(p) = find_lane_sum(&la[r.clone()], &lb[r.clone()], best) {
            return Some((dsts[r.start + p] as usize, best));
        }
    }
    None
}

/// **The round-two kernel**, integer-only, written once over borrowed
/// rows: the best one-hop path `a → h → b` computable from row `a` and
/// row `b` (`h == b` means the direct link), as a `(hop, cost)` pair in
/// integer milliseconds, or `None` when no finite path exists.
///
/// Costs are exact: the wire carries integer-millisecond latencies, so
/// a path cost is a `u32` add of two `u16` legs with
/// [`INFINITE_COST_U32`] as the infinite sentinel — every value is also
/// exactly representable in `f64`, which is why this is bit-identical
/// to the historical floating-point kernel. The direct cost is the
/// minimum of the two directions' estimates; ties prefer the direct
/// link, then the lowest hop index (the ascending merge-join yields
/// candidates in index order and only a strict improvement replaces the
/// incumbent).
///
/// Two lane rows listing the same destinations — the steady state for
/// a warm quorum server whose clients probe the same target set — take
/// an elementwise fast path over the latency lanes instead of the
/// merge-join; the result is identical.
///
/// Freshness is the caller's concern: [`LinkStateStore::best_one_hop`]
/// applies the staleness rule and delegates here.
#[must_use]
pub fn best_one_hop_rows(
    row_a: &RowRef,
    row_b: &RowRef,
    a: usize,
    b: usize,
) -> Option<(usize, u32)> {
    let direct = row_a.cost_u32(b).min(row_b.cost_u32(a));
    let mut best_hop = b;
    let mut best_cost = direct;
    let relay = match (row_a, row_b) {
        (
            RowRef::Lanes {
                dst: da,
                latency_ms: la,
                ..
            },
            RowRef::Lanes {
                dst: db,
                latency_ms: lb,
                ..
            },
        ) if da == db => lanes_shared_best(da, la, lb, a, b),
        _ => {
            let mut it_a = row_a.iter_costs();
            let mut it_b = row_b.iter_costs();
            let (mut cur_a, mut cur_b) = (it_a.next(), it_b.next());
            let mut best: Option<(usize, u32)> = None;
            while let (Some((ha, ca)), Some((hb, cb))) = (cur_a, cur_b) {
                match ha.cmp(&hb) {
                    std::cmp::Ordering::Less => cur_a = it_a.next(),
                    std::cmp::Ordering::Greater => cur_b = it_b.next(),
                    std::cmp::Ordering::Equal => {
                        if ha != a && ha != b {
                            // Both legs live: the sum of two u16s cannot
                            // reach the u32 sentinel.
                            let c = ca + cb;
                            if best.is_none_or(|(_, bc)| c < bc) {
                                best = Some((ha, c));
                            }
                        }
                        cur_a = it_a.next();
                        cur_b = it_b.next();
                    }
                }
            }
            best
        }
    };
    if let Some((h, c)) = relay {
        if c < best_cost {
            best_cost = c;
            best_hop = h;
        }
    }
    (best_cost != INFINITE_COST_U32).then_some((best_hop, best_cost))
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
fn pack(cost: u32, hop: usize) -> u64 {
    (u64::from(cost) << 16) | hop as u64
}

/// The cheapest relay towards the origin of `row_b`, given the other
/// endpoint's costs scattered into `lane`: a branch-free `min` over
/// `row_b`'s live entries of the packed `(lane[h] + row_b[h], h)`. A
/// dead first leg yields a sum of at least [`LANE_DEAD`], which loses
/// to every real path and which the caller rejects.
fn gather_best_relay(row_b: &RowRef, lane: &[u32]) -> u64 {
    row_b
        .iter_costs()
        .fold(NO_PATH, |m, (h, c)| m.min(pack(lane[h] + c, h)))
}

/// Every recommendation of one round-two tick: for each ordered pair of
/// the server's nodes (`clients ++ [me]`), the best one-hop path as
/// [`best_one_hop_rows`] would compute it, held as one flat matrix of
/// packed `(cost << 16) | hop` cells.
///
/// Built by [`LinkStateStore::round_two`] with a scatter-gather kernel.
/// For each node `a` in turn, the live costs of row `a` are scattered
/// into a dense width-`n` `u32` lane (every other slot holds a dead
/// sentinel above any sum of two `u16` legs); then for each *later*
/// node `b` the kernel walks row `b`'s live entries only, adding
/// `lane[h]` to each and keeping the `min` of the packed `(sum, h)` —
/// no merge-join, no branch in the loop.
///
/// * **Endpoints need no masking.** The merge-join skips `h == a` and
///   `h == b`; here a live self-entry lets them through as candidates,
///   harmlessly. Relaying "via `a`" costs `row_a[a] + row_b[a]` and
///   "via `b`" costs `row_a[b] + row_b[b]`: each contains one direction
///   of the direct link, so neither is below `min(row_a[b], row_b[a])`,
///   and only a relay *strictly* cheaper than the direct link is
///   taken. If one ties with a real relay, that relay is no cheaper
///   than the direct link either.
/// * **Pair symmetry.** The relay cost `row_a[h] + row_b[h]` and the
///   direct cost `min(row_a[b], row_b[a])` are both symmetric in
///   `(a, b)`, so `best_one_hop_rows(a, b)` and `(b, a)` are one
///   computation: each unordered pair is computed once and mirrored, the
///   only difference being that the direct link is spelled `hop == b`
///   one way and `hop == a` the other.
/// * **Tie-break.** The merge-join visits relays in ascending index
///   order and replaces the incumbent only on a strict improvement, so
///   it returns the lowest-index relay of the lowest cost; the `min` of
///   `(cost << 16) | hop` is that same relay whatever order the entries
///   are visited in. The direct link still wins ties against it.
/// * **Shared lanes.** Two lane rows listing the same destinations —
///   every pair of a fully probing overlay — keep the elementwise
///   reduction over the two latency lanes, which vectorizes where a
///   gather cannot. The choice is made per pair from the rows alone.
/// * **Buffers are per call.** The lane and the matrix live for one
///   tick. One process may host thousands of routers; buffers kept per
///   router would sit idle between ticks and add `O(n)` bytes to each.
#[derive(Debug, Clone)]
pub struct RoundTwo {
    nodes: Vec<usize>,
    /// `packed[i * nodes.len() + j]`: the path `nodes[i] → nodes[j]`.
    packed: Vec<u64>,
}

impl RoundTwo {
    /// Run the kernel over `rows[i]`, the resolved fresh row of
    /// `nodes[i]` (`None` = missing or stale), at row width `n`.
    fn compute(n: usize, nodes: Vec<usize>, rows: &[Option<RowRef>]) -> Self {
        assert!(n <= 1 << 16, "hop indices are packed into 16 bits");
        let k = nodes.len();
        let mut packed = vec![NO_PATH; k * k];
        let mut lane = vec![LANE_DEAD; n];
        for i in 0..k {
            let Some(row_a) = rows[i] else { continue };
            let a = nodes[i];
            for (h, c) in row_a.iter_costs() {
                lane[h] = c;
            }
            for j in i + 1..k {
                let Some(row_b) = rows[j] else { continue };
                let b = nodes[j];
                if a == b {
                    continue;
                }
                let direct = lane[b].min(row_b.cost_u32(a));
                let relay = match (&row_a, &row_b) {
                    (
                        RowRef::Lanes {
                            dst: da,
                            latency_ms: la,
                            ..
                        },
                        RowRef::Lanes {
                            dst: db,
                            latency_ms: lb,
                            ..
                        },
                    ) if da == db => {
                        lanes_shared_best(da, la, lb, a, b).map_or(NO_PATH, |(h, c)| pack(c, h))
                    }
                    _ => gather_best_relay(&row_b, &lane),
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
                lane[h] = LANE_DEAD;
            }
        }
        RoundTwo { nodes, packed }
    }

    /// The nodes the tick covers: the clients in the order given, then
    /// the server itself.
    #[must_use]
    pub fn nodes(&self) -> &[usize] {
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
    pub fn get(&self, i: usize, j: usize) -> Option<(usize, u32)> {
        let k = self.nodes.len();
        assert!(i < k && j < k, "pair ({i},{j}) outside the {k} nodes");
        let p = self.packed[i * k + j];
        #[allow(clippy::cast_possible_truncation)]
        (p != NO_PATH).then_some(((p & 0xFFFF) as usize, (p >> 16) as u32))
    }

    /// What the server recommends to `nodes()[i]`: `(dst, hop, cost)`
    /// for every destination with a finite path, in [`nodes`](Self::nodes)
    /// order.
    pub fn recommendations(&self, i: usize) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(move |(j, &d)| self.get(i, j).map(|(hop, cost)| (d, hop, cost)))
    }
}

/// One owned link-state row in struct-of-arrays form: three parallel
/// lanes holding the **live** entries only, strictly ascending by
/// destination, in the exact wire quantization — `latency_ms` is the
/// wire's integer-millisecond latency (clamped below the dead
/// sentinel, as [`LinkEntry::encode`] would emit it) and
/// `liveness_loss` the wire's liveness byte. A row that arrived from
/// the wire therefore round-trips bit-identically: re-encoding the
/// lanes reproduces the frame bytes.
///
/// ~5 bytes per entry ([`LaneRow::ENTRY_BYTES`]) versus 12 for the
/// array-of-structs `(u16, LinkEntry)` layout this replaces, and the
/// latency lane is directly consumable by the integer kernel with no
/// decode step.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneRow {
    dst: Box<[u16]>,
    latency_ms: Box<[u16]>,
    liveness_loss: Box<[u8]>,
    /// The origin's row sequence number (0 = unversioned legacy row).
    /// Bumped by the origin on retraction events; the store refuses to
    /// replace a versioned row with a strictly older one, so delayed or
    /// replayed frames can never resurrect a withdrawn link.
    seqno: u16,
    /// Destinations the origin explicitly withdrew at this seqno,
    /// strictly ascending — a fourth lane alongside the live-entry
    /// lanes. Retraction is stronger than mere absence: receivers
    /// propagate it into their feasibility tables.
    retracted: Box<[u16]>,
}

/// Is `b` strictly newer than `a` under the RFC 8966 circular 16-bit
/// comparison? Sequence numbers wrap, so "newer" means the forward
/// distance `b − a (mod 2¹⁶)` lands in the first half of the circle.
#[must_use]
pub fn seqno_newer(a: u16, b: u16) -> bool {
    b != a && b.wrapping_sub(a) < 0x8000
}

impl LaneRow {
    /// Stored bytes per live entry: 2 (dst) + 2 (latency) + 1
    /// (liveness/loss).
    pub const ENTRY_BYTES: usize = 5;

    /// Reduce a dense row to its live entries.
    #[must_use]
    pub fn from_dense(entries: &[LinkEntry]) -> Self {
        Self::collect(
            entries.iter().filter(|e| e.alive).count(),
            entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.alive)
                .map(|(d, &e)| (d as u16, e)),
        )
    }

    /// Reduce `(dst, entry)` pairs (strictly ascending by `dst`) to
    /// their live entries.
    #[must_use]
    pub fn from_pairs(pairs: &[(u16, LinkEntry)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        Self::collect(
            pairs.iter().filter(|(_, e)| e.alive).count(),
            pairs.iter().filter(|(_, e)| e.alive).copied(),
        )
    }

    /// Quantize the `count` entries of `live` into exact-capacity lanes.
    fn collect(count: usize, live: impl Iterator<Item = (u16, LinkEntry)>) -> Self {
        let mut dst = Vec::with_capacity(count);
        let mut latency_ms = Vec::with_capacity(count);
        let mut liveness_loss = Vec::with_capacity(count);
        for (d, e) in live {
            let wire = e.encode();
            dst.push(d);
            latency_ms.push(u16::from_be_bytes([wire[0], wire[1]]));
            liveness_loss.push(wire[2]);
        }
        Self::from_wire_lanes(dst, latency_ms, liveness_loss, 0, Vec::new())
    }

    /// Assemble a row from lanes that already hold wire-exact values —
    /// what the frame decoder fills straight from the bytes. The caller
    /// guarantees what every other constructor does: index-aligned
    /// lanes, live entries only, destinations (and retractions)
    /// strictly ascending, live latencies below the dead sentinel.
    pub(crate) fn from_wire_lanes(
        dst: Vec<u16>,
        latency_ms: Vec<u16>,
        liveness_loss: Vec<u8>,
        seqno: u16,
        retracted: Vec<u16>,
    ) -> Self {
        debug_assert!(dst.len() == latency_ms.len() && dst.len() == liveness_loss.len());
        debug_assert!(dst.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(retracted.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(liveness_loss.iter().all(|l| l & 0x80 != 0));
        LaneRow {
            dst: dst.into_boxed_slice(),
            latency_ms: latency_ms.into_boxed_slice(),
            liveness_loss: liveness_loss.into_boxed_slice(),
            seqno,
            retracted: retracted.into_boxed_slice(),
        }
    }

    /// The three index-aligned lanes — destination, latency, liveness —
    /// exactly as a frame carries them.
    pub(crate) fn lanes(&self) -> (&[u16], &[u16], &[u8]) {
        (&self.dst, &self.latency_ms, &self.liveness_loss)
    }

    /// Stamp the row with the origin's seqno and retraction lane
    /// (strictly ascending destinations, debug-asserted).
    #[must_use]
    pub fn with_version(mut self, seqno: u16, retracted: &[u16]) -> Self {
        debug_assert!(retracted.windows(2).all(|w| w[0] < w[1]));
        self.seqno = seqno;
        self.retracted = retracted.into();
        self
    }

    /// The origin's row sequence number (0 = unversioned).
    #[must_use]
    pub fn seqno(&self) -> u16 {
        self.seqno
    }

    /// The retraction lane: destinations the origin explicitly
    /// withdrew, strictly ascending.
    #[must_use]
    pub fn retracted(&self) -> &[u16] {
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

    /// Borrow as a [`RowRef::Lanes`] over a row of `width` destinations.
    #[must_use]
    pub fn as_row_ref(&self, width: usize) -> RowRef<'_> {
        RowRef::Lanes {
            width,
            dst: &self.dst,
            latency_ms: &self.latency_ms,
            liveness_loss: &self.liveness_loss,
        }
    }

    /// Insert, replace or remove the entry for `dst`: a live entry
    /// lands in lane order (wire-quantized), a dead one removes any
    /// stored entry.
    fn set(&mut self, dst: u16, entry: LinkEntry) {
        match (self.dst.binary_search(&dst), entry.alive) {
            (Ok(i), true) => {
                let wire = entry.encode();
                self.latency_ms[i] = u16::from_be_bytes([wire[0], wire[1]]);
                self.liveness_loss[i] = wire[2];
            }
            (Ok(i), false) => {
                self.remove_at(i);
            }
            (Err(i), true) => {
                let wire = entry.encode();
                let mut dsts = std::mem::take(&mut self.dst).into_vec();
                let mut lats = std::mem::take(&mut self.latency_ms).into_vec();
                let mut livs = std::mem::take(&mut self.liveness_loss).into_vec();
                dsts.insert(i, dst);
                lats.insert(i, u16::from_be_bytes([wire[0], wire[1]]));
                livs.insert(i, wire[2]);
                self.dst = dsts.into_boxed_slice();
                self.latency_ms = lats.into_boxed_slice();
                self.liveness_loss = livs.into_boxed_slice();
            }
            (Err(_), false) => {}
        }
    }

    fn remove_at(&mut self, i: usize) {
        let mut dsts = std::mem::take(&mut self.dst).into_vec();
        let mut lats = std::mem::take(&mut self.latency_ms).into_vec();
        let mut livs = std::mem::take(&mut self.liveness_loss).into_vec();
        dsts.remove(i);
        lats.remove(i);
        livs.remove(i);
        self.dst = dsts.into_boxed_slice();
        self.latency_ms = lats.into_boxed_slice();
        self.liveness_loss = livs.into_boxed_slice();
    }
}

/// Storage of link-state rows plus the round-two route computation.
///
/// A row logically covers all `n` destinations; what varies between
/// implementations is *which* origins have a row at all and whether a
/// held row is materialised densely or as its live entries only (see
/// [`RowRef`]). "Present" means a row was received (it has a receipt
/// time); a present row may still be stale for routing — the kernel
/// methods apply the paper's 3-routing-interval freshness rule
/// (section 6.2.2) on top.
pub trait LinkStateStore {
    /// Number of nodes covered (row width).
    fn len(&self) -> usize;

    /// True when the store covers no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace row `origin` with the full-width `entries`, stamped at
    /// `now` seconds: [`put_row`](LinkStateStore::put_row) of the
    /// entries reduced to lanes, unversioned.
    ///
    /// # Panics
    /// Panics if `entries.len() != len()` or `origin ≥ len()`.
    fn update_row(&mut self, origin: usize, entries: &[LinkEntry], now: f64) {
        assert_eq!(entries.len(), self.len(), "row must have n entries");
        self.put_row(origin, Arc::new(LaneRow::from_dense(entries)), now);
    }

    /// Replace row `origin` with sparse `(dst, entry)` pairs, strictly
    /// ascending by `dst`; destinations not listed become dead. Stamped
    /// at `now`, unversioned.
    ///
    /// # Panics
    /// Panics if `origin ≥ len()` or any `dst ≥ len()`; ordering is
    /// debug-asserted.
    fn update_row_sparse(&mut self, origin: usize, entries: &[(u16, LinkEntry)], now: f64) {
        self.put_row(origin, Arc::new(LaneRow::from_pairs(entries)), now);
    }

    /// **The row ingest.** Replace row `origin` with `row` — live-entry
    /// lanes plus the origin's seqno and retraction lane, as a
    /// link-state frame carries them — stamped at `now` seconds.
    /// Returns `false` (row unchanged) when the held row is versioned
    /// and strictly newer than the incoming one — the stale-replay
    /// guard. A zero seqno on either side is unversioned and always
    /// accepted. Stores that keep rows as lanes hold on to the `Arc`
    /// itself, so a decoded frame's row is stored without copying;
    /// stores that do not track versions (the dense baseline) accept
    /// every row and drop seqno and retractions.
    ///
    /// # Panics
    /// Panics if `origin ≥ len()` or the row lists a destination
    /// `≥ len()`.
    fn put_row(&mut self, origin: usize, row: Arc<LaneRow>, now: f64) -> bool;

    /// The held seqno of row `origin` (0 = absent or unversioned).
    fn row_seqno(&self, _origin: usize) -> u16 {
        0
    }

    /// Did row `origin` explicitly retract `dst` at its current seqno?
    fn row_retracts(&self, _origin: usize, _dst: usize) -> bool {
        false
    }

    /// The full retraction lane of row `origin`, ascending (empty when
    /// the row is absent or the store does not track versions).
    fn row_retractions(&self, _origin: usize) -> Vec<u16> {
        Vec::new()
    }

    /// Update a single entry of a row (used for the node's own row,
    /// which its probers refresh incrementally). Creates the row (all
    /// other entries dead) when absent.
    fn update_entry(&mut self, origin: usize, dst: usize, entry: LinkEntry, now: f64);

    /// Forget a row (e.g. on membership change or client loss).
    fn clear_row(&mut self, origin: usize);

    /// A borrowed view of row `origin`, when present.
    fn row_ref(&self, origin: usize) -> Option<RowRef<'_>>;

    /// Receipt time of row `origin`; `None` = never received.
    fn row_time(&self, origin: usize) -> Option<f64>;

    /// Every held row as `(origin, receipt time, row)`, ascending by
    /// origin — one walk over the store instead of a lookup per origin.
    fn held_rows(&self) -> impl Iterator<Item = (usize, f64, RowRef<'_>)>;

    /// The origins that currently have a row, ascending.
    fn present_rows(&self) -> Vec<usize> {
        self.held_rows().map(|(origin, _, _)| origin).collect()
    }

    /// Number of rows currently held — the state-accounting counter the
    /// scale experiments assert against (`O(√n)` for a quorum node).
    fn row_count(&self) -> usize;

    /// Number of link entries currently allocated — the per-node memory
    /// figure the scale experiments report. Dense stores count the full
    /// matrix; sparse stores count only what they hold.
    fn entry_count(&self) -> usize {
        self.row_count() * self.len()
    }

    // ------------------------------------------------------------------
    // Provided accessors
    // ------------------------------------------------------------------

    /// Age of row `origin` at time `now`, if ever received.
    fn row_age(&self, origin: usize, now: f64) -> Option<f64> {
        self.row_time(origin).map(|t| now - t)
    }

    /// Is row `origin` present and no older than `max_age` at `now`?
    fn row_fresh(&self, origin: usize, now: f64, max_age: f64) -> bool {
        self.row_age(origin, now).is_some_and(|a| a <= max_age)
    }

    /// Row `origin` materialised full-width, when present (absent
    /// entries dead). Export paths use this; the kernel never does.
    fn row_dense(&self, origin: usize) -> Option<Vec<LinkEntry>> {
        self.row_ref(origin).map(|r| r.to_dense())
    }

    /// The entry `origin → dst` (dead when the row is absent).
    fn entry(&self, origin: usize, dst: usize) -> LinkEntry {
        self.row_ref(origin)
            .map_or_else(LinkEntry::dead, |r| r.get(dst))
    }

    /// Routing cost of `origin → dst` (infinite when dead/unknown).
    fn cost(&self, origin: usize, dst: usize) -> Cost {
        if origin == dst {
            return 0.0;
        }
        self.entry(origin, dst).cost()
    }

    // ------------------------------------------------------------------
    // The round-two kernel — written once, over the trait
    // ------------------------------------------------------------------

    /// **The round-two kernel.** Best one-hop path `a → h → b` (or the
    /// direct link, represented as `h == b`) computable from rows `a`
    /// and `b`, both of which must be fresh (≤ `max_age` at `now`).
    ///
    /// Link costs are assumed symmetric (paper section 3), so the path
    /// cost is `row_a[h] + row_b[h]`; the direct cost is the *minimum*
    /// of the two directions' estimates (they may disagree
    /// transiently). Ties prefer the direct link, then the lowest hop
    /// index, making the recommendation deterministic across rendezvous
    /// servers with identical data.
    ///
    /// Implemented by delegating to the integer kernel
    /// [`best_one_hop_rows`]: an ascending merge-join over the *live*
    /// entries of both rows (a finite path cost needs both legs alive,
    /// so only the intersection of the live sets can win, and ascending
    /// order reproduces the dense `h = 0..n` scan's lowest-index
    /// tie-break exactly), collapsing to a vectorized elementwise lane
    /// reduction when both rows share one destination lane. Cost is
    /// `O(k_a + k_b)` live entries instead of `O(n)`, with no `f64`
    /// and no `LinkEntry` materialisation — the integer result converts
    /// exactly.
    ///
    /// Returns `None` when either row is missing/stale or no finite
    /// path exists.
    fn best_one_hop(&self, a: usize, b: usize, now: f64, max_age: f64) -> Option<(usize, Cost)> {
        if a == b || !self.row_fresh(a, now, max_age) || !self.row_fresh(b, now, max_age) {
            return None;
        }
        let row_a = self.row_ref(a).expect("fresh row present");
        let row_b = self.row_ref(b).expect("fresh row present");
        best_one_hop_rows(&row_a, &row_b, a, b).map(|(h, c)| (h, f64::from(c)))
    }

    /// **Round two for a whole tick.** Every recommendation a rendezvous
    /// server owes its `clients` about each other and about the server
    /// itself (`me`), in one pass: each row is resolved and
    /// freshness-checked once, and each unordered pair is computed once
    /// and mirrored (see [`RoundTwo`]). Entry for entry this equals
    /// calling [`best_one_hop`](LinkStateStore::best_one_hop) on every
    /// ordered pair of `clients ++ [me]`: a missing or stale row yields
    /// no recommendation as source or as destination.
    fn round_two(&self, clients: &[usize], me: usize, now: f64, max_age: f64) -> RoundTwo {
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
    fn one_hop_options(&self, a: usize, b: usize, now: f64, max_age: f64) -> Vec<(usize, Cost)> {
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
            let leg1 = cur_a.cost_u32(h);
            if leg1 == INFINITE_COST_U32 {
                continue;
            }
            let leg2 = self.entry(h, b).cost_u32();
            if leg2 == INFINITE_COST_U32 {
                continue;
            }
            out.push((h, f64::from(leg1 + leg2)));
        }
        out.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap().then(x.0.cmp(&y.0)));
        out
    }

    /// Generalized §4.2 scavenging: candidate detours `a → r₁ → … → b`
    /// through up to `max_hops` intermediate relays (`max_hops == 1`
    /// reproduces [`one_hop_options`](LinkStateStore::one_hop_options)
    /// exactly, entry for entry). Only present, *fresh* relay rows
    /// participate — `O(√n)` relays for a quorum node — and paths are
    /// simple by construction, so a candidate can never revisit a node.
    ///
    /// Returns one option per viable first relay: the full path
    /// (`path[0] == a`, `path.last() == b`), its total cost, and the
    /// *remaining* cost after the first leg — the cost the first relay
    /// effectively advertises for the rest of the path, which is what
    /// the feasibility discipline compares against its feasibility
    /// distance. Sorted by total cost, lowest first-relay index on
    /// ties. The hop-layered relaxation runs `O(k·√n·√n)` integer
    /// additions off the per-tick hot path (failover only); the
    /// per-tick round-two kernel is untouched.
    fn k_hop_options(
        &self,
        a: usize,
        b: usize,
        max_hops: usize,
        now: f64,
        max_age: f64,
    ) -> Vec<(Vec<usize>, Cost, Cost)> {
        if a == b || max_hops == 0 || !self.row_fresh(a, now, max_age) {
            return Vec::new();
        }
        let relays: Vec<usize> = self
            .present_rows()
            .into_iter()
            .filter(|&r| r != a && r != b && self.row_fresh(r, now, max_age))
            .collect();
        // best[i]: cheapest known tail `relays[i] → … → b` and its cost,
        // grown one relay per layer (classic hop-bounded relaxation).
        let mut best: Vec<Option<(u32, Vec<usize>)>> = relays
            .iter()
            .map(|&r| {
                let c = self.entry(r, b).cost_u32();
                (c != INFINITE_COST_U32).then(|| (c, vec![r, b]))
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
                    let leg = cur.cost_u32(s);
                    if leg == INFINITE_COST_U32 || tail.contains(&r) {
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
            let leg1 = cur_a.cost_u32(r);
            if leg1 == INFINITE_COST_U32 {
                continue;
            }
            let mut path = Vec::with_capacity(tail.len() + 1);
            path.push(a);
            path.extend_from_slice(tail);
            out.push((path, f64::from(leg1 + tail_cost), f64::from(*tail_cost)));
        }
        out.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap().then(x.0[1].cmp(&y.0[1])));
        out
    }

    /// Does any fresh row report `dst` as alive? (Used to decide
    /// whether a destination has failed outright — section 4.1's "check
    /// if any of its rendezvous clients' link-state tables show that
    /// Dst is reachable".)
    fn anyone_reaches(&self, dst: usize, now: f64, max_age: f64) -> bool {
        self.held_rows().any(|(origin, received_at, row)| {
            origin != dst && now - received_at <= max_age && row.cost_u32(dst) != INFINITE_COST_U32
        })
    }

    /// The cost of the path `a → h → b` using current rows; infinite
    /// when anything is missing. `h == b` means the direct link.
    fn path_cost(&self, a: usize, h: usize, b: usize) -> Cost {
        if h == b {
            return self.cost(a, b);
        }
        let c = self.cost(a, h) + self.cost(h, b);
        if c.is_finite() {
            c
        } else {
            INFINITE_COST
        }
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
/// lanes at ~5 B/entry — which under entitled + sampled probing is
/// `O(√n)` per row, so per-node state is `O(n)` where the dense table
/// needs `O(n²)`. Lookups are `O(log √n)` map + `O(log k)` row binary
/// search; the round-two kernel costs `O(k)` per pair — a merge-join
/// for one pair, a scatter-gather for a whole tick — or streams the two
/// latency lanes elementwise when the rows share a destination lane. The `row_bytes_lanes` / `row_bytes_aos`
/// gauge pair reports the stored bytes against what the replaced
/// array-of-structs layout would have held.
#[derive(Debug, Clone)]
pub struct RowStore {
    n: usize,
    rows: BTreeMap<usize, StoredRow>,
    /// Maximum rows this node's role entitles it to, debug-asserted on
    /// insert; `None` = unbounded (the full-mesh baseline).
    entitlement: Option<usize>,
    /// Rows older than this are evicted when a new row arrives at the
    /// entitlement boundary. One-time senders (e.g. nodes that briefly
    /// selected us as a failover rendezvous) would otherwise accumulate
    /// rows forever; a stale row is useless to the kernel, so shedding
    /// it is free.
    stale_after: Option<f64>,
    /// High-water mark of `row_count` over the store's lifetime.
    peak_rows: usize,
    /// Live entries held across all rows — what
    /// [`entry_count`](LinkStateStore::entry_count) recounts — kept
    /// current by every path that adds, replaces or drops a row, so the
    /// size gauges cost `O(1)` per merged row.
    live_entries: usize,
    telemetry: Telemetry,
    rows_merged: Counter,
    rows_evicted: Counter,
    rows_held: Gauge,
    row_bytes_lanes: Gauge,
    row_bytes_aos: Gauge,
}

impl RowStore {
    /// An empty, unbounded store over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let telemetry = Telemetry::disabled();
        let rows_merged = telemetry.counter("linkstate", "rows_merged");
        let rows_evicted = telemetry.counter("linkstate", "rows_evicted");
        let rows_held = telemetry.gauge("linkstate", "rows_held");
        let row_bytes_lanes = telemetry.gauge("linkstate", "row_bytes_lanes");
        let row_bytes_aos = telemetry.gauge("linkstate", "row_bytes_aos");
        RowStore {
            n,
            rows: BTreeMap::new(),
            entitlement: None,
            stale_after: None,
            peak_rows: 0,
            live_entries: 0,
            telemetry,
            rows_merged,
            rows_evicted,
            rows_held,
            row_bytes_lanes,
            row_bytes_aos,
        }
    }

    /// Attach a telemetry handle: row merges/evictions count under
    /// component `"linkstate"` and enter the event journal. Call before
    /// the store receives traffic — the attached registry starts with
    /// fresh (zeroed) cells.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.rows_merged = telemetry.counter("linkstate", "rows_merged");
        self.rows_evicted = telemetry.counter("linkstate", "rows_evicted");
        self.rows_held = telemetry.gauge("linkstate", "rows_held");
        self.row_bytes_lanes = telemetry.gauge("linkstate", "row_bytes_lanes");
        self.row_bytes_aos = telemetry.gauge("linkstate", "row_bytes_aos");
        self.telemetry = telemetry;
        self
    }

    /// Refresh the held-rows gauge and the stored-bytes gauge pair:
    /// actual lane bytes versus what the replaced array-of-structs
    /// `(u16, LinkEntry)` layout would hold for the same entries — the
    /// memory win the scale study exports.
    fn update_size_gauges(&self) {
        self.rows_held.set(self.rows.len() as u64);
        let entries = self.live_entries;
        self.row_bytes_lanes
            .set((entries * LaneRow::ENTRY_BYTES) as u64);
        self.row_bytes_aos
            .set((entries * std::mem::size_of::<(u16, LinkEntry)>()) as u64);
    }

    /// Count one merged row (counter + journal + size gauges).
    fn note_merge(&mut self, origin: usize, now: f64) {
        self.rows_merged.inc();
        self.update_size_gauges();
        self.telemetry.event(
            now,
            Severity::Debug,
            EventKind::RowMerged {
                origin: origin as u32,
            },
        );
    }

    /// An empty store that debug-asserts `row_count ≤ max_rows` on
    /// every insert — the `O(√n)` entitlement guard. When a new row
    /// arrives at the boundary, rows older than `stale_after` (the
    /// staleness window: stale rows are dead weight the kernel already
    /// ignores) are evicted first, so only *fresh* rows beyond the
    /// entitlement trip the assertion.
    #[must_use]
    pub fn with_entitlement(n: usize, max_rows: usize, stale_after: f64) -> Self {
        RowStore {
            entitlement: Some(max_rows),
            stale_after: Some(stale_after),
            ..RowStore::new(n)
        }
    }

    /// The configured entitlement, if any.
    #[must_use]
    pub fn entitlement(&self) -> Option<usize> {
        self.entitlement
    }

    /// The most rows ever held simultaneously — the state-accounting
    /// high-water mark the scale experiment reports.
    #[must_use]
    pub fn peak_rows(&self) -> usize {
        self.peak_rows
    }

    /// Make room for an insert at `now`: at the entitlement boundary,
    /// shed rows the staleness window has already invalidated.
    fn evict_stale(&mut self, now: f64) {
        if let (Some(limit), Some(window)) = (self.entitlement, self.stale_after) {
            if self.rows.len() >= limit {
                let stale: Vec<usize> = self
                    .rows
                    .iter()
                    .filter(|(_, r)| now - r.received_at > window)
                    .map(|(&origin, _)| origin)
                    .collect();
                for origin in stale {
                    if let Some(row) = self.rows.remove(&origin) {
                        self.live_entries -= row.lanes.len();
                    }
                    self.rows_evicted.inc();
                    self.telemetry.event(
                        now,
                        Severity::Info,
                        EventKind::RowEvicted {
                            origin: origin as u32,
                        },
                    );
                }
                self.update_size_gauges();
            }
        }
    }

    fn note_insert(&mut self) {
        self.peak_rows = self.peak_rows.max(self.rows.len());
        if let Some(limit) = self.entitlement {
            debug_assert!(
                self.rows.len() <= limit,
                "row store holds {} fresh rows, entitlement is {limit} — \
                 a quorum node's state must stay O(√n)",
                self.rows.len()
            );
        }
    }
}

impl LinkStateStore for RowStore {
    fn len(&self) -> usize {
        self.n
    }

    fn put_row(&mut self, origin: usize, row: Arc<LaneRow>, now: f64) -> bool {
        assert!(origin < self.n, "row {origin} out of range");
        assert!(
            row.dst.last().is_none_or(|&d| usize::from(d) < self.n),
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
                slot.lanes = row;
                slot.received_at = now;
            }
            None => {
                self.evict_stale(now);
                self.live_entries += row.len();
                self.rows.insert(
                    origin,
                    StoredRow {
                        received_at: now,
                        lanes: row,
                    },
                );
                self.note_insert();
            }
        }
        self.note_merge(origin, now);
        true
    }

    fn row_seqno(&self, origin: usize) -> u16 {
        self.rows.get(&origin).map_or(0, |s| s.lanes.seqno())
    }

    fn row_retracts(&self, origin: usize, dst: usize) -> bool {
        self.rows
            .get(&origin)
            .is_some_and(|s| s.lanes.retracted().binary_search(&(dst as u16)).is_ok())
    }

    fn row_retractions(&self, origin: usize) -> Vec<u16> {
        self.rows
            .get(&origin)
            .map_or_else(Vec::new, |s| s.lanes.retracted().to_vec())
    }

    fn update_entry(&mut self, origin: usize, dst: usize, entry: LinkEntry, now: f64) {
        assert!(origin < self.n && dst < self.n);
        if let Some(slot) = self.rows.get_mut(&origin) {
            let before = slot.lanes.len();
            // Copies the lanes only while a frame still shares them.
            Arc::make_mut(&mut slot.lanes).set(dst as u16, entry);
            self.live_entries = self.live_entries - before + slot.lanes.len();
            slot.received_at = now;
            self.note_merge(origin, now);
        } else {
            let lanes = if entry.alive {
                LaneRow::from_pairs(&[(dst as u16, entry)])
            } else {
                LaneRow::default()
            };
            self.put_row(origin, Arc::new(lanes), now);
        }
    }

    fn clear_row(&mut self, origin: usize) {
        if let Some(row) = self.rows.remove(&origin) {
            self.live_entries -= row.lanes.len();
        }
        self.update_size_gauges();
    }

    fn row_ref(&self, origin: usize) -> Option<RowRef<'_>> {
        self.rows.get(&origin).map(|s| s.lanes.as_row_ref(self.n))
    }

    fn row_time(&self, origin: usize) -> Option<f64> {
        self.rows.get(&origin).map(|s| s.received_at)
    }

    fn held_rows(&self) -> impl Iterator<Item = (usize, f64, RowRef<'_>)> {
        self.rows
            .iter()
            .map(|(&origin, s)| (origin, s.received_at, s.lanes.as_row_ref(self.n)))
    }

    fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn entry_count(&self) -> usize {
        self.rows.values().map(|r| r.lanes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::LinkStateTable;

    fn live_row(costs: &[u16]) -> Vec<LinkEntry> {
        costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect()
    }

    /// The 4-node detour world used by the table tests, loaded into both
    /// stores.
    fn detour_rows() -> Vec<Vec<LinkEntry>> {
        vec![
            live_row(&[0, 50, 200, 500]),
            live_row(&[50, 0, 80, 100]),
            live_row(&[200, 80, 0, 90]),
            live_row(&[500, 100, 90, 0]),
        ]
    }

    fn both_stores() -> (LinkStateTable, RowStore) {
        let mut dense = LinkStateTable::new(4);
        let mut sparse = RowStore::new(4);
        for (i, row) in detour_rows().iter().enumerate() {
            dense.update_row(i, row, 10.0);
            sparse.update_row(i, row, 10.0);
        }
        (dense, sparse)
    }

    /// The kernel is written once, so given identical rows the two
    /// stores must agree on every pair.
    #[test]
    fn stores_agree_on_the_kernel() {
        let (dense, sparse) = both_stores();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    dense.best_one_hop(a, b, 11.0, 45.0),
                    sparse.best_one_hop(a, b, 11.0, 45.0),
                    "pair ({a},{b})"
                );
                assert_eq!(
                    dense.one_hop_options(a, b, 11.0, 45.0),
                    sparse.one_hop_options(a, b, 11.0, 45.0)
                );
            }
        }
        for dst in 0..4 {
            assert_eq!(
                dense.anyone_reaches(dst, 11.0, 45.0),
                sparse.anyone_reaches(dst, 11.0, 45.0)
            );
        }
    }

    #[test]
    fn sparse_holds_only_received_rows() {
        let mut s = RowStore::new(100);
        assert_eq!(s.row_count(), 0);
        assert_eq!(s.entry_count(), 0);
        s.update_row(7, &vec![LinkEntry::dead(); 100], 1.0);
        s.update_row(42, &vec![LinkEntry::dead(); 100], 2.0);
        assert_eq!(s.row_count(), 2);
        // All-dead rows are present (they have a receipt time) but
        // materialise zero entries — absent reads as dead.
        assert_eq!(s.entry_count(), 0);
        assert_eq!(s.present_rows(), vec![7, 42]);
        assert_eq!(s.row_time(7), Some(1.0));
        assert_eq!(s.row_time(8), None);
        assert!(s.row_ref(8).is_none());
        // Absent rows read as dead, like the dense table's initial state.
        assert!(s.cost(8, 9).is_infinite());
        assert_eq!(s.cost(8, 8), 0.0);
        // Refreshing a row does not grow the store.
        s.update_row(7, &vec![LinkEntry::dead(); 100], 3.0);
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.row_time(7), Some(3.0));
        // Clearing removes the allocation entirely.
        s.clear_row(7);
        assert_eq!(s.row_count(), 1);
        assert_eq!(s.peak_rows(), 2, "high-water mark is sticky");
    }

    #[test]
    fn rows_store_live_entries_only() {
        let mut s = RowStore::new(100);
        let mut row = vec![LinkEntry::dead(); 100];
        row[3] = LinkEntry::live(10, 0.0);
        row[64] = LinkEntry::live(20, 0.01);
        s.update_row(7, &row, 1.0);
        assert_eq!(s.entry_count(), 2, "dense input reduced to live entries");
        assert_eq!(s.entry(7, 64).latency_ms, 20);
        assert!(!s.entry(7, 4).alive);
        assert_eq!(s.row_dense(7).unwrap(), row);
        // The sparse ingest path stores the same thing.
        let mut t = RowStore::new(100);
        t.update_row_sparse(
            7,
            &[
                (3, LinkEntry::live(10, 0.0)),
                (64, LinkEntry::live(20, 0.01)),
            ],
            1.0,
        );
        assert_eq!(t.row_dense(7).unwrap(), row);
        assert_eq!(t.entry_count(), 2);
    }

    #[test]
    fn update_entry_creates_sparse_row() {
        let mut s = RowStore::new(5);
        s.update_entry(2, 4, LinkEntry::live(30, 0.0), 1.0);
        assert_eq!(s.row_count(), 1);
        assert_eq!(s.entry(2, 4).latency_ms, 30);
        assert!(!s.entry(2, 3).alive);
        assert_eq!(s.row_time(2), Some(1.0));
        // Killing the entry removes it from the stored row; the row and
        // its receipt time survive.
        s.update_entry(2, 4, LinkEntry::dead(), 2.0);
        assert_eq!(s.row_count(), 1);
        assert_eq!(s.entry_count(), 0);
        assert!(!s.entry(2, 4).alive);
        assert_eq!(s.row_time(2), Some(2.0));
        // Inserting out of order lands sorted.
        s.update_entry(2, 3, LinkEntry::live(9, 0.0), 3.0);
        s.update_entry(2, 1, LinkEntry::live(8, 0.0), 3.0);
        assert_eq!(
            s.row_ref(2).unwrap().iter_live().collect::<Vec<_>>(),
            vec![(1, LinkEntry::live(8, 0.0)), (3, LinkEntry::live(9, 0.0))]
        );
    }

    /// Partial (sparse) rows run the same merge-join kernel as dense
    /// rows holding the identical information.
    #[test]
    fn kernel_parity_on_partial_rows() {
        let n = 12;
        let mut dense = LinkStateTable::new(n);
        let mut sparse = RowStore::new(n);
        // Row a: live to {1, 3, 5, 7}; row b: live to {3, 4, 7, 11}.
        let rows: Vec<(usize, Vec<(u16, LinkEntry)>)> = vec![
            (
                0,
                vec![
                    (1, LinkEntry::live(10, 0.0)),
                    (3, LinkEntry::live(40, 0.0)),
                    (5, LinkEntry::live(25, 0.0)),
                    (7, LinkEntry::live(60, 0.0)),
                ],
            ),
            (
                9,
                vec![
                    (3, LinkEntry::live(15, 0.0)),
                    (4, LinkEntry::live(5, 0.0)),
                    (7, LinkEntry::live(30, 0.0)),
                    (11, LinkEntry::live(80, 0.0)),
                ],
            ),
        ];
        for (origin, entries) in &rows {
            dense.update_row_sparse(*origin, entries, 1.0);
            sparse.update_row_sparse(*origin, entries, 1.0);
        }
        let d = dense.best_one_hop(0, 9, 2.0, 45.0);
        assert_eq!(d, sparse.best_one_hop(0, 9, 2.0, 45.0));
        // Best hop is the live-intersection minimum: h=3 (40+15=55)
        // beats h=7 (60+30=90); no direct link exists.
        assert_eq!(d, Some((3, 55.0)));
        assert_eq!(
            dense.one_hop_options(0, 9, 2.0, 45.0),
            sparse.one_hop_options(0, 9, 2.0, 45.0)
        );
    }

    #[test]
    fn one_hop_options_skip_stale_and_absent_relays() {
        let (_, mut s) = both_stores();
        s.clear_row(1);
        let opts = s.one_hop_options(0, 3, 11.0, 45.0);
        assert_eq!(opts, vec![(2, 290.0)]);
        // A stale relay row disqualifies too.
        s.update_row(2, &detour_rows()[2], -100.0);
        assert!(s.one_hop_options(0, 3, 11.0, 45.0).is_empty());
    }

    #[test]
    fn entitlement_tracks_peak() {
        let mut s = RowStore::with_entitlement(10, 4, 45.0);
        assert_eq!(s.entitlement(), Some(4));
        for i in 0..4 {
            s.update_row(i, &[LinkEntry::dead(); 10], 0.0);
        }
        assert_eq!(s.peak_rows(), 4);
    }

    #[test]
    fn capacity_pressure_evicts_stale_rows_first() {
        let mut s = RowStore::with_entitlement(10, 2, 45.0);
        s.update_row(0, &[LinkEntry::dead(); 10], 0.0);
        s.update_row(1, &[LinkEntry::dead(); 10], 50.0);
        // At t=100, row 0 (age 100) and row 1 (age 50) are both stale:
        // a new arrival at the boundary sheds them instead of tripping
        // the entitlement assertion.
        s.update_row(2, &[LinkEntry::dead(); 10], 100.0);
        assert_eq!(s.present_rows(), vec![2]);
        // A fresh row is never evicted by pressure.
        s.update_row(3, &[LinkEntry::dead(); 10], 101.0);
        assert_eq!(s.present_rows(), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "entitlement")]
    #[cfg(debug_assertions)]
    fn fresh_overflow_is_debug_asserted() {
        // All rows fresh: eviction frees nothing, the guard must fire.
        let mut s = RowStore::with_entitlement(10, 2, 45.0);
        for i in 0..3 {
            s.update_row(i, &[LinkEntry::dead(); 10], 1.0);
        }
    }

    #[test]
    fn telemetry_counts_merges_and_evictions() {
        let telemetry = Telemetry::new(7);
        let mut s = RowStore::with_entitlement(10, 2, 45.0).with_telemetry(telemetry.clone());
        s.update_row(0, &[LinkEntry::dead(); 10], 0.0);
        s.update_row(1, &[LinkEntry::dead(); 10], 50.0);
        // Both prior rows are stale at t=100: the boundary insert
        // sheds them, and every arrival counted as a merge.
        s.update_row(2, &[LinkEntry::dead(); 10], 100.0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(7, "linkstate", "rows_merged"), Some(3));
        assert_eq!(snap.counter(7, "linkstate", "rows_evicted"), Some(2));
        assert_eq!(snap.gauge(7, "linkstate", "rows_held"), Some(1));
        assert!(telemetry
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::RowEvicted { origin: 0 })));
    }

    /// The running live-entry total behind the size gauges equals a
    /// recount of the held rows after every kind of mutation: insert,
    /// whole-row replace (growing and shrinking), single-entry set and
    /// kill, row creation by `update_entry`, eviction under capacity
    /// pressure, and `clear_row`.
    #[test]
    fn live_entry_total_tracks_recount() {
        let telemetry = Telemetry::new(1);
        let mut s = RowStore::with_entitlement(10, 3, 45.0).with_telemetry(telemetry.clone());
        let check = |s: &RowStore, step: &str| {
            assert_eq!(s.live_entries, s.entry_count(), "{step}");
            let snap = telemetry.snapshot();
            assert_eq!(
                snap.gauge(1, "linkstate", "row_bytes_lanes"),
                Some((s.entry_count() * LaneRow::ENTRY_BYTES) as u64),
                "{step}"
            );
        };
        s.update_row(0, &live_row(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]), 0.0);
        check(&s, "insert");
        s.update_row_sparse(0, &[(3, LinkEntry::live(7, 0.0))], 1.0);
        check(&s, "replace, shrinking");
        s.update_row(0, &live_row(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]), 2.0);
        check(&s, "replace, growing");
        s.update_entry(0, 4, LinkEntry::dead(), 3.0);
        s.update_entry(0, 5, LinkEntry::live(50, 0.0), 3.0);
        check(&s, "entry killed, entry overwritten");
        s.update_entry(1, 2, LinkEntry::live(9, 0.0), 4.0);
        s.update_entry(2, 3, LinkEntry::dead(), 4.0);
        check(&s, "rows created by update_entry");
        assert_eq!(s.entry_count(), 10);
        // Rows 0–2 are stale at t = 100: a fourth origin arriving at the
        // entitlement boundary sheds all three.
        s.update_row_sparse(7, &[(1, LinkEntry::live(5, 0.0))], 100.0);
        assert_eq!(s.present_rows(), vec![7]);
        check(&s, "evict");
        s.clear_row(7);
        s.clear_row(7);
        check(&s, "clear, twice");
        assert_eq!(s.live_entries, 0);
    }

    /// The cursor agrees with fresh `get`/`cost_u32` lookups under any
    /// probe order — ascending (the fast path), backwards (the binary
    /// search fallback), repeats, and misses — on every row variant.
    #[test]
    fn cursor_matches_fresh_lookups_in_any_order() {
        let n = 12;
        let mut row = vec![LinkEntry::dead(); n];
        for d in [1usize, 4, 5, 9, 11] {
            row[d] = LinkEntry::live(10 * d as u16, 0.01);
        }
        let pairs: Vec<(u16, LinkEntry)> = row
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(d, e)| (d as u16, *e))
            .collect();
        let lanes = LaneRow::from_dense(&row);
        let views = [
            RowRef::Dense(&row),
            RowRef::Sparse {
                width: n,
                entries: &pairs,
            },
            lanes.as_row_ref(n),
        ];
        let probes = [0usize, 1, 4, 4, 9, 11, 2, 5, 10, 0, 11, 3];
        for view in views {
            let mut cur = view.cursor();
            for &d in &probes {
                assert_eq!(cur.get(d), view.get(d), "get({d}) via cursor");
            }
            let mut cur = view.cursor();
            for &d in &probes {
                assert_eq!(
                    cur.cost_u32(d),
                    view.cost_u32(d),
                    "cost_u32({d}) via cursor"
                );
            }
        }
    }

    /// Lane rows store the exact wire bytes: building from entries that
    /// need wire clamping (latency 65535, off-grid loss) equals
    /// building from their decoded wire forms.
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
        let view = lanes.as_row_ref(3);
        assert_eq!(view.get(0), LinkEntry::decode(row[0].encode()));
        assert_eq!(view.get(0).latency_ms, u16::MAX - 1);
        assert_eq!(view.get(1), LinkEntry::dead());
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
        assert!(s.put_row(0, full(&[0, 10, 20, 30], 5), 1.0));
        assert_eq!(s.row_seqno(0), 5);
        // Same seqno refreshes (periodic re-announcement), newer advances.
        assert!(s.put_row(0, full(&[0, 11, 20, 30], 5), 2.0));
        assert_eq!(s.row_time(0), Some(2.0));
        let retracting = LaneRow::from_pairs(&[(1, LinkEntry::live(9, 0.0))]).with_version(6, &[2]);
        assert!(s.put_row(0, Arc::new(retracting), 3.0));
        assert_eq!(s.row_seqno(0), 6);
        assert!(s.row_retracts(0, 2));
        assert!(!s.row_retracts(0, 1));
        // A delayed replay of the older row must not resurrect dst 2.
        assert!(!s.put_row(0, full(&[0, 10, 20, 30], 5), 4.0));
        assert_eq!(s.row_seqno(0), 6);
        assert_eq!(s.row_time(0), Some(3.0), "rejected replay leaves the row");
        assert!(!s.entry(0, 2).alive);
        assert_eq!(s.live_entries, s.entry_count(), "and the running total");
        // Unversioned rows (seqno 0) always pass — no flag day.
        assert!(s.put_row(0, full(&[0, 10, 20, 30], 0), 5.0));
        assert_eq!(s.row_seqno(0), 0);
        assert!(!s.row_retracts(0, 2));
    }

    /// The store keeps the row it is handed, not a copy — the frame
    /// path's zero-copy ingest — and a single-entry update on a row
    /// something else still holds copies it first, leaving the other
    /// holder's row alone.
    #[test]
    fn put_row_shares_the_row_until_an_entry_update() {
        let mut s = RowStore::new(4);
        let row = Arc::new(LaneRow::from_dense(&live_row(&[0, 10, 20, 30])));
        assert!(s.put_row(2, Arc::clone(&row), 1.0));
        assert_eq!(Arc::strong_count(&row), 2, "stored, not copied");
        s.update_entry(2, 3, LinkEntry::dead(), 2.0);
        assert_eq!(Arc::strong_count(&row), 1, "the store copied on write");
        assert_eq!(row.len(), 4, "the frame's row is untouched");
        assert_eq!(s.entry_count(), 3);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn put_row_destination_bounds_checked() {
        let wide = LaneRow::from_pairs(&[(7, LinkEntry::live(1, 0.0))]);
        RowStore::new(4).put_row(0, Arc::new(wide), 0.0);
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
            s.update_row(origin, &entries, 10.0);
        }
        // k = 1 parity with the scavenging kernel.
        for (a, b) in [(0, 2), (0, 4), (1, 3), (2, 0)] {
            let one: Vec<(usize, Cost)> = s.one_hop_options(a, b, 10.5, 45.0);
            let k: Vec<(usize, Cost)> = s
                .k_hop_options(a, b, 1, 10.5, 45.0)
                .into_iter()
                .map(|(path, cost, _)| {
                    assert_eq!(path.len(), 3);
                    assert_eq!((path[0], path[2]), (a, b));
                    (path[1], cost)
                })
                .collect();
            assert_eq!(one, k, "pair ({a},{b})");
        }
        // 0 → 4 needs at least two intermediate relays; 1-hop scavenging
        // finds nothing, 2-hop pays the expensive 0 → 2 link, 3-hop
        // routes around it.
        assert!(s.k_hop_options(0, 4, 1, 10.5, 45.0).is_empty());
        let two = s.k_hop_options(0, 4, 2, 10.5, 45.0);
        assert_eq!(two[0].0, vec![0, 2, 3, 4]);
        assert_eq!(two[0].1, 70.0);
        let opts = s.k_hop_options(0, 4, 3, 10.5, 45.0);
        let (path, cost, remaining) = &opts[0];
        assert_eq!(path, &[0, 1, 2, 3, 4]);
        assert_eq!(*cost, 40.0);
        assert_eq!(*remaining, 30.0, "cost the first relay advertises");
        // Wider budgets don't invent longer paths when shorter ones win.
        assert_eq!(
            s.k_hop_options(0, 4, 8, 10.5, 45.0)[0].0,
            vec![0, 1, 2, 3, 4]
        );
        // Paths are simple: no candidate revisits a node.
        for (path, _, _) in s.k_hop_options(0, 4, 8, 10.5, 45.0) {
            let mut seen = path.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), path.len(), "path {path:?} revisits a node");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_row_bounds_checked() {
        RowStore::new(2).update_row(2, &live_row(&[0, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "n entries")]
    fn update_row_length_checked() {
        RowStore::new(3).update_row(0, &live_row(&[0, 1]), 0.0);
    }
}

//! The grid quorum of section 3, including the non-perfect-square
//! construction and the rendezvous-set algebra built on top of it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Integer square root (largest `f` with `f² ≤ n`).
fn isqrt(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let mut f = (n as f64).sqrt() as usize;
    // Float sqrt can be off by one near perfect squares; fix up exactly.
    while (f + 1) * (f + 1) <= n {
        f += 1;
    }
    while f * f > n {
        f -= 1;
    }
    f
}

/// The dimensions of a quorum grid.
///
/// The paper (section 3, footnote 5) sizes the grid as follows: with
/// `a = √n − ⌊√n⌋`, use a `⌈√n⌉ × ⌊√n⌋` grid when `a < 0.5` and a
/// `⌈√n⌉ × ⌈√n⌉` grid otherwise. In integer arithmetic (used here so the
/// construction is exact), `a < 0.5 ⇔ n ≤ f·(f+1)` for `f = ⌊√n⌋`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridShape {
    /// Number of grid rows. The last row may be only partially filled.
    pub rows: usize,
    /// Number of grid columns.
    pub cols: usize,
}

impl GridShape {
    /// The paper's grid shape for `n` nodes (footnote 5).
    #[must_use]
    pub fn for_nodes(n: usize) -> Self {
        assert!(n > 0, "a quorum grid needs at least one node");
        let f = isqrt(n);
        if n == f * f {
            GridShape { rows: f, cols: f }
        } else if n <= f * (f + 1) {
            // a < 0.5: ⌈√n⌉ × ⌊√n⌋
            GridShape {
                rows: f + 1,
                cols: f,
            }
        } else {
            // a ≥ 0.5: ⌈√n⌉ × ⌈√n⌉
            GridShape {
                rows: f + 1,
                cols: f + 1,
            }
        }
    }

    /// Total cell count (≥ the number of nodes placed).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for GridShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.rows, self.cols)
    }
}

/// The default rendezvous nodes of one pair — the grid crossings that
/// exist, one or two of them, ascending and distinct: what
/// [`Grid::default_rendezvous_pair`] returns. Held inline; reads as a
/// `[usize]` slice.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RendezvousPair {
    nodes: [usize; 2],
    len: usize,
}

impl std::ops::Deref for RendezvousPair {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.nodes[..self.len]
    }
}

impl fmt::Debug for RendezvousPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A grid quorum over nodes `0..n`, placed row-major.
///
/// The grid operates on *grid indices*, not overlay [`NodeId`]s: the
/// membership layer sorts the live member IDs and assigns index `i` to the
/// `i`-th smallest, exactly as the paper's membership service populates the
/// grid "from a sorted list of member IDs" (section 5). Consequently every
/// node with the same membership view derives the identical grid.
///
/// # Rendezvous relations
///
/// * [`rendezvous_set`](Grid::rendezvous_set) — the quorum `Rᵢ` *including*
///   `i` itself (a node trivially knows its own link state). Intersection
///   guarantees are stated on these sets.
/// * [`rendezvous_servers`](Grid::rendezvous_servers) — `Rᵢ \ {i}`: the
///   nodes `i` actually sends link state to in round one. The relation is
///   symmetric (including the incomplete-row extras), so the same set is
///   `i`'s rendezvous *clients* — the nodes that send their link state to
///   `i` and get its recommendations in round two — and the failover
///   candidates for reaching `i` (section 4.1).
///
/// [`NodeId`]: crate::NodeId
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid {
    n: usize,
    shape: GridShape,
    /// Number of nodes in the (possibly incomplete) last row.
    last_row_len: usize,
}

impl Grid {
    /// Build the paper's grid for `n ≥ 1` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let shape = GridShape::for_nodes(n);
        let last_row_len = n - (shape.rows - 1) * shape.cols;
        Grid {
            n,
            shape,
            last_row_len,
        }
    }

    /// Number of nodes in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the grid holds no nodes. (Never true: construction
    /// requires `n ≥ 1`; provided for API completeness.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The grid's shape.
    #[must_use]
    pub fn shape(&self) -> GridShape {
        self.shape
    }

    /// Number of nodes in the last (possibly incomplete) row.
    #[must_use]
    pub fn last_row_len(&self) -> usize {
        self.last_row_len
    }

    /// True when the last row is full, i.e. `n = rows·cols`.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.last_row_len == self.shape.cols
    }

    /// The `(row, col)` position of node `i`.
    ///
    /// # Panics
    /// Panics if `i ≥ n`.
    #[must_use]
    pub fn position(&self, i: usize) -> (usize, usize) {
        assert!(i < self.n, "node {i} out of range for grid of {}", self.n);
        (i / self.shape.cols, i % self.shape.cols)
    }

    /// The node at `(row, col)`, or `None` for an empty cell / out of range.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.shape.rows || col >= self.shape.cols {
            return None;
        }
        let i = row * self.shape.cols + col;
        (i < self.n).then_some(i)
    }

    /// All nodes in grid row `row` (left to right).
    pub fn row_members(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        let cols = self.shape.cols;
        let n = self.n;
        (0..cols)
            .map(move |c| row * cols + c)
            .filter(move |&i| i < n)
    }

    /// All nodes in grid column `col` (top to bottom).
    pub fn col_members(&self, col: usize) -> impl Iterator<Item = usize> + '_ {
        let cols = self.shape.cols;
        let n = self.n;
        (0..self.shape.rows)
            .map(move |r| r * cols + col)
            .filter(move |&i| i < n)
    }

    /// Extra rendezvous partners introduced by the incomplete-last-row fix.
    ///
    /// With `k` nodes in the incomplete last row, the paper pairs the
    /// bottom-row node in column `i` (for `i < k`) with the nodes at
    /// `(i, j)` for `k ≤ j < cols` — and symmetrically. This restores the
    /// "rendezvous in every row and every column" property that blank
    /// cells would otherwise break.
    pub fn extra_partners(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let (r, c) = self.position(i);
        let k = self.last_row_len;
        let cols = self.shape.cols;
        let bottom = self.shape.rows - 1;
        let complete = self.is_complete();

        // Case 1: `i` is in the incomplete bottom row → partners are the
        // tail (columns k..cols) of row `c`.
        let from_bottom = (!complete && r == bottom)
            .then(|| (k..cols).filter_map(move |j| self.at(c, j)))
            .into_iter()
            .flatten();
        // Case 2: `i` is a tail node (column ≥ k) in row < k → partner is
        // the bottom-row node in column `r`.
        let from_tail = (!complete && r != bottom && c >= k && r < k)
            .then(|| self.at(bottom, r))
            .flatten();

        from_bottom.chain(from_tail)
    }

    /// The rendezvous set `Rᵢ` *including* `i` itself: all nodes in `i`'s
    /// row and column, plus incomplete-row extras. Sorted, deduplicated.
    #[must_use]
    pub fn rendezvous_set(&self, i: usize) -> Vec<usize> {
        let mut set = Vec::new();
        self.rendezvous_set_into(i, &mut set);
        set
    }

    /// [`rendezvous_set`](Self::rendezvous_set) written over `set`,
    /// whose allocation is reused.
    fn rendezvous_set_into(&self, i: usize, set: &mut Vec<usize>) {
        let (r, c) = self.position(i);
        set.clear();
        set.extend(
            self.row_members(r)
                .chain(self.col_members(c))
                .chain(self.extra_partners(i)),
        );
        set.sort_unstable();
        set.dedup();
    }

    /// The rendezvous servers of `i` — `Rᵢ` without `i` itself; the nodes
    /// that receive `i`'s link state in round one. Sorted.
    #[must_use]
    pub fn rendezvous_servers(&self, i: usize) -> Vec<usize> {
        let mut set = Vec::new();
        self.rendezvous_servers_into(i, &mut set);
        set
    }

    /// [`rendezvous_servers`](Self::rendezvous_servers) written over
    /// `set`, whose allocation is reused: a caller that asks about one
    /// node after another (the failover sweep asks about every
    /// destination under a double failure, every tick) keeps one buffer.
    pub fn rendezvous_servers_into(&self, i: usize, set: &mut Vec<usize>) {
        self.rendezvous_set_into(i, set);
        set.retain(|&x| x != i);
    }

    /// True when `server` is a rendezvous server of `i` (or `i` itself).
    #[must_use]
    pub fn serves(&self, server: usize, i: usize) -> bool {
        if server == i {
            return true;
        }
        let (ri, ci) = self.position(i);
        let (rs, cs) = self.position(server);
        if ri == rs || ci == cs {
            return true;
        }
        self.extra_partners(i).any(|p| p == server)
    }

    /// The common rendezvous nodes of `i` and `j` (`Rᵢ ∩ Rⱼ`, including the
    /// endpoints themselves when applicable). Sorted.
    ///
    /// For every pair of distinct nodes this has at least two elements —
    /// the redundancy that section 4 relies on for failure tolerance.
    #[must_use]
    pub fn common_rendezvous(&self, i: usize, j: usize) -> Vec<usize> {
        let a = self.rendezvous_set(i);
        let b = self.rendezvous_set(j);
        intersect_sorted(&a, &b)
    }

    /// The *default* rendezvous pair for `(i, j)`: the row/column crossing
    /// points `(rowᵢ, colⱼ)` and `(rowⱼ, colᵢ)` when they exist.
    ///
    /// These are the two servers a node expects recommendations for `j`
    /// from under failure-free operation; the failover machinery (section
    /// 4.1) watches exactly these — once per destination per routing
    /// tick, so the crossings come back inline, without a heap
    /// allocation (see [`RendezvousPair`]).
    ///
    /// At least one crossing always exists. Placement is row-major, so
    /// only the last row has blank cells: `(rowᵢ, colⱼ)` is blank only
    /// if `i` is in the last row and `j`'s column is beyond its end,
    /// and `(rowⱼ, colᵢ)` only the other way round — both at once would
    /// put `i` and `j` in the last row *and* beyond its end.
    #[must_use]
    pub fn default_rendezvous_pair(&self, i: usize, j: usize) -> RendezvousPair {
        let (ri, ci) = self.position(i);
        let (rj, cj) = self.position(j);
        let (nodes, len) = match (self.at(ri, cj), self.at(rj, ci)) {
            (Some(x), Some(y)) if x != y => ([x.min(y), x.max(y)], 2),
            (Some(x), _) | (None, Some(x)) => ([x, x], 1),
            (None, None) => unreachable!("two nodes of the last row cross inside it"),
        };
        RendezvousPair { nodes, len }
    }

    /// Upper bound on any node's rendezvous degree, `2·√n` in the paper.
    #[must_use]
    pub fn max_rendezvous_degree(&self) -> usize {
        2 * self.shape.rows.max(self.shape.cols)
    }

    /// Iterate over all nodes of the grid.
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        0..self.n
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Grid({} nodes, {})", self.n, self.shape)?;
        for r in 0..self.shape.rows {
            for c in 0..self.shape.cols {
                match self.at(r, c) {
                    Some(i) => write!(f, "{i:>5}")?,
                    None => write!(f, "    .")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Intersection of two sorted, deduplicated slices.
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[x]);
                x += 1;
                y += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_exact() {
        for n in 0..10_000usize {
            let f = isqrt(n);
            assert!(f * f <= n, "isqrt({n}) = {f} too big");
            assert!((f + 1) * (f + 1) > n, "isqrt({n}) = {f} too small");
        }
    }

    #[test]
    fn paper_shapes() {
        // n = 9 → 3×3 (figure 2).
        assert_eq!(GridShape::for_nodes(9), GridShape { rows: 3, cols: 3 });
        // n = 18 → 5×4 (the worked example in section 3).
        assert_eq!(GridShape::for_nodes(18), GridShape { rows: 5, cols: 4 });
        // n = 12 → 4×3: a = √12−3 ≈ 0.46 < 0.5.
        assert_eq!(GridShape::for_nodes(12), GridShape { rows: 4, cols: 3 });
        // n = 13 → 4×4: a = √13−3 ≈ 0.61 ≥ 0.5.
        assert_eq!(GridShape::for_nodes(13), GridShape { rows: 4, cols: 4 });
        // Degenerate sizes.
        assert_eq!(GridShape::for_nodes(1), GridShape { rows: 1, cols: 1 });
        assert_eq!(GridShape::for_nodes(2), GridShape { rows: 2, cols: 1 });
        assert_eq!(GridShape::for_nodes(3), GridShape { rows: 2, cols: 2 });
    }

    #[test]
    fn shape_always_fits_with_nonempty_last_row() {
        for n in 1..2_000usize {
            let s = GridShape::for_nodes(n);
            assert!(s.cells() >= n, "n={n}: {s} too small");
            assert!(
                (s.rows - 1) * s.cols < n,
                "n={n}: {s} leaves the last row empty"
            );
        }
    }

    #[test]
    fn figure_2_rendezvous_sets() {
        // The paper's 3×3 example, figure 2/3, translated to 0-based IDs:
        // paper node 9 = index 8 at position (2,2). Its rendezvous servers
        // are paper nodes {3, 6, 7, 8} = indices {2, 5, 6, 7}.
        let g = Grid::new(9);
        assert_eq!(g.position(8), (2, 2));
        assert_eq!(g.rendezvous_servers(8), vec![2, 5, 6, 7]);
        assert_eq!(g.rendezvous_set(8), vec![2, 5, 6, 7, 8]);
        // Paper nodes 9 and 1 (indices 8 and 0) share rendezvous at the
        // crossings (row 0, col 2) = index 2 and (row 2, col 0) = index 6.
        assert_eq!(*g.default_rendezvous_pair(0, 8), [2, 6]);
        assert_eq!(g.common_rendezvous(0, 8), vec![2, 6]);
    }

    #[test]
    fn figure_3_round2_rendezvous_knows_both() {
        // In figure 3, node 3 (index 2) is a rendezvous server for node 9
        // (index 8) and recommends hops towards nodes 1, 2, 3, 6.
        let g = Grid::new(9);
        assert!(g.rendezvous_servers(8).contains(&2));
        // Node 2's clients are its row {0,1} and column {5, 8}.
        assert_eq!(g.rendezvous_servers(2), vec![0, 1, 5, 8]);
    }

    #[test]
    fn paper_18_node_example_extras() {
        // Section 3's 5×4 example with 18 nodes: last row has k = 2 nodes
        // (paper nodes 17, 18 = indices 16, 17). The paper pairs node 17
        // with (1, 3..4) (= indices 2, 3) and node 18 with (2, 3..4)
        // (= indices 6, 7).
        let g = Grid::new(18);
        assert_eq!(g.last_row_len(), 2);
        let extras16: Vec<usize> = g.extra_partners(16).collect();
        assert_eq!(extras16, vec![2, 3]);
        let extras17: Vec<usize> = g.extra_partners(17).collect();
        assert_eq!(extras17, vec![6, 7]);
        // Symmetry: the tail nodes see the bottom nodes as partners.
        assert_eq!(g.extra_partners(2).collect::<Vec<_>>(), vec![16]);
        assert_eq!(g.extra_partners(7).collect::<Vec<_>>(), vec![17]);
        // Non-tail nodes and tail nodes in rows ≥ k get no extras.
        assert_eq!(g.extra_partners(0).count(), 0);
        assert_eq!(g.extra_partners(11).count(), 0); // (2,3)? index 11 = (2,3): row 2 < k? k=2, row 2 ≥ k → none
        assert_eq!(g.extra_partners(15).count(), 0); // (3,3): row 3 ≥ k → none
    }

    #[test]
    fn intersection_property_exhaustive_small() {
        // Every pair of distinct nodes shares at least two rendezvous nodes
        // (counting the endpoints themselves when they qualify), for every
        // overlay size up to 200.
        for n in 2..=200usize {
            let g = Grid::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    let common = g.common_rendezvous(i, j);
                    assert!(
                        common.len() >= 2,
                        "n={n}, pair ({i},{j}): common rendezvous {common:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_pair_members_serve_both() {
        for n in [9usize, 18, 50, 140, 144] {
            let g = Grid::new(n);
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let pair = g.default_rendezvous_pair(i, j);
                    assert!(!pair.is_empty());
                    for &k in pair.iter() {
                        assert!(g.serves(k, i), "n={n}: {k} !serves {i}");
                        assert!(g.serves(k, j), "n={n}: {k} !serves {j}");
                    }
                }
            }
        }
    }

    /// The pair is the crossings that exist, ascending and distinct —
    /// spot cases, then the definition spelled out with a `Vec` over
    /// every grid of up to 200 nodes, where at least one crossing always
    /// does exist.
    #[test]
    fn default_pair_crossings_and_blank_cells() {
        // Complete grid: both crossings exist.
        let g = Grid::new(9);
        assert_eq!(*g.default_rendezvous_pair(8, 0), [2, 6]);
        // Same row: the crossings are the endpoints themselves.
        assert_eq!(*g.default_rendezvous_pair(3, 5), [3, 5]);
        // One node is its own only crossing.
        assert_eq!(*g.default_rendezvous_pair(4, 4), [4]);
        // Incomplete grid (18 nodes on 5×4, last row holds 2): node 16
        // sits at (4,0), node 3 at (0,3); the crossing (4,3) is blank,
        // so (0,0) = node 0 is the whole default pair.
        let g = Grid::new(18);
        assert_eq!(g.at(4, 3), None);
        assert_eq!(*g.default_rendezvous_pair(16, 3), [0]);
        assert_eq!(*g.default_rendezvous_pair(3, 16), [0]);

        for n in 1..=200usize {
            let g = Grid::new(n);
            for i in 0..n {
                for j in 0..n {
                    let (ri, ci) = g.position(i);
                    let (rj, cj) = g.position(j);
                    let mut want: Vec<usize> =
                        [g.at(ri, cj), g.at(rj, ci)].into_iter().flatten().collect();
                    want.sort_unstable();
                    want.dedup();
                    assert!(!want.is_empty(), "n={n} pair ({i},{j})");
                    let got = g.default_rendezvous_pair(i, j);
                    assert_eq!(*got, *want, "n={n} pair ({i},{j})");
                    assert!(!got.is_empty());
                }
            }
        }
    }

    #[test]
    fn rendezvous_degree_bounded() {
        for n in 2..=400usize {
            let g = Grid::new(n);
            let bound = g.max_rendezvous_degree();
            for i in 0..n {
                let servers = g.rendezvous_servers(i).len();
                assert!(
                    servers <= bound,
                    "n={n}, node {i}: {servers} servers > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn symmetry_of_rendezvous_relation() {
        for n in 2..=300usize {
            let g = Grid::new(n);
            for i in 0..n {
                for &s in &g.rendezvous_servers(i) {
                    assert!(
                        g.rendezvous_servers(s).contains(&i),
                        "n={n}: {s} serves {i} but not vice versa"
                    );
                }
            }
        }
    }

    #[test]
    fn row_col_membership() {
        let g = Grid::new(18);
        assert_eq!(g.row_members(4).collect::<Vec<_>>(), vec![16, 17]);
        assert_eq!(g.col_members(0).collect::<Vec<_>>(), vec![0, 4, 8, 12, 16]);
        assert_eq!(g.col_members(3).collect::<Vec<_>>(), vec![3, 7, 11, 15]);
        assert_eq!(g.at(4, 2), None);
        assert_eq!(g.at(5, 0), None);
        assert_eq!(g.at(0, 4), None);
    }

    #[test]
    fn serves_is_consistent_with_sets() {
        for n in [7usize, 23, 90, 141] {
            let g = Grid::new(n);
            for i in 0..n {
                let set = g.rendezvous_set(i);
                for s in 0..n {
                    assert_eq!(
                        set.contains(&s),
                        g.serves(s, i),
                        "n={n} serves({s},{i}) mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn display_renders_blank_cells() {
        let g = Grid::new(5);
        let s = g.to_string();
        assert!(s.contains('.'), "incomplete grid should show blanks: {s}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn position_out_of_range_panics() {
        let _ = Grid::new(4).position(4);
    }

    #[test]
    fn single_node_grid() {
        let g = Grid::new(1);
        assert_eq!(g.rendezvous_servers(0), Vec::<usize>::new());
        assert_eq!(g.rendezvous_set(0), vec![0]);
        assert!(g.is_complete());
    }

    #[test]
    fn two_node_grid() {
        let g = Grid::new(2);
        assert_eq!(g.rendezvous_servers(0), vec![1]);
        assert_eq!(g.rendezvous_servers(1), vec![0]);
        assert_eq!(g.common_rendezvous(0, 1), vec![0, 1]);
    }

    #[test]
    fn message_count_bound_theorem_1() {
        // Theorem 1: each node sends at most 4√n messages total across the
        // two rounds — 2(√n−1)-ish servers in round 1 plus the same set of
        // clients in round 2.
        for n in [4usize, 9, 16, 25, 100, 140, 144, 400] {
            let g = Grid::new(n);
            let sqrt_n = (n as f64).sqrt();
            for i in 0..n {
                // Servers in round one, the same set as clients in round two.
                let msgs = 2 * g.rendezvous_servers(i).len();
                assert!(
                    msgs as f64 <= 4.0 * sqrt_n + 4.0,
                    "n={n}, node {i}: {msgs} messages > 4√n"
                );
            }
        }
    }
}

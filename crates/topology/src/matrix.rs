//! All-pairs latency and loss matrices.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One direction of a link: its RTT in milliseconds (`INFINITY` =
/// unreachable) and its packet loss probability in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Round-trip time, ms.
    pub rtt_ms: f64,
    /// Packet loss probability.
    pub loss: f64,
}

impl Link {
    /// A link nothing crosses.
    const UNREACHABLE: Link = Link {
        rtt_ms: f64::INFINITY,
        loss: 0.0,
    };

    /// A node's link to itself.
    const SELF: Link = Link {
        rtt_ms: 0.0,
        loss: 0.0,
    };

    /// Bit for bit the same (so `NaN` equals itself and `-0.0` does not
    /// equal `0.0`): the test for whether a direction needs a record of
    /// its own.
    fn same(self, other: Link) -> bool {
        self.rtt_ms.to_bits() == other.rtt_ms.to_bits()
            && self.loss.to_bits() == other.loss.to_bits()
    }
}

/// An all-pairs RTT (ms) and loss-rate matrix over `n` nodes.
///
/// This is the "ground truth" the simulator delivers packets with, and the
/// reference that effectiveness experiments compare routing output against.
///
/// RTTs are symmetric unless explicitly set otherwise; the paper assumes
/// bidirectional links with identical cost (section 3) and notes that
/// asymmetric costs only change what round one transmits. So the matrix
/// keeps one 16 B [`Link`] record per unordered pair (and one per node
/// for its self-link), `n(n + 1)/2` in all: half of what two dense
/// `n²` arrays of `f64` would hold. A direction set apart from its
/// reverse ([`set_rtt_directed`](Self::set_rtt_directed),
/// [`set_loss_directed`](Self::set_loss_directed), an asymmetric
/// [`from_csv`](Self::from_csv)) keeps its own record in a sorted table
/// of exceptions, which a lookup consults only when it is non-empty.
/// Unreachable pairs carry `f64::INFINITY`. A node index `≥ len()`
/// panics, in release builds too: packed pairs would otherwise read
/// another pair's record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyMatrix {
    n: usize,
    /// The record of each pair `{i, j}`, `i ≤ j`, row-major over the
    /// upper triangle (see [`pair_index`](Self::pair_index)), so a loop
    /// over `j > i` inside a loop over `i` walks it in order.
    links: Vec<Link>,
    /// The directions that differ from their pair's record, by
    /// `(from, to)`. At most one direction of a pair is here.
    directed: BTreeMap<(usize, usize), Link>,
}

impl LatencyMatrix {
    /// A matrix with every distinct pair unreachable and zero loss.
    #[must_use]
    pub fn unreachable(n: usize) -> Self {
        Self::filled(n, Link::UNREACHABLE)
    }

    /// A fully connected matrix with a constant RTT on every pair.
    #[must_use]
    pub fn uniform(n: usize, rtt_ms: f64) -> Self {
        Self::filled(n, Link { rtt_ms, loss: 0.0 })
    }

    /// Every distinct pair at `link`, every node at 0 ms from itself.
    fn filled(n: usize, link: Link) -> Self {
        let mut m = LatencyMatrix {
            n,
            links: vec![link; n * (n + 1) / 2],
            directed: BTreeMap::new(),
        };
        for i in 0..n {
            let p = m.pair_index(i, i);
            m.links[p] = Link::SELF;
        }
        m
    }

    /// Where pair `{i, j}`'s record sits: row `a = min(i, j)` of the
    /// upper triangle starts after the `n + (n − 1) + … + (n − a + 1)`
    /// records of the rows above it, and `b = max(i, j)` is `b − a` into
    /// it.
    ///
    /// # Panics
    /// Panics if `i` or `j` is `≥ n`: index `n` of row 0 is node 1's
    /// self-link, so an unchecked `(0, n)` would read a record that is
    /// not the pair's.
    fn pair_index(&self, i: usize, j: usize) -> usize {
        assert!(i.max(j) < self.n, "({i}, {j}) past n = {}", self.n);
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        a * (2 * self.n - a + 1) / 2 + (b - a)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The direction `i → j`: its RTT and loss in one read.
    #[must_use]
    pub fn link(&self, i: usize, j: usize) -> Link {
        if !self.directed.is_empty() {
            if let Some(&l) = self.directed.get(&(i, j)) {
                return l;
            }
        }
        self.links[self.pair_index(i, j)]
    }

    /// RTT between `i` and `j` in milliseconds (0 for `i == j`,
    /// `INFINITY` when unreachable).
    #[must_use]
    pub fn rtt(&self, i: usize, j: usize) -> f64 {
        self.link(i, j).rtt_ms
    }

    /// One-way delay `i → j` (half the RTT), used by the simulator.
    #[must_use]
    pub fn one_way(&self, i: usize, j: usize) -> f64 {
        self.rtt(i, j) / 2.0
    }

    /// True when `i` can reach `j` directly.
    #[must_use]
    pub fn reachable(&self, i: usize, j: usize) -> bool {
        self.rtt(i, j).is_finite()
    }

    /// Packet loss probability on `i → j`.
    #[must_use]
    pub fn loss(&self, i: usize, j: usize) -> f64 {
        self.link(i, j).loss
    }

    /// Make `i → j` read `fwd` and `j → i` read `rev`: one record when
    /// they agree (or `i == j`, where they are one direction), else the
    /// pair's record holds `rev` and `fwd` is an exception.
    fn put(&mut self, i: usize, j: usize, fwd: Link, rev: Link) {
        let p = self.pair_index(i, j);
        if i == j || fwd.same(rev) {
            self.links[p] = fwd;
            if !self.directed.is_empty() {
                self.directed.remove(&(i, j));
                self.directed.remove(&(j, i));
            }
        } else {
            self.links[p] = rev;
            self.directed.remove(&(j, i));
            self.directed.insert((i, j), fwd);
        }
    }

    /// Set the RTT and loss for both directions of a pair.
    ///
    /// # Panics
    /// Panics unless `link.loss ∈ [0, 1]`.
    pub fn set_link(&mut self, i: usize, j: usize, link: Link) {
        assert!(
            (0.0..=1.0).contains(&link.loss),
            "loss must be a probability"
        );
        self.put(i, j, link, link);
    }

    /// Set the RTT for both directions of a pair.
    pub fn set_rtt(&mut self, i: usize, j: usize, rtt_ms: f64) {
        let (fwd, rev) = (self.link(i, j), self.link(j, i));
        self.put(i, j, Link { rtt_ms, ..fwd }, Link { rtt_ms, ..rev });
    }

    /// Set an asymmetric one-direction RTT (used by asymmetry ablations).
    pub fn set_rtt_directed(&mut self, i: usize, j: usize, rtt_ms: f64) {
        let (fwd, rev) = (self.link(i, j), self.link(j, i));
        self.put(i, j, Link { rtt_ms, ..fwd }, rev);
    }

    /// Set the loss probability for both directions of a pair.
    ///
    /// # Panics
    /// Panics unless `loss ∈ [0, 1]`.
    pub fn set_loss(&mut self, i: usize, j: usize, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        let (fwd, rev) = (self.link(i, j), self.link(j, i));
        self.put(i, j, Link { loss, ..fwd }, Link { loss, ..rev });
    }

    /// Set an asymmetric one-direction loss probability (lossy-WAN and
    /// asymmetry ablations; the reverse direction is untouched).
    ///
    /// # Panics
    /// Panics unless `loss ∈ [0, 1]`.
    pub fn set_loss_directed(&mut self, i: usize, j: usize, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        let (fwd, rev) = (self.link(i, j), self.link(j, i));
        self.put(i, j, Link { loss, ..fwd }, rev);
    }

    /// Iterate over all ordered pairs `(i, j, rtt)` with `i != j`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n)
                .filter(move |&j| j != i)
                .map(move |j| (i, j, self.rtt(i, j)))
        })
    }

    /// The best one-hop relay for `i → j` under this matrix: the `k`
    /// minimizing `rtt(i,k) + rtt(k,j)`, `k ∉ {i, j}`.
    ///
    /// Returns `(k, total_rtt)`; `None` when no finite relay path exists.
    /// This is the *reference* optimum the routing protocol must discover
    /// (Theorem 1); the protocol itself never calls this.
    #[must_use]
    pub fn best_one_hop(&self, i: usize, j: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for k in 0..self.n {
            if k == i || k == j {
                continue;
            }
            let total = self.rtt(i, k) + self.rtt(k, j);
            if total.is_finite() && best.is_none_or(|(_, b)| total < b) {
                best = Some((k, total));
            }
        }
        best
    }

    /// The best path cost for `i → j` allowing either the direct link or a
    /// single relay — `min(direct, best one-hop)`.
    #[must_use]
    pub fn best_path_with_one_hop(&self, i: usize, j: usize) -> f64 {
        let direct = self.rtt(i, j);
        match self.best_one_hop(i, j) {
            Some((_, relay)) => direct.min(relay),
            None => direct,
        }
    }

    /// All-pairs shortest paths of unrestricted length (Floyd–Warshall),
    /// the reference for the multi-hop extension of section 3.
    #[must_use]
    pub fn all_pairs_shortest(&self) -> Vec<f64> {
        let n = self.n;
        let mut d: Vec<f64> = (0..n * n).map(|x| self.rtt(x / n, x % n)).collect();
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                if !dik.is_finite() {
                    continue;
                }
                for j in 0..n {
                    let via = dik + d[k * n + j];
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        d
    }

    /// Serialize to a simple CSV: header `src,dst,rtt_ms,loss`, one row
    /// per ordered pair with a finite RTT. A round trip through
    /// [`from_csv`](Self::from_csv) reconstructs the matrix, so real
    /// measurement datasets (e.g. all-pairs-pings dumps) can be fed to
    /// every experiment in place of the synthetic model.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("src,dst,rtt_ms,loss\n");
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j && self.rtt(i, j).is_finite() {
                    use std::fmt::Write as _;
                    let _ = writeln!(out, "{i},{j},{},{}", self.rtt(i, j), self.loss(i, j));
                }
            }
        }
        out
    }

    /// Parse the CSV form produced by [`to_csv`](Self::to_csv) (or by any
    /// external measurement pipeline). `n` is inferred as 1 + the largest
    /// node index mentioned; pairs absent from the file stay unreachable.
    ///
    /// # Errors
    /// Returns a message describing the first malformed line.
    pub fn from_csv(csv: &str) -> Result<LatencyMatrix, String> {
        // By direction; a later line for a direction overrides an
        // earlier one.
        let mut listed: BTreeMap<(usize, usize), Link> = BTreeMap::new();
        let mut max_idx = 0usize;
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (lineno == 0 && line.starts_with("src")) {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 4 {
                return Err(format!("line {}: expected 4 fields", lineno + 1));
            }
            let parse_idx = |s: &str| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("line {}: bad index {s:?}: {e}", lineno + 1))
            };
            let parse_f = |s: &str| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: bad number {s:?}: {e}", lineno + 1))
            };
            let (src, dst) = (parse_idx(fields[0])?, parse_idx(fields[1])?);
            let (rtt, loss) = (parse_f(fields[2])?, parse_f(fields[3])?);
            if src == dst {
                return Err(format!("line {}: self-pair {src}", lineno + 1));
            }
            if !(0.0..=1.0).contains(&loss) {
                return Err(format!(
                    "line {}: loss {loss} not a probability",
                    lineno + 1
                ));
            }
            if !rtt.is_finite() || rtt < 0.0 {
                return Err(format!("line {}: bad rtt {rtt}", lineno + 1));
            }
            max_idx = max_idx.max(src).max(dst);
            listed.insert((src, dst), Link { rtt_ms: rtt, loss });
        }
        // Each pair once: from its lower-to-higher line when it has one.
        let mut m = LatencyMatrix::unreachable(max_idx + 1);
        for (&(src, dst), &fwd) in &listed {
            let rev = listed.get(&(dst, src));
            if src < dst || rev.is_none() {
                m.put(src, dst, fwd, rev.copied().unwrap_or(Link::UNREACHABLE));
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LatencyMatrix {
        // 4 nodes: a "triangle-inequality violation" where 0→3 direct is
        // slow (500 ms) but 0→1→3 is 150 ms.
        let mut m = LatencyMatrix::unreachable(4);
        m.set_rtt(0, 1, 50.0);
        m.set_rtt(0, 2, 200.0);
        m.set_rtt(0, 3, 500.0);
        m.set_rtt(1, 2, 80.0);
        m.set_rtt(1, 3, 100.0);
        m.set_rtt(2, 3, 90.0);
        m
    }

    #[test]
    fn directed_loss_leaves_reverse_untouched() {
        let mut m = sample();
        m.set_loss(0, 1, 0.05);
        m.set_loss_directed(0, 1, 0.4);
        assert!((m.loss(0, 1) - 0.4).abs() < 1e-12);
        assert!(
            (m.loss(1, 0) - 0.05).abs() < 1e-12,
            "reverse direction kept"
        );
    }

    #[test]
    #[should_panic(expected = "loss must be a probability")]
    fn directed_loss_rejects_non_probability() {
        let mut m = sample();
        m.set_loss_directed(0, 1, 1.5);
    }

    /// A node past the matrix is refused, not read off a neighbouring
    /// record — `(0, 4)` packs to node 1's self-link — in the release
    /// profile as in the debug one.
    #[test]
    #[should_panic(expected = "(0, 4) past n = 4")]
    fn a_node_past_the_matrix_panics() {
        let _ = sample().rtt(0, 4);
    }

    #[test]
    fn symmetry_and_diagonal() {
        let m = sample();
        for i in 0..4 {
            assert_eq!(m.rtt(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.rtt(i, j), m.rtt(j, i));
            }
        }
    }

    #[test]
    fn best_one_hop_finds_detour() {
        let m = sample();
        let (k, total) = m.best_one_hop(0, 3).unwrap();
        assert_eq!(k, 1);
        assert!((total - 150.0).abs() < 1e-9);
        assert!((m.best_path_with_one_hop(0, 3) - 150.0).abs() < 1e-9);
        // Direct is better for a short pair.
        assert_eq!(m.best_path_with_one_hop(0, 1), 50.0);
    }

    #[test]
    fn best_one_hop_none_when_isolated() {
        let m = LatencyMatrix::unreachable(3);
        assert!(m.best_one_hop(0, 1).is_none());
        assert!(!m.reachable(0, 1));
        assert!(m.best_path_with_one_hop(0, 1).is_infinite());
    }

    #[test]
    fn floyd_warshall_matches_one_hop_when_one_hop_optimal() {
        let m = sample();
        let apsp = m.all_pairs_shortest();
        // In this matrix two-hop paths never beat the best one-hop path.
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let one = m.best_path_with_one_hop(i, j);
                assert!(apsp[i * 4 + j] <= one + 1e-9);
            }
        }
        assert!((apsp[3] - 150.0).abs() < 1e-9);
    }

    #[test]
    fn multi_hop_can_beat_one_hop() {
        // Line topology: 0–1–2–3 cheap, everything else expensive.
        let mut m = LatencyMatrix::uniform(4, 1000.0);
        m.set_rtt(0, 1, 10.0);
        m.set_rtt(1, 2, 10.0);
        m.set_rtt(2, 3, 10.0);
        let apsp = m.all_pairs_shortest();
        assert!((apsp[3] - 30.0).abs() < 1e-9); // 0→1→2→3
                                                // One-hop relays (1010 via either relay) lose to the direct link …
        assert_eq!(m.best_one_hop(0, 3), Some((1, 1010.0)));
        assert!((m.best_path_with_one_hop(0, 3) - 1000.0).abs() < 1e-9);
        // … and both lose to the two-hop chain.
    }

    #[test]
    fn uniform_and_unreachable_constructors() {
        let u = LatencyMatrix::uniform(5, 42.0);
        assert_eq!(u.rtt(1, 4), 42.0);
        assert_eq!(u.rtt(2, 2), 0.0);
        assert!(u.reachable(0, 1));
        let x = LatencyMatrix::unreachable(5);
        assert!(!x.reachable(0, 1));
        assert!(x.reachable(2, 2));
    }

    #[test]
    fn loss_set_get() {
        let mut m = LatencyMatrix::uniform(3, 10.0);
        m.set_loss(0, 2, 0.25);
        assert_eq!(m.loss(0, 2), 0.25);
        assert_eq!(m.loss(2, 0), 0.25);
        assert_eq!(m.loss(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn loss_rejects_out_of_range() {
        LatencyMatrix::uniform(2, 1.0).set_loss(0, 1, 1.5);
    }

    #[test]
    fn directed_rtt_is_one_sided() {
        let mut m = LatencyMatrix::uniform(3, 100.0);
        m.set_rtt_directed(0, 1, 40.0);
        assert_eq!(m.rtt(0, 1), 40.0);
        assert_eq!(m.rtt(1, 0), 100.0);
    }

    #[test]
    fn csv_roundtrip_preserves_matrix() {
        let mut m = sample();
        m.set_loss(0, 3, 0.125);
        let csv = m.to_csv();
        let back = LatencyMatrix::from_csv(&csv).unwrap();
        assert_eq!(back.len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(back.rtt(i, j), m.rtt(i, j), "rtt ({i},{j})");
                assert_eq!(back.loss(i, j), m.loss(i, j), "loss ({i},{j})");
            }
        }
    }

    #[test]
    fn csv_preserves_asymmetry_and_unreachable() {
        let mut m = LatencyMatrix::unreachable(3);
        m.set_rtt_directed(0, 1, 40.0);
        let back = LatencyMatrix::from_csv(&m.to_csv()).unwrap();
        assert_eq!(back.rtt(0, 1), 40.0);
        assert!(!back.reachable(1, 0));
        assert_eq!(back.len(), 2, "node 2 is named on no line");
        // Once a line names node 2, its pairs no line lists stay
        // unreachable both ways.
        m.set_rtt_directed(2, 1, 7.0);
        let back = LatencyMatrix::from_csv(&m.to_csv()).unwrap();
        assert_eq!((back.len(), back.rtt(2, 1)), (3, 7.0));
        assert!(!back.reachable(1, 2));
        assert!(!back.reachable(0, 2) && !back.reachable(2, 0));
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(LatencyMatrix::from_csv("src,dst,rtt_ms,loss\n1,1,5,0\n").is_err());
        assert!(LatencyMatrix::from_csv("0,1,5\n").is_err());
        assert!(LatencyMatrix::from_csv("0,1,abc,0\n").is_err());
        assert!(LatencyMatrix::from_csv("0,1,5,1.5\n").is_err());
        assert!(LatencyMatrix::from_csv("0,1,-3,0\n").is_err());
        // Header-only / empty input yields... the largest index is 0,
        // producing a 1-node matrix.
        let empty = LatencyMatrix::from_csv("src,dst,rtt_ms,loss\n").unwrap();
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn csv_accepts_external_format() {
        // Whitespace-tolerant, any ordering of pairs.
        let csv = "src,dst,rtt_ms,loss\n2,0, 120.5 ,0.01\n0,2,119.5,0.02\n";
        let m = LatencyMatrix::from_csv(csv).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.rtt(2, 0), 120.5);
        assert_eq!(m.rtt(0, 2), 119.5);
        assert_eq!(m.loss(0, 2), 0.02);
        assert!(!m.reachable(0, 1));
    }

    #[test]
    fn pairs_iterates_all_ordered_pairs() {
        let m = LatencyMatrix::uniform(3, 5.0);
        let v: Vec<_> = m.pairs().collect();
        assert_eq!(v.len(), 6);
        assert!(v.iter().all(|&(i, j, r)| i != j && r == 5.0));
    }
}

//! The multi-hop extension (section 3, "Multi-hop routes").
//!
//! Repeating the two-round protocol `⌈log₂ l⌉` times finds optimal routes
//! of length ≤ l: at iteration `t` each node announces, for every
//! destination, the cost of its best known path of length ≤ `2^(t−1)`
//! (plus the identity of the *second node* on that path, `Sec`, which is
//! all a router needs to forward). The rendezvous computes the best
//! "one hop" over these modified link states, which splices two
//! `2^(t−1)`-hop paths into a `2^t`-hop path. With `⌈log₂ n⌉` iterations
//! this yields **all-pairs shortest paths with `Θ(n√n·log n)` per-node
//! communication** — asymptotically better than the `Θ(n²)` of full-mesh
//! link state.
//!
//! The paper never deploys this variant, so we implement it as a
//! synchronous round executor over a ground-truth matrix: the same
//! computation every node would do, plus exact communication accounting.
//! This is what the multi-hop experiment binary and the optimality tests
//! drive.

use apor_linkstate::{LINKSTATE_HEADER_SIZE, REC_HEADER_SIZE, UDP_IP_OVERHEAD};
use apor_quorum::Grid;
use apor_topology::LatencyMatrix;

/// The outcome of the iterated protocol.
#[derive(Debug, Clone)]
pub struct MultiHopResult {
    /// Number of nodes.
    pub n: usize,
    /// Iterations executed (`⌈log₂ l⌉`).
    pub iterations: usize,
    /// Maximum path length these costs are optimal over (`2^iterations`).
    pub max_hops: usize,
    /// Row-major best path costs of length ≤ `max_hops`.
    pub cost: Vec<f64>,
    /// Row-major next hop (`Sec`): the node to forward to for each
    /// `(src, dst)`; `next[i][j] == j` means the direct link.
    pub next_hop: Vec<usize>,
    /// Per-node bytes sent across all iterations (IP+UDP included).
    pub bytes_sent: Vec<u64>,
}

impl MultiHopResult {
    /// Cost of the computed route `i → j`.
    #[must_use]
    pub fn cost_of(&self, i: usize, j: usize) -> f64 {
        self.cost[i * self.n + j]
    }

    /// Next hop on the computed route `i → j`.
    #[must_use]
    pub fn next_of(&self, i: usize, j: usize) -> usize {
        self.next_hop[i * self.n + j]
    }

    /// Follow next-hop pointers from `i` to `j`, returning the full path
    /// (starting at `i`, ending at `j`), or `None` if forwarding loops or
    /// dead-ends.
    #[must_use]
    pub fn path(&self, i: usize, j: usize) -> Option<Vec<usize>> {
        if i == j {
            return Some(vec![i]);
        }
        if !self.cost_of(i, j).is_finite() {
            return None;
        }
        let mut path = vec![i];
        let mut cur = i;
        while cur != j {
            if path.len() > self.n {
                return None; // loop
            }
            cur = self.next_of(cur, j);
            path.push(cur);
        }
        Some(path)
    }

    /// Mean bytes sent per node.
    #[must_use]
    pub fn mean_bytes_sent(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.bytes_sent.iter().sum::<u64>() as f64 / self.n as f64
    }
}

/// Run the iterated quorum protocol to find optimal routes of length ≤
/// `max_hops` (rounded up to a power of two) for all pairs.
///
/// # Panics
/// Panics if `max_hops < 1`.
#[must_use]
pub fn multihop_routes(matrix: &LatencyMatrix, max_hops: usize) -> MultiHopResult {
    assert!(max_hops >= 1, "paths need at least one hop");
    let n = matrix.len();
    let grid = Grid::new(n.max(1));
    let iterations = usize::BITS as usize - (max_hops - 1).leading_zeros() as usize;
    // iterations = ceil(log2(max_hops)); max_hops=1 → 0 iterations.

    // State: row[i][j] = best cost of a ≤ 2^t hop path; sec[i][j] = second
    // node on it. t = 0 start: direct links.
    let mut cost: Vec<f64> = (0..n * n).map(|idx| matrix.rtt(idx / n, idx % n)).collect();
    let mut sec: Vec<usize> = (0..n * n).map(|idx| idx % n).collect();
    let mut bytes_sent = vec![0u64; n];

    // Per-iteration wire costs. The modified link state carries, per
    // destination, the 3-byte entry plus the 2-byte Sec identity.
    let entry_size = 3 + 2;
    for _t in 0..iterations {
        // Round-one accounting: each node sends its modified row to its
        // rendezvous servers.
        for i in 0..n {
            let servers = grid.rendezvous_servers(i).len() as u64;
            bytes_sent[i] +=
                servers * (LINKSTATE_HEADER_SIZE + entry_size * n + UDP_IP_OVERHEAD) as u64;
        }

        // Rendezvous computation: for every pair, the best splice
        // min_k row_i[k] + row_j[k]. Every pair has a rendezvous holding
        // both rows (Theorem 1), so we may compute this globally.
        let mut new_cost = cost.clone();
        let mut new_sec = sec.clone();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let mut best = cost[i * n + j];
                let mut best_k = None;
                for k in 0..n {
                    if k == i {
                        continue;
                    }
                    let c = cost[i * n + k] + cost[j * n + k];
                    if c < best {
                        best = c;
                        best_k = Some(k);
                    }
                }
                if let Some(k) = best_k {
                    new_cost[i * n + j] = best;
                    // Forwarding rule: to reach j via the splice through k,
                    // i first walks its ≤2^(t-1) path to k, whose second
                    // node is sec[i][k].
                    new_sec[i * n + j] = sec[i * n + k];
                }
            }
        }
        cost = new_cost;
        sec = new_sec;

        // Round-two accounting: recommendations (dst, sec, cost = 6 B) to
        // each client about each other client.
        for i in 0..n {
            // The grid's client set is its server set.
            let clients = grid.rendezvous_servers(i).len() as u64;
            let per_msg = REC_HEADER_SIZE as u64 + 6 * clients + UDP_IP_OVERHEAD as u64;
            bytes_sent[i] += clients * per_msg;
        }
    }

    MultiHopResult {
        n,
        iterations,
        max_hops: 1usize << iterations,
        cost,
        next_hop: sec,
        bytes_sent,
    }
}

/// Reference: best path costs using at most `max_hops` hops, by
/// hop-bounded dynamic programming (Bellman–Ford layers). `O(n³·h)` — for
/// verifying the protocol, not for production.
#[must_use]
pub fn bounded_shortest_paths(matrix: &LatencyMatrix, max_hops: usize) -> Vec<f64> {
    let n = matrix.len();
    let mut cost: Vec<f64> = (0..n * n).map(|idx| matrix.rtt(idx / n, idx % n)).collect();
    for _ in 1..max_hops {
        let mut next = cost.clone();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // Extend by one hop: i → k (direct), then ≤ current hops k → j.
                for k in 0..n {
                    if k == i {
                        continue;
                    }
                    let c = matrix.rtt(i, k) + cost[k * n + j];
                    if c < next[i * n + j] {
                        next[i * n + j] = c;
                    }
                }
            }
        }
        cost = next;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line topology: 0–1–2–3–4 cheap, everything else expensive.
    fn line(n: usize) -> LatencyMatrix {
        let mut m = LatencyMatrix::uniform(n, 1000.0);
        for i in 0..n - 1 {
            m.set_rtt(i, i + 1, 10.0);
        }
        m
    }

    #[test]
    fn path_detects_forwarding_loop() {
        // A corrupted table: 0 → 2 forwards via 1, which forwards back
        // via 0, yet the advertised cost is finite. path() must bail out
        // with None instead of walking forever.
        let n = 3;
        let mut next_hop: Vec<usize> = (0..n * n).map(|i| i % n).collect();
        next_hop[2] = 1; // next_of(0, 2) = 1
        next_hop[n + 2] = 0; // next_of(1, 2) = 0
        let r = MultiHopResult {
            n,
            iterations: 1,
            max_hops: 2,
            cost: vec![10.0; n * n],
            next_hop,
            bytes_sent: vec![0; n],
        };
        assert_eq!(r.path(0, 2), None, "loop must be reported, not followed");
        assert_eq!(r.path(1, 2), None, "same loop seen from the other side");
        assert!(r.path(2, 1).is_some(), "untouched routes still resolve");
    }

    #[test]
    fn one_iteration_matches_best_one_hop() {
        let m = line(5);
        let r = multihop_routes(&m, 2);
        assert_eq!(r.iterations, 1);
        assert_eq!(r.max_hops, 2);
        for i in 0..5 {
            for j in 0..5 {
                if i == j {
                    continue;
                }
                let expected = m.best_path_with_one_hop(i, j);
                assert_eq!(r.cost_of(i, j), expected, "({i},{j})");
            }
        }
        // 0→2 goes via 1.
        assert_eq!(r.cost_of(0, 2), 20.0);
        assert_eq!(r.next_of(0, 2), 1);
    }

    #[test]
    fn log_iterations_reach_full_shortest_paths() {
        let m = line(6);
        // 6 nodes: longest useful path has 5 hops → 3 iterations (≤8 hops).
        let r = multihop_routes(&m, 6);
        assert_eq!(r.iterations, 3);
        let apsp = m.all_pairs_shortest();
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (r.cost_of(i, j) - apsp[i * 6 + j]).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    r.cost_of(i, j),
                    apsp[i * 6 + j]
                );
            }
        }
        assert_eq!(r.cost_of(0, 5), 50.0);
    }

    #[test]
    fn hop_bounds_respected() {
        let m = line(9);
        for hops in [1usize, 2, 4, 8] {
            let r = multihop_routes(&m, hops);
            let reference = bounded_shortest_paths(&m, r.max_hops);
            for i in 0..9 {
                for j in 0..9 {
                    assert!(
                        (r.cost_of(i, j) - reference[i * 9 + j]).abs() < 1e-9,
                        "hops={hops} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn next_hop_pointers_reconstruct_shortest_paths() {
        let m = line(8);
        let r = multihop_routes(&m, 8);
        for i in 0..8 {
            for j in 0..8 {
                if i == j || !r.cost_of(i, j).is_finite() {
                    continue;
                }
                let path = r.path(i, j).expect("forwarding must terminate");
                assert_eq!(*path.first().unwrap(), i);
                assert_eq!(*path.last().unwrap(), j);
                assert!(path.len() - 1 <= r.max_hops, "path too long");
                // Walking the path over *direct* links must cost exactly
                // the claimed amount.
                let walked: f64 = path.windows(2).map(|w| m.rtt(w[0], w[1])).sum();
                assert!(
                    (walked - r.cost_of(i, j)).abs() < 1e-9,
                    "({i},{j}): walked {walked}, claimed {}",
                    r.cost_of(i, j)
                );
            }
        }
    }

    #[test]
    fn random_matrices_match_reference() {
        use apor_topology::{PlanetLabParams, Topology};
        let t = Topology::generate(&PlanetLabParams {
            n: 24,
            seed: 33,
            ..Default::default()
        });
        let r = multihop_routes(&t.latency, 4);
        let reference = bounded_shortest_paths(&t.latency, 4);
        for i in 0..24 {
            for j in 0..24 {
                assert!(
                    (r.cost_of(i, j) - reference[i * 24 + j]).abs() < 1e-6,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn communication_scales_as_n_sqrt_n_log_n() {
        // Per-node bytes for all-pairs shortest paths must grow ~n^1.5·log n,
        // clearly sublinear in the n²·log n a full-mesh iteration would cost.
        let per_node = |n: usize| {
            let m = LatencyMatrix::uniform(n, 10.0);
            let r = multihop_routes(&m, n);
            r.mean_bytes_sent()
        };
        let b100 = per_node(100);
        let b400 = per_node(400);
        // n: ×4 ⇒ n√n: ×8 (log factor adds a bit). A full-mesh n² scheme
        // would give ×16+.
        let ratio = b400 / b100;
        assert!(
            (6.0..13.0).contains(&ratio),
            "scaling ratio {ratio}, want ~8–9"
        );
    }

    #[test]
    fn max_hops_one_is_direct_only() {
        let m = line(4);
        let r = multihop_routes(&m, 1);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.max_hops, 1);
        assert_eq!(r.cost_of(0, 3), 1000.0);
        assert_eq!(r.next_of(0, 3), 3);
        assert_eq!(r.mean_bytes_sent(), 0.0);
    }

    #[test]
    fn unreachable_pairs_stay_unreachable() {
        let mut m = LatencyMatrix::unreachable(4);
        m.set_rtt(0, 1, 5.0);
        m.set_rtt(2, 3, 5.0);
        let r = multihop_routes(&m, 4);
        assert!(r.cost_of(0, 2).is_infinite());
        assert!(r.path(0, 2).is_none());
        assert_eq!(r.cost_of(0, 1), 5.0);
    }
}

//! Offline one-hop detour analysis over a ground-truth latency matrix:
//! the ground-truth rows the scale study and the benchmarks feed their
//! routers, the optimum the end-to-end benchmark measures achieved routes
//! against, and the high-latency pair selection of the Skype-detour
//! example.
//!
//! The paper's figure 1 asks: for host pairs whose direct RTT exceeds
//! 400 ms, how much does the *best* one-hop detour help, and how much of
//! that survives excluding the best intermediaries? Its shape is a
//! property of the topology model, held by
//! `apor_topology::planetlab`'s calibration test and by the
//! experiments crate's `fig1` test.

use apor_linkstate::LinkEntry;
use apor_topology::LatencyMatrix;

/// Node `i`'s ground-truth link-state row: what a perfectly converged
/// prober would report for every direct link (self entry alive at
/// 0 ms). Shared by the benchmark fixtures and the scale study.
#[must_use]
pub fn ground_truth_row(m: &LatencyMatrix, i: usize) -> Vec<LinkEntry> {
    (0..m.len())
        .map(|j| {
            if i == j {
                LinkEntry::live(0, 0.0)
            } else {
                let link = m.link(i, j);
                LinkEntry::live(LinkEntry::quantize_latency(link.rtt_ms), link.loss as f32)
            }
        })
        .collect()
}

/// All one-hop total costs for `(src, dst)`, sorted ascending. Excludes
/// the endpoints themselves; includes unreachable (infinite) relays last.
#[must_use]
pub fn one_hop_totals(m: &LatencyMatrix, src: usize, dst: usize) -> Vec<f64> {
    let mut totals: Vec<f64> = (0..m.len())
        .filter(|&k| k != src && k != dst)
        .map(|k| m.rtt(src, k) + m.rtt(k, dst))
        .collect();
    totals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    totals
}

/// The best one-hop total after *excluding* the best `exclude_frac`
/// fraction of intermediaries (figure 1's "Excluding Top n% of 1-Hops").
///
/// `exclude_frac = 0.0` is the plain best one-hop. Returns `None` when no
/// finite candidate survives the exclusion.
#[must_use]
pub fn best_one_hop_excluding_top(
    m: &LatencyMatrix,
    src: usize,
    dst: usize,
    exclude_frac: f64,
) -> Option<f64> {
    assert!((0.0..1.0).contains(&exclude_frac), "fraction in [0,1)");
    let totals = one_hop_totals(m, src, dst);
    if totals.is_empty() {
        return None;
    }
    let skip = (totals.len() as f64 * exclude_frac).ceil() as usize;
    let skip = if exclude_frac > 0.0 { skip.max(1) } else { 0 };
    totals
        .get(skip.min(totals.len() - 1))
        .copied()
        .filter(|c| c.is_finite())
}

/// The route latency actually experienced for `(src, dst)` when using the
/// better of the direct path and the given one-hop candidate cost.
#[must_use]
pub fn effective_latency(m: &LatencyMatrix, src: usize, dst: usize, one_hop: Option<f64>) -> f64 {
    let direct = m.rtt(src, dst);
    match one_hop {
        Some(c) => direct.min(c),
        None => direct,
    }
}

/// All ordered high-latency pairs: direct RTT above `threshold_ms` (and
/// finite — the paper "excludes paths for which all pings were lost").
#[must_use]
pub fn high_latency_pairs(m: &LatencyMatrix, threshold_ms: f64) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..m.len() {
        for j in 0..m.len() {
            if i == j {
                continue;
            }
            let rtt = m.rtt(i, j);
            if rtt.is_finite() && rtt > threshold_ms {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detour_world() -> LatencyMatrix {
        // 5 nodes; 0→4 direct 500 ms; best relay 1 (total 110); second
        // relay 2 (200); third relay 3 (460).
        let mut m = LatencyMatrix::uniform(5, 1000.0);
        m.set_rtt(0, 4, 500.0);
        m.set_rtt(0, 1, 50.0);
        m.set_rtt(1, 4, 60.0);
        m.set_rtt(0, 2, 100.0);
        m.set_rtt(2, 4, 100.0);
        m.set_rtt(0, 3, 230.0);
        m.set_rtt(3, 4, 230.0);
        m
    }

    #[test]
    fn totals_sorted_ascending() {
        let m = detour_world();
        let t = one_hop_totals(&m, 0, 4);
        assert_eq!(t, vec![110.0, 200.0, 460.0]);
    }

    #[test]
    fn excluding_zero_is_best() {
        let m = detour_world();
        assert_eq!(best_one_hop_excluding_top(&m, 0, 4, 0.0), Some(110.0));
    }

    #[test]
    fn excluding_top_skips_best_relays() {
        let m = detour_world();
        // Excluding the top 30% of 3 candidates skips ⌈0.9⌉ = 1.
        assert_eq!(best_one_hop_excluding_top(&m, 0, 4, 0.3), Some(200.0));
        // Excluding the top 50% skips ⌈1.5⌉ = 2.
        assert_eq!(best_one_hop_excluding_top(&m, 0, 4, 0.5), Some(460.0));
        // Tiny exclusions still skip at least one (the paper's top-3%
        // curve removes the best handful).
        assert_eq!(best_one_hop_excluding_top(&m, 0, 4, 0.01), Some(200.0));
    }

    #[test]
    fn effective_latency_prefers_direct_when_better() {
        let m = detour_world();
        assert_eq!(effective_latency(&m, 0, 4, Some(110.0)), 110.0);
        assert_eq!(effective_latency(&m, 0, 1, Some(800.0)), 50.0);
        assert_eq!(effective_latency(&m, 0, 1, None), 50.0);
    }

    #[test]
    fn high_latency_pairs_threshold() {
        let m = detour_world();
        let pairs = high_latency_pairs(&m, 400.0);
        assert!(pairs.contains(&(0, 4)));
        assert!(!pairs.contains(&(0, 1)));
        // Ordered pairs: both directions appear.
        assert!(pairs.contains(&(4, 0)));
    }

    #[test]
    fn unreachable_relays_excluded() {
        let mut m = LatencyMatrix::unreachable(4);
        m.set_rtt(0, 3, 900.0);
        // No relay has finite legs.
        assert_eq!(best_one_hop_excluding_top(&m, 0, 3, 0.0), None);
        assert_eq!(effective_latency(&m, 0, 3, None), 900.0);
    }

    #[test]
    fn two_node_world_has_no_relays() {
        let m = LatencyMatrix::uniform(2, 100.0);
        assert!(one_hop_totals(&m, 0, 1).is_empty());
        assert_eq!(best_one_hop_excluding_top(&m, 0, 1, 0.0), None);
    }
}

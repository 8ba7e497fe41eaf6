//! The offline reference the routes are held to.

use apor_routing::onehop;
use apor_topology::LatencyMatrix;

/// Latency of `src → dst` through first hop `hop` over the brute-force
/// optimum (the better of the direct link and the best single relay).
/// `None` when the optimum is not a positive finite latency.
pub fn stretch(m: &LatencyMatrix, src: usize, dst: usize, hop: usize) -> Option<f64> {
    let achieved = if hop == dst {
        m.rtt(src, dst)
    } else {
        m.rtt(src, hop) + m.rtt(hop, dst)
    };
    let optimal = onehop::effective_latency(
        m,
        src,
        dst,
        onehop::best_one_hop_excluding_top(m, src, dst, 0.0),
    );
    (optimal.is_finite() && optimal > 0.0).then(|| achieved / optimal)
}

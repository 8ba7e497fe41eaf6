//! Figure 1 — how much the best one-hop detour helps high-latency pairs.
//!
//! Figure 1 is not a study of its own: its shape is a property of the
//! topology model, computed by `apor_routing::onehop` and held by the test
//! below. For the host pairs whose direct RTT exceeds 400 ms, the best
//! one-hop detour brings a large share under 400 ms, and excluding the
//! best 3 % / 50 % of intermediaries per pair degrades that in order —
//! the good detours are a small, specific set that random selection
//! misses.

mod tests {
    use apor_routing::onehop::{best_one_hop_excluding_top, effective_latency, high_latency_pairs};
    use apor_topology::{PlanetLabParams, Topology};

    #[test]
    fn qualitative_shape_matches_paper() {
        let topo = Topology::generate(&PlanetLabParams {
            n: 180,
            seed: 0xF161,
            ..Default::default()
        });
        let m = &topo.latency;
        let pairs = high_latency_pairs(m, 400.0);
        assert!(pairs.len() > 50, "too few high-latency pairs");
        // (fraction of pairs at or below 400 ms, median) of one curve.
        let curve = |exclude: Option<f64>| {
            let mut samples: Vec<f64> = pairs
                .iter()
                .map(|&(i, j)| match exclude {
                    None => m.rtt(i, j),
                    Some(frac) => {
                        effective_latency(m, i, j, best_one_hop_excluding_top(m, i, j, frac))
                    }
                })
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let below = samples.iter().filter(|&&x| x <= 400.0).count();
            (
                below as f64 / samples.len() as f64,
                samples[samples.len() / 2],
            )
        };
        let (direct, _) = curve(None);
        let (best, best_median) = curve(Some(0.0));
        let (excl3, excl3_median) = curve(Some(0.03));
        let (excl50, excl50_median) = curve(Some(0.50));
        // Direct is 0 below threshold by construction.
        assert_eq!(direct, 0.0);
        // Best one-hop rescues a large fraction (paper: ≥ 45 %).
        assert!(best >= 0.40, "{best}");
        // Exclusions strictly degrade, in order.
        assert!(excl3 < best);
        assert!(excl50 <= excl3);
        // Excluding half the intermediaries leaves very little.
        assert!(excl50 < 0.25, "{excl50}");
        // Medians order the same way.
        assert!(best_median <= excl3_median);
        assert!(excl3_median <= excl50_median);
    }
}

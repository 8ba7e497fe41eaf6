//! A synthetic PlanetLab: geography plus pathological routing inflation.
//!
//! Figure 1 of the paper is a measurement study over PlanetLab's all-pairs
//! pings: among host pairs whose direct RTT exceeded 400 ms, the best
//! one-hop detour brought at least 45 % of them below 400 ms, yet *random*
//! intermediaries almost never helped — even keeping 97 % of all candidate
//! one-hops missed most of the improvement, because the good detours are
//! concentrated in a few well-connected hubs.
//!
//! This model reproduces those distributional facts from first principles:
//!
//! * nodes live in world regions (PlanetLab-flavoured weights) and pay
//!   great-circle propagation delay;
//! * every node has an access delay (last-mile) and a *link quality
//!   factor*; a small fraction of nodes have badly degraded quality,
//!   inflating **all** of their links — these create both the >400 ms
//!   population and the "bad node" tail of figure 8;
//! * every pair additionally draws a log-normal routing-inflation factor
//!   (circuitous BGP paths), and a small fraction of pairs draw a *severe*
//!   multiplier (broken transit), creating triangle-inequality violations;
//! * detour quality through a candidate hop `k` therefore depends on `k`'s
//!   quality factor on **both** legs, concentrating the best detours in the
//!   few highest-quality, geographically right nodes — exactly the
//!   concentration figure 1's "excluding top n %" curves demonstrate.

use crate::geo::{GeoPoint, Region};
use crate::matrix::{LatencyMatrix, Link};
use crate::sampling;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic PlanetLab model. `Default` is calibrated to
/// reproduce figure 1's distributions; the tests in this module check the
/// calibration (`figure_1_distributional_calibration` holds the figure's
/// shape).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanetLabParams {
    /// Number of overlay nodes.
    pub n: usize,
    /// RNG seed; same seed ⇒ identical topology.
    pub seed: u64,
    /// World regions and node-placement weights.
    pub regions: Vec<Region>,
    /// Mean of the exponential per-node access (last-mile) delay, ms.
    pub access_delay_mean_ms: f64,
    /// Fixed per-hop processing overhead added to every path, ms.
    pub processing_ms: f64,
    /// σ of the log-normal per-pair routing inflation (median 1·`inflation_median`).
    pub inflation_sigma: f64,
    /// Median routing-inflation multiplier (≥ 1; 1.3 ≈ typical Internet path stretch).
    pub inflation_median: f64,
    /// Fraction of nodes with degraded link quality.
    pub bad_node_fraction: f64,
    /// Link-quality multiplier range for ordinary nodes.
    pub good_quality_range: (f64, f64),
    /// Link-quality multiplier range for degraded nodes.
    pub bad_quality_range: (f64, f64),
    /// Base probability that a pair's route is severely broken.
    pub severe_fraction: f64,
    /// Severe multiplier range (applied on top of everything else).
    pub severe_multiplier_range: (f64, f64),
    /// Median per-pair loss rate (log-normal, clamped to [0, 0.5]).
    pub loss_median: f64,
    /// σ of the log-normal loss-rate distribution.
    pub loss_sigma: f64,
}

impl Default for PlanetLabParams {
    fn default() -> Self {
        PlanetLabParams {
            n: 140,
            seed: 0x9e3779b97f4a7c15,
            regions: Region::planetlab_world(),
            access_delay_mean_ms: 6.0,
            processing_ms: 2.0,
            inflation_sigma: 0.3,
            inflation_median: 1.3,
            bad_node_fraction: 0.10,
            good_quality_range: (0.85, 1.35),
            bad_quality_range: (2.4, 4.2),
            severe_fraction: 0.012,
            severe_multiplier_range: (2.5, 7.0),
            loss_median: 0.004,
            loss_sigma: 1.2,
        }
    }
}

impl PlanetLabParams {
    /// Convenience: default parameters for `n` nodes.
    #[must_use]
    pub fn with_n(n: usize) -> Self {
        PlanetLabParams {
            n,
            ..Default::default()
        }
    }

    /// Same parameters, different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A generated synthetic environment: positions, per-node attributes and
/// the all-pairs [`LatencyMatrix`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// Node coordinates.
    pub coords: Vec<GeoPoint>,
    /// Region index (into `params.regions`) of each node.
    pub region_of: Vec<usize>,
    /// Per-node access delay, ms.
    pub access_ms: Vec<f64>,
    /// Per-node link-quality multiplier (≥ ~0.8; ≫ 1 for degraded nodes).
    pub quality: Vec<f64>,
    /// The resulting all-pairs RTT and loss matrix.
    pub latency: LatencyMatrix,
}

impl Topology {
    /// Generate a topology from the given parameters (deterministic).
    #[must_use]
    pub fn generate(params: &PlanetLabParams) -> Topology {
        assert!(params.n >= 1, "need at least one node");
        assert!(!params.regions.is_empty(), "need at least one region");
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let n = params.n;

        // --- Node placement -------------------------------------------------
        let total_weight: f64 = params.regions.iter().map(|r| r.weight).sum();
        let mut region_of = Vec::with_capacity(n);
        let mut coords = Vec::with_capacity(n);
        for _ in 0..n {
            let mut pick = rng.gen::<f64>() * total_weight;
            let mut idx = 0;
            for (i, r) in params.regions.iter().enumerate() {
                if pick < r.weight {
                    idx = i;
                    break;
                }
                pick -= r.weight;
                idx = i;
            }
            let region = &params.regions[idx];
            region_of.push(idx);
            coords.push(GeoPoint::new(
                sampling::normal(&mut rng, region.center.lat_deg, region.spread_deg),
                sampling::normal(&mut rng, region.center.lon_deg, region.spread_deg),
            ));
        }

        // --- Per-node attributes --------------------------------------------
        let access_ms: Vec<f64> = (0..n)
            .map(|_| 0.5 + sampling::exponential(&mut rng, params.access_delay_mean_ms))
            .collect();
        let quality: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen::<f64>() < params.bad_node_fraction {
                    rng.gen_range(params.bad_quality_range.0..params.bad_quality_range.1)
                } else {
                    rng.gen_range(params.good_quality_range.0..params.good_quality_range.1)
                }
            })
            .collect();

        // --- Pairwise latency & loss ----------------------------------------
        let mu = params.inflation_median.ln();
        let mut latency = LatencyMatrix::unreachable(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let prop = coords[i].propagation_rtt_ms(&coords[j]);
                let inflation = sampling::log_normal(&mut rng, mu, params.inflation_sigma).max(1.0);
                // Node quality multiplies the routed portion of the path on
                // both endpoints: a degraded node degrades *all* of its
                // links, in proportion to how far its traffic must travel
                // through the broken provider. This is what concentrates
                // good detours near the degraded endpoint: only a hub that
                // exits the bad access network quickly keeps the penalized
                // segment short.
                let mut multiplier = inflation * quality[i] * quality[j];
                if rng.gen::<f64>() < params.severe_fraction {
                    // Pair-specific routing pathology (broken transit for
                    // this particular route): a classic triangle-inequality
                    // violation fixable through nearly any intermediary.
                    multiplier *= rng.gen_range(
                        params.severe_multiplier_range.0..params.severe_multiplier_range.1,
                    );
                }
                // No path can beat light-in-fibre propagation.
                multiplier = multiplier.max(1.0);
                let rtt_ms = prop * multiplier + access_ms[i] + access_ms[j] + params.processing_ms;
                let loss =
                    sampling::log_normal(&mut rng, params.loss_median.ln(), params.loss_sigma)
                        .min(0.5);
                latency.set_link(i, j, Link { rtt_ms, loss });
            }
        }

        Topology {
            coords,
            region_of,
            access_ms,
            quality,
            latency,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.latency.len()
    }

    /// True when the topology holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.latency.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_topology(n: usize) -> Topology {
        Topology::generate(&PlanetLabParams::with_n(n))
    }

    #[test]
    fn deterministic_for_seed() {
        let a = default_topology(60);
        let b = default_topology(60);
        for i in 0..60 {
            for j in 0..60 {
                assert_eq!(a.latency.rtt(i, j), b.latency.rtt(i, j));
            }
        }
        let c = Topology::generate(&PlanetLabParams::with_n(60).with_seed(7));
        let differs =
            (0..60).any(|i| (0..60).any(|j| i != j && a.latency.rtt(i, j) != c.latency.rtt(i, j)));
        assert!(differs, "different seed must give a different topology");
    }

    #[test]
    fn rtts_physical() {
        let t = default_topology(120);
        for (i, j, rtt) in t.latency.pairs() {
            assert!(rtt.is_finite());
            assert!(rtt > 0.0, "({i},{j}) rtt {rtt}");
            // No pair can beat light-in-fibre propagation.
            let floor = t.coords[i].propagation_rtt_ms(&t.coords[j]);
            assert!(
                rtt >= 0.8 * floor,
                "({i},{j}) rtt {rtt} below physical floor {floor}"
            );
            assert!(rtt < 60_000.0, "({i},{j}) rtt {rtt} absurd");
        }
    }

    #[test]
    fn loss_rates_in_range() {
        let t = default_topology(80);
        for i in 0..80 {
            for j in 0..80 {
                let l = t.latency.loss(i, j);
                assert!((0.0..=0.5).contains(&l));
            }
        }
    }

    /// The figure 1 calibration: the synthetic world must contain a
    /// meaningful population of >400 ms paths, the best one-hop detour must
    /// rescue a large fraction of them, and random intermediaries must not.
    #[test]
    fn figure_1_distributional_calibration() {
        let t = default_topology(250);
        let n = t.len();
        let mut high_latency_pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if t.latency.rtt(i, j) > 400.0 {
                    high_latency_pairs.push((i, j));
                }
            }
        }
        let total_pairs = n * (n - 1) / 2;
        let frac_high = high_latency_pairs.len() as f64 / total_pairs as f64;
        assert!(
            (0.005..0.15).contains(&frac_high),
            "fraction of >400ms pairs = {frac_high} ({} pairs)",
            high_latency_pairs.len()
        );

        // Best one-hop rescues ≥ 40 % of the high-latency pairs (paper: ≥45 %).
        let rescued = high_latency_pairs
            .iter()
            .filter(|&&(i, j)| t.latency.best_path_with_one_hop(i, j) < 400.0)
            .count();
        let frac_rescued = rescued as f64 / high_latency_pairs.len() as f64;
        assert!(
            frac_rescued >= 0.40,
            "best one-hop rescues only {frac_rescued}"
        );

        // A random intermediary rarely helps: averaged over high-latency
        // pairs, the fraction of intermediaries achieving < 400 ms is small.
        let mut helping_fraction_sum = 0.0;
        for &(i, j) in &high_latency_pairs {
            let helping = (0..n)
                .filter(|&k| k != i && k != j)
                .filter(|&k| t.latency.rtt(i, k) + t.latency.rtt(k, j) < 400.0)
                .count();
            helping_fraction_sum += helping as f64 / (n - 2) as f64;
        }
        let mean_helping = helping_fraction_sum / high_latency_pairs.len() as f64;
        assert!(
            mean_helping < 0.35,
            "random intermediaries help too often: {mean_helping}"
        );
    }

    #[test]
    fn detours_concentrate_in_good_nodes() {
        // The best hop for a high-latency pair should, on average, have
        // better (lower) quality factor than the node population at large —
        // this is the concentration that makes figure 1's "excluding top
        // n %" curves collapse.
        let t = default_topology(200);
        let n = t.len();
        let mean_quality: f64 = t.quality.iter().sum::<f64>() / n as f64;
        let mut best_qualities = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if t.latency.rtt(i, j) > 400.0 {
                    if let Some((k, _)) = t.latency.best_one_hop(i, j) {
                        best_qualities.push(t.quality[k]);
                    }
                }
            }
        }
        assert!(!best_qualities.is_empty());
        let mean_best: f64 = best_qualities.iter().sum::<f64>() / best_qualities.len() as f64;
        assert!(
            mean_best < mean_quality,
            "best hops not concentrated: best {mean_best} vs population {mean_quality}"
        );
    }

    #[test]
    fn regions_all_used_for_large_n() {
        let t = default_topology(300);
        let regions = Region::planetlab_world().len();
        let mut seen = vec![false; regions];
        for &r in &t.region_of {
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s), "some region has no nodes");
    }

    #[test]
    fn bad_nodes_exist_and_are_minority() {
        let t = default_topology(300);
        let bad = t.quality.iter().filter(|&&q| q > 1.8).count();
        assert!(bad > 0, "no degraded nodes generated");
        assert!(bad < 60, "too many degraded nodes: {bad}");
    }

    #[test]
    fn single_node_topology() {
        let t = default_topology(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.latency.rtt(0, 0), 0.0);
    }
}

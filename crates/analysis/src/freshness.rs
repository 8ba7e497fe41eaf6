//! Route-freshness tracking (figures 12–14).
//!
//! The paper samples, every 30 seconds, "the amount of time since a node
//! received the last recommendation to each destination", then reports —
//! per (src, dst) pair — the median, average, 97th percentile and maximum
//! over all sampling instants. [`FreshnessTracker`] accumulates those
//! samples during a run; [`FreshnessStats`] summarizes them.

use crate::cdf::Cdf;

/// Per-pair summary of freshness samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreshnessStats {
    /// Median over sampling instants, seconds.
    pub median: f64,
    /// Mean over sampling instants, seconds.
    pub average: f64,
    /// 97th percentile, seconds.
    pub p97: f64,
    /// Worst case, seconds.
    pub max: f64,
    /// Number of samples summarized.
    pub samples: usize,
}

/// Accumulates freshness samples per (src, dst) pair.
#[derive(Debug, Clone)]
pub struct FreshnessTracker {
    n: usize,
    /// samples[src * n + dst] = ages observed at the sampling instants.
    samples: Vec<Vec<f64>>,
}

impl FreshnessTracker {
    /// A tracker over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        FreshnessTracker {
            n,
            samples: vec![Vec::new(); n * n],
        }
    }

    /// Record that at some sampling instant, `src`'s routing information
    /// about `dst` was `age_s` old. Use `f64::INFINITY` when `src` has
    /// never heard about `dst` (kept out of the pair's statistics).
    pub fn record(&mut self, src: usize, dst: usize, age_s: f64) {
        assert!(src < self.n && dst < self.n && src != dst);
        self.samples[src * self.n + dst].push(age_s);
    }

    /// Summarize one pair; `None` when it has no finite samples.
    #[must_use]
    pub fn pair_stats(&self, src: usize, dst: usize) -> Option<FreshnessStats> {
        let finite: Vec<f64> = self.samples[src * self.n + dst]
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .collect();
        if finite.is_empty() {
            return None;
        }
        let cdf = Cdf::new(finite);
        Some(FreshnessStats {
            median: cdf.median().unwrap(),
            average: cdf.mean().unwrap(),
            p97: cdf.quantile(0.97),
            max: cdf.max().unwrap(),
            samples: cdf.len(),
        })
    }

    /// Summaries for all pairs with data, in `(src, dst)` order — the rows
    /// behind figure 12.
    #[must_use]
    pub fn all_pairs(&self) -> Vec<((usize, usize), FreshnessStats)> {
        let mut out = Vec::new();
        for s in 0..self.n {
            for d in 0..self.n {
                if s == d {
                    continue;
                }
                if let Some(st) = self.pair_stats(s, d) {
                    out.push(((s, d), st));
                }
            }
        }
        out
    }

    /// Summaries for one source towards every destination — the rows
    /// behind figures 13/14.
    #[must_use]
    pub fn from_source(&self, src: usize) -> Vec<(usize, FreshnessStats)> {
        (0..self.n)
            .filter(|&d| d != src)
            .filter_map(|d| self.pair_stats(src, d).map(|st| (d, st)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_summary() {
        let mut t = FreshnessTracker::new(3);
        for age in [4.0, 8.0, 6.0, 100.0] {
            t.record(0, 1, age);
        }
        let s = t.pair_stats(0, 1).unwrap();
        assert_eq!(s.samples, 4);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 6.0);
        assert!((s.average - 29.5).abs() < 1e-9);
        assert_eq!(s.p97, 100.0);
    }

    #[test]
    fn missing_pairs_are_none() {
        let t = FreshnessTracker::new(3);
        assert!(t.pair_stats(0, 2).is_none());
        assert!(t.all_pairs().is_empty());
    }

    #[test]
    fn infinite_samples_tracked_separately() {
        let mut t = FreshnessTracker::new(2);
        t.record(0, 1, f64::INFINITY);
        t.record(0, 1, 5.0);
        let s = t.pair_stats(0, 1).unwrap();
        assert_eq!(s.samples, 1, "infinite ages excluded from stats");
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn from_source_collects_destinations() {
        let mut t = FreshnessTracker::new(3);
        t.record(1, 0, 3.0);
        t.record(1, 2, 9.0);
        let rows = t.from_source(1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 0);
        assert_eq!(rows[1].0, 2);
        assert_eq!(rows[1].1.median, 9.0);
    }

    #[test]
    #[should_panic]
    fn self_pair_rejected() {
        FreshnessTracker::new(2).record(1, 1, 0.0);
    }
}

//! Empirical cumulative distributions.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs are dropped).
    #[must_use]
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-quantile (`0 ≤ p ≤ 1`), by the nearest-rank method.
    ///
    /// # Panics
    /// Panics when the CDF is empty or `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        if p <= 0.0 {
            return self.sorted[0];
        }
        let rank = (p * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Maximum sample.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// Median (0.5 quantile).
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.quantile(0.5))
        }
    }

    /// The `(x, samples ≤ x)` steps of the CDF, one per distinct sample —
    /// the paper's "number of nodes with ≤" plots, ready to dump as CSV.
    #[must_use]
    pub fn steps(&self) -> Vec<(f64, usize)> {
        let mut out: Vec<(f64, usize)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = i + 1,
                _ => out.push((x, i + 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts_and_fractions() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.steps(), vec![(1.0, 1), (2.0, 3), (3.0, 4)]);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let c = Cdf::new((1..=100).map(f64::from).collect());
        assert_eq!(c.quantile(0.5), 50.0);
        assert_eq!(c.quantile(0.97), 97.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.median(), Some(50.0));
    }

    #[test]
    fn summary_stats() {
        let c = Cdf::new(vec![10.0, 20.0, 30.0]);
        assert_eq!(c.max(), Some(30.0));
        assert_eq!(c.mean(), Some(20.0));
    }

    #[test]
    fn empty_cdf_is_graceful() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert!(c.steps().is_empty());
        assert_eq!(c.max(), None);
        assert_eq!(c.mean(), None);
        assert_eq!(c.median(), None);
    }

    #[test]
    fn nan_samples_dropped() {
        let c = Cdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn steps_deduplicate() {
        let c = Cdf::new(vec![1.0, 1.0, 2.0]);
        assert_eq!(c.steps(), vec![(1.0, 2), (2.0, 3)]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        let _ = Cdf::new(vec![]).quantile(0.5);
    }
}

//! Per-neighbour link estimation: latency EWMA, loss window, liveness.
//!
//! Matches RON's link monitoring as described in section 5: each node
//! records "an exponentially weighted moving average of the latency to
//! every other node", marks a neighbour dead "after 5 consecutive failed
//! probes", and temporarily increases the probing rate after a first loss
//! so that failures are detected "within 1 probing period" (the rapid
//! re-probe timing itself lives in the prober; this module only tracks the
//! outcome statistics and liveness state).

use crate::entry::LinkEntry;
use serde::{Deserialize, Serialize};

/// The observable outcome of one probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProbeOutcome {
    /// A reply arrived with the given RTT in milliseconds.
    Reply {
        /// Measured round-trip time, ms.
        rtt_ms: f64,
    },
    /// The probe timed out.
    Timeout,
}

/// Estimator state for one directed link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkEstimator {
    /// Smoothed RTT, ms. `None` until the first reply.
    ewma_ms: Option<f64>,
    /// Consecutive failed probes so far.
    consecutive_failures: u32,
    /// Sliding window of recent outcomes for the loss estimate
    /// (true = lost), most recent last.
    window: Vec<bool>,
    /// Total probes / losses (diagnostics).
    probes: u64,
    losses: u64,
}

impl LinkEstimator {
    /// RON's liveness threshold, the paper's "#probes for failure":
    /// 5 consecutive failed probes mark a link dead.
    pub const DEFAULT_DEATH_THRESHOLD: u32 = 5;
    /// EWMA weight of a new latency sample.
    pub const DEFAULT_ALPHA: f64 = 0.3;
    /// Loss-window length (probes).
    pub const DEFAULT_WINDOW: usize = 20;

    /// A fresh estimator with the paper's parameters.
    #[must_use]
    pub fn new() -> Self {
        LinkEstimator {
            ewma_ms: None,
            consecutive_failures: 0,
            window: Vec::with_capacity(Self::DEFAULT_WINDOW),
            probes: 0,
            losses: 0,
        }
    }

    /// Record a probe outcome.
    pub fn record(&mut self, outcome: ProbeOutcome) {
        self.probes += 1;
        match outcome {
            ProbeOutcome::Reply { rtt_ms } => {
                self.consecutive_failures = 0;
                self.ewma_ms = Some(match self.ewma_ms {
                    None => rtt_ms,
                    Some(prev) => prev + Self::DEFAULT_ALPHA * (rtt_ms - prev),
                });
                self.push_window(false);
            }
            ProbeOutcome::Timeout => {
                self.consecutive_failures += 1;
                self.losses += 1;
                self.push_window(true);
            }
        }
    }

    fn push_window(&mut self, lost: bool) {
        if self.window.len() == Self::DEFAULT_WINDOW {
            self.window.remove(0);
        }
        self.window.push(lost);
    }

    /// Is the link alive (fewer consecutive failures than the threshold,
    /// and at least one reply ever seen)?
    #[must_use]
    pub fn alive(&self) -> bool {
        self.ewma_ms.is_some() && self.consecutive_failures < Self::DEFAULT_DEATH_THRESHOLD
    }

    /// True the moment the most recent probe failed (used by the prober to
    /// switch to rapid re-probing).
    #[must_use]
    pub fn in_loss_burst(&self) -> bool {
        self.consecutive_failures > 0
    }

    /// Consecutive failures so far.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Smoothed RTT estimate, ms.
    #[must_use]
    pub fn latency_ms(&self) -> Option<f64> {
        self.ewma_ms
    }

    /// Loss rate over the sliding window (0 when no probes yet).
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().filter(|&&l| l).count() as f64 / self.window.len() as f64
    }

    /// Lifetime probe and loss counters `(probes, losses)`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.probes, self.losses)
    }

    /// Render the current estimate as a wire [`LinkEntry`].
    #[must_use]
    pub fn to_entry(&self) -> LinkEntry {
        if self.alive() {
            LinkEntry::live(
                LinkEntry::quantize_latency(self.ewma_ms.unwrap_or(f64::INFINITY)),
                self.loss_rate() as f32,
            )
        } else {
            LinkEntry::dead()
        }
    }
}

impl Default for LinkEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_dead_until_first_reply() {
        let mut e = LinkEstimator::new();
        assert!(!e.alive());
        assert_eq!(e.latency_ms(), None);
        e.record(ProbeOutcome::Reply { rtt_ms: 40.0 });
        assert!(e.alive());
        assert_eq!(e.latency_ms(), Some(40.0));
    }

    #[test]
    fn ewma_converges_towards_samples() {
        let mut e = LinkEstimator::new();
        e.record(ProbeOutcome::Reply { rtt_ms: 100.0 });
        for _ in 0..50 {
            e.record(ProbeOutcome::Reply { rtt_ms: 20.0 });
        }
        let l = e.latency_ms().unwrap();
        assert!((l - 20.0).abs() < 0.5, "ewma {l}");
    }

    #[test]
    fn ewma_smooths_outliers() {
        let mut e = LinkEstimator::new();
        e.record(ProbeOutcome::Reply { rtt_ms: 50.0 });
        e.record(ProbeOutcome::Reply { rtt_ms: 500.0 });
        let l = e.latency_ms().unwrap();
        // One 10× outlier moves the estimate by α, not to the outlier.
        assert!((l - (50.0 + 0.3 * 450.0)).abs() < 1e-9);
    }

    #[test]
    fn dies_after_five_consecutive_failures() {
        let mut e = LinkEstimator::new();
        e.record(ProbeOutcome::Reply { rtt_ms: 30.0 });
        for k in 0..4 {
            e.record(ProbeOutcome::Timeout);
            assert!(e.alive(), "still alive after {} failures", k + 1);
        }
        e.record(ProbeOutcome::Timeout);
        assert!(!e.alive(), "dead after 5 consecutive failures");
        // A reply resurrects the link.
        e.record(ProbeOutcome::Reply { rtt_ms: 35.0 });
        assert!(e.alive());
        assert_eq!(e.consecutive_failures(), 0);
    }

    #[test]
    fn interleaved_failures_do_not_kill() {
        let mut e = LinkEstimator::new();
        e.record(ProbeOutcome::Reply { rtt_ms: 30.0 });
        for _ in 0..20 {
            e.record(ProbeOutcome::Timeout);
            e.record(ProbeOutcome::Timeout);
            e.record(ProbeOutcome::Reply { rtt_ms: 30.0 });
        }
        assert!(e.alive());
        assert!(e.loss_rate() > 0.5);
    }

    #[test]
    fn loss_rate_windowed() {
        let mut e = LinkEstimator::new();
        for _ in 0..LinkEstimator::DEFAULT_WINDOW {
            e.record(ProbeOutcome::Timeout);
        }
        assert_eq!(e.loss_rate(), 1.0);
        for _ in 0..LinkEstimator::DEFAULT_WINDOW {
            e.record(ProbeOutcome::Reply { rtt_ms: 10.0 });
        }
        assert_eq!(e.loss_rate(), 0.0, "old losses age out of the window");
    }

    #[test]
    fn loss_burst_flag() {
        let mut e = LinkEstimator::new();
        e.record(ProbeOutcome::Reply { rtt_ms: 10.0 });
        assert!(!e.in_loss_burst());
        e.record(ProbeOutcome::Timeout);
        assert!(e.in_loss_burst());
        e.record(ProbeOutcome::Reply { rtt_ms: 10.0 });
        assert!(!e.in_loss_burst());
    }

    #[test]
    fn to_entry_reflects_state() {
        let mut e = LinkEstimator::new();
        assert!(!e.to_entry().alive);
        e.record(ProbeOutcome::Reply { rtt_ms: 77.4 });
        let entry = e.to_entry();
        assert!(entry.alive);
        assert_eq!(entry.latency_ms, 77);
        for _ in 0..5 {
            e.record(ProbeOutcome::Timeout);
        }
        assert!(!e.to_entry().alive);
    }

    #[test]
    fn counters_track_lifetime() {
        let mut e = LinkEstimator::new();
        e.record(ProbeOutcome::Reply { rtt_ms: 1.0 });
        e.record(ProbeOutcome::Timeout);
        e.record(ProbeOutcome::Timeout);
        assert_eq!(e.counters(), (3, 2));
    }

    #[test]
    fn parameters_keep_their_invariants() {
        const { assert!(LinkEstimator::DEFAULT_ALPHA > 0.0 && LinkEstimator::DEFAULT_ALPHA <= 1.0) };
        const { assert!(LinkEstimator::DEFAULT_DEATH_THRESHOLD >= 1) };
        const { assert!(LinkEstimator::DEFAULT_WINDOW >= 1) };
    }
}

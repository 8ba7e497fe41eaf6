//! Adaptive per-link probe rates — the paper's deployment tuning.
//!
//! A link that has been stable for a long time does not need a probe
//! every `probe_interval_s`: the deployment section keeps probing
//! affordable at scale by backing off on stable links and snapping back
//! the moment anything changes. [`AdaptiveProbeRate`] is that state
//! machine, one instance per probed link:
//!
//! * every *stable* sample (a reply whose latency moved less than
//!   [`PROBE_SNAP_FRAC`] relative to the previous one) multiplies the
//!   interval by [`PROBE_BACKOFF`], saturating at `probe_interval_max_s`;
//! * a *loss* (probe timeout), or a latency swing of more than
//!   [`PROBE_SNAP_FRAC`], snaps the interval straight back to
//!   `rapid_probe_interval_s` so failure detection regains the RON
//!   cadence exactly when it matters.
//!
//! The interval is always within `[rapid_probe_interval_s,
//! probe_interval_max_s]` — property-tested below.

use crate::config::ProtocolConfig;

/// Multiplier applied to a link's probe interval after each stable
/// sample (exponential backoff towards `probe_interval_max_s`).
pub const PROBE_BACKOFF: f64 = 2.0;
/// Relative latency change that snaps a backed-off link straight back
/// to `rapid_probe_interval_s` (loss always snaps).
pub const PROBE_SNAP_FRAC: f64 = 0.3;

/// What one completed probe told us about the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateSample {
    /// A reply arrived with this measured RTT.
    Reply {
        /// Round-trip time, milliseconds.
        latency_ms: f64,
    },
    /// The probe timed out.
    Loss,
}

/// Per-link probe-interval controller (see module docs).
#[derive(Debug, Clone)]
pub struct AdaptiveProbeRate {
    rapid_s: f64,
    max_s: f64,
    interval_s: f64,
    last_latency_ms: Option<f64>,
    /// Adaptation is enabled only when the ceiling actually exceeds the
    /// base probing interval. With the paper's default
    /// (`probe_interval_max_s == probe_interval_s`) the controller is a
    /// strict no-op and the prober reproduces RON's fixed cadence
    /// *exactly* — rapid failure re-probing is handled by the prober's
    /// timeout pull-in, not by this rate.
    adaptive: bool,
}

impl AdaptiveProbeRate {
    /// A controller starting at `base_s` (normally `probe_interval_s`),
    /// with the rate band taken from `cfg`.
    #[must_use]
    pub fn new(cfg: &ProtocolConfig, base_s: f64) -> Self {
        let rapid_s = cfg.rapid_probe_interval_s;
        let max_s = cfg.probe_interval_max_s;
        let adaptive = cfg.probe_interval_max_s > cfg.probe_interval_s;
        AdaptiveProbeRate {
            rapid_s,
            max_s,
            interval_s: if adaptive {
                base_s.clamp(rapid_s, max_s)
            } else {
                base_s
            },
            last_latency_ms: None,
            adaptive,
        }
    }

    /// The current probe interval, seconds. Always within
    /// `[rapid_probe_interval_s, probe_interval_max_s]`.
    #[must_use]
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Fold in the outcome of one probe.
    pub fn on_sample(&mut self, sample: RateSample) {
        if !self.adaptive {
            return;
        }
        match sample {
            RateSample::Loss => {
                self.interval_s = self.rapid_s;
                self.last_latency_ms = None;
            }
            RateSample::Reply { latency_ms } => {
                let moved = self.last_latency_ms.is_some_and(|prev| {
                    (latency_ms - prev).abs() > PROBE_SNAP_FRAC * prev.max(1.0)
                });
                if moved {
                    self.interval_s = self.rapid_s;
                } else {
                    self.interval_s = (self.interval_s * PROBE_BACKOFF).min(self.max_s);
                }
                self.last_latency_ms = Some(latency_ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(max_s: f64) -> ProtocolConfig {
        ProtocolConfig {
            probe_interval_max_s: max_s,
            ..ProtocolConfig::quorum()
        }
    }

    #[test]
    fn stable_links_back_off_and_saturate() {
        let c = cfg(240.0);
        let mut r = AdaptiveProbeRate::new(&c, c.probe_interval_s);
        assert_eq!(r.interval_s(), 30.0);
        for _ in 0..10 {
            r.on_sample(RateSample::Reply { latency_ms: 50.0 });
        }
        assert_eq!(r.interval_s(), 240.0, "saturates at the ceiling");
    }

    #[test]
    fn loss_snaps_back_to_rapid() {
        let c = cfg(240.0);
        let mut r = AdaptiveProbeRate::new(&c, c.probe_interval_s);
        for _ in 0..10 {
            r.on_sample(RateSample::Reply { latency_ms: 50.0 });
        }
        r.on_sample(RateSample::Loss);
        assert_eq!(r.interval_s(), c.rapid_probe_interval_s);
    }

    #[test]
    fn latency_swing_snaps_back_to_rapid() {
        let c = cfg(240.0);
        let mut r = AdaptiveProbeRate::new(&c, c.probe_interval_s);
        for _ in 0..10 {
            r.on_sample(RateSample::Reply { latency_ms: 50.0 });
        }
        // +29% is within the 0.3 snap fraction.
        r.on_sample(RateSample::Reply { latency_ms: 64.0 });
        assert_eq!(r.interval_s(), 240.0);
        // +50% is a route change; back to rapid.
        r.on_sample(RateSample::Reply { latency_ms: 96.0 });
        assert_eq!(r.interval_s(), c.rapid_probe_interval_s);
    }

    #[test]
    fn default_ceiling_disables_backoff() {
        // probe_interval_max_s == probe_interval_s by default, so the
        // controller is inert: replies never raise the interval, and
        // losses never lower it — the prober's timeout pull-in alone
        // drives rapid re-probing, exactly like the fixed-cadence RON
        // discipline.
        let c = ProtocolConfig::quorum();
        let mut r = AdaptiveProbeRate::new(&c, c.probe_interval_s);
        for _ in 0..5 {
            r.on_sample(RateSample::Reply { latency_ms: 10.0 });
        }
        assert_eq!(r.interval_s(), c.probe_interval_s);
        r.on_sample(RateSample::Loss);
        assert_eq!(r.interval_s(), c.probe_interval_s);
    }

    fn arb_sample() -> impl Strategy<Value = RateSample> {
        prop_oneof![
            (1.0f64..2000.0).prop_map(|latency_ms| RateSample::Reply { latency_ms }),
            (0u32..1).prop_map(|_| RateSample::Loss),
        ]
    }

    proptest! {
        /// The interval stays inside `[rapid, max]` under any sample
        /// sequence, and a loss always resets it to rapid.
        #[test]
        fn interval_stays_in_band(samples in prop::collection::vec(arb_sample(), 1..60)) {
            let c = cfg(480.0);
            let mut r = AdaptiveProbeRate::new(&c, c.probe_interval_s);
            for s in samples {
                r.on_sample(s);
                prop_assert!(r.interval_s() >= c.rapid_probe_interval_s);
                prop_assert!(r.interval_s() <= c.probe_interval_max_s);
                if s == RateSample::Loss {
                    prop_assert_eq!(r.interval_s(), c.rapid_probe_interval_s);
                }
            }
        }

        /// Identical stable replies never *decrease* the interval —
        /// backoff is monotone until something changes.
        #[test]
        fn stable_backoff_is_monotone(latency in 1.0f64..500.0, n in 1usize..20) {
            let c = cfg(480.0);
            let mut r = AdaptiveProbeRate::new(&c, c.rapid_probe_interval_s);
            let mut prev = r.interval_s();
            for _ in 0..n {
                r.on_sample(RateSample::Reply { latency_ms: latency });
                prop_assert!(r.interval_s() >= prev);
                prev = r.interval_s();
            }
        }
    }
}

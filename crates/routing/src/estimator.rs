//! The prober's record of one link: section 5's monitoring — a latency
//! EWMA, death after [`DEFAULT_DEATH_THRESHOLD`] failed probes in a row,
//! the loss rate over the last [`DEFAULT_WINDOW`] — and the deployment
//! section's probe interval, ×[`PROBE_BACKOFF`] per stable reply up to
//! `probe_interval_max_s` and back to `rapid_probe_interval_s` on a loss
//! or a latency swing beyond [`PROBE_SNAP_FRAC`]. Backoff is on only when
//! `probe_interval_max_s > probe_interval_s` (by default it is not: RON's
//! fixed cadence). The band is read from the prober's config, not copied.

use crate::config::{
    ProtocolConfig, DEFAULT_ALPHA, DEFAULT_DEATH_THRESHOLD, DEFAULT_WINDOW, PROBE_BACKOFF,
    PROBE_SNAP_FRAC,
};
use apor_linkstate::LinkEntry;

/// One probe's outcome: a reply's RTT, ms, or a timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Outcome {
    Reply { rtt_ms: f64 },
    Timeout,
}

#[derive(Debug, Clone)]
pub(crate) struct ProbedLink {
    /// Smoothed RTT, ms; `None` until the first reply.
    pub(crate) ewma_ms: Option<f64>,
    /// Consecutive failed probes.
    failures: u32,
    /// The last `window_len` outcomes, newest in bit 0, set = lost.
    window: u32,
    window_len: u32,
    /// Within `[rapid_probe_interval_s, probe_interval_max_s]`.
    pub(crate) interval_s: f64,
    /// The latest reply's RTT since the last loss (while backoff is on).
    last_rtt_ms: Option<f64>,
}

impl ProbedLink {
    pub(crate) fn new(cfg: &ProtocolConfig) -> Self {
        ProbedLink {
            ewma_ms: None,
            failures: 0,
            window: 0,
            window_len: 0,
            interval_s: cfg.probe_interval_s,
            last_rtt_ms: None,
        }
    }

    /// Keep the measurement, start the probe rate over (a view change).
    pub(crate) fn restart_rate(&mut self, cfg: &ProtocolConfig) {
        (self.interval_s, self.last_rtt_ms) = (cfg.probe_interval_s, None);
    }

    /// Fold in one probe's outcome; `true` when it took the link from
    /// alive to dead.
    pub(crate) fn record(&mut self, outcome: Outcome, cfg: &ProtocolConfig) -> bool {
        let was_alive = self.alive();
        let adaptive = cfg.probe_interval_max_s > cfg.probe_interval_s;
        let lost = u32::from(outcome == Outcome::Timeout);
        self.window = (self.window << 1 | lost) & ((1 << DEFAULT_WINDOW) - 1);
        self.window_len = (self.window_len + 1).min(DEFAULT_WINDOW);
        match outcome {
            Outcome::Reply { rtt_ms } => {
                self.failures = 0;
                let prev = self.ewma_ms.unwrap_or(rtt_ms);
                self.ewma_ms = Some(prev + DEFAULT_ALPHA * (rtt_ms - prev));
                if adaptive {
                    let swing = |prev: f64| (rtt_ms - prev).abs() > PROBE_SNAP_FRAC * prev.max(1.0);
                    self.interval_s = if self.last_rtt_ms.is_some_and(swing) {
                        cfg.rapid_probe_interval_s
                    } else {
                        (self.interval_s * PROBE_BACKOFF).min(cfg.probe_interval_max_s)
                    };
                    self.last_rtt_ms = Some(rtt_ms);
                }
            }
            Outcome::Timeout => {
                self.failures += 1;
                if adaptive {
                    (self.interval_s, self.last_rtt_ms) = (cfg.rapid_probe_interval_s, None);
                }
            }
        }
        was_alive && !self.alive()
    }

    /// A reply ever seen, and fewer failures in a row than the threshold.
    pub(crate) fn alive(&self) -> bool {
        self.ewma_ms.is_some() && self.failures < DEFAULT_DEATH_THRESHOLD
    }

    /// Loss rate over the window (0 before any outcome).
    pub(crate) fn loss_rate(&self) -> f64 {
        f64::from(self.window.count_ones()) / f64::from(self.window_len.max(1))
    }

    pub(crate) fn to_entry(&self) -> LinkEntry {
        match self.ewma_ms {
            Some(ms) if self.alive() => {
                LinkEntry::live(LinkEntry::quantize_latency(ms), self.loss_rate() as f32)
            }
            _ => LinkEntry::dead(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The paper's configuration: fixed cadence, backoff off.
    fn fixed() -> ProtocolConfig {
        ProtocolConfig::quorum()
    }

    /// Backoff on, up to `max_s`.
    fn backoff(max_s: f64) -> ProtocolConfig {
        ProtocolConfig {
            probe_interval_max_s: max_s,
            ..ProtocolConfig::quorum()
        }
    }

    fn reply(rtt_ms: f64) -> Outcome {
        Outcome::Reply { rtt_ms }
    }

    /// A fresh link fed `outcomes` under `cfg`.
    fn fed(cfg: &ProtocolConfig, outcomes: &[Outcome]) -> ProbedLink {
        let mut l = ProbedLink::new(cfg);
        for &o in outcomes {
            l.record(o, cfg);
        }
        l
    }

    #[test]
    fn starts_dead_until_first_reply() {
        let mut e = ProbedLink::new(&fixed());
        assert!(!e.alive());
        assert_eq!(e.ewma_ms, None);
        e.record(reply(40.0), &fixed());
        assert!(e.alive());
        assert_eq!(e.ewma_ms, Some(40.0));
    }

    #[test]
    fn ewma_converges_towards_samples() {
        let mut e = fed(&fixed(), &[reply(100.0)]);
        for _ in 0..50 {
            e.record(reply(20.0), &fixed());
        }
        let l = e.ewma_ms.unwrap();
        assert!((l - 20.0).abs() < 0.5, "ewma {l}");
    }

    #[test]
    fn ewma_smooths_outliers() {
        let e = fed(&fixed(), &[reply(50.0), reply(500.0)]);
        let l = e.ewma_ms.unwrap();
        // One 10× outlier moves the estimate by α, not to the outlier.
        assert!((l - (50.0 + 0.3 * 450.0)).abs() < 1e-9);
    }

    #[test]
    fn dies_after_five_consecutive_failures() {
        let cfg = fixed();
        let mut e = fed(&cfg, &[reply(30.0)]);
        for k in 0..4 {
            assert!(!e.record(Outcome::Timeout, &cfg));
            assert!(e.alive(), "still alive after {} failures", k + 1);
        }
        assert!(e.record(Outcome::Timeout, &cfg), "the fifth kills");
        assert!(!e.alive(), "dead after 5 consecutive failures");
        assert!(!e.record(Outcome::Timeout, &cfg), "a dead link dies once");
        // A reply resurrects the link.
        e.record(reply(35.0), &cfg);
        assert!(e.alive());
        assert_eq!(e.failures, 0);
    }

    #[test]
    fn interleaved_failures_do_not_kill() {
        let cfg = fixed();
        let mut e = fed(&cfg, &[reply(30.0)]);
        for _ in 0..20 {
            e.record(Outcome::Timeout, &cfg);
            e.record(Outcome::Timeout, &cfg);
            e.record(reply(30.0), &cfg);
        }
        assert!(e.alive());
        assert!(e.loss_rate() > 0.5);
    }

    #[test]
    fn loss_rate_windowed() {
        let cfg = fixed();
        let mut e = ProbedLink::new(&cfg);
        for _ in 0..DEFAULT_WINDOW {
            e.record(Outcome::Timeout, &cfg);
        }
        assert_eq!(e.loss_rate(), 1.0);
        for _ in 0..DEFAULT_WINDOW {
            e.record(reply(10.0), &cfg);
        }
        assert_eq!(e.loss_rate(), 0.0, "old losses age out of the window");
    }

    #[test]
    fn to_entry_reflects_state() {
        let cfg = fixed();
        let mut e = ProbedLink::new(&cfg);
        assert!(!e.to_entry().alive);
        e.record(reply(77.4), &cfg);
        let entry = e.to_entry();
        assert!(entry.alive);
        assert_eq!(entry.latency_ms, 77);
        for _ in 0..5 {
            e.record(Outcome::Timeout, &cfg);
        }
        assert!(!e.to_entry().alive);
    }

    #[test]
    fn parameters_keep_their_invariants() {
        const { assert!(DEFAULT_ALPHA > 0.0 && DEFAULT_ALPHA <= 1.0) };
        const { assert!(DEFAULT_DEATH_THRESHOLD >= 1) };
        const { assert!(DEFAULT_WINDOW >= 1) };
    }

    #[test]
    fn stable_links_back_off_and_saturate() {
        let c = backoff(240.0);
        let mut r = ProbedLink::new(&c);
        assert_eq!(r.interval_s, 30.0);
        for _ in 0..10 {
            r.record(reply(50.0), &c);
        }
        assert_eq!(r.interval_s, 240.0, "saturates at the ceiling");
    }

    #[test]
    fn loss_snaps_back_to_rapid() {
        let c = backoff(240.0);
        let mut r = fed(&c, &[reply(50.0); 10]);
        r.record(Outcome::Timeout, &c);
        assert_eq!(r.interval_s, c.rapid_probe_interval_s);
    }

    #[test]
    fn latency_swing_snaps_back_to_rapid() {
        let c = backoff(240.0);
        let mut r = fed(&c, &[reply(50.0); 10]);
        // +29% is within the 0.3 snap fraction.
        r.record(reply(64.0), &c);
        assert_eq!(r.interval_s, 240.0);
        // +50% is a route change; back to rapid.
        r.record(reply(96.0), &c);
        assert_eq!(r.interval_s, c.rapid_probe_interval_s);
    }

    #[test]
    fn default_ceiling_disables_backoff() {
        // probe_interval_max_s == probe_interval_s by default, so the
        // interval is inert: replies never raise it, and losses never
        // lower it — the prober's timeout pull-in alone drives rapid
        // re-probing, exactly like the fixed-cadence RON discipline.
        let c = fixed();
        let mut r = fed(&c, &[reply(10.0); 5]);
        assert_eq!(r.interval_s, c.probe_interval_s);
        r.record(Outcome::Timeout, &c);
        assert_eq!(r.interval_s, c.probe_interval_s);
    }

    /// A carried link keeps its measurement and starts its rate over.
    #[test]
    fn restarting_the_rate_keeps_the_measurement() {
        let c = backoff(240.0);
        let lived = fed(
            &c,
            &[reply(50.0), Outcome::Timeout, reply(52.0), reply(52.0)],
        );
        let mut carried = lived.clone();
        carried.restart_rate(&c);
        assert_eq!(carried.interval_s, ProbedLink::new(&c).interval_s);
        assert_eq!(carried.last_rtt_ms, None);
        assert_eq!(carried.ewma_ms, lived.ewma_ms);
        assert_eq!(carried.loss_rate(), lived.loss_rate());
        assert_eq!(carried.to_entry(), lived.to_entry());
    }

    fn arb_outcome() -> impl Strategy<Value = Outcome> {
        prop_oneof![
            (1.0f64..2000.0).prop_map(reply),
            (0u32..1).prop_map(|_| Outcome::Timeout),
        ]
    }

    proptest! {
        /// The interval stays inside `[rapid, max]` under any outcome
        /// sequence, and a loss always resets it to rapid.
        #[test]
        fn interval_stays_in_band(outcomes in prop::collection::vec(arb_outcome(), 1..60)) {
            let c = backoff(480.0);
            let mut r = ProbedLink::new(&c);
            for o in outcomes {
                r.record(o, &c);
                prop_assert!(r.interval_s >= c.rapid_probe_interval_s);
                prop_assert!(r.interval_s <= c.probe_interval_max_s);
                if o == Outcome::Timeout {
                    prop_assert_eq!(r.interval_s, c.rapid_probe_interval_s);
                }
            }
        }

        /// Identical stable replies never *decrease* the interval —
        /// backoff is monotone until something changes.
        #[test]
        fn stable_backoff_is_monotone(latency in 1.0f64..500.0, n in 1usize..20) {
            let c = backoff(480.0);
            let mut r = ProbedLink::new(&c);
            let mut prev = r.interval_s;
            for _ in 0..n {
                r.record(reply(latency), &c);
                prop_assert!(r.interval_s >= prev);
                prev = r.interval_s;
            }
        }

        /// The bit window's loss rate is the rate over a list of the
        /// last [`DEFAULT_WINDOW`] outcomes, bit for bit, after every
        /// outcome.
        #[test]
        fn the_bit_window_is_the_listed_window(
            outcomes in prop::collection::vec(arb_outcome(), 0..80),
        ) {
            let c = fixed();
            let mut l = ProbedLink::new(&c);
            let mut listed: Vec<bool> = Vec::new();
            prop_assert_eq!(l.loss_rate(), 0.0);
            for o in outcomes {
                l.record(o, &c);
                if listed.len() == DEFAULT_WINDOW as usize {
                    listed.remove(0);
                }
                listed.push(o == Outcome::Timeout);
                let lost = listed.iter().filter(|&&x| x).count();
                let want = lost as f64 / listed.len() as f64;
                prop_assert_eq!(l.loss_rate().to_bits(), want.to_bits());
            }
        }
    }
}

//! Protocol configuration — the parameter table of section 5.
//!
//! | Configuration parameter | Full-mesh (RON) | Quorum system |
//! |---|---|---|
//! | routing interval (r)    | 30 s | 15 s |
//! | probing interval (p)    | 30 s | 30 s |
//! | #probes for failure     | 5    | 5    |
//!
//! The probe count is the same for both, so it is a constant where the
//! estimator counts losses: [`LinkEstimator::DEFAULT_DEATH_THRESHOLD`].
//! The quorum system halves the routing interval because, absent
//! rendezvous failures, it takes two routing intervals to propagate fresh
//! probe data into optimal one-hop routes (section 4, "Comparison to n²
//! link-state failover").

use apor_linkstate::{LinkEstimator, RecFormat};
use serde::{Deserialize, Serialize};

/// Age after which a *received* route recommendation is no longer
/// trusted for forwarding (falls back to §4.2 scavenging), in routing
/// intervals.
pub const ROUTE_EXPIRY_INTERVALS: f64 = 4.0;
/// Missing-recommendation time after which a remote rendezvous failure
/// is declared for a destination, in routing intervals. The paper's
/// analysis allows up to one interval of detection delay; 2.5 rides out
/// one lost message.
pub const REMOTE_FAILURE_INTERVALS: f64 = 2.5;
/// Grace period after first sending link state to a server before
/// remote-failure detection starts, in routing intervals.
pub const SERVER_GRACE_INTERVALS: f64 = 2.0;
/// Measurement age a rendezvous server will still base recommendations
/// on, in routing intervals: the paper uses 3 "to provide extra
/// redundancy in case of dropped link-state messages" (section 6.2.2).
pub const STALENESS_INTERVALS: f64 = 3.0;

/// The protocol timing and format knobs some study, the paper's
/// parameter table or a planned sweep varies. What none of them has
/// ever varied is a constant: the four interval multiples above, the
/// estimator's probes for failure and EWMA weight
/// ([`LinkEstimator::DEFAULT_DEATH_THRESHOLD`],
/// [`LinkEstimator::DEFAULT_ALPHA`]) and the adaptive probe rate's
/// backoff and snap fraction ([`adaptive`](crate::adaptive)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Routing interval `r`, seconds: how often link state / recommendations
    /// are exchanged.
    pub routing_interval_s: f64,
    /// Probing interval `p`, seconds.
    pub probe_interval_s: f64,
    /// Per-probe reply timeout, seconds.
    pub probe_timeout_s: f64,
    /// Accelerated probing interval after a first loss (RON's rapid
    /// failure detection), seconds. Must allow
    /// [`LinkEstimator::DEFAULT_DEATH_THRESHOLD`] losses within one
    /// probing interval.
    pub rapid_probe_interval_s: f64,
    /// Recommendation entry wire format.
    pub rec_format: RecFormat,
    /// Ceiling the adaptive per-link probe rate backs off to on stable
    /// links, seconds. Equal to `probe_interval_s` by default, which
    /// disables backoff (the paper's fixed-rate behaviour); the
    /// deployment tuning sets it higher so long-stable links are probed
    /// rarely.
    pub probe_interval_max_s: f64,
    /// Which peers the prober measures.
    pub probe_policy: ProbePolicy,
    /// Number of non-entitled peers sampled concurrently under
    /// [`ProbePolicy::Entitled`]. A constant (not `O(√n)`) budget keeps
    /// per-node probe bytes strictly sub-linear in `n`.
    pub probe_sample_budget: usize,
    /// Maximum intermediate relays a feasibility-checked detour may
    /// splice when both recommendations and 1-hop scavenging fail
    /// (1 = the paper's behaviour, 1-hop detours only; capped at 8).
    pub max_detour_hops: usize,
}

/// Which peers a node probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbePolicy {
    /// Probe every other member — `O(n)` targets per node, the paper's
    /// RON baseline and the default.
    FullMesh,
    /// Probe only the node's `~2√n` rendezvous servers plus a rotating
    /// [`probe_sample_budget`](ProtocolConfig::probe_sample_budget)-sized
    /// sample of other peers, batched into
    /// [`ProbeBatch`](apor_linkstate::Message::ProbeBatch) frames.
    /// Coverage is preserved: any client pair (i, j) shares a rendezvous
    /// server s, and both legs i→s and j→s are entitled, so s can always
    /// recommend the two-hop route via itself or better.
    Entitled,
}

impl ProtocolConfig {
    /// The paper's full-mesh (RON baseline) configuration: r = 30 s.
    #[must_use]
    pub fn ron() -> Self {
        ProtocolConfig {
            routing_interval_s: 30.0,
            ..Self::base()
        }
    }

    /// The paper's quorum-system configuration: r = 15 s.
    #[must_use]
    pub fn quorum() -> Self {
        ProtocolConfig {
            routing_interval_s: 15.0,
            ..Self::base()
        }
    }

    fn base() -> Self {
        ProtocolConfig {
            routing_interval_s: 30.0,
            probe_interval_s: 30.0,
            probe_timeout_s: 3.0,
            rapid_probe_interval_s: 5.0,
            rec_format: RecFormat::Compact,
            probe_interval_max_s: 30.0,
            probe_policy: ProbePolicy::FullMesh,
            probe_sample_budget: 16,
            max_detour_hops: 1,
        }
    }

    /// Allow feasibility-checked detours through up to `hops`
    /// intermediate relays (clamped to the 1..=8 range the loop-freedom
    /// proptest covers).
    #[must_use]
    pub fn with_detour_hops(mut self, hops: usize) -> Self {
        self.max_detour_hops = hops.clamp(1, 8);
        self
    }

    /// Enable the sub-quadratic probing plane: entitled + sampled
    /// targets, per-link adaptive rates backing off to
    /// `probe_interval_max_s`, batched probe frames.
    #[must_use]
    pub fn with_subquadratic_probing(mut self, probe_interval_max_s: f64) -> Self {
        self.probe_policy = ProbePolicy::Entitled;
        self.probe_interval_max_s = probe_interval_max_s;
        self
    }

    /// The staleness window in seconds (3·r).
    #[must_use]
    pub fn staleness_s(&self) -> f64 {
        STALENESS_INTERVALS * self.routing_interval_s
    }

    /// The route-expiry window in seconds.
    #[must_use]
    pub fn route_expiry_s(&self) -> f64 {
        ROUTE_EXPIRY_INTERVALS * self.routing_interval_s
    }

    /// Remote-failure timeout in seconds.
    #[must_use]
    pub fn remote_failure_s(&self) -> f64 {
        REMOTE_FAILURE_INTERVALS * self.routing_interval_s
    }

    /// Server grace period in seconds.
    #[must_use]
    pub fn server_grace_s(&self) -> f64 {
        SERVER_GRACE_INTERVALS * self.routing_interval_s
    }

    /// Sanity-check the invariants the failure-detection analysis needs.
    ///
    /// # Panics
    /// Panics when rapid probing cannot detect a failure within one
    /// probing interval — too few rapid probes fit it, or a probe's
    /// timeout outlasts the rapid interval — or intervals are
    /// non-positive.
    pub fn validate(&self) {
        assert!(self.routing_interval_s > 0.0);
        assert!(self.probe_interval_s > 0.0);
        assert!(
            f64::from(LinkEstimator::DEFAULT_DEATH_THRESHOLD) * self.rapid_probe_interval_s
                <= self.probe_interval_s,
            "rapid probing must fit {} probes inside one probing interval",
            LinkEstimator::DEFAULT_DEATH_THRESHOLD
        );
        // After a timeout the prober re-probes at `sent + rapid
        // interval` or now, whichever is later: a longer timeout would
        // stretch every rapid round past the bound above.
        assert!(
            self.probe_timeout_s <= self.rapid_probe_interval_s,
            "a probe must time out within one rapid probing interval"
        );
        assert!(
            self.probe_interval_max_s >= self.probe_interval_s,
            "probe backoff ceiling below the base probing interval"
        );
        assert!(self.probe_sample_budget >= 1);
        assert!(
            (1..=8).contains(&self.max_detour_hops),
            "detour splicing is bounded to 8 relays"
        );
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self::quorum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameter_table() {
        let ron = ProtocolConfig::ron();
        assert_eq!(ron.routing_interval_s, 30.0);
        assert_eq!(ron.probe_interval_s, 30.0);
        let q = ProtocolConfig::quorum();
        assert_eq!(q.routing_interval_s, 15.0);
        assert_eq!(q.probe_interval_s, 30.0);
        assert_eq!(LinkEstimator::DEFAULT_DEATH_THRESHOLD, 5);
    }

    #[test]
    fn staleness_is_three_routing_intervals() {
        assert_eq!(ProtocolConfig::quorum().staleness_s(), 45.0);
        assert_eq!(ProtocolConfig::ron().staleness_s(), 90.0);
    }

    #[test]
    fn default_configs_validate() {
        ProtocolConfig::ron().validate();
        ProtocolConfig::quorum().validate();
    }

    #[test]
    fn detour_hops_clamp_to_the_proptested_range() {
        assert_eq!(ProtocolConfig::quorum().max_detour_hops, 1);
        let c = ProtocolConfig::quorum().with_detour_hops(0);
        assert_eq!(c.max_detour_hops, 1);
        let c = ProtocolConfig::quorum().with_detour_hops(20);
        assert_eq!(c.max_detour_hops, 8);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "rapid probing")]
    fn validate_rejects_slow_rapid_probing() {
        let mut c = ProtocolConfig::quorum();
        c.rapid_probe_interval_s = 10.0; // 5 × 10 s > 30 s probing interval
        c.validate();
    }

    #[test]
    #[should_panic(expected = "time out within one rapid")]
    fn validate_rejects_a_timeout_longer_than_the_rapid_interval() {
        let mut c = ProtocolConfig::quorum();
        c.probe_timeout_s = 6.0; // 5 × 5 s fits 30 s, but each round waits 6 s
        c.validate();
    }

    #[test]
    fn rapid_detection_within_one_probing_interval() {
        // The paper: "our implementation detects failures within 1 probing
        // period". With the defaults, 5 rapid probes take 25 s ≤ 30 s.
        let c = ProtocolConfig::quorum();
        let detect = f64::from(LinkEstimator::DEFAULT_DEATH_THRESHOLD) * c.rapid_probe_interval_s;
        assert!(detect <= c.probe_interval_s);
    }
}

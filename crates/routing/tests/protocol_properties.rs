//! Property-based tests on the prober (the route kernels are held to
//! the brute-force oracle in `kernel_oracle.rs`).

use apor_routing::config::DEFAULT_DEATH_THRESHOLD;
use apor_routing::prober::{ProbeAction, Prober};
use apor_routing::ProtocolConfig;
use proptest::prelude::*;

proptest! {
    /// Prober liveness follows the 5-consecutive-failures rule for any
    /// reply pattern: after processing a sequence of probe outcomes, the
    /// link is alive iff a reply ever arrived and the trailing failure run
    /// is < 5.
    #[test]
    fn prober_liveness_matches_rule(pattern in prop::collection::vec(any::<bool>(), 1..120)) {
        let cfg = ProtocolConfig::quorum();
        let mut p = Prober::new(0, 2, cfg.clone(), 0.0);
        let mut t = 0.0;
        let mut outcomes: Vec<bool> = Vec::new(); // true = replied
        let mut k = 0;
        while k < pattern.len() {
            for action in p.poll(t) {
                let ProbeAction::SendProbe { seq, .. } = action else {
                    panic!("full-mesh probing sends single probes");
                };
                if k < pattern.len() {
                    if pattern[k] {
                        p.on_reply(1, seq, t + 0.01);
                    }
                    outcomes.push(pattern[k]);
                    k += 1;
                }
            }
            t += 0.5;
            prop_assume!(t < 50_000.0);
        }
        // Let the last probe time out if it went unanswered.
        t += cfg.probe_timeout_s + 0.1;
        let _ = p.poll(t);

        let ever_replied = outcomes.iter().any(|&r| r);
        let trailing_failures = outcomes.iter().rev().take_while(|&&r| !r).count() as u32;
        let expected_alive =
            ever_replied && trailing_failures < DEFAULT_DEATH_THRESHOLD;
        prop_assert_eq!(
            p.alive(1),
            expected_alive,
            "pattern {:?}: trailing failures {}",
            outcomes,
            trailing_failures
        );
    }
}

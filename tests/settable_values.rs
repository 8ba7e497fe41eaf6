//! Every settable value of the protocol stack, one line each, with the
//! values code outside the tests gives it.
//!
//! A value stays settable only when two non-test callers need different
//! values; everything else is a constant in the crate that owns it. The
//! table below destructures each configuration struct exhaustively (no
//! `..`), so a new field does not compile until it is listed here with
//! its callers, and the counts at the bottom are checked mechanically.

use allpairs_overlay::membership::{AntiEntropyConfig, SwimConfig};
use allpairs_overlay::netsim::SimulatorConfig;
use allpairs_overlay::overlay::config::{Algorithm, NodeConfig};
use allpairs_overlay::quorum::NodeId;
use allpairs_overlay::routing::ProtocolConfig;

/// The `values` of a field that is itself one of the listed structs:
/// not a leaf, so not counted.
const NESTED: &str = "a struct listed below";

/// Destructure `$value` as `$ty` naming every field, and return one
/// `(field, values)` row per field.
macro_rules! settable {
    ($ty:ident = $value:expr; { $($field:ident: $values:expr,)* }) => {{
        let $ty { $($field: _),* } = $value;
        vec![$((concat!(stringify!($ty), "::", stringify!($field)), $values)),*]
    }};
}

#[test]
fn every_settable_value_names_its_callers() {
    let node = settable!(NodeConfig = NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum); {
        id: "one per node, from every driver",
        coordinator: "NodeId(0) in every study and example; NodeId(1) in the view-install kernel bench",
        membership: "Centralized by default; Swim in churn, partition and bench/e2e swim-churn-256",
        anti_entropy: NESTED,
        algorithm: "FullMesh or Quorum, per study arm",
        protocol: NESTED,
        seed: "0x5EED ^ id, xored with each study's seed",
        join_retry_s: "5 s; 2 s in churn's centralized arm",
        keepalive_s: "600 s; 15 s in churn",
        member_timeout_s: "1800 s (the paper's 30 min); 60 s in churn",
        static_members: "None for joining nodes; the full member list in every steady-state study",
        trace_capacity: "0 (off); 1024 spans in churn and partition",
    });
    let protocol = settable!(ProtocolConfig = ProtocolConfig::quorum(); {
        routing_interval_s: "30 s full mesh, 15 s quorum (the paper's r); 0.4 s on the udp_cluster clock",
        probe_interval_s: "30 s (the paper's p); 10 s in detour; 0.6 s in udp_cluster",
        probe_timeout_s: "3 s; 1.5 s in detour; 0.05 s in udp_cluster",
        rapid_probe_interval_s: "5 s; 2 s in detour; 0.1 s in udp_cluster",
        rec_format: "Compact; WithCost in detour",
        probe_interval_max_s: "30 s (no backoff); 240 s under sub-quadratic probing; 10 s in detour",
        probe_policy: "FullMesh; Entitled in scale and bench/e2e scale-512 / swim-churn-256",
        probe_sample_budget: "16; the planned stretch-frontier sweep is its second caller",
        max_detour_hops: "1 (the paper); 8 in bench/e2e swim-churn-256; per arm in detour",
    });
    let swim = settable!(SwimConfig = SwimConfig::default(); {
        anti_entropy: NESTED,
        seed: "derived per node: NodeConfig::seed ^ 0x5111_0000",
    });
    let anti_entropy = settable!(AntiEntropyConfig = AntiEntropyConfig::default(); {
        enabled: "on; off in partition's ablation arm",
        sync_period_s: "4 s; one protocol period (2 s) in partition",
    });
    let simulator = settable!(SimulatorConfig = SimulatorConfig::default(); {
        seed: "each study's master seed",
        jitter_frac: "0.03; 0 for the jitter-free reference network of replay_determinism",
        bucket_secs: "60 s (figure 10's windows); 5 s in bench/e2e",
        per_packet_overhead: "0 (protocol-agnostic); 28 B of IP+UDP from overlay_sim_config",
    });

    let leaves = |rows: &[(&str, &str)]| rows.iter().filter(|(_, v)| *v != NESTED).count();
    for (field, values) in node
        .iter()
        .chain(&protocol)
        .chain(&swim)
        .chain(&anti_entropy)
        .chain(&simulator)
    {
        assert!(!values.is_empty(), "{field} names no caller");
    }
    assert_eq!(
        leaves(&node) + leaves(&protocol) + leaves(&swim) + leaves(&anti_entropy),
        22,
        "leaf fields of NodeConfig, ProtocolConfig, SwimConfig and AntiEntropyConfig"
    );
    assert_eq!(leaves(&simulator), 4, "SimulatorConfig");
}

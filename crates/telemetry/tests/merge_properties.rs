//! Property tests for the snapshot merge algebra.
//!
//! Fleet snapshots are folded in whatever order the harness visits
//! nodes, so the merge must be a commutative monoid: `a ⊕ b = b ⊕ a`,
//! `(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)`, and the empty snapshot is the
//! identity. The metric *kind* is derived from the name here, so
//! arbitrary snapshots never produce the kind-conflict panic (which is
//! a registration bug, covered by a unit test).

use apor_telemetry::{Event, EventKind, HistogramSnapshot, MetricValue, Severity, Snapshot};
use proptest::prelude::*;

/// One arbitrary metric: node, name index, and a value whose kind is a
/// function of the name (so merges are always kind-consistent).
fn arb_metric() -> impl Strategy<Value = (u32, usize, u64)> {
    (0u32..4, 0usize..6, 0u64..1_000_000)
}

fn snapshot_from(metrics: &[(u32, usize, u64)]) -> Snapshot {
    let mut snap = Snapshot::default();
    let mut staged: Snapshot = Snapshot::default();
    for &(node, name_idx, v) in metrics {
        let name = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"][name_idx];
        let value = match name_idx % 3 {
            0 => MetricValue::Counter(v),
            1 => MetricValue::Gauge(v),
            _ => {
                let mut h = HistogramSnapshot::empty();
                h.count = 1;
                h.sum = v;
                h.max = v;
                h.buckets[apor_telemetry::metrics::bucket_index(v)] = 1;
                MetricValue::Histogram(h)
            }
        };
        // Same-key repeats fold through merge (insert would overwrite,
        // which is not the additive semantics we are testing).
        staged.insert(node, "prop", name, value);
        // Each metric also contributes one journal event, so the monoid
        // laws below cover the event union (sort + newest-cap) too.
        staged.set_events(vec![Event {
            #[allow(clippy::cast_precision_loss)]
            t: v as f64 * 0.25,
            severity: [Severity::Info, Severity::Warn][name_idx % 2],
            node,
            kind: EventKind::SyncSkip { peer: node },
        }]);
        snap.merge(&staged);
        staged = Snapshot::default();
    }
    snap
}

proptest! {
    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(arb_metric(), 0..12),
        b in prop::collection::vec(arb_metric(), 0..12),
    ) {
        let (sa, sb) = (snapshot_from(&a), snapshot_from(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(arb_metric(), 0..10),
        b in prop::collection::vec(arb_metric(), 0..10),
        c in prop::collection::vec(arb_metric(), 0..10),
    ) {
        let (sa, sb, sc) = (snapshot_from(&a), snapshot_from(&b), snapshot_from(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn empty_is_identity(a in prop::collection::vec(arb_metric(), 0..12)) {
        let sa = snapshot_from(&a);
        let mut left = Snapshot::default();
        left.merge(&sa);
        let mut right = sa.clone();
        right.merge(&Snapshot::default());
        prop_assert_eq!(&left, &sa);
        prop_assert_eq!(&right, &sa);
    }

    #[test]
    fn merge_totals_add(
        a in prop::collection::vec(arb_metric(), 0..12),
        b in prop::collection::vec(arb_metric(), 0..12),
    ) {
        let (sa, sb) = (snapshot_from(&a), snapshot_from(&b));
        let mut merged = sa.clone();
        merged.merge(&sb);
        prop_assert_eq!(
            merged.counter_total("prop", "alpha"),
            sa.counter_total("prop", "alpha") + sb.counter_total("prop", "alpha")
        );
    }
}

//! Point-in-time metric snapshots: fleet merge and JSON/CSV export.

use crate::metrics::{bucket_upper_bound, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A frozen histogram: counts per log₂ bucket plus exact count/sum/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket observation counts (see
    /// [`bucket_index`](crate::metrics::bucket_index)).
    pub buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
}

impl HistogramSnapshot {
    /// An empty histogram.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: Box::new([0; HISTOGRAM_BUCKETS]),
        }
    }

    /// Estimated quantile `q` (0 ≤ q ≤ 1): the upper bound of the
    /// bucket holding the ⌈q·count⌉-th observation, capped at the true
    /// max. 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

/// One metric's frozen value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(u64),
    /// A distribution.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time copy of a registry (or a whole fleet's, after
/// merging), keyed `(node, component, name)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: BTreeMap<(u32, String, String), MetricValue>,
}

impl Snapshot {
    /// Insert (or overwrite) one metric.
    pub fn insert(&mut self, node: u32, component: &str, name: &str, value: MetricValue) {
        self.entries
            .insert((node, component.to_string(), name.to_string()), value);
    }

    /// No metrics at all?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterate `(node, component, name, value)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str, &str, &MetricValue)> {
        self.entries
            .iter()
            .map(|((node, c, n), v)| (*node, c.as_str(), n.as_str(), v))
    }

    /// The counter `node/component/name`, if present (and a counter).
    #[must_use]
    pub fn counter(&self, node: u32, component: &str, name: &str) -> Option<u64> {
        match self
            .entries
            .get(&(node, component.to_string(), name.to_string()))
        {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge `node/component/name`, if present (and a gauge).
    #[must_use]
    pub fn gauge(&self, node: u32, component: &str, name: &str) -> Option<u64> {
        match self
            .entries
            .get(&(node, component.to_string(), name.to_string()))
        {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `node/component/name`, if present (and one).
    #[must_use]
    pub fn histogram(&self, node: u32, component: &str, name: &str) -> Option<&HistogramSnapshot> {
        match self
            .entries
            .get(&(node, component.to_string(), name.to_string()))
        {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of the counter `component/name` across all nodes.
    #[must_use]
    pub fn counter_total(&self, component: &str, name: &str) -> u64 {
        self.iter()
            .filter(|(_, c, n, _)| *c == component && *n == name)
            .filter_map(|(_, _, _, v)| match v {
                MetricValue::Counter(x) => Some(*x),
                _ => None,
            })
            .fold(0u64, u64::saturating_add)
    }

    /// The histogram `component/name` merged across all nodes — the
    /// fleet-wide distribution (counts/buckets sum, maxima take the
    /// max). Empty when no node recorded it.
    #[must_use]
    pub fn histogram_total(&self, component: &str, name: &str) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::empty();
        for (_, c, n, v) in self.iter() {
            if c == component && n == name {
                if let MetricValue::Histogram(h) = v {
                    total.merge(h);
                }
            }
        }
        total
    }

    /// The nodes whose counter `component/name` is nonzero, ascending.
    #[must_use]
    pub fn nodes_with_nonzero(&self, component: &str, name: &str) -> Vec<u32> {
        self.iter()
            .filter(|(_, c, n, v)| {
                *c == component && *n == name && matches!(v, MetricValue::Counter(x) if *x > 0)
            })
            .map(|(node, _, _, _)| node)
            .collect()
    }

    /// Fold `other` into `self`. Counters, gauges and histogram buckets
    /// sum (saturating); maxima take the max. The operation is
    /// associative and commutative, so fleets can merge in any order.
    ///
    /// # Panics
    /// Panics when the same key holds different metric kinds — that is
    /// a registration bug, not a runtime condition.
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, value) in &other.entries {
            match self.entries.get_mut(key) {
                None => {
                    self.entries.insert(key.clone(), value.clone());
                }
                Some(mine) => match (mine, value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a = a.saturating_add(*b);
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                        *a = a.saturating_add(*b);
                    }
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    _ => panic!(
                        "metric {}/{}/{} registered with conflicting kinds",
                        key.0, key.1, key.2
                    ),
                },
            }
        }
    }

    /// Export as JSON: `{"metrics":[…]}` with one object per metric.
    /// Histogram buckets are sparse `[index, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": [");
        let mut first = true;
        for (node, component, name, value) in self.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"node\": {node}, \"component\": \"{component}\", \"name\": \"{name}\", \
                 \"kind\": \"{}\"",
                value.kind()
            );
            match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = write!(out, ", \"value\": {v}}}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ", \"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \
                         \"p99\": {}, \"buckets\": [",
                        h.count,
                        h.sum,
                        h.max,
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99)
                    );
                    let mut first_b = true;
                    for (i, &b) in h.buckets.iter().enumerate() {
                        if b > 0 {
                            if !first_b {
                                out.push_str(", ");
                            }
                            first_b = false;
                            let _ = write!(out, "[{i}, {b}]");
                        }
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::Telemetry;

    fn sample() -> Snapshot {
        let t = Telemetry::new(2);
        t.counter("membership", "probe_sent").add(11);
        t.gauge("routing", "rec_seen_bytes").set(640);
        let h = t.histogram("netsim", "deliver_latency_us");
        h.observe(100);
        h.observe(100_000);
        t.snapshot()
    }

    #[test]
    fn merge_sums_counters_and_buckets() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter(2, "membership", "probe_sent"), Some(22));
        assert_eq!(a.gauge(2, "routing", "rec_seen_bytes"), Some(1280));
        let h = a.histogram(2, "netsim", "deliver_latency_us").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.max, 100_000);
    }

    #[test]
    fn merge_keeps_distinct_nodes_distinct() {
        let ta = Telemetry::new(0);
        ta.counter("m", "x").add(1);
        let tb = Telemetry::new(1);
        tb.counter("m", "x").add(5);
        let mut merged = ta.snapshot();
        merged.merge(&tb.snapshot());
        assert_eq!(merged.counter(0, "m", "x"), Some(1));
        assert_eq!(merged.counter(1, "m", "x"), Some(5));
        assert_eq!(merged.counter_total("m", "x"), 6);
        assert_eq!(merged.nodes_with_nonzero("m", "x"), vec![0, 1]);
    }

    #[test]
    fn json_export_parses_back() {
        let snap = sample();
        let v = json::parse(&snap.to_json()).expect("valid JSON");
        let metrics = v.get("metrics").and_then(Value::as_array).unwrap();
        assert_eq!(metrics.len(), 3);
        let probe = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("probe_sent"))
            .unwrap();
        assert_eq!(probe.get("value").and_then(Value::as_f64), Some(11.0));
        assert_eq!(probe.get("node").and_then(Value::as_f64), Some(2.0));
        let hist = metrics
            .iter()
            .find(|m| m.get("kind").and_then(Value::as_str) == Some("histogram"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(hist.get("max").and_then(Value::as_f64), Some(100_000.0));
    }

    #[test]
    fn histogram_total_merges_across_nodes() {
        let ta = Telemetry::new(0);
        ta.histogram("netsim", "deliver_latency_us").observe(10);
        let tb = Telemetry::new(1);
        tb.histogram("netsim", "deliver_latency_us").observe(1000);
        let mut snap = ta.snapshot();
        snap.merge(&tb.snapshot());
        let total = snap.histogram_total("netsim", "deliver_latency_us");
        assert_eq!(total.count, 2);
        assert_eq!(total.max, 1000);
        assert_eq!(snap.histogram_total("netsim", "no_such").count, 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = HistogramSnapshot::empty();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
    }
}

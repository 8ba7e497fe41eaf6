//! The per-node metrics registry and its lock-free instrument handles.

use crate::journal::{Event, EventKind, JournalInner, Severity, JOURNAL_CAPACITY};
use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ histogram buckets: bucket 0 holds zeros, bucket `k`
/// (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for 0, `⌊log₂ v⌋ + 1` otherwise.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper bound (inclusive) of bucket `i` — the quantile estimate
/// reported for observations that fell in it.
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing count. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (bytes held, rows present). Cloning shares the
/// cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, cell) in buckets.iter_mut().zip(&self.buckets) {
            *b = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: Box::new(buckets),
        }
    }
}

/// A log₂-bucketed distribution (latencies, sizes). Cloning shares the
/// cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let cells = &*self.0;
        cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
        cells.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCells>),
}

#[derive(Debug)]
struct Inner {
    node: u32,
    /// `false` = handles still count, but snapshots are empty and the
    /// journal drops everything.
    enabled: bool,
    registry: Mutex<BTreeMap<(&'static str, &'static str), Instrument>>,
    journal: Mutex<JournalInner>,
}

/// A per-node telemetry handle: the registry of this node's metrics
/// plus its event journal. Cloning shares the underlying state, so a
/// node hands clones to each of its components (SWIM plane, router,
/// stores) and snapshots them all at once.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    /// A disabled handle — see [`Telemetry::disabled`].
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// An enabled registry for node `node` whose journal keeps the
    /// newest [`JOURNAL_CAPACITY`] events.
    #[must_use]
    pub fn new(node: u32) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                node,
                enabled: true,
                registry: Mutex::new(BTreeMap::new()),
                journal: Mutex::new(JournalInner::new(JOURNAL_CAPACITY)),
            }),
        }
    }

    /// A disabled registry: instrument handles still count (components
    /// may read their own cells), but [`Telemetry::snapshot`] is empty
    /// and the journal records zero events.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                node: u32::MAX,
                enabled: false,
                registry: Mutex::new(BTreeMap::new()),
                journal: Mutex::new(JournalInner::new(0)),
            }),
        }
    }

    /// The node id this handle reports under.
    #[must_use]
    pub fn node(&self) -> u32 {
        self.inner.node
    }

    /// Register (or retrieve) the counter `component/name`.
    ///
    /// # Panics
    /// Panics if the name is already registered as a different kind.
    #[must_use]
    pub fn counter(&self, component: &'static str, name: &'static str) -> Counter {
        let mut reg = self.inner.registry.lock().unwrap();
        let slot = reg
            .entry((component, name))
            .or_insert_with(|| Instrument::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Instrument::Counter(c) => Counter(Arc::clone(c)),
            _ => panic!("{component}/{name} already registered as a non-counter"),
        }
    }

    /// Register (or retrieve) the gauge `component/name`.
    ///
    /// # Panics
    /// Panics if the name is already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, component: &'static str, name: &'static str) -> Gauge {
        let mut reg = self.inner.registry.lock().unwrap();
        let slot = reg
            .entry((component, name))
            .or_insert_with(|| Instrument::Gauge(Arc::new(AtomicU64::new(0))));
        match slot {
            Instrument::Gauge(g) => Gauge(Arc::clone(g)),
            _ => panic!("{component}/{name} already registered as a non-gauge"),
        }
    }

    /// Register (or retrieve) the histogram `component/name`.
    ///
    /// # Panics
    /// Panics if the name is already registered as a different kind.
    #[must_use]
    pub fn histogram(&self, component: &'static str, name: &'static str) -> Histogram {
        let mut reg = self.inner.registry.lock().unwrap();
        let slot = reg
            .entry((component, name))
            .or_insert_with(|| Instrument::Histogram(Arc::new(HistogramCells::new())));
        match slot {
            Instrument::Histogram(h) => Histogram(Arc::clone(h)),
            _ => panic!("{component}/{name} already registered as a non-histogram"),
        }
    }

    /// Record a structured event at simulation time `t`: one mutex
    /// lock and a ring write. Dropped when the handle is disabled.
    pub fn event(&self, t: f64, severity: Severity, kind: EventKind) {
        if !self.inner.enabled {
            return;
        }
        self.inner.journal.lock().unwrap().record(Event {
            t,
            severity,
            node: self.inner.node,
            kind,
        });
    }

    /// The journal's retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.inner.journal.lock().unwrap().events()
    }

    /// Number of events the bounded ring has overwritten.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.inner.journal.lock().unwrap().dropped()
    }

    /// A point-in-time copy of every registered metric (empty for a
    /// disabled handle).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if !self.inner.enabled {
            return snap;
        }
        let reg = self.inner.registry.lock().unwrap();
        for (&(component, name), instrument) in reg.iter() {
            let value = match instrument {
                Instrument::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                Instrument::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            snap.insert(self.inner.node, component, name, value);
        }
        drop(reg);
        snap.set_events(self.events());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let t = Telemetry::new(7);
        let c = t.counter("comp", "hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = t.gauge("comp", "bytes");
        g.set(1234);
        assert_eq!(g.get(), 1234);
        let snap = t.snapshot();
        assert_eq!(snap.counter(7, "comp", "hits"), Some(5));
        assert_eq!(snap.gauge(7, "comp", "bytes"), Some(1234));
    }

    #[test]
    fn handles_share_cells() {
        let t = Telemetry::new(0);
        let a = t.counter("c", "n");
        let b = t.counter("c", "n");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let t = Telemetry::new(0);
        let _c = t.counter("c", "n");
        let _g = t.gauge("c", "n");
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Underflow bucket: zero only.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        // Each edge 2^k starts bucket k+1; 2^k - 1 still falls in k.
        for k in 1..=62 {
            let edge = 1u64 << k;
            assert_eq!(bucket_index(edge), k + 1, "edge 2^{k}");
            assert_eq!(bucket_index(edge - 1), k, "below edge 2^{k}");
            assert_eq!(bucket_index(edge + 1), k + 1, "above edge 2^{k}");
        }
        // Overflow bucket: the top half of u64 range, capped at 64.
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(3), 7);
    }

    #[test]
    fn histogram_quantiles_from_buckets() {
        let t = Telemetry::new(1);
        let h = t.histogram("comp", "lat");
        for v in [0u64, 1, 2, 3, 100, 1000, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        let snap = t.snapshot();
        let hs = snap.histogram(1, "comp", "lat").unwrap();
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 101_106);
        assert_eq!(hs.max, 100_000);
        // p50 of {0,1,2,3,100,1000,100000}: the 4th value (3) → its
        // bucket's upper bound.
        assert_eq!(hs.quantile(0.5), 3);
        // p99 lands in the last occupied bucket; its estimate is capped
        // by the true max.
        assert!(hs.quantile(0.99) <= hs.max);
        assert!(hs.quantile(0.99) >= 65_536);
    }

    #[test]
    fn disabled_registry_counts_but_exports_nothing() {
        let t = Telemetry::disabled();
        let c = t.counter("comp", "hits");
        c.inc();
        assert_eq!(c.get(), 1, "handles still count for protocol logic");
        assert!(t.snapshot().is_empty());
        t.event(1.0, Severity::Warn, EventKind::SyncSkip { peer: 3 });
        assert!(t.events().is_empty(), "disabled registry adds zero events");
        assert_eq!(t.events_dropped(), 0);
    }
}

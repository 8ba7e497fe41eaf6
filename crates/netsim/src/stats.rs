//! Per-node, per-class, time-bucketed traffic accounting.
//!
//! Figure 9 reports *average per-node routing traffic (incoming and
//! outgoing)*; figure 10 reports the CDF over nodes of the mean and of the
//! worst 1-minute window. Both need bytes classified (probing vs routing
//! vs membership), separated by direction, and bucketed in time — which is
//! exactly the structure here.

/// Traffic classes, matching how the paper splits its bandwidth figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Probes and probe replies.
    Probing,
    /// Link-state and recommendation messages.
    Routing,
    /// Membership service traffic (join/leave/view).
    Membership,
}

impl TrafficClass {
    /// All classes, for iteration.
    pub const ALL: [TrafficClass; 3] = [
        TrafficClass::Probing,
        TrafficClass::Routing,
        TrafficClass::Membership,
    ];

    fn idx(self) -> usize {
        match self {
            TrafficClass::Probing => 0,
            TrafficClass::Routing => 1,
            TrafficClass::Membership => 2,
        }
    }
}

/// Traffic direction relative to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bytes leaving the node.
    Out,
    /// Bytes arriving at the node.
    In,
}

/// Byte counters: time buckets × `n` nodes × 3 classes × 2 directions.
///
/// Bucket-major: each bucket is one row of `n · 3 · 2` counters,
/// allocated when a record first reaches it, so recording is one row
/// lookup and one add.
#[derive(Debug, Clone)]
pub struct TrafficStats {
    n: usize,
    bucket_secs: f64,
    /// `buckets[bucket][series_index(node, class, dir)]`.
    buckets: Vec<Box<[u64]>>,
}

const CLASSES: usize = 3;
const DIRS: usize = 2;

impl TrafficStats {
    /// New accounting over `n` nodes with the given bucket width.
    ///
    /// # Panics
    /// Panics unless `bucket_secs > 0`.
    #[must_use]
    pub fn new(n: usize, bucket_secs: f64) -> Self {
        assert!(bucket_secs > 0.0, "bucket width must be positive");
        TrafficStats {
            n,
            bucket_secs,
            buckets: Vec::new(),
        }
    }

    /// Bucket width in seconds.
    #[must_use]
    pub fn bucket_secs(&self) -> f64 {
        self.bucket_secs
    }

    fn series_index(&self, node: usize, class: TrafficClass, dir: Direction) -> usize {
        let d = match dir {
            Direction::Out => 0,
            Direction::In => 1,
        };
        (node * CLASSES + class.idx()) * DIRS + d
    }

    /// Record `bytes` for `node` at time `t`.
    pub fn record(
        &mut self,
        node: usize,
        class: TrafficClass,
        dir: Direction,
        bytes: usize,
        t: f64,
    ) {
        assert!(node < self.n && t >= 0.0);
        let bucket = (t / self.bucket_secs) as usize;
        while self.buckets.len() <= bucket {
            self.buckets
                .push(vec![0; self.n * CLASSES * DIRS].into_boxed_slice());
        }
        let idx = self.series_index(node, class, dir);
        self.buckets[bucket][idx] += bytes as u64;
    }

    /// Bytes of `node` in the given classes and directions in bucket
    /// `b` (zero beyond the last recorded bucket).
    fn bucket_bytes(
        &self,
        b: usize,
        node: usize,
        classes: &[TrafficClass],
        dirs: &[Direction],
    ) -> u64 {
        let Some(row) = self.buckets.get(b) else {
            return 0;
        };
        let mut total = 0;
        for &c in classes {
            for &d in dirs {
                total += row[self.series_index(node, c, d)];
            }
        }
        total
    }

    /// Total bytes for `node` in the given classes and directions over
    /// `[from_s, to_s)`.
    #[must_use]
    pub fn total_bytes(
        &self,
        node: usize,
        classes: &[TrafficClass],
        dirs: &[Direction],
        from_s: f64,
        to_s: f64,
    ) -> u64 {
        let first = (from_s / self.bucket_secs) as usize;
        let last = (to_s / self.bucket_secs).ceil() as usize;
        (first..last.min(self.buckets.len()))
            .map(|b| self.bucket_bytes(b, node, classes, dirs))
            .sum()
    }

    /// Mean bits/s for `node` (both directions) in the given classes over
    /// `[from_s, to_s)`.
    #[must_use]
    pub fn mean_bps(&self, node: usize, classes: &[TrafficClass], from_s: f64, to_s: f64) -> f64 {
        let bytes = self.total_bytes(
            node,
            classes,
            &[Direction::In, Direction::Out],
            from_s,
            to_s,
        );
        bytes as f64 * 8.0 / (to_s - from_s)
    }

    /// Worst single-bucket bits/s for `node` (both directions, given
    /// classes) over `[from_s, to_s)` — figure 10's "max (any 1-min
    /// window)" when buckets are 60 s wide.
    #[must_use]
    pub fn max_bucket_bps(
        &self,
        node: usize,
        classes: &[TrafficClass],
        from_s: f64,
        to_s: f64,
    ) -> f64 {
        let first = (from_s / self.bucket_secs) as usize;
        let last = (to_s / self.bucket_secs).ceil() as usize;
        let worst = (first..last)
            .map(|b| self.bucket_bytes(b, node, classes, &[Direction::In, Direction::Out]))
            .max()
            .unwrap_or(0);
        worst as f64 * 8.0 / self.bucket_secs
    }

    /// Mean over all nodes of [`mean_bps`](Self::mean_bps).
    #[must_use]
    pub fn fleet_mean_bps(&self, classes: &[TrafficClass], from_s: f64, to_s: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (0..self.n)
            .map(|i| self.mean_bps(i, classes, from_s, to_s))
            .sum::<f64>()
            / self.n as f64
    }

    /// Number of nodes tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when tracking no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut s = TrafficStats::new(2, 60.0);
        s.record(0, TrafficClass::Routing, Direction::Out, 100, 10.0);
        s.record(0, TrafficClass::Routing, Direction::In, 50, 70.0);
        s.record(0, TrafficClass::Probing, Direction::Out, 999, 10.0);
        let routing = s.total_bytes(
            0,
            &[TrafficClass::Routing],
            &[Direction::In, Direction::Out],
            0.0,
            120.0,
        );
        assert_eq!(routing, 150);
        let probing = s.total_bytes(0, &[TrafficClass::Probing], &[Direction::Out], 0.0, 120.0);
        assert_eq!(probing, 999);
        // Node 1 saw nothing.
        assert_eq!(
            s.total_bytes(
                1,
                &TrafficClass::ALL,
                &[Direction::In, Direction::Out],
                0.0,
                120.0
            ),
            0
        );
    }

    #[test]
    fn mean_bps_is_bits_over_window() {
        let mut s = TrafficStats::new(1, 60.0);
        // 750 bytes over a 60 s window = 100 bps.
        s.record(0, TrafficClass::Routing, Direction::Out, 750, 30.0);
        let bps = s.mean_bps(0, &[TrafficClass::Routing], 0.0, 60.0);
        assert!((bps - 100.0).abs() < 1e-9, "bps {bps}");
    }

    #[test]
    fn max_bucket_finds_burst() {
        let mut s = TrafficStats::new(1, 60.0);
        for minute in 0..5 {
            s.record(
                0,
                TrafficClass::Routing,
                Direction::Out,
                100,
                minute as f64 * 60.0 + 1.0,
            );
        }
        // A burst in minute 3.
        s.record(0, TrafficClass::Routing, Direction::In, 10_000, 185.0);
        let max = s.max_bucket_bps(0, &[TrafficClass::Routing], 0.0, 300.0);
        assert!((max - (10_100.0 * 8.0 / 60.0)).abs() < 1e-9);
    }

    #[test]
    fn window_bounds_respected() {
        let mut s = TrafficStats::new(1, 10.0);
        s.record(0, TrafficClass::Routing, Direction::Out, 100, 5.0);
        s.record(0, TrafficClass::Routing, Direction::Out, 100, 25.0);
        // Window [10, 20) excludes both? bucket of t=5 is [0,10), t=25 is [20,30).
        assert_eq!(
            s.total_bytes(0, &[TrafficClass::Routing], &[Direction::Out], 10.0, 20.0),
            0
        );
        assert_eq!(
            s.total_bytes(0, &[TrafficClass::Routing], &[Direction::Out], 0.0, 30.0),
            200
        );
    }

    #[test]
    fn fleet_mean_averages_nodes() {
        let mut s = TrafficStats::new(2, 60.0);
        s.record(0, TrafficClass::Routing, Direction::Out, 750, 0.0);
        // node 1: nothing. Fleet mean = (100 + 0)/2 = 50 bps.
        let bps = s.fleet_mean_bps(&[TrafficClass::Routing], 0.0, 60.0);
        assert!((bps - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_rejected() {
        let _ = TrafficStats::new(1, 0.0);
    }
}

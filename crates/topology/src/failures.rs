//! Link- and node-failure schedules.
//!
//! The deployment experiments (figures 8, 10–14) ran on PlanetLab during a
//! period of "quite serious failures". We substitute a renewal-process
//! failure generator whose per-node concurrent-failure distribution is
//! calibrated to figure 8: the median node averages a handful of concurrent
//! link failures, almost all nodes average < 40, and a small tail of badly
//! connected nodes reaches the 40–120 range (the paper's "poorly connected"
//! case study node averaged 44, max 123).
//!
//! A schedule is generated up front (deterministic in the seed) and then
//! *queried* by the simulator: a packet sent on link `(i, j)` at time `t`
//! is dropped when the link is scheduled down. This mirrors how PlanetLab
//! failures act on the paper's system — probes and routing messages are
//! simply lost, and all detection happens through the overlay's own
//! probing, exactly as in section 5.
//!
//! A schedule holds the faults, not the pairs. Past one bit per link, a
//! scripted schedule costs memory in `n` plus its faults:
//! * a link has an outage list only when it has an outage, in a table
//!   sorted by [`pair_index`], behind one ever-down bit per link that
//!   lets a query on any other link skip the search;
//! * a partition is one [`Partition`] record — its window and the side
//!   each node is on — not one outage per cut link; a link is cut
//!   while the window is open and its endpoints are on different
//!   sides.

use crate::sampling;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Half-open outage interval `[start, end)` in seconds.
pub type Outage = (f64, f64);

/// Parameters for failure-schedule generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureParams {
    /// Number of nodes.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Schedule horizon in seconds (the paper's deployment ran 136 min).
    pub duration_s: f64,
    /// Median (over nodes) of the target mean number of concurrent link
    /// failures per node — figure 8's x-axis.
    pub median_concurrent: f64,
    /// σ of the log-normal spread of per-node failure proneness. Larger
    /// values produce a heavier "badly connected" tail.
    pub concurrent_sigma: f64,
    /// Mean link outage duration, seconds.
    pub mean_outage_s: f64,
    /// Minimum outage duration, seconds (very short blips are probe loss,
    /// not failures, so we floor outages near the detection timescale).
    pub min_outage_s: f64,
    /// Per-link down-fraction cap (a link can't be down more than this
    /// share of the time).
    pub max_down_fraction: f64,
    /// Explicit whole-node outages (crash/restart windows).
    pub node_outages: Vec<NodeOutage>,
    /// Explicit single-link outages, merged into the generated schedule
    /// (targeted failure injection for tests and demos).
    pub link_outages: Vec<LinkOutage>,
    /// Clean network partitions ([`FailureParams::with_partition`]).
    pub partitions: Vec<Partition>,
}

impl Default for FailureParams {
    fn default() -> Self {
        FailureParams {
            n: 140,
            seed: 0xDEFA11,
            duration_s: 136.0 * 60.0,
            median_concurrent: 4.0,
            concurrent_sigma: 1.1,
            mean_outage_s: 120.0,
            min_outage_s: 20.0,
            max_down_fraction: 0.85,
            node_outages: Vec::new(),
            link_outages: Vec::new(),
            partitions: Vec::new(),
        }
    }
}

impl FailureParams {
    /// Default parameters for `n` nodes.
    #[must_use]
    pub fn with_n(n: usize) -> Self {
        FailureParams {
            n,
            ..Default::default()
        }
    }

    /// Same parameters, different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// No background failures over `[0, duration_s)`, only the outages
    /// scripted onto it (`with_crashes`, `with_partition`,
    /// `with_row_blackout`, explicit outage lists). With
    /// `median_concurrent` at 0 no link draws a duty cycle, so the seed
    /// does not matter.
    #[must_use]
    pub fn scripted(n: usize, duration_s: f64) -> Self {
        FailureParams {
            n,
            duration_s,
            median_concurrent: 0.0,
            ..Default::default()
        }
    }

    /// Schedule a clean network partition: every link between a node in
    /// `minority` and a node outside it is down during
    /// `[start_s, end_s)`. Links *within* each side stay up (subject to
    /// the generated background failures), so both sides keep operating
    /// as overlays — the scenario `experiments::partition` measures.
    ///
    /// The cut is recorded as one [`Partition`] in
    /// [`FailureParams::partitions`] — its window and which side each
    /// node is on — not as an outage per cut link, so it costs `n`
    /// bytes however many links it cuts.
    ///
    /// # Panics
    /// Panics on an out-of-range or duplicated minority index, or an
    /// empty window.
    #[must_use]
    pub fn with_partition(mut self, minority: &[usize], start_s: f64, end_s: f64) -> Self {
        assert!(start_s < end_s, "empty partition window");
        let minority = self.mask("minority index", minority);
        self.partitions.push(Partition {
            start_s,
            end_s,
            minority,
        });
        self
    }

    /// Schedule a correlated *row blackout*: every member of `members`
    /// (typically one grid row of the quorum overlay — a shared rack,
    /// AS, or region) goes fully dark during `[start_s, end_s)`. Unlike
    /// [`FailureParams::with_partition`], the members do not keep an
    /// overlay among themselves: each one is a whole-node outage, so
    /// all of its links (including to the other blacked-out members)
    /// are down — the scenario `experiments::detour` recovers from.
    ///
    /// # Panics
    /// Panics on an out-of-range or duplicated member index, or an
    /// empty window.
    #[must_use]
    pub fn with_row_blackout(self, members: &[usize], start_s: f64, end_s: f64) -> Self {
        self.with_node_outages("blackout member", members, start_s, end_s)
    }

    /// Crash every node in `nodes` at `at_s`: each one is a whole-node
    /// outage from `at_s` to the end of the schedule (`duration_s`), so
    /// it never comes back — the churn the `churn` and `scale` studies
    /// inject.
    ///
    /// # Panics
    /// Panics on an out-of-range or duplicated node index, or when
    /// `at_s` is not before `duration_s`.
    #[must_use]
    pub fn with_crashes(self, nodes: &[usize], at_s: f64) -> Self {
        let end_s = self.duration_s;
        self.with_node_outages("crashed node", nodes, at_s, end_s)
    }

    /// One whole-node outage over `[start_s, end_s)` per listed node;
    /// `what` names the nodes in the panic messages.
    fn with_node_outages(mut self, what: &str, nodes: &[usize], start_s: f64, end_s: f64) -> Self {
        assert!(start_s < end_s, "empty {what} window");
        self.mask(what, nodes);
        self.node_outages
            .extend(nodes.iter().map(|&node| NodeOutage {
                node,
                start_s,
                end_s,
            }));
        self
    }

    /// `nodes` as a membership mask over `0..n`.
    ///
    /// # Panics
    /// Panics on an out-of-range or duplicated node, naming it `what`.
    fn mask(&self, what: &str, nodes: &[usize]) -> Vec<bool> {
        let mut mask = vec![false; self.n];
        for &m in nodes {
            assert!(m < self.n, "{what} {m} out of range");
            assert!(!mask[m], "duplicate {what} {m}");
            mask[m] = true;
        }
        mask
    }

    /// A schedule with no failures at all (steady-state experiments).
    #[must_use]
    pub fn none(n: usize, duration_s: f64) -> FailureSchedule {
        FailureSchedule::generate(&Self::scripted(n, duration_s))
    }
}

/// An explicit whole-node outage window.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NodeOutage {
    /// The failing node.
    pub node: usize,
    /// Outage start, seconds.
    pub start_s: f64,
    /// Outage end, seconds.
    pub end_s: f64,
}

/// An explicit single-link outage window (both directions fail).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkOutage {
    /// One endpoint.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Outage start, seconds.
    pub start_s: f64,
    /// Outage end, seconds.
    pub end_s: f64,
}

/// A clean network partition: during `[start_s, end_s)` every link
/// between a node in the minority and a node outside it is down.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    /// Window start, seconds.
    pub start_s: f64,
    /// Window end, seconds.
    pub end_s: f64,
    /// The side each node is on: `minority[i]` when node `i` is cut
    /// off with the minority. One entry per node.
    pub minority: Vec<bool>,
}

impl Partition {
    /// Does this partition cut the link `(i, j)` at time `t`?
    fn cuts(&self, i: usize, j: usize, t: f64) -> bool {
        self.start_s <= t && t < self.end_s && self.minority[i] != self.minority[j]
    }
}

/// A pre-generated, queryable failure schedule.
///
/// It holds the faults, not the pairs: an outage list for each node and
/// for each link that has one, and the partitions as their own records.
/// [`FailureSchedule::is_link_up`] answers for a link from its own list,
/// both endpoints' lists and every partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureSchedule {
    n: usize,
    duration_s: f64,
    /// The outage lists of the links that have one, as
    /// `(pair_index, list)` sorted by pair index.
    link_down: Vec<(usize, Vec<Outage>)>,
    /// Outage lists per node.
    node_down: Vec<Vec<Outage>>,
    /// One bit per unordered pair and per node, set where it has an
    /// outage list: a query on a link or node that is never down skips
    /// the search.
    link_ever_down: Bits,
    node_ever_down: Bits,
    partitions: Vec<Partition>,
}

/// A fixed-length bitset.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Bits(Vec<u64>);

impl Bits {
    /// `len` bits, set at each of `ones`.
    fn ones(len: usize, ones: impl IntoIterator<Item = usize>) -> Bits {
        let mut bits = vec![0u64; len.div_ceil(64)];
        for i in ones {
            bits[i / 64] |= 1 << (i % 64);
        }
        Bits(bits)
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Index of the unordered pair `(i, j)`, `i ≠ j`, in a flat triangular
/// layout.
#[must_use]
pub fn pair_index(n: usize, i: usize, j: usize) -> usize {
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    debug_assert!(b < n);
    // Triangular index: pairs (0,1), (0,2), … (0,n-1), (1,2), …
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

impl FailureSchedule {
    /// Generate a schedule (deterministic in `params.seed`).
    #[must_use]
    pub fn generate(params: &FailureParams) -> FailureSchedule {
        let n = params.n;
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);

        // Per-node failure proneness: log-normal around the median.
        let proneness: Vec<f64> = (0..n)
            .map(|_| {
                sampling::log_normal(
                    &mut rng,
                    params.median_concurrent.ln(),
                    params.concurrent_sigma,
                )
            })
            .collect();

        let pairs = n * n.saturating_sub(1) / 2;
        let mut link_down: Vec<(usize, Vec<Outage>)> = Vec::new();
        if n >= 2 {
            for i in 0..n {
                for j in (i + 1)..n {
                    // Link down-fraction so that Σ_j duty(i,j) ≈ proneness_i.
                    let duty = ((proneness[i] + proneness[j]) / (2.0 * (n - 1) as f64))
                        .min(params.max_down_fraction);
                    if duty <= 0.0 {
                        continue;
                    }
                    let mean_up = params.mean_outage_s * (1.0 - duty) / duty;
                    let outages = Self::renewal_process(
                        &mut rng,
                        params.duration_s,
                        duty,
                        mean_up,
                        params.mean_outage_s,
                        params.min_outage_s,
                    );
                    if !outages.is_empty() {
                        link_down.push((pair_index(n, i, j), outages));
                    }
                }
            }
        }

        // Merge in explicit link outages: one more list per outage, then
        // sort by pair and join the lists of each pair.
        for o in &params.link_outages {
            assert!(
                o.a < n && o.b < n && o.a != o.b,
                "bad link outage endpoints"
            );
            assert!(o.start_s < o.end_s, "empty link outage window");
            link_down.push((pair_index(n, o.a, o.b), vec![(o.start_s, o.end_s)]));
        }
        link_down.sort_by_key(|&(pair, _)| pair);
        link_down.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1.append(&mut later.1);
            }
            same
        });
        let mut node_down = vec![Vec::new(); n];
        for o in &params.node_outages {
            assert!(o.node < n, "node outage index {} out of range", o.node);
            assert!(o.start_s < o.end_s, "empty node outage window");
            node_down[o.node].push((o.start_s, o.end_s));
        }
        for list in link_down
            .iter_mut()
            .map(|(_, list)| list)
            .chain(&mut node_down)
        {
            coalesce(list);
        }
        for p in &params.partitions {
            assert_eq!(p.minority.len(), n, "partition sides must cover every node");
            assert!(p.start_s < p.end_s, "empty partition window");
        }

        FailureSchedule {
            n,
            duration_s: params.duration_s,
            link_ever_down: Bits::ones(pairs, link_down.iter().map(|&(pair, _)| pair)),
            node_ever_down: Bits::ones(n, (0..n).filter(|&i| !node_down[i].is_empty())),
            link_down,
            node_down,
            partitions: params.partitions.clone(),
        }
    }

    /// Alternating up/down renewal process over `[0, duration)`.
    fn renewal_process(
        rng: &mut ChaCha8Rng,
        duration: f64,
        duty: f64,
        mean_up: f64,
        mean_down: f64,
        min_down: f64,
    ) -> Vec<Outage> {
        let mut outages = Vec::new();
        // Start down with stationary probability `duty`.
        let mut t = 0.0;
        let mut down = rng.gen::<f64>() < duty;
        while t < duration {
            if down {
                let d = sampling::exponential(rng, mean_down).max(min_down);
                let end = (t + d).min(duration);
                outages.push((t, end));
                t = end;
            } else {
                t += sampling::exponential(rng, mean_up);
            }
            down = !down;
        }
        outages
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the schedule covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Schedule horizon in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Is node `i` up at time `t`?
    #[must_use]
    pub fn is_node_up(&self, i: usize, t: f64) -> bool {
        !(self.node_ever_down.get(i) && covered(&self.node_down[i], t))
    }

    /// Is the link `(i, j)` usable at time `t`? False when the link itself
    /// is scheduled down, either endpoint is down, or a partition cuts
    /// it.
    #[must_use]
    pub fn is_link_up(&self, i: usize, j: usize, t: f64) -> bool {
        if i == j {
            return self.is_node_up(i, t);
        }
        let pair = pair_index(self.n, i, j);
        self.is_node_up(i, t)
            && self.is_node_up(j, t)
            && !(self.link_ever_down.get(pair) && covered(self.link_list(pair), t))
            && !self.partitions.iter().any(|p| p.cuts(i, j, t))
    }

    /// The link's own outage list (partitions not included), by pair
    /// index; empty for a link that is never down by itself.
    fn link_list(&self, pair: usize) -> &[Outage] {
        self.link_down
            .binary_search_by_key(&pair, |&(p, _)| p)
            .map_or(&[], |k| &self.link_down[k].1)
    }

    /// Number of concurrent link failures observed by node `i` at `t`:
    /// destinations unreachable via the direct link (figure 8's metric).
    #[must_use]
    pub fn concurrent_failures(&self, i: usize, t: f64) -> usize {
        (0..self.n)
            .filter(|&j| j != i)
            .filter(|&j| !self.is_link_up(i, j, t))
            .count()
    }

    /// Mean (over `samples` evenly spaced instants) of
    /// [`concurrent_failures`](Self::concurrent_failures) for node `i`.
    #[must_use]
    pub fn mean_concurrent_failures(&self, i: usize, samples: usize) -> f64 {
        assert!(samples > 0);
        let step = self.duration_s / samples as f64;
        let total: usize = (0..samples)
            .map(|s| self.concurrent_failures(i, (s as f64 + 0.5) * step))
            .sum();
        total as f64 / samples as f64
    }
}

/// Sort `list` by start and merge overlapping or touching intervals,
/// so [`covered`] needs to look only at the last interval that starts at
/// or before the query.
fn coalesce(list: &mut Vec<Outage>) {
    list.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
    let mut merged: Vec<Outage> = Vec::with_capacity(list.len());
    for &(s, e) in list.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    *list = merged;
}

/// Is `t` inside any of the sorted, disjoint intervals?
fn covered(intervals: &[Outage], t: f64) -> bool {
    // Binary search for the last interval starting at or before t.
    let idx = intervals.partition_point(|&(s, _)| s <= t);
    idx > 0 && t < intervals[idx - 1].1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The own outage list of link `(i, j)`.
    fn outages(s: &FailureSchedule, i: usize, j: usize) -> &[Outage] {
        s.link_list(pair_index(s.n, i, j))
    }

    #[test]
    fn pair_index_bijective() {
        let n = 17;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let idx = pair_index(n, i, j);
                assert_eq!(idx, pair_index(n, j, i), "symmetric");
                assert!(seen.insert(idx), "collision at ({i},{j})");
                assert!(idx < n * (n - 1) / 2);
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn deterministic_generation() {
        let p = FailureParams::with_n(30);
        let a = FailureSchedule::generate(&p);
        let b = FailureSchedule::generate(&p);
        for i in 0..30 {
            for j in (i + 1)..30 {
                assert_eq!(outages(&a, i, j), outages(&b, i, j));
            }
        }
    }

    #[test]
    fn outages_sorted_disjoint_within_horizon() {
        let s = FailureSchedule::generate(&FailureParams::with_n(40));
        for i in 0..40 {
            for j in (i + 1)..40 {
                let os = outages(&s, i, j);
                for w in os.windows(2) {
                    assert!(w[0].1 <= w[1].0, "overlap {w:?}");
                }
                for &(a, b) in os {
                    assert!(a < b, "empty outage");
                    assert!(b <= s.duration_s() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn covered_queries() {
        let intervals = vec![(10.0, 20.0), (30.0, 40.0)];
        assert!(!covered(&intervals, 5.0));
        assert!(covered(&intervals, 10.0));
        assert!(covered(&intervals, 15.0));
        assert!(!covered(&intervals, 20.0));
        assert!(covered(&intervals, 39.9));
        assert!(!covered(&intervals, 45.0));
    }

    #[test]
    fn node_outage_blocks_all_links() {
        let mut p = FailureParams::scripted(5, 1000.0);
        p.node_outages = vec![NodeOutage {
            node: 2,
            start_s: 100.0,
            end_s: 200.0,
        }];
        let s = FailureSchedule::generate(&p);
        assert!(s.is_node_up(2, 50.0));
        assert!(!s.is_node_up(2, 150.0));
        for j in [0usize, 1, 3, 4] {
            assert!(!s.is_link_up(2, j, 150.0));
            assert!(!s.is_link_up(j, 2, 150.0));
        }
        assert!(s.concurrent_failures(0, 150.0) >= 1);
    }

    /// The ever-down bits only skip searches that would find nothing,
    /// and a partition record cuts exactly the links it used to expand
    /// into: every query equals the interval search over a schedule
    /// whose partitions are spelled out as one outage per cut link.
    #[test]
    fn up_queries_match_the_interval_search() {
        let n = 70; // more than one bitset word
        let mut p = FailureParams::with_n(n);
        p.median_concurrent = 0.5;
        p.node_outages = vec![NodeOutage {
            node: 66,
            start_s: 100.0,
            end_s: 200.0,
        }];
        p.link_outages = vec![LinkOutage {
            a: 65,
            b: 3,
            start_s: 300.0,
            end_s: 400.0,
        }];
        // The first cut overlaps the explicit outage of (3, 65), a cut
        // link; the second opens inside the first's window, on other
        // sides.
        let p = p
            .with_partition(&(60..70).collect::<Vec<_>>(), 350.0, 700.0)
            .with_partition(&[0, 1, 2, 30, 64, 65], 500.0, 1200.0);
        let mut spelled = p.clone();
        for cut in std::mem::take(&mut spelled.partitions) {
            for a in (0..n).filter(|&a| cut.minority[a]) {
                for b in (0..n).filter(|&b| !cut.minority[b]) {
                    spelled.link_outages.push(LinkOutage {
                        a,
                        b,
                        start_s: cut.start_s,
                        end_s: cut.end_s,
                    });
                }
            }
        }
        let s = FailureSchedule::generate(&p);
        let r = FailureSchedule::generate(&spelled);
        let links = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        let down = links.filter(|&(i, j)| !outages(&s, i, j).is_empty());
        assert!((1..n * (n - 1) / 2).contains(&down.count()));
        let node_up = |i: usize, t: f64| !covered(&r.node_down[i], t);
        let instants = (0..200).map(|k| k as f64 * p.duration_s / 200.0 + 0.5);
        let edges = [350.0, 400.0, 500.0, 699.9, 700.0, 1199.9, 1200.0];
        for t in instants.chain(edges) {
            for i in 0..n {
                assert_eq!(s.is_node_up(i, t), node_up(i, t), "node {i} at {t}");
                for j in 0..n {
                    let want = node_up(i, t)
                        && node_up(j, t)
                        && (i == j || !covered(outages(&r, i, j), t));
                    assert_eq!(s.is_link_up(i, j, t), want, "link ({i},{j}) at {t}");
                }
            }
        }
        assert!(!s.is_node_up(66, 150.0) && !s.is_link_up(3, 65, 350.0));
        assert!(!s.is_link_up(3, 65, 650.0) && !s.is_link_up(30, 31, 1000.0));
    }

    #[test]
    fn row_blackout_darkens_every_member_link() {
        let p = FailureParams::scripted(9, 1000.0).with_row_blackout(&[3, 4, 5], 100.0, 200.0);
        let s = FailureSchedule::generate(&p);
        for &m in &[3usize, 4, 5] {
            assert!(s.is_node_up(m, 50.0), "node {m} up before the window");
            assert!(!s.is_node_up(m, 150.0), "node {m} dark in the window");
            assert!(s.is_node_up(m, 250.0), "node {m} back after the window");
        }
        // Unlike a partition, blacked-out members cannot even reach each
        // other: the row keeps no overlay of its own.
        assert!(!s.is_link_up(3, 4, 150.0));
        assert!(!s.is_link_up(4, 5, 150.0));
        // Links to the rest of the overlay are down too.
        assert!(!s.is_link_up(0, 3, 150.0));
        assert!(!s.is_link_up(5, 8, 150.0));
        // Survivors keep their links.
        assert!(s.is_link_up(0, 1, 150.0));
    }

    #[test]
    #[should_panic(expected = "duplicate blackout member")]
    fn row_blackout_rejects_duplicates() {
        let _ = FailureParams::with_n(9).with_row_blackout(&[3, 3], 100.0, 200.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_blackout_rejects_out_of_range() {
        let _ = FailureParams::with_n(9).with_row_blackout(&[9], 100.0, 200.0);
    }

    #[test]
    fn crashes_last_to_the_end_of_the_schedule() {
        let s = FailureSchedule::generate(
            &FailureParams::scripted(6, 500.0).with_crashes(&[4, 1], 120.0),
        );
        for node in [1, 4] {
            assert_eq!(s.node_down[node], [(120.0, 500.0)], "node {node}");
        }
        for node in [0, 2, 3, 5] {
            assert!(s.node_down[node].is_empty(), "node {node} never crashes");
        }
        assert!(s.is_node_up(4, 119.9) && !s.is_node_up(4, 120.0) && !s.is_node_up(4, 499.9));
    }

    #[test]
    #[should_panic(expected = "duplicate crashed node")]
    fn crashes_reject_duplicates() {
        let _ = FailureParams::scripted(9, 500.0).with_crashes(&[3, 3], 100.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crashes_reject_out_of_range() {
        let _ = FailureParams::scripted(9, 500.0).with_crashes(&[9], 100.0);
    }

    /// Scripting turns the background generator off: no link and no
    /// node is ever down, whatever the seed.
    #[test]
    fn scripted_schedule_has_no_background_failures() {
        for seed in [1, 0xFA11] {
            let s = FailureSchedule::generate(&FailureParams::scripted(30, 8000.0).with_seed(seed));
            for i in 0..30 {
                assert!(s.node_down[i].is_empty(), "seed {seed}: node {i}");
                for j in (i + 1)..30 {
                    assert!(outages(&s, i, j).is_empty(), "seed {seed}: link ({i},{j})");
                }
            }
        }
    }

    /// Two outages of one node that overlap merge into one: a short
    /// outage inside a long one must not end the long one early.
    #[test]
    fn overlapping_node_outages_keep_the_node_down() {
        let mut p = FailureParams::scripted(4, 2000.0);
        p.node_outages = vec![
            NodeOutage {
                node: 2,
                start_s: 100.0,
                end_s: 1000.0,
            },
            NodeOutage {
                node: 2,
                start_s: 200.0,
                end_s: 300.0,
            },
        ];
        let s = FailureSchedule::generate(&p);
        assert_eq!(s.node_down[2], [(100.0, 1000.0)]);
        for t in [100.0, 250.0, 500.0, 900.0, 999.9] {
            assert!(!s.is_node_up(2, t), "node 2 up at {t}");
            assert!(!s.is_link_up(0, 2, t), "link (0,2) up at {t}");
        }
        assert!(s.is_node_up(2, 99.9) && s.is_node_up(2, 1000.0));
    }

    /// Figure 8 calibration: per-node mean concurrent failures must have a
    /// low median, almost all nodes below 40, and a heavy tail.
    #[test]
    fn figure_8_calibration() {
        let s = FailureSchedule::generate(&FailureParams::default());
        let n = s.len();
        let mut means: Vec<f64> = (0..n).map(|i| s.mean_concurrent_failures(i, 60)).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = means[n / 2];
        assert!(
            (1.0..20.0).contains(&median),
            "median concurrent failures {median}"
        );
        let below_40 = means.iter().filter(|&&m| m < 40.0).count() as f64 / n as f64;
        assert!(below_40 > 0.90, "only {below_40} of nodes below 40");
        // A genuine tail exists: the worst node sees many concurrent failures.
        assert!(
            *means.last().unwrap() > 15.0,
            "no badly-connected tail: max {}",
            means.last().unwrap()
        );
    }

    #[test]
    fn none_schedule_has_no_failures() {
        let s = FailureParams::none(10, 1000.0);
        for t in [0.0, 500.0, 999.0] {
            for i in 0..10 {
                assert!(s.is_node_up(i, t));
                assert_eq!(s.concurrent_failures(i, t), 0);
            }
        }
    }

    #[test]
    fn duty_cycle_roughly_matches_proneness() {
        // For a node with proneness m, the expected concurrent failures
        // should be within a factor ~2 of m (stochastic, so loose bounds).
        let mut p = FailureParams::with_n(60);
        p.concurrent_sigma = 0.0; // all nodes identical
        p.median_concurrent = 6.0;
        p.seed = 99;
        let s = FailureSchedule::generate(&p);
        let mean: f64 = (0..60)
            .map(|i| s.mean_concurrent_failures(i, 50))
            .sum::<f64>()
            / 60.0;
        assert!(
            (2.0..12.0).contains(&mean),
            "mean concurrent failures {mean}, target 6"
        );
    }

    #[test]
    fn link_outage_injection_and_merging() {
        let mut p = FailureParams::scripted(6, FailureParams::default().duration_s);
        p.link_outages = vec![
            LinkOutage {
                a: 0,
                b: 5,
                start_s: 100.0,
                end_s: 200.0,
            },
            LinkOutage {
                a: 5,
                b: 0,
                start_s: 150.0,
                end_s: 250.0,
            }, // overlaps, reversed
            LinkOutage {
                a: 1,
                b: 2,
                start_s: 10.0,
                end_s: 20.0,
            },
        ];
        let s = FailureSchedule::generate(&p);
        // Merged into one interval [100, 250).
        assert_eq!(outages(&s, 0, 5), &[(100.0, 250.0)]);
        assert!(s.is_link_up(0, 5, 99.0));
        assert!(!s.is_link_up(0, 5, 175.0));
        assert!(!s.is_link_up(5, 0, 225.0));
        assert!(s.is_link_up(0, 5, 250.0));
        // Other links untouched.
        assert!(s.is_link_up(0, 1, 175.0));
        assert!(!s.is_link_up(1, 2, 15.0));
        // Node-level queries unaffected.
        assert!(s.is_node_up(0, 175.0));
    }

    #[test]
    fn partition_cuts_exactly_the_cross_links() {
        let p = FailureParams::scripted(6, 1000.0).with_partition(&[4, 5], 100.0, 200.0);
        let s = FailureSchedule::generate(&p);
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let crosses = (i >= 4) != (j >= 4);
                assert_eq!(
                    !s.is_link_up(i, j, 150.0),
                    crosses,
                    "link ({i},{j}) wrong during partition"
                );
                assert!(s.is_link_up(i, j, 50.0), "({i},{j}) down before");
                assert!(s.is_link_up(i, j, 250.0), "({i},{j}) down after heal");
            }
        }
        // Nodes themselves stay up throughout.
        for i in 0..6 {
            assert!(s.is_node_up(i, 150.0));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_bad_index() {
        let _ = FailureParams::with_n(3).with_partition(&[7], 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "bad link outage")]
    fn link_outage_self_loop_rejected() {
        let mut p = FailureParams::with_n(3);
        p.link_outages = vec![LinkOutage {
            a: 1,
            b: 1,
            start_s: 0.0,
            end_s: 1.0,
        }];
        let _ = FailureSchedule::generate(&p);
    }

    #[test]
    fn single_node_schedule() {
        let s = FailureSchedule::generate(&FailureParams::with_n(1));
        assert!(s.is_node_up(0, 10.0));
        assert_eq!(s.concurrent_failures(0, 10.0), 0);
    }
}

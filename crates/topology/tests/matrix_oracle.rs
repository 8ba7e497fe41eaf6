//! The latency matrix against the layout it replaces.
//!
//! `LatencyMatrix` keeps one record per unordered pair and a table of
//! the directions set apart from their reverse. The reference here is
//! the plain layout: two row-major `n²` arrays of `f64`, every setter a
//! write or two into them. Seeded random sequences of the five setters
//! — symmetric and directed, on distinct pairs and on a node's link to
//! itself, with values drawn from a small pool so directions keep
//! parting and meeting again — must leave both reading the same, bit
//! for bit, through every accessor, `pairs`, the CSV round trip, the
//! one-hop optimum and Floyd–Warshall. So must `from_csv` of a file of
//! lines in random order that repeats directions.

use apor_topology::{LatencyMatrix, Link};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

/// The dense layout, as the matrix used to be stored.
struct Dense {
    n: usize,
    rtt_ms: Vec<f64>,
    loss: Vec<f64>,
}

impl Dense {
    fn new(n: usize, rtt_ms: f64) -> Self {
        let mut rtt = vec![rtt_ms; n * n];
        for i in 0..n {
            rtt[i * n + i] = 0.0;
        }
        Dense {
            n,
            rtt_ms: rtt,
            loss: vec![0.0; n * n],
        }
    }

    fn rtt(&self, i: usize, j: usize) -> f64 {
        self.rtt_ms[i * self.n + j]
    }

    fn loss(&self, i: usize, j: usize) -> f64 {
        self.loss[i * self.n + j]
    }

    fn best_one_hop(&self, i: usize, j: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for k in (0..self.n).filter(|&k| k != i && k != j) {
            let total = self.rtt(i, k) + self.rtt(k, j);
            if total.is_finite() && best.is_none_or(|(_, b)| total < b) {
                best = Some((k, total));
            }
        }
        best
    }

    fn all_pairs_shortest(&self) -> Vec<f64> {
        let n = self.n;
        let mut d = self.rtt_ms.clone();
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                if !dik.is_finite() {
                    continue;
                }
                for j in 0..n {
                    let via = dik + d[k * n + j];
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        d
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("src,dst,rtt_ms,loss\n");
        for i in 0..self.n {
            for j in (0..self.n).filter(|&j| j != i && self.rtt(i, j).is_finite()) {
                let _ = writeln!(out, "{i},{j},{},{}", self.rtt(i, j), self.loss(i, j));
            }
        }
        out
    }
}

/// RTTs that collide often, with both zeros and an unreachable one.
const RTTS: [f64; 7] = [0.0, -0.0, 1.5, 40.0, 40.0, 250.25, f64::INFINITY];
/// Loss probabilities that collide often.
const LOSSES: [f64; 5] = [0.0, 0.0, 0.125, 0.5, 1.0];

/// Every accessor of `m` reads what `d` holds, bit for bit.
fn assert_agree(m: &LatencyMatrix, d: &Dense, case: &str) {
    let n = d.n;
    assert_eq!(m.len(), n, "{case}");
    for i in 0..n {
        for j in 0..n {
            let at = format!("{case}: ({i}, {j})");
            assert_eq!(m.rtt(i, j).to_bits(), d.rtt(i, j).to_bits(), "{at} rtt");
            assert_eq!(m.loss(i, j).to_bits(), d.loss(i, j).to_bits(), "{at} loss");
            let link = m.link(i, j);
            assert_eq!(link.rtt_ms.to_bits(), d.rtt(i, j).to_bits(), "{at} link");
            assert_eq!(link.loss.to_bits(), d.loss(i, j).to_bits(), "{at} link");
            assert_eq!(
                m.one_way(i, j).to_bits(),
                (d.rtt(i, j) / 2.0).to_bits(),
                "{at}"
            );
            assert_eq!(m.reachable(i, j), d.rtt(i, j).is_finite(), "{at}");
            let want = d.best_one_hop(i, j);
            let got = m.best_one_hop(i, j);
            assert_eq!(
                got.map(|(k, c)| (k, c.to_bits())),
                want.map(|(k, c)| (k, c.to_bits())),
                "{at} best one hop"
            );
            let direct = d.rtt(i, j);
            let with_one_hop = want.map_or(direct, |(_, c)| direct.min(c));
            assert_eq!(
                m.best_path_with_one_hop(i, j).to_bits(),
                with_one_hop.to_bits(),
                "{at}"
            );
        }
    }
    let pairs: Vec<(usize, usize, u64)> = m.pairs().map(|(i, j, r)| (i, j, r.to_bits())).collect();
    let want: Vec<(usize, usize, u64)> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, d.rtt(i, j).to_bits()))
        .collect();
    assert_eq!(pairs, want, "{case}: pairs");
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(m.all_pairs_shortest()),
        bits(d.all_pairs_shortest()),
        "{case}: all pairs shortest"
    );
    let csv = m.to_csv();
    assert_eq!(csv, d.to_csv(), "{case}: csv");
    let back = LatencyMatrix::from_csv(&csv).expect("own csv parses");
    let back_n = back.len();
    for i in 0..back_n {
        for j in (0..back_n).filter(|&j| j != i) {
            let listed = d.rtt(i, j).is_finite();
            let (rtt, loss) = if listed {
                (d.rtt(i, j), d.loss(i, j))
            } else {
                (f64::INFINITY, 0.0)
            };
            assert_eq!(
                back.rtt(i, j).to_bits(),
                rtt.to_bits(),
                "{case}: csv ({i}, {j})"
            );
            assert_eq!(
                back.loss(i, j).to_bits(),
                loss.to_bits(),
                "{case}: csv ({i}, {j})"
            );
        }
    }
}

#[test]
fn setter_sequences_read_as_the_dense_layout_does() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4d41_5452);
    for case in 0..300 {
        let n = rng.gen_range(1..10);
        let start = RTTS[rng.gen_range(0..RTTS.len())];
        let (mut m, mut d) = if start.is_finite() {
            (LatencyMatrix::uniform(n, start), Dense::new(n, start))
        } else {
            (LatencyMatrix::unreachable(n), Dense::new(n, start))
        };
        let steps = rng.gen_range(0..4 * n * n);
        for step in 0..steps {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let (ij, ji) = (i * n + j, j * n + i);
            let rtt = RTTS[rng.gen_range(0..RTTS.len())];
            let loss = LOSSES[rng.gen_range(0..LOSSES.len())];
            match rng.gen_range(0..5) {
                0 => {
                    m.set_rtt(i, j, rtt);
                    (d.rtt_ms[ij], d.rtt_ms[ji]) = (rtt, rtt);
                }
                1 => {
                    m.set_rtt_directed(i, j, rtt);
                    d.rtt_ms[ij] = rtt;
                }
                2 => {
                    m.set_loss(i, j, loss);
                    (d.loss[ij], d.loss[ji]) = (loss, loss);
                }
                3 => {
                    m.set_link(i, j, Link { rtt_ms: rtt, loss });
                    (d.rtt_ms[ij], d.rtt_ms[ji]) = (rtt, rtt);
                    (d.loss[ij], d.loss[ji]) = (loss, loss);
                }
                _ => {
                    m.set_loss_directed(i, j, loss);
                    d.loss[ij] = loss;
                }
            }
            if step % 7 == 0 {
                assert_agree(&m, &d, &format!("case {case} step {step}"));
            }
        }
        assert_agree(&m, &d, &format!("case {case} end"));
    }
}

#[test]
fn a_shuffled_csv_with_repeats_reads_as_the_dense_layout_does() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0043_5356);
    for case in 0..200 {
        let n = rng.gen_range(2..9);
        let mut d = Dense::new(n, f64::INFINITY);
        let mut csv = String::from("src,dst,rtt_ms,loss\n");
        let mut biggest = 0;
        for _ in 0..rng.gen_range(1..3 * n * n) {
            let i = rng.gen_range(0..n);
            let j = (i + rng.gen_range(1..n)) % n;
            // Often the reverse of a line already written, and often
            // the same values, so pairs go symmetric and back.
            let rtt = RTTS[rng.gen_range(0..RTTS.len() - 1)];
            let loss = LOSSES[rng.gen_range(0..LOSSES.len())];
            let _ = writeln!(csv, "{i},{j},{rtt},{loss}");
            d.rtt_ms[i * n + j] = rtt;
            d.loss[i * n + j] = loss;
            biggest = biggest.max(i).max(j);
        }
        let m = LatencyMatrix::from_csv(&csv).expect("a well-formed csv");
        // The file names nodes up to `biggest`; the reference drops the
        // rest, which no line mentions.
        let k = biggest + 1;
        let mut named = Dense::new(k, f64::INFINITY);
        for i in 0..k {
            for j in 0..k {
                named.rtt_ms[i * k + j] = d.rtt(i, j);
                named.loss[i * k + j] = d.loss(i, j);
            }
        }
        assert_agree(&m, &named, &format!("csv case {case}"));
    }
}

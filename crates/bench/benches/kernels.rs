//! Computational-kernel benchmarks: the hot paths a deployment exercises
//! every routing interval.

use apor_bench::{bench_topology, full_table, ground_truth_row};
use apor_linkstate::{LinkEntry, LinkStateMsg, LinkStateStore, LinkStateTable, Message};
use apor_quorum::{Grid, NodeId};
use apor_routing::multihop::multihop_routes;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// The perf-trajectory calibration workload: a fixed pure-integer spin
/// whose speed tracks the machine, never the code under test. The
/// regression gate divides every kernel median by this benchmark's
/// ratio so a slower CI runner does not read as a kernel regression
/// (see `apor_telemetry::regress::CALIBRATION_ID`).
fn bench_calibration(c: &mut Criterion) {
    c.bench_function("calibration/spin", |b| {
        b.iter(|| {
            let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
            for _ in 0..4096 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        });
    });
}

/// Grid construction + full rendezvous-set derivation, as performed on
/// every membership change.
fn bench_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid");
    for n in [100usize, 400, 1600, 10_000] {
        g.bench_with_input(BenchmarkId::new("build_and_derive", n), &n, |b, &n| {
            b.iter(|| {
                let grid = Grid::new(black_box(n));
                let mut total = 0usize;
                for i in 0..n {
                    total += grid.rendezvous_servers(i).len();
                }
                total
            });
        });
    }
    g.finish();
}

/// The round-two kernel: best one-hop for one client pair over n
/// candidate relays — executed ~4n times per node per routing interval.
fn bench_best_one_hop(c: &mut Criterion) {
    let mut g = c.benchmark_group("best_one_hop");
    for n in [100usize, 200, 400] {
        let topo = bench_topology(n);
        let table = full_table(&topo);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("pair", n), &n, |b, &n| {
            b.iter(|| table.best_one_hop(black_box(1), black_box(n - 1), 0.0, 45.0));
        });
    }
    g.finish();
}

/// A rendezvous node's full round-two duty: recommendations for every
/// pair among 2√n clients.
fn bench_round_two(c: &mut Criterion) {
    let mut g = c.benchmark_group("round_two_full");
    for n in [100usize, 196, 400] {
        let topo = bench_topology(n);
        let table = full_table(&topo);
        let grid = Grid::new(n);
        let clients = grid.rendezvous_clients(0);
        g.bench_with_input(BenchmarkId::new("server_tick", n), &n, |b, _| {
            b.iter(|| {
                let mut count = 0usize;
                for &a in &clients {
                    for &d in &clients {
                        if a != d && table.best_one_hop(a, d, 0.0, 45.0).is_some() {
                            count += 1;
                        }
                    }
                }
                black_box(count)
            });
        });
    }
    g.finish();
}

/// Wire codec throughput for the dominant message type (link state).
fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    for n in [140usize, 400, 1000] {
        let msg = Message::LinkState(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 1,
            round: 9,
            basis_ms: 12345,
            entries: (0..n)
                .map(|i| LinkEntry::live((i % 500) as u16, 0.01))
                .collect(),
            seqno: 0,
            retractions: vec![],
        });
        g.throughput(Throughput::Bytes(msg.wire_size() as u64));
        g.bench_with_input(BenchmarkId::new("encode", n), &msg, |b, msg| {
            b.iter(|| black_box(msg.encode()));
        });
        let bytes = msg.encode();
        g.bench_with_input(BenchmarkId::new("decode", n), &bytes, |b, bytes| {
            b.iter(|| Message::decode(black_box(bytes)).unwrap());
        });
    }
    g.finish();
}

/// One multi-hop iteration (the all-pairs splice) — the cost of the
/// section 3 extension per doubling of path length.
fn bench_multihop(c: &mut Criterion) {
    let mut g = c.benchmark_group("multihop");
    g.sample_size(10);
    for n in [50usize, 100, 200] {
        let topo = bench_topology(n);
        g.bench_with_input(BenchmarkId::new("two_hop_iteration", n), &n, |b, _| {
            b.iter(|| multihop_routes(black_box(&topo.latency), 2));
        });
    }
    g.finish();
}

/// Reference all-pairs shortest paths (Floyd–Warshall) for comparison
/// with the protocol's distributed computation.
fn bench_floyd_warshall(c: &mut Criterion) {
    let mut g = c.benchmark_group("floyd_warshall");
    g.sample_size(10);
    for n in [100usize, 200] {
        let topo = bench_topology(n);
        g.bench_with_input(BenchmarkId::new("apsp", n), &n, |b, _| {
            b.iter(|| black_box(topo.latency.all_pairs_shortest()));
        });
    }
    g.finish();
}

/// Dense table vs sparse row store on a quorum node's actual working
/// set: its own row plus its `2√n` rendezvous clients' rows. Three
/// kernels: the row merge (one client's link-state message lands), the
/// pair best-hop, and the full round-two server tick. The sparse store
/// pays an `O(log √n)` map walk per row access but allocates `O(n√n)`
/// instead of `O(n²)` — at n = 1024 the dense arm is the only one that
/// still touches a 24 MB table.
fn bench_dense_vs_sparse(c: &mut Criterion) {
    use apor_linkstate::RowStore;

    let mut g = c.benchmark_group("dense_vs_sparse");
    for n in [100usize, 400, 1024] {
        let topo = bench_topology(n);
        let grid = Grid::new(n);
        let me = 0usize;
        let mut held = grid.rendezvous_clients(me);
        held.push(me);
        held.sort_unstable();
        let rows: Vec<(usize, Vec<LinkEntry>)> = held
            .iter()
            .map(|&i| (i, ground_truth_row(&topo, i)))
            .collect();
        let mut dense = LinkStateTable::new(n);
        let mut sparse = RowStore::new(n);
        for (i, row) in &rows {
            dense.update_row(*i, row, 0.0);
            sparse.update_row(*i, row, 0.0);
        }
        let (merge_origin, merge_row) = rows[rows.len() / 2].clone();
        g.bench_with_input(BenchmarkId::new("merge_dense", n), &n, |b, _| {
            b.iter(|| dense.update_row(black_box(merge_origin), black_box(&merge_row), 1.0));
        });
        g.bench_with_input(BenchmarkId::new("merge_sparse", n), &n, |b, _| {
            b.iter(|| sparse.update_row(black_box(merge_origin), black_box(&merge_row), 1.0));
        });
        let (a, bb) = (held[0], held[held.len() - 1]);
        g.bench_with_input(BenchmarkId::new("best_hop_dense", n), &n, |b, _| {
            b.iter(|| dense.best_one_hop(black_box(a), black_box(bb), 1.0, 45.0));
        });
        g.bench_with_input(BenchmarkId::new("best_hop_sparse", n), &n, |b, _| {
            b.iter(|| sparse.best_one_hop(black_box(a), black_box(bb), 1.0, 45.0));
        });
        let round_two = |store: &dyn Fn(usize, usize) -> Option<(usize, f64)>| {
            let mut count = 0usize;
            for &x in &held {
                for &y in &held {
                    if x != y && store(x, y).is_some() {
                        count += 1;
                    }
                }
            }
            count
        };
        g.bench_with_input(BenchmarkId::new("round_two_dense", n), &n, |b, _| {
            b.iter(|| black_box(round_two(&|x, y| dense.best_one_hop(x, y, 1.0, 45.0))));
        });
        g.bench_with_input(BenchmarkId::new("round_two_sparse", n), &n, |b, _| {
            b.iter(|| black_box(round_two(&|x, y| sparse.best_one_hop(x, y, 1.0, 45.0))));
        });
    }
    g.finish();
}

/// The full round-two server tick as the router actually runs it — not
/// just the inner kernel. A warm quorum server at n = 1024 holds its
/// own row plus all `~2√n` rendezvous clients' rows, and
/// `on_routing_tick` performs failover management, round-one link-state
/// fan-out and the full recommendation computation for every fresh
/// client pair. Two row shapes, because they take different kernel
/// paths:
///
/// * `server_tick` — ground-truth rows, every entry live: all rows
///   share one destination lane, so every pair runs the elementwise
///   reduction over 1024-entry lanes (full-mesh probing);
/// * `server_tick_entitled` — rows as entitled probing leaves them: a
///   node measures only its `~2√n` rendezvous servers plus a 16-peer
///   sample, so each row holds `~2√n + 16` live entries and no two
///   rows list the same destinations — every pair runs the
///   scatter-gather. This is the shape the scale studies run.
fn bench_round_two_tick(c: &mut Criterion) {
    use apor_linkstate::LinkStateMsg;
    use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let mut g = c.benchmark_group("round_two_tick");
    g.sample_size(10);
    for n in [1024usize] {
        let topo = bench_topology(n);
        let grid = Grid::new(n);
        let me = 0usize;
        let mut sample_rng = ChaCha8Rng::seed_from_u64(0xE171);
        for (name, entitled) in [("server_tick", false), ("server_tick_entitled", true)] {
            let mut row_of = |i: usize| -> Vec<LinkEntry> {
                let truth = ground_truth_row(&topo, i);
                if !entitled {
                    return truth;
                }
                let mut probed = grid.rendezvous_servers(i);
                let others: Vec<usize> = (0..n).filter(|&d| d != i).collect();
                probed.extend(others.choose_multiple(&mut sample_rng, 16));
                let mut row = vec![LinkEntry::dead(); n];
                for d in probed {
                    row[d] = truth[d];
                }
                row
            };
            let own = row_of(me);
            let mut router: QuorumRouter = QuorumRouter::new(me, n, 1, ProtocolConfig::quorum());
            let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
            let _ = router.on_routing_tick(0.0, &own, &mut rng);
            for c_idx in grid.rendezvous_clients(me) {
                let msg = Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(c_idx),
                    to: NodeId::from_index(me),
                    view: 1,
                    round: 1,
                    basis_ms: 250,
                    entries: row_of(c_idx),
                    seqno: 0,
                    retractions: vec![],
                });
                let _ = router.on_message(0.25, &msg);
            }
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(router.on_routing_tick(0.5, &own, &mut rng).len()));
            });
        }
    }
    g.finish();
}

/// The anti-entropy hot path: one sync frame encode + decode + merge
/// into a divergent ledger — what every node pays once per sync period.
fn bench_anti_entropy(c: &mut Criterion) {
    use apor_membership::{SwimMsg, SwimStatus, SwimUpdate, ViewLedger};

    let entries = |n: usize, offset: u32| -> Vec<SwimUpdate> {
        (0..n)
            .map(|i| SwimUpdate {
                id: NodeId(i as u16),
                incarnation: (i as u32 + offset) % 4,
                status: if i % 7 == 0 {
                    SwimStatus::Faulty
                } else {
                    SwimStatus::Alive
                },
            })
            .collect()
    };
    let mut g = c.benchmark_group("anti_entropy");
    for n in [32usize, 140, 255] {
        let frame = SwimMsg::SyncReq {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            chunk: 0,
            chunks: 1,
            updates: entries(n, 0),
        };
        g.throughput(Throughput::Bytes(frame.wire_size() as u64));
        g.bench_with_input(BenchmarkId::new("frame_encode", n), &frame, |b, frame| {
            b.iter(|| black_box(frame.encode()));
        });
        let bytes = frame.encode();
        g.bench_with_input(BenchmarkId::new("frame_decode", n), &bytes, |b, bytes| {
            b.iter(|| SwimMsg::decode(black_box(bytes)).unwrap());
        });
        // The responder-side merge: apply a full divergent chunk to a
        // pre-built ledger (construction stays in the setup closure so
        // only the merge is timed).
        let incoming = entries(n, 1);
        g.bench_with_input(BenchmarkId::new("ledger_merge", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut ledger = ViewLedger::new();
                    for u in entries(n, 0) {
                        ledger.apply(u.id, u.incarnation, u.status == SwimStatus::Faulty);
                    }
                    ledger
                },
                |mut ledger| {
                    for u in &incoming {
                        ledger.apply(u.id, u.incarnation, u.status == SwimStatus::Faulty);
                    }
                    black_box(ledger.version())
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    kernels,
    bench_calibration,
    bench_grid,
    bench_best_one_hop,
    bench_round_two,
    bench_round_two_tick,
    bench_dense_vs_sparse,
    bench_wire,
    bench_multihop,
    bench_floyd_warshall,
    bench_anti_entropy
);
criterion_main!(kernels);

//! Computational-kernel benchmarks: the hot paths a deployment exercises
//! every routing interval.

use apor_bench::{bench_topology, full_table, ground_truth_row};
use apor_linkstate::{LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, RowStore};
use apor_quorum::{Grid, NodeId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

/// A link-state frame body for `entries` (unversioned): the dense form
/// when `dense`, otherwise the live entries only.
fn linkstate_msg(from: usize, to: usize, entries: &[LinkEntry], dense: bool) -> Message {
    let ls = LinkStateMsg {
        from: NodeId::from_index(from),
        to: NodeId::from_index(to),
        view: 1,
        round: 1,
        basis_ms: 250,
        width: entries.len() as u16,
        row: Arc::new(LaneRow::from_dense(entries)),
        liveness_loss: LinkStateMsg::liveness_lane(entries),
    };
    if dense {
        Message::LinkState(ls)
    } else {
        Message::LinkStateSparse(ls)
    }
}

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

/// A rendezvous node's full round-two duty — recommendations for every
/// pair among its 2√n clients and itself — as one kernel call over a
/// store holding every row.
fn bench_round_two(c: &mut Criterion) {
    let mut g = c.benchmark_group("round_two_full");
    for n in [100usize, 196, 400] {
        let topo = bench_topology(n);
        let table = full_table(&topo);
        let me = 0usize;
        let clients = Grid::new(n).rendezvous_servers(me);
        g.bench_with_input(BenchmarkId::new("server_tick", n), &n, |b, _| {
            b.iter(|| table.round_two(black_box(&clients), me, 0.0, 45.0));
        });
    }
    g.finish();
}

/// The row store on a quorum node's actual working set: its own row
/// plus its `2√n` rendezvous clients' rows. Two kernels: the row merge
/// (one client's full-width row reduced to lanes and put) and the full
/// round-two server tick.
fn bench_row_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("row_store");
    for n in [100usize, 400, 1024] {
        let topo = bench_topology(n);
        let grid = Grid::new(n);
        let me = 0usize;
        let clients = grid.rendezvous_servers(me);
        let rows: Vec<(usize, Vec<LinkEntry>)> = clients
            .iter()
            .chain([&me])
            .map(|&i| (i, ground_truth_row(&topo, i)))
            .collect();
        let mut store = RowStore::new(n);
        for (i, row) in &rows {
            store.put_row(*i, Arc::new(LaneRow::from_dense(row)), 0.0);
        }
        let (merge_origin, merge_row) = rows[rows.len() / 2].clone();
        g.bench_with_input(BenchmarkId::new("merge", n), &n, |b, _| {
            b.iter(|| {
                let row = Arc::new(LaneRow::from_dense(black_box(&merge_row)));
                store.put_row(black_box(merge_origin), row, 1.0)
            });
        });
        g.bench_with_input(BenchmarkId::new("round_two", n), &n, |b, _| {
            b.iter(|| store.round_two(black_box(&clients), me, 1.0, 45.0));
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
    use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm};
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
                if entitled {
                    entitled_row(&topo, &grid, i, &mut sample_rng)
                } else {
                    ground_truth_row(&topo, i)
                }
            };
            let own = row_of(me);
            let mut router: QuorumRouter = QuorumRouter::new(me, n, 1, ProtocolConfig::quorum());
            let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
            let _ = router.on_routing_tick(0.0, &own, &mut rng);
            for c_idx in grid.rendezvous_servers(me) {
                let msg = linkstate_msg(c_idx, me, &row_of(c_idx), true);
                let _ = router.on_message(0.25, &msg);
            }
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(router.on_routing_tick(0.5, &own, &mut rng).len()));
            });
        }
    }

    // `failover_sweep` — the tick of a node with no clients on an
    // incomplete grid (250 nodes on 16×16, ten in the last row) that
    // cannot reach its own grid row nor its column's nodes in five
    // other rows: the 89 destinations of those six rows have lost both
    // default rendezvous servers (the churn workload has 84 such per
    // tick). Each tick is a minute after the last, so every failover
    // chosen the tick before has gone unanswered and every one of the
    // 89 goes through the candidate pool again — what that workload's
    // routing tick spends its time on.
    let n = 250usize;
    let me = 2 * 16 + 12;
    let grid = Grid::new(n);
    let mut own = vec![LinkEntry::live(40, 0.0); n];
    for col in 0..16 {
        own[2 * 16 + col] = LinkEntry::dead();
    }
    own[me] = LinkEntry::live(0, 0.0);
    for row in [0, 5, 9, 14, 15] {
        if let Some(server) = grid.at(row, 12) {
            own[server] = LinkEntry::dead();
        }
    }
    let mut router: QuorumRouter = QuorumRouter::new(me, n, 1, ProtocolConfig::quorum());
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA11);
    let mut now = 0.0;
    let _ = router.on_routing_tick(now, &own, &mut rng);
    assert_eq!(
        router.double_rendezvous_failures(now),
        89,
        "the sweep's branch is taken for the destinations of six rows"
    );
    g.bench_with_input(BenchmarkId::new("failover_sweep", n), &n, |b, _| {
        b.iter(|| {
            now += 60.0;
            black_box(router.on_routing_tick(now, &own, &mut rng).len())
        });
    });
    g.finish();
}

/// A row as entitled probing leaves it: live entries to the node's
/// `~2√n` rendezvous servers and a 16-peer sample.
fn entitled_row(
    topo: &apor_topology::Topology,
    grid: &Grid,
    i: usize,
    rng: &mut rand_chacha::ChaCha8Rng,
) -> Vec<LinkEntry> {
    use rand::seq::SliceRandom;
    let n = topo.len();
    let truth = ground_truth_row(topo, i);
    let mut probed = grid.rendezvous_servers(i);
    let others: Vec<usize> = (0..n).filter(|&d| d != i).collect();
    probed.extend(others.choose_multiple(rng, 16));
    let mut row = vec![LinkEntry::dead(); n];
    for d in probed {
        row[d] = truth[d];
    }
    row
}

/// What a control frame costs from the socket to the router and back,
/// at the `scale-512` shape — the path the end-to-end ledger puts above
/// the round-two kernel. Ingest goes through `OverlayNode::on_packet`,
/// so decode, id translation, `on_message` and the store are all inside:
///
/// * `ls_sparse_ingest` — one sparse link-state frame (~60 live
///   entries) from a rendezvous client into a node already holding all
///   its `~2√n` client rows (a row replace, the steady state);
/// * `rec_ingest` — one compact recommendation frame (`~2√n` entries)
///   from a rendezvous server that has recommended before;
/// * `round_one_fanout` — one routing tick of a node with no clients
///   (so the tick is failover sweep + round one) and its `~2√n`
///   link-state frames encoded to bytes;
/// * `fullmesh_ingest` — at the `ron-196` shape instead: one dense
///   link-state frame (196 entries) into a full-mesh node, the busiest
///   control path of the baseline;
/// * `ls_dense_roundtrip` — at the `fabric-1024` shape: one full-row
///   dense frame (1024 live entries) encoded and decoded again, the
///   codec alone.
fn bench_frame_path(c: &mut Criterion) {
    use apor_overlay::{Algorithm, NodeConfig, Outbox, OverlayNode};
    use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let n = 512usize;
    let me = 0usize;
    let topo = bench_topology(n);
    let grid = Grid::new(n);
    let mut rng = ChaCha8Rng::seed_from_u64(0xF4A3);
    let clients = grid.rendezvous_servers(me);
    let mut g = c.benchmark_group("frame_path");

    // Static members 0..n: identity = index, as in every netsim study.
    let mut node = OverlayNode::new(NodeConfig::static_member(me, n, Algorithm::Quorum));
    let mut out = Outbox::default();
    node.on_start(0.0, &mut out);
    let frames: Vec<_> = clients
        .iter()
        .map(|&c_idx| {
            linkstate_msg(
                c_idx,
                me,
                &entitled_row(&topo, &grid, c_idx, &mut rng),
                false,
            )
            .encode()
        })
        .collect();
    for frame in &frames {
        node.on_packet(0.25, frame, &mut out);
    }
    assert_eq!(
        node.quorum_router().expect("quorum").table().row_count(),
        clients.len(),
        "every client row ingested"
    );
    let frame = &frames[frames.len() / 2];
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_with_input(BenchmarkId::new("ls_sparse_ingest", n), &n, |b, _| {
        b.iter(|| node.on_packet(0.5, black_box(frame), &mut out));
    });

    // The recommendation frame a server's tick produces for `me`: the
    // server holds its own row and its clients' rows (mine among them).
    let server = clients[clients.len() / 2];
    let mut server_router: QuorumRouter = QuorumRouter::new(server, n, 1, ProtocolConfig::quorum());
    for c_idx in grid.rendezvous_servers(server) {
        let row = entitled_row(&topo, &grid, c_idx, &mut rng);
        let _ = server_router.on_message(0.25, &linkstate_msg(c_idx, server, &row, false));
    }
    let own = entitled_row(&topo, &grid, server, &mut rng);
    let rec_frame = server_router
        .on_routing_tick(0.5, &own, &mut rng)
        .into_iter()
        .find(|m| matches!(m, Message::Recommendations(_)) && m.to().index() == me)
        .expect("the server recommends to its client")
        .encode();
    g.throughput(Throughput::Bytes(rec_frame.len() as u64));
    g.bench_with_input(BenchmarkId::new("rec_ingest", n), &n, |b, _| {
        b.iter(|| node.on_packet(0.75, black_box(&rec_frame), &mut out));
    });
    assert!(out.sends.is_empty(), "ingest answers nothing");

    let own = entitled_row(&topo, &grid, me, &mut rng);
    let mut router: QuorumRouter = QuorumRouter::new(me, n, 1, ProtocolConfig::quorum());
    g.bench_with_input(BenchmarkId::new("round_one_fanout", n), &n, |b, _| {
        b.iter(|| {
            let frames = router.on_routing_tick(0.5, &own, &mut rng);
            frames
                .iter()
                .map(|m| black_box(m.encode()).len())
                .sum::<usize>()
        });
    });

    let n = 196usize;
    let topo = bench_topology(n);
    let mut node = OverlayNode::new(NodeConfig::static_member(me, n, Algorithm::FullMesh));
    node.on_start(0.0, &mut out);
    let from = n / 2;
    let frame = linkstate_msg(from, me, &ground_truth_row(&topo, from), true).encode();
    node.on_packet(0.25, &frame, &mut out);
    assert_eq!(
        node.route_age(NodeId::from_index(from), 0.5),
        Some(0.25),
        "the row was ingested"
    );
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_with_input(BenchmarkId::new("fullmesh_ingest", n), &n, |b, _| {
        b.iter(|| node.on_packet(0.5, black_box(&frame), &mut out));
    });

    let n = 1024usize;
    let msg = linkstate_msg(1, me, &ground_truth_row(&bench_topology(n), 1), true);
    g.throughput(Throughput::Bytes(msg.wire_size() as u64));
    g.bench_with_input(BenchmarkId::new("ls_dense_roundtrip", n), &n, |b, _| {
        b.iter(|| Message::decode(&black_box(&msg).encode()));
    });
    g.finish();
}

/// What membership costs where views change (`swim-churn-256`), at that
/// workload's shape — 256 members, entitled probing:
///
/// * `view_install` — one view install on a quorum node holding its
///   `~2√n` clients' fresh rows and a prober that has measured every
///   target: a member leaves (or, every other time, comes back), so
///   the prober and the router are rebuilt for the new view and every
///   held row crosses into it. The `View` frame is built outside the
///   timed call; its decode is inside.
/// * `swim_packet` — one gossip frame from the wire through the state
///   machine: decode, `on_message` for a `Ping` piggybacking six
///   updates that are no news, then the `next_wake` the node asks for
///   after every packet.
/// * `sync_round` — one anti-entropy round between two ledgers that
///   differ in eight records: the digest mismatches, the partner echoes
///   its digest with its first ledger chunk on it, the initiator pushes
///   its whole ledger (two frames) and gets back the delta. Both state
///   machines are cloned outside the timed call, so every round starts
///   diverged.
fn bench_membership(c: &mut Criterion) {
    use apor_linkstate::{ProbeBatchMsg, ProbeItem};
    use apor_membership::{Swim, SwimConfig, SwimKind, SwimMsg, SwimStatus, SwimUpdate};
    use apor_overlay::node::TOKEN_PROBE;
    use apor_overlay::{Algorithm, NodeConfig, Outbox, OverlayNode};
    use criterion::BatchSize;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let n = 256usize;
    let me = 0usize;
    let mut g = c.benchmark_group("membership");

    // ---- view_install ------------------------------------------------
    let topo = bench_topology(n);
    let grid = Grid::new(n);
    let mut rng = ChaCha8Rng::seed_from_u64(0x71E7);
    let members: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let mut cfg = NodeConfig::new(NodeId::from_index(me), NodeId(1), Algorithm::Quorum)
        .with_static_members(members.clone());
    cfg.protocol = cfg.protocol.with_subquadratic_probing(240.0);
    let mut node = OverlayNode::new(cfg);
    let mut out = Outbox::default();
    node.on_start(0.0, &mut out);
    // Every probe of the first interval is answered 20 ms later.
    let mut t = 0.0;
    while t <= 40.0 {
        out.sends.clear();
        node.on_timer(t, TOKEN_PROBE, &mut out);
        for (to, _, bytes) in std::mem::take(&mut out.sends) {
            let Ok(Message::ProbeBatch(batch)) = Message::decode(&bytes) else {
                continue;
            };
            let items = batch
                .items
                .iter()
                .filter_map(|item| match *item {
                    ProbeItem::Ping { seq, sent_ms } => Some(ProbeItem::Pong {
                        seq,
                        echo_sent_ms: sent_ms,
                    }),
                    _ => None,
                })
                .collect();
            let pong = Message::ProbeBatch(ProbeBatchMsg {
                from: to,
                to: batch.from,
                view: batch.view,
                items,
            });
            node.on_packet(t + 0.02, &pong.encode(), &mut out);
        }
        t += 0.5;
    }
    let clients = grid.rendezvous_servers(me);
    for &client in &clients {
        let row = entitled_row(&topo, &grid, client, &mut rng);
        let frame = linkstate_msg(client, me, &row, false).encode();
        node.on_packet(40.5, &frame, &mut out);
    }
    assert_eq!(
        node.quorum_router().expect("quorum").table().row_count(),
        clients.len(),
        "every client row held"
    );
    let measured = (0..n)
        .filter(|&j| node.measured_latency_ms(NodeId::from_index(j)).is_some())
        .count();
    assert!(measured >= clients.len(), "the prober is warm");
    // The member that leaves and returns is nobody's business here: not
    // a client, so no held row is lost with it.
    let leaver = NodeId::from_index(
        (1..n)
            .rev()
            .find(|j| !clients.contains(j))
            .expect("a non-client"),
    );
    let without: Vec<NodeId> = members.iter().copied().filter(|&m| m != leaver).collect();
    let mut version = 1u32;
    g.bench_with_input(BenchmarkId::new("view_install", n), &n, |b, _| {
        b.iter_batched(
            || {
                version += 1;
                let members = if version % 2 == 0 { &without } else { &members };
                Message::View(apor_linkstate::wire::ViewMsg {
                    from: NodeId(1),
                    to: NodeId::from_index(me),
                    view: version,
                    members: members.clone(),
                })
                .encode()
            },
            |frame| {
                node.on_packet(41.0, &frame, &mut out);
                out.sends.clear();
                out.timers.clear();
            },
            BatchSize::SmallInput,
        );
    });
    assert_eq!(node.view().map(|v| v.version), Some(version));
    assert_eq!(
        node.quorum_router().expect("quorum").table().row_count(),
        clients.len(),
        "the rows crossed every install"
    );

    // ---- swim_packet -------------------------------------------------
    let swim_cfg = SwimConfig::default();
    let mut swim = Swim::bootstrap(NodeId::from_index(me), swim_cfg.clone(), &members);
    let mut replies = Vec::new();
    swim.on_tick(0.0, &mut replies);
    let no_news = |id: usize| SwimUpdate {
        id: NodeId::from_index(id),
        incarnation: 0,
        status: SwimStatus::Alive,
    };
    let ping = SwimMsg {
        from: NodeId(7),
        to: NodeId::from_index(me),
        seq: 99,
        kind: SwimKind::Ping,
        updates: [3, 41, 77, 120, 199, 250].map(no_news).to_vec(),
    }
    .encode();
    g.throughput(Throughput::Bytes(ping.len() as u64));
    g.bench_with_input(BenchmarkId::new("swim_packet", n), &n, |b, _| {
        b.iter(|| {
            let (msg, _) = SwimMsg::decode_traced(black_box(&ping)).expect("own frame");
            replies.clear();
            swim.on_message(0.5, &msg, &mut replies);
            black_box(swim.next_wake(0.5))
        });
    });
    assert_eq!(replies.len(), 1, "a ping is acked");

    // ---- sync_round --------------------------------------------------
    // The initiator at the instant its sync timer is due, and whom it
    // will pick (the clone draws what the original will draw).
    let mut initiator = Swim::bootstrap(NodeId::from_index(me), swim_cfg.clone(), &members);
    let mut sync_at = 0.0;
    let partner = loop {
        let mut probe = initiator.clone();
        let mut sent = Vec::new();
        probe.on_tick(sync_at, &mut sent);
        let opened = sent
            .iter()
            .find(|m| matches!(m.kind, SwimKind::SyncDigest { .. }));
        if let Some(digest) = opened {
            break digest.to;
        }
        initiator = probe;
        sync_at += 0.25;
    };
    let mut responder = Swim::bootstrap(partner, swim_cfg, &members);
    // Eight records apart: four deaths only the initiator has confirmed,
    // four refutations only the responder has heard.
    let gossip = |to: NodeId, status: SwimStatus, incarnation: u32, ids: [usize; 4]| SwimMsg {
        from: NodeId(200),
        to,
        seq: 1,
        kind: SwimKind::Ping,
        updates: ids
            .map(|id| SwimUpdate {
                id: NodeId::from_index(id),
                incarnation,
                status,
            })
            .to_vec(),
    };
    let mut sink = Vec::new();
    initiator.on_message(
        sync_at,
        &gossip(
            NodeId::from_index(me),
            SwimStatus::Faulty,
            0,
            [30, 90, 150, 210],
        ),
        &mut sink,
    );
    responder.on_message(
        sync_at,
        &gossip(partner, SwimStatus::Alive, 2, [31, 91, 151, 211]),
        &mut sink,
    );
    assert_ne!(initiator.ledger(), responder.ledger());
    let mut converged = false;
    g.bench_with_input(BenchmarkId::new("sync_round", n), &n, |b, _| {
        b.iter_batched(
            || (initiator.clone(), responder.clone()),
            |(mut a, mut z)| {
                // Frames ping-pong until neither side has an answer:
                // digest, echo + chunk, two push frames, the delta.
                let (mut to_z, mut to_a) = (Vec::new(), Vec::new());
                a.on_tick(sync_at, &mut to_z);
                to_z.retain(|m| m.to == partner);
                let mut frames = 0;
                while !to_z.is_empty() || !to_a.is_empty() {
                    for msg in std::mem::take(&mut to_z) {
                        z.on_message(sync_at, &msg, &mut to_a);
                        frames += 1;
                    }
                    for msg in std::mem::take(&mut to_a) {
                        a.on_message(sync_at, &msg, &mut to_z);
                        frames += 1;
                    }
                }
                converged = a.ledger() == z.ledger();
                frames
            },
            BatchSize::SmallInput,
        );
    });
    assert!(converged, "one round reconciles the pair");
    g.finish();
}

criterion_group!(
    kernels,
    bench_calibration,
    bench_round_two,
    bench_round_two_tick,
    bench_frame_path,
    bench_row_store,
    bench_membership
);
criterion_main!(kernels);

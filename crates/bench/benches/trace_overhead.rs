//! Causal-trace overhead benchmarks — deliberately a *separate* bench
//! target from `kernels` so the perf-trajectory gate's binary stays
//! byte-identical: a 1.4 µs gated micro-kernel can swing ±30% on code
//! layout alone when unrelated code is added to the same binary.
//!
//! Three costs every node could pay per packet:
//!
//! * the disabled-tracer [`Tracer::record`] call — the default
//!   configuration (one field read, then return), which is what keeps
//!   tracing off the hot paths the gate protects;
//! * the enabled ring write under the tracer's uncontended lock;
//! * the SWIM frame encode with and without the 8-byte trace-context
//!   block piggybacked during an episode's hot window.
//!
//! The measured numbers are quoted in `docs/OBSERVABILITY.md`.

use apor_membership::{SwimMsg, SwimStatus, SwimUpdate};
use apor_quorum::NodeId;
use apor_telemetry::{SpanKind, TraceCtx, Tracer};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    let disabled = Tracer::disabled();
    g.bench_function("record_disabled", |b| {
        b.iter(|| {
            black_box(disabled.record(black_box(SpanKind::GossipHop), black_box(7), 0, 3, 1.0, 1.0))
        });
    });
    let enabled = Tracer::new(1, 1024);
    g.bench_function("record_enabled", |b| {
        b.iter(|| {
            black_box(enabled.record(black_box(SpanKind::GossipHop), black_box(7), 0, 3, 1.0, 1.0))
        });
    });
    let frame = SwimMsg::Ping {
        from: NodeId(0),
        to: NodeId(1),
        seq: 42,
        updates: (0..6)
            .map(|i| SwimUpdate {
                id: NodeId(i),
                incarnation: 1,
                status: SwimStatus::Suspect,
            })
            .collect(),
    };
    let ctx = TraceCtx {
        episode: 0x0005_0001,
        origin: 5,
        hop: 2,
    };
    g.bench_with_input(BenchmarkId::new("swim_encode", "plain"), &frame, |b, f| {
        b.iter(|| black_box(f.encode_traced(None)));
    });
    g.bench_with_input(BenchmarkId::new("swim_encode", "traced"), &frame, |b, f| {
        b.iter(|| black_box(f.encode_traced(Some(&ctx))));
    });
    g.finish();
}

criterion_group!(trace_overhead, bench_trace);
criterion_main!(trace_overhead);

//! Causal-episode assembly shared by the convergence experiments.
//!
//! The fleet's per-node flight recorders ([`apor_telemetry::Tracer`])
//! hold the spans the protocol recorded live: suspicion windows,
//! confirms, gossip hops, view installs, remaps, reprobe bursts.
//! [`World::spans`](apor_overlay::simnode::World::spans) drains them
//! into one list, and this module turns that list into the exported
//! artifacts:
//!
//! * pick the **richest episode** — the one whose live spans cover the
//!   most distinct convergence phases;
//! * synthesize the ground-truth markers only the experiment knows
//!   (the [`SpanKind::Episode`] root, the [`SpanKind::Failure`]
//!   instant, the [`SpanKind::RoutesRestored`] instant) on a dedicated
//!   experiment lane;
//! * decompose the measured recovery total into consecutive
//!   **phases** whose durations sum to the total *by construction*
//!   (each milestone is clamped to be monotone), for the
//!   `*_phases.csv` exports.
//!
//! See `docs/OBSERVABILITY.md` for the export schemas.

use apor_telemetry::trace::{episode_root_span, Span, SpanKind};

/// Flight-recorder capacity per node in the traced studies (`churn`,
/// `partition`): deep enough to hold a whole partition incident at
/// n = 32 (suspicions, wavefront, installs, remaps) without wrapping
/// before the heal is measured.
pub const TRACE_CAPACITY: usize = 1024;

/// The synthetic node id carrying experiment-synthesized spans. Real
/// nodes are small indices; keeping the synthesized root on its own
/// (episode, node) lane means it can never break the per-lane nesting
/// invariant the trace validator enforces.
pub const EXPERIMENT_NODE: u32 = u32::MAX;

/// The convergence phases a *live* (non-synthesized) span can witness.
const CORE_KINDS: [SpanKind; 7] = [
    SpanKind::Suspicion,
    SpanKind::Confirm,
    SpanKind::GossipHop,
    SpanKind::ViewInstall,
    SpanKind::Remap,
    SpanKind::Reprobe,
    SpanKind::RowImport,
];

/// The episode with the widest phase coverage: most distinct
/// `CORE_KINDS` present, ties broken by span count, then by the
/// smaller id (determinism). `None` when no span names an episode.
#[must_use]
pub fn richest_episode(spans: &[Span]) -> Option<u32> {
    let mut episodes: Vec<u32> = spans
        .iter()
        .filter(|s| s.episode != 0)
        .map(|s| s.episode)
        .collect();
    episodes.sort_unstable();
    episodes.dedup();
    episodes.into_iter().max_by_key(|&ep| {
        let mine = spans.iter().filter(|s| s.episode == ep);
        let kinds = CORE_KINDS
            .iter()
            .filter(|&&k| spans.iter().any(|s| s.episode == ep && s.kind == k))
            .count();
        // max_by_key keeps the *last* maximum; invert the id so ties
        // resolve to the smallest episode.
        (kinds, mine.count(), std::cmp::Reverse(ep))
    })
}

/// The exportable causal tree of `episode`: its live spans plus the
/// synthesized root (covering failure → restoration and every live
/// span), the failure instant and — when the experiment measured one —
/// the routes-restored instant, all on the experiment lane.
#[must_use]
pub fn assemble_episode(
    spans: &[Span],
    episode: u32,
    fail_s: f64,
    restored_s: Option<f64>,
) -> Vec<Span> {
    let mut out: Vec<Span> = spans
        .iter()
        .filter(|s| s.episode == episode)
        .copied()
        .collect();
    let mut start = fail_s;
    let mut end = restored_s.unwrap_or(fail_s);
    for s in &out {
        start = start.min(s.start_s);
        end = end.max(s.end_s);
    }
    let root = episode_root_span(episode);
    out.push(Span {
        id: root,
        parent: 0,
        episode,
        node: EXPERIMENT_NODE,
        kind: SpanKind::Episode,
        aux: episode >> 16,
        start_s: start,
        end_s: end,
    });
    out.push(Span {
        id: (1 << 63) | (1 << 62) | u64::from(episode),
        parent: root,
        episode,
        node: EXPERIMENT_NODE,
        kind: SpanKind::Failure,
        aux: 0,
        start_s: fail_s,
        end_s: fail_s,
    });
    if let Some(restored) = restored_s {
        out.push(Span {
            id: (1 << 63) | (1 << 61) | u64::from(episode),
            parent: root,
            episode,
            node: EXPERIMENT_NODE,
            kind: SpanKind::RoutesRestored,
            aux: 0,
            start_s: restored,
            end_s: restored,
        });
    }
    out
}

/// The distinct span kinds present in a list (for completeness
/// assertions and reports).
#[must_use]
pub fn kinds_present(spans: &[Span]) -> Vec<SpanKind> {
    let mut kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds
}

/// The earliest start time of any span of one of `kinds` at or after
/// `after_s` — a recovery milestone extracted from the live record.
#[must_use]
pub fn first_span_at(spans: &[Span], kinds: &[SpanKind], after_s: f64) -> Option<f64> {
    spans
        .iter()
        .filter(|s| kinds.contains(&s.kind) && s.start_s >= after_s)
        .map(|s| s.start_s)
        .min_by(f64::total_cmp)
}

/// One phase of a recovery: a named `[start_s, end_s]` slice of the
/// interval between the triggering event and full recovery, in seconds
/// relative to the trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name (CSV `phase` column).
    pub name: &'static str,
    /// Start offset from the trigger, seconds.
    pub start_s: f64,
    /// End offset from the trigger, seconds.
    pub end_s: f64,
}

impl Phase {
    /// The phase's duration, seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Decompose `[0, total_s]` into consecutive phases. Each `marks` entry
/// is a phase name plus the offset at which the phase *ends*; a missing
/// or out-of-order milestone collapses its phase to zero length rather
/// than breaking monotonicity, and the final phase always ends at
/// `total_s` — so the durations sum to `total_s` exactly, which is the
/// invariant the phase-breakdown CSV consumers (and the acceptance
/// gate) rely on.
#[must_use]
pub fn recovery_phases(
    marks: &[(&'static str, Option<f64>)],
    final_name: &'static str,
    total_s: f64,
) -> Vec<Phase> {
    let mut out = Vec::with_capacity(marks.len() + 1);
    let mut prev = 0.0;
    for &(name, at) in marks {
        let end = at.unwrap_or(prev).clamp(prev, total_s);
        out.push(Phase {
            name,
            start_s: prev,
            end_s: end,
        });
        prev = end;
    }
    out.push(Phase {
        name: final_name,
        start_s: prev,
        end_s: total_s,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_telemetry::trace::validate_chrome_trace;
    use apor_telemetry::{chrome_trace_json, Tracer};

    fn span(episode: u32, node: u32, kind: SpanKind, start_s: f64, end_s: f64) -> Span {
        let tracer = Tracer::new(node, 4);
        let id = tracer.record(kind, episode, 0, 0, start_s, end_s);
        Span {
            id,
            parent: 0,
            episode,
            node,
            kind,
            aux: 0,
            start_s,
            end_s,
        }
    }

    #[test]
    fn richest_episode_prefers_phase_coverage_over_span_count() {
        let mut spans = Vec::new();
        // Episode 7: many spans, one kind.
        for _ in 0..10 {
            spans.push(span(7, 1, SpanKind::GossipHop, 1.0, 1.0));
        }
        // Episode 3: three kinds.
        spans.push(span(3, 1, SpanKind::Suspicion, 1.0, 2.0));
        spans.push(span(3, 1, SpanKind::Confirm, 2.0, 2.0));
        spans.push(span(3, 2, SpanKind::ViewInstall, 2.5, 2.5));
        assert_eq!(richest_episode(&spans), Some(3));
        assert_eq!(richest_episode(&[]), None);
    }

    #[test]
    fn assembled_episode_validates_and_contains_the_markers() {
        let live = vec![
            span(9, 1, SpanKind::Suspicion, 2.0, 4.0),
            span(9, 1, SpanKind::Confirm, 4.0, 4.0),
            span(9, 2, SpanKind::GossipHop, 4.2, 4.2),
            span(9, 2, SpanKind::ViewInstall, 5.0, 5.0),
        ];
        let assembled = assemble_episode(&live, 9, 1.0, Some(8.0));
        let kinds = kinds_present(&assembled);
        for k in [
            SpanKind::Episode,
            SpanKind::Failure,
            SpanKind::Suspicion,
            SpanKind::Confirm,
            SpanKind::ViewInstall,
            SpanKind::RoutesRestored,
        ] {
            assert!(kinds.contains(&k), "missing {k:?}");
        }
        let root = assembled
            .iter()
            .find(|s| s.kind == SpanKind::Episode)
            .unwrap();
        assert_eq!(root.id, episode_root_span(9));
        assert_eq!(root.node, EXPERIMENT_NODE);
        assert!(root.start_s <= 1.0 && root.end_s >= 8.0);
        let stats = validate_chrome_trace(&chrome_trace_json(&assembled)).expect("valid export");
        assert_eq!(stats.spans, assembled.len());
        assert_eq!(stats.episodes, 1);
    }

    #[test]
    fn assembled_root_covers_live_spans_outside_the_markers() {
        // A live span ending after the restoration instant must not
        // escape the synthesized root.
        let live = vec![span(4, 1, SpanKind::SyncRound, 0.5, 9.5)];
        let assembled = assemble_episode(&live, 4, 1.0, Some(8.0));
        let root = assembled
            .iter()
            .find(|s| s.kind == SpanKind::Episode)
            .unwrap();
        assert_eq!((root.start_s, root.end_s), (0.5, 9.5));
        validate_chrome_trace(&chrome_trace_json(&assembled)).expect("valid export");
    }

    #[test]
    fn phases_sum_to_total_with_missing_and_unordered_milestones() {
        let phases = recovery_phases(
            &[
                ("contact", Some(2.0)),
                ("install", None),        // missing: zero-length
                ("agreement", Some(1.0)), // out of order: clamped
            ],
            "route_recovery",
            10.0,
        );
        assert_eq!(phases.len(), 4);
        let total: f64 = phases.iter().map(Phase::duration_s).sum();
        assert!((total - 10.0).abs() < 1e-12);
        for w in phases.windows(2) {
            assert!(
                (w[0].end_s - w[1].start_s).abs() < 1e-12,
                "gap between phases"
            );
        }
        assert_eq!(phases[1].duration_s(), 0.0);
        assert_eq!(phases[2].duration_s(), 0.0);
        assert_eq!(phases[3].end_s, 10.0);
    }

    #[test]
    fn first_span_at_respects_the_cutoff() {
        let spans = vec![
            span(1, 0, SpanKind::ViewInstall, 1.0, 1.0),
            span(1, 0, SpanKind::ViewInstall, 5.0, 5.0),
        ];
        assert_eq!(
            first_span_at(&spans, &[SpanKind::ViewInstall], 2.0),
            Some(5.0)
        );
        assert_eq!(first_span_at(&spans, &[SpanKind::ViewInstall], 6.0), None);
        assert_eq!(first_span_at(&spans, &[SpanKind::Remap], 0.0), None);
    }
}

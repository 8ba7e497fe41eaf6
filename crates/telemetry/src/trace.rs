//! Causal convergence tracing: episode spans, the per-node flight
//! recorder, wire trace contexts and the Chrome-trace exporter.
//!
//! The metrics registry ([`crate::metrics`]) answers *how often* and
//! *how long on aggregate*. This module answers *why was this slow*:
//! every convergence episode — a crash, a partition, a heal — gets a
//! stable **episode id**, and each component records [`Span`]s against
//! it (suspicion windows, gossip hops, view installs, row remaps,
//! re-probe bursts), so the time from failure to routes-restored
//! decomposes into a causal tree instead of one opaque total.
//!
//! Three pieces:
//!
//! * [`TraceCtx`] — the 8-byte wire context (episode, origin, hop
//!   count) piggybacked on SWIM and probe-batch frames so causality
//!   crosses node boundaries without any clock agreement.
//! * [`Tracer`] — a bounded per-node span ring behind a lock, acting
//!   as a flight recorder. Off by default ([`Tracer::disabled`]): the
//!   hot paths read one plain field and nothing else.
//! * [`chrome_trace_json`] / [`validate_chrome_trace`] — export of an
//!   episode as Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`) and the schema + span-nesting validator CI
//!   runs over every exported file.
//!
//! See `docs/OBSERVABILITY.md` for the full two-layer story and the
//! export schemas.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------
// Wire trace context
// ---------------------------------------------------------------------

/// Serialized size of a [`TraceCtx`] block: version byte, episode id
/// (u32), origin (u16), hop count (u8).
pub const TRACE_CTX_SIZE: usize = 8;

/// Version byte opening every wire trace-context block.
pub const TRACE_CTX_VERSION: u8 = 1;

/// The compact causal context piggybacked on wire frames.
///
/// Deliberately *not* a span id: receivers derive their own spans and
/// correlate purely on `(episode, origin, hop)`, so no cross-node span
/// table or clock agreement is needed. The episode id itself is
/// derivable independently by every node from the suspected member and
/// incarnation ([`episode_id`]), which is what makes the gossip
/// wavefront of one failure converge on one id without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The episode this frame participates in (see [`episode_id`]).
    pub episode: u32,
    /// The node that opened the episode (first suspector).
    pub origin: u16,
    /// Gossip hops traversed so far (0 at the origin; saturating).
    pub hop: u8,
}

impl TraceCtx {
    /// Serialize to the fixed 8-byte wire block.
    #[must_use]
    pub fn encode(&self) -> [u8; TRACE_CTX_SIZE] {
        let e = self.episode.to_be_bytes();
        let o = self.origin.to_be_bytes();
        [
            TRACE_CTX_VERSION,
            e[0],
            e[1],
            e[2],
            e[3],
            o[0],
            o[1],
            self.hop,
        ]
    }

    /// Parse a wire block. `None` unless `bytes` is exactly
    /// [`TRACE_CTX_SIZE`] bytes opening with [`TRACE_CTX_VERSION`].
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<TraceCtx> {
        if bytes.len() != TRACE_CTX_SIZE || bytes[0] != TRACE_CTX_VERSION {
            return None;
        }
        Some(TraceCtx {
            episode: u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]),
            origin: u16::from_be_bytes([bytes[5], bytes[6]]),
            hop: bytes[7],
        })
    }

    /// The context to forward: one more hop traversed.
    #[must_use]
    pub fn next_hop(self) -> TraceCtx {
        TraceCtx {
            hop: self.hop.saturating_add(1),
            ..self
        }
    }
}

/// The deterministic episode id for a suspicion of `member` at
/// `incarnation`: every node that learns of the same failure — by its
/// own probe timeout or by gossip — computes the same id with no
/// coordination. Incarnations are folded to 16 bits; an episode id is a
/// correlation key inside one experiment run, not a forever-unique
/// name.
#[must_use]
pub fn episode_id(member: u16, incarnation: u32) -> u32 {
    (u32::from(member) << 16) | (incarnation & 0xFFFF)
}

/// The reserved span id of an episode's synthesized root span. Span ids
/// minted by [`Tracer::record`] carry the node in their upper half and
/// never set the top bit, so the root id can be derived by any
/// assembler without a registry.
#[must_use]
pub fn episode_root_span(episode: u32) -> u64 {
    (1 << 63) | u64::from(episode)
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// What a span measures. The kind implies the component
/// ([`SpanKind::component`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Synthesized root covering one whole convergence episode.
    Episode,
    /// The failure/partition instant (synthesized by the experiment,
    /// which is the only party that knows ground truth).
    Failure,
    /// A suspicion window: raised → confirmed on one node.
    Suspicion,
    /// The instant a suspicion expired into a confirmed failure.
    Confirm,
    /// One gossip-wavefront arrival: a frame carrying the episode's
    /// [`TraceCtx`] reached this node (`aux` = hop count).
    GossipHop,
    /// A membership view install on one node (`aux` = view version).
    ViewInstall,
    /// The row carry riding a view install (`aux` = held rows that
    /// were fresh and whose origin survived).
    Remap,
    /// The first post-install probe burst re-measuring links
    /// (`aux` = probe actions emitted).
    Reprobe,
    /// An anti-entropy sync round opened while the episode was hot
    /// (`aux` = partner).
    SyncRound,
    /// A row the reinstalled router kept across an install
    /// (`aux` = origin of the row, in the new view).
    RowImport,
    /// Routing restored, as measured by the experiment (synthesized).
    RoutesRestored,
}

impl SpanKind {
    /// Human-readable name (the Chrome trace event name).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Episode => "episode",
            SpanKind::Failure => "failure",
            SpanKind::Suspicion => "suspicion",
            SpanKind::Confirm => "confirm",
            SpanKind::GossipHop => "gossip_hop",
            SpanKind::ViewInstall => "view_install",
            SpanKind::Remap => "remap",
            SpanKind::Reprobe => "reprobe",
            SpanKind::SyncRound => "sync_round",
            SpanKind::RowImport => "row_import",
            SpanKind::RoutesRestored => "routes_restored",
        }
    }

    /// The subsystem that records this kind (the Chrome trace
    /// category).
    #[must_use]
    pub fn component(self) -> &'static str {
        match self {
            SpanKind::Episode | SpanKind::Failure | SpanKind::RoutesRestored => "experiment",
            SpanKind::Suspicion | SpanKind::Confirm | SpanKind::GossipHop | SpanKind::SyncRound => {
                "membership"
            }
            SpanKind::ViewInstall | SpanKind::Remap => "overlay",
            SpanKind::Reprobe | SpanKind::RowImport => "routing",
        }
    }
}

/// One recorded span: a `[start_s, end_s]` interval of simulated time
/// on one node, attributed to an episode. Instant events are spans with
/// `start_s == end_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id (node in the upper 32 bits; 0 = never recorded).
    pub id: u64,
    /// Parent span id (0 = root / unknown; cross-node causality is
    /// carried by the episode id, not parent links).
    pub parent: u64,
    /// The episode this span belongs to (0 = outside any episode).
    pub episode: u32,
    /// The node that recorded it.
    pub node: u32,
    /// What was measured.
    pub kind: SpanKind,
    /// Kind-specific payload (hop count, view version, row count…).
    pub aux: u32,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Simulated end time, seconds.
    pub end_s: f64,
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// What the recorder's lock guards: the span slots and how many spans
/// were ever recorded (the write cursor, and the last minted local id).
struct Ring {
    slots: Box<[Span]>,
    recorded: u64,
}

struct TracerInner {
    node: u32,
    enabled: bool,
    ring: Mutex<Ring>,
}

/// A per-node flight recorder: the last `capacity` spans, readable at
/// any time. Cloning shares the ring (same pattern as
/// [`crate::Telemetry`]). Every tracer belongs to one node, and a node
/// is driven by one thread at a time — the simulator's event loop, or
/// the UDP driver under the node's lock — so the ring's mutex is never
/// contended.
///
/// The disabled handle ([`Tracer::disabled`], capacity 0) is the
/// default everywhere: `record` reads one plain field and returns,
/// which is what keeps tracing inside the perf-trajectory gate when
/// nothing asked for it.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("node", &self.inner.node)
            .field("enabled", &self.enabled())
            .field("capacity", &self.ring().slots.len())
            .finish()
    }
}

impl Tracer {
    /// A live tracer for `node` keeping the last `capacity` spans.
    /// Capacity 0 is the disabled tracer.
    #[must_use]
    pub fn new(node: u32, capacity: usize) -> Tracer {
        // Fills the slots not yet written; `recent` reads none of them.
        let blank = Span {
            id: 0,
            parent: 0,
            episode: 0,
            node,
            kind: SpanKind::Episode,
            aux: 0,
            start_s: 0.0,
            end_s: 0.0,
        };
        Tracer {
            inner: Arc::new(TracerInner {
                node,
                enabled: capacity > 0,
                ring: Mutex::new(Ring {
                    slots: vec![blank; capacity].into_boxed_slice(),
                    recorded: 0,
                }),
            }),
        }
    }

    /// The no-op tracer: records nothing, costs one field read.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer::new(u32::MAX, 0)
    }

    /// Is this tracer recording? The hot-path guard.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The node this tracer records for.
    #[must_use]
    pub fn node(&self) -> u32 {
        self.inner.node
    }

    /// The ring, recovered from a poisoned lock: a panic elsewhere must
    /// not hide the spans [`DumpOnPanic`] is about to report.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a complete span and return its minted id (0 when
    /// disabled). Sim time is explicit, so spans are recorded once, at
    /// close, with both endpoints known.
    pub fn record(
        &self,
        kind: SpanKind,
        episode: u32,
        parent: u64,
        aux: u32,
        start_s: f64,
        end_s: f64,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let mut ring = self.ring();
        let at = ring.recorded;
        let id = (u64::from(self.inner.node) << 32) | ((at + 1) & 0xFFFF_FFFF);
        let cap = ring.slots.len() as u64;
        ring.slots[(at % cap) as usize] = Span {
            id,
            parent,
            episode,
            node: self.inner.node,
            kind,
            aux,
            start_s,
            end_s,
        };
        ring.recorded += 1;
        id
    }

    /// Record an instant event (`start == end`).
    pub fn instant(&self, kind: SpanKind, episode: u32, parent: u64, aux: u32, t: f64) -> u64 {
        self.record(kind, episode, parent, aux, t, t)
    }

    /// The ring contents, oldest first.
    #[must_use]
    pub fn recent(&self) -> Vec<Span> {
        let ring = self.ring();
        let cap = ring.slots.len() as u64;
        let first = ring.recorded.saturating_sub(cap);
        (first..ring.recorded)
            .map(|i| ring.slots[(i % cap) as usize])
            .collect()
    }
}

/// Flight-recorder dump hook: prints the last `per_node` spans of every
/// involved node to stderr **iff the surrounding code panics** (an
/// experiment assertion failing), so a red convergence study ships the
/// causal evidence with the failure message. Arm it after a run,
/// before the assertions:
///
/// ```
/// use apor_telemetry::trace::{DumpOnPanic, Span};
/// let spans: Vec<Span> = Vec::new(); // collected from the fleet
/// let _dump = DumpOnPanic::new("partition", spans, 20);
/// // assert!(...);
/// ```
pub struct DumpOnPanic {
    label: String,
    spans: Vec<Span>,
    per_node: usize,
}

impl DumpOnPanic {
    /// Arm the hook over `spans` (any order; grouped by node on dump).
    #[must_use]
    pub fn new(label: &str, spans: Vec<Span>, per_node: usize) -> DumpOnPanic {
        DumpOnPanic {
            label: label.to_string(),
            spans,
            per_node,
        }
    }
}

impl Drop for DumpOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "{}",
                flight_recorder_report(&self.label, &self.spans, self.per_node)
            );
        }
    }
}

/// The text of a flight-recorder dump: per involved node, its last
/// `per_node` spans in time order.
#[must_use]
pub fn flight_recorder_report(label: &str, spans: &[Span], per_node: usize) -> String {
    let mut nodes: Vec<u32> = spans.iter().map(|s| s.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut out = format!(
        "=== flight recorder [{label}]: {} spans on {} nodes ===\n",
        spans.len(),
        nodes.len()
    );
    for node in nodes {
        let mut mine: Vec<&Span> = spans.iter().filter(|s| s.node == node).collect();
        mine.sort_by(|a, b| a.end_s.total_cmp(&b.end_s).then(a.id.cmp(&b.id)));
        let skip = mine.len().saturating_sub(per_node);
        for s in &mine[skip..] {
            let _ = writeln!(
                out,
                "  [node {:>4}] {:>9.3}s..{:<9.3}s {:<15} ep={:#010x} aux={} id={:#x} parent={:#x}",
                s.node,
                s.start_s,
                s.end_s,
                s.kind.label(),
                s.episode,
                s.aux,
                s.id,
                s.parent,
            );
        }
    }
    out.push_str("=== end flight recorder ===");
    out
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Serialize spans as Chrome trace-event JSON (the `traceEvents`
/// array format): load the file in [Perfetto](https://ui.perfetto.dev)
/// or `chrome://tracing`. Episodes become processes, nodes become
/// threads, spans become complete (`"ph":"X"`) events with
/// microsecond timestamps; process/thread name metadata is emitted so
/// the UI labels lanes meaningfully. Output is deterministic: events
/// are sorted by (start, episode, node, id).
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by(|a, b| {
        a.start_s
            .total_cmp(&b.start_s)
            .then(a.episode.cmp(&b.episode))
            .then(a.node.cmp(&b.node))
            .then(a.id.cmp(&b.id))
    });
    let mut lanes: Vec<(u32, u32)> = sorted.iter().map(|s| (s.episode, s.node)).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut events: Vec<String> = Vec::with_capacity(sorted.len() + 2 * lanes.len());
    let mut episodes_named: Vec<u32> = Vec::new();
    for &(episode, node) in &lanes {
        if !episodes_named.contains(&episode) {
            episodes_named.push(episode);
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{episode},\"tid\":0,\
                 \"args\":{{\"name\":\"episode {episode:#010x} (member {}, inc {})\"}}}}",
                episode >> 16,
                episode & 0xFFFF
            ));
        }
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{episode},\"tid\":{node},\
             \"args\":{{\"name\":\"node {node}\"}}}}"
        ));
    }
    for s in sorted {
        let ts_us = s.start_s * 1e6;
        let dur_us = (s.end_s - s.start_s).max(0.0) * 1e6;
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"id\":\"{:#x}\",\"parent\":\"{:#x}\",\"aux\":{},\
             \"start_s\":{:.6},\"end_s\":{:.6}}}}}",
            s.kind.label(),
            s.kind.component(),
            s.episode,
            s.node,
            s.id,
            s.parent,
            s.aux,
            s.start_s,
            s.end_s,
        ));
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// What [`validate_chrome_trace`] measured about a well-formed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Complete (`"ph":"X"`) span events.
    pub spans: usize,
    /// Distinct (pid, tid) lanes carrying spans.
    pub lanes: usize,
    /// Distinct episodes (pids).
    pub episodes: usize,
    /// Distinct span names present, in first-seen order (lets CI
    /// require specific episode phases to exist in an export).
    pub names: Vec<String>,
}

/// Validate Chrome trace-event JSON: parses the document, checks the
/// event schema (required fields and types) and checks that the span
/// events on every (pid, tid) lane are properly nested — each span is
/// either disjoint from or fully contained in any span it overlaps.
/// This is the structural invariant the causal-tree reading depends
/// on, and the check CI runs over every exported trace.
///
/// # Errors
/// A description of the first schema violation or nesting conflict.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    /// One (pid, tid) lane's spans as `(ts, dur)` pairs.
    type Lane = ((i64, i64), Vec<(f64, f64)>);
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing top-level \"traceEvents\" array".to_string())?;
    let mut lanes: Vec<Lane> = Vec::new();
    let mut spans = 0usize;
    let mut names: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let field = |name: &str| {
            ev.get(name)
                .ok_or_else(|| format!("event {i}: missing \"{name}\""))
        };
        let num = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or_else(|| format!("event {i}: \"{name}\" is not a number"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"ph\" is not a string"))?;
        match ph {
            "M" => continue, // metadata: name records, no timing schema
            "X" => {}
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
        let Some(name) = field("name")?.as_str() else {
            return Err(format!("event {i}: \"name\" is not a string"));
        };
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
        let ts = num("ts")?;
        let dur = num("dur")?;
        let pid = num("pid")?;
        let tid = num("tid")?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!(
                "event {i}: \"ts\" must be finite and >= 0, got {ts}"
            ));
        }
        if !dur.is_finite() || dur < 0.0 {
            return Err(format!(
                "event {i}: \"dur\" must be finite and >= 0, got {dur}"
            ));
        }
        spans += 1;
        #[allow(clippy::cast_possible_truncation)]
        let key = (pid as i64, tid as i64);
        match lanes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push((ts, dur)),
            None => lanes.push((key, vec![(ts, dur)])),
        }
    }
    // Nesting: per lane, sweeping spans by (start asc, dur desc) with a
    // stack of open end-times — a span starting inside an open span
    // must also end inside it.
    const EPS: f64 = 1e-6;
    for (key, lane) in &mut lanes {
        lane.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut open: Vec<f64> = Vec::new();
        for &(ts, dur) in lane.iter() {
            while open.last().is_some_and(|&end| ts >= end - EPS) {
                open.pop();
            }
            if let Some(&end) = open.last() {
                if ts + dur > end + EPS {
                    return Err(format!(
                        "lane (pid {}, tid {}): span [{ts}, {}] partially overlaps \
                         an open span ending at {end} — not nested",
                        key.0,
                        key.1,
                        ts + dur
                    ));
                }
            }
            open.push(ts + dur);
        }
    }
    let mut pids: Vec<i64> = lanes.iter().map(|(k, _)| k.0).collect();
    pids.sort_unstable();
    pids.dedup();
    Ok(TraceStats {
        spans,
        lanes: lanes.len(),
        episodes: pids.len(),
        names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, episode: u32, node: u32, start: f64, end: f64) -> Span {
        Span {
            id: (u64::from(node) << 32) | u64::from(episode),
            parent: 0,
            episode,
            node,
            kind,
            aux: 0,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn trace_ctx_roundtrips_and_rejects_junk() {
        let ctx = TraceCtx {
            episode: 0xDEAD_BEEF,
            origin: 513,
            hop: 7,
        };
        let bytes = ctx.encode();
        assert_eq!(bytes.len(), TRACE_CTX_SIZE);
        assert_eq!(TraceCtx::decode(&bytes), Some(ctx));
        assert_eq!(TraceCtx::decode(&bytes[..7]), None);
        let mut bad = bytes;
        bad[0] = 9;
        assert_eq!(TraceCtx::decode(&bad), None);
        assert_eq!(ctx.next_hop().hop, 8);
        assert_eq!(
            TraceCtx {
                hop: u8::MAX,
                ..ctx
            }
            .next_hop()
            .hop,
            u8::MAX
        );
    }

    #[test]
    fn episode_ids_are_deterministic_and_distinct() {
        assert_eq!(episode_id(3, 1), episode_id(3, 1));
        assert_ne!(episode_id(3, 1), episode_id(3, 2));
        assert_ne!(episode_id(3, 1), episode_id(4, 1));
        // Root span ids never collide with minted ones (top bit).
        assert_eq!(episode_root_span(5) >> 63, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.record(SpanKind::Suspicion, 1, 0, 0, 0.0, 1.0), 0);
        assert!(t.recent().is_empty());
    }

    #[test]
    fn ring_keeps_newest_spans_in_order() {
        let t = Tracer::new(7, 4);
        for i in 0..6u32 {
            t.record(SpanKind::GossipHop, 1, 0, i, f64::from(i), f64::from(i));
        }
        let spans = t.recent();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans.iter().map(|s| s.aux).collect::<Vec<_>>(),
            vec![2, 3, 4, 5],
            "ring keeps the newest spans, oldest first"
        );
        assert!(spans.iter().all(|s| s.node == 7));
        // Minted ids carry the node in the upper half and count every
        // span ever recorded in the lower, from 1.
        assert!(spans.iter().all(|s| s.id >> 32 == 7));
        assert_eq!(spans[3].id & 0xFFFF_FFFF, 6);
    }

    #[test]
    fn span_fields_roundtrip_through_the_ring() {
        let t = Tracer::new(3, 8);
        let parent = t.record(SpanKind::Suspicion, 42, 0, 9, 1.25, 3.5);
        let child = t.record(SpanKind::Confirm, 42, parent, 9, 3.5, 3.5);
        let spans = t.recent();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Suspicion);
        assert_eq!(spans[0].start_s, 1.25);
        assert_eq!(spans[0].end_s, 3.5);
        assert_eq!(spans[1].parent, parent);
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].episode, 42);
    }

    #[test]
    fn ring_is_shared_across_clones() {
        let t = Tracer::new(1, 8);
        let u = t.clone();
        t.record(SpanKind::Remap, 1, 0, 0, 0.0, 0.0);
        assert_eq!(u.recent().len(), 1);
    }

    #[test]
    fn chrome_export_validates_and_counts() {
        let spans = vec![
            span(SpanKind::Episode, 1, 0, 0.0, 10.0),
            span(SpanKind::Suspicion, 1, 2, 1.0, 3.0),
            span(SpanKind::Confirm, 1, 2, 3.0, 3.0),
            span(SpanKind::ViewInstall, 1, 2, 4.0, 4.0),
        ];
        let text = chrome_trace_json(&spans);
        let stats = validate_chrome_trace(&text).expect("valid export");
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.episodes, 1);
        assert_eq!(stats.lanes, 2); // nodes 0 and 2
    }

    #[test]
    fn validator_rejects_partial_overlap() {
        // Two spans on one lane overlapping but neither containing the
        // other: [0, 5] and [3, 8].
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0.0,"dur":5.0,"pid":1,"tid":1},
            {"name":"b","ph":"X","ts":3.0,"dur":5.0,"pid":1,"tid":1}
        ]}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("not nested"), "{err}");
    }

    #[test]
    fn validator_accepts_nesting_and_disjoint_lanes() {
        let text = r#"{"traceEvents":[
            {"name":"outer","ph":"X","ts":0.0,"dur":10.0,"pid":1,"tid":1},
            {"name":"inner","ph":"X","ts":2.0,"dur":3.0,"pid":1,"tid":1},
            {"name":"later","ph":"X","ts":6.0,"dur":4.0,"pid":1,"tid":1},
            {"name":"other","ph":"X","ts":3.0,"dur":9.0,"pid":1,"tid":2}
        ]}"#;
        let stats = validate_chrome_trace(text).expect("nested + disjoint is fine");
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.lanes, 2);
    }

    #[test]
    fn validator_rejects_schema_violations() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"other\":1}").is_err());
        let missing_dur = r#"{"traceEvents":[{"name":"a","ph":"X","ts":0.0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(missing_dur)
            .unwrap_err()
            .contains("dur"));
        let bad_ts =
            r#"{"traceEvents":[{"name":"a","ph":"X","ts":-4.0,"dur":1.0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad_ts).unwrap_err().contains("ts"));
        let bad_ph =
            r#"{"traceEvents":[{"name":"a","ph":"B","ts":0.0,"dur":1.0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad_ph).unwrap_err().contains("phase"));
    }

    #[test]
    fn flight_recorder_report_groups_by_node() {
        let spans = vec![
            span(SpanKind::Suspicion, 1, 5, 1.0, 2.0),
            span(SpanKind::Confirm, 1, 5, 2.0, 2.0),
            span(SpanKind::ViewInstall, 1, 9, 3.0, 3.0),
        ];
        let report = flight_recorder_report("unit", &spans, 10);
        assert!(report.contains("3 spans on 2 nodes"));
        assert!(report.contains("suspicion"));
        assert!(report.contains("node    9"));
    }
}

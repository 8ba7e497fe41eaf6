//! The benchmark's own netsim driver for an [`OverlayNode`].
//!
//! Untraced it does exactly what the overlay crate's simulator adapter
//! does: run the callback into a fresh [`Outbox`], then hand the sends
//! and timers to the simulator. Traced it also timestamps each callback,
//! keys it by timer token or decoded frame kind, and decodes each
//! payload once more on its own to time the codec alone. Everything is
//! recorded from here, around public calls; the crates under test carry
//! no probes.

use apor_linkstate::Message;
use apor_membership::{wire::is_swim_tag, SwimMsg};
use apor_netsim::{Ctx, NodeBehavior};
use apor_overlay::node::{TOKEN_PROBE, TOKEN_ROUTING, TOKEN_SWIM};
use apor_overlay::{Outbox, OverlayNode};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What a callback was about: the key of its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    Start,
    TimerProbe,
    TimerRouting,
    TimerSwim,
    TimerOther,
    PacketProbe,
    PacketLinkState,
    PacketRec,
    PacketSwim,
    PacketView,
}

pub const KINDS: usize = 10;

impl Kind {
    fn of_token(token: u64) -> Kind {
        match token {
            TOKEN_PROBE => Kind::TimerProbe,
            TOKEN_ROUTING => Kind::TimerRouting,
            TOKEN_SWIM => Kind::TimerSwim,
            _ => Kind::TimerOther,
        }
    }

    /// Decode `payload` the way the node will and classify it. A frame
    /// that does not decode is keyed as a view frame: the node drops it
    /// at the same point it would dispatch one.
    fn of_payload(payload: &[u8]) -> Kind {
        if payload.first().copied().is_some_and(is_swim_tag) {
            let _ = std::hint::black_box(SwimMsg::decode_traced(payload));
            return Kind::PacketSwim;
        }
        match std::hint::black_box(Message::decode_traced(payload)) {
            Ok((Message::Probe(_) | Message::ProbeReply(_) | Message::ProbeBatch(_), _)) => {
                Kind::PacketProbe
            }
            Ok((Message::LinkState(_) | Message::LinkStateSparse(_), _)) => Kind::PacketLinkState,
            Ok((Message::Recommendations(_), _)) => Kind::PacketRec,
            Ok((Message::Join { .. } | Message::Leave { .. } | Message::View(_), _)) | Err(_) => {
                Kind::PacketView
            }
        }
    }
}

/// Sums over the spans of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSum {
    pub calls: u64,
    /// Time inside the callback proper (node call + outbox flush), ns.
    pub ns: u64,
    /// Time of the extra, codec-only decode, ns.
    pub decode_ns: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Packets the callback sent.
    pub sends: u64,
    /// Callbacks that sent nothing.
    pub silent: u64,
}

/// Per-node span recorder. Spans are folded into per-kind sums as they
/// end, so a traced run holds a few hundred bytes per node however long
/// it runs.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub spans: [SpanSum; KINDS],
    /// Time spent recording (view check, bookkeeping), ns.
    pub bookkeeping_ns: u64,
    pub view_installs: u64,
    last_view: Option<u32>,
}

impl Recorder {
    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.calls += b.calls;
            a.ns += b.ns;
            a.decode_ns += b.decode_ns;
            a.bytes += b.bytes;
            a.sends += b.sends;
            a.silent += b.silent;
        }
        self.bookkeeping_ns += other.bookkeeping_ns;
        self.view_installs += other.view_installs;
    }
}

/// One simulated node and, in a traced run, its recorder. Shared
/// between the simulator (which drives it) and the workload (which
/// queries routes and reads the recorder between `run_until` calls).
pub struct Hosted {
    pub node: OverlayNode,
    pub recorder: Option<Recorder>,
}

pub type Shared = Rc<RefCell<Hosted>>;

enum Stimulus<'a> {
    Start,
    Timer(u64),
    Packet(&'a [u8]),
}

pub struct BenchNode(Shared);

impl BenchNode {
    /// Host `node`; `traced` attaches a recorder. Returns the simulator's
    /// half and the workload's handle.
    pub fn host(node: OverlayNode, traced: bool) -> (Box<BenchNode>, Shared) {
        let shared = Rc::new(RefCell::new(Hosted {
            node,
            recorder: traced.then(Recorder::default),
        }));
        (Box::new(BenchNode(Rc::clone(&shared))), shared)
    }

    fn deliver(node: &mut OverlayNode, ctx: &mut Ctx<'_>, stimulus: &Stimulus<'_>) -> usize {
        let mut out = Outbox::default();
        let now = ctx.now();
        match *stimulus {
            Stimulus::Start => node.on_start(now, &mut out),
            Stimulus::Timer(token) => node.on_timer(now, token, &mut out),
            Stimulus::Packet(payload) => node.on_packet(now, payload, &mut out),
        }
        let sends = out.sends.len();
        for (to, class, bytes) in out.sends {
            ctx.send(to.index(), class, bytes);
        }
        for (delay, token) in out.timers {
            ctx.set_timer(delay, token);
        }
        sends
    }

    fn drive(&mut self, ctx: &mut Ctx<'_>, stimulus: Stimulus<'_>) {
        let hosted = &mut *self.0.borrow_mut();
        let Some(recorder) = hosted.recorder.as_mut() else {
            Self::deliver(&mut hosted.node, ctx, &stimulus);
            return;
        };
        let t0 = Instant::now();
        let (kind, bytes) = match stimulus {
            Stimulus::Start => (Kind::Start, 0),
            Stimulus::Timer(token) => (Kind::of_token(token), 0),
            Stimulus::Packet(payload) => (Kind::of_payload(payload), payload.len()),
        };
        let t1 = Instant::now();
        let sends = Self::deliver(&mut hosted.node, ctx, &stimulus);
        let t2 = Instant::now();
        let span = &mut recorder.spans[kind as usize];
        span.calls += 1;
        span.ns += (t2 - t1).as_nanos() as u64;
        span.decode_ns += (t1 - t0).as_nanos() as u64;
        span.bytes += bytes as u64;
        span.sends += sends as u64;
        span.silent += u64::from(sends == 0);
        let view = hosted.node.view().map(|v| v.version);
        if view != recorder.last_view {
            recorder.last_view = view;
            recorder.view_installs += 1;
        }
        recorder.bookkeeping_ns += t2.elapsed().as_nanos() as u64;
    }
}

impl NodeBehavior for BenchNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.drive(ctx, Stimulus::Start);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: usize, payload: &[u8]) {
        self.drive(ctx, Stimulus::Packet(payload));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.drive(ctx, Stimulus::Timer(token));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

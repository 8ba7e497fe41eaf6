//! The compact binary wire format (section 5, "Table Exchange").
//!
//! The paper stresses that the original RON's verbose link-state encoding
//! made routing messages "about twice as large as necessary" (footnote 9)
//! and replaces it with a compact representation: 3 bytes per link-state
//! entry and 4 bytes per one-hop recommendation. The message sizes here
//! are chosen so that, with the default 30 s probe / 30 s (RON) or 15 s
//! (quorum) routing intervals, the theoretical bandwidth formulas of
//! section 6 come out with the paper's constants:
//!
//! * probe / probe-reply: **18 B** payload (+28 B IP/UDP) — probing traffic
//!   `49.1·n` bps;
//! * link-state message: **21 B** header + `3·n` B — RON routing traffic
//!   `1.6·n² + 24.5·n` bps;
//! * recommendation message: **23 B** header + `4·k` B for `k` entries —
//!   quorum routing traffic `6.4·n√n + 17.1·n + Θ(√n)` bps.
//!
//! Encoding is hand-rolled big-endian over [`bytes`]; no serde on the hot
//! path. Membership-service messages (join/leave/view) share the same
//! envelope but are rare, so their size is not calibrated.
//!
//! A link-state frame is most of the control plane's bytes, so its body
//! moves at copy speed in both directions. The writer stages 64 records
//! at a time in a stack buffer (`put_records`) instead of appending
//! field by field; only a dense frame of a row that skips destinations
//! is still written slot by slot. The reader checks a routing frame in
//! one pass where it lies — [`LinkStateFrame`], and [`RecFrame`] for
//! recommendations — and allocates nothing: a router reads the entries
//! off the bytes ([`LinkStateRow`]), and what it keeps is all a frame
//! costs. [`Message::decode`] is that check followed by the owned build,
//! each lane filled at its exact size, one allocation a lane
//! (`decode_lane`); a dense frame whose entries are all live — every
//! frame under the paper's full-mesh probing — decodes to a full row,
//! whose destination lane is never built (see [`LaneRow`]).
//!
//! An entry's three bytes part on the way in: its latency is what a
//! router keeps — in the full-mesh matrix, or in the row
//! ([`LinkStateMsg::row`]) a store holds — and its liveness/loss byte,
//! which no route reads, stays in the payload. Only the owned decode
//! copies it out, into the message's own lane
//! ([`LinkStateMsg::liveness_loss`]), which is dropped with the message.

use crate::entry::LinkEntry;
use crate::store::{DstLane, LaneRow};
use apor_quorum::NodeId;
use apor_telemetry::trace::{TraceCtx, TRACE_CTX_SIZE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Bytes of IP + UDP framing accounted per packet in bandwidth figures.
pub const UDP_IP_OVERHEAD: usize = 28;

/// Wire size of a probe or probe-reply payload.
pub const PROBE_WIRE_SIZE: usize = 18;
/// Wire size of the link-state message header (entries add `3·n`).
pub const LINKSTATE_HEADER_SIZE: usize = 21;
/// Wire size of the recommendation message header (entries add 4 or 6 each).
pub const REC_HEADER_SIZE: usize = 23;
/// Wire size of the probe-batch header (items add their own sizes).
pub const PROBE_BATCH_HEADER_SIZE: usize = 12;
/// Wire size of the sparse link-state header (entries add 5 each).
pub const SPARSE_LINKSTATE_HEADER_SIZE: usize = 23;

/// Message type tags.
const T_PROBE: u8 = 1;
const T_PROBE_REPLY: u8 = 2;
const T_LINKSTATE: u8 = 3;
const T_RECOMMENDATIONS: u8 = 4;
const T_JOIN: u8 = 5;
const T_LEAVE: u8 = 6;
const T_VIEW: u8 = 7;
const T_PROBE_BATCH: u8 = 8;
const T_LINKSTATE_SPARSE: u8 = 9;

/// Probe-batch item tags.
const TI_PING: u8 = 1;
const TI_PONG: u8 = 2;
const TI_GAUGE: u8 = 3;

/// Probe-batch flags-byte bit marking a trailing trace context
/// ([`TraceCtx`], [`TRACE_CTX_SIZE`] bytes after the item list).
/// Presence is signalled in the header, so every truncation of a
/// traced frame changes the expected total length and fails to decode;
/// frames without the bit are bit-identical to the legacy format.
pub const PROBE_FLAG_TRACE: u8 = 0x01;

/// Link-state flags bit (dense and sparse frames) marking a trailing
/// *route-discipline* section after the entry list: the origin's row
/// sequence number (`u16`) plus an explicit retraction list (`u16`
/// count, then that many strictly-ascending destination indices the
/// origin withdraws). Like [`PROBE_FLAG_TRACE`], presence is signalled
/// in the header, so truncating a versioned frame at any byte fails to
/// decode, and frames without the bit — seqno 0, no retractions — are
/// bit-identical to the legacy format (old captures need no flag day).
pub const LS_FLAG_SEQNO: u16 = 0x0001;

/// Fixed bytes of the seqno trailer before the retraction list
/// (`seqno: u16` + `count: u16`); each retraction adds 2 bytes.
pub const LS_SEQNO_TRAILER_BASE: usize = 4;

/// Bytes the route-discipline trailer adds to a link-state frame with
/// sequence number `seqno` and `retractions` withdrawn destinations:
/// zero for the legacy flagless form (seqno 0, nothing retracted).
#[must_use]
pub fn ls_trailer_size(seqno: u16, retractions: &[u16]) -> usize {
    if seqno == 0 && retractions.is_empty() {
        0
    } else {
        LS_SEQNO_TRAILER_BASE + 2 * retractions.len()
    }
}

/// The wire bytes of a dead dense entry, as [`LinkEntry::dead`] encodes:
/// the dead-latency sentinel and a clear liveness bit over a saturated
/// loss field.
const DEAD_ENTRY_WIRE: [u8; LinkEntry::WIRE_SIZE] = [0xFF, 0xFF, 0x7F];

/// Append one record per entry of the index-aligned lanes: the 3-byte
/// link-state entry, preceded by its 2-byte destination when `STRIDE`
/// is 5 (a sparse frame) and bare when it is 3 (a dense frame of a full
/// row, whose destinations are the slots themselves). Records are
/// staged `PUT_CHUNK` at a time in a stack buffer and appended with
/// one `put_slice` each, so writing a row is a copy loop rather than
/// two or three buffer appends per entry.
fn put_records<const STRIDE: usize>(
    b: &mut BytesMut,
    dst: &[u16],
    latency_ms: &[u16],
    liveness_loss: &[u8],
) {
    /// Records staged per `put_slice`.
    const PUT_CHUNK: usize = 64;
    let entry_at = STRIDE - LinkEntry::WIRE_SIZE;
    let mut buf = [[0u8; STRIDE]; PUT_CHUNK];
    let lanes = dst
        .chunks(PUT_CHUNK)
        .zip(latency_ms.chunks(PUT_CHUNK))
        .zip(liveness_loss.chunks(PUT_CHUNK));
    for ((dst, latency_ms), liveness_loss) in lanes {
        for (((record, d), l), v) in buf.iter_mut().zip(dst).zip(latency_ms).zip(liveness_loss) {
            record[..entry_at].copy_from_slice(&d.to_be_bytes()[..entry_at]);
            record[entry_at..entry_at + 2].copy_from_slice(&l.to_be_bytes());
            record[entry_at + 2] = *v;
        }
        b.put_slice(buf[..dst.len()].as_flattened());
    }
}

/// Write a link-state frame after its type tag: header, entry list
/// straight from the row's lanes and the message's liveness lane, and
/// the route-discipline trailer when the row is versioned. `sparse`
/// lists the live entries as `(dst, entry)`; dense writes all `width`
/// slots, dead where the lanes skip a destination.
///
/// # Panics
/// Panics if the liveness lane and the row differ in length: the frame
/// would not say what the row says.
fn put_linkstate(b: &mut BytesMut, m: &LinkStateMsg, sparse: bool) {
    let (dst, latency_ms) = m.row.lanes();
    let liveness_loss = &*m.liveness_loss;
    let retracted = m.row.retracted();
    assert_eq!(
        liveness_loss.len(),
        dst.len(),
        "one liveness byte per live entry"
    );
    debug_assert!(
        dst.last().is_none_or(|&d| d < m.width),
        "row wider than width"
    );
    b.put_u16(m.from.0);
    b.put_u16(m.to.0);
    b.put_u32(m.view);
    b.put_u32(m.round);
    b.put_u16(if sparse { dst.len() as u16 } else { m.width });
    b.put_u32(m.basis_ms);
    if sparse {
        b.put_u16(m.width);
    }
    let versioned = ls_trailer_size(m.row.seqno(), retracted) != 0;
    b.put_u16(if versioned { LS_FLAG_SEQNO } else { 0 });
    if sparse {
        put_records::<5>(b, dst, latency_ms, liveness_loss);
    } else if dst.len() == usize::from(m.width) {
        // A full row: every slot is the next lane entry.
        put_records::<3>(b, dst, latency_ms, liveness_loss);
    } else {
        let mut next = 0;
        for slot in 0..m.width {
            if dst.get(next) == Some(&slot) {
                b.put_u16(latency_ms[next]);
                b.put_u8(liveness_loss[next]);
                next += 1;
            } else {
                b.put_slice(&DEAD_ENTRY_WIRE);
            }
        }
    }
    if versioned {
        b.put_u16(m.row.seqno());
        b.put_u16(retracted.len() as u16);
        for &d in retracted {
            b.put_u16(d);
        }
    }
}

/// Offset of the addressee in a link-state frame, dense or sparse: after
/// the type tag and the origin, as `put_linkstate` writes them.
const LS_TO_OFFSET: usize = 3;

/// A copy of `frame`, an encoded link-state frame (dense or sparse),
/// addressed to `to` instead: byte for byte what [`Message::encode`]
/// writes for the same message with that `to`, since nothing else in
/// the frame depends on the addressee. A node that sends one row to
/// many peers encodes it once and stamps the copies.
///
/// # Panics
/// Panics unless `frame` starts with a link-state type tag and reaches
/// past the addressee.
#[must_use]
pub fn readdress_linkstate(frame: &[u8], to: NodeId) -> Bytes {
    assert!(
        matches!(frame.first(), Some(&(T_LINKSTATE | T_LINKSTATE_SPARSE)))
            && frame.len() >= LS_TO_OFFSET + 2,
        "not a link-state frame"
    );
    let mut copy = frame.to_vec();
    copy[LS_TO_OFFSET..LS_TO_OFFSET + 2].copy_from_slice(&to.0.to_be_bytes());
    Bytes::from(copy)
}

/// Is the record's entry alive? The liveness byte closes the record in
/// both frame forms.
fn record_is_live(record: &&[u8]) -> bool {
    record[record.len() - 1] & 0x80 != 0
}

/// The destination a sparse record opens with.
fn record_dst(record: &[u8]) -> u16 {
    u16::from_be_bytes([record[0], record[1]])
}

/// The latency of the entry at `entry_at` in a record, clamped below
/// the dead sentinel, as [`LinkEntry::encode`] would emit a live one.
fn record_latency(record: &[u8], entry_at: usize) -> u16 {
    u16::from_be_bytes([record[entry_at], record[entry_at + 1]]).min(LinkEntry::DEAD_LATENCY - 1)
}

/// Big-endian `u16`s, read two bytes at a time.
fn be_u16s(bytes: &[u8]) -> impl Iterator<Item = u16> + '_ {
    bytes
        .chunks_exact(2)
        .map(|pair| u16::from_be_bytes([pair[0], pair[1]]))
}

/// The `len` items of `items`, collected at their exact size: a source
/// that says its length up front lets a `Vec` or an `Arc<[T]>` allocate
/// once, where a filtered one would grow the `Vec` or copy it into the
/// `Arc`.
fn exactly<T, C: FromIterator<T>>(len: usize, mut items: impl Iterator<Item = T>) -> C {
    (0..len)
        .map(|_| items.next().expect("as many items as counted"))
        .collect()
}

/// One lane of a decoded frame: `read` over the live records of `body`,
/// in exactly the `live` slots it needs — one allocation, whether the
/// lane is a `Vec` or a shared `Arc<[T]>`. When every record is live —
/// every frame under full-mesh probing — the records are read straight
/// through; otherwise dead records are filtered out on the way.
fn decode_lane<T, C: FromIterator<T>>(
    body: &[u8],
    stride: usize,
    live: usize,
    read: impl Fn(&[u8]) -> T,
) -> C {
    let records = body.chunks_exact(stride);
    if live == records.len() {
        records.map(read).collect()
    } else {
        exactly(live, records.filter(record_is_live).map(read))
    }
}

/// Read the `(type, from, to)` prefix every frame opens with.
fn get_prefix(b: &mut &[u8]) -> Result<(u8, NodeId, NodeId), WireError> {
    if b.remaining() < 5 {
        return Err(WireError::Truncated);
    }
    Ok((b.get_u8(), NodeId(b.get_u16()), NodeId(b.get_u16())))
}

/// A link-state frame, dense or sparse, checked and still in its
/// payload: the header, and the entry records and the retraction list
/// as slices of the bytes. [`parse`](Self::parse) makes every check the
/// owned decode makes — [`Message::decode`] is `parse` and then
/// [`to_message`](Self::to_message) — so a frame parses exactly when it
/// decodes.
///
/// A router reads a frame where it lies ([`LinkStateRow`]): the
/// full-mesh baseline writes the live `(dst, latency)` pairs straight
/// into its matrix, and the quorum router builds the row it keeps
/// ([`row`](Self::row)) once the frame has passed its view and width
/// checks. Nothing builds the liveness lane but the owned decode.
#[derive(Debug, Clone, Copy)]
pub struct LinkStateFrame<'a> {
    /// Origin (the measuring node), as the wire names it.
    pub from: NodeId,
    /// Addressed rendezvous server, as the wire names it.
    pub to: NodeId,
    /// Origin's membership view version.
    pub view: u32,
    /// Routing round counter at the origin.
    pub round: u32,
    /// Origin clock (ms) when the row was snapshotted.
    pub basis_ms: u32,
    /// Row width: every destination the frame names is below it.
    pub width: u16,
    sparse: bool,
    /// How many of the records are live.
    live: usize,
    /// The entry records: 3 bytes each (dense, one per slot) or 5
    /// (sparse, each led by its destination), destinations checked
    /// strictly ascending and in range.
    body: &'a [u8],
    seqno: u16,
    /// The retraction list: big-endian `u16`s, checked strictly
    /// ascending and in range.
    retracted: &'a [u8],
}

impl<'a> LinkStateFrame<'a> {
    /// Check `bytes` as a whole link-state frame, type tag first.
    /// Entries must be strictly ascending and in range in a sparse
    /// frame, dead ones included — the row kernels rely on it; the
    /// route-discipline trailer must be present exactly when the header
    /// flags it, its retractions strictly ascending and `< width`, and
    /// it must not be the empty `(0, [])` trailer, which encodes
    /// flagless.
    ///
    /// # Errors
    /// [`WireError::BadType`] when `bytes` is another kind of frame, and
    /// the error [`Message::decode`] returns for it when it is a
    /// malformed link-state frame. Never panics.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut b = bytes;
        let (typ, from, to) = get_prefix(&mut b)?;
        let sparse = match typ {
            T_LINKSTATE => false,
            T_LINKSTATE_SPARSE => true,
            other => return Err(WireError::BadType(other)),
        };
        let header = if sparse {
            SPARSE_LINKSTATE_HEADER_SIZE
        } else {
            LINKSTATE_HEADER_SIZE
        };
        if b.remaining() < header - 5 {
            return Err(WireError::Truncated);
        }
        let view = b.get_u32();
        let round = b.get_u32();
        let count = b.get_u16();
        let basis_ms = b.get_u32();
        let width = if sparse { b.get_u16() } else { count };
        let versioned = b.get_u16() & LS_FLAG_SEQNO != 0;
        let stride = Self::stride_of(sparse);
        let body_len = usize::from(count) * stride;
        if versioned {
            if b.remaining() < body_len {
                return Err(WireError::Truncated);
            }
        } else if b.remaining() != body_len {
            return Err(WireError::BadLength);
        }
        let (body, mut b) = b.split_at(body_len);
        let mut live = 0;
        let mut prev: Option<u16> = None;
        for e in body.chunks_exact(stride) {
            if sparse {
                let d = record_dst(e);
                if d >= width || prev.is_some_and(|p| d <= p) {
                    return Err(WireError::BadLength);
                }
                prev = Some(d);
            }
            live += usize::from(record_is_live(&e));
        }
        let (seqno, retracted) = if versioned {
            get_ls_trailer(&mut b, width)?
        } else {
            (0, &[][..])
        };
        Ok(LinkStateFrame {
            from,
            to,
            view,
            round,
            basis_ms,
            width,
            sparse,
            live,
            body,
            seqno,
            retracted,
        })
    }

    /// Bytes per record: a sparse record is a 2-byte destination ahead
    /// of the 3-byte entry.
    fn stride_of(sparse: bool) -> usize {
        if sparse {
            2 + LinkEntry::WIRE_SIZE
        } else {
            LinkEntry::WIRE_SIZE
        }
    }

    /// Where the entry starts in a record.
    fn entry_at(&self) -> usize {
        Self::stride_of(self.sparse) - LinkEntry::WIRE_SIZE
    }

    /// The entry records.
    fn records(&self) -> std::slice::ChunksExact<'a, u8> {
        self.body.chunks_exact(Self::stride_of(self.sparse))
    }

    /// The retraction list, strictly ascending.
    fn retracted(&self) -> impl Iterator<Item = u16> + 'a {
        be_u16s(self.retracted)
    }

    /// The row as a store holds it, each lane filled at its exact size
    /// straight from the bytes, one allocation a lane
    /// (`decode_lane`): the latency lane, the destination lane unless
    /// a dense frame has every entry live (a full row borrows its
    /// destinations), and the retraction lane when there is one. No
    /// [`LinkEntry`] and no `f32` is materialised.
    #[must_use]
    pub fn row(&self) -> LaneRow {
        let (stride, entry_at, live) = (Self::stride_of(self.sparse), self.entry_at(), self.live);
        let records = self.records();
        let dst = if self.sparse {
            decode_lane::<_, Vec<_>>(self.body, stride, live, record_dst).into()
        } else if live == records.len() {
            DstLane::Full(live)
        } else {
            let mut dst = Vec::with_capacity(live);
            dst.extend(self.live_entries().map(|(slot, _)| slot));
            dst.into()
        };
        let latency_ms = decode_lane(self.body, stride, live, |e| record_latency(e, entry_at));
        LaneRow::from_wire_lanes(dst, latency_ms, self.seqno, self.retracted().collect())
    }

    /// The wire liveness/loss byte of each live entry, in one
    /// allocation ([`LinkStateMsg::liveness_loss`]).
    fn liveness_lane(&self) -> Arc<[u8]> {
        let at = self.entry_at() + 2;
        decode_lane(self.body, Self::stride_of(self.sparse), self.live, |e| {
            e[at]
        })
    }

    /// The owned message: [`row`](Self::row) behind an `Arc` and the
    /// liveness lane beside it, in the variant of the frame's form.
    #[must_use]
    pub fn to_message(&self) -> Message {
        let ls = LinkStateMsg {
            from: self.from,
            to: self.to,
            view: self.view,
            round: self.round,
            basis_ms: self.basis_ms,
            width: self.width,
            row: Arc::new(self.row()),
            liveness_loss: self.liveness_lane(),
        };
        if self.sparse {
            Message::LinkStateSparse(ls)
        } else {
            Message::LinkState(ls)
        }
    }
}

/// Check the route-discipline trailer: the rest of `b`, which must
/// contain exactly the trailer. Retractions must be strictly ascending
/// and `< width`; a canonical frame never carries an empty trailer
/// (that form encodes flagless). Returns the seqno and the retraction
/// list's bytes.
fn get_ls_trailer<'a>(b: &mut &'a [u8], width: u16) -> Result<(u16, &'a [u8]), WireError> {
    if b.remaining() < LS_SEQNO_TRAILER_BASE {
        return Err(WireError::Truncated);
    }
    let seqno = b.get_u16();
    let count = b.get_u16() as usize;
    if b.remaining() != count * 2 {
        return Err(WireError::BadLength);
    }
    let lane = std::mem::take(b);
    let mut prev: Option<u16> = None;
    for dst in be_u16s(lane) {
        if dst >= width || prev.is_some_and(|p| dst <= p) {
            return Err(WireError::BadLength);
        }
        prev = Some(dst);
    }
    if seqno == 0 && count == 0 {
        // Non-canonical: the legacy-identical form must be flagless.
        return Err(WireError::BadLength);
    }
    Ok((seqno, lane))
}

/// A link-state row as a router takes it in — from an owned
/// [`LinkStateMsg`], or from a [`LinkStateFrame`] still in its payload —
/// so each router has one ingest for both. Every destination is below
/// [`width`](Self::width), as decoding guarantees and encoding requires.
pub trait LinkStateRow {
    /// The origin's membership view version.
    fn view(&self) -> u32;

    /// The row width.
    fn width(&self) -> u16;

    /// The live entries as `(dst, latency_ms)`, ascending by
    /// destination.
    fn live_entries(&self) -> impl Iterator<Item = (u16, u16)> + '_;

    /// The row as a store holds it: the message's own `Arc`, or one
    /// built from the frame — the only allocations a frame's row costs.
    fn shared_row(&self) -> Arc<LaneRow>;
}

impl LinkStateRow for LinkStateMsg {
    fn view(&self) -> u32 {
        self.view
    }

    fn width(&self) -> u16 {
        self.width
    }

    fn live_entries(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        let (dst, latency_ms) = self.row.lanes();
        dst.iter().copied().zip(latency_ms.iter().copied())
    }

    fn shared_row(&self) -> Arc<LaneRow> {
        Arc::clone(&self.row)
    }
}

impl LinkStateRow for LinkStateFrame<'_> {
    fn view(&self) -> u32 {
        self.view
    }

    fn width(&self) -> u16 {
        self.width
    }

    /// Read off the bytes; a dead entry is skipped — absence *is*
    /// death in a row.
    fn live_entries(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        let (sparse, entry_at) = (self.sparse, self.entry_at());
        self.records()
            .enumerate()
            .filter(|(_, e)| record_is_live(e))
            .map(move |(slot, e)| {
                // A dense frame's slots are its destinations, and there
                // are at most `u16::MAX` of them.
                #[allow(clippy::cast_possible_truncation)]
                let dst = if sparse { record_dst(e) } else { slot as u16 };
                (dst, record_latency(e, entry_at))
            })
    }

    fn shared_row(&self) -> Arc<LaneRow> {
        Arc::new(self.row())
    }
}

/// A recommendation frame, checked and still in its payload: the header
/// and the entries as a slice of the bytes. [`Message::decode`] is
/// [`parse`](Self::parse) and then [`to_message`](Self::to_message); a
/// node hands [`entries`](Self::entries) to its router one by one, each
/// translated as it passes, and builds no `Vec<RecEntry>`.
#[derive(Debug, Clone, Copy)]
pub struct RecFrame<'a> {
    /// The rendezvous server, as the wire names it.
    pub from: NodeId,
    /// The client, as the wire names it.
    pub to: NodeId,
    /// Server's membership view version.
    pub view: u32,
    /// Server's routing round counter.
    pub round: u32,
    /// Server clock (ms) when the recommendations were computed.
    pub basis_ms: u32,
    /// Entry encoding.
    pub format: RecFormat,
    /// The entries, [`RecFormat::entry_size`] bytes each.
    body: &'a [u8],
}

impl<'a> RecFrame<'a> {
    /// Check `bytes` as a whole recommendation frame, type tag first:
    /// the entry count must account for every byte after the header.
    ///
    /// # Errors
    /// [`WireError::BadType`] when `bytes` is another kind of frame, and
    /// the error [`Message::decode`] returns for it when it is a
    /// malformed recommendation frame. Never panics.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut b = bytes;
        let (typ, from, to) = get_prefix(&mut b)?;
        if typ != T_RECOMMENDATIONS {
            return Err(WireError::BadType(typ));
        }
        if b.remaining() < REC_HEADER_SIZE - 5 {
            return Err(WireError::Truncated);
        }
        let view = b.get_u32();
        let round = b.get_u32();
        let count = b.get_u16() as usize;
        let basis_ms = b.get_u32();
        let format = if b.get_u32() & 1 == 1 {
            RecFormat::WithCost
        } else {
            RecFormat::Compact
        };
        if b.remaining() != count * format.entry_size() {
            return Err(WireError::BadLength);
        }
        Ok(RecFrame {
            from,
            to,
            view,
            round,
            basis_ms,
            format,
            body: b,
        })
    }

    /// The entries in frame order, ids as the wire names them; `cost_ms`
    /// is `u16::MAX` in the compact format.
    pub fn entries(&self) -> impl Iterator<Item = RecEntry> + 'a {
        let format = self.format;
        self.body
            .chunks_exact(format.entry_size())
            .map(move |e| RecEntry {
                dst: NodeId(u16::from_be_bytes([e[0], e[1]])),
                hop: NodeId(u16::from_be_bytes([e[2], e[3]])),
                cost_ms: if format == RecFormat::WithCost {
                    u16::from_be_bytes([e[4], e[5]])
                } else {
                    u16::MAX
                },
            })
    }

    /// The owned message, its entries in one exact-size `Vec`.
    #[must_use]
    pub fn to_message(&self) -> Message {
        Message::Recommendations(RecommendationMsg {
            from: self.from,
            to: self.to,
            view: self.view,
            round: self.round,
            basis_ms: self.basis_ms,
            format: self.format,
            recs: self.entries().collect(),
        })
    }
}

/// Errors from [`Message::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message-type tag.
    BadType(u8),
    /// A length field disagrees with the buffer.
    BadLength,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadType(t) => write!(f, "unknown message type {t}"),
            WireError::BadLength => write!(f, "inconsistent length field"),
        }
    }
}

impl std::error::Error for WireError {}

/// A probe (ping) message. 18 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeMsg {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Sender's membership view version.
    pub view: u32,
    /// Probe sequence number (per sender–receiver pair).
    pub seq: u32,
    /// Sender clock at transmission, milliseconds (echoed by the reply).
    pub sent_ms: u32,
}

/// A probe reply. 18 bytes; echoes `seq` and `sent_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeReplyMsg {
    /// Sender of the reply (the probed node).
    pub from: NodeId,
    /// The original prober.
    pub to: NodeId,
    /// Replier's membership view version.
    pub view: u32,
    /// Echoed probe sequence number.
    pub seq: u32,
    /// Echoed sender clock from the probe.
    pub echo_sent_ms: u32,
}

/// One item of a [`ProbeBatchMsg`]: everything one node owes one peer in
/// a probing round rides a single frame instead of one 46-byte packet
/// (18 B payload + 28 B framing) per ping, pong and gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeItem {
    /// An outgoing probe: 9 bytes on the wire.
    Ping {
        /// Probe sequence number (echoed by the matching pong).
        seq: u32,
        /// Sender clock at transmission, milliseconds.
        sent_ms: u32,
    },
    /// A probe reply: 9 bytes on the wire.
    Pong {
        /// Echoed probe sequence number.
        seq: u32,
        /// Echoed sender clock from the probe.
        echo_sent_ms: u32,
    },
    /// The sender's current measurement of the *reverse* path (its
    /// smoothed RTT and loss towards the addressee), piggybacked so the
    /// addressee can adopt the symmetric estimate without probing back
    /// at full rate. 5 bytes on the wire.
    Gauge {
        /// Sender's smoothed RTT to the addressee, ms.
        rtt_ms: u16,
        /// Sender's loss estimate towards the addressee, per-mille.
        loss_pm: u16,
    },
}

impl ProbeItem {
    /// Serialized size of this item, including its 1-byte tag.
    #[must_use]
    pub fn wire_size(self) -> usize {
        match self {
            ProbeItem::Ping { .. } | ProbeItem::Pong { .. } => 9,
            ProbeItem::Gauge { .. } => 5,
        }
    }
}

/// A batched probe frame: all outstanding probe work towards one peer
/// (pings, pongs and the reverse-path gauge) in one transmission.
/// `12 + Σ item` bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeBatchMsg {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Sender's membership view version.
    pub view: u32,
    /// The batched items, in send order.
    pub items: Vec<ProbeItem>,
}

/// A round-one link-state message: the origin's measured row.
///
/// The body is the row as the stores hold it — a [`LaneRow`]: the live
/// entries' destinations and wire-exact latencies, plus the origin's
/// sequence number and retraction lane ([`LS_FLAG_SEQNO`] trailer) —
/// and beside it the entries' liveness/loss bytes, which only the wire
/// carries ([`liveness_loss`](Self::liveness_loss)). Decoding fills the
/// lanes straight from the frame bytes and encoding writes them back,
/// so a row crosses the codec without ever becoming a `LinkEntry`
/// array; the `Arc`s let a tick's `~2√n` frames and the sender's own
/// store share one row and one liveness lane, and let the receiver's
/// store keep the decoded row by bumping a count instead of copying
/// lanes.
///
/// One struct serves both encodings; the [`Message`] variant picks one:
///
/// * [`Message::LinkState`] — dense, `21 + 3·width` bytes: every slot
///   `0..width` on the wire, dead where the row lists nothing;
/// * [`Message::LinkStateSparse`] — `23 + 5·k` bytes for the `k` live
///   entries as `(dst, entry)` pairs. Under sub-quadratic probing a
///   node measures only its `O(√n)` entitled peers plus a constant
///   sample, so `k ≪ n` and the sparse form wins whenever
///   `k < (3·n − 2) / 5`. Semantically identical to the dense form.
///
/// A versioned row (nonzero seqno or any retraction) adds the trailer;
/// an unversioned one is bit-identical to the legacy flagless format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkStateMsg {
    /// Origin (the measuring node).
    pub from: NodeId,
    /// Addressed rendezvous server.
    pub to: NodeId,
    /// Origin's membership view version. Receivers drop rows from other
    /// views: grid indices are only meaningful within one view.
    pub view: u32,
    /// Routing round counter at the origin.
    pub round: u32,
    /// Origin clock (ms) when the row was snapshotted.
    pub basis_ms: u32,
    /// Row width (the view size `n`): the number of slots a dense frame
    /// carries, and the bound on every destination in `row`. Encoding a
    /// row that lists a destination `≥ width` is a caller bug; decoding
    /// never produces one.
    pub width: u16,
    /// The row: live entries, seqno and retraction lane.
    pub row: Arc<LaneRow>,
    /// The wire liveness/loss byte of each of `row`'s live entries,
    /// index-aligned with its lanes (bit 7, alive, always set; the loss
    /// in half-percent units below it). No route reads it — a route's
    /// cost is its latency — so no store holds it: the sender builds it
    /// once a tick ([`LinkStateMsg::liveness_lane`]) and every frame of
    /// the tick shares it, and it is dropped with the message. On the
    /// way in only the owned decode builds it
    /// ([`LinkStateFrame::to_message`]); a node reads frames where they
    /// lie and never does. Encoding a message whose lane and row differ
    /// in length panics.
    pub liveness_loss: Arc<[u8]>,
}

impl LinkStateMsg {
    /// The liveness lane of the row reduced from `entries`
    /// ([`LaneRow::from_dense`], or [`LaneRow::from_pairs`] of the same
    /// entries in order): the wire liveness byte
    /// ([`LinkEntry::liveness_byte`]) of each live entry, in order, in
    /// one allocation.
    #[must_use]
    pub fn liveness_lane(entries: &[LinkEntry]) -> Arc<[u8]> {
        let live = entries.iter().filter(|e| e.alive);
        exactly(live.clone().count(), live.map(LinkEntry::liveness_byte))
    }
}

/// One best-hop recommendation: "to reach `dst`, forward via `hop`"
/// (`hop == dst` means the direct link is best). 4 bytes, or 6 with the
/// optional cost (the `WithCost` ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecEntry {
    /// Destination this recommendation is about.
    pub dst: NodeId,
    /// Best first hop towards `dst`.
    pub hop: NodeId,
    /// Path cost (ms) as computed by the rendezvous; only on the wire in
    /// [`RecFormat::WithCost`]. `u16::MAX` when absent.
    pub cost_ms: u16,
}

/// Wire format of recommendation entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RecFormat {
    /// The paper's 4-byte `(dst, hop)` entries.
    #[default]
    Compact,
    /// 6-byte `(dst, hop, cost)` entries — an ablation that spends
    /// bandwidth to let clients arbitrate recommendations by cost.
    WithCost,
}

impl RecFormat {
    /// Bytes per recommendation entry.
    #[must_use]
    pub fn entry_size(self) -> usize {
        match self {
            RecFormat::Compact => 4,
            RecFormat::WithCost => 6,
        }
    }
}

/// A round-two recommendation message from a rendezvous server to one of
/// its clients. `23 + entry_size·k` bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendationMsg {
    /// The rendezvous server.
    pub from: NodeId,
    /// The client these recommendations are for.
    pub to: NodeId,
    /// Server's membership view version.
    pub view: u32,
    /// Server's routing round counter.
    pub round: u32,
    /// Server clock (ms) when the recommendations were computed.
    pub basis_ms: u32,
    /// Entry encoding.
    pub format: RecFormat,
    /// Best-hop recommendations, one per destination the server covers.
    pub recs: Vec<RecEntry>,
}

/// Membership view broadcast by the coordinator: the sorted member list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewMsg {
    /// The coordinator.
    pub from: NodeId,
    /// Addressee.
    pub to: NodeId,
    /// Monotonic view version.
    pub view: u32,
    /// Sorted member IDs; grid index = position in this list.
    pub members: Vec<NodeId>,
}

/// Any overlay message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Link probe.
    Probe(ProbeMsg),
    /// Probe reply.
    ProbeReply(ProbeReplyMsg),
    /// Batched probe frame (pings + pongs + reverse-path gauge in one).
    ProbeBatch(ProbeBatchMsg),
    /// Round-one link-state row.
    LinkState(LinkStateMsg),
    /// Round-one link-state row, live entries only.
    LinkStateSparse(LinkStateMsg),
    /// Round-two recommendations.
    Recommendations(RecommendationMsg),
    /// Membership: join request to the coordinator.
    Join {
        /// Joining node.
        from: NodeId,
        /// Coordinator.
        to: NodeId,
    },
    /// Membership: leave notice to the coordinator.
    Leave {
        /// Leaving node.
        from: NodeId,
        /// Coordinator.
        to: NodeId,
    },
    /// Membership: view broadcast.
    View(ViewMsg),
}

impl Message {
    /// The sender.
    #[must_use]
    pub fn from(&self) -> NodeId {
        match self {
            Message::Probe(m) => m.from,
            Message::ProbeReply(m) => m.from,
            Message::ProbeBatch(m) => m.from,
            Message::LinkState(m) => m.from,
            Message::LinkStateSparse(m) => m.from,
            Message::Recommendations(m) => m.from,
            Message::Join { from, .. } | Message::Leave { from, .. } => *from,
            Message::View(m) => m.from,
        }
    }

    /// The addressee.
    #[must_use]
    pub fn to(&self) -> NodeId {
        match self {
            Message::Probe(m) => m.to,
            Message::ProbeReply(m) => m.to,
            Message::ProbeBatch(m) => m.to,
            Message::LinkState(m) => m.to,
            Message::LinkStateSparse(m) => m.to,
            Message::Recommendations(m) => m.to,
            Message::Join { to, .. } | Message::Leave { to, .. } => *to,
            Message::View(m) => m.to,
        }
    }

    /// Serialize to bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        self.encode_traced(None)
    }

    /// Serialize, appending `ctx` as a trace trailer when present.
    ///
    /// Only [`Message::ProbeBatch`] carries a trace context (the only
    /// routing-plane frame sent during convergence episodes); for every
    /// other variant — and for `None` — the output is byte-for-byte
    /// [`Message::encode`]. The buffer is sized for the trailer up
    /// front and the header's flags byte is written with the trace bit
    /// already set, so a traced frame is built in one pass.
    #[must_use]
    pub fn encode_traced(&self, ctx: Option<&TraceCtx>) -> Bytes {
        let ctx = ctx.filter(|_| matches!(self, Message::ProbeBatch(_)));
        let trailer = if ctx.is_some() { TRACE_CTX_SIZE } else { 0 };
        let mut b = BytesMut::with_capacity(self.wire_size() + trailer);
        match self {
            Message::Probe(m) => {
                b.put_u8(T_PROBE);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u32(m.seq);
                b.put_u32(m.sent_ms);
                b.put_u8(0); // flags
            }
            Message::ProbeReply(m) => {
                b.put_u8(T_PROBE_REPLY);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u32(m.seq);
                b.put_u32(m.echo_sent_ms);
                b.put_u8(0); // flags
            }
            Message::ProbeBatch(m) => {
                b.put_u8(T_PROBE_BATCH);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u16(m.items.len() as u16);
                b.put_u8(if ctx.is_some() { PROBE_FLAG_TRACE } else { 0 });
                for item in &m.items {
                    match *item {
                        ProbeItem::Ping { seq, sent_ms } => {
                            b.put_u8(TI_PING);
                            b.put_u32(seq);
                            b.put_u32(sent_ms);
                        }
                        ProbeItem::Pong { seq, echo_sent_ms } => {
                            b.put_u8(TI_PONG);
                            b.put_u32(seq);
                            b.put_u32(echo_sent_ms);
                        }
                        ProbeItem::Gauge { rtt_ms, loss_pm } => {
                            b.put_u8(TI_GAUGE);
                            b.put_u16(rtt_ms);
                            b.put_u16(loss_pm);
                        }
                    }
                }
            }
            Message::LinkStateSparse(m) => {
                b.put_u8(T_LINKSTATE_SPARSE);
                put_linkstate(&mut b, m, true);
            }
            Message::LinkState(m) => {
                b.put_u8(T_LINKSTATE);
                put_linkstate(&mut b, m, false);
            }
            Message::Recommendations(m) => {
                b.put_u8(T_RECOMMENDATIONS);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u32(m.round);
                b.put_u16(m.recs.len() as u16);
                b.put_u32(m.basis_ms);
                let flags: u32 = match m.format {
                    RecFormat::Compact => 0,
                    RecFormat::WithCost => 1,
                };
                b.put_u32(flags);
                for r in &m.recs {
                    b.put_u16(r.dst.0);
                    b.put_u16(r.hop.0);
                    if m.format == RecFormat::WithCost {
                        b.put_u16(r.cost_ms);
                    }
                }
            }
            Message::Join { from, to } => {
                b.put_u8(T_JOIN);
                b.put_u16(from.0);
                b.put_u16(to.0);
            }
            Message::Leave { from, to } => {
                b.put_u8(T_LEAVE);
                b.put_u16(from.0);
                b.put_u16(to.0);
            }
            Message::View(m) => {
                b.put_u8(T_VIEW);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u16(m.members.len() as u16);
                for id in &m.members {
                    b.put_u16(id.0);
                }
            }
        }
        if let Some(ctx) = ctx {
            b.put_slice(&ctx.encode());
        }
        b.freeze()
    }

    /// Deserialize from bytes.
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncation, bad type tags or length
    /// mismatches. Never panics on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        Self::decode_traced(bytes).map(|(msg, _)| msg)
    }

    /// Deserialize from bytes, returning the trace context when the
    /// frame carries one ([`PROBE_FLAG_TRACE`] set on a probe batch's
    /// flags byte).
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncation, bad type tags, a
    /// malformed trailer or length mismatches. Never panics on
    /// malformed input.
    pub fn decode_traced(bytes: &[u8]) -> Result<(Message, Option<TraceCtx>), WireError> {
        let mut ctx = None;
        let mut b = bytes;
        let (typ, from, to) = get_prefix(&mut b)?;
        let msg = match typ {
            T_PROBE | T_PROBE_REPLY => {
                if b.remaining() < PROBE_WIRE_SIZE - 5 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let seq = b.get_u32();
                let ts = b.get_u32();
                let _flags = b.get_u8();
                Ok(if typ == T_PROBE {
                    Message::Probe(ProbeMsg {
                        from,
                        to,
                        view,
                        seq,
                        sent_ms: ts,
                    })
                } else {
                    Message::ProbeReply(ProbeReplyMsg {
                        from,
                        to,
                        view,
                        seq,
                        echo_sent_ms: ts,
                    })
                })
            }
            T_PROBE_BATCH => {
                if b.remaining() < PROBE_BATCH_HEADER_SIZE - 5 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let count = b.get_u16() as usize;
                let flags = b.get_u8();
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    if b.remaining() < 1 {
                        return Err(WireError::Truncated);
                    }
                    let tag = b.get_u8();
                    let need = match tag {
                        TI_PING | TI_PONG => 8,
                        TI_GAUGE => 4,
                        other => return Err(WireError::BadType(other)),
                    };
                    if b.remaining() < need {
                        return Err(WireError::Truncated);
                    }
                    items.push(match tag {
                        TI_PING => ProbeItem::Ping {
                            seq: b.get_u32(),
                            sent_ms: b.get_u32(),
                        },
                        TI_PONG => ProbeItem::Pong {
                            seq: b.get_u32(),
                            echo_sent_ms: b.get_u32(),
                        },
                        _ => ProbeItem::Gauge {
                            rtt_ms: b.get_u16(),
                            loss_pm: b.get_u16(),
                        },
                    });
                }
                if flags & PROBE_FLAG_TRACE != 0 {
                    // Header-signalled trailer: exactly TRACE_CTX_SIZE
                    // bytes must remain after the item list.
                    if b.remaining() < TRACE_CTX_SIZE {
                        return Err(WireError::Truncated);
                    }
                    ctx = Some(TraceCtx::decode(b).ok_or(WireError::BadLength)?);
                } else if b.remaining() > 0 {
                    return Err(WireError::BadLength);
                }
                Ok(Message::ProbeBatch(ProbeBatchMsg {
                    from,
                    to,
                    view,
                    items,
                }))
            }
            T_LINKSTATE | T_LINKSTATE_SPARSE => {
                LinkStateFrame::parse(bytes).map(|frame| frame.to_message())
            }
            T_RECOMMENDATIONS => RecFrame::parse(bytes).map(|frame| frame.to_message()),
            T_JOIN => Ok(Message::Join { from, to }),
            T_LEAVE => Ok(Message::Leave { from, to }),
            T_VIEW => {
                if b.remaining() < 6 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let count = b.get_u16() as usize;
                if b.remaining() != count * 2 {
                    return Err(WireError::BadLength);
                }
                let mut members = Vec::with_capacity(count);
                for _ in 0..count {
                    members.push(NodeId(b.get_u16()));
                }
                Ok(Message::View(ViewMsg {
                    from,
                    to,
                    view,
                    members,
                }))
            }
            other => Err(WireError::BadType(other)),
        }?;
        Ok((msg, ctx))
    }

    /// Serialized size in bytes (application payload, no IP/UDP framing).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            Message::Probe(_) | Message::ProbeReply(_) => PROBE_WIRE_SIZE,
            Message::ProbeBatch(m) => {
                PROBE_BATCH_HEADER_SIZE + m.items.iter().map(|i| i.wire_size()).sum::<usize>()
            }
            Message::LinkState(m) => {
                LINKSTATE_HEADER_SIZE
                    + usize::from(m.width) * LinkEntry::WIRE_SIZE
                    + ls_trailer_size(m.row.seqno(), m.row.retracted())
            }
            Message::LinkStateSparse(m) => {
                SPARSE_LINKSTATE_HEADER_SIZE
                    + m.row.len() * (2 + LinkEntry::WIRE_SIZE)
                    + ls_trailer_size(m.row.seqno(), m.row.retracted())
            }
            Message::Recommendations(m) => REC_HEADER_SIZE + m.recs.len() * m.format.entry_size(),
            Message::Join { .. } | Message::Leave { .. } => 5,
            Message::View(m) => 11 + 2 * m.members.len(),
        }
    }

    /// Size including IP+UDP framing, as accounted in bandwidth figures.
    #[must_use]
    pub fn wire_size_with_overhead(&self) -> usize {
        self.wire_size() + UDP_IP_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link-state frame's body: the row and its liveness lane.
    type Body = (Arc<LaneRow>, Arc<[u8]>);

    /// A dense frame's width and body for `entries`.
    fn dense(entries: &[LinkEntry], seqno: u16, retractions: &[u16]) -> (u16, Body) {
        let row = LaneRow::from_dense(entries).with_version(seqno, retractions);
        let lane = LinkStateMsg::liveness_lane(entries);
        (entries.len() as u16, (Arc::new(row), lane))
    }

    /// A sparse frame's body for ascending `(dst, entry)` pairs.
    fn sparse(entries: &[(u16, LinkEntry)], seqno: u16, retractions: &[u16]) -> Body {
        let row = LaneRow::from_pairs(entries).with_version(seqno, retractions);
        let listed: Vec<LinkEntry> = entries.iter().map(|&(_, e)| e).collect();
        (Arc::new(row), LinkStateMsg::liveness_lane(&listed))
    }

    fn roundtrip(m: &Message) -> Message {
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.wire_size(), "declared size must match");
        Message::decode(&bytes).expect("decode")
    }

    #[test]
    fn probe_roundtrip_and_size() {
        let m = Message::Probe(ProbeMsg {
            from: NodeId(3),
            to: NodeId(9),
            view: 7,
            seq: 123456,
            sent_ms: 42_000,
        });
        assert_eq!(m.wire_size(), 18);
        assert_eq!(m.wire_size_with_overhead(), 46);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn probe_reply_roundtrip() {
        let m = Message::ProbeReply(ProbeReplyMsg {
            from: NodeId(9),
            to: NodeId(3),
            view: 7,
            seq: 123456,
            echo_sent_ms: 42_000,
        });
        assert_eq!(m.wire_size(), 18);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn linkstate_roundtrip_and_size() {
        let n = 140;
        let entries: Vec<LinkEntry> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    LinkEntry::dead()
                } else {
                    LinkEntry::live(i as u16 * 3, 0.01)
                }
            })
            .collect();
        let (width, (row, liveness_loss)) = dense(&entries, 0, &[]);
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(5),
            to: NodeId(17),
            view: 2,
            round: 99,
            basis_ms: 1_000_000,
            width,
            row,
            liveness_loss,
        });
        // 21 + 3·140 = 441 bytes: the paper's "at most 3·n bytes" payload.
        assert_eq!(m.wire_size(), 21 + 3 * n);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn recommendations_compact_roundtrip() {
        let recs: Vec<RecEntry> = (0..24)
            .map(|i| RecEntry {
                dst: NodeId(i),
                hop: NodeId((i * 3) % 140),
                cost_ms: u16::MAX, // absent in compact form
            })
            .collect();
        let m = Message::Recommendations(RecommendationMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 4,
            round: 11,
            basis_ms: 500,
            format: RecFormat::Compact,
            recs,
        });
        // 23 + 4·24: the paper's 4·(2√n) byte recommendation body for n=144.
        assert_eq!(m.wire_size(), 23 + 4 * 24);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn recommendations_with_cost_roundtrip() {
        let recs = vec![
            RecEntry {
                dst: NodeId(7),
                hop: NodeId(7),
                cost_ms: 250,
            },
            RecEntry {
                dst: NodeId(8),
                hop: NodeId(3),
                cost_ms: 90,
            },
        ];
        let m = Message::Recommendations(RecommendationMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 4,
            round: 11,
            basis_ms: 500,
            format: RecFormat::WithCost,
            recs,
        });
        assert_eq!(m.wire_size(), 23 + 6 * 2);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn membership_messages_roundtrip() {
        let join = Message::Join {
            from: NodeId(30),
            to: NodeId(0),
        };
        assert_eq!(roundtrip(&join), join);
        let leave = Message::Leave {
            from: NodeId(30),
            to: NodeId(0),
        };
        assert_eq!(roundtrip(&leave), leave);
        let view = Message::View(ViewMsg {
            from: NodeId(0),
            to: NodeId(30),
            view: 12,
            members: vec![NodeId(0), NodeId(5), NodeId(30)],
        });
        assert_eq!(roundtrip(&view), view);
    }

    #[test]
    fn probe_batch_roundtrip_and_size() {
        let m = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(3),
            to: NodeId(9),
            view: 7,
            items: vec![
                ProbeItem::Ping {
                    seq: 42,
                    sent_ms: 1_000,
                },
                ProbeItem::Pong {
                    seq: 41,
                    echo_sent_ms: 970,
                },
                ProbeItem::Gauge {
                    rtt_ms: 55,
                    loss_pm: 12,
                },
            ],
        });
        // 12-byte header + 9 + 9 + 5: one frame where three separate
        // probe packets would cost 3 × (18 + 28) bytes with framing.
        assert_eq!(m.wire_size(), 12 + 9 + 9 + 5);
        assert!(m.wire_size_with_overhead() < 3 * (PROBE_WIRE_SIZE + UDP_IP_OVERHEAD));
        assert_eq!(roundtrip(&m), m);
        // An empty batch is legal (a bare keepalive) and tiny.
        let empty = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            items: vec![],
        });
        assert_eq!(empty.wire_size(), PROBE_BATCH_HEADER_SIZE);
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn probe_batch_rejects_bad_item_tag_and_trailing_junk() {
        let m = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            items: vec![ProbeItem::Gauge {
                rtt_ms: 1,
                loss_pm: 0,
            }],
        });
        let mut bytes = m.encode().to_vec();
        bytes.extend_from_slice(&[0]);
        assert_eq!(Message::decode(&bytes), Err(WireError::BadLength));
        let mut bad_tag = m.encode().to_vec();
        bad_tag[PROBE_BATCH_HEADER_SIZE] = 200; // the item tag byte
        assert_eq!(Message::decode(&bad_tag), Err(WireError::BadType(200)));
    }

    #[test]
    fn traced_probe_batch_roundtrips_and_rejects_truncation() {
        let m = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(3),
            to: NodeId(9),
            view: 7,
            items: vec![
                ProbeItem::Ping {
                    seq: 42,
                    sent_ms: 1_000,
                },
                ProbeItem::Gauge {
                    rtt_ms: 55,
                    loss_pm: 12,
                },
            ],
        });
        let ctx = TraceCtx {
            episode: 0x0009_0001,
            origin: 9,
            hop: 1,
        };
        let traced = m.encode_traced(Some(&ctx));
        assert_eq!(traced.len(), m.wire_size() + TRACE_CTX_SIZE);
        assert_eq!(
            traced[PROBE_BATCH_HEADER_SIZE - 1] & PROBE_FLAG_TRACE,
            PROBE_FLAG_TRACE
        );
        let (decoded, got) = Message::decode_traced(&traced).expect("decode traced batch");
        assert_eq!(decoded, m);
        assert_eq!(got, Some(ctx));
        // The ctx-oblivious decoder still reads the message.
        assert_eq!(Message::decode(&traced).unwrap(), m);
        // Every proper prefix is rejected; so is trailing garbage.
        for cut in 0..traced.len() {
            assert!(
                Message::decode_traced(&traced[..cut]).is_err(),
                "decode of {cut}-byte traced prefix should fail"
            );
        }
        let mut long = traced.to_vec();
        long.push(0);
        assert!(Message::decode_traced(&long).is_err());
    }

    #[test]
    fn untraced_probe_batch_is_bit_identical() {
        let m = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 3,
            items: vec![ProbeItem::Pong {
                seq: 4,
                echo_sent_ms: 5,
            }],
        });
        assert_eq!(m.encode_traced(None).as_ref(), m.encode().as_ref());
        let (decoded, ctx) = Message::decode_traced(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(ctx, None);
        // Non-batch frames never carry a trailer even when asked.
        let probe = Message::Probe(ProbeMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            seq: 1,
            sent_ms: 2,
        });
        let ctx = TraceCtx {
            episode: 1,
            origin: 1,
            hop: 0,
        };
        assert_eq!(
            probe.encode_traced(Some(&ctx)).as_ref(),
            probe.encode().as_ref()
        );
    }

    #[test]
    fn sparse_linkstate_roundtrip_and_size() {
        let (row, liveness_loss) = sparse(
            &[
                (3, LinkEntry::live(40, 0.01)),
                (64, LinkEntry::live(120, 0.0)),
                (4095, LinkEntry::live(7, 0.635)),
            ],
            0,
            &[],
        );
        let m = Message::LinkStateSparse(LinkStateMsg {
            from: NodeId(5),
            to: NodeId(17),
            view: 2,
            round: 99,
            basis_ms: 1_000_000,
            width: 4096,
            row,
            liveness_loss,
        });
        // 23 + 5·k: at n = 4096 a 130-live-entry row costs 673 B sparse
        // vs 12 309 B dense.
        assert_eq!(m.wire_size(), 23 + 5 * 3);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn sparse_linkstate_rejects_disorder_and_out_of_range() {
        // A valid two-entry frame with its destination fields patched:
        // no constructor produces a disordered row, the wire can.
        let (row, liveness_loss) = sparse(
            &[(3, LinkEntry::live(1, 0.0)), (9, LinkEntry::live(2, 0.0))],
            0,
            &[],
        );
        let valid = Message::LinkStateSparse(LinkStateMsg {
            from: NodeId(0),
            to: NodeId(1),
            view: 0,
            round: 0,
            basis_ms: 0,
            width: 100,
            row,
            liveness_loss,
        })
        .encode();
        let mk = |dsts: [u16; 2]| {
            let mut bytes = valid.to_vec();
            for (i, d) in dsts.iter().enumerate() {
                let at = SPARSE_LINKSTATE_HEADER_SIZE + 5 * i;
                bytes[at..at + 2].copy_from_slice(&d.to_be_bytes());
            }
            bytes
        };
        assert!(Message::decode(&mk([3, 9])).is_ok());
        // Descending destinations.
        assert_eq!(Message::decode(&mk([9, 3])), Err(WireError::BadLength));
        // Duplicate destination.
        assert_eq!(Message::decode(&mk([9, 9])), Err(WireError::BadLength));
        // Destination ≥ width.
        assert_eq!(Message::decode(&mk([3, 100])), Err(WireError::BadLength));
        // The checks cover dead entries too, though decode drops them.
        let mut dead_disordered = mk([9, 3]);
        dead_disordered[SPARSE_LINKSTATE_HEADER_SIZE + 4] = 0x7F;
        assert_eq!(Message::decode(&dead_disordered), Err(WireError::BadLength));
    }

    /// A dead entry on the wire — dense or sparse — never reaches the
    /// row: lanes hold live entries only, and absence reads as dead.
    #[test]
    fn dead_wire_entries_are_dropped() {
        let entries = [
            LinkEntry::live(10, 0.0),
            LinkEntry::dead(),
            LinkEntry::live(30, 0.05),
        ];
        let (width, (row, liveness_loss)) = dense(&entries, 0, &[]);
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            round: 0,
            basis_ms: 0,
            width,
            row,
            liveness_loss,
        });
        let bytes = m.encode();
        assert_eq!(&bytes[LINKSTATE_HEADER_SIZE + 3..][..3], &DEAD_ENTRY_WIRE);
        assert_eq!(DEAD_ENTRY_WIRE, LinkEntry::dead().encode());
        let Message::LinkState(back) = roundtrip(&m) else {
            panic!("dense frame");
        };
        assert_eq!(back.row.len(), 2);
        assert_eq!(*back.liveness_loss, [0x80, 0x80 | 10]);
        // The same three entries as a sparse frame, the middle one
        // marked dead on the wire: decode keeps the two live ones.
        let (row, liveness_loss) = sparse(
            &[
                (0, entries[0]),
                (1, LinkEntry::live(20, 0.0)),
                (2, entries[2]),
            ],
            0,
            &[],
        );
        let mut sparse_bytes = Message::LinkStateSparse(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            round: 0,
            basis_ms: 0,
            width,
            row,
            liveness_loss,
        })
        .encode()
        .to_vec();
        sparse_bytes[SPARSE_LINKSTATE_HEADER_SIZE + 5 + 2..][..3].copy_from_slice(&DEAD_ENTRY_WIRE);
        let Ok(Message::LinkStateSparse(kept)) = Message::decode(&sparse_bytes) else {
            panic!("sparse frame with a dead entry decodes");
        };
        assert_eq!(kept.row, back.row);
        assert_eq!(kept.liveness_loss, back.liveness_loss);
    }

    /// A live entry carrying the dead-latency sentinel (no encoder of
    /// ours writes one) is stored as the old ingest stored it: clamped
    /// to the largest live latency, so re-encoding is stable.
    #[test]
    fn live_entry_with_sentinel_latency_is_clamped_on_decode() {
        let (row, liveness_loss) = sparse(&[(5, LinkEntry::live(20, 0.0))], 0, &[]);
        let m = Message::LinkStateSparse(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            round: 0,
            basis_ms: 0,
            width: 8,
            row,
            liveness_loss,
        });
        let mut bytes = m.encode().to_vec();
        bytes[SPARSE_LINKSTATE_HEADER_SIZE + 2..][..3].copy_from_slice(&[0xFF, 0xFF, 0x80]);
        let Ok(Message::LinkStateSparse(got)) = Message::decode(&bytes) else {
            panic!("frame decodes");
        };
        let as_entry = LinkEntry::decode([0xFF, 0xFF, 0x80]);
        assert_eq!(*got.row, LaneRow::from_pairs(&[(5, as_entry)]));
        assert_eq!(got.row.lanes().1, &[LinkEntry::DEAD_LATENCY - 1]);
        assert_eq!(*got.liveness_loss, [0x80]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Message::decode(&[1, 2]), Err(WireError::Truncated));
        assert_eq!(
            Message::decode(&[200, 0, 0, 0, 0]),
            Err(WireError::BadType(200))
        );
    }

    #[test]
    fn decode_rejects_truncated_bodies() {
        let (width, (row, liveness_loss)) = dense(&[LinkEntry::live(5, 0.0); 10], 0, &[]);
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            round: 0,
            basis_ms: 0,
            width,
            row,
            liveness_loss,
        });
        let bytes = m.encode();
        for cut in 1..bytes.len() {
            let r = Message::decode(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let m = Message::Recommendations(RecommendationMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            round: 0,
            basis_ms: 0,
            format: RecFormat::Compact,
            recs: vec![RecEntry {
                dst: NodeId(3),
                hop: NodeId(4),
                cost_ms: u16::MAX,
            }],
        });
        let mut bytes = m.encode().to_vec();
        bytes.extend_from_slice(&[0, 0]); // trailing junk
        assert_eq!(Message::decode(&bytes), Err(WireError::BadLength));
    }

    #[test]
    fn versioned_linkstate_roundtrips_and_rejects_truncation() {
        let (width, (row, liveness_loss)) = dense(&[LinkEntry::live(40, 0.0); 12], 7, &[2, 5, 11]);
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(5),
            to: NodeId(17),
            view: 2,
            round: 99,
            basis_ms: 1_000_000,
            width,
            row,
            liveness_loss,
        });
        // Legacy body plus the 4-byte trailer base and 2 bytes/retraction.
        assert_eq!(m.wire_size(), 21 + 3 * 12 + 4 + 2 * 3);
        assert_eq!(roundtrip(&m), m);
        let bytes = m.encode();
        assert_eq!(
            u16::from_be_bytes([bytes[19], bytes[20]]) & LS_FLAG_SEQNO,
            LS_FLAG_SEQNO
        );
        for cut in 1..bytes.len() {
            assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte versioned prefix should fail"
            );
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(Message::decode(&long).is_err());
    }

    /// A readdressed link-state frame is, for every addressee, the frame
    /// `encode` writes for it: a full row on the identity lane, a dense
    /// row with dead slots, a sparse row and a versioned row with a
    /// retraction lane, in both frame forms where they apply.
    #[test]
    fn a_readdressed_frame_is_the_frame() {
        let live = LinkEntry::live(40, 0.01);
        let mut holes = vec![live; 9];
        (holes[2], holes[7]) = (LinkEntry::dead(), LinkEntry::dead());
        let (_, full) = dense(&[live; 9], 0, &[]);
        let (_, holey) = dense(&holes, 0, &[]);
        let pairs = sparse(&[(1, live), (6, LinkEntry::live(300, 0.5))], 0, &[]);
        let (_, versioned) = dense(&holes, 41, &[2, 7]);
        let cases = [
            (false, &full),
            (false, &holey),
            (true, &pairs),
            (false, &versioned),
            (true, &versioned),
        ];
        for (is_sparse, (row, liveness_loss)) in cases {
            let msg = |to: u16| {
                let ls = LinkStateMsg {
                    from: NodeId(4),
                    to: NodeId(to),
                    view: 3,
                    round: 17,
                    basis_ms: 123_456,
                    width: 9,
                    row: Arc::clone(row),
                    liveness_loss: Arc::clone(liveness_loss),
                };
                if is_sparse {
                    Message::LinkStateSparse(ls)
                } else {
                    Message::LinkState(ls)
                }
            };
            let first = msg(0).encode();
            for to in [0, 1, 8, 0x1234, u16::MAX] {
                assert_eq!(
                    *readdress_linkstate(&first, NodeId(to)),
                    *msg(to).encode(),
                    "to {to}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a link-state frame")]
    fn readdressing_another_frame_panics() {
        let join = Message::Join {
            from: NodeId(1),
            to: NodeId(2),
        };
        let _ = readdress_linkstate(&join.encode(), NodeId(3));
    }

    #[test]
    fn versioned_sparse_linkstate_roundtrips_and_validates_retractions() {
        let mk = |seqno: u16, retractions: &[u16]| {
            let (row, liveness_loss) = sparse(
                &[(4, LinkEntry::live(9, 0.25)), (40, LinkEntry::live(2, 0.0))],
                seqno,
                retractions,
            );
            Message::LinkStateSparse(LinkStateMsg {
                from: NodeId(0),
                to: NodeId(1),
                view: 0,
                round: 3,
                basis_ms: 0,
                width: 100,
                row,
                liveness_loss,
            })
        };
        let m = mk(1, &[7, 90]);
        assert_eq!(m.wire_size(), 23 + 5 * 2 + 4 + 2 * 2);
        assert_eq!(roundtrip(&m), m);
        // A seqno with no retractions is still a valid trailer.
        let bumped = mk(9, &[]);
        assert_eq!(bumped.wire_size(), 23 + 5 * 2 + 4);
        assert_eq!(roundtrip(&bumped), bumped);
        // Retractions must be ascending, unique, and < width: patch the
        // two trailer slots of the valid frame.
        let bytes = m.encode();
        for bad in [[90u16, 7], [7, 7], [7, 100]] {
            let mut forged = bytes.to_vec();
            let at = forged.len() - 4;
            forged[at..at + 2].copy_from_slice(&bad[0].to_be_bytes());
            forged[at + 2..].copy_from_slice(&bad[1].to_be_bytes());
            assert_eq!(Message::decode(&forged), Err(WireError::BadLength));
        }
        for cut in 1..bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn unversioned_linkstate_is_bit_identical_to_legacy() {
        // seqno 0 + no retractions must encode the pre-seqno format
        // byte for byte: flags word zero, no trailer, old sizes.
        let (width, (row, liveness_loss)) =
            dense(&[LinkEntry::live(10, 0.0), LinkEntry::dead()], 0, &[]);
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 4,
            round: 9,
            basis_ms: 77,
            width,
            row,
            liveness_loss,
        });
        assert_eq!(m.wire_size(), LINKSTATE_HEADER_SIZE + 2 * 3);
        let bytes = m.encode();
        assert_eq!(u16::from_be_bytes([bytes[19], bytes[20]]), 0);
        // A flagged frame with an empty trailer is non-canonical: the
        // same logical row must have exactly one encoding.
        let mut forged = bytes.to_vec();
        forged[20] |= LS_FLAG_SEQNO as u8;
        forged.extend_from_slice(&[0, 0, 0, 0]); // seqno 0, count 0
        assert_eq!(Message::decode(&forged), Err(WireError::BadLength));
    }

    /// The bandwidth-formula calibration (section 6): with the default
    /// intervals the per-node traffic derived from these wire sizes must
    /// match the paper's published constants.
    #[test]
    fn section_6_bandwidth_constants() {
        let n: f64 = 140.0;
        let probe_pkt = (PROBE_WIRE_SIZE + UDP_IP_OVERHEAD) as f64;
        // Probing: each node sends and receives probes and replies to/from
        // n−1 peers every 30 s: 4·(n−1) packets per 30 s.
        let probing_bps = 4.0 * (n - 1.0) * probe_pkt * 8.0 / 30.0;
        let paper_probing = 49.1 * n;
        assert!(
            (probing_bps - paper_probing).abs() / paper_probing < 0.03,
            "probing {probing_bps} vs paper {paper_probing}"
        );

        // RON routing: LS to n−1 peers every 30 s, in + out.
        let ls_pkt = (LINKSTATE_HEADER_SIZE + 3 * n as usize + UDP_IP_OVERHEAD) as f64;
        let ron_bps = 2.0 * (n - 1.0) * ls_pkt * 8.0 / 30.0;
        let paper_ron = 1.6 * n * n + 24.5 * n;
        assert!(
            (ron_bps - paper_ron).abs() / paper_ron < 0.03,
            "RON routing {ron_bps} vs paper {paper_ron}"
        );

        // Quorum routing: LS to ~2√n servers + recs (2√n entries) to ~2√n
        // clients every 15 s, in + out.
        let sq = n.sqrt();
        let rec_pkt = (REC_HEADER_SIZE + UDP_IP_OVERHEAD) as f64 + 4.0 * 2.0 * sq;
        let quorum_bps = (2.0 * 2.0 * sq * ls_pkt + 2.0 * 2.0 * sq * rec_pkt) * 8.0 / 15.0;
        let paper_quorum = 6.4 * n * sq + 17.1 * n + 196.3 * sq;
        assert!(
            (quorum_bps - paper_quorum).abs() / paper_quorum < 0.06,
            "quorum routing {quorum_bps} vs paper {paper_quorum}"
        );
    }
}

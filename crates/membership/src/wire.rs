//! Compact binary wire format for the SWIM gossip messages.
//!
//! Same style as `apor_linkstate::wire`: hand-rolled big-endian over
//! `bytes`, sized for the bandwidth accounting. The tag space starts at
//! [`SWIM_TAG_BASE`] = 16, disjoint from the overlay's routing tags
//! (1–9), so a driver can dispatch on the first byte of a datagram
//! without trial decoding.
//!
//! Every frame is one [`SwimMsg`] laid out in three parts:
//!
//! | part | bytes | contents |
//! |---|---|---|
//! | header | 9 | tag, `from`, `to`, `seq` |
//! | kind fields | 0 | `Ping`, `Ack`, `SyncRsp` |
//! | | 2 | `target` (`PingReq`, `ProxyAck`); `chunk`, `chunks` (`SyncReq`) |
//! | | 6 | `fingerprint`, `known` (`SyncDigest`, `SyncDigestPush`) |
//! | update list | 1 + 7·u | a count byte, then `u` updates of id, incarnation and status; a `SyncDigest` has none, not even the count |
//!
//! So a ping or ack is `10 + 7·u` bytes for `u` piggybacked updates.
//! With one ping round per [`PERIOD_S`](crate::swim::PERIOD_S) = 2 s and
//! ≤ 10 piggybacked updates, a worst-case ping+ack exchange is
//! 2 · (80 + 28) bytes per 2 s ≈ 900 bps per node, independent of `n` —
//! the property that removes the coordinator's `Θ(n)` broadcast hot spot.
//!
//! The anti-entropy frames carry full-ledger records instead of a
//! bounded piggyback (a `SyncReq` is `12 + 7·k` bytes for `k` members),
//! chunked at [`SWIM_MTU_FRAME_ENTRIES`] records per frame to stay under
//! a 1500-byte MTU — hard wire cap [`SWIM_MAX_FRAME_ENTRIES`] — and the
//! responder answers a sync `seq` once, with one delta over the
//! reassembled claim set, so one push-pull round per
//! `AntiEntropyConfig::sync_period_s` costs `O(n)` bytes — amortized
//! well below the probing budget at the paper's scales, and the price of
//! healing partitions that piggybacked gossip alone cannot.

use apor_quorum::NodeId;
use apor_telemetry::trace::{TraceCtx, TRACE_CTX_SIZE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// First message-type tag used by the SWIM plane.
pub const SWIM_TAG_BASE: u8 = 16;

/// Tag-byte flag marking a frame that carries a trailing trace
/// context ([`TraceCtx`], [`TRACE_CTX_SIZE`] bytes after the normal
/// payload). The flag lives in the tag byte so presence is signalled
/// in the *header*: any truncation of a traced frame changes the
/// expected total length and fails to decode — the trailer can never
/// silently alias the update list. Decoders that predate the flag
/// reject flagged tags as [`SwimWireError::BadType`] instead of
/// misparsing, and unflagged frames are bit-identical to the old
/// format.
pub const SWIM_TRACE_FLAG: u8 = 0x40;

const T_PING: u8 = SWIM_TAG_BASE;
const T_ACK: u8 = SWIM_TAG_BASE + 1;
const T_PING_REQ: u8 = SWIM_TAG_BASE + 2;
const T_PROXY_ACK: u8 = SWIM_TAG_BASE + 3;
const T_SYNC_REQ: u8 = SWIM_TAG_BASE + 4;
const T_SYNC_RSP: u8 = SWIM_TAG_BASE + 5;
const T_SYNC_DIGEST: u8 = SWIM_TAG_BASE + 6;
const T_SYNC_DIGEST_PUSH: u8 = SWIM_TAG_BASE + 7;

/// Bytes of the fixed ping/ack header (tag, from, to, seq, count).
pub const SWIM_HEADER_SIZE: usize = 10;
/// Bytes of a digest frame (tag, from, to, seq, fingerprint, known) —
/// the whole message; a digest carries no updates.
pub const SWIM_DIGEST_SIZE: usize = 15;
/// Bytes each piggybacked update adds.
pub const SWIM_UPDATE_SIZE: usize = 7;
/// Most ledger entries one sync frame can carry (the count field is one
/// byte); larger ledgers are chunked across frames by the sender.
pub const SWIM_MAX_FRAME_ENTRIES: usize = u8::MAX as usize;
/// Sync entries per frame that keep the datagram inside a standard
/// 1500-byte Ethernet MTU — the `AntiEntropyConfig` default. A
/// `SyncReq` is `12 + 7·k` bytes plus 28 bytes of IP+UDP framing;
/// `k = 208` gives 1 484 bytes, so real UDP transports never rely on
/// IP fragmentation (which middleboxes drop silently — losing exactly
/// the big post-partition syncs anti-entropy exists for).
pub const SWIM_MTU_FRAME_ENTRIES: usize = 208;

/// Does a datagram starting with `tag` belong to the SWIM plane?
/// Accepts both plain tags and tags carrying [`SWIM_TRACE_FLAG`]; the
/// masked range (16–23, flagged 80–87) stays disjoint from the
/// overlay's routing tags (1–9), so first-byte dispatch still works.
#[must_use]
pub fn is_swim_tag(tag: u8) -> bool {
    (T_PING..=T_SYNC_DIGEST_PUSH).contains(&(tag & !SWIM_TRACE_FLAG))
}

/// The layout a plain tag implies after the header: the bytes of its
/// kind fields, and whether a counted update list follows.
fn layout(tag: u8) -> (usize, bool) {
    match tag {
        T_PING | T_ACK | T_SYNC_RSP => (0, true),
        T_PING_REQ | T_PROXY_ACK | T_SYNC_REQ => (2, true),
        T_SYNC_DIGEST => (6, false),
        _ => (6, true),
    }
}

/// Decode errors (mirrors `apor_linkstate::wire::WireError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwimWireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message-type tag.
    BadType(u8),
    /// A length field disagrees with the buffer.
    BadLength,
    /// Unknown status code inside an update.
    BadStatus(u8),
}

impl fmt::Display for SwimWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwimWireError::Truncated => write!(f, "truncated SWIM message"),
            SwimWireError::BadType(t) => write!(f, "unknown SWIM message type {t}"),
            SwimWireError::BadLength => write!(f, "inconsistent SWIM length field"),
            SwimWireError::BadStatus(s) => write!(f, "unknown SWIM status {s}"),
        }
    }
}

impl std::error::Error for SwimWireError {}

/// A member's disseminated lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwimStatus {
    /// Live (join or suspicion refutation).
    Alive,
    /// Suspected faulty; awaiting refutation or confirmation.
    Suspect,
    /// Confirmed faulty.
    Faulty,
    /// Departed voluntarily.
    Left,
}

impl SwimStatus {
    fn code(self) -> u8 {
        match self {
            SwimStatus::Alive => 0,
            SwimStatus::Suspect => 1,
            SwimStatus::Faulty => 2,
            SwimStatus::Left => 3,
        }
    }

    fn from_code(code: u8) -> Result<Self, SwimWireError> {
        match code {
            0 => Ok(SwimStatus::Alive),
            1 => Ok(SwimStatus::Suspect),
            2 => Ok(SwimStatus::Faulty),
            3 => Ok(SwimStatus::Left),
            other => Err(SwimWireError::BadStatus(other)),
        }
    }

    /// Does this status mark the member dead in the view ledger?
    /// (Suspicion is transient and never enters the ledger.)
    #[must_use]
    pub fn is_dead(self) -> bool {
        matches!(self, SwimStatus::Faulty | SwimStatus::Left)
    }
}

/// One piggybacked membership event. 7 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwimUpdate {
    /// The member the event is about.
    pub id: NodeId,
    /// The member's incarnation the event refers to.
    pub incarnation: u32,
    /// The asserted lifecycle state.
    pub status: SwimStatus,
}

/// A SWIM-plane frame: the header every kind shares, the kind, and the
/// piggybacked updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwimMsg {
    /// The sender.
    pub from: NodeId,
    /// The addressee.
    pub to: NodeId,
    /// Correlates a request with its answer: the sender's own sequence
    /// on a request, echoed verbatim on the answer.
    pub seq: u32,
    /// What the frame is, with the fields only that kind carries.
    pub kind: SwimKind,
    /// Piggybacked gossip, or ledger records on the sync kinds. Always
    /// empty on a [`SwimKind::SyncDigest`].
    pub updates: Vec<SwimUpdate>,
}

/// What a [`SwimMsg`] is, carrying only the fields its kind adds to the
/// shared header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwimKind {
    /// Direct probe from the prober to the probed member; the receiver
    /// must [`SwimKind::Ack`] with the same `seq`.
    Ping,
    /// Reply to a [`SwimKind::Ping`], from the probed member to the
    /// original prober (or ping-req helper).
    Ack,
    /// Indirect-probe request from the suspicious origin to a helper:
    /// "please ping `target` for me", `seq` the origin's sequence for
    /// this probe round.
    PingReq {
        /// The silent member to probe.
        target: NodeId,
    },
    /// Helper → origin: `target` answered the indirect probe; `seq` is
    /// the origin's, echoed back.
    ProxyAck {
        /// The member that proved alive.
        target: NodeId,
    },
    /// Anti-entropy push: one chunk of the initiator's full ledger
    /// (every member ever heard of, dead or alive, at its converged
    /// `(incarnation, dead)` state encoded as `Alive` / `Faulty`). The
    /// receiver merges each chunk on arrival and, once all `chunks`
    /// frames of a `seq` are in, answers with the [`SwimKind::SyncRsp`]
    /// delta computed over the whole claim set.
    SyncReq {
        /// This frame's 0-based chunk index.
        chunk: u8,
        /// Total chunks in this sync round (≥ 1).
        chunks: u8,
    },
    /// Anti-entropy pull: the responder's delta — every record where it
    /// holds strictly newer state than the request claimed, plus
    /// members the request did not mention.
    SyncRsp,
    /// Anti-entropy version digest: a 15-byte first frame carrying only
    /// the sender's ledger fingerprint. The initiator opens a sync
    /// round with this instead of the `O(n)` full-ledger push; a
    /// receiver whose fingerprint matches answers with an empty
    /// [`SwimKind::SyncRsp`] (transfer skipped — the steady-state case),
    /// while a mismatching receiver echoes its *own* digest back (with
    /// the initiator's `seq`), which tells the initiator to proceed with
    /// the full [`SwimKind::SyncReq`] push. One extra RTT when ledgers
    /// diverge; `O(1)` instead of `O(n)` bytes when they already agree.
    SyncDigest {
        /// The sender's ledger *content fingerprint*
        /// (`ViewLedger::fingerprint`, an FNV-1a fold) — deliberately
        /// NOT the salted version sum, whose small-integer weights let
        /// diverged ledgers collide at percent-level odds (which would
        /// silently disable anti-entropy between them); the hash
        /// collides at ≈ 2⁻³².
        fingerprint: u32,
        /// Number of members the sender's ledger has ever heard of
        /// (saturating at `u16::MAX`) — a cheap second component.
        known: u16,
    },
    /// Mismatch echo with the responder's data piggybacked: a
    /// [`SwimKind::SyncDigest`] whose fingerprint disagreed, answered
    /// with the responder's own digest *plus* the first chunk of its
    /// ledger (up to the sender's per-frame entry cap). Without the
    /// piggyback the initiator learns the responder's records only from
    /// the [`SwimKind::SyncRsp`] pull after its own full push — one RTT
    /// later. With it, a diverged pair whose ledgers fit one frame (the
    /// common case) completes the responder→initiator transfer inside
    /// the digest exchange itself.
    SyncDigestPush {
        /// The responder's ledger fingerprint (mismatching by
        /// construction).
        fingerprint: u32,
        /// The responder's known-member count.
        known: u16,
    },
}

impl SwimKind {
    /// The kind's (unflagged) tag byte.
    fn tag(self) -> u8 {
        match self {
            SwimKind::Ping => T_PING,
            SwimKind::Ack => T_ACK,
            SwimKind::PingReq { .. } => T_PING_REQ,
            SwimKind::ProxyAck { .. } => T_PROXY_ACK,
            SwimKind::SyncReq { .. } => T_SYNC_REQ,
            SwimKind::SyncRsp => T_SYNC_RSP,
            SwimKind::SyncDigest { .. } => T_SYNC_DIGEST,
            SwimKind::SyncDigestPush { .. } => T_SYNC_DIGEST_PUSH,
        }
    }

    /// Is this an anti-entropy frame (a sync request, response or
    /// digest — the tags from `SyncReq` on) rather than
    /// failure-detection traffic?
    #[must_use]
    pub fn is_sync(self) -> bool {
        self.tag() >= T_SYNC_REQ
    }
}

impl SwimMsg {
    /// Serialized size in bytes (no IP/UDP framing).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        // A digest has no count byte and, as `encode` asserts, no updates.
        let (fields, counted) = layout(self.kind.tag());
        SWIM_HEADER_SIZE - 1 + fields + usize::from(counted) + SWIM_UPDATE_SIZE * self.updates.len()
    }

    /// Serialize to bytes.
    ///
    /// # Panics
    /// Panics if more than 255 updates are piggybacked (the protocol
    /// caps piggybacking far below that), or if a
    /// [`SwimKind::SyncDigest`] carries any.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let tag = self.kind.tag();
        let mut b = BytesMut::with_capacity(self.wire_size());
        b.put_u8(tag);
        b.put_u16(self.from.0);
        b.put_u16(self.to.0);
        b.put_u32(self.seq);
        match self.kind {
            SwimKind::Ping | SwimKind::Ack | SwimKind::SyncRsp => {}
            SwimKind::PingReq { target } | SwimKind::ProxyAck { target } => b.put_u16(target.0),
            SwimKind::SyncReq { chunk, chunks } => {
                b.put_u8(chunk);
                b.put_u8(chunks);
            }
            SwimKind::SyncDigest { fingerprint, known }
            | SwimKind::SyncDigestPush { fingerprint, known } => {
                b.put_u32(fingerprint);
                b.put_u16(known);
            }
        }
        let (_, counted) = layout(tag);
        if !counted {
            assert!(self.updates.is_empty(), "a digest carries no updates");
            return b.freeze();
        }
        assert!(
            self.updates.len() <= usize::from(u8::MAX),
            "piggyback overflow"
        );
        b.put_u8(self.updates.len() as u8);
        for u in &self.updates {
            b.put_u16(u.id.0);
            b.put_u32(u.incarnation);
            b.put_u8(u.status.code());
        }
        b.freeze()
    }

    /// Serialize, appending `ctx` as a trace trailer when present.
    ///
    /// With `None` the output is byte-for-byte [`SwimMsg::encode`];
    /// with `Some` the tag byte gains [`SWIM_TRACE_FLAG`] and the
    /// frame grows by [`TRACE_CTX_SIZE`] bytes.
    ///
    /// # Panics
    /// Panics where [`SwimMsg::encode`] does.
    #[must_use]
    pub fn encode_traced(&self, ctx: Option<&TraceCtx>) -> Bytes {
        let Some(ctx) = ctx else {
            return self.encode();
        };
        let mut raw = self.encode().to_vec();
        raw[0] |= SWIM_TRACE_FLAG;
        raw.extend_from_slice(&ctx.encode());
        Bytes::from(raw)
    }

    /// Deserialize from bytes, discarding any trace trailer.
    ///
    /// # Errors
    /// Returns a [`SwimWireError`] on truncation, unknown tags or
    /// malformed updates. Never panics on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<SwimMsg, SwimWireError> {
        Self::decode_traced(bytes).map(|(msg, _)| msg)
    }

    /// Deserialize from bytes, returning the trace context when the
    /// frame carries one ([`SWIM_TRACE_FLAG`] set on the tag byte).
    ///
    /// # Errors
    /// Returns a [`SwimWireError`] on truncation, unknown tags, a
    /// malformed trailer or malformed updates. Never panics on
    /// malformed input.
    pub fn decode_traced(bytes: &[u8]) -> Result<(SwimMsg, Option<TraceCtx>), SwimWireError> {
        let Some(&raw_tag) = bytes.first() else {
            return Err(SwimWireError::Truncated);
        };
        if raw_tag & SWIM_TRACE_FLAG == 0 {
            return Ok((Self::decode_body(raw_tag, &bytes[1..])?, None));
        }
        if !is_swim_tag(raw_tag) {
            return Err(SwimWireError::BadType(raw_tag));
        }
        // Header-signalled trailer: the last TRACE_CTX_SIZE bytes are
        // the context, everything between tag and trailer is the body.
        if bytes.len() < SWIM_HEADER_SIZE + TRACE_CTX_SIZE {
            return Err(SwimWireError::Truncated);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - TRACE_CTX_SIZE);
        let ctx = TraceCtx::decode(trailer).ok_or(SwimWireError::BadLength)?;
        let msg = Self::decode_body(raw_tag & !SWIM_TRACE_FLAG, &body[1..])?;
        Ok((msg, Some(ctx)))
    }

    /// Decode everything after the tag byte, in [`SwimMsg::encode`]'s
    /// order. `tag` is the plain (unflagged) message type.
    fn decode_body(tag: u8, rest: &[u8]) -> Result<SwimMsg, SwimWireError> {
        let mut b = rest;
        if b.remaining() < SWIM_HEADER_SIZE - 1 {
            return Err(SwimWireError::Truncated);
        }
        if !(T_PING..=T_SYNC_DIGEST_PUSH).contains(&tag) {
            return Err(SwimWireError::BadType(tag));
        }
        let from = NodeId(b.get_u16());
        let to = NodeId(b.get_u16());
        let seq = b.get_u32();
        let (fields, counted) = layout(tag);
        if b.remaining() < fields + usize::from(counted) {
            return Err(SwimWireError::Truncated);
        }
        let kind = match tag {
            T_PING => SwimKind::Ping,
            T_ACK => SwimKind::Ack,
            T_PING_REQ => SwimKind::PingReq {
                target: NodeId(b.get_u16()),
            },
            T_PROXY_ACK => SwimKind::ProxyAck {
                target: NodeId(b.get_u16()),
            },
            T_SYNC_REQ => SwimKind::SyncReq {
                chunk: b.get_u8(),
                chunks: b.get_u8(),
            },
            T_SYNC_RSP => SwimKind::SyncRsp,
            T_SYNC_DIGEST => SwimKind::SyncDigest {
                fingerprint: b.get_u32(),
                known: b.get_u16(),
            },
            _ => SwimKind::SyncDigestPush {
                fingerprint: b.get_u32(),
                known: b.get_u16(),
            },
        };
        let count = if counted { usize::from(b.get_u8()) } else { 0 };
        if b.remaining() != count * SWIM_UPDATE_SIZE {
            return Err(SwimWireError::BadLength);
        }
        let mut updates = Vec::with_capacity(count);
        for _ in 0..count {
            let id = NodeId(b.get_u16());
            let incarnation = b.get_u32();
            let status = SwimStatus::from_code(b.get_u8())?;
            updates.push(SwimUpdate {
                id,
                incarnation,
                status,
            });
        }
        if let SwimKind::SyncReq { chunk, chunks } = kind {
            if chunks == 0 || chunk >= chunks {
                return Err(SwimWireError::BadLength);
            }
        }
        Ok(SwimMsg {
            from,
            to,
            seq,
            kind,
            updates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_updates() -> Vec<SwimUpdate> {
        vec![
            SwimUpdate {
                id: NodeId(3),
                incarnation: 0,
                status: SwimStatus::Alive,
            },
            SwimUpdate {
                id: NodeId(9),
                incarnation: 2,
                status: SwimStatus::Faulty,
            },
            SwimUpdate {
                id: NodeId(12),
                incarnation: 1,
                status: SwimStatus::Suspect,
            },
        ]
    }

    fn roundtrip(m: &SwimMsg) -> SwimMsg {
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.wire_size(), "declared size must match");
        assert!(is_swim_tag(bytes[0]));
        SwimMsg::decode(&bytes).expect("decode own encoding")
    }

    #[test]
    fn all_variants_roundtrip() {
        let msgs = [
            SwimMsg {
                from: NodeId(1),
                to: NodeId(2),
                seq: 77,
                kind: SwimKind::Ping,
                updates: sample_updates(),
            },
            SwimMsg {
                from: NodeId(2),
                to: NodeId(1),
                seq: 77,
                kind: SwimKind::Ack,
                updates: Vec::new(),
            },
            SwimMsg {
                from: NodeId(1),
                to: NodeId(5),
                seq: 78,
                kind: SwimKind::PingReq { target: NodeId(2) },
                updates: sample_updates(),
            },
            SwimMsg {
                from: NodeId(5),
                to: NodeId(1),
                seq: 78,
                kind: SwimKind::ProxyAck { target: NodeId(2) },
                updates: vec![],
            },
            SwimMsg {
                from: NodeId(3),
                to: NodeId(9),
                seq: 80,
                kind: SwimKind::SyncReq {
                    chunk: 1,
                    chunks: 3,
                },
                updates: sample_updates(),
            },
            SwimMsg {
                from: NodeId(9),
                to: NodeId(3),
                seq: 80,
                kind: SwimKind::SyncRsp,
                updates: vec![],
            },
            SwimMsg {
                from: NodeId(3),
                to: NodeId(9),
                seq: 81,
                kind: SwimKind::SyncDigest {
                    fingerprint: 0xDEAD_BEEF,
                    known: 140,
                },
                updates: Vec::new(),
            },
            SwimMsg {
                from: NodeId(9),
                to: NodeId(3),
                seq: 81,
                kind: SwimKind::SyncDigestPush {
                    fingerprint: 0xFEED_F00D,
                    known: 141,
                },
                updates: sample_updates(),
            },
        ];
        for m in &msgs {
            assert_eq!(&roundtrip(m), m);
        }
    }

    /// One update whose every byte differs: id `0x0102`, incarnation
    /// `0x0A0B_0C0D`, status `Suspect` (code 1).
    const PIN_UPDATE: SwimUpdate = SwimUpdate {
        id: NodeId(0x0102),
        incarnation: 0x0A0B_0C0D,
        status: SwimStatus::Suspect,
    };
    const PIN_UPDATE_BYTES: [u8; 7] = [0x01, 0x02, 0x0A, 0x0B, 0x0C, 0x0D, 0x01];

    /// Every kind beside its hand-written encoding: tag, from, to, seq,
    /// the kind's own fields, then the count byte and the updates (the
    /// digest has no count).
    fn pinned_frames() -> Vec<(SwimMsg, Vec<u8>)> {
        let left = SwimUpdate {
            id: NodeId(0xFFFE),
            incarnation: 7,
            status: SwimStatus::Left,
        };
        let frame = |head: &[u8], tail: &[u8]| [head, tail].concat();
        let one = [&[1u8][..], &PIN_UPDATE_BYTES].concat();
        vec![
            (
                SwimMsg {
                    from: NodeId(0x0011),
                    to: NodeId(0x0022),
                    seq: 0x0102_0304,
                    kind: SwimKind::Ping,
                    updates: vec![PIN_UPDATE],
                },
                frame(&[16, 0x00, 0x11, 0x00, 0x22, 0x01, 0x02, 0x03, 0x04], &one),
            ),
            (
                SwimMsg {
                    from: NodeId(0x0022),
                    to: NodeId(0x0011),
                    seq: 0xFFFF_FFFE,
                    kind: SwimKind::Ack,
                    updates: vec![],
                },
                vec![17, 0x00, 0x22, 0x00, 0x11, 0xFF, 0xFF, 0xFF, 0xFE, 0],
            ),
            (
                SwimMsg {
                    from: NodeId(1),
                    to: NodeId(5),
                    seq: 78,
                    kind: SwimKind::PingReq {
                        target: NodeId(0x0203),
                    },
                    updates: vec![PIN_UPDATE],
                },
                frame(&[18, 0, 1, 0, 5, 0, 0, 0, 78, 0x02, 0x03], &one),
            ),
            (
                SwimMsg {
                    from: NodeId(5),
                    to: NodeId(1),
                    seq: 78,
                    kind: SwimKind::ProxyAck {
                        target: NodeId(0x0203),
                    },
                    updates: vec![],
                },
                vec![19, 0, 5, 0, 1, 0, 0, 0, 78, 0x02, 0x03, 0],
            ),
            (
                SwimMsg {
                    from: NodeId(3),
                    to: NodeId(9),
                    seq: 80,
                    kind: SwimKind::SyncReq {
                        chunk: 1,
                        chunks: 3,
                    },
                    updates: vec![PIN_UPDATE, left],
                },
                frame(
                    &[20, 0, 3, 0, 9, 0, 0, 0, 80, 1, 3, 2],
                    &[&PIN_UPDATE_BYTES[..], &[0xFF, 0xFE, 0, 0, 0, 7, 3]].concat(),
                ),
            ),
            (
                SwimMsg {
                    from: NodeId(9),
                    to: NodeId(3),
                    seq: 80,
                    kind: SwimKind::SyncRsp,
                    updates: vec![left],
                },
                vec![21, 0, 9, 0, 3, 0, 0, 0, 80, 1, 0xFF, 0xFE, 0, 0, 0, 7, 3],
            ),
            (
                SwimMsg {
                    from: NodeId(3),
                    to: NodeId(9),
                    seq: 81,
                    kind: SwimKind::SyncDigest {
                        fingerprint: 0xDEAD_BEEF,
                        known: 0x018C,
                    },
                    updates: Vec::new(),
                },
                vec![
                    22, 0, 3, 0, 9, 0, 0, 0, 81, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x8C,
                ],
            ),
            (
                SwimMsg {
                    from: NodeId(9),
                    to: NodeId(3),
                    seq: 81,
                    kind: SwimKind::SyncDigestPush {
                        fingerprint: 0xFEED_F00D,
                        known: 141,
                    },
                    updates: vec![PIN_UPDATE],
                },
                frame(
                    &[23, 0, 9, 0, 3, 0, 0, 0, 81, 0xFE, 0xED, 0xF0, 0x0D, 0, 141],
                    &one,
                ),
            ),
        ]
    }

    #[test]
    fn wire_layout_is_pinned_byte_for_byte() {
        for (msg, bytes) in pinned_frames() {
            assert_eq!(msg.encode().as_ref(), &bytes[..], "{msg:?}");
            assert_eq!(msg.wire_size(), bytes.len(), "{msg:?}");
            assert_eq!(SwimMsg::decode_traced(&bytes), Ok((msg, None)));
        }
        // A traced frame: the flagged tag, the same body, then the
        // context's version, episode, origin and hop.
        let msg = SwimMsg {
            from: NodeId(0x0011),
            to: NodeId(0x0022),
            seq: 0x0102_0304,
            kind: SwimKind::Ping,
            updates: vec![PIN_UPDATE],
        };
        let ctx = TraceCtx {
            episode: 0x0005_0003,
            origin: 0x0506,
            hop: 2,
        };
        let traced = [
            &[0x50, 0x00, 0x11, 0x00, 0x22, 0x01, 0x02, 0x03, 0x04, 1][..],
            &PIN_UPDATE_BYTES,
            &[1, 0x00, 0x05, 0x00, 0x03, 0x05, 0x06, 2],
        ]
        .concat();
        assert_eq!(msg.encode_traced(Some(&ctx)).as_ref(), &traced[..]);
        assert_eq!(SwimMsg::decode_traced(&traced), Ok((msg, Some(ctx))));
    }

    #[test]
    fn digest_frame_is_constant_size() {
        let d = SwimMsg {
            from: NodeId(1),
            to: NodeId(2),
            seq: 7,
            kind: SwimKind::SyncDigest {
                fingerprint: u32::MAX,
                known: u16::MAX,
            },
            updates: Vec::new(),
        };
        assert_eq!(d.wire_size(), SWIM_DIGEST_SIZE);
        assert_eq!(d.encode().len(), SWIM_DIGEST_SIZE);
        assert!(d.updates.is_empty());
        // Truncations and trailing garbage are rejected.
        let bytes = d.encode();
        for cut in 0..bytes.len() {
            assert!(SwimMsg::decode(&bytes[..cut]).is_err());
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(SwimMsg::decode(&long), Err(SwimWireError::BadLength));
    }

    #[test]
    #[should_panic(expected = "a digest carries no updates")]
    fn a_digest_with_updates_does_not_encode() {
        let _ = SwimMsg {
            from: NodeId(1),
            to: NodeId(2),
            seq: 7,
            kind: SwimKind::SyncDigest {
                fingerprint: 1,
                known: 1,
            },
            updates: sample_updates(),
        }
        .encode();
    }

    #[test]
    fn digest_push_carries_chunk_and_rejects_malformed() {
        let m = SwimMsg {
            from: NodeId(9),
            to: NodeId(3),
            seq: 5,
            kind: SwimKind::SyncDigestPush {
                fingerprint: 0x1234_5678,
                known: 4,
            },
            updates: sample_updates(),
        };
        assert_eq!(m.wire_size(), SWIM_DIGEST_SIZE + 1 + 3 * SWIM_UPDATE_SIZE);
        assert_eq!(&roundtrip(&m), &m);
        // An empty piggyback is legal (a bare mismatch echo).
        let empty = SwimMsg {
            from: NodeId(9),
            to: NodeId(3),
            seq: 5,
            kind: SwimKind::SyncDigestPush {
                fingerprint: 0x1234_5678,
                known: 4,
            },
            updates: vec![],
        };
        assert_eq!(empty.wire_size(), SWIM_DIGEST_SIZE + 1);
        assert_eq!(&roundtrip(&empty), &empty);
        // Truncations and trailing garbage are rejected.
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(SwimMsg::decode(&bytes[..cut]).is_err());
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(SwimMsg::decode(&long), Err(SwimWireError::BadLength));
    }

    #[test]
    fn sync_frames_carry_a_full_chunk() {
        let entries = |n: usize| -> Vec<SwimUpdate> {
            (0..n)
                .map(|i| SwimUpdate {
                    id: NodeId(i as u16),
                    incarnation: i as u32,
                    status: if i % 3 == 0 {
                        SwimStatus::Faulty
                    } else {
                        SwimStatus::Alive
                    },
                })
                .collect()
        };
        let m = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: entries(SWIM_MAX_FRAME_ENTRIES),
        };
        assert_eq!(
            m.wire_size(),
            SWIM_HEADER_SIZE + 2 + SWIM_MAX_FRAME_ENTRIES * SWIM_UPDATE_SIZE
        );
        assert_eq!(&roundtrip(&m), &m);
        // The default chunk size keeps the datagram inside an Ethernet
        // MTU, IP+UDP framing included.
        let mtu_frame = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: entries(SWIM_MTU_FRAME_ENTRIES),
        };
        assert!(mtu_frame.wire_size() + 28 <= 1500);
    }

    #[test]
    fn sync_req_rejects_inconsistent_chunk_header() {
        let m = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            kind: SwimKind::SyncReq {
                chunk: 0,
                chunks: 1,
            },
            updates: vec![],
        };
        let mut bytes = m.encode().to_vec();
        // Bytes 9..11 are (chunk, chunks): index beyond the total, and
        // a zero total, must both be rejected.
        bytes[9] = 2;
        bytes[10] = 2;
        assert_eq!(SwimMsg::decode(&bytes), Err(SwimWireError::BadLength));
        bytes[9] = 0;
        bytes[10] = 0;
        assert_eq!(SwimMsg::decode(&bytes), Err(SwimWireError::BadLength));
    }

    #[test]
    fn sizes_match_doc() {
        let ping = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            kind: SwimKind::Ping,
            updates: sample_updates(),
        };
        assert_eq!(ping.wire_size(), 10 + 3 * 7);
        let req = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            kind: SwimKind::PingReq { target: NodeId(2) },
            updates: vec![],
        };
        assert_eq!(req.wire_size(), 12);
    }

    #[test]
    fn tag_space_disjoint_from_routing() {
        // Routing tags are 1–9; SWIM must stay clear so drivers can
        // dispatch on the first byte.
        for t in 0..=9u8 {
            assert!(!is_swim_tag(t));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(SwimMsg::decode(&[]), Err(SwimWireError::Truncated));
        assert_eq!(
            SwimMsg::decode(&[200, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(SwimWireError::BadType(200))
        );
        // Valid header, bogus status code.
        let mut bytes = SwimMsg {
            from: NodeId(0),
            to: NodeId(1),
            seq: 0,
            kind: SwimKind::Ping,
            updates: vec![SwimUpdate {
                id: NodeId(2),
                incarnation: 0,
                status: SwimStatus::Alive,
            }],
        }
        .encode()
        .to_vec();
        let last = bytes.len() - 1;
        bytes[last] = 9;
        assert_eq!(SwimMsg::decode(&bytes), Err(SwimWireError::BadStatus(9)));
    }

    #[test]
    fn decode_rejects_truncations() {
        let m = SwimMsg {
            from: NodeId(1),
            to: NodeId(5),
            seq: 78,
            kind: SwimKind::PingReq { target: NodeId(2) },
            updates: sample_updates(),
        };
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(
                SwimMsg::decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    fn sample_ctx() -> TraceCtx {
        TraceCtx {
            episode: 0x0005_0003,
            origin: 5,
            hop: 2,
        }
    }

    #[test]
    fn traced_frames_roundtrip_with_context() {
        let msgs = [
            SwimMsg {
                from: NodeId(1),
                to: NodeId(2),
                seq: 77,
                kind: SwimKind::Ping,
                updates: sample_updates(),
            },
            SwimMsg {
                from: NodeId(3),
                to: NodeId(9),
                seq: 81,
                kind: SwimKind::SyncDigest {
                    fingerprint: 0xDEAD_BEEF,
                    known: 140,
                },
                updates: Vec::new(),
            },
            SwimMsg {
                from: NodeId(9),
                to: NodeId(3),
                seq: 81,
                kind: SwimKind::SyncDigestPush {
                    fingerprint: 0xFEED_F00D,
                    known: 141,
                },
                updates: sample_updates(),
            },
            SwimMsg {
                from: NodeId(3),
                to: NodeId(9),
                seq: 80,
                kind: SwimKind::SyncReq {
                    chunk: 0,
                    chunks: 1,
                },
                updates: sample_updates(),
            },
        ];
        let ctx = sample_ctx();
        for m in &msgs {
            let bytes = m.encode_traced(Some(&ctx));
            assert_eq!(bytes.len(), m.wire_size() + TRACE_CTX_SIZE);
            assert!(is_swim_tag(bytes[0]), "flagged tag still dispatches");
            assert_eq!(bytes[0] & SWIM_TRACE_FLAG, SWIM_TRACE_FLAG);
            let (decoded, got) = SwimMsg::decode_traced(&bytes).expect("decode traced");
            assert_eq!(&decoded, m);
            assert_eq!(got, Some(ctx));
            // The ctx-oblivious decoder still reads the message.
            assert_eq!(&SwimMsg::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn untraced_encode_is_bit_identical() {
        let m = SwimMsg {
            from: NodeId(2),
            to: NodeId(1),
            seq: 77,
            kind: SwimKind::Ack,
            updates: sample_updates(),
        };
        assert_eq!(m.encode_traced(None).as_ref(), m.encode().as_ref());
        let (decoded, ctx) = SwimMsg::decode_traced(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(ctx, None);
    }

    #[test]
    fn traced_frames_reject_every_truncation() {
        let m = SwimMsg {
            from: NodeId(1),
            to: NodeId(2),
            seq: 77,
            kind: SwimKind::Ping,
            updates: sample_updates(),
        };
        let bytes = m.encode_traced(Some(&sample_ctx()));
        for cut in 0..bytes.len() {
            assert!(
                SwimMsg::decode_traced(&bytes[..cut]).is_err(),
                "decode of {cut}-byte traced prefix should fail"
            );
        }
        // Trailing garbage shifts the trailer window and fails too.
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(SwimMsg::decode_traced(&long).is_err());
    }

    #[test]
    fn traced_trailer_rejects_bad_version() {
        let m = SwimMsg {
            from: NodeId(1),
            to: NodeId(2),
            seq: 77,
            kind: SwimKind::Ping,
            updates: vec![],
        };
        let mut bytes = m.encode_traced(Some(&sample_ctx())).to_vec();
        let version_at = bytes.len() - TRACE_CTX_SIZE;
        bytes[version_at] = 2;
        assert_eq!(
            SwimMsg::decode_traced(&bytes),
            Err(SwimWireError::BadLength)
        );
    }
}

//! Compact binary wire format for the SWIM gossip messages.
//!
//! Same style as `apor_linkstate::wire`: hand-rolled big-endian over
//! `bytes`, sized for the bandwidth accounting. The tag space starts at
//! [`SWIM_TAG_BASE`] = 16, disjoint from the overlay's routing tags
//! (1–7), so a driver can dispatch on the first byte of a datagram
//! without trial decoding.
//!
//! Sizes: ping/ack are `10 + 7·u` bytes for `u` piggybacked updates;
//! ping-req/proxy-ack add 2 bytes of target. With one ping round per
//! [`PERIOD_S`](crate::swim::PERIOD_S) = 2 s and ≤ 10 piggybacked
//! updates, a worst-case ping+ack exchange is
//! 2 · (80 + 28) bytes per 2 s ≈ 900 bps per node, independent of
//! `n` — the property that removes the coordinator's `Θ(n)` broadcast
//! hot spot.
//!
//! The anti-entropy frames carry full-ledger records instead of a
//! bounded piggyback: a `SyncReq` is `12 + 7·k` bytes for `k` members
//! (two extra header bytes index the chunk), a `SyncRsp` `10 + 7·k`.
//! Ledgers are chunked at [`SWIM_MTU_FRAME_ENTRIES`] records per frame
//! to stay under a 1500-byte MTU — hard wire cap
//! [`SWIM_MAX_FRAME_ENTRIES`] (the count field is one byte) — and the
//! responder answers a sync
//! `seq` once, with one delta over the reassembled claim set, so one
//! push-pull round per `AntiEntropyConfig::sync_period_s` costs `O(n)`
//! bytes — amortized well below the probing budget at the paper's
//! scales, and the price of healing partitions that piggybacked gossip
//! alone cannot.

use apor_quorum::NodeId;
use apor_telemetry::trace::{TraceCtx, TRACE_CTX_SIZE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
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
/// Bytes of a digest frame (tag, from, to, seq, version, known) — the
/// whole message; a digest carries no updates.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwimUpdate {
    /// The member the event is about.
    pub id: NodeId,
    /// The member's incarnation the event refers to.
    pub incarnation: u32,
    /// The asserted lifecycle state.
    pub status: SwimStatus,
}

/// A SWIM-plane message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwimMsg {
    /// Direct probe; the receiver must [`SwimMsg::Ack`] with the same
    /// `seq`.
    Ping {
        /// Prober.
        from: NodeId,
        /// Probed member.
        to: NodeId,
        /// Correlates the ack (per-sender sequence).
        seq: u32,
        /// Piggybacked gossip.
        updates: Vec<SwimUpdate>,
    },
    /// Reply to a [`SwimMsg::Ping`].
    Ack {
        /// The probed member (replier).
        from: NodeId,
        /// The original prober (or ping-req helper).
        to: NodeId,
        /// Echoed sequence.
        seq: u32,
        /// Piggybacked gossip.
        updates: Vec<SwimUpdate>,
    },
    /// Indirect-probe request: "please ping `target` for me".
    PingReq {
        /// The suspicious origin.
        from: NodeId,
        /// The helper being asked.
        to: NodeId,
        /// The silent member to probe.
        target: NodeId,
        /// The origin's sequence for this probe round.
        seq: u32,
        /// Piggybacked gossip.
        updates: Vec<SwimUpdate>,
    },
    /// Helper → origin: `target` answered the indirect probe.
    ProxyAck {
        /// The helper.
        from: NodeId,
        /// The origin of the ping-req.
        to: NodeId,
        /// The member that proved alive.
        target: NodeId,
        /// The origin's sequence echoed back.
        seq: u32,
        /// Piggybacked gossip.
        updates: Vec<SwimUpdate>,
    },
    /// Anti-entropy push: one chunk of the initiator's full ledger
    /// (every member ever heard of, dead or alive, at its converged
    /// `(incarnation, dead)` state encoded as `Alive` / `Faulty`). The
    /// receiver merges each chunk on arrival and, once all `chunks`
    /// frames of a `seq` are in, answers with the [`SwimMsg::SyncRsp`]
    /// delta computed over the whole claim set.
    SyncReq {
        /// The sync initiator.
        from: NodeId,
        /// The randomly chosen sync partner.
        to: NodeId,
        /// Correlates the chunks and the response (per-sender
        /// sequence).
        seq: u32,
        /// This frame's 0-based chunk index.
        chunk: u8,
        /// Total chunks in this sync round (≥ 1).
        chunks: u8,
        /// Full-ledger records (this chunk).
        updates: Vec<SwimUpdate>,
    },
    /// Anti-entropy pull: the responder's delta — every record where it
    /// holds strictly newer state than the request claimed, plus
    /// members the request did not mention.
    SyncRsp {
        /// The sync responder.
        from: NodeId,
        /// The sync initiator.
        to: NodeId,
        /// Echoed sequence.
        seq: u32,
        /// Delta records.
        updates: Vec<SwimUpdate>,
    },
    /// Anti-entropy version digest: a 15-byte first frame carrying only
    /// the sender's ledger fingerprint. The initiator opens a sync
    /// round with this instead of the `O(n)` full-ledger push; a
    /// receiver whose fingerprint matches answers with an empty
    /// [`SwimMsg::SyncRsp`] (transfer skipped — the steady-state case),
    /// while a mismatching receiver echoes its *own* digest back, which
    /// tells the initiator to proceed with the full [`SwimMsg::SyncReq`]
    /// push. One extra RTT when ledgers diverge; `O(1)` instead of
    /// `O(n)` bytes when they already agree.
    SyncDigest {
        /// The digest sender.
        from: NodeId,
        /// The sync partner (or, when echoing, the round's initiator).
        to: NodeId,
        /// Correlates the round (the initiator's per-sender sequence;
        /// echoed verbatim in the mismatch reply).
        seq: u32,
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
    /// [`SwimMsg::SyncDigest`] whose fingerprint disagreed, answered
    /// with the responder's own digest *plus* the first chunk of its
    /// ledger. Without the piggyback the initiator learns the
    /// responder's records only from the [`SwimMsg::SyncRsp`] pull
    /// after its own full push — one RTT later. With it, a diverged
    /// pair whose ledgers fit one frame (the common case) completes the
    /// responder→initiator transfer inside the digest exchange itself.
    SyncDigestPush {
        /// The echoing responder.
        from: NodeId,
        /// The round's initiator.
        to: NodeId,
        /// The initiator's round sequence, echoed verbatim.
        seq: u32,
        /// The responder's ledger fingerprint (mismatching by
        /// construction).
        fingerprint: u32,
        /// The responder's known-member count.
        known: u16,
        /// The first chunk of the responder's full ledger (up to the
        /// sender's per-frame entry cap).
        updates: Vec<SwimUpdate>,
    },
}

impl SwimMsg {
    /// The sender.
    #[must_use]
    pub fn from(&self) -> NodeId {
        match self {
            SwimMsg::Ping { from, .. }
            | SwimMsg::Ack { from, .. }
            | SwimMsg::PingReq { from, .. }
            | SwimMsg::ProxyAck { from, .. }
            | SwimMsg::SyncReq { from, .. }
            | SwimMsg::SyncRsp { from, .. }
            | SwimMsg::SyncDigest { from, .. }
            | SwimMsg::SyncDigestPush { from, .. } => *from,
        }
    }

    /// The addressee.
    #[must_use]
    pub fn to(&self) -> NodeId {
        match self {
            SwimMsg::Ping { to, .. }
            | SwimMsg::Ack { to, .. }
            | SwimMsg::PingReq { to, .. }
            | SwimMsg::ProxyAck { to, .. }
            | SwimMsg::SyncReq { to, .. }
            | SwimMsg::SyncRsp { to, .. }
            | SwimMsg::SyncDigest { to, .. }
            | SwimMsg::SyncDigestPush { to, .. } => *to,
        }
    }

    /// The piggybacked gossip (digests carry none).
    #[must_use]
    pub fn updates(&self) -> &[SwimUpdate] {
        match self {
            SwimMsg::Ping { updates, .. }
            | SwimMsg::Ack { updates, .. }
            | SwimMsg::PingReq { updates, .. }
            | SwimMsg::ProxyAck { updates, .. }
            | SwimMsg::SyncReq { updates, .. }
            | SwimMsg::SyncRsp { updates, .. }
            | SwimMsg::SyncDigestPush { updates, .. } => updates,
            SwimMsg::SyncDigest { .. } => &[],
        }
    }

    /// Serialized size in bytes (no IP/UDP framing).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        let target = match self {
            SwimMsg::Ping { .. } | SwimMsg::Ack { .. } | SwimMsg::SyncRsp { .. } => 0,
            SwimMsg::PingReq { .. } | SwimMsg::ProxyAck { .. } | SwimMsg::SyncReq { .. } => 2,
            SwimMsg::SyncDigest { .. } => return SWIM_DIGEST_SIZE,
            // Digest layout plus a count byte and the piggybacked chunk.
            SwimMsg::SyncDigestPush { updates, .. } => {
                return SWIM_DIGEST_SIZE + 1 + SWIM_UPDATE_SIZE * updates.len()
            }
        };
        SWIM_HEADER_SIZE + target + SWIM_UPDATE_SIZE * self.updates().len()
    }

    /// Serialize to bytes.
    ///
    /// # Panics
    /// Panics if more than 255 updates are piggybacked (the protocol
    /// caps piggybacking far below that).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.wire_size());
        // The digest frame has its own fixed layout (no update list).
        if let SwimMsg::SyncDigest {
            from,
            to,
            seq,
            fingerprint,
            known,
        } = self
        {
            b.put_u8(T_SYNC_DIGEST);
            b.put_u16(from.0);
            b.put_u16(to.0);
            b.put_u32(*seq);
            b.put_u32(*fingerprint);
            b.put_u16(*known);
            return b.freeze();
        }
        // So does the piggybacked mismatch echo: the digest header
        // followed by a counted update list.
        if let SwimMsg::SyncDigestPush {
            from,
            to,
            seq,
            fingerprint,
            known,
            updates,
        } = self
        {
            assert!(updates.len() <= usize::from(u8::MAX), "piggyback overflow");
            b.put_u8(T_SYNC_DIGEST_PUSH);
            b.put_u16(from.0);
            b.put_u16(to.0);
            b.put_u32(*seq);
            b.put_u32(*fingerprint);
            b.put_u16(*known);
            b.put_u8(updates.len() as u8);
            for u in updates {
                b.put_u16(u.id.0);
                b.put_u32(u.incarnation);
                b.put_u8(u.status.code());
            }
            return b.freeze();
        }
        // The two optional header bytes: a probe target for
        // ping-req/proxy-ack, `(chunk, chunks)` for sync requests.
        let (tag, from, to, seq, extra, updates) = match self {
            SwimMsg::Ping {
                from,
                to,
                seq,
                updates,
            } => (T_PING, from, to, seq, None, updates),
            SwimMsg::Ack {
                from,
                to,
                seq,
                updates,
            } => (T_ACK, from, to, seq, None, updates),
            SwimMsg::PingReq {
                from,
                to,
                target,
                seq,
                updates,
            } => (T_PING_REQ, from, to, seq, Some(target.0), updates),
            SwimMsg::ProxyAck {
                from,
                to,
                target,
                seq,
                updates,
            } => (T_PROXY_ACK, from, to, seq, Some(target.0), updates),
            SwimMsg::SyncReq {
                from,
                to,
                seq,
                chunk,
                chunks,
                updates,
            } => (
                T_SYNC_REQ,
                from,
                to,
                seq,
                Some(u16::from_be_bytes([*chunk, *chunks])),
                updates,
            ),
            SwimMsg::SyncRsp {
                from,
                to,
                seq,
                updates,
            } => (T_SYNC_RSP, from, to, seq, None, updates),
            SwimMsg::SyncDigest { .. } | SwimMsg::SyncDigestPush { .. } => {
                unreachable!("encoded above")
            }
        };
        assert!(updates.len() <= usize::from(u8::MAX), "piggyback overflow");
        b.put_u8(tag);
        b.put_u16(from.0);
        b.put_u16(to.0);
        b.put_u32(*seq);
        if let Some(x) = extra {
            b.put_u16(x);
        }
        b.put_u8(updates.len() as u8);
        for u in updates {
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
    /// Panics if more than 255 updates are piggybacked (as
    /// [`SwimMsg::encode`]).
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

    /// Decode everything after the tag byte. `tag` is the plain
    /// (unflagged) message type.
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
        if tag == T_SYNC_DIGEST {
            // Fixed 15-byte layout: no update list, no count byte.
            if b.remaining() != 6 {
                return Err(if b.remaining() < 6 {
                    SwimWireError::Truncated
                } else {
                    SwimWireError::BadLength
                });
            }
            let fingerprint = b.get_u32();
            let known = b.get_u16();
            return Ok(SwimMsg::SyncDigest {
                from,
                to,
                seq,
                fingerprint,
                known,
            });
        }
        if tag == T_SYNC_DIGEST_PUSH {
            // Digest fields, then a counted update list.
            if b.remaining() < 7 {
                return Err(SwimWireError::Truncated);
            }
            let fingerprint = b.get_u32();
            let known = b.get_u16();
            let count = usize::from(b.get_u8());
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
            return Ok(SwimMsg::SyncDigestPush {
                from,
                to,
                seq,
                fingerprint,
                known,
                updates,
            });
        }
        let extra = if tag == T_PING_REQ || tag == T_PROXY_ACK || tag == T_SYNC_REQ {
            if b.remaining() < 3 {
                return Err(SwimWireError::Truncated);
            }
            Some(b.get_u16())
        } else {
            None
        };
        let count = usize::from(b.get_u8());
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
        Ok(match tag {
            T_PING => SwimMsg::Ping {
                from,
                to,
                seq,
                updates,
            },
            T_ACK => SwimMsg::Ack {
                from,
                to,
                seq,
                updates,
            },
            T_PING_REQ => SwimMsg::PingReq {
                from,
                to,
                target: NodeId(extra.expect("parsed above")),
                seq,
                updates,
            },
            T_SYNC_REQ => {
                let [chunk, chunks] = extra.expect("parsed above").to_be_bytes();
                if chunks == 0 || chunk >= chunks {
                    return Err(SwimWireError::BadLength);
                }
                SwimMsg::SyncReq {
                    from,
                    to,
                    seq,
                    chunk,
                    chunks,
                    updates,
                }
            }
            T_SYNC_RSP => SwimMsg::SyncRsp {
                from,
                to,
                seq,
                updates,
            },
            _ => SwimMsg::ProxyAck {
                from,
                to,
                target: NodeId(extra.expect("parsed above")),
                seq,
                updates,
            },
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
            SwimMsg::Ping {
                from: NodeId(1),
                to: NodeId(2),
                seq: 77,
                updates: sample_updates(),
            },
            SwimMsg::Ack {
                from: NodeId(2),
                to: NodeId(1),
                seq: 77,
                updates: Vec::new(),
            },
            SwimMsg::PingReq {
                from: NodeId(1),
                to: NodeId(5),
                target: NodeId(2),
                seq: 78,
                updates: sample_updates(),
            },
            SwimMsg::ProxyAck {
                from: NodeId(5),
                to: NodeId(1),
                target: NodeId(2),
                seq: 78,
                updates: vec![],
            },
            SwimMsg::SyncReq {
                from: NodeId(3),
                to: NodeId(9),
                seq: 80,
                chunk: 1,
                chunks: 3,
                updates: sample_updates(),
            },
            SwimMsg::SyncRsp {
                from: NodeId(9),
                to: NodeId(3),
                seq: 80,
                updates: vec![],
            },
            SwimMsg::SyncDigest {
                from: NodeId(3),
                to: NodeId(9),
                seq: 81,
                fingerprint: 0xDEAD_BEEF,
                known: 140,
            },
            SwimMsg::SyncDigestPush {
                from: NodeId(9),
                to: NodeId(3),
                seq: 81,
                fingerprint: 0xFEED_F00D,
                known: 141,
                updates: sample_updates(),
            },
        ];
        for m in &msgs {
            assert_eq!(&roundtrip(m), m);
        }
    }

    #[test]
    fn digest_frame_is_constant_size() {
        let d = SwimMsg::SyncDigest {
            from: NodeId(1),
            to: NodeId(2),
            seq: 7,
            fingerprint: u32::MAX,
            known: u16::MAX,
        };
        assert_eq!(d.wire_size(), SWIM_DIGEST_SIZE);
        assert_eq!(d.encode().len(), SWIM_DIGEST_SIZE);
        assert!(d.updates().is_empty());
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
    fn digest_push_carries_chunk_and_rejects_malformed() {
        let m = SwimMsg::SyncDigestPush {
            from: NodeId(9),
            to: NodeId(3),
            seq: 5,
            fingerprint: 0x1234_5678,
            known: 4,
            updates: sample_updates(),
        };
        assert_eq!(m.wire_size(), SWIM_DIGEST_SIZE + 1 + 3 * SWIM_UPDATE_SIZE);
        assert_eq!(&roundtrip(&m), &m);
        // An empty piggyback is legal (a bare mismatch echo).
        let empty = SwimMsg::SyncDigestPush {
            from: NodeId(9),
            to: NodeId(3),
            seq: 5,
            fingerprint: 0x1234_5678,
            known: 4,
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
        let m = SwimMsg::SyncReq {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            chunk: 0,
            chunks: 1,
            updates: entries(SWIM_MAX_FRAME_ENTRIES),
        };
        assert_eq!(
            m.wire_size(),
            SWIM_HEADER_SIZE + 2 + SWIM_MAX_FRAME_ENTRIES * SWIM_UPDATE_SIZE
        );
        assert_eq!(&roundtrip(&m), &m);
        // The default chunk size keeps the datagram inside an Ethernet
        // MTU, IP+UDP framing included.
        let mtu_frame = SwimMsg::SyncReq {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            chunk: 0,
            chunks: 1,
            updates: entries(SWIM_MTU_FRAME_ENTRIES),
        };
        assert!(mtu_frame.wire_size() + 28 <= 1500);
    }

    #[test]
    fn sync_req_rejects_inconsistent_chunk_header() {
        let m = SwimMsg::SyncReq {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            chunk: 0,
            chunks: 1,
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
        let ping = SwimMsg::Ping {
            from: NodeId(0),
            to: NodeId(1),
            seq: 1,
            updates: sample_updates(),
        };
        assert_eq!(ping.wire_size(), 10 + 3 * 7);
        let req = SwimMsg::PingReq {
            from: NodeId(0),
            to: NodeId(1),
            target: NodeId(2),
            seq: 1,
            updates: vec![],
        };
        assert_eq!(req.wire_size(), 12);
    }

    #[test]
    fn tag_space_disjoint_from_routing() {
        // Routing tags are 1–7; SWIM must stay clear so drivers can
        // dispatch on the first byte.
        for t in 0..=7u8 {
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
        let mut bytes = SwimMsg::Ping {
            from: NodeId(0),
            to: NodeId(1),
            seq: 0,
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
        let m = SwimMsg::PingReq {
            from: NodeId(1),
            to: NodeId(5),
            target: NodeId(2),
            seq: 78,
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
            SwimMsg::Ping {
                from: NodeId(1),
                to: NodeId(2),
                seq: 77,
                updates: sample_updates(),
            },
            SwimMsg::SyncDigest {
                from: NodeId(3),
                to: NodeId(9),
                seq: 81,
                fingerprint: 0xDEAD_BEEF,
                known: 140,
            },
            SwimMsg::SyncDigestPush {
                from: NodeId(9),
                to: NodeId(3),
                seq: 81,
                fingerprint: 0xFEED_F00D,
                known: 141,
                updates: sample_updates(),
            },
            SwimMsg::SyncReq {
                from: NodeId(3),
                to: NodeId(9),
                seq: 80,
                chunk: 0,
                chunks: 1,
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
        let m = SwimMsg::Ack {
            from: NodeId(2),
            to: NodeId(1),
            seq: 77,
            updates: sample_updates(),
        };
        assert_eq!(m.encode_traced(None).as_ref(), m.encode().as_ref());
        let (decoded, ctx) = SwimMsg::decode_traced(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(ctx, None);
    }

    #[test]
    fn traced_frames_reject_every_truncation() {
        let m = SwimMsg::Ping {
            from: NodeId(1),
            to: NodeId(2),
            seq: 77,
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
        let m = SwimMsg::Ping {
            from: NodeId(1),
            to: NodeId(2),
            seq: 77,
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

//! Property-based tests on the wire format: arbitrary messages round-trip
//! exactly; arbitrary bytes never panic the decoder; the two in-place
//! frame views accept exactly what the decoder accepts of their kind and
//! read it as the decoded message; the seqno + retraction trailer is
//! strictly additive (flagless frames stay bit-identical to the
//! pre-versioning format).

use allpairs_overlay::linkstate::{
    ls_trailer_size, LaneRow, LinkEntry, LinkStateFrame, LinkStateMsg, LinkStateRow, Message,
    ProbeMsg, ProbeReplyMsg, RecEntry, RecFormat, RecFrame, RecommendationMsg,
    LINKSTATE_HEADER_SIZE, SPARSE_LINKSTATE_HEADER_SIZE,
};
use allpairs_overlay::quorum::NodeId;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_entry() -> impl Strategy<Value = LinkEntry> {
    (any::<u16>(), any::<bool>(), 0u8..=127).prop_map(|(lat, alive, loss_q)| {
        if alive {
            LinkEntry::live(lat.min(u16::MAX - 1), f32::from(loss_q) / 200.0)
        } else {
            LinkEntry::dead()
        }
    })
}

/// Reduce raw picks to a canonical retraction lane: strictly ascending,
/// every destination `< width`. An empty width forces an empty lane.
fn canonical_retractions(raw: &[u16], width: usize) -> Vec<u16> {
    if width == 0 {
        return Vec::new();
    }
    #[allow(clippy::cast_possible_truncation)]
    let mut lane: Vec<u16> = raw.iter().map(|&r| r % width as u16).collect();
    lane.sort_unstable();
    lane.dedup();
    lane
}

/// Raw material for the versioned trailer: a seqno and unreduced
/// retraction picks (canonicalized against the row width in `prop_map`).
fn arb_trailer_raw() -> impl Strategy<Value = (u16, Vec<u16>)> {
    (any::<u16>(), prop::collection::vec(any::<u16>(), 0..8))
}

fn arb_message() -> impl Strategy<Value = Message> {
    let probe = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(f, t, v, s, ts)| {
            Message::Probe(ProbeMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                seq: s,
                sent_ms: ts,
            })
        });
    let reply = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(f, t, v, s, ts)| {
            Message::ProbeReply(ProbeReplyMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                seq: s,
                echo_sent_ms: ts,
            })
        });
    let linkstate = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(arb_entry(), 0..300),
        arb_trailer_raw(),
    )
        .prop_map(|(f, t, v, r, b, entries, (seqno, raw))| {
            let retractions = canonical_retractions(&raw, entries.len());
            Message::LinkState(LinkStateMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                round: r,
                basis_ms: b,
                width: entries.len() as u16,
                row: Arc::new(LaneRow::from_dense(&entries).with_version(seqno, &retractions)),
                liveness_loss: LinkStateMsg::liveness_lane(&entries),
            })
        });
    let sparse = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        1u16..300,
        prop::collection::vec((any::<u16>(), arb_entry()), 0..40),
        arb_trailer_raw(),
    )
        .prop_map(|(f, t, v, r, b, width, raw_entries, (seqno, raw))| {
            // Sparse rows demand strictly ascending in-range dsts.
            let mut entries: Vec<(u16, LinkEntry)> = raw_entries
                .into_iter()
                .map(|(d, e)| (d % width, e))
                .collect();
            entries.sort_unstable_by_key(|&(d, _)| d);
            entries.dedup_by_key(|&mut (d, _)| d);
            let retractions = canonical_retractions(&raw, usize::from(width));
            Message::LinkStateSparse(LinkStateMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                round: r,
                basis_ms: b,
                width,
                row: Arc::new(LaneRow::from_pairs(&entries).with_version(seqno, &retractions)),
                liveness_loss: LinkStateMsg::liveness_lane(
                    &entries.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
                ),
            })
        });
    let recs = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 0..80),
    )
        .prop_map(|(f, t, v, r, b, with_cost, entries)| {
            let format = if with_cost {
                RecFormat::WithCost
            } else {
                RecFormat::Compact
            };
            Message::Recommendations(RecommendationMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                round: r,
                basis_ms: b,
                format,
                recs: entries
                    .into_iter()
                    .map(|(d, h, c)| RecEntry {
                        dst: NodeId(d),
                        hop: NodeId(h),
                        cost_ms: if format == RecFormat::Compact {
                            u16::MAX
                        } else {
                            c
                        },
                    })
                    .collect(),
            })
        });
    let join = (any::<u16>(), any::<u16>()).prop_map(|(f, t)| Message::Join {
        from: NodeId(f),
        to: NodeId(t),
    });
    let view = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        prop::collection::vec(any::<u16>(), 0..200),
    )
        .prop_map(|(f, t, v, members)| {
            Message::View(allpairs_overlay::linkstate::wire::ViewMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                members: members.into_iter().map(NodeId).collect(),
            })
        });
    prop_oneof![probe, reply, linkstate, sparse, recs, join, view]
}

/// Strip a versioned link-state frame down to its flagless twin: same
/// message, seqno 0, nothing retracted.
fn flagless_twin(msg: &Message) -> Option<(Message, usize)> {
    let strip = |m: &LinkStateMsg| LinkStateMsg {
        row: Arc::new(LaneRow::clone(&m.row).with_version(0, &[])),
        ..m.clone()
    };
    match msg {
        Message::LinkState(m) => Some((Message::LinkState(strip(m)), LINKSTATE_HEADER_SIZE)),
        Message::LinkStateSparse(m) => Some((
            Message::LinkStateSparse(strip(m)),
            SPARSE_LINKSTATE_HEADER_SIZE,
        )),
        _ => None,
    }
}

/// Type tags of the frames the views read: dense and sparse link state,
/// and recommendations.
const LINKSTATE_TAGS: [u8; 2] = [3, 9];
const REC_TAG: u8 = 4;

/// The views agree with [`Message::decode`] on `bytes`: a link-state or
/// recommendation frame parses in its view exactly when it decodes —
/// with the decoder's error when it does not — and the view reads what
/// the decoded message holds; the other view, and both on any other
/// kind of frame, refuse it. Neither panics.
fn views_agree(bytes: &[u8]) {
    let decoded = Message::decode(bytes);
    let linkstate = LinkStateFrame::parse(bytes);
    let rec = RecFrame::parse(bytes);
    match bytes.first() {
        Some(tag) if LINKSTATE_TAGS.contains(tag) => {
            prop_assert_eq!(linkstate.clone().map(|f| f.to_message()), decoded.clone());
            prop_assert!(rec.is_err());
        }
        Some(&REC_TAG) => {
            prop_assert_eq!(rec.clone().map(|f| f.to_message()), decoded.clone());
            prop_assert!(linkstate.is_err());
        }
        _ => prop_assert!(linkstate.is_err() && rec.is_err()),
    }
    if let Ok(frame) = linkstate {
        let Ok(Message::LinkState(m) | Message::LinkStateSparse(m)) = &decoded else {
            unreachable!("checked above")
        };
        let (dst, latency_ms) = m.row.lanes();
        let listed: Vec<(u16, u16)> = dst
            .iter()
            .copied()
            .zip(latency_ms.iter().copied())
            .collect();
        prop_assert_eq!(frame.live_entries().collect::<Vec<_>>(), listed);
        prop_assert_eq!(frame.row(), LaneRow::clone(&m.row));
    }
    if let Ok(frame) = rec {
        let Ok(Message::Recommendations(m)) = &decoded else {
            unreachable!("checked above")
        };
        prop_assert_eq!(frame.entries().collect::<Vec<_>>(), m.recs.clone());
    }
}

proptest! {
    /// encode → decode is the identity on every representable message.
    #[test]
    fn roundtrip_identity(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.wire_size());
        let decoded = Message::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder and the frame views never panic on arbitrary input
    /// and agree on it ([`views_agree`]), and any accepted message
    /// re-encodes to semantically identical bytes. Three cases in eight
    /// carry a routing frame's type tag, so the views see garbage of
    /// their own kind.
    #[test]
    fn decoder_total_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        retag in 0usize..8,
    ) {
        let mut bytes = bytes;
        let routing_tags = [LINKSTATE_TAGS[0], LINKSTATE_TAGS[1], REC_TAG];
        if let (Some(first), Some(&tag)) = (bytes.first_mut(), routing_tags.get(retag)) {
            *first = tag;
        }
        views_agree(&bytes);
        if let Ok(msg) = Message::decode(&bytes) {
            // Whatever was accepted must round-trip stably from its own
            // canonical encoding (not necessarily the original bytes:
            // unknown flag bits are dropped).
            let canon = msg.encode();
            prop_assert_eq!(Message::decode(&canon).unwrap(), msg);
        }
    }

    /// Truncating any valid message always fails cleanly, in the
    /// decoder and in both frame views, which read the whole message
    /// as the decoder does.
    #[test]
    fn truncation_always_detected(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = msg.encode();
        views_agree(&bytes);
        if bytes.len() > 1 {
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let cut = cut.clamp(0, bytes.len() - 1);
            prop_assert!(Message::decode(&bytes[..cut]).is_err());
            prop_assert!(LinkStateFrame::parse(&bytes[..cut]).is_err());
            prop_assert!(RecFrame::parse(&bytes[..cut]).is_err());
        }
    }

    /// The route-discipline trailer is strictly additive: zeroing the
    /// seqno and retraction lane of any link-state frame changes only
    /// the flags word and drops exactly the trailer bytes. Seqno-free
    /// frames therefore stay bit-identical to the pre-versioning
    /// format — old captures parse unchanged and pay nothing.
    #[test]
    fn flagless_frames_bit_identical(msg in arb_message()) {
        if let Some((twin, header)) = flagless_twin(&msg) {
            let versioned = msg.encode();
            let flagless = twin.encode();
            let (Message::LinkState(m) | Message::LinkStateSparse(m)) = &msg else {
                unreachable!()
            };
            let trailer = ls_trailer_size(m.row.seqno(), m.row.retracted());
            prop_assert_eq!(versioned.len(), flagless.len() + trailer);
            // Bytes agree everywhere but the 2-byte flags word that
            // closes the header.
            let fo = header - 2;
            prop_assert_eq!(&versioned[..fo], &flagless[..fo]);
            prop_assert_eq!(&flagless[fo..header], &[0u8, 0u8][..]);
            prop_assert_eq!(&versioned[header..flagless.len()], &flagless[header..]);
            if trailer == 0 {
                prop_assert_eq!(&versioned[..], &flagless[..]);
            }
        }
    }
}

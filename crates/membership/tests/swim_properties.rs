//! Property tests for the SWIM subsystem's two contracts:
//!
//! 1. **Determinism / agreement** — nodes observing the same event
//!    sequence converge to byte-identical `(version, sorted members)`
//!    views, independent of their private randomness; and the ledger is
//!    order-insensitive, so *eventually seeing the same events* suffices.
//! 2. **Wire totality** — every representable message round-trips
//!    exactly; the decoder never panics on arbitrary bytes.

use apor_membership::wire::SWIM_TRACE_FLAG;
use apor_membership::{Swim, SwimConfig, SwimKind, SwimMsg, SwimStatus, SwimUpdate, ViewLedger};
use apor_quorum::NodeId;
use apor_telemetry::TraceCtx;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn arb_status() -> impl Strategy<Value = SwimStatus> {
    (0u8..4).prop_map(|code| match code {
        0 => SwimStatus::Alive,
        1 => SwimStatus::Suspect,
        2 => SwimStatus::Faulty,
        _ => SwimStatus::Left,
    })
}

fn arb_update() -> impl Strategy<Value = SwimUpdate> {
    (0u16..40, 0u32..4, arb_status()).prop_map(|(id, incarnation, status)| SwimUpdate {
        id: NodeId(id),
        incarnation,
        status,
    })
}

fn arb_msg() -> impl Strategy<Value = SwimMsg> {
    let updates = || prop::collection::vec(arb_update(), 0..12);
    let ping =
        (0u16..40, 0u16..40, any::<u32>(), updates()).prop_map(|(f, t, seq, updates)| SwimMsg {
            from: NodeId(f),
            to: NodeId(t),
            seq,
            kind: SwimKind::Ping,
            updates,
        });
    let ack =
        (0u16..40, 0u16..40, any::<u32>(), updates()).prop_map(|(f, t, seq, updates)| SwimMsg {
            from: NodeId(f),
            to: NodeId(t),
            seq,
            kind: SwimKind::Ack,
            updates,
        });
    let ping_req = (0u16..40, 0u16..40, 0u16..40, any::<u32>(), updates()).prop_map(
        |(f, t, target, seq, updates)| SwimMsg {
            from: NodeId(f),
            to: NodeId(t),
            seq,
            kind: SwimKind::PingReq {
                target: NodeId(target),
            },
            updates,
        },
    );
    let proxy = (0u16..40, 0u16..40, 0u16..40, any::<u32>(), updates()).prop_map(
        |(f, t, target, seq, updates)| SwimMsg {
            from: NodeId(f),
            to: NodeId(t),
            seq,
            kind: SwimKind::ProxyAck {
                target: NodeId(target),
            },
            updates,
        },
    );
    prop_oneof![ping, ack, ping_req, proxy]
}

fn arb_ctx() -> impl Strategy<Value = TraceCtx> {
    (any::<u32>(), any::<u16>(), any::<u8>()).prop_map(|(episode, origin, hop)| TraceCtx {
        episode,
        origin,
        hop,
    })
}

proptest! {
    /// Two SWIM nodes observing the same event sequence converge to
    /// byte-identical sorted views, regardless of their private
    /// randomness seeds. (A node's *probing* is seed-dependent, so the
    /// shared sequence here is the inbound gossip plus one final timer
    /// tick that resolves pending suspicions; the full
    /// probing-in-the-loop agreement is exercised end-to-end by the
    /// simulator tests in `tests/membership_churn.rs`.)
    #[test]
    fn same_event_sequence_identical_views(
        msgs in prop::collection::vec(arb_msg(), 1..40),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let members: Vec<NodeId> = (0..5u16).map(NodeId).collect();
        let mut a = Swim::bootstrap(
            NodeId(0),
            SwimConfig { seed: seed_a, ..SwimConfig::default() },
            &members,
        );
        let mut b = Swim::bootstrap(
            NodeId(0),
            SwimConfig { seed: seed_b, ..SwimConfig::default() },
            &members,
        );
        let mut t = 0.0;
        for msg in &msgs {
            t += 0.4;
            a.on_message(t, msg, &mut Vec::new());
            b.on_message(t, msg, &mut Vec::new());
        }
        // One shared tick so pending suspicions confirm identically.
        let settle = t + apor_membership::suspicion_timeout_s_for(members.len()) + 1.0;
        a.on_tick(settle, &mut Vec::new());
        b.on_tick(settle, &mut Vec::new());
        prop_assert_eq!(a.current_view(), b.current_view());
        prop_assert_eq!(a.ledger(), b.ledger());
    }

    /// The view ledger is order-insensitive: any permutation of any
    /// event multiset converges to the same members and version.
    #[test]
    fn ledger_event_order_is_irrelevant(
        events in prop::collection::vec((0u16..20, 0u32..4, any::<bool>()), 0..60),
        shuffle_seed in any::<u64>(),
    ) {
        let mut forward = ViewLedger::new();
        for &(id, inc, dead) in &events {
            forward.apply(NodeId(id), inc, dead);
        }
        let mut shuffled = events.clone();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(shuffle_seed);
        shuffled.shuffle(&mut rng);
        let mut backward = ViewLedger::new();
        for &(id, inc, dead) in &shuffled {
            backward.apply(NodeId(id), inc, dead);
        }
        prop_assert_eq!(forward.version(), backward.version());
        prop_assert_eq!(forward.members(), backward.members());
    }

    /// encode → decode is the identity on every representable message.
    #[test]
    fn wire_roundtrip_identity(msg in arb_msg()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.wire_size());
        let decoded = SwimMsg::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder is total: arbitrary bytes never panic, and anything
    /// accepted re-encodes to a stable canonical form.
    #[test]
    fn wire_decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        if let Ok(msg) = SwimMsg::decode(&bytes) {
            let canon = msg.encode();
            prop_assert_eq!(SwimMsg::decode(&canon).unwrap(), msg);
        }
        // The trace-aware decoder is total on the same inputs.
        let _ = SwimMsg::decode_traced(&bytes);
    }

    /// Trace-context piggybacking: encode → decode returns both the
    /// message and the context, untraced frames stay bit-identical to
    /// the legacy format, and *every* proper prefix of a traced frame
    /// is rejected with an error (never a panic, never a silent
    /// misparse) — the truncation-safety contract of signalling the
    /// trailer in the tag byte.
    #[test]
    fn traced_wire_roundtrip_and_truncation_safety(msg in arb_msg(), ctx in arb_ctx()) {
        let plain = msg.encode();
        prop_assert_eq!(msg.encode_traced(None).as_ref(), plain.as_ref());
        let (decoded, none) = SwimMsg::decode_traced(&plain).expect("legacy frame decodes");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(none, None);

        let traced = msg.encode_traced(Some(&ctx));
        prop_assert_eq!(traced.len(), plain.len() + apor_telemetry::trace::TRACE_CTX_SIZE);
        prop_assert_eq!(traced[0] & SWIM_TRACE_FLAG, SWIM_TRACE_FLAG);
        prop_assert!(apor_membership::wire::is_swim_tag(traced[0]));
        let (roundtripped, got) = SwimMsg::decode_traced(&traced).expect("traced frame decodes");
        prop_assert_eq!(roundtripped, msg);
        prop_assert_eq!(got, Some(ctx));
        for cut in 0..traced.len() {
            prop_assert!(
                SwimMsg::decode_traced(&traced[..cut]).is_err(),
                "{cut}-byte prefix of a traced frame must be rejected"
            );
        }
    }

    /// Gossiped suspicion of a live node never changes the view by
    /// itself — only confirmation (the suspicion timeout) or refutation
    /// moves membership, which is what keeps grids stable under probe
    /// noise.
    #[test]
    fn suspicion_alone_never_changes_views(target in 1u16..5) {
        let members: Vec<NodeId> = (0..5u16).map(NodeId).collect();
        let mut s = Swim::bootstrap(NodeId(0), SwimConfig::default(), &members);
        let before = s.current_view();
        let gossip = SwimMsg {
            from: NodeId((target % 4) + 1),
            to: NodeId(0),
            seq: 1,
            kind: SwimKind::Ping,
            updates: vec![SwimUpdate {
                id: NodeId(target),
                incarnation: 0,
                status: SwimStatus::Suspect,
            }],
        };
        s.on_message(0.5, &gossip, &mut Vec::new());
        prop_assert_eq!(s.current_view(), before);
        prop_assert!(s.is_suspected(NodeId(target)) || target == 0);
    }
}

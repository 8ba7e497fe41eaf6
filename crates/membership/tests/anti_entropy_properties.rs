//! Property tests for the anti-entropy (push-pull full-ledger sync)
//! contracts:
//!
//! 1. **Wire totality** — sync frames round-trip the codec exactly,
//!    including maximal chunks.
//! 2. **Idempotence** — replaying the same sync exchange moves nothing:
//!    the merge is a lattice join.
//! 3. **Order-insensitivity** — one full push-pull exchange converges a
//!    pair, and the converged state does not depend on which side
//!    initiated (A⇄B and B⇄A agree).
//!
//! Every exchange here is routed through `encode`/`decode`, so the
//! properties cover the wire codec, not just the in-memory state
//! machine.

use apor_membership::{Swim, SwimConfig, SwimKind, SwimMsg, SwimStatus, SwimUpdate};
use apor_quorum::NodeId;
use proptest::prelude::*;

fn arb_ledger_update() -> impl Strategy<Value = SwimUpdate> {
    // Ledger records only carry Alive/Faulty (suspicion is transient
    // and never synced).
    (2u16..30, 0u32..4, any::<bool>()).prop_map(|(id, incarnation, dead)| SwimUpdate {
        id: NodeId(id),
        incarnation,
        status: if dead {
            SwimStatus::Faulty
        } else {
            SwimStatus::Alive
        },
    })
}

fn arb_sync_frame() -> impl Strategy<Value = SwimMsg> {
    let updates = || prop::collection::vec(arb_ledger_update(), 0..40);
    let req = (0u16..30, 0u16..30, any::<u32>(), 0u8..8, 1u8..9, updates()).prop_map(
        |(f, t, seq, chunk, extra, updates)| SwimMsg {
            from: NodeId(f),
            to: NodeId(t),
            seq,
            kind: SwimKind::SyncReq {
                chunk,
                // The wire requires chunk < chunks.
                chunks: chunk.saturating_add(extra),
            },
            updates,
        },
    );
    let rsp =
        (0u16..30, 0u16..30, any::<u32>(), updates()).prop_map(|(f, t, seq, updates)| SwimMsg {
            from: NodeId(f),
            to: NodeId(t),
            seq,
            kind: SwimKind::SyncRsp,
            updates,
        });
    prop_oneof![req, rsp]
}

/// A node's full ledger as sync records — what `SyncReq` pushes.
fn ledger_entries(s: &Swim) -> Vec<SwimUpdate> {
    s.ledger()
        .iter()
        .map(|(id, state)| SwimUpdate {
            id,
            incarnation: state.incarnation,
            status: if state.dead {
                SwimStatus::Faulty
            } else {
                SwimStatus::Alive
            },
        })
        .collect()
}

/// One full push-pull exchange, initiator → responder, with every frame
/// routed through the wire codec. `per_frame` exercises the chunked
/// path when smaller than the ledger.
fn sync_exchange_chunked(
    initiator: &mut Swim,
    responder: &mut Swim,
    t: f64,
    seq: u32,
    per_frame: usize,
) {
    let entries = ledger_entries(initiator);
    let total = entries.chunks(per_frame).count().max(1) as u8;
    let mut responses = Vec::new();
    for (i, chunk) in entries.chunks(per_frame).enumerate() {
        let req = SwimMsg {
            from: initiator.me(),
            to: responder.me(),
            seq,
            kind: SwimKind::SyncReq {
                chunk: i as u8,
                chunks: total,
            },
            updates: chunk.to_vec(),
        };
        let req = SwimMsg::decode(&req.encode()).expect("req roundtrip");
        responder.on_message(t, &req, &mut responses);
    }
    for rsp in responses {
        assert_eq!(rsp.to, initiator.me());
        let rsp = SwimMsg::decode(&rsp.encode()).expect("rsp roundtrip");
        initiator.on_message(t + 0.01, &rsp, &mut Vec::new());
    }
}

fn sync_exchange(initiator: &mut Swim, responder: &mut Swim, t: f64, seq: u32) {
    sync_exchange_chunked(initiator, responder, t, seq, usize::MAX);
}

/// A node at `id` that has absorbed `events` on top of a common
/// bootstrap membership.
fn diverged_node(id: u16, seed: u64, events: &[SwimUpdate]) -> Swim {
    let members: Vec<NodeId> = (0..6u16).map(NodeId).collect();
    let mut s = Swim::bootstrap(
        NodeId(id),
        SwimConfig {
            seed,
            ..SwimConfig::default()
        },
        &members,
    );
    let mut out = Vec::new();
    // Deliver as gossip on a ping so the regular merge path runs.
    for (k, chunk) in events.chunks(10).enumerate() {
        let carrier = SwimMsg {
            from: NodeId(5),
            to: NodeId(id),
            seq: k as u32,
            kind: SwimKind::Ping,
            updates: chunk.to_vec(),
        };
        s.on_message(0.1 * k as f64, &carrier, &mut out);
    }
    s
}

proptest! {
    /// encode → decode is the identity on every representable sync
    /// frame.
    #[test]
    fn sync_frames_roundtrip_the_codec(msg in arb_sync_frame()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.wire_size());
        prop_assert_eq!(SwimMsg::decode(&bytes).expect("decode"), msg);
    }

    /// One push-pull exchange converges the pair: both ledgers equal
    /// the join of the two divergent states, and the derived
    /// `(version, members)` views agree.
    #[test]
    fn one_exchange_converges_a_divergent_pair(
        events_a in prop::collection::vec(arb_ledger_update(), 0..30),
        events_b in prop::collection::vec(arb_ledger_update(), 0..30),
    ) {
        let mut a = diverged_node(0, 11, &events_a);
        let mut b = diverged_node(1, 22, &events_b);
        sync_exchange(&mut a, &mut b, 5.0, 1);
        prop_assert_eq!(a.ledger(), b.ledger(), "push-pull must converge the pair");
        prop_assert_eq!(a.current_view(), b.current_view());
    }

    /// Replaying the identical exchange is a no-op: the merge is a
    /// lattice join, so duplicated sync frames can never corrupt state.
    #[test]
    fn sync_is_idempotent(
        events_a in prop::collection::vec(arb_ledger_update(), 0..30),
        events_b in prop::collection::vec(arb_ledger_update(), 0..30),
    ) {
        let mut a = diverged_node(0, 11, &events_a);
        let mut b = diverged_node(1, 22, &events_b);
        sync_exchange(&mut a, &mut b, 5.0, 1);
        let (la, lb) = (a.ledger().clone(), b.ledger().clone());
        sync_exchange(&mut a, &mut b, 6.0, 2);
        sync_exchange(&mut a, &mut b, 7.0, 3);
        prop_assert_eq!(a.ledger(), &la, "replay moved the initiator");
        prop_assert_eq!(b.ledger(), &lb, "replay moved the responder");
    }

    /// Chunking the push never changes the outcome: a multi-frame sync
    /// converges the pair exactly like a single-frame one, with one
    /// delta per round.
    #[test]
    fn chunked_exchange_matches_unchunked(
        events_a in prop::collection::vec(arb_ledger_update(), 0..30),
        events_b in prop::collection::vec(arb_ledger_update(), 0..30),
        per_frame in 1usize..8,
    ) {
        let mut a1 = diverged_node(0, 11, &events_a);
        let mut b1 = diverged_node(1, 22, &events_b);
        sync_exchange(&mut a1, &mut b1, 5.0, 1);
        let mut a2 = diverged_node(0, 11, &events_a);
        let mut b2 = diverged_node(1, 22, &events_b);
        sync_exchange_chunked(&mut a2, &mut b2, 5.0, 1, per_frame);
        prop_assert_eq!(a1.ledger(), a2.ledger());
        prop_assert_eq!(b1.ledger(), b2.ledger());
        prop_assert_eq!(a2.ledger(), b2.ledger(), "chunked sync must converge");
    }

    /// Who initiates is irrelevant: A⇄B and B⇄A land the pair on
    /// identical ledgers.
    #[test]
    fn exchange_direction_is_irrelevant(
        events_a in prop::collection::vec(arb_ledger_update(), 0..30),
        events_b in prop::collection::vec(arb_ledger_update(), 0..30),
    ) {
        let mut a1 = diverged_node(0, 11, &events_a);
        let mut b1 = diverged_node(1, 22, &events_b);
        sync_exchange(&mut a1, &mut b1, 5.0, 1); // A initiates
        let mut a2 = diverged_node(0, 33, &events_a);
        let mut b2 = diverged_node(1, 44, &events_b);
        sync_exchange(&mut b2, &mut a2, 5.0, 1); // B initiates
        prop_assert_eq!(a1.ledger(), a2.ledger());
        prop_assert_eq!(b1.ledger(), b2.ledger());
        prop_assert_eq!(a1.ledger(), b2.ledger());
        // And running the reverse exchange afterwards moves nothing.
        sync_exchange(&mut b1, &mut a1, 6.0, 2);
        prop_assert_eq!(a1.ledger(), a2.ledger());
    }

    /// Dead-record GC preserves partition healing inside the tombstone
    /// window: for an arbitrary death-confirmation time and an
    /// arbitrary heal time strictly within
    /// `TOMBSTONE_GC_SYNCS · sync_period_s` of it,
    /// the "dead" partner (the other side of the split) is still in the
    /// sync partner pool, the crossing round still happens, the victim
    /// still refutes with a bumped incarnation, and the pull half
    /// resurrects it on the initiator. Past the window the partner
    /// drops out of the pool — the GC doing its job.
    #[test]
    fn healing_works_anywhere_inside_the_tombstone_window(
        sync_period_ds in 2u32..40,            // 0.2 s .. 4.0 s
        death_frac in 0.0f64..1.0,             // when the death lands
        heal_frac in 0.05f64..0.95,            // where in the window the heal falls
        seed in 0u64..1000,
    ) {
        let sync_period_s = f64::from(sync_period_ds) / 10.0;
        let cfg = |seed: u64| SwimConfig {
            anti_entropy: apor_membership::AntiEntropyConfig {
                enabled: true,
                sync_period_s,
            },
            seed,
        };
        let members: Vec<NodeId> = vec![NodeId(0), NodeId(1)];
        let mut a = Swim::bootstrap(NodeId(0), cfg(seed), &members);
        let mut b = Swim::bootstrap(NodeId(1), cfg(seed ^ 0xFF), &members);
        let window = f64::from(apor_membership::TOMBSTONE_GC_SYNCS) * sync_period_s;
        let death_at = death_frac * 100.0;
        // The split: a confirms b dead at `death_at`. (Carried on a
        // SyncRsp so the carrier's identity is not itself enrolled —
        // b must stay a's *only* possible sync partner.)
        let verdict = SwimUpdate { id: NodeId(1), incarnation: 0, status: SwimStatus::Faulty };
        let carrier = SwimMsg {
            from: NodeId(2),
            to: NodeId(0),
            seq: 99,
            kind: SwimKind::SyncRsp,
            updates: vec![verdict],
        };
        a.on_message(death_at, &SwimMsg::decode(&carrier.encode()).unwrap(), &mut Vec::new());
        prop_assert!(!a.ledger().is_live(NodeId(1)));

        // The heal lands strictly inside the tombstone window, early
        // enough that the next scheduled round (≤ 1 period away) still
        // precedes expiry.
        let heal_at = death_at + heal_frac * (window - 1.5 * sync_period_s).max(0.0);
        prop_assert!(!a.is_tombstone_expired(NodeId(1), heal_at));
        // …so b is still a legal partner: drive a's scheduler until it
        // opens the crossing round.
        let mut frames: Vec<SwimMsg> = Vec::new();
        let mut t = heal_at;
        let deadline = heal_at + 4.0 * sync_period_s + 1.0;
        while !frames.iter().any(|m| m.to == NodeId(1)) {
            prop_assert!(t < deadline, "no sync round opened towards the dead partner");
            a.on_tick(t, &mut frames);
            t += sync_period_s / 4.0;
        }
        // Deliver the full cascade: digest → mismatch echo → full push
        // → delta (plus slack), every frame through the wire codec.
        for _ in 0..5 {
            let mut replies = Vec::new();
            for m in frames.drain(..) {
                let m = SwimMsg::decode(&m.encode()).unwrap();
                if m.to == NodeId(1) {
                    b.on_message(t, &m, &mut replies);
                } else if m.to == NodeId(0) {
                    a.on_message(t, &m, &mut replies);
                }
            }
            // Re-address: replies from b go to a and vice versa.
            frames = replies;
            t += 0.01;
        }
        prop_assert!(
            b.incarnation() > 0,
            "the declared-dead node must have refuted (learned its own death verdict)"
        );
        prop_assert!(
            a.ledger().is_live(NodeId(1)),
            "the refutation must resurrect the member on the initiator"
        );
        // Past the window (fresh death, no heal), the partner expires.
        prop_assert!(a.is_tombstone_expired(NodeId(1), death_at + window) || a.ledger().is_live(NodeId(1)));
    }
}

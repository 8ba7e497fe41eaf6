//! Link-state machinery for the RON-like overlay (paper section 5).
//!
//! Three concerns live here, all I/O-free:
//!
//! * [`store`] — the sparse [`RowStore`]: an indexed map `origin row →
//!   (receipt time, lanes)` holding exactly the rows a node's role
//!   entitles it to — its own row plus its `~2√n` rendezvous clients'
//!   rows — so per-node state is the paper's `O(n√n)` bound instead of
//!   `O(n²)`. There is one row layout: a row is stored struct-of-arrays
//!   ([`LaneRow`]), parallel `dst`/`latency_ms` lanes holding the exact
//!   wire latencies of the live entries — 4 B per entry, or 2 B when the
//!   row is live to every destination and borrows the shared identity
//!   lane instead of holding a `dst` lane — and borrowed as a
//!   [`RowRef`]. A row holds what routing reads and nothing more: the
//!   entries' liveness/loss bytes travel in the frame
//!   ([`LinkStateMsg::liveness_loss`]) and no store keeps them. There is one cost domain: the wire format is already
//!   fixed-point — latencies are integer milliseconds in a `u16`, loss
//!   is quantized to half-percent units — so every cost in the routing
//!   path, from the round-two kernel to the feasibility distances, is
//!   `u32` milliseconds (a sum of `u16` legs) with the all-ones
//!   [`INFINITE_COST`] for "no path". There is one round-two kernel: a
//!   server's whole tick is one [`RoundTwo`] pass, each unordered client
//!   pair once (link costs are symmetric, so the two directions are one
//!   computation), one row scattered into a dense lane and the other's
//!   live entries gathered against it — or, when the two rows list the
//!   same destinations, their latency lanes reduced elementwise. Which
//!   of the two a pair takes is read off the rows, not configured:
//!   full-width rows (full-mesh probing) always share a lane, the
//!   `~2√n`-entry rows of entitled probing never do, and both kinds of
//!   overlay are run. A single pair is a tick with one client; the
//!   tests hold the kernel to a brute-force oracle.
//!   Rows carry receipt timestamps for the 3-routing-interval freshness
//!   rule of section 6.2.2; an optional row entitlement is enforced —
//!   a fresh row beyond it is refused and counted
//!   (`linkstate/rows_rejected`) — so neither a protocol regression nor
//!   a peer can grow a node back to `O(n)` rows. The kernel is written as provided methods of the
//!   [`LinkStateStore`] trait, whose only implementor is [`RowStore`]:
//!   the trait remains because the end-to-end benchmark package names
//!   it, not because a second store exists (the full-mesh baseline
//!   keeps a private matrix in `apor-routing` and shares nothing with
//!   this module).
//! * [`entry`] — the 3-byte link-state entry and the cost sentinel.
//! * [`wire`] — the compact binary message formats. The paper's section 6
//!   bandwidth formulas (probing `49.1·n` bps; RON routing
//!   `1.6·n² + 24.5·n` bps; quorum routing
//!   `6.4·n·√n + 17.1·n + ~200·√n` bps) pin down the message sizes
//!   exactly: 18-byte probes, `21 + 3n`-byte link-state messages,
//!   `23 + 4·k`-byte recommendation messages, all riding on 28 bytes of
//!   IP+UDP framing. The codec here reproduces those sizes byte-for-byte
//!   and the tests assert them.
//!
//! ## The message path of a link-state row
//!
//! A row is one thing from the sender's tick to the receiver's kernel:
//! a [`LaneRow`] — at the sender behind an `Arc` its frames share, at
//! the receiver filled straight from the frame bytes — and it is never
//! converted to entries on the way. Beside it each message carries the
//! entries' liveness/loss bytes ([`LinkStateMsg::liveness_loss`]), the
//! one part of the wire entry no route reads, which lives exactly as
//! long as the message; a receiver that reads the frame where it lies
//! never copies them out.
//!
//! 1. **Sender.** The routing tick reduces the freshly measured row to
//!    lanes once ([`LaneRow::from_dense`]) and its liveness bytes to
//!    one lane ([`LinkStateMsg::liveness_lane`]) — the only places
//!    entries are quantized — hands the row's `Arc` to its own store
//!    and clones both `Arc`s into each of the `~2√n` [`LinkStateMsg`]s
//!    of the tick. The frames own nothing but their envelope.
//! 2. **Encode.** [`Message::encode`] writes the lanes as they are —
//!    `dst`, latency, liveness byte per live entry (sparse), or every
//!    slot with dead filler between them (dense) — then the seqno
//!    trailer if the row has a version. A sparse row and a full dense
//!    one are written 64 records at a time, so a frame costs a copy
//!    loop and each of a tick's frames is simply encoded. The message
//!    is dropped; the bytes belong to the driver.
//! 3. **Check.** The receiving node reads the frame where it lies
//!    ([`LinkStateFrame::parse`]): lengths, strictly ascending in-range
//!    destinations, trailer rules — one pass, no allocation. The
//!    entries stay in the payload, and a router reads them there
//!    ([`LinkStateRow`]).
//! 4. **Ingest.** The full-mesh baseline writes the live latencies
//!    straight into its matrix row. The quorum router, once the frame
//!    has passed its view, width and origin checks, builds the row it
//!    will keep ([`LinkStateFrame::row`]: each lane filled at its exact
//!    size straight from the bytes, one allocation a lane — the latency
//!    lane, the destination lane unless a dense frame has every entry
//!    live, since a full row borrows its destinations) and calls
//!    [`LinkStateStore::put_row`]; [`RowStore`] does the stale-replay
//!    check and the replace in one map walk and keeps the `Arc`, and the
//!    previous row is freed. No liveness lane is built: its bytes never
//!    leave the payload.
//!
//! [`Message::decode_traced`] is step 3 followed by the owned build —
//! the row behind a new `Arc` and the liveness lane beside it — for the
//! callers that want a [`Message`]; a router takes that message's row
//! by bumping a count, through the same ingest.
//!
//! A stored row is never edited: [`LaneRow`] has no `&mut self`
//! method, and every row reaches the store through `put_row`. When a
//! node's own link dies between two routing ticks, the router puts the
//! held row again without that destination ([`LaneRow::without`]).
//!
//! Link *measurement* — the latency EWMA, the loss window and RON's
//! 5-failed-probes liveness rule — is the prober's, in `apor-routing`,
//! one record per probed link; this crate sees only the entries it
//! yields.
//!
//! Ids are not this crate's business: frames carry [`NodeId`]s on the
//! wire and grid indices inside the routers, and the overlay rewrites
//! the envelope between the two (see `apor-overlay`). Entry
//! destinations are view-positional on both sides, guarded by the
//! view/width check at ingest.
//!
//! [`NodeId`]: apor_quorum::NodeId

#![forbid(unsafe_code)]
// The numeric kernels index several arrays with one loop counter;
// iterator rewrites obscure them without changing the codegen.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod entry;
pub mod store;
pub mod wire;

pub use entry::{LinkEntry, INFINITE_COST};
pub use store::{
    seqno_newer, Detour, LaneRow, LinkStateStore, RoundTwo, RowCursor, RowRef, RowStore,
};
pub use wire::{
    ls_trailer_size, readdress_linkstate, LinkStateFrame, LinkStateMsg, LinkStateRow, Message,
    ProbeBatchMsg, ProbeItem, ProbeMsg, ProbeReplyMsg, RecEntry, RecFormat, RecFrame,
    RecommendationMsg, WireError, LINKSTATE_HEADER_SIZE, LS_FLAG_SEQNO, LS_SEQNO_TRAILER_BASE,
    PROBE_BATCH_HEADER_SIZE, PROBE_FLAG_TRACE, PROBE_WIRE_SIZE, REC_HEADER_SIZE,
    SPARSE_LINKSTATE_HEADER_SIZE, UDP_IP_OVERHEAD,
};

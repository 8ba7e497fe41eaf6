//! The full-mesh link-state baseline — RON's original routing algorithm.
//!
//! Every routing interval each node broadcasts its measured link-state row
//! to *all* other nodes, so everyone holds the whole matrix and computes
//! optimal one-hop routes locally. Correct and simple, but `Θ(n²)`
//! per-node communication — the cost the paper's quorum scheme removes.
//!
//! The router *is* the matrix: one flat `n × n` array holding the wire
//! latency of every entry — a route's cost is its latency, so an
//! entry's liveness/loss byte is read off the frame and not kept — one
//! receipt time per row, and a route lookup that is one integer loop
//! over them. It takes no store parameter and
//! shares no logic with the quorum node's
//! [`RowStore`](apor_linkstate::RowStore) — a node that legitimately
//! holds all `n` rows wants `O(1)` entry access and rows overwritten in
//! place, not a map of shared row buffers that every broadcast swaps
//! through the allocator. A row is written into the matrix from
//! wherever it lies ([`FullMeshRouter::on_linkstate`]): a frame still
//! in its payload costs no allocation at all.
//!
//! A router lives for one membership view. Nothing crosses a view
//! change: a node that is handed a second view builds a new router,
//! whose matrix is empty until the next routing interval's broadcasts
//! refill it. Every full-mesh run in the repository installs one static
//! view.

use crate::config::ProtocolConfig;
use crate::RoutingAlgorithm;
use apor_linkstate::{LaneRow, LinkEntry, LinkStateMsg, LinkStateRow, Message, INFINITE_COST};
use apor_quorum::NodeId;
use std::sync::Arc;

/// Latency slot of a dead or never-measured link. A live entry never
/// holds it: the wire clamps live latencies below this sentinel.
const DEAD: u16 = LinkEntry::DEAD_LATENCY;

/// The baseline router.
#[derive(Debug)]
pub struct FullMeshRouter {
    me: usize,
    n: usize,
    view: u32,
    round: u32,
    config: ProtocolConfig,
    /// `latency[origin · n + dst]`: wire latency, ms; [`DEAD`] = dead.
    latency: Vec<u16>,
    /// Receipt time (seconds) of each row; `None` = never received.
    row_time: Vec<Option<f64>>,
}

impl FullMeshRouter {
    /// A baseline router for node `me` of `n` under membership `view`.
    ///
    /// # Panics
    /// Panics if `n > u16::MAX` — node indices are `u16` on every frame,
    /// and a frame's `width` could not say `n` — or if `me ≥ n`.
    #[must_use]
    pub fn new(me: usize, n: usize, view: u32, config: ProtocolConfig) -> Self {
        assert!(n <= usize::from(u16::MAX), "n = {n} past u16 indices");
        assert!(me < n);
        FullMeshRouter {
            me,
            n,
            view,
            round: 0,
            config,
            latency: vec![DEAD; n * n],
            row_time: vec![None; n],
        }
    }

    /// Take in a link-state row from node `from` — an owned message or a
    /// frame still in its payload, dense or sparse — by writing its live
    /// entries straight into matrix row `from`, every other slot dead.
    /// A row from another view, of another width, from outside the view
    /// or from me is ignored.
    pub fn on_linkstate(&mut self, now: f64, from: usize, ls: &impl LinkStateRow) {
        if ls.view() == self.view
            && usize::from(ls.width()) == self.n
            && from < self.n
            && from != self.me
        {
            self.store_row(from, ls.live_entries(), now);
        }
    }

    /// Overwrite row `origin` with the live `(dst, latency)` `entries`
    /// (every other slot dead), stamped at `now`. The caller has checked
    /// `origin` and the entries' width against `n`.
    fn store_row(&mut self, origin: usize, entries: impl Iterator<Item = (u16, u16)>, now: f64) {
        let latency = &mut self.latency[origin * self.n..(origin + 1) * self.n];
        latency.fill(DEAD);
        for (d, l) in entries {
            latency[usize::from(d)] = l;
        }
        self.row_time[origin] = Some(now);
    }

    /// Is row `origin` present and within the staleness window at `now`?
    fn row_fresh(&self, origin: usize, now: f64) -> bool {
        self.row_time[origin].is_some_and(|t| now - t <= self.config.staleness_s())
    }
}

impl RoutingAlgorithm for FullMeshRouter {
    fn on_routing_tick(
        &mut self,
        now: f64,
        own_row: &[LinkEntry],
        _rng: &mut rand_chacha::ChaCha8Rng,
    ) -> Vec<Message> {
        assert_eq!(own_row.len(), self.n, "row must have n entries");
        self.round += 1;
        // One row and one liveness lane for the whole broadcast: every
        // frame shares them, and my own matrix row holds what the others
        // will keep of them.
        let row = Arc::new(LaneRow::from_dense(own_row));
        let liveness_loss = LinkStateMsg::liveness_lane(own_row);
        let (dst, latency_ms) = row.lanes();
        self.store_row(
            self.me,
            dst.iter().copied().zip(latency_ms.iter().copied()),
            now,
        );
        (0..self.n)
            .filter(|&j| j != self.me)
            .map(|j| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(self.me),
                    to: NodeId::from_index(j),
                    view: self.view,
                    round: self.round,
                    basis_ms: (now * 1000.0) as u32,
                    width: self.n as u16,
                    row: Arc::clone(&row),
                    liveness_loss: Arc::clone(&liveness_loss),
                })
            })
            .collect()
    }

    fn on_message(&mut self, now: f64, msg: &Message) -> Vec<Message> {
        if let Message::LinkState(ls) | Message::LinkStateSparse(ls) = msg {
            self.on_linkstate(now, ls.from.index(), ls);
        }
        Vec::new()
    }

    /// The direct link, then the cheapest fresh relay `h` by
    /// `mine[h] + latency[h][dst]` — taken only when strictly cheaper,
    /// lowest `h` on ties. Nothing routes while my own row is stale.
    fn best_hop(&self, dst: usize, now: f64) -> Option<usize> {
        if dst == self.me || dst >= self.n || !self.row_fresh(self.me, now) {
            return None;
        }
        let mine = &self.latency[self.me * self.n..(self.me + 1) * self.n];
        let direct = if mine[dst] == DEAD {
            INFINITE_COST
        } else {
            u32::from(mine[dst])
        };
        let mut best = (dst, direct);
        for h in 0..self.n {
            let (leg1, leg2) = (mine[h], self.latency[h * self.n + dst]);
            if h == self.me || h == dst || leg1 == DEAD || leg2 == DEAD || !self.row_fresh(h, now) {
                continue;
            }
            let cost = u32::from(leg1) + u32::from(leg2);
            if cost < best.1 {
                best = (h, cost);
            }
        }
        (best.1 != INFINITE_COST).then_some(best.0)
    }

    fn route_age(&self, dst: usize, now: f64) -> Option<f64> {
        // The full-mesh analogue of "time since last recommendation" is
        // the age of the destination's link-state broadcast.
        self.row_time[dst].map(|t| now - t)
    }

    fn double_rendezvous_failures(&self, _now: f64) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_linkstate::LinkStateFrame;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    fn live_row(costs: &[u16]) -> Vec<LinkEntry> {
        costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect()
    }

    /// A frame's `width` is a `u16`: a view of 65 536 would stamp 0 and
    /// every receiver would refuse the row. The constructor says so
    /// before it allocates the `n²` matrix.
    #[test]
    #[should_panic(expected = "past u16 indices")]
    fn a_view_past_u16_indices_is_refused() {
        let _ = FullMeshRouter::new(0, 1 << 16, 0, ProtocolConfig::ron());
    }

    /// Wire three routers together by hand and check that everyone learns
    /// optimal one-hop routes.
    #[test]
    fn three_node_convergence() {
        let cfg = ProtocolConfig::ron();
        let mut routers: Vec<FullMeshRouter> = (0..3)
            .map(|i| FullMeshRouter::new(i, 3, 0, cfg.clone()))
            .collect();
        // Node 0↔2 expensive (300), 0↔1 and 1↔2 cheap (50): relay via 1 wins.
        let rows = [
            live_row(&[0, 50, 300]),
            live_row(&[50, 0, 50]),
            live_row(&[300, 50, 0]),
        ];
        let mut r = rng();
        let mut msgs = Vec::new();
        for (i, router) in routers.iter_mut().enumerate() {
            msgs.extend(router.on_routing_tick(1.0, &rows[i], &mut r));
        }
        // Each of 3 nodes broadcasts to 2 peers.
        assert_eq!(msgs.len(), 6);
        for m in &msgs {
            let to = m.to().index();
            routers[to].on_message(1.1, m);
        }
        assert_eq!(routers[0].best_hop(2, 2.0), Some(1));
        assert_eq!(routers[2].best_hop(0, 2.0), Some(1));
        assert_eq!(routers[0].best_hop(1, 2.0), Some(1), "direct best");
    }

    #[test]
    fn stale_tables_stop_routing() {
        let cfg = ProtocolConfig::ron();
        let mut a = FullMeshRouter::new(0, 2, 0, cfg.clone());
        let mut b = FullMeshRouter::new(1, 2, 0, cfg.clone());
        let mut r = rng();
        let m = a.on_routing_tick(0.0, &live_row(&[0, 10]), &mut r);
        for msg in &m {
            b.on_message(0.1, msg);
        }
        let _ = b.on_routing_tick(0.2, &live_row(&[10, 0]), &mut r);
        assert_eq!(b.best_hop(0, 1.0), Some(0));
        // 3 routing intervals later everything expired.
        assert_eq!(b.best_hop(0, 1000.0), None);
    }

    #[test]
    fn wrong_view_messages_dropped() {
        let cfg = ProtocolConfig::ron();
        let mut a = FullMeshRouter::new(0, 2, 7, cfg.clone());
        let mut b = FullMeshRouter::new(1, 2, 8, cfg);
        let mut r = rng();
        for msg in a.on_routing_tick(0.0, &live_row(&[0, 10]), &mut r) {
            b.on_message(0.1, &msg);
        }
        assert!(b.row_time[0].is_none(), "cross-view row accepted");
    }

    #[test]
    fn route_age_tracks_broadcasts() {
        let cfg = ProtocolConfig::ron();
        let mut a = FullMeshRouter::new(0, 2, 0, cfg.clone());
        let mut b = FullMeshRouter::new(1, 2, 0, cfg);
        let mut r = rng();
        assert_eq!(b.route_age(0, 5.0), None);
        for msg in a.on_routing_tick(0.0, &live_row(&[0, 10]), &mut r) {
            b.on_message(2.0, &msg);
        }
        assert_eq!(b.route_age(0, 5.0), Some(3.0));
        assert_eq!(b.double_rendezvous_failures(5.0), 0);
    }

    #[test]
    fn message_count_is_quadratic() {
        // The point of the paper: n−1 messages per node per interval.
        let cfg = ProtocolConfig::ron();
        let n = 50;
        let mut router = FullMeshRouter::new(0, n, 0, cfg);
        let row = live_row(&vec![1u16; n]);
        let mut r = rng();
        let msgs = router.on_routing_tick(0.0, &row, &mut r);
        assert_eq!(msgs.len(), n - 1);
    }

    /// A dense frame lands in the matrix as routing reads the wire: dead
    /// filler (`FF FF 7F`) as a dead slot, a live entry with the
    /// all-ones latency at the cost `LinkEntry::decode` gives it once
    /// clamped below the dead sentinel (what `encode` would have sent),
    /// whatever its loss — the same whether the router reads the frame
    /// where it lies or the message decoded from it. An origin outside
    /// the view or a row of another width leaves the matrix alone.
    #[test]
    fn dense_frame_lands_as_decoded() {
        let wire: [[u8; 3]; 4] = [
            [0x00, 0x28, 0x80 | 7], // 40 ms, 3.5 % loss
            [0xFF, 0xFF, 0x7F],     // dead filler
            [0xFF, 0xFF, 0x80],     // live at the sentinel latency
            [0x00, 0x00, 0x80],     // the origin itself
        ];
        let mut frame = vec![3u8]; // dense link state
        for field in [3u16, 0] {
            frame.extend_from_slice(&field.to_be_bytes()); // from, to
        }
        for field in [7u32, 1] {
            frame.extend_from_slice(&field.to_be_bytes()); // view, round
        }
        frame.extend_from_slice(&4u16.to_be_bytes()); // entries
        frame.extend_from_slice(&0u32.to_be_bytes()); // basis
        frame.extend_from_slice(&0u16.to_be_bytes()); // flags
        frame.extend(wire.iter().flatten());
        let msg = Message::decode(&frame).expect("a well-formed dense frame");

        let mut router = FullMeshRouter::new(0, 4, 7, ProtocolConfig::ron());
        router.on_message(2.5, &msg);
        let mut in_place = FullMeshRouter::new(0, 4, 7, ProtocolConfig::ron());
        let view = LinkStateFrame::parse(&frame).expect("the same frame, in place");
        in_place.on_linkstate(2.5, 3, &view);
        assert_eq!(in_place.latency, router.latency);
        assert_eq!(in_place.row_time, router.row_time);
        let want: Vec<u32> = wire
            .iter()
            .map(|&bytes| LinkEntry::decode(LinkEntry::decode(bytes).encode()).cost())
            .collect();
        assert_eq!(want, [40, INFINITE_COST, u32::from(u16::MAX - 1), 0]);
        // Row 3 of the matrix, read back slot by slot; no other row.
        let row = |r: &FullMeshRouter, origin: usize| -> Vec<u32> {
            r.latency[origin * 4..(origin + 1) * 4]
                .iter()
                .map(|&l| {
                    if l == DEAD {
                        INFINITE_COST
                    } else {
                        u32::from(l)
                    }
                })
                .collect()
        };
        assert_eq!(row(&router, 3), want);
        assert_eq!(router.row_time, [None, None, None, Some(2.5)]);
        assert_eq!(router.route_age(3, 4.0), Some(1.5));

        // Out of range: origin 4 of 4, and a destination beyond the width.
        let Message::LinkState(ls) = &msg else {
            panic!("a dense link-state frame");
        };
        let stray = Message::LinkState(LinkStateMsg {
            from: NodeId(4),
            ..ls.clone()
        });
        router.on_message(3.0, &stray);
        let wide = live_row(&[1, 2, 3, 4, 5]);
        let wide = Message::LinkState(LinkStateMsg {
            from: NodeId(2),
            width: 5,
            row: Arc::new(LaneRow::from_dense(&wide)),
            liveness_loss: LinkStateMsg::liveness_lane(&wide),
            ..ls.clone()
        });
        router.on_message(3.0, &wide);
        assert_eq!(row(&router, 3), want);
        assert_eq!(router.row_time, [None, None, None, Some(2.5)]);
    }
}

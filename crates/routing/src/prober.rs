//! Link monitoring: RON's probing discipline (section 5), extended with
//! the deployment section's sub-quadratic probing plane.
//!
//! Under [`ProbePolicy::FullMesh`] every node probes every other node
//! (the paper's baseline: measurement stays full-mesh, only route
//! *computation* traffic is reduced by the quorum scheme). Probes go
//! out every `p = 30 s` per peer, spread evenly across the interval.
//! After a first lost probe the prober switches to rapid re-probing so
//! that [`DEFAULT_DEATH_THRESHOLD`](crate::config::DEFAULT_DEATH_THRESHOLD)
//! consecutive losses — and hence failure detection — complete "within
//! 1 probing period".
//!
//! Under [`ProbePolicy::Entitled`] a node probes only its `~2√n`
//! rendezvous servers plus a rotating constant-size sample of other
//! peers, each at an adaptive per-link rate (backoff on stable links),
//! and emits [`ProbeBatch`](apor_linkstate::Message::ProbeBatch) frames: a
//! ping plus, once the link is measured, a `Gauge` item carrying this
//! side's RTT/loss estimate, which the receiver may *adopt* as its own
//! reverse entry (link costs are symmetric, paper section 3) instead of
//! probing back. Per-node probe bytes then grow with `√n`, not `n`.
//! Coverage is preserved: any pair (i, j) shares a rendezvous server
//! `s`, both legs i→s and j→s are entitled, so `s` can always recommend
//! the route via itself or better.
//!
//! # The schedule lane
//!
//! A wake costs what is due, not what is probed. Each target's timing —
//! its next probe instant and its outstanding probe, if any — lives in
//! a lane of 32-byte slots beside the targets, index for index, rather
//! than in the target with its one link record (EWMA, failure run, loss
//! window and probe interval, all fed by one call per outcome). A slot's
//! *deadline* is the outstanding probe's timeout, or else its next
//! probe. [`Prober::poll`] reads the lane and visits, in ascending peer
//! order, only the targets whose deadline has come — so sequence
//! numbers, actions and link losses come out in the order a visit of
//! every target would give — and [`Prober::next_wake`] is the lane's
//! earliest deadline. Every change to a schedule (a poll, a reply, a
//! sample rotation, a reinstall) writes the slot itself; nothing is
//! derived from it, so nothing can go stale.

use crate::config::{ProbePolicy, ProtocolConfig};
use crate::estimator::{Outcome, ProbedLink};
use apor_linkstate::{LinkEntry, ProbeItem};
use apor_quorum::{Grid, NodeIdx};
use apor_telemetry::{Gauge, Histogram, SpanKind, Telemetry, TraceCtx, Tracer};

/// An instruction from the prober to the node runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeAction {
    /// Transmit a probe to `to` carrying `seq`
    /// ([`ProbePolicy::FullMesh`]).
    SendProbe {
        /// Peer to probe.
        to: usize,
        /// Sequence number to carry (echoed by the reply).
        seq: u32,
    },
    /// Transmit a probe batch to `to` ([`ProbePolicy::Entitled`]): a
    /// ping plus optionally this side's reverse-path gauge.
    SendBatch {
        /// Peer to probe.
        to: usize,
        /// Frame items (ping first).
        items: Vec<ProbeItem>,
    },
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u32,
    sent_at: f64,
}

/// Per-target probing state; its timing is in the [`Schedule`] lane.
#[derive(Debug)]
struct TargetState {
    peer: usize,
    /// Entitled targets persist; sampled ones rotate out each epoch.
    entitled: bool,
    link: ProbedLink,
}

/// When a target next has work: its next probe and its outstanding
/// probe. One slot per target, at the target's index.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    next_probe_at: f64,
    pending: Option<Pending>,
}

impl Schedule {
    /// A schedule whose first probe is at `at`.
    fn first(at: f64) -> Self {
        Schedule {
            next_probe_at: at,
            pending: None,
        }
    }

    /// The instant [`Prober::poll`] next has work here: the outstanding
    /// probe's timeout, or else the next probe.
    fn deadline(&self, probe_timeout_s: f64) -> f64 {
        match self.pending {
            Some(p) => p.sent_at + probe_timeout_s,
            None => self.next_probe_at,
        }
    }
}

/// A reverse-path estimate adopted from a peer's `Gauge` item.
#[derive(Debug, Clone, Copy)]
struct Adopted {
    peer: usize,
    rtt_ms: u16,
    loss: f32,
    heard_at: f64,
}

/// The per-node probing state machine.
#[derive(Debug)]
pub struct Prober {
    me: usize,
    n: usize,
    config: ProtocolConfig,
    /// Probed peers, ascending.
    targets: Vec<TargetState>,
    /// `schedule[i]` is `targets[i]`'s timing (module docs).
    schedule: Vec<Schedule>,
    /// Reverse-path entries adopted from peers' gauges, sorted by peer.
    adopted: Vec<Adopted>,
    adopted_cap: usize,
    next_seq: u32,
    /// Sample-rotation epoch counter ([`ProbePolicy::Entitled`]).
    sample_epoch: u64,
    sample_rotate_at: f64,
    probe_rtt_us: Option<Histogram>,
    probe_targets: Option<Gauge>,
    probe_sampled: Option<Gauge>,
    tracer: Tracer,
    /// Episode context adopted at view install; the first probe wave
    /// after it records a `Reprobe` span and clears the context, and
    /// outgoing batches carry it on the wire until then.
    trace_ctx: Option<TraceCtx>,
    /// Peers whose links transitioned alive → dead since the last
    /// [`Prober::take_link_losses`] drain (the 5-failure rule firing).
    link_losses: Vec<usize>,
}

impl Prober {
    /// A prober for node `me` of `n`, starting at `now`. First probes are
    /// spread deterministically across one probing interval so a fleet of
    /// nodes does not burst in lockstep.
    #[must_use]
    pub fn new(me: usize, n: usize, config: ProtocolConfig, now: f64) -> Self {
        config.validate();
        let prober = Prober {
            me,
            n,
            config,
            targets: Vec::new(),
            schedule: Vec::new(),
            adopted: Vec::new(),
            adopted_cap: 0,
            next_seq: 0,
            sample_epoch: 0,
            sample_rotate_at: now,
            probe_rtt_us: None,
            probe_targets: None,
            probe_sampled: None,
            tracer: Tracer::disabled(),
            trace_ctx: None,
            link_losses: Vec::new(),
        };
        prober.reinstall(me, n, now, &[])
    }

    /// This prober rebuilt for node `me` of `n` at `now`, as a
    /// membership change calls for: the target set, the probe schedule
    /// and the sequence numbers start over exactly as in
    /// [`Prober::new`], adopted gauges and undrained link losses are
    /// forgotten, and the settings, the telemetry cells and the tracer
    /// stay. What crosses the change is measurement history: a target
    /// of the old prober that `old_to_new` maps to a target of the new
    /// one (`old_to_new[old peer] = Some(new peer)`; `None` or beyond
    /// the table: departed; order-preserving, as a translation between
    /// two sorted member lists is — the table
    /// [`QuorumRouter::reinstall`](crate::QuorumRouter::reinstall)
    /// takes) keeps its measurement under its new index, with a fresh
    /// schedule and probe rate — so a view bump does not blind the overlay
    /// for a probing interval. Only the old targets are walked,
    /// `~2√n + 16` of them under entitled probing, and their vector is
    /// the new one's.
    #[must_use]
    pub fn reinstall(
        mut self,
        me: usize,
        n: usize,
        now: f64,
        old_to_new: &[Option<NodeIdx>],
    ) -> Self {
        self.me = me;
        self.n = n;
        self.adopted.clear();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        {
            self.adopted_cap = 4 * (n as f64).sqrt() as usize + 64;
        }
        self.next_seq = 0;
        self.sample_epoch = 1;
        self.sample_rotate_at = now + self.config.probe_interval_s;
        self.trace_ctx = None;
        self.link_losses.clear();

        // Who is probed in this view, ascending: `(peer, entitled)`.
        let mut wanted: Vec<(usize, bool)> = match self.config.probe_policy {
            ProbePolicy::FullMesh => (0..n).filter(|&j| j != me).map(|j| (j, true)).collect(),
            ProbePolicy::Entitled => {
                let servers = Grid::new(n).rendezvous_servers(me);
                let sample = self.draw_sample(servers.len(), |p| servers.binary_search(&p).is_ok());
                let mut wanted: Vec<(usize, bool)> = servers.iter().map(|&j| (j, true)).collect();
                wanted.extend(sample.into_iter().map(|j| (j, false)));
                wanted.sort_unstable();
                wanted
            }
        };
        // Old targets probed again keep their slot and their measurement;
        // the others leave. `wanted` keeps who is still missing.
        let mut targets = std::mem::take(&mut self.targets);
        targets.retain_mut(|t| {
            let moved = old_to_new.get(t.peer).copied().flatten().map(NodeIdx::get);
            let again = moved.and_then(|peer| wanted.binary_search_by_key(&peer, |w| w.0).ok());
            let Some(at) = again else { return false };
            let (peer, entitled) = wanted.remove(at);
            (t.peer, t.entitled) = (peer, entitled);
            t.link.restart_rate(&self.config);
            true
        });
        let carried = targets.len();
        targets.extend(
            wanted
                .into_iter()
                .map(|(peer, entitled)| self.make_target(peer, entitled)),
        );
        if carried > 0 && targets.len() > carried {
            targets.sort_unstable_by_key(|t| t.peer);
        }
        // Every target, carried or new, starts its schedule over.
        let mut schedule = std::mem::take(&mut self.schedule);
        schedule.clear();
        schedule.extend(
            targets
                .iter()
                .map(|t| Schedule::first(self.first_probe_at(t.peer, t.entitled, now))),
        );
        self.targets = targets;
        self.schedule = schedule;
        self.publish_target_gauges();
        self
    }

    /// Attach a telemetry handle: probe RTTs enter the
    /// `routing/probe_rtt_us` histogram and the target-set sizes are
    /// published as `probe_targets` / `probe_sampled` gauges.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.probe_rtt_us = Some(telemetry.histogram("routing", "probe_rtt_us"));
        self.probe_targets = Some(telemetry.gauge("routing", "probe_targets"));
        self.probe_sampled = Some(telemetry.gauge("routing", "probe_sampled"));
        self.publish_target_gauges();
        self
    }

    /// Attach a causal tracer (disabled by default; see
    /// [`Prober::note_episode`]).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Mark the next probe wave as part of a convergence episode: the
    /// first poll that emits probes records a `Reprobe` span under the
    /// episode and batches carry `ctx` on the wire (see
    /// [`Prober::poll_traced`]).
    pub fn note_episode(&mut self, ctx: TraceCtx) {
        if self.tracer.enabled() {
            self.trace_ctx = Some(ctx);
        }
    }

    /// When a target created (or restarted) at `now` is first probed.
    fn first_probe_at(&self, peer: usize, entitled: bool, now: f64) -> f64 {
        // Deterministic per-pair phase, quantized to 0.5 s slots. The
        // quantum matters: 0.5 s is dyadic, so with the default
        // half-second-multiple timings every probe deadline is an
        // *exact* f64 multiple of 0.5 s past the node's start, and a
        // driver polling on a fixed 0.5 s tick fires at bit-identical
        // instants to one waking on `next_wake` — the replay test's
        // guarantee.
        let slot = self.me * 31 + peer * 17;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let phase = if entitled {
            // In (0, p]. Slot 0 is skipped: a deadline *at* creation
            // time would fire immediately under a coalesced driver but
            // only at the first tick under a polling one.
            let slots = ((self.config.probe_interval_s * 2.0) as usize).max(1);
            slot % slots + 1
        } else {
            // Sampled links are short-lived: probe within the epoch.
            // Slot 0 is fine here: after the first epoch rotation
            // happens *inside* a poll, which goes on to emit anything
            // already due in the same call.
            let slots = ((self.config.rapid_probe_interval_s * 2.0) as usize).max(1);
            slot % slots
        };
        now + phase as f64 * 0.5
    }

    /// A never-measured target (its schedule starts at
    /// [`Prober::first_probe_at`]).
    fn make_target(&self, peer: usize, entitled: bool) -> TargetState {
        TargetState {
            peer,
            entitled,
            link: ProbedLink::new(&self.config),
        }
    }

    fn publish_target_gauges(&self) {
        if let Some(g) = &self.probe_targets {
            g.set(self.targets.len() as u64);
        }
        if let Some(g) = &self.probe_sampled {
            g.set(self.targets.iter().filter(|t| !t.entitled).count() as u64);
        }
    }

    fn target(&self, peer: usize) -> Option<usize> {
        self.targets.binary_search_by_key(&peer, |t| t.peer).ok()
    }

    /// The current epoch's deterministic draw of up to
    /// `probe_sample_budget` sampled peers, given how many entitled
    /// targets there are and which peers they are.
    fn draw_sample(&self, entitled: usize, is_entitled: impl Fn(usize) -> bool) -> Vec<usize> {
        let budget = self
            .config
            .probe_sample_budget
            .min(self.n.saturating_sub(entitled + 1));
        let mut picked: Vec<usize> = Vec::with_capacity(budget);
        let mut attempt: u64 = 0;
        while picked.len() < budget && attempt < 64 * budget as u64 {
            let h =
                splitmix64((self.me as u64) ^ self.sample_epoch.rotate_left(17) ^ (attempt << 40));
            attempt += 1;
            let peer = (h % self.n as u64) as usize;
            if peer == self.me || picked.contains(&peer) || is_entitled(peer) {
                continue;
            }
            picked.push(peer);
        }
        picked
    }

    /// Replace the sampled (non-entitled) targets with the next epoch's
    /// draw, each starting from nothing; entitled targets keep their
    /// schedules.
    fn rotate_sample(&mut self, now: f64) {
        self.sample_epoch += 1;
        self.sample_rotate_at = now + self.config.probe_interval_s;
        let targets = &self.targets;
        let mut i = 0;
        self.schedule.retain(|_| {
            i += 1;
            targets[i - 1].entitled
        });
        self.targets.retain(|t| t.entitled);
        let picked = self.draw_sample(self.targets.len(), |peer| self.target(peer).is_some());
        for peer in picked {
            let at = self.targets.partition_point(|t| t.peer < peer);
            self.targets.insert(at, self.make_target(peer, false));
            let first = Schedule::first(self.first_probe_at(peer, false, now));
            self.schedule.insert(at, first);
        }
        self.publish_target_gauges();
    }

    /// Advance to `now`: rotate the sample epoch when due, expire
    /// timed-out probes (recording losses and arming rapid re-probes)
    /// and emit the probes now due. Only targets whose deadline has
    /// come are visited, in ascending peer order.
    pub fn poll(&mut self, now: f64) -> Vec<ProbeAction> {
        if self.config.probe_policy == ProbePolicy::Entitled && now >= self.sample_rotate_at {
            self.rotate_sample(now);
        }
        let mut actions = Vec::new();
        let batch = self.config.probe_policy == ProbePolicy::Entitled;
        let timeout = self.config.probe_timeout_s;
        for (s, t) in self.schedule.iter_mut().zip(&mut self.targets) {
            // Neither branch below can fire before the deadline.
            if s.deadline(timeout) > now {
                continue;
            }
            // Expire an outstanding probe. The comparison must be the
            // exact expression `next_wake` computes the deadline with —
            // `now - sent_at >= timeout` can round *below* the timeout
            // at the woken instant, which would make a coalesced driver
            // re-arm a zero-delay timer forever.
            if let Some(p) = s.pending {
                if now >= p.sent_at + timeout {
                    if t.link.record(Outcome::Timeout, &self.config) {
                        // The 5-failure rule just declared this link
                        // dead; queue it for the route-retraction drain.
                        self.link_losses.push(t.peer);
                    }
                    s.pending = None;
                    // Rapid failure detection: re-probe quickly while the
                    // loss burst lasts.
                    let rapid = p.sent_at + self.config.rapid_probe_interval_s;
                    if rapid < s.next_probe_at {
                        s.next_probe_at = rapid.max(now);
                    }
                }
            }
            // Emit a due probe.
            if s.pending.is_none() && now >= s.next_probe_at {
                let seq = self.next_seq;
                self.next_seq = self.next_seq.wrapping_add(1);
                s.pending = Some(Pending { seq, sent_at: now });
                s.next_probe_at = now + t.link.interval_s;
                if batch {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let mut items = vec![ProbeItem::Ping {
                        seq,
                        sent_ms: (now * 1000.0) as u32,
                    }];
                    let e = t.link.to_entry();
                    if e.alive {
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        items.push(ProbeItem::Gauge {
                            rtt_ms: e.latency_ms,
                            loss_pm: (f64::from(e.loss) * 1000.0) as u16,
                        });
                    }
                    actions.push(ProbeAction::SendBatch { to: t.peer, items });
                } else {
                    actions.push(ProbeAction::SendProbe { to: t.peer, seq });
                }
            }
        }
        actions
    }

    /// [`Prober::poll`], plus episode tracing: when a context armed by
    /// [`Prober::note_episode`] is pending and this poll emits probes,
    /// a `Reprobe` span is recorded (aux = probes emitted), the context
    /// is consumed and returned so the driver can attach it to the
    /// outgoing batch frames. The plain `poll` stays the traced-off
    /// hot path — this wrapper adds no work when no context is armed.
    pub fn poll_traced(&mut self, now: f64) -> (Vec<ProbeAction>, Option<TraceCtx>) {
        let actions = self.poll(now);
        if self.trace_ctx.is_none() || actions.is_empty() {
            return (actions, None);
        }
        let ctx = self.trace_ctx.take();
        if let Some(c) = ctx {
            #[allow(clippy::cast_possible_truncation)]
            self.tracer
                .instant(SpanKind::Reprobe, c.episode, 0, actions.len() as u32, now);
        }
        (actions, ctx)
    }

    /// Drain the peers whose direct links have transitioned alive → dead
    /// since the last call. The overlay feeds these into
    /// [`QuorumRouter::on_link_loss`](crate::QuorumRouter::on_link_loss)
    /// so the retraction (and seqno bump) propagates on the very next
    /// routing tick instead of waiting for the row diff to notice.
    pub fn take_link_losses(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.link_losses)
    }

    /// Record a probe reply from `peer` carrying `seq`, received at `now`.
    /// Replies that match no outstanding probe (late, duplicated, or
    /// spoofed) are ignored.
    pub fn on_reply(&mut self, peer: usize, seq: u32, now: f64) {
        if peer >= self.n || peer == self.me {
            return;
        }
        let Some(i) = self.target(peer) else { return };
        let s = &mut self.schedule[i];
        let Some(p) = s.pending else { return };
        if p.seq != seq {
            return;
        }
        s.pending = None;
        let t = &mut self.targets[i];
        let rtt_ms = (now - p.sent_at) * 1000.0;
        t.link.record(Outcome::Reply { rtt_ms }, &self.config);
        if let Some(h) = &self.probe_rtt_us {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            h.observe(((now - p.sent_at) * 1e6).max(1.0) as u64);
        }
    }

    /// Adopt a peer's reverse-path gauge (its RTT/loss estimate of the
    /// link to us) as our own entry for `peer`, unless we measure that
    /// link ourselves. Symmetric-cost assumption, paper section 3.
    pub fn adopt_gauge(&mut self, peer: usize, rtt_ms: u16, loss_pm: u16, now: f64) {
        if peer >= self.n || peer == self.me || self.target(peer).is_some() {
            return;
        }
        let entry = Adopted {
            peer,
            rtt_ms,
            loss: f32::from(loss_pm.min(1000)) / 1000.0,
            heard_at: now,
        };
        match self.adopted.binary_search_by_key(&peer, |a| a.peer) {
            Ok(i) => self.adopted[i] = entry,
            Err(i) => {
                if self.adopted.len() >= self.adopted_cap {
                    // Shed the stalest adoption to stay bounded.
                    if let Some((stalest, _)) = self
                        .adopted
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.heard_at.total_cmp(&b.1.heard_at))
                    {
                        self.adopted.remove(stalest);
                    }
                }
                let i = self
                    .adopted
                    .binary_search_by_key(&peer, |a| a.peer)
                    .unwrap_err()
                    .min(i);
                self.adopted.insert(i, entry);
            }
        }
    }

    /// Age beyond which an adopted gauge is no longer trusted: two of
    /// the sender's maximum probe intervals (it gauges on every probe).
    fn adopt_expiry_s(&self) -> f64 {
        2.0 * self.config.probe_interval_max_s
    }

    /// The earliest time at which [`poll`](Self::poll) could have work:
    /// the lane's earliest deadline, or the sample rotation.
    #[must_use]
    pub fn next_wake(&self, now: f64) -> f64 {
        let wake = if self.config.probe_policy == ProbePolicy::Entitled {
            self.sample_rotate_at
        } else {
            f64::INFINITY
        };
        let timeout = self.config.probe_timeout_s;
        self.schedule
            .iter()
            .fold(wake, |wake, s| wake.min(s.deadline(timeout)))
            .max(now)
    }

    /// Is the direct link to `j` currently considered alive?
    #[must_use]
    pub fn alive(&self, j: usize) -> bool {
        j == self.me || self.target(j).is_some_and(|i| self.targets[i].link.alive())
    }

    /// Smoothed RTT to `j`, ms.
    #[must_use]
    pub fn latency_ms(&self, j: usize) -> Option<f64> {
        self.targets[self.target(j)?].link.ewma_ms
    }

    /// Render the node's own link-state row at `now` (self entry:
    /// alive, 0 ms). Probed targets contribute their measured entries;
    /// fresh adopted gauges fill in reverse paths we do not probe.
    #[must_use]
    pub fn own_row(&self, now: f64) -> Vec<LinkEntry> {
        let mut row = vec![LinkEntry::dead(); self.n];
        row[self.me] = LinkEntry::live(0, 0.0);
        for a in &self.adopted {
            if now - a.heard_at <= self.adopt_expiry_s() {
                row[a.peer] = LinkEntry::live(a.rtt_ms, a.loss);
            }
        }
        for t in &self.targets {
            row[t.peer] = t.link.to_entry();
        }
        row
    }

    /// Number of probed peers currently considered failed (the
    /// concurrent link failure count of figure 8, measured by the
    /// overlay itself).
    #[must_use]
    pub fn concurrent_failures(&self) -> usize {
        self.targets.iter().filter(|t| !t.link.alive()).count()
    }
}

/// SplitMix64 — the deterministic hash behind sample rotation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quorum_cfg() -> ProtocolConfig {
        ProtocolConfig::quorum()
    }

    fn entitled_cfg() -> ProtocolConfig {
        ProtocolConfig::quorum().with_subquadratic_probing(120.0)
    }

    fn send_probes(actions: &[ProbeAction]) -> Vec<(usize, u32)> {
        actions
            .iter()
            .map(|a| match a {
                ProbeAction::SendProbe { to, seq } => (*to, *seq),
                ProbeAction::SendBatch { to, items } => {
                    let seq = items
                        .iter()
                        .find_map(|i| match i {
                            ProbeItem::Ping { seq, .. } => Some(*seq),
                            _ => None,
                        })
                        .expect("batch carries a ping");
                    (*to, seq)
                }
            })
            .collect()
    }

    /// Drive a prober against a perfect 40 ms-RTT peer and check cadence.
    #[test]
    fn steady_state_probing_cadence() {
        let cfg = quorum_cfg();
        let mut p = Prober::new(0, 2, cfg.clone(), 0.0);
        let mut sent_times = Vec::new();
        let mut t = 0.0;
        while t < 200.0 {
            for (to, seq) in send_probes(&p.poll(t)) {
                assert_eq!(to, 1);
                sent_times.push(t);
                // Reply 40 ms later (within the same tick resolution).
                p.on_reply(1, seq, t + 0.040);
            }
            t += 1.0;
        }
        assert!(
            (6..=8).contains(&sent_times.len()),
            "expected ~7 probes in 200 s, got {}",
            sent_times.len()
        );
        for w in sent_times.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                (cfg.probe_interval_s - 1.0..=cfg.probe_interval_s + 1.0).contains(&gap),
                "gap {gap}"
            );
        }
        assert!(p.alive(1));
        let l = p.latency_ms(1).unwrap();
        assert!((l - 40.0).abs() < 0.5, "latency {l}");
    }

    /// With the peer silent, 5 losses accumulate within one probing
    /// interval of the first loss (the paper's rapid failure detection).
    #[test]
    fn detects_failure_within_one_probing_interval() {
        let cfg = quorum_cfg();
        let mut p = Prober::new(0, 2, cfg.clone(), 0.0);
        // Establish liveness first.
        let mut t = 0.0;
        let mut first_unanswered: Option<f64> = None;
        let mut died_at: Option<f64> = None;
        while t < 300.0 && died_at.is_none() {
            for (_, seq) in send_probes(&p.poll(t)) {
                if t < 60.0 {
                    p.on_reply(1, seq, t + 0.02);
                } else if first_unanswered.is_none() {
                    first_unanswered = Some(t);
                }
            }
            if first_unanswered.is_some() && !p.alive(1) {
                died_at = Some(t);
            }
            t += 0.5;
        }
        let first = first_unanswered.expect("a probe went unanswered");
        let died = died_at.expect("link should die");
        assert!(
            died - first <= cfg.probe_interval_s + cfg.probe_timeout_s,
            "death took {} s after first loss",
            died - first
        );
    }

    #[test]
    fn recovers_after_failure() {
        let mut p = Prober::new(0, 2, quorum_cfg(), 0.0);
        let mut t = 0.0;
        // Phase 1: alive. Phase 2 (60–150 s): silent → dead. Phase 3: replies again.
        while t < 400.0 {
            for (_, seq) in send_probes(&p.poll(t)) {
                if !(60.0..=150.0).contains(&t) {
                    p.on_reply(1, seq, t + 0.02);
                }
            }
            t += 0.5;
        }
        assert!(p.alive(1), "link must recover once replies resume");
        assert_eq!(p.concurrent_failures(), 0);
    }

    /// The loss drain reports each alive → dead transition exactly once,
    /// even across a death-recovery-death cycle.
    #[test]
    fn link_loss_drain_fires_once_per_death() {
        let mut p = Prober::new(0, 2, quorum_cfg(), 0.0);
        let mut losses = Vec::new();
        let mut t = 0.0;
        // Alive, silent (death 1), alive again, silent again (death 2).
        while t < 700.0 {
            for (_, seq) in send_probes(&p.poll(t)) {
                if !(60.0..=150.0).contains(&t) && !(400.0..=500.0).contains(&t) {
                    p.on_reply(1, seq, t + 0.02);
                }
            }
            losses.extend(p.take_link_losses());
            t += 0.5;
        }
        assert_eq!(losses, vec![1, 1], "two transitions, two drain entries");
        assert!(p.take_link_losses().is_empty(), "drain empties the queue");
    }

    #[test]
    fn late_or_bogus_replies_ignored() {
        let cfg = quorum_cfg();
        let mut p = Prober::new(0, 3, cfg.clone(), 0.0);
        // Force a probe out.
        let mut sent = None;
        let mut t = 0.0;
        while sent.is_none() {
            for (to, seq) in send_probes(&p.poll(t)) {
                if to == 1 {
                    sent = Some((seq, t));
                }
            }
            t += 0.5;
        }
        let (seq, at) = sent.unwrap();
        // Wrong seq: ignored.
        p.on_reply(1, seq.wrapping_add(9), at + 0.01);
        assert_eq!(p.latency_ms(1), None);
        // Reply from self / out-of-range peer: ignored, no panic.
        p.on_reply(0, seq, at + 0.01);
        p.on_reply(99, seq, at + 0.01);
        // Correct reply: accepted.
        p.on_reply(1, seq, at + 0.05);
        assert!(p.latency_ms(1).is_some());
        // Duplicate of the same reply: ignored.
        p.on_reply(1, seq, at + 3.0);
        let l = p.latency_ms(1).unwrap();
        assert!((l - 50.0).abs() < 1.0);
    }

    #[test]
    fn own_row_shape() {
        let mut p = Prober::new(1, 3, quorum_cfg(), 0.0);
        let row = p.own_row(0.0);
        assert_eq!(row.len(), 3);
        assert!(row[1].alive && row[1].latency_ms == 0);
        assert!(
            !row[0].alive && !row[2].alive,
            "unmeasured links start dead"
        );
        // After replies, entries come alive.
        let mut t = 0.0;
        while t < 40.0 {
            for (to, seq) in send_probes(&p.poll(t)) {
                p.on_reply(to, seq, t + 0.03);
            }
            t += 0.5;
        }
        let row = p.own_row(t);
        assert!(row[0].alive && row[2].alive);
        assert_eq!(row[0].latency_ms, 30);
    }

    #[test]
    fn initial_probes_spread_over_interval() {
        let cfg = quorum_cfg();
        let n = 50;
        let mut p = Prober::new(0, n, cfg.clone(), 0.0);
        // Collect each peer's first probe time at 1 s resolution.
        let mut first = vec![f64::NAN; n];
        let mut t = 0.0;
        while t <= cfg.probe_interval_s {
            for (to, seq) in send_probes(&p.poll(t)) {
                if first[to].is_nan() {
                    first[to] = t;
                }
                p.on_reply(to, seq, t + 0.01);
            }
            t += 1.0;
        }
        let early = (1..n).filter(|&j| first[j] < 10.0).count();
        let late = (1..n).filter(|&j| first[j] >= 20.0).count();
        assert!(
            early > 5 && late > 5,
            "probes not spread: {early} early, {late} late"
        );
    }

    #[test]
    fn next_wake_is_sound() {
        let mut p = Prober::new(0, 4, quorum_cfg(), 0.0);
        let w = p.next_wake(0.0);
        assert!(w >= 0.0 && w.is_finite());
        // Polling exactly at wake time must do something eventually.
        let mut t = w;
        let mut emitted = 0;
        for _ in 0..10 {
            emitted += p.poll(t).len();
            t = p.next_wake(t) + 1e-6;
        }
        assert!(
            emitted >= 3,
            "probes to all 3 peers expected, got {emitted}"
        );
    }

    #[test]
    fn concurrent_failures_counts_dead_links() {
        let mut p = Prober::new(0, 4, quorum_cfg(), 0.0);
        let mut t = 0.0;
        while t < 200.0 {
            for (to, seq) in send_probes(&p.poll(t)) {
                if to != 2 {
                    p.on_reply(to, seq, t + 0.02);
                }
            }
            t += 0.5;
        }
        // Peer 2 never answered; peers 1 and 3 are fine.
        assert_eq!(p.concurrent_failures(), 1);
        assert!(!p.alive(2));
    }

    // ------------------------------------------------------------------
    // Entitled (sub-quadratic) policy
    // ------------------------------------------------------------------

    #[test]
    fn entitled_targets_are_o_sqrt_n() {
        let n = 1024;
        let cfg = entitled_cfg();
        let p = Prober::new(17, n, cfg.clone(), 0.0);
        let expected = Grid::new(n).rendezvous_servers(17).len() + cfg.probe_sample_budget;
        assert_eq!(p.targets.len(), expected);
        assert!(
            p.targets.len() <= 4 * (n as f64).sqrt() as usize + cfg.probe_sample_budget,
            "target set must stay O(√n), got {}",
            p.targets.len()
        );
    }

    #[test]
    fn entitled_emits_batches_with_gauges() {
        let mut p = Prober::new(0, 16, entitled_cfg(), 0.0);
        let mut t = 0.0;
        let mut saw_gauge = false;
        while t < 200.0 {
            for a in p.poll(t) {
                let ProbeAction::SendBatch { to, items } = a else {
                    panic!("entitled probing must batch");
                };
                let seq = items
                    .iter()
                    .find_map(|i| match i {
                        ProbeItem::Ping { seq, .. } => Some(*seq),
                        _ => None,
                    })
                    .expect("ping present");
                saw_gauge |= items.iter().any(|i| matches!(i, ProbeItem::Gauge { .. }));
                p.on_reply(to, seq, t + 0.02);
            }
            t += 0.5;
        }
        assert!(saw_gauge, "measured links gauge their reverse path");
    }

    #[test]
    fn sample_rotation_is_bounded_and_deterministic() {
        let n = 256;
        let cfg = entitled_cfg();
        let mut a = Prober::new(3, n, cfg.clone(), 0.0);
        let mut b = Prober::new(3, n, cfg.clone(), 0.0);
        for epoch in 0..5 {
            let t = f64::from(epoch) * cfg.probe_interval_s + 0.1;
            a.poll(t);
            b.poll(t);
            let sa: Vec<usize> = a
                .targets
                .iter()
                .filter(|t| !t.entitled)
                .map(|t| t.peer)
                .collect();
            let sb: Vec<usize> = b
                .targets
                .iter()
                .filter(|t| !t.entitled)
                .map(|t| t.peer)
                .collect();
            assert_eq!(sa, sb, "sample draw must be deterministic");
            assert_eq!(sa.len(), cfg.probe_sample_budget);
        }
    }

    #[test]
    fn adopted_gauges_fill_own_row_and_expire() {
        let cfg = entitled_cfg();
        let mut p = Prober::new(0, 64, cfg.clone(), 0.0);
        // Pick a peer that is neither entitled nor currently sampled.
        let outsider = (1..64)
            .find(|&j| p.target(j).is_none())
            .expect("some peer is untargeted");
        p.adopt_gauge(outsider, 25, 10, 5.0);
        let row = p.own_row(6.0);
        assert!(row[outsider].alive);
        assert_eq!(row[outsider].latency_ms, 25);
        // Expired adoptions drop out of the row.
        let late = 5.0 + 2.0 * cfg.probe_interval_max_s + 1.0;
        assert!(!p.own_row(late)[outsider].alive);
        // Gauges for probed targets are ignored (we trust our own probe).
        let target = p.targets[0].peer;
        p.adopt_gauge(target, 1, 0, 5.0);
        assert!(!p.own_row(6.0)[target].alive || p.latency_ms(target).is_some());
    }

    /// Drive `p` for a while against peers of which every third falls
    /// silent after a minute: measurements fill, links die and queue as
    /// losses, rates adapt, the sample rotates, gauges are adopted.
    fn live_a_little(p: &mut Prober, until: f64) {
        let mut t = 0.0;
        while t < until {
            for (to, seq) in send_probes(&p.poll(t)) {
                if to % 3 != 0 || t < 60.0 {
                    p.on_reply(to, seq, t + 0.01 * (1 + to % 7) as f64);
                }
            }
            t += 0.5;
        }
        let outsider = (0..p.n).find(|&j| j != p.me && p.target(j).is_none());
        if let Some(j) = outsider {
            p.adopt_gauge(j, 25, 10, until);
        }
    }

    /// [`Prober::poll`] by definition: rotate the sample when due, then
    /// run the per-target body on every target, due or not.
    fn poll_by_definition(p: &mut Prober, now: f64) -> Vec<ProbeAction> {
        if p.config.probe_policy == ProbePolicy::Entitled && now >= p.sample_rotate_at {
            p.rotate_sample(now);
        }
        let mut actions = Vec::new();
        let batch = p.config.probe_policy == ProbePolicy::Entitled;
        for (s, t) in p.schedule.iter_mut().zip(&mut p.targets) {
            if let Some(pending) = s.pending {
                if now >= pending.sent_at + p.config.probe_timeout_s {
                    if t.link.record(Outcome::Timeout, &p.config) {
                        p.link_losses.push(t.peer);
                    }
                    s.pending = None;
                    let rapid = pending.sent_at + p.config.rapid_probe_interval_s;
                    if rapid < s.next_probe_at {
                        s.next_probe_at = rapid.max(now);
                    }
                }
            }
            if s.pending.is_none() && now >= s.next_probe_at {
                let seq = p.next_seq;
                p.next_seq = p.next_seq.wrapping_add(1);
                s.pending = Some(Pending { seq, sent_at: now });
                s.next_probe_at = now + t.link.interval_s;
                if batch {
                    let mut items = vec![ProbeItem::Ping {
                        seq,
                        sent_ms: (now * 1000.0) as u32,
                    }];
                    let e = t.link.to_entry();
                    if e.alive {
                        items.push(ProbeItem::Gauge {
                            rtt_ms: e.latency_ms,
                            loss_pm: (f64::from(e.loss) * 1000.0) as u16,
                        });
                    }
                    actions.push(ProbeAction::SendBatch { to: t.peer, items });
                } else {
                    actions.push(ProbeAction::SendProbe { to: t.peer, seq });
                }
            }
        }
        actions
    }

    /// [`Prober::next_wake`] by definition: a scan of every target.
    fn next_wake_by_definition(p: &Prober, now: f64) -> f64 {
        let mut wake = if p.config.probe_policy == ProbePolicy::Entitled {
            p.sample_rotate_at
        } else {
            f64::INFINITY
        };
        for s in &p.schedule {
            if let Some(pending) = s.pending {
                wake = wake.min(pending.sent_at + p.config.probe_timeout_s);
            } else {
                wake = wake.min(s.next_probe_at);
            }
        }
        wake.max(now)
    }

    /// The lane-driven poll and wake are the full scans: the same random
    /// life — polls at and between wakes, prompt, late, duplicated and
    /// wrong-seq replies, silent peers timing out and dying, sample
    /// rotations and a reinstall with a remap — gives the same actions,
    /// sequence numbers, link losses and wake bits under both policies.
    /// Each outstanding probe sits in the slot of the peer it went to.
    #[test]
    fn the_schedule_lane_matches_the_full_scan() {
        use rand::{Rng, SeedableRng};
        for cfg in [quorum_cfg(), entitled_cfg()] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5CED);
            let mut lane = Prober::new(7, 48, cfg.clone(), 0.0);
            let mut scan = Prober::new(7, 48, cfg.clone(), 0.0);
            // Probes sent, `(peer, seq, sent_at)`, newest last.
            let mut sent: Vec<(usize, u32, f64)> = Vec::new();
            let (mut t, mut polls, mut replies) = (0.0, 0, 0);
            for step in 0..6000 {
                if step == 3000 {
                    // Members 3 and 20..24 leave; everybody above moves down.
                    let stays = |j: usize| j != 3 && !(20..24).contains(&j);
                    let table: Vec<Option<NodeIdx>> = (0..48)
                        .map(|j| NodeIdx::new((0..j).filter(|&k| stays(k)).count(), 43))
                        .zip(0..48)
                        .map(|(new, j)| new.filter(|_| stays(j)))
                        .collect();
                    let me = table[7].unwrap().get();
                    lane = lane.reinstall(me, 43, t, &table);
                    scan = scan.reinstall(me, 43, t, &table);
                    sent.clear();
                }
                let wake = lane.next_wake(t);
                assert_eq!(wake.to_bits(), next_wake_by_definition(&scan, t).to_bits());
                match rng.gen_range(0..10) {
                    // Poll at the wake, or somewhere before or past it.
                    0..=4 => {
                        if rng.gen_bool(0.5) {
                            t = wake;
                        } else {
                            t += f64::from(rng.gen_range(0..8u8)) * 0.25;
                        }
                        let actions = lane.poll(t);
                        assert_eq!(actions, poll_by_definition(&mut scan, t), "poll at {t}");
                        assert_eq!(lane.take_link_losses(), scan.take_link_losses());
                        for (to, seq) in send_probes(&actions) {
                            sent.push((to, seq, t));
                        }
                        polls += actions.len();
                    }
                    // A reply to a recent probe (fresh, late or repeated),
                    // unless its peer is one of the silent ones.
                    5..=8 if !sent.is_empty() => {
                        let back = rng.gen_range(0..sent.len().min(6));
                        let (to, seq, _) = sent[sent.len() - 1 - back];
                        let seq = if rng.gen_bool(0.1) { seq ^ 1 } else { seq };
                        t += f64::from(rng.gen_range(0..3u8)) * 0.125;
                        if to % 5 != 0 {
                            lane.on_reply(to, seq, t);
                            scan.on_reply(to, seq, t);
                            replies += 1;
                        }
                    }
                    _ => t += 0.5,
                }
                for (s, target) in lane.schedule.iter().zip(&lane.targets) {
                    if let Some(p) = s.pending {
                        let last = sent.iter().rev().find(|x| x.0 == target.peer);
                        assert_eq!(last, Some(&(target.peer, p.seq, p.sent_at)));
                    }
                }
                assert_eq!(lane.schedule.len(), lane.targets.len());
            }
            assert_eq!(format!("{lane:?}"), format!("{scan:?}"));
            assert!(lane.sample_epoch > 2 || cfg.probe_policy == ProbePolicy::FullMesh);
            assert!(lane.concurrent_failures() > 0 && polls > 500 && replies > 500);
        }
    }

    /// A prober rebuilt from one that has lived is, field for field, the
    /// prober built from nothing for the same `(me, n, now)` on the same
    /// registry and tracer, when no target's history carries over:
    /// `Debug` prints every field.
    #[test]
    fn a_reinstalled_prober_equals_a_fresh_one() {
        for cfg in [quorum_cfg(), entitled_cfg()] {
            let telemetry = Telemetry::new(4);
            let tracer = Tracer::new(4, 16);
            let mut lived = Prober::new(5, 40, cfg.clone(), 0.0)
                .with_telemetry(&telemetry)
                .with_tracer(tracer.clone());
            live_a_little(&mut lived, 200.0);
            lived.note_episode(TraceCtx {
                episode: 3,
                origin: 5,
                hop: 1,
            });
            assert!(lived.next_seq > 0 && !lived.link_losses.is_empty());
            assert!(lived.trace_ctx.is_some() && lived.concurrent_failures() > 0);
            for (me, n, now) in [(2, 33, 210.0), (17, 64, 300.5), (0, 2, 400.0)] {
                let reinstalled = lived.reinstall(me, n, now, &[]);
                let fresh = Prober::new(me, n, cfg.clone(), now)
                    .with_telemetry(&telemetry)
                    .with_tracer(tracer.clone());
                assert_eq!(format!("{reinstalled:?}"), format!("{fresh:?}"));
                lived = reinstalled;
                live_a_little(&mut lived, 100.0);
            }
        }
    }

    /// History crosses a view change with the targets that are probed
    /// again, and only with those: the rebuilt prober is the fresh one
    /// with the old link's measurement injected wherever the same member
    /// is a target on both sides, its probe rate started over — what
    /// the carry did when it cloned an estimator per member and gave it
    /// a fresh rate controller.
    #[test]
    fn reinstall_carries_estimators_by_identity() {
        for cfg in [quorum_cfg(), entitled_cfg()] {
            let n_old = 64;
            let mut old = Prober::new(9, n_old, cfg.clone(), 0.0);
            live_a_little(&mut old, 150.0);
            // Members 3, 9's neighbour 10, and 40..48 leave; everybody
            // above a departed member moves down.
            let stays = |j: usize| j != 3 && j != 10 && !(40..48).contains(&j);
            let new_index = |j: usize| stays(j).then(|| (0..j).filter(|&k| stays(k)).count());
            let (me, n) = (
                new_index(9).unwrap(),
                (0..n_old).filter(|&j| stays(j)).count(),
            );
            let history: Vec<(usize, ProbedLink)> = old
                .targets
                .iter()
                .filter_map(|t| Some((new_index(t.peer)?, t.link.clone())))
                .collect();
            let mut want = Prober::new(me, n, cfg.clone(), 150.0);
            let mut carried = 0;
            for t in &mut want.targets {
                if let Some((_, link)) = history.iter().find(|(peer, _)| *peer == t.peer) {
                    t.link = link.clone();
                    t.link.restart_rate(&cfg);
                    carried += 1;
                }
            }
            assert!(carried > 0);
            if cfg.probe_policy == ProbePolicy::Entitled {
                assert!(carried < want.targets.len(), "some targets are new");
            }
            let table: Vec<Option<NodeIdx>> =
                (0..n_old).map(|j| NodeIdx::new(new_index(j)?, n)).collect();
            let got = old.reinstall(me, n, 150.0, &table);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert!(got.targets.windows(2).all(|w| w[0].peer < w[1].peer));
        }
    }
}

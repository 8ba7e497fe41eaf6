//! The real-clock UDP driver — the "deployment" half of the paper's
//! evaluation.
//!
//! Runs the identical [`OverlayNode`] state machine as the simulator, but
//! against a real socket and the real clock, on nothing beyond `std`. One
//! thread per node owns the socket and a heap of pending timers: it fires
//! what is due, then blocks in `recv_from` until the next deadline.
//! Shutdown is explicit: the driver thread never outlives
//! [`UdpOverlay::shutdown`], which stops it, lets it announce the
//! departure, and joins it.

use crate::node::{Outbox, OverlayNode};
use apor_quorum::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Peer address book: identity → UDP address.
pub type PeerMap = HashMap<NodeId, SocketAddr>;

/// Longest the driver blocks in `recv_from` before it looks at the stop
/// flag again, so shutdown is prompt however far away the next timer is.
const STOP_POLL: Duration = Duration::from_millis(50);

/// A running overlay node on a real UDP socket.
pub struct UdpOverlay {
    node: Arc<Mutex<OverlayNode>>,
    started: Instant,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

impl UdpOverlay {
    /// Start a node on an already-bound socket with a static peer address
    /// book.
    #[must_use]
    pub fn spawn(node: OverlayNode, socket: UdpSocket, peers: PeerMap) -> UdpOverlay {
        let node = Arc::new(Mutex::new(node));
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let driver = Driver {
            node: Arc::clone(&node),
            stop: Arc::clone(&stop),
            socket,
            peers,
            started,
            timers: BinaryHeap::new(),
        };
        let thread = std::thread::spawn(move || driver.run());
        UdpOverlay {
            node,
            started,
            stop,
            thread,
        }
    }

    /// The node's clock: seconds since the driver started — the `now`
    /// its callbacks see, and the one its time-dependent queries
    /// ([`OverlayNode::best_hop`], [`OverlayNode::route_age`]) expect.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Inspect the node state. The driver holds the same lock during
    /// each callback, so keep `f` brief.
    ///
    /// # Panics
    /// Panics if the driver thread panicked inside a callback.
    pub fn with_node<R>(&self, f: impl FnOnce(&OverlayNode) -> R) -> R {
        f(&self.node.lock().expect("driver thread panicked"))
    }

    /// Stop the driver thread, wait for it to finish, and return any
    /// socket error it hit. Before exiting, the driver runs the node's
    /// graceful-shutdown path ([`OverlayNode::on_shutdown`]) and flushes
    /// the departure announcement (SWIM `Left` gossip or a centralized
    /// `Leave`) onto the wire, so peers reconfigure immediately instead
    /// of waiting out failure detection.
    ///
    /// # Errors
    /// Propagates driver I/O errors.
    ///
    /// # Panics
    /// Panics if the driver thread itself panicked.
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("driver thread panicked")
    }
}

/// What the driver thread owns.
struct Driver {
    node: Arc<Mutex<OverlayNode>>,
    stop: Arc<AtomicBool>,
    socket: UdpSocket,
    peers: PeerMap,
    started: Instant,
    /// Pending timers as `(fire at, token)`, earliest first.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl Driver {
    /// Run one node callback at the current instant, then transmit what
    /// it queued and arm the timers it asked for.
    fn step(&mut self, callback: impl FnOnce(&mut OverlayNode, f64, &mut Outbox)) {
        let at = Instant::now();
        let mut out = Outbox::default();
        {
            let mut node = self.node.lock().expect("an observer panicked");
            callback(&mut node, (at - self.started).as_secs_f64(), &mut out);
        }
        for (to, _class, payload) in out.sends {
            if let Some(addr) = self.peers.get(&to) {
                // Datagrams may be lost; so may this one.
                let _ = self.socket.send_to(&payload, addr);
            }
        }
        for (delay_s, token) in out.timers {
            self.timers
                .push(Reverse((at + Duration::from_secs_f64(delay_s), token)));
        }
    }

    fn run(mut self) -> io::Result<()> {
        let mut buf = vec![0u8; 64 * 1024];
        self.step(|node, now, out| node.on_start(now, out));
        while !self.stop.load(Ordering::Acquire) {
            let at = Instant::now();
            let wait = match self.timers.peek() {
                Some(&Reverse((fire_at, token))) if fire_at <= at => {
                    self.timers.pop();
                    self.step(|node, now, out| node.on_timer(now, token, out));
                    continue;
                }
                Some(&Reverse((fire_at, _))) => (fire_at - at).min(STOP_POLL),
                None => STOP_POLL,
            };
            self.socket.set_read_timeout(Some(wait))?;
            match self.socket.recv_from(&mut buf) {
                Ok((len, _from)) => {
                    let payload = &buf[..len];
                    self.step(|node, now, out| node.on_packet(now, payload, out));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        // Graceful exit: the departure gossip goes out before the socket
        // closes.
        self.step(|node, now, out| node.on_shutdown(now, out));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, NodeConfig};
    use apor_routing::ProtocolConfig;

    /// Every condition below is polled for until this deadline; none is
    /// slept for.
    const DEADLINE: Duration = Duration::from_secs(20);

    /// Protocol constants scaled ~60× down so the tests run in seconds.
    fn fast_protocol() -> ProtocolConfig {
        let mut p = ProtocolConfig::quorum();
        p.probe_interval_s = 0.6;
        p.probe_timeout_s = 0.05;
        p.rapid_probe_interval_s = 0.1;
        p.routing_interval_s = 0.4;
        p
    }

    /// `n` nodes on loopback with static membership; `configure` adjusts
    /// each node's configuration. All sockets are bound before any node
    /// starts, so the peer map is complete.
    fn spawn_cluster(
        n: u16,
        algo: Algorithm,
        configure: impl Fn(NodeConfig) -> NodeConfig,
    ) -> Vec<UdpOverlay> {
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let peers: PeerMap = (0..n)
            .map(NodeId)
            .zip(sockets.iter().map(|s| s.local_addr().expect("addr")))
            .collect();
        sockets
            .into_iter()
            .zip(0..n)
            .map(|(socket, i)| {
                let mut cfg = configure(NodeConfig::static_member(
                    usize::from(i),
                    usize::from(n),
                    algo,
                ));
                cfg.protocol = fast_protocol();
                UdpOverlay::spawn(OverlayNode::new(cfg), socket, peers.clone())
            })
            .collect()
    }

    /// Poll `done` until it holds; panic with `what` at the deadline.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let started = Instant::now();
        while !done() {
            assert!(started.elapsed() < DEADLINE, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Does `overlay` hold a loopback-fast measurement of, and a route
    /// to, every one of the `n` members but itself?
    fn routes_to_all(overlay: &UdpOverlay, n: u16) -> bool {
        let now = overlay.now();
        overlay.with_node(|node| {
            node.is_member()
                && (0..n).map(NodeId).filter(|&d| d != node.id()).all(|d| {
                    node.measured_latency_ms(d).is_some_and(|l| l < 50.0)
                        && node.best_hop(d, now).is_some()
                })
        })
    }

    /// Real sockets, real clock: an 8-node quorum overlay measures
    /// latency, exchanges link state and recommendations until every
    /// node knows a route to every other, and then shuts down promptly
    /// with timers still pending.
    #[test]
    fn quorum_cluster_converges_and_stops_promptly() {
        let n = 8;
        let overlays = spawn_cluster(n, Algorithm::Quorum, |cfg| cfg);
        wait_until("routes between all 8 nodes", || {
            overlays.iter().all(|o| routes_to_all(o, n))
        });
        let stopping = Instant::now();
        for o in overlays {
            o.shutdown().expect("clean shutdown");
        }
        assert!(stopping.elapsed() < Duration::from_secs(2), "slow shutdown");
    }

    /// The same driver runs the full-mesh baseline.
    #[test]
    fn fullmesh_cluster_routes() {
        let n = 3;
        let overlays = spawn_cluster(n, Algorithm::FullMesh, |cfg| cfg);
        wait_until("routes between all 3 nodes", || {
            overlays.iter().all(|o| routes_to_all(o, n))
        });
        let now = overlays[1].now();
        assert_eq!(
            overlays[1].with_node(|node| node.double_rendezvous_failures(now)),
            0
        );
        for o in overlays {
            o.shutdown().expect("clean shutdown");
        }
    }

    /// Graceful SWIM shutdown flushes `Left` gossip: survivors install a
    /// view without the leaver. No survivor ever raised a suspicion, so
    /// failure detection cannot be what removed it.
    #[test]
    fn graceful_leave_reconfigures_survivors() {
        let mut overlays = spawn_cluster(3, Algorithm::Quorum, NodeConfig::with_swim);
        wait_until("every node to install the static view", || {
            overlays.iter().all(|o| o.with_node(OverlayNode::is_member))
        });
        overlays.pop().expect("node 2").shutdown().expect("leave");
        wait_until("the survivors to drop the leaver", || {
            overlays
                .iter()
                .all(|o| o.with_node(|node| node.view().is_some_and(|v| !v.contains(NodeId(2)))))
        });
        for o in &overlays {
            let raised = o.with_node(|node| {
                node.telemetry()
                    .snapshot()
                    .counter_total("membership", "suspicion_raised")
            });
            assert_eq!(
                raised, 0,
                "the leave, not failure detection, removed node 2"
            );
        }
        for o in overlays {
            o.shutdown().expect("clean shutdown");
        }
    }
}

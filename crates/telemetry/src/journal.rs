//! The bounded event journal: timestamped structured protocol events.
//!
//! Convergence studies read the journal to reconstruct *why* something
//! happened — which suspicion raised, which sync pushed, which packets
//! a partition swallowed — instead of inferring it from endpoint
//! counters. The ring is bounded: when full, the oldest event is
//! overwritten and a drop counter ticks, so a long run can never grow
//! memory without bound.

use std::collections::VecDeque;

/// Event importance, ordered `Info < Warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Protocol-rate milestones (view installs, syncs).
    Info,
    /// Anomalies worth surfacing (drops, suspicions).
    Warn,
}

impl Severity {
    /// Stable lowercase label (JSON export).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }
}

/// Why the simulated network dropped a packet. The distinction is the
/// point: a link-down drop indicts the failure schedule (partition or
/// outage), a receiver-down drop a crash while the packet was in
/// flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// The failure schedule had the link (or an endpoint) down —
    /// partitions and outages land here.
    LinkDown,
    /// The latency matrix marks the pair unreachable (no path exists).
    Unreachable,
    /// Bernoulli packet loss on an up link.
    Loss,
    /// The receiver was down at delivery time (crashed mid-flight).
    ReceiverDown,
}

impl DropCause {
    /// Stable lowercase label (metric names, JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DropCause::LinkDown => "link_down",
            DropCause::Unreachable => "unreachable",
            DropCause::Loss => "loss",
            DropCause::ReceiverDown => "receiver_down",
        }
    }
}

/// What happened. Variants cover the protocol milestones every layer
/// reports; ids are raw node indices. The derived total order (with
/// [`Event`]'s time and node) is what makes fleet-merged event lists
/// deterministic regardless of merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Suspicion opened about `about`.
    SuspicionRaised {
        /// Suspected node.
        about: u32,
    },
    /// Suspicion about `about` was refuted in time.
    SuspicionRefuted {
        /// Cleared node.
        about: u32,
    },
    /// A membership view was installed.
    ViewInstalled {
        /// View version.
        version: u64,
        /// Members in the view.
        members: u32,
    },
    /// A link-state row from `origin` was evicted (staleness pressure).
    RowEvicted {
        /// Row origin.
        origin: u32,
    },
    /// Anti-entropy digest matched: full transfer skipped with `peer`.
    SyncSkip {
        /// Sync partner.
        peer: u32,
    },
    /// Anti-entropy pushed a full ledger to `peer`.
    SyncPush {
        /// Sync partner.
        peer: u32,
    },
    /// The network dropped a packet bound for `to`.
    PacketDropped {
        /// Intended receiver.
        to: u32,
        /// Why it was dropped.
        cause: DropCause,
    },
}

/// One journal entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulation (or wall) time, seconds.
    pub t: f64,
    /// Importance.
    pub severity: Severity,
    /// Reporting node.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The canonical total order merged event lists are sorted by:
    /// `(time, node, severity, kind)`. Time compares via
    /// [`f64::total_cmp`], so the order is total even for exotic
    /// timestamps and a fleet merge is deterministic regardless of the
    /// order snapshots were folded in.
    #[must_use]
    pub fn canonical_cmp(&self, other: &Event) -> std::cmp::Ordering {
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| self.severity.cmp(&other.severity))
            .then_with(|| self.kind.cmp(&other.kind))
    }
}

/// Events an enabled [`Telemetry`](crate::Telemetry) handle's journal
/// retains; a disabled handle's holds none.
pub const JOURNAL_CAPACITY: usize = 256;

/// The ring buffer behind a [`Telemetry`](crate::Telemetry) handle's
/// journal.
#[derive(Debug)]
pub(crate) struct JournalInner {
    capacity: usize,
    ring: VecDeque<Event>,
    dropped: u64,
}

impl JournalInner {
    pub(crate) fn new(capacity: usize) -> Self {
        JournalInner {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, event: Event) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    pub(crate) fn events(&self) -> Vec<Event> {
        self.ring.iter().copied().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warn);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = Telemetry::new(0);
        let total = JOURNAL_CAPACITY as u32 + 2;
        for i in 0..total {
            t.event(
                f64::from(i),
                Severity::Info,
                EventKind::SyncSkip { peer: i },
            );
        }
        let events = t.events();
        assert_eq!(events.len(), JOURNAL_CAPACITY, "bounded at capacity");
        // The oldest two were overwritten; the survivors are 2.. in order.
        let peers: Vec<u32> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::SyncSkip { peer } => peer,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(peers, (2..total).collect::<Vec<u32>>());
        assert_eq!(t.events_dropped(), 2);
    }

    #[test]
    fn drop_cause_labels_are_distinct() {
        let all = [
            DropCause::LinkDown,
            DropCause::Unreachable,
            DropCause::Loss,
            DropCause::ReceiverDown,
        ];
        let mut labels: Vec<&str> = all.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}

//! The event journal under fleet merge: overflow keeps the newest
//! events through the snapshot, and merged ordering is deterministic by
//! `(time, node)` regardless of fold order.

use apor_telemetry::journal::JOURNAL_CAPACITY;
use apor_telemetry::snapshot::MERGED_EVENT_CAP;
use apor_telemetry::{Event, EventKind, Severity, Snapshot, Telemetry};

fn skip(t: f64, node: u32, peer: u32) -> Event {
    Event {
        t,
        severity: Severity::Info,
        node,
        kind: EventKind::SyncSkip { peer },
    }
}

#[test]
fn snapshot_carries_journal_events() {
    let t = Telemetry::new(3);
    t.event(1.5, Severity::Info, EventKind::SyncSkip { peer: 9 });
    let snap = t.snapshot();
    assert_eq!(snap.events().len(), 1);
    assert_eq!(snap.events()[0].node, 3);
    assert_eq!(snap.events()[0].kind, EventKind::SyncSkip { peer: 9 });
    // Disabled registries export nothing, events included.
    let d = Telemetry::disabled();
    d.event(1.0, Severity::Warn, EventKind::SyncSkip { peer: 1 });
    assert!(d.snapshot().events().is_empty());
}

#[test]
fn overflow_keeps_newest_events_through_snapshot() {
    let t = Telemetry::new(0);
    let total = JOURNAL_CAPACITY as u32 + 6;
    for i in 0..total {
        t.event(
            f64::from(i),
            Severity::Info,
            EventKind::SyncSkip { peer: i },
        );
    }
    let snap = t.snapshot();
    let peers: Vec<u32> = snap
        .events()
        .iter()
        .map(|e| match e.kind {
            EventKind::SyncSkip { peer } => peer,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(
        peers,
        (6..total).collect::<Vec<u32>>(),
        "ring overflow keeps the newest"
    );
    assert_eq!(t.events_dropped(), 6);
}

#[test]
fn merged_ordering_is_deterministic_by_time_then_node() {
    // Interleaved timelines from three nodes, folded in two different
    // orders: identical result, sorted by (t, node).
    let mut snaps = Vec::new();
    for node in 0..3u32 {
        let t = Telemetry::new(node);
        // Later nodes record *earlier* events, so insertion order and
        // canonical order disagree unless merge actually sorts.
        t.event(
            f64::from(3 - node),
            Severity::Info,
            EventKind::SyncSkip { peer: node },
        );
        t.event(10.0, Severity::Info, EventKind::SyncPush { peer: node });
        snaps.push(t.snapshot());
    }
    let mut forward = Snapshot::default();
    for s in &snaps {
        forward.merge(s);
    }
    let mut backward = Snapshot::default();
    for s in snaps.iter().rev() {
        backward.merge(s);
    }
    assert_eq!(forward, backward);
    let keys: Vec<(f64, u32)> = forward.events().iter().map(|e| (e.t, e.node)).collect();
    assert_eq!(
        keys,
        vec![
            (1.0, 2),
            (2.0, 1),
            (3.0, 0),
            (10.0, 0),
            (10.0, 1),
            (10.0, 2)
        ]
    );
}

#[test]
fn merge_bounds_events_at_cap_keeping_newest() {
    // Two snapshots whose union exceeds the cap: the merged list holds
    // exactly MERGED_EVENT_CAP events and they are the newest ones.
    let mut a = Snapshot::default();
    let mut b = Snapshot::default();
    let old: Vec<Event> = (0..MERGED_EVENT_CAP)
        .map(|i| skip(i as f64, 0, 0))
        .collect();
    let new: Vec<Event> = (0..MERGED_EVENT_CAP)
        .map(|i| skip((MERGED_EVENT_CAP + i) as f64, 1, 0))
        .collect();
    a.set_events(old);
    b.set_events(new.clone());
    let mut ab = a.clone();
    ab.merge(&b);
    assert_eq!(ab.events().len(), MERGED_EVENT_CAP);
    assert_eq!(ab.events(), new.as_slice(), "newest events survive the cap");
    // And symmetric.
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba);
}

#[test]
fn events_appear_in_json_export() {
    let t = Telemetry::new(2);
    t.event(
        4.25,
        Severity::Warn,
        EventKind::SuspicionRaised { about: 5 },
    );
    let json = t.snapshot().to_json();
    let doc = apor_telemetry::json::parse(&json).expect("valid JSON");
    let events = doc
        .get("events")
        .and_then(apor_telemetry::json::Value::as_array)
        .expect("events array present");
    assert_eq!(events.len(), 1);
    assert_eq!(
        events[0]
            .get("t")
            .and_then(apor_telemetry::json::Value::as_f64),
        Some(4.25)
    );
    assert_eq!(
        events[0]
            .get("severity")
            .and_then(apor_telemetry::json::Value::as_str),
        Some("warn")
    );
    let kind = events[0]
        .get("kind")
        .and_then(apor_telemetry::json::Value::as_str)
        .unwrap();
    assert!(kind.contains("SuspicionRaised"), "{kind}");
    // An event-less snapshot keeps the PR-4 schema (no events key).
    let bare = Telemetry::new(0);
    bare.counter("c", "n").inc();
    assert!(!bare.snapshot().to_json().contains("\"events\""));
}

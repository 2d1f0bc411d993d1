//! Event-ring overflow behaviour: the ring keeps the newest events, counts
//! what it sheds, folds across parallel jobs, and surfaces overflow in a
//! full simulation report.

use vcoma::metrics::{Event, EventRing, EventSnapshot, Mergeable, MetricsSnapshot};
use vcoma::workloads::{UniformRandom, Workload};
use vcoma::{Machine, MachineConfig, Scheme, SimConfig};

fn event(cycle: u64) -> Event {
    Event { cycle, node: (cycle % 4) as u16, kind: "tlb_miss", addr: cycle * 64 }
}

#[test]
fn overflow_counts_drops_and_keeps_the_newest_events() {
    let mut ring = EventRing::new(8);
    for c in 0..20 {
        ring.push(event(c));
    }
    assert_eq!(ring.dropped(), 12);
    let snap = ring.snapshot();
    assert_eq!(snap.len(), 8);
    // Oldest-first, and only the most recent survive.
    let cycles: Vec<u64> = snap.iter().map(|e| e.cycle).collect();
    assert_eq!(cycles, (12..20).collect::<Vec<u64>>());
}

#[test]
fn zero_capacity_ring_drops_everything() {
    let mut ring = EventRing::new(0);
    for c in 0..5 {
        ring.push(event(c));
    }
    assert_eq!(ring.dropped(), 5);
    assert!(ring.snapshot().is_empty());
}

#[test]
fn registry_snapshot_carries_the_drop_count_through_merge() {
    let mut a = EventRing::new(4);
    let mut b = EventRing::new(4);
    for c in 0..10 {
        a.push(event(c));
        b.push(event(100 + c));
    }
    let snapshot = |ring: &EventRing| MetricsSnapshot {
        events: ring.snapshot(),
        dropped_events: ring.dropped(),
        ..MetricsSnapshot::default()
    };
    let mut sa = snapshot(&a);
    let sb = snapshot(&b);
    assert_eq!(sa.dropped_events, 6);
    sa.merge(&sb);
    assert_eq!(sa.dropped_events, 12);
    assert_eq!(sa.events.len(), 8, "merge concatenates both retained tails");
}

#[test]
fn event_snapshot_vectors_merge_in_order() {
    let mut a: Vec<EventSnapshot> = EventRing::new(4).snapshot();
    let mut ring = EventRing::new(4);
    ring.push(event(7));
    a.merge(&ring.snapshot());
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].cycle, 7);
    assert_eq!(a[0].kind, "tlb_miss");
}

#[test]
fn a_real_run_overflows_a_tiny_ring_without_losing_counters() {
    // A 4-entry ring under a TLB-thrashing workload must shed events…
    let machine = MachineConfig::tiny();
    let w = UniformRandom { pages: 200, refs_per_node: 1000, write_fraction: 0.3 };
    let traces = w.generate(&machine);
    let run = |capacity: usize| {
        let cfg = SimConfig::new(machine.clone(), Scheme::L0_TLB)
            .with_seed(9)
            .with_event_capacity(capacity);
        Machine::new(cfg).run(traces.clone()).unwrap()
    };
    let small = run(4);
    assert!(small.metrics().dropped_events > 0, "4-entry ring must overflow");
    assert!(small.metrics().events.len() <= 4);

    // …while a large ring on the same run drops nothing, and the small
    // ring's drop count accounts exactly for the difference.
    let big = run(1 << 20);
    assert_eq!(big.metrics().dropped_events, 0);
    assert_eq!(
        big.metrics().events.len() as u64,
        small.metrics().events.len() as u64 + small.metrics().dropped_events
    );
    // Overflow touches only the ring: counters and histograms agree.
    assert_eq!(big.metrics().counters, small.metrics().counters);
    assert_eq!(big.exec_time(), small.exec_time());
}

//! The serializable, mergeable set of named counters, gauges and
//! histograms a run reports.

use crate::{EventSnapshot, HistogramSnapshot, Mergeable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Named metric series of one run, keyed by name in `BTreeMap`s so every
/// serialized snapshot is deterministic.
///
/// Counts taken on every reference or transaction are typed fields of
/// their owners (the machine's latency histograms and event ring, the
/// protocol's `ProtocolStats`); they enter the snapshot under their names
/// only at report time, so the hot path does no string-keyed map work.
/// This is what lands in `SimReport` and in `--metrics-out` JSON files.
/// Snapshots from parallel sweep jobs fold together through
/// [`Mergeable`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Cycle histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Structured trace events, oldest first.
    pub events: Vec<EventSnapshot>,
    /// Events lost to ring overflow.
    pub dropped_events: u64,
}

impl MetricsSnapshot {
    /// Current value of a counter (zero if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram snapshot, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

impl Mergeable for MetricsSnapshot {
    fn merge(&mut self, other: &Self) {
        Mergeable::merge(&mut self.counters, &other.counters);
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            if v.abs() > slot.abs() {
                *slot = *v;
            }
        }
        Mergeable::merge(&mut self.histograms, &other.histograms);
        Mergeable::merge(&mut self.events, &other.events);
        self.dropped_events += other.dropped_events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, EventRing, Histogram};

    /// A snapshot with one counter, one histogram sample and the events of
    /// a ring of `capacity` that saw `events` pushes.
    fn snapshot(counter: (&str, u64), capacity: usize, events: u64) -> MetricsSnapshot {
        let mut ring = EventRing::new(capacity);
        for cycle in 0..events {
            ring.push(Event { cycle, node: 0, kind: "e", addr: 0 });
        }
        let mut h = Histogram::default();
        h.record(10);
        MetricsSnapshot {
            counters: BTreeMap::from([(counter.0.to_string(), counter.1)]),
            histograms: BTreeMap::from([("lat".to_string(), h.snapshot())]),
            events: ring.snapshot(),
            dropped_events: ring.dropped(),
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut snap = MetricsSnapshot::default();
        assert_eq!(snap.counter("absent"), 0);
        snap.merge(&snapshot(("hits", 1), 4, 0));
        snap.merge(&snapshot(("hits", 2), 4, 0));
        assert_eq!(snap.counter("hits"), 3);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn snapshot_round_trips_names_deterministically() {
        let mut snap = snapshot(("b", 1), 4, 1);
        snap.merge(&snapshot(("a", 1), 4, 0));
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        let json = crate::json::to_json_pretty(&snap).unwrap();
        let back: MetricsSnapshot = crate::json::from_json_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(json, crate::json::to_json_pretty(&back).unwrap());
    }

    #[test]
    fn merge_folds_counters_histograms_and_drops() {
        let mut a = MetricsSnapshot::default();
        let b = snapshot(("x", 5), 1, 2);
        assert_eq!(b.dropped_events, 1);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.counter("x"), 10);
        assert_eq!(a.histogram("lat").unwrap().count, 2);
        assert_eq!(a.events.len(), 2, "merge keeps both retained tails");
        assert_eq!(a.dropped_events, 2);
    }

    #[test]
    fn gauges_merge_to_the_larger_magnitude() {
        let mut a = MetricsSnapshot {
            gauges: BTreeMap::from([("g".to_string(), 3)]),
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            gauges: BTreeMap::from([("g".to_string(), -7), ("h".to_string(), 1)]),
            ..MetricsSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.gauges, BTreeMap::from([("g".to_string(), -7), ("h".to_string(), 1)]));
    }
}

//! Named counters, gauges and histograms, and the serializable snapshot.

use crate::{Event, EventRing, EventSnapshot, Histogram, HistogramSnapshot, Mergeable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A registry of named metrics for one simulation (or one node).
///
/// The registry is for rare events and the event ring. Counts taken on
/// every reference or transaction are typed fields of their owners (the
/// machine's latency histograms, the protocol's `ProtocolStats`), which
/// enter the [`MetricsSnapshot`] under their names only at report time,
/// so the hot path does no string-keyed map work. Names here are
/// `&'static str`, so recording never allocates. Keys are kept in a
/// `BTreeMap` so iteration — and therefore every serialized snapshot — is
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: EventRing,
}

impl MetricsRegistry {
    /// Creates an empty registry with an event ring of `event_capacity`.
    #[must_use]
    pub fn new(event_capacity: usize) -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            events: EventRing::new(event_capacity),
        }
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Shorthand for [`count`](Self::count) with a delta of one.
    pub fn incr(&mut self, name: &'static str) {
        self.count(name, 1);
    }

    /// Sets the named gauge to an absolute value.
    pub fn gauge(&mut self, name: &'static str, value: i64) {
        self.gauges.insert(name, value);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Appends a structured event to the ring.
    pub fn trace(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Current value of a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The event ring.
    #[must_use]
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Clears all metrics and the event ring (used at warmup reset).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
        self.events.clear();
    }

    /// Converts into the serializable, mergeable snapshot form.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| ((*k).to_string(), h.snapshot()))
                .collect(),
            events: self.events.snapshot(),
            dropped_events: self.events.dropped(),
        }
    }
}

impl Mergeable for MetricsRegistry {
    fn merge(&mut self, other: &Self) {
        // Fully qualified: `BTreeMap` may grow an unrelated inherent
        // `merge` in a future std release (rust-lang/rust#48919).
        Mergeable::merge(&mut self.counters, &other.counters);
        for (k, v) in &other.gauges {
            // Gauges are point-in-time values; the merged registry keeps
            // the larger magnitude (useful for high-water marks).
            let slot = self.gauges.entry(k).or_insert(0);
            if v.abs() > slot.abs() {
                *slot = *v;
            }
        }
        Mergeable::merge(&mut self.histograms, &other.histograms);
        for e in other.events.iter() {
            self.events.push(*e);
        }
    }
}

/// Serializable snapshot of a [`MetricsRegistry`].
///
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

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new(16);
        assert_eq!(reg.counter("absent"), 0);
        reg.incr("hits");
        reg.count("hits", 2);
        assert_eq!(reg.counter("hits"), 3);
    }

    #[test]
    fn snapshot_round_trips_names_deterministically() {
        let mut reg = MetricsRegistry::new(4);
        reg.incr("b");
        reg.incr("a");
        reg.observe("lat", 42);
        reg.trace(Event { cycle: 7, node: 1, kind: "probe", addr: 0x40 });
        let snap = reg.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn merge_folds_counters_histograms_and_drops() {
        let mut a = MetricsRegistry::new(8).snapshot();
        let mut reg_b = MetricsRegistry::new(1);
        reg_b.count("x", 5);
        reg_b.observe("lat", 10);
        reg_b.trace(Event { cycle: 1, node: 0, kind: "e", addr: 0 });
        reg_b.trace(Event { cycle: 2, node: 0, kind: "e", addr: 0 });
        let b = reg_b.snapshot();
        assert_eq!(b.dropped_events, 1);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.counter("x"), 10);
        assert_eq!(a.histogram("lat").unwrap().count, 2);
        assert_eq!(a.dropped_events, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut reg = MetricsRegistry::new(4);
        reg.incr("n");
        reg.observe("h", 1);
        reg.trace(Event { cycle: 0, node: 0, kind: "e", addr: 0 });
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped_events, 0);
    }
}

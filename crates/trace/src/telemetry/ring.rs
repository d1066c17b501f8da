//! A bounded time-series of telemetry deltas: push absolute
//! [`TelemetrySnapshot`]s as they are taken, keep the last `N`
//! point-to-point deltas, and read them back oldest-first for trend views
//! (`starqo-obs watch` sparklines, the doctor's drift verdicts).

use crate::telemetry::counters::Metric;
use crate::telemetry::snapshot::TelemetrySnapshot;

/// The ring. Not thread-safe by itself — one watcher owns it and feeds it
/// snapshots at its own cadence (wrap in a mutex to share).
#[derive(Debug, Clone)]
pub struct SnapshotRing {
    capacity: usize,
    /// The last absolute snapshot pushed, diff base for the next push.
    last: Option<TelemetrySnapshot>,
    /// Delta ring, oldest at `start`.
    deltas: Vec<TelemetrySnapshot>,
    start: usize,
}

impl SnapshotRing {
    /// A ring holding the last `capacity` deltas (at least one).
    pub fn new(capacity: usize) -> SnapshotRing {
        SnapshotRing {
            capacity: capacity.max(1),
            last: None,
            deltas: Vec::new(),
            start: 0,
        }
    }

    /// Fold in the next absolute snapshot. The first push only seeds the
    /// diff base and returns `None`; every later push appends (and
    /// returns a clone of) the delta against the previous snapshot,
    /// evicting the oldest delta once the ring is full.
    pub fn push(&mut self, snapshot: TelemetrySnapshot) -> Option<TelemetrySnapshot> {
        let delta = self.last.as_ref().map(|prev| snapshot.delta_since(prev));
        self.last = Some(snapshot);
        let delta = delta?;
        if self.deltas.len() < self.capacity {
            self.deltas.push(delta.clone());
        } else {
            self.deltas[self.start] = delta.clone();
            self.start = (self.start + 1) % self.capacity;
        }
        Some(delta)
    }

    /// The retained deltas, oldest first.
    pub fn deltas(&self) -> Vec<&TelemetrySnapshot> {
        let n = self.deltas.len();
        (0..n).map(|i| &self.deltas[(self.start + i) % n]).collect()
    }

    /// The most recent delta, if any.
    pub fn latest(&self) -> Option<&TelemetrySnapshot> {
        let n = self.deltas.len();
        (n > 0).then(|| &self.deltas[(self.start + n - 1) % n])
    }

    /// The last absolute snapshot pushed (the current diff base).
    pub fn last_absolute(&self) -> Option<&TelemetrySnapshot> {
        self.last.as_ref()
    }

    /// One counter's value across the retained deltas, oldest first —
    /// the raw series behind a trend sparkline.
    pub fn counter_series(&self, m: Metric) -> Vec<u64> {
        self.deltas().iter().map(|d| d.counters[m]).collect()
    }

    /// Retained delta count (≤ capacity).
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(uptime: u64, requests: u64) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot {
            uptime_nanos: uptime,
            ..TelemetrySnapshot::default()
        };
        s.counters[Metric::Requests] = requests;
        s
    }

    #[test]
    fn ring_keeps_last_n_deltas_oldest_first() {
        let mut ring = SnapshotRing::new(3);
        assert!(ring.push(snap(0, 0)).is_none(), "first push seeds only");
        for i in 1..=5u64 {
            let delta = ring.push(snap(i * 1_000, i * 10)).expect("delta");
            assert_eq!(delta.counters[Metric::Requests], 10);
            assert_eq!(delta.uptime_nanos, 1_000);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.counter_series(Metric::Requests), vec![10, 10, 10]);
        assert_eq!(ring.latest().unwrap().uptime_nanos, 1_000);
        assert_eq!(ring.last_absolute().unwrap().counters[Metric::Requests], 50);
    }

    #[test]
    fn eviction_order_survives_wraparound() {
        let mut ring = SnapshotRing::new(2);
        ring.push(snap(0, 0));
        ring.push(snap(1, 1)); // delta 1
        ring.push(snap(2, 3)); // delta 2
        ring.push(snap(3, 6)); // delta 3, evicts delta 1
        assert_eq!(ring.counter_series(Metric::Requests), vec![2, 3]);
        ring.push(snap(4, 10)); // delta 4, evicts delta 2
        assert_eq!(ring.counter_series(Metric::Requests), vec![3, 4]);
    }
}

//! Per-fingerprint hot-query tracking in bounded memory: the space-saving
//! algorithm (Metwally et al.), sharded by fingerprint hash.
//!
//! Each shard owns at most `capacity` entries behind its own mutex; the
//! critical section is a linear scan of that tiny array (tens of entries),
//! so contention is negligible next to the work each request already does —
//! and memory stays fixed however many distinct fingerprints flow past.
//! When every distinct fingerprint fits (the common case for template-
//! driven workloads), counts and cumulative latencies are *exact*; under
//! overflow, space-saving guarantees any fingerprint with true count above
//! the evicted minimum is retained, and `err` bounds the overcount.

use std::sync::Mutex;

use crate::telemetry::sample::mix64;

record! {
    /// One tracked fingerprint: exact or space-saving-approximate totals.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct HotQuery {
        /// Canonical query fingerprint hash.
        pub fp: u64,
        /// Requests observed (overcounted by at most `err`).
        pub count: u64,
        /// Space-saving overcount bound: 0 while the entry never recycled.
        pub err: u64,
        /// Cumulative end-to-end latency nanos attributed to this entry.
        pub nanos: u64,
        /// Catalog epoch of the most recent request.
        pub last_epoch: u64,
    }
}

/// The sharded tracker. `snapshot(k)` merges shards and returns the global
/// top-K by count; sharding by fingerprint hash means each fingerprint
/// lives in exactly one shard, so the merge never double-counts.
pub struct TopKTracker {
    shards: Box<[Mutex<Vec<HotQuery>>]>,
    mask: usize,
    capacity: usize,
}

impl std::fmt::Debug for TopKTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKTracker")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl TopKTracker {
    /// A tracker with `shards` shards (rounded up to a power of two) each
    /// holding at most `capacity` entries. Total memory: `shards ×
    /// capacity` entries, fixed.
    pub fn new(shards: usize, capacity: usize) -> TopKTracker {
        let n = shards.max(1).next_power_of_two();
        TopKTracker {
            shards: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            mask: n - 1,
            capacity: capacity.max(1),
        }
    }

    /// Record one request for `fp`.
    pub fn record(&self, fp: u64, nanos: u64, epoch: u64) {
        let shard = &self.shards[(mix64(fp) as usize) & self.mask];
        let mut entries = shard.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(e) = entries.iter_mut().find(|e| e.fp == fp) {
            e.count += 1;
            e.nanos += nanos;
            e.last_epoch = e.last_epoch.max(epoch);
        } else if entries.len() < self.capacity {
            entries.push(HotQuery {
                fp,
                count: 1,
                err: 0,
                nanos,
                last_epoch: epoch,
            });
        } else if let Some(victim) = entries.iter_mut().min_by_key(|e| e.count) {
            // Space-saving recycle: the newcomer inherits the evicted
            // minimum's count as its overcount bound. Latency restarts —
            // the victim's nanos belong to the evicted fingerprint.
            *victim = HotQuery {
                fp,
                count: victim.count + 1,
                err: victim.count,
                nanos,
                last_epoch: epoch,
            };
        }
    }

    /// The global top `k` entries by count (ties broken by fingerprint for
    /// determinism), merged across shards.
    pub fn snapshot(&self, k: usize) -> Vec<HotQuery> {
        let mut all: Vec<HotQuery> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .collect();
        all.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.fp.cmp(&b.fp)));
        all.truncate(k);
        all
    }

    /// Tracked entries across all shards (≤ shards × capacity).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_when_under_capacity() {
        let t = TopKTracker::new(4, 8);
        for (fp, n) in [(7u64, 5u64), (9, 3), (11, 1)] {
            for i in 0..n {
                t.record(fp, 100 + i, i);
            }
        }
        let snap = t.snapshot(10);
        assert_eq!(snap.len(), 3);
        assert_eq!((snap[0].fp, snap[0].count, snap[0].err), (7, 5, 0));
        assert_eq!(snap[0].nanos, 100 + 101 + 102 + 103 + 104);
        assert_eq!(snap[0].last_epoch, 4);
        assert_eq!((snap[1].fp, snap[1].count), (9, 3));
        assert_eq!((snap[2].fp, snap[2].count), (11, 1));
    }

    #[test]
    fn snapshot_truncates_to_k_deterministically() {
        let t = TopKTracker::new(1, 16);
        for fp in 0..10u64 {
            t.record(fp, 1, 0);
            if fp < 5 {
                t.record(fp, 1, 0);
            }
        }
        let snap = t.snapshot(5);
        assert_eq!(snap.len(), 5);
        // All five have count 2; ties break by ascending fingerprint.
        assert_eq!(
            snap.iter().map(|e| e.fp).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn memory_stays_bounded_and_heavy_hitter_survives() {
        let t = TopKTracker::new(1, 4);
        // One heavy hitter among a stream of one-off fingerprints.
        for i in 0..1_000u64 {
            t.record(42, 10, 0);
            t.record(1_000_000 + i, 10, 0);
        }
        assert!(t.len() <= 4, "capacity must bound memory");
        let snap = t.snapshot(4);
        let heavy = snap.iter().find(|e| e.fp == 42).expect("heavy hitter");
        assert_eq!(heavy.count, 1_000);
        assert_eq!(heavy.err, 0, "never evicted, so exact");
        // Recycled entries carry a non-zero overcount bound.
        assert!(snap.iter().any(|e| e.fp != 42 && e.err > 0));
        // Space-saving invariant: count never below the true count.
        for e in &snap {
            assert!(e.count >= 1);
            assert!(e.err < e.count);
        }
    }

    #[test]
    fn concurrent_records_stay_exact_under_capacity() {
        let t = std::sync::Arc::new(TopKTracker::new(8, 8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        t.record(i % 6, 2, 1);
                    }
                });
            }
        });
        let snap = t.snapshot(6);
        assert_eq!(snap.len(), 6);
        for e in &snap {
            // 8 threads × 1000 records over 6 fps: 166 or 167 each... but
            // exactly: each thread records fp (i % 6), i in 0..1000 →
            // fps 0..3 get 167, fps 4..5 get 166; ×8 threads.
            let per_thread = if e.fp < 4 { 167 } else { 166 };
            assert_eq!(e.count, per_thread * 8, "fp {}", e.fp);
            assert_eq!(e.nanos, e.count * 2);
            assert_eq!(e.err, 0);
        }
    }
}

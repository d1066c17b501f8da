//! The feedback plane: one bounded table of per-fingerprint slots. A slot
//! holds everything the telemetry plane keeps about one query shape: its
//! hot-query totals, its plan-quality sketch and its heal state.
//!
//! Every served request makes one [`FeedbackPlane::record`] call — one
//! shard lock, one linear probe — where its outcome is known:
//!
//! - the **hot-query totals** ([`HotQuery`]) count the request and add its
//!   serve latency and epoch. They are exact while every distinct
//!   fingerprint fits (the common case for template-driven workloads);
//!   under overflow the space-saving rule (Metwally et al.) keeps any
//!   fingerprint whose true count exceeds the evicted minimum, and `err`
//!   bounds the overcount;
//! - an **executed** request also folds its `(estimate, actual, nanos,
//!   epoch)` observation into the [`QErrorSketch`]: a streaming
//!   geometric-mean and max Q-error against the cached plan's cardinality
//!   estimate, a log₂ latency histogram, run counts, and a *suspect* flag
//!   that trips once the sketch crosses the configured [`SuspectConfig`]
//!   thresholds. The flag is sticky **per installed plan**: it clears only
//!   when a new plan or epoch is installed for the fingerprint (an
//!   epoch-keyed [`QErrorSketch::refresh_estimate`], triggered by a newer
//!   epoch arriving in `record` or by a heal's [`FeedbackPlane::resolve`]
//!   after an adaptive plan swap). A refresh resets the Q-error *window*
//!   (the accumulators the thresholds read) but preserves the lifetime run
//!   count, latency histogram, and observed actual-row extremes, so drift
//!   trends survive legitimate invalidations;
//! - the **heal state** is a [`HealRecord`] and an in-flight flag. The
//!   serving layer's heal policy reads and writes them only through
//!   [`FeedbackPlane::claim`] and [`FeedbackPlane::resolve`], each one step
//!   under the shard lock.
//!
//! `record` returns the slot's suspect flag, so the caller acts on it
//! (heal, span retention) without a second lookup. Flagging is reported
//! back once; acting on a suspect plan is the serving layer's business,
//! not the plane's.
//!
//! ## Determinism under concurrency
//!
//! Every accumulator is chosen to be commutative and associative so a
//! concurrent fold bit-matches a serial replay of the same observations:
//!
//! - per-run `log₂ Q` is quantized to integer micro-units
//!   ([`qlog_micro`]) and *summed* — integer addition is order-free,
//!   unlike floating-point;
//! - request counts and latency sums are integer sums; max Q, min/max
//!   actual rows, and last-epoch are max/min folds;
//! - the latency histogram is bucket-count addition;
//! - the estimate is keyed by epoch (highest epoch wins), and for a fixed
//!   `(fingerprint, epoch)` the cached plan's estimate is a constant;
//! - the Q-error window holds exactly the observations carrying the
//!   highest epoch seen: a newer epoch resets the window before folding,
//!   and stale-epoch stragglers fold into the lifetime totals but not the
//!   window — so the final window is the same multiset whatever the
//!   arrival order.
//!
//! ## Bounded memory
//!
//! Each fingerprint hashes to exactly one shard, each shard is a small
//! mutex-guarded array, and memory stays fixed at `shards × capacity`
//! slots however many fingerprints flow past. One recycling rule: when a
//! shard is full, the newcomer takes the slot with the smallest count
//! that has no heal in flight (ties by fingerprint). It inherits that
//! count plus one, with the count as its overcount bound (space-saving);
//! its sketch and heal record start from zero, since the evicted
//! fingerprint's history is not its own.

use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::hist::Histogram;
use crate::telemetry::heal::HealRecord;
use crate::telemetry::sample::mix64;

/// Fixed-point scale for quantized `log₂ Q`: one unit is a millionth of a
/// doubling. `qlog = 2_000_000` ⇔ `Q = 4`.
pub const QLOG_SCALE: u64 = 1_000_000;

/// Quantized `log₂` of the Q-error between an estimate and an actual row
/// count, in [`QLOG_SCALE`] micro-units. `Q = max(est/actual, actual/est)`
/// with both sides clamped to ≥ 1 row (the standard zero-guard), so a
/// perfect estimate yields 0 and every error is ≥ 0. Deterministic: a pure
/// function of the two integers, safe to sum across threads.
pub fn qlog_micro(est_rows: u64, actual_rows: u64) -> u64 {
    let (hi, lo) = if est_rows >= actual_rows {
        (est_rows.max(1), actual_rows.max(1))
    } else {
        (actual_rows.max(1), est_rows.max(1))
    };
    let q = hi as f64 / lo as f64;
    (q.log2() * QLOG_SCALE as f64).round().max(0.0) as u64
}

/// A Q-error in linear terms from its quantized log form.
pub fn qlog_to_q(qlog: u64) -> f64 {
    (qlog as f64 / QLOG_SCALE as f64).exp2()
}

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
        /// Cumulative serve latency nanos attributed to this entry
        /// (execution excluded).
        pub nanos: u64,
        /// Catalog epoch of the most recent request.
        pub last_epoch: u64,
    }
}

record! {
    /// One fingerprint's streaming plan-quality sketch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QErrorSketch {
        /// Canonical query fingerprint hash.
        pub fp: u64,
        /// Executed runs folded in over the sketch's lifetime (recycling
        /// resets the sketch; an epoch refresh does *not*).
        pub runs: u64,
        /// Runs folded into the current Q-error window — since the last
        /// estimate refresh. Equal to `runs` while the plan never changes.
        pub q_runs: u64,
        /// Σ quantized `log₂ Q` over the window's runs ([`QLOG_SCALE`]
        /// micro-units); `geomean Q = 2^(sum / q_runs / SCALE)`.
        pub qlog_sum_micro: u64,
        /// Max per-run quantized `log₂ Q` in the current window.
        pub qlog_max_micro: u64,
        /// The cached plan's estimated root cardinality at the highest epoch
        /// seen (for a fixed epoch the estimate is a constant of the plan).
        pub est_rows: u64,
        /// Smallest actual root cardinality observed (lifetime).
        pub actual_min: u64,
        /// Largest actual root cardinality observed (lifetime).
        pub actual_max: u64,
        /// Log₂ execution-latency histogram over the lifetime runs.
        pub nanos: Histogram,
        /// Highest catalog epoch folded in.
        pub last_epoch: u64,
        /// Drift flag: set once when the window crosses the suspect
        /// thresholds; sticky until the next estimate refresh (new plan or
        /// epoch installed) clears it along with the window.
        pub suspect: bool,
    }
}

impl QErrorSketch {
    fn new(fp: u64) -> QErrorSketch {
        QErrorSketch {
            fp,
            runs: 0,
            q_runs: 0,
            qlog_sum_micro: 0,
            qlog_max_micro: 0,
            est_rows: 0,
            actual_min: u64::MAX,
            actual_max: 0,
            nanos: Histogram::new(),
            last_epoch: 0,
            suspect: false,
        }
    }

    /// A new plan (or epoch) was installed for this fingerprint: reset
    /// the Q-error window and the suspect flag so the new plan is judged
    /// on its own observations, but preserve the lifetime run count,
    /// latency histogram, and actual-row extremes so drift trends survive
    /// the refresh.
    pub fn refresh_estimate(&mut self, est_rows: u64, epoch: u64) {
        self.q_runs = 0;
        self.qlog_sum_micro = 0;
        self.qlog_max_micro = 0;
        self.suspect = false;
        self.est_rows = est_rows;
        self.last_epoch = self.last_epoch.max(epoch);
    }

    /// Streaming geometric-mean Q-error over the current window (`None`
    /// before any windowed run).
    pub fn geomean_q(&self) -> Option<f64> {
        (self.q_runs > 0).then(|| qlog_to_q(self.qlog_sum_micro / self.q_runs))
    }

    /// Worst single-run Q-error in the current window (`None` before any
    /// windowed run).
    pub fn max_q(&self) -> Option<f64> {
        (self.q_runs > 0).then(|| qlog_to_q(self.qlog_max_micro))
    }

    /// Mean execution latency in nanos (`None` before any run).
    pub fn mean_nanos(&self) -> Option<u64> {
        self.nanos.mean().map(|m| m.round().max(0.0) as u64)
    }

    /// Fold one executed run's actuals. Returns the `plan_suspect` event
    /// exactly when this fold flipped the sticky suspect flag.
    fn fold(
        &mut self,
        config: &SuspectConfig,
        (est_rows, actual_rows, nanos): (u64, u64, u64),
        epoch: u64,
    ) -> Option<TraceEvent> {
        self.runs += 1;
        self.actual_min = self.actual_min.min(actual_rows);
        self.actual_max = self.actual_max.max(actual_rows);
        self.nanos.record(nanos);
        if epoch > self.last_epoch && self.q_runs > 0 {
            // A newer plan is installed: start a fresh Q window for it
            // (keeping the lifetime history folded above).
            self.refresh_estimate(est_rows, epoch);
        }
        if epoch >= self.last_epoch {
            // For a fixed (fp, epoch) the cached plan's estimate is a
            // constant, so "highest epoch wins" is order-independent.
            self.est_rows = est_rows;
            self.last_epoch = epoch;
            self.q_runs += 1;
            let qlog = qlog_micro(est_rows, actual_rows);
            self.qlog_sum_micro += qlog;
            self.qlog_max_micro = self.qlog_max_micro.max(qlog);
        }
        // Stale-epoch stragglers (epoch < last_epoch) fold into the
        // lifetime totals only — the window judges the current plan.
        if self.suspect {
            return None;
        }
        let reason = config.crossed(self)?;
        self.suspect = true;
        Some(TraceEvent::PlanSuspect {
            fp: self.fp,
            epoch: self.last_epoch,
            runs: self.q_runs,
            geomean_q: self.geomean_q().unwrap_or(1.0),
            max_q: self.max_q().unwrap_or(1.0),
            reason: reason.to_string(),
        })
    }
}

/// Suspect-detection thresholds, in the sketch's own integer units so the
/// config stays `Copy + Eq` and detection is exactly reproducible. A
/// sketch becomes suspect when, at `min_runs` or more folded runs, its
/// geomean or max quantized `log₂ Q` reaches the corresponding threshold,
/// or its mean execution latency reaches `mean_latency_nanos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspectConfig {
    /// Runs a sketch must accumulate before it can be flagged.
    pub min_runs: u64,
    /// Geomean threshold in [`QLOG_SCALE`] micro-log₂ units
    /// (2_000_000 ⇔ geomean Q ≥ 4).
    pub geomean_qlog_micro: u64,
    /// Max-single-run threshold in micro-log₂ units
    /// (4_000_000 ⇔ any-run Q ≥ 16).
    pub max_qlog_micro: u64,
    /// Mean execution latency threshold (`u64::MAX` = disabled).
    pub mean_latency_nanos: u64,
}

impl Default for SuspectConfig {
    fn default() -> Self {
        SuspectConfig {
            min_runs: 8,
            geomean_qlog_micro: 2 * QLOG_SCALE,
            max_qlog_micro: 4 * QLOG_SCALE,
            mean_latency_nanos: u64::MAX,
        }
    }
}

impl SuspectConfig {
    /// Which threshold (if any) this sketch's current window crosses.
    fn crossed(&self, s: &QErrorSketch) -> Option<&'static str> {
        if s.q_runs < self.min_runs.max(1) {
            return None;
        }
        if s.qlog_sum_micro / s.q_runs >= self.geomean_qlog_micro {
            return Some("geomean_q");
        }
        if s.qlog_max_micro >= self.max_qlog_micro {
            return Some("max_q");
        }
        if self.mean_latency_nanos != u64::MAX
            && s.mean_nanos().unwrap_or(0) >= self.mean_latency_nanos
        {
            return Some("mean_latency");
        }
        None
    }
}

/// One fingerprint's slot: its hot-query totals, its sketch, and the heal
/// state the serving layer keeps for it.
struct Slot {
    hot: HotQuery,
    /// Folded only by executed requests: `runs == 0` for a fingerprint
    /// that was only ever optimized.
    sketch: QErrorSketch,
    /// The heal schedule, created by the first claim. Boxed because few
    /// slots ever heal.
    heal: Option<Box<HealRecord>>,
    /// A claimed heal is in flight: no second claim, no recycling.
    healing: bool,
}

impl Slot {
    /// A fresh slot whose count starts at `inherited`, the space-saving
    /// overcount bound (0 for a slot never recycled).
    fn new(fp: u64, inherited: u64) -> Slot {
        Slot {
            hot: HotQuery {
                fp,
                count: inherited,
                err: inherited,
                nanos: 0,
                last_epoch: 0,
            },
            sketch: QErrorSketch::new(fp),
            heal: None,
            healing: false,
        }
    }
}

/// The sharded, bounded per-fingerprint table (see the module docs for
/// its recycling rule).
pub struct FeedbackPlane {
    shards: Box<[Mutex<Vec<Slot>>]>,
    mask: usize,
    capacity: usize,
    config: SuspectConfig,
}

impl std::fmt::Debug for FeedbackPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedbackPlane")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl FeedbackPlane {
    /// A plane with `shards` shards (rounded up to a power of two), each
    /// holding at most `capacity` slots.
    pub fn new(shards: usize, capacity: usize, config: SuspectConfig) -> FeedbackPlane {
        let n = shards.max(1).next_power_of_two();
        FeedbackPlane {
            shards: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            mask: n - 1,
            capacity: capacity.max(1),
            config,
        }
    }

    fn shard(&self, fp: u64) -> std::sync::MutexGuard<'_, Vec<Slot>> {
        self.shards[(mix64(fp) as usize) & self.mask]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Record one served request for `fp`: its serve latency and epoch
    /// into the hot-query totals and, when it executed, `run = (est_rows,
    /// actual_rows, nanos)` into the sketch. Returns the slot's suspect
    /// flag after the fold, and the `plan_suspect` event exactly when this
    /// fold flipped it (at most once per resident sketch). A newcomer to a
    /// shard whose every slot has a heal in flight is not recorded:
    /// `(false, None)`.
    pub fn record(
        &self,
        fp: u64,
        epoch: u64,
        serve_nanos: u64,
        run: Option<(u64, u64, u64)>,
    ) -> (bool, Option<TraceEvent>) {
        let mut entries = self.shard(fp);
        let i = match entries.iter().position(|e| e.hot.fp == fp) {
            Some(i) => i,
            None if entries.len() < self.capacity => {
                entries.push(Slot::new(fp, 0));
                entries.len() - 1
            }
            None => {
                let victim = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| !e.healing)
                    .min_by_key(|(_, e)| (e.hot.count, e.hot.fp))
                    .map(|(i, e)| (i, e.hot.count));
                let Some((i, count)) = victim else {
                    return (false, None);
                };
                entries[i] = Slot::new(fp, count);
                i
            }
        };
        let slot = &mut entries[i];
        slot.hot.count += 1;
        slot.hot.nanos += serve_nanos;
        slot.hot.last_epoch = slot.hot.last_epoch.max(epoch);
        let flagged = run.and_then(|run| slot.sketch.fold(&self.config, run, epoch));
        (slot.sketch.suspect, flagged)
    }

    /// The top `k` hot queries by count (ties broken by fingerprint for
    /// determinism). Each fingerprint lives in exactly one shard, so the
    /// merge never double-counts.
    pub fn hot(&self, k: usize) -> Vec<HotQuery> {
        let mut all = self.collect(|e| Some(e.hot));
        all.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.fp.cmp(&b.fp)));
        all.truncate(k);
        all
    }

    /// Every resident sketch with at least one executed run, worst plan
    /// quality first (geomean `log₂ Q` descending, ties by fingerprint
    /// ascending — an integer sort, so the order is exactly reproducible).
    pub fn snapshot(&self) -> Vec<QErrorSketch> {
        let mut all = self.collect(|e| (e.sketch.runs > 0).then(|| e.sketch.clone()));
        all.sort_unstable_by(|a, b| {
            let key = |e: &QErrorSketch| e.qlog_sum_micro.checked_div(e.q_runs).unwrap_or(0);
            key(b).cmp(&key(a)).then(a.fp.cmp(&b.fp))
        });
        all
    }

    /// Every resident heal record, fingerprint ascending (at most one per
    /// slot, so at most `shards × capacity`).
    pub fn heal_records(&self) -> Vec<HealRecord> {
        let mut out = self.collect(|e| e.heal.as_deref().cloned());
        out.sort_unstable_by_key(|r| r.fp);
        out
    }

    /// Claim `fp` for a heal: the suspect check, the single-flight
    /// election and the schedule's admission in one step under its shard
    /// lock. `None` when there is nothing to claim — no resident slot,
    /// not suspect, or a heal already in flight. Otherwise `admit` rules on
    /// the slot's heal record (created on first use): `Ok` marks the heal
    /// in flight and hands back the sketch it was judged on, `Err` leaves
    /// the slot unclaimed.
    pub fn claim<T, E>(
        &self,
        fp: u64,
        admit: impl FnOnce(&mut HealRecord) -> Result<T, E>,
    ) -> Option<Result<(T, QErrorSketch), E>> {
        let mut entries = self.shard(fp);
        let e = entries
            .iter_mut()
            .find(|e| e.hot.fp == fp)
            .filter(|e| e.sketch.suspect && !e.healing)?;
        let rec = e.heal.get_or_insert_with(|| {
            Box::new(HealRecord {
                fp,
                ..HealRecord::default()
            })
        });
        Some(admit(rec).map(|t| {
            e.healing = true;
            (t, e.sketch.clone())
        }))
    }

    /// Resolve `fp`'s claimed heal in one slot update: `resolve` updates
    /// its record, the claim is released, and `refresh: Some((est_rows,
    /// epoch))` restarts the sketch's Q window and clears its suspect flag
    /// (a new plan was installed, or the verdict was refuted). `None` when
    /// `fp` holds no claim.
    pub fn resolve<R>(
        &self,
        fp: u64,
        refresh: Option<(u64, u64)>,
        resolve: impl FnOnce(&mut HealRecord) -> R,
    ) -> Option<R> {
        let mut entries = self.shard(fp);
        let e = entries
            .iter_mut()
            .find(|e| e.hot.fp == fp)
            .filter(|e| e.healing)?;
        e.healing = false;
        if let Some((est_rows, epoch)) = refresh {
            e.sketch.refresh_estimate(est_rows, epoch);
        }
        e.heal.as_deref_mut().map(resolve)
    }

    /// `pick` over every resident slot, shard by shard.
    fn collect<T>(&self, pick: impl Fn(&Slot) -> Option<T>) -> Vec<T> {
        self.shards
            .iter()
            .flat_map(|s| {
                let entries = s.lock().unwrap_or_else(|p| p.into_inner());
                entries.iter().filter_map(&pick).collect::<Vec<_>>()
            })
            .collect()
    }

    /// Resident slots across all shards (≤ shards × capacity).
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

    /// The fields of the `plan_suspect` event a fold returned.
    #[derive(Debug)]
    struct Verdict {
        fp: u64,
        epoch: u64,
        runs: u64,
        geomean_q: f64,
        max_q: f64,
        reason: String,
    }

    /// Record one executed request for `fp` (serve latency 0): the verdict
    /// when this run flipped the suspect flag.
    fn run(
        plane: &FeedbackPlane,
        fp: u64,
        est: u64,
        actual: u64,
        nanos: u64,
        epoch: u64,
    ) -> Option<Verdict> {
        match plane.record(fp, epoch, 0, Some((est, actual, nanos))).1? {
            TraceEvent::PlanSuspect {
                fp,
                epoch,
                runs,
                geomean_q,
                max_q,
                reason,
            } => Some(Verdict {
                fp,
                epoch,
                runs,
                geomean_q,
                max_q,
                reason,
            }),
            other => panic!("not a plan_suspect event: {other:?}"),
        }
    }

    /// The suspect sketches, as a snapshot reads them.
    fn suspects(plane: &FeedbackPlane) -> Vec<QErrorSketch> {
        plane.snapshot().into_iter().filter(|s| s.suspect).collect()
    }

    fn is_suspect(plane: &FeedbackPlane, fp: u64) -> bool {
        suspects(plane).iter().any(|s| s.fp == fp)
    }

    #[test]
    fn exact_counts_when_under_capacity() {
        let t = FeedbackPlane::new(4, 8, SuspectConfig::default());
        for (fp, n) in [(7u64, 5u64), (9, 3), (11, 1)] {
            for i in 0..n {
                t.record(fp, i, 100 + i, None);
            }
        }
        let snap = t.hot(10);
        assert_eq!(snap.len(), 3);
        assert_eq!((snap[0].fp, snap[0].count, snap[0].err), (7, 5, 0));
        assert_eq!(snap[0].nanos, 100 + 101 + 102 + 103 + 104);
        assert_eq!(snap[0].last_epoch, 4);
        assert_eq!((snap[1].fp, snap[1].count), (9, 3));
        assert_eq!((snap[2].fp, snap[2].count), (11, 1));
    }

    #[test]
    fn snapshot_truncates_to_k_deterministically() {
        let t = FeedbackPlane::new(1, 16, SuspectConfig::default());
        for fp in 0..10u64 {
            t.record(fp, 0, 1, None);
            if fp < 5 {
                t.record(fp, 0, 1, None);
            }
        }
        let snap = t.hot(5);
        assert_eq!(snap.len(), 5);
        // All five have count 2; ties break by ascending fingerprint.
        assert_eq!(
            snap.iter().map(|e| e.fp).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn memory_stays_bounded_and_heavy_hitter_survives() {
        let t = FeedbackPlane::new(1, 4, SuspectConfig::default());
        // One heavy hitter among a stream of one-off fingerprints.
        for i in 0..1_000u64 {
            t.record(42, 0, 10, None);
            t.record(1_000_000 + i, 0, 10, None);
        }
        assert!(t.len() <= 4, "capacity must bound memory");
        let snap = t.hot(4);
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
        let t = std::sync::Arc::new(FeedbackPlane::new(8, 8, SuspectConfig::default()));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        t.record(i % 6, 1, 2, None);
                    }
                });
            }
        });
        let snap = t.hot(6);
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

    #[test]
    fn a_recycled_slot_inherits_the_count_but_not_the_history() {
        let plane = flagged(2, 1);
        assert!(claim(&plane, 1).is_some());
        plane.resolve(1, None, |rec| rec.pins += 1);
        for _ in 0..3 {
            plane.record(1, 1, 10, Some((100, 800, 1_000)));
        }
        for _ in 0..5 {
            plane.record(2, 1, 10, None);
        }
        // Fingerprint 1 (count 4) is the least-count slot: the newcomer
        // takes it with count 4 + 1 and overcount bound 4.
        let (suspect, verdict) = plane.record(3, 2, 7, Some((10, 10, 100)));
        assert_eq!((suspect, verdict), (false, None));
        let hot = plane.hot(2);
        let newcomer = hot.iter().find(|e| e.fp == 3).expect("resident");
        assert_eq!(
            (
                newcomer.count,
                newcomer.err,
                newcomer.nanos,
                newcomer.last_epoch
            ),
            (5, 4, 7, 2)
        );
        assert!(hot.iter().all(|e| e.fp != 1), "fingerprint 1 was evicted");
        // Its sketch holds only its own run, and no heal record came along.
        let sketch = plane.snapshot().into_iter().find(|s| s.fp == 3).unwrap();
        assert_eq!((sketch.runs, sketch.q_runs, sketch.suspect), (1, 1, false));
        assert_eq!((sketch.actual_min, sketch.actual_max), (10, 10));
        assert!(plane.heal_records().is_empty());
    }

    #[test]
    fn qlog_micro_is_symmetric_and_zero_guarded() {
        assert_eq!(qlog_micro(100, 100), 0);
        assert_eq!(qlog_micro(1, 1), 0);
        // Q = 4 either way round: exactly two doublings.
        assert_eq!(qlog_micro(400, 100), 2 * QLOG_SCALE);
        assert_eq!(qlog_micro(100, 400), 2 * QLOG_SCALE);
        // Zero rows clamp to one: est 8 vs actual 0 is Q = 8.
        assert_eq!(qlog_micro(8, 0), 3 * QLOG_SCALE);
        assert_eq!(qlog_micro(0, 0), 0);
        // Round-trip through the linear form.
        assert!((qlog_to_q(2 * QLOG_SCALE) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sketch_streams_geomean_and_max() {
        let plane = FeedbackPlane::new(1, 8, SuspectConfig::default());
        // Qs of 2, 8, 2: geomean = (2·8·2)^(1/3) = 32^(1/3) ≈ 3.1748.
        for (est, actual) in [(100u64, 200u64), (100, 800), (200, 100)] {
            run(&plane, 7, est, actual, 1_000, 1);
        }
        let snap = plane.snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.runs, 3);
        assert_eq!(s.qlog_sum_micro, (1 + 3 + 1) * QLOG_SCALE);
        assert_eq!(s.qlog_max_micro, 3 * QLOG_SCALE);
        let g = s.geomean_q().unwrap();
        assert!((g - 32f64.powf(1.0 / 3.0)).abs() < 0.01, "{g}");
        assert_eq!(s.max_q(), Some(8.0));
        assert_eq!((s.actual_min, s.actual_max), (100, 800));
        assert_eq!(s.nanos.count(), 3);
        assert!(!s.suspect);
    }

    #[test]
    fn suspect_flag_trips_once_at_the_threshold() {
        let config = SuspectConfig {
            min_runs: 4,
            geomean_qlog_micro: 2 * QLOG_SCALE, // geomean Q >= 4
            ..SuspectConfig::default()
        };
        let plane = FeedbackPlane::new(2, 8, config);
        // Three runs at Q = 8: under min_runs, never flagged.
        for _ in 0..3 {
            assert!(run(&plane, 9, 100, 800, 500, 2).is_none());
        }
        // Fourth run crosses: flagged exactly once, with the verdict.
        let v = run(&plane, 9, 100, 800, 500, 2).expect("flagged");
        assert_eq!((v.fp, v.runs, v.reason.as_str()), (9, 4, "geomean_q"));
        assert_eq!(v.epoch, 2);
        assert!((v.geomean_q - 8.0).abs() < 1e-6);
        // Further runs keep the flag but never re-report.
        assert!(run(&plane, 9, 100, 800, 500, 2).is_none());
        assert_eq!(suspects(&plane).len(), 1);
        assert!(suspects(&plane)[0].suspect);
        // An accurate fingerprint never flags.
        for _ in 0..10 {
            assert!(run(&plane, 11, 100, 100, 500, 2).is_none());
        }
        assert_eq!(suspects(&plane).len(), 1);
    }

    #[test]
    fn max_q_threshold_catches_single_bad_runs() {
        let config = SuspectConfig {
            min_runs: 2,
            geomean_qlog_micro: u64::MAX,
            max_qlog_micro: 4 * QLOG_SCALE, // any-run Q >= 16
            mean_latency_nanos: u64::MAX,
        };
        let plane = FeedbackPlane::new(1, 4, config);
        assert!(run(&plane, 5, 10, 10, 100, 0).is_none());
        let v = run(&plane, 5, 10, 1_000, 100, 0).expect("flagged");
        assert_eq!(v.reason, "max_q");
        assert!((v.max_q - 100.0).abs() < 0.5);
    }

    #[test]
    fn latency_threshold_flags_slow_plans() {
        let config = SuspectConfig {
            min_runs: 2,
            geomean_qlog_micro: u64::MAX,
            max_qlog_micro: u64::MAX,
            mean_latency_nanos: 10_000,
        };
        let plane = FeedbackPlane::new(1, 4, config);
        assert!(run(&plane, 5, 10, 10, 9_000, 0).is_none());
        assert!(run(&plane, 5, 10, 10, 9_000, 0).is_none());
        let v = run(&plane, 5, 10, 10, 50_000, 0).expect("flagged");
        assert_eq!(v.reason, "mean_latency");
    }

    #[test]
    fn memory_stays_bounded_and_recycling_resets_history() {
        let plane = FeedbackPlane::new(1, 4, SuspectConfig::default());
        for fp in 0..100u64 {
            run(&plane, fp, 10, 10, 100, 0);
        }
        assert!(plane.len() <= 4, "capacity must bound memory");
        // A heavy fingerprint folded repeatedly survives recycling.
        for _ in 0..50 {
            run(&plane, 1_000, 10, 10, 100, 0);
        }
        for fp in 200..260u64 {
            run(&plane, fp, 10, 10, 100, 0);
        }
        let snap = plane.snapshot();
        let heavy = snap.iter().find(|e| e.fp == 1_000).expect("survives");
        assert_eq!(heavy.runs, 50);
        // Recycled slots restart from run 1, no inherited Q history.
        assert!(snap.iter().all(|e| e.qlog_sum_micro == 0));
    }

    #[test]
    fn refresh_unsticks_suspect_and_preserves_lifetime_history() {
        let config = SuspectConfig {
            min_runs: 2,
            geomean_qlog_micro: 2 * QLOG_SCALE,
            ..SuspectConfig::default()
        };
        let plane = FeedbackPlane::new(1, 4, config);
        run(&plane, 7, 100, 800, 1_000, 1);
        let v = run(&plane, 7, 100, 800, 1_000, 1).expect("flagged");
        assert_eq!(v.runs, 2);
        assert!(is_suspect(&plane, 7));
        // A heal's swap refreshes the sketch: suspect clears, the Q window
        // restarts, lifetime runs/latency/actual extremes survive.
        assert!(claim(&plane, 7).is_some());
        assert_eq!(plane.resolve(7, Some((800, 1)), |_| ()), Some(()));
        assert!(!is_suspect(&plane, 7));
        let s = &plane.snapshot()[0];
        assert_eq!((s.runs, s.q_runs, s.qlog_sum_micro), (2, 0, 0));
        assert_eq!(s.est_rows, 800);
        assert_eq!((s.actual_min, s.actual_max), (800, 800));
        assert_eq!(s.nanos.count(), 2);
        // The refreshed estimate is accurate: no re-flag.
        for _ in 0..6 {
            assert!(run(&plane, 7, 800, 800, 1_000, 1).is_none());
        }
        assert!(!is_suspect(&plane, 7));
        // A fingerprint without a claim is a no-op.
        assert_eq!(plane.resolve(999, Some((10, 1)), |_| ()), None);
    }

    /// Claim `fp` with an admission that always proceeds.
    fn claim(plane: &FeedbackPlane, fp: u64) -> Option<QErrorSketch> {
        match plane.claim(fp, |_| Ok::<(), ()>(()))? {
            Ok(((), sketch)) => Some(sketch),
            Err(()) => None,
        }
    }

    /// A plane of one shard with `capacity` slots that flags on the first
    /// Q = 8 run, and `fp` flagged in it.
    fn flagged(capacity: usize, fp: u64) -> FeedbackPlane {
        let config = SuspectConfig {
            min_runs: 1,
            ..SuspectConfig::default()
        };
        let plane = FeedbackPlane::new(1, capacity, config);
        assert!(run(&plane, fp, 100, 800, 1_000, 1).is_some());
        plane
    }

    #[test]
    fn claimed_slot_refuses_a_second_claim_until_resolved() {
        let plane = flagged(4, 7);
        run(&plane, 8, 100, 100, 1_000, 1);
        assert!(claim(&plane, 8).is_none(), "not suspect: nothing to claim");
        assert!(claim(&plane, 9).is_none(), "not resident: nothing to claim");
        // A refused admission counts on the record but claims nothing.
        let refused = plane.claim(7, |rec| {
            rec.backoff_hits += 1;
            Err::<(), _>("backoff")
        });
        assert_eq!(refused, Some(Err("backoff")));
        let sketch = claim(&plane, 7).expect("suspect and unclaimed");
        assert_eq!((sketch.fp, sketch.est_rows, sketch.suspect), (7, 100, true));
        assert!(claim(&plane, 7).is_none(), "a heal is in flight");
        run(&plane, 10, 100, 800, 1_000, 1);
        assert!(
            claim(&plane, 10).is_some(),
            "other fingerprints are independent"
        );
        // Resolving without a refresh releases the claim; the slot is still
        // suspect, so the next claim succeeds.
        assert_eq!(plane.resolve(7, None, |rec| rec.pins += 1), Some(()));
        assert!(claim(&plane, 7).is_some());
        let recs = plane.heal_records();
        assert_eq!(recs.iter().map(|r| r.fp).collect::<Vec<_>>(), [7, 10]);
        assert_eq!((recs[0].pins, recs[0].backoff_hits), (1, 1));
    }

    #[test]
    fn a_slot_with_a_heal_in_flight_is_never_recycled() {
        let plane = flagged(2, 1);
        assert!(claim(&plane, 1).is_some());
        // Fingerprint 1 holds the minimum count, but its heal is in flight:
        // every newcomer recycles the other slot instead.
        for _ in 0..5 {
            run(&plane, 2, 10, 10, 100, 1);
        }
        for fp in 100..110u64 {
            run(&plane, fp, 10, 10, 100, 1);
            let hot = plane.hot(2);
            assert_eq!(hot.last().map(|e| (e.fp, e.count)), Some((1, 1)));
            assert!(plane.snapshot().iter().any(|e| e.fp == 1));
        }
        assert_eq!(plane.resolve(1, None, |_| ()), Some(()));
        // Released, it is the least-count victim again.
        run(&plane, 200, 10, 10, 100, 1);
        assert!(plane.hot(2).iter().all(|e| e.fp != 1));
        assert!(plane.snapshot().iter().all(|e| e.fp != 1));
        // A shard whose every slot is in flight records no newcomer.
        let full = flagged(1, 3);
        assert!(claim(&full, 3).is_some());
        assert_eq!(full.record(4, 1, 10, Some((10, 10, 100))), (false, None));
        assert_eq!(full.hot(2).iter().map(|e| e.fp).collect::<Vec<_>>(), [3]);
        assert_eq!(full.snapshot()[0].fp, 3);
    }

    #[test]
    fn a_recycled_slot_drops_its_record() {
        let plane = flagged(1, 5);
        assert!(claim(&plane, 5).is_some());
        plane.resolve(5, Some((800, 1)), |rec| rec.swaps += 1);
        assert_eq!(plane.heal_records().len(), 1);
        run(&plane, 6, 10, 10, 100, 1);
        assert!(
            plane.heal_records().is_empty(),
            "the record left with its sketch"
        );
        // The fingerprint returns with a fresh sketch and no heal history.
        run(&plane, 5, 100, 800, 1_000, 1);
        assert_eq!(plane.snapshot()[0].runs, 1);
        assert!(plane.heal_records().is_empty());
    }

    #[test]
    fn newer_epoch_restarts_the_window_in_record() {
        let config = SuspectConfig {
            min_runs: 2,
            geomean_qlog_micro: 2 * QLOG_SCALE,
            ..SuspectConfig::default()
        };
        let plane = FeedbackPlane::new(1, 4, config);
        run(&plane, 7, 100, 800, 1_000, 1);
        assert!(run(&plane, 7, 100, 800, 1_000, 1).is_some());
        // Stats DDL bumped the epoch and a re-planned entry serves with a
        // corrected estimate: the first new-epoch fold resets the window.
        assert!(run(&plane, 7, 800, 800, 1_000, 2).is_none());
        let s = &plane.snapshot()[0];
        assert_eq!((s.runs, s.q_runs), (3, 1));
        assert_eq!((s.qlog_sum_micro, s.last_epoch, s.est_rows), (0, 2, 800));
        assert!(!s.suspect);
        assert_eq!(s.nanos.count(), 3, "latency history survives the epoch");
        // A stale-epoch straggler folds into lifetime totals only.
        run(&plane, 7, 100, 800, 1_000, 1);
        let s = &plane.snapshot()[0];
        assert_eq!((s.runs, s.q_runs, s.qlog_sum_micro), (4, 1, 0));
    }

    #[test]
    fn concurrent_fold_bit_matches_serial_replay() {
        let plane = std::sync::Arc::new(FeedbackPlane::new(4, 16, SuspectConfig::default()));
        let workload = |tid: u64| -> Vec<(u64, u64, u64, u64)> {
            (0..400)
                .map(|i| {
                    let fp = 0xAB + (i + tid) % 5;
                    let actual = 10 + ((i * 13 + tid * 7) % 90);
                    let nanos = 1 + ((i * 37 + tid * 101) % 10_000);
                    (fp, 20u64, actual, nanos)
                })
                .collect()
        };
        std::thread::scope(|scope| {
            for tid in 0..8u64 {
                let plane = plane.clone();
                scope.spawn(move || {
                    for (fp, est, actual, nanos) in workload(tid) {
                        run(&plane, fp, est, actual, nanos, 3);
                    }
                });
            }
        });
        let serial = FeedbackPlane::new(4, 16, SuspectConfig::default());
        for tid in 0..8u64 {
            for (fp, est, actual, nanos) in workload(tid) {
                run(&serial, fp, est, actual, nanos, 3);
            }
        }
        assert_eq!(plane.snapshot(), serial.snapshot());
    }
}

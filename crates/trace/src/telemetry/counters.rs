//! The striped plane behind [`crate::Telemetry`] and the counter catalog
//! it folds into [`Counters`].
//!
//! Each thread writes only its cache-line-padded stripe (assigned
//! round-robin; threads past the stripe count share one), which holds
//! every [`Metric`] slot, every [`Phase`]'s nanos and count, and one log₂
//! histogram per [`LatencyPath`] plus the tail sampler's span totals. A
//! counter bump is one relaxed atomic, a phase two, a histogram record
//! four; readers fold all stripes on demand.

use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::hist::{Histogram, BUCKETS};
use crate::telemetry::phases::Phase;
use crate::telemetry::LatencyPath;

catalog! {
    /// The fixed serve-path counter catalog. Each name is the counter's JSON
    /// key and `counter` trace-event name, and, as `starqo_<name>_total`,
    /// its Prometheus series. Names are stable: the obs dashboards, the
    /// doctor and the bench gate key on them.
    pub enum Metric {
        /// Requests entering `optimize_prepared`.
        Requests = "serve_requests",
        /// Served from a resident cache entry.
        CacheHit = "serve_cache_hit",
        /// Shared a concurrent leader's in-flight optimization.
        CacheCoalesced = "serve_cache_coalesced",
        /// Paid for a cold optimization.
        CacheMiss = "serve_cache_miss",
        /// Entries evicted for capacity/bytes.
        CacheEvict = "serve_cache_evict",
        /// Entries dropped for a stale catalog epoch.
        CacheInvalidate = "serve_cache_invalidate",
        /// Turned away by admission control.
        Rejected = "serve_rejected",
        /// Plans degraded by budget exhaustion.
        Degraded = "serve_degraded",
        /// Optimizer errors surfaced to callers.
        Errors = "serve_errors",
        /// Plan executions completed through the service.
        Executions = "serve_executions",
        /// Result rows produced by those executions.
        ExecRows = "serve_exec_rows",
        /// Recorded requests whose fingerprint the head sampler admitted: a
        /// detailed span tree.
        TraceSampled = "serve_trace_sampled",
        /// Recorded requests the head sampler left undetailed (spans on,
        /// fingerprint not in the sample).
        TraceUnsampled = "serve_trace_unsampled",
        /// STAR references made by cold optimizations (engine work).
        StarRefs = "opt_star_refs",
        /// Memo hits inside those cold optimizations.
        MemoHits = "opt_memo_hits",
        /// Plans built by cold optimizations.
        PlansBuilt = "opt_plans_built",
        /// Glue invocations inside cold optimizations.
        GlueRefs = "opt_glue_refs",
        /// Wall nanos spent in cold optimization.
        OptNanos = "serve_opt_nanos",
        /// Cold-optimization nanos avoided by warm serves.
        SavedNanos = "serve_saved_nanos",
        /// Wall nanos spent executing plans.
        ExecNanos = "serve_exec_nanos",
        /// Rows crossing pipeline breakers (temp materializations plus the
        /// root pipeline) during execution — the executor's compact per-run
        /// actuals, counted even when tracing is suppressed.
        PipelineRows = "serve_pipeline_rows",
        /// Per-run actuals folded into the feedback plane's Q-error sketches.
        FeedbackRuns = "serve_feedback_runs",
        /// Fingerprints newly flagged suspect by the feedback plane (each
        /// fingerprint is flagged at most once; the flag is sticky).
        SuspectFlagged = "serve_suspects_flagged",
        /// Span trees the tail sampler retained into the span store.
        SpansKept = "serve_spans_kept",
        /// Span trees recorded but dropped by the tail sampler.
        SpansDropped = "serve_spans_dropped",
        /// Suspect-triggered re-optimizations started (single-flight leaders).
        ReoptAttempts = "serve_reopt_attempts",
        /// Re-optimizations that failed before the stability guard could rule
        /// (panic contained, injected/typed error, budget degradation).
        ReoptFailures = "serve_reopt_failures",
        /// Heal triggers suppressed because the fingerprint was in backoff.
        ReoptBackoff = "serve_reopt_backoff",
        /// Fingerprints whose heal retries hit the cap and were pinned until
        /// the next epoch.
        ReoptRetryCapped = "serve_reopt_retry_capped",
        /// Candidates that passed the stability guard and replaced the
        /// incumbent plan in the cache.
        PlanSwap = "serve_plan_swap",
        /// Re-optimizations resolved by keeping the incumbent (typed reason:
        /// verify mismatch, regression, epoch move, failure).
        PlanPinned = "serve_plan_pinned",
        /// Columnar batches completed by the vectorized executor.
        VexecBatches = "vexec_batches",
        /// Morsels enqueued to the vectorized executor's worker pool. Paired
        /// with [`Metric::VexecMorsels`]: `queued - completed` is the live
        /// worker-pool queue depth (both counters are monotonic).
        VexecQueued = "vexec_morsels_queued",
        /// Morsels completed by the vectorized executor's worker pool.
        VexecMorsels = "vexec_morsels",
        /// Rows leaving vectorized pipeline chains at exchanges.
        VexecRows = "vexec_rows",
    }
}

/// Every counter of the catalog, folded across stripes: one value per
/// [`Metric`], indexed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters([u64; Metric::COUNT]);

impl Default for Counters {
    fn default() -> Self {
        Counters([0; Metric::COUNT])
    }
}

impl Index<Metric> for Counters {
    type Output = u64;

    fn index(&self, m: Metric) -> &u64 {
        &self.0[m]
    }
}

impl IndexMut<Metric> for Counters {
    fn index_mut(&mut self, m: Metric) -> &mut u64 {
        &mut self.0[m]
    }
}

impl Counters {
    /// `(metric, value)` in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL.into_iter().zip(self.0)
    }

    /// Warm serves (resident hits plus coalesced waits) over all serves
    /// that produced a plan.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self[Metric::CacheHit] + self[Metric::CacheCoalesced];
        let served = hits + self[Metric::CacheMiss];
        if served == 0 {
            0.0
        } else {
            hits as f64 / served as f64
        }
    }
}

/// One log₂ histogram's slots: the bucketing of [`Histogram`], recorded
/// through relaxed atomics.
struct HistSlots {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistSlots {
    fn load(&self) -> Histogram {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (sum, min, max) = (load(&self.sum), load(&self.min), load(&self.max));
        Histogram::from_raw(self.buckets.each_ref().map(load), sum.into(), min, max)
    }
}

fn zeroed<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// The histogram slot of the tail sampler's retired root-span totals,
/// after the one per [`LatencyPath`].
pub(crate) const SPAN_TOTALS: usize = LatencyPath::COUNT;

/// One thread's stripe: every counter, every phase's `[nanos, count]`,
/// and the histograms. 128-byte alignment keeps adjacent stripes off each
/// other's lines on every mainstream core (including 128-byte-prefetch x86
/// and Apple silicon).
#[repr(align(128))]
struct Stripe {
    counters: [AtomicU64; Metric::COUNT],
    phases: [[AtomicU64; 2]; Phase::COUNT],
    hists: [HistSlots; SPAN_TOTALS + 1],
}

/// Monotonically assigns each OS thread a stripe index once, round-robin.
/// Cheaper and more stable than hashing thread ids, and it spreads the
/// first N threads across N distinct stripes by construction.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
}

/// Stripes per plane: one per available core, rounded up to a power of
/// two and clamped to `[1, 64]`.
fn stripe_count() -> usize {
    std::thread::available_parallelism()
        .map_or(8, |n| n.get())
        .next_power_of_two()
        .clamp(1, 64)
}

/// The striped plane behind [`crate::Telemetry`]: a writer makes relaxed
/// atomic ops on its own thread's stripe only — no locks, no CAS loops, no
/// false sharing — and a reader folds the stripes on demand. A fold
/// concurrent with writers reads each slot atomically, so it may split one
/// histogram observation between its bucket and its sum, min and max;
/// totals are exact at quiescence and monotone in between.
pub(crate) struct StripedPlane {
    stripes: Box<[Stripe]>,
}

impl std::fmt::Debug for StripedPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StripedPlane({} stripes)", self.stripes.len())
    }
}

impl StripedPlane {
    pub(crate) fn new() -> StripedPlane {
        let stripe = |_| Stripe {
            counters: zeroed(),
            phases: std::array::from_fn(|_| zeroed()),
            hists: std::array::from_fn(|_| HistSlots {
                buckets: zeroed(),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        };
        StripedPlane {
            stripes: (0..stripe_count()).map(stripe).collect(),
        }
    }

    #[inline]
    fn mine(&self) -> &Stripe {
        &self.stripes[THREAD_STRIPE.with(|s| *s) & (self.stripes.len() - 1)]
    }

    /// Bump a metric: one relaxed `fetch_add`.
    #[inline]
    pub(crate) fn add(&self, m: Metric, delta: u64) {
        self.mine().counters[m].fetch_add(delta, Ordering::Relaxed);
    }

    /// Attribute `nanos` to one phase occurrence: two relaxed `fetch_add`s.
    #[inline]
    pub(crate) fn add_phase(&self, phase: Phase, nanos: u64) {
        let [n, count] = &self.mine().phases[phase];
        n.fetch_add(nanos, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one observation into histogram `h` (a [`LatencyPath`] or
    /// [`SPAN_TOTALS`]): four relaxed atomic ops.
    #[inline]
    pub(crate) fn record(&self, h: usize, v: u64) {
        let s = &self.mine().hists[h];
        s.buckets[Histogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.min.fetch_min(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold every counter.
    pub(crate) fn counters(&self) -> Counters {
        Counters(std::array::from_fn(|m| {
            let slots = self.stripes.iter().map(|s| &s.counters[m]);
            slots.map(|a| a.load(Ordering::Relaxed)).sum()
        }))
    }

    /// Fold the span-totals histogram.
    pub(crate) fn span_totals(&self) -> Histogram {
        let mut out = Histogram::new();
        for s in self.stripes.iter() {
            out.merge(&s.hists[SPAN_TOTALS].load());
        }
        out
    }

    /// Fold the counters, the phases' `(nanos, count)` and one histogram
    /// per [`LatencyPath`], in one pass over the stripes.
    pub(crate) fn fold(&self) -> Fold {
        let mut fold = Fold {
            counters: Counters::default(),
            phases: [(0, 0); Phase::COUNT],
            latency: Default::default(),
        };
        for s in self.stripes.iter() {
            for (o, slot) in fold.counters.0.iter_mut().zip(&s.counters) {
                *o += slot.load(Ordering::Relaxed);
            }
            for (o, [nanos, count]) in fold.phases.iter_mut().zip(&s.phases) {
                o.0 += nanos.load(Ordering::Relaxed);
                o.1 += count.load(Ordering::Relaxed);
            }
            for (h, slots) in fold.latency.iter_mut().zip(&s.hists) {
                h.merge(&slots.load());
            }
        }
        fold
    }
}

/// Everything [`StripedPlane::fold`] reads but the span totals.
pub(crate) struct Fold {
    pub counters: Counters,
    pub phases: [(u64, u64); Phase::COUNT],
    pub latency: [Histogram; LatencyPath::COUNT],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_ordered_like_all() {
        let names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Metric::COUNT, "duplicate metric name");
        assert_eq!(names[0], "serve_requests");
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "ALL order must match discriminants");
            assert_eq!(Metric::from_name(m.name()), Some(*m));
        }
        assert_eq!(Metric::from_name("vexec_fallbacks"), None);
    }

    #[test]
    fn stripe_count_rounds_and_clamps() {
        let n = stripe_count();
        let cores = std::thread::available_parallelism().map_or(8, |c| c.get());
        assert!(n.is_power_of_two() && n <= 64, "{n}");
        assert!(n >= cores.min(64), "{n} stripes for {cores} cores");
        assert_eq!(std::mem::size_of::<Stripe>(), 3_200, "docs/TELEMETRY.md");
    }

    /// Four threads bump counters and phases and record into every
    /// histogram, the span totals included: the fold equals a serial replay
    /// of the same records exactly, and a fresh plane folds to the empty one.
    #[test]
    fn adds_fold_across_threads() {
        // Record `i` of thread `t`, cycling through every catalog entry and
        // histogram `h`, with values from the zero bucket to 2^40 (the least
        // is `h`, so each histogram's min differs).
        let op = |t: u64, i: u64| {
            let (n, h) = (i as usize, i as usize % (SPAN_TOTALS + 1));
            (
                Metric::ALL[(t as usize + n) % Metric::COUNT],
                i % 5,
                Phase::ALL[n % Phase::COUNT],
                t * 100 + i,
                h,
                [t * 7 + h as u64, t * 1_000 + 8 + i % 7, 900, 1 << 40][n % 4],
            )
        };
        let plane = StripedPlane::new();
        let mut counters = Counters::default();
        let mut phases = [(0, 0); Phase::COUNT];
        let mut hists: [Histogram; SPAN_TOTALS + 1] = Default::default();
        let check = |counters: &Counters, phases, hists: &[Histogram; SPAN_TOTALS + 1]| {
            let fold = plane.fold();
            assert_eq!(fold.counters, *counters);
            assert_eq!(plane.counters(), *counters);
            assert_eq!(fold.phases, phases);
            assert_eq!(fold.latency[..], hists[..SPAN_TOTALS]);
            assert_eq!(plane.span_totals(), hists[SPAN_TOTALS]);
        };
        check(&counters, phases, &hists);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let plane = &plane;
                scope.spawn(move || {
                    for i in 0..2_000 {
                        let (m, delta, p, nanos, h, v) = op(t, i);
                        plane.add(m, delta);
                        plane.add_phase(p, nanos);
                        plane.record(h, v);
                    }
                });
            }
        });
        for t in 0..4 {
            for i in 0..2_000 {
                let (m, delta, p, nanos, h, v) = op(t, i);
                counters[m] += delta;
                phases[p].0 += nanos;
                phases[p].1 += 1;
                hists[h].record(v);
            }
        }
        assert!(hists.iter().all(|h| h.count() == 1_600));
        check(&counters, phases, &hists);
    }
}

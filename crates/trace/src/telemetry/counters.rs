//! The lock-free serve-path counter plane: a fixed catalog of metrics,
//! each striped across cache-line-padded per-thread slots.
//!
//! Writers touch exactly one relaxed atomic (their stripe's slot for the
//! metric) — no locks, no CAS loops, no false sharing between stripes.
//! Readers fold all stripes on demand; a fold concurrent with writers sees
//! each slot atomically (totals may lag in-flight increments by design —
//! monotonic counters make that harmless).

use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
        /// Requests whose fingerprint the head-based sampler admitted to the
        /// attached tracer.
        TraceSampled = "serve_trace_sampled",
        /// Requests the sampler suppressed (tracer attached, fingerprint not
        /// in the sample).
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

/// One cache-line-padded stripe of counter slots. 128-byte alignment keeps
/// adjacent stripes off each other's lines on every mainstream core
/// (including 128-byte-prefetch x86 and Apple silicon).
#[repr(align(128))]
struct Stripe {
    slots: [AtomicU64; Metric::COUNT],
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Monotonically assigns each OS thread a stripe index once, round-robin.
/// Cheaper and more stable than hashing thread ids, and it spreads the
/// first N threads across N distinct stripes by construction.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
}

/// This thread's stripe assignment (shared by every plane in the process).
pub(crate) fn thread_stripe() -> usize {
    THREAD_STRIPE.with(|s| *s)
}

/// Round up to a power of two, clamped to `[1, 64]`.
pub(crate) fn stripe_count(requested: usize) -> usize {
    let auto = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
    } else {
        requested
    };
    auto.next_power_of_two().clamp(1, 64)
}

/// The striped counter plane: `stripes × Metric::COUNT` relaxed atomics.
pub struct CounterPlane {
    stripes: Box<[Stripe]>,
    mask: usize,
}

impl std::fmt::Debug for CounterPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterPlane")
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl CounterPlane {
    /// A plane with `stripes` stripes (0 = one per available core, rounded
    /// up to a power of two).
    pub fn new(stripes: usize) -> CounterPlane {
        let n = stripe_count(stripes);
        CounterPlane {
            stripes: (0..n).map(|_| Stripe::new()).collect(),
            mask: n - 1,
        }
    }

    /// Bump a metric: one relaxed `fetch_add` on this thread's stripe.
    #[inline]
    pub fn add(&self, m: Metric, delta: u64) {
        self.stripes[thread_stripe() & self.mask].slots[m as usize]
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Fold one metric across stripes.
    pub fn get(&self, m: Metric) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.slots[m as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Fold every metric across stripes.
    pub fn fold(&self) -> Counters {
        let mut out = Counters::default();
        for s in self.stripes.iter() {
            for (o, slot) in out.0.iter_mut().zip(s.slots.iter()) {
                *o += slot.load(Ordering::Relaxed);
            }
        }
        out
    }
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
        assert_eq!(stripe_count(1), 1);
        assert_eq!(stripe_count(3), 4);
        assert_eq!(stripe_count(64), 64);
        assert_eq!(stripe_count(1000), 64);
        assert!(stripe_count(0).is_power_of_two());
    }

    #[test]
    fn adds_fold_across_threads() {
        let plane = std::sync::Arc::new(CounterPlane::new(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let plane = plane.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        plane.add(Metric::Requests, 1);
                        plane.add(Metric::ExecRows, 3);
                    }
                });
            }
        });
        assert_eq!(plane.get(Metric::Requests), 8_000);
        assert_eq!(plane.get(Metric::ExecRows), 24_000);
        let fold = plane.fold();
        assert_eq!(fold[Metric::Requests], 8_000);
        assert_eq!(fold[Metric::CacheMiss], 0);
    }
}

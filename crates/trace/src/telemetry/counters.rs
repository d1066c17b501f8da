//! The lock-free serve-path counter plane: a fixed catalog of metrics,
//! each striped across cache-line-padded per-thread slots.
//!
//! Writers touch exactly one relaxed atomic (their stripe's slot for the
//! metric) — no locks, no CAS loops, no false sharing between stripes.
//! Readers fold all stripes on demand; a fold concurrent with writers sees
//! each slot atomically (totals may lag in-flight increments by design —
//! monotonic counters make that harmless).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The fixed serve-path metric catalog. Names are stable: they match the
/// `serve_*` counters PR 5's service emitted (the obs `profile` section and
/// the bench gate key on them) plus the optimizer/executor work counters
/// the telemetry plane folds in live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Metric {
    /// Requests entering `optimize_prepared`.
    Requests,
    /// Served from a resident cache entry.
    CacheHit,
    /// Shared a concurrent leader's in-flight optimization.
    CacheCoalesced,
    /// Paid for a cold optimization.
    CacheMiss,
    /// Entries evicted for capacity/bytes.
    CacheEvict,
    /// Entries dropped for a stale catalog epoch.
    CacheInvalidate,
    /// Turned away by admission control.
    Rejected,
    /// Plans degraded by budget exhaustion.
    Degraded,
    /// Optimizer errors surfaced to callers.
    Errors,
    /// Plan executions completed through the service.
    Executions,
    /// Result rows produced by those executions.
    ExecRows,
    /// Requests whose fingerprint the head-based sampler admitted to the
    /// attached tracer.
    TraceSampled,
    /// Requests the sampler suppressed (tracer attached, fingerprint not
    /// in the sample).
    TraceUnsampled,
    /// STAR references made by cold optimizations (engine work).
    StarRefs,
    /// Memo hits inside those cold optimizations.
    MemoHits,
    /// Plans built by cold optimizations.
    PlansBuilt,
    /// Glue invocations inside cold optimizations.
    GlueRefs,
    /// Wall nanos spent in cold optimization.
    OptNanos,
    /// Cold-optimization nanos avoided by warm serves.
    SavedNanos,
    /// Wall nanos spent executing plans.
    ExecNanos,
    /// Rows crossing pipeline breakers (temp materializations plus the
    /// root pipeline) during execution — the executor's compact per-run
    /// actuals, counted even when tracing is suppressed.
    PipelineRows,
    /// Per-run actuals folded into the feedback plane's Q-error sketches.
    FeedbackRuns,
    /// Fingerprints newly flagged suspect by the feedback plane (each
    /// fingerprint is flagged at most once; the flag is sticky).
    SuspectFlagged,
    /// Span trees the tail sampler retained into the span store.
    SpansKept,
    /// Span trees recorded but dropped by the tail sampler.
    SpansDropped,
    /// Suspect-triggered re-optimizations started (single-flight leaders).
    ReoptAttempts,
    /// Re-optimizations that failed before the stability guard could rule
    /// (panic contained, injected/typed error, budget degradation).
    ReoptFailures,
    /// Heal triggers suppressed because the fingerprint was in backoff.
    ReoptBackoff,
    /// Fingerprints whose heal retries hit the cap and were pinned until
    /// the next epoch.
    ReoptRetryCapped,
    /// Candidates that passed the stability guard and replaced the
    /// incumbent plan in the cache.
    PlanSwap,
    /// Re-optimizations resolved by keeping the incumbent (typed reason:
    /// verify mismatch, regression, epoch move, failure).
    PlanPinned,
    /// Columnar batches completed by the vectorized executor.
    VexecBatches,
    /// Morsels enqueued to the vectorized executor's worker pool. Paired
    /// with [`Metric::VexecMorsels`]: `queued - completed` is the live
    /// worker-pool queue depth (both counters are monotonic).
    VexecQueued,
    /// Morsels completed by the vectorized executor's worker pool.
    VexecMorsels,
    /// Rows leaving vectorized pipeline chains at exchanges.
    VexecRows,
}

impl Metric {
    pub const COUNT: usize = 35;

    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::Requests,
        Metric::CacheHit,
        Metric::CacheCoalesced,
        Metric::CacheMiss,
        Metric::CacheEvict,
        Metric::CacheInvalidate,
        Metric::Rejected,
        Metric::Degraded,
        Metric::Errors,
        Metric::Executions,
        Metric::ExecRows,
        Metric::TraceSampled,
        Metric::TraceUnsampled,
        Metric::StarRefs,
        Metric::MemoHits,
        Metric::PlansBuilt,
        Metric::GlueRefs,
        Metric::OptNanos,
        Metric::SavedNanos,
        Metric::ExecNanos,
        Metric::PipelineRows,
        Metric::FeedbackRuns,
        Metric::SuspectFlagged,
        Metric::SpansKept,
        Metric::SpansDropped,
        Metric::ReoptAttempts,
        Metric::ReoptFailures,
        Metric::ReoptBackoff,
        Metric::ReoptRetryCapped,
        Metric::PlanSwap,
        Metric::PlanPinned,
        Metric::VexecBatches,
        Metric::VexecQueued,
        Metric::VexecMorsels,
        Metric::VexecRows,
    ];

    /// The stable exported name (JSON keys, Prometheus metric names,
    /// `counter` trace events).
    pub fn name(self) -> &'static str {
        match self {
            Metric::Requests => "serve_requests",
            Metric::CacheHit => "serve_cache_hit",
            Metric::CacheCoalesced => "serve_cache_coalesced",
            Metric::CacheMiss => "serve_cache_miss",
            Metric::CacheEvict => "serve_cache_evict",
            Metric::CacheInvalidate => "serve_cache_invalidate",
            Metric::Rejected => "serve_rejected",
            Metric::Degraded => "serve_degraded",
            Metric::Errors => "serve_errors",
            Metric::Executions => "serve_executions",
            Metric::ExecRows => "serve_exec_rows",
            Metric::TraceSampled => "serve_trace_sampled",
            Metric::TraceUnsampled => "serve_trace_unsampled",
            Metric::StarRefs => "opt_star_refs",
            Metric::MemoHits => "opt_memo_hits",
            Metric::PlansBuilt => "opt_plans_built",
            Metric::GlueRefs => "opt_glue_refs",
            Metric::OptNanos => "serve_opt_nanos",
            Metric::SavedNanos => "serve_saved_nanos",
            Metric::ExecNanos => "serve_exec_nanos",
            Metric::PipelineRows => "serve_pipeline_rows",
            Metric::FeedbackRuns => "serve_feedback_runs",
            Metric::SuspectFlagged => "serve_suspects_flagged",
            Metric::SpansKept => "serve_spans_kept",
            Metric::SpansDropped => "serve_spans_dropped",
            Metric::ReoptAttempts => "serve_reopt_attempts",
            Metric::ReoptFailures => "serve_reopt_failures",
            Metric::ReoptBackoff => "serve_reopt_backoff",
            Metric::ReoptRetryCapped => "serve_reopt_retry_capped",
            Metric::PlanSwap => "serve_plan_swap",
            Metric::PlanPinned => "serve_plan_pinned",
            Metric::VexecBatches => "vexec_batches",
            Metric::VexecQueued => "vexec_morsels_queued",
            Metric::VexecMorsels => "vexec_morsels",
            Metric::VexecRows => "vexec_rows",
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

    /// Fold every metric across stripes, in `Metric::ALL` order.
    pub fn fold(&self) -> [u64; Metric::COUNT] {
        let mut out = [0u64; Metric::COUNT];
        for s in self.stripes.iter() {
            for (o, slot) in out.iter_mut().zip(s.slots.iter()) {
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
        }
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
        assert_eq!(fold[Metric::Requests as usize], 8_000);
        assert_eq!(fold[Metric::CacheMiss as usize], 0);
    }
}

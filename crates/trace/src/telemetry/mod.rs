//! The live telemetry plane: always-on, low-overhead metrics for the
//! serving path.
//!
//! Four cooperating pieces, each in its own module:
//!
//! - [`counters`]: the striped lock-free counter plane — a fixed catalog
//!   of serve/optimizer/executor metrics, one relaxed `fetch_add` per
//!   increment, fold-on-read. **Always on**: this tier replaces the plain
//!   atomic serve counters and costs the same class of work.
//! - [`atomic_hist`]: wait-free log₂ latency histograms (optimize,
//!   cache-hit, execute, end-to-end) with mergeable snapshots and
//!   p50/p90/p99/p999 at < 2× relative error.
//! - [`topk`]: bounded-memory per-fingerprint hot-query tracking
//!   (space-saving), recording count, cumulative latency, last epoch.
//! - [`sample`]: head-based deterministic trace sampling
//!   (`STARQO_TRACE_SAMPLE=1/N` over the fingerprint hash), so structured
//!   tracing can stay attached in production at 1/N of its cost.
//! - [`qerror`]: the feedback plane — bounded per-fingerprint Q-error
//!   sketches folded from the executor's per-run actuals, with a sticky
//!   suspect flag when a fingerprint's plan-quality trend crosses the
//!   configured thresholds.
//! - [`ring`]: a bounded time-series of snapshot deltas for trend views
//!   (`starqo-obs watch`).
//!
//! The *full* flag gates the second and third tiers (histograms, top-K);
//! the *feedback* flag gates the Q-error plane; counters never turn off.
//! [`Telemetry::snapshot`] freezes the whole plane into a
//! [`TelemetrySnapshot`] for JSON/Prometheus export and interval diffing.

pub mod atomic_hist;
pub mod counters;
pub mod heal;
pub mod phases;
pub mod qerror;
pub mod ring;
pub mod sample;
pub mod snapshot;
pub mod spans;
pub mod topk;

pub use atomic_hist::AtomicHistogram;
pub use counters::{CounterPlane, Counters, Metric};
pub use heal::HealRecord;
pub use phases::{Phase, PhasePlane};
pub use qerror::{qlog_micro, FeedbackPlane, QErrorSketch, SuspectConfig, SuspectVerdict};
pub use ring::SnapshotRing;
pub use sample::TraceSampler;
pub use snapshot::TelemetrySnapshot;
pub use spans::{
    from_chrome_trace, read_span_trees, to_chrome_trace, SpanContext, SpanGuard, SpanMode,
    SpanName, SpanRecord, SpanStore, SpanTree, TailConfig, TailSampler,
};
pub use topk::{HotQuery, TopKTracker};

use std::time::Instant;

/// Sizing and gating knobs for a [`Telemetry`] plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Enable the histogram and top-K tiers (counters are always on).
    pub full: bool,
    /// Top-K capacity per shard, and the default `k` of snapshots.
    pub topk: usize,
    /// Top-K shard count (rounded up to a power of two).
    pub topk_shards: usize,
    /// Counter/histogram stripes (0 = one per available core).
    pub stripes: usize,
    /// Head sampler applied to attached tracers.
    pub sample: TraceSampler,
    /// Enable the per-fingerprint Q-error feedback plane.
    pub feedback: bool,
    /// Feedback-plane shard count (rounded up to a power of two).
    pub feedback_shards: usize,
    /// Sketch capacity per feedback shard.
    pub feedback_capacity: usize,
    /// Suspect-detection thresholds for the feedback plane.
    pub suspect: SuspectConfig,
    /// Request-scoped span tracing mode (off / tail-retained / full).
    pub spans: SpanMode,
    /// Retained span-tree capacity across the span store's shards.
    pub span_store: usize,
    /// Span-store shard count (rounded up to a power of two).
    pub span_shards: usize,
    /// Max recorded spans per request; overflow is counted, not grown.
    pub span_cap: usize,
    /// Tail-sampler thresholds (used when `spans` is [`SpanMode::Tail`]).
    pub tail: TailConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            full: true,
            topk: 32,
            topk_shards: 4,
            stripes: 0,
            sample: TraceSampler::all(),
            feedback: true,
            feedback_shards: 4,
            feedback_capacity: 64,
            suspect: SuspectConfig::default(),
            spans: SpanMode::Off,
            span_store: 64,
            span_shards: 4,
            span_cap: 256,
            tail: TailConfig::default(),
        }
    }
}

impl TelemetryConfig {
    /// The default config with the sampler taken from
    /// `STARQO_TRACE_SAMPLE` (admit-all when unset).
    pub fn from_env() -> TelemetryConfig {
        TelemetryConfig {
            sample: TraceSampler::from_env(),
            ..TelemetryConfig::default()
        }
    }

    /// Counters only: histograms, top-K, and feedback disabled.
    pub fn counters_only() -> TelemetryConfig {
        TelemetryConfig {
            full: false,
            feedback: false,
            ..TelemetryConfig::default()
        }
    }
}

catalog! {
    /// The latency paths the plane tracks, end to end and by stage. Each
    /// name is the path's snapshot JSON key and its Prometheus `path` label.
    pub enum LatencyPath {
        /// Cold optimization (cache miss, the engine actually ran).
        Optimize = "optimize",
        /// Warm serve (resident hit or coalesced wait).
        CacheHit = "cache_hit",
        /// Plan execution.
        Execute = "execute",
        /// Whole `optimize_prepared` request, any outcome that yields a plan.
        EndToEnd = "end_to_end",
    }
}

/// The assembled plane. Cheap to share (`Arc<Telemetry>`), safe to hammer
/// from every serving thread.
#[derive(Debug)]
pub struct Telemetry {
    full: bool,
    started: Instant,
    counters: CounterPlane,
    hists: [AtomicHistogram; LatencyPath::COUNT],
    topk: TopKTracker,
    topk_k: usize,
    sampler: TraceSampler,
    feedback: Option<FeedbackPlane>,
    phases: PhasePlane,
    spans: Option<SpanPlane>,
}

/// The span tier: a request-id allocator, the bounded store, and the
/// tail sampler, present only when span tracing is on.
#[derive(Debug)]
struct SpanPlane {
    mode: SpanMode,
    span_cap: usize,
    next_request: std::sync::atomic::AtomicU64,
    store: SpanStore,
    tail: TailSampler,
    /// Live histogram of retired root-span totals — the tail sampler's
    /// slow threshold comes from *this* distribution, not the serve-path
    /// latency histograms, so the quantile is computed over exactly the
    /// quantity each retention decision compares against (a root span
    /// covers prepare + serve, which the end-to-end histogram does not).
    totals: AtomicHistogram,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            full: config.full,
            started: Instant::now(),
            counters: CounterPlane::new(config.stripes),
            hists: std::array::from_fn(|_| AtomicHistogram::new(config.stripes)),
            topk: TopKTracker::new(config.topk_shards, config.topk.max(1)),
            topk_k: config.topk.max(1),
            sampler: config.sample,
            feedback: config.feedback.then(|| {
                FeedbackPlane::new(
                    config.feedback_shards,
                    config.feedback_capacity.max(1),
                    config.suspect,
                )
            }),
            phases: PhasePlane::new(config.stripes),
            spans: (config.spans != SpanMode::Off).then(|| SpanPlane {
                mode: config.spans,
                span_cap: config.span_cap.max(1),
                next_request: std::sync::atomic::AtomicU64::new(1),
                store: SpanStore::new(config.span_shards, config.span_store),
                tail: TailSampler::new(config.tail),
                totals: AtomicHistogram::new(config.stripes),
            }),
        }
    }

    /// A counters-only plane (histograms and top-K disabled).
    pub fn counters_only() -> Telemetry {
        Telemetry::new(TelemetryConfig::counters_only())
    }

    /// Whether the histogram/top-K tiers are live.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// The head sampler attached tracers are filtered through.
    pub fn sampler(&self) -> TraceSampler {
        self.sampler
    }

    /// Nanos since this plane was created.
    pub fn uptime_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Bump a counter. Always live, one relaxed atomic op.
    #[inline]
    pub fn add(&self, m: Metric, delta: u64) {
        self.counters.add(m, delta);
    }

    /// Fold one counter across stripes.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters.get(m)
    }

    /// Fold every counter.
    pub fn fold(&self) -> Counters {
        self.counters.fold()
    }

    /// Record a latency observation. No-op unless the plane is full.
    #[inline]
    pub fn observe(&self, path: LatencyPath, nanos: u64) {
        if self.full {
            self.hists[path].record(nanos);
        }
    }

    /// Attribute one served request to its fingerprint in the top-K
    /// tracker. No-op unless the plane is full.
    #[inline]
    pub fn record_request(&self, fp: u64, nanos: u64, epoch: u64) {
        if self.full {
            self.topk.record(fp, nanos, epoch);
        }
    }

    /// Whether the Q-error feedback plane is live.
    pub fn has_feedback(&self) -> bool {
        self.feedback.is_some()
    }

    /// Fold one executed run's actuals into the feedback plane: bumps
    /// [`Metric::FeedbackRuns`], and on a sketch's first threshold
    /// crossing bumps [`Metric::SuspectFlagged`] and returns the verdict
    /// so the caller can emit the detection trace event. No-op (`None`)
    /// when feedback is disabled.
    pub fn record_feedback(
        &self,
        fp: u64,
        est_rows: u64,
        actual_rows: u64,
        nanos: u64,
        epoch: u64,
    ) -> Option<SuspectVerdict> {
        let plane = self.feedback.as_ref()?;
        self.add(Metric::FeedbackRuns, 1);
        let verdict = plane.record(fp, est_rows, actual_rows, nanos, epoch);
        if verdict.is_some() {
            self.add(Metric::SuspectFlagged, 1);
        }
        verdict
    }

    /// A new plan was installed for `fp` (adaptive swap or explicit
    /// re-plan): reset its sketch's Q window and suspect flag, keeping the
    /// lifetime history. Returns whether a resident sketch was refreshed
    /// (always false when feedback is off).
    pub fn refresh_feedback(&self, fp: u64, est_rows: u64, epoch: u64) -> bool {
        self.feedback
            .as_ref()
            .is_some_and(|plane| plane.refresh(fp, est_rows, epoch))
    }

    /// One fingerprint's resident Q-error sketch, cloned (`None` when
    /// feedback is off or the fingerprint has no sketch).
    pub fn feedback_sketch(&self, fp: u64) -> Option<QErrorSketch> {
        self.feedback.as_ref()?.sketch(fp)
    }

    /// The feedback plane's suspect registry (empty when feedback is off).
    pub fn suspects(&self) -> Vec<QErrorSketch> {
        self.feedback
            .as_ref()
            .map(FeedbackPlane::suspects)
            .unwrap_or_default()
    }

    /// Whether one fingerprint is currently flagged suspect by the
    /// feedback plane (false when feedback is off).
    pub fn is_suspect(&self, fp: u64) -> bool {
        self.feedback
            .as_ref()
            .is_some_and(|plane| plane.is_suspect(fp))
    }

    /// Attribute nanos to one cold-path phase occurrence. Always live,
    /// two relaxed atomic ops.
    #[inline]
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        self.phases.add(phase, nanos);
    }

    /// Fold one phase across stripes: `(nanos, count)`.
    pub fn phase(&self, phase: Phase) -> (u64, u64) {
        self.phases.get(phase)
    }

    /// The configured span tracing mode.
    pub fn span_mode(&self) -> SpanMode {
        self.spans.as_ref().map(|s| s.mode).unwrap_or(SpanMode::Off)
    }

    /// Whether span recording is on (tail or full).
    pub fn has_spans(&self) -> bool {
        self.spans.is_some()
    }

    /// A recorder for one new request: live (with a plane-unique request
    /// id) when span tracing is on, the no-op context otherwise.
    pub fn span_context(&self) -> SpanContext {
        match self.spans.as_ref() {
            Some(plane) => {
                let id = plane
                    .next_request
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                SpanContext::start(id, plane.span_cap)
            }
            None => SpanContext::off(),
        }
    }

    /// Finish one request's span recording: take the tail-retention
    /// decision (keep everything under [`SpanMode::Full`]), store the
    /// tree or drop it, and count either way. `total_nanos` is the
    /// request's end-to-end latency; `suspect` is looked up live so a
    /// fingerprint flagged *by this very request's execution* retains its
    /// own tree. Returns the retention reason when the tree was kept.
    pub fn retire_spans(
        &self,
        ctx: &SpanContext,
        fp: u64,
        epoch: u64,
        outcome: &str,
        errored: bool,
        degraded: bool,
    ) -> Option<&'static str> {
        let plane = self.spans.as_ref()?;
        if !ctx.enabled() {
            return None;
        }
        let total_nanos = ctx.elapsed_nanos();
        let suspect = self.is_suspect(fp);
        let verdict = match plane.mode {
            SpanMode::Full => Some("full"),
            _ => plane
                .tail
                .decide(total_nanos, errored, degraded, suspect, |q| {
                    let h = plane.totals.snapshot();
                    h.quantile(q).map(|v| (v, h.count()))
                }),
        };
        // Recorded *after* the decision: a threshold quantile is clamped
        // into the histogram's [min, max], so folding the request in first
        // would let the slowest request ever seen hide behind its own
        // contribution to the max.
        plane.totals.record(total_nanos);
        let kept = match verdict {
            Some(reason) => {
                let tree = ctx.finish(fp, epoch, total_nanos, outcome, degraded, suspect, reason);
                match tree {
                    Some(tree) => {
                        plane.store.record(tree);
                        self.add(Metric::SpansKept, 1);
                        Some(reason)
                    }
                    None => None,
                }
            }
            None => {
                self.add(Metric::SpansDropped, 1);
                None
            }
        };
        // The request is over either way — park its buffer for reuse by
        // the next request on this thread.
        ctx.recycle();
        kept
    }

    /// Every retained span tree, request id ascending (empty when spans
    /// are off).
    pub fn span_trees(&self) -> Vec<SpanTree> {
        self.spans
            .as_ref()
            .map(|p| p.store.trees())
            .unwrap_or_default()
    }

    /// Span-store occupancy: `(resident, capacity, evicted)` — all zero
    /// when spans are off.
    pub fn span_store_stats(&self) -> (u64, u64, u64) {
        self.spans
            .as_ref()
            .map(|p| {
                (
                    p.store.len() as u64,
                    p.store.capacity() as u64,
                    p.store.evicted(),
                )
            })
            .unwrap_or((0, 0, 0))
    }

    /// Head-sampling decision for a request with an attached tracer:
    /// deterministic on the fingerprint, and counted either way so the
    /// sampled/suppressed split is visible in the counter plane.
    #[inline]
    pub fn admit_trace(&self, fp: u64) -> bool {
        let admitted = self.sampler.admit(fp);
        self.add(
            if admitted {
                Metric::TraceSampled
            } else {
                Metric::TraceUnsampled
            },
            1,
        );
        admitted
    }

    /// Freeze the plane: every counter, one histogram per latency path,
    /// the current top-K (at most `topk` entries).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (span_resident, span_capacity, span_evicted) = self.span_store_stats();
        TelemetrySnapshot {
            uptime_nanos: self.uptime_nanos(),
            counters: self.fold(),
            latency: self.hists.each_ref().map(AtomicHistogram::snapshot),
            topk: self.topk.snapshot(self.topk_k),
            qerror: self
                .feedback
                .as_ref()
                .map(FeedbackPlane::snapshot)
                .unwrap_or_default(),
            phases: self.phases.fold(),
            span_resident,
            span_capacity,
            span_evicted,
            // The heal state machine lives in the serving layer; a bare
            // plane snapshot carries no records (the service stitches its
            // own in before export).
            heal: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_stay_live_when_not_full() {
        let t = Telemetry::counters_only();
        assert!(!t.is_full());
        assert!(!t.has_feedback());
        t.add(Metric::Requests, 3);
        t.observe(LatencyPath::EndToEnd, 500);
        t.record_request(42, 500, 1);
        assert!(t.record_feedback(42, 10, 1_000, 500, 1).is_none());
        let snap = t.snapshot();
        assert_eq!(snap.counters[Metric::Requests], 3);
        assert_eq!(snap.counters[Metric::FeedbackRuns], 0);
        assert!(snap.latency[LatencyPath::EndToEnd].is_empty());
        assert!(snap.topk.is_empty());
        assert!(snap.qerror.is_empty());
    }

    #[test]
    fn feedback_plane_counts_runs_and_flags_suspects() {
        let t = Telemetry::new(TelemetryConfig {
            suspect: SuspectConfig {
                min_runs: 3,
                ..SuspectConfig::default()
            },
            ..TelemetryConfig::default()
        });
        assert!(t.has_feedback());
        // An accurate fingerprint never trips; a drifted one trips once.
        for i in 0..5u64 {
            assert!(t.record_feedback(1, 100, 100, 1_000, 0).is_none());
            let drifted = t.record_feedback(2, 100, 1_600, 2_000, 0);
            assert_eq!(drifted.is_some(), i == 2, "run {i}");
        }
        assert_eq!(t.get(Metric::FeedbackRuns), 10);
        assert_eq!(t.get(Metric::SuspectFlagged), 1);
        let suspects = t.suspects();
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].fp, 2);
        let snap = t.snapshot();
        assert_eq!(snap.qerror.len(), 2);
        // Snapshot order: worst geomean first.
        assert_eq!(snap.qerror[0].fp, 2);
        assert_eq!(snap.suspects().len(), 1);
    }

    #[test]
    fn full_plane_populates_every_tier() {
        let t = Telemetry::new(TelemetryConfig {
            stripes: 2,
            topk: 4,
            ..TelemetryConfig::default()
        });
        t.add(Metric::Requests, 2);
        t.observe(LatencyPath::Optimize, 1_000);
        t.observe(LatencyPath::EndToEnd, 1_100);
        t.record_request(7, 1_100, 3);
        let snap = t.snapshot();
        assert_eq!(snap.counters[Metric::Requests], 2);
        assert_eq!(snap.latency[LatencyPath::Optimize].count(), 1);
        assert_eq!(snap.latency[LatencyPath::CacheHit].count(), 0);
        assert_eq!(
            (snap.topk[0].fp, snap.topk[0].nanos, snap.topk[0].last_epoch),
            (7, 1_100, 3)
        );
    }

    #[test]
    fn admit_trace_counts_both_outcomes() {
        let t = Telemetry::new(TelemetryConfig {
            sample: TraceSampler::one_in(64),
            ..TelemetryConfig::default()
        });
        let mut admitted = 0u64;
        for fp in 0..1_000u64 {
            if t.admit_trace(fp) {
                admitted += 1;
            }
        }
        assert_eq!(t.get(Metric::TraceSampled), admitted);
        assert_eq!(t.get(Metric::TraceUnsampled), 1_000 - admitted);
        assert!(admitted > 0 && admitted < 100, "≈1/64 of 1000: {admitted}");
    }

    #[test]
    fn span_plane_retains_by_mode_and_counts_both_ways() {
        // Off: contexts are inert and the snapshot reports no store.
        let off = Telemetry::default();
        assert!(!off.has_spans());
        assert!(!off.span_context().enabled());
        assert_eq!(off.snapshot().span_capacity, 0);

        // Full: everything is retained, request ids are plane-unique.
        let full = Telemetry::new(TelemetryConfig {
            spans: SpanMode::Full,
            span_store: 8,
            span_shards: 1,
            ..TelemetryConfig::default()
        });
        for fp in 0..3u64 {
            let ctx = full.span_context();
            {
                let _root = ctx.enter("request");
                let _child = ctx.enter("optimize");
            }
            assert_eq!(
                full.retire_spans(&ctx, fp, 1, "miss", false, false),
                Some("full")
            );
        }
        assert_eq!(full.get(Metric::SpansKept), 3);
        let trees = full.span_trees();
        assert_eq!(trees.len(), 3);
        assert_eq!(trees[0].structure(), "request(optimize)");
        let ids: Vec<u64> = trees.iter().map(|t| t.request_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let snap = full.snapshot();
        assert_eq!((snap.span_resident, snap.span_capacity), (3, 8));

        // Tail: a boring fast request drops, a degraded one keeps, and a
        // request whose own execution flagged the fingerprint keeps too.
        let tail = Telemetry::new(TelemetryConfig {
            spans: SpanMode::Tail,
            suspect: SuspectConfig {
                min_runs: 1,
                ..SuspectConfig::default()
            },
            ..TelemetryConfig::default()
        });
        let ctx = tail.span_context();
        let _ = ctx.enter("request");
        assert_eq!(tail.retire_spans(&ctx, 9, 1, "hit", false, false), None);
        assert_eq!(tail.get(Metric::SpansDropped), 1);
        let ctx = tail.span_context();
        let _ = ctx.enter("request");
        assert_eq!(
            tail.retire_spans(&ctx, 9, 1, "miss", false, true),
            Some("degraded")
        );
        let ctx = tail.span_context();
        let _ = ctx.enter("request");
        tail.record_feedback(11, 10, 1_000, 500, 1);
        assert!(tail.is_suspect(11));
        assert_eq!(
            tail.retire_spans(&ctx, 11, 1, "hit", false, false),
            Some("suspect")
        );
        assert!(tail.span_trees().iter().any(|t| t.suspect && t.fp == 11));
    }

    #[test]
    fn phase_plane_folds_into_snapshots() {
        let t = Telemetry::default();
        t.record_phase(Phase::Prepare, 300);
        t.record_phase(Phase::Enumerate, 10_000);
        t.record_phase(Phase::Enumerate, 2_000);
        assert_eq!(t.phase(Phase::Enumerate), (12_000, 2));
        let snap = t.snapshot();
        assert_eq!(snap.phases[Phase::Prepare].0, 300);
        assert_eq!(snap.phases[Phase::Enumerate].1, 2);
    }

    #[test]
    fn snapshot_counter_order_matches_catalog() {
        let json = Telemetry::default().snapshot().to_json();
        let at = |name: &str| json.find(&format!("\"{name}\":")).expect(name);
        for pair in Metric::ALL.windows(2) {
            assert!(at(pair[0].name()) < at(pair[1].name()), "{pair:?}");
        }
        for pair in LatencyPath::ALL.windows(2) {
            assert!(at(pair[0].name()) < at(pair[1].name()), "{pair:?}");
        }
    }
}

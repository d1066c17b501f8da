//! The live telemetry plane: always-on, low-overhead metrics for the
//! serving path.
//!
//! Five cooperating pieces, each in its own module:
//!
//! - [`counters`]: the one striped plane — per thread, one cache-line-padded
//!   stripe holding three tiers, folded on read:
//!   - the counters, a fixed catalog of serve/optimizer/executor metrics,
//!     one relaxed `fetch_add` per increment. **Always on**;
//!   - the phase profiler, nanos and a count per [`phases`] entry
//!     (prepare, lookup, enumerate, Glue, compile, execute, reopt);
//!   - wait-free log₂ latency histograms (optimize, cache-hit, execute,
//!     end-to-end, plus the tail sampler's span totals), p50/p90/p99/p999
//!     at < 2× relative error.
//! - [`qerror`]: the feedback plane — one bounded table of per-fingerprint
//!   slots. A slot holds the fingerprint's hot-query totals (space-saving
//!   top-K: count, cumulative serve latency, last epoch), its Q-error
//!   sketch folded from the executor's per-run actuals (with a sticky
//!   suspect flag when the plan-quality trend crosses the configured
//!   thresholds), and its [`heal`] record.
//! - [`sample`]: head-based deterministic trace sampling
//!   (`STARQO_TRACE_SAMPLE=1/N` over the fingerprint hash): which recorded
//!   requests carry a *detailed* span tree, so full optimizer and executor
//!   detail can stay on in production at 1/N of its cost.
//! - [`spans`]: request-scoped span trees, kept or dropped by the tail
//!   sampler and held in a bounded store.
//! - [`ring`]: a bounded time-series of snapshot deltas for trend views
//!   (`starqo-obs watch`).
//!
//! The *full* flag gates the histograms and the snapshot's hot-query
//! top-K; the *feedback* flag gates the Q-error sketches; the slot table
//! exists when either is on; counters never turn off. Every served request
//! makes one [`Telemetry::record`] call, one lock on its fingerprint's
//! slot. [`Telemetry::snapshot`] freezes the whole plane into a
//! [`TelemetrySnapshot`] for JSON/Prometheus export and interval diffing.

pub mod counters;
pub mod heal;
pub mod phases;
pub mod qerror;
pub mod ring;
pub mod sample;
pub mod snapshot;
pub mod spans;

pub use counters::{Counters, Metric};
pub use heal::HealRecord;
pub use phases::Phase;
pub use qerror::{qlog_micro, FeedbackPlane, HotQuery, QErrorSketch, SuspectConfig};
pub use ring::SnapshotRing;
pub use sample::TraceSampler;
pub use snapshot::TelemetrySnapshot;
pub use spans::{
    events_constructed, from_chrome_trace, read_span_trees, to_chrome_trace, SpanContext,
    SpanEvent, SpanGuard, SpanMode, SpanName, SpanRecord, SpanStore, SpanTree, TailConfig,
    TailSampler,
};

use std::time::Instant;

use counters::{StripedPlane, SPAN_TOTALS};

/// Feedback-plane shards (rounded up to a power of two).
pub const FEEDBACK_SHARDS: usize = 4;
/// Per-fingerprint slots per feedback shard.
pub const FEEDBACK_CAPACITY: usize = 64;
/// Hot queries a snapshot lists: the `k` of its top-K.
pub const TOPK: usize = 32;
/// Max recorded spans per undetailed request; overflow is counted, not
/// grown. A detailed request is not capped.
pub const SPAN_CAP: usize = 256;
/// Span-store shards (a power of two).
pub const SPAN_SHARDS: usize = 4;

/// Sizing and gating knobs for a [`Telemetry`] plane. The striped plane
/// (counters, histograms, phase profiler) takes one stripe per available
/// core; the other sizes are the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Enable the latency histograms and the snapshot's hot-query top-K
    /// (counters are always on).
    pub full: bool,
    /// Head sampler choosing the recorded requests whose span tree is
    /// detailed (`None`: no request is).
    pub sample: Option<TraceSampler>,
    /// Fold executed runs into the per-fingerprint Q-error sketches.
    pub feedback: bool,
    /// Suspect-detection thresholds for the feedback plane.
    pub suspect: SuspectConfig,
    /// Request-scoped span tracing mode (off / tail-retained / full).
    pub spans: SpanMode,
    /// Retained span-tree capacity across the span store's shards.
    pub span_store: usize,
    /// Tail-sampler thresholds (used when `spans` is [`SpanMode::Tail`]).
    pub tail: TailConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            full: true,
            sample: None,
            feedback: true,
            suspect: SuspectConfig::default(),
            spans: SpanMode::Off,
            span_store: 64,
            tail: TailConfig::default(),
        }
    }
}

impl TelemetryConfig {
    /// The default config with the sampler taken from
    /// `STARQO_TRACE_SAMPLE` (no request detailed when unset).
    pub fn from_env() -> TelemetryConfig {
        TelemetryConfig {
            sample: TraceSampler::from_env(),
            ..TelemetryConfig::default()
        }
    }

    /// Counters only: histograms, top-K, and feedback disabled (no slot
    /// table at all).
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
    feedback: bool,
    started: Instant,
    striped: StripedPlane,
    sample: Option<TraceSampler>,
    /// The per-fingerprint slot table, present when `full || feedback`.
    plane: Option<FeedbackPlane>,
    spans: Option<SpanPlane>,
}

/// The span tier: a request-id allocator, the bounded store, and the
/// tail sampler, present only when span tracing is on.
#[derive(Debug)]
struct SpanPlane {
    mode: SpanMode,
    next_request: std::sync::atomic::AtomicU64,
    store: SpanStore,
    tail: TailSampler,
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
            feedback: config.feedback,
            started: Instant::now(),
            striped: StripedPlane::new(),
            sample: config.sample,
            plane: (config.full || config.feedback)
                .then(|| FeedbackPlane::new(FEEDBACK_SHARDS, FEEDBACK_CAPACITY, config.suspect)),
            spans: (config.spans != SpanMode::Off).then(|| SpanPlane {
                mode: config.spans,
                next_request: std::sync::atomic::AtomicU64::new(1),
                store: SpanStore::new(SPAN_SHARDS, config.span_store),
                tail: TailSampler::new(config.tail),
            }),
        }
    }

    /// Nanos since this plane was created.
    pub fn uptime_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Bump a counter. Always live, one relaxed atomic op.
    #[inline]
    pub fn add(&self, m: Metric, delta: u64) {
        self.striped.add(m, delta);
    }

    /// Fold every counter.
    pub fn fold(&self) -> Counters {
        self.striped.counters()
    }

    /// Record a latency observation. No-op unless the plane is full.
    #[inline]
    pub fn observe(&self, path: LatencyPath, nanos: u64) {
        if self.full {
            self.striped.record(path as usize, nanos);
        }
    }

    /// Record one served request, once, where its outcome is known: its
    /// serve latency into its fingerprint's hot-query totals and, when it
    /// executed, `run = (est_rows, actual_rows, exec_nanos)` into its
    /// Q-error sketch — one lock on the fingerprint's slot. Runs are folded
    /// only with feedback on, each bumping [`Metric::FeedbackRuns`]. A
    /// sketch's first threshold crossing bumps [`Metric::SuspectFlagged`]
    /// and annotates one `plan_suspect` event on `ctx`'s tree (any recorded
    /// tree: detections are rare and load-bearing). Returns the
    /// fingerprint's suspect flag after the fold (false with neither tier
    /// on).
    pub fn record(
        &self,
        fp: u64,
        epoch: u64,
        serve_nanos: u64,
        run: Option<(u64, u64, u64)>,
        ctx: &SpanContext,
    ) -> bool {
        let Some(plane) = &self.plane else {
            return false;
        };
        let run = run.filter(|_| self.feedback);
        if run.is_some() {
            self.add(Metric::FeedbackRuns, 1);
        }
        let (suspect, flagged) = plane.record(fp, epoch, serve_nanos, run);
        if let Some(event) = flagged {
            self.add(Metric::SuspectFlagged, 1);
            ctx.annotate(|| event);
        }
        suspect
    }

    /// The slot table, when live: the owner of every fingerprint's
    /// sketch and heal state (see [`FeedbackPlane::claim`]).
    pub fn feedback(&self) -> Option<&FeedbackPlane> {
        self.plane.as_ref()
    }

    /// Attribute nanos to one cold-path phase occurrence. Always live,
    /// two relaxed atomic ops.
    #[inline]
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        self.striped.add_phase(phase, nanos);
    }

    /// A recorder for one new request: live (with a plane-unique request
    /// id) when span tracing is on, the no-op context otherwise.
    pub fn span_context(&self) -> SpanContext {
        match self.spans.as_ref() {
            Some(plane) => {
                let id = plane
                    .next_request
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                SpanContext::start(id, SPAN_CAP)
            }
            None => SpanContext::off(),
        }
    }

    /// Finish one request's span recording: take the tail-retention
    /// decision (keep a detailed tree as "sampled", everything under
    /// [`SpanMode::Full`]), store the tree or drop it, and count either
    /// way. `outcome` is the request's label; `"error"` marks a failed
    /// request. `suspect` is the flag the request's own [`Self::record`]
    /// returned, so a fingerprint flagged *by this very request's
    /// execution* retains its own tree. Returns the retention reason when
    /// the tree was kept.
    pub fn retire_spans(
        &self,
        ctx: &SpanContext,
        fp: u64,
        epoch: u64,
        outcome: &str,
        degraded: bool,
        suspect: bool,
    ) -> Option<&'static str> {
        let plane = self.spans.as_ref()?;
        if !ctx.enabled() {
            return None;
        }
        let total_nanos = ctx.elapsed_nanos();
        let errored = outcome == "error";
        let verdict = match plane.mode {
            _ if ctx.is_detailed() => Some("sampled"),
            SpanMode::Full => Some("full"),
            // The slow threshold comes from the histogram of retired
            // root-span totals, not the serve-path latency histograms: the
            // quantity each decision compares against (a root span covers
            // prepare + serve, which the end-to-end histogram does not).
            _ => plane
                .tail
                .decide(total_nanos, errored, degraded, suspect, |q| {
                    let h = self.striped.span_totals();
                    h.quantile(q).map(|v| (v, h.count()))
                }),
        };
        // Recorded *after* the decision: a threshold quantile is clamped
        // into the histogram's [min, max], so folding the request in first
        // would let the slowest request ever seen hide behind its own
        // contribution to the max.
        self.striped.record(SPAN_TOTALS, total_nanos);
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

    /// Head-sampling decision for a recorded request: detailed or not,
    /// deterministic on the fingerprint, and counted either way so the
    /// sampled/suppressed split is visible in the counter plane.
    #[inline]
    pub fn admit_trace(&self, fp: u64) -> bool {
        let admitted = self.sample.is_some_and(|s| s.admit(fp));
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
    /// the current top-K (at most [`TOPK`] entries, when full), the
    /// sketches of executed fingerprints and the heal records.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (span_resident, span_capacity, span_evicted) = self.span_store_stats();
        let plane = self.plane.as_ref();
        let fold = self.striped.fold();
        TelemetrySnapshot {
            uptime_nanos: self.uptime_nanos(),
            counters: fold.counters,
            latency: fold.latency,
            topk: plane
                .filter(|_| self.full)
                .map(|p| p.hot(TOPK))
                .unwrap_or_default(),
            qerror: plane.map(FeedbackPlane::snapshot).unwrap_or_default(),
            phases: fold.phases,
            span_resident,
            span_capacity,
            span_evicted,
            heal: plane.map(FeedbackPlane::heal_records).unwrap_or_default(),
        }
    }
}

/// The plane's histogram tier: each stripe's log₂ histogram slots record
/// through relaxed atomics and fold to the serial [`crate::hist::Histogram`].
#[cfg(test)]
mod atomic_hist {
    mod tests {
        use crate::hist::Histogram;
        use crate::telemetry::counters::{StripedPlane, SPAN_TOTALS};
        use crate::telemetry::LatencyPath;

        #[test]
        fn snapshot_equals_serial_histogram() {
            let plane = StripedPlane::new();
            let mut serial = Histogram::new();
            for v in [0u64, 1, 5, 5, 900, 70_000, 1 << 40] {
                plane.record(LatencyPath::Execute as usize, v);
                plane.record(SPAN_TOTALS, v);
                serial.record(v);
            }
            let fold = plane.fold();
            assert_eq!(fold.latency[LatencyPath::Execute], serial);
            assert_eq!(plane.span_totals(), serial);
            assert!(fold.latency[LatencyPath::Optimize].is_empty());
        }

        #[test]
        fn empty_snapshot_is_empty() {
            let plane = StripedPlane::new();
            let fold = plane.fold();
            for snap in fold.latency.iter().chain([&plane.span_totals()]) {
                assert!(snap.is_empty());
                assert_eq!(*snap, Histogram::default());
            }
        }

        #[test]
        fn concurrent_records_fold_exactly() {
            let plane = StripedPlane::new();
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let plane = &plane;
                    scope.spawn(move || {
                        for i in 0..2_000u64 {
                            plane.record(LatencyPath::EndToEnd as usize, t * 1_000 + (i % 7));
                            plane.record(SPAN_TOTALS, t * 1_000 + (i % 7));
                        }
                    });
                }
            });
            // Exact sum: Σ_t Σ_i (1000t + i % 7).
            let expect: u128 = (0..8u128)
                .flat_map(|t| (0..2_000u128).map(move |i| t * 1_000 + (i % 7)))
                .sum();
            let fold = plane.fold();
            for snap in [&fold.latency[LatencyPath::EndToEnd], &plane.span_totals()] {
                assert_eq!(snap.count(), 16_000);
                assert_eq!(snap.min(), Some(0));
                assert_eq!(snap.max(), Some(7_006));
                assert_eq!(snap.sum(), expect);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    #[test]
    fn counters_stay_live_when_not_full() {
        let t = Telemetry::new(TelemetryConfig::counters_only());
        t.add(Metric::Requests, 3);
        t.observe(LatencyPath::EndToEnd, 500);
        assert!(!t.record(42, 1, 500, Some((10, 1_000, 500)), &SpanContext::off()));
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
        // An accurate fingerprint never trips; a drifted one trips once.
        let off = SpanContext::off();
        for i in 0..5u64 {
            assert!(!t.record(1, 0, 10, Some((100, 100, 1_000)), &off));
            let suspect = t.record(2, 0, 10, Some((100, 1_600, 2_000)), &off);
            assert_eq!(suspect, i >= 2, "run {i}");
            assert_eq!(
                t.fold()[Metric::SuspectFlagged],
                u64::from(i >= 2),
                "run {i}"
            );
        }
        assert_eq!(t.fold()[Metric::FeedbackRuns], 10);
        assert_eq!(t.fold()[Metric::SuspectFlagged], 1);
        let snap = t.snapshot();
        let suspects = snap.suspects();
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].fp, 2);
        assert_eq!(snap.qerror.len(), 2);
        // Snapshot order: worst geomean first.
        assert_eq!(snap.qerror[0].fp, 2);
        assert_eq!(snap.suspects().len(), 1);
    }

    #[test]
    fn full_plane_populates_every_tier() {
        let t = Telemetry::default();
        t.add(Metric::Requests, 2);
        t.observe(LatencyPath::Optimize, 1_000);
        t.observe(LatencyPath::EndToEnd, 1_100);
        t.record(7, 3, 1_100, None, &SpanContext::off());
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
    fn an_optimize_only_fingerprint_is_hot_but_has_no_sketch() {
        let t = Telemetry::default();
        let off = SpanContext::off();
        t.record(7, 1, 900, None, &off);
        t.record(7, 2, 1_100, None, &off);
        t.record(8, 2, 500, Some((10, 40, 3_000)), &off);
        let snap = t.snapshot();
        let hot: Vec<_> = snap.topk.iter().map(|e| (e.fp, e.count, e.nanos)).collect();
        assert_eq!(hot, [(7, 2, 2_000), (8, 1, 500)]);
        assert_eq!(snap.topk[0].last_epoch, 2);
        assert_eq!(snap.qerror.len(), 1);
        assert_eq!((snap.qerror[0].fp, snap.qerror[0].runs), (8, 1));
        assert_eq!(snap.counters[Metric::FeedbackRuns], 1);
    }

    #[test]
    fn full_and_feedback_gate_top_k_and_sketches_apart() {
        for (full, feedback) in [(false, false), (false, true), (true, false), (true, true)] {
            let t = Telemetry::new(TelemetryConfig {
                full,
                feedback,
                suspect: SuspectConfig {
                    min_runs: 1,
                    ..SuspectConfig::default()
                },
                ..TelemetryConfig::default()
            });
            let suspect = t.record(9, 1, 700, Some((10, 1_000, 500)), &SpanContext::off());
            let snap = t.snapshot();
            let case = format!("full {full}, feedback {feedback}");
            assert_eq!(snap.topk.len(), usize::from(full), "{case}");
            assert_eq!(snap.qerror.len(), usize::from(feedback), "{case}");
            assert_eq!(suspect, feedback, "{case}");
            let flagged = snap.counters[Metric::SuspectFlagged];
            assert_eq!(flagged, u64::from(feedback), "{case}");
            assert_eq!(snap.suspects().len(), usize::from(feedback), "{case}");
            assert_eq!(t.feedback().is_some(), full || feedback, "{case}");
            let runs = snap.counters[Metric::FeedbackRuns];
            assert_eq!(runs, u64::from(feedback), "{case}");
        }
    }

    #[test]
    fn admit_trace_counts_both_outcomes() {
        let t = Telemetry::new(TelemetryConfig {
            sample: Some(TraceSampler::one_in(64)),
            ..TelemetryConfig::default()
        });
        let mut admitted = 0u64;
        for fp in 0..1_000u64 {
            if t.admit_trace(fp) {
                admitted += 1;
            }
        }
        assert_eq!(t.fold()[Metric::TraceSampled], admitted);
        assert_eq!(t.fold()[Metric::TraceUnsampled], 1_000 - admitted);
        assert!(admitted > 0 && admitted < 100, "≈1/64 of 1000: {admitted}");
    }

    #[test]
    fn span_plane_retains_by_mode_and_counts_both_ways() {
        // Off: contexts are inert and the snapshot reports no store.
        let off = Telemetry::default();
        assert!(!off.span_context().enabled());
        assert_eq!(off.snapshot().span_capacity, 0);

        // Full: everything is retained, request ids are plane-unique.
        let full = Telemetry::new(TelemetryConfig {
            spans: SpanMode::Full,
            span_store: 8,
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
        assert_eq!(full.fold()[Metric::SpansKept], 3);
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
        assert_eq!(tail.fold()[Metric::SpansDropped], 1);
        let ctx = tail.span_context();
        let _ = ctx.enter("request");
        assert_eq!(
            tail.retire_spans(&ctx, 9, 1, "miss", true, false),
            Some("degraded")
        );
        let ctx = tail.span_context();
        let _ = ctx.enter("request");
        let suspect = tail.record(11, 1, 500, Some((10, 1_000, 500)), &ctx);
        assert!(suspect);
        assert_eq!(
            tail.retire_spans(&ctx, 11, 1, "hit", false, suspect),
            Some("suspect")
        );
        let trees = tail.span_trees();
        let flagged = trees.iter().find(|t| t.suspect && t.fp == 11).unwrap();
        let event = flagged.events.iter().map(|e| &e.event);
        assert_eq!(
            event.map(TraceEvent::kind).collect::<Vec<_>>(),
            ["plan_suspect"]
        );
    }

    #[test]
    fn phase_plane_folds_into_snapshots() {
        let t = Telemetry::default();
        t.record_phase(Phase::Prepare, 300);
        t.record_phase(Phase::Enumerate, 10_000);
        t.record_phase(Phase::Enumerate, 2_000);
        let snap = t.snapshot();
        assert_eq!(snap.phases[Phase::Enumerate], (12_000, 2));
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

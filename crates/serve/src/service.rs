//! The optimization service: prepare, optimize, execute — concurrently.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use starqo_catalog::{Catalog, CatalogOverlay, SharedCatalog};
use starqo_core::{faults, OptConfig, Optimized, Optimizer};
use starqo_plan::{rows_equal_multiset, PlanRef, QueryResult};
use starqo_query::{canonicalize, CanonicalQuery, Query, QueryFingerprint};
use starqo_storage::Database;
use starqo_trace::{
    Counters, LatencyPath, Metric, Phase, QErrorSketch, SpanContext, Telemetry, TelemetryConfig,
    TelemetrySnapshot, TraceEvent,
};
use starqo_vexec::{VexecExecutor, VexecStats};

use crate::admission::OptGate;
use crate::cache::{CacheConfig, PlanCache};
use crate::heal::{self, reason, work_units, HealConfig};

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The optimizer configuration every request runs under, fixed for the
    /// service's life. Its `budget.deadline` is the service-wide deadline.
    pub opt_config: OptConfig,
    /// Plan-cache sizing.
    pub cache: CacheConfig,
    /// Concurrent *cold* optimizations allowed at once (0 = unlimited).
    /// Cache hits are never gated.
    pub max_concurrent_opt: usize,
    /// How long a cold optimization may queue for a slot before the request
    /// is rejected (`None` = wait forever).
    pub max_queue_wait: Option<Duration>,
    /// Live metrics plane sizing and gating. The default reads
    /// `STARQO_TRACE_SAMPLE` for the head sampler (which recorded requests
    /// are detailed) and keeps every tier on; spans are off.
    pub telemetry: TelemetryConfig,
    /// Self-healing re-optimization for fingerprints the feedback plane
    /// flags as cardinality suspects. `None` (the default) keeps the loop
    /// off: drift is still *detected*, nobody acts on it.
    pub heal: Option<HealConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            opt_config: OptConfig::default(),
            cache: CacheConfig::default(),
            max_concurrent_opt: 0,
            max_queue_wait: None,
            telemetry: TelemetryConfig::from_env(),
            heal: None,
        }
    }
}

/// Typed service failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control turned the request away before optimization.
    Rejected { waited_ms: u64, detail: String },
    /// The optimizer failed (rendered upstream error).
    Optimize(String),
    /// The executor failed (rendered upstream error).
    Execute(String),
    /// The service could not (re)build its optimizer for a new catalog
    /// epoch.
    Catalog(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { waited_ms, detail } => {
                write!(f, "rejected after {waited_ms}ms: {detail}")
            }
            ServeError::Optimize(e) => write!(f, "optimize: {e}"),
            ServeError::Execute(e) => write!(f, "execute: {e}"),
            ServeError::Catalog(e) => write!(f, "catalog: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A prepared (canonicalized, fingerprinted) query, ready to serve many
/// times with different bound constants.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub canonical: CanonicalQuery,
}

impl Prepared {
    pub fn fingerprint(&self) -> &QueryFingerprint {
        &self.canonical.fingerprint
    }

    /// The canonical query the service optimizes and executes.
    pub fn query(&self) -> &Query {
        &self.canonical.query
    }
}

/// What one `optimize` request experienced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The plan as the cache holds it, cold or hit alike: the winner
    /// (`best`), its nodes' provenance only, the run's stats, phase times
    /// and degraded/quarantine record — no root alternatives. A caller that
    /// wants those calls `Optimizer::optimize` on the canonical query.
    pub optimized: Arc<Optimized>,
    /// Served from the cache (no optimization, no admission).
    pub cache_hit: bool,
    /// Shared a concurrent thread's in-flight optimization.
    pub coalesced: bool,
    /// Catalog epoch the plan belongs to.
    pub epoch: u64,
    /// The request's fingerprint; its text is the cache entry's key.
    pub fingerprint: QueryFingerprint,
}

/// What a request entry point was handed.
enum Input<'a> {
    Query(&'a Query),
    Prepared(&'a Prepared),
}

/// What a request entry point returns, as the driver reads it.
trait Served {
    fn outcome(&self) -> &ServeOutcome;
}

impl Served for ServeOutcome {
    fn outcome(&self) -> &ServeOutcome {
        self
    }
}

impl Served for (QueryResult, ServeOutcome) {
    fn outcome(&self) -> &ServeOutcome {
        &self.1
    }
}

/// A thread-safe serving layer: one catalog, one compiled rule set, one
/// plan cache, many worker threads. All methods take `&self`.
pub struct Service {
    catalog: Arc<SharedCatalog>,
    config: ServiceConfig,
    /// Keyed by fingerprint text alone: `config` is fixed for the service's
    /// life and the cache is the service's own.
    cache: PlanCache,
    gate: OptGate,
    /// The optimizer, tagged with the catalog epoch it plans against. The
    /// rules are compiled once, in `with_shared`; an epoch move swaps the
    /// catalog under them.
    optimizer: RwLock<(u64, Arc<Optimizer>)>,
    telemetry: Arc<Telemetry>,
}

impl Service {
    /// A service over a fresh [`SharedCatalog`] wrapping `catalog`.
    pub fn new(catalog: Arc<Catalog>, config: ServiceConfig) -> Result<Self, ServeError> {
        Self::with_shared(Arc::new(SharedCatalog::new(catalog)), config)
    }

    /// A service over an existing shared catalog (so DDL/stats tooling and
    /// the service observe the same epochs).
    pub fn with_shared(
        catalog: Arc<SharedCatalog>,
        config: ServiceConfig,
    ) -> Result<Self, ServeError> {
        let (cat, epoch) = catalog.snapshot();
        let optimizer = Optimizer::new(cat).map_err(|e| ServeError::Catalog(e.to_string()))?;
        Ok(Service {
            cache: PlanCache::new(&config.cache),
            gate: OptGate::new(config.max_concurrent_opt),
            optimizer: RwLock::new((epoch, Arc::new(optimizer))),
            telemetry: Arc::new(Telemetry::new(config.telemetry)),
            config,
            catalog,
        })
    }

    pub fn shared_catalog(&self) -> &Arc<SharedCatalog> {
        &self.catalog
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Canonicalize + fingerprint a query. Pure computation — callers may
    /// prepare once and optimize many times.
    pub fn prepare(&self, query: &Query) -> Prepared {
        let started = Instant::now();
        let prepared = Prepared {
            canonical: canonicalize(query),
        };
        self.telemetry
            .record_phase(Phase::Prepare, started.elapsed().as_nanos() as u64);
        prepared
    }

    /// The live telemetry plane (share it with executors, exporters, or a
    /// scrape endpoint).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Freeze the full telemetry plane: counters, latency histograms,
    /// hot-query top-K, feedback sketches and heal records. See
    /// [`TelemetrySnapshot`] for JSON / Prometheus rendering and interval
    /// diffing.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Current counters, folded from the striped plane.
    pub fn counters(&self) -> Counters {
        self.telemetry.fold()
    }

    /// Resident plan-cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Optimize a query end-to-end: prepare, then serve.
    pub fn optimize(&self, query: &Query) -> Result<ServeOutcome, ServeError> {
        let input = Input::Query(query);
        self.request(input, |p, ctx| self.serve(p, None, ctx))
    }

    /// Serve one prepared query, with an optional per-request deadline that
    /// tightens `opt_config.budget.deadline`. Deadlines fold into the
    /// optimizer budget: an expired deadline *degrades* the plan (anytime
    /// semantics) rather than failing, and degraded plans are shared with
    /// concurrent waiters but never cached.
    pub fn optimize_prepared(
        &self,
        prepared: &Prepared,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, ServeError> {
        let input = Input::Prepared(prepared);
        self.request(input, |p, ctx| self.serve(p, deadline, ctx))
    }

    /// The one request driver behind `optimize`, `optimize_prepared`,
    /// `execute` and `execute_prepared`: it owns the request's root span,
    /// prepares a bare query under a `prepare` span, runs `serve`, and hands
    /// the finished tree to the tail sampler. Errors and degraded plans are
    /// always kept; the rest ride on latency and on the suspect flag `serve`
    /// returns beside its result (the request's own record's).
    fn request<R: Served>(
        &self,
        input: Input<'_>,
        serve: impl FnOnce(&Prepared, &SpanContext) -> (Result<R, ServeError>, bool),
    ) -> Result<R, ServeError> {
        let ctx = self.telemetry.span_context();
        let root = ctx.enter("request");
        let prepared_here;
        let prepared = match input {
            Input::Prepared(p) => p,
            Input::Query(q) => {
                let _span = ctx.enter(Phase::Prepare.name());
                prepared_here = self.prepare(q);
                &prepared_here
            }
        };
        let (result, suspect) = serve(prepared, &ctx);
        drop(root);
        let (label, epoch, degraded) = match result.as_ref().map(R::outcome) {
            Ok(o) if o.cache_hit => ("hit", o.epoch, o.optimized.degraded),
            Ok(o) if o.coalesced => ("coalesced", o.epoch, o.optimized.degraded),
            Ok(o) => ("miss", o.epoch, o.optimized.degraded),
            Err(_) => ("error", 0, false),
        };
        let fp = prepared.fingerprint().hash;
        self.telemetry
            .retire_spans(&ctx, fp, epoch, label, degraded, suspect);
        result
    }

    /// An optimize-only request: serve, then record it. A failed serve
    /// records nothing.
    fn serve(
        &self,
        prepared: &Prepared,
        deadline: Option<Duration>,
        ctx: &SpanContext,
    ) -> (Result<ServeOutcome, ServeError>, bool) {
        match self.serve_prepared(prepared, deadline, ctx) {
            Ok((outcome, nanos)) => {
                let fp = outcome.fingerprint.hash;
                let suspect = self.telemetry.record(fp, outcome.epoch, nanos, None, ctx);
                (Ok(outcome), suspect)
            }
            Err(e) => (Err(e), false),
        }
    }

    /// Serve one prepared query under the caller's span context: a cache
    /// hit, a shared flight, or this request's own cold optimization. Also
    /// returns the serve latency, which the caller records once the
    /// request's outcome is known.
    fn serve_prepared(
        &self,
        prepared: &Prepared,
        deadline: Option<Duration>,
        ctx: &SpanContext,
    ) -> Result<(ServeOutcome, u64), ServeError> {
        let started = Instant::now();
        self.telemetry.add(Metric::Requests, 1);
        let (cat, epoch) = self.catalog.snapshot();
        let fp = &prepared.canonical.fingerprint;
        // The head decision, once per recorded request: a detailed tree also
        // carries the optimizer's and executor's events.
        if ctx.enabled() {
            ctx.set_detailed(self.telemetry.admit_trace(fp.hash));
        }

        // The lookup span covers the whole cache interaction: a hit returns
        // immediately, a leader's cold optimization nests its own `optimize`
        // span inside, and a follower blocks here for the flight — in which
        // case the span is renamed `flight_wait` to say what the time *was*.
        let mut lookup_span = ctx.enter(Phase::CacheLookup.name());
        let lookup_started = Instant::now();
        let (result, meta) = self.cache.serve(&fp.text, fp.hash, epoch, || {
            self.cold_optimize(prepared, &cat, epoch, deadline, ctx)
        });
        let lookup_nanos = lookup_started.elapsed().as_nanos() as u64;
        if meta.coalesced {
            lookup_span.rename(Phase::FlightWait.name());
        }
        drop(lookup_span);

        if meta.invalidated {
            self.telemetry.add(Metric::CacheInvalidate, 1);
            ctx.annotate(|| TraceEvent::CacheInvalidate { fp: fp.hash, epoch });
        }
        for (victim_fp, reason) in &meta.evicted {
            self.telemetry.add(Metric::CacheEvict, 1);
            let (victim_fp, reason) = (*victim_fp, *reason);
            ctx.annotate(|| TraceEvent::CacheEvict {
                fp: victim_fp,
                reason: reason.to_string(),
            });
        }

        let (optimized, nanos) = result?;
        if meta.hit || meta.coalesced {
            let (phase, metric) = if meta.coalesced {
                (Phase::FlightWait, Metric::CacheCoalesced)
            } else {
                (Phase::CacheLookup, Metric::CacheHit)
            };
            self.telemetry.record_phase(phase, lookup_nanos);
            self.telemetry.add(metric, 1);
            self.telemetry.add(Metric::SavedNanos, meta.saved_nanos);
            self.telemetry
                .observe(LatencyPath::CacheHit, started.elapsed().as_nanos() as u64);
            ctx.annotate(|| TraceEvent::CacheHit {
                fp: fp.hash,
                epoch,
                saved_nanos: meta.saved_nanos,
            });
        } else {
            // A leader's lookup time is dominated by its own cold
            // optimization (attributed to its optimizer phases); only the
            // residue is cache bookkeeping.
            self.telemetry
                .record_phase(Phase::CacheLookup, lookup_nanos.saturating_sub(nanos));
            self.telemetry.add(Metric::CacheMiss, 1);
            self.telemetry.add(Metric::OptNanos, nanos);
            self.telemetry.observe(LatencyPath::Optimize, nanos);
            ctx.annotate(|| TraceEvent::CacheMiss { fp: fp.hash, epoch });
        }
        let total = started.elapsed().as_nanos() as u64;
        self.telemetry.observe(LatencyPath::EndToEnd, total);
        let outcome = ServeOutcome {
            optimized,
            cache_hit: meta.hit,
            coalesced: meta.coalesced,
            epoch,
            fingerprint: fp.clone(),
        };
        Ok((outcome, total))
    }

    /// Optimize and execute against `db`, returning rows plus the serving
    /// outcome. The executor evaluates the *actual* canonical query's
    /// predicates, so a cached plan (optimized for a different bound
    /// constant) still produces exact results.
    pub fn execute(
        &self,
        db: &Database,
        query: &Query,
    ) -> Result<(QueryResult, ServeOutcome), ServeError> {
        let input = Input::Query(query);
        self.request(input, |p, ctx| self.execute_with(db, p, None, ctx))
    }

    /// [`Self::execute`] for an already-prepared query.
    pub fn execute_prepared(
        &self,
        db: &Database,
        prepared: &Prepared,
        deadline: Option<Duration>,
    ) -> Result<(QueryResult, ServeOutcome), ServeError> {
        let input = Input::Prepared(prepared);
        self.request(input, |p, ctx| self.execute_with(db, p, deadline, ctx))
    }

    /// [`Self::execute_prepared`] with the caller's span context: serve,
    /// then run the winning plan under an `execute` span, then record the
    /// request — the run's actuals with it, or none after a failed run.
    /// That happens *before* the driver retires the span tree, so a run
    /// that flags its own fingerprint is retained as suspect.
    fn execute_with(
        &self,
        db: &Database,
        prepared: &Prepared,
        deadline: Option<Duration>,
        ctx: &SpanContext,
    ) -> (Result<(QueryResult, ServeOutcome), ServeError>, bool) {
        let (outcome, serve_nanos) = match self.serve_prepared(prepared, deadline, ctx) {
            Ok(served) => served,
            Err(e) => return (Err(e), false),
        };
        let query = &prepared.canonical.query;
        let plan = &outcome.optimized.best;
        // One executor: the vectorized engine, inline on this thread. The
        // serial interpreter is its oracle in tests and benches only.
        let exec_span = ctx.enter(Phase::Execute.name());
        let exec_started = Instant::now();
        let mut vx = VexecExecutor::new(db, query);
        vx.set_telemetry(Arc::clone(&self.telemetry));
        vx.set_spans(ctx.clone());
        let (fp, epoch) = (outcome.fingerprint.hash, outcome.epoch);
        let result = match vx.run(plan) {
            Ok(result) => result,
            Err(e) => {
                let suspect = self.telemetry.record(fp, epoch, serve_nanos, None, ctx);
                return (Err(ServeError::Execute(e.to_string())), suspect);
            }
        };
        drop(exec_span);
        let nanos = exec_started.elapsed().as_nanos() as u64;
        self.telemetry.record_phase(Phase::Execute, nanos);
        // The run's compact actuals: the cached plan's estimated root
        // cardinality against what actually came out.
        let est = outcome.optimized.best.props.card.round().max(0.0) as u64;
        let run = (est, result.rows.len() as u64, nanos);
        let mut suspect = self
            .telemetry
            .record(fp, epoch, serve_nanos, Some(run), ctx);
        // Self-healing: a (possibly long-)suspect fingerprint triggers one
        // in-line re-optimization attempt, gated by single-flight election
        // and the per-fingerprint backoff schedule.
        if suspect {
            suspect = self.maybe_heal(db, prepared, &outcome, ctx);
        }
        (Ok((result, outcome)), suspect)
    }

    // ---- internals ---------------------------------------------------

    /// One gated, budgeted cold optimization against the given snapshot:
    /// the plan, its wall-clock nanos and whether it may be cached.
    fn cold_optimize(
        &self,
        prepared: &Prepared,
        cat: &Arc<Catalog>,
        epoch: u64,
        deadline: Option<Duration>,
        ctx: &SpanContext,
    ) -> Result<(Optimized, u64, bool), ServeError> {
        let (_permit, _waited) = self.gate.acquire(self.config.max_queue_wait).map_err(|t| {
            self.telemetry.add(Metric::Rejected, 1);
            ServeError::Rejected {
                waited_ms: t.waited.as_millis() as u64,
                detail: format!(
                    "optimization queue full ({} concurrent)",
                    self.config.max_concurrent_opt
                ),
            }
        })?;
        let optimizer = self.optimizer_for(cat, epoch);
        let mut config = self.config.opt_config.clone();
        if let Some(d) = deadline {
            config.budget.deadline = Some(match config.budget.deadline {
                Some(existing) => existing.min(d),
                None => d,
            });
        }
        let opt_span = ctx.enter(LatencyPath::Optimize.name());
        let started = Instant::now();
        let optimized = optimizer
            .optimize_spanned(&prepared.canonical.query, &config, ctx)
            .map_err(|e| {
                self.telemetry.add(Metric::Errors, 1);
                ServeError::Optimize(e.to_string())
            })?;
        let nanos = started.elapsed().as_nanos() as u64;
        drop(opt_span);
        // Fold the optimizer's work counters and its own phase clocks into
        // the plane.
        let stats = &optimized.stats;
        self.telemetry.add(Metric::StarRefs, stats.star_refs);
        self.telemetry.add(Metric::MemoHits, stats.memo_hits);
        self.telemetry.add(Metric::PlansBuilt, stats.plans_built);
        self.telemetry.add(Metric::GlueRefs, stats.glue_refs);
        for (phase, phase_nanos) in optimized.phase_nanos() {
            self.telemetry.record_phase(phase, phase_nanos);
        }
        let degraded = optimized.degraded;
        if degraded {
            self.telemetry.add(Metric::Degraded, 1);
        }
        Ok((optimized, nanos, !degraded))
    }

    /// The optimizer for this epoch: when the epoch moved, the compiled rule
    /// repertoire (which no catalog change can alter) is re-pointed at the
    /// new snapshot, so the write lock is held for a handful of `Arc` clones.
    fn optimizer_for(&self, cat: &Arc<Catalog>, epoch: u64) -> Arc<Optimizer> {
        {
            let g = self.optimizer.read().unwrap_or_else(|p| p.into_inner());
            if g.0 == epoch {
                return Arc::clone(&g.1);
            }
        }
        let mut g = self.optimizer.write().unwrap_or_else(|p| p.into_inner());
        if g.0 != epoch {
            *g = (epoch, Arc::new(g.1.with_catalog(Arc::clone(cat))));
        }
        Arc::clone(&g.1)
    }

    // ---- self-healing -------------------------------------------------

    /// Act on a suspect fingerprint: claim its feedback slot (suspect
    /// check, single-flight election and backoff admission in one step —
    /// losers keep serving the incumbent), then run the re-optimization
    /// pipeline with every failure mode contained, and resolve the claim.
    /// The request that triggered the heal pays for it in-line; nothing
    /// here can fail the request. Returns whether the fingerprint is still
    /// suspect: not after a swap or a refuted verdict.
    fn maybe_heal(
        &self,
        db: &Database,
        prepared: &Prepared,
        outcome: &ServeOutcome,
        ctx: &SpanContext,
    ) -> bool {
        let (Some(cfg), Some(plane)) = (&self.config.heal, self.telemetry.feedback()) else {
            return true;
        };
        // A degraded incumbent is never cached: there is no entry to swap.
        if outcome.optimized.degraded {
            return true;
        }
        let (fp, epoch) = (outcome.fingerprint.hash, outcome.epoch);
        let now = || self.telemetry.uptime_nanos();
        let (attempt, sketch) = match plane.claim(fp, |rec| heal::admit(rec, epoch, now())) {
            None => return true,
            Some(Err(_)) => {
                self.telemetry.add(Metric::ReoptBackoff, 1);
                return true;
            }
            Some(Ok(claimed)) => claimed,
        };
        self.telemetry.add(Metric::ReoptAttempts, 1);
        ctx.annotate(|| TraceEvent::PlanReopt { fp, epoch, attempt });
        let span = ctx.enter(Phase::Reopt.name());
        let started = Instant::now();
        // The whole pipeline is panic-contained: an injected (or real)
        // panic anywhere inside resolves as a typed pin, never an escape.
        let resolution = catch_unwind(AssertUnwindSafe(|| {
            self.heal_pipeline(db, prepared, outcome, cfg, &sketch)
        }))
        .unwrap_or(HealResolution::Pinned {
            why: reason::REOPT_PANIC,
            failure: true,
        });
        self.telemetry
            .record_phase(Phase::Reopt, started.elapsed().as_nanos() as u64);
        drop(span);
        match resolution {
            HealResolution::Swapped {
                incumbent_work,
                candidate_work,
                est_rows,
            } => {
                // Un-stick the suspect flag and restart the Q-error window
                // against the healed plan's estimate — the whole point of
                // the exercise.
                plane.resolve(fp, Some((est_rows, epoch)), |rec| heal::swapped(rec, epoch));
                self.telemetry.add(Metric::PlanSwap, 1);
                ctx.annotate(|| TraceEvent::PlanSwap {
                    fp,
                    epoch,
                    incumbent_work,
                    candidate_work,
                });
                false
            }
            HealResolution::Pinned { why, failure } => {
                if failure {
                    self.telemetry.add(Metric::ReoptFailures, 1);
                }
                // The incumbent just beat a freshly optimized candidate in
                // a paired run: its suspect verdict is refuted, not merely
                // deferred. Refresh its window (estimate unchanged) so it
                // is re-judged on new observations instead of burning
                // retries against a plan current statistics cannot improve.
                let refresh = (why == reason::REGRESSION).then_some((sketch.est_rows, epoch));
                let (backoff_nanos, capped) = plane
                    .resolve(fp, refresh, |rec| heal::pinned(rec, cfg, epoch, why, now()))
                    .unwrap_or_default();
                self.telemetry.add(Metric::PlanPinned, 1);
                if capped {
                    self.telemetry.add(Metric::ReoptRetryCapped, 1);
                }
                ctx.annotate(|| TraceEvent::PlanPinned {
                    fp,
                    epoch,
                    reason: why.to_string(),
                    attempt,
                    backoff_nanos,
                });
                refresh.is_none()
            }
        }
    }

    /// The pipeline: overlay → re-optimize → verify → swap CAS, judged on
    /// the `sketch` the claim handed over. Returns how the attempt
    /// resolved; every exit that keeps the incumbent carries its typed
    /// reason. Chaos sites (`reopt:<stage>` in `STARQO_FAULTS`) fire at
    /// each stage boundary.
    fn heal_pipeline(
        &self,
        db: &Database,
        prepared: &Prepared,
        outcome: &ServeOutcome,
        cfg: &HealConfig,
        sketch: &QErrorSketch,
    ) -> HealResolution {
        let pin = |why: &'static str, failure: bool| HealResolution::Pinned { why, failure };
        let plan_faults = self.config.opt_config.faults.as_ref();
        // One stage boundary: the test hook first (tests race catalog
        // mutations against it), then the chaos site. Injected `Error`
        // returns true, to pin as a typed failure; `Panic` unwinds to the
        // caller's catch_unwind; `Stall` burns time and continues.
        let fault_at = |stage: &'static str| -> bool {
            cfg.stage(stage);
            plan_faults
                .and_then(|p| p.trigger("reopt", stage))
                .is_some_and(|mode| faults::fire(mode, "reopt").is_some())
        };

        // -- overlay: observed cardinalities → a scoped catalog ---------
        if fault_at("overlay") {
            return pin(reason::REOPT_ERROR, true);
        }
        let (cat, epoch) = self.catalog.snapshot();
        if epoch != outcome.epoch {
            // The incumbent is already stale; the next cold miss replans
            // under the new epoch anyway.
            return pin(reason::EPOCH_MOVED, false);
        }
        let query = &prepared.canonical.query;
        // Spread the observed root-cardinality miss across the referenced
        // tables: with k quantifiers, each base cardinality scales by
        // (actual/est)^(1/k), so the re-optimizer's root estimate lands at
        // the observed actual. The drift's *direction* comes from the
        // lifetime extrema (whichever extremum sits farther from the
        // estimate in log space — after a mid-run shift the lifetime range
        // straddles the drift, so its geometric middle would chase half of
        // it and re-flag forever); its *magnitude* comes from the windowed
        // geometric-mean Q-error, because the window resets on every
        // refresh and so holds exactly the runs the suspect verdict was
        // formed on. For a one-sided miss that lands the corrected
        // estimate on the geometric mean of the observed actuals — the
        // minimizer of the geomean Q the suspect check re-evaluates —
        // which keeps parameterized queries (one estimate, a spread of
        // per-constant actuals) from re-flagging off the correction
        // itself.
        let est = sketch.est_rows.max(1) as f64;
        let lo = sketch.actual_min.max(1) as f64;
        let hi = sketch.actual_max.max(1) as f64;
        let under = hi / est >= est / lo;
        let actual = match sketch.geomean_q() {
            Some(q) if q.is_finite() && q > 1.0 => {
                if under {
                    est * q
                } else {
                    est / q
                }
            }
            _ => {
                if under {
                    hi
                } else {
                    lo
                }
            }
        };
        let k = query.quantifiers.len().max(1);
        let factor = (actual / est).powf(1.0 / k as f64);
        let mut overlay = CatalogOverlay::new(Arc::clone(&cat));
        if factor.is_finite() && (factor - 1.0).abs() > f64::EPSILON {
            let mut seen = std::collections::BTreeSet::new();
            for q in &query.quantifiers {
                let table = cat.table(q.table);
                if seen.insert(table.name.clone()) {
                    let scaled = ((table.card.max(1) as f64) * factor).round().max(1.0) as u64;
                    overlay.set_table_card(&table.name, scaled);
                }
            }
        }
        // When the factor rounds to 1 the estimate on record already
        // matches observation; the candidate is then rebuilt from the
        // *unscaled* catalog, whose root estimate must not clobber the
        // sketch's (possibly previously healed) estimate at refresh time.
        let corrected = !overlay.is_empty();
        let overlay_cat = match overlay.materialize() {
            Ok(c) => c,
            Err(_) => return pin(reason::REOPT_ERROR, true),
        };

        // -- re-optimize under the dedicated heal budget ----------------
        if fault_at("optimize") {
            return pin(reason::REOPT_ERROR, true);
        }
        let current = self.optimizer.read().unwrap_or_else(|p| p.into_inner());
        let optimizer = current.1.with_catalog(overlay_cat);
        drop(current);
        let mut oc = self.config.opt_config.clone();
        oc.budget = cfg.budget.clone();
        let opt_started = Instant::now();
        let optimized = match optimizer.optimize(query, &oc) {
            Ok(o) => o,
            Err(_) => return pin(reason::REOPT_ERROR, true),
        };
        let opt_nanos = opt_started.elapsed().as_nanos() as u64;
        if optimized.degraded {
            return pin(reason::BUDGET_DEGRADED, true);
        }

        // -- verify: equal rows, and work within 10 % of the incumbent's --
        // One run per side: every counter `work_units` reads is
        // deterministic per (plan, database), so re-running either side
        // could not change the verdict.
        if fault_at("verify") {
            return pin(reason::REOPT_ERROR, true);
        }
        let Some((inc_rows, inc_stats)) = verify_run(db, query, &outcome.optimized.best) else {
            return pin(reason::REOPT_ERROR, true);
        };
        let Some((cand_rows, cand_stats)) = verify_run(db, query, &optimized.best) else {
            return pin(reason::REOPT_ERROR, true);
        };
        if !rows_equal_multiset(&inc_rows.rows, &cand_rows.rows) {
            return pin(reason::VERIFY_MISMATCH, false);
        }
        let incumbent_work = work_units(&inc_stats);
        let candidate_work = work_units(&cand_stats);
        if !heal::no_regression(incumbent_work, candidate_work) {
            return pin(reason::REGRESSION, false);
        }

        // -- swap CAS: only into the world the candidate was built for --
        if fault_at("swap") {
            return pin(reason::REOPT_ERROR, true);
        }
        if self.catalog.epoch() != epoch {
            return pin(reason::EPOCH_MOVED, false);
        }
        let est_rows = if corrected {
            optimized.best.props.card.round().max(0.0) as u64
        } else {
            sketch.est_rows
        };
        let fp = &outcome.fingerprint;
        if !self
            .cache
            .swap_if_epoch(&fp.text, fp.hash, epoch, optimized, opt_nanos)
        {
            return pin(reason::EPOCH_MOVED, false);
        }
        HealResolution::Swapped {
            incumbent_work,
            candidate_work,
            est_rows,
        }
    }
}

/// Run `plan` for heal on a bare executor — no telemetry, no spans: heal's
/// private experiments must not fold into the telemetry or feedback planes,
/// or they would perturb the very drift signal that triggered them.
fn verify_run(db: &Database, query: &Query, plan: &PlanRef) -> Option<(QueryResult, VexecStats)> {
    let mut vx = VexecExecutor::new(db, query);
    let result = vx.run(plan).ok()?;
    Some((result, *vx.stats()))
}

/// How one heal attempt resolved (internal to the driver).
enum HealResolution {
    Swapped {
        incumbent_work: u64,
        candidate_work: u64,
        /// The estimate the sketch's fresh window is judged against.
        est_rows: u64,
    },
    Pinned {
        why: &'static str,
        failure: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::{DataType, StorageKind, Value};
    use starqo_query::parse_query;
    use starqo_storage::DatabaseBuilder;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::builder()
                .site("NY")
                .table("DEPT", "NY", StorageKind::Heap, 4)
                .column("DNO", DataType::Int, Some(4))
                .column("MGR", DataType::Str, Some(4))
                .table("EMP", "NY", StorageKind::Heap, 8)
                .column("NAME", DataType::Str, None)
                .column("DNO", DataType::Int, Some(4))
                .build()
                .unwrap(),
        )
    }

    fn database(cat: &Arc<Catalog>) -> Database {
        let mut b = DatabaseBuilder::new(Arc::clone(cat));
        for i in 0..4i64 {
            b.insert("DEPT", vec![Value::Int(i), Value::str(format!("M{i}"))])
                .unwrap();
        }
        for i in 0..8i64 {
            b.insert("EMP", vec![Value::str(format!("E{i}")), Value::Int(i % 4)])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn hit_after_miss_and_params_share_a_plan() {
        let cat = catalog();
        let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
        let q1 = parse_query(
            &cat,
            "SELECT E.NAME FROM EMP E, DEPT D WHERE D.DNO = E.DNO AND D.MGR = 'M1'",
        )
        .unwrap();
        let q2 = parse_query(
            &cat,
            "SELECT E.NAME FROM EMP E, DEPT D WHERE D.MGR = 'M2' AND D.DNO = E.DNO",
        )
        .unwrap();
        let o1 = svc.optimize(&q1).unwrap();
        assert!(!o1.cache_hit);
        let o2 = svc.optimize(&q2).unwrap();
        assert!(o2.cache_hit, "different constant + conjunct order must hit");
        assert_eq!(o1.fingerprint, o2.fingerprint);
        let snap = svc.counters();
        assert_eq!(snap[Metric::CacheMiss], 1);
        assert_eq!(snap[Metric::CacheHit], 1);
        assert!(snap.hit_ratio() > 0.49);
    }

    #[test]
    fn cached_plans_execute_with_the_request_constants() {
        let cat = catalog();
        let db = database(&cat);
        let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
        let q1 = parse_query(
            &cat,
            "SELECT E.NAME FROM EMP E, DEPT D WHERE D.DNO = E.DNO AND D.MGR = 'M1'",
        )
        .unwrap();
        let q2 = parse_query(
            &cat,
            "SELECT E.NAME FROM EMP E, DEPT D WHERE D.DNO = E.DNO AND D.MGR = 'M2'",
        )
        .unwrap();
        let (r1, o1) = svc.execute(&db, &q1).unwrap();
        let (r2, o2) = svc.execute(&db, &q2).unwrap();
        assert!(!o1.cache_hit && o2.cache_hit);
        // Different constants select different departments: the cached plan
        // must not replay q1's rows for q2.
        let ref1 = starqo_exec::reference_eval(&db, &canonicalize(&q1).query).unwrap();
        let ref2 = starqo_exec::reference_eval(&db, &canonicalize(&q2).query).unwrap();
        assert!(starqo_exec::rows_equal_multiset(&r1.rows, &ref1));
        assert!(starqo_exec::rows_equal_multiset(&r2.rows, &ref2));
        assert!(!starqo_exec::rows_equal_multiset(&r1.rows, &r2.rows));
    }

    /// A cached plan is the winner and the winner's provenance, nothing
    /// else the run built: the origins a fresh optimization reports.
    #[test]
    fn a_cached_plan_holds_its_winner_and_the_winners_origins() {
        let cat = catalog();
        let db = database(&cat);
        let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
        let sql = "SELECT E.NAME FROM EMP E, DEPT D WHERE D.DNO = E.DNO AND D.MGR = 'M1'";
        let q = parse_query(&cat, sql).unwrap();
        let (_, cold) = svc.execute(&db, &q).unwrap();
        let (_, hit) = svc.execute(&db, &q).unwrap();
        assert!(!cold.cache_hit && hit.cache_hit);
        let cached = &hit.optimized;
        assert!(cached.root_alternatives.is_empty());
        let mut winner = std::collections::HashSet::new();
        cached.best.visit(&mut |n| {
            winner.insert(n.fingerprint());
        });
        let kept: std::collections::HashSet<u64> = cached.provenance.keys().copied().collect();
        assert_eq!(kept, winner);
        let optimizer = Optimizer::new(Arc::clone(&cat)).unwrap();
        let fresh = optimizer
            .optimize(svc.prepare(&q).query(), &OptConfig::default())
            .unwrap();
        assert!(fresh.provenance.len() > kept.len(), "the run built more");
        assert_eq!(
            cached.origin_trace(&cached.best),
            fresh.origin_trace(&fresh.best)
        );
    }

    #[test]
    fn feedback_plane_flags_drifted_plan_and_emits_the_event() {
        use starqo_trace::{SpanMode, SuspectConfig, TelemetryConfig};
        // The catalog says EMP has 8 rows; the database actually holds
        // 800. Stats never move, so the cached plan keeps serving with a
        // massively wrong estimate — exactly the drift the feedback plane
        // must surface.
        let cat = catalog();
        let mut b = DatabaseBuilder::new(Arc::clone(&cat));
        for i in 0..4i64 {
            b.insert("DEPT", vec![Value::Int(i), Value::str(format!("M{i}"))])
                .unwrap();
        }
        for i in 0..800i64 {
            b.insert("EMP", vec![Value::str(format!("E{i}")), Value::Int(i % 4)])
                .unwrap();
        }
        let db = b.build().unwrap();
        let svc = Service::new(
            Arc::clone(&cat),
            ServiceConfig {
                telemetry: TelemetryConfig {
                    suspect: SuspectConfig {
                        min_runs: 3,
                        ..SuspectConfig::default()
                    },
                    spans: SpanMode::Full,
                    ..TelemetryConfig::default()
                },
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").unwrap();
        for _ in 0..5 {
            svc.execute(&db, &q).unwrap();
        }
        let snap = svc.counters();
        assert_eq!(snap[Metric::FeedbackRuns], 5);
        assert_eq!(snap[Metric::SuspectFlagged], 1, "flagged exactly once");
        assert!(
            snap[Metric::PipelineRows] >= 5 * 200,
            "root rows counted per run"
        );
        let tsnap = svc.telemetry_snapshot();
        let suspects = tsnap.suspects();
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].runs, 5, "sketch keeps folding after the flag");
        assert!(suspects[0].geomean_q().unwrap() > 4.0);
        assert_eq!(tsnap.qerror.len(), 1);
        assert_eq!(tsnap.suspects().len(), 1);
        assert_eq!(tsnap.qerror[0].actual_min, 200);
        // The detection reached the request's tree as a typed event, once.
        let suspect_events: Vec<_> = svc
            .telemetry()
            .span_trees()
            .into_iter()
            .flat_map(|t| t.events)
            .map(|e| e.event)
            .filter(|e| matches!(e, TraceEvent::PlanSuspect { .. }))
            .collect();
        assert_eq!(suspect_events.len(), 1);
        if let TraceEvent::PlanSuspect { runs, reason, .. } = &suspect_events[0] {
            assert_eq!(*runs, 3);
            assert!(reason == "geomean_q" || reason == "max_q", "{reason}");
        }
    }

    #[test]
    fn epoch_bump_invalidates_and_reoptimizes() {
        let cat = catalog();
        let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").unwrap();
        let o1 = svc.optimize(&q).unwrap();
        assert_eq!(o1.epoch, 0);
        svc.shared_catalog().set_table_card("EMP", 100_000).unwrap();
        let o2 = svc.optimize(&q).unwrap();
        assert_eq!(o2.epoch, 1);
        assert!(!o2.cache_hit, "epoch bump must force a re-optimization");
        let snap = svc.counters();
        assert_eq!(snap[Metric::CacheInvalidate], 1);
        assert_eq!(snap[Metric::CacheMiss], 2);
        // The re-optimization saw the new statistics.
        assert!(o2.optimized.best.props.card > o1.optimized.best.props.card);
    }

    #[test]
    fn zero_wait_gate_rejects_second_request() {
        let cat = catalog();
        let svc = Arc::new(
            Service::new(
                Arc::clone(&cat),
                ServiceConfig {
                    max_concurrent_opt: 1,
                    max_queue_wait: Some(Duration::ZERO),
                    ..ServiceConfig::default()
                },
            )
            .unwrap(),
        );
        // Hold the only slot on another thread, then ask again.
        let (_permit, _) = svc.gate.acquire(None).unwrap();
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E").unwrap();
        let err = svc.optimize(&q).unwrap_err();
        assert!(matches!(err, ServeError::Rejected { .. }), "{err}");
        assert_eq!(svc.counters()[Metric::Rejected], 1);
    }

    /// A rejected leader's followers share its typed error, not a
    /// re-parsed string: with the only slot held, two concurrent requests
    /// for one fingerprint make one admission attempt between them.
    #[test]
    fn followers_of_a_rejected_leader_get_its_typed_error() {
        use std::sync::Barrier;
        let cat = catalog();
        let config = ServiceConfig {
            max_concurrent_opt: 1,
            max_queue_wait: Some(Duration::from_millis(500)),
            ..ServiceConfig::default()
        };
        let svc = Service::new(Arc::clone(&cat), config).unwrap();
        let (_permit, _) = svc.gate.acquire(None).unwrap();
        let prepared = svc.prepare(&parse_query(&cat, "SELECT E.NAME FROM EMP E").unwrap());
        let start = Barrier::new(2);
        let errs: Vec<ServeError> = std::thread::scope(|s| {
            let request = || {
                start.wait();
                svc.optimize_prepared(&prepared, None).unwrap_err()
            };
            let handles = [s.spawn(request), s.spawn(request)];
            handles.map(|h| h.join().unwrap()).to_vec()
        });
        for err in &errs {
            let detail = "optimization queue full (1 concurrent)";
            assert!(
                matches!(err, ServeError::Rejected { detail: d, .. } if d == detail),
                "{err}"
            );
        }
        assert_eq!(errs[0], errs[1], "the follower got the leader's own error");
        assert_eq!(svc.counters()[Metric::Rejected], 1, "one admission attempt");
    }

    #[test]
    fn telemetry_snapshot_matches_counters_and_tracks_hot_queries() {
        let cat = catalog();
        let db = database(&cat);
        let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").unwrap();
        let prepared = svc.prepare(&q);
        for _ in 0..5 {
            svc.execute_prepared(&db, &prepared, None).unwrap();
        }
        let counters = svc.counters();
        assert_eq!(
            (
                counters[Metric::Requests],
                counters[Metric::CacheMiss],
                counters[Metric::CacheHit]
            ),
            (5, 1, 4)
        );
        assert_eq!(counters[Metric::Executions], 5);
        assert!(counters[Metric::StarRefs] > 0 && counters[Metric::PlansBuilt] > 0);

        let snap = svc.telemetry_snapshot();
        // The snapshot's counter plane is the same fold `counters()` reads.
        assert_eq!(snap.counters, counters);
        // Latency paths: 1 cold optimize, 4 warm serves, 5 end-to-end, and
        // 5 executions.
        let count = |p: LatencyPath| snap.latency[p].count();
        assert_eq!(count(LatencyPath::Optimize), 1);
        assert_eq!(count(LatencyPath::CacheHit), 4);
        assert_eq!(count(LatencyPath::EndToEnd), 5);
        assert_eq!(count(LatencyPath::Execute), 5);
        // The one fingerprint is the hottest query, with exact counts.
        let fp = prepared.fingerprint().hash;
        assert_eq!(snap.topk.len(), 1);
        assert_eq!(
            (snap.topk[0].fp, snap.topk[0].count, snap.topk[0].err),
            (fp, 5, 0)
        );
        assert!(snap.topk[0].nanos > 0);
    }

    /// One executed and one optimize-only request, on two fingerprints:
    /// each is a hot query counted once with its serve latency (exactly the
    /// end-to-end path's sample, execution excluded), and only the executed
    /// one has a sketch — its plan's estimate, its rows and its run's nanos.
    #[test]
    fn one_record_per_request_fills_the_hot_totals_and_the_sketch() {
        let cat = catalog();
        let db = database(&cat);
        let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
        let executed = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").unwrap();
        let planned = parse_query(&cat, "SELECT D.MGR FROM DEPT D").unwrap();
        let (rows, ran) = svc.execute(&db, &executed).unwrap();
        let only = svc.optimize(&planned).unwrap();
        let snap = svc.telemetry_snapshot();
        let (ran_fp, only_fp) = (ran.fingerprint.hash, only.fingerprint.hash);
        let hot = |fp: u64| *snap.topk.iter().find(|e| e.fp == fp).expect("hot");
        assert_eq!(snap.topk.len(), 2);
        for (fp, epoch) in [(ran_fp, ran.epoch), (only_fp, only.epoch)] {
            let h = hot(fp);
            assert_eq!((h.count, h.err, h.last_epoch), (1, 0, epoch));
            assert!(h.nanos > 0);
        }
        let serve = &snap.latency[LatencyPath::EndToEnd];
        assert_eq!(serve.count(), 2);
        assert_eq!(
            u128::from(hot(ran_fp).nanos + hot(only_fp).nanos),
            serve.sum()
        );
        assert_eq!(
            snap.qerror.len(),
            1,
            "the optimize-only request has no sketch"
        );
        let s = snap.qerror_for(ran_fp).expect("sketch");
        let est = ran.optimized.best.props.card.round() as u64;
        let actual = rows.rows.len() as u64;
        assert_eq!(actual, 2, "EMP rows with DNO = 1");
        assert_eq!((s.runs, s.q_runs, s.est_rows), (1, 1, est));
        assert_eq!((s.actual_min, s.actual_max), (actual, actual));
        assert_eq!(s.qlog_sum_micro, starqo_trace::qlog_micro(est, actual));
        assert_eq!((s.last_epoch, s.suspect), (ran.epoch, false));
        assert_eq!(s.nanos.count(), 1);
        assert_eq!(s.nanos.sum(), u128::from(snap.phases[Phase::Execute].0));
        assert_eq!(snap.counters[Metric::FeedbackRuns], 1);
    }

    #[test]
    fn serve_path_matches_the_serial_oracle_and_counts_vexec_activity() {
        let cat = catalog();
        let db = database(&cat);
        let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
        for sql in [
            "SELECT E.NAME, D.MGR FROM EMP E, DEPT D WHERE E.DNO = D.DNO",
            "SELECT E.NAME FROM EMP E, DEPT D WHERE E.DNO = D.DNO AND D.MGR = 'M1'",
        ] {
            let q = parse_query(&cat, sql).unwrap();
            let (got, outcome) = svc.execute(&db, &q).unwrap();
            let prepared = svc.prepare(&q);
            let want = starqo_exec::Executor::new(&db, prepared.query())
                .run(&outcome.optimized.best)
                .unwrap();
            assert_eq!(got, want, "serve path diverged from the oracle on {sql}");
        }
        let c = svc.counters();
        for m in [
            Metric::VexecRows,
            Metric::VexecBatches,
            Metric::VexecMorsels,
        ] {
            assert!(c[m] > 0, "{m:?}");
        }
    }

    #[test]
    fn counters_only_plane_skips_histograms_but_keeps_counts() {
        let cat = catalog();
        let svc = Service::new(
            Arc::clone(&cat),
            ServiceConfig {
                telemetry: TelemetryConfig::counters_only(),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").unwrap();
        svc.optimize(&q).unwrap();
        svc.optimize(&q).unwrap();
        let snap = svc.telemetry_snapshot();
        assert_eq!(snap.counters[Metric::Requests], 2);
        assert_eq!(snap.counters[Metric::CacheHit], 1);
        assert!(snap.latency[LatencyPath::EndToEnd].is_empty());
        assert!(snap.topk.is_empty());
    }

    #[test]
    fn head_sampler_details_recorded_requests_deterministically() {
        use starqo_trace::{SpanMode, TraceSampler};
        let cat = catalog();
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").unwrap();
        let service = |spans: SpanMode, sampler: TraceSampler| {
            let telemetry = TelemetryConfig {
                spans,
                sample: Some(sampler),
                ..TelemetryConfig::default()
            };
            let config = ServiceConfig {
                telemetry,
                ..ServiceConfig::default()
            };
            Service::new(Arc::clone(&cat), config).unwrap()
        };
        for sampler in [TraceSampler::all(), TraceSampler::one_in(1 << 30)] {
            let svc = service(SpanMode::Tail, sampler);
            let prepared = svc.prepare(&q);
            let admitted = sampler.admit(prepared.fingerprint().hash);
            svc.optimize_prepared(&prepared, None).unwrap();
            svc.optimize_prepared(&prepared, None).unwrap();
            let counters = svc.counters();
            // The decision is per-request but deterministic on the
            // fingerprint: both requests land on the same side.
            let (expect_sampled, expect_unsampled) = if admitted { (2, 0) } else { (0, 2) };
            assert_eq!(counters[Metric::TraceSampled], expect_sampled);
            assert_eq!(counters[Metric::TraceUnsampled], expect_unsampled);
            // A detailed tree is always kept and carries the optimizer's
            // events; the tail sampler drops these fast undetailed ones.
            let trees = svc.telemetry().span_trees();
            assert!(trees.iter().all(|t| t.retained == "sampled"));
            assert_eq!(trees.len(), expect_sampled as usize);
            let star_refs = trees
                .iter()
                .flat_map(|t| &t.events)
                .filter(|e| matches!(e.event, TraceEvent::StarRef { .. }))
                .count();
            assert_eq!(star_refs > 0, admitted);
        }
        // Spans off: nothing records, so no decision is taken.
        let svc = service(SpanMode::Off, TraceSampler::all());
        svc.optimize(&q).unwrap();
        let counters = svc.counters();
        assert_eq!(
            counters[Metric::TraceSampled] + counters[Metric::TraceUnsampled],
            0
        );
    }

    #[test]
    fn full_span_mode_retains_complete_request_trees() {
        use starqo_trace::SpanMode;
        let cat = catalog();
        let db = database(&cat);
        let svc = Service::new(
            Arc::clone(&cat),
            ServiceConfig {
                telemetry: TelemetryConfig {
                    spans: SpanMode::Full,
                    ..TelemetryConfig::default()
                },
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let q = parse_query(
            &cat,
            "SELECT E.NAME FROM EMP E, DEPT D WHERE D.DNO = E.DNO AND D.MGR = 'M1'",
        )
        .unwrap();
        svc.execute(&db, &q).unwrap(); // cold: full optimize under the lookup
        svc.execute(&db, &q).unwrap(); // warm: plan-cache hit
        let trees = svc.telemetry().span_trees();
        assert_eq!(trees.len(), 2);
        let (cold, warm) = (&trees[0], &trees[1]);
        assert_eq!(
            (cold.retained.as_str(), cold.outcome.as_str()),
            ("full", "miss")
        );
        let s = cold.structure();
        assert!(
            s.starts_with("request(prepare,cache_lookup(optimize(enumerate("),
            "cold structure: {s}"
        );
        assert!(s.contains("star:"), "per-STAR expansion spans: {s}");
        assert!(s.contains("glue"), "glue span: {s}");
        assert!(s.contains("execute(pipeline:"), "executor pipelines: {s}");
        assert_eq!(warm.outcome, "hit");
        let s = warm.structure();
        assert!(
            s.starts_with("request(prepare,cache_lookup,execute(pipeline:"),
            "warm structure: {s}"
        );
        assert!(!s.contains("optimize"), "hits skip optimization: {s}");
        let snap = svc.telemetry_snapshot();
        assert_eq!(snap.counters[Metric::SpansKept], 2);
        assert_eq!(snap.counters[Metric::SpansDropped], 0);
        assert!(snap.span_resident == 2 && snap.span_evicted == 0);
        // Cold-path phases saw the request: prepare + enumerate + execute.
        let phase = |p: Phase| snap.phases[p].1;
        assert_eq!(phase(Phase::Prepare), 2);
        assert_eq!(phase(Phase::Enumerate), 1);
        assert_eq!(phase(Phase::Execute), 2);
        assert_eq!(phase(Phase::CacheLookup) + phase(Phase::FlightWait), 2);
    }

    #[test]
    fn counter_rows_are_stable() {
        let mut c = Counters::default();
        c[Metric::Requests] = 3;
        c[Metric::CacheHit] = 1;
        c[Metric::CacheCoalesced] = 1;
        c[Metric::CacheMiss] = 1;
        assert_eq!(c.iter().next(), Some((Metric::Requests, 3)));
        assert_eq!(c.iter().count(), Metric::COUNT);
        assert!((c.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }
}

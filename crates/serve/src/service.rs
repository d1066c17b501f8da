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
    Counters, LatencyPath, Metric, Phase, SpanContext, Telemetry, TelemetryConfig,
    TelemetrySnapshot, TraceEvent, Tracer,
};
use starqo_vexec::{VexecExecutor, VexecStats};

use crate::admission::OptGate;
use crate::cache::{CacheConfig, PlanCache};
use crate::heal::{reason, within_margin, work_units, Admission, HealConfig, Healer};

/// Sentinel prefix carried inside flight errors when the leader was turned
/// away by admission control, so followers sharing the flight surface the
/// same typed outcome.
const REJECTED_MARKER: &str = "\u{1}rejected\u{1}";

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The optimizer configuration every request runs under. Part of the
    /// cache key: change it and previously cached plans no longer apply.
    pub opt_config: OptConfig,
    /// Plan-cache sizing.
    pub cache: CacheConfig,
    /// Concurrent *cold* optimizations allowed at once (0 = unlimited).
    /// Cache hits are never gated.
    pub max_concurrent_opt: usize,
    /// How long a cold optimization may queue for a slot before the request
    /// is rejected (`None` = wait forever).
    pub max_queue_wait: Option<Duration>,
    /// Default per-request optimization deadline, folded into the budget
    /// (`None` = the budget in `opt_config` as-is).
    pub default_deadline: Option<Duration>,
    /// Live metrics plane sizing and gating. The default reads
    /// `STARQO_TRACE_SAMPLE` for the head sampler and keeps every tier on.
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
            default_deadline: None,
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
    pub optimized: Arc<Optimized>,
    /// Served from the cache (no optimization, no admission).
    pub cache_hit: bool,
    /// Shared a concurrent thread's in-flight optimization.
    pub coalesced: bool,
    /// Catalog epoch the plan belongs to.
    pub epoch: u64,
    /// Cold-optimization wall time this request paid (0 on hits).
    pub opt_nanos: u64,
    /// Cold-optimization wall time this request avoided (0 on misses).
    pub saved_nanos: u64,
    pub fingerprint: QueryFingerprint,
}

/// A thread-safe serving layer: one catalog, one compiled rule set, one
/// plan cache, many worker threads. All methods take `&self`.
pub struct Service {
    catalog: Arc<SharedCatalog>,
    config: ServiceConfig,
    /// Rendered `OptConfig`, the second component of the cache key.
    config_sig: Arc<str>,
    cache: PlanCache,
    gate: OptGate,
    /// The optimizer, tagged with the catalog epoch it plans against. The
    /// rules are compiled once, in `with_shared`; an epoch move swaps the
    /// catalog under them.
    optimizer: RwLock<(u64, Arc<Optimizer>)>,
    telemetry: Arc<Telemetry>,
    tracer: Tracer,
    /// The self-healing schedule, present iff `config.heal` is set.
    healer: Option<Healer>,
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
        let config_sig: Arc<str> = Arc::from(format!("{:?}", config.opt_config).as_str());
        let healer = config.heal.clone().map(Healer::new);
        Ok(Service {
            cache: PlanCache::new(&config.cache),
            gate: OptGate::new(config.max_concurrent_opt),
            optimizer: RwLock::new((epoch, Arc::new(optimizer))),
            telemetry: Arc::new(Telemetry::new(config.telemetry)),
            tracer: Tracer::off(),
            healer,
            config_sig,
            config,
            catalog,
        })
    }

    /// Attach a tracer (builder-style, before sharing the service).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
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
    /// hot-query top-K. See [`TelemetrySnapshot`] for JSON / Prometheus
    /// rendering and interval diffing.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        if let Some(h) = &self.healer {
            snap.heal = h.records();
        }
        snap
    }

    /// Per-fingerprint heal schedules (empty when healing is off).
    pub fn heal_records(&self) -> Vec<starqo_trace::HealRecord> {
        self.healer
            .as_ref()
            .map(Healer::records)
            .unwrap_or_default()
    }

    /// Current counters, folded from the striped plane.
    pub fn counters(&self) -> Counters {
        self.telemetry.fold()
    }

    /// Resident plan-cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Emit the counters as `counter` trace events (the obs `profile`
    /// section reads these back). Deterministic counters only — wall-clock
    /// sums (`*_nanos`) stay out so benchmark gates can enforce the values
    /// exactly.
    pub fn emit_counters(&self) {
        for (m, value) in self.counters().iter() {
            if !m.name().ends_with("_nanos") {
                self.tracer.emit(|| TraceEvent::Counter {
                    name: m.name().to_string(),
                    value,
                });
            }
        }
    }

    /// Optimize a query end-to-end: prepare, then serve.
    pub fn optimize(&self, query: &Query) -> Result<ServeOutcome, ServeError> {
        let ctx = self.telemetry.span_context();
        let root = ctx.enter("request");
        let prepared = self.prepare_spanned(query, &ctx);
        let result = self.serve_prepared(&prepared, None, &ctx);
        drop(root);
        self.retire_spans(
            &ctx,
            prepared.canonical.fingerprint.hash,
            result.as_ref().ok(),
        );
        result
    }

    /// Serve one prepared query, with an optional per-request deadline
    /// overriding the service default. Deadlines fold into the optimizer
    /// budget: an expired deadline *degrades* the plan (anytime semantics)
    /// rather than failing, and degraded plans are shared with concurrent
    /// waiters but never cached.
    pub fn optimize_prepared(
        &self,
        prepared: &Prepared,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, ServeError> {
        let ctx = self.telemetry.span_context();
        let root = ctx.enter("request");
        let result = self.serve_prepared(prepared, deadline, &ctx);
        drop(root);
        self.retire_spans(
            &ctx,
            prepared.canonical.fingerprint.hash,
            result.as_ref().ok(),
        );
        result
    }

    /// [`Self::optimize_prepared`] with the caller's span context — the
    /// wrappers own the request root span and the retire decision.
    fn serve_prepared(
        &self,
        prepared: &Prepared,
        deadline: Option<Duration>,
        ctx: &SpanContext,
    ) -> Result<ServeOutcome, ServeError> {
        let started = Instant::now();
        self.telemetry.add(Metric::Requests, 1);
        let (cat, epoch) = self.catalog.snapshot();
        let fp = &prepared.canonical.fingerprint;
        let fp_text: Arc<str> = Arc::from(fp.text.as_str());
        let tracer = self.request_tracer(fp.hash);

        // The lookup span covers the whole cache interaction: a hit returns
        // immediately, a leader's cold optimization nests its own `optimize`
        // span inside, and a follower blocks here for the flight — in which
        // case the span is renamed `flight_wait` to say what the time *was*.
        let mut lookup_span = ctx.enter(Phase::CacheLookup.name());
        let lookup_started = Instant::now();
        let (result, meta) = self
            .cache
            .serve(&fp_text, &self.config_sig, fp.hash, epoch, || {
                match self.cold_optimize(prepared, &cat, epoch, deadline, &tracer, ctx) {
                    Ok((optimized, nanos)) => {
                        let cacheable = !optimized.degraded;
                        Ok((optimized, nanos, cacheable))
                    }
                    Err(ServeError::Rejected { waited_ms, detail }) => {
                        Err(format!("{REJECTED_MARKER}{waited_ms}\u{1}{detail}"))
                    }
                    Err(e) => Err(e.to_string()),
                }
            });
        let lookup_nanos = lookup_started.elapsed().as_nanos() as u64;
        if meta.coalesced {
            lookup_span.rename(Phase::FlightWait.name());
        }
        drop(lookup_span);

        if meta.invalidated {
            self.telemetry.add(Metric::CacheInvalidate, 1);
            tracer.emit(|| TraceEvent::CacheInvalidate { fp: fp.hash, epoch });
        }
        for (victim_fp, reason) in &meta.evicted {
            self.telemetry.add(Metric::CacheEvict, 1);
            let (victim_fp, reason) = (*victim_fp, *reason);
            tracer.emit(|| TraceEvent::CacheEvict {
                fp: victim_fp,
                reason: reason.to_string(),
            });
        }

        match result {
            Ok((optimized, nanos)) => {
                if meta.hit || meta.coalesced {
                    self.telemetry.record_phase(
                        if meta.coalesced {
                            Phase::FlightWait
                        } else {
                            Phase::CacheLookup
                        },
                        lookup_nanos,
                    );
                    self.telemetry.add(
                        if meta.hit {
                            Metric::CacheHit
                        } else {
                            Metric::CacheCoalesced
                        },
                        1,
                    );
                    self.telemetry.add(Metric::SavedNanos, meta.saved_nanos);
                    self.telemetry
                        .observe(LatencyPath::CacheHit, started.elapsed().as_nanos() as u64);
                    tracer.emit(|| TraceEvent::CacheHit {
                        fp: fp.hash,
                        epoch,
                        saved_nanos: meta.saved_nanos,
                    });
                } else {
                    // A leader's lookup time is dominated by its own cold
                    // optimization (attributed to its optimizer phases);
                    // only the residue is cache bookkeeping.
                    self.telemetry
                        .record_phase(Phase::CacheLookup, lookup_nanos.saturating_sub(nanos));
                    self.telemetry.add(Metric::CacheMiss, 1);
                    self.telemetry.add(Metric::OptNanos, nanos);
                    self.telemetry.observe(LatencyPath::Optimize, nanos);
                    tracer.emit(|| TraceEvent::CacheMiss { fp: fp.hash, epoch });
                }
                let outcome = self.finish(
                    prepared,
                    optimized,
                    meta.hit,
                    meta.coalesced,
                    epoch,
                    nanos,
                    meta.saved_nanos,
                );
                self.finish_request(fp.hash, epoch, started);
                Ok(outcome)
            }
            Err(msg) => Err(self.classify_flight_error(msg)),
        }
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
        let ctx = self.telemetry.span_context();
        let root = ctx.enter("request");
        let prepared = self.prepare_spanned(query, &ctx);
        let result = self.execute_with(db, &prepared, None, &ctx);
        drop(root);
        self.retire_spans(
            &ctx,
            prepared.canonical.fingerprint.hash,
            result.as_ref().ok().map(|(_, o)| o),
        );
        result
    }

    /// [`Self::execute`] for an already-prepared query.
    pub fn execute_prepared(
        &self,
        db: &Database,
        prepared: &Prepared,
        deadline: Option<Duration>,
    ) -> Result<(QueryResult, ServeOutcome), ServeError> {
        let ctx = self.telemetry.span_context();
        let root = ctx.enter("request");
        let result = self.execute_with(db, prepared, deadline, &ctx);
        drop(root);
        self.retire_spans(
            &ctx,
            prepared.canonical.fingerprint.hash,
            result.as_ref().ok().map(|(_, o)| o),
        );
        result
    }

    /// [`Self::execute_prepared`] with the caller's span context: serve,
    /// then run the winning plan under an `execute` span. Execution feedback
    /// is folded in *before* the wrapper retires the span tree, so a run
    /// that flags its own fingerprint is retained as suspect.
    fn execute_with(
        &self,
        db: &Database,
        prepared: &Prepared,
        deadline: Option<Duration>,
        ctx: &SpanContext,
    ) -> Result<(QueryResult, ServeOutcome), ServeError> {
        let outcome = self.serve_prepared(prepared, deadline, ctx)?;
        let query = &prepared.canonical.query;
        let plan = &outcome.optimized.best;
        // One executor: the vectorized engine, inline on this thread. The
        // serial interpreter is its oracle in tests and benches only.
        let exec_span = ctx.enter(Phase::Execute.name());
        let exec_started = Instant::now();
        let mut vx = VexecExecutor::new(db, query);
        vx.set_telemetry(Arc::clone(&self.telemetry));
        vx.set_spans(ctx.clone());
        let result = vx
            .run(plan)
            .map_err(|e| ServeError::Execute(e.to_string()))?;
        drop(exec_span);
        let nanos = exec_started.elapsed().as_nanos() as u64;
        self.telemetry.record_phase(Phase::Execute, nanos);
        // Fold this run's compact actuals into the feedback plane: the
        // cached plan's estimated root cardinality against what actually
        // came out. Counted even when tracing is suppressed; only a
        // *detection* (the sketch's first threshold crossing) reaches the
        // tracer, unsampled — suspect events are rare and load-bearing.
        let fp = outcome.fingerprint.hash;
        let est = outcome.optimized.best.props.card.round().max(0.0) as u64;
        if let Some(v) =
            self.telemetry
                .record_feedback(fp, est, result.rows.len() as u64, nanos, outcome.epoch)
        {
            self.tracer.emit(|| TraceEvent::PlanSuspect {
                fp: v.fp,
                epoch: v.epoch,
                runs: v.runs,
                geomean_q: v.geomean_q,
                max_q: v.max_q,
                reason: v.reason.to_string(),
            });
        }
        // Self-healing: a (possibly long-)suspect fingerprint triggers one
        // in-line re-optimization attempt, gated by single-flight election
        // and the per-fingerprint backoff schedule.
        self.maybe_heal(db, prepared, &outcome, ctx);
        Ok((result, outcome))
    }

    // ---- internals ---------------------------------------------------

    /// [`Self::prepare`] under a `prepare` span (phase attribution lives in
    /// `prepare` itself, so direct callers are counted too).
    fn prepare_spanned(&self, query: &Query, ctx: &SpanContext) -> Prepared {
        let _span = ctx.enter(Phase::Prepare.name());
        self.prepare(query)
    }

    /// Hand a finished request's spans to the tail sampler. Derives the
    /// retention signals from how the request ended: errors and degraded
    /// plans are always kept, the rest ride on latency and suspect state.
    fn retire_spans(&self, ctx: &SpanContext, fp: u64, outcome: Option<&ServeOutcome>) {
        if !ctx.enabled() {
            return;
        }
        let (label, epoch, degraded) = match outcome {
            Some(o) => (
                if o.cache_hit {
                    "hit"
                } else if o.coalesced {
                    "coalesced"
                } else {
                    "miss"
                },
                o.epoch,
                o.optimized.degraded,
            ),
            None => ("error", 0, false),
        };
        self.telemetry
            .retire_spans(ctx, fp, epoch, label, outcome.is_none(), degraded);
    }

    /// The tracer one request's events flow through: the service tracer
    /// when the head sampler admits this fingerprint, the off tracer when
    /// it doesn't. Counts the decision either way (so the sampled /
    /// suppressed split is visible live); with no tracer attached there is
    /// no decision to make.
    fn request_tracer(&self, fp: u64) -> Tracer {
        if !self.tracer.enabled() {
            return Tracer::off();
        }
        if self.telemetry.admit_trace(fp) {
            self.tracer.clone()
        } else {
            Tracer::off()
        }
    }

    /// Close out a request that produced a plan: the end-to-end latency
    /// histogram and the hot-query tracker.
    fn finish_request(&self, fp: u64, epoch: u64, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        self.telemetry.observe(LatencyPath::EndToEnd, nanos);
        self.telemetry.record_request(fp, nanos, epoch);
    }

    /// One gated, budgeted cold optimization against the given snapshot.
    fn cold_optimize(
        &self,
        prepared: &Prepared,
        cat: &Arc<Catalog>,
        epoch: u64,
        deadline: Option<Duration>,
        tracer: &Tracer,
        ctx: &SpanContext,
    ) -> Result<(Arc<Optimized>, u64), ServeError> {
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
        if let Some(d) = deadline.or(self.config.default_deadline) {
            config.budget.deadline = Some(match config.budget.deadline {
                Some(existing) => existing.min(d),
                None => d,
            });
        }
        let opt_span = ctx.enter(LatencyPath::Optimize.name());
        let started = Instant::now();
        let optimized = optimizer
            .optimize_spanned(
                &prepared.canonical.query,
                &config,
                tracer.clone(),
                &self.telemetry,
                ctx,
            )
            .map_err(|e| {
                self.telemetry.add(Metric::Errors, 1);
                ServeError::Optimize(e.to_string())
            })?;
        let nanos = started.elapsed().as_nanos() as u64;
        drop(opt_span);
        // Fold the optimizer's own phase clocks into the cold-path profile.
        for (phase, phase_nanos) in optimized.phase_nanos() {
            self.telemetry.record_phase(phase, phase_nanos);
        }
        if optimized.degraded {
            self.telemetry.add(Metric::Degraded, 1);
        }
        Ok((Arc::new(optimized), nanos))
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

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        prepared: &Prepared,
        optimized: Arc<Optimized>,
        cache_hit: bool,
        coalesced: bool,
        epoch: u64,
        opt_nanos: u64,
        saved_nanos: u64,
    ) -> ServeOutcome {
        ServeOutcome {
            optimized,
            cache_hit,
            coalesced,
            epoch,
            opt_nanos,
            saved_nanos,
            fingerprint: prepared.canonical.fingerprint.clone(),
        }
    }

    /// Map a stringified flight error back to its typed form. Followers of
    /// a rejected leader surface `Rejected` too — nobody optimized on their
    /// behalf.
    fn classify_flight_error(&self, msg: String) -> ServeError {
        if let Some(rest) = msg.strip_prefix(REJECTED_MARKER) {
            let mut parts = rest.splitn(2, '\u{1}');
            let waited_ms = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            let detail = parts.next().unwrap_or("admission").to_string();
            return ServeError::Rejected { waited_ms, detail };
        }
        ServeError::Optimize(msg)
    }

    // ---- self-healing -------------------------------------------------

    /// Act on a suspect fingerprint: elect one healer (single-flight,
    /// non-blocking — losers keep serving the incumbent), consult the
    /// backoff schedule, then run the re-optimization pipeline with every
    /// failure mode contained. The request that triggered the heal pays
    /// for it in-line; nothing here can fail the request.
    fn maybe_heal(
        &self,
        db: &Database,
        prepared: &Prepared,
        outcome: &ServeOutcome,
        ctx: &SpanContext,
    ) {
        let Some(healer) = &self.healer else { return };
        // A degraded incumbent is never cached: there is no entry to swap.
        if outcome.optimized.degraded {
            return;
        }
        let fp = outcome.fingerprint.hash;
        if !self.telemetry.is_suspect(fp) {
            return;
        }
        // Election before admission: a loser must not advance the schedule.
        let Some(mut flight) = healer.try_lead(fp) else {
            return;
        };
        // Re-check under the flight: a concurrent heal that just swapped
        // refreshed the sketch *before* releasing its flight, so winning
        // the election after a swap always observes the un-stuck flag —
        // exactly one heal per suspect episode, even under contention.
        if !self.telemetry.is_suspect(fp) {
            flight.complete(Ok(()));
            return;
        }
        let attempt = match healer.admit(fp, outcome.epoch, healer.now_nanos()) {
            Admission::Proceed { attempt } => attempt,
            Admission::Backoff | Admission::Capped => {
                self.telemetry.add(Metric::ReoptBackoff, 1);
                flight.complete(Ok(()));
                return;
            }
        };
        self.telemetry.add(Metric::ReoptAttempts, 1);
        let epoch = outcome.epoch;
        self.tracer
            .emit(|| TraceEvent::PlanReopt { fp, epoch, attempt });
        let span = ctx.enter(Phase::Reopt.name());
        let started = Instant::now();
        let cfg = healer.config().clone();
        // The whole pipeline is panic-contained: an injected (or real)
        // panic anywhere inside resolves as a typed pin, never an escape.
        let resolution = match catch_unwind(AssertUnwindSafe(|| {
            self.heal_pipeline(db, prepared, outcome, &cfg)
        })) {
            Ok(r) => r,
            Err(_) => HealResolution::Pinned {
                why: reason::REOPT_PANIC,
                failure: true,
            },
        };
        self.telemetry
            .record_phase(Phase::Reopt, started.elapsed().as_nanos() as u64);
        drop(span);
        match resolution {
            HealResolution::Swapped {
                incumbent_work,
                candidate_work,
            } => {
                healer.resolve_swap(fp, epoch);
                self.telemetry.add(Metric::PlanSwap, 1);
                self.tracer.emit(|| TraceEvent::PlanSwap {
                    fp,
                    epoch,
                    incumbent_work,
                    candidate_work,
                });
            }
            HealResolution::Pinned { why, failure } => {
                if failure {
                    self.telemetry.add(Metric::ReoptFailures, 1);
                }
                let (backoff_nanos, capped) =
                    healer.resolve_pin(fp, epoch, why, healer.now_nanos());
                self.telemetry.add(Metric::PlanPinned, 1);
                if capped {
                    self.telemetry.add(Metric::ReoptRetryCapped, 1);
                }
                self.tracer.emit(|| TraceEvent::PlanPinned {
                    fp,
                    epoch,
                    reason: why.to_string(),
                    attempt,
                    backoff_nanos,
                });
            }
        }
        flight.complete(Ok(()));
    }

    /// The pipeline: overlay → re-optimize → verify → probation → swap
    /// CAS. Returns how the attempt resolved; every exit that keeps
    /// the incumbent carries its typed reason. Chaos sites (`reopt:<stage>`
    /// in `STARQO_FAULTS`) fire at each stage boundary.
    fn heal_pipeline(
        &self,
        db: &Database,
        prepared: &Prepared,
        outcome: &ServeOutcome,
        cfg: &HealConfig,
    ) -> HealResolution {
        let pin = |why: &'static str, failure: bool| HealResolution::Pinned { why, failure };
        let fp = outcome.fingerprint.hash;
        let plan_faults = self.config.opt_config.faults.clone();
        // Injected `Error` surfaces as a typed failure; `Panic` unwinds to
        // the caller's catch_unwind; `Stall` burns time and continues.
        let fault = |stage: &'static str| -> bool {
            match plan_faults.as_ref().and_then(|p| p.trigger("reopt", stage)) {
                Some(mode) => faults::fire(mode, "reopt").is_some(),
                None => false,
            }
        };

        // -- overlay: observed cardinalities → a scoped catalog ---------
        cfg.stage("overlay");
        if fault("overlay") {
            return pin(reason::REOPT_ERROR, true);
        }
        let (cat, epoch) = self.catalog.snapshot();
        if epoch != outcome.epoch {
            // The incumbent is already stale; the next cold miss replans
            // under the new epoch anyway.
            return pin(reason::EPOCH_MOVED, false);
        }
        let Some(sketch) = self.telemetry.feedback_sketch(fp) else {
            // Recycled out of the feedback plane between trigger and here.
            return pin(reason::REOPT_ERROR, true);
        };
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
        let sketch_est = sketch.est_rows;
        let overlay_cat = match overlay.materialize() {
            Ok(c) => c,
            Err(_) => return pin(reason::REOPT_ERROR, true),
        };

        // -- re-optimize under the dedicated heal budget ----------------
        cfg.stage("optimize");
        if fault("optimize") {
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
        let candidate = Arc::new(optimized);

        // -- verify: the candidate's rows bit-match the incumbent's -----
        cfg.stage("verify");
        if fault("verify") {
            return pin(reason::REOPT_ERROR, true);
        }
        let Some((inc_rows, inc_stats)) = verify_run(db, query, &outcome.optimized.best) else {
            return pin(reason::REOPT_ERROR, true);
        };
        let Some((cand_rows, cand_stats)) = verify_run(db, query, &candidate.best) else {
            return pin(reason::REOPT_ERROR, true);
        };
        if !rows_equal_multiset(&inc_rows.rows, &cand_rows.rows) {
            return pin(reason::VERIFY_MISMATCH, false);
        }

        // -- probation A/B over the verify runs' work units --------------
        // Every counter `work_units` reads is deterministic per (plan,
        // database), so re-running either side could not change the verdict.
        cfg.stage("probation");
        if fault("probation") {
            return pin(reason::REOPT_ERROR, true);
        }
        let incumbent_work = work_units(&inc_stats);
        let candidate_work = work_units(&cand_stats);
        if !within_margin(incumbent_work, candidate_work, cfg.regression_margin) {
            // The incumbent just beat a freshly optimized candidate in a
            // paired A/B: its suspect verdict is refuted, not merely
            // deferred. Refresh its feedback window (estimate unchanged)
            // so it is re-judged on new observations instead of staying
            // sticky-suspect and burning retries against a plan that
            // cannot be improved under current statistics.
            self.telemetry.refresh_feedback(fp, sketch_est, epoch);
            return pin(reason::REGRESSION, false);
        }

        // -- swap CAS: only into the world the candidate was built for --
        cfg.stage("reopt_done");
        cfg.stage("swap");
        if fault("swap") {
            return pin(reason::REOPT_ERROR, true);
        }
        if self.catalog.epoch() != epoch {
            return pin(reason::EPOCH_MOVED, false);
        }
        let fp_text: Arc<str> = Arc::from(outcome.fingerprint.text.as_str());
        if !self.cache.swap_if_epoch(
            &fp_text,
            &self.config_sig,
            fp,
            epoch,
            Arc::clone(&candidate),
            opt_nanos,
        ) {
            return pin(reason::EPOCH_MOVED, false);
        }
        // Un-stick the suspect flag and restart the Q-error window against
        // the healed plan's estimate — the whole point of the exercise.
        let new_est = if corrected {
            candidate.best.props.card.round().max(0.0) as u64
        } else {
            sketch_est
        };
        self.telemetry.refresh_feedback(fp, new_est, epoch);
        HealResolution::Swapped {
            incumbent_work,
            candidate_work,
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

    #[test]
    fn feedback_plane_flags_drifted_plan_and_emits_the_event() {
        use starqo_trace::{MemorySink, SuspectConfig, TelemetryConfig};
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
        let sink = Arc::new(MemorySink::new());
        let svc = Service::new(
            Arc::clone(&cat),
            ServiceConfig {
                telemetry: TelemetryConfig {
                    suspect: SuspectConfig {
                        min_runs: 3,
                        ..SuspectConfig::default()
                    },
                    ..TelemetryConfig::default()
                },
                ..ServiceConfig::default()
            },
        )
        .unwrap()
        .with_tracer(Tracer::shared(sink.clone()));
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
        let suspects = svc.telemetry().suspects();
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].runs, 5, "sketch keeps folding after the flag");
        assert!(suspects[0].geomean_q().unwrap() > 4.0);
        let tsnap = svc.telemetry_snapshot();
        assert_eq!(tsnap.qerror.len(), 1);
        assert_eq!(tsnap.suspects().len(), 1);
        assert_eq!(tsnap.qerror[0].actual_min, 200);
        // The detection reached the tracer as a typed event, once.
        let suspect_events: Vec<_> = sink
            .events()
            .into_iter()
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
    fn emit_counters_covers_every_counter_but_the_nanos() {
        use starqo_trace::MemorySink;
        let cat = catalog();
        let db = database(&cat);
        let sink = Arc::new(MemorySink::new());
        let svc = Service::new(Arc::clone(&cat), ServiceConfig::default())
            .unwrap()
            .with_tracer(Tracer::shared(sink.clone()));
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").unwrap();
        svc.execute(&db, &q).unwrap();
        let before = sink.events().len();
        svc.emit_counters();
        let emitted: Vec<(String, u64)> = sink.events()[before..]
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { name, value } => Some((name.clone(), *value)),
                _ => None,
            })
            .collect();
        let expect: Vec<(String, u64)> = Metric::ALL
            .iter()
            .filter(|m| !m.name().ends_with("_nanos"))
            .map(|m| (m.name().to_string(), svc.telemetry().get(*m)))
            .collect();
        assert_eq!(emitted, expect);
        assert!(emitted
            .iter()
            .any(|(n, v)| n == "vexec_morsels_queued" && *v > 0));
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
    fn head_sampler_gates_the_request_tracer_deterministically() {
        use starqo_trace::{MemorySink, TraceSampler};
        let cat = catalog();
        let sampler = TraceSampler::one_in(1 << 30);
        let sink = Arc::new(MemorySink::new());
        let svc = Service::new(
            Arc::clone(&cat),
            ServiceConfig {
                telemetry: TelemetryConfig {
                    sample: sampler,
                    ..TelemetryConfig::default()
                },
                ..ServiceConfig::default()
            },
        )
        .unwrap()
        .with_tracer(Tracer::shared(sink.clone()));
        let q = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").unwrap();
        let prepared = svc.prepare(&q);
        let admitted = sampler.admit(prepared.fingerprint().hash);
        svc.optimize_prepared(&prepared, None).unwrap();
        svc.optimize_prepared(&prepared, None).unwrap();
        let counters = svc.counters();
        // The decision is per-request but deterministic on the fingerprint:
        // both requests land on the same side of the sampler.
        let (expect_sampled, expect_unsampled) = if admitted { (2, 0) } else { (0, 2) };
        assert_eq!(counters[Metric::TraceSampled], expect_sampled);
        assert_eq!(counters[Metric::TraceUnsampled], expect_unsampled);
        assert_eq!(sink.events().is_empty(), !admitted);
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

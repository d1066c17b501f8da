//! Request-scoped span trees with tail-based retention: the one record of
//! a request.
//!
//! Three cooperating pieces:
//!
//! - [`SpanContext`]: a per-request recorder threaded through
//!   `Service::{prepare,optimize,execute}`, the optimizer (per-STAR
//!   expansion, glue) and the executors. [`SpanContext::enter`] returns an
//!   RAII [`SpanGuard`]; the guard's drop appends one [`SpanRecord`] to the
//!   request's buffer with nanosecond offsets from the request's own
//!   monotonic clock. Typed [`TraceEvent`]s land on the same buffer as
//!   timestamped [`SpanEvent`] annotations: [`SpanContext::annotate`] for
//!   serve-level events (every recorded tree), [`SpanContext::detail`] for
//!   the engine's, plan table's, Glue's and executors' (a *detailed* tree
//!   only — the head decision, taken once the fingerprint is known). An
//!   off context (span tracing disabled) reduces every call to an
//!   `Option` check; an event closure runs only when its event is kept.
//! - [`TailSampler`]: the retention decision taken *at request
//!   completion* — keep the full tree for requests that were slow
//!   (latency above a configured quantile of the live end-to-end
//!   histogram), errored, degraded, or touched a suspect fingerprint;
//!   drop-and-count the rest. A detailed tree is always kept (and never
//!   capped): the head sampler (`STARQO_TRACE_SAMPLE`) chose it before it
//!   could know whether it would be interesting.
//! - [`SpanStore`]: a bounded, sharded store of retained [`SpanTree`]s,
//!   recycled FIFO like the feedback plane's sketches — memory stays
//!   fixed however many requests flow past, and evictions are counted so
//!   the doctor can flag an undersized store.
//!
//! Trees serialize as one-line JSON (JSONL streams, tolerant reader) and
//! export as Chrome `trace_event` JSON for `about://tracing`; both forms
//! come from the `record!` tables of [`SpanTree`], [`SpanRecord`] and
//! [`SpanEvent`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::TraceEvent;
use crate::json::JsonObj;
use crate::read::{parse_json, JsonValue};
use crate::record::{Field, Record};
use crate::runmem::{self, RunMemory};

/// Span tracing mode for a telemetry plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanMode {
    /// No span recording at all (zero per-request cost).
    #[default]
    Off,
    /// Record every request, retain only what the tail sampler keeps.
    Tail,
    /// Record and retain every request (tests, offline analysis).
    Full,
}

/// Tail-sampler thresholds. The slow test compares a finished request's
/// root-span nanos against `quantile` of the live histogram of retired
/// root-span totals (the same quantity, so the comparison is
/// apples-to-apples even when a request path skips prepare); the
/// threshold is cached and refreshed every `refresh_every` decisions so
/// the per-request cost is one relaxed load, not a 64-stripe fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailConfig {
    /// Quantile of the retired-totals histogram above which a request
    /// counts as slow.
    pub quantile: f64,
    /// Histogram population below which the slow test abstains (a cold
    /// plane has no meaningful quantiles).
    pub min_samples: u64,
    /// Recompute the cached threshold every N retention decisions.
    pub refresh_every: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            quantile: 0.99,
            min_samples: 128,
            refresh_every: 256,
        }
    }
}

/// A span's name, never built per span on the recording path: serve-layer
/// phase names are literals, and the optimizer's `star:<Name>` is a handle
/// on the string rendered when the rule was compiled. Deserialized names
/// own theirs.
#[derive(Clone)]
pub enum SpanName {
    Static(&'static str),
    Shared(Arc<str>),
}

impl std::ops::Deref for SpanName {
    type Target = str;
    fn deref(&self) -> &str {
        match self {
            SpanName::Static(s) => s,
            SpanName::Shared(s) => s,
        }
    }
}

impl PartialEq for SpanName {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SpanName {}

impl std::fmt::Debug for SpanName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl std::fmt::Display for SpanName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self)
    }
}

impl From<&'static str> for SpanName {
    fn from(s: &'static str) -> Self {
        SpanName::Static(s)
    }
}

impl From<String> for SpanName {
    fn from(s: String) -> Self {
        SpanName::Shared(s.into())
    }
}

impl From<Arc<str>> for SpanName {
    fn from(s: Arc<str>) -> Self {
        SpanName::Shared(s)
    }
}

impl Default for SpanName {
    fn default() -> Self {
        SpanName::Static("")
    }
}

record! {
    /// One closed span: offsets are nanos from the owning request's start.
    /// `parent` is the enclosing span's id (0 = the root has no parent; real
    /// ids start at 1). `meta` is span-specific payload — the engine's
    /// `star_ref` id for `star:*` spans, row counts for pipelines, 0 elsewhere.
    /// A Chrome span event carries the name itself and the rest in `args`.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct SpanRecord {
        pub id: u32,
        pub parent: u32,
        pub name: SpanName,
        pub start_nanos: u64 = "start",
        pub end_nanos: u64 = "end",
        pub meta: u64,
    }
    args { id, parent, start_nanos, end_nanos, meta }
}

record! {
    /// One typed event annotated on a recorded request: `span` is the
    /// innermost span open when it happened (0 = none), `at` its offset in
    /// nanos from the request's start. The event is written flattened
    /// beside them, led by its `"type"`; a Chrome instant event carries
    /// the kind as its name and the whole record in `args`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpanEvent {
        pub span: u32,
        pub at: u64,
        pub event: TraceEvent,
    }
}

record! {
    /// A finished request's retained span tree plus the request-level facts
    /// the tail sampler judged it by. A Chrome export's per-request metadata
    /// event carries every field but the spans and events in `args`.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct SpanTree {
        /// Plane-unique request id (also the Chrome export's `tid`).
        pub request_id: u64,
        /// The request's query fingerprint.
        pub fp: u64,
        /// Catalog epoch the request served against (0 on error paths).
        pub epoch: u64,
        /// End-to-end nanos for the whole request.
        pub total_nanos: u64,
        /// How the serve resolved: "hit", "coalesced", "miss", or "error".
        pub outcome: String,
        /// The plan was degraded by budget exhaustion.
        pub degraded: bool,
        /// The fingerprint was suspect when the request finished.
        pub suspect: bool,
        /// Why the tree was kept: "sampled" (a detailed tree), the tail
        /// sampler's "slow", "error", "degraded" or "suspect", or "full"
        /// when the mode retains everything.
        pub retained: String,
        /// Spans discarded because the per-request buffer cap was hit.
        pub dropped: u32,
        /// Spans in completion order (children close before parents).
        pub spans: Vec<SpanRecord>,
        /// Events annotated on the request, in the order they happened.
        pub events: Vec<SpanEvent>,
    }
    args { request_id, fp, epoch, total_nanos, outcome, degraded, suspect, retained, dropped }
}

impl SpanTree {
    /// Spans sorted for display: by start offset, ties by id (enter
    /// order). Completion order interleaves children and parents; this
    /// restores the waterfall order.
    pub fn ordered(&self) -> Vec<&SpanRecord> {
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_nanos, s.id));
        spans
    }

    /// A canonical structural digest: span names nested by parent links,
    /// children in enter order, timings excluded. Two runs of the same
    /// request on the same plane produce byte-identical digests however
    /// the clock jitters — the serial-oracle bit-match tests compare
    /// these.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        let roots: Vec<&SpanRecord> = self.ordered().into_iter().collect();
        for span in roots.iter().filter(|s| s.parent == 0) {
            Self::write_structure(span, &roots, &mut out);
        }
        out
    }

    fn write_structure(span: &SpanRecord, all: &[&SpanRecord], out: &mut String) {
        out.push_str(&span.name);
        let children: Vec<&&SpanRecord> = all.iter().filter(|s| s.parent == span.id).collect();
        if !children.is_empty() {
            out.push('(');
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                Self::write_structure(child, all, out);
            }
            out.push(')');
        }
    }

    /// Depth of a span under the parent links (root = 0). Malformed
    /// parents (absent ids) count as roots.
    pub fn depth_of(&self, span: &SpanRecord) -> usize {
        let mut depth = 0;
        let mut parent = span.parent;
        while parent != 0 {
            match self.spans.iter().find(|s| s.id == parent) {
                Some(p) => {
                    depth += 1;
                    parent = p.parent;
                }
                None => break,
            }
            if depth > self.spans.len() {
                break; // cycle guard: malformed input must not hang us
            }
        }
        depth
    }
}

/// Read a JSONL stream of span trees. Tolerant: blank lines are ignored,
/// unparseable lines (a truncated tail, an interleaved partial write) are
/// counted and skipped rather than failing the whole stream. Returns the
/// parsed trees in stream order plus the skipped-line count.
pub fn read_span_trees(text: &str) -> (Vec<SpanTree>, usize) {
    let mut trees = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match SpanTree::from_json(line) {
            Some(tree) => trees.push(tree),
            None => skipped += 1,
        }
    }
    (trees, skipped)
}

/// Export trees as Chrome `trace_event` JSON (the object form with a
/// `traceEvents` array), loadable in `about://tracing` / Perfetto. Each
/// request becomes one `tid`; every span is a complete ("X") event and
/// every annotated event a thread-scoped instant ("i") event, both with
/// microsecond `ts`, and a per-request metadata ("M") event carries the
/// tree-level fields so [`from_chrome_trace`] round-trips exactly.
pub fn to_chrome_trace(trees: &[SpanTree]) -> String {
    let mut events = Vec::new();
    for t in trees {
        let label = JsonObj::new().str("name", &format!("req {:#x} {}", t.fp, t.outcome));
        events.push(
            JsonObj::new()
                .str("name", "thread_name")
                .str("ph", "M")
                .u64("pid", 1)
                .u64("tid", t.request_id)
                .raw("args", &t.write_args(label).finish())
                .finish(),
        );
        for s in &t.spans {
            let args = s.write_args(JsonObj::new()).finish();
            events.push(
                JsonObj::new()
                    .str("name", &s.name)
                    .str("cat", "starqo")
                    .str("ph", "X")
                    .u64("pid", 1)
                    .u64("tid", t.request_id)
                    .u64("ts", s.start_nanos / 1_000)
                    .u64("dur", (s.end_nanos.saturating_sub(s.start_nanos)) / 1_000)
                    .raw("args", &args)
                    .finish(),
            );
        }
        for e in &t.events {
            events.push(
                JsonObj::new()
                    .str("name", e.event.kind())
                    .str("cat", "starqo")
                    .str("ph", "i")
                    .str("s", "t")
                    .u64("pid", 1)
                    .u64("tid", t.request_id)
                    .u64("ts", e.at / 1_000)
                    .raw("args", &e.write_fields(JsonObj::new()).finish())
                    .finish(),
            );
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

/// Parse a [`to_chrome_trace`] export back into span trees (exact
/// round-trip: the `args` carry full-precision nanos). Trees come back
/// ordered by request id.
pub fn from_chrome_trace(text: &str) -> Result<Vec<SpanTree>, String> {
    let v = parse_json(text).map_err(|e| format!("chrome trace JSON: {e}"))?;
    let events = match v.get("traceEvents") {
        Some(JsonValue::Arr(items)) => items,
        _ => return Err("chrome trace missing traceEvents".to_string()),
    };
    let mut trees: Vec<SpanTree> = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let tid = e
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or("event missing tid")?;
        let args = e.get("args").ok_or("event missing args")?;
        if ph == "M" {
            trees.push(SpanTree::read_args(args).ok_or("malformed metadata event")?);
            continue;
        }
        if ph != "X" && ph != "i" {
            continue;
        }
        let tree = trees
            .iter_mut()
            .find(|t| t.request_id == tid)
            .ok_or("span or instant event before its metadata event")?;
        if ph == "X" {
            let mut span = SpanRecord::read_args(args).ok_or("malformed span event")?;
            span.name = SpanName::read_field(e, "name").ok_or("span event missing name")?;
            tree.spans.push(span);
        } else {
            tree.events
                .push(SpanEvent::read_fields(args).ok_or("malformed instant event")?);
        }
    }
    trees.sort_by_key(|t| t.request_id);
    Ok(trees)
}

/// The mutable per-request state behind one [`SpanContext`]. One request
/// is recorded by one thread at a time, so the mutex is uncontended — it
/// exists so clones of the context (engine, executor) stay `Send`.
#[derive(Debug)]
struct SpanBuf {
    request_id: u64,
    started: Instant,
    cap: usize,
    records: Vec<SpanRecord>,
    next_id: u32,
    /// Open-span stack; the top is the parent for the next `enter`.
    stack: Vec<u32>,
    dropped: u32,
    events: Vec<SpanEvent>,
}

#[derive(Debug)]
struct SpanInner {
    /// The head decision: record every detail event, cap no span. Read
    /// outside the lock on every [`SpanContext::detail`] call.
    detailed: AtomicBool,
    buf: Mutex<SpanBuf>,
}

/// A retired request's span buffer (the `Arc`, the record vector, the
/// open-span stack), parked in the thread's run memory for its next request,
/// so steady-state span recording allocates nothing. One buffer a thread, no
/// larger than one request made it: bounded by construction.
#[derive(Default)]
struct ParkedSpans(Option<Arc<SpanInner>>);

impl RunMemory for ParkedSpans {}

/// A cloneable handle to one request's span recorder, or a no-op when
/// span tracing is off. Threaded from the service through the optimizer
/// engine and the executor; every clone appends to the same buffer.
#[derive(Debug, Clone, Default)]
pub struct SpanContext {
    inner: Option<Arc<SpanInner>>,
}

impl SpanContext {
    /// The disabled context: every operation is a no-op.
    pub fn off() -> SpanContext {
        SpanContext { inner: None }
    }

    /// A live recorder for one request. `cap` bounds the per-request span
    /// buffer; overflow is counted, not grown. Reuses the buffer parked in
    /// this thread's run memory when there is one.
    pub fn start(request_id: u64, cap: usize) -> SpanContext {
        if let Some(mut arc) = runmem::check_out::<ParkedSpans>().0 {
            // Sole ownership proves no clone from the previous request can
            // still record into this buffer.
            if let Some(inner) = Arc::get_mut(&mut arc) {
                *inner.detailed.get_mut() = false;
                let buf = inner.buf.get_mut().unwrap_or_else(|p| p.into_inner());
                buf.request_id = request_id;
                buf.started = Instant::now();
                buf.cap = cap.max(1);
                buf.records.clear();
                buf.next_id = 0;
                buf.stack.clear();
                buf.dropped = 0;
                buf.events.clear();
                return SpanContext { inner: Some(arc) };
            }
        }
        SpanContext {
            inner: Some(Arc::new(SpanInner {
                detailed: AtomicBool::new(false),
                buf: Mutex::new(SpanBuf {
                    request_id,
                    started: Instant::now(),
                    cap: cap.max(1),
                    // Sized for the common request shape (a handful of
                    // serve-layer spans) so the hot path never reallocates.
                    records: Vec::with_capacity(cap.clamp(1, 8)),
                    next_id: 0,
                    stack: Vec::with_capacity(4),
                    dropped: 0,
                    events: Vec::new(),
                }),
            })),
        }
    }

    /// A detailed recorder outside any telemetry plane (examples, workload
    /// runners): every event is kept and no span is capped.
    pub fn detailed(request_id: u64) -> SpanContext {
        let ctx = SpanContext::start(request_id, super::SPAN_CAP);
        ctx.set_detailed(true);
        ctx
    }

    /// Whether spans are being recorded (callers gate allocation-heavy
    /// name formatting on this).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this request records detail events (false when off).
    #[inline]
    pub fn is_detailed(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.detailed.load(Ordering::Relaxed))
    }

    /// Take the head decision for this request; a no-op when off.
    pub fn set_detailed(&self, detailed: bool) {
        if let Some(inner) = &self.inner {
            inner.detailed.store(detailed, Ordering::Relaxed);
        }
    }

    /// Annotate a serve-level event on any recorded request. The closure
    /// runs only when the context records.
    #[inline]
    pub fn annotate(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.push(make());
        }
    }

    /// Annotate an engine, plan-table, Glue or executor event: kept only
    /// on a detailed request, the closure never runs otherwise.
    #[inline]
    pub fn detail(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            if inner.detailed.load(Ordering::Relaxed) {
                inner.push(make());
            }
        }
    }

    /// Nanos since the request started (its own monotonic clock).
    pub fn elapsed_nanos(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| nanos_since(i.lock().started))
            .unwrap_or(0)
    }

    /// Park this request's buffer in the thread's run memory so the next
    /// request can reuse its allocations. Called once per request at
    /// retirement; a no-op when off.
    pub fn recycle(&self) {
        if let Some(inner) = &self.inner {
            runmem::park(ParkedSpans(Some(Arc::clone(inner))), 0);
        }
    }

    /// Open a span under the current innermost open span. The returned
    /// guard records on drop; spans therefore appear in completion order.
    pub fn enter(&self, name: impl Into<SpanName>) -> SpanGuard {
        self.enter_meta(name, 0)
    }

    /// [`Self::enter`] with an initial `meta` payload.
    pub fn enter_meta(&self, name: impl Into<SpanName>, meta: u64) -> SpanGuard {
        let Some(inner) = self.inner.as_ref() else {
            return SpanGuard::noop();
        };
        let (id, parent, start_nanos) = {
            let mut buf = inner.lock();
            buf.next_id += 1;
            let id = buf.next_id;
            let parent = buf.stack.last().copied().unwrap_or(0);
            buf.stack.push(id);
            (id, parent, nanos_since(buf.started))
        };
        SpanGuard {
            inner: Some(Arc::clone(inner)),
            id,
            parent,
            name: name.into(),
            start_nanos,
            meta,
        }
    }

    /// Close out the request: drain the buffer into a [`SpanTree`].
    /// Returns `None` when off or nothing was recorded. The context stays
    /// usable but empty afterwards (finish is called exactly once, at the
    /// outermost service entry point).
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        fp: u64,
        epoch: u64,
        total_nanos: u64,
        outcome: &str,
        degraded: bool,
        suspect: bool,
        retained: &str,
    ) -> Option<SpanTree> {
        let inner = self.inner.as_ref()?;
        let mut buf = inner.lock();
        if buf.records.is_empty() && buf.events.is_empty() {
            return None;
        }
        Some(SpanTree {
            request_id: buf.request_id,
            fp,
            epoch,
            total_nanos,
            outcome: outcome.to_string(),
            degraded,
            suspect,
            retained: retained.to_string(),
            spans: std::mem::take(&mut buf.records),
            dropped: std::mem::take(&mut buf.dropped),
            events: std::mem::take(&mut buf.events),
        })
    }
}

/// RAII handle for one open span; records on drop. A guard from an off
/// context does nothing.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<SpanInner>>,
    id: u32,
    parent: u32,
    name: SpanName,
    start_nanos: u64,
    meta: u64,
}

impl SpanGuard {
    /// The do-nothing guard (off context, or a call site that spans
    /// conditionally).
    pub fn noop() -> SpanGuard {
        SpanGuard {
            inner: None,
            id: 0,
            parent: 0,
            name: SpanName::Static(""),
            start_nanos: 0,
            meta: 0,
        }
    }

    /// Rename the span before it closes (e.g. `cache_lookup` becomes
    /// `flight_wait` once the serve reports it coalesced).
    pub fn rename(&mut self, name: impl Into<SpanName>) {
        if self.inner.is_some() {
            self.name = name.into();
        }
    }

    /// Attach or replace the payload before the span closes.
    pub fn set_meta(&mut self, meta: u64) {
        self.meta = meta;
    }
}

impl SpanInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, SpanBuf> {
        self.buf.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Append one event under the innermost open span.
    fn push(&self, event: TraceEvent) {
        EVENTS_CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.lock();
        let at = nanos_since(buf.started);
        let span = buf.stack.last().copied().unwrap_or(0);
        buf.events.push(SpanEvent { span, at, event });
    }
}

/// Global count of trace events ever constructed in this process. Only
/// advanced when an annotation is kept; tests use it to verify that an off
/// or undetailed context never builds a detail event.
static EVENTS_CONSTRUCTED: AtomicU64 = AtomicU64::new(0);

/// Total trace events constructed so far in this process.
pub fn events_constructed() -> u64 {
    EVENTS_CONSTRUCTED.load(Ordering::Relaxed)
}

/// Nanos elapsed since `started`, saturating.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let mut buf = inner.lock();
        let end_nanos = nanos_since(buf.started);
        // Unwind to this span: guards drop innermost-first on the happy
        // path, but a panic-unwound scope may skip intermediates.
        while let Some(top) = buf.stack.pop() {
            if top == self.id {
                break;
            }
        }
        if buf.records.len() >= buf.cap && !inner.detailed.load(Ordering::Relaxed) {
            buf.dropped += 1;
            return;
        }
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::replace(&mut self.name, SpanName::Static("")),
            start_nanos: self.start_nanos,
            end_nanos,
            meta: self.meta,
        };
        buf.records.push(record);
    }
}

/// Why the tail sampler kept a tree (`None` = drop).
pub type TailVerdict = Option<&'static str>;

/// The tail-based retention decision. Thread-safe; one instance per
/// telemetry plane.
#[derive(Debug)]
pub struct TailSampler {
    config: TailConfig,
    /// Cached slow threshold in nanos (0 = not yet established).
    threshold: AtomicU64,
    decisions: AtomicU64,
}

impl TailSampler {
    pub fn new(config: TailConfig) -> TailSampler {
        TailSampler {
            config,
            threshold: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        }
    }

    /// The current cached slow threshold in nanos (0 = none yet).
    pub fn threshold_nanos(&self) -> u64 {
        self.threshold.load(Ordering::Relaxed)
    }

    /// Decide retention for one finished request. `quantile_of` reads the
    /// live retired-totals histogram — called only on refresh ticks, so
    /// its cost is amortized over `refresh_every` requests.
    pub fn decide(
        &self,
        total_nanos: u64,
        errored: bool,
        degraded: bool,
        suspect: bool,
        quantile_of: impl Fn(f64) -> Option<(u64, u64)>,
    ) -> TailVerdict {
        if errored {
            return Some("error");
        }
        if degraded {
            return Some("degraded");
        }
        if suspect {
            return Some("suspect");
        }
        let n = self.decisions.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(self.config.refresh_every.max(1)) {
            if let Some((value, count)) = quantile_of(self.config.quantile) {
                if count >= self.config.min_samples {
                    self.threshold.store(value.max(1), Ordering::Relaxed);
                }
            }
        }
        let threshold = self.threshold.load(Ordering::Relaxed);
        (threshold > 0 && total_nanos > threshold).then_some("slow")
    }
}

/// The bounded, sharded store of retained trees. FIFO per shard: when a
/// shard is full the oldest resident tree is recycled for the newcomer
/// and counted as evicted. Sharding by request id keeps concurrent
/// retirements off each other's locks.
pub struct SpanStore {
    shards: Box<[Mutex<StoreShard>]>,
    mask: usize,
    shard_cap: usize,
    evicted: AtomicU64,
}

#[derive(Debug, Default)]
struct StoreShard {
    trees: VecDeque<SpanTree>,
}

impl std::fmt::Debug for SpanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanStore")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .finish()
    }
}

impl SpanStore {
    /// A store retaining at most ~`capacity` trees across `shards` shards
    /// (both rounded up so every shard holds at least one tree).
    pub fn new(shards: usize, capacity: usize) -> SpanStore {
        let n = shards.max(1).next_power_of_two();
        let shard_cap = capacity.max(1).div_ceil(n);
        SpanStore {
            shards: (0..n).map(|_| Mutex::new(StoreShard::default())).collect(),
            mask: n - 1,
            shard_cap,
            evicted: AtomicU64::new(0),
        }
    }

    /// Retain one tree, recycling the shard's oldest if full.
    pub fn record(&self, tree: SpanTree) {
        let shard = &self.shards[(tree.request_id as usize) & self.mask];
        let mut guard = shard.lock().unwrap_or_else(|p| p.into_inner());
        if guard.trees.len() >= self.shard_cap {
            guard.trees.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        guard.trees.push_back(tree);
    }

    /// Every resident tree, request id ascending.
    pub fn trees(&self) -> Vec<SpanTree> {
        let mut all: Vec<SpanTree> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .trees
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|t| t.request_id);
        all
    }

    /// Resident tree count.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).trees.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total retention capacity (shards × per-shard cap).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shard_cap
    }

    /// Trees recycled to make room since the store was created.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(names: &[(&str, u32)]) -> SpanTree {
        // names: (name, parent) with ids assigned 1..; offsets synthetic.
        SpanTree {
            request_id: 7,
            fp: 0xFEED,
            epoch: 2,
            total_nanos: 5_000,
            outcome: "miss".to_string(),
            degraded: false,
            suspect: true,
            retained: "suspect".to_string(),
            spans: names
                .iter()
                .enumerate()
                .map(|(i, (name, parent))| SpanRecord {
                    id: u32::try_from(i).unwrap() + 1,
                    parent: *parent,
                    name: (*name).to_string().into(),
                    start_nanos: (i as u64) * 100,
                    end_nanos: (i as u64) * 100 + 50,
                    meta: i as u64,
                })
                .collect(),
            dropped: 0,
            events: Vec::new(),
        }
    }

    #[test]
    fn guards_record_parent_links_and_offsets() {
        let ctx = SpanContext::start(42, 64);
        {
            let _root = ctx.enter("request");
            {
                let mut g = ctx.enter("cache_lookup");
                g.rename("flight_wait");
                g.set_meta(9);
            }
            {
                let _opt = ctx.enter("optimize");
                let _star = ctx.enter_meta("star:JOIN", 3);
            }
        }
        let tree = ctx
            .finish(0xAB, 1, ctx.elapsed_nanos(), "miss", false, false, "full")
            .expect("tree");
        assert_eq!(tree.request_id, 42);
        // Completion order: flight_wait, star, optimize, request.
        let names: Vec<&str> = tree.spans.iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(
            names,
            vec!["flight_wait", "star:JOIN", "optimize", "request"]
        );
        assert_eq!(tree.structure(), "request(flight_wait,optimize(star:JOIN))");
        let flight = &tree.spans[0];
        assert_eq!((flight.meta, flight.parent), (9, 1));
        let star = &tree.spans[1];
        assert_eq!(star.meta, 3);
        assert!(star.start_nanos <= star.end_nanos);
        assert_eq!(tree.depth_of(star), 2);
        // Finish drained the buffer: a second finish yields nothing.
        assert!(ctx
            .finish(0xAB, 1, 0, "miss", false, false, "full")
            .is_none());
    }

    #[test]
    fn a_thread_reuses_its_retired_buffer_from_its_second_request() {
        std::thread::spawn(|| {
            // A first request that outgrows a fresh buffer's 8 records.
            let first = SpanContext::start(1, 64);
            for _ in 0..20 {
                drop(first.enter("request"));
            }
            let buf = Arc::as_ptr(first.inner.as_ref().unwrap());
            first.recycle();
            drop(first);
            // The same buffer, emptied for its new request, its records'
            // capacity kept.
            let next = SpanContext::start(2, 8);
            let inner = next.inner.as_ref().unwrap();
            assert_eq!(Arc::as_ptr(inner), buf);
            assert!(inner.buf.lock().unwrap().records.capacity() >= 20);
            drop(next.enter("serve"));
            let tree = next.finish(0, 0, 0, "hit", false, false, "full").unwrap();
            assert_eq!(
                (tree.request_id, tree.structure()),
                (2, "serve".to_string())
            );
            // One still shared with a live clone is not reused.
            let held = next.clone();
            next.recycle();
            drop(next);
            let other = SpanContext::start(3, 8);
            assert_ne!(Arc::as_ptr(other.inner.as_ref().unwrap()), buf);
            drop(held);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn off_context_is_inert() {
        let ctx = SpanContext::off();
        assert!(!ctx.enabled());
        let mut g = ctx.enter("anything");
        g.rename("still nothing");
        drop(g);
        assert!(ctx.finish(1, 1, 1, "hit", false, false, "full").is_none());
        assert_eq!(ctx.elapsed_nanos(), 0);
    }

    #[test]
    fn buffer_cap_drops_and_counts() {
        let ctx = SpanContext::start(1, 2);
        let _root = ctx.enter("request");
        for i in 0..5 {
            let _g = ctx.enter(format!("s{i}"));
        }
        drop(_root);
        let tree = ctx
            .finish(1, 1, 100, "hit", false, false, "full")
            .expect("tree");
        assert_eq!(tree.spans.len(), 2);
        // 5 leaf spans + the root = 6 closes, 2 retained.
        assert_eq!(tree.dropped, 4);
    }

    #[test]
    fn a_detailed_request_is_not_capped() {
        let ctx = SpanContext::start(1, 2);
        ctx.set_detailed(true);
        {
            let _root = ctx.enter("request");
            for i in 0..5 {
                let _g = ctx.enter(format!("s{i}"));
            }
        }
        let tree = ctx
            .finish(1, 1, 100, "miss", false, false, "sampled")
            .expect("tree");
        assert_eq!((tree.spans.len(), tree.dropped), (6, 0));
    }

    #[test]
    fn events_land_under_the_innermost_span_and_detail_needs_the_head_decision() {
        let ctx = SpanContext::start(3, 64);
        {
            let _root = ctx.enter("request");
            ctx.annotate(|| TraceEvent::CacheMiss { fp: 1, epoch: 0 });
            ctx.detail(|| panic!("an undetailed request never builds detail"));
            ctx.set_detailed(true);
            let _star = ctx.enter_meta("star:JOIN", 1);
            ctx.detail(|| TraceEvent::QueryStart { name: "q".into() });
        }
        let tree = ctx
            .finish(1, 0, 100, "miss", false, false, "sampled")
            .expect("tree");
        let events: Vec<(u32, &str)> = tree
            .events
            .iter()
            .map(|e| (e.span, e.event.kind()))
            .collect();
        assert_eq!(events, vec![(1, "cache_miss"), (2, "query_start")]);
        assert!(tree.events[0].at <= tree.events[1].at);
        // An off context runs no closure and takes no decision.
        let off = SpanContext::off();
        off.set_detailed(true);
        assert!(!off.is_detailed());
        off.annotate(|| panic!("off contexts build nothing"));
        off.detail(|| panic!("off contexts build nothing"));
    }

    #[test]
    fn json_roundtrips_and_jsonl_reader_tolerates_truncation() {
        let t1 = tree_with(&[("request", 0), ("optimize", 1), ("star:JOIN", 2)]);
        let mut t2 = t1.clone();
        t2.request_id = 9;
        t2.outcome = "hit".to_string();
        assert_eq!(SpanTree::from_json(&t1.to_json()).expect("parse"), t1);
        let full = format!("{}\n{}\n", t1.to_json(), t2.to_json());
        let (trees, skipped) = read_span_trees(&full);
        assert_eq!((trees.len(), skipped), (2, 0));
        assert_eq!(trees[1], t2);
        // Truncate the stream mid-way through the second line.
        let cut = &full[..t1.to_json().len() + 1 + 20];
        let (trees, skipped) = read_span_trees(cut);
        assert_eq!((trees.len(), skipped), (1, 1));
        assert_eq!(trees[0], t1);
    }

    #[test]
    fn out_of_range_u32_fields_reject_the_tree() {
        // `dropped` and span ids are u32: a wider value refuses the line
        // (counted as skipped) instead of saturating or wrapping.
        let line = tree_with(&[("request", 0)]).to_json();
        for (from, to) in [
            ("\"dropped\":0", "\"dropped\":4294967296"),
            ("\"id\":1", "\"id\":4294967296"),
        ] {
            let bad = line.replacen(from, to, 1);
            assert_eq!(SpanTree::from_json(&bad), None, "{bad}");
            assert_eq!(read_span_trees(&bad).1, 1);
        }
    }

    #[test]
    fn chrome_export_roundtrips_exactly() {
        let mut t1 = tree_with(&[("request", 0), ("execute", 1), ("pipeline:scan", 2)]);
        t1.events.push(SpanEvent {
            span: 3,
            at: 1_234_567,
            event: TraceEvent::ExecNode {
                op: "ACCESS(heap)".into(),
                fp: u64::MAX,
                rows_out: 10,
                invocations: 1,
                nanos: 999,
            },
        });
        let mut t2 = tree_with(&[("request", 0)]);
        t2.request_id = 11;
        t2.degraded = true;
        t2.retained = "degraded".to_string();
        let text = to_chrome_trace(&[t1.clone(), t2.clone()]);
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"M\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"cat\":\"starqo\""));
        let back = from_chrome_trace(&text).expect("parse");
        assert_eq!(back, vec![t1, t2]);
    }

    #[test]
    fn tail_sampler_keeps_interesting_requests_only() {
        let sampler = TailSampler::new(TailConfig {
            quantile: 0.99,
            min_samples: 4,
            refresh_every: 1,
        });
        let hist = |_q: f64| Some((1_000u64, 100u64));
        assert_eq!(sampler.decide(10, true, false, false, hist), Some("error"));
        assert_eq!(
            sampler.decide(10, false, true, false, hist),
            Some("degraded")
        );
        assert_eq!(
            sampler.decide(10, false, false, true, hist),
            Some("suspect")
        );
        // Fast request: dropped once the threshold is established.
        assert_eq!(sampler.decide(500, false, false, false, hist), None);
        assert_eq!(sampler.threshold_nanos(), 1_000);
        assert_eq!(
            sampler.decide(5_000, false, false, false, hist),
            Some("slow")
        );
        // Under-populated histogram: the slow test abstains.
        let cold = TailSampler::new(TailConfig {
            min_samples: 1_000,
            refresh_every: 1,
            ..TailConfig::default()
        });
        assert_eq!(
            cold.decide(u64::MAX, false, false, false, |_| Some((1, 10))),
            None
        );
    }

    #[test]
    fn store_is_bounded_and_counts_evictions() {
        let store = SpanStore::new(1, 2);
        assert_eq!(store.capacity(), 2);
        for i in 0..5u64 {
            let mut t = tree_with(&[("request", 0)]);
            t.request_id = i;
            store.record(t);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted(), 3);
        let ids: Vec<u64> = store.trees().iter().map(|t| t.request_id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn structure_digest_ignores_timing() {
        let mut a = tree_with(&[("request", 0), ("optimize", 1), ("glue", 2)]);
        let mut b = a.clone();
        for s in b.spans.iter_mut() {
            s.start_nanos *= 7;
            s.end_nanos = s.start_nanos + 1;
        }
        // Completion order differs too: structure must not care.
        b.spans.reverse();
        a.spans.iter_mut().for_each(|s| s.meta = 0);
        b.spans.iter_mut().for_each(|s| s.meta = 0);
        assert_eq!(a.structure(), b.structure());
        assert_eq!(a.structure(), "request(optimize(glue))");
    }
}

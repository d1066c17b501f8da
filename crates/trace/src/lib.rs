//! # starqo-trace
//!
//! Structured observability for the STAR optimizer and the plan executor:
//! typed [`TraceEvent`]s flowing into pluggable [`TraceSink`]s, named spans,
//! the live [`Telemetry`] plane over the [`Metric`], [`Phase`] and
//! [`LatencyPath`] catalogs, and the [`MetricsSummary`] a bench report
//! accumulates.
//!
//! The crate is dependency-free by design (JSON serialization is
//! hand-rolled in [`json`]) and its hot path is free when tracing is off:
//! [`Tracer::emit`] takes a *closure* producing the event, and the closure
//! is never invoked — no strings formatted, no allocations — unless a sink
//! is attached and enabled. A global "events constructed" counter
//! ([`events_constructed`]) lets tests assert that guarantee.

// Library code surfaces failures as typed errors (or degrades), never by
// panicking; tests may unwrap freely (the gate is off under cfg(test)).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

#[macro_use]
mod catalog;
pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod read;
pub mod sink;
pub mod telemetry;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use event::{load_jsonl, read_events, CostBreakdownEv, NodeActuals, TraceEvent};
pub use hist::Histogram;
pub use metrics::MetricsSummary;
pub use read::{parse_json, JsonError, JsonValue};
pub use sink::{JsonLinesSink, MemorySink, NullSink, TraceSink};
pub use telemetry::{
    from_chrome_trace, qlog_micro, read_span_trees, to_chrome_trace, Counters, FeedbackPlane,
    HealRecord, HotQuery, LatencyPath, Metric, Phase, PhasePlane, QErrorSketch, SnapshotRing,
    SpanContext, SpanGuard, SpanMode, SpanName, SpanRecord, SpanStore, SpanTree, SuspectConfig,
    SuspectVerdict, TailConfig, TailSampler, Telemetry, TelemetryConfig, TelemetrySnapshot,
    TraceSampler,
};

/// Global count of trace events ever constructed in this process. Only
/// advanced when a tracer is enabled; tests use it to verify the
/// zero-overhead-when-off guarantee.
static EVENTS_CONSTRUCTED: AtomicU64 = AtomicU64::new(0);

/// Total trace events constructed so far in this process.
pub fn events_constructed() -> u64 {
    EVENTS_CONSTRUCTED.load(Ordering::Relaxed)
}

/// A cheap, cloneable handle that instrumented components hold.
///
/// `Tracer::off()` (also `Default`) carries no sink: `emit` is a branch on
/// an `Option` and nothing else. Cloning shares the underlying sink.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// The disabled tracer: every call collapses to a branch-not-taken.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// Wrap a sink. A sink reporting `enabled() == false` (e.g.
    /// [`NullSink`]) yields the off tracer — the event closures will never
    /// run.
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        if sink.enabled() {
            Tracer {
                inner: Some(Arc::new(sink)),
            }
        } else {
            Tracer::off()
        }
    }

    /// Wrap an already-shared sink (lets the caller keep a handle, e.g. to
    /// a [`MemorySink`] it wants to inspect afterwards).
    pub fn shared(sink: Arc<dyn TraceSink>) -> Self {
        if sink.enabled() {
            Tracer { inner: Some(sink) }
        } else {
            Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one event. The closure only runs — and the event is only
    /// constructed — when a sink is attached.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.inner {
            let ev = make();
            EVENTS_CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
            sink.emit(&ev);
        }
    }

    /// Open a named span; the guard emits `span_end` with elapsed nanos on
    /// drop. With tracing off this is a no-op guard.
    pub fn span(&self, name: &str) -> Span {
        if self.enabled() {
            self.emit(|| TraceEvent::SpanStart {
                name: name.to_string(),
            });
            Span {
                tracer: self.clone(),
                name: Some(name.to_string()),
                start: Instant::now(),
            }
        } else {
            Span {
                tracer: Tracer::off(),
                name: None,
                start: Instant::now(),
            }
        }
    }

    /// Flush the underlying sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.inner {
            sink.flush();
        }
    }
}

/// RAII guard for a named span; see [`Tracer::span`].
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    name: Option<String>,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            let nanos = self.start.elapsed().as_nanos() as u64;
            self.tracer.emit(|| TraceEvent::SpanEnd { name, nanos });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `events_constructed()` is process-wide and tests run on parallel
    /// threads: every test here that reads or bumps it holds this, so the
    /// ones asserting `before + n` see only their own events.
    fn counter_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // A failed holder poisons nothing: the lock guards no data.
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn off_tracer_constructs_no_events() {
        let _serial = counter_lock();
        let t = Tracer::off();
        let before = events_constructed();
        for _ in 0..100 {
            t.emit(|| panic!("event closure must not run when tracing is off"));
        }
        assert_eq!(events_constructed(), before);
    }

    #[test]
    fn null_sink_collapses_to_off() {
        let _serial = counter_lock();
        let t = Tracer::new(NullSink);
        assert!(!t.enabled());
        let before = events_constructed();
        t.emit(|| panic!("NullSink tracer must not construct events"));
        assert_eq!(events_constructed(), before);
    }

    #[test]
    fn enabled_tracer_delivers_events() {
        let _serial = counter_lock();
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::shared(sink.clone());
        assert!(t.enabled());
        let before = events_constructed();
        t.emit(|| TraceEvent::Counter {
            name: "n".into(),
            value: 3,
        });
        assert_eq!(events_constructed(), before + 1);
        assert_eq!(
            sink.events(),
            vec![TraceEvent::Counter {
                name: "n".into(),
                value: 3
            }]
        );
    }

    #[test]
    fn spans_pair_start_and_end() {
        let _serial = counter_lock();
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::shared(sink.clone());
        {
            let _s = t.span("enumerate");
            t.emit(|| TraceEvent::Counter {
                name: "inside".into(),
                value: 1,
            });
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs[0],
            TraceEvent::SpanStart {
                name: "enumerate".into()
            }
        );
        assert_eq!(evs[1].kind(), "counter");
        assert!(matches!(&evs[2], TraceEvent::SpanEnd { name, .. } if name == "enumerate"));
    }

    #[test]
    fn clones_share_the_sink() {
        let _serial = counter_lock();
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::shared(sink.clone());
        let t2 = t.clone();
        t2.emit(|| TraceEvent::Counter {
            name: "a".into(),
            value: 1,
        });
        t.emit(|| TraceEvent::Counter {
            name: "b".into(),
            value: 2,
        });
        assert_eq!(sink.len(), 2);
    }
}

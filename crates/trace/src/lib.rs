//! # starqo-trace
//!
//! Structured observability for the STAR optimizer and the plan executor:
//! the live [`Telemetry`] plane over the [`Metric`], [`Phase`] and
//! [`LatencyPath`] catalogs, the request-scoped [`SpanTree`] — the one
//! record of a request, its spans annotated with typed [`TraceEvent`]s —
//! and the [`MetricsSummary`] a bench report accumulates.
//!
//! The crate is dependency-free by design (every serialized record is
//! declared once in a [`record`] table over the hand-rolled [`json`] writer
//! and [`read`] parser) and its hot path is free when tracing is off:
//! [`SpanContext::annotate`] and [`SpanContext::detail`] take a *closure*
//! producing the event, and the closure is never invoked — no strings
//! formatted, no allocations — unless the request records (and, for
//! detail, was chosen by the head sampler). A global "events constructed"
//! counter ([`events_constructed`]) lets tests assert that guarantee.

// Library code surfaces failures as typed errors (or degrades), never by
// panicking; tests may unwrap freely (the gate is off under cfg(test)).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

#[macro_use]
mod catalog;
#[macro_use]
pub mod record;
pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod read;
pub mod runmem;
pub mod telemetry;

pub use event::{CostBreakdownEv, NodeActuals, TraceEvent};
pub use hist::Histogram;
pub use metrics::MetricsSummary;
pub use read::{parse_json, JsonError, JsonValue};
pub use telemetry::{
    events_constructed, from_chrome_trace, qlog_micro, read_span_trees, to_chrome_trace, Counters,
    FeedbackPlane, HealRecord, HotQuery, LatencyPath, Metric, Phase, QErrorSketch, SnapshotRing,
    SpanContext, SpanEvent, SpanGuard, SpanMode, SpanName, SpanRecord, SpanStore, SpanTree,
    SuspectConfig, TailConfig, TailSampler, Telemetry, TelemetryConfig, TelemetrySnapshot,
    TraceSampler,
};

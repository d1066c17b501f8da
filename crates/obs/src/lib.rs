//! # starqo-obs
//!
//! Offline trace analytics for the STAR optimizer: everything here consumes
//! the event stream `starqo-trace` sinks write (a `MemorySink` in-process,
//! or a `.jsonl` file re-read with [`starqo_trace::load_jsonl`]) and
//! produces reports — no optimizer types involved, so traces from any
//! version of the engine that speaks the event schema analyze fine.
//!
//! - [`profile::Profile`] — per-STAR attribution: reference/memo counts,
//!   per-alternative firings, failing conditions, plan-table churn,
//!   inclusive time, and the winning plan's rule lineage;
//! - [`flame::FlameTree`] — the STAR expansion tree as an ASCII flamegraph
//!   or folded-stacks output for standard flamegraph tooling;
//! - [`diff::TraceDiff`] — behavioral comparison of two runs;
//! - [`gate::gate`] — `BENCH_*.json` regression gating against a committed
//!   baseline: work counters enforced, wall-clock report-only;
//! - [`accuracy::AccuracyReport`] — the estimate→actual join: CARD/COST
//!   Q-error per plan node, aggregated per LOLEPOP, per STAR rule, and per
//!   workload query;
//! - [`calibrate::fit`] — least-squares cost-model calibration from the
//!   accuracy join, producing a `starqo-plan` [`CostCalibration`] profile;
//! - [`live::LiveReport`] — the live-telemetry dashboard: renders a
//!   serving-layer [`starqo_trace::TelemetrySnapshot`] (throughput, cache
//!   effectiveness, latency quantiles, hot-query top-K, plan-quality
//!   sketches), point-in-time or diffed between two snapshots;
//! - [`watch::Watcher`] — the continuously refreshing watch loop: folds
//!   successive snapshots into a [`starqo_trace::SnapshotRing`] and
//!   renders interval frames with trend sparklines;
//! - [`doctor::Diagnosis`] — a one-shot health verdict: cache efficacy,
//!   pressure counters, drift hotspots, tracker saturation, feedback
//!   coverage.
//!
//! The `starqo-obs` binary exposes all of these as subcommands.

pub mod accuracy;
pub mod calibrate;
pub mod diff;
pub mod doctor;
pub mod flame;
pub mod fmt;
pub mod gate;
pub mod live;
pub mod profile;
pub mod spans;
#[cfg(test)]
pub(crate) mod testutil;
pub mod watch;

pub use accuracy::{q_error, AccuracyReport, GroupStats, NodeJoin, QuerySummary};
pub use calibrate::{fit, samples, CalibFit, CalibSample};
pub use diff::TraceDiff;
pub use doctor::{Diagnosis, Finding, Severity};
pub use flame::FlameTree;
pub use fmt::{fmt_nanos, sparkline};
pub use gate::{gate, GateResult, Violation};
pub use live::LiveReport;
pub use profile::{LineageRow, Profile, StarProfile};
pub use spans::{smoke_trees, SpanReport};
pub use starqo_plan::CostCalibration;
pub use watch::Watcher;

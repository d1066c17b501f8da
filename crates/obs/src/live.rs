//! The live-telemetry dashboard: renders a [`TelemetrySnapshot`] (the
//! serving layer's always-on metrics plane) as a terminal report —
//! throughput, cache effectiveness, latency quantiles per path, and the
//! hot-query top-K. Point-in-time by default; hand it the delta of two
//! snapshots ([`TelemetrySnapshot::delta_since`]) and the same renderer
//! shows interval rates instead of lifetime totals.

use starqo_trace::{Histogram, TelemetrySnapshot};

use crate::fmt::fmt_nanos;

/// A renderable view over one snapshot (lifetime or interval).
#[derive(Debug, Clone)]
pub struct LiveReport {
    snapshot: TelemetrySnapshot,
    /// True when the snapshot is a delta between two points in time.
    interval: bool,
}

impl LiveReport {
    /// A lifetime (since-service-start) view.
    pub fn new(snapshot: TelemetrySnapshot) -> LiveReport {
        LiveReport {
            snapshot,
            interval: false,
        }
    }

    /// An interval view: `current` diffed against `previous`.
    pub fn since(current: &TelemetrySnapshot, previous: &TelemetrySnapshot) -> LiveReport {
        LiveReport {
            snapshot: current.delta_since(previous),
            interval: true,
        }
    }

    pub fn snapshot(&self) -> &TelemetrySnapshot {
        &self.snapshot
    }

    pub fn render(&self) -> String {
        let s = &self.snapshot;
        let c = |name: &str| s.counter(name).unwrap_or(0);
        let mut out = String::new();
        let window = if self.interval { "interval" } else { "uptime" };
        out.push_str(&format!(
            "== starqo live telemetry ==  ({window} {})\n\n",
            fmt_nanos(s.uptime_nanos)
        ));

        out.push_str("-- serving --\n");
        out.push_str(&format!(
            "  requests        {:>10}   ({:.1}/s)\n",
            c("serve_requests"),
            s.requests_per_sec()
        ));
        out.push_str(&format!(
            "  cache           {:>9.2}% hit   (hit {} + coalesced {} / miss {})\n",
            s.hit_ratio() * 100.0,
            c("serve_cache_hit"),
            c("serve_cache_coalesced"),
            c("serve_cache_miss")
        ));
        out.push_str(&format!(
            "  churn           evict {}   invalidate {}\n",
            c("serve_cache_evict"),
            c("serve_cache_invalidate")
        ));
        out.push_str(&format!(
            "  pressure        rejected {}   degraded {}   errors {}\n",
            c("serve_rejected"),
            c("serve_degraded"),
            c("serve_errors")
        ));
        out.push_str(&format!(
            "  execution       {} runs   {} rows   {} pipeline rows\n",
            c("serve_executions"),
            c("serve_exec_rows"),
            c("serve_pipeline_rows")
        ));
        if c("serve_feedback_runs") > 0 {
            out.push_str(&format!(
                "  feedback        {} runs folded   {} suspects flagged\n",
                c("serve_feedback_runs"),
                c("serve_suspects_flagged")
            ));
        }
        let (sampled, unsampled) = (c("serve_trace_sampled"), c("serve_trace_unsampled"));
        if sampled + unsampled > 0 {
            out.push_str(&format!(
                "  tracing         {sampled} sampled / {unsampled} suppressed\n"
            ));
        }
        let (kept, dropped) = (c("serve_spans_kept"), c("serve_spans_dropped"));
        if kept + dropped > 0 || s.span_capacity > 0 {
            out.push_str(&format!(
                "  spans           {kept} kept / {dropped} dropped   store {}/{} resident   {} evicted\n",
                s.span_resident, s.span_capacity, s.span_evicted
            ));
        }
        out.push_str(&format!(
            "  optimizer work  {} star refs   {} memo hits   {} plans built   {} glue refs\n",
            c("opt_star_refs"),
            c("opt_memo_hits"),
            c("opt_plans_built"),
            c("opt_glue_refs")
        ));

        // Executor plane: present once a request has been executed.
        if c("vexec_morsels_queued") + c("vexec_rows") > 0 {
            out.push_str("\n-- executor --\n");
            out.push_str(&format!(
                "  vectorized      {} batches   {} rows\n",
                c("vexec_batches"),
                c("vexec_rows")
            ));
            out.push_str(&format!(
                "  morsels         {} completed / {} queued   ({} in flight)\n",
                c("vexec_morsels"),
                c("vexec_morsels_queued"),
                c("vexec_morsels_queued").saturating_sub(c("vexec_morsels"))
            ));
        }

        out.push_str("\n-- latency --\n");
        out.push_str(&format!(
            "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "path", "count", "p50", "p90", "p99", "p999", "max"
        ));
        for (path, h) in &s.latency {
            out.push_str(&format!(
                "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                path,
                h.count(),
                fmt_quantile(h, 0.5),
                fmt_quantile(h, 0.9),
                fmt_quantile(h, 0.99),
                fmt_quantile(h, 0.999),
                h.max().map(fmt_nanos).unwrap_or_else(|| "-".into())
            ));
        }

        if !s.phases.is_empty() {
            out.push_str("\n-- phases --\n");
            out.push_str(&format!(
                "  {:<12} {:>9} {:>10} {:>10}\n",
                "phase", "count", "total", "mean"
            ));
            for (name, nanos, count) in &s.phases {
                let mean = nanos.checked_div(*count).unwrap_or(0);
                out.push_str(&format!(
                    "  {:<12} {:>9} {:>10} {:>10}\n",
                    name,
                    count,
                    fmt_nanos(*nanos),
                    fmt_nanos(mean)
                ));
            }
        }

        out.push_str("\n-- hot queries --\n");
        if s.topk.is_empty() {
            out.push_str("  (none tracked)\n");
        } else {
            out.push_str(&format!(
                "  {:<4} {:<18} {:>8} {:>6} {:>10} {:>10} {:>6}\n",
                "#", "fingerprint", "count", "±err", "total", "mean", "epoch"
            ));
            let mut saturated = 0usize;
            for (rank, e) in s.topk.iter().enumerate() {
                let mean = e.nanos.checked_div(e.count).unwrap_or(0);
                // err is the space-saving overcount bound: once it reaches
                // half the count, the entry's rank is mostly recycling
                // noise, not real traffic.
                let sat = e.count > 0 && e.err >= e.count / 2;
                saturated += usize::from(sat);
                out.push_str(&format!(
                    "  {:<4} {:<18} {:>8} {:>6} {:>10} {:>10} {:>6}{}\n",
                    rank + 1,
                    format!("{:#018x}", e.fp),
                    e.count,
                    e.err,
                    fmt_nanos(e.nanos),
                    fmt_nanos(mean),
                    e.last_epoch,
                    if sat { "  !sat" } else { "" }
                ));
            }
            if saturated > 0 {
                out.push_str(&format!(
                    "  warning: {saturated} entries have overcount bound >= count/2 \
                     (tracker saturated; raise topk capacity)\n"
                ));
            }
        }

        out.push_str("\n-- plan quality --\n");
        if s.qerror.is_empty() {
            out.push_str("  (feedback plane empty)\n");
        } else {
            out.push_str(&format!(
                "  {:<18} {:>6} {:>9} {:>9} {:>10} {:>17} {:>9} {:>6}\n",
                "fingerprint", "runs", "geomeanQ", "maxQ", "est", "actual", "mean", "epoch"
            ));
            for e in &s.qerror {
                let fmt_q =
                    |q: Option<f64>| q.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into());
                let actuals = if e.runs == 0 {
                    "-".to_string()
                } else if e.actual_min == e.actual_max {
                    e.actual_min.to_string()
                } else {
                    format!("{}..{}", e.actual_min, e.actual_max)
                };
                out.push_str(&format!(
                    "  {:<18} {:>6} {:>9} {:>9} {:>10} {:>17} {:>9} {:>6}{}\n",
                    format!("{:#018x}", e.fp),
                    e.runs,
                    fmt_q(e.geomean_q()),
                    fmt_q(e.max_q()),
                    e.est_rows,
                    actuals,
                    e.mean_nanos().map(fmt_nanos).unwrap_or_else(|| "-".into()),
                    e.last_epoch,
                    if e.suspect { "  SUSPECT" } else { "" }
                ));
            }
            let suspects = s.suspects().len();
            if suspects > 0 {
                out.push_str(&format!(
                    "  {suspects} suspect plan(s): observed Q-error/latency crossed the \
                     configured thresholds\n"
                ));
            }
        }

        let reopt_total = c("serve_reopt_attempts")
            + c("serve_reopt_backoff")
            + c("serve_plan_swap")
            + c("serve_plan_pinned");
        if reopt_total > 0 || !s.heal.is_empty() {
            out.push_str("\n-- serve heal --\n");
            out.push_str(&format!(
                "  reopt           {} attempts   {} failures   swap {} / pin {}\n",
                c("serve_reopt_attempts"),
                c("serve_reopt_failures"),
                c("serve_plan_swap"),
                c("serve_plan_pinned")
            ));
            out.push_str(&format!(
                "  backoff         {} suppressed   {} retry-capped\n",
                c("serve_reopt_backoff"),
                c("serve_reopt_retry_capped")
            ));
            if !s.heal.is_empty() {
                out.push_str(&format!(
                    "  {:<18} {:>6} {:>8} {:>6} {:>6} {:>8} {:<14}\n",
                    "fingerprint", "epoch", "attempts", "swaps", "pins", "backoff", "last"
                ));
                for h in &s.heal {
                    let state = if h.retry_capped {
                        "  CAPPED"
                    } else if h.backoff_until_nanos > 0 {
                        "  backing off"
                    } else {
                        ""
                    };
                    out.push_str(&format!(
                        "  {:<18} {:>6} {:>8} {:>6} {:>6} {:>8} {:<14}{}\n",
                        format!("{:#018x}", h.fp),
                        h.epoch,
                        h.attempts,
                        h.swaps,
                        h.pins,
                        h.backoff_hits,
                        if h.last_reason.is_empty() {
                            "-"
                        } else {
                            &h.last_reason
                        },
                        state
                    ));
                }
            }
        }
        out
    }
}

/// One latency quantile, humanized ("-" for an empty histogram).
fn fmt_quantile(h: &Histogram, q: f64) -> String {
    h.quantile(q).map(fmt_nanos).unwrap_or_else(|| "-".into())
}

/// A deterministic synthetic snapshot for smoke-testing the dashboard
/// pipeline (render + JSON + Prometheus) without a live service.
pub fn smoke_snapshot() -> TelemetrySnapshot {
    use starqo_trace::{FeedbackPlane, HotQuery, SuspectConfig};
    let mut optimize = Histogram::new();
    let mut cache_hit = Histogram::new();
    let mut execute = Histogram::new();
    let mut end_to_end = Histogram::new();
    for i in 0..200u64 {
        // A few cold optimizations, many cheap warm serves.
        if i % 50 == 0 {
            optimize.record(2_000_000 + i * 10_000);
            end_to_end.record(2_100_000 + i * 10_000);
        } else {
            cache_hit.record(2_000 + (i % 7) * 300);
            end_to_end.record(2_500 + (i % 7) * 300);
        }
        execute.record(40_000 + (i % 11) * 1_000);
    }
    TelemetrySnapshot {
        uptime_nanos: 2_000_000_000,
        counters: vec![
            ("serve_requests".into(), 200),
            ("serve_cache_hit".into(), 196),
            ("serve_cache_coalesced".into(), 0),
            ("serve_cache_miss".into(), 4),
            ("serve_cache_evict".into(), 0),
            ("serve_cache_invalidate".into(), 0),
            ("serve_rejected".into(), 0),
            ("serve_degraded".into(), 0),
            ("serve_errors".into(), 0),
            ("serve_executions".into(), 200),
            ("serve_exec_rows".into(), 1_600),
            ("serve_trace_sampled".into(), 3),
            ("serve_trace_unsampled".into(), 197),
            ("opt_star_refs".into(), 56),
            ("opt_memo_hits".into(), 24),
            ("opt_plans_built".into(), 180),
            ("opt_glue_refs".into(), 32),
            ("serve_opt_nanos".into(), 8_600_000),
            ("serve_saved_nanos".into(), 420_000_000),
            ("serve_exec_nanos".into(), 9_000_000),
            ("serve_pipeline_rows".into(), 2_400),
            ("serve_feedback_runs".into(), 200),
            ("serve_suspects_flagged".into(), 1),
            ("serve_spans_kept".into(), 6),
            ("serve_spans_dropped".into(), 194),
            ("serve_reopt_attempts".into(), 3),
            ("serve_reopt_failures".into(), 1),
            ("serve_reopt_backoff".into(), 2),
            ("serve_reopt_retry_capped".into(), 0),
            ("serve_plan_swap".into(), 1),
            ("serve_plan_pinned".into(), 2),
            ("vexec_batches".into(), 240),
            ("vexec_morsels_queued".into(), 62),
            ("vexec_morsels".into(), 60),
            ("vexec_rows".into(), 1_550),
        ],
        phases: vec![
            ("prepare".into(), 400_000, 200),
            ("cache_lookup".into(), 600_000, 196),
            ("enumerate".into(), 7_200_000, 4),
            ("glue".into(), 900_000, 4),
            ("compile".into(), 300_000, 4),
            ("execute".into(), 9_000_000, 200),
        ],
        span_resident: 6,
        span_capacity: 64,
        span_evicted: 0,
        latency: vec![
            ("optimize".into(), optimize),
            ("cache_hit".into(), cache_hit),
            ("execute".into(), execute),
            ("end_to_end".into(), end_to_end),
        ],
        topk: vec![
            HotQuery {
                fp: 0xA11CE,
                count: 120,
                err: 0,
                nanos: 360_000,
                last_epoch: 1,
            },
            HotQuery {
                fp: 0xB0B,
                count: 80,
                err: 45,
                nanos: 250_000,
                last_epoch: 1,
            },
        ],
        qerror: {
            // A drifted fingerprint (flags suspect) and an accurate one,
            // folded through the real plane so the smoke snapshot stays
            // honest about the sketch invariants.
            let plane = FeedbackPlane::new(
                1,
                4,
                SuspectConfig {
                    min_runs: 4,
                    ..SuspectConfig::default()
                },
            );
            for i in 0..8u64 {
                plane.record(0xA11CE, 20, 320, 40_000 + i * 1_000, 1);
                plane.record(0xB0B, 64, 64, 45_000 + i * 1_000, 1);
            }
            plane.snapshot()
        },
        heal: vec![starqo_trace::HealRecord {
            fp: 0xA11CE,
            epoch: 1,
            attempts: 0,
            swaps: 1,
            pins: 2,
            backoff_hits: 2,
            retry_capped: false,
            last_reason: "swapped".into(),
            backoff_until_nanos: 0,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_section_with_real_quantiles() {
        let report = LiveReport::new(smoke_snapshot());
        let text = report.render();
        assert!(text.contains("== starqo live telemetry =="));
        // 200 requests over the 2s uptime.
        assert!(text.contains("(100.0/s)"), "{text}");
        assert!(text.contains("98.00% hit"));
        assert!(text.contains("-- latency --"));
        for path in ["optimize", "cache_hit", "execute", "end_to_end"] {
            assert!(text.contains(path), "missing path {path}");
        }
        assert!(text.contains("-- hot queries --"));
        assert!(text.contains("0x00000000000a11ce"));
        // Span retention + cold-path phase attribution sections.
        assert!(text.contains("6 kept / 194 dropped"), "{text}");
        assert!(text.contains("store 6/64 resident"), "{text}");
        assert!(text.contains("-- phases --"), "{text}");
        assert!(text.contains("cache_lookup"), "{text}");
        // Executor plane: batch/morsel tallies and the in-flight gauge
        // (queued - completed).
        assert!(text.contains("-- executor --"), "{text}");
        assert!(text.contains("240 batches   1550 rows"), "{text}");
        assert!(
            text.contains("60 completed / 62 queued   (2 in flight)"),
            "{text}"
        );
        // Quantiles are real values, not placeholders, for non-empty paths.
        let latency_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("end_to_end"))
            .expect("end_to_end row");
        assert!(!latency_line.contains('-'), "dash in {latency_line}");
        // Satellite sections: feedback counters, the saturation warning on
        // the 0xB0B entry (err 45 >= 80/2), and the plan-quality table.
        assert!(text.contains("200 runs folded   1 suspects flagged"));
        assert!(text.contains("!sat"), "{text}");
        assert!(text.contains("overcount bound >= count/2"));
        assert!(text.contains("-- plan quality --"));
        assert!(text.contains("SUSPECT"));
        assert!(text.contains("1 suspect plan(s)"));
        // The drifted sketch: est 20 vs actual 320 is Q = 16.
        let drifted = text
            .lines()
            .find(|l| l.contains("0x00000000000a11ce") && l.contains("SUSPECT"))
            .expect("drifted plan row");
        assert!(drifted.contains("16.00"), "{drifted}");
        // The self-healing section: counters plus the per-fingerprint table.
        assert!(text.contains("-- serve heal --"), "{text}");
        assert!(text.contains("3 attempts   1 failures   swap 1 / pin 2"));
        assert!(text.contains("2 suppressed   0 retry-capped"));
        let heal_row = text
            .lines()
            .find(|l| l.contains("0x00000000000a11ce") && l.contains("swapped"))
            .expect("heal record row");
        assert!(heal_row.contains("swapped"), "{heal_row}");
    }

    #[test]
    fn interval_view_renders_rates_over_the_window() {
        let later = smoke_snapshot();
        let mut earlier = smoke_snapshot();
        earlier.uptime_nanos = 1_000_000_000;
        earlier.counters = vec![("serve_requests".into(), 150)];
        let report = LiveReport::since(&later, &earlier);
        let text = report.render();
        assert!(text.contains("interval 1.00s"));
        // 200 - 150 = 50 requests over the 1s interval.
        assert!(text.contains("(50.0/s)"), "{text}");
    }

    #[test]
    fn smoke_snapshot_roundtrips_through_both_exporters() {
        let snap = smoke_snapshot();
        let parsed = TelemetrySnapshot::from_json(&snap.to_json()).expect("json");
        assert_eq!(parsed, snap);
        let prom = snap.to_prometheus();
        assert!(prom.contains("starqo_serve_requests_total 200"));
        assert!(prom.contains("quantile=\"0.999\""));
    }
}

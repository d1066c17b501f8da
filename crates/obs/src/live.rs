//! The live-telemetry dashboard: renders a [`TelemetrySnapshot`] (the
//! serving layer's always-on metrics plane) as a terminal report —
//! throughput, cache effectiveness, latency quantiles per path, and the
//! hot-query top-K. Point-in-time by default; hand it the delta of two
//! snapshots ([`TelemetrySnapshot::delta_since`]) and the same renderer
//! shows interval rates instead of lifetime totals.

use starqo_trace::{Histogram, LatencyPath, Metric, Phase, TelemetrySnapshot};

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
        let c = |m: Metric| s.counters[m];
        let mut out = String::new();
        let window = if self.interval { "interval" } else { "uptime" };
        out.push_str(&format!(
            "== starqo live telemetry ==  ({window} {})\n\n",
            fmt_nanos(s.uptime_nanos)
        ));

        out.push_str("-- serving --\n");
        out.push_str(&format!(
            "  requests        {:>10}   ({:.1}/s)\n",
            c(Metric::Requests),
            s.requests_per_sec()
        ));
        out.push_str(&format!(
            "  cache           {:>9.2}% hit   (hit {} + coalesced {} / miss {})\n",
            s.counters.hit_ratio() * 100.0,
            c(Metric::CacheHit),
            c(Metric::CacheCoalesced),
            c(Metric::CacheMiss)
        ));
        out.push_str(&format!(
            "  churn           evict {}   invalidate {}\n",
            c(Metric::CacheEvict),
            c(Metric::CacheInvalidate)
        ));
        out.push_str(&format!(
            "  pressure        rejected {}   degraded {}   errors {}\n",
            c(Metric::Rejected),
            c(Metric::Degraded),
            c(Metric::Errors)
        ));
        out.push_str(&format!(
            "  execution       {} runs   {} rows   {} pipeline rows\n",
            c(Metric::Executions),
            c(Metric::ExecRows),
            c(Metric::PipelineRows)
        ));
        if c(Metric::FeedbackRuns) > 0 {
            out.push_str(&format!(
                "  feedback        {} runs folded   {} suspects flagged\n",
                c(Metric::FeedbackRuns),
                c(Metric::SuspectFlagged)
            ));
        }
        let (sampled, unsampled) = (c(Metric::TraceSampled), c(Metric::TraceUnsampled));
        if sampled + unsampled > 0 {
            out.push_str(&format!(
                "  tracing         {sampled} sampled / {unsampled} suppressed\n"
            ));
        }
        let (kept, dropped) = (c(Metric::SpansKept), c(Metric::SpansDropped));
        if kept + dropped > 0 || s.span_capacity > 0 {
            out.push_str(&format!(
                "  spans           {kept} kept / {dropped} dropped   store {}/{} resident   {} evicted\n",
                s.span_resident, s.span_capacity, s.span_evicted
            ));
        }
        out.push_str(&format!(
            "  optimizer work  {} star refs   {} memo hits   {} plans built   {} glue refs\n",
            c(Metric::StarRefs),
            c(Metric::MemoHits),
            c(Metric::PlansBuilt),
            c(Metric::GlueRefs)
        ));

        // Executor plane: present once a request has been executed.
        if c(Metric::VexecQueued) + c(Metric::VexecRows) > 0 {
            out.push_str("\n-- executor --\n");
            out.push_str(&format!(
                "  vectorized      {} batches   {} rows\n",
                c(Metric::VexecBatches),
                c(Metric::VexecRows)
            ));
            out.push_str(&format!(
                "  morsels         {} completed / {} queued   ({} in flight)\n",
                c(Metric::VexecMorsels),
                c(Metric::VexecQueued),
                c(Metric::VexecQueued).saturating_sub(c(Metric::VexecMorsels))
            ));
        }

        out.push_str("\n-- latency --\n");
        out.push_str(&format!(
            "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "path", "count", "p50", "p90", "p99", "p999", "max"
        ));
        for p in LatencyPath::ALL {
            let h = &s.latency[p];
            out.push_str(&format!(
                "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                p.name(),
                h.count(),
                fmt_quantile(h, 0.5),
                fmt_quantile(h, 0.9),
                fmt_quantile(h, 0.99),
                fmt_quantile(h, 0.999),
                h.max().map(fmt_nanos).unwrap_or_else(|| "-".into())
            ));
        }

        out.push_str("\n-- phases --\n");
        out.push_str(&format!(
            "  {:<12} {:>9} {:>10} {:>10}\n",
            "phase", "count", "total", "mean"
        ));
        for p in Phase::ALL {
            let (nanos, count) = s.phases[p];
            let mean = nanos.checked_div(count).unwrap_or(0);
            out.push_str(&format!(
                "  {:<12} {:>9} {:>10} {:>10}\n",
                p.name(),
                count,
                fmt_nanos(nanos),
                fmt_nanos(mean)
            ));
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
                     (more distinct fingerprints than the feedback plane holds)\n"
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

        let reopt_total = c(Metric::ReoptAttempts)
            + c(Metric::ReoptBackoff)
            + c(Metric::PlanSwap)
            + c(Metric::PlanPinned);
        if reopt_total > 0 || !s.heal.is_empty() {
            out.push_str("\n-- serve heal --\n");
            out.push_str(&format!(
                "  reopt           {} attempts   {} failures   swap {} / pin {}\n",
                c(Metric::ReoptAttempts),
                c(Metric::ReoptFailures),
                c(Metric::PlanSwap),
                c(Metric::PlanPinned)
            ));
            out.push_str(&format!(
                "  backoff         {} suppressed   {} retry-capped\n",
                c(Metric::ReoptBackoff),
                c(Metric::ReoptRetryCapped)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::smoke_snapshot;

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
        earlier.counters = Default::default();
        earlier.counters[Metric::Requests] = 150;
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

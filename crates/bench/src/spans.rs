//! E21: what request-scoped span tracing costs, and proof the tail
//! sampler keeps the right requests. Three identically configured
//! services replay E17's Zipf workload; they differ only in span mode:
//!
//! - **spans-off** — the full telemetry plane, no span recording (PR 6's
//!   telemetry-on baseline);
//! - **tail**      — spans recorded per request, retained only for slow /
//!   errored / degraded / suspect requests (the production configuration);
//! - **full**      — every request's tree retained (the debug firehose).
//!
//! Two workloads, compared best-of-N with the services interleaved
//! round-robin so host noise hits all modes fairly:
//!
//! - **end-to-end** (prepare → optimize → execute, the request shape span
//!   tracing exists for): the overhead ceiling applies here — a violation
//!   counter trips when tail-sampled tracing costs more than 5%
//!   throughput against the spans-off baseline;
//! - **hit-path** (optimize-only, ~µs plan-cache hits): report-only — a
//!   worst-case microbench where a span's two clock reads and two lock
//!   hops are a visible fraction of the whole request.
//!
//! The wall numbers are report-only; the *gate* enforces the
//! deterministic side: every request decided exactly once per mode, full
//! mode keeping everything, off mode recording nothing, the JSONL and
//! Chrome `trace_event` round-trips, and the injected-retention scenario
//! — a drifted-data request that must come back from the store with a
//! complete prepare → optimize phases → execute tree that bit-matches a
//! serial-replay oracle.
//!
//! The tail service's retained trees are exported to `bench_dir()` as
//! `spans.jsonl` (one tree per line) and `spans_trace.json` (Chrome
//! `trace_event` JSON for `chrome://tracing` / Perfetto), so
//! `starqo-obs spans` / `timeline` can render exactly what the benchmark
//! retained.

use starqo_serve::{Service, ServiceConfig};
use starqo_trace::{
    from_chrome_trace, read_span_trees, to_chrome_trace, Metric, Phase, SpanMode, SpanTree,
    SuspectConfig, TailConfig, TelemetryConfig,
};
use starqo_workload::{
    query_shape_param, synth_catalog, synth_database, synth_database_scaled, QueryShape,
};

use crate::serving::{best_of, mode_table, spec, Workload, SEED, ZIPF_S};
use crate::{bench_dir, Report};

/// Tail-mode overhead ceiling on the end-to-end workload, in percent of
/// spans-off throughput. Quick runs are too short to measure overhead
/// meaningfully, so they get a deliberately loose ceiling — the real
/// threshold applies to the full run, which is what the regression gate
/// baselines.
fn ceiling(quick: bool) -> f64 {
    if quick {
        60.0
    } else {
        5.0
    }
}

/// E21: span-tracing overhead + tail-retention proof.
pub fn e21_spans(quick: bool) -> Report {
    let w = Workload::new(quick, if quick { (4, 60) } else { (8, 250) });
    let rounds = if quick { 2u64 } else { 3 };

    let service = |spans: SpanMode| {
        Service::new(
            w.cat.clone(),
            ServiceConfig {
                telemetry: TelemetryConfig {
                    spans,
                    ..TelemetryConfig::default()
                },
                ..ServiceConfig::default()
            },
        )
        .expect("service builds")
    };
    let off_svc = service(SpanMode::Off);
    let tail_svc = service(SpanMode::Tail);
    let full_svc = service(SpanMode::Full);
    let modes = [&off_svc, &tail_svc, &full_svc];

    // End-to-end passes (the gated workload): the warmup populates the
    // plan cache.
    let db = synth_database(SEED, w.cat.clone());
    let best = best_of(&modes, rounds, |svc, round| {
        w.execute_pass(svc, &db, SEED + round)
    });
    let tail_ceiling = ceiling(quick);
    let overhead_violations = u64::from(best[1].overhead_vs(&best[0]) > tail_ceiling);

    // Hit-path microbench (report-only): optimize-only requests resolve as
    // ~µs plan-cache hits, the worst case for relative span cost — the
    // recorder's clock reads and lock hops are a visible fraction of a
    // request that does almost nothing else.
    let hit_best = best_of(&modes, rounds, |svc, round| {
        w.optimize_pass(svc, SEED + round)
    });

    // Deterministic invariants: every request decided exactly once per
    // mode, full keeps everything, off records nothing. Both workloads ran
    // (1 warmup + `rounds` measured) passes against every service.
    let total_requests = 2 * (1 + rounds) * w.requests();
    let mut consistency_failures = 0u64;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            consistency_failures += 1;
            eprintln!("E21 consistency failure: {what}");
        }
    };
    let spans_of = |svc: &Service| {
        let s = svc.telemetry_snapshot();
        (
            s.counters[Metric::SpansKept],
            s.counters[Metric::SpansDropped],
        )
    };
    let (off_kept, off_dropped) = spans_of(&off_svc);
    let (tail_kept, tail_dropped) = spans_of(&tail_svc);
    let (full_kept, full_dropped) = spans_of(&full_svc);
    check(
        off_kept + off_dropped == 0,
        "spans-off service makes no retention decisions",
    );
    check(
        tail_kept + tail_dropped == total_requests,
        "tail sampler decided every request",
    );
    check(
        full_kept == total_requests && full_dropped == 0,
        "full mode keeps every request",
    );
    let full_snap = full_svc.telemetry_snapshot();
    check(
        full_snap.span_resident == full_snap.span_capacity
            && full_snap.span_evicted == full_kept - full_snap.span_resident,
        "full store saturates FIFO: resident + evicted == kept",
    );
    let tail_snap = tail_svc.telemetry_snapshot();
    check(
        tail_snap.span_resident + tail_snap.span_evicted == tail_kept,
        "tail store accounts for every kept tree",
    );
    check(
        full_snap.phases[Phase::Enumerate].0 > 0,
        "cold-path phase profile attributes enumeration time",
    );

    // The injected-retention scenario: a drifted-data request must survive
    // the tail sampler with a complete tree that bit-matches the oracle.
    let scenario = retention_scenario();

    // Round-trips + export: JSONL line per tree, Chrome trace alongside.
    let tail_trees = tail_svc.telemetry().span_trees();
    let export: Vec<SpanTree> = if tail_trees.is_empty() {
        // A fast machine may retain nothing from the overhead passes —
        // the scenario's survivors are always there to export.
        scenario.trees.clone()
    } else {
        tail_trees
    };
    let jsonl: String = export.iter().map(|t| t.to_json() + "\n").collect();
    let (back, skipped) = read_span_trees(&jsonl);
    let jsonl_roundtrip_failures = u64::from(skipped > 0 || back != export);
    let chrome = to_chrome_trace(&export);
    let chrome_roundtrip_failures = match from_chrome_trace(&chrome) {
        Ok(back) if back == export => 0u64,
        _ => 1,
    };
    let jsonl_path = bench_dir().join("spans.jsonl");
    let chrome_path = bench_dir().join("spans_trace.json");
    for (path, text) in [(&jsonl_path, jsonl), (&chrome_path, chrome + "\n")] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    let mut report = Report::new(
        "E21",
        format!(
            "span tracing overhead: {} threads x {} reqs x {rounds} passes, \
             {} templates, zipf(s={ZIPF_S})",
            w.threads,
            w.per_thread,
            w.fleet.len()
        ),
    );
    let names = ["spans-off", "tail", "full"];
    report.line("end-to-end (prepare -> optimize -> execute; the gated workload):");
    mode_table(&mut report, &names, &best);
    report.line("hit-path (optimize-only plan-cache hits; worst-case microbench, report-only):");
    mode_table(&mut report, &names, &hit_best);
    report.line(format!(
        "ceiling: end-to-end tail <= {tail_ceiling}% (violations: {overhead_violations}, \
         wall-clock — report-only outside the gate); full mode and hit-path report-only"
    ));
    report.line(format!(
        "tail retention: {tail_kept} kept / {tail_dropped} dropped of {total_requests} requests"
    ));
    report.line(format!(
        "scenario: slow cold request retained={}, suspect rerun retained={}, \
         oracle structure match={}",
        scenario.slow_retained, scenario.suspect_retained, scenario.oracle_match
    ));
    report.line(format!(
        "consistency: {consistency_failures} failures across span-plane cross-checks"
    ));
    report.line(format!("spans exported:  {}", jsonl_path.display()));
    report.line(format!("chrome exported: {}", chrome_path.display()));

    assert_eq!(
        consistency_failures, 0,
        "span plane disagrees with the request totals"
    );
    assert!(scenario.slow_retained, "slow cold request must be retained");
    assert!(scenario.oracle_match, "retained tree must match the oracle");

    let reg = &mut report.metrics;
    reg.count("spans_requests", total_requests);
    reg.count("spans_off_decisions", off_kept + off_dropped);
    reg.count("spans_full_kept", full_kept);
    reg.count("spans_tail_decisions", tail_kept + tail_dropped);
    reg.count("spans_consistency_failures", consistency_failures);
    reg.count(
        "spans_scenario_slow_retained",
        u64::from(scenario.slow_retained),
    );
    reg.count(
        "spans_scenario_suspect_retained",
        u64::from(scenario.suspect_retained),
    );
    reg.count("spans_oracle_mismatches", u64::from(!scenario.oracle_match));
    reg.count("spans_jsonl_roundtrip_failures", jsonl_roundtrip_failures);
    reg.count("spans_chrome_roundtrip_failures", chrome_roundtrip_failures);
    reg.count("spans_overhead_violations", overhead_violations);
    report
}

/// What the injected-retention scenario proved.
struct ScenarioOutcome {
    /// The drifted cold request came back from the store with a complete
    /// prepare → optimize → execute tree, retained as "slow".
    slow_retained: bool,
    /// A later run of the (by then) flagged fingerprint was retained as
    /// "suspect" even though it was a fast cache hit.
    suspect_retained: bool,
    /// The retained cold tree's structural digest bit-matches a serial
    /// replay of the same request on a fresh service.
    oracle_match: bool,
    /// Every tree the scenario service retained.
    trees: Vec<SpanTree>,
}

/// Build a service whose catalog statistics undercount the data 100x (the
/// E20 drift recipe), warm its latency histogram with fast cache hits,
/// then push one cold drifted request and four reruns through it. The tail
/// sampler must keep the cold request (slow), and — once the feedback
/// plane flags the fingerprint — the fast reruns too (suspect).
fn retention_scenario() -> ScenarioOutcome {
    let cat = synth_catalog(SEED, &spec());
    let db = synth_database_scaled(SEED, cat.clone(), 100);
    let telemetry = |spans: SpanMode| TelemetryConfig {
        spans,
        // Deterministic thresholding: refresh every decision, arm the
        // sampler as soon as the warm traffic has filled the histogram.
        tail: TailConfig {
            quantile: 0.99,
            min_samples: 32,
            refresh_every: 1,
        },
        suspect: SuspectConfig {
            min_runs: 3,
            ..SuspectConfig::default()
        },
        ..TelemetryConfig::default()
    };
    let svc = Service::new(
        cat.clone(),
        ServiceConfig {
            telemetry: telemetry(SpanMode::Tail),
            ..ServiceConfig::default()
        },
    )
    .expect("scenario service builds");

    // Warm traffic: one cold optimize (histogram still below min_samples,
    // so the sampler abstains) then a run of fast hits that define the
    // latency quantile the drifted request must stand out against.
    let warm = query_shape_param(&cat, QueryShape::Chain, 2, Some(1));
    for _ in 0..64 {
        svc.optimize(&warm).expect("warm serve");
    }

    // The drifted request: cold optimize + execution against data 100x
    // the catalog's statistics. Rerun until the feedback plane has flagged
    // the fingerprint and a flagged rerun has passed through the sampler.
    let drifted = query_shape_param(&cat, QueryShape::Chain, 3, Some(1));
    for _ in 0..5 {
        svc.execute(&db, &drifted).expect("drifted execute");
    }

    let trees = svc.telemetry().span_trees();
    let complete = |t: &SpanTree| {
        let s = t.structure();
        s.starts_with("request(prepare,cache_lookup(optimize(enumerate(")
            && s.contains("execute(pipeline:")
    };
    let slow_tree = trees.iter().find(|t| t.retained == "slow" && complete(t));
    let suspect_retained = trees.iter().any(|t| t.retained == "suspect" && t.suspect);

    // Serial-replay oracle: a fresh, identically configured service runs
    // the same cold request alone; the structural digests (names nested by
    // parent links, timings excluded) must bit-match.
    let oracle_svc = Service::new(
        cat.clone(),
        ServiceConfig {
            telemetry: telemetry(SpanMode::Full),
            ..ServiceConfig::default()
        },
    )
    .expect("oracle service builds");
    oracle_svc.execute(&db, &drifted).expect("oracle execute");
    let oracle_trees = oracle_svc.telemetry().span_trees();
    let oracle_match = match (slow_tree, oracle_trees.first()) {
        (Some(kept), Some(oracle)) => kept.structure() == oracle.structure(),
        _ => false,
    };

    ScenarioOutcome {
        slow_retained: slow_tree.is_some(),
        suspect_retained,
        oracle_match,
        trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_span_run_retains_the_injected_request_and_round_trips() {
        let report = e21_spans(true);
        // 4 threads x 60 requests x (1 warmup + 2 measured) passes, for
        // each of the end-to-end and hit-path workloads.
        assert_eq!(report.metrics.counter("spans_requests"), Some(1440));
        assert_eq!(report.metrics.counter("spans_off_decisions"), Some(0));
        assert_eq!(report.metrics.counter("spans_full_kept"), Some(1440));
        assert_eq!(report.metrics.counter("spans_tail_decisions"), Some(1440));
        assert_eq!(
            report.metrics.counter("spans_consistency_failures"),
            Some(0)
        );
        assert_eq!(
            report.metrics.counter("spans_scenario_slow_retained"),
            Some(1)
        );
        assert_eq!(report.metrics.counter("spans_oracle_mismatches"), Some(0));
        assert_eq!(
            report.metrics.counter("spans_jsonl_roundtrip_failures"),
            Some(0)
        );
        assert_eq!(
            report.metrics.counter("spans_chrome_roundtrip_failures"),
            Some(0)
        );
        assert!(report.body.contains("baseline"), "{}", report.body);
    }
}

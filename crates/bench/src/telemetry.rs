//! E19: what the live metrics plane costs. Three identically configured
//! services replay E17's Zipf workload; they differ only in how much
//! telemetry is on:
//!
//! - **counters**  — counters-only plane (histograms and top-K off);
//! - **full**      — the default: counters + latency histograms + top-K;
//! - **full+trace** — full plane plus tail-retained span trees, detailed
//!   for 1/60 of the fingerprints: the always-on-tracing configuration.
//!   The head sampler is a pure function of the fingerprint, and 1/60 is
//!   the sparsest rate that admits one of the fleet's fingerprints both at
//!   full size (1 of 10) and quick (1 of 4) — 1/64 admitted none, so no
//!   request was ever detailed.
//!
//! Throughput is compared best-of-N with the three services interleaved
//! round-robin, so machine-wide drift hits every mode equally. The wall
//! numbers are report-only (CI machines are noisy); the *gate* enforces the
//! deterministic side: request/miss/hist/top-K counts, the head sampler's
//! sampled/suppressed split (a pure function of the fingerprint set), the
//! snapshot-vs-counters consistency checks, and the JSON round-trip — plus
//! an overhead-violation counter that trips when full telemetry costs more
//! than 5% throughput or sampled tracing more than 10%.
//!
//! The full service's final snapshot is also exported to `bench_dir()` as
//! `telemetry_snapshot.json` and `telemetry_snapshot.prom`, so
//! `starqo-obs live` can render exactly what the benchmark measured.

use starqo_serve::{Service, ServiceConfig};
use starqo_trace::{
    LatencyPath, Metric, SpanMode, TelemetryConfig, TelemetrySnapshot, TraceSampler,
};

use crate::serving::{best_of, mode_table, Workload, SEED, ZIPF_S};
use crate::{bench_dir, Report};

/// Overhead ceilings, in percent of counters-only throughput. Quick runs
/// (unit tests, smokes) are too short to measure overhead meaningfully, so
/// they get a deliberately loose ceiling — the real thresholds apply to the
/// full run, which is what the regression gate baselines.
fn ceilings(quick: bool) -> (f64, f64) {
    if quick {
        (60.0, 60.0)
    } else {
        (5.0, 10.0)
    }
}

/// E19: telemetry overhead — counters-only vs full plane vs full + sampled
/// tracing, with the deterministic snapshot invariants cross-checked.
pub fn e19_telemetry(quick: bool) -> Report {
    let w = Workload::new(quick, if quick { (4, 60) } else { (8, 250) });
    let rounds = if quick { 2u64 } else { 3 };
    let sample_rate = 60;

    let service = |telemetry: TelemetryConfig| {
        Service::new(
            w.cat.clone(),
            ServiceConfig {
                telemetry,
                ..ServiceConfig::default()
            },
        )
        .expect("service builds")
    };
    let counters_svc = service(TelemetryConfig::counters_only());
    let full_svc = service(TelemetryConfig::default());
    let traced_svc = service(TelemetryConfig {
        sample: Some(TraceSampler::one_in(sample_rate)),
        spans: SpanMode::Tail,
        ..TelemetryConfig::default()
    });

    // The warmup pass populates the plan cache (every later pass is
    // all-hits).
    let best = best_of(
        &[&counters_svc, &full_svc, &traced_svc],
        rounds,
        |svc, round| w.optimize_pass(svc, SEED + round),
    );
    let total_requests = (1 + rounds) * w.requests();
    let (full_ceiling, traced_ceiling) = ceilings(quick);
    let overhead_violations = u64::from(best[1].overhead_vs(&best[0]) > full_ceiling)
        + u64::from(best[2].overhead_vs(&best[0]) > traced_ceiling);

    // Deterministic invariants: the snapshot must agree with the counter
    // plane, the full tiers must have seen every request, and the
    // counters-only plane must have skipped them.
    let mut consistency_failures = 0u64;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            consistency_failures += 1;
            eprintln!("E19 consistency failure: {what}");
        }
    };
    let full_counters = full_svc.counters();
    let snap = full_svc.telemetry_snapshot();
    check(
        full_counters[Metric::Requests] == total_requests,
        "full service saw every request",
    );
    check(
        snap.counters[Metric::Requests] == total_requests,
        "snapshot requests counter matches the plane",
    );
    check(
        full_counters[Metric::CacheMiss] == w.fleet.len() as u64,
        "single-flight pins cold optimizations to one per template",
    );
    check(
        snap.latency[LatencyPath::EndToEnd].count() == total_requests,
        "end-to-end histogram counted every request",
    );
    check(
        snap.latency[LatencyPath::Optimize].count() == full_counters[Metric::CacheMiss],
        "optimize histogram counted every miss",
    );
    check(
        snap.topk.len() == w.fleet.len(),
        "top-K tracks every distinct fingerprint",
    );
    check(
        snap.topk.iter().map(|e| e.count).sum::<u64>() == total_requests,
        "top-K counts sum to the request total",
    );
    check(
        snap.topk.iter().all(|e| e.err == 0),
        "top-K is exact while distinct fingerprints fit",
    );
    let cold = counters_svc.telemetry_snapshot();
    check(
        cold.counters[Metric::Requests] == total_requests,
        "counters-only plane still counts requests",
    );
    check(
        cold.latency.iter().all(|h| h.count() == 0) && cold.topk.is_empty(),
        "counters-only plane skips histograms and top-K",
    );
    let traced = traced_svc.counters();
    check(
        traced[Metric::TraceSampled] + traced[Metric::TraceUnsampled] == total_requests,
        "head sampler decided every traced-service request",
    );
    check(
        traced[Metric::TraceSampled] > 0,
        "head sampler admitted a fleet fingerprint",
    );
    check(
        counters_svc.counters()[Metric::TraceSampled]
            + counters_svc.counters()[Metric::TraceUnsampled]
            == 0,
        "no sampler decisions without span recording",
    );

    // Exporters: JSON round-trip exactly, and both artifacts land in
    // bench_dir for `starqo-obs live` to render.
    let json_roundtrip_failures = match TelemetrySnapshot::from_json(&snap.to_json()) {
        Ok(parsed) if parsed == snap => 0u64,
        Ok(_) => 1,
        Err(_) => 1,
    };
    let json_path = bench_dir().join("telemetry_snapshot.json");
    let prom_path = bench_dir().join("telemetry_snapshot.prom");
    for (path, text) in [
        (&json_path, snap.to_json() + "\n"),
        (&prom_path, snap.to_prometheus()),
    ] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    let mut report = Report::new(
        "E19",
        format!(
            "telemetry overhead: {} threads x {} reqs x {rounds} passes, \
             {} templates, zipf(s={ZIPF_S}), trace sample 1/{sample_rate}",
            w.threads,
            w.per_thread,
            w.fleet.len()
        ),
    );
    mode_table(&mut report, &["counters", "full", "full+trace"], &best);
    report.line(format!(
        "ceilings: full <= {full_ceiling}%, full+trace <= {traced_ceiling}%  \
         (violations: {overhead_violations}, wall-clock — report-only outside the gate)"
    ));
    report.line(format!(
        "tracing: {} detailed / {} undetailed of {total_requests} requests",
        traced[Metric::TraceSampled],
        traced[Metric::TraceUnsampled]
    ));
    report.line(format!(
        "consistency: {consistency_failures} failures across snapshot/counter cross-checks"
    ));
    report.line(format!("snapshot exported: {}", json_path.display()));
    report.line(format!("snapshot exported: {}", prom_path.display()));

    assert_eq!(
        consistency_failures, 0,
        "telemetry snapshot disagrees with the counter plane"
    );
    assert_eq!(json_roundtrip_failures, 0, "snapshot JSON must round-trip");

    let reg = &mut report.metrics;
    reg.count("telemetry_requests", total_requests);
    reg.count("telemetry_cache_miss", full_counters[Metric::CacheMiss]);
    reg.count("telemetry_hist_end_to_end", total_requests);
    reg.count("telemetry_hot_queries", snap.topk.len() as u64);
    reg.count("telemetry_trace_sampled", traced[Metric::TraceSampled]);
    reg.count("telemetry_trace_unsampled", traced[Metric::TraceUnsampled]);
    reg.count("telemetry_consistency_failures", consistency_failures);
    reg.count("telemetry_json_roundtrip_failures", json_roundtrip_failures);
    reg.count("telemetry_overhead_violations", overhead_violations);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_overhead_run_is_consistent_and_deterministic() {
        let report = e19_telemetry(true);
        // 4 threads x 60 requests x (1 warmup + 2 measured) passes.
        assert_eq!(report.metrics.counter("telemetry_requests"), Some(720));
        assert_eq!(report.metrics.counter("telemetry_cache_miss"), Some(4));
        assert_eq!(report.metrics.counter("telemetry_hot_queries"), Some(4));
        assert_eq!(
            report.metrics.counter("telemetry_consistency_failures"),
            Some(0)
        );
        assert_eq!(
            report.metrics.counter("telemetry_json_roundtrip_failures"),
            Some(0)
        );
        let sampled = report.metrics.counter("telemetry_trace_sampled").unwrap();
        let unsampled = report.metrics.counter("telemetry_trace_unsampled").unwrap();
        assert_eq!(sampled + unsampled, 720);
        assert!(sampled > 0, "the traced service detailed no request");
        assert!(report.body.contains("baseline"), "{}", report.body);
    }
}

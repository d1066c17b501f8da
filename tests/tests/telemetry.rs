//! Cross-crate telemetry-plane tests: the striped counters, histograms,
//! and top-K tracker must agree with a deterministic serial total no matter
//! how many threads hammer them, and a snapshot must survive the trip
//! through both exporters (exactly through JSON, faithfully through the
//! Prometheus text format).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use starqo_trace::{
    FeedbackPlane, Histogram, LatencyPath, Metric, Telemetry, TelemetryConfig, TelemetrySnapshot,
};

/// The workload one thread contributes: a deterministic function of its id,
/// so the expected totals are computable without running anything.
fn thread_workload(tid: u64) -> Vec<(u64, u64)> {
    // (fingerprint, nanos) pairs; fingerprints cycle over a small hot set so
    // the top-K tracker sees real skew, latencies spread over buckets.
    (0..500)
        .map(|i| {
            let fp = 0xF00D + (i + tid) % 7;
            let nanos = 1 + ((i * 37 + tid * 101) % 10_000);
            (fp, nanos)
        })
        .collect()
}

/// The feedback observations one thread folds: `(fp, est, actual, nanos)`.
/// Every quantity that ends up in a sketch is an order-independent fold of
/// this multiset (integer sums, maxes, a constant per-fp estimate), so the
/// concurrent result must *bit-match* a serial replay. The suspect flag is
/// kept order-independent too: four fingerprints only ever observe Q ≤ 3
/// (no prefix can cross the geomean-4 threshold), while the fifth plants
/// single runs of Q = 20 — past the any-run threshold of 16, which is a
/// monotone max and trips in every interleaving.
fn feedback_workload(tid: u64) -> Vec<(u64, u64, u64, u64)> {
    (0..500)
        .map(|i| {
            let fp = 0xBEEF + (i + tid) % 5;
            let est = 100 + (fp - 0xBEEF) * 10;
            let factor = if fp == 0xBEEF + 4 && i < 50 {
                20
            } else {
                1 + (i + tid) % 3
            };
            let nanos = 1 + ((i * 53 + tid * 11) % 8_000);
            (fp, est, est * factor, nanos)
        })
        .collect()
}

#[test]
fn concurrent_hammering_matches_the_serial_total() {
    let threads = 8u64;
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));

    std::thread::scope(|scope| {
        for tid in 0..threads {
            let t = Arc::clone(&telemetry);
            scope.spawn(move || {
                for (fp, nanos) in thread_workload(tid) {
                    t.add(Metric::Requests, 1);
                    t.add(Metric::ExecRows, nanos % 13);
                    t.observe(LatencyPath::EndToEnd, nanos);
                    t.record_request(fp, nanos, 3);
                }
                for (fp, est, actual, nanos) in feedback_workload(tid) {
                    let _ = t.record_feedback(fp, est, actual, nanos, 3);
                }
            });
        }
    });

    // The serial oracle: replay every thread's deterministic stream into
    // fresh single-threaded state.
    let mut expect_requests = 0u64;
    let mut expect_rows = 0u64;
    let mut expect_hist = Histogram::new();
    let mut expect_per_fp: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
    for tid in 0..threads {
        for (fp, nanos) in thread_workload(tid) {
            expect_requests += 1;
            expect_rows += nanos % 13;
            expect_hist.record(nanos);
            let e = expect_per_fp.entry(fp).or_insert((0, 0));
            e.0 += 1;
            e.1 += nanos;
        }
    }

    let snap = telemetry.snapshot();
    assert_eq!(snap.counters[Metric::Requests], expect_requests);
    assert_eq!(snap.counters[Metric::ExecRows], expect_rows);
    let hist = &snap.latency[LatencyPath::EndToEnd];
    assert_eq!(hist.count(), expect_requests);
    assert_eq!(hist.min(), expect_hist.min());
    assert_eq!(hist.max(), expect_hist.max());
    for q in [0.5, 0.9, 0.99, 0.999] {
        assert_eq!(hist.quantile(q), expect_hist.quantile(q), "quantile {q}");
    }

    // 7 distinct fingerprints fit the tracker, so counts are exact and the
    // overcount bound is zero for every entry.
    assert_eq!(snap.topk.len(), expect_per_fp.len());
    for entry in &snap.topk {
        let &(count, nanos) = expect_per_fp.get(&entry.fp).expect("known fp");
        assert_eq!(entry.count, count, "fp {:#x}", entry.fp);
        assert_eq!(entry.nanos, nanos, "fp {:#x}", entry.fp);
        assert_eq!(entry.err, 0);
        assert_eq!(entry.last_epoch, 3);
    }

    // The Q-error sketches must bit-match a serial replay of the same
    // observation multiset: every folded field is order-independent by
    // construction (see `feedback_workload`), so this is equality of whole
    // structs — histogram buckets, suspect flags, and all.
    let config = TelemetryConfig::default();
    let oracle = FeedbackPlane::new(
        config.feedback_shards,
        config.feedback_capacity,
        config.suspect,
    );
    for tid in 0..threads {
        for (fp, est, actual, nanos) in feedback_workload(tid) {
            let _ = oracle.record(fp, est, actual, nanos, 3);
        }
    }
    assert_eq!(snap.qerror, oracle.snapshot());
    assert_eq!(snap.counters[Metric::FeedbackRuns], threads * 500);
    // Exactly the planted spiky fingerprint is suspect.
    let suspects = snap.suspects();
    assert_eq!(suspects.len(), 1);
    assert_eq!(suspects[0].fp, 0xBEEF + 4);
    assert_eq!(snap.counters[Metric::SuspectFlagged], 1);
}

/// Property test: whatever interleaving the writers produce, a pair of
/// successive snapshots is *ordered* — every counter, histogram bucket,
/// top-K count, and sketch run count in the later snapshot is at least the
/// earlier one's — and `delta_since` is exactly the difference, never a
/// wraparound. Monotonicity holds because every stripe, bucket, and
/// shard-locked entry only ever grows, and a later snapshot reads each one
/// after the earlier snapshot did.
#[test]
fn delta_since_never_underflows_under_concurrent_updates() {
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));
    // A failed assertion below unwinds through the scope closure *before*
    // the join; without this guard the writer threads would spin forever
    // on `stop` and the join would hang, burying the panic.
    struct StopOnDrop(Arc<AtomicBool>);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    std::thread::scope(|scope| {
        let _stop_guard = StopOnDrop(Arc::clone(&stop));
        for tid in 0..4u64 {
            let t = Arc::clone(&telemetry);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let fp = 0xFEED + (i + tid) % 9;
                    let nanos = 1 + (i * 29 + tid * 7) % 50_000;
                    t.add(Metric::Requests, 1);
                    t.observe(LatencyPath::EndToEnd, nanos);
                    t.record_request(fp, nanos, tid);
                    let _ = t.record_feedback(fp, 50, 40 + i % 30, nanos, tid);
                    i += 1;
                }
            });
        }

        let mut prev = telemetry.snapshot();
        for _ in 0..200 {
            let cur = telemetry.snapshot();
            let delta = cur.delta_since(&prev);
            for (name, v) in delta.counters.iter() {
                let (c, p) = (cur.counters[name], prev.counters[name]);
                assert!(p <= c, "counter {name:?} went backwards: {p} -> {c}");
                assert_eq!(v, c - p, "counter {name:?} delta");
            }
            for path in LatencyPath::ALL {
                let h = &delta.latency[path];
                let (c, p) = (&cur.latency[path], &prev.latency[path]);
                for (b, ((&d, &cb), &pb)) in h
                    .bucket_counts()
                    .iter()
                    .zip(c.bucket_counts())
                    .zip(p.bucket_counts())
                    .enumerate()
                {
                    assert!(pb <= cb, "hist {path:?} bucket {b} went backwards");
                    assert_eq!(d, cb - pb, "hist {path:?} bucket {b} delta");
                }
                assert!(h.count() <= c.count(), "hist {path:?} count overflow");
            }
            for e in &delta.topk {
                let c = cur.topk.iter().find(|t| t.fp == e.fp).expect("cur entry");
                let p = prev.topk.iter().find(|t| t.fp == e.fp);
                let (p_count, p_nanos) = p.map(|p| (p.count, p.nanos)).unwrap_or((0, 0));
                assert!(p_count <= c.count, "top-K {:#x} count went backwards", e.fp);
                assert_eq!(e.count, c.count - p_count, "top-K {:#x} delta", e.fp);
                assert!(e.nanos <= c.nanos && c.nanos - p_nanos == e.nanos);
            }
            for e in &delta.qerror {
                let c = cur.qerror_for(e.fp).expect("cur sketch");
                let p_runs = prev.qerror_for(e.fp).map(|p| p.runs).unwrap_or(0);
                let p_sum = prev.qerror_for(e.fp).map(|p| p.qlog_sum_micro).unwrap_or(0);
                assert!(p_runs <= c.runs, "sketch {:#x} runs went backwards", e.fp);
                assert_eq!(e.runs, c.runs - p_runs, "sketch {:#x} runs delta", e.fp);
                // The Q window (unlike the lifetime run count) legitimately
                // shrinks when an epoch bump lands between the snapshots
                // and refreshes the sketch, so mirror the delta's
                // saturating semantics instead of subtracting raw.
                assert_eq!(
                    e.qlog_sum_micro,
                    c.qlog_sum_micro.saturating_sub(p_sum),
                    "sketch {:#x} qlog sum delta",
                    e.fp
                );
            }
            prev = cur;
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn counters_only_plane_is_safe_under_concurrency_and_stays_lean() {
    let telemetry = Arc::new(Telemetry::counters_only());
    std::thread::scope(|scope| {
        for tid in 0..4u64 {
            let t = Arc::clone(&telemetry);
            scope.spawn(move || {
                for (fp, nanos) in thread_workload(tid) {
                    t.add(Metric::Requests, 1);
                    t.observe(LatencyPath::Execute, nanos);
                    t.record_request(fp, nanos, 0);
                }
            });
        }
    });
    let snap = telemetry.snapshot();
    assert_eq!(snap.counters[Metric::Requests], 4 * 500);
    assert!(snap.latency.iter().all(|h| h.count() == 0));
    assert!(snap.topk.is_empty());
}

#[test]
fn snapshot_survives_json_and_prometheus_exposition() {
    let telemetry = Telemetry::new(TelemetryConfig::default());
    for (fp, nanos) in thread_workload(1) {
        telemetry.add(Metric::Requests, 1);
        telemetry.add(Metric::CacheHit, 1);
        telemetry.observe(LatencyPath::CacheHit, nanos);
        telemetry.record_request(fp, nanos, 1);
    }
    for (fp, est, actual, nanos) in feedback_workload(1) {
        let _ = telemetry.record_feedback(fp, est, actual, nanos, 1);
    }
    let snap = telemetry.snapshot();

    // JSON is the lossless format: an exact round-trip, bucket for bucket.
    let parsed = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse");
    assert_eq!(parsed, snap);

    // Prometheus text exposition is write-only, but every number it carries
    // must match the snapshot it came from.
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE starqo_serve_requests_total counter"));
    assert!(prom.contains("starqo_serve_requests_total 500"));
    let hit = &snap.latency[LatencyPath::CacheHit];
    assert!(prom.contains(&format!(
        "starqo_latency_nanos_count{{path=\"cache_hit\"}} {}",
        hit.count()
    )));
    let p99 = hit.quantile(0.99).expect("p99");
    assert!(
        prom.contains(&format!(
            "starqo_latency_nanos{{path=\"cache_hit\",quantile=\"0.99\"}} {p99}"
        )),
        "{prom}"
    );
    for (rank, entry) in snap.topk.iter().enumerate() {
        assert!(prom.contains(&format!(
            "starqo_hot_query_requests{{fp=\"{:#018x}\",rank=\"{}\"}} {}",
            entry.fp,
            rank + 1,
            entry.count
        )));
    }

    // Standard histogram exposition: the `_sum`/`_count` pair and the
    // closing `+Inf` bucket must agree with the *JSON-round-tripped*
    // snapshot, so the two exporters can never drift apart silently.
    let hit = &parsed.latency[LatencyPath::CacheHit];
    assert!(prom.contains("# TYPE starqo_latency_hist_nanos histogram"));
    assert!(prom.contains(&format!(
        "starqo_latency_hist_nanos_bucket{{path=\"cache_hit\",le=\"+Inf\"}} {}",
        hit.count()
    )));
    assert!(prom.contains(&format!(
        "starqo_latency_hist_nanos_sum{{path=\"cache_hit\"}} {}",
        hit.sum()
    )));
    assert!(prom.contains(&format!(
        "starqo_latency_hist_nanos_count{{path=\"cache_hit\"}} {}",
        hit.count()
    )));
    // Cumulative `le` buckets: the last explicit bound carries the full
    // count, and bounds appear in increasing order.
    let mut last_cumulative = 0u64;
    for line in prom
        .lines()
        .filter(|l| l.starts_with("starqo_latency_hist_nanos_bucket{path=\"cache_hit\",le=\""))
    {
        let v: u64 = line
            .rsplit_once(' ')
            .expect("value")
            .1
            .parse()
            .expect("count");
        assert!(v >= last_cumulative, "buckets must be cumulative: {line}");
        last_cumulative = v;
    }
    assert_eq!(last_cumulative, hit.count());

    // Plan-quality gauges agree with the parsed sketches (including the
    // planted suspect from `feedback_workload`).
    assert!(!parsed.qerror.is_empty());
    for sketch in &parsed.qerror {
        let labels = format!("fp=\"{:#018x}\"", sketch.fp);
        assert!(prom.contains(&format!(
            "starqo_plan_qerror_runs{{{labels}}} {}",
            sketch.runs
        )));
        assert!(prom.contains(&format!(
            "starqo_plan_suspect{{{labels}}} {}",
            u64::from(sketch.suspect)
        )));
    }
    assert!(prom.contains(&format!(
        "starqo_plan_suspect{{fp=\"{:#018x}\"}} 1",
        0xBEEFu64 + 4
    )));
}

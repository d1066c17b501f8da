//! Cross-crate span-layer tests: the request-scoped span trees recorded
//! under concurrent load must bit-match a serial replay (the structural
//! digest is a pure function of the request's path through the service),
//! interval diffing must delta phases that appear mid-stream from zero, and
//! span-tree JSONL streams must reconstruct past truncation and noise.

use std::sync::Arc;

use starqo_serve::{Service, ServiceConfig};
use starqo_trace::{read_span_trees, SnapshotRing, SpanMode, TelemetryConfig, TelemetrySnapshot};
use starqo_workload::{query_shape_param, synth_catalog, QueryShape, SynthSpec};

fn spec() -> SynthSpec {
    SynthSpec {
        tables: 4,
        card_range: (20, 40),
        sites: 1,
        index_prob: 0.5,
        btree_prob: 0.5,
        payload_cols: 2,
    }
}

fn full_span_service(cat: &Arc<starqo_catalog::Catalog>) -> Service {
    Service::new(
        Arc::clone(cat),
        ServiceConfig {
            telemetry: TelemetryConfig {
                spans: SpanMode::Full,
                // Big enough that nothing the test records is evicted.
                span_store: 2_048,
                ..TelemetryConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("service builds")
}

/// 8 threads hammer one warmed fingerprint; every retained tree's
/// structural digest must bit-match the digest a serial replay produces.
/// The digest excludes timings (names nested by parent links only), so
/// however the scheduler interleaves the requests, any structural
/// divergence — a missing span, a reparented child, an extra phase — is a
/// real recording bug, not jitter.
#[test]
fn concurrent_span_trees_bit_match_the_serial_oracle() {
    let threads = 8usize;
    let per_thread = 40usize;
    let cat = synth_catalog(7, &spec());
    let q = query_shape_param(&cat, QueryShape::Chain, 3, Some(1));

    let svc = full_span_service(&cat);
    svc.optimize(&q).expect("cold serve");
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (svc, q) = (&svc, &q);
            scope.spawn(move || {
                for _ in 0..per_thread {
                    svc.optimize(q).expect("warm serve");
                }
            });
        }
    });

    // Serial oracle: a fresh, identically configured service serves the
    // same cold-then-hit sequence alone.
    let oracle = full_span_service(&cat);
    oracle.optimize(&q).expect("oracle cold");
    oracle.optimize(&q).expect("oracle hit");
    let oracle_trees = oracle.telemetry().span_trees();
    assert_eq!(oracle_trees.len(), 2);
    let cold_digest = oracle_trees[0].structure();
    let hit_digest = oracle_trees[1].structure();
    assert_ne!(cold_digest, hit_digest, "cold requests nest the optimizer");

    let trees = svc.telemetry().span_trees();
    assert_eq!(trees.len(), 1 + threads * per_thread, "nothing evicted");
    // trees() is request-id ascending: request 1 is the warmup cold miss.
    assert_eq!(trees[0].outcome, "miss");
    assert_eq!(
        trees[0].structure(),
        cold_digest,
        "cold tree matches oracle"
    );
    for t in &trees[1..] {
        assert_eq!(t.outcome, "hit", "request {}", t.request_id);
        assert_eq!(
            t.structure(),
            hit_digest,
            "request {} diverged from the serial oracle",
            t.request_id
        );
        assert_eq!(t.dropped, 0);
    }
}

/// A watcher that seeded its ring from an idle plane keeps producing sane
/// deltas: a v4 document with no phases recorded and the span store off,
/// diffed against a later live snapshot, deltas the new phases and counters
/// from zero and carries the span gauges through as absolutes.
#[test]
fn snapshot_ring_diffs_phases_from_an_idle_base() {
    let idle_text = r#"{"version":4,"uptime_nanos":1000,"counters":{"serve_requests":10,"serve_spans_kept":0},"latency":{},"topk":[],"qerror":[],"phases":{},"span_store":{"resident":0,"capacity":0,"evicted":0},"heal":[]}"#;
    let idle = TelemetrySnapshot::from_json(idle_text).expect("v4 parses");
    assert!(idle.phases.is_empty());

    let mut ring = SnapshotRing::new(4);
    assert!(ring.push(idle).is_none(), "first push seeds the diff base");

    let mut live = TelemetrySnapshot::from_json(idle_text).expect("seed");
    live.uptime_nanos = 3_000;
    live.counters = vec![
        ("serve_requests".into(), 25),
        ("serve_spans_kept".into(), 4),
    ];
    live.phases = live_phases();
    live.span_resident = 4;
    live.span_capacity = 64;
    live.span_evicted = 0;
    // The live snapshot must itself round-trip.
    let reparsed = TelemetrySnapshot::from_json(&live.to_json()).expect("round-trips");
    assert_eq!(reparsed, live);

    let delta = ring.push(live).expect("second push yields a delta");
    assert_eq!(delta.uptime_nanos, 2_000);
    assert_eq!(delta.counter("serve_requests"), Some(15));
    assert_eq!(delta.counter("serve_spans_kept"), Some(4));
    // Phases absent from the idle base delta from zero…
    assert_eq!(delta.phases, live_phases());
    // …and the span-store gauges pass through as the later absolutes.
    assert_eq!(
        (delta.span_resident, delta.span_capacity, delta.span_evicted),
        (4, 64, 0)
    );
    assert_eq!(ring.counter_series("serve_spans_kept"), vec![4]);
}

fn live_phases() -> Vec<(String, u64, u64)> {
    vec![
        ("prepare".into(), 9_000, 25),
        ("execute".into(), 70_000, 25),
    ]
}

/// A span JSONL stream that lost its tail (a crashed exporter) and picked
/// up interleaved garbage still reconstructs every intact tree, counting
/// the rest instead of failing the read.
#[test]
fn truncated_and_interleaved_span_jsonl_reconstructs() {
    let trees = starqo_obs::smoke_trees();
    let lines: Vec<String> = trees.iter().map(|t| t.to_json()).collect();

    // Interleave noise between the intact lines, then append a line that
    // was cut off mid-object (crash mid-write).
    let truncated = &lines[0][..lines[0].len() / 2];
    let stream = format!(
        "{}\nnot json at all\n\n{}\n{{\"request_id\":99}}\n{truncated}\n",
        lines[0], lines[1]
    );
    let (back, skipped) = read_span_trees(&stream);
    assert_eq!(back, trees, "intact lines reconstruct byte-identically");
    // Dropped: the garbage line, the truncated tail, and the object
    // missing its required fields. Blank lines are not counted.
    assert_eq!(skipped, 3);

    // The reconstructed trees still drive the full reporting path.
    let report = starqo_obs::SpanReport::new(back);
    assert!(report.render_table(10).contains("0x00000000000a11ce"));
    let slowest = report.trees()[0].request_id;
    assert!(report.render_waterfall(slowest).is_some());
}

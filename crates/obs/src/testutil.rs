//! Hand-constructed traces shared by the analytics tests. Every number
//! here is asserted somewhere — change with care.

use starqo_trace::{
    CostBreakdownEv, Counters, Metric, Phase, SpanEvent, SpanRecord, SpanTree, TelemetrySnapshot,
    TraceEvent,
};

/// One recorded request carrying `events` (no spans, every event at offset
/// 0 under no span).
pub fn tree_of(events: Vec<TraceEvent>) -> SpanTree {
    SpanTree {
        events: events
            .into_iter()
            .map(|event| SpanEvent {
                span: 0,
                at: 0,
                event,
            })
            .collect(),
        ..SpanTree::default()
    }
}

/// A minimal but complete run, one detailed tree: `JoinRoot` expands once
/// (a 2 µs `star:JoinRoot` span) and references `JMeth` twice (one 1.5 µs
/// expansion, one memo hit). `JMeth`'s alt 1 fails its condition, alt 2
/// fires and builds two plans (one inserted, one pruned), and a third
/// candidate is rejected. The winner is `JOIN(MG)` over `ACCESS(heap)`.
pub fn trace_one_star() -> Vec<SpanTree> {
    let star = |id: u32, parent: u32, name: &str, start_nanos: u64, end_nanos: u64| SpanRecord {
        id,
        parent,
        name: format!("star:{name}").into(),
        start_nanos,
        end_nanos,
        meta: u64::from(id),
    };
    vec![SpanTree {
        spans: vec![
            star(2, 1, "JMeth", 100, 1_600),
            star(1, 0, "JoinRoot", 0, 2_000),
        ],
        ..tree_of(one_star_events())
    }]
}

fn one_star_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::StarRef {
            star: "JoinRoot".into(),
            sid: 0,
            id: 1,
            parent: 0,
            memo_hit: false,
        },
        TraceEvent::StarRef {
            star: "JMeth".into(),
            sid: 1,
            id: 2,
            parent: 1,
            memo_hit: false,
        },
        TraceEvent::CondFailed {
            star: "JMeth".into(),
            alt: 1,
            ref_id: 2,
            cond: "enabled('hashjoin')".into(),
        },
        TraceEvent::AltFired {
            star: "JMeth".into(),
            alt: 2,
            ref_id: 2,
            plans: 2,
        },
        TraceEvent::PlanBuilt {
            op: "JOIN(MG)".into(),
            fp: 100,
            ref_id: 2,
            card: 100.0,
            cost_once: 42.0,
            cost_rescan: 1.0,
            breakdown: CostBreakdownEv::default(),
        },
        TraceEvent::PlanBuilt {
            op: "JOIN(NL)".into(),
            fp: 101,
            ref_id: 2,
            card: 100.0,
            cost_once: 99.0,
            cost_rescan: 9.0,
            breakdown: CostBreakdownEv::default(),
        },
        TraceEvent::PlanRejected {
            op: "SORT".into(),
            ref_id: 2,
            reason: "no key".into(),
        },
        TraceEvent::TableInsert {
            op: "JOIN(MG)".into(),
            fp: 100,
            cost: 43.0,
            evicted: 0,
        },
        TraceEvent::TablePrune {
            op: "JOIN(NL)".into(),
            fp: 101,
            cost: 108.0,
            duplicate: false,
        },
        TraceEvent::StarRef {
            star: "JMeth".into(),
            sid: 1,
            id: 3,
            parent: 1,
            memo_hit: true,
        },
        TraceEvent::BestNode {
            op: "JOIN(MG)".into(),
            fp: 100,
            depth: 0,
            origin: "JMeth[alt 2]".into(),
            card: 100.0,
            cost: 43.0,
        },
        TraceEvent::BestNode {
            op: "ACCESS(heap)".into(),
            fp: 50,
            depth: 1,
            origin: "AccessStar[alt 1]".into(),
            card: 10.0,
            cost: 5.0,
        },
    ]
}

/// A deterministic synthetic snapshot for the dashboard, doctor and
/// exporter tests (render + JSON + Prometheus) without a live service.
pub fn smoke_snapshot() -> TelemetrySnapshot {
    use starqo_trace::{FeedbackPlane, Histogram, HotQuery, SuspectConfig};
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
    let mut counters = Counters::default();
    for (m, v) in [
        (Metric::Requests, 200),
        (Metric::CacheHit, 196),
        (Metric::CacheCoalesced, 0),
        (Metric::CacheMiss, 4),
        (Metric::CacheEvict, 0),
        (Metric::CacheInvalidate, 0),
        (Metric::Rejected, 0),
        (Metric::Degraded, 0),
        (Metric::Errors, 0),
        (Metric::Executions, 200),
        (Metric::ExecRows, 1_600),
        (Metric::TraceSampled, 3),
        (Metric::TraceUnsampled, 197),
        (Metric::StarRefs, 56),
        (Metric::MemoHits, 24),
        (Metric::PlansBuilt, 180),
        (Metric::GlueRefs, 32),
        (Metric::OptNanos, 8_600_000),
        (Metric::SavedNanos, 420_000_000),
        (Metric::ExecNanos, 9_000_000),
        (Metric::PipelineRows, 2_400),
        (Metric::FeedbackRuns, 200),
        (Metric::SuspectFlagged, 1),
        (Metric::SpansKept, 6),
        (Metric::SpansDropped, 194),
        (Metric::ReoptAttempts, 3),
        (Metric::ReoptFailures, 1),
        (Metric::ReoptBackoff, 2),
        (Metric::ReoptRetryCapped, 0),
        (Metric::PlanSwap, 1),
        (Metric::PlanPinned, 2),
        (Metric::VexecBatches, 240),
        (Metric::VexecQueued, 62),
        (Metric::VexecMorsels, 60),
        (Metric::VexecRows, 1_550),
    ] {
        counters[m] = v;
    }
    let mut phases = [(0, 0); Phase::COUNT];
    for (p, reading) in [
        (Phase::Prepare, (400_000, 200)),
        (Phase::CacheLookup, (600_000, 196)),
        (Phase::Enumerate, (7_200_000, 4)),
        (Phase::Glue, (900_000, 4)),
        (Phase::Compile, (300_000, 4)),
        (Phase::Execute, (9_000_000, 200)),
    ] {
        phases[p] = reading;
    }
    TelemetrySnapshot {
        uptime_nanos: 2_000_000_000,
        counters,
        phases,
        span_resident: 6,
        span_capacity: 64,
        span_evicted: 0,
        latency: [optimize, cache_hit, execute, end_to_end],
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
                plane.record(0xA11CE, 1, 0, Some((20, 320, 40_000 + i * 1_000)));
                plane.record(0xB0B, 1, 0, Some((64, 64, 45_000 + i * 1_000)));
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

/// A deterministic sequence of absolute snapshots for the watch-loop
/// tests: steady traffic with a drift flag
/// appearing mid-sequence.
pub fn smoke_sequence() -> Vec<TelemetrySnapshot> {
    (0..4u64)
        .map(|i| {
            let mut s = smoke_snapshot();
            s.uptime_nanos = (i + 1) * 1_000_000_000;
            for m in Metric::ALL {
                // Counters grow linearly; the suspect flag lands on tick 3.
                s.counters[m] = match m {
                    Metric::SuspectFlagged => u64::from(i >= 2),
                    _ => s.counters[m] * (i + 1) / 4,
                };
            }
            s
        })
        .collect()
}

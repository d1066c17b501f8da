//! Every serialized record's exact text, pinned: one event of every kind,
//! one span tree (with and without annotated events) as a JSONL line and
//! as Chrome `trace_event` JSON, and a snapshot whose `topk`, `qerror` and `heal` arrays are all
//! non-empty. A writer change shows up here as a diff; each text must also
//! parse back to the value that wrote it.

use starqo_trace::{
    from_chrome_trace, to_chrome_trace, CostBreakdownEv, Counters, HealRecord, Histogram, HotQuery,
    Metric, Phase, QErrorSketch, SpanEvent, SpanRecord, SpanTree, TelemetrySnapshot, TraceEvent,
};

/// One event of every kind, next to its JSON-Lines text.
fn events() -> Vec<(TraceEvent, &'static str)> {
    vec![
        (
            TraceEvent::StarRef {
                star: "JoinRoot".into(),
                sid: 3,
                id: 17,
                parent: 4,
                memo_hit: true,
            },
            r#"{"type":"star_ref","star":"JoinRoot","sid":3,"id":17,"parent":4,"memo_hit":true}"#,
        ),
        (
            TraceEvent::AltFired {
                star: "JMeth".into(),
                alt: 2,
                ref_id: 17,
                plans: 3,
            },
            r#"{"type":"alt_fired","star":"JMeth","alt":2,"ref_id":17,"plans":3}"#,
        ),
        (
            TraceEvent::CondFailed {
                star: "JMeth".into(),
                alt: 1,
                ref_id: 17,
                cond: "enabled('hashjoin')".into(),
            },
            r#"{"type":"cond_failed","star":"JMeth","alt":1,"ref_id":17,"cond":"enabled('hashjoin')"}"#,
        ),
        (
            TraceEvent::ForallExpand {
                star: "AccessStar".into(),
                alt: 1,
                ref_id: 9,
                items: 4,
            },
            r#"{"type":"forall_expand","star":"AccessStar","alt":1,"ref_id":9,"items":4}"#,
        ),
        (
            TraceEvent::GlueRef {
                ref_id: 9,
                cache_hit: false,
                candidates: 2,
                veneers: 1,
            },
            r#"{"type":"glue_ref","ref_id":9,"cache_hit":false,"candidates":2,"veneers":1}"#,
        ),
        (
            TraceEvent::PlanBuilt {
                op: "JOIN(NL)".into(),
                fp: u64::MAX,
                ref_id: 17,
                card: 10.0,
                cost_once: 3.5,
                cost_rescan: 0.5,
                breakdown: CostBreakdownEv {
                    io: 2.0,
                    cpu: 1.0,
                    comm: 0.5,
                    other: 0.5,
                },
            },
            r#"{"type":"plan_built","op":"JOIN(NL)","fp":18446744073709551615,"ref_id":17,"card":10,"cost_once":3.5,"cost_rescan":0.5,"io":2,"cpu":1,"comm":0.5,"other":0.5}"#,
        ),
        (
            TraceEvent::PlanRejected {
                op: "SORT".into(),
                ref_id: 17,
                reason: "no key".into(),
            },
            r#"{"type":"plan_rejected","op":"SORT","ref_id":17,"reason":"no key"}"#,
        ),
        (
            TraceEvent::TableInsert {
                op: "JOIN(MG)".into(),
                fp: (1 << 53) + 1,
                cost: 8.25,
                evicted: 1,
            },
            r#"{"type":"table_insert","op":"JOIN(MG)","fp":9007199254740993,"cost":8.25,"evicted":1}"#,
        ),
        (
            TraceEvent::TablePrune {
                op: "JOIN(HA)".into(),
                fp: 77,
                cost: 9.0,
                duplicate: false,
            },
            r#"{"type":"table_prune","op":"JOIN(HA)","fp":77,"cost":9,"duplicate":false}"#,
        ),
        (
            TraceEvent::TableDominated {
                op: "ACCESS(heap)".into(),
                fp: 78,
                cost: 12.5,
            },
            r#"{"type":"table_dominated","op":"ACCESS(heap)","fp":78,"cost":12.5}"#,
        ),
        (
            TraceEvent::BestNode {
                op: "JOIN(MG)".into(),
                fp: 79,
                depth: 0,
                origin: "JMeth[alt 2]".into(),
                card: 100.0,
                cost: 42.0,
            },
            r#"{"type":"best_node","op":"JOIN(MG)","fp":79,"depth":0,"origin":"JMeth[alt 2]","card":100,"cost":42}"#,
        ),
        (
            TraceEvent::ExecNode {
                op: "ACCESS(heap)".into(),
                fp: 80,
                rows_out: 100,
                invocations: 2,
                nanos: 999,
            },
            r#"{"type":"exec_node","op":"ACCESS(heap)","fp":80,"rows_out":100,"invocations":2,"nanos":999}"#,
        ),
        (
            TraceEvent::QueryStart {
                name: "paper/local".into(),
            },
            r#"{"type":"query_start","name":"paper/local"}"#,
        ),
        (
            TraceEvent::QueryDone {
                name: "paper/local".into(),
                rows: 84,
                nanos: 77_000,
            },
            r#"{"type":"query_done","name":"paper/local","rows":84,"nanos":77000}"#,
        ),
        (
            TraceEvent::RuleQuarantined {
                star: "JMeth".into(),
                alt: 3,
                ref_id: 17,
                cond: "hashable_preds(JP) != {}".into(),
                reason: "panic in native function 'hashable_preds': boom".into(),
            },
            r#"{"type":"rule_quarantined","star":"JMeth","alt":3,"ref_id":17,"cond":"hashable_preds(JP) != {}","reason":"panic in native function 'hashable_preds': boom"}"#,
        ),
        (
            TraceEvent::BudgetExhausted {
                resource: "memo_entries".into(),
                detail: "memo cap of 64 entries reached".into(),
            },
            r#"{"type":"budget_exhausted","resource":"memo_entries","detail":"memo cap of 64 entries reached"}"#,
        ),
        (
            TraceEvent::CacheHit {
                fp: 0xDEAD_BEEF,
                epoch: 3,
                saved_nanos: 1_250_000,
            },
            r#"{"type":"cache_hit","fp":3735928559,"epoch":3,"saved_nanos":1250000}"#,
        ),
        (
            TraceEvent::CacheMiss {
                fp: 0xDEAD_BEEF,
                epoch: 3,
            },
            r#"{"type":"cache_miss","fp":3735928559,"epoch":3}"#,
        ),
        (
            TraceEvent::CacheEvict {
                fp: 0xFEED_FACE,
                reason: "capacity".into(),
            },
            r#"{"type":"cache_evict","fp":4277009102,"reason":"capacity"}"#,
        ),
        (
            TraceEvent::CacheInvalidate {
                fp: 0xDEAD_BEEF,
                epoch: 4,
            },
            r#"{"type":"cache_invalidate","fp":3735928559,"epoch":4}"#,
        ),
        (
            TraceEvent::PlanSuspect {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                runs: 16,
                geomean_q: 6.5,
                max_q: 40.0,
                reason: "geomean_q".into(),
            },
            r#"{"type":"plan_suspect","fp":3735928559,"epoch":4,"runs":16,"geomean_q":6.5,"max_q":40,"reason":"geomean_q"}"#,
        ),
        (
            TraceEvent::PlanReopt {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                attempt: 1,
            },
            r#"{"type":"plan_reopt","fp":3735928559,"epoch":4,"attempt":1}"#,
        ),
        (
            TraceEvent::PlanSwap {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                incumbent_work: 5_000,
                candidate_work: 1_200,
            },
            r#"{"type":"plan_swap","fp":3735928559,"epoch":4,"incumbent_work":5000,"candidate_work":1200}"#,
        ),
        (
            TraceEvent::PlanPinned {
                fp: 0xFEED_FACE,
                epoch: 4,
                reason: "verify_mismatch".into(),
                attempt: 2,
                backoff_nanos: 400_000_000,
            },
            r#"{"type":"plan_pinned","fp":4277009102,"epoch":4,"reason":"verify_mismatch","attempt":2,"backoff_nanos":400000000}"#,
        ),
    ]
}

#[test]
fn every_event_kind_writes_its_pinned_line() {
    for (event, line) in events() {
        assert_eq!(event.to_json(), line);
        assert_eq!(TraceEvent::from_json(line), Some(event), "{line}");
    }
}

/// A two-span tree in completion order (the child closes first).
fn tree() -> SpanTree {
    SpanTree {
        request_id: 7,
        fp: 0xFEED,
        epoch: 2,
        total_nanos: 5_000,
        outcome: "miss".into(),
        degraded: false,
        suspect: true,
        retained: "suspect".into(),
        spans: vec![
            SpanRecord {
                id: 2,
                parent: 1,
                name: "star:JOIN".to_string().into(),
                start_nanos: 1_500,
                end_nanos: 3_250,
                meta: 17,
            },
            SpanRecord {
                id: 1,
                parent: 0,
                name: "request".to_string().into(),
                start_nanos: 0,
                end_nanos: 4_900,
                meta: 0,
            },
        ],
        dropped: 1,
        events: Vec::new(),
    }
}

const TREE_LINE: &str = r#"{"request_id":7,"fp":65261,"epoch":2,"total_nanos":5000,"outcome":"miss","degraded":false,"suspect":true,"retained":"suspect","dropped":1,"spans":[{"id":2,"parent":1,"name":"star:JOIN","start":1500,"end":3250,"meta":17},{"id":1,"parent":0,"name":"request","start":0,"end":4900,"meta":0}],"events":[]}"#;

const TREE_CHROME: &str = r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"req 0xfeed miss","request_id":7,"fp":65261,"epoch":2,"total_nanos":5000,"outcome":"miss","degraded":false,"suspect":true,"retained":"suspect","dropped":1}},{"name":"star:JOIN","cat":"starqo","ph":"X","pid":1,"tid":7,"ts":1,"dur":1,"args":{"id":2,"parent":1,"start_nanos":1500,"end_nanos":3250,"meta":17}},{"name":"request","cat":"starqo","ph":"X","pid":1,"tid":7,"ts":0,"dur":4,"args":{"id":1,"parent":0,"start_nanos":0,"end_nanos":4900,"meta":0}}]}"#;

#[test]
fn span_tree_writes_its_pinned_line_and_chrome_text() {
    let tree = tree();
    assert_eq!(tree.to_json(), TREE_LINE);
    assert_eq!(SpanTree::from_json(TREE_LINE).expect("jsonl parses"), tree);
    assert_eq!(to_chrome_trace(std::slice::from_ref(&tree)), TREE_CHROME);
    assert_eq!(
        from_chrome_trace(TREE_CHROME).expect("chrome parses"),
        vec![tree]
    );
}

/// [`tree`] with two annotated events: one under the STAR span, one
/// under the root.
fn tree_with_events() -> SpanTree {
    SpanTree {
        events: vec![
            SpanEvent {
                span: 2,
                at: 2_100,
                event: TraceEvent::AltFired {
                    star: "JMeth".into(),
                    alt: 2,
                    ref_id: 17,
                    plans: 3,
                },
            },
            SpanEvent {
                span: 1,
                at: 4_000,
                event: TraceEvent::CacheMiss {
                    fp: 0xFEED,
                    epoch: 2,
                },
            },
        ],
        ..tree()
    }
}

const EVENTS_LINE: &str = r#"{"request_id":7,"fp":65261,"epoch":2,"total_nanos":5000,"outcome":"miss","degraded":false,"suspect":true,"retained":"suspect","dropped":1,"spans":[{"id":2,"parent":1,"name":"star:JOIN","start":1500,"end":3250,"meta":17},{"id":1,"parent":0,"name":"request","start":0,"end":4900,"meta":0}],"events":[{"span":2,"at":2100,"type":"alt_fired","star":"JMeth","alt":2,"ref_id":17,"plans":3},{"span":1,"at":4000,"type":"cache_miss","fp":65261,"epoch":2}]}"#;

const EVENTS_CHROME: &str = r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"req 0xfeed miss","request_id":7,"fp":65261,"epoch":2,"total_nanos":5000,"outcome":"miss","degraded":false,"suspect":true,"retained":"suspect","dropped":1}},{"name":"star:JOIN","cat":"starqo","ph":"X","pid":1,"tid":7,"ts":1,"dur":1,"args":{"id":2,"parent":1,"start_nanos":1500,"end_nanos":3250,"meta":17}},{"name":"request","cat":"starqo","ph":"X","pid":1,"tid":7,"ts":0,"dur":4,"args":{"id":1,"parent":0,"start_nanos":0,"end_nanos":4900,"meta":0}},{"name":"alt_fired","cat":"starqo","ph":"i","s":"t","pid":1,"tid":7,"ts":2,"args":{"span":2,"at":2100,"type":"alt_fired","star":"JMeth","alt":2,"ref_id":17,"plans":3}},{"name":"cache_miss","cat":"starqo","ph":"i","s":"t","pid":1,"tid":7,"ts":4,"args":{"span":1,"at":4000,"type":"cache_miss","fp":65261,"epoch":2}}]}"#;

#[test]
fn span_tree_events_write_their_pinned_line_and_chrome_text() {
    let tree = tree_with_events();
    assert_eq!(tree.to_json(), EVENTS_LINE);
    assert_eq!(
        SpanTree::from_json(EVENTS_LINE).expect("jsonl parses"),
        tree
    );
    assert_eq!(to_chrome_trace(std::slice::from_ref(&tree)), EVENTS_CHROME);
    assert_eq!(
        from_chrome_trace(EVENTS_CHROME).expect("chrome parses"),
        vec![tree]
    );
}

fn snapshot() -> TelemetrySnapshot {
    let mut counters = Counters::default();
    counters[Metric::Requests] = 3;
    let mut nanos = Histogram::new();
    nanos.record(3_000);
    let mut phases = [(0, 0); Phase::COUNT];
    phases[Phase::Execute] = (9_000, 3);
    TelemetrySnapshot {
        uptime_nanos: 1_000_000,
        counters,
        latency: Default::default(),
        topk: vec![HotQuery {
            fp: 0xA11CE,
            count: 3,
            err: 1,
            nanos: 9_000,
            last_epoch: 2,
        }],
        qerror: vec![QErrorSketch {
            fp: 0xA11CE,
            runs: 3,
            q_runs: 2,
            qlog_sum_micro: 4_000_000,
            qlog_max_micro: 3_000_000,
            est_rows: 40,
            actual_min: 40,
            actual_max: 320,
            nanos,
            last_epoch: 2,
            suspect: true,
        }],
        phases,
        span_resident: 1,
        span_capacity: 64,
        span_evicted: 0,
        heal: vec![HealRecord {
            fp: 0xA11CE,
            epoch: 2,
            attempts: 1,
            swaps: 1,
            pins: 0,
            backoff_hits: 2,
            retry_capped: false,
            last_reason: "swapped".into(),
            backoff_until_nanos: 0,
        }],
    }
}

const SNAPSHOT: &str = r#"{"version":4,"uptime_nanos":1000000,"counters":{"serve_requests":3,"serve_cache_hit":0,"serve_cache_coalesced":0,"serve_cache_miss":0,"serve_cache_evict":0,"serve_cache_invalidate":0,"serve_rejected":0,"serve_degraded":0,"serve_errors":0,"serve_executions":0,"serve_exec_rows":0,"serve_trace_sampled":0,"serve_trace_unsampled":0,"opt_star_refs":0,"opt_memo_hits":0,"opt_plans_built":0,"opt_glue_refs":0,"serve_opt_nanos":0,"serve_saved_nanos":0,"serve_exec_nanos":0,"serve_pipeline_rows":0,"serve_feedback_runs":0,"serve_suspects_flagged":0,"serve_spans_kept":0,"serve_spans_dropped":0,"serve_reopt_attempts":0,"serve_reopt_failures":0,"serve_reopt_backoff":0,"serve_reopt_retry_capped":0,"serve_plan_swap":0,"serve_plan_pinned":0,"vexec_batches":0,"vexec_morsels_queued":0,"vexec_morsels":0,"vexec_rows":0},"latency":{"optimize":{"count":0,"sum":0,"min":0,"max":0,"buckets":{}},"cache_hit":{"count":0,"sum":0,"min":0,"max":0,"buckets":{}},"execute":{"count":0,"sum":0,"min":0,"max":0,"buckets":{}},"end_to_end":{"count":0,"sum":0,"min":0,"max":0,"buckets":{}}},"topk":[{"fp":659918,"count":3,"err":1,"nanos":9000,"last_epoch":2}],"qerror":[{"fp":659918,"runs":3,"q_runs":2,"qlog_sum_micro":4000000,"qlog_max_micro":3000000,"est_rows":40,"actual_min":40,"actual_max":320,"nanos":{"count":1,"sum":3000,"min":3000,"max":3000,"buckets":{"12":1}},"last_epoch":2,"suspect":true}],"phases":{"prepare":{"nanos":0,"count":0},"cache_lookup":{"nanos":0,"count":0},"flight_wait":{"nanos":0,"count":0},"enumerate":{"nanos":0,"count":0},"glue":{"nanos":0,"count":0},"compile":{"nanos":0,"count":0},"execute":{"nanos":9000,"count":3},"reopt":{"nanos":0,"count":0}},"span_store":{"resident":1,"capacity":64,"evicted":0},"heal":[{"fp":659918,"epoch":2,"attempts":1,"swaps":1,"pins":0,"backoff_hits":2,"retry_capped":false,"last_reason":"swapped","backoff_until_nanos":0}]}"#;

#[test]
fn snapshot_with_every_record_array_writes_its_pinned_text() {
    let snap = snapshot();
    assert_eq!(snap.to_json(), SNAPSHOT);
    assert_eq!(TelemetrySnapshot::from_json(SNAPSHOT), Ok(snap));
}

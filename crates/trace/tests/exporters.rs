//! The exporters' exact text, pinned: a live [`Telemetry`] driven by fixed
//! calls must serialize byte for byte as below, through JSON and through
//! the Prometheus text format. Any change to a name, an order or a number
//! format shows up here as a diff, not as a `contains` that still passes.

use starqo_trace::{
    LatencyPath, Metric, Phase, SpanContext, Telemetry, TelemetryConfig, TelemetrySnapshot,
};

fn pinned_snapshot() -> TelemetrySnapshot {
    let t = Telemetry::new(TelemetryConfig::default());
    t.add(Metric::Requests, 7);
    t.add(Metric::CacheHit, 5);
    t.add(Metric::CacheMiss, 2);
    t.add(Metric::OptNanos, 90_000);
    t.add(Metric::PlansBuilt, 41);
    t.add(Metric::VexecQueued, 3);
    t.add(Metric::VexecRows, 120);
    t.observe(LatencyPath::Optimize, 40_000);
    t.observe(LatencyPath::Optimize, 50_000);
    t.observe(LatencyPath::CacheHit, 900);
    t.observe(LatencyPath::Execute, 12_345);
    t.observe(LatencyPath::EndToEnd, 1_000);
    t.observe(LatencyPath::EndToEnd, 60_000);
    t.record_phase(Phase::Prepare, 300);
    t.record_phase(Phase::Enumerate, 30_000);
    t.record_phase(Phase::Glue, 8_000);
    t.record_phase(Phase::Execute, 12_000);
    t.record(0xA11CE, 1, 1_000, None, &SpanContext::off());
    for (serve, actual, nanos) in [
        (60_000, 40, 3_000),
        (2_000, 400, 5_000),
        (3_000, 4_000, 7_000),
    ] {
        t.record(
            0xA11CE,
            2,
            serve,
            Some((40, actual, nanos)),
            &SpanContext::off(),
        );
    }
    t.record(0xB0B, 2, 900, Some((10, 10, 800)), &SpanContext::off());
    let mut snap = t.snapshot();
    snap.uptime_nanos = 2_000_000_000;
    snap
}

const JSON: &str = r#"{"version":4,"uptime_nanos":2000000000,"counters":{"serve_requests":7,"serve_cache_hit":5,"serve_cache_coalesced":0,"serve_cache_miss":2,"serve_cache_evict":0,"serve_cache_invalidate":0,"serve_rejected":0,"serve_degraded":0,"serve_errors":0,"serve_executions":0,"serve_exec_rows":0,"serve_trace_sampled":0,"serve_trace_unsampled":0,"opt_star_refs":0,"opt_memo_hits":0,"opt_plans_built":41,"opt_glue_refs":0,"serve_opt_nanos":90000,"serve_saved_nanos":0,"serve_exec_nanos":0,"serve_pipeline_rows":0,"serve_feedback_runs":4,"serve_suspects_flagged":0,"serve_spans_kept":0,"serve_spans_dropped":0,"serve_reopt_attempts":0,"serve_reopt_failures":0,"serve_reopt_backoff":0,"serve_reopt_retry_capped":0,"serve_plan_swap":0,"serve_plan_pinned":0,"vexec_batches":0,"vexec_morsels_queued":3,"vexec_morsels":0,"vexec_rows":120},"latency":{"optimize":{"count":2,"sum":90000,"min":40000,"max":50000,"buckets":{"16":2}},"cache_hit":{"count":1,"sum":900,"min":900,"max":900,"buckets":{"10":1}},"execute":{"count":1,"sum":12345,"min":12345,"max":12345,"buckets":{"14":1}},"end_to_end":{"count":2,"sum":61000,"min":1000,"max":60000,"buckets":{"10":1,"16":1}}},"topk":[{"fp":659918,"count":4,"err":0,"nanos":66000,"last_epoch":2},{"fp":2827,"count":1,"err":0,"nanos":900,"last_epoch":2}],"qerror":[{"fp":659918,"runs":3,"q_runs":3,"qlog_sum_micro":9965784,"qlog_max_micro":6643856,"est_rows":40,"actual_min":40,"actual_max":4000,"nanos":{"count":3,"sum":15000,"min":3000,"max":7000,"buckets":{"12":1,"13":2}},"last_epoch":2,"suspect":false},{"fp":2827,"runs":1,"q_runs":1,"qlog_sum_micro":0,"qlog_max_micro":0,"est_rows":10,"actual_min":10,"actual_max":10,"nanos":{"count":1,"sum":800,"min":800,"max":800,"buckets":{"10":1}},"last_epoch":2,"suspect":false}],"phases":{"prepare":{"nanos":300,"count":1},"cache_lookup":{"nanos":0,"count":0},"flight_wait":{"nanos":0,"count":0},"enumerate":{"nanos":30000,"count":1},"glue":{"nanos":8000,"count":1},"compile":{"nanos":0,"count":0},"execute":{"nanos":12000,"count":1},"reopt":{"nanos":0,"count":0}},"span_store":{"resident":0,"capacity":0,"evicted":0},"heal":[]}"#;

const PROMETHEUS: &str = r#"# TYPE starqo_uptime_nanos gauge
starqo_uptime_nanos 2000000000
# TYPE starqo_serve_requests_total counter
starqo_serve_requests_total 7
# TYPE starqo_serve_cache_hit_total counter
starqo_serve_cache_hit_total 5
# TYPE starqo_serve_cache_coalesced_total counter
starqo_serve_cache_coalesced_total 0
# TYPE starqo_serve_cache_miss_total counter
starqo_serve_cache_miss_total 2
# TYPE starqo_serve_cache_evict_total counter
starqo_serve_cache_evict_total 0
# TYPE starqo_serve_cache_invalidate_total counter
starqo_serve_cache_invalidate_total 0
# TYPE starqo_serve_rejected_total counter
starqo_serve_rejected_total 0
# TYPE starqo_serve_degraded_total counter
starqo_serve_degraded_total 0
# TYPE starqo_serve_errors_total counter
starqo_serve_errors_total 0
# TYPE starqo_serve_executions_total counter
starqo_serve_executions_total 0
# TYPE starqo_serve_exec_rows_total counter
starqo_serve_exec_rows_total 0
# TYPE starqo_serve_trace_sampled_total counter
starqo_serve_trace_sampled_total 0
# TYPE starqo_serve_trace_unsampled_total counter
starqo_serve_trace_unsampled_total 0
# TYPE starqo_opt_star_refs_total counter
starqo_opt_star_refs_total 0
# TYPE starqo_opt_memo_hits_total counter
starqo_opt_memo_hits_total 0
# TYPE starqo_opt_plans_built_total counter
starqo_opt_plans_built_total 41
# TYPE starqo_opt_glue_refs_total counter
starqo_opt_glue_refs_total 0
# TYPE starqo_serve_opt_nanos_total counter
starqo_serve_opt_nanos_total 90000
# TYPE starqo_serve_saved_nanos_total counter
starqo_serve_saved_nanos_total 0
# TYPE starqo_serve_exec_nanos_total counter
starqo_serve_exec_nanos_total 0
# TYPE starqo_serve_pipeline_rows_total counter
starqo_serve_pipeline_rows_total 0
# TYPE starqo_serve_feedback_runs_total counter
starqo_serve_feedback_runs_total 4
# TYPE starqo_serve_suspects_flagged_total counter
starqo_serve_suspects_flagged_total 0
# TYPE starqo_serve_spans_kept_total counter
starqo_serve_spans_kept_total 0
# TYPE starqo_serve_spans_dropped_total counter
starqo_serve_spans_dropped_total 0
# TYPE starqo_serve_reopt_attempts_total counter
starqo_serve_reopt_attempts_total 0
# TYPE starqo_serve_reopt_failures_total counter
starqo_serve_reopt_failures_total 0
# TYPE starqo_serve_reopt_backoff_total counter
starqo_serve_reopt_backoff_total 0
# TYPE starqo_serve_reopt_retry_capped_total counter
starqo_serve_reopt_retry_capped_total 0
# TYPE starqo_serve_plan_swap_total counter
starqo_serve_plan_swap_total 0
# TYPE starqo_serve_plan_pinned_total counter
starqo_serve_plan_pinned_total 0
# TYPE starqo_vexec_batches_total counter
starqo_vexec_batches_total 0
# TYPE starqo_vexec_morsels_queued_total counter
starqo_vexec_morsels_queued_total 3
# TYPE starqo_vexec_morsels_total counter
starqo_vexec_morsels_total 0
# TYPE starqo_vexec_rows_total counter
starqo_vexec_rows_total 120
# TYPE starqo_latency_nanos summary
starqo_latency_nanos{path="optimize",quantile="0.5"} 50000
starqo_latency_nanos{path="optimize",quantile="0.9"} 50000
starqo_latency_nanos{path="optimize",quantile="0.99"} 50000
starqo_latency_nanos{path="optimize",quantile="0.999"} 50000
starqo_latency_nanos_sum{path="optimize"} 90000
starqo_latency_nanos_count{path="optimize"} 2
starqo_latency_nanos{path="cache_hit",quantile="0.5"} 900
starqo_latency_nanos{path="cache_hit",quantile="0.9"} 900
starqo_latency_nanos{path="cache_hit",quantile="0.99"} 900
starqo_latency_nanos{path="cache_hit",quantile="0.999"} 900
starqo_latency_nanos_sum{path="cache_hit"} 900
starqo_latency_nanos_count{path="cache_hit"} 1
starqo_latency_nanos{path="execute",quantile="0.5"} 12345
starqo_latency_nanos{path="execute",quantile="0.9"} 12345
starqo_latency_nanos{path="execute",quantile="0.99"} 12345
starqo_latency_nanos{path="execute",quantile="0.999"} 12345
starqo_latency_nanos_sum{path="execute"} 12345
starqo_latency_nanos_count{path="execute"} 1
starqo_latency_nanos{path="end_to_end",quantile="0.5"} 1023
starqo_latency_nanos{path="end_to_end",quantile="0.9"} 60000
starqo_latency_nanos{path="end_to_end",quantile="0.99"} 60000
starqo_latency_nanos{path="end_to_end",quantile="0.999"} 60000
starqo_latency_nanos_sum{path="end_to_end"} 61000
starqo_latency_nanos_count{path="end_to_end"} 2
# TYPE starqo_latency_hist_nanos histogram
starqo_latency_hist_nanos_bucket{path="optimize",le="65535"} 2
starqo_latency_hist_nanos_bucket{path="optimize",le="+Inf"} 2
starqo_latency_hist_nanos_sum{path="optimize"} 90000
starqo_latency_hist_nanos_count{path="optimize"} 2
starqo_latency_hist_nanos_bucket{path="cache_hit",le="1023"} 1
starqo_latency_hist_nanos_bucket{path="cache_hit",le="+Inf"} 1
starqo_latency_hist_nanos_sum{path="cache_hit"} 900
starqo_latency_hist_nanos_count{path="cache_hit"} 1
starqo_latency_hist_nanos_bucket{path="execute",le="16383"} 1
starqo_latency_hist_nanos_bucket{path="execute",le="+Inf"} 1
starqo_latency_hist_nanos_sum{path="execute"} 12345
starqo_latency_hist_nanos_count{path="execute"} 1
starqo_latency_hist_nanos_bucket{path="end_to_end",le="1023"} 1
starqo_latency_hist_nanos_bucket{path="end_to_end",le="65535"} 2
starqo_latency_hist_nanos_bucket{path="end_to_end",le="+Inf"} 2
starqo_latency_hist_nanos_sum{path="end_to_end"} 61000
starqo_latency_hist_nanos_count{path="end_to_end"} 2
# TYPE starqo_phase_nanos counter
# TYPE starqo_phase_count counter
starqo_phase_nanos{phase="prepare"} 300
starqo_phase_count{phase="prepare"} 1
starqo_phase_nanos{phase="cache_lookup"} 0
starqo_phase_count{phase="cache_lookup"} 0
starqo_phase_nanos{phase="flight_wait"} 0
starqo_phase_count{phase="flight_wait"} 0
starqo_phase_nanos{phase="enumerate"} 30000
starqo_phase_count{phase="enumerate"} 1
starqo_phase_nanos{phase="glue"} 8000
starqo_phase_count{phase="glue"} 1
starqo_phase_nanos{phase="compile"} 0
starqo_phase_count{phase="compile"} 0
starqo_phase_nanos{phase="execute"} 12000
starqo_phase_count{phase="execute"} 1
starqo_phase_nanos{phase="reopt"} 0
starqo_phase_count{phase="reopt"} 0
# TYPE starqo_hot_query_requests gauge
# TYPE starqo_hot_query_nanos gauge
starqo_hot_query_requests{fp="0x00000000000a11ce",rank="1"} 4
starqo_hot_query_nanos{fp="0x00000000000a11ce",rank="1"} 66000
starqo_hot_query_requests{fp="0x0000000000000b0b",rank="2"} 1
starqo_hot_query_nanos{fp="0x0000000000000b0b",rank="2"} 900
# TYPE starqo_plan_qerror_geomean gauge
# TYPE starqo_plan_qerror_max gauge
# TYPE starqo_plan_qerror_runs gauge
# TYPE starqo_plan_suspect gauge
starqo_plan_qerror_geomean{fp="0x00000000000a11ce"} 9.999999342290947
starqo_plan_qerror_max{fp="0x00000000000a11ce"} 99.99998684581936
starqo_plan_qerror_runs{fp="0x00000000000a11ce"} 3
starqo_plan_suspect{fp="0x00000000000a11ce"} 0
starqo_plan_qerror_geomean{fp="0x0000000000000b0b"} 1
starqo_plan_qerror_max{fp="0x0000000000000b0b"} 1
starqo_plan_qerror_runs{fp="0x0000000000000b0b"} 1
starqo_plan_suspect{fp="0x0000000000000b0b"} 0
"#;

#[test]
fn json_export_is_pinned() {
    assert_eq!(pinned_snapshot().to_json(), JSON);
}

#[test]
fn prometheus_export_is_pinned() {
    assert_eq!(pinned_snapshot().to_prometheus(), PROMETHEUS);
}

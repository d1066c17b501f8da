//! E20: the drift benchmark — proof that the feedback plane detects what
//! it exists to detect, at a price the serve path can afford.
//!
//! Two identically configured services execute E17's Zipf workload; they
//! differ only in whether the per-fingerprint Q-error feedback plane is
//! folding actuals. Both run the full telemetry plane (histograms + top-K),
//! so the measured overhead isolates the feedback fold itself — the number
//! the ≤5% ceiling in ISSUE/DESIGN refers to.
//!
//! Then the workload's ground truth shifts mid-run: the same service (warm
//! cache, warm sketches) starts executing against a database holding
//! `SCALE`× the rows the catalog statistics claim, built by
//! [`synth_database_scaled`] against the *unchanged* catalog — no epoch
//! bump, no invalidation, exactly the silent-staleness failure mode.
//! Chain and star join outputs grow ~`SCALE`×, so those fingerprints must
//! be flagged suspect within a bounded number of post-shift serves; cycle
//! and clique closures are scale-invariant (their output cardinality does
//! not move), so they ride along as negative controls that must *not* be
//! flagged.
//!
//! Wall numbers are report-only (CI machines are noisy); the regression
//! gate pins the deterministic side: template/suspect/false-suspect
//! counts, the detection bound, snapshot-vs-counter consistency, and the
//! JSON round-trip — plus an overhead-violation counter.
//!
//! The post-shift snapshot is exported to `bench_dir()` as
//! `drift_snapshot.json` / `drift_snapshot.prom`, so `starqo-obs live`,
//! `watch`, and `doctor` can render exactly what the benchmark measured.

use starqo_obs::{Diagnosis, LiveReport};
use starqo_serve::{Service, ServiceConfig};
use starqo_trace::{
    Metric, SpanMode, SuspectConfig, TelemetryConfig, TelemetrySnapshot, TraceEvent,
};
use starqo_workload::{query_shape_param, synth_database, synth_database_scaled, QueryShape};

use crate::serving::{best_of, mode_table, Template, Workload, SEED, ZIPF_S};
use crate::{bench_dir, row, Report};

/// How many × the catalog's stated cardinality the shifted database holds.
/// Large enough that a drifting fingerprint's very first post-shift run
/// crosses the single-run Q threshold whatever its baseline estimation
/// error (which phase A bounds), small enough to execute quickly.
pub(crate) const SCALE: u64 = 32;

/// Suspect thresholds for the run: flag on geomean Q ≥ 4 or any single run
/// with Q ≥ 8, after 8 runs of history. Latency-based flagging is off —
/// this experiment is about cardinality truth, not machine speed.
pub(crate) fn suspect_config() -> SuspectConfig {
    SuspectConfig {
        min_runs: 8,
        geomean_qlog_micro: 2_000_000,
        max_qlog_micro: 3_000_000,
        mean_latency_nanos: u64::MAX,
    }
}

/// Does this template's true output cardinality scale with the data?
/// Chain and star outputs grow linearly with the row count; cycle and
/// clique closures pick up an extra `1/scaled-domain` selectivity per
/// closing edge, which cancels the growth — they are the negative
/// controls.
pub(crate) fn drifts(t: &Template) -> bool {
    matches!(t.shape, QueryShape::Chain | QueryShape::Star)
}

/// E20: mid-run cardinality drift — detection latency, false-positive
/// controls, and the feedback plane's serve-path overhead.
pub fn e20_drift(quick: bool) -> Report {
    let w = Workload::new(quick, if quick { (4, 50) } else { (8, 200) });
    let rounds = if quick { 2u64 } else { 3 };
    let overhead_ceiling = if quick { 60.0 } else { 5.0 };
    // A drifting fingerprint's first post-shift serve must trip the
    // single-run threshold; a small slack absorbs racing folds that land
    // between the flag and the sticky-bit read.
    let detect_bound = 4u64;

    let base_db = synth_database(SEED, w.cat.clone());
    let shift_db = synth_database_scaled(SEED, w.cat.clone(), SCALE);

    // Both services carry the full plane and tail-retained span trees, so
    // the overhead delta is the feedback fold alone. A detection lands on
    // the flagging request's tree, which the tail sampler keeps (suspect);
    // the store holds every request of the run, so none is evicted.
    let service = |feedback: bool| {
        Service::new(
            w.cat.clone(),
            ServiceConfig {
                telemetry: TelemetryConfig {
                    feedback,
                    suspect: suspect_config(),
                    spans: SpanMode::Tail,
                    span_store: (2 + rounds as usize) * w.requests() as usize,
                    ..TelemetryConfig::default()
                },
                ..ServiceConfig::default()
            },
        )
        .expect("service builds")
    };
    let nofb_svc = service(false);
    let fb_svc = service(true);

    // Warmup populates both plan caches and gives every fingerprint a
    // baseline feedback history well past `min_runs`.
    let best = best_of(&[&nofb_svc, &fb_svc], rounds, |svc, round| {
        w.execute_pass(svc, &base_db, SEED + round)
    });
    let overhead = best[1].overhead_vs(&best[0]);
    let overhead_violations = u64::from(overhead > overhead_ceiling);

    // Phase A: with data matching the statistics, nothing may be suspect —
    // this also bounds every fingerprint's baseline estimation error under
    // the thresholds, which is what makes the post-shift detection bound
    // provable rather than lucky.
    let base_snap = fb_svc.telemetry_snapshot();
    let fps: Vec<(bool, u64, &'static str)> = w
        .fleet
        .iter()
        .map(|t| {
            let q = query_shape_param(&w.cat, t.shape, t.n, t.param.then_some(0));
            (drifts(t), fb_svc.prepare(&q).fingerprint().hash, t.name)
        })
        .collect();
    let baseline_suspects = base_snap.suspects().len() as u64;
    let baseline_runs = |fp: u64| base_snap.qerror_for(fp).map(|e| e.runs).unwrap_or(0);

    // Phase B: same service, same cache, same sketches — only the ground
    // truth moves.
    let shift = w.execute_pass(&fb_svc, &shift_db, SEED + rounds);
    let snap = fb_svc.telemetry_snapshot();

    // Detection accounting: the PlanSuspect event carries the run count at
    // flag time; minus the fingerprint's pre-shift runs, that is the
    // number of post-shift serves detection took.
    let flag_runs: Vec<(u64, u64)> = fb_svc
        .telemetry()
        .span_trees()
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e.event {
            TraceEvent::PlanSuspect { fp, runs, .. } => Some((fp, runs)),
            _ => None,
        })
        .collect();
    let n_drifting = fps.iter().filter(|(d, _, _)| *d).count() as u64;
    let n_control = fps.len() as u64 - n_drifting;
    let mut flagged_drifting = 0u64;
    let mut false_suspects = baseline_suspects;
    let mut detection_max_serves = 0u64;
    let mut per_template = Vec::new();
    for &(drifting, fp, name) in &fps {
        let sketch = snap.qerror_for(fp);
        let suspect = sketch.is_some_and(|e| e.suspect);
        let detect = flag_runs
            .iter()
            .find(|(efp, _)| *efp == fp)
            .map(|&(_, runs)| runs.saturating_sub(baseline_runs(fp)));
        if drifting {
            flagged_drifting += u64::from(suspect);
            detection_max_serves = detection_max_serves.max(detect.unwrap_or(u64::MAX));
        } else {
            false_suspects += u64::from(suspect);
        }
        per_template.push((name, drifting, fp, suspect, detect, sketch.cloned()));
    }

    // Deterministic invariants: the sketches must agree with the counter
    // plane, and the disabled plane must have stayed empty.
    let mut consistency_failures = 0u64;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            consistency_failures += 1;
            eprintln!("E20 consistency failure: {what}");
        }
    };
    let total_fb_requests = (1 + rounds + 1) * w.requests();
    check(
        snap.counters[Metric::FeedbackRuns] == total_fb_requests,
        "feedback plane folded every execution",
    );
    check(
        snap.qerror.iter().map(|e| e.runs).sum::<u64>() == total_fb_requests,
        "sketch run counts sum to the folded total",
    );
    check(
        snap.counters[Metric::SuspectFlagged] == snap.suspects().len() as u64,
        "suspect counter matches the registry",
    );
    check(
        snap.qerror.len() == w.fleet.len(),
        "one sketch per distinct fingerprint",
    );
    check(
        flag_runs.len() == snap.suspects().len(),
        "every sticky flag emitted exactly one PlanSuspect event",
    );
    let nofb_snap = nofb_svc.telemetry_snapshot();
    check(
        nofb_snap.counters[Metric::FeedbackRuns] == 0 && nofb_snap.qerror.is_empty(),
        "disabled feedback plane folds nothing",
    );
    let json_roundtrip_failures = match TelemetrySnapshot::from_json(&snap.to_json()) {
        Ok(parsed) if parsed == snap => 0u64,
        _ => 1,
    };

    let json_path = bench_dir().join("drift_snapshot.json");
    let prom_path = bench_dir().join("drift_snapshot.prom");
    for (path, text) in [
        (&json_path, snap.to_json() + "\n"),
        (&prom_path, snap.to_prometheus()),
    ] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    let mut report = Report::new(
        "E20",
        format!(
            "cardinality drift: {} threads x {} reqs x {rounds} passes, \
             {} templates, zipf(s={ZIPF_S}), shift x{SCALE} mid-run",
            w.threads,
            w.per_thread,
            w.fleet.len()
        ),
    );
    mode_table(&mut report, &["no-feedback", "feedback"], &best);
    report.line(format!(
        "ceiling: feedback <= {overhead_ceiling}%  (violations: {overhead_violations}, \
         wall-clock — report-only outside the gate)"
    ));
    report.line(format!(
        "shift pass: {} executions against x{SCALE} data, {:.0} q/s",
        shift.requests,
        shift.throughput()
    ));
    report.line(String::new());
    let twidths = [9, 6, 10, 10, 9, 8, 9];
    report.line(row(
        &[
            "template".into(),
            "drift".into(),
            "baseQ(gm)".into(),
            "postQ(gm)".into(),
            "postQmax".into(),
            "suspect".into(),
            "detected".into(),
        ],
        &twidths,
    ));
    for (name, drifting, fp, suspect, detect, sketch) in &per_template {
        let base_gm = base_snap
            .qerror_for(*fp)
            .and_then(|e| e.geomean_q())
            .unwrap_or(1.0);
        let (post_gm, post_max) = sketch
            .as_ref()
            .map(|e| (e.geomean_q().unwrap_or(1.0), e.max_q().unwrap_or(1.0)))
            .unwrap_or((1.0, 1.0));
        report.line(row(
            &[
                (*name).into(),
                if *drifting { "yes" } else { "ctrl" }.into(),
                format!("{base_gm:.2}"),
                format!("{post_gm:.2}"),
                format!("{post_max:.1}"),
                if *suspect { "SUSPECT" } else { "-" }.into(),
                detect
                    .map(|d| format!("{d} serve(s)"))
                    .unwrap_or_else(|| "-".into()),
            ],
            &twidths,
        ));
    }
    report.line(format!(
        "detection: {flagged_drifting}/{n_drifting} drifting fingerprints flagged, \
         max {detection_max_serves} post-shift serve(s); \
         {false_suspects} false suspect(s) across {n_control} control(s)"
    ));
    report.line(format!(
        "consistency: {consistency_failures} failures across sketch/counter cross-checks"
    ));
    report.line(format!("snapshot exported: {}", json_path.display()));
    report.line(format!("snapshot exported: {}", prom_path.display()));

    assert_eq!(
        baseline_suspects, 0,
        "data matching the statistics must not produce suspects"
    );
    assert_eq!(
        flagged_drifting, n_drifting,
        "every drifting fingerprint must be flagged suspect"
    );
    assert_eq!(
        false_suspects, 0,
        "scale-invariant controls must stay clean"
    );
    assert!(
        detection_max_serves <= detect_bound,
        "detection took {detection_max_serves} post-shift serves (bound {detect_bound})"
    );
    assert_eq!(
        consistency_failures, 0,
        "feedback sketches disagree with the counter plane"
    );
    assert_eq!(json_roundtrip_failures, 0, "snapshot JSON must round-trip");
    // The exported snapshot drives the operator tools: the dashboard marks
    // the drifted plans and the doctor calls them out.
    assert!(
        LiveReport::new(snap.clone()).render().contains("SUSPECT"),
        "the dashboard must mark the drifted plans"
    );
    assert!(
        Diagnosis::from_snapshot(&snap)
            .findings
            .iter()
            .any(|f| f.check == "plan_drift"),
        "the doctor must report plan_drift"
    );

    let reg = &mut report.metrics;
    reg.count("drift_requests", total_fb_requests);
    reg.count("drift_templates", w.fleet.len() as u64);
    reg.count("drift_drifting_fps", n_drifting);
    reg.count("drift_control_fps", n_control);
    reg.count("drift_suspects_flagged", flagged_drifting);
    reg.count("drift_false_suspects", false_suspects);
    reg.count("drift_detection_max_serves", detection_max_serves);
    reg.count("drift_consistency_failures", consistency_failures);
    reg.count("drift_json_roundtrip_failures", json_roundtrip_failures);
    reg.count("drift_overhead_violations", overhead_violations);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_drift_run_detects_every_shift_with_clean_controls() {
        // The hard assertions live inside e20_drift: zero baseline
        // suspects, every drifting fingerprint flagged, controls clean,
        // detection within the bound.
        let report = e20_drift(true);
        // 4 threads x 50 requests x (1 warmup + 2 measured + 1 shift).
        assert_eq!(report.metrics.counter("drift_requests"), Some(800));
        assert_eq!(report.metrics.counter("drift_templates"), Some(4));
        assert_eq!(report.metrics.counter("drift_drifting_fps"), Some(4));
        assert_eq!(report.metrics.counter("drift_control_fps"), Some(0));
        assert_eq!(report.metrics.counter("drift_suspects_flagged"), Some(4));
        assert_eq!(report.metrics.counter("drift_false_suspects"), Some(0));
        assert_eq!(
            report.metrics.counter("drift_consistency_failures"),
            Some(0)
        );
        assert_eq!(
            report.metrics.counter("drift_json_roundtrip_failures"),
            Some(0)
        );
        let detect = report
            .metrics
            .counter("drift_detection_max_serves")
            .unwrap();
        assert!((1..=4).contains(&detect), "detection took {detect} serves");
        assert!(report.body.contains("SUSPECT"), "{}", report.body);
    }
}

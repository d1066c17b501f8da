//! E22: the self-healing soak — proof that a suspect-tripped service
//! repairs itself, and that the repair path is chaos-hardened.
//!
//! **Recovery.** E20's silent-staleness scenario replays against a
//! heal-enabled service: the workload's ground truth shifts to `SCALE`×
//! the catalog statistics mid-run with no epoch bump. The feedback plane
//! flags the drifting fingerprints; the healer re-optimizes each one under
//! overlay-corrected statistics, verifies the candidate against the
//! incumbent's rows, compares the two runs' work units, and swaps. The experiment
//! asserts that every drifting fingerprint ends healed (≥1 swap, suspect
//! flag clear, no re-flag over a full post-heal pass), that the controls
//! never trigger a re-optimization, and that the post-heal pass's executor
//! work (rows through vexec pipelines and breakers) is within 10% of a
//! fresh-cache service's on the same shifted data and seed. Throughput is
//! reported alongside, but no counter reads a clock.
//!
//! **Chaos.** Every re-opt pipeline stage (`overlay`, `optimize`,
//! `verify`, `swap`) is swept with an injected panic, typed
//! error, and stall, one fault per fresh service. The contract: no panic
//! escapes to a request, no served result ever diverges from the
//! brute-force oracle, and — because the fault fires once and backoff is
//! near-zero — every sweep still ends with the fingerprint healed. The
//! `heal` experiment also honors `STARQO_FAULTS` (site `reopt`) to run
//! exactly one caller-specified sweep ([`e22_under_plan`]), which is how
//! `scripts/bench.sh gate` drives the serve-path fault specs.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use starqo_catalog::{Catalog, DataType, StorageKind, Value};
use starqo_core::{FaultMode, FaultPlan};
use starqo_exec::{reference_eval, rows_equal_multiset};
use starqo_query::{canonicalize, parse_query};
use starqo_serve::{HealConfig, Service, ServiceConfig};
use starqo_storage::{Database, DatabaseBuilder};
use starqo_trace::{Metric, SpanMode, SuspectConfig, TelemetryConfig, TraceEvent};
use starqo_workload::{query_shape_param, synth_database, synth_database_scaled};

use crate::drift::{drifts, suspect_config, SCALE};
use crate::serving::{Workload, SEED, ZIPF_S};
use crate::{row, Report};

/// The re-opt pipeline stages a fault can target, in execution order.
const STAGES: &[&str] = &["overlay", "optimize", "verify", "swap"];

/// A near-zero backoff so an injected first-attempt failure retries on the
/// very next serve of the fingerprint.
fn fast_heal() -> HealConfig {
    HealConfig {
        backoff_base: Duration::from_nanos(1),
        ..HealConfig::default()
    }
}

/// Outcome totals of the chaos side (also the `STARQO_FAULTS` entry
/// point's report).
#[derive(Debug, Clone, Default)]
pub struct HealChaosReport {
    /// Distinct (stage, mode) faults armed.
    pub sweeps: u64,
    /// Requests served across all sweeps.
    pub runs: u64,
    /// Contract violations: a panic reached the caller. Must be empty.
    pub escapes: Vec<String>,
    /// Served results that diverged from the oracle. Must be zero.
    pub divergences: u64,
    /// Typed pins observed (the faults landing as designed).
    pub pins: u64,
    /// Candidate swaps observed (the retries landing as designed).
    pub swaps: u64,
    /// Sweeps that ended with the fingerprint still suspect or never
    /// swapped.
    pub unhealed: u64,
}

impl HealChaosReport {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "reopt chaos: {} sweep(s), {} request(s) served under fault",
            self.sweeps, self.runs
        );
        let _ = writeln!(
            out,
            "  pins: {}  swaps: {}  unhealed: {}  divergences: {}  escapes: {}",
            self.pins,
            self.swaps,
            self.unhealed,
            self.divergences,
            self.escapes.len()
        );
        for e in &self.escapes {
            let _ = writeln!(out, "    ESCAPE {e}");
        }
        out
    }
}

/// The chaos fixture: catalog says EMP holds 8 rows, the database holds
/// 800 — the same silent drift the serve-layer integration tests use, kept
/// tiny so a 12-sweep matrix stays fast.
fn chaos_fixture() -> (Arc<Catalog>, Database) {
    let cat = Arc::new(
        Catalog::builder()
            .site("NY")
            .table("DEPT", "NY", StorageKind::Heap, 4)
            .column("DNO", DataType::Int, Some(4))
            .column("MGR", DataType::Str, Some(4))
            .table("EMP", "NY", StorageKind::Heap, 8)
            .column("NAME", DataType::Str, None)
            .column("DNO", DataType::Int, Some(4))
            .build()
            .expect("chaos catalog"),
    );
    let mut b = DatabaseBuilder::new(Arc::clone(&cat));
    for i in 0..4i64 {
        b.insert("DEPT", vec![Value::Int(i), Value::str(format!("M{i}"))])
            .expect("DEPT row");
    }
    for i in 0..800i64 {
        b.insert("EMP", vec![Value::str(format!("E{i}")), Value::Int(i % 4)])
            .expect("EMP row");
    }
    (cat, b.build().expect("chaos database"))
}

/// Run one chaos sweep: a fresh heal-enabled service with `plan` armed on
/// the `reopt` site, hammered with enough serves of the drifted query to
/// flag, fail the first heal, retry, and swap. Every request is wrapped in
/// `catch_unwind` (an escape is the contract violation) and every result
/// is checked against the oracle.
fn run_sweep(label: &str, plan: Arc<FaultPlan>, report: &mut HealChaosReport) {
    let (cat, db) = chaos_fixture();
    let query = parse_query(&cat, "SELECT E.NAME FROM EMP E WHERE E.DNO = 1").expect("query");
    let want = reference_eval(&db, &canonicalize(&query).query).expect("oracle");
    let mut config = ServiceConfig {
        telemetry: TelemetryConfig {
            suspect: SuspectConfig {
                min_runs: 3,
                ..SuspectConfig::default()
            },
            ..TelemetryConfig::default()
        },
        heal: Some(fast_heal()),
        ..ServiceConfig::default()
    };
    config.opt_config.faults = Some(plan);
    let svc = Service::new(Arc::clone(&cat), config).expect("service builds");

    report.sweeps += 1;
    for i in 0..10 {
        report.runs += 1;
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.execute(&db, &query)));
        match caught {
            Ok(Ok((rows, _))) => {
                if !rows_equal_multiset(&rows.rows, &want) {
                    report.divergences += 1;
                }
            }
            Ok(Err(e)) => {
                // The serve path never errors here — the heal loop's
                // failures resolve to pins, not request errors.
                report
                    .escapes
                    .push(format!("{label}: typed error on run {i}: {e}"));
            }
            Err(_) => report.escapes.push(format!("{label}: panic on run {i}")),
        }
    }

    let c = svc.counters();
    report.pins += c[Metric::PlanPinned];
    report.swaps += c[Metric::PlanSwap];
    let fp = svc.prepare(&query).fingerprint().hash;
    let suspect = svc
        .telemetry_snapshot()
        .qerror_for(fp)
        .is_some_and(|s| s.suspect);
    if c[Metric::PlanSwap] == 0 || suspect {
        report.unhealed += 1;
    }
}

/// Sweep every re-opt stage × fault mode, one fresh service per sweep.
fn run_reopt_chaos() -> HealChaosReport {
    let modes = [FaultMode::Panic, FaultMode::Error, FaultMode::Stall(20_000)];
    let mut report = HealChaosReport::default();
    // Injected panics are the experiment; silence the default hook's
    // backtrace spam for the duration.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for stage in STAGES {
        for mode in modes {
            let plan = Arc::new(FaultPlan::single("reopt", stage, mode, 1));
            run_sweep(&format!("reopt:{stage}:{mode:?}"), plan, &mut report);
        }
    }
    std::panic::set_hook(prev_hook);
    report
}

/// Run exactly one sweep under a caller-supplied fault plan — the consumer
/// of the `STARQO_FAULTS` environment spec. The plan must target the
/// `reopt` site to bite; any other site is simply never triggered by the
/// heal pipeline.
fn run_under_plan(plan: Arc<FaultPlan>) -> HealChaosReport {
    let mut report = HealChaosReport::default();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    run_sweep("env spec", plan, &mut report);
    std::panic::set_hook(prev_hook);
    report
}

/// E22's single-sweep form: one re-opt chaos sweep under `plan`, as a
/// report. Panics on any escape, divergence, or fingerprint left unhealed
/// after the fault.
pub fn e22_under_plan(plan: Arc<FaultPlan>) -> Report {
    let chaos = run_under_plan(plan);
    let mut report = Report::new("E22", "self-healing under one STARQO_FAULTS spec");
    report.line(chaos.render());
    assert!(chaos.escapes.is_empty(), "{}", chaos.render());
    assert_eq!(chaos.divergences, 0, "{}", chaos.render());
    assert_eq!(chaos.unhealed, 0, "{}", chaos.render());
    report
}

/// E22: the self-healing soak — drift recovery plus the re-opt chaos
/// sweep.
pub fn e22_heal(quick: bool) -> Report {
    let w = Workload::new(quick, if quick { (4, 50) } else { (8, 200) });
    // A pass's executor work: rows through vexec pipelines and breakers,
    // deterministic per (plan, database, request).
    let work = |svc: &Service| {
        let c = svc.counters();
        c[Metric::VexecRows] + c[Metric::PipelineRows]
    };

    let base_db = synth_database(SEED, w.cat.clone());
    let shift_db = synth_database_scaled(SEED, w.cat.clone(), SCALE);

    // Every request's tree is kept (a healed request is no longer suspect
    // when it retires, so the tail sampler could drop it), and the store
    // holds all three passes: the heal events are read back from it.
    let service = |heal: Option<HealConfig>| {
        Service::new(
            w.cat.clone(),
            ServiceConfig {
                telemetry: TelemetryConfig {
                    feedback: true,
                    suspect: suspect_config(),
                    spans: SpanMode::Full,
                    span_store: 3 * w.requests() as usize,
                    ..TelemetryConfig::default()
                },
                heal,
                ..ServiceConfig::default()
            },
        )
        .expect("service builds")
    };
    let healing = service(Some(fast_heal()));

    // Warm pass on faithful data: plan cache populated, every fingerprint's
    // sketch well past `min_runs`, nothing suspect, nothing healed.
    w.execute_pass(&healing, &base_db, SEED);
    let warm_counters = healing.counters();
    assert_eq!(
        warm_counters[Metric::SuspectFlagged],
        0,
        "faithful data must not trip the feedback plane"
    );
    assert_eq!(
        warm_counters[Metric::ReoptAttempts],
        0,
        "nothing suspect means nothing to heal"
    );

    // Shift pass: the ground truth moves to SCALE× under the same catalog
    // epoch. Suspects trip mid-pass and the healer repairs them inline.
    let shift = w.execute_pass(&healing, &shift_db, SEED + 1);
    // Post-heal pass: the measured window. Every serve runs against the
    // already-healed cache; a re-flag here would mean the healed estimate
    // is still drifting.
    let before = work(&healing);
    let post = w.execute_pass(&healing, &shift_db, SEED + 2);
    let post_work = work(&healing) - before;

    // The fresh-cache yardstick: an identically configured (heal-less)
    // service that only ever saw the shifted data — one warmup pass to
    // populate its cache, one measured pass.
    let fresh_svc = service(None);
    w.execute_pass(&fresh_svc, &shift_db, SEED + 1);
    let before = work(&fresh_svc);
    let fresh = w.execute_pass(&fresh_svc, &shift_db, SEED + 2);
    let fresh_work = work(&fresh_svc) - before;
    let work_violations = u64::from(u128::from(post_work) * 10 > u128::from(fresh_work) * 11);

    // Per-fingerprint accounting against the snapshot's heal records.
    let snap = healing.telemetry_snapshot();
    let fps: Vec<(bool, u64, &'static str)> = w
        .fleet
        .iter()
        .map(|t| {
            let q = query_shape_param(&w.cat, t.shape, t.n, t.param.then_some(0));
            (drifts(t), healing.prepare(&q).fingerprint().hash, t.name)
        })
        .collect();
    let n_drifting = fps.iter().filter(|(d, _, _)| *d).count() as u64;
    let n_control = fps.len() as u64 - n_drifting;
    let trees = healing.telemetry().span_trees();
    let events = || trees.iter().flat_map(|t| &t.events).map(|e| &e.event);
    let reopt_fps: Vec<u64> = events()
        .filter_map(|e| match e {
            TraceEvent::PlanReopt { fp, .. } => Some(*fp),
            _ => None,
        })
        .collect();
    let mut pin_reasons: std::collections::BTreeMap<String, u64> = Default::default();
    for e in events() {
        if let TraceEvent::PlanPinned { reason, .. } = e {
            *pin_reasons.entry(reason.clone()).or_default() += 1;
        }
    }
    let mut unhealed = 0u64;
    let mut false_reopts = 0u64;
    let mut per_template = Vec::new();
    for &(drifting, fp, name) in &fps {
        let rec = snap.heal_for(fp);
        let swaps = rec.map(|r| r.swaps).unwrap_or(0);
        let pins = rec.map(|r| r.pins).unwrap_or(0);
        let suspect = snap.qerror_for(fp).is_some_and(|e| e.suspect);
        if drifting && (swaps == 0 || suspect) {
            unhealed += 1;
        }
        if !drifting {
            false_reopts += reopt_fps.iter().filter(|&&efp| efp == fp).count() as u64;
        }
        let post_q = snap
            .qerror_for(fp)
            .and_then(|e| e.geomean_q())
            .unwrap_or(1.0);
        per_template.push((name, drifting, swaps, pins, suspect, post_q));
    }
    let c = healing.counters();

    // The chaos side: every pipeline stage × fault mode, zero escapes,
    // zero divergences, every sweep healed despite the fault.
    let chaos = run_reopt_chaos();

    let mut report = Report::new(
        "E22",
        format!(
            "self-healing soak: {} threads x {} reqs/pass, {} templates, \
             zipf(s={ZIPF_S}), shift x{SCALE}, reopt chaos {} sweeps",
            w.threads,
            w.per_thread,
            w.fleet.len(),
            chaos.sweeps
        ),
    );
    let widths = [12, 9, 12, 9, 9];
    report.line(row(
        &[
            "pass".into(),
            "requests".into(),
            "thrpt(q/s)".into(),
            "p50(us)".into(),
            "p99(us)".into(),
        ],
        &widths,
    ));
    for (name, pass) in [
        ("shift(heal)", &shift),
        ("post-heal", &post),
        ("fresh-cache", &fresh),
    ] {
        report.line(row(
            &[
                name.into(),
                pass.requests.to_string(),
                format!("{:.0}", pass.throughput()),
                format!("{:.1}", pass.p50_us),
                format!("{:.1}", pass.p99_us),
            ],
            &widths,
        ));
    }
    report.line(format!(
        "post-heal vs fresh-cache work: {post_work} vs {fresh_work} rows (ceiling 1.10x, \
         violations: {work_violations}); throughput {:.2}x (wall-clock, report only)",
        post.throughput() / fresh.throughput().max(1e-9)
    ));
    report.line(format!(
        "heal counters: {} attempts, {} swaps, {} pins, {} failures, {} backoff suppressions",
        c[Metric::ReoptAttempts],
        c[Metric::PlanSwap],
        c[Metric::PlanPinned],
        c[Metric::ReoptFailures],
        c[Metric::ReoptBackoff]
    ));
    if !pin_reasons.is_empty() {
        report.line(format!(
            "pin reasons: {}",
            pin_reasons
                .iter()
                .map(|(r, n)| format!("{r}={n}"))
                .collect::<Vec<_>>()
                .join("  ")
        ));
    }
    report.line(String::new());
    let twidths = [9, 6, 6, 5, 8, 9];
    report.line(row(
        &[
            "template".into(),
            "drift".into(),
            "swaps".into(),
            "pins".into(),
            "suspect".into(),
            "postQ(gm)".into(),
        ],
        &twidths,
    ));
    for (name, drifting, swaps, pins, suspect, post_q) in &per_template {
        report.line(row(
            &[
                (*name).into(),
                if *drifting { "yes" } else { "ctrl" }.into(),
                swaps.to_string(),
                pins.to_string(),
                if *suspect { "SUSPECT" } else { "-" }.into(),
                format!("{post_q:.2}"),
            ],
            &twidths,
        ));
    }
    report.line(format!(
        "recovery: {}/{n_drifting} drifting fingerprints healed; {false_reopts} re-opt(s) on \
         {n_control} control(s)",
        n_drifting - unhealed
    ));
    report.line(chaos.render());

    assert_eq!(
        unhealed, 0,
        "every drifting fingerprint must end swapped and un-flagged\n{}",
        report.body
    );
    assert_eq!(
        false_reopts, 0,
        "controls must never trigger the healer\n{}",
        report.body
    );
    assert_eq!(
        c[Metric::ReoptFailures],
        0,
        "no faults armed: the recovery phase must not fail a heal\n{}",
        report.body
    );
    assert!(chaos.escapes.is_empty(), "{}", chaos.render());
    assert_eq!(chaos.divergences, 0, "{}", chaos.render());
    assert_eq!(chaos.unhealed, 0, "{}", chaos.render());

    let reg = &mut report.metrics;
    reg.count("heal_requests", shift.requests + post.requests);
    reg.count("heal_templates", w.fleet.len() as u64);
    reg.count("heal_drifting_fps", n_drifting);
    reg.count("heal_control_fps", n_control);
    reg.count("heal_unhealed_fps", unhealed);
    reg.count("heal_false_reopts", false_reopts);
    reg.count("heal_reopt_failures", c[Metric::ReoptFailures]);
    reg.count("heal_work_violations", work_violations);
    reg.count("heal_chaos_sweeps", chaos.sweeps);
    reg.count("heal_chaos_runs", chaos.runs);
    reg.count("heal_chaos_escapes", chaos.escapes.len() as u64);
    reg.count("heal_chaos_divergences", chaos.divergences);
    reg.count("heal_chaos_unhealed", chaos.unhealed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_heal_run_recovers_and_contains_every_reopt_fault() {
        // The hard assertions live inside e22_heal: every drifting
        // fingerprint healed, controls untouched, zero escapes, zero
        // divergences, every chaos sweep healed through its fault.
        let report = e22_heal(true);
        assert_eq!(report.metrics.counter("heal_templates"), Some(4));
        assert_eq!(report.metrics.counter("heal_drifting_fps"), Some(4));
        assert_eq!(report.metrics.counter("heal_unhealed_fps"), Some(0));
        assert_eq!(report.metrics.counter("heal_false_reopts"), Some(0));
        assert_eq!(report.metrics.counter("heal_chaos_sweeps"), Some(12));
        assert_eq!(report.metrics.counter("heal_chaos_escapes"), Some(0));
        assert_eq!(report.metrics.counter("heal_chaos_divergences"), Some(0));
        assert_eq!(report.metrics.counter("heal_chaos_unhealed"), Some(0));
        assert!(report.body.contains("post-heal"), "{}", report.body);
    }

    #[test]
    fn env_style_plan_runs_one_contained_sweep() {
        let plan = Arc::new(FaultPlan::parse("reopt:optimize:panic").expect("spec"));
        let report = run_under_plan(plan);
        assert_eq!(report.sweeps, 1);
        assert!(report.escapes.is_empty(), "{}", report.render());
        assert_eq!(report.divergences, 0);
        assert_eq!(report.unhealed, 0, "{}", report.render());
        assert!(report.pins >= 1, "the injected fault must land as a pin");
        assert!(report.swaps >= 1, "the retry must land as a swap");
    }
}

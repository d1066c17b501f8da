//! Integration tests for the self-healing serving loop: suspect-triggered
//! re-optimization, the plan-stability guard, typed pins with backoff,
//! chaos containment, and the epoch/single-flight races.
//!
//! Fixture: the catalog says EMP holds 8 rows while the database actually
//! holds 800 — stats never refreshed. The cached plan keeps serving with a
//! ~100× cardinality miss, the feedback plane flags the fingerprint, and
//! the healer must re-plan with overlay-corrected statistics, verify, and
//! swap.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use starqo_catalog::{Catalog, DataType, SharedCatalog, StorageKind, Value};
use starqo_core::{FaultPlan, OptConfig, Optimizer};
use starqo_query::parse_query;
use starqo_serve::{HealConfig, Service, ServiceConfig};
use starqo_storage::{Database, DatabaseBuilder};
use starqo_trace::telemetry::{FEEDBACK_CAPACITY, FEEDBACK_SHARDS};
use starqo_trace::{Metric, SpanMode, SuspectConfig, TelemetryConfig, TraceEvent};

const DRIFT_SQL: &str = "SELECT E.NAME FROM EMP E WHERE E.DNO = 1";

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::builder()
            .site("NY")
            .table("DEPT", "NY", StorageKind::Heap, 4)
            .column("DNO", DataType::Int, Some(4))
            .column("MGR", DataType::Str, Some(4))
            .table("EMP", "NY", StorageKind::Heap, 8)
            .column("NAME", DataType::Str, None)
            .column("DNO", DataType::Int, Some(4))
            .build()
            .unwrap(),
    )
}

/// 800 EMP rows against a catalog card of 8: the drift.
fn drifted_database(cat: &Arc<Catalog>) -> Database {
    let mut b = DatabaseBuilder::new(Arc::clone(cat));
    for i in 0..4i64 {
        b.insert("DEPT", vec![Value::Int(i), Value::str(format!("M{i}"))])
            .unwrap();
    }
    for i in 0..800i64 {
        b.insert("EMP", vec![Value::str(format!("E{i}")), Value::Int(i % 4)])
            .unwrap();
    }
    b.build().unwrap()
}

fn heal_service_config(heal: HealConfig) -> ServiceConfig {
    ServiceConfig {
        telemetry: TelemetryConfig {
            suspect: SuspectConfig {
                min_runs: 3,
                ..SuspectConfig::default()
            },
            spans: SpanMode::Full,
            ..TelemetryConfig::default()
        },
        heal: Some(heal),
        ..ServiceConfig::default()
    }
}

/// Every event on the service's retained request trees, in request order.
fn events(svc: &Service) -> Vec<TraceEvent> {
    let trees = svc.telemetry().span_trees();
    trees
        .into_iter()
        .flat_map(|t| t.events)
        .map(|e| e.event)
        .collect()
}

#[test]
fn suspect_triggers_reopt_swap_and_unsticks_the_flag() {
    let cat = catalog();
    let db = drifted_database(&cat);
    let svc = Service::new(Arc::clone(&cat), heal_service_config(HealConfig::default())).unwrap();
    let q = parse_query(&cat, DRIFT_SQL).unwrap();

    for _ in 0..5 {
        let (rows, _) = svc.execute(&db, &q).unwrap();
        assert_eq!(rows.rows.len(), 200, "healing never corrupts results");
    }

    let c = svc.counters();
    assert_eq!(c[Metric::SuspectFlagged], 1);
    assert_eq!(c[Metric::ReoptAttempts], 1, "one attempt healed it");
    assert_eq!(c[Metric::PlanSwap], 1);
    assert_eq!((c[Metric::PlanPinned], c[Metric::ReoptFailures]), (0, 0));

    // Satellite: the sticky suspect flag is un-stuck by the swap, and the
    // Q-error window restarted against the healed plan's estimate.
    let fp = svc.prepare(&q).fingerprint().hash;
    assert!(!svc
        .telemetry_snapshot()
        .qerror_for(fp)
        .is_some_and(|s| s.suspect));
    let records = svc.telemetry_snapshot().heal;
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].swaps, 1);
    assert_eq!(records[0].last_reason, "swapped");
    assert_eq!(records[0].attempts, 0, "schedule reset by the swap");

    // The snapshot's heal section, by fingerprint.
    let snap = svc.telemetry_snapshot();
    assert_eq!(snap.heal.len(), 1);
    assert_eq!(snap.heal_for(fp).unwrap().swaps, 1);

    // Typed events, in causal order: reopt then swap.
    let events = events(&svc);
    let reopts: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PlanReopt { .. }))
        .collect();
    assert_eq!(reopts.len(), 1);
    let swaps: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PlanSwap { .. }))
        .collect();
    assert_eq!(swaps.len(), 1);

    // Post-swap the sketch tracks the healed estimate: more runs do not
    // re-flag the fingerprint.
    let (_, healed) = svc.execute(&db, &q).unwrap();
    for _ in 0..4 {
        svc.execute(&db, &q).unwrap();
    }
    assert!(!svc
        .telemetry_snapshot()
        .qerror_for(fp)
        .is_some_and(|s| s.suspect));
    let c = svc.counters();
    assert_eq!(c[Metric::ReoptAttempts], 1, "no reopt storm");
    // Heal's verify runs stay out of the telemetry and feedback planes:
    // only the 10 served requests were counted.
    assert_eq!((c[Metric::Executions], c[Metric::FeedbackRuns]), (10, 10));

    // The swapped-in plan is trimmed like any entry: its winner and the
    // winner's origins, as an optimization under the corrected card (8 rows
    // on record, 800 observed) reports them.
    let cached = &healed.optimized;
    assert!(healed.cache_hit && cached.root_alternatives.is_empty());
    let mut winner = HashSet::new();
    cached.best.visit(&mut |n| {
        winner.insert(n.fingerprint());
    });
    assert_eq!(
        cached.provenance.keys().copied().collect::<HashSet<_>>(),
        winner
    );
    let corrected = Arc::new(cat.with_table_card("EMP", 800).unwrap());
    let fresh = Optimizer::new(corrected)
        .unwrap()
        .optimize(svc.prepare(&q).query(), &OptConfig::default())
        .unwrap();
    assert_eq!(
        cached.origin_trace(&cached.best),
        fresh.origin_trace(&fresh.best)
    );
    assert_eq!(cached.best.props.card, fresh.best.props.card);
}

#[test]
fn injected_error_pins_with_typed_reason_then_retry_succeeds() {
    let cat = catalog();
    let db = drifted_database(&cat);
    let mut config = heal_service_config(HealConfig {
        // Effectively-zero backoff so the retry is admitted immediately.
        backoff_base: Duration::from_nanos(1),
        ..HealConfig::default()
    });
    // The first re-optimization hits an injected typed error; the retry
    // (after backoff) runs clean.
    config.opt_config.faults = Some(Arc::new(FaultPlan::parse("reopt:optimize:error").unwrap()));
    let svc = Service::new(Arc::clone(&cat), config).unwrap();
    let q = parse_query(&cat, DRIFT_SQL).unwrap();

    for _ in 0..6 {
        let (rows, _) = svc.execute(&db, &q).unwrap();
        assert_eq!(rows.rows.len(), 200, "no fault escapes to the request");
    }

    let c = svc.counters();
    assert_eq!(c[Metric::ReoptAttempts], 2, "pin, then the healing retry");
    assert_eq!(c[Metric::ReoptFailures], 1);
    assert_eq!(c[Metric::PlanPinned], 1);
    assert_eq!(c[Metric::PlanSwap], 1);

    let pinned: Vec<_> = events(&svc)
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::PlanPinned { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    assert_eq!(pinned, vec!["reopt_error".to_string()]);
    let records = svc.telemetry_snapshot().heal;
    assert_eq!(records[0].pins, 1);
    assert_eq!(records[0].swaps, 1);
    assert_eq!(records[0].last_reason, "swapped");
}

#[test]
fn injected_panic_is_contained_as_a_pin() {
    let cat = catalog();
    let db = drifted_database(&cat);
    let mut config = heal_service_config(HealConfig {
        // Long backoff: exactly one attempt inside this test.
        backoff_base: Duration::from_secs(60),
        ..HealConfig::default()
    });
    config.opt_config.faults = Some(Arc::new(FaultPlan::parse("reopt:verify:panic").unwrap()));
    let svc = Service::new(Arc::clone(&cat), config).unwrap();
    let q = parse_query(&cat, DRIFT_SQL).unwrap();

    for _ in 0..6 {
        let (rows, _) = svc.execute(&db, &q).unwrap();
        assert_eq!(rows.rows.len(), 200, "the panic never escapes");
    }

    let c = svc.counters();
    assert_eq!(c[Metric::ReoptAttempts], 1);
    assert_eq!(c[Metric::ReoptFailures], 1);
    assert_eq!(c[Metric::PlanSwap], 0);
    assert!(
        c[Metric::ReoptBackoff] >= 1,
        "later triggers suppressed by backoff"
    );
    let records = svc.telemetry_snapshot().heal;
    assert_eq!(records[0].last_reason, "reopt_panic");
    assert!(records[0].backoff_until_nanos > 0, "backoff armed");
}

#[test]
fn epoch_bump_mid_reopt_pins_epoch_moved_not_a_stale_swap() {
    let cat = catalog();
    let db = drifted_database(&cat);
    let shared = Arc::new(SharedCatalog::new(Arc::clone(&cat)));
    let hook_shared = Arc::clone(&shared);
    let bumped = Arc::new(AtomicUsize::new(0));
    let hook_bumped = Arc::clone(&bumped);
    let config = heal_service_config(HealConfig {
        backoff_base: Duration::from_secs(60),
        on_stage: Some(Arc::new(move |stage| {
            // The catalog epoch moves after the candidate is fully built
            // and measured, just before the swap CAS.
            if stage == "swap" && hook_bumped.fetch_add(1, Ordering::SeqCst) == 0 {
                hook_shared.set_table_card("DEPT", 5).unwrap();
            }
        })),
        ..HealConfig::default()
    });
    let svc = Service::with_shared(Arc::clone(&shared), config).unwrap();
    let q = parse_query(&cat, DRIFT_SQL).unwrap();

    for _ in 0..4 {
        let (rows, _) = svc.execute(&db, &q).unwrap();
        assert_eq!(rows.rows.len(), 200);
    }

    let c = svc.counters();
    assert_eq!(c[Metric::ReoptAttempts], 1);
    assert_eq!(
        c[Metric::PlanSwap],
        0,
        "stale-epoch candidate must not install"
    );
    assert_eq!(c[Metric::PlanPinned], 1);
    assert_eq!(bumped.load(Ordering::SeqCst), 1, "hook fired once");
    let records = svc.telemetry_snapshot().heal;
    assert_eq!(records[0].last_reason, "epoch_moved");
}

#[test]
fn eight_threads_one_reopt_flight_per_fingerprint() {
    let cat = catalog();
    let db = Arc::new(drifted_database(&cat));
    let finished = Arc::new(AtomicUsize::new(0));
    let gate_finished = Arc::clone(&finished);
    let config = heal_service_config(HealConfig {
        // Hold the (single) heal leader at the first stage until the other
        // seven threads have finished their requests, maximizing the window
        // in which they could have started a duplicate flight.
        on_stage: Some(Arc::new(move |stage| {
            if stage == "overlay" {
                let mut spins = 0u32;
                while gate_finished.load(Ordering::SeqCst) < 7 && spins < 20_000 {
                    std::thread::sleep(Duration::from_micros(500));
                    spins += 1;
                }
            }
        })),
        ..HealConfig::default()
    });
    let svc = Arc::new(Service::new(Arc::clone(&cat), config).unwrap());
    let q = parse_query(&cat, DRIFT_SQL).unwrap();

    // Two quiet runs: one short of the suspect threshold (min_runs = 3).
    for _ in 0..2 {
        svc.execute(&db, &q).unwrap();
    }
    assert_eq!(svc.counters()[Metric::ReoptAttempts], 0);

    // Eight threads race the third run: exactly one trips the verdict,
    // exactly one wins the heal flight; the rest keep serving.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let (svc, db, q) = (Arc::clone(&svc), Arc::clone(&db), q.clone());
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let (rows, _) = svc.execute(&db, &q).unwrap();
                finished.fetch_add(1, Ordering::SeqCst);
                rows.rows.len()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 200);
    }

    let c = svc.counters();
    assert_eq!(
        c[Metric::ReoptAttempts],
        1,
        "single-flight: one re-opt across 8 racing threads"
    );
    assert_eq!(c[Metric::PlanSwap], 1);
    let fp = svc.prepare(&q).fingerprint().hash;
    assert!(!svc
        .telemetry_snapshot()
        .qerror_for(fp)
        .is_some_and(|s| s.suspect));
}

#[test]
fn heal_records_stay_bounded_by_the_feedback_plane() {
    let cat = catalog();
    let db = drifted_database(&cat);
    let mut config = heal_service_config(HealConfig::default());
    config.telemetry.suspect.min_runs = 1;
    config.telemetry.spans = SpanMode::Off;
    let svc = Service::new(Arc::clone(&cat), config).unwrap();
    let bound = FEEDBACK_SHARDS * FEEDBACK_CAPACITY;

    // Conjuncts are sorted but never deduplicated, so each (a, b) count of
    // two always-true ranges is its own fingerprint — 18 × 18 of them, and
    // each drifts: the catalog's 8 EMP rows against the database's 800.
    let mut fingerprints = 0;
    for a in 1..=18 {
        for b in 1..=18 {
            let mut conjuncts = vec!["E.DNO >= 0"; a];
            conjuncts.extend(vec!["E.DNO < 4"; b]);
            let sql = format!("SELECT E.NAME FROM EMP E WHERE {}", conjuncts.join(" AND "));
            let q = parse_query(&cat, &sql).unwrap();
            let (rows, _) = svc.execute(&db, &q).unwrap();
            assert_eq!(rows.rows.len(), 800);
            fingerprints += 1;
            let heal = svc.telemetry_snapshot().heal;
            assert!(heal.len() <= bound, "{} heal records", heal.len());
        }
    }
    assert!(fingerprints > bound);
    let attempts = svc.counters()[Metric::ReoptAttempts];
    assert_eq!(
        attempts, fingerprints as u64,
        "every fingerprint tried a heal"
    );
}

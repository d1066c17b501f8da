//! Observability integration tests: plan provenance, structured trace
//! events, metrics summaries, and the EXPLAIN ANALYZE renderer, exercised
//! through full optimize + execute runs.

use std::collections::HashSet;

use starqo_core::enumerate::enumerate;
use starqo_core::natives::Natives;
use starqo_core::{Engine, OptConfig, Optimizer};
use starqo_exec::Executor;
use starqo_integration::cold::golden_fleet;
use starqo_plan::{CostModel, Explain, PropEngine};
use starqo_trace::{Phase, SpanContext, TraceEvent};
use starqo_workload::{query_shape, synth_catalog, synth_database, QueryShape, SynthSpec};

fn spec() -> SynthSpec {
    SynthSpec {
        tables: 3,
        card_range: (50, 400),
        index_prob: 0.5,
        ..Default::default()
    }
}

#[test]
fn provenance_names_every_node_of_the_best_plan() {
    for seed in [3u64, 11, 42] {
        let cat = synth_catalog(seed, &spec());
        let opt = Optimizer::new(cat.clone()).expect("rules");
        let query = query_shape(&cat, QueryShape::Chain, 3, seed % 2 == 0);
        let out = opt.optimize(&query, &OptConfig::full()).expect("optimize");
        // A 3-way join: at least 2 joins + 3 leaves.
        assert!(out.best.op_count() >= 5);
        for line in out.origin_trace(&out.best) {
            assert!(
                !line.ends_with("(driver)"),
                "seed {seed}: node lacks a rule origin: {line}"
            );
            assert!(
                line.contains("[alt ") || line.ends_with("Glue"),
                "seed {seed}: origin is not a STAR alternative or Glue: {line}"
            );
        }
        // Every fingerprint in the best plan has a provenance entry.
        out.best.visit(&mut |n| {
            assert!(out.provenance.contains_key(&n.fingerprint()));
        });
    }
}

/// Provenance covers what a run hands out and nothing else: each node of
/// the winner and of the root alternatives carries the label the engine
/// recorded for its first producer — a rule alternative or Glue; a node no
/// rule returned has none, as the golden origin traces pin — and no plan
/// the run built and dropped has an entry. Every golden run, under its own
/// configuration (default, full, keep-all, degraded).
#[test]
fn provenance_is_exactly_what_leaves_every_golden_run() {
    let (natives, prop, model) = (
        Natives::builtin(),
        PropEngine::default(),
        CostModel::default(),
    );
    for case in golden_fleet() {
        let opt = Optimizer::new(case.cat.clone()).expect("rules");
        let (cat, query, config) = (&case.cat, &case.query, &case.config);
        let mut engine = Engine::new(opt.rules(), &natives, &prop, cat, query, &model, config);
        let out = enumerate(&mut engine).expect("enumerate");
        let optimized = opt.optimize(query, config).expect("optimize");
        assert_eq!(optimized.provenance, out.provenance, "{}", case.name);
        let mut left = HashSet::new();
        for plan in std::iter::once(&out.best).chain(&out.root_alternatives) {
            plan.visit(&mut |n| {
                left.insert(n.fingerprint());
            });
        }
        for fp in out.provenance.keys() {
            assert!(
                left.contains(fp),
                "{}: a dropped plan has an origin",
                case.name
            );
        }
        for &fp in &left {
            let label = out.provenance.get(&fp).map(|l| &**l);
            assert_eq!(label, engine.origin(fp), "{}", case.name);
        }
        for label in out.provenance.values() {
            let rule = label.ends_with(']') && label.contains("[alt ");
            assert!(rule || &**label == "Glue", "{}: origin {label}", case.name);
        }
    }
}

#[test]
fn traced_run_emits_a_rule_firing_for_every_best_plan_node() {
    let cat = synth_catalog(7, &spec());
    let opt = Optimizer::new(cat.clone()).expect("rules");
    let query = query_shape(&cat, QueryShape::Chain, 3, false);
    let ctx = SpanContext::detailed(1);
    let out = opt
        .optimize_spanned(&query, &OptConfig::full(), &ctx)
        .expect("optimize");
    let tree = ctx
        .finish(0, 0, 0, "miss", false, false, "sampled")
        .unwrap();
    let events: Vec<TraceEvent> = tree.events.into_iter().map(|e| e.event).collect();

    // Per best-plan node: its provenance "Star[alt k]" must correspond to an
    // alt_fired event (or to a glue_ref for Glue veneers).
    out.best.visit(&mut |n| {
        let origin: &str = out.provenance.get(&n.fingerprint()).expect("provenance");
        let seen = events.iter().any(|e| match e {
            TraceEvent::AltFired { star, alt, .. } => origin == format!("{star}[alt {alt}]"),
            TraceEvent::GlueRef { .. } => origin == "Glue",
            _ => false,
        });
        assert!(seen, "no rule-firing event for origin {origin}");
    });

    // The taxonomy's optimizer-side kinds all appear on a real run.
    for kind in [
        "star_ref",
        "alt_fired",
        "plan_built",
        "table_insert",
        "glue_ref",
    ] {
        assert!(
            events.iter().any(|e| e.kind() == kind),
            "no {kind} event emitted"
        );
    }
    // Every plan_built event carries a cost breakdown that sums to its cost.
    for e in &events {
        if let TraceEvent::PlanBuilt {
            cost_once,
            cost_rescan,
            breakdown,
            ..
        } = e
        {
            let total = breakdown.io + breakdown.cpu + breakdown.comm + breakdown.other;
            assert!((total - (cost_once + cost_rescan)).abs() <= 1e-6 * total.max(1.0));
        }
    }
}

#[test]
fn metrics_summary_matches_stats_and_times_phases() {
    let cat = synth_catalog(5, &spec());
    let opt = Optimizer::new(cat.clone()).expect("rules");
    let query = query_shape(&cat, QueryShape::Star, 3, false);
    let out = opt
        .optimize(&query, &OptConfig::default())
        .expect("optimize");
    assert!(out.enumerate_nanos > 0, "enumerate phase not timed");
    assert!(out.compile_nanos > 0, "compile phase not timed");
    // Glue runs inside enumeration, so its time is bounded by it.
    assert!(out.glue_nanos <= out.enumerate_nanos);
    // The telemetry plane receives the same three clocks, by phase.
    assert_eq!(
        out.phase_nanos(),
        [
            (Phase::Enumerate, out.enumerate_nanos),
            (Phase::Glue, out.glue_nanos),
            (Phase::Compile, out.compile_nanos),
        ]
    );
}

#[test]
fn explain_analyze_reports_estimates_against_actuals() {
    let cat = synth_catalog(9, &spec());
    let db = synth_database(9, cat.clone());
    let opt = Optimizer::new(cat.clone()).expect("rules");
    let query = query_shape(&cat, QueryShape::Chain, 2, false);
    let out = opt
        .optimize(&query, &OptConfig::default())
        .expect("optimize");
    let mut ex = Executor::new(&db, &query);
    ex.enable_node_stats();
    let result = ex.run(&out.best).expect("execute");

    let rendered = Explain::new(&cat, &query).analyze(&out.best, ex.node_actuals());
    let mut lines = rendered.lines();
    let header = lines.next().expect("header row");
    for col in [
        "operator", "est.card", "act.rows", "rel.err", "est.cost", "time", "loops",
    ] {
        assert!(header.contains(col), "missing column {col}: {header}");
    }
    // The root row reports the actual result cardinality and a % error.
    let root = lines.next().expect("root row");
    assert!(root.contains(&format!("  {}  ", result.rows.len())) || root.contains('%'));
    // Every node of the executed plan has actuals — no "-" placeholders.
    assert!(
        !rendered.contains("  -  "),
        "executed plan has un-measured nodes:\n{rendered}"
    );
    // One rendered row per plan node, plus the header.
    assert_eq!(rendered.lines().count(), out.best.op_count() + 1);
}

#[test]
fn executor_emits_exec_node_events() {
    let cat = synth_catalog(13, &spec());
    let db = synth_database(13, cat.clone());
    let opt = Optimizer::new(cat.clone()).expect("rules");
    let query = query_shape(&cat, QueryShape::Chain, 2, false);
    let out = opt
        .optimize(&query, &OptConfig::default())
        .expect("optimize");

    let ctx = SpanContext::detailed(1);
    let mut ex = Executor::new(&db, &query);
    ex.set_spans(ctx.clone());
    ex.run(&out.best).expect("execute");
    let tree = ctx
        .finish(0, 0, 0, "miss", false, false, "sampled")
        .unwrap();

    let execs: Vec<_> = tree
        .events
        .into_iter()
        .map(|e| e.event)
        .filter(|e| e.kind() == "exec_node")
        .collect();
    // One exec_node event per distinct plan node.
    let mut distinct = std::collections::HashSet::new();
    out.best.visit(&mut |n| {
        distinct.insert(n.fingerprint());
    });
    assert_eq!(execs.len(), distinct.len());
    // The root's event carries the run's row count.
    let root_rows = ex.stats().rows_out;
    assert!(execs
        .iter()
        .any(|e| matches!(e, TraceEvent::ExecNode { rows_out, .. } if *rows_out == root_rows)));
}

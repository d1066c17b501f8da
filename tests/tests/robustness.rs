//! Robustness: the resource governor's anytime semantics, per-alternative
//! fault quarantine, typed error paths, and executor containment.
//!
//! The contract under test (the fault-injection harness drives the same one
//! at scale from `starqo-bench`'s chaos runner): every optimization and
//! execution finishes with a valid — possibly degraded — plan or a typed
//! error, never a process abort.

use std::sync::Arc;
use std::time::Duration;

use starqo_core::natives::NativeCtx;
use starqo_core::value::RuleValue;
use starqo_core::{
    faults, Budget, CoreError, FaultMode, FaultPlan, OptConfig, Optimizer, ACCESS_RULES, JOIN_RULES,
};
use starqo_exec::{rows_equal_multiset, ExecError, Executor};
use starqo_plan::Lolepop;
use starqo_query::{PredSet, QId};
use starqo_trace::{SpanContext, TraceEvent};
use starqo_workload::{
    dept_emp_catalog, dept_emp_database, dept_emp_query, query_shape, synth_catalog,
    synth_database, QueryShape, SynthSpec,
};

/// A three-table synthetic chain: small, but with real join enumeration
/// (the two-table paper query exhausts too little to exercise greed).
fn multi_join_setup() -> (
    Arc<starqo_catalog::Catalog>,
    starqo_storage::Database,
    starqo_query::Query,
) {
    let spec = SynthSpec {
        tables: 3,
        card_range: (200, 800),
        index_prob: 0.5,
        btree_prob: 0.4,
        sites: 1,
        ..Default::default()
    };
    let cat = synth_catalog(0, &spec);
    let db = synth_database(0, cat.clone());
    let query = query_shape(&cat, QueryShape::Chain, 3, true);
    (cat, db, query)
}

// ---------------------------------------------------------------- governor

/// Anytime semantics: a tight memo cap degrades the run, the degradation is
/// visible on `Optimized` and in the trace stream, and the greedy plan still
/// computes the same answer as the exhaustive one.
#[test]
fn memo_cap_degrades_but_answer_matches() {
    let (cat, db, query) = multi_join_setup();
    let opt = Optimizer::new(cat).unwrap();

    let full = opt.optimize(&query, &OptConfig::full()).unwrap();
    assert!(!full.degraded);
    assert!(full.degraded_reason.is_none());
    let want = Executor::new(&db, &query).run(&full.best).unwrap();

    let ctx = SpanContext::detailed(1);
    let config = OptConfig {
        budget: Budget::default().with_memo_cap(2),
        ..OptConfig::full()
    };
    let out = opt.optimize_spanned(&query, &config, &ctx).unwrap();
    assert!(out.degraded, "memo cap 2 must exhaust on a 3-way join");
    let reason = out.degraded_reason.as_deref().unwrap_or_default();
    assert!(reason.contains("memo_entries"), "{reason}");
    let tree = ctx.finish(0, 0, 0, "miss", true, false, "sampled").unwrap();
    assert!(
        tree.events.iter().any(
            |e| matches!(&e.event, TraceEvent::BudgetExhausted { resource, .. }
                if resource == "memo_entries")
        ),
        "budget_exhausted event missing from trace"
    );

    let got = Executor::new(&db, &query).run(&out.best).unwrap();
    assert_eq!(got.schema, want.schema);
    assert!(
        rows_equal_multiset(&got.rows, &want.rows),
        "degraded plan must compute the same result ({} vs {} rows)",
        got.rows.len(),
        want.rows.len()
    );
}

/// An already-expired deadline degrades immediately but still yields a
/// complete, executable plan (never an error).
#[test]
fn zero_deadline_still_returns_a_plan() {
    let (cat, db, query) = multi_join_setup();
    let opt = Optimizer::new(cat).unwrap();
    let config = OptConfig {
        budget: Budget::default().with_deadline(Duration::ZERO),
        ..OptConfig::full()
    };
    let out = opt.optimize(&query, &config).unwrap();
    assert!(out.degraded);
    assert!(out
        .degraded_reason
        .as_deref()
        .unwrap_or_default()
        .contains("deadline"));
    let full = opt.optimize(&query, &OptConfig::full()).unwrap();
    let want = Executor::new(&db, &query).run(&full.best).unwrap();
    let got = Executor::new(&db, &query).run(&out.best).unwrap();
    assert!(rows_equal_multiset(&got.rows, &want.rows));
}

/// A plans-built cap also degrades without erroring.
#[test]
fn plans_cap_degrades_but_completes() {
    let (cat, db, query) = multi_join_setup();
    let opt = Optimizer::new(cat).unwrap();
    let config = OptConfig {
        budget: Budget::default().with_plans_cap(5),
        ..OptConfig::full()
    };
    let out = opt.optimize(&query, &config).unwrap();
    assert!(out.degraded);
    Executor::new(&db, &query).run(&out.best).unwrap();
}

// -------------------------------------------------------------- quarantine

fn panicking_native(_: &NativeCtx<'_>, _: &[RuleValue]) -> starqo_core::Result<RuleValue> {
    panic!("native deliberately exploded")
}

fn erroring_native(_: &NativeCtx<'_>, _: &[RuleValue]) -> starqo_core::Result<RuleValue> {
    Err(CoreError::Eval {
        star: "(native)".into(),
        msg: "native deliberately failed".into(),
    })
}

/// Extra AccessRoot alternatives whose guard calls the broken native. The
/// built-in alternatives still produce plans, so the run must succeed with
/// the broken alternative quarantined.
const BROKEN_GUARD_RULES: &str = r#"
star AccessRoot(T, C, P) = [
    TableAccess(T, C, P) if broken_native(P);
]
"#;

fn quarantine_run(
    native: starqo_core::natives::NativeFn,
) -> (starqo_core::Optimized, Vec<TraceEvent>) {
    let cat = dept_emp_catalog(false, 1_000);
    let mut opt = Optimizer::empty(cat.clone());
    opt.register_native("broken_native", native);
    opt.load_rules(ACCESS_RULES).unwrap();
    opt.load_rules(JOIN_RULES).unwrap();
    opt.load_rules(BROKEN_GUARD_RULES).unwrap();
    let query = dept_emp_query(&cat);
    let ctx = SpanContext::detailed(1);
    let out = opt
        .optimize_spanned(&query, &OptConfig::default(), &ctx)
        .unwrap();
    // The optimizer survived a broken rule; the plan must still run.
    let db = dept_emp_database(cat);
    Executor::new(&db, &query).run(&out.best).unwrap();
    let tree = ctx
        .finish(0, 0, 0, "miss", false, false, "sampled")
        .unwrap();
    (out, tree.events.into_iter().map(|e| e.event).collect())
}

#[test]
fn panicking_rule_is_quarantined_and_run_completes() {
    let (out, events) = quarantine_run(panicking_native);
    assert!(!out.quarantined.is_empty());
    let q = &out.quarantined[0];
    assert_eq!(q.star, "AccessRoot");
    assert!(q.cond.contains("broken_native"), "{q:?}");
    assert!(q.reason.contains("panic"), "{q:?}");
    assert!(q.reason.contains("deliberately exploded"), "{q:?}");
    assert!(
        events.iter().any(
            |e| matches!(e, TraceEvent::RuleQuarantined { star, cond, .. }
                if star == "AccessRoot" && cond.contains("broken_native"))
        ),
        "rule_quarantined event missing"
    );
    // Quarantine is sticky: the broken alternative fails once per run, not
    // once per reference.
    let quarantine_events = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RuleQuarantined { .. }))
        .count();
    assert_eq!(quarantine_events, out.quarantined.len());
}

#[test]
fn erroring_rule_is_quarantined_and_run_completes() {
    let (out, events) = quarantine_run(erroring_native);
    assert!(!out.quarantined.is_empty());
    assert!(out.quarantined[0].reason.contains("deliberately failed"));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::RuleQuarantined { .. })));
}

/// When *every* alternative of a STAR is broken, quarantine cannot save the
/// run: the first typed error surfaces instead of an empty result.
#[test]
fn fully_broken_star_surfaces_typed_error() {
    let cat = dept_emp_catalog(false, 100);
    let mut opt = Optimizer::empty(cat.clone());
    opt.register_native("broken_native", panicking_native);
    opt.load_rules(ACCESS_RULES).unwrap();
    opt.load_rules(
        r#"
star JoinRoot(T1, T2, P) = [
    TableAccess(T1, {}, P) if broken_native(P);
]
"#,
    )
    .unwrap();
    let query = dept_emp_query(&cat);
    let err = opt.optimize(&query, &OptConfig::default()).unwrap_err();
    assert!(
        matches!(err, CoreError::Panicked { .. }),
        "want Panicked, got {err:?}"
    );
}

// ------------------------------------------------------------- error paths

#[test]
fn cyclic_star_is_a_typed_error() {
    let cat = dept_emp_catalog(false, 100);
    let mut opt = Optimizer::empty(cat.clone());
    opt.load_rules(ACCESS_RULES).unwrap();
    opt.load_rules(
        r#"
star JoinRoot(T1, T2, P) = Hither(T1, T2, P);
star Hither(T1, T2, P) = Thither(T1, T2, P);
star Thither(T1, T2, P) = Hither(T1, T2, P);
"#,
    )
    .unwrap();
    let query = dept_emp_query(&cat);
    let err = opt.optimize(&query, &OptConfig::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("recursion limit"), "{msg}");
}

#[test]
fn unknown_rule_reference_is_a_compile_error() {
    let cat = dept_emp_catalog(false, 100);
    let mut opt = Optimizer::empty(cat);
    let err = opt
        .load_rules("star JoinRoot(T1, T2, P) = NoSuchStar(T1, T2, P);")
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Compile { .. }),
        "want Compile, got {err:?}"
    );
}

/// All conditions of applicability failing is not a crash — it is the typed
/// "no plan" outcome.
#[test]
fn empty_alternative_set_is_a_typed_no_plan() {
    let cat = dept_emp_catalog(false, 100);
    let mut opt = Optimizer::empty(cat.clone());
    opt.load_rules(ACCESS_RULES).unwrap();
    opt.load_rules(
        r#"
star JoinRoot(T1, T2, P) = [
    TableAccess(T1, {}, P) if is_empty(join_preds(P));
]
"#,
    )
    .unwrap();
    let query = dept_emp_query(&cat); // has a join predicate: guard fails
    let err = opt.optimize(&query, &OptConfig::default()).unwrap_err();
    assert!(
        matches!(err, CoreError::NoPlan(_)),
        "want NoPlan, got {err:?}"
    );
}

/// A malformed plan (GET with no ACCESS child) is a typed executor error,
/// not an index panic.
#[test]
fn executor_rejects_malformed_plan_with_typed_error() {
    let cat = dept_emp_catalog(false, 100);
    let query = dept_emp_query(&cat);
    let db = dept_emp_database(cat.clone());
    let opt = Optimizer::new(cat).unwrap();
    let out = opt.optimize(&query, &OptConfig::default()).unwrap();
    // Steal real props so only the shape (zero inputs) is wrong.
    let bad = starqo_plan::PlanNode::with_props(
        Lolepop::Get {
            q: QId(0),
            cols: Default::default(),
            preds: PredSet::EMPTY,
        },
        vec![],
        out.best.props.clone(),
    );
    let err = Executor::new(&db, &query).run(&bad).unwrap_err();
    match err {
        ExecError::BadPlan(msg) => assert!(msg.contains("GET"), "{msg}"),
        other => panic!("want BadPlan, got {other:?}"),
    }
}

// ------------------------------------------------------- fault injection

/// Engine-level fault injection: an erroring native quarantines the rules
/// that call it; the run completes (or fails typed), never aborts.
#[test]
fn injected_native_error_is_contained() {
    let cat = dept_emp_catalog(false, 100);
    let query = dept_emp_query(&cat);
    let db = dept_emp_database(cat.clone());
    let opt = Optimizer::new(cat).unwrap();
    let config = OptConfig {
        faults: Some(Arc::new(FaultPlan::single(
            "native",
            "join_preds",
            FaultMode::Error,
            1,
        ))),
        ..OptConfig::full()
    };
    match opt.optimize(&query, &config) {
        Ok(out) => {
            assert!(!out.quarantined.is_empty(), "fault must leave a trace");
            Executor::new(&db, &query).run(&out.best).unwrap();
        }
        Err(e) => {
            // Typed is acceptable; what matters is that we got here.
            let _ = e.to_string();
        }
    }
}

/// `with` bindings are evaluated on first read, inside the reading
/// alternative's quarantine boundary: a failing `hashable_preds` is never
/// called while the hash-join alternative cannot fire (its `enabled(...)`
/// guard rejects it first), and with hash joins enabled it quarantines
/// exactly that alternative — the rest of `JMeth` keeps optimizing.
#[test]
fn a_failing_binding_costs_only_the_alternative_that_reads_it() {
    let (cat, db, query) = multi_join_setup();
    let opt = Optimizer::new(cat).unwrap();
    let faulted = |base: OptConfig, mode: &str| OptConfig {
        faults: Some(Arc::new(
            FaultPlan::parse(&format!("native:hashable_preds:{mode}")).unwrap(),
        )),
        ..base
    };
    let healthy = opt.optimize(&query, &OptConfig::default()).unwrap();
    let want = Executor::new(&db, &query).run(&healthy.best).unwrap();
    for mode in ["panic", "error"] {
        let out = opt
            .optimize(&query, &faulted(OptConfig::default(), mode))
            .unwrap();
        assert_eq!(out.best.fingerprint(), healthy.best.fingerprint());
        assert!(out.quarantined.is_empty(), "{mode}: {:?}", out.quarantined);
        assert_eq!(
            out.stats, healthy.stats,
            "{mode}: the same work, call for call"
        );

        let out = opt
            .optimize(&query, &faulted(OptConfig::full(), mode))
            .unwrap();
        let hit: Vec<_> = out.quarantined.iter().map(|q| q.cond.as_str()).collect();
        assert_eq!(hit.len(), 1, "{mode}: {hit:?}");
        assert!(hit[0].starts_with("enabled('hashjoin')"), "{mode}: {hit:?}");
        assert_eq!(out.quarantined[0].star, "JMeth");
        assert!(!out.best.any(&|n| matches!(
            n.op,
            Lolepop::Join {
                flavor: starqo_plan::JoinFlavor::HA,
                ..
            }
        )));
        let got = Executor::new(&db, &query).run(&out.best).unwrap();
        assert!(rows_equal_multiset(&got.rows, &want.rows));
    }
}

/// The executor fault hook surfaces injections and contains panics as typed
/// errors.
#[test]
fn executor_fault_hook_yields_typed_errors() {
    let cat = dept_emp_catalog(false, 100);
    let query = dept_emp_query(&cat);
    let db = dept_emp_database(cat.clone());
    let opt = Optimizer::new(cat).unwrap();
    let out = opt.optimize(&query, &OptConfig::default()).unwrap();

    let mut ex = Executor::new(&db, &query);
    ex.set_fault_hook(Arc::new(|op: &str| {
        op.starts_with("JOIN")
            .then(|| "injected for JOIN".to_string())
    }));
    let err = ex.run(&out.best).unwrap_err();
    assert!(matches!(err, ExecError::Injected(_)), "{err:?}");

    let mut ex = Executor::new(&db, &query);
    ex.set_fault_hook(Arc::new(|op: &str| {
        if op.starts_with("ACCESS") {
            panic!("hook exploded");
        }
        None
    }));
    let err = ex.run(&out.best).unwrap_err();
    match err {
        ExecError::Panicked(msg) => assert!(msg.contains("hook exploded"), "{msg}"),
        other => panic!("want Panicked, got {other:?}"),
    }

    // The spec grammar wires the same machinery from the environment
    // (STARQO_FAULTS); exercise the parse → trigger → fire path directly.
    let plan = FaultPlan::parse("exec:JOIN:error@1").unwrap();
    let mode = plan.trigger("exec", "JOIN(NL)").expect("prefix match");
    assert_eq!(
        faults::fire(mode, "exec"),
        Some("injected fault: error at exec".to_string())
    );
}

// ------------------------------------------------------------------ lints

#[test]
fn lint_warnings_surface_through_the_optimizer() {
    let cat = dept_emp_catalog(false, 100);
    let mut opt = Optimizer::empty(cat);
    opt.load_rules(ACCESS_RULES).unwrap();
    assert!(opt.warnings().is_empty(), "built-ins must lint clean");
    opt.load_rules(
        r#"
star Suspicious(T, P) = {
    TableAccess(T, {}, {});
    TableAccess(T, {}, P) if is_empty(P);
}
"#,
    )
    .unwrap();
    let kinds: Vec<_> = opt.warnings().iter().map(|w| w.kind).collect();
    assert!(
        kinds.contains(&starqo_dsl::LintKind::UnreachableAlternative),
        "{kinds:?}"
    );
}

//! Fine-grained STAR-interpreter tests: expression semantics, alternative
//! semantics (inclusive/exclusive/otherwise/forall), requirement
//! accumulation, Glue behaviors, and memoization — driven through small
//! hand-written rule sets against the paper's catalog.

use std::sync::Arc;

use starqo_catalog::{Catalog, DataType, SiteId, StorageKind};
use starqo_core::engine::Engine;
use starqo_core::natives::Natives;
use starqo_core::value::{ReqVec, RuleValue, Sap, StreamRef};
use starqo_core::{glue, OptConfig, Optimizer, RuleSet};
use starqo_plan::{CostModel, Lolepop, PlanRef, PropEngine};
use starqo_query::{parse_query, PredSet, QCol, QId, QSet, Query};

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::builder()
            .site("N.Y.")
            .site("L.A.")
            .table("DEPT", "N.Y.", StorageKind::Heap, 50)
            .column("DNO", DataType::Int, Some(50))
            .column("MGR", DataType::Str, Some(25))
            .table("EMP", "L.A.", StorageKind::Heap, 5_000)
            .column("NAME", DataType::Str, None)
            .column("DNO", DataType::Int, Some(50))
            .index("EMP_DNO", "EMP", &["DNO"], false, false)
            .build()
            .unwrap(),
    )
}

fn query(cat: &Catalog) -> Query {
    parse_query(
        cat,
        "SELECT E.NAME FROM DEPT D, EMP E WHERE D.MGR = 'Haas' AND D.DNO = E.DNO",
    )
    .unwrap()
}

/// Compile extra rules on top of the built-ins and hand back everything an
/// Engine needs.
struct Fx {
    cat: Arc<Catalog>,
    query: Query,
    rules: RuleSet,
    natives: Natives,
    prop: PropEngine,
    model: CostModel,
    config: OptConfig,
}

impl Fx {
    fn new(extra_rules: &str, config: OptConfig) -> Self {
        let cat = catalog();
        let q = query(&cat);
        let mut opt = Optimizer::new(cat.clone()).unwrap();
        if !extra_rules.is_empty() {
            opt.load_rules(extra_rules).unwrap();
        }
        Fx {
            rules: opt.rules().clone(),
            cat: cat.clone(),
            query: q,
            natives: Natives::builtin(),
            prop: PropEngine::new(),
            model: CostModel::default(),
            config,
        }
    }

    fn engine(&self) -> Engine<'_> {
        Engine::new(
            &self.rules,
            &self.natives,
            &self.prop,
            &self.cat,
            &self.query,
            &self.model,
            &self.config,
        )
    }
}

/// The plans of a SAP, as the run would hand them out.
fn plans_of(e: &Engine<'_>, sap: Sap) -> Vec<PlanRef> {
    let ids = e.store.sap(sap).to_vec();
    e.store.materialize(ids, &e.rules.labels).0
}

fn stream(q: u32) -> RuleValue {
    RuleValue::Stream(StreamRef::new(QSet::single(QId(q))))
}

fn dept_args() -> Vec<RuleValue> {
    // AccessRoot(T, C, P) arguments for DEPT with its single-table pred.
    let cols: starqo_plan::ColSet = [
        QCol::new(QId(0), starqo_catalog::ColId(0)),
        QCol::new(QId(0), starqo_catalog::ColId(1)),
    ]
    .into_iter()
    .collect();
    vec![
        stream(0),
        RuleValue::ColSet(cols),
        RuleValue::Preds(PredSet::single(starqo_query::PredId(0))),
    ]
}

#[test]
fn inclusive_alternatives_union_and_exclusive_pick_first() {
    let fx = Fx::new(
        "star Both(T, C, P) = [ TableAccess(T, C, P); TableAccess(T, C, P); ]\n\
         star First(T, C, P) = {\n\
             TableAccess(T, C, P)  if count(T) == 1;\n\
             TableAccess(T, C, P)  otherwise;\n\
         }",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    // Inclusive: duplicates union away, one plan remains.
    let both = e.eval_star_by_name("Both", dept_args()).unwrap();
    assert_eq!(both.len(), 1);
    // Exclusive: the first matching guard fires, the otherwise doesn't.
    let mut e2 = fx.engine();
    let first = e2.eval_star_by_name("First", dept_args()).unwrap();
    assert_eq!(first.len(), 1);
    // Two conditions total: First's own guard plus TableAccess's
    // storage-kind guard. The `otherwise` arm is never a condition.
    assert_eq!(e2.stats.conds_evaluated, 2);
}

#[test]
fn otherwise_fires_only_when_nothing_matched() {
    let fx = Fx::new(
        "star Fallback(T, C, P) = {\n\
             TableAccess(T, C, P)  if count(T) == 99;\n\
             TableAccess(T, C, P)  otherwise;\n\
         }",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    let plans = e.eval_star_by_name("Fallback", dept_args()).unwrap();
    assert_eq!(plans.len(), 1);
}

#[test]
fn forall_expands_each_element() {
    // Two candidate sites (N.Y. storage + query site) — EMP is at L.A., so
    // candidate_sites = {N.Y., L.A.}.
    let fx = Fx::new(
        "star PerSite(T, C, P) = [\n\
             forall s in candidate_sites(): ShipTo(T, C, P, s);\n\
         ]\n\
         star ShipTo(T, C, P, s) = SHIP(TableAccess(T, C, P), s);",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    let sap = e.eval_star_by_name("PerSite", dept_args()).unwrap();
    let plans = plans_of(&e, sap);
    assert_eq!(plans.len(), 2);
    let sites: std::collections::BTreeSet<SiteId> = plans.iter().map(|p| p.props.site).collect();
    assert_eq!(sites.len(), 2);
}

#[test]
fn set_operators_on_predicates() {
    // P - (P - P) == P; union/minus drive which preds the access applies.
    let fx = Fx::new(
        "star Minus(T, C, P) = TableAccess(T, C, P - join_preds(P));",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    // Pass both preds; join pred p1 is subtracted, leaving only p0.
    let cols: starqo_plan::ColSet = [
        QCol::new(QId(0), starqo_catalog::ColId(0)),
        QCol::new(QId(0), starqo_catalog::ColId(1)),
    ]
    .into_iter()
    .collect();
    let all = PredSet::from_iter([starqo_query::PredId(0), starqo_query::PredId(1)]);
    let args = vec![stream(0), RuleValue::ColSet(cols), RuleValue::Preds(all)];
    let sap = e.eval_star_by_name("Minus", args).unwrap();
    let plans = plans_of(&e, sap);
    assert_eq!(plans.len(), 1);
    assert_eq!(
        plans[0].props.preds,
        PredSet::single(starqo_query::PredId(0))
    );
}

#[test]
fn requirements_accumulate_until_glue() {
    // Stack [site] then [order] across two STARs; Glue discharges both.
    let fx = Fx::new("", OptConfig::default());
    // Two tiny natives for the test: la() and dno(T).
    let mut natives = Natives::builtin();
    natives.register("la", |_ctx, _args| Ok(RuleValue::Site(SiteId(1))));
    natives.register("dno", |_ctx, args| {
        let RuleValue::Stream(s) = &args[0] else {
            panic!()
        };
        let q = s.tables.as_single().unwrap();
        let dno = QCol::new(q, starqo_catalog::ColId(0));
        Ok(RuleValue::Cols(vec![dno].into()))
    });
    // Recompile with the extended registry so the names resolve.
    let mut opt = Optimizer::new(fx.cat.clone()).unwrap();
    opt.register_native("la", |_ctx, _args| Ok(RuleValue::Site(SiteId(1))));
    opt.register_native("dno", |_ctx, args| {
        let RuleValue::Stream(s) = &args[0] else {
            panic!()
        };
        let q = s.tables.as_single().unwrap();
        let dno = QCol::new(q, starqo_catalog::ColId(0));
        Ok(RuleValue::Cols(vec![dno].into()))
    });
    opt.load_rules(
        "star Outer(T, C, P) = Inner(T[site = la()], C, P)\n\
         star Inner(T, C, P) = Glue(T[order = dno(T)], P);",
    )
    .unwrap();
    let rules = opt.rules().clone();
    let mut e = Engine::new(
        &rules, &natives, &fx.prop, &fx.cat, &fx.query, &fx.model, &fx.config,
    );
    let args = vec![
        stream(0),
        dept_args()[1].clone(),
        RuleValue::Preds(PredSet::single(starqo_query::PredId(0))),
    ];
    let sap = e.eval_star_by_name("Outer", args).unwrap();
    let plans = plans_of(&e, sap);
    assert_eq!(plans.len(), 1);
    let p = &plans[0];
    assert_eq!(p.props.site, SiteId(1));
    assert!(p
        .props
        .order_satisfies(&[QCol::new(QId(0), starqo_catalog::ColId(0))]));
    // Both a SORT and a SHIP were injected.
    assert!(p.any(&|n| matches!(n.op, Lolepop::Sort { .. })));
    assert!(p.any(&|n| matches!(n.op, Lolepop::Ship { .. })));
}

#[test]
fn glue_discharges_temp_with_store_at_destination() {
    let fx = Fx::new("", OptConfig::default());
    let mut e = fx.engine();
    let reqs = ReqVec {
        order: None,
        site: Some(SiteId(1)), // DEPT lives at N.Y. (site 0)
        temp: true,
        paths: None,
    };
    let s = e.store.stream(QSet::single(QId(0)), reqs);
    let sap = glue::glue(&mut e, s, PredSet::EMPTY).unwrap();
    let plans = plans_of(&e, sap);
    let p = &plans[0];
    assert!(p.props.temp);
    assert_eq!(p.props.site, SiteId(1));
    // STORE sits above SHIP: the temp is materialized at the destination.
    assert!(matches!(p.op, Lolepop::Store));
    assert!(p.inputs[0].any(&|n| matches!(n.op, Lolepop::Ship { .. })));
}

#[test]
fn glue_is_cached_per_requirement_vector() {
    let fx = Fx::new("", OptConfig::default());
    let mut e = fx.engine();
    let s = StreamRef::new(QSet::single(QId(0)));
    let a = glue::glue(&mut e, s, PredSet::EMPTY).unwrap();
    let before = e.stats.glue_cache_hits;
    let b = glue::glue(&mut e, s, PredSet::EMPTY).unwrap();
    assert_eq!(e.stats.glue_cache_hits, before + 1);
    assert_eq!(a.len(), b.len());
    // A different requirement misses the cache; the same one, accumulated
    // separately, hits it.
    let temp = || ReqVec {
        temp: true,
        ..Default::default()
    };
    let s2 = e.store.stream(QSet::single(QId(0)), temp());
    glue::glue(&mut e, s2, PredSet::EMPTY).unwrap();
    assert_eq!(e.stats.glue_cache_hits, before + 1);
    let s3 = e.store.stream(QSet::single(QId(0)), temp());
    glue::glue(&mut e, s3, PredSet::EMPTY).unwrap();
    assert_eq!(e.stats.glue_cache_hits, before + 2);
}

#[test]
fn glue_pushdown_rereferences_access_root() {
    // Pushing the join predicate into EMP generates an index probe plan.
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let fx = Fx::new("", config);
    let mut e = fx.engine();
    let s = StreamRef::new(QSet::single(QId(1)));
    let plans = glue::glue(&mut e, s, PredSet::single(starqo_query::PredId(1))).unwrap();
    let plans = plans_of(&e, plans);
    for p in plans.iter() {
        assert!(p.props.preds.contains(starqo_query::PredId(1)));
    }
    // Among the satisfying plans, one probes the EMP.DNO index with the
    // converted join predicate ("rather than retrofitting a FILTER").
    assert!(plans.iter().any(|p| p.any(&|n| matches!(
        n.op,
        Lolepop::Access {
            spec: starqo_plan::AccessSpec::Index { .. },
            ..
        }
    ))));
}

#[test]
fn star_memoization_counts_hits() {
    let fx = Fx::new("", OptConfig::default());
    let mut e = fx.engine();
    e.eval_star_by_name("AccessRoot", dept_args()).unwrap();
    let refs_before = e.stats.star_refs;
    let hits_before = e.stats.memo_hits;
    e.eval_star_by_name("AccessRoot", dept_args()).unwrap();
    assert_eq!(e.stats.star_refs, refs_before + 1);
    assert_eq!(e.stats.memo_hits, hits_before + 1);
}

#[test]
fn the_memo_compares_arguments_by_what_they_hold() {
    // `A` and `B` build the same plan into two SAPs of their own; `O1` and
    // `O2` accumulate the same requirement on two streams of their own. A
    // reference with either is the same reference.
    let fx = Fx::new(
        "star A(T, C, P) = ACCESS(heap, T, C, P);\n\
         star B(T, C, P) = ACCESS(heap, T, C, P);\n\
         star Use(S) = STORE(S);\n\
         star O1(T, C, P) = Inner(T[temp], C, P);\n\
         star O2(T, C, P) = Inner(T[temp], C, P);\n\
         star Inner(T, C, P) = Glue(T, P);",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    let a = e.eval_star_by_name("A", dept_args()).unwrap();
    let b = e.eval_star_by_name("B", dept_args()).unwrap();
    assert_ne!(a, b);
    let hits = e.stats.memo_hits;
    let x = e
        .eval_star_by_name("Use", vec![RuleValue::Plans(a)])
        .unwrap();
    let y = e
        .eval_star_by_name("Use", vec![RuleValue::Plans(b)])
        .unwrap();
    assert_eq!((x, e.stats.memo_hits), (y, hits + 1));
    e.eval_star_by_name("O1", dept_args()).unwrap();
    e.eval_star_by_name("O2", dept_args()).unwrap();
    assert_eq!(e.stats.memo_hits, hits + 2, "Inner(T[temp], ..) again");
}

#[test]
fn root_star_plans_are_registered_whoever_references_them() {
    // A user rule may reference AccessRoot itself. Its plans must reach
    // the plan table then, because a later driver or Glue reference with
    // the same arguments is a memo hit and registers nothing.
    let fx = Fx::new(
        "star Wrapped(T, C, P) = AccessRoot(T, C, P);",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    let dept = QSet::single(QId(0));
    assert!(!e.table.has_tables(dept));
    let plans = e.eval_star_by_name("Wrapped", dept_args()).unwrap();
    assert!(!plans.is_empty());
    let key = (dept, PredSet::single(starqo_query::PredId(0)));
    let best = e
        .table
        .best(&e.store, key)
        .expect("AccessRoot's plans are registered");
    assert!(e.store.sap(plans).contains(&best));
    // The memo answers the repeat; the table is not offered the plans again.
    let offered = e.table.stats.offered;
    e.eval_star_by_name("AccessRoot", dept_args()).unwrap();
    assert_eq!(e.table.stats.offered, offered);
}

#[test]
fn a_reference_that_got_one_sap_hands_it_on() {
    // `Wrapped` and `Picked` each fire one alternative: what they return is
    // their callee's block, not a copy of it, memoized under their own keys;
    // the plan's origin is still the alternative that built it.
    let fx = Fx::new(
        "star Wrapped(T, C, P) = Picked(T, C, P);\n\
         star Picked(T, C, P) = {\n\
             TableAccess(T, C, P)  if count(T) == 99;\n\
             TableAccess(T, C, P)  otherwise;\n\
         }\n\
         star Twice(T, C, P) = [ TableAccess(T, C, P); Again(T, C, P); ]\n\
         star Again(T, C, P) = TableAccess(T, C, P);",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    let wrapped = e.eval_star_by_name("Wrapped", dept_args()).unwrap();
    let (refs, hits) = (e.stats.star_refs, e.stats.memo_hits);
    let callee = e.eval_star_by_name("TableAccess", dept_args()).unwrap();
    assert_eq!(wrapped, callee);
    let again = e.eval_star_by_name("Wrapped", dept_args()).unwrap();
    assert_eq!(wrapped, again);
    assert_eq!(e.stats.star_refs, refs + 2);
    assert_eq!(e.stats.memo_hits, hits + 2, "each under its own key");
    assert_eq!(wrapped.len(), 1);
    let plan = e.store.sap(wrapped)[0];
    assert_eq!(
        e.origin(e.store[plan].fingerprint),
        Some("TableAccess[alt 1]")
    );
    // Two fired alternatives are merged into a SAP of their own.
    let twice = e.eval_star_by_name("Twice", dept_args()).unwrap();
    assert_ne!(twice, callee);
    assert_eq!(twice.len(), 1, "and the duplicate is dropped");
}

#[test]
fn bindings_are_evaluated_on_first_read_inside_the_alternative() {
    // `boom` is read only by the second alternative, whose guard rejects it
    // first; the third alternative reads it and is the one quarantined.
    fn boom(
        _: &starqo_core::natives::NativeCtx<'_>,
        _: &[RuleValue],
    ) -> starqo_core::Result<RuleValue> {
        panic!("boom evaluated")
    }
    let cat = catalog();
    let q = query(&cat);
    let mut opt = Optimizer::new(cat.clone()).unwrap();
    opt.register_native("boom", boom);
    let mut natives = Natives::builtin();
    natives.register("boom", boom);
    opt.load_rules(
        "star Lazy(T, C, P) =\n\
             with N = count(T), B = boom()\n\
             [\n\
                 TableAccess(T, C, P)  if N == 1;\n\
                 TableAccess(T, C, B)  if N == 99 and is_empty(B);\n\
             ]\n\
         star Eager(T, C, P) =\n\
             with B = boom()\n\
             [\n\
                 TableAccess(T, C, P);\n\
                 TableAccess(T, C, B);\n\
             ]",
    )
    .unwrap();
    let (prop, model, config) = (
        PropEngine::new(),
        CostModel::default(),
        OptConfig::default(),
    );
    let mut e = Engine::new(opt.rules(), &natives, &prop, &cat, &q, &model, &config);
    let calls = e.stats.native_calls;
    let plans = e.eval_star_by_name("Lazy", dept_args()).unwrap();
    assert_eq!(plans.len(), 1);
    assert!(e.quarantine_log.is_empty(), "{:?}", e.quarantine_log);
    // count(T) once for both guards, storage_kind inside TableAccess; no boom.
    assert_eq!(e.stats.native_calls, calls + 2);

    let plans = e.eval_star_by_name("Eager", dept_args()).unwrap();
    assert_eq!(
        plans.len(),
        1,
        "the alternative that never reads B survives"
    );
    assert_eq!(e.quarantine_log.len(), 1);
    assert_eq!(e.quarantine_log[0].star, "Eager");
    assert_eq!(e.quarantine_log[0].alt, 2);
    assert!(e.quarantine_log[0].reason.contains("boom evaluated"));
}

#[test]
fn symbols_compare_loosely_with_strings() {
    // storage_kind returns a string; rules may compare with a bare symbol.
    let fx = Fx::new(
        "star K(T, C, P) = {\n\
             TableAccess(T, C, P) if storage_kind(T) == heap;\n\
         }",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    let plans = e.eval_star_by_name("K", dept_args()).unwrap();
    assert_eq!(plans.len(), 1);
}

#[test]
fn type_errors_are_reported_not_panicked() {
    let fx = Fx::new(
        "star Bad(T, C, P) = TableAccess(P, C, T);", // swapped args
        OptConfig::default(),
    );
    let mut e = fx.engine();
    let err = e.eval_star_by_name("Bad", dept_args()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("evaluating STAR"), "{msg}");
}

#[test]
fn alternative_returning_non_plans_is_an_error() {
    let fx = Fx::new(
        "star NotPlans(T, C, P) = join_preds(P);",
        OptConfig::default(),
    );
    let mut e = fx.engine();
    let err = e.eval_star_by_name("NotPlans", dept_args()).unwrap_err();
    assert!(err.to_string().contains("did not produce plans"), "{err}");
}

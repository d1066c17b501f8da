//! End-to-end optimizer tests: the built-in rule files drive real
//! optimizations of the paper's DEPT ⋈ EMP query, and the chosen plans are
//! executed and checked against the brute-force reference evaluator.

use std::sync::Arc;

use starqo_catalog::{Catalog, DataType, StorageKind, Value};
use starqo_core::{OptConfig, Optimized, Optimizer};
use starqo_exec::{reference_eval, rows_equal_multiset, Executor};
use starqo_plan::{JoinFlavor, Lolepop};
use starqo_query::parse_query;
use starqo_storage::{Database, DatabaseBuilder};

const SQL: &str = "SELECT E.NAME, E.ADDRESS FROM DEPT D, EMP E \
                   WHERE D.MGR = 'Haas' AND D.DNO = E.DNO";

fn catalog(distributed: bool) -> Arc<Catalog> {
    let emp_site = if distributed { "L.A." } else { "N.Y." };
    Arc::new(
        Catalog::builder()
            .site("N.Y.")
            .site("L.A.")
            .table("DEPT", "N.Y.", StorageKind::Heap, 50)
            .column("DNO", DataType::Int, Some(50))
            .column("MGR", DataType::Str, Some(25))
            .table("EMP", emp_site, StorageKind::Heap, 10_000)
            .column("ENO", DataType::Int, Some(10_000))
            .column("NAME", DataType::Str, None)
            .column("ADDRESS", DataType::Str, None)
            .column("DNO", DataType::Int, Some(50))
            .index("EMP_DNO", "EMP", &["DNO"], false, false)
            .build()
            .unwrap(),
    )
}

/// Database where exactly one DEPT has MGR='Haas'.
fn haas_database(cat: Arc<Catalog>) -> Database {
    let mut b = DatabaseBuilder::new(cat);
    for d in 0..50i64 {
        let mgr = if d == 7 {
            "Haas".to_string()
        } else {
            format!("mgr{d}")
        };
        b.insert("DEPT", vec![Value::Int(d), Value::str(mgr)])
            .unwrap();
    }
    for e in 0..10_000i64 {
        b.insert(
            "EMP",
            vec![
                Value::Int(e),
                Value::str(format!("name{e}")),
                Value::str(format!("addr{e}")),
                Value::Int(e % 50),
            ],
        )
        .unwrap();
    }
    b.build().unwrap()
}

fn optimize(
    distributed: bool,
    config: &OptConfig,
) -> (Arc<Catalog>, starqo_query::Query, Optimized) {
    let cat = catalog(distributed);
    let query = parse_query(&cat, SQL).unwrap();
    let opt = Optimizer::new(cat.clone()).unwrap();
    let out = opt.optimize(&query, config).unwrap();
    (cat, query, out)
}

fn has_op(plan: &starqo_plan::PlanRef, f: impl Fn(&Lolepop) -> bool + Copy) -> bool {
    plan.any(&|n| f(&n.op))
}

#[test]
fn local_query_produces_valid_best_plan() {
    let (_, query, out) = optimize(false, &OptConfig::default());
    assert!(out.best.props.cost.total() > 0.0);
    assert_eq!(out.best.props.tables, query.all_qset());
    assert_eq!(out.best.props.preds, query.all_preds());
    assert!(out.stats.star_refs > 0);
    assert!(out.stats.plans_built > 0);
    assert!(!out.root_alternatives.is_empty());
}

#[test]
fn figure1_shape_among_alternatives() {
    // With Glue keeping all satisfying plans, the alternative space must
    // contain the paper's Figure-1 plan: a merge join whose outer is a
    // SORTed DEPT scan and whose inner is GET over the EMP.DNO index.
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let (_, _, out) = optimize(false, &config);
    let found = out.root_alternatives.iter().any(|p| {
        has_op(p, |o| {
            matches!(
                o,
                Lolepop::Join {
                    flavor: JoinFlavor::MG,
                    ..
                }
            )
        }) && has_op(p, |o| matches!(o, Lolepop::Sort { .. }))
            && has_op(p, |o| matches!(o, Lolepop::Get { .. }))
    });
    assert!(
        found,
        "Figure 1 plan not generated; alternatives:\n{:#?}",
        out.root_alternatives
            .iter()
            .map(|p| p.op_names())
            .collect::<Vec<_>>()
    );
}

#[test]
fn nested_loop_index_probe_generated() {
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let (_, _, out) = optimize(false, &config);
    // An NL join whose inner probes the EMP_DNO index (ACCESS(index)).
    let found = out.root_alternatives.iter().any(|p| {
        has_op(p, |o| {
            matches!(
                o,
                Lolepop::Join {
                    flavor: JoinFlavor::NL,
                    ..
                }
            )
        }) && has_op(p, |o| {
            matches!(
                o,
                Lolepop::Access {
                    spec: starqo_plan::AccessSpec::Index { .. },
                    ..
                }
            )
        })
    });
    assert!(found, "NL + index probe plan not generated");
}

#[test]
fn best_local_plan_executes_and_matches_reference() {
    let (cat, query, out) = optimize(false, &OptConfig::default());
    let db = haas_database(cat);
    let mut ex = Executor::new(&db, &query);
    let got = ex.run(&out.best).unwrap();
    let want = reference_eval(&db, &query).unwrap();
    assert_eq!(got.rows.len(), 200); // 1 Haas dept × 200 emps
    assert!(rows_equal_multiset(&got.rows, &want));
}

#[test]
fn every_root_alternative_executes_identically() {
    // E13 in miniature: all alternatives agree with the reference.
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let (cat, query, out) = optimize(false, &config);
    let db = haas_database(cat);
    let want = reference_eval(&db, &query).unwrap();
    assert!(out.root_alternatives.len() >= 3);
    for plan in &out.root_alternatives {
        let mut ex = Executor::new(&db, &query);
        let got = ex.run(plan).unwrap();
        assert!(
            rows_equal_multiset(&got.rows, &want),
            "alternative diverged: {:?}",
            plan.op_names()
        );
    }
}

#[test]
fn distributed_query_ships_streams() {
    let (_, query, out) = optimize(true, &OptConfig::default());
    // Tables at different sites: some SHIP must appear, and the final plan
    // must deliver at the query site.
    assert!(has_op(&out.best, |o| matches!(o, Lolepop::Ship { .. })));
    assert_eq!(out.best.props.site, query.query_site);
}

#[test]
fn distributed_remote_inner_is_stored_as_temp() {
    // §4.3 C1: an inner shipped to another site must be stored as a temp.
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let (_, _, out) = optimize(true, &config);
    let found = out.root_alternatives.iter().any(|p| {
        // a STORE on top of a SHIP somewhere in the plan
        p.any(&|n| {
            matches!(n.op, Lolepop::Store)
                && n.inputs[0].any(&|m| matches!(m.op, Lolepop::Ship { .. }))
        })
    });
    assert!(found, "no shipped-and-stored inner among alternatives");
}

#[test]
fn hash_join_requires_enablement() {
    let base = optimize(false, &OptConfig::default()).2;
    assert!(
        !base
            .root_alternatives
            .iter()
            .any(|p| has_op(p, |o| matches!(
                o,
                Lolepop::Join {
                    flavor: JoinFlavor::HA,
                    ..
                }
            ))),
        "hash join generated while disabled"
    );
    let mut config = OptConfig::default().enable("hashjoin");
    config.glue_keep_all = true;
    let (_, _, out) = optimize(false, &config);
    let found = out.root_alternatives.iter().any(|p| {
        has_op(p, |o| {
            matches!(
                o,
                Lolepop::Join {
                    flavor: JoinFlavor::HA,
                    ..
                }
            )
        })
    });
    assert!(found, "hash join not generated when enabled");
}

#[test]
fn forced_projection_materializes_inner() {
    let mut config = OptConfig::default().enable("force_projection");
    config.glue_keep_all = true;
    let (cat, query, out) = optimize(false, &config);
    // Some alternative stores the inner and re-accesses the temp.
    let found = out.root_alternatives.iter().any(|p| {
        has_op(p, |o| matches!(o, Lolepop::Store))
            && has_op(p, |o| {
                matches!(
                    o,
                    Lolepop::Access {
                        spec: starqo_plan::AccessSpec::TempHeap,
                        ..
                    }
                )
            })
    });
    assert!(found, "forced-projection alternative missing");
    // And it executes correctly.
    let db = haas_database(cat);
    let want = reference_eval(&db, &query).unwrap();
    for plan in &out.root_alternatives {
        let mut ex = Executor::new(&db, &query);
        let got = ex.run(plan).unwrap();
        assert!(rows_equal_multiset(&got.rows, &want));
    }
}

#[test]
fn dynamic_index_builds_index_on_inner() {
    let mut config = OptConfig::default().enable("dynamic_index");
    config.glue_keep_all = true;
    let (cat, query, out) = optimize(false, &config);
    let found = out.root_alternatives.iter().any(|p| {
        has_op(p, |o| matches!(o, Lolepop::BuildIndex { .. }))
            && has_op(p, |o| {
                matches!(
                    o,
                    Lolepop::Access {
                        spec: starqo_plan::AccessSpec::TempIndex { .. },
                        ..
                    }
                )
            })
    });
    assert!(found, "dynamic-index alternative missing");
    let db = haas_database(cat);
    let want = reference_eval(&db, &query).unwrap();
    for plan in &out.root_alternatives {
        let mut ex = Executor::new(&db, &query);
        let got = ex.run(plan).unwrap();
        assert!(
            rows_equal_multiset(&got.rows, &want),
            "diverged: {:?}",
            plan.op_names()
        );
    }
}

#[test]
fn full_config_executes_correctly_and_improves_or_matches_cost() {
    let default = optimize(false, &OptConfig::default()).2;
    let (cat, query, full) = optimize(false, &OptConfig::full());
    assert!(
        full.best.props.cost.total() <= default.best.props.cost.total() + 1e-9,
        "a bigger repertoire must never yield a worse best plan"
    );
    let db = haas_database(cat);
    let mut ex = Executor::new(&db, &query);
    let got = ex.run(&full.best).unwrap();
    let want = reference_eval(&db, &query).unwrap();
    assert!(rows_equal_multiset(&got.rows, &want));
}

#[test]
fn memoization_pays_off() {
    let (_, _, out) = optimize(false, &OptConfig::default());
    assert!(out.stats.star_refs > out.stats.memo_hits);
    assert!(out.stats.glue_refs > 0);
    assert!(out.stats.conds_evaluated > 0);
    assert!(out.table_plans > 0 && out.table_keys > 0);
}

/// Where a SAP handed on unchanged, or built in the engine's shared scratch
/// vector, could alias wrongly: a reference re-expanded instead of answered
/// from the memo must return the same plans, and Glue keeping every
/// satisfying plan must not lose the cheapest — local and across sites, base
/// repertoire and all of §4.5.
#[test]
fn memo_ablation_and_keep_all_reach_the_same_winner() {
    for distributed in [false, true] {
        for base in [OptConfig::default(), OptConfig::full()] {
            let (_, _, want) = optimize(distributed, &base);
            let mut no_memo = base.clone();
            no_memo.ablate_memo = true;
            let (_, _, got) = optimize(distributed, &no_memo);
            assert_eq!(got.best.fingerprint(), want.best.fingerprint());
            assert_eq!(got.stats.memo_hits, 0);
            assert_eq!(got.root_alternatives.len(), want.root_alternatives.len());
            assert_eq!(got.origin_trace(&got.best), want.origin_trace(&want.best));

            let mut keep_all = base.clone();
            keep_all.glue_keep_all = true;
            let (_, _, got) = optimize(distributed, &keep_all);
            let (got, want) = (got.best.props.cost.total(), want.best.props.cost.total());
            assert!(got <= want + 1e-9, "keep_all {got} vs cheapest-only {want}");
        }
    }
}

#[test]
fn three_way_join_with_order_by() {
    let cat = Arc::new(
        Catalog::builder()
            .site("x")
            .table("A", "x", StorageKind::Heap, 100)
            .column("ID", DataType::Int, Some(100))
            .column("BID", DataType::Int, Some(20))
            .table("B", "x", StorageKind::Heap, 20)
            .column("ID", DataType::Int, Some(20))
            .column("CID", DataType::Int, Some(10))
            .table("C", "x", StorageKind::Heap, 10)
            .column("ID", DataType::Int, Some(10))
            .column("NAME", DataType::Str, None)
            .build()
            .unwrap(),
    );
    let query = parse_query(
        &cat,
        "SELECT C.NAME, A.ID FROM A, B, C \
         WHERE A.BID = B.ID AND B.CID = C.ID ORDER BY A.ID",
    )
    .unwrap();
    let opt = Optimizer::new(cat.clone()).unwrap();
    let out = opt.optimize(&query, &OptConfig::default()).unwrap();
    // Final plan satisfies the ORDER BY.
    assert!(out.best.props.order_satisfies(&query.order_by));

    // Load data and check execution.
    let mut b = DatabaseBuilder::new(cat.clone());
    for i in 0..100i64 {
        b.insert("A", vec![Value::Int(i), Value::Int(i % 20)])
            .unwrap();
    }
    for i in 0..20i64 {
        b.insert("B", vec![Value::Int(i), Value::Int(i % 10)])
            .unwrap();
    }
    for i in 0..10i64 {
        b.insert("C", vec![Value::Int(i), Value::str(format!("c{i}"))])
            .unwrap();
    }
    let db = b.build().unwrap();
    let mut ex = Executor::new(&db, &query);
    let got = ex.run(&out.best).unwrap();
    let want = reference_eval(&db, &query).unwrap();
    assert_eq!(got.rows.len(), 100);
    assert!(rows_equal_multiset(&got.rows, &want));
}

#[test]
fn bushy_vs_left_deep_repertoire() {
    // Chain query over 4 tables: composite inners strictly widen the space.
    let cat = Arc::new(
        Catalog::builder()
            .site("x")
            .table("T0", "x", StorageKind::Heap, 100)
            .column("ID", DataType::Int, Some(100))
            .column("NX", DataType::Int, Some(50))
            .table("T1", "x", StorageKind::Heap, 200)
            .column("ID", DataType::Int, Some(200))
            .column("NX", DataType::Int, Some(50))
            .table("T2", "x", StorageKind::Heap, 300)
            .column("ID", DataType::Int, Some(300))
            .column("NX", DataType::Int, Some(50))
            .table("T3", "x", StorageKind::Heap, 400)
            .column("ID", DataType::Int, Some(400))
            .column("NX", DataType::Int, Some(50))
            .build()
            .unwrap(),
    );
    let query = parse_query(
        &cat,
        "SELECT T0.ID FROM T0, T1, T2, T3 \
         WHERE T0.NX = T1.ID AND T1.NX = T2.ID AND T2.NX = T3.ID",
    )
    .unwrap();
    let opt = Optimizer::new(cat).unwrap();
    let left_deep = opt.optimize(&query, &OptConfig::default()).unwrap();
    let bushy_cfg = OptConfig {
        composite_inners: true,
        ..Default::default()
    };
    let bushy = opt.optimize(&query, &bushy_cfg).unwrap();
    assert!(bushy.stats.plans_built >= left_deep.stats.plans_built);
    assert!(bushy.best.props.cost.total() <= left_deep.best.props.cost.total() + 1e-9);
}

#[test]
fn cartesian_products_only_when_requested() {
    // Disconnected join graph: no join predicate between A and B.
    let cat = Arc::new(
        Catalog::builder()
            .site("x")
            .table("A", "x", StorageKind::Heap, 10)
            .column("ID", DataType::Int, Some(10))
            .table("B", "x", StorageKind::Heap, 10)
            .column("ID", DataType::Int, Some(10))
            .build()
            .unwrap(),
    );
    let query = parse_query(&cat, "SELECT A.ID, B.ID FROM A, B").unwrap();
    let opt = Optimizer::new(cat.clone()).unwrap();
    // Even without cartesian=true the fallback pass must produce *a* plan
    // (the query is unanswerable otherwise)...
    let out = opt.optimize(&query, &OptConfig::default()).unwrap();
    assert_eq!(out.best.props.tables, query.all_qset());
    // ...and it must execute as a product.
    let mut b = DatabaseBuilder::new(cat);
    for i in 0..10i64 {
        b.insert("A", vec![Value::Int(i)]).unwrap();
        b.insert("B", vec![Value::Int(i)]).unwrap();
    }
    let db = b.build().unwrap();
    let mut ex = Executor::new(&db, &query);
    let got = ex.run(&out.best).unwrap();
    assert_eq!(got.rows.len(), 100);
}

#[test]
fn tid_sort_alternative_fetches_in_page_order() {
    // The §4 "omitted" STAR: SORT the TIDs from an index scan before GET so
    // data pages are touched sequentially.
    let mut config = OptConfig::default().enable("tid_sort");
    config.glue_keep_all = true;
    let (cat, query, out) = optimize(false, &config);
    let tid_sorted = out.root_alternatives.iter().find(|p| {
        p.any(&|n| {
            // A SORT whose key is the TID pseudo-column.
            matches!(&n.op, Lolepop::Sort { key }
                if key.len() == 1 && key[0].col.is_tid())
        })
    });
    let plan = tid_sorted.expect("tid-sort alternative generated");
    // It executes identically to the reference.
    let db = haas_database(cat);
    let want = reference_eval(&db, &query).unwrap();
    let mut ex = Executor::new(&db, &query);
    let got = ex.run(plan).unwrap();
    assert!(rows_equal_multiset(&got.rows, &want));
    // And the sorted-TID GET touches far fewer pages than an unsorted one:
    // compare against the plain index+GET alternative.
    let pages_sorted = ex.stats().pages_read;
    let plain = out
        .root_alternatives
        .iter()
        .find(|p| {
            p.any(&|n| matches!(n.op, Lolepop::Get { .. }))
                && !p.any(&|n| {
                    matches!(&n.op, Lolepop::Sort { key }
                    if key.len() == 1 && key[0].col.is_tid())
                })
                && !p.any(&|n| {
                    matches!(
                        n.op,
                        Lolepop::Join {
                            flavor: JoinFlavor::MG,
                            ..
                        }
                    )
                })
        })
        .expect("plain index+GET alternative");
    let mut ex2 = Executor::new(&db, &query);
    let got2 = ex2.run(plain).unwrap();
    assert!(rows_equal_multiset(&got2.rows, &want));
    // Both correct; the sorted variant must not read more pages.
    assert!(pages_sorted <= ex2.stats().pages_read);
}

#[test]
fn plan_origins_are_traceable_to_rules() {
    // §1: rules "may be ... traced to explain the origin of any execution
    // plan".
    let (_, _, out) = optimize(false, &OptConfig::default());
    let trace = out.origin_trace(&out.best);
    assert!(!trace.is_empty());
    let joined = trace.join("\n");
    // The join node came from a JMeth alternative; table accesses from the
    // access STARs; any veneers from Glue.
    assert!(joined.contains("JMeth[alt"), "{joined}");
    assert!(
        joined.contains("TableAccess[alt")
            || joined.contains("IndexAccess[alt")
            || joined.contains("FetchAccess[alt"),
        "{joined}"
    );
}

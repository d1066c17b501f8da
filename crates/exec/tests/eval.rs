//! End-to-end evaluator tests: hand-built plans over a real in-memory
//! database, all validated against the brute-force reference evaluator.

use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, IndexId, StorageKind, Value, TID_COL};
use starqo_exec::{reference_eval, rows_equal_multiset, Executor};
use starqo_plan::{
    AccessSpec, ColSet, CostModel, JoinFlavor, Lolepop, PlanRef, PropCtx, PropEngine,
};
use starqo_query::{parse_query, PredId, PredSet, QCol, QId, Query};
use starqo_storage::{Database, DatabaseBuilder};

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::builder()
            .site("N.Y.")
            .site("L.A.")
            .table("DEPT", "N.Y.", StorageKind::Heap, 6)
            .column("DNO", DataType::Int, Some(6))
            .column("MGR", DataType::Str, Some(3))
            .table(
                "EMP",
                "N.Y.",
                StorageKind::BTree {
                    key: vec![ColId(0)],
                },
                30,
            )
            .column("ENO", DataType::Int, Some(30))
            .column("NAME", DataType::Str, None)
            .column("DNO", DataType::Int, Some(6))
            .index("EMP_DNO", "EMP", &["DNO"], false, false)
            .build()
            .unwrap(),
    )
}

fn database(cat: Arc<Catalog>) -> Database {
    let mut b = DatabaseBuilder::new(cat);
    let mgrs = ["Haas", "Codd", "Gray"];
    for d in 0..6i64 {
        b.insert(
            "DEPT",
            vec![Value::Int(d), Value::str(mgrs[(d % 3) as usize])],
        )
        .unwrap();
    }
    for e in 0..30i64 {
        b.insert(
            "EMP",
            vec![
                Value::Int(e),
                Value::str(format!("emp{e}")),
                Value::Int(e % 6),
            ],
        )
        .unwrap();
    }
    b.build().unwrap()
}

struct Fx {
    db: Database,
    query: Query,
    model: CostModel,
    engine: PropEngine,
}

impl Fx {
    fn new(sql: &str) -> Self {
        let cat = catalog();
        let db = database(cat.clone());
        let query = parse_query(&cat, sql).unwrap();
        Fx {
            db,
            query,
            model: CostModel::default(),
            engine: PropEngine::new(),
        }
    }

    fn build(&self, op: Lolepop, inputs: Vec<PlanRef>) -> PlanRef {
        let ctx = PropCtx::new(self.db.catalog(), &self.query, &self.model);
        self.engine.build(op, inputs, &ctx).unwrap()
    }

    fn check_against_reference(&self, plan: &PlanRef) -> usize {
        let mut ex = Executor::new(&self.db, &self.query);
        let got = ex.run(plan).unwrap();
        let want = reference_eval(&self.db, &self.query).unwrap();
        assert!(
            rows_equal_multiset(&got.rows, &want),
            "plan result diverges from reference: got {} rows, want {}",
            got.rows.len(),
            want.len()
        );
        got.rows.len()
    }
}

const D: QId = QId(0);
const E: QId = QId(1);
const SQL: &str = "SELECT E.NAME FROM DEPT D, EMP E WHERE D.MGR = 'Haas' AND D.DNO = E.DNO";
const P_MGR: PredId = PredId(0);
const P_JOIN: PredId = PredId(1);

fn cols(items: &[(QId, u32)]) -> ColSet {
    items
        .iter()
        .map(|(q, c)| QCol::new(*q, ColId(*c)))
        .collect()
}

fn dept_scan(f: &Fx, preds: PredSet) -> PlanRef {
    f.build(
        Lolepop::Access {
            spec: AccessSpec::HeapTable(D),
            cols: cols(&[(D, 0), (D, 1)]),
            preds,
        },
        vec![],
    )
}

fn emp_scan(f: &Fx, preds: PredSet) -> PlanRef {
    f.build(
        Lolepop::Access {
            spec: AccessSpec::BTreeTable(E),
            cols: cols(&[(E, 1), (E, 2)]),
            preds,
        },
        vec![],
    )
}

#[test]
fn figure1_sort_merge_plan_executes_correctly() {
    let f = Fx::new(SQL);
    let d = dept_scan(&f, PredSet::single(P_MGR));
    let d_sorted = f.build(
        Lolepop::Sort {
            key: vec![QCol::new(D, ColId(0))].into(),
        },
        vec![d],
    );
    // GET(ACCESS(index EMP_DNO)) — index order is DNO order.
    let mut ixcols = cols(&[(E, 2)]);
    ixcols.insert(QCol::new(E, TID_COL));
    let ix = f.build(
        Lolepop::Access {
            spec: AccessSpec::Index {
                index: IndexId(0),
                q: E,
            },
            cols: ixcols,
            preds: PredSet::EMPTY,
        },
        vec![],
    );
    let get = f.build(
        Lolepop::Get {
            q: E,
            cols: cols(&[(E, 1)]),
            preds: PredSet::EMPTY,
        },
        vec![ix],
    );
    let join = f.build(
        Lolepop::Join {
            flavor: JoinFlavor::MG,
            join_preds: PredSet::single(P_JOIN),
            residual: PredSet::EMPTY,
        },
        vec![d_sorted, get],
    );
    // 2 'Haas' depts × 5 emps each = 10 rows.
    assert_eq!(f.check_against_reference(&join), 10);
}

#[test]
fn nested_loop_with_pushed_join_pred() {
    let f = Fx::new(SQL);
    let d = dept_scan(&f, PredSet::single(P_MGR));
    // Inner applies the join predicate per probe (sideways info passing).
    let e = emp_scan(&f, PredSet::single(P_JOIN));
    let nl = f.build(
        Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds: PredSet::single(P_JOIN),
            residual: PredSet::EMPTY,
        },
        vec![d, e],
    );
    assert_eq!(f.check_against_reference(&nl), 10);
}

#[test]
fn nested_loop_with_index_probe_inner() {
    let f = Fx::new(SQL);
    let d = dept_scan(&f, PredSet::single(P_MGR));
    // Inner: index probe on EMP.DNO bound per outer tuple, then GET.
    let mut ixcols = cols(&[(E, 2)]);
    ixcols.insert(QCol::new(E, TID_COL));
    let ix = f.build(
        Lolepop::Access {
            spec: AccessSpec::Index {
                index: IndexId(0),
                q: E,
            },
            cols: ixcols,
            preds: PredSet::single(P_JOIN),
        },
        vec![],
    );
    let get = f.build(
        Lolepop::Get {
            q: E,
            cols: cols(&[(E, 1)]),
            preds: PredSet::EMPTY,
        },
        vec![ix],
    );
    let nl = f.build(
        Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds: PredSet::single(P_JOIN),
            residual: PredSet::EMPTY,
        },
        vec![d, get],
    );
    let mut ex = Executor::new(&f.db, &f.query);
    let got = ex.run(&nl).unwrap();
    assert_eq!(got.rows.len(), 10);
    // Probes happened (2 outer tuples → 2 probes).
    assert_eq!(ex.stats().probes, 2);
    let want = reference_eval(&f.db, &f.query).unwrap();
    assert!(rows_equal_multiset(&got.rows, &want));
}

#[test]
fn hash_join_matches_reference() {
    let f = Fx::new(SQL);
    let d = dept_scan(&f, PredSet::single(P_MGR));
    let e = emp_scan(&f, PredSet::EMPTY);
    let ha = f.build(
        Lolepop::Join {
            flavor: JoinFlavor::HA,
            join_preds: PredSet::single(P_JOIN),
            residual: PredSet::single(P_JOIN),
        },
        vec![d, e],
    );
    assert_eq!(f.check_against_reference(&ha), 10);
}

#[test]
fn materialized_inner_is_built_once() {
    let f = Fx::new(SQL);
    let d = dept_scan(&f, PredSet::single(P_MGR));
    // STORE the projected inner, re-ACCESS it with the join pred (§4.5.2).
    let e = emp_scan(&f, PredSet::EMPTY);
    let store = f.build(Lolepop::Store, vec![e]);
    let re = f.build(
        Lolepop::Access {
            spec: AccessSpec::TempHeap,
            cols: cols(&[(E, 1), (E, 2)]),
            preds: PredSet::single(P_JOIN),
        },
        vec![store],
    );
    let nl = f.build(
        Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds: PredSet::single(P_JOIN),
            residual: PredSet::EMPTY,
        },
        vec![d, re],
    );
    let mut ex = Executor::new(&f.db, &f.query);
    let got = ex.run(&nl).unwrap();
    assert_eq!(got.rows.len(), 10);
    // The temp was materialized exactly once despite 2 probes.
    assert_eq!(ex.stats().temps_built, 1);
    let want = reference_eval(&f.db, &f.query).unwrap();
    assert!(rows_equal_multiset(&got.rows, &want));
}

#[test]
fn dynamic_index_on_temp_inner() {
    let f = Fx::new(SQL);
    let d = dept_scan(&f, PredSet::single(P_MGR));
    let e = emp_scan(&f, PredSet::EMPTY);
    let store = f.build(Lolepop::Store, vec![e]);
    let key = vec![QCol::new(E, ColId(2))];
    let bix = f.build(Lolepop::BuildIndex { key: key.clone() }, vec![store]);
    let probe = f.build(
        Lolepop::Access {
            spec: AccessSpec::TempIndex { key },
            cols: cols(&[(E, 1), (E, 2)]),
            preds: PredSet::single(P_JOIN),
        },
        vec![bix],
    );
    let nl = f.build(
        Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds: PredSet::single(P_JOIN),
            residual: PredSet::EMPTY,
        },
        vec![d, probe],
    );
    let mut ex = Executor::new(&f.db, &f.query);
    let got = ex.run(&nl).unwrap();
    assert_eq!(got.rows.len(), 10);
    assert_eq!(ex.stats().indexes_built, 1);
    assert_eq!(ex.stats().probes, 2);
    let want = reference_eval(&f.db, &f.query).unwrap();
    assert!(rows_equal_multiset(&got.rows, &want));
}

#[test]
fn ship_counts_traffic_and_preserves_rows() {
    let f = Fx::new(SQL);
    let d = dept_scan(&f, PredSet::single(P_MGR));
    let shipped = f.build(
        Lolepop::Ship {
            to: starqo_catalog::SiteId(1),
        },
        vec![d.clone()],
    );
    let mut ex = Executor::new(&f.db, &f.query);
    let b = starqo_exec::eval::is_correlated(&shipped, &f.query);
    assert!(!b);
    let rows = ex.eval(&shipped, &Default::default()).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(ex.stats().bytes_shipped > 0);
    assert!(ex.stats().msgs >= 1);
}

#[test]
fn filter_and_union_execute() {
    let f = Fx::new(SQL);
    let d_all = dept_scan(&f, PredSet::EMPTY);
    let filtered = f.build(
        Lolepop::Filter {
            preds: PredSet::single(P_MGR),
        },
        vec![d_all],
    );
    let other = dept_scan(&f, PredSet::single(P_MGR));
    let union = f.build(Lolepop::Union, vec![filtered, other]);
    let mut ex = Executor::new(&f.db, &f.query);
    let rows = ex.eval(&union, &Default::default()).unwrap();
    assert_eq!(rows.len(), 4); // 2 Haas depts twice
}

#[test]
fn btree_scan_delivers_key_order() {
    let f = Fx::new("SELECT E.ENO FROM EMP E");
    let scan = f.build(
        Lolepop::Access {
            spec: AccessSpec::BTreeTable(QId(0)),
            cols: cols(&[(QId(0), 0)]),
            preds: PredSet::EMPTY,
        },
        vec![],
    );
    let mut ex = Executor::new(&f.db, &f.query);
    let rows = ex.eval(&scan, &Default::default()).unwrap();
    let vals: Vec<i64> = rows
        .iter()
        .map(|r| match r.get(0) {
            Value::Int(i) => *i,
            _ => panic!(),
        })
        .collect();
    let mut sorted = vals.clone();
    sorted.sort();
    assert_eq!(vals, sorted);
    assert_eq!(vals.len(), 30);
}

#[test]
fn extension_op_executes_via_registry() {
    let f = Fx::new(SQL);
    let d = dept_scan(&f, PredSet::single(P_MGR));
    // A trivial extension: DEDUP (distinct rows).
    let dd = {
        let ctx = PropCtx::new(f.db.catalog(), &f.query, &f.model);
        let mut eng = PropEngine::new();
        eng.register_ext(
            "DEDUP",
            Arc::new(|_op, inputs, _ctx| {
                let mut out = inputs[0].clone();
                out.card = (out.card / 2.0).max(1.0);
                Ok(out)
            }),
        );
        eng.build(
            Lolepop::Ext {
                name: Arc::from("DEDUP"),
                args: vec![],
                arity: 1,
            },
            vec![d],
            &ctx,
        )
        .unwrap()
    };
    let mut ex = Executor::new(&f.db, &f.query);
    // Not registered in the executor: error.
    assert!(ex.eval(&dd, &Default::default()).is_err());
    ex.register_ext(
        "DEDUP",
        Arc::new(|_q, _op, inputs, _schema| {
            let mut rows = inputs[0].1.clone();
            rows.sort();
            rows.dedup();
            Ok(rows)
        }),
    );
    let rows = ex.eval(&dd, &Default::default()).unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn reference_eval_handles_select_star() {
    let cat = catalog();
    let db = database(cat.clone());
    let q = parse_query(&cat, "SELECT * FROM DEPT D WHERE D.MGR = 'Haas'").unwrap();
    let rows = reference_eval(&db, &q).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].arity(), 2);
}

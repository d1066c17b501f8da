//! `ExecStats` accounting tests: hand-computed resource counters for small
//! nested-loop plans with a materialized (§4.5.2) inner.
//!
//! With `ROWS_PER_PAGE = 64`, DEPT (6 rows) and EMP (30 rows) are one page
//! each, so every page charge is computable by hand.

use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, StorageKind, Value};
use starqo_exec::Executor;
use starqo_plan::{
    AccessSpec, ColSet, CostModel, JoinFlavor, Lolepop, PlanRef, PropCtx, PropEngine,
};
use starqo_query::{parse_query, PredId, PredSet, QCol, QId, Query};
use starqo_storage::{Database, DatabaseBuilder};

const D: QId = QId(0);
const E: QId = QId(1);
const SQL: &str = "SELECT E.NAME FROM DEPT D, EMP E WHERE D.MGR = 'Haas' AND D.DNO = E.DNO";
const P_MGR: PredId = PredId(0);
const P_JOIN: PredId = PredId(1);

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::builder()
            .site("N.Y.")
            .table("DEPT", "N.Y.", StorageKind::Heap, 6)
            .column("DNO", DataType::Int, Some(6))
            .column("MGR", DataType::Str, Some(3))
            .table("EMP", "N.Y.", StorageKind::Heap, 30)
            .column("ENO", DataType::Int, Some(30))
            .column("NAME", DataType::Str, None)
            .column("DNO", DataType::Int, Some(6))
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
    fn new() -> Self {
        let cat = catalog();
        let db = database(cat.clone());
        let query = parse_query(&cat, SQL).unwrap();
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
}

fn cols(items: &[(QId, u32)]) -> ColSet {
    items
        .iter()
        .map(|(q, c)| QCol::new(*q, ColId(*c)))
        .collect()
}

/// NL join, inner = ACCESS(temp) over STORE(scan EMP): the temp is
/// materialized exactly once, each outer tuple then re-reads it.
fn nl_with_temp_inner(f: &Fx) -> PlanRef {
    let d = f.build(
        Lolepop::Access {
            spec: AccessSpec::HeapTable(D),
            cols: cols(&[(D, 0), (D, 1)]),
            preds: PredSet::single(P_MGR),
        },
        vec![],
    );
    let e = f.build(
        Lolepop::Access {
            spec: AccessSpec::HeapTable(E),
            cols: cols(&[(E, 1), (E, 2)]),
            preds: PredSet::EMPTY,
        },
        vec![],
    );
    let store = f.build(Lolepop::Store, vec![e]);
    let re = f.build(
        Lolepop::Access {
            spec: AccessSpec::TempHeap,
            cols: cols(&[(E, 1), (E, 2)]),
            preds: PredSet::single(P_JOIN),
        },
        vec![store],
    );
    f.build(
        Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds: PredSet::single(P_JOIN),
            residual: PredSet::EMPTY,
        },
        vec![d, re],
    )
}

#[test]
fn temp_inner_page_accounting_is_exact() {
    let f = Fx::new();
    let nl = nl_with_temp_inner(&f);
    let mut ex = Executor::new(&f.db, &f.query);
    let got = ex.run(&nl).unwrap();
    // 2 'Haas' depts × 5 emps each.
    assert_eq!(got.rows.len(), 10);
    let s = ex.stats();
    // §4.5.2: despite 2 outer probes, the temp is materialized exactly once.
    assert_eq!(s.temps_built, 1);
    // Pages: DEPT scan (1) + EMP scan feeding the STORE (1) + 2 temp
    // re-reads of ceil(30/64).max(1) = 1 page each.
    assert_eq!(s.pages_read, 1 + 1 + 2);
    // A heap temp is never probed, and no TID fetches happen.
    assert_eq!(s.probes, 0);
    assert_eq!(s.tuples_fetched, 0);
    assert_eq!(s.rows_out, 10);
}

#[test]
fn temp_index_inner_counts_probes() {
    let f = Fx::new();
    let d = f.build(
        Lolepop::Access {
            spec: AccessSpec::HeapTable(D),
            cols: cols(&[(D, 0), (D, 1)]),
            preds: PredSet::single(P_MGR),
        },
        vec![],
    );
    let e = f.build(
        Lolepop::Access {
            spec: AccessSpec::HeapTable(E),
            cols: cols(&[(E, 1), (E, 2)]),
            preds: PredSet::EMPTY,
        },
        vec![],
    );
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
    let s = ex.stats();
    assert_eq!(s.temps_built, 1);
    assert_eq!(s.indexes_built, 1);
    // One probe per outer 'Haas' tuple.
    assert_eq!(s.probes, 2);
    // Pages: DEPT (1) + EMP (1) + per probe ceil(5 hits / 64) + 1 = 2.
    assert_eq!(s.pages_read, 1 + 1 + 2 * 2);
}

#[test]
fn node_actuals_track_invocations_and_rows() {
    let f = Fx::new();
    let nl = nl_with_temp_inner(&f);
    let mut ex = Executor::new(&f.db, &f.query);
    ex.enable_node_stats();
    ex.run(&nl).unwrap();
    let actuals = ex.node_actuals();
    // Root join ran once and produced 10 rows.
    let join = actuals.get(&nl.fingerprint()).unwrap();
    assert_eq!(join.invocations, 1);
    assert_eq!(join.rows_out, 10);
    // The temp access (inner input) ran once per outer tuple, yielding the
    // 5 matching emps of the last probed dept.
    let inner = actuals.get(&nl.inputs[1].fingerprint()).unwrap();
    assert_eq!(inner.invocations, 2);
    assert_eq!(inner.rows_out, 5);
    // Its STORE input ran only once (then cached).
    let store = actuals.get(&nl.inputs[1].inputs[0].fingerprint()).unwrap();
    assert_eq!(store.invocations, 1);
    assert_eq!(store.rows_out, 30);
}

/// A genuine DAG: one STORE node (same `Arc`) feeds both inputs of a
/// UNION through two temp accesses. The shared subtree must evaluate once
/// (identity cache) and appear once in `node_actuals` and the trace.
#[test]
fn shared_subtree_in_a_dag_is_executed_and_counted_once() {
    use starqo_trace::{SpanContext, TraceEvent};

    let f = Fx::new();
    let e = f.build(
        Lolepop::Access {
            spec: AccessSpec::HeapTable(E),
            cols: cols(&[(E, 1), (E, 2)]),
            preds: PredSet::EMPTY,
        },
        vec![],
    );
    let store = f.build(Lolepop::Store, vec![e]);
    let scan_temp = |_: usize| {
        f.build(
            Lolepop::Access {
                spec: AccessSpec::TempHeap,
                cols: cols(&[(E, 1), (E, 2)]),
                preds: PredSet::EMPTY,
            },
            vec![store.clone()], // same Arc both times: a true DAG
        )
    };
    let (a1, a2) = (scan_temp(0), scan_temp(1));
    assert_eq!(
        a1.fingerprint(),
        a2.fingerprint(),
        "structurally identical branches share a fingerprint"
    );
    let union = f.build(Lolepop::Union, vec![a1, a2]);

    let ctx = SpanContext::detailed(1);
    let mut ex = Executor::new(&f.db, &f.query);
    ex.set_spans(ctx.clone());
    let got = ex.run(&union).unwrap();
    // Both branches produce all 30 EMP rows.
    assert_eq!(got.rows.len(), 60);
    // The STORE materialized once, not once per branch...
    assert_eq!(ex.stats().temps_built, 1);
    // ...and its actuals say one invocation, 30 rows out.
    let actuals = ex.node_actuals();
    let s = actuals.get(&store.fingerprint()).unwrap();
    assert_eq!(s.invocations, 1);
    assert_eq!(s.rows_out, 30);
    // The (fingerprint-shared) temp scan ran once per branch.
    let scan = actuals.get(&union.inputs[0].fingerprint()).unwrap();
    assert_eq!(scan.invocations, 2);
    // The trace carries exactly one exec_node per distinct fingerprint —
    // the shared STORE (and the EMP scan under it) are not double-counted.
    let tree = ctx
        .finish(0, 0, 0, "miss", false, false, "sampled")
        .unwrap();
    let events: Vec<TraceEvent> = tree.events.into_iter().map(|e| e.event).collect();
    let mut exec_fps: Vec<u64> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::ExecNode { fp, .. } => Some(*fp),
            _ => None,
        })
        .collect();
    // union, shared temp scan, store, emp scan = 4 distinct nodes.
    assert_eq!(exec_fps.len(), 4);
    exec_fps.sort_unstable();
    exec_fps.dedup();
    assert_eq!(exec_fps.len(), 4);
    let store_ev = events.iter().find_map(|ev| match ev {
        TraceEvent::ExecNode {
            fp,
            invocations,
            rows_out,
            ..
        } if *fp == store.fingerprint() => Some((*invocations, *rows_out)),
        _ => None,
    });
    assert_eq!(store_ev, Some((1, 30)));
}

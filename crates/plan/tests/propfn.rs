//! Property-function tests: legality checks and cost/cardinality shapes,
//! exercised through the public API by rebuilding the paper's Figure-1 plan
//! by hand.

use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, SiteId, StorageKind, TID_COL};
use starqo_plan::{
    AccessSpec, ColSet, CostModel, Explain, JoinFlavor, Lolepop, PlanError, PlanRef, PropCtx,
    PropEngine,
};
use starqo_query::{parse_query, PredId, PredSet, QCol, QId, Query};

/// The paper's catalog: DEPT at N.Y., EMP at N.Y. with an index on EMP.DNO.
fn paper_catalog() -> Catalog {
    Catalog::builder()
        .site("N.Y.")
        .site("L.A.")
        .table("DEPT", "N.Y.", StorageKind::Heap, 50)
        .column("DNO", DataType::Int, Some(50))
        .column("MGR", DataType::Str, Some(40))
        .table("EMP", "N.Y.", StorageKind::Heap, 10_000)
        .column("NAME", DataType::Str, None)
        .column("ADDRESS", DataType::Str, None)
        .column("DNO", DataType::Int, Some(50))
        .index("EMP_DNO", "EMP", &["DNO"], false, false)
        .build()
        .unwrap()
}

fn paper_query(cat: &Catalog) -> Query {
    parse_query(
        cat,
        "SELECT E.NAME, E.ADDRESS FROM DEPT D, EMP E \
         WHERE D.MGR = 'Haas' AND D.DNO = E.DNO",
    )
    .unwrap()
}

struct Fixture {
    cat: Catalog,
    query: Query,
    model: CostModel,
    engine: PropEngine,
}

impl Fixture {
    fn new() -> Self {
        let cat = paper_catalog();
        let query = paper_query(&cat);
        Fixture {
            cat,
            query,
            model: CostModel::default(),
            engine: PropEngine::new(),
        }
    }

    fn ctx(&self) -> PropCtx<'_> {
        PropCtx::new(&self.cat, &self.query, &self.model)
    }

    fn build(&self, op: Lolepop, inputs: Vec<PlanRef>) -> Result<PlanRef, PlanError> {
        self.engine.build(op, inputs, &self.ctx())
    }
}

const D: QId = QId(0);
const E: QId = QId(1);
const P_MGR: PredId = PredId(0); // D.MGR = 'Haas'
const P_JOIN: PredId = PredId(1); // D.DNO = E.DNO

fn cols(items: &[(QId, u32)]) -> ColSet {
    items
        .iter()
        .map(|(q, c)| QCol::new(*q, ColId(*c)))
        .collect()
}

fn tid_col(q: QId) -> QCol {
    QCol::new(q, TID_COL)
}

/// ACCESS(DEPT, {DNO, MGR}, {MGR = 'Haas'})
fn dept_access(f: &Fixture) -> PlanRef {
    f.build(
        Lolepop::Access {
            spec: AccessSpec::HeapTable(D),
            cols: cols(&[(D, 0), (D, 1)]),
            preds: PredSet::single(P_MGR),
        },
        vec![],
    )
    .unwrap()
}

/// ACCESS(Index on EMP.DNO, {TID, DNO}, φ)
fn emp_index_access(f: &Fixture) -> PlanRef {
    let mut c = cols(&[(E, 2)]);
    c.insert(tid_col(E));
    f.build(
        Lolepop::Access {
            spec: AccessSpec::Index {
                index: starqo_catalog::IndexId(0),
                q: E,
            },
            cols: c,
            preds: PredSet::EMPTY,
        },
        vec![],
    )
    .unwrap()
}

#[test]
fn heap_access_properties() {
    let f = Fixture::new();
    let p = dept_access(&f);
    // card = 50 * 1/ndv(MGR) = 50/40
    assert!((p.props.card - 50.0 / 40.0).abs() < 1e-9);
    assert_eq!(p.props.site, SiteId(0));
    assert!(p.props.order.is_empty());
    assert!(!p.props.temp);
    assert!(p.props.paths.is_empty()); // DEPT has no indexes
    assert!(p.props.cost.once == 0.0 && p.props.cost.rescan > 0.0);
    assert_eq!(p.props.preds, PredSet::single(P_MGR));
}

#[test]
fn heap_access_rejects_foreign_columns() {
    let f = Fixture::new();
    let err = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(D),
                cols: cols(&[(E, 0)]),
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::Scope { .. }));
}

#[test]
fn index_access_gives_order_and_tids() {
    let f = Fixture::new();
    let p = emp_index_access(&f);
    assert_eq!(*p.props.order, [QCol::new(E, ColId(2))]);
    assert!(p.props.cols.contains(&tid_col(E)));
    assert_eq!(p.props.card, 10_000.0);
    // EMP has one catalog path.
    assert_eq!(p.props.paths.len(), 1);
}

#[test]
fn index_access_rejects_non_key_columns() {
    let f = Fixture::new();
    let err = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::Index {
                    index: starqo_catalog::IndexId(0),
                    q: E,
                },
                cols: cols(&[(E, 0)]), // NAME is not in the index
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::Scope { .. }));
}

#[test]
fn index_probe_with_pushed_join_pred_is_cheap_and_selective() {
    let f = Fixture::new();
    // Pushing D.DNO = E.DNO down to the index (sideways information
    // passing): per-probe card = 10000/ndv(DNO) = 200, cost ≪ full scan.
    let mut c = cols(&[(E, 2)]);
    c.insert(tid_col(E));
    let probe = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::Index {
                    index: starqo_catalog::IndexId(0),
                    q: E,
                },
                cols: c,
                preds: PredSet::single(P_JOIN),
            },
            vec![],
        )
        .unwrap();
    let full = emp_index_access(&f);
    assert!((probe.props.card - 200.0).abs() < 1e-6);
    assert!(probe.props.cost.rescan < full.props.cost.rescan / 5.0);
}

#[test]
fn get_fetches_columns_and_preserves_order() {
    let f = Fixture::new();
    let ix = emp_index_access(&f);
    let get = f
        .build(
            Lolepop::Get {
                q: E,
                cols: cols(&[(E, 0), (E, 1)]),
                preds: PredSet::EMPTY,
            },
            vec![ix.clone()],
        )
        .unwrap();
    assert_eq!(get.props.order, ix.props.order);
    // TID dropped, NAME/ADDRESS/DNO present.
    assert!(!get.props.cols.contains(&tid_col(E)));
    assert_eq!(get.props.cols.len(), 3);
    assert!(get.props.cost.rescan > ix.props.cost.rescan);
}

#[test]
fn get_requires_tid_stream() {
    let f = Fixture::new();
    let d = dept_access(&f);
    let err = f
        .build(
            Lolepop::Get {
                q: D,
                cols: cols(&[(D, 0)]),
                preds: PredSet::EMPTY,
            },
            vec![d],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::Scope { .. }));
}

#[test]
fn sort_sets_order_and_pays_once() {
    let f = Fixture::new();
    let d = dept_access(&f);
    let key = vec![QCol::new(D, ColId(0))];
    let s = f
        .build(
            Lolepop::Sort {
                key: key.clone().into(),
            },
            vec![d.clone()],
        )
        .unwrap();
    assert_eq!(*s.props.order, *key);
    assert!(s.props.cost.once > d.props.cost.total());
    assert!(s.props.order_satisfies(&key));
    // Sorting on a column the stream doesn't carry is illegal.
    let err = f
        .build(
            Lolepop::Sort {
                key: vec![QCol::new(D, ColId(2))].into(),
            },
            vec![d],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::Scope { .. }));
}

#[test]
fn ship_changes_site_and_charges_messages() {
    let f = Fixture::new();
    let d = dept_access(&f);
    let shipped = f
        .build(Lolepop::Ship { to: SiteId(1) }, vec![d.clone()])
        .unwrap();
    assert_eq!(shipped.props.site, SiteId(1));
    assert!(shipped.props.cost.rescan > d.props.cost.rescan);
    assert!(shipped.props.paths.is_empty());
    // Shipping to the current site is free.
    let noop = f
        .build(Lolepop::Ship { to: SiteId(0) }, vec![d.clone()])
        .unwrap();
    assert_eq!(noop.props.cost.total(), d.props.cost.total());
}

#[test]
fn store_materializes_and_temp_access_rereads() {
    let f = Fixture::new();
    let d = dept_access(&f);
    let st = f.build(Lolepop::Store, vec![d.clone()]).unwrap();
    assert!(st.props.temp);
    assert!(st.props.cost.once > d.props.cost.total());
    assert!(st.props.cost.rescan < d.props.cost.rescan);
    let re = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::TempHeap,
                cols: cols(&[(D, 0)]),
                preds: PredSet::EMPTY,
            },
            vec![st.clone()],
        )
        .unwrap();
    assert_eq!(re.props.card, st.props.card);
    // Accessing a non-temp as temp is illegal.
    let err = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::TempHeap,
                cols: cols(&[(D, 0)]),
                preds: PredSet::EMPTY,
            },
            vec![d],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::Invalid(_)));
}

#[test]
fn build_index_adds_dynamic_path() {
    let f = Fixture::new();
    // Use the big table so probe < scan is actually true (a one-page temp
    // is cheaper to scan than to probe, and the cost model knows it).
    let e = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(E),
                cols: cols(&[(E, 0), (E, 1), (E, 2)]),
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap();
    let st = f.build(Lolepop::Store, vec![e]).unwrap();
    let key = vec![QCol::new(E, ColId(2))];
    let bi = f
        .build(Lolepop::BuildIndex { key: key.clone() }, vec![st.clone()])
        .unwrap();
    assert_eq!(bi.props.paths.len(), 1);
    assert!(bi.props.path_with_prefix(&key).is_some());
    assert!(bi.props.cost.once > st.props.cost.once);
    // Probing it is cheap per scan and applies the pushed join predicate.
    let probe = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::TempIndex { key: key.clone() },
                cols: cols(&[(E, 0), (E, 2)]),
                preds: PredSet::single(P_JOIN),
            },
            vec![bi.clone()],
        )
        .unwrap();
    assert!(probe.props.cost.rescan < st.props.cost.rescan);
    assert!(probe.props.card < st.props.card);
    // BUILD_INDEX on a pipe (non-temp) is illegal.
    let d2 = dept_access(&f);
    assert!(f
        .build(
            Lolepop::BuildIndex {
                key: vec![QCol::new(D, ColId(0))]
            },
            vec![d2]
        )
        .is_err());
}

#[test]
fn filter_reduces_cardinality_idempotently() {
    let f = Fixture::new();
    let d = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(D),
                cols: cols(&[(D, 0), (D, 1)]),
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap();
    let fl = f
        .build(
            Lolepop::Filter {
                preds: PredSet::single(P_MGR),
            },
            vec![d.clone()],
        )
        .unwrap();
    assert!(fl.props.card < d.props.card);
    // Re-filtering with an already-applied predicate doesn't shrink again.
    let fl2 = f
        .build(
            Lolepop::Filter {
                preds: PredSet::single(P_MGR),
            },
            vec![fl.clone()],
        )
        .unwrap();
    assert!((fl2.props.card - fl.props.card).abs() < 1e-9);
}

fn figure1_plan(f: &Fixture) -> PlanRef {
    // SORT(ACCESS(DEPT,...), DNO)
    let d = dept_access(f);
    let sorted = f
        .build(
            Lolepop::Sort {
                key: vec![QCol::new(D, ColId(0))].into(),
            },
            vec![d],
        )
        .unwrap();
    // GET(ACCESS(Index on EMP.DNO, {TID, DNO}, φ), EMP, {NAME, ADDRESS}, φ)
    let ix = emp_index_access(f);
    let get = f
        .build(
            Lolepop::Get {
                q: E,
                cols: cols(&[(E, 0), (E, 1)]),
                preds: PredSet::EMPTY,
            },
            vec![ix],
        )
        .unwrap();
    // JOIN(sort-merge, D.DNO = E.DNO, D-stream, E-stream)
    f.build(
        Lolepop::Join {
            flavor: JoinFlavor::MG,
            join_preds: PredSet::single(P_JOIN),
            residual: PredSet::EMPTY,
        },
        vec![sorted, get],
    )
    .unwrap()
}

#[test]
fn figure1_merge_join_builds_and_costs() {
    let f = Fixture::new();
    let j = figure1_plan(&f);
    // Output: selected depts × emps per dept: 50/40 * 10000/50 = 250.
    assert!((j.props.card - 250.0).abs() < 1e-6);
    assert_eq!(j.props.tables, f.query.all_qset());
    assert_eq!(j.props.preds.len(), 2);
    let ex = Explain::new(&f.cat, &f.query);
    let func = ex.functional(&j);
    assert!(func.contains("JOIN(MG)"), "{func}");
    assert!(func.contains("SORT(ACCESS(heap)(DEPT"), "{func}");
    assert!(func.contains("GET(ACCESS(index)(Index EMP_DNO"), "{func}");
    let tree = ex.tree(&j);
    assert!(tree.contains("JOIN(MG)") && tree.contains("SORT"), "{tree}");
    let trace = ex.property_trace(&j);
    assert!(trace.contains("ORDER"), "{trace}");
}

#[test]
fn merge_join_requires_order() {
    let f = Fixture::new();
    let d = dept_access(&f); // unsorted
    let ix = emp_index_access(&f);
    let get = f
        .build(
            Lolepop::Get {
                q: E,
                cols: cols(&[(E, 0), (E, 1)]),
                preds: PredSet::EMPTY,
            },
            vec![ix],
        )
        .unwrap();
    let err = f
        .build(
            Lolepop::Join {
                flavor: JoinFlavor::MG,
                join_preds: PredSet::single(P_JOIN),
                residual: PredSet::EMPTY,
            },
            vec![d, get],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::OrderViolation { .. }));
}

#[test]
fn merge_join_rejects_unsortable_preds() {
    let f = Fixture::new();
    let d = dept_access(&f);
    let sorted = f
        .build(
            Lolepop::Sort {
                key: vec![QCol::new(D, ColId(0))].into(),
            },
            vec![d],
        )
        .unwrap();
    let e = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(E),
                cols: cols(&[(E, 0), (E, 1), (E, 2)]),
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap();
    // P_MGR is single-table — not a sortable join pred.
    let err = f
        .build(
            Lolepop::Join {
                flavor: JoinFlavor::MG,
                join_preds: PredSet::single(P_MGR),
                residual: PredSet::EMPTY,
            },
            vec![sorted, e],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::Invalid(_)));
}

#[test]
fn nl_join_pays_inner_rescan_per_outer_tuple() {
    let f = Fixture::new();
    let d = dept_access(&f);
    let e_scan = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(E),
                cols: cols(&[(E, 0), (E, 1), (E, 2)]),
                preds: PredSet::single(P_JOIN),
            },
            vec![],
        )
        .unwrap();
    let nl = f
        .build(
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                join_preds: PredSet::single(P_JOIN),
                residual: PredSet::EMPTY,
            },
            vec![d.clone(), e_scan.clone()],
        )
        .unwrap();
    // Cost grows with outer card × inner rescan.
    let expected_min = d.props.cost.rescan + d.props.card * e_scan.props.cost.rescan;
    assert!(nl.props.cost.total() >= expected_min * 0.99);
    // Join pred already applied in inner: no double-counted selectivity.
    assert!((nl.props.card - d.props.card * e_scan.props.card).abs() < 1e-6);
}

#[test]
fn hash_join_builds_once_and_validates_preds() {
    let f = Fixture::new();
    let d = dept_access(&f);
    let e = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(E),
                cols: cols(&[(E, 0), (E, 1), (E, 2)]),
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap();
    let ha = f
        .build(
            Lolepop::Join {
                flavor: JoinFlavor::HA,
                join_preds: PredSet::single(P_JOIN),
                residual: PredSet::single(P_JOIN), // collisions re-checked
            },
            vec![d, e.clone()],
        )
        .unwrap();
    assert!(ha.props.cost.once > 0.0);
    assert!(ha.props.order.is_empty()); // hash destroys order
                                        // Non-hashable pred rejected.
    let d2 = dept_access(&f);
    let err = f
        .build(
            Lolepop::Join {
                flavor: JoinFlavor::HA,
                join_preds: PredSet::single(P_MGR),
                residual: PredSet::EMPTY,
            },
            vec![d2, e],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::Invalid(_)));
}

#[test]
fn join_site_mismatch_rejected() {
    let f = Fixture::new();
    let d = dept_access(&f);
    let d_la = f
        .build(Lolepop::Ship { to: SiteId(1) }, vec![dept_access(&f)])
        .unwrap();
    let e = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(E),
                cols: cols(&[(E, 2)]),
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap();
    let err = f
        .build(
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                join_preds: PredSet::EMPTY,
                residual: PredSet::single(P_JOIN),
            },
            vec![d_la, e.clone()],
        )
        .unwrap_err();
    assert!(matches!(err, PlanError::SiteMismatch { .. }));
    // Joining overlapping quantifier sets is illegal too.
    let err2 = f
        .build(
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                join_preds: PredSet::EMPTY,
                residual: PredSet::EMPTY,
            },
            vec![d.clone(), d],
        )
        .unwrap_err();
    assert!(matches!(err2, PlanError::Invalid(_)));
}

#[test]
fn union_requires_compatibility() {
    let f = Fixture::new();
    let a = dept_access(&f);
    let b = dept_access(&f);
    let u = f.build(Lolepop::Union, vec![a.clone(), b]).unwrap();
    assert!((u.props.card - 2.0 * a.props.card).abs() < 1e-9);
    let e = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(E),
                cols: cols(&[(E, 2)]),
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap();
    assert!(f.build(Lolepop::Union, vec![a, e]).is_err());
}

#[test]
fn extension_op_registry() {
    let mut f = Fixture::new();
    let name: Arc<str> = Arc::from("OUTERJOIN");
    let op = Lolepop::Ext {
        name: name.clone(),
        args: vec![],
        arity: 2,
    };
    let d = dept_access(&f);
    let e = f
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(E),
                cols: cols(&[(E, 2)]),
                preds: PredSet::EMPTY,
            },
            vec![],
        )
        .unwrap();
    // Unregistered: error.
    let err = f.build(op.clone(), vec![d.clone(), e.clone()]).unwrap_err();
    assert!(matches!(err, PlanError::UnknownExtOp(_)));
    // Register a property function: outer join keeps at least outer card.
    f.engine.register_ext(
        "OUTERJOIN",
        Arc::new(|_op, inputs, _ctx| {
            let (o, i) = (inputs[0], inputs[1]);
            let mut out = o.clone();
            out.tables = o.tables.union(i.tables);
            out.cols.extend(i.cols.iter().copied());
            out.card = (o.card * i.card * 0.01).max(o.card);
            out.cost =
                starqo_plan::Cost::new(o.cost.once + i.cost.once, o.cost.rescan + i.cost.rescan);
            Ok(out)
        }),
    );
    assert!(f.engine.has_ext("OUTERJOIN"));
    let oj = f.build(op, vec![d.clone(), e]).unwrap();
    assert!(oj.props.card >= d.props.card);
}

#[test]
fn arity_errors() {
    let f = Fixture::new();
    let d = dept_access(&f);
    assert!(matches!(
        f.build(Lolepop::Store, vec![]).unwrap_err(),
        PlanError::Arity { .. }
    ));
    assert!(matches!(
        f.build(Lolepop::Union, vec![d]).unwrap_err(),
        PlanError::Arity { .. }
    ));
}

#[test]
fn property_vector_rendering_lists_all_fields() {
    let f = Fixture::new();
    let j = figure1_plan(&f);
    let ex = Explain::new(&f.cat, &f.query);
    let pv = ex.property_vector(&j);
    for field in [
        "TABLES", "COLS", "PREDS", "ORDER", "SITE", "TEMP", "PATHS", "CARD", "COST",
    ] {
        assert!(pv.contains(field), "missing {field} in:\n{pv}");
    }
}

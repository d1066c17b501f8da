//! The enumeration contract (§2.3): `JoinRoot` is referenced for joinable
//! pairs only, so under the default parameters exactly the connected
//! subsets of the join graph hold plans, and a Cartesian product appears
//! only at a level of a disconnected graph where nothing else is joinable.
//! Deterministic, no wall time.

use std::sync::Arc;

use starqo_catalog::{Catalog, DataType, StorageKind, Value};
use starqo_core::engine::Engine;
use starqo_core::enumerate::enumerate;
use starqo_core::natives::Natives;
use starqo_core::{OptConfig, Optimizer};
use starqo_exec::{reference_eval, rows_equal_multiset, Executor};
use starqo_plan::{CostModel, Lolepop, PlanRef, PropEngine};
use starqo_query::{parse_query, QSet, Query};
use starqo_storage::{Database, DatabaseBuilder};

/// Rows per table: small enough that every stream these tests join counts
/// as "small" for `OptConfig::cartesian`.
const ROWS: i64 = 6;

/// `n` tables `T0..` of `(ID, FK)`, `ROWS` rows each.
fn catalog(n: usize) -> Arc<Catalog> {
    catalog_with_large(n, None)
}

/// [`catalog`], with table `large` recorded as far too big to be "small"
/// (the statistics only; [`database`] stores `ROWS` rows regardless).
fn catalog_with_large(n: usize, large: Option<usize>) -> Arc<Catalog> {
    let mut b = Catalog::builder().site("x");
    for i in 0..n {
        let card = if large == Some(i) {
            1_000_000
        } else {
            ROWS as u64
        };
        b = b
            .table(format!("T{i}"), "x", StorageKind::Heap, card)
            .column("ID", DataType::Int, Some(ROWS as u64))
            .column("FK", DataType::Int, Some(ROWS as u64 / 2));
    }
    Arc::new(b.build().unwrap())
}

fn database(cat: &Arc<Catalog>, n: usize) -> Database {
    let mut b = DatabaseBuilder::new(cat.clone());
    for t in 0..n as i64 {
        for r in 0..ROWS {
            let row = vec![Value::Int(r), Value::Int((r + t) % (ROWS / 2))];
            b.insert(&format!("T{t}"), row).unwrap();
        }
    }
    b.build().unwrap()
}

/// `SELECT` over `T0..Tn-1` with one `Ta.FK = Tb.ID` conjunct per edge.
fn join_query(cat: &Catalog, n: usize, edges: &[(usize, usize)]) -> Query {
    let from: Vec<String> = (0..n).map(|i| format!("T{i}")).collect();
    let mut sql = format!("SELECT T0.ID, T{}.FK FROM {}", n - 1, from.join(", "));
    for (k, (a, b)) in edges.iter().enumerate() {
        sql += if k == 0 { " WHERE " } else { " AND " };
        sql += &format!("T{a}.FK = T{b}.ID");
    }
    parse_query(cat, &sql).unwrap()
}

fn graph(shape: &str, n: usize) -> Vec<(usize, usize)> {
    match shape {
        "chain" => (0..n - 1).map(|i| (i, i + 1)).collect(),
        "star" => (1..n).map(|i| (0, i)).collect(),
        "tree" => (1..n).map(|i| ((i - 1) / 2, i)).collect(),
        "cycle" => (0..n).map(|i| (i, (i + 1) % n)).collect(),
        "clique" => (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect(),
        _ => unreachable!("unknown shape {shape}"),
    }
}

/// Brute force, from the edge list alone: can every member of `mask` be
/// reached from its lowest one without leaving `mask`?
fn connected(mask: u64, edges: &[(usize, usize)]) -> bool {
    let mut reached = mask & mask.wrapping_neg();
    loop {
        let mut next = reached;
        for &(a, b) in edges {
            let (a, b) = (1u64 << a, 1u64 << b);
            if mask & a != 0 && mask & b != 0 && reached & (a | b) != 0 {
                next |= a | b;
            }
        }
        if next == reached {
            return reached == mask;
        }
        reached = next;
    }
}

/// Does this node join two streams no predicate relates?
fn predicate_less_join(op: &Lolepop) -> bool {
    matches!(op, Lolepop::Join { join_preds, residual, .. }
        if join_preds.union(*residual).is_empty())
}

fn count_predicate_less_joins(plan: &PlanRef) -> usize {
    let mut n = 0;
    plan.visit(&mut |node| n += predicate_less_join(&node.op) as usize);
    n
}

#[test]
fn plans_exist_for_exactly_the_connected_subsets() {
    let config = OptConfig::default();
    let (natives, prop, model) = (Natives::builtin(), PropEngine::new(), CostModel::default());
    for shape in ["chain", "star", "tree", "cycle", "clique"] {
        for n in 3..=8usize {
            let cat = catalog(n);
            let edges = graph(shape, n);
            let query = join_query(&cat, n, &edges);
            let opt = Optimizer::new(cat.clone()).unwrap();
            let mut engine =
                Engine::new(opt.rules(), &natives, &prop, &cat, &query, &model, &config);
            enumerate(&mut engine).unwrap();
            for mask in 1u64..1 << n {
                let s = QSet(mask);
                assert_eq!(
                    engine.table.has_tables(s),
                    connected(mask, &edges),
                    "{shape}{n}: subset {s}"
                );
                for key in engine.table.keys_for_tables(s) {
                    let kept = engine.table.get(key).to_vec();
                    for plan in engine.store.materialize(kept, &engine.rules.labels).0 {
                        assert_eq!(
                            count_predicate_less_joins(&plan),
                            0,
                            "{shape}{n}: a retained plan for {s} holds a Cartesian product"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn disconnected_graphs_take_products_only_at_a_stuck_level() {
    // Each component a chain; the components share no predicate.
    for sizes in [vec![3, 2], vec![1, 1, 3], vec![2, 2, 3]] {
        let n: usize = sizes.iter().sum();
        let mut edges = Vec::new();
        let mut first = 0;
        for &size in &sizes {
            edges.extend((first..first + size - 1).map(|i| (i, i + 1)));
            first += size;
        }
        let cat = catalog(n);
        let db = database(&cat, n);
        let query = join_query(&cat, n, &edges);
        let want = reference_eval(&db, &query).unwrap();
        assert!(!want.is_empty(), "{sizes:?}: the product must return rows");
        let opt = Optimizer::new(cat.clone()).unwrap();
        for composite_inners in [false, true] {
            let config = OptConfig {
                composite_inners,
                ..OptConfig::default()
            };
            let out = opt.optimize(&query, &config).unwrap();
            let case = format!("{sizes:?} composite_inners={composite_inners}");
            assert_eq!(out.best.props.tables, query.all_qset(), "{case}");
            assert_eq!(
                count_predicate_less_joins(&out.best),
                sizes.len() - 1,
                "{case}: one product per extra component, no more"
            );
            let got = Executor::new(&db, &query).run(&out.best).unwrap();
            assert!(rows_equal_multiset(&got.rows, &want), "{case}");

            // Every stream here is small (`ROWS`), so `cartesian: true`
            // admits every pair the fallback would and more: a superset of
            // the default's space. Not an invariant once a stream is large —
            // see `one_admitted_product_suppresses_the_fallback_for_its_level`.
            let eager = OptConfig {
                cartesian: true,
                ..config
            };
            let eager = opt.optimize(&query, &eager).unwrap();
            assert!(
                eager.best.props.cost.total() <= out.best.props.cost.total() + 1e-9,
                "{case}: cartesian=true {} > default {}",
                eager.best.props.cost.total(),
                out.best.props.cost.total()
            );
            assert!(eager.stats.plans_built >= out.stats.plans_built, "{case}");
        }
    }
}

#[test]
fn one_admitted_product_suppresses_the_fallback_for_its_level() {
    // Components {T0,T1} and {T2,T3}; T2 is recorded as large. Level 3 has
    // no predicate-linked pair, so the default falls back there and plans
    // all four triples as products. `cartesian: true` admits T0 x T3 and
    // T1 x T3 at level 2, which makes three triples joinable at level 3 —
    // so that level never falls back and {T0,T1,T2}, whose only partition
    // is (small) x (large), is not planned: the eager space is not a
    // superset of the default's once a stream is large.
    let (n, edges) = (4, [(0, 1), (2, 3)]);
    let cat = catalog_with_large(n, Some(2));
    let db = database(&cat, n);
    let query = join_query(&cat, n, &edges);
    let want = reference_eval(&db, &query).unwrap();
    let (natives, prop, model) = (Natives::builtin(), PropEngine::new(), CostModel::default());
    let opt = Optimizer::new(cat.clone()).unwrap();
    let planned = |cartesian: bool| -> Vec<u64> {
        let config = OptConfig {
            cartesian,
            ..OptConfig::default()
        };
        let mut engine = Engine::new(opt.rules(), &natives, &prop, &cat, &query, &model, &config);
        let best = enumerate(&mut engine).unwrap().best;
        assert_eq!(
            count_predicate_less_joins(&best),
            1,
            "cartesian={cartesian}"
        );
        let got = Executor::new(&db, &query).run(&best).unwrap();
        assert!(
            rows_equal_multiset(&got.rows, &want),
            "cartesian={cartesian}"
        );
        let masks = 1u64..1 << n;
        masks
            .filter(|&m| engine.table.has_tables(QSet(m)))
            .collect()
    };
    let (pairs, triples) = ([0b0011, 0b1100], [0b0111, 0b1011, 0b1101, 0b1110]);
    let level = |masks: &[u64], k: u32| -> Vec<u64> {
        let of_size = masks.iter().filter(|m| m.count_ones() == k);
        of_size.copied().collect()
    };
    let default = planned(false);
    assert_eq!(level(&default, 2), pairs);
    assert_eq!(level(&default, 3), triples);
    let eager = planned(true);
    assert_eq!(level(&eager, 2), [0b0011, 0b1001, 0b1010, 0b1100]);
    assert_eq!(level(&eager, 3), triples[1..]);
}

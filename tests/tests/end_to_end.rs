//! Cross-crate integration: SQL text through parsing, rule-driven
//! optimization, and execution, for a range of query shapes, configurations,
//! and physical designs.

use std::sync::Arc;

use starqo_catalog::{Catalog, DataType, Value};
use starqo_core::{OptConfig, Optimizer};
use starqo_integration::diff::{check, Case, Table};
use starqo_query::parse_query;

/// `sql` over a compact retail-ish schema exercising heap & B-tree storage,
/// single- and multi-column indexes, and three sites.
fn retail(sql: &str) -> Case {
    let int = |v: i64| Value::Int(v);
    let cust = (0..300).map(|c| vec![int(c), int(c % 3), Value::str(format!("c{c}"))]);
    let ord = (0..1_200).map(|o| vec![int(o), int(o % 300), int(o % 40)]);
    let items = (0..40).map(|i| vec![int(i), int(i % 20)]);
    Case::new(
        sql,
        vec![
            Table::new("CUST", 300)
                .btree(&["CID"])
                .col("CID", DataType::Int, Some(300))
                .col("TIER", DataType::Int, Some(3))
                .col("NAME", DataType::Str, None)
                .rows(cust.collect()),
            Table::new("ORD", 1_200)
                .site(1)
                .col("OID", DataType::Int, Some(1_200))
                .col("CID", DataType::Int, Some(300))
                .col("ITEM", DataType::Int, Some(40))
                .index(&["CID"])
                .index(&["CID", "ITEM"])
                .rows(ord.collect()),
            Table::new("ITEMS", 40)
                .site(2)
                .col("IID", DataType::Int, Some(40))
                .col("PRICE", DataType::Int, Some(20))
                .rows(items.collect()),
        ],
    )
}

fn catalog() -> Arc<Catalog> {
    retail("").catalog()
}

/// `diff::check` of `sql` over the retail data; the size of the answer.
fn answered(sql: &str) -> usize {
    check(&retail(sql)).rows.len()
}

#[test]
fn single_table_with_btree_range() {
    let n = answered("SELECT C.NAME FROM CUST C WHERE C.CID < 10");
    assert_eq!(n, 10);
}

#[test]
fn two_way_distributed_join() {
    let n = answered("SELECT C.NAME, O.OID FROM CUST C, ORD O WHERE C.CID = O.CID AND C.TIER = 0");
    assert_eq!(n, 400);
}

#[test]
fn three_way_join_all_configs() {
    let sql = "SELECT C.NAME, I.PRICE FROM CUST C, ORD O, ITEMS I \
               WHERE C.CID = O.CID AND O.ITEM = I.IID AND C.TIER = 1 AND I.PRICE = 3";
    // `check` runs every alternative of the default and the full
    // repertoire against one reference answer.
    assert!(answered(sql) > 0);
}

#[test]
fn order_by_is_satisfied_by_final_glue() {
    let case = retail("SELECT C.CID, C.NAME FROM CUST C WHERE C.TIER = 2 ORDER BY C.CID");
    let cat = case.catalog();
    let query = parse_query(&cat, &case.sql).unwrap();
    let opt = Optimizer::new(cat).unwrap();
    let out = opt.optimize(&query, &OptConfig::default()).unwrap();
    assert!(out.best.props.order_satisfies(&query.order_by));
    // Rows actually come out ordered: `check` asserts it of every plan that
    // claims the order.
    assert_eq!(check(&case).rows.len(), 100);
}

#[test]
fn multi_column_index_is_exploited() {
    // Both CID and ITEM are bound: the two-column index prefix applies both.
    let case = retail("SELECT O.OID FROM ORD O WHERE O.CID = 5 AND O.ITEM = 5");
    let cat = case.catalog();
    let query = parse_query(&cat, &case.sql).unwrap();
    let opt = Optimizer::new(cat).unwrap();
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let out = opt.optimize(&query, &config).unwrap();
    // Some alternative uses ORD_CID_ITEM (index id 1).
    let uses_two_col = out.root_alternatives.iter().any(|p| {
        p.any(&|n| {
            matches!(
                &n.op,
                starqo_plan::Lolepop::Access {
                    spec: starqo_plan::AccessSpec::Index { index, .. },
                    ..
                } if index.0 == 1
            )
        })
    });
    assert!(uses_two_col, "two-column index never used");
    check(&case);
}

#[test]
fn expression_and_inequality_predicates() {
    let n = answered("SELECT O.OID FROM ORD O, ITEMS I WHERE O.ITEM + 0 = I.IID AND I.PRICE > 17");
    assert!(n > 0);
}

#[test]
fn or_predicates_survive_optimization() {
    let n = answered("SELECT C.NAME FROM CUST C WHERE (C.TIER = 0 OR C.TIER = 2)");
    assert_eq!(n, 200);
}

#[test]
fn select_star_round_trip() {
    let n = answered("SELECT * FROM ITEMS I WHERE I.PRICE = 0");
    assert_eq!(n, 2);
}

#[test]
fn empty_result_queries() {
    let n = answered("SELECT C.NAME FROM CUST C WHERE C.CID = 99999");
    assert_eq!(n, 0);
    let n =
        answered("SELECT C.NAME, O.OID FROM CUST C, ORD O WHERE C.CID = O.CID AND C.CID = 99999");
    assert_eq!(n, 0);
}

#[test]
fn self_join_via_aliases() {
    // Two quantifiers over the same table; indexes must bind per-quantifier.
    let n = answered(
        "SELECT A.OID, B.OID FROM ORD A, ORD B WHERE A.CID = B.CID AND A.OID = 7 AND B.ITEM = 7",
    );
    // Order 7 has CID 7; orders with CID ≡ 7 (mod 300): 10 of them; of
    // those, ITEM == 7 means OID % 40 == 7 — OID ∈ {7, 607, 1207, 1807,
    // 2407} have both CID=7 and ITEM=7? Let the reference decide; just
    // require the check passed and some rows exist.
    assert!(n > 0);
}

#[test]
fn distributed_result_lands_at_query_site() {
    let cat = catalog();
    let query = parse_query(
        &cat,
        "SELECT C.NAME, I.PRICE FROM CUST C, ORD O, ITEMS I \
         WHERE C.CID = O.CID AND O.ITEM = I.IID",
    )
    .unwrap();
    let opt = Optimizer::new(cat).unwrap();
    let out = opt.optimize(&query, &OptConfig::default()).unwrap();
    assert_eq!(out.best.props.site, query.query_site);
    assert!(out
        .best
        .any(&|n| matches!(n.op, starqo_plan::Lolepop::Ship { .. })));
}

#[test]
fn ablations_change_work_not_answers() {
    use starqo_workload::{query_shape, synth_catalog, QueryShape, SynthSpec};
    let spec = SynthSpec {
        tables: 5,
        card_range: (500, 5_000),
        ..Default::default()
    };
    let cat = synth_catalog(13, &spec);
    let query = query_shape(&cat, QueryShape::Chain, 5, false);
    let opt = Optimizer::new(cat).unwrap();
    let base_cfg = OptConfig::default()
        .enable("hashjoin")
        .enable("force_projection");
    let base = opt.optimize(&query, &base_cfg).unwrap();
    let mut no_memo = base_cfg.clone();
    no_memo.ablate_memo = true;
    let abl_memo = opt.optimize(&query, &no_memo).unwrap();
    // Memoization saved real expansion work...
    assert!(base.stats.memo_hits > 0);
    assert!(abl_memo.stats.conds_evaluated > base.stats.conds_evaluated);
    assert!(abl_memo.stats.plans_built > base.stats.plans_built);
    // ...without changing the outcome.
    assert_eq!(abl_memo.best.fingerprint(), base.best.fingerprint());

    let mut no_prune = base_cfg.clone();
    no_prune.ablate_pruning = true;
    let abl_prune = opt.optimize(&query, &no_prune).unwrap();
    assert!(abl_prune.table_plans > base.table_plans);
    assert!((abl_prune.best.props.cost.total() - base.best.props.cost.total()).abs() < 1e-6);
}

//! The differential checker (`starqo_integration::diff`) over its seeded
//! generator, the checker's own tests, and the cases it found, pinned as
//! shrunk.
//!
//! Tier-1 checks `diff::SEEDS`, one slice each in
//! `random_plans.rs::all_alternatives_match_reference`,
//! `vexec.rs::vexec_matches_serial_on_random_fleet` and
//! `vexec.rs::vexec_matches_serial_on_degraded_plans`; the deep range runs
//! with `cargo test --release -p starqo-integration --test diff -- --ignored`.

use std::ops::Range;

use starqo_catalog::{ColId, DataType, Value};
use starqo_exec::reference_eval;
use starqo_exec::scalar::{eval_preds, Bindings, RowView};
use starqo_integration::diff::{check, check_seed, generate, shrink, Case, Table};
use starqo_integration::diff::{MAX_PRODUCT, SEEDS};
use starqo_query::{parse_query, CmpOp, PredExpr, QCol, Query, Scalar};
use starqo_storage::{Database, Tuple};
use starqo_vexec::MORSEL_ROWS;
use Value::{Double as D, Int as I};

/// The seeds of the deep run.
const DEEP: Range<u64> = 0..10_000;

#[test]
#[ignore = "deep seed range: run in release"]
fn deep_seed_range() {
    DEEP.for_each(|seed| drop(check_seed(seed)));
}

const HAZARDS: [&str; 10] = [
    "NULL join key",
    "Str column",
    "Double column",
    "empty table",
    "single-row table",
    "many-to-many key",
    "late table",
    "2+ sites",
    "Str ORDER BY",
    "table over one morsel",
];

/// Which [`HAZARDS`] a generated case holds, read off its data and query.
fn hazards(case: &Case, query: &Query) -> [bool; 10] {
    let table = |id: u32| case.tables.iter().find(move |t| t.name == format!("T{id}"));
    let named: Vec<&Table> = query
        .quantifiers
        .iter()
        .filter_map(|q| table(q.table.0))
        .collect();
    let column = |c: QCol| {
        let t = table(query.quantifier(c.q).table.0).expect("a table");
        t.rows.iter().map(move |r| &r[c.col.0 as usize])
    };
    let mut joins = query
        .predicates
        .iter()
        .filter(|p| p.quantifiers().len() > 1);
    let null_key = joins.any(|p| p.cols().into_iter().any(|c| column(c).any(Value::is_null)));
    // The non-NULL values a column holds more than once.
    let repeated = |c: QCol| {
        let mut vals: Vec<&Value> = column(c).filter(|v| !v.is_null()).collect();
        vals.sort();
        let twice = vals.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]);
        twice.collect::<Vec<_>>()
    };
    let many = query.predicates.iter().any(|p| match &p.expr {
        PredExpr::Cmp(CmpOp::Eq, Scalar::Col(a), Scalar::Col(b)) if a.q != b.q => {
            let b = repeated(*b);
            repeated(*a).iter().any(|v| b.contains(v))
        }
        _ => false,
    });
    let typed = |ty| named.iter().any(|t| t.cols.iter().any(|c| c.1 == ty));
    let rows = |n| named.iter().any(|t| t.rows.len() == n);
    let str_order = |c: &QCol| column(*c).any(|v| matches!(v, Value::Str(_)));
    let sites = || named.iter().map(|t| t.site);
    [
        null_key,
        typed(DataType::Str),
        typed(DataType::Double),
        rows(0),
        rows(1),
        many,
        named.iter().any(|t| t.late),
        sites().min() != sites().max(),
        query.order_by.iter().any(str_order),
        named.iter().any(|t| t.rows.len() > MORSEL_ROWS),
    ]
}

/// Over the tier-1 seeds, the generator produces each hazard it promises.
#[test]
fn generator_covers_every_hazard() {
    let mut seen = [0usize; HAZARDS.len()];
    for seed in SEEDS {
        let case = generate(seed);
        let query = parse_query(&case.catalog(), &case.sql).expect("a generated query parses");
        for (n, holds) in seen.iter_mut().zip(hazards(&case, &query)) {
            *n += holds as usize;
        }
    }
    for (n, name) in seen.iter().zip(HAZARDS) {
        assert!(*n > 0, "no seed of {SEEDS:?} generates a {name}");
    }
}

/// The size class is twelve of the tier-1 seeds, and at most three of them
/// return no rows, each whatever rows it is given: 16 joins an empty
/// partner, 32's WHERE contradicts itself and 86's partner has no row its
/// OR-group passes. The rest are redrawn until they answer, so a fault past
/// the grown table's first morsel reaches the answer.
#[test]
fn grown_seeds_return_rows() {
    let (mut grown, mut empty) = (0, vec![]);
    for seed in SEEDS {
        let case = generate(seed);
        if case.tables.iter().all(|t| t.rows.len() <= MORSEL_ROWS) {
            continue;
        }
        grown += 1;
        let cat = case.catalog();
        let query = parse_query(&cat, &case.sql).expect("a generated query parses");
        let db = &case.databases(&cat)[0];
        if reference_eval(db, &query)
            .expect("reference answer")
            .is_empty()
        {
            empty.push(seed);
        }
    }
    assert_eq!(grown, 12);
    assert!(empty.len() <= 3, "grown seeds {empty:?} return no rows");
}

/// `reference_eval` before it tested conjuncts early: every row of the
/// Cartesian product, in nested-loop order, filtered by every conjunct.
fn full_product(db: &Database, query: &Query) -> Vec<Tuple> {
    let mut schema = Vec::new();
    let mut rows = vec![Tuple(Vec::new())];
    for qt in &query.quantifiers {
        let ncols = db.catalog().table(qt.table).columns.len() as u32;
        schema.extend((0..ncols).map(|c| QCol::new(qt.id, ColId(c))));
        let table = db.table(qt.table).expect("a table");
        let extend = |p: Tuple| {
            table
                .scan()
                .map(move |(_, r)| Tuple([&p.0[..], &r.0].concat()))
        };
        rows = rows.into_iter().flat_map(extend).collect();
    }
    let bindings = Bindings::new();
    let pass = |row: &Tuple| {
        let view = RowView {
            schema: &schema,
            row,
            bindings: &bindings,
        };
        eval_preds(query, query.all_preds(), &view).expect("every column bound")
    };
    let at = |c: &QCol| schema.iter().position(|s| s == c).expect("selected");
    let project = |r: Tuple| Tuple(query.select.iter().map(|c| r.get(at(c)).clone()).collect());
    rows.into_iter().filter(pass).map(project).collect()
}

/// On every tier-1 seed whose product the full evaluator can afford, the
/// reference returns exactly its rows, in its order.
#[test]
fn reference_prunes_to_the_full_products_rows_in_order() {
    let mut compared = 0;
    for seed in SEEDS {
        let case = generate(seed);
        let product: usize = case.tables.iter().map(|t| t.rows.len().max(1)).product();
        if product > MAX_PRODUCT {
            continue;
        }
        let cat = case.catalog();
        let query = parse_query(&cat, &case.sql).expect("a generated query parses");
        for db in case.databases(&cat) {
            let got = reference_eval(&db, &query).expect("reference answer");
            assert!(
                got == full_product(&db, &query),
                "seed {seed}: {}",
                case.sql
            );
        }
        compared += 1;
    }
    assert!(
        compared * 4 > SEEDS.count() * 3,
        "{compared} seeds compared"
    );
}

/// A planted failure that needs one row of one table and one conjunct
/// shrinks to exactly that row and that conjunct, and nothing else.
#[test]
fn shrink_keeps_the_one_failing_row_and_predicate() {
    let wide = |c: &Case| c.tables.len() > 1 && c.tables[1].rows.len() > 8;
    let case = SEEDS
        .map(generate)
        .find(|c| wide(c) && c.sql.contains(" AND "));
    let case = case.expect("a seed with two tables and two conjuncts");
    let row = case.tables[1].rows[5].clone();
    let conds = case.sql.split(" WHERE ").nth(1).expect("a WHERE clause");
    let pred = conds.split(" AND ").next().expect("a conjunct").to_string();
    let fails = |c: &Case| {
        let t1 = c.tables.iter().find(|t| t.name == "T1");
        t1.is_some_and(|t| t.rows.contains(&row)) && c.sql.contains(&pred)
    };
    assert!(fails(&case));
    let min = shrink(case, fails);
    for t in &min.tables {
        let rows = if t.name == "T1" {
            vec![row.clone()]
        } else {
            vec![]
        };
        assert_eq!(t.rows, rows, "{}", t.name);
        assert!(!t.late && t.indexes.is_empty() && t.key.is_empty() && t.site == 0);
    }
    assert_eq!(min.sql.split(" WHERE ").nth(1), Some(pred.as_str()));
}

// ---- divergences the checker found, pinned as shrunk ----------------------

/// `name` with `cols` given as `NAME:type` words, no column statistics.
fn table(name: &str, card: u64, cols: &str) -> Table {
    let types = [DataType::Int, DataType::Double, DataType::Str];
    cols.split_whitespace()
        .fold(Table::new(name, card), |t, col| {
            let (col, ty) = col.split_once(':').expect("NAME:type");
            let ty = types.into_iter().find(|t| t.to_string() == ty);
            t.col(col, ty.expect("a type"), None)
        })
}

/// A SHIP whose input is empty still sends its one message in vexec, as in
/// the oracle (vexec skipped the chain and charged nothing).
#[test]
fn an_empty_ship_sends_its_one_message() {
    let t = |name| table(name, 7, "K:int V:int");
    let tables = vec![t("T0"), t("T1").site(1), t("T2")];
    check(&Case::new(
        "SELECT T2.V, T2.K, T1.K FROM T0, T1, T2",
        tables,
    ));
}

/// A row inserted into a built B-tree-stored table takes its place in key
/// order: the plans that read the table as ordered (a merge join on its
/// key) answered nothing when it was appended.
#[test]
fn a_late_row_keeps_a_btree_table_in_key_order() {
    let t0 = table("T0", 8, "K:double V:int D:double S:str")
        .btree(&["K"])
        .late();
    let t0 = t0.rows(vec![
        vec![D(11.5), I(5), D(1.75), Value::str("ab")],
        vec![D(1.0), I(6), D(9.75), Value::str("a")],
    ]);
    let t1 = table("T1", 9, "K:double V:int D:double").rows(vec![vec![D(1.0), I(17), D(1.75)]]);
    check(&Case::new(
        "SELECT T0.D, T0.S FROM T0, T1 WHERE T1.K = T0.K",
        vec![t0, t1],
    ));
}

/// `T1 ⋈ GET(SORT(index probe T2.K = 1))` by nested loops: the inner is
/// uncorrelated, so vexec runs it once and charges what the oracle's
/// re-evaluations add per further outer row — the GET's fetches, but not
/// the probe under the SORT, which the oracle's temp cache answers after
/// the first time. (Shrunk with `T2` empty; its rows make the fetches.)
#[test]
fn an_uncorrelated_inner_charges_a_sorted_probe_once() {
    let t0 = table("T0", 137, "K:int V:int D:double S:str");
    let rows = vec![vec![I(0), I(6), D(1.25)], vec![I(3), I(4), D(0.0)]];
    let t1 = table("T1", 23, "K:int V:int D:double").rows(rows);
    let rows = [1, 1, 2].map(|k| vec![I(k), I(k + 4), Value::str("s")]);
    let t2 = table("T2", 146, "K:int V:int S:str")
        .index(&["K"])
        .rows(rows.to_vec());
    let sql = "SELECT T2.V, T2.K, T0.S FROM T0, T1, T2 WHERE T1.K = T0.K AND T2.K = 1";
    check(&Case::new(sql, vec![t0, t1, t2]));
}

/// An uncorrelated nested-loop inner that is a STORE'd join holding a SHIP:
/// the oracle materializes the temp once, so its message is charged once,
/// however many outer rows there are.
#[test]
fn an_uncorrelated_inner_charges_a_stored_ship_once() {
    let t = |name| table(name, 20, "K:int V:int S:str");
    let rows = vec![
        vec![I(0), I(8), Value::str("")],
        vec![I(2), I(6), Value::str("b")],
    ];
    let tables = vec![t("T0"), t("T1").site(1), t("T2").rows(rows)];
    check(&Case::new("SELECT T1.V, T2.V FROM T0, T1, T2", tables));
}

//! Edge cases the generators don't produce: NULL values in data, empty
//! tables, all-rows-match predicates, duplicate join keys. Each is a
//! `diff::Case` checked by `diff::check`.

use starqo_catalog::{DataType, Value};
use starqo_integration::diff::{check, Case, Table};

/// `L(K, V)` and `R(K, W)` with an index on `R.K`, the catalog saying 20
/// rows each whatever the data holds.
fn tables(l: Vec<Vec<Value>>, r: Vec<Vec<Value>>) -> Vec<Table> {
    vec![
        Table::new("L", 20)
            .col("K", DataType::Int, Some(10))
            .col("V", DataType::Str, None)
            .rows(l),
        Table::new("R", 20)
            .col("K", DataType::Int, Some(10))
            .col("W", DataType::Int, Some(5))
            .index(&["K"])
            .rows(r),
    ]
}

/// Check `sql` over the rows; the size of the reference answer.
fn answered(sql: &str, tables: Vec<Table>) -> usize {
    check(&Case::new(sql, tables)).rows.len()
}

const JOIN: &str = "SELECT L.V, R.W FROM L, R WHERE L.K = R.K";

#[test]
fn null_join_keys_never_match() {
    let (mut l, mut r) = (Vec::new(), Vec::new());
    for k in 0..10i64 {
        let key = if k % 3 == 0 {
            Value::Null
        } else {
            Value::Int(k)
        };
        l.push(vec![key.clone(), Value::str(format!("l{k}"))]);
        r.push(vec![key, Value::Int(k % 5)]);
    }
    // NULL = NULL is false: NULL-keyed rows join with nothing, in every
    // join method (NL filter, MG merge, HA hash, index probes) — `R` also
    // filled after `build`, where its index is rebuilt row by row.
    let mut t = tables(l, r);
    t[1].late = true;
    // Keys 1, 2, 4, 5, 7, 8 on both sides, unique → 6 matches.
    assert_eq!(answered(JOIN, t), 6);
}

#[test]
fn null_local_predicates_filter_out() {
    let l = vec![
        vec![Value::Null, Value::str("null-key")],
        vec![Value::Int(1), Value::str("one")],
    ];
    let r = vec![vec![Value::Int(1), Value::Int(0)]];
    // Comparisons against NULL are false for every operator.
    for sql in [
        "SELECT L.V FROM L WHERE L.K = 1",
        "SELECT L.V FROM L WHERE L.K < 5",
        "SELECT L.V FROM L WHERE L.K <> 99",
    ] {
        assert_eq!(answered(sql, tables(l.clone(), r.clone())), 1, "{sql}");
    }
}

#[test]
fn empty_tables_yield_empty_results_everywhere() {
    for sql in ["SELECT L.V FROM L", JOIN] {
        assert_eq!(answered(sql, tables(vec![], vec![])), 0, "{sql}");
    }
}

#[test]
fn one_sided_empty_join() {
    let l = (0..5i64)
        .map(|k| vec![Value::Int(k), Value::str(format!("l{k}"))])
        .collect();
    assert_eq!(answered(JOIN, tables(l, vec![])), 0);
}

#[test]
fn duplicate_join_keys_produce_cross_groups() {
    // Three L rows and two R rows all with key 7: 3 × 2 = 6 matches — the
    // merge join's group-cartesian logic must produce all of them.
    let mut l: Vec<_> = (0..3i64)
        .map(|i| vec![Value::Int(7), Value::str(format!("l{i}"))])
        .collect();
    let mut r: Vec<_> = (0..2i64)
        .map(|i| vec![Value::Int(7), Value::Int(i)])
        .collect();
    l.push(vec![Value::Int(1), Value::str("lone")]);
    r.push(vec![Value::Int(2), Value::Int(9)]);
    assert_eq!(answered(JOIN, tables(l, r)), 6);
}

#[test]
fn catalog_stats_may_disagree_with_data() {
    // The catalog says 20 rows; the database holds 200. Estimates are wrong
    // but plans must still be correct.
    let l = (0..200i64)
        .map(|k| vec![Value::Int(k % 10), Value::str(format!("l{k}"))])
        .collect();
    let r = (0..200i64)
        .map(|k| vec![Value::Int(k % 10), Value::Int(k % 5)])
        .collect();
    assert_eq!(answered(JOIN, tables(l, r)), 200 * 20); // each L row matches 20 R rows
}

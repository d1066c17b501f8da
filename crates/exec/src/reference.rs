//! A deliberately naive reference evaluator.
//!
//! Computes the query's answer by brute force — Cartesian product of all
//! base tables, filter by every predicate, project — with no optimizer
//! involvement at all. Every plan the optimizer emits must agree with this
//! (experiment E13's oracle).

use starqo_query::{QCol, Query};
use starqo_storage::{Database, Tuple};

use crate::scalar::{eval_preds, Bindings, RowView};
use crate::Result;

/// Evaluate the query by brute force, returning rows projected on the
/// query's select list (or all columns of all quantifiers for `SELECT *`).
pub fn reference_eval(db: &Database, query: &Query) -> Result<Vec<Tuple>> {
    // Full concatenated schema: all columns of all quantifiers, in
    // (quantifier, column) order.
    let mut schema: Vec<QCol> = Vec::new();
    for qt in &query.quantifiers {
        let t = db.catalog().table(qt.table);
        for c in 0..t.columns.len() as u32 {
            schema.push(QCol::new(qt.id, starqo_catalog::ColId(c)));
        }
    }
    let select: Vec<QCol> = if query.select.is_empty() {
        schema.clone()
    } else {
        query.select.clone()
    };

    let mut out = Vec::new();
    let mut current: Vec<starqo_catalog::Value> = Vec::new();
    cartesian(db, query, 0, &schema, &select, &mut current, &mut out)?;
    Ok(out)
}

fn cartesian(
    db: &Database,
    query: &Query,
    qi: usize,
    schema: &[QCol],
    select: &[QCol],
    current: &mut Vec<starqo_catalog::Value>,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    if qi == query.quantifiers.len() {
        let row = Tuple(current.clone());
        let bindings = Bindings::new();
        let view = RowView {
            schema,
            row: &row,
            bindings: &bindings,
        };
        if eval_preds(query, query.all_preds(), &view)? {
            let projected = select
                .iter()
                .map(|c| {
                    let pos = schema
                        .iter()
                        .position(|s| s == c)
                        .expect("select col in schema");
                    row.get(pos).clone()
                })
                .collect();
            out.push(Tuple(projected));
        }
        return Ok(());
    }
    let qt = &query.quantifiers[qi];
    let stored = db.table(qt.table)?;
    let ncols = db.catalog().table(qt.table).columns.len();
    for (_, r) in stored.scan() {
        for c in 0..ncols {
            current.push(r.get(c).clone());
        }
        cartesian(db, query, qi + 1, schema, select, current, out)?;
        current.truncate(current.len() - ncols);
    }
    Ok(())
}

//! A deliberately naive reference evaluator.
//!
//! Computes the query's answer by brute force — nested loops over all base
//! tables in FROM order, each WHERE conjunct tested as soon as the tables
//! it names are bound, project — with no optimizer involvement at all.
//! Testing a conjunct early only skips products it would reject, so the
//! answer is the full Cartesian product's, row for row and in its order.
//! Every plan the optimizer emits must agree with this (experiment E13's
//! oracle).

use starqo_query::{PredSet, QCol, Query};
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
    let at = |c: &QCol| schema.iter().position(|s| s == c);
    let select: Vec<Option<usize>> = match query.select.is_empty() {
        true => (0..schema.len()).map(Some).collect(),
        false => query.select.iter().map(at).collect(),
    };
    // `levels[i]`: the conjuncts tested once quantifiers `..i` are bound. A
    // conjunct naming a column outside the schema, and every later one, waits
    // for the whole row, so its failing lookup fails on the same row.
    let n = query.quantifiers.len();
    let mut levels = vec![PredSet::EMPTY; n + 1];
    let mut late = false;
    let level = |c: QCol| at(&c).and(query.quantifiers.iter().position(|qt| qt.id == c.q));
    let bound = |m: usize, c| Some(m.max(level(c)? + 1));
    for p in query.all_preds().iter() {
        let first = query.pred(p).cols().into_iter().try_fold(0, bound);
        late |= first.is_none();
        let i = first.filter(|_| !late).unwrap_or(n);
        levels[i] = levels[i].insert(p);
    }
    let walk = Walk {
        db,
        query,
        schema: &schema,
        select: &select,
        levels: &levels,
    };
    let mut out = Vec::new();
    walk.nest(0, &mut Vec::new(), &mut out)?;
    Ok(out)
}

struct Walk<'a> {
    db: &'a Database,
    query: &'a Query,
    schema: &'a [QCol],
    select: &'a [Option<usize>],
    levels: &'a [PredSet],
}

impl Walk<'_> {
    /// With quantifiers `..qi` bound to `current`: test their conjuncts, then
    /// bind quantifier `qi` to each of its rows in turn (or emit the row).
    fn nest(
        &self,
        qi: usize,
        current: &mut Vec<starqo_catalog::Value>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let row = Tuple(std::mem::take(current));
        let view = RowView {
            schema: &self.schema[..row.0.len()],
            row: &row,
            bindings: &Bindings::new(),
        };
        let pass = eval_preds(self.query, self.levels[qi], &view);
        *current = row.0;
        if !pass? {
            return Ok(());
        }
        if qi == self.query.quantifiers.len() {
            let at = |i: &Option<usize>| i.expect("select col in schema");
            let row = self.select.iter().map(|i| current[at(i)].clone());
            out.push(Tuple(row.collect()));
            return Ok(());
        }
        let qt = &self.query.quantifiers[qi];
        let stored = self.db.table(qt.table)?;
        let ncols = self.db.catalog().table(qt.table).columns.len();
        for (_, r) in stored.scan() {
            current.extend((0..ncols).map(|c| r.get(c).clone()));
            self.nest(qi + 1, current, out)?;
            current.truncate(current.len() - ncols);
        }
        Ok(())
    }
}

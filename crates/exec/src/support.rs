//! Run-time helpers shared between the serial interpreter ([`crate::eval`])
//! and the vectorized batch executor (`starqo-vexec`).
//!
//! vexec's correctness contract is "bit-match the serial oracle", so any
//! semantics both runtimes need — index-prefix and key-range binding, SHIP
//! byte accounting, panic rendering — live here exactly once.

use std::ops::Bound;

use starqo_catalog::Value;
use starqo_query::{Classifier, CmpOp, PredExpr, PredSet, QCol, Query, Scalar};
use starqo_storage::Tuple;

use crate::error::Result;
use crate::scalar::{eval_scalar, Bindings, RowView};

/// Per key column of an index, the expressions that could bind it: the
/// non-key side of every `key_col = expr` predicate, in predicate order.
/// The list ends at the first key column no predicate is sargable on.
pub fn prefix_candidates<'q>(
    query: &'q Query,
    key: &[QCol],
    preds: PredSet,
) -> Vec<Vec<&'q Scalar>> {
    let cl = Classifier::new(query);
    let mut cols = Vec::new();
    for kc in key {
        let cands: Vec<&Scalar> = preds
            .iter()
            .filter(|p| cl.sargable_on(*p, *kc) == Some(CmpOp::Eq))
            .filter_map(|p| match &query.pred(p).expr {
                PredExpr::Cmp(_, l, r) => Some(if l.as_col() == Some(*kc) { r } else { l }),
                PredExpr::Or(_) => None,
            })
            .collect();
        if cands.is_empty() {
            break;
        }
        cols.push(cands);
    }
    cols
}

/// The range predicates a key-range read applies on `kc`, the key column
/// after the equality prefix (`Classifier::index_matching`'s rule: the
/// column that ends the prefix may be bounded): every `kc <op> expr`
/// predicate with `<op>` one of `< <= > >=`, oriented key-first, in
/// predicate order.
pub fn range_candidates(query: &Query, kc: QCol, preds: PredSet) -> Vec<(CmpOp, &Scalar)> {
    let cl = Classifier::new(query);
    preds
        .iter()
        .filter_map(|p| match (cl.sargable_on(p, kc)?, &query.pred(p).expr) {
            (op @ (CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge), PredExpr::Cmp(_, l, r)) => {
                Some((op, if l.as_col() == Some(kc) { r } else { l }))
            }
            _ => None,
        })
        .collect()
}

/// The interval a key-range read keeps of the key column after its equality
/// prefix. Any superset of the qualifying rows will do — every predicate
/// still runs on every row read — so the first lower and the first upper
/// bound met are kept and a NULL bounds nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyBounds {
    pub lower: Bound<Value>,
    pub upper: Bound<Value>,
}

impl KeyBounds {
    pub const OPEN: KeyBounds = KeyBounds {
        lower: Bound::Unbounded,
        upper: Bound::Unbounded,
    };

    /// Narrow by `key <op> v`.
    pub fn apply(&mut self, op: CmpOp, v: Value) {
        if v.is_null() {
            return;
        }
        let (side, bound) = match op {
            CmpOp::Gt => (&mut self.lower, Bound::Excluded(v)),
            CmpOp::Ge => (&mut self.lower, Bound::Included(v)),
            CmpOp::Lt => (&mut self.upper, Bound::Excluded(v)),
            CmpOp::Le => (&mut self.upper, Bound::Included(v)),
            CmpOp::Eq | CmpOp::Ne => return,
        };
        if matches!(side, Bound::Unbounded) {
            *side = bound;
        }
    }
}

fn no_row(bindings: &Bindings) -> RowView<'_> {
    const EMPTY_ROW: &Tuple = &Tuple(Vec::new());
    RowView {
        schema: &[],
        row: EMPTY_ROW,
        bindings,
    }
}

/// For each key column in order, the first candidate that evaluates, from
/// constants and outer bindings alone, to a non-NULL value; ends at the
/// first column nothing binds.
fn eval_prefix(cands: Vec<Vec<&Scalar>>, bindings: &Bindings) -> Vec<Value> {
    let view = no_row(bindings);
    let bind = |col: Vec<&Scalar>| {
        col.into_iter()
            .find_map(|s| eval_scalar(s, &view).ok().filter(|v| !v.is_null()))
    };
    cands.into_iter().map_while(bind).collect()
}

/// Find the longest bound equality prefix of an index key: for each key
/// column in order, the first [`prefix_candidates`] expression that
/// evaluates, from constants and outer bindings alone, to a non-NULL value.
pub fn bound_prefix(
    query: &Query,
    key: &[QCol],
    preds: PredSet,
    bindings: &Bindings,
) -> Result<Vec<Value>> {
    Ok(eval_prefix(prefix_candidates(query, key, preds), bindings))
}

/// What a key-range read of a table stored in `key` order is narrowed by:
/// the [`bound_prefix`] and — only when every equality column of the key
/// got bound — the [`KeyBounds`] of the [`range_candidates`] that evaluate.
pub fn bound_key_range(
    query: &Query,
    key: &[QCol],
    preds: PredSet,
    bindings: &Bindings,
) -> (Vec<Value>, KeyBounds) {
    let cands = prefix_candidates(query, key, preds);
    let eq_cols = cands.len();
    let prefix = eval_prefix(cands, bindings);
    let mut bounds = KeyBounds::OPEN;
    if let Some(kc) = key.get(eq_cols).filter(|_| prefix.len() == eq_cols) {
        let view = no_row(bindings);
        for (op, s) in range_candidates(query, *kc, preds) {
            if let Ok(v) = eval_scalar(s, &view) {
                bounds.apply(op, v);
            }
        }
    }
    (prefix, bounds)
}

/// Best-effort rendering of a caught panic payload.
pub fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Approximate wire size of a value, for SHIP accounting.
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Double(_) => 8,
        Value::Str(s) => s.len() as u64,
    }
}

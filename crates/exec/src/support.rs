//! Run-time helpers shared between the serial interpreter ([`crate::eval`])
//! and the vectorized batch executor (`starqo-vexec`).
//!
//! vexec's correctness contract is "bit-match the serial oracle", so any
//! semantics both runtimes need — index-prefix binding, SHIP byte
//! accounting, panic rendering — live here exactly once.

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

/// Find the longest bound equality prefix of an index key: for each key
/// column in order, the first [`prefix_candidates`] expression that
/// evaluates, from constants and outer bindings alone, to a non-NULL value.
pub fn bound_prefix(
    query: &Query,
    key: &[QCol],
    preds: PredSet,
    bindings: &Bindings,
) -> Result<Vec<Value>> {
    let empty_row = Tuple(Vec::new());
    let view = RowView {
        schema: &[],
        row: &empty_row,
        bindings,
    };
    let mut values = Vec::new();
    for cands in prefix_candidates(query, key, preds) {
        let bound = cands
            .into_iter()
            .find_map(|s| eval_scalar(s, &view).ok().filter(|v| !v.is_null()));
        match bound {
            Some(v) => values.push(v),
            None => break,
        }
    }
    Ok(values)
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

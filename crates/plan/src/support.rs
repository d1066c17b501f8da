//! Run-time helpers every executor of a plan shares: which subtrees may be
//! cached, how an index key is bound by predicates, SHIP byte accounting,
//! fault hooks and panic rendering — each defined once, so the serving
//! engine and the serial oracle cannot drift apart on them.

use std::ops::Bound;
use std::sync::Arc;

use starqo_catalog::Value;
use starqo_query::{Classifier, CmpOp, PredExpr, PredSet, QCol, Query, Scalar};

use crate::lolepop::Lolepop;
use crate::node::PlanNode;

/// A fault-injection hook, consulted with a site label (the operator's
/// display name in the oracle, `morsel(<op>)` / `exchange(<op>)` in vexec;
/// robustness testing, see `starqo-core`'s `faults` module). Returning
/// `Some(msg)` surfaces [`crate::ExecError::Injected`]; the hook may also
/// panic (contained by the executor) or stall before returning `None`.
pub type FaultHook = Arc<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// True if the subtree references quantifiers outside its own table set
/// (i.e. depends on enclosing nested-loop bindings and must not be cached).
pub fn is_correlated(node: &PlanNode, query: &Query) -> bool {
    let root_tables = node.props.tables;
    node.any(&|n| {
        let preds = match &n.op {
            Lolepop::Access { preds, .. } => *preds,
            Lolepop::Get { preds, .. } => *preds,
            Lolepop::Filter { preds } => *preds,
            Lolepop::Join {
                join_preds,
                residual,
                ..
            } => join_preds.union(*residual),
            _ => PredSet::EMPTY,
        };
        preds
            .iter()
            .any(|p| !query.pred(p).quantifiers().is_subset_of(root_tables))
    })
}

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

/// Approximate wire size of a value, for SHIP accounting.
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Double(_) => 8,
        Value::Str(s) => s.len() as u64,
    }
}

/// Render a caught panic payload (the `Box<dyn Any>` from `catch_unwind`)
/// as a message string.
pub fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

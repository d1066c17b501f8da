//! Run-time evaluation of scalar and predicate expressions.
//!
//! A `RowView` resolves quantified columns first against the current row's
//! schema, then against the enclosing nested-loop bindings — the run-time
//! realization of "sideways information passing" (§4.4).

use std::collections::BTreeMap;

use starqo_catalog::Value;
use starqo_plan::position;
use starqo_query::{PredExpr, PredSet, QCol, Query, Scalar};
use starqo_storage::Tuple;

use crate::{ExecError, Result};

/// Columns bound by enclosing nested-loop outers.
pub type Bindings = BTreeMap<QCol, Value>;

/// One tuple with its schema and the enclosing bindings.
pub struct RowView<'a> {
    pub schema: &'a [QCol],
    pub row: &'a Tuple,
    pub bindings: &'a Bindings,
}

impl<'a> RowView<'a> {
    pub fn lookup(&self, c: QCol) -> Result<&Value> {
        if let Some(i) = position(self.schema, c) {
            return Ok(self.row.get(i));
        }
        self.bindings
            .get(&c)
            .ok_or_else(|| ExecError::UnboundColumn(c.to_string()))
    }
}

/// Evaluate a scalar expression. Arithmetic on NULL or non-numeric values
/// yields NULL (which then fails every comparison).
pub fn eval_scalar(s: &Scalar, row: &RowView<'_>) -> Result<Value> {
    match s {
        Scalar::Col(c) => Ok(row.lookup(*c)?.clone()),
        Scalar::Const(v) => Ok(v.clone()),
        Scalar::Arith(op, l, r) => {
            let lv = eval_scalar(l, row)?;
            let rv = eval_scalar(r, row)?;
            // Preserve integerness when possible (division always widens).
            match (&lv, &rv, op) {
                (Value::Int(a), Value::Int(b), starqo_query::ArithOp::Add) => {
                    Ok(Value::Int(a.wrapping_add(*b)))
                }
                (Value::Int(a), Value::Int(b), starqo_query::ArithOp::Sub) => {
                    Ok(Value::Int(a.wrapping_sub(*b)))
                }
                (Value::Int(a), Value::Int(b), starqo_query::ArithOp::Mul) => {
                    Ok(Value::Int(a.wrapping_mul(*b)))
                }
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => Ok(Value::Double(op.apply(a, b))),
                    _ => Ok(Value::Null),
                },
            }
        }
    }
}

/// Evaluate a predicate expression. NULL comparisons are false (SQL's
/// UNKNOWN collapses to false at this level).
pub fn eval_pred_expr(e: &PredExpr, row: &RowView<'_>) -> Result<bool> {
    match e {
        PredExpr::Cmp(op, l, r) => {
            let lv = eval_scalar(l, row)?;
            let rv = eval_scalar(r, row)?;
            if lv.is_null() || rv.is_null() {
                return Ok(false);
            }
            Ok(op.eval(lv.cmp(&rv)))
        }
        PredExpr::Or(arms) => {
            for a in arms {
                if eval_pred_expr(a, row)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

/// Evaluate an entire predicate set (conjunction) against a row.
pub fn eval_preds(query: &Query, preds: PredSet, row: &RowView<'_>) -> Result<bool> {
    for p in preds.iter() {
        if !eval_pred_expr(&query.pred(p).expr, row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluate a comparison with SQL-style equality semantics, used for join
/// key matching in merge/hash joins.
pub fn values_join_equal(a: &Value, b: &Value) -> bool {
    !a.is_null() && !b.is_null() && a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::ColId;
    use starqo_query::{ArithOp, CmpOp, QId};

    fn schema() -> Vec<QCol> {
        vec![QCol::new(QId(0), ColId(0)), QCol::new(QId(0), ColId(1))]
    }

    #[test]
    fn lookup_row_then_bindings() {
        let s = schema();
        let row = Tuple(vec![Value::Int(1), Value::Int(2)]);
        let mut b = Bindings::new();
        b.insert(QCol::new(QId(1), ColId(0)), Value::Int(99));
        let view = RowView {
            schema: &s,
            row: &row,
            bindings: &b,
        };
        assert_eq!(
            *view.lookup(QCol::new(QId(0), ColId(1))).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            *view.lookup(QCol::new(QId(1), ColId(0))).unwrap(),
            Value::Int(99)
        );
        assert!(view.lookup(QCol::new(QId(2), ColId(0))).is_err());
    }

    #[test]
    fn arithmetic_stays_integer_until_division() {
        let s = schema();
        let row = Tuple(vec![Value::Int(7), Value::Int(2)]);
        let b = Bindings::new();
        let view = RowView {
            schema: &s,
            row: &row,
            bindings: &b,
        };
        let add = Scalar::Arith(
            ArithOp::Add,
            Box::new(Scalar::col(QId(0), ColId(0))),
            Box::new(Scalar::col(QId(0), ColId(1))),
        );
        assert_eq!(eval_scalar(&add, &view).unwrap(), Value::Int(9));
        let div = Scalar::Arith(
            ArithOp::Div,
            Box::new(Scalar::col(QId(0), ColId(0))),
            Box::new(Scalar::col(QId(0), ColId(1))),
        );
        assert_eq!(eval_scalar(&div, &view).unwrap(), Value::Double(3.5));
    }

    #[test]
    fn null_poisons_arithmetic_and_fails_comparisons() {
        let s = schema();
        let row = Tuple(vec![Value::Null, Value::Int(2)]);
        let b = Bindings::new();
        let view = RowView {
            schema: &s,
            row: &row,
            bindings: &b,
        };
        let add = Scalar::Arith(
            ArithOp::Add,
            Box::new(Scalar::col(QId(0), ColId(0))),
            Box::new(Scalar::col(QId(0), ColId(1))),
        );
        assert_eq!(eval_scalar(&add, &view).unwrap(), Value::Null);
        let cmp = PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(QId(0), ColId(0)),
            Scalar::col(QId(0), ColId(0)),
        );
        assert!(!eval_pred_expr(&cmp, &view).unwrap()); // NULL = NULL is false
    }

    #[test]
    fn or_evaluation_short_circuits() {
        let s = schema();
        let row = Tuple(vec![Value::Int(1), Value::Int(2)]);
        let b = Bindings::new();
        let view = RowView {
            schema: &s,
            row: &row,
            bindings: &b,
        };
        let or = PredExpr::Or(vec![
            PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(QId(0), ColId(0)),
                Scalar::Const(Value::Int(1)),
            ),
            // Would error if evaluated strictly: unbound column.
            PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(QId(5), ColId(0)),
                Scalar::Const(Value::Int(1)),
            ),
        ]);
        assert!(eval_pred_expr(&or, &view).unwrap());
    }

    #[test]
    fn join_equality_rejects_nulls() {
        assert!(values_join_equal(&Value::Int(1), &Value::Int(1)));
        assert!(!values_join_equal(&Value::Null, &Value::Null));
        assert!(!values_join_equal(&Value::Int(1), &Value::Int(2)));
    }
}

//! Pre-compiled scalar and predicate programs.
//!
//! The serial interpreter resolves every column reference per row via
//! `RowView` (binary search over the schema, then a bindings map). vexec
//! compiles each expression ONCE against the stream schema it will run on:
//! column references become slot indices, references to the columns of an
//! enclosing nested-loop outer become [`CExpr::Outer`] slots into the
//! executor's binding vector (sideways information passing without a map),
//! and unresolvable references become [`CExpr::Unbound`] nodes that error
//! only if actually evaluated — which preserves the serial engine's OR-arm
//! short-circuit semantics (an unbound arm after a true arm is never
//! touched).
//!
//! Evaluation semantics are copied from `starqo_exec::scalar` verbatim:
//! wrapping integer add/sub/mul, division (and any non-int pair) widening to
//! doubles, NULL poisoning arithmetic, and NULL failing every comparison.

use std::cell::Cell;

use starqo_catalog::Value;
use starqo_plan::result::{ExecError, Result};
use starqo_query::{ArithOp, CmpOp, PredExpr, PredSet, QCol, Query, Scalar};

use crate::batch::{Batch, Column, Val};

/// Access to one logical row during vectorized evaluation. Implementations
/// hand out views — no per-row tuple is materialized for candidates that
/// end up filtered out, and an integer never becomes a `Value` on the way
/// to a comparison.
pub(crate) trait VRow<'a> {
    fn slot(&self, slot: usize) -> Val<'a>;
}

/// A row inside a columnar batch.
pub(crate) struct BatchRow<'a> {
    pub cols: &'a [Column],
    pub row: usize,
}

impl<'a> VRow<'a> for BatchRow<'a> {
    #[inline]
    fn slot(&self, slot: usize) -> Val<'a> {
        self.cols[slot].get(self.row)
    }
}

/// Rows addressed by position — a base table by TID, a batch by row number —
/// that may hold a slot of all of them as one integer slice. Predicates and
/// the gather read a slot through that slice when there is one, and through
/// a row view when there is not.
pub(crate) trait RowSource<'a>: Copy {
    type Row: VRow<'a>;

    fn row_at(self, pos: usize) -> Self::Row;

    /// `slot` of every row, indexed by position: a typed batch column, or a
    /// base table's mirrored column.
    fn ints(self, slot: usize) -> Option<&'a [i64]>;
}

impl<'a> RowSource<'a> for &'a Batch {
    type Row = BatchRow<'a>;

    #[inline]
    fn row_at(self, pos: usize) -> BatchRow<'a> {
        self.row(pos)
    }

    #[inline]
    fn ints(self, slot: usize) -> Option<&'a [i64]> {
        match self.cols.get(slot)? {
            Column::Int(ints) => Some(ints),
            Column::Any(_) => None,
        }
    }
}

/// The columns bound by the enclosing correlated nested-loop joins while a
/// subtree is compiled, innermost join last — the compile-time mirror of the
/// executor's binding vector. A reference resolves to the *latest* binding
/// of its column (the serial engine's map insert overwrites) and marks the
/// slot used, so the join re-binds only what its inner actually reads.
#[derive(Default)]
pub(crate) struct Scope {
    cols: Vec<QCol>,
    used: Vec<Cell<bool>>,
}

impl Scope {
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    pub fn push(&mut self, cols: &[QCol]) {
        self.cols.extend_from_slice(cols);
        self.used.resize(self.cols.len(), Cell::new(false));
    }

    pub fn truncate(&mut self, len: usize) {
        self.cols.truncate(len);
        self.used.truncate(len);
    }

    pub fn is_used(&self, slot: usize) -> bool {
        self.used[slot].get()
    }

    fn resolve(&self, c: QCol) -> Option<usize> {
        let slot = self.cols.iter().rposition(|x| *x == c)?;
        self.used[slot].set(true);
        Some(slot)
    }
}

/// A scalar expression compiled against a fixed stream schema and scope.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    /// Resolved column: slot index in the stream schema.
    Col(usize),
    /// Column of an enclosing nested-loop outer: slot in the binding vector.
    Outer(usize),
    /// Column absent from schema and scope; errors if (and only if) evaluated.
    Unbound(QCol),
    Const(Value),
    Arith(ArithOp, Box<CExpr>, Box<CExpr>),
}

impl CExpr {
    pub fn compile(s: &Scalar, schema: &[QCol], scope: &Scope) -> CExpr {
        match s {
            Scalar::Col(c) => match schema.binary_search(c) {
                Ok(i) => CExpr::Col(i),
                Err(_) => scope.resolve(*c).map_or(CExpr::Unbound(*c), CExpr::Outer),
            },
            Scalar::Const(v) => CExpr::Const(v.clone()),
            Scalar::Arith(op, l, r) => CExpr::Arith(
                *op,
                Box::new(CExpr::compile(l, schema, scope)),
                Box::new(CExpr::compile(r, schema, scope)),
            ),
        }
    }

    /// True when evaluation can never raise `UnboundColumn`.
    pub fn is_bound(&self) -> bool {
        match self {
            CExpr::Unbound(_) => false,
            CExpr::Arith(_, l, r) => l.is_bound() && r.is_bound(),
            _ => true,
        }
    }

    /// Re-address row slots (`Col(i)` becomes `Col(map[i])`): lets a program
    /// compiled against an operator's output schema read its *source*
    /// layout directly, with no per-access slot translation.
    fn remap(&mut self, map: &[usize]) {
        match self {
            CExpr::Col(i) => *i = map[*i],
            CExpr::Arith(_, l, r) => {
                l.remap(map);
                r.remap(map);
            }
            _ => {}
        }
    }

    /// Evaluate to an owned value (join keys, index-probe prefixes).
    pub fn eval_owned<'a, R: VRow<'a>>(&self, row: &R, outer: &[Value]) -> Result<Value> {
        match self {
            CExpr::Col(i) => Ok(row.slot(*i).to_value()),
            CExpr::Outer(i) => Ok(outer[*i].clone()),
            CExpr::Unbound(c) => Err(ExecError::UnboundColumn(c.to_string())),
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Arith(op, l, r) => {
                let lv = l.eval_owned(row, outer)?;
                let rv = r.eval_owned(row, outer)?;
                match (&lv, &rv, op) {
                    (Value::Int(a), Value::Int(b), ArithOp::Add) => {
                        Ok(Value::Int(a.wrapping_add(*b)))
                    }
                    (Value::Int(a), Value::Int(b), ArithOp::Sub) => {
                        Ok(Value::Int(a.wrapping_sub(*b)))
                    }
                    (Value::Int(a), Value::Int(b), ArithOp::Mul) => {
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

    /// Evaluate to a view: a bare column, binding or constant is seen in
    /// place, a computed value is parked in `tmp` and seen there.
    #[inline]
    pub fn eval_view<'t, 'a: 't, R: VRow<'a>>(
        &'t self,
        row: &R,
        outer: &'t [Value],
        tmp: &'t mut Value,
    ) -> Result<Val<'t>> {
        match self {
            CExpr::Col(i) => Ok(row.slot(*i)),
            CExpr::Outer(i) => Ok(Val::of(&outer[*i])),
            CExpr::Const(v) => Ok(Val::of(v)),
            CExpr::Unbound(c) => Err(ExecError::UnboundColumn(c.to_string())),
            CExpr::Arith(..) => {
                *tmp = self.eval_owned(row, outer)?;
                Ok(Val::of(tmp))
            }
        }
    }
}

/// A predicate expression compiled against a fixed stream schema.
#[derive(Debug, Clone)]
pub(crate) enum CPred {
    Cmp(CmpOp, CExpr, CExpr),
    /// Bare column vs non-NULL constant — the dominant scan-predicate
    /// shape, compiled to a direct slot compare (no per-side dispatch).
    /// Constant-on-the-left compiles here too, with the operator flipped.
    ColConst(CmpOp, usize, Value),
    /// Bare column vs bare column — the join-predicate shape, evaluated on
    /// every merge, hash and nested-loop candidate: two slot views and a
    /// compare.
    ColCol(CmpOp, usize, usize),
    Or(Vec<CPred>),
}

impl CPred {
    pub fn compile(e: &PredExpr, schema: &[QCol], scope: &Scope) -> CPred {
        match e {
            PredExpr::Cmp(op, l, r) => {
                let cl = CExpr::compile(l, schema, scope);
                let cr = CExpr::compile(r, schema, scope);
                match (cl, cr) {
                    (CExpr::Col(i), CExpr::Const(v)) if !v.is_null() => CPred::ColConst(*op, i, v),
                    (CExpr::Const(v), CExpr::Col(i)) if !v.is_null() => {
                        CPred::ColConst(op.flipped(), i, v)
                    }
                    (CExpr::Col(i), CExpr::Col(j)) => CPred::ColCol(*op, i, j),
                    (cl, cr) => CPred::Cmp(*op, cl, cr),
                }
            }
            PredExpr::Or(arms) => CPred::Or(
                arms.iter()
                    .map(|a| CPred::compile(a, schema, scope))
                    .collect(),
            ),
        }
    }

    /// True when evaluation can never raise `UnboundColumn`.
    fn is_bound(&self) -> bool {
        match self {
            CPred::Cmp(_, l, r) => l.is_bound() && r.is_bound(),
            CPred::ColConst(..) | CPred::ColCol(..) => true,
            CPred::Or(arms) => arms.iter().all(CPred::is_bound),
        }
    }

    fn remap(&mut self, map: &[usize]) {
        match self {
            CPred::Cmp(_, l, r) => {
                l.remap(map);
                r.remap(map);
            }
            CPred::ColConst(_, i, _) => *i = map[*i],
            CPred::ColCol(_, i, j) => (*i, *j) = (map[*i], map[*j]),
            CPred::Or(arms) => arms.iter_mut().for_each(|a| a.remap(map)),
        }
    }

    /// NULL comparisons are false; OR short-circuits left to right.
    #[inline]
    pub fn eval<'a, R: VRow<'a>>(&self, row: &R, outer: &[Value]) -> Result<bool> {
        match self {
            CPred::ColConst(op, slot, v) => Ok(compare(*op, row.slot(*slot), Val::of(v))),
            CPred::ColCol(op, l, r) => Ok(compare(*op, row.slot(*l), row.slot(*r))),
            CPred::Cmp(op, l, r) => {
                let (mut lt, mut rt) = (Value::Null, Value::Null);
                let lv = l.eval_view(row, outer, &mut lt)?;
                let rv = r.eval_view(row, outer, &mut rt)?;
                Ok(compare(*op, lv, rv))
            }
            CPred::Or(arms) => {
                for a in arms {
                    if a.eval(row, outer)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

/// `l op r`, NULL on either side failing.
#[inline]
fn compare(op: CmpOp, l: Val<'_>, r: Val<'_>) -> bool {
    match (l, r) {
        (Val::Int(a), Val::Int(b)) => op.eval(a.cmp(&b)),
        _ => !l.is_null() && !r.is_null() && op.eval(l.total_cmp(r)),
    }
}

/// A conjunction of compiled predicates, in `PredSet` bit order — the same
/// order the serial interpreter applies them, so the survivor set (and which
/// expressions ever get evaluated) is identical.
#[derive(Debug, Clone, Default)]
pub(crate) struct PredProg {
    preds: Vec<CPred>,
}

impl PredProg {
    pub fn compile(query: &Query, preds: PredSet, schema: &[QCol], scope: &Scope) -> PredProg {
        PredProg {
            preds: preds
                .iter()
                .map(|p| CPred::compile(&query.pred(p).expr, schema, scope))
                .collect(),
        }
    }

    /// [`CExpr::remap`] over every predicate.
    pub fn remapped(mut self, map: &[usize]) -> PredProg {
        self.preds.iter_mut().for_each(|p| p.remap(map));
        self
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Remove the predicates an operator applies by construction: every
    /// bare `slot a = slot b` with `(a, b)` one of `pairs`, either way round.
    /// Returns, per pair, whether a predicate on it was removed — on those
    /// the operator must itself never pass a NULL, which the equality
    /// rejected. Removal stops at the first predicate that can raise: the
    /// ones after it were reached only by candidates every earlier predicate
    /// accepted, and which candidates reach a raising predicate is the
    /// serial engine's error behaviour.
    pub fn remove_equalities(&mut self, pairs: &[(usize, usize)]) -> Vec<bool> {
        let mut removed = vec![false; pairs.len()];
        let mut may_raise = false;
        self.preds.retain(|p| {
            may_raise |= !p.is_bound();
            let pair = match p {
                CPred::ColCol(CmpOp::Eq, l, r) if !may_raise => {
                    pairs.iter().position(|k| *k == (*l, *r) || *k == (*r, *l))
                }
                _ => None,
            };
            pair.map(|k| removed[k] = true).is_none()
        });
        removed
    }

    /// Row-at-a-time conjunction (used on candidate rows before they are
    /// gathered into a batch).
    #[inline]
    pub fn eval_row<'a, R: VRow<'a>>(&self, row: &R, outer: &[Value]) -> Result<bool> {
        for p in &self.preds {
            if !p.eval(row, outer)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Refine a selection vector over the `n` rows `sel` indexes, in place,
    /// predicate-at-a-time over the shrinking survivor set; selection index
    /// `i` names the row of `src` at `pos(i)`. Later predicates see only
    /// earlier survivors — exactly the rows the serial engine's per-row
    /// short circuit would have evaluated them on. An integer constant
    /// against a slot `src` holds typed is compared slice element to
    /// register, the operator decided once for the whole pass.
    pub fn refine<'a, S: RowSource<'a>>(
        &self,
        sel: &mut Vec<u32>,
        n: usize,
        src: S,
        pos: impl Fn(u32) -> usize,
        outer: &[Value],
    ) -> Result<()> {
        for p in &self.preds {
            let typed = match p {
                CPred::ColConst(op, slot, Value::Int(c)) => src.ints(*slot).map(|x| (*op, x, *c)),
                _ => None,
            };
            match typed {
                Some((CmpOp::Eq, x, c)) => keep(sel, n, |i| Ok(x[pos(i)] == c)),
                Some((CmpOp::Ne, x, c)) => keep(sel, n, |i| Ok(x[pos(i)] != c)),
                Some((CmpOp::Lt, x, c)) => keep(sel, n, |i| Ok(x[pos(i)] < c)),
                Some((CmpOp::Le, x, c)) => keep(sel, n, |i| Ok(x[pos(i)] <= c)),
                Some((CmpOp::Gt, x, c)) => keep(sel, n, |i| Ok(x[pos(i)] > c)),
                Some((CmpOp::Ge, x, c)) => keep(sel, n, |i| Ok(x[pos(i)] >= c)),
                None => keep(sel, n, |i| p.eval(&src.row_at(pos(i)), outer)),
            }?;
        }
        Ok(())
    }

    /// Vectorized filter: refine the batch's selection vector in place.
    pub fn filter(&self, batch: &mut Batch, outer: &[Value]) -> Result<()> {
        if self.preds.is_empty() {
            return Ok(());
        }
        let mut sel: Vec<u32> = match batch.sel.take() {
            Some(s) => s,
            None => (0..batch.rows as u32).collect(),
        };
        self.refine(&mut sel, batch.rows, &*batch, |i| i as usize, outer)?;
        batch.sel = Some(sel);
        Ok(())
    }
}

/// The one selection loop: keep the indices of `sel` — ascending, out of
/// `0..n` — that pass `test`, compacting in place with a branch-free append.
/// A selection nothing has narrowed yet is `0..n` itself (its length says
/// so), and its pass counts the indices instead of reading them back.
#[inline]
fn keep(sel: &mut Vec<u32>, n: usize, test: impl Fn(u32) -> Result<bool>) -> Result<()> {
    let mut kept = 0;
    if sel.len() == n {
        for i in 0..n as u32 {
            sel[kept] = i;
            kept += test(i)? as usize;
        }
    } else {
        for k in 0..sel.len() {
            let i = sel[k];
            sel[kept] = i;
            kept += test(i)? as usize;
        }
    }
    sel.truncate(kept);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::ColId;
    use starqo_query::QId;

    fn schema() -> Vec<QCol> {
        vec![QCol::new(QId(0), ColId(0)), QCol::new(QId(0), ColId(1))]
    }

    struct OneRow<'a>(&'a [Value]);
    impl<'a> VRow<'a> for OneRow<'a> {
        fn slot(&self, slot: usize) -> Val<'a> {
            Val::of(&self.0[slot])
        }
    }

    #[test]
    fn arithmetic_matches_serial_semantics() {
        let s = schema();
        let row = OneRow(&[Value::Int(7), Value::Int(2)]);
        let add = CExpr::compile(
            &Scalar::Arith(
                ArithOp::Add,
                Box::new(Scalar::col(QId(0), ColId(0))),
                Box::new(Scalar::col(QId(0), ColId(1))),
            ),
            &s,
            &Scope::default(),
        );
        assert_eq!(add.eval_owned(&row, &[]).unwrap(), Value::Int(9));
        let div = CExpr::compile(
            &Scalar::Arith(
                ArithOp::Div,
                Box::new(Scalar::col(QId(0), ColId(0))),
                Box::new(Scalar::col(QId(0), ColId(1))),
            ),
            &s,
            &Scope::default(),
        );
        assert_eq!(div.eval_owned(&row, &[]).unwrap(), Value::Double(3.5));
        // NULL poisons arithmetic, and NULL fails comparisons.
        let null_row = OneRow(&[Value::Null, Value::Int(2)]);
        assert_eq!(add.eval_owned(&null_row, &[]).unwrap(), Value::Null);
        let eq_self = CPred::Cmp(
            CmpOp::Eq,
            CExpr::compile(&Scalar::col(QId(0), ColId(0)), &s, &Scope::default()),
            CExpr::compile(&Scalar::col(QId(0), ColId(0)), &s, &Scope::default()),
        );
        assert!(!eq_self.eval(&null_row, &[]).unwrap());
    }

    #[test]
    fn or_short_circuit_skips_unbound_arms() {
        let s = schema();
        let row = OneRow(&[Value::Int(1), Value::Int(2)]);
        let or = CPred::compile(
            &PredExpr::Or(vec![
                PredExpr::Cmp(
                    CmpOp::Eq,
                    Scalar::col(QId(0), ColId(0)),
                    Scalar::Const(Value::Int(1)),
                ),
                // Unbound: must never be reached when the first arm is true.
                PredExpr::Cmp(
                    CmpOp::Eq,
                    Scalar::col(QId(5), ColId(0)),
                    Scalar::Const(Value::Int(1)),
                ),
            ]),
            &s,
            &Scope::default(),
        );
        assert!(or.eval(&row, &[]).unwrap());
        let row2 = OneRow(&[Value::Int(9), Value::Int(2)]);
        assert!(or.eval(&row2, &[]).is_err()); // first arm false → second arm errors
    }

    /// Only a bare `slot = slot` on a listed pair goes, either way round;
    /// another operator, another pair, an OR and a computed side stay — and
    /// so does everything from the first predicate that can raise onwards.
    #[test]
    fn remove_equalities_takes_only_bound_equalities_on_the_pairs() {
        let unbound = CExpr::Unbound(QCol::new(QId(9), ColId(0)));
        let eq = |l, r| CPred::ColCol(CmpOp::Eq, l, r);
        let shown = |p: &PredProg| format!("{:?}", p.preds);
        let pairs = [(0, 4), (1, 5), (2, 6), (3, 7)];
        let kept = vec![
            CPred::ColCol(CmpOp::Lt, 0, 4),
            eq(0, 5),
            CPred::Or(vec![eq(1, 5)]),
            CPred::Cmp(CmpOp::Eq, CExpr::Col(2), CExpr::Const(Value::Null)),
        ];
        let mut preds = vec![eq(0, 4), eq(5, 1)];
        preds.extend(kept.clone());
        let mut prog = PredProg { preds };
        assert_eq!(
            prog.remove_equalities(&pairs),
            [true, true, false, false],
            "{prog:?}"
        );
        assert_eq!(shown(&prog), format!("{kept:?}"));

        // (2, 6) sits behind a predicate that can raise — bare, or as the
        // arm of an OR an earlier arm may or may not shield.
        let raising = [
            CPred::Cmp(CmpOp::Lt, unbound.clone(), CExpr::Col(1)),
            CPred::Or(vec![
                eq(0, 1),
                CPred::Cmp(CmpOp::Eq, CExpr::Col(0), unbound),
            ]),
        ];
        for raising in raising {
            let rest = vec![raising, eq(2, 6), CPred::ColCol(CmpOp::Ge, 3, 7)];
            let mut preds = vec![eq(0, 4)];
            preds.extend(rest.clone());
            let mut prog = PredProg { preds };
            assert_eq!(prog.remove_equalities(&pairs), [true, false, false, false]);
            assert_eq!(shown(&prog), format!("{rest:?}"));
        }
        assert!(PredProg::default()
            .remove_equalities(&pairs)
            .iter()
            .all(|r| !r));
    }

    #[test]
    fn filter_refines_selection_in_place() {
        let s = schema();
        let mut b = Batch::new(2);
        for v in 0..6 {
            b.cols[0].push(Val::Int(v));
            b.cols[1].push(Val::Int(v % 2));
            b.rows += 1;
        }
        b.sel = Some(vec![0, 2, 3, 4, 5]); // row 1 pre-filtered
        let prog = PredProg {
            preds: vec![CPred::Cmp(
                CmpOp::Eq,
                CExpr::compile(&Scalar::col(QId(0), ColId(1)), &s, &Scope::default()),
                CExpr::Const(Value::Int(1)),
            )],
        };
        prog.filter(&mut b, &[]).unwrap();
        assert_eq!(b.sel, Some(vec![3, 5]));
    }
}

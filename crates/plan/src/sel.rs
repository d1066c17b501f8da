//! Selectivity estimation (System-R defaults [SELI 79]).
//!
//! The one subtlety is *sideways information passing* (§4.4 footnote 4):
//! when a join predicate is pushed down into a nested-loop inner, the outer
//! side is instantiated per probe, so relative to the inner stream the
//! predicate behaves like `col = constant` with selectivity `1/ndv(col)`.
//! The estimator therefore takes the set of quantifiers that are *local* to
//! the stream being estimated; references outside it count as bound.

use starqo_catalog::Catalog;
use starqo_query::{CmpOp, PredExpr, PredId, PredSet, QCol, QSet, Query, Scalar};

/// Selectivity estimator bound to a catalog and query.
pub struct Selectivity<'a> {
    pub cat: &'a Catalog,
    pub query: &'a Query,
}

impl<'a> Selectivity<'a> {
    pub fn new(cat: &'a Catalog, query: &'a Query) -> Self {
        Selectivity { cat, query }
    }

    /// Estimated number of distinct values of a quantified column.
    pub fn ndv(&self, c: QCol) -> f64 {
        let t = self.cat.table(self.query.quantifier(c.q).table);
        if c.col.is_tid() {
            return t.card.max(1) as f64;
        }
        t.distinct(c.col) as f64
    }

    /// The largest NDV among the columns of `preds` that belong to `side` —
    /// a handle on join-key diversity for method cost models.
    pub fn ndv_max(&self, preds: PredSet, side: QSet) -> f64 {
        preds
            .iter()
            .flat_map(|p| self.query.pred_cols(p))
            .filter(|c| side.contains(c.q))
            .map(|c| self.ndv(*c))
            .fold(1.0_f64, f64::max)
    }

    /// Selectivity of one predicate applied to a stream whose local
    /// quantifiers are `local`.
    pub fn pred(&self, p: PredId, local: QSet) -> f64 {
        self.expr(&self.query.pred(p).expr, local)
    }

    /// Combined (independence-assumption) selectivity of a predicate set.
    pub fn preds(&self, ps: PredSet, local: QSet) -> f64 {
        ps.iter()
            .map(|p| self.pred(p, local))
            .product::<f64>()
            .clamp(0.0, 1.0)
    }

    fn expr(&self, e: &PredExpr, local: QSet) -> f64 {
        match e {
            PredExpr::Cmp(op, l, r) => self.cmp(*op, l, r, local),
            PredExpr::Or(arms) => {
                let miss: f64 = arms.iter().map(|a| 1.0 - self.expr(a, local)).product();
                (1.0 - miss).clamp(0.0, 1.0)
            }
        }
    }

    fn cmp(&self, op: CmpOp, l: &Scalar, r: &Scalar, local: QSet) -> f64 {
        let eq = self.eq_sel(l, r, local);
        match op {
            CmpOp::Eq => eq,
            CmpOp::Ne => (1.0 - eq).clamp(0.0, 1.0),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 1.0 / 3.0,
        }
    }

    /// Equality selectivity given the local quantifier set.
    fn eq_sel(&self, l: &Scalar, r: &Scalar, local: QSet) -> f64 {
        let l_local = !l.quantifiers().intersect(local).is_empty();
        let r_local = !r.quantifiers().intersect(local).is_empty();
        match (l_local, r_local) {
            // Join predicate with both sides local: 1/max(ndv, ndv).
            (true, true) => {
                let ln = self.side_ndv(l, local);
                let rn = self.side_ndv(r, local);
                1.0 / ln.max(rn).max(1.0)
            }
            // One side local, other bound (constant or sideways-passed):
            // 1/ndv(local side).
            (true, false) => 1.0 / self.side_ndv(l, local).max(1.0),
            (false, true) => 1.0 / self.side_ndv(r, local).max(1.0),
            // Neither side local: no effect on this stream.
            (false, false) => 1.0,
        }
    }

    /// NDV of one side of a comparison: the column's NDV for bare columns,
    /// a damped NDV for expressions over columns, default 10 otherwise.
    fn side_ndv(&self, s: &Scalar, local: QSet) -> f64 {
        if let Some(c) = s.as_col() {
            if local.contains(c.q) {
                return self.ndv(c);
            }
        }
        let mut cols = std::collections::BTreeSet::new();
        s.collect_cols(&mut cols);
        let local_ndv = cols
            .iter()
            .filter(|c| local.contains(c.q))
            .map(|c| self.ndv(*c))
            .fold(0.0_f64, f64::max);
        if local_ndv > 0.0 {
            local_ndv
        } else {
            10.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::{ColId, DataType, StorageKind, Value};
    use starqo_query::{ArithOp, QId, QueryBuilder};

    fn setup() -> (Catalog, Query) {
        let cat = Catalog::builder()
            .site("x")
            .table("A", "x", StorageKind::Heap, 1000)
            .column("A0", DataType::Int, Some(100))
            .column("A1", DataType::Int, Some(10))
            .table("B", "x", StorageKind::Heap, 500)
            .column("B0", DataType::Int, Some(50))
            .build()
            .unwrap();
        let mut b = QueryBuilder::new();
        let a = b.quantifier(&cat, "A", "a").unwrap();
        let bb = b.quantifier(&cat, "B", "b").unwrap();
        let col = Scalar::col;
        // p0: a.A0 = b.B0
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            col(a, ColId(0)),
            col(bb, ColId(0)),
        ))
        .unwrap();
        // p1: a.A1 = 7
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            col(a, ColId(1)),
            Scalar::Const(Value::Int(7)),
        ))
        .unwrap();
        // p2: a.A0 < b.B0
        b.predicate(PredExpr::Cmp(
            CmpOp::Lt,
            col(a, ColId(0)),
            col(bb, ColId(0)),
        ))
        .unwrap();
        // p3: a.A1 <> 7
        b.predicate(PredExpr::Cmp(
            CmpOp::Ne,
            col(a, ColId(1)),
            Scalar::Const(Value::Int(7)),
        ))
        .unwrap();
        // p4: (a.A1 = 1 OR a.A1 = 2)
        b.predicate(PredExpr::Or(vec![
            PredExpr::Cmp(CmpOp::Eq, col(a, ColId(1)), Scalar::Const(Value::Int(1))),
            PredExpr::Cmp(CmpOp::Eq, col(a, ColId(1)), Scalar::Const(Value::Int(2))),
        ]))
        .unwrap();
        // p5: a.A0 + 1 = b.B0
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::Arith(
                ArithOp::Add,
                Box::new(col(a, ColId(0))),
                Box::new(Scalar::Const(Value::Int(1))),
            ),
            col(bb, ColId(0)),
        ))
        .unwrap();
        b.select(QCol::new(a, ColId(0)));
        (cat, b.build().unwrap())
    }

    fn pid(i: u32) -> PredId {
        PredId(i)
    }

    #[test]
    fn eq_constant_uses_ndv() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        let a = QSet::single(QId(0));
        assert!((s.pred(pid(1), a) - 0.1).abs() < 1e-12); // 1/ndv(A1)=1/10
    }

    #[test]
    fn join_pred_uses_max_ndv_when_both_local() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        let both = QSet::from_iter([QId(0), QId(1)]);
        assert!((s.pred(pid(0), both) - 1.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn pushed_down_join_pred_uses_inner_ndv() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        // Relative to B alone, a.A0 is a bound constant: 1/ndv(B0)=1/50.
        let b = QSet::single(QId(1));
        assert!((s.pred(pid(0), b) - 1.0 / 50.0).abs() < 1e-12);
        // Relative to A alone: 1/ndv(A0)=1/100.
        let a = QSet::single(QId(0));
        assert!((s.pred(pid(0), a) - 1.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn range_is_one_third_and_ne_is_complement() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        let both = QSet::from_iter([QId(0), QId(1)]);
        assert!((s.pred(pid(2), both) - 1.0 / 3.0).abs() < 1e-12);
        let a = QSet::single(QId(0));
        assert!((s.pred(pid(3), a) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn or_combines_disjuncts() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        let a = QSet::single(QId(0));
        // 1 - (1-0.1)(1-0.1) = 0.19
        assert!((s.pred(pid(4), a) - 0.19).abs() < 1e-12);
    }

    #[test]
    fn expr_side_damps_to_col_ndv() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        let both = QSet::from_iter([QId(0), QId(1)]);
        // expr(A0+1)=B0: max(ndv(A0), ndv(B0)) = 100.
        assert!((s.pred(pid(5), both) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn preds_multiply_independently() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        let a = QSet::single(QId(0));
        let ps = PredSet::from_iter([pid(1), pid(3)]);
        assert!((s.preds(ps, a) - 0.09).abs() < 1e-12);
        assert_eq!(s.preds(PredSet::EMPTY, a), 1.0);
    }

    #[test]
    fn non_local_pred_is_transparent() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        let b = QSet::single(QId(1));
        assert_eq!(s.pred(pid(1), b), 1.0); // a.A1 = 7 doesn't touch B
    }

    #[test]
    fn tid_ndv_is_card() {
        let (cat, q) = setup();
        let s = Selectivity::new(&cat, &q);
        assert_eq!(s.ndv(QCol::new(QId(0), starqo_catalog::TID_COL)), 1000.0);
    }
}

//! The §4 predicate classifications.
//!
//! These are the `where` clauses of the paper's join STARs:
//!
//! * **JP** — join predicates: "multi-table, no ORs or subqueries, etc., but
//!   expressions OK".
//! * **SP** — sortable predicates: `p ∈ JP` of form `col1 op col2` where
//!   `col1 ∈ χ(T1)` and `col2 ∈ χ(T2)` or vice versa. (We additionally
//!   require `op` to be `=` so that a merge join is actually possible; the
//!   paper's MG cost equations assume equality merges.)
//! * **HP** — hashable predicates: `p ∈ JP` of form
//!   `expr(χ(T1)) = expr(χ(T2))` — expressions over any number of columns of
//!   one side, equated to an expression over the other side.
//! * **IP** — predicates eligible on the inner only: `χ(p) ⊆ χ(T2)`.
//! * **XP** — indexable multi-table predicates: `p ∈ JP` of form
//!   `expr(χ(T1)) op T2.col`.
//!
//! The classifier also implements the access-path matching of §2.1: which
//! predicates a multi-column index can apply ("the columns referenced in the
//! predicates form a prefix of the columns in the index").

use starqo_catalog::ColId;

use crate::pred::{CmpOp, PredExpr, PredSet};
use crate::qset::{QId, QSet};
use crate::query::Query;
use crate::scalar::QCol;

/// Stateless classification functions over a query.
pub struct Classifier<'q> {
    pub query: &'q Query,
}

impl<'q> Classifier<'q> {
    pub fn new(query: &'q Query) -> Self {
        Classifier { query }
    }

    /// JP: join predicates among `p_set` — multi-table simple comparisons
    /// (no ORs).
    pub fn join_preds(&self, p_set: PredSet) -> PredSet {
        PredSet::from_iter(p_set.iter().filter(|p| {
            self.query.pred_quantifiers(*p).len() > 1 && !self.query.pred(*p).expr.contains_or()
        }))
    }

    /// IP: predicates eligible on the inner only: χ(p) ⊆ χ(T2).
    pub fn inner_preds(&self, p_set: PredSet, t2: QSet) -> PredSet {
        PredSet::from_iter(p_set.iter().filter(|p| {
            let qs = self.query.pred_quantifiers(*p);
            !qs.is_empty() && qs.is_subset_of(t2)
        }))
    }

    /// SP: sortable (merge-joinable) predicates: bare-column `=` bare-column
    /// with one column on each side.
    pub fn sortable_preds(&self, p_set: PredSet, t1: QSet, t2: QSet) -> PredSet {
        PredSet::from_iter(p_set.iter().filter(|p| match &self.query.pred(*p).expr {
            PredExpr::Cmp(CmpOp::Eq, l, r) => match (l.as_col(), r.as_col()) {
                (Some(a), Some(b)) => {
                    (t1.contains(a.q) && t2.contains(b.q)) || (t2.contains(a.q) && t1.contains(b.q))
                }
                _ => false,
            },
            _ => false,
        }))
    }

    /// HP: hashable predicates: `expr(χ(T1)) = expr(χ(T2))`.
    pub fn hashable_preds(&self, p_set: PredSet, t1: QSet, t2: QSet) -> PredSet {
        PredSet::from_iter(p_set.iter().filter(|p| match &self.query.pred(*p).expr {
            PredExpr::Cmp(CmpOp::Eq, l, r) => {
                let (lq, rq) = (l.quantifiers(), r.quantifiers());
                if lq.is_empty() || rq.is_empty() {
                    return false;
                }
                (lq.is_subset_of(t1) && rq.is_subset_of(t2))
                    || (lq.is_subset_of(t2) && rq.is_subset_of(t1))
            }
            _ => false,
        }))
    }

    /// XP: indexable multi-table predicates: `expr(χ(T1)) op T2.col` — one
    /// side is a bare column of the inner, the other references only the
    /// outer.
    pub fn indexable_preds(&self, p_set: PredSet, t1: QSet, t2: QSet) -> PredSet {
        PredSet::from_iter(p_set.iter().filter(|p| match &self.query.pred(*p).expr {
            PredExpr::Cmp(_, l, r) => {
                let inner_col_outer_expr =
                    |col: &crate::scalar::Scalar, other: &crate::scalar::Scalar| {
                        col.as_col().is_some_and(|c| t2.contains(c.q))
                            && !other.quantifiers().is_empty()
                            && other.quantifiers().is_subset_of(t1)
                    };
                inner_col_outer_expr(l, r) || inner_col_outer_expr(r, l)
            }
            PredExpr::Or(_) => false,
        }))
    }

    /// IX (§4.5.3): "columns of indexable predicates = (χ(IP) ∪ χ(XP)) ∩
    /// χ(T2), '=' predicates first" — the ordered key for a dynamically
    /// created index on the inner.
    pub fn index_cols(&self, ip: PredSet, xp: PredSet, t2: QSet) -> Vec<QCol> {
        let mut eq_cols: Vec<QCol> = Vec::new();
        let mut other_cols: Vec<QCol> = Vec::new();
        let push = |dst: &mut Vec<QCol>, c: QCol| {
            if !dst.contains(&c) {
                dst.push(c);
            }
        };
        for p in ip.union(xp).iter() {
            let is_eq = matches!(&self.query.pred(p).expr, PredExpr::Cmp(CmpOp::Eq, _, _));
            for &c in self.query.pred_cols(p) {
                if t2.contains(c.q) {
                    if is_eq {
                        push(&mut eq_cols, c);
                    } else {
                        push(&mut other_cols, c);
                    }
                }
            }
        }
        other_cols.retain(|c| !eq_cols.contains(c));
        eq_cols.extend(other_cols);
        eq_cols
    }

    /// The sort key χ(SP) ∩ χ(T): the columns of the sortable predicates on
    /// the given side, in predicate order — the ORDER requirement the MG
    /// alternative imposes on each input.
    pub fn sort_key(&self, sp: PredSet, side: QSet) -> Vec<QCol> {
        let mut out = Vec::new();
        for p in sp.iter() {
            for &c in self.query.pred_cols(p) {
                if side.contains(c.q) && !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Which of `preds` (all referencing only quantifier `q`) an index with
    /// key columns `index_cols` on `q` can apply: equality predicates on a
    /// prefix of the key, plus at most one range predicate on the next key
    /// column. Returns `(matched predicates, matched-column count)`.
    pub fn index_matching(&self, preds: PredSet, q: QId, index_cols: &[ColId]) -> (PredSet, u32) {
        let mut matched = PredSet::EMPTY;
        let mut ncols = 0u32;
        for (pos, icol) in index_cols.iter().enumerate() {
            let target = QCol::new(q, *icol);
            // Equality preds on this key column against something constant
            // w.r.t. the scan (constant or outer reference). All of them
            // match; any one extends the prefix.
            let mut any_eq = false;
            for p in preds.iter() {
                if self.sargable_on(p, target) == Some(CmpOp::Eq) {
                    matched = matched.insert(p);
                    any_eq = true;
                }
            }
            if any_eq {
                ncols = pos as u32 + 1;
                continue;
            }
            // Range predicates stop the prefix but still match this column.
            let mut any_range = false;
            for p in preds.iter() {
                if let Some(op) = self.sargable_on(p, target) {
                    if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                        matched = matched.insert(p);
                        any_range = true;
                    }
                }
            }
            if any_range {
                ncols = pos as u32 + 1;
            }
            break;
        }
        (matched, ncols)
    }

    /// If predicate `p` is sargable on column `target` — a comparison of the
    /// bare column against an expression not referencing `target.q` — return
    /// the comparison operator oriented as `target op other`.
    pub fn sargable_on(&self, p: crate::pred::PredId, target: QCol) -> Option<CmpOp> {
        match &self.query.pred(p).expr {
            PredExpr::Cmp(op, l, r) => {
                if l.as_col() == Some(target) && !r.quantifiers().contains(target.q) {
                    Some(*op)
                } else if r.as_col() == Some(target) && !l.quantifiers().contains(target.q) {
                    Some(op.flipped())
                } else {
                    None
                }
            }
            PredExpr::Or(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::PredId;
    use crate::query::QueryBuilder;
    use crate::scalar::{ArithOp, Scalar};
    use starqo_catalog::{Catalog, DataType, StorageKind, Value};

    /// Catalog: A(a0,a1), B(b0,b1), C(c0).
    fn cat() -> Catalog {
        Catalog::builder()
            .site("x")
            .table("A", "x", StorageKind::Heap, 100)
            .column("A0", DataType::Int, Some(100))
            .column("A1", DataType::Int, Some(10))
            .table("B", "x", StorageKind::Heap, 200)
            .column("B0", DataType::Int, Some(200))
            .column("B1", DataType::Int, Some(20))
            .table("C", "x", StorageKind::Heap, 300)
            .column("C0", DataType::Int, Some(300))
            .build()
            .unwrap()
    }

    /// Query with a mix of predicate shapes:
    /// p0: a.A0 = b.B0          (JP, SP, HP, XP)
    /// p1: a.A1 + 1 = b.B1      (JP, HP, XP — expr on outer side)
    /// p2: a.A0 < b.B1          (JP, XP — inequality)
    /// p3: b.B1 = 5             (single-table on B)
    /// p4: (b.B0 = 1 OR b.B0 = 2)  (single-table OR on B)
    /// p5: a.A0 = c.C0          (JP linking A–C)
    fn setup() -> (Query, PredSet) {
        let cat = cat();
        let mut b = QueryBuilder::new();
        let a = b.quantifier(&cat, "A", "a").unwrap();
        let bb = b.quantifier(&cat, "B", "b").unwrap();
        let c = b.quantifier(&cat, "C", "c").unwrap();
        let col = Scalar::col;
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            col(a, ColId(0)),
            col(bb, ColId(0)),
        ))
        .unwrap();
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::Arith(
                ArithOp::Add,
                Box::new(col(a, ColId(1))),
                Box::new(Scalar::Const(Value::Int(1))),
            ),
            col(bb, ColId(1)),
        ))
        .unwrap();
        b.predicate(PredExpr::Cmp(
            CmpOp::Lt,
            col(a, ColId(0)),
            col(bb, ColId(1)),
        ))
        .unwrap();
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            col(bb, ColId(1)),
            Scalar::Const(Value::Int(5)),
        ))
        .unwrap();
        b.predicate(PredExpr::Or(vec![
            PredExpr::Cmp(CmpOp::Eq, col(bb, ColId(0)), Scalar::Const(Value::Int(1))),
            PredExpr::Cmp(CmpOp::Eq, col(bb, ColId(0)), Scalar::Const(Value::Int(2))),
        ]))
        .unwrap();
        b.predicate(PredExpr::Cmp(CmpOp::Eq, col(a, ColId(0)), col(c, ColId(0))))
            .unwrap();
        b.select(QCol::new(a, ColId(0)));
        let q = b.build().unwrap();
        let all = q.all_preds();
        (q, all)
    }

    fn ps(ids: &[u32]) -> PredSet {
        PredSet::from_iter(ids.iter().map(|i| PredId(*i)))
    }

    #[test]
    fn join_pred_classification() {
        let (q, all) = setup();
        let cl = Classifier::new(&q);
        // p0, p1, p2, p5 are multi-table simple comparisons; p3/p4 are not.
        assert_eq!(cl.join_preds(all), ps(&[0, 1, 2, 5]));
    }

    #[test]
    fn inner_pred_classification() {
        let (q, all) = setup();
        let cl = Classifier::new(&q);
        let t2 = QSet::single(QId(1)); // B is inner
        assert_eq!(cl.inner_preds(all, t2), ps(&[3, 4]));
        // Composite inner {B,C}: still only p3/p4 (p5 references A).
        let t2c = QSet::from_iter([QId(1), QId(2)]);
        assert_eq!(cl.inner_preds(all, t2c), ps(&[3, 4]));
    }

    #[test]
    fn sortable_pred_classification() {
        let (q, all) = setup();
        let cl = Classifier::new(&q);
        let t1 = QSet::single(QId(0));
        let t2 = QSet::single(QId(1));
        let jp = cl.join_preds(all);
        // Only p0 is bare-col = bare-col across the sides. p1 has an
        // expression side; p2 is an inequality; p5 doesn't span T1/T2.
        assert_eq!(cl.sortable_preds(jp, t1, t2), ps(&[0]));
        // Orientation doesn't matter.
        assert_eq!(cl.sortable_preds(jp, t2, t1), ps(&[0]));
    }

    #[test]
    fn hashable_pred_classification() {
        let (q, all) = setup();
        let cl = Classifier::new(&q);
        let t1 = QSet::single(QId(0));
        let t2 = QSet::single(QId(1));
        let jp = cl.join_preds(all);
        // p0 and p1 are equality with sides split across T1/T2; p2 is an
        // inequality (paper: "and vice versa (inequalities)").
        assert_eq!(cl.hashable_preds(jp, t1, t2), ps(&[0, 1]));
    }

    #[test]
    fn indexable_pred_classification() {
        let (q, all) = setup();
        let cl = Classifier::new(&q);
        let t1 = QSet::single(QId(0));
        let t2 = QSet::single(QId(1));
        let jp = cl.join_preds(all);
        // XP: inner side must be a bare column of T2: p0 (B0), p1 (B1),
        // p2 (B1, inequality OK for index range).
        assert_eq!(cl.indexable_preds(jp, t1, t2), ps(&[0, 1, 2]));
        // Flipped: A as inner — p0 (A0), p2 (A0). p1's A side is an
        // expression, not a bare column.
        assert_eq!(cl.indexable_preds(jp, t2, t1), ps(&[0, 2]));
    }

    #[test]
    fn index_cols_puts_equality_first() {
        let (q, all) = setup();
        let cl = Classifier::new(&q);
        let t1 = QSet::single(QId(0));
        let t2 = QSet::single(QId(1));
        let jp = cl.join_preds(all);
        let ip = cl.inner_preds(all, t2);
        let xp = cl.indexable_preds(jp, t1, t2);
        let ix = cl.index_cols(ip, xp, t2);
        // Equality-pred columns (B0 from p0, B1 from p1/p3) come first; the
        // range pred p2's column B1 is already claimed by an equality.
        assert_eq!(ix.len(), 2);
        assert!(ix.contains(&QCol::new(QId(1), ColId(0))));
        assert!(ix.contains(&QCol::new(QId(1), ColId(1))));
    }

    #[test]
    fn sort_key_extraction() {
        let (q, all) = setup();
        let cl = Classifier::new(&q);
        let t1 = QSet::single(QId(0));
        let t2 = QSet::single(QId(1));
        let sp = cl.sortable_preds(cl.join_preds(all), t1, t2);
        assert_eq!(cl.sort_key(sp, t1), vec![QCol::new(QId(0), ColId(0))]);
        assert_eq!(cl.sort_key(sp, t2), vec![QCol::new(QId(1), ColId(0))]);
    }

    #[test]
    fn index_matching_prefix_rules() {
        let (q, _) = setup();
        let cl = Classifier::new(&q);
        let b = QId(1);
        // Single-table preds on B: p3 (B1 = 5), p4 (OR — not sargable).
        let preds = ps(&[3, 4]);
        // Index on (B1): p3 matches one column.
        let (m, n) = cl.index_matching(preds, b, &[ColId(1)]);
        assert_eq!(m, ps(&[3]));
        assert_eq!(n, 1);
        // Index on (B0, B1): no eq pred on B0, so nothing matches.
        let (m, n) = cl.index_matching(preds, b, &[ColId(0), ColId(1)]);
        assert_eq!(m, PredSet::EMPTY);
        assert_eq!(n, 0);
        // Index on (B1, B0): p3 eq-matches B1; nothing on B0 after it.
        let (m, n) = cl.index_matching(preds, b, &[ColId(1), ColId(0)]);
        assert_eq!(m, ps(&[3]));
        assert_eq!(n, 1);
    }

    #[test]
    fn index_matching_join_pred_as_sarg() {
        let (q, all) = setup();
        let cl = Classifier::new(&q);
        let b = QId(1);
        // When join preds are pushed down (sideways information passing),
        // p0 (a.A0 = b.B0) is sargable on B0 because its other side doesn't
        // reference B.
        let (m, n) = cl.index_matching(all, b, &[ColId(0)]);
        assert!(m.contains(PredId(0)));
        assert_eq!(n, 1);
        // Range join pred p2 (a.A0 < b.B1) is sargable on B1 as a range.
        let (m2, _) = cl.index_matching(all, b, &[ColId(1)]);
        assert!(m2.contains(PredId(3))); // eq pred wins the column
                                         // With only p2 available, it matches as a range.
        let (m3, n3) = cl.index_matching(ps(&[2]), b, &[ColId(1)]);
        assert!(m3.contains(PredId(2)));
        assert_eq!(n3, 1);
    }

    #[test]
    fn sargable_orientation() {
        let (q, _) = setup();
        let cl = Classifier::new(&q);
        // p2: a.A0 < b.B1. On target B1 it reads "B1 > (outer)".
        assert_eq!(
            cl.sargable_on(PredId(2), QCol::new(QId(1), ColId(1))),
            Some(CmpOp::Gt)
        );
        assert_eq!(
            cl.sargable_on(PredId(2), QCol::new(QId(0), ColId(0))),
            Some(CmpOp::Lt)
        );
        assert_eq!(cl.sargable_on(PredId(4), QCol::new(QId(1), ColId(0))), None);
    }
}

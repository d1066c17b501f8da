//! The query object consumed by the optimizer.

use std::sync::OnceLock;

use starqo_catalog::{Catalog, SiteId, TableId};

use crate::error::{QueryError, Result};
use crate::pred::{PredExpr, PredId, PredSet, Predicate};
use crate::qset::{QId, QSet};
use crate::scalar::QCol;
use crate::shared::ColSet;

/// A quantifier: one table reference (range variable) of the query.
#[derive(Debug, Clone)]
pub struct Quantifier {
    pub id: QId,
    pub alias: String,
    pub table: TableId,
}

/// A non-procedural query: quantifiers, a conjunction of predicates, a
/// projection list, and an optional required output order.
///
/// This is the input the paper starts from ("a non-procedural set of
/// parameters from the query"); the optimizer turns it into plans.
#[derive(Debug, Clone)]
pub struct Query {
    pub quantifiers: Vec<Quantifier>,
    pub predicates: Vec<Predicate>,
    /// Projection: the columns the query returns.
    pub select: Vec<QCol>,
    /// Required output order (ORDER BY), discharged by Glue at the root.
    pub order_by: Vec<QCol>,
    /// Site at which the query result must be delivered.
    pub query_site: SiteId,
    /// What the optimizer asks thousands of times per run, derived from the
    /// fields above on first use (so never on the cache-hit path). A query
    /// is not edited once built.
    pub(crate) facts: OnceLock<Facts>,
}

/// Each predicate's quantifier set and sorted column list, each
/// quantifier's required columns.
#[derive(Debug, Clone)]
pub(crate) struct Facts {
    pred_qs: Vec<QSet>,
    pred_cols: Vec<Vec<QCol>>,
    required: Vec<ColSet>,
}

impl Query {
    fn facts(&self) -> &Facts {
        self.facts.get_or_init(|| {
            let pred_cols: Vec<Vec<QCol>> = self
                .predicates
                .iter()
                .map(|p| p.cols().into_iter().collect())
                .collect();
            let required = self
                .quantifiers
                .iter()
                .map(|qt| {
                    let wanted = self.select.iter().chain(&self.order_by);
                    wanted
                        .chain(pred_cols.iter().flatten())
                        .filter(|c| c.q == qt.id)
                        .copied()
                        .collect()
                })
                .collect();
            Facts {
                pred_qs: self.predicates.iter().map(|p| p.quantifiers()).collect(),
                pred_cols,
                required,
            }
        })
    }

    /// The quantifiers predicate `p` references (cached).
    pub fn pred_quantifiers(&self, p: PredId) -> QSet {
        self.facts().pred_qs[p.0 as usize]
    }

    /// χ(p): the columns of predicate `p`, sorted (cached).
    pub fn pred_cols(&self, p: PredId) -> &[QCol] {
        &self.facts().pred_cols[p.0 as usize]
    }

    /// The set of all quantifiers.
    pub fn all_qset(&self) -> QSet {
        QSet::all(self.quantifiers.len())
    }

    /// The set of all predicates.
    pub fn all_preds(&self) -> PredSet {
        PredSet::from_iter((0..self.predicates.len() as u32).map(PredId))
    }

    pub fn quantifier(&self, q: QId) -> &Quantifier {
        &self.quantifiers[q.0 as usize]
    }

    pub fn pred(&self, p: PredId) -> &Predicate {
        &self.predicates[p.0 as usize]
    }

    /// Predicates *eligible* on a quantifier set: every referenced quantifier
    /// is in the set. ("the table order determines which predicates are
    /// eligible", §1.)
    pub fn eligible_preds(&self, qset: QSet) -> PredSet {
        let qs = self.facts().pred_qs.iter().enumerate();
        qs.filter(|(_, qs)| !qs.is_empty() && qs.is_subset_of(qset))
            .fold(PredSet::EMPTY, |s, (i, _)| s.insert(PredId(i as u32)))
    }

    /// Predicates that become *newly* eligible when `s1` and `s2` are joined:
    /// eligible on the union but on neither input alone.
    pub fn newly_eligible(&self, s1: QSet, s2: QSet) -> PredSet {
        let both = self.eligible_preds(s1.union(s2));
        both.minus(self.eligible_preds(s1))
            .minus(self.eligible_preds(s2))
    }

    /// True if some predicate links the two sets (a join predicate exists).
    /// This is the default "joinable pair" criterion of §2.3.
    pub fn connects(&self, s1: QSet, s2: QSet) -> bool {
        self.facts().pred_qs.iter().any(|qs| {
            !qs.intersect(s1).is_empty()
                && !qs.intersect(s2).is_empty()
                && qs.is_subset_of(s1.union(s2))
        })
    }

    /// The columns of quantifier `q` that anything downstream needs: the
    /// projection, any predicate, or the required order. This drives the
    /// COLS property of table-access plans ("pushing down the projection").
    pub fn required_cols(&self, q: QId) -> &ColSet {
        &self.facts().required[q.0 as usize]
    }

    /// Human-readable name of a quantified column, e.g. `E.NAME`.
    pub fn qcol_name(&self, cat: &Catalog, c: QCol) -> String {
        let qt = self.quantifier(c.q);
        if c.col.is_tid() {
            return format!("{}.TID", qt.alias);
        }
        let t = cat.table(qt.table);
        match t.column(c.col) {
            Some(col) => format!("{}.{}", qt.alias, col.name),
            None => format!("{}.{}", qt.alias, c.col),
        }
    }

    /// Human-readable rendering of one predicate.
    pub fn pred_string(&self, cat: &Catalog, p: PredId) -> String {
        fn scalar(q: &Query, cat: &Catalog, s: &crate::scalar::Scalar) -> String {
            use crate::scalar::Scalar;
            match s {
                Scalar::Col(c) => q.qcol_name(cat, *c),
                Scalar::Const(v) => v.to_string(),
                Scalar::Arith(op, l, r) => {
                    format!(
                        "({} {} {})",
                        scalar(q, cat, l),
                        op.symbol(),
                        scalar(q, cat, r)
                    )
                }
            }
        }
        fn expr(q: &Query, cat: &Catalog, e: &PredExpr) -> String {
            match e {
                PredExpr::Cmp(op, l, r) => {
                    format!(
                        "{} {} {}",
                        scalar(q, cat, l),
                        op.symbol(),
                        scalar(q, cat, r)
                    )
                }
                PredExpr::Or(ps) => {
                    let parts: Vec<_> = ps.iter().map(|p| expr(q, cat, p)).collect();
                    format!("({})", parts.join(" OR "))
                }
            }
        }
        expr(self, cat, &self.pred(p).expr)
    }
}

/// Programmatic query builder (the parser uses it too).
#[derive(Debug, Default)]
pub struct QueryBuilder {
    quantifiers: Vec<Quantifier>,
    predicates: Vec<Predicate>,
    select: Vec<QCol>,
    order_by: Vec<QCol>,
    query_site: SiteId,
}

impl QueryBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a quantifier over `table` (by name) with the given alias; returns
    /// its `QId`.
    pub fn quantifier(&mut self, cat: &Catalog, table: &str, alias: &str) -> Result<QId> {
        if self.quantifiers.len() >= 64 {
            return Err(QueryError::Limit("more than 64 quantifiers".into()));
        }
        let t = cat.table_by_name(table)?;
        let id = QId(self.quantifiers.len() as u32);
        self.quantifiers.push(Quantifier {
            id,
            alias: alias.to_string(),
            table: t.id,
        });
        Ok(id)
    }

    /// Add a conjunct; returns its `PredId`.
    pub fn predicate(&mut self, expr: PredExpr) -> Result<PredId> {
        if self.predicates.len() >= 128 {
            return Err(QueryError::Limit("more than 128 predicates".into()));
        }
        let id = PredId(self.predicates.len() as u32);
        self.predicates.push(Predicate { id, expr });
        Ok(id)
    }

    pub fn select(&mut self, col: QCol) -> &mut Self {
        self.select.push(col);
        self
    }

    pub fn order_by(&mut self, col: QCol) -> &mut Self {
        self.order_by.push(col);
        self
    }

    pub fn query_site(&mut self, site: SiteId) -> &mut Self {
        self.query_site = site;
        self
    }

    /// Select every column of every declared quantifier, in (quantifier,
    /// column) order: `SELECT *` made explicit.
    pub fn select_all(&mut self, cat: &Catalog) {
        for qt in &self.quantifiers {
            let ncols = cat.table(qt.table).columns.len() as u32;
            let cols = (0..ncols).map(|c| QCol::new(qt.id, starqo_catalog::ColId(c)));
            self.select.extend(cols);
        }
    }

    /// Resolve `alias.column` against the declared quantifiers.
    pub fn resolve(&self, cat: &Catalog, alias: &str, column: &str) -> Result<QCol> {
        let qt = self
            .quantifiers
            .iter()
            .find(|q| q.alias.eq_ignore_ascii_case(alias))
            .ok_or_else(|| QueryError::Resolve(format!("unknown alias {alias}")))?;
        let t = cat.table(qt.table);
        let (cid, _) = t
            .column_by_name(column)
            .ok_or_else(|| QueryError::Resolve(format!("no column {column} on {}", t.name)))?;
        Ok(QCol::new(qt.id, cid))
    }

    /// Resolve a bare column name, requiring it to be unambiguous.
    pub fn resolve_bare(&self, cat: &Catalog, column: &str) -> Result<QCol> {
        let mut found = None;
        for qt in &self.quantifiers {
            if let Some((cid, _)) = cat.table(qt.table).column_by_name(column) {
                if found.is_some() {
                    return Err(QueryError::Resolve(format!("ambiguous column {column}")));
                }
                found = Some(QCol::new(qt.id, cid));
            }
        }
        found.ok_or_else(|| QueryError::Resolve(format!("unknown column {column}")))
    }

    pub fn build(self) -> Result<Query> {
        if self.quantifiers.is_empty() {
            return Err(QueryError::Resolve("query has no tables".into()));
        }
        Ok(Query {
            quantifiers: self.quantifiers,
            predicates: self.predicates,
            select: self.select,
            order_by: self.order_by,
            query_site: self.query_site,
            facts: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;
    use crate::scalar::Scalar;
    use starqo_catalog::{Catalog, ColId, DataType, StorageKind, Value};

    fn cat() -> Catalog {
        Catalog::builder()
            .site("NY")
            .table("DEPT", "NY", StorageKind::Heap, 50)
            .column("DNO", DataType::Int, Some(50))
            .column("MGR", DataType::Str, Some(40))
            .table("EMP", "NY", StorageKind::Heap, 10_000)
            .column("NAME", DataType::Str, None)
            .column("DNO", DataType::Int, Some(50))
            .build()
            .unwrap()
    }

    fn dept_emp() -> (Catalog, Query) {
        let cat = cat();
        let mut b = QueryBuilder::new();
        let d = b.quantifier(&cat, "DEPT", "D").unwrap();
        let e = b.quantifier(&cat, "EMP", "E").unwrap();
        // D.MGR = 'Haas'
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(d, ColId(1)),
            Scalar::Const(Value::str("Haas")),
        ))
        .unwrap();
        // D.DNO = E.DNO
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(d, ColId(0)),
            Scalar::col(e, ColId(1)),
        ))
        .unwrap();
        b.select(QCol::new(e, ColId(0)));
        (cat, b.build().unwrap())
    }

    #[test]
    fn eligibility() {
        let (_, q) = dept_emp();
        let d = QSet::single(QId(0));
        let e = QSet::single(QId(1));
        assert_eq!(q.eligible_preds(d), PredSet::single(PredId(0)));
        assert_eq!(q.eligible_preds(e), PredSet::EMPTY);
        assert_eq!(q.eligible_preds(d.union(e)).len(), 2);
        assert_eq!(q.newly_eligible(d, e), PredSet::single(PredId(1)));
        assert!(q.connects(d, e));
    }

    #[test]
    fn required_cols_pull_from_select_and_preds() {
        let (_, q) = dept_emp();
        let d_cols = q.required_cols(QId(0));
        // DNO (join pred) + MGR (local pred)
        assert_eq!(d_cols.len(), 2);
        let e_cols = q.required_cols(QId(1));
        // NAME (select) + DNO (join pred)
        assert_eq!(e_cols.len(), 2);
    }

    #[test]
    fn naming() {
        let (cat, q) = dept_emp();
        assert_eq!(q.qcol_name(&cat, QCol::new(QId(1), ColId(0))), "E.NAME");
        assert_eq!(q.pred_string(&cat, PredId(0)), "D.MGR = 'Haas'");
        assert_eq!(q.pred_string(&cat, PredId(1)), "D.DNO = E.DNO");
    }

    #[test]
    fn resolve_bare_ambiguity() {
        let cat = cat();
        let mut b = QueryBuilder::new();
        b.quantifier(&cat, "DEPT", "D").unwrap();
        b.quantifier(&cat, "EMP", "E").unwrap();
        assert!(b.resolve_bare(&cat, "DNO").is_err()); // on both tables
        assert!(b.resolve_bare(&cat, "MGR").is_ok());
        assert!(b.resolve_bare(&cat, "XYZ").is_err());
        assert!(b.resolve(&cat, "X", "DNO").is_err());
    }

    #[test]
    fn empty_query_rejected() {
        assert!(QueryBuilder::new().build().is_err());
    }
}

//! Rule-evaluation values.
//!
//! Everything a STAR parameter, `with`-binding, or native function can hold.
//! The two load-bearing variants are [`RuleValue::Stream`] — a table
//! (quantifier) set with its *accumulated required properties* (§3.2: "the
//! requirements are accumulated until Glue is referenced") — and
//! [`RuleValue::Plans`], the paper's SAP (Set of Alternative Plans, §2.2).
//! Both name what they hold in the run's [`RunStore`], so a value is 32
//! bytes and a reference copies its arguments without touching a count.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use starqo_catalog::{IndexId, SiteId};
use starqo_plan::ColSet;
use starqo_query::{PredSet, QCol, QSet, Shared};

use crate::store::RunStore;
pub use crate::store::Sap;

/// Accumulated required properties on a stream (§3.2). `T[site = s]` etc.
/// append to this; only Glue discharges it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ReqVec {
    /// Required tuple order.
    pub order: Option<Shared<QCol>>,
    /// Required delivery site.
    pub site: Option<SiteId>,
    /// Must be materialized as a temp.
    pub temp: bool,
    /// Required access path: an index whose key starts with these columns
    /// (§4.5.3's `paths ⊇ IX`).
    pub paths: Option<Shared<QCol>>,
}

impl ReqVec {
    pub fn is_empty(&self) -> bool {
        self.order.is_none() && self.site.is_none() && !self.temp && self.paths.is_none()
    }
}

/// A stream argument: a quantifier set plus the requirements accumulated on
/// it, which sit in the run's store ([`RunStore::reqs`]; a stream with
/// requirements is made by [`RunStore::stream`]).
#[derive(Debug, Clone, Copy)]
pub struct StreamRef {
    pub tables: QSet,
    /// 1 + where its requirements sit in the store; 0 for none.
    pub(crate) reqs: u32,
}

impl StreamRef {
    /// A stream with no requirements.
    pub fn new(tables: QSet) -> Self {
        StreamRef { tables, reqs: 0 }
    }
}

/// A value during rule evaluation.
#[derive(Debug, Clone)]
pub enum RuleValue {
    Bool(bool),
    Int(i64),
    Str(Arc<str>),
    /// A bare symbol (unresolved identifier): LOLEPOP flavors (`NL`, `MG`,
    /// `HA`, `heap`, `btree`, ...).
    Sym(Arc<str>),
    Site(SiteId),
    /// An ordered column list (sort keys, index keys, ORDER requirements).
    Cols(Shared<QCol>),
    /// An unordered column set (the C parameter of access STARs).
    ColSet(ColSet),
    /// A predicate set.
    Preds(PredSet),
    /// A stream: table set + accumulated requirements.
    Stream(StreamRef),
    /// A Set of Alternative Plans.
    Plans(Sap),
    /// A catalog index bound to the quantifier it serves (self-joins give
    /// the same index different quantifiers).
    Index(IndexId, starqo_query::QId),
    /// Generic list (forall iterates it: sites, indexes, ...).
    List(Arc<Vec<RuleValue>>),
    /// `*` — all columns of the accessed object.
    AllCols,
}

impl RuleValue {
    pub fn kind(&self) -> &'static str {
        match self {
            RuleValue::Bool(_) => "bool",
            RuleValue::Int(_) => "int",
            RuleValue::Str(_) => "string",
            RuleValue::Sym(_) => "symbol",
            RuleValue::Site(_) => "site",
            RuleValue::Cols(_) => "cols",
            RuleValue::ColSet(_) => "colset",
            RuleValue::Preds(_) => "preds",
            RuleValue::Stream(_) => "stream",
            RuleValue::Plans(_) => "plans",
            RuleValue::Index(..) => "index",
            RuleValue::List(_) => "list",
            RuleValue::AllCols => "*",
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            RuleValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn plans(&self) -> Option<Sap> {
        match self {
            RuleValue::Plans(p) => Some(*p),
            _ => None,
        }
    }

    /// Digest for memoization, of what [`RuleValue::same`] compares: plans
    /// by structural fingerprint, streams by their requirements.
    pub fn digest<H: Hasher>(&self, h: &mut H, store: &RunStore) {
        std::mem::discriminant(self).hash(h);
        match self {
            RuleValue::Bool(b) => b.hash(h),
            RuleValue::Int(i) => i.hash(h),
            RuleValue::Str(s) | RuleValue::Sym(s) => s.hash(h),
            RuleValue::Site(s) => s.hash(h),
            RuleValue::Cols(c) => c.hash(h),
            RuleValue::ColSet(c) => c.hash(h),
            RuleValue::Preds(p) => p.hash(h),
            RuleValue::Stream(s) => {
                s.tables.hash(h);
                store.reqs(s).hash(h);
            }
            RuleValue::Plans(ps) => {
                for &p in store.sap(*ps) {
                    store[p].fingerprint.hash(h);
                }
            }
            RuleValue::Index(i, q) => {
                i.hash(h);
                q.hash(h);
            }
            RuleValue::List(items) => {
                for i in items.iter() {
                    i.digest(h, store);
                }
            }
            RuleValue::AllCols => {}
        }
    }

    /// Equality as the memo and the rules' `==` see it: SAPs are equal when
    /// their plans are, fingerprint by fingerprint, wherever in the store
    /// they sit; streams when their tables and requirements are.
    pub fn same(&self, other: &RuleValue, store: &RunStore) -> bool {
        use RuleValue::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Str(a), Str(b)) | (Sym(a), Sym(b)) => a == b,
            (Site(a), Site(b)) => a == b,
            (Cols(a), Cols(b)) => a == b,
            (ColSet(a), ColSet(b)) => a == b,
            (Preds(a), Preds(b)) => a == b,
            (Stream(a), Stream(b)) => store.same_stream(a, b),
            (Plans(a), Plans(b)) => store.same_plans(*a, *b),
            (Index(a, qa), Index(b, qb)) => a == b && qa == qb,
            (List(a), List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.same(y, store))
            }
            (AllCols, AllCols) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::ColId;
    use starqo_query::QId;

    #[test]
    fn reqvec_emptiness() {
        let mut r = ReqVec::default();
        assert!(r.is_empty());
        r.temp = true;
        assert!(!r.is_empty());
        let r2 = ReqVec {
            order: Some(vec![QCol::new(QId(0), ColId(0))].into()),
            ..Default::default()
        };
        assert!(!r2.is_empty());
    }

    #[test]
    fn value_equality_and_kinds() {
        let store = RunStore::default();
        let same = |a: RuleValue, b: RuleValue| a.same(&b, &store);
        assert!(same(RuleValue::Int(3), RuleValue::Int(3)));
        assert!(!same(RuleValue::Int(3), RuleValue::Bool(true)));
        assert!(same(
            RuleValue::Sym("NL".into()),
            RuleValue::Sym("NL".into())
        ));
        assert!(!same(
            RuleValue::Sym("NL".into()),
            RuleValue::Str("NL".into())
        ));
        assert_eq!(RuleValue::AllCols.kind(), "*");
        assert_eq!(RuleValue::Preds(PredSet::EMPTY).kind(), "preds");
    }

    #[test]
    fn digest_distinguishes() {
        let store = RunStore::default();
        let d = |v: &RuleValue| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            v.digest(&mut h, &store);
            h.finish()
        };
        let stream = |q| RuleValue::Stream(StreamRef::new(QSet::single(QId(q))));
        assert_ne!(d(&RuleValue::Int(1)), d(&RuleValue::Int(2)));
        assert_eq!(d(&stream(1)), d(&stream(1)));
        assert_ne!(d(&stream(1)), d(&stream(2)));
    }

    /// Four words: a value moves through `Result`s and the operand stack in
    /// two 16-byte halves, never through `memcpy`.
    #[test]
    fn a_value_is_four_words() {
        assert!(std::mem::size_of::<RuleValue>() <= 32);
    }
}

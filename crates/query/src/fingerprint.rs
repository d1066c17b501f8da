//! Canonical query fingerprints and prepared-query parameter slots.
//!
//! A serving layer that caches optimized plans needs a key under which
//! *textually different but semantically interchangeable* queries collide
//! on purpose: the paper's premise is that rule execution is re-runnable
//! data, and re-running it for `WHERE a = 1 AND b = 2` after having just
//! optimized `WHERE b = 2 AND a = 1` is pure waste. The fingerprint
//! therefore normalizes everything about a [`Query`] that does not change
//! the strategy space:
//!
//! * **table-list order** — quantifiers are stably re-ordered by table id;
//! * **conjunct order** — predicates are sorted by a canonical rendering;
//! * **comparison orientation** — `1 = a` becomes `a = 1` (operator
//!   flipped), and OR-disjuncts are sorted;
//! * **literal constants** — every constant becomes a typed bind-parameter
//!   slot `?k`, so `TIER = 1` and `TIER = 2` share one fingerprint (and
//!   one cached plan; the executor evaluates predicates against the
//!   *actual* query, so results stay exact).
//!
//! Canonicalization also produces the remapped [`Query`] itself (the
//! "canonical form"): plans cached under a fingerprint reference
//! quantifiers and predicates by their canonical ids, so any query with
//! the same fingerprint can execute the cached plan against its own
//! canonical form. Aliases never participate: they are names, not
//! semantics.
//!
//! A call renders into one scratch `String`. Each conjunct's two sort keys
//! — abstract (constants as typed `?`) and concrete (constants as values,
//! the tie-break) — are rendered once, side by side, and compared as `&str`
//! slices of it; then the fingerprint text is written there and copied once
//! into its `Arc<str>`. Keys and text come from one renderer whose modes
//! differ only in how a constant is written.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::pred::{PredExpr, PredId, Predicate};
use crate::qset::QId;
use crate::query::Query;
use crate::scalar::{QCol, Scalar};

/// A canonical query fingerprint: the normalized text (the exact cache key,
/// shared by every clone; equal texts are interchangeable up to constants)
/// plus a stable 64-bit FNV-1a hash of it (cheap display / sharding key).
#[derive(Debug, Clone)]
pub struct QueryFingerprint {
    pub hash: u64,
    pub text: Arc<str>,
}

impl PartialEq for QueryFingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for QueryFingerprint {}

impl std::hash::Hash for QueryFingerprint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.text.hash(state);
    }
}

impl fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.hash)
    }
}

/// The canonical form of a query: the remapped/normalized [`Query`] (the
/// one to optimize *and* execute) and its fingerprint.
#[derive(Debug, Clone)]
pub struct CanonicalQuery {
    pub query: Query,
    pub fingerprint: QueryFingerprint,
}

/// Stable 64-bit FNV-1a (deterministic across processes and runs, unlike
/// `DefaultHasher`).
pub fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Canonicalize a query: normalize quantifier and predicate order, orient
/// comparisons, extract constants into slots, and fingerprint the result.
pub fn canonicalize(q: &Query) -> CanonicalQuery {
    // 1. Quantifier order: stable sort by table id. Stability keeps
    //    self-join quantifiers in their original relative order (swapping
    //    them may not be semantics-preserving, so we never conflate it).
    //    A quantifier's id is its position.
    let mut quantifiers = q.quantifiers.clone();
    quantifiers.sort_by_key(|qt| qt.table.0);
    let mut new_of_old = vec![QId(0); quantifiers.len()];
    for (new, qt) in quantifiers.iter_mut().enumerate() {
        new_of_old[qt.id.0 as usize] = QId(new as u32);
        qt.id = QId(new as u32);
    }
    let remap = |c: &mut QCol| c.q = new_of_old[c.q.0 as usize];

    // 2. Remap + orient every predicate, then stable-sort the conjuncts by
    //    their keys. The abstract key (constants as typed `?`) decides
    //    order; the concrete key breaks ties so structurally identical
    //    conjuncts order deterministically — and identically for any
    //    permutation of the same conjunct set. Every key is rendered once,
    //    into `buf`, and compared there as a `&str`.
    let room = q.quantifiers.len() + q.select.len() + q.order_by.len();
    let mut buf = String::with_capacity(64 * (q.predicates.len() + 1) + 8 * room);
    let mut predicates: Vec<Predicate> = q.predicates.clone();
    for p in &mut predicates {
        normalize(&mut p.expr, &remap, &mut buf);
    }
    sort_by_keys(&mut predicates, &mut buf, |p| &p.expr);
    for (i, p) in predicates.iter_mut().enumerate() {
        p.id = PredId(i as u32);
    }
    let mut select = q.select.clone();
    let mut order_by = q.order_by.clone();
    select.iter_mut().chain(&mut order_by).for_each(remap);

    // 3. Render the fingerprint text, numbering constant slots in
    //    canonical traversal order.
    let mut slots = Mode::Numbered(0);
    buf.push_str("Q[");
    for (i, qt) in quantifiers.iter().enumerate() {
        let _ = write!(buf, "{}t{}", if i > 0 { "," } else { "" }, qt.table.0);
    }
    buf.push_str("] W[");
    for (i, p) in predicates.iter().enumerate() {
        if i > 0 {
            buf.push_str(" & ");
        }
        let _ = p.expr.render(&mut buf, &mut slots);
    }
    for (head, cols) in [("] S[", &select), ("] O[", &order_by)] {
        buf.push_str(head);
        for (i, c) in cols.iter().enumerate() {
            let _ = write!(buf, "{}{c}", if i > 0 { "," } else { "" });
        }
    }
    let _ = write!(buf, "] @{}", q.query_site.0);

    CanonicalQuery {
        query: Query {
            quantifiers,
            predicates,
            select,
            order_by,
            query_site: q.query_site,
            facts: Default::default(),
        },
        fingerprint: QueryFingerprint {
            hash: fnv1a64(&buf),
            text: Arc::from(buf.as_str()),
        },
    }
}

/// Remap every column of `e` and orient its comparisons: the side with the
/// smaller key first, the operator flipped to compensate; OR-disjuncts are
/// sorted by their keys. `buf` is left as it was.
fn normalize(e: &mut PredExpr, remap: &impl Fn(&mut QCol), buf: &mut String) {
    match e {
        PredExpr::Cmp(op, l, r) => {
            remap_cols(l, remap);
            remap_cols(r, remap);
            let at = buf.len();
            let (lk, rk) = (keys(buf, l), keys(buf, r));
            if key(buf, rk) < key(buf, lk) {
                std::mem::swap(l, r);
                *op = op.flipped();
            }
            buf.truncate(at);
        }
        PredExpr::Or(ps) => {
            for p in ps.iter_mut() {
                normalize(p, remap, buf);
            }
            sort_by_keys(ps, buf, |p| p);
        }
    }
}

/// Stable-sort `items` by the keys of `expr(item)`, each rendered once past
/// the end of `buf`, which is left as it was.
fn sort_by_keys<T>(items: &mut Vec<T>, buf: &mut String, expr: impl Fn(&T) -> &PredExpr) {
    let at = buf.len();
    let mut keyed: Vec<_> = items.drain(..).map(|t| (keys(buf, expr(&t)), t)).collect();
    keyed.sort_by(|(a, _), (b, _)| key(buf, *a).cmp(&key(buf, *b)));
    items.extend(keyed.into_iter().map(|(_, t)| t));
    buf.truncate(at);
}

/// Render `x`'s abstract then its concrete key onto `buf`, returning the
/// three offsets that bound them.
fn keys(buf: &mut String, x: &impl Render) -> [usize; 3] {
    let start = buf.len();
    let _ = x.render(buf, &mut Mode::Abstract);
    let mid = buf.len();
    let _ = x.render(buf, &mut Mode::Concrete);
    [start, mid, buf.len()]
}

/// The (abstract, concrete) key that [`keys`] rendered at these offsets.
fn key(buf: &str, [start, mid, end]: [usize; 3]) -> (&str, &str) {
    (&buf[start..mid], &buf[mid..end])
}

/// How a constant renders. The rest of an expression renders the same in
/// every mode.
enum Mode {
    /// As its typed slot (`?:int`): what the fingerprint keys on.
    Abstract,
    /// As its value: a deterministic tie-break for sorting only.
    Concrete,
    /// As the next numbered slot (`?0:int`), counting from the one held:
    /// the fingerprint text.
    Numbered(usize),
}

/// The one renderer behind keys and fingerprint text. Writing to a
/// `String` cannot fail.
trait Render {
    fn render(&self, out: &mut String, mode: &mut Mode) -> fmt::Result;
}

impl Render for Scalar {
    fn render(&self, out: &mut String, mode: &mut Mode) -> fmt::Result {
        match self {
            Scalar::Col(c) => write!(out, "{c}"),
            Scalar::Const(v) => {
                let ty = v.data_type();
                let ty: &dyn fmt::Display = ty.as_ref().map_or(&"null", |t| t);
                match mode {
                    Mode::Abstract => write!(out, "?:{ty}"),
                    Mode::Concrete => write!(out, "{v}"),
                    Mode::Numbered(n) => {
                        let k = *n;
                        *n += 1;
                        write!(out, "?{k}:{ty}")
                    }
                }
            }
            Scalar::Arith(op, l, r) => {
                out.push('(');
                l.render(out, mode)?;
                write!(out, " {} ", op.symbol())?;
                r.render(out, mode)?;
                out.push(')');
                Ok(())
            }
        }
    }
}

impl Render for PredExpr {
    fn render(&self, out: &mut String, mode: &mut Mode) -> fmt::Result {
        match self {
            PredExpr::Cmp(op, l, r) => {
                l.render(out, mode)?;
                write!(out, " {} ", op.symbol())?;
                r.render(out, mode)
            }
            PredExpr::Or(ps) => {
                out.push('(');
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" | ");
                    }
                    p.render(out, mode)?;
                }
                out.push(')');
                Ok(())
            }
        }
    }
}

/// Point every column of `s` at its canonical quantifier.
fn remap_cols(s: &mut Scalar, remap: &impl Fn(&mut QCol)) {
    match s {
        Scalar::Col(c) => remap(c),
        Scalar::Const(_) => {}
        Scalar::Arith(_, l, r) => {
            remap_cols(l, remap);
            remap_cols(r, remap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;
    use crate::query::QueryBuilder;
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

    /// DEPT⋈EMP with controllable table order, conjunct order, comparison
    /// orientation, and the MGR constant.
    fn build(tables_flipped: bool, preds_flipped: bool, cmp_flipped: bool, mgr: &str) -> Query {
        let cat = cat();
        let mut b = QueryBuilder::new();
        let (d, e) = if tables_flipped {
            let e = b.quantifier(&cat, "EMP", "E").unwrap();
            let d = b.quantifier(&cat, "DEPT", "D").unwrap();
            (d, e)
        } else {
            let d = b.quantifier(&cat, "DEPT", "D").unwrap();
            let e = b.quantifier(&cat, "EMP", "E").unwrap();
            (d, e)
        };
        let local = PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(d, ColId(1)),
            Scalar::Const(Value::str(mgr)),
        );
        let join = if cmp_flipped {
            PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(e, ColId(1)),
                Scalar::col(d, ColId(0)),
            )
        } else {
            PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(d, ColId(0)),
                Scalar::col(e, ColId(1)),
            )
        };
        if preds_flipped {
            b.predicate(join).unwrap();
            b.predicate(local).unwrap();
        } else {
            b.predicate(local).unwrap();
            b.predicate(join).unwrap();
        }
        b.select(QCol::new(e, ColId(0)));
        b.build().unwrap()
    }

    #[test]
    fn invariant_under_table_pred_and_orientation_permutations() {
        let base = canonicalize(&build(false, false, false, "Haas"));
        for tables in [false, true] {
            for preds in [false, true] {
                for cmp in [false, true] {
                    let c = canonicalize(&build(tables, preds, cmp, "Haas"));
                    assert_eq!(
                        c.fingerprint, base.fingerprint,
                        "permutation ({tables},{preds},{cmp}) changed the fingerprint:\n{}\nvs\n{}",
                        c.fingerprint.text, base.fingerprint.text
                    );
                    // The canonical *query* must be structurally identical
                    // too: same predicate ids mean cached plans transfer.
                    assert_eq!(c.query.predicates.len(), base.query.predicates.len());
                    for (a, b) in c.query.predicates.iter().zip(&base.query.predicates) {
                        assert_eq!(a.expr, b.expr);
                    }
                }
            }
        }
    }

    #[test]
    fn constants_become_shared_slots() {
        let a = canonicalize(&build(false, false, false, "Haas"));
        let b = canonicalize(&build(true, true, true, "Smith"));
        assert_eq!(a.fingerprint, b.fingerprint, "constants must not key");
        assert!(
            a.fingerprint.text.contains("?0:str"),
            "{}",
            a.fingerprint.text
        );
    }

    #[test]
    fn different_shapes_do_not_collide() {
        let base = canonicalize(&build(false, false, false, "Haas"));
        // Drop the local predicate: different conjunct set.
        let cat = cat();
        let mut b = QueryBuilder::new();
        let d = b.quantifier(&cat, "DEPT", "D").unwrap();
        let e = b.quantifier(&cat, "EMP", "E").unwrap();
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(d, ColId(0)),
            Scalar::col(e, ColId(1)),
        ))
        .unwrap();
        b.select(QCol::new(e, ColId(0)));
        let other = canonicalize(&b.build().unwrap());
        assert_ne!(other.fingerprint, base.fingerprint);
        assert_ne!(other.fingerprint.hash, base.fingerprint.hash);
        // Constant *type* does key: int vs string predicates differ.
        let mut b = QueryBuilder::new();
        let d = b.quantifier(&cat, "DEPT", "D").unwrap();
        let e = b.quantifier(&cat, "EMP", "E").unwrap();
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(d, ColId(1)),
            Scalar::Const(Value::Int(7)),
        ))
        .unwrap();
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(d, ColId(0)),
            Scalar::col(e, ColId(1)),
        ))
        .unwrap();
        b.select(QCol::new(e, ColId(0)));
        let int_pred = canonicalize(&b.build().unwrap());
        assert_ne!(int_pred.fingerprint, base.fingerprint);
    }

    #[test]
    fn or_disjunct_order_is_normalized() {
        let cat = cat();
        let mk = |flip: bool| {
            let mut b = QueryBuilder::new();
            let d = b.quantifier(&cat, "DEPT", "D").unwrap();
            let one = PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(d, ColId(0)),
                Scalar::Const(Value::Int(1)),
            );
            let two = PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(d, ColId(0)),
                Scalar::Const(Value::Int(2)),
            );
            let or = if flip {
                PredExpr::Or(vec![two.clone(), one.clone()])
            } else {
                PredExpr::Or(vec![one, two])
            };
            b.predicate(or).unwrap();
            b.select(QCol::new(d, ColId(1)));
            canonicalize(&b.build().unwrap())
        };
        let a = mk(false);
        let b = mk(true);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    /// 10k structurally-varied random queries: equal hashes only for equal
    /// canonical texts (no 64-bit collisions across the sweep).
    #[test]
    fn no_hash_collisions_in_10k_seed_sweep() {
        use std::collections::HashMap;
        // A tiny deterministic PRNG (splitmix64) to avoid a dev-dependency.
        let mut state: u64 = 0x5EED;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let cat = cat();
        let mut seen: HashMap<u64, std::sync::Arc<str>> = HashMap::new();
        for _ in 0..10_000 {
            let mut b = QueryBuilder::new();
            let d = b.quantifier(&cat, "DEPT", "D").unwrap();
            let e = b.quantifier(&cat, "EMP", "E").unwrap();
            // Random conjunct set: each candidate predicate in/out, with
            // random operators — plenty of distinct shapes.
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            let r = next();
            if r & 1 != 0 {
                b.predicate(PredExpr::Cmp(
                    ops[(r >> 1) as usize % 6],
                    Scalar::col(d, ColId(0)),
                    Scalar::col(e, ColId(1)),
                ))
                .unwrap();
            }
            if r & 2 != 0 {
                b.predicate(PredExpr::Cmp(
                    ops[(r >> 4) as usize % 6],
                    Scalar::col(d, ColId(1)),
                    Scalar::Const(Value::Int((next() % 1000) as i64)),
                ))
                .unwrap();
            }
            if r & 4 != 0 {
                b.predicate(PredExpr::Cmp(
                    ops[(r >> 7) as usize % 6],
                    Scalar::col(e, ColId(0)),
                    Scalar::Const(Value::str(format!("s{}", next() % 100))),
                ))
                .unwrap();
            }
            if r & 8 != 0 {
                b.predicate(PredExpr::Cmp(
                    ops[(r >> 10) as usize % 6],
                    Scalar::Arith(
                        crate::scalar::ArithOp::Add,
                        Box::new(Scalar::col(e, ColId(1))),
                        Box::new(Scalar::Const(Value::Int((next() % 16) as i64))),
                    ),
                    Scalar::col(d, ColId(0)),
                ))
                .unwrap();
            }
            for s in 0..1 + (r >> 13) % 3 {
                b.select(QCol::new(
                    if s % 2 == 0 { d } else { e },
                    ColId((s % 2) as u32),
                ));
            }
            if r & 16 != 0 {
                b.order_by(QCol::new(e, ColId(0)));
            }
            let c = canonicalize(&b.build().unwrap());
            if let Some(prev) = seen.insert(c.fingerprint.hash, c.fingerprint.text.clone()) {
                assert_eq!(
                    prev, c.fingerprint.text,
                    "hash collision between distinct canonical texts"
                );
            }
        }
        assert!(seen.len() > 100, "sweep produced too few distinct shapes");
    }

    #[test]
    fn canonical_query_preserves_select_semantics() {
        // Flipped table order: the canonical select list must still name
        // E.NAME (the same underlying column), just through remapped QIds.
        let q = build(true, false, false, "Haas");
        let c = canonicalize(&q);
        assert_eq!(c.query.quantifiers[0].table.0, 0); // DEPT first
        assert_eq!(c.query.quantifiers[1].table.0, 1); // EMP second
        assert_eq!(c.query.select.len(), 1);
        assert_eq!(c.query.select[0].q, QId(1));
        assert_eq!(c.query.select[0].col, ColId(0));
    }
}

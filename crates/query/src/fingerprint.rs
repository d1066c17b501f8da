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

use std::fmt;

use crate::pred::{PredExpr, PredId, Predicate};
use crate::qset::QId;
use crate::query::{Quantifier, Query};
use crate::scalar::{QCol, Scalar};

/// A canonical query fingerprint: the normalized text (the exact cache key,
/// shared by every clone; equal texts are interchangeable up to constants)
/// plus a stable 64-bit FNV-1a hash of it (cheap display / sharding key).
#[derive(Debug, Clone)]
pub struct QueryFingerprint {
    pub hash: u64,
    pub text: std::sync::Arc<str>,
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
    let mut order: Vec<usize> = (0..q.quantifiers.len()).collect();
    order.sort_by_key(|&i| (q.quantifiers[i].table.0, i));
    let mut new_of_old = vec![QId(0); q.quantifiers.len()];
    for (new, &old) in order.iter().enumerate() {
        new_of_old[old] = QId(new as u32);
    }
    let remap = |c: QCol| QCol::new(new_of_old[c.q.0 as usize], c.col);

    let quantifiers: Vec<Quantifier> = order
        .iter()
        .enumerate()
        .map(|(new, &old)| Quantifier {
            id: QId(new as u32),
            alias: q.quantifiers[old].alias.clone(),
            table: q.quantifiers[old].table,
        })
        .collect();

    // 2. Remap + orient every predicate, then sort conjuncts by their
    //    canonical keys, rendered once each. The abstract key (constants as
    //    typed `?`) decides order; the concrete key breaks ties so
    //    structurally identical conjuncts order deterministically — and
    //    identically for any permutation of the same conjunct set.
    let mut preds: Vec<PredExpr> = q
        .predicates
        .iter()
        .map(|p| normalize_expr(remap_expr(&p.expr, &remap)))
        .collect();
    preds.sort_by_cached_key(|e| {
        (
            render_expr(e, RenderMode::Abstract),
            render_expr(e, RenderMode::Concrete),
        )
    });
    let predicates: Vec<Predicate> = preds
        .into_iter()
        .enumerate()
        .map(|(i, expr)| Predicate {
            id: PredId(i as u32),
            expr,
        })
        .collect();

    let select: Vec<QCol> = q.select.iter().map(|&c| remap(c)).collect();
    let order_by: Vec<QCol> = q.order_by.iter().map(|&c| remap(c)).collect();

    // 3. Render the fingerprint text, numbering constant slots in
    //    canonical traversal order.
    let mut slots = 0;
    let mut text = String::from("Q[");
    for (i, qt) in quantifiers.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&format!("t{}", qt.table.0));
    }
    text.push_str("] W[");
    for (i, p) in predicates.iter().enumerate() {
        if i > 0 {
            text.push_str(" & ");
        }
        render_slots(&p.expr, &mut text, &mut slots);
    }
    text.push_str("] S[");
    for (i, c) in select.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&c.to_string());
    }
    text.push_str("] O[");
    for (i, c) in order_by.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&c.to_string());
    }
    text.push_str(&format!("] @{}", q.query_site.0));

    let (hash, text) = (fnv1a64(&text), text.into());
    CanonicalQuery {
        query: Query {
            quantifiers,
            predicates,
            select,
            order_by,
            query_site: q.query_site,
            facts: Default::default(),
        },
        fingerprint: QueryFingerprint { hash, text },
    }
}

fn remap_scalar(s: &Scalar, remap: &impl Fn(QCol) -> QCol) -> Scalar {
    match s {
        Scalar::Col(c) => Scalar::Col(remap(*c)),
        Scalar::Const(v) => Scalar::Const(v.clone()),
        Scalar::Arith(op, l, r) => Scalar::Arith(
            *op,
            Box::new(remap_scalar(l, remap)),
            Box::new(remap_scalar(r, remap)),
        ),
    }
}

fn remap_expr(e: &PredExpr, remap: &impl Fn(QCol) -> QCol) -> PredExpr {
    match e {
        PredExpr::Cmp(op, l, r) => {
            PredExpr::Cmp(*op, remap_scalar(l, remap), remap_scalar(r, remap))
        }
        PredExpr::Or(ps) => PredExpr::Or(ps.iter().map(|p| remap_expr(p, remap)).collect()),
    }
}

/// Orient comparisons (smaller canonical side first, operator flipped to
/// compensate) and sort OR-disjuncts.
fn normalize_expr(e: PredExpr) -> PredExpr {
    match e {
        PredExpr::Cmp(op, l, r) => {
            let lk = (
                scalar_key(&l, RenderMode::Abstract),
                scalar_key(&l, RenderMode::Concrete),
            );
            let rk = (
                scalar_key(&r, RenderMode::Abstract),
                scalar_key(&r, RenderMode::Concrete),
            );
            if rk < lk {
                PredExpr::Cmp(op.flipped(), r, l)
            } else {
                PredExpr::Cmp(op, l, r)
            }
        }
        PredExpr::Or(ps) => {
            let mut ps: Vec<PredExpr> = ps.into_iter().map(normalize_expr).collect();
            ps.sort_by_key(|p| {
                (
                    render_expr(p, RenderMode::Abstract),
                    render_expr(p, RenderMode::Concrete),
                )
            });
            PredExpr::Or(ps)
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum RenderMode {
    /// Constants as typed slots (`?:int`) — what the fingerprint keys on.
    Abstract,
    /// Constants rendered — deterministic tie-break for sorting only.
    Concrete,
}

fn scalar_key(s: &Scalar, mode: RenderMode) -> String {
    match s {
        Scalar::Col(c) => c.to_string(),
        Scalar::Const(v) => match mode {
            RenderMode::Abstract => format!(
                "?:{}",
                v.data_type()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "null".into())
            ),
            RenderMode::Concrete => v.to_string(),
        },
        Scalar::Arith(op, l, r) => format!(
            "({} {} {})",
            scalar_key(l, mode),
            op.symbol(),
            scalar_key(r, mode)
        ),
    }
}

fn render_expr(e: &PredExpr, mode: RenderMode) -> String {
    match e {
        PredExpr::Cmp(op, l, r) => format!(
            "{} {} {}",
            scalar_key(l, mode),
            op.symbol(),
            scalar_key(r, mode)
        ),
        PredExpr::Or(ps) => {
            let parts: Vec<String> = ps.iter().map(|p| render_expr(p, mode)).collect();
            format!("({})", parts.join(" | "))
        }
    }
}

/// Render with each constant as a typed slot, numbered from `*slots` on.
fn render_slots(e: &PredExpr, out: &mut String, slots: &mut usize) {
    fn scalar(s: &Scalar, out: &mut String, slots: &mut usize) {
        match s {
            Scalar::Col(c) => out.push_str(&c.to_string()),
            Scalar::Const(v) => {
                let ty = v
                    .data_type()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "null".into());
                out.push_str(&format!("?{slots}:{ty}"));
                *slots += 1;
            }
            Scalar::Arith(op, l, r) => {
                out.push('(');
                scalar(l, out, slots);
                out.push_str(&format!(" {} ", op.symbol()));
                scalar(r, out, slots);
                out.push(')');
            }
        }
    }
    match e {
        PredExpr::Cmp(op, l, r) => {
            scalar(l, out, slots);
            out.push_str(&format!(" {} ", op.symbol()));
            scalar(r, out, slots);
        }
        PredExpr::Or(ps) => {
            out.push('(');
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                render_slots(p, out, slots);
            }
            out.push(')');
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

//! What parsing and recognizing a query cost the allocator, counted, not
//! timed: `parse_query` allocates only the blocks the `Query` it returns
//! owns — its `Vec`s, one alias `String` per quantifier, and here no string
//! literal or arithmetic box — and a catalog name lookup allocates nothing;
//! `canonicalize` allocates the blocks its `CanonicalQuery` owns and three
//! scratch blocks, and a plan-cache hit allocates nothing. The counter is
//! per thread, so the tests cannot see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, StorageKind};
use starqo_query::{canonicalize, parse_query, Query};
use starqo_serve::{Service, ServiceConfig};

struct Counting;

thread_local! {
    // Const-initialised and without destructors: touching it from inside
    // the allocator neither allocates nor runs during thread teardown.
    /// Allocations and reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}

/// Tables `T0..T9(ID, FK, P0, P1)`, stored as B-trees on `ID` — the
/// ledger's schema.
fn catalog() -> Catalog {
    let mut b = Catalog::builder().site("s");
    for i in 0..10 {
        let key = vec![ColId(0)];
        b = b
            .table(format!("T{i}"), "s", StorageKind::BTree { key }, 200)
            .column("ID", DataType::Int, Some(200))
            .column("FK", DataType::Int, Some(200))
            .column("P0", DataType::Int, Some(16))
            .column("P1", DataType::Int, Some(10));
    }
    b.build().unwrap()
}

fn parse_counted(cat: &Catalog, sql: &str) -> (Query, u64) {
    let (q, n) = allocs(|| parse_query(cat, sql));
    (q.unwrap(), n)
}

/// A `serve_mix` fleet shape: a 3-way chain with one parameter.
const THREE_WAY: &str = "SELECT q0.ID, q2.ID FROM T3 q0, T4 q1, T5 q2 \
                         WHERE q0.FK = q1.ID AND q1.FK = q2.ID AND q0.P0 = 7";

/// `hot_plan`'s `wide5?`: a 5-way clique, 10 join predicates and a
/// parameter.
fn wide5() -> String {
    let mut sql = String::from("SELECT q0.ID, q4.ID FROM T0 q0, T1 q1, T2 q2, T3 q3, T4 q4");
    let mut kw = " WHERE ";
    for a in 0..5 {
        for b in a + 1..5 {
            sql += &format!("{kw}q{a}.FK = q{b}.ID");
            kw = " AND ";
        }
    }
    sql + " AND q0.P0 = 11"
}

/// The 3-way chain's `Query` owns 6 blocks: the quantifier, predicate and
/// select `Vec`s (each within its first allocation of 4) and 3 aliases.
#[test]
fn three_way_allocates_its_six_blocks() {
    let cat = catalog();
    let (q, n) = parse_counted(&cat, THREE_WAY);
    assert_eq!((q.quantifiers.len(), q.predicates.len()), (3, 3));
    assert_eq!(n, 6);
}

/// `wide5?`'s `Query` owns 8 blocks (3 `Vec`s and 5 aliases); pushing
/// grows the quantifier `Vec` once (4 -> 8) and the predicate `Vec` twice
/// (4 -> 8 -> 16), 11 allocator calls in all.
#[test]
fn wide_clique_allocates_its_eight_blocks_and_three_growths() {
    let cat = catalog();
    let (q, n) = parse_counted(&cat, &wide5());
    assert_eq!((q.quantifiers.len(), q.predicates.len()), (5, 11));
    assert_eq!(n, 8 + 3);
}

/// `canonicalize` allocates the blocks its `CanonicalQuery` owns — the
/// quantifier, predicate and select `Vec`s (no ORDER BY here), one alias
/// per quantifier and the fingerprint text's `Arc<str>` — and three scratch
/// blocks it frees: the quantifier map, the render buffer (sized up front)
/// and the conjuncts' key offsets. 3-way: 3 + 3 + 1 + 3 = 10; `wide5?`:
/// 3 + 5 + 1 + 3 = 12.
#[test]
fn canonicalize_allocates_its_blocks_and_three_scratch_blocks() {
    let cat = catalog();
    for (sql, want) in [(THREE_WAY, 10), (&wide5(), 12)] {
        let q = parse_query(&cat, sql).unwrap();
        let (c, n) = allocs(|| canonicalize(&q));
        assert_eq!(c.query.order_by.len(), 0);
        assert_eq!(n, want, "{}", c.fingerprint.text);
    }
}

/// A repeated request for a cached plan, through `optimize_prepared` as the
/// ledger's `serve.hit_allocs` times it, allocates nothing: the hit hands
/// out shared plans.
#[test]
fn a_plan_cache_hit_allocates_nothing() {
    let cat = Arc::new(catalog());
    let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
    for sql in [THREE_WAY, &wide5()] {
        let q = parse_query(&cat, sql).unwrap();
        // A miss, then hits that warm this thread's span buffers.
        for _ in 0..3 {
            svc.optimize(&q).unwrap();
        }
        let prepared = svc.prepare(&q);
        let (out, n) = allocs(|| svc.optimize_prepared(&prepared, None));
        assert!(out.unwrap().cache_hit, "{sql}");
        assert_eq!(n, 0, "{sql}");
    }
}

#[test]
fn catalog_lookups_allocate_nothing() {
    let cat = catalog();
    for name in ["T0", "t0", "T9", "t9"] {
        let (t, n) = allocs(|| cat.table_by_name(name).map(|t| t.id));
        assert!(t.is_ok(), "{name}");
        assert_eq!(n, 0, "table_by_name({name:?})");
    }
    // Lower- and mixed-case tables, aliases and columns still resolve.
    let sql = "select Q0.id, q1.Fk from t0 q0, T1 Q1 where q0.fk = Q1.ID and Q0.p0 = 3";
    let (q, n) = parse_counted(&cat, sql);
    assert_eq!(q.quantifiers[1].alias, "Q1");
    assert_eq!((q.select.len(), q.predicates.len(), n), (2, 2, 5));
}

//! Allocation guards for the cold optimize path, counted, not timed.
//!
//! A counting `GlobalAlloc` whose counters are per thread, so the two tests
//! (and the harness's own threads) cannot see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use starqo_catalog::{Catalog, ColId};
use starqo_core::{OptConfig, Optimizer};
use starqo_plan::{CostModel, Lolepop, PlanError, PropCtx, PropEngine};
use starqo_query::{CmpOp, PredExpr, QCol, Query, QueryBuilder, Scalar};
use starqo_serve::{Service, ServiceConfig};
use starqo_workload::{synth_catalog, SynthSpec};

struct Counting;

thread_local! {
    // Const-initialised and without destructors: touching them from inside
    // the allocator neither allocates nor runs during thread teardown.
    /// Allocations and reallocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread allocated minus blocks it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The largest block this thread allocated or grew to.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE.try_with(|n| n.set(n.get() + 1));
        let _ = LARGEST.try_with(|n| n.set(n.get().max(layout.size())));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = LARGEST.try_with(|n| n.set(n.get().max(new_size)));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`; returns its result, the allocations it made and the blocks it
/// left allocated (both on this thread).
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (a0, l0) = (ALLOCS.get(), LIVE.get());
    let out = f();
    (out, ALLOCS.get() - a0, LIVE.get() - l0)
}

/// `Ti.FK = Tj.ID` for every edge over the first `n` synthetic tables.
fn join_query(cat: &Catalog, n: usize, edges: &[(usize, usize)]) -> Query {
    let mut b = QueryBuilder::new();
    let qs: Vec<_> = (0..n)
        .map(|i| {
            b.quantifier(cat, &format!("T{i}"), &format!("t{i}"))
                .unwrap()
        })
        .collect();
    for &(a, z) in edges {
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(qs[a], ColId(1)),
            Scalar::col(qs[z], ColId(0)),
        ))
        .unwrap();
    }
    b.select(QCol::new(qs[0], ColId(0)));
    b.select(QCol::new(qs[n - 1], ColId(2)));
    b.build().unwrap()
}

fn catalog(tables: usize) -> Arc<Catalog> {
    let spec = SynthSpec {
        tables,
        card_range: (50, 5_000),
        ..Default::default()
    };
    synth_catalog(12, &spec)
}

/// 4.2 allocations per plan built for this query (853 for 202 plans; 855
/// while the engine kept an origin for every plan built) — mostly the
/// property vectors' shared column lists; nodes and SAPs live in the run's
/// store (7.1 while each node and SAP was a block of its own, 17.0 before
/// references stopped paying for their containers, 18.2 after the first
/// diet, 152.8 before it); the ceiling sits ~25 % above today's figure, so
/// a clone or a per-reference vector that creeps back into the expansion
/// loop fails here without a stopwatch.
#[test]
fn cold_optimize_allocations_per_plan_stay_lean() {
    const CEILING: f64 = 5.3;
    let cat = catalog(6);
    let star: Vec<_> = (1..6).map(|spoke| (0, spoke)).collect();
    let query = join_query(&cat, 6, &star);
    let opt = Optimizer::new(cat).unwrap();
    let config = OptConfig::default();

    let (out, allocs, _) = measure(|| opt.optimize(&query, &config).unwrap());
    let per_plan = allocs as f64 / out.stats.plans_built as f64;
    assert!(
        per_plan <= CEILING,
        "{allocs} allocations for {} plans = {per_plan:.1} per plan, ceiling {CEILING}",
        out.stats.plans_built
    );
}

fn eight_way_chain() -> (Optimizer, Query) {
    let cat = catalog(8);
    let chain: Vec<_> = (0..7).map(|i| (i, i + 1)).collect();
    let query = join_query(&cat, 8, &chain);
    (Optimizer::new(cat).unwrap(), query)
}

/// Work ceiling for the enumeration contract: an 8-way chain has 36
/// connected subsets of its 255, and under the default parameters only
/// those are planned — 168 plans built and 815 allocations for this query
/// (818 while the engine kept an origin for every plan built, 1 504 while
/// nodes and SAPs were blocks of their own, 3 703 while every
/// reference, SAP and LOLEPOP application still allocated its own
/// containers). Planning every subset (a Cartesian fallback per subset
/// instead of per level) took 1 602 plans and 43 601 allocations; the
/// ceilings sit ~25 % above today's figures, so exponential subsets fail
/// here, not just on the benchmark ledger.
#[test]
fn eight_way_chain_plans_only_joinable_subsets() {
    const PLANS_CEILING: u64 = 210;
    const ALLOCS_CEILING: u64 = 1_020;
    let (opt, query) = eight_way_chain();
    let config = OptConfig::default();

    LARGEST.set(0);
    let (out, allocs, _) = measure(|| opt.optimize(&query, &config).unwrap());
    // The run's store comes in chunks (a 34 KiB node chunk is this run's
    // largest block): no block reaches glibc's 128 KiB mmap threshold, so
    // none is handed back to the kernel and faulted in again by the next
    // optimization. A star join or `OptConfig::full()` grows the memo's
    // argument arena past it; the store's own blocks at that scale are
    // checked in `store.rs`.
    let largest = LARGEST.get();
    assert!(largest < 128 << 10, "a {largest}-byte block");
    assert!(
        out.stats.plans_built <= PLANS_CEILING && allocs <= ALLOCS_CEILING,
        "{} plans built (ceiling {PLANS_CEILING}), {allocs} allocations (ceiling {ALLOCS_CEILING})",
        out.stats.plans_built
    );
}

/// What a plan-cache entry keeps alive: 64 distinct 5- and 6-way join
/// shapes optimized through one `Service` leave 45.6 blocks allocated per
/// cached entry (74.2 while an entry was the whole run: every root
/// alternative's DAG and an origin for every plan built). The ceiling sits
/// ~25 % above today's figure, so an entry that keeps more of its run than
/// the winner and the winner's origins fails here.
#[test]
fn a_cached_plan_keeps_only_its_winner_alive() {
    const CEILING: f64 = 57.0;
    let cat = catalog(6);
    let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).unwrap();
    // Every tree over 5 tables (each table joins one before it: 4! of
    // them), then the first 40 over 6.
    let trees = (0..24).map(|t| (5, t)).chain((0..40).map(|t| (6, t)));
    let shapes: Vec<(usize, Vec<(usize, usize)>)> = trees
        .map(|(n, t)| {
            let mut radix = 1;
            let edges = (1..n).map(|j| {
                let parent = t / radix % j;
                radix *= j;
                (parent, j)
            });
            (n, edges.collect())
        })
        .collect();
    let ((), _, live) = measure(|| {
        for (n, edges) in &shapes {
            svc.optimize(&join_query(&cat, *n, edges)).unwrap();
        }
    });
    assert_eq!(svc.cache_len(), 64, "64 distinct shapes, none evicted");
    let per_entry = live as f64 / 64.0;
    assert!(
        per_entry <= CEILING,
        "{live} blocks live, {per_entry:.1} per entry, ceiling {CEILING}"
    );
}

/// `with` bindings are evaluated when first read: the `enabled(...)`-gated
/// `JMeth` groups of `extensions.star` reject their alternative before
/// reading one, so the default configuration stopped paying for them
/// (994 native calls on this query; 1 498 while bindings were evaluated
/// eagerly — the ceiling is three quarters of that) and `OptConfig::full()`,
/// which reads nearly all of them, pays no more than it did (33 859). The
/// winners are the ones eager evaluation chose.
#[test]
fn unread_bindings_cost_no_native_calls() {
    let (opt, query) = eight_way_chain();
    for (config, calls_ceiling, cost, ops) in [
        (OptConfig::default(), 1_123, 5_893.103_687_552, 28),
        (OptConfig::full(), 33_859, 854.178, 16),
    ] {
        let out = opt.optimize(&query, &config).unwrap();
        let calls = out.stats.native_calls;
        assert!(calls <= calls_ceiling, "{calls} native calls");
        let total = out.best.props.cost.total();
        assert!((total - cost).abs() < 1e-6, "winner costs {total}");
        assert_eq!(out.best.op_count(), ops);
    }
}

/// A rule file that applies an operator to the wrong number of inputs gets
/// this error on every reference; it must own its text, not leak it.
#[test]
fn arity_errors_do_not_leak() {
    let cat = synth_catalog(12, &SynthSpec::default());
    let mut b = QueryBuilder::new();
    let q = b.quantifier(&cat, "T0", "t0").unwrap();
    b.select(QCol::new(q, ColId(0)));
    let query = b.build().unwrap();
    let model = CostModel::default();
    let ctx = PropCtx::new(&cat, &query, &model);
    let engine = PropEngine::new();

    let fire = || engine.derive(&Lolepop::Store, &[], &ctx).unwrap_err();
    assert_eq!(fire().to_string(), "STORE: expected 1 inputs, got 0");
    let ((), _, live) = measure(|| {
        for _ in 0..10_000 {
            assert!(matches!(fire(), PlanError::Arity { .. }));
        }
    });
    assert_eq!(live, 0, "{live} blocks still allocated after 10 000 errors");
}

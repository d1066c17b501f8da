//! Allocation ceilings for the executed serve path, counted, not timed.
//!
//! `starqo-vexec` keeps rows columnar from the base tables to the result:
//! the only per-row allocation left is the result row's `Tuple`, and a
//! correlated nested-loop inner re-run per outer row reuses pooled buffers.
//! So a run may allocate `rows_out` plus a fixed per-operator budget — not,
//! like the row-at-a-time engine, several blocks per row per operator — and
//! a second run on the same executor, whose pools are full by then, only
//! what compiling the plan and building the result take. A plan-cache hit
//! on the way there allocates nothing. The counters are per thread, so the
//! tests cannot see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, StorageKind, Value};
use starqo_core::{OptConfig, Optimizer};
use starqo_exec::{is_correlated, Executor};
use starqo_plan::{JoinFlavor, Lolepop, PlanRef};
use starqo_query::{parse_query, Query};
use starqo_serve::{Service, ServiceConfig};
use starqo_storage::{Database, DatabaseBuilder};
use starqo_trace::runmem::{self, PARK_FROM_RUN};
use starqo_trace::SpanMode;
use starqo_vexec::VexecExecutor;
use starqo_workload::Rng64;

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

/// Tables `T0..Tn(ID, FK, P0)`: `ID` dense, `FK` uniform over the next
/// table's `ID`s — the ledger's schema. `indexed` adds a B-tree on `ID`
/// storage and an index on `FK`, like its `serve_mix` tables.
fn fixture(rows: &[u64], indexed: bool) -> (Arc<Catalog>, Database) {
    let mut b = Catalog::builder().site("s");
    for (i, card) in rows.iter().enumerate() {
        let storage = match indexed {
            true => StorageKind::BTree {
                key: vec![ColId(0)],
            },
            false => StorageKind::Heap,
        };
        b = b
            .table(format!("T{i}"), "s", storage, *card)
            .column("ID", DataType::Int, Some(*card))
            .column("FK", DataType::Int, Some(rows[(i + 1) % rows.len()]))
            .column("P0", DataType::Int, Some(16));
        if indexed {
            b = b.index(format!("T{i}_FK"), &format!("T{i}"), &["FK"], false, false);
        }
    }
    let cat = Arc::new(b.build().unwrap());
    let mut rng = Rng64::new(7);
    let mut db = DatabaseBuilder::new(cat.clone());
    for (i, card) in rows.iter().enumerate() {
        let next = rows[(i + 1) % rows.len()];
        for id in 0..*card {
            let row = [id, rng.below(next), rng.below(16)].map(|v| Value::Int(v as i64));
            db.insert(&format!("T{i}"), row.to_vec()).unwrap();
        }
    }
    (cat, db.build().unwrap())
}

/// One served plan, the allocations of its first run through vexec
/// (executor construction included) and of a second run on that executor.
struct Served {
    query: Query,
    plan: PlanRef,
    rows_out: u64,
    allocs: u64,
    rerun_allocs: u64,
}

impl Served {
    /// Fail unless `allocs` stays within `budget` beyond the result rows.
    fn assert_within(&self, what: &str, allocs: u64, budget: u64) {
        let rows_out = self.rows_out;
        assert!(
            allocs <= rows_out + budget,
            "{what}: {allocs} allocations for {rows_out} result rows: {} beyond them, budget {budget}",
            allocs.saturating_sub(rows_out)
        );
    }
}

/// Optimize with the service's default configuration; run twice through
/// one vexec executor counting allocations; check both results against the
/// oracle.
fn served_run(cat: &Arc<Catalog>, db: &Database, sql: &str) -> Served {
    let query = parse_query(cat, sql).unwrap();
    let plan = Optimizer::new(cat.clone())
        .unwrap()
        .optimize(&query, &OptConfig::default())
        .unwrap()
        .best;
    let before = ALLOCS.get();
    let mut vx = VexecExecutor::new(db, &query);
    let got = vx.run(&plan).unwrap();
    let allocs = ALLOCS.get() - before;
    let again = vx.run(&plan).unwrap();
    let rerun_allocs = ALLOCS.get() - before - allocs;
    let want = Executor::new(db, &query).run(&plan).unwrap();
    assert!(
        got == want && again == want,
        "vexec diverged from the oracle"
    );
    Served {
        rows_out: want.rows.len() as u64,
        query,
        plan,
        allocs,
        rerun_allocs,
    }
}

fn count_ops(plan: &PlanRef, name: &str) -> usize {
    plan.op_names().iter().filter(|n| *n == name).count()
}

/// The ledger's `exec_join` shape: a 3-way chain over unindexed ~3 k-row
/// heaps is served as two merge joins over four Glue-inserted SORTs. The
/// run measures 80 allocations beyond its 2 807 result rows (compiled plan,
/// typed column buffers and their growth, the radix sort's buffers, one
/// match list a merge, reserved up front); the row-at-a-time oracle makes
/// 49 755 for the same plan. A second run measures 44: the plan, the two
/// match lists, the result.
#[test]
fn sort_merge_plan_allocates_per_operator_not_per_row() {
    let (cat, db) = fixture(&[3_000, 2_500, 3_500], false);
    let sql = "SELECT a.ID, c.P0 FROM T0 a, T1 b, T2 c \
               WHERE a.FK = b.ID AND b.FK = c.ID AND a.P0 >= 1";
    let run = served_run(&cat, &db, sql);
    let ops = run.plan.op_names();
    assert_eq!(count_ops(&run.plan, "JOIN(MG)"), 2, "{ops:?}");
    assert_eq!(count_ops(&run.plan, "SORT"), 4, "{ops:?}");
    assert!(run.rows_out > 2_500, "the join keeps most of T0: {ops:?}");
    run.assert_within("first run", run.allocs, 100);
    run.assert_within("second run", run.rerun_allocs, 55);
}

/// The ledger's `serve_mix` shape: small indexed tables are served as
/// nested loops whose inner — here an index probe and its GET — is bound by
/// the outer row. The compiled inner is re-run per outer row out of pooled
/// buffers, so the ~110 outer rows cost no allocations of their own: the
/// run measures 81 beyond its 244 result rows, where the bindings-map
/// oracle makes 2 739 for the same plan. A second run on the same executor
/// measures 28 — the compiled plan and the result vector: every column,
/// selection and sort buffer it needs is already in the executor's pools,
/// the outer's included, which the join hands back like its inner's.
#[test]
fn correlated_inner_reruns_allocate_nothing_per_outer_row() {
    let (cat, db) = fixture(&[2_000, 1_000, 400, 200], true);
    let sql = "SELECT a.ID, b.P0 FROM T3 a, T0 b WHERE a.ID = b.FK AND a.P0 <= 8";
    let run = served_run(&cat, &db, sql);
    let (query, plan) = (&run.query, &run.plan);
    let correlated = plan.any(&|n| {
        matches!(
            n.op,
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                ..
            }
        ) && n.inputs.get(1).is_some_and(|i| is_correlated(i, query))
    });
    let ops = plan.op_names();
    assert!(correlated, "expected a sideways-bound inner: {ops:?}");
    assert_eq!(count_ops(plan, "ACCESS(index)"), 1, "{ops:?}");
    assert!(
        run.rows_out >= 150,
        "{} result rows from {ops:?}",
        run.rows_out
    );
    run.assert_within("first run", run.allocs, 95);
    run.assert_within("second run", run.rerun_allocs, 35);
}

/// The ledger's `exec_scan` access: two integer range predicates over a
/// 32 000-row all-integer heap. The table's integer mirror is resolved to
/// slices inside the emit step, per batch — borrowing, never allocating: the
/// run over the mirrored table makes exactly the allocations of the run over
/// the same rows without a mirror (measured, both: 29 beyond the 606 result
/// rows, 6 on a second run — the compiled plan, the result, the output
/// columns' growth).
#[test]
fn mirrored_scan_allocates_no_more_than_the_unmirrored_one() {
    let (cat, db) = fixture(&[32_000, 1_000], false);
    let t0 = cat.table_by_name("T0").unwrap().id;
    // The same rows plus one the predicates reject, inserted after `build`.
    let mut plain = db.clone();
    let late = [32_000, 999, 0].map(Value::Int).to_vec();
    plain.insert(t0, starqo_storage::Tuple(late)).unwrap();
    assert!((0..3).all(|c| db.table(t0).unwrap().int_column(c).is_some()));
    assert!((0..3).all(|c| plain.table(t0).unwrap().int_column(c).is_none()));
    let sql = "SELECT a.ID, a.FK FROM T0 a WHERE a.P0 >= 12 AND a.FK < 75";
    let [mirrored, plain] = [&db, &plain].map(|db| served_run(&cat, db, sql));
    assert_eq!(mirrored.plan.op_names(), ["ACCESS(heap)"]);
    assert!(mirrored.rows_out > 400 && mirrored.rows_out == plain.rows_out);
    assert!(
        mirrored.allocs <= plain.allocs && mirrored.rerun_allocs <= plain.rerun_allocs,
        "mirrored {} then {}, unmirrored {} then {}",
        mirrored.allocs,
        mirrored.rerun_allocs,
        plain.allocs,
        plain.rerun_allocs
    );
    mirrored.assert_within("first run", mirrored.allocs, 40);
    mirrored.assert_within("second run", mirrored.rerun_allocs, 15);
}

/// `pages_read` of `run`'s plan — one number, because the oracle and vexec
/// at 1, 2 and 8 workers must return the same rows and charge the same pages.
fn pages_read_everywhere(db: &Database, run: &Served) -> u64 {
    let mut oracle = Executor::new(db, &run.query);
    let want = oracle.run(&run.plan).unwrap();
    let pages = oracle.stats().pages_read;
    for workers in [1, 2, 8] {
        let mut vx = VexecExecutor::new(db, &run.query);
        vx.set_workers(workers);
        assert!(vx.run(&run.plan).unwrap() == want, "{workers} workers");
        assert_eq!(vx.stats().pages_read, pages, "{workers} workers");
    }
    pages
}

/// Correlated nested loops whose inners are `ACCESS(btree)` under the
/// pushed-down join predicate.
fn keyed_inners(run: &Served) -> usize {
    let mut n = 0;
    run.plan.visit(&mut |node| {
        let inner = node.inputs.get(1).filter(|i| is_correlated(i, &run.query));
        n += inner.is_some_and(|i| i.op.name() == "ACCESS(btree)") as usize;
    });
    n
}

/// The ledger's commonest `serve_mix` shape (`star3?`): both inners are
/// B-tree-stored tables bound on their key by the outer row, so each re-run
/// reads the one row under that key — a page per outer row, in the oracle
/// and at every worker count — and allocates nothing of its own.
#[test]
fn keyed_inner_reruns_read_one_page_and_allocate_nothing_per_outer_row() {
    let (cat, db) = fixture(&[120, 1_000, 2_000], true);
    let sql = "SELECT a.ID, c.ID FROM T0 a, T1 b, T2 c \
               WHERE a.FK = b.ID AND a.FK = c.ID AND a.P0 = 5";
    let run = served_run(&cat, &db, sql);
    let ops = run.plan.op_names();
    assert_eq!(keyed_inners(&run), 2, "{ops:?}");
    assert!(run.rows_out >= 4, "{} rows from {ops:?}", run.rows_out);
    // Measured: 63 beyond the 7 result rows, 36 on the second run — the
    // compiled plan (three accesses, two of them with a key prefix of five
    // small blocks each) and the result; nothing grows with the outer, and
    // both joins return their outers' buffers to the pool.
    run.assert_within("first run", run.allocs, 75);
    run.assert_within("second run", run.rerun_allocs, 45);
    // T0 once (2 pages), then one page of T1 and one of T2 under each of
    // its surviving rows — every `FK` names a row of both.
    assert_eq!(pages_read_everywhere(&db, &run), 2 + 2 * run.rows_out);
}

/// Executed what was priced: the optimizer costs an `ACCESS(btree)` bound on
/// its key at the page the row is on, and that is what both engines read —
/// `outer_rows × 1` pages of a 10 000-row inner, not `outer_rows × 157`.
#[test]
fn keyed_inner_costs_what_the_optimizer_priced() {
    let (cat, db) = fixture(&[300, 10_000], true);
    let sql = "SELECT a.ID, b.P0 FROM T0 a, T1 b WHERE a.FK = b.ID AND a.P0 <= 3";
    let run = served_run(&cat, &db, sql);
    assert_eq!(keyed_inners(&run), 1, "{:?}", run.plan.op_names());
    let inner = &run.plan.inputs[1];
    let priced = inner.props.cost.rescan;
    assert!(
        priced < 2.0,
        "a 157-page table priced at {priced} per re-scan"
    );
    // Every `FK` names a row of T1, so each outer row comes out once.
    assert!(run.rows_out > 50, "{} outer rows", run.rows_out);
    let outer_pages = 300u64.div_ceil(64);
    assert_eq!(pages_read_everywhere(&db, &run), outer_pages + run.rows_out);
}

/// A warmed plan-cache hit through the service allocates nothing: the cache
/// entry, its flight and the returned `ServeOutcome` share the fingerprint
/// text `Service::prepare` built, and the default configuration records no
/// spans.
#[test]
fn warmed_cache_hit_allocates_nothing() {
    let (cat, _) = fixture(&[200, 100], true);
    let svc = Service::new(cat.clone(), ServiceConfig::default()).unwrap();
    let sql = "SELECT a.ID, b.P0 FROM T0 a, T1 b WHERE a.FK = b.ID AND a.P0 = 3";
    let prepared = svc.prepare(&parse_query(&cat, sql).unwrap());
    // One miss, then hits until every lazily built per-thread slot exists.
    for _ in 0..4 {
        svc.optimize_prepared(&prepared, None).unwrap();
    }
    let before = ALLOCS.get();
    let outcome = svc.optimize_prepared(&prepared, None).unwrap();
    let allocs = ALLOCS.get() - before;
    assert!(outcome.cache_hit);
    assert_eq!(allocs, 0, "a warmed cache hit allocated {allocs} blocks");
}

/// `f` on a fresh thread, whose parking threshold counts from zero.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

const JOIN_SQL: &str = "SELECT a.ID, c.P0 FROM T0 a, T1 b, T2 c \
                        WHERE a.FK = b.ID AND b.FK = c.ID AND a.P0 >= 1";

/// The ledger's `exec_join` shape served by `Service::execute` on a thread
/// past the parking threshold: a cache hit, then a run whose column, sort
/// and scratch buffers all come out of the thread's run memory. What is left
/// is the request's fingerprint, compiling the plan, the merges' match lists
/// and the result: measured 118 beyond the 2 807 result rows, where the same
/// request measured 180 when every executor freed its buffers after its run.
#[test]
fn served_execute_past_the_threshold_allocates_compile_and_result_only() {
    let (cat, db) = fixture(&[3_000, 2_500, 3_500], false);
    let svc = Service::new(cat.clone(), ServiceConfig::default()).unwrap();
    let query = parse_query(&cat, JOIN_SQL).unwrap();
    let (allocs, rows_out) = on_fresh_thread(|| {
        for _ in 0..PARK_FROM_RUN {
            svc.execute(&db, &query).unwrap();
        }
        let before = ALLOCS.get();
        let (result, outcome) = svc.execute(&db, &query).unwrap();
        let allocs = ALLOCS.get() - before;
        assert!(outcome.cache_hit);
        (allocs, result.rows.len() as u64)
    });
    assert!(rows_out > 2_500);
    let beyond = allocs.saturating_sub(rows_out);
    assert!(
        beyond <= 130,
        "{allocs} allocations for {rows_out} result rows"
    );
}

/// A thread parks nothing before its `PARK_FROM_RUN`th executor run — a
/// setup or warm-up thread that runs fewer hands every run's memory back,
/// as before — and parks from that run on.
#[test]
fn a_thread_below_the_threshold_parks_nothing() {
    let (cat, db) = fixture(&[3_000, 2_500, 3_500], false);
    let run = served_run(&cat, &db, JOIN_SQL);
    on_fresh_thread(|| {
        for i in 1..PARK_FROM_RUN {
            VexecExecutor::new(&db, &run.query).run(&run.plan).unwrap();
            assert_eq!(runmem::held(), (0, 0), "run {i} parked");
        }
        VexecExecutor::new(&db, &run.query).run(&run.plan).unwrap();
        assert!(runmem::held().0 > 0, "run {PARK_FROM_RUN} parked nothing");
    });
}

/// Only the executor's runs count towards its threshold: a service that
/// records a span tree per request, whose span buffer parks from the first
/// request, parks the executor's buffers from the same request as one that
/// records none.
#[test]
fn span_mode_does_not_move_the_parking_threshold() {
    let (cat, db) = fixture(&[3_000, 2_500, 3_500], false);
    let query = parse_query(&cat, JOIN_SQL).unwrap();
    for spans in [SpanMode::Off, SpanMode::Tail, SpanMode::Full] {
        let mut config = ServiceConfig::default();
        config.telemetry.spans = spans;
        let svc = Service::new(cat.clone(), config).unwrap();
        let first_parked = on_fresh_thread(|| {
            (1..=2 * PARK_FROM_RUN).find(|_| {
                svc.execute(&db, &query).unwrap();
                runmem::held().0 > 0
            })
        });
        assert_eq!(first_parked, Some(PARK_FROM_RUN), "{spans:?}");
    }
}

/// Bounded by use: after a large run, a thread's small runs check out its
/// parked set, and what they park again never exceeds what the large run had
/// checked out at once.
#[test]
fn parked_bytes_stay_within_the_largest_runs_checkout() {
    let (cat, db) = fixture(&[3_000, 2_500, 3_500], false);
    let large = served_run(&cat, &db, JOIN_SQL);
    let small = served_run(&cat, &db, "SELECT a.ID, a.FK FROM T1 a WHERE a.P0 = 3");
    on_fresh_thread(|| {
        let run = |r: &Served| VexecExecutor::new(&db, &r.query).run(&r.plan).unwrap();
        for _ in 0..PARK_FROM_RUN {
            run(&small);
        }
        let (_, small_peak) = runmem::held();
        run(&large);
        let (parked, peak) = runmem::held();
        assert!(
            peak > 4 * small_peak && parked <= peak,
            "{parked} of {peak}"
        );
        for i in 0..10 {
            run(&small);
            let (parked, bound) = runmem::held();
            assert!(
                parked <= peak && bound == peak,
                "run {i}: {parked} of {bound}"
            );
        }
    });
}

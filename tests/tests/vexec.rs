//! Hand-built fixtures for the vectorized executor.
//!
//! `starqo-vexec` advertises one non-negotiable invariant: for every plan
//! it supports, its output is **identical** to the serial `starqo-exec`
//! interpreter — same rows, same order, same schema — at any worker count.
//! Every optimizer alternative of a generated query is checked for that by
//! `diff::check` (the random fleet and degraded plans below), and the
//! generator's size class reaches the engine's real sizes: tables of two or
//! three morsels whose duplicate-key runs cross batch and morsel boundaries,
//! with key columns demoted in one morsel and not the next. The plans here
//! are the cases a generator does not reach: empty/partial selection
//! vectors, injected faults under multi-threaded morsel scheduling, and
//! hand-built join, sort, key-range and scan plans at the edges of the key
//! domain. Each goes through `diff::check_plan`; what a fixture asserts
//! beyond that (row counts, order, stability, pages read) stays here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use starqo_core::{OptConfig, Optimizer};
use starqo_exec::{ExecError, QueryResult};
use starqo_integration::diff::{check_plan, check_seeds};
use starqo_integration::diff::{SEED_SLICES, WORKER_COUNTS};
use starqo_plan::PlanRef;
use starqo_trace::runmem::{self, PARK_FROM_RUN};
use starqo_vexec::{supports, VexecExecutor};
use starqo_workload::{
    query_shape, query_shape_param, synth_catalog, synth_database, QueryShape, Rng64, SynthSpec,
};

/// Every alternative of the second slice of the generated cases runs
/// identically on vexec at 1, 2 and 8 workers and on the serial executor;
/// at least half of them have a correlated nested-loop inner.
#[test]
fn vexec_matches_serial_on_random_fleet() {
    check_seeds(SEED_SLICES[1].clone());
}

/// The third slice: at least half its seeds degrade under the plan cap,
/// and each degraded winner runs identically on both engines and equals
/// the reference.
#[test]
fn vexec_matches_serial_on_degraded_plans() {
    check_seeds(SEED_SLICES[2].clone());
}

/// Parked buffers carry no rows from one run into the next. On a thread
/// past the parking threshold, where every executor checks out the buffers
/// the last one parked, a 3-way join over ~3 k-row tables and a small one
/// alternate for 20 runs at 1, 2 and 8 workers, and every result equals the
/// oracle's.
#[test]
fn vexec_parked_buffers_hold_no_stale_rows() {
    let plan_of = |seed: u64, card_range: (u64, u64), local_pred: bool| {
        let spec = SynthSpec {
            tables: 3,
            card_range,
            ..Default::default()
        };
        let cat = synth_catalog(seed, &spec);
        let db = synth_database(seed, cat.clone());
        let query = query_shape(&cat, QueryShape::Chain, 3, local_pred);
        let opt = Optimizer::new(cat).unwrap();
        let plan = opt.optimize(&query, &OptConfig::default()).unwrap().best;
        let want = check_plan(&db, &query, &plan, "parked").unwrap();
        (db, query, plan, want)
    };
    let large = plan_of(3, (2_000, 4_000), false);
    let small = plan_of(4, (10, 80), true);
    assert!(large.3.rows.len() > 10 * small.3.rows.len().max(1));
    std::thread::scope(|s| {
        s.spawn(|| {
            let (db, query, plan, _) = &small;
            for _ in 0..PARK_FROM_RUN {
                VexecExecutor::new(db, query).run(plan).unwrap();
            }
            for run in 0..20 {
                let (db, query, plan, want) = [&large, &small][run % 2];
                for w in WORKER_COUNTS {
                    let mut vx = VexecExecutor::new(db, query);
                    vx.set_workers(w);
                    let got = vx.run(plan).unwrap();
                    assert!(got == *want, "run {run}, {w} workers: diverged");
                }
                assert!(runmem::held().0 > 0, "run {run}: nothing parked");
            }
        });
    });
}

/// Selection-vector edges: a local predicate that matches nothing (empty
/// batches all the way through), one that matches a strict subset, and the
/// no-predicate full-selection case all agree with the oracle.
#[test]
fn vexec_handles_empty_and_partial_selections() {
    let spec = SynthSpec {
        tables: 2,
        card_range: (300, 600),
        index_prob: 1.0,
        btree_prob: 0.0,
        ..Default::default()
    };
    let cat = synth_catalog(7, &spec);
    let db = synth_database(7, cat.clone());
    let opt = Optimizer::new(cat.clone()).unwrap();
    // P0 is drawn from 0..ndv, so -1 never matches, 0 matches a subset,
    // and None drops the local predicate entirely.
    for (param, expect_empty) in [(Some(-1), true), (Some(0), false), (None, false)] {
        let query = query_shape_param(&cat, QueryShape::Chain, 2, param);
        let out = opt
            .optimize(&query, &OptConfig::full().enable("hashjoin"))
            .unwrap();
        for plan in out
            .root_alternatives
            .iter()
            .chain(std::iter::once(&out.best))
        {
            let want = check_plan(&db, &query, plan, &format!("param {param:?}")).unwrap();
            if expect_empty {
                assert!(want.rows.is_empty(), "param -1 should select nothing");
            }
        }
    }
}

/// A panic inside a morsel worker is contained: the pool drains, the run
/// returns `ExecError::Panicked`, and nothing deadlocks — even at 8
/// workers with every morsel panicking.
#[test]
fn vexec_contains_worker_panics() {
    let spec = SynthSpec {
        tables: 2,
        card_range: (9_000, 9_200),
        index_prob: 0.0,
        btree_prob: 0.0,
        ..Default::default()
    };
    let cat = synth_catalog(11, &spec);
    let db = synth_database(11, cat.clone());
    let query = query_shape(&cat, QueryShape::Chain, 2, false);
    let opt = Optimizer::new(cat).unwrap();
    let out = opt.optimize(&query, &OptConfig::full()).unwrap();
    let plan = out.best.clone();
    assert!(supports(&plan, &query).is_ok(), "best plan unsupported");

    // Panic in morsel workers.
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    let mut vx = VexecExecutor::new(&db, &query);
    vx.set_workers(8);
    vx.set_fault_hook(Arc::new(move |site: &str| {
        if site.starts_with("morsel(") {
            h.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: worker panic at {site}");
        }
        None
    }));
    match vx.run(&plan) {
        Err(ExecError::Panicked(msg)) => assert!(msg.contains("chaos"), "wrong panic: {msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(hits.load(Ordering::Relaxed) > 0, "hook never fired");

    // Typed injected error at the exchange point.
    let mut vx = VexecExecutor::new(&db, &query);
    vx.set_workers(8);
    vx.set_fault_hook(Arc::new(|site: &str| {
        site.starts_with("exchange(")
            .then(|| format!("chaos: exchange fault at {site}"))
    }));
    match vx.run(&plan) {
        Err(ExecError::Injected(msg)) => assert!(msg.contains("exchange"), "wrong site: {msg}"),
        other => panic!("expected Injected, got {other:?}"),
    }

    // A clean executor on the same plan still matches the oracle — the
    // fault runs above poisoned nothing shared.
    check_plan(&db, &query, &plan, "post-chaos").unwrap();
}

// ---- targeted cases the fleet cannot guarantee ------------------------
//
// Hand-built plans over two small tables, `L(K, V, J, P)` and `R(K, W, J, P)`
// (index `R_I0` on `R.K`), joined on `L.K = R.K`. `V`/`W` are distinct per row,
// so a result row names exactly which source rows met and in what order. The
// wide form of the fixture also joins on `J` and compares the `P`s.

mod edge {
    use starqo_catalog::{ColId, DataType, Value, TID_COL};
    use starqo_integration::diff::{node, Case, Table};
    use starqo_plan::{AccessSpec, ColSet, JoinFlavor, Lolepop, PlanNode, PlanRef};
    use starqo_query::{parse_query, PredId, PredSet, QCol, QId, Query};
    use starqo_storage::Database;

    pub const L: QId = QId(0);
    pub const R: QId = QId(1);
    pub const P_JOIN: PredId = PredId(0);
    const P_L: PredId = PredId(1);
    const P_R: PredId = PredId(2);
    /// `L.P < R.P` and `L.J = R.J`, in the wide form only.
    pub const P_LESS: PredId = PredId(3);
    pub const P_JOIN_J: PredId = PredId(4);

    /// A wide row less its row number: `[K, J, P]`.
    pub type Row = [Value; 3];

    pub fn preds(ids: &[PredId]) -> PredSet {
        ids.iter()
            .fold(PredSet::EMPTY, |s, p| s.union(PredSet::single(*p)))
    }

    pub struct Edge {
        pub db: Database,
        pub query: Query,
    }

    pub fn qc(q: QId, c: u32) -> QCol {
        QCol::new(q, ColId(c))
    }

    fn cols(items: &[QCol]) -> ColSet {
        items.iter().copied().collect()
    }

    impl Edge {
        /// `l`/`r`: the key column of each table, row by row; `V`/`W` are
        /// the row numbers. Local predicates `L.V >= l_min AND R.W >= r_min`
        /// let a side be emptied without changing the plan shape.
        pub fn new(l: &[Value], r: &[Value], l_min: i64, r_min: i64) -> Edge {
            let zero = Value::Int(0);
            let narrow = |keys: &[Value]| -> Vec<Row> {
                let row = |k: &Value| [k.clone(), zero.clone(), zero.clone()];
                keys.iter().map(row).collect()
            };
            Edge::load(&narrow(l), &narrow(r), l_min, r_min, "")
        }

        /// The wide form: `l`/`r` give `[K, J, P]` row by row, and the query
        /// also holds [`P_LESS`] and [`P_JOIN_J`] for a plan to apply.
        pub fn wide(l: &[Row], r: &[Row]) -> Edge {
            Edge::load(l, r, 0, 0, " AND L.P < R.P AND L.J = R.J")
        }

        fn load(l: &[Row], r: &[Row], l_min: i64, r_min: i64, more: &str) -> Edge {
            let table = |name: &str, key, v: &str, rows: &[Row]| {
                let row = |(i, [k, j, p]): (usize, &Row)| {
                    vec![k.clone(), Value::Int(i as i64), j.clone(), p.clone()]
                };
                let t = Table::new(name, rows.len() as u64).col("K", key, None);
                let t = t.col(v, DataType::Int, None).col("J", DataType::Int, None);
                let t = t.col("P", DataType::Int, None);
                t.rows(rows.iter().enumerate().map(row).collect())
            };
            let sql = format!(
                "SELECT L.V, R.W FROM L, R \
                 WHERE L.K = R.K AND L.V >= {l_min} AND R.W >= {r_min}{more}"
            );
            let r = table("R", DataType::Double, "W", r).index(&["K"]);
            let case = Case::new(&sql, vec![table("L", DataType::Int, "V", l), r]);
            let cat = case.catalog();
            let query = parse_query(&cat, &sql).unwrap();
            Edge {
                db: case.databases(&cat).remove(0),
                query,
            }
        }

        fn build(&self, op: Lolepop, inputs: Vec<PlanRef>) -> PlanRef {
            node(&self.db, &self.query, op, inputs)
        }

        fn local(q: QId) -> PredId {
            if q == L {
                P_L
            } else {
                P_R
            }
        }

        /// `ACCESS(heap)` of one side with its local predicate, plus `extra`.
        pub fn scan(&self, q: QId, extra: PredSet) -> PlanRef {
            self.access(q, &[0, 1], extra)
        }

        /// [`Self::scan`] carrying the columns `carry`.
        fn access(&self, q: QId, carry: &[u32], extra: PredSet) -> PlanRef {
            let carry: Vec<QCol> = carry.iter().map(|c| qc(q, *c)).collect();
            self.build(
                Lolepop::Access {
                    spec: AccessSpec::HeapTable(q),
                    cols: cols(&carry),
                    preds: PredSet::single(Self::local(q)).union(extra),
                },
                vec![],
            )
        }

        pub fn sorted(&self, q: QId) -> PlanRef {
            let key = vec![qc(q, 0)].into();
            self.build(Lolepop::Sort { key }, vec![self.scan(q, PredSet::EMPTY)])
        }

        pub fn join(&self, flavor: JoinFlavor, outer: PlanRef, inner: PlanRef) -> PlanRef {
            let join_preds = PredSet::single(P_JOIN);
            let residual = PredSet::EMPTY;
            let op = Lolepop::Join {
                flavor,
                join_preds,
                residual,
            };
            self.build(op, vec![outer, inner])
        }

        /// The three flavors of one join — `join_preds` of [`P_JOIN`] and
        /// [`P_JOIN_J`], `residual` applied on top — over scans carrying the
        /// columns `carry`; the merge inputs are sorted on the joined keys.
        pub fn flavors(
            &self,
            join_preds: &[PredId],
            residual: &[PredId],
            carry: &[u32],
        ) -> Vec<(&'static str, PlanRef)> {
            let side = |q: QId, sorted: bool| {
                let scan = self.access(q, carry, PredSet::EMPTY);
                let key = [(P_JOIN, 0), (P_JOIN_J, 2)].into_iter();
                let key = key.filter(|(p, _)| join_preds.contains(p));
                let key = key.map(|(_, c)| qc(q, c)).collect::<Vec<_>>().into();
                match sorted {
                    true => self.build(Lolepop::Sort { key }, vec![scan]),
                    false => scan,
                }
            };
            let flavor = |name, flavor, sorted| {
                let op = Lolepop::Join {
                    flavor,
                    join_preds: preds(join_preds),
                    residual: preds(residual),
                };
                (name, self.build(op, vec![side(L, sorted), side(R, sorted)]))
            };
            vec![
                flavor("MG", JoinFlavor::MG, true),
                flavor("HA", JoinFlavor::HA, false),
                flavor("NL", JoinFlavor::NL, false),
            ]
        }

        /// `plan`'s root, claiming an output schema without `col`.
        pub fn projecting_out(plan: &PlanRef, col: QCol) -> PlanRef {
            let mut props = plan.props.clone();
            props.cols = props.cols.iter().copied().filter(|c| *c != col).collect();
            PlanNode::with_props(plan.op.clone(), plan.inputs.to_vec(), props)
        }

        /// Correlated inner: `R` scanned with the join predicate pushed down.
        pub fn pushed_scan(&self) -> PlanRef {
            self.scan(R, PredSet::single(P_JOIN))
        }

        /// Correlated inner over a STORE'd temp: re-accessed as a heap, or
        /// probed through a dynamic index on `R.K`.
        pub fn temp(&self, indexed: bool) -> PlanRef {
            let store = self.build(Lolepop::Store, vec![self.scan(R, PredSet::EMPTY)]);
            let key = vec![qc(R, 0)];
            let (spec, input) = match indexed {
                true => (
                    AccessSpec::TempIndex { key: key.clone() },
                    self.build(Lolepop::BuildIndex { key }, vec![store]),
                ),
                false => (AccessSpec::TempHeap, store),
            };
            self.build(
                Lolepop::Access {
                    spec,
                    cols: cols(&[qc(R, 0), qc(R, 1)]),
                    preds: PredSet::single(P_JOIN),
                },
                vec![input],
            )
        }

        /// Correlated inner: catalog-index probe on `R.K`, then GET.
        pub fn index_probe(&self) -> PlanRef {
            let index = self.db.catalog().index_by_name("R_I0").unwrap().id;
            let probe = self.build(
                Lolepop::Access {
                    spec: AccessSpec::Index { index, q: R },
                    cols: cols(&[qc(R, 0), QCol::new(R, TID_COL)]),
                    preds: PredSet::single(P_JOIN),
                },
                vec![],
            );
            self.build(
                Lolepop::Get {
                    q: R,
                    cols: cols(&[qc(R, 0), qc(R, 1)]),
                    preds: PredSet::single(P_R),
                },
                vec![probe],
            )
        }

        /// Every join plan of the fixture: the three flavors, and nested
        /// loops over each correlated inner.
        pub fn plans(&self) -> Vec<(&'static str, PlanRef)> {
            let l = || self.scan(L, PredSet::EMPTY);
            let r = || self.scan(R, PredSet::EMPTY);
            let nl = |inner| self.join(JoinFlavor::NL, l(), inner);
            vec![
                (
                    "MG",
                    self.join(JoinFlavor::MG, self.sorted(L), self.sorted(R)),
                ),
                ("HA", self.join(JoinFlavor::HA, l(), r())),
                ("NL/scan", nl(r())),
                ("NL/pushed", nl(self.pushed_scan())),
                ("NL/temp", nl(self.temp(false))),
                ("NL/temp-index", nl(self.temp(true))),
                ("NL/index", nl(self.index_probe())),
            ]
        }
    }
}

use edge::Edge;
use starqo_catalog::Value;
use Value::{Double as D, Int as I, Null};

fn ints(keys: impl IntoIterator<Item = i64>) -> Vec<Value> {
    keys.into_iter().map(I).collect()
}

/// Check every fixture plan on both engines; returns the MG result.
fn check_edge(e: &Edge, ctx: &str) -> QueryResult {
    check_edge_plans(e, ctx, &[])
}

/// The fixture plans whose cost does not grow with `|L| × |R|` — the ones a
/// relation of several morsels can afford under the row-at-a-time oracle.
const SUBQUADRATIC: [&str; 4] = ["MG", "HA", "NL/temp-index", "NL/index"];

/// Check the fixture plans named in `only` (all of them when empty) on both
/// engines; returns the first one's result.
fn check_edge_plans(e: &Edge, ctx: &str, only: &[&str]) -> QueryResult {
    let mut first = None;
    for (name, plan) in e.plans() {
        if only.is_empty() || only.contains(&name) {
            let got = check_plan(&e.db, &e.query, &plan, &format!("{ctx}: {name}")).unwrap();
            first.get_or_insert(got);
        }
    }
    first.expect("fixture has the named plans")
}

/// Duplicate sort keys with distinct payloads: SORT must be stable (the
/// oracle's `sort_by` is), or the merge output order diverges.
#[test]
fn vexec_sort_is_stable_on_duplicate_keys() {
    // Keys descend in runs, so sorting genuinely reorders; payloads tell
    // equal-key rows apart.
    let l = ints((0..600).map(|i| 5 - i / 100));
    let r = ints((0..60).map(|i| 5 - i / 10));
    let e = Edge::new(&l, &r, 0, 0);
    let want = check_edge(&e, "stable sort");
    assert_eq!(want.rows.len(), 600 * 10);
    // Within one key, outer rows keep source order and so do inner rows.
    let v = |i: usize| want.rows[i].get(0).clone();
    let w = |i: usize| want.rows[i].get(1).clone();
    assert_eq!((v(0), w(0), w(1)), (I(500), I(50), I(51)));
    assert_eq!(v(10), I(501));
}

/// NULL keys never match (on either side, in any flavor), and an `Int` key
/// matches the `Double` of the same value — in merge order, hash probe and
/// index probe alike.
#[test]
fn vexec_handles_null_and_cross_type_join_keys() {
    let l = vec![I(2), Null, I(1), I(3), Null, I(1)];
    let r = vec![D(1.0), Null, I(3), D(2.5), D(1.0), Null, I(2)];
    let e = Edge::new(&l, &r, 0, 0);
    let want = check_edge(&e, "null/cross-type");
    // 1 ⋈ {1.0, 1.0} twice, 2 ⋈ 2, 3 ⋈ 3; NULLs and 2.5 never.
    assert_eq!(want.rows.len(), 4 + 1 + 1);
}

/// An empty outer never evaluates the inner; an empty inner yields nothing;
/// both hold for every flavor and every correlated inner.
#[test]
fn vexec_handles_empty_outer_and_empty_inner() {
    let (l, r) = (ints(0..40), ints((0..40).map(|i| i % 8)));
    for (l_min, r_min, what) in [(1_000, 0, "empty outer"), (0, 1_000, "empty inner")] {
        let e = Edge::new(&l, &r, l_min, r_min);
        let want = check_edge(&e, what);
        assert!(want.rows.is_empty(), "{what} must produce no rows");
    }
    // Control: the same plans with neither side emptied do join.
    let want = check_edge(&Edge::new(&l, &r, 0, 0), "control");
    assert_eq!(want.rows.len(), 40);
}

/// Correlated inners re-run per outer row: over a STORE'd temp (built
/// once), through a dynamic-index probe, and through a catalog-index probe
/// — including outer rows whose bound key is NULL, which bind no prefix and
/// fall back to a full scan that the pushed-down predicate then empties.
#[test]
fn vexec_reruns_correlated_inners_with_null_bindings() {
    let l: Vec<Value> = (0..30)
        .map(|i| match i % 5 {
            0 => Null,
            _ => I(i % 7),
        })
        .collect();
    let r = ints((0..90).map(|i| i % 9));
    let e = Edge::new(&l, &r, 0, 0);
    let want = check_edge(&e, "correlated");
    assert_eq!(want.rows.len(), 24 * 10);
    // The temp under the re-run inner is materialized exactly once, its
    // index built once and probed once per outer row (§4.5.2).
    let (_, plan) = e.plans().swap_remove(5);
    let mut vx = VexecExecutor::new(&e.db, &e.query);
    vx.run(&plan).unwrap();
    let s = vx.stats();
    assert_eq!((s.temps_built, s.indexes_built, s.probes), (1, 1, 30));
}

// ---- JOIN(MG) applies its own join predicates ----------------------------
//
// The merge establishes `outer key = inner key` by construction — equal-key
// runs, NULL runs skipped — and interprets only what is left of
// join ∪ residual on each pair. The oracle interprets everything on every
// pair of every run, so agreeing with it (rows, order, errors) on the cases
// below is what shows nothing was dropped that still had something to say.

use edge::{qc, Row, P_JOIN, P_JOIN_J, P_LESS};

fn int_row(k: i64, j: i64, p: i64) -> Row {
    [k, j, p].map(I)
}

/// SQL's `=`: NULL equals nothing, an `Int` the `Double` of its value.
fn sql_eq(a: &Value, b: &Value) -> bool {
    !a.is_null() && a == b
}

/// The (L row, R row) pairs of the wide fixture that `keep` accepts, counted
/// by brute force.
fn count_pairs(l: &[Row], r: &[Row], keep: impl Fn(&Row, &Row) -> bool) -> usize {
    l.iter()
        .map(|a| r.iter().filter(|b| keep(a, b)).count())
        .sum()
}

type Outcomes = Vec<Result<QueryResult, String>>;

/// Every flavor of one wide join against the oracle at 1, 2 and 8 workers;
/// when they all succeed, MG ≡ HA ≡ NL as sets of rows. Returns the
/// outcomes, MG's first.
fn check_flavors(e: &Edge, join: &[PredId], rest: &[PredId], carry: &[u32], ctx: &str) -> Outcomes {
    let outcome = |(name, plan): (&str, PlanRef)| {
        check_plan(&e.db, &e.query, &plan, &format!("{ctx}: {name}")).result
    };
    let outcomes: Outcomes = e
        .flavors(join, rest, carry)
        .into_iter()
        .map(outcome)
        .collect();
    let sorted = |o: &Result<QueryResult, String>| {
        let mut rows = o.clone().ok()?.rows;
        rows.sort();
        Some(rows)
    };
    if let [Some(mg), Some(ha), Some(nl)] = &outcomes.iter().map(sorted).collect::<Vec<_>>()[..] {
        assert!(mg == ha && mg == nl, "{ctx}: the flavors disagree");
    }
    outcomes
}

/// [`check_flavors`] of a join every flavor must answer; MG's rows.
fn flavors_agree(
    e: &Edge,
    join: &[PredId],
    rest: &[PredId],
    carry: &[u32],
    ctx: &str,
) -> QueryResult {
    let mut outcomes = check_flavors(e, join, rest, carry, ctx);
    assert!(outcomes.iter().all(Result::is_ok), "{ctx}: {outcomes:?}");
    outcomes.swap_remove(0).unwrap()
}

/// Many-to-many duplicate keys under a residual `L.P < R.P` that keeps some
/// pairs of every run and rejects others: the residual still runs on every
/// pair the merge emits, and on those only.
#[test]
fn vexec_merge_interprets_only_the_residual_on_duplicate_runs() {
    let l: Vec<Row> = (0..240).map(|i| int_row(i % 6, 0, i % 7)).collect();
    let r: Vec<Row> = (0..150).map(|i| int_row(1 + i % 5, 0, i % 11)).collect();
    let e = Edge::wide(&l, &r);
    let got = flavors_agree(&e, &[P_JOIN], &[P_LESS], &[0, 1, 3], "dup residual");
    for key in 1..6 {
        let run = |a: &Row, b: &Row| a[0] == I(key) && a[0] == b[0];
        let (all, kept) = (
            count_pairs(&l, &r, run),
            count_pairs(&l, &r, |a, b| run(a, b) && a[2] < b[2]),
        );
        assert!(0 < kept && kept < all, "key {key}: {kept} of {all}");
    }
    let kept = count_pairs(&l, &r, |a, b| a[0] == b[0] && a[2] < b[2]);
    assert_eq!(got.rows.len(), kept);
    // Without the residual the same plan returns every pair of every run.
    let all = flavors_agree(&e, &[P_JOIN], &[], &[0, 1, 3], "dup, no residual");
    assert_eq!(all.rows.len(), 5 * 40 * 30);
}

/// A two-column merge key, `K` typed and `J` demoted by NULLs and doubles on
/// both sides: a run with a NULL `J` joins nothing, an `Int` `J` meets the
/// equal `Double`, with and without a residual on top — and `L.J = R.J` as a
/// *residual* of a merge on `K` alone is an equality the merge does not
/// establish, so it must still be interpreted.
#[test]
fn vexec_merges_a_two_column_key_of_one_typed_and_one_demoted_column() {
    let j = |i: i64| match i % 5 {
        0 => Null,
        1 => D((i % 3) as f64),
        _ => I(i % 3),
    };
    let l: Vec<Row> = (0..400).map(|i| [I(i % 8), j(i), I(i % 13)]).collect();
    let r: Vec<Row> = (0..300).map(|i| [I(i % 10), j(i + 2), I(i % 9)]).collect();
    let e = Edge::wide(&l, &r);
    let both = |a: &Row, b: &Row| sql_eq(&a[0], &b[0]) && sql_eq(&a[1], &b[1]);
    let carry = [0, 1, 2, 3];
    let want = count_pairs(&l, &r, both);
    let nulls = count_pairs(&l, &r, |a, b| {
        a[0] == b[0] && a[1].is_null() && b[1].is_null()
    });
    let enough = want > 1_000 && nulls > 100;
    assert!(enough, "{want} matches, {nulls} NULL pairs");
    let two = [P_JOIN, P_JOIN_J];
    let got = flavors_agree(&e, &two, &[], &carry, "two keys");
    assert_eq!(got.rows.len(), want);
    let got = flavors_agree(&e, &two, &[P_LESS], &carry, "two keys, residual");
    let kept = count_pairs(&l, &r, |a, b| both(a, b) && a[2] < b[2]);
    assert_eq!(got.rows.len(), kept);
    let got = flavors_agree(&e, &[P_JOIN], &[P_JOIN_J], &carry, "J as a residual");
    assert_eq!(got.rows.len(), want);
}

/// NULL keys on both sides. A 200-row twin returns the oracle's rows from
/// every flavor; at 20 000 NULLs a side — a 4 × 10⁸-pair run product the
/// merge must not multiply out — the vectorized merge still answers at once.
#[test]
fn vexec_merge_skips_null_runs_instead_of_multiplying_them_out() {
    let keys = |nulls: usize, real: std::ops::Range<i64>| {
        let mut keys = vec![Null; nulls];
        // Real keys scattered among the NULLs, descending.
        for (n, k) in real.rev().enumerate() {
            keys.insert(n * 3 % (keys.len() + 1), I(k));
        }
        keys
    };
    let e = Edge::new(&keys(150, 0..50), &keys(170, 20..50), 0, 0);
    assert_eq!(check_edge(&e, "NULL runs, small").rows.len(), 30);

    let e = Edge::new(&keys(20_000, 0..50), &keys(20_000, 0..50), 0, 0);
    let plans = e.plans();
    let run = |name: &str| {
        let plan = &plans.iter().find(|(n, _)| *n == name).expect("a plan").1;
        let started = std::time::Instant::now();
        let got = VexecExecutor::new(&e.db, &e.query).run(plan).unwrap();
        (got, started.elapsed())
    };
    let (mg, took) = run("MG");
    let quick = SUBQUADRATIC.contains(&"MG") && took.as_secs_f64() < 1.0;
    assert!(quick, "MG took {took:?}");
    assert_eq!(mg.rows.len(), 50);
    let (mut ha, _) = run("HA");
    ha.rows.sort_by(|a, b| b.cmp(a)); // V descends as K ascends
    assert_eq!(mg, ha);
}

/// Under a residual, so the interpreted path runs: `Int` keys against the
/// equal `Double`s, the ends of the `i64` domain, and an empty side.
#[test]
fn vexec_merge_residual_sees_cross_type_and_extreme_keys_and_empty_sides() {
    let row = |k: Value, p: i64| [k, I(0), I(p)];
    let l: Vec<Row> = [i64::MAX, 3, i64::MIN, 3, -1, i64::MAX, 2]
        .into_iter()
        .enumerate()
        .map(|(i, k)| row(I(k), i as i64 % 3))
        .collect();
    let r = vec![
        row(D(3.0), 1),
        row(I(i64::MAX), 2),
        row(I(i64::MIN), 0),
        row(D(-1.0), 2),
        row(D(2.5), 2),
        row(I(3), 2),
        row(Null, 2),
    ];
    let keep = |a: &Row, b: &Row| a[0] == b[0] && a[2] < b[2];
    let want = count_pairs(&l, &r, keep);
    assert!(want >= 5, "{want}");
    let carry = [0, 1, 3];
    let got = flavors_agree(&Edge::wide(&l, &r), &[P_JOIN], &[P_LESS], &carry, "ends");
    assert_eq!(got.rows.len(), want);
    for (l, r, what) in [
        (&l[..], &[][..], "empty inner"),
        (&[], &r[..], "empty outer"),
    ] {
        let got = flavors_agree(&Edge::wide(l, r), &[P_JOIN], &[P_LESS], &carry, what);
        assert!(got.rows.is_empty(), "{what}");
    }
}

/// A residual naming a column nothing carries raises exactly when a pair
/// reaches it — the oracle's `Result`, flavor by flavor. A run of NULL keys
/// never does (the key equality, first in predicate order, rejects it); but
/// where the unbound residual comes *before* a key equality in predicate
/// order, a run that is NULL only on that later key does reach it, so that
/// equality stays interpreted and its NULL runs are multiplied out.
#[test]
fn vexec_merge_raises_what_the_oracle_raises_on_an_unbound_residual() {
    let rows = |keys: &[Value]| -> Vec<Row> {
        let row = |k: &Value| [k.clone(), Null, I(0)];
        keys.iter().map(row).collect()
    };
    let with_null = |keys: std::ops::Range<i64>| {
        let mut keys = ints(keys);
        keys.extend([Null, Null]);
        rows(&keys)
    };
    for (l, r, raises, what) in [
        (
            with_null(0..5),
            with_null(5..9),
            false,
            "NULLs only in common",
        ),
        (with_null(0..5), with_null(4..9), true, "one common key"),
        (rows(&ints(0..5)), rows(&[]), false, "empty inner"),
    ] {
        let e = Edge::wide(&l, &r);
        // `P` is not carried: `L.P < R.P` can only raise.
        for got in check_flavors(&e, &[P_JOIN], &[P_LESS], &[0, 1], what) {
            assert_eq!(got.is_err(), raises, "{what}: {got:?}");
            let unbound = format!("unbound column {}", qc(edge::L, 3));
            assert!(!raises || got.unwrap_err() == unbound);
        }
    }
    // `L.K = R.K` (0) · `L.P < R.P` (3, unbound) · `L.J = R.J` (4): every `J`
    // is NULL, so every run of a common `K` is a NULL run on the second key.
    let two = [P_JOIN, P_JOIN_J];
    let e = Edge::wide(&with_null(0..5), &with_null(4..9));
    let got = check_flavors(&e, &two, &[P_LESS], &[0, 1, 2], "unbound first");
    assert!(got[0].is_err(), "MG: {:?}", got[0]);
    let e = Edge::wide(&with_null(0..5), &with_null(5..9));
    let got = check_flavors(&e, &two, &[P_LESS], &[0, 1, 2], "NULL K only");
    let empty = got[0].as_ref().is_ok_and(|g| g.rows.is_empty());
    assert!(empty, "{:?}", got[0]);
}

/// A merge key missing from the join's own output schema: its equality does
/// not compile to a comparison of two bound slots, so the merge leaves it to
/// the interpreter, which raises on the first pair of any equal-key run —
/// NULL runs included, as in the oracle.
#[test]
fn vexec_merge_leaves_a_projected_out_key_to_the_interpreter() {
    for (l, r, raises, what) in [
        (ints(0..5), ints(5..9), false, "disjoint"),
        (ints(0..5), ints(4..9), true, "one common key"),
        (vec![Null, I(1)], vec![Null], true, "NULLs in common"),
    ] {
        let e = Edge::new(&l, &r, 0, 0);
        let (_, mg) = e.plans().swap_remove(0);
        let plan = Edge::projecting_out(&mg, qc(edge::L, 0));
        let got = check_plan(&e.db, &e.query, &plan, what).result;
        assert_eq!(got.is_err(), raises, "{what}: {got:?}");
    }
}

// ---- typed columns and the radix SORT ----------------------------------
//
// A column travels as plain `i64`s until the first value that is not an
// integer, and a single typed key column is sorted by radix. Neither may be
// observable: the generated size class demotes key columns mid-batch and at
// a morsel edge and sorts long duplicate runs; the cases below meet typed
// and demoted columns in one join and put the sort keys at every edge of
// the key domain.

/// A typed key column against a demoted one, both ways round: an `Int`
/// equals the `Double` of the same value in merge order, hash probe and
/// index probe alike, and NULL matches nothing.
#[test]
fn vexec_joins_typed_key_columns_with_demoted_ones() {
    let typed = ints((0..400).map(|i| (400 - i) / 3));
    let mixed: Vec<Value> = (0..300)
        .map(|i| match i % 4 {
            0 => D((i / 2) as f64),
            1 => Null,
            2 => D(i as f64 + 0.5),
            _ => I(i / 2),
        })
        .collect();
    let hits = |e: &Edge, ctx: &str| check_edge(e, ctx).rows.len();
    let forward = hits(&Edge::new(&typed, &mixed, 0, 0), "typed ⋈ mixed");
    let backward = hits(&Edge::new(&mixed, &typed, 0, 0), "mixed ⋈ typed");
    let same = forward > 100 && forward == backward;
    assert!(same, "{forward} vs {backward}");
}

/// Sort keys at the ends of the `i64` domain, where `max - min` overflows;
/// all-equal keys; one row; no rows.
#[test]
fn vexec_sorts_extreme_constant_single_and_empty_keys() {
    let (max, min) = (i64::MAX, i64::MIN);
    let ends = [max, 0, min, -1, max, min + 1, 1, min];
    let l = ints((0..96).map(|i| ends[i % ends.len()]));
    let r = ints((0..40).map(|i| ends[(3 * i) % ends.len()]));
    let want = check_edge(&Edge::new(&l, &r, 0, 0), "domain ends");
    // Merge order: `i64::MIN` first — L rows 2, 7, 10, … each with every
    // `i64::MIN` row of R.
    let per_outer = r.iter().filter(|k| **k == I(i64::MIN)).count();
    assert_eq!(want.rows[0].get(0), &I(2));
    assert_eq!(want.rows[per_outer].get(0), &I(7));

    let equal = Edge::new(&ints([7; 50]), &ints([7; 30]), 0, 0);
    let want = check_edge(&equal, "all equal");
    assert_eq!(want.rows.len(), 50 * 30);
    let want = check_edge(&Edge::new(&ints([3]), &ints([4, 3]), 0, 0), "one row");
    assert_eq!(want.rows.len(), 1);
    // One surviving row on each side, then none at all, under the SORTs.
    let (l, r) = (ints((0..9).rev()), ints((0..9).rev()));
    let one = check_edge(&Edge::new(&l, &r, 8, 8), "one each");
    let none = check_edge(&Edge::new(&l, &r, 9, 9), "no rows");
    assert_eq!((one.rows.len(), none.rows.len()), (1, 0));
}

/// Keys drawn from the whole `i64` range: every radix pass runs, on offsets
/// from a minimum that `i64` subtraction could not reach.
#[test]
fn vexec_radix_sort_covers_the_whole_i64_range() {
    let mut rng = Rng64::new(0x5EED);
    let mut pool: Vec<i64> = (0..3_000).map(|_| rng.next_u64() as i64).collect();
    pool.extend([i64::MIN, i64::MAX, 0]);
    let mut draw = |n: usize| ints((0..n).map(|_| pool[rng.index(pool.len())]));
    let (l, r) = (draw(9_000), draw(5_000));
    let want = check_edge_plans(&Edge::new(&l, &r, 0, 0), "64-bit keys", &SUBQUADRATIC);
    assert!(want.rows.len() > 9_000, "{} rows", want.rows.len());
}

// ---- key-range reads of a B-tree-stored table ---------------------------
//
// `ACCESS(btree)` reads only the rows under the bound equality prefix of
// the table's key (and one range on the next key column), found by binary
// search — in both engines. The fixture is `L(K, J, V)`, a heap of binding
// values, and `R(A, B, W)` stored in `(A, B)` order; `V`/`W` are row
// numbers, and every plan selects `R`'s TID so a narrowed scan has to report
// absolute row positions.

mod keyed {
    use starqo_catalog::{ColId, DataType, Value, TID_COL};
    use starqo_integration::diff::{node, Case, Table};
    use starqo_plan::{AccessSpec, ColSet, JoinFlavor, Lolepop, PlanRef};
    use starqo_query::{parse_query, PredId, PredSet, QCol, QId, Query};
    use starqo_storage::Database;

    pub const L: QId = QId(0);
    pub const R: QId = QId(1);

    pub struct Keyed {
        pub db: Database,
        pub query: Query,
    }

    pub fn preds(ids: &[u32]) -> PredSet {
        ids.iter()
            .fold(PredSet::EMPTY, |s, p| s.union(PredSet::single(PredId(*p))))
    }

    /// The columns of quantifier `q`, all three.
    fn all(q: QId) -> impl Iterator<Item = QCol> {
        (0..3).map(move |c| QCol::new(q, ColId(c)))
    }

    impl Keyed {
        /// `l`: `(K, J)` per row of `L`; `r`: `(A, B)` per row of `R`, in
        /// insertion order (loading sorts them). `conds` is the WHERE
        /// clause; its conjuncts are predicates 0, 1, … in order.
        pub fn new(l: &[(Value, Value)], r: &[(Value, Value)], conds: &str) -> Keyed {
            let table = |name: &str, cols: [&str; 3], rows: &[(Value, Value)]| {
                let row = |(i, (x, y)): (usize, &(Value, Value))| {
                    vec![x.clone(), y.clone(), Value::Int(i as i64)]
                };
                let t = cols
                    .iter()
                    .fold(Table::new(name, rows.len() as u64), |t, c| {
                        t.col(c, DataType::Int, None)
                    });
                t.rows(rows.iter().enumerate().map(row).collect())
            };
            let r = table("R", ["A", "B", "W"], r).btree(&["A", "B"]);
            let sql = format!("SELECT L.V, R.W FROM L, R WHERE {conds}");
            let case = Case::new(&sql, vec![table("L", ["K", "J", "V"], l), r]);
            let cat = case.catalog();
            let mut query = parse_query(&cat, &sql).unwrap();
            query.select.push(QCol::new(R, TID_COL));
            let db = case.databases(&cat).remove(0);
            Keyed { db, query }
        }

        fn build(&self, op: Lolepop, inputs: Vec<PlanRef>) -> PlanRef {
            node(&self.db, &self.query, op, inputs)
        }

        /// `ACCESS(btree) R {A, B, W, TID}` under `preds`.
        pub fn inner(&self, preds: PredSet) -> PlanRef {
            let cols: ColSet = all(R).chain([QCol::new(R, TID_COL)]).collect();
            let spec = AccessSpec::BTreeTable(R);
            self.build(Lolepop::Access { spec, cols, preds }, vec![])
        }

        /// `JOIN(NL)` of all of `L` with [`Self::inner`] under `pushed`,
        /// which are also the join predicates.
        pub fn nl(&self, pushed: PredSet) -> PlanRef {
            let (spec, cols, preds) = (AccessSpec::HeapTable(L), all(L).collect(), PredSet::EMPTY);
            let outer = self.build(Lolepop::Access { spec, cols, preds }, vec![]);
            self.build(
                Lolepop::Join {
                    flavor: JoinFlavor::NL,
                    join_preds: pushed,
                    residual: PredSet::EMPTY,
                },
                vec![outer, self.inner(pushed)],
            )
        }
    }
}

use keyed::Keyed;
use starqo_storage::{Tid, ROWS_PER_PAGE};

/// [`check_plan`], and on success the same `pages_read` from both engines,
/// which charge the rows of the range alone. A selected TID names the stored
/// row whose `W` came out with it. Returns the outcome and its `pages_read`.
fn assert_same_read(k: &Keyed, plan: &PlanRef, ctx: &str) -> (Result<QueryResult, String>, u64) {
    let ran = check_plan(&k.db, &k.query, plan, ctx);
    if let Ok(result) = &ran.result {
        let pages = (ran.vexec.pages_read, ran.serial.pages_read);
        assert_eq!(pages.0, pages.1, "{ctx}: pages_read");
        let r = k.db.catalog().table_by_name("R").unwrap().id;
        let r = k.db.table(r).unwrap();
        let (w, tid) = (result.schema.len() - 2, result.schema.len() - 1);
        for row in &result.rows {
            let tid = Tid::from_value(row.get(tid)).expect("a TID");
            assert_eq!(r.fetch(tid).unwrap().get(2), row.get(w), "{ctx}");
        }
    }
    (ran.result, ran.serial.pages_read)
}

/// [`assert_same_read`] of a plan that must succeed, also checked — without
/// the TID — against the brute-force reference evaluator, which never
/// narrows anything.
fn check_read(k: &Keyed, plan: &PlanRef, ctx: &str) -> (QueryResult, u64) {
    let (got, pages) = assert_same_read(k, plan, ctx);
    let got = got.unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let mut query = k.query.clone();
    query.select.truncate(2);
    let want = starqo_exec::reference_eval(&k.db, &query).unwrap();
    let rows: Vec<_> = got.rows.iter().map(|r| r.0[..2].to_vec()).collect();
    let rows: Vec<_> = rows.into_iter().map(starqo_storage::Tuple).collect();
    let same = starqo_exec::rows_equal_multiset(&rows, &want);
    assert!(same, "{ctx}: narrowed read disagrees with the reference");
    (got, pages)
}

fn pair(a: Value, b: i64) -> (Value, Value) {
    (a, I(b))
}

/// Non-unique keys, keys that are `Int` in one row and the equal `Double`
/// in the next, NULL keys — probed by bindings that hit, miss between two
/// keys, fall off either end, are NULL (no prefix: the whole table is read
/// and the predicate empties it), a `Double`, or a string.
#[test]
fn vexec_key_range_reads_nonunique_null_and_cross_type_keys() {
    let r: Vec<_> = (0..240)
        .map(|i| {
            // Six rows per key 0..40, inserted scattered.
            let i = i * 77 % 240;
            let k = i / 6;
            let a = match i % 6 {
                0 => D(k as f64),
                1 => D(k as f64 + 0.5),
                2 if k % 4 == 0 => Null,
                _ => I(k),
            };
            pair(a, i % 9)
        })
        .collect();
    let s17 = Value::str("17");
    let l = [
        I(0),
        I(17),
        I(39),
        I(-3),
        I(40),
        Null,
        D(17.0),
        D(16.5),
        D(16.25),
        s17,
        I(17),
        Null,
    ];
    let l: Vec<_> = l.into_iter().map(|k| pair(k, 0)).collect();
    let k = Keyed::new(&l, &r, "L.K = R.A");
    let (got, pages) = check_read(&k, &k.nl(keyed::preds(&[0])), "cross-type keys");
    // 0 ⋈ 4 rows (one of key 0's is NULL), 17 ⋈ 5 three times over, 39 ⋈ 5,
    // 16.5 ⋈ 1; the rest meet nothing.
    assert_eq!(got.rows.len(), 4 + 3 * 5 + 5 + 1);
    // Ten bound probes of a page or two each, and two NULL bindings that
    // read the whole table.
    let whole = 240u64.div_ceil(ROWS_PER_PAGE);
    let bounded = pages > 2 * whole && pages <= 1 + 10 * 2 + 2 * whole;
    assert!(bounded, "{pages} pages");
}

/// A range predicate on the key: on its first column with no equality
/// prefix, on its second column under one, one-sided, two-sided, inverted,
/// bound by the outer row or by a constant, and NULL.
#[test]
fn vexec_key_range_reads_range_predicates_with_and_without_a_prefix() {
    let r: Vec<_> = (0..600).map(|i| pair(I(i * 11 % 30), i * 7 % 20)).collect();
    let l: Vec<_> = (0..12)
        .map(|i| match i {
            10 => (Null, I(3)),
            11 => (I(4), Null),
            _ => pair(I(i * 3), i % 5 * 4),
        })
        .collect();
    let whole = 600u64.div_ceil(ROWS_PER_PAGE);
    for (conds, pushed, narrows) in [
        // Equality prefix, then a lower bound from the outer row.
        ("L.K = R.A AND R.B >= L.J", &[0, 1][..], true),
        ("L.K = R.A AND L.J > R.B", &[0, 1], true),
        // Two-sided; the first bound of each side is the one searched by.
        (
            "L.K = R.A AND R.B > 3 AND R.B <= 12 AND R.B < 15",
            &[0, 1, 2, 3],
            true,
        ),
        // Inverted: nothing qualifies, one page is looked at.
        ("L.K = R.A AND R.B > 12 AND R.B < 5", &[0, 1, 2], true),
        // No equality on A: the range is on the first key column.
        ("R.A < L.K AND R.B = 4", &[0, 1], true),
        ("R.A >= L.K AND R.A <= 20", &[0, 1], true),
        // A range on B alone is not a key range: the whole table, per row.
        ("R.B >= L.J AND R.W >= 0", &[0], false),
    ] {
        let k = Keyed::new(&l, &r, conds);
        let (_, pages) = check_read(&k, &k.nl(keyed::preds(pushed)), conds);
        let full = 1 + 12 * whole;
        assert_eq!(pages < full, narrows, "{conds}: {pages} pages of {full}");
    }
}

/// A predicate that can only fail — it names a column nothing binds — ahead
/// of the key equality: the rows outside the range never meet it, so the
/// read fails exactly when the range holds a row, in both engines alike.
#[test]
fn vexec_key_range_reads_raise_only_what_the_rows_read_raise() {
    let r: Vec<_> = (0..200).map(|i| pair(I(i % 10 * 2), i)).collect();
    let l = vec![pair(I(0), 0)];
    for (key, fails) in [(4, true), (5, false), (99, false)] {
        let mut k = Keyed::new(&l, &r, &format!("L.J < R.B AND R.A = {key}"));
        // `R` alone, as the root: `L.J` is unbound wherever it is evaluated.
        k.query.select.remove(0);
        let (got, pages) = assert_same_read(&k, &k.inner(keyed::preds(&[0, 1])), "unbound");
        assert_eq!(got.is_err(), fails, "key {key}: {got:?}");
        assert!(fails || (got.unwrap().rows.is_empty() && pages == 1));
    }
}

// ---- scans of a mirrored base table --------------------------------------
//
// `DatabaseBuilder::build` mirrors every all-integer column of a table as
// one `i64` slice by row position, and vexec reads a mirrored column through
// that slice — one typed kernel for integer column-vs-constant predicates, a
// typed gather for the survivors — and everything else through the rows. The
// oracle reads rows only, so agreeing with it is what proves the mirror says
// the same thing. The fixture is `T(A, B, C, S, N)`: `A`/`B` integers, `C`
// the row number, `S` a string, `N` an integer column with one NULL (never
// mirrored); every plan runs on the rows as `build` left them *and* on the
// same rows with the last one inserted after `build`, which has no mirror.

mod scan {
    use starqo_catalog::{ColId, DataType, Value, TID_COL};
    use starqo_integration::diff::{node, Case, Table};
    use starqo_plan::{AccessSpec, ColSet, Lolepop, PlanRef};
    use starqo_query::{CmpOp, PredExpr, PredSet, QCol, QId, Query, QueryBuilder, Scalar};
    use starqo_storage::{Database, Tuple};

    pub const T: QId = QId(0);
    pub const U: QId = QId(1);
    pub const COLS: u32 = 5;

    pub struct Scan {
        /// `[mirrored, unmirrored]`, the same rows at the same positions.
        pub dbs: [Database; 2],
        btree: bool,
    }

    pub fn t(col: u32) -> QCol {
        QCol::new(T, ColId(col))
    }

    /// `T.col op v`.
    pub fn cmp(col: u32, op: CmpOp, v: Value) -> PredExpr {
        PredExpr::Cmp(op, Scalar::Col(t(col)), Scalar::Const(v))
    }

    impl Scan {
        /// `rows` of `T`, in position order: sorted on `A` when `btree`,
        /// with the last row's key the largest (it is the one inserted
        /// after `build`). `U(X)` exists so that a predicate can name a
        /// column no scan of `T` binds; `T_I0` indexes `B`.
        pub fn new(btree: bool, rows: &[Vec<Value>]) -> Scan {
            let int = |t: Table, c| t.col(c, DataType::Int, None);
            let t = Table::new("T", rows.len() as u64);
            let t = ["A", "B", "C"].into_iter().fold(t, int);
            let t = int(t.col("S", DataType::Str, None), "N").index(&["B"]);
            let t = if btree { t.btree(&["A"]) } else { t };
            let u = int(Table::new("U", 0), "X");
            let load = |rows: &[Vec<Value>]| {
                let case = Case::new("", vec![t.clone().rows(rows.to_vec()), u.clone()]);
                case.databases(&case.catalog()).remove(0)
            };
            let (last, rest) = rows.split_last().expect("a row to insert late");
            let mut plain = load(rest);
            let id = plain.catalog().table_by_name("T").unwrap().id;
            plain.insert(id, Tuple(last.clone())).unwrap();
            let dbs = [load(rows), plain];
            let [m, p] = dbs.each_ref().map(|db| db.table(id).unwrap());
            assert!(m.int_column(0).is_some() && m.int_column(2).is_some());
            assert!(m.int_column(3).is_none() && m.int_column(4).is_none());
            assert!((0..COLS as usize).all(|c| p.int_column(c).is_none()));
            assert!(m.scan().eq(p.scan()), "same rows, same positions");
            Scan { dbs, btree }
        }

        /// `SELECT select FROM T, U WHERE preds` (conjuncts 0, 1, … in order).
        pub fn query(&self, select: &[QCol], preds: Vec<PredExpr>) -> Query {
            let cat = self.dbs[0].catalog();
            let mut b = QueryBuilder::new();
            b.quantifier(cat, "T", "T").unwrap();
            b.quantifier(cat, "U", "U").unwrap();
            for p in preds {
                b.predicate(p).unwrap();
            }
            for c in select {
                b.select(*c);
            }
            b.build().unwrap()
        }

        fn build(&self, query: &Query, op: Lolepop, inputs: Vec<PlanRef>) -> PlanRef {
            node(&self.dbs[0], query, op, inputs)
        }

        fn all_cols() -> impl Iterator<Item = QCol> {
            (0..COLS).map(t)
        }

        /// `ACCESS(heap|btree) T {A, B, C, S, N, TID}` under every predicate.
        pub fn access(&self, query: &Query) -> PlanRef {
            let cols: ColSet = Self::all_cols().chain([QCol::new(T, TID_COL)]).collect();
            let spec = match self.btree {
                true => AccessSpec::BTreeTable(T),
                false => AccessSpec::HeapTable(T),
            };
            let preds = query.all_preds();
            self.build(query, Lolepop::Access { spec, cols, preds }, vec![])
        }

        /// `GET T {A, B, C, S, N} [get] (ACCESS(index T_I0) {B, TID} [probe])`.
        pub fn index_get(&self, query: &Query, probe: PredSet, get: PredSet) -> PlanRef {
            let index = self.dbs[0].catalog().index_by_name("T_I0").unwrap().id;
            let (spec, preds) = (AccessSpec::Index { index, q: T }, probe);
            let cols = [t(1), QCol::new(T, TID_COL)].into_iter().collect();
            let entries = self.build(query, Lolepop::Access { spec, cols, preds }, vec![]);
            let cols = Self::all_cols().collect();
            let preds = get;
            self.build(query, Lolepop::Get { q: T, cols, preds }, vec![entries])
        }
    }
}

use scan::{cmp, Scan};
use starqo_query::{CmpOp, PredExpr, PredId, QCol, Query, Scalar};

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// `n` rows of the scan fixture: `A = a(i)`, `B = i % 10`, `C = i`, `S` a
/// string, `N = i` but NULL in the middle row.
fn scan_rows(n: i64, a: impl Fn(i64) -> i64) -> Vec<Vec<Value>> {
    let row = |i: i64| {
        let n = if i == n / 2 { Null } else { I(i) };
        let s = Value::str(format!("s{}", i % 7));
        vec![I(a(i)), I(i % 10), I(i), s, n]
    };
    (0..n).map(row).collect()
}

/// [`check_plan`] on the mirrored and on the unmirrored database, and the
/// two outcomes against each other.
fn check_scan(s: &Scan, query: &Query, plan: &PlanRef, ctx: &str) -> Result<QueryResult, String> {
    let run = |db| check_plan(db, query, plan, ctx).result;
    let [mirrored, plain] = s.dbs.each_ref().map(run);
    assert_eq!(mirrored, plain, "{ctx}: the mirror changed the answer");
    mirrored
}

/// The row numbers (`C`, selected first) of a successful [`check_scan`].
fn scanned(s: &Scan, query: &Query, plan: &PlanRef, ctx: &str) -> Vec<i64> {
    let got = check_scan(s, query, plan, ctx).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let row_number = |r: &starqo_storage::Tuple| match r.get(0) {
        I(c) => *c,
        other => panic!("{ctx}: row number {other:?}"),
    };
    got.rows.iter().map(row_number).collect()
}

/// Every operator against constants at both ends of the `i64` domain, one
/// present in the column, one absent from it, and `Double`s that equal and
/// fall between integers — on a column that itself holds `i64::MIN` and
/// `i64::MAX`, over three morsels. Checked against `Value`'s own order too.
#[test]
fn vexec_scans_a_mirrored_column_under_every_operator_and_constant() {
    let a = |i: i64| match i % 1000 {
        13 => i64::MIN,
        14 => i64::MAX,
        r => r * 37 % 1000 * 2,
    };
    let s = Scan::new(false, &scan_rows(9_000, a));
    let (min, max) = (i64::MIN, i64::MAX);
    let consts = [I(min), I(max), I(500), I(501), D(500.0), D(500.5), D(-1e30)];
    for op in OPS {
        for c in &consts {
            let ctx = format!("A {} {c:?}", op.symbol());
            let query = s.query(&[scan::t(2)], vec![cmp(0, op, c.clone())]);
            let got = scanned(&s, &query, &s.access(&query), &ctx);
            let want: Vec<i64> = (0..9_000).filter(|i| op.eval(I(a(*i)).cmp(c))).collect();
            assert_eq!(got, want, "{ctx}");
        }
    }
}

/// A later predicate sees exactly the survivors of the earlier ones: a first
/// predicate that keeps every row (the second still starts from `0..n`),
/// one that keeps none, and one that keeps some — after which a pass that
/// restarted from `0..n` would resurrect rejected rows. The second and third
/// predicates are on a mirrored column, an unmirrored integer column with a
/// NULL in it, and a string column.
#[test]
fn vexec_scan_predicates_see_only_earlier_survivors() {
    let a = |i: i64| i * 7 % 100;
    let s = Scan::new(false, &scan_rows(6_000, a));
    let firsts = [
        ("all", cmp(0, CmpOp::Ge, I(i64::MIN)), 6_000),
        ("none", cmp(0, CmpOp::Lt, I(0)), 0),
        ("some", cmp(0, CmpOp::Lt, I(40)), 2_400),
    ];
    for (name, first, kept) in firsts {
        let only = s.query(&[scan::t(2)], vec![first.clone()]);
        assert_eq!(scanned(&s, &only, &s.access(&only), name).len(), kept);
        let rest = [
            cmp(1, CmpOp::Ne, I(3)),
            cmp(4, CmpOp::Ge, I(1_000)),
            cmp(3, CmpOp::Ne, Value::str("s2")),
        ];
        let mut preds = vec![first];
        for (k, next) in rest.into_iter().enumerate() {
            preds.push(next);
            let ctx = format!("first keeps {name}, then {k} more");
            let query = s.query(&[scan::t(2)], preds.clone());
            let got = scanned(&s, &query, &s.access(&query), &ctx);
            let want: Vec<i64> = (0..6_000)
                .filter(|i| match name {
                    "all" => true,
                    "none" => false,
                    _ => a(*i) < 40,
                })
                .filter(|i| i % 10 != 3)
                .filter(|i| k < 1 || (*i >= 1_000 && *i != 3_000))
                .filter(|i| k < 2 || i % 7 != 2)
                .collect();
            assert_eq!(got, want, "{ctx}");
        }
    }
}

/// A string column, the NULL-bearing column and the TID in the select list
/// of an otherwise mirrored table: each output column comes from where its
/// values live, row for row.
#[test]
fn vexec_scan_selects_unmirrored_columns_beside_mirrored_ones() {
    let s = Scan::new(false, &scan_rows(5_000, |i| i % 50));
    let tid = QCol::new(scan::T, starqo_catalog::TID_COL);
    let select = [scan::t(2), scan::t(3), scan::t(4), scan::t(0), tid];
    let preds = vec![cmp(0, CmpOp::Gt, I(44)), cmp(1, CmpOp::Le, I(6))];
    let query = s.query(&select, preds);
    let got = check_scan(&s, &query, &s.access(&query), "mixed select").unwrap();
    let want = (0..5_000).filter(|i| i % 50 > 44 && i % 10 <= 6);
    assert_eq!(got.rows.len(), 200);
    for (row, c) in got.rows.iter().zip(want) {
        let n = if c == 2_500 { Null } else { I(c) };
        let want = [I(c), Value::str(format!("s{}", c % 7)), n, I(c % 50), I(c)];
        assert_eq!(row.0, want);
    }
}

/// A predicate that can only fail (it names a column of `U`, which a scan
/// of `T` never binds) behind an integer predicate: the rows the first one
/// rejects never meet it, so the scan fails exactly when the first keeps a
/// row — the same `Result` from both engines, mirror or no mirror.
#[test]
fn vexec_scan_raises_only_what_surviving_rows_raise() {
    let s = Scan::new(false, &scan_rows(5_000, |i| i % 50));
    let u = Scalar::col(scan::U, starqo_catalog::ColId(0));
    let unbound = PredExpr::Cmp(CmpOp::Lt, u, Scalar::Col(scan::t(1)));
    for (min, fails) in [(50, false), (49, true), (0, true)] {
        let first = cmp(0, CmpOp::Ge, I(min));
        let query = s.query(&[scan::t(2)], vec![first, unbound.clone()]);
        let got = check_scan(&s, &query, &s.access(&query), "unbound");
        assert_eq!(got.is_err(), fails, "A >= {min}: {got:?}");
        assert!(fails || got.unwrap().rows.is_empty());
    }
}

/// A key range of a B-tree-stored table that starts mid-table and crosses
/// two 4 096-row morsel boundaries, TID selected: the mirror is read at
/// absolute positions, so every TID names the stored row its `C` came from
/// (a range-relative read would return the first rows of the table).
#[test]
fn vexec_scans_a_mirrored_key_range_at_absolute_positions() {
    // Keys 0..100, 100 rows each, in key order; C is the position.
    let s = Scan::new(true, &scan_rows(10_000, |i| i / 100));
    let (ge, lt, eq) = (CmpOp::Ge, CmpOp::Lt, CmpOp::Eq);
    let preds = vec![cmp(0, ge, I(30)), cmp(0, lt, I(93)), cmp(1, eq, I(7))];
    let tid = QCol::new(scan::T, starqo_catalog::TID_COL);
    let query = s.query(&[scan::t(2), tid, scan::t(0)], preds);
    let plan = s.access(&query);
    let got = check_scan(&s, &query, &plan, "key range").unwrap();
    let want: Vec<i64> = (3_000..9_300).filter(|i| i % 10 == 7).collect();
    assert_eq!(got.rows.len(), want.len());
    for (row, c) in got.rows.iter().zip(want) {
        assert_eq!(row.0, [I(c), I(c), I(c / 100)]);
    }
    // The mirrored table read the range alone, in more than one morsel, none
    // starting at row 0; the unmirrored twin kept its key order through the
    // late insert (the row went to its key's place) and read the same range
    // through the rows.
    let pages = s.dbs.each_ref().map(|db| {
        let mut vx = VexecExecutor::new(db, &query);
        vx.run(&plan).unwrap();
        (vx.stats().pages_read, vx.stats().morsels)
    });
    let range = 6_300u64.div_ceil(ROWS_PER_PAGE);
    assert!(pages[0].0 <= range + 1 && pages[0].1 == 2, "{pages:?}");
    assert_eq!(pages[1], pages[0]);
}

/// `Input::Tids` and GET over a mirrored table: an index probe and a whole
/// index scan (entries in key order, so positions jump around the mirror),
/// with a range predicate on the indexed column evaluated over the entries
/// and integer, NULL-bearing and string predicates evaluated under GET.
#[test]
fn vexec_index_scans_and_gets_read_the_mirror_by_tid() {
    let a = |i: i64| i * 31 % 400;
    let s = Scan::new(false, &scan_rows(6_000, a));
    let preds = vec![
        cmp(1, CmpOp::Eq, I(4)),
        cmp(1, CmpOp::Ge, I(4)),
        cmp(0, CmpOp::Lt, I(300)),
        cmp(4, CmpOp::Ne, I(14)),
        cmp(3, CmpOp::Ne, Value::str("s0")),
    ];
    let set = keyed::preds;
    let query = s.query(&[scan::t(2), scan::t(3), scan::t(0)], preds);
    for (probe, ctx) in [(0, "probe B = 4"), (1, "scan B >= 4")] {
        let plan = s.index_get(&query, set(&[probe]), set(&[2, 3, 4]));
        let got = scanned(&s, &query, &plan, ctx);
        // Index order: by B, then by position.
        let mut want: Vec<i64> = (0..6_000)
            .filter(|i| if probe == 0 { i % 10 == 4 } else { i % 10 >= 4 })
            .filter(|i| a(*i) < 300 && *i != 14 && *i != 3_000 && i % 7 != 0)
            .collect();
        want.sort_by_key(|i| (i % 10, *i));
        assert_eq!(got, want, "{ctx}");
    }
}

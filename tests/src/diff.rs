//! One differential checker for the soundness contract of §2.1: every plan
//! in a SAP returns the same rows.
//!
//! A [`Case`] is a schema, its data and one SQL query. [`check`] states
//! every equivalence once: each root alternative and winner of
//! `OptConfig::default()` and `OptConfig::full()` (both `glue_keep_all`)
//! and of a budget-degraded run equals the brute-force `reference_eval` (in
//! ORDER BY order where the plan claims it) and runs identically on the
//! serial `Executor` and on `VexecExecutor` at 1, 2 and 8 workers
//! ([`check_plan`], which hand-built plans call directly) — on the database
//! as `build` leaves it and with the case's late table filled through
//! `Database::insert` (no mirror). `Service::execute` answers the same cold,
//! as a cache hit and after a statistics change to a table the query does
//! not name, and the fingerprint survives a permuted FROM list and WHERE.
//!
//! [`generate`] draws a case from a seed; [`check_seed`] checks it and, on a
//! failure, [`shrink`]s it and panics with the seed and a minimal Rust
//! literal of the case.

use std::cmp::Reverse;
use std::fmt::Write as _;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, StorageKind, Value};
use starqo_core::{Budget, OptConfig, Optimizer};
use starqo_exec::{is_correlated, reference_eval, rows_equal_multiset};
use starqo_exec::{ExecStats, Executor, QueryResult};
use starqo_plan::{CostModel, JoinFlavor, Lolepop, PlanRef, PropCtx, PropEngine};
use starqo_query::{canonicalize, parse_query, Query};
use starqo_serve::{Service, ServiceConfig};
use starqo_storage::{Database, DatabaseBuilder, Tuple};
use starqo_vexec::{VexecExecutor, VexecStats, BATCH_ROWS, MORSEL_ROWS};
use starqo_workload::Rng64;

/// The worker counts every vexec run is repeated at.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The plan cap of the degraded run: every multi-table query runs out of it.
const DEGRADE_CAP: u64 = 6;

/// The seeds every tier-1 run generates.
pub const SEEDS: Range<u64> = 0..200;

/// [`SEEDS`] cut in three, one slice per test that [`check_seeds`] them:
/// `random_plans.rs` (every alternative against the reference) and
/// `vexec.rs` (the random fleet, the degraded plans).
pub const SEED_SLICES: [Range<u64>; 3] = [0..67, 67..134, 134..200];

/// A bound on a generated case's cross product, outside the size class.
pub const MAX_PRODUCT: usize = 6_000;

/// One table of a [`Case`]: its catalog entry and its rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    pub name: String,
    pub site: u16,
    /// The catalog's row count (it may disagree with `rows`).
    pub card: u64,
    /// B-tree key columns; empty for a heap.
    pub key: Vec<String>,
    pub cols: Vec<(String, DataType, Option<u64>)>,
    /// Secondary indexes, by column names.
    pub indexes: Vec<Vec<String>>,
    pub rows: Vec<Vec<Value>>,
    /// Filled through `Database::insert` after `build` in the second form.
    pub late: bool,
}

fn names(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

impl Table {
    pub fn new(name: &str, card: u64) -> Table {
        let name = name.to_ascii_uppercase();
        Table {
            name,
            card,
            ..Default::default()
        }
    }

    pub fn site(mut self, site: u16) -> Table {
        self.site = site;
        self
    }

    pub fn btree(mut self, key: &[&str]) -> Table {
        self.key = names(key);
        self
    }

    pub fn col(mut self, name: &str, ty: DataType, distinct: Option<u64>) -> Table {
        self.cols.push((name.to_string(), ty, distinct));
        self
    }

    pub fn index(mut self, cols: &[&str]) -> Table {
        self.indexes.push(names(cols));
        self
    }

    pub fn late(mut self) -> Table {
        self.late = true;
        self
    }

    pub fn rows(mut self, rows: Vec<Vec<Value>>) -> Table {
        self.rows = rows;
        self
    }
}

/// A schema, its data and one query over it.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    pub tables: Vec<Table>,
    pub sql: String,
}

impl Case {
    pub fn new(sql: &str, tables: Vec<Table>) -> Case {
        let sql = sql.to_string();
        Case { tables, sql }
    }

    pub fn catalog(&self) -> Arc<Catalog> {
        let mut b = Catalog::builder();
        for s in 0..=self.tables.iter().map(|t| t.site).max().unwrap_or(0) {
            b = b.site(format!("S{s}"));
        }
        for t in &self.tables {
            let col = |c| t.cols.iter().position(|(n, ..)| n == c).expect("a column");
            let key = t.key.iter().map(|c| ColId(col(c) as u32)).collect();
            let storage = match t.key.is_empty() {
                true => StorageKind::Heap,
                false => StorageKind::BTree { key },
            };
            b = b.table(&t.name, &format!("S{}", t.site), storage, t.card);
            for (name, ty, distinct) in &t.cols {
                b = b.column(name, *ty, *distinct);
            }
        }
        for t in &self.tables {
            for (i, cols) in t.indexes.iter().enumerate() {
                let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
                b = b.index(format!("{}_I{i}", t.name), &t.name, &cols, false, false);
            }
        }
        Arc::new(b.build().expect("case catalog"))
    }

    /// The database as `build` leaves it, and — when a table is late — the
    /// same rows with that table filled through `Database::insert`.
    pub fn databases(&self, cat: &Arc<Catalog>) -> Vec<Database> {
        let late = self.tables.iter().any(|t| t.late);
        let forms = [false, true].into_iter().take(1 + late as usize);
        forms.map(|late| self.database(cat, late)).collect()
    }

    /// The database with every table loaded by `build`, or with the late
    /// table filled through `Database::insert` after it.
    fn database(&self, cat: &Arc<Catalog>, late: bool) -> Database {
        let mut b = DatabaseBuilder::new(cat.clone());
        let (now, after): (Vec<&Table>, _) = self.tables.iter().partition(|t| !late || !t.late);
        for t in now {
            for row in &t.rows {
                b.insert(&t.name, row.clone()).expect("a row");
            }
        }
        let mut db = b.build().expect("case database");
        for t in after {
            let id = cat.table_by_name(&t.name).expect("a table").id;
            for row in &t.rows {
                db.insert(id, Tuple(row.clone())).expect("a row");
            }
        }
        db
    }

    /// Whether the query returns a row from the first batch of each table
    /// (a select-project-join only gains rows from more).
    fn answers(&self) -> bool {
        let mut head = self.clone();
        head.tables
            .iter_mut()
            .for_each(|t| t.rows.truncate(BATCH_ROWS));
        let cat = head.catalog();
        let query = parse_query(&cat, &head.sql).expect("a generated query parses");
        let got = reference_eval(&head.database(&cat, false), &query);
        !got.expect("reference answer").is_empty()
    }

    /// The case as a Rust expression that rebuilds it.
    pub fn literal(&self) -> String {
        let mut s = format!("Case::new(\n    {:?},\n    vec![", self.sql);
        for t in &self.tables {
            let (name, card, site) = (&t.name, t.card, t.site);
            let _ = write!(s, "\n        Table::new({name:?}, {card}).site({site})");
            for (name, ty, distinct) in &t.cols {
                let _ = write!(s, ".col({name:?}, DataType::{ty:?}, {distinct:?})");
            }
            let _ = write!(s, ".btree(&{:?})", t.key);
            for cols in &t.indexes {
                let _ = write!(s, ".index(&{cols:?})");
            }
            s += if t.late { ".late()" } else { "" };
            s += ".rows(vec![";
            for row in &t.rows {
                let vals: Vec<String> = row.iter().map(value_literal).collect();
                let _ = write!(s, "\n            vec![{}],", vals.join(", "));
            }
            s += "\n        ]),";
        }
        s + "\n    ],\n)"
    }
}

fn value_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("Value::str({:?})", s.as_ref()),
        Value::Double(d) => format!("Value::Double({d:?})"),
        other => format!("Value::{other:?}"),
    }
}

/// What [`check`] went through.
#[derive(Debug, Default)]
pub struct Checked {
    /// The reference answer.
    pub rows: Vec<Tuple>,
    /// Plans run: alternatives and winners of both configurations and the
    /// degraded winner.
    pub plans: usize,
    /// Of those, plans with a correlated nested-loop inner.
    pub correlated: usize,
    /// The budget-capped run degraded.
    pub degraded: bool,
}

/// Check every equivalence of `case`; returns the reference answer and what
/// was run. Panics, naming the plan, on the first divergence.
pub fn check(case: &Case) -> Checked {
    let (cat, sql) = (case.catalog(), &case.sql);
    let dbs = case.databases(&cat);
    let query = parse_query(&cat, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let want = reference_eval(&dbs[0], &query).expect("reference answer");
    let opt = Optimizer::new(cat.clone()).expect("optimizer");
    let mut checked = Checked::default();
    let mut run = |plan: &PlanRef, what: String| {
        checked.plans += 1;
        checked.correlated += has_correlated_nl(plan, &query) as usize;
        for (form, db) in dbs.iter().enumerate() {
            let ctx = format!("{sql}: {what} {:?}, form {form}", plan.op_names());
            let got = check_plan(db, &query, plan, &ctx).unwrap();
            assert_answers(&want, &got.rows, &query, plan, &ctx);
        }
    };
    for (name, mut config) in [
        ("default", OptConfig::default()),
        ("full", OptConfig::full()),
    ] {
        config.glue_keep_all = true;
        let out = opt.optimize(&query, &config).expect("optimize");
        let ordered = out.best.props.order_satisfies(&query.order_by);
        assert!(ordered, "{sql}: {name} winner ignores ORDER BY");
        for (i, plan) in out.root_alternatives.iter().enumerate() {
            run(plan, format!("{name} alternative {i}"));
        }
        assert!(!out.root_alternatives.is_empty(), "{sql}: {name} has none");
        run(&out.best, format!("{name} winner"));
    }
    let mut capped = OptConfig::full();
    capped.budget = Budget::default().with_plans_cap(DEGRADE_CAP);
    let out = opt.optimize(&query, &capped).expect("optimize");
    if out.degraded {
        run(&out.best, "degraded winner".into());
        checked.degraded = true;
    }
    check_served(case, &cat, &dbs[0], &query, &want);
    let permuted = permuted(sql);
    let other = parse_query(&cat, &permuted).expect("the permuted query");
    let (a, b) = (canonicalize(&query), canonicalize(&other));
    let same = a.fingerprint == b.fingerprint && a.fingerprint.hash == b.fingerprint.hash;
    assert!(same, "{sql}: fingerprint moved under {permuted}");
    checked.rows = want;
    checked
}

/// Multiset equality with the reference; rows in ORDER BY order wherever
/// the plan claims that order.
fn assert_answers(want: &[Tuple], got: &[Tuple], query: &Query, plan: &PlanRef, ctx: &str) {
    let (n, m) = (got.len(), want.len());
    assert!(rows_equal_multiset(got, want), "{ctx}: {n} rows, not {m}");
    if !plan.props.order_satisfies(&query.order_by) {
        return;
    }
    let at = |c| query.select.iter().position(|s| s == c);
    let at: Vec<usize> = query
        .order_by
        .iter()
        .map(|c| at(c).expect("selected"))
        .collect();
    let key = |r: &Tuple| at.iter().map(|&i| r.get(i).clone()).collect::<Vec<_>>();
    let keys: Vec<_> = got.iter().map(key).collect();
    let ordered = keys.windows(2).all(|w| w[0] <= w[1]);
    assert!(ordered, "{ctx}: rows out of ORDER BY order");
}

/// `Service::execute` cold, then as a cache hit, equals the reference; after
/// a statistics change to a table the query does not name, the next request
/// is optimized afresh and answers exactly as the first.
fn check_served(case: &Case, cat: &Arc<Catalog>, db: &Database, query: &Query, want: &[Tuple]) {
    let svc = Service::new(cat.clone(), ServiceConfig::default()).expect("service");
    let serve = |what: &str| {
        let ctx = format!("{}: served {what}", case.sql);
        let (got, out) = svc
            .execute(db, query)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_answers(want, &got.rows, query, &out.optimized.best, &ctx);
        (got, out.cache_hit)
    };
    let (cold, hit) = serve("cold");
    assert!(!hit, "{}: a fresh service hit its cache", case.sql);
    let (again, hit) = serve("hit");
    assert!(hit && again == cold, "{}: the hit differs", case.sql);
    let named = |t: &&Table| {
        let id = cat.table_by_name(&t.name).expect("a table").id;
        query.quantifiers.iter().any(|q| q.table == id)
    };
    if let Some(t) = case.tables.iter().find(|t| !named(t)) {
        let shared = svc.shared_catalog();
        shared
            .set_table_card(&t.name, t.card * 3 + 7)
            .expect("stats change");
        // The catalog epoch moved, so the plan is optimized afresh (until
        // plans carry per-table stamps, ROADMAP item 17) and answers as the
        // cached one did.
        let (after, hit) = serve("after an unrelated stats change");
        assert!(!hit && after == cold, "{}: stale or moved", case.sql);
    }
}

/// `sql` cut at its clauses: `SELECT … FROM …`, the WHERE conjuncts, the
/// ORDER BY list.
fn clauses(sql: &str) -> (&str, Vec<&str>, &str) {
    let (head, order) = sql.split_once(" ORDER BY ").unwrap_or((sql, ""));
    let (head, conds) = head.split_once(" WHERE ").unwrap_or((head, ""));
    let conds = conds.split(" AND ").filter(|c| !c.is_empty());
    (head, conds.collect(), order)
}

fn assemble(head: &str, conds: &[&str], order: &str) -> String {
    let mut sql = head.to_string();
    if !conds.is_empty() {
        sql = format!("{sql} WHERE {}", conds.join(" AND "));
    }
    if !order.is_empty() {
        sql = format!("{sql} ORDER BY {order}");
    }
    sql
}

/// `sql` with its WHERE conjuncts reversed and its FROM list reversed by
/// table, keeping the relative order of quantifiers over one table (a
/// self-join's aliases are not interchangeable).
pub fn permuted(sql: &str) -> String {
    let (head, mut conds, order) = clauses(sql);
    let (select, from) = head.split_once(" FROM ").expect("a FROM list");
    let items: Vec<&str> = from.split(',').map(str::trim).collect();
    let table = |item: &str| item.split_whitespace().next().unwrap_or("").to_string();
    let first = |item: &&str| Reverse(items.iter().position(|i| table(i) == table(item)));
    let mut from = items.clone();
    from.sort_by_key(first);
    conds.reverse();
    assemble(&format!("{select} FROM {}", from.join(", ")), &conds, order)
}

/// A hand-built plan node over `inputs`, its properties derived as the
/// optimizer derives them.
pub fn node(db: &Database, query: &Query, op: Lolepop, inputs: Vec<PlanRef>) -> PlanRef {
    let model = CostModel::default();
    let ctx = PropCtx::new(db.catalog(), query, &model);
    let built = PropEngine::new().build(op, inputs, &ctx);
    built.unwrap_or_else(|e| panic!("plan rejected: {e:?}"))
}

/// True if some JOIN(NL) in the plan has a correlated inner.
pub fn has_correlated_nl(plan: &PlanRef, query: &Query) -> bool {
    plan.any(&|n| {
        let nl = matches!(
            n.op,
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                ..
            }
        );
        nl && n.inputs.get(1).is_some_and(|i| is_correlated(i, query))
    })
}

/// One plan's outcome on both engines.
#[derive(Debug)]
pub struct Ran {
    /// The outcome both engines agreed on.
    pub result: Result<QueryResult, String>,
    pub serial: ExecStats,
    /// vexec's counters, the same at every worker count (`max_workers` 0).
    pub vexec: VexecStats,
}

impl Ran {
    /// The rows of a plan that must succeed.
    #[track_caller]
    pub fn unwrap(self) -> QueryResult {
        self.result
            .unwrap_or_else(|e| panic!("both engines failed: {e}"))
    }
}

/// Run `plan` serially and through vexec at every worker count; assert the
/// outcomes are identical — the same rows in the same order, or the same
/// typed error — and, on success, that the counters both engines keep agree
/// and the vexec counters do not depend on the worker count.
pub fn check_plan(db: &Database, query: &Query, plan: &PlanRef, ctx: &str) -> Ran {
    let mut serial = Executor::new(db, query);
    let want = serial.run(plan).map_err(|e| e.to_string());
    let (o, ops) = (*serial.stats(), plan.op_names());
    let mut vexec: Option<VexecStats> = None;
    for w in WORKER_COUNTS {
        let mut vx = VexecExecutor::new(db, query);
        vx.set_workers(w);
        let got = vx.run(plan).map_err(|e| e.to_string());
        assert_eq!(
            got, want,
            "{ctx}: vexec({w} workers) diverged from serial on {ops:?}"
        );
        let mut s = *vx.stats();
        s.max_workers = 0;
        // The counters the service, the feedback plane and heal's verify
        // step read must not notice which engine ran. `pages_read` is the
        // one resource counter that may differ: vexec evaluates an
        // uncorrelated nested-loop inner once, where the oracle re-scans it
        // per outer row.
        let made = (s.rows_out, s.pipeline_rows, s.temps_built, s.indexes_built);
        let read = (s.probes, s.tuples_fetched, s.msgs, s.bytes_shipped);
        let same = made == (o.rows_out, o.pipeline_rows, o.temps_built, o.indexes_built)
            && read == (o.probes, o.tuples_fetched, o.msgs, o.bytes_shipped);
        assert!(
            want.is_err() || same,
            "{ctx}: counters {s:?} vs serial {o:?} on {ops:?}"
        );
        // Worker-count bookkeeping may legitimately differ; everything
        // else (batches, morsels, rows, I/O accounting) must not.
        let first = *vexec.get_or_insert(s);
        assert!(
            want.is_err() || s == first,
            "{ctx}: vexec stats vary at {w} workers"
        );
    }
    let vexec = vexec.expect("a worker count");
    Ran {
        result: want,
        serial: o,
        vexec,
    }
}

/// What [`check_seeds`] went through.
#[derive(Debug, Default)]
pub struct Tally {
    pub seeds: usize,
    pub plans: usize,
    pub correlated: usize,
    pub degraded: usize,
}

/// [`check_seed`] every seed of `seeds`, then assert the range stays wide:
/// at least 25 plans a seed, at least half of them with a correlated
/// nested-loop inner (sideways information passing is most of what runs),
/// and at least half the seeds degrading under the plan cap. If either
/// share vanishes, the generator stopped testing it.
pub fn check_seeds(seeds: Range<u64>) -> Tally {
    let mut tally = Tally::default();
    for seed in seeds {
        let checked = check_seed(seed);
        tally.seeds += 1;
        tally.plans += checked.plans;
        tally.correlated += checked.correlated;
        tally.degraded += checked.degraded as usize;
    }
    let Tally {
        seeds,
        plans,
        correlated,
        degraded,
    } = tally;
    let wide = plans >= 25 * seeds && correlated * 2 >= plans && degraded * 2 >= seeds;
    assert!(
        wide,
        "{correlated} correlated-NL plans of {plans}, {degraded} of {seeds} seeds degraded"
    );
    tally
}

/// [`generate`] and [`check`] one seed; on a failure, [`shrink`] the case
/// and panic with the seed and the minimal case as a Rust literal.
pub fn check_seed(seed: u64) -> Checked {
    let case = generate(seed);
    let fails = |c: &Case| catch_unwind(AssertUnwindSafe(|| check(c))).err();
    let first = match catch_unwind(AssertUnwindSafe(|| check(&case))) {
        Ok(checked) => return checked,
        Err(e) => e,
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let min = shrink(case, |c| fails(c).is_some());
    let last = fails(&min);
    std::panic::set_hook(hook);
    let (first, last) = (panic_text(Some(first)), panic_text(last));
    panic!(
        "seed {seed}: {first}\nshrunk: {last}\nminimal case:\n{}",
        min.literal()
    );
}

fn panic_text(e: Option<Box<dyn std::any::Any + Send>>) -> String {
    let Some(e) = e else {
        return "(passes: the failure is not deterministic)".into();
    };
    let s = e.downcast_ref::<String>().cloned();
    s.or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Greedily take a smaller variant of `case` that still `fails`, until none
/// does: a half of a table past a morsel, then without a WHERE conjunct,
/// the ORDER BY, a table the query does not name, a run of rows (halves
/// first, down to single rows or a 64th of the table), the late fill, an
/// index, the B-tree key or a remote site. Every variant is a check of
/// every alternative, so a table past a morsel is halved before anything is
/// tried over all of its rows, and each round starts at the place in the
/// list where the last one took its variant: those before it passed on a
/// larger case. The result is as minimal as a restart's: no variant of it
/// fails.
pub fn shrink(mut case: Case, fails: impl Fn(&Case) -> bool) -> Case {
    let mut from = 0;
    loop {
        let mut variants = smaller(&case);
        let n = variants.len();
        match (0..n)
            .map(|k| (from + k) % n)
            .find(|&i| fails(&variants[i]))
        {
            Some(i) => (case, from) = (variants.swap_remove(i), i),
            None => return case,
        }
    }
}

fn smaller(case: &Case) -> Vec<Case> {
    let (head, conds, order) = clauses(&case.sql);
    let with_sql = |sql: String| Case {
        sql,
        ..case.clone()
    };
    let without = |i: usize, at: usize, run: usize| {
        let mut c = case.clone();
        let rows = &mut c.tables[i].rows;
        rows.drain(at..(at + run).min(rows.len()));
        c
    };
    let big = |t: &Table| t.rows.len() > MORSEL_ROWS;
    let mut out = Vec::new();
    for (i, t) in case.tables.iter().enumerate().filter(|(_, t)| big(t)) {
        let half = t.rows.len().div_ceil(2);
        out.extend([0, half].map(|at| without(i, at, half)));
    }
    for i in 0..conds.len() {
        let mut fewer = conds.clone();
        fewer.remove(i);
        out.push(with_sql(assemble(head, &fewer, order)));
    }
    if !order.is_empty() {
        out.push(with_sql(assemble(head, &conds, "")));
    }
    let from = head.split_once(" FROM ").map_or("", |(_, from)| from);
    let named = |t: &Table| {
        from.split(',')
            .any(|i| i.split_whitespace().next() == Some(&t.name))
    };
    for (i, t) in case.tables.iter().enumerate() {
        if !named(t) {
            let mut c = case.clone();
            c.tables.remove(i);
            out.push(c);
        }
        // Runs no shorter than a 64th of the table: a grown table offers
        // 126 variants a round, not twice its rows (its halves came first).
        let mut run = t.rows.len().div_ceil(2);
        if big(t) {
            run /= 2;
        }
        while run > 0 && run * 64 >= t.rows.len() {
            out.extend((0..t.rows.len()).step_by(run).map(|at| without(i, at, run)));
            run /= 2;
        }
        let mut variant = |edit: &dyn Fn(&mut Table) -> bool| {
            let mut c = case.clone();
            if edit(&mut c.tables[i]) {
                out.push(c);
            }
        };
        variant(&|t| std::mem::take(&mut t.late));
        variant(&|t| t.indexes.pop().is_some());
        variant(&|t| !std::mem::take(&mut t.key).is_empty());
        variant(&|t| std::mem::take(&mut t.site) != 0);
    }
    out
}

/// A seeded case: 1–4 tables `T<i>(K, V[, D][, S])` of ≤ 64 rows (their
/// product bounded) with Int, Double and Str columns and NULLs; uniform,
/// skewed and duplicate-heavy join keys; empty and single-row tables; heap
/// and B-tree storage with and without secondary indexes; 1–3 sites; at
/// most one table filled after `build`. The query joins every table it
/// names to an earlier one (equi-, non-equi- and expression joins, and
/// sometimes one more pair), adds `=`, `<`, range, OR-group and expression
/// predicates and sometimes an ORDER BY on an Int or Str column; sometimes
/// it leaves the last table out. One in [`SIZE_CLASS`] of the seeds that
/// name one or two tables then [`grow`]s one of them past a morsel.
pub fn generate(seed: u64) -> Case {
    let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1FF);
    let n = 1 + rng.index(4);
    let sites = if n == 4 { 1 } else { 1 + rng.below(3) };
    let mut tables: Vec<Table> = (0..n).map(|t| gen_table(&mut rng, t, sites)).collect();
    bound(&mut tables, |_| true, MAX_PRODUCT);
    if rng.chance(0.35) {
        tables[rng.index(n)].late = true;
    }
    let named = if n > 1 && rng.chance(0.25) { n - 1 } else { n };
    let sql = gen_query(&mut rng, &tables[..named]);
    let mut case = Case { tables, sql };
    // A stream of its own, so that every seed's query text stays as it was.
    let mut size = Rng64::new(seed ^ 0x5EED_0B16);
    if named <= 2 && size.index(SIZE_CLASS) == 0 {
        let big = size.index(named);
        let small = std::mem::take(&mut case.tables);
        for _ in 0..GROW_TRIES {
            case.tables = small.clone();
            grow(&mut size, &mut case.tables, big);
            if case.answers() {
                break;
            }
        }
    }
    case
}

/// Halve the largest of the tables that `which` picks, by index, until
/// their row product is at most `max`.
fn bound(tables: &mut [Table], which: impl Fn(usize) -> bool, max: usize) {
    loop {
        let picked = tables.iter().enumerate().filter(|(i, _)| which(*i));
        if picked.map(|(_, t)| t.rows.len().max(1)).product::<usize>() <= max {
            return;
        }
        let picked = tables.iter_mut().enumerate().filter(|(i, _)| which(*i));
        let (_, big) = picked.max_by_key(|(_, t)| t.rows.len()).expect("a table");
        big.rows.truncate(big.rows.len() / 2);
    }
}

/// One in this many seeds that name one or two tables is in the size class
/// (12 of [`SEEDS`]). A 10k-row table in a 3- or 4-way join ran ~200 plans,
/// up to 15 s a case in a debug build.
const SIZE_CLASS: usize = 8;

/// Draws of a grown case until its query returns a row from the first batch
/// of the grown table: an empty answer hides every fault past it. A partner
/// that is empty or has no row its conjuncts pass, or a contradictory
/// WHERE, spends them all.
const GROW_TRIES: usize = 32;

/// The row product a grown table's partners are cut to: the serial executor
/// walks nested-loop products of the grown table with them.
const PARTNERS: usize = 4;

/// Give table `big` 5–9k rows (two morsels, three past 8 192), nine in ten
/// keyed on 2–7 values, so that sorted equal-key runs cross batch and
/// morsel boundaries, and the rest on any key. The 2–7 are drawn from the
/// partners' non-NULL keys when they have any, so that the grown table
/// meets its partners. NULL keys fill a tenth of the rows from a turning
/// row on: none, anywhere, the second batch or the second morsel (where the
/// key column is demoted from integers). Cut the other tables to
/// [`PARTNERS`] rows of product, a window from a random row on, filled by
/// `build`: a late-filled form of a case is a second run of every plan over
/// the grown table, and the small cases fill small tables late.
fn grow(rng: &mut Rng64, tables: &mut [Table], big: usize) {
    for (i, t) in tables.iter_mut().enumerate() {
        t.late &= i == big;
        if i != big {
            let at = rng.index(t.rows.len().max(1));
            t.rows.rotate_left(at);
        }
    }
    bound(tables, |i| i != big, PARTNERS);
    let partners = tables.iter().enumerate().filter(|(i, _)| *i != big);
    let theirs: Vec<u64> = partners
        .flat_map(|(_, t)| t.rows.iter().filter_map(|r| key_index(&r[0])))
        .collect();
    let t = &mut tables[big];
    let has = |c: &str| t.cols.iter().any(|(n, ..)| n == c);
    let (key_ty, double, string) = (t.cols[0].1, has("D"), has("S"));
    let len = 5_000 + rng.below(4_000) as usize;
    let dense: Vec<u64> = (0..2 + rng.below(6))
        .map(|k| match theirs.len() {
            0 => k,
            n => theirs[rng.index(n)],
        })
        .collect();
    let turn = [len, rng.index(len), BATCH_ROWS, MORSEL_ROWS][rng.index(4)];
    t.rows = (0..len)
        .map(|i| {
            let k = if rng.chance(0.9) {
                dense[rng.index(dense.len())]
            } else {
                rng.below(KEYS)
            };
            let key = key_value(key_ty, k);
            let mut row = gen_row(rng, key, double, string);
            if i >= turn && rng.chance(0.1) {
                row[0] = Value::Null;
            }
            row
        })
        .collect();
    t.card = len as u64;
}

/// Join keys are drawn from `0..KEYS`, shared by every table.
const KEYS: u64 = 12;

/// Key `k` as a value of `ty`.
fn key_value(ty: DataType, k: u64) -> Value {
    match ty {
        DataType::Double => Value::Double(k as f64 + (k % 4 / 3) as f64 / 2.0),
        DataType::Str => Value::str(format!("k{k}")),
        _ => Value::Int(k as i64),
    }
}

/// The `k` that [`key_value`] made `v` from; `None` for NULL.
fn key_index(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => Some(*i as u64),
        Value::Double(d) => Some(*d as u64),
        Value::Str(s) => s.strip_prefix('k')?.parse().ok(),
        _ => None,
    }
}

/// A row `[key, V, D?, S?]`.
fn gen_row(rng: &mut Rng64, key: Value, double: bool, string: bool) -> Vec<Value> {
    let mut row = vec![key, Value::Int(rng.below(20) as i64)];
    if double {
        row.push(Value::Double(rng.below(40) as f64 / 4.0));
    }
    if string {
        row.push(Value::str(["", "a", "ab", "b", "ba", "c"][rng.index(6)]));
    }
    row
}

fn gen_table(rng: &mut Rng64, t: usize, sites: u64) -> Table {
    let len = match rng.below(10) {
        l @ 0..=1 => l,
        2..=4 => 2 + rng.below(8),
        _ => 10 + rng.below(55),
    };
    let key_ty = [DataType::Double, DataType::Str].get(rng.index(10));
    let key_ty = key_ty.copied().unwrap_or(DataType::Int);
    let site = rng.below(sites) as u16;
    let mut table = Table::new(&format!("T{t}"), len)
        .site(site)
        .col("K", key_ty, None);
    table = table.col("V", DataType::Int, None);
    let (double, string) = (rng.chance(0.4), rng.chance(0.4));
    if double {
        table = table.col("D", DataType::Double, None);
    }
    if string {
        table = table.col("S", DataType::Str, None);
    }
    // Keys near-unique, skewed toward 0, or duplicate-heavy.
    let (dist, nulls) = (rng.index(3), if rng.chance(0.4) { 0.2 } else { 0.0 });
    for _ in 0..len {
        let top = [KEYS, rng.below(KEYS) + 1, 3][dist];
        let key = key_value(key_ty, rng.below(top));
        let mut row = gen_row(rng, key, double, string);
        for v in &mut row {
            if rng.chance(nulls) {
                *v = Value::Null;
            }
        }
        table.rows.push(row);
    }
    if rng.chance(0.2) {
        table.card = 1 + rng.below(200);
    }
    table.key = match rng.below(10) {
        0..=2 => names(&["K"]),
        3 => names(&["V", "K"]),
        _ => vec![],
    };
    if rng.chance(0.4) {
        table.indexes.push(names(&["K"]));
    }
    if rng.chance(0.2) {
        table.indexes.push(names(&["V", "K"]));
    }
    table
}

/// A literal of `ty` near the generated values.
fn constant(rng: &mut Rng64, ty: DataType) -> String {
    match ty {
        DataType::Double => format!("{}.5", rng.below(10)),
        DataType::Str => format!("'{}'", ["a", "ab", "b", "k3", "k7"][rng.index(5)]),
        _ => rng.below(20).to_string(),
    }
}

fn gen_query(rng: &mut Rng64, tables: &[Table]) -> String {
    let n = tables.len();
    let ty = |t: &Table, c: &str| t.cols.iter().find(|(n, ..)| n == c).map(|(_, ty, _)| *ty);
    let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i, rng.index(i))).collect();
    if n > 1 && rng.chance(0.3) {
        let a = rng.index(n);
        pairs.push((a, (a + 1 + rng.index(n - 1)) % n));
    }
    let mut conds = Vec::new();
    for (a, b) in pairs {
        let int_keys = [a, b].map(|t| ty(&tables[t], "K")) == [Some(DataType::Int); 2];
        let (x, y) = (&tables[a].name, &tables[b].name);
        conds.push(match rng.below(20) {
            0..=12 => format!("{x}.K = {y}.K"),
            13 => format!("{x}.V = {y}.V"),
            14 => format!("{x}.K < {y}.K"),
            15 => format!("{x}.V >= {y}.V"),
            16 => format!("{x}.K <> {y}.K"),
            _ if int_keys => format!("{x}.K + 1 = {y}.K"),
            _ => format!("{x}.V * 2 = {y}.V + {y}.V"),
        });
    }
    for _ in 0..rng.below(3) {
        let t = &tables[rng.index(n)];
        let (v, k) = (format!("{}.V", t.name), format!("{}.K", t.name));
        let (c, lo, kc) = (
            rng.below(20),
            rng.below(12),
            constant(rng, ty(t, "K").expect("K")),
        );
        let s = format!("{}.S < {}", t.name, constant(rng, DataType::Str));
        let d = format!("{}.D >= {}", t.name, constant(rng, DataType::Double));
        conds.push(match rng.below(9) {
            0 => format!("{v} = {c}"),
            1 => format!("{v} < {c}"),
            2 => format!("{v} >= {lo} AND {v} <= {}", lo + c % 8),
            3 => format!("({v} = {c} OR {k} = {kc})"),
            4 => format!("{v} + {v} > {}", c + lo),
            5 => format!("{k} = {kc}"),
            6 if ty(t, "S").is_some() => s,
            7 if ty(t, "D").is_some() => d,
            _ => format!("{v} - 3 < {}", c % 10),
        });
    }
    let cols = |t: &Table| {
        t.cols
            .iter()
            .map(|(c, ty, _)| (format!("{}.{c}", t.name), *ty))
            .collect::<Vec<_>>()
    };
    let all: Vec<(String, DataType)> = tables.iter().flat_map(cols).collect();
    let sortable: Vec<&String> = all
        .iter()
        .filter(|c| c.1 != DataType::Double)
        .map(|c| &c.0)
        .collect();
    let picks: Vec<&String> = (0..1 + rng.index(3))
        .map(|_| &all[rng.index(all.len())].0)
        .collect();
    let order = match rng.chance(0.35) {
        true => sortable[rng.index(sortable.len())].as_str(),
        false => "",
    };
    let mut select: Vec<&str> = Vec::new();
    for c in picks.into_iter().map(String::as_str).chain([order]) {
        if !c.is_empty() && !select.contains(&c) {
            select.push(c);
        }
    }
    let from: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
    let head = format!("SELECT {} FROM {}", select.join(", "), from.join(", "));
    assemble(
        &head,
        &conds.iter().map(String::as_str).collect::<Vec<_>>(),
        order,
    )
}

//! Native functions — the paper's "C functions" for rule conditions and
//! set computations (§5).
//!
//! Rules reference these by name; the registry is extensible, so a DBC can
//! register new condition functions alongside new rules. All of §4's
//! `where`-clause machinery is here: the predicate classifications (JP, IP,
//! SP, HP, XP), χ(·)-style column extraction, site tests, and the
//! configuration probes (`local_query`, `enabled`, `composite_inner_ok`).

use std::collections::HashMap;
use std::sync::Arc;

use starqo_catalog::Catalog;
use starqo_plan::CostModel;
use starqo_query::{Classifier, PredSet, QSet, Query};

use crate::error::{CoreError, Result};
use crate::optimizer::OptConfig;
use crate::store::RunStore;
use crate::table::PlanTable;
use crate::value::{RuleValue, StreamRef};

/// Read-only context natives evaluate in.
pub struct NativeCtx<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a Query,
    pub model: &'a CostModel,
    pub config: &'a OptConfig,
    pub table: &'a PlanTable,
    /// The run's plans and stream requirements: a SAP argument's plans are
    /// read here (`store.sap(sap)`, `store[id].props`), and so are a
    /// stream's requirements (`store.reqs(stream)`).
    pub store: &'a RunStore,
}

impl<'a> NativeCtx<'a> {
    fn classifier(&self) -> Classifier<'a> {
        Classifier::new(self.query)
    }

    /// The site a stream's existing plans deliver to: the site of the
    /// cheapest plan in the plan table (falling back to the stored site of a
    /// single base table, then the query site).
    pub fn current_site(&self, tables: QSet) -> starqo_catalog::SiteId {
        let keys = self.table.keys_for_tables(tables);
        let best = keys
            .filter_map(|k| self.table.best(self.store, k))
            .map(|p| &self.store[p].props)
            .min_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
        if let Some(p) = best {
            return p.site;
        }
        if let Some(q) = tables.as_single() {
            return self.catalog.table(self.query.quantifier(q).table).site;
        }
        self.query.query_site
    }
}

/// Signature of a native function.
pub type NativeFn = fn(&NativeCtx<'_>, &[RuleValue]) -> Result<RuleValue>;

/// The native-function registry.
#[derive(Clone, Default)]
pub struct Natives {
    fns: Vec<NativeFn>,
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl Natives {
    /// The registry pre-loaded with every built-in function.
    pub fn builtin() -> Self {
        let mut n = Natives::default();
        n.register("join_preds", n_join_preds);
        n.register("inner_preds", n_inner_preds);
        n.register("sortable_preds", n_sortable_preds);
        n.register("hashable_preds", n_hashable_preds);
        n.register("indexable_preds", n_indexable_preds);
        n.register("sort_key", n_sort_key);
        n.register("index_cols", n_index_cols);
        n.register("is_empty", n_is_empty);
        n.register("count", n_count);
        n.register("local_query", n_local_query);
        n.register("candidate_sites", n_candidate_sites);
        n.register("current_site", n_current_site);
        n.register("required_site", n_required_site);
        n.register("storage_kind", n_storage_kind);
        n.register("indexes", n_indexes);
        n.register("index_matching_preds", n_index_matching_preds);
        n.register("tid_stream_cols", n_tid_stream_cols);
        n.register("tid_col", n_tid_col);
        n.register("covers", n_covers);
        n.register("enabled", n_enabled);
        n.register("composite_inner_ok", n_composite_inner_ok);
        n
    }

    pub fn register(&mut self, name: &str, f: NativeFn) {
        let id = self.fns.len() as u32;
        self.fns.push(f);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
    }

    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// All registered native function names (in registration order) — the
    /// chaos runner enumerates fault-injection sites from this.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    pub fn call(&self, id: u32, ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
        (self.fns[id as usize])(ctx, args)
    }
}

// ---- argument helpers -------------------------------------------------

fn err(msg: impl Into<String>) -> CoreError {
    CoreError::Eval {
        star: "<native>".into(),
        msg: msg.into(),
    }
}

fn want_preds(v: &RuleValue) -> Result<PredSet> {
    match v {
        RuleValue::Preds(p) => Ok(*p),
        other => Err(err(format!("expected preds, got {}", other.kind()))),
    }
}

fn want_stream(v: &RuleValue) -> Result<&StreamRef> {
    match v {
        RuleValue::Stream(s) => Ok(s),
        other => Err(err(format!("expected stream, got {}", other.kind()))),
    }
}

fn want_tables(ctx: &NativeCtx<'_>, v: &RuleValue) -> Result<QSet> {
    match v {
        RuleValue::Stream(s) => Ok(s.tables),
        RuleValue::Plans(ps) => {
            let first = ctx.store.sap(*ps).first();
            Ok(first.map_or(QSet::EMPTY, |&p| ctx.store[p].props.tables))
        }
        other => Err(err(format!("expected stream, got {}", other.kind()))),
    }
}

fn want_index(v: &RuleValue) -> Result<(starqo_catalog::IndexId, starqo_query::QId)> {
    match v {
        RuleValue::Index(i, q) => Ok((*i, *q)),
        other => Err(err(format!("expected index, got {}", other.kind()))),
    }
}

fn arity(args: &[RuleValue], n: usize, what: &str) -> Result<()> {
    if args.len() != n {
        return Err(err(format!(
            "{what}: expected {n} arguments, got {}",
            args.len()
        )));
    }
    Ok(())
}

// ---- predicate classification (§4) -------------------------------------

fn n_join_preds(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "join_preds")?;
    Ok(RuleValue::Preds(
        ctx.classifier().join_preds(want_preds(&args[0])?),
    ))
}

fn n_inner_preds(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 2, "inner_preds")?;
    let p = want_preds(&args[0])?;
    let t2 = want_tables(ctx, &args[1])?;
    Ok(RuleValue::Preds(ctx.classifier().inner_preds(p, t2)))
}

fn n_sortable_preds(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 3, "sortable_preds")?;
    let p = want_preds(&args[0])?;
    let t1 = want_tables(ctx, &args[1])?;
    let t2 = want_tables(ctx, &args[2])?;
    Ok(RuleValue::Preds(ctx.classifier().sortable_preds(p, t1, t2)))
}

fn n_hashable_preds(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 3, "hashable_preds")?;
    let p = want_preds(&args[0])?;
    let t1 = want_tables(ctx, &args[1])?;
    let t2 = want_tables(ctx, &args[2])?;
    Ok(RuleValue::Preds(ctx.classifier().hashable_preds(p, t1, t2)))
}

fn n_indexable_preds(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 3, "indexable_preds")?;
    let p = want_preds(&args[0])?;
    let t1 = want_tables(ctx, &args[1])?;
    let t2 = want_tables(ctx, &args[2])?;
    Ok(RuleValue::Preds(
        ctx.classifier().indexable_preds(p, t1, t2),
    ))
}

fn n_sort_key(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 2, "sort_key")?;
    let sp = want_preds(&args[0])?;
    let side = want_tables(ctx, &args[1])?;
    Ok(RuleValue::Cols(ctx.classifier().sort_key(sp, side).into()))
}

fn n_index_cols(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 3, "index_cols")?;
    let ip = want_preds(&args[0])?;
    let xp = want_preds(&args[1])?;
    let t2 = want_tables(ctx, &args[2])?;
    Ok(RuleValue::Cols(
        ctx.classifier().index_cols(ip, xp, t2).into(),
    ))
}

// ---- generic set/scalar helpers ----------------------------------------

fn n_is_empty(_ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "is_empty")?;
    let b = match &args[0] {
        RuleValue::Preds(p) => p.is_empty(),
        RuleValue::Cols(c) => c.is_empty(),
        RuleValue::ColSet(c) => c.is_empty(),
        RuleValue::List(l) => l.is_empty(),
        RuleValue::Plans(p) => p.is_empty(),
        other => return Err(err(format!("is_empty: unsupported {}", other.kind()))),
    };
    Ok(RuleValue::Bool(b))
}

fn n_count(_ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "count")?;
    let n = match &args[0] {
        RuleValue::Stream(s) => s.tables.len() as i64,
        RuleValue::Preds(p) => p.len() as i64,
        RuleValue::Cols(c) => c.len() as i64,
        RuleValue::ColSet(c) => c.len() as i64,
        RuleValue::List(l) => l.len() as i64,
        RuleValue::Plans(p) => p.len() as i64,
        other => return Err(err(format!("count: unsupported {}", other.kind()))),
    };
    Ok(RuleValue::Int(n))
}

// ---- sites (§4.2) -------------------------------------------------------

fn n_local_query(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 0, "local_query")?;
    let qs = ctx.query.query_site;
    let local = ctx
        .query
        .quantifiers
        .iter()
        .all(|q| ctx.catalog.table(q.table).site == qs);
    Ok(RuleValue::Bool(local))
}

fn n_candidate_sites(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 0, "candidate_sites")?;
    // "the set of sites at which tables of the query are stored, plus the
    // query site" (§4.2).
    let mut sites = ctx
        .catalog
        .storage_sites(ctx.query.quantifiers.iter().map(|q| q.table));
    if !sites.contains(&ctx.query.query_site) {
        sites.push(ctx.query.query_site);
    }
    sites.sort();
    Ok(RuleValue::List(Arc::new(
        sites.into_iter().map(RuleValue::Site).collect(),
    )))
}

fn n_current_site(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "current_site")?;
    let s = want_stream(&args[0])?;
    Ok(RuleValue::Site(ctx.current_site(s.tables)))
}

fn n_required_site(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "required_site")?;
    let s = want_stream(&args[0])?;
    // `T![site]`: the accumulated site requirement; defaults to the current
    // site so that "no requirement" compares equal.
    Ok(RuleValue::Site(
        ctx.store
            .reqs(s)
            .site
            .unwrap_or_else(|| ctx.current_site(s.tables)),
    ))
}

// ---- storage and access paths ------------------------------------------

fn n_storage_kind(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "storage_kind")?;
    match &args[0] {
        RuleValue::Stream(s) => {
            let kind = match s.tables.as_single() {
                Some(q) => ctx
                    .catalog
                    .table(ctx.query.quantifier(q).table)
                    .storage
                    .name(),
                None => "heap", // composites materialize as heaps
            };
            Ok(RuleValue::Str(kind.into()))
        }
        // Temps are stored as heaps.
        RuleValue::Plans(_) => Ok(RuleValue::Str("heap".into())),
        other => Err(err(format!("storage_kind: unsupported {}", other.kind()))),
    }
}

fn n_indexes(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "indexes")?;
    let s = want_stream(&args[0])?;
    let items = match s.tables.as_single() {
        Some(q) => {
            let t = ctx.query.quantifier(q).table;
            ctx.catalog
                .indexes_on(t)
                .map(|ix| RuleValue::Index(ix.id, q))
                .collect()
        }
        None => Vec::new(), // composites have no catalog paths
    };
    Ok(RuleValue::List(Arc::new(items)))
}

fn n_index_matching_preds(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 2, "index_matching_preds")?;
    let (ix, q) = want_index(&args[0])?;
    let p = want_preds(&args[1])?;
    let def = ctx.catalog.index(ix);
    let (matched, _) = ctx.classifier().index_matching(p, q, &def.cols);
    Ok(RuleValue::Preds(matched))
}

fn n_tid_stream_cols(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "tid_stream_cols")?;
    let (ix, q) = want_index(&args[0])?;
    let def = ctx.catalog.index(ix);
    let key = def.cols.iter().copied().chain([starqo_catalog::TID_COL]);
    Ok(RuleValue::ColSet(
        key.map(|c| starqo_query::QCol::new(q, c)).collect(),
    ))
}

/// The TID pseudo-column of a single-table stream, as a one-element ordered
/// column list (usable as a SORT key).
fn n_tid_col(_ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "tid_col")?;
    let s = want_stream(&args[0])?;
    let q = s
        .tables
        .as_single()
        .ok_or_else(|| err("tid_col: stream must be a single table"))?;
    let tid = starqo_query::QCol::new(q, starqo_catalog::TID_COL);
    Ok(RuleValue::Cols([tid].as_slice().into()))
}

fn n_covers(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 3, "covers")?;
    let (ix, q) = want_index(&args[0])?;
    let def = ctx.catalog.index(ix);
    let key: Vec<starqo_query::QCol> = def
        .cols
        .iter()
        .map(|c| starqo_query::QCol::new(q, *c))
        .collect();
    let cols_ok = match &args[1] {
        RuleValue::ColSet(cs) => cs.iter().all(|c| key.contains(c)),
        RuleValue::AllCols => false,
        other => return Err(err(format!("covers: unsupported cols {}", other.kind()))),
    };
    // Every applied predicate must touch only key columns of this table.
    let preds = want_preds(&args[2])?;
    let preds_ok = preds.iter().all(|p| {
        let mut on_q = ctx.query.pred_cols(p).iter().filter(|c| c.q == q);
        on_q.all(|c| key.contains(c))
    });
    Ok(RuleValue::Bool(cols_ok && preds_ok))
}

// ---- configuration probes ----------------------------------------------

fn n_enabled(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "enabled")?;
    match &args[0] {
        RuleValue::Str(s) | RuleValue::Sym(s) => {
            Ok(RuleValue::Bool(ctx.config.enabled.contains(s.as_ref())))
        }
        other => Err(err(format!(
            "enabled: expected string, got {}",
            other.kind()
        ))),
    }
}

fn n_composite_inner_ok(ctx: &NativeCtx<'_>, args: &[RuleValue]) -> Result<RuleValue> {
    arity(args, 1, "composite_inner_ok")?;
    let t = want_tables(ctx, &args[0])?;
    Ok(RuleValue::Bool(ctx.config.composite_inners || t.len() <= 1))
}

//! The recursive plan evaluator.
//!
//! The evaluator materializes each operator's output. Correlation-free
//! subtrees under `STORE` / `SORT` / `BUILD_INDEX` are cached by node
//! identity, so a temp feeding a nested-loop inner is materialized exactly
//! once — the property the paper's §4.5.2 STAR is careful to guarantee
//! ("prevent the temp from being re-materialized for each outer tuple").
//! Streams carrying pushed-down join predicates *are* re-evaluated per outer
//! tuple, which is precisely nested-loop semantics.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use starqo_catalog::{Value, TID_COL};
// The key-binding and accounting helpers are shared with the vectorized
// executor (`starqo-vexec`), which must agree with this interpreter to the bit.
pub use starqo_plan::{is_correlated, FaultHook};
use starqo_plan::{
    panic_msg, position, prefix_candidates, range_candidates, value_bytes, AccessSpec, JoinFlavor,
    KeyBounds, Lolepop, PlanNode, PlanRef, QueryResult, StreamSchema,
};
use starqo_query::{Classifier, CmpOp, PredSet, QCol, QId, Query, Scalar};
use starqo_storage::{pages_spanned, Database, Tid, Tuple, ROWS_PER_PAGE};
use starqo_trace::{NodeActuals, SpanContext, TraceEvent};

use crate::result::project_rows;
use crate::scalar::{eval_preds, eval_scalar, Bindings, RowView};
use crate::schema::{cols_schema, schema_of};
use crate::{ExecError, Result};

/// A lazily built in-memory index over a cached temp: key values → row
/// numbers within the cached materialization.
type TempIndex = Arc<BTreeMap<Vec<Value>, Vec<usize>>>;

/// Simulated resource counters, mirroring the cost model's components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Heap/index pages scanned.
    pub pages_read: u64,
    /// Individual tuple fetches performed by `GET`.
    pub tuples_fetched: u64,
    /// Messages sent by `SHIP`.
    pub msgs: u64,
    /// Bytes shipped.
    pub bytes_shipped: u64,
    /// Temp materializations performed (cache misses).
    pub temps_built: u64,
    /// Dynamic indexes built.
    pub indexes_built: u64,
    /// Index probes.
    pub probes: u64,
    /// Rows produced by the root operator.
    pub rows_out: u64,
    /// Rows crossing pipeline breakers: each correlation-free temp
    /// materialization plus the root pipeline's output. The compact
    /// per-run actual the feedback plane folds even when tracing is
    /// suppressed.
    pub pipeline_rows: u64,
}

/// Execution routine for an extension LOLEPOP (§5): receives each input's
/// (schema, rows), the output schema, and must produce output rows.
pub type ExtExecFn = Arc<
    dyn Fn(&Query, &Lolepop, &[(StreamSchema, Vec<Tuple>)], &StreamSchema) -> Result<Vec<Tuple>>
        + Send
        + Sync,
>;

/// The plan evaluator for one database.
pub struct Executor<'a> {
    db: &'a Database,
    query: &'a Query,
    ext: HashMap<String, ExtExecFn>,
    stats: ExecStats,
    /// Materialization cache for correlation-free STORE/SORT subtrees.
    temp_cache: HashMap<usize, Arc<Vec<Tuple>>>,
    /// Dynamic index cache: (store node, key) → key-values → row numbers.
    index_cache: HashMap<(usize, Vec<QCol>), TempIndex>,
    /// The request's span recorder (`exec_node` events when detailed).
    spans: SpanContext,
    /// When set, per-node actuals are collected (timing each `eval` call).
    collect: bool,
    /// Actuals per node fingerprint; filled only when `collect` is on.
    node_stats: HashMap<u64, NodeActuals>,
    /// Armed fault-injection hook; `None` in production.
    fault_hook: Option<FaultHook>,
}

impl<'a> Executor<'a> {
    pub fn new(db: &'a Database, query: &'a Query) -> Self {
        Executor {
            db,
            query,
            ext: HashMap::new(),
            stats: ExecStats::default(),
            temp_cache: HashMap::new(),
            index_cache: HashMap::new(),
            spans: SpanContext::off(),
            collect: false,
            node_stats: HashMap::new(),
            fault_hook: None,
        }
    }

    /// Arm a fault-injection hook, consulted at every operator evaluation.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault_hook = Some(hook);
    }

    /// Attach a request's span recorder; a detailed request also collects
    /// per-node actuals, annotated as `exec_node` events when a plan ends.
    pub fn set_spans(&mut self, spans: SpanContext) {
        self.collect = self.collect || spans.is_detailed();
        self.spans = spans;
    }

    /// Collect per-node actuals (invocations, rows, wall time) even on an
    /// undetailed request — what `explain_analyze` consumes.
    pub fn enable_node_stats(&mut self) {
        self.collect = true;
    }

    /// Actuals per plan-node fingerprint gathered so far.
    pub fn node_actuals(&self) -> &HashMap<u64, NodeActuals> {
        &self.node_stats
    }

    /// Register the run-time routine for an extension LOLEPOP.
    pub fn register_ext(&mut self, name: &str, f: ExtExecFn) {
        self.ext.insert(name.to_string(), f);
    }

    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Execute a plan and project onto the query's select list (or the
    /// plan's full schema when the query selects `*`).
    ///
    /// Panics anywhere below the root (operators, extension routines,
    /// injected faults) are caught here and surfaced as
    /// [`ExecError::Panicked`] — never a process abort.
    pub fn run(&mut self, plan: &PlanRef) -> Result<QueryResult> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_inner(plan))) {
            Ok(r) => r,
            Err(payload) => Err(ExecError::Panicked(panic_msg(payload))),
        }
    }

    fn run_inner(&mut self, plan: &PlanRef) -> Result<QueryResult> {
        let bindings = Bindings::new();
        let rows = self.eval(plan, &bindings)?;
        self.stats.rows_out = rows.len() as u64;
        self.stats.pipeline_rows += rows.len() as u64;
        self.emit_node_events(plan);
        let schema = schema_of(plan);
        if self.query.select.is_empty() {
            return Ok(QueryResult { schema, rows });
        }
        let want = self.query.select.clone();
        let projected = project_rows(&schema, &rows, &want)?;
        Ok(QueryResult {
            schema: want,
            rows: projected,
        })
    }

    /// Evaluate one node under the given outer bindings.
    pub fn eval(&mut self, node: &PlanNode, bindings: &Bindings) -> Result<Vec<Tuple>> {
        if !self.collect {
            return self.eval_inner(node, bindings);
        }
        // Inclusive per-node timing: the wrapper runs for every recursive
        // `eval` call, so a node's nanos include its inputs' time.
        let started = std::time::Instant::now();
        let result = self.eval_inner(node, bindings);
        let nanos = started.elapsed().as_nanos() as u64;
        if let Ok(rows) = &result {
            let entry = self.node_stats.entry(node.fingerprint()).or_default();
            entry.invocations += 1;
            entry.rows_out = rows.len() as u64;
            entry.nanos += nanos;
        }
        result
    }

    fn eval_inner(&mut self, node: &PlanNode, bindings: &Bindings) -> Result<Vec<Tuple>> {
        if let Some(hook) = &self.fault_hook {
            if let Some(msg) = hook(&node.op.name()) {
                return Err(ExecError::Injected(msg));
            }
        }
        match &node.op {
            Lolepop::Access { spec, cols, preds } => match spec {
                AccessSpec::HeapTable(q) | AccessSpec::BTreeTable(q) => {
                    self.scan_base(*q, &cols_schema(cols), *preds, bindings)
                }
                AccessSpec::Index { index, q } => {
                    self.scan_index(*index, *q, &cols_schema(cols), *preds, bindings)
                }
                AccessSpec::TempHeap => {
                    self.access_temp(node, &cols_schema(cols), *preds, bindings)
                }
                AccessSpec::TempIndex { key } => {
                    self.access_temp_index(node, key, &cols_schema(cols), *preds, bindings)
                }
            },
            Lolepop::Get { q, cols: _, preds } => self.get(node, *q, *preds, bindings),
            Lolepop::Sort { key } => {
                let child = input(node, 0)?;
                let rows = self.eval_cached(child, bindings)?;
                let schema = schema_of(child);
                let mut rows = rows.as_ref().clone();
                let idx: Vec<usize> = key
                    .iter()
                    .map(|c| {
                        position(&schema, *c).ok_or_else(|| ExecError::UnboundColumn(c.to_string()))
                    })
                    .collect::<Result<_>>()?;
                rows.sort_by(|a, b| {
                    idx.iter()
                        .map(|i| a.get(*i).cmp(b.get(*i)))
                        .find(|o| *o != std::cmp::Ordering::Equal)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                Ok(rows)
            }
            Lolepop::Ship { .. } => {
                let rows = self.eval(input(node, 0)?, bindings)?;
                let bytes: u64 = rows
                    .iter()
                    .map(|r| r.0.iter().map(value_bytes).sum::<u64>())
                    .sum();
                self.stats.bytes_shipped += bytes;
                self.stats.msgs += (bytes / 4096).max(1);
                Ok(rows)
            }
            Lolepop::Store | Lolepop::BuildIndex { .. } => {
                // STORE materializes (cached); BUILD_INDEX passes the stored
                // rows through — its index is built lazily on first probe.
                Ok(self
                    .eval_cached(input(node, 0)?, bindings)?
                    .as_ref()
                    .clone())
            }
            Lolepop::Filter { preds } => {
                let child = input(node, 0)?;
                let rows = self.eval(child, bindings)?;
                let schema = schema_of(child);
                self.filter_rows(rows, &schema, *preds, bindings)
            }
            Lolepop::Join {
                flavor,
                join_preds,
                residual,
            } => self.join(node, *flavor, *join_preds, *residual, bindings),
            Lolepop::Union => {
                let mut rows = self.eval(input(node, 0)?, bindings)?;
                rows.extend(self.eval(input(node, 1)?, bindings)?);
                Ok(rows)
            }
            Lolepop::Ext { name, .. } => {
                let f = self
                    .ext
                    .get(name.as_ref())
                    .cloned()
                    .ok_or_else(|| ExecError::UnknownExtOp(name.to_string()))?;
                let mut inputs = Vec::with_capacity(node.inputs.len());
                for i in &node.inputs {
                    let rows = self.eval(i, bindings)?;
                    inputs.push((schema_of(i), rows));
                }
                f(self.query, &node.op, &inputs, &schema_of(node))
            }
        }
    }

    /// Annotate one `exec_node` event per distinct plan node with its
    /// collected actuals (shared subtrees appear once).
    fn emit_node_events(&self, plan: &PlanRef) {
        if !self.spans.is_detailed() {
            return;
        }
        let mut seen = std::collections::HashSet::new();
        plan.visit(&mut |n| {
            if !seen.insert(n.fingerprint()) {
                return;
            }
            let a = self
                .node_stats
                .get(&n.fingerprint())
                .copied()
                .unwrap_or_default();
            self.spans.detail(|| TraceEvent::ExecNode {
                op: n.op.name(),
                fp: n.fingerprint(),
                rows_out: a.rows_out,
                invocations: a.invocations,
                nanos: a.nanos,
            });
        });
    }

    /// Evaluate with node-identity caching when the subtree is
    /// correlation-free.
    fn eval_cached(&mut self, node: &PlanRef, bindings: &Bindings) -> Result<Arc<Vec<Tuple>>> {
        let key = Arc::as_ptr(node) as usize;
        if let Some(hit) = self.temp_cache.get(&key) {
            return Ok(hit.clone());
        }
        let rows = Arc::new(self.eval(node, bindings)?);
        if !is_correlated(node, self.query) {
            // Count a temp materialization only for STORE nodes themselves
            // (not for the cached children they wrap).
            if matches!(node.op, Lolepop::Store) {
                self.stats.temps_built += 1;
                self.stats.pipeline_rows += rows.len() as u64;
            }
            self.temp_cache.insert(key, rows.clone());
        }
        Ok(rows)
    }

    fn filter_rows(
        &self,
        rows: Vec<Tuple>,
        schema: &[QCol],
        preds: PredSet,
        bindings: &Bindings,
    ) -> Result<Vec<Tuple>> {
        let mut out = Vec::with_capacity(rows.len());
        for r in rows {
            let view = RowView {
                schema,
                row: &r,
                bindings,
            };
            if eval_preds(self.query, preds, &view)? {
                out.push(r);
            }
        }
        Ok(out)
    }

    fn scan_base(
        &mut self,
        q: QId,
        schema: &[QCol],
        preds: PredSet,
        bindings: &Bindings,
    ) -> Result<Vec<Tuple>> {
        let table_id = self.query.quantifier(q).table;
        let stored = self.db.table(table_id)?;
        // The key-range read of a B-tree-stored table (a heap has no key:
        // nothing binds, the range is the whole table). Only the rows read
        // are charged and only they meet the predicates — all of them.
        let key = self.db.catalog().table(table_id).native_order();
        let key_qcols: Vec<QCol> = key.iter().map(|c| QCol::new(q, *c)).collect();
        let (prefix, bounds) = bound_key_range(self.query, &key_qcols, preds, bindings);
        let range = stored.key_range(key, &prefix, bounds.lower.as_ref(), bounds.upper.as_ref());
        self.stats.pages_read += pages_spanned(&range);
        let mut out = Vec::new();
        for (i, row) in stored.rows_range(range.clone()).iter().enumerate() {
            let tid = Tid((range.start + i) as u64);
            let tuple = Tuple(
                schema
                    .iter()
                    .map(|c| {
                        if c.col.is_tid() {
                            tid.to_value()
                        } else {
                            row.get(c.col.0 as usize).clone()
                        }
                    })
                    .collect(),
            );
            let view = RowView {
                schema,
                row: &tuple,
                bindings,
            };
            if eval_preds(self.query, preds, &view)? {
                out.push(tuple);
            }
        }
        Ok(out)
    }

    fn scan_index(
        &mut self,
        index: starqo_catalog::IndexId,
        q: QId,
        schema: &[QCol],
        preds: PredSet,
        bindings: &Bindings,
    ) -> Result<Vec<Tuple>> {
        let def = self.db.catalog().index(index).clone();
        let data = self.db.index(index)?;
        let key_qcols: Vec<QCol> = def.cols.iter().map(|c| QCol::new(q, *c)).collect();
        let prefix = bound_prefix(self.query, &key_qcols, preds, bindings);

        let mut out = Vec::new();
        let emit = |key: &Vec<Value>, tid: Tid, out: &mut Vec<Tuple>| {
            let tuple = Tuple(
                schema
                    .iter()
                    .map(|c| {
                        if c.col.is_tid() {
                            tid.to_value()
                        } else {
                            let pos = def.cols.iter().position(|k| *k == c.col).unwrap_or(0);
                            key[pos].clone()
                        }
                    })
                    .collect(),
            );
            out.push(tuple);
        };
        if prefix.is_empty() {
            self.stats.pages_read += data.pages();
            for (key, tid) in data.scan() {
                emit(key, tid, &mut out);
            }
        } else {
            self.stats.probes += 1;
            let mut scanned = 0u64;
            for (key, tid) in data.probe_prefix(&prefix) {
                emit(key, tid, &mut out);
                scanned += 1;
            }
            self.stats.pages_read += scanned.div_ceil(ROWS_PER_PAGE) + 1;
        }
        self.filter_rows(out, schema, preds, bindings)
    }

    fn get(
        &mut self,
        node: &PlanNode,
        q: QId,
        preds: PredSet,
        bindings: &Bindings,
    ) -> Result<Vec<Tuple>> {
        let input = input(node, 0)?;
        let in_schema = schema_of(input);
        let in_rows = self.eval(input, bindings)?;
        let out_schema = schema_of(node);
        let tid_col = QCol::new(q, TID_COL);
        let tid_pos = position(&in_schema, tid_col)
            .ok_or_else(|| ExecError::BadPlan("GET input lacks TID column".into()))?;
        let table_id = self.query.quantifier(q).table;
        let stored = self.db.table(table_id)?;

        let mut out = Vec::with_capacity(in_rows.len());
        // Buffer locality: consecutive fetches from the same page cost one
        // read — this is what makes TID-sorted GETs cheap at run time.
        let mut last_page = u64::MAX;
        for r in in_rows {
            let tid = Tid::from_value(r.get(tid_pos))
                .ok_or_else(|| ExecError::BadPlan("non-TID value in TID column".into()))?;
            let base = stored.fetch(tid)?;
            self.stats.tuples_fetched += 1;
            let page = tid.page(ROWS_PER_PAGE);
            if page != last_page {
                self.stats.pages_read += 1;
                last_page = page;
            }
            let tuple = Tuple(
                out_schema
                    .iter()
                    .map(|c| {
                        if let Some(i) = position(&in_schema, *c) {
                            r.get(i).clone()
                        } else {
                            base.get(c.col.0 as usize).clone()
                        }
                    })
                    .collect(),
            );
            let view = RowView {
                schema: &out_schema,
                row: &tuple,
                bindings,
            };
            if eval_preds(self.query, preds, &view)? {
                out.push(tuple);
            }
        }
        Ok(out)
    }

    fn access_temp(
        &mut self,
        node: &PlanNode,
        schema: &[QCol],
        preds: PredSet,
        bindings: &Bindings,
    ) -> Result<Vec<Tuple>> {
        let input = input(node, 0)?;
        let in_schema = schema_of(input);
        let rows = self.eval_cached(input, bindings)?;
        self.stats.pages_read += (rows.len() as u64).div_ceil(ROWS_PER_PAGE).max(1);
        let projected = project_rows(&in_schema, &rows, schema)?;
        self.filter_rows(projected, schema, preds, bindings)
    }

    fn access_temp_index(
        &mut self,
        node: &PlanNode,
        key: &[QCol],
        schema: &[QCol],
        preds: PredSet,
        bindings: &Bindings,
    ) -> Result<Vec<Tuple>> {
        let input = input(node, 0)?;
        let in_schema = schema_of(input);
        let rows = self.eval_cached(input, bindings)?;
        let cache_key = (Arc::as_ptr(input) as usize, key.to_vec());
        let index = match self.index_cache.get(&cache_key) {
            Some(ix) => ix.clone(),
            None => {
                let mut map: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
                let kpos: Vec<usize> = key
                    .iter()
                    .map(|c| {
                        position(&in_schema, *c)
                            .ok_or_else(|| ExecError::UnboundColumn(c.to_string()))
                    })
                    .collect::<Result<_>>()?;
                for (i, r) in rows.iter().enumerate() {
                    let k: Vec<Value> = kpos.iter().map(|p| r.get(*p).clone()).collect();
                    map.entry(k).or_default().push(i);
                }
                self.stats.indexes_built += 1;
                let ix = Arc::new(map);
                self.index_cache.insert(cache_key, ix.clone());
                ix
            }
        };
        let prefix = bound_prefix(self.query, key, preds, bindings);
        self.stats.probes += 1;
        let mut hits: Vec<Tuple> = Vec::new();
        if prefix.is_empty() {
            hits.extend(rows.iter().cloned());
        } else {
            use std::ops::Bound;
            for (k, idxs) in
                index.range::<[Value], _>((Bound::Included(prefix.as_slice()), Bound::Unbounded))
            {
                if k.len() < prefix.len() || k[..prefix.len()] != prefix[..] {
                    break;
                }
                for i in idxs {
                    hits.push(rows[*i].clone());
                }
            }
        }
        self.stats.pages_read += (hits.len() as u64).div_ceil(ROWS_PER_PAGE) + 1;
        let projected = project_rows(&in_schema, &hits, schema)?;
        self.filter_rows(projected, schema, preds, bindings)
    }

    fn join(
        &mut self,
        node: &PlanNode,
        flavor: JoinFlavor,
        join_preds: PredSet,
        residual: PredSet,
        bindings: &Bindings,
    ) -> Result<Vec<Tuple>> {
        let (outer_node, inner_node) = (input(node, 0)?, input(node, 1)?);
        let o_schema = schema_of(outer_node);
        let i_schema = schema_of(inner_node);
        let out_schema = schema_of(node);
        let all_preds = join_preds.union(residual);

        let combine = |o: &Tuple, i: &Tuple| -> Tuple {
            Tuple(
                out_schema
                    .iter()
                    .map(|c| {
                        if let Some(p) = position(&o_schema, *c) {
                            o.get(p).clone()
                        } else if let Some(p) = position(&i_schema, *c) {
                            i.get(p).clone()
                        } else {
                            Value::Null
                        }
                    })
                    .collect(),
            )
        };

        let mut out = Vec::new();
        match flavor {
            JoinFlavor::NL => {
                let outer_rows = self.eval(outer_node, bindings)?;
                for o in &outer_rows {
                    // Sideways information passing: bind the outer columns.
                    let mut b2 = bindings.clone();
                    for (i, c) in o_schema.iter().enumerate() {
                        b2.insert(*c, o.get(i).clone());
                    }
                    let inner_rows = self.eval(inner_node, &b2)?;
                    for i in &inner_rows {
                        let t = combine(o, i);
                        let view = RowView {
                            schema: &out_schema,
                            row: &t,
                            bindings,
                        };
                        if eval_preds(self.query, all_preds, &view)? {
                            out.push(t);
                        }
                    }
                }
            }
            JoinFlavor::MG => {
                // Merge keys are paired *per predicate*: one (outer column,
                // inner column) pair for each sortable join predicate. A
                // column may repeat (e.g. `t0.FK = t1.ID AND t0.FK = t2.ID`
                // repeats t0.FK) — repeating keeps the two key vectors the
                // same length so positional comparison is meaningful, and a
                // stream sorted on the deduplicated key is equally sorted on
                // the repeated one.
                let mut op: Vec<usize> = Vec::new();
                let mut ip: Vec<usize> = Vec::new();
                for p in join_preds.iter() {
                    let starqo_query::PredExpr::Cmp(CmpOp::Eq, l, r) = &self.query.pred(p).expr
                    else {
                        return Err(ExecError::BadPlan(
                            "merge join predicate is not a column equality".into(),
                        ));
                    };
                    let (lc, rc) = match (l.as_col(), r.as_col()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            return Err(ExecError::BadPlan(
                                "merge join predicate side is not a bare column".into(),
                            ))
                        }
                    };
                    let (oc, ic) = if outer_node.props.tables.contains(lc.q) {
                        (lc, rc)
                    } else {
                        (rc, lc)
                    };
                    op.push(
                        position(&o_schema, oc)
                            .ok_or_else(|| ExecError::UnboundColumn(oc.to_string()))?,
                    );
                    ip.push(
                        position(&i_schema, ic)
                            .ok_or_else(|| ExecError::UnboundColumn(ic.to_string()))?,
                    );
                }
                // Both streams must be sorted compatibly with the key order
                // the classifier derives (Glue guarantees it; check cheaply).
                let cl = Classifier::new(self.query);
                debug_assert!(outer_node
                    .props
                    .order_satisfies(&cl.sort_key(join_preds, outer_node.props.tables)));
                debug_assert!(inner_node
                    .props
                    .order_satisfies(&cl.sort_key(join_preds, inner_node.props.tables)));
                let outer_rows = self.eval(outer_node, bindings)?;
                let inner_rows = self.eval(inner_node, bindings)?;
                let keyed = |r: &Tuple, pos: &[usize]| -> Vec<Value> {
                    pos.iter().map(|p| r.get(*p).clone()).collect()
                };
                let (mut a, mut b) = (0usize, 0usize);
                while a < outer_rows.len() && b < inner_rows.len() {
                    let ka = keyed(&outer_rows[a], &op);
                    let kb = keyed(&inner_rows[b], &ip);
                    match ka.cmp(&kb) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            // Group boundaries on both sides.
                            let mut a_end = a + 1;
                            while a_end < outer_rows.len() && keyed(&outer_rows[a_end], &op) == ka {
                                a_end += 1;
                            }
                            let mut b_end = b + 1;
                            while b_end < inner_rows.len() && keyed(&inner_rows[b_end], &ip) == kb {
                                b_end += 1;
                            }
                            for o in &outer_rows[a..a_end] {
                                for i in &inner_rows[b..b_end] {
                                    let t = combine(o, i);
                                    let view = RowView {
                                        schema: &out_schema,
                                        row: &t,
                                        bindings,
                                    };
                                    if eval_preds(self.query, all_preds, &view)? {
                                        out.push(t);
                                    }
                                }
                            }
                            a = a_end;
                            b = b_end;
                        }
                    }
                }
            }
            JoinFlavor::HA => {
                // Split each hashable predicate into (outer expr, inner expr).
                let mut pairs: Vec<(Scalar, Scalar)> = Vec::new();
                for p in join_preds.iter() {
                    if let starqo_query::PredExpr::Cmp(CmpOp::Eq, l, r) = &self.query.pred(p).expr {
                        if l.quantifiers().is_subset_of(outer_node.props.tables) {
                            pairs.push((l.clone(), r.clone()));
                        } else {
                            pairs.push((r.clone(), l.clone()));
                        }
                    }
                }
                let inner_rows = self.eval(inner_node, bindings)?;
                let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                'row: for (i, r) in inner_rows.iter().enumerate() {
                    let view = RowView {
                        schema: &i_schema,
                        row: r,
                        bindings,
                    };
                    let mut key = Vec::with_capacity(pairs.len());
                    for (_, ie) in &pairs {
                        let v = eval_scalar(ie, &view)?;
                        if v.is_null() {
                            continue 'row; // NULL keys never match
                        }
                        key.push(v);
                    }
                    table.entry(key).or_default().push(i);
                }
                let outer_rows = self.eval(outer_node, bindings)?;
                'orow: for o in &outer_rows {
                    let view = RowView {
                        schema: &o_schema,
                        row: o,
                        bindings,
                    };
                    let mut key = Vec::with_capacity(pairs.len());
                    for (oe, _) in &pairs {
                        let v = eval_scalar(oe, &view)?;
                        if v.is_null() {
                            continue 'orow;
                        }
                        key.push(v);
                    }
                    if let Some(matches) = table.get(&key) {
                        for i in matches {
                            let t = combine(o, &inner_rows[*i]);
                            let view = RowView {
                                schema: &out_schema,
                                row: &t,
                                bindings,
                            };
                            if eval_preds(self.query, all_preds, &view)? {
                                out.push(t);
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Checked input access: a malformed plan (wrong operator arity) surfaces
/// as a typed `BadPlan`, never an index panic.
fn input(node: &PlanNode, i: usize) -> Result<&PlanRef> {
    node.inputs.get(i).ok_or_else(|| {
        ExecError::BadPlan(format!(
            "{} requires input #{} but the node has {}",
            node.op.name(),
            i + 1,
            node.inputs.len()
        ))
    })
}

fn no_row(bindings: &Bindings) -> RowView<'_> {
    const EMPTY_ROW: &Tuple = &Tuple(Vec::new());
    RowView {
        schema: &[],
        row: EMPTY_ROW,
        bindings,
    }
}

/// For each key column in order, the first candidate that evaluates, from
/// constants and outer bindings alone, to a non-NULL value; ends at the
/// first column nothing binds.
fn eval_prefix(cands: Vec<Vec<&Scalar>>, bindings: &Bindings) -> Vec<Value> {
    let view = no_row(bindings);
    let bind = |col: Vec<&Scalar>| {
        col.into_iter()
            .find_map(|s| eval_scalar(s, &view).ok().filter(|v| !v.is_null()))
    };
    cands.into_iter().map_while(bind).collect()
}

/// The longest bound equality prefix of an index key: for each key column
/// in order, the first [`prefix_candidates`] expression that evaluates, from
/// constants and outer bindings alone, to a non-NULL value.
fn bound_prefix(query: &Query, key: &[QCol], preds: PredSet, bindings: &Bindings) -> Vec<Value> {
    eval_prefix(prefix_candidates(query, key, preds), bindings)
}

/// What a key-range read of a table stored in `key` order is narrowed by:
/// the [`bound_prefix`] and — only when every equality column of the key
/// got bound — the [`KeyBounds`] of the [`range_candidates`] that evaluate.
fn bound_key_range(
    query: &Query,
    key: &[QCol],
    preds: PredSet,
    bindings: &Bindings,
) -> (Vec<Value>, KeyBounds) {
    let cands = prefix_candidates(query, key, preds);
    let eq_cols = cands.len();
    let prefix = eval_prefix(cands, bindings);
    let mut bounds = KeyBounds::OPEN;
    if let Some(kc) = key.get(eq_cols).filter(|_| prefix.len() == eq_cols) {
        let view = no_row(bindings);
        for (op, s) in range_candidates(query, *kc, preds) {
            if let Ok(v) = eval_scalar(s, &view) {
                bounds.apply(op, v);
            }
        }
    }
    (prefix, bounds)
}

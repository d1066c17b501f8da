//! The vectorized executor: compiles a LOLEPOP plan into fused chains and
//! native pipeline breakers, and runs it with rows staying columnar from
//! the base tables to the result.
//!
//! ## Oracle contract
//!
//! Every run must produce a `QueryResult` byte-identical to the serial
//! interpreter's (`starqo_exec::Executor`, the test oracle) for any plan
//! without extension operators — including row ORDER, which the serial
//! engine fixes by source order (stable sorts, outer-major joins, morsels
//! reassembled in index order at each exchange) — and the same `rows_out`,
//! `pipeline_rows`, `temps_built`, `indexes_built`, `probes`,
//! `tuples_fetched`, `msgs` and `bytes_shipped`. `pages_read` is the one
//! resource counter that may differ: an uncorrelated nested-loop inner is
//! evaluated once here, where the oracle re-scans it for every outer row.
//!
//! How the run is organised — compile once, columnar relations across
//! breakers, re-runnable correlated inners, inline morsels at one worker —
//! is in the crate docs and `docs/EXECUTOR.md`.

use std::cmp::Ordering as Cmp;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use starqo_catalog::Value;
use starqo_plan::result::{ExecError, Result};
use starqo_plan::{panic_msg, position, FaultHook, Lolepop, PlanRef, QueryResult};
use starqo_query::Query;
use starqo_storage::{pages_spanned, Database, Tid, Tuple, ROWS_PER_PAGE};
use starqo_trace::runmem::{self, RunMemory};
use starqo_trace::{LatencyPath, Metric, SpanContext, SpanGuard, Telemetry};

use crate::batch::{Batch, Column, Rel, Val};
use crate::chain::{Chain, ChainStats, Combine, Input, Scratch, Source};
use crate::expr::{CExpr, Scope};
use crate::plan::{Compiler, Kind, Node};

/// Rows per morsel: the work-stealing granule. A multiple of the batch size
/// so batch boundaries never straddle morsels.
pub const MORSEL_ROWS: usize = 4096;

/// Column buffers a run keeps for reuse.
const SPARE_COLUMNS: usize = 32;

/// Run counters (the serial oracle's `ExecStats` resource model plus the
/// vectorized-runtime tallies). All values are deterministic for a given
/// plan and database — independent of worker count and completion order.
/// Every resource counter but `pages_read` equals the oracle's; that one
/// charges the I/O this engine does, so an uncorrelated nested-loop inner,
/// evaluated once, is read once (the oracle re-scans it per outer row).
/// Heal's verify step judges plans by these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VexecStats {
    /// Batch-sized source ranges pushed through chains.
    pub batches: u64,
    /// Morsels enqueued across all chains.
    pub morsels_queued: u64,
    /// Morsels completed.
    pub morsels: u64,
    /// Rows leaving chains at exchanges.
    pub rows: u64,
    /// Widest worker pool used by any chain this run.
    pub max_workers: u64,
    /// Rows produced by the root operator.
    pub rows_out: u64,
    /// Rows crossing pipeline breakers (root output + STORE
    /// materializations) — same definition as the serial engine.
    pub pipeline_rows: u64,
    pub pages_read: u64,
    pub tuples_fetched: u64,
    pub msgs: u64,
    pub bytes_shipped: u64,
    pub temps_built: u64,
    pub indexes_built: u64,
    /// Index probes, as the serial engine counts them: an uncorrelated
    /// nested-loop inner is evaluated once here but charged once per outer
    /// row, like the re-evaluation it stands for (see `Work`).
    pub probes: u64,
}

/// The counters the serial engine adds each time it re-evaluates a subtree,
/// less what its caches answer after the first time: the charge of an
/// uncorrelated nested-loop inner per further outer row.
#[derive(Debug, Clone, Copy, Default)]
struct Work([u64; 4]);

impl Work {
    fn of(s: &VexecStats) -> Work {
        Work([s.probes, s.tuples_fetched, s.msgs, s.bytes_shipped])
    }

    fn since(self, earlier: Work) -> Work {
        Work(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    fn plus(self, more: Work) -> Work {
        Work(std::array::from_fn(|i| self.0[i] + more.0[i]))
    }

    fn charge(self, s: &mut VexecStats, times: u64) {
        let [probes, fetched, msgs, bytes] = self.0.map(|w| w * times);
        s.probes += probes;
        s.tuples_fetched += fetched;
        s.msgs += msgs;
        s.bytes_shipped += bytes;
    }
}

/// Can the vectorized executor run this plan? Returns the reason it cannot.
///
/// Only extension operators are rejected: their routines are registered
/// against the serial executor's row-at-a-time calling convention (running
/// one anyway yields the serial engine's `UnknownExtOp` error).
pub fn supports(plan: &PlanRef, _query: &Query) -> std::result::Result<(), String> {
    let mut reason = None;
    plan.visit(&mut |n| {
        if let Lolepop::Ext { name, .. } = &n.op {
            reason.get_or_insert_with(|| format!("extension operator {name}"));
        }
    });
    reason.map_or(Ok(()), Err)
}

/// The vectorized plan executor for one database.
pub struct VexecExecutor<'a> {
    db: &'a Database,
    query: &'a Query,
    workers: usize,
    stats: VexecStats,
    /// Materialization cache for correlation-free temp inputs and SORT
    /// output (same node-identity keying as the serial engine).
    temp_cache: HashMap<usize, Arc<Batch>>,
    /// Dynamic indexes by temp node: the temp's row numbers in key order
    /// (stable, so equal keys keep row order).
    index_cache: HashMap<usize, Arc<[u32]>>,
    /// The [`Work`] of the correlation-free temp inputs and SORTs run so
    /// far: done once, however often the serial engine would re-evaluate
    /// the subtrees around them (its temp cache answers them after that).
    cached: Work,
    mem: RunMem,
    /// Fault hook for the `vexec` site; consulted per morsel
    /// (`morsel(<op>)`) and per exchange (`exchange(<op>)`).
    fault_hook: Option<FaultHook>,
    telemetry: Option<Arc<Telemetry>>,
    spans: SpanContext,
}

impl<'a> VexecExecutor<'a> {
    pub fn new(db: &'a Database, query: &'a Query) -> Self {
        let buf: Buffers = runmem::check_out();
        VexecExecutor {
            db,
            query,
            workers: 1,
            stats: VexecStats::default(),
            temp_cache: HashMap::new(),
            index_cache: HashMap::new(),
            cached: Work::default(),
            mem: RunMem {
                untouched: buf.spare.len(),
                buf,
            },
            fault_hook: None,
            telemetry: None,
            spans: SpanContext::off(),
        }
    }

    /// Set the worker-pool width (clamped to at least 1). At 1 — the default
    /// and the serving path — every chain runs inline on the calling thread.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Arm a fault-injection hook for the `vexec` site. Worker panics are
    /// contained per morsel and surface as [`ExecError::Panicked`]; the pool
    /// drains and joins cleanly either way.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault_hook = Some(hook);
    }

    /// Attach the live telemetry plane: per-run execution counters plus the
    /// vexec batch/morsel/row tallies and the worker-queue gauge pair.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Attach a request's span recorder (the root `pipeline:<op>` span and
    /// one `pipeline:store` per materialized temp).
    pub fn set_spans(&mut self, spans: SpanContext) {
        self.spans = spans;
    }

    pub fn stats(&self) -> &VexecStats {
        &self.stats
    }

    /// Execute a plan and project onto the query's select list. Mirrors
    /// `starqo_exec::Executor::run` bit for bit, panic containment included;
    /// the telemetry plane and the request's spans are fed from here alone.
    pub fn run(&mut self, plan: &PlanRef) -> Result<QueryResult> {
        let started = Instant::now();
        let mut pipeline_span = if self.spans.enabled() {
            self.spans.enter(format!("pipeline:{}", plan.op.name()))
        } else {
            SpanGuard::noop()
        };
        let out = match catch_unwind(AssertUnwindSafe(|| self.run_inner(plan))) {
            Ok(r) => r,
            Err(payload) => Err(ExecError::Panicked(panic_msg(payload))),
        };
        if let Ok(result) = &out {
            pipeline_span.set_meta(result.rows.len() as u64);
        }
        drop(pipeline_span);
        if let Some(t) = &self.telemetry {
            t.add(Metric::VexecQueued, self.stats.morsels_queued);
            t.add(Metric::VexecMorsels, self.stats.morsels);
            t.add(Metric::VexecBatches, self.stats.batches);
            t.add(Metric::VexecRows, self.stats.rows);
            if let Ok(result) = &out {
                let nanos = started.elapsed().as_nanos() as u64;
                t.add(Metric::Executions, 1);
                t.add(Metric::ExecRows, result.rows.len() as u64);
                t.add(Metric::ExecNanos, nanos);
                t.add(Metric::PipelineRows, self.stats.pipeline_rows);
                t.observe(LatencyPath::Execute, nanos);
            }
        }
        out
    }

    fn run_inner(&mut self, plan: &PlanRef) -> Result<QueryResult> {
        let root = Compiler {
            db: self.db,
            query: self.query,
            scope: Scope::default(),
        }
        .compile(plan);
        let rel = self.run_node(&root, &mut Vec::new())?;
        self.stats.rows_out = rel.rows as u64;
        self.stats.pipeline_rows += rel.rows as u64;
        // Result rows are built once, already in select-list order.
        let plan_schema = &plan.props.cols;
        let (schema, idx): (Vec<_>, Vec<usize>) = if self.query.select.is_empty() {
            (plan_schema.to_vec(), (0..plan_schema.len()).collect())
        } else {
            let want = &self.query.select;
            let idx = want.iter().map(|c| {
                position(plan_schema, *c).ok_or_else(|| ExecError::UnboundColumn(c.to_string()))
            });
            (want.clone(), idx.collect::<Result<_>>()?)
        };
        // The one place a row becomes `Value`s again.
        let cols: Vec<&Column> = idx.iter().map(|c| &rel.cols[*c]).collect();
        let rows = (0..rel.rows)
            .map(|r| Tuple(cols.iter().map(|c| c.value(r)).collect()))
            .collect();
        self.mem.recycle(rel);
        Ok(QueryResult { schema, rows })
    }

    /// SORT: permute row numbers, then gather each column once. An input
    /// already in key order (a table loaded in key order, a B-tree scan)
    /// passes through untouched.
    fn sort(&mut self, input: Rel, key: &[usize]) -> Rel {
        let cols = key_cols(&input, key.iter().copied());
        let in_order = match cols[..] {
            [Column::Int(k)] => k.windows(2).all(|w| w[0] <= w[1]),
            _ => (1..input.rows).all(|i| cmp_rows(&cols, i - 1, &cols, i).is_le()),
        };
        if in_order {
            return input;
        }
        let mut out = self.mem.fresh(input.cols.len(), Some(input.rows));
        let perm = sorted_rows(&input, key, &mut self.mem.buf.sort_buf);
        for (dst, src) in out.cols.iter_mut().zip(&input.cols) {
            dst.gather(src, perm.iter().map(|i| *i as usize));
        }
        out.rows = input.rows;
        self.mem.recycle(input);
        Rel::Owned(out)
    }

    /// Evaluate one node under the bindings in `scope` (the values of the
    /// enclosing correlated nested-loop outers, as compiled).
    fn run_node(&mut self, node: &Node<'_>, scope: &mut Vec<Value>) -> Result<Rel> {
        match &node.kind {
            Kind::Chain(chain) => self.run_chain(chain, node.width(), scope),
            Kind::Sort { child, key } => {
                if let Some(hit) = self.temp_cache.get(&node.key()) {
                    return Ok(Rel::Shared(hit.clone()));
                }
                let at = self.mark();
                let input = if child.is_store() {
                    Rel::Shared(self.run_cached(child, scope)?)
                } else {
                    self.run_node(child, scope)?
                };
                let sorted = self.sort(input, key);
                // Cache the sorted output (not, like the serial engine, the
                // unsorted child it would re-sort per evaluation).
                if node.uncorrelated {
                    self.filled(at);
                }
                Ok(if node.cacheable {
                    let shared = sorted.share();
                    self.temp_cache.insert(node.key(), shared.clone());
                    Rel::Shared(shared)
                } else {
                    sorted
                })
            }
            Kind::Temp(child) => Ok(Rel::Shared(self.run_cached(child, scope)?)),
            Kind::Merge {
                outer,
                inner,
                keys,
                applied,
                combine,
            } => {
                let outer = self.run_node(outer, scope)?;
                let inner = self.run_node(inner, scope)?;
                let pairs = merge(&outer, &inner, keys, applied, combine, scope)?;
                self.joined(combine, outer, inner, &pairs)
            }
            Kind::Loop {
                outer,
                inner,
                binds,
                combine,
            } => self.nested_loops(outer, inner, binds.as_deref(), combine, scope),
            Kind::Hash {
                outer,
                inner,
                keys,
                combine,
            } => {
                // Inner side first (build), preserving the serial engine's
                // evaluation (and error) order.
                let inner = self.run_node(inner, scope)?;
                let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
                for row in 0..inner.rows {
                    let exprs = keys.iter().map(|(_, ie)| ie);
                    if let Some(key) = hash_key(exprs, &inner, row, scope)? {
                        table.entry(key).or_default().push(row as u32);
                    }
                }
                let outer = self.run_node(outer, scope)?;
                let mut pairs = Vec::new();
                for row in 0..outer.rows {
                    let exprs = keys.iter().map(|(oe, _)| oe);
                    let key = hash_key(exprs, &outer, row, scope)?;
                    // Hash equality admits cross-type matches; join ∪
                    // residual then confirm on the combined row, in build
                    // order (outer-major, like the serial engine).
                    for m in key.and_then(|k| table.get(&k)).into_iter().flatten() {
                        combine.admit((&outer, row), (&inner, *m as usize), scope, &mut pairs)?;
                    }
                }
                self.joined(combine, outer, inner, &pairs)
            }
            Kind::Union(l, r) => {
                let mut out = self.mem.fresh(node.width(), None);
                for arm in [l, r] {
                    let rel = self.run_node(arm, scope)?;
                    out.append_live(&rel);
                    self.mem.recycle(rel);
                }
                Ok(Rel::Owned(out))
            }
            Kind::Fail(e) => Err(e.clone()),
        }
    }

    /// Gather a join's surviving row pairs into its output relation and
    /// return both inputs' buffers to the pool.
    fn joined(
        &mut self,
        combine: &Combine,
        outer: Rel,
        inner: Rel,
        pairs: &[(u32, u32)],
    ) -> Result<Rel> {
        let mut out = self.mem.fresh(combine.width(), Some(pairs.len()));
        combine.gather(&outer, &inner, pairs, &mut out);
        self.mem.recycle(outer);
        self.mem.recycle(inner);
        Ok(Rel::Owned(out))
    }

    /// Evaluate with node-identity caching when the subtree is
    /// correlation-free — identical policy and accounting to the serial
    /// engine's `eval_cached`, except that hits and misses alike hand out
    /// the shared relation itself, never a copy.
    fn run_cached(&mut self, node: &Node<'_>, scope: &mut Vec<Value>) -> Result<Arc<Batch>> {
        if let Some(hit) = self.temp_cache.get(&node.key()) {
            return Ok(hit.clone());
        }
        let at = self.mark();
        let mut store_span = if node.is_store() {
            self.spans.enter("pipeline:store")
        } else {
            SpanGuard::noop()
        };
        let rel = self.run_node(node, scope)?.share();
        store_span.set_meta(rel.rows as u64);
        drop(store_span);
        if node.uncorrelated && node.is_store() {
            self.stats.temps_built += 1;
            self.stats.pipeline_rows += rel.rows as u64;
        }
        if node.cacheable {
            self.temp_cache.insert(node.key(), rel.clone());
        }
        if node.uncorrelated {
            self.filled(at);
        }
        Ok(rel)
    }

    /// The run's [`Work`] so far, and its `cached` part.
    fn mark(&self) -> (Work, Work) {
        (Work::of(&self.stats), self.cached)
    }

    /// Everything done since `at` went into a correlation-free temp input or
    /// SORT.
    fn filled(&mut self, at: (Work, Work)) {
        self.cached = at.1.plus(Work::of(&self.stats).since(at.0));
    }

    /// JOIN(NL). An uncorrelated inner is evaluated once; a correlated one
    /// is re-run per outer row with that row's columns re-bound in `scope`.
    /// An empty outer never evaluates the inner at all (the serial engine
    /// never reaches it).
    fn nested_loops(
        &mut self,
        outer: &Node<'_>,
        inner_node: &Node<'_>,
        binds: Option<&[usize]>,
        combine: &Combine,
        scope: &mut Vec<Value>,
    ) -> Result<Rel> {
        let outer_width = outer.width();
        let outer = self.run_node(outer, scope)?;
        let mut pairs = Vec::new();
        let mut out = self.mem.fresh(combine.width(), None);
        let Some(binds) = binds else {
            if outer.rows > 0 {
                let at = self.mark();
                let inner = self.run_node(inner_node, scope)?;
                // The serial engine re-evaluates the inner per outer row, its
                // caches answering the part that filled them.
                let (work, cached) = self.mark();
                let again = work.since(at.0).since(cached.since(at.1));
                again.charge(&mut self.stats, outer.rows as u64 - 1);
                for o in 0..outer.rows {
                    for i in 0..inner.rows {
                        combine.admit((&outer, o), (&inner, i), scope, &mut pairs)?;
                    }
                }
                combine.gather(&outer, &inner, &pairs, &mut out);
                self.mem.recycle(inner);
            }
            self.mem.recycle(outer);
            return Ok(Rel::Owned(out));
        };
        let base = scope.len();
        scope.resize(base + outer_width, Value::Null);
        for o in 0..outer.rows {
            for &b in binds {
                scope[base + b] = outer.cols[b].value(o);
            }
            let inner = self.run_node(inner_node, scope)?;
            pairs.clear();
            for i in 0..inner.rows {
                combine.admit((&outer, o), (&inner, i), scope, &mut pairs)?;
            }
            combine.gather(&outer, &inner, &pairs, &mut out);
            self.mem.recycle(inner);
        }
        scope.truncate(base);
        self.mem.recycle(outer);
        Ok(Rel::Owned(out))
    }

    /// Resolve a chain's source under the current bindings and drive it.
    fn run_chain(
        &mut self,
        chain: &Chain<'_>,
        width: usize,
        scope: &mut Vec<Value>,
    ) -> Result<Rel> {
        match &chain.source {
            Source::Table { table, key } => {
                // The pages of the rows read, charged up front like the
                // serial engine.
                let mut bound = std::mem::take(&mut self.mem.buf.prefix_buf);
                let range = key.resolve(table, scope, &mut bound);
                self.mem.buf.prefix_buf = bound;
                self.stats.pages_read += pages_spanned(&range);
                self.drive(chain, width, &Input::Table(table, range), scope)
            }
            Source::Index {
                table,
                data,
                prefix,
            } => {
                let mut bound = std::mem::take(&mut self.mem.buf.prefix_buf);
                let mut tids = std::mem::take(&mut self.mem.buf.tid_buf);
                prefix.eval(scope, &mut bound);
                tids.clear();
                if bound.is_empty() {
                    self.stats.pages_read += data.pages();
                    tids.extend(data.scan().map(|(_, tid)| tid));
                } else {
                    self.stats.probes += 1;
                    tids.extend(data.probe_prefix(&bound).map(|(_, tid)| tid));
                    self.stats.pages_read += (tids.len() as u64).div_ceil(ROWS_PER_PAGE) + 1;
                }
                let out = self.drive(chain, width, &Input::Tids(table, &tids), scope);
                (self.mem.buf.prefix_buf, self.mem.buf.tid_buf) = (bound, tids);
                out
            }
            Source::Rel { child, temp } => {
                let rel = if *temp {
                    let rel = self.run_cached(child, scope)?;
                    self.stats.pages_read += (rel.rows as u64).div_ceil(ROWS_PER_PAGE).max(1);
                    Rel::Shared(rel)
                } else {
                    self.run_node(child, scope)?
                };
                if chain.ops.is_empty() && chain.emit.is_passthrough(rel.cols.len()) {
                    return Ok(rel);
                }
                let out = self.drive(chain, width, &Input::Rel(&rel), scope);
                self.mem.recycle(rel);
                out
            }
            Source::TempIndex { child, key, prefix } => {
                let rel = self.run_cached(child, scope)?;
                let index = match self.index_cache.get(&child.key()) {
                    Some(ix) => ix.clone(),
                    None => {
                        let ix: Arc<[u32]> =
                            sorted_rows(&rel, key, &mut self.mem.buf.sort_buf).into();
                        self.stats.indexes_built += 1;
                        self.index_cache.insert(child.key(), ix.clone());
                        ix
                    }
                };
                let mut bound = std::mem::take(&mut self.mem.buf.prefix_buf);
                prefix.eval(scope, &mut bound);
                self.stats.probes += 1;
                // Rows whose key starts with the bound prefix, in key order;
                // an unbound probe reads the whole temp in row order.
                let cmp_prefix = |row: &u32| {
                    let keys = key.iter().zip(&bound);
                    keys.map(|(k, v)| rel.cols[*k].get(*row as usize).total_cmp(Val::of(v)))
                        .find(|o| o.is_ne())
                        .unwrap_or(Cmp::Equal)
                };
                let lo = index.partition_point(|r| cmp_prefix(r).is_lt());
                let hits = &index[lo..lo + index[lo..].partition_point(|r| cmp_prefix(r).is_eq())];
                let input = if bound.is_empty() {
                    Input::Rel(&rel)
                } else {
                    Input::RelRows(&rel, hits)
                };
                self.stats.pages_read += (input.len() as u64).div_ceil(ROWS_PER_PAGE) + 1;
                let out = self.drive(chain, width, &input, scope);
                self.mem.buf.prefix_buf = bound;
                out
            }
        }
    }

    /// Consult the `vexec` fault site `<stage>(<op>)`; the label is built
    /// only when a hook is armed.
    fn fault(hook: &Option<FaultHook>, stage: &str, chain: &Chain<'_>) -> Result<()> {
        match hook
            .as_ref()
            .and_then(|h| h(&format!("{stage}({})", chain.top.op.name())))
        {
            Some(msg) => Err(ExecError::Injected(msg)),
            None => Ok(()),
        }
    }

    /// Drive one chain over `input`: split it into morsels, run them —
    /// inline at one worker, else fanned across scoped threads — and
    /// exchange-merge the survivors in morsel order.
    fn drive(
        &mut self,
        chain: &Chain<'_>,
        width: usize,
        input: &Input<'_>,
        outer: &[Value],
    ) -> Result<Rel> {
        let n = input.len();
        let m = n.div_ceil(MORSEL_ROWS);
        let mut dest = self.mem.fresh(width, None);
        if m == 0 {
            // A SHIP that carries nothing still sends its one message.
            self.stats.msgs += chain.ships as u64;
            return Ok(Rel::Owned(dest));
        }
        let morsel = |i: usize| i * MORSEL_ROWS..((i + 1) * MORSEL_ROWS).min(n);
        self.stats.morsels_queued += m as u64;
        let stats = ChainStats {
            ship_bytes: (0..chain.ships).map(|_| Default::default()).collect(),
            ..Default::default()
        };
        let workers = self.workers.min(m);
        self.stats.max_workers = self.stats.max_workers.max(workers as u64);

        if workers <= 1 {
            let mut scratch = self.mem.buf.scratch.pop().unwrap_or_default();
            let hook = &self.fault_hook;
            let run = (0..m).try_for_each(|i| -> Result<()> {
                Self::fault(hook, "morsel", chain)?;
                chain.run_morsel(input, morsel(i), outer, &stats, &mut scratch, &mut dest)?;
                self.stats.morsels += 1;
                Ok(())
            });
            self.mem.buf.scratch.push(scratch);
            run?;
        } else {
            let next = AtomicUsize::new(0);
            let poison = AtomicBool::new(false);
            let first_err: Mutex<Option<ExecError>> = Mutex::new(None);
            let results: Mutex<Vec<Option<Batch>>> = Mutex::new((0..m).map(|_| None).collect());
            let hook = &self.fault_hook;
            let worker = || {
                let mut scratch = Scratch::default();
                while !poison.load(Ordering::Acquire) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= m {
                        break;
                    }
                    // Contain everything a morsel can do — including
                    // fault-hook panics — so a worker never unwinds across
                    // the pool.
                    let r = catch_unwind(AssertUnwindSafe(|| -> Result<Batch> {
                        Self::fault(hook, "morsel", chain)?;
                        let mut part = Batch::new(width);
                        let range = morsel(i);
                        chain.run_morsel(input, range, outer, &stats, &mut scratch, &mut part)?;
                        Ok(part)
                    }));
                    let err = match r {
                        Ok(Ok(part)) => {
                            if let Ok(mut slots) = results.lock() {
                                slots[i] = Some(part);
                            }
                            continue;
                        }
                        Ok(Err(e)) => e,
                        Err(payload) => ExecError::Panicked(panic_msg(payload)),
                    };
                    first_err
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .get_or_insert(err);
                    poison.store(true, Ordering::Release);
                }
            };
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(worker);
                }
            });
            if let Some(e) = first_err.lock().unwrap_or_else(|p| p.into_inner()).take() {
                return Err(e);
            }
            // Exchange: deterministic merge in morsel order.
            for slot in std::mem::take(&mut *results.lock().unwrap_or_else(|p| p.into_inner())) {
                let part = slot.ok_or_else(|| {
                    ExecError::BadPlan("vexec exchange missing a morsel result".into())
                })?;
                dest.append_live(&part);
                self.stats.morsels += 1;
            }
        }
        Self::fault(&self.fault_hook, "exchange", chain)?;
        self.stats.rows += dest.rows as u64;
        self.stats.batches += stats.batches.load(Ordering::Relaxed);
        self.stats.tuples_fetched += stats.tuples_fetched.load(Ordering::Relaxed);
        self.stats.pages_read += stats.pages_read.load(Ordering::Relaxed);
        for b in &stats.ship_bytes {
            let bytes = b.load(Ordering::Relaxed);
            self.stats.bytes_shipped += bytes;
            self.stats.msgs += (bytes / 4096).max(1);
        }
        Ok(Rel::Owned(dest))
    }
}

/// A run's [`Buffers`], checked out of this thread's run memory and parked
/// there again on drop: by this and not by the executor, whose `Drop` would
/// make every borrow it holds outlive it.
struct RunMem {
    buf: Buffers,
    /// The spare buffers at the front, as checked out, that the run has not
    /// taken: it has had all else checked out at once by its end.
    untouched: usize,
}

impl RunMem {
    /// An empty `width`-column batch, built from pooled column buffers: for
    /// a known row count each the smallest that holds it, reserved exactly,
    /// else the last one returned.
    fn fresh(&mut self, width: usize, rows: Option<usize>) -> Batch {
        let mut cols = self.buf.shells.pop().unwrap_or_default();
        for _ in 0..width {
            let spare = &mut self.buf.spare;
            let size = |i: &usize| spare[*i].capacity();
            let fit = rows.and_then(|n| (0..spare.len()).filter(|i| size(i) >= n).min_by_key(size));
            let at = fit.or(spare.len().checked_sub(1));
            self.untouched -= at.is_some_and(|i| i < self.untouched) as usize;
            let mut ints = at.map_or_else(Vec::new, |i| spare.remove(i));
            ints.reserve_exact(rows.unwrap_or(0));
            cols.push(Column::Int(ints));
        }
        Batch {
            cols,
            ..Batch::default()
        }
    }

    /// Return a consumed relation's column buffers to the pool (shared
    /// relations stay with the cache).
    fn recycle(&mut self, rel: Rel) {
        if let Rel::Owned(mut b) = rel {
            for col in b.cols.drain(..) {
                if let Column::Int(mut ints) = col {
                    if self.buf.spare.len() < SPARE_COLUMNS {
                        ints.clear();
                        self.buf.spare.push(ints);
                    }
                }
            }
            self.buf.shells.push(b.cols);
        }
    }
}

impl Drop for RunMem {
    fn drop(&mut self) {
        let untouched = self.buf.spare[..self.untouched].iter().map(bytes_of);
        let peak = self.buf.bytes() - untouched.sum::<usize>();
        runmem::park(std::mem::take(&mut self.buf), peak);
    }
}

/// The buffers a run reuses. Integer column buffers of consumed relations
/// go to `spare` for the next chain run or breaker output: a correlated
/// inner re-run per outer row allocates nothing, and a plan touches about
/// its peak live memory, not the sum of its intermediates. Demoted columns
/// are not pooled — every column starts out typed, so their buffers would
/// have no taker.
#[derive(Default)]
struct Buffers {
    spare: Vec<Vec<i64>>,
    /// The emptied column lists those buffers came in.
    shells: Vec<Vec<Column>>,
    /// Chain and probe scratch (bounded by the batch size, so not counted),
    /// reused across re-runs like `spare`.
    scratch: Vec<Scratch>,
    /// The radix sort's ping-pong buffers, likewise.
    sort_buf: SortBuf,
    prefix_buf: Vec<Value>,
    tid_buf: Vec<Tid>,
}

impl RunMemory for Buffers {
    const GROWS: bool = true;

    fn bytes(&self) -> usize {
        let SortBuf { keys, rows, counts } = &self.sort_buf;
        let sort =
            keys.iter().map(bytes_of).sum::<usize>() + rows.iter().map(bytes_of).sum::<usize>();
        let rest = bytes_of(&self.shells) + bytes_of(&self.prefix_buf) + bytes_of(&self.tid_buf);
        self.spare.iter().map(bytes_of).sum::<usize>() + sort + bytes_of(counts) + rest
    }

    /// Free the smallest spare buffers, and park the rest largest-first, so
    /// that `fresh`'s `pop` takes the smallest.
    fn trim(&mut self, budget: usize) {
        self.spare
            .sort_unstable_by_key(|v| std::cmp::Reverse(v.capacity()));
        while self.bytes() > budget && self.spare.pop().is_some() {}
    }
}

/// Bytes a vector's buffer holds.
fn bytes_of<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// A row's hash-join key, or `None` if any part is NULL (NULL keys never
/// match).
fn hash_key<'k>(
    exprs: impl Iterator<Item = &'k CExpr>,
    rel: &Batch,
    row: usize,
    scope: &[Value],
) -> Result<Option<Vec<Value>>> {
    let values = exprs.map(|e| e.eval_owned(&rel.row(row), scope));
    let key = values.collect::<Result<Vec<_>>>()?;
    Ok((!key.iter().any(Value::is_null)).then_some(key))
}

/// The key columns `slots` of a relation, in key order.
fn key_cols(rel: &Batch, slots: impl Iterator<Item = usize>) -> Vec<&Column> {
    slots.map(|k| &rel.cols[k]).collect()
}

/// Compare row `i` of one relation with row `j` of another (or the same) on
/// their paired key columns, in place.
#[inline]
fn cmp_rows(a: &[&Column], i: usize, b: &[&Column], j: usize) -> Cmp {
    for (ca, cb) in a.iter().zip(b) {
        match ca.get(i).total_cmp(cb.get(j)) {
            Cmp::Equal => {}
            unequal => return unequal,
        }
    }
    Cmp::Equal
}

/// Widest radix digit: 4 096 counters stay in L1, and a key range that fits
/// (a dense ID column of a few thousand rows) sorts in a single counting pass.
const MAX_DIGIT_BITS: u32 = 12;

/// The radix sort's buffers: (key offset, row) in the current digit order,
/// the same pair as the target of the running pass, and the digit counters.
#[derive(Default)]
struct SortBuf {
    keys: [Vec<u64>; 2],
    rows: [Vec<u32>; 2],
    counts: Vec<u32>,
}

/// `rel`'s row numbers in `key` order. Stable, like the serial engine's
/// `sort_by`: rows with equal keys keep their source order.
fn sorted_rows<'b>(rel: &Batch, key: &[usize], buf: &'b mut SortBuf) -> &'b [u32] {
    let rows = &mut buf.rows[0];
    rows.clear();
    rows.extend(0..rel.rows as u32);
    // One typed integer key column (the usual merge key): no comparisons.
    if let [k] = key {
        if let Column::Int(ints) = &rel.cols[*k] {
            return radix_rows(ints, buf);
        }
    }
    let cols = key_cols(rel, key.iter().copied());
    let rows = &mut buf.rows[0];
    rows.sort_by(|a, b| cmp_rows(&cols, *a as usize, &cols, *b as usize));
    rows
}

/// Stable LSD radix sort of `0..ints.len()` (already in `buf.rows[0]`) by
/// `ints`. Keys are taken as unsigned offsets from the minimum — exact even
/// when `max - min` overflows `i64` — and only the bits of the largest
/// offset are sorted on, in equal digits of at most [`MAX_DIGIT_BITS`].
fn radix_rows<'b>(ints: &[i64], buf: &'b mut SortBuf) -> &'b [u32] {
    let SortBuf { keys, rows, counts } = buf;
    let (min, max) = ints
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
    let bits = u64::BITS - (max.wrapping_sub(min) as u64).leading_zeros();
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    let digit = if passes == 0 {
        0
    } else {
        bits.div_ceil(passes)
    };
    let [from_k, to_k] = keys;
    let [from_r, to_r] = rows;
    from_k.clear();
    from_k.extend(ints.iter().map(|x| x.wrapping_sub(min) as u64));
    to_k.resize(ints.len(), 0);
    to_r.resize(ints.len(), 0);
    for pass in 0..passes {
        let digit_of = |k: u64| (k >> (pass * digit)) as usize & ((1 << digit) - 1);
        counts.clear();
        counts.resize(1 << digit, 0);
        from_k.iter().for_each(|k| counts[digit_of(*k)] += 1);
        // Counts become each digit's first target position.
        let mut at = 0;
        for c in counts.iter_mut() {
            at += std::mem::replace(c, at);
        }
        for (k, r) in from_k.iter().zip(from_r.iter()) {
            let to = &mut counts[digit_of(*k)];
            to_k[*to as usize] = *k;
            to_r[*to as usize] = *r;
            *to += 1;
        }
        std::mem::swap(from_k, to_k);
        std::mem::swap(from_r, to_r);
    }
    from_r
}

/// JOIN(MG) over two relations sorted on the paired `keys`: advance both
/// cursors comparing key slots in place, and for each pair of equal-key
/// runs emit the run product, outer-major. A run's keys are equal under
/// `Value`'s total order, which for non-NULL values is the join predicate's
/// own `=` (an `Int` meets the `Double` of the same value), so the merge has
/// applied the equalities on the `applied` outer slots once it has skipped
/// the runs holding a NULL there — NULLs compare equal and never match —
/// and `combine` evaluates only what is left, if anything, on each pair.
/// One typed key column a side is walked as two `i64` slices.
fn merge(
    outer: &Batch,
    inner: &Batch,
    keys: &[(usize, usize)],
    applied: &[usize],
    combine: &Combine,
    scope: &[Value],
) -> Result<Vec<(u32, u32)>> {
    // A foreign-key join returns about its larger side; an empty side
    // returns nothing.
    let expect = match outer.rows.min(inner.rows) {
        0 => 0,
        _ => outer.rows.max(inner.rows),
    };
    let mut out = Vec::with_capacity(expect);
    let admit = |o, i| combine.admit((outer, o), (inner, i), scope, &mut out);
    let ok = key_cols(outer, keys.iter().map(|(o, _)| *o));
    let ik = key_cols(inner, keys.iter().map(|(_, i)| *i));
    match (&ok[..], &ik[..]) {
        ([Column::Int(ok)], [Column::Int(ik)]) => merge_runs(
            (ok.len(), ik.len()),
            |a, b| ok[a].cmp(&ik[b]),
            (|a, b| ok[a] == ok[b], |a, b| ik[a] == ik[b]),
            |_| false,
            admit,
        )?,
        _ => {
            let strict = key_cols(outer, applied.iter().copied());
            merge_runs(
                (outer.rows, inner.rows),
                |a, b| cmp_rows(&ok, a, &ik, b),
                (
                    |a, b| cmp_rows(&ok, a, &ok, b).is_eq(),
                    |a, b| cmp_rows(&ik, a, &ik, b).is_eq(),
                ),
                |a| strict.iter().any(|c| c.get(a).is_null()),
                admit,
            )?
        }
    }
    Ok(out)
}

/// The merge itself, over row numbers: `cmp(a, b)` orders outer row `a`
/// against inner row `b`, `same` tells whether two rows of one side share
/// a key, `skip(a)` whether the run outer row `a` starts matches nothing,
/// and every pair of every other equal-key run product goes to `admit`.
fn merge_runs(
    (outer_rows, inner_rows): (usize, usize),
    cmp: impl Fn(usize, usize) -> Cmp,
    (same_outer, same_inner): (impl Fn(usize, usize) -> bool, impl Fn(usize, usize) -> bool),
    skip: impl Fn(usize) -> bool,
    mut admit: impl FnMut(usize, usize) -> Result<()>,
) -> Result<()> {
    let (mut a, mut b) = (0usize, 0usize);
    while a < outer_rows && b < inner_rows {
        match cmp(a, b) {
            Cmp::Less => a += 1,
            Cmp::Greater => b += 1,
            Cmp::Equal => {
                let a_end = (a + 1..outer_rows).find(|r| !same_outer(*r, a));
                let b_end = (b + 1..inner_rows).find(|r| !same_inner(*r, b));
                let (a_end, b_end) = (a_end.unwrap_or(outer_rows), b_end.unwrap_or(inner_rows));
                if !skip(a) {
                    for o in a..a_end {
                        for i in b..b_end {
                            admit(o, i)?;
                        }
                    }
                }
                (a, b) = (a_end, b_end);
            }
        }
    }
    Ok(())
}

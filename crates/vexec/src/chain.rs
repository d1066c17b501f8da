//! Fused operator chains: one chain = one pipeline fragment.
//!
//! A chain is a *source* (base-table rows, index TIDs, or a materialized
//! relation), an *emit* step that maps source rows into the stream schema
//! (applying the access predicates BEFORE gathering — rejected rows are
//! never cloned), and a sequence of fused streaming operators (FILTER, GET,
//! SHIP) applied batch-at-a-time. Survivors are appended to the relation
//! the enclosing breaker consumes.
//!
//! Chains are `Sync`: the morsel driver shares one chain across workers,
//! each claiming disjoint source ranges. All mutable run state (stats, SHIP
//! byte tallies) lives in [`ChainStats`] atomics.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use starqo_catalog::{ColId, Value};
use starqo_plan::result::{ExecError, Result};
use starqo_plan::{
    position, prefix_candidates, range_candidates, value_bytes, KeyBounds, PlanNode,
};
use starqo_query::{CmpOp, PredSet, QCol, QId, Query, Scalar};
use starqo_storage::{BTreeIndexData, StoredTable, Tid, Tuple, ROWS_PER_PAGE};

use crate::batch::{Batch, Val, BATCH_ROWS};
use crate::expr::{BatchRow, CExpr, PredProg, RowSource, Scope, VRow};
use crate::plan::Node;

const NULL_VALUE: Value = Value::Null;

/// Emit slot of the TID pseudo-column (any slot past the base tuple reads
/// the TID, see [`BaseRow`]).
pub(crate) const TID_SLOT: usize = usize::MAX;

/// Where a chain's rows come from, as compiled; the driver resolves it to an
/// [`Input`] once per run.
pub(crate) enum Source<'a> {
    /// A stored base table, read over the rows `key` resolves — all of them
    /// for a heap, which has no key. Morsels are TID ranges.
    Table {
        table: &'a StoredTable,
        key: KeyRange<'a>,
    },
    /// A catalog index, scanned or probed by `prefix`. Entries are read as
    /// TIDs in key order; the key columns are served from the base rows the
    /// index was built over (the same values, without copying keys).
    Index {
        table: &'a StoredTable,
        data: &'a BTreeIndexData,
        prefix: Prefix,
    },
    /// A materialized child: a STORE'd temp re-accessed (`temp`, evaluated
    /// through the temp cache) or a breaker feeding streaming operators.
    Rel { child: Box<Node<'a>>, temp: bool },
    /// A dynamic index over a cached temp, probed by `prefix`; `key` are the
    /// index key's slots in the temp.
    TempIndex {
        child: Box<Node<'a>>,
        key: Vec<usize>,
        prefix: Prefix,
    },
}

/// The bound equality prefix of an index key: per key column, the compiled
/// candidate expressions (the non-key sides of its `key = expr` predicates,
/// in predicate order). Same rule as the serial engine's `bound_prefix`:
/// the first candidate yielding a non-NULL value binds the column, and the
/// prefix ends at the first column nothing binds.
pub(crate) struct Prefix(Vec<Vec<CExpr>>);

impl Prefix {
    pub fn compile(query: &Query, key: &[QCol], preds: PredSet, scope: &Scope) -> Prefix {
        Prefix::of(prefix_candidates(query, key, preds), scope)
    }

    fn of(candidates: Vec<Vec<&Scalar>>, scope: &Scope) -> Prefix {
        let mut cols = Vec::new();
        for cands in candidates {
            // Compiled against the empty schema, as the serial engine
            // evaluates them: a candidate reading the accessed row itself
            // can only fail there, so it is dropped here.
            let bound: Vec<CExpr> = cands
                .into_iter()
                .map(|s| CExpr::compile(s, &[], scope))
                .filter(CExpr::is_bound)
                .collect();
            if bound.is_empty() {
                break;
            }
            cols.push(bound);
        }
        Prefix(cols)
    }

    /// Evaluate into `out` (cleared first) under the current bindings.
    pub fn eval(&self, outer: &[Value], out: &mut Vec<Value>) {
        out.clear();
        let no_row = BatchRow { cols: &[], row: 0 };
        for cands in &self.0 {
            let value = |c: &CExpr| c.eval_owned(&no_row, outer).ok();
            match cands.iter().find_map(|c| value(c).filter(|v| !v.is_null())) {
                Some(v) => out.push(v),
                None => break,
            }
        }
    }
}

/// The compiled key-range read of a table stored in `key` order (§4.5.2's
/// B-tree storage manager): the bound equality [`Prefix`] of the key and,
/// when it binds every equality column, the range predicates on the column
/// after it — `Classifier::index_matching`'s rule, resolved exactly as the
/// serial engine's `bound_key_range`. The rows found are a superset of the
/// qualifying ones; the emit step still runs every predicate on them.
pub(crate) struct KeyRange<'a> {
    key: &'a [ColId],
    prefix: Prefix,
    /// Bounds on the key column after `prefix`; empty unless `prefix` can
    /// bind every key column an equality predicate is sargable on.
    range: Vec<(CmpOp, CExpr)>,
}

impl<'a> KeyRange<'a> {
    pub fn compile(
        query: &Query,
        q: QId,
        key: &'a [ColId],
        preds: PredSet,
        scope: &Scope,
    ) -> KeyRange<'a> {
        let qcols: Vec<QCol> = key.iter().map(|c| QCol::new(q, *c)).collect();
        let cands = prefix_candidates(query, &qcols, preds);
        let eq_cols = cands.len();
        let prefix = Prefix::of(cands, scope);
        let mut range = Vec::new();
        if let Some(kc) = qcols.get(eq_cols).filter(|_| prefix.0.len() == eq_cols) {
            for (op, s) in range_candidates(query, *kc, preds) {
                let bound = CExpr::compile(s, &[], scope);
                if bound.is_bound() {
                    range.push((op, bound));
                }
            }
        }
        KeyRange { key, prefix, range }
    }

    /// The positions of `table`'s rows to read under the current bindings;
    /// `prefix` is scratch.
    pub fn resolve(
        &self,
        table: &StoredTable,
        outer: &[Value],
        prefix: &mut Vec<Value>,
    ) -> Range<usize> {
        self.prefix.eval(outer, prefix);
        let mut bounds = KeyBounds::OPEN;
        if prefix.len() == self.prefix.0.len() {
            let no_row = BatchRow { cols: &[], row: 0 };
            for (op, bound) in &self.range {
                if let Ok(v) = bound.eval_owned(&no_row, outer) {
                    bounds.apply(*op, v);
                }
            }
        }
        table.key_range(
            self.key,
            prefix,
            bounds.lower.as_ref(),
            bounds.upper.as_ref(),
        )
    }
}

/// The rows one run of a chain reads.
pub(crate) enum Input<'r> {
    /// The rows of a base table at these contiguous positions (TIDs).
    Table(&'r StoredTable, Range<usize>),
    /// The base rows named by index entries, in key order.
    Tids(&'r StoredTable, &'r [Tid]),
    /// Every row of a materialized relation.
    Rel(&'r Batch),
    /// The rows of a relation named by a dynamic-index probe.
    RelRows(&'r Batch, &'r [u32]),
}

impl Input<'_> {
    pub fn len(&self) -> usize {
        match self {
            Input::Table(_, rows) => rows.len(),
            Input::Tids(_, tids) => tids.len(),
            Input::Rel(b) => b.rows,
            Input::RelRows(_, rows) => rows.len(),
        }
    }
}

/// A stored table as a [`RowSource`]: positions are TIDs, and a column is an
/// integer slice exactly when the table mirrors it.
#[derive(Clone, Copy)]
struct BaseTable<'a> {
    table: &'a StoredTable,
    rows: &'a [Tuple],
}

impl<'a> BaseTable<'a> {
    fn of(table: &'a StoredTable) -> Self {
        BaseTable {
            table,
            rows: table.rows_range(0..table.len()),
        }
    }
}

impl<'a> RowSource<'a> for BaseTable<'a> {
    type Row = BaseRow<'a>;

    #[inline]
    fn row_at(self, pos: usize) -> BaseRow<'a> {
        BaseRow { base: self, pos }
    }

    #[inline]
    fn ints(self, slot: usize) -> Option<&'a [i64]> {
        self.table.int_column(slot)
    }
}

/// Borrowed view of the base-table row at `pos` (during emit, and under
/// GET): slots are base column positions, read from the table's integer
/// mirror where it has one and from the stored tuple where it has not;
/// anything past the tuple is the TID pseudo-column — `pos` itself, as
/// [`Tid::to_value`]'s integer.
struct BaseRow<'a> {
    base: BaseTable<'a>,
    pos: usize,
}

impl<'a> VRow<'a> for BaseRow<'a> {
    #[inline]
    fn slot(&self, slot: usize) -> Val<'a> {
        match self.base.ints(slot) {
            Some(ints) => Val::Int(ints[self.pos]),
            None => {
                let stored = self.base.rows[self.pos].0.get(slot);
                stored.map_or(Val::Int(self.pos as i64), Val::of)
            }
        }
    }
}

/// The emit step: source row → stream-schema row, with the access
/// predicates evaluated on a *borrowed* view first (selection before
/// gather — survivors are copied exactly once). `slots` and the predicate
/// program address the source layout directly: base column positions (or
/// [`TID_SLOT`]) for table and index sources, column positions for
/// relations.
pub(crate) struct Emit {
    pub slots: Vec<usize>,
    pub preds: PredProg,
}

impl Emit {
    /// Compile the access predicates against `schema` and re-address them
    /// (and the output columns) to source positions `slots`.
    pub fn new(
        query: &Query,
        preds: PredSet,
        schema: &[QCol],
        scope: &Scope,
        slots: Vec<usize>,
    ) -> Emit {
        let preds = PredProg::compile(query, preds, schema, scope).remapped(&slots);
        Emit { slots, preds }
    }

    /// True when the emit neither filters nor permutes a `width`-column
    /// relation — its rows pass through unchanged.
    pub fn is_passthrough(&self, width: usize) -> bool {
        self.preds.is_empty()
            && self.slots.len() == width
            && self.slots.iter().enumerate().all(|(i, s)| i == *s)
    }

    /// Append the surviving rows of `input[range]` to `out`: refine a
    /// selection vector (`sel`, scratch) predicate-at-a-time over borrowed
    /// rows, then gather the survivors column by column.
    pub fn emit_range(
        &self,
        input: &Input<'_>,
        range: Range<usize>,
        outer: &[Value],
        sel: &mut Vec<u32>,
        out: &mut Batch,
    ) -> Result<()> {
        let (start, n) = (range.start, range.len());
        match input {
            Input::Table(table, rows) => {
                // Absolute positions: a key range need not start at row 0.
                let first = rows.start + start;
                let pos = |i: u32| first + i as usize;
                self.emit(n, BaseTable::of(table), pos, outer, sel, out)
            }
            Input::Tids(table, tids) => {
                let tids = &tids[range];
                let pos = |i: u32| tids[i as usize].0 as usize;
                self.emit(n, BaseTable::of(table), pos, outer, sel, out)
            }
            Input::Rel(rel) => self.emit(n, *rel, |i| start + i as usize, outer, sel, out),
            Input::RelRows(rel, rows) => {
                let rows = &rows[range];
                self.emit(n, *rel, |i| rows[i as usize] as usize, outer, sel, out)
            }
        }
    }

    /// `n` rows of `src`, the `i`-th at position `pos(i)`.
    fn emit<'a, S: RowSource<'a>>(
        &self,
        n: usize,
        src: S,
        pos: impl Fn(u32) -> usize,
        outer: &[Value],
        sel: &mut Vec<u32>,
        out: &mut Batch,
    ) -> Result<()> {
        sel.clear();
        sel.extend(0..n as u32);
        self.preds.refine(sel, n, src, &pos, outer)?;
        for (col, slot) in out.cols.iter_mut().zip(&self.slots) {
            let at = sel.iter().map(|i| pos(*i));
            match src.ints(*slot) {
                Some(ints) => col.gather_ints(ints, at),
                None => col.extend(at.map(|p| src.row_at(p).slot(*slot))),
            }
        }
        out.rows += sel.len();
        Ok(())
    }
}

/// Candidate slot that reads NULL (an output column neither side carries).
const NULL_SLOT: usize = usize::MAX;

/// How an operator with two row sources builds its output (GET: input row +
/// fetched base tuple; joins: outer row + inner row). Each output column
/// names a slot of the two-sided candidate row — below `split` the left
/// source, above it the right — and the operator's predicates are compiled
/// against the output schema, then re-addressed the same way, so they run
/// on the *borrowed* candidate and only survivors are gathered.
pub(crate) struct Combine {
    src: Vec<usize>,
    split: usize,
    preds: PredProg,
}

/// Borrowed two-sided candidate row.
struct PairRow<'a, L, R> {
    left: &'a L,
    right: &'a R,
    split: usize,
}

impl<'a, L: VRow<'a>, R: VRow<'a>> VRow<'a> for PairRow<'_, L, R> {
    #[inline]
    fn slot(&self, slot: usize) -> Val<'a> {
        if slot < self.split {
            self.left.slot(slot)
        } else if slot == NULL_SLOT {
            Val::Ref(&NULL_VALUE)
        } else {
            self.right.slot(slot - self.split)
        }
    }
}

impl Combine {
    /// `left` is the left source's schema; `right` locates a column in the
    /// right source. Columns found in neither read NULL.
    pub fn new(
        query: &Query,
        preds: PredSet,
        out_schema: &[QCol],
        scope: &Scope,
        left: &[QCol],
        right: impl Fn(QCol) -> Option<usize>,
    ) -> Combine {
        let split = left.len();
        let src: Vec<usize> = out_schema
            .iter()
            .map(|c| match position(left, *c) {
                Some(i) => i,
                None => right(*c).map_or(NULL_SLOT, |i| split + i),
            })
            .collect();
        let preds = PredProg::compile(query, preds, out_schema, scope).remapped(&src);
        Combine { src, split, preds }
    }

    pub fn width(&self) -> usize {
        self.src.len()
    }

    /// Leave to a sort-merge on `keys` — (left slot, right slot) pairs — the
    /// equalities it establishes by merging
    /// ([`PredProg::remove_equalities`]); what stays in the program is all
    /// that runs on a candidate. Returns the left slots of the keys the
    /// merge now answers for: a run holding a NULL there joins nothing.
    pub fn applied_by_merge(&mut self, keys: &[(usize, usize)]) -> Vec<usize> {
        let pairs: Vec<_> = keys.iter().map(|(l, r)| (*l, self.split + r)).collect();
        let removed = self.preds.remove_equalities(&pairs);
        let applied = keys.iter().zip(removed);
        applied
            .filter_map(|((l, _), gone)| gone.then_some(*l))
            .collect()
    }

    /// Do the predicates accept the candidate `(left, right)`?
    #[inline]
    fn test<'a, L: VRow<'a>, R: VRow<'a>>(
        &self,
        left: &L,
        right: &R,
        outer: &[Value],
    ) -> Result<bool> {
        let row = PairRow {
            left,
            right,
            split: self.split,
        };
        self.preds.eval_row(&row, outer)
    }

    /// Test the candidate `(left, right)` and, if it survives, append it to
    /// `out`.
    #[inline]
    pub fn emit<'a, L: VRow<'a>, R: VRow<'a>>(
        &self,
        left: &L,
        right: &R,
        outer: &[Value],
        out: &mut Batch,
    ) -> Result<()> {
        let row = PairRow {
            left,
            right,
            split: self.split,
        };
        if self.preds.eval_row(&row, outer)? {
            for (col, slot) in out.cols.iter_mut().zip(&self.src) {
                col.push(row.slot(*slot));
            }
            out.rows += 1;
        }
        Ok(())
    }

    /// [`Self::test`] row `l` of `left` against row `r` of `right` and, if
    /// the candidate survives, note the pair for [`Self::gather`].
    #[inline]
    pub fn admit(
        &self,
        (left, l): (&Batch, usize),
        (right, r): (&Batch, usize),
        outer: &[Value],
        pairs: &mut Vec<(u32, u32)>,
    ) -> Result<()> {
        if self.test(&left.row(l), &right.row(r), outer)? {
            pairs.push((l as u32, r as u32));
        }
        Ok(())
    }

    /// Append the surviving candidates `pairs` — (left row, right row) — to
    /// `out`, one output column at a time.
    pub fn gather(&self, left: &Batch, right: &Batch, pairs: &[(u32, u32)], out: &mut Batch) {
        for (col, slot) in out.cols.iter_mut().zip(&self.src) {
            if *slot < self.split {
                col.gather(&left.cols[*slot], pairs.iter().map(|(l, _)| *l as usize));
            } else if *slot == NULL_SLOT {
                col.extend(pairs.iter().map(|_| Val::Ref(&NULL_VALUE)));
            } else {
                let src = &right.cols[*slot - self.split];
                col.gather(src, pairs.iter().map(|(_, r)| *r as usize));
            }
        }
        out.rows += pairs.len();
    }
}

/// Fused TID dereference: fetch the base tuple for each live input row,
/// evaluate the GET predicates on a borrowed (input, base) view, and gather
/// survivors into the output schema.
pub(crate) struct GetOp<'a> {
    pub table: &'a StoredTable,
    pub tid_slot: usize,
    /// Left = the input stream, right = the base tuple by column position.
    pub combine: Combine,
}

impl GetOp<'_> {
    fn apply(
        &self,
        input: &Batch,
        outer: &[Value],
        out: &mut Batch,
        stats: &ChainStats,
    ) -> Result<()> {
        // Buffer locality within the batch: consecutive same-page fetches
        // cost one read (serial counts this per GET invocation; per-batch
        // resets can only over-count, never under-count).
        let mut last_page = u64::MAX;
        let mut fetched = 0u64;
        let mut pages = 0u64;
        let base = BaseTable::of(self.table);
        for i in input.live_rows() {
            let tid = Tid::from_value(&input.cols[self.tid_slot].value(i))
                .ok_or_else(|| ExecError::BadPlan("non-TID value in TID column".into()))?;
            self.table.fetch(tid)?;
            fetched += 1;
            let page = tid.page(ROWS_PER_PAGE);
            if page != last_page {
                pages += 1;
                last_page = page;
            }
            let row = base.row_at(tid.0 as usize);
            self.combine.emit(&input.row(i), &row, outer, out)?;
        }
        stats.tuples_fetched.fetch_add(fetched, Ordering::Relaxed);
        stats.pages_read.fetch_add(pages, Ordering::Relaxed);
        Ok(())
    }
}

/// One fused streaming operator in a chain.
pub(crate) enum Op<'a> {
    Filter(PredProg),
    Get(GetOp<'a>),
    /// SHIP accounting: tallies wire bytes for the live rows into
    /// [`ChainStats::ship_bytes`] at this index; the driver converts bytes
    /// to messages once per ship operator after the run (same
    /// `(bytes / 4096).max(1)` convention as the serial engine).
    Ship(usize),
}

/// Shared mutable run state for one chain execution (workers update it
/// concurrently; everything is a relaxed monotonic tally).
#[derive(Default)]
pub(crate) struct ChainStats {
    pub batches: AtomicU64,
    pub tuples_fetched: AtomicU64,
    pub pages_read: AtomicU64,
    pub ship_bytes: Vec<AtomicU64>,
}

/// Per-worker scratch a chain run reuses across sub-ranges (and, pooled by
/// the executor, across re-runs): the emit step's selection vector and two
/// batches the streaming operators ping-pong between.
#[derive(Default)]
pub(crate) struct Scratch {
    sel: Vec<u32>,
    a: Batch,
    b: Batch,
}

/// One compiled pipeline fragment.
pub(crate) struct Chain<'a> {
    pub source: Source<'a>,
    pub emit: Emit,
    pub ops: Vec<Op<'a>>,
    /// The chain's topmost plan operator (names the fault sites).
    pub top: &'a PlanNode,
    /// Number of SHIP ops fused into this chain.
    pub ships: usize,
}

impl Chain<'_> {
    /// Process one morsel (a source range) in batch-sized sub-ranges,
    /// appending the survivors to `dest`. A chain with no operators emits
    /// straight into `dest`.
    pub fn run_morsel(
        &self,
        input: &Input<'_>,
        range: Range<usize>,
        outer: &[Value],
        stats: &ChainStats,
        scratch: &mut Scratch,
        dest: &mut Batch,
    ) -> Result<()> {
        let Scratch { sel, a, b } = scratch;
        let mut start = range.start;
        while start < range.end {
            let sub = start..(start + BATCH_ROWS).min(range.end);
            start = sub.end;
            stats.batches.fetch_add(1, Ordering::Relaxed);
            if self.ops.is_empty() {
                self.emit.emit_range(input, sub, outer, sel, dest)?;
                continue;
            }
            a.reset(self.emit.slots.len());
            self.emit.emit_range(input, sub, outer, sel, a)?;
            for op in &self.ops {
                match op {
                    Op::Filter(p) => p.filter(a, outer)?,
                    Op::Ship(idx) => {
                        let bytes_of = |v: Val<'_>| match v {
                            Val::Int(x) => value_bytes(&Value::Int(x)),
                            Val::Ref(v) => value_bytes(v),
                        };
                        let bytes: u64 = a
                            .live_rows()
                            .map(|i| a.cols.iter().map(|c| bytes_of(c.get(i))).sum::<u64>())
                            .sum();
                        stats.ship_bytes[*idx].fetch_add(bytes, Ordering::Relaxed);
                    }
                    Op::Get(g) => {
                        b.reset(g.combine.width());
                        g.apply(a, outer, b, stats)?;
                        std::mem::swap(a, b);
                    }
                }
            }
            dest.append_live(a);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::batch::Column;
    use starqo_catalog::{Catalog, DataType, StorageKind};
    use starqo_query::parse_query;

    /// What a merge on `(K, J)` leaves in its join's program: the equalities
    /// on the two key pairs go — whichever side of the `=` the outer column
    /// was written on — and the residual stays, evaluated on candidates
    /// whose keys it no longer looks at. A key the join's output does not
    /// carry is not the merge's to apply.
    #[test]
    fn a_merge_takes_over_exactly_its_key_equalities() {
        let mut b = Catalog::builder().site("s");
        for t in ["L", "R"] {
            b = b.table(t, "s", StorageKind::Heap, 1);
            for c in ["K", "J", "P"] {
                b = b.column(c, DataType::Int, None);
            }
        }
        let cat = Arc::new(b.build().unwrap());
        let sql = "SELECT L.P FROM L, R WHERE L.K = R.K AND L.P < R.P AND R.J = L.J";
        let query = parse_query(&cat, sql).unwrap();
        let side = |q: u32| {
            (0..3)
                .map(|c| QCol::new(QId(q), ColId(c)))
                .collect::<Vec<_>>()
        };
        let (left, right) = (side(0), side(1));
        let combine = |out: &[QCol]| {
            let at = |c| position(&right, c);
            Combine::new(&query, query.all_preds(), out, &Scope::default(), &left, at)
        };
        let keys = [(0, 0), (1, 1)];
        let row = |k, j, p| Batch {
            cols: [k, j, p].map(|v| Column::Int(vec![v])).to_vec(),
            rows: 1,
            sel: None,
        };
        let test = |c: &Combine, l: &Batch, r: &Batch| c.test(&l.row(0), &r.row(0), &[]).ok();

        let both: Vec<QCol> = left.iter().chain(&right).copied().collect();
        let mut c = combine(&both);
        assert_eq!(test(&c, &row(1, 2, 3), &row(1, 9, 4)), Some(false));
        assert_eq!(c.applied_by_merge(&keys), [0, 1]);
        assert_eq!(test(&c, &row(1, 2, 3), &row(7, 9, 4)), Some(true));
        assert_eq!(test(&c, &row(1, 2, 4), &row(1, 2, 4)), Some(false));

        // `L.K` projected out: `L.K = R.K` can only raise, and it comes
        // first — nothing after it is taken over either.
        let mut c = combine(&both[1..]);
        assert_eq!(c.applied_by_merge(&keys), [0usize; 0]);
        assert_eq!(test(&c, &row(1, 2, 3), &row(1, 2, 4)), None);
    }
}

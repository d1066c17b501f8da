//! Columnar batches and selection vectors — the unit of data flow between
//! vectorized operators, and the form in which rows cross pipeline breakers.
//!
//! A [`Batch`] holds rows in column-major order, each column a [`Column`]:
//! plain `i64`s for as long as it has held nothing but integers, tagged
//! [`Value`]s from the first row that is something else. Inside a chain a
//! batch carries up to [`BATCH_ROWS`] rows and filters never move data: they
//! refine the *selection vector* (the ordered set of live row indices). Data
//! moves once — when the chain's survivors are appended to the breaker's
//! materialized relation, which is itself one compact `Batch` of any length
//! (a [`Rel`]): SORT, the joins, temps and the result builder address its
//! rows by number.

use std::cmp::Ordering as Cmp;
use std::ops::Deref;
use std::sync::Arc;

use starqo_catalog::Value;

use crate::expr::BatchRow;

/// Target rows per in-chain batch (the classic vectorized sweet spot: big
/// enough to amortize per-batch dispatch, small enough to stay
/// cache-resident).
pub const BATCH_ROWS: usize = 1024;

/// One value seen through a row view: an integer by value, anything else by
/// reference. Predicates, sort and merge compare these; a [`Value`] is built
/// only where a row leaves the engine (result tuple, binding, hash key).
#[derive(Debug, Clone, Copy)]
pub enum Val<'a> {
    Int(i64),
    /// Never a `Value::Int` — [`Val::of`] is the only constructor used.
    Ref(&'a Value),
}

impl<'a> Val<'a> {
    #[inline]
    pub fn of(v: &'a Value) -> Val<'a> {
        match v {
            Value::Int(x) => Val::Int(*x),
            other => Val::Ref(other),
        }
    }

    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Val::Ref(Value::Null))
    }

    /// [`Value`]'s total order, with the integer pair decided in registers.
    #[inline]
    pub fn total_cmp(self, other: Val<'_>) -> Cmp {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => a.cmp(&b),
            (Val::Int(a), Val::Ref(b)) => Value::Int(a).cmp(b),
            (Val::Ref(a), Val::Int(b)) => a.cmp(&Value::Int(b)),
            (Val::Ref(a), Val::Ref(b)) => a.cmp(b),
        }
    }

    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            Val::Int(x) => Value::Int(x),
            Val::Ref(v) => v.clone(),
        }
    }
}

/// One column of a batch. Which variant it is depends only on the values
/// it has held: it starts as `Int` and is demoted to `Any`, in place, by the
/// first NULL, double, string or boolean — so an `Int` column never holds a
/// row that a `Value::Int` did not produce. Emptying a column keeps its
/// variant (and its buffer); an `Any` column holding only integers is
/// merely slower, never wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int(Vec<i64>),
    Any(Vec<Value>),
}

impl Default for Column {
    fn default() -> Column {
        Column::Int(Vec::new())
    }
}

impl Column {
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Any(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        match self {
            Column::Int(v) => v.clear(),
            Column::Any(v) => v.clear(),
        }
    }

    /// View row `row`.
    #[inline]
    pub fn get(&self, row: usize) -> Val<'_> {
        match self {
            Column::Int(v) => Val::Int(v[row]),
            Column::Any(v) => Val::of(&v[row]),
        }
    }

    /// Row `row` as an owned value, read straight off the column's own
    /// vector (the result builder does this once per value it returns).
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Any(v) => v[row].clone(),
        }
    }

    /// Rewrite an `Int` column as `Any`, value for value.
    fn demote(&mut self) -> &mut Vec<Value> {
        if let Column::Int(ints) = self {
            let mut vals = Vec::with_capacity(ints.capacity());
            vals.extend(ints.iter().map(|x| Value::Int(*x)));
            *self = Column::Any(vals);
        }
        match self {
            Column::Any(vals) => vals,
            Column::Int(_) => unreachable!("demoted above"),
        }
    }

    pub fn push(&mut self, v: Val<'_>) {
        match (&mut *self, v) {
            (Column::Int(ints), Val::Int(x)) => ints.push(x),
            _ => self.demote().push(v.to_value()),
        }
    }

    /// Append `vals` in order, demoting at the first non-integer.
    pub fn extend<'v>(&mut self, mut vals: impl Iterator<Item = Val<'v>>) {
        if let Column::Int(ints) = self {
            ints.reserve(vals.size_hint().0);
            let mut odd = None;
            for v in vals.by_ref() {
                match v {
                    Val::Int(x) => ints.push(x),
                    Val::Ref(v) => {
                        odd = Some(v);
                        break;
                    }
                }
            }
            match odd {
                Some(v) => self.demote().push(v.clone()),
                None => return,
            }
        }
        self.demote().extend(vals.map(Val::to_value));
    }

    /// Append rows `rows` of `src`, in that order. Between columns of one
    /// variant this is an indexed copy with no per-value dispatch.
    pub fn gather(&mut self, src: &Column, rows: impl Iterator<Item = usize>) {
        match (&mut *self, src) {
            (_, Column::Int(src)) => self.gather_ints(src, rows),
            (Column::Any(dst), Column::Any(src)) => dst.extend(rows.map(|r| src[r].clone())),
            _ => self.extend(rows.map(|r| src.get(r))),
        }
    }

    /// Append the integers at positions `rows` of `src`, in that order: the
    /// indexed copy behind [`Column::gather`], and how the survivors of a
    /// base table's mirrored column enter a batch.
    pub fn gather_ints(&mut self, src: &[i64], rows: impl Iterator<Item = usize>) {
        match self {
            Column::Int(dst) => dst.extend(rows.map(|r| src[r])),
            Column::Any(dst) => dst.extend(rows.map(|r| Value::Int(src[r]))),
        }
    }

    /// Append all of `src`.
    pub fn append(&mut self, src: &Column) {
        match (&mut *self, src) {
            (Column::Int(dst), Column::Int(src)) => dst.extend_from_slice(src),
            (Column::Any(dst), Column::Any(src)) => dst.extend_from_slice(src),
            _ => self.extend((0..src.len()).map(|r| src.get(r))),
        }
    }
}

/// One columnar batch: `cols` all have length `rows`; `sel`, when present,
/// lists the live row indices in ascending order.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub cols: Vec<Column>,
    pub rows: usize,
    pub sel: Option<Vec<u32>>,
}

impl Batch {
    /// An empty batch with `ncols` columns.
    pub fn new(ncols: usize) -> Batch {
        Batch {
            cols: (0..ncols).map(|_| Column::default()).collect(),
            rows: 0,
            sel: None,
        }
    }

    /// Empty the batch and give it `ncols` columns, keeping the column
    /// allocations it already has (scratch and pooled batches are reused
    /// across sub-ranges and across re-runs of a correlated inner).
    pub fn reset(&mut self, ncols: usize) {
        self.cols.resize_with(ncols, Column::default);
        self.cols.iter_mut().for_each(Column::clear);
        self.rows = 0;
        self.sel = None;
    }

    /// Number of live (selected) rows.
    pub fn live(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// Iterate live row indices in order.
    pub fn live_rows(&self) -> SelIter<'_> {
        match &self.sel {
            Some(s) => SelIter::Sparse(s.iter()),
            None => SelIter::Dense(0..self.rows),
        }
    }

    /// Borrow row `row` for expression evaluation.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> BatchRow<'_> {
        BatchRow {
            cols: &self.cols,
            row,
        }
    }

    /// Copy the live rows of `from` onto the end of this (compact) batch;
    /// dense integer columns go by `memcpy`.
    pub fn append_live(&mut self, from: &Batch) {
        for (dst, src) in self.cols.iter_mut().zip(&from.cols) {
            match &from.sel {
                None => dst.append(src),
                Some(sel) => dst.gather(src, sel.iter().map(|i| *i as usize)),
            }
        }
        self.rows += from.live();
    }
}

/// A materialized relation crossing a pipeline breaker: one compact batch,
/// either owned by its single consumer (which recycles its buffers) or
/// shared with the temp cache (STORE'd temps, cached SORT output).
pub(crate) enum Rel {
    Owned(Batch),
    Shared(Arc<Batch>),
}

impl Rel {
    /// The shared form, without copying rows either way.
    pub fn share(self) -> Arc<Batch> {
        match self {
            Rel::Owned(b) => Arc::new(b),
            Rel::Shared(a) => a,
        }
    }
}

impl Deref for Rel {
    type Target = Batch;

    #[inline]
    fn deref(&self) -> &Batch {
        match self {
            Rel::Owned(b) => b,
            Rel::Shared(a) => a,
        }
    }
}

/// Iterator over a batch's live row indices: dense (no selection) or sparse
/// (driven by the selection vector).
pub enum SelIter<'a> {
    Dense(std::ops::Range<usize>),
    Sparse(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::Dense(r) => r.next(),
            SelIter::Sparse(it) => it.next().map(|i| *i as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: std::ops::Range<i64>) -> Batch {
        Batch {
            rows: vals.clone().count(),
            cols: vec![Column::Int(vals.collect())],
            sel: None,
        }
    }

    #[test]
    fn selection_vector_drives_live_iteration_and_append() {
        let mut b = ints(0..5);
        assert_eq!(b.live(), 5);
        assert_eq!(b.live_rows().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        b.sel = Some(vec![1, 4]);
        assert_eq!(b.live(), 2);
        let mut out = ints(7..8);
        out.append_live(&b);
        assert_eq!(out.rows, 3);
        assert_eq!(out.cols[0], Column::Int(vec![7, 1, 4]));
        // Dense batches copy wholesale.
        out.append_live(&ints(10..12));
        assert_eq!(out.rows, 5);
        assert_eq!(out.cols[0], Column::Int(vec![7, 1, 4, 10, 11]));
    }

    #[test]
    fn empty_selections_append_nothing_and_reset_keeps_shape() {
        let mut out = Batch::new(1);
        let mut b = ints(7..8);
        b.sel = Some(Vec::new()); // everything filtered out
        assert_eq!(b.live(), 0);
        out.append_live(&b);
        assert_eq!((out.rows, out.cols[0].len()), (0, 0));
        b.reset(3);
        assert_eq!((b.cols.len(), b.rows, b.live()), (3, 0, 0));
        assert!(b.sel.is_none() && b.cols.iter().all(Column::is_empty));
    }

    /// Every way of filling a column, fed one value stream: an `Int` column
    /// holds exactly the `Value::Int`s pushed so far, the first other value
    /// demotes it, and reading back yields the stream unchanged.
    #[test]
    fn demotion_preserves_every_value_and_int_holds_only_ints() {
        let odd = [
            Value::Null,
            Value::Double(2.0),
            Value::str("x"),
            Value::Bool(true),
        ];
        for (at, odd) in [0usize, 1, 700, 1024].into_iter().zip(odd) {
            let mut stream: Vec<Value> = (0..1500).map(|i| Value::Int(i * 7 - 3_000)).collect();
            stream[at] = odd;
            stream.push(Value::Int(i64::MIN));
            stream.push(Value::Int(i64::MAX));
            let read = |c: &Column| (0..c.len()).map(|r| c.value(r)).collect::<Vec<_>>();

            // Value by value.
            let mut pushed = Column::default();
            for (n, v) in stream.iter().enumerate() {
                pushed.push(Val::of(v));
                let all_ints = stream[..=n].iter().all(|v| matches!(v, Value::Int(_)));
                assert_eq!(matches!(pushed, Column::Int(_)), all_ints, "after {n}");
            }
            assert_eq!(read(&pushed), stream);

            // In bulk, and column to column (typed → typed, typed → demoted,
            // demoted → fresh) in two halves so demotion lands mid-gather.
            let mut bulk = Column::default();
            bulk.extend(stream.iter().map(Val::of));
            assert_eq!(read(&bulk), stream);
            let prefix = Column::Int((0..at as i64).collect());
            for mut dst in [Column::default(), prefix.clone()] {
                let kept = read(&dst);
                dst.gather(&bulk, 0..800);
                dst.append(&pushed);
                dst.gather(&pushed, (800..stream.len()).rev());
                let want = kept.iter().chain(&stream[..800]).chain(&stream);
                let want = want.chain(stream[800..].iter().rev());
                assert_eq!(read(&dst), want.cloned().collect::<Vec<_>>());
                assert!(matches!(dst, Column::Any(_)));
            }

            // A gather that skips the odd row leaves the target typed.
            let mut clean = Column::default();
            clean.gather(&pushed, (0..stream.len()).filter(|r| *r != at));
            assert!(matches!(&clean, Column::Int(v) if v.len() == stream.len() - 1));

            // Emptying keeps the variant; refilling is still exact.
            pushed.clear();
            pushed.extend(stream[at + 1..].iter().map(Val::of));
            assert!(matches!(pushed, Column::Any(_)));
            assert_eq!(read(&pushed), stream[at + 1..]);
        }
    }
}

//! Columnar batches and selection vectors — the unit of data flow between
//! vectorized operators, and the form in which rows cross pipeline breakers.
//!
//! A [`Batch`] holds rows in column-major order. Inside a chain it carries
//! up to [`BATCH_ROWS`] rows and filters never move data: they refine the
//! *selection vector* (the ordered set of live row indices). Data moves once
//! — when the chain's survivors are appended to the breaker's materialized
//! relation, which is itself one compact `Batch` of any length (a [`Rel`]):
//! SORT, the joins, temps and the result builder address its rows by number.

use std::ops::Deref;
use std::sync::Arc;

use starqo_catalog::Value;

use crate::expr::BatchRow;

/// Target rows per in-chain batch (the classic vectorized sweet spot: big
/// enough to amortize per-batch dispatch, small enough to stay
/// cache-resident).
pub const BATCH_ROWS: usize = 1024;

/// One columnar batch: `cols` all have length `rows`; `sel`, when present,
/// lists the live row indices in ascending order.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub cols: Vec<Vec<Value>>,
    pub rows: usize,
    pub sel: Option<Vec<u32>>,
}

impl Batch {
    /// An empty batch with `ncols` columns.
    pub fn new(ncols: usize) -> Batch {
        Batch {
            cols: (0..ncols).map(|_| Vec::new()).collect(),
            rows: 0,
            sel: None,
        }
    }

    /// Empty the batch and give it `ncols` columns, keeping the column
    /// allocations it already has (scratch and pooled batches are reused
    /// across sub-ranges and across re-runs of a correlated inner).
    pub fn reset(&mut self, ncols: usize) {
        self.cols.resize_with(ncols, Vec::new);
        self.cols.iter_mut().for_each(Vec::clear);
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

    /// Move the live rows of `from` onto the end of this (compact) batch.
    /// `from` is left to be [`Self::reset`]; dense batches move by `memcpy`.
    pub fn append_live(&mut self, from: &mut Batch) {
        match &from.sel {
            None => {
                for (dst, src) in self.cols.iter_mut().zip(&mut from.cols) {
                    dst.append(src);
                }
            }
            Some(sel) => {
                for (dst, src) in self.cols.iter_mut().zip(&mut from.cols) {
                    dst.extend(sel.iter().map(|&i| take(&mut src[i as usize])));
                }
            }
        }
        self.rows += from.live();
    }
}

/// Move a value out of a finished batch, leaving NULL behind.
#[inline]
pub(crate) fn take(v: &mut Value) -> Value {
    std::mem::replace(v, Value::Null)
}

/// A materialized relation crossing a pipeline breaker: one compact batch,
/// either owned by its single consumer (values may be moved out) or shared
/// with the temp cache (STORE'd temps, cached SORT output).
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
            cols: vec![vals.map(Value::Int).collect()],
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
        out.append_live(&mut b);
        assert_eq!(out.rows, 3);
        assert_eq!(
            out.cols[0],
            vec![Value::Int(7), Value::Int(1), Value::Int(4)]
        );
        // Dense batches move wholesale.
        let mut dense = ints(10..12);
        out.append_live(&mut dense);
        assert_eq!(out.rows, 5);
        assert_eq!(out.cols[0][3..], [Value::Int(10), Value::Int(11)]);
    }

    #[test]
    fn empty_selections_append_nothing_and_reset_keeps_shape() {
        let mut out = Batch::new(1);
        let mut b = ints(7..8);
        b.sel = Some(Vec::new()); // everything filtered out
        assert_eq!(b.live(), 0);
        out.append_live(&mut b);
        assert_eq!((out.rows, out.cols[0].len()), (0, 0));
        b.reset(3);
        assert_eq!((b.cols.len(), b.rows, b.live()), (3, 0, 0));
        assert!(b.sel.is_none() && b.cols.iter().all(Vec::is_empty));
    }
}

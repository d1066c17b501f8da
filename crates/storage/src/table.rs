//! Stored heap tables.

use std::ops::{Bound, Range};

use starqo_catalog::{ColId, Table, TableId, Value};

use crate::error::{Result, StorageError};
use crate::tuple::{Tid, Tuple};

/// Nominal rows per page for I/O accounting. The cost model sizes pages in
/// bytes; the executor charges one page per `ROWS_PER_PAGE` contiguous rows.
pub const ROWS_PER_PAGE: u64 = 64;

/// Number of heap pages the rows at positions `range` lie on — what a scan
/// of that range is charged. Reading an empty range still touches the page
/// it would have been on; the whole table is [`StoredTable::pages`].
pub fn pages_spanned(range: &Range<usize>) -> u64 {
    let end = range.end.max(range.start + 1) as u64;
    end.div_ceil(ROWS_PER_PAGE) - range.start as u64 / ROWS_PER_PAGE
}

/// The stored rows of one table. For `StorageKind::BTree` tables the rows
/// are kept sorted on the key, which is how the storage manager delivers
/// them in key order — and what lets [`StoredTable::key_range`] find the rows
/// under a bound key by binary search.
#[derive(Debug, Clone)]
pub struct StoredTable {
    pub table: TableId,
    rows: Vec<Tuple>,
    /// The key the rows are known to be sorted on; empty when no order is
    /// known (set by `sort_on`, cleared by `insert`).
    sorted_on: Vec<ColId>,
}

impl StoredTable {
    pub fn new(table: TableId) -> Self {
        StoredTable {
            table,
            rows: Vec::new(),
            sorted_on: Vec::new(),
        }
    }

    /// Append a row, validating arity against the schema.
    pub fn insert(&mut self, schema: &Table, row: Tuple) -> Result<Tid> {
        if row.arity() != schema.columns.len() {
            return Err(StorageError::SchemaMismatch {
                table: self.table,
                expected: schema.columns.len(),
                got: row.arity(),
            });
        }
        let tid = Tid(self.rows.len() as u64);
        self.rows.push(row);
        self.sorted_on.clear();
        Ok(tid)
    }

    /// Sort rows on the given key columns (used when loading B-tree-stored
    /// tables). Note: invalidates TIDs, so must happen before index builds.
    pub fn sort_on(&mut self, key: &[ColId]) {
        self.rows.sort_by(|a, b| {
            for c in key {
                let ord = a.get(c.0 as usize).cmp(b.get(c.0 as usize));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.sorted_on = key.to_vec();
    }

    /// The key-range read of a B-tree-stored table: the positions of the rows
    /// whose leading `key` columns equal `prefix` and whose next key column
    /// lies within `lower`/`upper`, found by binary search under `Value`'s
    /// total order (the order `sort_on` sorted by and predicates compare by).
    /// An empty prefix with no bounds is the whole table, and so is any
    /// `key` the rows are not known to be sorted on: a table that was not
    /// sorted on exactly this key is scanned, never mis-searched.
    pub fn key_range(
        &self,
        key: &[ColId],
        prefix: &[Value],
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Range<usize> {
        let unbounded = matches!((lower, upper), (Bound::Unbounded, Bound::Unbounded));
        if self.sorted_on != key || (prefix.is_empty() && unbounded) {
            return 0..self.rows.len();
        }
        let cmp_prefix = |row: &Tuple| {
            let cols = key.iter().zip(prefix);
            cols.map(|(c, v)| row.get(c.0 as usize).cmp(v))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        let start = self.rows.partition_point(|r| cmp_prefix(r).is_lt());
        let group = &self.rows[start..];
        // The rows under one prefix are few next to the table (one, for a
        // unique key): gallop from the first to bracket the end of the run,
        // then bisect the bracket — two comparisons for a unique key.
        let same = |r: &Tuple| cmp_prefix(r).is_eq();
        let mut reach = 1;
        while reach <= group.len() && same(&group[reach - 1]) {
            reach *= 2;
        }
        let (known, end) = (reach / 2, (reach - 1).min(group.len()));
        let group = &group[..known + group[known..end].partition_point(same)];
        let Some(next) = key.get(prefix.len()) else {
            return start..start + group.len();
        };
        let next = next.0 as usize;
        let lo = match lower {
            Bound::Included(v) => group.partition_point(|r| r.get(next) < v),
            Bound::Excluded(v) => group.partition_point(|r| r.get(next) <= v),
            Bound::Unbounded => 0,
        };
        let hi = match upper {
            Bound::Included(v) => group.partition_point(|r| r.get(next) <= v),
            Bound::Excluded(v) => group.partition_point(|r| r.get(next) < v),
            Bound::Unbounded => group.len(),
        };
        // Inverted bounds name no row: an empty range, not a reversed one.
        start + lo..start + hi.max(lo)
    }

    pub fn fetch(&self, tid: Tid) -> Result<&Tuple> {
        self.rows.get(tid.0 as usize).ok_or(StorageError::BadTid {
            table: self.table,
            tid: tid.0,
        })
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of heap pages the table occupies.
    pub fn pages(&self) -> u64 {
        pages_spanned(&(0..self.rows.len()))
    }

    /// Borrow a contiguous row range (batch scans iterate this instead of
    /// per-row `fetch`). The range is clamped to the table length; row `i`
    /// of the slice is TID `range.start + i`.
    pub fn rows_range(&self, range: Range<usize>) -> &[Tuple] {
        let n = self.rows.len();
        &self.rows[range.start.min(n)..range.end.min(n)]
    }

    /// Scan all rows with their TIDs.
    pub fn scan(&self) -> impl Iterator<Item = (Tid, &Tuple)> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, t)| (Tid(i as u64), t))
    }

    /// Column values of a row by column position.
    pub fn value(&self, tid: Tid, col: usize) -> Result<&Value> {
        Ok(self.fetch(tid)?.get(col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::{ColId, Column, DataType, SiteId, StorageKind};

    fn schema() -> Table {
        Table {
            id: TableId(0),
            name: "T".into(),
            columns: vec![
                Column::new("A", DataType::Int),
                Column::new("B", DataType::Str),
            ],
            card: 0,
            site: SiteId(0),
            storage: StorageKind::Heap,
        }
    }

    #[test]
    fn insert_scan_fetch() {
        let s = schema();
        let mut t = StoredTable::new(TableId(0));
        let t0 = t
            .insert(&s, Tuple(vec![Value::Int(2), Value::str("b")]))
            .unwrap();
        let t1 = t
            .insert(&s, Tuple(vec![Value::Int(1), Value::str("a")]))
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(*t.value(t0, 0).unwrap(), Value::Int(2));
        assert_eq!(*t.value(t1, 1).unwrap(), Value::str("a"));
        let rows: Vec<_> = t.scan().map(|(tid, _)| tid).collect();
        assert_eq!(rows, vec![Tid(0), Tid(1)]);
    }

    #[test]
    fn arity_checked() {
        let s = schema();
        let mut t = StoredTable::new(TableId(0));
        let err = t.insert(&s, Tuple(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn bad_tid() {
        let t = StoredTable::new(TableId(0));
        assert!(matches!(t.fetch(Tid(0)), Err(StorageError::BadTid { .. })));
    }

    #[test]
    fn pages_round_up() {
        let s = schema();
        let mut t = StoredTable::new(TableId(0));
        assert_eq!(t.pages(), 1); // empty still occupies one page
        for i in 0..(ROWS_PER_PAGE + 1) {
            t.insert(&s, Tuple(vec![Value::Int(i as i64), Value::str("x")]))
                .unwrap();
        }
        assert_eq!(t.pages(), 2);
    }

    /// `T(A, B)` loaded with `(a, b)` pairs (`B` as a string) and sorted on
    /// `key`.
    fn sorted(pairs: &[(i64, &str)], key: &[ColId]) -> StoredTable {
        let s = schema();
        let mut t = StoredTable::new(TableId(0));
        for (a, b) in pairs {
            t.insert(&s, Tuple(vec![Value::Int(*a), Value::str(*b)]))
                .unwrap();
        }
        t.sort_on(key);
        t
    }

    const A: [ColId; 1] = [ColId(0)];
    const AB: [ColId; 2] = [ColId(0), ColId(1)];
    const OPEN: Bound<&Value> = Bound::Unbounded;

    #[test]
    fn key_range_finds_duplicate_missing_first_and_last_keys() {
        let t = sorted(
            &[(7, "a"), (3, "b"), (5, "c"), (5, "d"), (9, "e"), (5, "f")],
            &A,
        );
        // Sorted: 3 5 5 5 7 9.
        let eq = |k: i64| t.key_range(&A, &[Value::Int(k)], OPEN, OPEN);
        assert_eq!(eq(5), 1..4, "every duplicate, nothing else");
        assert_eq!(eq(3), 0..1, "first key");
        assert_eq!(eq(9), 5..6, "last key");
        assert_eq!(eq(6), 4..4, "missing between two present keys");
        assert_eq!(eq(1), 0..0, "below the first key");
        assert_eq!(eq(10), 6..6, "above the last key");
        // An `Int` key is found by the `Double` that equals it; a string
        // sorts after every number.
        let by = |v: Value| t.key_range(&A, &[v], OPEN, OPEN);
        assert_eq!(by(Value::Double(5.0)), 1..4);
        assert_eq!(by(Value::Double(5.5)), 4..4);
        assert_eq!(by(Value::str("5")), 6..6);
        // No prefix, no bounds: the whole table.
        assert_eq!(t.key_range(&A, &[], OPEN, OPEN), 0..6);
    }

    /// Runs of every length from none to 40, the last one ending the table:
    /// the range is exactly the rows a linear pass counts.
    #[test]
    fn key_range_matches_a_linear_pass_on_runs_of_every_length() {
        let pairs: Vec<(i64, &str)> = (0..=40)
            .flat_map(|k| std::iter::repeat_n((2 * k, "x"), k as usize))
            .collect();
        let t = sorted(&pairs, &A);
        for k in -1..=81 {
            let at = pairs
                .iter()
                .position(|(a, _)| *a >= k)
                .unwrap_or(pairs.len());
            let n = pairs.iter().filter(|(a, _)| *a == k).count();
            let got = t.key_range(&A, &[Value::Int(k)], OPEN, OPEN);
            assert_eq!(got, at..at + n, "key {k}");
        }
    }

    #[test]
    fn key_range_bounds_the_column_after_the_prefix() {
        let t = sorted(
            &[(1, "x"), (2, "d"), (2, "b"), (2, "c"), (2, "a"), (3, "a")],
            &AB,
        );
        // Sorted: (1,x) (2,a) (2,b) (2,c) (2,d) (3,a).
        let two = [Value::Int(2)];
        assert_eq!(t.key_range(&AB, &two, OPEN, OPEN), 1..5, "1-column prefix");
        let full = [Value::Int(2), Value::str("c")];
        assert_eq!(t.key_range(&AB, &full, OPEN, OPEN), 3..4, "whole key");
        let (b, c) = (Value::str("b"), Value::str("c"));
        let range = |lo, hi| t.key_range(&AB, &two, lo, hi);
        assert_eq!(range(Bound::Included(&b), OPEN), 2..5, "lower only, >=");
        assert_eq!(range(Bound::Excluded(&b), OPEN), 3..5, "lower only, >");
        assert_eq!(range(OPEN, Bound::Included(&c)), 1..4, "upper only, <=");
        assert_eq!(range(OPEN, Bound::Excluded(&c)), 1..3, "upper only, <");
        assert_eq!(range(Bound::Included(&b), Bound::Excluded(&c)), 2..3);
        assert_eq!(
            range(Bound::Included(&c), Bound::Included(&b)),
            3..3,
            "inverted"
        );
        assert_eq!(
            range(Bound::Excluded(&c), Bound::Excluded(&c)),
            4..4,
            "inverted"
        );
        // A range on the first key column, under no prefix.
        let (lo, hi) = (Value::Int(2), Value::Int(3));
        let got = t.key_range(&AB, &[], Bound::Included(&lo), Bound::Excluded(&hi));
        assert_eq!(got, 1..5);
    }

    #[test]
    fn key_range_scans_what_it_cannot_search() {
        let five = [Value::Int(5)];
        // The empty table, sorted or not.
        let mut t = StoredTable::new(TableId(0));
        assert_eq!(t.key_range(&A, &five, OPEN, OPEN), 0..0);
        t.sort_on(&A);
        assert_eq!(t.key_range(&A, &five, OPEN, OPEN), 0..0);
        // Never sorted; sorted on another key than the one asked for.
        let s = schema();
        let mut t = StoredTable::new(TableId(0));
        for a in [9, 5, 1] {
            t.insert(&s, Tuple(vec![Value::Int(a), Value::str("x")]))
                .unwrap();
        }
        assert_eq!(t.key_range(&A, &five, OPEN, OPEN), 0..3, "unsorted");
        t.sort_on(&AB);
        assert_eq!(t.key_range(&A, &five, OPEN, OPEN), 0..3, "other key");
        assert_eq!(t.key_range(&AB, &five, OPEN, OPEN), 1..2);
        // An insert after the sort may land anywhere: scanned again.
        t.insert(&s, Tuple(vec![Value::Int(0), Value::str("x")]))
            .unwrap();
        assert_eq!(
            t.key_range(&AB, &five, OPEN, OPEN),
            0..4,
            "insert-after-sort"
        );
        t.sort_on(&AB);
        assert_eq!(t.key_range(&AB, &five, OPEN, OPEN), 2..3);
    }

    #[test]
    fn pages_spanned_counts_the_pages_a_range_lies_on() {
        let p = ROWS_PER_PAGE as usize;
        assert_eq!(pages_spanned(&(0..0)), 1, "an empty read still looks");
        assert_eq!(pages_spanned(&(5..6)), 1);
        assert_eq!(pages_spanned(&(p - 1..p + 1)), 2, "straddles a page");
        assert_eq!(pages_spanned(&(p..p)), 1);
        assert_eq!(pages_spanned(&(0..3 * p)), 3);
        assert_eq!(pages_spanned(&(0..3 * p + 1)), 4);
        // The whole table is `pages()`.
        let t = sorted(&[(1, "a"); 130], &A);
        assert_eq!(pages_spanned(&(0..t.len())), t.pages());
    }

    #[test]
    fn sort_on_key() {
        let s = schema();
        let mut t = StoredTable::new(TableId(0));
        for v in [3, 1, 2] {
            t.insert(&s, Tuple(vec![Value::Int(v), Value::str("x")]))
                .unwrap();
        }
        t.sort_on(&[ColId(0)]);
        let vals: Vec<_> = t.scan().map(|(_, r)| r.get(0).clone()).collect();
        assert_eq!(vals, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}

//! Stored heap tables.

use std::cmp::Ordering;
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

/// The first position of `range` at which `before` no longer holds, given
/// that it holds for a (possibly empty) leading part of the range only —
/// `partition_point` over row positions.
fn partition(mut range: Range<usize>, before: impl Fn(usize) -> bool) -> usize {
    while range.start < range.end {
        let mid = range.start + range.len() / 2;
        if before(mid) {
            range.start = mid + 1;
        } else {
            range.end = mid;
        }
    }
    range.start
}

/// `a` against `b` on the columns of `key`, in turn.
fn cmp_on(key: &[ColId], a: &Tuple, b: &Tuple) -> Ordering {
    let ord = |c: &ColId| a.get(c.0 as usize).cmp(b.get(c.0 as usize));
    key.iter()
        .map(ord)
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
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
    /// known (set by `sort_on`, kept by `insert_in_order`, cleared by
    /// `insert`).
    sorted_on: Vec<ColId>,
    /// Column-major mirror of the integer columns (see
    /// [`StoredTable::int_column`]): per column, every row's integer by
    /// absolute row position, or `None` for a column holding anything else.
    /// Empty — no column mirrored — until [`StoredTable::mirror_ints`], and
    /// again after any `insert` or `sort_on`.
    ints: Vec<Option<Box<[i64]>>>,
}

impl StoredTable {
    pub fn new(table: TableId) -> Self {
        StoredTable {
            table,
            rows: Vec::new(),
            sorted_on: Vec::new(),
            ints: Vec::new(),
        }
    }

    /// Append a row, validating arity against the schema.
    pub fn insert(&mut self, schema: &Table, row: Tuple) -> Result<Tid> {
        self.check_arity(schema, &row)?;
        let tid = Tid(self.rows.len() as u64);
        self.rows.push(row);
        self.sorted_on.clear();
        self.ints.clear();
        Ok(tid)
    }

    /// `Err(SchemaMismatch)` unless `row` has one value per column.
    pub(crate) fn check_arity(&self, schema: &Table, row: &Tuple) -> Result<()> {
        let (table, expected, got) = (self.table, schema.columns.len(), row.arity());
        let mismatch = StorageError::SchemaMismatch {
            table,
            expected,
            got,
        };
        (got == expected).then_some(()).ok_or(mismatch)
    }

    /// [`Self::insert`] into a table sorted on `key`, at the row's place in
    /// key order — after the rows of an equal key — so the table stays
    /// sorted, as a B-tree does; the rows after it move up one TID. Into a
    /// table not sorted on `key` the row is appended.
    pub fn insert_in_order(&mut self, schema: &Table, row: Tuple, key: &[ColId]) -> Result<Tid> {
        let sorted = self.sorted_on == key;
        let tid = self.insert(schema, row)?;
        if !sorted {
            return Ok(tid);
        }
        let row = self.rows.pop().expect("the row just appended");
        let at = self
            .rows
            .partition_point(|r| cmp_on(key, r, &row) != Ordering::Greater);
        self.rows.insert(at, row);
        self.sorted_on = key.to_vec();
        Ok(Tid(at as u64))
    }

    /// Sort rows on the given key columns (used when loading B-tree-stored
    /// tables). Note: invalidates TIDs, so must happen before index builds.
    pub fn sort_on(&mut self, key: &[ColId]) {
        self.rows.sort_by(|a, b| cmp_on(key, a, b));
        self.sorted_on = key.to_vec();
        self.ints.clear();
    }

    /// Record the column-major mirror of the rows as they now stand: one
    /// exact-sized `i64` slice for every column whose every value is a
    /// `Value::Int` (8 bytes a value), nothing for a column holding a NULL,
    /// double, string or boolean — decided by the data alone. The rows stay
    /// the table's truth; the mirror only spares its readers a pointer chase
    /// and a tag check per value. (`DatabaseBuilder::build` calls this once
    /// the rows are in their final positions.)
    pub(crate) fn mirror_ints(&mut self) {
        let arity = self.rows.first().map_or(0, Tuple::arity);
        let mut cols: Vec<_> = (0..arity)
            .map(|_| Some(Vec::with_capacity(self.rows.len())))
            .collect();
        for row in &self.rows {
            for (col, v) in cols.iter_mut().zip(&row.0) {
                match (&mut *col, v) {
                    (Some(ints), Value::Int(x)) => ints.push(*x),
                    _ => *col = None,
                }
            }
        }
        // Filled to the capacity asked for: boxing reallocates nothing.
        let boxed = cols.into_iter().map(|c| c.map(Vec::into_boxed_slice));
        self.ints = boxed.collect();
    }

    /// Column `col` of every row as integers, indexed by row position (the
    /// TID) — present when the table was loaded by `DatabaseBuilder::build`,
    /// has not been touched since, and the column holds only `Value::Int`s.
    #[inline]
    pub fn int_column(&self, col: usize) -> Option<&[i64]> {
        self.ints.get(col)?.as_deref()
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
        // Row `pos`'s column `c` against `v` under `Value`'s order — two
        // integers when the column is mirrored, with no row touched.
        let cmp = |pos: usize, c: ColId, v: &Value| match (self.int_column(c.0 as usize), v) {
            (Some(ints), Value::Int(x)) => ints[pos].cmp(x),
            _ => self.rows[pos].get(c.0 as usize).cmp(v),
        };
        let cmp_prefix = |pos: usize| {
            let cols = key.iter().zip(prefix);
            cols.map(|(c, v)| cmp(pos, *c, v))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let n = self.rows.len();
        let start = partition(0..n, |p| cmp_prefix(p).is_lt());
        // The rows under one prefix are few next to the table (one, for a
        // unique key): gallop from the first to bracket the end of the run,
        // then bisect the bracket — two comparisons for a unique key.
        let same = |p: usize| cmp_prefix(p).is_eq();
        let mut reach = 1;
        while start + reach <= n && same(start + reach - 1) {
            reach *= 2;
        }
        let bracket = start + reach / 2..(start + reach - 1).min(n);
        let group = start..partition(bracket, same);
        let Some(next) = key.get(prefix.len()) else {
            return group;
        };
        let below = |v: &Value, or_at: bool| {
            partition(group.clone(), |p| {
                let o = cmp(p, *next, v);
                o.is_lt() || (or_at && o.is_eq())
            })
        };
        let lo = match lower {
            Bound::Included(v) => below(v, false),
            Bound::Excluded(v) => below(v, true),
            Bound::Unbounded => group.start,
        };
        let hi = match upper {
            Bound::Included(v) => below(v, true),
            Bound::Excluded(v) => below(v, false),
            Bound::Unbounded => group.end,
        };
        // Inverted bounds name no row: an empty range, not a reversed one.
        lo..hi.max(lo)
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

    /// [`sorted`] without and with the integer mirror: every `key_range`
    /// answer below must not depend on which one is asked.
    fn both(pairs: &[(i64, &str)], key: &[ColId]) -> [StoredTable; 2] {
        let plain = sorted(pairs, key);
        let mut mirrored = plain.clone();
        mirrored.mirror_ints();
        assert!(plain.int_column(0).is_none() && mirrored.int_column(0).is_some());
        [plain, mirrored]
    }

    const A: [ColId; 1] = [ColId(0)];
    const AB: [ColId; 2] = [ColId(0), ColId(1)];
    const OPEN: Bound<&Value> = Bound::Unbounded;

    #[test]
    fn key_range_finds_duplicate_missing_first_and_last_keys() {
        for t in both(
            &[(7, "a"), (3, "b"), (5, "c"), (5, "d"), (9, "e"), (5, "f")],
            &A,
        ) {
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
    }

    /// Runs of every length from none to 40, the last one ending the table:
    /// the range is exactly the rows a linear pass counts.
    #[test]
    fn key_range_matches_a_linear_pass_on_runs_of_every_length() {
        let pairs: Vec<(i64, &str)> = (0..=40)
            .flat_map(|k| std::iter::repeat_n((2 * k, "x"), k as usize))
            .collect();
        for t in both(&pairs, &A) {
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
    }

    #[test]
    fn key_range_bounds_the_column_after_the_prefix() {
        // `A` is mirrored and `B`, a string, is not: one search compares
        // through the slice and through the rows.
        for t in both(
            &[(1, "x"), (2, "d"), (2, "b"), (2, "c"), (2, "a"), (3, "a")],
            &AB,
        ) {
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
        t.mirror_ints();
        assert_eq!(
            t.key_range(&A, &five, OPEN, OPEN),
            0..3,
            "mirrored, unsorted"
        );
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

    /// Rows of any shape (only the arity is checked on insert), mirrored.
    fn mirrored_rows(rows: Vec<Vec<Value>>) -> StoredTable {
        let mut s = schema();
        let arity = rows.first().map_or(2, Vec::len);
        s.columns = (0..arity)
            .map(|c| Column::new(format!("C{c}"), DataType::Int))
            .collect();
        let mut t = StoredTable::new(TableId(0));
        for row in rows {
            t.insert(&s, Tuple(row)).unwrap();
        }
        t.mirror_ints();
        t
    }

    /// All-integer keys at the ends of the `i64` domain, both key columns
    /// mirrored: integer probes compare through the slices, a `Double` or a
    /// string probe through the rows — the same range as an unmirrored twin
    /// gives, for every probe and bound.
    #[test]
    fn key_range_is_the_same_range_with_and_without_a_mirror() {
        let keys = [
            i64::MIN,
            i64::MIN,
            -1,
            0,
            0,
            7,
            i64::MAX - 1,
            i64::MAX,
            i64::MAX,
        ];
        let rows = keys.iter().enumerate();
        let rows = rows.map(|(i, k)| vec![Value::Int(*k), Value::Int(i as i64 % 3)]);
        let mut mirrored = mirrored_rows(rows.collect());
        mirrored.sort_on(&AB);
        let plain = mirrored.clone();
        mirrored.mirror_ints();
        assert!(plain.int_column(0).is_none());
        assert!(mirrored.int_column(0).is_some() && mirrored.int_column(1).is_some());
        let probes = [
            Value::Int(i64::MIN),
            Value::Int(i64::MIN + 1),
            Value::Int(0),
            Value::Int(5),
            Value::Int(i64::MAX),
            Value::Double(0.0),
            Value::Double(6.5),
            Value::Double(-1e300),
            Value::Double(f64::INFINITY),
            Value::str("0"),
            Value::Null,
            Value::Bool(true),
        ];
        let mut hits = 0;
        for p in &probes {
            let eq = |t: &StoredTable| t.key_range(&AB, std::slice::from_ref(p), OPEN, OPEN);
            assert_eq!(eq(&mirrored), eq(&plain), "prefix {p:?}");
            hits += eq(&mirrored).len();
            for q in &probes {
                for (lo, hi) in [
                    (Bound::Included(p), Bound::Excluded(q)),
                    (Bound::Excluded(p), Bound::Included(q)),
                    (Bound::Included(q), OPEN),
                    (OPEN, Bound::Excluded(q)),
                ] {
                    // On the first key column, then on the second under `p`.
                    let first = |t: &StoredTable| t.key_range(&AB, &[], lo, hi);
                    assert_eq!(first(&mirrored), first(&plain), "{lo:?}..{hi:?}");
                    let under = |t: &StoredTable| t.key_range(&AB, std::slice::from_ref(p), lo, hi);
                    assert_eq!(under(&mirrored), under(&plain), "{p:?}: {lo:?}..{hi:?}");
                }
            }
        }
        // MIN ×2, 0 ×2 (twice: as `Int` and as `Double`), MAX ×2.
        assert_eq!(hits, 2 + 2 + 2 + 2);
        let max = [Value::Int(i64::MAX)];
        assert_eq!(mirrored.key_range(&AB, &max, OPEN, OPEN), 7..9);
    }

    /// One value that is not an integer — first, middle or last row — keeps
    /// its column out of the mirror and leaves its neighbours in.
    #[test]
    fn mirror_holds_exactly_the_all_integer_columns() {
        let odd = [
            Value::Null,
            Value::Double(2.0),
            Value::str("2"),
            Value::Bool(true),
        ];
        for odd in odd {
            for at in [0, 3, 6] {
                let cell = |r: i64| if r == at { odd.clone() } else { Value::Int(r) };
                let rows = (0..7).map(|r| vec![Value::Int(r - 3), cell(r), Value::Int(r * r)]);
                let t = mirrored_rows(rows.collect());
                assert_eq!(t.int_column(0), Some(&[-3, -2, -1, 0, 1, 2, 3][..]));
                assert_eq!(t.int_column(1), None, "{odd:?} at row {at}");
                assert_eq!(t.int_column(2), Some(&[0, 1, 4, 9, 16, 25, 36][..]));
                assert_eq!(t.int_column(3), None, "past the arity");
                assert_eq!(t.int_column(usize::MAX), None, "the TID pseudo-column");
            }
        }
    }

    #[test]
    fn mirror_of_an_empty_and_of_a_zero_column_table() {
        let empty = mirrored_rows(Vec::new());
        assert_eq!((empty.len(), empty.int_column(0)), (0, None));
        let unit = mirrored_rows(vec![Vec::new(); 3]);
        assert_eq!((unit.len(), unit.int_column(0)), (3, None));
        assert_eq!(unit.scan().count(), 3);
    }

    /// The mirror is addressed by row position — the TID — so it is taken
    /// after the sort that decides positions, every slice is exactly the
    /// table long, and anything that adds or moves a row drops it whole.
    #[test]
    fn mirror_is_positional_exact_sized_and_dropped_by_insert_and_sort() {
        let rows = (0..200i64).map(|r| vec![Value::Int(r * 77 % 200), Value::Int(r)]);
        let mut t = mirrored_rows(rows.collect());
        let agrees = |t: &StoredTable| {
            for c in 0..2 {
                let ints = t.int_column(c).expect("an all-integer column");
                assert_eq!(ints.len(), t.len());
                for (tid, row) in t.scan() {
                    assert_eq!(Value::Int(ints[tid.0 as usize]), *row.get(c));
                }
            }
        };
        agrees(&t);
        t.sort_on(&A);
        assert!(t.int_column(0).is_none() && t.int_column(1).is_none());
        t.mirror_ints();
        agrees(&t);
        assert_eq!(t.int_column(0).unwrap()[..3], [0, 1, 2]);
        assert_ne!(t.int_column(1).unwrap()[..3], [0, 1, 2], "rows moved");
        let s = schema();
        t.insert(&s, Tuple(vec![Value::Int(-1), Value::Int(-1)]))
            .unwrap();
        assert!(t.int_column(0).is_none() && t.int_column(1).is_none());
        assert_eq!(t.len(), 201);
        // A clone carries the mirror it was taken with.
        t.mirror_ints();
        let copy = t.clone();
        agrees(&copy);
        assert_eq!(copy.int_column(1), t.int_column(1));
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

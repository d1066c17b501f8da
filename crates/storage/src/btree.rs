//! B-tree secondary indexes.

use std::collections::BTreeMap;
use std::ops::Bound;

use starqo_catalog::{Index, IndexId, Value};

use crate::error::{Result, StorageError};
use crate::table::StoredTable;
use crate::tuple::{Tid, Tuple};

/// `row`'s key under `def`.
fn key_of(def: &Index, row: &Tuple) -> Vec<Value> {
    def.cols
        .iter()
        .map(|c| row.get(c.0 as usize).clone())
        .collect()
}

/// The stored form of a secondary index: composite key → TIDs.
///
/// Range scans over this map are what an index-flavored `ACCESS` executes;
/// the keys come back in key order, which is where the ORDER property of an
/// index scan comes from.
#[derive(Debug, Clone, PartialEq)]
pub struct BTreeIndexData {
    pub index: IndexId,
    map: BTreeMap<Vec<Value>, Vec<Tid>>,
    entries: u64,
}

impl BTreeIndexData {
    /// Build the index over a stored table.
    pub fn build(def: &Index, data: &StoredTable) -> Result<Self> {
        let mut map: BTreeMap<Vec<Value>, Vec<Tid>> = BTreeMap::new();
        let mut entries = 0u64;
        for (tid, row) in data.scan() {
            let bucket = map.entry(key_of(def, row)).or_default();
            if def.unique && !bucket.is_empty() {
                return Err(StorageError::UniqueViolation { index: def.id });
            }
            bucket.push(tid);
            entries += 1;
        }
        Ok(BTreeIndexData {
            index: def.id,
            map,
            entries,
        })
    }

    /// `Err(UniqueViolation)` if `def` is unique and `row`'s key is taken.
    pub(crate) fn admit(&self, def: &Index, row: &Tuple) -> Result<()> {
        match def.unique && self.map.contains_key(&key_of(def, row)) {
            true => Err(StorageError::UniqueViolation { index: def.id }),
            false => Ok(()),
        }
    }

    /// Index `row`, just stored at `tid`: the rows at `tid` and after it
    /// (if it was not appended) moved up one TID, and so do their entries.
    /// Every bucket stays in TID order, as [`Self::build`] leaves it.
    pub(crate) fn insert(&mut self, def: &Index, row: &Tuple, tid: Tid) {
        if tid.0 < self.entries {
            let moved = self.map.values_mut().flatten().filter(|t| t.0 >= tid.0);
            moved.for_each(|t| t.0 += 1);
        }
        let bucket = self.map.entry(key_of(def, row)).or_default();
        bucket.insert(bucket.partition_point(|t| t.0 < tid.0), tid);
        self.entries += 1;
    }

    /// Full scan in key order.
    pub fn scan(&self) -> impl Iterator<Item = (&Vec<Value>, Tid)> {
        self.map
            .iter()
            .flat_map(|(k, tids)| tids.iter().map(move |t| (k, *t)))
    }

    /// Probe: all TIDs whose key has the given prefix, in key order.
    pub fn probe_prefix<'a>(
        &'a self,
        prefix: &'a [Value],
    ) -> impl Iterator<Item = (&'a Vec<Value>, Tid)> + 'a {
        self.map
            .range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.len() >= prefix.len() && k[..prefix.len()] == *prefix)
            .flat_map(|(k, tids)| tids.iter().map(move |t| (k, *t)))
    }

    /// Number of (key, tid) entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> u64 {
        self.map.len() as u64
    }

    /// Leaf pages, for I/O accounting (same rows-per-page convention as heaps).
    pub fn pages(&self) -> u64 {
        self.entries.div_ceil(crate::table::ROWS_PER_PAGE).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use starqo_catalog::{ColId, Column, DataType, SiteId, StorageKind, Table, TableId};

    fn setup(unique: bool) -> (Index, StoredTable, Table) {
        let schema = Table {
            id: TableId(0),
            name: "T".into(),
            columns: vec![
                Column::new("A", DataType::Int),
                Column::new("B", DataType::Int),
            ],
            card: 0,
            site: SiteId(0),
            storage: StorageKind::Heap,
        };
        let def = Index {
            id: IndexId(0),
            name: "IX".into(),
            table: TableId(0),
            cols: vec![ColId(1), ColId(0)],
            unique,
            clustered: false,
        };
        let mut data = StoredTable::new(TableId(0));
        for (a, b) in [(1, 20), (2, 10), (3, 20), (4, 10)] {
            data.insert(&schema, Tuple(vec![Value::Int(a), Value::Int(b)]))
                .unwrap();
        }
        (def, data, schema)
    }

    #[test]
    fn build_and_scan_in_key_order() {
        let (def, data, _) = setup(false);
        let ix = BTreeIndexData::build(&def, &data).unwrap();
        assert_eq!(ix.entries(), 4);
        assert_eq!(ix.distinct_keys(), 4);
        let keys: Vec<i64> = ix
            .scan()
            .map(|(k, _)| match &k[0] {
                Value::Int(i) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(keys, vec![10, 10, 20, 20]);
    }

    #[test]
    fn probe_prefix_filters() {
        let (def, data, _) = setup(false);
        let ix = BTreeIndexData::build(&def, &data).unwrap();
        let hits: Vec<Tid> = ix.probe_prefix(&[Value::Int(10)]).map(|(_, t)| t).collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&Tid(1)) && hits.contains(&Tid(3)));
        // Full-key probe.
        let hits: Vec<Tid> = ix
            .probe_prefix(&[Value::Int(20), Value::Int(3)])
            .map(|(_, t)| t)
            .collect();
        assert_eq!(hits, vec![Tid(2)]);
        // Miss.
        assert_eq!(ix.probe_prefix(&[Value::Int(99)]).count(), 0);
    }

    #[test]
    fn unique_violation_detected() {
        let (mut def, mut data, schema) = setup(true);
        def.cols = vec![ColId(1)]; // B has duplicates
        let err = BTreeIndexData::build(&def, &data).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        // A unique index on a unique column is fine.
        def.cols = vec![ColId(0)];
        data.insert(&schema, Tuple(vec![Value::Int(9), Value::Int(9)]))
            .unwrap();
        assert!(BTreeIndexData::build(&def, &data).is_ok());
    }
}

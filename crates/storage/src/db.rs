//! The database container: stored tables and indexes for a whole catalog.

use std::collections::HashMap;
use std::sync::Arc;

use starqo_catalog::{Catalog, IndexId, StorageKind, TableId};

use crate::btree::BTreeIndexData;
use crate::error::{Result, StorageError};
use crate::table::StoredTable;
use crate::tuple::{Tid, Tuple};

/// A loaded database: one `StoredTable` per catalog table, plus built
/// indexes. Sites are bookkeeping — all data lives in this process, and the
/// `SHIP` operator's cost is simulated.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Arc<Catalog>,
    tables: HashMap<TableId, StoredTable>,
    indexes: HashMap<IndexId, BTreeIndexData>,
}

impl Database {
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn table(&self, id: TableId) -> Result<&StoredTable> {
        self.tables.get(&id).ok_or(StorageError::NoSuchTable(id))
    }

    pub fn index(&self, id: IndexId) -> Result<&BTreeIndexData> {
        self.indexes.get(&id).ok_or(StorageError::NoSuchIndex(id))
    }

    /// Actual row count of a table (may differ from the catalog estimate).
    pub fn actual_card(&self, id: TableId) -> u64 {
        self.tables.get(&id).map(|t| t.len() as u64).unwrap_or(0)
    }

    /// Add one row to a loaded table and its indexes: at a heap's end, or at
    /// its place in a B-tree-stored table's key order (the TIDs after it move
    /// up one). A row of the wrong width or a unique key already held is
    /// turned away before anything changes. The table loses the integer
    /// mirror `build` derived and is read row by row from then on.
    pub fn insert(&mut self, table: TableId, row: Tuple) -> Result<Tid> {
        let data = self
            .tables
            .get_mut(&table)
            .ok_or(StorageError::NoSuchTable(table))?;
        let schema = self.catalog.table(table);
        data.check_arity(schema, &row)?;
        let index = |id| self.indexes.get(&id).ok_or(StorageError::NoSuchIndex(id));
        for def in self.catalog.indexes_on(table) {
            index(def.id)?.admit(def, &row)?;
        }
        let tid = match &schema.storage {
            StorageKind::BTree { key } => data.insert_in_order(schema, row, key)?,
            StorageKind::Heap => data.insert(schema, row)?,
        };
        let row = data.fetch(tid)?;
        for def in self.catalog.indexes_on(table) {
            if let Some(ix) = self.indexes.get_mut(&def.id) {
                ix.insert(def, row, tid);
            }
        }
        Ok(tid)
    }
}

/// Builder that loads rows and then builds all catalog indexes.
pub struct DatabaseBuilder {
    catalog: Arc<Catalog>,
    tables: HashMap<TableId, StoredTable>,
}

impl DatabaseBuilder {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let tables = catalog
            .tables()
            .iter()
            .map(|t| (t.id, StoredTable::new(t.id)))
            .collect();
        DatabaseBuilder { catalog, tables }
    }

    /// Insert one row into a table (by name).
    pub fn insert(&mut self, table: &str, values: Vec<starqo_catalog::Value>) -> Result<()> {
        let no_table = |_| StorageError::NoSuchTable(TableId(u32::MAX));
        let id = self.catalog.table_by_name(table).map_err(no_table)?.id;
        self.insert_id(id, Tuple(values))
    }

    /// Insert one row by table id.
    pub fn insert_id(&mut self, table: TableId, row: Tuple) -> Result<()> {
        self.tables
            .get_mut(&table)
            .ok_or(StorageError::NoSuchTable(table))?
            .insert(self.catalog.table(table), row)?;
        Ok(())
    }

    /// Finish loading: sort B-tree-stored tables on their keys, mirror the
    /// integer columns of every table now that its rows are where they will
    /// stay, then build every catalog index.
    pub fn build(mut self) -> Result<Database> {
        for t in self.catalog.tables() {
            if let StorageKind::BTree { key } = &t.storage {
                if let Some(data) = self.tables.get_mut(&t.id) {
                    data.sort_on(key);
                }
            }
        }
        self.tables.values_mut().for_each(StoredTable::mirror_ints);
        let mut indexes = HashMap::new();
        for def in self.catalog.indexes() {
            let data = self
                .tables
                .get(&def.table)
                .ok_or(StorageError::NoSuchTable(def.table))?;
            indexes.insert(def.id, BTreeIndexData::build(def, data)?);
        }
        Ok(Database {
            catalog: self.catalog,
            tables: self.tables,
            indexes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::{Catalog, DataType, Value};

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::builder()
                .site("x")
                .table(
                    "T",
                    "x",
                    StorageKind::BTree {
                        key: vec![starqo_catalog::ColId(0)],
                    },
                    3,
                )
                .column("A", DataType::Int, Some(3))
                .column("B", DataType::Str, None)
                .index("T_B", "T", &["B"], false, false)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn load_sorts_btree_tables_and_builds_indexes() {
        let cat = catalog();
        let mut b = DatabaseBuilder::new(cat.clone());
        b.insert("T", vec![Value::Int(3), Value::str("c")]).unwrap();
        b.insert("T", vec![Value::Int(1), Value::str("a")]).unwrap();
        b.insert("T", vec![Value::Int(2), Value::str("b")]).unwrap();
        let db = b.build().unwrap();
        let t = db.table(TableId(0)).unwrap();
        let first: Vec<_> = t.scan().map(|(_, r)| r.get(0).clone()).collect();
        assert_eq!(first, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let ix = db.index(IndexId(0)).unwrap();
        assert_eq!(ix.entries(), 3);
        assert_eq!(db.actual_card(TableId(0)), 3);
    }

    /// `build` mirrors the integer column of the rows *as sorted*; a clone
    /// keeps the mirror; a row inserted afterwards is stored at its place in
    /// key order and indexed, and the table is back to rows alone.
    #[test]
    fn build_mirrors_sorted_rows_and_a_later_insert_drops_the_mirror() {
        let mut b = DatabaseBuilder::new(catalog());
        for (a, s) in [(3, "c"), (1, "a"), (2, "b")] {
            b.insert("T", vec![Value::Int(a), Value::str(s)]).unwrap();
        }
        let mut db = b.build().unwrap();
        let t = db.table(TableId(0)).unwrap();
        assert_eq!(
            t.int_column(0),
            Some(&[1, 2, 3][..]),
            "positions after the sort"
        );
        assert_eq!(t.int_column(1), None, "a string column");
        let copy = db.clone();
        let tid = db
            .insert(TableId(0), Tuple(vec![Value::Int(0), Value::str("b")]))
            .unwrap();
        assert_eq!(tid.0, 0);
        let t = db.table(TableId(0)).unwrap();
        assert_eq!((t.len(), t.int_column(0)), (4, None));
        let keys: Vec<_> = t.scan().map(|(_, r)| r.get(0).clone()).collect();
        assert_eq!(keys, [0, 1, 2, 3].map(Value::Int));
        let ix = db.index(IndexId(0)).unwrap();
        let b_rows: Vec<_> = ix
            .probe_prefix(&[Value::str("b")])
            .map(|(_, t)| t.0)
            .collect();
        assert_eq!((ix.entries(), b_rows), (4, vec![0, 2]));
        // The clone taken before the insert still has its own mirror.
        let t = copy.table(TableId(0)).unwrap();
        assert_eq!((t.len(), t.int_column(0)), (3, Some(&[1, 2, 3][..])));
        assert!(db.insert(TableId(9), Tuple(vec![])).is_err());
        assert!(db.insert(TableId(0), Tuple(vec![])).is_err(), "arity");
    }

    /// 260 seeded inserts into a heap and into a table stored as a B-tree
    /// on a non-unique key `B`, each with a unique, a non-unique and a
    /// two-column index. `C` is not ordered by `B`, so a row stored into
    /// the B-tree often lands before rows of its own `C` bucket. Each index
    /// maintained insert by insert equals the index built afresh; a
    /// duplicate of a unique key changes nothing.
    #[test]
    fn insert_maintains_indexes_as_build_would() {
        let btree = StorageKind::BTree {
            key: vec![starqo_catalog::ColId(1)],
        };
        let mut b = Catalog::builder().site("x");
        for (name, storage) in [("H", StorageKind::Heap), ("S", btree)] {
            b = b
                .table(name, "x", storage, 0)
                .column("A", DataType::Int, None)
                .column("B", DataType::Int, None)
                .column("C", DataType::Str, None)
                .index(format!("{name}_A"), name, &["A"], true, false)
                .index(format!("{name}_C"), name, &["C"], false, false)
                .index(format!("{name}_CB"), name, &["C", "B"], false, false);
        }
        let cat = Arc::new(b.build().unwrap());
        let mut seed = 0x5EED_u64;
        let mut next = |n: u64| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 33) % n
        };
        let mut loader = DatabaseBuilder::new(cat.clone());
        for (a, t) in [(1000, "H"), (1001, "H"), (1000, "S"), (1001, "S")] {
            let row = vec![Value::Int(a), Value::Int(3), Value::str("y")];
            loader.insert(t, row).unwrap();
        }
        let mut db = loader.build().unwrap();
        let (mut stored, mut rejected) = (0, 0);
        for i in 0..260 {
            let table = TableId(i % 2);
            let c = match next(4) {
                0 => Value::Null,
                k => Value::str(["x", "y", "z"][k as usize - 1]),
            };
            let row = vec![Value::Int(next(300) as i64), Value::Int(next(9) as i64), c];
            let ids: Vec<IndexId> = cat.indexes_on(table).map(|d| d.id).collect();
            let before: Vec<BTreeIndexData> = ids
                .iter()
                .map(|id| db.index(*id).unwrap().clone())
                .collect();
            let len = db.table(table).unwrap().len();
            match db.insert(table, Tuple(row)) {
                Ok(_) => stored += 1,
                Err(StorageError::UniqueViolation { index }) => {
                    assert_eq!(
                        cat.index(index).name,
                        format!("{}_A", cat.table(table).name)
                    );
                    assert_eq!(db.table(table).unwrap().len(), len);
                    for (id, ix) in ids.iter().zip(&before) {
                        assert_eq!(db.index(*id).unwrap(), ix);
                    }
                    rejected += 1;
                    continue;
                }
                Err(e) => panic!("insert {i}: {e}"),
            }
            let data = db.table(table).unwrap();
            assert_eq!(data.len(), len + 1);
            for def in cat.indexes_on(table) {
                let fresh = BTreeIndexData::build(def, data).unwrap();
                assert_eq!(
                    db.index(def.id).unwrap(),
                    &fresh,
                    "insert {i}, {}",
                    def.name
                );
            }
        }
        assert!(
            stored >= 200 && rejected > 0,
            "{stored} stored, {rejected} rejected"
        );
        let keys: Vec<_> = db
            .table(TableId(1))
            .unwrap()
            .scan()
            .map(|(_, r)| r.get(1).clone())
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "S stays in key order"
        );
    }

    #[test]
    fn missing_objects_error() {
        let cat = catalog();
        let db = DatabaseBuilder::new(cat).build().unwrap();
        assert!(db.table(TableId(9)).is_err());
        assert!(db.index(IndexId(9)).is_err());
        assert_eq!(db.actual_card(TableId(9)), 0);
    }

    #[test]
    fn insert_unknown_table_errors() {
        let cat = catalog();
        let mut b = DatabaseBuilder::new(cat);
        assert!(b.insert("NOPE", vec![]).is_err());
    }
}

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

    /// Add one row to a loaded table and rebuild the table's indexes over it
    /// (a unique violation is reported with the row already stored). A heap
    /// takes the row at its end; a B-tree-stored table at its place in key
    /// order, since every plan reads it in that order. The table loses the
    /// integer mirror `build` derived from its rows and is read row by row
    /// from then on. A maintenance path, linear in the table per call: bulk
    /// loading is [`DatabaseBuilder`]'s job.
    pub fn insert(&mut self, table: TableId, row: Tuple) -> Result<Tid> {
        let data = self
            .tables
            .get_mut(&table)
            .ok_or(StorageError::NoSuchTable(table))?;
        let schema = self.catalog.table(table);
        let tid = match &schema.storage {
            StorageKind::BTree { key } => data.insert_in_order(schema, row, key)?,
            StorageKind::Heap => data.insert(schema, row)?,
        };
        for def in self.catalog.indexes_on(table) {
            self.indexes
                .insert(def.id, BTreeIndexData::build(def, data)?);
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
        let schema = self
            .catalog
            .table_by_name(table)
            .map_err(|_| StorageError::NoSuchTable(TableId(u32::MAX)))?;
        self.tables
            .get_mut(&schema.id)
            .ok_or(StorageError::NoSuchTable(schema.id))?
            .insert(schema, Tuple(values))?;
        Ok(())
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

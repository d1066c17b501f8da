//! Turn a generated [`Dataset`] into the program's catalog and database.
//!
//! Split so that the caller can time the program's share (`catalog`,
//! `database`) apart from this benchmark's own (`tuples`).

use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, StorageKind, Value};
use starqo_storage::{Database, DatabaseBuilder, Tuple};

use crate::gen::{Dataset, Storage, FK, ID, P0};

/// Declare every table, column and index, with exact statistics.
pub fn catalog(ds: &Dataset) -> Result<Arc<Catalog>, String> {
    let mut b = Catalog::builder().site("local");
    for t in &ds.tables {
        let storage = match t.storage {
            Storage::Heap => StorageKind::Heap,
            Storage::BTreeOnId => StorageKind::BTree {
                key: vec![ColId(ID as u32)],
            },
        };
        let rows = t.rows as u64;
        b = b
            .table(&t.name, "local", storage, rows)
            .column(t.col_name(ID), DataType::Int, Some(rows))
            .column(t.col_name(FK), DataType::Int, Some(t.fk_domain.min(rows)));
        for (k, &ndv) in t.payload_ndv.iter().enumerate() {
            b = b.column(t.col_name(P0 + k), DataType::Int, Some(ndv.min(rows)));
        }
        if t.fk_index {
            b = b.index(format!("{}_FK", t.name), &t.name, &["FK"], false, false);
        }
    }
    b.build().map(Arc::new).map_err(|e| e.to_string())
}

/// The rows of every table, in insertion order.
pub fn tuples(ds: &Dataset, seed: u64) -> Vec<Vec<Tuple>> {
    (0..ds.tables.len())
        .map(|t| {
            let data = &ds.data[t];
            let ncols = ds.tables[t].ncols();
            ds.insert_order(seed, t)
                .into_iter()
                .map(|r| Tuple((0..ncols).map(|c| Value::Int(data.value(r, c))).collect()))
                .collect()
        })
        .collect()
}

/// Insert the rows and build the indexes.
pub fn database(cat: &Arc<Catalog>, tuples: Vec<Vec<Tuple>>) -> Result<Database, String> {
    let mut b = DatabaseBuilder::new(Arc::clone(cat));
    for (table, rows) in cat.tables().iter().zip(tuples) {
        for row in rows {
            b.insert_id(table.id, row).map_err(|e| e.to_string())?;
        }
    }
    b.build().map_err(|e| e.to_string())
}

#[cfg(test)]
pub fn build(ds: &Dataset, seed: u64) -> Result<(Arc<Catalog>, Database), String> {
    let cat = catalog(ds)?;
    let db = database(&cat, tuples(ds, seed))?;
    Ok((cat, db))
}

//! A shared, versioned catalog for concurrent serving.
//!
//! The optimizer treats the catalog as an immutable snapshot (`Arc<Catalog>`),
//! which is exactly right for one optimization — but a serving layer that
//! caches plans across many optimizations needs to know *which* snapshot a
//! plan was optimized against. [`SharedCatalog`] pairs the current snapshot
//! with a monotonically increasing **epoch**: every mutation (stats refresh,
//! index create/drop) installs a new snapshot and bumps the epoch, so a plan
//! cached under epoch `e` is observably stale the moment the epoch moves.
//! Readers and mutators never block each other for long: reads take a shared
//! lock just long enough to clone an `Arc`, and a mutator builds its
//! successor outside that lock (mutators queue on a lock of their own), then
//! takes it only to swap the `Arc` and bump the epoch.

use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::catalog::Catalog;
use crate::error::Result;

/// The epoch of the initial snapshot.
pub const INITIAL_EPOCH: u64 = 0;

/// A thread-safe, versioned handle to the current catalog snapshot.
#[derive(Debug)]
pub struct SharedCatalog {
    inner: RwLock<(Arc<Catalog>, u64)>,
    /// Held by a mutator from reading the snapshot it copies until its
    /// successor is installed: no update is lost to a concurrent one.
    writer: Mutex<()>,
}

impl SharedCatalog {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        SharedCatalog {
            inner: RwLock::new((catalog, INITIAL_EPOCH)),
            writer: Mutex::new(()),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, (Arc<Catalog>, u64)> {
        // A poisoned lock only means a panic elsewhere; the data (an Arc
        // swap + a counter) is always internally consistent.
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, (Arc<Catalog>, u64)> {
        self.inner.write().unwrap_or_else(|p| p.into_inner())
    }

    /// The current snapshot and its epoch, atomically.
    pub fn snapshot(&self) -> (Arc<Catalog>, u64) {
        let g = self.read();
        (Arc::clone(&g.0), g.1)
    }

    /// The current snapshot.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.read().0)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.read().1
    }

    /// Apply an arbitrary copy-on-write mutation: `f` receives the current
    /// snapshot and returns the successor. On success the new snapshot is
    /// installed and the bumped epoch returned; on error nothing changes.
    /// Readers wait only for the swap, not for `f`.
    pub fn update(&self, f: impl FnOnce(&Catalog) -> Result<Catalog>) -> Result<u64> {
        let _writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        // Declared before the guard, so the old snapshot is freed (if this
        // was its last holder) after the write lock is released.
        let current = self.catalog();
        let next = Arc::new(f(&current)?);
        let mut g = self.write();
        g.0 = next;
        g.1 += 1;
        Ok(g.1)
    }

    /// Replace one table's cardinality statistic (stats refresh).
    pub fn set_table_card(&self, table: &str, card: u64) -> Result<u64> {
        self.update(|c| c.with_table_card(table, card))
    }

    /// Replace one column's distinct-value statistic.
    pub fn set_column_distinct(
        &self,
        table: &str,
        column: &str,
        distinct: Option<u64>,
    ) -> Result<u64> {
        self.update(|c| c.with_column_distinct(table, column, distinct))
    }

    /// Define a new index (DDL).
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        cols: &[&str],
        unique: bool,
        clustered: bool,
    ) -> Result<u64> {
        self.update(|c| c.with_index(name, table, cols, unique, clustered))
    }

    /// Drop an index (DDL).
    pub fn drop_index(&self, name: &str) -> Result<u64> {
        self.update(|c| c.without_index(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::StorageKind;
    use crate::value::DataType;

    fn demo() -> Arc<Catalog> {
        Arc::new(
            Catalog::builder()
                .site("NY")
                .table("DEPT", "NY", StorageKind::Heap, 50)
                .column("DNO", DataType::Int, Some(50))
                .column("MGR", DataType::Str, Some(40))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn mutations_bump_the_epoch_and_swap_the_snapshot() {
        let shared = SharedCatalog::new(demo());
        assert_eq!(shared.epoch(), INITIAL_EPOCH);
        let before = shared.catalog();

        let e1 = shared.set_table_card("DEPT", 5000).unwrap();
        assert_eq!(e1, 1);
        assert_eq!(shared.catalog().table_by_name("DEPT").unwrap().card, 5000);
        // The old snapshot is untouched — optimizations in flight against it
        // stay self-consistent.
        assert_eq!(before.table_by_name("DEPT").unwrap().card, 50);

        let e2 = shared
            .create_index("DEPT_DNO", "DEPT", &["DNO"], true, false)
            .unwrap();
        assert_eq!(e2, 2);
        assert!(shared.catalog().index_by_name("DEPT_DNO").is_ok());

        let e3 = shared.drop_index("DEPT_DNO").unwrap();
        assert_eq!(e3, 3);
        assert!(shared.catalog().index_by_name("DEPT_DNO").is_err());
    }

    #[test]
    fn failed_mutations_leave_epoch_and_snapshot_alone() {
        let shared = SharedCatalog::new(demo());
        assert!(shared.set_table_card("NOPE", 1).is_err());
        assert!(shared.drop_index("NOPE").is_err());
        assert!(shared.set_column_distinct("DEPT", "NOPE", Some(3)).is_err());
        assert_eq!(shared.epoch(), INITIAL_EPOCH);
    }

    #[test]
    fn snapshot_is_atomic() {
        let shared = SharedCatalog::new(demo());
        shared.set_column_distinct("DEPT", "MGR", Some(7)).unwrap();
        let (cat, epoch) = shared.snapshot();
        assert_eq!(epoch, 1);
        let t = cat.table_by_name("DEPT").unwrap();
        assert_eq!(t.column_by_name("MGR").unwrap().1.distinct, Some(7));
    }

    #[test]
    fn index_renumbering_after_drop() {
        let shared = SharedCatalog::new(demo());
        shared
            .create_index("IX_A", "DEPT", &["DNO"], false, false)
            .unwrap();
        shared
            .create_index("IX_B", "DEPT", &["MGR"], false, false)
            .unwrap();
        shared.drop_index("IX_A").unwrap();
        let cat = shared.catalog();
        let b = cat.index_by_name("IX_B").unwrap();
        assert_eq!(b.id.0, 0, "surviving index renumbered to position");
        let tid = cat.table_by_name("DEPT").unwrap().id;
        assert_eq!(cat.indexes_on(tid).count(), 1);
    }

    /// Concurrent mutators each copy the snapshot the last one installed:
    /// every value lands and every bump counts.
    #[test]
    fn concurrent_updates_lose_nothing() {
        let mut b = Catalog::builder().site("NY");
        for t in 0..4 {
            b = b.table(format!("T{t}"), "NY", StorageKind::Heap, 1).column(
                "A",
                DataType::Int,
                None,
            );
        }
        let shared = SharedCatalog::new(Arc::new(b.build().unwrap()));
        let start = shared.epoch();
        std::thread::scope(|s| {
            for t in 0..4 {
                let shared = &shared;
                s.spawn(move || {
                    for card in 1..=50 {
                        shared.set_table_card(&format!("T{t}"), card).unwrap();
                    }
                });
            }
        });
        let cat = shared.catalog();
        for t in 0..4 {
            assert_eq!(cat.table_by_name(&format!("T{t}")).unwrap().card, 50);
        }
        assert_eq!(shared.epoch(), start + 200);
    }

    #[test]
    fn duplicate_index_rejected() {
        let shared = SharedCatalog::new(demo());
        shared
            .create_index("IX", "DEPT", &["DNO"], false, false)
            .unwrap();
        assert!(shared
            .create_index("IX", "DEPT", &["DNO"], false, false)
            .is_err());
        assert_eq!(shared.epoch(), 1);
    }
}

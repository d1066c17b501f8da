//! # starqo-storage
//!
//! The in-memory storage substrate the query evaluator runs against: heap
//! tables organized in pages with tuple identifiers (TIDs), B-tree indexes,
//! and a multi-site database container.
//!
//! The paper's `ACCESS` LOLEPOP "converts a stored table to a stream of
//! tuples"; this crate is what gets accessed. Page structure exists so the
//! evaluator can report honest simulated I/O counts (pages touched), which
//! is what the cost model estimates.
//!
//! A table's rows are `Vec<Tuple>` — what `scan`, `fetch` and `rows_range`
//! hand out, and all the reference evaluator reads. A table loaded by
//! [`DatabaseBuilder::build`] also carries a column-major mirror of its
//! all-integer columns ([`StoredTable::int_column`]): one `i64` slice per
//! such column by row position, which the vectorized executor scans and
//! [`StoredTable::key_range`] compares through. Touching the table drops it.

pub mod btree;
pub mod db;
pub mod error;
pub mod table;
pub mod tuple;

pub use btree::BTreeIndexData;
pub use db::{Database, DatabaseBuilder};
pub use error::{Result, StorageError};
pub use table::{pages_spanned, StoredTable, ROWS_PER_PAGE};
pub use tuple::{Tid, Tuple};

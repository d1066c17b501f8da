//! Table and column schemas with statistics.

use crate::ids::{ColId, SiteId, TableId};
use crate::value::DataType;

/// A column definition with the statistics the cost model needs.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    /// Estimated number of distinct values. `None` means "unknown"; the
    /// selectivity model then falls back to System-R style defaults.
    pub distinct: Option<u64>,
    /// Stored width in bytes (defaults to the type's nominal width).
    pub width: u32,
}

impl Column {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            distinct: None,
            width: data_type.width(),
        }
    }

    pub fn with_distinct(mut self, distinct: u64) -> Self {
        self.distinct = Some(distinct.max(1));
        self
    }
}

/// How a table's primary data is stored — the paper's storage-manager kinds
/// (§4.5.2, [LIND 87]): a physically-sequential heap, or a B-tree keyed on
/// some column list (which then yields tuples in key order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageKind {
    Heap,
    BTree { key: Vec<ColId> },
}

impl StorageKind {
    /// Short name used by rule conditions (`storage_kind(T) == "heap"`).
    pub fn name(&self) -> &'static str {
        match self {
            StorageKind::Heap => "heap",
            StorageKind::BTree { .. } => "btree",
        }
    }
}

/// A stored base table.
#[derive(Debug, Clone)]
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    /// Estimated (catalog) cardinality in tuples.
    pub card: u64,
    /// Site at which the table is stored.
    pub site: SiteId,
    pub storage: StorageKind,
}

impl Table {
    /// Total row width in bytes.
    pub fn row_width(&self) -> u32 {
        self.columns.iter().map(|c| c.width).sum::<u32>().max(1)
    }

    /// Width of a subset of columns, in bytes.
    pub fn cols_width(&self, cols: &[ColId]) -> u32 {
        cols.iter()
            .map(|c| self.column(*c).map(|col| col.width).unwrap_or(8))
            .sum::<u32>()
            .max(1)
    }

    /// Look a column up by position.
    pub fn column(&self, id: ColId) -> Option<&Column> {
        self.columns.get(id.0 as usize)
    }

    /// Look a column up by name (case-insensitive).
    pub fn column_by_name(&self, name: &str) -> Option<(ColId, &Column)> {
        self.columns
            .iter()
            .enumerate()
            .find(|(_, c)| c.name.eq_ignore_ascii_case(name))
            .map(|(i, c)| (ColId(i as u32), c))
    }

    /// Estimated distinct values of a column, with the System-R style default
    /// of `min(card, max(card/10, 1))` when statistics are missing.
    pub fn distinct(&self, col: ColId) -> u64 {
        let default = (self.card / 10).max(1).min(self.card.max(1));
        self.column(col)
            .and_then(|c| c.distinct)
            .unwrap_or(default)
            .max(1)
    }

    /// The native tuple order the storage manager delivers ("unknown unless
    /// the table is known to store tuples in some order", §3.1).
    pub fn native_order(&self) -> &[ColId] {
        match &self.storage {
            StorageKind::Heap => &[],
            StorageKind::BTree { key } => key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dept() -> Table {
        Table {
            id: TableId(0),
            name: "DEPT".into(),
            columns: vec![
                Column::new("DNO", DataType::Int).with_distinct(50),
                Column::new("MGR", DataType::Str),
                Column::new("BUDGET", DataType::Double),
            ],
            card: 50,
            site: SiteId(0),
            storage: StorageKind::Heap,
        }
    }

    #[test]
    fn widths() {
        let t = dept();
        assert_eq!(t.row_width(), 8 + 16 + 8);
        assert_eq!(t.cols_width(&[ColId(0), ColId(1)]), 24);
    }

    #[test]
    fn column_lookup() {
        let t = dept();
        assert_eq!(t.column_by_name("mgr").unwrap().0, ColId(1));
        assert!(t.column_by_name("nope").is_none());
        assert_eq!(t.column(ColId(2)).unwrap().name, "BUDGET");
    }

    #[test]
    fn distinct_defaults() {
        let t = dept();
        assert_eq!(t.distinct(ColId(0)), 50);
        // MGR has no stats: default card/10 = 5.
        assert_eq!(t.distinct(ColId(1)), 5);
    }

    #[test]
    fn native_order_follows_storage() {
        let mut t = dept();
        assert!(t.native_order().is_empty());
        t.storage = StorageKind::BTree {
            key: vec![ColId(0)],
        };
        assert_eq!(t.native_order(), &[ColId(0)]);
        assert_eq!(t.storage.name(), "btree");
    }
}

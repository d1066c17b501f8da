//! The system catalog and its builder.

use std::collections::HashMap;

use crate::error::{CatalogError, Result};
use crate::ids::{ColId, IndexId, SiteId, TableId};
use crate::index::Index;
use crate::schema::{Column, StorageKind, Table};
use crate::site::Site;
use crate::value::DataType;

/// The system catalog: sites, tables, and access paths, with name lookup.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    sites: Vec<Site>,
    tables: Vec<Table>,
    indexes: Vec<Index>,
    table_names: HashMap<String, TableId>,
    index_names: HashMap<String, IndexId>,
    /// Indexes grouped by table, for `indexes_on`.
    by_table: HashMap<TableId, Vec<IndexId>>,
}

impl Catalog {
    pub fn builder() -> CatalogBuilder {
        CatalogBuilder::default()
    }

    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    pub fn site(&self, id: SiteId) -> Option<&Site> {
        self.sites.iter().find(|s| s.id == id)
    }

    pub fn site_name(&self, id: SiteId) -> String {
        self.site(id)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| id.to_string())
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    pub fn table_by_name(&self, name: &str) -> Result<&Table> {
        get_folded(&self.table_names, name)
            .map(|id| self.table(*id))
            .ok_or_else(|| CatalogError::NotFound {
                kind: "table",
                name: name.into(),
            })
    }

    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    #[allow(clippy::should_implement_trait)] // catalog lookup, not ops::Index
    pub fn index(&self, id: IndexId) -> &Index {
        &self.indexes[id.0 as usize]
    }

    pub fn index_by_name(&self, name: &str) -> Result<&Index> {
        get_folded(&self.index_names, name)
            .map(|id| self.index(*id))
            .ok_or_else(|| CatalogError::NotFound {
                kind: "index",
                name: name.into(),
            })
    }

    /// All access paths defined on `table`.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &Index> {
        self.by_table
            .get(&table)
            .into_iter()
            .flatten()
            .map(|id| self.index(*id))
    }

    /// Sites at which any table of the given set is stored.
    pub fn storage_sites(&self, tables: impl IntoIterator<Item = TableId>) -> Vec<SiteId> {
        let mut out: Vec<SiteId> = tables.into_iter().map(|t| self.table(t).site).collect();
        out.sort();
        out.dedup();
        out
    }

    // ---- copy-on-write mutations ------------------------------------
    //
    // A deployed catalog is an immutable snapshot shared by `Arc`; DDL and
    // stats refresh produce a *new* catalog (see [`crate::SharedCatalog`],
    // which pairs these with an epoch counter so plan caches can detect
    // staleness). Each method clones, edits, and returns the edited copy.

    /// A copy of this catalog with `table`'s cardinality replaced.
    pub fn with_table_card(&self, table: &str, card: u64) -> Result<Catalog> {
        let tid = self.table_by_name(table)?.id;
        let mut cat = self.clone();
        cat.tables[tid.0 as usize].card = card;
        Ok(cat)
    }

    /// A copy of this catalog with one column's distinct-value statistic
    /// replaced (`None` resets it to "unknown").
    pub fn with_column_distinct(
        &self,
        table: &str,
        column: &str,
        distinct: Option<u64>,
    ) -> Result<Catalog> {
        let t = self.table_by_name(table)?;
        let (cid, _) = t
            .column_by_name(column)
            .ok_or_else(|| CatalogError::NotFound {
                kind: "column",
                name: format!("{table}.{column}"),
            })?;
        let tid = t.id;
        let mut cat = self.clone();
        cat.tables[tid.0 as usize].columns[cid.0 as usize].distinct = distinct.map(|d| d.max(1));
        Ok(cat)
    }

    /// A copy of this catalog with a new index defined.
    pub fn with_index(
        &self,
        name: &str,
        table: &str,
        cols: &[&str],
        unique: bool,
        clustered: bool,
    ) -> Result<Catalog> {
        let mut cat = self.clone();
        cat.add_index(name.to_ascii_uppercase(), table, cols, unique, clustered)?;
        Ok(cat)
    }

    /// Define index `name` (uppercase) on `table`'s columns `cols`.
    fn add_index(
        &mut self,
        name: String,
        table: &str,
        cols: &[&str],
        unique: bool,
        clustered: bool,
    ) -> Result<()> {
        if self.index_names.contains_key(&name) {
            return Err(CatalogError::Duplicate {
                kind: "index",
                name,
            });
        }
        let t = self.table_by_name(table)?;
        let mut col_ids = Vec::with_capacity(cols.len());
        for c in cols {
            let (cid, _) = t.column_by_name(c).ok_or_else(|| {
                CatalogError::Invalid(format!("index {name}: no column {c} on {table}"))
            })?;
            col_ids.push(cid);
        }
        if col_ids.is_empty() {
            let msg = format!("index {name} has no columns");
            return Err(CatalogError::Invalid(msg));
        }
        let (tid, id) = (t.id, IndexId(self.indexes.len() as u32));
        self.index_names.insert(name.clone(), id);
        self.by_table.entry(tid).or_default().push(id);
        self.indexes.push(Index {
            id,
            name,
            table: tid,
            cols: col_ids,
            unique,
            clustered,
        });
        Ok(())
    }

    /// A copy of this catalog with the named index removed. Surviving
    /// indexes are renumbered (ids are positions, valid only within one
    /// catalog snapshot).
    pub fn without_index(&self, name: &str) -> Result<Catalog> {
        let victim = self.index_by_name(name)?.id;
        let mut cat = self.clone();
        cat.indexes.remove(victim.0 as usize);
        cat.index_names.clear();
        cat.by_table.clear();
        for (pos, ix) in cat.indexes.iter_mut().enumerate() {
            ix.id = IndexId(pos as u32);
            cat.index_names.insert(ix.name.clone(), ix.id);
            cat.by_table.entry(ix.table).or_default().push(ix.id);
        }
        Ok(cat)
    }
}

/// `map[name.to_ascii_uppercase()]` without allocating: catalog names are
/// stored in uppercase, so an uppercase name is looked up as it is and any
/// other is folded into a stack buffer (on the heap only past 64 bytes).
fn get_folded<'m, V>(map: &'m HashMap<String, V>, name: &str) -> Option<&'m V> {
    if !name.bytes().any(|b| b.is_ascii_lowercase()) {
        return map.get(name);
    }
    let mut buf = [0u8; 64];
    let Some(folded) = buf.get_mut(..name.len()) else {
        return map.get(&name.to_ascii_uppercase());
    };
    folded.copy_from_slice(name.as_bytes());
    folded.make_ascii_uppercase();
    map.get(std::str::from_utf8(folded).ok()?)
}

/// Fluent builder for catalogs.
///
/// ```
/// use starqo_catalog::{Catalog, DataType, StorageKind};
/// let cat = Catalog::builder()
///     .site("NY")
///     .table("DEPT", "NY", StorageKind::Heap, 50)
///     .column("DNO", DataType::Int, Some(50))
///     .column("MGR", DataType::Str, Some(40))
///     .index("DEPT_DNO", "DEPT", &["DNO"], true, false)
///     .build()
///     .unwrap();
/// assert_eq!(cat.table_by_name("dept").unwrap().card, 50);
/// ```
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    sites: Vec<Site>,
    tables: Vec<Table>,
    pending_indexes: Vec<(String, String, Vec<String>, bool, bool)>,
}

impl CatalogBuilder {
    /// Register a site; the first site added is the conventional "query site".
    pub fn site(mut self, name: impl Into<String>) -> Self {
        let id = SiteId(self.sites.len() as u16);
        self.sites.push(Site::new(id, name));
        self
    }

    /// Begin a new table stored at `site` (by name) with the given storage
    /// kind and cardinality. Subsequent `column` calls attach to it.
    pub fn table(
        mut self,
        name: impl Into<String>,
        site: &str,
        storage: StorageKind,
        card: u64,
    ) -> Self {
        let site_id = self
            .sites
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(site))
            .map(|s| s.id)
            .unwrap_or(SiteId(0));
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table {
            id,
            name: name.into().to_ascii_uppercase(),
            columns: Vec::new(),
            card,
            site: site_id,
            storage,
        });
        self
    }

    /// Add a column to the most recently declared table.
    pub fn column(mut self, name: impl Into<String>, ty: DataType, distinct: Option<u64>) -> Self {
        if let Some(t) = self.tables.last_mut() {
            let mut c = Column::new(name.into().to_ascii_uppercase(), ty);
            c.distinct = distinct.map(|d| d.max(1));
            t.columns.push(c);
        }
        self
    }

    /// Declare an index by table and column names (resolved at `build`).
    pub fn index(
        mut self,
        name: impl Into<String>,
        table: &str,
        cols: &[&str],
        unique: bool,
        clustered: bool,
    ) -> Self {
        self.pending_indexes.push((
            name.into().to_ascii_uppercase(),
            table.to_ascii_uppercase(),
            cols.iter().map(|c| c.to_ascii_uppercase()).collect(),
            unique,
            clustered,
        ));
        self
    }

    pub fn build(self) -> Result<Catalog> {
        let mut cat = Catalog {
            sites: self.sites,
            tables: self.tables,
            ..Default::default()
        };
        if cat.sites.is_empty() {
            cat.sites.push(Site::new(SiteId(0), "local"));
        }
        for t in &cat.tables {
            if t.columns.is_empty() {
                return Err(CatalogError::Invalid(format!(
                    "table {} has no columns",
                    t.name
                )));
            }
            if cat.table_names.insert(t.name.clone(), t.id).is_some() {
                return Err(CatalogError::Duplicate {
                    kind: "table",
                    name: t.name.clone(),
                });
            }
        }
        for (name, table, cols, unique, clustered) in self.pending_indexes {
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            cat.add_index(name, &table, &cols, unique, clustered)?;
        }
        Ok(cat)
    }
}

/// Resolve a dotted `table.column` name pair against the catalog.
pub fn resolve_column(cat: &Catalog, table: &str, column: &str) -> Result<(TableId, ColId)> {
    let t = cat.table_by_name(table)?;
    let (cid, _) = t
        .column_by_name(column)
        .ok_or_else(|| CatalogError::NotFound {
            kind: "column",
            name: format!("{table}.{column}"),
        })?;
    Ok((t.id, cid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Catalog {
        Catalog::builder()
            .site("NY")
            .site("LA")
            .table("DEPT", "NY", StorageKind::Heap, 50)
            .column("DNO", DataType::Int, Some(50))
            .column("MGR", DataType::Str, Some(40))
            .table("EMP", "LA", StorageKind::Heap, 10_000)
            .column("ENO", DataType::Int, Some(10_000))
            .column("NAME", DataType::Str, None)
            .column("DNO", DataType::Int, Some(50))
            .index("EMP_DNO", "EMP", &["DNO"], false, false)
            .index("EMP_ENO", "EMP", &["ENO"], true, true)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_resolves() {
        let cat = demo();
        assert_eq!(cat.tables().len(), 2);
        assert_eq!(cat.sites().len(), 2);
        let emp = cat.table_by_name("EMP").unwrap();
        assert_eq!(emp.site, SiteId(1));
        assert_eq!(cat.indexes_on(emp.id).count(), 2);
        let dept = cat.table_by_name("dept").unwrap();
        assert_eq!(cat.indexes_on(dept.id).count(), 0);
    }

    #[test]
    fn names_resolve_in_any_case() {
        let long = "T".repeat(70);
        let cat = Catalog::builder()
            .table("DEPT", "x", StorageKind::Heap, 1)
            .column("A", DataType::Int, None)
            .table(long.to_lowercase(), "x", StorageKind::Heap, 1)
            .column("A", DataType::Int, None)
            .index("Dept_A", "dept", &["a"], false, false)
            .build()
            .unwrap();
        for name in ["DEPT", "dept", "DePt"] {
            assert_eq!(cat.table_by_name(name).unwrap().id, TableId(0));
        }
        // Past the 64-byte stack buffer the name is folded on the heap.
        assert_eq!(cat.table_by_name(&long).unwrap().id, TableId(1));
        assert_eq!(
            cat.table_by_name(&long.to_lowercase()).unwrap().id,
            TableId(1)
        );
        assert!(cat.table_by_name("DEP").is_err());
        assert!(cat.table_by_name("d\u{e9}pt").is_err());
        assert_eq!(cat.index_by_name("dept_a").unwrap().id, IndexId(0));
    }

    #[test]
    fn resolve_column_names() {
        let cat = demo();
        let (t, c) = resolve_column(&cat, "emp", "dno").unwrap();
        assert_eq!(t, TableId(1));
        assert_eq!(c, ColId(2));
        assert!(resolve_column(&cat, "emp", "nope").is_err());
        assert!(resolve_column(&cat, "nope", "dno").is_err());
    }

    #[test]
    fn storage_sites_dedup() {
        let cat = demo();
        let sites = cat.storage_sites([TableId(0), TableId(1), TableId(0)]);
        assert_eq!(sites, vec![SiteId(0), SiteId(1)]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let err = Catalog::builder()
            .table("T", "x", StorageKind::Heap, 1)
            .column("A", DataType::Int, None)
            .table("T", "x", StorageKind::Heap, 1)
            .column("A", DataType::Int, None)
            .build()
            .unwrap_err();
        assert!(matches!(err, CatalogError::Duplicate { .. }));
    }

    #[test]
    fn index_on_missing_column_rejected() {
        let err = Catalog::builder()
            .table("T", "x", StorageKind::Heap, 1)
            .column("A", DataType::Int, None)
            .index("IX", "T", &["B"], false, false)
            .build()
            .unwrap_err();
        assert!(matches!(err, CatalogError::Invalid(_)));
    }

    #[test]
    fn empty_catalog_gets_default_site() {
        let cat = Catalog::builder().build().unwrap();
        assert_eq!(cat.sites().len(), 1);
        assert_eq!(cat.site_name(SiteId(0)), "local");
    }
}

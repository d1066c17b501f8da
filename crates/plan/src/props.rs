//! The property vector (§3.1, Figure 2).
//!
//! > Every table (either base table or result of a plan) has a set of
//! > *properties* that summarize the work done on the table thus far.
//!
//! Relational properties say WHAT the stream contains (TABLES, COLS, PREDS);
//! physical properties say HOW it is delivered (ORDER, SITE, TEMP, PATHS);
//! estimated properties say HOW MUCH (CARD, COST).

use starqo_catalog::{IndexId, SiteId};
pub use starqo_query::ColSet;
use starqo_query::{PredSet, QCol, QSet, Shared};

/// Where an access path came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathSource {
    /// Declared in the catalog.
    Catalog(IndexId),
    /// Created dynamically by Glue on a temp (§4.5.3).
    Dynamic,
}

/// One element of the PATHS property: "an ordered list of columns"
/// (Figure 2) together with its provenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AvailPath {
    pub key: Shared<QCol>,
    pub source: PathSource,
    pub clustered: bool,
}

impl AvailPath {
    /// The paper's `order ⊑ a` test: the required columns are a prefix of
    /// this path's key.
    pub fn covers_prefix(&self, required: &[QCol]) -> bool {
        required.len() <= self.key.len() && self.key.iter().zip(required).all(|(a, b)| a == b)
    }
}

/// Per-resource attribution of a cost figure — the paper's "linear
/// combination of I/O, CPU, and communications costs" kept un-summed, so
/// EXPLAIN and trace events can show *where* a plan spends. `other` holds
/// contributions built through the legacy scalar [`Cost::new`] constructor
/// (e.g. extension property functions) that don't attribute themselves.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostComponents {
    pub io: f64,
    pub cpu: f64,
    pub comm: f64,
    pub other: f64,
}

impl CostComponents {
    pub const ZERO: CostComponents = CostComponents {
        io: 0.0,
        cpu: 0.0,
        comm: 0.0,
        other: 0.0,
    };

    pub fn io(v: f64) -> Self {
        CostComponents {
            io: v,
            ..CostComponents::ZERO
        }
    }

    pub fn cpu(v: f64) -> Self {
        CostComponents {
            cpu: v,
            ..CostComponents::ZERO
        }
    }

    pub fn comm(v: f64) -> Self {
        CostComponents {
            comm: v,
            ..CostComponents::ZERO
        }
    }

    pub fn other(v: f64) -> Self {
        CostComponents {
            other: v,
            ..CostComponents::ZERO
        }
    }

    pub fn total(&self) -> f64 {
        self.io + self.cpu + self.comm + self.other
    }
}

impl std::ops::Add for CostComponents {
    type Output = CostComponents;
    fn add(self, r: CostComponents) -> CostComponents {
        CostComponents {
            io: self.io + r.io,
            cpu: self.cpu + r.cpu,
            comm: self.comm + r.comm,
            other: self.other + r.other,
        }
    }
}

impl std::ops::Mul<f64> for CostComponents {
    type Output = CostComponents;
    fn mul(self, k: f64) -> CostComponents {
        CostComponents {
            io: self.io * k,
            cpu: self.cpu * k,
            comm: self.comm * k,
            other: self.other * k,
        }
    }
}

/// Estimated cost, split into one-time and per-scan work.
///
/// The split is what makes the §4.5.2 (materialized inner) and §4.5.3
/// (dynamic index) alternatives costable: a nested-loop join pays its
/// inner's `rescan` once *per outer tuple* but its `once` only once.
/// Both components are already the paper's "linear combination of I/O, CPU,
/// and communications costs"; `once_by`/`rescan_by` carry that combination
/// un-summed (the scalar fields stay the single source of truth for plan
/// comparison — `once == once_by.total()` up to float rounding).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    pub once: f64,
    pub rescan: f64,
    pub once_by: CostComponents,
    pub rescan_by: CostComponents,
}

impl Cost {
    pub const ZERO: Cost = Cost {
        once: 0.0,
        rescan: 0.0,
        once_by: CostComponents::ZERO,
        rescan_by: CostComponents::ZERO,
    };

    /// Scalar constructor: attribution lands in the `other` bucket.
    pub fn new(once: f64, rescan: f64) -> Self {
        Cost {
            once,
            rescan,
            once_by: CostComponents::other(once),
            rescan_by: CostComponents::other(rescan),
        }
    }

    /// Component-attributed constructor; the scalar fields are the sums.
    pub fn from_parts(once_by: CostComponents, rescan_by: CostComponents) -> Self {
        Cost {
            once: once_by.total(),
            rescan: rescan_by.total(),
            once_by,
            rescan_by,
        }
    }

    /// Total cost of producing the stream a single time.
    pub fn total(&self) -> f64 {
        self.once + self.rescan
    }

    /// Combined attribution across both phases.
    pub fn breakdown(&self) -> CostComponents {
        self.once_by + self.rescan_by
    }
}

/// The full property vector of a plan (or of a stored table before any
/// operator touches it).
///
/// §5: "the default action of any LOLEPOP on any property is to leave the
/// input property unchanged" — property functions start from a clone of the
/// input vector and modify only what their operator changes. COLS, ORDER
/// and PATHS are shared slices, so that clone copies no column.
#[derive(Debug, Clone, PartialEq)]
pub struct Props {
    // Relational (WHAT)
    /// Set of tables (quantifiers) accessed.
    pub tables: QSet,
    /// Set of columns accessed.
    pub cols: ColSet,
    /// Set of predicates applied so far.
    pub preds: PredSet,
    // Physical (HOW)
    /// Ordering of tuples: an ordered list of columns; empty = unknown.
    pub order: Shared<QCol>,
    /// Site to which tuples are delivered.
    pub site: SiteId,
    /// True if materialized in a temporary table.
    pub temp: bool,
    /// Available access paths on the (set of) tables.
    pub paths: Shared<AvailPath>,
    // Estimated (HOW MUCH)
    /// Estimated number of tuples resulting.
    pub card: f64,
    /// Estimated cost (total resources).
    pub cost: Cost,
}

impl Props {
    /// A blank vector for building up from scratch.
    pub fn empty(site: SiteId) -> Self {
        Props {
            tables: QSet::EMPTY,
            cols: ColSet::new(),
            preds: PredSet::EMPTY,
            order: Shared::EMPTY,
            site,
            temp: false,
            paths: Shared::EMPTY,
            card: 0.0,
            cost: Cost::ZERO,
        }
    }

    /// Does the stream's order satisfy a required order? (The required list
    /// must be a prefix of the actual order.)
    pub fn order_satisfies(&self, required: &[QCol]) -> bool {
        required.len() <= self.order.len() && self.order.iter().zip(required).all(|(a, b)| a == b)
    }

    /// Find an available path whose key starts with the given columns.
    pub fn path_with_prefix(&self, required: &[QCol]) -> Option<&AvailPath> {
        self.paths.iter().find(|p| p.covers_prefix(required))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::ColId;
    use starqo_query::QId;

    fn qc(q: u32, c: u32) -> QCol {
        QCol::new(QId(q), ColId(c))
    }

    #[test]
    fn cost_totals() {
        let c = Cost::new(10.0, 5.0);
        assert_eq!(c.total(), 15.0);
        assert_eq!(Cost::ZERO.total(), 0.0);
        // Scalar construction attributes to `other`.
        assert_eq!(c.breakdown().other, 15.0);
        assert_eq!(c.breakdown().io, 0.0);
    }

    #[test]
    fn cost_components_attribute_and_sum() {
        let by = CostComponents::io(3.0) + CostComponents::cpu(1.0) + CostComponents::comm(0.5);
        let c = Cost::from_parts(by, CostComponents::cpu(2.0) * 3.0);
        assert_eq!(c.once, 4.5);
        assert_eq!(c.rescan, 6.0);
        assert_eq!(c.once_by.io, 3.0);
        assert_eq!(c.rescan_by.cpu, 6.0);
        assert!((c.breakdown().total() - c.total()).abs() < 1e-12);
    }

    #[test]
    fn order_prefix_satisfaction() {
        let mut p = Props::empty(SiteId(0));
        p.order = vec![qc(0, 1), qc(0, 2)].into();
        assert!(p.order_satisfies(&[]));
        assert!(p.order_satisfies(&[qc(0, 1)]));
        assert!(p.order_satisfies(&[qc(0, 1), qc(0, 2)]));
        assert!(!p.order_satisfies(&[qc(0, 2)]));
        assert!(!p.order_satisfies(&[qc(0, 1), qc(0, 2), qc(0, 3)]));
    }

    #[test]
    fn path_prefix_lookup() {
        let mut p = Props::empty(SiteId(0));
        p.paths = vec![AvailPath {
            key: vec![qc(0, 3), qc(0, 1)].into(),
            source: PathSource::Dynamic,
            clustered: false,
        }]
        .into();
        assert!(p.path_with_prefix(&[qc(0, 3)]).is_some());
        assert!(p.path_with_prefix(&[qc(0, 3), qc(0, 1)]).is_some());
        assert!(p.path_with_prefix(&[qc(0, 1)]).is_none());
        assert!(p.path_with_prefix(&[]).is_some());
    }
}

//! LOw-LEvel Plan OPerators (§2.1).
//!
//! > Each LOLEPOP is viewed as a function that operates on 1 or 2 tables,
//! > which are parameters to that function, and produces a single table as
//! > output. [...] Parameters may also specify a *flavor* of LOLEPOP.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use starqo_catalog::{IndexId, SiteId, Value};
use starqo_query::{PredSet, QCol, QId, Shared};

use crate::props::ColSet;

/// What an `ACCESS` reads. Base flavors read catalog objects; temp flavors
/// read the materialization produced by their plan input (`STORE` or
/// `BUILD_INDEX`), which is how the paper's `TableAccess(Glue(T2[temp], IP),
/// *, JP)` re-accesses a temp (§4.5.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AccessSpec {
    /// Physically-sequential scan of a heap-stored base table.
    HeapTable(QId),
    /// B-tree storage-manager scan of a base table (delivers key order).
    BTreeTable(QId),
    /// Scan/probe of a catalog index; the output stream carries the TID
    /// pseudo-column plus the index key columns.
    Index { index: IndexId, q: QId },
    /// Re-access of a stored temp (input 0 is the `STORE` node).
    TempHeap,
    /// Probe of a dynamically built index on a temp (input 0 is the
    /// `BUILD_INDEX` node).
    TempIndex { key: Vec<QCol> },
}

impl AccessSpec {
    pub fn flavor_name(&self) -> &'static str {
        match self {
            AccessSpec::HeapTable(_) => "heap",
            AccessSpec::BTreeTable(_) => "btree",
            AccessSpec::Index { .. } => "index",
            AccessSpec::TempHeap => "temp",
            AccessSpec::TempIndex { .. } => "temp-index",
        }
    }

    /// Number of plan inputs this access takes.
    pub fn arity(&self) -> usize {
        match self {
            AccessSpec::TempHeap | AccessSpec::TempIndex { .. } => 1,
            _ => 0,
        }
    }
}

/// Join method flavors (§4.4, §4.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinFlavor {
    /// Nested-loop: "can always be done"; join predicates are pushed into
    /// the inner by sideways information passing.
    NL,
    /// Sort-merge: requires both inputs ordered on the sortable-predicate
    /// columns.
    MG,
    /// Hash: bucketizes both inputs; hashable predicates checked as
    /// residuals because of possible collisions.
    HA,
}

impl JoinFlavor {
    pub fn name(&self) -> &'static str {
        match self {
            JoinFlavor::NL => "NL",
            JoinFlavor::MG => "MG",
            JoinFlavor::HA => "HA",
        }
    }
}

/// A parameter value for an extension LOLEPOP (§5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExtArg {
    Int(i64),
    Str(Arc<str>),
    Const(Value),
    Cols(Vec<QCol>),
    Preds(PredSet),
    Site(SiteId),
}

/// The LOLEPOP algebra.
///
/// Plan inputs are carried by [`crate::node::PlanNode`], not here; this enum
/// holds only the non-table parameters ("In addition to input tables, a
/// LOLEPOP may have other parameters that control its operation").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Lolepop {
    /// Convert a stored object into a stream, optionally projecting `cols`
    /// and applying `preds` ("relational select/project" options of §3.1).
    Access {
        spec: AccessSpec,
        cols: ColSet,
        preds: PredSet,
    },
    /// Dereference TIDs from the input stream against table `q`, fetching
    /// `cols` and applying `preds` (Figure 1's GET).
    Get {
        q: QId,
        cols: ColSet,
        preds: PredSet,
    },
    /// Sort the input into `key` order: the very list the output's ORDER
    /// property (and a Glue requirement that asked for it) shares.
    Sort { key: Shared<QCol> },
    /// Deliver the input stream at another site.
    Ship { to: SiteId },
    /// Materialize the input as a temporary stored table.
    Store,
    /// Build an index with key `key` on a stored temp (input must be a
    /// `STORE`); makes a Dynamic path available (§4.5.3).
    BuildIndex { key: Vec<QCol> },
    /// Apply residual predicates to a stream.
    Filter { preds: PredSet },
    /// Join two streams. `join_preds` are applied by the method itself (and
    /// drive its cost equations); `residual` preds are applied afterwards.
    Join {
        flavor: JoinFlavor,
        join_preds: PredSet,
        residual: PredSet,
    },
    /// Concatenate two union-compatible streams.
    Union,
    /// A dynamically registered extension operator (§5). Its property
    /// function and run-time routine live in registries.
    Ext {
        name: Arc<str>,
        args: Vec<ExtArg>,
        arity: usize,
    },
}

impl Lolepop {
    /// The operator's display name (flavors included).
    pub fn name(&self) -> String {
        match self {
            Lolepop::Access { spec, .. } => format!("ACCESS({})", spec.flavor_name()),
            Lolepop::Get { .. } => "GET".into(),
            Lolepop::Sort { .. } => "SORT".into(),
            Lolepop::Ship { .. } => "SHIP".into(),
            Lolepop::Store => "STORE".into(),
            Lolepop::BuildIndex { .. } => "BUILD_INDEX".into(),
            Lolepop::Filter { .. } => "FILTER".into(),
            Lolepop::Join { flavor, .. } => format!("JOIN({})", flavor.name()),
            Lolepop::Union => "UNION".into(),
            Lolepop::Ext { name, .. } => name.to_string(),
        }
    }

    /// Number of plan inputs the operator requires.
    pub fn arity(&self) -> usize {
        match self {
            Lolepop::Access { spec, .. } => spec.arity(),
            Lolepop::Get { .. }
            | Lolepop::Sort { .. }
            | Lolepop::Ship { .. }
            | Lolepop::Store
            | Lolepop::BuildIndex { .. }
            | Lolepop::Filter { .. } => 1,
            Lolepop::Join { .. } | Lolepop::Union => 2,
            Lolepop::Ext { arity, .. } => *arity,
        }
    }

    /// Stable hash of the operator and its parameters, mixed into plan
    /// fingerprints for duplicate elimination.
    pub fn param_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for Lolepop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::ColId;

    #[test]
    fn arities() {
        let cs = ColSet::new();
        assert_eq!(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(QId(0)),
                cols: cs.clone(),
                preds: PredSet::EMPTY
            }
            .arity(),
            0
        );
        assert_eq!(
            Lolepop::Access {
                spec: AccessSpec::TempHeap,
                cols: cs.clone(),
                preds: PredSet::EMPTY
            }
            .arity(),
            1
        );
        assert_eq!(Lolepop::Store.arity(), 1);
        assert_eq!(Lolepop::Union.arity(), 2);
        assert_eq!(
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                join_preds: PredSet::EMPTY,
                residual: PredSet::EMPTY
            }
            .arity(),
            2
        );
        assert_eq!(
            Lolepop::Ext {
                name: Arc::from("OUTERJOIN"),
                args: vec![],
                arity: 2
            }
            .arity(),
            2
        );
    }

    #[test]
    fn names_show_flavors() {
        let j = Lolepop::Join {
            flavor: JoinFlavor::MG,
            join_preds: PredSet::EMPTY,
            residual: PredSet::EMPTY,
        };
        assert_eq!(j.name(), "JOIN(MG)");
        let a = Lolepop::Access {
            spec: AccessSpec::Index {
                index: IndexId(0),
                q: QId(1),
            },
            cols: ColSet::new(),
            preds: PredSet::EMPTY,
        };
        assert_eq!(a.name(), "ACCESS(index)");
        assert_eq!(a.to_string(), "ACCESS(index)");
    }

    #[test]
    fn param_hash_distinguishes_parameters() {
        let s1 = Lolepop::Sort {
            key: vec![QCol::new(QId(0), ColId(0))].into(),
        };
        let s2 = Lolepop::Sort {
            key: vec![QCol::new(QId(0), ColId(1))].into(),
        };
        assert_ne!(s1.param_hash(), s2.param_hash());
        assert_eq!(s1.param_hash(), s1.clone().param_hash());
    }
}

//! Plan nodes: immutable, shared operator DAGs.
//!
//! A query evaluation plan is "a directed graph of LOLEPOPs" (§2.1).
//! Subplans are shared via `Arc` — "alternative plans may incorporate the
//! same plan fragment, whose alternatives need be evaluated only once" —
//! and each node carries a structural fingerprint so duplicate plans can be
//! recognized cheaply.

use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::lolepop::Lolepop;
use crate::props::Props;

/// Shared reference to a plan node.
pub type PlanRef = Arc<PlanNode>;

/// A node's table inputs, read as a slice. Every built-in LOLEPOP takes at
/// most two, which live in the node itself; only an extension operator of
/// higher arity pays for a vector (a leaf's empty one allocates nothing).
#[derive(Debug)]
pub enum Inputs {
    One([PlanRef; 1]),
    Two([PlanRef; 2]),
    Rest(Vec<PlanRef>),
}

impl Deref for Inputs {
    type Target = [PlanRef];
    fn deref(&self) -> &[PlanRef] {
        match self {
            Inputs::One(a) => a,
            Inputs::Two(a) => a,
            Inputs::Rest(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a Inputs {
    type Item = &'a PlanRef;
    type IntoIter = std::slice::Iter<'a, PlanRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<PlanRef>> for Inputs {
    fn from(v: Vec<PlanRef>) -> Self {
        match <[PlanRef; 1]>::try_from(v) {
            Ok(one) => Inputs::One(one),
            Err(v) => <[PlanRef; 2]>::try_from(v).map_or_else(Inputs::Rest, Inputs::Two),
        }
    }
}

/// One LOLEPOP application: the operator, its table inputs, and the derived
/// property vector of its output stream.
#[derive(Debug)]
pub struct PlanNode {
    pub op: Lolepop,
    pub inputs: Inputs,
    pub props: Props,
    fingerprint: u64,
}

impl PlanNode {
    /// Construct a node with the given (already derived) properties.
    /// Use [`crate::propfn::PropEngine::build`] to derive properties and
    /// validate legality; this constructor only computes the fingerprint.
    pub fn with_props(op: Lolepop, inputs: impl Into<Inputs>, props: Props) -> PlanRef {
        let inputs = inputs.into();
        let fingerprint = Self::fingerprint_of(&op, inputs.iter().map(|i| i.fingerprint));
        Arc::new(PlanNode {
            op,
            inputs,
            props,
            fingerprint,
        })
    }

    /// Structural fingerprint: operator parameters + input fingerprints.
    /// Two plans with equal fingerprints are the same operator tree.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint of `op` applied to inputs with these fingerprints —
    /// for a plan held somewhere other than a `PlanNode`.
    pub fn fingerprint_of(op: &Lolepop, inputs: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        op.param_hash().hash(&mut h);
        for fingerprint in inputs {
            fingerprint.hash(&mut h);
        }
        h.finish()
    }

    /// Total number of operators in the tree (shared nodes counted once per
    /// occurrence).
    pub fn op_count(&self) -> usize {
        1 + self.inputs.iter().map(|i| i.op_count()).sum::<usize>()
    }

    /// Depth of the operator tree.
    pub fn depth(&self) -> usize {
        1 + self.inputs.iter().map(|i| i.depth()).max().unwrap_or(0)
    }

    /// Pre-order visit of all nodes.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode)) {
        f(self);
        for i in self.inputs.iter() {
            i.visit(f);
        }
    }

    /// Pre-order traversal carrying each node's depth (root = 0). Depth
    /// disambiguates tree shape when structurally identical subtrees (equal
    /// fingerprints) occur more than once.
    pub fn visit_depth<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode, usize)) {
        fn walk<'a>(n: &'a PlanNode, depth: usize, f: &mut impl FnMut(&'a PlanNode, usize)) {
            f(n, depth);
            for i in n.inputs.iter() {
                walk(i, depth + 1, f);
            }
        }
        walk(self, 0, f)
    }

    /// Collect operator names in pre-order (handy in tests).
    pub fn op_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |n| out.push(n.op.name()));
        out
    }

    /// Does any node in the tree satisfy the predicate?
    pub fn any(&self, f: &impl Fn(&PlanNode) -> bool) -> bool {
        if f(self) {
            return true;
        }
        self.inputs.iter().any(|i| i.any(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::ColSet;
    use starqo_catalog::SiteId;
    use starqo_query::{PredSet, QId};

    fn leaf(q: u32) -> PlanRef {
        PlanNode::with_props(
            Lolepop::Access {
                spec: crate::lolepop::AccessSpec::HeapTable(QId(q)),
                cols: ColSet::new(),
                preds: PredSet::EMPTY,
            },
            vec![],
            Props::empty(SiteId(0)),
        )
    }

    #[test]
    fn fingerprints_structural() {
        let a = leaf(0);
        let a2 = leaf(0);
        let b = leaf(1);
        assert_eq!(a.fingerprint(), a2.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let s1 = PlanNode::with_props(Lolepop::Store, vec![a.clone()], Props::empty(SiteId(0)));
        let s2 = PlanNode::with_props(Lolepop::Store, vec![a2], Props::empty(SiteId(0)));
        let s3 = PlanNode::with_props(Lolepop::Store, vec![b], Props::empty(SiteId(0)));
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        assert_ne!(s1.fingerprint(), s3.fingerprint());
        assert_ne!(s1.fingerprint(), a.fingerprint());
    }

    #[test]
    fn counts_and_visit() {
        let a = leaf(0);
        let s = PlanNode::with_props(Lolepop::Store, vec![a.clone()], Props::empty(SiteId(0)));
        let u = PlanNode::with_props(Lolepop::Union, vec![s.clone(), a], Props::empty(SiteId(0)));
        assert_eq!(u.op_count(), 4); // the shared leaf occurs twice
        assert_eq!(u.depth(), 3);
        assert_eq!(
            u.op_names(),
            vec!["UNION", "STORE", "ACCESS(heap)", "ACCESS(heap)"]
        );
        assert!(u.any(&|n| matches!(n.op, Lolepop::Store)));
        assert!(!u.any(&|n| matches!(n.op, Lolepop::Union) && n.inputs.is_empty()));
    }
}

//! The run's store: every plan node an optimization builds and every SAP it
//! hands around, owned by the engine for the length of the run.
//!
//! A node is built once, into the store, and named by its [`PlanId`]
//! everywhere else — in SAPs, the memo, the Glue cache, the plan table and
//! LOLEPOP arguments — so handing a plan on copies four bytes, and a SAP
//! ([`Sap`]) is a range of the store's id chunks. The requirement vectors
//! streams accumulate (§3.2) live here too. Only what leaves the run is made
//! into `PlanRef` DAGs ([`RunStore::materialize`]): one `Arc<PlanNode>` per
//! entry reached, so every subplan the run shared stays shared (both
//! executors key temps by node address). Provenance is per entry too (a
//! label id, [`RunStore::label`]); it becomes strings only for the nodes
//! that leave the run.
//!
//! Entries live in chunks allocated at their final size: an entry never
//! moves, the store is freed as a handful of blocks when the run ends, and
//! no block reaches glibc's 128 KiB mmap threshold (a freed mmap'd block goes
//! back to the kernel and is faulted in again by the next run).

use std::ops::Index;
use std::sync::Arc;

use starqo_plan::{Inputs, Lolepop, PlanNode, PlanRef, Props};
use starqo_query::QSet;

use crate::hash::RunMap;
use crate::value::{ReqVec, StreamRef};

/// Plan nodes per chunk (a node is under 300 bytes).
const NODES: usize = 128;
/// Plan ids per chunk (16 KiB).
const IDS: usize = 4096;
/// Requirement vectors per chunk (14 KiB).
const REQS: usize = 256;

/// Entries in chunks of `N`, each allocated at its final size: an entry
/// never moves, and is named by its index.
struct Chunks<T, const N: usize>(Vec<Vec<T>>);

impl<T, const N: usize> Default for Chunks<T, N> {
    fn default() -> Self {
        Chunks(Vec::new())
    }
}

impl<T, const N: usize> Chunks<T, N> {
    fn push(&mut self, entry: T) -> u32 {
        if self.0.last().is_none_or(|chunk| chunk.len() == N) {
            self.0.push(Vec::with_capacity(N));
        }
        let last = self.0.len() - 1;
        self.0[last].push(entry);
        (last * N + self.0[last].len() - 1) as u32
    }

    fn get(&self, at: u32) -> &T {
        let at = at as usize;
        &self.0[at / N][at % N]
    }

    fn get_mut(&mut self, at: u32) -> &mut T {
        let at = at as usize;
        &mut self.0[at / N][at % N]
    }
}

/// A plan node of the run: its index in the [`RunStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(u32);

/// A Set of Alternative Plans (§2.2) — or a node's inputs: `len` plan ids
/// from `at` in one of the store's id chunks. Handing a SAP on — to the
/// memo, to a referencing STAR, to a LOLEPOP argument — copies these twelve
/// bytes; the default is the SAP of no plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sap {
    chunk: u32,
    at: u32,
    len: u32,
}

impl Sap {
    pub fn len(self) -> usize {
        self.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One LOLEPOP application of the run: the operator, its input plans
/// (`store.sap(plan.inputs)`), the derived property vector of its output,
/// and the structural fingerprint `PlanNode::with_props` gives the same
/// node. The store hands out only shared references to it.
#[derive(Debug)]
pub struct Plan {
    pub op: Lolepop,
    pub inputs: Sap,
    pub props: Props,
    pub fingerprint: u64,
    /// Its first label ([`RunStore::label`]).
    origin: Option<Origin>,
}

/// When an entry was first labeled (the store's count of labels handed
/// out before it), then the label id: ordered by the former.
pub(crate) type Origin = (u32, u32);

/// The store (see the module documentation).
#[derive(Default)]
pub struct RunStore {
    nodes: Chunks<Plan, NODES>,
    ids: Vec<Vec<PlanId>>,
    reqs: Chunks<ReqVec, REQS>,
    /// Labels handed out so far ([`RunStore::label`]).
    labeled: u32,
}

static NO_REQS: ReqVec = ReqVec {
    order: None,
    site: None,
    temp: false,
    paths: None,
};

impl RunStore {
    /// Store a node whose properties are already derived.
    pub fn add(&mut self, op: Lolepop, inputs: &[PlanId], props: Props) -> PlanId {
        let fps = inputs.iter().map(|&i| self[i].fingerprint);
        let fingerprint = PlanNode::fingerprint_of(&op, fps);
        let plan = Plan {
            op,
            inputs: self.add_sap(inputs),
            props,
            fingerprint,
            origin: None,
        };
        PlanId(self.nodes.push(plan))
    }

    /// Record that the rule labeled `label` (an id into `RuleSet::labels`)
    /// produced entry `id`, unless an earlier producer already did.
    pub(crate) fn label(&mut self, id: PlanId, label: u32) {
        let origin = &mut self.nodes.get_mut(id.0).origin;
        if origin.is_none() {
            *origin = Some((self.labeled, label));
            self.labeled += 1;
        }
    }

    /// The first label any entry of each of `fingerprints` got — its order
    /// and label id, `None` if no rule produced one — whichever of a
    /// fingerprint's entries the caller holds.
    pub(crate) fn origins(
        &self,
        fingerprints: impl Iterator<Item = u64>,
    ) -> RunMap<u64, Option<Origin>> {
        let mut first: RunMap<u64, Option<Origin>> = fingerprints.map(|fp| (fp, None)).collect();
        let labeled = self.nodes.0.iter().flatten();
        for (fp, origin) in labeled.filter_map(|p| Some((p.fingerprint, p.origin?))) {
            if let Some(slot) = first.get_mut(&fp) {
                *slot = Some(slot.map_or(origin, |earlier| earlier.min(origin)));
            }
        }
        first
    }

    /// The plans of a SAP.
    pub fn sap(&self, sap: Sap) -> &[PlanId] {
        if sap.len == 0 {
            return &[];
        }
        let at = sap.at as usize;
        &self.ids[sap.chunk as usize][at..at + sap.len as usize]
    }

    /// Copy plan ids into a new SAP: the only place plan ids are stored.
    pub fn add_sap(&mut self, plans: &[PlanId]) -> Sap {
        if plans.is_empty() {
            return Sap::default();
        }
        let fits = self
            .ids
            .last()
            .is_some_and(|c| c.capacity() - c.len() >= plans.len());
        if !fits {
            self.ids.push(Vec::with_capacity(IDS.max(plans.len())));
        }
        let chunk = self.ids.len() - 1;
        let ids = &mut self.ids[chunk];
        let at = ids.len();
        ids.extend_from_slice(plans);
        Sap {
            chunk: chunk as u32,
            at: at as u32,
            len: plans.len() as u32,
        }
    }

    /// Do two SAPs hold the same plans, fingerprint by fingerprint?
    pub fn same_plans(&self, a: Sap, b: Sap) -> bool {
        let same = |(&x, &y): (&PlanId, &PlanId)| self[x].fingerprint == self[y].fingerprint;
        a == b || (a.len == b.len && self.sap(a).iter().zip(self.sap(b)).all(same))
    }

    /// The requirements accumulated on a stream.
    pub fn reqs(&self, stream: &StreamRef) -> &ReqVec {
        match stream.reqs {
            0 => &NO_REQS,
            at => self.reqs.get(at - 1),
        }
    }

    /// A stream over `tables` carrying `reqs`.
    pub fn stream(&mut self, tables: QSet, reqs: ReqVec) -> StreamRef {
        if reqs.is_empty() {
            return StreamRef::new(tables);
        }
        let reqs = self.reqs.push(reqs) + 1;
        StreamRef { tables, reqs }
    }

    /// Same tables, same requirements?
    pub fn same_stream(&self, a: &StreamRef, b: &StreamRef) -> bool {
        a.tables == b.tables && (a.reqs == b.reqs || self.reqs(a) == self.reqs(b))
    }

    /// The `PlanRef` DAGs of `roots` — one `Arc<PlanNode>` per entry
    /// reached, shared by every root and every input that names it — and
    /// their provenance: each node's fingerprint mapped to the label
    /// (`labels[id]`) of its first producer, if a rule produced it.
    pub fn materialize(
        &self,
        roots: impl IntoIterator<Item = PlanId>,
        labels: &[Arc<str>],
    ) -> (Vec<PlanRef>, RunMap<u64, Arc<str>>) {
        let mut made = RunMap::default();
        let plans = roots.into_iter().map(|id| self.make(id, &mut made));
        let plans = plans.collect();
        let origins = self.origins(made.values().map(|n| n.fingerprint()));
        let label = |(fp, origin): (u64, Option<Origin>)| {
            Some((fp, Arc::clone(&labels[origin?.1 as usize])))
        };
        (plans, origins.into_iter().filter_map(label).collect())
    }

    fn make(&self, id: PlanId, made: &mut RunMap<PlanId, PlanRef>) -> PlanRef {
        if let Some(node) = made.get(&id) {
            return node.clone();
        }
        let plan = &self[id];
        let inputs = match *self.sap(plan.inputs) {
            [a] => Inputs::One([self.make(a, made)]),
            [a, b] => Inputs::Two([self.make(a, made), self.make(b, made)]),
            ref ids => Inputs::Rest(ids.iter().map(|&i| self.make(i, made)).collect()),
        };
        let node = PlanNode::with_props(plan.op.clone(), inputs, plan.props.clone());
        debug_assert_eq!(node.fingerprint(), plan.fingerprint);
        made.insert(id, node.clone());
        node
    }
}

impl Index<PlanId> for RunStore {
    type Output = Plan;

    fn index(&self, id: PlanId) -> &Plan {
        self.nodes.get(id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::SiteId;
    use starqo_plan::{AccessSpec, ColSet};
    use starqo_query::{PredSet, QId};
    use std::sync::Arc;

    fn leaf(store: &mut RunStore, q: u32) -> PlanId {
        let spec = AccessSpec::HeapTable(QId(q));
        let (cols, preds) = (ColSet::new(), PredSet::EMPTY);
        let op = Lolepop::Access { spec, cols, preds };
        store.add(op, &[], Props::empty(SiteId(0)))
    }

    /// Chunks are allocated at their final size: what the store handed out
    /// stays where it is however much is added after it.
    #[test]
    fn entries_never_move() {
        let mut store = RunStore::default();
        let first = leaf(&mut store, 0);
        let sap = store.add_sap(&[first, first]);
        let temp = ReqVec {
            temp: true,
            ..ReqVec::default()
        };
        let stream = store.stream(QSet::single(QId(0)), temp.clone());
        let (node, ids) = (&store[first] as *const Plan, store.sap(sap).as_ptr());
        let reqs = store.reqs(&stream) as *const ReqVec;
        for i in 0..5 * REQS as u32 {
            let p = leaf(&mut store, i);
            store.add_sap(&[p; 3]);
            store.stream(QSet::single(QId(0)), temp.clone());
        }
        let wide = store.add_sap(&vec![first; 3 * IDS]);
        assert_eq!(&store[first] as *const Plan, node);
        assert_eq!(store.sap(sap).as_ptr(), ids);
        assert_eq!(store.reqs(&stream) as *const ReqVec, reqs);
        assert_eq!(store.sap(wide).len(), 3 * IDS);
        assert!(store.nodes.0.iter().all(|c| c.capacity() == NODES));
        assert!(store.reqs.0.iter().all(|c| c.capacity() == REQS));
    }

    /// Loaded as far as an 8-way star join loads it under
    /// `OptConfig::full()` (123 414 nodes, 21 507 requirement vectors), no
    /// block of the store — a chunk or a list of chunks — reaches glibc's
    /// 128 KiB mmap threshold.
    #[test]
    fn no_block_reaches_the_mmap_threshold() {
        fn largest<T>(chunks: &Vec<Vec<T>>) -> usize {
            let list = chunks.capacity() * std::mem::size_of::<Vec<T>>();
            let chunk = |c: &Vec<T>| c.capacity() * std::mem::size_of::<T>();
            chunks.iter().map(chunk).fold(list, usize::max)
        }
        let mut store = RunStore::default();
        let temp = ReqVec {
            temp: true,
            ..ReqVec::default()
        };
        for i in 0..125_000 {
            let p = leaf(&mut store, 0);
            store.add_sap(&[p, p]);
            if i % 5 == 0 {
                store.stream(QSet::single(QId(0)), temp.clone());
            }
        }
        let (nodes, ids, reqs) = (
            largest(&store.nodes.0),
            largest(&store.ids),
            largest(&store.reqs.0),
        );
        assert!(nodes.max(ids).max(reqs) < 128 << 10, "{nodes} {ids} {reqs}");
    }

    #[test]
    fn saps_compare_by_fingerprint_not_by_place() {
        let mut store = RunStore::default();
        let (a, b, c) = (
            leaf(&mut store, 0),
            leaf(&mut store, 0),
            leaf(&mut store, 1),
        );
        let (ab, ba) = (store.add_sap(&[a, c]), store.add_sap(&[b, c]));
        assert_ne!(ab, ba);
        assert!(store.same_plans(ab, ba));
        let (ca, just_a) = (store.add_sap(&[c, a]), store.add_sap(&[a]));
        assert!(!store.same_plans(ab, ca));
        assert!(!store.same_plans(ab, just_a));
    }

    /// Of two entries with one fingerprint, the first labeled names both;
    /// an entry no rule produced has no provenance.
    #[test]
    fn the_first_producer_of_a_fingerprint_wins() {
        let mut store = RunStore::default();
        let (a, b) = (leaf(&mut store, 0), leaf(&mut store, 0));
        let c = leaf(&mut store, 1);
        store.label(b, 2);
        store.label(a, 1);
        store.label(b, 1);
        let labels: Vec<Arc<str>> = ["Glue", "X[alt 1]", "Y[alt 1]"].map(Arc::from).into();
        let (plans, provenance) = store.materialize([a, c], &labels);
        assert_eq!(provenance.len(), 1);
        assert_eq!(&*provenance[&plans[0].fingerprint()], "Y[alt 1]");
        let (fa, fc) = (store[a].fingerprint, store[c].fingerprint);
        let origins = store.origins([fa, fc].into_iter());
        assert_eq!((origins[&fa], origins[&fc]), (Some((0, 2)), None));
    }

    #[test]
    fn materialized_plans_share_what_the_store_shares() {
        let mut store = RunStore::default();
        let a = leaf(&mut store, 0);
        let temp = store.add(Lolepop::Store, &[a], Props::empty(SiteId(0)));
        let union = store.add(Lolepop::Union, &[temp, temp], Props::empty(SiteId(0)));
        let (plans, _) = store.materialize([union, temp], &[]);
        let (u, t) = (&plans[0], &plans[1]);
        assert!(Arc::ptr_eq(&u.inputs[0], &u.inputs[1]));
        assert!(Arc::ptr_eq(&u.inputs[0], t));
        assert_eq!(u.fingerprint(), store[union].fingerprint);
    }
}

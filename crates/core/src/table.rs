//! The plan table.
//!
//! §4.4: "a data structure hashed on the tables and predicates facilitates
//! finding all such plans, if they exist." Plans are keyed by their
//! relational properties (TABLES, PREDS); within a key the table keeps only
//! the property-Pareto frontier: a plan is dropped if another plan is at
//! most as expensive (componentwise, one-time and per-rescan) and at least
//! as good on every physical property — the System-R "interesting order"
//! idea generalized to the whole property vector (§3). Plans are the run's
//! store entries; what needs their properties is handed the store.

use starqo_plan::Props;
use starqo_query::{PredSet, QSet};
use starqo_trace::{SpanContext, TraceEvent};

use crate::hash::RunMap;
use crate::store::{PlanId, RunStore};

/// Relational key of a plan: what it produces.
pub type PlanKey = (QSet, PredSet);

/// Statistics about table churn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Plans offered to the table.
    pub offered: u64,
    /// Plans rejected because an existing plan dominates them.
    pub dominated: u64,
    /// Existing plans evicted by a newly inserted dominator.
    pub evicted: u64,
    /// Structural duplicates dropped.
    pub duplicates: u64,
}

/// The memo of alternative plans per relational key.
#[derive(Debug, Clone, Default)]
pub struct PlanTable {
    /// Hashed on the tables; under them, one slot per predicate set in
    /// first-insertion order (a handful at most). The enumerator's "any
    /// plans for this quantifier set?" is therefore a single lookup.
    map: RunMap<QSet, Vec<(PredSet, Vec<PlanId>)>>,
    pub stats: TableStats,
    /// ABLATION: when set, dominance pruning is skipped (duplicates are
    /// still dropped).
    pub ablate_pruning: bool,
}

/// Does `a` dominate `b`? Cheaper-or-equal on both cost components and at
/// least as good on every physical property.
fn dominates(pa: &Props, pb: &Props) -> bool {
    pa.cost.once <= pb.cost.once
        && pa.cost.rescan <= pb.cost.rescan
        && pa.site == pb.site
        && pa.temp == pb.temp
        // a offers at least the order b offers.
        && pa.order_satisfies(&pb.order)
        // a offers at least the paths b offers.
        && pb.paths.iter().all(|p| pa.paths.contains(p))
}

impl PlanTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a plan, pruning dominated alternatives, and annotate the churn
    /// on a detailed request. Returns true if the plan survived.
    pub fn insert(&mut self, store: &RunStore, id: PlanId, spans: &SpanContext) -> bool {
        self.stats.offered += 1;
        let plan = &store[id];
        let (tables, preds) = (plan.props.tables, plan.props.preds);
        let slots = self.map.entry(tables).or_default();
        let at = slots.iter().position(|(p, _)| *p == preds);
        let at = at.unwrap_or_else(|| {
            slots.push((preds, Vec::new()));
            slots.len() - 1
        });
        let slot = &mut slots[at].1;
        if slot
            .iter()
            .any(|&p| store[p].fingerprint == plan.fingerprint)
        {
            self.stats.duplicates += 1;
            spans.detail(|| TraceEvent::TablePrune {
                op: plan.op.name(),
                fp: plan.fingerprint,
                cost: plan.props.cost.total(),
                duplicate: true,
            });
            return false;
        }
        if self.ablate_pruning {
            spans.detail(|| TraceEvent::TableInsert {
                op: plan.op.name(),
                fp: plan.fingerprint,
                cost: plan.props.cost.total(),
                evicted: 0,
            });
            slot.push(id);
            return true;
        }
        if slot
            .iter()
            .any(|&p| dominates(&store[p].props, &plan.props))
        {
            self.stats.dominated += 1;
            spans.detail(|| TraceEvent::TablePrune {
                op: plan.op.name(),
                fp: plan.fingerprint,
                cost: plan.props.cost.total(),
                duplicate: false,
            });
            return false;
        }
        let before = slot.len();
        if spans.is_detailed() {
            let victims = slot.iter().map(|&p| &store[p]);
            for victim in victims.filter(|v| dominates(&plan.props, &v.props)) {
                spans.detail(|| TraceEvent::TableDominated {
                    op: victim.op.name(),
                    fp: victim.fingerprint,
                    cost: victim.props.cost.total(),
                });
            }
        }
        slot.retain(|&p| !dominates(&plan.props, &store[p].props));
        let evicted = before - slot.len();
        self.stats.evicted += evicted as u64;
        spans.detail(|| TraceEvent::TableInsert {
            op: plan.op.name(),
            fp: plan.fingerprint,
            cost: plan.props.cost.total(),
            evicted,
        });
        slot.push(id);
        true
    }

    /// All plans for a key.
    pub fn get(&self, (tables, preds): PlanKey) -> &[PlanId] {
        let slots = self.map.get(&tables).map(Vec::as_slice).unwrap_or(&[]);
        let slot = slots.iter().find(|(p, _)| *p == preds);
        slot.map(|(_, plans)| plans.as_slice()).unwrap_or(&[])
    }

    /// Cheapest plan for a key (by total cost).
    pub fn best(&self, store: &RunStore, key: PlanKey) -> Option<PlanId> {
        let cost = |p: PlanId| store[p].props.cost.total();
        self.get(key)
            .iter()
            .copied()
            .min_by(|&a, &b| cost(a).total_cmp(&cost(b)))
    }

    /// Does any plan exist for exactly this quantifier set? (An entry is
    /// only ever created by the insert that fills it.)
    pub fn has_tables(&self, tables: QSet) -> bool {
        self.map.contains_key(&tables)
    }

    /// All keys whose quantifier set equals `tables` (any predicate set),
    /// in first-insertion order.
    pub fn keys_for_tables(&self, tables: QSet) -> impl Iterator<Item = PlanKey> + '_ {
        let slots = self.map.get(&tables).into_iter().flatten();
        slots.map(move |(preds, _)| (tables, *preds))
    }

    /// Number of plans retained across all keys.
    pub fn total_plans(&self) -> usize {
        let slots = self.map.values().flatten();
        slots.map(|(_, plans)| plans.len()).sum()
    }

    /// Number of distinct relational keys.
    pub fn total_keys(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::SiteId;
    use starqo_plan::{ColSet, Cost, Lolepop};
    use starqo_query::QId;

    /// A SHIP over an ACCESS, added to the store it is given.
    fn plan(
        cost_once: f64,
        cost_rescan: f64,
        site: u16,
        ordered: bool,
        salt: i64,
    ) -> impl FnOnce(&mut RunStore) -> PlanId {
        let mut props = Props::empty(SiteId(site));
        props.tables = QSet::single(QId(0));
        props.cost = Cost::new(cost_once, cost_rescan);
        if ordered {
            props.order = vec![starqo_query::QCol::new(QId(0), starqo_catalog::ColId(0))].into();
        }
        move |store| {
            let access = Lolepop::Access {
                spec: starqo_plan::AccessSpec::HeapTable(QId(0)),
                cols: ColSet::new(),
                preds: starqo_query::PredSet::EMPTY,
            };
            let access = store.add(access, &[], Props::empty(SiteId(site)));
            // Salt the op parameters so fingerprints differ.
            let ship = Lolepop::Ship {
                to: SiteId(salt as u16),
            };
            store.add(ship, &[access], props)
        }
    }

    /// A plan table and the store its plans live in.
    #[derive(Default)]
    struct Fx {
        t: PlanTable,
        store: RunStore,
    }

    impl Fx {
        fn insert(&mut self, plan: impl FnOnce(&mut RunStore) -> PlanId) -> bool {
            let id = plan(&mut self.store);
            self.t.insert(&self.store, id, &SpanContext::off())
        }
    }

    #[test]
    fn cheaper_same_properties_evicts() {
        let mut f = Fx::default();
        assert!(f.insert(plan(10.0, 10.0, 0, false, 1)));
        assert!(f.insert(plan(5.0, 5.0, 0, false, 2)));
        let key = (QSet::single(QId(0)), starqo_query::PredSet::EMPTY);
        assert_eq!(f.t.get(key).len(), 1);
        assert_eq!(f.t.stats.evicted, 1);
        let best = f.t.best(&f.store, key).unwrap();
        assert_eq!(f.store[best].props.cost.total(), 10.0);
    }

    #[test]
    fn more_expensive_same_properties_rejected() {
        let mut f = Fx::default();
        assert!(f.insert(plan(5.0, 5.0, 0, false, 1)));
        assert!(!f.insert(plan(10.0, 10.0, 0, false, 2)));
        assert_eq!(f.t.stats.dominated, 1);
    }

    #[test]
    fn interesting_order_survives_higher_cost() {
        let mut f = Fx::default();
        assert!(f.insert(plan(5.0, 5.0, 0, false, 1)));
        // More expensive but ordered: kept (System-R interesting orders).
        assert!(f.insert(plan(20.0, 20.0, 0, true, 2)));
        let key = (QSet::single(QId(0)), starqo_query::PredSet::EMPTY);
        assert_eq!(f.t.get(key).len(), 2);
    }

    #[test]
    fn different_sites_coexist() {
        let mut f = Fx::default();
        assert!(f.insert(plan(5.0, 5.0, 0, false, 1)));
        assert!(f.insert(plan(50.0, 50.0, 1, false, 2)));
        let key = (QSet::single(QId(0)), starqo_query::PredSet::EMPTY);
        assert_eq!(f.t.get(key).len(), 2);
    }

    #[test]
    fn duplicates_dropped() {
        let mut f = Fx::default();
        let p = plan(5.0, 5.0, 0, false, 1)(&mut f.store);
        assert!(f.t.insert(&f.store, p, &SpanContext::off()));
        assert!(!f.t.insert(&f.store, p, &SpanContext::off()));
        assert_eq!(f.t.stats.duplicates, 1);
    }

    #[test]
    fn cheaper_rescan_expensive_once_coexists() {
        let mut f = Fx::default();
        // Scan: no setup, expensive rescan. Temp-ish: setup, cheap rescan.
        assert!(f.insert(plan(0.0, 100.0, 0, false, 1)));
        assert!(f.insert(plan(120.0, 1.0, 0, false, 2)));
        let key = (QSet::single(QId(0)), starqo_query::PredSet::EMPTY);
        assert_eq!(
            f.t.get(key).len(),
            2,
            "NL-inner-friendly plans must survive"
        );
    }

    #[test]
    fn counters_and_keys() {
        let mut f = Fx::default();
        f.insert(plan(5.0, 5.0, 0, false, 1));
        f.insert(plan(9.0, 9.0, 1, false, 2));
        assert_eq!(f.t.total_plans(), 2);
        assert_eq!(f.t.total_keys(), 1);
        assert_eq!(f.t.keys_for_tables(QSet::single(QId(0))).count(), 1);
        assert!(f.t.has_tables(QSet::single(QId(0))));
        assert!(!f.t.has_tables(QSet::single(QId(5))));
        let nowhere = (QSet::single(QId(5)), starqo_query::PredSet::EMPTY);
        assert!(f.t.best(&f.store, nowhere).is_none());
    }
}

//! Bottom-up join enumeration (§2.3).
//!
//! > For any given SQL query, we build plans bottom up, first referencing
//! > the AccessRoot STAR to build plans to access individual tables, and
//! > then repeatedly referencing the JoinRoot STAR to join plans that were
//! > generated earlier, until all tables have been joined.
//!
//! "What constitutes a joinable pair of streams depends upon a compile-time
//! parameter". At level *k* (the *k*-table subsets) a pair of streams is
//! joinable when both already hold plans and an eligible join predicate
//! links them (the default, as in System R and R\*), or — under
//! `OptConfig::cartesian` — when both have small estimated cardinality.
//! `JoinRoot` is referenced for joinable pairs only, so under the default
//! parameters a connected join graph has plans for exactly its connected
//! subsets.
//!
//! Cartesian products are deferred, level-wise: only a level at which *no*
//! pair was joinable is re-run admitting any two planned streams, which is
//! how a disconnected join graph is still answered. The product is taken at
//! the *first* such level, not the last possible one — with components
//! `ABC` and `DE`, `ABC × D` is built at level 4 and `(ABC) × (DE)` is never
//! considered — and one joinable pair anywhere in a level suppresses the
//! fallback for the whole level, so `cartesian: true` searches a superset
//! of the default's space only while every stream is small. The fallback
//! terminates with a plan for all tables by induction: if level
//! *k − 1* holds a planned subset and a table outside it exists, their
//! product is built at level *k* at the latest, so every level keeps at
//! least one planned subset and level *n* has only the full set to plan.
//!
//! Composite inners (bushy plans) are gated by
//! `OptConfig::composite_inners` — the restriction itself lives in the
//! `JoinRoot` rule's conditions, exactly as §4.1 suggests; the driver only
//! skips pairs no rule could accept, as an efficiency matter.

use std::sync::Arc;

use starqo_plan::PlanRef;
use starqo_query::QSet;

use crate::engine::Engine;
use crate::error::{CoreError, Result};
use crate::hash::RunMap;
use crate::store::PlanId;
use crate::value::ReqVec;

/// Result of an enumeration run.
#[derive(Debug, Clone)]
pub struct Enumerated {
    /// The cheapest plan for the whole query, with the query's final
    /// requirements (ORDER BY, query site) discharged by a root Glue.
    pub best: PlanRef,
    /// All surviving root alternatives (before the final Glue), for
    /// strategy-space experiments.
    pub root_alternatives: Vec<PlanRef>,
    /// The rule origin of every node of `best` and `root_alternatives`.
    pub provenance: RunMap<u64, Arc<str>>,
}

/// Run bottom-up enumeration over the engine's query.
pub fn enumerate(engine: &mut Engine<'_>) -> Result<Enumerated> {
    let query = engine.query;
    let n = query.quantifiers.len();
    let all = query.all_qset();

    // Level 1: single-table access plans via AccessRoot.
    for qt in &query.quantifiers {
        let qs = QSet::single(qt.id);
        if engine.access_root(qs, query.eligible_preds(qs))?.is_empty() {
            return Err(CoreError::NoPlan(format!(
                "AccessRoot produced no plan for {}",
                qt.alias
            )));
        }
    }

    // Levels 2..n: joinable pairs; Cartesian products only for a level
    // that would otherwise hold no plan at all.
    for k in 2..=n as u32 {
        if !join_level(engine, all, k, false)? {
            join_level(engine, all, k, true)?;
        }
    }

    // Final requirements: ORDER BY and the query site, discharged by Glue —
    // the paper's mechanism applied at the root.
    let root_key = (all, engine.query.eligible_preds(all));
    let roots = engine.table.get(root_key).to_vec();
    if roots.is_empty() {
        return Err(CoreError::NoPlan(
            "no plan covers all tables (JoinRoot accepted no pair of streams)".into(),
        ));
    }
    let reqs = ReqVec {
        order: if engine.query.order_by.is_empty() {
            None
        } else {
            Some(engine.query.order_by.as_slice().into())
        },
        site: Some(engine.query.query_site),
        temp: false,
        paths: None,
    };
    let stream = engine.store.stream(all, reqs);
    let finals = crate::glue::glue(engine, stream, starqo_query::PredSet::EMPTY)?;
    let store = &engine.store;
    let cost = |p: &PlanId| store[*p].props.cost.total();
    let best = store
        .sap(finals)
        .iter()
        .min_by(|a, b| cost(a).total_cmp(&cost(b)));
    let best = *best.ok_or_else(|| CoreError::NoPlan("glue returned no final plan".into()))?;
    // The run ends here: what leaves it is made into shared plan DAGs.
    let leaving = std::iter::once(best).chain(roots);
    let (mut root_alternatives, provenance) = store.materialize(leaving, &engine.rules.labels);
    Ok(Enumerated {
        best: root_alternatives.remove(0),
        root_alternatives,
        provenance,
    })
}

/// Reference `JoinRoot` for every admissible partition of every `k`-subset
/// of `all`; `any_pair` admits pairs no predicate links (the Cartesian
/// fallback). Returns whether the level produced a plan.
fn join_level(engine: &mut Engine<'_>, all: QSet, k: u32, any_pair: bool) -> Result<bool> {
    let mut level_built = false;
    for s in subsets_of_size(all, k) {
        for (s1, s2) in partitions(s) {
            // Skip pairs no JoinRoot alternative could accept.
            if !engine.config.composite_inners && s1.len() > 1 && s2.len() > 1 {
                continue;
            }
            // Both sides must already have plans.
            if !engine.table.has_tables(s1) || !engine.table.has_tables(s2) {
                continue;
            }
            let joinable = any_pair
                || engine.query.connects(s1, s2)
                || (engine.config.cartesian && small(engine, s1) && small(engine, s2));
            if !joinable {
                continue;
            }
            let new_preds = engine.query.newly_eligible(s1, s2);
            level_built |= !engine.join_root(s1, s2, new_preds)?.is_empty();
            // Greedy (degraded) mode: once the budget is exhausted, the
            // first partition producing plans for this subset is enough — a
            // complete plan always survives because Glue veneers can
            // discharge any root requirement.
            if engine.degraded() && engine.table.has_tables(s) {
                break;
            }
        }
    }
    Ok(level_built)
}

/// Estimated-small test for Cartesian candidates (§2.3: "streams of small
/// estimated cardinality").
fn small(engine: &Engine<'_>, s: QSet) -> bool {
    let keys = engine.table.keys_for_tables(s);
    keys.filter_map(|k| engine.table.best(&engine.store, k))
        .any(|p| engine.store[p].props.card <= engine.model.small_card)
}

/// All subsets of `all` with exactly `k` (≥ 1) bits, in ascending mask
/// order: Gosper's hack walks the k-bit patterns over `|all|` positions,
/// and each pattern selects that many of `all`'s members.
fn subsets_of_size(all: QSet, k: u32) -> impl Iterator<Item = QSet> {
    let end = 1u128 << all.len();
    let mut pattern = (1u128 << k) - 1;
    std::iter::from_fn(move || {
        if pattern >= end {
            return None;
        }
        let members = all.iter().enumerate();
        let picked = members.filter(|(i, _)| pattern & (1 << i) != 0);
        let subset = picked.map(|(_, q)| q).collect();
        let low = pattern & pattern.wrapping_neg();
        let ripple = pattern + low;
        pattern = ripple | (((pattern ^ ripple) >> 2) / low);
        Some(subset)
    })
}

/// Unordered partitions of `s` into two non-empty disjoint halves.
fn partitions(s: QSet) -> impl Iterator<Item = (QSet, QSet)> {
    let halves = s.proper_subsets().map(move |sub| (sub, s.minus(sub)));
    halves.filter(|(sub, comp)| sub.0 < comp.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_query::QId;

    #[test]
    fn subsets_of_size_counts() {
        let all = QSet::all(4);
        assert_eq!(subsets_of_size(all, 1).count(), 4);
        assert_eq!(subsets_of_size(all, 2).count(), 6);
        assert_eq!(subsets_of_size(all, 3).count(), 4);
        assert_eq!(subsets_of_size(all, 4).count(), 1);
        let masks: Vec<u64> = subsets_of_size(all, 2).map(|s| s.0).collect();
        assert_eq!(masks, [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]);
    }

    #[test]
    fn subsets_respect_sparse_sets() {
        let s = QSet::from_iter([QId(1), QId(3), QId(5)]);
        let twos: Vec<QSet> = subsets_of_size(s, 2).collect();
        assert_eq!(twos.len(), 3);
        for t in twos {
            assert!(t.is_subset_of(s));
            assert_eq!(t.len(), 2);
        }
    }

    #[test]
    fn partitions_are_unordered_and_complete() {
        let s = QSet::all(3);
        let ps: Vec<_> = partitions(s).collect();
        assert_eq!(ps.len(), 3); // {0}|{1,2}, {1}|{0,2}, {2}|{0,1}
        for (a, b) in ps {
            assert!(a.is_disjoint(b));
            assert_eq!(a.union(b), s);
        }
        let s4 = QSet::all(4);
        assert_eq!(partitions(s4).count(), 7); // 2^(4-1) - 1
    }
}

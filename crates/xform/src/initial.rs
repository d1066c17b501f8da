//! The canonical initial plan transformational search starts from.

use starqo_catalog::{Catalog, StorageKind};
use starqo_plan::{
    AccessSpec, CostModel, JoinFlavor, Lolepop, PlanError, PlanRef, PropCtx, PropEngine,
};
use starqo_query::{PredSet, QSet, Query};

/// Build the canonical plan: heap/btree scans with single-table predicates
/// pushed down, left-deep nested-loop joins in query order with every
/// multi-table predicate applied as a join residual, a SHIP whenever the
/// next input sits at a different site, and final SORT/SHIP enforcers for
/// ORDER BY and the query site.
pub fn initial_plan(
    catalog: &Catalog,
    query: &Query,
    model: &CostModel,
    prop: &PropEngine,
) -> Result<PlanRef, PlanError> {
    let ctx = PropCtx::new(catalog, query, model);
    let mut acc: Option<PlanRef> = None;
    let mut joined = QSet::EMPTY;
    for qt in &query.quantifiers {
        let qs = QSet::single(qt.id);
        let table = catalog.table(qt.table);
        let spec = match &table.storage {
            StorageKind::Heap => AccessSpec::HeapTable(qt.id),
            StorageKind::BTree { .. } => AccessSpec::BTreeTable(qt.id),
        };
        let single_preds = query.eligible_preds(qs);
        let cols = query.required_cols(qt.id).clone();
        let scan = prop.build(
            Lolepop::Access {
                spec,
                cols,
                preds: single_preds,
            },
            vec![],
            &ctx,
        )?;
        acc = Some(match acc {
            None => {
                joined = qs;
                scan
            }
            Some(left) => {
                let new_preds = query.newly_eligible(joined, qs);
                joined = joined.union(qs);
                // Same-site requirement: ship the inner to the outer's site.
                let scan = if scan.props.site != left.props.site {
                    prop.build(
                        Lolepop::Ship {
                            to: left.props.site,
                        },
                        vec![scan],
                        &ctx,
                    )?
                } else {
                    scan
                };
                prop.build(
                    Lolepop::Join {
                        flavor: JoinFlavor::NL,
                        join_preds: PredSet::EMPTY,
                        residual: new_preds,
                    },
                    vec![left, scan],
                    &ctx,
                )?
            }
        });
    }
    let mut plan = acc.ok_or(PlanError::Invalid("query has no tables".into()))?;
    if !query.order_by.is_empty() && !plan.props.order_satisfies(&query.order_by) {
        plan = prop.build(
            Lolepop::Sort {
                key: query.order_by.as_slice().into(),
            },
            vec![plan],
            &ctx,
        )?;
    }
    if plan.props.site != query.query_site {
        plan = prop.build(
            Lolepop::Ship {
                to: query.query_site,
            },
            vec![plan],
            &ctx,
        )?;
    }
    Ok(plan)
}

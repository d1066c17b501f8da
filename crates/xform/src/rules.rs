//! Transformation and implementation rules.
//!
//! Each rule pattern-matches every node of a plan ("unification"), tests
//! its condition of applicability, and rewrites the matched subtree; the
//! search layer rebuilds the ancestors. The conditions here are a live
//! demonstration of the paper's observation that "specifying the conditions
//! under which a rule is applicable is usually harder than specifying the
//! rule's transformation" — see e.g. the correlation checks that join
//! commutation needs once predicate pushdown exists.

use starqo_catalog::Catalog;
use starqo_plan::{
    AccessSpec, CostModel, JoinFlavor, Lolepop, PlanNode, PlanRef, PropCtx, PropEngine,
};
use starqo_query::{Classifier, PredSet, Query};

use crate::search::XformStats;

/// Shared context for rule application.
pub struct XformCtx<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a Query,
    pub model: &'a CostModel,
    pub prop: &'a PropEngine,
}

impl<'a> XformCtx<'a> {
    pub fn prop_ctx(&self) -> PropCtx<'a> {
        PropCtx::new(self.catalog, self.query, self.model)
    }

    /// Is the subtree free of references to quantifiers outside itself?
    /// (The condition every reordering rule must test once predicate
    /// pushdown exists.)
    pub fn uncorrelated(&self, node: &PlanNode) -> bool {
        let tables = node.props.tables;
        !node.any(&|n| {
            let preds = match &n.op {
                Lolepop::Access { preds, .. } => *preds,
                Lolepop::Get { preds, .. } => *preds,
                Lolepop::Filter { preds } => *preds,
                Lolepop::Join {
                    join_preds,
                    residual,
                    ..
                } => join_preds.union(*residual),
                _ => PredSet::EMPTY,
            };
            preds
                .iter()
                .any(|p| !self.query.pred(p).quantifiers().is_subset_of(tables))
        })
    }
}

/// One plan-transformation (or implementation) rule: rewrite the *root* of
/// the given subtree. The search layer walks every node.
pub trait XformRule {
    fn name(&self) -> &'static str;
    /// Attempt to rewrite `node`; returns zero or more replacement subtrees.
    fn rewrite(&self, node: &PlanRef, ctx: &XformCtx<'_>, stats: &mut XformStats) -> Vec<PlanRef>;
}

/// The standard rule box.
pub fn all_rules() -> Vec<Box<dyn XformRule>> {
    vec![
        Box::new(AccessMethod),
        Box::new(PushJoinPredDown),
        Box::new(JoinCommute),
        Box::new(JoinAssocRight),
        Box::new(NlToMerge),
        Box::new(NlToHash),
        Box::new(MaterializeInner),
    ]
}

fn build(
    ctx: &XformCtx<'_>,
    stats: &mut XformStats,
    op: Lolepop,
    inputs: Vec<PlanRef>,
) -> Option<PlanRef> {
    stats.reestimations += 1;
    ctx.prop.build(op, inputs, &ctx.prop_ctx()).ok()
}

// ---------------------------------------------------------------------

/// Implementation rule: replace a base-table scan with each applicable
/// index plan (index-only when covering, else index probe + GET).
pub struct AccessMethod;

impl XformRule for AccessMethod {
    fn name(&self) -> &'static str {
        "access-method"
    }

    fn rewrite(&self, node: &PlanRef, ctx: &XformCtx<'_>, stats: &mut XformStats) -> Vec<PlanRef> {
        stats.match_attempts += 1;
        let Lolepop::Access { spec, cols, preds } = &node.op else {
            return vec![];
        };
        let q = match spec {
            AccessSpec::HeapTable(q) | AccessSpec::BTreeTable(q) => *q,
            _ => return vec![],
        };
        let table = ctx.query.quantifier(q).table;
        let cl = Classifier::new(ctx.query);
        let mut out = Vec::new();
        for ix in ctx.catalog.indexes_on(table) {
            stats.conds_evaluated += 1;
            let key_qcols: Vec<starqo_query::QCol> = ix
                .cols
                .iter()
                .map(|c| starqo_query::QCol::new(q, *c))
                .collect();
            let (matched, _) = cl.index_matching(*preds, q, &ix.cols);
            // Index-only: every needed column and predicate column is a key
            // column.
            let covering = cols.iter().all(|c| key_qcols.contains(c))
                && preds.iter().all(|p| {
                    ctx.query
                        .pred(p)
                        .cols()
                        .iter()
                        .filter(|c| c.q == q)
                        .all(|c| key_qcols.contains(c))
                });
            if covering {
                if let Some(p) = build(
                    ctx,
                    stats,
                    Lolepop::Access {
                        spec: AccessSpec::Index { index: ix.id, q },
                        cols: cols.clone(),
                        preds: *preds,
                    },
                    vec![],
                ) {
                    out.push(p);
                }
            }
            // Probe + GET.
            let mut ix_cols: starqo_plan::ColSet = key_qcols.iter().copied().collect();
            ix_cols.insert(starqo_query::QCol::new(q, starqo_catalog::TID_COL));
            let probe = build(
                ctx,
                stats,
                Lolepop::Access {
                    spec: AccessSpec::Index { index: ix.id, q },
                    cols: ix_cols,
                    preds: matched,
                },
                vec![],
            );
            if let Some(probe) = probe {
                if let Some(get) = build(
                    ctx,
                    stats,
                    Lolepop::Get {
                        q,
                        cols: cols.clone(),
                        preds: preds.minus(matched),
                    },
                    vec![probe],
                ) {
                    out.push(get);
                }
            }
        }
        out
    }
}

/// Transformation rule: push sargable join predicates from an NL join into
/// a base-table inner access (sideways information passing).
pub struct PushJoinPredDown;

impl XformRule for PushJoinPredDown {
    fn name(&self) -> &'static str {
        "push-join-pred"
    }

    fn rewrite(&self, node: &PlanRef, ctx: &XformCtx<'_>, stats: &mut XformStats) -> Vec<PlanRef> {
        stats.match_attempts += 1;
        let Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds,
            residual,
        } = &node.op
        else {
            return vec![];
        };
        let inner = &node.inputs[1];
        let Lolepop::Access { spec, cols, preds } = &inner.op else {
            return vec![];
        };
        if !matches!(spec, AccessSpec::HeapTable(_) | AccessSpec::BTreeTable(_)) {
            return vec![];
        }
        stats.conds_evaluated += 1;
        let cl = Classifier::new(ctx.query);
        // Join predicates of the residual whose inner side is this table.
        let jp = cl.join_preds(*residual).intersect(cl.indexable_preds(
            *residual,
            node.inputs[0].props.tables,
            inner.props.tables,
        ));
        if jp.is_empty() {
            return vec![];
        }
        let new_inner = build(
            ctx,
            stats,
            Lolepop::Access {
                spec: spec.clone(),
                cols: cols.clone(),
                preds: preds.union(jp),
            },
            vec![],
        );
        let Some(new_inner) = new_inner else {
            return vec![];
        };
        build(
            ctx,
            stats,
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                join_preds: join_preds.union(jp),
                residual: residual.minus(jp),
            },
            vec![node.inputs[0].clone(), new_inner],
        )
        .into_iter()
        .collect()
    }
}

/// Transformation rule: commute a join. Condition: neither subtree may be
/// correlated (carry pushed-down predicates referencing the other side).
pub struct JoinCommute;

impl XformRule for JoinCommute {
    fn name(&self) -> &'static str {
        "join-commute"
    }

    fn rewrite(&self, node: &PlanRef, ctx: &XformCtx<'_>, stats: &mut XformStats) -> Vec<PlanRef> {
        stats.match_attempts += 1;
        let Lolepop::Join {
            flavor,
            join_preds,
            residual,
        } = &node.op
        else {
            return vec![];
        };
        stats.conds_evaluated += 1;
        if !ctx.uncorrelated(&node.inputs[0]) || !ctx.uncorrelated(&node.inputs[1]) {
            return vec![];
        }
        build(
            ctx,
            stats,
            Lolepop::Join {
                flavor: *flavor,
                join_preds: *join_preds,
                residual: *residual,
            },
            vec![node.inputs[1].clone(), node.inputs[0].clone()],
        )
        .into_iter()
        .collect()
    }
}

/// Transformation rule: right-associate — `(A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C)`,
/// re-deriving which predicates each join may apply.
pub struct JoinAssocRight;

impl XformRule for JoinAssocRight {
    fn name(&self) -> &'static str {
        "join-assoc-right"
    }

    fn rewrite(&self, node: &PlanRef, ctx: &XformCtx<'_>, stats: &mut XformStats) -> Vec<PlanRef> {
        stats.match_attempts += 1;
        let Lolepop::Join {
            join_preds: jp1,
            residual: r1,
            ..
        } = &node.op
        else {
            return vec![];
        };
        let left = &node.inputs[0];
        let Lolepop::Join {
            join_preds: jp2,
            residual: r2,
            ..
        } = &left.op
        else {
            return vec![];
        };
        stats.conds_evaluated += 1;
        let (a, b) = (&left.inputs[0], &left.inputs[1]);
        let c = &node.inputs[1];
        if !ctx.uncorrelated(a) || !ctx.uncorrelated(b) || !ctx.uncorrelated(c) {
            return vec![];
        }
        let total = jp1.union(*r1).union(*jp2).union(*r2);
        let bc_tables = b.props.tables.union(c.props.tables);
        // Predicates the new (B ⋈ C) join can apply: eligible on B∪C but on
        // neither side alone (single-side ones stay where they are).
        let bc_preds = PredSet::from_iter(total.iter().filter(|p| {
            let qs = ctx.query.pred(*p).quantifiers();
            qs.is_subset_of(bc_tables)
                && !qs.is_subset_of(b.props.tables)
                && !qs.is_subset_of(c.props.tables)
        }));
        if bc_preds.is_empty() {
            // Would create a Cartesian inner; transformational systems
            // typically forbid this.
            return vec![];
        }
        let rest = total.minus(bc_preds);
        let Some(bc) = build(
            ctx,
            stats,
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                join_preds: PredSet::EMPTY,
                residual: bc_preds,
            },
            vec![b.clone(), c.clone()],
        ) else {
            return vec![];
        };
        build(
            ctx,
            stats,
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                join_preds: PredSet::EMPTY,
                residual: rest,
            },
            vec![a.clone(), bc],
        )
        .into_iter()
        .collect()
    }
}

/// Implementation rule: NL → sort-merge, inserting SORT enforcers.
pub struct NlToMerge;

impl XformRule for NlToMerge {
    fn name(&self) -> &'static str {
        "nl-to-merge"
    }

    fn rewrite(&self, node: &PlanRef, ctx: &XformCtx<'_>, stats: &mut XformStats) -> Vec<PlanRef> {
        stats.match_attempts += 1;
        let Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds,
            residual,
        } = &node.op
        else {
            return vec![];
        };
        stats.conds_evaluated += 1;
        let (o, i) = (&node.inputs[0], &node.inputs[1]);
        let cl = Classifier::new(ctx.query);
        let all = join_preds.union(*residual);
        let sp = cl.sortable_preds(all, o.props.tables, i.props.tables);
        if sp.is_empty() || !ctx.uncorrelated(i) {
            return vec![];
        }
        let o_key = cl.sort_key(sp, o.props.tables);
        let i_key = cl.sort_key(sp, i.props.tables);
        let sorted = |side: &PlanRef, key: &Vec<starqo_query::QCol>, stats: &mut XformStats| {
            if side.props.order_satisfies(key) {
                Some(side.clone())
            } else {
                build(
                    ctx,
                    stats,
                    Lolepop::Sort {
                        key: key.as_slice().into(),
                    },
                    vec![side.clone()],
                )
            }
        };
        let Some(so) = sorted(o, &o_key, stats) else {
            return vec![];
        };
        let Some(si) = sorted(i, &i_key, stats) else {
            return vec![];
        };
        build(
            ctx,
            stats,
            Lolepop::Join {
                flavor: JoinFlavor::MG,
                join_preds: sp,
                residual: all.minus(sp),
            },
            vec![so, si],
        )
        .into_iter()
        .collect()
    }
}

/// Implementation rule: NL → hash join.
pub struct NlToHash;

impl XformRule for NlToHash {
    fn name(&self) -> &'static str {
        "nl-to-hash"
    }

    fn rewrite(&self, node: &PlanRef, ctx: &XformCtx<'_>, stats: &mut XformStats) -> Vec<PlanRef> {
        stats.match_attempts += 1;
        let Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds,
            residual,
        } = &node.op
        else {
            return vec![];
        };
        stats.conds_evaluated += 1;
        let (o, i) = (&node.inputs[0], &node.inputs[1]);
        let cl = Classifier::new(ctx.query);
        let all = join_preds.union(*residual);
        let hp = cl.hashable_preds(all, o.props.tables, i.props.tables);
        if hp.is_empty() || !ctx.uncorrelated(i) {
            return vec![];
        }
        build(
            ctx,
            stats,
            // Hashable preds stay residual too (collisions).
            Lolepop::Join {
                flavor: JoinFlavor::HA,
                join_preds: hp,
                residual: all,
            },
            vec![o.clone(), i.clone()],
        )
        .into_iter()
        .collect()
    }
}

/// Implementation rule: materialize an NL inner as a temp (forced
/// projection, §4.5.2's analog).
pub struct MaterializeInner;

impl XformRule for MaterializeInner {
    fn name(&self) -> &'static str {
        "materialize-inner"
    }

    fn rewrite(&self, node: &PlanRef, ctx: &XformCtx<'_>, stats: &mut XformStats) -> Vec<PlanRef> {
        stats.match_attempts += 1;
        let Lolepop::Join {
            flavor: JoinFlavor::NL,
            join_preds,
            residual,
        } = &node.op
        else {
            return vec![];
        };
        stats.conds_evaluated += 1;
        let i = &node.inputs[1];
        if i.props.temp || !ctx.uncorrelated(i) || matches!(i.op, Lolepop::Store) {
            return vec![];
        }
        let Some(store) = build(ctx, stats, Lolepop::Store, vec![i.clone()]) else {
            return vec![];
        };
        let Some(re) = build(
            ctx,
            stats,
            Lolepop::Access {
                spec: AccessSpec::TempHeap,
                cols: i.props.cols.clone(),
                preds: PredSet::EMPTY,
            },
            vec![store],
        ) else {
            return vec![];
        };
        build(
            ctx,
            stats,
            Lolepop::Join {
                flavor: JoinFlavor::NL,
                join_preds: *join_preds,
                residual: *residual,
            },
            vec![node.inputs[0].clone(), re],
        )
        .into_iter()
        .collect()
    }
}

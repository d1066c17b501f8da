//! Exhaustive transformational search with duplicate elimination.

use std::collections::HashSet;

use starqo_catalog::Catalog;
use starqo_plan::{CostModel, Lolepop, PlanError, PlanRef, PropEngine};
use starqo_query::Query;

use crate::initial::initial_plan;
use crate::rules::{XformCtx, XformRule};

/// Work counters, comparable to `starqo_core::OptStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XformStats {
    /// Rule-against-node pattern-match attempts ("unifications").
    pub match_attempts: u64,
    /// Rule conditions evaluated after a pattern matched.
    pub conds_evaluated: u64,
    /// Whole plans generated (before duplicate elimination).
    pub plans_generated: u64,
    /// Structural duplicates discarded.
    pub duplicates: u64,
    /// Distinct plans retained in the pool.
    pub retained: u64,
    /// Property-vector derivations, including every ancestor rebuilt above
    /// a rewritten subtree (§6's re-estimation cost).
    pub reestimations: u64,
    /// Worklist iterations (plans fully expanded).
    pub iterations: u64,
    /// True if the search stopped on the budget rather than at fixpoint.
    pub budget_exhausted: bool,
}

/// Search outcome.
#[derive(Debug, Clone)]
pub struct XformResult {
    pub best: PlanRef,
    pub initial: PlanRef,
    pub stats: XformStats,
}

/// The transformational optimizer.
pub struct XformOptimizer {
    rules: Vec<Box<dyn XformRule>>,
    model: CostModel,
    prop: PropEngine,
    /// Maximum number of distinct plans to expand. Exhaustive
    /// transformational search explodes combinatorially — whole-plan pools
    /// multiply every subtree variant — so realistic runs cap the search
    /// and report whether fixpoint was reached (experiment E8 plots this).
    pub budget: usize,
}

impl XformOptimizer {
    pub fn new() -> Self {
        XformOptimizer {
            rules: crate::rules::all_rules(),
            model: CostModel::default(),
            prop: PropEngine::new(),
            budget: 5_000,
        }
    }

    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    pub fn set_cost_model(&mut self, model: CostModel) {
        self.model = model;
    }

    /// Run the search to fixpoint (or budget) and return the cheapest plan.
    pub fn optimize(&self, catalog: &Catalog, query: &Query) -> Result<XformResult, PlanError> {
        let ctx = XformCtx {
            catalog,
            query,
            model: &self.model,
            prop: &self.prop,
        };
        let initial = initial_plan(catalog, query, &self.model, &self.prop)?;
        let mut stats = XformStats::default();
        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(initial.fingerprint());
        let mut pool: Vec<PlanRef> = vec![initial.clone()];
        let mut worklist: Vec<PlanRef> = vec![initial.clone()];
        while let Some(plan) = worklist.pop() {
            stats.iterations += 1;
            if stats.iterations as usize >= self.budget {
                stats.budget_exhausted = true;
                break;
            }
            for rule in &self.rules {
                for new_plan in apply_everywhere(&plan, rule.as_ref(), &ctx, &mut stats) {
                    stats.plans_generated += 1;
                    if !seen.insert(new_plan.fingerprint()) {
                        stats.duplicates += 1;
                        continue;
                    }
                    pool.push(new_plan.clone());
                    worklist.push(new_plan);
                }
            }
        }
        stats.retained = pool.len() as u64;
        let best = pool
            .into_iter()
            .min_by(|a, b| a.props.cost.total().total_cmp(&b.props.cost.total()))
            .expect("pool contains at least the initial plan");
        Ok(XformResult {
            best,
            initial,
            stats,
        })
    }
}

impl Default for XformOptimizer {
    fn default() -> Self {
        Self::new()
    }
}

/// Apply one rule at every node of the plan, rebuilding ancestors above
/// each rewrite (re-deriving their property vectors).
fn apply_everywhere(
    plan: &PlanRef,
    rule: &dyn XformRule,
    ctx: &XformCtx<'_>,
    stats: &mut XformStats,
) -> Vec<PlanRef> {
    let mut out = rule.rewrite(plan, ctx, stats);
    for (i, child) in plan.inputs.iter().enumerate() {
        for new_child in apply_everywhere(child, rule, ctx, stats) {
            if let Some(rebuilt) = rebuild_with_child(plan, i, new_child, ctx, stats) {
                out.push(rebuilt);
            }
        }
    }
    out
}

/// Rebuild `plan` with input `i` replaced — its property vector (and thus
/// cost) must be re-derived; a rebuild that is no longer legal (e.g. a merge
/// join whose input lost its order) drops the candidate.
fn rebuild_with_child(
    plan: &PlanRef,
    i: usize,
    new_child: PlanRef,
    ctx: &XformCtx<'_>,
    stats: &mut XformStats,
) -> Option<PlanRef> {
    let mut inputs: Vec<PlanRef> = plan.inputs.to_vec();
    inputs[i] = new_child;
    stats.reestimations += 1;
    let op: Lolepop = plan.op.clone();
    ctx.prop.build(op, inputs, &ctx.prop_ctx()).ok()
}

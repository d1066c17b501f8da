//! The optimizer facade: rules in, plans out.

use std::collections::BTreeSet;
use std::sync::Arc;

use starqo_catalog::Catalog;
use starqo_plan::{panic_msg, CostModel, ExtPropFn, PlanRef, PropEngine};
use starqo_query::Query;
use starqo_trace::{Phase, SpanContext, TraceEvent};

use crate::budget::Budget;
use crate::compile::{compile_into, CompileEnv};
use crate::engine::{Engine, OptStats, QuarantineRecord};
use crate::enumerate::enumerate;
use crate::error::{CoreError, Result};
use crate::faults::FaultPlan;
use crate::hash::RunMap;
use crate::natives::Natives;
use crate::rules::RuleSet;
use crate::table::TableStats;

/// Compile-time parameters of an optimization run (§2.3 and §4 describe all
/// of these as parameters or rule conditions, not code).
#[derive(Debug, Clone, Default)]
pub struct OptConfig {
    /// Allow composite inners (bushy plans), e.g. `(A*B)*(C*D)`.
    pub composite_inners: bool,
    /// Consider Cartesian products between two streams of small estimated
    /// cardinality.
    pub cartesian: bool,
    /// Glue returns all satisfying plans instead of only the cheapest.
    pub glue_keep_all: bool,
    /// Enabled optional strategy families, tested by rules via
    /// `enabled('...')`: `hashjoin`, `force_projection`, `dynamic_index`,
    /// `tid_sort`.
    pub enabled: BTreeSet<String>,
    /// ABLATION: disable STAR-reference memoization (every reference
    /// re-expands). Quantifies §1's shared-fragment reuse.
    pub ablate_memo: bool,
    /// ABLATION: disable property-aware plan-table pruning (keep every
    /// non-duplicate plan). Quantifies the System-R style dominance test.
    pub ablate_pruning: bool,
    /// Resource budget for the run. Exhaustion degrades the run to greedy,
    /// best-so-far exploration (`Optimized::degraded`) instead of erroring.
    pub budget: Budget,
    /// Armed fault-injection plan (robustness testing; see
    /// [`crate::faults`]). `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl OptConfig {
    /// Enable an optional strategy family (chainable).
    pub fn enable(mut self, feature: &str) -> Self {
        self.enabled.insert(feature.to_string());
        self
    }

    /// Everything on: bushy plans, Cartesian products, and all §4.5
    /// extension strategies.
    pub fn full() -> Self {
        OptConfig {
            composite_inners: true,
            cartesian: true,
            glue_keep_all: false,
            enabled: ["hashjoin", "force_projection", "dynamic_index", "tid_sort"]
                .into_iter()
                .map(String::from)
                .collect(),
            ablate_memo: false,
            ablate_pruning: false,
            budget: Budget::default(),
            faults: None,
        }
    }
}

/// The outcome of one optimization.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen (cheapest) executable plan.
    pub best: PlanRef,
    /// All surviving alternatives for the full query (pre-final-Glue).
    pub root_alternatives: Vec<PlanRef>,
    /// Interpreter work counters.
    pub stats: OptStats,
    /// Plan-table churn counters.
    pub table_stats: TableStats,
    /// Wall nanos of enumeration, Glue included.
    pub enumerate_nanos: u64,
    /// Wall nanos inside top-level Glue invocations (a part of
    /// `enumerate_nanos`).
    pub glue_nanos: u64,
    /// Wall nanos the optimizer spent compiling its rule text.
    pub compile_nanos: u64,
    /// Plans retained in the plan table at the end.
    pub table_plans: usize,
    /// Relational keys in the plan table at the end.
    pub table_keys: usize,
    /// Rule provenance: node fingerprint → "Star[alt k]" (or "Glue") that
    /// first produced it — §1's "traced to explain the origin of any
    /// execution plan" — for the nodes of `best` and `root_alternatives`
    /// that a rule alternative or Glue produced (any other node has no
    /// rule in [`Self::origin_trace`]), and for no plan the run built and
    /// dropped. The labels are shared with the compiled rules.
    pub provenance: RunMap<u64, Arc<str>>,
    /// True when a budget resource ran out and the plan came from greedy,
    /// best-so-far exploration (anytime semantics). The plan is still
    /// complete and executable.
    pub degraded: bool,
    /// Which resource ran out first ("resource: detail"), when degraded.
    pub degraded_reason: Option<String>,
    /// Rule alternatives disabled after panicking or erroring during this
    /// run, with rendered diagnostics.
    pub quarantined: Vec<QuarantineRecord>,
}

impl Optimized {
    /// The run's phase times, by the telemetry plane's [`Phase`].
    pub fn phase_nanos(&self) -> [(Phase, u64); 3] {
        [
            (Phase::Enumerate, self.enumerate_nanos),
            (Phase::Glue, self.glue_nanos),
            (Phase::Compile, self.compile_nanos),
        ]
    }

    /// The origin chain of a plan: one line per node, pre-order, annotated
    /// with the rule alternative that produced it.
    pub fn origin_trace(&self, plan: &PlanRef) -> Vec<String> {
        let mut out = Vec::new();
        plan.visit(&mut |n| {
            let rule = self.provenance.get(&n.fingerprint());
            let rule = rule.map_or("(driver)", |s| s);
            out.push(format!("{} <= {}", n.op.name(), rule));
        });
        out
    }
}

/// A rule-driven query optimizer: a catalog, a cost model, a rule set
/// compiled from DSL text, a native-function registry, and a
/// property-function registry. The compiled repertoire does not depend on
/// the catalog and is shared by every [`Optimizer::with_catalog`] copy.
#[derive(Clone)]
pub struct Optimizer {
    catalog: Arc<Catalog>,
    model: CostModel,
    rules: Arc<RuleSet>,
    natives: Arc<Natives>,
    prop: Arc<PropEngine>,
    ext_ops: BTreeSet<String>,
    /// Accumulated wall time spent compiling rule text (reported as the
    /// `compile` phase of every subsequent optimization).
    compile_nanos: u64,
    /// Structural lint warnings accumulated over every `load_rules` call.
    warnings: Vec<starqo_dsl::LintWarning>,
}

impl Optimizer {
    /// An optimizer with the built-in rule files (§4's R\* strategy space
    /// plus the §4.5 extensions, which stay dormant until enabled).
    pub fn new(catalog: Arc<Catalog>) -> Result<Self> {
        let mut opt = Self::empty(catalog);
        opt.load_rules(crate::ACCESS_RULES)?;
        opt.load_rules(crate::JOIN_RULES)?;
        opt.load_rules(crate::EXTENSION_RULES)?;
        Ok(opt)
    }

    /// An optimizer with no rules loaded (build your own repertoire).
    pub fn empty(catalog: Arc<Catalog>) -> Self {
        Optimizer {
            catalog,
            model: CostModel::default(),
            rules: Arc::default(),
            natives: Arc::new(Natives::builtin()),
            prop: Arc::default(),
            ext_ops: BTreeSet::new(),
            compile_nanos: 0,
            warnings: Vec::new(),
        }
    }

    /// The same compiled repertoire, cost model and compile time over another
    /// catalog snapshot: what a new catalog epoch or a heal's corrected
    /// statistics need, without parsing a rule file again.
    pub fn with_catalog(&self, catalog: Arc<Catalog>) -> Self {
        Optimizer {
            catalog,
            ..self.clone()
        }
    }

    /// Compile additional rule text into the rule set. Re-defining an
    /// existing STAR *appends* alternatives (§4.5); new STARs simply become
    /// referenceable.
    pub fn load_rules(&mut self, text: &str) -> Result<()> {
        let started = std::time::Instant::now();
        let result = (|| {
            let ast = starqo_dsl::parse_rules(text)?;
            // Structural lints are advisory: legal-but-suspect rule shapes
            // accumulate as warnings instead of failing the load.
            self.warnings.extend(starqo_dsl::lint_rules(&ast));
            let env = CompileEnv {
                natives: &self.natives,
                ext_ops: &self.ext_ops,
            };
            compile_into(Arc::make_mut(&mut self.rules), &ast, &env)
        })();
        self.compile_nanos += started.elapsed().as_nanos() as u64;
        result
    }

    /// Structural lint warnings from every rule file loaded so far
    /// (unused parameters, unreachable alternatives, recursion without a
    /// base case).
    pub fn warnings(&self) -> &[starqo_dsl::LintWarning] {
        &self.warnings
    }

    /// Register a new LOLEPOP (§5): name + property function. Rules loaded
    /// afterwards may reference it like any built-in operator. The run-time
    /// routine is registered separately with the executor.
    pub fn register_ext_op(&mut self, name: &str, prop_fn: ExtPropFn) {
        Arc::make_mut(&mut self.prop).register_ext(name, prop_fn);
        self.ext_ops.insert(name.to_string());
    }

    /// Register a native condition/set function usable from rules.
    pub fn register_native(&mut self, name: &str, f: crate::natives::NativeFn) {
        Arc::make_mut(&mut self.natives).register(name, f);
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    pub fn set_cost_model(&mut self, model: CostModel) {
        self.model = model;
    }

    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Optimize one query under the given configuration.
    pub fn optimize(&self, query: &Query, config: &OptConfig) -> Result<Optimized> {
        self.optimize_spanned(query, config, &SpanContext::off())
    }

    /// [`Self::optimize`] with a request's span recorder attached: the
    /// engine records one span per non-memoized STAR expansion
    /// (`star:<Name>`, `meta` = the `star_ref` id) and per top-level Glue
    /// invocation, all nested under an `enumerate` span — the cold path of
    /// the request's span tree. A detailed request also carries the
    /// engine's, plan table's and Glue's events and the winner's
    /// `best_node` lineage; phase timings and work counters land in
    /// [`Optimized`] either way.
    pub fn optimize_spanned(
        &self,
        query: &Query,
        config: &OptConfig,
        spans: &SpanContext,
    ) -> Result<Optimized> {
        let mut engine = Engine::new(
            &self.rules,
            &self.natives,
            &self.prop,
            &self.catalog,
            query,
            &self.model,
            config,
        );
        engine.set_spans(spans.clone());
        let enumerate_span = spans.enter(Phase::Enumerate.name());
        let started = std::time::Instant::now();
        // Last-resort containment: panics escaping the engine's per-
        // alternative quarantine (e.g. from driver-level Glue) surface as
        // a typed error, never a process abort.
        let out =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| enumerate(&mut engine)))
            {
                Ok(r) => r,
                Err(payload) => Err(CoreError::Panicked {
                    context: "enumeration".to_string(),
                    msg: panic_msg(payload),
                }),
            };
        let enumerate_nanos = started.elapsed().as_nanos() as u64;
        drop(enumerate_span);
        let out = out?;
        // Annotate the winning plan's lineage: one pre-order `best_node` per
        // operator, with the rule alternative that produced it — offline
        // analytics recover "which rules built the winner" without
        // re-running the optimizer.
        if spans.is_detailed() {
            out.best.visit_depth(&mut |n, depth| {
                spans.detail(|| TraceEvent::BestNode {
                    op: n.op.name(),
                    fp: n.fingerprint(),
                    depth,
                    origin: engine.origin(n.fingerprint()).unwrap_or("(driver)").into(),
                    card: n.props.card,
                    cost: n.props.cost.total(),
                });
            });
        }
        let degraded = engine.degraded();
        let degraded_reason = engine.degraded_reason().map(str::to_string);
        Ok(Optimized {
            best: out.best,
            root_alternatives: out.root_alternatives,
            stats: engine.stats,
            table_stats: engine.table.stats,
            enumerate_nanos,
            // Glue time is nested inside enumeration; it is reported on its
            // own too, so callers see how much of enumeration is property
            // enforcement.
            glue_nanos: engine.glue_nanos(),
            compile_nanos: self.compile_nanos,
            table_plans: engine.table.total_plans(),
            table_keys: engine.table.total_keys(),
            provenance: out.provenance,
            degraded,
            degraded_reason,
            quarantined: engine.quarantine_log,
        })
    }
}

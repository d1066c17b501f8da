//! Property functions (§3.1, §5).
//!
//! > Each LOLEPOP changes selected properties, including adding cost, in a
//! > way determined by the arguments of its reference and the properties of
//! > any arguments that are plans. [...] These changes, including the
//! > appropriate cost and cardinality estimates, are defined in Starburst by
//! > a *property function* for each LOLEPOP.
//!
//! Per §5, adding a new LOLEPOP requires registering exactly two things: a
//! run-time execution routine (in `starqo-exec`) and a property function
//! (here, via [`PropEngine::register_ext`]). The default action on any
//! property is to leave it unchanged, so property functions clone the input
//! vector and touch only what their operator changes.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

use starqo_catalog::{Catalog, TID_COL};
use starqo_query::{Classifier, CmpOp, PredSet, QCol, QId, QSet, Query, Shared};

use crate::cost::CostModel;
use crate::error::{PlanError, Result};
use crate::lolepop::{AccessSpec, JoinFlavor, Lolepop};
use crate::node::{Inputs, PlanNode, PlanRef};
use crate::props::{AvailPath, ColSet, Cost, CostComponents, PathSource, Props};
use crate::sel::Selectivity;

/// Context every property function receives: catalog, query, cost model.
/// One context serves a whole optimization run, so what it derives per
/// quantifier (the catalog PATHS) is derived once and shared by every plan.
pub struct PropCtx<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a Query,
    pub model: &'a CostModel,
    paths: Vec<OnceCell<Shared<AvailPath>>>,
}

impl<'a> PropCtx<'a> {
    pub fn new(catalog: &'a Catalog, query: &'a Query, model: &'a CostModel) -> Self {
        PropCtx {
            catalog,
            query,
            model,
            paths: vec![OnceCell::new(); query.quantifiers.len()],
        }
    }

    pub fn sel(&self) -> Selectivity<'a> {
        Selectivity::new(self.catalog, self.query)
    }

    /// Width in bytes of a set of quantified columns (TID counts as 8).
    pub fn width(&self, cols: &[QCol]) -> f64 {
        let mut w = 0u64;
        for c in cols {
            if c.col.is_tid() {
                w += 8;
            } else {
                let t = self.catalog.table(self.query.quantifier(c.q).table);
                w += t.column(c.col).map(|col| col.width as u64).unwrap_or(8);
            }
        }
        (w.max(1)) as f64
    }

    /// Full stored row width of the table behind quantifier `q`.
    pub fn row_width(&self, q: QId) -> f64 {
        self.catalog
            .table(self.query.quantifier(q).table)
            .row_width() as f64
    }

    /// Catalog access paths of quantifier `q` as `AvailPath`s.
    pub fn catalog_paths(&self, q: QId) -> Shared<AvailPath> {
        let paths = self.paths[q.0 as usize].get_or_init(|| {
            let t = self.query.quantifier(q).table;
            let on_table = self.catalog.indexes_on(t);
            on_table
                .map(|ix| AvailPath {
                    key: ix.cols.iter().map(|c| QCol::new(q, *c)).collect(),
                    source: PathSource::Catalog(ix.id),
                    clustered: ix.clustered,
                })
                .collect()
        });
        paths.clone()
    }
}

/// Does the stream's order start with its sort key for `sp` —
/// `order_satisfies(&Classifier::sort_key(sp, input.tables))`, checked column
/// by column instead of building the key for every merge join derived?
fn ordered_on_sort_key(input: &Props, query: &Query, sp: PredSet) -> bool {
    // The distinct key columns seen so far are exactly `order[..matched]`.
    let mut matched = 0;
    for p in sp.iter() {
        for c in query.pred_cols(p) {
            if !input.tables.contains(c.q) || input.order[..matched].contains(c) {
                continue;
            }
            if input.order.get(matched) != Some(c) {
                return false;
            }
            matched += 1;
        }
    }
    true
}

/// Signature of an extension property function.
pub type ExtPropFn = Arc<dyn Fn(&Lolepop, &[&Props], &PropCtx<'_>) -> Result<Props> + Send + Sync>;

/// The property-function registry and plan builder.
#[derive(Default, Clone)]
pub struct PropEngine {
    ext: HashMap<String, ExtPropFn>,
}

impl PropEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the property function for an extension LOLEPOP (§5).
    pub fn register_ext(&mut self, name: &str, f: ExtPropFn) {
        self.ext.insert(name.to_string(), f);
    }

    pub fn has_ext(&self, name: &str) -> bool {
        self.ext.contains_key(name)
    }

    /// Derive the output property vector of `op` applied to `inputs`,
    /// validating plan legality along the way.
    pub fn derive(&self, op: &Lolepop, inputs: &[&Props], ctx: &PropCtx<'_>) -> Result<Props> {
        let need = op.arity();
        if inputs.len() != need {
            return Err(PlanError::Arity {
                op: op.name(),
                expected: need,
                got: inputs.len(),
            });
        }
        match op {
            Lolepop::Access { spec, cols, preds } => self.access(spec, cols, *preds, inputs, ctx),
            Lolepop::Get { q, cols, preds } => self.get(*q, cols, *preds, inputs[0], ctx),
            Lolepop::Sort { key } => self.sort(key, inputs[0], ctx),
            Lolepop::Ship { to } => self.ship(*to, inputs[0], ctx),
            Lolepop::Store => self.store(inputs[0], ctx),
            Lolepop::BuildIndex { key } => self.build_index(key, inputs[0], ctx),
            Lolepop::Filter { preds } => self.filter(*preds, inputs[0], ctx),
            Lolepop::Join {
                flavor,
                join_preds,
                residual,
            } => self.join(*flavor, *join_preds, *residual, inputs[0], inputs[1], ctx),
            Lolepop::Union => self.union(inputs[0], inputs[1], ctx),
            Lolepop::Ext { name, .. } => match self.ext.get(name.as_ref()) {
                Some(f) => f(op, inputs, ctx),
                None => Err(PlanError::UnknownExtOp(name.to_string())),
            },
        }
    }

    /// Derive properties and construct the node in one step.
    pub fn build(
        &self,
        op: Lolepop,
        inputs: impl Into<Inputs>,
        ctx: &PropCtx<'_>,
    ) -> Result<PlanRef> {
        let inputs = inputs.into();
        let props = match &*inputs {
            [] => self.derive(&op, &[], ctx),
            [a] => self.derive(&op, &[&a.props], ctx),
            [a, b] => self.derive(&op, &[&a.props, &b.props], ctx),
            more => {
                let in_props: Vec<&Props> = more.iter().map(|i| &i.props).collect();
                self.derive(&op, &in_props, ctx)
            }
        }?;
        Ok(PlanNode::with_props(op, inputs, props))
    }

    // ----- individual property functions -------------------------------

    fn access(
        &self,
        spec: &AccessSpec,
        cols: &ColSet,
        preds: PredSet,
        inputs: &[&Props],
        ctx: &PropCtx<'_>,
    ) -> Result<Props> {
        match spec {
            AccessSpec::HeapTable(q) => self.access_base(*q, cols, preds, false, ctx),
            AccessSpec::BTreeTable(q) => self.access_base(*q, cols, preds, true, ctx),
            AccessSpec::Index { index, q } => self.access_index(*index, *q, cols, preds, ctx),
            AccessSpec::TempHeap => self.access_temp(cols, preds, inputs[0], ctx),
            AccessSpec::TempIndex { key } => {
                self.access_temp_index(key, cols, preds, inputs[0], ctx)
            }
        }
    }

    fn access_base(
        &self,
        q: QId,
        cols: &ColSet,
        preds: PredSet,
        btree: bool,
        ctx: &PropCtx<'_>,
    ) -> Result<Props> {
        for c in cols.iter() {
            if c.q != q {
                return Err(PlanError::Scope {
                    op: "ACCESS",
                    detail: format!("column {c} not of accessed table"),
                });
            }
        }
        let table = ctx.catalog.table(ctx.query.quantifier(q).table);
        let local = QSet::single(q);
        let sel = ctx.sel();
        let base_card = table.card.max(1) as f64;
        let out_card = base_card * sel.preds(preds, local);
        let row_w = ctx.row_width(q);
        let cl = Classifier::new(ctx.query);
        let model = ctx.model;

        // For a B-tree storage manager, predicates matching a key prefix
        // restrict the range of pages scanned.
        let (scanned_frac, order) = if btree {
            let key = table.native_order();
            let (matched, ncols) = cl.index_matching(preds, q, key);
            let frac = if ncols > 0 {
                sel.preds(matched, local)
            } else {
                1.0
            };
            (frac, key.iter().map(|c| QCol::new(q, *c)).collect())
        } else {
            (1.0, Shared::EMPTY)
        };
        let scanned = base_card * scanned_frac;
        let rescan = model.scan_io(scanned, row_w) + model.stream_cpu(scanned, preds.len());

        Ok(Props {
            tables: local,
            cols: cols.clone(),
            preds,
            order,
            site: table.site,
            temp: false,
            paths: ctx.catalog_paths(q),
            card: out_card,
            cost: Cost::from_parts(CostComponents::ZERO, rescan),
        })
    }

    fn access_index(
        &self,
        index: starqo_catalog::IndexId,
        q: QId,
        cols: &ColSet,
        preds: PredSet,
        ctx: &PropCtx<'_>,
    ) -> Result<Props> {
        let ix = ctx.catalog.index(index);
        let table = ctx.catalog.table(ctx.query.quantifier(q).table);
        if ix.table != table.id {
            return Err(PlanError::Scope {
                op: "ACCESS(index)",
                detail: format!("index {} is not on table {}", ix.name, table.name),
            });
        }
        // The output stream can only carry the TID and key columns.
        let key_qcols: Shared<QCol> = ix.cols.iter().map(|c| QCol::new(q, *c)).collect();
        for c in cols.iter() {
            if c.q != q || (!c.col.is_tid() && !key_qcols.contains(c)) {
                return Err(PlanError::Scope {
                    op: "ACCESS(index)",
                    detail: format!("column {c} not available from index {}", ix.name),
                });
            }
        }
        // Applied predicates must be evaluable on key columns.
        let cl = Classifier::new(ctx.query);
        for p in preds.iter() {
            let mut on_q = ctx.query.pred_cols(p).iter().filter(|c| c.q == q);
            let ok = on_q.all(|c| key_qcols.contains(c));
            if !ok {
                return Err(PlanError::Scope {
                    op: "ACCESS(index)",
                    detail: format!("predicate {p} references non-key columns"),
                });
            }
        }
        let local = QSet::single(q);
        let sel = ctx.sel();
        let base_card = table.card.max(1) as f64;
        let (matched, ncols) = cl.index_matching(preds, q, &ix.cols);
        let matched_frac = if ncols > 0 {
            sel.preds(matched, local)
        } else {
            1.0
        };
        let entry_w = table.cols_width(&ix.cols).max(1) as f64 + 8.0; // key + TID
        let model = ctx.model;
        let leaf_pages = model.pages(base_card, entry_w);
        let rescan = if ncols > 0 {
            model.probe_cost(matched_frac * leaf_pages)
                + model.stream_cpu(base_card * matched_frac, preds.minus(matched).len())
        } else {
            // Full index scan.
            CostComponents::io(leaf_pages * model.w_io) + model.stream_cpu(base_card, preds.len())
        };
        Ok(Props {
            tables: local,
            cols: cols.clone(),
            preds,
            order: key_qcols,
            site: table.site,
            temp: false,
            paths: ctx.catalog_paths(q),
            card: base_card * sel.preds(preds, local),
            cost: Cost::from_parts(CostComponents::ZERO, rescan),
        })
    }

    fn access_temp(
        &self,
        cols: &ColSet,
        preds: PredSet,
        input: &Props,
        ctx: &PropCtx<'_>,
    ) -> Result<Props> {
        if !input.temp {
            return Err(PlanError::Invalid(
                "ACCESS(temp) over a non-materialized input".into(),
            ));
        }
        for c in cols.iter() {
            if !input.cols.contains(c) {
                return Err(PlanError::Scope {
                    op: "ACCESS(temp)",
                    detail: format!("column {c} not stored in temp"),
                });
            }
        }
        let sel = ctx.sel();
        let mut out = input.clone();
        out.cols = cols.clone();
        out.preds = input.preds.union(preds);
        out.card = input.card * sel.preds(preds.minus(input.preds), input.tables);
        out.cost = Cost::from_parts(
            input.cost.once_by,
            input.cost.rescan_by + ctx.model.stream_cpu(input.card, preds.len()),
        );
        Ok(out)
    }

    fn access_temp_index(
        &self,
        key: &[QCol],
        cols: &ColSet,
        preds: PredSet,
        input: &Props,
        ctx: &PropCtx<'_>,
    ) -> Result<Props> {
        if !input.temp {
            return Err(PlanError::Invalid(
                "ACCESS(temp-index) over a non-materialized input".into(),
            ));
        }
        if input.path_with_prefix(key).is_none() && !key.is_empty() {
            // The key itself must be an available path (BUILD_INDEX ran).
            let exact = input.paths.iter().any(|p| p.key.starts_with(key));
            if !exact {
                return Err(PlanError::Invalid(format!(
                    "ACCESS(temp-index): no available path with key prefix {key:?}"
                )));
            }
        }
        for c in cols.iter() {
            if !input.cols.contains(c) {
                return Err(PlanError::Scope {
                    op: "ACCESS(temp-index)",
                    detail: format!("column {c} not stored in temp"),
                });
            }
        }
        let sel = ctx.sel();
        let cl = Classifier::new(ctx.query);
        // QCol-level prefix matching against the dynamic key.
        let mut matched = PredSet::EMPTY;
        for kc in key {
            let mut any_eq = false;
            for p in preds.iter() {
                if cl.sargable_on(p, *kc) == Some(CmpOp::Eq) {
                    matched = matched.insert(p);
                    any_eq = true;
                }
            }
            if !any_eq {
                for p in preds.iter() {
                    if matches!(
                        cl.sargable_on(p, *kc),
                        Some(CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
                    ) {
                        matched = matched.insert(p);
                    }
                }
                break;
            }
        }
        let model = ctx.model;
        let matched_frac = sel.preds(matched, input.tables);
        let key_set: ColSet = key.iter().copied().collect();
        let leaf_pages = model.pages(input.card, ctx.width(&key_set) + 8.0);
        let matched_card = input.card * matched_frac;
        let rescan = model.probe_cost(matched_frac * leaf_pages)
            + CostComponents::io(
                matched_card * model.fetch_io * model.clustered_factor * model.w_io,
            )
            + model.stream_cpu(matched_card, preds.minus(matched).len());
        let mut out = input.clone();
        out.cols = cols.clone();
        out.preds = input.preds.union(preds);
        out.order = key.into();
        out.card = input.card * sel.preds(preds.minus(input.preds), input.tables);
        out.cost = Cost::from_parts(input.cost.once_by, rescan);
        Ok(out)
    }

    fn get(
        &self,
        q: QId,
        cols: &ColSet,
        preds: PredSet,
        input: &Props,
        ctx: &PropCtx<'_>,
    ) -> Result<Props> {
        let tid = QCol::new(q, TID_COL);
        if !input.cols.contains(&tid) {
            return Err(PlanError::Scope {
                op: "GET",
                detail: format!("input stream carries no TID for {q}"),
            });
        }
        if input.tables != QSet::single(q) {
            return Err(PlanError::Scope {
                op: "GET",
                detail: "input must be a single-table TID stream".into(),
            });
        }
        for c in cols.iter() {
            if c.q != q {
                return Err(PlanError::Scope {
                    op: "GET",
                    detail: format!("column {c} not of fetched table"),
                });
            }
        }
        // Fetches are sequential-ish (cheap) if the TID stream arrives in
        // the order of a clustered path, or if it has been explicitly
        // SORTed on the TID itself — the "sorting TIDs taken from an
        // unordered index in order to order I/O accesses to data pages"
        // strategy the paper lists in §4.
        let clustered = !input.order.is_empty()
            && input
                .paths
                .iter()
                .any(|p| p.clustered && p.covers_prefix(&input.order[..1.min(input.order.len())]));
        let tid_ordered = input.order.first() == Some(&tid);
        let model = ctx.model;
        let factor = if clustered || tid_ordered {
            model.clustered_factor
        } else {
            1.0
        };
        let n = input.card;
        let io = CostComponents::io(n * model.fetch_io * factor * model.w_io);
        let cpu = model.stream_cpu(n, preds.len());
        let sel = ctx.sel();
        let mut out = input.clone();
        let carried = input.cols.iter().filter(|c| !c.col.is_tid());
        out.cols = cols.iter().chain(carried).copied().collect();
        out.preds = input.preds.union(preds);
        out.card = n * sel.preds(preds.minus(input.preds), QSet::single(q));
        out.cost = Cost::from_parts(input.cost.once_by, input.cost.rescan_by + io + cpu);
        Ok(out)
    }

    fn sort(&self, key: &Shared<QCol>, input: &Props, ctx: &PropCtx<'_>) -> Result<Props> {
        for c in key.iter() {
            if !input.cols.contains(c) {
                return Err(PlanError::Scope {
                    op: "SORT",
                    detail: format!("sort column {c} not in stream"),
                });
            }
        }
        let model = ctx.model;
        let width = ctx.width(&input.cols);
        let mut out = input.clone();
        out.order = key.clone();
        out.cost = Cost::from_parts(
            input.cost.breakdown() + model.sort_cost(input.card, width),
            model.scan_io(input.card, width) + model.stream_cpu(input.card, 0),
        );
        Ok(out)
    }

    fn ship(&self, to: starqo_catalog::SiteId, input: &Props, ctx: &PropCtx<'_>) -> Result<Props> {
        let model = ctx.model;
        let mut out = input.clone();
        out.site = to;
        // Shipping preserves order (streams are sent in sequence) but the
        // destination has neither the temp nor its access paths.
        out.temp = false;
        out.paths = Shared::EMPTY;
        if input.site != to {
            out.cost = Cost::from_parts(
                input.cost.once_by,
                input.cost.rescan_by + model.ship_cost(input.card, ctx.width(&input.cols)),
            );
        }
        Ok(out)
    }

    fn store(&self, input: &Props, ctx: &PropCtx<'_>) -> Result<Props> {
        let model = ctx.model;
        let width = ctx.width(&input.cols);
        let mut out = input.clone();
        out.temp = true;
        out.paths = Shared::EMPTY; // a fresh temp has no auxiliary access paths
        out.cost = Cost::from_parts(
            input.cost.breakdown()
                + CostComponents::io(model.pages(input.card, width) * model.w_io),
            model.scan_io(input.card, width) + model.stream_cpu(input.card, 0),
        );
        Ok(out)
    }

    fn build_index(&self, key: &[QCol], input: &Props, ctx: &PropCtx<'_>) -> Result<Props> {
        if !input.temp {
            return Err(PlanError::Invalid(
                "BUILD_INDEX requires a materialized temp".into(),
            ));
        }
        if key.is_empty() {
            return Err(PlanError::Invalid("BUILD_INDEX with empty key".into()));
        }
        for c in key {
            if !input.cols.contains(c) {
                return Err(PlanError::Scope {
                    op: "BUILD_INDEX",
                    detail: format!("key column {c} not in temp"),
                });
            }
        }
        let key_set: ColSet = key.iter().copied().collect();
        let model = ctx.model;
        let mut out = input.clone();
        let built = AvailPath {
            key: key.into(),
            source: PathSource::Dynamic,
            clustered: false,
        };
        out.paths = input.paths.iter().cloned().chain([built]).collect();
        out.cost = Cost::from_parts(
            input.cost.once_by + model.index_build_cost(input.card, ctx.width(&key_set)),
            input.cost.rescan_by,
        );
        Ok(out)
    }

    fn filter(&self, preds: PredSet, input: &Props, ctx: &PropCtx<'_>) -> Result<Props> {
        let sel = ctx.sel();
        let mut out = input.clone();
        out.preds = input.preds.union(preds);
        let new = preds.minus(input.preds);
        out.card = input.card * sel.preds(new, input.tables);
        out.cost = Cost::from_parts(
            input.cost.once_by,
            input.cost.rescan_by + ctx.model.stream_cpu(input.card, preds.len()),
        );
        Ok(out)
    }

    fn join(
        &self,
        flavor: JoinFlavor,
        join_preds: PredSet,
        residual: PredSet,
        outer: &Props,
        inner: &Props,
        ctx: &PropCtx<'_>,
    ) -> Result<Props> {
        if outer.site != inner.site {
            return Err(PlanError::SiteMismatch { op: "JOIN" });
        }
        if !outer.tables.is_disjoint(inner.tables) {
            return Err(PlanError::Invalid("JOIN inputs share quantifiers".into()));
        }
        let both = outer.tables.union(inner.tables);
        let cl = Classifier::new(ctx.query);
        let model = ctx.model;
        let sel = ctx.sel();

        // Merge join legality: both inputs must be ordered on the
        // sortable-predicate columns (§4.4).
        if flavor == JoinFlavor::MG {
            if join_preds.is_empty() {
                return Err(PlanError::Invalid(
                    "merge join with no join predicates".into(),
                ));
            }
            let ok = cl.sortable_preds(join_preds, outer.tables, inner.tables) == join_preds;
            if !ok {
                return Err(PlanError::Invalid(
                    "merge join predicates must be sortable (col = col)".into(),
                ));
            }
            for (input, side) in [(outer, "outer"), (inner, "inner")] {
                if !ordered_on_sort_key(input, ctx.query, join_preds) {
                    let key = cl.sort_key(join_preds, input.tables);
                    let order = &input.order;
                    return Err(PlanError::OrderViolation {
                        detail: format!("{side} order {order:?} lacks prefix {key:?}"),
                    });
                }
            }
        }
        if flavor == JoinFlavor::HA {
            let ok = cl.hashable_preds(join_preds, outer.tables, inner.tables) == join_preds;
            if !ok || join_preds.is_empty() {
                return Err(PlanError::Invalid(
                    "hash join predicates must be hashable equalities".into(),
                ));
            }
        }

        // Cardinality: apply only predicates not already applied by inputs.
        let new_preds = join_preds
            .union(residual)
            .minus(outer.preds)
            .minus(inner.preds);
        let card = (outer.card * inner.card * sel.preds(new_preds, both)).max(0.0);

        let cost = match flavor {
            JoinFlavor::NL => Cost::from_parts(
                outer.cost.once_by + inner.cost.once_by,
                outer.cost.rescan_by
                    + inner.cost.rescan_by * outer.card.max(1.0)
                    + model.stream_cpu(outer.card, 0)
                    + model.stream_cpu(card, residual.len()),
            ),
            JoinFlavor::MG => Cost::from_parts(
                outer.cost.once_by + inner.cost.once_by,
                outer.cost.rescan_by
                    + inner.cost.rescan_by
                    + model.stream_cpu(outer.card + inner.card, join_preds.len())
                    + model.stream_cpu(card, residual.len()),
            ),
            JoinFlavor::HA => Cost::from_parts(
                // Build the hash table on the inner once.
                outer.cost.once_by
                    + inner.cost.once_by
                    + inner.cost.rescan_by
                    + CostComponents::cpu(inner.card * model.hash_cpu),
                outer.cost.rescan_by
                    + CostComponents::cpu(outer.card * model.hash_cpu)
                    + model.stream_cpu(card, join_preds.union(residual).len()),
            ),
        };

        let order = match flavor {
            // NL and MG preserve the outer's order; hash join destroys order.
            JoinFlavor::NL | JoinFlavor::MG => outer.order.clone(),
            JoinFlavor::HA => Shared::EMPTY,
        };
        Ok(Props {
            tables: both,
            cols: outer.cols.union(&inner.cols),
            preds: outer
                .preds
                .union(inner.preds)
                .union(join_preds)
                .union(residual),
            order,
            site: outer.site,
            temp: false,
            paths: Shared::EMPTY,
            card,
            cost,
        })
    }

    fn union(&self, l: &Props, r: &Props, ctx: &PropCtx<'_>) -> Result<Props> {
        if l.site != r.site {
            return Err(PlanError::SiteMismatch { op: "UNION" });
        }
        if l.cols != r.cols {
            return Err(PlanError::Invalid(
                "UNION inputs not union-compatible".into(),
            ));
        }
        let _ = ctx;
        let mut out = l.clone();
        out.preds = l.preds.intersect(r.preds);
        out.order = Shared::EMPTY;
        out.temp = false;
        out.paths = Shared::EMPTY;
        out.card = l.card + r.card;
        out.cost = Cost::from_parts(
            l.cost.once_by + r.cost.once_by,
            l.cost.rescan_by + r.cost.rescan_by,
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::{ColId, DataType, SiteId, StorageKind};
    use starqo_query::parse_query;

    /// The column-by-column check is `order_satisfies` of the built key, on
    /// a predicate set whose sort key drops a repeated column.
    #[test]
    fn ordered_on_sort_key_is_order_satisfies_of_the_key() {
        let cat = Catalog::builder()
            .site("s")
            .table("A", "s", StorageKind::Heap, 100)
            .column("X", DataType::Int, Some(10))
            .column("W", DataType::Int, Some(10))
            .table("B", "s", StorageKind::Heap, 100)
            .column("Y", DataType::Int, Some(10))
            .column("Z", DataType::Int, Some(10))
            .build()
            .unwrap();
        let sql = "SELECT A.X FROM A, B WHERE A.X = B.Y AND A.X = B.Z AND A.W = B.Z";
        let query = parse_query(&cat, sql).unwrap();
        let sp = query.all_preds();
        let cl = Classifier::new(&query);
        let col = |q: u32, c: u32| QCol::new(QId(q), ColId(c));
        let orders: [&[QCol]; 8] = [
            &[],
            &[col(0, 0)],
            &[col(0, 0), col(0, 1)],
            &[col(0, 1), col(0, 0)],
            &[col(0, 0), col(0, 1), col(1, 0)],
            &[col(1, 0)],
            &[col(1, 0), col(1, 1)],
            &[col(1, 1), col(1, 0)],
        ];
        for q in [QId(0), QId(1)] {
            for order in orders {
                let mut props = Props::empty(SiteId(0));
                props.tables = QSet::single(q);
                props.order = order.into();
                let key = cl.sort_key(sp, props.tables);
                assert_eq!(
                    ordered_on_sort_key(&props, &query, sp),
                    props.order_satisfies(&key),
                    "order {order:?}, key {key:?}"
                );
            }
        }
    }
}

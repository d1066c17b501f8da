//! E11 / §5: extensibility — add a new LOLEPOP and a new JMeth alternative
//! at run time, purely through the registries and rule text.
//!
//! The new strategy is the **Bloom join** — one of the filtration methods
//! the paper explicitly lists as expressible-but-omitted (§4): the outer
//! builds a Bloom filter on the join columns, the inner is pre-filtered
//! before joining. Adding it takes exactly what §5 prescribes: a property
//! function, a run-time routine, and a STAR alternative — zero engine
//! changes.

use std::sync::Arc;

use starqo_core::{OptConfig, Optimizer};
use starqo_exec::{reference_eval, rows_equal_multiset, Executor};
use starqo_plan::{Cost, Lolepop};
use starqo_query::{parse_query, CmpOp, PredExpr, Scalar};
use starqo_workload::{synth_catalog, synth_database, SynthSpec};

/// The BLOOMJOIN rule text: appended to JMeth like any §4.5 alternative.
pub const BLOOMJOIN_RULE: &str = "
star JMeth(T1, T2, P) =
    with IP = inner_preds(P, T2),
         HP = hashable_preds(join_preds(P), T1, T2)
    [
        BLOOMJOIN(Glue(T1, {}), Glue(T2, IP), HP, P - IP)
            if enabled('bloomjoin') and not is_empty(HP);
    ]
";

/// Register the BLOOMJOIN property function on an optimizer.
pub fn register_bloomjoin(opt: &mut Optimizer) {
    opt.register_ext_op(
        "BLOOMJOIN",
        Arc::new(|op, inputs, ctx| {
            let Lolepop::Ext { args, .. } = op else {
                unreachable!()
            };
            let (jp, residual) = match (&args[0], &args[1]) {
                (starqo_plan::ExtArg::Preds(a), starqo_plan::ExtArg::Preds(b)) => (*a, *b),
                _ => {
                    return Err(starqo_plan::PlanError::Invalid(
                        "BLOOMJOIN expects (outer, inner, preds, preds)".into(),
                    ))
                }
            };
            let (o, i) = (inputs[0], inputs[1]);
            if o.site != i.site {
                return Err(starqo_plan::PlanError::SiteMismatch { op: "BLOOMJOIN" });
            }
            let model = ctx.model;
            let sel = ctx.sel();
            let both = o.tables.union(i.tables);
            let new_preds = jp.union(residual).minus(o.preds).minus(i.preds);
            let card = o.card * i.card * sel.preds(new_preds, both);
            // Like a hash join, but the Bloom filter (built from the outer)
            // discards most non-matching inner tuples before the join: the
            // probe-side CPU shrinks by the filter's pass rate.
            let pass = (o.card / sel.ndv_max(jp, i.tables).max(1.0)).clamp(0.01, 1.0);
            let mut out = o.clone();
            out.tables = both;
            out.cols.extend(i.cols.iter().copied());
            out.preds = o.preds.union(i.preds).union(jp).union(residual);
            out.order = Default::default();
            out.temp = false;
            out.paths = Default::default();
            out.card = card;
            out.cost = Cost::new(
                o.cost.once + i.cost.once + o.card * model.hash_cpu,
                o.cost.rescan
                    + i.cost.rescan
                    + i.card * pass * model.hash_cpu
                    + model.stream_cpu(card, new_preds.len()).total(),
            );
            Ok(out)
        }),
    );
}

/// Register the BLOOMJOIN run-time routine on an executor (semantically a
/// hash join whose inner is pre-filtered by the outer's key set — an exact
/// filter standing in for the Bloom filter's approximation).
pub fn register_bloomjoin_exec(ex: &mut Executor<'_>) {
    ex.register_ext(
        "BLOOMJOIN",
        Arc::new(|query, op, inputs, out_schema| {
            let Lolepop::Ext { args, .. } = op else {
                unreachable!()
            };
            let (jp, residual) = match (&args[0], &args[1]) {
                (starqo_plan::ExtArg::Preds(a), starqo_plan::ExtArg::Preds(b)) => (*a, *b),
                _ => return Err(starqo_exec::ExecError::BadPlan("bad BLOOMJOIN args".into())),
            };
            let (o_schema, o_rows) = &inputs[0];
            let (i_schema, i_rows) = &inputs[1];
            // Extract (outer expr, inner expr) pairs from the hashable
            // predicates.
            let o_tables = starqo_query::QSet::from_iter(o_schema.iter().map(|c| c.q));
            let mut pairs: Vec<(Scalar, Scalar)> = Vec::new();
            for p in jp.iter() {
                if let PredExpr::Cmp(CmpOp::Eq, l, r) = &query.pred(p).expr {
                    if l.quantifiers().is_subset_of(o_tables) {
                        pairs.push((l.clone(), r.clone()));
                    } else {
                        pairs.push((r.clone(), l.clone()));
                    }
                }
            }
            let bindings = Default::default();
            let key_of = |schema: &[starqo_query::QCol],
                          row: &starqo_storage::Tuple,
                          exprs: &[Scalar]|
             -> starqo_exec::Result<Option<Vec<starqo_catalog::Value>>> {
                let view = starqo_exec::scalar::RowView {
                    schema,
                    row,
                    bindings: &bindings,
                };
                let mut key = Vec::with_capacity(exprs.len());
                for e in exprs {
                    let v = starqo_exec::scalar::eval_scalar(e, &view)?;
                    if v.is_null() {
                        return Ok(None);
                    }
                    key.push(v);
                }
                Ok(Some(key))
            };
            let o_exprs: Vec<Scalar> = pairs.iter().map(|(o, _)| o.clone()).collect();
            let i_exprs: Vec<Scalar> = pairs.iter().map(|(_, i)| i.clone()).collect();
            // "Bloom filter": the outer's key set.
            let mut filter = std::collections::HashSet::new();
            let mut table: std::collections::HashMap<_, Vec<usize>> = Default::default();
            for (idx, o) in o_rows.iter().enumerate() {
                if let Some(k) = key_of(o_schema, o, &o_exprs)? {
                    filter.insert(k.clone());
                    table.entry(k).or_default().push(idx);
                }
            }
            let mut out = Vec::new();
            let all = jp.union(residual);
            for i in i_rows {
                let Some(k) = key_of(i_schema, i, &i_exprs)? else {
                    continue;
                };
                if !filter.contains(&k) {
                    continue; // filtered before the join
                }
                for oi in table.get(&k).into_iter().flatten() {
                    let o = &o_rows[*oi];
                    let combined: starqo_storage::Tuple = out_schema
                        .iter()
                        .map(|c| {
                            if let Some(p) = o_schema.iter().position(|s| s == c) {
                                o.get(p).clone()
                            } else if let Some(p) = i_schema.iter().position(|s| s == c) {
                                i.get(p).clone()
                            } else {
                                starqo_catalog::Value::Null
                            }
                        })
                        .collect();
                    let view = starqo_exec::scalar::RowView {
                        schema: out_schema,
                        row: &combined,
                        bindings: &bindings,
                    };
                    if starqo_exec::scalar::eval_preds(query, all, &view)? {
                        out.push(combined);
                    }
                }
            }
            Ok(out)
        }),
    );
}

/// E11: the full extensibility walkthrough.
pub fn e11_extensibility() -> crate::Report {
    let mut r = crate::Report::new("E11", "§5 extensibility — adding BLOOMJOIN at run time");
    let spec = SynthSpec {
        tables: 2,
        card_range: (5_000, 5_000),
        index_prob: 0.0,
        btree_prob: 0.0,
        ..Default::default()
    };
    let cat = synth_catalog(31, &spec);
    // The selective outer predicate is what gives the Bloom filter teeth:
    // few outer keys survive, so the filter discards most of the inner
    // before the join.
    let query = parse_query(
        &cat,
        "SELECT t0.ID, t1.ID FROM T0 t0, T1 t1 WHERE t0.FK = t1.ID AND t0.P0 = 0",
    )
    .unwrap();

    // Before: the stock optimizer.
    let stock = Optimizer::new(cat.clone()).expect("rules");
    let config = OptConfig::default().enable("bloomjoin").enable("hashjoin");
    let before = stock.optimize(&query, &config).expect("optimize");
    r.absorb(&before);
    r.line(format!(
        "before extension: best = {}  (cost {:.0})",
        before.best.op_names().join(" <- "),
        before.best.props.cost.total()
    ));

    // Extend: property function + rule text. No engine code touched.
    let mut extended = Optimizer::new(cat.clone()).expect("rules");
    register_bloomjoin(&mut extended);
    let ((), compile_ms) = crate::time_ms(|| {
        extended
            .load_rules(BLOOMJOIN_RULE)
            .expect("extension rules compile");
    });
    r.line(format!("extension rule compiled in {compile_ms:.2} ms"));
    let after = extended.optimize(&query, &config).expect("optimize");
    r.absorb(&after);
    r.line(format!(
        "after extension:  best = {}  (cost {:.0})",
        after.best.op_names().join(" <- "),
        after.best.props.cost.total()
    ));
    assert!(after.best.props.cost.total() <= before.best.props.cost.total() + 1e-9);
    let uses_bloom = after
        .best
        .any(&|n| matches!(&n.op, Lolepop::Ext { name, .. } if name.as_ref() == "BLOOMJOIN"));
    r.line(format!("bloom join chosen: {uses_bloom}"));

    // And it runs, with the same answer as the reference evaluator.
    let db = synth_database(31, cat);
    let mut ex = Executor::new(&db, &query);
    register_bloomjoin_exec(&mut ex);
    let got = ex.run(&after.best).expect("executes");
    let want = reference_eval(&db, &query).expect("reference");
    assert!(rows_equal_multiset(&got.rows, &want));
    r.line(format!(
        "executed: {} rows, identical to the reference evaluator",
        got.rows.len()
    ));
    r.line("");
    r.line("Changes required: 1 property function + 1 run-time routine +");
    r.line("5 lines of rule text. Engine, enumerator, and Glue untouched.");
    r
}

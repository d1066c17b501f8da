//! Extensibility (§5): teach the optimizer a brand-new join strategy at run
//! time — a Bloom join, one of the filtration methods the paper lists as
//! expressible (§4) — by registering a property function, an execution
//! routine, and five lines of rule text. No engine code changes.
//!
//! ```sh
//! cargo run --example extend_with_dsl
//! ```

use std::sync::Arc;

use starqo::prelude::*;
use starqo_plan::{Cost, ExtArg};
use starqo_query::{CmpOp, PredExpr, Scalar};

/// §4.5-style rule text: appending a definition to JMeth adds the
/// alternative to every join the optimizer considers.
const BLOOMJOIN_RULE: &str = "
star JMeth(T1, T2, P) =
    with IP = inner_preds(P, T2),
         HP = hashable_preds(join_preds(P), T1, T2)
    [
        BLOOMJOIN(Glue(T1, {}), Glue(T2, IP), HP, P - IP)
            if enabled('bloomjoin') and not is_empty(HP);
    ]
";

fn main() {
    let cat = std::sync::Arc::new(
        Catalog::builder()
            .site("x")
            .table("R", "x", StorageKind::Heap, 5_000)
            .column("K", DataType::Int, Some(5_000))
            .column("G", DataType::Int, Some(500))
            .table("S", "x", StorageKind::Heap, 5_000)
            .column("K", DataType::Int, Some(5_000))
            .build()
            .expect("catalog"),
    );
    // The selective predicate on R is what gives the Bloom filter teeth.
    let query = parse_query(
        &cat,
        "SELECT R.K, S.K FROM R, S WHERE R.K = S.K AND R.G = 0",
    )
    .expect("query");

    // Stock optimizer first.
    let stock = Optimizer::new(cat.clone()).expect("rules compile");
    let config = OptConfig::default().enable("hashjoin").enable("bloomjoin");
    let before = stock.optimize(&query, &config).expect("optimize");
    println!(
        "before extension: {} (cost {:.0})",
        before.best.op_names().join(" <- "),
        before.best.props.cost.total()
    );

    // ---- the extension: §5's three steps ------------------------------

    // (1) A property function for the new LOLEPOP.
    let mut extended = Optimizer::new(cat.clone()).expect("rules compile");
    extended.register_ext_op(
        "BLOOMJOIN",
        Arc::new(|op, inputs, ctx| {
            let Lolepop::Ext { args, .. } = op else {
                unreachable!()
            };
            let (ExtArg::Preds(jp), ExtArg::Preds(residual)) = (&args[0], &args[1]) else {
                return Err(starqo_plan::PlanError::Invalid("bad BLOOMJOIN args".into()));
            };
            let (o, i) = (inputs[0], inputs[1]);
            if o.site != i.site {
                return Err(starqo_plan::PlanError::SiteMismatch { op: "BLOOMJOIN" });
            }
            let sel = ctx.sel();
            let both = o.tables.union(i.tables);
            let new_preds = jp.union(*residual).minus(o.preds).minus(i.preds);
            // The filter (built from the outer) passes roughly
            // |outer| / ndv(inner join key) of the inner.
            let pass = (o.card / sel.ndv_max(*jp, i.tables).max(1.0)).clamp(0.01, 1.0);
            let mut out = o.clone();
            out.tables = both;
            out.cols.extend(i.cols.iter().copied());
            out.preds = o.preds.union(i.preds).union(*jp).union(*residual);
            out.order = Default::default();
            out.paths = Default::default();
            out.card = o.card * i.card * sel.preds(new_preds, both);
            out.cost = Cost::new(
                o.cost.once + i.cost.once + o.card * ctx.model.hash_cpu,
                o.cost.rescan
                    + i.cost.rescan
                    + i.card * pass * ctx.model.hash_cpu
                    + ctx.model.stream_cpu(out.card, new_preds.len()).total(),
            );
            Ok(out)
        }),
    );

    // (2) The rule text, compiled like any other STAR file.
    extended
        .load_rules(BLOOMJOIN_RULE)
        .expect("extension rule compiles");

    let after = extended.optimize(&query, &config).expect("optimize");
    println!(
        "after extension:  {} (cost {:.0})",
        after.best.op_names().join(" <- "),
        after.best.props.cost.total()
    );
    assert!(after
        .best
        .any(&|n| matches!(&n.op, Lolepop::Ext { name, .. } if name.as_ref() == "BLOOMJOIN")));

    // (3) The run-time routine, registered with the evaluator. (Here the
    // "Bloom filter" is exact — the outer's key set — so results are exact.)
    let mut loader = DatabaseBuilder::new(cat.clone());
    for k in 0..5_000i64 {
        loader
            .insert("R", vec![Value::Int(k), Value::Int(k % 500)])
            .unwrap();
        loader.insert("S", vec![Value::Int(k)]).unwrap();
    }
    let db = loader.build().expect("database");
    let mut executor = Executor::new(&db, &query);
    executor.register_ext(
        "BLOOMJOIN",
        Arc::new(|query, op, inputs, out_schema| {
            let Lolepop::Ext { args, .. } = op else {
                unreachable!()
            };
            let (ExtArg::Preds(jp), ExtArg::Preds(residual)) = (&args[0], &args[1]) else {
                return Err(starqo_exec::ExecError::BadPlan("bad args".into()));
            };
            let (o_schema, o_rows) = &inputs[0];
            let (i_schema, i_rows) = &inputs[1];
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
            let key = |schema: &[starqo_query::QCol],
                       row: &starqo_storage::Tuple,
                       exprs: &[&Scalar]|
             -> starqo_exec::Result<Vec<Value>> {
                let view = starqo_exec::scalar::RowView {
                    schema,
                    row,
                    bindings: &bindings,
                };
                exprs
                    .iter()
                    .map(|e| starqo_exec::scalar::eval_scalar(e, &view))
                    .collect()
            };
            let o_exprs: Vec<&Scalar> = pairs.iter().map(|(o, _)| o).collect();
            let i_exprs: Vec<&Scalar> = pairs.iter().map(|(_, i)| i).collect();
            let mut table: std::collections::HashMap<Vec<Value>, Vec<usize>> = Default::default();
            for (idx, o) in o_rows.iter().enumerate() {
                table
                    .entry(key(o_schema, o, &o_exprs)?)
                    .or_default()
                    .push(idx);
            }
            let mut out = Vec::new();
            let all = jp.union(*residual);
            for i in i_rows {
                let k = key(i_schema, i, &i_exprs)?;
                // The filter step: inner tuples missing from the outer's key
                // set are discarded before the join.
                let Some(matches) = table.get(&k) else {
                    continue;
                };
                for oi in matches {
                    let o = &o_rows[*oi];
                    let combined: starqo_storage::Tuple = out_schema
                        .iter()
                        .map(|c| {
                            o_schema
                                .iter()
                                .position(|s| s == c)
                                .map(|p| o.get(p).clone())
                                .or_else(|| {
                                    i_schema
                                        .iter()
                                        .position(|s| s == c)
                                        .map(|p| i.get(p).clone())
                                })
                                .unwrap_or(Value::Null)
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
    let result = executor.run(&after.best).expect("execute");
    let reference = reference_eval(&db, &query).expect("reference");
    assert!(rows_equal_multiset(&result.rows, &reference));
    println!(
        "\nexecuted: {} rows, identical to the reference evaluator ✓",
        result.rows.len()
    );
    println!("total engine code modified: none.");
}

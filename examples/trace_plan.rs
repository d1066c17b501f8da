//! Observability tour: optimize and execute a 3-way join recorded as one
//! detailed span tree, then show
//!
//! 1. the rule-firing events behind every operator of the chosen plan,
//! 2. `EXPLAIN ANALYZE` — estimated CARD/COST against actual rows and time,
//! 3. the per-phase timing and counter summary.
//!
//! The tree — spans plus every optimizer and executor event — is also
//! written to `target/trace_plan.jsonl` (one JSON object) — under `target/`
//! so run artifacts never land in the repo root — for `starqo-obs profile`,
//! `flame`, `spans --chrome` and `timeline`.
//!
//! ```sh
//! cargo run --example trace_plan
//! ```

use std::sync::Arc;
use std::time::Instant;

use starqo::prelude::*;

fn main() {
    // A 3-table schema: customers place orders for items.
    let cat = Arc::new(
        Catalog::builder()
            .site("hq")
            .table("CUSTOMERS", "hq", StorageKind::Heap, 200)
            .column("CID", DataType::Int, Some(200))
            .column("NAME", DataType::Str, None)
            .column("TIER", DataType::Int, Some(4))
            .table("ORDERS", "hq", StorageKind::Heap, 2_000)
            .column("OID", DataType::Int, Some(2_000))
            .column("CID", DataType::Int, Some(200))
            .column("ITEM", DataType::Int, Some(50))
            .table("ITEMS", "hq", StorageKind::Heap, 50)
            .column("ITEM", DataType::Int, Some(50))
            .column("PRICE", DataType::Double, None)
            .index("ORDERS_CID", "ORDERS", &["CID"], false, false)
            .build()
            .expect("catalog"),
    );
    let mut loader = DatabaseBuilder::new(cat.clone());
    for c in 0..200i64 {
        loader
            .insert(
                "CUSTOMERS",
                vec![
                    Value::Int(c),
                    Value::str(format!("cust{c}")),
                    Value::Int(c % 4),
                ],
            )
            .expect("row");
    }
    for o in 0..2_000i64 {
        loader
            .insert(
                "ORDERS",
                vec![Value::Int(o), Value::Int(o % 200), Value::Int(o % 50)],
            )
            .expect("row");
    }
    for i in 0..50i64 {
        loader
            .insert("ITEMS", vec![Value::Int(i), Value::Double(i as f64 * 2.5)])
            .expect("row");
    }
    let db = loader.build().expect("database");

    let parse_started = Instant::now();
    let query = parse_query(
        &cat,
        "SELECT C.NAME, I.PRICE FROM CUSTOMERS C, ORDERS O, ITEMS I \
         WHERE C.CID = O.CID AND O.ITEM = I.ITEM AND C.TIER = 1",
    )
    .expect("query");
    let parse_nanos = parse_started.elapsed().as_nanos() as u64;

    // Record the request in detail: everything the engine, plan table, Glue
    // and executor see is annotated on one span tree.
    let ctx = SpanContext::detailed(1);
    let root = ctx.enter("request");
    let optimizer = Optimizer::new(cat.clone()).expect("rules compile");
    let config = OptConfig::default().enable("hashjoin");
    let optimized = optimizer
        .optimize_spanned(&query, &config, &ctx)
        .expect("optimize");

    // Execute with per-node actuals (EXPLAIN ANALYZE reads them back).
    let mut executor = Executor::new(&db, &query);
    executor.set_spans(ctx.clone());
    executor.enable_node_stats();
    let exec_started = Instant::now();
    let result = executor.run(&optimized.best).expect("execute");
    let exec_nanos = exec_started.elapsed().as_nanos() as u64;
    drop(root);
    let tree = ctx
        .finish(0, 0, ctx.elapsed_nanos(), "miss", false, false, "sampled")
        .expect("a recorded request");
    let trace_path = std::path::Path::new("target").join("trace_plan.jsonl");
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write(&trace_path, tree.to_json() + "\n").expect("trace file");

    // ── 1. rule firings behind the chosen plan ─────────────────────────
    // Each operator of the best plan was produced by one STAR alternative
    // (or by Glue); show that origin next to the matching `alt_fired` event
    // from the tree.
    println!("== rule firings behind the chosen plan ==");
    let events: Vec<&TraceEvent> = tree.events.iter().map(|e| &e.event).collect();
    let mut nodes = Vec::new();
    optimized
        .best
        .visit(&mut |n| nodes.push((n.op.name(), n.fingerprint())));
    for (op, fp) in nodes {
        let origin = optimized
            .provenance
            .get(&fp)
            .map(|s| &**s)
            .unwrap_or("(driver)");
        let fired = events
            .iter()
            .find(|e| match e {
                TraceEvent::AltFired { star, alt, .. } => origin == format!("{star}[alt {alt}]"),
                TraceEvent::GlueRef { .. } => origin == "Glue",
                _ => false,
            })
            .map(|e| e.to_json())
            .unwrap_or_default();
        println!("  {op:<18} <= {origin:<22} {fired}");
    }

    // ── 2. EXPLAIN ANALYZE ─────────────────────────────────────────────
    println!(
        "\n== EXPLAIN ANALYZE ({} result rows) ==",
        result.rows.len()
    );
    let explain = Explain::new(&cat, &query);
    print!(
        "{}",
        explain.analyze(&optimized.best, executor.node_actuals())
    );

    // ── 3. the phase-timing and counter summary ────────────────────────
    println!("\n== phases & counters ==");
    let ms = |nanos: u64| nanos as f64 / 1e6;
    println!("  {:<12} {:>12.3} ms", "parse", ms(parse_nanos));
    for (phase, nanos) in optimized.phase_nanos() {
        println!("  {:<12} {:>12.3} ms", phase.name(), ms(nanos));
    }
    println!("  {:<12} {:>12.3} ms", "execute", ms(exec_nanos));
    println!("  {:?}", optimized.stats);
    println!("  {:?}", optimized.table_stats);

    println!(
        "\nfull span tree: {} ({} spans, {} events)",
        trace_path.display(),
        tree.spans.len(),
        tree.events.len()
    );
}

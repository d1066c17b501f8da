//! Observability tour: optimize and execute a 3-way join with structured
//! tracing attached, then show
//!
//! 1. the rule-firing events behind every operator of the chosen plan,
//! 2. `EXPLAIN ANALYZE` — estimated CARD/COST against actual rows and time,
//! 3. the per-phase timing and counter summary.
//!
//! The full event stream is also written to `target/trace_plan.jsonl` (one
//! JSON object per line) through a [`JsonLinesSink`] — under `target/` so
//! run artifacts never land in the repo root.
//!
//! ```sh
//! cargo run --example trace_plan
//! ```

use std::sync::Arc;

use starqo::prelude::*;
use starqo::trace::TraceSink;

/// Fan one event stream out to two sinks: a JSON-Lines file (the durable
/// artifact) and an in-memory buffer (so this example can query the events
/// afterwards). Any `TraceSink` composes this way.
struct Tee(JsonLinesSink, Arc<MemorySink>);

impl TraceSink for Tee {
    fn emit(&self, event: &TraceEvent) {
        self.0.emit(event);
        self.1.emit(event);
    }

    fn flush(&self) {
        self.0.flush();
    }
}

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

    let mut metrics = MetricsRegistry::new();
    let query = metrics
        .time(Phase::Parse, || {
            parse_query(
                &cat,
                "SELECT C.NAME, I.PRICE FROM CUSTOMERS C, ORDERS O, ITEMS I \
                 WHERE C.CID = O.CID AND O.ITEM = I.ITEM AND C.TIER = 1",
            )
        })
        .expect("query");

    // Attach the tracer: everything the engine, plan table, Glue, and
    // executor see goes to target/trace_plan.jsonl AND an in-memory buffer.
    let trace_path = std::path::Path::new("target").join("trace_plan.jsonl");
    std::fs::create_dir_all("target").expect("target dir");
    let mem = Arc::new(MemorySink::new());
    let sink = Tee(
        JsonLinesSink::to_file(&trace_path).expect("trace file"),
        mem.clone(),
    );
    let tracer = Tracer::new(sink);

    let optimizer = Optimizer::new(cat.clone()).expect("rules compile");
    let config = OptConfig::default().enable("hashjoin");
    let optimized = optimizer
        .optimize_traced(&query, &config, tracer.clone())
        .expect("optimize");

    // ── 1. rule firings behind the chosen plan ─────────────────────────
    // Each operator of the best plan was produced by one STAR alternative
    // (or by Glue); show that origin next to the matching `alt_fired` event
    // from the trace.
    println!("== rule firings behind the chosen plan ==");
    let events = mem.events();
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

    // ── 2. execute with per-node actuals, then EXPLAIN ANALYZE ─────────
    let mut executor = Executor::new(&db, &query);
    executor.set_tracer(tracer.clone());
    executor.enable_node_stats();
    let result = metrics
        .time(Phase::Execute, || executor.run(&optimized.best))
        .expect("execute");
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
    let mut summary = optimized.metrics.clone();
    summary.absorb(&metrics.summary());
    println!("\n== phases & counters ==");
    print!("{}", summary.render());

    tracer.flush();
    println!(
        "\nfull event stream: {} ({} events)",
        trace_path.display(),
        mem.events().len()
    );
}

//! End-to-end trace analytics: real optimizer runs recorded as detailed
//! span trees, through the `starqo-obs` profiler, flamegraph, diff and
//! accuracy join — including the full serialize → JSONL/Chrome → parse →
//! analyze loop the CLI uses.

use std::collections::BTreeMap;
use std::sync::Arc;

use starqo_catalog::{Catalog, DataType, StorageKind, Value};
use starqo_core::{OptConfig, Optimizer};
use starqo_exec::Executor;
use starqo_obs::{AccuracyReport, FlameTree, Profile, TraceDiff};
use starqo_query::{parse_query, Query};
use starqo_storage::{Database, DatabaseBuilder};
use starqo_trace::telemetry::SPAN_CAP;
use starqo_trace::{from_chrome_trace, read_span_trees, to_chrome_trace, SpanContext, SpanTree};
use starqo_workload::{query_shape, synth_catalog, QueryShape, SynthSpec};

fn spec() -> SynthSpec {
    SynthSpec {
        tables: 3,
        card_range: (50, 400),
        index_prob: 0.5,
        ..Default::default()
    }
}

/// Record one optimization of an `n`-way chain into a span tree, detailed
/// or not.
fn recorded_run(seed: u64, n: usize, config: &OptConfig, detailed: bool) -> SpanTree {
    let cat = synth_catalog(
        seed,
        &SynthSpec {
            tables: n,
            ..spec()
        },
    );
    let opt = Optimizer::new(cat.clone()).expect("rules");
    let query = query_shape(&cat, QueryShape::Chain, n, false);
    let ctx = SpanContext::start(1, SPAN_CAP);
    ctx.set_detailed(detailed);
    let root = ctx.enter("request");
    opt.optimize_spanned(&query, config, &ctx)
        .expect("optimize");
    drop(root);
    ctx.finish(0, 0, ctx.elapsed_nanos(), "miss", false, false, "sampled")
        .expect("a recorded request")
}

/// Trace one optimization of a 3-way chain as one detailed tree.
fn traced_run(seed: u64, config: &OptConfig) -> Vec<SpanTree> {
    vec![recorded_run(seed, 3, config, true)]
}

#[test]
fn events_roundtrip_through_jsonl_on_a_real_run() {
    let trees = traced_run(7, &OptConfig::full());
    assert!(trees[0].events.len() > 100, "expected a substantial trace");
    let text: String = trees.iter().map(|t| t.to_json() + "\n").collect();
    let (back, skipped) = read_span_trees(&text);
    assert_eq!(skipped, 0, "every written tree must parse back");
    assert_eq!(back, trees);
    let chrome = from_chrome_trace(&to_chrome_trace(&trees)).expect("chrome parses");
    assert_eq!(chrome, trees);
}

#[test]
fn profile_attributes_a_real_run() {
    let trees = traced_run(7, &OptConfig::full());
    let profile = Profile::from_trees(&trees);

    // The engine's entry star must be profiled, with nonzero activity.
    assert!(!profile.stars.is_empty());
    let total_fires: u64 = profile.stars.iter().map(|s| s.fires()).sum();
    let total_built: u64 = profile.stars.iter().map(|s| s.plans_built).sum();
    assert!(total_fires > 0, "no alternative firings attributed");
    assert!(total_built > 0, "no plan construction attributed");
    assert!(
        profile.stars.iter().any(|s| s.inclusive_nanos > 0),
        "no inclusive time recorded"
    );
    assert!(
        profile.stars.iter().any(|s| s.table_inserted > 0),
        "no table inserts attributed to a rule"
    );

    // The winning lineage is present and starts at the root.
    assert!(!profile.lineage.is_empty(), "no best_node events");
    assert_eq!(profile.lineage[0].depth, 0);
    assert!(profile
        .lineage
        .iter()
        .all(|r| r.origin.contains("[alt ") || r.origin == "Glue" || r.origin == "(driver)"));

    // The human report carries all the advertised sections.
    let text = profile.render();
    for needle in ["rule profile", "refs", "incl", "winning plan lineage"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn flame_tree_accounts_for_the_run() {
    let trees = traced_run(7, &OptConfig::full());
    let tree = FlameTree::from_trees(&trees);
    assert!(tree.root().inclusive > 0);
    let folded = tree.folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("folded format");
        assert!(!stack.is_empty());
        assert!(value.parse::<u64>().is_ok(), "bad folded value: {line}");
    }
}

#[test]
fn diff_pinpoints_a_disabled_rule() {
    // Baseline: everything on. Candidate: hash join disabled.
    let full = OptConfig::full();
    let mut no_ha = OptConfig::full();
    no_ha.enabled.remove("hashjoin");

    let a = traced_run(7, &full);
    let b = traced_run(7, &no_ha);
    let d = TraceDiff::compare(&a, &b);
    assert!(!d.is_empty(), "disabling a strategy family must show up");

    // The hash-join condition now fails (more often) in run b.
    let ha_cond = d
        .cond_deltas
        .iter()
        .find(|delta| delta.key.contains("enabled('hashjoin')"))
        .expect("hashjoin condition failure delta");
    assert!(
        ha_cond.b > ha_cond.a,
        "condition should fail more with the flag off: {ha_cond:?}"
    );

    // Identical configs diff clean.
    let d2 = TraceDiff::compare(&a, &traced_run(7, &full));
    assert!(d2.is_empty(), "same config, same seed => same behavior");
}

#[test]
fn a_detailed_optimization_keeps_every_star_span_and_an_undetailed_one_is_capped() {
    let config = OptConfig::full();
    let star_spans = |t: &SpanTree| {
        t.spans
            .iter()
            .filter(|s| s.name.starts_with("star:"))
            .count()
    };
    let detailed = recorded_run(7, 5, &config, true);
    let expansions = detailed
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                starqo_trace::TraceEvent::StarRef {
                    memo_hit: false,
                    ..
                }
            )
        })
        .count();
    assert!(
        expansions > SPAN_CAP,
        "fixture too small: {expansions} expansions"
    );
    assert_eq!(star_spans(&detailed), expansions);
    assert_eq!(detailed.dropped, 0);

    let undetailed = recorded_run(7, 5, &config, false);
    assert!(undetailed.events.is_empty());
    assert_eq!(undetailed.spans.len(), SPAN_CAP);
    // Every span the detailed run kept (the enumerate span and the root
    // included) is either kept or counted here.
    assert_eq!(
        undetailed.spans.len() + undetailed.dropped as usize,
        detailed.spans.len()
    );
}

/// The `trace_plan` example's request: a 3-way join of customers, orders
/// and items, optimized with hash join enabled and executed once, recorded
/// as one detailed tree.
fn trace_plan_tree() -> SpanTree {
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
    let mut b = DatabaseBuilder::new(cat.clone());
    for c in 0..200i64 {
        let row = vec![
            Value::Int(c),
            Value::str(format!("cust{c}")),
            Value::Int(c % 4),
        ];
        b.insert("CUSTOMERS", row).expect("row");
    }
    for o in 0..2_000i64 {
        let row = vec![Value::Int(o), Value::Int(o % 200), Value::Int(o % 50)];
        b.insert("ORDERS", row).expect("row");
    }
    for i in 0..50i64 {
        let row = vec![Value::Int(i), Value::Double(i as f64 * 2.5)];
        b.insert("ITEMS", row).expect("row");
    }
    let db: Database = b.build().expect("database");
    let query: Query = parse_query(
        &cat,
        "SELECT C.NAME, I.PRICE FROM CUSTOMERS C, ORDERS O, ITEMS I \
         WHERE C.CID = O.CID AND O.ITEM = I.ITEM AND C.TIER = 1",
    )
    .expect("query");
    let ctx = SpanContext::detailed(1);
    let root = ctx.enter("request");
    let optimizer = Optimizer::new(cat.clone()).expect("rules compile");
    let config = OptConfig::default().enable("hashjoin");
    let optimized = optimizer
        .optimize_spanned(&query, &config, &ctx)
        .expect("optimize");
    let mut executor = Executor::new(&db, &query);
    executor.set_spans(ctx.clone());
    executor.run(&optimized.best).expect("execute");
    drop(root);
    ctx.finish(0, 0, ctx.elapsed_nanos(), "miss", false, false, "sampled")
        .expect("a recorded request")
}

/// The timing-free report values of the `trace_plan` request, as the
/// event stream these trees replace reported them: every event count (but
/// the retired expansion-finished event: its 42 expansions are the 42
/// `star:*` spans),
/// the profile's per-rule columns, the flame's stacks with their reference
/// counts, and the accuracy join's cardinality side.
#[test]
fn trace_plan_fixture_reports_the_event_stream_values() {
    let trees = vec![trace_plan_tree()];
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &trees[0].events {
        *kinds.entry(e.event.kind()).or_default() += 1;
    }
    let expect: BTreeMap<&str, usize> = [
        ("star_ref", 42),
        ("alt_fired", 63),
        ("plan_built", 47),
        ("glue_ref", 37),
        ("table_insert", 36),
        ("cond_failed", 26),
        ("table_prune", 8),
        ("forall_expand", 7),
        ("table_dominated", 6),
        ("exec_node", 5),
        ("best_node", 5),
    ]
    .into_iter()
    .collect();
    assert_eq!(kinds, expect);
    let star_spans = trees[0]
        .spans
        .iter()
        .filter(|s| s.name.starts_with("star:"));
    assert_eq!(star_spans.count(), 42);

    // star, refs, memo, fires, failed, built, rej, ins, pruned, best
    let profile = Profile::from_trees(&trees);
    assert_eq!(profile.events, 282);
    let mut rows: Vec<(&str, [u64; 9])> = profile
        .stars
        .iter()
        .map(|s| {
            let cols = [
                s.refs,
                s.memo_hits,
                s.fires(),
                s.cond_failed(),
                s.plans_built,
                s.plans_rejected,
                s.table_inserted,
                s.table_pruned,
                s.best_nodes,
            ];
            (s.name.as_str(), cols)
        })
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            ("AccessRoot", [7, 0, 14, 0, 0, 0, 0, 0, 0]),
            ("FetchAccess", [3, 0, 3, 3, 6, 0, 3, 0, 0]),
            ("IndexAccess", [3, 0, 3, 3, 0, 0, 0, 0, 0]),
            ("JMeth", [6, 0, 18, 12, 34, 0, 26, 8, 2]),
            ("JoinRoot", [4, 0, 6, 2, 0, 0, 0, 0, 0]),
            ("PermutedJoin", [6, 0, 6, 0, 0, 0, 0, 0, 0]),
            ("SitedJoin", [6, 0, 6, 6, 0, 0, 0, 0, 0]),
            ("TableAccess", [7, 0, 7, 0, 7, 0, 7, 0, 3]),
        ]
    );
    assert!(profile.stars.iter().all(|s| s.inclusive_nanos > 0));

    // The flame's stacks and reference counts, read off its rendering
    // (two columns of indentation per level).
    let flame = FlameTree::from_trees(&trees).render();
    let mut path: Vec<String> = Vec::new();
    let mut stacks: Vec<(String, u64)> = Vec::new();
    for line in flame.lines().skip(1) {
        let depth = (line.len() - line.trim_start().len()) / 2;
        let mut cols = line.split_whitespace();
        path.truncate(depth);
        path.push(cols.next().expect("frame name").to_string());
        let refs = line
            .split_whitespace()
            .zip(line.split_whitespace().skip(1))
            .find(|(_, w)| *w == "refs")
            .map(|(n, _)| n.parse::<u64>().expect("ref count"))
            .expect("refs column");
        stacks.push((path.join(";"), refs));
    }
    stacks.sort();
    let j = "JoinRoot;PermutedJoin;SitedJoin;JMeth";
    let mut expect = vec![
        ("AccessRoot".to_string(), 3),
        ("AccessRoot;IndexAccess".to_string(), 1),
        ("AccessRoot;IndexAccess;FetchAccess".to_string(), 1),
        ("AccessRoot;TableAccess".to_string(), 3),
        ("JoinRoot".to_string(), 4),
        ("JoinRoot;PermutedJoin".to_string(), 6),
        ("JoinRoot;PermutedJoin;SitedJoin".to_string(), 6),
        (j.to_string(), 6),
        (format!("{j};AccessRoot"), 4),
        (format!("{j};AccessRoot;IndexAccess"), 2),
        (format!("{j};AccessRoot;IndexAccess;FetchAccess"), 2),
        (format!("{j};AccessRoot;TableAccess"), 4),
    ];
    expect.sort();
    assert_eq!(stacks, expect);

    // The accuracy join: one segment, every winning node joined, exact
    // cardinalities.
    let acc = AccuracyReport::from_trees(&trees);
    assert_eq!((acc.queries.len(), acc.joined()), (1, 5));
    assert_eq!((acc.unmatched_est, acc.unmatched_act), (0, 0));
    assert_eq!(acc.queries[0].rows, 500);
    assert_eq!(acc.queries[0].root_card_q, Some(1.0));
    let groups = |gs: &[starqo_obs::GroupStats]| -> Vec<(String, u64)> {
        gs.iter().map(|g| (g.name.clone(), g.nodes())).collect()
    };
    assert_eq!(
        groups(&acc.by_op),
        vec![("ACCESS(heap)".into(), 3), ("JOIN(HA)".into(), 2)]
    );
    assert_eq!(
        groups(&acc.by_rule),
        vec![("JMeth".into(), 2), ("TableAccess".into(), 3)]
    );
    assert_eq!(acc.card_quantiles(), (1.0, 1.0, 1.0));
}

//! Same plans, same origins, pinned counters: the cold optimize path may get
//! cheaper, it may not choose or attribute anything differently — and when
//! it does less work, the golden says exactly how much less.
//!
//! A fixed seeded fleet of 4..8-way chain/star/tree/cyclic joins is optimized
//! and everything the optimizer reports about each run — the winner's EXPLAIN
//! text, the number of root alternatives, every `OptStats` and `TableStats`
//! field, the plan-table size and the sorted origin trace — is compared with
//! `cold_path_golden.txt`. Plans are compared by EXPLAIN text, not by raw
//! fingerprint, so the node hasher is free to change.
//!
//! The EXPLAIN and origin-trace lines date from the commit before the
//! engine's allocation diet and have never moved. The counter lines
//! (`root_alternatives`, `OptStats`, `TableStats`, `table_plans`) were
//! re-recorded twice: when the enumeration driver stopped referencing
//! `JoinRoot` for pairs no predicate links, and when `with` bindings became
//! evaluated on first read (`native_calls` fell in every `OptStats` line,
//! nothing else in them moved). A change that moves only those lines,
//! downwards, is a work reduction; one that moves any other line changes a
//! winner.
//!
//! `STARQO_UPDATE_GOLDEN=1 cargo test -p starqo-integration --test
//! cold_path_golden` rewrites the file; a diff in it is a behaviour change
//! and needs a reason, and `scripts/golden_diff.sh <ref>` (run by
//! `scripts/check.sh` on a modified file) fails if it reaches past the
//! counter lines.

use std::fmt::Write as _;
use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, SiteId};
use starqo_core::{Budget, OptConfig, Optimizer};
use starqo_plan::Explain;
use starqo_query::{CmpOp, PredExpr, QCol, Query, QueryBuilder, Scalar};
use starqo_workload::{synth_catalog, SynthSpec};

const GOLDEN: &str = include_str!("cold_path_golden.txt");

#[derive(Clone, Copy, Debug)]
enum Shape {
    Chain,
    Star,
    Tree,
    Cyclic,
}

/// `Ti.FK = Tj.ID` join graph of the given shape over the first `n` tables,
/// a local predicate on `T0`, optionally ORDER BY a column of the last table.
fn query(cat: &Catalog, shape: Shape, n: usize, order_by: bool, site: SiteId) -> Query {
    let mut b = QueryBuilder::new();
    let qs: Vec<_> = (0..n)
        .map(|i| {
            b.quantifier(cat, &format!("T{i}"), &format!("t{i}"))
                .expect("table")
        })
        .collect();
    let (id, fk, p0) = (ColId(0), ColId(1), ColId(2));
    let mut edge = |a: usize, z: usize| {
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(qs[a], fk),
            Scalar::col(qs[z], id),
        ))
        .expect("pred");
    };
    match shape {
        Shape::Chain => (0..n - 1).for_each(|i| edge(i, i + 1)),
        Shape::Star => (1..n).for_each(|i| edge(0, i)),
        Shape::Tree => (1..n).for_each(|i| edge((i - 1) / 2, i)),
        Shape::Cyclic => {
            (0..n - 1).for_each(|i| edge(i, i + 1));
            edge(n - 1, 0);
        }
    }
    b.predicate(PredExpr::Cmp(
        CmpOp::Lt,
        Scalar::col(qs[0], p0),
        Scalar::Const(starqo_catalog::Value::Int(7)),
    ))
    .expect("pred");
    b.select(QCol::new(qs[0], id));
    b.select(QCol::new(qs[n - 1], p0));
    if order_by {
        b.order_by(QCol::new(qs[n - 1], fk));
    }
    b.query_site(site);
    b.build().expect("query")
}

struct Case {
    name: String,
    cat: Arc<Catalog>,
    query: Query,
    config: OptConfig,
}

/// The fleet: every width × shape once per catalog, with ORDER BY, the
/// config family and `glue_keep_all` rotated so each combination occurs at
/// several widths without running the full cross product.
fn fleet() -> Vec<Case> {
    let spec = |sites| SynthSpec {
        tables: 8,
        card_range: (50, 5_000),
        sites,
        ..Default::default()
    };
    let cats = [
        ("1site", synth_catalog(12, &spec(1))),
        ("3site", synth_catalog(12, &spec(3))),
    ];
    let shapes = [Shape::Chain, Shape::Star, Shape::Tree, Shape::Cyclic];
    let mut out = Vec::new();
    let mut k = 0usize;
    for (cname, cat) in &cats {
        for n in 4..=8usize {
            for shape in shapes {
                k += 1;
                let order_by = k & 1 == 0;
                let one_site = *cname == "1site";
                // Clamp the rotation where the search space explodes: bushy
                // search stops at 7 tables (5 when plans also multiply by
                // site), and keeping every Glue product (millions of plans
                // on wide or multi-site bushy joins) stays on the narrow end.
                let full = k & 2 == 0 && n <= if one_site { 7 } else { 5 };
                let keep_all = k % 3 == 1
                    && match (full, one_site) {
                        (false, true) => n <= 6,
                        (true, true) | (false, false) => n <= 4,
                        (true, false) => false,
                    };
                let mut config = if full {
                    OptConfig::full()
                } else {
                    OptConfig::default()
                };
                config.glue_keep_all = keep_all;
                let site = SiteId((matches!(k % 3, 0) && !one_site) as u16);
                out.push(Case {
                    name: format!(
                        "{cname} {shape:?}{n} order_by={order_by} full={full} keep_all={keep_all} site={}",
                        site.0
                    ),
                    cat: cat.clone(),
                    query: query(cat, shape, n, order_by, site),
                    config,
                });
            }
        }
    }
    // One degraded run: a plan cap low enough to flip the engine into greedy
    // mode half-way up the lattice.
    let (cname, cat) = &cats[1];
    let mut config = OptConfig::full();
    config.budget = Budget::default().with_plans_cap(120);
    out.push(Case {
        name: format!("{cname} Star6 degraded plans_cap=120"),
        cat: cat.clone(),
        query: query(cat, Shape::Star, 6, true, SiteId(0)),
        config,
    });
    out
}

fn render(case: &Case) -> String {
    let opt = Optimizer::new(case.cat.clone()).expect("rules");
    let out = opt.optimize(&case.query, &case.config).expect("optimize");
    let mut s = String::new();
    let _ = writeln!(s, "== {}", case.name);
    s.push_str(&Explain::new(&case.cat, &case.query).tree(&out.best));
    let _ = writeln!(s, "root_alternatives={}", out.root_alternatives.len());
    let _ = writeln!(s, "{:?}", out.stats);
    let _ = writeln!(s, "{:?}", out.table_stats);
    let _ = writeln!(
        s,
        "table_plans={} table_keys={} degraded={} reason={:?}",
        out.table_plans, out.table_keys, out.degraded, out.degraded_reason
    );
    let mut origin = out.origin_trace(&out.best);
    origin.sort();
    for line in origin {
        let _ = writeln!(s, "  {line}");
    }
    s
}

#[test]
fn same_plans_same_counters() {
    let cases = fleet();
    assert!(cases.iter().any(|c| c.config.glue_keep_all));
    let actual: String = cases.iter().map(render).collect();
    if std::env::var_os("STARQO_UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/cold_path_golden.txt");
        std::fs::write(path, &actual).expect("write golden");
        return;
    }
    if actual == GOLDEN {
        return;
    }
    // Report the first case that moved, not a 3 000-line diff.
    let (mut a, mut g) = (actual.split("== "), GOLDEN.split("== "));
    loop {
        match (a.next(), g.next()) {
            (None, None) => break,
            (x, y) if x == y => continue,
            (x, y) => panic!(
                "cold path diverged from the golden\n--- golden\n== {}\n--- actual\n== {}",
                y.unwrap_or("<missing>"),
                x.unwrap_or("<missing>")
            ),
        }
    }
}

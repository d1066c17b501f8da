//! The cold-path regression fleets: the 41 optimizations of
//! `cold_path_golden.rs`, and what `cold_path_fleet.rs` records about each
//! of them and about its own few hundred seeded shapes.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, SiteId};
use starqo_core::{Budget, OptConfig, Optimized};
use starqo_plan::{PlanNode, PlanRef};
use starqo_query::fingerprint::fnv1a64;
use starqo_query::{CmpOp, PredExpr, QCol, Query, QueryBuilder, Scalar};
use starqo_workload::{synth_catalog, SynthSpec};

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Chain,
    Star,
    Tree,
    Cyclic,
}

/// `Ti.FK = Tj.ID` join graph of the given shape over the first `n` tables,
/// a local predicate on `T0`, optionally ORDER BY a column of the last table.
pub fn query(cat: &Catalog, shape: Shape, n: usize, order_by: bool, site: SiteId) -> Query {
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

pub struct Case {
    pub name: String,
    pub cat: Arc<Catalog>,
    pub query: Query,
    pub config: OptConfig,
}

/// The golden fleet: every width × shape once per catalog, with ORDER BY,
/// the config family and `glue_keep_all` rotated so each combination occurs
/// at several widths without running the full cross product.
pub fn golden_fleet() -> Vec<Case> {
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

/// How the plans an optimization hands out share their nodes: the distinct
/// `Arc`s reachable from `best` and the root alternatives, and a digest of
/// the DAG walked from those roots in order — each node numbered when first
/// met (with its fingerprint), a repeat visit recorded by that number. Two
/// runs agree on it exactly when they share the same subplans the same way.
pub fn sharing(out: &Optimized) -> (usize, u64) {
    fn walk(p: &PlanRef, seen: &mut HashMap<*const PlanNode, usize>, trail: &mut String) {
        if let Some(n) = seen.get(&Arc::as_ptr(p)) {
            let _ = write!(trail, "^{n};");
            return;
        }
        let n = seen.len();
        seen.insert(Arc::as_ptr(p), n);
        let _ = write!(trail, "{n}:{:x}(", p.fingerprint());
        for i in p.inputs.iter() {
            walk(i, seen, trail);
        }
        trail.push_str(");");
    }
    let (mut seen, mut trail) = (HashMap::new(), String::new());
    for root in std::iter::once(&out.best).chain(&out.root_alternatives) {
        walk(root, &mut seen, &mut trail);
        trail.push('|');
    }
    (seen.len(), fnv1a64(&trail))
}

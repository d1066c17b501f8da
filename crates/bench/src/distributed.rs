//! E10: the R\* join-site alternatives (§4.2) over simulated sites.

use starqo_core::{OptConfig, Optimizer};
use starqo_plan::Lolepop;
use starqo_workload::{
    dept_emp_catalog, dept_emp_query, query_shape, synth_catalog, QueryShape, SynthSpec,
};

/// E10: distributed joins — the local-query bypass, SHIP placement, and the
/// growth of the alternative space with the number of sites.
pub fn e10_join_sites() -> crate::Report {
    let mut r = crate::Report::new("E10", "§4.2 join-site alternatives (R*)");

    // Part 1: the paper's query, local vs distributed.
    let widths = [26usize, 8, 10, 10, 12];
    r.line(crate::row(
        &["configuration", "ships", "root", "built", "best$"].map(String::from),
        &widths,
    ));
    for (label, distributed) in [("local (bypass RemoteJoin)", false), ("EMP at L.A.", true)] {
        let cat = dept_emp_catalog(distributed, 10_000);
        let query = dept_emp_query(&cat);
        let opt = Optimizer::new(cat).expect("rules");
        let config = OptConfig {
            glue_keep_all: true,
            ..Default::default()
        };
        let out = opt.optimize(&query, &config).expect("optimize");
        r.absorb(&out);
        let mut ships = 0;
        out.best.visit(&mut |n| {
            if matches!(n.op, Lolepop::Ship { .. }) {
                ships += 1;
            }
        });
        r.line(crate::row(
            &[
                label.to_string(),
                ships.to_string(),
                out.root_alternatives.len().to_string(),
                out.stats.plans_built.to_string(),
                format!("{:.0}", out.best.props.cost.total()),
            ],
            &widths,
        ));
        if !distributed {
            assert_eq!(ships, 0, "local query must not ship");
        } else {
            assert!(ships >= 1, "distributed query must ship");
        }
    }
    r.line("");

    // Part 2: alternatives vs number of sites on a 3-table chain.
    let widths2 = [8usize, 10, 12, 12];
    r.line(crate::row(
        &["sites", "built", "conds", "best$"].map(String::from),
        &widths2,
    ));
    for sites in [1usize, 2, 3] {
        let spec = SynthSpec {
            tables: 3,
            sites,
            card_range: (200, 2_000),
            index_prob: 0.0,
            ..Default::default()
        };
        let cat = synth_catalog(23, &spec);
        let query = query_shape(&cat, QueryShape::Chain, 3, false);
        let opt = Optimizer::new(cat).expect("rules");
        let out = opt
            .optimize(&query, &OptConfig::default())
            .expect("optimize");
        r.absorb(&out);
        r.line(crate::row(
            &[
                sites.to_string(),
                out.stats.plans_built.to_string(),
                out.stats.conds_evaluated.to_string(),
                format!("{:.0}", out.best.props.cost.total()),
            ],
            &widths2,
        ));
    }
    r.line("");
    r.line("Expected shape: with one site the RemoteJoin STAR is bypassed");
    r.line("entirely (its condition guards it); each extra site multiplies");
    r.line("the per-join alternatives by the candidate-site count.");
    r
}

//! E13: the correctness oracle sweep — every plan the optimizer emits, for
//! randomized schemas/data/configurations, computes the same answer as the
//! brute-force reference evaluator.

use starqo_core::{OptConfig, Optimizer};
use starqo_exec::{reference_eval, rows_equal_multiset, Executor};
use starqo_workload::{query_shape, synth_catalog, synth_database, QueryShape, SynthSpec};

/// Outcome of one sweep cell.
pub struct SweepOutcome {
    pub plans_checked: usize,
    pub queries: usize,
}

/// Run the sweep: for each seed, generate schema+data, optimize under every
/// configuration (keeping all Glue alternatives), execute every surviving
/// root alternative, and compare to the reference. Panics on divergence.
pub fn correctness_sweep(seeds: std::ops::Range<u64>, tables: usize) -> SweepOutcome {
    let mut plans_checked = 0;
    let mut queries = 0;
    for seed in seeds {
        let spec = SynthSpec {
            tables,
            card_range: (20, 200),
            index_prob: 0.6,
            btree_prob: 0.4,
            sites: 1 + (seed % 2) as usize,
            ..Default::default()
        };
        let cat = synth_catalog(seed, &spec);
        let db = synth_database(seed, cat.clone());
        let opt = Optimizer::new(cat.clone()).expect("rules");
        for shape in [QueryShape::Chain, QueryShape::Star] {
            let query = query_shape(&cat, shape, tables.min(3), seed % 3 == 0);
            let want = reference_eval(&db, &query).expect("reference");
            queries += 1;
            for config in [
                OptConfig {
                    glue_keep_all: true,
                    ..Default::default()
                },
                OptConfig {
                    glue_keep_all: true,
                    ..OptConfig::full()
                },
            ] {
                let out = opt.optimize(&query, &config).expect("optimize");
                for plan in out
                    .root_alternatives
                    .iter()
                    .chain(std::iter::once(&out.best))
                {
                    let mut ex = Executor::new(&db, &query);
                    let got = ex.run(plan).expect("plan executes");
                    assert!(
                        rows_equal_multiset(&got.rows, &want),
                        "seed {seed} {shape:?}: plan diverged from reference: {:?}",
                        plan.op_names()
                    );
                    plans_checked += 1;
                }
            }
        }
    }
    SweepOutcome {
        plans_checked,
        queries,
    }
}

/// E13 report.
pub fn e13_correctness() -> crate::Report {
    let mut r = crate::Report::new(
        "E13",
        "correctness oracle — every emitted plan equals the reference answer",
    );
    let (out, ms) = crate::time_ms(|| correctness_sweep(0..6, 3));
    r.line(format!(
        "checked {} plans across {} randomized queries in {:.0} ms — all identical to the \
         brute-force reference",
        out.plans_checked, out.queries, ms
    ));
    r
}

/// E15: estimation quality — the estimated-property half of the property
/// vector (CARD) against ground truth. The paper leans on "well established
/// and validated" cost functions [MACK 86]; this experiment reports how the
/// reproduction's System-R-style estimates track actual row counts
/// (q-error = max(est/actual, actual/est) on the final result).
pub fn e15_estimation_quality() -> crate::Report {
    let mut r = crate::Report::new(
        "E15",
        "estimation quality — estimated vs actual cardinality (q-error)",
    );
    let widths = [6usize, 7, 12, 12, 10];
    r.line(crate::row(
        &["seed", "shape", "est rows", "actual", "q-error"].map(String::from),
        &widths,
    ));
    let mut worst: f64 = 1.0;
    let mut product: f64 = 1.0;
    let mut count = 0u32;
    for seed in 0..8u64 {
        let spec = SynthSpec {
            tables: 3,
            card_range: (100, 1_000),
            index_prob: 0.5,
            ..Default::default()
        };
        let cat = synth_catalog(seed, &spec);
        let db = synth_database(seed, cat.clone());
        let opt = Optimizer::new(cat.clone()).expect("rules");
        for (shape, name) in [(QueryShape::Chain, "chain"), (QueryShape::Star, "star")] {
            let query = query_shape(&cat, shape, 3, seed % 2 == 0);
            let out = opt
                .optimize(&query, &OptConfig::default())
                .expect("optimize");
            r.absorb(&out);
            let mut ex = Executor::new(&db, &query);
            let got = ex.run(&out.best).expect("executes");
            let est = out.best.props.card.max(0.5);
            let actual = (got.rows.len() as f64).max(0.5);
            let q = (est / actual).max(actual / est);
            worst = worst.max(q);
            product *= q;
            count += 1;
            r.line(crate::row(
                &[
                    seed.to_string(),
                    name.to_string(),
                    format!("{est:.0}"),
                    format!("{:.0}", got.rows.len()),
                    format!("{q:.2}"),
                ],
                &widths,
            ));
        }
    }
    let geo = product.powf(1.0 / count as f64);
    r.line("");
    r.line(format!(
        "geometric-mean q-error {geo:.2}, worst {worst:.2} over {count} queries"
    ));
    r.line("(uniform-independence estimates on uniform synthetic data — the");
    r.line("favorable case; skew would degrade this, as it does every");
    r.line("System-R-style estimator)");
    r
}

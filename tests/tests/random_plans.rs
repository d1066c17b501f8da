//! Randomized tests over the whole stack (seeded, deterministic): every
//! alternative computes the reference answer (through the differential
//! checker `starqo_integration::diff`), structural invariants of the
//! optimizer's output and the cost model's direction.

use starqo_core::{OptConfig, Optimizer};
use starqo_exec::Executor;
use starqo_integration::diff::{check_seeds, SEED_SLICES};
use starqo_workload::{query_shape, synth_catalog, synth_database, QueryShape, Rng64, SynthSpec};

const SHAPES: [QueryShape; 4] = [
    QueryShape::Chain,
    QueryShape::Star,
    QueryShape::Cycle,
    QueryShape::Clique,
];

/// Every root alternative and winner of the first slice of the generated
/// cases equals the reference answer; `diff::check` runs each on both
/// engines, both database forms, served and degraded as well.
#[test]
fn all_alternatives_match_reference() {
    check_seeds(SEED_SLICES[0].clone());
}

/// The chosen plan's relational properties always cover the whole query,
/// its site is the query site, and widening the repertoire never makes
/// the best plan worse.
#[test]
fn best_plan_invariants() {
    for seed in 0..24u64 {
        let mut rng = Rng64::new(seed ^ 0xA5A5_5A5A);
        let shape = SHAPES[rng.index(SHAPES.len())];
        let spec = SynthSpec {
            tables: 4,
            card_range: (20, 400),
            index_prob: 0.5,
            ..Default::default()
        };
        let cat = synth_catalog(seed, &spec);
        let query = query_shape(&cat, shape, 4, true);
        let opt = Optimizer::new(cat).unwrap();

        let narrow = opt.optimize(&query, &OptConfig::default()).unwrap();
        assert_eq!(narrow.best.props.tables, query.all_qset());
        assert_eq!(narrow.best.props.preds, query.all_preds());
        assert_eq!(narrow.best.props.site, query.query_site);
        for c in &query.select {
            assert!(
                narrow.best.props.cols.contains(c),
                "missing select column {c}"
            );
        }

        let wide = opt.optimize(&query, &OptConfig::full()).unwrap();
        assert!(
            wide.best.props.cost.total() <= narrow.best.props.cost.total() + 1e-6,
            "wider repertoire worsened the plan: {} > {}",
            wide.best.props.cost.total(),
            narrow.best.props.cost.total()
        );
    }
}

/// Optimization is deterministic: same inputs, same chosen plan.
#[test]
fn optimization_is_deterministic() {
    for seed in 0..12u64 {
        let spec = SynthSpec {
            tables: 3,
            card_range: (20, 300),
            ..Default::default()
        };
        let cat = synth_catalog(seed, &spec);
        let query = query_shape(&cat, QueryShape::Chain, 3, false);
        let opt = Optimizer::new(cat).unwrap();
        let a = opt.optimize(&query, &OptConfig::full()).unwrap();
        let b = opt.optimize(&query, &OptConfig::full()).unwrap();
        assert_eq!(a.best.fingerprint(), b.best.fingerprint());
        assert_eq!(a.stats, b.stats);
    }
}

/// The cost estimate and the simulated execution agree *directionally*:
/// on the same data, a plan the optimizer says is much cheaper should
/// not do dramatically more page I/O than the plan it beat.
#[test]
fn cost_model_is_directionally_sane() {
    for seed in 0..16u64 {
        let spec = SynthSpec {
            tables: 2,
            card_range: (200, 2_000),
            index_prob: 1.0,
            btree_prob: 0.0,
            ..Default::default()
        };
        let cat = synth_catalog(seed, &spec);
        let db = synth_database(seed, cat.clone());
        let query = query_shape(&cat, QueryShape::Chain, 2, true);
        let opt = Optimizer::new(cat).unwrap();
        let config = OptConfig {
            glue_keep_all: true,
            ..Default::default()
        };
        let out = opt.optimize(&query, &config).unwrap();
        // Measure the best and the worst surviving alternative.
        let best = &out.best;
        let worst = out
            .root_alternatives
            .iter()
            .max_by(|a, b| a.props.cost.total().total_cmp(&b.props.cost.total()))
            .unwrap();
        if worst.props.cost.total() > best.props.cost.total() * 20.0 {
            let mut ex1 = Executor::new(&db, &query);
            ex1.run(best).unwrap();
            let io_best = ex1.stats().pages_read;
            let mut ex2 = Executor::new(&db, &query);
            ex2.run(worst).unwrap();
            let io_worst = ex2.stats().pages_read;
            assert!(
                io_best <= io_worst * 4,
                "seed {seed}: estimated-cheap plan did far more I/O: {io_best} vs {io_worst}"
            );
        }
    }
}

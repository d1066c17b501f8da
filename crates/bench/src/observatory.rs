//! E16: the estimation-accuracy observatory — optimize **and execute** the
//! whole `starqo-workload` fleet (paper + synthetic) with tracing on,
//! join estimates to actuals, fit a cost-calibration profile, and measure
//! how much the re-run's COST Q-error drops.
//!
//! The same runner backs the `workload_run` experiment
//! ([`workload_trace`]), which emits one combined JSONL stream for offline
//! `starqo-obs accuracy` / `starqo-obs calibrate` analysis.

use std::sync::Arc;
use std::time::Instant;

use starqo_catalog::Catalog;
use starqo_core::{OptConfig, Optimizer};
use starqo_exec::Executor;
use starqo_obs::{calibrate, AccuracyReport};
use starqo_plan::CostModel;
use starqo_query::Query;
use starqo_storage::Database;
use starqo_trace::{JsonLinesSink, TraceEvent, Tracer};
use starqo_workload::{
    dept_emp_catalog, dept_emp_database, dept_emp_query, query_shape, synth_catalog,
    synth_database, QueryShape, SynthSpec,
};

/// Totals from one workload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSummary {
    pub queries: u64,
    pub rows: u64,
    pub nanos: u64,
}

/// Optimize and execute every workload query under `model`, emitting the
/// combined optimizer+executor event stream (with `query_start` /
/// `query_done` segment markers) through `tracer`. `quick` trims the
/// synthetic sweep for smoke tests.
fn run_workload(tracer: &Tracer, model: &CostModel, quick: bool) -> RunSummary {
    let mut sum = RunSummary::default();
    let config = OptConfig::full();
    let mut run_one = |name: &str, cat: &Arc<Catalog>, db: &Database, query: &Query| {
        let mut opt = Optimizer::new(cat.clone()).expect("rule repertoire loads");
        opt.set_cost_model(model.clone());
        tracer.emit(|| TraceEvent::QueryStart { name: name.into() });
        let start = Instant::now();
        let out = opt
            .optimize_traced(query, &config, tracer.clone())
            .unwrap_or_else(|e| panic!("optimize {name}: {e:?}"));
        // Untraced warm-up execution: the first run pays allocator and
        // cache first-touch costs that would otherwise pollute the
        // per-node actuals the calibration fits against.
        Executor::new(db, query)
            .run(&out.best)
            .unwrap_or_else(|e| panic!("warmup {name}: {e:?}"));
        // Execute traced three times: the accuracy join keeps the fastest
        // per-node observation, which tames the timing noise that otherwise
        // dominates sub-millisecond nodes.
        let mut got = None;
        for _ in 0..3 {
            let mut ex = Executor::new(db, query);
            ex.set_tracer(tracer.clone());
            got = Some(
                ex.run(&out.best)
                    .unwrap_or_else(|e| panic!("execute {name}: {e:?}")),
            );
        }
        let got = got.expect("at least one traced execution");
        let nanos = start.elapsed().as_nanos() as u64;
        let rows = got.rows.len() as u64;
        tracer.emit(|| TraceEvent::QueryDone {
            name: name.into(),
            rows,
            nanos,
        });
        sum.queries += 1;
        sum.rows += rows;
        sum.nanos += nanos;
    };

    // The paper's DEPT⋈EMP query, local and distributed (the distributed
    // variant exercises SHIP and the communication cost component).
    for (tag, distributed) in [("local", false), ("distributed", true)] {
        let cat = dept_emp_catalog(distributed, 2_000);
        let db = dept_emp_database(cat.clone());
        let query = dept_emp_query(&cat);
        run_one(&format!("paper/{tag}"), &cat, &db, &query);
    }

    // Synthetic sweep: varied schemas, data, sites, and join shapes.
    let seeds = if quick { 2 } else { 5 };
    for seed in 0..seeds {
        let spec = SynthSpec {
            tables: 3,
            card_range: (400, 2_000),
            index_prob: 0.5,
            btree_prob: 0.4,
            sites: 1 + (seed % 2) as usize,
            ..Default::default()
        };
        let cat = synth_catalog(seed, &spec);
        let db = synth_database(seed, cat.clone());
        let shapes: &[(QueryShape, &str)] = if quick {
            &[(QueryShape::Chain, "chain"), (QueryShape::Star, "star")]
        } else {
            &[
                (QueryShape::Chain, "chain"),
                (QueryShape::Star, "star"),
                (QueryShape::Cycle, "cycle"),
            ]
        };
        for (shape, sname) in shapes {
            let query = query_shape(&cat, *shape, 3, seed % 2 == 0);
            run_one(&format!("synth{seed}/{sname}"), &cat, &db, &query);
        }
    }
    sum
}

/// Run the workload once into the JSONL trace at `path`, under the cost
/// model `STARQO_COST_PROFILE` names (the default model when unset).
pub fn workload_trace(path: &std::path::Path, quick: bool) -> crate::Report {
    let sink = JsonLinesSink::to_file(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    let tracer = Tracer::new(sink);
    let sum = run_workload(&tracer, &CostModel::from_env(), quick);
    tracer.flush();
    let mut r = crate::Report::new("E16", "workload trace for starqo-obs accuracy / calibrate");
    r.line(format!(
        "ran {} queries ({} rows) in {:.1} ms; trace: {}",
        sum.queries,
        sum.rows,
        sum.nanos as f64 / 1e6,
        path.display()
    ));
    r.line(format!(
        "analyze with: starqo-obs accuracy {}",
        path.display()
    ));
    r
}

/// Run the workload into a JSONL trace file and load the resulting events.
fn traced_run(
    path: &std::path::Path,
    model: &CostModel,
    quick: bool,
) -> (RunSummary, Vec<TraceEvent>) {
    let sink = JsonLinesSink::to_file(path)
        .unwrap_or_else(|e| panic!("create trace {}: {e}", path.display()));
    let tracer = Tracer::new(sink);
    let sum = run_workload(&tracer, model, quick);
    tracer.flush();
    let (events, _skipped) = starqo_trace::load_jsonl(path)
        .unwrap_or_else(|e| panic!("reload trace {}: {e}", path.display()));
    (sum, events)
}

/// E16 report: uncalibrated run → accuracy join → least-squares calibration
/// → calibrated re-run → COST Q-error drop. Artifacts (both traces, both
/// accuracy JSON reports, and the fitted profile) land in the bench dir.
pub fn e16_estimation_observatory() -> crate::Report {
    let mut r = crate::Report::new(
        "E16",
        "estimation observatory — estimate→actual Q-error and cost calibration",
    );
    let dir = crate::bench_dir();
    let write = |name: &str, text: String| {
        let p = dir.join(name);
        std::fs::write(&p, text).unwrap_or_else(|e| panic!("write {}: {e}", p.display()));
        p
    };

    // Pass A: the default, uncalibrated cost model.
    let base = CostModel::default();
    let (sum_a, events_a) = traced_run(&dir.join("workload_uncalibrated.jsonl"), &base, false);
    let acc_a = AccuracyReport::from_events(&events_a);
    write("accuracy_uncalibrated.json", acc_a.to_json() + "\n");

    // Fit per-component scales from every joined node's (estimate
    // breakdown, actual time) pair.
    let fit = calibrate::fit(&calibrate::samples(&acc_a)).expect("calibration fit");
    let profile_path = write("cost_profile.json", fit.profile.to_json() + "\n");

    // Pass B: re-optimize and re-run everything under the fitted profile.
    let calibrated = fit.profile.apply(&base);
    let (_sum_b, events_b) = traced_run(&dir.join("workload_calibrated.jsonl"), &calibrated, false);
    let acc_b = AccuracyReport::from_events(&events_b);
    write("accuracy_calibrated.json", acc_b.to_json() + "\n");

    let (a50, a90, _) = acc_a.cost_quantiles();
    let (b50, b90, _) = acc_b.cost_quantiles();
    let (c50, c90, _) = acc_a.card_quantiles();
    r.line(format!(
        "workload: {} queries, {} joined plan nodes ({} rows returned)",
        sum_a.queries,
        acc_a.joined(),
        sum_a.rows
    ));
    r.line(format!(
        "card q-error (calibration-invariant): p50 {c50:.2}, p90 {c90:.2}"
    ));
    r.line(format!(
        "cost q-error uncalibrated: p50 {a50:.2}, p90 {a90:.2} (scale {:.1} ns/unit)",
        acc_a.cost_scale
    ));
    r.line(format!(
        "cost q-error calibrated:   p50 {b50:.2}, p90 {b90:.2} (scale {:.1} ns/unit)",
        acc_b.cost_scale
    ));
    r.line(format!(
        "median cost q-error drop: {a50:.2} -> {b50:.2} ({:+.1}%)",
        (b50 - a50) * 100.0 / a50
    ));
    r.line("");
    for line in fit.render().lines() {
        r.line(line);
    }
    r.line(format!(
        "profile (use via STARQO_COST_PROFILE): {}",
        profile_path.display()
    ));
    r.line("artifacts:");
    for name in [
        "workload_uncalibrated.jsonl",
        "accuracy_uncalibrated.json",
        "cost_profile.json",
        "workload_calibrated.jsonl",
        "accuracy_calibrated.json",
    ] {
        r.line(format!("  {}", dir.join(name).display()));
    }

    // Gate-able counters: only the deterministic half of the experiment
    // (pass A joins under the default model; pass B depends on measured
    // wall time through the fitted scales, so it stays out of the gate).
    let m = &mut r.metrics;
    m.count("obs_queries", sum_a.queries);
    m.count("obs_nodes_joined", acc_a.joined());
    m.count("obs_card_q_p50_milli", (c50 * 1000.0).round() as u64);
    m.merge_hist("obs_card_q_milli", &acc_a.card_hist);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    /// The quick workload runs end-to-end, the stream segments cleanly, and
    /// every query's winning-plan root joins to an executor actual.
    #[test]
    fn quick_workload_produces_a_joinable_stream() {
        let sink = StdArc::new(starqo_trace::MemorySink::new());
        let tracer = Tracer::shared(sink.clone());
        let sum = run_workload(&tracer, &CostModel::default(), true);
        assert!(sum.queries >= 6, "{sum:?}");
        let events = sink.events();
        let acc = AccuracyReport::from_events(&events);
        assert_eq!(acc.queries.len() as u64, sum.queries);
        for q in &acc.queries {
            assert!(q.joined > 0, "query {} joined no nodes", q.name);
            assert!(q.root_card_q.is_some(), "query {} has no root join", q.name);
        }
        assert_eq!(acc.unmatched_est, 0, "every best node should execute");
        // Calibration has enough samples to fit from this stream — every
        // joined node with a breakdown, so at least one per query.
        let fit = calibrate::fit(&calibrate::samples(&acc)).expect("fit");
        assert!(fit.profile.scale_io > 0.0);
        assert!(
            fit.profile.samples >= sum.queries,
            "{}",
            fit.profile.samples
        );
    }
}

//! # starqo-bench
//!
//! The experiment harness: one module per experiment of DESIGN.md's index,
//! regenerating every figure and testable claim of the paper, and one
//! driver over them. A row of [`EXPERIMENTS`] names an experiment, and the
//! `starqo-bench` binary runs it:
//!
//! ```text
//! cargo run --release -p starqo-bench -- <experiment> [--smoke]
//! cargo run --release -p starqo-bench -- all [--smoke]
//! cargo run --release -p starqo-bench -- workload_run [--smoke] [--out <trace.jsonl>]
//! ```
//!
//! Each run prints its reports and writes `BENCH_<experiment>.json` into
//! [`bench_dir`]. `--smoke` selects the small sizes of the experiments that
//! have them. With `STARQO_FAULTS` set, `chaos` and `heal` run one sweep
//! under that fault plan instead of their full experiment.

pub mod chaos;
pub mod comparison;
pub mod correctness;
pub mod distributed;
pub mod drift;
pub mod extensibility;
pub mod figures;
pub mod heal;
pub mod observatory;
pub mod serving;
pub mod spans;
pub mod strategies;
pub mod telemetry;
pub mod vexec;

use std::fmt::Write as _;
use std::path::PathBuf;

use starqo_core::Optimized;
use starqo_trace::MetricsSummary;

/// A printable experiment report, plus the optimizer metrics accumulated
/// across every `optimize` call the experiment made and the experiment's
/// own counters.
pub struct Report {
    pub id: &'static str,
    pub title: String,
    pub body: String,
    pub metrics: MetricsSummary,
}

impl Report {
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        Report {
            id,
            title: title.into(),
            body: String::new(),
            metrics: MetricsSummary::default(),
        }
    }

    pub fn line(&mut self, s: impl AsRef<str>) {
        let _ = writeln!(self.body, "{}", s.as_ref());
    }

    /// Fold one optimization's work counters and phase times into this
    /// report's totals.
    pub fn absorb(&mut self, out: &Optimized) {
        let (s, t, m) = (&out.stats, &out.table_stats, &mut self.metrics);
        for (name, n) in [
            ("alts_considered", s.alts_considered),
            ("conds_evaluated", s.conds_evaluated),
            ("degraded", u64::from(out.degraded)),
            ("glue_cache_hits", s.glue_cache_hits),
            ("glue_refs", s.glue_refs),
            ("glue_veneers", s.glue_veneers),
            ("memo_hits", s.memo_hits),
            ("native_calls", s.native_calls),
            ("plans_built", s.plans_built),
            ("plans_rejected", s.plans_rejected),
            ("rules_quarantined", out.quarantined.len() as u64),
            ("star_refs", s.star_refs),
            ("table_dominated", t.dominated),
            ("table_duplicates", t.duplicates),
            ("table_evicted", t.evicted),
            ("table_offered", t.offered),
        ] {
            m.count(name, n);
        }
        for (phase, nanos) in out.phase_nanos() {
            m.add_phase(phase, nanos);
        }
    }

    pub fn render(&self) -> String {
        let rule = "=".repeat(72);
        format!(
            "{rule}\n{} — {}\n{rule}\n{}\n",
            self.id, self.title, self.body
        )
    }
}

/// Where bench artifacts (`BENCH_*.json`, workload traces, accuracy
/// reports) land: `$STARQO_BENCH_DIR` when set, `target/bench/` otherwise —
/// never the repo root. Creates the directory.
pub fn bench_dir() -> PathBuf {
    let dir = match std::env::var_os("STARQO_BENCH_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target").join("bench"),
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
    }
    dir
}

/// The driver's options.
#[derive(Debug, Default)]
pub struct Args {
    /// `--smoke`: the small sizes.
    pub smoke: bool,
    /// `--out <path>`: where `workload_run` writes its trace (default
    /// `<bench_dir>/workload_trace.jsonl`).
    pub out: Option<PathBuf>,
}

/// One row of the driver's table.
pub struct Experiment {
    /// The driver's argument, and the stem of the `BENCH_<name>.json` the
    /// run writes.
    pub name: &'static str,
    /// The DESIGN.md / EXPERIMENTS.md experiment ids it runs.
    pub ids: &'static str,
    /// Run it.
    pub run: fn(&Args) -> Vec<Report>,
}

/// Every experiment, in id order; `starqo-bench all` runs them all.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "figure1", ids: "E1", run: |_| vec![figures::e1_figure1()] },
    Experiment { name: "figure2", ids: "E2", run: |_| vec![figures::e2_figure2()] },
    Experiment { name: "figure3", ids: "E3", run: |_| vec![figures::e3_figure3()] },
    Experiment { name: "strategy_space", ids: "E4", run: |_| vec![strategies::e4_strategy_space()] },
    Experiment { name: "hash_join", ids: "E5", run: |_| vec![strategies::e5_hash_join()] },
    Experiment { name: "forced_projection", ids: "E6", run: |_| vec![strategies::e6_forced_projection()] },
    Experiment { name: "dynamic_index", ids: "E7", run: |_| vec![strategies::e7_dynamic_index()] },
    Experiment { name: "star_vs_xform", ids: "E8", run: |_| vec![comparison::e8_star_vs_xform()] },
    Experiment { name: "enumeration", ids: "E9", run: |_| vec![comparison::e9_enumeration()] },
    Experiment { name: "join_sites", ids: "E10", run: |_| vec![distributed::e10_join_sites()] },
    Experiment { name: "extensibility", ids: "E11", run: |_| vec![extensibility::e11_extensibility()] },
    Experiment { name: "reestimation", ids: "E12", run: |_| vec![comparison::e12_reestimation()] },
    Experiment { name: "correctness", ids: "E13", run: |_| vec![correctness::e13_correctness()] },
    Experiment { name: "ablations", ids: "E14", run: |_| vec![comparison::e14_ablations()] },
    Experiment { name: "estimation", ids: "E15 E16", run: |_| {
        vec![correctness::e15_estimation_quality(), observatory::e16_estimation_observatory()]
    } },
    Experiment { name: "serving", ids: "E17", run: |a| vec![serving::e17_serving(a.smoke)] },
    Experiment { name: "chaos", ids: "E18", run: |a| vec![chaos::e18_chaos(env_faults(), a.smoke)] },
    Experiment { name: "telemetry", ids: "E19", run: |a| vec![telemetry::e19_telemetry(a.smoke)] },
    Experiment { name: "drift", ids: "E20", run: |a| vec![drift::e20_drift(a.smoke)] },
    Experiment { name: "spans", ids: "E21", run: |a| vec![spans::e21_spans(a.smoke)] },
    Experiment { name: "heal", ids: "E22", run: |a| vec![match env_faults() {
        Some(plan) => heal::e22_under_plan(plan),
        None => heal::e22_heal(a.smoke),
    }] },
    Experiment { name: "exec", ids: "E23", run: |_| vec![vexec::e23_vexec()] },
    Experiment { name: "workload_run", ids: "E16 trace", run: |a| {
        let path = a.out.clone().unwrap_or_else(|| bench_dir().join("workload_trace.jsonl"));
        vec![observatory::workload_trace(&path, a.smoke)]
    } },
];

/// The fault plan `STARQO_FAULTS` names, if it is set.
fn env_faults() -> Option<std::sync::Arc<starqo_core::FaultPlan>> {
    starqo_core::FaultPlan::from_env().unwrap_or_else(|e| panic!("STARQO_FAULTS: {e}"))
}

/// Run one experiment: print its reports and drop a machine-readable
/// `BENCH_<name>.json` (wall time plus the merged counters and phase
/// timings) into [`bench_dir`] — set `STARQO_BENCH_DIR` to redirect it,
/// which is how regression-gate baselines are (re)generated into
/// `baselines/`.
pub fn run(e: &Experiment, args: &Args) {
    let (reports, wall_ms) = time_ms(|| (e.run)(args));
    let mut merged = MetricsSummary::default();
    for r in &reports {
        print!("{}", r.render());
        merged.absorb(&r.metrics);
    }
    let json = starqo_trace::json::JsonObj::new()
        .str("bench", e.name)
        .f64("wall_ms", wall_ms)
        .u64("reports", reports.len() as u64)
        .raw("metrics", &merged.to_json())
        .finish();
    let path = bench_dir().join(format!("BENCH_{}.json", e.name));
    match std::fs::write(&path, json + "\n") {
        // On stdout deliberately: every run reports where its gate artifact
        // landed as part of its normal output.
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Pad/format a row of cells for table output.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Milliseconds of a closure.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

//! The chaos runner: deterministic fault-injection sweeps over the workload
//! fleet.
//!
//! One sweep arms exactly one fault — a native condition function, a
//! property (cost) evaluation, an executor LOLEPOP, or a vectorized-executor
//! morsel/exchange stage made to panic, error, or stall on its k-th
//! invocation — then optimizes *and executes* each fleet query under it
//! (serially, and through `starqo-vexec` when the plan is supported). The robustness contract asserted here is the
//! tentpole's: every query finishes with a valid (possibly degraded) plan
//! or a typed error; a panic escaping to the runner is a contract
//! violation, counted and reported.
//!
//! Everything is seeded (`Rng64`, `SEED`), so a failing sweep replays
//! exactly. With `STARQO_FAULTS` set, the driver runs the fleet once under
//! exactly that fault plan instead of sweeping.

use std::fmt::Write as _;
use std::sync::Arc;

use starqo_catalog::Catalog;
use starqo_core::natives::Natives;
use starqo_core::{faults, FaultMode, FaultPlan, OptConfig, Optimizer};
use starqo_exec::Executor;
use starqo_query::Query;
use starqo_storage::Database;
use starqo_workload::{
    dept_emp_catalog, dept_emp_database, dept_emp_query, query_shape, synth_catalog,
    synth_database, QueryShape, Rng64, SynthSpec,
};

/// The sweep's seed: it picks which invocation each fault fires on.
const SEED: u64 = 42;

/// Every operator name the property functions and the executor dispatch on.
/// `JOIN` matches all flavors (`JOIN(NL)`, `JOIN(MG)`, `JOIN(HA)`) through
/// the fault spec's prefix rule.
const OPERATORS: &[&str] = &[
    "ACCESS",
    "GET",
    "SORT",
    "SHIP",
    "STORE",
    "BUILD_INDEX",
    "FILTER",
    "JOIN",
    "UNION",
];

/// Outcome totals of a chaos run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Distinct (site, target, mode) faults armed.
    pub sweeps: u64,
    /// Query runs attempted (sweeps × fleet size).
    pub runs: u64,
    /// Runs that produced and executed a plan with no degradation.
    pub ok: u64,
    /// Runs that produced and executed a plan under budget/quarantine
    /// degradation.
    pub degraded: u64,
    /// Runs that failed with a *typed* error (the contract's other
    /// acceptable outcome).
    pub typed_errors: u64,
    /// Rule alternatives quarantined across all runs.
    pub quarantines: u64,
    /// Contract violations: a panic reached the runner. Each entry names
    /// the sweep and query. Must be empty.
    pub escapes: Vec<String>,
}

impl ChaosReport {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos: {} sweeps x fleet = {} runs",
            self.sweeps, self.runs
        );
        let _ = writeln!(
            out,
            "  ok: {}  degraded: {}  typed errors: {}  (rule quarantines: {})",
            self.ok, self.degraded, self.typed_errors, self.quarantines
        );
        let _ = writeln!(out, "  panic escapes: {}", self.escapes.len());
        for e in &self.escapes {
            let _ = writeln!(out, "    ESCAPE {e}");
        }
        out
    }
}

/// One fleet entry: a named query with its catalog and data.
struct FleetQuery {
    name: String,
    cat: Arc<Catalog>,
    db: Database,
    query: Query,
}

fn build_fleet(quick: bool) -> Vec<FleetQuery> {
    let mut fleet = Vec::new();
    let mut push_paper = |tag: &str, distributed: bool| {
        let cat = dept_emp_catalog(distributed, 1_000);
        let db = dept_emp_database(cat.clone());
        let query = dept_emp_query(&cat);
        fleet.push(FleetQuery {
            name: format!("paper/{tag}"),
            cat,
            db,
            query,
        });
    };
    push_paper("local", false);
    if !quick {
        push_paper("distributed", true);
    }
    let seeds: &[u64] = if quick { &[0] } else { &[0, 1] };
    for &seed in seeds {
        let spec = SynthSpec {
            tables: 3,
            card_range: (200, 800),
            index_prob: 0.5,
            btree_prob: 0.4,
            sites: 1 + (seed % 2) as usize,
            ..Default::default()
        };
        let cat = synth_catalog(seed, &spec);
        let shapes: &[(QueryShape, &str)] = if quick {
            &[(QueryShape::Chain, "chain")]
        } else {
            &[(QueryShape::Chain, "chain"), (QueryShape::Star, "star")]
        };
        for (shape, sname) in shapes {
            fleet.push(FleetQuery {
                name: format!("synth{seed}/{sname}"),
                cat: cat.clone(),
                db: synth_database(seed, cat.clone()),
                query: query_shape(&cat, *shape, 3, seed % 2 == 0),
            });
        }
    }
    fleet
}

/// Optimize and execute one fleet query with a fault plan armed at every
/// site (the engine only consults `native`/`prop` specs, the executor hook
/// only `exec` specs, so arming both is always correct — and lets a mixed
/// `STARQO_FAULTS` spec work). Returns `Ok((degraded, quarantines))` on
/// success, `Err(typed error)` otherwise. Panics escaping this function
/// are the caller's business to catch — that is the contract violation the
/// runner exists to detect.
fn run_one(plan: &Arc<FaultPlan>, fq: &FleetQuery) -> Result<(bool, usize), String> {
    let opt = Optimizer::new(fq.cat.clone()).map_err(|e| format!("load rules: {e}"))?;
    let config = OptConfig {
        faults: Some(plan.clone()),
        ..OptConfig::full()
    };
    let out = opt
        .optimize(&fq.query, &config)
        .map_err(|e| format!("optimize: {e}"))?;
    let mut ex = Executor::new(&fq.db, &fq.query);
    let p = plan.clone();
    ex.set_fault_hook(Arc::new(move |op: &str| {
        p.trigger("exec", op).and_then(|m| faults::fire(m, "exec"))
    }));
    let serial = ex.run(&out.best).map_err(|e| format!("execute: {e}"))?;
    // Vectorized leg: the same plan through the morsel-driven executor,
    // with `vexec` fault specs wired into its worker/exchange hook. A
    // worker panic must come back as a typed error (containment), and a
    // fault-free vexec run must bit-match the serial result — a divergence
    // panics here, which the runner counts as a contract violation.
    if starqo_vexec::supports(&out.best, &fq.query).is_ok() {
        let mut vx = starqo_vexec::VexecExecutor::new(&fq.db, &fq.query);
        vx.set_workers(4);
        let p = plan.clone();
        vx.set_fault_hook(Arc::new(move |site: &str| {
            p.trigger("vexec", site)
                .and_then(|m| faults::fire(m, "vexec"))
        }));
        let vec = vx.run(&out.best).map_err(|e| format!("vexec: {e}"))?;
        assert_eq!(vec, serial, "vexec diverged from serial under chaos");
    }
    Ok((out.degraded, out.quarantined.len()))
}

/// Classify one caught run into the report's buckets.
fn classify(
    report: &mut ChaosReport,
    label: impl FnOnce() -> String,
    caught: std::thread::Result<Result<(bool, usize), String>>,
) {
    match caught {
        Ok(Ok((degraded, quarantines))) => {
            report.quarantines += quarantines as u64;
            if degraded || quarantines > 0 {
                report.degraded += 1;
            } else {
                report.ok += 1;
            }
        }
        Ok(Err(_typed)) => report.typed_errors += 1,
        Err(_payload) => report.escapes.push(label()),
    }
}

/// Run the fleet once under a caller-supplied fault plan — the consumer of
/// the `STARQO_FAULTS` environment spec. Hit counters reset per query, so
/// a `@k` spec means "the k-th invocation within each query".
fn run_under_plan(plan: Arc<FaultPlan>, quick: bool) -> ChaosReport {
    let fleet = build_fleet(quick);
    let mut report = ChaosReport {
        sweeps: 1,
        ..ChaosReport::default()
    };
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for fq in &fleet {
        report.runs += 1;
        plan.reset();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(&plan, fq)));
        classify(&mut report, || format!("env spec on {}", fq.name), caught);
    }
    std::panic::set_hook(prev_hook);
    report
}

/// Sweep every fault site × mode across the fleet. Deterministic for a
/// given `quick`; `SEED` varies which invocation (k) each fault fires on.
fn run_chaos(quick: bool) -> ChaosReport {
    let mut rng = Rng64::new(SEED);
    let fleet = build_fleet(quick);
    let natives = Natives::builtin();

    let mut targets: Vec<(&str, String)> = natives
        .names()
        .iter()
        .map(|n| ("native", n.clone()))
        .collect();
    for op in OPERATORS {
        targets.push(("prop", (*op).to_string()));
        targets.push(("exec", (*op).to_string()));
    }
    // Vectorized-executor stages: morsel workers and the ordered exchange.
    // `*` arms every vexec hook consultation at once.
    for t in ["morsel", "exchange", "*"] {
        targets.push(("vexec", t.to_string()));
    }
    // A short stall is enough to prove the k-th-invocation plumbing without
    // slowing the sweep; the `parse` path accepts arbitrary durations.
    let modes = [FaultMode::Panic, FaultMode::Error, FaultMode::Stall(20_000)];

    let mut report = ChaosReport::default();
    // Panics are part of the experiment: silence the default hook's
    // backtrace spam for the duration, then restore it.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (site, target) in &targets {
        for mode in modes {
            report.sweeps += 1;
            // Vary which invocation the fault fires on; k=1 (first call)
            // stays in the mix.
            let k = 1 + rng.below(3);
            for fq in &fleet {
                report.runs += 1;
                // A fresh plan per run resets the hit counters, so the k-th
                // invocation is counted per query, not per sweep.
                let plan = Arc::new(FaultPlan::single(site, target, mode, k));
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(&plan, fq)));
                classify(
                    &mut report,
                    || format!("{site}:{target}:{mode:?}@{k} on {}", fq.name),
                    caught,
                );
            }
        }
    }
    std::panic::set_hook(prev_hook);
    report
}

/// E18: the fault-injection sweep — or, given `plan` (the `STARQO_FAULTS`
/// spec), one run of the fleet under exactly that plan. Panics when a fault
/// escaped containment.
pub fn e18_chaos(plan: Option<Arc<FaultPlan>>, quick: bool) -> crate::Report {
    let chaos = match plan {
        Some(plan) => run_under_plan(plan, quick),
        None => run_chaos(quick),
    };
    let mut report = crate::Report::new("E18", "fault-injection sweep (zero panic escapes)");
    report.line(chaos.render());
    assert!(chaos.escapes.is_empty(), "{}", chaos.render());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick sweep covers every site kind and never lets a panic
    /// escape — the tentpole's robustness contract.
    #[test]
    fn quick_chaos_sweep_contains_every_fault() {
        let report = run_chaos(true);
        assert!(report.escapes.is_empty(), "{}", report.render());
        assert_eq!(
            report.ok + report.degraded + report.typed_errors,
            report.runs,
            "{}",
            report.render()
        );
        // The sweep must actually bite: faults land (quarantines or typed
        // errors), and un-hit targets still complete cleanly.
        assert!(report.quarantines > 0, "{}", report.render());
        assert!(report.typed_errors > 0, "{}", report.render());
        assert!(report.ok > 0, "{}", report.render());
    }
}

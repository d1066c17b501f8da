//! E17: the serving benchmark — N worker threads hammer one [`Service`]
//! with a closed-loop, Zipf-skewed stream of parameterized queries, and the
//! harness checks the plan cache absorbs it: hit ratio, exactly one cold
//! optimization per template, and warm plans that match the oracle. The
//! throughput claim (cached vs cold serving) lives in the perf ledger's
//! `hot_plan` and `cold_adhoc` workloads.
//!
//! Skew matters: a serving layer earns its keep exactly when a few query
//! *shapes* dominate the stream while their bound constants vary request to
//! request. Each template below is one canonical shape; each request draws
//! a fresh constant, so every cache hit is a plan optimized for a
//! *different* literal — the fingerprint layer's whole value proposition.
//!
//! Correctness rides along: after the pass, every template is executed
//! through the still-warm service and compared, as a multiset, against the
//! brute-force reference oracle. A divergence count other than zero fails
//! the run (and the regression gate, which pins the counter).

use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

use starqo_catalog::Catalog;
use starqo_exec::{reference_eval, rows_equal_multiset};
use starqo_query::{canonicalize, Query};
use starqo_serve::{Service, ServiceConfig};
use starqo_storage::Database;
use starqo_trace::Metric;
use starqo_workload::{
    query_shape_param, synth_catalog, synth_database, QueryShape, Rng64, SynthSpec,
};

use crate::{row, Report};

/// One canonical query shape the workload draws from. Requests against a
/// `param` template carry a fresh constant each time; all of them share one
/// fingerprint (and so one cached plan).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Template {
    pub(crate) name: &'static str,
    pub(crate) shape: QueryShape,
    pub(crate) n: usize,
    pub(crate) param: bool,
}

fn templates(quick: bool) -> Vec<Template> {
    let t = |name, shape, n, param| Template {
        name,
        shape,
        n,
        param,
    };
    if quick {
        vec![
            t("chain2?", QueryShape::Chain, 2, true),
            t("chain3?", QueryShape::Chain, 3, true),
            t("star3?", QueryShape::Star, 3, true),
            t("chain2", QueryShape::Chain, 2, false),
        ]
    } else {
        vec![
            t("chain2?", QueryShape::Chain, 2, true),
            t("chain3?", QueryShape::Chain, 3, true),
            t("star3?", QueryShape::Star, 3, true),
            t("cycle3?", QueryShape::Cycle, 3, true),
            t("clique3?", QueryShape::Clique, 3, true),
            t("chain2", QueryShape::Chain, 2, false),
            t("chain3", QueryShape::Chain, 3, false),
            t("star3", QueryShape::Star, 3, false),
            t("cycle3", QueryShape::Cycle, 3, false),
            t("clique3", QueryShape::Clique, 3, false),
        ]
    }
}

/// Cumulative Zipf(s) distribution over `k` ranks.
fn zipf_cdf(k: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=k).map(|i| 1.0 / (i as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// The catalog seed of E17's workload, and the first pass seed.
pub(crate) const SEED: u64 = 42;
/// The Zipf exponent over the template fleet.
pub(crate) const ZIPF_S: f64 = 1.1;
/// Executed requests draw their constants from `0..EXEC_DOMAIN`. The
/// synthetic payload columns have at least `(card_min / 10).max(2) = 3`
/// distinct values, so every draw selects rows and every run observes a
/// real cardinality — a query that returns nothing cannot witness drift.
const EXEC_DOMAIN: u64 = 3;

/// E17's workload, which E19–E22 replay against differently configured
/// services: a 4-table synthetic catalog, the template fleet over it, a
/// Zipf distribution over the templates, and the closed-loop client shape.
pub(crate) struct Workload {
    pub(crate) cat: Arc<Catalog>,
    pub(crate) fleet: Vec<Template>,
    cdf: Vec<f64>,
    pub(crate) threads: usize,
    pub(crate) per_thread: usize,
}

/// The synthetic catalog spec of [`Workload`].
pub(crate) fn spec() -> SynthSpec {
    SynthSpec {
        tables: 4,
        card_range: (30, 60),
        sites: 1,
        index_prob: 0.6,
        btree_prob: 0.4,
        payload_cols: 2,
    }
}

impl Workload {
    pub(crate) fn new(quick: bool, (threads, per_thread): (usize, usize)) -> Workload {
        let fleet = templates(quick);
        Workload {
            cat: synth_catalog(SEED, &spec()),
            cdf: zipf_cdf(fleet.len(), ZIPF_S),
            fleet,
            threads,
            per_thread,
        }
    }

    /// Requests in one pass.
    pub(crate) fn requests(&self) -> u64 {
        (self.threads * self.per_thread) as u64
    }

    /// A pass of optimize-only requests, constants from `0..64`.
    pub(crate) fn optimize_pass(&self, svc: &Service, seed: u64) -> PassSummary {
        self.run_pass(seed, 64, |q| svc.optimize(q))
    }

    /// A pass of requests that also execute against `db`, so the service's
    /// feedback plane sees actual root cardinalities.
    pub(crate) fn execute_pass(&self, svc: &Service, db: &Database, seed: u64) -> PassSummary {
        self.run_pass(seed, EXEC_DOMAIN, |q| svc.execute(db, q))
    }

    /// Drive `threads` closed-loop workers for `per_thread` requests each.
    /// Every request picks a template and, for a `param` one, a constant
    /// from `0..domain`, then calls `serve`. Template picks and constants
    /// come from per-thread deterministic PRNGs, so the *set* of
    /// fingerprints touched — and with single-flight, the cold-optimization
    /// count — is identical run to run; only the scheduling (hit vs
    /// coalesced split, wall time) varies.
    fn run_pass<R, E: Display>(
        &self,
        seed: u64,
        domain: u64,
        serve: impl Fn(&Query) -> Result<R, E> + Sync,
    ) -> PassSummary {
        let (threads, per_thread, serve) = (self.threads, self.per_thread, &serve);
        let started = Instant::now();
        let mut latencies: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    scope.spawn(move || {
                        let mut rng =
                            Rng64::new(seed.wrapping_mul(0x9E37).wrapping_add(tid as u64));
                        let mut lats = Vec::with_capacity(per_thread);
                        for _ in 0..per_thread {
                            let t = &self.fleet[zipf_pick(&self.cdf, rng.next_f64())];
                            let c = t.param.then(|| rng.below(domain) as i64);
                            let query = query_shape_param(&self.cat, t.shape, t.n, c);
                            let req = Instant::now();
                            if let Err(e) = serve(&query) {
                                panic!("serve {}: {e}", t.name);
                            }
                            lats.push(req.elapsed().as_nanos() as u64);
                        }
                        lats
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker thread"))
                .collect()
        });
        let wall_secs = started.elapsed().as_secs_f64();
        latencies.sort_unstable();
        let pct =
            |p: usize| latencies[(latencies.len() * p / 100).min(latencies.len() - 1)] as f64 / 1e3;
        PassSummary {
            requests: self.requests(),
            wall_secs,
            p50_us: pct(50),
            p99_us: pct(99),
        }
    }
}

/// What one multi-threaded pass over the workload measured.
#[derive(Debug, Clone)]
pub(crate) struct PassSummary {
    pub(crate) requests: u64,
    pub(crate) wall_secs: f64,
    pub(crate) p50_us: f64,
    pub(crate) p99_us: f64,
}

impl PassSummary {
    pub(crate) fn throughput(&self) -> f64 {
        self.requests as f64 / self.wall_secs.max(1e-9)
    }

    /// Percent of `base`'s throughput this pass gives up.
    pub(crate) fn overhead_vs(&self, base: &PassSummary) -> f64 {
        (base.throughput().max(1e-9) / self.throughput().max(1e-9) - 1.0) * 100.0
    }
}

/// One warmup pass per service (`pass(svc, 0)`), then `rounds` measured
/// passes (`pass(svc, round)`) interleaved round-robin across the services,
/// so slow moments of the host hit every mode alike. Returns each service's
/// best (highest-throughput) measured pass.
pub(crate) fn best_of(
    svcs: &[&Service],
    rounds: u64,
    pass: impl Fn(&Service, u64) -> PassSummary,
) -> Vec<PassSummary> {
    for svc in svcs {
        pass(svc, 0);
    }
    let mut best: Vec<Option<PassSummary>> = vec![None; svcs.len()];
    for round in 0..rounds {
        for (slot, svc) in best.iter_mut().zip(svcs) {
            let p = pass(svc, round);
            if slot
                .as_ref()
                .is_none_or(|b| p.throughput() > b.throughput())
            {
                *slot = Some(p);
            }
        }
    }
    best.into_iter()
        .map(|b| b.expect("measured pass"))
        .collect()
}

/// The throughput table of a [`best_of`] comparison: one row per mode, its
/// overhead against the first mode's pass.
pub(crate) fn mode_table(report: &mut Report, modes: &[&str], best: &[PassSummary]) {
    let widths = [11, 9, 12, 9, 9, 12];
    let header = [
        "mode",
        "requests",
        "thrpt(q/s)",
        "p50(us)",
        "p99(us)",
        "overhead(%)",
    ];
    report.line(row(&header.map(String::from), &widths));
    for (i, (mode, pass)) in modes.iter().zip(best).enumerate() {
        let overhead = match i {
            0 => "baseline".into(),
            _ => format!("{:+.1}", pass.overhead_vs(&best[0])),
        };
        let cells = [
            (*mode).into(),
            pass.requests.to_string(),
            format!("{:.0}", pass.throughput()),
            format!("{:.1}", pass.p50_us),
            format!("{:.1}", pass.p99_us),
            overhead,
        ];
        report.line(row(&cells, &widths));
    }
}

/// Execute every template through the (warm) service and compare against
/// the brute-force oracle. Returns `(executions, divergences)`.
fn correctness_sweep(svc: &Service, w: &Workload, db: &Database) -> (u64, u64) {
    let mut executions = 0u64;
    let mut divergences = 0u64;
    for t in &w.fleet {
        let constants: &[Option<i64>] = if t.param {
            &[Some(1), Some(7)]
        } else {
            &[None]
        };
        for &c in constants {
            let query = query_shape_param(&w.cat, t.shape, t.n, c);
            let (got, _) = svc
                .execute(db, &query)
                .unwrap_or_else(|e| panic!("execute {}: {e}", t.name));
            let want = reference_eval(db, &canonicalize(&query).query)
                .unwrap_or_else(|e| panic!("reference {}: {e:?}", t.name));
            executions += 1;
            if !rows_equal_multiset(&got.rows, &want) {
                divergences += 1;
            }
        }
    }
    (executions, divergences)
}

/// E17: the plan cache under a skewed closed-loop load — hit ratio, one
/// cold optimization per template, and oracle-checked warm plans.
pub fn e17_serving(quick: bool) -> Report {
    let w = Workload::new(quick, if quick { (4, 60) } else { (8, 250) });
    let db = synth_database(SEED, w.cat.clone());
    let svc = Service::new(w.cat.clone(), ServiceConfig::default()).expect("service builds");

    let warm = w.optimize_pass(&svc, SEED);
    let warm_snap = svc.counters();
    let (executions, divergences) = correctness_sweep(&svc, &w, &db);
    let final_snap = svc.counters();

    let mut report = Report::new(
        "E17",
        format!(
            "serving: {} threads x {} reqs, {} templates, zipf(s={ZIPF_S})",
            w.threads,
            w.per_thread,
            w.fleet.len()
        ),
    );
    report.line(format!(
        "warm pass: {} requests, hit ratio {:.3}, {} misses",
        warm.requests,
        warm_snap.hit_ratio(),
        warm_snap[Metric::CacheMiss]
    ));
    report.line(format!(
        "cold-optimization time avoided: {:.1}ms across {} warm serves",
        final_snap[Metric::SavedNanos] as f64 / 1e6,
        final_snap[Metric::CacheHit] + final_snap[Metric::CacheCoalesced],
    ));
    report.line(format!(
        "correctness: {executions} warm executions vs reference oracle, divergences: {divergences}"
    ));

    // Invariants the regression gate leans on. Everything asserted or
    // counted here is deterministic: template picks are fixed by per-thread
    // seeds and single-flight pins cold optimizations to one per distinct
    // fingerprint, whatever the thread interleaving.
    assert_eq!(divergences, 0, "cached plans must match the oracle");
    assert!(
        warm_snap.hit_ratio() >= 0.9,
        "hit ratio {:.3} below 0.9 — cache is not absorbing the skew",
        warm_snap.hit_ratio()
    );
    assert_eq!(
        warm_snap[Metric::CacheMiss],
        w.fleet.len() as u64,
        "exactly one cold optimization per template"
    );

    let reg = &mut report.metrics;
    reg.count("serve_requests", warm.requests);
    reg.count("serve_cache_miss", final_snap[Metric::CacheMiss]);
    reg.count(
        "serve_warm",
        final_snap[Metric::CacheHit] + final_snap[Metric::CacheCoalesced],
    );
    reg.count("serve_cache_evict", final_snap[Metric::CacheEvict]);
    reg.count("serve_rejected", final_snap[Metric::Rejected]);
    reg.count("serve_divergences", divergences);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let cdf = zipf_cdf(10, 1.1);
        assert_eq!(cdf.len(), 10);
        assert!((cdf[9] - 1.0).abs() < 1e-9);
        for w in cdf.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Rank 1 carries more than a uniform share.
        assert!(cdf[0] > 0.2);
        assert_eq!(zipf_pick(&cdf, 0.0), 0);
        assert_eq!(zipf_pick(&cdf, 0.999_999), 9);
    }

    #[test]
    fn quick_serving_run_hits_and_matches_oracle() {
        // The assertions live inside e17_serving: hit ratio >= 0.9, zero
        // divergences, misses == templates.
        let report = e17_serving(true);
        assert_eq!(report.metrics.counter("serve_divergences"), Some(0));
        assert_eq!(report.metrics.counter("serve_cache_miss"), Some(4));
        assert!(report.body.contains("divergences: 0"), "{}", report.body);
    }
}

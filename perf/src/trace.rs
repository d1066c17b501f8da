//! The per-layer pass: one client, a fixed request list, every layer timed
//! from outside around its public calls.
//!
//! Service A answers whole requests exactly as `bench` sends them. Service B
//! is never asked for a whole request: the runner makes each public-layer
//! call itself and records a span around it. Side measurements that are not
//! part of a request (the optimizer called directly, the vectorized
//! executor on the served plan) are recorded as spans without a parent.
//! What A's whole call costs beyond the sum of B's layers is reported as
//! `serve.unattributed_ns`, so the layers add up to the whole by
//! construction and the remainder is in the open.

use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use starqo_catalog::Value;
use starqo_core::{OptConfig, Optimizer};
use starqo_exec::Executor;
use starqo_query::parse_query;
use starqo_vexec::{supports, VexecExecutor};

use crate::alloc;
use crate::load;
use crate::oracle::Expect;
use crate::report::{Metrics, PER_LAYER};
use crate::run::{bump_stats, request, setup, Stream};
use crate::workloads::Workload;

/// The vectorized executor is probed on every this-many-th request.
const VEXEC_EVERY: usize = 4;
/// Calls averaged for the off-request-path timings.
const SIDE_CALLS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Request,
    CatalogSnapshot,
    QueryParse,
    QueryFingerprint,
    ServeHit,
    ServeMiss,
    ExecRun,
    CoreOptimize,
    VexecRun,
    VexecRun1,
    DslCompile,
    EpochBump,
    TraceSnapshot,
}

const LAYERS: usize = Layer::TraceSnapshot as usize + 1;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::CatalogSnapshot => "catalog.snapshot",
            Layer::QueryParse => "query.parse",
            Layer::QueryFingerprint => "query.fingerprint",
            Layer::ServeHit => "serve.hit",
            Layer::ServeMiss => "serve.miss",
            Layer::ExecRun => "exec.run",
            Layer::CoreOptimize => "core.optimize",
            Layer::VexecRun => "vexec.run",
            Layer::VexecRun1 => "vexec.run1",
            Layer::DslCompile => "dsl.compile",
            Layer::EpochBump => "catalog.epoch_bump",
            Layer::TraceSnapshot => "trace.snapshot",
        }
    }
}

struct Span {
    layer: Layer,
    req: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// One timed call: when, and how many allocations.
struct Measure {
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

/// In-memory spans, written out when the pass ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    allocs: [u64; LAYERS],
}

impl Recorder {
    fn new(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            allocs: [0; LAYERS],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, Measure) {
        let allocs = alloc::count();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let allocs = alloc::count() - allocs;
        (
            out,
            Measure {
                start_ns,
                end_ns,
                allocs,
            },
        )
    }

    fn record(&mut self, layer: Layer, req: u32, parent: Option<u32>, m: &Measure) {
        self.allocs[layer as usize] += m.allocs;
        self.spans.push(Span {
            layer,
            req,
            parent,
            start_ns: m.start_ns,
            end_ns: m.end_ns,
        });
    }

    fn timed<T>(
        &mut self,
        layer: Layer,
        req: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, m) = self.measure(f);
        self.record(layer, req, parent, &m);
        out
    }

    fn open(&mut self, layer: Layer, req: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            req,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Per layer, `(self nanoseconds, spans)`: a span's duration minus the
    /// part its child spans cover.
    fn self_times(&self) -> [(u64, u64); LAYERS] {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut acc = [(0u64, 0u64); LAYERS];
        for (s, covered) in self.spans.iter().zip(covered) {
            let slot = &mut acc[s.layer as usize];
            slot.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
            slot.1 += 1;
        }
        acc
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The value of one series in Prometheus text, by its exact name and labels.
fn prom(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub struct LayerReport {
    /// Every [`PER_LAYER`] metric, in that order.
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Counters that must repeat exactly for one seed and one client.
    pub counts: Vec<(&'static str, u64)>,
    /// Mean nanoseconds per request by layer group, then `unattributed`,
    /// then `whole`: the reconciliation.
    pub shares: Vec<(&'static str, f64)>,
    /// Public series the program no longer exports.
    pub absent: Vec<String>,
    pub spans_path: PathBuf,
}

/// `storage.*`: load, scan and probe rates of the workload's own tables.
fn storage_rates(w: &Workload, seed: u64) -> Result<(f64, f64, f64), String> {
    if !w.execute {
        return Ok((0.0, 0.0, 0.0));
    }
    let cat = load::catalog(&w.dataset)?;
    let tuples = load::tuples(&w.dataset, seed);
    let t = Instant::now();
    let db = load::database(&cat, tuples)?;
    let load = w.dataset.total_rows() as f64 / t.elapsed().as_secs_f64();

    let largest = cat
        .tables()
        .iter()
        .max_by_key(|t| t.card)
        .expect("a workload has tables");
    let table = db.table(largest.id).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut rows = 0u64;
    let mut sum = 0i64;
    for _ in 0..20 {
        for row in table.rows_range(0..table.len()) {
            if let Value::Int(v) = row.get(0) {
                sum = sum.wrapping_add(*v);
            }
            rows += 1;
        }
    }
    black_box(sum);
    let scan = rows as f64 / t.elapsed().as_secs_f64();

    let probe = match cat.indexes().first() {
        Some(ix) => {
            let data = db.index(ix.id).map_err(|e| e.to_string())?;
            let keys: Vec<[Value; 1]> = (0..1000).map(|k| [Value::Int(k)]).collect();
            let t = Instant::now();
            let mut found = 0usize;
            for key in &keys {
                found += data.probe_prefix(key).count();
            }
            black_box(found);
            t.elapsed().as_nanos() as f64 / keys.len() as f64
        }
        None => 0.0,
    };
    Ok((load, scan, probe))
}

/// Run the per-layer pass of `w` and write its spans under `out_dir`.
pub fn layers(w: &Workload, seed: u64, out_dir: &Path) -> Result<LayerReport, String> {
    let n = w.trace_requests;
    let tables = &w.dataset.tables;
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get().min(2));
    let (load_rate, scan_rate, probe_ns) = storage_rates(w, seed)?;

    let mut sql = String::new();
    let (a, _) = setup(w, seed)?;
    let (b, _) = setup(w, seed)?;
    let mut rec = Recorder::new(n * 10 + 64);
    alloc::enable(true);

    let (cat, mut opt_epoch) = b.svc.shared_catalog().snapshot();
    let mut optimizer = rec
        .timed(Layer::DslCompile, 0, None, || Optimizer::new(cat))
        .map_err(|e| e.to_string())?;
    let opt_config = OptConfig::default();

    let mut whole_ns = 0u64;
    let mut whole_head_ns = 0u64;
    let (mut serve_failed, mut exec_failed) = (0u64, 0u64);
    let (mut rows_in, mut vexec_rows_in, mut vexec_batches) = (0u64, 0u64, 0u64);
    let (mut probed, mut supported, mut exec_ns_supported) = (0u64, 0u64, 0u64);

    for (i, req) in Stream::new(w, seed, 0).take(n).enumerate() {
        let id = i as u32;
        if w.bump_every > 0 && i % w.bump_every == w.bump_every - 1 {
            let k = (i / w.bump_every) as u64;
            rec.timed(Layer::EpochBump, id, None, || bump_stats(w, &a, k));
            rec.timed(Layer::EpochBump, id, None, || bump_stats(w, &b, k));
        }
        req.spec.render(tables, &req.lits, &mut sql);
        let fp = req.fleet.map(|r| a.fleet_fp[r]);

        // A: the whole request, as `bench` sends it.
        let (dt, answer) = request(&a.svc, a.db.as_ref(), &sql);
        whole_ns += dt.as_nanos() as u64;
        if i < (n / 4).max(1) {
            whole_head_ns += dt.as_nanos() as u64;
        }
        let ok = answer.is_ok_and(|x| fp.is_none_or(|fp| fp == x.fp) && x.rows == req.expect);
        serve_failed += !ok as u64;

        // B: the same request, one public call at a time.
        let root = rec.open(Layer::Request, id);
        let parent = Some(root);
        let (cat, epoch) = rec.timed(Layer::CatalogSnapshot, id, parent, || {
            b.svc.shared_catalog().snapshot()
        });
        let query = rec.timed(Layer::QueryParse, id, parent, || parse_query(&cat, &sql));
        let Ok(query) = query else {
            serve_failed += 1;
            rec.close(root);
            continue;
        };
        let prepared = rec.timed(Layer::QueryFingerprint, id, parent, || {
            b.svc.prepare(&query)
        });
        let (outcome, m) = rec.measure(|| b.svc.optimize_prepared(&prepared, None));
        let Ok(outcome) = outcome else {
            serve_failed += 1;
            rec.close(root);
            continue;
        };
        let warm = outcome.cache_hit || outcome.coalesced;
        let serve_layer = if warm {
            Layer::ServeHit
        } else {
            Layer::ServeMiss
        };
        rec.record(serve_layer, id, parent, &m);
        let plan = &outcome.optimized.best;
        let mut exec_ns = 0;
        if let Some(db) = &b.db {
            let (res, m) = rec.measure(|| Executor::new(db, prepared.query()).run(plan));
            rec.record(Layer::ExecRun, id, parent, &m);
            exec_ns = m.end_ns - m.start_ns;
            rows_in += req.spec.input_rows(tables);
            let ok = res.is_ok_and(|r| Some(Expect::of_rows(&r.rows)) == req.expect);
            exec_failed += !ok as u64;
        }
        rec.close(root);

        // Side measurements on the plan just served.
        if !warm {
            if epoch != opt_epoch {
                optimizer = rec
                    .timed(Layer::DslCompile, id, None, || Optimizer::new(cat))
                    .map_err(|e| e.to_string())?;
                opt_epoch = epoch;
            }
            let direct = rec.timed(Layer::CoreOptimize, id, None, || {
                optimizer.optimize(prepared.query(), &opt_config)
            });
            serve_failed += direct.is_err() as u64;
        }
        if let (Some(db), true) = (&b.db, i % VEXEC_EVERY == 0) {
            probed += 1;
            if supports(plan, prepared.query()).is_ok() {
                supported += 1;
                exec_ns_supported += exec_ns;
                vexec_rows_in += req.spec.input_rows(tables);
                for (layer, workers) in [(Layer::VexecRun, workers), (Layer::VexecRun1, 1)] {
                    let (res, batches) = rec.timed(layer, id, None, || {
                        let mut vx = VexecExecutor::new(db, prepared.query());
                        vx.set_workers(workers);
                        let res = vx.run(plan);
                        (res, vx.stats().batches)
                    });
                    let ok = res.is_ok_and(|r| Some(Expect::of_rows(&r.rows)) == req.expect);
                    exec_failed += !ok as u64;
                    if layer == Layer::VexecRun1 {
                        vexec_batches += batches;
                    }
                }
            }
        }
    }

    let mut text = String::new();
    for _ in 0..SIDE_CALLS {
        text = rec
            .timed(Layer::TraceSnapshot, n as u32, None, || {
                a.svc.telemetry_snapshot()
            })
            .to_prometheus();
    }
    alloc::enable(false);

    // Untraced baseline: the first quarter of the list once more, on a
    // service of its own with the allocation counter off. It runs last, in
    // a warm process, so the ratio errs towards overstating the overhead.
    let baseline_n = (n / 4).max(1);
    let (c, _) = setup(w, seed)?;
    let mut baseline_ns = 0u64;
    for (i, req) in Stream::new(w, seed, 0).take(baseline_n).enumerate() {
        if w.bump_every > 0 && i % w.bump_every == w.bump_every - 1 {
            bump_stats(w, &c, (i / w.bump_every) as u64);
        }
        req.spec.render(tables, &req.lits, &mut sql);
        baseline_ns += request(&c.svc, c.db.as_ref(), &sql).0.as_nanos() as u64;
    }
    // A workload that never refreshes statistics still reports what a
    // refresh costs, measured on the baseline service now that it is idle.
    if w.bump_every == 0 {
        for k in 0..SIDE_CALLS {
            rec.timed(Layer::EpochBump, n as u32, None, || bump_stats(w, &c, k));
        }
    }
    drop(c);

    let st = rec.self_times();
    let sum = |l: Layer| st[l as usize].0 as f64;
    let count = |l: Layer| st[l as usize].1 as f64;
    let mean = |l: Layer| ratio(sum(l), count(l));
    let allocs = |l: Layer| ratio(rec.allocs[l as usize] as f64, count(l));

    let mut absent = Vec::new();
    let mut series = |name: &str| {
        prom(&text, name).unwrap_or_else(|| {
            absent.push(name.to_string());
            0.0
        })
    };
    let misses = series("starqo_serve_cache_miss_total");
    let hits = series("starqo_serve_cache_hit_total");
    let coalesced = series("starqo_serve_cache_coalesced_total");
    let evictions = series("starqo_serve_cache_evict_total");
    let invalidations = series("starqo_serve_cache_invalidate_total");
    let plans_built = series("starqo_opt_plans_built_total");
    let star_refs = series("starqo_opt_star_refs_total");
    let glue_refs = series("starqo_opt_glue_refs_total");
    let memo_hits = series("starqo_opt_memo_hits_total");
    let mut phase = |p: &str| {
        ratio(
            series(&format!("starqo_phase_nanos{{phase=\"{p}\"}}")),
            misses,
        )
    };
    let (enumerate_ns, glue_ns, compile_ns) = (phase("enumerate"), phase("glue"), phase("compile"));

    let per_req = |ns: f64| ns / n as f64;
    let serve_ns = sum(Layer::ServeHit) + sum(Layer::ServeMiss) - sum(Layer::CoreOptimize);
    let whole = per_req(whole_ns as f64);
    let mut shares = vec![
        ("catalog", per_req(sum(Layer::CatalogSnapshot))),
        (
            "query",
            per_req(sum(Layer::QueryParse) + sum(Layer::QueryFingerprint)),
        ),
        ("serve", per_req(serve_ns)),
        ("core", per_req(sum(Layer::CoreOptimize))),
        ("exec", per_req(sum(Layer::ExecRun))),
    ];
    let unattributed = whole - shares.iter().map(|s| s.1).sum::<f64>();
    shares.push(("unattributed", unattributed));
    shares.push(("whole", whole));

    let value = |name: &str| -> f64 {
        match name {
            "query.parse_ns" => mean(Layer::QueryParse),
            "query.parse_allocs" => allocs(Layer::QueryParse),
            "query.fingerprint_ns" => mean(Layer::QueryFingerprint),
            "query.fingerprint_allocs" => allocs(Layer::QueryFingerprint),
            "serve.hit_ns" => mean(Layer::ServeHit),
            "serve.hit_allocs" => allocs(Layer::ServeHit),
            "serve.unattributed_ns" => unattributed,
            "serve.miss_overhead_ns" => ratio(
                sum(Layer::ServeMiss) - sum(Layer::CoreOptimize),
                count(Layer::ServeMiss),
            ),
            "serve.evictions" => evictions,
            "serve.invalidations" => invalidations,
            "serve.coalesced" => coalesced,
            "serve.hit_ratio" => ratio(hits + coalesced, hits + coalesced + misses),
            "serve.failed" => serve_failed as f64,
            "core.optimize_ns" => mean(Layer::CoreOptimize),
            "core.optimize_allocs" => allocs(Layer::CoreOptimize),
            "core.plans_built" => ratio(plans_built, misses),
            "core.ns_per_plan" => ratio(sum(Layer::CoreOptimize), plans_built),
            "core.allocs_per_plan" => {
                ratio(rec.allocs[Layer::CoreOptimize as usize] as f64, plans_built)
            }
            "core.star_refs" => ratio(star_refs, misses),
            "core.glue_refs" => ratio(glue_refs, misses),
            "core.memo_hit_ratio" => ratio(memo_hits, star_refs),
            "core.enumerate_ns" => enumerate_ns,
            "core.glue_ns" => glue_ns,
            "core.compile_ns" => compile_ns,
            "dsl.compile_ns" => mean(Layer::DslCompile),
            "dsl.compile_allocs" => allocs(Layer::DslCompile),
            "catalog.epoch_bump_ns" => mean(Layer::EpochBump),
            "catalog.snapshot_ns" => mean(Layer::CatalogSnapshot),
            "exec.run_ns" => mean(Layer::ExecRun),
            "exec.allocs" => allocs(Layer::ExecRun),
            "exec.rows_in_per_s" => ratio(rows_in as f64 * 1e9, sum(Layer::ExecRun)),
            "exec.failed" => exec_failed as f64,
            "vexec.run_ns" => mean(Layer::VexecRun),
            "vexec.run1_ns" => mean(Layer::VexecRun1),
            "vexec.allocs" => allocs(Layer::VexecRun1),
            "vexec.batches" => ratio(vexec_batches as f64, count(Layer::VexecRun1)),
            "vexec.rows_per_s" => ratio(vexec_rows_in as f64 * 1e9, sum(Layer::VexecRun)),
            "vexec.supported_ratio" => ratio(supported as f64, probed as f64),
            "vexec.speedup_vs_exec" => ratio(exec_ns_supported as f64, sum(Layer::VexecRun)),
            "storage.load_rows_per_s" => load_rate,
            "storage.scan_rows_per_s" => scan_rate,
            "storage.probe_ns" => probe_ns,
            "trace.snapshot_ns" => mean(Layer::TraceSnapshot),
            "perf.trace_overhead_ratio" => ratio(whole_head_ns as f64, baseline_ns as f64),
            other => unreachable!("{other} is in PER_LAYER but has no measurement"),
        }
    };
    let metrics: Metrics = PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();

    let layer_allocs = |l: Layer| rec.allocs[l as usize];
    let counts = vec![
        ("requests", n as u64),
        ("serve.misses", misses as u64),
        ("serve.evictions", evictions as u64),
        ("core.plans_built", plans_built as u64),
        ("core.star_refs", star_refs as u64),
        ("exec.rows_in", rows_in),
        ("query.parse_allocs", layer_allocs(Layer::QueryParse)),
        (
            "query.fingerprint_allocs",
            layer_allocs(Layer::QueryFingerprint),
        ),
        ("serve.hit_allocs", layer_allocs(Layer::ServeHit)),
        ("core.optimize_allocs", layer_allocs(Layer::CoreOptimize)),
        ("dsl.compile_allocs", layer_allocs(Layer::DslCompile)),
        ("exec.allocs", layer_allocs(Layer::ExecRun)),
        ("vexec.allocs", layer_allocs(Layer::VexecRun1)),
    ];

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spans_path = out_dir.join(format!("trace_{}.jsonl", w.name));
    rec.write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    Ok(LayerReport {
        metrics,
        attempted: n as u64,
        failed: serve_failed + exec_failed,
        counts,
        shares,
        absent,
        spans_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(8);
        let span = |layer, parent, start_ns, end_ns| Span {
            layer,
            req: 0,
            parent,
            start_ns,
            end_ns,
        };
        rec.spans.push(span(Layer::Request, None, 0, 100));
        rec.spans.push(span(Layer::QueryParse, Some(0), 10, 40));
        rec.spans.push(span(Layer::ExecRun, Some(0), 40, 95));
        rec.spans.push(span(Layer::CoreOptimize, None, 200, 260));
        let st = rec.self_times();
        assert_eq!(st[Layer::Request as usize], (15, 1));
        assert_eq!(st[Layer::QueryParse as usize], (30, 1));
        assert_eq!(st[Layer::ExecRun as usize], (55, 1));
        assert_eq!(st[Layer::CoreOptimize as usize], (60, 1));
    }

    #[test]
    fn prom_matches_whole_series_names() {
        let text = "starqo_opt_plans_built_total 42\n\
                    starqo_phase_nanos{phase=\"glue\"} 7\n\
                    starqo_phase_nanos{phase=\"glue2\"} 9\n";
        assert_eq!(prom(text, "starqo_opt_plans_built_total"), Some(42.0));
        assert_eq!(prom(text, "starqo_phase_nanos{phase=\"glue\"}"), Some(7.0));
        assert_eq!(prom(text, "starqo_opt_plans_built"), None);
    }
}

//! One repetition of one workload, in this process: set up, warm up, drive
//! the closed loop until the deadline, check every answer.
//!
//! `ServiceConfig::default()` and nothing else: the ledger measures the
//! serve path as shipped.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use starqo_query::parse_query;
use starqo_serve::{Service, ServiceConfig};
use starqo_storage::Database;

use crate::gen::{cdf_pick, Lits, QuerySpec, Rng};
use crate::load;
use crate::oracle::{evaluate, Expect};
use crate::report::{Metrics, END_TO_END};
use crate::workloads::{Adhoc, Workload};

/// Set-ups per repetition; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Latency samples a client has room for before its buffer grows.
const LATENCY_SLOTS: usize = 1 << 21;
/// Ad-hoc shapes run on a scratch service during warm-up: one full rota of
/// join widths, so every seed warms up on the same mix.
const ADHOC_WARMUP: usize = 20;

/// Everything a request needs from the program.
pub struct Env {
    /// `None` when the workload executes nothing.
    pub db: Option<Database>,
    pub svc: Service,
    /// Fingerprint hash of each fleet template, learned in warm-up.
    pub fleet_fp: Vec<u64>,
}

/// What one request returned, summarised after the stop timestamp.
pub struct Answer {
    pub fp: u64,
    pub cache_hit: bool,
    /// `None` when nothing was executed.
    pub rows: Option<Expect>,
}

/// SQL text in, plan or rows out: snapshot the catalog, parse, serve.
/// Returns the time inside the program and the answer.
pub fn request(
    svc: &Service,
    db: Option<&Database>,
    sql: &str,
) -> (Duration, Result<Answer, String>) {
    let start = Instant::now();
    let (cat, _) = svc.shared_catalog().snapshot();
    let out = parse_query(&cat, sql)
        .map_err(|e| e.to_string())
        .and_then(|q| match db {
            Some(db) => svc
                .execute(db, &q)
                .map(|(res, out)| (out, Some(res)))
                .map_err(|e| e.to_string()),
            None => svc
                .optimize(&q)
                .map(|out| (out, None))
                .map_err(|e| e.to_string()),
        });
    let elapsed = start.elapsed();
    let answer = out.map(|(outcome, res)| Answer {
        fp: outcome.fingerprint.hash,
        cache_hit: outcome.cache_hit,
        rows: res.map(|r| Expect::of_rows(&r.rows)),
    });
    (elapsed, answer)
}

/// Build catalog, database and service, and warm them up. Returns the
/// environment and the seconds spent inside program calls (this
/// benchmark's own row generation is not counted).
pub fn setup(w: &Workload, seed: u64) -> Result<(Env, f64), String> {
    let tuples = w.execute.then(|| load::tuples(&w.dataset, seed));
    let mut program = Duration::ZERO;

    let t = Instant::now();
    let cat = load::catalog(&w.dataset)?;
    program += t.elapsed();
    let db = match tuples {
        Some(tuples) => {
            let t = Instant::now();
            let db = load::database(&cat, tuples)?;
            program += t.elapsed();
            Some(db)
        }
        None => None,
    };
    let new_service =
        || Service::new(Arc::clone(&cat), ServiceConfig::default()).map_err(|e| e.to_string());

    // Ad-hoc shapes warm the cold path on a scratch service, so that the
    // serving cache has never seen them.
    let mut sql = String::new();
    if let Some(pool) = w.adhoc.first() {
        let t = Instant::now();
        let scratch = new_service()?;
        program += t.elapsed();
        for a in pool.iter().rev().take(ADHOC_WARMUP) {
            a.spec.render(&w.dataset.tables, &a.lits, &mut sql);
            let (dt, answer) = request(&scratch, db.as_ref(), &sql);
            program += dt;
            check(&answer?, None, Some(a.expect)).map_err(|e| format!("warm-up {sql}: {e}"))?;
        }
    }

    let t = Instant::now();
    let svc = new_service()?;
    program += t.elapsed();
    let mut rng = Rng::fork(seed, "warm-up", 0);
    let mut fleet_fp = Vec::new();
    for spec in &w.fleet {
        let lits = spec.draw_lits(&mut rng);
        spec.render(&w.dataset.tables, &lits, &mut sql);
        let (dt, answer) = request(&svc, db.as_ref(), &sql);
        program += dt;
        let answer = answer?;
        let expect = w.execute.then(|| evaluate(&w.dataset, spec, &lits));
        check(&answer, None, expect).map_err(|e| format!("warm-up {sql}: {e}"))?;
        if fleet_fp.contains(&answer.fp) {
            return Err(format!("warm-up: {} shares a fingerprint", spec.name));
        }
        fleet_fp.push(answer.fp);
    }
    let env = Env { db, svc, fleet_fp };
    Ok((env, program.as_secs_f64()))
}

/// Compare an answer with what the oracle expects.
fn check(answer: &Answer, fp: Option<u64>, expect: Option<Expect>) -> Result<(), String> {
    if let Some(fp) = fp {
        if answer.fp != fp {
            return Err(format!(
                "fingerprint {:016x}, expected {fp:016x}",
                answer.fp
            ));
        }
    }
    if answer.rows != expect {
        return Err(format!("got {:?}, expected {expect:?}", answer.rows));
    }
    Ok(())
}

/// The request stream of one client: Zipf over the fleet with fresh
/// constants, ad-hoc shapes mixed in at the workload's share.
pub struct Stream<'w> {
    w: &'w Workload,
    rng: Rng,
    adhoc: std::slice::Iter<'w, Adhoc>,
    /// Expected answers of fleet requests already evaluated.
    memo: HashMap<(usize, Lits), Expect>,
}

pub struct Request<'w> {
    pub spec: &'w QuerySpec,
    pub lits: Lits,
    /// Fleet rank, `None` for an ad-hoc request.
    pub fleet: Option<usize>,
    pub expect: Option<Expect>,
}

impl<'w> Stream<'w> {
    pub fn new(w: &'w Workload, seed: u64, client: usize) -> Self {
        Stream {
            w,
            rng: Rng::fork(seed, "requests", client as u64),
            adhoc: w.adhoc.get(client).map(|p| p.iter()).unwrap_or_default(),
            memo: HashMap::new(),
        }
    }
}

impl<'w> Iterator for Stream<'w> {
    type Item = Request<'w>;

    fn next(&mut self) -> Option<Request<'w>> {
        let w = self.w;
        if w.adhoc_share > 0.0 && self.rng.unit() < w.adhoc_share {
            let a = self.adhoc.next()?;
            return Some(Request {
                spec: &a.spec,
                lits: a.lits,
                fleet: None,
                expect: Some(a.expect),
            });
        }
        let rank = cdf_pick(&w.popularity, self.rng.unit());
        let spec = &w.fleet[rank];
        let lits = spec.draw_lits(&mut self.rng);
        let expect = w.execute.then(|| {
            *self
                .memo
                .entry((rank, lits))
                .or_insert_with(|| evaluate(&w.dataset, spec, &lits))
        });
        Some(Request {
            spec,
            lits,
            fleet: Some(rank),
            expect,
        })
    }
}

#[derive(Default)]
struct ClientTally {
    /// Saturates at `u32::MAX` (4.3 s).
    latencies_ns: Vec<u32>,
    failed: u64,
    hits: u64,
    bumps: u64,
}

/// One closed-loop client: next request only after the previous reply.
fn client(w: &Workload, env: &Env, seed: u64, id: usize, deadline: Instant) -> ClientTally {
    // Written once so that every page is resident before the first request:
    // peak RSS then does not depend on how many requests the run completes.
    let mut tally = ClientTally {
        latencies_ns: vec![1; LATENCY_SLOTS],
        ..ClientTally::default()
    };
    tally.latencies_ns.clear();
    let mut sql = String::with_capacity(256);
    let tables = &w.dataset.tables;
    for (i, req) in Stream::new(w, seed, id).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        if id == 0 && w.bump_every > 0 && i % w.bump_every == w.bump_every - 1 {
            bump_stats(w, env, tally.bumps);
            tally.bumps += 1;
        }
        req.spec.render(tables, &req.lits, &mut sql);
        let (dt, answer) = request(&env.svc, env.db.as_ref(), &sql);
        tally
            .latencies_ns
            .push(u32::try_from(dt.as_nanos()).unwrap_or(u32::MAX));
        let verdict = answer.and_then(|a| {
            tally.hits += a.cache_hit as u64;
            check(&a, req.fleet.map(|r| env.fleet_fp[r]), req.expect)
        });
        if let Err(e) = verdict {
            if tally.failed < 5 {
                eprintln!(
                    "perf: {} client {id} request {i} failed: {e}\n  {sql}",
                    w.name
                );
            }
            tally.failed += 1;
        }
    }
    tally
}

/// A statistics refresh: table `k mod n` is declared 10 % smaller or
/// larger than it is, which bumps the catalog epoch.
pub fn bump_stats(w: &Workload, env: &Env, k: u64) {
    let t = &w.dataset.tables[k as usize % w.dataset.tables.len()];
    let card = t.rows as u64 * if k.is_multiple_of(2) { 9 } else { 11 } / 10;
    if let Err(e) = env.svc.shared_catalog().set_table_card(&t.name, card) {
        eprintln!("perf: set_table_card({}): {e}", t.name);
    }
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    pub attempted: u64,
    pub failed: u64,
    /// Every `report::END_TO_END` metric, in that order, then `hit_ratio`.
    pub values: Metrics,
}

/// Names of [`Rep::values`], the lines a repetition prints for its parent.
pub fn rep_metric_names() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().map(|m| m.name).chain(["hit_ratio"])
}

/// `q`-quantile of sorted values: the smallest value with at least `q` of
/// the sample at or below it.
pub fn quantile(sorted: &[u32], q: f64) -> u32 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// High-water mark of this process's resident set, from the kernel.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one repetition for `seconds`.
pub fn repetition(w: &Workload, seed: u64, seconds: f64) -> Result<Rep, String> {
    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..SETUP_ROUNDS {
        drop(env.take());
        let (e, secs) = setup(w, seed)?;
        setups.push(secs);
        env = Some(e);
    }
    let env = env.expect("SETUP_ROUNDS > 0");

    let barrier = Barrier::new(w.clients);
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients)
            .map(|id| {
                let (env, barrier) = (&env, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    client(w, env, seed, id, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Closed loop, no think time: a client's rate is its requests over the
    // time it spent waiting for replies, and the clients' rates add up.
    let req_per_s = tallies
        .iter()
        .map(|t| {
            t.latencies_ns.len() as f64
                / (t.latencies_ns.iter().map(|&ns| ns as u64).sum::<u64>() as f64 / 1e9)
        })
        .sum();
    let mut all: Vec<u32> = tallies
        .iter()
        .flat_map(|t| &t.latencies_ns)
        .copied()
        .collect();
    if all.is_empty() {
        return Err(format!("{}: no request completed in {seconds}s", w.name));
    }
    all.sort_unstable();
    let attempted = all.len() as u64;
    let hits: u64 = tallies.iter().map(|t| t.hits).sum();
    let value = |name: &str| match name {
        "req_per_s" => req_per_s,
        "latency_p50_us" => quantile(&all, 0.50) as f64 / 1e3,
        "latency_p99_us" => quantile(&all, 0.99) as f64 / 1e3,
        "setup_s" => median(setups.clone()),
        "peak_rss_mb" => peak_rss_mb(),
        "hit_ratio" => hits as f64 / attempted as f64,
        other => unreachable!("{other} is in END_TO_END but has no measurement"),
    };
    Ok(Rep {
        attempted,
        failed: tallies.iter().map(|t| t.failed).sum(),
        values: rep_metric_names().map(|n| (n, value(n))).collect(),
    })
}

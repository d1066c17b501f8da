//! The five workloads: which tables, which queries, how many clients, and
//! why each exists. Sizes are frozen here; only `--seed` changes the values
//! in the tables, the constants in the requests and which ad-hoc shapes are
//! drawn — never how much work a request is on average.

use std::collections::HashSet;

use crate::gen::{
    adhoc_spec, template, zipf_cdf, Dataset, Lits, Local, Op, QuerySpec, Rng, Shape, Storage,
    TableSpec, FK, ID, P0,
};
use crate::oracle::{evaluate, Expect};

/// `(name, why)` of every workload, in the order they run.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "hot_plan",
        "2 clients plan 11 cached shapes from SQL text, nothing executed: query+serve are the whole request and both cores contend on the cache",
    ),
    (
        "cold_adhoc",
        "1 client, every request a new 4..8-way join shape on small tables: STAR enumeration + Glue dominate, the cache only misses and evicts",
    ),
    (
        "exec_scan",
        "1 client filters a 32k-row heap by 2-3 range predicates and joins 1k rows: scan + predicate evaluation dominate, plan cached",
    ),
    (
        "exec_join",
        "1 client runs 3-4-way joins of unindexed 2.5k-4k-row tables with no selective predicate: join build, SORT and temp materialisation dominate",
    ),
    (
        "serve_mix",
        "2 clients execute a Zipf fleet on small indexed tables, 3% never-seen shapes, client 0 refreshes table stats: every layer shares the request, p99 is a miss",
    ),
];

/// A query that is sent once, with its constants and its expected answer.
#[derive(Debug, Clone)]
pub struct Adhoc {
    pub spec: QuerySpec,
    pub lits: Lits,
    pub expect: Expect,
}

pub struct Workload {
    pub name: &'static str,
    /// Closed-loop callers, each an in-process thread that waits for its
    /// reply before sending the next request.
    pub clients: usize,
    /// `false`: `parse_query` + `Service::optimize`, nothing is executed.
    pub execute: bool,
    pub dataset: Dataset,
    /// The repeated shapes, most popular first.
    pub fleet: Vec<QuerySpec>,
    /// Cumulative share of each fleet shape among fleet requests: Zipf
    /// s = 1.1 over the ranks unless the workload says otherwise.
    pub popularity: Vec<f64>,
    /// Share of requests taken from `adhoc` instead of the fleet.
    pub adhoc_share: f64,
    /// Per client, shapes that appear once in the whole run. A client whose
    /// pool runs dry stops early, so pools are sized well beyond what the
    /// run length can consume.
    pub adhoc: Vec<Vec<Adhoc>>,
    /// Client 0 calls `SharedCatalog::set_table_card` before every
    /// `bump_every`-th request (0: never).
    pub bump_every: usize,
    /// Requests of the per-layer (`trace`) pass, a fixed count so that
    /// program counters repeat exactly.
    pub trace_requests: usize,
}

impl Workload {
    /// The common case: one client executes a Zipf-ranked fleet, no ad-hoc
    /// shapes, no statistics refresh. Workloads override what differs.
    fn of_fleet(
        name: &'static str,
        dataset: Dataset,
        fleet: Vec<QuerySpec>,
        trace_requests: usize,
    ) -> Self {
        Workload {
            name,
            clients: 1,
            execute: true,
            dataset,
            popularity: zipf_cdf(fleet.len(), 1.1),
            fleet,
            adhoc_share: 0.0,
            adhoc: Vec::new(),
            bump_every: 0,
            trace_requests,
        }
    }
}

fn table(name: &str, rows: usize, storage: Storage, fk_index: bool, fk_domain: u64) -> TableSpec {
    TableSpec {
        name: name.to_string(),
        rows,
        storage,
        fk_index,
        fk_domain,
        payload_ndv: vec![64, 10],
    }
}

/// The E17 fleet: five shapes, each with and without `q0.P0 = ?`. Template
/// `k` starts at table `k * stride`, so with a stride the fleet spreads over
/// the whole schema.
fn fleet(tables: &[TableSpec], stride: usize) -> Vec<QuerySpec> {
    let shapes = [
        ("chain2", Shape::Chain, 2),
        ("chain3", Shape::Chain, 3),
        ("star3", Shape::Star, 3),
        ("cycle3", Shape::Cycle, 3),
        ("clique3", Shape::Clique, 3),
    ];
    let mut out = Vec::new();
    for param in [true, false] {
        for (k, &(name, shape, n)) in shapes.iter().enumerate() {
            let first = (k + if param { 0 } else { shapes.len() }) * stride;
            let picks: Vec<usize> = (0..n).map(|i| (first + i) % tables.len()).collect();
            let name = format!("{name}{}", if param { "?" } else { "" });
            out.push(template(&name, tables, &picks, shape, param));
        }
    }
    out
}

/// The same fleet ranked for execution. `star3?` is the most popular shape
/// and the cheaper shapes rank right behind it, so that the median request
/// falls inside one shape's latencies instead of on the edge between two,
/// where it would jump with the seed.
fn fleet_ranked_for_execution(tables: &[TableSpec]) -> Vec<QuerySpec> {
    let fleet = fleet(tables, 1);
    let ranks = [
        "star3?", "chain2?", "chain3?", "chain2", "cycle3?", "clique3?", "clique3", "star3",
        "chain3", "cycle3",
    ];
    ranks
        .iter()
        .map(|name| {
            let spec = fleet.iter().find(|t| t.name == *name);
            spec.expect("every rank names a fleet shape").clone()
        })
        .collect()
}

/// `count` distinct ad-hoc shapes per client. Join width and graph family
/// follow a fixed rota (`widths` repeats; families cycle per width), so
/// every seed sends the same mix of cheap and expensive optimizations and
/// only the tables, edges and constants are drawn.
fn adhoc_pools(
    seed: u64,
    ds: &Dataset,
    clients: usize,
    count: usize,
    widths: &[usize],
) -> Vec<Vec<Adhoc>> {
    const FAMILIES: [(Shape, usize); 6] = [
        (Shape::Chain, 0),
        (Shape::Star, 0),
        (Shape::Tree, 0),
        (Shape::Tree, 1),
        (Shape::Chain, 1),
        (Shape::Tree, 2),
    ];
    let mut seen = HashSet::new();
    (0..clients)
        .map(|c| {
            let mut rng = Rng::fork(seed, "adhoc", c as u64);
            let mut family_of_width = [0usize; 16];
            let mut rota = Vec::new();
            (0..count)
                .map(|_| {
                    if rota.is_empty() {
                        rota = widths.to_vec();
                        rng.shuffle(&mut rota);
                    }
                    let n = rota.pop().expect("rota refilled above");
                    let (shape, extra) = FAMILIES[family_of_width[n] % FAMILIES.len()];
                    family_of_width[n] += 1;
                    let spec = loop {
                        let s = adhoc_spec(&mut rng, &ds.tables, n, shape, extra);
                        if seen.insert(s.shape_key()) {
                            break s;
                        }
                    };
                    let lits = spec.draw_lits(&mut rng);
                    let expect = evaluate(ds, &spec, &lits);
                    Adhoc { spec, lits, expect }
                })
                .collect()
        })
        .collect()
}

/// Twenty join widths: 4/5/6/7/8-way at 30/30/25/10/5 %.
const COLD_WIDTHS: [usize; 20] = [4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 8];

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    use Storage::{BTreeOnId, Heap};
    let w = match name {
        "hot_plan" => {
            let tables = vec![
                table("T0", 2000, Heap, true, 500),
                table("T1", 500, BTreeOnId, false, 1000),
                table("T2", 1000, Heap, true, 300),
                table("T3", 300, BTreeOnId, true, 5000),
                table("T4", 5000, Heap, false, 2000),
            ];
            let mut fleet = fleet(&tables, 0);
            // An eleventh, rare and clearly heavier shape. Without it the
            // slowest 1 % of requests are whichever ones the kernel
            // interrupted, and p99 measures the box; with it p99 falls inside
            // this shape's latencies and measures the program.
            fleet.push(template(
                "wide5?",
                &tables,
                &[0, 1, 2, 3, 4],
                Shape::Clique,
                true,
            ));
            Workload {
                clients: 2,
                execute: false,
                ..Workload::of_fleet("hot_plan", Dataset::generate(seed, tables), fleet, 60_000)
            }
        }
        "cold_adhoc" => {
            let rows = [50, 80, 120, 160, 200, 250, 300, 350, 420, 500];
            let tables: Vec<TableSpec> = rows
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    let storage = if i % 2 == 0 { Heap } else { BTreeOnId };
                    table(&format!("T{i}"), r, storage, i % 3 == 0, 300)
                })
                .collect();
            let dataset = Dataset::generate(seed, tables);
            let adhoc = adhoc_pools(seed, &dataset, 1, 6000, &COLD_WIDTHS);
            Workload {
                adhoc_share: 1.0,
                adhoc,
                ..Workload::of_fleet("cold_adhoc", dataset, Vec::new(), 1100)
            }
        }
        "exec_scan" => {
            let mut big = table("BIG", 32_000, Heap, false, 1000);
            big.payload_ndv = vec![100, 100, 10];
            let dim = table("DIM", 1000, Heap, false, 1000);
            let range = |col, op, lo, hi| Local {
                pos: 0,
                col,
                op,
                lo,
                hi,
            };
            let scan2 = QuerySpec {
                name: "scan2".to_string(),
                tables: vec![0, 1],
                joins: vec![(0, 1)],
                locals: vec![range(P0, Op::Ge, 70, 80), range(P0 + 1, Op::Lt, 20, 30)],
                select: vec![(0, ID), (1, P0)],
            };
            let mut scan3 = scan2.clone();
            scan3.name = "scan3".to_string();
            scan3.locals.push(range(P0 + 2, Op::Ne, 0, 10));
            scan3.select.push((0, FK));
            // Rare, clearly heavier and nearly constant (a third of the rows
            // pass), so that p99 falls inside this shape's latencies and not
            // in the tail of whatever the allocator and the kernel did.
            let mut wide = scan2.clone();
            wide.name = "scan_wide".to_string();
            // `>` and `<=` rather than `>=` and `<`: a shape of its own to the
            // plan cache, not `scan2` with other constants.
            wide.locals = vec![range(P0, Op::Gt, 40, 42), range(P0 + 1, Op::Le, 58, 60)];
            let dataset = Dataset::generate(seed, vec![big, dim]);
            Workload {
                popularity: vec![0.66, 0.97, 1.0],
                ..Workload::of_fleet("exec_scan", dataset, vec![scan2, scan3, wide], 500)
            }
        }
        "exec_join" => {
            let tables = vec![
                table("A", 4000, Heap, false, 2500),
                table("B", 3000, Heap, false, 2500),
                table("C", 2500, Heap, false, 2500),
                table("D", 3500, Heap, false, 2500),
                table("E", 20_000, Heap, false, 2500),
            ];
            let mut fleet = vec![
                template("chain3", &tables, &[0, 1, 2], Shape::Chain, true),
                template("star3", &tables, &[3, 1, 2], Shape::Star, true),
                template("chain4", &tables, &[0, 1, 2, 3], Shape::Chain, true),
                template("star4", &tables, &[1, 0, 2, 3], Shape::Star, true),
                // Rare, and twice the rows of anything above: p99 falls
                // inside this shape's latencies (see `scan_wide`).
                template("chain4_big", &tables, &[4, 1, 2, 3], Shape::Chain, true),
            ];
            // Fresh constant per request, but it keeps 97 % or more of the
            // root: `q0.P0 >= 0|1`.
            for t in &mut fleet {
                t.locals[0].op = Op::Ge;
                t.locals[0].hi = 2;
            }
            Workload {
                popularity: vec![0.45, 0.70, 0.85, 0.97, 1.0],
                ..Workload::of_fleet("exec_join", Dataset::generate(seed, tables), fleet, 300)
            }
        }
        "serve_mix" => {
            let rows = [40, 80, 120, 160, 200, 240, 280, 320, 360, 400];
            let tables: Vec<TableSpec> = rows
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    let mut t = table(&format!("T{i}"), r, BTreeOnId, true, 200);
                    t.payload_ndv = vec![16, 10];
                    t
                })
                .collect();
            let fleet = fleet_ranked_for_execution(&tables);
            let dataset = Dataset::generate(seed, tables);
            let adhoc = adhoc_pools(seed, &dataset, 2, 4000, &[3, 4]);
            Workload {
                clients: 2,
                adhoc_share: 0.03,
                adhoc,
                bump_every: 500,
                ..Workload::of_fleet("serve_mix", dataset, fleet, 12_000)
            }
        }
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_is_seeded() {
        for (name, _) in WORKLOADS {
            let a = build(name, 1).expect(name);
            let b = build(name, 1).expect(name);
            let c = build(name, 2).expect(name);
            assert_eq!(a.dataset.data[0].fk, b.dataset.data[0].fk, "{name}");
            assert_ne!(a.dataset.data[0].fk, c.dataset.data[0].fk, "{name}");
            assert_eq!(
                a.adhoc.len(),
                if a.adhoc_share > 0.0 { a.clients } else { 0 }
            );
            assert!(a.adhoc_share == 1.0 || !a.fleet.is_empty(), "{name}");
            assert_eq!(a.popularity.len(), a.fleet.len(), "{name}");
        }
    }

    #[test]
    fn adhoc_shapes_never_repeat_across_clients() {
        let w = build("serve_mix", 5).expect("serve_mix");
        let keys: HashSet<String> = w
            .adhoc
            .iter()
            .flatten()
            .map(|a| a.spec.shape_key())
            .collect();
        assert_eq!(keys.len(), w.adhoc.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn cold_widths_hold_their_shares() {
        let share = |n| COLD_WIDTHS.iter().filter(|&&w| w == n).count() * 5;
        assert_eq!([4, 5, 6, 7, 8].map(share), [30, 30, 25, 10, 5]);
    }
}

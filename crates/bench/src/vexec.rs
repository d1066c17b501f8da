//! E23 — the vectorized executor: serial interpreter vs morsel-driven
//! batches on the same plans.
//!
//! For each fleet query the cheapest alternative of the case's class
//! (hash join, sort-merge join, uncorrelated or sideways-bound nested loops)
//! is executed by the serial `starqo-exec` oracle and vexec with 1, 2 and 8
//! workers.
//! Because all run the *same plan* on the *same data*, the wall-clock ratio
//! isolates executor efficiency — vectorized predicate evaluation over
//! selection vectors, compiled expressions, and fused pipelines — from plan
//! quality.
//!
//! Every table loaded through `DatabaseBuilder::build` carries an integer
//! mirror of its all-integer columns, which is what vexec scans; two scan
//! cases keep the row path under the same comparison — one whose probe
//! table holds a NULL (that column is read from the rows, beside mirrored
//! neighbours) and one whose probe table was touched after `build` (no
//! mirror at all). Two merge cases cover the class the ledger's slowest
//! workload (`exec_join`) runs: a 3-way chain on unique inner keys, where
//! the merge applies every join predicate itself, and a many-to-many join on
//! duplicate keys with NULLs among them and a residual on top, where it
//! walks demoted key columns and interprets the residual on every pair.
//!
//! Asserted invariants:
//! - **bit-equality**: every vexec run returns exactly the serial result
//!   (rows *and* order); divergences are counted and must be zero;
//! - **counter determinism**: batch/morsel/row counts are identical at 1,
//!   2 and 8 workers;
//! - **throughput floor** (full mode only): vexec at 8 workers is at
//!   least 3× the serial throughput in aggregate across the fleet.

use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, StorageKind, Value};
use starqo_core::{OptConfig, Optimizer};
use starqo_exec::{is_correlated, Executor, QueryResult};
use starqo_plan::{JoinFlavor, Lolepop, PlanRef};
use starqo_query::{CmpOp, PredExpr, QCol, Query, QueryBuilder, Scalar};
use starqo_storage::{Database, DatabaseBuilder, Tuple};
use starqo_trace::MetricsRegistry;
use starqo_vexec::{supports, VexecExecutor};
use starqo_workload::{
    query_shape, synth_catalog, synth_database_scaled, QueryShape, Rng64, SynthSpec,
};

use crate::{row, time_ms, Report};

struct Case {
    name: String,
    db: Database,
    query: Query,
    plan: PlanRef,
}

/// The cheapest supported alternative whose operator chain contains
/// `marker` (`""` matches any plan).
fn pick_plan(
    alternatives: &[PlanRef],
    best: &PlanRef,
    query: &Query,
    marker: &str,
) -> Option<PlanRef> {
    alternatives
        .iter()
        .chain(std::iter::once(best))
        .filter(|p| supports(p, query).is_ok())
        .filter(|p| marker.is_empty() || p.op_names().iter().any(|n| n.contains(marker)))
        .min_by(|a, b| a.props.cost.total().total_cmp(&b.props.cost.total()))
        .cloned()
}

/// One case descriptor. Cases are materialized (catalog, data, optimize,
/// plan pick) one at a time so the suite's peak memory is a single case.
enum CaseSpec {
    /// Synthetic fleet query — breadth across join flavors and shapes.
    Synth {
        shape: QueryShape,
        sname: &'static str,
        n: usize,
        marker: &'static str,
        card_range: (u64, u64),
        scale: u64,
        seed: u64,
        /// Enable the cartesian repertoire: uncorrelated NL inners only
        /// exist there (without it an NL inner is an index probe bound by
        /// the outer row — the `nlp-*` classes).
        nl: bool,
    },
    /// Handcrafted scan-heavy join: a large multi-predicate-filtered probe
    /// side against a small build side — the workload the batch runtime is
    /// for. Serial pays per-row schema resolution and bindings machinery on
    /// every probe-side row; vexec runs the compiled predicate program over
    /// borrowed views and only ever clones survivors.
    Scan {
        name: &'static str,
        t0: u64,
        t1: u64,
        seed: u64,
        load: Load,
    },
    /// Handcrafted sort-merge joins over unindexed heaps of `rows` rows,
    /// planned like the ledger's `exec_join` by the service's default
    /// repertoire (no hash join): the chain `T0.K = T1.ID AND T1.K = T2.ID`
    /// on unique inner keys — or, `dup`, `T0.K = T1.K` on a key of
    /// `rows / 20` values (equal-key runs of about 20 × 20), NULL in every
    /// tenth row of `T0`, under the residual `T0.P < T1.P`.
    Merge {
        name: &'static str,
        rows: u64,
        dup: bool,
        seed: u64,
    },
}

/// How a scan case's probe table `T0` reaches the executors.
#[derive(Clone, Copy, PartialEq)]
enum Load {
    /// Every row through `DatabaseBuilder::build`, every column all
    /// integers: vexec reads the table's integer mirror.
    Built,
    /// The middle row's `P1` is NULL: that column is not mirrored and its
    /// predicate reads the rows, beside mirrored neighbours.
    NullBearing,
    /// The last row is inserted after `build`: nothing is mirrored.
    LateInsert,
}

/// The per-class suite. The scan class carries the throughput floor; the
/// synthetic classes are ratio breadth (symmetric hash joins are
/// build-dominated in both engines, so their ratio is near 1).
fn case_specs(quick: bool) -> Vec<CaseSpec> {
    let scale = if quick { 1 } else { 2 };
    vec![
        CaseSpec::Scan {
            name: "scan-asym",
            t0: if quick { 60_000 } else { 600_000 },
            t1: 2_000,
            seed: 9,
            load: Load::Built,
        },
        CaseSpec::Scan {
            name: "scan-asym2",
            t0: if quick { 40_000 } else { 400_000 },
            t1: 1_000,
            seed: 10,
            load: Load::Built,
        },
        CaseSpec::Scan {
            name: "scan-null",
            t0: if quick { 20_000 } else { 200_000 },
            t1: 1_000,
            seed: 11,
            load: Load::NullBearing,
        },
        CaseSpec::Scan {
            name: "scan-late",
            t0: if quick { 20_000 } else { 200_000 },
            t1: 1_000,
            seed: 12,
            load: Load::LateInsert,
        },
        CaseSpec::Synth {
            shape: QueryShape::Chain,
            sname: "ha-chain",
            n: 3,
            marker: "JOIN(HA)",
            card_range: (2_000, 4_000),
            scale,
            seed: 41,
            nl: false,
        },
        CaseSpec::Synth {
            shape: QueryShape::Star,
            sname: "ha-star",
            n: 3,
            marker: "JOIN(HA)",
            card_range: (2_000, 4_000),
            scale,
            seed: 42,
            nl: false,
        },
        CaseSpec::Merge {
            name: "mg-chain",
            rows: if quick { 2_000 } else { 4_000 },
            dup: false,
            seed: 46,
        },
        CaseSpec::Merge {
            name: "mg-dup",
            rows: if quick { 1_500 } else { 3_000 },
            dup: true,
            seed: 47,
        },
        CaseSpec::Synth {
            shape: QueryShape::Chain,
            sname: "nl-chain",
            n: 3,
            marker: "JOIN(NL)",
            card_range: (400, 800),
            scale: 1,
            seed: 43,
            nl: true,
        },
        // Sideways information passing: the inner is compiled once and
        // re-run per outer row (the serving layer's commonest small-table
        // plan; before the one-executor PR these fell back to serial).
        CaseSpec::Synth {
            shape: QueryShape::Chain,
            sname: "nlp-chain",
            n: 3,
            marker: "JOIN(NL)",
            card_range: (400, 800),
            scale: 1,
            seed: 44,
            nl: false,
        },
        CaseSpec::Synth {
            shape: QueryShape::Star,
            sname: "nlp-star",
            n: 3,
            marker: "JOIN(NL)",
            card_range: (400, 800),
            scale: 1,
            seed: 45,
            nl: false,
        },
    ]
}

/// Materialize one case: build catalog + data, optimize, and pick the
/// cheapest supported alternative carrying the class marker. `None` when
/// the optimizer produced no supported plan of that class.
fn materialize(spec: &CaseSpec) -> (String, Option<Case>) {
    match spec {
        CaseSpec::Synth {
            shape,
            sname,
            n,
            marker,
            card_range,
            scale,
            seed,
            nl,
        } => {
            let spec = SynthSpec {
                tables: *n,
                card_range: *card_range,
                sites: 1,
                index_prob: if *nl { 0.0 } else { 0.4 },
                btree_prob: 0.3,
                payload_cols: 2,
            };
            let cat = synth_catalog(*seed, &spec);
            let db = synth_database_scaled(*seed, cat.clone(), *scale);
            let query = query_shape(&cat, *shape, *n, true);
            let opt = Optimizer::new(cat).expect("rules compile");
            let mut config = OptConfig {
                glue_keep_all: true,
                ..OptConfig::full()
            };
            if *nl {
                // Raw cartesian inners — no STORE — so the serial engine's
                // per-outer-row inner re-evaluation is on display.
                config.cartesian = true;
                config.composite_inners = false;
            }
            let out = opt.optimize(&query, &config).expect("fleet optimizes");
            let name = format!("{sname}{n}/seed{seed}");
            // Same-plan comparison keeps plan quality out of the executor
            // ratio: serial and vexec run this exact alternative.
            let case =
                pick_plan(&out.root_alternatives, &out.best, &query, marker).map(|plan| Case {
                    name: name.clone(),
                    db,
                    query,
                    plan,
                });
            (name, case)
        }
        CaseSpec::Scan {
            name,
            t0,
            t1,
            seed,
            load,
        } => {
            let mut b = Catalog::builder().site("site0");
            for (tname, card, fk_dom) in [("T0", *t0, *t1), ("T1", *t1, *t0)] {
                b = b
                    .table(tname, "site0", StorageKind::Heap, card)
                    .column("ID", DataType::Int, Some(card))
                    .column("FK", DataType::Int, Some(fk_dom.min(card).max(1)))
                    .column("P0", DataType::Int, Some(100))
                    .column("P1", DataType::Int, Some(10));
            }
            let cat = Arc::new(b.build().expect("scan catalog"));
            let mut rng = Rng64::new(*seed);
            let mut dbb = DatabaseBuilder::new(cat.clone());
            let tabs = cat.tables().to_vec();
            let mut late = None;
            for (i, t) in tabs.iter().enumerate() {
                let next = tabs[(i + 1) % tabs.len()].card.max(1);
                for id in 0..t.card {
                    let mut row = [id, rng.below(next), rng.below(100), rng.below(10)]
                        .map(|v| Value::Int(v as i64));
                    if i == 0 && id == t.card / 2 && *load == Load::NullBearing {
                        row[3] = Value::Null;
                    }
                    let row = Tuple(row.to_vec());
                    if i == 0 && id + 1 == t.card && *load == Load::LateInsert {
                        late = Some(row);
                    } else {
                        dbb.insert_id(t.id, row).expect("scan row");
                    }
                }
            }
            let mut db = dbb.build().expect("scan database");
            if let Some(row) = late {
                db.insert(tabs[0].id, row).expect("late scan row");
            }
            // The case exercises the read path its name says.
            let mirrored = |c| {
                db.table(tabs[0].id)
                    .is_ok_and(|t| t.int_column(c).is_some())
            };
            let expect = match load {
                Load::Built => [true, true, true, true],
                Load::NullBearing => [true, true, true, false],
                Load::LateInsert => [false, false, false, false],
            };
            assert_eq!([0, 1, 2, 3].map(mirrored), expect, "{name}: T0's mirror");
            // T0 ⋈ T1 with a two-predicate filter on the big probe side —
            // a selective analytic scan feeding a small-build hash join.
            let mut qb = QueryBuilder::new();
            let q0 = qb.quantifier(&cat, "T0", "t0").expect("T0");
            let q1 = qb.quantifier(&cat, "T1", "t1").expect("T1");
            qb.predicate(PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(q0, ColId(1)),
                Scalar::col(q1, ColId(0)),
            ))
            .expect("join pred");
            qb.predicate(PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(q0, ColId(2)),
                Scalar::Const(Value::Int(42)),
            ))
            .expect("P0 pred");
            qb.predicate(PredExpr::Cmp(
                CmpOp::Lt,
                Scalar::col(q0, ColId(3)),
                Scalar::Const(Value::Int(5)),
            ))
            .expect("P1 pred");
            qb.select(QCol::new(q0, ColId(0)));
            qb.select(QCol::new(q1, ColId(0)));
            let query = qb.build().expect("scan query");
            let opt = Optimizer::new(cat).expect("rules compile");
            let config = OptConfig {
                glue_keep_all: true,
                ..OptConfig::full()
            };
            let out = opt.optimize(&query, &config).expect("scan case optimizes");
            let case =
                pick_plan(&out.root_alternatives, &out.best, &query, "JOIN(HA)").map(|plan| Case {
                    name: (*name).to_string(),
                    db,
                    query,
                    plan,
                });
            ((*name).to_string(), case)
        }
        CaseSpec::Merge {
            name,
            rows,
            dup,
            seed,
        } => {
            let tables = if *dup { 2 } else { 3 };
            let keys = if *dup { rows / 20 } else { *rows };
            let mut b = Catalog::builder().site("site0");
            for t in 0..tables {
                b = b
                    .table(format!("T{t}"), "site0", StorageKind::Heap, *rows)
                    .column("ID", DataType::Int, Some(*rows))
                    .column("K", DataType::Int, Some(keys))
                    .column("P", DataType::Int, Some(100));
            }
            let cat = Arc::new(b.build().expect("merge catalog"));
            let mut rng = Rng64::new(*seed);
            let mut dbb = DatabaseBuilder::new(cat.clone());
            for (t, table) in cat.tables().iter().enumerate() {
                for id in 0..*rows {
                    let key = match *dup && t == 0 && id % 10 == 0 {
                        true => Value::Null,
                        false => Value::Int(rng.below(keys) as i64),
                    };
                    let row = vec![
                        Value::Int(id as i64),
                        key,
                        Value::Int(rng.below(100) as i64),
                    ];
                    dbb.insert_id(table.id, Tuple(row)).expect("merge row");
                }
            }
            let db = dbb.build().expect("merge database");
            let mut qb = QueryBuilder::new();
            let q: Vec<_> = (0..tables)
                .map(|t| qb.quantifier(&cat, &format!("T{t}"), &format!("t{t}")))
                .collect::<Result<_, _>>()
                .expect("merge tables");
            let (id, k, p) = (ColId(0), ColId(1), ColId(2));
            let preds = match *dup {
                true => vec![
                    (CmpOp::Eq, (q[0], k), (q[1], k)),
                    (CmpOp::Lt, (q[0], p), (q[1], p)),
                ],
                false => vec![
                    (CmpOp::Eq, (q[0], k), (q[1], id)),
                    (CmpOp::Eq, (q[1], k), (q[2], id)),
                ],
            };
            for (op, (lq, lc), (rq, rc)) in preds {
                qb.predicate(PredExpr::Cmp(op, Scalar::col(lq, lc), Scalar::col(rq, rc)))
                    .expect("merge pred");
            }
            qb.select(QCol::new(q[0], id));
            qb.select(QCol::new(q[tables - 1], p));
            let query = qb.build().expect("merge query");
            let opt = Optimizer::new(cat).expect("rules compile");
            let config = OptConfig {
                glue_keep_all: true,
                ..OptConfig::default()
            };
            let out = opt.optimize(&query, &config).expect("merge case optimizes");
            let case = pick_plan(&out.root_alternatives, &out.best, &query, "JOIN(MG)");
            // The case exercises the join method its name says, throughout.
            let merges = |p: &PlanRef| p.op_names().iter().filter(|n| *n == "JOIN(MG)").count();
            assert_eq!(case.as_ref().map(merges), Some(tables - 1), "{name}");
            let case = case.map(|plan| Case {
                name: (*name).to_string(),
                db,
                query,
                plan,
            });
            ((*name).to_string(), case)
        }
    }
}

/// Best-of-N wall milliseconds for one executor closure.
fn best_ms(reps: usize, mut f: impl FnMut() -> QueryResult) -> (QueryResult, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let (r, ms) = time_ms(&mut f);
        best = best.min(ms);
        out = Some(r);
    }
    (out.expect("at least one rep"), best)
}

pub fn e23_vexec(quick: bool) -> Report {
    let mut report = Report::new(
        "E23",
        "vectorized batch executor vs serial interpreter (same plans, same data)",
    );
    let reps = if quick { 2 } else { 3 };
    let specs = case_specs(quick);

    let mut reg = MetricsRegistry::new();
    let mut divergences = 0u64;
    let mut ncases = 0u64;
    let mut unsupported = 0u64;
    let mut serial_ms_total = 0.0f64;
    let mut vexec8_ms_total = 0.0f64;
    let widths = [18usize, 9, 10, 10, 10, 8, 8];
    report.line(row(
        &[
            "case",
            "rows",
            "serial_ms",
            "vexec1_ms",
            "vexec8_ms",
            "x1",
            "x8",
        ]
        .map(String::from),
        &widths,
    ));
    for spec in &specs {
        // One case lives at a time: the big scan cases are dropped before
        // the next materializes.
        let (cname, case) = materialize(spec);
        let case = match case {
            Some(c) => c,
            None => {
                unsupported += 1;
                report.line(format!("{cname}: no supported plan of this class, skipped"));
                continue;
            }
        };
        ncases += 1;
        let case = &case;
        let correlated = case.plan.any(&|n| {
            matches!(
                n.op,
                Lolepop::Join {
                    flavor: JoinFlavor::NL,
                    ..
                }
            ) && n
                .inputs
                .get(1)
                .is_some_and(|i| is_correlated(i, &case.query))
        });
        reg.count("exec_correlated_nl_cases", correlated as u64);
        let (want, serial_ms) = best_ms(reps, || {
            Executor::new(&case.db, &case.query)
                .run(&case.plan)
                .expect("serial executes")
        });
        let run_vexec = |workers: usize| {
            let mut stats = None;
            let (got, ms) = best_ms(reps, || {
                let mut vx = VexecExecutor::new(&case.db, &case.query);
                vx.set_workers(workers);
                let r = vx.run(&case.plan).expect("vexec executes");
                stats = Some(*vx.stats());
                r
            });
            (got, ms, stats.expect("ran"))
        };
        let [(got1, v1_ms, mut s1), (got2, _, mut s2), (got8, v8_ms, mut s8)] =
            [1, 2, 8].map(run_vexec);
        divergences += [got1, got2, got8]
            .iter()
            .filter(|got| **got != want)
            .count() as u64;
        // Batch/morsel/row accounting must not depend on scheduling.
        for s in [&mut s1, &mut s2, &mut s8] {
            s.max_workers = 0;
        }
        assert!(
            s1 == s8 && s2 == s8,
            "{}: stats depend on worker count",
            case.name
        );
        reg.count("exec_rows_out", want.rows.len() as u64);
        reg.count("exec_vexec_batches", s8.batches);
        reg.count("exec_vexec_morsels", s8.morsels);
        reg.count("exec_vexec_rows", s8.rows);
        serial_ms_total += serial_ms;
        vexec8_ms_total += v8_ms;
        report.line(row(
            &[
                case.name.clone(),
                want.rows.len().to_string(),
                format!("{serial_ms:.2}"),
                format!("{v1_ms:.2}"),
                format!("{v8_ms:.2}"),
                format!("{:.2}", serial_ms / v1_ms.max(1e-9)),
                format!("{:.2}", serial_ms / v8_ms.max(1e-9)),
            ],
            &widths,
        ));
    }
    assert!(ncases > 0, "fleet produced no vexec-supported plan");
    let speedup8 = serial_ms_total / vexec8_ms_total.max(1e-9);
    reg.count("exec_cases", ncases);
    reg.count("exec_unsupported_cases", unsupported);
    reg.count("exec_divergences", divergences);
    report.line(format!(
        "aggregate: serial {serial_ms_total:.1} ms, vexec-8 {vexec8_ms_total:.1} ms, speedup {speedup8:.2}x"
    ));
    report.line(format!("divergences: {divergences}"));
    assert_eq!(divergences, 0, "vexec diverged from the serial oracle");
    assert!(
        reg.summary().counter("exec_correlated_nl_cases") >= Some(2),
        "the fleet lost its sideways-bound nested-loop cases"
    );
    if !quick {
        // The acceptance floor: vectorization (selection-before-gather,
        // compiled expressions, fused pipelines) must carry a 3× aggregate
        // throughput win even on a single core.
        assert!(
            speedup8 >= 3.0,
            "vexec-8 speedup {speedup8:.2}x below the 3x floor"
        );
    }
    report.absorb(&reg.summary());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick bench stays bit-exact and counter-deterministic.
    #[test]
    fn quick_e23_is_exact() {
        let report = e23_vexec(true);
        assert_eq!(report.metrics.counter("exec_divergences"), Some(0));
        assert!(report.metrics.counter("exec_cases").unwrap_or(0) >= 1);
        assert!(report.body.contains("divergences: 0"));
    }
}

//! Same winners, same counters, same sharing, over a few hundred seeded
//! shapes — the scale at which a cold-path change used to be checked by a
//! one-off dump-and-compare.
//!
//! The fleet is drawn the way `perf`'s `cold_adhoc` draws its requests:
//! connected `Ta.FK = Tb.ID` graphs over random subsets of ten tables (heap
//! and B-tree stored, an `FK` index on every third), 4/5/6/7/8-way at
//! 30/30/25/10/5 %, chain/star/tree plus up to two extra edges, and up to two
//! `col op const` predicates. Every shape is optimized under
//! `OptConfig::default()` and every fourth of up to six tables under
//! `OptConfig::full()`; a few
//! more runs exercise what the fleet does not (rules that hand SAPs to the
//! natives that inspect them, an extension LOLEPOP over two SAPs, no memo,
//! `glue_keep_all`, a budget cap, three sites). Then the 41 optimizations of
//! `cold_path_golden.rs` once more, for their sharing alone.
//!
//! Each optimization is one line of `cold_path_fleet.txt`: a digest of the
//! winner's EXPLAIN text, cost components and origin trace, its total cost,
//! the root-alternative count, every `OptStats` and `TableStats` field, and
//! how the plans handed out share nodes ([`sharing`]: the distinct `Arc`s
//! reachable from `best` and the root alternatives and a digest of which of
//! them are the same node). `STARQO_UPDATE_GOLDEN=1 cargo test -p
//! starqo-integration --test cold_path_fleet` rewrites the file;
//! `scripts/golden_diff.sh` compares it across commits like the golden.

use std::fmt::Write as _;
use std::sync::Arc;

use starqo_catalog::{Catalog, ColId, DataType, StorageKind, Value};
use starqo_core::{Budget, OptConfig, Optimized, Optimizer};
use starqo_integration::cold::{golden_fleet, sharing};
use starqo_plan::{Cost, Explain, Lolepop, PlanError, Props};
use starqo_query::fingerprint::fnv1a64;
use starqo_query::{CmpOp, PredExpr, PredSet, QCol, QSet, Query, QueryBuilder, Scalar, Shared};
use starqo_workload::Rng64;

const FLEET: &str = include_str!("cold_path_fleet.txt");

/// Ad-hoc shapes drawn; every fourth of at most six tables is optimized a
/// second time under `OptConfig::full()` (seven- and eight-way bushy search
/// takes a second each in a debug build).
const SHAPES: usize = 320;

/// `cold_adhoc`'s ten tables: 50–500 rows, even ones heap and odd ones
/// B-tree stored on `ID`, an index on `FK` of every third; round-robin over
/// `sites` sites.
fn catalog(sites: usize) -> Arc<Catalog> {
    let rows = [50u64, 80, 120, 160, 200, 250, 300, 350, 420, 500];
    let mut b = Catalog::builder();
    for s in 0..sites {
        b = b.site(format!("site{s}"));
    }
    for (i, &card) in rows.iter().enumerate() {
        let storage = if i % 2 == 0 {
            StorageKind::Heap
        } else {
            StorageKind::BTree {
                key: vec![ColId(0)],
            }
        };
        let name = format!("T{i}");
        b = b
            .table(&name, &format!("site{}", i % sites), storage, card)
            .column("ID", DataType::Int, Some(card))
            .column("FK", DataType::Int, Some(300))
            .column("P0", DataType::Int, Some(10))
            .column("P1", DataType::Int, Some(25));
        if i % 3 == 0 {
            b = b.index(format!("{name}_FK"), &name, &["FK"], false, false);
        }
    }
    Arc::new(b.build().expect("fleet catalog"))
}

#[derive(Clone, Copy, Debug)]
enum Family {
    Chain,
    Star,
    Tree,
}

/// `n` random tables joined as `family` plus `extra` random edges, with 0–2
/// random `col op const` predicates; selects two IDs and a payload column.
fn adhoc(cat: &Catalog, rng: &mut Rng64, n: usize, family: Family, extra: usize) -> Query {
    let mut picks: Vec<usize> = (0..cat.tables().len()).collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.index(i + 1));
    }
    picks.truncate(n);
    let mut edges: Vec<(usize, usize)> = (1..n)
        .map(|i| match family {
            Family::Chain => (i - 1, i),
            Family::Star => (0, i),
            Family::Tree => (rng.index(i), i),
        })
        .collect();
    for _ in 0..extra {
        let (a, z) = (rng.index(n), rng.index(n));
        if a != z && !edges.contains(&(a, z)) {
            edges.push((a, z));
        }
    }
    let mut b = QueryBuilder::new();
    let qs: Vec<_> = picks
        .iter()
        .enumerate()
        .map(|(i, t)| b.quantifier(cat, &format!("T{t}"), &format!("q{i}")))
        .collect::<Result<_, _>>()
        .expect("tables");
    let (id, fk) = (ColId(0), ColId(1));
    for (a, z) in edges {
        let (l, r) = (Scalar::col(qs[a], fk), Scalar::col(qs[z], id));
        b.predicate(PredExpr::Cmp(CmpOp::Eq, l, r)).expect("edge");
    }
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    for _ in 0..rng.index(3) {
        let (q, col) = (qs[rng.index(n)], ColId(2 + rng.index(2) as u32));
        let op = OPS[rng.index(OPS.len())];
        let value = Scalar::Const(Value::Int(rng.below(10) as i64));
        b.predicate(PredExpr::Cmp(op, Scalar::col(q, col), value))
            .expect("local");
    }
    b.select(QCol::new(qs[0], id));
    b.select(QCol::new(qs[n - 1], id));
    b.select(QCol::new(qs[n - 1], ColId(2)));
    b.build().expect("query")
}

/// `count` shapes, widths and families on `cold_adhoc`'s rota: widths
/// 4/5/6/7/8 at 30/30/25/10/5 % in shuffled rounds of twenty, families
/// cycling per width.
fn shapes(cat: &Catalog, seed: u64, count: usize) -> Vec<(String, Query)> {
    const WIDTHS: [usize; 20] = [4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 8];
    const FAMILIES: [(Family, usize); 6] = [
        (Family::Chain, 0),
        (Family::Star, 0),
        (Family::Tree, 0),
        (Family::Tree, 1),
        (Family::Chain, 1),
        (Family::Tree, 2),
    ];
    let mut rng = Rng64::new(seed);
    let (mut rota, mut family_of_width) = (Vec::new(), [0usize; 9]);
    (0..count)
        .map(|i| {
            if rota.is_empty() {
                rota = WIDTHS.to_vec();
                for j in (1..rota.len()).rev() {
                    rota.swap(j, rng.index(j + 1));
                }
            }
            let n = rota.pop().expect("refilled above");
            let (family, extra) = FAMILIES[family_of_width[n] % FAMILIES.len()];
            family_of_width[n] += 1;
            let name = format!("{i:03} {family:?}{n}+{extra}");
            (name, adhoc(cat, &mut rng, n, family, extra))
        })
        .collect()
}

/// One line: what the optimizer chose and reported, and how the plans it
/// handed out share nodes.
fn line(name: &str, cat: &Catalog, query: &Query, out: &Optimized) -> String {
    let mut plan = Explain::new(cat, query).tree(&out.best);
    let _ = write!(plan, "{:?}", out.best.props.cost);
    for step in out.origin_trace(&out.best) {
        plan.push_str(&step);
    }
    let s = out.stats;
    let t = out.table_stats;
    let (arcs, dag) = sharing(out);
    format!(
        "{name} plan={:016x} cost={:?} roots={} stats={},{},{},{},{},{},{},{},{},{} \
         table={},{},{},{} kept={}/{} degraded={} arcs={arcs} dag={dag:016x}\n",
        fnv1a64(&plan),
        out.best.props.cost.total(),
        out.root_alternatives.len(),
        s.star_refs,
        s.memo_hits,
        s.alts_considered,
        s.conds_evaluated,
        s.plans_built,
        s.plans_rejected,
        s.glue_refs,
        s.glue_cache_hits,
        s.glue_veneers,
        s.native_calls,
        t.offered,
        t.dominated,
        t.evicted,
        t.duplicates,
        out.table_plans,
        out.table_keys,
        out.degraded,
    )
}

fn run(opt: &Optimizer, name: &str, query: &Query, config: &OptConfig) -> String {
    let out = opt.optimize(query, config).expect(name);
    line(name, opt.catalog(), query, &out)
}

/// Rules whose conditions hand a SAP to each of the four natives that
/// inspect one (`inner_preds` reads its tables, then `is_empty`, `count`,
/// `storage_kind`): a nested loop that does not push its join predicates.
const SAP_NATIVES: &str = "
star JMeth(T1, T2, P) =
    with S = Glue(T2, inner_preds(P, T2))
    [
        JOIN(NL, Glue(T1, {}), S, join_preds(P), P - (join_preds(P) union inner_preds(P, S)))
            if not is_empty(S) and count(S) > 0 and storage_kind(S) == heap;
    ]";

/// An extension LOLEPOP over two SAPs: a join whose property function is
/// the test's own, priced so that it wins some shapes.
const PAIR_RULES: &str = "
star JMeth(T1, T2, P) = [
    PAIR(Glue(T1, {}), Glue(T2, {}), join_preds(P), P) if not is_empty(join_preds(P));
]";

fn pair_props(op: &Lolepop, inputs: &[&Props]) -> Result<Props, PlanError> {
    let (a, b) = (inputs[0], inputs[1]);
    let Lolepop::Ext { args, .. } = op else {
        return Err(PlanError::Invalid("PAIR is an extension".into()));
    };
    let applied = match args.last() {
        Some(starqo_plan::ExtArg::Preds(p)) => *p,
        _ => PredSet::EMPTY,
    };
    if a.site != b.site || !a.tables.is_disjoint(b.tables) {
        return Err(PlanError::Invalid("PAIR inputs".into()));
    }
    Ok(Props {
        tables: QSet(a.tables.0 | b.tables.0),
        cols: a.cols.union(&b.cols),
        preds: a.preds.union(b.preds).union(applied),
        order: Shared::EMPTY,
        site: a.site,
        temp: false,
        paths: Shared::EMPTY,
        card: (a.card * b.card / 50.0).max(1.0),
        cost: Cost::new(
            a.cost.total() + b.cost.total() + a.card * b.card / 100.0,
            0.0,
        ),
    })
}

fn render() -> String {
    let mut s = String::from(
        "# name plan=<digest of EXPLAIN, cost components, origin trace> cost=<total> roots=<root alternatives>\n\
         # stats=star_refs,memo_hits,alts_considered,conds_evaluated,plans_built,plans_rejected,glue_refs,glue_cache_hits,glue_veneers,native_calls\n\
         # table=offered,dominated,evicted,duplicates kept=<table plans>/<keys> arcs=<distinct nodes handed out> dag=<digest of their sharing>\n",
    );
    let cat = catalog(1);
    let opt = Optimizer::new(cat.clone()).expect("rules");
    let fleet = shapes(&cat, 1, SHAPES);
    for (i, (name, query)) in fleet.iter().enumerate() {
        s.push_str(&run(&opt, name, query, &OptConfig::default()));
        if i % 4 == 0 && query.quantifiers.len() <= 6 {
            s.push_str(&run(
                &opt,
                &format!("{name} full"),
                query,
                &OptConfig::full(),
            ));
        }
    }

    let few = &fleet[..8];
    let mut natives = opt.clone();
    natives.load_rules(SAP_NATIVES).expect("SAP natives rules");
    let mut pair = opt.clone();
    pair.register_ext_op("PAIR", Arc::new(|op, inputs, _ctx| pair_props(op, inputs)));
    pair.load_rules(PAIR_RULES).expect("PAIR rules");
    let no_memo = OptConfig {
        ablate_memo: true,
        ..OptConfig::default()
    };
    let keep_all = OptConfig {
        glue_keep_all: true,
        ..OptConfig::default()
    };
    let capped = OptConfig {
        budget: Budget::default().with_plans_cap(60),
        ..OptConfig::default()
    };
    for (name, query) in few {
        let default = OptConfig::default();
        s.push_str(&run(
            &natives,
            &format!("{name} sap-natives"),
            query,
            &default,
        ));
        s.push_str(&run(&pair, &format!("{name} ext-pair"), query, &default));
        s.push_str(&run(&opt, &format!("{name} ablate_memo"), query, &no_memo));
        s.push_str(&run(&opt, &format!("{name} keep_all"), query, &keep_all));
        s.push_str(&run(&opt, &format!("{name} plans_cap=60"), query, &capped));
    }
    let cat3 = catalog(3);
    let opt3 = Optimizer::new(cat3.clone()).expect("rules");
    for (name, query) in shapes(&cat3, 1, 12) {
        s.push_str(&run(
            &opt3,
            &format!("{name} 3site"),
            &query,
            &OptConfig::default(),
        ));
    }

    for case in golden_fleet() {
        let opt = Optimizer::new(case.cat.clone()).expect("rules");
        let name = format!("golden {}", case.name);
        s.push_str(&run(&opt, &name, &case.query, &case.config));
    }
    s
}

#[test]
fn same_winners_same_counters_same_sharing() {
    let actual = render();
    if std::env::var_os("STARQO_UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/cold_path_fleet.txt");
        std::fs::write(path, &actual).expect("write fleet digest");
        return;
    }
    for (i, (a, f)) in actual.lines().zip(FLEET.lines()).enumerate() {
        assert_eq!(a, f, "line {} of cold_path_fleet.txt moved", i + 1);
    }
    assert_eq!(actual.lines().count(), FLEET.lines().count());
}

/// A STORE two consumers share is one node of the winner, so both executors
/// build its temp once: the plans a run hands out have one `Arc` per node,
/// not one per use. The two consumers re-access the temp under a correlated
/// nested-loop inner, where both engines keep a temp by node identity.
#[test]
fn a_shared_store_is_built_once_by_both_executors() {
    let cat = catalog(1);
    let mut opt = Optimizer::empty(cat.clone());
    opt.load_rules(
        "star AccessRoot(T, C, P) = ACCESS(heap, T, C, P);
         star JoinRoot(T1, T2, P) = JOIN(NL, Glue(T1, {}), Twice(Glue(T2[temp], {}), P), P, {});
         star Twice(S, P) = UNION(ACCESS(temp, S, *, P), ACCESS(temp, S, *, P));",
    )
    .expect("rules");
    let sql = "SELECT a.ID, b.P0 FROM T0 a, T2 b WHERE a.FK = b.ID";
    let query = starqo_query::parse_query(&cat, sql).expect("query");
    let best = opt
        .optimize(&query, &OptConfig::default())
        .expect("plan")
        .best;
    let union = &best.inputs[1];
    assert!(matches!(union.op, Lolepop::Union), "{}", union.op);
    let (l, r) = (&union.inputs[0], &union.inputs[1]);
    assert!(!Arc::ptr_eq(l, r), "two ACCESS(temp) applications");
    assert!(Arc::ptr_eq(&l.inputs[0], &r.inputs[0]), "one STORE");

    let db = starqo_workload::synth_database(3, cat.clone());
    let mut serial = starqo_exec::Executor::new(&db, &query);
    let want = serial.run(&best).expect("serial run");
    let mut vexec = starqo_vexec::VexecExecutor::new(&db, &query);
    let got = vexec.run(&best).expect("vexec run");
    assert_eq!(serial.stats().temps_built, 1);
    assert_eq!(vexec.stats().temps_built, 1);
    assert_eq!(got.rows, want.rows);
    assert!(!want.rows.is_empty());
}

//! Randomized invariants of the cost model, selectivity estimator, and
//! property functions (seeded, deterministic — no external crates).

use starqo_catalog::{Catalog, ColId, DataType, SiteId, StorageKind, Value};
use starqo_plan::{AccessSpec, ColSet, CostModel, Lolepop, PropCtx, PropEngine};
use starqo_query::{CmpOp, PredExpr, PredSet, QCol, QId, QSet, Query, QueryBuilder, Scalar};
use starqo_workload::Rng64;

/// A two-table catalog with tunable stats.
fn catalog(card_a: u64, card_b: u64, ndv: u64) -> Catalog {
    Catalog::builder()
        .site("x")
        .site("y")
        .table("A", "x", StorageKind::Heap, card_a)
        .column("K", DataType::Int, Some(ndv))
        .column("V", DataType::Int, Some(ndv.min(card_a).max(1)))
        .table("B", "y", StorageKind::Heap, card_b)
        .column("K", DataType::Int, Some(ndv))
        .column("V", DataType::Int, Some(ndv.min(card_b).max(1)))
        .build()
        .unwrap()
}

/// Build a query with a configurable set of predicate shapes.
fn query(cat: &Catalog, ops: &[CmpOp], consts: &[i64]) -> Query {
    let mut b = QueryBuilder::new();
    let a = b.quantifier(cat, "A", "a").unwrap();
    let bb = b.quantifier(cat, "B", "b").unwrap();
    // p0: join pred a.K <op0> b.K
    b.predicate(PredExpr::Cmp(
        ops[0],
        Scalar::col(a, ColId(0)),
        Scalar::col(bb, ColId(0)),
    ))
    .unwrap();
    // p1..: local preds a.V <op> const
    for (op, c) in ops[1..].iter().zip(consts) {
        b.predicate(PredExpr::Cmp(
            *op,
            Scalar::col(a, ColId(1)),
            Scalar::Const(Value::Int(*c)),
        ))
        .unwrap();
    }
    b.select(QCol::new(a, ColId(0)));
    b.select(QCol::new(bb, ColId(0)));
    b.build().unwrap()
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn rand_op(rng: &mut Rng64) -> CmpOp {
    OPS[rng.index(OPS.len())]
}

/// Selectivities always land in (0, 1], and conjunctions never increase
/// selectivity.
#[test]
fn selectivity_bounds() {
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let card_a = rng.range_inclusive(1, 100_000);
        let card_b = rng.range_inclusive(1, 100_000);
        let ndv = rng.range_inclusive(1, 10_000);
        let nops = rng.index(2) + 3;
        let ops: Vec<CmpOp> = (0..nops).map(|_| rand_op(&mut rng)).collect();
        let consts: Vec<i64> = (0..nops - 1)
            .map(|_| rng.range_inclusive(0, 199) as i64 - 100)
            .collect();
        let cat = catalog(card_a, card_b, ndv);
        let q = query(&cat, &ops, &consts);
        let sel = starqo_plan::Selectivity::new(&cat, &q);
        let both = QSet::all(2);
        let all = q.all_preds();
        let mut combined = 1.0f64;
        for p in all.iter() {
            let s = sel.pred(p, both);
            assert!(s > 0.0 && s <= 1.0, "sel({p}) = {s}");
            combined *= s;
        }
        let joint = sel.preds(all, both);
        assert!((joint - combined.clamp(0.0, 1.0)).abs() < 1e-9);
        // Adding predicates never increases selectivity.
        let partial = sel.preds(PredSet::single(starqo_query::PredId(0)), both);
        assert!(joint <= partial + 1e-12);
    }
}

/// Cost-model primitives are non-negative and monotone in their inputs.
#[test]
fn cost_model_monotonicity() {
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let card = rng.next_f64() * 1e7;
        let extra = 1.0 + rng.next_f64() * 1e6;
        let width = 1.0 + rng.next_f64() * 511.0;
        let m = CostModel::default();
        assert!(m.pages(card, width) >= 1.0);
        assert!(m.pages(card + extra, width) >= m.pages(card, width));
        assert!(m.scan_io(card + extra, width).total() >= m.scan_io(card, width).total());
        assert!(m.ship_cost(card + extra, width).total() >= m.ship_cost(card, width).total());
        assert!(m.sort_cost(card + extra, width).total() >= m.sort_cost(card, width).total());
        assert!(m.stream_cpu(card, 3).total() >= m.stream_cpu(card, 0).total());
        assert!(m.probe_cost(0.0).total() > 0.0);
    }
}

/// Along any legal operator chain, cardinality stays non-negative and the
/// total cost never decreases (every LOLEPOP adds work).
#[test]
fn operator_chains_accumulate_cost() {
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let card_a = rng.range_inclusive(1, 50_000);
        let ndv = rng.range_inclusive(1, 5_000);
        let op = rand_op(&mut rng);
        let c = rng.range_inclusive(0, 99) as i64 - 50;
        let to_other_site = rng.flip();
        let materialize = rng.flip();
        let cat = catalog(card_a, 100, ndv);
        let q = query(&cat, &[CmpOp::Eq, op], &[c]);
        let model = CostModel::default();
        let engine = PropEngine::new();
        let ctx = PropCtx::new(&cat, &q, &model);
        let a = QId(0);
        let cols: ColSet = [QCol::new(a, ColId(0)), QCol::new(a, ColId(1))]
            .into_iter()
            .collect();
        let mut plan = engine
            .build(
                Lolepop::Access {
                    spec: AccessSpec::HeapTable(a),
                    cols,
                    preds: PredSet::single(starqo_query::PredId(1)),
                },
                vec![],
                &ctx,
            )
            .unwrap();
        assert!(plan.props.card >= 0.0);
        let mut last = plan.props.cost.total();
        let mut steps: Vec<Lolepop> = vec![Lolepop::Sort {
            key: vec![QCol::new(a, ColId(0))].into(),
        }];
        if to_other_site {
            steps.push(Lolepop::Ship { to: SiteId(1) });
        }
        if materialize {
            steps.push(Lolepop::Store);
        }
        steps.push(Lolepop::Filter {
            preds: PredSet::single(starqo_query::PredId(1)),
        });
        for op in steps {
            plan = engine.build(op, vec![plan], &ctx).unwrap();
            let total = plan.props.cost.total();
            assert!(plan.props.card >= 0.0);
            assert!(
                total + 1e-9 >= last,
                "cost decreased: {total} < {last} at {}",
                plan.op.name()
            );
            last = total;
        }
        // Physical properties ended where the chain put them.
        if to_other_site {
            assert_eq!(plan.props.site, SiteId(1));
        }
        if materialize {
            assert!(plan.props.temp);
        }
    }
}

/// Join output cardinality is bounded by the Cartesian product of the
/// inputs, and join cost at least covers both inputs.
#[test]
fn join_cardinality_bounded() {
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let card_a = rng.range_inclusive(1, 20_000);
        let card_b = rng.range_inclusive(1, 20_000);
        let ndv = rng.range_inclusive(1, 2_000);
        let cat = catalog(card_a, card_b, ndv);
        let q = query(&cat, &[CmpOp::Eq, CmpOp::Eq], &[1]);
        let model = CostModel::default();
        let engine = PropEngine::new();
        let ctx = PropCtx::new(&cat, &q, &model);
        let mk_scan = |qid: u32| {
            let cols: ColSet = [QCol::new(QId(qid), ColId(0)), QCol::new(QId(qid), ColId(1))]
                .into_iter()
                .collect();
            engine
                .build(
                    Lolepop::Access {
                        spec: AccessSpec::HeapTable(QId(qid)),
                        cols,
                        preds: PredSet::EMPTY,
                    },
                    vec![],
                    &ctx,
                )
                .unwrap()
        };
        let a = mk_scan(0);
        // Same-site join: ship B to A's site first.
        let b = engine
            .build(Lolepop::Ship { to: SiteId(0) }, vec![mk_scan(1)], &ctx)
            .unwrap();
        let join = engine
            .build(
                Lolepop::Join {
                    flavor: starqo_plan::JoinFlavor::NL,
                    join_preds: PredSet::EMPTY,
                    residual: PredSet::single(starqo_query::PredId(0)),
                },
                vec![a.clone(), b.clone()],
                &ctx,
            )
            .unwrap();
        assert!(join.props.card <= a.props.card * b.props.card + 1e-6);
        assert!(join.props.card >= 0.0);
        assert!(join.props.cost.total() + 1e-9 >= a.props.cost.total().max(b.props.cost.total()));
    }
}

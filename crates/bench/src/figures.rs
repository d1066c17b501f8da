//! E1–E3: regenerate the paper's three figures from the implemented system.

use starqo_catalog::SiteId;
use starqo_core::engine::Engine;
use starqo_core::natives::Natives;
use starqo_core::value::ReqVec;
use starqo_core::{glue, OptConfig, Optimizer};
use starqo_plan::{AccessSpec, CostModel, Explain, JoinFlavor, Lolepop, PlanRef, PropEngine};
use starqo_query::{PredSet, QCol, QId};
use starqo_workload::{dept_emp_catalog, dept_emp_query};

/// E1 / Figure 1: the DEPT⋈EMP sort-merge plan — SORT(ACCESS(DEPT)) outer,
/// GET(ACCESS(Index on EMP.DNO)) inner — generated by the rules, printed in
/// both of the paper's notations.
pub fn e1_figure1() -> crate::Report {
    let mut r = crate::Report::new("E1", "Figure 1 — the DEPT ⋈ EMP query evaluation plan");
    let cat = dept_emp_catalog(false, 10_000);
    let query = dept_emp_query(&cat);
    let opt = Optimizer::new(cat.clone()).expect("builtin rules compile");
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let out = opt
        .optimize(&query, &config)
        .expect("optimization succeeds");
    r.absorb(&out);

    let fig1 = out
        .root_alternatives
        .iter()
        .find(|p| {
            p.any(&|n| {
                matches!(
                    n.op,
                    Lolepop::Join {
                        flavor: JoinFlavor::MG,
                        ..
                    }
                )
            }) && p.any(&|n| matches!(n.op, Lolepop::Sort { .. }))
                && p.any(&|n| matches!(n.op, Lolepop::Get { .. }))
        })
        .expect("Figure 1 plan is among the alternatives");
    let ex = Explain::new(&cat, &query);
    r.line("Operator graph (arrows point toward the stream source):");
    r.line(ex.tree(fig1));
    r.line("Functional notation (§2.1):");
    r.line(format!("  {}", ex.functional(fig1)));
    r.line("");
    r.line(format!(
        "alternatives generated for the full query: {}",
        out.root_alternatives.len()
    ));
    r.line(format!(
        "optimizer's overall choice (cost {:.1}):",
        out.best.props.cost.total()
    ));
    r.line(format!("  {}", ex.functional(&out.best)));
    r
}

/// E2 / Figure 2: the full property vector after every LOLEPOP of the
/// Figure-1 plan, bottom-up.
pub fn e2_figure2() -> crate::Report {
    let mut r = crate::Report::new("E2", "Figure 2 — property-vector propagation");
    let cat = dept_emp_catalog(false, 10_000);
    let query = dept_emp_query(&cat);
    let opt = Optimizer::new(cat.clone()).expect("builtin rules compile");
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let out = opt
        .optimize(&query, &config)
        .expect("optimization succeeds");
    r.absorb(&out);
    let fig1 = out
        .root_alternatives
        .iter()
        .find(|p| {
            p.any(&|n| {
                matches!(
                    n.op,
                    Lolepop::Join {
                        flavor: JoinFlavor::MG,
                        ..
                    }
                )
            })
        })
        .expect("merge-join plan exists");
    let ex = Explain::new(&cat, &query);
    r.line(ex.property_trace(fig1));
    r
}

/// E3 / Figure 3: Glue injecting SHIP/SORT veneers to meet
/// `[site = L.A., order = DNO]` over three pre-existing DEPT plans, then
/// choosing the cheapest.
pub fn e3_figure3() -> crate::Report {
    let mut r = crate::Report::new("E3", "Figure 3 — the Glue mechanism");
    // DEPT stored at N.Y. (site0); the STAR requires delivery at L.A. in
    // DNO order.
    let cat = dept_emp_catalog(true, 10_000);
    let query = dept_emp_query(&cat);
    let model = CostModel::default();
    let natives = Natives::builtin();
    let prop = PropEngine::new();
    let rules = {
        // A minimal rule set (AccessRoot only) so Glue can re-reference it.
        let opt = Optimizer::new(cat.clone()).expect("rules");
        opt.rules().clone()
    };
    let config = OptConfig {
        glue_keep_all: true,
        ..Default::default()
    };
    let mut engine = Engine::new(&rules, &natives, &prop, &cat, &query, &model, &config);

    let d = QId(0);
    let dno = QCol::new(d, starqo_catalog::ColId(0));
    let mgr_pred = PredSet::single(starqo_query::PredId(0));
    let cols: starqo_plan::ColSet = [dno, QCol::new(d, starqo_catalog::ColId(1))]
        .into_iter()
        .collect();
    let ctx = engine.prop_ctx();
    // Available plan 2 (paper numbering): a simple ACCESS of DEPT at N.Y.
    let p2: PlanRef = prop
        .build(
            Lolepop::Access {
                spec: AccessSpec::HeapTable(d),
                cols: cols.clone(),
                preds: mgr_pred,
            },
            vec![],
            ctx,
        )
        .unwrap();
    // Available plan 1: already sorted into DNO order (at N.Y.).
    let p1 = prop
        .build(
            Lolepop::Sort {
                key: vec![dno].into(),
            },
            vec![p2.clone()],
            ctx,
        )
        .unwrap();
    // Available plan 3: plan 2 already SHIPped to L.A. by an earlier Glue.
    let p3 = prop
        .build(Lolepop::Ship { to: SiteId(1) }, vec![p2.clone()], ctx)
        .unwrap();
    let id2 = engine.store.add(p2.op.clone(), &[], p2.props.clone());
    let id1 = engine.store.add(p1.op.clone(), &[id2], p1.props.clone());
    let id3 = engine.store.add(p3.op.clone(), &[id2], p3.props.clone());
    for id in [id1, id2, id3] {
        engine.table.insert(&engine.store, id);
    }

    let ex = Explain::new(&cat, &query);
    r.line("Available plans (tables=DEPT, preds={MGR='Haas'}):");
    for (i, p) in [&p1, &p2, &p3].iter().enumerate() {
        r.line(format!(
            "  plan {}: {}  [order=({}) site={} cost={:.1}]",
            i + 1,
            p.op_names().join(" <- "),
            p.props
                .order
                .iter()
                .map(|c| query.qcol_name(&cat, *c))
                .collect::<Vec<_>>()
                .join(","),
            cat.site_name(p.props.site),
            p.props.cost.total(),
        ));
    }
    r.line("");
    r.line("Requirement: [order = D.DNO, site = L.A.]");
    let reqs = ReqVec {
        order: Some(vec![dno].into()),
        site: Some(SiteId(1)),
        temp: false,
        paths: None,
    };
    let stream = engine.store.stream(starqo_query::QSet::single(d), reqs);
    let glued = glue::glue(&mut engine, stream, PredSet::EMPTY).expect("glue succeeds");
    let glued = engine.store.materialize(engine.store.sap(glued).to_vec());
    r.line("");
    r.line("Plans after Glue (veneer of SHIP/SORT operators injected):");
    let mut best: Option<&PlanRef> = None;
    for p in glued.iter() {
        r.line(format!(
            "  {}  [cost={:.1}]",
            ex.functional(p),
            p.props.cost.total()
        ));
        if best
            .map(|b| p.props.cost.total() < b.props.cost.total())
            .unwrap_or(true)
        {
            best = Some(p);
        }
    }
    let best = best.expect("glue returned plans");
    r.line("");
    r.line(format!(
        "CHEAPEST: {}  (cost {:.1})",
        best.op_names().join(" <- "),
        best.props.cost.total()
    ));
    r.line(format!(
        "glue veneers injected: {}",
        engine.stats.glue_veneers
    ));
    r
}

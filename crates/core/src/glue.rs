//! Glue (§3.2, Figure 3): impedance matching between the plans that exist
//! and the properties a STAR requires.
//!
//! Glue:
//! 1. checks if any plans exist for the required relational properties,
//!    "referencing the top-most STAR with those parameters if not" — for a
//!    single table with pushed-down predicates this re-references
//!    `AccessRoot` so access methods can exploit the converted join
//!    predicates "rather than retrofitting a FILTER LOLEPOP" (§4.4); for
//!    composite streams the FILTER retrofit is exactly what happens;
//! 2. adds Glue operators as a veneer to achieve the required properties:
//!    `SORT` for ORDER, `SHIP` for SITE, `STORE` for TEMP, and
//!    `STORE`+`BUILD_INDEX` for a required access path (§4.5.3); and
//! 3. returns the cheapest plan satisfying the requirements, or optionally
//!    all of them (`OptConfig::glue_keep_all`).
//!
//! Veneers are injected in the canonical order SORT → SHIP → STORE →
//! BUILD_INDEX, so a temp required at a remote site is shipped first and
//! stored at its destination (which is why §4.3's `SitedJoin` stores a
//! shipped inner: rescans then stay local).

use std::hash::{Hash, Hasher};

use starqo_plan::{AccessSpec, Lolepop};
use starqo_query::{PredSet, QSet};
use starqo_trace::{Phase, SpanGuard, TraceEvent};

use crate::engine::Engine;
use crate::error::{CoreError, Res, Result};
use crate::hash::RunHasher;
use crate::rules::GLUE_LABEL;
use crate::store::PlanId;
use crate::value::{ReqVec, Sap, StreamRef};

/// Discharge a stream's accumulated requirements (plus pushdown predicates).
pub fn glue(engine: &mut Engine<'_>, stream: StreamRef, pushdown: PredSet) -> Result<Sap> {
    engine.stats.glue_refs += 1;
    // The cache is probed with the stream as it came; it becomes a stored
    // key only after a miss.
    let mut h = RunHasher::default();
    stream.tables.hash(&mut h);
    engine.store.reqs(&stream).hash(&mut h);
    pushdown.hash(&mut h);
    let digest = h.finish();
    let store = &engine.store;
    let same = |(s, p): &(StreamRef, PredSet)| *p == pushdown && store.same_stream(s, &stream);
    if let Some(&hit) = engine.glue_cache.find(digest, same) {
        engine.stats.glue_cache_hits += 1;
        engine.spans.detail(|| TraceEvent::GlueRef {
            ref_id: engine.cur_ref(),
            cache_hit: true,
            candidates: hit.len(),
            veneers: 0,
        });
        return Ok(hit);
    }

    // Only depth-0 invocations accumulate glue wall time: Glue re-enters
    // itself through AccessRoot's Glue expressions, and nested time is
    // already inside the outer measurement.
    engine.glue_depth += 1;
    // Only the outermost invocation gets a span — nested Glue time is
    // already inside it, mirroring the `glue_nanos` accounting below.
    let glue_span = if engine.glue_depth == 1 && engine.spans.enabled() {
        engine.spans.enter(Phase::Glue.name())
    } else {
        SpanGuard::noop()
    };
    let started = std::time::Instant::now();
    let veneers_before = engine.stats.glue_veneers;
    let start = engine.plans.len();
    // Requirements read while the engine builds: a copy (a count or two).
    let reqs = engine.store.reqs(&stream).clone();
    let result = glue_miss(engine, stream.tables, &reqs, pushdown);
    engine.plans.truncate(start);
    drop(glue_span);
    engine.glue_depth -= 1;
    if engine.glue_depth == 0 {
        engine.glue_nanos += started.elapsed().as_nanos() as u64;
    }
    let out = result?;
    engine.spans.detail(|| TraceEvent::GlueRef {
        ref_id: engine.cur_ref(),
        cache_hit: false,
        candidates: out.len(),
        veneers: (engine.stats.glue_veneers - veneers_before) as usize,
    });
    engine.glue_cache.insert(digest, (stream, pushdown), out);
    Ok(out)
}

/// The cache-miss path of [`glue`]: find candidates, veneer, register.
/// Works on the engine's scratch vector: the candidates first, what
/// satisfies the requirements above them.
fn glue_miss(engine: &mut Engine<'_>, tables: QSet, reqs: &ReqVec, pushdown: PredSet) -> Res<Sap> {
    let first = engine.plans.len();
    let registered = candidate_plans(engine, tables, pushdown, reqs)?;
    let satisfied = engine.plans.len();
    for at in first..satisfied {
        let plan = engine.plans[at];
        if let Some(p) = veneer(engine, plan, reqs)? {
            engine.plans.push(p);
        }
    }
    if engine.plans.len() == satisfied {
        return Err(CoreError::Glue(format!(
            "no plan for tables {tables} satisfies requirements {reqs:?}"
        ))
        .into());
    }
    // Register Glue products so later references find them ("Glue may
    // generate some new plans having different properties"). A registered
    // candidate that needed no veneer would only die in the table's
    // duplicate scan.
    let (candidates, products) = engine.plans[first..].split_at(satisfied - first);
    for p in products {
        if !(registered && candidates.contains(p)) {
            engine.table.insert(&engine.store, *p, &engine.spans);
        }
    }
    engine.dedup(satisfied);
    for &p in &engine.plans[satisfied..] {
        engine.store.label(p, GLUE_LABEL);
    }
    if !engine.config.glue_keep_all {
        // The first of the cheapest, as a stable sort would put it.
        let cost = |at: usize| engine.store[engine.plans[at]].props.cost.total();
        let cheapest = (satisfied..engine.plans.len()).min_by(|&a, &b| cost(a).total_cmp(&cost(b)));
        engine.plans.swap(satisfied, cheapest.unwrap_or(satisfied));
        engine.plans.truncate(satisfied + 1);
    }
    Ok(engine.take_sap(satisfied))
}

/// Glue over an already-computed SAP: no requirements travel with a SAP, so
/// only pushdown predicates remain to discharge (FILTER retrofit).
pub fn glue_plans(engine: &mut Engine<'_>, plans: Sap, pushdown: PredSet) -> Result<Sap> {
    engine.stats.glue_refs += 1;
    if pushdown.is_empty() {
        return Ok(plans);
    }
    let veneers_before = engine.stats.glue_veneers;
    let start = engine.plans.len();
    for i in 0..plans.len() {
        let p = engine.store.sap(plans)[i];
        let extra = pushdown.minus(engine.store[p].props.preds);
        let p = if extra.is_empty() {
            p
        } else {
            engine.build_veneer(Lolepop::Filter { preds: extra }, p)?
        };
        engine.plans.push(p);
    }
    let out = engine.finish_sap(start);
    engine.spans.detail(|| TraceEvent::GlueRef {
        ref_id: engine.cur_ref(),
        cache_hit: false,
        candidates: out.len(),
        veneers: (engine.stats.glue_veneers - veneers_before) as usize,
    });
    Ok(out)
}

/// Step 1: find or create plans with the required relational properties
/// and push them on the engine's scratch vector. The flag tells whether
/// they are registered in the plan table (read from it, or made by an
/// `AccessRoot` reference) or Glue's own fresh products.
fn candidate_plans(
    engine: &mut Engine<'_>,
    tables: QSet,
    pushdown: PredSet,
    reqs: &ReqVec,
) -> Res<bool> {
    let base_preds = engine.query.eligible_preds(tables);
    let extra = pushdown.minus(base_preds);
    let target = base_preds.union(extra);

    // A required access path is built below (STORE + BUILD_INDEX) from base
    // plans; pushed predicates are applied by the probe, not by re-accessing
    // the table.
    if let Some(ix) = &reqs.paths {
        let base = engine.plans.len();
        existing_or_access(engine, tables, base_preds)?;
        let cost = |p: &PlanId| engine.store[*p].props.cost.total();
        let cheapest = engine.plans[base..]
            .iter()
            .min_by(|a, b| cost(a).total_cmp(&cost(b)))
            .copied();
        engine.plans.truncate(base);
        let Some(cheapest) = cheapest else {
            return Err(CoreError::Glue(format!("no base plans for {tables}")).into());
        };
        // SHIP to the required site first so the temp and its index live
        // where the join runs.
        let mut p = cheapest;
        if let Some(site) = reqs.site {
            if engine.store[p].props.site != site {
                p = engine.build_veneer(Lolepop::Ship { to: site }, p)?;
            }
        }
        if !engine.store[p].props.temp {
            p = engine.build_veneer(Lolepop::Store, p)?;
        }
        let cols = &engine.store[p].props.cols;
        let ix_cols: Vec<_> = ix.iter().filter(|c| cols.contains(c)).copied().collect();
        if ix_cols.is_empty() {
            return Err(CoreError::Glue("required path columns not in stream".into()).into());
        }
        let key = ix_cols.clone();
        p = engine.build_veneer(Lolepop::BuildIndex { key }, p)?;
        let probe = Lolepop::Access {
            spec: AccessSpec::TempIndex { key: ix_cols },
            cols: engine.store[p].props.cols.clone(),
            preds: extra,
        };
        let probe = engine.build_veneer(probe, p)?;
        engine.plans.push(probe);
        return Ok(false);
    }

    if extra.is_empty() {
        existing_or_access(engine, tables, base_preds)?;
        return Ok(true);
    }

    if tables.len() == 1 {
        // Re-reference the top-most single-table STAR so the access path can
        // exploit the pushed-down (converted) join predicates.
        let plans = engine.access_root(tables, target)?;
        engine.plans.extend_from_slice(engine.store.sap(plans));
        Ok(true)
    } else {
        // Composite stream: retrofit a FILTER.
        let base = engine.plans.len();
        existing_or_access(engine, tables, base_preds)?;
        for at in base..engine.plans.len() {
            let p = engine.plans[at];
            engine.plans[at] = engine.build_veneer(Lolepop::Filter { preds: extra }, p)?;
        }
        Ok(false)
    }
}

/// Push the plans the table holds for a key on the scratch vector;
/// reference `AccessRoot` for single tables when none exist yet.
fn existing_or_access(engine: &mut Engine<'_>, tables: QSet, preds: PredSet) -> Res<()> {
    let found = engine.table.get((tables, preds));
    if !found.is_empty() {
        engine.plans.extend_from_slice(found);
        return Ok(());
    }
    if tables.len() == 1 {
        let plans = engine.access_root(tables, preds)?;
        engine.plans.extend_from_slice(engine.store.sap(plans));
        return Ok(());
    }
    Err(CoreError::Glue(format!(
        "no plans exist for composite {tables} with predicates {preds} (enumeration order bug?)"
    ))
    .into())
}

/// Step 2: inject SORT / SHIP / STORE veneers to satisfy physical
/// requirements. Returns `None` if the plan cannot be made to satisfy them
/// (e.g. the sort columns are not in the stream).
fn veneer(engine: &mut Engine<'_>, plan: PlanId, reqs: &ReqVec) -> Res<Option<PlanId>> {
    let mut p = plan;
    if let Some(order) = &reqs.order {
        let props = &engine.store[p].props;
        if !props.order_satisfies(order) {
            if !order.iter().all(|c| props.cols.contains(c)) {
                return Ok(None);
            }
            let key = order.clone();
            p = engine.build_veneer(Lolepop::Sort { key }, p)?;
        }
    }
    if let Some(site) = reqs.site {
        if engine.store[p].props.site != site {
            p = engine.build_veneer(Lolepop::Ship { to: site }, p)?;
        }
    }
    if reqs.temp && !engine.store[p].props.temp {
        p = engine.build_veneer(Lolepop::Store, p)?;
    }
    Ok(Some(p))
}

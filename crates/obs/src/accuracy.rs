//! Estimation-accuracy analytics: join the optimizer's CARD/COST estimates
//! with the executor's measured actuals and report Q-error.
//!
//! The join key is the plan node's structural fingerprint: `best_node`
//! events carry the winning plan's estimates, `plan_built` events carry the
//! per-component cost breakdown, and `exec_node` events carry the measured
//! rows/invocations/nanos for the same fingerprints. Each span tree is one
//! query segment, named by its `query_start` event (`"(run)"` when it has
//! none) and closed by `query_done`.
//!
//! **Q-error** is the standard symmetric ratio `max(est/act, act/est)`
//! (≥ 1, 1 = perfect). Cardinalities are floored at half a row before the
//! ratio so that est=0/act=0 is well-defined (see [`q_error`]).
//!
//! **Cost Q-error** needs two extra steps. First, estimates are expanded
//! to the actual invocation count: the cost model charges a node's
//! `rescan` cost once *per invocation* (an NL inner is probed outer-card
//! times) while `best_node.cost` folds it in once — comparing that folded
//! number against inclusive nanos over hundreds of probes would
//! manufacture huge phantom errors. Second, estimated cost is in abstract
//! units and actual time in nanoseconds, so the report fits a single
//! per-run scale (the geometric mean of `nanos/cost` over joined nodes)
//! and measures Q-error against the *scaled* estimate — i.e. it scores the
//! cost model's proportionality, which is all plan ranking needs and
//! exactly what calibration (`starqo-obs calibrate`) can improve.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

use starqo_trace::json::JsonObj;
use starqo_trace::{CostBreakdownEv, Histogram, SpanTree, TraceEvent};

use crate::fmt::fmt_nanos;

/// Fixed-point factor used when recording Q-errors (which are ≥ 1.0 floats)
/// into the integer log₂ [`Histogram`]: `record(round(q × 1000))`.
pub const Q_MILLI: f64 = 1000.0;

/// The symmetric estimation error `max(est/act, act/est)` with both sides
/// floored at half a row: est=0/act=0 → 1.0 (a correct "empty" estimate),
/// est=0/act=10 → 20.0, and no division by zero anywhere.
pub fn q_error(est: f64, act: f64) -> f64 {
    q_error_floored(est, act, 0.5)
}

/// [`q_error`] with an explicit floor (cost comparisons floor at 1 nano
/// instead of half a row). Non-finite inputs clamp to the floor.
pub fn q_error_floored(est: f64, act: f64, floor: f64) -> f64 {
    let e = if est.is_finite() {
        est.max(floor)
    } else {
        floor
    };
    let a = if act.is_finite() {
        act.max(floor)
    } else {
        floor
    };
    (e / a).max(a / e)
}

/// One plan node with both sides of the join: what the optimizer promised
/// and what the executor measured.
#[derive(Debug, Clone)]
pub struct NodeJoin {
    pub query: String,
    pub op: String,
    /// Rule lineage from `best_node` (e.g. `"JMeth[alt 2]"`).
    pub origin: String,
    pub fp: u64,
    pub depth: usize,
    pub est_card: f64,
    /// Estimated total (inclusive) cost in model units. When a
    /// `plan_built` event supplied the once/rescan split, this is
    /// `cost_once + cost_rescan × invocations` — the model charges
    /// `rescan` once per invocation (an NL inner is probed outer-card
    /// times; `starqo_plan::Cost` documents the split), so the estimate
    /// must be expanded to the actual invocation count before it is
    /// comparable with the node's inclusive nanos. Falls back to the
    /// folded `best_node` cost (`once + rescan`) otherwise.
    pub est_cost: f64,
    /// Per-component estimate split, when a `plan_built` event was seen —
    /// scaled proportionally to the invocation-expanded `est_cost`.
    pub breakdown: Option<CostBreakdownEv>,
    pub act_rows: u64,
    pub act_invocations: u64,
    /// Inclusive wall-clock nanos across all invocations.
    pub act_nanos: u64,
    pub card_q: f64,
    /// Q-error of the *scale-normalized* cost estimate vs actual nanos.
    pub cost_q: f64,
}

/// Q-error statistics for one aggregation group (a LOLEPOP, a STAR rule).
#[derive(Debug, Clone, Default)]
pub struct GroupStats {
    pub name: String,
    pub card_q: Vec<f64>,
    pub cost_q: Vec<f64>,
    pub card_hist: Histogram,
    pub cost_hist: Histogram,
}

impl GroupStats {
    pub fn nodes(&self) -> u64 {
        self.card_q.len() as u64
    }

    fn push(&mut self, n: &NodeJoin) {
        self.card_q.push(n.card_q);
        self.cost_q.push(n.cost_q);
        self.card_hist.record(milli(n.card_q));
        self.cost_hist.record(milli(n.cost_q));
    }

    fn seal(&mut self) {
        self.card_q.sort_by(f64::total_cmp);
        self.cost_q.sort_by(f64::total_cmp);
    }
}

/// Per-query roll-up.
#[derive(Debug, Clone, Default)]
pub struct QuerySummary {
    pub name: String,
    /// Nodes of the winning plan that matched an executor actual.
    pub joined: u64,
    /// Final row count reported by `query_done` (or the root actual).
    pub rows: u64,
    /// Optimize+execute wall time from `query_done` (0 if absent).
    pub nanos: u64,
    pub root_card_q: Option<f64>,
    pub root_cost_q: Option<f64>,
    pub card_hist: Histogram,
    pub cost_hist: Histogram,
}

/// The estimate-vs-actual join over a whole trace.
#[derive(Debug, Clone, Default)]
pub struct AccuracyReport {
    /// Every joined node, in stream order.
    pub nodes: Vec<NodeJoin>,
    pub queries: Vec<QuerySummary>,
    pub by_op: Vec<GroupStats>,
    pub by_rule: Vec<GroupStats>,
    /// Workload-wide distributions: the per-query histograms merged.
    pub card_hist: Histogram,
    pub cost_hist: Histogram,
    /// Fitted nanos-per-cost-unit scale (geometric mean over joined nodes).
    pub cost_scale: f64,
    /// Winning-plan nodes with no matching executor actual.
    pub unmatched_est: u64,
    /// Executor actuals with no matching winning-plan node.
    pub unmatched_act: u64,
}

fn milli(q: f64) -> u64 {
    (q * Q_MILLI).round().clamp(0.0, u64::MAX as f64) as u64
}

/// Exact quantile of an ascending-sorted slice (nearest-rank).
fn quantile_of(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One per-query segment accumulated while walking a tree's events.
#[derive(Default)]
struct Seg {
    name: String,
    /// (fp, op, depth, origin, card, cost) in pre-order; fps may repeat for
    /// shared subtrees.
    best: Vec<(u64, String, usize, String, f64, f64)>,
    /// fp → (cost_once, cost_rescan, combined breakdown).
    built: HashMap<u64, (f64, f64, CostBreakdownEv)>,
    exec: HashMap<u64, (String, u64, u64, u64)>,
    done: Option<(u64, u64)>,
}

impl Seg {
    fn is_blank(&self) -> bool {
        self.best.is_empty() && self.exec.is_empty() && self.done.is_none()
    }
}

impl AccuracyReport {
    pub fn from_trees(trees: &[SpanTree]) -> AccuracyReport {
        // Pass 1: one segment per tree (a `query_start` inside a tree
        // opens another).
        let mut segs: Vec<Seg> = Vec::new();
        for tree in trees {
            let mut cur = Seg {
                name: "(run)".to_string(),
                ..Seg::default()
            };
            for ev in tree.events.iter().map(|e| &e.event) {
                match ev {
                    TraceEvent::QueryStart { name } => {
                        if !cur.is_blank() {
                            segs.push(std::mem::take(&mut cur));
                        }
                        cur = Seg {
                            name: name.clone(),
                            ..Seg::default()
                        };
                    }
                    TraceEvent::QueryDone { rows, nanos, .. } => {
                        cur.done = Some((*rows, *nanos));
                    }
                    TraceEvent::BestNode {
                        op,
                        fp,
                        depth,
                        origin,
                        card,
                        cost,
                    } => cur
                        .best
                        .push((*fp, op.clone(), *depth, origin.clone(), *card, *cost)),
                    TraceEvent::PlanBuilt {
                        fp,
                        cost_once,
                        cost_rescan,
                        breakdown,
                        ..
                    } => {
                        cur.built
                            .insert(*fp, (*cost_once, *cost_rescan, *breakdown));
                    }
                    TraceEvent::ExecNode {
                        op,
                        fp,
                        rows_out,
                        invocations,
                        nanos,
                    } if *fp != 0 => {
                        // A segment may execute the same plan several times
                        // (workload runners repeat the traced run to tame timing
                        // noise); keep the fastest observation per node — the
                        // minimum is the standard robust estimator for repeated
                        // timings, and rows/invocations are identical across
                        // runs of the same plan.
                        cur.exec
                            .entry(*fp)
                            .and_modify(|e| {
                                if *nanos < e.3 {
                                    *e = (op.clone(), *rows_out, *invocations, *nanos);
                                }
                            })
                            .or_insert_with(|| (op.clone(), *rows_out, *invocations, *nanos));
                    }
                    _ => {}
                }
            }
            if !cur.is_blank() {
                segs.push(cur);
            }
        }

        // Pass 2: join estimates to actuals per segment.
        let mut report = AccuracyReport {
            cost_scale: 1.0,
            ..AccuracyReport::default()
        };
        // The segment each joined node came from (names may repeat).
        let mut node_query: Vec<usize> = Vec::new();
        for seg in &segs {
            let mut q = QuerySummary {
                name: seg.name.clone(),
                ..QuerySummary::default()
            };
            if let Some((rows, nanos)) = seg.done {
                q.rows = rows;
                q.nanos = nanos;
            }
            let mut seen = HashSet::new();
            for (fp, op, depth, origin, card, cost) in &seg.best {
                if !seen.insert(*fp) {
                    continue; // shared subtree: one actual, count it once
                }
                match seg.exec.get(fp) {
                    Some((_, rows_out, invocations, nanos)) => {
                        // Expand the estimate to the actual invocation
                        // count: the model's convention is `once` charged
                        // once and `rescan` charged per invocation (the
                        // actuals' inclusive nanos cover every probe of a
                        // rescanned inner). The component breakdown scales
                        // proportionally — `plan_built` folds once+rescan
                        // attributions together.
                        let (est_cost, breakdown) = match seg.built.get(fp) {
                            Some((once, rescan, bd)) => {
                                let est = once + rescan * (*invocations).max(1) as f64;
                                let folded = once + rescan;
                                let r = if folded > 0.0 { est / folded } else { 1.0 };
                                let scaled = CostBreakdownEv {
                                    io: bd.io * r,
                                    cpu: bd.cpu * r,
                                    comm: bd.comm * r,
                                    other: bd.other * r,
                                };
                                (est, Some(scaled))
                            }
                            None => (*cost, None),
                        };
                        report.nodes.push(NodeJoin {
                            query: seg.name.clone(),
                            op: op.clone(),
                            origin: origin.clone(),
                            fp: *fp,
                            depth: *depth,
                            est_card: *card,
                            est_cost,
                            breakdown,
                            act_rows: *rows_out,
                            act_invocations: *invocations,
                            act_nanos: *nanos,
                            card_q: q_error(*card, *rows_out as f64),
                            cost_q: 1.0, // filled after the scale fit
                        });
                        node_query.push(report.queries.len());
                        q.joined += 1;
                    }
                    None => report.unmatched_est += 1,
                }
            }
            report.unmatched_act += seg.exec.keys().filter(|fp| !seen.contains(fp)).count() as u64;
            report.queries.push(q);
        }

        // Pass 3: fit the nanos-per-cost-unit scale (geometric mean) and
        // score the scaled cost estimates.
        let logs: Vec<f64> = report
            .nodes
            .iter()
            .filter(|n| n.est_cost > 0.0 && n.act_nanos > 0)
            .map(|n| (n.act_nanos as f64 / n.est_cost).ln())
            .collect();
        if !logs.is_empty() {
            report.cost_scale = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
        }
        for n in &mut report.nodes {
            n.cost_q = q_error_floored(n.est_cost * report.cost_scale, n.act_nanos as f64, 1.0);
        }

        // Pass 4: aggregate per query / per LOLEPOP / per rule, carrying
        // the distributions in histograms (merged per-query → overall).
        let mut by_op: BTreeMap<String, GroupStats> = BTreeMap::new();
        let mut by_rule: BTreeMap<String, GroupStats> = BTreeMap::new();
        for (n, &qi) in report.nodes.iter().zip(&node_query) {
            let q = &mut report.queries[qi];
            q.card_hist.record(milli(n.card_q));
            q.cost_hist.record(milli(n.cost_q));
            if n.depth == 0 {
                q.root_card_q = Some(n.card_q);
                q.root_cost_q = Some(n.cost_q);
                if q.rows == 0 && q.nanos == 0 {
                    q.rows = n.act_rows;
                    q.nanos = n.act_nanos;
                }
            }
            by_op
                .entry(n.op.clone())
                .or_insert_with(|| GroupStats {
                    name: n.op.clone(),
                    ..GroupStats::default()
                })
                .push(n);
            let rule = rule_of(&n.origin);
            by_rule
                .entry(rule.to_string())
                .or_insert_with(|| GroupStats {
                    name: rule.to_string(),
                    ..GroupStats::default()
                })
                .push(n);
        }
        for q in &report.queries {
            report.card_hist.merge(&q.card_hist);
            report.cost_hist.merge(&q.cost_hist);
        }
        report.by_op = by_op.into_values().collect();
        report.by_rule = by_rule.into_values().collect();
        for g in report.by_op.iter_mut().chain(report.by_rule.iter_mut()) {
            g.seal();
        }
        report
    }

    /// Total joined nodes across all queries.
    pub fn joined(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Ascending card Q-errors over all joined nodes.
    fn all_card_q(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.nodes.iter().map(|n| n.card_q).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn all_cost_q(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.nodes.iter().map(|n| n.cost_q).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Exact workload-level `(p50, p90, max)` of the card Q-error.
    pub fn card_quantiles(&self) -> (f64, f64, f64) {
        let v = self.all_card_q();
        (
            quantile_of(&v, 0.5),
            quantile_of(&v, 0.9),
            v.last().copied().unwrap_or(f64::NAN),
        )
    }

    /// Exact workload-level `(p50, p90, max)` of the cost Q-error.
    pub fn cost_quantiles(&self) -> (f64, f64, f64) {
        let v = self.all_cost_q();
        (
            quantile_of(&v, 0.5),
            quantile_of(&v, 0.9),
            v.last().copied().unwrap_or(f64::NAN),
        )
    }

    /// Human-readable tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "estimation accuracy: {} queries, {} nodes joined ({} est-only, {} act-only), cost scale {} ns/unit",
            self.queries.len(),
            self.joined(),
            self.unmatched_est,
            self.unmatched_act,
            fmt_q(self.cost_scale),
        );
        if self.nodes.is_empty() {
            let _ = writeln!(
                out,
                "no joinable nodes (need best_node + exec_node events with shared fingerprints)"
            );
            return out;
        }

        let group_table = |out: &mut String, title: &str, groups: &[GroupStats]| {
            let _ = writeln!(out, "\nper {title}:");
            let _ = writeln!(
                out,
                "  {:<22} {:>6}  {:>9} {:>9} {:>9}  {:>9} {:>9} {:>9}",
                title, "n", "card p50", "card p90", "card max", "cost p50", "cost p90", "cost max"
            );
            for g in groups {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>6}  {:>9} {:>9} {:>9}  {:>9} {:>9} {:>9}",
                    g.name,
                    g.nodes(),
                    fmt_q(quantile_of(&g.card_q, 0.5)),
                    fmt_q(quantile_of(&g.card_q, 0.9)),
                    fmt_q(quantile_of(&g.card_q, 1.0)),
                    fmt_q(quantile_of(&g.cost_q, 0.5)),
                    fmt_q(quantile_of(&g.cost_q, 0.9)),
                    fmt_q(quantile_of(&g.cost_q, 1.0)),
                );
            }
        };
        group_table(&mut out, "LOLEPOP", &self.by_op);
        group_table(&mut out, "STAR rule", &self.by_rule);

        let _ = writeln!(out, "\nper query:");
        let _ = writeln!(
            out,
            "  {:<26} {:>6} {:>8} {:>9}  {:>11} {:>11}",
            "query", "nodes", "rows", "time", "root card-q", "root cost-q"
        );
        for q in &self.queries {
            let _ = writeln!(
                out,
                "  {:<26} {:>6} {:>8} {:>9}  {:>11} {:>11}",
                q.name,
                q.joined,
                q.rows,
                fmt_nanos(q.nanos),
                q.root_card_q.map(fmt_q).unwrap_or_else(|| "-".into()),
                q.root_cost_q.map(fmt_q).unwrap_or_else(|| "-".into()),
            );
        }

        let (cp50, cp90, cmax) = self.card_quantiles();
        let (tp50, tp90, tmax) = self.cost_quantiles();
        let _ = writeln!(
            out,
            "\noverall card q-error: p50 {} p90 {} max {}",
            fmt_q(cp50),
            fmt_q(cp90),
            fmt_q(cmax)
        );
        let _ = writeln!(
            out,
            "overall cost q-error: p50 {} p90 {} max {}",
            fmt_q(tp50),
            fmt_q(tp90),
            fmt_q(tmax)
        );
        out
    }

    /// Machine-readable JSON (one object; histograms in milli-q units).
    pub fn to_json(&self) -> String {
        let (cp50, cp90, cmax) = self.card_quantiles();
        let (tp50, tp90, tmax) = self.cost_quantiles();
        let dist = |p50: f64, p90: f64, max: f64, hist: &Histogram| {
            JsonObj::new()
                .f64("p50", p50)
                .f64("p90", p90)
                .f64("max", max)
                .raw("milli_hist", &hist.to_json())
                .finish()
        };
        let groups = |gs: &[GroupStats]| {
            let items: Vec<String> = gs
                .iter()
                .map(|g| {
                    JsonObj::new()
                        .str("name", &g.name)
                        .u64("nodes", g.nodes())
                        .raw(
                            "card_q",
                            &dist(
                                quantile_of(&g.card_q, 0.5),
                                quantile_of(&g.card_q, 0.9),
                                quantile_of(&g.card_q, 1.0),
                                &g.card_hist,
                            ),
                        )
                        .raw(
                            "cost_q",
                            &dist(
                                quantile_of(&g.cost_q, 0.5),
                                quantile_of(&g.cost_q, 0.9),
                                quantile_of(&g.cost_q, 1.0),
                                &g.cost_hist,
                            ),
                        )
                        .finish()
                })
                .collect();
            format!("[{}]", items.join(","))
        };
        let per_query: Vec<String> = self
            .queries
            .iter()
            .map(|q| {
                let mut o = JsonObj::new()
                    .str("name", &q.name)
                    .u64("joined", q.joined)
                    .u64("rows", q.rows)
                    .u64("nanos", q.nanos);
                if let Some(v) = q.root_card_q {
                    o = o.f64("root_card_q", v);
                }
                if let Some(v) = q.root_cost_q {
                    o = o.f64("root_cost_q", v);
                }
                o.finish()
            })
            .collect();
        JsonObj::new()
            .u64("queries", self.queries.len() as u64)
            .u64("joined", self.joined())
            .u64("unmatched_est", self.unmatched_est)
            .u64("unmatched_act", self.unmatched_act)
            .f64("cost_scale_ns_per_unit", self.cost_scale)
            .raw("card_q", &dist(cp50, cp90, cmax, &self.card_hist))
            .raw("cost_q", &dist(tp50, tp90, tmax, &self.cost_hist))
            .raw("by_op", &groups(&self.by_op))
            .raw("by_rule", &groups(&self.by_rule))
            .raw("per_query", &format!("[{}]", per_query.join(",")))
            .finish()
    }
}

/// The STAR name from a lineage string: `"JMeth[alt 2]"` → `"JMeth"`.
fn rule_of(origin: &str) -> &str {
    origin.split('[').next().unwrap_or(origin).trim()
}

/// Compact Q-error formatting: more digits where they matter.
fn fmt_q(q: f64) -> String {
    if !q.is_finite() {
        "-".to_string()
    } else if q >= 1000.0 {
        format!("{q:.0}")
    } else if q >= 10.0 {
        format!("{q:.1}")
    } else {
        format!("{q:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tree_of;

    #[test]
    fn q_error_edge_cases() {
        // Perfect estimates score 1.
        assert_eq!(q_error(5.0, 5.0), 1.0);
        // Symmetric: 4x under and 4x over are the same error.
        assert_eq!(q_error(2.0, 8.0), 4.0);
        assert_eq!(q_error(8.0, 2.0), 4.0);
        // est=0, act=0: both floor to half a row → perfect.
        assert_eq!(q_error(0.0, 0.0), 1.0);
        // est=0 against 10 actual rows: 0.5 vs 10 → 20.
        assert_eq!(q_error(0.0, 10.0), 20.0);
        assert_eq!(q_error(10.0, 0.0), 20.0);
        // Sub-row estimates also floor (0.25 behaves like 0.5).
        assert_eq!(q_error(0.25, 1.0), 2.0);
        // Non-finite garbage clamps instead of poisoning the report.
        assert_eq!(q_error(f64::NAN, 0.0), 1.0);
        assert_eq!(q_error(f64::INFINITY, 0.5), 1.0);
    }

    #[test]
    fn exact_quantiles_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_of(&v, 0.5), 2.0);
        assert_eq!(quantile_of(&v, 0.9), 4.0);
        assert_eq!(quantile_of(&v, 1.0), 4.0);
        assert_eq!(quantile_of(&v, 0.0), 1.0);
        assert!(quantile_of(&[], 0.5).is_nan());
    }

    fn best(fp: u64, op: &str, depth: usize, origin: &str, card: f64, cost: f64) -> TraceEvent {
        TraceEvent::BestNode {
            op: op.into(),
            fp,
            depth,
            origin: origin.into(),
            card,
            cost,
        }
    }

    fn exec(fp: u64, op: &str, rows: u64, nanos: u64) -> TraceEvent {
        TraceEvent::ExecNode {
            op: op.into(),
            fp,
            rows_out: rows,
            invocations: 1,
            nanos,
        }
    }

    /// Two queries, one tree each, with hand-computable joins: scale is
    /// exactly 100 ns/unit for every node, so all cost Q-errors are 1; card
    /// Q-errors are 2 at the roots and 1 at the leaves.
    fn two_query_stream() -> Vec<SpanTree> {
        let q1 = vec![
            TraceEvent::QueryStart { name: "q1".into() },
            best(1, "JOIN(NL)", 0, "JMeth[alt 1]", 100.0, 50.0),
            best(2, "ACCESS(heap)", 1, "TblAccess[alt 1]", 10.0, 10.0),
            best(3, "SORT", 1, "Sort[alt 1]", 5.0, 5.0), // no actual → est-only
            exec(1, "JOIN(NL)", 50, 5_000),
            exec(2, "ACCESS(heap)", 10, 1_000),
            exec(99, "FILTER", 1, 10), // no estimate → act-only
            TraceEvent::QueryDone {
                name: "q1".into(),
                rows: 50,
                nanos: 6_000,
            },
        ];
        let q2 = vec![
            TraceEvent::QueryStart { name: "q2".into() },
            best(1, "JOIN(MG)", 0, "JMeth[alt 3]", 40.0, 20.0),
            exec(1, "JOIN(MG)", 20, 2_000),
            TraceEvent::QueryDone {
                name: "q2".into(),
                rows: 20,
                nanos: 2_500,
            },
        ];
        vec![tree_of(q1), tree_of(q2)]
    }

    #[test]
    fn joins_estimates_to_actuals_per_query() {
        let r = AccuracyReport::from_trees(&two_query_stream());
        assert_eq!(r.queries.len(), 2);
        assert_eq!(r.joined(), 3);
        assert_eq!(r.unmatched_est, 1); // the SORT node
        assert_eq!(r.unmatched_act, 1); // the stray FILTER actual
                                        // Same fingerprint in different queries joins per segment, not
                                        // globally: q2's fp=1 matched q2's actual.
        assert_eq!(r.queries[1].joined, 1);
        // Scale: every node has nanos = 100 × cost → geomean exactly 100.
        assert!((r.cost_scale - 100.0).abs() < 1e-9, "{}", r.cost_scale);
        // Roots estimated 2x over: card q-error 2; leaves exact.
        assert_eq!(r.queries[0].root_card_q, Some(2.0));
        assert_eq!(r.queries[1].root_card_q, Some(2.0));
        let (p50, p90, max) = r.card_quantiles();
        assert_eq!((p50, p90, max), (2.0, 2.0, 2.0));
        // Perfectly proportional costs → all cost q-errors are 1.
        let (c50, c90, cmax) = r.cost_quantiles();
        assert!((c50 - 1.0).abs() < 1e-9);
        assert!((c90 - 1.0).abs() < 1e-9);
        assert!((cmax - 1.0).abs() < 1e-9);
        // query_done rows/time captured.
        assert_eq!(r.queries[0].rows, 50);
        assert_eq!(r.queries[0].nanos, 6_000);
    }

    #[test]
    fn aggregates_by_op_and_rule_with_merged_hists() {
        let r = AccuracyReport::from_trees(&two_query_stream());
        let ops: Vec<&str> = r.by_op.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(ops, ["ACCESS(heap)", "JOIN(MG)", "JOIN(NL)"]);
        let rules: Vec<&str> = r.by_rule.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(rules, ["JMeth", "TblAccess"]);
        let jmeth = &r.by_rule[0];
        assert_eq!(jmeth.nodes(), 2);
        assert_eq!(quantile_of(&jmeth.card_q, 1.0), 2.0);
        // The overall histogram is the merge of the per-query ones: 3
        // observations, all in the q∈{1,2} milli-buckets.
        assert_eq!(r.card_hist.count(), 3);
        assert_eq!(
            r.card_hist.count(),
            r.queries.iter().map(|q| q.card_hist.count()).sum::<u64>()
        );
        assert_eq!(r.card_hist.min(), Some(1000)); // q=1.0 → 1000
        assert_eq!(r.card_hist.max(), Some(2000)); // q=2.0 → 2000
    }

    #[test]
    fn unsegmented_stream_is_one_run() {
        let evs = vec![
            best(7, "ACCESS(heap)", 0, "TblAccess[alt 1]", 30.0, 3.0),
            exec(7, "ACCESS(heap)", 30, 300),
        ];
        let r = AccuracyReport::from_trees(&[tree_of(evs)]);
        assert_eq!(r.queries.len(), 1);
        assert_eq!(r.queries[0].name, "(run)");
        assert_eq!(r.joined(), 1);
        // Root actuals back-fill rows/time when no query_done was seen.
        assert_eq!(r.queries[0].rows, 30);
        assert_eq!(r.queries[0].nanos, 300);
    }

    #[test]
    fn shared_subtrees_count_once_and_fp_zero_is_unjoinable() {
        let evs = vec![
            best(5, "JOIN(NL)", 0, "JMeth[alt 1]", 10.0, 10.0),
            best(6, "STORE", 1, "Glue", 10.0, 5.0),
            best(6, "STORE", 2, "Glue", 10.0, 5.0), // shared subtree revisit
            exec(5, "JOIN(NL)", 10, 1_000),
            exec(6, "STORE", 10, 500),
            // Legacy exec_node without a fingerprint: never joins.
            exec(0, "SORT", 1, 1),
        ];
        let r = AccuracyReport::from_trees(&[tree_of(evs)]);
        assert_eq!(r.joined(), 2);
        assert_eq!(r.unmatched_est, 0);
        assert_eq!(r.unmatched_act, 0); // fp=0 ignored, not "act-only"
    }

    #[test]
    fn rescanned_inner_estimate_expands_to_invocations() {
        // An NL inner probed 40 times: the model split its cost as
        // once=2, rescan=1.5, so the invocation-expanded estimate is
        // 2 + 1.5×40 = 62 — not the folded best_node cost of 3.5.
        let evs = vec![
            TraceEvent::PlanBuilt {
                op: "ACCESS(btree)".into(),
                fp: 11,
                ref_id: 0,
                card: 1.0,
                cost_once: 2.0,
                cost_rescan: 1.5,
                breakdown: CostBreakdownEv {
                    io: 3.0,
                    cpu: 0.5,
                    comm: 0.0,
                    other: 0.0,
                },
            },
            best(11, "ACCESS(btree)", 1, "IdxAccess[alt 1]", 1.0, 3.5),
            TraceEvent::ExecNode {
                op: "ACCESS(btree)".into(),
                fp: 11,
                rows_out: 40,
                invocations: 40,
                nanos: 62_000,
            },
        ];
        let r = AccuracyReport::from_trees(&[tree_of(evs)]);
        assert_eq!(r.joined(), 1);
        let n = &r.nodes[0];
        assert!((n.est_cost - 62.0).abs() < 1e-9, "{}", n.est_cost);
        // Breakdown scaled by the same 62/3.5 factor, preserving the mix.
        let bd = n.breakdown.unwrap();
        assert!((bd.io - 3.0 * 62.0 / 3.5).abs() < 1e-9, "{}", bd.io);
        assert!((bd.cpu - 0.5 * 62.0 / 3.5).abs() < 1e-9, "{}", bd.cpu);
        // One node → the geomean scale matches it exactly → cost q = 1.
        assert!((r.cost_scale - 1000.0).abs() < 1e-9, "{}", r.cost_scale);
        assert!((n.cost_q - 1.0).abs() < 1e-9, "{}", n.cost_q);
    }

    #[test]
    fn repeated_executions_keep_the_fastest_observation() {
        // Workload runners execute each plan several times in one segment;
        // the join must keep the minimum nanos regardless of event order.
        let evs = vec![
            best(7, "ACCESS(heap)", 0, "TableAccess[alt 0]", 10.0, 5.0),
            exec(7, "ACCESS(heap)", 10, 900),
            exec(7, "ACCESS(heap)", 10, 400),
            exec(7, "ACCESS(heap)", 10, 650),
        ];
        let r = AccuracyReport::from_trees(&[tree_of(evs)]);
        assert_eq!(r.joined(), 1);
        assert_eq!(r.nodes[0].act_nanos, 400);
    }

    #[test]
    fn render_and_json_have_the_advertised_shape() {
        let r = AccuracyReport::from_trees(&two_query_stream());
        let text = r.render();
        assert!(text.contains("per LOLEPOP:"), "{text}");
        assert!(text.contains("per STAR rule:"), "{text}");
        assert!(text.contains("per query:"), "{text}");
        assert!(text.contains("overall card q-error"), "{text}");
        let json = r.to_json();
        let v = starqo_trace::parse_json(&json).unwrap();
        assert_eq!(v.get("joined").unwrap().as_u64(), Some(3));
        assert!(v.get("by_op").is_some());
        assert!(v.get("by_rule").is_some());
        assert!(v.get("per_query").is_some());
        assert!(v
            .get("card_q")
            .unwrap()
            .get("milli_hist")
            .unwrap()
            .get("count")
            .is_some());
    }
}

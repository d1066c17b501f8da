//! Trace diff: what changed between two optimizer runs.
//!
//! Compares rule behavior (per-alternative fire counts, condition
//! failures), plan-table content (the sets of inserted fingerprints), and
//! the outcome (best-plan cost and lineage). The typical use: run the same
//! query with and without a strategy family enabled and see exactly which
//! alternatives appeared, which conditions started failing, and what it
//! cost.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use starqo_trace::{SpanTree, TraceEvent};

use crate::profile::Profile;

/// A keyed count that differs between the two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    pub key: String,
    pub a: u64,
    pub b: u64,
}

impl Delta {
    fn signed(&self) -> i128 {
        self.b as i128 - self.a as i128
    }
}

/// The full comparison of two traces.
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    /// Per `Star[alt k]` fire-count changes.
    pub fire_deltas: Vec<Delta>,
    /// Per `Star: cond` condition-failure changes.
    pub cond_deltas: Vec<Delta>,
    /// Fingerprints inserted into the plan table in exactly one run.
    pub only_in_a: usize,
    pub only_in_b: usize,
    pub inserts_a: usize,
    pub inserts_b: usize,
    /// Best-plan root cost per run (None if the trace has no `best_node`).
    pub best_cost_a: Option<f64>,
    pub best_cost_b: Option<f64>,
    /// Rendered `op <= origin` lineage lines per run.
    pub lineage_a: Vec<String>,
    pub lineage_b: Vec<String>,
}

impl TraceDiff {
    /// Compare two runs' span trees ("a" = baseline, "b" = candidate).
    pub fn compare(a: &[SpanTree], b: &[SpanTree]) -> TraceDiff {
        let pa = Profile::from_trees(a);
        let pb = Profile::from_trees(b);

        let mut fires_a: BTreeMap<String, u64> = BTreeMap::new();
        let mut fires_b: BTreeMap<String, u64> = BTreeMap::new();
        let mut conds_a: BTreeMap<String, u64> = BTreeMap::new();
        let mut conds_b: BTreeMap<String, u64> = BTreeMap::new();
        for (profile, fires, conds) in [
            (&pa, &mut fires_a, &mut conds_a),
            (&pb, &mut fires_b, &mut conds_b),
        ] {
            for s in &profile.stars {
                for (alt, n) in &s.alt_fires {
                    fires.insert(format!("{}[alt {}]", s.name, alt), *n);
                }
                for (cond, n) in &s.cond_failures {
                    conds.insert(format!("{}: {}", s.name, cond), *n);
                }
            }
        }

        let fp_set = |trees: &[SpanTree]| -> BTreeSet<u64> {
            trees
                .iter()
                .flat_map(|t| &t.events)
                .filter_map(|e| match e.event {
                    TraceEvent::TableInsert { fp, .. } => Some(fp),
                    _ => None,
                })
                .collect()
        };
        let fps_a = fp_set(a);
        let fps_b = fp_set(b);

        let lineage = |p: &Profile| -> Vec<String> {
            p.lineage
                .iter()
                .map(|r| format!("{} <= {}", r.op, r.origin))
                .collect()
        };

        TraceDiff {
            fire_deltas: deltas(&fires_a, &fires_b),
            cond_deltas: deltas(&conds_a, &conds_b),
            only_in_a: fps_a.difference(&fps_b).count(),
            only_in_b: fps_b.difference(&fps_a).count(),
            inserts_a: fps_a.len(),
            inserts_b: fps_b.len(),
            best_cost_a: pa.lineage.first().map(|r| r.cost),
            best_cost_b: pb.lineage.first().map(|r| r.cost),
            lineage_a: lineage(&pa),
            lineage_b: lineage(&pb),
        }
    }

    /// Any difference at all?
    pub fn is_empty(&self) -> bool {
        self.fire_deltas.is_empty()
            && self.cond_deltas.is_empty()
            && self.only_in_a == 0
            && self.only_in_b == 0
            && self.best_cost_a == self.best_cost_b
            && self.lineage_a == self.lineage_b
    }

    /// Human rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            let _ = writeln!(out, "traces are behaviorally identical");
            return out;
        }
        if !self.fire_deltas.is_empty() {
            let _ = writeln!(out, "rule firings (a -> b):");
            for d in &self.fire_deltas {
                let _ = writeln!(
                    out,
                    "  {:<36} {:>6} -> {:<6} ({:+})",
                    d.key,
                    d.a,
                    d.b,
                    d.signed()
                );
            }
        }
        if !self.cond_deltas.is_empty() {
            let _ = writeln!(out, "condition failures (a -> b):");
            for d in &self.cond_deltas {
                let _ = writeln!(
                    out,
                    "  {:<36} {:>6} -> {:<6} ({:+})",
                    d.key,
                    d.a,
                    d.b,
                    d.signed()
                );
            }
        }
        let _ = writeln!(
            out,
            "plan table: {} inserts vs {}; {} fingerprints only in a, {} only in b",
            self.inserts_a, self.inserts_b, self.only_in_a, self.only_in_b
        );
        match (self.best_cost_a, self.best_cost_b) {
            (Some(ca), Some(cb)) => {
                let _ = write!(out, "best plan cost: {ca:.1} -> {cb:.1}");
                if ca > 0.0 {
                    let _ = write!(out, " ({:+.1}%)", (cb - ca) * 100.0 / ca);
                }
                let _ = writeln!(out);
            }
            _ => {
                let _ = writeln!(out, "best plan lineage missing from at least one trace");
            }
        }
        if self.lineage_a != self.lineage_b {
            let _ = writeln!(out, "winning lineage diverged:");
            let _ = writeln!(out, "  a:");
            for l in &self.lineage_a {
                let _ = writeln!(out, "    {l}");
            }
            let _ = writeln!(out, "  b:");
            for l in &self.lineage_b {
                let _ = writeln!(out, "    {l}");
            }
        } else {
            let _ = writeln!(out, "winning lineage unchanged");
        }
        out
    }
}

/// Keys whose counts differ (missing = 0), sorted by |delta| descending.
fn deltas(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Vec<Delta> {
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut out: Vec<Delta> = keys
        .into_iter()
        .filter_map(|k| {
            let (va, vb) = (
                a.get(k).copied().unwrap_or(0),
                b.get(k).copied().unwrap_or(0),
            );
            (va != vb).then(|| Delta {
                key: k.clone(),
                a: va,
                b: vb,
            })
        })
        .collect();
    out.sort_by(|x, y| {
        y.signed()
            .abs()
            .cmp(&x.signed().abs())
            .then_with(|| x.key.cmp(&y.key))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trace_one_star;

    #[test]
    fn identical_traces_diff_empty() {
        let t = trace_one_star();
        let d = TraceDiff::compare(&t, &t);
        assert!(d.is_empty(), "{d:?}");
        assert!(d.render().contains("identical"));
    }

    #[test]
    fn disabled_alternative_shows_as_fire_delta() {
        let a = trace_one_star();
        // Run "b": alt 2 no longer fires (say its feature got disabled);
        // instead its condition fails and nothing is built.
        let mut b = a.clone();
        b[0].events.retain(|e| {
            !matches!(
                e.event,
                TraceEvent::AltFired { .. }
                    | TraceEvent::PlanBuilt { .. }
                    | TraceEvent::TableInsert { .. }
                    | TraceEvent::TablePrune { .. }
                    | TraceEvent::BestNode { .. }
            )
        });
        let d = TraceDiff::compare(&a, &b);
        assert_eq!(d.fire_deltas.len(), 1);
        assert_eq!(d.fire_deltas[0].key, "JMeth[alt 2]");
        assert_eq!((d.fire_deltas[0].a, d.fire_deltas[0].b), (1, 0));
        assert_eq!(d.only_in_a, 1, "fp 100 inserted only in a");
        assert_eq!(d.only_in_b, 0);
        assert_eq!(d.best_cost_a, Some(43.0));
        assert_eq!(d.best_cost_b, None);
        let text = d.render();
        assert!(text.contains("JMeth[alt 2]"), "{text}");
        assert!(text.contains("(-1)"), "{text}");
    }

    #[test]
    fn cost_regression_is_reported_in_percent() {
        let a = trace_one_star();
        let mut b = trace_one_star();
        for ev in &mut b[0].events {
            if let TraceEvent::BestNode { cost, depth: 0, .. } = &mut ev.event {
                *cost = 86.0;
            }
        }
        let d = TraceDiff::compare(&a, &b);
        assert_eq!(d.best_cost_b, Some(86.0));
        let text = d.render();
        assert!(text.contains("43.0 -> 86.0"), "{text}");
        assert!(text.contains("+100.0%"), "{text}");
    }
}

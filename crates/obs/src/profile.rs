//! Per-STAR attribution profile: what every rule did during a traced run.
//!
//! A fold over span trees: each `star:<Name>` span adds its duration to
//! the rule's inclusive time, and one pass over the trees' events (in
//! order) does the rest. The joins:
//! - `star_ref.id` → STAR name maps every `ref_id`-carrying event (alt
//!   firings, condition failures, plan construction) to the rule it
//!   happened under;
//! - `plan_built.fp` → the building STAR maps plan-table churn
//!   (`table_insert` / `table_prune` / `table_dominated`, keyed by
//!   fingerprint) back to the rule that offered the plan;
//! - `best_node` events (pre-order, emitted post-optimization) give the
//!   winning plan's lineage directly.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

use starqo_trace::{SpanTree, TraceEvent};

use crate::fmt::fmt_nanos;

/// Everything attributed to one STAR across a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StarProfile {
    pub name: String,
    /// References (memo hits + expansions).
    pub refs: u64,
    pub memo_hits: u64,
    /// Fire count per alternative (1-based, as emitted).
    pub alt_fires: BTreeMap<usize, u64>,
    /// Plans returned by fired alternatives (pre-dedup).
    pub plans_from_alts: u64,
    /// Condition-of-applicability failures, keyed by rendered condition.
    pub cond_failures: BTreeMap<String, u64>,
    /// Plan nodes built / rejected while this STAR's alternatives ran.
    pub plans_built: u64,
    pub plans_rejected: u64,
    /// Plan-table outcomes for plans this STAR built.
    pub table_inserted: u64,
    pub table_pruned: u64,
    /// Entries this STAR built that a later dominator evicted.
    pub table_evicted: u64,
    /// Inclusive wall-clock nanos across all non-memoized expansions.
    pub inclusive_nanos: u64,
    /// Nodes of the winning plan attributed to this STAR.
    pub best_nodes: u64,
}

impl StarProfile {
    pub fn fires(&self) -> u64 {
        self.alt_fires.values().sum()
    }

    pub fn cond_failed(&self) -> u64 {
        self.cond_failures.values().sum()
    }
}

/// One node of the winning plan, as traced.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageRow {
    pub op: String,
    pub depth: usize,
    pub origin: String,
    pub card: f64,
    pub cost: f64,
}

/// One `rule_quarantined` event: an alternative the engine disabled after a
/// panic or error, attributed to the query running at the time (when the
/// trace carries `query_start` markers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRow {
    pub star: String,
    pub alt: usize,
    pub cond: String,
    pub reason: String,
    pub query: Option<String>,
}

/// One `budget_exhausted` event, attributed like [`QuarantineRow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedRow {
    pub resource: String,
    pub detail: String,
    pub query: Option<String>,
}

/// Plan-cache activity from a serving-layer trace: the `cache_*` events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCacheStats {
    /// `cache_hit` events (true hits and coalesced in-flight shares).
    pub hits: u64,
    /// `cache_miss` events (cold optimizations).
    pub misses: u64,
    pub evicts: u64,
    pub invalidates: u64,
    /// Cold-optimization time warm serves avoided, summed.
    pub saved_nanos: u64,
}

impl ServeCacheStats {
    /// Whether the trace carried any serving-layer activity at all.
    pub fn any(&self) -> bool {
        self.hits + self.misses + self.evicts + self.invalidates > 0
    }

    /// Warm serves over all serves that produced a plan.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Self-healing activity from a serving-layer trace: the `plan_reopt` /
/// `plan_swap` / `plan_pinned` event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeHealStats {
    /// `plan_reopt` events (re-optimization attempts started).
    pub reopts: u64,
    /// Candidates that passed the stability guard and replaced the
    /// incumbent.
    pub swaps: u64,
    /// Attempts resolved by keeping the incumbent, keyed by typed reason.
    pub pin_reasons: BTreeMap<String, u64>,
    /// Probation work units, summed across swaps: how much the incumbents
    /// cost against what the winning candidates cost.
    pub incumbent_work: u64,
    pub candidate_work: u64,
}

impl ServeHealStats {
    pub fn pins(&self) -> u64 {
        self.pin_reasons.values().sum()
    }

    /// Whether the trace carried any healing activity at all.
    pub fn any(&self) -> bool {
        self.reopts + self.swaps + self.pins() > 0
    }
}

/// The whole-run profile: per-STAR rows plus the winning-plan lineage.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub stars: Vec<StarProfile>,
    pub lineage: Vec<LineageRow>,
    pub events: usize,
    /// Plans built outside any STAR reference (ref_id 0: driver/Glue).
    pub driver_plans_built: u64,
    /// Rule alternatives disabled mid-run after a panic or error.
    pub quarantines: Vec<QuarantineRow>,
    /// Budget exhaustions (queries that degraded to greedy exploration).
    pub degraded: Vec<DegradedRow>,
    /// Serving-layer plan-cache activity (empty unless the trace came from
    /// a `starqo-serve` service).
    pub serve: ServeCacheStats,
    /// Self-healing activity (empty unless the service healed something).
    pub heal: ServeHealStats,
}

impl Profile {
    /// Aggregate span trees. Events with `ref_id` 0 (driver or Glue work
    /// outside any STAR) accumulate under `driver_plans_built`.
    pub fn from_trees(trees: &[SpanTree]) -> Profile {
        let mut by_name: BTreeMap<String, StarProfile> = BTreeMap::new();
        // ref id → STAR name, populated as star_ref events stream past
        // (references always precede the events they enclose).
        let mut ref_star: HashMap<u64, String> = HashMap::new();
        // fingerprint → building STAR name (first builder wins, matching
        // the engine's provenance rule).
        let mut fp_star: HashMap<u64, String> = HashMap::new();
        let mut lineage = Vec::new();
        let mut driver_plans_built = 0u64;
        let mut quarantines = Vec::new();
        let mut degraded = Vec::new();
        let mut serve = ServeCacheStats::default();
        let mut heal = ServeHealStats::default();
        let mut events = 0;

        let star_of = |by_name: &mut BTreeMap<String, StarProfile>, name: &str| {
            by_name
                .entry(name.to_string())
                .or_insert_with(|| StarProfile {
                    name: name.to_string(),
                    ..StarProfile::default()
                });
        };

        for tree in trees {
            // The query this tree records, when the runner named it
            // (workload runs do; a service's requests don't).
            let mut cur_query: Option<String> = None;
            for span in &tree.spans {
                if let Some(star) = span.name.strip_prefix("star:") {
                    star_of(&mut by_name, star);
                    by_name.get_mut(star).unwrap().inclusive_nanos +=
                        span.end_nanos.saturating_sub(span.start_nanos);
                }
            }
            events += tree.events.len();
            for ev in tree.events.iter().map(|e| &e.event) {
                match ev {
                    TraceEvent::StarRef {
                        star, id, memo_hit, ..
                    } => {
                        star_of(&mut by_name, star);
                        let p = by_name.get_mut(star).unwrap();
                        p.refs += 1;
                        if *memo_hit {
                            p.memo_hits += 1;
                        }
                        ref_star.insert(*id, star.clone());
                    }
                    TraceEvent::AltFired {
                        star, alt, plans, ..
                    } => {
                        star_of(&mut by_name, star);
                        let p = by_name.get_mut(star).unwrap();
                        *p.alt_fires.entry(*alt).or_insert(0) += 1;
                        p.plans_from_alts += *plans as u64;
                    }
                    TraceEvent::CondFailed { star, cond, .. } => {
                        star_of(&mut by_name, star);
                        *by_name
                            .get_mut(star)
                            .unwrap()
                            .cond_failures
                            .entry(cond.clone())
                            .or_insert(0) += 1;
                    }
                    TraceEvent::PlanBuilt { fp, ref_id, .. } => {
                        match ref_star.get(ref_id) {
                            Some(star) => {
                                let star = star.clone();
                                star_of(&mut by_name, &star);
                                by_name.get_mut(&star).unwrap().plans_built += 1;
                                fp_star.entry(*fp).or_insert(star);
                            }
                            None => driver_plans_built += 1,
                        };
                    }
                    TraceEvent::PlanRejected { ref_id, .. } => {
                        if let Some(star) = ref_star.get(ref_id) {
                            let star = star.clone();
                            star_of(&mut by_name, &star);
                            by_name.get_mut(&star).unwrap().plans_rejected += 1;
                        }
                    }
                    TraceEvent::TableInsert { fp, .. } => {
                        if let Some(star) = fp_star.get(fp) {
                            if let Some(p) = by_name.get_mut(star) {
                                p.table_inserted += 1;
                            }
                        }
                    }
                    TraceEvent::TablePrune { fp, .. } => {
                        if let Some(star) = fp_star.get(fp) {
                            if let Some(p) = by_name.get_mut(star) {
                                p.table_pruned += 1;
                            }
                        }
                    }
                    TraceEvent::TableDominated { fp, .. } => {
                        if let Some(star) = fp_star.get(fp) {
                            if let Some(p) = by_name.get_mut(star) {
                                p.table_evicted += 1;
                            }
                        }
                    }
                    TraceEvent::BestNode {
                        op,
                        depth,
                        origin,
                        card,
                        cost,
                        ..
                    } => {
                        lineage.push(LineageRow {
                            op: op.clone(),
                            depth: *depth,
                            origin: origin.clone(),
                            card: *card,
                            cost: *cost,
                        });
                        if let Some(star) = origin.split('[').next().filter(|s| !s.is_empty()) {
                            if let Some(p) = by_name.get_mut(star) {
                                p.best_nodes += 1;
                            }
                        }
                    }
                    TraceEvent::QueryStart { name } => {
                        cur_query = Some(name.clone());
                    }
                    TraceEvent::RuleQuarantined {
                        star,
                        alt,
                        cond,
                        reason,
                        ..
                    } => {
                        quarantines.push(QuarantineRow {
                            star: star.clone(),
                            alt: *alt,
                            cond: cond.clone(),
                            reason: reason.clone(),
                            query: cur_query.clone(),
                        });
                    }
                    TraceEvent::BudgetExhausted { resource, detail } => {
                        degraded.push(DegradedRow {
                            resource: resource.clone(),
                            detail: detail.clone(),
                            query: cur_query.clone(),
                        });
                    }
                    TraceEvent::CacheHit { saved_nanos, .. } => {
                        serve.hits += 1;
                        serve.saved_nanos += saved_nanos;
                    }
                    TraceEvent::CacheMiss { .. } => serve.misses += 1,
                    TraceEvent::CacheEvict { .. } => serve.evicts += 1,
                    TraceEvent::CacheInvalidate { .. } => serve.invalidates += 1,
                    TraceEvent::PlanReopt { .. } => heal.reopts += 1,
                    TraceEvent::PlanSwap {
                        incumbent_work,
                        candidate_work,
                        ..
                    } => {
                        heal.swaps += 1;
                        heal.incumbent_work += incumbent_work;
                        heal.candidate_work += candidate_work;
                    }
                    TraceEvent::PlanPinned { reason, .. } => {
                        *heal.pin_reasons.entry(reason.clone()).or_insert(0) += 1;
                    }
                    _ => {}
                }
            }
        }

        let mut stars: Vec<StarProfile> = by_name.into_values().collect();
        stars.sort_by(|a, b| {
            b.inclusive_nanos
                .cmp(&a.inclusive_nanos)
                .then_with(|| b.refs.cmp(&a.refs))
                .then_with(|| a.name.cmp(&b.name))
        });
        Profile {
            stars,
            lineage,
            events,
            driver_plans_built,
            quarantines,
            degraded,
            serve,
            heal,
        }
    }

    pub fn star(&self, name: &str) -> Option<&StarProfile> {
        self.stars.iter().find(|s| s.name == name)
    }

    /// Human rendering: the per-rule table, the top failing conditions,
    /// and the winning plan's lineage.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "rule profile ({} events)", self.events);
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>6} {:>6} {:>7} {:>7} {:>5} {:>5} {:>7} {:>6} {:>10}",
            "star",
            "refs",
            "memo",
            "fires",
            "failed",
            "built",
            "rej",
            "ins",
            "pruned",
            "best",
            "incl"
        );
        for s in &self.stars {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>6} {:>6} {:>7} {:>7} {:>5} {:>5} {:>7} {:>6} {:>10}",
                s.name,
                s.refs,
                s.memo_hits,
                s.fires(),
                s.cond_failed(),
                s.plans_built,
                s.plans_rejected,
                s.table_inserted,
                s.table_pruned,
                s.best_nodes,
                fmt_nanos(s.inclusive_nanos),
            );
        }
        if self.driver_plans_built > 0 {
            let _ = writeln!(
                out,
                "(driver/glue)    plans built outside rules: {}",
                self.driver_plans_built
            );
        }

        let mut failing: Vec<(&str, &String, u64)> = self
            .stars
            .iter()
            .flat_map(|s| {
                s.cond_failures
                    .iter()
                    .map(move |(c, n)| (s.name.as_str(), c, *n))
            })
            .collect();
        if !failing.is_empty() {
            failing.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
            let _ = writeln!(out, "\ntop failing conditions:");
            for (star, cond, n) in failing.iter().take(10) {
                let _ = writeln!(out, "  {n:>6}x  {star}: {cond}");
            }
        }

        if !self.quarantines.is_empty() || !self.degraded.is_empty() {
            let _ = writeln!(out, "\nquarantined rules / degraded queries:");
            for q in &self.quarantines {
                let _ = writeln!(
                    out,
                    "  quarantined {}[alt {}] (cond: {}){}: {}",
                    q.star,
                    q.alt,
                    q.cond,
                    q.query
                        .as_deref()
                        .map(|n| format!(" during {n}"))
                        .unwrap_or_default(),
                    q.reason,
                );
            }
            for d in &self.degraded {
                let _ = writeln!(
                    out,
                    "  degraded{}: budget exhausted ({}: {})",
                    d.query
                        .as_deref()
                        .map(|n| format!(" {n}"))
                        .unwrap_or_default(),
                    d.resource,
                    d.detail,
                );
            }
        }

        if self.serve.any() {
            let _ = writeln!(out, "\nserve cache:");
            let _ = writeln!(
                out,
                "  hits {} (incl. coalesced)  misses {}  evicts {}  invalidates {}",
                self.serve.hits, self.serve.misses, self.serve.evicts, self.serve.invalidates,
            );
            let _ = writeln!(
                out,
                "  hit ratio {:.3}  cold time avoided {}",
                self.serve.hit_ratio(),
                fmt_nanos(self.serve.saved_nanos),
            );
        }

        if self.heal.any() {
            let _ = writeln!(out, "\nserve heal:");
            let _ = writeln!(
                out,
                "  reopt attempts {}  swaps {}  pins {}",
                self.heal.reopts,
                self.heal.swaps,
                self.heal.pins(),
            );
            if self.heal.swaps > 0 {
                let _ = writeln!(
                    out,
                    "  probation work: incumbent {}  candidate {}",
                    self.heal.incumbent_work, self.heal.candidate_work,
                );
            }
            if !self.heal.pin_reasons.is_empty() {
                let rendered: Vec<String> = self
                    .heal
                    .pin_reasons
                    .iter()
                    .map(|(r, n)| format!("{r}={n}"))
                    .collect();
                let _ = writeln!(out, "  pin reasons: {}", rendered.join("  "));
            }
        }

        if !self.lineage.is_empty() {
            let _ = writeln!(out, "\nwinning plan lineage:");
            for row in &self.lineage {
                let _ = writeln!(
                    out,
                    "  {}{}  <= {}  [card={:.1} cost={:.1}]",
                    "  ".repeat(row.depth),
                    row.op,
                    row.origin,
                    row.card,
                    row.cost,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{trace_one_star, tree_of};

    #[test]
    fn attributes_fires_failures_and_table_churn() {
        let events = trace_one_star();
        let p = Profile::from_trees(&events);
        let s = p.star("JMeth").expect("JMeth profiled");
        assert_eq!(s.refs, 2);
        assert_eq!(s.memo_hits, 1);
        assert_eq!(s.fires(), 1);
        assert_eq!(s.alt_fires.get(&2), Some(&1));
        assert_eq!(s.cond_failed(), 1);
        assert_eq!(s.cond_failures.get("enabled('hashjoin')").copied(), Some(1));
        assert_eq!(s.plans_built, 2);
        assert_eq!(s.plans_rejected, 1);
        assert_eq!(s.table_inserted, 1);
        assert_eq!(s.table_pruned, 1);
        assert_eq!(s.inclusive_nanos, 1_500);
        assert_eq!(s.best_nodes, 1);
    }

    #[test]
    fn lineage_comes_from_best_node_events() {
        let events = trace_one_star();
        let p = Profile::from_trees(&events);
        assert_eq!(p.lineage.len(), 2);
        assert_eq!(p.lineage[0].op, "JOIN(MG)");
        assert_eq!(p.lineage[0].depth, 0);
        assert_eq!(p.lineage[0].origin, "JMeth[alt 2]");
        assert_eq!(p.lineage[1].depth, 1);
        let text = p.render();
        assert!(text.contains("winning plan lineage"), "{text}");
        assert!(text.contains("JMeth[alt 2]"), "{text}");
        assert!(text.contains("enabled('hashjoin')"), "{text}");
    }

    #[test]
    fn unattributed_plans_count_as_driver_work() {
        let events = [tree_of(vec![TraceEvent::PlanBuilt {
            op: "ACCESS(heap)".into(),
            fp: 1,
            ref_id: 0,
            card: 1.0,
            cost_once: 1.0,
            cost_rescan: 0.0,
            breakdown: Default::default(),
        }])];
        let p = Profile::from_trees(&events);
        assert!(p.stars.is_empty());
        assert_eq!(p.driver_plans_built, 1);
    }

    #[test]
    fn quarantines_and_degradations_attributed_to_queries() {
        let events = [
            tree_of(vec![
                TraceEvent::QueryStart {
                    name: "paper_q1".into(),
                },
                TraceEvent::RuleQuarantined {
                    star: "JMeth".into(),
                    alt: 3,
                    ref_id: 7,
                    cond: "enabled('hashjoin')".into(),
                    reason: "panic in STAR JMeth[alt 3]: boom".into(),
                },
            ]),
            tree_of(vec![
                TraceEvent::QueryStart {
                    name: "paper_q2".into(),
                },
                TraceEvent::BudgetExhausted {
                    resource: "memo_entries".into(),
                    detail: "cap 4 reached".into(),
                },
            ]),
        ];
        let p = Profile::from_trees(&events);
        assert_eq!(p.quarantines.len(), 1);
        assert_eq!(p.quarantines[0].query.as_deref(), Some("paper_q1"));
        assert_eq!(p.degraded.len(), 1);
        assert_eq!(p.degraded[0].query.as_deref(), Some("paper_q2"));
        let text = p.render();
        assert!(
            text.contains("quarantined rules / degraded queries"),
            "{text}"
        );
        assert!(text.contains("JMeth[alt 3]"), "{text}");
        assert!(text.contains("during paper_q1"), "{text}");
        assert!(text.contains("degraded paper_q2"), "{text}");
        assert!(text.contains("memo_entries"), "{text}");
    }

    #[test]
    fn serve_cache_events_aggregate_into_their_own_section() {
        let events = vec![
            TraceEvent::CacheMiss { fp: 1, epoch: 0 },
            TraceEvent::CacheHit {
                fp: 1,
                epoch: 0,
                saved_nanos: 1_000,
            },
            TraceEvent::CacheHit {
                fp: 1,
                epoch: 0,
                saved_nanos: 2_000,
            },
            TraceEvent::CacheInvalidate { fp: 1, epoch: 1 },
            TraceEvent::CacheEvict {
                fp: 2,
                reason: "capacity".into(),
            },
        ];
        // Serve events land on every recorded request, one tree each.
        let events: Vec<_> = events.into_iter().map(|e| tree_of(vec![e])).collect();
        let p = Profile::from_trees(&events);
        assert!(p.serve.any());
        assert_eq!(p.serve.hits, 2);
        assert_eq!(p.serve.misses, 1);
        assert_eq!(p.serve.evicts, 1);
        assert_eq!(p.serve.invalidates, 1);
        assert_eq!(p.serve.saved_nanos, 3_000);
        assert!((p.serve.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        let text = p.render();
        assert!(text.contains("serve cache:"), "{text}");
        assert!(text.contains("hit ratio 0.667"), "{text}");
    }

    #[test]
    fn profiles_without_serve_events_omit_the_section() {
        let p = Profile::from_trees(&trace_one_star());
        assert!(!p.serve.any());
        assert!(!p.render().contains("serve cache:"));
        assert!(!p.heal.any());
        assert!(!p.render().contains("serve heal:"));
    }

    #[test]
    fn heal_events_aggregate_into_their_own_section() {
        let events = [tree_of(vec![
            TraceEvent::PlanReopt {
                fp: 7,
                epoch: 1,
                attempt: 1,
            },
            TraceEvent::PlanPinned {
                fp: 7,
                epoch: 1,
                reason: "reopt_error".into(),
                attempt: 1,
                backoff_nanos: 1_000,
            },
            TraceEvent::PlanReopt {
                fp: 7,
                epoch: 1,
                attempt: 2,
            },
            TraceEvent::PlanSwap {
                fp: 7,
                epoch: 1,
                incumbent_work: 900,
                candidate_work: 300,
            },
            TraceEvent::PlanPinned {
                fp: 9,
                epoch: 1,
                reason: "regression".into(),
                attempt: 1,
                backoff_nanos: 2_000,
            },
        ])];
        let p = Profile::from_trees(&events);
        assert!(p.heal.any());
        assert_eq!(p.heal.reopts, 2);
        assert_eq!(p.heal.swaps, 1);
        assert_eq!(p.heal.pins(), 2);
        assert_eq!(p.heal.pin_reasons.get("reopt_error"), Some(&1));
        assert_eq!(p.heal.pin_reasons.get("regression"), Some(&1));
        assert_eq!((p.heal.incumbent_work, p.heal.candidate_work), (900, 300));
        let text = p.render();
        assert!(text.contains("serve heal:"), "{text}");
        assert!(text.contains("reopt attempts 2  swaps 1  pins 2"), "{text}");
        assert!(
            text.contains("probation work: incumbent 900  candidate 300"),
            "{text}"
        );
        assert!(
            text.contains("pin reasons: regression=1  reopt_error=1"),
            "{text}"
        );
    }

    #[test]
    fn sorted_by_inclusive_time() {
        // Inclusive time is the `star:*` spans' durations, memo hits (no
        // span) adding none.
        let mk = |star: &str, nanos: u64| SpanTree {
            spans: vec![starqo_trace::SpanRecord {
                id: 1,
                name: format!("star:{star}").into(),
                end_nanos: nanos,
                ..Default::default()
            }],
            ..tree_of(vec![TraceEvent::StarRef {
                star: star.into(),
                sid: 0,
                id: 1,
                parent: 0,
                memo_hit: false,
            }])
        };
        let p = Profile::from_trees(&[mk("Cheap", 10), mk("Hot", 10_000)]);
        assert_eq!(p.stars[0].name, "Hot");
        assert_eq!(p.stars[1].name, "Cheap");
        assert_eq!(p.stars[0].inclusive_nanos, 10_000);
    }
}

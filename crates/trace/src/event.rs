//! The typed event taxonomy the optimizer, executors and serving layer
//! annotate on a request's span tree ([`crate::SpanEvent`]).
//!
//! Every variant serializes to one flat JSON object with a `"type"`
//! discriminator, written beside the annotation's span and offset, so a
//! tree's events stay greppable/`jq`-able — and parse back via
//! [`TraceEvent::from_json`], so offline tooling (the `starqo-obs`
//! analytics) consumes the same record the service wrote. Both directions
//! come from the `record!` table below.
//!
//! Attribution model: every STAR reference gets a unique `id` and carries
//! the `parent` reference id it was expanded under (0 = the enumeration
//! driver), so the full expansion tree reconstructs from the events; a
//! non-memoized reference's `star:<Name>` span carries the same id as its
//! `meta` and times the expansion.
//! Events emitted while an alternative evaluates carry the enclosing
//! reference's id as `ref_id`, and plan-construction/table events carry the
//! plan's structural fingerprint `fp`, letting consumers join "which rule
//! built the plan" with "what the plan table did to it".

record! {
    /// Per-component cost attribution carried on plan-construction events,
    /// written flattened beside the event's own fields.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct CostBreakdownEv {
        pub io: f64,
        pub cpu: f64,
        pub comm: f64,
        pub other: f64,
    }
}

record! {
    /// One structured trace event.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A STAR was referenced (possibly satisfied from the memo). `sid` is
        /// the stable index of the STAR in the rule set; `id` is unique per
        /// reference; `parent` is the enclosing reference's id (0 = driver).
        StarRef = "star_ref" {
            star: String,
            sid: u32,
            id: u64,
            parent: u64,
            memo_hit: bool,
        },
        /// One alternative of a STAR fired and produced plans.
        AltFired = "alt_fired" {
            star: String,
            alt: usize,
            ref_id: u64,
            plans: usize,
        },
        /// An alternative's condition of applicability evaluated to false.
        /// `cond` is the rendered condition text (for failure attribution).
        CondFailed = "cond_failed" {
            star: String,
            alt: usize,
            ref_id: u64,
            cond: String,
        },
        /// A `forall` alternative expanded over a set (∀-fan-out).
        ForallExpand = "forall_expand" {
            star: String,
            alt: usize,
            ref_id: u64,
            items: usize,
        },
        /// The Glue mechanism was invoked to meet required properties.
        GlueRef = "glue_ref" {
            ref_id: u64,
            cache_hit: bool,
            candidates: usize,
            veneers: usize,
        },
        /// A plan node was built, with its estimated properties and cost split.
        PlanBuilt = "plan_built" {
            op: String,
            fp: u64,
            ref_id: u64,
            card: f64,
            cost_once: f64,
            cost_rescan: f64,
            breakdown: CostBreakdownEv,
        },
        /// A candidate operator application failed to build (illegal combo).
        PlanRejected = "plan_rejected" {
            op: String,
            ref_id: u64,
            reason: String,
        },
        /// A plan entered the plan table.
        TableInsert = "table_insert" {
            op: String,
            fp: u64,
            cost: f64,
            evicted: usize,
        },
        /// A plan was pruned: dominated by an existing entry, or a duplicate.
        TablePrune = "table_prune" {
            op: String,
            fp: u64,
            cost: f64,
            duplicate: bool,
        },
        /// An existing table entry was evicted by a dominating newcomer.
        TableDominated = "table_dominated" {
            op: String,
            fp: u64,
            cost: f64,
        },
        /// One node of the winning plan (emitted pre-order after optimization
        /// succeeds), annotated with the rule alternative that built it.
        BestNode = "best_node" {
            op: String,
            fp: u64,
            depth: usize,
            origin: String,
            card: f64,
            cost: f64,
        },
        /// Per-LOLEPOP actuals recorded by the executor. `fp` is the plan
        /// node's structural fingerprint — the same key `PlanBuilt` and
        /// `BestNode` carry — so estimate-vs-actual joins need no side channel.
        ExecNode = "exec_node" {
            op: String,
            fp: u64,
            rows_out: u64,
            invocations: u64,
            nanos: u64,
        },
        /// A workload runner is about to optimize + execute one named query:
        /// names the query segment its tree records.
        QueryStart = "query_start" {
            name: String,
        },
        /// The named query finished executing: final row count and inclusive
        /// optimize+execute wall-clock time.
        QueryDone = "query_done" {
            name: String,
            rows: u64,
            nanos: u64,
        },
        /// A rule alternative panicked or errored and was disabled for the
        /// rest of the run; `cond` is the rendered condition of applicability
        /// (or the alternative's expression when unguarded).
        RuleQuarantined = "rule_quarantined" {
            star: String,
            alt: usize,
            ref_id: u64,
            cond: String,
            reason: String,
        },
        /// A resource budget ran out; the engine degraded to greedy,
        /// best-so-far exploration (anytime semantics).
        BudgetExhausted = "budget_exhausted" {
            resource: String,
            detail: String,
        },
        /// The serving layer satisfied a request from the plan cache. `fp` is
        /// the canonical query fingerprint hash; `saved_nanos` is the cold
        /// optimization time the hit avoided (as measured when the entry was
        /// populated).
        CacheHit = "cache_hit" {
            fp: u64,
            epoch: u64,
            saved_nanos: u64,
        },
        /// No usable cache entry: the request paid for a cold optimization.
        CacheMiss = "cache_miss" {
            fp: u64,
            epoch: u64,
        },
        /// An entry left the cache to make room (`reason` = "capacity" or
        /// "bytes").
        CacheEvict = "cache_evict" {
            fp: u64,
            reason: String,
        },
        /// An entry was dropped because its catalog epoch was stale; `epoch`
        /// is the *current* epoch that invalidated it.
        CacheInvalidate = "cache_invalidate" {
            fp: u64,
            epoch: u64,
        },
        /// The feedback plane flagged a cached plan as suspect: after `runs`
        /// executed serves its observed Q-error or latency trend crossed the
        /// configured threshold (`reason` = "geomean_q", "max_q", or
        /// "mean_latency"). Detection only — the plan keeps serving.
        PlanSuspect = "plan_suspect" {
            fp: u64,
            epoch: u64,
            runs: u64,
            geomean_q: f64,
            max_q: f64,
            reason: String,
        },
        /// The self-healing loop started a suspect-triggered re-optimization
        /// for this fingerprint (single-flight: one per fingerprint at a
        /// time). `attempt` counts retries since the last successful swap or
        /// epoch change (1-based).
        PlanReopt = "plan_reopt" {
            fp: u64,
            epoch: u64,
            attempt: u64,
        },
        /// A re-optimized candidate passed the stability guard (verify:
        /// equal rows, work within 10 %) and replaced the incumbent cached
        /// plan. Work units are the verify runs' deterministic
        /// execution-effort totals for each side.
        PlanSwap = "plan_swap" {
            fp: u64,
            epoch: u64,
            incumbent_work: u64,
            candidate_work: u64,
        },
        /// A re-optimization resolved by keeping the incumbent plan. `reason`
        /// is typed: "reopt_panic", "reopt_error", "budget_degraded",
        /// "epoch_moved", "verify_mismatch", "regression", or "retry_capped".
        /// `backoff_nanos` is the backoff armed before the next retry (0 when
        /// capped or when no retry will happen).
        PlanPinned = "plan_pinned" {
            fp: u64,
            epoch: u64,
            reason: String,
            attempt: u64,
            backoff_nanos: u64,
        },
    }
}

/// Actual per-plan-node measurements gathered during execution, keyed by the
/// node's fingerprint. Defined here so both `starqo-plan` (the renderer) and
/// `starqo-exec` (the collector) can see it without depending on each other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeActuals {
    /// How many times the node was evaluated (rescans count).
    pub invocations: u64,
    /// Rows produced by the last evaluation.
    pub rows_out: u64,
    /// Total inclusive wall-clock time across all invocations.
    pub nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every variant, with distinguishable field values.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::StarRef {
                star: "JoinRoot".into(),
                sid: 3,
                id: 17,
                parent: 4,
                memo_hit: true,
            },
            TraceEvent::AltFired {
                star: "JMeth".into(),
                alt: 2,
                ref_id: 17,
                plans: 3,
            },
            TraceEvent::CondFailed {
                star: "JMeth".into(),
                alt: 1,
                ref_id: 17,
                cond: "enabled('hashjoin')".into(),
            },
            TraceEvent::ForallExpand {
                star: "AccessStar".into(),
                alt: 1,
                ref_id: 9,
                items: 4,
            },
            TraceEvent::GlueRef {
                ref_id: 9,
                cache_hit: false,
                candidates: 2,
                veneers: 1,
            },
            TraceEvent::PlanBuilt {
                op: "JOIN(NL)".into(),
                fp: u64::MAX,
                ref_id: 17,
                card: 10.0,
                cost_once: 3.5,
                cost_rescan: 0.5,
                breakdown: CostBreakdownEv {
                    io: 2.0,
                    cpu: 1.0,
                    comm: 0.5,
                    other: 0.5,
                },
            },
            TraceEvent::PlanRejected {
                op: "SORT".into(),
                ref_id: 17,
                reason: "no key".into(),
            },
            TraceEvent::TableInsert {
                op: "JOIN(MG)".into(),
                fp: (1 << 53) + 1,
                cost: 8.25,
                evicted: 1,
            },
            TraceEvent::TablePrune {
                op: "JOIN(HA)".into(),
                fp: 77,
                cost: 9.0,
                duplicate: false,
            },
            TraceEvent::TableDominated {
                op: "ACCESS(heap)".into(),
                fp: 78,
                cost: 12.5,
            },
            TraceEvent::BestNode {
                op: "JOIN(MG)".into(),
                fp: 79,
                depth: 0,
                origin: "JMeth[alt 2]".into(),
                card: 100.0,
                cost: 42.0,
            },
            TraceEvent::ExecNode {
                op: "ACCESS(heap)".into(),
                fp: 80,
                rows_out: 100,
                invocations: 2,
                nanos: 999,
            },
            TraceEvent::QueryStart {
                name: "paper/local".into(),
            },
            TraceEvent::QueryDone {
                name: "paper/local".into(),
                rows: 84,
                nanos: 77_000,
            },
            TraceEvent::RuleQuarantined {
                star: "JMeth".into(),
                alt: 3,
                ref_id: 17,
                cond: "hashable_preds(JP) != {}".into(),
                reason: "panic in native function 'hashable_preds': boom".into(),
            },
            TraceEvent::BudgetExhausted {
                resource: "memo_entries".into(),
                detail: "memo cap of 64 entries reached".into(),
            },
            TraceEvent::CacheHit {
                fp: 0xDEAD_BEEF,
                epoch: 3,
                saved_nanos: 1_250_000,
            },
            TraceEvent::CacheMiss {
                fp: 0xDEAD_BEEF,
                epoch: 3,
            },
            TraceEvent::CacheEvict {
                fp: 0xFEED_FACE,
                reason: "capacity".into(),
            },
            TraceEvent::CacheInvalidate {
                fp: 0xDEAD_BEEF,
                epoch: 4,
            },
            TraceEvent::PlanSuspect {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                runs: 16,
                geomean_q: 6.5,
                max_q: 40.0,
                reason: "geomean_q".into(),
            },
            TraceEvent::PlanReopt {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                attempt: 1,
            },
            TraceEvent::PlanSwap {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                incumbent_work: 5_000,
                candidate_work: 1_200,
            },
            TraceEvent::PlanPinned {
                fp: 0xFEED_FACE,
                epoch: 4,
                reason: "verify_mismatch".into(),
                attempt: 2,
                backoff_nanos: 400_000_000,
            },
        ]
    }

    #[test]
    fn events_serialize_to_flat_json() {
        let ev = TraceEvent::StarRef {
            star: "JoinRoot".into(),
            sid: 2,
            id: 7,
            parent: 3,
            memo_hit: true,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"type":"star_ref","star":"JoinRoot","sid":2,"id":7,"parent":3,"memo_hit":true}"#
        );
        let ev = TraceEvent::PlanBuilt {
            op: "JOIN(NL)".into(),
            fp: 42,
            ref_id: 7,
            card: 10.0,
            cost_once: 3.5,
            cost_rescan: 0.5,
            breakdown: CostBreakdownEv {
                io: 2.0,
                cpu: 1.0,
                comm: 0.5,
                other: 0.5,
            },
        };
        let j = ev.to_json();
        assert!(
            j.starts_with(r#"{"type":"plan_built","op":"JOIN(NL)","fp":42"#),
            "{j}"
        );
        assert!(
            j.contains(r#""io":2"#) && j.contains(r#""comm":0.5"#),
            "{j}"
        );
    }

    #[test]
    fn every_kind_is_distinct() {
        let evs = one_of_each();
        let kinds: std::collections::BTreeSet<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), evs.len());
    }

    #[test]
    fn every_event_roundtrips_through_json() {
        for ev in one_of_each() {
            let line = ev.to_json();
            let back = TraceEvent::from_json(&line)
                .unwrap_or_else(|| panic!("failed to parse back: {line}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn from_json_rejects_garbage_gracefully() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"type":"unknown_kind"}"#,
            r#"{"type":"query_done","name":"x"}"#,
            r#"{"type":"query_done","name":"x","rows":"nope","nanos":1}"#,
            r#"{"type":"exec_node","op":"SORT","rows_out":9,"invocations":1,"nanos":55}"#,
        ] {
            assert_eq!(TraceEvent::from_json(bad), None, "accepted: {bad:?}");
        }
    }

    #[test]
    fn out_of_range_integers_reject_the_line() {
        // 2^32 does not fit `sid: u32`: the record is refused, never loaded
        // as a wrapped `sid: 0`.
        let line =
            r#"{"type":"star_ref","star":"J","sid":4294967296,"id":1,"parent":0,"memo_hit":false}"#;
        assert_eq!(TraceEvent::from_json(line), None);
        let widest = line.replace("4294967296", "4294967295");
        assert!(matches!(
            TraceEvent::from_json(&widest),
            Some(TraceEvent::StarRef { sid: u32::MAX, .. })
        ));
    }
}

//! `starqo-obs doctor`: a one-shot health verdict over a telemetry
//! snapshot. Runs a fixed checklist — cache efficacy, admission/pressure
//! counters, error rates, plan-quality drift hotspots, hot-query top-K
//! saturation, feedback-plane coverage — and renders a finding list with
//! an overall verdict. Detection and advice only: the doctor never
//! mutates anything.

use starqo_trace::json::JsonObj;
use starqo_trace::{Metric, TelemetrySnapshot};

/// How much a finding should worry the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context worth knowing; not a problem.
    Info,
    /// Degraded but serving; act soon.
    Warn,
    /// Actively losing work (errors, rejections).
    Crit,
}

impl Severity {
    fn tag(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "WARN",
            Severity::Crit => "CRIT",
        }
    }
}

/// One checklist outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub severity: Severity,
    /// Stable check identifier (scripts grep on these).
    pub check: &'static str,
    pub detail: String,
}

/// The doctor's full verdict over one snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    pub findings: Vec<Finding>,
}

impl Diagnosis {
    /// Run the checklist. Thresholds are fixed and intentionally
    /// conservative — the doctor flags what is unambiguously wrong, the
    /// dashboards carry the nuance.
    pub fn from_snapshot(s: &TelemetrySnapshot) -> Diagnosis {
        let c = |m: Metric| s.counters[m];
        let mut findings = Vec::new();
        let mut push = |severity: Severity, check: &'static str, detail: String| {
            findings.push(Finding {
                severity,
                check,
                detail,
            });
        };

        let requests = c(Metric::Requests);
        if requests == 0 {
            push(
                Severity::Info,
                "traffic",
                "no requests in this snapshot window".to_string(),
            );
        }

        // Cache efficacy: only judged once there is enough traffic for the
        // ratio to mean something.
        let served = c(Metric::CacheHit) + c(Metric::CacheCoalesced) + c(Metric::CacheMiss);
        if served >= 50 && s.counters.hit_ratio() < 0.5 {
            push(
                Severity::Warn,
                "cache_efficacy",
                format!(
                    "hit ratio {:.1}% over {served} served requests (churning workload, \
                     undersized cache, or epoch thrash)",
                    s.counters.hit_ratio() * 100.0
                ),
            );
        }

        let errors = c(Metric::Errors);
        if errors > 0 {
            push(
                Severity::Crit,
                "errors",
                format!("{errors} optimizer/executor error(s) surfaced to callers"),
            );
        }
        let rejected = c(Metric::Rejected);
        if rejected > 0 {
            push(
                Severity::Crit,
                "admission",
                format!("{rejected} request(s) rejected by admission control"),
            );
        }
        let degraded = c(Metric::Degraded);
        if degraded > 0 {
            push(
                Severity::Warn,
                "degraded",
                format!("{degraded} plan(s) degraded by budget exhaustion"),
            );
        }
        let invalidations = c(Metric::CacheInvalidate);
        if invalidations > 0 && invalidations * 5 >= requests.max(1) {
            push(
                Severity::Warn,
                "epoch_thrash",
                format!(
                    "{invalidations} cache invalidations against {requests} requests \
                     (catalog epoch moving faster than plans amortize)"
                ),
            );
        }

        // Drift hotspots: the feedback plane's suspect registry.
        let suspects = s.suspects();
        if !suspects.is_empty() {
            let hot: Vec<String> = suspects
                .iter()
                .take(4)
                .map(|e| {
                    format!(
                        "{:#x} (geomean Q {:.1}, {} runs)",
                        e.fp,
                        e.geomean_q().unwrap_or(1.0),
                        e.runs
                    )
                })
                .collect();
            push(
                Severity::Warn,
                "plan_drift",
                format!(
                    "{} suspect plan(s) — observed Q-error/latency crossed thresholds: {}",
                    suspects.len(),
                    hot.join(", ")
                ),
            );
        } else if !s.qerror.is_empty() {
            push(
                Severity::Info,
                "plan_drift",
                format!(
                    "{} fingerprint(s) tracked by the feedback plane, none suspect",
                    s.qerror.len()
                ),
            );
        }

        // Top-K saturation: space-saving overcount bound at or above half
        // the count means ranks are recycling noise.
        let saturated = s
            .topk
            .iter()
            .filter(|e| e.count > 0 && e.err >= e.count / 2)
            .count();
        if saturated > 0 {
            push(
                Severity::Warn,
                "topk_saturation",
                format!(
                    "{saturated} hot-query entries have overcount bound >= count/2 \
                     (more distinct fingerprints than the feedback plane holds)"
                ),
            );
        }

        // Span-store saturation: the tail sampler keeps retaining but the
        // bounded store is recycling trees — slow outliers silently age out
        // before anyone looks at them.
        let span_drops = c(Metric::SpansDropped);
        if s.span_evicted > 0 {
            push(
                Severity::Warn,
                "span_saturation",
                format!(
                    "{} retained span tree(s) evicted from a {}-slot store \
                     (raise span_store or tighten the tail quantile)",
                    s.span_evicted, s.span_capacity
                ),
            );
        } else if c(Metric::SpansKept) == 0 && span_drops > 0 {
            push(
                Severity::Info,
                "span_saturation",
                format!(
                    "tail sampler dropped all {span_drops} request(s) — nothing slow, \
                     errored, or suspect in this window"
                ),
            );
        }

        // Feedback coverage: executions happening but nothing folding
        // means the feedback plane is disabled and drift is invisible.
        if c(Metric::Executions) > 0 && c(Metric::FeedbackRuns) == 0 {
            push(
                Severity::Warn,
                "feedback_coverage",
                "executions ran but the feedback plane folded nothing (feedback disabled?)"
                    .to_string(),
            );
        }

        // Re-optimization storm: the healer keeps burning budget without
        // landing candidates — every attempt either fails or loses the
        // stability guard. Judged only with enough attempts to matter.
        let attempts = c(Metric::ReoptAttempts);
        let swaps = c(Metric::PlanSwap);
        if attempts >= 5 && swaps * 4 < attempts {
            push(
                Severity::Warn,
                "reopt_storm",
                format!(
                    "{attempts} re-optimization attempt(s) produced only {swaps} swap(s) \
                     ({} pinned) — stale fault, bad overlay stats, or a retry cap too high",
                    c(Metric::PlanPinned)
                ),
            );
        }

        // Heal effectiveness: relates heal outcomes to the live suspect
        // set. Retry-capped fingerprints are stuck until an epoch change;
        // pins with zero swaps against live suspects mean healing runs but
        // never lands.
        let capped: Vec<u64> = s
            .heal
            .iter()
            .filter(|h| h.retry_capped)
            .map(|h| h.fp)
            .collect();
        let total_pins: u64 = s.heal.iter().map(|h| h.pins).sum();
        let total_swaps: u64 = s.heal.iter().map(|h| h.swaps).sum();
        if !capped.is_empty() {
            let fps: Vec<String> = capped.iter().take(4).map(|fp| format!("{fp:#x}")).collect();
            push(
                Severity::Warn,
                "heal_effectiveness",
                format!(
                    "{} fingerprint(s) hit the retry cap and stay pinned until the next \
                     catalog epoch: {}",
                    capped.len(),
                    fps.join(", ")
                ),
            );
        } else if total_swaps == 0 && total_pins > 0 && !s.suspects().is_empty() {
            push(
                Severity::Warn,
                "heal_effectiveness",
                format!(
                    "healing attempted but nothing landed: {total_pins} pin(s) against \
                     {} live suspect(s)",
                    s.suspects().len()
                ),
            );
        } else if total_swaps > 0 {
            push(
                Severity::Info,
                "heal_effectiveness",
                format!(
                    "{total_swaps} healed candidate(s) swapped in, {total_pins} pinned \
                     by the stability guard"
                ),
            );
        }

        Diagnosis { findings }
    }

    /// No warnings or criticals.
    pub fn healthy(&self) -> bool {
        self.findings.iter().all(|f| f.severity == Severity::Info)
    }

    pub fn crit_count(&self) -> usize {
        self.count(Severity::Crit)
    }

    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// The verdict as machine-readable JSON (parity with `watch --json`):
    /// findings sorted most-severe-first, plus the aggregate verdict.
    pub fn to_json(&self) -> String {
        let mut ordered = self.findings.clone();
        ordered.sort_by_key(|f| std::cmp::Reverse(f.severity));
        let findings: Vec<String> = ordered
            .iter()
            .map(|f| {
                JsonObj::new()
                    .str("severity", f.severity.tag())
                    .str("check", f.check)
                    .str("detail", &f.detail)
                    .finish()
            })
            .collect();
        JsonObj::new()
            .bool("healthy", self.healthy())
            .u64("crit", self.crit_count() as u64)
            .u64("warn", self.warn_count() as u64)
            .raw("findings", &format!("[{}]", findings.join(",")))
            .finish()
    }

    pub fn render(&self) -> String {
        let mut out = String::from("== starqo doctor ==\n");
        if self.findings.is_empty() {
            out.push_str("  all checks passed\n");
        }
        let mut ordered = self.findings.clone();
        ordered.sort_by_key(|f| std::cmp::Reverse(f.severity));
        for f in &ordered {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                f.severity.tag(),
                f.check,
                f.detail
            ));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.healthy() {
                "HEALTHY".to_string()
            } else {
                format!(
                    "{} critical, {} warning(s)",
                    self.crit_count(),
                    self.warn_count()
                )
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::smoke_snapshot;

    #[test]
    fn smoke_snapshot_yields_the_expected_findings() {
        let d = Diagnosis::from_snapshot(&smoke_snapshot());
        assert!(!d.healthy());
        let checks: Vec<&str> = d.findings.iter().map(|f| f.check).collect();
        // The smoke snapshot plants a drifted suspect and a saturated
        // top-K entry; the doctor must find both and nothing critical.
        assert!(checks.contains(&"plan_drift"), "{checks:?}");
        assert!(checks.contains(&"topk_saturation"), "{checks:?}");
        assert_eq!(d.crit_count(), 0);
        let text = d.render();
        assert!(text.contains("[WARN] plan_drift"));
        assert!(text.contains("verdict: 0 critical"));
    }

    #[test]
    fn clean_snapshot_is_healthy() {
        let mut s = smoke_snapshot();
        s.qerror.clear();
        s.topk.clear();
        let d = Diagnosis::from_snapshot(&s);
        assert!(d.healthy(), "{}", d.render());
        assert!(d.render().contains("verdict: HEALTHY"));
    }

    #[test]
    fn pressure_counters_escalate_to_critical() {
        let mut s = smoke_snapshot();
        s.qerror.clear();
        s.topk.clear();
        s.counters[Metric::Errors] = 3;
        s.counters[Metric::Rejected] = 7;
        let d = Diagnosis::from_snapshot(&s);
        assert_eq!(d.crit_count(), 2);
        let text = d.render();
        assert!(text.contains("[CRIT] errors: 3"));
        assert!(text.contains("[CRIT] admission: 7"));
        // Criticals sort above warnings and infos.
        assert!(text.find("[CRIT]").unwrap() < text.find("verdict").unwrap());
    }

    #[test]
    fn span_store_eviction_warns_and_all_dropped_window_is_info() {
        let mut s = smoke_snapshot();
        s.qerror.clear();
        s.topk.clear();
        s.span_evicted = 9;
        let d = Diagnosis::from_snapshot(&s);
        let f = d
            .findings
            .iter()
            .find(|f| f.check == "span_saturation")
            .expect("span_saturation finding");
        assert_eq!(f.severity, Severity::Warn);
        assert!(f.detail.contains("9 retained span tree(s)"), "{}", f.detail);
        // A window where the tail sampler kept nothing is context, not a
        // fault: there was simply nothing worth retaining.
        s.span_evicted = 0;
        s.counters[Metric::SpansKept] = 0;
        let d = Diagnosis::from_snapshot(&s);
        let f = d
            .findings
            .iter()
            .find(|f| f.check == "span_saturation")
            .expect("span_saturation finding");
        assert_eq!(f.severity, Severity::Info);
    }

    #[test]
    fn json_verdict_parses_and_sorts_most_severe_first() {
        use starqo_trace::{parse_json, JsonValue};
        let mut s = smoke_snapshot();
        s.counters[Metric::Errors] = 2;
        let d = Diagnosis::from_snapshot(&s);
        let v = parse_json(&d.to_json()).expect("doctor json parses");
        assert_eq!(v.get("healthy").and_then(|x| x.as_bool()), Some(false));
        assert_eq!(v.get("crit").and_then(|x| x.as_u64()), Some(1));
        let Some(JsonValue::Arr(findings)) = v.get("findings") else {
            panic!("findings array");
        };
        assert!(!findings.is_empty());
        assert_eq!(
            findings[0].get("severity").and_then(|x| x.as_str()),
            Some("CRIT")
        );
        assert_eq!(
            findings[0].get("check").and_then(|x| x.as_str()),
            Some("errors")
        );
    }

    #[test]
    fn reopt_storm_flags_a_thrashing_heal_loop() {
        let mut s = smoke_snapshot();
        s.counters[Metric::ReoptAttempts] = 12;
        s.counters[Metric::PlanSwap] = 1;
        let d = Diagnosis::from_snapshot(&s);
        let f = d
            .findings
            .iter()
            .find(|f| f.check == "reopt_storm")
            .expect("reopt_storm finding");
        assert_eq!(f.severity, Severity::Warn);
        assert!(
            f.detail.contains("12 re-optimization attempt(s)"),
            "{}",
            f.detail
        );
        // The smoke snapshot itself (3 attempts, 1 swap) is below the bar.
        let d = Diagnosis::from_snapshot(&smoke_snapshot());
        assert!(d.findings.iter().all(|f| f.check != "reopt_storm"));
    }

    #[test]
    fn heal_effectiveness_grades_swaps_pins_and_the_retry_cap() {
        // The smoke snapshot healed something: info, not a warning.
        let d = Diagnosis::from_snapshot(&smoke_snapshot());
        let f = d
            .findings
            .iter()
            .find(|f| f.check == "heal_effectiveness")
            .expect("heal_effectiveness finding");
        assert_eq!(f.severity, Severity::Info);
        assert!(f.detail.contains("1 healed candidate(s)"), "{}", f.detail);

        // Pins without swaps against a live suspect: healing runs but
        // never lands.
        let mut s = smoke_snapshot();
        s.heal[0].swaps = 0;
        s.heal[0].pins = 3;
        s.heal[0].last_reason = "regression".into();
        let d = Diagnosis::from_snapshot(&s);
        let f = d
            .findings
            .iter()
            .find(|f| f.check == "heal_effectiveness")
            .expect("heal_effectiveness finding");
        assert_eq!(f.severity, Severity::Warn);
        assert!(f.detail.contains("nothing landed"), "{}", f.detail);

        // The retry cap dominates: the fingerprint is stuck until the next
        // epoch, whatever else the tallies say.
        let mut s = smoke_snapshot();
        s.heal[0].retry_capped = true;
        let d = Diagnosis::from_snapshot(&s);
        let f = d
            .findings
            .iter()
            .find(|f| f.check == "heal_effectiveness")
            .expect("heal_effectiveness finding");
        assert_eq!(f.severity, Severity::Warn);
        assert!(f.detail.contains("retry cap"), "{}", f.detail);
        assert!(f.detail.contains("0xa11ce"), "{}", f.detail);
    }

    #[test]
    fn missing_feedback_under_executions_is_flagged() {
        let mut s = smoke_snapshot();
        s.qerror.clear();
        s.topk.clear();
        s.counters[Metric::FeedbackRuns] = 0;
        let d = Diagnosis::from_snapshot(&s);
        assert!(d.findings.iter().any(|f| f.check == "feedback_coverage"));
    }
}

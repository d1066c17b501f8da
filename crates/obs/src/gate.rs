//! Benchmark regression gate: compare a fresh `BENCH_*.json` against a
//! committed baseline.
//!
//! Two classes of measurement get different thresholds:
//! - **wall_ms** is wall-clock and noisy — allowed [`WALL_PCT`];
//! - **work counters** (star_refs, plans_built, ...) are deterministic for
//!   a fixed rule set and query — allowed the tighter [`COUNTER_PCT`].
//!
//! Only *increases* violate: doing less work or running faster never
//! fails the gate. A counter whose baseline is zero (`heal_chaos_escapes`,
//! `heal_false_reopts`, ...) must stay zero: any non-zero fresh value violates.
//! A baseline counter the fresh run no longer emits violates too — a pinned
//! counter must not vanish silently. A counter new in the fresh run is an
//! informational note (benchmarks grow new counters).
//!
//! Measurements derived from wall-clock time ([`WALL_CLOCK`]) are compared
//! and reported like the rest but are not work counters:
//! [`GateResult::counters_passed`] ignores them.

use std::fmt::Write as _;

use starqo_trace::read::{parse_json, JsonValue};

/// Allowed wall-clock increase, percent.
pub const WALL_PCT: f64 = 25.0;
/// Allowed work-counter increase, percent.
pub const COUNTER_PCT: f64 = 5.0;

/// Measurements that depend on how fast the host ran: total wall time and
/// the "overhead above its ceiling" ticks of the E19/E20/E21 benches, which
/// have flipped 0 -> 1 on an unchanged binary.
pub const WALL_CLOCK: [&str; 4] = [
    "wall_ms",
    "telemetry_overhead_violations",
    "drift_overhead_violations",
    "spans_overhead_violations",
];

/// One measurement that regressed past its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub metric: String,
    pub baseline: f64,
    /// `None` when the fresh run no longer emits the counter.
    pub fresh: Option<f64>,
    pub change_pct: f64,
    pub threshold_pct: f64,
}

/// The outcome of gating one fresh report against one baseline.
#[derive(Debug, Clone, Default)]
pub struct GateResult {
    pub bench: String,
    pub violations: Vec<Violation>,
    /// Measurements compared (wall_ms + baseline counters).
    pub checked: usize,
    /// Counters new in the fresh run.
    pub notes: Vec<String>,
}

impl GateResult {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// No deterministic work counter regressed (violations of
    /// [`WALL_CLOCK`] measurements do not count).
    pub fn counters_passed(&self) -> bool {
        let mut metrics = self.violations.iter().map(|v| v.metric.as_str());
        metrics.all(|m| WALL_CLOCK.contains(&m))
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gate[{}]: {} measurements checked, {} violation(s)",
            self.bench,
            self.checked,
            self.violations.len()
        );
        for v in &self.violations {
            let _ = match v.fresh {
                Some(fresh) => writeln!(
                    out,
                    "  REGRESSION {}: {} -> {} ({:+.1}%, threshold {:.1}%)",
                    v.metric, v.baseline, fresh, v.change_pct, v.threshold_pct
                ),
                None => writeln!(
                    out,
                    "  REGRESSION {}: {} -> missing from fresh run",
                    v.metric, v.baseline
                ),
            };
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// Compare two `BENCH_*.json` documents (baseline, fresh).
pub fn gate(baseline: &str, fresh: &str) -> Result<GateResult, String> {
    let base = parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = parse_json(fresh).map_err(|e| format!("fresh: {e}"))?;
    let mut result = GateResult {
        bench: new
            .get("bench")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string(),
        ..GateResult::default()
    };

    if let (Some(bw), Some(fw)) = (
        base.get("wall_ms").and_then(JsonValue::as_f64),
        new.get("wall_ms").and_then(JsonValue::as_f64),
    ) {
        result.checked += 1;
        check("wall_ms", bw, fw, WALL_PCT, &mut result.violations);
    }

    let counters = |doc: &JsonValue| -> Vec<(String, f64)> {
        doc.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(JsonValue::fields)
            .map(|fields| {
                fields
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let bc = counters(&base);
    let fc = counters(&new);
    for (k, bv) in &bc {
        result.checked += 1;
        match fc.iter().find(|(fk, _)| fk == k) {
            Some((_, fv)) => check(k, *bv, *fv, COUNTER_PCT, &mut result.violations),
            None => result.violations.push(Violation {
                metric: k.clone(),
                baseline: *bv,
                fresh: None,
                change_pct: f64::INFINITY,
                threshold_pct: COUNTER_PCT,
            }),
        }
    }
    for (k, _) in &fc {
        if !bc.iter().any(|(bk, _)| bk == k) {
            result.notes.push(format!("counter {k} new in fresh run"));
        }
    }
    Ok(result)
}

fn check(metric: &str, baseline: f64, fresh: f64, threshold_pct: f64, out: &mut Vec<Violation>) {
    // No percentage exists over a zero baseline: such a counter is pinned,
    // and leaving zero at all is the regression.
    let change_pct = if baseline > 0.0 {
        (fresh - baseline) * 100.0 / baseline
    } else if fresh > 0.0 {
        f64::INFINITY
    } else {
        return;
    };
    if change_pct > threshold_pct {
        out.push(Violation {
            metric: metric.to_string(),
            baseline,
            fresh: Some(fresh),
            change_pct,
            threshold_pct,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(wall_ms: f64, star_refs: u64, plans: u64) -> String {
        format!(
            r#"{{"bench":"strategies","wall_ms":{wall_ms},"reports":2,"metrics":{{"counters":{{"plans_built":{plans},"star_refs":{star_refs}}},"phase_nanos":{{"enumerate":100}}}}}}"#
        )
    }

    #[test]
    fn unchanged_run_passes() {
        let doc = bench_json(100.0, 500, 2000);
        let r = gate(&doc, &doc).unwrap();
        assert!(r.passed(), "{r:?}");
        assert_eq!(r.checked, 3);
        assert_eq!(r.bench, "strategies");
    }

    #[test]
    fn counter_growth_past_threshold_fails() {
        // star_refs 500 -> 600 = +20%, over the 5% counter threshold.
        let base = bench_json(100.0, 500, 2000);
        let fresh = bench_json(100.0, 600, 2000);
        let r = gate(&base, &fresh).unwrap();
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.metric, "star_refs");
        assert!((v.change_pct - 20.0).abs() < 1e-9);
        assert!(
            r.render().contains("REGRESSION star_refs"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn wall_clock_gets_the_looser_threshold() {
        // +20% wall time: under the 25% wall threshold, passes.
        let base = bench_json(100.0, 500, 2000);
        let fresh = bench_json(120.0, 500, 2000);
        assert!(gate(&base, &fresh).unwrap().passed());
        // +30%: fails.
        let fresh = bench_json(130.0, 500, 2000);
        let r = gate(&base, &fresh).unwrap();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].metric, "wall_ms");
    }

    #[test]
    fn improvements_never_violate() {
        let base = bench_json(100.0, 500, 2000);
        let fresh = bench_json(10.0, 100, 50);
        assert!(gate(&base, &fresh).unwrap().passed());
    }

    #[test]
    fn missing_counter_violates_new_counter_is_a_note() {
        let base = r#"{"bench":"x","wall_ms":1,"metrics":{"counters":{"exec_divergences":0}}}"#;
        let fresh = r#"{"bench":"x","wall_ms":1,"metrics":{"counters":{"new_counter":9}}}"#;
        let r = gate(base, fresh).unwrap();
        assert!(!r.counters_passed(), "{}", r.render());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].metric, "exec_divergences");
        assert_eq!(r.violations[0].fresh, None);
        assert!(
            r.render()
                .contains("REGRESSION exec_divergences: 0 -> missing from fresh run"),
            "{}",
            r.render()
        );
        assert_eq!(r.notes, ["counter new_counter new in fresh run"]);
    }

    #[test]
    fn zero_baseline_counter_must_stay_zero() {
        let doc = |n: u64| {
            format!(
                r#"{{"bench":"exec","wall_ms":1,"metrics":{{"counters":{{"exec_divergences":{n},"exec_cases":12}}}}}}"#
            )
        };
        let r = gate(&doc(0), &doc(0)).unwrap();
        assert!(r.passed(), "{r:?}");
        let r = gate(&doc(0), &doc(2)).unwrap();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].metric, "exec_divergences");
        assert!(!r.counters_passed());
        assert!(
            r.render().contains("REGRESSION exec_divergences: 0 -> 2"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn wall_clock_ticks_are_reported_but_not_counter_failures() {
        let doc = |wall: f64, tick: u64| {
            format!(
                r#"{{"bench":"telemetry","wall_ms":{wall},"metrics":{{"counters":{{"telemetry_overhead_violations":{tick},"telemetry_requests":8000}}}}}}"#
            )
        };
        let r = gate(&doc(100.0, 0), &doc(200.0, 1)).unwrap();
        let metrics: Vec<&str> = r.violations.iter().map(|v| v.metric.as_str()).collect();
        assert_eq!(metrics, ["wall_ms", "telemetry_overhead_violations"]);
        assert!(!r.passed());
        assert!(r.counters_passed());
    }

    #[test]
    fn spans_overhead_tick_is_wall_clock_but_its_counters_are_not() {
        let doc = |tick: u64, retained: u64| {
            format!(
                r#"{{"bench":"spans","wall_ms":100,"metrics":{{"counters":{{"spans_overhead_violations":{tick},"spans_retained":{retained}}}}}}}"#
            )
        };
        // The tick alone flips 0 -> 1: reported, but no counter failed.
        let r = gate(&doc(0, 40), &doc(1, 40)).unwrap();
        assert!(!r.passed() && r.counters_passed(), "{}", r.render());
        // A deterministic counter of the same bench regressing still fails.
        let r = gate(&doc(0, 40), &doc(1, 80)).unwrap();
        assert!(!r.counters_passed(), "{}", r.render());
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(gate("not json", "{}").is_err());
        assert!(gate("{}", "nope").is_err());
    }
}

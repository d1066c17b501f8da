//! Named counters, histograms and per-phase wall time accumulated over a
//! run of experiments: the machine-readable half of a bench report.

use crate::hist::Histogram;
use crate::json::JsonObj;
use crate::telemetry::Phase;

/// Named monotonic counters, phase nanos and log-bucketed value
/// distributions. Names keep their first-seen order; adding to a name
/// again accumulates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    counters: Vec<(String, u64)>,
    phase_nanos: Vec<(Phase, u64)>,
    hists: Vec<(String, Histogram)>,
}

impl MetricsSummary {
    /// Bump a named counter.
    pub fn count(&mut self, name: &str, delta: u64) {
        match self.counters.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name.to_string(), delta)),
        }
    }

    /// Add wall time to a phase. Phases may run many times (e.g. `Glue`);
    /// durations add up.
    pub fn add_phase(&mut self, phase: Phase, nanos: u64) {
        match self.phase_nanos.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, v)) => *v += nanos,
            None => self.phase_nanos.push((phase, nanos)),
        }
    }

    /// Fold an externally built histogram into a named one.
    pub fn merge_hist(&mut self, name: &str, hist: &Histogram) {
        if hist.is_empty() {
            return;
        }
        match self.hists.iter_mut().find(|(k, _)| k == name) {
            Some((_, h)) => h.merge(hist),
            None => self.hists.push((name.to_string(), hist.clone())),
        }
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Merge another summary into this one (counters and phases add,
    /// histograms merge).
    pub fn absorb(&mut self, other: &MetricsSummary) {
        for (k, v) in &other.counters {
            self.count(k, *v);
        }
        for (p, v) in &other.phase_nanos {
            self.add_phase(*p, *v);
        }
        for (k, h) in &other.hists {
            self.merge_hist(k, h);
        }
    }

    /// `{"counters": {...}, "phase_nanos": {...}}`, plus a
    /// `"histograms"` object when any histogram was recorded.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObj::new();
        for (k, v) in &self.counters {
            counters = counters.u64(k, *v);
        }
        let mut phases = JsonObj::new();
        for (p, v) in &self.phase_nanos {
            phases = phases.u64(p.name(), *v);
        }
        let mut out = JsonObj::new()
            .raw("counters", &counters.finish())
            .raw("phase_nanos", &phases.finish());
        if !self.hists.is_empty() {
            let mut hists = JsonObj::new();
            for (k, v) in &self.hists {
                hists = hists.raw(k, &v.to_json());
            }
            out = out.raw("histograms", &hists.finish());
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsSummary::default();
        m.count("memo_hits", 2);
        m.count("memo_hits", 3);
        m.count("plans", 1);
        assert_eq!(m.counter("memo_hits"), Some(5));
        assert_eq!(m.counter("plans"), Some(1));
        assert_eq!(m.counter("absent"), None);
    }

    #[test]
    fn phases_accumulate_across_runs() {
        let mut m = MetricsSummary::default();
        m.add_phase(Phase::Glue, 10);
        m.add_phase(Phase::Glue, 5);
        assert_eq!(m.to_json(), r#"{"counters":{},"phase_nanos":{"glue":15}}"#);
    }

    #[test]
    fn summary_json_shape() {
        let mut m = MetricsSummary::default();
        m.count("x", 1);
        m.add_phase(Phase::Enumerate, 42);
        let mut h = Histogram::new();
        h.record(7);
        m.merge_hist("h", &h);
        m.merge_hist("empty", &Histogram::new());
        // An empty histogram is not recorded.
        assert_eq!(
            m.to_json(),
            format!(
                r#"{{"counters":{{"x":1}},"phase_nanos":{{"enumerate":42}},"histograms":{{"h":{}}}}}"#,
                h.to_json()
            )
        );
    }

    #[test]
    fn absorb_merges() {
        let mut a = MetricsSummary::default();
        let mut one = MetricsSummary::default();
        one.count("x", 1);
        one.add_phase(Phase::Execute, 5);
        a.absorb(&one);
        a.absorb(&one);
        assert_eq!(a.counter("x"), Some(2));
        assert!(a.to_json().contains(r#""phase_nanos":{"execute":10}"#));
    }
}

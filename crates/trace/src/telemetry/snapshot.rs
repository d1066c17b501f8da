//! Point-in-time telemetry exports: a [`TelemetrySnapshot`] captures the
//! counter plane, the latency histograms, and the top-K tracker without
//! stopping the world, serializes losslessly as JSON (buckets included, so
//! consumers re-derive any quantile), renders as Prometheus text
//! exposition format, and diffs against an earlier snapshot to yield
//! interval metrics (`starqo-obs live --since`).

use crate::hist::{Histogram, BUCKETS};
use crate::json::JsonObj;
use crate::read::{parse_json, JsonValue};
use crate::telemetry::counters::{Counters, Metric};
use crate::telemetry::heal::HealRecord;
use crate::telemetry::phases::Phase;
use crate::telemetry::qerror::QErrorSketch;
use crate::telemetry::topk::HotQuery;
use crate::telemetry::LatencyPath;

/// A consistent-enough copy of the whole telemetry plane: every counter,
/// one histogram per latency path, and the hot-fingerprint top-K.
/// "Consistent enough": each field is read atomically but the plane keeps
/// serving while the snapshot is taken, so cross-field invariants may lag
/// by in-flight requests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Nanos since the telemetry plane was created (interval rates divide
    /// counter deltas by the delta of this).
    pub uptime_nanos: u64,
    /// Every catalog counter, indexed by [`Metric`].
    pub counters: Counters,
    /// One histogram per latency path, indexed by [`LatencyPath`].
    pub latency: [Histogram; LatencyPath::COUNT],
    /// Hottest fingerprints by request count, descending.
    pub topk: Vec<HotQuery>,
    /// The feedback plane's per-fingerprint plan-quality sketches, worst
    /// geomean Q-error first (empty when feedback is off or nothing has
    /// executed).
    pub qerror: Vec<QErrorSketch>,
    /// Cold-path phase attribution: `(nanos, count)`, indexed by [`Phase`].
    pub phases: [(u64, u64); Phase::COUNT],
    /// Span trees currently resident in the span store (0 = spans off).
    pub span_resident: u64,
    /// Span-store retention capacity (0 = spans off).
    pub span_capacity: u64,
    /// Retained trees recycled to make room, cumulatively.
    pub span_evicted: u64,
    /// The serving layer's per-fingerprint heal records (suspect-triggered
    /// re-optimization state), fingerprint ascending. Empty when healing
    /// is off or the snapshot came from a bare telemetry plane (the
    /// service stitches these in).
    pub heal: Vec<HealRecord>,
}

impl TelemetrySnapshot {
    /// One fingerprint's plan-quality sketch, if resident.
    pub fn qerror_for(&self, fp: u64) -> Option<&QErrorSketch> {
        self.qerror.iter().find(|e| e.fp == fp)
    }

    /// The suspect registry view: flagged sketches, in snapshot order.
    pub fn suspects(&self) -> Vec<&QErrorSketch> {
        self.qerror.iter().filter(|e| e.suspect).collect()
    }

    /// One fingerprint's heal record, if the serving layer attempted any
    /// healing for it.
    pub fn heal_for(&self, fp: u64) -> Option<&HealRecord> {
        self.heal.iter().find(|h| h.fp == fp)
    }

    /// Requests per second over this snapshot's window (lifetime for a
    /// point-in-time snapshot, the interval for a delta).
    pub fn requests_per_sec(&self) -> f64 {
        let reqs = self.counters[Metric::Requests];
        let secs = self.uptime_nanos as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            reqs as f64 / secs
        }
    }

    /// Serialize losslessly (histograms carry their buckets).
    pub fn to_json(&self) -> String {
        let mut counters = JsonObj::new();
        for (m, v) in self.counters.iter() {
            counters = counters.u64(m.name(), v);
        }
        let mut latency = JsonObj::new();
        for p in LatencyPath::ALL {
            latency = latency.raw(p.name(), &self.latency[p].to_json_full());
        }
        let topk: Vec<String> = self
            .topk
            .iter()
            .map(|e| {
                JsonObj::new()
                    .u64("fp", e.fp)
                    .u64("count", e.count)
                    .u64("err", e.err)
                    .u64("nanos", e.nanos)
                    .u64("last_epoch", e.last_epoch)
                    .finish()
            })
            .collect();
        let qerror: Vec<String> = self
            .qerror
            .iter()
            .map(|e| {
                JsonObj::new()
                    .u64("fp", e.fp)
                    .u64("runs", e.runs)
                    .u64("q_runs", e.q_runs)
                    .u64("qlog_sum_micro", e.qlog_sum_micro)
                    .u64("qlog_max_micro", e.qlog_max_micro)
                    .u64("est_rows", e.est_rows)
                    .u64("actual_min", e.actual_min)
                    .u64("actual_max", e.actual_max)
                    .raw("nanos", &e.nanos.to_json_full())
                    .u64("last_epoch", e.last_epoch)
                    .bool("suspect", e.suspect)
                    .finish()
            })
            .collect();
        let mut phases = JsonObj::new();
        for p in Phase::ALL {
            let (nanos, count) = self.phases[p];
            phases = phases.raw(
                p.name(),
                &JsonObj::new()
                    .u64("nanos", nanos)
                    .u64("count", count)
                    .finish(),
            );
        }
        let span_store = JsonObj::new()
            .u64("resident", self.span_resident)
            .u64("capacity", self.span_capacity)
            .u64("evicted", self.span_evicted);
        let heal: Vec<String> = self.heal.iter().map(HealRecord::to_json).collect();
        JsonObj::new()
            .u64("version", 4)
            .u64("uptime_nanos", self.uptime_nanos)
            .raw("counters", &counters.finish())
            .raw("latency", &latency.finish())
            .raw("topk", &format!("[{}]", topk.join(",")))
            .raw("qerror", &format!("[{}]", qerror.join(",")))
            .raw("phases", &phases.finish())
            .raw("span_store", &span_store.finish())
            .raw("heal", &format!("[{}]", heal.join(",")))
            .finish()
    }

    /// Parse the [`Self::to_json`] form back. Only the current version (4)
    /// loads, with every section present. A counter, path or phase name
    /// this build does not know is dropped, not an error (snapshots written
    /// before one was retired still load); one this build knows but the
    /// document lacks reads as zero.
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
        let v = parse_json(text).map_err(|e| format!("snapshot JSON: {e}"))?;
        match v.get("version").and_then(JsonValue::as_u64) {
            Some(4) => {}
            Some(n) => return Err(format!("snapshot version {n} is not supported (want 4)")),
            None => return Err("snapshot missing version".to_string()),
        }
        let uptime_nanos = v
            .get("uptime_nanos")
            .and_then(JsonValue::as_u64)
            .ok_or("snapshot missing uptime_nanos")?;
        let mut counters = Counters::default();
        for (k, c) in v
            .get("counters")
            .and_then(JsonValue::fields)
            .ok_or("snapshot missing counters")?
        {
            if let Some(m) = Metric::from_name(k) {
                counters[m] = c
                    .as_u64()
                    .ok_or_else(|| format!("counter {k} is not a u64"))?;
            }
        }
        let mut latency: [Histogram; LatencyPath::COUNT] = Default::default();
        for (k, h) in v
            .get("latency")
            .and_then(JsonValue::fields)
            .ok_or("snapshot missing latency")?
        {
            if let Some(p) = LatencyPath::from_name(k) {
                latency[p] = Histogram::from_json_value(h)
                    .ok_or_else(|| format!("latency {k} is not a full histogram"))?;
            }
        }
        let topk = match v.get("topk") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|e| {
                    let f = |k: &str| e.get(k).and_then(JsonValue::as_u64);
                    Some(HotQuery {
                        fp: f("fp")?,
                        count: f("count")?,
                        err: f("err")?,
                        nanos: f("nanos")?,
                        last_epoch: f("last_epoch")?,
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed topk entry")?,
            _ => return Err("snapshot missing topk".to_string()),
        };
        let qerror = match v.get("qerror") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|e| {
                    let f = |k: &str| e.get(k).and_then(JsonValue::as_u64);
                    Some(QErrorSketch {
                        fp: f("fp")?,
                        runs: f("runs")?,
                        q_runs: f("q_runs")?,
                        qlog_sum_micro: f("qlog_sum_micro")?,
                        qlog_max_micro: f("qlog_max_micro")?,
                        est_rows: f("est_rows")?,
                        actual_min: f("actual_min")?,
                        actual_max: f("actual_max")?,
                        nanos: e.get("nanos").and_then(Histogram::from_json_value)?,
                        last_epoch: f("last_epoch")?,
                        suspect: e.get("suspect").and_then(JsonValue::as_bool)?,
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed qerror entry")?,
            _ => return Err("snapshot missing qerror".to_string()),
        };
        let mut phases = [(0, 0); Phase::COUNT];
        for (k, p) in v
            .get("phases")
            .and_then(JsonValue::fields)
            .ok_or("snapshot missing phases")?
        {
            let f = |key: &str| p.get(key).and_then(JsonValue::as_u64);
            let reading = f("nanos").zip(f("count")).ok_or("malformed phase entry")?;
            if let Some(phase) = Phase::from_name(k) {
                phases[phase] = reading;
            }
        }
        let span_store = v.get("span_store").ok_or("snapshot missing span_store")?;
        let span = |k: &str| {
            span_store
                .get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("span_store {k} is not a u64"))
        };
        let heal = match v.get("heal") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(HealRecord::from_json_value)
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed heal entry")?,
            _ => return Err("snapshot missing heal".to_string()),
        };
        Ok(TelemetrySnapshot {
            uptime_nanos,
            counters,
            latency,
            topk,
            qerror,
            phases,
            span_resident: span("resident")?,
            span_capacity: span("capacity")?,
            span_evicted: span("evicted")?,
            heal,
        })
    }

    /// Prometheus text exposition format (0.0.4): counters as `_total`
    /// counters, latency paths as summaries (quantiles + sum + count), the
    /// top-K as labeled gauges. Values are nanoseconds where the name says
    /// so — unit conversion belongs to the scrape config, not the emitter.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE starqo_uptime_nanos gauge\n");
        out.push_str(&format!("starqo_uptime_nanos {}\n", self.uptime_nanos));
        for (m, v) in self.counters.iter() {
            let k = m.name();
            out.push_str(&format!("# TYPE starqo_{k}_total counter\n"));
            out.push_str(&format!("starqo_{k}_total {v}\n"));
        }
        out.push_str("# TYPE starqo_latency_nanos summary\n");
        for p in LatencyPath::ALL {
            let (path, h) = (p.name(), &self.latency[p]);
            for (q, val) in [
                ("0.5", h.p50()),
                ("0.9", h.p90()),
                ("0.99", h.p99()),
                ("0.999", h.p999()),
            ] {
                out.push_str(&format!(
                    "starqo_latency_nanos{{path=\"{path}\",quantile=\"{q}\"}} {}\n",
                    val.unwrap_or(0)
                ));
            }
            out.push_str(&format!(
                "starqo_latency_nanos_sum{{path=\"{path}\"}} {}\n",
                u64::try_from(h.sum()).unwrap_or(u64::MAX)
            ));
            out.push_str(&format!(
                "starqo_latency_nanos_count{{path=\"{path}\"}} {}\n",
                h.count()
            ));
        }
        // The same data as a standard Prometheus histogram: cumulative
        // `le` buckets (log₂ bounds) ending in +Inf, plus _sum/_count.
        out.push_str("# TYPE starqo_latency_hist_nanos histogram\n");
        for p in LatencyPath::ALL {
            let (path, h) = (p.name(), &self.latency[p]);
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            for (b, &n) in counts.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                out.push_str(&format!(
                    "starqo_latency_hist_nanos_bucket{{path=\"{path}\",le=\"{}\"}} {cumulative}\n",
                    Histogram::bucket_bounds(b).1
                ));
            }
            out.push_str(&format!(
                "starqo_latency_hist_nanos_bucket{{path=\"{path}\",le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "starqo_latency_hist_nanos_sum{{path=\"{path}\"}} {}\n",
                u64::try_from(h.sum()).unwrap_or(u64::MAX)
            ));
            out.push_str(&format!(
                "starqo_latency_hist_nanos_count{{path=\"{path}\"}} {}\n",
                h.count()
            ));
        }
        out.push_str("# TYPE starqo_phase_nanos counter\n");
        out.push_str("# TYPE starqo_phase_count counter\n");
        for p in Phase::ALL {
            let (name, (nanos, count)) = (p.name(), self.phases[p]);
            out.push_str(&format!("starqo_phase_nanos{{phase=\"{name}\"}} {nanos}\n"));
            out.push_str(&format!("starqo_phase_count{{phase=\"{name}\"}} {count}\n"));
        }
        if self.span_capacity > 0 {
            out.push_str("# TYPE starqo_span_store_resident gauge\n");
            out.push_str(&format!(
                "starqo_span_store_resident {}\n",
                self.span_resident
            ));
            out.push_str("# TYPE starqo_span_store_capacity gauge\n");
            out.push_str(&format!(
                "starqo_span_store_capacity {}\n",
                self.span_capacity
            ));
            out.push_str("# TYPE starqo_span_store_evicted_total counter\n");
            out.push_str(&format!(
                "starqo_span_store_evicted_total {}\n",
                self.span_evicted
            ));
        }
        out.push_str("# TYPE starqo_hot_query_requests gauge\n");
        out.push_str("# TYPE starqo_hot_query_nanos gauge\n");
        for (rank, e) in self.topk.iter().enumerate() {
            let labels = format!("fp=\"{:#018x}\",rank=\"{}\"", e.fp, rank + 1);
            out.push_str(&format!(
                "starqo_hot_query_requests{{{labels}}} {}\n",
                e.count
            ));
            out.push_str(&format!("starqo_hot_query_nanos{{{labels}}} {}\n", e.nanos));
        }
        if !self.qerror.is_empty() {
            out.push_str("# TYPE starqo_plan_qerror_geomean gauge\n");
            out.push_str("# TYPE starqo_plan_qerror_max gauge\n");
            out.push_str("# TYPE starqo_plan_qerror_runs gauge\n");
            out.push_str("# TYPE starqo_plan_suspect gauge\n");
            for e in &self.qerror {
                let labels = format!("fp=\"{:#018x}\"", e.fp);
                out.push_str(&format!(
                    "starqo_plan_qerror_geomean{{{labels}}} {}\n",
                    crate::json::num(e.geomean_q().unwrap_or(1.0))
                ));
                out.push_str(&format!(
                    "starqo_plan_qerror_max{{{labels}}} {}\n",
                    crate::json::num(e.max_q().unwrap_or(1.0))
                ));
                out.push_str(&format!("starqo_plan_qerror_runs{{{labels}}} {}\n", e.runs));
                out.push_str(&format!(
                    "starqo_plan_suspect{{{labels}}} {}\n",
                    u64::from(e.suspect)
                ));
            }
        }
        if !self.heal.is_empty() {
            out.push_str("# TYPE starqo_heal_attempts gauge\n");
            out.push_str("# TYPE starqo_heal_swaps gauge\n");
            out.push_str("# TYPE starqo_heal_pins gauge\n");
            out.push_str("# TYPE starqo_heal_retry_capped gauge\n");
            for h in &self.heal {
                let labels = format!("fp=\"{:#018x}\"", h.fp);
                out.push_str(&format!(
                    "starqo_heal_attempts{{{labels}}} {}\n",
                    h.attempts
                ));
                out.push_str(&format!("starqo_heal_swaps{{{labels}}} {}\n", h.swaps));
                out.push_str(&format!("starqo_heal_pins{{{labels}}} {}\n", h.pins));
                out.push_str(&format!(
                    "starqo_heal_retry_capped{{{labels}}} {}\n",
                    u64::from(h.retry_capped)
                ));
            }
        }
        out
    }

    /// The interval view: what happened between `prev` and `self`
    /// (counters subtract, histogram buckets subtract, top-K counts
    /// subtract for fingerprints present in both). `self` must be the
    /// later snapshot of the same plane; values saturate at zero if not.
    /// Interval histogram min/max are approximated from the surviving
    /// bucket bounds (exact min/max are not recoverable from two
    /// endpoints).
    pub fn delta_since(&self, prev: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut counters = self.counters;
        for m in Metric::ALL {
            counters[m] = counters[m].saturating_sub(prev.counters[m]);
        }
        let latency = LatencyPath::ALL.map(|p| hist_delta(&self.latency[p], &prev.latency[p]));
        let topk: Vec<HotQuery> = self
            .topk
            .iter()
            .filter_map(|e| {
                let (pc, pn) = prev
                    .topk
                    .iter()
                    .find(|p| p.fp == e.fp)
                    .map(|p| (p.count, p.nanos))
                    .unwrap_or((0, 0));
                (e.count > pc).then(|| HotQuery {
                    fp: e.fp,
                    count: e.count - pc,
                    err: e.err,
                    nanos: e.nanos - pn.min(e.nanos),
                    last_epoch: e.last_epoch,
                })
            })
            .collect();
        let qerror: Vec<QErrorSketch> = self
            .qerror
            .iter()
            .filter_map(|e| {
                let base = prev.qerror_for(e.fp);
                let (pr, ps) = base.map(|p| (p.runs, p.qlog_sum_micro)).unwrap_or((0, 0));
                (e.runs > pr).then(|| QErrorSketch {
                    fp: e.fp,
                    runs: e.runs - pr,
                    q_runs: e.q_runs.saturating_sub(base.map(|p| p.q_runs).unwrap_or(0)),
                    qlog_sum_micro: e.qlog_sum_micro.saturating_sub(ps),
                    // Max/min folds and the epoch-keyed estimate are not
                    // interval-decomposable; the later snapshot's values
                    // are the correct bounds for the window.
                    qlog_max_micro: e.qlog_max_micro,
                    est_rows: e.est_rows,
                    actual_min: e.actual_min,
                    actual_max: e.actual_max,
                    nanos: base
                        .map(|p| hist_delta(&e.nanos, &p.nanos))
                        .unwrap_or_else(|| e.nanos.clone()),
                    last_epoch: e.last_epoch,
                    suspect: e.suspect,
                })
            })
            .collect();
        // Phase nanos/counts are monotonic: subtract pairwise.
        let phases = Phase::ALL.map(|p| {
            let ((nanos, count), (pn, pc)) = (self.phases[p], prev.phases[p]);
            (nanos.saturating_sub(pn), count.saturating_sub(pc))
        });
        TelemetrySnapshot {
            uptime_nanos: self.uptime_nanos.saturating_sub(prev.uptime_nanos),
            counters,
            latency,
            topk,
            qerror,
            phases,
            // Occupancy is a gauge (the later absolute is the interval's
            // truth); evictions are monotonic.
            span_resident: self.span_resident,
            span_capacity: self.span_capacity,
            span_evicted: self.span_evicted.saturating_sub(prev.span_evicted),
            // Heal tallies subtract; a fingerprint absent earlier deltas
            // from zero.
            heal: self
                .heal
                .iter()
                .map(|h| match prev.heal_for(h.fp) {
                    Some(p) => h.delta_since(p),
                    None => h.clone(),
                })
                .collect(),
        }
    }
}

/// Bucket-wise histogram subtraction. Min/max of the interval are
/// approximated by the bounds of the extremal non-empty delta buckets,
/// tightened by the later snapshot's observed range.
fn hist_delta(cur: &Histogram, prev: &Histogram) -> Histogram {
    let (cc, pc) = (cur.bucket_counts(), prev.bucket_counts());
    let mut counts = [0u64; BUCKETS];
    for b in 0..BUCKETS {
        counts[b] = cc[b].saturating_sub(pc[b]);
    }
    let lo_bucket = counts.iter().position(|&c| c > 0);
    let hi_bucket = counts.iter().rposition(|&c| c > 0);
    let (Some(lo), Some(hi)) = (lo_bucket, hi_bucket) else {
        return Histogram::default();
    };
    let min = Histogram::bucket_bounds(lo).0.max(cur.min().unwrap_or(0));
    let max = Histogram::bucket_bounds(hi)
        .1
        .min(cur.max().unwrap_or(u64::MAX));
    Histogram::from_raw(counts, cur.sum().saturating_sub(prev.sum()), min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut opt = Histogram::new();
        let mut e2e = Histogram::new();
        for v in [1_000u64, 2_000, 4_000, 150_000] {
            opt.record(v);
        }
        for v in [500u64, 600, 700, 5_000, 160_000] {
            e2e.record(v);
        }
        let mut phases = [(0, 0); Phase::COUNT];
        phases[Phase::Prepare] = (40_000, 100);
        phases[Phase::Enumerate] = (900_000, 5);
        phases[Phase::Execute] = (700_000, 95);
        TelemetrySnapshot {
            uptime_nanos: 2_000_000_000,
            counters: counters(100, 90, 5, 5),
            latency: [opt, Histogram::new(), Histogram::new(), e2e],
            phases,
            span_resident: 2,
            span_capacity: 64,
            span_evicted: 1,
            topk: vec![
                HotQuery {
                    fp: 0xDEAD_BEEF,
                    count: 60,
                    err: 0,
                    nanos: 90_000,
                    last_epoch: 2,
                },
                HotQuery {
                    fp: 7,
                    count: 40,
                    err: 3,
                    nanos: 70_000,
                    last_epoch: 1,
                },
            ],
            qerror: vec![sample_sketch()],
            heal: vec![HealRecord {
                fp: 0xDEAD_BEEF,
                epoch: 2,
                attempts: 2,
                swaps: 1,
                pins: 1,
                backoff_hits: 3,
                retry_capped: false,
                last_reason: "swapped".into(),
                backoff_until_nanos: 0,
            }],
        }
    }

    fn counters(requests: u64, hit: u64, coalesced: u64, miss: u64) -> Counters {
        let mut c = Counters::default();
        c[Metric::Requests] = requests;
        c[Metric::CacheHit] = hit;
        c[Metric::CacheCoalesced] = coalesced;
        c[Metric::CacheMiss] = miss;
        c
    }

    fn sample_sketch() -> QErrorSketch {
        let plane = crate::telemetry::qerror::FeedbackPlane::new(
            1,
            4,
            crate::telemetry::qerror::SuspectConfig {
                min_runs: 2,
                ..Default::default()
            },
        );
        for (est, actual, nanos) in [
            (100u64, 400u64, 3_000u64),
            (100, 800, 4_000),
            (100, 400, 3_500),
        ] {
            plane.record(0xDEAD_BEEF, est, actual, nanos, 2);
        }
        plane.snapshot().remove(0)
    }

    #[test]
    fn json_roundtrips_exactly() {
        let snap = sample_snapshot();
        let parsed = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn derived_rates_are_hand_computable() {
        let snap = sample_snapshot();
        assert!((snap.counters.hit_ratio() - 0.95).abs() < 1e-9);
        assert!((snap.requests_per_sec() - 50.0).abs() < 1e-9);
        assert_eq!(snap.counters[Metric::Requests], 100);
        assert_eq!(Counters::default().hit_ratio(), 0.0);
    }

    #[test]
    fn prometheus_exposition_contains_every_series() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("starqo_serve_requests_total 100"));
        assert!(text.contains("starqo_latency_nanos{path=\"optimize\",quantile=\"0.99\"}"));
        assert!(text.contains("starqo_latency_nanos_count{path=\"end_to_end\"} 5"));
        assert!(text.contains("starqo_latency_hist_nanos_bucket{path=\"optimize\",le=\"+Inf\"} 4"));
        assert!(text.contains("starqo_latency_hist_nanos_count{path=\"optimize\"} 4"));
        assert!(text.contains("starqo_hot_query_requests{fp=\"0x00000000deadbeef\",rank=\"1\"} 60"));
        assert!(text.contains("starqo_plan_qerror_runs{fp=\"0x00000000deadbeef\"} 3"));
        assert!(text.contains("starqo_plan_suspect{fp=\"0x00000000deadbeef\"} 1"));
        assert!(text.contains("starqo_heal_swaps{fp=\"0x00000000deadbeef\"} 1"));
        assert!(text.contains("starqo_heal_retry_capped{fp=\"0x00000000deadbeef\"} 0"));
        assert!(text.contains("starqo_phase_nanos{phase=\"enumerate\"} 900000"));
        assert!(text.contains("starqo_phase_count{phase=\"execute\"} 95"));
        assert!(text.contains("starqo_span_store_resident 2"));
        assert!(text.contains("starqo_span_store_evicted_total 1"));
        // Every non-comment line is `name{labels} value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line}"));
        }
    }

    #[test]
    fn delta_subtracts_counters_histograms_and_topk() {
        let later = sample_snapshot();
        let mut earlier = sample_snapshot();
        earlier.uptime_nanos = 1_000_000_000;
        earlier.counters = counters(40, 36, 2, 2);
        // Earlier optimize histogram: the first two observations.
        let mut opt = Histogram::new();
        opt.record(1_000);
        opt.record(2_000);
        earlier.latency = [opt, Histogram::new(), Histogram::new(), Histogram::new()];
        earlier.topk = vec![HotQuery {
            fp: 0xDEAD_BEEF,
            count: 25,
            err: 0,
            nanos: 40_000,
            last_epoch: 1,
        }];

        let d = later.delta_since(&earlier);
        assert_eq!(d.uptime_nanos, 1_000_000_000);
        assert_eq!(d.counters[Metric::Requests], 60);
        assert!((d.requests_per_sec() - 60.0).abs() < 1e-9);
        let opt = &d.latency[LatencyPath::Optimize];
        assert_eq!(opt.count(), 2);
        assert_eq!(opt.sum(), 4_000 + 150_000);
        // The interval's two observations: 4_000 (bucket 12) and 150_000.
        assert_eq!(opt.quantile(0.0), Some(Histogram::bucket_bounds(12).1));
        let hot = &d.topk[0];
        assert_eq!((hot.fp, hot.count, hot.nanos), (0xDEAD_BEEF, 35, 50_000));
        // fp 7 absent earlier: full count survives the delta.
        assert_eq!(d.topk[1].count, 40);
    }

    #[test]
    fn retired_counter_names_are_ignored_not_rejected() {
        // A snapshot from before the serve path had one executor.
        let text = r#"{"version":4,"uptime_nanos":5,"counters":{"serve_requests":2,"vexec_fallbacks":7,"vexec_rows":9},"latency":{},"topk":[],"qerror":[],"phases":{},"span_store":{"resident":0,"capacity":0,"evicted":0},"heal":[]}"#;
        let parsed = TelemetrySnapshot::from_json(text).expect("old snapshot loads");
        assert_eq!(parsed.counters[Metric::Requests], 2);
        assert_eq!(parsed.counters[Metric::VexecRows], 9);
        // Known counters the document lacks read as zero.
        assert_eq!(parsed.counters.iter().map(|(_, v)| v).sum::<u64>(), 11);
    }

    #[test]
    fn delta_subtracts_phases_and_keeps_span_gauges() {
        let later = sample_snapshot();
        let mut earlier = sample_snapshot();
        earlier.phases = [(0, 0); Phase::COUNT];
        earlier.phases[Phase::Prepare] = (10_000, 30);
        earlier.span_evicted = 0;
        let d = later.delta_since(&earlier);
        assert_eq!(d.phases[Phase::Prepare], (30_000, 70));
        // Phases absent from the earlier snapshot delta from zero.
        assert_eq!(d.phases[Phase::Enumerate], (900_000, 5));
        assert_eq!(d.span_evicted, 1);
        assert_eq!((d.span_resident, d.span_capacity), (2, 64));
    }

    #[test]
    fn delta_subtracts_heal_tallies() {
        let later = sample_snapshot();
        let mut earlier = sample_snapshot();
        earlier.heal[0].swaps = 0;
        earlier.heal[0].pins = 0;
        earlier.heal[0].backoff_hits = 1;
        let d = later.delta_since(&earlier);
        let h = d.heal_for(0xDEAD_BEEF).expect("heal delta");
        assert_eq!((h.swaps, h.pins, h.backoff_hits), (1, 1, 2));
        // Absent earlier: the full record survives the delta.
        earlier.heal.clear();
        let d = later.delta_since(&earlier);
        assert_eq!(d.heal, later.heal);
    }

    #[test]
    fn delta_drops_unchanged_sketches_and_subtracts_run_counts() {
        let later = sample_snapshot();
        let mut earlier = sample_snapshot();
        // Earlier saw only the first run of the sketch's three.
        earlier.qerror[0].runs = 1;
        earlier.qerror[0].qlog_sum_micro = 2_000_000;
        let d = later.delta_since(&earlier);
        assert_eq!(d.qerror.len(), 1);
        assert_eq!(d.qerror[0].runs, 2);
        assert_eq!(
            d.qerror[0].qlog_sum_micro,
            later.qerror[0].qlog_sum_micro - 2_000_000
        );
        // Identical endpoints: the sketch vanishes from the interval.
        let none = later.delta_since(&later);
        assert!(none.qerror.is_empty());
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(TelemetrySnapshot::from_json("not json").is_err());
        assert!(TelemetrySnapshot::from_json(r#"{"version":4}"#).is_err());
        assert!(TelemetrySnapshot::from_json(
            r#"{"version":4,"uptime_nanos":1,"counters":{"x":1},"latency":{},"topk":[{"fp":1}]}"#
        )
        .is_err());
    }

    #[test]
    fn from_json_loads_only_complete_version4_documents() {
        let full = sample_snapshot().to_json();
        // Any other version is refused, by number.
        for old in ["1", "3", "5"] {
            let text = full.replace("\"version\":4", &format!("\"version\":{old}"));
            let err = TelemetrySnapshot::from_json(&text).unwrap_err();
            assert!(err.contains(&format!("version {old}")), "{err}");
        }
        let unversioned = full.replace("\"version\":4,", "");
        assert!(TelemetrySnapshot::from_json(&unversioned).is_err());
        // Every v4 section is required.
        for key in ["qerror", "phases", "span_store", "heal"] {
            let at = full.find(&format!(",\"{key}\"")).expect("key");
            let truncated = format!("{}}}", &full[..at]);
            let err = TelemetrySnapshot::from_json(&truncated).unwrap_err();
            assert!(err.contains("missing"), "{key}: {err}");
        }
        let windowless = full.replace(",\"q_runs\":3", "");
        assert!(TelemetrySnapshot::from_json(&windowless).is_err());
    }
}

//! The metric tables — name, unit, direction, bound — and everything that
//! prints them: the driver's result line, `BENCHMARK.json`, the tables a
//! person reads.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`perf manifest`) and a test keeps the two equal.

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

/// Seconds one run measures; split evenly over [`REPS`] repetitions.
pub const RUN_SECONDS: u64 = 18;
/// Repetitions per run, each in a fresh child process; a run reports the
/// median.
pub const REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a caller of the service sees. The same names on every workload.
/// Failures are not a metric here: a metric must never be 0, so they travel
/// in the result line's `attempted` / `failed` / `correct` instead.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// One layer each, timed from outside around its public calls. Times are
/// means per call unless the name says otherwise; a metric that does not
/// apply to a workload (nothing executed, nothing missed) reads 0.
pub const PER_LAYER: [PerLayer; 44] = [
    layer("query.parse_ns", "ns", Lower),
    layer("query.parse_allocs", "count", Lower),
    layer("query.fingerprint_ns", "ns", Lower),
    layer("query.fingerprint_allocs", "count", Lower),
    layer("serve.hit_ns", "ns", Lower),
    layer("serve.hit_allocs", "count", Lower),
    layer("serve.unattributed_ns", "ns", Lower),
    layer("serve.miss_overhead_ns", "ns", Lower),
    layer("serve.evictions", "count", Lower),
    layer("serve.invalidations", "count", Lower),
    layer("serve.coalesced", "count", Lower),
    layer("serve.hit_ratio", "ratio", Higher),
    layer("serve.failed", "count", Lower),
    layer("core.optimize_ns", "ns", Lower),
    layer("core.optimize_allocs", "count", Lower),
    layer("core.plans_built", "count", Lower),
    layer("core.ns_per_plan", "ns", Lower),
    layer("core.allocs_per_plan", "count", Lower),
    layer("core.star_refs", "count", Lower),
    layer("core.glue_refs", "count", Lower),
    layer("core.memo_hit_ratio", "ratio", Higher),
    layer("core.enumerate_ns", "ns", Lower),
    layer("core.glue_ns", "ns", Lower),
    layer("core.compile_ns", "ns", Lower),
    layer("dsl.compile_ns", "ns", Lower),
    layer("dsl.compile_allocs", "count", Lower),
    layer("catalog.epoch_bump_ns", "ns", Lower),
    layer("catalog.snapshot_ns", "ns", Lower),
    layer("exec.run_ns", "ns", Lower),
    layer("exec.allocs", "count", Lower),
    layer("exec.rows_in_per_s", "1/s", Higher),
    layer("exec.failed", "count", Lower),
    layer("vexec.run_ns", "ns", Lower),
    layer("vexec.run1_ns", "ns", Lower),
    layer("vexec.allocs", "count", Lower),
    layer("vexec.batches", "count", Lower),
    layer("vexec.rows_per_s", "1/s", Higher),
    layer("vexec.supported_ratio", "ratio", Higher),
    layer("vexec.speedup_vs_exec", "ratio", Higher),
    layer("storage.load_rows_per_s", "1/s", Higher),
    layer("storage.scan_rows_per_s", "1/s", Higher),
    layer("storage.probe_ns", "ns", Lower),
    layer("trace.snapshot_ns", "ns", Lower),
    layer("perf.trace_overhead_ratio", "ratio", Lower),
];

/// Named values in a fixed order.
pub type Metrics = Vec<(&'static str, f64)>;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The one-object result line the benchmark contract asks for. Callers
/// refuse non-finite values first; `{value}` prints every digit measured.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: cargo run --manifest-path perf/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract() {
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid(n)), "{names:?}");
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
        // 4 + 22 x workloads runs, each REPS children, must fit 3420 s with
        // two builds; 8 s per run is this benchmark's own overhead.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 8) + 120 <= 3420);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(10, 0, &vec![("setup_s", 0.25), ("req_per_s", 1e6)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"req_per_s\": {\"value\": 1000000, \"unit\": \"1/s\"}}}"
        );
    }
}

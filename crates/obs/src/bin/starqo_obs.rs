//! Trace-analytics CLI.
//!
//! ```text
//! starqo-obs profile  <trace.jsonl>                 rule-level profile
//! starqo-obs flame    <trace.jsonl> [--folded]      expansion flamegraph
//! starqo-obs diff     <a.jsonl> <b.jsonl>           compare two runs
//! starqo-obs accuracy <trace.jsonl> [--json <out>]  est-vs-actual Q-error
//! starqo-obs calibrate <trace.jsonl> [--out <file>] fit a cost profile
//! starqo-obs gate     <baseline.json> <fresh.json>  bench regression gate
//! starqo-obs live     <snapshot.json>               live-telemetry dashboard
//!                     [--since <prev.json>] [--prom]
//! starqo-obs watch    <snapshot.json>               refreshing dashboard + trends
//!                     [--interval-ms N] [--once] [--json]
//! starqo-obs doctor   <snapshot.json>               one-shot health verdict
//!                     [--enforce] [--json <out>]
//! starqo-obs spans    <spans.jsonl>                 retained-request table
//!                     [--limit N] [--chrome <out.json>]
//! starqo-obs timeline <spans.jsonl> --request <id>  per-request waterfall
//! ```
//!
//! `gate` reports every violation and exits 1 on a deterministic
//! work-counter violation; wall-clock regressions stay report-only (CI
//! machines are noisy, counters aren't).

use std::process::ExitCode;

use starqo_obs::{
    calibrate, gate, AccuracyReport, Diagnosis, FlameTree, LiveReport, Profile, SpanReport,
    TraceDiff, Watcher,
};
use starqo_trace::{load_jsonl, read_span_trees, to_chrome_trace, TelemetrySnapshot, TraceEvent};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut folded = false;
    let mut enforce = false;
    let mut json_out: Option<&str> = None;
    let mut profile_out: Option<&str> = None;
    let mut since: Option<&str> = None;
    let mut prom = false;
    let mut once = false;
    let mut interval_ms: u64 = 2_000;
    let mut chrome_out: Option<&str> = None;
    let mut request_id: Option<u64> = None;
    let mut limit: usize = 20;
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--folded" => folded = true,
            "--enforce" => enforce = true,
            "--prom" => prom = true,
            "--once" => once = true,
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => interval_ms = v,
                None => return usage("--interval-ms needs a number"),
            },
            "--since" => match it.next() {
                Some(p) => since = Some(p),
                None => return usage("--since needs a path"),
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(p),
                None => return usage("--json needs a path"),
            },
            "--out" => match it.next() {
                Some(p) => profile_out = Some(p),
                None => return usage("--out needs a path"),
            },
            "--chrome" => match it.next() {
                Some(p) => chrome_out = Some(p),
                None => return usage("--chrome needs a path"),
            },
            "--request" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => request_id = Some(v),
                None => return usage("--request needs a request id"),
            },
            "--limit" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => limit = v,
                None => return usage("--limit needs a number"),
            },
            "-h" | "--help" => return usage(""),
            _ if a.starts_with('-') => return usage(&format!("unknown flag {a}")),
            _ => positional.push(a),
        }
    }

    match positional.as_slice() {
        ["profile", path] => with_trace(path, |events| {
            print!("{}", Profile::from_events(&events).render());
            ExitCode::SUCCESS
        }),
        ["flame", path] => with_trace(path, |events| {
            let tree = FlameTree::from_events(&events);
            if folded {
                print!("{}", tree.folded());
            } else {
                print!("{}", tree.render());
            }
            ExitCode::SUCCESS
        }),
        ["diff", a, b] => with_trace(a, |ea| {
            with_trace(b, |eb| {
                let d = TraceDiff::compare(&ea, &eb);
                print!("{}", d.render());
                ExitCode::SUCCESS
            })
        }),
        ["accuracy", path] => with_trace(path, |events| {
            let report = AccuracyReport::from_events(&events);
            print!("{}", report.render());
            if let Some(p) = json_out {
                if let Err(e) = std::fs::write(p, report.to_json() + "\n") {
                    eprintln!("starqo-obs accuracy: cannot write {p}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("json report written to {p}");
            }
            ExitCode::SUCCESS
        }),
        ["calibrate", path] => with_trace(path, |events| {
            let report = AccuracyReport::from_events(&events);
            match calibrate::fit(&calibrate::samples(&report)) {
                Ok(f) => {
                    print!("{}", f.render());
                    let out = profile_out.unwrap_or("cost_profile.json");
                    if let Err(e) = f.profile.save(out) {
                        eprintln!("starqo-obs calibrate: cannot write {out}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("profile written to {out} (use via STARQO_COST_PROFILE={out})");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("starqo-obs calibrate: {e}");
                    ExitCode::FAILURE
                }
            }
        }),
        ["gate", baseline, fresh] => {
            let read =
                |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
            match read(baseline).and_then(|b| gate(&b, &read(fresh)?)) {
                Ok(r) => {
                    print!("{}", r.render());
                    if !r.counters_passed() {
                        return ExitCode::FAILURE;
                    }
                    if !r.passed() {
                        println!("(wall-clock only: report-only)");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("starqo-obs gate: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ["live", path] => {
            let run = || -> Result<String, String> {
                let current = load_snapshot(path)?;
                let report = match since {
                    Some(prev) => LiveReport::since(&current, &load_snapshot(prev)?),
                    None => LiveReport::new(current),
                };
                Ok(if prom {
                    report.snapshot().to_prometheus()
                } else {
                    report.render()
                })
            };
            match run() {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("starqo-obs live: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ["watch", path] => {
            let mut w = Watcher::new(32);
            loop {
                let snap = match load_snapshot(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("starqo-obs watch: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Some(out) = json_out {
                    // Machine-readable tap: the latest absolute snapshot.
                    if let Err(e) = std::fs::write(out, snap.to_json() + "\n") {
                        eprintln!("starqo-obs watch: cannot write {out}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                let frame = w.tick(snap);
                if once {
                    print!("{frame}");
                    return ExitCode::SUCCESS;
                }
                // Clear and redraw, terminal-dashboard style.
                print!("\x1b[2J\x1b[H{frame}");
                std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
            }
        }
        ["doctor", path] => match load_snapshot(path).map(|s| Diagnosis::from_snapshot(&s)) {
            Ok(d) => {
                print!("{}", d.render());
                if let Some(p) = json_out {
                    if let Err(e) = std::fs::write(p, d.to_json() + "\n") {
                        eprintln!("starqo-obs doctor: cannot write {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("json verdict written to {p}");
                }
                if enforce && d.crit_count() > 0 {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("starqo-obs doctor: {e}");
                ExitCode::FAILURE
            }
        },
        ["spans", path] => with_spans(path, |trees| {
            if let Some(p) = chrome_out {
                if let Err(e) = std::fs::write(p, to_chrome_trace(&trees) + "\n") {
                    eprintln!("starqo-obs spans: cannot write {p}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("chrome trace written to {p}");
            }
            print!("{}", SpanReport::new(trees).render_table(limit));
            ExitCode::SUCCESS
        }),
        ["timeline", path] => with_spans(path, |trees| {
            let report = SpanReport::new(trees);
            // Default to the slowest retained request (display order).
            let id = request_id
                .or_else(|| report.trees().first().map(|t| t.request_id))
                .unwrap_or(0);
            match report.render_waterfall(id) {
                Some(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!(
                        "starqo-obs timeline: request {id} not retained ({} tree(s) in {path})",
                        report.trees().len()
                    );
                    ExitCode::FAILURE
                }
            }
        }),
        _ => usage("expected a subcommand"),
    }
}

/// Read and parse one exported telemetry snapshot.
fn load_snapshot(path: &str) -> Result<TelemetrySnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TelemetrySnapshot::from_json(&text)
}

/// Load a span-tree JSONL file and hand it to `f`; unparsable lines are
/// skipped with a note on stderr.
fn with_spans(path: &str, f: impl FnOnce(Vec<starqo_trace::SpanTree>) -> ExitCode) -> ExitCode {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let (trees, skipped) = read_span_trees(&text);
            if skipped > 0 {
                eprintln!("starqo-obs: skipped {skipped} unparsable line(s) in {path}");
            }
            f(trees)
        }
        Err(e) => {
            eprintln!("starqo-obs: cannot read {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load a JSONL trace and hand it to `f`; unparsable lines are skipped
/// with a note on stderr.
fn with_trace(path: &str, f: impl FnOnce(Vec<TraceEvent>) -> ExitCode) -> ExitCode {
    match load_jsonl(path) {
        Ok((events, skipped)) => {
            if skipped > 0 {
                eprintln!("starqo-obs: skipped {skipped} unparsable line(s) in {path}");
            }
            f(events)
        }
        Err(e) => {
            eprintln!("starqo-obs: cannot read {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("starqo-obs: {err}");
    }
    eprintln!(
        "usage:\n  starqo-obs profile <trace.jsonl>\n  starqo-obs flame <trace.jsonl> [--folded]\n  starqo-obs diff <a.jsonl> <b.jsonl>\n  starqo-obs accuracy <trace.jsonl> [--json <out.json>]\n  starqo-obs calibrate <trace.jsonl> [--out <profile.json>]\n  starqo-obs gate <baseline.json> <fresh.json>\n  starqo-obs live <snapshot.json> [--since <prev.json>] [--prom]\n  starqo-obs watch <snapshot.json> [--interval-ms N] [--once] [--json <out.json>]\n  starqo-obs doctor <snapshot.json> [--enforce] [--json <out.json>]\n  starqo-obs spans <spans.jsonl> [--limit N] [--chrome <out.json>]\n  starqo-obs timeline <spans.jsonl> [--request <id>]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

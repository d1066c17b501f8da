//! Trace-analytics CLI.
//!
//! ```text
//! starqo-obs profile  <trace.jsonl>                 rule-level profile
//! starqo-obs flame    <trace.jsonl> [--folded]      expansion flamegraph
//! starqo-obs diff     <a.jsonl> <b.jsonl>           compare two runs
//! starqo-obs accuracy <trace.jsonl> [--json <out>]  est-vs-actual Q-error
//! starqo-obs calibrate <trace.jsonl> [--out <file>] fit a cost profile
//! starqo-obs gate     <baseline.json> <fresh.json>  bench regression gate
//!                     [--wall-pct N] [--counter-pct N]
//!                     [--enforce | --enforce-counters]
//! starqo-obs live     <snapshot.json>               live-telemetry dashboard
//!                     [--since <prev.json>] [--prom]
//! starqo-obs live --smoke                           synthetic end-to-end check
//! starqo-obs watch    <snapshot.json>               refreshing dashboard + trends
//!                     [--interval-ms N] [--once] [--json]
//! starqo-obs watch --smoke                          synthetic watch-loop check
//! starqo-obs doctor   <snapshot.json>               one-shot health verdict
//!                     [--enforce] [--json <out>]
//! starqo-obs doctor --smoke                         synthetic doctor check
//! starqo-obs spans    <spans.jsonl>                 retained-request table
//!                     [--limit N] [--chrome <out.json>]
//! starqo-obs spans --smoke                          synthetic spans check
//! starqo-obs timeline <spans.jsonl> --request <id>  per-request waterfall
//! starqo-obs timeline --smoke                       synthetic waterfall check
//! ```
//!
//! `gate` is report-only by default (always exits 0, for observability in
//! CI logs); `--enforce` exits 1 on any violation, `--enforce-counters`
//! only on deterministic work-counter violations (wall-clock regressions
//! stay report-only — CI machines are noisy, counters aren't).

use std::process::ExitCode;

use starqo_obs::{
    calibrate, gate, smoke_sequence, smoke_snapshot, smoke_trees, AccuracyReport, Diagnosis,
    FlameTree, LiveReport, Profile, SpanReport, Thresholds, TraceDiff, Watcher,
};
use starqo_trace::{
    from_chrome_trace, load_jsonl, read_span_trees, to_chrome_trace, TelemetrySnapshot, TraceEvent,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut folded = false;
    let mut enforce = false;
    let mut enforce_counters = false;
    let mut wall_pct: Option<f64> = None;
    let mut counter_pct: Option<f64> = None;
    let mut json_out: Option<&str> = None;
    let mut profile_out: Option<&str> = None;
    let mut since: Option<&str> = None;
    let mut smoke = false;
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
            "--enforce-counters" => enforce_counters = true,
            "--smoke" => smoke = true,
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
            "--wall-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => wall_pct = Some(v),
                None => return usage("--wall-pct needs a number"),
            },
            "--counter-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => counter_pct = Some(v),
                None => return usage("--counter-pct needs a number"),
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
            let mut th = Thresholds::default();
            if let Some(v) = wall_pct {
                th.wall_pct = v;
            }
            if let Some(v) = counter_pct {
                th.counter_pct = v;
            }
            // With --enforce-counters, only deterministic work-counter
            // regressions fail the run; wall-clock-derived measurements
            // stay report-only.
            let run = || -> Result<(bool, bool), String> {
                let r = gate(&read(baseline)?, &read(fresh)?, th)?;
                print!("{}", r.render());
                Ok((r.passed(), r.counters_passed()))
            };
            match run() {
                Ok((true, _)) => ExitCode::SUCCESS,
                Ok((false, _)) if enforce => ExitCode::FAILURE,
                Ok((false, counters_ok)) if enforce_counters => {
                    if counters_ok {
                        println!("(wall-clock only: report-only under --enforce-counters)");
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Ok((false, _)) => {
                    println!(
                        "(report-only: pass --enforce or --enforce-counters to fail on violations)"
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("starqo-obs gate: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ["live"] if smoke => {
            // Synthetic end-to-end check: render the dashboard and push the
            // snapshot through both exporters and back.
            let snap = smoke_snapshot();
            let parsed = match TelemetrySnapshot::from_json(&snap.to_json()) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("starqo-obs live --smoke: JSON round-trip failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if parsed != snap {
                eprintln!("starqo-obs live --smoke: round-tripped snapshot differs");
                return ExitCode::FAILURE;
            }
            if prom {
                print!("{}", snap.to_prometheus());
            } else {
                print!("{}", LiveReport::new(snap).render());
            }
            println!("live --smoke ok");
            ExitCode::SUCCESS
        }
        ["live", path] => {
            let load = |p: &str| -> Result<TelemetrySnapshot, String> {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                TelemetrySnapshot::from_json(&text)
            };
            let run = || -> Result<String, String> {
                let current = load(path)?;
                let report = match since {
                    Some(prev) => LiveReport::since(&current, &load(prev)?),
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
        ["watch"] if smoke => {
            // Synthetic watch-loop check: feed a deterministic snapshot
            // sequence through the ring and render every frame.
            let mut w = Watcher::new(16);
            let mut last = String::new();
            for s in smoke_sequence() {
                last = w.tick(s);
            }
            print!("{last}");
            if !last.contains("-- trend --") {
                eprintln!("starqo-obs watch --smoke: trend section missing");
                return ExitCode::FAILURE;
            }
            println!("watch --smoke ok");
            ExitCode::SUCCESS
        }
        ["watch", path] => {
            let load = |p: &str| -> Result<TelemetrySnapshot, String> {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                TelemetrySnapshot::from_json(&text)
            };
            let mut w = Watcher::new(32);
            loop {
                let snap = match load(path) {
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
        ["doctor"] if smoke => {
            // Synthetic doctor check: the smoke snapshot plants a drifted
            // suspect and a saturated tracker entry; the doctor must find
            // both without any critical finding.
            let d = Diagnosis::from_snapshot(&smoke_snapshot());
            print!("{}", d.render());
            let found = |check: &str| d.findings.iter().any(|f| f.check == check);
            if !found("plan_drift") || !found("topk_saturation") || d.crit_count() > 0 {
                eprintln!("starqo-obs doctor --smoke: expected findings missing");
                return ExitCode::FAILURE;
            }
            if let Some(p) = json_out {
                if let Err(e) = std::fs::write(p, d.to_json() + "\n") {
                    eprintln!("starqo-obs doctor --smoke: cannot write {p}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("json verdict written to {p}");
            }
            println!("doctor --smoke ok");
            ExitCode::SUCCESS
        }
        ["doctor", path] => {
            let run = || -> Result<Diagnosis, String> {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                Ok(Diagnosis::from_snapshot(&TelemetrySnapshot::from_json(
                    &text,
                )?))
            };
            match run() {
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
            }
        }
        ["spans"] if smoke => {
            // Synthetic spans check: render the table and push the trees
            // through the JSONL and Chrome exports and back.
            let trees = smoke_trees();
            let jsonl: String = trees.iter().map(|t| t.to_json() + "\n").collect();
            let (back, skipped) = read_span_trees(&jsonl);
            if skipped > 0 || back != trees {
                eprintln!("starqo-obs spans --smoke: JSONL round-trip failed");
                return ExitCode::FAILURE;
            }
            match from_chrome_trace(&to_chrome_trace(&trees)) {
                Ok(back) if back == trees => {}
                _ => {
                    eprintln!("starqo-obs spans --smoke: Chrome round-trip failed");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(p) = chrome_out {
                if let Err(e) = std::fs::write(p, to_chrome_trace(&trees) + "\n") {
                    eprintln!("starqo-obs spans --smoke: cannot write {p}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("chrome trace written to {p}");
            }
            print!("{}", SpanReport::new(trees).render_table(limit));
            println!("spans --smoke ok");
            ExitCode::SUCCESS
        }
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
        ["timeline"] if smoke => {
            let report = SpanReport::new(smoke_trees());
            let id = request_id
                .or_else(|| report.trees().first().map(|t| t.request_id))
                .unwrap_or(0);
            match report.render_waterfall(id) {
                Some(text) => {
                    print!("{text}");
                    println!("timeline --smoke ok");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("starqo-obs timeline --smoke: request {id} not retained");
                    ExitCode::FAILURE
                }
            }
        }
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
        "usage:\n  starqo-obs profile <trace.jsonl>\n  starqo-obs flame <trace.jsonl> [--folded]\n  starqo-obs diff <a.jsonl> <b.jsonl>\n  starqo-obs accuracy <trace.jsonl> [--json <out.json>]\n  starqo-obs calibrate <trace.jsonl> [--out <profile.json>]\n  starqo-obs gate <baseline.json> <fresh.json> [--wall-pct N] [--counter-pct N] [--enforce|--enforce-counters]\n  starqo-obs live <snapshot.json> [--since <prev.json>] [--prom]\n  starqo-obs live --smoke [--prom]\n  starqo-obs watch <snapshot.json> [--interval-ms N] [--once] [--json <out.json>]\n  starqo-obs watch --smoke\n  starqo-obs doctor <snapshot.json> [--enforce] [--json <out.json>]\n  starqo-obs doctor --smoke\n  starqo-obs spans <spans.jsonl> [--limit N] [--chrome <out.json>]\n  starqo-obs spans --smoke [--chrome <out.json>]\n  starqo-obs timeline <spans.jsonl> [--request <id>]\n  starqo-obs timeline --smoke"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

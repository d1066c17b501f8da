//! `perf`: the SQL-text-to-rows ledger. See `perf/README.md`.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, result line last (BENCHMARK.json)
//! perf bench  [--seed N] [--seconds S] [--smoke]       every workload, end to end
//! perf trace  [--seed N] [--workload W] [--check]      every workload, layer by layer
//! perf agree  [--seed N] [--seconds S]                 bench twice, gaps against the bounds
//! perf manifest                                        print BENCHMARK.json
//! ```

mod alloc;
mod gen;
mod load;
mod oracle;
mod report;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Metrics, END_TO_END, REPS, RUN_SECONDS};
use run::{median, Rep};
use workloads::WORKLOADS;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            word if !word.starts_with('-') && args.command.is_empty() => {
                args.command = word.to_string();
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

/// Run outputs go beside the build: `<target dir>/perf/`.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe.parent().and_then(|p| p.parent());
    Ok(target
        .ok_or("executable has no target directory")?
        .join("perf"))
}

/// One repetition in a fresh child process, which is waited for.
fn spawn_rep(workload: &str, seed: u64, seconds: f64) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["rep", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn rep: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{workload}: repetition exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |name: &str| -> Result<f64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .ok_or(format!("{workload}: repetition printed no {name}"))
    };
    Ok(Rep {
        attempted: field("attempted")? as u64,
        failed: field("failed")? as u64,
        values: run::rep_metric_names()
            .map(|n| Ok((n, field(n)?)))
            .collect::<Result<_, String>>()?,
    })
}

/// The child side of [`spawn_rep`].
fn rep(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("rep needs --workload")?;
    let w = workloads::build(name, args.seed).ok_or("unknown workload")?;
    let r = run::repetition(&w, args.seed, args.seconds)?;
    println!("attempted {}\nfailed {}", r.attempted, r.failed);
    for (name, value) in &r.values {
        println!("{name} {value}");
    }
    Ok(())
}

/// The repetitions of one workload, and their medians.
struct Measured {
    workload: &'static str,
    reps: Vec<Rep>,
}

impl Measured {
    fn values(&self, metric: &str) -> Vec<f64> {
        let pick = |r: &Rep| r.values.iter().find(|(n, _)| *n == metric).map(|v| v.1);
        self.reps.iter().filter_map(pick).collect()
    }

    fn metrics(&self) -> Metrics {
        END_TO_END
            .iter()
            .map(|m| (m.name, median(self.values(m.name))))
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    /// A metric that is missing or not a number is a broken benchmark, not
    /// a slow program.
    fn validate(&self) -> Result<(), String> {
        for (name, v) in self.metrics() {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{}: {name} = {v}", self.workload));
            }
        }
        Ok(())
    }
}

/// Run `reps` repetitions of each workload, round-robin so that drift in
/// the machine spreads over all of them.
fn bench(
    names: &[&'static str],
    seed: u64,
    seconds: f64,
    reps: usize,
) -> Result<Vec<Measured>, String> {
    let mut out: Vec<Measured> = names
        .iter()
        .map(|&workload| Measured {
            workload,
            reps: Vec::new(),
        })
        .collect();
    for _ in 0..reps {
        for m in &mut out {
            m.reps
                .push(spawn_rep(m.workload, seed, seconds / reps as f64)?);
        }
    }
    for m in &out {
        m.validate()?;
    }
    Ok(out)
}

fn print_bench(results: &[Measured]) {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!("available_parallelism {nproc}");
    for m in results {
        println!(
            "\n{}: {} requests in {} repetitions, {} failed (error_rate {})",
            m.workload,
            m.attempted(),
            m.reps.len(),
            m.failed(),
            m.failed() as f64 / m.attempted() as f64
        );
        for e in run::rep_metric_names() {
            let vs = m.values(e);
            let (lo, hi) = vs
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let unit = END_TO_END
                .iter()
                .find(|m| m.name == e)
                .map_or("ratio", |m| m.unit);
            println!(
                "  {e:<16} {:>14.4} {unit:<5} ({lo:.4} .. {hi:.4})",
                median(vs)
            );
        }
    }
}

fn bench_json(seed: u64, seconds: f64, results: &[Measured]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let mut out = format!(
        "{{\n  \"seed\": {seed},\n  \"run_seconds\": {seconds},\n  \"repetitions\": {},\n  \
         \"available_parallelism\": {nproc},\n  \"workloads\": {{\n",
        results.first().map_or(0, |m| m.reps.len())
    );
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {}{comma}\n",
            m.workload,
            report::result_line(m.attempted(), m.failed(), &m.metrics())
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let dir = out_dir()?;
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn all_workloads() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.0).collect()
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    // Smoke: every workload at 1/50 of the run length, one repetition.
    let (seconds, reps) = if args.smoke {
        (args.seconds / 50.0, 1)
    } else {
        (args.seconds, REPS)
    };
    let results = bench(&all_workloads(), args.seed, seconds, reps)?;
    print_bench(&results);
    if let Some(m) = results.iter().find(|m| m.failed() > 0) {
        return Err(format!("{}: {} requests failed", m.workload, m.failed()));
    }
    if !args.smoke {
        write_out(
            &format!("bench_seed{}.json", args.seed),
            &bench_json(args.seed, seconds, &results),
        )?;
    }
    Ok(())
}

fn cmd_agree(args: &Args) -> Result<(), String> {
    let names = all_workloads();
    let first = bench(&names, args.seed, args.seconds, REPS)?;
    let second = bench(&names, args.seed, args.seconds, REPS)?;
    write_out(
        "agree_first.json",
        &bench_json(args.seed, args.seconds, &first),
    )?;
    write_out(
        "agree_second.json",
        &bench_json(args.seed, args.seconds, &second),
    )?;
    println!(
        "\n{:<11} {:<15} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    let mut broken = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        for (e, ((_, va), (_, vb))) in END_TO_END.iter().zip(a.metrics().iter().zip(b.metrics())) {
            let gap = report::worsening(e, *va, vb).abs();
            let verdict = if gap > e.bound { "  EXCEEDS" } else { "" };
            println!(
                "{:<11} {:<15} {va:>14.4} {vb:>14.4} {:>7.2}% {:>5.0}%{verdict}",
                a.workload,
                e.name,
                gap * 100.0,
                e.bound * 100.0
            );
            if gap > e.bound {
                broken.push(format!("{}/{}", a.workload, e.name));
            }
        }
        let failed = a.failed() + b.failed();
        if failed > 0 {
            broken.push(format!("{}: {failed} requests failed", a.workload));
        }
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two runs of one commit disagree: {}",
            broken.join(", ")
        ))
    }
}

/// The layer expected to dominate the request, per workload.
fn predicted_dominant(workload: &str) -> Option<&'static [&'static str]> {
    match workload {
        "hot_plan" => Some(&["query", "serve"]),
        "cold_adhoc" => Some(&["core"]),
        "exec_scan" | "exec_join" => Some(&["exec"]),
        _ => None,
    }
}

fn print_layers(workload: &str, r: &trace::LayerReport) -> Result<(), String> {
    println!(
        "\n{workload}: {} requests, {} failed",
        r.attempted, r.failed
    );
    for (m, (name, v)) in report::PER_LAYER.iter().zip(&r.metrics) {
        println!("  {name:<28} {v:>16.3} {}", m.unit);
    }
    for name in &r.absent {
        println!("  absent from the program's metrics: {name}");
    }
    let whole = r.shares.last().map_or(0.0, |s| s.1);
    println!("  reconciliation, mean ns per request:");
    for (name, ns) in &r.shares {
        println!("    {name:<14} {ns:>14.1} {:>6.1}%", 100.0 * ns / whole);
    }
    println!("  spans: {}", r.spans_path.display());
    if let Some(expected) = predicted_dominant(workload) {
        let share = |names: &[&str]| -> f64 {
            let of = |n: &&str| r.shares.iter().find(|s| s.0 == *n).map_or(0.0, |s| s.1);
            names.iter().map(of).sum()
        };
        let rest: Vec<&str> = ["query", "serve", "core", "exec"]
            .into_iter()
            .filter(|l| !expected.contains(l))
            .collect();
        if rest.iter().any(|l| share(&[l]) >= share(expected)) {
            return Err(format!(
                "{workload}: {expected:?} was predicted to dominate"
            ));
        }
        println!("  dominant: {expected:?}, as predicted");
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let names = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => all_workloads(),
    };
    let dir = out_dir()?;
    for name in names {
        let w = workloads::build(name, args.seed).ok_or("unknown workload")?;
        let r = trace::layers(&w, args.seed, &dir)?;
        print_layers(name, &r)?;
        if r.failed > 0 {
            return Err(format!("{name}: {} calls failed", r.failed));
        }
        // One seed, one client: program counters must repeat exactly.
        if args.check && w.clients == 1 {
            let again = trace::layers(&w, args.seed, &dir)?;
            if r.counts != again.counts {
                return Err(format!(
                    "{name}: counters differ between two runs of seed {}:\n  {:?}\n  {:?}",
                    args.seed, r.counts, again.counts
                ));
            }
            println!("  deterministic: {:?}", r.counts);
        }
    }
    Ok(())
}

/// One run as `BENCHMARK.json` describes it: result line last.
fn cmd_drive(args: &Args) -> Result<(), String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("no command and no --workload")?;
    let (attempted, failed, metrics) = if args.trace {
        let w = workloads::build(name, args.seed).ok_or("unknown workload")?;
        let r = trace::layers(&w, args.seed, &out_dir()?)?;
        print_layers(name, &r).unwrap_or_else(|e| println!("  note: {e}"));
        (r.attempted, r.failed, r.metrics)
    } else {
        let name = WORKLOADS.iter().find(|w| w.0 == name).map(|w| w.0);
        let results = bench(
            &[name.ok_or("unknown workload")?],
            args.seed,
            args.seconds,
            REPS,
        )?;
        print_bench(&results);
        let m = &results[0];
        (m.attempted(), m.failed(), m.metrics())
    };
    if let Some((name, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name} = {v}"));
    }
    println!("{}", report::result_line(attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "" => cmd_drive(&args),
        "rep" => rep(&args),
        "bench" => cmd_bench(&args),
        "trace" => cmd_trace(&args),
        "agree" => cmd_agree(&args),
        "manifest" => {
            print!("{}", report::manifest());
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

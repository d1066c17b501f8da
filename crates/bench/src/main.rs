//! `starqo-bench <experiment>|all [--smoke] [--out <trace.jsonl>]`: run one
//! row of [`starqo_bench::EXPERIMENTS`], or every row in order.

use std::process::ExitCode;

use starqo_bench::{run, Args, EXPERIMENTS};

fn main() -> ExitCode {
    let mut args = Args::default();
    let mut name = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => match it.next() {
                Some(p) => args.out = Some(p.into()),
                None => return usage("--out needs a path"),
            },
            _ if a.starts_with('-') || name.is_some() => {
                return usage(&format!("unexpected argument {a}"))
            }
            _ => name = Some(a),
        }
    }
    let rows: Vec<_> = match name.as_deref() {
        Some("all") => EXPERIMENTS.iter().collect(),
        Some(n) => EXPERIMENTS.iter().filter(|e| e.name == n).collect(),
        None => return usage("expected an experiment"),
    };
    if rows.is_empty() {
        return usage(&format!("unknown experiment {}", name.unwrap_or_default()));
    }
    if args.out.is_some() && name.as_deref() != Some("workload_run") {
        return usage("--out applies to workload_run only");
    }
    for e in rows {
        run(e, &args);
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("starqo-bench: {err}");
    eprintln!("usage: starqo-bench <experiment>|all [--smoke] [--out <trace.jsonl>]");
    for e in EXPERIMENTS {
        eprintln!("  {:<18} {}", e.name, e.ids);
    }
    ExitCode::FAILURE
}

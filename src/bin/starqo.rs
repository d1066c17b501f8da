//! `starqo` — an interactive shell around the optimizer stack.
//!
//! ```sh
//! cargo run --bin starqo            # REPL on the demo DEPT/EMP database
//! echo "explain SELECT ..." | cargo run --bin starqo
//! ```
//!
//! Commands:
//! ```text
//! SELECT ...            run a query (optimize + execute)
//! explain SELECT ...    show the chosen plan, cost, and rule origins
//! alternatives SELECT . show every surviving alternative plan
//! enable <feature>      hashjoin | force_projection | dynamic_index | tid_sort
//! disable <feature>
//! set bushy on|off      composite inners
//! set cartesian on|off
//! rules <file>          load extra STAR rules from a file
//! tables                list catalog tables
//! stats                 counters from the last optimization
//! help / quit
//! ```

use std::io::{BufRead, Write as _};

use starqo::prelude::*;
use starqo::workload::{dept_emp_catalog, dept_emp_database};
use starqo_vexec::VexecExecutor;

struct Shell {
    cat: std::sync::Arc<Catalog>,
    db: Database,
    optimizer: Optimizer,
    config: OptConfig,
    last: Option<starqo::core::Optimized>,
}

impl Shell {
    fn new() -> Self {
        let cat = dept_emp_catalog(false, 10_000);
        let db = dept_emp_database(cat.clone());
        let optimizer = Optimizer::new(cat.clone()).expect("builtin rules compile");
        Shell {
            cat,
            db,
            optimizer,
            config: OptConfig::default(),
            last: None,
        }
    }

    fn run_line(&mut self, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return true;
        }
        let lower = line.to_ascii_lowercase();
        match () {
            _ if lower == "quit" || lower == "exit" => return false,
            _ if lower == "help" => self.help(),
            _ if lower == "tables" => self.tables(),
            _ if lower == "stats" => self.stats(),
            _ if lower.starts_with("enable ") => self.toggle(&line[7..], true),
            _ if lower.starts_with("disable ") => self.toggle(&line[8..], false),
            _ if lower.starts_with("set ") => self.set(&line[4..]),
            _ if lower.starts_with("rules ") => self.load_rules(line[6..].trim()),
            _ if lower.starts_with("explain ") => self.explain(&line[8..], false),
            _ if lower.starts_with("alternatives ") => self.explain(&line[13..], true),
            _ if lower.starts_with("select ") || lower == "select" => self.query(line),
            _ => println!("unrecognized command; try `help`"),
        }
        true
    }

    fn help(&self) {
        println!(
            "commands:\n  SELECT ...              run a query\n  explain SELECT ...      show the chosen plan + rule origins\n  alternatives SELECT ... show all surviving plans\n  enable/disable <f>      hashjoin force_projection dynamic_index tid_sort\n  set bushy|cartesian on|off\n  rules <file>            load extra STAR rules\n  tables | stats | help | quit"
        );
    }

    fn tables(&self) {
        for t in self.cat.tables() {
            let cols: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
            println!(
                "  {} ({}) — {} rows, {} storage, site {}",
                t.name,
                cols.join(", "),
                t.card,
                t.storage.name(),
                self.cat.site_name(t.site)
            );
        }
        for ix in self.cat.indexes() {
            println!("  index {} on {}", ix.name, self.cat.table(ix.table).name);
        }
    }

    fn stats(&self) {
        match &self.last {
            None => println!("no optimization yet"),
            Some(o) => {
                let s = &o.stats;
                println!(
                    "  STAR refs {} (memo hits {}), conditions {}, plans built {} (rejected {})",
                    s.star_refs, s.memo_hits, s.conds_evaluated, s.plans_built, s.plans_rejected
                );
                println!(
                    "  glue refs {} (cache hits {}, veneers {}), plan table: {} plans / {} keys",
                    s.glue_refs, s.glue_cache_hits, s.glue_veneers, o.table_plans, o.table_keys
                );
            }
        }
    }

    fn toggle(&mut self, feature: &str, on: bool) {
        let feature = feature.trim();
        if on {
            self.config.enabled.insert(feature.to_string());
        } else {
            self.config.enabled.remove(feature);
        }
        println!("  {} {}", feature, if on { "enabled" } else { "disabled" });
    }

    fn set(&mut self, rest: &str) {
        let mut parts = rest.split_whitespace();
        let (Some(what), Some(val)) = (parts.next(), parts.next()) else {
            println!("usage: set bushy|cartesian on|off");
            return;
        };
        let on = val.eq_ignore_ascii_case("on");
        match what.to_ascii_lowercase().as_str() {
            "bushy" => self.config.composite_inners = on,
            "cartesian" => self.config.cartesian = on,
            other => {
                println!("unknown setting {other}");
                return;
            }
        }
        println!("  {what} = {on}");
    }

    fn load_rules(&mut self, path: &str) {
        match std::fs::read_to_string(path) {
            Err(e) => println!("cannot read {path}: {e}"),
            Ok(text) => match self.optimizer.load_rules(&text) {
                Ok(()) => println!("  rules loaded from {path}"),
                Err(e) => println!("  rule error: {e}"),
            },
        }
    }

    fn optimize(&mut self, sql: &str, keep_all: bool) -> Option<(Query, starqo::core::Optimized)> {
        let query = match parse_query(&self.cat, sql) {
            Ok(q) => q,
            Err(e) => {
                println!("  {e}");
                return None;
            }
        };
        let mut config = self.config.clone();
        config.glue_keep_all = keep_all;
        match self.optimizer.optimize(&query, &config) {
            Ok(out) => {
                self.last = Some(out.clone());
                Some((query, out))
            }
            Err(e) => {
                println!("  optimizer error: {e}");
                None
            }
        }
    }

    fn explain(&mut self, sql: &str, alternatives: bool) {
        let Some((query, out)) = self.optimize(sql, alternatives) else {
            return;
        };
        let ex = Explain::new(&self.cat, &query);
        if alternatives {
            println!("  {} surviving alternatives:", out.root_alternatives.len());
            let mut sorted = out.root_alternatives.clone();
            sorted.sort_by(|a, b| a.props.cost.total().total_cmp(&b.props.cost.total()));
            for (i, p) in sorted.iter().enumerate() {
                println!(
                    "--- alternative {} (cost {:.1}) ---",
                    i + 1,
                    p.props.cost.total()
                );
                print!("{}", ex.tree(p));
            }
            return;
        }
        println!("chosen plan (cost {:.1}):", out.best.props.cost.total());
        print!("{}", ex.tree(&out.best));
        println!("origin:");
        for line in out.origin_trace(&out.best) {
            println!("  {line}");
        }
    }

    fn query(&mut self, sql: &str) {
        let Some((query, out)) = self.optimize(sql, false) else {
            return;
        };
        // The engine the service serves with.
        let mut exec = VexecExecutor::new(&self.db, &query);
        match exec.run(&out.best) {
            Err(e) => println!("  execution error: {e}"),
            Ok(result) => {
                let header: Vec<String> = result
                    .schema
                    .iter()
                    .map(|c| query.qcol_name(&self.cat, *c))
                    .collect();
                println!("  {}", header.join(" | "));
                for row in result.rows.iter().take(20) {
                    println!("  {row}");
                }
                if result.rows.len() > 20 {
                    println!("  ... ({} rows total)", result.rows.len());
                }
                let s = exec.stats();
                println!(
                    "  {} rows; {} pages read, {} fetches, {} probes, {} msgs",
                    result.rows.len(),
                    s.pages_read,
                    s.tuples_fetched,
                    s.probes,
                    s.msgs
                );
            }
        }
    }
}

fn main() {
    println!(
        "starqo — STAR rule optimizer shell (demo DEPT/EMP database loaded; `help` for commands)"
    );
    let mut shell = Shell::new();
    let stdin = std::io::stdin();
    let interactive = atty_guess();
    loop {
        if interactive {
            print!("starqo> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !interactive {
                    println!("starqo> {}", line.trim());
                }
                if !shell.run_line(&line) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Crude interactivity guess without extra dependencies: honor an env
/// override, else assume interactive (prompts are harmless when piped).
fn atty_guess() -> bool {
    std::env::var("STARQO_BATCH").is_err()
}

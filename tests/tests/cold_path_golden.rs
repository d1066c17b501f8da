//! Same plans, same origins, pinned counters: the cold optimize path may get
//! cheaper, it may not choose or attribute anything differently — and when
//! it does less work, the golden says exactly how much less.
//!
//! A fixed seeded fleet of 4..8-way chain/star/tree/cyclic joins is optimized
//! and everything the optimizer reports about each run — the winner's EXPLAIN
//! text, the number of root alternatives, every `OptStats` and `TableStats`
//! field, the plan-table size and the sorted origin trace — is compared with
//! `cold_path_golden.txt`. Plans are compared by EXPLAIN text, not by raw
//! fingerprint, so the node hasher is free to change.
//!
//! The EXPLAIN and origin-trace lines date from the commit before the
//! engine's allocation diet and have never moved. The counter lines
//! (`root_alternatives`, `OptStats`, `TableStats`, `table_plans`) were
//! re-recorded twice: when the enumeration driver stopped referencing
//! `JoinRoot` for pairs no predicate links, and when `with` bindings became
//! evaluated on first read (`native_calls` fell in every `OptStats` line,
//! nothing else in them moved). A change that moves only those lines,
//! downwards, is a work reduction; one that moves any other line changes a
//! winner.
//!
//! `STARQO_UPDATE_GOLDEN=1 cargo test -p starqo-integration --test
//! cold_path_golden` rewrites the file; a diff in it is a behaviour change
//! and needs a reason, and `scripts/golden_diff.sh <ref>` (run by
//! `scripts/check.sh` on a modified file) fails if it reaches past the
//! counter lines.

use std::fmt::Write as _;

use starqo_core::Optimizer;
use starqo_integration::cold::{golden_fleet, Case};
use starqo_plan::Explain;

const GOLDEN: &str = include_str!("cold_path_golden.txt");

fn render(case: &Case) -> String {
    let opt = Optimizer::new(case.cat.clone()).expect("rules");
    let out = opt.optimize(&case.query, &case.config).expect("optimize");
    let mut s = String::new();
    let _ = writeln!(s, "== {}", case.name);
    s.push_str(&Explain::new(&case.cat, &case.query).tree(&out.best));
    let _ = writeln!(s, "root_alternatives={}", out.root_alternatives.len());
    let _ = writeln!(s, "{:?}", out.stats);
    let _ = writeln!(s, "{:?}", out.table_stats);
    let _ = writeln!(
        s,
        "table_plans={} table_keys={} degraded={} reason={:?}",
        out.table_plans, out.table_keys, out.degraded, out.degraded_reason
    );
    let mut origin = out.origin_trace(&out.best);
    origin.sort();
    for line in origin {
        let _ = writeln!(s, "  {line}");
    }
    s
}

#[test]
fn same_plans_same_counters() {
    let cases = golden_fleet();
    assert!(cases.iter().any(|c| c.config.glue_keep_all));
    let actual: String = cases.iter().map(render).collect();
    if std::env::var_os("STARQO_UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/cold_path_golden.txt");
        std::fs::write(path, &actual).expect("write golden");
        return;
    }
    if actual == GOLDEN {
        return;
    }
    // Report the first case that moved, not a 3 000-line diff.
    let (mut a, mut g) = (actual.split("== "), GOLDEN.split("== "));
    loop {
        match (a.next(), g.next()) {
            (None, None) => break,
            (x, y) if x == y => continue,
            (x, y) => panic!(
                "cold path diverged from the golden\n--- golden\n== {}\n--- actual\n== {}",
                y.unwrap_or("<missing>"),
                x.unwrap_or("<missing>")
            ),
        }
    }
}

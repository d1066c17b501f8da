//! A counted guard on the trim-and-refault cycle. When every run handed its
//! buffers back to the allocator, the freed heap top passed the trim
//! threshold, its pages went back to the kernel, and the next large run
//! faulted them in again. A thread past the parking threshold keeps its run
//! memory instead, so repeated large runs fault their pages in once.
//!
//! A test binary of its own: glibc's trim and mmap thresholds are
//! process-wide and rise with every large block freed, so other tests'
//! fixtures and oracle runs would decide whether this one churns.

use std::sync::Arc;

use starqo_catalog::{Catalog, DataType, StorageKind, Value};
use starqo_core::{OptConfig, Optimizer};
use starqo_plan::PlanRef;
use starqo_query::{parse_query, Query};
use starqo_storage::{Database, DatabaseBuilder};
use starqo_trace::runmem::{self, PARK_FROM_RUN};
use starqo_vexec::VexecExecutor;
use starqo_workload::Rng64;

/// Heaps `T0..Tn(ID, FK, P0)`: `ID` dense, `FK` uniform over the next
/// table's `ID`s, `P0` over 16 values.
fn fixture(rows: &[u64]) -> (Arc<Catalog>, Database) {
    let mut b = Catalog::builder().site("s");
    for (i, card) in rows.iter().enumerate() {
        b = b
            .table(format!("T{i}"), "s", StorageKind::Heap, *card)
            .column("ID", DataType::Int, Some(*card))
            .column("FK", DataType::Int, Some(rows[(i + 1) % rows.len()]))
            .column("P0", DataType::Int, Some(16));
    }
    let cat = Arc::new(b.build().unwrap());
    let mut rng = Rng64::new(7);
    let mut db = DatabaseBuilder::new(cat.clone());
    for (i, card) in rows.iter().enumerate() {
        let next = rows[(i + 1) % rows.len()];
        for id in 0..*card {
            let row = [id, rng.below(next), rng.below(16)].map(|v| Value::Int(v as i64));
            db.insert(&format!("T{i}"), row.to_vec()).unwrap();
        }
    }
    (cat, db.build().unwrap())
}

fn plan(cat: &Arc<Catalog>, sql: &str) -> (Query, PlanRef) {
    let query = parse_query(cat, sql).unwrap();
    let opt = Optimizer::new(cat.clone()).unwrap();
    let plan = opt.optimize(&query, &OptConfig::default()).unwrap().best;
    (query, plan)
}

/// This thread's minor page faults so far (`/proc/thread-self/stat`'s
/// tenth field), or `None` where that file cannot be read.
fn thread_minflt() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// Two merge joins over four SORTs of 25–35 k-row heaps, whose column and
/// sort buffers come to over 1 MiB, run 50 times on a thread past the
/// parking threshold. Measured: 536 minor faults over the 50 runs (the
/// result, a match list a merge, the compiled plan); 18 122 at the parent
/// of this check, where every run freed its buffers and faulted them in
/// again.
#[test]
fn repeated_large_runs_fault_their_pages_in_once() {
    if thread_minflt().is_none() {
        eprintln!("skipped: /proc/thread-self/stat cannot be read here");
        return;
    }
    let (cat, db) = fixture(&[30_000, 25_000, 35_000]);
    let large = plan(
        &cat,
        "SELECT a.ID, c.P0 FROM T0 a, T1 b, T2 c WHERE a.FK = b.ID AND b.FK = c.ID AND a.P0 = 3",
    );
    let small = plan(&cat, "SELECT a.ID FROM T1 a WHERE a.P0 = 3 AND a.FK < 10");
    assert_eq!(
        large.1.op_names().iter().filter(|n| *n == "SORT").count(),
        4
    );
    let run = |(query, plan): &(Query, PlanRef)| VexecExecutor::new(&db, query).run(plan).unwrap();
    let (faults, parked) = std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..PARK_FROM_RUN {
                run(&small);
            }
            run(&large);
            let before = thread_minflt().unwrap();
            for _ in 0..50 {
                run(&large);
            }
            (thread_minflt().unwrap() - before, runmem::held().0)
        })
        .join()
        .unwrap()
    });
    assert!(parked >= 1 << 20, "a {parked}-byte working set");
    assert!(faults <= 670, "{faults} minor faults over 50 runs");
}

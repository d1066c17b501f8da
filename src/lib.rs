//! # starqo
//!
//! Grammar-like functional rules for representing query optimization
//! alternatives — a from-scratch reproduction of Guy M. Lohman's SIGMOD 1988
//! paper (the Starburst *STAR* rule system), as a complete, runnable Rust
//! query-optimizer stack.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`catalog`] — schemas, statistics, sites, access paths;
//! * [`storage`] — the in-memory heap/B-tree storage substrate;
//! * [`query`] — quantifiers, predicates, the §4 classifications, mini-SQL;
//! * [`plan`] — LOLEPOPs, plans, property vectors, cost model;
//! * [`exec`] — the run-time query evaluator;
//! * [`core`] — the STAR engine: rule compiler/interpreter, Glue, join
//!   enumeration, the built-in rule files;
//! * [`dsl`] — the textual rule language;
//! * [`xform`] — the transformational (EXODUS-style) baseline optimizer;
//! * [`workload`] — synthetic data and query generators;
//! * [`trace`] — structured optimizer/executor tracing and metrics
//!   (see `docs/OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use starqo::prelude::*;
//!
//! // 1. A catalog (the paper's DEPT/EMP schema) and some data.
//! let cat = starqo::workload::dept_emp_catalog(false, 1_000);
//! let db = starqo::workload::dept_emp_database(cat.clone());
//!
//! // 2. A query, through the mini-SQL parser.
//! let query = parse_query(
//!     &cat,
//!     "SELECT E.NAME FROM DEPT D, EMP E WHERE D.MGR = 'Haas' AND D.DNO = E.DNO",
//! )
//! .unwrap();
//!
//! // 3. Optimize: the rules are data, compiled from `rules/*.star` text.
//! let optimizer = Optimizer::new(cat.clone()).unwrap();
//! let optimized = optimizer.optimize(&query, &OptConfig::default()).unwrap();
//!
//! // 4. Execute the chosen plan.
//! let mut executor = Executor::new(&db, &query);
//! let result = executor.run(&optimized.best).unwrap();
//! assert_eq!(result.rows.len(), 20); // 1 Haas dept × 20 emps
//! ```

pub use starqo_catalog as catalog;
pub use starqo_core as core;
pub use starqo_dsl as dsl;
pub use starqo_exec as exec;
pub use starqo_plan as plan;
pub use starqo_query as query;
pub use starqo_storage as storage;
pub use starqo_trace as trace;
pub use starqo_workload as workload;
pub use starqo_xform as xform;

/// The most common imports, in one place.
pub mod prelude {
    pub use starqo_catalog::{Catalog, DataType, StorageKind, Value};
    pub use starqo_core::{OptConfig, Optimized, Optimizer};
    pub use starqo_exec::{reference_eval, rows_equal_multiset, Executor};
    pub use starqo_plan::{CostModel, Explain, JoinFlavor, Lolepop, PlanRef};
    pub use starqo_query::{parse_query, Query, QueryBuilder};
    pub use starqo_storage::{Database, DatabaseBuilder};
    pub use starqo_trace::{JsonLinesSink, MemorySink, NullSink, TraceEvent, Tracer};
}

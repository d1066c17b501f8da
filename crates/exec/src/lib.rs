//! # starqo-exec
//!
//! The serial query evaluator: a row-at-a-time interpreter for LOLEPOP
//! plans (§2.1 — "the basic object to be manipulated ... is a LOw-LEvel Plan
//! OPerator (LOLEPOP) that will be interpreted by the query evaluator at
//! run-time").
//!
//! The evaluator executes every LOLEPOP for real against the
//! `starqo-storage` substrate: heap and B-tree scans, index probes with
//! sideways information passing (join predicates bound per outer tuple),
//! TID `GET`s, sorts, simulated `SHIP`s, temp materialization with
//! caching (a temp is never re-materialized per outer tuple), dynamic
//! index builds, and all three join methods.
//!
//! It is the test and bench **oracle**, not a runtime dependency: requests
//! run on `starqo-vexec`, which must match this interpreter bit for bit,
//! and no runtime crate links this one. It exists for two reasons:
//! 1. the paper's plans are *programs* and must run — this is the simplest
//!    engine that runs them, and so the reference the fast one is held to;
//! 2. it lets the test suite verify the optimizer's central safety property:
//!    every alternative plan for a query produces the same result multiset
//!    (see [`reference::reference_eval`] and experiment E13).
//!
//! The types both engines return and the key-binding helpers they share
//! live in `starqo-plan` and are re-exported here.

pub mod eval;
pub mod reference;
pub mod result;
pub mod scalar;
pub mod schema;

pub use eval::{ExecStats, Executor, ExtExecFn};
pub use reference::reference_eval;
pub use result::project_rows;
pub use scalar::Bindings;
pub use schema::{cols_schema, schema_of};
pub use starqo_plan::result::{ExecError, Result};
pub use starqo_plan::{
    is_correlated, position, rows_equal_multiset, FaultHook, QueryResult, StreamSchema,
};
pub use starqo_trace::NodeActuals;

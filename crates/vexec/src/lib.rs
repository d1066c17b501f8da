//! # starqo-vexec
//!
//! The vectorized batch executor for LOLEPOP plans — the engine
//! `starqo-serve` runs every request on.
//!
//! The serial interpreter in `starqo-exec` is the semantic *oracle* —
//! used by tests and benches, never linked by this crate or the service. It
//! materializes each operator row-at-a-time, resolving every column through
//! a schema binary search and re-evaluating nested-loop inners per outer
//! tuple under a cloned bindings map. This crate compiles the same plans,
//! once per run ([`plan`]), into fused chains and native pipeline breakers:
//!
//! - tuples flow as columnar [`batch::Batch`]es — up to
//!   [`batch::BATCH_ROWS`] rows with selection vectors inside a chain, one
//!   compact relation across a breaker — and never as row vectors; the only
//!   per-row allocation is the result row itself;
//! - a [`batch::Column`] is plain `i64`s until the first value that is not
//!   an integer demotes it, in place, to tagged `Value`s — decided by the
//!   data alone — and rows are read through a `Copy` view
//!   ([`batch::Val`]), so integers are copied, compared and sorted as
//!   integers and become `Value`s again only in the result rows;
//! - a base table's all-integer columns are read through the `i64` mirror
//!   `starqo-storage` keeps of them, never through its rows: one selection
//!   loop compares an integer column — mirrored or batch — against a
//!   constant slice element to register, operator decided outside the loop;
//! - scalar and predicate expressions are compiled against the stream
//!   schema they run on ([`expr`]); references to an enclosing nested-loop
//!   outer become slots of a binding vector, so a correlated inner is
//!   compiled once and *re-run* per outer row;
//! - SORT permutes row numbers (stably — one LSD radix for a typed integer
//!   key, a comparison sort otherwise) and gathers once; merge join
//!   compares key slots in place; temps, cached SORT output and dynamic
//!   indexes are shared by reference, built exactly once (§4.5.2);
//! - heap/B-tree scans, index TID streams and temp re-accesses ([`chain`])
//!   split into [`exec::MORSEL_ROWS`]-row *morsels*: run inline at one
//!   worker, or claimed by scoped threads and reassembled in morsel order,
//!   so results are deterministic regardless of scheduling.
//!
//! ## The oracle guarantee
//!
//! For every plan without extension operators ([`supports`]),
//! [`VexecExecutor::run`] returns a `QueryResult` **identical** to
//! `starqo_exec::Executor::run` — same rows, same order, same schema — at
//! any worker count, with or without injected faults (faults surface as the
//! same typed errors), and counts the same rows, temps, indexes, probes,
//! fetches and shipped messages and bytes. Only `pages_read` may be lower:
//! an uncorrelated nested-loop inner is evaluated, and read, once. The result
//! and error types, and the key-binding helpers both engines use, live in
//! `starqo-plan`. The differential checker, `tests/src/diff.rs`, enforces
//! this over generated cases and the fixtures of `tests/tests/vexec.rs`.

pub mod batch;
pub mod chain;
pub mod exec;
pub mod expr;
pub mod plan;

pub use batch::{Batch, Column, Val, BATCH_ROWS};
pub use exec::{supports, VexecExecutor, VexecStats, MORSEL_ROWS};

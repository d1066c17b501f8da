//! # starqo-serve
//!
//! The concurrent optimization service. The paper's premise is that STAR
//! rules make optimization *re-runnable data*; this crate is the layer that
//! stops re-running it when nothing changed. A [`Service`] owns one shared
//! catalog (with epochs — see [`starqo_catalog::SharedCatalog`]), one
//! compiled rule set, and a sharded single-flight plan cache keyed on
//! canonical query fingerprints (see [`starqo_query::fingerprint`]); any
//! number of worker threads call [`Service::prepare`] /
//! [`Service::optimize`] / [`Service::execute`] on `&self`.
//!
//! Guarantees:
//! * textually different but canonically equivalent queries (permuted
//!   conjuncts, reordered tables, different literal constants) share one
//!   cached plan — and cached-plan executions evaluate the *request's*
//!   predicates, so results are exactly what a cold optimization would
//!   produce;
//! * at most one cold optimization runs per distinct `(fingerprint,
//!   config, epoch)` at any moment (single-flight);
//! * a catalog epoch bump (stats refresh, index DDL) lazily invalidates
//!   stale entries on contact and recompiles the optimizer;
//! * cold optimizations are admission-controlled: a concurrency gate with
//!   bounded queueing (typed [`ServeError::Rejected`]) plus per-request
//!   deadlines that *degrade* plans via the optimizer budget instead of
//!   failing; degraded plans are shared with concurrent waiters but never
//!   cached;
//! * with healing enabled ([`HealConfig`]), a fingerprint flagged as a
//!   cardinality *suspect* by the feedback plane is re-optimized in-line
//!   under a dedicated budget, verified against the incumbent (one run of
//!   each on the serving engine, rows compared as multisets), and swapped
//!   only if those runs' work units show it is not slower — every failure
//!   pins the incumbent with a typed reason and arms exponential backoff
//!   (see `docs/SERVING.md`, "Self-healing").
//!
//! Every plan runs on `starqo-vexec`, the one engine this crate links; the
//! serial interpreter `starqo-exec` is a test and bench oracle only.
//!
//! See `docs/SERVING.md` for the architecture and tuning guide.

// Library code surfaces failures as typed errors, never by panicking;
// tests may unwrap freely (the gate is off under cfg(test)).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod cache;
mod flight;
pub mod heal;
pub mod service;

pub use admission::{GateTimeout, OptGate, Permit};
pub use cache::{CacheConfig, CacheMeta, PlanCache};
pub use heal::HealConfig;
pub use service::{Prepared, ServeError, ServeOutcome, Service, ServiceConfig};

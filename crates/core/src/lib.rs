//! # starqo-core
//!
//! The STAR engine — the paper's primary contribution (Lohman, SIGMOD 1988):
//! a query optimizer whose repertoire of execution strategies is expressed
//! as *data*, as grammar-like functional rules.
//!
//! * [`rules`] — the compiled rule structures: STrategy Alternative Rules
//!   (STARs) with parametrized alternatives, conditions of applicability,
//!   `∀`-expansion, and required-property annotations (§2.2, §3.2).
//! * [`compile`] — lowers `starqo-dsl` ASTs into those structures, resolving
//!   star names, LOLEPOP templates, and native condition functions (the
//!   paper's "C functions", §5).
//! * [`engine`] — the rule interpreter: referencing a STAR "triggers in an
//!   obvious way only those STARs referenced in its definition, just like a
//!   macro expander" (§7), with memoization of repeated references.
//! * [`glue`] — the Glue mechanism (§3.2, Figure 3): discharges accumulated
//!   required properties by looking plans up in the plan table and injecting
//!   a veneer of SORT / SHIP / STORE / BUILD_INDEX operators, returning the
//!   cheapest (or all) satisfying plans.
//! * [`table`] — the plan table, "a data structure hashed on the tables and
//!   predicates" (§4.4), with property-aware cost pruning.
//! * [`store`] — the run's plan nodes and SAPs, named by index while the run
//!   lasts; only what leaves it becomes `PlanRef` DAGs.
//! * [`enumerate`] — the bottom-up join enumerator of §2.3: `AccessRoot` per
//!   table, then repeated `JoinRoot` references over joinable pairs, with
//!   composite inners and Cartesian products as compile-time parameters.
//! * [`optimizer`] — the public facade.
//! * `rules/*.star` — the built-in rule files, shipped as text: the §4 join
//!   STARs (verbatim in structure and naming) and the single-table access
//!   STARs in the spirit of [LEE 88].

// Library code must surface failures as typed errors (tests may still
// unwrap freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod compile;
pub mod engine;
pub mod enumerate;
pub mod error;
pub mod faults;
pub mod glue;
mod hash;
pub mod natives;
pub mod optimizer;
pub mod rules;
pub mod store;
pub mod table;
pub mod value;

pub use budget::Budget;
pub use engine::{Engine, OptStats, QuarantineRecord};
pub use error::{CoreError, Result};
pub use faults::{FaultMode, FaultPlan};
pub use optimizer::{OptConfig, Optimized, Optimizer};
pub use rules::{RuleSet, StarId};
pub use value::{ReqVec, RuleValue, StreamRef};

/// The built-in single-table access rules ([LEE 88] style).
pub const ACCESS_RULES: &str = include_str!("../rules/access.star");
/// The §4.1–4.4 join rules (R\* strategy space).
pub const JOIN_RULES: &str = include_str!("../rules/join.star");
/// The §4.5 extension rules: hash join, forced projection, dynamic index.
pub const EXTENSION_RULES: &str = include_str!("../rules/extensions.star");

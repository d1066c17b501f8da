//! # starqo-query
//!
//! The query model for the `starqo` optimizer: quantifiers (table
//! references), scalar expressions, predicates, bitset representations of
//! quantifier and predicate sets, the paper's §4 predicate classifications
//! (JP / SP / HP / IP / XP), and the mini-SQL parser every request goes through.
//!
//! The optimizer (in `starqo-core`) consumes a [`Query`] and the catalog; it
//! never sees SQL text.

// Library code surfaces failures as typed errors, never by panicking;
// tests may unwrap freely (the gate is off under cfg(test)).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod classify;
pub mod error;
pub mod fingerprint;
pub mod parser;
pub mod pred;
pub mod qset;
pub mod query;
pub mod scalar;
pub mod shared;

pub use classify::Classifier;
pub use error::{QueryError, Result};
pub use fingerprint::{canonicalize, CanonicalQuery, QueryFingerprint};
pub use parser::parse_query;
pub use pred::{CmpOp, PredExpr, PredId, PredSet, Predicate};
pub use qset::{QId, QSet};
pub use query::{Quantifier, Query, QueryBuilder};
pub use scalar::{ArithOp, QCol, Scalar};
pub use shared::{ColSet, Shared};

//! What running a plan yields, for every executor: the rows with their
//! schema, or a typed [`ExecError`].
//!
//! The serving engine (`starqo-vexec`) and the serial oracle (`starqo-exec`)
//! both return these, so a caller — the service, heal's verify step, the
//! equivalence harness — compares two runs without knowing which engine
//! produced either.

use std::fmt;

use starqo_query::QCol;
use starqo_storage::Tuple;

/// Ordered column layout of a stream: its COLS property in sorted order, so
/// the layout is fully determined by the plan's properties.
pub type StreamSchema = Vec<QCol>;

/// Position of a column within a schema.
pub fn position(schema: &[QCol], col: QCol) -> Option<usize> {
    // Schemas are sorted; binary search keeps wide rows cheap.
    schema.binary_search(&col).ok()
}

/// The rows a plan produced, with their schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    pub schema: StreamSchema,
    pub rows: Vec<Tuple>,
}

/// Multiset equality of two row collections (order-insensitive).
pub fn rows_equal_multiset(a: &[Tuple], b: &[Tuple]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut x: Vec<&Tuple> = a.iter().collect();
    let mut y: Vec<&Tuple> = b.iter().collect();
    x.sort();
    y.sort();
    x == y
}

/// Why a run failed.
#[derive(Debug, Clone)]
pub enum ExecError {
    Storage(starqo_storage::StorageError),
    /// A column referenced at run time is neither in the stream schema nor
    /// bound by an enclosing nested-loop join.
    UnboundColumn(String),
    /// A plan shape the evaluator cannot run (should have been rejected by
    /// the property functions).
    BadPlan(String),
    /// Extension operator with no registered execution routine.
    UnknownExtOp(String),
    /// An operator (or extension routine) panicked; the panic was caught at
    /// the executor boundary and surfaced as a typed error.
    Panicked(String),
    /// An armed fault-injection hook fired for this operator (robustness
    /// testing only; never produced in production).
    Injected(String),
}

/// An executor's result type (the crate root's `Result` is the property
/// functions').
pub type Result<T> = std::result::Result<T, ExecError>;

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::UnboundColumn(c) => write!(f, "unbound column {c}"),
            ExecError::BadPlan(msg) => write!(f, "unexecutable plan: {msg}"),
            ExecError::UnknownExtOp(n) => {
                write!(f, "no execution routine registered for extension op {n}")
            }
            ExecError::Panicked(msg) => write!(f, "panic during execution: {msg}"),
            ExecError::Injected(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<starqo_storage::StorageError> for ExecError {
    fn from(e: starqo_storage::StorageError) -> Self {
        ExecError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::Value;

    #[test]
    fn multiset_comparison() {
        let a = vec![Tuple(vec![Value::Int(1)]), Tuple(vec![Value::Int(2)])];
        let b = vec![Tuple(vec![Value::Int(2)]), Tuple(vec![Value::Int(1)])];
        let c = vec![Tuple(vec![Value::Int(2)]), Tuple(vec![Value::Int(2)])];
        assert!(rows_equal_multiset(&a, &b));
        assert!(!rows_equal_multiset(&a, &c));
        assert!(!rows_equal_multiset(&a, &a[..1]));
    }
}

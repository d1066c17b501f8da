//! Plan-layer errors.
//!
//! Property functions *validate* the plans the rules construct: a merge join
//! whose inputs are not suitably ordered, or a dyadic operator whose inputs
//! sit at different sites, is an illegal plan and is reported as an error
//! rather than silently costed. This is the safety net behind the paper's
//! assumption that "the DBC specifies the STARs correctly".

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Operator applied to the wrong number of inputs.
    Arity {
        op: String,
        expected: usize,
        got: usize,
    },
    /// A dyadic operator's inputs are at different sites (§3.2: "Dyadic
    /// LOLEPOPs such as GET, JOIN, and UNION require that the SITE of both
    /// input streams be the same").
    SiteMismatch { op: &'static str },
    /// A merge join input lacks the required tuple order.
    OrderViolation { detail: String },
    /// An operator references columns/predicates its inputs cannot supply.
    Scope { op: &'static str, detail: String },
    /// Extension operator with no registered property function.
    UnknownExtOp(String),
    /// Anything else structurally wrong.
    Invalid(String),
}

pub type Result<T> = std::result::Result<T, PlanError>;

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Arity { op, expected, got } => {
                write!(f, "{op}: expected {expected} inputs, got {got}")
            }
            PlanError::SiteMismatch { op } => write!(f, "{op}: input sites differ"),
            PlanError::OrderViolation { detail } => write!(f, "order violation: {detail}"),
            PlanError::Scope { op, detail } => write!(f, "{op}: {detail}"),
            PlanError::UnknownExtOp(name) => {
                write!(f, "no property function registered for extension op {name}")
            }
            PlanError::Invalid(msg) => write!(f, "invalid plan: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

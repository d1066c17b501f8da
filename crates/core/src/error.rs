//! Core (rule engine) errors.

use std::fmt;

#[derive(Debug, Clone)]
pub enum CoreError {
    /// Rule syntax error (from the DSL parser).
    Syntax(starqo_dsl::DslError),
    /// Rule compilation error: unresolved names, arity mismatches, etc.
    Compile { star: String, msg: String },
    /// Run-time rule evaluation error: a rule applied an operation to the
    /// wrong kind of value.
    Eval { star: String, msg: String },
    /// Plan construction error that indicates a rule bug (not a pruned
    /// alternative).
    Plan(starqo_plan::PlanError),
    /// Glue could not satisfy a requirement.
    Glue(String),
    /// The enumerator could not produce any plan for the query.
    NoPlan(String),
    /// A rule, native function, or property function panicked; the panic
    /// was caught at an engine boundary and surfaced as a typed error.
    Panicked { context: String, msg: String },
}

pub type Result<T> = std::result::Result<T, CoreError>;

/// What the interpreter's own functions return: the error boxed, so a
/// result is no wider than the value it carries (a `CoreError` is 56 bytes,
/// a rule value 32) on the path every reference takes.
pub(crate) type Res<T> = std::result::Result<T, Box<CoreError>>;

impl From<Box<CoreError>> for CoreError {
    fn from(e: Box<CoreError>) -> Self {
        *e
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Syntax(e) => write!(f, "{e}"),
            CoreError::Compile { star, msg } => write!(f, "compiling STAR {star}: {msg}"),
            CoreError::Eval { star, msg } => write!(f, "evaluating STAR {star}: {msg}"),
            CoreError::Plan(e) => write!(f, "plan construction: {e}"),
            CoreError::Glue(msg) => write!(f, "glue: {msg}"),
            CoreError::NoPlan(msg) => write!(f, "no plan found: {msg}"),
            CoreError::Panicked { context, msg } => write!(f, "panic in {context}: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<starqo_dsl::DslError> for CoreError {
    fn from(e: starqo_dsl::DslError) -> Self {
        CoreError::Syntax(e)
    }
}

impl From<starqo_plan::PlanError> for CoreError {
    fn from(e: starqo_plan::PlanError) -> Self {
        CoreError::Plan(e)
    }
}

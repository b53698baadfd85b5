//! Compiler errors.

use distal_ir::transform::ScheduleError;
use std::fmt;

/// Errors from compiling a scheduled statement.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// A tensor named in the expression has no registered spec.
    UnknownTensor(String),
    /// The expression failed to parse or validate.
    Expression(String),
    /// Tensor dimensions imply conflicting extents for an index variable.
    InconsistentExtents,
    /// A scheduling command failed.
    Schedule(ScheduleError),
    /// The distributed loops' extents don't multiply to at most the number
    /// of available processors.
    GridTooLarge {
        /// Processors the launch domain requires.
        required: i64,
        /// Processors of the requested kind available.
        available: i64,
    },
    /// A format's notation doesn't match its tensor or machine.
    Format(String),
    /// A sparse initializer's density lies outside `[0, 1]`.
    Density {
        /// The tensor being seeded.
        tensor: String,
        /// The rejected density.
        density: f64,
    },
    /// Explicit tensor data whose length doesn't match the registered
    /// shape (caught at registration/bind, never silently materialized).
    DataSize {
        /// The tensor being seeded.
        tensor: String,
        /// Elements the registered shape requires.
        expected: usize,
        /// Elements the data provided.
        got: usize,
    },
    /// A `substitute` command named a kernel the statement cannot use
    /// (e.g. the GEMM leaf for a non-matmul statement).
    BadSubstitution(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownTensor(t) => write!(f, "unknown tensor '{t}'"),
            CompileError::Expression(e) => write!(f, "invalid expression: {e}"),
            CompileError::InconsistentExtents => {
                write!(f, "tensor dimensions imply conflicting index extents")
            }
            CompileError::Schedule(e) => write!(f, "schedule error: {e}"),
            CompileError::GridTooLarge {
                required,
                available,
            } => write!(
                f,
                "launch domain needs {required} processors but only {available} are available"
            ),
            CompileError::Format(e) => write!(f, "format error: {e}"),
            CompileError::Density { tensor, density } => write!(
                f,
                "tensor '{tensor}': density must be in [0, 1], got {density}"
            ),
            CompileError::DataSize {
                tensor,
                expected,
                got,
            } => write!(f, "tensor '{tensor}' expects {expected} values, got {got}"),
            CompileError::BadSubstitution(e) => write!(f, "bad substitution: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ScheduleError> for CompileError {
    fn from(e: ScheduleError) -> Self {
        CompileError::Schedule(e)
    }
}

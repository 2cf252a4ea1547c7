//! Error types for graph construction, mutation and parsing.

use crate::ids::VertexId;
use std::fmt;

/// Errors raised by [`crate::DataGraph`] mutations and by the text parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id referenced an out-of-range or deleted slot.
    UnknownVertex(VertexId),
    /// Self-loops are not part of the CSM problem model (paper Def. 2.1
    /// assumes simple graphs); rejecting them early keeps the seeded
    /// enumeration's "both orientations" logic sound.
    SelfLoop(VertexId),
    /// Attempted to delete a vertex that still has incident edges without
    /// requesting cascade deletion.
    VertexNotIsolated(VertexId, usize),
    /// A parse error from the text readers, with 1-based line number.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// Underlying I/O failure while reading or writing a graph file.
    Io(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v:?}"),
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v:?} is not allowed"),
            GraphError::VertexNotIsolated(v, d) => {
                write!(f, "vertex {v:?} still has {d} incident edges")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::SelfLoop(VertexId(3));
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::Parse {
            line: 12,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 12"));
    }
}

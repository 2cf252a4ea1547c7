//! The workspace-wide error taxonomy.
//!
//! Every fallible entry point of the framework — [`crate::ParaCosm`]'s
//! update/stream pipeline, engine construction, and the `csm-service`
//! serving layer — returns one [`CsmError`] so callers match on a single
//! `Result` type instead of juggling per-layer errors. Graph-level
//! failures ([`GraphError`]) are wrapped, not flattened, so their context
//! (vertex ids, parse positions) survives; the enum is `#[non_exhaustive]`
//! so new failure classes can be added without a breaking release.

use csm_graph::GraphError;
use std::fmt;

/// Unified error type shared by `ParaCosm`, the update [`crate::Engine`]
/// and the `csm-service` serving layer.
///
/// # Examples
///
/// ```
/// use paracosm_core::{CsmError, ParaCosm, ParaCosmConfig};
/// # use paracosm_core::{AdsChange, CsmAlgorithm};
/// # use csm_graph::{DataGraph, QueryGraph, VLabel, ELabel, EdgeUpdate, QVertexId, VertexId};
/// # struct Plain;
/// # impl CsmAlgorithm for Plain {
/// #     fn name(&self) -> &'static str { "plain" }
/// #     fn rebuild(&mut self, _: &DataGraph, _: &QueryGraph) {}
/// #     fn update_ads(&mut self, _: &DataGraph, _: &QueryGraph, _: EdgeUpdate, _: bool)
/// #         -> AdsChange { AdsChange::Unchanged }
/// #     fn is_candidate(&self, _: &DataGraph, _: &QueryGraph, _: QVertexId, _: VertexId)
/// #         -> bool { true }
/// # }
/// let mut q = QueryGraph::new();
/// let a = q.add_vertex(VLabel(0));
/// let b = q.add_vertex(VLabel(0));
/// q.add_edge(a, b, ELabel(0)).unwrap();
///
/// let mut cfg = ParaCosmConfig::sequential();
/// cfg.num_threads = 0; // invalid: caught at engine build time
/// match ParaCosm::try_new(DataGraph::new(), q, Plain, cfg) {
///     Err(CsmError::ConfigInvalid { field, .. }) => assert_eq!(field, "num_threads"),
///     Err(other) => panic!("expected ConfigInvalid, got {other:?}"),
///     Ok(_) => panic!("expected ConfigInvalid, got Ok"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CsmError {
    /// A graph mutation or parse failure, wrapped with full context.
    Graph(GraphError),
    /// A configuration rejected at build time ([`crate::ParaCosmConfig::validate`]).
    ConfigInvalid {
        /// The offending field.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// An update was refused by a bounded admission queue running the
    /// `Reject` backpressure policy.
    Backpressure {
        /// Capacity of the queue that refused the update.
        capacity: usize,
    },
    /// A service call referenced a session id that is not registered
    /// (never existed, or was already removed).
    SessionNotFound(u64),
    /// The service has been shut down (or is shutting down) and accepts
    /// no further updates or session changes.
    ServiceClosed,
}

impl fmt::Display for CsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsmError::Graph(e) => write!(f, "graph error: {e}"),
            CsmError::ConfigInvalid { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            CsmError::Backpressure { capacity } => {
                write!(
                    f,
                    "backpressure: admission queue full (capacity {capacity})"
                )
            }
            CsmError::SessionNotFound(id) => write!(f, "session {id} not found"),
            CsmError::ServiceClosed => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for CsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsmError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CsmError {
    fn from(e: GraphError) -> Self {
        CsmError::Graph(e)
    }
}

/// Convenience alias used across the framework and serving layer.
pub type CsmResult<T> = std::result::Result<T, CsmError>;

#[cfg(test)]
mod tests {
    use super::*;
    use csm_graph::VertexId;

    #[test]
    fn display_carries_context() {
        let e = CsmError::ConfigInvalid {
            field: "batch_size",
            reason: "must be >= 1".into(),
        };
        assert!(e.to_string().contains("batch_size"));
        let e = CsmError::Backpressure { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
        assert!(CsmError::SessionNotFound(3).to_string().contains("3"));
    }

    #[test]
    fn graph_errors_wrap_with_source() {
        use std::error::Error;
        let e: CsmError = GraphError::UnknownVertex(VertexId(7)).into();
        assert!(matches!(e, CsmError::Graph(_)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("unknown vertex"));
    }
}

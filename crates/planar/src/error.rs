use std::error::Error;
use std::fmt;

use planar_graph::GraphError;

/// Errors produced by planarity testing and embedding.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanarityError {
    /// The input graph is not planar; embedding is impossible.
    ///
    /// Carries how far the left-right test got before it found the
    /// obstruction (useful for diagnostics).
    NonPlanar {
        /// Edges whose left/right constraints the test had integrated
        /// without conflict when it found two return-edge intervals that
        /// must lie on both sides at once; always less than the edge count.
        embedded_edges: usize,
    },
    /// The input graph exceeds the planar edge bound `m <= 3n - 6`, detected
    /// before any embedding work.
    TooManyEdges {
        /// Number of vertices.
        n: usize,
        /// Number of edges.
        m: usize,
    },
    /// A constraint set (e.g. pinned outer-face vertices) cannot be satisfied
    /// even though the graph itself is planar.
    UnsatisfiableConstraint {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An underlying graph-structure error.
    Graph(GraphError),
}

impl fmt::Display for PlanarityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanarityError::NonPlanar { embedded_edges } => {
                write!(
                    f,
                    "graph is not planar (left-right conflict after {embedded_edges} consistent edges)"
                )
            }
            PlanarityError::TooManyEdges { n, m } => {
                write!(
                    f,
                    "graph has {m} edges but planar graphs on {n} vertices have at most {}",
                    3 * (*n).max(3) - 6
                )
            }
            PlanarityError::UnsatisfiableConstraint { reason } => {
                write!(f, "embedding constraint cannot be satisfied: {reason}")
            }
            PlanarityError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for PlanarityError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanarityError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<GraphError> for PlanarityError {
    fn from(e: GraphError) -> Self {
        PlanarityError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PlanarityError::NonPlanar { embedded_edges: 5 };
        assert!(e.to_string().contains("not planar"));
        let e = PlanarityError::TooManyEdges { n: 5, m: 10 };
        assert!(e.to_string().contains("at most 9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanarityError>();
    }
}

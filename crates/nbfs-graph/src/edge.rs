//! Edge lists — the raw output of the generator.

use crate::VertexId;

/// An undirected edge between two vertices (stored as an ordered pair;
/// direction carries no meaning).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// One endpoint.
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
}

impl Edge {
    /// Constructs an edge.
    pub fn new(u: VertexId, v: VertexId) -> Self {
        Self {
            u: u32::try_from(u).expect("vertex id exceeds u32"),
            v: u32::try_from(v).expect("vertex id exceeds u32"),
        }
    }

    /// The edge with endpoints ordered `min, max` (canonical form for
    /// undirected dedup).
    pub fn canonical(&self) -> Edge {
        Edge {
            u: self.u.min(self.v),
            v: self.u.max(self.v),
        }
    }
}

/// A list of undirected edges over `num_vertices` vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices in the id space.
    pub num_vertices: usize,
    /// The edges (may contain duplicates and self loops straight out of the
    /// generator, exactly like the Graph500 edge file).
    pub edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an edge list.
    pub fn new(num_vertices: usize, edges: Vec<Edge>) -> Self {
        Self {
            num_vertices,
            edges,
        }
    }

    /// Number of raw (possibly duplicated) edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Validates that every endpoint is within range.
    pub fn check_bounds(&self) -> Result<(), String> {
        for (i, e) in self.edges.iter().enumerate() {
            if e.u as usize >= self.num_vertices || e.v as usize >= self.num_vertices {
                return Err(format!(
                    "edge {i} ({}, {}) out of range {}",
                    e.u, e.v, self.num_vertices
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn canonical_orders_endpoints() {
        assert_eq!(Edge::new(5, 2).canonical(), Edge::new(2, 5));
        assert_eq!(Edge::new(2, 5).canonical(), Edge::new(2, 5));
    }

    #[test]
    fn bounds_check() {
        let ok = EdgeList::new(4, vec![Edge::new(0, 3)]);
        assert!(ok.check_bounds().is_ok());
        let bad = EdgeList::new(3, vec![Edge::new(0, 3)]);
        assert!(bad.check_bounds().is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn oversize_vertex_id_rejected() {
        Edge::new(0, 1usize << 40);
    }

    #[test]
    fn len_and_empty() {
        assert!(EdgeList::new(1, vec![]).is_empty());
        assert_eq!(EdgeList::new(4, vec![Edge::new(0, 1)]).len(), 1);
    }
}

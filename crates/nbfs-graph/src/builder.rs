//! Fluent construction of benchmark graphs.

use crate::csr::Csr;
use crate::edge::EdgeList;
use crate::rmat::{self, RmatParams};

/// Builder for the synthetic graphs used throughout the workspace.
///
/// ```
/// use nbfs_graph::GraphBuilder;
/// let g = GraphBuilder::rmat(10, 16).seed(42).build();
/// assert_eq!(g.num_vertices(), 1024);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    params: RmatParams,
}

impl GraphBuilder {
    /// Graph500 R-MAT graph at `scale` (2^scale vertices) with the given
    /// edge factor (Graph500 uses 16).
    pub fn rmat(scale: u32, edge_factor: usize) -> Self {
        Self {
            params: RmatParams::graph500(scale, edge_factor, 0xB505_5EED),
        }
    }

    /// Sets the generator seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Overrides the R-MAT quadrant probabilities (must sum with D to 1).
    pub fn probabilities(mut self, a: f64, b: f64, c: f64) -> Self {
        assert!(a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0);
        self.params.a = a;
        self.params.b = b;
        self.params.c = c;
        self
    }

    /// Generates the raw edge list (kernel-1 input).
    pub fn build_edge_list(&self) -> EdgeList {
        rmat::generate(&self.params)
    }

    /// Generates and assembles the CSR graph.
    pub fn build(&self) -> Csr {
        Csr::from_edge_list(&self.build_edge_list())
    }

    /// The parameters this builder will use.
    pub fn params(&self) -> &RmatParams {
        &self.params
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let g = GraphBuilder::rmat(8, 8).seed(5).build();
        assert_eq!(g.num_vertices(), 256);
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() <= 256 * 8);
    }

    #[test]
    fn same_seed_same_graph() {
        let a = GraphBuilder::rmat(9, 8).seed(3).build();
        let b = GraphBuilder::rmat(9, 8).seed(3).build();
        assert_eq!(a, b);
    }

    #[test]
    fn custom_probabilities_apply() {
        let uniform = GraphBuilder::rmat(10, 8)
            .seed(1)
            .probabilities(0.25, 0.25, 0.25)
            .build();
        let skewed = GraphBuilder::rmat(10, 8).seed(1).build();
        // Uniform Erdos-Renyi-like graphs have a much flatter degree
        // distribution than R-MAT.
        let max_deg = |g: &crate::Csr| (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg(&skewed) > max_deg(&uniform));
    }

    #[test]
    #[should_panic]
    fn invalid_probabilities_rejected() {
        GraphBuilder::rmat(8, 8).probabilities(0.6, 0.3, 0.2);
    }
}

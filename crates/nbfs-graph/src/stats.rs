//! Degree statistics for generated graphs.
//!
//! Used by tests to confirm the R-MAT skew and by the figure printers to
//! report workload characteristics alongside results.

use serde::{Deserialize, Serialize};

use crate::csr::Csr;

/// Degree-distribution summary of a graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Vertex count.
    pub num_vertices: usize,
    /// Undirected edge count.
    pub num_edges: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) vertices — R-MAT graphs have many.
    pub isolated: usize,
    /// Degree of the p50/p90/p99 vertex (ascending order).
    pub p50: usize,
    /// 90th percentile degree.
    pub p90: usize,
    /// 99th percentile degree.
    pub p99: usize,
}

impl DegreeStats {
    /// Computes the summary for `graph`.
    pub fn compute(graph: &Csr) -> Self {
        let n = graph.num_vertices();
        let mut degrees: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
        degrees.sort_unstable();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "p <= 1, so the rank is at most n - 1"
        )]
        let pick = |p: f64| degrees[((n - 1) as f64 * p) as usize];
        Self {
            num_vertices: n,
            num_edges: graph.num_edges(),
            mean_degree: graph.num_arcs() as f64 / n as f64,
            max_degree: *degrees.last().unwrap_or(&0),
            isolated: degrees.iter().take_while(|&&d| d == 0).count(),
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
        }
    }

    /// Skew ratio `max / mean` (large for scale-free graphs).
    pub fn skew(&self) -> f64 {
        if self.mean_degree == 0.0 {
            0.0
        } else {
            self.max_degree as f64 / self.mean_degree
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::edge::{Edge, EdgeList};

    #[test]
    fn stats_of_path() {
        let g = Csr::from_edge_list(&EdgeList::new(
            4,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)],
        ));
        let s = DegreeStats::compute(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated, 0);
        assert!((s.mean_degree - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rmat_is_skewed_with_isolated_tail() {
        let g = GraphBuilder::rmat(12, 16).seed(8).build();
        let s = DegreeStats::compute(&g);
        assert!(s.skew() > 10.0, "R-MAT skew {}", s.skew());
        assert!(s.isolated > 0, "R-MAT graphs have isolated vertices");
        assert!(s.p99 >= s.p90 && s.p90 >= s.p50);
    }
}

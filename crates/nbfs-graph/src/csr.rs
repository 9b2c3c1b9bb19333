//! Compressed sparse row adjacency storage.
//!
//! The BFS kernels stream `offsets`/`targets` sequentially per vertex and
//! probe bitmaps per neighbour; CSR keeps the streamed side dense and
//! cache-friendly. Graphs are undirected: every deduplicated edge appears
//! in both endpoints' adjacency lists, sorted ascending (which also makes
//! the bottom-up "first set neighbour wins" parent rule deterministic).
//!
//! [`Csr::from_edge_list`] is a counting sort by source over the raw edges
//! (the crate's row builder, shared with the streamed packed build): count
//! degrees, scatter both directions of every non-loop edge, then sort and
//! deduplicate each row in parallel and compact the rows in place. No
//! deduplicated copy of the edge list is made.

use crate::edge::EdgeList;
use crate::rows::{build_rows, Rows};
use crate::VertexId;

/// Undirected graph in CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds the CSR from an edge list: self loops dropped, duplicate
    /// edges (in either orientation) collapsed, both directions of every
    /// other edge inserted.
    ///
    /// # Panics
    ///
    /// If an edge names a vertex outside `0..edges.num_vertices`.
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        let n = edges.num_vertices;
        let Rows { offsets, targets } = build_rows(n, 0..n, std::slice::from_ref(&edges.edges));
        Csr { offsets, targets }
    }

    /// Reassembles a CSR from raw arrays (crate-internal: the compressed
    /// decoder). `offsets` must be monotone with `offsets[0] == 0` and
    /// rows must be strictly ascending.
    pub(crate) fn from_parts(offsets: Vec<u64>, targets: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().copied(), Some(targets.len() as u64));
        Csr { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *undirected* edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of stored directed arcs (twice the undirected edge count).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index an in-memory array, so they fit in usize"
    )]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbours of `v`, ascending.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index an in-memory array, so they fit in usize"
    )]
    pub fn neighbours(&self, v: VertexId) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The raw offsets array (len `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw targets array.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Approximate in-memory footprint in bytes (what the cost model calls
    /// "the graph", to which bitmaps are compared in Section III.A.1a).
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.targets.len() * 4
    }

    /// Does the undirected edge `(u, v)` exist?
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbours(u)
            .binary_search(&crate::vid::to_stored(v))
            .is_ok()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::edge::{Edge, EdgeList};
    use crate::GraphView;

    fn path_graph() -> Csr {
        // 0 - 1 - 2 - 3, plus isolated 4
        Csr::from_edge_list(&EdgeList::new(
            5,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)],
        ))
    }

    #[test]
    fn basic_shape() {
        let g = path_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbours(1), &[0, 2]);
        assert_eq!(g.neighbours(4), &[] as &[u32]);
    }

    #[test]
    fn both_directions_present_and_sorted() {
        let g = Csr::from_edge_list(&EdgeList::new(
            4,
            vec![Edge::new(3, 0), Edge::new(2, 0), Edge::new(1, 0)],
        ));
        assert_eq!(g.neighbours(0), &[1, 2, 3]);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn has_edge_pins_hub_membership() {
        // A hub adjacent to every odd vertex: the binary search must agree
        // with a linear membership scan across the whole id space,
        // including both row boundaries and the just-outside ids.
        let n = 1001usize;
        let edges: Vec<Edge> = (1..n).step_by(2).map(|v| Edge::new(0, v)).collect();
        let g = Csr::from_edge_list(&EdgeList::new(n, edges));
        assert_eq!(g.degree(0), 500);
        for v in 0..n {
            let expected = v % 2 == 1;
            assert_eq!(g.has_edge(0, v), expected, "hub membership of {v}");
            assert_eq!(g.has_edge(v, 0), expected, "symmetric membership of {v}");
        }
        assert!(g.has_edge(0, 1), "first neighbour");
        assert!(g.has_edge(0, 999), "last neighbour");
        assert!(!g.has_edge(0, 0), "no self loop");
        assert!(!g.has_edge(0, 1000), "one past the last neighbour");
    }

    #[test]
    fn duplicates_and_loops_ignored() {
        let g = Csr::from_edge_list(&EdgeList::new(
            3,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(0, 1),
                Edge::new(2, 2),
            ],
        ));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn component_discovery() {
        let g = path_graph();
        let mut comp = g.component_of(2);
        comp.sort_unstable();
        assert_eq!(comp, vec![0, 1, 2, 3]);
        assert_eq!(g.component_of(4), vec![4]);
        assert_eq!(g.component_edges(0), 3);
        assert_eq!(g.component_edges(4), 0);
    }

    #[test]
    fn size_accounting() {
        let g = path_graph();
        assert_eq!(g.size_bytes(), 6 * 8 + 6 * 4);
    }
}

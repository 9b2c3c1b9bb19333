//! Storage-generic read access to a graph.
//!
//! Both BFS engines accept any [`GraphView`] so they can traverse the
//! uncompressed [`Csr`](crate::Csr) and the delta-varint
//! [`CompressedCsr`](crate::CompressedCsr) through the same monomorphized
//! code paths — no `&dyn` indirection, so the hot kernels stay
//! allocation-free and branch-predictable. Engines consume the
//! view once at construction time to build their internal per-rank
//! structures; the per-level kernels never call back into it.

use crate::VertexId;

/// Read-only access to an undirected graph's adjacency structure.
///
/// Neighbour enumeration is push-style ([`Self::for_each_neighbour`])
/// rather than slice-returning so implementations that decode rows on the
/// fly (compressed storage) need no per-row buffer. Neighbours are always
/// visited in ascending id order — the kernels' deterministic "first set
/// neighbour wins" parent rule depends on it.
pub trait GraphView: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of *undirected* edges.
    fn num_edges(&self) -> usize;

    /// Degree of vertex `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Calls `f` with each neighbour of `v`, ascending.
    fn for_each_neighbour<F: FnMut(u32)>(&self, v: VertexId, f: F);

    /// Approximate in-memory footprint in bytes.
    fn size_bytes(&self) -> usize;

    /// The rows of vertices `start..end` concatenated, as one slice of the
    /// store, when it keeps them contiguous and uncompressed; `None` (the
    /// default) when a row must be decoded. A 1-D partition borrows this
    /// slice instead of copying the rows.
    fn row_targets(&self, start: VertexId, end: VertexId) -> Option<&[u32]> {
        let _ = (start, end);
        None
    }

    /// Number of stored directed arcs (twice the undirected edge count).
    fn num_arcs(&self) -> usize {
        2 * self.num_edges()
    }

    /// Does the undirected edge `(u, v)` exist? Implementations with
    /// random-access rows should override with a binary search.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let w = crate::vid::to_stored(v);
        let mut found = false;
        self.for_each_neighbour(u, |x| found |= x == w);
        found
    }

    /// The highest-degree vertex (lowest id wins ties) — the canonical
    /// root choice of the experiments.
    fn max_degree_vertex(&self) -> VertexId {
        let mut best = 0usize;
        let mut best_deg = 0usize;
        for v in 0..self.num_vertices() {
            let d = self.degree(v);
            if d > best_deg {
                best = v;
                best_deg = d;
            }
        }
        best
    }

    /// Vertices of the connected component containing `root`, by a simple
    /// sequential BFS (tests and validators only — not a measured kernel).
    fn component_of(&self, root: VertexId) -> Vec<VertexId> {
        let mut seen = vec![false; self.num_vertices()];
        seen[root] = true;
        // `out` is the queue: it grows in discovery order and `head` walks it.
        let mut out = vec![root];
        let mut head = 0;
        while let Some(&u) = out.get(head) {
            head += 1;
            self.for_each_neighbour(u, |w| {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    out.push(w);
                }
            });
        }
        out
    }

    /// Number of undirected edges with both endpoints inside the component
    /// of `root` — the Graph500 "traversed edges" numerator for TEPS.
    fn component_edges(&self, root: VertexId) -> usize {
        let arcs: usize = self
            .component_of(root)
            .iter()
            .map(|&v| self.degree(v))
            .sum();
        arcs / 2
    }
}

impl GraphView for crate::Csr {
    fn num_vertices(&self) -> usize {
        Self::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        Self::num_edges(self)
    }

    fn num_arcs(&self) -> usize {
        Self::num_arcs(self)
    }

    fn degree(&self, v: VertexId) -> usize {
        Self::degree(self, v)
    }

    fn for_each_neighbour<F: FnMut(u32)>(&self, v: VertexId, mut f: F) {
        for &w in self.neighbours(v) {
            f(w);
        }
    }

    fn size_bytes(&self) -> usize {
        Self::size_bytes(self)
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index an in-memory array, so they fit in usize"
    )]
    fn row_targets(&self, start: VertexId, end: VertexId) -> Option<&[u32]> {
        let offsets = self.offsets();
        Some(&self.targets()[offsets[start] as usize..offsets[end] as usize])
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        Self::has_edge(self, u, v)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn csr_view_agrees_with_inherent_methods() {
        let g = GraphBuilder::rmat(9, 8).seed(4).build();
        assert_eq!(GraphView::num_vertices(&g), g.num_vertices());
        assert_eq!(GraphView::num_edges(&g), g.num_edges());
        assert_eq!(GraphView::num_arcs(&g), g.num_arcs());
        for v in 0..g.num_vertices() {
            assert_eq!(GraphView::degree(&g, v), g.degree(v));
            let mut ns = Vec::new();
            g.for_each_neighbour(v, |w| ns.push(w));
            assert_eq!(ns, g.neighbours(v));
        }
        let root = GraphView::max_degree_vertex(&g);
        assert_eq!(
            root,
            (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap()
        );
    }
}

//! 1-D block distribution of the graph across ranks.
//!
//! Exactly like the Graph500 reference codes the paper builds on: "the
//! entire graph is partitioned into *np* parts ... each MPI process holds
//! one part of graph" (Section II.A). Rank `p` owns a contiguous,
//! word-aligned block of vertex ids and the full adjacency lists of those
//! vertices; neighbour ids remain global, because frontier bitmaps are
//! full-length and reassembled by allgather.
//!
//! The graph is read-only once built, so a rank keeps no copy of what the
//! store already holds contiguously: a dense [`Csr`](crate::Csr) rank
//! borrows its block of the targets array, and only a store that must
//! decode its rows (the delta-varint
//! [`CompressedCsr`](crate::CompressedCsr)) decodes each rank's block once
//! into an owned buffer.

use std::borrow::Cow;

use nbfs_util::BlockPartition;

use crate::view::GraphView;
use crate::VertexId;

/// The rows of the CSR owned by one rank: offsets rebased to the rank's
/// first row, and the rows' targets borrowed from the graph when it stores
/// them contiguously ([`GraphView::row_targets`]), decoded once otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalGraph<'g> {
    rank: usize,
    first_vertex: VertexId,
    offsets: Vec<u64>,
    targets: Cow<'g, [u32]>,
}

impl LocalGraph<'_> {
    /// Owning rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// First owned global vertex id.
    pub fn first_vertex(&self) -> VertexId {
        self.first_vertex
    }

    /// Number of owned vertices.
    pub fn num_local_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Global ids of the owned vertex range.
    pub fn vertex_range(&self) -> std::ops::Range<VertexId> {
        self.first_vertex..self.first_vertex + self.num_local_vertices()
    }

    /// Degree of the owned vertex with *global* id `v`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index an in-memory array, so they fit in usize"
    )]
    pub fn degree_global(&self, v: VertexId) -> usize {
        let l = v - self.first_vertex;
        (self.offsets[l + 1] - self.offsets[l]) as usize
    }

    /// Neighbours (global ids, ascending) of the owned vertex with *global*
    /// id `v`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index an in-memory array, so they fit in usize"
    )]
    pub fn neighbours_global(&self, v: VertexId) -> &[u32] {
        let l = v - self.first_vertex;
        &self.targets[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Directed arcs stored locally.
    pub fn num_local_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Bytes of the rows this rank scans: its offsets (8 B a vertex, plus
    /// one) and its targets (4 B an arc), whether the targets are borrowed
    /// from the graph or owned.
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.targets.len() * 4
    }
}

/// The whole graph, split into per-rank [`LocalGraph`]s that borrow from
/// the graph they were built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionedGraph<'g> {
    num_vertices: usize,
    num_edges: usize,
    locals: Vec<LocalGraph<'g>>,
}

impl<'g> PartitionedGraph<'g> {
    /// Splits `graph` into `parts` word-aligned blocks. Generic over the
    /// storage: a rank borrows its rows where the store hands them out as
    /// one slice, and otherwise (the compressed CSR) streams each row's
    /// decode once, without first expanding the whole graph.
    pub fn new<G: GraphView>(graph: &'g G, parts: usize) -> Self {
        let n = graph.num_vertices();
        let part = BlockPartition::new(n, parts);
        let locals = (0..parts)
            .map(|rank| {
                let (start, end) = part.item_range(rank);
                let mut offsets = Vec::with_capacity(end - start + 1);
                offsets.push(0u64);
                let targets = if let Some(rows) = graph.row_targets(start, end) {
                    let mut arcs = 0u64;
                    for v in start..end {
                        arcs += graph.degree(v) as u64;
                        offsets.push(arcs);
                    }
                    Cow::Borrowed(rows)
                } else {
                    // A rank holds about the mean share of the arcs: reserving
                    // it up front is one allocation where growth by doubling
                    // leaves a chain of freed, ever larger blocks behind in
                    // every rank.
                    let mut targets = Vec::with_capacity(graph.num_arcs() / parts);
                    for v in start..end {
                        graph.for_each_neighbour(v, |u| targets.push(u));
                        offsets.push(targets.len() as u64);
                    }
                    Cow::Owned(targets)
                };
                LocalGraph {
                    rank,
                    first_vertex: start,
                    offsets,
                    targets,
                }
            })
            .collect();
        Self {
            num_vertices: n,
            num_edges: graph.num_edges(),
            locals,
        }
    }

    /// The ownership partition (word-aligned blocks).
    pub fn partition(&self) -> BlockPartition {
        BlockPartition::new(self.num_vertices, self.locals.len())
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.locals.len()
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Global undirected edge count.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The rows owned by `rank`.
    pub fn local(&self, rank: usize) -> &LocalGraph<'g> {
        &self.locals[rank]
    }

    /// Owner rank of global vertex `v`.
    pub fn owner(&self, v: VertexId) -> usize {
        self.partition().owner(v)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn partition_preserves_all_adjacency() {
        let g = GraphBuilder::rmat(9, 8).seed(4).build();
        for parts in [1usize, 2, 3, 8] {
            let pg = PartitionedGraph::new(&g, parts);
            assert_eq!(pg.parts(), parts);
            assert_eq!(pg.num_vertices(), g.num_vertices());
            assert_eq!(pg.num_edges(), g.num_edges());
            let mut covered = 0usize;
            for rank in 0..parts {
                let lg = pg.local(rank);
                for v in lg.vertex_range() {
                    assert_eq!(
                        lg.neighbours_global(v),
                        g.neighbours(v),
                        "adjacency mismatch at v={v}, parts={parts}"
                    );
                    assert_eq!(lg.degree_global(v), g.degree(v));
                    covered += 1;
                }
            }
            assert_eq!(covered, g.num_vertices(), "parts={parts}");
        }
    }

    #[test]
    fn arcs_sum_to_total() {
        let g = GraphBuilder::rmat(10, 8).seed(9).build();
        let pg = PartitionedGraph::new(&g, 5);
        let total: usize = (0..5).map(|r| pg.local(r).num_local_arcs()).sum();
        assert_eq!(total, g.num_arcs());
    }

    #[test]
    fn owner_matches_ranges() {
        let g = GraphBuilder::rmat(8, 8).seed(2).build();
        let pg = PartitionedGraph::new(&g, 3);
        for rank in 0..3 {
            for v in pg.local(rank).vertex_range() {
                assert_eq!(pg.owner(v), rank);
            }
        }
    }

    #[test]
    fn partition_stores_the_graph_once() {
        // Rows and nothing else: the parts together cost one extra offset
        // per rank over the unpartitioned CSR.
        let g = GraphBuilder::rmat(10, 8).seed(9).build();
        for parts in [1usize, 3, 8, 128] {
            let pg = PartitionedGraph::new(&g, parts);
            let total: usize = (0..parts).map(|r| pg.local(r).size_bytes()).sum();
            assert!(
                total <= GraphView::size_bytes(&g) + 8 * parts,
                "parts={parts}: {total} B against a {} B graph",
                GraphView::size_bytes(&g)
            );
        }
    }

    #[test]
    fn dense_ranks_borrow_their_rows() {
        // Every rank of a `Csr` partition points into the graph's targets
        // array: no rank owns a copy of a row.
        let g = GraphBuilder::rmat(10, 8).seed(9).build();
        let whole = g.targets().as_ptr_range();
        for parts in [1usize, 3, 8, 128] {
            let pg = PartitionedGraph::new(&g, parts);
            for rank in 0..parts {
                let lg = pg.local(rank);
                assert!(
                    matches!(lg.targets, Cow::Borrowed(_)),
                    "rank {rank} of {parts} owns its targets"
                );
                let rows = lg.targets.as_ptr_range();
                assert!(
                    whole.start <= rows.start && rows.end <= whole.end,
                    "rank {rank} of {parts}: rows outside the graph's targets"
                );
                for v in lg.vertex_range() {
                    let row = lg.neighbours_global(v).as_ptr_range();
                    assert!(whole.start <= row.start && row.end <= whole.end);
                    assert_eq!(lg.neighbours_global(v), g.neighbours(v));
                }
            }
        }
    }

    #[test]
    fn packed_ranks_decode_their_rows() {
        let g = GraphBuilder::rmat(10, 8).seed(9).build();
        let packed = crate::CompressedCsr::from_csr(&g);
        let pg = PartitionedGraph::new(&packed, 3);
        for rank in 0..3 {
            assert!(matches!(pg.local(rank).targets, Cow::Owned(_)));
        }
        assert_eq!(pg, PartitionedGraph::new(&g, 3));
    }

    #[test]
    fn single_part_is_whole_graph() {
        let g = GraphBuilder::rmat(8, 8).seed(2).build();
        let pg = PartitionedGraph::new(&g, 1);
        let lg = pg.local(0);
        assert_eq!(lg.num_local_vertices(), g.num_vertices());
        assert_eq!(lg.num_local_arcs(), g.num_arcs());
    }
}

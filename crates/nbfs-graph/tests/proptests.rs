//! Property-based tests for the graph substrate.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use proptest::prelude::*;

use nbfs_graph::edge::{Edge, EdgeList};
use nbfs_graph::io;
use nbfs_graph::rmat::{generate, generate_compressed, scramble, RmatParams};
use nbfs_graph::{CompressedCsr, Csr, GraphView, PartitionedGraph};

/// Rows strictly ascending, and every arc stored in both directions.
fn assert_symmetric_ascending<G: GraphView>(g: &G) -> Result<(), TestCaseError> {
    let rows: Vec<Vec<u32>> = (0..g.num_vertices())
        .map(|v| {
            let mut row = Vec::new();
            g.for_each_neighbour(v, |u| row.push(u));
            row
        })
        .collect();
    for (u, row) in rows.iter().enumerate() {
        prop_assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "row {} not strictly ascending",
            u
        );
        for &v in row {
            prop_assert!(
                rows[v as usize].binary_search(&(u as u32)).is_ok(),
                "arc ({}, {}) has no reverse",
                u,
                v
            );
        }
    }
    Ok(())
}

/// The dense CSR by its first formulation: canonicalise every edge, drop
/// self loops, sort and deduplicate the whole list, then scatter both
/// directions of each surviving edge and sort each row. Returns `(offsets,
/// targets)`.
fn dedup_then_scatter(el: &EdgeList) -> (Vec<u64>, Vec<u32>) {
    let mut canon: Vec<Edge> = el
        .edges
        .iter()
        .filter(|e| e.u != e.v)
        .map(Edge::canonical)
        .collect();
    canon.sort_unstable_by_key(|e| (e.u, e.v));
    canon.dedup();
    let n = el.num_vertices;
    let mut offsets = vec![0u64; n + 1];
    for e in &canon {
        offsets[e.u as usize + 1] += 1;
        offsets[e.v as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; offsets[n] as usize];
    for e in &canon {
        for (s, t) in [(e.u, e.v), (e.v, e.u)] {
            targets[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        }
    }
    for v in 0..n {
        targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
    }
    (offsets, targets)
}

proptest! {
    /// The label scrambler is a bijection on [0, 2^scale) for any seed.
    #[test]
    fn scramble_bijective(scale in 1u32..14, seed in any::<u64>()) {
        let n = 1u32 << scale;
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = scramble(x, scale, seed);
            prop_assert!(y < n, "image out of range");
            prop_assert!(!seen[y as usize], "collision at {y}");
            seen[y as usize] = true;
        }
    }

    /// CSR adjacency is symmetric (undirected) and sorted for arbitrary
    /// edge lists.
    #[test]
    fn csr_symmetric_and_sorted(
        edges in prop::collection::vec((0u32..300, 0u32..300), 0..500),
    ) {
        let el = EdgeList::new(300, edges.iter().map(|&(u, v)| Edge { u, v }).collect());
        let g = Csr::from_edge_list(&el);
        for v in 0..g.num_vertices() {
            let ns = g.neighbours(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "row {v} not strictly sorted");
            for &u in ns {
                prop_assert!(g.has_edge(u as usize, v), "asymmetric edge ({},{})", v, u);
                prop_assert_ne!(u as usize, v, "self loop survived");
            }
        }
        prop_assert_eq!(g.num_arcs(), 2 * g.num_edges());
    }

    /// The row builder equals the dedup-then-scatter formulation on
    /// arbitrary lists: loops, duplicates in either orientation, empty rows
    /// and a one-vertex id space included.
    #[test]
    fn builder_matches_dedup_then_scatter(
        n in 1usize..120,
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..600),
    ) {
        let edges = raw.iter().map(|&(u, v)| Edge { u: u % n as u32, v: v % n as u32 }).collect();
        let el = EdgeList::new(n, edges);
        let g = Csr::from_edge_list(&el);
        let (offsets, targets) = dedup_then_scatter(&el);
        prop_assert_eq!(g.offsets(), offsets.as_slice());
        prop_assert_eq!(g.targets(), targets.as_slice());
    }

    /// Partitioning preserves adjacency for any part count, and the
    /// borrowed dense partition and the decoded packed one agree rank by
    /// rank.
    #[test]
    fn partition_preserves_structure(
        edges in prop::collection::vec((0u32..200, 0u32..200), 1..300),
        parts in 1usize..9,
    ) {
        let el = EdgeList::new(200, edges.iter().map(|&(u, v)| Edge { u, v }).collect());
        let g = Csr::from_edge_list(&el);
        let packed = CompressedCsr::from_csr(&g);
        let pg = PartitionedGraph::new(&g, parts);
        let pp = PartitionedGraph::new(&packed, parts);
        for rank in 0..parts {
            let lg = pg.local(rank);
            let lp = pp.local(rank);
            prop_assert_eq!(lg.vertex_range(), lp.vertex_range());
            for v in lg.vertex_range() {
                prop_assert_eq!(lg.neighbours_global(v), g.neighbours(v));
                prop_assert_eq!(lp.neighbours_global(v), g.neighbours(v));
                prop_assert_eq!(lg.degree_global(v), lp.degree_global(v));
            }
            prop_assert_eq!(lg.num_local_arcs(), lp.num_local_arcs());
            prop_assert_eq!(lg.size_bytes(), lp.size_bytes());
        }
    }

    /// What the top-down owner walk relies on in every store the engines
    /// partition: the arcs from `u` into a block are `u`'s own row cut at
    /// the block boundaries, which needs `v ∈ row(u) ⇔ u ∈ row(v)` and
    /// strictly ascending rows.
    #[test]
    fn rows_are_symmetric_and_ascending_in_every_store(
        edges in prop::collection::vec((0u32..300, 0u32..300), 0..500),
        seed in any::<u64>(),
    ) {
        let el = EdgeList::new(300, edges.iter().map(|&(u, v)| Edge { u, v }).collect());
        let dense = Csr::from_edge_list(&el);
        assert_symmetric_ascending(&dense)?;
        assert_symmetric_ascending(&CompressedCsr::from_csr(&dense))?;
        assert_symmetric_ascending(&generate_compressed(&RmatParams::graph500(8, 4, seed), 2))?;
    }

    /// Binary and text I/O round-trip arbitrary edge lists.
    #[test]
    fn io_roundtrips(
        edges in prop::collection::vec((0u32..100, 0u32..100), 0..200),
    ) {
        let el = EdgeList::new(100, edges.iter().map(|&(u, v)| Edge { u, v }).collect());
        let mut bin = Vec::new();
        io::write_binary(&mut bin, &el).unwrap();
        prop_assert_eq!(&io::read_binary(&mut bin.as_slice()).unwrap(), &el);
        let mut txt = Vec::new();
        io::write_text(&mut txt, &el).unwrap();
        prop_assert_eq!(&io::read_text(txt.as_slice(), Some(100)).unwrap(), &el);
    }

    /// The generator is deterministic and in-range for arbitrary seeds.
    #[test]
    fn generator_deterministic(seed in any::<u64>()) {
        let p = RmatParams::graph500(8, 4, seed);
        let a = generate(&p);
        let b = generate(&p);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.check_bounds().is_ok());
        prop_assert_eq!(a.len(), 256 * 4);
    }

    /// Delta-varint compression round-trips arbitrary edge lists: same
    /// counts, same degrees, same neighbour streams, same dense CSR back.
    #[test]
    fn compressed_round_trips(
        edges in prop::collection::vec((0u32..300, 0u32..300), 0..500),
    ) {
        let el = EdgeList::new(300, edges.iter().map(|&(u, v)| Edge { u, v }).collect());
        let g = Csr::from_edge_list(&el);
        let c = CompressedCsr::from_csr(&g);
        prop_assert_eq!(c.num_vertices(), g.num_vertices());
        prop_assert_eq!(c.num_edges(), g.num_edges());
        prop_assert_eq!(c.num_arcs(), g.num_arcs());
        for v in 0..g.num_vertices() {
            prop_assert_eq!(GraphView::degree(&c, v), g.degree(v), "degree of {}", v);
            let mut ns = Vec::new();
            c.for_each_neighbour(v, |w| ns.push(w));
            prop_assert_eq!(ns, g.neighbours(v).to_vec(), "row {}", v);
        }
        prop_assert_eq!(&c.to_csr(), &g);
    }

    /// Size accounting brackets: each arc costs at least one payload byte
    /// and at most the five-byte LEB128 ceiling, and the packed offsets
    /// cost five bytes per entry — so `size_bytes` must land inside
    /// analytic bounds for any input.
    #[test]
    fn compressed_size_accounting(
        edges in prop::collection::vec((0u32..300, 0u32..300), 0..500),
    ) {
        let el = EdgeList::new(300, edges.iter().map(|&(u, v)| Edge { u, v }).collect());
        let g = Csr::from_edge_list(&el);
        let c = CompressedCsr::from_csr(&g);
        let offsets = 5 * (g.num_vertices() + 1);
        prop_assert!(c.size_bytes() >= g.num_arcs() + offsets || g.num_arcs() == 0);
        prop_assert!(c.size_bytes() <= 5 * g.num_arcs() + offsets);
    }

    /// The streaming compressed build equals compressing the dense build,
    /// for any seed and any pass count.
    #[test]
    fn streaming_build_matches_dense_build(seed in any::<u64>(), passes in 1usize..5) {
        let p = RmatParams::graph500(8, 4, seed);
        let dense = Csr::from_edge_list(&generate(&p));
        let streamed = generate_compressed(&p, passes);
        prop_assert_eq!(&streamed.to_csr(), &dense, "passes={}", passes);
    }

}

/// Pinned regression for the compressed round-trip: the adversarial shapes
/// the random strategies once had to shrink to — duplicate multi-edges and
/// self loops on the id-space boundary, an empty leading row, a vertex
/// adjacent to everything (one-byte deltas), and a max-spread row (widest
/// varints). Kept as explicit inputs so the case replays on every run
/// regardless of the proptest seed.
#[test]
fn compressed_pinned_regression() {
    let edges = vec![
        Edge::new(299, 299), // self loop at the boundary
        Edge::new(299, 298),
        Edge::new(298, 299), // duplicate in the other orientation
        Edge::new(1, 299),   // max-spread row
        Edge::new(1, 2),
        Edge::new(1, 2), // duplicate multi-edge
        Edge::new(1, 150),
    ];
    let el = EdgeList::new(300, edges);
    let g = Csr::from_edge_list(&el);
    let c = CompressedCsr::from_csr(&g);
    assert_eq!(c.to_csr(), g);
    assert_eq!(GraphView::degree(&c, 0), 0, "empty leading row");
    assert_eq!(g.neighbours(1), &[2, 150, 299], "dedup + sort");
    let offsets = 5 * (g.num_vertices() + 1);
    assert!(c.size_bytes() >= g.num_arcs() + offsets);
    assert!(c.size_bytes() <= 5 * g.num_arcs() + offsets);
}

/// The headline compression claim at a scale debug builds can afford:
/// delta-varint beats the dense CSR by more than 2x on scale-16 R-MAT.
#[test]
fn compression_ratio_exceeds_two_at_scale_16() {
    let g = nbfs_graph::GraphBuilder::rmat(16, 16).seed(1).build();
    let c = CompressedCsr::from_csr(&g);
    let ratio = g.size_bytes() as f64 / c.size_bytes() as f64;
    assert!(ratio >= 2.0, "compression ratio {ratio:.2} < 2.0");
}

/// The acceptance-scale compression claim: >= 2x on the scale-19 R-MAT the
/// committed benchmark snapshot runs. Debug builds skip it (the graph
/// takes minutes to assemble unoptimized); CI runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "scale-19 build is release-only")]
fn compression_ratio_exceeds_two_at_scale_19() {
    let g = nbfs_graph::GraphBuilder::rmat(19, 16).seed(1).build();
    let c = CompressedCsr::from_csr(&g);
    let ratio = g.size_bytes() as f64 / c.size_bytes() as f64;
    assert!(ratio >= 2.0, "compression ratio {ratio:.2} < 2.0");
}

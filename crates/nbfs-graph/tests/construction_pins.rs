//! Pins the bytes of every graph construction path: the R-MAT edge stream,
//! the dense CSR built from it, and the streamed delta-varint image.
//!
//! The keys, trees, `profile_pins` and simulated-time metrics of the whole
//! workspace are functions of these bytes, so a rewrite of the generator or
//! of a row builder must leave every value here unchanged. Each R-MAT cell
//! is pinned by a 64-bit fingerprint; the hand-made lists are pinned
//! literally.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use nbfs_graph::rmat::{generate, generate_compressed, RmatParams};
use nbfs_graph::{CompressedCsr, Csr, Edge, EdgeList, GraphView};
use nbfs_util::rng::splitmix64;

/// Order-sensitive 64-bit fingerprint of a word stream.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x6a09_e667_f3bc_c908, |h, w| splitmix64(h ^ w))
}

fn edges_print(el: &EdgeList) -> u64 {
    fingerprint(
        std::iter::once(el.num_vertices as u64).chain(
            el.edges
                .iter()
                .map(|e| u64::from(e.u) << 32 | u64::from(e.v)),
        ),
    )
}

fn csr_print(g: &Csr) -> u64 {
    fingerprint(
        g.offsets()
            .iter()
            .copied()
            .chain(g.targets().iter().map(|&t| u64::from(t))),
    )
}

/// The rows as the engines read them, plus the image's byte size: the
/// encoder is a pure function of the rows, so together they fix the image.
fn image_print(c: &CompressedCsr) -> u64 {
    let mut words = vec![c.num_vertices() as u64, c.size_bytes() as u64];
    for v in 0..c.num_vertices() {
        words.push(GraphView::degree(c, v) as u64);
        c.for_each_neighbour(v, |w| words.push(u64::from(w)));
    }
    fingerprint(words)
}

/// `(scale, edge_factor, seed, raw edges, CSR arcs, edge-list print,
/// CSR print, packed-image print)`.
type Cell = (u32, usize, u64, usize, usize, u64, u64, u64);

#[rustfmt::skip]
const CELLS: [Cell; 4] = [
    (1, 16, 5, 32, 2, 0x0458_d758_a3dc_7aa6, 0xf234_4fae_f7fd_9afb, 0x89da_f068_3f0d_fc5b),
    (7, 8, 99, 1024, 1142, 0x9a2e_1eca_8419_825c, 0x9d00_915b_e403_c3ce, 0xc2e6_bfc0_b7fd_8698),
    (11, 16, 23, 32768, 45544, 0x605d_782b_9297_9a41, 0x9b69_8adc_f31c_bf9c, 0xb2d7_5c3d_2e96_3b23),
    (14, 16, 2012, 262_144, 425_792, 0x273c_9ab9_cc5f_59b8, 0x4d2e_8272_0efd_1781, 0x7745_48fc_f29d_f054),
];

#[test]
fn rmat_cells_are_pinned() {
    for (scale, ef, seed, raw, arcs, el_print, g_print, c_print) in CELLS {
        let p = RmatParams::graph500(scale, ef, seed);
        let el = generate(&p);
        let g = Csr::from_edge_list(&el);
        let packed = generate_compressed(&p, 1);
        assert_eq!(el.len(), raw, "scale {scale}: raw edges");
        assert_eq!(g.num_arcs(), arcs, "scale {scale}: arcs");
        assert_eq!(edges_print(&el), el_print, "scale {scale}: edge list");
        assert_eq!(csr_print(&g), g_print, "scale {scale}: dense CSR");
        assert_eq!(image_print(&packed), c_print, "scale {scale}: packed image");
        assert_eq!(
            generate_compressed(&p, 3),
            packed,
            "scale {scale}: passes 3 vs 1"
        );
        assert_eq!(
            packed.to_csr(),
            g,
            "scale {scale}: packed rows vs dense rows"
        );
    }
}

/// Self loops, a duplicate, a reversed duplicate, an isolated vertex and a
/// vertex whose only edge is a self loop.
#[test]
fn hand_made_list_is_pinned() {
    let el = EdgeList::new(
        7,
        vec![
            Edge::new(3, 1),
            Edge::new(2, 2),
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(0, 1),
            Edge::new(6, 6),
            Edge::new(5, 0),
            Edge::new(1, 3),
            Edge::new(3, 0),
        ],
    );
    let g = Csr::from_edge_list(&el);
    assert_eq!(g.offsets(), &[0, 3, 5, 5, 7, 7, 8, 8]);
    assert_eq!(g.targets(), &[1, 3, 5, 0, 3, 0, 1, 0]);
    assert_eq!(CompressedCsr::from_csr(&g).to_csr(), g);
}

#[test]
fn single_vertex_lists_are_pinned() {
    for edges in [vec![], vec![Edge::new(0, 0), Edge::new(0, 0)]] {
        let g = Csr::from_edge_list(&EdgeList::new(1, edges));
        assert_eq!(g.offsets(), &[0, 0]);
        assert!(g.targets().is_empty());
    }
    let p = RmatParams::graph500(1, 1, 0);
    let el = generate(&p);
    assert_eq!(el.num_vertices, 2);
    assert_eq!(el.len(), 2);
}

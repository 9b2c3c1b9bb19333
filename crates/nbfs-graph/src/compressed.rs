//! Delta-varint compressed sparse row storage.
//!
//! The uncompressed [`Csr`] spends 8 bytes per offset and 4 per target;
//! R-MAT adjacency is highly compressible because sorted neighbour lists
//! of a scale-free graph have small gaps (hubs especially so). Each row is
//! stored as LEB128 varints — the first neighbour absolute, then strictly
//! positive gaps — and the per-vertex *byte* offsets are packed 5 bytes
//! each (`u40`: graphs up to a terabyte of adjacency bytes). On scale-19
//! R-MAT this halves the footprint (measured 2.08×; 2.45× at scale 16),
//! which is what lets scale 21–22 build in the memory scale 19 needed
//! before.
//!
//! Vertex ids pass through the [`vid`](crate::vid) sanctuary exactly like
//! the uncompressed path; nothing here narrows an id by hand.

use nbfs_util::varint::{push_varint, read_varint};

use crate::csr::Csr;
use crate::view::GraphView;
use crate::VertexId;

/// Byte width of one packed offset entry (`u40`).
const OFFSET_BYTES: usize = 5;

/// `n + 1` byte offsets packed 5 bytes (little-endian) each.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PackedOffsets {
    raw: Vec<u8>,
}

impl PackedOffsets {
    fn with_capacity(entries: usize) -> Self {
        Self {
            raw: Vec::with_capacity(entries * OFFSET_BYTES),
        }
    }

    fn push(&mut self, value: u64) {
        assert!(value < 1u64 << 40, "adjacency stream exceeds u40 offsets");
        let le = value.to_le_bytes();
        self.raw.extend_from_slice(&le[..OFFSET_BYTES]);
    }

    #[inline]
    fn get(&self, index: usize) -> u64 {
        let at = index * OFFSET_BYTES;
        let mut le = [0u8; 8];
        le[..OFFSET_BYTES].copy_from_slice(&self.raw[at..at + OFFSET_BYTES]);
        u64::from_le_bytes(le)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.raw.len() / OFFSET_BYTES
    }

    fn size_bytes(&self) -> usize {
        self.raw.len()
    }
}

/// Undirected graph in delta-varint compressed CSR form.
///
/// Construction sites: [`CompressedCsr::from_csr`] re-encodes an existing
/// [`Csr`], and [`rmat::generate_compressed`](crate::rmat::generate_compressed)
/// streams R-MAT blocks straight into this representation without ever
/// materializing the global edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedCsr {
    num_vertices: usize,
    num_arcs: usize,
    offsets: PackedOffsets,
    data: Vec<u8>,
}

/// Incrementally appends encoded rows in vertex order; used by both
/// [`CompressedCsr::from_csr`] and the streaming R-MAT builder.
pub(crate) struct RowEncoder {
    num_vertices: usize,
    num_arcs: usize,
    next_row: usize,
    offsets: PackedOffsets,
    data: Vec<u8>,
}

impl RowEncoder {
    pub(crate) fn new(num_vertices: usize) -> Self {
        let mut offsets = PackedOffsets::with_capacity(num_vertices + 1);
        offsets.push(0);
        Self {
            num_vertices,
            num_arcs: 0,
            next_row: 0,
            offsets,
            data: Vec::new(),
        }
    }

    /// Appends the next vertex's sorted, deduplicated neighbour list.
    pub(crate) fn push_row(&mut self, neighbours: &[u32]) {
        debug_assert!(self.next_row < self.num_vertices, "too many rows");
        debug_assert!(
            neighbours.windows(2).all(|w| w[0] < w[1]),
            "row {} not strictly ascending",
            self.next_row
        );
        let mut prev = 0u64;
        for (i, &w) in neighbours.iter().enumerate() {
            let w = u64::from(w);
            // First neighbour absolute, then the strictly positive gaps.
            let delta = if i == 0 { w } else { w - prev };
            push_varint(&mut self.data, delta);
            prev = w;
        }
        self.num_arcs += neighbours.len();
        self.next_row += 1;
        self.offsets.push(self.data.len() as u64);
    }

    pub(crate) fn finish(self) -> CompressedCsr {
        assert_eq!(self.next_row, self.num_vertices, "missing rows");
        CompressedCsr {
            num_vertices: self.num_vertices,
            num_arcs: self.num_arcs,
            offsets: self.offsets,
            data: self.data,
        }
    }
}

impl CompressedCsr {
    /// Re-encodes an uncompressed CSR.
    pub fn from_csr(graph: &Csr) -> Self {
        let mut enc = RowEncoder::new(graph.num_vertices());
        for v in 0..graph.num_vertices() {
            enc.push_row(graph.neighbours(v));
        }
        enc.finish()
    }

    /// Expands back to the uncompressed representation (tests and
    /// one-off conversions; the engines traverse this form directly).
    pub fn to_csr(&self) -> Csr {
        let mut offsets = Vec::with_capacity(self.num_vertices + 1);
        let mut targets = Vec::with_capacity(self.num_arcs);
        offsets.push(0u64);
        for v in 0..self.num_vertices {
            self.for_each_neighbour(v, |w| targets.push(w));
            offsets.push(targets.len() as u64);
        }
        Csr::from_parts(offsets, targets)
    }

    /// Byte span of `v`'s encoded row.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "byte offsets index the in-memory row data, so they fit in usize"
    )]
    fn row_span(&self, v: VertexId) -> (usize, usize) {
        (
            self.offsets.get(v) as usize,
            self.offsets.get(v + 1) as usize,
        )
    }
}

impl GraphView for CompressedCsr {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_arcs / 2
    }

    fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// O(row bytes): counts the varint terminator bytes in the row span.
    fn degree(&self, v: VertexId) -> usize {
        let (start, end) = self.row_span(v);
        self.data[start..end]
            .iter()
            .filter(|&&b| b & 0x80 == 0)
            .count()
    }

    fn for_each_neighbour<F: FnMut(u32)>(&self, v: VertexId, mut f: F) {
        let (start, end) = self.row_span(v);
        let mut pos = start;
        let mut acc = 0u64;
        while pos < end {
            let (delta, next) = read_varint(&self.data, pos);
            // First value is absolute; subsequent deltas accumulate.
            acc = if pos == start { delta } else { acc + delta };
            pos = next;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the encoder widened a u32 id, which fits in usize"
            )]
            f(crate::vid::to_stored(acc as usize));
        }
    }

    /// Encoded bytes plus the packed offsets — the number the ≥2×
    /// compression acceptance test compares against [`Csr::size_bytes`].
    fn size_bytes(&self) -> usize {
        self.data.len() + self.offsets.size_bytes()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::edge::{Edge, EdgeList};

    #[test]
    fn round_trips_an_rmat_graph() {
        let g = GraphBuilder::rmat(11, 8).seed(23).build();
        let c = CompressedCsr::from_csr(&g);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.num_arcs(), g.num_arcs());
        for v in 0..g.num_vertices() {
            assert_eq!(GraphView::degree(&c, v), g.degree(v), "degree of {v}");
            let mut ns = Vec::new();
            c.for_each_neighbour(v, |w| ns.push(w));
            assert_eq!(ns, g.neighbours(v), "row {v}");
        }
        assert_eq!(c.to_csr(), g);
    }

    #[test]
    fn compresses_rmat_adjacency() {
        let g = GraphBuilder::rmat(12, 16).seed(3).build();
        let c = CompressedCsr::from_csr(&g);
        assert!(
            c.size_bytes() < g.size_bytes(),
            "compressed {} !< uncompressed {}",
            c.size_bytes(),
            g.size_bytes()
        );
    }

    #[test]
    fn handles_empty_rows_and_tiny_graphs() {
        // 0 - 1, isolated 2; plus the single-vertex graph.
        let g = Csr::from_edge_list(&EdgeList::new(3, vec![Edge::new(0, 1)]));
        let c = CompressedCsr::from_csr(&g);
        assert_eq!(GraphView::degree(&c, 2), 0);
        let mut ns = Vec::new();
        c.for_each_neighbour(2, |w| ns.push(w));
        assert!(ns.is_empty());
        assert_eq!(c.to_csr(), g);

        let lone = Csr::from_edge_list(&EdgeList::new(1, vec![]));
        let cl = CompressedCsr::from_csr(&lone);
        assert_eq!(cl.num_vertices(), 1);
        assert_eq!(cl.num_arcs(), 0);
        assert_eq!(cl.to_csr(), lone);
    }

    #[test]
    fn packed_offsets_round_trip_wide_values() {
        let mut po = PackedOffsets::with_capacity(4);
        for v in [0u64, 1, 0xff, 0xff_ffff_ffff] {
            po.push(v);
        }
        assert_eq!(po.len(), 4);
        assert_eq!(po.get(0), 0);
        assert_eq!(po.get(1), 1);
        assert_eq!(po.get(2), 0xff);
        assert_eq!(po.get(3), 0xff_ffff_ffff);
    }
}

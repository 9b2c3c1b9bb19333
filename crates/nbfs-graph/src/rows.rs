//! The one row builder behind both graph stores.
//!
//! A counting sort by source: count each row's arcs, scatter both
//! directions of every raw edge into their rows, then sort and deduplicate
//! each row on its own (in parallel) and compact the rows in place. Self
//! loops are skipped while counting. No canonical copy of the edge list is
//! made and no comparison sort spans more than one row, so the transient
//! bytes are the targets array and one offset per row.
//!
//! [`Csr::from_edge_list`](crate::Csr::from_edge_list) builds every row at
//! once; [`rmat::generate_compressed`](crate::rmat::generate_compressed)
//! builds one vertex block per pass from the edges that touch it.

use std::ops::Range;

use rayon::prelude::*;

use crate::edge::Edge;

/// Fewest rows a parallel sort piece takes: a torus row holds four arcs, so
/// a piece of fewer rows costs more to dispatch than to sort.
const SORT_MIN_ROWS: usize = 1 << 12;

/// The sorted, deduplicated rows of one vertex block.
pub(crate) struct Rows {
    /// One entry per row of the block plus one, from 0.
    pub(crate) offsets: Vec<u64>,
    /// Each row strictly ascending.
    pub(crate) targets: Vec<u32>,
}

impl Rows {
    /// Row `i` of the block (vertex `block.start + i`).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index the in-memory targets, so they fit in usize"
    )]
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Builds rows `block` of the undirected graph on `num_vertices` vertices
/// whose raw edges are the concatenation of `edges`: the row of `s` holds
/// every `t != s` that some edge joins to `s`, once, ascending.
///
/// # Panics
///
/// If an edge names a vertex outside `0..num_vertices`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "offsets index the in-memory targets, so they fit in usize"
)]
pub(crate) fn build_rows(num_vertices: usize, block: Range<usize>, edges: &[Vec<Edge>]) -> Rows {
    let len = block.len();
    // Count: the degree of row `i` lands in `offsets[i + 1]`; the prefix
    // sum turns `offsets[i]` into the start of row `i`.
    let mut offsets = vec![0u64; len + 1];
    block_arcs(num_vertices, &block, edges).for_each(|(i, _)| offsets[i + 1] += 1);
    for i in 0..len {
        offsets[i + 1] += offsets[i];
    }
    // Scatter with `offsets[i]` as row `i`'s cursor: afterwards it holds
    // the row's end, which is where row `i + 1` starts.
    let mut targets = vec![0u32; offsets[len] as usize];
    block_arcs(num_vertices, &block, edges).for_each(|(i, t)| {
        targets[offsets[i] as usize] = t;
        offsets[i] += 1;
    });
    offsets.copy_within(0..len, 1);
    offsets[0] = 0;
    // Sort and deduplicate each row in place; each slice shrinks to the
    // row's distinct neighbours.
    let mut rows: Vec<&mut [u32]> = Vec::with_capacity(len);
    let mut rest: &mut [u32] = &mut targets;
    for i in 0..len {
        let (row, tail) = rest.split_at_mut((offsets[i + 1] - offsets[i]) as usize);
        rows.push(row);
        rest = tail;
    }
    rows.par_iter_mut()
        .with_min_len(SORT_MIN_ROWS)
        .for_each(|slot| {
            let row = std::mem::take(slot);
            row.sort_unstable();
            let kept = dedup_sorted(row);
            *slot = &mut row[..kept];
        });
    let kept: Vec<usize> = rows.iter().map(|row| row.len()).collect();
    drop(rows);
    // Compact: slide each row down over the duplicates removed before it.
    let mut write = 0usize;
    for (i, kept) in kept.into_iter().enumerate() {
        let read = offsets[i] as usize;
        if read != write {
            targets.copy_within(read..read + kept, write);
        }
        write += kept;
        offsets[i] = (write - kept) as u64;
    }
    offsets[len] = write as u64;
    targets.truncate(write);
    targets.shrink_to_fit();
    Rows { offsets, targets }
}

/// Every arc `(row, target)` of `block` in `edges`: both directions of
/// each edge whose source lies in the block, self loops skipped, rows
/// numbered from the block's start.
fn block_arcs<'a>(
    num_vertices: usize,
    block: &'a Range<usize>,
    edges: &'a [Vec<Edge>],
) -> impl Iterator<Item = (usize, u32)> + 'a {
    edges.iter().flatten().flat_map(move |e| {
        let (u, v) = (e.u as usize, e.v as usize);
        assert!(
            u < num_vertices && v < num_vertices,
            "edge ({u}, {v}) outside the id space of {num_vertices} vertices"
        );
        let arc =
            move |s: usize, t: u32| (u != v && block.contains(&s)).then(|| (s - block.start, t));
        arc(u, e.v).into_iter().chain(arc(v, e.u))
    })
}

/// Moves the distinct values of the sorted `row` to its front and returns
/// how many there are.
fn dedup_sorted(row: &mut [u32]) -> usize {
    let mut kept = 0;
    for i in 0..row.len() {
        if kept == 0 || row[i] != row[kept - 1] {
            row[kept] = row[i];
            kept += 1;
        }
    }
    kept
}

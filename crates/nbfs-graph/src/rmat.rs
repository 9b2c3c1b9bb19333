//! R-MAT / Kronecker edge generation per the Graph500 specification.
//!
//! Each edge picks one quadrant of the adjacency matrix per scale level
//! with probabilities `A = 0.57, B = 0.19, C = 0.19, D = 0.05` (Chakrabarti
//! et al. \[13\]; the Graph500 parameters). The resulting labels are then
//! *scrambled* by a pseudorandom permutation so that vertex id correlates
//! with nothing — the reference implementation does the same so kernels
//! cannot exploit generation locality.
//!
//! Randomness is counter-based ([`nbfs_util::rng::CounterStream`]): edge
//! `i`'s draws are a pure function of `(seed, i)`, so generation is
//! reproducible, order-independent and embarrassingly parallel. The index
//! is hashed once per edge, the quadrant thresholds are computed once per
//! parameter set, and the scramble is a table of `n` labels built once, so
//! an edge costs `2 * scale + 1` mixes and two table reads.
//!
//! [`generate`] writes the raw edge list; [`generate_compressed`] streams
//! the same edges through the crate's row builder (the one behind
//! [`Csr::from_edge_list`](crate::Csr::from_edge_list)) into a
//! [`CompressedCsr`], one vertex block per pass.

use rayon::prelude::*;

use nbfs_util::rng::{splitmix64, CounterStream};

use crate::compressed::{CompressedCsr, RowEncoder};
use crate::edge::{Edge, EdgeList};
use crate::rows::build_rows;

/// Graph500 R-MAT parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// log2 of the number of vertices (Graph500 `SCALE`).
    pub scale: u32,
    /// Edges generated per vertex (Graph500 uses 16).
    pub edge_factor: usize,
    /// Quadrant probability A (top-left).
    pub a: f64,
    /// Quadrant probability B (top-right).
    pub b: f64,
    /// Quadrant probability C (bottom-left). `D = 1 - A - B - C`.
    pub c: f64,
    /// Generator seed.
    pub seed: u64,
}

impl RmatParams {
    /// The Graph500 defaults at a given scale and edge factor.
    pub fn graph500(scale: u32, edge_factor: usize, seed: u64) -> Self {
        assert!((1..=31).contains(&scale), "supported scales: 1..=31");
        assert!(edge_factor >= 1);
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }

    /// Number of vertices (`2^scale`).
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of generated (raw) edges.
    pub fn num_edges(&self) -> usize {
        self.num_vertices() * self.edge_factor
    }
}

/// Generates the raw edge list (with duplicates and self loops, like the
/// Graph500 edge file). Runs in parallel; output is independent of thread
/// count.
pub fn generate(params: &RmatParams) -> EdgeList {
    let sampler = Sampler::new(params);
    let mut edges = vec![Edge { u: 0, v: 0 }; params.num_edges()];
    edges
        .par_chunks_mut(FILL_CHUNK)
        .enumerate()
        .for_each(|(c, chunk)| {
            let first = (c * FILL_CHUNK) as u64;
            for (i, e) in (first..).zip(chunk) {
                *e = sampler.edge(i);
            }
        });
    EdgeList::new(params.num_vertices(), edges)
}

/// Builds the delta-varint [`CompressedCsr`] straight from the counter
/// stream, one contiguous vertex block per pass, without ever holding the
/// global edge list (or the uncompressed CSR) in memory.
///
/// Each pass regenerates the whole deterministic edge stream, keeps the
/// edges with an endpoint in the pass's vertex block (self loops dropped)
/// and hands them to the same row builder as
/// [`Csr::from_edge_list`](crate::Csr::from_edge_list), which scatters both
/// directions into the block's rows and collapses duplicates per row. The
/// result is byte-identical to `CompressedCsr::from_csr` of the dense build.
/// Peak transient memory is 8 bytes per kept edge plus 4 per arc of the
/// block, `O(num_arcs / passes)` instead of `O(num_edges)`; the price is
/// `passes` regenerations of the (embarrassingly parallel) counter stream.
pub fn generate_compressed(params: &RmatParams, passes: usize) -> CompressedCsr {
    let n = params.num_vertices();
    let m = params.num_edges() as u64;
    let passes = passes.clamp(1, n);
    let sampler = Sampler::new(params);
    let pieces = rayon::current_num_threads() as u64;
    let mut enc = RowEncoder::new(n);
    for pass in 0..passes {
        let block = n * pass / passes..n * (pass + 1) / passes;
        let touches = |e: &Edge| {
            e.u != e.v && (block.contains(&(e.u as usize)) || block.contains(&(e.v as usize)))
        };
        let kept: Vec<Vec<Edge>> = (0..pieces)
            .into_par_iter()
            .map(|p| {
                (m * p / pieces..m * (p + 1) / pieces)
                    .map(|i| sampler.edge(i))
                    .filter(touches)
                    .collect()
            })
            .collect();
        let rows = build_rows(n, block.clone(), &kept);
        drop(kept);
        for i in 0..block.len() {
            enc.push_row(rows.row(i));
        }
    }
    enc.finish()
}

/// Pass count for [`generate_compressed`] that bounds a pass's raw arcs
/// near 16 M: at most ~192 MB transient (8 bytes per kept edge, 4 per arc).
pub fn streaming_passes(params: &RmatParams) -> usize {
    const TARGET_ARCS_PER_PASS: usize = 1 << 24;
    // Raw arcs (before dedup) upper-bound the per-pass buffer.
    (2 * params.num_edges())
        .div_ceil(TARGET_ARCS_PER_PASS)
        .max(1)
}

/// Entries one parallel fill task writes (edges in [`generate`], labels in
/// the scramble table).
const FILL_CHUNK: usize = 1 << 14;

/// What edge `i` of one parameter set needs besides `i`: the quadrant
/// thresholds and the vertex labels.
struct Sampler {
    seed: u64,
    scale: u32,
    /// `P(bottom half)`, then `P(right | top)` and `P(right | bottom)`, on
    /// the 53-bit scale of a draw (see [`threshold`]).
    ab: u64,
    a_norm: u64,
    c_norm: u64,
    /// `scramble` of every vertex id, computed once: 4 bytes a vertex in
    /// place of two Feistel evaluations an edge.
    labels: Vec<u32>,
}

impl Sampler {
    fn new(params: &RmatParams) -> Self {
        let ab = params.a + params.b;
        let mut labels = vec![0u32; params.num_vertices()];
        labels
            .par_chunks_mut(FILL_CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| {
                let first = crate::vid::to_stored(c * FILL_CHUNK);
                for (x, label) in (first..).zip(chunk) {
                    *label = scramble(x, params.scale, params.seed);
                }
            });
        Self {
            seed: params.seed,
            scale: params.scale,
            ab: threshold(ab),
            a_norm: threshold(params.a / ab),
            c_norm: threshold(params.c / (1.0 - ab)),
            labels,
        }
    }

    /// Edge `i`, labelled.
    #[inline]
    fn edge(&self, i: u64) -> Edge {
        let (u, v) = self.rmat_edge(i);
        Edge {
            u: self.labels[u as usize],
            v: self.labels[v as usize],
        }
    }

    /// The unlabelled endpoints of edge `i`: per level, two draws of `i`'s
    /// counter stream pick the top/bottom half, then left/right within it
    /// (the standard Graph500 formulation, without per-level noise).
    #[inline]
    fn rmat_edge(&self, i: u64) -> (u32, u32) {
        let stream = CounterStream::new(self.seed, i);
        let mut u: u32 = 0;
        let mut v: u32 = 0;
        for level in 0..self.scale {
            let bottom = stream.draw(2 * level) >> 11 > self.ab;
            let right =
                stream.draw(2 * level + 1) >> 11 > if bottom { self.c_norm } else { self.a_norm };
            u = (u << 1) | u32::from(bottom);
            v = (v << 1) | u32::from(right);
        }
        (u, v)
    }
}

/// The integer `t` with `k > t` exactly when `k * 2^-53 > p`, for every
/// 53-bit `k`: a draw's top 53 bits compared with `t` make the same choice
/// as the uniform `(draw >> 11) * 2^-53` compared with `p`. Scaling by
/// `2^53` is exact, and for integer `k`, `k > x` is `k > floor(x)`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "p is a probability, so p * 2^53 lies in [0, 2^53]"
)]
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).floor() as u64
}

/// Pseudorandom permutation of the vertex id space `[0, 2^scale)`.
///
/// A 4-round balanced Feistel network keyed by the seed operates on
/// `2 * ceil(scale/2)` bits; for odd scales the Feistel domain is twice the
/// id space, so out-of-range outputs are *cycle-walked* (the Feistel is
/// applied again until the value lands in range). Both constructions are
/// bijective, so the composition is a permutation of `[0, 2^scale)` —
/// stateless and O(1) per lookup.
pub fn scramble(x: u32, scale: u32, seed: u64) -> u32 {
    let n: u64 = 1 << scale;
    let half = scale.div_ceil(2);
    let mask: u32 = (1u32 << half) - 1;
    debug_assert!(u64::from(x) < n);
    let mut y = x;
    loop {
        let mut l = (y >> half) & mask;
        let mut r = y & mask;
        for round in 0..4u64 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the Feistel round keeps the hash's low bits on purpose"
            )]
            let f = (splitmix64(seed ^ (round << 56) ^ u64::from(r)) as u32) & mask;
            let (nl, nr) = (r, l ^ f);
            l = nl;
            r = nr;
        }
        y = (l << half) | r;
        if u64::from(y) < n {
            return y;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_across_runs() {
        let p = RmatParams::graph500(10, 8, 42);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&RmatParams::graph500(10, 8, 1));
        let b = generate(&RmatParams::graph500(10, 8, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn edge_counts_match_spec() {
        let p = RmatParams::graph500(8, 16, 7);
        let el = generate(&p);
        assert_eq!(el.num_vertices, 256);
        assert_eq!(el.len(), 256 * 16);
        el.check_bounds().unwrap();
    }

    #[test]
    fn scramble_is_a_bijection() {
        for scale in [1u32, 2, 3, 7, 10] {
            let n = 1u32 << scale;
            let images: HashSet<u32> = (0..n).map(|x| scramble(x, scale, 99)).collect();
            assert_eq!(images.len(), n as usize, "scale {scale} not bijective");
            for &y in &images {
                assert!(y < n, "scale {scale} image {y} out of range");
            }
        }
    }

    #[test]
    fn scramble_actually_permutes() {
        let moved = (0..1024u32).filter(|&x| scramble(x, 10, 5) != x).count();
        assert!(moved > 900, "only {moved}/1024 labels moved");
    }

    #[test]
    fn skew_produces_heavy_hitters() {
        // R-MAT with A=0.57 is scale-free-ish: the max degree must be far
        // above the mean degree.
        let g = crate::Csr::from_edge_list(&generate(&RmatParams::graph500(12, 16, 3)));
        let deg: Vec<usize> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
        let max = *deg.iter().max().unwrap();
        let mean = deg.iter().sum::<usize>() as f64 / deg.len() as f64;
        assert!(
            max as f64 > 8.0 * mean,
            "max degree {max} vs mean {mean}: not skewed enough for R-MAT"
        );
    }

    #[test]
    fn streaming_compressed_build_matches_materialized_path() {
        use crate::Csr;
        let p = RmatParams::graph500(11, 16, 23);
        let reference = Csr::from_edge_list(&generate(&p));
        for passes in [1usize, 3, 7] {
            let c = generate_compressed(&p, passes);
            assert_eq!(c.to_csr(), reference, "passes={passes}");
        }
        assert!(streaming_passes(&p) >= 1);
    }

    #[test]
    fn generation_is_thread_count_independent() {
        let p = RmatParams::graph500(9, 8, 11);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let single = pool.install(|| generate(&p));
        let multi = generate(&p);
        assert_eq!(single, multi);
    }
}

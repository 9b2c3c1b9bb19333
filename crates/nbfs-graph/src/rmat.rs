//! R-MAT / Kronecker edge generation per the Graph500 specification.
//!
//! Each edge picks one quadrant of the adjacency matrix per scale level
//! with probabilities `A = 0.57, B = 0.19, C = 0.19, D = 0.05` (Chakrabarti
//! et al. \[13\]; the Graph500 parameters). The resulting labels are then
//! *scrambled* by a pseudorandom permutation so that vertex id correlates
//! with nothing — the reference implementation does the same so kernels
//! cannot exploit generation locality.
//!
//! Randomness is counter-based ([`nbfs_util::rng::counter_u64`]): edge `i`'s
//! draws are a pure function of `(seed, i)`, so generation is reproducible,
//! order-independent and embarrassingly parallel.

use rayon::prelude::*;

use nbfs_util::rng::{counter_u64, splitmix64};

use crate::compressed::{CompressedCsr, RowEncoder};
use crate::edge::{Edge, EdgeList};

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
    let n = params.num_vertices();
    let m = params.num_edges();
    let edges: Vec<Edge> = (0..m as u64)
        .into_par_iter()
        .map(|i| {
            let (u, v) = rmat_edge(params, i);
            Edge {
                u: scramble(u, params.scale, params.seed),
                v: scramble(v, params.scale, params.seed),
            }
        })
        .collect();
    EdgeList::new(n, edges)
}

/// Builds the delta-varint [`CompressedCsr`] straight from the counter
/// stream, one contiguous vertex block per pass, without ever holding the
/// global edge list (or the uncompressed CSR) in memory.
///
/// Each pass regenerates the whole deterministic edge stream and keeps
/// only the arcs whose *source* falls in the pass's vertex block — both
/// directions of every raw edge are considered, self loops dropped and
/// duplicates collapsed per row, so the result is structurally identical
/// to `Csr::from_edge_list(&generate(params))` re-encoded. Peak transient
/// memory is `O(num_arcs / passes)` instead of `O(num_edges)`; the price
/// is `passes` regenerations of the (embarrassingly parallel, cheap)
/// counter stream.
pub fn generate_compressed(params: &RmatParams, passes: usize) -> CompressedCsr {
    let n = params.num_vertices();
    let m = params.num_edges() as u64;
    let passes = passes.clamp(1, n);
    let mut enc = RowEncoder::new(n);
    let mut row: Vec<u32> = Vec::new();
    for pass in 0..passes {
        let lo = (n * pass / passes) as u64;
        let hi = (n * (pass + 1) / passes) as u64;
        let mut arcs: Vec<(u32, u32)> = (0..m)
            .into_par_iter()
            .flat_map_iter(|i| {
                let (u, v) = rmat_edge(params, i);
                let u = scramble(u, params.scale, params.seed);
                let v = scramble(v, params.scale, params.seed);
                let keep =
                    |s: u32, t: u32| (s != t && (lo..hi).contains(&u64::from(s))).then_some((s, t));
                keep(u, v).into_iter().chain(keep(v, u))
            })
            .collect();
        arcs.sort_unstable();
        let mut cursor = 0usize;
        for v in lo..hi {
            row.clear();
            while cursor < arcs.len() && u64::from(arcs[cursor].0) == v {
                row.push(arcs[cursor].1);
                cursor += 1;
            }
            row.dedup();
            enc.push_row(&row);
        }
        debug_assert_eq!(cursor, arcs.len(), "arcs outside pass block");
    }
    enc.finish()
}

/// Pass count for [`generate_compressed`] that bounds the per-pass arc
/// buffer near 16 M entries (~128 MB transient).
pub fn streaming_passes(params: &RmatParams) -> usize {
    const TARGET_ARCS_PER_PASS: usize = 1 << 24;
    // Raw arcs (before dedup) upper-bound the per-pass buffer.
    (2 * params.num_edges())
        .div_ceil(TARGET_ARCS_PER_PASS)
        .max(1)
}

/// The unscrambled endpoints of edge `i`.
fn rmat_edge(params: &RmatParams, i: u64) -> (u32, u32) {
    let mut u: u32 = 0;
    let mut v: u32 = 0;
    let ab = params.a + params.b;
    let c_norm = params.c / (1.0 - ab);
    let a_norm = params.a / ab;
    for level in 0..params.scale {
        // Two independent uniforms per level from the counter stream.
        let r1 = to_f64(counter_u64(params.seed, i, 2 * level));
        let r2 = to_f64(counter_u64(params.seed, i, 2 * level + 1));
        // Standard Graph500 formulation with per-level noise-free choice:
        // first decide top/bottom half, then left/right within it.
        let bottom = r1 > ab;
        let right = r2 > if bottom { c_norm } else { a_norm };
        u = (u << 1) | u32::from(bottom);
        v = (v << 1) | u32::from(right);
    }
    (u, v)
}

#[inline]
fn to_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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
        let p = RmatParams::graph500(12, 16, 3);
        let el = generate(&p).deduplicated();
        let mut deg = vec![0usize; el.num_vertices];
        for e in &el.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
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

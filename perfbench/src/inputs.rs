//! Seeded inputs. The seed drives graph generation, vertex relabelling and
//! key sampling; the program under test receives only what these functions
//! return.

use std::borrow::Cow;

use nbfs_graph::rmat::{self, RmatParams};
use nbfs_graph::{CompressedCsr, Csr, Edge, EdgeList, GraphView, NO_PARENT};
use nbfs_util::rng::{splitmix64, Xoroshiro128};

use crate::spans::{Layer, Recorder};
use crate::spec::GraphKind;

/// Host seconds the last [`Stored::build`] spent in each construction step
/// (0 for a step the store does not have).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    pub generate: f64,
    pub csr_build: f64,
}

/// A graph store the distributed engines can search.
pub trait Stored: GraphView + Sized {
    /// Generates the workload's graph for `seed` in this store.
    fn build(kind: GraphKind, seed: u64, rec: &mut Recorder) -> (Self, BuildTimes);

    /// The dense form the shared-memory kernels, the query service and the
    /// validator need.
    fn dense(&self) -> Cow<'_, Csr>;

    /// This store's member of a pair of images of one graph.
    fn select<'a>(dense: &'a Csr, packed: &'a CompressedCsr) -> &'a Self;
}

impl Stored for Csr {
    fn build(kind: GraphKind, seed: u64, rec: &mut Recorder) -> (Self, BuildTimes) {
        let (edges, generate) = match kind {
            GraphKind::Rmat { scale } => {
                let params = RmatParams::graph500(scale, 16, seed);
                rec.call("graph.rmat_generate", Layer::Graph, || {
                    rmat::generate(&params)
                })
            }
            GraphKind::Torus { width, height } => {
                rec.call("bench.torus_generate", Layer::Bench, || {
                    torus_edges(width, height, seed)
                })
            }
        };
        let (graph, csr_build) = rec.call("graph.csr_from_edge_list", Layer::Graph, || {
            Csr::from_edge_list(&edges)
        });
        (
            graph,
            BuildTimes {
                generate,
                csr_build,
            },
        )
    }

    fn dense(&self) -> Cow<'_, Csr> {
        Cow::Borrowed(self)
    }

    fn select<'a>(dense: &'a Csr, _packed: &'a CompressedCsr) -> &'a Self {
        dense
    }
}

impl Stored for CompressedCsr {
    /// Streams R-MAT straight into the packed image; the dense graph is
    /// never materialised. A torus has no streaming generator, so it is
    /// packed from its dense form.
    fn build(kind: GraphKind, seed: u64, rec: &mut Recorder) -> (Self, BuildTimes) {
        match kind {
            GraphKind::Rmat { scale } => {
                let params = RmatParams::graph500(scale, 16, seed);
                let passes = rmat::streaming_passes(&params);
                let (graph, generate) =
                    rec.call("graph.rmat_generate_compressed", Layer::Graph, || {
                        rmat::generate_compressed(&params, passes)
                    });
                (
                    graph,
                    BuildTimes {
                        generate,
                        csr_build: 0.0,
                    },
                )
            }
            GraphKind::Torus { .. } => {
                let (dense, times) = Csr::build(kind, seed, rec);
                let (graph, _) = rec.call("graph.compressed_from_csr", Layer::Graph, || {
                    CompressedCsr::from_csr(&dense)
                });
                (graph, times)
            }
        }
    }

    fn dense(&self) -> Cow<'_, Csr> {
        Cow::Owned(self.to_csr())
    }

    fn select<'a>(_dense: &'a Csr, packed: &'a CompressedCsr) -> &'a Self {
        packed
    }
}

/// Edge list of the `width x height` torus with vertex ids relabelled by a
/// seeded Fisher-Yates shuffle.
pub fn torus_edges(width: usize, height: usize, seed: u64) -> EdgeList {
    let n = width * height;
    let mut label: Vec<usize> = (0..n).collect();
    Xoroshiro128::new(splitmix64(seed ^ 0x7015)).shuffle(&mut label);
    let mut edges = Vec::with_capacity(2 * n);
    for y in 0..height {
        for x in 0..width {
            let here = label[y * width + x];
            edges.push(Edge::new(here, label[y * width + (x + 1) % width]));
            edges.push(Edge::new(here, label[(y + 1) % height * width + x]));
        }
    }
    EdgeList::new(n, edges)
}

/// `count` distinct search keys from the component `reached` marks (the one
/// the highest-degree vertex is in), one from each of `count` equal strata of
/// its vertices ordered by degree.
///
/// Keys outside that component would make a search traverse a handful of
/// edges, and one such key decides a harmonic mean. Inside it, a key's degree
/// decides how many levels its search takes, so a plain random sample of 64
/// keys moves the harmonic mean by +-5 % from seed to seed; a sample that
/// covers the degree range evenly does not.
pub fn sample_roots<G: GraphView>(
    graph: &G,
    reached: &[u32],
    count: usize,
    seed: u64,
) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..reached.len())
        .filter(|&key| reached[key] != NO_PARENT)
        .collect();
    assert!(pool.len() >= count, "component too small for {count} keys");
    pool.sort_by_key(|&key| (graph.degree(key), key));
    let mut rng = Xoroshiro128::new(splitmix64(seed ^ 0x6007));
    (0..count)
        .map(|stratum| {
            let lo = pool.len() * stratum / count;
            let hi = pool.len() * (stratum + 1) / count;
            pool[lo + rng.next_below((hi - lo) as u64) as usize]
        })
        .collect()
}

/// `waves` sets of `lanes` indices into the root list, drawn with
/// replacement: the key sets the full-occupancy query waves submit.
pub fn sample_waves(roots: usize, lanes: usize, waves: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Xoroshiro128::new(splitmix64(seed ^ 0x3a7e5));
    (0..waves)
        .map(|_| {
            (0..lanes)
                .map(|_| rng.next_below(roots as u64) as usize)
                .collect()
        })
        .collect()
}

/// Half the degree sum of the visited vertices: the undirected edges a
/// search of that component traverses (the numerator of TEPS).
pub fn traversed_edges<G: GraphView>(graph: &G, parent: &[u32]) -> u64 {
    let arcs: u64 = parent
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p != NO_PARENT)
        .map(|(key, _)| graph.degree(key) as u64)
        .sum();
    arcs / 2
}

/// 64-bit fingerprint of a parent array. The benchmark compares every timed
/// search against the fingerprint of the validated 1-D tree of the same key
/// instead of holding 64 parent arrays, which would add to the resident
/// bytes it reports.
pub fn fingerprint(parent: &[u32]) -> u64 {
    parent.iter().fold(parent.len() as u64, |h, &p| {
        (h ^ u64::from(p))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    })
}

/// Restarts the kernel's resident-set high-water mark at the current resident
/// size (`echo 5 > /proc/self/clear_refs`), so a later [`peak_rss_bytes`]
/// reads the peak since this call. Where the kernel refuses, the mark simply
/// keeps its process-lifetime meaning.
pub fn reset_peak_rss() {
    // Ignored on purpose: see above.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) since the start or the
/// last [`reset_peak_rss`], in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_is_four_regular_and_seed_only_relabels_it() {
        let a = Csr::from_edge_list(&torus_edges(16, 8, 1));
        let b = Csr::from_edge_list(&torus_edges(16, 8, 2));
        assert_eq!(a.num_vertices(), 128);
        assert!((0..128).all(|v| a.degree(v) == 4 && b.degree(v) == 4));
        assert_ne!(a.targets(), b.targets());
        assert_eq!(
            a.targets(),
            Csr::from_edge_list(&torus_edges(16, 8, 1)).targets()
        );
    }

    #[test]
    fn roots_are_distinct_reached_seeded_and_cover_the_degree_range() {
        // A path of 99 vertices plus a hub joined to every third vertex;
        // vertex 99 is isolated and unreached.
        let mut edges: Vec<Edge> = (0..98).map(|v| Edge::new(v, v + 1)).collect();
        edges.extend((3..99).step_by(3).map(|v| Edge::new(0, v)));
        let graph = Csr::from_edge_list(&EdgeList::new(100, edges));
        let mut reached = vec![0u32; 100];
        reached[99] = NO_PARENT;
        let roots = sample_roots(&graph, &reached, 20, 5);
        assert_eq!(roots.len(), 20);
        assert!(!roots.contains(&99));
        let mut unique = roots.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 20);
        assert_eq!(roots, sample_roots(&graph, &reached, 20, 5));
        assert_ne!(roots, sample_roots(&graph, &reached, 20, 6));
        // Strata are in degree order, and the last one holds the hub alone
        // when every vertex is its own stratum.
        let degrees: Vec<usize> = roots.iter().map(|&r| graph.degree(r)).collect();
        assert!(degrees.windows(2).all(|d| d[0] <= d[1]));
        assert_eq!(sample_roots(&graph, &reached, 99, 1)[98], 0);
    }

    #[test]
    fn fingerprint_tells_arrays_apart() {
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 3, 2]));
        assert_ne!(fingerprint(&[0]), fingerprint(&[0, 0]));
        assert_eq!(fingerprint(&[7, 8]), fingerprint(&[7, 8]));
    }
}

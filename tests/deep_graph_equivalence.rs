//! Differential suite on *deep* graphs: hundreds to thousands of levels of
//! a few vertices each, where a level is worth less than one dispatch.
//!
//! Every other equivalence suite runs R-MAT, whose handful of fat levels
//! always take the parallel branch of the level loops. A shuffled torus and
//! a path take the other one — the inline run below a `with_min_len` grain
//! and the `touched`-bitmap settle of [`numa_bfs::core::multi`] — so this
//! suite holds them to the same contract: parents, level counts, probe
//! counts and simulated profiles are functions of the graph and the roots,
//! never of the pool width, and the bit-parallel wave's counts are the ones
//! the kernel produced before its level tails stopped sweeping all `n`
//! lane words (the `WAVES` table, generated at PR 23). Regenerate on purpose
//! with:
//!
//! ```text
//! NBFS_UPDATE_GOLDEN=1 cargo test --test deep_graph_equivalence -- --nocapture
//! ```
//!
//! and paste the printed table over the constant below.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::comm::codec::Codec;
use numa_bfs::core::direction::SwitchPolicy;
use numa_bfs::core::engine::{BfsRun, DistributedBfs, Scenario};
use numa_bfs::core::engine2d::TwoDimBfs;
use numa_bfs::core::multi::{multi_source_bfs, LaneAnswer, MAX_LANES};
use numa_bfs::core::opt::OptLevel;
use numa_bfs::core::par::bfs_hybrid_parallel;
use numa_bfs::core::seq::bfs_top_down;
use numa_bfs::graph::{Csr, Edge, EdgeList};
use numa_bfs::topology::MachineConfig;
use numa_bfs::trace::{Direction, Phase};
use numa_bfs::util::rng::Xoroshiro128;

/// Pool widths: inline, the host's two cores, and two that oversubscribe.
const POOLS: [usize; 4] = [1, 2, 3, 7];

/// Lanes per wave: a solo query, a partial word, a full one.
const BATCHES: [usize; 3] = [1, 7, MAX_LANES];

/// The 256x16 torus with ids relabelled by a seeded shuffle: 137 levels of
/// at most 32 vertices.
fn torus() -> Csr {
    let (width, height) = (256usize, 16usize);
    let mut label: Vec<usize> = (0..width * height).collect();
    Xoroshiro128::new(0x7015).shuffle(&mut label);
    let mut edges = Vec::with_capacity(2 * label.len());
    for y in 0..height {
        for x in 0..width {
            let here = label[y * width + x];
            edges.push(Edge::new(here, label[y * width + (x + 1) % width]));
            edges.push(Edge::new(here, label[(y + 1) % height * width + x]));
        }
    }
    Csr::from_edge_list(&EdgeList::new(label.len(), edges))
}

/// The path `0 - 1 - ... - 4095`: up to 4095 levels of one or two vertices.
fn path() -> Csr {
    let n = 4096usize;
    let edges = (1..n).map(|v| Edge::new(v - 1, v)).collect();
    Csr::from_edge_list(&EdgeList::new(n, edges))
}

fn graphs() -> [(&'static str, Csr); 2] {
    [("torus", torus()), ("path", path())]
}

fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// `count` roots drawn with replacement; every batch of two or more ends
/// with a copy of its first root, so duplicates are always present.
fn roots(g: &Csr, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Xoroshiro128::new(seed);
    let mut roots: Vec<usize> = (0..count)
        .map(|_| rng.next_below(g.num_vertices() as u64) as usize)
        .collect();
    if count >= 2 {
        roots[count - 1] = roots[0];
    }
    roots
}

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every bit of a distributed run: the profile's floats and the parents.
fn run_fingerprint(run: &BfsRun) -> u64 {
    let mut f = Fingerprint::new();
    let p = &run.profile;
    for phase in Phase::ALL {
        f.word(p.phase(phase).as_secs().to_bits());
    }
    f.word(p.levels.len() as u64);
    for level in &p.levels {
        f.word(u64::from(level.direction == Direction::BottomUp));
        f.word(level.discovered);
        f.word(level.comp.as_secs().to_bits());
        f.word(level.comm.as_secs().to_bits());
        f.word(level.stall.as_secs().to_bits());
    }
    for &parent in &run.parent {
        f.word(u64::from(parent));
    }
    f.0
}

#[test]
fn parallel_kernel_parents_match_the_oracle_under_every_pool() {
    for (name, g) in graphs() {
        for root in [0, g.num_vertices() / 2, g.num_vertices() - 1] {
            let oracle = LaneAnswer::from_run(root, bfs_top_down(&g, root));
            for threads in POOLS {
                let run = in_pool(threads, || {
                    bfs_hybrid_parallel(&g, root, SwitchPolicy::default())
                });
                let label = format!("{name} root {root}, {threads} threads");
                assert_eq!(LaneAnswer::from_run(root, run), oracle, "{label}");
            }
        }
    }
}

/// `(wave_levels, edges_scanned, fingerprint of every lane's
/// level_discovered)` of one wave per graph and batch size, as the kernel
/// at PR 23 (three O(n) sweeps a level) produced them.
const WAVES: &[(&str, usize, u64, u64)] = &[
    ("torus x1", 137, 28343, 0xfa8d0b9a0a8052cd),
    ("torus x7", 137, 201934, 0x23a5d3aa69b7a54d),
    ("torus x64", 137, 2110956, 0x8561d90b5fe6f325),
    ("path x1", 3321, 13135, 0xf6b352984721088b),
    ("path x7", 3572, 82469, 0x0a2bdb1d4ce58ad9),
    ("path x64", 4080, 895654, 0x81d6f7b1214f6917),
];

#[test]
fn waves_match_per_root_runs_and_the_pinned_counts_under_every_pool() {
    let mut cells = Vec::new();
    for (name, g) in graphs() {
        for (i, batch) in BATCHES.into_iter().enumerate() {
            let roots = roots(&g, batch, 0xDEE9 + i as u64);
            let oracles: Vec<_> = roots
                .iter()
                .map(|&root| LaneAnswer::from_run(root, bfs_top_down(&g, root)))
                .collect();
            let mut first = None;
            for threads in POOLS {
                let label = format!("{name} x{batch}, {threads} threads");
                let run = in_pool(threads, || multi_source_bfs(&g, &roots));
                assert_eq!(run.lanes, oracles, "{label}: lanes");
                let mut levels = Fingerprint::new();
                for lane in &run.lanes {
                    levels.word(lane.level_discovered.len() as u64);
                    lane.level_discovered.iter().for_each(|&d| levels.word(d));
                }
                let counts = (run.wave_levels, run.edges_scanned, levels.0);
                assert_eq!(*first.get_or_insert(counts), counts, "{label}: counts");
            }
            let (wave_levels, edges_scanned, levels) = first.unwrap();
            cells.push((
                format!("{name} x{batch}"),
                wave_levels,
                edges_scanned,
                levels,
            ));
        }
    }
    if std::env::var_os("NBFS_UPDATE_GOLDEN").is_some() {
        println!("const WAVES: &[(&str, usize, u64, u64)] = &[");
        for (label, wave_levels, edges_scanned, levels) in &cells {
            println!("    (\"{label}\", {wave_levels}, {edges_scanned}, 0x{levels:016x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(cells.len(), WAVES.len(), "cell count");
    for (got, want) in cells.iter().zip(WAVES) {
        let got = (got.0.as_str(), got.1, got.2, got.3);
        assert_eq!(got, *want, "wave counts moved");
    }
}

#[test]
fn distributed_engines_are_pool_independent_on_deep_graphs() {
    let machine = MachineConfig::small_test_cluster(2, 4).scaled_to_graph(12, 28);
    let scenario = Scenario::builder(machine, OptLevel::ShareAll)
        .codec(Codec::Raw)
        .build()
        .unwrap();
    for (name, g) in graphs() {
        let root = g.num_vertices() / 2;
        let oracle = bfs_top_down(&g, root);
        let mut first = None;
        for threads in POOLS {
            let (one, two) = in_pool(threads, || {
                (
                    DistributedBfs::new(&g, &scenario).run(root),
                    TwoDimBfs::with_grid(&g, &scenario, 2, 4).run(root),
                )
            });
            let label = format!("{name}, {threads} threads");
            assert_eq!(one.parent, oracle.parent, "{label}: 1-D parents");
            assert_eq!(two.parent, oracle.parent, "{label}: 2-D parents");
            let prints = (run_fingerprint(&one), run_fingerprint(&two));
            assert_eq!(*first.get_or_insert(prints), prints, "{label}: profiles");
        }
    }
}

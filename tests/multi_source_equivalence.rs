//! Differential conformance suite for the bit-parallel multi-source BFS.
//!
//! Pins the contract behind the `QueryEngine` (timed by the repo
//! benchmark's `query_waves` workload): every lane of a fused wave —
//! parents, visited counts, and per-level traces — is **bitwise identical**
//! to a per-root run of the serial oracle (`numa_bfs::core::seq::bfs_top_down`
//! as a `LaneAnswer::from_run`), regardless of batch
//! size, batch composition, thread-pool width, workspace reuse, duplicate
//! roots, or isolated-vertex roots. Scales 14-18 are covered: the full
//! batch x pool matrix at scale 14, and a per-scale spot sweep above that so
//! the suite stays inside the tier-1 debug-test budget.

// Test code opts back into unwrap ergonomics; the workspace denies it in
// library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use numa_bfs::core::multi::{
    multi_source_bfs, multi_source_bfs_in, LaneAnswer, MultiWorkspace, MAX_LANES,
};
use numa_bfs::core::query::QueryEngine;
use numa_bfs::core::seq::bfs_top_down;
use numa_bfs::graph::{Csr, GraphBuilder};
use numa_bfs::util::rng::Xoroshiro128;

/// The Graph500 edge factor used across the repo's experiments.
const EDGE_FACTOR: usize = 16;

/// Batch sizes exercised by the conformance matrix.
const BATCH_SIZES: [usize; 3] = [1, 7, MAX_LANES];

/// Thread-pool widths exercised by the conformance matrix.
const POOL_WIDTHS: [usize; 3] = [1, 3, 7];

fn rmat(scale: u32, seed: u64) -> Csr {
    GraphBuilder::rmat(scale, EDGE_FACTOR).seed(seed).build()
}

/// Sample `count` connected roots (with replacement, so duplicates occur
/// naturally at larger batch sizes).
fn sample_roots(g: &Csr, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Xoroshiro128::new(seed);
    let mut roots = Vec::new();
    while roots.len() < count {
        let v = rng.next_below(g.num_vertices() as u64) as usize;
        if g.degree(v) > 0 {
            roots.push(v);
        }
    }
    roots
}

/// Assert every lane of a fused wave equals the serial oracle,
/// reusing oracle answers for duplicated roots.
fn assert_wave_matches_reference(g: &Csr, roots: &[usize], lanes: &[LaneAnswer], label: &str) {
    assert_eq!(lanes.len(), roots.len(), "{label}: lane count");
    let mut oracle: Vec<(usize, LaneAnswer)> = Vec::new();
    for (lane, (&root, answer)) in roots.iter().zip(lanes).enumerate() {
        let reference = match oracle.iter().find(|(r, _)| *r == root) {
            Some((_, cached)) => cached.clone(),
            None => {
                let fresh = LaneAnswer::from_run(root, bfs_top_down(g, root));
                oracle.push((root, fresh.clone()));
                fresh
            }
        };
        assert_eq!(answer.root, root, "{label}: lane {lane} root");
        assert_eq!(
            answer.visited, reference.visited,
            "{label}: lane {lane} (root {root}) visited count"
        );
        assert_eq!(
            answer.level_discovered, reference.level_discovered,
            "{label}: lane {lane} (root {root}) level trace"
        );
        assert_eq!(
            answer.parent, reference.parent,
            "{label}: lane {lane} (root {root}) parent array"
        );
    }
}

/// Scale 14, full matrix: batch sizes 1/7/64 under 1/3/7-thread pools, with a
/// reused workspace, must all be bitwise identical to per-root
/// `bfs_top_down` runs — and to each other.
#[test]
fn scale_14_full_batch_by_pool_matrix_matches_reference() {
    let g = rmat(14, 140);
    for (i, &batch) in BATCH_SIZES.iter().enumerate() {
        let mut roots = sample_roots(&g, batch, 0xBA7C + i as u64);
        if batch >= 2 {
            // Force at least one duplicate pair into every multi-lane batch.
            roots[batch - 1] = roots[0];
        }
        let mut runs = Vec::new();
        for &threads in &POOL_WIDTHS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut ws = MultiWorkspace::new();
            // Two waves through the same workspace: the second proves reuse
            // does not leak state between waves.
            pool.install(|| multi_source_bfs_in(&g, &roots, &mut ws));
            let run = pool.install(|| multi_source_bfs_in(&g, &roots, &mut ws));
            assert_wave_matches_reference(
                &g,
                &roots,
                &run.lanes,
                &format!("scale 14, batch {batch}, {threads} threads"),
            );
            runs.push((threads, run));
        }
        let (_, first) = &runs[0];
        for (threads, run) in &runs[1..] {
            assert_eq!(
                run.lanes, first.lanes,
                "scale 14, batch {batch}: {threads}-thread pool diverged from 1-thread pool"
            );
            assert_eq!(run.wave_levels, first.wave_levels);
            assert_eq!(run.edges_scanned, first.edges_scanned);
        }
    }
}

/// Scales 15-18: one mid-size batch per scale must match per-root
/// `bfs_top_down` runs bit for bit. Keeps the large-graph portion of the
/// matrix to a single wave per scale so the suite stays fast in debug builds.
#[test]
fn scales_15_through_18_match_reference() {
    for scale in 15u32..=18 {
        let g = rmat(scale, u64::from(scale));
        let mut roots = sample_roots(&g, 6, 0x600D + u64::from(scale));
        roots[5] = roots[2]; // duplicate pair at every scale
        if let Some(isolated) = (0..g.num_vertices()).find(|&v| g.degree(v) == 0) {
            roots[4] = isolated; // isolated-vertex lane at every scale
        }
        let run = multi_source_bfs(&g, &roots);
        assert_wave_matches_reference(&g, &roots, &run.lanes, &format!("scale {scale}"));
    }
}

/// Duplicate roots occupy distinct lanes yet produce byte-for-byte equal
/// answers, and a batch of 64 copies of one root equals a singleton batch.
#[test]
fn duplicate_roots_are_lane_for_lane_identical() {
    let g = rmat(14, 141);
    let root = sample_roots(&g, 1, 7)[0];
    let all_same = vec![root; MAX_LANES];
    let wave = multi_source_bfs(&g, &all_same);
    let single = multi_source_bfs(&g, &[root]);
    for (lane, answer) in wave.lanes.iter().enumerate() {
        assert_eq!(
            answer, &single.lanes[0],
            "lane {lane} of a 64-duplicate batch diverged from the singleton run"
        );
    }
    assert_wave_matches_reference(&g, &all_same, &wave.lanes, "64 duplicate roots");
}

/// Isolated-vertex roots (degree 0) terminate after one empty level and match
/// the serial oracle, even when mixed into a batch of connected roots.
#[test]
fn isolated_roots_match_reference_inside_mixed_batches() {
    let g = rmat(14, 140);
    let isolated = (0..g.num_vertices())
        .find(|&v| g.degree(v) == 0)
        .expect("an R-MAT graph at scale 14 has isolated vertices");
    let mut roots = sample_roots(&g, 7, 0x150);
    roots[3] = isolated;
    let run = multi_source_bfs(&g, &roots);
    assert_wave_matches_reference(&g, &roots, &run.lanes, "mixed isolated batch");
    let lane = &run.lanes[3];
    assert_eq!(lane.visited, 1, "isolated root visits only itself");
    assert_eq!(
        lane.level_discovered,
        vec![0],
        "isolated root records exactly one empty level"
    );
}

/// Concurrent submitters through the `QueryEngine` receive the same answers
/// as per-root `bfs_top_down` runs — admission/batching never alters a result.
#[test]
fn query_engine_answers_match_reference_under_concurrency() {
    let g = rmat(14, 142);
    let engine = QueryEngine::bit_parallel(&g);
    let roots = sample_roots(&g, 24, 0xC0);
    let answers: Vec<LaneAnswer> = std::thread::scope(|s| {
        let handles: Vec<_> = roots
            .iter()
            .map(|&root| {
                let engine = &engine;
                s.spawn(move || engine.query(root))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_wave_matches_reference(&g, &roots, &answers, "query engine, 24 submitters");
    let stats = engine.stats();
    assert_eq!(stats.queries, roots.len() as u64);
    assert!(
        stats.waves >= 1 && stats.waves <= roots.len() as u64,
        "wave count must stay within [1, queries] (got {} waves)",
        stats.waves
    );
}

/// One workspace carries waves of every shape: 64, 1, 17 and 64 lanes on one
/// graph, then a wave on a graph with a different vertex count. Each shape
/// change re-sizes what the previous wave left behind, and every lane must
/// still equal its per-root `bfs_top_down` run.
#[test]
fn one_workspace_serves_every_wave_shape_and_graph_size() {
    let g = rmat(12, 120);
    let mut ws = MultiWorkspace::new();
    for (i, &lanes) in [MAX_LANES, 1, 17, MAX_LANES].iter().enumerate() {
        let roots = sample_roots(&g, lanes, 0x5A9E + i as u64);
        let run = multi_source_bfs_in(&g, &roots, &mut ws);
        assert_wave_matches_reference(
            &g,
            &roots,
            &run.lanes,
            &format!("wave {i}: {lanes} lanes on R-MAT 12"),
        );
    }
    let other = rmat(11, 121);
    assert_ne!(other.num_vertices(), g.num_vertices());
    let roots = sample_roots(&other, 9, 0x5A9F);
    let run = multi_source_bfs_in(&other, &roots, &mut ws);
    assert_wave_matches_reference(&other, &roots, &run.lanes, "9 lanes on R-MAT 11");
}

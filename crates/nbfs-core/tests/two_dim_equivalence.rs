//! Differential tests: the 2-D direction-optimizing engine against the
//! 1-D engine whose parents it must reproduce bit for bit.
//!
//! The min-parent invariant says every engine in the workspace — 1-D or
//! 2-D, any grid shape, any wire codec, dense or compressed storage —
//! discovers the same tree: `parent[v]` is the minimum-id frontier
//! neighbour at `v`'s discovery level. These tests pin that across every
//! grid shape that tiles the test cluster, the whole codec ladder, both
//! storage backends and R-MAT scales 14–18, plus the degenerate inputs
//! (isolated root, single-vertex graph). An engine builds its blocks once
//! and shares them across searches, so reuse and concurrent first searches
//! are pinned against a fresh engine per root.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use nbfs_comm::codec::Codec;
use nbfs_core::engine::{BfsRun, DistributedBfs, Scenario};
use nbfs_core::engine2d::TwoDimBfs;
use nbfs_core::opt::OptLevel;
use nbfs_graph::{CompressedCsr, Csr, EdgeList, GraphBuilder, GraphView};
use nbfs_topology::MachineConfig;
use rayon::prelude::*;

/// Every grid shape that tiles the 8 ranks of the test cluster; 2x4 is
/// the natural mapping (rows = nodes, columns = ranks per node).
const GRIDS: [(usize, usize); 4] = [(1, 8), (2, 4), (4, 2), (8, 1)];

fn rmat(scale: u32) -> Csr {
    GraphBuilder::rmat(scale, 16)
        .seed(0x2D ^ u64::from(scale))
        .build()
}

fn best_root(g: &Csr) -> usize {
    (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty")
}

/// Two nodes x four sockets = 8 ranks with a real inter-node wire, so
/// every shape in [`GRIDS`] tiles and the column expand crosses nodes.
fn machine(scale: u32) -> MachineConfig {
    MachineConfig::small_test_cluster(2, 4).scaled_to_graph(scale, 28)
}

#[test]
fn grids_and_storage_match_one_dim() {
    let g = rmat(14);
    let packed = CompressedCsr::from_csr(&g);
    let scenario = Scenario::new(machine(14), OptLevel::Granularity(256));
    let root = best_root(&g);
    let reference = DistributedBfs::new(&g, &scenario).run(root);
    for &(r, c) in &GRIDS {
        let dense = TwoDimBfs::with_grid(&g, &scenario, r, c).run(root);
        assert_eq!(reference.parent, dense.parent, "{r}x{c} dense parents");
        assert_eq!(reference.visited, dense.visited, "{r}x{c} dense visited");
        let packed_run = TwoDimBfs::with_grid(&packed, &scenario, r, c).run(root);
        assert_eq!(
            reference.parent, packed_run.parent,
            "{r}x{c} compressed parents"
        );
        assert_eq!(
            reference.visited, packed_run.visited,
            "{r}x{c} compressed visited"
        );
    }
}

#[test]
fn codecs_match_one_dim_on_both_storages() {
    let g = rmat(14);
    let packed = CompressedCsr::from_csr(&g);
    let root = best_root(&g);
    let raw = Scenario::new(machine(14), OptLevel::Granularity(256));
    let reference = DistributedBfs::new(&g, &raw).run(root);
    for codec in Codec::ALL {
        let scenario = Scenario::builder(machine(14), OptLevel::Granularity(256))
            .codec(codec)
            .build()
            .unwrap();
        let dense = TwoDimBfs::with_grid(&g, &scenario, 2, 4).run(root);
        assert_eq!(
            reference.parent,
            dense.parent,
            "codec {} dense",
            codec.label()
        );
        let packed_run = TwoDimBfs::with_grid(&packed, &scenario, 2, 4).run(root);
        assert_eq!(
            reference.parent,
            packed_run.parent,
            "codec {} compressed",
            codec.label()
        );
    }
}

#[test]
fn scales_match_one_dim_on_compressed_storage() {
    // The natural grid over compressed storage vs the 1-D engine over the
    // dense CSR of the same graph: one sweep covers both axes at once.
    for scale in 15..=18u32 {
        let g = rmat(scale);
        let packed = CompressedCsr::from_csr(&g);
        let scenario = Scenario::new(machine(scale), OptLevel::Granularity(256));
        let root = best_root(&g);
        let reference = DistributedBfs::new(&g, &scenario).run(root);
        let run = TwoDimBfs::new(&packed, &scenario).run(root);
        assert_eq!(reference.parent, run.parent, "scale {scale} parents");
        assert_eq!(reference.visited, run.visited, "scale {scale} visited");
    }
}

#[test]
fn isolated_root_is_a_one_vertex_tree_on_every_grid() {
    let g = GraphBuilder::rmat(11, 8).seed(13).build();
    let isolated = (0..g.num_vertices())
        .find(|&v| g.degree(v) == 0)
        .expect("R-MAT has isolated vertices");
    let scenario = Scenario::new(machine(11), OptLevel::Granularity(256));
    let reference = DistributedBfs::new(&g, &scenario).run(isolated);
    assert_eq!(reference.visited, 1);
    for &(r, c) in &GRIDS {
        let run = TwoDimBfs::with_grid(&g, &scenario, r, c).run(isolated);
        assert_eq!(run.visited, 1, "{r}x{c}");
        assert_eq!(run.parent[isolated], isolated as u32, "{r}x{c}");
        assert_eq!(reference.parent, run.parent, "{r}x{c}");
    }
}

#[test]
fn single_vertex_graph_runs_on_the_grid() {
    // One vertex over 8 ranks: all but one row group is empty, every
    // frontier after level 0 is empty, and both storages must agree.
    let g = Csr::from_edge_list(&EdgeList::new(1, Vec::new()));
    let packed = CompressedCsr::from_csr(&g);
    let scenario = Scenario::new(machine(1), OptLevel::Granularity(256));
    let reference = DistributedBfs::new(&g, &scenario).run(0);
    for &(r, c) in &GRIDS {
        let dense = TwoDimBfs::with_grid(&g, &scenario, r, c).run(0);
        assert_eq!(dense.visited, 1, "{r}x{c}");
        assert_eq!(dense.parent, reference.parent, "{r}x{c}");
        let packed_run = TwoDimBfs::with_grid(&packed, &scenario, r, c).run(0);
        assert_eq!(packed_run.parent, reference.parent, "{r}x{c} compressed");
    }
}

/// A run as comparable text: its parents and its whole profile. `f64`'s
/// `Debug` is the shortest text that reads back to the same bits, so two
/// equal strings are two bitwise-equal runs.
fn bits(run: &BfsRun) -> String {
    format!("{} {:?} {:?}", run.visited, run.parent, run.profile)
}

/// Eight roots of the hub's component spread over the id space plus an
/// isolated vertex, on a graph that has both.
fn reuse_roots(g: &Csr) -> Vec<usize> {
    let hub = best_root(g);
    let isolated = (0..g.num_vertices())
        .find(|&v| g.degree(v) == 0)
        .expect("R-MAT has isolated vertices");
    let mut component = g.component_of(hub);
    component.sort_unstable();
    let mut roots: Vec<usize> = (0..8).map(|i| component[i * component.len() / 8]).collect();
    roots.extend([isolated, hub]);
    roots
}

#[test]
fn one_engine_reused_in_any_order_matches_a_fresh_engine_per_root() {
    let g = GraphBuilder::rmat(12, 8).seed(13).build();
    let packed = CompressedCsr::from_csr(&g);
    let scenario = Scenario::new(machine(12), OptLevel::Granularity(256));
    let roots = reuse_roots(&g);
    for (r, c) in [(2usize, 4usize), (8, 1)] {
        let fresh: Vec<String> = roots
            .iter()
            .map(|&root| bits(&TwoDimBfs::with_grid(&g, &scenario, r, c).run(root)))
            .collect();
        let dense = TwoDimBfs::with_grid(&g, &scenario, r, c);
        let compressed = TwoDimBfs::with_grid(&packed, &scenario, r, c);
        for (i, &root) in roots.iter().enumerate() {
            assert_eq!(bits(&dense.run(root)), fresh[i], "{r}x{c} root {root}");
        }
        for (i, &root) in roots.iter().enumerate().rev() {
            assert_eq!(
                bits(&dense.run(root)),
                fresh[i],
                "{r}x{c} root {root} reversed"
            );
            assert_eq!(
                bits(&compressed.run(root)),
                fresh[i],
                "{r}x{c} root {root} compressed"
            );
        }
    }
}

#[test]
fn concurrent_first_searches_match_serial_searches() {
    let g = GraphBuilder::rmat(12, 8).seed(13).build();
    let scenario = Scenario::new(machine(12), OptLevel::Granularity(256));
    let roots = reuse_roots(&g);
    let serial: Vec<String> = {
        let engine = TwoDimBfs::with_grid(&g, &scenario, 2, 4);
        roots.iter().map(|&root| bits(&engine.run(root))).collect()
    };
    // Every search of the sweep may be the first: they race for the one
    // build and share what it made. Under a work-stealing pool, a build
    // that forked while holding the lock could be handed a waiting search
    // and deadlock; a wide pool and a few sweeps give that its chances.
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(16)
        .build()
        .unwrap();
    for sweep in 0..4 {
        let engine = TwoDimBfs::with_grid(&g, &scenario, 2, 4);
        let concurrent: Vec<String> = wide.install(|| {
            roots
                .par_iter()
                .map(|&root| bits(&engine.run(root)))
                .collect()
        });
        assert_eq!(concurrent, serial, "sweep {sweep}");
    }
}

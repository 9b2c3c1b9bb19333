//! The top-down level against its definition.
//!
//! Parents must equal the serial min-parent oracle
//! (`nbfs_core::seq::bfs_top_down`), and every top-down
//! level's per-rank counters must equal what the replicated algorithm the
//! model charges would scan: rank `p` sweeps the whole frontier `F` and
//! touches every arc from `F` into its block,
//! `edges_scanned = |F| + |{(u, v): u ∈ F, v ∈ N(u) ∩ block p}|`,
//! recomputed here from the `Csr`, the `BlockPartition` and BFS depths —
//! arithmetic the engine does not share. Covered: scales 14–18, the whole
//! optimization ladder, 1/3/7-thread rayon pools, degenerate graphs
//! (isolated roots, a single-vertex graph), a forced always-top-down
//! schedule, and proptest-randomized R-MAT seeds.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use proptest::prelude::*;

use nbfs_core::direction::{Direction, SwitchPolicy};
use nbfs_core::engine::{BfsRun, DistributedBfs, Scenario};
use nbfs_core::multi::LaneAnswer;
use nbfs_core::opt::OptLevel;
use nbfs_core::seq::bfs_top_down;
use nbfs_graph::edge::EdgeList;
use nbfs_graph::{Csr, GraphBuilder, NO_PARENT};
use nbfs_topology::presets;
use nbfs_trace::TraceConfig;
use nbfs_util::BlockPartition;

fn rmat(scale: u32) -> Csr {
    GraphBuilder::rmat(scale, 16)
        .seed(0xD1FF ^ u64::from(scale))
        .build()
}

fn best_root(g: &Csr) -> usize {
    (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty")
}

/// Vertices by BFS depth from `root` (plain queue BFS; depths do not
/// depend on which parent a search elects).
fn levels_by_depth(g: &Csr, root: usize) -> Vec<Vec<usize>> {
    let mut depth = vec![usize::MAX; g.num_vertices()];
    depth[root] = 0;
    let mut levels = vec![vec![root]];
    loop {
        let d = levels.len();
        let mut next = Vec::new();
        for &u in &levels[d - 1] {
            for &v in g.neighbours(u) {
                if depth[v as usize] == usize::MAX {
                    depth[v as usize] = d;
                    next.push(v as usize);
                }
            }
        }
        if next.is_empty() {
            return levels;
        }
        levels.push(next);
    }
}

/// Runs the scenario traced and checks parents against the oracle and the
/// top-down counters against the definition. Returns the run.
fn assert_matches_oracle(g: &Csr, scenario: &Scenario, root: usize, label: &str) -> BfsRun {
    let mut traced = scenario.clone();
    traced.trace = TraceConfig::Standard;
    let (run, report) = DistributedBfs::new(g, &traced).run_traced(root);

    let oracle = LaneAnswer::from_run(root, bfs_top_down(g, root));
    assert_eq!(run.parent, oracle.parent, "{label}: parents differ");
    assert_eq!(run.visited as u64, oracle.visited, "{label}: visited");

    let np = traced.process_map().world_size();
    let partition = BlockPartition::new(g.num_vertices(), np);
    let by_depth = levels_by_depth(g, root);
    let mut top_down_levels = 0;
    for lv in &report.levels {
        if lv.direction != Direction::TopDown {
            continue;
        }
        top_down_levels += 1;
        let frontier = &by_depth[lv.level];
        let mut scanned = vec![frontier.len() as u64; np];
        for &u in frontier {
            for &v in g.neighbours(u) {
                scanned[partition.owner(v as usize)] += 1;
            }
        }
        let mut discovered = vec![0u64; np];
        for &v in by_depth.get(lv.level + 1).map_or(&[][..], Vec::as_slice) {
            discovered[partition.owner(v)] += 1;
        }
        assert_eq!(lv.ranks.len(), np, "{label}: level {}", lv.level);
        for r in &lv.ranks {
            let at = format!("{label}: level {} rank {}", lv.level, r.rank);
            assert_eq!(r.edges_scanned, scanned[r.rank], "{at}: edges_scanned");
            assert_eq!(r.discovered, discovered[r.rank], "{at}: discovered");
            assert_eq!(r.write_bytes, 12 * discovered[r.rank], "{at}: write_bytes");
        }
    }
    assert!(top_down_levels > 0, "{label}: level 0 is always top-down");
    run
}

#[test]
fn top_down_matches_definition_across_scales() {
    for scale in 14..=18u32 {
        let g = rmat(scale);
        let machine = presets::xeon_x7550_node().scaled_to_graph(scale, 28);
        let scenario = Scenario::new(machine, OptLevel::OriginalPpn8);
        assert_matches_oracle(&g, &scenario, best_root(&g), &format!("scale {scale}"));
    }
}

#[test]
fn top_down_matches_definition_across_opt_ladder() {
    let g = rmat(14);
    for opt in OptLevel::LADDER {
        let machine = presets::xeon_x7550_cluster(2).scaled_to_graph(14, 28);
        let scenario = Scenario::new(machine, opt);
        assert_matches_oracle(&g, &scenario, best_root(&g), &opt.label());
    }
}

#[test]
fn top_down_matches_definition_when_forced_all_top_down() {
    // With the direction switch disabled every level exercises the
    // top-down walk, including the deep sparse tail the hybrid would
    // normally hand to bottom-up.
    let g = rmat(14);
    let machine = presets::xeon_x7550_node().scaled_to_graph(14, 28);
    let scenario = Scenario::builder(machine, OptLevel::OriginalPpn8)
        .switch_policy(SwitchPolicy::always_top_down())
        .build()
        .unwrap();
    let run = assert_matches_oracle(&g, &scenario, best_root(&g), "always-top-down");
    assert!(
        run.profile
            .levels
            .iter()
            .all(|l| l.direction == Direction::TopDown),
        "the forced schedule must never leave top-down"
    );
}

#[test]
fn top_down_matches_definition_on_isolated_root() {
    let g = rmat(14);
    let isolated = (0..g.num_vertices())
        .find(|&v| g.degree(v) == 0)
        .expect("R-MAT has isolated vertices");
    let machine = presets::xeon_x7550_node().scaled_to_graph(14, 28);
    let scenario = Scenario::new(machine, OptLevel::OriginalPpn8);
    let run = assert_matches_oracle(&g, &scenario, isolated, "isolated root");
    assert_eq!(run.visited, 1, "isolated root visits only itself");
}

#[test]
fn top_down_matches_definition_on_single_vertex_graph() {
    let g = Csr::from_edge_list(&EdgeList::new(1, Vec::new()));
    let machine = presets::xeon_x7550_node().scaled_to_graph(1, 28);
    let scenario = Scenario::new(machine, OptLevel::OriginalPpn8);
    let run = assert_matches_oracle(&g, &scenario, 0, "single vertex");
    assert_eq!(run.visited, 1);
    assert_eq!(run.parent[0] as usize, 0, "root is its own parent");
}

#[test]
fn engine_is_thread_count_independent() {
    // The walk is serial and the bottom-up chunking is a pure function of
    // the partition, so neither the tree nor the simulated time may depend
    // on how many rayon workers the pool offers.
    let g = rmat(15);
    let machine = presets::xeon_x7550_node().scaled_to_graph(15, 28);
    let scenario = Scenario::new(machine, OptLevel::OriginalPpn8);
    let root = best_root(&g);
    let baseline = DistributedBfs::new(&g, &scenario).run(root);
    for threads in [1usize, 3, 7] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let run = pool
            .install(|| assert_matches_oracle(&g, &scenario, root, &format!("threads={threads}")));
        assert_eq!(
            baseline.profile.total(),
            run.profile.total(),
            "threads={threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The definition holds for arbitrary R-MAT seeds, not just the pinned
    /// ones: random hub structure, random isolated regions, random roots.
    #[test]
    fn top_down_matches_definition_on_random_rmat_seeds(seed in any::<u64>()) {
        let g = GraphBuilder::rmat(11, 16).seed(seed).build();
        let machine = presets::xeon_x7550_node().scaled_to_graph(11, 28);
        let scenario = Scenario::new(machine, OptLevel::OriginalPpn8);
        let root = best_root(&g);
        for threads in [1usize, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run = pool.install(|| {
                assert_matches_oracle(&g, &scenario, root, &format!("seed={seed} threads={threads}"))
            });
            prop_assert_eq!(
                run.parent.iter().filter(|&&p| p != NO_PARENT).count(),
                run.visited,
                "seed={}", seed
            );
        }
    }
}

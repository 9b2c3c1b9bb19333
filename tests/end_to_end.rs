//! Cross-crate integration: generator → partitioner → distributed engine →
//! validator, across the whole optimization ladder and several machines.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::core::engine::{DistributedBfs, Scenario};
use numa_bfs::core::opt::OptLevel;
use numa_bfs::core::seq;
use numa_bfs::graph::validate::validate_bfs_tree;
use numa_bfs::graph::{GraphBuilder, GraphView, NO_PARENT};
use numa_bfs::topology::{presets, MachineConfig};
use numa_bfs::util::SimTime;

fn machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("1n8s", presets::xeon_x7550_node().scaled_to_graph(12, 26)),
        (
            "4n8s",
            presets::xeon_x7550_cluster(4).scaled_to_graph(12, 26),
        ),
        ("2n4s", MachineConfig::small_test_cluster(2, 4)),
        ("3n2s", MachineConfig::small_test_cluster(3, 2)),
    ]
}

#[test]
fn every_opt_level_on_every_machine_validates() {
    let graph = GraphBuilder::rmat(12, 8).seed(77).build();
    let root = (0..graph.num_vertices())
        .max_by_key(|&v| graph.degree(v))
        .unwrap();
    let expected_component = graph.component_of(root).len();
    for (name, machine) in machines() {
        for opt in OptLevel::LADDER {
            let scenario = Scenario::new(machine.clone(), opt);
            let run = DistributedBfs::new(&graph, &scenario).run(root);
            let visited = validate_bfs_tree(&graph, root, &run.parent)
                .unwrap_or_else(|e| panic!("{name}/{opt:?}: {e}"));
            assert_eq!(visited, expected_component, "{name}/{opt:?}");
            assert!(run.profile.total() > SimTime::ZERO, "{name}/{opt:?}");
        }
    }
}

#[test]
fn distributed_parents_equal_the_sequential_parents() {
    let graph = GraphBuilder::rmat(12, 8).seed(101).build();
    let seq_run = seq::bfs_top_down(&graph, 2);
    for (name, machine) in machines() {
        let scenario = Scenario::new(machine, OptLevel::Granularity(256));
        let run = DistributedBfs::new(&graph, &scenario).run(2);
        assert_eq!(run.parent, seq_run.parent, "{name}");
    }
}

#[test]
fn all_opt_levels_agree_on_the_tree_shape_metrics() {
    // Different collectives/placements must not change what is computed —
    // only how long it takes. Depth histograms are a strong shape check.
    let graph = GraphBuilder::rmat(12, 8).seed(5).build();
    let root = (0..graph.num_vertices())
        .max_by_key(|&v| graph.degree(v))
        .unwrap();
    let machine = MachineConfig::small_test_cluster(2, 4);

    let depth_histogram = |parent: &[u32]| -> Vec<usize> {
        let mut depth = vec![usize::MAX; parent.len()];
        depth[root] = 0;
        let mut hist = vec![1usize];
        // Repeated relaxation is fine at this size.
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..parent.len() {
                if parent[v] == NO_PARENT || v == root || depth[v] != usize::MAX {
                    continue;
                }
                let p = parent[v] as usize;
                if depth[p] != usize::MAX {
                    depth[v] = depth[p] + 1;
                    if hist.len() <= depth[v] {
                        hist.resize(depth[v] + 1, 0);
                    }
                    hist[depth[v]] += 1;
                    changed = true;
                }
            }
        }
        hist
    };

    let mut reference: Option<Vec<usize>> = None;
    for opt in OptLevel::LADDER {
        let scenario = Scenario::new(machine.clone(), opt);
        let run = DistributedBfs::new(&graph, &scenario).run(root);
        let hist = depth_histogram(&run.parent);
        match &reference {
            None => reference = Some(hist),
            Some(r) => assert_eq!(&hist, r, "{opt:?} changed the BFS level structure"),
        }
    }
}

#[test]
fn simulated_time_is_scale_monotone() {
    // A bigger graph on the same machine must take longer under every
    // optimization level.
    let machine = MachineConfig::small_test_cluster(2, 4);
    for opt in [OptLevel::OriginalPpn8, OptLevel::Granularity(256)] {
        let mut prev = SimTime::ZERO;
        for scale in [10u32, 12, 14] {
            let graph = GraphBuilder::rmat(scale, 8).seed(3).build();
            let root = (0..graph.num_vertices())
                .max_by_key(|&v| graph.degree(v))
                .unwrap();
            let scenario = Scenario::new(machine.clone(), opt);
            let t = DistributedBfs::new(&graph, &scenario)
                .run(root)
                .profile
                .total();
            assert!(t > prev, "{opt:?} scale {scale}: {t:?} !> {prev:?}");
            prev = t;
        }
    }
}

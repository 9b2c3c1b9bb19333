//! The public result types serialize: downstream tooling consumes run
//! profiles, harness results and machine configurations as JSON.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::core::engine::{DistributedBfs, Scenario};
use numa_bfs::core::harness::{Graph500Harness, HarnessConfig};
use numa_bfs::core::opt::OptLevel;
use numa_bfs::graph::stats::DegreeStats;
use numa_bfs::graph::GraphBuilder;
use numa_bfs::topology::MachineConfig;

#[test]
fn machine_config_roundtrips_through_json() {
    let m = numa_bfs::topology::presets::cluster2012_with_weak_node();
    let json = serde_json::to_string(&m).unwrap();
    let back: MachineConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(m, back);
}

#[test]
fn run_profile_serializes_with_all_phases() {
    let g = GraphBuilder::rmat(10, 8).seed(2).build();
    let scenario = Scenario::new(MachineConfig::small_test_cluster(2, 2), OptLevel::ShareAll);
    let run = DistributedBfs::new(&g, &scenario).run(0);
    let json = serde_json::to_value(&run.profile).unwrap();
    for key in ["td_comp", "bu_comp", "bu_comm", "switch", "stall", "levels"] {
        assert!(json.get(key).is_some(), "missing {key}");
    }
    // Levels carry the direction enum as text.
    if let Some(level) = json["levels"].as_array().and_then(|l| l.first()) {
        assert!(level["direction"].is_string());
    }
}

#[test]
fn harness_result_serializes() {
    let g = GraphBuilder::rmat(10, 8).seed(2).build();
    let scenario = Scenario::new(MachineConfig::small_test_cluster(2, 2), OptLevel::ShareAll);
    let engine = DistributedBfs::new(&g, &scenario);
    let result = Graph500Harness::new(&g, &engine)
        .run(&HarnessConfig::quick(2))
        .unwrap();
    let json = serde_json::to_value(&result).unwrap();
    assert!(json["teps"]["harmonic_mean"].as_f64().unwrap() > 0.0);
    assert_eq!(json["per_root"].as_array().unwrap().len(), 2);
}

#[test]
fn degree_stats_serialize() {
    let g = GraphBuilder::rmat(10, 8).seed(2).build();
    let s = DegreeStats::compute(&g);
    let json = serde_json::to_value(&s).unwrap();
    assert_eq!(json["num_vertices"].as_u64().unwrap(), 1024);
    let back: DegreeStats = serde_json::from_value(json).unwrap();
    assert_eq!(back.num_edges, s.num_edges);
}

//! Adversarial graph shapes and failure injection for the distributed
//! engine and the validator.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::core::engine::{DistributedBfs, Scenario};
use numa_bfs::core::opt::OptLevel;
use numa_bfs::graph::validate::validate_bfs_tree;
use numa_bfs::graph::{Csr, Edge, EdgeList, GraphBuilder, GraphView, NO_PARENT};
use numa_bfs::topology::MachineConfig;

fn machine() -> MachineConfig {
    MachineConfig::small_test_cluster(2, 4)
}

fn run(graph: &Csr, root: usize) -> numa_bfs::core::engine::BfsRun {
    let scenario = Scenario::new(machine(), OptLevel::Granularity(256));
    DistributedBfs::new(graph, &scenario).run(root)
}

fn check(graph: &Csr, root: usize) {
    let r = run(graph, root);
    let visited =
        validate_bfs_tree(graph, root, &r.parent).unwrap_or_else(|e| panic!("root {root}: {e}"));
    assert_eq!(visited, graph.component_of(root).len());
}

#[test]
fn star_graph_one_level() {
    // Hub 0 connected to everything: BFS is a single giant level, which
    // forces an immediate top-down -> bottom-up switch.
    let n = 2000;
    let el = EdgeList::new(n, (1..n).map(|v| Edge::new(0, v)).collect());
    let g = Csr::from_edge_list(&el);
    check(&g, 0);
    // From a leaf the search needs exactly two levels.
    let r = run(&g, 17);
    assert_eq!(r.visited, n);
    assert!(r.profile.levels.len() >= 2);
}

#[test]
fn long_chain_many_levels() {
    // A path graph: frontier of one vertex per level — maximally deep,
    // stressing per-level overheads and the switch heuristic's tail.
    let n = 600;
    let el = EdgeList::new(n, (0..n - 1).map(|v| Edge::new(v, v + 1)).collect());
    let g = Csr::from_edge_list(&el);
    let r = run(&g, 0);
    assert_eq!(r.visited, n);
    assert!(
        r.profile.levels.len() >= n - 1,
        "chain must take one level per hop, got {}",
        r.profile.levels.len()
    );
    check(&g, 0);
    check(&g, n / 2);
}

#[test]
fn complete_bipartite_two_levels() {
    let (a, b) = (40usize, 60usize);
    let mut edges = Vec::new();
    for u in 0..a {
        for v in 0..b {
            edges.push(Edge::new(u, a + v));
        }
    }
    let g = Csr::from_edge_list(&EdgeList::new(a + b, edges));
    let r = run(&g, 0);
    assert_eq!(r.visited, a + b);
    check(&g, 0);
}

#[test]
fn disconnected_islands_stay_unvisited() {
    // Two components; searching one must not leak into the other.
    let mut edges: Vec<Edge> = (0..50).map(|v| Edge::new(v, v + 1)).collect();
    edges.extend((60..90).map(|v| Edge::new(v, v + 1)));
    let g = Csr::from_edge_list(&EdgeList::new(100, edges));
    let r = run(&g, 0);
    assert_eq!(r.visited, 51);
    for v in 60..=90 {
        assert_eq!(r.parent[v], NO_PARENT, "vertex {v} leaked");
    }
    check(&g, 70);
}

#[test]
fn two_vertex_graph() {
    let g = Csr::from_edge_list(&EdgeList::new(2, vec![Edge::new(0, 1)]));
    let r = run(&g, 1);
    assert_eq!(r.visited, 2);
    assert_eq!(r.parent[0], 1);
    assert_eq!(r.parent[1], 1);
}

#[test]
fn graph_smaller_than_world_size() {
    // 8 ranks, 6 vertices: some ranks own nothing at all.
    let g = Csr::from_edge_list(&EdgeList::new(
        6,
        vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)],
    ));
    check(&g, 0);
    check(&g, 3);
}

#[test]
fn multigraph_input_collapses() {
    // Heavy duplication and self loops in the raw list.
    let mut edges = Vec::new();
    for _ in 0..20 {
        edges.push(Edge::new(0, 1));
        edges.push(Edge::new(1, 0));
        edges.push(Edge::new(2, 2));
        edges.push(Edge::new(1, 2));
    }
    let g = Csr::from_edge_list(&EdgeList::new(3, edges));
    assert_eq!(g.num_edges(), 2);
    check(&g, 0);
}

// --- failure injection --------------------------------------------------

#[test]
fn validator_catches_corrupted_distributed_results() {
    let g = GraphBuilder::rmat(11, 8).seed(3).build();
    let root = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
    let good = run(&g, root);
    assert!(validate_bfs_tree(&g, root, &good.parent).is_ok());

    // Corruption 1: claim an unvisited vertex was reached through a
    // non-edge.
    let mut bad = good.parent.clone();
    let victim = (0..g.num_vertices())
        .find(|&v| bad[v] != NO_PARENT && v != root && !g.has_edge(v, root))
        .expect("some visited vertex is not adjacent to the root");
    bad[victim] = root as u32;
    assert!(
        validate_bfs_tree(&g, root, &bad).is_err(),
        "fabricated tree edge must be rejected"
    );

    // Corruption 2: drop a visited vertex (its neighbours stay visited).
    let mut bad = good.parent.clone();
    let victim = (0..g.num_vertices())
        .find(|&v| bad[v] != NO_PARENT && v != root && g.degree(v) > 0)
        .unwrap();
    bad[victim] = NO_PARENT;
    assert!(validate_bfs_tree(&g, root, &bad).is_err());

    // Corruption 3: swap two parents to break the level structure.
    let mut bad = good.parent.clone();
    bad[root] = NO_PARENT;
    assert!(validate_bfs_tree(&g, root, &bad).is_err());
}

#[test]
fn weak_node_only_slows_communication() {
    // Injecting the paper's degraded node must slow multi-node runs but
    // never change the computed tree.
    let g = GraphBuilder::rmat(12, 8).seed(5).build();
    let root = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
    let healthy = MachineConfig::small_test_cluster(4, 4);
    let degraded = healthy.clone().with_weak_node(2, 0.3);

    let a = DistributedBfs::new(&g, &Scenario::new(healthy, OptLevel::ParAllgather)).run(root);
    let b = DistributedBfs::new(&g, &Scenario::new(degraded, OptLevel::ParAllgather)).run(root);
    assert_eq!(a.parent, b.parent, "a slow NIC must not change the answer");
    assert!(
        b.profile.bu_comm > a.profile.bu_comm,
        "degraded network must show up in communication time"
    );
    assert_eq!(
        a.profile.bu_comp.as_secs(),
        b.profile.bu_comp.as_secs(),
        "computation must be untouched"
    );
}

#[test]
fn invalid_machine_configurations_rejected() {
    let mut m = machine();
    m.nodes = 0;
    assert!(m.validate().is_err());

    let m = machine();
    let result = std::panic::catch_unwind(|| {
        let mut bad = m.clone();
        bad.socket.mem_bw = -1.0;
        Scenario::new(bad, OptLevel::ShareAll)
    });
    assert!(result.is_err(), "negative bandwidth must be rejected");
}

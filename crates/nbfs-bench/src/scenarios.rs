//! Shared scenario builders for the figure regenerators.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use nbfs_core::engine::{DistributedBfs, Scenario};
use nbfs_graph::{Csr, GraphBuilder};
use nbfs_topology::{presets, MachineConfig};
use nbfs_util::SimTime;

/// Workload knobs for a figure run.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// R-MAT scale of the *single-node* workload; weak-scaling figures add
    /// `log2(nodes)` on top, exactly like the paper (scales 28..32 for
    /// 1..16 nodes).
    pub base_scale: u32,
    /// The paper scale the single-node runs map to (28); weak scaling maps
    /// `base_scale + k` to `28 + k`.
    pub paper_base_scale: u32,
    /// Roots per TEPS measurement (the paper uses 64).
    pub roots: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            base_scale: 16,
            paper_base_scale: 28,
            roots: 8,
        }
    }
}

impl BenchConfig {
    /// Quick configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            base_scale: 11,
            paper_base_scale: 28,
            roots: 2,
        }
    }

    /// The machine for a `nodes`-node weak-scaling point: caches and
    /// latencies scaled so graph scale `base + log2(nodes)` sits in the
    /// same regime as paper scale `28 + log2(nodes)`.
    pub fn machine(&self, nodes: usize) -> MachineConfig {
        presets::xeon_x7550_cluster(nodes).scaled_to_graph(self.base_scale, self.paper_base_scale)
    }

    /// Graph scale for a `nodes`-node weak-scaling point.
    pub fn weak_scale(&self, nodes: usize) -> u32 {
        self.base_scale + (nodes as f64).log2().round() as u32
    }
}

/// Process-wide graph cache: figures share generated graphs across calls.
fn graph_cache() -> &'static Mutex<HashMap<(u32, u64), &'static Csr>> {
    static CACHE: OnceLock<Mutex<HashMap<(u32, u64), &'static Csr>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns (and caches for the process lifetime) the benchmark graph at
/// `scale`. Deterministic: seed fixed per scale.
pub fn graph(scale: u32) -> &'static Csr {
    let seed = 0xC1_05_7E_12u64 ^ u64::from(scale);
    let mut cache = graph_cache().lock().expect("cache poisoned");
    cache
        .entry((scale, seed))
        .or_insert_with(|| Box::leak(Box::new(GraphBuilder::rmat(scale, 16).seed(seed).build())))
}

/// The highest-degree vertex — always inside the giant component.
pub fn best_root(graph: &Csr) -> usize {
    (0..graph.num_vertices())
        .max_by_key(|&v| graph.degree(v))
        .expect("non-empty graph")
}

/// Runs one BFS for an explicit scenario and returns (time, TEPS).
pub fn run_scenario(graph: &Csr, scenario: &Scenario) -> (SimTime, f64) {
    let root = best_root(graph);
    let run = DistributedBfs::new(graph, scenario).run(root);
    let edges = graph.component_edges(root) as f64;
    let t = run.profile.total();
    (t, edges / t.as_secs())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_core::opt::OptLevel;

    #[test]
    fn graph_cache_returns_same_instance() {
        let a = graph(9) as *const Csr;
        let b = graph(9) as *const Csr;
        assert_eq!(a, b);
    }

    #[test]
    fn weak_scale_progression() {
        let cfg = BenchConfig::default();
        assert_eq!(cfg.weak_scale(1), 16);
        assert_eq!(cfg.weak_scale(2), 17);
        assert_eq!(cfg.weak_scale(16), 20);
        assert_eq!(cfg.machine(4).nodes, 4);
    }

    #[test]
    fn run_scenario_produces_positive_teps() {
        let cfg = BenchConfig::tiny();
        let g = graph(cfg.base_scale);
        let scenario = Scenario::new(cfg.machine(2), OptLevel::ShareAll);
        let (t, teps) = run_scenario(g, &scenario);
        assert!(t > SimTime::ZERO);
        assert!(teps > 0.0);
    }
}

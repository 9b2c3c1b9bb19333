//! # numa-bfs
//!
//! A reproduction of **"Evaluation and Optimization of Breadth-First Search on
//! NUMA Cluster"** (Cui et al., IEEE CLUSTER 2012) as a Rust workspace: the
//! hybrid top-down/bottom-up BFS of Beamer et al., distributed Graph500-style
//! over a *simulated* cluster of multi-socket NUMA nodes, with the paper's
//! three optimization families — one-process-per-socket NUMA mapping, shared
//! communication data structures with parallelized allgather, and summary-
//! bitmap granularity tuning.
//!
//! This facade crate re-exports the public API of the member crates; see
//! `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the reproduced
//! tables and figures.
//!
//! ## Quickstart
//!
//! ```
//! use numa_bfs::prelude::*;
//!
//! // A small Graph500 R-MAT graph.
//! let graph = GraphBuilder::rmat(12, 16).seed(1).build();
//!
//! // A 2-node, 4-socket-per-node simulated cluster.
//! let machine = MachineConfig::small_test_cluster(2, 4);
//!
//! // Run the fully optimized hybrid BFS from root 0.
//! let scenario = Scenario::new(machine, OptLevel::Granularity(256));
//! let run = DistributedBfs::new(&graph, &scenario).run(0);
//! assert!(run.profile.total().as_secs() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use nbfs_comm as comm;
pub use nbfs_core as core;
pub use nbfs_graph as graph;
pub use nbfs_simnet as simnet;
pub use nbfs_topology as topology;
pub use nbfs_trace as trace;
pub use nbfs_util as util;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use nbfs_comm::allgather::AllgatherAlgorithm;
    pub use nbfs_core::engine::{DistributedBfs, Scenario, ScenarioBuilder};
    pub use nbfs_core::harness::{Graph500Harness, HarnessConfig};
    pub use nbfs_core::opt::OptLevel;
    pub use nbfs_core::seq::{bfs_hybrid, bfs_top_down};
    pub use nbfs_graph::builder::GraphBuilder;
    pub use nbfs_graph::csr::Csr;
    pub use nbfs_graph::validate::validate_bfs_tree;
    pub use nbfs_graph::view::GraphView;
    pub use nbfs_topology::machine::MachineConfig;
    pub use nbfs_topology::placement::{PlacementPolicy, ProcessMap};
    pub use nbfs_trace::{Phase, RunProfile};
    pub use nbfs_trace::{TraceConfig, TraceReport};
    pub use nbfs_util::stats::format_teps;
    pub use nbfs_util::{Bitmap, NbfsError, SimTime, SummaryBitmap};
}

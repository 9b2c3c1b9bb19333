//! The paper's primary contribution: hybrid BFS on a NUMA cluster, with the
//! full optimization ladder of Section III.
//!
//! * [`seq`] — single-address-space top-down, bottom-up and *hybrid*
//!   (Beamer et al. \[9\]) BFS engines, used for the Section II.A comparison
//!   and as correctness oracles;
//! * [`direction`] — the hybrid switch heuristic (α/β thresholds);
//! * [`opt`] — the optimization ladder of Fig. 9 (`Original.ppn=1` →
//!   `Original.ppn=8` → `Share in_queue` → `Share all` → `Par allgather` →
//!   `Granularity`);
//! * [`engine`] — the distributed hybrid BFS over the simulated cluster:
//!   real partitioned traversal + counted-work cost model + the collective
//!   algorithms of `nbfs-comm`; it and [`engine2d`] (the 2-D partitioned
//!   engine of Section V) are two exchanges under one private level
//!   driver, so both answer `search` with one contract and return the
//!   Fig. 11 execution-time breakdown ([`nbfs_trace::RunProfile`]: top-down
//!   computation, bottom-up computation, bottom-up communication, switch,
//!   stall);
//! * [`harness`] — the Graph500 measurement harness: N random roots,
//!   per-root validation, harmonic-mean TEPS;
//! * [`multi`] — the bit-parallel multi-source kernel: up to 64 roots
//!   fused into one wave over per-vertex lane words, with a min-parent
//!   settle rule that keeps every lane bit-identical to a per-root run;
//! * [`query`] — BFS-as-a-service: a long-lived [`QueryEngine`] with a
//!   leader/follower batching queue and pooled workspaces, which both
//!   concurrent submitters and the Graph500 harness ride.

#![forbid(unsafe_code)]
// Library code propagates errors; a panic that encodes an invariant says
// why at its site with #[expect(clippy::expect_used, reason = ..)].
#![deny(clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod direction;
pub mod engine;
pub mod engine2d;
mod grain;
pub mod harness;
mod level;
pub mod multi;
pub mod opt;
pub mod par;
pub mod query;
pub mod seq;
pub mod tuning;

pub use engine::{BfsRun, DistributedBfs, Scenario, ScenarioBuilder};
pub use harness::{Graph500Harness, HarnessConfig};
pub use multi::{LaneAnswer, MultiSourceRun, MultiWorkspace, MAX_LANES};
pub use opt::OptLevel;
pub use query::{BitParallelBackend, EngineStats, QueryBackend, QueryEngine};

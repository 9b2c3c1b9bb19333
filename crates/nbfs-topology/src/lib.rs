//! Machine model of a NUMA cluster and process-placement policies.
//!
//! The paper evaluates on sixteen eight-socket Intel Xeon X7550 nodes
//! (Table I) whose sockets are glued by QPI links (Fig. 2) and whose nodes
//! talk over dual 40 Gbps InfiniBand ports. This crate describes that
//! hardware *declaratively* — capacities, latencies, bandwidths, link
//! topology — and captures the paper's execution policies:
//!
//! * `mpirun`/`numactl` flag combinations (`noflag`, `--interleave=all`,
//!   `--bind-to-socket --bysocket`) become [`placement::PlacementPolicy`];
//! * "spawn `ppn` processes per node with `t` OpenMP threads each" becomes a
//!   [`placement::ProcessMap`];
//! * the resulting locality of graph accesses becomes a
//!   [`placement::MemoryProfile`] consumed by the `nbfs-simnet` cost models.
//!
//! Nothing in this crate computes time; it only answers "who sits where and
//! which memory do their accesses hit".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod machine;
pub mod placement;
pub mod presets;
pub mod qpi;

pub use machine::{CacheSpec, MachineConfig, NicSpec, SocketSpec, WeakNode};
pub use placement::{MemoryProfile, PlacementPolicy, ProcessMap, RankId};
pub use qpi::QpiTopology;

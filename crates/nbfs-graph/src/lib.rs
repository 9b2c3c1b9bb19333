//! Graph substrate: Graph500-style synthetic graphs and their storage.
//!
//! The paper evaluates BFS on R-MAT graphs "the distribution of which is
//! scale-free" (Section II.A), generated per the Graph500 specification:
//! `SCALE` is log2 of the vertex count and the edge factor is 16. This
//! crate implements:
//!
//! * [`rmat`] — the Kronecker/R-MAT edge generator (A=0.57, B=0.19, C=0.19)
//!   with deterministic counter-based randomness and vertex-label
//!   scrambling;
//! * [`csr`] — compressed sparse row storage with parallel construction;
//! * [`compressed`] — delta-varint CSR (`u40`-packed byte offsets) that
//!   halves the graph footprint so scale 21–22 fits where 19 did;
//! * [`view`] — the [`GraphView`] trait both BFS engines traverse, so
//!   compressed and uncompressed storage share monomorphized kernels;
//! * [`builder`] — a fluent front door ([`builder::GraphBuilder`]);
//! * [`partition`] — the 1-D block distribution of rows across ranks used
//!   by the distributed BFS (each rank owns the adjacency of its vertex
//!   block, Fig. 1);
//! * [`validate`] — the Graph500 BFS-tree validation rules;
//! * [`stats`] — degree statistics used by tests and the figure printers;
//! * [`vid`] — the sanctioned vertex-id width conversions (the only place
//!   allowed to narrow a vertex id past `clippy::cast_possible_truncation`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod compressed;
pub mod csr;
pub mod edge;
pub mod io;
pub mod partition;
pub mod rmat;
mod rows;
pub mod stats;
pub mod validate;
pub mod vid;
pub mod view;

pub use builder::GraphBuilder;
pub use compressed::CompressedCsr;
pub use csr::Csr;
pub use edge::{Edge, EdgeList};
pub use partition::PartitionedGraph;
pub use view::GraphView;

/// Vertex identifier. Graphs up to scale 31 are supported (ids fit `u32`
/// internally; the API uses `usize` for ergonomics).
pub type VertexId = usize;

/// Sentinel parent value for unvisited vertices in BFS parent arrays.
pub const NO_PARENT: u32 = u32::MAX;

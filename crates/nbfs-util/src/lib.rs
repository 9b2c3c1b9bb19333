//! Foundation utilities shared by every `numa-bfs` crate.
//!
//! This crate deliberately has no knowledge of graphs, topology or the
//! simulator; it provides the bit-level building blocks the paper's data
//! structures are made of:
//!
//! * [`Bitmap`] — the `in_queue` / `out_queue` frontier bitmaps of Fig. 1;
//!   the kernels read them through [`Bitmap::words`] with plain word loads,
//! * [`SummaryBitmap`] — the `in_queue_summary` structure whose granularity
//!   Section III.C of the paper tunes (the `Granularity(g)` opt rung),
//! * [`ArenaPool`] — checked-out/checked-in reusable workspaces so a
//!   long-lived query engine reuses its scratch state across waves (a wave
//!   still allocates its answers and their level vectors),
//! * [`ownership`] — the contiguous 1-D block partition arithmetic used to
//!   split vertices (and therefore bitmap words) across ranks,
//! * [`rng`] — deterministic, counter-based random number generation so that
//!   graph generation is reproducible and independent of thread count,
//! * [`stats`] — the harmonic-mean TEPS statistics mandated by the Graph500
//!   run rules,
//! * [`SimTime`] — the simulated-seconds newtype threaded through the cost
//!   models,
//! * [`varint`] — the LEB128 primitives shared by the wire codecs and the
//!   compressed CSR storage,
//! * [`NbfsError`] / [`Result`] — the workspace-wide error surface.

#![forbid(unsafe_code)]
// Library code propagates errors; a panic that encodes an invariant says
// why at its site with #[expect(clippy::expect_used, reason = ..)].
#![deny(clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod error;
pub mod ownership;
pub mod pool;
pub mod rng;
pub mod simtime;
pub mod stats;
pub mod summary;
pub mod units;
pub mod varint;

pub use bitmap::Bitmap;
pub use error::{NbfsError, Result};
pub use ownership::BlockPartition;
pub use pool::{ArenaPool, PoolGuard};
pub use simtime::SimTime;
pub use summary::SummaryBitmap;

/// Number of bits in one storage word of every bitmap in this workspace.
pub const WORD_BITS: usize = 64;

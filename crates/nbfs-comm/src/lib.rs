//! Message passing substrate for the distributed hybrid BFS.
//!
//! Real MPI and InfiniBand are unavailable in this reproduction, so the
//! BSP-style collectives here stand in for them: [`allgather`] /
//! [`alltoallv`] / [`collectives`] perform the actual data movement over
//! all ranks' buffers at once (so correctness is exercised end-to-end)
//! while charging simulated time to the `nbfs-simnet` models per algorithm
//! step. Both BFS engines run on them, because the paper's optimizations
//! are precisely different collective algorithms, each walked once per
//! call: the round loop that prices it also tallies its volume and lists
//! its fault edges.
//!
//! | paper | here |
//! |---|---|
//! | Open MPI 1.5.5 default allgather (ring for large messages) | [`allgather::AllgatherAlgorithm::Ring`] |
//! | leader-based (Mamidala et al. \[31\], Fig. 5a)               | [`allgather::AllgatherAlgorithm::LeaderBased`] |
//! | shared `in_queue` (Fig. 5b, Section III.A.1)               | [`allgather::AllgatherAlgorithm::SharedDest`] |
//! | shared `in_queue` + `out_queue` (Section III.A.2)          | [`allgather::AllgatherAlgorithm::SharedBoth`] |
//! | parallelized allgather (Fig. 7, Section III.B)             | [`allgather::AllgatherAlgorithm::ParallelSubgroup`] |
//!
//! Alongside them:
//!
//! * [`codec`] — pluggable frontier/bitmap compression (delta-varint)
//!   applied at the collective seams, with honest raw-vs-wire byte
//!   accounting (Lv et al., arXiv:1208.5542).
//! * [`fault`] — deterministic seeded fault injection over the edge
//!   schedules the collectives' walks list.
//!
//! Each collective's cost is an [`nbfs_trace::CommCost`]: the per-step
//! time split (intra-node gather, inter-node exchange, intra-node
//! broadcast) that Figs. 6 and 13 report.

#![forbid(unsafe_code)]
// Library code propagates errors; a panic that encodes an invariant says
// why at its site with #[expect(clippy::expect_used, reason = ..)].
#![deny(clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod allgather;
pub mod alltoallv;
pub mod codec;
pub mod collectives;
pub mod fault;

pub use allgather::{allgather_cost_bytes, AllgatherAlgorithm};
pub use codec::{Codec, CodecWorkspace, FrontierCodec};
pub use fault::{FaultAdjustment, FaultPlan, FaultScope, FaultSpec};

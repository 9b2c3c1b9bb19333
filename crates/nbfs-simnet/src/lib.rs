//! Cost models for the simulated NUMA cluster.
//!
//! This crate turns *counted work* into *simulated time* ([`SimTime`]):
//! computation phases are costed by a roofline-style bottleneck model fed
//! with operation counts gathered while the real algorithm executes
//! ([`compute`]), and communication phases are costed by a round-based flow
//! contention model over the node NICs and intra-node memory systems
//! ([`network`], [`flows`]).
//!
//! The probabilistic cache model ([`cache`]) is what makes the paper's two
//! cache-sensitive effects emerge rather than being hard-coded: the
//! `in_queue_summary` granularity trade-off (Fig. 16) and the enlarged
//! effective cache of a node-shared `in_queue` (Section III.A reasons b–d).
//!
//! [`SimTime`]: nbfs_util::SimTime

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod compute;
pub mod flows;
pub mod network;
pub mod osu;

pub use cache::{CacheModel, Residence};
pub use compute::{ComputeContext, ComputeEvents};
pub use flows::{Flow, FlowGroup, FlowSolver, RoundScratch};
pub use network::NetworkModel;

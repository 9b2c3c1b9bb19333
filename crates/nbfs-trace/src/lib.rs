//! Structured run-event observability for the `numa-bfs` workspace.
//!
//! The paper's argument is carried by per-phase breakdowns — Fig. 11's
//! TD-comp / BU-comp / BU-comm / stall split and Figs. 12–14's
//! communication proportions. This crate makes that instrument a
//! first-class subsystem instead of a bench-only artifact:
//!
//! * [`TraceReport`] — the serializable output: per-level spans with their
//!   collective cost samples and per-rank counters, switch decisions and
//!   faults; a search's [`RunProfile`] is computed from its levels
//!   ([`TraceReport::run_profile`]),
//! * [`Tracer`] — the recording facade the level driver threads through a
//!   search. It appends the report's own records to the report it will
//!   return, so every level a search commits is in the report; under
//!   [`TraceConfig::Off`] it keeps the levels only, and every other record
//!   call is a `None` check and nothing else,
//! * [`RunProfile`] / [`LevelProfile`] / [`Phase`] / [`CommCost`] /
//!   [`Direction`] — the breakdown vocabulary, moved here from the three
//!   ad-hoc profiling structs this crate replaces.

#![forbid(unsafe_code)]
// Library code propagates errors; a panic that encodes an invariant says
// why at its site with #[expect(clippy::expect_used, reason = ..)].
#![deny(clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod direction;
pub mod event;
pub mod phase;
pub mod profile;
pub mod report;
pub mod tracer;

pub use config::TraceConfig;
pub use cost::CommCost;
pub use direction::Direction;
pub use event::{CollectiveKind, CollectiveStats, FaultKind, FaultOp, FaultRecord};
pub use phase::Phase;
pub use profile::{LevelProfile, RunProfile};
pub use report::{
    CollectiveRecord, DecisionRecord, LevelReport, RankLevelRecord, RunMeta, TraceReport,
    MIN_SCHEMA_VERSION, SCHEMA_VERSION,
};
pub use tracer::Tracer;

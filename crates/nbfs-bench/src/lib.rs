//! Regenerators for every table and figure of the paper's evaluation, plus
//! the host timer the repo benchmark (`perfbench/`) reads.
//!
//! Each `fig*` function in [`figures`] runs the corresponding experiment on
//! the simulated cluster and returns a [`report::FigureReport`] whose rows
//! mirror the series the paper plots. The `figures` binary
//! (`cargo run -p nbfs-bench --bin figures --release -- all`) prints them;
//! `EXPERIMENTS.md` records a paper-vs-measured comparison for each.

#![forbid(unsafe_code)]
// u64 offsets and counters are indexed into slices throughout; usize is
// 64 bits on every supported target (documented in DESIGN.md), so these
// casts cannot truncate. Narrowing *vertex ids* to u32/u16 is the risky
// direction, and that is gated by the nbfs-analysis NBFS005 rule instead.
#![allow(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod scenarios;
pub mod wallclock;

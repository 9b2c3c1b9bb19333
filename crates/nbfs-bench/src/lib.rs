//! Regenerators for every table and figure of the paper's evaluation, plus
//! the host timer the repo benchmark (`perfbench/`) reads.
//!
//! Each `fig*` function in [`figures`] runs the corresponding experiment on
//! the simulated cluster and returns a [`report::FigureReport`] whose rows
//! mirror the series the paper plots. The `figures` binary
//! (`cargo run -p nbfs-bench --bin figures --release -- all`) prints them;
//! `EXPERIMENTS.md` records a paper-vs-measured comparison for each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod scenarios;
pub mod wallclock;

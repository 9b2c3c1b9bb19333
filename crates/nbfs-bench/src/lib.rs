//! Regenerators for every table and figure of the paper's evaluation, plus
//! the host timer the repo benchmark (`perfbench/`) reads.
//!
//! Each `fig*` function in [`figures`] runs the corresponding experiment on
//! the simulated cluster and returns a [`report::FigureReport`] whose rows
//! mirror the series the paper plots. Figs. 3, 9, 10, 12, 13, 14 and 16
//! also return typed [`report::Claim`] rows — the paper's value, ours, and
//! the band `tests/paper_claims.rs` asserts — built from the values their
//! cells show. The `figures` binary
//! (`cargo run -p nbfs-bench --bin figures --release -- all`) prints them;
//! `EXPERIMENTS.md` quotes every claim row in its paper-vs-measured table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod scenarios;
pub mod wallclock;

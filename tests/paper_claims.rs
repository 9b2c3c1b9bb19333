//! Shape-level checks of the paper's headline claims, read from the figure
//! regenerators' own claim rows. Absolute numbers differ (our substrate is
//! a model), but the *directions and rough factors* the paper reports must
//! hold. Each figure states its bands next to the paper's values
//! (`nbfs_bench::figures`); each test here runs one figure and asserts
//! every banded row.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use nbfs_bench::figures::{comm, granularity, overview, single_node};
use nbfs_bench::report::FigureReport;
use nbfs_bench::scenarios::BenchConfig;

/// Base scale 12 with 3 roots: one node at scale 12, 8 nodes at scale 15
/// and 16 nodes at scale 16, in the regimes of paper scales 28, 31 and 32.
fn config() -> BenchConfig {
    BenchConfig {
        base_scale: 12,
        roots: 3,
        ..BenchConfig::default()
    }
}

/// Asserts `report` has `expected` banded claims and that each holds.
fn assert_bands(report: &FigureReport, expected: usize) {
    let banded: Vec<_> = report.claims.iter().filter(|c| c.band.is_some()).collect();
    assert_eq!(banded.len(), expected, "{} banded claims", report.id);
    for c in banded {
        assert_eq!(
            c.verdict(),
            Some(true),
            "{} {}: measured {:.3}, band {:?}, paper {:?}",
            report.id,
            c.quantity,
            c.ours,
            c.band,
            c.paper
        );
    }
}

/// Section II.D / Fig. 3: "simply spawning and binding one MPI process for
/// each socket can achieve the best performance".
#[test]
fn one_process_per_socket_beats_one_per_node() {
    assert_bands(&single_node::fig3(&config()), 1);
}

/// Fig. 10: the Original code is fastest with bind-to-socket, and noflag
/// loses to interleave.
#[test]
fn placement_ranking_matches_fig10() {
    assert_bands(&single_node::fig10(&config()), 3);
}

/// Fig. 9 end to end: "With all the optimizations together, the speedup is
/// up to 2.44X relative to Original.ppn=1 and 1.60X relative to
/// Original.ppn=8."
#[test]
fn full_ladder_speedup_in_band() {
    assert_bands(&overview::fig9(&config()), 2);
}

/// Fig. 12: "spawning one process per socket results in 2.34 times of
/// execution time in each bottom-up communication phase, compared to one
/// process per node" (8 nodes).
#[test]
fn ppn8_communication_costs_more_per_phase() {
    assert_bands(&comm::fig12(&config()), 1);
}

/// Fig. 13: the communication optimizations reduce the bottom-up
/// communication phase time "4.07X for eight nodes", each rung cutting it.
#[test]
fn communication_ladder_reduces_phase_time_several_fold() {
    assert_bands(&comm::fig13(&config()), 4);
}

/// Fig. 14: the proportion of time in bottom-up communication drops from
/// ~54% to ~18% on eight nodes.
#[test]
fn communication_share_of_total_drops() {
    assert_bands(&comm::fig14(&config()), 3);
}

/// Fig. 16 / Section III.C: the analytic granularity tuner, fed the peak
/// bottom-up frontier, picks a granularity with the sweep's best TEPS.
#[test]
fn auto_granularity_picks_the_measured_best() {
    assert_bands(&granularity::fig16(&config()), 1);
}

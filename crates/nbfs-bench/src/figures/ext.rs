//! Extension studies beyond the paper's evaluation.
//!
//! `ext2d` measures the Section V claim that the paper's optimizations
//! compose with 2-D partitioning \[11\]: "they are orthogonal — our
//! implementation could be applied to 2-D partition algorithm to further
//! reduce its communication overhead". Both columns come from engines
//! that really run: the figure is a projection of one
//! [`DistributedBfs::run_traced`] and one [`TwoDimBfs::run_traced`]
//! report of the same scenario and root.

use nbfs_core::direction::Direction;
use nbfs_core::engine::{DistributedBfs, Scenario};
use nbfs_core::engine2d::TwoDimBfs;
use nbfs_core::opt::OptLevel;
use nbfs_trace::{CollectiveKind, LevelReport, TraceConfig};
use nbfs_util::SimTime;

use crate::report::FigureReport;
use crate::scenarios::{best_root, graph, BenchConfig};

/// Summed cost of the level's collectives of the given kinds.
fn collective_time(level: &LevelReport, kinds: &[CollectiveKind]) -> SimTime {
    level
        .collectives
        .iter()
        .filter(|c| kinds.contains(&c.kind))
        .map(|c| c.cost.total())
        .sum()
}

/// ext2d — per-level 1-D vs 2-D bottom-up communication on 8 nodes.
pub fn ext2d(cfg: &BenchConfig) -> FigureReport {
    let nodes = 8;
    let scale = cfg.weak_scale(nodes);
    let g = graph(scale);
    let scenario = Scenario::builder(cfg.machine(nodes), OptLevel::ParAllgather)
        .trace(TraceConfig::Standard)
        .build()
        .expect("bench machines validate");
    let root = best_root(g);
    let (run_1d, trace_1d) = DistributedBfs::new(g, &scenario).run_traced(root);
    let engine_2d = TwoDimBfs::new(g, &scenario);
    let (run_2d, trace_2d) = engine_2d.run_traced(root);

    let mut r = FigureReport::new(
        "ext2d",
        "1-D vs 2-D partitioning: bottom-up communication per level",
        "Section V / Buluc & Madduri [11]: 2-D partitioning reduced BFS \
         communication ~3.5x; the paper calls the approaches orthogonal",
        &[
            "BU level",
            "discovered",
            "1-D comm",
            "2-D expand",
            "2-D fold + row update",
            "2-D total",
        ],
    );
    // Both engines feed the same (m_f, m_u, n_f) into the same policy, so
    // they run bottom-up on the same levels.
    let is_bu = |l: &&LevelReport| l.direction == Direction::BottomUp;
    let levels_1d: Vec<&LevelReport> = trace_1d.levels.iter().filter(is_bu).collect();
    let levels_2d: Vec<&LevelReport> = trace_2d.levels.iter().filter(is_bu).collect();
    assert!(
        levels_1d
            .iter()
            .map(|l| l.level)
            .eq(levels_2d.iter().map(|l| l.level)),
        "1-D and 2-D engines disagree on the bottom-up levels"
    );
    for (l1, l2) in levels_1d.iter().zip(&levels_2d) {
        r.push_row(vec![
            l1.level.to_string(),
            l1.discovered.to_string(),
            format!("{}", l1.comm),
            format!("{}", collective_time(l2, &[CollectiveKind::Expand2d])),
            format!(
                "{}",
                collective_time(
                    l2,
                    &[CollectiveKind::Alltoallv, CollectiveKind::AllgatherWords]
                )
            ),
            format!("{}", l2.comm),
        ]);
    }
    // The per-level rows are the runs' committed values: they add up to
    // the profiles' bottom-up communication to the bit.
    let total_1d: SimTime = levels_1d.iter().map(|l| l.comm).sum();
    let total_2d: SimTime = levels_2d.iter().map(|l| l.comm).sum();
    assert_eq!(total_1d, run_1d.profile.bu_comm, "1-D rows vs profile");
    assert_eq!(total_2d, run_2d.profile.bu_comm, "2-D rows vs profile");
    let (rows, cols) = engine_2d.grid();
    r.note(format!(
        "grid {rows}x{cols} (rows = nodes, cols = ranks/node); measured totals: \
         1-D {total_1d}, 2-D {total_2d} — 2-D/1-D = {:.2}x (paper [11]: 2-D ~3.5x cheaper)",
        total_2d / total_1d
    ));
    r.note(format!(
        "graph scale {scale} on {nodes} nodes, Par-allgather scenario, one root, \
         both engines executing; 2-D total includes the level's allreduce"
    ));
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn ext2d_reports_measured_ratio() {
        let r = ext2d(&BenchConfig::tiny());
        assert!(!r.rows.is_empty());
        assert!(r.notes[0].contains("2-D/1-D"));
    }
}

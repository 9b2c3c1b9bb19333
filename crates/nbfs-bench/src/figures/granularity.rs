//! Fig. 16 — performance across `in_queue_summary` granularities.

use nbfs_core::engine::{BfsRun, Scenario};
use nbfs_core::opt::OptLevel;
use nbfs_core::tuning::auto_granularity;
use nbfs_graph::NO_PARENT;
use nbfs_simnet::Residence;
use nbfs_trace::Direction;
use nbfs_util::units::format_bytes;
use nbfs_util::{Bitmap, SummaryBitmap};

use crate::figures::teps_cell;
use crate::report::FigureReport;
use crate::report::Unit::{Change, Ratio};
use crate::scenarios::{best_root, graph, run_scenario, BenchConfig};

/// The granularities the paper sweeps (64 is the Graph500 reference).
pub const GRANULARITIES: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// The frontier of the bottom-up level that discovers the most vertices:
/// the vertices at that level's depth in the search's own BFS tree (level
/// `i` expands depth `i`). Just the root when no level ran bottom-up.
fn peak_bottom_up_frontier(run: &BfsRun, root: usize) -> Bitmap {
    let level = run
        .profile
        .levels
        .iter()
        .enumerate()
        .filter(|(_, l)| l.direction == Direction::BottomUp)
        .max_by_key(|(_, l)| l.discovered)
        .map_or(0, |(i, _)| i);
    let depth = |mut v: usize| {
        let mut d = 0;
        while v != root {
            v = run.parent[v] as usize;
            d += 1;
        }
        d
    };
    let mut frontier = Bitmap::new(run.parent.len());
    for v in 0..run.parent.len() {
        if run.parent[v] != NO_PARENT && depth(v) == level {
            frontier.set(v);
        }
    }
    frontier
}

/// Fig. 16 — TEPS for each summary-bitmap granularity on 16 nodes, with
/// each summary's zero fraction on the peak bottom-up frontier.
pub fn fig16(cfg: &BenchConfig) -> FigureReport {
    let nodes = 16;
    let scale = cfg.weak_scale(nodes);
    let g = graph(scale);
    let machine = cfg.machine(nodes);

    let mut r = FigureReport::new(
        "fig16",
        "Performance of different granularities for in_queue_summary",
        "Fig. 16: granularity 256 peaks, 10.2% above the reference 64; very \
         coarse granularities lose because the summary's zero fraction drops",
        &["granularity", "summary size", "zero frac", "TEPS", "vs 64"],
    );
    let runs = GRANULARITIES.map(|gran| {
        run_scenario(
            g,
            &Scenario::new(machine.clone(), OptLevel::Granularity(gran)),
        )
    });
    let teps = runs.each_ref().map(|(_, teps)| *teps);
    let frontier = peak_bottom_up_frontier(&runs[0].0, best_root(g));
    for (gran, t) in GRANULARITIES.into_iter().zip(teps) {
        let summary = SummaryBitmap::build(&frontier, gran);
        r.push_row(vec![
            gran.to_string(),
            format_bytes(summary.size_bytes() as u64),
            format!("{:.1}%", 100.0 * summary.zero_fraction()),
            teps_cell(t),
            format!("{:+.1}%", 100.0 * (t / teps[0] - 1.0)),
        ]);
    }

    let at = |gran: usize| {
        let row = GRANULARITIES.iter().position(|&x| x == gran);
        teps[row.expect("claims name swept granularities")]
    };
    r.claim(
        "g=256 over g=64",
        Some(0.102),
        at(256) / teps[0] - 1.0,
        Change,
        None,
    );
    r.claim(
        "g=4096 over g=64",
        None,
        at(4096) / teps[0] - 1.0,
        Change,
        None,
    );
    // The analytic tuner earns its place only if, on the frontier the
    // zero-fraction column measures, it picks a row with the best TEPS.
    // Where that column reads 0.0% on every row, only the tuner's
    // cache-probe term decides, so this row does not test its
    // zero-fraction term.
    let pick = auto_granularity(
        &machine,
        &frontier,
        Residence::NodeShared,
        Residence::NodeShared,
    );
    let best = teps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    r.claim(
        format!("TEPS at auto_granularity's pick (g={pick}) over the best"),
        None,
        at(pick) / best,
        Ratio,
        Some((1.0, 1.0)),
    );
    r.note(format!(
        "graph scale {scale} on {nodes} nodes; caches scaled to the paper's \
         scale-32 regime so the summary-size-to-cache ratios match; zero frac \
         is measured on the frontier of the bottom-up level that discovers \
         the most vertices"
    ));
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn fig16_sweeps_all_granularities() {
        let r = fig16(&BenchConfig::tiny());
        assert_eq!(r.rows.len(), GRANULARITIES.len());
        assert_eq!(r.rows[0][4], "+0.0%", "reference row is the baseline");
    }

    #[test]
    fn peak_frontier_is_the_level_the_profile_names() {
        let cfg = BenchConfig::tiny();
        let g = graph(cfg.weak_scale(16));
        let root = best_root(g);
        let scenario = Scenario::new(cfg.machine(16), OptLevel::Granularity(64));
        let (run, _) = run_scenario(g, &scenario);
        let frontier = peak_bottom_up_frontier(&run, root);
        // The frontier of level i is what level i - 1 discovered.
        let (i, _) = run
            .profile
            .levels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.direction == Direction::BottomUp)
            .max_by_key(|(_, l)| l.discovered)
            .unwrap();
        assert!(i > 0);
        assert_eq!(
            frontier.count_ones() as u64,
            run.profile.levels[i - 1].discovered
        );
    }
}

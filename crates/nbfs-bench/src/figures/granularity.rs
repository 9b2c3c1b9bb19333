//! Fig. 16 — performance across `in_queue_summary` granularities.

use nbfs_core::engine::Scenario;
use nbfs_core::opt::OptLevel;
use nbfs_util::units::format_bytes;
use nbfs_util::SummaryBitmap;

use crate::figures::teps_cell;
use crate::report::FigureReport;
use crate::scenarios::{graph, run_scenario, BenchConfig};

/// The granularities the paper sweeps (64 is the Graph500 reference).
pub const GRANULARITIES: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// Fig. 16 — TEPS for each summary-bitmap granularity on 16 nodes.
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
        &["granularity", "summary size", "TEPS", "vs 64"],
    );
    let mut base = None;
    for gran in GRANULARITIES {
        let scenario = Scenario::new(machine.clone(), OptLevel::Granularity(gran));
        let (_, teps) = run_scenario(g, &scenario);
        let b = *base.get_or_insert(teps);
        let summary_bytes = SummaryBitmap::new(g.num_vertices(), gran).size_bytes();
        r.push_row(vec![
            gran.to_string(),
            format_bytes(summary_bytes as u64),
            teps_cell(teps),
            format!("{:+.1}%", 100.0 * (teps / b - 1.0)),
        ]);
    }
    r.note(format!(
        "graph scale {scale} on {nodes} nodes; caches scaled to the paper's \
         scale-32 regime so the summary-size-to-cache ratios match"
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
        assert_eq!(r.rows[0][3], "+0.0%", "reference row is the baseline");
    }
}

//! Fig. 15 — weak scalability of the implementations from 1 to 16 nodes,
//! including the degraded sixteenth node.

use nbfs_core::engine::Scenario;
use nbfs_core::opt::OptLevel;

use crate::figures::teps_cell;
use crate::report::FigureReport;
use crate::scenarios::{graph, run_scenario, BenchConfig};

const IMPLS: [OptLevel; 4] = [
    OptLevel::OriginalPpn8,
    OptLevel::ShareAll,
    OptLevel::ParAllgather,
    OptLevel::Granularity(256),
];

/// Fig. 15 — TEPS under weak scaling for each implementation.
pub fn fig15(cfg: &BenchConfig) -> FigureReport {
    let mut r = FigureReport::new(
        "fig15",
        "Weak scalability from 1 to 16 nodes (ppn=8.bind-to-socket)",
        "Fig. 15: the communication optimizations scale much better than \
         Original.ppn=8; the 8->16-node step is degraded by one weak node",
        &[
            "nodes",
            "scale",
            "Original.ppn=8",
            "Share all",
            "Par allgather",
            "Granularity(256)",
        ],
    );
    for nodes in [1usize, 2, 4, 8, 16] {
        let scale = cfg.weak_scale(nodes);
        let g = graph(scale);
        // The paper's sixteenth node had weak InfiniBand "due to unknown
        // reason" (Section IV.A); reproduce it at the 16-node point.
        let machine = if nodes == 16 {
            cfg.machine(nodes).with_weak_node(15, 0.45)
        } else {
            cfg.machine(nodes)
        };
        let mut row = vec![nodes.to_string(), scale.to_string()];
        for &opt in &IMPLS {
            let scenario = Scenario::new(machine.clone(), opt);
            let (_, teps) = run_scenario(g, &scenario);
            row.push(teps_cell(teps));
        }
        r.push_row(row);
    }
    r.note("weak node (45% network) enabled only at 16 nodes, as in the paper's testbed");
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn fig15_covers_five_node_counts() {
        let r = fig15(&BenchConfig::tiny());
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.rows[4][0], "16");
    }
}

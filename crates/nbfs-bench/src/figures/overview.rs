//! Fig. 9 (the optimization-ladder overview) and the Section II.A
//! hybrid-vs-pure-algorithm comparison.

use nbfs_core::direction::SwitchPolicy;
use nbfs_core::engine::{DistributedBfs, Scenario};
use nbfs_core::harness::{Graph500Harness, HarnessConfig};
use nbfs_core::opt::OptLevel;
use nbfs_core::seq;

use crate::figures::{ratio_cell, teps_cell};
use crate::report::FigureReport;
use crate::report::Unit::{Change, Ratio};
use crate::scenarios::{best_root, graph, run_scenario, BenchConfig};

/// Fig. 9 — harmonic-mean TEPS for every rung of the optimization ladder on
/// the 16-node cluster.
pub fn fig9(cfg: &BenchConfig) -> FigureReport {
    let nodes = 16;
    let scale = cfg.weak_scale(nodes);
    let g = graph(scale);
    let machine = cfg.machine(nodes);

    let mut r = FigureReport::new(
        "fig9",
        "Overview of all optimizations (16 nodes)",
        "Fig. 9: Original.ppn=8 = 1.53x of ppn=1; all optimizations together \
         2.44x of ppn=1 (1.60x of ppn=8); Share in_queue +34.1%, Share all \
         +6.5%, Par allgather +4.6%, Granularity +14.8%",
        &[
            "implementation",
            "TEPS (harmonic mean)",
            "vs Original.ppn=1",
            "vs previous",
        ],
    );
    let teps = OptLevel::LADDER.map(|opt| {
        let engine = DistributedBfs::new(g, &Scenario::new(machine.clone(), opt));
        let config = HarnessConfig {
            roots: cfg.roots,
            seed: 2012,
            validate: false,
        };
        Graph500Harness::new(g, &engine)
            .run(&config)
            .expect("a fault-free campaign over sampled roots succeeds")
            .harmonic_teps()
    });
    for (i, (opt, &t)) in OptLevel::LADDER.iter().zip(&teps).enumerate() {
        let prev = teps[i.saturating_sub(1)];
        r.push_row(vec![
            opt.label(),
            teps_cell(t),
            ratio_cell(t / teps[0]),
            format!("{:+.1}%", 100.0 * (t / prev - 1.0)),
        ]);
    }

    let [ppn1, ppn8, share_in, share_all, par, best] = teps;
    r.claim(
        "Original.ppn=8 over ppn=1",
        Some(1.53),
        ppn8 / ppn1,
        Ratio,
        None,
    );
    for (rung, paper, gain) in [
        ("Share in_queue", 0.341, share_in / ppn8),
        ("Share all", 0.065, share_all / share_in),
        ("Par allgather", 0.046, par / share_all),
        ("Granularity", 0.148, best / par),
    ] {
        r.claim(
            format!("{rung} over the previous rung"),
            Some(paper),
            gain - 1.0,
            Change,
            None,
        );
    }
    r.claim(
        "all optimizations over Original.ppn=1",
        Some(2.44),
        best / ppn1,
        Ratio,
        Some((1.5, 4.5)),
    );
    // Our ring model charges the 128-rank Original allgather slightly
    // dearer at small payloads, hence the wider band.
    r.claim(
        "all optimizations over Original.ppn=8",
        Some(1.60),
        best / ppn8,
        Ratio,
        Some((1.1, 3.6)),
    );
    r.note(format!(
        "graph scale {scale} on {nodes} nodes (paper: scale 32), {} roots",
        cfg.roots
    ));
    r
}

/// Section II.A — the hybrid algorithm vs pure top-down and pure bottom-up
/// on a 64-core node, plus the edges-examined explanation.
pub fn hybrid_vs_pure(cfg: &BenchConfig) -> FigureReport {
    let g = graph(cfg.base_scale);
    let machine = nbfs_topology::presets::xeon_x7550_node()
        .scaled_to_graph(cfg.base_scale, cfg.paper_base_scale);
    let root = best_root(g);

    // Work comparison from the sequential engines.
    let td_edges = seq::bfs_top_down(g, root).edges_examined();
    let bu_edges = seq::bfs_hybrid(g, root, SwitchPolicy::always_bottom_up()).edges_examined();
    let hy_edges = seq::bfs_hybrid(g, root, SwitchPolicy::default()).edges_examined();

    // End-to-end comparison on the simulated 64-core node.
    let teps_with = |policy: SwitchPolicy| {
        let s = Scenario::builder(machine.clone(), OptLevel::OriginalPpn8)
            .switch_policy(policy)
            .build()
            .expect("preset machines validate");
        run_scenario(g, &s).1
    };
    let hy = teps_with(SwitchPolicy::default());
    let td = teps_with(SwitchPolicy::always_top_down());
    let bu = teps_with(SwitchPolicy::always_bottom_up());

    let mut r = FigureReport::new(
        "hybrid",
        "Hybrid vs pure top-down vs pure bottom-up (64-core node)",
        "Section II.A: hybrid is 27.3x faster than top-down and 4.7x faster \
         than bottom-up on a 64-core platform",
        &["algorithm", "edges examined", "TEPS", "hybrid speedup"],
    );
    for (label, edges, teps) in [
        ("top-down", td_edges, td),
        ("bottom-up", bu_edges, bu),
        ("hybrid", hy_edges, hy),
    ] {
        r.push_row(vec![
            label.into(),
            edges.to_string(),
            teps_cell(teps),
            ratio_cell(hy / teps),
        ]);
    }
    r.note(format!(
        "hybrid examines {:.1}x fewer edges than top-down, {:.1}x fewer than bottom-up",
        td_edges as f64 / hy_edges as f64,
        bu_edges as f64 / hy_edges as f64,
    ));
    r.note(
        "the paper's 27.3x also includes pure-MPI overheads of the top-down \
         baseline (64 separate processes); our forced-top-down keeps the \
         hybrid's process layout, so the measured gap is smaller",
    );
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn fig9_ladder_is_mostly_monotone() {
        let r = fig9(&BenchConfig::tiny());
        assert_eq!(r.rows.len(), OptLevel::LADDER.len());
    }

    #[test]
    fn hybrid_wins_both_ways() {
        let r = hybrid_vs_pure(&BenchConfig::tiny());
        assert_eq!(r.rows.len(), 3);
        // hybrid row speedup is exactly 1x.
        assert_eq!(r.rows[2][3], "1.00x");
    }
}

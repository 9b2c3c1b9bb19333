//! Single-node studies: Fig. 3 (core scaling / NUMA effect), Fig. 10
//! (execution policies) and Fig. 11 (time breakdown).

use nbfs_core::engine::{DistributedBfs, Scenario};
use nbfs_core::opt::OptLevel;
use nbfs_topology::{presets, MachineConfig, PlacementPolicy};
use nbfs_trace::Phase;

use crate::figures::{ratio_cell, teps_cell};
use crate::report::{above, FigureReport, Unit::Ratio};
use crate::scenarios::{best_root, graph, run_scenario, BenchConfig};

/// The `Original` code under an explicit `mpirun`/`numactl` flag
/// combination (Figs. 10 and 11).
fn placed(machine: &MachineConfig, ppn: usize, policy: PlacementPolicy) -> Scenario {
    Scenario::builder(machine.clone(), OptLevel::OriginalPpn8)
        .placement(ppn, policy)
        .build()
        .expect("preset machines validate")
}

/// Fig. 3 — speedup on 1 core, 8 cores (one socket) and 64 cores (eight
/// sockets, interleaved vs bound).
pub fn fig3(cfg: &BenchConfig) -> FigureReport {
    let g = graph(cfg.base_scale);
    let scaled = |m: MachineConfig| m.scaled_to_graph(cfg.base_scale, cfg.paper_base_scale);
    let one_socket = |cores: usize| {
        scaled(
            presets::xeon_x7550_node()
                .with_sockets_per_node(1)
                .with_cores_per_socket(cores),
        )
    };

    let mut r = FigureReport::new(
        "fig3",
        "Speedup of BFS when running on 1, 8 and 64 cores",
        "Fig. 3: 8 cores = 6.98x of 1 core; 64 cores (NUMA effect) only \
         2.77x of 8 cores; with one-process-per-socket 6.31x of 8 cores",
        &["configuration", "TEPS", "vs 1 core", "vs 8 cores"],
    );

    let run = |machine, opt| run_scenario(g, &Scenario::new(machine, opt)).1;
    let t1 = run(one_socket(1), OptLevel::OriginalPpn1);
    let t8 = run(one_socket(8), OptLevel::OriginalPpn1);
    let t64_inter = run(scaled(presets::xeon_x7550_node()), OptLevel::OriginalPpn1);
    let t64_bind = run(scaled(presets::xeon_x7550_node()), OptLevel::OriginalPpn8);

    for (label, teps) in [
        ("1 core (1 socket)", t1),
        ("8 cores (1 socket, all local)", t8),
        ("64 cores (8 sockets, interleave)", t64_inter),
        ("64 cores (8 sockets, ppn=8 bind)", t64_bind),
    ] {
        r.push_row(vec![
            label.into(),
            teps_cell(teps),
            ratio_cell(teps / t1),
            ratio_cell(teps / t8),
        ]);
    }
    r.claim("8 cores over 1 core", Some(6.98), t8 / t1, Ratio, None);
    r.claim(
        "64 cores interleaved over 8 cores",
        Some(2.77),
        t64_inter / t8,
        Ratio,
        None,
    );
    r.claim(
        "64 cores bound (ppn=8) over 8 cores",
        Some(6.31),
        t64_bind / t8,
        Ratio,
        None,
    );
    // Section II.D: "simply spawning and binding one MPI process for each
    // socket can achieve the best performance" — 1.74x on one node
    // (Fig. 10). Our loaded-QPI model penalizes the interleaved baseline
    // harder than the real machine did at scale 28 (the same constants
    // reproduce the scale-32 Fig. 9 headline), so the band is wider
    // upward; see EXPERIMENTS.md.
    r.claim(
        "one node, ppn=8 bound over ppn=1 interleaved",
        Some(1.74),
        t64_bind / t64_inter,
        Ratio,
        Some((1.3, 4.5)),
    );
    r.note(format!(
        "graph scale {}, regime of paper scale {}",
        cfg.base_scale, cfg.paper_base_scale
    ));
    r
}

/// Fig. 10 — the `Original` code under every `mpirun`/`numactl` flag
/// combination on one node.
pub fn fig10(cfg: &BenchConfig) -> FigureReport {
    let g = graph(cfg.base_scale);
    let machine = presets::xeon_x7550_node().scaled_to_graph(cfg.base_scale, cfg.paper_base_scale);
    let mut r = FigureReport::new(
        "fig10",
        "Original implementation under various execution policies (1 node)",
        "Fig. 10: ppn=8.bind-to-socket best — 1.74x of ppn=1.interleave and \
         2.08x of ppn=8.noflag",
        &["configuration", "TEPS", "vs best"],
    );
    let mut rows: Vec<(String, f64)> = Vec::new();
    for ppn in [1usize, 2, 4, 8] {
        for policy in [PlacementPolicy::Noflag, PlacementPolicy::Interleave] {
            rows.push((
                format!("ppn={ppn}.{}", policy.label()),
                run_scenario(g, &placed(&machine, ppn, policy)).1,
            ));
        }
    }
    let s = placed(&machine, 8, PlacementPolicy::BindToSocket);
    rows.push(("ppn=8.bind-to-socket".into(), run_scenario(g, &s).1));

    let best = rows.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
    for (label, teps) in &rows {
        r.push_row(vec![
            label.clone(),
            teps_cell(*teps),
            ratio_cell(teps / best),
        ]);
    }
    let find = |l: &str| {
        rows.iter()
            .find(|(x, _)| x == l)
            .expect("every ladder label was just computed")
            .1
    };
    let bind = find("ppn=8.bind-to-socket");
    // The band is wider upward for the interleave penalty (see fig3).
    r.claim(
        "ppn=8.bind-to-socket over ppn=1.interleave",
        Some(1.74),
        bind / find("ppn=1.interleave"),
        Ratio,
        Some((1.3, 4.5)),
    );
    r.claim(
        "ppn=8.bind-to-socket over ppn=8.noflag",
        Some(2.08),
        bind / find("ppn=8.noflag"),
        Ratio,
        Some((above(1.0), f64::INFINITY)),
    );
    r.claim(
        "ppn=1.interleave over ppn=1.noflag",
        None,
        find("ppn=1.interleave") / find("ppn=1.noflag"),
        Ratio,
        Some((above(1.0), f64::INFINITY)),
    );
    r
}

/// Fig. 11 — execution-time breakdown and computation-phase speedups for
/// `ppn=1.interleave` vs `ppn=8.bind-to-socket` on one node.
pub fn fig11(cfg: &BenchConfig) -> FigureReport {
    let g = graph(cfg.base_scale);
    let machine = presets::xeon_x7550_node().scaled_to_graph(cfg.base_scale, cfg.paper_base_scale);
    let root = best_root(g);

    let profile = |ppn, policy| {
        DistributedBfs::new(g, &placed(&machine, ppn, policy))
            .run(root)
            .profile
    };
    let inter = profile(1, PlacementPolicy::Interleave);
    let bind = profile(8, PlacementPolicy::BindToSocket);

    let mut r = FigureReport::new(
        "fig11",
        "Execution time breakdown: ppn=1.interleave vs ppn=8.bind-to-socket",
        "Fig. 11: binding speeds up both computation phases (bottom-up comp \
         1.58x); switch and stall stay small",
        &["phase", "ppn=1.interleave", "ppn=8.bind", "speedup"],
    );
    for phase in Phase::ALL {
        let a = inter.phase(phase);
        let b = bind.phase(phase);
        let speedup = if b.as_secs() > 0.0 { a / b } else { f64::NAN };
        r.push_row(vec![
            phase.label().into(),
            format!("{a}"),
            format!("{b}"),
            if speedup.is_finite() {
                ratio_cell(speedup)
            } else {
                "-".into()
            },
        ]);
    }
    r.push_row(vec![
        "total".into(),
        format!("{}", inter.total()),
        format!("{}", bind.total()),
        ratio_cell(inter.total() / bind.total()),
    ]);
    r.note(format!(
        "paper: bottom-up computation speedup 1.58x — measured {:.2}x",
        inter.bu_comp / bind.bu_comp
    ));
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape() {
        let r = fig3(&BenchConfig::tiny());
        assert_eq!(r.rows.len(), 4);
        // 8 cores beats 1 core.
        assert!(r.rows[1][2] > r.rows[0][2]);
    }

    #[test]
    fn fig10_has_nine_configurations() {
        let r = fig10(&BenchConfig::tiny());
        assert_eq!(r.rows.len(), 9);
    }

    #[test]
    fn fig11_covers_all_phases_plus_total() {
        let r = fig11(&BenchConfig::tiny());
        assert_eq!(r.rows.len(), Phase::ALL.len() + 1);
    }
}

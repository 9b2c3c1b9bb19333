//! The bottom-up level against its definition.
//!
//! Parents must equal the serial min-parent oracle
//! (`nbfs_core::seq::bfs_top_down`), and every bottom-up
//! level's per-rank counters must equal Beamer's summary-then-`in_queue`
//! scan with early exit (Section III.C; Buluç et al., arXiv:1705.04590):
//! rank `p` walks each of its unvisited vertices with at least one edge in
//! ascending neighbour order; every examined neighbour costs one summary
//! probe (and one scanned edge), a set summary bit also costs one
//! `in_queue` probe, and the walk stops at the first frontier neighbour,
//! which adopts the vertex. The counts are recomputed here from the `Csr`,
//! the `BlockPartition`, the scenario's summary granularity and BFS depths
//! — arithmetic the engine does not share. Covered: scales 14–18, the
//! whole optimization ladder plus a coarse `Granularity(4096)` rung, and
//! 1/3/7-thread rayon pools.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use nbfs_core::direction::Direction;
use nbfs_core::engine::{BfsRun, DistributedBfs, Scenario};
use nbfs_core::multi::LaneAnswer;
use nbfs_core::opt::OptLevel;
use nbfs_core::seq::bfs_top_down;
use nbfs_graph::{Csr, GraphBuilder};
use nbfs_topology::presets;
use nbfs_trace::TraceConfig;
use nbfs_util::BlockPartition;

fn rmat(scale: u32) -> Csr {
    GraphBuilder::rmat(scale, 16)
        .seed(0xD1FF ^ u64::from(scale))
        .build()
}

fn best_root(g: &Csr) -> usize {
    (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty")
}

/// BFS depth of every vertex from `root` (plain queue BFS; `usize::MAX`
/// for unreachable vertices). Depths do not depend on which parent a
/// search elects.
fn depths(g: &Csr, root: usize) -> Vec<usize> {
    let mut depth = vec![usize::MAX; g.num_vertices()];
    depth[root] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbours(u) {
            if depth[v as usize] == usize::MAX {
                depth[v as usize] = depth[u] + 1;
                queue.push_back(v as usize);
            }
        }
    }
    depth
}

/// One rank's bottom-up counters for one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    edges_scanned: u64,
    summary_probes: u64,
    inqueue_probes: u64,
    discovered: u64,
}

/// The definition: the per-rank counters of the bottom-up level whose
/// frontier is the depth-`level` vertices, at summary granularity
/// `granularity`.
fn bottom_up_counts(
    g: &Csr,
    partition: &BlockPartition,
    granularity: usize,
    depth: &[usize],
    level: usize,
) -> Vec<Counts> {
    let n = g.num_vertices();
    let in_queue: Vec<bool> = depth.iter().map(|&d| d == level).collect();
    let mut summary = vec![false; n.div_ceil(granularity)];
    for v in (0..n).filter(|&v| in_queue[v]) {
        summary[v / granularity] = true;
    }
    let mut counts = vec![Counts::default(); partition.parts()];
    for v in 0..n {
        // Visited: the frontier and everything above it.
        if depth[v] <= level {
            continue;
        }
        let c = &mut counts[partition.owner(v)];
        for &u in g.neighbours(v) {
            let u = u as usize;
            c.edges_scanned += 1;
            c.summary_probes += 1;
            if !summary[u / granularity] {
                continue;
            }
            c.inqueue_probes += 1;
            if in_queue[u] {
                c.discovered += 1;
                break;
            }
        }
    }
    counts
}

/// Runs the scenario traced and checks parents against the oracle and the
/// bottom-up counters against the definition. Returns the run.
fn assert_matches_oracle(g: &Csr, scenario: &Scenario, root: usize, label: &str) -> BfsRun {
    let mut traced = scenario.clone();
    traced.trace = TraceConfig::Standard;
    let (run, report) = DistributedBfs::new(g, &traced).run_traced(root);

    let oracle = LaneAnswer::from_run(root, bfs_top_down(g, root));
    assert_eq!(run.parent, oracle.parent, "{label}: parents differ");
    assert_eq!(run.visited as u64, oracle.visited, "{label}: visited");

    let np = traced.process_map().world_size();
    let partition = BlockPartition::new(g.num_vertices(), np);
    let granularity = traced.effective_granularity();
    let depth = depths(g, root);
    let mut bottom_up_levels = 0;
    for lv in &report.levels {
        if lv.direction != Direction::BottomUp {
            continue;
        }
        bottom_up_levels += 1;
        let want = bottom_up_counts(g, &partition, granularity, &depth, lv.level);
        let next: u64 = depth.iter().filter(|&&d| d == lv.level + 1).count() as u64;
        assert_eq!(
            want.iter().map(|c| c.discovered).sum::<u64>(),
            next,
            "{label}: level {}: the definition must adopt the next depth",
            lv.level
        );
        assert_eq!(lv.ranks.len(), np, "{label}: level {}", lv.level);
        for r in &lv.ranks {
            let at = format!("{label}: level {} rank {}", lv.level, r.rank);
            let w = want[r.rank];
            assert_eq!(r.edges_scanned, w.edges_scanned, "{at}: edges_scanned");
            assert_eq!(r.summary_probes, w.summary_probes, "{at}: summary_probes");
            assert_eq!(r.inqueue_probes, w.inqueue_probes, "{at}: inqueue_probes");
            assert_eq!(r.discovered, w.discovered, "{at}: discovered");
            assert_eq!(r.write_bytes, 12 * w.discovered, "{at}: write_bytes");
        }
    }
    assert!(bottom_up_levels > 0, "{label}: no bottom-up level to check");
    run
}

#[test]
fn bottom_up_matches_definition_across_scales() {
    for scale in 14..=18u32 {
        let g = rmat(scale);
        let machine = presets::xeon_x7550_node().scaled_to_graph(scale, 28);
        let scenario = Scenario::new(machine, OptLevel::OriginalPpn8);
        assert_matches_oracle(&g, &scenario, best_root(&g), &format!("scale {scale}"));
    }
}

#[test]
fn bottom_up_matches_definition_across_opt_ladder() {
    // Every rung changes the summary granularity, residences or process
    // map — the counters must track all of them. A 4096-vertex summary
    // region is set far more often than its vertex is in the frontier, so
    // most summary hits fall through to `in_queue`.
    let g = rmat(14);
    let machine = presets::xeon_x7550_cluster(2).scaled_to_graph(14, 28);
    for opt in OptLevel::LADDER {
        let scenario = Scenario::new(machine.clone(), opt);
        assert_matches_oracle(&g, &scenario, best_root(&g), &opt.label());
    }
    let coarse = Scenario::new(machine, OptLevel::Granularity(4096));
    assert_matches_oracle(&g, &coarse, best_root(&g), "granularity 4096");
}

#[test]
fn bottom_up_is_thread_count_independent() {
    // Chunk boundaries are a pure function of the partition, so neither
    // the tree nor a counter may depend on how many rayon workers the
    // pool offers.
    let g = rmat(15);
    let machine = presets::xeon_x7550_node().scaled_to_graph(15, 28);
    let scenario = Scenario::new(machine, OptLevel::OriginalPpn8);
    let root = best_root(&g);
    let baseline = DistributedBfs::new(&g, &scenario).run(root);
    for threads in [1usize, 3, 7] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let run = pool
            .install(|| assert_matches_oracle(&g, &scenario, root, &format!("threads={threads}")));
        assert_eq!(
            baseline.profile.total(),
            run.profile.total(),
            "threads={threads}"
        );
    }
}

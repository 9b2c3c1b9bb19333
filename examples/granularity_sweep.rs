//! The Fig. 16 experiment: sweep the `in_queue_summary` granularity and
//! watch the cache-locality / zero-fraction trade-off of Section III.C.
//!
//! ```text
//! cargo run --release --example granularity_sweep [scale]
//! ```

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::core::engine::{DistributedBfs, Scenario};
use numa_bfs::core::opt::OptLevel;
use numa_bfs::graph::{vid, GraphBuilder};
use numa_bfs::topology::presets;
use numa_bfs::util::stats::format_teps;
use numa_bfs::util::units::format_bytes;
use numa_bfs::util::{Bitmap, SummaryBitmap};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(16);

    println!("== summary-bitmap granularity sweep (Fig. 16) ==");
    let graph = GraphBuilder::rmat(scale, 16).seed(32).build();
    // Fig. 16 runs scale 32 on 16 nodes; scale the caches by the same
    // factor so the summary-size-to-cache regime matches.
    let machine = presets::xeon_x7550_cluster(16).scaled_to_graph(scale, 32);
    let root = (0..graph.num_vertices())
        .max_by_key(|&v| graph.degree(v))
        .expect("non-empty graph");
    let traversed = graph.component_edges(root) as f64;

    // Show the structural trade-off on a mid-search frontier first.
    let mid_frontier = {
        let run = numa_bfs::core::seq::bfs_hybrid(
            &graph,
            root,
            numa_bfs::core::direction::SwitchPolicy::default(),
        );
        // Rebuild the frontier bitmap of the biggest bottom-up level.
        let mut bm = Bitmap::new(graph.num_vertices());
        let biggest = run
            .levels
            .iter()
            .enumerate()
            .max_by_key(|(_, l)| l.discovered)
            .map(|(i, _)| i)
            .unwrap_or(0);
        // Re-run levels to capture that frontier.
        let mut parent = vec![u32::MAX; graph.num_vertices()];
        parent[root] = vid::to_stored(root);
        let mut frontier = vec![vid::to_stored(root)];
        for _ in 0..biggest {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in graph.neighbours(u as usize) {
                    if parent[v as usize] == u32::MAX {
                        parent[v as usize] = u;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        for &v in &frontier {
            bm.set(v as usize);
        }
        bm
    };

    println!("\nstructural trade-off on the peak frontier:");
    println!(
        "{:<14} {:>12} {:>12}",
        "granularity", "summary size", "zero frac"
    );
    for g in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let s = SummaryBitmap::build(&mid_frontier, g);
        println!(
            "{:<14} {:>12} {:>11.1}%",
            g,
            format_bytes(s.size_bytes() as u64),
            100.0 * s.zero_fraction()
        );
    }

    println!("\nend-to-end sweep (paper peaks at 256, +10.2% over 64):");
    println!("{:<14} {:>14} {:>10}", "granularity", "TEPS", "vs g=64");
    let mut baseline = None;
    for g in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let scenario = Scenario::builder(machine.clone(), OptLevel::Granularity(g))
            .build()
            .expect("preset machine is valid");
        let t = DistributedBfs::new(&graph, &scenario)
            .run(root)
            .profile
            .total();
        let teps = traversed / t.as_secs();
        let base = *baseline.get_or_insert(teps);
        println!(
            "{:<14} {:>14} {:>9.1}%",
            g,
            format_teps(teps),
            100.0 * (teps / base - 1.0)
        );
    }
}

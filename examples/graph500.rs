//! A Graph500-style benchmark run: the full measurement procedure of the
//! paper's Section IV.A — generate, partition, run N random roots, validate
//! every tree, report harmonic-mean TEPS.
//!
//! ```text
//! cargo run --release --example graph500 [-- --scale 16 --nodes 16 --roots 16 --opt best]
//! ```
//!
//! `--opt` is one of: `ppn1`, `ppn8`, `share-in-queue`, `share-all`,
//! `par-allgather`, `best` (granularity 256).

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
// An example times its own run; only library code is held to the
// simulated clock.
#![allow(
    clippy::disallowed_methods,
    reason = "examples read the host clock to report their own run time"
)]
use numa_bfs::prelude::*;
use numa_bfs::topology::presets;
use numa_bfs::util::stats::format_teps;

struct Args {
    scale: u32,
    nodes: usize,
    roots: usize,
    opt: OptLevel,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 16,
        nodes: 16,
        roots: 16,
        opt: OptLevel::Granularity(256),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let next = |i: usize| -> &str {
            argv.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("missing value after {}", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--scale" => {
                args.scale = next(i).parse().expect("bad --scale");
                i += 2;
            }
            "--nodes" => {
                args.nodes = next(i).parse().expect("bad --nodes");
                i += 2;
            }
            "--roots" => {
                args.roots = next(i).parse().expect("bad --roots");
                i += 2;
            }
            "--opt" => {
                args.opt = match next(i) {
                    "ppn1" => OptLevel::OriginalPpn1,
                    "ppn8" => OptLevel::OriginalPpn8,
                    "share-in-queue" => OptLevel::ShareInQueue,
                    "share-all" => OptLevel::ShareAll,
                    "par-allgather" => OptLevel::ParAllgather,
                    "best" => OptLevel::Granularity(256),
                    other => {
                        eprintln!("unknown --opt {other}");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    println!("== Graph500-style run ==");
    println!(
        "SCALE {} | edgefactor 16 | {} nodes | {} | {} roots",
        args.scale,
        args.nodes,
        args.opt.label(),
        args.roots
    );

    let t0 = std::time::Instant::now();
    let graph = GraphBuilder::rmat(args.scale, 16).seed(1).build();
    println!(
        "kernel 1 (construction): {:.2}s wall — {} vertices, {} edges",
        t0.elapsed().as_secs_f64(),
        graph.num_vertices(),
        graph.num_edges()
    );

    let machine = presets::xeon_x7550_cluster(args.nodes).scaled_to_graph(args.scale, 28);
    let scenario = Scenario::builder(machine, args.opt)
        .build()
        .expect("preset machine is valid");
    let harness = Graph500Harness::new(&graph, &scenario);

    let t1 = std::time::Instant::now();
    let config = HarnessConfig::builder()
        .roots(args.roots)
        .seed(2012)
        .validate(true)
        .build();
    let result = harness.run(&config);
    println!(
        "kernel 2 (BFS x{} + validation): {:.2}s wall",
        args.roots,
        t1.elapsed().as_secs_f64()
    );

    println!("\nper-root results:");
    for r in result.per_root.iter().take(8) {
        println!(
            "  root {:>8}: {:>12} traversed, {} -> {}",
            r.root,
            r.traversed_edges,
            r.time,
            format_teps(r.teps)
        );
    }
    if result.per_root.len() > 8 {
        println!("  ... ({} more)", result.per_root.len() - 8);
    }

    println!(
        "\nharmonic-mean TEPS: {}",
        format_teps(result.harmonic_teps())
    );
    println!(
        "mean / min / max:   {} / {} / {}",
        format_teps(result.teps.mean),
        format_teps(result.teps.min),
        format_teps(result.teps.max)
    );
    println!(
        "bottom-up communication share of total time: {:.1}%",
        100.0 * result.mean_profile.bu_comm_fraction()
    );
}

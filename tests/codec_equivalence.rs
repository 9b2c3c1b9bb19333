//! The codec conformance matrix: the compressing wire codec, on every
//! collective path that carries frontier payloads, must leave the BFS
//! *answer* untouched. Compression may only change what crosses the
//! simulated wire — parents, visited sets and discovery schedules are
//! bit-identical to the `Raw` baseline.
//!
//! This is the acceptance gate for the compression layer (Lv et al.,
//! arXiv:1208.5542). Cells cover the opt ladder (allgather variants over
//! words and sparse lists) and the 2-D engine, at scales 14–18.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::comm::codec::Codec;
use numa_bfs::core::engine::{BfsRun, DistributedBfs, Scenario};
use numa_bfs::core::engine2d::TwoDimBfs;
use numa_bfs::core::opt::OptLevel;
use numa_bfs::graph::{Csr, GraphBuilder};
use numa_bfs::topology::presets;
use numa_bfs::trace::TraceConfig;

const NODES: usize = 16;

fn graph(scale: u32) -> Csr {
    GraphBuilder::rmat(scale, 16).seed(3).build()
}

fn root_of(g: &Csr) -> usize {
    (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap()
}

fn scenario(scale: u32, opt: OptLevel, codec: Codec) -> Scenario {
    let machine = presets::xeon_x7550_cluster(NODES).scaled_to_graph(scale, 28);
    Scenario::builder(machine, opt)
        .trace(TraceConfig::Standard)
        .codec(codec)
        .build()
        .unwrap()
}

fn assert_identical(cell: &str, base: &BfsRun, run: &BfsRun) {
    assert_eq!(base.parent, run.parent, "{cell}: parents diverged");
    assert_eq!(base.visited, run.visited, "{cell}: visited diverged");
    assert_eq!(
        base.profile.levels.len(),
        run.profile.levels.len(),
        "{cell}: level count diverged"
    );
    for (i, (b, r)) in base
        .profile
        .levels
        .iter()
        .zip(&run.profile.levels)
        .enumerate()
    {
        assert_eq!(
            b.discovered, r.discovered,
            "{cell}: level {i} discovery schedule diverged"
        );
        assert_eq!(b.direction, r.direction, "{cell}: level {i} direction");
    }
}

/// One differential cell: run Raw and DeltaVarint on the same scenario
/// and demand a bit-identical answer. Returns the (raw wire, codec wire)
/// totals so callers can additionally pin compression where expected.
fn wire_bytes_cell(scale: u32, opt: OptLevel) -> (u64, u64) {
    let g = graph(scale);
    let root = root_of(&g);
    let cell = format!("scale {scale} {}", opt.label());
    let (base, base_report) =
        DistributedBfs::new(&g, &scenario(scale, opt, Codec::Raw)).run_traced(root);
    let (run, report) =
        DistributedBfs::new(&g, &scenario(scale, opt, Codec::DeltaVarint)).run_traced(root);
    assert_identical(&cell, &base, &run);
    let wire = |r: &numa_bfs::trace::TraceReport| -> u64 {
        r.levels
            .iter()
            .flat_map(|l| l.collectives.iter())
            .chain(r.post_collectives.iter())
            .map(|c| c.stats.wire_bytes)
            .sum()
    };
    (wire(&base_report), wire(&report))
}

/// The dense-words path: the full opt ladder exchanges bitmap words (and
/// the bottom-up summary) through the allgather variants. The codec must
/// reproduce Raw's answer on each rung.
#[test]
fn codecs_preserve_answers_across_the_opt_ladder() {
    for opt in OptLevel::LADDER {
        wire_bytes_cell(14, opt);
    }
}

/// The 2-D engine: expand along columns, fold along rows, with the fold
/// exchange re-encoded by the codec.
#[test]
fn codecs_preserve_answers_in_the_2d_engine() {
    let g = graph(14);
    let root = root_of(&g);
    let run =
        |codec: Codec| TwoDimBfs::new(&g, &scenario(14, OptLevel::OriginalPpn8, codec)).run(root);
    assert_identical("2d", &run(Codec::Raw), &run(Codec::DeltaVarint));
}

/// The headline differential at depth: scales 14–18 under the paper's
/// tuned configuration, delta-varint against Raw.
#[test]
fn delta_varint_holds_at_scale() {
    for scale in [14, 16, 18] {
        let (raw, wire) = wire_bytes_cell(scale, OptLevel::Granularity(256));
        assert!(
            wire < raw,
            "scale {scale}: wire {wire} must undercut raw {raw}"
        );
    }
}

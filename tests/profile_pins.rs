//! Bit-level pins of what the two distributed engines report: one 64-bit
//! fingerprint per cell over every `f64::to_bits` of the `RunProfile`
//! (phase totals, `bu_comm_detail`, and per level: direction,
//! `discovered`, comp / comm / stall) plus the parent array.
//!
//! The simulated clock repeats bit for bit, so a refactor of the level
//! loop that reorders one float addition, drops one collective's cost or
//! changes one parent trips a cell here — and the cell's label says which
//! engine, rung, grid, codec and storage it was. Regenerate on purpose
//! (a deliberate model change) with:
//!
//! ```text
//! NBFS_UPDATE_GOLDEN=1 cargo test --test profile_pins -- --nocapture
//! ```
//!
//! and paste the printed tables over the constants below.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::comm::codec::Codec;
use numa_bfs::comm::{FaultPlan, FaultScope, FaultSpec};
use numa_bfs::core::engine::{BfsRun, DistributedBfs, NoClock, Scenario};
use numa_bfs::core::engine2d::TwoDimBfs;
use numa_bfs::core::opt::OptLevel;
use numa_bfs::graph::{CompressedCsr, Csr, Edge, EdgeList, GraphBuilder};
use numa_bfs::topology::{presets, MachineConfig};
use numa_bfs::trace::{Direction, FaultKind, FaultRecord, Phase, TraceConfig};
use numa_bfs::util::rng::Xoroshiro128;

/// Every grid shape that tiles the 8 ranks of the test cluster.
const GRIDS: [(usize, usize); 4] = [(1, 8), (2, 4), (4, 2), (8, 1)];

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(run: &BfsRun) -> u64 {
    profile_fingerprint(run, Fingerprint::new())
}

/// The profile fingerprint continued over every fault record: a
/// renumbered edge tag, a reordered edge or a changed round count (the
/// retransmit penalty divides by it) moves the cell.
fn faulted_fingerprint(run: &BfsRun, faults: &[FaultRecord]) -> u64 {
    let mut f = Fingerprint::new();
    f.word(faults.len() as u64);
    for record in faults {
        f.word(record.level as u64);
        for byte in record.kind.label().bytes().chain(record.op.label().bytes()) {
            f.word(u64::from(byte));
        }
        f.word(record.src as u64);
        f.word(record.dst as u64);
        f.word(record.tag);
        f.word(u64::from(record.attempts));
        f.word(u64::from(record.recovered));
        f.word(record.penalty.as_secs().to_bits());
    }
    profile_fingerprint(run, f)
}

fn profile_fingerprint(run: &BfsRun, mut f: Fingerprint) -> u64 {
    let p = &run.profile;
    for phase in Phase::ALL {
        f.word(p.phase(phase).as_secs().to_bits());
    }
    f.word(p.bu_comm_detail.intra_gather.as_secs().to_bits());
    f.word(p.bu_comm_detail.inter.as_secs().to_bits());
    f.word(p.bu_comm_detail.intra_bcast.as_secs().to_bits());
    f.word(p.bu_comm_phases as u64);
    f.word(p.levels.len() as u64);
    for level in &p.levels {
        f.word(u64::from(level.direction == Direction::BottomUp));
        f.word(level.discovered);
        f.word(level.comp.as_secs().to_bits());
        f.word(level.comm.as_secs().to_bits());
        f.word(level.stall.as_secs().to_bits());
    }
    f.word(run.visited as u64);
    for &parent in &run.parent {
        f.word(u64::from(parent));
    }
    f.0
}

/// Two nodes x four sockets = 8 ranks with a real inter-node wire.
fn scenario(scale: u32, opt: OptLevel, codec: Codec) -> Scenario {
    let machine = MachineConfig::small_test_cluster(2, 4).scaled_to_graph(scale, 28);
    Scenario::builder(machine, opt)
        .codec(codec)
        .build()
        .unwrap()
}

/// Three nodes x four sockets = 12 ranks under a seeded plan that drops
/// 30% and duplicates 20% of first attempts: every drop recovers.
fn faulted_scenario(opt: OptLevel) -> Scenario {
    let machine = MachineConfig::small_test_cluster(3, 4).scaled_to_graph(12, 28);
    let plan = FaultPlan::new(2012)
        .spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()).rate(0.3))
        .spec(FaultSpec::new(FaultKind::Duplicate, FaultScope::any()).rate(0.2));
    Scenario::builder(machine, opt)
        .trace(TraceConfig::Standard)
        .faults(plan)
        .build()
        .unwrap()
}

/// The benchmark's cluster map: sixteen 8-socket nodes, 128 ranks, at the
/// `Granularity(256)` rung (the Fig. 7 parallel allgather), scaled to a
/// graph of `2^scale` vertices.
fn cluster_scenario(scale: u32, codec: Codec) -> Scenario {
    cluster_scenario_on(presets::xeon_x7550_cluster(16), scale, codec)
}

/// [`cluster_scenario`] on `machine` (a sixteen-node cluster, perhaps with
/// a weak node).
fn cluster_scenario_on(machine: MachineConfig, scale: u32, codec: Codec) -> Scenario {
    let machine = machine.scaled_to_graph(scale, 28);
    Scenario::builder(machine, OptLevel::Granularity(256))
        .codec(codec)
        .build()
        .unwrap()
}

fn rmat14() -> Csr {
    GraphBuilder::rmat(14, 16).seed(23).build()
}

fn hub(g: &Csr) -> usize {
    (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap()
}

/// The 1024x64 torus with ids relabelled by a seeded shuffle: 545 levels
/// of ~250 vertices from any root, every one of them top-down.
fn torus() -> Csr {
    let (width, height) = (1024usize, 64usize);
    let mut label: Vec<usize> = (0..width * height).collect();
    Xoroshiro128::new(0x7015).shuffle(&mut label);
    let mut edges = Vec::with_capacity(2 * label.len());
    for y in 0..height {
        for x in 0..width {
            let here = label[y * width + x];
            edges.push(Edge::new(here, label[y * width + (x + 1) % width]));
            edges.push(Edge::new(here, label[(y + 1) % height * width + x]));
        }
    }
    Csr::from_edge_list(&EdgeList::new(label.len(), edges))
}

/// Compares the computed cells with the committed table, or prints the
/// table to paste when `NBFS_UPDATE_GOLDEN` is set.
fn check(table: &str, cells: &[(String, u64)], pinned: &[(&str, u64)]) {
    if std::env::var_os("NBFS_UPDATE_GOLDEN").is_some() {
        println!("const {table}: &[(&str, u64)] = &[");
        for (label, got) in cells {
            println!("    (\"{label}\", 0x{got:016x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(cells.len(), pinned.len(), "{table}: cell count");
    for ((label, got), (pinned_label, want)) in cells.iter().zip(pinned) {
        assert_eq!(label, pinned_label, "{table}: cell order");
        assert_eq!(
            got, want,
            "{table}: {label} is 0x{got:016x}, pinned 0x{want:016x}"
        );
    }
}

const ONE_DIM_RMAT: &[(&str, u64)] = &[
    ("1d Original.ppn=1 raw", 0xb85eacd9d570651b),
    ("1d Original.ppn=1 delta-varint", 0x8338eb8b64777047),
    ("1d Original.ppn=8 raw", 0x2526ac56cb1fdd9f),
    ("1d Original.ppn=8 delta-varint", 0x0da622b5978bd506),
    ("1d Share in_queue raw", 0xf434b7c1ca317730),
    ("1d Share in_queue delta-varint", 0x9aeb8c27a51de366),
    ("1d Share all raw", 0xaa8196fd5ddd2f46),
    ("1d Share all delta-varint", 0x5dc85a80f8aa718f),
    ("1d Par allgather raw", 0x3a32c577446b0d7e),
    ("1d Par allgather delta-varint", 0x3a0287d79e3b2498),
    ("1d Granularity(256) raw", 0x78ac3519a5528d7c),
    ("1d Granularity(256) delta-varint", 0x399f899beae15588),
];

const TWO_DIM_RMAT: &[(&str, u64)] = &[
    ("2d 1x8 raw csr", 0x73bea948ca2333f8),
    ("2d 1x8 raw compressed", 0x73bea948ca2333f8),
    ("2d 1x8 delta-varint csr", 0x5cf8bcf8eb409ea1),
    ("2d 1x8 delta-varint compressed", 0x5cf8bcf8eb409ea1),
    ("2d 2x4 raw csr", 0xde478ee456a54455),
    ("2d 2x4 raw compressed", 0xde478ee456a54455),
    ("2d 2x4 delta-varint csr", 0xd0b93531c115da89),
    ("2d 2x4 delta-varint compressed", 0xd0b93531c115da89),
    ("2d 4x2 raw csr", 0xc9eb61febb095b59),
    ("2d 4x2 raw compressed", 0xc9eb61febb095b59),
    ("2d 4x2 delta-varint csr", 0x4935b0197c207641),
    ("2d 4x2 delta-varint compressed", 0x4935b0197c207641),
    ("2d 8x1 raw csr", 0xcd797c5cfaa2c2cf),
    ("2d 8x1 raw compressed", 0xcd797c5cfaa2c2cf),
    ("2d 8x1 delta-varint csr", 0x986da50f2bcda4ce),
    ("2d 8x1 delta-varint compressed", 0x986da50f2bcda4ce),
];

const FAULTED: &[(&str, u64)] = &[
    ("1d faulted Original.ppn=8", 0x44301e1da00c2cf7),
    ("1d faulted Share in_queue", 0x85de4f13270a7549),
    ("1d faulted Share all", 0x2225ab0c817f2f9e),
    ("1d faulted Par allgather", 0xe854efc003332400),
];

const TORUS: &[(&str, u64)] = &[
    ("1d torus", 0x1f905a8945f3aab4),
    ("2d 2x4 torus", 0x752a0247c554e9fa),
];

/// The only cells on more than three nodes: sixteen, where the parallel
/// allgather runs fifteen rounds of 128 flows and the 16x8 grid's column
/// expand fifteen ring rounds. The weak-node cell prices every round of
/// both.
const CLUSTER: &[(&str, u64)] = &[
    ("1d torus raw", 0xef1775dd394aad5a),
    ("1d rmat12 raw", 0x0c8c4041cb79240a),
    ("1d rmat12 delta-varint", 0xfe6c3eab10b7df7d),
    ("2d 16x8 rmat12 raw", 0x6002d874ca417ec0),
    ("2d 16x8 rmat12 delta-varint", 0xd4fd4d0ae55c7b59),
    ("2d 16x8 rmat12 raw weak node", 0xc5a24fdf44d1791e),
    ("2d 16x8 torus raw", 0x40d1a005683c4199),
];

#[test]
fn cluster_cells_are_pinned() {
    let torus = torus();
    let rmat = GraphBuilder::rmat(12, 16).seed(23).build();
    let root = hub(&rmat);
    let one_torus = DistributedBfs::new(&torus, &cluster_scenario(16, Codec::Raw)).run(0);
    assert_eq!(one_torus.profile.levels.len(), 545);
    let mut cells = vec![("1d torus raw".to_string(), fingerprint(&one_torus))];
    for codec in Codec::ALL {
        let run = DistributedBfs::new(&rmat, &cluster_scenario(12, codec)).run(root);
        cells.push((format!("1d rmat12 {}", codec.label()), fingerprint(&run)));
    }
    for codec in Codec::ALL {
        let s = cluster_scenario(12, codec);
        let two = TwoDimBfs::with_grid(&rmat, &s, 16, 8).run(root);
        cells.push((
            format!("2d 16x8 rmat12 {}", codec.label()),
            fingerprint(&two),
        ));
    }
    let weak = presets::xeon_x7550_cluster(16).with_weak_node(15, 0.45);
    let s = cluster_scenario_on(weak, 12, Codec::Raw);
    let two = TwoDimBfs::with_grid(&rmat, &s, 16, 8).run(root);
    cells.push((
        "2d 16x8 rmat12 raw weak node".to_string(),
        fingerprint(&two),
    ));
    let two_torus = TwoDimBfs::with_grid(&torus, &cluster_scenario(16, Codec::Raw), 16, 8).run(0);
    assert_eq!(two_torus.profile.levels.len(), 545);
    assert_eq!(two_torus.parent, one_torus.parent);
    cells.push(("2d 16x8 torus raw".to_string(), fingerprint(&two_torus)));
    check("CLUSTER", &cells, CLUSTER);
}

#[test]
fn one_dim_rmat_cells_are_pinned() {
    let g = rmat14();
    let root = hub(&g);
    let mut cells = Vec::new();
    for opt in OptLevel::LADDER {
        for codec in Codec::ALL {
            let run = DistributedBfs::new(&g, &scenario(14, opt, codec)).run(root);
            cells.push((
                format!("1d {} {}", opt.label(), codec.label()),
                fingerprint(&run),
            ));
        }
    }
    check("ONE_DIM_RMAT", &cells, ONE_DIM_RMAT);
}

#[test]
fn two_dim_rmat_cells_are_pinned() {
    let g = rmat14();
    let packed = CompressedCsr::from_csr(&g);
    let root = hub(&g);
    let mut cells = Vec::new();
    for (rows, cols) in GRIDS {
        for codec in Codec::ALL {
            let s = scenario(14, OptLevel::Granularity(256), codec);
            let dense = TwoDimBfs::with_grid(&g, &s, rows, cols).run(root);
            let label = format!("2d {rows}x{cols} {}", codec.label());
            cells.push((format!("{label} csr"), fingerprint(&dense)));
            let run = TwoDimBfs::with_grid(&packed, &s, rows, cols).run(root);
            cells.push((format!("{label} compressed"), fingerprint(&run)));
        }
    }
    check("TWO_DIM_RMAT", &cells, TWO_DIM_RMAT);
}

#[test]
fn deep_torus_cells_are_pinned() {
    let g = torus();
    let s = scenario(16, OptLevel::ShareAll, Codec::Raw);
    let one = DistributedBfs::new(&g, &s).run(0);
    let two = TwoDimBfs::with_grid(&g, &s, 2, 4).run(0);
    assert_eq!(one.profile.levels.len(), 545);
    assert_eq!(two.profile.levels.len(), 545);
    assert_eq!(one.parent, two.parent);
    let cells = [
        ("1d torus".to_string(), fingerprint(&one)),
        ("2d 2x4 torus".to_string(), fingerprint(&two)),
    ];
    check("TORUS", &cells, TORUS);
}

#[test]
fn faulted_one_dim_cells_are_pinned() {
    let g = GraphBuilder::rmat(12, 16).seed(23).build();
    let root = hub(&g);
    let mut cells = Vec::new();
    for opt in [
        OptLevel::OriginalPpn8,
        OptLevel::ShareInQueue,
        OptLevel::ShareAll,
        OptLevel::ParAllgather,
    ] {
        let search = DistributedBfs::new(&g, &faulted_scenario(opt))
            .search(root, &NoClock)
            .unwrap();
        let faults = &search.report.faults;
        assert!(!faults.is_empty(), "{}: the plan never fired", opt.label());
        cells.push((
            format!("1d faulted {}", opt.label()),
            faulted_fingerprint(&search.run, faults),
        ));
    }
    check("FAULTED", &cells, FAULTED);
}

//! Bit-level pins of every collective walk: one 64-bit fingerprint per
//! cell over the `CommCost` field bits, every `CollectiveStats` field and
//! the fault layer's edge list `(round, src, dst)`.
//!
//! A collective's price, its volume tally and its transfer schedule come
//! from one round structure, so a refactor of that structure that moves
//! one float addition, one zero-byte flow, one round count or one edge tag
//! trips a cell here — and the label says which algorithm, process map
//! and byte pattern it was. Regenerate on purpose (a deliberate model
//! change) with:
//!
//! ```text
//! NBFS_UPDATE_GOLDEN=1 cargo test -p nbfs-comm --test collective_pins -- --nocapture
//! ```
//!
//! and paste the printed table over the constant below.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use nbfs_comm::allgather::{allgather_sizes, AllgatherAlgorithm};
use nbfs_comm::collectives::allreduce_sum;
use nbfs_comm::fault::FaultEdge;
use nbfs_simnet::NetworkModel;
use nbfs_topology::{presets, PlacementPolicy, ProcessMap};
use nbfs_trace::{CollectiveStats, CommCost};

/// The allgather algorithms an `OptLevel` or a figure uses.
const ALGOS: [AllgatherAlgorithm; 5] = [
    AllgatherAlgorithm::Ring,
    AllgatherAlgorithm::LeaderBased,
    AllgatherAlgorithm::SharedDest,
    AllgatherAlgorithm::SharedBoth,
    AllgatherAlgorithm::ParallelSubgroup,
];

/// `(nodes, ppn, weak node)`: one node, the smallest wire, an odd node
/// count (the allreduce tree has missing partners), the paper's 16 nodes,
/// one rank per node, and four nodes of which one has 40 % of the NIC
/// bandwidth (Section IV.A's weak node: its flows bind on its own share).
const MAPS: [(usize, usize, Option<usize>); 6] = [
    (1, 8, None),
    (2, 8, None),
    (3, 8, None),
    (16, 8, None),
    (4, 1, None),
    (4, 8, Some(2)),
];

/// Bandwidth factor of the weak node in [`MAPS`].
const WEAK_FACTOR: f64 = 0.4;

/// Bytes every rank contributes in the `equal` pattern.
const SEGMENT: u64 = 8 * 512;

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

fn fingerprint(cost: &CommCost, stats: &CollectiveStats, edges: &[FaultEdge]) -> u64 {
    let mut f = Fingerprint::new();
    f.word(cost.intra_gather.as_secs().to_bits());
    f.word(cost.inter.as_secs().to_bits());
    f.word(cost.intra_bcast.as_secs().to_bits());
    f.word(stats.rounds);
    f.word(stats.flows);
    f.word(stats.wire_bytes);
    f.word(stats.shm_bytes);
    f.word(stats.raw_bytes);
    f.word(edges.len() as u64);
    for edge in edges {
        f.word(edge.round);
        f.word(edge.src as u64);
        f.word(edge.dst as u64);
    }
    f.0
}

/// Per-rank byte sizes of one pattern.
fn pattern(name: &str, np: usize) -> Vec<u64> {
    (0..np)
        .map(|r| match name {
            "equal" => SEGMENT,
            // The final partition block is usually shorter.
            "ragged" if r + 1 == np => 8 * 37,
            "ragged" => SEGMENT,
            // Zero-byte segments still cost a latency but carry no volume.
            "alternate" if r % 2 == 1 => 0,
            "alternate" => SEGMENT,
            // Sizes that differ inside a node (rank 14 sends nothing), so a
            // round's price depends on the largest of a node's segments.
            "skewed" => 8 * 29 * ((r as u64 * 37 + 11) % 23),
            _ => unreachable!("unknown pattern {name}"),
        })
        .collect()
}

const PATTERNS: [&str; 4] = ["equal", "ragged", "alternate", "skewed"];

fn setup(nodes: usize, ppn: usize, weak: Option<usize>) -> (ProcessMap, NetworkModel) {
    let mut m = presets::xeon_x7550_cluster(nodes);
    if let Some(node) = weak {
        m = m.with_weak_node(node, WEAK_FACTOR);
    }
    let policy = if ppn == m.sockets_per_node {
        PlacementPolicy::BindToSocket
    } else {
        PlacementPolicy::Interleave
    };
    (ProcessMap::new(&m, ppn, policy), NetworkModel::new(&m))
}

/// One allgather's price, tally and edge schedule. The walk that lists no
/// edges must price and tally exactly like the one that does, so a fast
/// path taken only without a sink is pinned too.
fn allgather(
    bytes: &[u64],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
) -> (CommCost, CollectiveStats, Vec<FaultEdge>) {
    let mut edges = Vec::new();
    let (cost, stats) = allgather_sizes(bytes, bytes, pmap, net, algo, Some(&mut edges));
    let (plain_cost, plain_stats) = allgather_sizes(bytes, bytes, pmap, net, algo, None);
    assert_eq!(
        fingerprint(&plain_cost, &plain_stats, &[]),
        fingerprint(&cost, &stats, &[]),
        "{algo:?}: the edge-free walk moved the price or the tally"
    );
    (cost, stats, edges)
}

/// One allreduce's reduced value, price, tally and edge schedule.
fn allreduce(
    values: &[u64],
    pmap: &ProcessMap,
    net: &NetworkModel,
) -> (u64, CommCost, CollectiveStats, Vec<FaultEdge>) {
    let mut edges = Vec::new();
    let out = allreduce_sum(values, pmap, net, Some(&mut edges));
    assert_eq!(allreduce_sum(values, pmap, net, None), out);
    (out.value, out.cost, out.stats, edges)
}

fn cells() -> Vec<(String, u64)> {
    let mut cells = Vec::new();
    for (nodes, ppn, weak) in MAPS {
        let (pmap, net) = setup(nodes, ppn, weak);
        let map = match weak {
            Some(node) => format!("{nodes}x{ppn} weak{node}"),
            None => format!("{nodes}x{ppn}"),
        };
        for name in PATTERNS {
            let bytes = pattern(name, pmap.world_size());
            for algo in ALGOS {
                let (cost, stats, edges) = allgather(&bytes, &pmap, &net, algo);
                cells.push((
                    format!("{algo:?} {map} {name}"),
                    fingerprint(&cost, &stats, &edges),
                ));
            }
            let (value, cost, stats, edges) = allreduce(&bytes, &pmap, &net);
            let mut f = Fingerprint(fingerprint(&cost, &stats, &edges));
            f.word(value);
            cells.push((format!("allreduce {map} {name}"), f.0));
        }
    }
    cells
}

/// The `allreduce 3x8` cells count the four leader transfers per call the
/// odd-node tree really makes (node 2 sits out round 0, node 1 round 1).
const PINS: &[(&str, u64)] = &[
    ("Ring 1x8 equal", 0x51c8f69a3be2162f),
    ("LeaderBased 1x8 equal", 0x47911e1e2ce20d81),
    ("SharedDest 1x8 equal", 0xee33259773ba65c4),
    ("SharedBoth 1x8 equal", 0x3ecb33e15783bec5),
    ("ParallelSubgroup 1x8 equal", 0x3ecb33e15783bec5),
    ("allreduce 1x8 equal", 0x77bb0d6d47904793),
    ("Ring 1x8 ragged", 0xe17203841a5a902f),
    ("LeaderBased 1x8 ragged", 0xaca32d2cf78737b3),
    ("SharedDest 1x8 ragged", 0x01b17c69340c3037),
    ("SharedBoth 1x8 ragged", 0x3ecb33e15783bec5),
    ("ParallelSubgroup 1x8 ragged", 0x3ecb33e15783bec5),
    ("allreduce 1x8 ragged", 0x77e188a773322fb0),
    ("Ring 1x8 alternate", 0x7cdc581bd523385d),
    ("LeaderBased 1x8 alternate", 0xe70db058917bbb83),
    ("SharedDest 1x8 alternate", 0x2f50dfe354becc84),
    ("SharedBoth 1x8 alternate", 0x3ecb33e15783bec5),
    ("ParallelSubgroup 1x8 alternate", 0x3ecb33e15783bec5),
    ("allreduce 1x8 alternate", 0x231c2ad8d29b90d3),
    ("Ring 1x8 skewed", 0xdffa3673ac00d3c3),
    ("LeaderBased 1x8 skewed", 0x4915706a87d94dc9),
    ("SharedDest 1x8 skewed", 0x15ccc4645c047f40),
    ("SharedBoth 1x8 skewed", 0x3ecb33e15783bec5),
    ("ParallelSubgroup 1x8 skewed", 0x3ecb33e15783bec5),
    ("allreduce 1x8 skewed", 0x6a1ff0f687db4d6b),
    ("Ring 2x8 equal", 0xdaf054d301682af4),
    ("LeaderBased 2x8 equal", 0x1e973af677a04ecd),
    ("SharedDest 2x8 equal", 0x757d2c047befaae3),
    ("SharedBoth 2x8 equal", 0x673f3304a73f19f0),
    ("ParallelSubgroup 2x8 equal", 0xb0ab98e72ffa55d3),
    ("allreduce 2x8 equal", 0x4645daa7090e3b37),
    ("Ring 2x8 ragged", 0xa2637e70df83e424),
    ("LeaderBased 2x8 ragged", 0x7e536f502fec76c7),
    ("SharedDest 2x8 ragged", 0xef7f8f09f1094b9c),
    ("SharedBoth 2x8 ragged", 0x331020e64bc0b040),
    ("ParallelSubgroup 2x8 ragged", 0x152ac82e181d7d23),
    ("allreduce 2x8 ragged", 0x574a02840f443bc1),
    ("Ring 2x8 alternate", 0x041250452e1f5d5a),
    ("LeaderBased 2x8 alternate", 0x6acad32ff5688d5f),
    ("SharedDest 2x8 alternate", 0xc2b1d77eb1140f40),
    ("SharedBoth 2x8 alternate", 0x22700d93966e4533),
    ("ParallelSubgroup 2x8 alternate", 0x8193fa649928a2b2),
    ("allreduce 2x8 alternate", 0x12ed3b9d0505e27e),
    ("Ring 2x8 skewed", 0xd66355660f281140),
    ("LeaderBased 2x8 skewed", 0x3502a82f91292e31),
    ("SharedDest 2x8 skewed", 0x7adadb0099069f42),
    ("SharedBoth 2x8 skewed", 0xdcf48af886dfd8f2),
    ("ParallelSubgroup 2x8 skewed", 0x229f5577ec380b89),
    ("allreduce 2x8 skewed", 0x5020732bd0fa7a36),
    ("Ring 3x8 equal", 0x8d1d95abf305d6d8),
    ("LeaderBased 3x8 equal", 0x6cd461ddd0dd1cb9),
    ("SharedDest 3x8 equal", 0xd1f84eb738ebef1a),
    ("SharedBoth 3x8 equal", 0xe551f564c03f0142),
    ("ParallelSubgroup 3x8 equal", 0x1b1da5a46adaa260),
    ("allreduce 3x8 equal", 0xf25bdfc1c5afbb9a),
    ("Ring 3x8 ragged", 0x65b789fb71418fee),
    ("LeaderBased 3x8 ragged", 0xa3474190bfcbf360),
    ("SharedDest 3x8 ragged", 0x4bc72d99ca13aee9),
    ("SharedBoth 3x8 ragged", 0xc766368cc2ff6052),
    ("ParallelSubgroup 3x8 ragged", 0x597e264c00526f68),
    ("allreduce 3x8 ragged", 0xa76872dc8af178a9),
    ("Ring 3x8 alternate", 0x0f2a8267011af0bd),
    ("LeaderBased 3x8 alternate", 0xae01286c1876e890),
    ("SharedDest 3x8 alternate", 0x8a75bbab6980e020),
    ("SharedBoth 3x8 alternate", 0x3baba019eb447f41),
    ("ParallelSubgroup 3x8 alternate", 0x0f7ce8c0d3a471d1),
    ("allreduce 3x8 alternate", 0x7a5361603eaccb13),
    ("Ring 3x8 skewed", 0xeacc6a9cfec03697),
    ("LeaderBased 3x8 skewed", 0x5c2c2b7356982584),
    ("SharedDest 3x8 skewed", 0x20ebb8d054c15004),
    ("SharedBoth 3x8 skewed", 0xd41444eb1f75c924),
    ("ParallelSubgroup 3x8 skewed", 0x6eedd890e69f3937),
    ("allreduce 3x8 skewed", 0xbd140aaf10a0b762),
    ("Ring 16x8 equal", 0x1ae5a2c98ac14c29),
    ("LeaderBased 16x8 equal", 0x8fffe00386c8a771),
    ("SharedDest 16x8 equal", 0xbe18dbd94fae4f0d),
    ("SharedBoth 16x8 equal", 0x38c786e4d5eab98d),
    ("ParallelSubgroup 16x8 equal", 0xb4c9411a0d4c7b69),
    ("allreduce 16x8 equal", 0x4006e24b9116b4a8),
    ("Ring 16x8 ragged", 0xf6c3470b9166c162),
    ("LeaderBased 16x8 ragged", 0x08f716ab8321eb93),
    ("SharedDest 16x8 ragged", 0xb53ef456097369f7),
    ("SharedBoth 16x8 ragged", 0x4a49fe9ef242fe8d),
    ("ParallelSubgroup 16x8 ragged", 0xf4140ffb5416e749),
    ("allreduce 16x8 ragged", 0x6d050880193e324c),
    ("Ring 16x8 alternate", 0x4abc9ebed701a8b0),
    ("LeaderBased 16x8 alternate", 0xa881fe7181a03cdd),
    ("SharedDest 16x8 alternate", 0xdcd2fe0cdfdf3668),
    ("SharedBoth 16x8 alternate", 0xafa5816f493fde1c),
    ("ParallelSubgroup 16x8 alternate", 0x3bce3d8b01ac4ccc),
    ("allreduce 16x8 alternate", 0xcdad517fd94f9bc4),
    ("Ring 16x8 skewed", 0xa4a5e36702b99845),
    ("LeaderBased 16x8 skewed", 0xf3225ca91f31a328),
    ("SharedDest 16x8 skewed", 0x817b0592e6adc7b7),
    ("SharedBoth 16x8 skewed", 0x5d71c9ce6a12a85b),
    ("ParallelSubgroup 16x8 skewed", 0x9e0f3087a22ea73f),
    ("allreduce 16x8 skewed", 0xb314b6588a00d842),
    ("Ring 4x1 equal", 0xf7eed8df86e595c6),
    ("LeaderBased 4x1 equal", 0xf7eed8df86e595c6),
    ("SharedDest 4x1 equal", 0xf7eed8df86e595c6),
    ("SharedBoth 4x1 equal", 0xf7eed8df86e595c6),
    ("ParallelSubgroup 4x1 equal", 0xf7eed8df86e595c6),
    ("allreduce 4x1 equal", 0x3d686095bb6cf198),
    ("Ring 4x1 ragged", 0x2bbcee09f47220e6),
    ("LeaderBased 4x1 ragged", 0x2bbcee09f47220e6),
    ("SharedDest 4x1 ragged", 0x2bbcee09f47220e6),
    ("SharedBoth 4x1 ragged", 0x2bbcee09f47220e6),
    ("ParallelSubgroup 4x1 ragged", 0x2bbcee09f47220e6),
    ("allreduce 4x1 ragged", 0xeac65b09bbf82e7b),
    ("Ring 4x1 alternate", 0x9829ed4d924c728c),
    ("LeaderBased 4x1 alternate", 0x9829ed4d924c728c),
    ("SharedDest 4x1 alternate", 0x9829ed4d924c728c),
    ("SharedBoth 4x1 alternate", 0x9829ed4d924c728c),
    ("ParallelSubgroup 4x1 alternate", 0x9829ed4d924c728c),
    ("allreduce 4x1 alternate", 0x9318ef4b80f29638),
    ("Ring 4x1 skewed", 0x6a3a8d37e33199ec),
    ("LeaderBased 4x1 skewed", 0x6a3a8d37e33199ec),
    ("SharedDest 4x1 skewed", 0x6a3a8d37e33199ec),
    ("SharedBoth 4x1 skewed", 0x6a3a8d37e33199ec),
    ("ParallelSubgroup 4x1 skewed", 0x6a3a8d37e33199ec),
    ("allreduce 4x1 skewed", 0xa06f6952f2421318),
    ("Ring 4x8 weak2 equal", 0xf8140baa6ec79f4a),
    ("LeaderBased 4x8 weak2 equal", 0xd6bf7492c57b5c68),
    ("SharedDest 4x8 weak2 equal", 0xdffdb6cbb5e972aa),
    ("SharedBoth 4x8 weak2 equal", 0xc2f5b44d65fe8244),
    ("ParallelSubgroup 4x8 weak2 equal", 0x1f03eabee2d0e204),
    ("allreduce 4x8 weak2 equal", 0x012bda78a233692a),
    ("Ring 4x8 weak2 ragged", 0xb752f7e0e7367eb5),
    ("LeaderBased 4x8 weak2 ragged", 0x2fa124d9254b14df),
    ("SharedDest 4x8 weak2 ragged", 0xfe146a407729704d),
    ("SharedBoth 4x8 weak2 ragged", 0x764a825d5ec7a0e4),
    ("ParallelSubgroup 4x8 weak2 ragged", 0x2b4fd6640b66fa64),
    ("allreduce 4x8 weak2 ragged", 0x0576037ca8221462),
    ("Ring 4x8 weak2 alternate", 0xb2f369f9d6bd92c2),
    ("LeaderBased 4x8 weak2 alternate", 0xed01c502b81e677e),
    ("SharedDest 4x8 weak2 alternate", 0x7baa2304596f461a),
    ("SharedBoth 4x8 weak2 alternate", 0x0b81a39f669237ad),
    ("ParallelSubgroup 4x8 weak2 alternate", 0xd39debf15e12683d),
    ("allreduce 4x8 weak2 alternate", 0x24957645b441a2f1),
    ("Ring 4x8 weak2 skewed", 0x0ab059511a8d6ffd),
    ("LeaderBased 4x8 weak2 skewed", 0xf5ac930629973ca8),
    ("SharedDest 4x8 weak2 skewed", 0x143b30479a5c64cc),
    ("SharedBoth 4x8 weak2 skewed", 0x91848b424c656c23),
    ("ParallelSubgroup 4x8 weak2 skewed", 0x81da30f20277de4c),
    ("allreduce 4x8 weak2 skewed", 0xa193a233f341e56e),
];

#[test]
fn collective_walks_are_pinned() {
    let cells = cells();
    if std::env::var_os("NBFS_UPDATE_GOLDEN").is_some() {
        println!(
            "/// The `allreduce 3x8` cells count the four leader transfers per call the
/// odd-node tree really makes (node 2 sits out round 0, node 1 round 1).
const PINS: &[(&str, u64)] = &["
        );
        for (label, got) in &cells {
            println!("    (\"{label}\", 0x{got:016x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(cells.len(), PINS.len(), "cell count");
    for ((label, got), (pinned_label, want)) in cells.iter().zip(PINS) {
        assert_eq!(label, pinned_label, "cell order");
        assert_eq!(got, want, "{label} is 0x{got:016x}, pinned 0x{want:016x}");
    }
}

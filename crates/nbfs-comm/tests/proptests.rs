//! Property-based tests for the collective algorithms.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use proptest::prelude::*;

use nbfs_comm::allgather::{
    allgather_cost_bytes, allgather_sizes, allgather_words_into, AllgatherAlgorithm,
};
use nbfs_comm::alltoallv::{alltoallv_pairs_codec_into, AlltoallvWorkspace};
use nbfs_comm::codec::{
    allgather_words_codec_into, allgatherv_u32_codec_into, Codec, CodecWorkspace,
};
use nbfs_comm::collectives::allreduce_sum;
use nbfs_comm::fault::{inject_collective, FaultEdge};
use nbfs_comm::{FaultPlan, FaultScope, FaultSpec};
use nbfs_simnet::{Flow, NetworkModel};
use nbfs_topology::{presets, PlacementPolicy, ProcessMap};
use nbfs_trace::{
    CollectiveKind, CollectiveStats, CommCost, FaultKind, FaultRecord, RunMeta, TraceReport,
};
use nbfs_util::SimTime;

fn setup(nodes: usize, ppn: usize) -> (ProcessMap, NetworkModel) {
    let m = presets::xeon_x7550_cluster(nodes);
    let policy = if ppn == m.sockets_per_node {
        PlacementPolicy::BindToSocket
    } else {
        PlacementPolicy::Interleave
    };
    (ProcessMap::new(&m, ppn, policy), NetworkModel::new(&m))
}

/// The parallel allgather walked the long way: every round lists its
/// explicit rank-to-rank flows (`ppn` a node pair, the segments of the
/// origin node `n - r` forwarded from `n` to `n + 1`), prices them with
/// `NetworkModel::round_time` and adds the round's time, its tally and
/// its edges.
fn parallel_by_round(
    bytes: &[u64],
    pmap: &ProcessMap,
    net: &NetworkModel,
) -> (CommCost, CollectiveStats, Vec<FaultEdge>) {
    let (nodes, ppn) = (pmap.nodes(), pmap.ppn());
    let mut cost = CommCost::ZERO;
    let mut stats = CollectiveStats::ZERO;
    let mut edges = Vec::new();
    for r in 0..nodes.saturating_sub(1) {
        let mut flows = Vec::new();
        for n in 0..nodes {
            let next = (n + 1) % nodes;
            let origin = pmap.leader_of_node((n + nodes - r) % nodes);
            let (src, dst) = (pmap.leader_of_node(n), pmap.leader_of_node(next));
            for j in 0..ppn {
                edges.push(FaultEdge {
                    round: r as u64,
                    src: src + j,
                    dst: dst + j,
                });
                let b = bytes[origin + j];
                flows.push(Flow::new(n, next, b));
                if b > 0 {
                    stats.flows += 1;
                    stats.wire_bytes += b;
                }
            }
        }
        stats.rounds += 1;
        cost.inter += net.round_time(&flows);
    }
    stats.raw_bytes = stats.wire_bytes;
    (cost, stats, edges)
}

const ALGOS: [AllgatherAlgorithm; 5] = [
    AllgatherAlgorithm::Ring,
    AllgatherAlgorithm::LeaderBased,
    AllgatherAlgorithm::SharedDest,
    AllgatherAlgorithm::SharedBoth,
    AllgatherAlgorithm::ParallelSubgroup,
];

proptest! {
    /// Every algorithm reassembles ragged random segments identically, and
    /// charges finite, non-negative time — across node/ppn shapes.
    #[test]
    fn allgather_functional_equivalence(
        nodes_exp in 0u32..3,
        ppn_sel in 0usize..2,
        lens in prop::collection::vec(0usize..20, 2..16),
        seed in any::<u64>(),
    ) {
        let nodes = 1usize << nodes_exp;
        let ppn = [1usize, 8][ppn_sel];
        let (pmap, net) = setup(nodes, ppn);
        let np = pmap.world_size();
        let mut state = seed | 1;
        let mut next = move || { state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1); state };
        let parts: Vec<Vec<u64>> = (0..np)
            .map(|i| (0..lens[i % lens.len()]).map(|_| next()).collect())
            .collect();
        let expect: Vec<u64> = parts.iter().flatten().copied().collect();
        let refs: Vec<&[u64]> = parts.iter().map(Vec::as_slice).collect();
        for algo in ALGOS {
            let mut words = vec![0; expect.len()];
            let cost = allgather_words_into(&mut words, &refs, &pmap, &net, algo);
            prop_assert_eq!(&words, &expect, "{:?} nodes={} ppn={}", algo, nodes, ppn);
            prop_assert!(cost.total().as_secs().is_finite());
        }
    }

    /// Cost grows (weakly) with payload for every algorithm.
    #[test]
    fn allgather_cost_monotone_in_bytes(per_rank in 1u64..(1 << 22)) {
        let (pmap, net) = setup(4, 8);
        let np = pmap.world_size();
        let small: Vec<u64> = vec![per_rank; np];
        let big: Vec<u64> = vec![per_rank * 2; np];
        for algo in ALGOS {
            let ts = allgather_cost_bytes(&small, &pmap, &net, algo).total();
            let tb = allgather_cost_bytes(&big, &pmap, &net, algo).total();
            prop_assert!(tb >= ts, "{algo:?}");
        }
    }

    /// allgatherv over items equals flat concatenation for any item lists.
    #[test]
    fn allgatherv_concatenates(
        lists in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..30), 8),
    ) {
        let (pmap, net) = setup(2, 4);
        prop_assume!(lists.len() == pmap.world_size());
        let mut ws = CodecWorkspace::default();
        let mut items = vec![7];
        allgatherv_u32_codec_into(
            &mut items, &lists, &pmap, &net, AllgatherAlgorithm::Ring, Codec::Raw, &mut ws, None,
        );
        let expect: Vec<u32> = lists.iter().flatten().copied().collect();
        prop_assert_eq!(items, expect);
    }

    /// alltoallv routes every record to exactly its addressee, in sender
    /// order, for arbitrary send matrices.
    #[test]
    fn alltoallv_routes_exactly(
        density in prop::collection::vec(0usize..5, 64),
    ) {
        let (pmap, net) = setup(2, 4);
        let np = pmap.world_size();
        let sends: Vec<Vec<Vec<(u32, u32)>>> = (0..np)
            .map(|i| {
                (0..np)
                    .map(|j| {
                        (0..density[(i * np + j) % density.len()])
                            .map(|k| (i as u32, (j * 100 + k) as u32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let rows: Vec<&[Vec<(u32, u32)>]> = sends.iter().map(Vec::as_slice).collect();
        let mut ws = AlltoallvWorkspace::default();
        let (cost, _) = alltoallv_pairs_codec_into(&mut ws, &rows, &pmap, &net, Codec::Raw);
        for (j, inbox) in ws.received.iter().enumerate() {
            let expect: Vec<(u32, u32)> = (0..np)
                .flat_map(|i| sends[i][j].iter().copied())
                .collect();
            prop_assert_eq!(inbox, &expect, "receiver {}", j);
        }
        let total_sent: usize = sends.iter().flatten().map(Vec::len).sum();
        let total_recv: usize = ws.received.iter().map(Vec::len).sum();
        prop_assert_eq!(total_sent, total_recv);
        prop_assert!(cost.total() >= SimTime::ZERO);
    }

    /// A row-local send matrix (each rank addresses only its group of `g`
    /// consecutive ranks, `g` dividing the world) is the dense matrix with
    /// every message outside the sender's group empty: the same inboxes,
    /// cost bits and tally as the padded dense call, under both codecs.
    #[test]
    fn row_local_sends_match_the_padded_dense_matrix(
        nodes in 1usize..9,
        ppn in 1usize..9,
        pick in 0usize..8,
        density in prop::collection::vec(0usize..5, 64),
    ) {
        let (pmap, net) = setup(nodes, ppn);
        let np = pmap.world_size();
        let divisors: Vec<usize> = (1..=np).filter(|g| np % g == 0).collect();
        let g = divisors[pick % divisors.len()];
        let local: Vec<Vec<Vec<(u32, u32)>>> = (0..np)
            .map(|i| {
                (0..g)
                    .map(|k| {
                        (0..density[(i * g + k) % density.len()])
                            .map(|r| ((k * 64 + r) as u32, i as u32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let dense: Vec<Vec<Vec<(u32, u32)>>> = (0..np)
            .map(|i| {
                (0..np)
                    .map(|j| if j / g == i / g { local[i][j % g].clone() } else { Vec::new() })
                    .collect()
            })
            .collect();
        let bits = |c: CommCost| {
            [c.intra_gather, c.inter, c.intra_bcast].map(|t| t.as_secs().to_bits())
        };
        for codec in Codec::ALL {
            let mut ws = AlltoallvWorkspace::default();
            let (cost, stats) = alltoallv_pairs_codec_into(&mut ws, &local, &pmap, &net, codec);
            let mut want_ws = AlltoallvWorkspace::default();
            let (want, want_stats) =
                alltoallv_pairs_codec_into(&mut want_ws, &dense, &pmap, &net, codec);
            prop_assert_eq!(&ws.received, &want_ws.received, "{:?} g={}", codec, g);
            prop_assert_eq!(bits(cost), bits(want), "{:?} g={}", codec, g);
            prop_assert_eq!(stats, want_stats, "{:?} g={}", codec, g);
        }
    }

    /// Fault fates are pure functions of (seed, site, attempt), so the
    /// same plan resolved twice against the same collective schedule gives
    /// the identical fault records, the identical penalty and the
    /// byte-identical `TraceReport` JSON built from them: for every
    /// allgather algorithm and the allreduce, on process maps of 1, 4 and
    /// 8 ranks. First-attempt-only recoverable kinds never fail.
    #[test]
    fn fault_logs_are_seed_deterministic_across_worlds(
        seed in any::<u64>(),
        rate_pct in 0u32..=100,
    ) {
        const LEVEL: usize = 3;
        let rate = f64::from(rate_pct) / 100.0;
        let plan = FaultPlan::new(seed)
            .spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()).rate(rate * 0.4))
            .spec(FaultSpec::new(FaultKind::Delay, FaultScope::any()).rate(rate * 0.3))
            .spec(FaultSpec::new(FaultKind::Duplicate, FaultScope::any()).rate(rate * 0.2))
            .spec(FaultSpec::new(FaultKind::Reorder, FaultScope::any()).rate(rate * 0.2));
        let report_json = |pmap: &ProcessMap, faults: Vec<FaultRecord>| {
            let meta = RunMeta {
                world: pmap.world_size(),
                nodes: pmap.nodes(),
                ppn: pmap.ppn(),
                opt_label: "fault-proptest".to_string(),
                root: 0,
            };
            let mut report = TraceReport::empty(meta);
            report.faults = faults;
            report.to_json().unwrap()
        };
        for (nodes, ppn) in [(1usize, 1usize), (4, 1), (2, 4)] {
            let (pmap, net) = setup(nodes, ppn);
            let world = pmap.world_size();
            let bytes = vec![40u64; world];
            let mut schedules: Vec<_> = ALGOS
                .iter()
                .map(|&algo| {
                    let mut edges = Vec::new();
                    let (cost, stats) =
                        allgather_sizes(&bytes, &bytes, &pmap, &net, algo, Some(&mut edges));
                    (CollectiveKind::AllgatherWords, edges, cost, stats)
                })
                .collect();
            let mut edges = Vec::new();
            let reduce = allreduce_sum(&vec![1; world], &pmap, &net, Some(&mut edges));
            schedules.push((CollectiveKind::Allreduce, edges, reduce.cost, reduce.stats));
            for (kind, edges, cost, stats) in &schedules {
                let a = inject_collective(&plan, LEVEL, *kind, edges, cost, stats);
                let b = inject_collective(&plan, LEVEL, *kind, edges, cost, stats);
                prop_assert!(a.failure.is_none(), "{:?} world {}", kind, world);
                prop_assert_eq!(&a.records, &b.records, "{:?} world {}", kind, world);
                prop_assert_eq!(a.penalty, b.penalty, "{:?} world {}", kind, world);
                prop_assert_eq!(
                    report_json(&pmap, a.records),
                    report_json(&pmap, b.records),
                    "{:?} world {}",
                    kind,
                    world
                );
            }
        }
    }

    /// Every codec round-trips arbitrary bitmap words exactly, and no
    /// encoding ever exceeds raw by more than the one-byte tag (the raw
    /// fallback guarantee). The selector vector deliberately mixes zero
    /// words, full words and random words so the empty, single-word and
    /// all-ones edge cases all appear in the samples.
    #[test]
    fn codec_words_round_trip(
        sel in prop::collection::vec(0u8..3, 0..80),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || { state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1); state };
        let words: Vec<u64> = sel
            .iter()
            .map(|s| match s { 0 => 0u64, 1 => u64::MAX, _ => next() })
            .collect();
        let mut buf = Vec::new();
        for c in Codec::ALL {
            let imp = c.implementation();
            imp.encode_words(&words, &mut buf);
            prop_assert!(buf.len() <= words.len() * 8 + 1, "{:?} exceeded raw+tag", c);
            let mut dst = vec![0xAAu64; words.len()];
            imp.decode_words(&buf, &mut dst);
            prop_assert_eq!(&dst, &words, "{:?}", c);
        }
    }

    /// Every codec round-trips arbitrary sorted vid sets (the sparse
    /// frontier payload) and arbitrary `(vid, parent)` record lists.
    #[test]
    fn codec_lists_and_pairs_round_trip(
        raw_vids in prop::collection::vec(any::<u32>(), 0..120),
        packed_pairs in prop::collection::vec(any::<u64>(), 0..120),
    ) {
        let pairs: Vec<(u32, u32)> = packed_pairs
            .iter()
            .map(|&p| ((p >> 32) as u32, p as u32))
            .collect();
        let mut vids = raw_vids;
        vids.sort_unstable();
        vids.dedup();
        let mut buf = Vec::new();
        let mut out_vids = Vec::new();
        let mut out_pairs = Vec::new();
        for c in Codec::ALL {
            let imp = c.implementation();
            imp.encode_sorted_u32(&vids, &mut buf);
            out_vids.clear(); // decode appends by contract
            imp.decode_sorted_u32(&buf, &mut out_vids);
            prop_assert_eq!(&out_vids, &vids, "{:?} vids", c);
            imp.encode_pairs(&pairs, &mut buf);
            out_pairs.clear();
            imp.decode_pairs(&buf, &mut out_pairs);
            prop_assert_eq!(&out_pairs, &pairs, "{:?} pairs", c);
        }
    }

    /// The codec-aware collectives reassemble exactly what the raw paths
    /// do, for arbitrary ragged payloads: compression must never change
    /// what any rank receives, only what the wire is charged.
    #[test]
    fn codec_collectives_match_raw_payloads(
        lens in prop::collection::vec(0usize..16, 8),
        density in prop::collection::vec(0usize..4, 64),
        seed in any::<u64>(),
    ) {
        let (pmap, net) = setup(2, 4);
        let np = pmap.world_size();
        prop_assume!(lens.len() == np);
        let mut state = seed | 1;
        let mut next = move || { state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1); state };
        let word_parts: Vec<Vec<u64>> = (0..np)
            .map(|i| (0..lens[i]).map(|_| next()).collect())
            .collect();
        let flat_words: Vec<u64> = word_parts.iter().flatten().copied().collect();
        let lists: Vec<Vec<u32>> = (0..np)
            .map(|i| {
                let mut l: Vec<u32> = (0..lens[i] * 3).map(|_| next() as u32).collect();
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        let flat_lists: Vec<u32> = lists.iter().flatten().copied().collect();
        let sends: Vec<Vec<Vec<(u32, u32)>>> = (0..np)
            .map(|i| {
                (0..np)
                    .map(|j| {
                        (0..density[(i * np + j) % density.len()])
                            .map(|k| ((j * 64 + k) as u32, i as u32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut ws = CodecWorkspace::default();
        let parts_ref: Vec<&[u64]> = word_parts.iter().map(Vec::as_slice).collect();
        let rows: Vec<&[Vec<(u32, u32)>]> = sends.iter().map(Vec::as_slice).collect();
        // The merged exchange under Raw is the reference for DeltaVarint:
        // equal inboxes, and the one tag byte per message caps the wire.
        let mut raw_a2a = AlltoallvWorkspace::default();
        let (_, raw_stats) =
            alltoallv_pairs_codec_into(&mut raw_a2a, &rows, &pmap, &net, Codec::Raw);
        let mut dv_a2a = AlltoallvWorkspace::default();
        let (_, dv_stats) =
            alltoallv_pairs_codec_into(&mut dv_a2a, &rows, &pmap, &net, Codec::DeltaVarint);
        prop_assert_eq!(&dv_a2a.received, &raw_a2a.received);
        prop_assert_eq!(dv_stats.raw_bytes, raw_stats.wire_bytes);
        let messages = sends.iter().flatten().filter(|m| !m.is_empty()).count() as u64;
        prop_assert!(dv_stats.wire_bytes <= raw_stats.wire_bytes + messages);
        for c in Codec::ALL {
            let mut dst = vec![0u64; flat_words.len()];
            allgather_words_codec_into(
                &mut dst, &parts_ref, &pmap, &net, AllgatherAlgorithm::Ring, c, &mut ws, None,
            );
            prop_assert_eq!(&dst, &flat_words, "{:?} words", c);
            let mut items = Vec::new();
            allgatherv_u32_codec_into(
                &mut items, &lists, &pmap, &net, AllgatherAlgorithm::Ring, c, &mut ws, None,
            );
            prop_assert_eq!(&items, &flat_lists, "{:?} lists", c);
        }
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(256))]

    /// The parallel allgather prices one round and repeats it when no
    /// node is weak, and prices every round otherwise. Either way it must
    /// equal the flow-by-flow walk of every round, bit for bit, with the
    /// same tally and the same edge list: on 1–16 nodes of 1–8 ranks,
    /// with empty segments (every one of them when `empty == 0`) and
    /// with a weak node when `weak < nodes`.
    #[test]
    fn parallel_walk_matches_a_per_round_flow_oracle(
        nodes in 1usize..17,
        ppn in 1usize..9,
        sizes in prop::collection::vec((0u8..4, 1u64..(1 << 24)), 128),
        empty in 0u8..4,
        weak in 0usize..32,
        factor in 0.1f64..1.0,
    ) {
        let mut machine = presets::xeon_x7550_cluster(nodes);
        if weak < nodes {
            machine = machine.with_weak_node(weak, factor);
        }
        let policy = if ppn == machine.sockets_per_node {
            PlacementPolicy::BindToSocket
        } else {
            PlacementPolicy::Interleave
        };
        let pmap = ProcessMap::new(&machine, ppn, policy);
        let net = NetworkModel::new(&machine);
        let bytes: Vec<u64> = (0..pmap.world_size())
            .map(|r| match sizes[r % sizes.len()] {
                _ if empty == 0 => 0,
                (0, _) => 0,
                (1, b) => b % 64 + 1,
                (_, b) => b,
            })
            .collect();
        let mut edges = Vec::new();
        let (cost, stats) = allgather_sizes(
            &bytes,
            &bytes,
            &pmap,
            &net,
            AllgatherAlgorithm::ParallelSubgroup,
            Some(&mut edges),
        );
        let (want_cost, want_stats, want_edges) = parallel_by_round(&bytes, &pmap, &net);
        let bits = |c: CommCost| {
            [c.intra_gather, c.inter, c.intra_bcast].map(|t| t.as_secs().to_bits())
        };
        prop_assert_eq!(bits(cost), bits(want_cost), "nodes={} ppn={}", nodes, ppn);
        prop_assert_eq!(stats, want_stats, "nodes={} ppn={}", nodes, ppn);
        prop_assert_eq!(edges, want_edges, "nodes={} ppn={}", nodes, ppn);
    }
}

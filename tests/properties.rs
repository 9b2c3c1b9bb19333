//! Property-based tests (proptest) over the core data structures and the
//! full distributed pipeline.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use proptest::prelude::*;

use numa_bfs::comm::allgather::{allgather_words_into, AllgatherAlgorithm};
use numa_bfs::core::engine::{DistributedBfs, Scenario};
use numa_bfs::core::multi::LaneAnswer;
use numa_bfs::core::opt::OptLevel;
use numa_bfs::core::query::QueryEngine;
use numa_bfs::core::seq::bfs_top_down;
use numa_bfs::graph::validate::validate_bfs_tree;
use numa_bfs::graph::{Csr, Edge, EdgeList, GraphBuilder, GraphView};
use numa_bfs::simnet::NetworkModel;
use numa_bfs::topology::{MachineConfig, PlacementPolicy, ProcessMap};
use numa_bfs::util::rng::Xoroshiro128;
use numa_bfs::util::{Bitmap, BlockPartition, SummaryBitmap};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any set of bits round-trips through a bitmap exactly.
    #[test]
    fn bitmap_roundtrip(bits in prop::collection::btree_set(0usize..4000, 0..200), len in 4000usize..5000) {
        let bm = Bitmap::from_indices(len, &bits.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(bm.count_ones(), bits.len());
        let back: Vec<usize> = bm.iter_ones().collect();
        prop_assert_eq!(back, bits.into_iter().collect::<Vec<_>>());
    }

    /// A summary is zero exactly where every covered bit is zero, for any
    /// granularity.
    #[test]
    fn summary_matches_definition(
        bits in prop::collection::btree_set(0usize..2048, 0..300),
        g_exp in 0u32..5,
    ) {
        let g = 64usize << g_exp;
        let bm = Bitmap::from_indices(2048, &bits.iter().copied().collect::<Vec<_>>());
        let s = SummaryBitmap::build(&bm, g);
        for sb in 0..s.len() {
            let any = (sb * g..((sb + 1) * g).min(2048)).any(|i| bm.get(i));
            prop_assert_eq!(s.as_bitmap().get(sb), any);
        }
    }

    /// Block partitions cover every item exactly once, word-aligned.
    #[test]
    fn partition_is_exact_cover(total in 1usize..100_000, parts in 1usize..40) {
        let p = BlockPartition::new(total, parts);
        let mut count = 0usize;
        for r in 0..parts {
            let (s, e) = p.item_range(r);
            // Non-empty blocks start word-aligned (empty blocks collapse
            // to the clamped end of the item space).
            prop_assert!(s == e || s % 64 == 0);
            for i in s..e {
                prop_assert_eq!(p.owner(i), r);
            }
            count += e - s;
        }
        prop_assert_eq!(count, total);
    }

    /// Every allgather algorithm reassembles arbitrary ragged segments into
    /// the same words and charges non-negative time.
    #[test]
    fn allgather_equivalence(
        seed in 0u64..1000,
        words_each in 1usize..40,
    ) {
        let machine = MachineConfig::small_test_cluster(2, 4);
        let pmap = ProcessMap::new(&machine, 4, PlacementPolicy::BindToSocket);
        let net = NetworkModel::new(&machine);
        let np = pmap.world_size();
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let parts: Vec<Vec<u64>> = (0..np).map(|_| (0..words_each).map(|_| next()).collect()).collect();
        let expect: Vec<u64> = parts.iter().flatten().copied().collect();
        let refs: Vec<&[u64]> = parts.iter().map(Vec::as_slice).collect();
        for algo in [
            AllgatherAlgorithm::Ring,
            AllgatherAlgorithm::LeaderBased,
            AllgatherAlgorithm::SharedDest,
            AllgatherAlgorithm::SharedBoth,
            AllgatherAlgorithm::ParallelSubgroup,
        ] {
            let mut words = vec![0; expect.len()];
            let cost = allgather_words_into(&mut words, &refs, &pmap, &net, algo);
            prop_assert_eq!(&words, &expect);
            prop_assert!(cost.total().as_secs() >= 0.0);
        }
    }

    /// The distributed BFS on arbitrary random graphs always produces a
    /// tree that passes Graph500 validation and spans the root's component.
    #[test]
    fn distributed_bfs_always_validates(
        edges in prop::collection::vec((0u32..200, 0u32..200), 1..400),
        root in 0usize..200,
    ) {
        let el = EdgeList::new(200, edges.iter().map(|&(u, v)| Edge { u, v }).collect());
        let graph = Csr::from_edge_list(&el);
        let machine = MachineConfig::small_test_cluster(2, 2);
        let scenario = Scenario::new(machine, OptLevel::Granularity(128));
        let run = DistributedBfs::new(&graph, &scenario).run(root);
        let visited = validate_bfs_tree(&graph, root, &run.parent)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(visited, graph.component_of(root).len());
        prop_assert_eq!(visited, run.visited);
    }

    /// Engine determinism holds for arbitrary graphs: same input, same
    /// simulated time and same tree.
    #[test]
    fn engine_determinism(
        edges in prop::collection::vec((0u32..100, 0u32..100), 1..150),
    ) {
        let el = EdgeList::new(100, edges.iter().map(|&(u, v)| Edge { u, v }).collect());
        let graph = Csr::from_edge_list(&el);
        let machine = MachineConfig::small_test_cluster(2, 2);
        let scenario = Scenario::new(machine, OptLevel::ShareAll);
        let engine = DistributedBfs::new(&graph, &scenario);
        let a = engine.run(0);
        let b = engine.run(0);
        prop_assert_eq!(a.parent, b.parent);
        prop_assert_eq!(a.profile.total().as_secs(), b.profile.total().as_secs());
    }

    /// Multi-query engine answers are a permutation-stable function of the
    /// root *multiset*: for random R-MAT graphs and random root multisets
    /// (duplicates and isolated vertices included), admitting the same roots
    /// in a different order never changes any parent array, visited count, or
    /// level trace.
    #[test]
    fn multi_query_answers_are_permutation_stable(
        scale in 8u32..11,
        graph_seed in any::<u64>(),
        picks in prop::collection::vec(any::<u64>(), 2..12),
        shuffle_seed in any::<u64>(),
    ) {
        let graph = GraphBuilder::rmat(scale, 8).seed(graph_seed).build();
        let n = graph.num_vertices() as u64;
        let roots: Vec<usize> = picks.iter().map(|&p| (p % n) as usize).collect();

        // A seeded Fisher-Yates permutation of the admission order.
        let mut perm: Vec<usize> = (0..roots.len()).collect();
        let mut rng = Xoroshiro128::new(shuffle_seed | 1);
        for i in (1..perm.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let permuted: Vec<usize> = perm.iter().map(|&i| roots[i]).collect();

        let engine = QueryEngine::bit_parallel(&graph);
        let a = engine.run_batch(&roots);
        let b = engine.run_batch(&permuted);
        for (j, &i) in perm.iter().enumerate() {
            prop_assert_eq!(&b[j].root, &a[i].root);
            prop_assert_eq!(&b[j].parent, &a[i].parent);
            prop_assert_eq!(b[j].visited, a[i].visited);
            prop_assert_eq!(&b[j].level_discovered, &a[i].level_discovered);
        }

        // And the batch answer for the first root is the serial top-down
        // answer — batching is invisible to each individual query.
        let oracle = LaneAnswer::from_run(roots[0], bfs_top_down(&graph, roots[0]));
        prop_assert_eq!(&a[0], &oracle);
    }
}

//! Ablation: the inter-node allgather algorithm (DESIGN.md §5).

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nbfs_comm::allgather::{allgather_cost_bytes, AllgatherAlgorithm};
use nbfs_simnet::NetworkModel;
use nbfs_topology::{presets, PlacementPolicy, ProcessMap};

fn bench(c: &mut Criterion) {
    let machine = presets::xeon_x7550_cluster(8);
    let pmap = ProcessMap::new(&machine, 8, PlacementPolicy::BindToSocket);
    let net = NetworkModel::new(&machine);
    let np = pmap.world_size() as u64;
    let bytes: Vec<u64> = (0..np).map(|_| (64u64 << 20) / np).collect();
    let mut group = c.benchmark_group("ablation_allgather_algo");
    for algo in [
        AllgatherAlgorithm::Ring,
        AllgatherAlgorithm::RecursiveDoubling,
        AllgatherAlgorithm::LeaderBased,
        AllgatherAlgorithm::SharedDest,
        AllgatherAlgorithm::SharedBoth,
        AllgatherAlgorithm::ParallelSubgroup,
    ] {
        group.bench_with_input(BenchmarkId::new("algo", algo.label()), &algo, |b, &algo| {
            b.iter(|| allgather_cost_bytes(&bytes, &pmap, &net, algo))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

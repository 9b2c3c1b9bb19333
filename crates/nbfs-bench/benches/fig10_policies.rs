//! Criterion bench behind Fig. 10: the Original code under each
//! mpirun/numactl flag combination.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nbfs_bench::scenarios::{self, BenchConfig};
use nbfs_core::engine::Scenario;
use nbfs_core::opt::OptLevel;
use nbfs_topology::{presets, PlacementPolicy};

fn bench(c: &mut Criterion) {
    let cfg = BenchConfig::tiny();
    let g = scenarios::graph(cfg.base_scale);
    let machine = presets::xeon_x7550_node().scaled_to_graph(cfg.base_scale, cfg.paper_base_scale);
    let mut group = c.benchmark_group("fig10_policies");
    group.sample_size(10);
    let cases = [
        ("ppn1_noflag", 1, PlacementPolicy::Noflag),
        ("ppn1_interleave", 1, PlacementPolicy::Interleave),
        ("ppn8_noflag", 8, PlacementPolicy::Noflag),
        ("ppn8_bind", 8, PlacementPolicy::BindToSocket),
    ];
    for (label, ppn, policy) in cases {
        let scenario = Scenario::builder(machine.clone(), OptLevel::OriginalPpn8)
            .placement(ppn, policy)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("policy", label), &scenario, |b, s| {
            b.iter(|| scenarios::run_scenario(g, s))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

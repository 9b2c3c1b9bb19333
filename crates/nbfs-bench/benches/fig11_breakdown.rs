//! Criterion bench behind Fig. 11: full profiled runs of the two
//! single-node configurations whose breakdown the figure compares.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use criterion::{criterion_group, criterion_main, Criterion};
use nbfs_bench::scenarios::{self, BenchConfig};
use nbfs_core::engine::{DistributedBfs, Scenario};
use nbfs_core::opt::OptLevel;
use nbfs_topology::{presets, PlacementPolicy};

fn bench(c: &mut Criterion) {
    let cfg = BenchConfig::tiny();
    let g = scenarios::graph(cfg.base_scale);
    let machine = presets::xeon_x7550_node().scaled_to_graph(cfg.base_scale, cfg.paper_base_scale);
    let root = scenarios::best_root(g);
    let mut group = c.benchmark_group("fig11_breakdown");
    group.sample_size(10);
    for (label, ppn, policy) in [
        ("ppn1_interleave", 1, PlacementPolicy::Interleave),
        ("ppn8_bind", 8, PlacementPolicy::BindToSocket),
    ] {
        let scenario = Scenario::builder(machine.clone(), OptLevel::OriginalPpn8)
            .placement(ppn, policy)
            .build()
            .unwrap();
        let engine = DistributedBfs::new(g, &scenario);
        group.bench_function(label, |b| b.iter(|| engine.run(root).profile.total()));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

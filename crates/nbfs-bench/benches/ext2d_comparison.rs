//! Extension bench: the executing 2-D engine vs the 1-D engine
//! (paper §V / Buluc & Madduri \[11\]) — both hybrids under the default
//! Beamer policy, plus the 2-D engine pinned top-down.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use criterion::{criterion_group, criterion_main, Criterion};
use nbfs_bench::scenarios::{self, BenchConfig};
use nbfs_core::direction::SwitchPolicy;
use nbfs_core::engine::{DistributedBfs, Scenario};
use nbfs_core::engine2d::TwoDimBfs;
use nbfs_core::opt::OptLevel;

fn bench(c: &mut Criterion) {
    let cfg = BenchConfig::tiny();
    let nodes = 4;
    let g = scenarios::graph(cfg.weak_scale(nodes));
    let machine = cfg.machine(nodes);
    let root = scenarios::best_root(g);

    let mut group = c.benchmark_group("ext2d_comparison");
    group.sample_size(10);

    let scenario_hybrid = Scenario::new(machine.clone(), OptLevel::ShareAll);
    let engine_hybrid = DistributedBfs::new(g, &scenario_hybrid);
    group.bench_function("hybrid_1d", |b| b.iter(|| engine_hybrid.run(root)));

    let scenario_2d_td = Scenario::builder(machine.clone(), OptLevel::ShareAll)
        .switch_policy(SwitchPolicy::always_top_down())
        .build()
        .unwrap();
    let engine_2d_td = TwoDimBfs::new(g, &scenario_2d_td);
    group.bench_function("top_down_2d", |b| b.iter(|| engine_2d_td.run(root)));

    let scenario_2d = Scenario::new(machine, OptLevel::ShareAll);
    let engine_2d = TwoDimBfs::new(g, &scenario_2d);
    group.bench_function("hybrid_2d", |b| b.iter(|| engine_2d.run(root)));

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

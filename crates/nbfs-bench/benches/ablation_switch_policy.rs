//! Ablation: the hybrid switch thresholds alpha/beta of Beamer et al. \[9\]
//! (DESIGN.md §5) plus the forced pure-direction baselines.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nbfs_bench::scenarios::{self, BenchConfig};
use nbfs_core::direction::SwitchPolicy;
use nbfs_core::engine::Scenario;
use nbfs_core::opt::OptLevel;

fn bench(c: &mut Criterion) {
    let cfg = BenchConfig::tiny();
    let g = scenarios::graph(cfg.base_scale);
    let machine = cfg.machine(1);
    let mut group = c.benchmark_group("ablation_switch_policy");
    group.sample_size(10);
    let cases: [(&str, SwitchPolicy); 5] = [
        ("alpha14_beta24", SwitchPolicy::default()),
        (
            "alpha4_beta24",
            SwitchPolicy {
                alpha: 4.0,
                beta: 24.0,
            },
        ),
        (
            "alpha56_beta24",
            SwitchPolicy {
                alpha: 56.0,
                beta: 24.0,
            },
        ),
        ("pure_top_down", SwitchPolicy::always_top_down()),
        ("pure_bottom_up", SwitchPolicy::always_bottom_up()),
    ];
    for (label, policy) in cases {
        let scenario = Scenario::builder(machine.clone(), OptLevel::ShareAll)
            .switch_policy(policy)
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

//! The observability contract: a `TraceReport` keeps every committed level
//! under every `TraceConfig` and is a lossless superset of the engine's
//! `RunProfile` (the projection reproduces it **bitwise**), tracing is
//! behaviour-preserving (`Off` or not, the BFS result is identical), the
//! JSON exchange format round-trips under a pinned schema version, and the
//! builder's defaults are `Scenario::new`'s.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::comm::codec::Codec;
use numa_bfs::comm::{FaultPlan, FaultScope, FaultSpec};
use numa_bfs::core::direction::SwitchPolicy;
use numa_bfs::core::engine::{DistributedBfs, HostClock, Scenario, Search};
use numa_bfs::core::engine2d::TwoDimBfs;
use numa_bfs::core::opt::OptLevel;
use numa_bfs::core::query::SearchEngine;
use numa_bfs::graph::{Csr, Edge, EdgeList, GraphBuilder};
use numa_bfs::simnet::compute::ModelParams;
use numa_bfs::topology::{presets, MachineConfig};
use numa_bfs::trace::{
    FaultKind, FaultOp, Phase, RunProfile, TraceConfig, TraceReport, SCHEMA_VERSION,
};

fn graph() -> Csr {
    GraphBuilder::rmat(11, 8).seed(5).build()
}

/// The path `0 - 1 - … - n-1`: searched from 0 it commits `n` levels, far
/// more than any R-MAT search, so a tracer that loses levels shows here.
fn path(n: usize) -> Csr {
    Csr::from_edge_list(&EdgeList::new(
        n,
        (0..n - 1).map(|v| Edge::new(v, v + 1)).collect(),
    ))
}

/// Both recording levels: each keeps every committed level.
const CONFIGS: [TraceConfig; 2] = [TraceConfig::Standard, TraceConfig::Off];

/// The projection inputs: an R-MAT graph and a 1,500-level path.
fn inputs() -> [(&'static str, Csr); 2] {
    [("rmat", graph()), ("path", path(1500))]
}

/// Bitwise (not approximate) equality of two profiles: every phase slice,
/// the step split, the phase counter and every per-level row.
fn assert_profiles_bitwise(projected: &RunProfile, engine: &RunProfile, context: &str) {
    for phase in Phase::ALL {
        assert!(
            projected.phase(phase) == engine.phase(phase),
            "{context}: phase {} differs: {:?} vs {:?}",
            phase.label(),
            projected.phase(phase),
            engine.phase(phase),
        );
    }
    assert!(
        projected.bu_comm_detail == engine.bu_comm_detail,
        "{context}: bu_comm_detail differs"
    );
    assert_eq!(
        projected.bu_comm_phases, engine.bu_comm_phases,
        "{context}: bu_comm_phases"
    );
    assert_eq!(
        projected.levels.len(),
        engine.levels.len(),
        "{context}: level count"
    );
    for (i, (p, e)) in projected.levels.iter().zip(&engine.levels).enumerate() {
        assert_eq!(p.direction, e.direction, "{context}: level {i} direction");
        assert_eq!(
            p.discovered, e.discovered,
            "{context}: level {i} discovered"
        );
        assert!(
            p.comp == e.comp && p.comm == e.comm && p.stall == e.stall,
            "{context}: level {i} times differ"
        );
    }
}

#[test]
fn trace_projection_is_bitwise_exact_across_the_ladder() {
    let machine = presets::xeon_x7550_cluster(2).scaled_to_graph(11, 28);
    for (input, g) in inputs() {
        for (opt, trace) in OptLevel::LADDER
            .into_iter()
            .flat_map(|opt| CONFIGS.map(|trace| (opt, trace)))
        {
            let scenario = Scenario::builder(machine.clone(), opt)
                .trace(trace)
                .build()
                .unwrap();
            let (run, report) = DistributedBfs::new(&g, &scenario).run_traced(0);
            let context = format!("{input} {} {trace:?}", opt.label());
            assert_eq!(
                report.levels.len(),
                run.profile.levels.len(),
                "{context}: level count"
            );
            assert_profiles_bitwise(&report.run_profile(), &run.profile, &context);
        }
    }
}

/// A host clock that counts its reads: every read is one "second" later.
struct CountingClock(std::cell::Cell<f64>);

impl HostClock for CountingClock {
    fn now_secs(&self) -> f64 {
        self.0.set(self.0.get() + 1.0);
        self.0.get()
    }
}

#[test]
fn trace_projection_is_bitwise_exact_for_2d_engine() {
    let stall = FaultPlan::new(11).spec(FaultSpec::new(
        FaultKind::Stall,
        FaultScope::any().op(FaultOp::Rank),
    ));
    for (input, g) in inputs() {
        for ((plan_label, plan), trace) in [("2d", None), ("2d under stalls", Some(stall.clone()))]
            .into_iter()
            .flat_map(|cell| CONFIGS.map(|trace| (cell.clone(), trace)))
        {
            let context = format!("{input} {plan_label} {trace:?}");
            let mut builder = Scenario::builder(
                MachineConfig::small_test_cluster(2, 2),
                OptLevel::OriginalPpn8,
            )
            .trace(trace);
            if let Some(plan) = plan {
                builder = builder.faults(plan);
            }
            let scenario = builder.build().unwrap();
            let engines: [&dyn SearchEngine; 2] = [
                &TwoDimBfs::new(&g, &scenario),
                &DistributedBfs::new(&g, &scenario),
            ];
            for engine in engines {
                let clock = CountingClock(std::cell::Cell::new(0.0));
                let Search { run, wall, report } = engine.search(0, &clock).unwrap();
                // Penalties flow through the accumulators the committed
                // levels carry, so the projection stays exact with them;
                // only a detailed trace lists the faults themselves.
                assert_eq!(
                    report.faults.is_empty(),
                    trace == TraceConfig::Off || plan_label == "2d",
                    "{context}"
                );
                assert_eq!(
                    report.levels.len(),
                    run.profile.levels.len(),
                    "{context}: level count"
                );
                assert_profiles_bitwise(&report.run_profile(), &run.profile, &context);
                // Both engines time their kernels through the one driver:
                // two clock reads a level, and every level is one or the
                // other.
                assert_eq!(
                    (wall.bottom_up_levels + wall.top_down_levels) as usize,
                    run.profile.levels.len(),
                    "{context}"
                );
                assert_eq!(
                    wall.bottom_up_secs + wall.top_down_secs,
                    run.profile.levels.len() as f64,
                    "{context}"
                );
            }
        }
    }
}

#[test]
fn tracing_is_behaviour_preserving_and_off_records_nothing() {
    let g = graph();
    let machine = presets::xeon_x7550_cluster(2).scaled_to_graph(11, 28);
    // Off (the default): run_traced must return the identical BfsRun and
    // a report of the committed levels with nothing else in it.
    let off = Scenario::builder(machine.clone(), OptLevel::ShareAll)
        .build()
        .unwrap();
    let engine = DistributedBfs::new(&g, &off);
    let plain = engine.run(0);
    let (traced, report) = engine.run_traced(0);
    assert_eq!(plain.parent, traced.parent);
    assert_eq!(plain.visited, traced.visited);
    assert_profiles_bitwise(&plain.profile, &traced.profile, "off-identity");
    assert_eq!(report.levels.len(), plain.profile.levels.len());
    assert!(report.decisions.is_empty());
    assert!(report.faults.is_empty());
    assert!(report.post_collectives.is_empty());
    assert!(report
        .levels
        .iter()
        .all(|lv| lv.collectives.is_empty() && lv.ranks.is_empty()));

    // Standard: recording events must not perturb the simulation either.
    let on = Scenario::builder(machine, OptLevel::ShareAll)
        .trace(TraceConfig::Standard)
        .build()
        .unwrap();
    let (recorded, _) = DistributedBfs::new(&g, &on).run_traced(0);
    assert_eq!(plain.parent, recorded.parent);
    assert_profiles_bitwise(&plain.profile, &recorded.profile, "standard-identity");
}

#[test]
fn trace_report_json_round_trips_under_pinned_schema() {
    let g = graph();
    let scenario = Scenario::builder(
        MachineConfig::small_test_cluster(2, 2),
        OptLevel::Granularity(256),
    )
    .trace(TraceConfig::Standard)
    .build()
    .unwrap();
    let (_, report) = DistributedBfs::new(&g, &scenario).run_traced(0);

    // Schema pin: bumping SCHEMA_VERSION without migrating consumers must
    // trip this test. v2 added the fault-record list (v1 imports read it
    // as empty); v3 added CollectiveStats::raw_bytes (v2 imports read it
    // as wire_bytes); v4 added the multi-query `queries` records and v5
    // removed them (v4 imports skip them — all covered in nbfs-trace's
    // report tests).
    assert_eq!(SCHEMA_VERSION, 5, "schema changed: update exporters");
    assert_eq!(report.schema_version, SCHEMA_VERSION);

    let json = report.to_json().unwrap();
    assert!(json.contains("\"schema_version\": 5"), "{json}");
    let back = TraceReport::from_json(&json).unwrap();
    assert_eq!(back, report);

    // A report stamped with a future schema is refused, not misread.
    let future = json.replacen("\"schema_version\": 5", "\"schema_version\": 999", 1);
    assert!(TraceReport::from_json(&future).is_err());
}

#[test]
fn scenario_builder_defaults_equal_scenario_new() {
    let machine = presets::xeon_x7550_node().scaled_to_graph(11, 28);
    let new = Scenario::new(machine.clone(), OptLevel::OriginalPpn8);
    let built = Scenario::builder(machine.clone(), OptLevel::OriginalPpn8)
        .build()
        .unwrap();
    assert_eq!(format!("{new:?}"), format!("{built:?}"));
    // Field for field (the pattern is exhaustive, so a new knob must be
    // given a default here too).
    let Scenario {
        machine: built_machine,
        opt,
        switch_policy,
        placement_override,
        params,
        trace,
        faults,
        codec,
    } = built;
    assert_eq!(built_machine, machine);
    assert_eq!(opt, OptLevel::OriginalPpn8);
    assert_eq!(switch_policy, SwitchPolicy::default());
    assert_eq!(placement_override, None);
    assert_eq!(params, ModelParams::default());
    assert_eq!(trace, TraceConfig::Off);
    assert_eq!(faults, None);
    assert_eq!(codec, Codec::Raw);
}

#[test]
fn harness_config_builder_matches_the_literal() {
    // An invalid machine is a builder error, not a panic.
    let mut bad = MachineConfig::small_test_cluster(2, 2);
    bad.nodes = 0;
    assert!(Scenario::builder(bad, OptLevel::ShareAll).build().is_err());
}

//! The fault-tolerance contract of the simulated runtime: recoverable
//! fault plans leave the BFS **bit-identical** to the fault-free run (the
//! recovery layer charges time, never changes data), unrecoverable plans
//! degrade to structured `NbfsError`s — never a hang or panic — and the
//! same seed reproduces the identical fault report.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::comm::{FaultPlan, FaultScope, FaultSpec};
use numa_bfs::core::engine::{DistributedBfs, NoClock, Scenario};
use numa_bfs::core::engine2d::TwoDimBfs;
use numa_bfs::core::opt::OptLevel;
use numa_bfs::core::query::SearchEngine;
use numa_bfs::graph::{Csr, GraphBuilder};
use numa_bfs::topology::presets;
use numa_bfs::trace::{FaultKind, FaultOp, Phase, TraceConfig};
use numa_bfs::util::{NbfsError, SimTime};

fn graph() -> Csr {
    GraphBuilder::rmat(10, 16).seed(1).build()
}

fn scenario(opt: OptLevel, faults: Option<FaultPlan>) -> Scenario {
    let machine = presets::xeon_x7550_cluster(4).scaled_to_graph(10, 28);
    let mut builder = Scenario::builder(machine, opt).trace(TraceConfig::Standard);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    builder.build().unwrap()
}

/// A drop on every first attempt of every covered site: the retry layer
/// must recover each one, so the run succeeds with pure time penalties.
fn drop_everywhere(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()))
}

/// A recoverable plan must leave `faulted`'s search bit-identical to
/// `clean`'s but for the time it charges, fire at least once, and keep the
/// report's profile projection bitwise exact.
fn assert_recovers(clean: &dyn SearchEngine, faulted: &dyn SearchEngine, label: &str) {
    let clean = clean.search(0, &NoClock).unwrap().run;
    let search = faulted
        .search(0, &NoClock)
        .unwrap_or_else(|e| panic!("{label}: plan must recover, got {e}"));
    let (faulted, report) = (search.run, search.report);
    assert_eq!(
        faulted.parent, clean.parent,
        "{label}: recovered parents differ"
    );
    assert_eq!(faulted.visited, clean.visited, "{label}");
    assert_eq!(
        faulted.profile.levels.len(),
        clean.profile.levels.len(),
        "{label}: level structure differs"
    );
    assert!(!report.faults.is_empty(), "{label}: plan never fired");
    assert!(
        report.faults.iter().all(|f| f.recovered),
        "{label}: every fault must be recovered"
    );
    // Recovery charges time: the faulted run is strictly slower.
    assert!(
        faulted.profile.total() > clean.profile.total(),
        "{label}: recovery must cost simulated time"
    );
    let projected = report.run_profile();
    for phase in Phase::ALL {
        assert!(
            projected.phase(phase) == faulted.profile.phase(phase),
            "{label}: faulted projection diverged in phase {}",
            phase.label()
        );
    }
}

#[test]
fn every_engine_in_the_ladder_recovers_drops_bit_identically() {
    let g = graph();
    for opt in OptLevel::LADDER {
        assert_recovers(
            &DistributedBfs::new(&g, &scenario(opt, None)),
            &DistributedBfs::new(&g, &scenario(opt, Some(drop_everywhere(42)))),
            &opt.label(),
        );
    }
    // The 2-D engine (4 nodes x 8 ranks as a 4x8 grid) runs on the same
    // level driver, so the control allreduce drops and the rank stalls
    // recover there too.
    let stall = FaultPlan::new(42).spec(FaultSpec::new(
        FaultKind::Stall,
        FaultScope::any().op(FaultOp::Rank),
    ));
    for (label, plan) in [("2-D drop", drop_everywhere(42)), ("2-D stall", stall)] {
        assert_recovers(
            &TwoDimBfs::new(&g, &scenario(OptLevel::ShareAll, None)),
            &TwoDimBfs::new(&g, &scenario(OptLevel::ShareAll, Some(plan))),
            label,
        );
    }
}

#[test]
fn edge_scoped_single_drop_recovers_and_names_its_level() {
    let g = graph();
    // Only the first ring edge of level 1 drops; everything else is clean.
    let plan = FaultPlan::new(9).spec(FaultSpec::new(
        FaultKind::Drop,
        FaultScope::any().src(0).level(1),
    ));
    let clean = DistributedBfs::new(&g, &scenario(OptLevel::OriginalPpn8, None)).run(0);
    let search = DistributedBfs::new(&g, &scenario(OptLevel::OriginalPpn8, Some(plan)))
        .search(0, &NoClock)
        .unwrap();
    let (faulted, report) = (search.run, search.report);
    assert_eq!(faulted.parent, clean.parent);
    assert!(!report.faults.is_empty());
    assert!(
        report.faults.iter().all(|f| f.level == 1 && f.src == 0),
        "scope must confine faults to level 1 edges from rank 0: {:?}",
        report.faults
    );
}

#[test]
fn collective_crash_is_a_structured_error_naming_the_edge() {
    let g = graph();
    let plan = FaultPlan::new(3).spec(FaultSpec::new(FaultKind::Crash, FaultScope::any()));
    let engine = DistributedBfs::new(&g, &scenario(OptLevel::ShareAll, Some(plan)));
    match engine.search(0, &NoClock) {
        Err(NbfsError::Fault {
            op, kind, level, ..
        }) => {
            assert_eq!(kind, "crash");
            assert!(!op.is_empty());
            assert_eq!(level, Some(0), "first covered collective is at level 0");
        }
        other => panic!("expected structured Fault error, got {other:?}"),
    }
}

#[test]
fn rank_crash_surfaces_the_failing_rank() {
    let g = graph();
    let plan = FaultPlan::new(5).spec(FaultSpec::new(
        FaultKind::Crash,
        FaultScope::any().op(FaultOp::Rank).src(3),
    ));
    let faulted = scenario(OptLevel::ShareAll, Some(plan));
    let engines: [&dyn SearchEngine; 2] = [
        &DistributedBfs::new(&g, &faulted),
        &TwoDimBfs::new(&g, &faulted),
    ];
    for engine in engines {
        match engine.search(0, &NoClock) {
            Err(NbfsError::RankFailed { rank }) => assert_eq!(rank, 3),
            other => panic!("expected RankFailed {{ rank: 3 }}, got {other:?}"),
        }
    }
}

#[test]
fn exhausted_retry_budget_degrades_gracefully() {
    let g = graph();
    let plan = FaultPlan::new(1)
        .spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()).every_attempt())
        .max_attempts(2);
    let engine = DistributedBfs::new(&g, &scenario(OptLevel::OriginalPpn1, Some(plan)));
    match engine.search(0, &NoClock) {
        Err(NbfsError::Fault { kind, attempts, .. }) => {
            assert_eq!(kind, "drop");
            assert_eq!(attempts, 2, "budget of 2 attempts was exhausted");
        }
        other => panic!("expected exhausted-budget Fault error, got {other:?}"),
    }
}

#[test]
fn fault_reports_are_seed_deterministic_and_projection_exact() {
    let g = graph();
    let run = || {
        DistributedBfs::new(
            &g,
            &scenario(OptLevel::ParAllgather, Some(drop_everywhere(7))),
        )
        .search(0, &NoClock)
        .unwrap()
    };
    let first = run();
    let (run_a, report_a) = (first.run, first.report);
    let report_b = run().report;
    assert_eq!(
        report_a.to_json().unwrap(),
        report_b.to_json().unwrap(),
        "same seed must reproduce a byte-identical TraceReport"
    );
    assert_eq!(report_a.recovered_faults(), report_a.faults.len());
    assert!(report_a.fault_penalty() > SimTime::ZERO);
    // Fault penalties flow through the same per-level accumulators the
    // Level events carry, so the profile projection stays bitwise exact
    // even under injection.
    let projected = report_a.run_profile();
    for phase in Phase::ALL {
        assert!(
            projected.phase(phase) == run_a.profile.phase(phase),
            "faulted projection diverged in phase {}",
            phase.label()
        );
    }
}

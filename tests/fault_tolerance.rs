//! The fault-tolerance contract of the simulated runtime: recoverable
//! fault plans leave the BFS **bit-identical** to the fault-free run (the
//! recovery layer charges time, never changes data), unrecoverable plans
//! degrade to structured `NbfsError`s — never a hang or panic — and the
//! same seed reproduces the identical fault report.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use numa_bfs::comm::{FaultPlan, FaultScope, FaultSpec};
use numa_bfs::core::engine::{DistributedBfs, Scenario};
use numa_bfs::core::opt::OptLevel;
use numa_bfs::core::profile::Phase;
use numa_bfs::graph::{Csr, GraphBuilder};
use numa_bfs::topology::presets;
use numa_bfs::trace::{FaultKind, FaultOp, TraceConfig};
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

#[test]
fn every_engine_in_the_ladder_recovers_drops_bit_identically() {
    let g = graph();
    for opt in OptLevel::LADDER {
        let clean = DistributedBfs::new(&g, &scenario(opt, None)).run(0);
        let (faulted, report) = DistributedBfs::new(&g, &scenario(opt, Some(drop_everywhere(42))))
            .try_run_traced(0)
            .unwrap_or_else(|e| panic!("{}: drop plan must recover, got {e}", opt.label()));
        assert_eq!(
            faulted.parent,
            clean.parent,
            "{}: recovered parents differ",
            opt.label()
        );
        assert_eq!(faulted.visited, clean.visited, "{}", opt.label());
        assert_eq!(
            faulted.profile.levels.len(),
            clean.profile.levels.len(),
            "{}: level structure differs",
            opt.label()
        );
        assert!(
            !report.faults.is_empty(),
            "{}: plan never fired",
            opt.label()
        );
        assert!(
            report.faults.iter().all(|f| f.recovered),
            "{}: every drop must be recovered",
            opt.label()
        );
        // Recovery charges time: the faulted run is strictly slower.
        assert!(
            faulted.profile.total() > clean.profile.total(),
            "{}: retries must cost simulated time",
            opt.label()
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
    let (faulted, report) = DistributedBfs::new(&g, &scenario(OptLevel::OriginalPpn8, Some(plan)))
        .try_run_traced(0)
        .unwrap();
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
    match engine.try_run(0) {
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
    let engine = DistributedBfs::new(&g, &scenario(OptLevel::ShareAll, Some(plan)));
    match engine.try_run(0) {
        Err(NbfsError::RankFailed { rank }) => assert_eq!(rank, 3),
        other => panic!("expected RankFailed {{ rank: 3 }}, got {other:?}"),
    }
}

#[test]
fn exhausted_retry_budget_degrades_gracefully() {
    let g = graph();
    let plan = FaultPlan::new(1)
        .spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()).every_attempt())
        .max_attempts(2);
    let engine = DistributedBfs::new(&g, &scenario(OptLevel::OriginalPpn1, Some(plan)));
    match engine.try_run(0) {
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
        .try_run_traced(0)
        .unwrap()
    };
    let (run_a, report_a) = run();
    let (_, report_b) = run();
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

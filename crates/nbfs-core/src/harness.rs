//! The Graph500-style measurement harness.
//!
//! Section IV.A of the paper: "64 different vertices are random selected as
//! the roots of 64 BFS iterations. Each iteration reports its TEPS ... the
//! final result is calculated as the harmonic mean of the TEPS of 64
//! iterations." Profiling results are "the average of 64 BFS iterations."
//! This module reproduces that procedure (root count configurable so tests
//! stay fast), including the Graph500 rules of sampling only vertices with
//! at least one edge and validating every search.
//!
//! The campaign loop itself is a [`QueryEngine::run_batch`] over the
//! distributed engine — the same admission machinery that serves
//! concurrent queries (see [`crate::query`]) — so the measurement path
//! and the service path cannot drift apart. Scenario validation happens
//! once, at [`Graph500Harness::new`] (engine construction), not per
//! root; `tests/multi_source_equivalence.rs` pins that with a
//! granularity-check counter.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use nbfs_graph::validate::validate_bfs_tree;
use nbfs_graph::Csr;
use nbfs_util::rng::Xoroshiro128;
use nbfs_util::stats::RateSummary;
use nbfs_util::SimTime;

use nbfs_trace::TraceReport;

use crate::engine::{BfsRun, DistributedBfs, Scenario, Search};
use crate::level::fault_free;
use crate::profile::RunProfile;
use crate::query::{QueryEngine, SearchBackend};

/// Measurement configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HarnessConfig {
    /// Number of BFS roots (Graph500 mandates 64).
    pub roots: usize,
    /// Root-sampling seed.
    pub seed: u64,
    /// Run the Graph500 validation kernel on every tree.
    pub validate: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            roots: 64,
            seed: 0x6ea7_500d,
            validate: true,
        }
    }
}

impl HarnessConfig {
    /// A fast configuration for unit tests and quick sweeps.
    pub fn quick(roots: usize) -> Self {
        Self {
            roots,
            seed: 12345,
            validate: true,
        }
    }

    /// Starts a fluent builder from the Graph500 defaults (64 roots,
    /// validation on). `HarnessConfig::builder().build()` equals
    /// `HarnessConfig::default()`.
    ///
    /// ```
    /// use nbfs_core::harness::HarnessConfig;
    ///
    /// let cfg = HarnessConfig::builder().roots(8).validate(false).build();
    /// assert_eq!(cfg.roots, 8);
    /// assert!(!cfg.validate);
    /// assert_eq!(cfg.seed, HarnessConfig::default().seed);
    /// ```
    pub fn builder() -> HarnessConfigBuilder {
        HarnessConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Fluent construction of a [`HarnessConfig`]; see
/// [`HarnessConfig::builder`].
#[derive(Clone, Debug)]
pub struct HarnessConfigBuilder {
    config: HarnessConfig,
}

impl HarnessConfigBuilder {
    /// Number of BFS roots (Graph500 mandates 64).
    pub fn roots(mut self, roots: usize) -> Self {
        self.config.roots = roots;
        self
    }

    /// Root-sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Whether to run the Graph500 validation kernel on every tree.
    pub fn validate(mut self, validate: bool) -> Self {
        self.config.validate = validate;
        self
    }

    /// Assembles the configuration (infallible — every combination of
    /// knobs is meaningful; a zero root count simply measures nothing).
    pub fn build(self) -> HarnessConfig {
        self.config
    }
}

/// Result of one BFS iteration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RootResult {
    /// The search key.
    pub root: usize,
    /// Undirected edges in the traversed component (the TEPS numerator).
    pub traversed_edges: u64,
    /// Simulated run time.
    pub time: SimTime,
    /// Traversed edges per simulated second.
    pub teps: f64,
}

/// Aggregate of a measurement campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HarnessResult {
    /// Harmonic-mean TEPS and friends — the headline number.
    pub teps: RateSummary,
    /// Profile averaged over all iterations (the Fig. 11–14 inputs).
    pub mean_profile: RunProfile,
    /// Every iteration's details.
    pub per_root: Vec<RootResult>,
}

impl HarnessResult {
    /// The Graph500 headline: harmonic-mean TEPS.
    pub fn harmonic_teps(&self) -> f64 {
        self.teps.harmonic_mean
    }
}

/// Runs Graph500-style campaigns for one graph and scenario.
pub struct Graph500Harness<'g> {
    graph: &'g Csr,
    engine: DistributedBfs<'g>,
}

impl<'g> Graph500Harness<'g> {
    /// Prepares the engine (partitioning happens here, like kernel 1).
    pub fn new(graph: &'g Csr, scenario: &Scenario) -> Self {
        Self {
            graph,
            engine: DistributedBfs::new(graph, scenario),
        }
    }

    /// Samples `count` distinct search keys with degree ≥ 1, as the
    /// Graph500 run rules require.
    pub fn sample_roots(&self, count: usize, seed: u64) -> Vec<usize> {
        let n = self.graph.num_vertices();
        let candidates = (0..n).filter(|&v| self.graph.degree(v) > 0).count();
        assert!(
            candidates >= count,
            "graph has only {candidates} non-isolated vertices, need {count}"
        );
        let mut rng = Xoroshiro128::new(seed);
        let mut chosen = Vec::with_capacity(count);
        let mut seen = std::collections::HashSet::new();
        while chosen.len() < count {
            #[expect(clippy::cast_possible_truncation, reason = "below n, a usize")]
            let v = rng.next_below(n as u64) as usize;
            if self.graph.degree(v) > 0 && seen.insert(v) {
                chosen.push(v);
            }
        }
        chosen
    }

    /// Validates (when asked) and summarizes one iteration.
    ///
    /// # Panics
    /// If validation is enabled and the BFS tree is invalid.
    #[expect(
        clippy::panic,
        reason = "with config.validate the harness is a correctness gate: an invalid \
                  tree aborts the campaign rather than being averaged into results"
    )]
    fn root_result(&self, root: usize, run: &BfsRun, validate: bool) -> RootResult {
        if validate {
            let visited = validate_bfs_tree(self.graph, root, &run.parent)
                .unwrap_or_else(|e| panic!("validation failed at root {root}: {e}"));
            assert_eq!(visited, run.visited);
        }
        let traversed_edges = self.graph.component_edges(root) as u64;
        let time = run.profile.total();
        RootResult {
            root,
            traversed_edges,
            time,
            teps: traversed_edges as f64 / time.as_secs(),
        }
    }

    /// Folds per-root results into the campaign aggregate. Profiles are
    /// averaged in root order for determinism.
    #[expect(
        clippy::expect_used,
        reason = "every sampled root has positive component edges and every run a \
                  positive simulated time, so each TEPS sample is positive"
    )]
    fn summarize(per_root: Vec<RootResult>, profiles: &[RunProfile]) -> HarnessResult {
        let mut mean_profile = RunProfile::default();
        for p in profiles {
            mean_profile.accumulate(p);
        }
        let mean_profile = mean_profile.scaled(profiles.len() as f64);
        let teps_samples: Vec<f64> = per_root.iter().map(|r| r.teps).collect();
        HarnessResult {
            teps: RateSummary::from_samples(&teps_samples)
                .expect("TEPS samples are positive: one per validated root"),
            mean_profile,
            per_root,
        }
    }

    /// Runs the full campaign.
    ///
    /// # Panics
    /// As [`Self::run_traced`].
    pub fn run(&self, config: &HarnessConfig) -> HarnessResult {
        self.run_traced(config).0
    }

    /// Runs the full campaign, also yielding every iteration's
    /// [`TraceReport`] (in root order; empty unless the scenario's
    /// `TraceConfig` records).
    ///
    /// # Panics
    /// If validation is enabled and any BFS tree is invalid, or the
    /// scenario carries a fault plan that proves unrecoverable.
    pub fn run_traced(&self, config: &HarnessConfig) -> (HarnessResult, Vec<TraceReport>) {
        let roots = self.sample_roots(config.roots, config.seed);
        let service = QueryEngine::new(SearchBackend::new(&self.engine));
        let searches = service.run_batch(&roots);
        let results: Vec<(RootResult, RunProfile, TraceReport)> = roots
            .par_iter()
            .zip(searches.into_par_iter())
            .map(|(&root, search)| {
                let Search { run, report, .. } = fault_free(search);
                (
                    self.root_result(root, &run, config.validate),
                    run.profile,
                    report,
                )
            })
            .collect();
        let mut per_root = Vec::with_capacity(results.len());
        let mut profiles = Vec::with_capacity(results.len());
        let mut reports = Vec::with_capacity(results.len());
        for (r, p, t) in results {
            per_root.push(r);
            profiles.push(p);
            reports.push(t);
        }
        (Self::summarize(per_root, &profiles), reports)
    }

    /// The underlying engine.
    pub fn engine(&self) -> &DistributedBfs<'g> {
        &self.engine
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::opt::OptLevel;
    use nbfs_graph::GraphBuilder;
    use nbfs_topology::MachineConfig;

    fn harness_setup() -> (Csr, Scenario) {
        let g = GraphBuilder::rmat(11, 16).seed(3).build();
        let scenario = Scenario::new(MachineConfig::small_test_cluster(2, 4), OptLevel::ShareAll);
        (g, scenario)
    }

    #[test]
    fn campaign_reports_positive_teps_and_validates() {
        let (g, scenario) = harness_setup();
        let h = Graph500Harness::new(&g, &scenario);
        let result = h.run(&HarnessConfig::quick(4));
        assert_eq!(result.per_root.len(), 4);
        assert!(result.harmonic_teps() > 0.0);
        assert!(result.teps.harmonic_mean <= result.teps.mean * 1.0000001);
        assert!(result.mean_profile.total() > SimTime::ZERO);
    }

    #[test]
    fn roots_are_distinct_and_non_isolated() {
        let (g, scenario) = harness_setup();
        let h = Graph500Harness::new(&g, &scenario);
        let roots = h.sample_roots(16, 99);
        let set: std::collections::HashSet<_> = roots.iter().collect();
        assert_eq!(set.len(), 16);
        for &r in &roots {
            assert!(g.degree(r) > 0);
        }
    }

    #[test]
    fn root_sampling_is_deterministic() {
        let (g, scenario) = harness_setup();
        let h = Graph500Harness::new(&g, &scenario);
        assert_eq!(h.sample_roots(8, 5), h.sample_roots(8, 5));
        assert_ne!(h.sample_roots(8, 5), h.sample_roots(8, 6));
    }

    /// Regression: the harness used to re-validate the scenario's summary
    /// granularity on every root. Validation is hoisted to construction —
    /// building the engine checks exactly once, and an entire campaign run
    /// on the same thread performs zero further checks.
    #[test]
    fn scenario_validation_happens_once_at_construction() {
        let (g, scenario) = harness_setup();
        let before = nbfs_util::summary::granularity_checks_on_current_thread();
        let h = Graph500Harness::new(&g, &scenario);
        assert_eq!(
            nbfs_util::summary::granularity_checks_on_current_thread(),
            before + 1,
            "constructing the harness validates the scenario exactly once"
        );
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap_or_else(|e| panic!("pool: {e}"));
        // A 1-thread pool keeps every per-root run on this thread, so the
        // thread-local counter observes the whole campaign.
        pool.install(|| h.run(&HarnessConfig::quick(4)));
        assert_eq!(
            nbfs_util::summary::granularity_checks_on_current_thread(),
            before + 1,
            "running 4 roots must not re-validate the scenario"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let (g, scenario) = harness_setup();
        let h = Graph500Harness::new(&g, &scenario);
        let cfg = HarnessConfig::quick(3);
        let a = h.run(&cfg);
        let b = h.run(&cfg);
        assert_eq!(a.harmonic_teps(), b.harmonic_teps());
        assert_eq!(a.mean_profile.total(), b.mean_profile.total());
    }
}

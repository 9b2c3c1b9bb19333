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
//! A campaign measures any prepared [`SearchEngine`] — the 1-D
//! [`DistributedBfs`](crate::engine::DistributedBfs) or the 2-D
//! [`TwoDimBfs`](crate::engine2d::TwoDimBfs), over the dense [`Csr`] or
//! its packed image — and is one [`QueryEngine::run_batch`] over it: the
//! same admission machinery that serves concurrent queries (see
//! [`crate::query`]), so the measurement path and the service path cannot
//! drift apart. The dense graph stays the reference: roots are sampled
//! from it, every tree is validated against it and it supplies the TEPS
//! numerator. Scenario validation happens once, when the caller builds the
//! engine, not per root.
//!
//! The harness fails closed: a search error, an invalid tree or too few
//! non-isolated vertices ends the campaign with an [`NbfsError`] that
//! names the root or the count, never with a panic or an averaged-in
//! bad sample.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use nbfs_graph::validate::validate_bfs_tree;
use nbfs_graph::{Csr, GraphView};
use nbfs_trace::RunProfile;
use nbfs_util::rng::Xoroshiro128;
use nbfs_util::stats::RateSummary;
use nbfs_util::{NbfsError, SimTime};

use crate::engine::BfsRun;
use crate::query::{QueryEngine, SearchBackend, SearchEngine};

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

/// Runs Graph500-style campaigns of one prepared engine over one graph.
pub struct Graph500Harness<'a, E: ?Sized> {
    graph: &'a Csr,
    engine: &'a E,
}

impl<'a, E: SearchEngine + ?Sized> Graph500Harness<'a, E> {
    /// Measures `engine`, which must have been prepared over `graph` or
    /// its packed image (partitioning happened there, like kernel 1).
    pub fn new(graph: &'a Csr, engine: &'a E) -> Self {
        Self { graph, engine }
    }

    /// Samples `count` distinct search keys with degree ≥ 1, as the
    /// Graph500 run rules require.
    fn sample_roots(&self, count: usize, seed: u64) -> Result<Vec<usize>, NbfsError> {
        let n = self.graph.num_vertices();
        let candidates = (0..n).filter(|&v| self.graph.degree(v) > 0).count();
        if candidates < count {
            return Err(NbfsError::config(format!(
                "{count} search keys, but the graph has only {candidates} non-isolated vertices"
            )));
        }
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
        Ok(chosen)
    }

    /// Validates (when asked) and summarizes one iteration.
    fn root_result(
        &self,
        root: usize,
        run: &BfsRun,
        validate: bool,
    ) -> Result<RootResult, NbfsError> {
        if validate {
            let visited = validate_bfs_tree(self.graph, root, &run.parent).map_err(|e| {
                NbfsError::invalid_data(format!("validation failed at root {root}: {e}"))
            })?;
            if visited != run.visited {
                return Err(NbfsError::invalid_data(format!(
                    "validation failed at root {root}: the tree has {visited} vertices, \
                     the engine reported {}",
                    run.visited
                )));
            }
        }
        let traversed_edges = self.graph.component_edges(root) as u64;
        let time = run.profile.total();
        Ok(RootResult {
            root,
            traversed_edges,
            time,
            teps: traversed_edges as f64 / time.as_secs(),
        })
    }

    /// Runs the full campaign: the sampled roots as one batch, every
    /// iteration validated and summarized in root order (profiles are
    /// averaged in that order too, for determinism).
    ///
    /// # Errors
    /// [`NbfsError::Config`] when the graph has fewer than `config.roots`
    /// non-isolated vertices or no positive TEPS sample; the first failed
    /// search's own error, unchanged; [`NbfsError::InvalidData`] naming
    /// the root of the first invalid tree.
    pub fn run(&self, config: &HarnessConfig) -> Result<HarnessResult, NbfsError> {
        let roots = self.sample_roots(config.roots, config.seed)?;
        let searches = QueryEngine::new(SearchBackend::new(self.engine)).run_batch(&roots);
        let results: Vec<Result<(RootResult, RunProfile), NbfsError>> = roots
            .par_iter()
            .zip(searches.into_par_iter())
            .map(|(&root, search)| {
                let run = search?.run;
                Ok((self.root_result(root, &run, config.validate)?, run.profile))
            })
            .collect();
        let (per_root, profiles): (Vec<RootResult>, Vec<RunProfile>) = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let mut mean_profile = RunProfile::default();
        for p in &profiles {
            mean_profile.accumulate(p);
        }
        let teps_samples: Vec<f64> = per_root.iter().map(|r| r.teps).collect();
        Ok(HarnessResult {
            teps: RateSummary::from_samples(&teps_samples).ok_or_else(|| {
                NbfsError::config("a campaign needs at least one root and a positive TEPS sample")
            })?,
            mean_profile: mean_profile.scaled(profiles.len() as f64),
            per_root,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::engine::{DistributedBfs, HostClock, Scenario, Search};
    use crate::engine2d::TwoDimBfs;
    use crate::opt::OptLevel;
    use nbfs_graph::{CompressedCsr, GraphBuilder, NO_PARENT};
    use nbfs_topology::MachineConfig;

    fn harness_setup() -> (Csr, Scenario) {
        let g = GraphBuilder::rmat(11, 16).seed(3).build();
        let scenario = Scenario::new(MachineConfig::small_test_cluster(2, 4), OptLevel::ShareAll);
        (g, scenario)
    }

    /// A 1-D engine that breaks in one chosen way, for the fail-closed
    /// cases.
    struct Broken<'g> {
        engine: DistributedBfs<'g>,
        rank_failed: bool,
    }

    impl SearchEngine for Broken<'_> {
        fn search(&self, root: usize, clock: &dyn HostClock) -> Result<Search, NbfsError> {
            if self.rank_failed {
                return Err(NbfsError::RankFailed { rank: 3 });
            }
            let mut search = self.engine.search(root, clock)?;
            // Re-parent one reached non-root vertex onto itself.
            let parent = &mut search.run.parent;
            let v = (0..parent.len())
                .find(|&v| v != root && parent[v] != NO_PARENT)
                .unwrap();
            parent[v] = v as u32;
            Ok(search)
        }
    }

    #[test]
    fn campaign_reports_positive_teps_and_validates() {
        let (g, scenario) = harness_setup();
        let engine = DistributedBfs::new(&g, &scenario);
        let result = Graph500Harness::new(&g, &engine)
            .run(&HarnessConfig::quick(4))
            .unwrap();
        assert_eq!(result.per_root.len(), 4);
        assert!(result.harmonic_teps() > 0.0);
        assert!(result.teps.harmonic_mean <= result.teps.mean * 1.0000001);
        assert!(result.mean_profile.total() > SimTime::ZERO);
    }

    #[test]
    fn roots_are_distinct_and_non_isolated() {
        let (g, scenario) = harness_setup();
        let engine = DistributedBfs::new(&g, &scenario);
        let roots = Graph500Harness::new(&g, &engine)
            .sample_roots(16, 99)
            .unwrap();
        let set: std::collections::HashSet<_> = roots.iter().collect();
        assert_eq!(set.len(), 16);
        for &r in &roots {
            assert!(g.degree(r) > 0);
        }
    }

    #[test]
    fn root_sampling_is_deterministic() {
        let (g, scenario) = harness_setup();
        let engine = DistributedBfs::new(&g, &scenario);
        let h = Graph500Harness::new(&g, &engine);
        assert_eq!(h.sample_roots(8, 5).unwrap(), h.sample_roots(8, 5).unwrap());
        assert_ne!(h.sample_roots(8, 5).unwrap(), h.sample_roots(8, 6).unwrap());
    }

    #[test]
    fn an_invalid_tree_is_an_error_naming_its_root() {
        let (g, scenario) = harness_setup();
        let engine = Broken {
            engine: DistributedBfs::new(&g, &scenario),
            rank_failed: false,
        };
        let h = Graph500Harness::new(&g, &engine);
        let config = HarnessConfig::quick(1);
        let root = h.sample_roots(1, config.seed).unwrap()[0];
        let e = h.run(&config).unwrap_err();
        assert!(matches!(e, NbfsError::InvalidData(_)), "{e:?}");
        assert!(
            e.to_string()
                .contains(&format!("validation failed at root {root}:")),
            "{e}"
        );
        // Without validation the harness has no gate to fail.
        let unchecked = HarnessConfig {
            validate: false,
            ..config
        };
        assert!(h.run(&unchecked).is_ok());
    }

    #[test]
    fn a_search_error_comes_back_unchanged() {
        let (g, scenario) = harness_setup();
        let engine = Broken {
            engine: DistributedBfs::new(&g, &scenario),
            rank_failed: true,
        };
        let e = Graph500Harness::new(&g, &engine)
            .run(&HarnessConfig::quick(4))
            .unwrap_err();
        assert!(matches!(e, NbfsError::RankFailed { rank: 3 }), "{e:?}");
    }

    #[test]
    fn more_roots_than_non_isolated_vertices_is_an_error() {
        let (g, scenario) = harness_setup();
        let candidates = (0..g.num_vertices()).filter(|&v| g.degree(v) > 0).count();
        let engine = DistributedBfs::new(&g, &scenario);
        let h = Graph500Harness::new(&g, &engine);
        let e = h.run(&HarnessConfig::quick(candidates + 1)).unwrap_err();
        assert!(matches!(e, NbfsError::Config(_)), "{e:?}");
        let count = format!("only {candidates} non-isolated vertices");
        assert!(e.to_string().contains(&count), "{e}");
        assert!(h.run(&HarnessConfig::quick(0)).is_err(), "zero roots");
    }

    /// Regression: the harness used to re-validate the scenario's summary
    /// granularity on every root. Validation happens at engine
    /// construction — building the engine checks exactly once, and an
    /// entire campaign run on the same thread performs zero further
    /// checks.
    #[test]
    fn scenario_validation_happens_once_at_construction() {
        let (g, scenario) = harness_setup();
        let before = nbfs_util::summary::granularity_checks_on_current_thread();
        let engine = DistributedBfs::new(&g, &scenario);
        assert_eq!(
            nbfs_util::summary::granularity_checks_on_current_thread(),
            before + 1,
            "constructing the engine validates the scenario exactly once"
        );
        let h = Graph500Harness::new(&g, &engine);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap_or_else(|e| panic!("pool: {e}"));
        // A 1-thread pool keeps every per-root run on this thread, so the
        // thread-local counter observes the whole campaign.
        pool.install(|| h.run(&HarnessConfig::quick(4))).unwrap();
        assert_eq!(
            nbfs_util::summary::granularity_checks_on_current_thread(),
            before + 1,
            "running 4 roots must not re-validate the scenario"
        );
    }

    /// Every engine and storage runs the same campaign, repeatably; the
    /// packed image changes no simulated second.
    #[test]
    fn campaign_is_deterministic() {
        let (g, scenario) = harness_setup();
        let packed = CompressedCsr::from_csr(&g);
        let cfg = HarnessConfig::quick(3);
        let campaign = |engine: &dyn SearchEngine| {
            let h = Graph500Harness::new(&g, engine);
            let (a, b) = (h.run(&cfg).unwrap(), h.run(&cfg).unwrap());
            assert_eq!(a.harmonic_teps(), b.harmonic_teps());
            assert_eq!(a.mean_profile.total(), b.mean_profile.total());
            a.per_root
                .iter()
                .map(|r| {
                    (
                        r.root,
                        r.traversed_edges,
                        r.time.as_secs().to_bits(),
                        r.teps.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        campaign(&DistributedBfs::new(&g, &scenario));
        let dense = campaign(&TwoDimBfs::new(&g, &scenario));
        let packed = campaign(&TwoDimBfs::new(&packed, &scenario));
        assert_eq!(dense, packed);
    }
}

//! The `--trace 0` run: set-up, the five timed phases, and the checks.
//!
//! Order (fixed): set-up x3 (build everything, drop, rebuild; median) -> one
//! untimed reference pass of the 1-D engine -> first 1-D turn -> read `VmHWM`
//! -> dense graph (a decode on the packed workload) and one warm-up call of
//! each remaining phase -> four slices, each giving the 1-D engine, the 2-D
//! engine, `par`, full query waves and solo queries a turn -> validation pass.
//!
//! The phases take turns instead of running one after the other because this
//! host's speed drifts by several percent over a few seconds: a phase that
//! samples four windows spread over the run repeats better than one that sits
//! in a single window. A turn walks on through the phase's keys from where
//! the last one stopped until its slot of `--seconds` is spent; a key's time
//! is the median of its samples.

use nbfs_core::direction::SwitchPolicy;
use nbfs_core::engine::DistributedBfs;
use nbfs_core::engine2d::TwoDimBfs;
use nbfs_core::multi::MAX_LANES;
use nbfs_core::par::bfs_hybrid_parallel;
use nbfs_core::query::QueryEngine;
use nbfs_graph::validate::validate_bfs_tree;
use nbfs_graph::GraphView;

use crate::inputs::{
    fingerprint, peak_rss_bytes, reset_peak_rss, sample_roots, sample_waves, traversed_edges,
    Stored,
};
use crate::spans::{Layer, Recorder};
use crate::spec::Workload;
use crate::stats::{harmonic_rate, median};

/// One reported value and how many timed samples are behind it.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Result of one benchmark process.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Searches whose output was checked.
    pub attempted: u64,
    /// Searches whose output failed a check.
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Measured {
            name,
            value,
            samples,
        });
    }

    /// Counts one checked search.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Both distributed engines over one graph.
pub struct Engines<'g, G: GraphView> {
    pub bfs1d: DistributedBfs<'g, G>,
    pub bfs2d: TwoDimBfs<'g, G>,
}

/// Builds both engines the way a user would before the first search.
pub fn build_engines<'g, G: Stored>(
    w: &Workload,
    graph: &'g G,
    rec: &mut Recorder,
) -> (Engines<'g, G>, f64, f64) {
    let scenario = w.scenario();
    let (rows, cols) = w.grid();
    let (bfs1d, new1d) = rec.call("core.engine1d_new", Layer::Core, || {
        DistributedBfs::new(graph, &scenario)
    });
    let (bfs2d, new2d) = rec.call("core.engine2d_new", Layer::Core, || {
        TwoDimBfs::with_grid(graph, &scenario, rows, cols)
    });
    (Engines { bfs1d, bfs2d }, new1d, new2d)
}

/// One full set-up that keeps nothing: graph, then both engines. Returns
/// its host seconds.
pub fn setup_once<G: Stored>(w: &Workload, seed: u64, rec: &mut Recorder) -> f64 {
    let start = rec.now();
    let (graph, _) = G::build(w.graph, seed, rec);
    let engines = build_engines(w, &graph, rec);
    let total = rec.now() - start;
    drop(engines);
    total
}

/// The search keys of a run and what the reference pass learned about them.
pub struct Keys {
    pub roots: Vec<usize>,
    /// Fingerprint of the 1-D parents of each key.
    pub prints: Vec<u64>,
    /// Undirected edges in each key's component.
    pub edges: Vec<u64>,
    /// Simulated seconds of the 1-D search of each key.
    pub sim1d: Vec<f64>,
}

/// The untimed reference pass: finds the component of the highest-degree
/// vertex, samples the keys inside it, and runs the 1-D engine once per key.
/// It doubles as the warm-up.
pub fn reference_pass<G: Stored>(
    count: usize,
    seed: u64,
    graph: &G,
    bfs1d: &DistributedBfs<'_, G>,
    rec: &mut Recorder,
) -> Keys {
    let hub = graph.max_degree_vertex();
    let (reached, _) = rec.call_for("core.engine1d_run", Layer::Core, hub as u64, || {
        bfs1d.run(hub)
    });
    let roots = sample_roots(graph, &reached.parent, count, seed);
    let mut keys = Keys {
        prints: Vec::with_capacity(roots.len()),
        edges: Vec::with_capacity(roots.len()),
        sim1d: Vec::with_capacity(roots.len()),
        roots,
    };
    for &root in &keys.roots {
        let (run, _) = rec.call_for("core.engine1d_run", Layer::Core, root as u64, || {
            bfs1d.run(root)
        });
        keys.prints.push(fingerprint(&run.parent));
        keys.edges.push(traversed_edges(graph, &run.parent));
        keys.sim1d.push(run.profile.total().as_secs());
    }
    keys
}

/// `take` indices spread evenly over `0..len` (all of them when `take >= len`).
pub fn spread(len: usize, take: usize) -> Vec<usize> {
    let take = take.clamp(1, len);
    (0..take).map(|i| (2 * i + 1) * len / (2 * take)).collect()
}

/// Slices the timed part of a run is cut into; every phase gets one turn in
/// each.
const SLICES: usize = 4;

/// Distinct key sets the full query waves cycle through: few enough that each
/// is submitted several times in a run, so a set's median time is robust.
const WAVE_SETS: usize = 4;

/// The timed samples of one phase: host seconds per key, and where the next
/// turn picks up.
pub struct Lane {
    name: &'static str,
    samples: Vec<Vec<f64>>,
    next: usize,
}

impl Lane {
    pub fn new(name: &'static str, keys: usize) -> Self {
        Self {
            name,
            samples: vec![Vec::new(); keys],
            next: 0,
        }
    }

    /// One turn: times `call(key)` for successive keys (wrapping round)
    /// until `slot` host seconds are spent, at least once. `check(key,
    /// &result)` runs outside the timed region.
    pub fn turn<T>(
        &mut self,
        rec: &mut Recorder,
        slot: f64,
        mut call: impl FnMut(usize) -> T,
        mut check: impl FnMut(usize, &T),
    ) {
        let start = rec.now();
        loop {
            let key = self.next % self.samples.len();
            let (out, secs) = rec.call_for(self.name, Layer::Core, key as u64, || call(key));
            self.samples[key].push(secs);
            self.next += 1;
            check(key, &out);
            if rec.now() - start >= slot {
                return;
            }
        }
    }

    /// Whether every key has been timed at least once.
    pub fn covered(&self) -> bool {
        self.next >= self.samples.len()
    }

    /// Median seconds of each key.
    pub fn medians(&self) -> Vec<f64> {
        self.samples.iter().map(|s| median(s)).collect()
    }

    /// Every sample, in key order.
    pub fn all(&self) -> Vec<f64> {
        self.samples.concat()
    }

    pub fn count(&self) -> usize {
        self.next
    }
}

/// Runs the workload end to end and reports every end-to-end metric.
pub fn run_end_to_end<G: Stored>(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut rec = Recorder::new(false);
    let rec = &mut rec;
    let mut out = Outcome::default();

    // Set-up, three times over; the third construction is the one searched.
    let mut setups = vec![setup_once::<G>(w, seed, rec), setup_once::<G>(w, seed, rec)];
    let start = rec.now();
    let (graph, _) = G::build(w.graph, seed, rec);
    let (engines, _, _) = build_engines(w, &graph, rec);
    setups.push(rec.now() - start);
    out.push("setup_s", median(&setups), setups.len());
    // Set-up's transient buffers (edge lists, sort scratch) peak above what
    // stays resident and move with allocator timing: they get a metric of
    // their own, and the mark restarts so `peak_rss_bytes` is the peak while
    // searching.
    out.push("setup_peak_rss_bytes", peak_rss_bytes() as f64, 1);
    reset_peak_rss();

    let keys = reference_pass(w.roots, seed, &graph, &engines.bfs1d, rec);
    let Keys {
        roots,
        prints,
        edges,
        sim1d,
    } = &keys;
    let slot = |share: f64| seconds * share / SLICES as f64;
    // A search's tree must be the validated 1-D tree of its key.
    let mut failed = 0u64;
    let mut same =
        |key: usize, parent: &[u32]| failed += u64::from(fingerprint(parent) != prints[key]);

    // First 1-D turn, then the resident peak of what set-up left plus the
    // 1-D engine at work: read before the 2-D engine runs (its per-run block
    // rebuild moves the later peak) and before any dense copy of a packed
    // graph exists.
    let mut lane1d = Lane::new("core.engine1d_run", roots.len());
    let turn1d = |rec: &mut Recorder, lane: &mut Lane, same: &mut dyn FnMut(usize, &[u32])| {
        lane.turn(
            rec,
            slot(w.shares.bfs1d),
            |key| engines.bfs1d.run(roots[key]),
            |key, run| same(key, &run.parent),
        );
    };
    turn1d(rec, &mut lane1d, &mut same);
    out.push("peak_rss_bytes", peak_rss_bytes() as f64, 1);

    // The 2-D engine runs keys spread evenly through the degree-ordered
    // list; the shared-memory kernel and the query service search the dense
    // graph. One warm-up call each.
    let picks = spread(roots.len(), w.roots_2d);
    let mut sim2d = vec![0.0; picks.len()];
    let mut lane2d = Lane::new("core.engine2d_run", picks.len());
    let dense = graph.dense();
    let dense = dense.as_ref();
    let policy = SwitchPolicy::default();
    let mut lane_par = Lane::new("core.par_run", roots.len());
    let service = QueryEngine::bit_parallel(dense);
    let waves = sample_waves(roots.len(), MAX_LANES, WAVE_SETS, seed);
    let submitted: Vec<Vec<usize>> = waves
        .iter()
        .map(|set| set.iter().map(|&key| roots[key]).collect())
        .collect();
    let mut lane_waves = Lane::new("core.query_run_batch", waves.len());
    let mut lane_solos = Lane::new("core.query_solo", roots.len());
    same(picks[0], &engines.bfs2d.run(roots[picks[0]]).parent);
    same(0, &bfs_hybrid_parallel(dense, roots[0], policy).parent);
    for (&key, answer) in waves[0].iter().zip(service.run_batch(&submitted[0])) {
        same(key, &answer.parent);
    }
    out.attempted += 2 + waves[0].len() as u64;

    let mut slice = 0;
    while slice < SLICES
        || !(lane1d.covered()
            && lane2d.covered()
            && lane_par.covered()
            && lane_waves.covered()
            && lane_solos.covered())
    {
        if slice > 0 {
            turn1d(rec, &mut lane1d, &mut same);
        }
        lane2d.turn(
            rec,
            slot(w.shares.bfs2d),
            |i| engines.bfs2d.run(roots[picks[i]]),
            |i, run| {
                same(picks[i], &run.parent);
                sim2d[i] = run.profile.total().as_secs();
            },
        );
        lane_par.turn(
            rec,
            slot(w.shares.par),
            |key| bfs_hybrid_parallel(dense, roots[key], policy),
            |key, run| same(key, &run.parent),
        );
        // One closed-loop caller. Full waves back to back, then single
        // queries at lane occupancy 1/64.
        lane_waves.turn(
            rec,
            slot(w.shares.waves),
            |set| service.run_batch(&submitted[set]),
            |set, answers| {
                for (&key, answer) in waves[set].iter().zip(answers) {
                    same(key, &answer.parent);
                }
            },
        );
        lane_solos.turn(
            rec,
            slot(w.shares.solos),
            |key| service.query(roots[key]),
            |key, answer| same(key, &answer.parent),
        );
        slice += 1;
    }

    let edges2d: Vec<u64> = picks.iter().map(|&i| edges[i]).collect();
    let wave_secs = lane_waves.all();
    let answered = wave_secs.len() * MAX_LANES;
    // Throughput over one cycle of the key sets at each set's median time: a
    // single stalled wave does not decide it.
    let cycle_secs: f64 = lane_waves.medians().iter().sum();
    out.attempted +=
        (lane1d.count() + lane2d.count() + lane_par.count() + lane_solos.count() + answered) as u64;
    out.failed += failed;
    out.push(
        "bfs1d_host_mteps",
        harmonic_rate(edges, &lane1d.medians(), 1e6),
        lane1d.count(),
    );
    out.push(
        "bfs2d_host_mteps",
        harmonic_rate(&edges2d, &lane2d.medians(), 1e6),
        lane2d.count(),
    );
    out.push(
        "par_host_mteps",
        harmonic_rate(edges, &lane_par.medians(), 1e6),
        lane_par.count(),
    );
    out.push(
        "bfs1d_sim_gteps",
        harmonic_rate(edges, sim1d, 1e9),
        roots.len(),
    );
    out.push(
        "bfs2d_sim_gteps",
        harmonic_rate(&edges2d, &sim2d, 1e9),
        picks.len(),
    );
    out.push(
        "query_qps",
        (WAVE_SETS * MAX_LANES) as f64 / cycle_secs,
        wave_secs.len(),
    );
    out.push("query_wave_s_p50", median(&wave_secs), wave_secs.len());
    let solo_secs = lane_solos.all();
    out.push("query_solo_s_p50", median(&solo_secs), solo_secs.len());

    // Every fingerprint above was compared with the 1-D tree of its key;
    // validate those trees against the graph itself.
    for (key, &root) in roots.iter().enumerate() {
        let run = engines.bfs1d.run(root);
        let valid = validate_bfs_tree(dense, root, &run.parent);
        out.check(fingerprint(&run.parent) == prints[key] && valid == Ok(run.visited));
    }
    out
}

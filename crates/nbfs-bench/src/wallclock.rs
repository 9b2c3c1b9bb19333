//! Wall-clock benchmark snapshot: reference vs optimized bottom-up kernel.
//!
//! Simulated time answers "what would the 2012 cluster do"; this module
//! answers "how fast does the *host* actually run the real kernels". It
//! pins one fixed scenario — the scale-19 R-MAT on one 8-socket Xeon X7550
//! node at `Original.ppn=8` (8 ranks, ring allgather, private bitmaps) —
//! runs the engine once per bottom-up kernel (baseline: per-bit scan;
//! optimized: word-level scan — top-down is the one owner walk in both),
//! and writes the before/after comparison with a per-phase breakdown to
//! `BENCH_BFS.json` at the repository root.
//!
//! Regenerate with either of:
//!
//! ```text
//! cargo run -p nbfs-bench --release --bin bench-snapshot
//! cargo run -p nbfs-cli   --release --bin nbfs -- bench --json BENCH_BFS.json
//! ```
//!
//! Timings take the minimum over `repeats` runs (minimum, not mean: noise
//! on a shared host only ever adds time). The two kernels must produce
//! bit-identical trees and simulated profiles; the snapshot asserts this
//! and records it under `identical_results`.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use nbfs_comm::codec::Codec;
use nbfs_core::direction::{Direction, SwitchPolicy};
use nbfs_core::engine::{BottomUpKernel, DistributedBfs, HostClock, Scenario, WallClock};
use nbfs_core::engine2d::TwoDimBfs;
use nbfs_core::opt::OptLevel;
use nbfs_core::par::bfs_hybrid_parallel;
use nbfs_core::query::QueryEngine;
use nbfs_graph::rmat::{self, RmatParams};
use nbfs_graph::{Csr, GraphView, NO_PARENT};
use nbfs_topology::{presets, MachineConfig};
use nbfs_trace::TraceConfig;
use nbfs_util::rng::Xoroshiro128;

use crate::scenarios;

/// The real host clock — the one [`HostClock`] implementation in the
/// workspace that actually reads `std::time` (this module is the NBFS002
/// sanctuary; see DESIGN.md, "Static analysis & race checking").
pub struct HostTimer(Instant);

impl HostTimer {
    /// Starts a timer at the current instant.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self(Instant::now())
    }

    /// Seconds elapsed since [`HostTimer::new`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl HostClock for HostTimer {
    fn now_secs(&self) -> f64 {
        self.elapsed_secs()
    }
}

/// Knobs of the snapshot run. [`Default`] is the committed configuration;
/// tests shrink the scale to stay fast.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotConfig {
    /// R-MAT scale (log2 vertices) of the benchmark graph.
    pub scale: u32,
    /// Runs per kernel; the per-field minimum is reported.
    pub repeats: usize,
    /// Queries in the seeded synthetic stream of the multi-query section
    /// (sampled with replacement, so duplicates occur as they would in a
    /// real service).
    pub queries: usize,
    /// Submitter threads driving the concurrent latency stream.
    pub submitters: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        Self {
            scale: 19,
            repeats: 5,
            queries: 128,
            submitters: 8,
        }
    }
}

/// Current schema version of `BENCH_BFS.json`. Version 2 added the
/// top-down phase to the comparison (per-phase seconds and level counts,
/// a top-down speedup ratio) and made the reader version-strict. Version 3
/// added the `collective_volume` section: per-codec Fig. 11 collective
/// byte totals on the multi-node cluster. Version 4 added
/// the `multi_query` section: sustained queries/sec and p50/p99 latency of
/// the bit-parallel multi-source engine against a sequential single-source
/// baseline. Version 5 added the `two_dim` section: a weak-scaling GTEPS
/// table of the direction-optimizing 2-D engine on compressed CSR storage
/// (grid shapes x scales, per-codec parity rows, and — at the committed
/// scale — a simnet projection of the paper's 16-node configuration at
/// scale 24). Version 6 dropped the top-down speedup ratio: the two
/// top-down kernels it compared were replaced by one owner walk.
pub const SCHEMA_VERSION: u32 = 6;

/// The scenario block of the snapshot — everything needed to reproduce it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioInfo {
    /// Graph generator ("rmat").
    pub generator: String,
    /// R-MAT scale.
    pub scale: u32,
    /// Edges per vertex fed to the generator.
    pub edge_factor: usize,
    /// Vertices in the built graph.
    pub vertices: usize,
    /// Directed adjacency entries in the built graph.
    pub edges: usize,
    /// Simulated machine.
    pub machine: String,
    /// Optimization rung (Fig. 9 label).
    pub opt_level: String,
    /// MPI ranks the scenario spawns.
    pub ranks: usize,
    /// BFS root (highest-degree vertex).
    pub root: usize,
    /// Runs per kernel (minimum reported).
    pub repeats: usize,
}

/// Wall-clock timings of one kernel configuration, per phase.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelTiming {
    /// Which bottom-up kernel ran.
    pub kernel: String,
    /// Seconds in bottom-up kernel dispatch (min over repeats).
    pub bottom_up_secs: f64,
    /// Seconds in top-down kernel dispatch (min over repeats).
    pub top_down_secs: f64,
    /// Seconds outside the two kernels — collectives, direction control,
    /// frontier conversions (derived: total minus the kernel phases).
    pub other_secs: f64,
    /// Whole-run seconds (min over repeats).
    pub total_secs: f64,
    /// Bottom-up levels per run.
    pub bottom_up_levels: u32,
    /// Top-down levels per run.
    pub top_down_levels: u32,
    /// Real adjacency entries the bottom-up kernels examined per run.
    pub bottom_up_edges: u64,
}

/// Fig. 11 collective byte totals of one codec's traced run, summed over
/// every collective sample (per-level plus the terminal allreduce).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CodecVolume {
    /// Codec label (`raw`, `delta-varint`).
    pub codec: String,
    /// Bytes the same exchanges would have moved uncompressed.
    pub raw_bytes: u64,
    /// Bytes actually charged to the wire (encoded).
    pub wire_bytes: u64,
    /// Shared-memory bytes actually charged (encoded).
    pub shm_bytes: u64,
    /// `raw run's wire_bytes / this run's wire_bytes` — the headline
    /// cross-run reduction (1.0 for the raw row).
    pub wire_reduction_vs_raw: f64,
    /// BFS parents bit-identical to the raw-codec run.
    pub identical_results: bool,
}

/// The per-codec collective-volume section of the snapshot, measured on
/// the multi-node cluster (the single-node kernel scenario has no wire).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CollectiveVolume {
    /// Simulated machine of this section.
    pub machine: String,
    /// Cluster node count.
    pub nodes: usize,
    /// Optimization rung of the traced runs.
    pub opt_level: String,
    /// One row per codec, in `Codec::ALL` order (raw first).
    pub per_codec: Vec<CodecVolume>,
}

/// Sustained multi-query throughput: the schema-v4 `multi_query` section.
///
/// One seeded synthetic query stream, measured two ways on the host:
/// sequentially (one [`bfs_hybrid_parallel`] run per query — what a naive
/// service would do) and batched through the [`QueryEngine`]'s
/// bit-parallel waves. A third pass drives the same stream through the
/// engine's admission queue from concurrent submitter threads to observe
/// per-query latency. Every batched answer must be bit-identical to its
/// per-root baseline run (`identical_results`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiQueryBench {
    /// Queries in the stream (sampled with replacement, seeded).
    pub queries: usize,
    /// Lanes fused per wave in the batched run.
    pub batch: usize,
    /// Submitter threads of the concurrent latency pass.
    pub submitters: usize,
    /// Sequential baseline: queries per host second.
    pub sequential_qps: f64,
    /// Sequential baseline: whole-stream seconds.
    pub sequential_total_secs: f64,
    /// Batched engine: queries per host second.
    pub batched_qps: f64,
    /// Batched engine: whole-stream seconds.
    pub batched_total_secs: f64,
    /// `batched_qps / sequential_qps` — the headline.
    pub batched_speedup: f64,
    /// Median per-query latency (seconds) under the concurrent stream.
    pub p50_latency_secs: f64,
    /// 99th-percentile per-query latency (seconds) under the concurrent
    /// stream.
    pub p99_latency_secs: f64,
    /// Waves the batched run executed (`ceil(queries / batch)`).
    pub waves: u64,
    /// Every engine answer bit-identical to its sequential baseline run.
    pub identical_results: bool,
}

/// Per-scale storage accounting of the `two_dim` section's compressed
/// graphs (one entry per weak-scaling step, shared by all grid rows of
/// that scale).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwoDimScaleInfo {
    /// R-MAT scale of this step.
    pub scale: u32,
    /// Vertices in the built graph.
    pub vertices: usize,
    /// Directed adjacency entries in the built graph.
    pub arcs: usize,
    /// [`nbfs_graph::CompressedCsr`] footprint (delta-varint payload + packed offsets).
    pub compressed_bytes: u64,
    /// What the same adjacency would cost as a dense [`Csr`]
    /// (`(n + 1) * 8` offset bytes plus `arcs * 4` target bytes) —
    /// computed analytically so large scales never materialize it.
    pub uncompressed_bytes: u64,
    /// `uncompressed_bytes / compressed_bytes`.
    pub compression_ratio: f64,
}

/// One weak-scaling measurement of the 2-D direction-optimizing engine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwoDimRow {
    /// R-MAT scale of this row.
    pub scale: u32,
    /// Grid shape, `"RxC"`.
    pub grid: String,
    /// Simulated traversed edges per second, in billions
    /// (`traversed / sim_secs / 1e9` with traversed = half the degree sum
    /// of the visited component).
    pub gteps: f64,
    /// Bottom-up levels the hybrid executed.
    pub bottom_up_levels: u32,
    /// Top-down levels the hybrid executed.
    pub top_down_levels: u32,
    /// Parents bit-identical to the 1-D engine on the same graph.
    pub identical_results: bool,
}

/// Codec-parity row of the `two_dim` section: the natural grid at the base
/// scale, one run per wire codec, each required to reproduce the raw-codec
/// 1-D parents bit for bit.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwoDimCodecRow {
    /// Codec label (`raw`, `delta-varint`).
    pub codec: String,
    /// Parents bit-identical to the 1-D reference run.
    pub identical_results: bool,
}

/// Simnet projection of the paper's full 16-node cluster at scale 24 —
/// the order-of-magnitude-up configuration the compressed storage exists
/// for. No 1-D comparison: a dense CSR at this scale is the thing being
/// avoided.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwoDimProjection {
    /// R-MAT scale.
    pub scale: u32,
    /// Cluster nodes.
    pub nodes: usize,
    /// MPI ranks (natural grid: nodes x ranks-per-node).
    pub ranks: usize,
    /// Grid shape, `"RxC"`.
    pub grid: String,
    /// Vertices the BFS visited.
    pub visited: usize,
    /// Simulated GTEPS of the run.
    pub gteps: f64,
    /// Bottom-up levels the hybrid executed.
    pub bottom_up_levels: u32,
    /// [`nbfs_graph::CompressedCsr`] footprint of the scale-24 graph.
    pub compressed_bytes: u64,
    /// Analytic dense-CSR footprint of the same graph.
    pub uncompressed_bytes: u64,
}

/// The schema-v5 `two_dim` section: weak-scaling GTEPS of the
/// direction-optimizing 2-D engine on compressed CSR storage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwoDimBench {
    /// Simulated machine of the weak-scaling rows.
    pub machine: String,
    /// Cluster node count of the weak-scaling rows.
    pub nodes: usize,
    /// MPI ranks every grid shape must tile.
    pub ranks: usize,
    /// Optimization rung of the runs.
    pub opt_level: String,
    /// Storage backing every run ("compressed-csr (delta-varint)").
    pub storage: String,
    /// Per-scale graph and storage accounting.
    pub scales: Vec<TwoDimScaleInfo>,
    /// Weak-scaling GTEPS rows, scales x grid shapes.
    pub rows: Vec<TwoDimRow>,
    /// Codec-parity rows on the natural grid at the base scale.
    pub per_codec: Vec<TwoDimCodecRow>,
    /// Scale-24 16-node projection; present only when the snapshot runs
    /// at the committed scale (tests shrink the scale and skip it).
    pub projection: Option<TwoDimProjection>,
}

/// Derived throughput numbers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Throughput {
    /// Real bottom-up adjacency entries per host second (word-level kernel).
    pub real_bottom_up_edges_per_sec: f64,
    /// Simulated traversed-edges-per-second on the modelled 2012 cluster.
    pub simulated_teps: f64,
}

/// The whole `BENCH_BFS.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version of this document.
    pub schema_version: u32,
    /// What the numbers are.
    pub benchmark: String,
    /// The pinned scenario.
    pub scenario: ScenarioInfo,
    /// Reference bottom-up kernel timings (before).
    pub baseline: KernelTiming,
    /// Optimized bottom-up kernel timings (after).
    pub optimized: KernelTiming,
    /// `baseline.bottom_up_secs / optimized.bottom_up_secs`.
    pub bottom_up_speedup: f64,
    /// `baseline.total_secs / optimized.total_secs`.
    pub total_speedup: f64,
    /// Derived rates.
    pub throughput: Throughput,
    /// Both kernels produced identical trees and simulated profiles.
    pub identical_results: bool,
    /// Per-codec collective byte totals on the multi-node cluster.
    pub collective_volume: CollectiveVolume,
    /// Sustained multi-query service throughput and latency.
    pub multi_query: MultiQueryBench,
    /// Weak-scaling 2-D engine on compressed CSR storage.
    pub two_dim: TwoDimBench,
}

/// Runs the engine `repeats` times and keeps the per-field minimum wall
/// clock (results are deterministic, so the last run's tree stands in for
/// all of them).
fn measure(
    bfs: &DistributedBfs<'_>,
    root: usize,
    repeats: usize,
) -> (nbfs_core::engine::BfsRun, WallClock) {
    assert!(repeats > 0, "need at least one repeat");
    let clock = HostTimer::new();
    let (mut run, mut best) = bfs.run_timed(root, &clock);
    for _ in 1..repeats {
        let (r, w) = bfs.run_timed(root, &clock);
        best.bottom_up_secs = best.bottom_up_secs.min(w.bottom_up_secs);
        best.top_down_secs = best.top_down_secs.min(w.top_down_secs);
        best.total_secs = best.total_secs.min(w.total_secs);
        run = r;
    }
    (run, best)
}

fn timing(kernel: &str, wall: &WallClock) -> KernelTiming {
    KernelTiming {
        kernel: kernel.to_string(),
        bottom_up_secs: wall.bottom_up_secs,
        top_down_secs: wall.top_down_secs,
        other_secs: (wall.total_secs - wall.bottom_up_secs - wall.top_down_secs).max(0.0),
        total_secs: wall.total_secs,
        bottom_up_levels: wall.bottom_up_levels,
        top_down_levels: wall.top_down_levels,
        bottom_up_edges: wall.bottom_up_edges,
    }
}

/// Measures the per-codec Fig. 11 collective byte totals: one traced run
/// per codec on the 16-node cluster, with every non-raw run required to
/// reproduce the raw run's BFS parents bit for bit (the engine asserts
/// payload round trips internally; this checks the end result too).
fn measure_collective_volume(graph: &Csr, cfg: &SnapshotConfig) -> CollectiveVolume {
    let nodes = 16usize;
    let machine = presets::xeon_x7550_cluster(nodes).scaled_to_graph(cfg.scale, 28);
    let opt = OptLevel::Granularity(256);
    let root = scenarios::best_root(graph);
    let mut raw_parent: Option<Vec<u32>> = None;
    let mut raw_wire = 0u64;
    let mut per_codec = Vec::with_capacity(Codec::ALL.len());
    for codec in Codec::ALL {
        let scenario = Scenario::builder(machine.clone(), opt)
            .trace(TraceConfig::Standard)
            .codec(codec)
            .build()
            .expect("preset machines validate");
        let (run, report) = DistributedBfs::new(graph, &scenario).run_traced(root);
        let identical = match &raw_parent {
            None => {
                raw_parent = Some(run.parent.clone());
                true
            }
            Some(parent) => *parent == run.parent,
        };
        assert!(
            identical,
            "codec {} diverged from the raw BFS parents",
            codec.label()
        );
        let (mut raw_bytes, mut wire_bytes, mut shm_bytes) = (0u64, 0u64, 0u64);
        let samples = report
            .levels
            .iter()
            .flat_map(|l| l.collectives.iter())
            .chain(report.post_collectives.iter());
        for rec in samples {
            raw_bytes += rec.stats.raw_bytes;
            wire_bytes += rec.stats.wire_bytes;
            shm_bytes += rec.stats.shm_bytes;
        }
        if codec.is_raw() {
            raw_wire = wire_bytes;
        }
        per_codec.push(CodecVolume {
            codec: codec.label().to_string(),
            raw_bytes,
            wire_bytes,
            shm_bytes,
            wire_reduction_vs_raw: raw_wire as f64 / wire_bytes.max(1) as f64,
            identical_results: identical,
        });
    }
    CollectiveVolume {
        machine: format!("xeon_x7550_cluster ({nodes} nodes)"),
        nodes,
        opt_level: opt.label(),
        per_codec,
    }
}

/// Grid shapes of the weak-scaling rows — every way to tile the 8 ranks
/// of the two-node test cluster (2 nodes x 4 sockets); 2x4 is the natural
/// mapping (rows = nodes, columns = ranks per node).
const TWO_DIM_GRIDS: [(usize, usize); 3] = [(1, 8), (2, 4), (4, 2)];

/// Highest-degree vertex of any [`GraphView`] — [`scenarios::best_root`]
/// for graphs that never materialize a dense [`Csr`].
fn best_root_view<G: GraphView>(graph: &G) -> usize {
    (0..graph.num_vertices())
        .max_by_key(|&v| graph.degree(v))
        .unwrap_or(0)
}

/// Half the degree sum of the visited component — the traversed-edge
/// count GTEPS divides by (each undirected edge inside the component is
/// stored as two arcs, both endpoints visited).
fn traversed_edges<G: GraphView>(graph: &G, parent: &[u32]) -> u64 {
    let mut arcs = 0u64;
    for (v, &p) in parent.iter().enumerate() {
        if p != NO_PARENT {
            arcs += graph.degree(v) as u64;
        }
    }
    arcs / 2
}

/// Analytic dense-CSR footprint of an `n`-vertex, `arcs`-arc graph —
/// mirrors [`Csr`]'s `size_bytes` (`(n + 1)` 8-byte offsets plus 4-byte
/// targets) without ever building the dense graph.
fn dense_csr_bytes(n: usize, arcs: usize) -> u64 {
    (n as u64 + 1) * 8 + arcs as u64 * 4
}

/// Bottom-up and top-down level counts of a run profile.
fn direction_levels(profile: &nbfs_core::profile::RunProfile) -> (u32, u32) {
    let (mut bu, mut td) = (0u32, 0u32);
    for level in &profile.levels {
        if level.direction == Direction::BottomUp {
            bu += 1;
        } else {
            td += 1;
        }
    }
    (bu, td)
}

/// Measures the `two_dim` section: the direction-optimizing 2-D engine on
/// compressed CSR storage, weak-scaled upward from the snapshot scale on
/// a two-node cluster, with every run's parents checked bit for bit
/// against the 1-D engine on the same graph. At the committed scale the
/// sweep covers four scales (base..base+3) and adds the scale-24 16-node
/// projection; smaller test configurations cover two scales and skip the
/// projection so debug runs stay fast.
fn measure_two_dim(cfg: &SnapshotConfig) -> TwoDimBench {
    let nodes = 2usize;
    let sockets = 4usize;
    let opt = OptLevel::Granularity(256);
    let steps = if cfg.scale >= 19 { 4u32 } else { 2 };

    let mut scales = Vec::with_capacity(steps as usize);
    let mut rows = Vec::with_capacity(steps as usize * TWO_DIM_GRIDS.len());
    let mut per_codec = Vec::with_capacity(Codec::ALL.len());

    for step in 0..steps {
        let scale = cfg.scale + step;
        // Single-pass streaming build: one pass's arc buffer fits the
        // bench host, and the multi-pass path is exercised by the
        // generator's own tests.
        let packed = rmat::generate_compressed(&RmatParams::graph500(scale, 16, 1), 1);
        let machine = MachineConfig::small_test_cluster(nodes, sockets).scaled_to_graph(scale, 28);
        let scenario = Scenario::new(machine, opt);
        let root = best_root_view(&packed);

        let reference = DistributedBfs::new(&packed, &scenario).run(root);
        let traversed = traversed_edges(&packed, &reference.parent);

        for &(r, c) in &TWO_DIM_GRIDS {
            let run = TwoDimBfs::with_grid(&packed, &scenario, r, c).run(root);
            let (bu, td) = direction_levels(&run.profile);
            let identical = run.parent == reference.parent;
            assert!(
                identical,
                "2-D {r}x{c} diverged from the 1-D parents at scale {scale}"
            );
            rows.push(TwoDimRow {
                scale,
                grid: format!("{r}x{c}"),
                gteps: traversed as f64 / run.profile.total().as_secs() / 1e9,
                bottom_up_levels: bu,
                top_down_levels: td,
                identical_results: identical,
            });
        }

        // Codec parity on the natural grid, base scale only: every wire
        // codec must route the 2-D expand/fold without disturbing the
        // parents.
        if step == 0 {
            for codec in Codec::ALL {
                let coded = Scenario::builder(
                    MachineConfig::small_test_cluster(nodes, sockets).scaled_to_graph(scale, 28),
                    opt,
                )
                .codec(codec)
                .build()
                .expect("preset machines validate");
                let run = TwoDimBfs::with_grid(&packed, &coded, nodes, sockets).run(root);
                let identical = run.parent == reference.parent;
                assert!(
                    identical,
                    "2-D codec {} diverged from the 1-D parents",
                    codec.label()
                );
                per_codec.push(TwoDimCodecRow {
                    codec: codec.label().to_string(),
                    identical_results: identical,
                });
            }
        }

        let compressed_bytes = packed.size_bytes() as u64;
        let uncompressed_bytes = dense_csr_bytes(packed.num_vertices(), packed.num_arcs());
        scales.push(TwoDimScaleInfo {
            scale,
            vertices: packed.num_vertices(),
            arcs: packed.num_arcs(),
            compressed_bytes,
            uncompressed_bytes,
            compression_ratio: uncompressed_bytes as f64 / compressed_bytes as f64,
        });
    }

    let projection = (cfg.scale >= 19).then(|| {
        let scale = 24u32;
        let cluster_nodes = 16usize;
        let packed = rmat::generate_compressed(&RmatParams::graph500(scale, 16, 1), 1);
        let machine = presets::xeon_x7550_cluster(cluster_nodes).scaled_to_graph(scale, 28);
        let scenario = Scenario::new(machine, opt);
        let root = best_root_view(&packed);
        let engine = TwoDimBfs::new(&packed, &scenario);
        let (grid_rows, grid_cols) = engine.grid();
        let run = engine.run(root);
        let traversed = traversed_edges(&packed, &run.parent);
        let (bu, _) = direction_levels(&run.profile);
        TwoDimProjection {
            scale,
            nodes: cluster_nodes,
            ranks: grid_rows * grid_cols,
            grid: format!("{grid_rows}x{grid_cols}"),
            visited: run.visited,
            gteps: traversed as f64 / run.profile.total().as_secs() / 1e9,
            bottom_up_levels: bu,
            compressed_bytes: packed.size_bytes() as u64,
            uncompressed_bytes: dense_csr_bytes(packed.num_vertices(), packed.num_arcs()),
        }
    });

    TwoDimBench {
        machine: format!("small_test_cluster ({nodes} nodes x {sockets} sockets)"),
        nodes,
        ranks: nodes * sockets,
        opt_level: opt.label(),
        storage: "compressed-csr (delta-varint)".into(),
        scales,
        rows,
        per_codec,
        projection,
    }
}

/// Samples the seeded synthetic query stream: `count` non-isolated roots,
/// with replacement (a real service sees repeat queries).
fn query_stream(graph: &Csr, count: usize) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut rng = Xoroshiro128::new(0x5e7_1ce);
    let mut roots = Vec::with_capacity(count);
    while roots.len() < count {
        let v = rng.next_below(n as u64) as usize;
        if graph.degree(v) > 0 {
            roots.push(v);
        }
    }
    roots
}

/// Measures the `multi_query` section: one query stream, run sequentially
/// (per-root hybrid kernel), batched (bit-parallel waves) and concurrently
/// (admission queue under submitter threads, for latency percentiles).
fn measure_multi_query(graph: &Csr, cfg: &SnapshotConfig) -> MultiQueryBench {
    let roots = query_stream(graph, cfg.queries.max(1));
    let queries = roots.len();

    // Batched: the stream as ceil(queries/64) bit-parallel waves. One
    // untimed warm-up pass over the full stream first: a long-lived
    // service recycles its pooled workspace, so steady-state throughput —
    // not the first wave's lane-table allocation and page faults — is the
    // number a batching-vs-no-batching decision needs. The sequential
    // baseline has no equivalent cold cost (its per-run state is small),
    // so warming only the engine keeps the comparison conservative. The
    // batched pass runs first so neither measurement pays page faults for
    // the other pass's retained result arrays.
    let timer = HostTimer::new();
    let engine = QueryEngine::bit_parallel(graph);
    std::hint::black_box(engine.run_batch(&roots));
    let waves_before = engine.stats().waves;
    let batch_start = timer.now_secs();
    let answers = engine.run_batch(&roots);
    let batched_total_secs = (timer.now_secs() - batch_start).max(f64::MIN_POSITIVE);
    let waves = engine.stats().waves - waves_before;

    // Sequential baseline: what a service without batching pays — one
    // full traversal per query. Only the solo runs are timed; the
    // bit-for-bit comparison happens between measurements, and each
    // batch answer is dropped as soon as it is checked so the baseline
    // runs under the same memory footprint a batch-free service would.
    let mut sequential_total_secs = 0.0f64;
    let mut identical_results = true;
    for (&root, answer) in roots.iter().zip(answers) {
        let solo_start = timer.now_secs();
        let solo = bfs_hybrid_parallel(graph, root, SwitchPolicy::default());
        sequential_total_secs += timer.now_secs() - solo_start;
        identical_results &= answer.parent == solo.parent;
    }
    let sequential_total_secs = sequential_total_secs.max(f64::MIN_POSITIVE);
    assert!(
        identical_results,
        "batched engine answers diverged from the per-root baseline"
    );

    // Concurrent latency pass: submitters share the admission queue, each
    // query timed from submission to answer.
    let submitters = cfg.submitters.clamp(1, queries);
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let engine = &engine;
                let timer = &timer;
                let slice: Vec<usize> = roots.iter().copied().skip(s).step_by(submitters).collect();
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(slice.len());
                    for root in slice {
                        let start = timer.now_secs();
                        let answer = engine.query(root);
                        std::hint::black_box(answer.visited);
                        lats.push(timer.now_secs() - start);
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    latencies.sort_by(f64::total_cmp);
    let pick = |q: usize| latencies[(latencies.len() - 1) * q / 100];

    let sequential_qps = queries as f64 / sequential_total_secs;
    let batched_qps = queries as f64 / batched_total_secs;
    MultiQueryBench {
        queries,
        batch: engine.batch_limit(),
        submitters,
        sequential_qps,
        sequential_total_secs,
        batched_qps,
        batched_total_secs,
        batched_speedup: batched_qps / sequential_qps,
        p50_latency_secs: pick(50),
        p99_latency_secs: pick(99),
        waves,
        identical_results,
    }
}

/// Runs only the multi-query section on the cached benchmark graph —
/// the `nbfs serve-bench` entry point.
pub fn run_multi_query_bench(cfg: &SnapshotConfig) -> MultiQueryBench {
    measure_multi_query(scenarios::graph(cfg.scale), cfg)
}

/// One-line human summary of the `multi_query` section.
pub fn multi_query_summary(mq: &MultiQueryBench) -> String {
    format!(
        "{} queries | batch {} | {:.0} qps sequential -> {:.0} qps batched ({:.2}x) | \
         p50 {:.2} ms | p99 {:.2} ms | {} waves | identical results: {}",
        mq.queries,
        mq.batch,
        mq.sequential_qps,
        mq.batched_qps,
        mq.batched_speedup,
        mq.p50_latency_secs * 1e3,
        mq.p99_latency_secs * 1e3,
        mq.waves,
        mq.identical_results
    )
}

/// Runs the pinned before/after comparison on `graph` and returns the
/// snapshot document.
pub fn run_snapshot_on(graph: &Csr, cfg: &SnapshotConfig) -> Snapshot {
    let machine = presets::xeon_x7550_node().scaled_to_graph(cfg.scale, 28);
    let scenario = Scenario::new(machine, OptLevel::OriginalPpn8);
    let root = scenarios::best_root(graph);

    let engine = DistributedBfs::new(graph, &scenario);
    let ranks = engine.process_map().world_size();

    let baseline = engine.with_bottom_up_kernel(BottomUpKernel::Reference);
    let (ref_run, ref_wall) = measure(&baseline, root, cfg.repeats);
    let optimized =
        DistributedBfs::new(graph, &scenario).with_bottom_up_kernel(BottomUpKernel::WordLevel);
    let (opt_run, opt_wall) = measure(&optimized, root, cfg.repeats);

    let identical = ref_run.parent == opt_run.parent
        && ref_run.visited == opt_run.visited
        && ref_run.profile.total() == opt_run.profile.total();
    assert!(
        identical,
        "kernel implementations diverged: the optimized kernels must be \
         bit-identical to the reference pair"
    );
    assert_eq!(
        ref_wall.bottom_up_edges, opt_wall.bottom_up_edges,
        "kernels examined different edge counts"
    );

    let sim_teps = graph.component_edges(root) as f64 / ref_run.profile.total().as_secs();
    Snapshot {
        schema_version: SCHEMA_VERSION,
        benchmark: "hybrid BFS kernel wall clock, reference vs optimized \
                    (per-bit vs word-level bottom-up)"
            .into(),
        scenario: ScenarioInfo {
            generator: "rmat".into(),
            scale: cfg.scale,
            edge_factor: 16,
            vertices: graph.num_vertices(),
            edges: graph.num_edges(),
            machine: "xeon_x7550_node (1 node, 8 sockets)".into(),
            opt_level: OptLevel::OriginalPpn8.label(),
            ranks,
            root,
            repeats: cfg.repeats,
        },
        baseline: timing("reference (per-bit bottom-up)", &ref_wall),
        optimized: timing("optimized (word-level bottom-up)", &opt_wall),
        bottom_up_speedup: ref_wall.bottom_up_secs / opt_wall.bottom_up_secs,
        total_speedup: ref_wall.total_secs / opt_wall.total_secs,
        throughput: Throughput {
            real_bottom_up_edges_per_sec: opt_wall.bottom_up_edges as f64 / opt_wall.bottom_up_secs,
            simulated_teps: sim_teps,
        },
        identical_results: identical,
        collective_volume: measure_collective_volume(graph, cfg),
        multi_query: measure_multi_query(graph, cfg),
        two_dim: measure_two_dim(cfg),
    }
}

/// Generates (or fetches from the process cache) the benchmark graph and
/// runs [`run_snapshot_on`].
pub fn run_snapshot(cfg: &SnapshotConfig) -> Snapshot {
    run_snapshot_on(scenarios::graph(cfg.scale), cfg)
}

/// Writes `snapshot` as pretty JSON (with a trailing newline) to `path`.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(snapshot)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{json}")
}

/// Reads a snapshot back, refusing any schema version other than
/// [`SCHEMA_VERSION`]. A version-1 document (or a future version-3 one)
/// carries differently-shaped phase fields; letting serde default or drop
/// them would let stale numbers masquerade as current ones.
pub fn read_snapshot(path: &Path) -> std::io::Result<Snapshot> {
    let text = std::fs::read_to_string(path)?;
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    // Version gate first, on the raw document: a foreign version must be
    // refused *as* a foreign version, not as a field-shape mismatch.
    let value: serde_json::Value = serde_json::from_str(&text).map_err(|e| bad(e.to_string()))?;
    let version = value
        .get("schema_version")
        .and_then(serde_json::Value::as_u64);
    if version != Some(u64::from(SCHEMA_VERSION)) {
        return Err(bad(format!(
            "snapshot schema_version {version:?} is not the supported {SCHEMA_VERSION}; \
             regenerate with `nbfs bench --json`"
        )));
    }
    serde_json::from_value(value).map_err(|e| bad(e.to_string()))
}

/// One-line human summary of the `two_dim` section.
pub fn two_dim_summary(td: &TwoDimBench) -> String {
    let identical = td.rows.iter().all(|r| r.identical_results)
        && td.per_codec.iter().all(|r| r.identical_results);
    let best = td.rows.iter().map(|r| r.gteps).fold(0.0f64, f64::max);
    let ratio = td.scales.last().map_or(0.0, |s| s.compression_ratio);
    let head = format!(
        "{} weak-scaling rows over {} scales | best {:.3} GTEPS | \
         top-scale compression {:.2}x",
        td.rows.len(),
        td.scales.len(),
        best,
        ratio
    );
    match &td.projection {
        Some(p) => format!(
            "{head} | projection: scale {} on {} nodes ({}) {:.3} GTEPS | \
             identical to 1-D: {identical}",
            p.scale, p.nodes, p.grid, p.gteps
        ),
        None => format!("{head} | identical to 1-D: {identical}"),
    }
}

/// One-line human summary for CLI output.
pub fn summary(s: &Snapshot) -> String {
    format!(
        "scale {} | {} ranks | bottom-up {:.1} ms -> {:.1} ms ({:.2}x) | \
         top-down {:.1} ms | total {:.2}x | \
         {:.1} M real BU edges/s | identical results: {}",
        s.scenario.scale,
        s.scenario.ranks,
        s.baseline.bottom_up_secs * 1e3,
        s.optimized.bottom_up_secs * 1e3,
        s.bottom_up_speedup,
        s.optimized.top_down_secs * 1e3,
        s.total_speedup,
        s.throughput.real_bottom_up_edges_per_sec / 1e6,
        s.identical_results
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_runs_and_serializes_at_small_scale() {
        let cfg = SnapshotConfig {
            scale: 12,
            repeats: 1,
            queries: 24,
            submitters: 4,
        };
        let snap = run_snapshot(&cfg);
        assert!(snap.identical_results);
        assert_eq!(snap.scenario.ranks, 8, "ppn=8 on one 8-socket node");
        assert!(snap.optimized.bottom_up_secs > 0.0);
        assert!(snap.bottom_up_speedup > 0.0);
        let json = serde_json::to_string(&snap).unwrap();
        for key in [
            "schema_version",
            "bottom_up_speedup",
            "top_down_secs",
            "other_secs",
            "real_bottom_up_edges_per_sec",
            "simulated_teps",
            "collective_volume",
            "wire_reduction_vs_raw",
            "multi_query",
            "batched_qps",
            "p99_latency_secs",
            "two_dim",
            "compression_ratio",
            "gteps",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The codec section: raw row first with ratio 1.0, every codec
        // bit-identical to raw, and raw-byte accounting independent of
        // which codec ran (every run describes the same uncompressed
        // volume).
        let vol = &snap.collective_volume;
        assert_eq!(vol.per_codec.len(), Codec::ALL.len());
        assert_eq!(vol.per_codec[0].codec, "raw");
        assert!((vol.per_codec[0].wire_reduction_vs_raw - 1.0).abs() < 1e-12);
        for row in &vol.per_codec {
            assert!(row.identical_results, "{} diverged", row.codec);
            assert_eq!(
                row.raw_bytes, vol.per_codec[0].raw_bytes,
                "{}: raw accounting must not depend on the codec's own wire",
                row.codec
            );
        }
        // The multi-query section: every batched answer bit-identical to
        // its per-root baseline, latencies ordered, wave count exact.
        let mq = &snap.multi_query;
        assert!(mq.identical_results);
        assert_eq!(mq.queries, 24);
        assert_eq!(mq.batch, 64);
        assert_eq!(mq.waves, 1, "24 queries fit one 64-lane wave");
        assert!(mq.sequential_qps > 0.0 && mq.batched_qps > 0.0);
        assert!(mq.p50_latency_secs <= mq.p99_latency_secs);
        assert!(multi_query_summary(mq).contains("identical results: true"));
        // The 2-D section: below the committed scale the sweep covers two
        // scales across all three grid shapes (no projection), every row
        // and codec bit-identical to the 1-D engine, compression real.
        let td = &snap.two_dim;
        assert_eq!(td.ranks, 8, "2 nodes x 4 sockets");
        assert_eq!(td.scales.len(), 2);
        assert_eq!(td.rows.len(), 6, "2 scales x 3 grid shapes");
        assert_eq!(td.per_codec.len(), Codec::ALL.len());
        assert!(
            td.projection.is_none(),
            "projection only at committed scale"
        );
        for row in &td.rows {
            assert!(row.identical_results, "{} scale {}", row.grid, row.scale);
            assert!(row.gteps > 0.0);
        }
        for row in &td.per_codec {
            assert!(row.identical_results, "codec {}", row.codec);
        }
        for info in &td.scales {
            assert!(
                info.compression_ratio > 1.0,
                "scale {}: compressed {} vs dense {}",
                info.scale,
                info.compressed_bytes,
                info.uncompressed_bytes
            );
        }
        assert!(two_dim_summary(td).contains("identical to 1-D: true"));
    }

    #[test]
    fn write_snapshot_emits_valid_json() {
        let cfg = SnapshotConfig {
            scale: 11,
            repeats: 1,
            queries: 8,
            submitters: 2,
        };
        let snap = run_snapshot(&cfg);
        let path = std::env::temp_dir().join("nbfs-bench-snapshot-test.json");
        write_snapshot(&path, &snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(value["schema_version"], 6);
        assert_eq!(
            value["two_dim"]["projection"],
            serde_json::Value::Null,
            "no scale-24 projection below the committed scale"
        );
        assert_eq!(
            value["multi_query"]["identical_results"],
            serde_json::Value::Bool(true)
        );
        assert_eq!(value["scenario"]["scale"], 11);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reader_roundtrips_and_refuses_foreign_versions() {
        let cfg = SnapshotConfig {
            scale: 11,
            repeats: 1,
            queries: 8,
            submitters: 2,
        };
        let snap = run_snapshot(&cfg);
        let path = std::env::temp_dir().join("nbfs-bench-snapshot-reader-test.json");
        write_snapshot(&path, &snap).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.scenario.scale, snap.scenario.scale);
        assert_eq!(back.optimized.total_secs, snap.optimized.total_secs);

        // Same document under version 1 must be refused, mentioning the
        // offending version.
        let text = std::fs::read_to_string(&path).unwrap();
        let needle = format!("\"schema_version\": {SCHEMA_VERSION}");
        assert!(text.contains(&needle), "version field not found: {text}");
        std::fs::write(&path, text.replace(&needle, "\"schema_version\": 1")).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("schema_version"), "{err}");
        std::fs::remove_file(path).unwrap();
    }
}

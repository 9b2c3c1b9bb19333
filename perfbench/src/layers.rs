//! The `--trace 1` run: the per-layer ledger.
//!
//! The workload is repeated with the span recorder on: every call into a
//! layer's public function leaves a span, and each layer is also driven on
//! its own (partitioning, row scans, summary rebuilds, codecs, collectives,
//! one search at a time) on the inputs the workload gives it. Counts come
//! from values those functions already return (`WallClock`, `RunProfile`,
//! `TraceReport`, `EngineStats`, `size_bytes()`); nothing inside the program
//! is instrumented. Searches here are fixed in number, so counts repeat
//! exactly for a seed; only the repeat loops around single calls are sized
//! by `--seconds`.

use std::hint::black_box;

use nbfs_bench::wallclock::HostTimer;
use nbfs_comm::allgather::{allgather_cost_bytes, allgather_words_into};
use nbfs_comm::codec::Codec;
use nbfs_core::direction::{Direction, SwitchPolicy};
use nbfs_core::engine::{BfsRun, DistributedBfs, WallClock};
use nbfs_core::multi::{multi_source_bfs_in, MultiWorkspace, MAX_LANES};
use nbfs_core::par::bfs_hybrid_parallel;
use nbfs_core::query::QueryEngine;
use nbfs_core::seq::bfs_hybrid;
use nbfs_graph::validate::validate_bfs_tree;
use nbfs_graph::{vid, CompressedCsr, Csr, GraphView, PartitionedGraph, NO_PARENT};
use nbfs_simnet::NetworkModel;
use nbfs_trace::{Phase, TraceConfig, TraceReport};
use nbfs_util::ownership::BlockPartition;
use nbfs_util::stats::{mean, percentile};
use nbfs_util::{Bitmap, SummaryBitmap};

use crate::inputs::{fingerprint, peak_rss_bytes, sample_waves, Stored};
use crate::spans::{Layer, Recorder};
use crate::spec::Workload;
use crate::stats::{harmonic_rate, median, tail};
use crate::suite::{build_engines, reference_pass, spread, Keys, Outcome};

/// Passes of each 1-D variant (plain, spans off, traced) over the keys.
const PASSES: usize = 3;

/// Share of `--seconds` one repeat loop around a single call may take.
const LOOP_SHARE: f64 = 0.02;

/// Most samples such a loop takes: enough for a median, few enough that
/// sub-microsecond calls do not fill the span store.
const LOOP_SAMPLES: usize = 101;

/// Repeats `step(i)` for i = 0, 1, ... until `budget` host seconds are spent
/// (a step that would overshoot by more than half its length is not
/// started), at least `min` times.
fn repeat_for(
    rec: &mut Recorder,
    budget: f64,
    min: usize,
    mut step: impl FnMut(&mut Recorder, usize),
) {
    let start = rec.now();
    let mut done = 0;
    loop {
        step(rec, done);
        done += 1;
        let spent = rec.now() - start;
        if done >= min && spent + 0.5 * spent / done as f64 >= budget {
            return;
        }
    }
}

/// Host seconds of repeated calls of `f`: at least 3, then until the loop's
/// share of the run is spent or [`LOOP_SAMPLES`] are in.
fn sample_call<R>(
    rec: &mut Recorder,
    budget: f64,
    name: &'static str,
    layer: Layer,
    mut f: impl FnMut() -> R,
) -> Vec<f64> {
    let start = rec.now();
    let mut secs = Vec::new();
    while secs.len() < 3 || (secs.len() < LOOP_SAMPLES && rec.now() - start < budget) {
        let (result, s) = rec.call(name, layer, &mut f);
        black_box(result);
        secs.push(s);
    }
    secs
}

/// Depth of every vertex in the tree `parent` describes (`u32::MAX` when
/// unreached).
fn depths(parent: &[u32], root: usize) -> Vec<u32> {
    let mut depth = vec![u32::MAX; parent.len()];
    depth[root] = 0;
    let mut chain = Vec::new();
    for start in 0..parent.len() {
        if parent[start] == NO_PARENT {
            continue;
        }
        let mut at = start;
        while depth[at] == u32::MAX {
            chain.push(at);
            at = vid::from_stored(parent[at]);
        }
        let mut d = depth[at];
        while let Some(key) = chain.pop() {
            d += 1;
            depth[key] = d;
        }
    }
    depth
}

/// The frontier of every level of one search, as the sorted vertex lists
/// and bitmaps the collectives move.
struct Frontiers {
    lists: Vec<Vec<u32>>,
    bitmaps: Vec<Bitmap>,
}

fn frontiers(parent: &[u32], root: usize) -> Frontiers {
    let depth = depths(parent, root);
    let levels = depth
        .iter()
        .filter(|&&d| d != u32::MAX)
        .max()
        .map_or(0, |&d| d as usize + 1);
    let mut lists = vec![Vec::new(); levels];
    let mut bitmaps: Vec<Bitmap> = (0..levels).map(|_| Bitmap::new(parent.len())).collect();
    for (key, &d) in depth.iter().enumerate() {
        if d != u32::MAX {
            lists[d as usize].push(vid::to_stored(key));
            bitmaps[d as usize].set(key);
        }
    }
    Frontiers { lists, bitmaps }
}

/// Encode and decode rates of one payload shape, and its compression ratio.
struct CodecRates {
    encode_mbytes_per_s: f64,
    decode_mbytes_per_s: f64,
    ratio: f64,
    raw_bytes: f64,
    sweeps: usize,
}

/// Times `encode` then `decode` sweeps over every per-rank, per-level
/// payload until the loop share is spent; the rate is raw megabytes per
/// median sweep second.
fn codec_rates(
    rec: &mut Recorder,
    budget: f64,
    names: (&'static str, &'static str),
    raw_bytes: usize,
    mut encode: impl FnMut() -> usize,
    mut decode: impl FnMut(),
) -> CodecRates {
    let mut enc_bytes = 0;
    let enc_secs = sample_call(rec, budget, names.0, Layer::Comm, || {
        enc_bytes = encode();
    });
    let dec_secs = sample_call(rec, budget, names.1, Layer::Comm, &mut decode);
    let mb = raw_bytes as f64 / 1e6;
    CodecRates {
        encode_mbytes_per_s: mb / median(&enc_secs),
        decode_mbytes_per_s: mb / median(&dec_secs),
        ratio: raw_bytes as f64 / enc_bytes.max(1) as f64,
        raw_bytes: raw_bytes as f64,
        sweeps: enc_secs.len(),
    }
}

/// Per-key sums over a `TraceReport`'s collectives and rank records.
#[derive(Default)]
struct TraceSums {
    wire: u64,
    raw: u64,
    shm: u64,
    rounds: u64,
    flows: u64,
    edges_scanned: u64,
    levels: u64,
    dropped: u64,
}

impl TraceSums {
    fn add(&mut self, report: &TraceReport) {
        let collectives = report
            .levels
            .iter()
            .flat_map(|l| l.collectives.iter())
            .chain(report.post_collectives.iter());
        for c in collectives {
            self.wire += c.stats.wire_bytes;
            self.raw += c.stats.raw_bytes;
            self.shm += c.stats.shm_bytes;
            self.rounds += c.stats.rounds;
            self.flows += c.stats.flows;
        }
        for level in &report.levels {
            self.edges_scanned += level.ranks.iter().map(|r| r.edges_scanned).sum::<u64>();
        }
        self.levels += report.levels.len() as u64;
        self.dropped += report.dropped_events;
    }
}

/// Simulated communication seconds of one run.
fn sim_comm(run: &BfsRun) -> f64 {
    (run.profile.td_comm + run.profile.bu_comm).as_secs()
}

/// Runs the workload with spans on and reports every per-layer metric.
pub fn run_layers<G: Stored>(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace_out: Option<&str>,
) -> Outcome {
    let mut recorder = Recorder::new(true);
    let rec = &mut recorder;
    let mut out = Outcome::default();
    let pass = rec.enter("bench.layer_pass");
    let loop_budget = seconds * LOOP_SHARE;

    // ---- nbfs-graph: generate, build, pack, partition, scan ------------
    let section = rec.enter("bench.graph_layer");
    let (dense, build) = Csr::build(w.graph, seed, rec);
    let (packed, packed_build) = rec.call("graph.compressed_from_csr", Layer::Graph, || {
        CompressedCsr::from_csr(&dense)
    });
    let graph = G::select(&dense, &packed);
    let scenario = w.scenario();
    let pmap = scenario.process_map();
    let ranks = pmap.world_size();
    let raw_edges = match w.graph {
        crate::spec::GraphKind::Rmat { scale } => 16usize << scale,
        crate::spec::GraphKind::Torus { width, height } => 2 * width * height,
    };
    out.push("graph.generate_s", build.generate, 1);
    out.push(
        "graph.generate_medges_per_s",
        raw_edges as f64 / build.generate / 1e6,
        1,
    );
    out.push("graph.csr_build_s", build.csr_build, 1);
    out.push("graph.packed_build_s", packed_build, 1);
    out.push("graph.image_bytes", graph.size_bytes() as f64, 1);
    out.push(
        "graph.packed_ratio",
        GraphView::size_bytes(&dense) as f64 / packed.size_bytes() as f64,
        1,
    );

    // A single PartitionedGraph::new spreads +-40 % run to run: median of 3.
    let mut partition_secs = Vec::new();
    let mut partition_bytes = 0usize;
    for _ in 0..3 {
        let (parts, secs) = rec.call("graph.partition", Layer::Graph, || {
            PartitionedGraph::new(graph, ranks)
        });
        partition_secs.push(secs);
        partition_bytes = (0..ranks).map(|r| parts.local(r).size_bytes()).sum();
    }
    out.push("graph.partition_s", median(&partition_secs), 3);
    out.push("graph.partition_bytes", partition_bytes as f64, 1);

    let scan_secs = sample_call(rec, loop_budget, "graph.row_scan", Layer::Graph, || {
        let mut sum = 0u64;
        for key in 0..graph.num_vertices() {
            graph.for_each_neighbour(key, |t| sum += u64::from(t));
        }
        sum
    });
    out.push(
        "graph.row_scan_marcs_per_s",
        graph.num_arcs() as f64 / median(&scan_secs) / 1e6,
        scan_secs.len(),
    );
    rec.exit(section);

    // ---- nbfs-core: the two distributed engines ------------------------
    let section = rec.enter("bench.engine_layer");
    let (engines, new1d, new2d) = build_engines(w, graph, rec);
    out.push("core.engine1d_new_s", new1d, 1);
    out.push("core.engine2d_new_s", new2d, 1);
    let keys = reference_pass(w.layer_roots, seed, graph, &engines.bfs1d, rec);
    let Keys {
        roots,
        prints,
        edges,
        ..
    } = &keys;
    let traced_scenario = w.scenario_with(w.codec, TraceConfig::Standard);
    let (traced, _) = rec.call("core.engine1d_new", Layer::Core, || {
        DistributedBfs::new(graph, &traced_scenario)
    });
    let clock = HostTimer::new();

    // Three variants of the same searches — plain with spans on, plain with
    // spans off, traced — taken in rotating order, because the second search
    // of a key in a row finds its data warm: over three passes every variant
    // runs first, second and third once, and the ratios use all samples.
    let mut plain = vec![Vec::new(); roots.len()];
    let (mut plain_s, mut unspanned_s, mut traced_s) = (0.0, 0.0, 0.0);
    let mut sums = TraceSums::default();
    let mut runs: Vec<Option<BfsRun>> = vec![None; roots.len()];
    for pass_no in 0..PASSES {
        for (i, &root) in roots.iter().enumerate() {
            let key = root as u64;
            for turn in 0..3 {
                match (pass_no + turn) % 3 {
                    0 => {
                        let (run, secs) =
                            rec.call_for("core.engine1d_run", Layer::Core, key, || {
                                engines.bfs1d.run(root)
                            });
                        plain[i].push(secs);
                        plain_s += secs;
                        out.check(fingerprint(&run.parent) == prints[i]);
                        runs[i] = Some(run);
                    }
                    1 => {
                        let was = rec.set_enabled(false);
                        let (run, secs) =
                            rec.call("core.engine1d_run", Layer::Core, || engines.bfs1d.run(root));
                        rec.set_enabled(was);
                        unspanned_s += secs;
                        out.check(fingerprint(&run.parent) == prints[i]);
                    }
                    _ => {
                        let ((run, report), secs) =
                            rec.call_for("trace.engine1d_run_traced", Layer::Trace, key, || {
                                traced.run_traced(root)
                            });
                        traced_s += secs;
                        out.check(fingerprint(&run.parent) == prints[i]);
                        if pass_no == 0 {
                            sums.add(&report);
                        }
                    }
                }
            }
        }
    }
    let runs: Vec<BfsRun> = runs.into_iter().flatten().collect();
    let plain: Vec<f64> = plain.iter().map(|s| median(s)).collect();
    let total = |secs: &[f64]| secs.iter().sum::<f64>();
    let n_roots = roots.len() as f64;
    out.push(
        "core.engine1d_run_s_p50",
        median(&plain),
        PASSES * roots.len(),
    );
    out.push(
        "core.engine1d_run_s_p80",
        percentile(&plain, 80.0).unwrap_or(0.0),
        PASSES * roots.len(),
    );
    out.push(
        "trace.overhead_ratio",
        traced_s / plain_s,
        PASSES * roots.len(),
    );
    out.push("trace.dropped_events", sums.dropped as f64, roots.len());
    out.push(
        "bench.span_overhead_ratio",
        plain_s / unspanned_s,
        PASSES * roots.len(),
    );
    out.push(
        "core.levels_per_root",
        sums.levels as f64 / n_roots,
        roots.len(),
    );
    out.push(
        "core.edges_examined_per_level",
        sums.edges_scanned as f64 / sums.levels as f64,
        roots.len(),
    );
    out.push(
        "core.host_us_per_level",
        total(&plain) / sums.levels as f64 * 1e6,
        roots.len(),
    );
    out.push(
        "core.host_ns_per_edge_examined",
        total(&plain) / sums.edges_scanned as f64 * 1e9,
        roots.len(),
    );
    for (name, sum) in [
        ("comm.wire_bytes_per_root", sums.wire),
        ("comm.raw_bytes_per_root", sums.raw),
        ("comm.shm_bytes_per_root", sums.shm),
        ("comm.rounds_per_root", sums.rounds),
        ("comm.flows_per_root", sums.flows),
    ] {
        out.push(name, sum as f64 / n_roots, roots.len());
    }

    // Simulated phase seconds, mean per key (exact).
    for (name, phase) in [
        ("core.sim_td_comp_s", Phase::TdComp),
        ("core.sim_bu_comp_s", Phase::BuComp),
        ("core.sim_td_comm_s", Phase::TdComm),
        ("core.sim_bu_comm_s", Phase::BuComm),
        ("core.sim_switch_s", Phase::Switch),
        ("core.sim_stall_s", Phase::Stall),
    ] {
        let sum: f64 = runs.iter().map(|r| r.profile.phase(phase).as_secs()).sum();
        out.push(name, sum / n_roots, roots.len());
    }

    // The engine's own kernel clock (run_timed's WallClock), mean per key.
    let mut wall = WallClock::default();
    for &root in roots {
        let ((_, w1), _) =
            rec.call_for("core.engine1d_run_timed", Layer::Core, root as u64, || {
                engines.bfs1d.run_timed(root, &clock)
            });
        wall.bottom_up_secs += w1.bottom_up_secs;
        wall.top_down_secs += w1.top_down_secs;
        wall.total_secs += w1.total_secs;
        wall.bottom_up_levels += w1.bottom_up_levels;
        wall.top_down_levels += w1.top_down_levels;
        wall.bottom_up_edges += w1.bottom_up_edges;
    }
    let kernels = wall.bottom_up_secs + wall.top_down_secs;
    out.push("core.bu_host_s", wall.bottom_up_secs / n_roots, roots.len());
    out.push("core.td_host_s", wall.top_down_secs / n_roots, roots.len());
    out.push(
        "core.other_host_s",
        (wall.total_secs - kernels).max(0.0) / n_roots,
        roots.len(),
    );
    out.push(
        "core.kernel_host_share",
        kernels / wall.total_secs,
        roots.len(),
    );
    out.push(
        "core.bu_levels",
        f64::from(wall.bottom_up_levels) / n_roots,
        roots.len(),
    );
    out.push(
        "core.td_levels",
        f64::from(wall.top_down_levels) / n_roots,
        roots.len(),
    );
    out.push(
        "core.bu_edges_examined",
        wall.bottom_up_edges as f64 / n_roots,
        roots.len(),
    );
    // Searches that never go bottom-up have no bottom-up rate.
    out.push(
        "core.bu_medges_per_s",
        if wall.bottom_up_secs > 0.0 {
            wall.bottom_up_edges as f64 / wall.bottom_up_secs / 1e6
        } else {
            0.0
        },
        roots.len(),
    );

    // The same searches on a one-thread pool.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool can always be built");
    let mut single_secs = 0.0;
    for &root in roots {
        single_secs += rec
            .call_for("core.engine1d_run_1t", Layer::Core, root as u64, || {
                pool.install(|| engines.bfs1d.run(root))
            })
            .1;
    }
    out.push(
        "core.engine1d_1t_ratio",
        single_secs / total(&plain),
        roots.len(),
    );

    // Lv et al.'s break-even: simulated wire seconds the codec saves per
    // key, from a twin engine that differs only in codec.
    let other = if w.codec.is_raw() {
        Codec::DeltaVarint
    } else {
        Codec::Raw
    };
    let twin_scenario = w.scenario_with(other, TraceConfig::Off);
    let (twin, _) = rec.call("core.engine1d_new", Layer::Core, || {
        DistributedBfs::new(graph, &twin_scenario)
    });
    let mut saved = 0.0;
    for (run, &root) in runs.iter().zip(roots.iter()) {
        let (twin_run, _) =
            rec.call_for("core.engine1d_run_twin", Layer::Core, root as u64, || {
                twin.run(root)
            });
        out.check(twin_run.parent == run.parent);
        let delta = sim_comm(&twin_run) - sim_comm(run);
        saved += if w.codec.is_raw() { -delta } else { delta };
    }
    let sim_saved_per_root = saved / n_roots;
    drop(twin);

    // 2-D engine on evenly spread keys, then the process's resident peak.
    let mut secs2d = Vec::new();
    let (mut comm2d, mut total2d) = (0.0, 0.0);
    for i in spread(roots.len(), w.roots_2d) {
        let root = roots[i];
        let (run, secs) = rec.call_for("core.engine2d_run", Layer::Core, root as u64, || {
            engines.bfs2d.run(root)
        });
        secs2d.push(secs);
        out.check(fingerprint(&run.parent) == prints[i]);
        comm2d += (run.profile.td_comm + run.profile.bu_comm).as_secs();
        total2d += run.profile.total().as_secs();
    }
    out.push("core.engine2d_run_s_p50", median(&secs2d), secs2d.len());
    out.push("core.sim2d_comm_share", comm2d / total2d, secs2d.len());
    out.push("core.engine2d_peak_rss_bytes", peak_rss_bytes() as f64, 1);
    rec.exit(section);

    // ---- nbfs-core: shared-memory kernels and the query service ---------
    let section = rec.enter("bench.shared_memory_layer");
    let policy = SwitchPolicy::default();
    let (mut par_secs, mut seq_secs) = (Vec::new(), Vec::new());
    for (i, &root) in roots.iter().enumerate() {
        let mut samples = Vec::new();
        for _ in 0..PASSES {
            let (run, secs) = rec.call_for("core.par_run", Layer::Core, root as u64, || {
                bfs_hybrid_parallel(&dense, root, policy)
            });
            samples.push(secs);
            out.check(fingerprint(&run.parent) == prints[i]);
        }
        par_secs.push(median(&samples));
        let (run, secs) = rec.call_for("core.seq_run", Layer::Core, root as u64, || {
            bfs_hybrid(&dense, root, policy)
        });
        seq_secs.push(secs);
        out.check(run.visited() == runs[i].visited);
    }
    let seq_mteps = harmonic_rate(edges, &seq_secs, 1e6);
    out.push(
        "core.par_run_s_p50",
        median(&par_secs),
        PASSES * roots.len(),
    );
    out.push("core.seq_host_mteps", seq_mteps, roots.len());
    out.push(
        "core.par_vs_seq",
        harmonic_rate(edges, &par_secs, 1e6) / seq_mteps,
        roots.len(),
    );

    let service = QueryEngine::bit_parallel(&dense);
    let waves = sample_waves(roots.len(), MAX_LANES, 8, seed);
    let wave_roots = |set: &[usize]| set.iter().map(|&i| roots[i]).collect::<Vec<_>>();
    let mut workspace = MultiWorkspace::new();
    // The warm-up wave is the one whose counts are reported: how many waves
    // the timed loop fits varies, the first key set does not.
    let first_wave = multi_source_bfs_in(&dense, &wave_roots(&waves[0]), &mut workspace);
    black_box(service.run_batch(&wave_roots(&waves[0])).len());
    let (mut bare_secs, mut batch_secs) = (Vec::new(), Vec::new());
    repeat_for(rec, seconds * 0.1, 3, |rec, i| {
        let set = &waves[i % waves.len()];
        let submitted = wave_roots(set);
        let (wave, secs) = rec.call("core.multi_source_bfs_in", Layer::Core, || {
            multi_source_bfs_in(&dense, &submitted, &mut workspace)
        });
        bare_secs.push(secs);
        let (answers, secs) = rec.call("core.query_run_batch", Layer::Core, || {
            service.run_batch(&submitted)
        });
        batch_secs.push(secs);
        for ((&k, answer), lane) in set.iter().zip(&answers).zip(&wave.lanes) {
            out.check(fingerprint(&answer.parent) == prints[k] && lane.parent == answer.parent);
        }
    });
    out.push("core.multi_wave_s_p50", median(&bare_secs), bare_secs.len());
    out.push(
        "core.query_overhead_s_p50",
        median(&batch_secs) - median(&bare_secs),
        batch_secs.len(),
    );
    out.push(
        "core.multi_edges_scanned_per_wave",
        first_wave.edges_scanned as f64,
        1,
    );
    out.push("core.wave_levels", first_wave.wave_levels as f64, 1);
    let (pct, value) = tail(&batch_secs);
    out.push("core.query_wave_s_tail", value, batch_secs.len());
    out.push("core.query_wave_tail_pct", pct, batch_secs.len());

    let mut solo_secs = Vec::new();
    repeat_for(rec, seconds * 0.1, 3, |rec, i| {
        let k = i % roots.len();
        let (answer, secs) = rec.call_for("core.query_solo", Layer::Core, roots[k] as u64, || {
            service.query(roots[k])
        });
        solo_secs.push(secs);
        out.check(fingerprint(&answer.parent) == prints[k]);
    });
    let (pct, value) = tail(&solo_secs);
    out.push("core.query_solo_s_tail", value, solo_secs.len());
    out.push("core.query_solo_tail_pct", pct, solo_secs.len());
    let stats = service.stats();
    out.push(
        "core.query_lane_occupancy",
        stats.queries as f64 / (stats.waves * MAX_LANES as u64) as f64,
        stats.waves as usize,
    );
    rec.exit(section);

    // ---- nbfs-graph: the validator --------------------------------------
    let section = rec.enter("bench.validate");
    let mut validate_secs = Vec::new();
    for (run, &root) in runs.iter().zip(roots.iter()) {
        let (valid, secs) =
            rec.call_for("graph.validate_bfs_tree", Layer::Graph, root as u64, || {
                validate_bfs_tree(&dense, root, &run.parent)
            });
        validate_secs.push(secs);
        out.check(valid == Ok(run.visited));
    }
    out.push(
        "graph.validate_s_p50",
        median(&validate_secs),
        validate_secs.len(),
    );
    rec.exit(section);

    // ---- nbfs-util and nbfs-comm on the first key's real frontiers ------
    let section = rec.enter("bench.frontier_layers");
    let n = graph.num_vertices();
    let front = frontiers(&runs[0].parent, roots[0]);
    let widest = front
        .lists
        .iter()
        .enumerate()
        .max_by_key(|(_, list)| list.len())
        .map_or(0, |(level, _)| level);
    let mut summary = SummaryBitmap::new(n, scenario.effective_granularity());
    let rebuild_secs = sample_call(
        rec,
        loop_budget,
        "util.summary_rebuild_from",
        Layer::Util,
        || summary.rebuild_from(&front.bitmaps[widest]),
    );
    out.push(
        "util.summary_rebuild_s",
        median(&rebuild_secs),
        rebuild_secs.len(),
    );
    out.push("util.summary_zero_fraction", summary.zero_fraction(), 1);

    // Delta-varint on every level's per-rank payloads: the codec the packed
    // workload ships and the one a raw workload would switch to.
    let codec = Codec::DeltaVarint.implementation();
    let partition = BlockPartition::new(n, ranks);
    let word_parts: Vec<&[u64]> = front
        .bitmaps
        .iter()
        .flat_map(|bitmap| {
            (0..ranks).map(|r| {
                let (start, end) = partition.word_range(r);
                &bitmap.words()[start..end]
            })
        })
        .collect();
    let list_parts: Vec<&[u32]> = front
        .lists
        .iter()
        .flat_map(|list| {
            (0..ranks).map(|r| {
                let (start, end) = partition.item_range(r);
                let lo = list.partition_point(|&x| vid::from_stored(x) < start);
                let hi = list.partition_point(|&x| vid::from_stored(x) < end);
                &list[lo..hi]
            })
        })
        .collect();
    let word_bytes: usize = word_parts.iter().map(|p| p.len() * 8).sum();
    let list_bytes: usize = list_parts.iter().map(|p| p.len() * 4).sum();
    let mut word_bufs: Vec<Vec<u8>> = vec![Vec::new(); word_parts.len()];
    let mut list_bufs: Vec<Vec<u8>> = vec![Vec::new(); list_parts.len()];
    let mut word_dst = vec![0u64; partition.word_range(0).1];
    let mut list_dst: Vec<u32> = Vec::new();
    // The decode closures read the buffers the encode closures fill, so the
    // buffers are shared through RefCells.
    let word_cell = std::cell::RefCell::new(&mut word_bufs);
    let words = codec_rates(
        rec,
        loop_budget,
        ("comm.encode_words", "comm.decode_words"),
        word_bytes,
        || {
            let mut bufs = word_cell.borrow_mut();
            for (part, buf) in word_parts.iter().zip(bufs.iter_mut()) {
                codec.encode_words(part, buf);
            }
            bufs.iter().map(Vec::len).sum()
        },
        || {
            let bufs = word_cell.borrow();
            for (part, buf) in word_parts.iter().zip(bufs.iter()) {
                codec.decode_words(buf, &mut word_dst[..part.len()]);
            }
        },
    );
    let list_cell = std::cell::RefCell::new(&mut list_bufs);
    let lists = codec_rates(
        rec,
        loop_budget,
        ("comm.encode_sorted_u32", "comm.decode_sorted_u32"),
        list_bytes,
        || {
            let mut bufs = list_cell.borrow_mut();
            for (part, buf) in list_parts.iter().zip(bufs.iter_mut()) {
                codec.encode_sorted_u32(part, buf);
            }
            bufs.iter().map(Vec::len).sum()
        },
        || {
            let bufs = list_cell.borrow();
            for buf in bufs.iter() {
                list_dst.clear();
                codec.decode_sorted_u32(buf, &mut list_dst);
            }
        },
    );
    black_box((&word_dst, &list_dst));
    out.push(
        "comm.encode_words_mbytes_per_s",
        words.encode_mbytes_per_s,
        words.sweeps,
    );
    out.push(
        "comm.decode_words_mbytes_per_s",
        words.decode_mbytes_per_s,
        words.sweeps,
    );
    out.push("comm.words_ratio", words.ratio, 1);
    out.push(
        "comm.encode_u32_mbytes_per_s",
        lists.encode_mbytes_per_s,
        lists.sweeps,
    );
    out.push(
        "comm.decode_u32_mbytes_per_s",
        lists.decode_mbytes_per_s,
        lists.sweeps,
    );
    out.push("comm.u32_ratio", lists.ratio, 1);

    // Host seconds the codec would cost this search: bitmaps on bottom-up
    // levels, sorted lists on top-down ones, at the rates just measured.
    let per_level = |shape: &CodecRates| shape.raw_bytes / 1e6 / front.lists.len() as f64;
    let round_trip = |shape: &CodecRates| {
        per_level(shape) * (1.0 / shape.encode_mbytes_per_s + 1.0 / shape.decode_mbytes_per_s)
    };
    let codec_host_s: f64 = runs[0]
        .profile
        .levels
        .iter()
        .map(|level| match level.direction {
            Direction::BottomUp => round_trip(&words),
            Direction::TopDown => round_trip(&lists),
        })
        .sum();
    out.push("comm.codec_host_s_per_root", codec_host_s, 1);
    out.push(
        "comm.codec_sim_saved_s_per_root",
        sim_saved_per_root,
        roots.len(),
    );
    out.push(
        "comm.codec_payback_ratio",
        sim_saved_per_root / codec_host_s,
        roots.len(),
    );

    // One full-frontier allgather: the copy with its cost walk, and the
    // cost walk (nbfs-simnet) alone.
    let net = NetworkModel::new(&scenario.machine);
    let algo = scenario.opt.allgather_algorithm();
    let source = &front.bitmaps[widest];
    let parts: Vec<&[u64]> = (0..ranks)
        .map(|r| {
            let (start, end) = partition.word_range(r);
            &source.words()[start..end]
        })
        .collect();
    let sizes: Vec<u64> = parts.iter().map(|p| p.len() as u64 * 8).collect();
    let mut gathered = vec![0u64; source.word_len()];
    let copy_secs = sample_call(
        rec,
        loop_budget,
        "comm.allgather_words_into",
        Layer::Comm,
        || allgather_words_into(&mut gathered, &parts, &pmap, &net, algo),
    );
    let cost_secs = sample_call(
        rec,
        loop_budget,
        "comm.allgather_cost_bytes",
        Layer::Comm,
        || allgather_cost_bytes(&sizes, &pmap, &net, algo),
    );
    out.check(gathered == source.words());
    out.push("comm.allgather_copy_s", median(&copy_secs), copy_secs.len());
    out.push("comm.allgather_cost_s", median(&cost_secs), cost_secs.len());
    rec.exit(section);
    rec.exit(pass);

    // ---- the ledger's own totals ----------------------------------------
    let busy = rec.busy_by_layer();
    for ((secs, spans), name) in busy.into_iter().zip([
        "graph.busy_s",
        "util.busy_s",
        "comm.busy_s",
        "core.busy_s",
        "trace.busy_s",
        "bench.self_s",
    ]) {
        out.push(name, secs, spans);
    }
    out.push("bench.spans_recorded", rec.spans().len() as f64, 1);
    out.push(
        "bench.layer_pass_s",
        busy.iter().map(|&(secs, _)| secs).sum(),
        1,
    );
    out.push("input.vertices", n as f64, 1);
    out.push("input.arcs", graph.num_arcs() as f64, 1);
    out.push(
        "input.component_edges",
        mean(&edges.iter().map(|&e| e as f64).collect::<Vec<_>>()).unwrap_or(0.0),
        roots.len(),
    );
    out.push("input.ranks", ranks as f64, 1);
    out.push("input.threads", rayon::current_num_threads() as f64, 1);
    out.push("input.roots", n_roots, 1);

    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, rec.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            out.failed += 1;
        }
    }
    out
}

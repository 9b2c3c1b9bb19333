//! What the benchmark runs and what it reports: the four workloads and the
//! two metric tables. `BENCHMARK.json` at the repository root names the same
//! workloads and metrics; `--check` fails when the two disagree.

use nbfs_comm::codec::Codec;
use nbfs_core::engine::Scenario;
use nbfs_core::opt::OptLevel;
use nbfs_topology::presets;
use nbfs_trace::TraceConfig;

/// The graph family a workload searches.
#[derive(Clone, Copy, Debug)]
pub enum GraphKind {
    /// Graph500 R-MAT, edge factor 16.
    Rmat { scale: u32 },
    /// `width x height` 2-D torus (degree 4) whose vertex ids are relabelled
    /// by a seeded Fisher-Yates shuffle, so block partitions see no locality.
    Torus { width: usize, height: usize },
}

impl GraphKind {
    /// log2 of the vertex count (every workload graph has a power-of-two
    /// vertex count; the machine presets scale their caches by it).
    pub fn scale(self) -> u32 {
        match self {
            GraphKind::Rmat { scale } => scale,
            GraphKind::Torus { width, height } => (width * height).trailing_zeros(),
        }
    }
}

/// How the graph the distributed engines search is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Store {
    /// `Csr`.
    Dense,
    /// Delta-varint `CompressedCsr`, streamed from the generator.
    Packed,
}

/// The simulated machine and the rung of the paper's ladder run on it.
#[derive(Clone, Copy, Debug)]
pub enum Machine {
    /// One 8-socket Xeon X7550 node at `Original.ppn=8`: 8 ranks, ring
    /// allgather, private bitmaps, 2x4 grid for the 2-D engine.
    Node,
    /// Sixteen such nodes at `Granularity(256)`: 128 ranks, shared queues,
    /// subgroup-parallel allgather, natural 16x8 grid.
    Cluster,
}

/// Share of `--seconds` each timed phase of a run gets.
#[derive(Clone, Copy, Debug)]
pub struct Shares {
    pub bfs1d: f64,
    pub bfs2d: f64,
    pub par: f64,
    pub waves: f64,
    pub solos: f64,
}

/// One workload: fixed constants of the benchmark, not flags.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: parameters and why it was chosen.
    pub why: &'static str,
    pub graph: GraphKind,
    pub store: Store,
    pub machine: Machine,
    pub codec: Codec,
    /// Search keys of the 1-D, `par` and query phases.
    pub roots: usize,
    /// Leading search keys the 2-D engine also runs (it rebuilds its blocks
    /// on every run, so a root costs it many times what it costs the 1-D
    /// engine).
    pub roots_2d: usize,
    /// Search keys of the `--trace 1` layer pass.
    pub layer_roots: usize,
    pub shares: Shares,
}

/// The four workloads, in the order `--all` runs them.
///
/// Sizes are what the contract's time cap allows on a 2-core host (92 runs
/// plus two builds inside 3420 s, so a run has about 28 s in all): R-MAT
/// scale 18 where the issue text says 19, and a 1024x64 torus (545 levels)
/// where it says 512x512 (513 levels).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rmat_node",
        why: "R-MAT scale 18 dense Csr, one 8-socket node, 8 ranks, raw codec, 2x4 grid: a few levels of millions of arcs, so per-arc kernel work dominates and collectives move little",
        graph: GraphKind::Rmat { scale: 18 },
        store: Store::Dense,
        machine: Machine::Node,
        codec: Codec::Raw,
        roots: 64,
        roots_2d: 8,
        layer_roots: 16,
        shares: Shares {
            bfs1d: 0.30,
            bfs2d: 0.30,
            par: 0.15,
            waves: 0.15,
            solos: 0.10,
        },
    },
    Workload {
        name: "rmat_cluster_packed",
        why: "R-MAT scale 18 streamed into delta-varint CompressedCsr, 16 nodes, 128 ranks, delta-varint wire codec, 16x8 grid: partition decode, codecs, collective copies and cost walks dominate",
        graph: GraphKind::Rmat { scale: 18 },
        store: Store::Packed,
        machine: Machine::Cluster,
        codec: Codec::DeltaVarint,
        roots: 64,
        roots_2d: 6,
        layer_roots: 16,
        shares: Shares {
            bfs1d: 0.30,
            bfs2d: 0.35,
            par: 0.10,
            waves: 0.15,
            solos: 0.10,
        },
    },
    Workload {
        name: "torus_deep",
        why: "1024x64 torus with shuffled ids (545 levels of ~500 arcs), 128 ranks, raw codec: per-level fixed cost is nearly all the time, so per-arc gains bought with per-level work show their price",
        graph: GraphKind::Torus {
            width: 1024,
            height: 64,
        },
        store: Store::Dense,
        machine: Machine::Cluster,
        codec: Codec::Raw,
        roots: 4,
        roots_2d: 4,
        layer_roots: 2,
        shares: Shares {
            bfs1d: 0.30,
            bfs2d: 0.25,
            par: 0.15,
            waves: 0.20,
            solos: 0.10,
        },
    },
    Workload {
        name: "query_waves",
        why: "R-MAT scale 17 served by QueryEngine::bit_parallel, one closed-loop caller: 70% of the run is full 64-key waves then single queries at 1/64 lane occupancy, enough samples for tail latencies",
        graph: GraphKind::Rmat { scale: 17 },
        store: Store::Dense,
        machine: Machine::Node,
        codec: Codec::Raw,
        roots: 64,
        roots_2d: 8,
        layer_roots: 16,
        shares: Shares {
            bfs1d: 0.10,
            bfs2d: 0.12,
            par: 0.08,
            waves: 0.40,
            solos: 0.30,
        },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The `--smoke` twin: same phases, checks and metric names on graphs
    /// small enough that the whole suite runs in seconds.
    pub fn smoke(mut self) -> Workload {
        self.graph = match self.graph {
            GraphKind::Rmat { scale } => GraphKind::Rmat { scale: scale - 4 },
            GraphKind::Torus { .. } => GraphKind::Torus {
                width: 64,
                height: 64,
            },
        };
        self.roots = self.roots.min(8);
        self.roots_2d = self.roots_2d.min(2);
        self.layer_roots = self.layer_roots.min(2);
        self
    }

    /// Grid the 2-D engine tiles the scenario's ranks with.
    pub fn grid(&self) -> (usize, usize) {
        match self.machine {
            Machine::Node => (2, 4),
            Machine::Cluster => (16, 8),
        }
    }

    /// The scenario both distributed engines run, with the given codec and
    /// tracing level.
    pub fn scenario_with(&self, codec: Codec, trace: TraceConfig) -> Scenario {
        let scale = self.graph.scale();
        let (machine, opt) = match self.machine {
            Machine::Node => (presets::xeon_x7550_node(), OptLevel::OriginalPpn8),
            Machine::Cluster => (presets::xeon_x7550_cluster(16), OptLevel::Granularity(256)),
        };
        Scenario::builder(machine.scaled_to_graph(scale, 28), opt)
            .codec(codec)
            .trace(trace)
            .build()
            .expect("the benchmark's scenarios are valid by construction")
    }

    /// The workload's own scenario, untraced.
    pub fn scenario(&self) -> Scenario {
        self.scenario_with(self.codec, TraceConfig::Off)
    }
}

/// The clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock of the real kernels (`HostTimer`).
    Host,
    /// simnet's simulated seconds — the paper's Figs. 9-16.
    Sim,
    /// A count the program made: no clock, repeats exactly for one seed.
    Count,
    /// A size or tally that host timing can move: resident bytes, samples a
    /// timed loop took.
    Gauge,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
            Clock::Gauge => "gauge",
        }
    }

    /// Whether two runs of one seed on one commit must read the same.
    pub fn exact(self) -> bool {
        matches!(self, Clock::Sim | Clock::Count)
    }
}

/// Definition of one reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// `"higher"` or `"lower"`, as `BENCHMARK.json` spells it.
    pub better: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
    }
}

use Clock::{Count, Gauge, Host, Sim};

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 11] = [
    def("setup_s", "s", Host, "lower"),
    def("setup_peak_rss_bytes", "bytes", Gauge, "lower"),
    def("bfs1d_host_mteps", "MTEPS", Host, "higher"),
    def("bfs2d_host_mteps", "MTEPS", Host, "higher"),
    def("par_host_mteps", "MTEPS", Host, "higher"),
    def("bfs1d_sim_gteps", "GTEPS", Sim, "higher"),
    def("bfs2d_sim_gteps", "GTEPS", Sim, "higher"),
    def("peak_rss_bytes", "bytes", Gauge, "lower"),
    def("query_qps", "1/s", Host, "higher"),
    def("query_wave_s_p50", "s", Host, "lower"),
    def("query_solo_s_p50", "s", Host, "lower"),
];

/// One layer each (layer = crate); printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 83] = [
    // nbfs-graph
    def("graph.generate_s", "s", Host, "lower"),
    def("graph.generate_medges_per_s", "Medges/s", Host, "higher"),
    def("graph.csr_build_s", "s", Host, "lower"),
    def("graph.packed_build_s", "s", Host, "lower"),
    def("graph.partition_s", "s", Host, "lower"),
    def("graph.image_bytes", "bytes", Count, "lower"),
    def("graph.packed_ratio", "ratio", Count, "higher"),
    def("graph.partition_bytes", "bytes", Count, "lower"),
    def("graph.row_scan_marcs_per_s", "Marcs/s", Host, "higher"),
    def("graph.validate_s_p50", "s", Host, "lower"),
    def("graph.busy_s", "s", Host, "lower"),
    // nbfs-util
    def("util.summary_rebuild_s", "s", Host, "lower"),
    def("util.summary_zero_fraction", "ratio", Count, "higher"),
    def("util.busy_s", "s", Host, "lower"),
    // nbfs-comm (nbfs-simnet and nbfs-topology are reached through it)
    def("comm.encode_words_mbytes_per_s", "MB/s", Host, "higher"),
    def("comm.decode_words_mbytes_per_s", "MB/s", Host, "higher"),
    def("comm.words_ratio", "ratio", Count, "higher"),
    def("comm.encode_u32_mbytes_per_s", "MB/s", Host, "higher"),
    def("comm.decode_u32_mbytes_per_s", "MB/s", Host, "higher"),
    def("comm.u32_ratio", "ratio", Count, "higher"),
    def("comm.allgather_copy_s", "s", Host, "lower"),
    def("comm.allgather_cost_s", "s", Host, "lower"),
    def("comm.wire_bytes_per_root", "bytes", Count, "lower"),
    def("comm.raw_bytes_per_root", "bytes", Count, "lower"),
    def("comm.shm_bytes_per_root", "bytes", Count, "lower"),
    def("comm.rounds_per_root", "count", Count, "lower"),
    def("comm.flows_per_root", "count", Count, "lower"),
    def("comm.codec_host_s_per_root", "s", Host, "lower"),
    def("comm.codec_sim_saved_s_per_root", "s", Sim, "higher"),
    def("comm.codec_payback_ratio", "ratio", Host, "higher"),
    def("comm.busy_s", "s", Host, "lower"),
    // nbfs-core: engines
    def("core.engine1d_new_s", "s", Host, "lower"),
    def("core.engine2d_new_s", "s", Host, "lower"),
    def("core.bu_host_s", "s", Host, "lower"),
    def("core.td_host_s", "s", Host, "lower"),
    def("core.other_host_s", "s", Host, "lower"),
    def("core.kernel_host_share", "ratio", Host, "higher"),
    def("core.bu_levels", "count", Count, "lower"),
    def("core.td_levels", "count", Count, "lower"),
    def("core.levels_per_root", "count", Count, "lower"),
    def("core.bu_edges_examined", "count", Count, "lower"),
    def("core.bu_medges_per_s", "Medges/s", Host, "higher"),
    def("core.edges_examined_per_level", "count", Count, "lower"),
    def("core.host_us_per_level", "us", Host, "lower"),
    def("core.host_ns_per_edge_examined", "ns", Host, "lower"),
    def("core.sim_td_comp_s", "s", Sim, "lower"),
    def("core.sim_bu_comp_s", "s", Sim, "lower"),
    def("core.sim_td_comm_s", "s", Sim, "lower"),
    def("core.sim_bu_comm_s", "s", Sim, "lower"),
    def("core.sim_switch_s", "s", Sim, "lower"),
    def("core.sim_stall_s", "s", Sim, "lower"),
    def("core.sim2d_comm_share", "ratio", Sim, "lower"),
    def("core.engine1d_run_s_p50", "s", Host, "lower"),
    def("core.engine1d_run_s_p80", "s", Host, "lower"),
    def("core.engine2d_run_s_p50", "s", Host, "lower"),
    def("core.par_run_s_p50", "s", Host, "lower"),
    def("core.seq_host_mteps", "MTEPS", Host, "higher"),
    def("core.par_vs_seq", "ratio", Host, "higher"),
    def("core.engine1d_1t_ratio", "ratio", Host, "higher"),
    def("core.engine2d_peak_rss_bytes", "bytes", Gauge, "lower"),
    // nbfs-core: the query service
    def("core.multi_wave_s_p50", "s", Host, "lower"),
    def("core.query_overhead_s_p50", "s", Host, "lower"),
    def("core.multi_edges_scanned_per_wave", "count", Count, "lower"),
    def("core.wave_levels", "count", Count, "lower"),
    def("core.query_lane_occupancy", "ratio", Gauge, "higher"),
    // Tail latencies: the highest percentile with ten samples beyond it,
    // and which percentile that was.
    def("core.query_wave_s_tail", "s", Host, "lower"),
    def("core.query_wave_tail_pct", "%", Gauge, "higher"),
    def("core.query_solo_s_tail", "s", Host, "lower"),
    def("core.query_solo_tail_pct", "%", Gauge, "higher"),
    def("core.busy_s", "s", Host, "lower"),
    // nbfs-trace
    def("trace.overhead_ratio", "ratio", Host, "lower"),
    def("trace.dropped_events", "count", Count, "lower"),
    def("trace.busy_s", "s", Host, "lower"),
    // The benchmark itself: its span recorder and what is left of the
    // layer pass once every call into a layer is subtracted.
    def("bench.span_overhead_ratio", "ratio", Host, "lower"),
    def("bench.spans_recorded", "count", Gauge, "lower"),
    def("bench.self_s", "s", Host, "lower"),
    def("bench.layer_pass_s", "s", Host, "lower"),
    // Sizes of the inputs, so a ledger row carries its own denominator.
    def("input.vertices", "count", Count, "higher"),
    def("input.arcs", "count", Count, "higher"),
    def("input.component_edges", "count", Count, "higher"),
    def("input.ranks", "count", Count, "higher"),
    def("input.threads", "count", Gauge, "higher"),
    def("input.roots", "count", Count, "higher"),
];

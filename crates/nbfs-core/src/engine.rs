//! The distributed hybrid BFS engine (Fig. 1 of the paper).
//!
//! Execution is BSP: every level, each rank runs the *real* traversal
//! kernel over its partition of the graph (really setting parents, really
//! probing the frontier bitmaps), while counting the work it does. The
//! counts flow into `nbfs-simnet`'s roofline model to produce a simulated
//! per-rank computation time; the frontier reassembly goes through the
//! `nbfs-comm` collective whose algorithm the chosen [`OptLevel`] dictates.
//! Per-level times accumulate into the Fig. 11 breakdown
//! ([`crate::profile::RunProfile`]).
//!
//! Bottom-up rank kernels execute in parallel via rayon for wall-clock
//! speed; a top-down level is one serial walk over the frontier's arcs.
//! All results — parents, bitmaps, simulated times — are bit-reproducible
//! and independent of the worker-thread count.

use rayon::prelude::*;

use nbfs_comm::allgather::{allgather_cost_bytes, allgather_stats_bytes};
use nbfs_comm::codec::{
    allgather_codec_stats, allgather_words_codec_into, allgatherv_u32_codec, encoded_words_size,
    Codec, CodecWorkspace,
};
use nbfs_comm::fault::allgather_edges;
use nbfs_comm::FaultPlan;
use nbfs_graph::partition::LocalGraph;
use nbfs_graph::{vid, Csr, GraphView, PartitionedGraph, NO_PARENT};
use nbfs_simnet::compute::{ModelParams, ProbeClass};
use nbfs_simnet::{ComputeEvents, NetworkModel, Residence};
use nbfs_topology::{MachineConfig, PlacementPolicy, ProcessMap};
use nbfs_trace::{CollectiveKind, CommCost, TraceConfig, TraceReport};
use nbfs_util::{Bitmap, NbfsError, SummaryBitmap, WORD_BITS};

use crate::direction::{Direction, SwitchPolicy};
use crate::grain;
use crate::level::{self, fault_free, Env, Exchange, Level, Owned};
use crate::opt::OptLevel;
use crate::profile::RunProfile;

pub use crate::level::Search;

/// A fully specified experiment: machine, optimization level and the knobs
/// the paper's figures vary.
///
/// ```
/// use nbfs_core::engine::{DistributedBfs, Scenario};
/// use nbfs_core::opt::OptLevel;
/// use nbfs_graph::GraphBuilder;
/// use nbfs_topology::MachineConfig;
///
/// let graph = GraphBuilder::rmat(10, 8).seed(7).build();
/// let scenario = Scenario::new(
///     MachineConfig::small_test_cluster(2, 4),
///     OptLevel::ShareAll,
/// );
/// let run = DistributedBfs::new(&graph, &scenario).run(0);
/// assert_eq!(run.parent[0], 0, "the root is its own parent");
/// ```
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The simulated cluster.
    pub machine: MachineConfig,
    /// The optimization rung (Fig. 9 ladder).
    pub opt: OptLevel,
    /// Hybrid switch thresholds (α/β of \[9\]).
    pub switch_policy: SwitchPolicy,
    /// Overrides the opt level's process map — used by the Fig. 10 study
    /// of `mpirun`/`numactl` flag combinations on the `Original` code.
    pub placement_override: Option<(usize, PlacementPolicy)>,
    /// Cost-model constants (exposed for ablations).
    pub params: ModelParams,
    /// Run-event recording ([`TraceConfig::Off`] by default; see
    /// [`DistributedBfs::search`]).
    pub trace: TraceConfig,
    /// Deterministic fault injection (`None` = fault-free), honoured by
    /// both engines at the level driver's sites. With a plan installed,
    /// call `search`: injected crashes and exhausted retry budgets surface
    /// as structured [`NbfsError`]s.
    pub faults: Option<FaultPlan>,
    /// Overrides the summary-bitmap granularity of the opt rung (the
    /// Fig. 16 sweep knob, `--summary-g` in the CLI). `None` keeps the
    /// rung's own granularity — 64 up to `Par allgather`, the tuned value
    /// for `Granularity(g)`.
    pub summary_granularity: Option<usize>,
    /// Wire codec for the per-level collectives (the compression layer
    /// of Lv et al.). [`Codec::Raw`] by default — bit-for-bit
    /// today's uncompressed exchanges; every other codec must produce
    /// identical BFS parents while shrinking wire bytes.
    pub codec: Codec,
}

impl Scenario {
    /// A scenario with default switch policy and model parameters.
    ///
    /// # Panics
    /// If `machine` fails [`MachineConfig::validate`] — simulated times
    /// over an inconsistent machine description would be meaningless, so
    /// construction refuses up front (allowlisted NBFS003). Use
    /// [`Scenario::builder`] for the fallible, fluent form.
    pub fn new(machine: MachineConfig, opt: OptLevel) -> Self {
        Self::builder(machine, opt)
            .build()
            .expect("invalid machine")
    }

    /// Starts a fluent builder: every knob is set pre-construction, and
    /// [`ScenarioBuilder::build`] returns a unified [`NbfsError`] instead
    /// of panicking on a bad machine.
    ///
    /// ```
    /// use nbfs_core::engine::Scenario;
    /// use nbfs_core::opt::OptLevel;
    /// use nbfs_topology::MachineConfig;
    ///
    /// let scenario = Scenario::builder(
    ///     MachineConfig::small_test_cluster(2, 4),
    ///     OptLevel::ShareAll,
    /// )
    /// .build()
    /// .expect("valid machine");
    /// assert_eq!(scenario.opt, OptLevel::ShareAll);
    /// ```
    pub fn builder(machine: MachineConfig, opt: OptLevel) -> ScenarioBuilder {
        ScenarioBuilder::new(machine, opt)
    }

    /// The summary granularity in force: the explicit override when set,
    /// the opt rung's own value otherwise.
    pub fn effective_granularity(&self) -> usize {
        self.summary_granularity
            .unwrap_or_else(|| self.opt.granularity())
    }

    /// The process map this scenario spawns.
    pub fn process_map(&self) -> ProcessMap {
        match self.placement_override {
            Some((ppn, policy)) => ProcessMap::new(&self.machine, ppn, policy),
            None => self.opt.process_map(&self.machine),
        }
    }

    /// The effective placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        match self.placement_override {
            Some((_, policy)) => policy,
            None => self.opt.policy(),
        }
    }

    /// Residence of rank-private per-vertex state (parent arrays, the
    /// local `visited` bits, the graph itself): socket-local when bound,
    /// spread otherwise. Shared with the 2-D engine, which charges its
    /// probes under the same placement rules.
    pub(crate) fn private_residence(&self) -> Residence {
        match self.policy() {
            PlacementPolicy::BindToSocket => Residence::SocketPrivate,
            _ => Residence::InterleavedPrivateCache,
        }
    }

    /// Residence of `in_queue` during computation.
    pub(crate) fn in_queue_residence(&self) -> Residence {
        if self.placement_override.is_some() {
            self.private_residence() // the Original code keeps private copies
        } else {
            self.opt.in_queue_residence()
        }
    }

    /// Residence of `in_queue_summary` during computation.
    pub(crate) fn summary_residence(&self) -> Residence {
        if self.placement_override.is_some() {
            self.private_residence()
        } else {
            self.opt.summary_residence()
        }
    }
}

/// Fluent, fallible construction of a [`Scenario`]. Holds the defaults:
/// `Scenario::builder(m, o).build()` with no knob set is what
/// [`Scenario::new`] returns.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    machine: MachineConfig,
    opt: OptLevel,
    switch_policy: SwitchPolicy,
    placement_override: Option<(usize, PlacementPolicy)>,
    params: ModelParams,
    trace: TraceConfig,
    faults: Option<FaultPlan>,
    summary_granularity: Option<usize>,
    codec: Codec,
}

impl ScenarioBuilder {
    /// Starts from the defaults: fault-free, untraced, [`Codec::Raw`],
    /// the opt rung's own placement and summary granularity.
    pub fn new(machine: MachineConfig, opt: OptLevel) -> Self {
        Self {
            machine,
            opt,
            switch_policy: SwitchPolicy::default(),
            placement_override: None,
            params: ModelParams::default(),
            trace: TraceConfig::Off,
            faults: None,
            summary_granularity: None,
            codec: Codec::Raw,
        }
    }

    /// Overrides the hybrid switch thresholds.
    pub fn switch_policy(mut self, policy: SwitchPolicy) -> Self {
        self.switch_policy = policy;
        self
    }

    /// Overrides ppn and placement policy (Fig. 10's flag matrix).
    pub fn placement(mut self, ppn: usize, policy: PlacementPolicy) -> Self {
        self.placement_override = Some((ppn, policy));
        self
    }

    /// Overrides the cost-model constants (ablations).
    pub fn params(mut self, params: ModelParams) -> Self {
        self.params = params;
        self
    }

    /// Selects the run-event recording configuration.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the summary-bitmap granularity independently of the opt
    /// rung (the Fig. 16 sweep; `--summary-g` in the CLI).
    pub fn summary_granularity(mut self, g: usize) -> Self {
        self.summary_granularity = Some(g);
        self
    }

    /// Selects the wire codec for the per-level collectives
    /// ([`Codec::Raw`] by default, preserving today's exchanges
    /// bit-for-bit).
    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Validates the machine (and any summary-granularity override) and
    /// assembles the scenario.
    ///
    /// # Errors
    /// [`NbfsError::Config`] if the machine description is inconsistent
    /// (see [`MachineConfig::validate`]) or the granularity override
    /// breaks the [`nbfs_util::summary::check_granularity`] contract.
    pub fn build(self) -> Result<Scenario, NbfsError> {
        self.machine.validate().map_err(NbfsError::config)?;
        if let Some(g) = self.summary_granularity {
            nbfs_util::summary::check_granularity(g).map_err(NbfsError::config)?;
        }
        Ok(Scenario {
            machine: self.machine,
            opt: self.opt,
            switch_policy: self.switch_policy,
            placement_override: self.placement_override,
            params: self.params,
            trace: self.trace,
            faults: self.faults,
            summary_granularity: self.summary_granularity,
            codec: self.codec,
        })
    }
}

/// Per-rank mutable BFS state.
struct RankState {
    /// Parents, visited bits (maintained incrementally so the bottom-up
    /// kernel can skip fully explored 64-vertex blocks with one word load),
    /// the top-down frontier queue and the `m_u` share.
    own: Owned,
    /// Owned vertices with at least one edge. A degree-0 vertex can never
    /// be adopted bottom-up, so the word-level kernel scans
    /// `!visited & has_edges` and skips isolated vertices forever — R-MAT
    /// graphs leave a large fraction of ids isolated, and rescanning them
    /// every level is where the per-bit kernel spends most of its time.
    has_edges: Bitmap,
    /// Owned slice of the next-frontier bitmap (word-aligned segment).
    out_words: Vec<u64>,
    /// This rank's counts of the current top-down level, reset at level
    /// entry (run-scoped, so the walk allocates nothing per level).
    td: TdTally,
}

/// Per-rank counts of one top-down level ([`DistributedBfs::top_down_level`]).
#[derive(Clone, Copy, Default)]
struct TdTally {
    /// Arcs from the frontier into this rank's block.
    matched: u64,
    /// Sum of the degrees of the vertices adopted this level (leaves
    /// `unexplored_degree`); the vertices themselves are the new frontier.
    degree_found: u64,
}

/// Host wall-clock timing of the real kernels, separate from simulated
/// time. Nondeterministic by nature, so it is returned alongside — never
/// inside — [`BfsRun`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WallClock {
    /// Seconds spent in bottom-up kernel dispatch across all levels.
    pub bottom_up_secs: f64,
    /// Seconds spent in top-down kernel dispatch across all levels.
    pub top_down_secs: f64,
    /// Whole-run seconds (kernels, simulated collectives, bookkeeping).
    pub total_secs: f64,
    /// Bottom-up levels executed.
    pub bottom_up_levels: u32,
    /// Top-down levels executed.
    pub top_down_levels: u32,
    /// Real adjacency entries examined by the bottom-up kernels.
    pub bottom_up_edges: u64,
}

/// A host clock the engine can read without touching `std::time`.
///
/// The simulated-time discipline (DESIGN.md §2, enforced by diagnostic
/// NBFS002) keeps `Instant::now`/`SystemTime` out of every crate except
/// `nbfs-bench`'s wallclock module. The engine therefore takes the clock
/// by injection: the repo benchmark (`perfbench/`) passes
/// `nbfs_bench::wallclock::HostTimer` to `run_timed`, everything else
/// runs on [`NoClock`] and pays nothing.
pub trait HostClock {
    /// Monotonic seconds since an arbitrary per-clock epoch.
    fn now_secs(&self) -> f64;
}

/// The null clock: all reads return 0, so every wall-clock field of
/// [`WallClock`] stays 0 and no syscall is made.
pub struct NoClock;

impl HostClock for NoClock {
    fn now_secs(&self) -> f64 {
        0.0
    }
}

/// Output of one rank's level kernel.
struct KernelOut {
    events: ComputeEvents,
    discovered: u64,
}

/// Words per intra-rank bottom-up chunk (4096 vertices). Boundaries are a
/// pure function of the partition, so the chunk decomposition — and with it
/// every merged result — is independent of the rayon worker count.
pub(crate) const BU_CHUNK_WORDS: usize = 64;

/// The adjacency rows a bottom-up scan walks: a contiguous vertex block
/// with sorted global neighbour ids. The 1-D engine scans a rank's
/// [`LocalGraph`]; the 2-D engine scans a row-group block against one
/// column's sources through the same monomorphized kernel.
pub(crate) trait BuRows: Sync {
    /// First vertex id of the block (the id space `bu_scan_chunk` indexes
    /// `parent`/`out` relative to).
    fn first_vertex(&self) -> usize;
    /// Sorted neighbour ids of block vertex `v` (ascending — the min-parent
    /// invariant depends on this order).
    fn neighbours_global(&self, v: usize) -> &[u32];
}

impl BuRows for LocalGraph {
    fn first_vertex(&self) -> usize {
        LocalGraph::first_vertex(self)
    }

    fn neighbours_global(&self, v: usize) -> &[u32] {
        LocalGraph::neighbours_global(self, v)
    }
}

/// Read-only inputs shared by every chunk of one bottom-up scan.
pub(crate) struct BuScanInputs<'a, R: BuRows> {
    pub(crate) lg: &'a R,
    pub(crate) visited: &'a Bitmap,
    pub(crate) candidates: &'a Bitmap,
    pub(crate) in_queue: &'a Bitmap,
    pub(crate) summary: &'a SummaryBitmap,
}

// Manual impls: a derive would bound `R: Clone/Copy`, but every field is a
// shared reference, so the struct is Copy for any `R`.
impl<R: BuRows> Clone for BuScanInputs<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R: BuRows> Copy for BuScanInputs<'_, R> {}

/// Per-chunk output of the word-level bottom-up scan, merged in chunk order.
/// The chunk's newly discovered vertices are not listed here: they are
/// exactly the set bits of the chunk's `out` words, so the caller rebuilds
/// the frontier queue from those (ascending) instead of growing a `Vec`
/// inside the hot loop.
#[derive(Clone, Copy, Default)]
pub(crate) struct BuChunkOut {
    pub(crate) discovered: u64,
    pub(crate) degree_found: u64,
    pub(crate) summary_probes: u64,
    pub(crate) inqueue_probes: u64,
    pub(crate) edge_bytes: u64,
    pub(crate) write_bytes: u64,
    pub(crate) cpu_ops: u64,
}

/// Scans one word-aligned chunk of a rank's vertex range bottom-up.
///
/// `base` is the chunk's first local vertex id; `parent` and `out` are the
/// chunk's slices of the rank's parent array and out-queue words. The scan
/// walks words of `!visited & candidates` — one load skips 64 vertices that
/// are explored or isolated (degree-0 vertices can never be adopted bottom
/// up, so masking them out is invisible to every counter: they contribute
/// no edges, probes or writes, and the 2-op visited check is charged for
/// the whole chunk regardless). Summary and `in_queue` probes go through
/// direct word loads. Counters are those of a vertex-by-vertex scan
/// (`tests/bottom_up_oracle.rs` recomputes them from the graph): every
/// examined neighbour pays its summary probe, with the per-edge tallies
/// hoisted out of the loop (the examined-prefix length is known once the
/// scan of a vertex ends).
pub(crate) fn bu_scan_chunk<R: BuRows>(
    inp: &BuScanInputs<'_, R>,
    base: usize,
    parent: &mut [u32],
    out: &mut [u64],
) -> BuChunkOut {
    // nbfs-analysis: hot-path
    // The bottom-up word kernel: runs once per chunk per level over the
    // whole unvisited vertex set. Everything below works in caller-owned
    // slices; a heap allocation here would be per-level host time the
    // simulated cost model cannot see (NBFS004 enforces this).
    let BuScanInputs {
        lg,
        visited,
        candidates,
        in_queue,
        summary,
    } = *inp;
    let first = lg.first_vertex();
    let mut o = BuChunkOut {
        cpu_ops: 2 * parent.len() as u64,
        ..BuChunkOut::default()
    };
    // Direct word loads beat the branchy cached probes here: neighbour ids
    // jump words almost every probe, so the "same word as last time?" test
    // is a steady branch misprediction, while an unconditional load from
    // the summary (1 KB at reference granularity) and `in_queue` (L2-sized)
    // words is served from cache. Probe *counts* are identical either way.
    let sum_words = summary.as_bitmap().words();
    let sum_shift = summary.granularity_shift();
    let iq_words = in_queue.words();
    let word_base = base / WORD_BITS;
    let vis_words = &visited.words()[word_base..word_base + out.len()];
    let cand_words = &candidates.words()[word_base..word_base + out.len()];
    for (wo, ((out_word, &vis), &cand)) in out.iter_mut().zip(vis_words).zip(cand_words).enumerate()
    {
        let wi = word_base + wo;
        // `candidates` padding bits are zero, so no tail mask is needed.
        let mut pending = !vis & cand;
        while pending != 0 {
            let bit = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let local = wi * WORD_BITS + bit;
            let v = first + local;
            let neigh = lg.neighbours_global(v);
            let mut examined = neigh.len() as u64;
            for (i, &u) in neigh.iter().enumerate() {
                let g = u as usize >> sum_shift;
                if (sum_words[g >> 6] >> (g & 63)) & 1 == 0 {
                    continue; // the summary's fast path: provably not in frontier
                }
                o.inqueue_probes += 1;
                if (iq_words[u as usize >> 6] >> (u as usize & 63)) & 1 == 1 {
                    parent[local - base] = u;
                    *out_word |= 1u64 << bit;
                    o.write_bytes += 12;
                    o.discovered += 1;
                    o.degree_found += neigh.len() as u64;
                    examined = i as u64 + 1;
                    break;
                }
            }
            o.edge_bytes += 4 * examined;
            o.summary_probes += examined;
            o.cpu_ops += 4 * examined;
        }
    }
    o
    // nbfs-analysis: end-hot-path
}

/// Result of one distributed BFS.
#[derive(Clone, Debug)]
pub struct BfsRun {
    /// Global parent array, assembled from the ranks' partitions.
    pub parent: Vec<u32>,
    /// Time breakdown.
    pub profile: RunProfile,
    /// Vertices visited (root included).
    pub visited: usize,
}

/// The distributed hybrid BFS engine.
///
/// Generic over the graph storage ([`GraphView`]): the default `Csr` and
/// the delta-varint [`nbfs_graph::CompressedCsr`] partition into identical
/// [`PartitionedGraph`]s, so every kernel below is storage-agnostic after
/// construction and results are bitwise-identical across storages.
pub struct DistributedBfs<'g, G: GraphView = Csr> {
    graph: &'g G,
    parts: PartitionedGraph,
    scenario: Scenario,
    pmap: ProcessMap,
    net: NetworkModel,
    /// The scenario's effective summary granularity, contract-checked
    /// once here at construction; the per-root level loop builds its
    /// summaries prevalidated (a regression test pins that no per-run
    /// re-validation creeps back in).
    granularity: usize,
}

impl<'g, G: GraphView> DistributedBfs<'g, G> {
    /// Partitions `graph` for the scenario's process map and prepares the
    /// cost models. Scenario validation — including the summary
    /// granularity contract — happens exactly once, here; individual runs
    /// are validation-free.
    ///
    /// # Panics
    /// If the scenario's effective summary granularity breaks the
    /// [`nbfs_util::summary::check_granularity`] contract.
    pub fn new(graph: &'g G, scenario: &Scenario) -> Self {
        let pmap = scenario.process_map();
        let parts = PartitionedGraph::new(graph, pmap.world_size());
        let net = NetworkModel::new(&scenario.machine);
        let granularity = scenario.effective_granularity();
        let checked = nbfs_util::summary::check_granularity(granularity);
        assert!(
            checked.is_ok(),
            "invalid scenario summary granularity: {}",
            checked.err().unwrap_or_default()
        );
        Self {
            graph,
            parts,
            scenario: scenario.clone(),
            pmap,
            net,
            granularity,
        }
    }

    /// The graph being searched.
    pub fn graph(&self) -> &G {
        self.graph
    }

    /// The process map in force.
    pub fn process_map(&self) -> &ProcessMap {
        &self.pmap
    }

    fn drive(
        &self,
        root: usize,
        clock: &dyn HostClock,
        trace: TraceConfig,
    ) -> Result<Search, NbfsError> {
        let env = Env::new(
            &self.scenario,
            &self.pmap,
            &self.net,
            self.parts.num_vertices(),
        );
        level::search(&env, || OneDim::new(self), root, clock, trace)
    }

    /// Runs a BFS from `root`: the tree and its profile, the host timing of
    /// the real kernels read from `clock` (pass [`NoClock`] when it does
    /// not matter), and the run's events recorded per the scenario's
    /// [`TraceConfig`]. Faults are injected per [`Scenario::faults`].
    ///
    /// The report's [`TraceReport::run_profile`] projection reproduces
    /// `run.profile` bit for bit: each level's times are committed from
    /// per-level accumulators and emitted, the same values, in the level's
    /// trace event. Fault penalties flow through those same accumulators,
    /// so the invariant holds for faulted runs too.
    ///
    /// # Errors
    /// [`NbfsError::Config`] when `root` is not a vertex;
    /// [`NbfsError::RankFailed`] or [`NbfsError::Fault`] when the
    /// scenario's fault plan kills a rank or exhausts a retry budget.
    pub fn search(&self, root: usize, clock: &dyn HostClock) -> Result<Search, NbfsError> {
        self.drive(root, clock, self.scenario.trace)
    }

    /// [`Self::search`] without a clock or a recording, for scenarios that
    /// cannot fail.
    ///
    /// # Panics
    /// If `root` is not a vertex, or the scenario carries a [`FaultPlan`]
    /// whose faults prove unrecoverable — use [`Self::search`] for those.
    ///
    /// [`FaultPlan`]: nbfs_comm::FaultPlan
    pub fn run(&self, root: usize) -> BfsRun {
        fault_free(self.drive(root, &NoClock, TraceConfig::Off)).run
    }

    /// [`Self::search`] without a clock, for scenarios that cannot fail.
    ///
    /// # Panics
    /// As [`Self::run`].
    pub fn run_traced(&self, root: usize) -> (BfsRun, TraceReport) {
        let search = fault_free(self.search(root, &NoClock));
        (search.run, search.report)
    }

    /// [`Self::search`] without a recording, for scenarios that cannot
    /// fail.
    ///
    /// # Panics
    /// As [`Self::run`].
    pub fn run_timed(&self, root: usize, clock: &dyn HostClock) -> (BfsRun, WallClock) {
        let search = fault_free(self.drive(root, clock, TraceConfig::Off));
        (search.run, search.wall)
    }

    /// The bottom-up level kernel for one rank: scan owned unvisited
    /// vertices, probe the summary then `in_queue` per neighbour, adopt the
    /// first frontier neighbour as parent.
    ///
    /// Word-level implementation: the vertex scan walks the zero words of
    /// the rank's `visited` bitmap (one load skips 64 explored vertices),
    /// the summary and `in_queue` probes are direct word loads, and the
    /// rank's vertex range is scanned in the fixed chunks of
    /// [`level::bu_scan`], so parents, frontiers and every
    /// [`ComputeEvents`] counter are independent of the worker count
    /// (`tests/bottom_up_oracle.rs` recomputes them from the graph).
    fn bottom_up_kernel(
        &self,
        lg: &LocalGraph,
        st: &mut RankState,
        in_queue: &Bitmap,
        summary: &SummaryBitmap,
    ) -> KernelOut {
        let RankState {
            own,
            has_edges,
            out_words,
            ..
        } = st;
        out_words.fill(0);
        own.frontier.clear();
        let inputs = BuScanInputs {
            lg,
            visited: &own.visited,
            candidates: has_edges,
            in_queue,
            summary,
        };
        let scan = level::bu_scan(&inputs, &mut own.parent, out_words);
        own.unexplored_degree -= scan.degree_found;

        // nbfs-analysis: hot-path
        // The frontier queue is the set bits of `out_words` in ascending
        // order — the order a vertex-by-vertex scan adopts them. It is
        // rebuilt every bottom-up level into the recycled `frontier`
        // (reserve on a recycled Vec is amortized-free, new heap blocks
        // are not — NBFS004).
        let first = lg.first_vertex();
        own.frontier.reserve(scan.discovered as usize);
        for (wo, &word) in out_words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                own.frontier
                    .push(vid::to_stored(first + wo * WORD_BITS + bit));
            }
        }
        // nbfs-analysis: end-hot-path

        KernelOut {
            events: level::bu_events(
                &self.scenario,
                &scan,
                lg.num_local_vertices(),
                summary.size_bytes(),
                in_queue.size_bytes(),
            ),
            discovered: scan.discovered,
        }
    }

    /// One top-down level over all ranks: the owner walk.
    ///
    /// The graph is symmetric, so the arcs from frontier vertex `u` into
    /// rank `p`'s block are `u`'s own row cut at `p`'s block boundaries —
    /// rows ascend, so each owner's bucket is contiguous. The walk takes
    /// each `u` of the gathered frontier in order, reads its row from its
    /// owner and claims the unvisited targets of every bucket in that
    /// bucket's rank. `full_frontier` ascends (rank-order concatenation of
    /// sorted per-rank queues, or `iter_ones` of the gathered bitmap), so
    /// the first claim of a vertex is its minimum frontier neighbour.
    ///
    /// The *simulated* cost is still the paper's replicated algorithm:
    /// every rank is charged for sweeping the whole frontier against a
    /// transposed `(source, owned target)` index of `8 * arcs` bytes. That
    /// index is no longer built — its lookups are a closed form in the
    /// frontier length, the rank's bucket sizes and its arc count — so the
    /// host does the work once where the model charges it `np` times.
    fn top_down_level(&self, states: &mut [RankState], full_frontier: &[u32]) -> Vec<KernelOut> {
        for st in states.iter_mut() {
            st.own.frontier.clear();
            st.td = TdTally::default();
        }
        let partition = self.parts.partition();
        // nbfs-analysis: hot-path
        // Every arc out of the frontier, once. Pushes land in the ranks'
        // recycled frontier queues and the counts in their run-scoped
        // tallies, so a level allocates only when a queue outgrows its
        // high-water mark (NBFS004).
        for &u in full_frontier {
            let mut rest = self
                .parts
                .local(partition.owner(u as usize))
                .neighbours_global(u as usize);
            while let Some(&v0) = rest.first() {
                let p = partition.owner(v0 as usize);
                let lg = self.parts.local(p);
                let block = lg.vertex_range();
                let (bucket, tail) =
                    rest.split_at(rest.partition_point(|&v| (v as usize) < block.end));
                rest = tail;
                let st = &mut states[p];
                st.td.matched += bucket.len() as u64;
                for &v in bucket {
                    let local = v as usize - block.start;
                    if st.own.parent[local] == NO_PARENT {
                        st.own.parent[local] = u;
                        st.own.visited.set(local);
                        st.own.frontier.push(v);
                        st.td.degree_found += lg.degree_global(v as usize) as u64;
                    }
                }
            }
        }
        // nbfs-analysis: end-hot-path
        let flen = full_frontier.len() as u64;
        states
            .iter_mut()
            .enumerate()
            .map(|(p, st)| {
                st.own.frontier.sort_unstable();
                st.own.unexplored_degree -= st.td.degree_found;
                let discovered = st.own.frontier.len() as u64;
                let arcs = self.parts.local(p).num_local_arcs();
                let lookup_ops = 8 + (arcs.max(2) as f64).log2().ceil() as u64;
                let events = ComputeEvents {
                    vertex_scan_bytes: flen * 4,
                    edge_bytes: 8 * (flen + st.td.matched),
                    write_bytes: 12 * discovered,
                    cpu_ops: flen * lookup_ops + 3 * st.td.matched,
                    probes: vec![ProbeClass {
                        count: flen / 8 + 1,
                        working_set: (arcs * 8).max(64),
                        residence: self.scenario.private_residence(),
                    }],
                };
                KernelOut { events, discovered }
            })
            .collect()
    }
}

/// The 1-D exchange: every rank owns a block of vertices with their whole
/// rows; a level allgathers the frontier to every rank (`in_queue` and its
/// summary bottom-up, the sparse lists or the dense bitmap top-down) and
/// each rank then works on its own block alone.
struct OneDim<'e, 'g, G: GraphView> {
    engine: &'e DistributedBfs<'g, G>,
    states: Vec<RankState>,
    in_queue: Bitmap,
    summary: SummaryBitmap,
    /// Persistent staging for the dense top-down exchange, so no level
    /// allocates a full-length bitmap.
    td_scratch: Bitmap,
    /// Per-level codec staging: encode buffers plus raw/encoded size
    /// vectors, recycled so compressed levels stay alloc-free after
    /// warm-up (NBFS004).
    codec_ws: CodecWorkspace,
    codec_scratch: Vec<u8>,
    summary_enc_bytes: Vec<u64>,
    /// The raw summary allgather's per-rank bytes ([`even_split`]); they
    /// depend only on the summary size — constant for the whole run.
    summary_bytes: Vec<u64>,
}

impl<'e, 'g, G: GraphView> OneDim<'e, 'g, G> {
    fn new(engine: &'e DistributedBfs<'g, G>) -> Self {
        let n = engine.parts.num_vertices();
        let np = engine.pmap.world_size();
        let partition = engine.parts.partition();
        let states = (0..np)
            .map(|r| {
                let lg = engine.parts.local(r);
                let (ws, we) = partition.word_range(r);
                let mut has_edges = Bitmap::new(lg.num_local_vertices());
                for v in lg.vertex_range() {
                    if lg.degree_global(v) > 0 {
                        has_edges.set(v - lg.first_vertex());
                    }
                }
                RankState {
                    own: Owned::new(lg.vertex_range().map(|v| lg.degree_global(v) as u64)),
                    has_edges,
                    out_words: vec![0u64; we - ws],
                    td: TdTally::default(),
                }
            })
            .collect();
        // Granularity was contract-checked at construction; per-run
        // summary creation must stay validation-free (pinned by the
        // one-time-validation regression test).
        let summary = SummaryBitmap::new_prevalidated(n, engine.granularity);
        let mut summary_bytes = vec![0; np];
        even_split(summary.size_bytes() as u64, &mut summary_bytes);
        Self {
            engine,
            states,
            in_queue: Bitmap::new(n),
            summary,
            td_scratch: Bitmap::new(n),
            codec_ws: CodecWorkspace::default(),
            codec_scratch: Vec::new(),
            summary_enc_bytes: vec![0; np],
            summary_bytes,
        }
    }

    /// Rewrites every rank's `out_words` segment from its frontier queue.
    fn queues_to_segments(&mut self) {
        let partition = self.engine.parts.partition();
        // A rank clears its segment and sets one bit per queued vertex.
        let ops: usize = self
            .states
            .iter()
            .map(|st| st.out_words.len() + st.own.frontier.len())
            .sum();
        let min_len = grain::min_len(self.states.len(), ops as u64);
        self.states
            .par_iter_mut()
            .with_min_len(min_len)
            .enumerate()
            .for_each(|(r, st)| {
                let (bit_start, _) = partition.item_range(r);
                st.out_words.fill(0);
                for &v in &st.own.frontier {
                    let local_bit = v as usize - bit_start;
                    st.out_words[local_bit / 64] |= 1u64 << (local_bit % 64);
                }
            });
    }

    /// Allgathers the ranks' `out_words` segments straight into the
    /// persistent `in_queue` words (bottom-up) or the dense top-down
    /// staging bitmap — no per-level staging vectors. Leaves the volume
    /// in `codec_ws` for [`allgather_codec_stats`].
    fn gather_segments(&mut self, direction: Direction) -> CommCost {
        let engine = self.engine;
        let dest = match direction {
            Direction::BottomUp => &mut self.in_queue,
            Direction::TopDown => &mut self.td_scratch,
        };
        let parts_ref: Vec<&[u64]> = self.states.iter().map(|s| s.out_words.as_slice()).collect();
        let cost = allgather_words_codec_into(
            dest.words_mut(),
            &parts_ref,
            &engine.pmap,
            &engine.net,
            engine.scenario.opt.allgather_algorithm(),
            engine.scenario.codec,
            &mut self.codec_ws,
        );
        dest.repair_padding();
        cost
    }
}

/// Splits `total` bytes evenly over the ranks of `shares` (remainder
/// spread): each rank contributes the summary of its own segment.
fn even_split(total: u64, shares: &mut [u64]) {
    let np = shares.len() as u64;
    for (r, share) in shares.iter_mut().enumerate() {
        let r = r as u64;
        *share = total * (r + 1) / np - total * r / np;
    }
}

impl<G: GraphView> Exchange for OneDim<'_, '_, G> {
    fn owned(&self, rank: usize) -> &Owned {
        &self.states[rank].own
    }

    fn owned_mut(&mut self, rank: usize) -> &mut Owned {
        &mut self.states[rank].own
    }

    fn degree(&self, rank: usize, v: usize) -> u64 {
        self.engine.parts.local(rank).degree_global(v) as u64
    }

    fn bottom_up(&mut self, lv: &mut Level<'_>) -> Result<u64, NbfsError> {
        let engine = self.engine;
        let (pmap, net) = (&engine.pmap, &engine.net);
        let codec = engine.scenario.codec;
        let algo = engine.scenario.opt.allgather_algorithm();
        // Coming from top-down (or on the first level) the frontier exists
        // only as queues: convert to bitmap segments.
        if lv.switched {
            self.queues_to_segments();
        }

        // The two allgathers of Fig. 1: in_queue, then summary.
        let words_cost = self.gather_segments(Direction::BottomUp);
        self.summary.rebuild_from(&self.in_queue);
        // The summary allgather is cost-only (no payload is materialized),
        // so a codec charges the even split of the encoded whole-summary
        // size instead of the raw one.
        let summary_wire = if codec.is_raw() {
            &self.summary_bytes
        } else {
            let words = self.summary.as_bitmap().words();
            let enc_total = encoded_words_size(codec, words, &mut self.codec_scratch);
            even_split(enc_total, &mut self.summary_enc_bytes);
            &self.summary_enc_bytes
        };
        let summary_cost = allgather_cost_bytes(summary_wire, pmap, net, algo);
        if lv.observed() {
            let words_stats = allgather_codec_stats(&self.codec_ws, pmap, algo);
            let mut summary_stats = allgather_stats_bytes(summary_wire, pmap, algo);
            if !codec.is_raw() {
                summary_stats.raw_bytes =
                    allgather_stats_bytes(&self.summary_bytes, pmap, algo).wire_bytes;
            }
            let edges = || allgather_edges(pmap, algo);
            lv.collective(
                CollectiveKind::AllgatherWords,
                words_cost,
                words_stats,
                edges,
            )?;
            lv.collective(
                CollectiveKind::AllgatherSummary,
                summary_cost,
                summary_stats,
                edges,
            )?;
        }
        // Added once, after the penalties: the pinned operand order.
        let comm = words_cost + summary_cost;
        lv.detail += comm;
        lv.comm += comm.total();

        let (in_queue, summary) = (&self.in_queue, &self.summary);
        let states = &mut self.states;
        // A scan walks the visited words and at most the arcs of the
        // unvisited vertices.
        let ops = in_queue.words().len() as u64
            + states
                .iter()
                .map(|st| st.own.unexplored_degree)
                .sum::<u64>();
        let min_len = grain::min_len(states.len(), ops);
        let outs: Vec<KernelOut> = lv.kernel(|| {
            states
                .par_iter_mut()
                .with_min_len(min_len)
                .enumerate()
                .map(|(r, st)| {
                    engine.bottom_up_kernel(engine.parts.local(r), st, in_queue, summary)
                })
                .collect()
        });
        // nbfs-analysis: hot-path
        // Fold the level's discoveries into the visited bits the next
        // bottom-up scan will skip (word-parallel OR over persistent
        // buffers; allocation-free by NBFS004).
        for st in self.states.iter_mut() {
            st.own.visited.or_words_from(0, &st.out_words);
        }
        // nbfs-analysis: end-hot-path
        Ok(lv.charge_ranks(outs.iter().map(|o| (&o.events, o.discovered))))
    }

    fn top_down(&mut self, lv: &mut Level<'_>) -> Result<u64, NbfsError> {
        let engine = self.engine;
        let (pmap, net) = (&engine.pmap, &engine.net);
        let codec = engine.scenario.codec;
        // Replicate the frontier: sparse allgatherv of the newly
        // discovered vertex lists when the frontier is sparse (why
        // top-down communication stays off the Fig. 11 radar), or the
        // frontier *bitmap* when the list would be larger than the bitmap
        // — the dense/sparse frontier-representation switch of [9].
        let algo = engine.scenario.opt.allgather_algorithm();
        let edges = || allgather_edges(pmap, algo);
        let list_bytes: usize = self.states.iter().map(|s| s.own.frontier.len() * 4).sum();
        let bitmap_bytes = engine.parts.num_vertices().div_ceil(8);
        let full_frontier: Vec<u32>;
        let exchange_cost;
        if list_bytes > bitmap_bytes {
            // Dense path: allgather the out_words segments and extract
            // the sorted vertex list locally.
            self.queues_to_segments();
            let cost = self.gather_segments(Direction::TopDown);
            full_frontier = self.td_scratch.iter_ones().map(vid::to_stored).collect();
            if lv.observed() {
                let stats = allgather_codec_stats(&self.codec_ws, pmap, algo);
                lv.collective(CollectiveKind::AllgatherWords, cost, stats, edges)?;
            }
            exchange_cost = cost.total();
            lv.charge_conversion();
        } else {
            let lists: Vec<&[u32]> = self
                .states
                .iter()
                .map(|s| s.own.frontier.as_slice())
                .collect();
            let gathered = allgatherv_u32_codec(&lists, pmap, net, algo, codec, &mut self.codec_ws);
            if lv.observed() {
                let stats = allgather_codec_stats(&self.codec_ws, pmap, algo);
                lv.collective(CollectiveKind::Allgatherv, gathered.cost, stats, edges)?;
            }
            full_frontier = gathered.items;
            exchange_cost = gathered.cost.total();
        }
        lv.comm += exchange_cost;

        let states = &mut self.states;
        let outs = lv.kernel(|| engine.top_down_level(states, &full_frontier));
        Ok(lv.charge_ranks(outs.iter().map(|o| (&o.events, o.discovered))))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_graph::validate::validate_bfs_tree;
    use nbfs_graph::GraphBuilder;
    use nbfs_topology::presets;
    use nbfs_util::SimTime;

    fn small_machine() -> MachineConfig {
        MachineConfig::small_test_cluster(2, 4)
    }

    #[test]
    fn produces_valid_tree_on_every_opt_level() {
        let g = GraphBuilder::rmat(11, 8).seed(13).build();
        for opt in OptLevel::LADDER {
            let scenario = Scenario::new(small_machine(), opt);
            let run = DistributedBfs::new(&g, &scenario).run(5);
            let visited =
                validate_bfs_tree(&g, 5, &run.parent).unwrap_or_else(|e| panic!("{opt:?}: {e}"));
            assert_eq!(visited, run.visited, "{opt:?}");
            assert_eq!(visited, g.component_of(5).len(), "{opt:?}");
            assert!(run.profile.total() > SimTime::ZERO, "{opt:?}");
        }
    }

    #[test]
    fn matches_sequential_visited_set() {
        let g = GraphBuilder::rmat(11, 8).seed(21).build();
        let seq = crate::seq::bfs_top_down(&g, 9);
        let scenario = Scenario::new(small_machine(), OptLevel::ShareAll);
        let run = DistributedBfs::new(&g, &scenario).run(9);
        for v in 0..g.num_vertices() {
            assert_eq!(
                seq.parent[v] != NO_PARENT,
                run.parent[v] != NO_PARENT,
                "v={v}"
            );
        }
    }

    #[test]
    fn deterministic_across_invocations() {
        let g = GraphBuilder::rmat(10, 8).seed(2).build();
        let scenario = Scenario::new(small_machine(), OptLevel::Granularity(256));
        let engine = DistributedBfs::new(&g, &scenario);
        let a = engine.run(3);
        let b = engine.run(3);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.profile.total(), b.profile.total());
        assert_eq!(a.profile.bu_comm, b.profile.bu_comm);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = GraphBuilder::rmat(10, 8).seed(2).build();
        let scenario = Scenario::new(small_machine(), OptLevel::ParAllgather);
        let engine = DistributedBfs::new(&g, &scenario);
        let multi = engine.run(3);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let single = pool.install(|| engine.run(3));
        assert_eq!(multi.parent, single.parent);
        assert_eq!(multi.profile.total(), single.profile.total());
    }

    #[test]
    fn uses_all_three_phases_on_rmat() {
        let g = GraphBuilder::rmat(12, 16).seed(4).build();
        let scenario = Scenario::new(small_machine(), OptLevel::OriginalPpn8);
        let run = DistributedBfs::new(&g, &scenario).run(3);
        let dirs: Vec<Direction> = run.profile.levels.iter().map(|l| l.direction).collect();
        assert_eq!(dirs.first(), Some(&Direction::TopDown));
        assert!(dirs.contains(&Direction::BottomUp), "{dirs:?}");
        assert!(run.profile.bu_comm > SimTime::ZERO);
        assert!(run.profile.bu_comp > SimTime::ZERO);
        assert!(run.profile.switch > SimTime::ZERO);
    }

    #[test]
    fn isolated_root_is_a_one_vertex_tree() {
        let g = GraphBuilder::rmat(11, 8).seed(13).build();
        let isolated = (0..g.num_vertices())
            .find(|&v| g.degree(v) == 0)
            .expect("R-MAT has isolated vertices");
        let scenario = Scenario::new(small_machine(), OptLevel::ShareAll);
        let run = DistributedBfs::new(&g, &scenario).run(isolated);
        assert_eq!(run.visited, 1);
        assert_eq!(run.parent[isolated], isolated as u32);
    }

    #[test]
    fn optimization_ladder_improves_total_time() {
        // Fig. 9's overall direction on a multi-node machine: each rung at
        // least must not be slower, and the ends must differ substantially.
        let g = GraphBuilder::rmat(13, 16).seed(31).build();
        let machine = presets::xeon_x7550_cluster(4).scaled_to_graph(13, 28);
        let mut times = Vec::new();
        for opt in [
            OptLevel::OriginalPpn8,
            OptLevel::ShareInQueue,
            OptLevel::ShareAll,
            OptLevel::ParAllgather,
        ] {
            let scenario = Scenario::new(machine.clone(), opt);
            let run = DistributedBfs::new(&g, &scenario).run(3);
            times.push((opt, run.profile.total()));
        }
        for w in times.windows(2) {
            assert!(
                w[1].1 <= w[0].1 * 1.02,
                "{:?} ({:?}) should not be slower than {:?} ({:?})",
                w[1].0,
                w[1].1,
                w[0].0,
                w[0].1
            );
        }
        let end_to_end = times[0].1 / times[3].1;
        assert!(
            end_to_end > 1.15,
            "communication optimizations should pay off visibly, got {end_to_end}"
        );
    }

    #[test]
    fn tuned_granularity_beats_reference_at_scale_16() {
        // The Fig. 16 trade-off: g = 256 shrinks the summary to a quarter
        // of the reference footprint while its zero fraction stays useful,
        // so the tuned default must come out ahead of g = 64 in simulated
        // total time (the paper measures +10.2% at scale 32).
        let g = GraphBuilder::rmat(16, 16).seed(31).build();
        let machine = presets::xeon_x7550_cluster(4).scaled_to_graph(16, 28);
        let root = (0..g.num_vertices())
            .max_by_key(|&v| g.degree(v))
            .expect("non-empty graph");
        let reference = DistributedBfs::new(
            &g,
            &Scenario::new(
                machine.clone(),
                OptLevel::Granularity(SummaryBitmap::REFERENCE_GRANULARITY),
            ),
        )
        .run(root);
        let tuned = DistributedBfs::new(
            &g,
            &Scenario::new(
                machine,
                OptLevel::Granularity(SummaryBitmap::TUNED_GRANULARITY),
            ),
        )
        .run(root);
        assert_eq!(reference.parent, tuned.parent, "granularity is cost-only");
        assert!(
            tuned.profile.total() < reference.profile.total(),
            "tuned g=256 ({:?}) must beat the reference g=64 ({:?})",
            tuned.profile.total(),
            reference.profile.total()
        );
    }

    #[test]
    fn fig10_placement_ordering() {
        // bind-to-socket > interleave > noflag for the Original code on one
        // node (Fig. 10's ranking).
        // Fig. 10's regime is scale 28 on one node: computation dominates
        // fixed per-operation overheads. Scale 17 with caches scaled by the
        // same 2^11 factor reproduces that regime at test size.
        let g = GraphBuilder::rmat(17, 16).seed(7).build();
        let root = (0..g.num_vertices())
            .max_by_key(|&v| g.degree(v))
            .expect("non-empty graph");
        let machine = presets::xeon_x7550_node().scaled_to_graph(17, 28);
        let mut totals = std::collections::HashMap::new();
        for (label, ppn, policy) in [
            ("bind8", 8, PlacementPolicy::BindToSocket),
            ("inter1", 1, PlacementPolicy::Interleave),
            ("noflag1", 1, PlacementPolicy::Noflag),
            ("noflag8", 8, PlacementPolicy::Noflag),
        ] {
            let scenario = Scenario::builder(machine.clone(), OptLevel::OriginalPpn8)
                .placement(ppn, policy)
                .build()
                .unwrap();
            let run = DistributedBfs::new(&g, &scenario).run(root);
            totals.insert(label, run.profile.total());
        }
        assert!(totals["bind8"] < totals["inter1"], "{totals:?}");
        assert!(totals["inter1"] < totals["noflag1"], "{totals:?}");
        assert!(totals["bind8"] < totals["noflag8"], "{totals:?}");
    }
}

//! The level loop both distributed engines run on.
//!
//! Buluç & Madduri write 1-D and 2-D BFS as one loop that differs only in
//! its exchange step, and so does this crate: [`search`] owns the level
//! protocol — root installation, the per-level `(n_f, m_f, m_u)` control
//! allreduce, the direction decision, the per-level accumulators, the
//! fault sites, the one level-commit site with its [`LevelReport`], the
//! [`WallClock`] and the parent assembly — and
//! is generic over an [`Exchange`]: the 1-D rank state (allgathers of
//! `in_queue` / the frontier lists, owner walk) or the 2-D one (column
//! expand, row fold). An exchange runs one level in one direction and
//! charges it through the [`Level`] it is handed.
//!
//! The committed [`LevelReport`]s are the one per-level record: the
//! tracer keeps them under every [`TraceConfig`], and the run's
//! [`RunProfile`](nbfs_trace::RunProfile) is
//! [`TraceReport::run_profile`] of them. Every accumulator keeps the
//! operand order the simulated clock was pinned with
//! (`tests/profile_pins.rs`): an exchange adds a collective's cost itself,
//! after the fault penalties [`Level::collective`] folded in.

use rayon::prelude::*;

use nbfs_comm::collectives::allreduce_sum;
use nbfs_comm::fault::{inject_collective, inject_rank_faults, FaultEdge};
use nbfs_comm::FaultAdjustment;
use nbfs_graph::{vid, NO_PARENT};
use nbfs_simnet::compute::ProbeClass;
use nbfs_simnet::{ComputeContext, ComputeEvents, NetworkModel};
use nbfs_topology::ProcessMap;
use nbfs_trace::{
    CollectiveKind, CollectiveRecord, CollectiveStats, CommCost, DecisionRecord, LevelReport,
    RankLevelRecord, RunMeta, TraceConfig, TraceReport, Tracer,
};
use nbfs_util::{Bitmap, BlockPartition, NbfsError, SimTime, WORD_BITS};

use crate::direction::Direction;
use crate::engine::{
    bu_scan_chunk, BfsRun, BuChunkOut, BuRows, BuScanInputs, HostClock, Scenario, WallClock,
    BU_CHUNK_WORDS,
};
use crate::grain;

/// What one [`DistributedBfs::search`](crate::engine::DistributedBfs::search)
/// or [`TwoDimBfs::search`](crate::engine2d::TwoDimBfs::search) returns.
#[derive(Clone, Debug)]
pub struct Search {
    /// The tree and its simulated-time profile.
    pub run: BfsRun,
    /// Host wall-clock timing of the real kernels, read from the clock the
    /// search was given (all zero under
    /// [`NoClock`](crate::engine::NoClock)).
    pub wall: WallClock,
    /// The run's committed levels (`run.profile` is
    /// [`TraceReport::run_profile`] of them, fault penalties included) and,
    /// under [`TraceConfig::Standard`], its decisions, collectives, rank
    /// counters and faults.
    pub report: TraceReport,
}

/// Unwraps a search that can only fail when the scenario carries a
/// [`FaultPlan`](nbfs_comm::FaultPlan) or the root is not a vertex; the
/// infallible `run*` shims and the harness funnel through here (this is
/// the one deliberate panic of a search).
#[expect(
    clippy::expect_used,
    reason = "with no FaultPlan and a root that is a vertex a search has no failure path; \
              faulted scenarios and caller-supplied roots go through search"
)]
pub(crate) fn fault_free(result: Result<Search, NbfsError>) -> Search {
    result.expect("a fault plan or a root that is not a vertex: call search")
}

/// Per-rank state of the vertices a rank owns, the same in both engines.
pub(crate) struct Owned {
    /// Parent of each owned vertex (global ids; `NO_PARENT` = unvisited).
    pub(crate) parent: Vec<u32>,
    /// Visited flags over owned vertices (bit set ⇔ parent assigned).
    pub(crate) visited: Bitmap,
    /// Owned vertices discovered in the latest level (global ids,
    /// ascending).
    pub(crate) frontier: Vec<u32>,
    /// Sum of degrees of still-unvisited owned vertices (`m_u` share).
    pub(crate) unexplored_degree: u64,
}

impl Owned {
    /// All of `degrees` (one per owned vertex) unvisited.
    pub(crate) fn new(degrees: impl ExactSizeIterator<Item = u64>) -> Self {
        let len = degrees.len();
        Self {
            parent: vec![NO_PARENT; len],
            visited: Bitmap::new(len),
            frontier: Vec::new(),
            unexplored_degree: degrees.sum(),
        }
    }
}

/// What differs between the engines: where a rank's state lives and how
/// one level runs in each direction.
pub(crate) trait Exchange {
    /// The owned-vertex state of `rank`.
    fn owned(&self, rank: usize) -> &Owned;
    /// Mutable form of [`Self::owned`].
    fn owned_mut(&mut self, rank: usize) -> &mut Owned;
    /// Degree in the whole graph of `v`, a vertex `rank` owns.
    fn degree(&self, rank: usize, v: usize) -> u64;
    /// Runs one bottom-up level; returns the vertices discovered.
    fn bottom_up(&mut self, lv: &mut Level<'_>) -> Result<u64, NbfsError>;
    /// Runs one top-down level; returns the vertices discovered.
    fn top_down(&mut self, lv: &mut Level<'_>) -> Result<u64, NbfsError>;
}

/// What a search reads of its engine.
pub(crate) struct Env<'a> {
    scenario: &'a Scenario,
    pmap: &'a ProcessMap,
    net: &'a NetworkModel,
    /// The 1-D word-aligned block partition of the vertices over the ranks.
    partition: BlockPartition,
    ctx: ComputeContext,
}

impl<'a> Env<'a> {
    pub(crate) fn new(
        scenario: &'a Scenario,
        pmap: &'a ProcessMap,
        net: &'a NetworkModel,
        vertices: usize,
    ) -> Self {
        Self {
            scenario,
            pmap,
            net,
            partition: BlockPartition::new(vertices, pmap.world_size()),
            ctx: compute_context(scenario, pmap),
        }
    }
}

fn compute_context(scenario: &Scenario, pmap: &ProcessMap) -> ComputeContext {
    ComputeContext::new(
        &scenario.machine,
        pmap.threads_per_rank(),
        pmap.memory_profile(&scenario.machine),
        pmap.ppn(),
        scenario.params,
    )
}

/// Identity block of a search's [`TraceReport`].
fn run_meta(env: &Env<'_>, root: usize) -> RunMeta {
    RunMeta {
        world: env.pmap.world_size(),
        nodes: env.pmap.nodes(),
        ppn: env.pmap.ppn(),
        opt_label: env.scenario.opt.label(),
        root: root as u64,
    }
}

/// Mean/max reduction: the mean is the busy slice, the skew (`max - mean`)
/// is stall. When every rank takes the same time the rounded mean can sit
/// one ulp above the max, hence the saturating difference.
fn mean_and_stall(times: &[SimTime]) -> (SimTime, SimTime) {
    let max = times.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let mean = times.iter().copied().sum::<SimTime>() / times.len() as f64;
    (mean, max.saturating_sub(mean))
}

/// Applies one injection site's [`FaultAdjustment`]: every fault is
/// recorded in the trace, the recovery penalty folds into the caller's
/// accumulator (the one the committed [`LevelReport`] reads, so the
/// profile carries it), and an unrecoverable fault aborts the run.
fn apply_faults(
    tracer: &mut Tracer,
    adjustment: FaultAdjustment,
    accumulator: &mut SimTime,
) -> Result<(), NbfsError> {
    *accumulator += adjustment.penalty;
    for record in adjustment.records {
        tracer.fault(record);
    }
    match adjustment.failure {
        Some(error) => Err(error),
        None => Ok(()),
    }
}

/// One level in flight: the accumulators the commit reads, and the
/// charging helpers the exchanges share.
pub(crate) struct Level<'a> {
    env: &'a Env<'a>,
    tracer: &'a mut Tracer,
    clock: &'a dyn HostClock,
    /// Run-scoped scratch of [`Self::charge_ranks`].
    times: &'a mut Vec<SimTime>,
    index: usize,
    direction: Direction,
    /// Whether this level runs in the other direction than the last one
    /// (the first level counts as a switch into bottom-up only): the
    /// frontier must change representation, and the driver has charged
    /// the sweep.
    pub(crate) switched: bool,
    /// Communication time so far. An exchange adds each collective's cost
    /// here itself; fault penalties arrive through [`Self::collective`].
    pub(crate) comm: SimTime,
    /// Step split of the bottom-up collectives.
    pub(crate) detail: CommCost,
    comp: SimTime,
    stall: SimTime,
    switch: SimTime,
    kernel_secs: f64,
    bu_edges: u64,
}

impl Level<'_> {
    /// Whether collective volume statistics have a reader (a detailed
    /// trace or a fault plan). Exchanges skip computing them otherwise.
    pub(crate) fn observed(&self) -> bool {
        self.tracer.detailed() || self.env.scenario.faults.is_some()
    }

    /// Where a collective's walk lists its transfer schedule: an empty
    /// list under a fault plan, `None` (no listing) otherwise.
    pub(crate) fn edge_sink(&self) -> Option<Vec<FaultEdge>> {
        self.env.scenario.faults.as_ref().map(|_| Vec::new())
    }

    /// Records one collective of this level and, under a fault plan,
    /// resolves the plan against the collective's transfer schedule
    /// (`edges`, called only then): recovery penalties land in
    /// [`Self::comm`], an unrecoverable fault ends the search.
    pub(crate) fn collective(
        &mut self,
        kind: CollectiveKind,
        cost: CommCost,
        stats: CollectiveStats,
        edges: impl FnOnce() -> Vec<FaultEdge>,
    ) -> Result<(), NbfsError> {
        self.tracer.collective(CollectiveRecord {
            level: self.index,
            kind,
            cost,
            stats,
        });
        match &self.env.scenario.faults {
            Some(plan) => {
                let adjustment = inject_collective(plan, self.index, kind, &edges(), &cost, &stats);
                apply_faults(self.tracer, adjustment, &mut self.comm)
            }
            None => Ok(()),
        }
    }

    /// Charges one queue<->bitmap conversion sweep to the switch slice:
    /// each rank streams its bitmap segment and frontier once.
    pub(crate) fn charge_conversion(&mut self) {
        self.switch += conversion_time(self.env);
    }

    /// Runs a level kernel under the host clock.
    pub(crate) fn kernel<T>(&mut self, kernel: impl FnOnce() -> T) -> T {
        let start = self.clock.now_secs();
        let out = kernel();
        self.kernel_secs += self.clock.now_secs() - start;
        out
    }

    /// Charges the level's computation from the ranks' `(events,
    /// discovered)` in rank order: prices each rank, records its
    /// [`RankLevelRecord`], and splits the times into the busy mean
    /// and the stall. Returns the vertices discovered in total.
    pub(crate) fn charge_ranks<'e>(
        &mut self,
        ranks: impl Iterator<Item = (&'e ComputeEvents, u64)>,
    ) -> u64 {
        self.times.clear();
        let mut total = 0u64;
        // hot-path
        // Prices every rank of every level: events are fixed-size, the
        // context holds its cache model, and the times land in run-scoped
        // scratch.
        for (rank, (events, discovered)) in ranks.enumerate() {
            let comp = self.env.ctx.time(events);
            self.times.push(comp);
            total += discovered;
            // A bottom-up scan streams 4-byte neighbour ids, a top-down one
            // 8-byte arcs; only the former probes the frontier bitmaps.
            let (edges_scanned, summary_probes, inqueue_probes) = match self.direction {
                Direction::BottomUp => (
                    events.edge_bytes / 4,
                    events.probes[0].count,
                    events.probes[1].count,
                ),
                Direction::TopDown => (events.edge_bytes / 8, 0, 0),
            };
            if self.direction == Direction::BottomUp {
                self.bu_edges += edges_scanned;
            }
            self.tracer.rank(RankLevelRecord {
                rank,
                discovered,
                edges_scanned,
                summary_probes,
                inqueue_probes,
                write_bytes: events.write_bytes,
                comp,
            });
        }
        // end-hot-path
        let (mean, stall) = mean_and_stall(self.times);
        self.comp += mean;
        self.stall += stall;
        total
    }
}

/// Cost of one queue<->bitmap conversion sweep.
fn conversion_time(env: &Env<'_>) -> SimTime {
    let (ws, we) = env.partition.word_range(0);
    let events = ComputeEvents {
        vertex_scan_bytes: ((we - ws) * 8) as u64 * 2,
        ..ComputeEvents::default()
    };
    env.ctx.time(&events)
}

/// Scans a vertex block bottom-up in fixed word-aligned chunks on the
/// rayon pool and sums the chunks' counts. `parent` and `out` cover the
/// whole block. Chunk boundaries depend only on the block — never the
/// worker count — and `u64` sums are exact in any grouping, so the result
/// is independent of the thread count.
pub(crate) fn bu_scan<R: BuRows>(
    inputs: &BuScanInputs<'_, R>,
    parent: &mut [u32],
    out: &mut [u64],
) -> BuChunkOut {
    let chunk_bits = BU_CHUNK_WORDS * WORD_BITS;
    // The scan charges two ops a vertex before it reads an arc; a block
    // with less than two pieces of that stays on its rank's own thread.
    let min_len = grain::min_len(parent.len().div_ceil(chunk_bits), 2 * parent.len() as u64);
    let chunk_outs: Vec<BuChunkOut> = parent
        .par_chunks_mut(chunk_bits)
        .zip(out.par_chunks_mut(BU_CHUNK_WORDS))
        .with_min_len(min_len)
        .enumerate()
        .map(|(ci, (parent_chunk, out_chunk))| {
            bu_scan_chunk(inputs, ci * chunk_bits, parent_chunk, out_chunk)
        })
        .collect();
    let mut sum = BuChunkOut::default();
    for c in &chunk_outs {
        sum.discovered += c.discovered;
        sum.degree_found += c.degree_found;
        sum.summary_probes += c.summary_probes;
        sum.inqueue_probes += c.inqueue_probes;
        sum.edge_bytes += c.edge_bytes;
        sum.write_bytes += c.write_bytes;
        sum.cpu_ops += c.cpu_ops;
    }
    sum
}

/// Prices one rank's bottom-up scan of `vertices` vertices: the streamed
/// vertex range and adjacency plus the two probe classes of Section III.C,
/// against the resident bytes of the summary and of `in_queue`.
pub(crate) fn bu_events(
    scenario: &Scenario,
    scan: &BuChunkOut,
    vertices: usize,
    summary_bytes: usize,
    in_queue_bytes: usize,
) -> ComputeEvents {
    ComputeEvents {
        vertex_scan_bytes: vertices as u64 * 4,
        edge_bytes: scan.edge_bytes,
        write_bytes: scan.write_bytes,
        cpu_ops: scan.cpu_ops,
        probes: [
            ProbeClass {
                count: scan.summary_probes,
                working_set: summary_bytes,
                residence: scenario.summary_residence(),
            },
            ProbeClass {
                count: scan.inqueue_probes,
                working_set: in_queue_bytes,
                residence: scenario.in_queue_residence(),
            },
        ],
    }
}

/// Runs one BFS from `root` over the exchange `make` builds (after the
/// root is checked, so a bad root costs nothing), recording per `trace`.
///
/// Fault injection (when the scenario carries a plan) resolves against
/// the transfer schedules the collectives' pricing walks list, so a
/// recovered search is bit-identical to a fault-free one but for the time
/// it charges.
pub(crate) fn search<X: Exchange>(
    env: &Env<'_>,
    make: impl FnOnce() -> X,
    root: usize,
    clock: &dyn HostClock,
    trace: TraceConfig,
) -> Result<Search, NbfsError> {
    let run_start = clock.now_secs();
    let n = env.partition.total_items();
    if root >= n {
        return Err(NbfsError::config(format!(
            "root {root} out of range: the graph has {n} vertices"
        )));
    }
    let np = env.pmap.world_size();
    let faults = env.scenario.faults.as_ref();
    let mut tracer = Tracer::new(trace);
    let mut ex = make();

    // `m_f` is a running tally: a level's frontier is what the last level
    // discovered, and discovering a vertex takes its degree off its
    // owner's `unexplored_degree`, so `m_f` is the last level's `m_u`
    // minus this one's (exact in `u64`). Before the root, `m_u` is every
    // degree.
    let mut prev_m_u: u64 = (0..np).map(|r| ex.owned(r).unexplored_degree).sum();

    // Root installation.
    {
        let owner = env.partition.owner(root);
        let local = env.partition.to_local(root);
        let degree = ex.degree(owner, root);
        let own = ex.owned_mut(owner);
        own.parent[local] = vid::to_stored(root);
        own.visited.set(local);
        own.frontier.push(vid::to_stored(root));
        own.unexplored_degree -= degree;
    }

    let mut wall = WallClock::default();
    let mut frontier_counts = vec![0u64; np];
    let mut times: Vec<SimTime> = Vec::with_capacity(np);
    let mut direction = Direction::TopDown;
    let mut prev_direction: Option<Direction> = None;
    let mut index: usize = 0;

    loop {
        // --- per-level statistics and direction choice -------------------
        let mut m_u = 0u64;
        for (r, count) in frontier_counts.iter_mut().enumerate() {
            let own = ex.owned(r);
            *count = own.frontier.len() as u64;
            m_u += own.unexplored_degree;
        }
        let m_f = prev_m_u - m_u;
        prev_m_u = m_u;
        let mut lv = Level {
            env,
            tracer: &mut tracer,
            clock,
            times: &mut times,
            index,
            direction,
            switched: false,
            comm: SimTime::ZERO,
            detail: CommCost::ZERO,
            comp: SimTime::ZERO,
            stall: SimTime::ZERO,
            switch: SimTime::ZERO,
            kernel_secs: 0.0,
            bu_edges: 0,
        };
        // The real code packs (n_f, m_f, m_u) into one short vector
        // allreduce, so only one latency-bound collective is charged. It
        // really runs on the terminal level too, so it is recorded and its
        // faults resolve before the termination check. That level never
        // commits: the tracer files the record under `post_collectives`,
        // and cost and penalty are discarded with `lv`, so the profile
        // charges neither.
        let mut edges = lv.edge_sink();
        let n_f = allreduce_sum(&frontier_counts, env.pmap, env.net, edges.as_mut());
        lv.collective(CollectiveKind::Allreduce, n_f.cost, n_f.stats, || {
            edges.unwrap_or_default()
        })?;
        if n_f.value == 0 {
            break;
        }
        // The control allreduce (plus any recovery penalty it incurred) is
        // charged to the level's direction.
        lv.comm = n_f.cost.total() + lv.comm;
        let chosen = env
            .scenario
            .switch_policy
            .choose(direction, m_f, m_u, n_f.value, n as u64);
        lv.tracer.decision(DecisionRecord {
            level: index,
            prev: direction,
            chosen,
            m_f,
            m_u,
            n_f: n_f.value,
            n: n as u64,
        });
        direction = chosen;
        lv.direction = chosen;
        // Queues and bitmap segments are both maintained; a switch charges
        // the sweep the real code performs to convert between them (part
        // of the paper's Switch slice). The first level has queues only.
        lv.switched = match direction {
            Direction::BottomUp => prev_direction != Some(Direction::BottomUp),
            Direction::TopDown => prev_direction == Some(Direction::BottomUp),
        };
        if lv.switched {
            lv.charge_conversion();
        }

        let discovered = match direction {
            Direction::BottomUp => ex.bottom_up(&mut lv)?,
            Direction::TopDown => ex.top_down(&mut lv)?,
        };

        // Rank-level faults (stall, crash) resolve once per level; a
        // stall's penalty is skew, so it lands in the stall slice.
        if let Some(plan) = faults {
            let adjustment = inject_rank_faults(plan, index, np);
            apply_faults(lv.tracer, adjustment, &mut lv.stall)?;
        }

        // --- level commit (the single write site for the profile) --------
        // The committed level is what `TraceReport::run_profile` folds into
        // the run's profile. Host time stays a running tally.
        match direction {
            Direction::BottomUp => {
                wall.bottom_up_secs += lv.kernel_secs;
                wall.bottom_up_levels += 1;
                wall.bottom_up_edges += lv.bu_edges;
            }
            Direction::TopDown => {
                wall.top_down_secs += lv.kernel_secs;
                wall.top_down_levels += 1;
            }
        }
        lv.tracer.commit_level(LevelReport {
            level: index,
            direction,
            discovered,
            comp: lv.comp,
            comm: lv.comm,
            stall: lv.stall,
            switch: lv.switch,
            detail: lv.detail,
            wall_comp_secs: lv.kernel_secs,
            collectives: Vec::new(),
            ranks: Vec::new(),
        });
        prev_direction = Some(direction);
        index += 1;
        if discovered == 0 {
            break;
        }
    }

    // Assemble the global parent array (partitions are contiguous).
    let mut parent = Vec::with_capacity(n);
    for r in 0..np {
        parent.extend_from_slice(&ex.owned(r).parent);
    }
    parent.truncate(n);
    let visited = parent.iter().filter(|&&p| p != NO_PARENT).count();
    wall.total_secs = clock.now_secs() - run_start;
    let report = tracer.finish(run_meta(env, root));
    Ok(Search {
        run: BfsRun {
            parent,
            profile: report.run_profile(),
            visited,
        },
        wall,
        report,
    })
}

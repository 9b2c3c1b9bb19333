//! A direction-optimizing 2-D partitioned BFS engine — the concrete form
//! of the paper's Section V composition claim ("our implementation could
//! be applied to 2-D partition algorithm", Buluc & Madduri \[11\]).
//!
//! Ranks form an `R×C` processor grid; [`TwoDimBfs::new`] picks the
//! natural NUMA mapping the paper's one-rank-per-socket layout suggests
//! (`R = nodes`, `C = ranks per node`, so a processor **row** is one node
//! and its fold exchanges ride shared memory, while a processor **column**
//! takes one rank per node and its expand exchanges ride the wire, exactly
//! like the Fig. 7 subgroups). [`TwoDimBfs::with_grid`] accepts any other
//! factorization of the world size; the cost layer prices every transfer
//! by the actual node placement, so non-natural grids are charged honestly.
//!
//! Vertex ownership stays the 1-D word-aligned block partition; row group
//! `i` is the contiguous union of its ranks' blocks and column group `j`
//! is the strided set `{v : owner(v) mod C == j}`. Rank `(i, j)` stores
//! the adjacency block `A[i][j]`: edges from sources in column group `j`
//! to targets in row group `i`, as a target-rowed CSR (what bottom-up
//! scans; top-down reads the same arcs from the graph's own rows, which the
//! symmetry of the graph makes the block's other orientation).
//!
//! The level loop is the crate's one level driver (`level.rs`); this module is
//! its 2-D *exchange*. A **top-down** level is the classic SpMSpV
//! schedule: column-allgather the frontier pieces (*expand*), walk each
//! frontier vertex's row and cut it at the row-group boundaries, then
//! *fold* `(target, parent)` candidates to the target's owner inside the
//! grid row. A **bottom-up** level inverts the block walk: each
//! rank scans the unvisited vertices of its whole row group against its
//! column's frontier through the 1-D engine's word-level `bu_scan_chunk`
//! kernel, then folds the per-column adoptions to the owners. The TD↔BU
//! switch is the shared Beamer [`SwitchPolicy`](crate::direction::SwitchPolicy)
//! driven by the same `(m_f, m_u, n_f)` statistics as the 1-D engine, so
//! both engines flip direction on the same level schedule.
//!
//! Owners merge fold candidates by **minimum parent id**. Every 1-D path
//! adopts, for each vertex, its minimum-id frontier neighbour at the
//! discovery level (top-down walks the sorted frontier in order; bottom-up
//! breaks at the first hit of an ascending adjacency list), and BFS level
//! sets are direction-independent — so the min-merge makes the 2-D engine
//! bitwise-identical to the 1-D engine on every grid shape, codec and
//! storage backend (pinned by `parents_bitwise_match_1d_across_grids`).

use std::sync::OnceLock;

use rayon::prelude::*;

use nbfs_comm::alltoallv::{
    alltoallv_pairs_codec_into, exchange_round_cost, AlltoallvWorkspace, ExchangeScratch,
};
use nbfs_comm::codec::encoded_words_size;
use nbfs_graph::{vid, Csr, GraphView, NO_PARENT};
use nbfs_simnet::compute::ProbeClass;
use nbfs_simnet::{ComputeEvents, NetworkModel};
use nbfs_topology::{MachineConfig, ProcessMap};
use nbfs_trace::{CollectiveKind, CollectiveStats, CommCost, TraceConfig, TraceReport};
use nbfs_util::{Bitmap, BlockPartition, NbfsError, SummaryBitmap, WORD_BITS};

use crate::engine::{BfsRun, BuRows, BuScanInputs, HostClock, NoClock, Scenario, Search};
use crate::grain;
use crate::level::{self, fault_free, Env, Exchange, Level, Owned};

/// One rank's fold buckets of `(vertex, parent)` records, one per rank of
/// its grid row: bucket `k` goes to the row's rank in column `k`.
type SendBuckets = Vec<Vec<(u32, u32)>>;

/// Recycled staging for the grid's priced rounds (column expand and row
/// update): a round's transfer list and its pricing tallies.
#[derive(Default)]
struct RoundStaging {
    transfers: Vec<(usize, usize, u64)>,
    tallies: ExchangeScratch,
}

/// Block `A[row][col]` rowed by target: for each vertex of the row group,
/// the ascending column-`col` sources that reach it. This is the adjacency
/// the bottom-up scan walks, through the same [`BuRows`] kernel the 1-D
/// engine monomorphizes over [`LocalGraph`](nbfs_graph::partition::LocalGraph).
struct BuBlock {
    /// First vertex id of the row group.
    first_vertex: usize,
    /// CSR offsets over the row group (`len == row_len + 1`).
    offsets: Vec<u64>,
    /// Concatenated ascending source ids.
    sources: Vec<u32>,
}

impl BuRows for BuBlock {
    fn first_vertex(&self) -> usize {
        self.first_vertex
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index an in-memory array, so they fit in usize"
    )]
    fn neighbours_global(&self, v: usize) -> &[u32] {
        let l = v - self.first_vertex;
        &self.sources[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }
}

/// One rank's immutable share of the 2-D world: built once per engine, on
/// its first search, and read by every search after it.
struct Block {
    /// Block `A[row][col]` rowed by target — the bottom-up scan adjacency.
    bwd: BuBlock,
    /// Row-group vertices with at least one source in this block (the
    /// bottom-up candidate mask; padding bits stay zero).
    cand: Bitmap,
    /// Degrees of owned vertices (in the whole graph, not the block).
    deg: Vec<u64>,
}

/// One rank's per-search state, allocated by every search.
struct Rank2D {
    /// Grid row (== node with the natural mapping).
    row: usize,
    /// Grid column (== node-local index with the natural mapping).
    col: usize,
    /// First owned global vertex id.
    first: usize,
    /// Parents, visited bits, last level's discoveries and the `m_u`
    /// share of the owned vertices.
    own: Owned,
    /// Owned vertices discovered *this* level (the min-merge scratch).
    newly: Bitmap,
    /// Row-group-length parent scratch for the bottom-up scan.
    scratch_parent: Vec<u32>,
    /// Row-group-length discovery words for the bottom-up scan.
    out_words: Vec<u64>,
}

/// The 2-D partitioned direction-optimizing engine. Generic over the
/// graph storage ([`GraphView`]): the default `Csr` and the delta-varint
/// [`nbfs_graph::CompressedCsr`] build identical blocks, so results are
/// bitwise-identical across storages.
///
/// The per-rank blocks are built by the first search and shared by every
/// later one, concurrent searches included (see [`Self::search`]).
pub struct TwoDimBfs<'g, G: GraphView = Csr> {
    graph: &'g G,
    scenario: Scenario,
    pmap: ProcessMap,
    net: NetworkModel,
    partition: BlockPartition,
    rows: usize,
    cols: usize,
    granularity: usize,
    /// Every rank's block, indexed by rank; empty until the first search.
    blocks: OnceLock<Vec<Block>>,
}

impl<'g, G: GraphView> TwoDimBfs<'g, G> {
    /// Prepares the natural grid (`rows = nodes`, `cols = ranks per node`).
    pub fn new(graph: &'g G, scenario: &Scenario) -> Self {
        let pmap = scenario.process_map();
        let (rows, cols) = (pmap.nodes(), pmap.ppn());
        Self::with_grid(graph, scenario, rows, cols)
    }

    /// Prepares an explicit `rows × cols` grid over the scenario's ranks.
    /// Builds no block: the first search pays for that.
    ///
    /// # Panics
    /// If `rows * cols` does not equal the scenario's world size, or the
    /// scenario's effective summary granularity breaks the
    /// [`nbfs_util::summary::check_granularity`] contract (checked once
    /// here, like the 1-D engine; runs are validation-free).
    pub fn with_grid(graph: &'g G, scenario: &Scenario, rows: usize, cols: usize) -> Self {
        let pmap = scenario.process_map();
        assert!(rows >= 1 && cols >= 1, "grid must be non-empty");
        assert_eq!(
            rows * cols,
            pmap.world_size(),
            "grid {rows}x{cols} must tile the scenario's {} ranks",
            pmap.world_size()
        );
        let granularity = scenario.effective_granularity();
        let checked = nbfs_util::summary::check_granularity(granularity);
        assert!(
            checked.is_ok(),
            "invalid scenario summary granularity: {}",
            checked.err().unwrap_or_default()
        );
        let partition = BlockPartition::new(graph.num_vertices(), pmap.world_size());
        Self {
            graph,
            scenario: scenario.clone(),
            net: NetworkModel::new(&scenario.machine),
            partition,
            rows,
            cols,
            granularity,
            pmap,
            blocks: OnceLock::new(),
        }
    }

    /// The machine in force.
    pub fn machine(&self) -> &MachineConfig {
        &self.scenario.machine
    }

    /// The grid shape `(rows, cols)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn rank_of(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    /// Global vertex span of row group `row`. Contiguous because ranks of
    /// one row hold consecutive blocks; the start is word-aligned because
    /// every block start is, which is what lets the row replica below be
    /// assembled by whole-word copies.
    fn row_span(&self, row: usize) -> (usize, usize) {
        let (start, _) = self.partition.item_range(self.rank_of(row, 0));
        let (_, end) = self.partition.item_range(self.rank_of(row, self.cols - 1));
        (start, end)
    }

    /// Grid column whose ranks see edges *out of* `v` (its owner's column).
    fn col_of(&self, v: usize) -> usize {
        self.partition.owner(v) % self.cols
    }

    /// Every rank's block, built on first use; a search that arrives while
    /// another builds them waits for that one build.
    ///
    /// The build walks the rows on the calling thread. Concurrent searches
    /// are pool jobs that block here, and a build that forked into the pool
    /// while holding the lock could steal one of them and re-enter its own
    /// initialisation, which deadlocks.
    fn blocks(&self) -> &[Block] {
        self.blocks
            .get_or_init(|| (0..self.rows).flat_map(|row| self.build_row(row)).collect())
    }

    /// Builds the blocks of grid row `row` in one pass over the row group's
    /// adjacency: each arc is read (or decoded) once and filed under the
    /// block of its source's column.
    fn build_row(&self, row: usize) -> Vec<Block> {
        let (rs, re) = self.row_span(row);
        let row_len = re - rs;
        let mut blocks: Vec<Block> = (0..self.cols)
            .map(|col| {
                let mut offsets = Vec::with_capacity(row_len + 1);
                offsets.push(0);
                Block {
                    bwd: BuBlock {
                        first_vertex: rs,
                        offsets,
                        sources: Vec::new(),
                    },
                    cand: Bitmap::new(row_len),
                    deg: Vec::with_capacity(self.partition.items_of(self.rank_of(row, col))),
                }
            })
            .collect();
        for v in rs..re {
            let mut degree = 0u64;
            self.graph.for_each_neighbour(v, |u| {
                blocks[self.col_of(u as usize)].bwd.sources.push(u);
                degree += 1;
            });
            blocks[self.col_of(v)].deg.push(degree);
            for b in &mut blocks {
                let arcs = b.bwd.sources.len() as u64;
                if arcs > b.bwd.offsets[v - rs] {
                    b.cand.set(v - rs);
                }
                b.bwd.offsets.push(arcs);
            }
        }
        // The sources grew by doubling; the blocks live as long as the
        // engine, so they keep no slack.
        for b in &mut blocks {
            b.bwd.sources.shrink_to_fit();
        }
        blocks
    }

    /// Cost/volume of the column allgather ("expand"): every column rings
    /// its ranks' pieces along the grid concurrently, `rows - 1` rounds; in
    /// round `r` rank `(i, j)` forwards the piece that originated at
    /// `((i + rows - r) mod rows, j)` to `((i + 1) mod rows, j)`. Each
    /// round is priced like one exchange round, so grids that stack column
    /// peers on one node get shared-memory rates and the natural mapping
    /// gets pure wire — the caller does not special-case either.
    ///
    /// On the natural grid (row `i` is node `i`) of a machine with no weak
    /// node, every round prices to the bits of round 0 (DESIGN.md §2): in
    /// round `r` node `i` sends row `i - r`'s piece total to node `i + 1`
    /// as one flow, so each node sends one flow and receives one, the round
    /// carries every row total once, and with equal node bandwidths a
    /// flow's price depends on its bytes alone. There round 0 is priced
    /// and its cost and tally are added once per round, in round order.
    /// Every other grid, and every weak-node map, prices each round.
    fn column_expand(
        &self,
        piece_bytes: &[u64],
        staging: &mut RoundStaging,
    ) -> (CommCost, CollectiveStats) {
        let repeat = self.rows == self.pmap.nodes()
            && self.cols == self.pmap.ppn()
            && self.net.machine().weak_node.is_none();
        self.ring_expand(piece_bytes, repeat, staging)
    }

    /// The column ring of [`Self::column_expand`]: prices every round, or
    /// with `repeat` round 0 only, and adds each round's cost and tally.
    fn ring_expand(
        &self,
        piece_bytes: &[u64],
        repeat: bool,
        staging: &mut RoundStaging,
    ) -> (CommCost, CollectiveStats) {
        if self.rows <= 1 {
            return (CommCost::ZERO, CollectiveStats::ZERO);
        }
        let mut cost = CommCost::ZERO;
        let mut stats = CollectiveStats::ZERO;
        let mut round = (CommCost::ZERO, CollectiveStats::ZERO);
        // hot-path
        // Every level walks the ring: a priced round lists `rows * cols`
        // transfers into the staging buffers, a repeated one costs a few
        // additions.
        for r in 0..self.rows - 1 {
            if r == 0 || !repeat {
                staging.transfers.clear();
                for i in 0..self.rows {
                    let origin = (i + self.rows - r) % self.rows;
                    for j in 0..self.cols {
                        staging.transfers.push((
                            self.rank_of(i, j),
                            self.rank_of((i + 1) % self.rows, j),
                            piece_bytes[self.rank_of(origin, j)],
                        ));
                    }
                }
                round = exchange_round_cost(
                    &staging.transfers,
                    &self.pmap,
                    &self.net,
                    &mut staging.tallies,
                );
            }
            let (c, s) = round;
            cost += c;
            stats.flows += s.flows;
            stats.wire_bytes += s.wire_bytes;
            stats.shm_bytes += s.shm_bytes;
            stats.raw_bytes += s.raw_bytes;
        }
        // end-hot-path
        stats.rounds = (self.rows - 1) as u64;
        (cost, stats)
    }

    /// Cost/volume of the row visited-update: each rank sends its visited
    /// news to its `cols - 1` row peers in one round (intra-node under the
    /// natural mapping). At bottom-up entry the news is the full owned
    /// visited segment; between consecutive bottom-up levels it is the
    /// frontier delta.
    fn row_update(
        &self,
        per_rank_bytes: &[u64],
        staging: &mut RoundStaging,
    ) -> (CommCost, CollectiveStats) {
        if self.cols <= 1 {
            return (CommCost::ZERO, CollectiveStats::ZERO);
        }
        let transfers = &mut staging.transfers;
        transfers.clear();
        for i in 0..self.rows {
            for j in 0..self.cols {
                let src = self.rank_of(i, j);
                for peer in 0..self.cols {
                    if peer != j {
                        transfers.push((src, self.rank_of(i, peer), per_rank_bytes[src]));
                    }
                }
            }
        }
        exchange_round_cost(transfers, &self.pmap, &self.net, &mut staging.tallies)
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
            self.graph.num_vertices(),
        );
        level::search(&env, || TwoDim::new(self), root, clock, trace)
    }

    /// Runs a 2-D direction-optimizing BFS from `root`: the same contract
    /// as [`DistributedBfs::search`](crate::engine::DistributedBfs::search)
    /// — host timing from `clock`, events per the scenario's
    /// [`TraceConfig`], faults per [`Scenario::faults`] at the level
    /// driver's sites (the control allreduce and the per-level rank fates).
    ///
    /// The first search with a valid root builds every rank's block, one
    /// pass per grid row, and pays for it on its own clock; later searches,
    /// and searches that run concurrently with it, share those blocks.
    ///
    /// # Errors
    /// [`NbfsError::Config`] when `root` is not a vertex;
    /// [`NbfsError::RankFailed`] or [`NbfsError::Fault`] when the
    /// scenario's fault plan kills a rank or exhausts a retry budget.
    pub fn search(&self, root: usize, clock: &dyn HostClock) -> Result<Search, NbfsError> {
        self.drive(root, clock, self.scenario.trace)
    }

    /// [`Self::search`] without a clock or a detailed trace, for scenarios
    /// that cannot fail.
    ///
    /// # Panics
    /// If `root` is not a vertex, or the scenario carries a fault plan
    /// whose faults prove unrecoverable — use [`Self::search`] for those.
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
}

/// The 2-D exchange: rank `(i, j)` holds block `A[i][j]`; a level expands
/// the frontier down the grid columns, multiplies locally and folds the
/// `(target, parent)` candidates along the grid rows to the owners.
struct TwoDim<'e, 'g, G: GraphView> {
    engine: &'e TwoDimBfs<'g, G>,
    /// The engine's blocks, indexed by rank like `ranks`.
    blocks: &'e [Block],
    ranks: Vec<Rank2D>,
    /// Row replicas of the visited bits, rebuilt from the owners' words at
    /// every bottom-up level (the functional result of the row update
    /// priced by `row_update`). Kept outside `Rank2D` so the rebuild can
    /// read the owners while writing the replicas.
    vis_rows: Vec<Bitmap>,
    /// Column frontier bitmaps and their summaries: global-length, only
    /// the column's owned bits ever set. Derived locally from the expanded
    /// frontier pieces — no extra charged collective, exactly like the 1-D
    /// engine derives its summary from the allgathered `in_queue` for free.
    col_q: Vec<Bitmap>,
    col_sum: Vec<SummaryBitmap>,
    /// Codec staging, recycled across levels: the expand payloads are
    /// cost-only (the functional unions read the frontiers directly), so
    /// scratch buffers size each encoded piece; the fold exchange reuses a
    /// persistent workspace.
    codec_scratch: Vec<u8>,
    word_scratch: Vec<u64>,
    fold_ws: AlltoallvWorkspace,
    /// Transfer list and pricing tallies of the expand and row update.
    staging: RoundStaging,
    /// Per rank, the raw bytes of this level's piece (expand or row
    /// update) and, under a compressing codec, the encoded expand piece.
    raw_bytes: Vec<u64>,
    encoded_bytes: Vec<u64>,
    /// `sends[src][k]`: the level's fold records from rank `src` to the
    /// rank of its grid row in column `k` (a fold target is always owned
    /// inside the producer's grid row), cleared — not reallocated — every
    /// level.
    sends: Vec<SendBuckets>,
    /// Per rank, the arcs its block matched this top-down level.
    matched: Vec<u64>,
    /// Per grid column, the length of its expanded frontier.
    col_len: Vec<u64>,
    /// Per rank, the level's computation and the vertices it adopted.
    events: Vec<ComputeEvents>,
    found: Vec<u64>,
}

impl<'e, 'g, G: GraphView> TwoDim<'e, 'g, G> {
    /// Words of one bitmap over all vertices: the unit the per-level rank
    /// maps below size their grain in.
    fn words(&self) -> usize {
        self.engine.graph.num_vertices().div_ceil(WORD_BITS)
    }

    fn new(engine: &'e TwoDimBfs<'g, G>) -> Self {
        let n = engine.graph.num_vertices();
        let np = engine.pmap.world_size();
        let blocks = engine.blocks();
        let ranks = blocks
            .par_iter()
            .enumerate()
            .map(|(rank, block)| {
                let (row, col) = (rank / engine.cols, rank % engine.cols);
                let (rs, re) = engine.row_span(row);
                Rank2D {
                    row,
                    col,
                    first: engine.partition.item_range(rank).0,
                    own: Owned::new(block.deg.iter().copied()),
                    newly: Bitmap::new(block.deg.len()),
                    scratch_parent: vec![NO_PARENT; re - rs],
                    out_words: vec![0u64; (re - rs).div_ceil(WORD_BITS)],
                }
            })
            .collect();
        Self {
            engine,
            blocks,
            ranks,
            vis_rows: (0..engine.rows)
                .map(|i| {
                    let (rs, re) = engine.row_span(i);
                    Bitmap::new(re - rs)
                })
                .collect(),
            col_q: (0..engine.cols).map(|_| Bitmap::new(n)).collect(),
            col_sum: (0..engine.cols)
                .map(|_| SummaryBitmap::new_prevalidated(n, engine.granularity))
                .collect(),
            codec_scratch: Vec::new(),
            word_scratch: Vec::new(),
            fold_ws: AlltoallvWorkspace::default(),
            staging: RoundStaging::default(),
            raw_bytes: vec![0; np],
            encoded_bytes: vec![0; np],
            sends: vec![vec![Vec::new(); engine.cols]; np],
            matched: vec![0; np],
            col_len: vec![0; engine.cols],
            events: vec![ComputeEvents::default(); np],
            found: vec![0; np],
        }
    }

    /// Prices the column expand of the level's pieces (`raw_bytes`, and
    /// `encoded_bytes` on the wire under a compressing codec) and records
    /// it; returns the cost for the caller to charge.
    fn expand(&mut self, lv: &mut Level<'_>) -> Result<CommCost, NbfsError> {
        let Self {
            engine,
            staging,
            raw_bytes,
            encoded_bytes,
            ..
        } = self;
        let raw_codec = engine.scenario.codec.is_raw();
        let wire = if raw_codec {
            &*raw_bytes
        } else {
            &*encoded_bytes
        };
        let (cost, mut stats) = engine.column_expand(wire, staging);
        if lv.observed() {
            if !raw_codec {
                stats.raw_bytes = engine.column_expand(raw_bytes, staging).1.wire_bytes;
            }
            lv.collective(CollectiveKind::Expand2d, cost, stats, Vec::new)?;
        }
        Ok(cost)
    }

    /// One top-down level's local multiply, for every rank at once: the
    /// row walk. Fills `sends`, `matched` and `events`.
    ///
    /// The graph is symmetric, so the arcs of block `A[i][j]` out of a
    /// frontier vertex `u` of column `j` are `u`'s own row cut at row
    /// group `i`'s boundaries. The walk takes each column's frontier in
    /// ascending order (ranks of a column hold ascending blocks and each
    /// queue ascends), reads each `u`'s row once and files `(v, u)` under
    /// the rank of `v`'s row group in `u`'s column, in the bucket of `v`'s
    /// owner among that rank's row peers — per bucket the `(u asc, v asc)`
    /// order a source-sorted block index would give, so the fold payload
    /// is the same bytes.
    ///
    /// The *simulated* cost is still the per-rank merge-join of the
    /// column's frontier against a source-sorted index of the block: its
    /// lookups are a closed form in the frontier length, the arcs matched
    /// and the block's arc count.
    fn top_down_walk(&mut self) {
        let Self {
            engine,
            blocks,
            ranks,
            sends,
            matched,
            col_len,
            events,
            ..
        } = self;
        let cols = engine.cols;
        // hot-path
        // Every arc out of the frontier, once. Pushes land in the
        // run-scoped buckets, so a level allocates only when a bucket
        // outgrows its high-water mark.
        matched.fill(0);
        for buckets in sends.iter_mut() {
            for bucket in buckets.iter_mut() {
                bucket.clear();
            }
        }
        for (col, len) in col_len.iter_mut().enumerate() {
            *len = 0;
            for row in 0..engine.rows {
                let frontier = &ranks[engine.rank_of(row, col)].own.frontier;
                *len += frontier.len() as u64;
                for &u in frontier {
                    engine.graph.for_each_neighbour(u as usize, |v| {
                        let dst = engine.partition.owner(v as usize);
                        let src = engine.rank_of(dst / cols, col);
                        sends[src][dst % cols].push((v, u));
                        matched[src] += 1;
                    });
                }
            }
        }
        for (((ev, rk), block), &matched) in events
            .iter_mut()
            .zip(ranks.iter())
            .zip(blocks.iter())
            .zip(matched.iter())
        {
            let flen = col_len[rk.col];
            *ev = ComputeEvents {
                vertex_scan_bytes: flen * 4,
                edge_bytes: 8 * (flen + matched),
                write_bytes: 8 * matched,
                cpu_ops: 8 * flen + 3 * matched,
                probes: [
                    ProbeClass {
                        count: flen / 8 + 1,
                        working_set: (block.bwd.sources.len() * 8).max(64),
                        residence: engine.scenario.private_residence(),
                    },
                    ProbeClass::NONE,
                ],
            };
        }
        // end-hot-path
    }

    /// Folds the level's `(target, parent)` candidates to the owners,
    /// min-merges them, and charges the ranks' computation (`events`, with
    /// what each owner adopted). Returns the fold cost for the caller to
    /// charge and the global discovery count.
    ///
    /// Each rank's buckets address only its grid row, so under the natural
    /// mapping (a row is one node) the exchange is strictly intra-node, the
    /// Fig. 7 property the mapping buys.
    fn fold(&mut self, lv: &mut Level<'_>) -> Result<(CommCost, u64), NbfsError> {
        let words = self.words();
        let Self {
            engine,
            blocks,
            ranks,
            fold_ws,
            sends,
            events,
            found,
            ..
        } = self;
        let (fold_cost, fold_stats) = alltoallv_pairs_codec_into(
            fold_ws,
            sends,
            &engine.pmap,
            &engine.net,
            engine.scenario.codec,
        );
        lv.collective(CollectiveKind::Alltoallv, fold_cost, fold_stats, Vec::new)?;
        // hot-path
        // An owner clears its `newly` words and merges its inbox into its
        // recycled `found` slot.
        let inboxes = &fold_ws.received;
        let ops = words + inboxes.iter().map(Vec::len).sum::<usize>();
        ranks
            .par_iter_mut()
            .zip(blocks.par_iter())
            .zip(inboxes.par_iter())
            .zip(found.par_iter_mut())
            .with_min_len(grain::min_len(inboxes.len(), ops as u64))
            .for_each(|(((rk, block), inbox), found)| {
                *found = min_adopt(rk, &block.deg, inbox);
            });
        let discovered = lv.charge_ranks(events.iter().zip(found.iter().copied()));
        // end-hot-path
        Ok((fold_cost, discovered))
    }
}

impl<G: GraphView> Exchange for TwoDim<'_, '_, G> {
    fn owned(&self, rank: usize) -> &Owned {
        &self.ranks[rank].own
    }

    fn owned_mut(&mut self, rank: usize) -> &mut Owned {
        &mut self.ranks[rank].own
    }

    fn degree(&self, rank: usize, v: usize) -> u64 {
        self.blocks[rank].deg[v - self.ranks[rank].first]
    }

    fn bottom_up(&mut self, lv: &mut Level<'_>) -> Result<u64, NbfsError> {
        let engine = self.engine;
        let codec = engine.scenario.codec;

        // --- row visited-update ------------------------------------------
        // Entering bottom-up, row peers need each other's full visited
        // segments; on later consecutive levels only the last frontier's
        // ids are news.
        let switched = lv.switched;
        for (bytes, r) in self.raw_bytes.iter_mut().zip(&self.ranks) {
            *bytes = if switched {
                (r.own.visited.word_len() * 8) as u64
            } else {
                r.own.frontier.len() as u64 * 4
            };
        }
        let (upd_cost, upd_stats) = engine.row_update(&self.raw_bytes, &mut self.staging);
        lv.collective(
            CollectiveKind::AllgatherWords,
            upd_cost,
            upd_stats,
            Vec::new,
        )?;
        lv.detail += upd_cost;
        lv.comm += upd_cost.total();
        // Functional result: rebuild each row replica from its owners'
        // words. Block starts are word-aligned, so the segments tile the
        // replica exactly.
        let ranks_ref = &self.ranks;
        let words = self.words();
        self.vis_rows
            .par_iter_mut()
            .with_min_len(grain::min_len(engine.rows, words as u64))
            .enumerate()
            .for_each(|(i, vr)| {
                let (rs, _) = engine.row_span(i);
                for j in 0..engine.cols {
                    let rk = &ranks_ref[engine.rank_of(i, j)];
                    vr.copy_words_from((rk.first - rs) / WORD_BITS, rk.own.visited.words());
                }
            });

        // --- column expand of the frontier words -------------------------
        for (bytes, r) in self.raw_bytes.iter_mut().zip(&self.ranks) {
            *bytes = (r.own.visited.word_len() * 8) as u64;
        }
        if !codec.is_raw() {
            let (word_scratch, codec_scratch) = (&mut self.word_scratch, &mut self.codec_scratch);
            for (bytes, r) in self.encoded_bytes.iter_mut().zip(&self.ranks) {
                word_scratch.clear();
                word_scratch.resize(r.own.visited.word_len(), 0);
                for &v in &r.own.frontier {
                    let local = v as usize - r.first;
                    word_scratch[local / WORD_BITS] |= 1u64 << (local % WORD_BITS);
                }
                *bytes = encoded_words_size(codec, word_scratch, codec_scratch);
            }
        }
        let expand_cost = self.expand(lv)?;
        lv.detail += expand_cost;
        lv.comm += expand_cost.total();
        // Functional result: each column's frontier bitmap and summary
        // over the global id space.
        // A column clears its bitmap, sets its frontier's bits and reads
        // the bitmap back into the summary.
        let ranks_ref = &self.ranks;
        let n_f: usize = ranks_ref.iter().map(|r| r.own.frontier.len()).sum();
        let ops = 2 * engine.cols * words + n_f;
        self.col_q
            .par_iter_mut()
            .zip(self.col_sum.par_iter_mut())
            .with_min_len(grain::min_len(engine.cols, ops as u64))
            .enumerate()
            .for_each(|(j, (q, s))| {
                q.clear_all();
                for i in 0..engine.rows {
                    for &v in &ranks_ref[engine.rank_of(i, j)].own.frontier {
                        q.set(v as usize);
                    }
                }
                s.rebuild_from(q);
            });

        // --- bottom-up scan over the row group ---------------------------
        let (vis_rows, col_q, col_sum) = (&self.vis_rows, &self.col_q, &self.col_sum);
        let (blocks, ranks, sends) = (self.blocks, &mut self.ranks, &mut self.sends);
        let events = &mut self.events;
        // A block walks its row group's visited words and at most the arcs
        // of the unvisited vertices.
        let m_u: u64 = ranks.iter().map(|r| r.own.unexplored_degree).sum();
        let min_len = grain::min_len(ranks.len(), (engine.cols * words) as u64 + m_u);
        lv.kernel(|| {
            ranks
                .par_iter_mut()
                .zip(blocks.par_iter())
                .zip(sends.par_iter_mut())
                .zip(events.par_iter_mut())
                .with_min_len(min_len)
                .for_each(|(((rk, block), buckets), events)| {
                    let Rank2D {
                        row,
                        col,
                        scratch_parent,
                        out_words,
                        ..
                    } = rk;
                    let bwd = &block.bwd;
                    let inputs = BuScanInputs {
                        lg: bwd,
                        visited: &vis_rows[*row],
                        candidates: &block.cand,
                        in_queue: &col_q[*col],
                        summary: &col_sum[*col],
                    };
                    // `degree_found` is column-restricted here and
                    // deliberately unused: owners decrement their
                    // unexplored degree from `deg` at adopt time.
                    let scan = level::bu_scan(&inputs, scratch_parent, out_words);

                    // Harvest: the set bits of `out_words` are the block's
                    // adoptions, ascending; route each to its owner (inside
                    // this grid row, whose first rank is `row_first`) and
                    // reset the touched scratch (O(discovered) hygiene).
                    for bucket in buckets.iter_mut() {
                        bucket.clear();
                    }
                    let first = bwd.first_vertex;
                    let row_first = engine.rank_of(*row, 0);
                    for (wo, w) in out_words.iter_mut().enumerate() {
                        let mut word = *w;
                        *w = 0;
                        while word != 0 {
                            let bit = word.trailing_zeros() as usize;
                            word &= word - 1;
                            let local = wo * WORD_BITS + bit;
                            let u = scratch_parent[local];
                            scratch_parent[local] = NO_PARENT;
                            let v = first + local;
                            buckets[engine.partition.owner(v) - row_first]
                                .push((vid::to_stored(v), u));
                        }
                    }
                    // The block only probes its own column's ids: ~1/C of
                    // each structure is resident.
                    *events = level::bu_events(
                        &engine.scenario,
                        &scan,
                        scratch_parent.len(),
                        (col_sum[*col].size_bytes() / engine.cols).max(64),
                        (col_q[*col].size_bytes() / engine.cols).max(64),
                    );
                });
        });

        // --- fold + min-merge adopt --------------------------------------
        let (fold_cost, discovered) = self.fold(lv)?;
        lv.detail += fold_cost;
        lv.comm += fold_cost.total();
        Ok(discovered)
    }

    fn top_down(&mut self, lv: &mut Level<'_>) -> Result<u64, NbfsError> {
        let codec = self.engine.scenario.codec;

        // --- column expand of the frontier lists -------------------------
        // hot-path
        // Each rank's piece: its frontier list, raw and (under a
        // compressing codec) encoded into the recycled scratch.
        for (bytes, r) in self.raw_bytes.iter_mut().zip(&self.ranks) {
            *bytes = r.own.frontier.len() as u64 * 4;
        }
        if !codec.is_raw() {
            let imp = codec.implementation();
            let codec_scratch = &mut self.codec_scratch;
            for (bytes, r) in self.encoded_bytes.iter_mut().zip(&self.ranks) {
                imp.encode_sorted_u32(&r.own.frontier, codec_scratch);
                *bytes = codec_scratch.len() as u64;
            }
        }
        // end-hot-path
        let expand_cost = self.expand(lv)?;
        lv.comm += expand_cost.total();

        // --- local multiply: the row walk --------------------------------
        lv.kernel(|| self.top_down_walk());

        // --- fold + min-merge adopt --------------------------------------
        let (fold_cost, discovered) = self.fold(lv)?;
        lv.comm += fold_cost.total();
        Ok(discovered)
    }
}

/// Owner-side merge of one fold inbox. The inbox interleaves candidates
/// from every column block, so first arrival is *not* the minimum-id
/// frontier neighbour the 1-D engine deterministically adopts; an explicit
/// min over the level's proposals restores bitwise parent equality.
/// Returns the number of vertices discovered; rebuilds the owner's
/// frontier in ascending id order (the reference push order).
fn min_adopt(rk: &mut Rank2D, deg: &[u64], inbox: &[(u32, u32)]) -> u64 {
    let Rank2D {
        first, own, newly, ..
    } = rk;
    own.frontier.clear();
    if inbox.is_empty() {
        return 0;
    }
    newly.clear_all();
    let mut found = 0u64;
    for &(v, u) in inbox {
        let local = v as usize - *first;
        if own.visited.get(local) {
            continue;
        }
        if newly.set_returning_fresh(local) {
            own.parent[local] = u;
            found += 1;
        } else if u < own.parent[local] {
            own.parent[local] = u;
        }
    }
    for local in newly.iter_ones() {
        own.visited.set(local);
        own.unexplored_degree -= deg[local];
        own.frontier.push(vid::to_stored(*first + local));
    }
    found
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::engine::DistributedBfs;
    use crate::opt::OptLevel;
    use crate::seq;
    use nbfs_graph::validate::validate_bfs_tree;
    use nbfs_graph::{CompressedCsr, Edge, EdgeList, GraphBuilder};
    use nbfs_topology::{presets, PlacementPolicy};
    use nbfs_util::rng::Xoroshiro128;
    use nbfs_util::SimTime;

    fn machine(nodes: usize) -> MachineConfig {
        MachineConfig::small_test_cluster(nodes, 4)
    }

    fn hub_root(g: &Csr) -> usize {
        (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap()
    }

    #[test]
    fn produces_valid_trees() {
        let g = GraphBuilder::rmat(11, 8).seed(23).build();
        for nodes in [1usize, 2, 3] {
            let scenario = Scenario::new(machine(nodes), OptLevel::ShareAll);
            let engine = TwoDimBfs::new(&g, &scenario);
            for root in [0usize, 7, 100] {
                let run = engine.run(root);
                let visited = validate_bfs_tree(&g, root, &run.parent)
                    .unwrap_or_else(|e| panic!("nodes={nodes} root={root}: {e}"));
                assert_eq!(visited, g.component_of(root).len());
                assert_eq!(visited, run.visited);
            }
        }
    }

    #[test]
    fn matches_sequential_parents() {
        let g = GraphBuilder::rmat(11, 8).seed(2).build();
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        let run = TwoDimBfs::new(&g, &scenario).run(5);
        assert_eq!(run.parent, seq::bfs_top_down(&g, 5).parent);
    }

    #[test]
    fn deterministic() {
        let g = GraphBuilder::rmat(10, 8).seed(5).build();
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        let engine = TwoDimBfs::new(&g, &scenario);
        let a = engine.run(1);
        let b = engine.run(1);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.profile.total(), b.profile.total());
    }

    #[test]
    fn parents_bitwise_match_1d_across_grids() {
        // The tentpole invariant: every grid shape (including the
        // degenerate 1xN and Nx1), running the full hybrid schedule,
        // produces the exact parent array of the 1-D engine.
        let g = GraphBuilder::rmat(12, 8).seed(7).build();
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        let root = hub_root(&g);
        let reference = DistributedBfs::new(&g, &scenario).run(root);
        for (rows, cols) in [(1usize, 8usize), (2, 4), (4, 2), (8, 1)] {
            let run = TwoDimBfs::with_grid(&g, &scenario, rows, cols).run(root);
            assert_eq!(
                run.parent, reference.parent,
                "grid {rows}x{cols} diverged from the 1-D parents"
            );
            assert_eq!(run.visited, reference.visited);
        }
    }

    #[test]
    fn runs_both_directions_on_rmat() {
        // A hub-rooted R-MAT trips the Beamer switch: the run must contain
        // at least one level of each direction under the default policy.
        let g = GraphBuilder::rmat(13, 16).seed(9).build();
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        let run = TwoDimBfs::new(&g, &scenario).run(hub_root(&g));
        let has = |d: Direction| run.profile.levels.iter().any(|l| l.direction == d);
        assert!(has(Direction::TopDown), "no top-down level");
        assert!(has(Direction::BottomUp), "no bottom-up level");
        assert!(run.profile.bu_comm_phases >= 1);
        assert!(run.profile.bu_comm > SimTime::ZERO);
    }

    #[test]
    fn compressed_storage_matches_uncompressed() {
        let g = GraphBuilder::rmat(11, 8).seed(23).build();
        let c = CompressedCsr::from_csr(&g);
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        let root = hub_root(&g);
        let dense = TwoDimBfs::new(&g, &scenario).run(root);
        let packed = TwoDimBfs::new(&c, &scenario).run(root);
        assert_eq!(dense.parent, packed.parent);
        assert_eq!(dense.visited, packed.visited);
    }

    #[test]
    #[should_panic(expected = "grid")]
    fn with_grid_rejects_bad_shapes() {
        let g = GraphBuilder::rmat(10, 8).seed(5).build();
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        let _ = TwoDimBfs::with_grid(&g, &scenario, 3, 3);
    }

    /// The fold's wire and shared-memory bytes over a traced hybrid run's
    /// `Alltoallv` records, on `nodes` test nodes and the given grid.
    fn fold_bytes(g: &Csr, nodes: usize, rows: usize, cols: usize) -> (u64, u64) {
        let scenario = Scenario::builder(machine(nodes), OptLevel::ShareAll)
            .trace(TraceConfig::Standard)
            .build()
            .unwrap();
        let (run, report) = TwoDimBfs::with_grid(g, &scenario, rows, cols).run_traced(hub_root(g));
        let folds: Vec<&CollectiveStats> = report
            .levels
            .iter()
            .flat_map(|l| &l.collectives)
            .filter(|c| c.kind == CollectiveKind::Alltoallv)
            .map(|c| &c.stats)
            .collect();
        // Every level folds once, both directions included.
        assert_eq!(folds.len(), run.profile.levels.len());
        let has = |d: Direction| run.profile.levels.iter().any(|l| l.direction == d);
        assert!(has(Direction::TopDown) && has(Direction::BottomUp));
        let sum = |f: fn(&CollectiveStats) -> u64| folds.iter().map(|s| f(s)).sum();
        (sum(|s| s.wire_bytes), sum(|s| s.shm_bytes))
    }

    #[test]
    fn fold_is_strictly_intra_node() {
        // On the natural grid a grid row is one node, so no fold record
        // crosses the wire; a 1x8 grid on two nodes spans both, and its
        // fold must.
        let g = GraphBuilder::rmat(12, 16).seed(3).build();
        for nodes in [2usize, 3] {
            let (wire, shm) = fold_bytes(&g, nodes, nodes, 4);
            assert_eq!(
                wire, 0,
                "{nodes} nodes: the natural grid's fold used the wire"
            );
            assert!(shm > 0, "{nodes} nodes: the fold moved nothing");
        }
        let (wire, _) = fold_bytes(&g, 2, 1, 8);
        assert!(
            wire > 0,
            "a 1x8 grid on two nodes folded nothing over the wire"
        );
    }

    /// The column expand prices round 0 once and repeats it on a natural
    /// grid with no weak node. It must equal the ring priced round by
    /// round, cost bits and tally, on 2–16 nodes of 1–8 ranks, with empty
    /// pieces (every one of them on a first draw) and with a weak node.
    #[test]
    fn one_round_expand_matches_the_per_round_ring() {
        let g = GraphBuilder::rmat(10, 8).seed(5).build();
        let mut rng = Xoroshiro128::new(0x2d2d);
        let bits =
            |c: CommCost| [c.intra_gather, c.inter, c.intra_bcast].map(|t| t.as_secs().to_bits());
        let mut staging = RoundStaging::default();
        for nodes in 2usize..=16 {
            for ppn in 1usize..=8 {
                let weak = rng.next_below(nodes as u64) as usize;
                for weak in [None, Some(weak)] {
                    let mut m = presets::xeon_x7550_cluster(nodes);
                    if let Some(w) = weak {
                        m = m.with_weak_node(w, 0.45);
                    }
                    let scenario = Scenario::builder(m, OptLevel::ShareAll)
                        .placement(ppn, PlacementPolicy::Interleave)
                        .build()
                        .unwrap();
                    let e = TwoDimBfs::new(&g, &scenario);
                    assert_eq!(e.grid(), (nodes, ppn));
                    for draw in 0..4 {
                        let pieces: Vec<u64> = (0..nodes * ppn)
                            .map(|_| match rng.next_below(4) {
                                _ if draw == 0 => 0,
                                0 => 0,
                                1 => rng.next_below(64) + 1,
                                _ => rng.next_below(1 << 24),
                            })
                            .collect();
                        let at = format!("{nodes}x{ppn} weak {weak:?} draw {draw}");
                        let (cost, stats) = e.column_expand(&pieces, &mut staging);
                        let (want, want_stats) = e.ring_expand(&pieces, false, &mut staging);
                        assert_eq!(bits(cost), bits(want), "{at}");
                        assert_eq!(stats, want_stats, "{at}");
                    }
                }
            }
        }
    }

    /// A block as the per-rank filter built it before the one-pass build:
    /// rank `(row, col)` scans its whole row group and keeps the arcs out of
    /// column `col`. Returns `(offsets, sources, cand words, deg)`.
    fn filtered_block<G: GraphView>(
        e: &TwoDimBfs<'_, G>,
        rank: usize,
    ) -> (Vec<u64>, Vec<u32>, Vec<u64>, Vec<u64>) {
        let (row, col) = (rank / e.cols, rank % e.cols);
        let (rs, re) = e.row_span(row);
        let mut offsets = vec![0u64];
        let mut sources = Vec::new();
        let mut cand = Bitmap::new(re - rs);
        for v in rs..re {
            let before = sources.len();
            e.graph.for_each_neighbour(v, |u| {
                if e.col_of(u as usize) == col {
                    sources.push(u);
                }
            });
            if sources.len() > before {
                cand.set(v - rs);
            }
            offsets.push(sources.len() as u64);
        }
        let (vs, ve) = e.partition.item_range(rank);
        let deg = (vs..ve).map(|v| e.graph.degree(v) as u64).collect();
        (offsets, sources, cand.words().to_vec(), deg)
    }

    fn assert_blocks_match_filter<G: GraphView>(g: &G, label: &str) {
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        for (rows, cols) in [(1usize, 8usize), (2, 4), (4, 2), (8, 1)] {
            let e = TwoDimBfs::with_grid(g, &scenario, rows, cols);
            let blocks = e.blocks();
            assert_eq!(blocks.len(), rows * cols);
            for (rank, b) in blocks.iter().enumerate() {
                let (offsets, sources, cand, deg) = filtered_block(&e, rank);
                let at = format!("{label} grid {rows}x{cols} rank {rank}");
                assert_eq!(b.bwd.first_vertex, e.row_span(rank / cols).0, "{at}");
                assert_eq!(b.bwd.offsets, offsets, "{at} offsets");
                assert_eq!(b.bwd.sources, sources, "{at} sources");
                assert_eq!(b.cand.words(), cand.as_slice(), "{at} cand");
                assert_eq!(b.deg, deg, "{at} deg");
            }
        }
    }

    #[test]
    fn one_pass_build_matches_the_per_rank_filter() {
        let g = GraphBuilder::rmat(11, 8).seed(23).build();
        assert!((0..g.num_vertices()).any(|v| g.degree(v) == 0));
        assert_blocks_match_filter(&g, "rmat");
        assert_blocks_match_filter(&CompressedCsr::from_csr(&g), "rmat packed");
        // Whole blocks of isolated vertices, an edge inside one rank's
        // range and edges across row groups.
        let sparse = Csr::from_edge_list(&EdgeList::new(
            1000,
            vec![Edge::new(0, 999), Edge::new(3, 5), Edge::new(130, 700)],
        ));
        assert_blocks_match_filter(&sparse, "isolated");
        assert_blocks_match_filter(&CompressedCsr::from_csr(&sparse), "isolated packed");
        let single = Csr::from_edge_list(&EdgeList::new(1, Vec::new()));
        assert_blocks_match_filter(&single, "single vertex");
        assert_blocks_match_filter(&CompressedCsr::from_csr(&single), "single vertex packed");
    }

    #[test]
    fn blocks_are_built_once_on_the_first_search() {
        let g = GraphBuilder::rmat(10, 8).seed(5).build();
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        let engine = TwoDimBfs::with_grid(&g, &scenario, 2, 4);
        assert!(engine.blocks.get().is_none(), "with_grid built blocks");
        // A root that is not a vertex fails before the build.
        assert!(engine.search(g.num_vertices(), &NoClock).is_err());
        assert!(
            engine.blocks.get().is_none(),
            "a rejected root built blocks"
        );
        let first = engine.run(hub_root(&g));
        let built = engine.blocks.get().unwrap().as_ptr();
        for root in [0usize, 7, hub_root(&g)] {
            let run = engine.run(root);
            assert!(std::ptr::eq(built, engine.blocks.get().unwrap().as_ptr()));
            if root == hub_root(&g) {
                assert_eq!(run.parent, first.parent);
            }
        }
    }
}

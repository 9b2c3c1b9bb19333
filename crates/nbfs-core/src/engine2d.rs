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
//! to targets in row group `i`, kept in both orientations (source-sorted
//! pairs for top-down, a target-rowed CSR for bottom-up).
//!
//! A **top-down** level is the classic SpMSpV schedule: column-allgather
//! the frontier pieces (*expand*), merge-join them against the block
//! (chunked galloping join, `td_match_chunk`), then *fold*
//! `(target, parent)` candidates to the target's owner
//! inside the grid row. A **bottom-up** level inverts the block walk: each
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

use rayon::prelude::*;

use nbfs_comm::alltoallv::{alltoallv_pairs_codec_into, exchange_round_cost, AlltoallvWorkspace};
use nbfs_comm::codec::encoded_words_size;
use nbfs_comm::collectives::allreduce_sum;
use nbfs_graph::{vid, Csr, GraphView, NO_PARENT};
use nbfs_simnet::compute::ProbeClass;
use nbfs_simnet::{ComputeContext, ComputeEvents, NetworkModel};
use nbfs_topology::{MachineConfig, ProcessMap};
use nbfs_trace::{
    CollectiveKind, CollectiveStats, CommCost, RunMeta, TraceEvent, TraceReport, Tracer,
};
use nbfs_util::{Bitmap, BlockPartition, SimTime, SummaryBitmap, WORD_BITS};

use crate::direction::Direction;
use crate::engine::{
    bu_scan_chunk, BfsRun, BuChunkOut, BuRows, BuScanInputs, Scenario, BU_CHUNK_WORDS,
};
use crate::profile::{LevelProfile, RunProfile};

/// Per-destination buckets of `(vertex, parent)` records.
type SendBuckets = Vec<Vec<(u32, u32)>>;

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

    fn neighbours_global(&self, v: usize) -> &[u32] {
        let l = v - self.first_vertex;
        &self.sources[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }
}

/// One rank's share of the 2-D world.
struct Rank2D {
    /// Grid row (== node with the natural mapping).
    row: usize,
    /// Grid column (== node-local index with the natural mapping).
    col: usize,
    /// First owned global vertex id.
    first: usize,
    /// Parents of owned vertices.
    parent: Vec<u32>,
    /// Visited bits of owned vertices.
    visited: Bitmap,
    /// Owned vertices discovered last level (ascending stored ids).
    frontier: Vec<u32>,
    /// Owned vertices discovered *this* level (the min-merge scratch).
    newly: Bitmap,
    /// Degrees of owned vertices (in the whole graph, not the block).
    deg: Vec<u64>,
    /// Sum of unvisited owned degrees (the `m_u` contribution).
    unexplored_degree: u64,
    /// Block `A[row][col]` as `(source, target)` pairs sorted by source —
    /// the top-down merge-join index.
    fwd: Vec<(u32, u32)>,
    /// The same block rowed by target — the bottom-up scan adjacency.
    bwd: BuBlock,
    /// Row-group vertices with at least one source in this block (the
    /// bottom-up candidate mask; padding bits stay zero).
    cand: Bitmap,
    /// Row-group-length parent scratch for the bottom-up scan.
    scratch_parent: Vec<u32>,
    /// Row-group-length discovery words for the bottom-up scan.
    out_words: Vec<u64>,
}

/// The 2-D partitioned direction-optimizing engine. Generic over the
/// graph storage ([`GraphView`]): the default `Csr` and the delta-varint
/// [`nbfs_graph::CompressedCsr`] build identical blocks, so results are
/// bitwise-identical across storages.
pub struct TwoDimBfs<'g, G: GraphView = Csr> {
    graph: &'g G,
    scenario: Scenario,
    pmap: ProcessMap,
    net: NetworkModel,
    partition: BlockPartition,
    rows: usize,
    cols: usize,
    granularity: usize,
}

impl<'g, G: GraphView> TwoDimBfs<'g, G> {
    /// Prepares the natural grid (`rows = nodes`, `cols = ranks per node`).
    pub fn new(graph: &'g G, scenario: &Scenario) -> Self {
        let pmap = scenario.process_map();
        let (rows, cols) = (pmap.nodes(), pmap.ppn());
        Self::with_grid(graph, scenario, rows, cols)
    }

    /// Prepares an explicit `rows × cols` grid over the scenario's ranks.
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

    fn compute_context(&self) -> ComputeContext {
        let mut ctx = ComputeContext::new(
            self.pmap.threads_per_rank(),
            self.pmap.memory_profile(&self.scenario.machine),
            self.pmap.ppn(),
        );
        ctx.params = self.scenario.params;
        ctx
    }

    /// Builds the per-rank state: both orientations of block `A[i][j]`
    /// from one pass over the row group's adjacency, plus the owned-range
    /// vertex state.
    fn build_blocks(&self) -> Vec<Rank2D> {
        let np = self.pmap.world_size();
        (0..np)
            .into_par_iter()
            .map(|rank| {
                let (row, col) = (rank / self.cols, rank % self.cols);
                let (rs, re) = self.row_span(row);
                let row_len = re - rs;
                let mut fwd: Vec<(u32, u32)> = Vec::new();
                let mut offsets: Vec<u64> = Vec::with_capacity(row_len + 1);
                let mut sources: Vec<u32> = Vec::new();
                let mut cand = Bitmap::new(row_len);
                offsets.push(0);
                for v in rs..re {
                    let before = sources.len();
                    self.graph.for_each_neighbour(v, |u| {
                        if self.col_of(u as usize) == col {
                            sources.push(u);
                            fwd.push((u, vid::to_stored(v)));
                        }
                    });
                    if sources.len() > before {
                        cand.set(v - rs);
                    }
                    offsets.push(sources.len() as u64);
                }
                fwd.sort_unstable();
                let (vs, ve) = self.partition.item_range(rank);
                let deg: Vec<u64> = (vs..ve).map(|v| self.graph.degree(v) as u64).collect();
                let unexplored_degree = deg.iter().sum();
                Rank2D {
                    row,
                    col,
                    first: vs,
                    parent: vec![NO_PARENT; ve - vs],
                    visited: Bitmap::new(ve - vs),
                    frontier: Vec::new(),
                    newly: Bitmap::new(ve - vs),
                    deg,
                    unexplored_degree,
                    fwd,
                    bwd: BuBlock {
                        first_vertex: rs,
                        offsets,
                        sources,
                    },
                    cand,
                    scratch_parent: vec![NO_PARENT; row_len],
                    out_words: vec![0u64; row_len.div_ceil(WORD_BITS)],
                }
            })
            .collect()
    }

    /// Cost/volume of the column allgather ("expand"): every column rings
    /// its ranks' pieces along the grid concurrently, `rows - 1` rounds; in
    /// round `r` rank `(i, j)` forwards the piece that originated at
    /// `((i + rows - r) mod rows, j)` to `((i + 1) mod rows, j)`. Each
    /// round is priced like one exchange round, so grids that stack column
    /// peers on one node get shared-memory rates and the natural mapping
    /// gets pure wire — the caller does not special-case either.
    fn column_expand(&self, piece_bytes: &[u64]) -> (CommCost, CollectiveStats) {
        if self.rows <= 1 {
            return (CommCost::ZERO, CollectiveStats::ZERO);
        }
        let mut cost = CommCost::ZERO;
        let mut stats = CollectiveStats::ZERO;
        let mut transfers: Vec<(usize, usize, u64)> = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows - 1 {
            transfers.clear();
            for i in 0..self.rows {
                let origin = (i + self.rows - r) % self.rows;
                for j in 0..self.cols {
                    transfers.push((
                        self.rank_of(i, j),
                        self.rank_of((i + 1) % self.rows, j),
                        piece_bytes[self.rank_of(origin, j)],
                    ));
                }
            }
            let (c, s) = exchange_round_cost(&transfers, &self.pmap, &self.net);
            cost += c;
            stats.flows += s.flows;
            stats.wire_bytes += s.wire_bytes;
            stats.shm_bytes += s.shm_bytes;
            stats.raw_bytes += s.raw_bytes;
        }
        stats.rounds = (self.rows - 1) as u64;
        (cost, stats)
    }

    /// Cost/volume of the row visited-update: each rank sends its visited
    /// news to its `cols - 1` row peers in one round (intra-node under the
    /// natural mapping). At bottom-up entry the news is the full owned
    /// visited segment; between consecutive bottom-up levels it is the
    /// frontier delta.
    fn row_update(&self, per_rank_bytes: &[u64]) -> (CommCost, CollectiveStats) {
        if self.cols <= 1 {
            return (CommCost::ZERO, CollectiveStats::ZERO);
        }
        let mut transfers: Vec<(usize, usize, u64)> =
            Vec::with_capacity(self.pmap.world_size() * (self.cols - 1));
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
        exchange_round_cost(&transfers, &self.pmap, &self.net)
    }

    /// Cost of one queue<->bitmap conversion sweep at a direction switch
    /// (same charge as the 1-D engine's).
    fn conversion_time(&self) -> SimTime {
        let (ws, we) = self.partition.word_range(0);
        let events = ComputeEvents {
            vertex_scan_bytes: ((we - ws) * 8) as u64 * 2,
            ..ComputeEvents::default()
        };
        self.compute_context().time(&self.scenario.machine, &events)
    }

    /// Folds the level's `(target, parent)` candidates to the owners,
    /// min-merges them, and records the exchange plus the per-rank level
    /// events. Returns the fold cost and the global discovery count.
    #[allow(clippy::too_many_arguments)]
    fn fold_adopt_record(
        &self,
        ranks: &mut [Rank2D],
        sends: &[SendBuckets],
        fold_ws: &mut AlltoallvWorkspace,
        tracer: &mut Tracer,
        level_idx: usize,
        events: &[ComputeEvents],
        times: &[SimTime],
        direction: Direction,
    ) -> (CommCost, u64) {
        // Fold targets are always owned inside the producer's grid row;
        // under the natural mapping a row is one node, so the exchange is
        // strictly intra-node (the Fig. 7 property the mapping buys).
        debug_assert!(sends.iter().enumerate().all(|(src, per_dst)| {
            per_dst.iter().enumerate().all(|(dst, msgs)| {
                msgs.is_empty()
                    || (dst / self.cols == src / self.cols
                        && (self.rows != self.pmap.nodes()
                            || self.cols != self.pmap.ppn()
                            || self.pmap.same_node(src, dst)))
            })
        }));
        let rows_ref: Vec<&[Vec<(u32, u32)>]> = sends.iter().map(Vec::as_slice).collect();
        let (fold_cost, fold_stats) = alltoallv_pairs_codec_into(
            fold_ws,
            &rows_ref,
            &self.pmap,
            &self.net,
            self.scenario.codec,
        );
        drop(rows_ref);
        tracer.record(TraceEvent::Collective {
            level: level_idx,
            kind: CollectiveKind::Alltoallv,
            cost: fold_cost,
            stats: fold_stats,
        });
        let found_per_rank: Vec<u64> = ranks
            .par_iter_mut()
            .zip(fold_ws.received.par_iter())
            .map(|(rk, inbox)| min_adopt(rk, inbox))
            .collect();
        if tracer.enabled() {
            for (r, ((e, t), &found)) in events.iter().zip(times).zip(&found_per_rank).enumerate() {
                let (edges_scanned, summary_probes, inqueue_probes) = match direction {
                    Direction::BottomUp => (
                        e.edge_bytes / 4,
                        e.probes.first().map_or(0, |p| p.count),
                        e.probes.get(1).map_or(0, |p| p.count),
                    ),
                    Direction::TopDown => (e.edge_bytes / 8, 0, 0),
                };
                tracer.record_rank(
                    r,
                    TraceEvent::RankLevel {
                        level: level_idx,
                        rank: r,
                        discovered: found,
                        edges_scanned,
                        summary_probes,
                        inqueue_probes,
                        write_bytes: e.write_bytes,
                        comp: *t,
                    },
                );
            }
        }
        (fold_cost, found_per_rank.iter().sum())
    }

    /// Identity block for this engine's trace reports.
    fn run_meta(&self, root: usize) -> RunMeta {
        RunMeta {
            world: self.pmap.world_size(),
            nodes: self.pmap.nodes(),
            ppn: self.pmap.ppn(),
            opt_label: self.scenario.opt.label(),
            root: root as u64,
        }
    }

    /// Runs a 2-D direction-optimizing BFS from `root`.
    pub fn run(&self, root: usize) -> BfsRun {
        self.run_instrumented(root, &mut Tracer::off())
    }

    /// Like [`Self::run`], also recording run events into a
    /// [`TraceReport`] under the scenario's [`TraceConfig`]
    /// (`Scenario::trace`).
    ///
    /// [`TraceConfig`]: nbfs_trace::TraceConfig
    pub fn run_traced(&self, root: usize) -> (BfsRun, TraceReport) {
        let mut tracer = Tracer::new(self.scenario.trace, self.pmap.world_size());
        let run = self.run_instrumented(root, &mut tracer);
        let report = tracer.finish(self.run_meta(root));
        (run, report)
    }

    fn run_instrumented(&self, root: usize, tracer: &mut Tracer) -> BfsRun {
        let n = self.graph.num_vertices();
        assert!(root < n, "root out of range");
        let np = self.pmap.world_size();
        let mut ranks = self.build_blocks();
        // Row replicas of the visited bits, rebuilt from the owners' words
        // at every bottom-up level (the functional result of the row
        // update priced by `row_update`). Kept outside `Rank2D` so the
        // rebuild can read the owners while writing the replicas.
        let mut vis_rows: Vec<Bitmap> = (0..self.rows)
            .map(|i| {
                let (rs, re) = self.row_span(i);
                Bitmap::new(re - rs)
            })
            .collect();
        // Column frontier bitmaps and their summaries: global-length, only
        // the column's owned bits ever set. Derived locally from the
        // expanded frontier pieces — no extra charged collective, exactly
        // like the 1-D engine derives its summary from the allgathered
        // `in_queue` for free.
        let mut col_q: Vec<Bitmap> = (0..self.cols).map(|_| Bitmap::new(n)).collect();
        let mut col_sum: Vec<SummaryBitmap> = (0..self.cols)
            .map(|_| SummaryBitmap::new_prevalidated(n, self.granularity))
            .collect();

        {
            let owner = self.partition.owner(root);
            let local = self.partition.to_local(root);
            ranks[owner].parent[local] = vid::to_stored(root);
            ranks[owner].visited.set(local);
            ranks[owner].frontier.push(vid::to_stored(root));
            let d = ranks[owner].deg[local];
            ranks[owner].unexplored_degree -= d;
        }

        let mut profile = RunProfile::default();
        let ctx = self.compute_context();

        // Codec staging, recycled across levels: the expand payloads are
        // cost-only (the functional unions below read the frontiers
        // directly), so scratch buffers size each encoded piece; the fold
        // exchange reuses a persistent workspace.
        let codec = self.scenario.codec;
        let mut codec_scratch: Vec<u8> = Vec::new();
        let mut word_scratch: Vec<u64> = Vec::new();
        let mut fold_ws = AlltoallvWorkspace::default();

        let mut direction = Direction::TopDown;
        let mut prev_direction: Option<Direction> = None;
        let mut level_idx: usize = 0;
        loop {
            // --- per-level statistics and direction choice ---------------
            let frontier_counts: Vec<u64> = ranks.iter().map(|r| r.frontier.len() as u64).collect();
            // As in the 1-D engine, the real code packs (n_f, m_f, m_u)
            // into one short vector allreduce; only one latency-bound
            // collective is charged.
            let m_f: u64 = ranks
                .iter()
                .map(|r| {
                    r.frontier
                        .iter()
                        .map(|&v| r.deg[v as usize - r.first])
                        .sum::<u64>()
                })
                .sum();
            let m_u: u64 = ranks.iter().map(|r| r.unexplored_degree).sum();
            let n_f = allreduce_sum(&frontier_counts, &self.pmap, &self.net);
            // Recorded before the termination check: the terminal allreduce
            // belongs to a level that never commits, so the merge files it
            // under `post_collectives` and the profile projection stays
            // exact (the engine, too, discards its cost on termination).
            tracer.record(TraceEvent::Collective {
                level: level_idx,
                kind: CollectiveKind::Allreduce,
                cost: n_f.cost,
                stats: n_f.stats,
            });
            if n_f.value == 0 {
                break;
            }
            let prev = direction;
            direction = self
                .scenario
                .switch_policy
                .choose(direction, m_f, m_u, n_f.value, n as u64);
            tracer.record(TraceEvent::Decision {
                level: level_idx,
                prev,
                chosen: direction,
                m_f,
                m_u,
                n_f: n_f.value,
                n: n as u64,
            });
            // Per-level accumulators, committed once at the level tail; the
            // Level trace event carries exactly the committed values, which
            // keeps `TraceReport::run_profile` bitwise-exact.
            let mut level_comm = n_f.cost.total();
            let mut level_comp = SimTime::ZERO;
            let mut level_stall = SimTime::ZERO;
            let mut level_switch = SimTime::ZERO;
            let mut level_detail = CommCost::ZERO;

            let discovered_total;
            match direction {
                Direction::BottomUp => {
                    let entering = prev_direction != Some(Direction::BottomUp);
                    if entering {
                        level_switch += self.conversion_time();
                    }

                    // --- row visited-update ------------------------------
                    // Entering bottom-up, row peers need each other's full
                    // visited segments; on later consecutive levels only
                    // the last frontier's ids are news.
                    let update_bytes: Vec<u64> = ranks
                        .iter()
                        .map(|r| {
                            if entering {
                                (r.visited.word_len() * 8) as u64
                            } else {
                                r.frontier.len() as u64 * 4
                            }
                        })
                        .collect();
                    let (upd_cost, upd_stats) = self.row_update(&update_bytes);
                    tracer.record(TraceEvent::Collective {
                        level: level_idx,
                        kind: CollectiveKind::AllgatherWords,
                        cost: upd_cost,
                        stats: upd_stats,
                    });
                    level_detail += upd_cost;
                    level_comm += upd_cost.total();
                    // Functional result: rebuild each row replica from its
                    // owners' words. Block starts are word-aligned, so the
                    // segments tile the replica exactly.
                    let ranks_ref = &ranks;
                    vis_rows.par_iter_mut().enumerate().for_each(|(i, vr)| {
                        let (rs, _) = self.row_span(i);
                        for j in 0..self.cols {
                            let rk = &ranks_ref[self.rank_of(i, j)];
                            vr.copy_words_from((rk.first - rs) / WORD_BITS, rk.visited.words());
                        }
                    });

                    // --- column expand of the frontier words -------------
                    let words_raw: Vec<u64> = ranks
                        .iter()
                        .map(|r| (r.visited.word_len() * 8) as u64)
                        .collect();
                    let expand_bytes: Vec<u64> = if codec.is_raw() {
                        words_raw.clone()
                    } else {
                        ranks
                            .iter()
                            .map(|r| {
                                word_scratch.clear();
                                word_scratch.resize(r.visited.word_len(), 0);
                                for &v in &r.frontier {
                                    let local = v as usize - r.first;
                                    word_scratch[local / WORD_BITS] |= 1u64 << (local % WORD_BITS);
                                }
                                encoded_words_size(codec, &word_scratch, &mut codec_scratch)
                            })
                            .collect()
                    };
                    let (expand_cost, expand_stats) = self.column_expand(&expand_bytes);
                    if tracer.enabled() {
                        let mut stats = expand_stats;
                        if !codec.is_raw() {
                            stats.raw_bytes = self.column_expand(&words_raw).1.wire_bytes;
                        }
                        tracer.record(TraceEvent::Collective {
                            level: level_idx,
                            kind: CollectiveKind::Expand2d,
                            cost: expand_cost,
                            stats,
                        });
                    }
                    level_detail += expand_cost;
                    level_comm += expand_cost.total();
                    // Functional result: each column's frontier bitmap and
                    // summary over the global id space.
                    col_q
                        .par_iter_mut()
                        .zip(col_sum.par_iter_mut())
                        .enumerate()
                        .for_each(|(j, (q, s))| {
                            q.clear_all();
                            for i in 0..self.rows {
                                for &v in &ranks_ref[self.rank_of(i, j)].frontier {
                                    q.set(v as usize);
                                }
                            }
                            s.rebuild_from(q);
                        });

                    // --- bottom-up scan over the row group ---------------
                    let vis_rows_ref = &vis_rows;
                    let col_q_ref = &col_q;
                    let col_sum_ref = &col_sum;
                    let results: Vec<(ComputeEvents, SendBuckets)> = ranks
                        .par_iter_mut()
                        .map(|rk| {
                            let Rank2D {
                                row,
                                col,
                                bwd,
                                cand,
                                scratch_parent,
                                out_words,
                                ..
                            } = rk;
                            let inputs = BuScanInputs {
                                lg: &*bwd,
                                visited: &vis_rows_ref[*row],
                                candidates: &*cand,
                                in_queue: &col_q_ref[*col],
                                summary: &col_sum_ref[*col],
                            };
                            let chunk_bits = BU_CHUNK_WORDS * WORD_BITS;
                            let tasks: Vec<(usize, &mut [u32], &mut [u64])> = scratch_parent
                                .chunks_mut(chunk_bits)
                                .zip(out_words.chunks_mut(BU_CHUNK_WORDS))
                                .enumerate()
                                .map(|(ci, (p, o))| (ci, p, o))
                                .collect();
                            let chunk_outs: Vec<BuChunkOut> = tasks
                                .into_par_iter()
                                .map(|(ci, parent_chunk, out_chunk)| {
                                    bu_scan_chunk(&inputs, ci * chunk_bits, parent_chunk, out_chunk)
                                })
                                .collect();
                            let mut summary_probes = 0u64;
                            let mut inqueue_probes = 0u64;
                            let mut edge_bytes = 0u64;
                            let mut write_bytes = 0u64;
                            let mut cpu_ops = 0u64;
                            for c in &chunk_outs {
                                summary_probes += c.summary_probes;
                                inqueue_probes += c.inqueue_probes;
                                edge_bytes += c.edge_bytes;
                                write_bytes += c.write_bytes;
                                cpu_ops += c.cpu_ops;
                            }
                            // `degree_found` is column-restricted here and
                            // deliberately unused: owners decrement their
                            // unexplored degree from `deg` at adopt time.

                            // Harvest: the set bits of `out_words` are the
                            // block's adoptions, ascending; route each to
                            // its owner (inside this grid row) and reset
                            // the touched scratch (O(discovered) hygiene).
                            let first = bwd.first_vertex;
                            let mut sends: SendBuckets = vec![Vec::new(); np];
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
                                    sends[self.partition.owner(v)].push((vid::to_stored(v), u));
                                }
                            }
                            let events = ComputeEvents {
                                vertex_scan_bytes: scratch_parent.len() as u64 * 4,
                                edge_bytes,
                                write_bytes,
                                cpu_ops,
                                probes: vec![
                                    ProbeClass {
                                        count: summary_probes,
                                        // The block only probes its own
                                        // column's ids, ~1/C of the
                                        // structure is resident.
                                        working_set: (col_sum_ref[*col].size_bytes() / self.cols)
                                            .max(64),
                                        residence: self.scenario.summary_residence(),
                                    },
                                    ProbeClass {
                                        count: inqueue_probes,
                                        working_set: (col_q_ref[*col].size_bytes() / self.cols)
                                            .max(64),
                                        residence: self.scenario.in_queue_residence(),
                                    },
                                ],
                            };
                            (events, sends)
                        })
                        .collect();
                    let (events, sends): (Vec<ComputeEvents>, Vec<SendBuckets>) =
                        results.into_iter().unzip();
                    let times: Vec<SimTime> = events
                        .iter()
                        .map(|e| ctx.time(&self.scenario.machine, e))
                        .collect();
                    let (mean, stall) = mean_and_stall(&times);
                    level_comp += mean;
                    level_stall += stall;

                    // --- fold + min-merge adopt --------------------------
                    let (fold_cost, discovered) = self.fold_adopt_record(
                        &mut ranks,
                        &sends,
                        &mut fold_ws,
                        tracer,
                        level_idx,
                        &events,
                        &times,
                        direction,
                    );
                    level_detail += fold_cost;
                    level_comm += fold_cost.total();
                    discovered_total = discovered;
                }
                Direction::TopDown => {
                    if prev_direction == Some(Direction::BottomUp) {
                        level_switch += self.conversion_time();
                    }

                    // --- column expand of the frontier lists -------------
                    let piece_raw: Vec<u64> =
                        ranks.iter().map(|r| r.frontier.len() as u64 * 4).collect();
                    let expand_bytes: Vec<u64> = if codec.is_raw() {
                        piece_raw.clone()
                    } else {
                        let imp = codec.implementation();
                        ranks
                            .iter()
                            .map(|r| {
                                imp.encode_sorted_u32(&r.frontier, &mut codec_scratch);
                                codec_scratch.len() as u64
                            })
                            .collect()
                    };
                    let (expand_cost, expand_stats) = self.column_expand(&expand_bytes);
                    if tracer.enabled() {
                        let mut stats = expand_stats;
                        if !codec.is_raw() {
                            stats.raw_bytes = self.column_expand(&piece_raw).1.wire_bytes;
                        }
                        tracer.record(TraceEvent::Collective {
                            level: level_idx,
                            kind: CollectiveKind::Expand2d,
                            cost: expand_cost,
                            stats,
                        });
                    }
                    level_comm += expand_cost.total();
                    // Functional result: the union of a column's pieces,
                    // sorted — the merge-join input.
                    let col_frontiers: Vec<Vec<u32>> = (0..self.cols)
                        .map(|col| {
                            let mut f: Vec<u32> = (0..self.rows)
                                .flat_map(|row| {
                                    ranks[self.rank_of(row, col)].frontier.iter().copied()
                                })
                                .collect();
                            f.sort_unstable();
                            f
                        })
                        .collect();

                    // --- local multiply (chunked galloping merge-join) ---
                    let col_ref = &col_frontiers;
                    let results: Vec<(ComputeEvents, SendBuckets)> = ranks
                        .par_iter()
                        .map(|rk| {
                            let f: &[u32] = &col_ref[rk.col];
                            let mut sends: SendBuckets = vec![Vec::new(); np];
                            let mut spans: Vec<(usize, usize)> = vec![(0, 0); TD_CHUNK_FRONTIER];
                            let mut edge_bytes = 0u64;
                            let mut cpu_ops = 0u64;
                            for chunk in f.chunks(TD_CHUNK_FRONTIER) {
                                let spans = &mut spans[..chunk.len()];
                                td_match_chunk(&rk.fwd, chunk, spans);
                                for (&u, &(start, len)) in chunk.iter().zip(spans.iter()) {
                                    edge_bytes += 8; // merge-join skip through the block
                                    cpu_ops += 8;
                                    for &(_, v) in &rk.fwd[start..start + len] {
                                        edge_bytes += 8;
                                        cpu_ops += 3;
                                        sends[self.partition.owner(v as usize)].push((v, u));
                                    }
                                }
                            }
                            let events = ComputeEvents {
                                vertex_scan_bytes: f.len() as u64 * 4,
                                edge_bytes,
                                write_bytes: 8 * sends.iter().map(|s| s.len() as u64).sum::<u64>(),
                                cpu_ops,
                                probes: vec![ProbeClass {
                                    count: f.len() as u64 / 8 + 1,
                                    working_set: (rk.fwd.len() * 8).max(64),
                                    residence: self.scenario.private_residence(),
                                }],
                            };
                            (events, sends)
                        })
                        .collect();
                    let (events, sends): (Vec<ComputeEvents>, Vec<SendBuckets>) =
                        results.into_iter().unzip();
                    let times: Vec<SimTime> = events
                        .iter()
                        .map(|e| ctx.time(&self.scenario.machine, e))
                        .collect();
                    let (mean, stall) = mean_and_stall(&times);
                    level_comp += mean;
                    level_stall += stall;

                    // --- fold + min-merge adopt --------------------------
                    let (fold_cost, discovered) = self.fold_adopt_record(
                        &mut ranks,
                        &sends,
                        &mut fold_ws,
                        tracer,
                        level_idx,
                        &events,
                        &times,
                        direction,
                    );
                    level_comm += fold_cost.total();
                    discovered_total = discovered;
                }
            }

            // --- level commit (the single write site for the profile) ----
            profile.stall += level_stall;
            profile.switch += level_switch;
            match direction {
                Direction::BottomUp => {
                    profile.bu_comp += level_comp;
                    profile.bu_comm += level_comm;
                    profile.bu_comm_detail += level_detail;
                    profile.bu_comm_phases += 1;
                }
                Direction::TopDown => {
                    profile.td_comp += level_comp;
                    profile.td_comm += level_comm;
                }
            }
            tracer.record(TraceEvent::Level {
                level: level_idx,
                direction,
                discovered: discovered_total,
                comp: level_comp,
                comm: level_comm,
                stall: level_stall,
                switch: level_switch,
                detail: level_detail,
                wall_comp_secs: 0.0,
            });
            profile.levels.push(LevelProfile {
                direction,
                discovered: discovered_total,
                comp: level_comp,
                comm: level_comm,
                stall: level_stall,
            });
            prev_direction = Some(direction);
            level_idx += 1;
            if discovered_total == 0 {
                break;
            }
        }

        let mut parent = Vec::with_capacity(n);
        for rk in &ranks {
            parent.extend_from_slice(&rk.parent);
        }
        parent.truncate(n);
        let visited = parent.iter().filter(|&&p| p != NO_PARENT).count();
        BfsRun {
            parent,
            visited,
            profile,
        }
    }
}

/// Frontier vertices per chunk of the top-down merge-join: the size of the
/// span scratch a rank reuses across the chunks of one level.
const TD_CHUNK_FRONTIER: usize = 4096;

/// Advances `lo` to the first index of `arcs` whose source is `>= target`.
///
/// Exponential (galloping) probe followed by a binary search inside the
/// bracketed window: for the sorted-frontier sweep the boundary is usually
/// a handful of entries away, so this touches O(log gap) cache lines where
/// a from-scratch binary search would touch O(log n) cold ones.
fn gallop_to(arcs: &[(u32, u32)], lo: usize, target: u32) -> usize {
    // nbfs-analysis: hot-path
    // Runs once per frontier vertex per top-down level (twice: range start
    // and end); pure index arithmetic over a borrowed slice.
    if lo >= arcs.len() || arcs[lo].0 >= target {
        return lo;
    }
    // Invariant: arcs[prev].0 < target.
    let mut prev = lo;
    let mut step = 1usize;
    loop {
        let next = prev + step;
        if next >= arcs.len() {
            return prev + 1 + arcs[prev + 1..].partition_point(|&(s, _)| s < target);
        }
        if arcs[next].0 >= target {
            return prev + 1 + arcs[prev + 1..next].partition_point(|&(s, _)| s < target);
        }
        prev = next;
        step *= 2;
    }
    // nbfs-analysis: end-hot-path
}

/// Records, for every vertex of one frontier chunk, the `(start, len)` span
/// of its matched arcs in the rank's source-sorted block. One binary search
/// anchors the chunk; from there the sweep gallops, because both sides are
/// sorted.
fn td_match_chunk(arcs: &[(u32, u32)], frontier_chunk: &[u32], out: &mut [(usize, usize)]) {
    // nbfs-analysis: hot-path
    // The merge-join sweep: near-sequential galloping where a lookup per
    // frontier vertex would be two full binary searches.
    let Some(&first_u) = frontier_chunk.first() else {
        return;
    };
    let mut pos = arcs.partition_point(|&(s, _)| s < first_u);
    for (&u, span) in frontier_chunk.iter().zip(out.iter_mut()) {
        pos = gallop_to(arcs, pos, u);
        let start = pos;
        // Stored vertex ids are < NO_PARENT = u32::MAX, so `u + 1` cannot
        // wrap.
        pos = gallop_to(arcs, pos, u + 1);
        *span = (start, pos - start);
    }
    // nbfs-analysis: end-hot-path
}

/// Mean/max reduction: the mean is the busy slice, the skew (`max - mean`)
/// is stall — same float-op order as the 1-D engine's reduction.
fn mean_and_stall(times: &[SimTime]) -> (SimTime, SimTime) {
    let max = times.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let mean = times.iter().copied().sum::<SimTime>() / times.len() as f64;
    (mean, max - mean)
}

/// Owner-side merge of one fold inbox. The inbox interleaves candidates
/// from every column block, so first arrival is *not* the minimum-id
/// frontier neighbour the 1-D engine deterministically adopts; an explicit
/// min over the level's proposals restores bitwise parent equality.
/// Returns the number of vertices discovered; rebuilds the owner's
/// frontier in ascending id order (the reference push order).
fn min_adopt(rk: &mut Rank2D, inbox: &[(u32, u32)]) -> u64 {
    let Rank2D {
        first,
        parent,
        visited,
        frontier,
        newly,
        deg,
        unexplored_degree,
        ..
    } = rk;
    newly.clear_all();
    let mut found = 0u64;
    for &(v, u) in inbox {
        let local = v as usize - *first;
        if visited.get(local) {
            continue;
        }
        if newly.set_returning_fresh(local) {
            parent[local] = u;
            found += 1;
        } else if u < parent[local] {
            parent[local] = u;
        }
    }
    frontier.clear();
    for local in newly.iter_ones() {
        visited.set(local);
        *unexplored_degree -= deg[local];
        frontier.push(vid::to_stored(*first + local));
    }
    found
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::engine::DistributedBfs;
    use crate::opt::OptLevel;
    use crate::seq;
    use nbfs_graph::validate::validate_bfs_tree;
    use nbfs_graph::{CompressedCsr, GraphBuilder};

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
    fn matches_sequential_visited_set() {
        let g = GraphBuilder::rmat(11, 8).seed(2).build();
        let scenario = Scenario::new(machine(2), OptLevel::ShareAll);
        let run = TwoDimBfs::new(&g, &scenario).run(5);
        let seq_run = seq::bfs_top_down(&g, 5);
        for v in 0..g.num_vertices() {
            assert_eq!(
                run.parent[v] != NO_PARENT,
                seq_run.parent[v] != NO_PARENT,
                "v={v}"
            );
        }
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

    #[test]
    fn fold_is_strictly_intra_node() {
        // With the natural mapping every fold message stays inside a node;
        // the debug_assert in the fold path enforces it, so a debug-mode
        // hybrid run (both directions fold) suffices.
        let g = GraphBuilder::rmat(10, 8).seed(3).build();
        let scenario = Scenario::new(machine(3), OptLevel::ShareAll);
        let run = TwoDimBfs::new(&g, &scenario).run(0);
        assert!(run.visited >= 1);
    }
}

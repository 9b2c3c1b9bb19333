//! Bit-parallel multi-source BFS: up to 64 roots in one shared sweep.
//!
//! Buluç & Madduri (arXiv:1104.4518) observe that frontier work is
//! word-level at heart, so 64 independent BFS queries can be fused into
//! one traversal by giving every vertex a single `u64` whose bit *l*
//! means "query lane *l* has reached this vertex". One wave then advances
//! all lanes level by level: vertices touched by several queries are
//! scanned once per level instead of once per query — the sharing that
//! makes a batched wave beat 64 sequential single-source runs on
//! queries/sec.
//!
//! Every top-down level is three phases, mirroring the alloc-free pipeline
//! of [`crate::par`]:
//!
//! * **Expand** — workers walk disjoint chunks of the active list; for
//!   each frontier vertex `v` and neighbour `w`, the lanes newly reaching
//!   `w` are `cur[v] & !reached[w]`, pushed as a `(w, lanes)` candidate
//!   onto the chunk's own recycled list. The expand only reads shared
//!   words.
//! * **Claim** — one pass over the lists in chunk order ORs each
//!   candidate's lanes into `next[w]`; the first claim of a vertex (its
//!   `next` word was zero) sets `w`'s bit in the one-bit-per-vertex
//!   `touched` bitmap.
//! * **Settle** — workers own disjoint fixed vertex ranges (chunking is a
//!   pure function of the vertex count, never the thread count) and walk
//!   their own words of `touched`, clearing them — `n/64` words a level,
//!   not the `n` lane words of `next`. Each newly-claimed vertex scans its
//!   *sorted* adjacency list ascending and records, per lane, the first
//!   frontier neighbour carrying that lane — the **minimum** frontier
//!   neighbour, the very parent [`crate::par::bfs_hybrid_parallel`]'s
//!   min rule keeps. The whole parent table is therefore a deterministic
//!   function of graph + roots: bit-identical across thread pools, batch
//!   compositions and admission orders.
//!
//! Dense mid-wave levels run **bottom-up** instead, chosen by the Beamer
//! α/β policy over the lane-union frontier statistics `m_f` / `m_u`. Those
//! are running values — counted once at wave start, then moved by the
//! integer degree tallies the settle tasks return — so every level decides
//! on the numbers a recount would give. Each bottom-up owner task scans its
//! still-missing vertices' sorted adjacency ascending with early exit once
//! every missing lane found a frontier neighbour — the same minimum-parent
//! rule, fused claim+settle.
//!
//! Every word has one owner per phase (DESIGN.md §6), and the owner holds
//! it as `&mut`: a settle or bottom-up task takes its vertex range of
//! `reached`, `next`, `touched` and of every lane's answer array through
//! `par_chunks_mut`, and pushes its discoveries onto its own recycled list.
//! The lists, concatenated in task order, are the next active list
//! (ascending vertex ids). Parents land straight in each lane's answer,
//! bitwise identical to [`crate::seq::bfs_top_down`] from the lane's root
//! — the property `tests/multi_source_equivalence` pins across scales,
//! batch sizes and pools.

use rayon::prelude::*;

use nbfs_graph::{vid, Csr, NO_PARENT};
use nbfs_util::Bitmap;

use crate::direction::{Direction, SwitchPolicy};
use crate::grain;
use crate::seq::SeqBfs;

/// Lanes per wave: one per bit of the per-vertex lane word.
pub const MAX_LANES: usize = 64;

/// Active-list vertices per expand task (matches [`crate::par`]'s chunk).
const CHUNK: usize = 1024;

/// Vertices per settle task — fixed, thread-count-independent chunking,
/// like the distributed kernels' word blocks.
const SETTLE_TASK: usize = 4096;

/// Words of the `touched` bitmap per settle task.
const SETTLE_TASK_WORDS: usize = SETTLE_TASK / 64;

/// One settle (or fused bottom-up) task's discoveries and tallies,
/// recycled across levels and waves.
struct Settled {
    /// The task's share of the next active list, ascending.
    list: Vec<u32>,
    /// Vertices each lane discovered.
    counts: [u64; MAX_LANES],
    /// Adjacency entries examined.
    edges: u64,
    /// Degree sum of `list`'s vertices: the next level's `m_f` share.
    frontier_degree: u64,
    /// Degree sum of the vertices whose last missing lane arrived: what
    /// leaves `m_u`.
    completed_degree: u64,
}

impl Settled {
    fn new() -> Self {
        Self {
            list: Vec::new(),
            counts: [0; MAX_LANES],
            edges: 0,
            frontier_degree: 0,
            completed_degree: 0,
        }
    }

    /// Empties the list and zeroes the tallies for a new level.
    fn reset(&mut self) {
        self.list.clear();
        self.counts = [0; MAX_LANES];
        self.edges = 0;
        self.frontier_degree = 0;
        self.completed_degree = 0;
    }

    /// Records `u` as the parent of the task's `i`-th vertex in every lane
    /// of `hit`; `parents` holds the task's piece of each lane's answer.
    #[inline]
    fn adopt(&mut self, parents: &mut [&mut [u32]], i: usize, u: u32, hit: u64) {
        let mut h = hit;
        while h != 0 {
            let lane = h.trailing_zeros() as usize;
            h &= h - 1;
            parents[lane][i] = u;
            self.counts[lane] += 1;
        }
    }

    /// Marks `v` reached in the lanes of `new`, queues it for the next
    /// level and tallies its degree into the running `m_f` / `m_u`.
    #[inline]
    fn queue(&mut self, graph: &Csr, reached: &mut u64, wave_mask: u64, v: usize, new: u64) {
        *reached |= new;
        self.list.push(vid::to_stored(v));
        let degree = graph.degree(v) as u64;
        self.frontier_degree += degree;
        if *reached == wave_mask {
            self.completed_degree += degree;
        }
    }
}

/// One query's answer, unpacked from its lane of a wave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneAnswer {
    /// The search key this lane ran from.
    pub root: usize,
    /// Parent array (global ids; `NO_PARENT` = unreached; the root is its
    /// own parent). Bitwise identical to [`crate::seq::bfs_top_down`]'s.
    pub parent: Vec<u32>,
    /// Vertices reached, root included.
    pub visited: u64,
    /// Vertices discovered per committed level, ending with the empty
    /// level — the same shape as the single-source engines' level traces.
    pub level_discovered: Vec<u64>,
}

impl LaneAnswer {
    /// One single-source run from `root` in a lane's answer shape: its
    /// parent array moved, not copied, and its level counts, which end
    /// with the empty level as a lane's do.
    pub fn from_run(root: usize, run: SeqBfs) -> Self {
        let level_discovered: Vec<u64> = run.levels.iter().map(|l| l.discovered).collect();
        Self {
            root,
            visited: 1 + level_discovered.iter().sum::<u64>(),
            parent: run.parent,
            level_discovered,
        }
    }
}

/// Result of one bit-parallel wave.
#[derive(Clone, Debug)]
pub struct MultiSourceRun {
    /// One answer per admitted root, in admission order.
    pub lanes: Vec<LaneAnswer>,
    /// Levels the wave ran (the maximum over its lanes).
    pub wave_levels: usize,
    /// CSR adjacency entries examined by the whole wave (expand probes
    /// plus settle parent scans) — shared across all lanes.
    pub edges_scanned: u64,
}

/// Recyclable state of one wave: the lane tables and the frontier
/// pipeline. Pool these (see [`nbfs_util::ArenaPool`]) so a long-lived
/// engine reuses them; a wave still allocates what it returns — one parent
/// array and one level vector per lane — and the table of per-task pieces
/// those parent arrays are split into.
pub struct MultiWorkspace {
    /// Word `v`: the lanes that have reached vertex `v`.
    reached: Vec<u64>,
    /// Word `v`: the lanes for which `v` is on the current frontier.
    cur: Vec<u64>,
    /// Word `v`: the lanes that claimed `v` this level.
    next: Vec<u64>,
    /// One bit per vertex: set by the claim pass's first claim of the
    /// vertex in this level, cleared by the settle task that owns its word
    /// — the top-down level tail walks these `n/64` words, never the `n`
    /// lane words of `next`.
    touched: Bitmap,
    active: Vec<u32>,
    /// One `(vertex, lanes)` candidate list per expand chunk, recycled
    /// across levels and waves.
    candidates: Vec<Vec<(u32, u64)>>,
    /// One discovery list and tally set per settle task.
    settled: Vec<Settled>,
}

impl Default for MultiWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiWorkspace {
    /// An empty workspace; sized lazily by the first wave.
    pub fn new() -> Self {
        Self {
            reached: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
            touched: Bitmap::new(0),
            active: Vec::new(),
            candidates: Vec::new(),
            settled: Vec::new(),
        }
    }

    /// Sizes (or recycles) the tables for an `n`-vertex wave and resets
    /// them to the all-unreached state. A completed wave leaves `cur`,
    /// `next` and `touched` zero (its last level claims nothing, and the
    /// level tail retires every `cur` word it set), so only `reached` is
    /// refilled. A workspace whose wave unwound is never reused:
    /// [`nbfs_util::ArenaPool`] discards it.
    fn prepare(&mut self, n: usize) {
        if self.reached.len() != n {
            self.reached = vec![0; n];
            self.cur = vec![0; n];
            self.next = vec![0; n];
            self.touched = Bitmap::new(n);
        } else {
            self.reached.fill(0);
            debug_assert!(
                self.cur.iter().chain(&self.next).all(|&w| w == 0),
                "a completed wave leaves cur and next zero"
            );
            debug_assert!(
                self.touched.words().iter().all(|&w| w == 0),
                "a completed wave leaves touched clear"
            );
        }
        self.settled
            .resize_with(n.div_ceil(SETTLE_TASK), Settled::new);
        self.active.clear();
    }
}

/// Runs one bit-parallel wave for `roots` (1..=64, duplicates allowed)
/// in a fresh workspace. Sustained services should prefer
/// [`multi_source_bfs_in`] with a pooled workspace.
pub fn multi_source_bfs(graph: &Csr, roots: &[usize]) -> MultiSourceRun {
    let mut ws = MultiWorkspace::new();
    multi_source_bfs_in(graph, roots, &mut ws)
}

/// Runs one bit-parallel wave for `roots` in the caller's workspace. A
/// workspace whose wave panicked is dirty: drop it rather than reuse it.
pub fn multi_source_bfs_in(
    graph: &Csr,
    roots: &[usize],
    ws: &mut MultiWorkspace,
) -> MultiSourceRun {
    let n = graph.num_vertices();
    let lanes = roots.len();
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "a wave fuses 1..={MAX_LANES} roots, got {lanes}"
    );
    for &root in roots {
        assert!(root < n, "root {root} out of range");
    }
    ws.prepare(n);

    // One answer array per lane; the settle owners write parents into it.
    let mut parents: Vec<Vec<u32>> = (0..lanes)
        .into_par_iter()
        .map(|_| vec![NO_PARENT; n])
        .collect();
    // Root installation: lane l starts at roots[l]. Duplicate roots simply
    // share a vertex — their lanes advance identically.
    for (lane, &root) in roots.iter().enumerate() {
        let mask = 1u64 << lane;
        ws.cur[root] |= mask;
        ws.reached[root] |= mask;
        parents[lane][root] = vid::to_stored(root);
        ws.active.push(vid::to_stored(root));
    }
    ws.active.sort_unstable();
    ws.active.dedup();

    // Each lane's answer split into SETTLE_TASK-vertex pieces, task-major:
    // `par_chunks_mut(lanes)` hands settle task t its piece of every lane.
    let num_tasks = n.div_ceil(SETTLE_TASK);
    let mut columns: Vec<_> = parents
        .iter_mut()
        .map(|parent| parent.chunks_mut(SETTLE_TASK))
        .collect();
    let mut pieces: Vec<&mut [u32]> = Vec::with_capacity(num_tasks * lanes);
    for _ in 0..num_tasks {
        pieces.extend(columns.iter_mut().filter_map(Iterator::next));
    }

    let num_words = ws.touched.word_len();
    let wave_mask: u64 = if lanes == MAX_LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    };
    let policy = SwitchPolicy::default();
    let mut direction = Direction::TopDown;
    let mut edges = 0u64;
    // Lanes still emitting level counts; a lane stops after its first
    // empty level, mirroring the single-source engines' trailing zero.
    let mut recording: u64 = wave_mask;
    let mut lane_levels: Vec<Vec<u64>> = vec![Vec::new(); lanes];
    let mut wave_levels = 0usize;

    // --- direction statistics (Beamer α/β, lane-union) -------------------
    // m_f: arcs incident to the union frontier. m_u: arcs incident to
    // vertices still missing at least one lane — every arc but those of a
    // root that all lanes share. Both are running values: counted once
    // here, then moved by the integer tallies the settle tasks return (the
    // degrees of the vertices they queue, and of the vertices whose
    // `reached` word became `wave_mask`). Integer sums are exact in any
    // grouping, so the chosen direction — and hence every probe count — is
    // what a per-level recount would give, on any schedule.
    let degree = |v: &u32| graph.degree(*v as usize) as u64;
    let mut m_f: u64 = ws.active.iter().map(degree).sum();
    let mut m_u: u64 = graph.num_arcs() as u64
        - ws.active
            .iter()
            .filter(|&&v| ws.reached[v as usize] == wave_mask)
            .map(degree)
            .sum::<u64>();

    while !ws.active.is_empty() {
        let cur = &ws.cur;
        direction = policy.choose(direction, m_f, m_u, ws.active.len() as u64, n as u64);
        let chunks = ws.active.len().div_ceil(CHUNK);

        if direction == Direction::TopDown {
            // --- expand --------------------------------------------------
            if ws.candidates.len() < chunks {
                ws.candidates.resize_with(chunks, Vec::new);
            }
            let reached = &ws.reached;
            // hot-path
            // Per-edge work of the expand phase: one reached-word load and
            // at most one push onto the chunk's own recycled list. Reads
            // only; allocation-free by construction.
            edges += ws
                .active
                .par_chunks(CHUNK)
                .zip(ws.candidates[..chunks].par_iter_mut())
                .with_min_len(grain::min_len(chunks, m_f))
                .map(|(chunk, list)| {
                    list.clear();
                    let mut local_edges = 0u64;
                    for &v in chunk {
                        let fv = cur[v as usize];
                        for &w in graph.neighbours(v as usize) {
                            local_edges += 1;
                            let new = fv & !reached[w as usize];
                            if new != 0 {
                                list.push((w, new));
                            }
                        }
                    }
                    local_edges
                })
                .sum::<u64>();
            // end-hot-path

            // --- claim ---------------------------------------------------
            // hot-path
            // One pass in chunk order ORs the candidates into `next`; a
            // vertex's first claim (its `next` word was zero) flags it in
            // `touched`. Bitwise OR is order-free, so `next` and `touched`
            // are the same on any pool.
            for list in &ws.candidates[..chunks] {
                for &(w, new) in list {
                    let old = ws.next[w as usize];
                    ws.next[w as usize] = old | new;
                    if old == 0 {
                        ws.touched.set(w as usize);
                    }
                }
            }
            // end-hot-path

            // --- settle --------------------------------------------------
            // Fixed vertex-range tasks (pure function of n), so the merged
            // next frontier and every parent store are schedule-independent.
            // A task walks (and clears) its own words of `touched`, so the
            // level reads n/64 words plus what the frontier reached.
            ws.settled
                .par_iter_mut()
                .zip(ws.reached.par_chunks_mut(SETTLE_TASK))
                .zip(ws.next.par_chunks(SETTLE_TASK))
                .zip(ws.touched.words_mut().par_chunks_mut(SETTLE_TASK_WORDS))
                .zip(pieces.par_chunks_mut(lanes))
                .with_min_len(grain::min_len(num_tasks, num_words as u64 + m_f))
                .enumerate()
                .for_each(|(task, ((((out, reached), next), touched), parents))| {
                    let start = task * SETTLE_TASK;
                    out.reset();
                    // hot-path
                    // Each claimed vertex scans its sorted adjacency
                    // ascending and takes, per lane, the first frontier
                    // neighbour — the minimum, i.e. the reference parent.
                    // The task owns every word it writes; pushes go onto
                    // its own recycled list.
                    for (wi, t) in touched.iter_mut().enumerate() {
                        let mut word = *t;
                        if word == 0 {
                            continue;
                        }
                        *t = 0;
                        while word != 0 {
                            let i = wi * 64 + word.trailing_zeros() as usize;
                            word &= word - 1;
                            let new = next[i];
                            let mut pending = new;
                            for &u in graph.neighbours(start + i) {
                                out.edges += 1;
                                let hit = cur[u as usize] & pending;
                                if hit != 0 {
                                    out.adopt(parents, i, u, hit);
                                    pending &= !hit;
                                    if pending == 0 {
                                        break;
                                    }
                                }
                            }
                            debug_assert_eq!(
                                pending, 0,
                                "every claimed lane has a frontier neighbour"
                            );
                            out.queue(graph, &mut reached[i], wave_mask, start + i, new);
                        }
                    }
                    // end-hot-path
                });
        } else {
            // --- bottom-up -----------------------------------------------
            // One fused claim+settle pass: each owner task scans its
            // missing vertices' sorted adjacency ascending, so the first
            // frontier neighbour per lane is again the minimum — the same
            // parent the top-down settle elects. Early exit once every
            // missing lane is served makes the dense bulge cheap, exactly
            // like the scalar bottom-up of [`crate::par`].
            ws.settled
                .par_iter_mut()
                .zip(ws.reached.par_chunks_mut(SETTLE_TASK))
                .zip(ws.next.par_chunks_mut(SETTLE_TASK))
                .zip(pieces.par_chunks_mut(lanes))
                .enumerate()
                .for_each(|(task, (((out, reached), next), parents))| {
                    let start = task * SETTLE_TASK;
                    out.reset();
                    // hot-path
                    // Owner-exclusive claim + settle: plain stores into the
                    // task's own reached/next/parent words and pushes onto
                    // its own recycled list.
                    for (i, (seen, claimed)) in reached.iter_mut().zip(next.iter_mut()).enumerate()
                    {
                        let mut pending = wave_mask & !*seen;
                        if pending == 0 {
                            continue;
                        }
                        let mut found = 0u64;
                        for &u in graph.neighbours(start + i) {
                            out.edges += 1;
                            let hit = cur[u as usize] & pending;
                            if hit != 0 {
                                out.adopt(parents, i, u, hit);
                                found |= hit;
                                pending &= !hit;
                                if pending == 0 {
                                    break;
                                }
                            }
                        }
                        if found != 0 {
                            *claimed = found;
                            out.queue(graph, seen, wave_mask, start + i, found);
                        }
                    }
                    // end-hot-path
                });
        }

        // --- level tail --------------------------------------------------
        let mut level_counts = [0u64; MAX_LANES];
        m_f = 0;
        for out in &ws.settled {
            for (total, c) in level_counts.iter_mut().zip(out.counts.iter()) {
                *total += c;
            }
            edges += out.edges;
            m_f += out.frontier_degree;
            m_u -= out.completed_degree;
        }

        // Retire the old frontier by owner range: the active list is
        // ascending, so each task's share of it is one `partition_point`
        // away. Then promote the claims and rebuild the active list in task
        // order (ascending vertex ids).
        let active = &ws.active;
        ws.cur
            .par_chunks_mut(SETTLE_TASK)
            .with_min_len(grain::min_len(num_tasks, active.len() as u64))
            .enumerate()
            .for_each(|(task, words)| {
                let start = task * SETTLE_TASK;
                let lo = active.partition_point(|&v| (v as usize) < start);
                let hi = active.partition_point(|&v| (v as usize) < start + words.len());
                for &v in &active[lo..hi] {
                    words[v as usize - start] = 0;
                }
            });
        ws.active.clear();
        for out in &ws.settled {
            ws.active.extend_from_slice(&out.list);
        }
        std::mem::swap(&mut ws.cur, &mut ws.next);

        let mut rec = recording;
        while rec != 0 {
            let lane = rec.trailing_zeros() as usize;
            rec &= rec - 1;
            lane_levels[lane].push(level_counts[lane]);
            if level_counts[lane] == 0 {
                recording &= !(1u64 << lane);
            }
        }
        wave_levels += 1;
    }

    let lanes_out: Vec<LaneAnswer> = roots
        .iter()
        .zip(parents)
        .zip(lane_levels)
        .map(|((&root, parent), level_discovered)| LaneAnswer {
            root,
            visited: 1 + level_discovered.iter().sum::<u64>(),
            parent,
            level_discovered,
        })
        .collect();
    MultiSourceRun {
        lanes: lanes_out,
        wave_levels,
        edges_scanned: edges,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::direction::SwitchPolicy;
    use crate::par::bfs_hybrid_parallel;
    use crate::seq::bfs_top_down;
    use nbfs_graph::validate::validate_bfs_tree;
    use nbfs_graph::GraphBuilder;

    fn graph() -> Csr {
        GraphBuilder::rmat(12, 16).seed(23).build()
    }

    /// The serial top-down run from `root`, as a lane's answer.
    fn oracle(g: &Csr, root: usize) -> LaneAnswer {
        LaneAnswer::from_run(root, bfs_top_down(g, root))
    }

    fn sample_roots(g: &Csr, count: usize, seed: u64) -> Vec<usize> {
        let mut rng = nbfs_util::rng::Xoroshiro128::new(seed);
        let mut roots = Vec::new();
        while roots.len() < count {
            let v = rng.next_below(g.num_vertices() as u64) as usize;
            if g.degree(v) > 0 {
                roots.push(v);
            }
        }
        roots
    }

    #[test]
    fn every_lane_matches_the_scalar_reference() {
        let g = graph();
        let roots = sample_roots(&g, 17, 7);
        let run = multi_source_bfs(&g, &roots);
        assert_eq!(run.lanes.len(), roots.len());
        for (lane, &root) in roots.iter().enumerate() {
            assert_eq!(run.lanes[lane], oracle(&g, root), "lane {lane} root {root}");
        }
    }

    #[test]
    fn lanes_match_the_parallel_reference_kernel() {
        let g = graph();
        let roots = sample_roots(&g, 9, 11);
        let run = multi_source_bfs(&g, &roots);
        for (lane, &root) in roots.iter().enumerate() {
            let par = bfs_hybrid_parallel(&g, root, SwitchPolicy::default());
            assert_eq!(run.lanes[lane].visited, par.visited() as u64);
            assert_eq!(
                run.lanes[lane],
                LaneAnswer::from_run(root, par),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn every_lane_validates_as_a_bfs_tree() {
        let g = graph();
        let roots = sample_roots(&g, MAX_LANES, 3);
        let run = multi_source_bfs(&g, &roots);
        for answer in &run.lanes {
            let visited = validate_bfs_tree(&g, answer.root, &answer.parent)
                .unwrap_or_else(|e| panic!("root {}: {e}", answer.root));
            assert_eq!(visited as u64, answer.visited);
        }
    }

    #[test]
    fn duplicate_roots_share_a_lane_answer() {
        let g = graph();
        let r = sample_roots(&g, 1, 5)[0];
        let run = multi_source_bfs(&g, &[r, r, r]);
        assert_eq!(run.lanes[0], run.lanes[1]);
        assert_eq!(run.lanes[1], run.lanes[2]);
        assert_eq!(run.lanes[0], oracle(&g, r));
    }

    #[test]
    fn isolated_root_terminates_with_one_empty_level() {
        let g = graph();
        let isolated = (0..g.num_vertices()).find(|&v| g.degree(v) == 0).unwrap();
        let connected = sample_roots(&g, 1, 9)[0];
        let run = multi_source_bfs(&g, &[isolated, connected]);
        assert_eq!(run.lanes[0].visited, 1);
        assert_eq!(run.lanes[0].level_discovered, vec![0]);
        assert_eq!(run.lanes[0], oracle(&g, isolated));
        assert!(run.lanes[1].visited > 1);
    }

    #[test]
    fn results_are_bit_identical_across_thread_pools_and_workspace_reuse() {
        let g = graph();
        let roots = sample_roots(&g, 13, 21);
        let baseline = multi_source_bfs(&g, &roots);
        let mut ws = MultiWorkspace::new();
        for threads in [1usize, 3, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run = pool.install(|| multi_source_bfs_in(&g, &roots, &mut ws));
            for (lane, answer) in run.lanes.iter().enumerate() {
                assert_eq!(answer, &baseline.lanes[lane], "threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fuses 1..=")]
    fn rejects_oversized_waves() {
        let g = GraphBuilder::rmat(8, 8).seed(1).build();
        let roots = vec![0usize; MAX_LANES + 1];
        multi_source_bfs(&g, &roots);
    }
}

//! Parallel shared-memory hybrid BFS — the "OpenMP inside the rank" half
//! of the paper's MPI/OpenMP programming model, as real thread parallelism.
//!
//! The distributed engine models intra-rank parallelism as a core count in
//! the cost model (keeping simulated time deterministic); this module is
//! the *actual* multithreaded kernel a rank would run: rayon workers share
//! [`AtomicBitmap`] frontier queues and claim parents with a fixed rule,
//! exactly the intra-node scheme of Beamer et al. \[9\] that the paper
//! adopts ("8 MPI processes, each of 8 OMP threads").
//!
//! The claim rule makes the whole run schedule-independent: top-down
//! workers race with `fetch_min`, so the *minimum* frontier neighbour wins
//! no matter the interleaving, and the bottom-up scan breaks at the first
//! set in-queue bit of the sorted adjacency list — the same minimum. The
//! resulting parent array is therefore bit-identical across thread pools
//! (and across direction schedules), which the tests pin. Parents may
//! still differ from the sequential engines, whose rule is
//! first-frontier-vertex-in-queue-order; both are valid BFS parents.
//!
//! Frontiers flow through an alloc-free pipeline shared with the
//! distributed engine's kernels: discoveries land as bits in an atomic
//! out-queue, the visited words absorb them with one `fetch_or_word` per
//! word, and the next queue is rebuilt ascending through a recycled
//! [`FrontierArena`] — no per-chunk `Vec::new` in any hot path.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use rayon::prelude::*;

use nbfs_graph::{vid, Csr, NO_PARENT};
use nbfs_util::{AtomicBitmap, FrontierArena, FrontierSlot};

use crate::direction::{Direction, SwitchPolicy};
use crate::grain;
use crate::seq::{LevelTrace, SeqBfs};

/// Chunk of vertices processed per work-stealing task.
const CHUNK: usize = 1024;

/// Words of the visited bitmap per bottom-up task (4096 vertices) — the
/// same fixed, thread-count-independent chunking as the distributed
/// engine's kernel.
const BU_TASK_WORDS: usize = 64;

/// Runs the hybrid BFS from `root` using the current rayon thread pool.
pub fn bfs_hybrid_parallel(graph: &Csr, root: usize, policy: SwitchPolicy) -> SeqBfs {
    let n = graph.num_vertices();
    assert!(root < n, "root out of range");
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect();
    parent[root].store(vid::to_stored(root), Ordering::Relaxed);

    let mut frontier: Vec<u32> = vec![vid::to_stored(root)];
    let mut in_queue = AtomicBitmap::new(n);
    in_queue.set(root);
    // Discoveries of the running level; swapped into `in_queue` at the
    // level tail, so neither bitmap is ever re-derived from scratch.
    let mut out_queue = AtomicBitmap::new(n);
    // Visited words let bottom-up workers skip 64 explored vertices with a
    // single load; the kernels keep them incrementally updated (one
    // `fetch_or_word` per word at each level tail), so scans see a stable
    // view and no level rebuilds the bitmap from the queue.
    let visited = AtomicBitmap::new(n);
    visited.set(root);
    // Alloc-free next-queue pipeline: per-task slots carved from one
    // recycled arena, merged in task order (ascending vertex ids).
    let mut next_arena: FrontierArena<u32> = FrontierArena::new();
    let mut caps: Vec<usize> = Vec::new();
    let num_words = visited.word_len();
    let num_tasks = num_words.div_ceil(BU_TASK_WORDS);

    // Arcs out of the frontier and arcs incident to unvisited vertices:
    // running values, both moved by the degree sum the level tail takes of
    // the vertices it queues.
    let mut m_f = graph.degree(root) as u64;
    let total_degree: u64 = (0..n).map(|v| graph.degree(v) as u64).sum();
    let mut m_u = total_degree - m_f;
    let mut direction = Direction::TopDown;
    let mut levels = Vec::new();

    loop {
        let n_f = frontier.len() as u64;
        if n_f == 0 {
            break;
        }
        direction = policy.choose(direction, m_f, m_u, n_f, n as u64);

        let edges = AtomicU64::new(0);
        match direction {
            Direction::TopDown => {
                // Workers expand disjoint frontier chunks. The claim is
                // `fetch_min` on the parent word: NO_PARENT is u32::MAX,
                // so after the level every discovered vertex holds its
                // *minimum* frontier neighbour — independent of worker
                // count and interleaving. Discoveries are bits in the
                // atomic out-queue (idempotent), not per-chunk Vecs.
                let out = &out_queue;
                let vis = &visited;
                // hot-path
                // Per-edge work of the top-down direction: one visited
                // probe, at most one fetch_min + bitmap OR. Allocation-free
                // by construction (checked by `tests/hot_path_alloc.rs`).
                frontier.par_chunks(CHUNK).for_each(|chunk| {
                    let mut local_edges = 0u64;
                    for &u in chunk {
                        for &v in graph.neighbours(u as usize) {
                            local_edges += 1;
                            if !vis.get(v as usize) {
                                parent[v as usize].fetch_min(u, Ordering::Relaxed);
                                out.set(v as usize);
                            }
                        }
                    }
                    edges.fetch_add(local_edges, Ordering::Relaxed);
                });
                // end-hot-path
            }
            Direction::BottomUp => {
                // Workers scan disjoint word-aligned unvisited ranges; each
                // vertex is touched by exactly one worker, so a plain store
                // suffices. The scan walks zero words of `visited` and
                // serves in_queue probes from a cached word — consecutive
                // sorted neighbours rarely leave it. Adjacency lists are
                // sorted ascending, so the break lands on the *minimum*
                // frontier neighbour: the same parent the top-down
                // `fetch_min` rule would pick.
                let in_q = &in_queue;
                let out = &out_queue;
                let vis = &visited;
                let tail = n % 64;
                // hot-path
                // Word-level bottom-up scan; discoveries accumulate in one
                // local word per visited-word and land with a single
                // fetch_or_word (task ranges are disjoint, so the RMW never
                // contends). No heap allocation on any path.
                (0..num_tasks).into_par_iter().for_each(|task| {
                    let w_start = task * BU_TASK_WORDS;
                    let w_end = ((task + 1) * BU_TASK_WORDS).min(num_words);
                    let mut local_edges = 0u64;
                    let mut cached_wi = usize::MAX;
                    let mut cached_word = 0u64;
                    for wi in w_start..w_end {
                        let mask = if tail != 0 && wi + 1 == num_words {
                            (1u64 << tail) - 1
                        } else {
                            u64::MAX
                        };
                        let mut pending = !vis.load_word(wi) & mask;
                        let mut found = 0u64;
                        while pending != 0 {
                            let bit = pending.trailing_zeros() as usize;
                            pending &= pending - 1;
                            let v = wi * 64 + bit;
                            for &u in graph.neighbours(v) {
                                local_edges += 1;
                                let uw = u as usize / 64;
                                if uw != cached_wi {
                                    cached_wi = uw;
                                    cached_word = in_q.load_word(uw);
                                }
                                if (cached_word >> (u as usize % 64)) & 1 == 1 {
                                    parent[v].store(u, Ordering::Relaxed);
                                    found |= 1u64 << bit;
                                    break;
                                }
                            }
                        }
                        if found != 0 {
                            out.fetch_or_word(wi, found);
                        }
                    }
                    edges.fetch_add(local_edges, Ordering::Relaxed);
                });
                // end-hot-path
            }
        }

        // --- level tail: alloc-free frontier pipeline --------------------
        // Fold the level's discoveries into the visited words (one
        // fetch_or_word per word — the bitmap is never re-derived) and
        // rebuild the next queue ascending through the recycled arena.
        // Task boundaries are a pure function of the vertex count, so the
        // merged queue is bit-identical across thread pools. A task costs
        // its words plus its discoveries, so a sparse level's rebuild runs
        // inline (see `grain`).
        caps.clear();
        caps.extend((0..num_tasks).map(|task| {
            let w_start = task * BU_TASK_WORDS;
            let w_end = ((task + 1) * BU_TASK_WORDS).min(num_words);
            (w_start..w_end)
                .map(|wi| out_queue.load_word(wi).count_ones() as usize)
                .sum::<usize>()
        }));
        let out = &out_queue;
        let vis = &visited;
        let tail_ops = (num_words + caps.iter().sum::<usize>()) as u64;
        let filled: Vec<(FrontierSlot<'_, u32>, u64)> = next_arena
            .begin(&caps)
            .into_par_iter()
            .with_min_len(grain::min_len(num_tasks, tail_ops))
            .enumerate()
            .map(|(task, mut slot)| {
                let w_start = task * BU_TASK_WORDS;
                let w_end = ((task + 1) * BU_TASK_WORDS).min(num_words);
                let mut degree = 0u64;
                for wi in w_start..w_end {
                    let word = out.load_word(wi);
                    if word == 0 {
                        continue;
                    }
                    vis.fetch_or_word(wi, word);
                    let mut w = word;
                    while w != 0 {
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        slot.push(vid::to_stored(wi * 64 + bit));
                        degree += graph.degree(wi * 64 + bit) as u64;
                    }
                }
                (slot, degree)
            })
            .collect();
        frontier.clear();
        frontier.reserve(filled.iter().map(|(slot, _)| slot.len()).sum());
        m_f = 0;
        for (slot, degree) in &filled {
            frontier.extend_from_slice(slot.as_slice());
            m_f += degree;
        }
        drop(filled);
        m_u -= m_f;
        // The out bitmap becomes the next level's in-queue; the old
        // in-queue is recycled as the new (cleared) out bitmap.
        std::mem::swap(&mut in_queue, &mut out_queue);
        out_queue.clear_all();

        levels.push(LevelTrace {
            direction,
            discovered: frontier.len() as u64,
            edges_examined: edges.load(Ordering::Relaxed),
        });
    }

    SeqBfs {
        parent: parent.into_iter().map(AtomicU32::into_inner).collect(),
        levels,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::seq;
    use nbfs_graph::validate::validate_bfs_tree;
    use nbfs_graph::GraphBuilder;

    fn graph() -> Csr {
        GraphBuilder::rmat(13, 16).seed(17).build()
    }

    #[test]
    fn parallel_tree_validates_and_matches_sequential_levels() {
        let g = graph();
        let root = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
        let par = bfs_hybrid_parallel(&g, root, SwitchPolicy::default());
        let visited = validate_bfs_tree(&g, root, &par.parent).expect("valid tree");
        let seq = seq::bfs_hybrid(&g, root, SwitchPolicy::default());
        assert_eq!(visited, seq.visited());
        // Same level structure: per-level discovery counts must agree
        // (parents may differ, depths may not).
        let pd: Vec<u64> = par.levels.iter().map(|l| l.discovered).collect();
        let sd: Vec<u64> = seq.levels.iter().map(|l| l.discovered).collect();
        assert_eq!(pd, sd);
    }

    /// Whether each vertex was reached.
    fn reached(run: &SeqBfs) -> Vec<bool> {
        run.parent.iter().map(|&p| p != NO_PARENT).collect()
    }

    #[test]
    fn parallel_visited_set_equals_sequential() {
        let g = graph();
        let par = bfs_hybrid_parallel(&g, 3, SwitchPolicy::default());
        let seq = seq::bfs_top_down(&g, 3);
        assert_eq!(reached(&par), reached(&seq));
    }

    #[test]
    fn single_thread_pool_gives_same_visited_set() {
        let g = graph();
        let root = 3;
        let multi = bfs_hybrid_parallel(&g, root, SwitchPolicy::default());
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let single = pool.install(|| bfs_hybrid_parallel(&g, root, SwitchPolicy::default()));
        assert_eq!(reached(&multi), reached(&single));
        assert_eq!(multi.levels.len(), single.levels.len());
    }

    #[test]
    fn parents_are_bit_identical_across_thread_pools() {
        // The fetch_min claim rule (and the sorted-adjacency break of the
        // bottom-up scan) pins every parent to the minimum frontier
        // neighbour, so the whole parent array — not just the visited set —
        // is schedule-independent.
        let g = graph();
        let root = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
        let multi = bfs_hybrid_parallel(&g, root, SwitchPolicy::default());
        for threads in [1usize, 3, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run = pool.install(|| bfs_hybrid_parallel(&g, root, SwitchPolicy::default()));
            assert_eq!(multi.parent, run.parent, "threads={threads}");
        }
    }

    #[test]
    fn pure_policies_work_in_parallel_too() {
        let g = graph();
        let root = 3;
        for policy in [
            SwitchPolicy::always_top_down(),
            SwitchPolicy::always_bottom_up(),
        ] {
            let run = bfs_hybrid_parallel(&g, root, policy);
            let visited = validate_bfs_tree(&g, root, &run.parent)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            assert_eq!(visited, g.component_of(root).len());
        }
    }

    #[test]
    fn isolated_root() {
        let g = graph();
        let isolated = (0..g.num_vertices()).find(|&v| g.degree(v) == 0).unwrap();
        let run = bfs_hybrid_parallel(&g, isolated, SwitchPolicy::default());
        assert_eq!(run.visited(), 1);
    }
}

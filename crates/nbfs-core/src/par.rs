//! Parallel shared-memory hybrid BFS — the "OpenMP inside the rank" half
//! of the paper's MPI/OpenMP programming model, as real thread parallelism.
//!
//! The distributed engine models intra-rank parallelism as a core count in
//! the cost model (keeping simulated time deterministic); this module is
//! the *actual* multithreaded kernel a rank would run: rayon workers split
//! every level into fixed tasks, exactly the intra-node scheme of Beamer
//! et al. \[9\] that the paper adopts ("8 MPI processes, each of 8 OMP
//! threads").
//!
//! Every word has one writer per phase (DESIGN.md §6), so no write is an
//! atomic read-modify-write. Top-down, each frontier chunk pushes the
//! `(v, u)` pairs of its unvisited neighbours into its own recycled
//! candidate list, and one pass applies the lists in chunk order, keeping
//! the *minimum* `u` per `v`. Bottom-up, each task owns a fixed range of
//! vertices with their parent, out-queue and visited words, and its scan
//! breaks at the first in-queue bit of the sorted adjacency list — the same
//! minimum. The parent array is therefore bit-identical across thread pools
//! (and across direction schedules) and equal to the sequential engines'
//! of [`crate::seq`], which the tests pin.
//!
//! Frontiers flow through an alloc-free pipeline: discoveries land as bits
//! in the out-queue, and the level tail folds each out word into its
//! visited word and pushes the task's discoveries onto its own recycled
//! list; the lists, concatenated in task order, are the next queue
//! (ascending) — no per-chunk `Vec::new` in any hot path.

use rayon::prelude::*;

use nbfs_graph::{vid, Csr, NO_PARENT};
use nbfs_util::Bitmap;

use crate::direction::{Direction, SwitchPolicy};
use crate::grain;
use crate::seq::{LevelTrace, SeqBfs};

/// Chunk of frontier vertices expanded per top-down task.
const CHUNK: usize = 1024;

/// Words of the visited bitmap per bottom-up or level-tail task — the same
/// fixed, thread-count-independent chunking as the distributed engine's
/// kernel.
const BU_TASK_WORDS: usize = 64;

/// Vertices per bottom-up or level-tail task.
const BU_TASK: usize = BU_TASK_WORDS * 64;

/// Runs the hybrid BFS from `root` using the current rayon thread pool.
pub fn bfs_hybrid_parallel(graph: &Csr, root: usize, policy: SwitchPolicy) -> SeqBfs {
    let n = graph.num_vertices();
    assert!(root < n, "root out of range");
    let mut parent = vec![NO_PARENT; n];
    parent[root] = vid::to_stored(root);

    let mut frontier: Vec<u32> = vec![vid::to_stored(root)];
    let mut in_queue = Bitmap::new(n);
    in_queue.set(root);
    // Discoveries of the running level; swapped into `in_queue` at the
    // level tail, so neither bitmap is ever re-derived from scratch.
    let mut out_queue = Bitmap::new(n);
    // Visited words let bottom-up workers skip 64 explored vertices with a
    // single load; the level tail ORs each out word into its visited word,
    // so scans see a stable view and no level rebuilds the bitmap.
    let mut visited = Bitmap::new(n);
    visited.set(root);
    // One `(vertex, parent)` candidate list per top-down chunk, recycled
    // across levels: a list holds at most its chunk's arcs.
    let mut candidates: Vec<Vec<(u32, u32)>> = Vec::new();
    let num_words = visited.word_len();
    let num_tasks = num_words.div_ceil(BU_TASK_WORDS);
    // One next-queue list and degree tally per level-tail task, recycled
    // across levels and concatenated in task order (ascending vertex ids).
    let mut tails: Vec<(Vec<u32>, u64)> = vec![(Vec::new(), 0); num_tasks];

    // Arcs out of the frontier and arcs incident to unvisited vertices:
    // running values, both moved by the degree sum the level tail takes of
    // the vertices it queues.
    let mut m_f = graph.degree(root) as u64;
    let mut m_u = graph.num_arcs() as u64 - m_f;
    let mut direction = Direction::TopDown;
    let mut levels = Vec::new();

    loop {
        let n_f = frontier.len() as u64;
        if n_f == 0 {
            break;
        }
        direction = policy.choose(direction, m_f, m_u, n_f, n as u64);

        let edges: u64 = match direction {
            Direction::TopDown => {
                let chunks = frontier.len().div_ceil(CHUNK);
                if candidates.len() < chunks {
                    candidates.resize_with(chunks, Vec::new);
                }
                let vis = &visited;
                // hot-path
                // Per-edge work of the top-down direction: one visited
                // probe, at most one push onto the chunk's own recycled
                // list. Reads only; no shared word is written.
                let edges = frontier
                    .par_chunks(CHUNK)
                    .zip(candidates[..chunks].par_iter_mut())
                    .map(|(chunk, list)| {
                        list.clear();
                        let mut local_edges = 0u64;
                        for &u in chunk {
                            for &v in graph.neighbours(u as usize) {
                                local_edges += 1;
                                if !vis.get(v as usize) {
                                    list.push((v, u));
                                }
                            }
                        }
                        local_edges
                    })
                    .sum();
                // end-hot-path
                // hot-path
                // Apply the lists in chunk order under the min rule:
                // NO_PARENT is u32::MAX, so every discovered vertex ends
                // the level holding its *minimum* frontier neighbour,
                // whatever the pool.
                for list in &candidates[..chunks] {
                    for &(v, u) in list {
                        let p = &mut parent[v as usize];
                        if u < *p {
                            *p = u;
                            out_queue.set(v as usize);
                        }
                    }
                }
                // end-hot-path
                edges
            }
            Direction::BottomUp => {
                // Each task owns a word-aligned range of vertices: their
                // parents, their out words and (read-only) their visited
                // words. The scan walks zero words of `visited` and serves
                // in_queue probes from a cached word — consecutive sorted
                // neighbours rarely leave it. Adjacency lists are sorted
                // ascending, so the break lands on the *minimum* frontier
                // neighbour: the same parent the top-down apply keeps.
                let in_words = in_queue.words();
                let tail = n % 64;
                // hot-path
                // Word-level bottom-up scan; discoveries accumulate in one
                // local word per visited word and land with one plain store
                // into the task's own out word. No heap allocation on any
                // path.
                parent
                    .par_chunks_mut(BU_TASK)
                    .zip(out_queue.words_mut().par_chunks_mut(BU_TASK_WORDS))
                    .zip(visited.words().par_chunks(BU_TASK_WORDS))
                    .enumerate()
                    .map(|(task, ((parents, out), vis))| {
                        let w_start = task * BU_TASK_WORDS;
                        let mut local_edges = 0u64;
                        let mut cached_wi = usize::MAX;
                        let mut cached_word = 0u64;
                        for (i, (out_word, &vis_word)) in out.iter_mut().zip(vis).enumerate() {
                            let wi = w_start + i;
                            let mask = if tail != 0 && wi + 1 == num_words {
                                (1u64 << tail) - 1
                            } else {
                                u64::MAX
                            };
                            let mut pending = !vis_word & mask;
                            let mut found = 0u64;
                            while pending != 0 {
                                let bit = pending.trailing_zeros() as usize;
                                pending &= pending - 1;
                                for &u in graph.neighbours(wi * 64 + bit) {
                                    local_edges += 1;
                                    let uw = u as usize / 64;
                                    if uw != cached_wi {
                                        cached_wi = uw;
                                        cached_word = in_words[uw];
                                    }
                                    if (cached_word >> (u as usize % 64)) & 1 == 1 {
                                        parents[i * 64 + bit] = u;
                                        found |= 1u64 << bit;
                                        break;
                                    }
                                }
                            }
                            if found != 0 {
                                *out_word = found;
                            }
                        }
                        local_edges
                    })
                    .sum()
                // end-hot-path
            }
        };

        // --- level tail: alloc-free frontier pipeline --------------------
        // Fold the level's discoveries into the visited words (each task
        // owns its words — the bitmap is never re-derived) and push them
        // onto the task's own recycled list. Task boundaries are a pure
        // function of the vertex count, so the concatenated queue is
        // bit-identical across thread pools. A task costs its words plus
        // its discoveries, at most the arcs the level examined, so a
        // sparse level's rebuild runs inline (see `grain`).
        let tail_ops = num_words as u64 + edges;
        // hot-path
        // One word walk and at most one push per discovery onto the task's
        // own recycled list.
        tails
            .par_iter_mut()
            .zip(visited.words_mut().par_chunks_mut(BU_TASK_WORDS))
            .zip(out_queue.words().par_chunks(BU_TASK_WORDS))
            .with_min_len(grain::min_len(num_tasks, tail_ops))
            .enumerate()
            .for_each(|(task, (((list, degree), vis), out))| {
                let w_start = task * BU_TASK_WORDS;
                list.clear();
                *degree = 0;
                for (i, (vis_word, &word)) in vis.iter_mut().zip(out).enumerate() {
                    if word == 0 {
                        continue;
                    }
                    *vis_word |= word;
                    let mut w = word;
                    while w != 0 {
                        let v = (w_start + i) * 64 + w.trailing_zeros() as usize;
                        w &= w - 1;
                        list.push(vid::to_stored(v));
                        *degree += graph.degree(v) as u64;
                    }
                }
            });
        frontier.clear();
        m_f = 0;
        for (list, degree) in &tails {
            frontier.extend_from_slice(list);
            m_f += degree;
        }
        // end-hot-path
        m_u -= m_f;
        // The out bitmap becomes the next level's in-queue; the old
        // in-queue is recycled as the new (cleared) out bitmap.
        std::mem::swap(&mut in_queue, &mut out_queue);
        out_queue.clear_all();

        levels.push(LevelTrace {
            direction,
            discovered: frontier.len() as u64,
            edges_examined: edges,
        });
    }

    SeqBfs { parent, levels }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::multi::LaneAnswer;
    use crate::seq;
    use nbfs_graph::validate::validate_bfs_tree;
    use nbfs_graph::{GraphBuilder, GraphView};

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
        // Both elect the minimum frontier neighbour, so the trees agree
        // word for word under any direction schedule, and so do the
        // per-level discovery counts.
        assert_eq!(par.parent, seq.parent);
        let top_down = seq::bfs_hybrid(&g, root, SwitchPolicy::always_top_down());
        assert_eq!(par.parent, top_down.parent);
        let pd: Vec<u64> = par.levels.iter().map(|l| l.discovered).collect();
        let sd: Vec<u64> = seq.levels.iter().map(|l| l.discovered).collect();
        assert_eq!(pd, sd);
    }

    #[test]
    fn parents_are_bit_identical_across_thread_pools() {
        // The min rule of the top-down apply (and the sorted-adjacency
        // break of the bottom-up scan) pins every parent to the minimum
        // frontier neighbour, so under every policy the whole parent array
        // — not just the visited set — and the level counts equal
        // `seq::bfs_top_down`'s on any pool. The pure policies keep every
        // level in one direction, so the multi-chunk top-down apply and the
        // bottom-up tasks are each held to it alone.
        let g = graph();
        let hub = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
        for root in [hub, 3] {
            let reference = LaneAnswer::from_run(root, seq::bfs_top_down(&g, root));
            for policy in [
                SwitchPolicy::default(),
                SwitchPolicy::always_top_down(),
                SwitchPolicy::always_bottom_up(),
            ] {
                for threads in [1usize, 3, 7] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let run = pool.install(|| bfs_hybrid_parallel(&g, root, policy));
                    assert_eq!(
                        LaneAnswer::from_run(root, run),
                        reference,
                        "root {root} {policy:?} threads={threads}"
                    );
                }
            }
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

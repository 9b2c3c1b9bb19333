//! Single-address-space BFS engines: top-down and the Beamer hybrid.
//!
//! These are the algorithmic baselines of Section II.A; pure bottom-up is
//! the hybrid under [`SwitchPolicy::always_bottom_up`]. They operate on one
//! [`Csr`] without any distribution. [`bfs_top_down`] is the serial oracle
//! every parallel and distributed engine's parents are compared with (as a
//! [`crate::multi::LaneAnswer::from_run`] where a suite compares whole
//! answers). [`bfs_hybrid`] is the serial baseline of the host-clock
//! benchmark and, with its forced policies, the edges-examined comparison
//! behind the paper's "hybrid is 27.3× faster than top-down, 4.7× than
//! bottom-up" observation (the hybrid's advantage is precisely that it
//! examines far fewer edges).
//!
//! Every engine here elects a vertex's **minimum** frontier neighbour as its
//! parent, the rule of [`crate::par`] and [`crate::multi`]: a top-down level
//! leaves its next frontier ascending, so the first discoverer of a vertex
//! is its smallest frontier neighbour, and a bottom-up level scans sorted
//! rows and stops at the first hit.

use nbfs_graph::{vid, Csr, NO_PARENT};
use nbfs_util::{Bitmap, WORD_BITS};

use crate::direction::{Direction, SwitchPolicy};

/// Per-level trace of a sequential BFS run.
#[derive(Clone, Debug)]
pub struct LevelTrace {
    /// Direction used for the level.
    pub direction: Direction,
    /// Vertices discovered this level.
    pub discovered: u64,
    /// Edges examined this level (adjacency entries touched).
    pub edges_examined: u64,
}

/// Result of a sequential BFS.
#[derive(Clone, Debug)]
pub struct SeqBfs {
    /// Parent array (`NO_PARENT` = unvisited; the root is its own parent).
    pub parent: Vec<u32>,
    /// Per-level trace.
    pub levels: Vec<LevelTrace>,
}

impl SeqBfs {
    /// Vertices visited (including the root).
    pub fn visited(&self) -> usize {
        self.parent.iter().filter(|&&p| p != NO_PARENT).count()
    }

    /// Total edges examined across all levels — the work metric behind the
    /// Section II.A algorithm comparison.
    pub fn edges_examined(&self) -> u64 {
        self.levels.iter().map(|l| l.edges_examined).sum()
    }
}

/// Classic queue-based top-down BFS, its queue kept ascending.
pub fn bfs_top_down(graph: &Csr, root: usize) -> SeqBfs {
    let n = graph.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    parent[root] = vid::to_stored(root);
    let mut frontier = vec![vid::to_stored(root)];
    let mut levels = Vec::new();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        let mut edges = 0u64;
        for &u in &frontier {
            for &v in graph.neighbours(u as usize) {
                edges += 1;
                if parent[v as usize] == NO_PARENT {
                    parent[v as usize] = u;
                    next.push(v);
                }
            }
        }
        next.sort_unstable();
        levels.push(LevelTrace {
            direction: Direction::TopDown,
            discovered: next.len() as u64,
            edges_examined: edges,
        });
        frontier = next;
    }
    SeqBfs { parent, levels }
}

/// The hybrid BFS of Beamer et al. \[9\]: per-level direction choice by
/// [`SwitchPolicy`], frontier kept as both queue and bitmap.
pub fn bfs_hybrid(graph: &Csr, root: usize, policy: SwitchPolicy) -> SeqBfs {
    let n = graph.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    parent[root] = vid::to_stored(root);
    let mut visited = Bitmap::new(n);
    visited.set(root);
    let mut frontier: Vec<u32> = vec![vid::to_stored(root)];
    // The next-queue is recycled across levels (clear + swap keeps the
    // allocation), the same alloc-free frontier discipline as the parallel
    // kernels, and leaves every level ascending.
    let mut next: Vec<u32> = Vec::new();
    let mut in_queue = Bitmap::new(n);
    in_queue.set(root);
    let mut m_u = graph.num_arcs() as u64 - graph.degree(root) as u64;
    let mut direction = Direction::TopDown;
    let mut levels = Vec::new();

    loop {
        let m_f: u64 = frontier
            .iter()
            .map(|&u| graph.degree(u as usize) as u64)
            .sum();
        let n_f = frontier.len() as u64;
        if n_f == 0 {
            break;
        }
        direction = policy.choose(direction, m_f, m_u, n_f, n as u64);

        next.clear();
        let mut edges = 0u64;
        match direction {
            Direction::TopDown => {
                for &u in &frontier {
                    for &v in graph.neighbours(u as usize) {
                        edges += 1;
                        if parent[v as usize] == NO_PARENT {
                            parent[v as usize] = u;
                            next.push(v);
                        }
                    }
                }
                next.sort_unstable();
            }
            Direction::BottomUp => {
                // Word-level unvisited scan serving in_queue probes from a
                // cached word, the reads of the parallel kernel.
                let in_words = in_queue.words();
                let vis_words = visited.words();
                let tail = n % WORD_BITS;
                let mut cached_wi = usize::MAX;
                let mut cached_word = 0u64;
                for (wi, &vis_word) in vis_words.iter().enumerate() {
                    let mask = if tail != 0 && wi + 1 == vis_words.len() {
                        (1u64 << tail) - 1
                    } else {
                        u64::MAX
                    };
                    let mut pending = !vis_word & mask;
                    while pending != 0 {
                        let v = wi * WORD_BITS + pending.trailing_zeros() as usize;
                        pending &= pending - 1;
                        for &u in graph.neighbours(v) {
                            edges += 1;
                            let uw = u as usize / WORD_BITS;
                            if uw != cached_wi {
                                cached_wi = uw;
                                cached_word = in_words[uw];
                            }
                            if (cached_word >> (u as usize % WORD_BITS)) & 1 == 1 {
                                parent[v] = u;
                                next.push(vid::to_stored(v));
                                break;
                            }
                        }
                    }
                }
            }
        }

        m_u -= next
            .iter()
            .map(|&v| graph.degree(v as usize) as u64)
            .sum::<u64>();
        in_queue.clear_all();
        for &v in &next {
            visited.set(v as usize);
            in_queue.set(v as usize);
        }
        levels.push(LevelTrace {
            direction,
            discovered: next.len() as u64,
            edges_examined: edges,
        });
        std::mem::swap(&mut frontier, &mut next);
    }
    SeqBfs { parent, levels }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_graph::validate::validate_bfs_tree;
    use nbfs_graph::{GraphBuilder, GraphView};

    fn graph() -> Csr {
        GraphBuilder::rmat(12, 16).seed(7).build()
    }

    #[test]
    fn all_engines_produce_valid_trees() {
        let g = graph();
        for root in [0usize, 17, 1000] {
            if g.degree(root) == 0 {
                continue;
            }
            for (name, run) in [
                ("top-down", bfs_top_down(&g, root)),
                (
                    "bottom-up",
                    bfs_hybrid(&g, root, SwitchPolicy::always_bottom_up()),
                ),
                ("hybrid", bfs_hybrid(&g, root, SwitchPolicy::default())),
            ] {
                let visited = validate_bfs_tree(&g, root, &run.parent)
                    .unwrap_or_else(|e| panic!("{name} root {root}: {e}"));
                assert_eq!(visited, run.visited(), "{name}");
                assert_eq!(visited, g.component_of(root).len(), "{name}");
            }
        }
    }

    #[test]
    fn hybrid_examines_fewest_edges() {
        // The Section II.A argument: the hybrid's advantage is a massive
        // reduction in examined edges on scale-free graphs.
        let g = graph();
        let root = 3;
        let td = bfs_top_down(&g, root).edges_examined();
        let bu = bfs_hybrid(&g, root, SwitchPolicy::always_bottom_up()).edges_examined();
        let hy = bfs_hybrid(&g, root, SwitchPolicy::default()).edges_examined();
        assert!(hy < td, "hybrid {hy} must beat top-down {td}");
        assert!(hy < bu, "hybrid {hy} must beat bottom-up {bu}");
        assert!(
            td as f64 / hy as f64 > 2.0,
            "hybrid should examine several times fewer edges than top-down"
        );
    }

    #[test]
    fn hybrid_uses_three_phases_on_rmat() {
        // "first top-down, then bottom-up, and finally top-down".
        let g = graph();
        let hy = bfs_hybrid(&g, 3, SwitchPolicy::default());
        let dirs: Vec<Direction> = hy.levels.iter().map(|l| l.direction).collect();
        assert_eq!(dirs.first(), Some(&Direction::TopDown), "{dirs:?}");
        assert!(
            dirs.contains(&Direction::BottomUp),
            "R-MAT bulge must trigger bottom-up: {dirs:?}"
        );
        // No BU -> TD -> BU oscillation.
        let mut phases = 1;
        for w in dirs.windows(2) {
            if w[0] != w[1] {
                phases += 1;
            }
        }
        assert!(phases <= 3, "more than three phases: {dirs:?}");
    }

    #[test]
    fn forced_policies_reduce_to_pure_engines() {
        let g = graph();
        let root = 3;
        let pure_td = bfs_top_down(&g, root);
        let forced_td = bfs_hybrid(&g, root, SwitchPolicy::always_top_down());
        assert_eq!(pure_td.parent, forced_td.parent);
        // Bottom-up elects the same minimum frontier neighbours.
        let forced_bu = bfs_hybrid(&g, root, SwitchPolicy::always_bottom_up());
        assert_eq!(pure_td.parent, forced_bu.parent);
        // So does every switching schedule in between.
        let hybrid = bfs_hybrid(&g, root, SwitchPolicy::default());
        assert_eq!(pure_td.parent, hybrid.parent);
    }

    #[test]
    fn isolated_root_terminates_immediately() {
        let g = graph();
        let isolated = (0..g.num_vertices())
            .find(|&v| g.degree(v) == 0)
            .expect("R-MAT has isolated vertices");
        let run = bfs_top_down(&g, isolated);
        assert_eq!(run.visited(), 1);
        let run = bfs_hybrid(&g, isolated, SwitchPolicy::default());
        assert_eq!(run.visited(), 1);
    }

    #[test]
    fn level_traces_sum_to_component() {
        let g = graph();
        let run = bfs_top_down(&g, 3);
        let total: u64 = run.levels.iter().map(|l| l.discovered).sum();
        assert_eq!(total as usize + 1, run.visited(), "+1 for the root");
    }
}

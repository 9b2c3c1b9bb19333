//! The cross-chip interconnect topology of one node (Fig. 2 of the paper).
//!
//! Eight Xeon X7550 sockets each expose four full-width QPI links; the
//! glueless eight-socket board wires them as an enhanced hypercube
//! (3-cube plus the antipodal chord), which gives every socket four links
//! and a network diameter of two hops. For smaller socket counts the
//! construction degenerates gracefully (2 or 4 sockets are fully
//! connected, as on real boards).

use serde::{Deserialize, Serialize};

/// The QPI link graph among the sockets of one node.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QpiTopology {
    sockets: usize,
    /// `links[a]` lists the sockets directly connected to `a`.
    links: Vec<Vec<usize>>,
}

impl QpiTopology {
    /// Builds the link graph for `sockets` sockets.
    ///
    /// * 1 socket: no links.
    /// * 2–4 sockets (power of two): fully connected.
    /// * 8 sockets: hypercube (`i^1`, `i^2`, `i^4`) plus the antipodal
    ///   chord (`i^7`) — four links per socket, diameter 2, matching Fig. 2.
    ///
    /// # Panics
    /// If `sockets` is zero or not a power of two ≤ 8 (the paper's hardware
    /// space; Nehalem-EX scales "up to eight sockets ... without the help of
    /// third-party node controller").
    #[allow(clippy::needless_range_loop)] // parallel arrays; indices are clearer
    pub fn for_sockets(sockets: usize) -> Self {
        assert!(
            sockets > 0 && sockets <= 8 && sockets.is_power_of_two(),
            "supported socket counts: 1, 2, 4, 8 (got {sockets})"
        );
        let mut links = vec![Vec::new(); sockets];
        if sockets <= 4 {
            for a in 0..sockets {
                for b in 0..sockets {
                    if a != b {
                        links[a].push(b);
                    }
                }
            }
        } else {
            for a in 0..sockets {
                for d in [1usize, 2, 4, 7] {
                    let b = a ^ d;
                    links[a].push(b);
                }
                links[a].sort_unstable();
            }
        }
        Self { sockets, links }
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Direct neighbours of socket `s`.
    pub fn neighbours(&self, s: usize) -> &[usize] {
        &self.links[s]
    }

    /// Hop count between two sockets (0 for `a == b`).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        assert!(a < self.sockets && b < self.sockets);
        if a == b {
            return 0;
        }
        // Tiny BFS; the graph has at most 8 vertices.
        let mut dist = vec![usize::MAX; self.sockets];
        dist[a] = 0;
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            if u == b {
                return dist[u];
            }
            for &v in &self.links[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        unreachable!("QPI topology must be connected");
    }

    /// Network diameter in hops.
    pub fn diameter(&self) -> usize {
        (0..self.sockets)
            .flat_map(|a| (0..self.sockets).map(move |b| (a, b)))
            .map(|(a, b)| self.hops(a, b))
            .max()
            .unwrap_or(0)
    }

    /// Average hop distance from a socket to a *different*, uniformly random
    /// socket — the expected QPI path length of an interleaved remote access.
    pub fn mean_remote_hops(&self) -> f64 {
        if self.sockets == 1 {
            return 0.0;
        }
        let total: usize = (0..self.sockets)
            .flat_map(|a| (0..self.sockets).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| self.hops(a, b))
            .sum();
        total as f64 / (self.sockets * (self.sockets - 1)) as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn eight_socket_matches_fig2_shape() {
        let t = QpiTopology::for_sockets(8);
        for s in 0..8 {
            assert_eq!(t.neighbours(s).len(), 4, "X7550 has four QPI links");
            assert!(!t.neighbours(s).contains(&s), "no self links");
        }
        assert_eq!(t.diameter(), 2, "glueless 8-socket is 2-hop");
    }

    #[test]
    fn link_symmetry() {
        for sockets in [1, 2, 4, 8] {
            let t = QpiTopology::for_sockets(sockets);
            for a in 0..sockets {
                for &b in t.neighbours(a) {
                    assert!(t.neighbours(b).contains(&a), "asymmetric link {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn small_counts_fully_connected() {
        assert_eq!(QpiTopology::for_sockets(1).diameter(), 0);
        assert_eq!(QpiTopology::for_sockets(2).diameter(), 1);
        assert_eq!(QpiTopology::for_sockets(4).diameter(), 1);
    }

    #[test]
    fn hops_basics() {
        let t = QpiTopology::for_sockets(8);
        assert_eq!(t.hops(3, 3), 0);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 7), 1, "antipodal chord");
        // 0 -> 3 (= 0^1^2) is two hops: no direct link since 3 not in {1,2,4,7}.
        assert_eq!(t.hops(0, 3), 2);
    }

    #[test]
    fn mean_remote_hops_in_range() {
        let t = QpiTopology::for_sockets(8);
        let h = t.mean_remote_hops();
        assert!(h > 1.0 && h < 2.0, "mean hops {h}");
        assert_eq!(QpiTopology::for_sockets(2).mean_remote_hops(), 1.0);
    }

    #[test]
    #[should_panic(expected = "supported socket counts")]
    fn rejects_unsupported_counts() {
        QpiTopology::for_sockets(6);
    }
}

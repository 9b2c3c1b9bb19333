//! Process placement: how MPI ranks and their OpenMP threads map onto the
//! sockets of each node, and what that does to memory locality.
//!
//! The paper's Section IV.C evaluates the `Original` implementation under
//! combinations of `mpirun`/`numactl` flags (Fig. 10); this module encodes
//! those combinations:
//!
//! * [`PlacementPolicy::Noflag`] — "just simply execution of the program
//!   without special numactl or mpirun flags": threads wander across
//!   sockets and each process's memory sits wherever it was first touched.
//! * [`PlacementPolicy::Interleave`] — `numactl --interleave=all`: pages are
//!   striped round-robin over every socket's memory.
//! * [`PlacementPolicy::BindToSocket`] — `mpirun --bind-to-socket
//!   --bysocket`: one rank pinned per socket; every thread and its partition
//!   of the graph are socket-local. This is the paper's recommended mapping.

use serde::{Deserialize, Serialize};

use crate::machine::MachineConfig;
use crate::qpi::QpiTopology;

/// Global rank identifier (0-based, dense).
pub type RankId = usize;

/// The `mpirun`/`numactl` flag combinations of Fig. 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// No binding, no memory policy (first-touch allocation, free-roaming
    /// threads).
    Noflag,
    /// `numactl --interleave=all`: memory striped across all sockets.
    Interleave,
    /// `mpirun --bind-to-socket --bysocket`: ranks pinned round-robin to
    /// sockets, memory socket-local.
    BindToSocket,
}

impl PlacementPolicy {
    /// Label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Noflag => "noflag",
            PlacementPolicy::Interleave => "interleave",
            PlacementPolicy::BindToSocket => "bind-to-socket",
        }
    }
}

/// Where the ranks of a job live.
///
/// Ranks are dense and node-major: rank `r` runs on node `r / ppn` with
/// node-local index `r % ppn`. With [`PlacementPolicy::BindToSocket`],
/// local index `i` is pinned to socket `i % sockets_per_node`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessMap {
    nodes: usize,
    sockets_per_node: usize,
    cores_per_socket: usize,
    ppn: usize,
    threads_per_rank: usize,
    policy: PlacementPolicy,
}

impl ProcessMap {
    /// Creates a map spawning `ppn` ranks per node under `policy`, giving
    /// each rank an equal share of the node's cores (at least one).
    ///
    /// # Panics
    /// * if `ppn` is zero;
    /// * if `policy` is `BindToSocket` and `ppn` is not a multiple of the
    ///   socket count — the paper notes the flag "only works when more than
    ///   8 processes are spawned, otherwise partial of the 8 CPUs will be
    ///   idle", i.e. every socket must receive the same number of ranks.
    pub fn new(machine: &MachineConfig, ppn: usize, policy: PlacementPolicy) -> Self {
        assert!(ppn > 0, "ppn must be positive");
        if policy == PlacementPolicy::BindToSocket {
            assert!(
                ppn % machine.sockets_per_node == 0,
                "bind-to-socket needs ppn to be a multiple of {} sockets (got ppn={ppn})",
                machine.sockets_per_node
            );
        }
        let threads_per_rank = (machine.cores_per_node() / ppn).max(1);
        Self {
            nodes: machine.nodes,
            sockets_per_node: machine.sockets_per_node,
            cores_per_socket: machine.socket.cores,
            ppn,
            threads_per_rank,
            policy,
        }
    }

    /// The paper's recommended mapping: one bound rank per socket.
    pub fn one_rank_per_socket(machine: &MachineConfig) -> Self {
        Self::new(
            machine,
            machine.sockets_per_node,
            PlacementPolicy::BindToSocket,
        )
    }

    /// The baseline mapping: one rank per node with interleaved memory.
    pub fn one_rank_per_node(machine: &MachineConfig) -> Self {
        Self::new(machine, 1, PlacementPolicy::Interleave)
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.nodes * self.ppn
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Ranks per node.
    pub fn ppn(&self) -> usize {
        self.ppn
    }

    /// OpenMP-equivalent worker threads per rank.
    pub fn threads_per_rank(&self) -> usize {
        self.threads_per_rank
    }

    /// The placement policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: RankId) -> usize {
        debug_assert!(rank < self.world_size());
        rank / self.ppn
    }

    /// Node-local index of `rank` (0..ppn).
    pub fn local_index(&self, rank: RankId) -> usize {
        debug_assert!(rank < self.world_size());
        rank % self.ppn
    }

    /// All ranks living on `node`, in rank order.
    pub fn ranks_of_node(&self, node: usize) -> std::ops::Range<RankId> {
        debug_assert!(node < self.nodes);
        node * self.ppn..(node + 1) * self.ppn
    }

    /// The leader rank of `node` (node-local index 0), as used by
    /// leader-based collectives.
    pub fn leader_of_node(&self, node: usize) -> RankId {
        node * self.ppn
    }

    /// Is `rank` its node's leader?
    pub fn is_leader(&self, rank: RankId) -> bool {
        self.local_index(rank) == 0
    }

    /// The ranks of the *parallel-allgather subgroup* `local_index`: one rank
    /// per node, all sharing that node-local index (the same-colour processes
    /// of Fig. 7).
    pub fn subgroup_peers(&self, local_index: usize) -> Vec<RankId> {
        debug_assert!(local_index < self.ppn);
        (0..self.nodes)
            .map(|n| n * self.ppn + local_index)
            .collect()
    }

    /// Two ranks on the same node?
    pub fn same_node(&self, a: RankId, b: RankId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Structural summary of where this map's graph-memory accesses land;
    /// input to the `nbfs-simnet` cost models.
    pub fn memory_profile(&self, machine: &MachineConfig) -> MemoryProfile {
        let s = self.sockets_per_node as f64;
        let qpi = QpiTopology::for_sockets(self.sockets_per_node);
        match self.policy {
            PlacementPolicy::BindToSocket => MemoryProfile {
                local_fraction: 1.0,
                channels: s,
                scheduling_efficiency: 1.0,
                mean_qpi_hops: 0.0,
            },
            PlacementPolicy::Interleave => MemoryProfile {
                // Pages striped over all sockets; a thread on any socket hits
                // its own with probability 1/s.
                local_fraction: 1.0 / s,
                channels: s,
                scheduling_efficiency: 1.0,
                mean_qpi_hops: qpi.mean_remote_hops(),
            },
            PlacementPolicy::Noflag => MemoryProfile {
                // First-touch piles each rank's pages on its start socket, so
                // only min(ppn, sockets) controllers carry the whole node's
                // traffic, threads roam (1/s locality) and migrations cost a
                // scheduling haircut.
                local_fraction: 1.0 / s,
                channels: (self.ppn.min(self.sockets_per_node)) as f64,
                scheduling_efficiency: 0.8,
                mean_qpi_hops: qpi.mean_remote_hops(),
            },
        }
        .validated(machine)
    }
}

/// Where a rank's graph accesses land, structurally.
///
/// Consumed by `nbfs-simnet` to turn operation counts into simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoryProfile {
    /// Fraction of DRAM accesses served by the socket the accessing thread
    /// runs on (1.0 under bind-to-socket; `1/sockets` when striped/roaming).
    pub local_fraction: f64,
    /// Number of memory controllers that serve the node's graph data
    /// (first-touch under `noflag` concentrates traffic on few controllers).
    pub channels: f64,
    /// Multiplier ≤ 1.0 for scheduler noise: unbound threads migrate and
    /// lose cache affinity.
    pub scheduling_efficiency: f64,
    /// Mean QPI hops of the remote portion of accesses.
    pub mean_qpi_hops: f64,
}

impl MemoryProfile {
    fn validated(self, machine: &MachineConfig) -> Self {
        debug_assert!((0.0..=1.0).contains(&self.local_fraction));
        debug_assert!(self.channels >= 1.0);
        debug_assert!(self.channels <= machine.sockets_per_node as f64 + 1e-9);
        debug_assert!((0.0..=1.0).contains(&self.scheduling_efficiency));
        self
    }

    /// Expected DRAM latency of one random access under this profile, ns.
    pub fn mean_dram_latency_ns(&self, machine: &MachineConfig) -> f64 {
        let s = &machine.socket;
        self.local_fraction * s.mem_lat_local_ns
            + (1.0 - self.local_fraction) * s.mem_lat_remote_ns * hop_factor(self.mean_qpi_hops)
    }

    /// Aggregate streaming bandwidth available to one *node's* worth of
    /// ranks under this profile, bytes/s.
    pub fn node_stream_bw(&self, machine: &MachineConfig) -> f64 {
        let base = machine.socket.mem_bw * self.channels;
        // Remote streams pay a QPI efficiency haircut.
        let remote_eff = 0.62;
        let eff = self.local_fraction + (1.0 - self.local_fraction) * remote_eff;
        base * eff * self.scheduling_efficiency
    }
}

/// Latency multiplier for multi-hop QPI paths: the `mem_lat_remote_ns`
/// constant is the one-hop figure; each extra hop adds ~30%.
fn hop_factor(mean_hops: f64) -> f64 {
    if mean_hops <= 1.0 {
        1.0
    } else {
        1.0 + 0.3 * (mean_hops - 1.0)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::presets;

    fn machine() -> MachineConfig {
        presets::cluster2012()
    }

    #[test]
    fn rank_layout_is_node_major() {
        let pm = ProcessMap::new(&machine(), 8, PlacementPolicy::BindToSocket);
        assert_eq!(pm.world_size(), 128);
        assert_eq!(pm.node_of(0), 0);
        assert_eq!(pm.node_of(7), 0);
        assert_eq!(pm.node_of(8), 1);
        assert_eq!(pm.local_index(13), 5);
        assert_eq!(pm.ranks_of_node(2), 16..24);
        assert_eq!(pm.leader_of_node(3), 24);
        assert!(pm.is_leader(24));
        assert!(!pm.is_leader(25));
        assert!(pm.same_node(16, 23));
        assert!(!pm.same_node(15, 16));
    }

    #[test]
    fn bind_to_socket_pins_round_robin() {
        let pm = ProcessMap::one_rank_per_socket(&machine());
        assert_eq!(pm.ppn(), 8);
        assert_eq!(pm.policy(), PlacementPolicy::BindToSocket);
        for rank in 0..pm.world_size() {
            assert_eq!(pm.local_index(rank), rank % 8);
        }
        assert_eq!(pm.threads_per_rank(), 8, "8 OMP threads per socket rank");
    }

    #[test]
    fn unbound_policies_do_not_pin() {
        let pm = ProcessMap::one_rank_per_node(&machine());
        assert_eq!(pm.ppn(), 1);
        assert_eq!(pm.threads_per_rank(), 64);
        assert_eq!(pm.policy(), PlacementPolicy::Interleave);
    }

    #[test]
    #[should_panic(expected = "multiple of 8 sockets")]
    fn bind_requires_full_socket_coverage() {
        ProcessMap::new(&machine(), 4, PlacementPolicy::BindToSocket);
    }

    #[test]
    fn subgroup_peers_take_one_rank_per_node() {
        let pm = ProcessMap::new(&machine(), 8, PlacementPolicy::BindToSocket);
        let g3 = pm.subgroup_peers(3);
        assert_eq!(g3.len(), 16);
        for (n, &r) in g3.iter().enumerate() {
            assert_eq!(pm.node_of(r), n);
            assert_eq!(pm.local_index(r), 3);
        }
    }

    #[test]
    fn memory_profiles_rank_policies_correctly() {
        let m = machine();
        let bind = ProcessMap::new(&m, 8, PlacementPolicy::BindToSocket).memory_profile(&m);
        let inter = ProcessMap::new(&m, 1, PlacementPolicy::Interleave).memory_profile(&m);
        let noflag1 = ProcessMap::new(&m, 1, PlacementPolicy::Noflag).memory_profile(&m);
        let noflag8 = ProcessMap::new(&m, 8, PlacementPolicy::Noflag).memory_profile(&m);

        // Locality: only binding is local.
        assert_eq!(bind.local_fraction, 1.0);
        assert!((inter.local_fraction - 1.0 / 8.0).abs() < 1e-12);

        // Latency ordering drives Fig. 10's computation-side results.
        assert!(bind.mean_dram_latency_ns(&m) < inter.mean_dram_latency_ns(&m));

        // Bandwidth ordering: bind >= interleave > noflag(ppn=8) > noflag(ppn=1).
        let bw_bind = bind.node_stream_bw(&m);
        let bw_inter = inter.node_stream_bw(&m);
        let bw_no8 = noflag8.node_stream_bw(&m);
        let bw_no1 = noflag1.node_stream_bw(&m);
        assert!(bw_bind > bw_inter, "{bw_bind} vs {bw_inter}");
        assert!(bw_inter > bw_no8, "{bw_inter} vs {bw_no8}");
        assert!(bw_no8 > bw_no1, "{bw_no8} vs {bw_no1}");
        // noflag ppn=1 funnels everything through one controller: ~8x less
        // than interleave before the scheduling haircut.
        assert!(bw_inter / bw_no1 > 6.0);
    }

    #[test]
    fn labels() {
        assert_eq!(PlacementPolicy::Noflag.label(), "noflag");
        assert_eq!(PlacementPolicy::Interleave.label(), "interleave");
        assert_eq!(PlacementPolicy::BindToSocket.label(), "bind-to-socket");
    }
}

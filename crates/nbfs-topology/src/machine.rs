//! Declarative description of the simulated cluster hardware.
//!
//! All numbers live here (not scattered through the simulator) so that a
//! single [`MachineConfig`] value pins down every capacity/latency/bandwidth
//! the cost models consume, and so tests can perturb one knob at a time.

use serde::{Deserialize, Serialize};

/// Per-core/per-socket cache capacities.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Private L1 data cache per core, bytes.
    pub l1_bytes: usize,
    /// Private L2 cache per core, bytes.
    pub l2_bytes: usize,
    /// Shared L3 cache per socket, bytes.
    pub l3_bytes: usize,
    /// Cache line size, bytes.
    pub line_bytes: usize,
    /// L1 hit latency, ns.
    pub l1_lat_ns: f64,
    /// L2 hit latency, ns.
    pub l2_lat_ns: f64,
    /// L3 hit latency, ns.
    pub l3_lat_ns: f64,
}

/// One CPU socket: cores, clocks, caches, its memory channels and QPI links.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SocketSpec {
    /// Cores per socket (SMT disabled, as in the paper).
    pub cores: usize,
    /// Core clock in GHz.
    pub ghz: f64,
    /// Cache hierarchy.
    pub cache: CacheSpec,
    /// Peak local memory bandwidth per socket, bytes/s.
    pub mem_bw: f64,
    /// Local DRAM random-access latency, ns.
    pub mem_lat_local_ns: f64,
    /// Remote DRAM (one QPI hop) random-access latency, ns.
    pub mem_lat_remote_ns: f64,
    /// Latency of hitting a *remote socket's* L3, ns. Molka et al. \[35\]
    /// measured this below local DRAM latency on Nehalem — the paper's
    /// reason (d) for tolerating a node-shared `in_queue`.
    pub remote_cache_lat_ns: f64,
    /// Peak bandwidth of one QPI link, bytes/s.
    pub qpi_bw: f64,
    /// Number of QPI links per socket.
    pub qpi_links: usize,
}

/// The inter-node network interface of one node.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NicSpec {
    /// Number of network ports (the paper's nodes have two IB ports).
    pub ports: usize,
    /// Effective peak bandwidth per port, bytes/s (payload rate after
    /// protocol overhead; ~3.2 GB/s for 40 Gbps QDR IB).
    pub port_bw: f64,
    /// Maximum bandwidth a *single* communicating process can drive,
    /// bytes/s. Fig. 4 of the paper shows one process per node reaches only
    /// about half the node's aggregate — this cap is why parallelizing the
    /// allgather (Section III.B) pays off.
    pub per_stream_bw: f64,
    /// One-way small-message latency, seconds.
    pub latency_s: f64,
}

/// Marks one node's network as degraded, reproducing the paper's "one weak
/// node" whose InfiniBand underperformed (Section IV.A).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeakNode {
    /// Index of the degraded node.
    pub node: usize,
    /// Multiplier (< 1.0) on that node's network bandwidth.
    pub bandwidth_factor: f64,
}

/// Full description of the simulated cluster.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Sockets per node.
    pub sockets_per_node: usize,
    /// Socket description (homogeneous across the cluster).
    pub socket: SocketSpec,
    /// Network interface per node.
    pub nic: NicSpec,
    /// Intra-node shared-memory copy bandwidth (one core doing
    /// `memcpy` through the cache/memory system), bytes/s.
    pub shm_copy_bw: f64,
    /// Fixed software overhead per intra-node communication operation
    /// (queue setup, synchronization), seconds.
    pub sw_overhead_s: f64,
    /// Optionally degrade one node's network.
    pub weak_node: Option<WeakNode>,
}

impl MachineConfig {
    /// Total cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.sockets_per_node * self.socket.cores
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.socket.cores
    }

    /// Aggregate local memory bandwidth of one node, bytes/s.
    pub fn node_mem_bw(&self) -> f64 {
        self.socket.mem_bw * self.sockets_per_node as f64
    }

    /// Aggregate network bandwidth of one node (all ports), bytes/s,
    /// including the weak-node degradation if `node` is the weak one.
    pub fn node_net_bw(&self, node: usize) -> f64 {
        let base = self.nic.port_bw * self.nic.ports as f64;
        match self.weak_node {
            Some(w) if w.node == node => base * w.bandwidth_factor,
            _ => base,
        }
    }

    /// Returns a copy with every cache capacity multiplied by `factor`.
    ///
    /// Used to run paper-scale *regimes* on laptop-scale graphs: scaling the
    /// graph down by `k` and the caches by `k` preserves the
    /// working-set-to-cache ratios that drive the bitmap-granularity
    /// trade-off (Fig. 16).
    // Cache capacities are far below 2^53 bytes; truncating to whole bytes
    // after scaling is the intended rounding.
    #[allow(clippy::cast_possible_truncation)]
    pub fn with_cache_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "cache scale must be positive");
        let c = &mut self.socket.cache;
        c.l1_bytes = ((c.l1_bytes as f64 * factor) as usize).max(c.line_bytes);
        c.l2_bytes = ((c.l2_bytes as f64 * factor) as usize).max(c.line_bytes);
        c.l3_bytes = ((c.l3_bytes as f64 * factor) as usize).max(c.line_bytes);
        self
    }

    /// Returns a copy with every *latency-class* constant (network
    /// latency, software overheads) multiplied by `factor`.
    ///
    /// Companion of [`MachineConfig::with_cache_scale`] for running
    /// paper-scale *regimes* on laptop-scale graphs: shrinking the graph by
    /// `k` shrinks every per-level payload by `k`, so fixed latencies must
    /// shrink by `k` too or they dominate ratios they never dominated in
    /// the paper's runs.
    pub fn with_latency_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "latency scale must be positive");
        self.nic.latency_s *= factor;
        self.sw_overhead_s *= factor;
        self
    }

    /// Scales both cache capacities and latency-class constants by
    /// `2^-(paper_scale - graph_scale)`: run a graph of `graph_scale` in
    /// the same working-set and payload regimes the paper had at
    /// `paper_scale`.
    pub fn scaled_to_graph(self, graph_scale: u32, paper_scale: u32) -> Self {
        let delta = paper_scale.saturating_sub(graph_scale).min(24);
        let f = 1.0 / (1u64 << delta) as f64;
        self.with_cache_scale(f).with_latency_scale(f)
    }

    /// Returns a copy with a different node count (weak scaling sweeps).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes > 0);
        self.nodes = nodes;
        if let Some(w) = self.weak_node {
            if w.node >= nodes {
                self.weak_node = None;
            }
        }
        self
    }

    /// Returns a copy with the given weak node.
    pub fn with_weak_node(mut self, node: usize, bandwidth_factor: f64) -> Self {
        assert!(node < self.nodes, "weak node index out of range");
        assert!(
            (0.0..=1.0).contains(&bandwidth_factor),
            "bandwidth factor must be in (0, 1]"
        );
        self.weak_node = Some(WeakNode {
            node,
            bandwidth_factor,
        });
        self
    }

    /// A small, fast configuration for unit tests: `nodes` nodes of
    /// `sockets` sockets with 2 cores each and deliberately tiny caches.
    pub fn small_test_cluster(nodes: usize, sockets: usize) -> Self {
        crate::presets::xeon_x7550_cluster(nodes)
            .with_sockets_per_node(sockets)
            .with_cores_per_socket(2)
            .with_cache_scale(1.0 / 1024.0)
    }

    /// Returns a copy with a different socket count per node.
    pub fn with_sockets_per_node(mut self, sockets: usize) -> Self {
        assert!(sockets > 0);
        self.sockets_per_node = sockets;
        self
    }

    /// Returns a copy with a different core count per socket.
    pub fn with_cores_per_socket(mut self, cores: usize) -> Self {
        assert!(cores > 0);
        self.socket.cores = cores;
        self
    }

    /// Sanity-checks internal consistency; called by the engines on entry.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.sockets_per_node == 0 || self.socket.cores == 0 {
            return Err("machine must have nodes, sockets and cores".into());
        }
        if self.socket.mem_bw <= 0.0 || self.nic.port_bw <= 0.0 || self.shm_copy_bw <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        if self.nic.per_stream_bw > self.nic.port_bw * self.nic.ports as f64 {
            return Err("per-stream bandwidth cannot exceed node aggregate".into());
        }
        if let Some(w) = self.weak_node {
            if w.node >= self.nodes {
                return Err(format!("weak node {} out of range", w.node));
            }
        }
        let c = self.socket.cache;
        if !(c.l1_bytes <= c.l2_bytes && c.l2_bytes <= c.l3_bytes) {
            return Err("cache capacities must be monotone".into());
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn table1_preset_validates() {
        let m = presets::cluster2012();
        m.validate().unwrap();
        assert_eq!(m.nodes, 16);
        assert_eq!(m.sockets_per_node, 8);
        assert_eq!(m.socket.cores, 8);
        assert_eq!(m.total_cores(), 1024, "the paper's thousand-core platform");
    }

    #[test]
    fn cache_scale_preserves_ratios() {
        let m = presets::cluster2012();
        let s = m.clone().with_cache_scale(1.0 / 64.0);
        let r0 = m.socket.cache.l3_bytes as f64 / m.socket.cache.l2_bytes as f64;
        let r1 = s.socket.cache.l3_bytes as f64 / s.socket.cache.l2_bytes as f64;
        assert!((r0 - r1).abs() / r0 < 0.05);
        s.validate().unwrap();
    }

    #[test]
    fn weak_node_degrades_only_that_node() {
        let m = presets::cluster2012().with_weak_node(3, 0.5);
        assert!(m.node_net_bw(3) < m.node_net_bw(2));
        assert_eq!(m.node_net_bw(0), m.node_net_bw(15));
        assert_eq!(m.node_net_bw(3) * 2.0, m.node_net_bw(0));
    }

    #[test]
    fn with_nodes_drops_out_of_range_weak_node() {
        let m = presets::cluster2012().with_weak_node(15, 0.5).with_nodes(8);
        assert!(m.weak_node.is_none());
        let m2 = presets::cluster2012().with_weak_node(3, 0.5).with_nodes(8);
        assert!(m2.weak_node.is_some());
    }

    #[test]
    fn small_test_cluster_is_valid_and_small() {
        let m = MachineConfig::small_test_cluster(2, 4);
        m.validate().unwrap();
        assert_eq!(m.nodes, 2);
        assert_eq!(m.sockets_per_node, 4);
        assert_eq!(m.total_cores(), 16);
        assert!(m.socket.cache.l3_bytes < presets::cluster2012().socket.cache.l3_bytes);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut m = presets::cluster2012();
        m.nic.per_stream_bw = m.nic.port_bw * (m.nic.ports as f64) * 2.0;
        assert!(m.validate().is_err());

        let mut m = presets::cluster2012();
        m.socket.cache.l1_bytes = m.socket.cache.l3_bytes * 2;
        assert!(m.validate().is_err());
    }

    #[test]
    fn node_aggregates() {
        let m = presets::cluster2012();
        assert!((m.node_mem_bw() - 8.0 * m.socket.mem_bw).abs() < 1.0);
    }
}

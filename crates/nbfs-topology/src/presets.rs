//! Hardware presets, headed by the paper's Table I configuration.
//!
//! Latency constants not given in Table I are taken from the sources the
//! paper itself cites for them: Molka et al. \[35\] for Nehalem
//! local/remote/L3 latencies and the Intel SMB datasheet \[6\] for the halved
//! memory bandwidth (17.1 GB/s per socket).

use crate::machine::{CacheSpec, MachineConfig, NicSpec, SocketSpec};

/// The Intel Xeon X7550 socket of Table I.
///
/// * 8 cores @ 2.0 GHz, SMT off
/// * 32 KB L1D + 256 KB L2 per core, 18 MB shared L3
/// * four SMI channels → 17.1 GB/s peak per socket (footnote 1 of Table I)
/// * four 6.4 GT/s full-width QPI links (~12.8 GB/s each per direction)
fn xeon_x7550_socket() -> SocketSpec {
    SocketSpec {
        cores: 8,
        ghz: 2.0,
        cache: CacheSpec {
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            l3_bytes: 18 * 1024 * 1024,
            line_bytes: 64,
            l1_lat_ns: 2.0,  // 4 cycles @ 2 GHz
            l2_lat_ns: 5.0,  // ~10 cycles
            l3_lat_ns: 22.0, // ~44 cycles (Nehalem-EX L3 is slow)
        },
        mem_bw: 17.1e9,
        mem_lat_local_ns: 130.0,
        mem_lat_remote_ns: 250.0,
        remote_cache_lat_ns: 110.0, // below local DRAM, per Molka et al. [35]
        qpi_bw: 12.8e9,
        qpi_links: 4,
    }
}

/// The dual-port InfiniBand NIC of Table I (2 × 40 Gbps).
///
/// 40 Gbps QDR IB delivers ≈3.2 GB/s of payload per port after 8b/10b and
/// protocol overhead. `per_stream_bw` is calibrated to Fig. 4: one process
/// per node achieves about half of what eight processes achieve.
fn dual_qdr_ib() -> NicSpec {
    NicSpec {
        ports: 2,
        port_bw: 3.2e9,
        per_stream_bw: 3.4e9,
        latency_s: 1.7e-6,
    }
}

/// One eight-socket node as in Table I / Fig. 2.
pub fn xeon_x7550_node() -> MachineConfig {
    MachineConfig {
        nodes: 1,
        sockets_per_node: 8,
        socket: xeon_x7550_socket(),
        nic: dual_qdr_ib(),
        // One core pushing a pipelined copy through Open MPI's sm staging
        // buffers sustains ~3 GB/s on Nehalem-EX class hardware.
        shm_copy_bw: 3.0e9,
        sw_overhead_s: 0.5e-6,
        weak_node: None,
    }
}

/// The paper's full evaluation platform: sixteen eight-socket nodes,
/// 1,024 cores (Section IV.A).
pub fn cluster2012() -> MachineConfig {
    xeon_x7550_node().with_nodes(16)
}

/// `cluster2012` with `nodes` nodes — the weak-scaling configurations of
/// Figs. 12–15 use 1, 2, 4, 8 and 16 nodes.
pub fn xeon_x7550_cluster(nodes: usize) -> MachineConfig {
    xeon_x7550_node().with_nodes(nodes)
}

/// `cluster2012` including the degraded sixteenth node the paper reports
/// ("there is one weak node ... due to unknown reason", Section IV.A).
pub fn cluster2012_with_weak_node() -> MachineConfig {
    cluster2012().with_weak_node(15, 0.45)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let s = xeon_x7550_socket();
        assert_eq!(s.cores, 8);
        assert_eq!(s.ghz, 2.0);
        assert_eq!(s.cache.l1_bytes, 32 * 1024);
        assert_eq!(s.cache.l2_bytes, 256 * 1024);
        assert_eq!(s.cache.l3_bytes, 18 * 1024 * 1024);
        assert_eq!(s.qpi_links, 4);
        assert!((s.mem_bw - 17.1e9).abs() < 1e6);
    }

    #[test]
    fn nic_matches_fig4_shape() {
        let nic = dual_qdr_ib();
        // One stream must reach roughly half the node aggregate, as Fig. 4
        // shows for ppn=1 vs ppn=8.
        let aggregate = nic.port_bw * nic.ports as f64;
        let ratio = nic.per_stream_bw / aggregate;
        assert!(
            (0.4..=0.65).contains(&ratio),
            "single-stream share {ratio} outside Fig. 4 band"
        );
    }

    #[test]
    fn cluster_presets() {
        assert_eq!(cluster2012().nodes, 16);
        assert_eq!(cluster2012().total_cores(), 1024);
        assert_eq!(xeon_x7550_cluster(4).nodes, 4);
        let weak = cluster2012_with_weak_node();
        assert_eq!(weak.weak_node.unwrap().node, 15);
    }

    #[test]
    fn remote_cache_is_faster_than_local_dram() {
        // The paper's reason (d) for sharing in_queue relies on this
        // ordering (Molka et al. [35]).
        let s = xeon_x7550_socket();
        assert!(s.remote_cache_lat_ns < s.mem_lat_local_ns);
        assert!(s.mem_lat_local_ns < s.mem_lat_remote_ns);
    }
}

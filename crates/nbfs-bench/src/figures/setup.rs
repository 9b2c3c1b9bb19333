//! Table I (node configuration) and Fig. 2 (QPI topology).

use nbfs_topology::{presets, QpiTopology};
use nbfs_util::units::{format_bandwidth, format_bytes};

use crate::report::FigureReport;

/// Table I — the modelled node configuration.
pub fn table1() -> FigureReport {
    let m = presets::xeon_x7550_node();
    let s = m.socket;
    let mut r = FigureReport::new(
        "table1",
        "Node configuration (modelled)",
        "Table I: 8x Xeon X7550, 8 cores @ 2.0 GHz, 32KB/256KB/18MB caches, \
         4x 6.4GT/s QPI, 17.1 GB/s per-socket memory bandwidth, 2x 40Gbps IB",
        &["parameter", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("CPUs per node", format!("{} sockets", m.sockets_per_node)),
        (
            "cores per socket",
            format!("{} @ {:.1} GHz (SMT off)", s.cores, s.ghz),
        ),
        ("L1D per core", format_bytes(s.cache.l1_bytes as u64)),
        ("L2 per core", format_bytes(s.cache.l2_bytes as u64)),
        (
            "L3 per socket (shared)",
            format_bytes(s.cache.l3_bytes as u64),
        ),
        (
            "QPI links per socket",
            format!("{} x {}", s.qpi_links, format_bandwidth(s.qpi_bw)),
        ),
        ("memory bandwidth per socket", format_bandwidth(s.mem_bw)),
        (
            "local DRAM latency",
            format!("{:.0} ns", s.mem_lat_local_ns),
        ),
        (
            "remote DRAM latency",
            format!("{:.0} ns", s.mem_lat_remote_ns),
        ),
        (
            "remote L3 latency",
            format!("{:.0} ns", s.remote_cache_lat_ns),
        ),
        (
            "network ports per node",
            format!("{} x {}", m.nic.ports, format_bandwidth(m.nic.port_bw)),
        ),
        (
            "single-stream network cap",
            format_bandwidth(m.nic.per_stream_bw),
        ),
        (
            "network latency",
            format!("{:.1} us", m.nic.latency_s * 1e6),
        ),
        (
            "cluster",
            format!(
                "{} nodes = {} cores",
                presets::cluster2012().nodes,
                presets::cluster2012().total_cores()
            ),
        ),
    ];
    for (k, v) in rows {
        r.push_row(vec![k.into(), v]);
    }
    r.note("latencies from Molka et al. [35]; memory bandwidth footnote 1 of Table I [6]");
    r
}

/// Fig. 2 — the eight-socket QPI link graph.
pub fn fig2() -> FigureReport {
    let t = QpiTopology::for_sockets(8);
    let mut r = FigureReport::new(
        "fig2",
        "Topology of an eight-socket node (QPI links)",
        "Fig. 2: eight X7550 sockets connected by four QPI links each",
        &["socket", "links to", "max hops"],
    );
    for s in 0..t.sockets() {
        let max_hops = (0..t.sockets()).map(|d| t.hops(s, d)).max().unwrap_or(0);
        r.push_row(vec![
            s.to_string(),
            t.neighbours(s)
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
            max_hops.to_string(),
        ]);
    }
    r.note(format!(
        "diameter {} hops, mean remote distance {:.2} hops",
        t.diameter(),
        t.mean_remote_hops()
    ));
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_the_headline_constants() {
        let t = table1().to_text();
        assert!(t.contains("8 sockets"));
        assert!(t.contains("18.00 MiB"));
        assert!(t.contains("17.10 GB/s"));
        assert!(t.contains("1024 cores"));
    }

    #[test]
    fn fig2_has_eight_sockets_with_four_links() {
        let r = fig2();
        assert_eq!(r.rows.len(), 8);
        for row in &r.rows {
            assert_eq!(row[1].split(',').count(), 4);
        }
    }
}

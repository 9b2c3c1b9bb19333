//! OSU-micro-benchmark-style bandwidth measurement on the simulated network.
//!
//! Fig. 4 of the paper runs the OSU bandwidth test between two nodes (dual
//! InfiniBand ports each) with 1, 2, 4 and 8 processes per node
//! communicating simultaneously, showing that one process only drives about
//! half the achievable node bandwidth. This module reproduces that
//! experiment against the [`FlowSolver`] model.

use nbfs_util::SimTime;
use serde::{Deserialize, Serialize};

use crate::flows::{Flow, FlowSolver};

/// One point of the Fig. 4 curve family.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BandwidthPoint {
    /// Processes per node participating.
    pub ppn: usize,
    /// Message size per process, bytes.
    pub message_bytes: u64,
    /// Aggregate achieved bandwidth between the node pair, bytes/s.
    pub bandwidth: f64,
}

/// Measures the aggregate bandwidth two nodes achieve when `ppn` process
/// pairs exchange `message_bytes` messages simultaneously (uni-directional,
/// like `osu_bw` with a window).
pub fn pairwise_bandwidth(solver: &FlowSolver, ppn: usize, message_bytes: u64) -> BandwidthPoint {
    assert!(ppn >= 1, "need at least one pair");
    assert!(
        solver.machine().nodes >= 2,
        "pairwise benchmark needs two nodes"
    );
    // osu_bw keeps a window of messages in flight; model a window of 64
    // messages per pair so latency is amortized exactly as in the real test.
    const WINDOW: u64 = 64;
    let flows: Vec<Flow> = (0..ppn)
        .map(|_| Flow::new(0, 1, message_bytes * WINDOW))
        .collect();
    let t: SimTime = solver.round_time(&flows);
    let total_bytes = message_bytes * WINDOW * ppn as u64;
    BandwidthPoint {
        ppn,
        message_bytes,
        bandwidth: total_bytes as f64 / t.as_secs(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::presets;

    fn solver() -> FlowSolver {
        FlowSolver::new(&presets::xeon_x7550_cluster(2))
    }

    #[test]
    fn eight_ppn_doubles_one_ppn_at_large_messages() {
        // The paper's headline Fig. 4 observation: "when eight processes per
        // node are simultaneously participating in communication, the
        // highest bandwidth is achieved, while one process per node can only
        // utilize about half".
        let s = solver();
        let big = 4 << 20;
        let one = pairwise_bandwidth(&s, 1, big).bandwidth;
        let eight = pairwise_bandwidth(&s, 8, big).bandwidth;
        let ratio = eight / one;
        assert!(
            (1.6..=2.3).contains(&ratio),
            "ppn=8 / ppn=1 ratio {ratio} outside Fig. 4 band"
        );
    }

    #[test]
    fn bandwidth_monotone_in_ppn_at_large_messages() {
        let s = solver();
        let big = 4 << 20;
        let mut prev = 0.0;
        for ppn in [1, 2, 4, 8] {
            let bw = pairwise_bandwidth(&s, ppn, big).bandwidth;
            assert!(bw >= prev * 0.999, "ppn={ppn} bandwidth dropped");
            prev = bw;
        }
    }

    #[test]
    fn bandwidth_grows_with_message_size() {
        let s = solver();
        let small = pairwise_bandwidth(&s, 1, 1 << 10).bandwidth;
        let large = pairwise_bandwidth(&s, 1, 4 << 20).bandwidth;
        assert!(large > small, "latency must dominate small messages");
    }

    #[test]
    fn saturates_at_node_aggregate() {
        let s = solver();
        let peak = pairwise_bandwidth(&s, 8, 4 << 20).bandwidth;
        let aggregate = s.machine().node_net_bw(0);
        assert!(peak <= aggregate * 1.001);
        assert!(peak >= aggregate * 0.9, "8 streams should saturate the NIC");
    }
}

//! Round-based contention solver for inter-node transfers.
//!
//! Collective algorithms decompose into *rounds* of concurrent point-to-point
//! flows. A round finishes when its slowest flow finishes; a flow is slowed
//! by whichever resource saturates first:
//!
//! * the single-stream cap (`NicSpec::per_stream_bw`) — one sender cannot
//!   drive both IB ports, which is the Fig. 4 effect that motivates the
//!   parallelized allgather of Section III.B;
//! * the sending node's aggregate egress bandwidth (all ports);
//! * the receiving node's aggregate ingress bandwidth.
//!
//! The weak node of Section IV.A simply has a smaller aggregate.

use nbfs_topology::MachineConfig;
use nbfs_util::SimTime;
use serde::{Deserialize, Serialize};

/// One point-to-point transfer within a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flow {
    /// Sending node.
    pub src_node: usize,
    /// Receiving node.
    pub dst_node: usize,
    /// Payload bytes.
    pub bytes: u64,
}

impl Flow {
    /// Convenience constructor.
    pub fn new(src_node: usize, dst_node: usize, bytes: u64) -> Self {
        Self {
            src_node,
            dst_node,
            bytes,
        }
    }
}

/// The flows of one round that share `(src_node, dst_node)`, summarised.
///
/// Every flow of a group gets the same bandwidth (the stream cap and the
/// two endpoint shares depend only on the two nodes and the round's
/// per-node stream counts), and
/// `latency + bytes / bw` is monotone in `bytes` under IEEE `u64 -> f64`,
/// division and addition. So the group's slowest flow is its largest one,
/// priced once, and the price of a round of groups is bit-identical to the
/// price of the same round listed flow by flow. The endpoint aggregates
/// are exact `u64` sums either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowGroup {
    /// Sending node.
    pub src_node: usize,
    /// Receiving node.
    pub dst_node: usize,
    /// Flows carrying at least one byte (each takes a bandwidth share).
    streams: u32,
    /// Bytes of the group's largest flow.
    max_bytes: u64,
    /// Bytes of all the group's flows.
    bytes: u64,
    /// Whether some flow of the group is empty (it still pays a latency).
    has_empty: bool,
}

impl FlowGroup {
    /// An empty group of the node pair `src_node -> dst_node`.
    pub fn new(src_node: usize, dst_node: usize) -> Self {
        Self {
            src_node,
            dst_node,
            ..Self::default()
        }
    }

    /// Adds one flow of `bytes` to the group.
    pub fn add(&mut self, bytes: u64) {
        if bytes > 0 {
            self.streams += 1;
            self.max_bytes = self.max_bytes.max(bytes);
            self.bytes += bytes;
        } else {
            self.has_empty = true;
        }
    }

    /// Flows of the group carrying at least one byte.
    pub fn streams(&self) -> u32 {
        self.streams
    }

    /// Bytes of all the group's flows.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl From<Flow> for FlowGroup {
    /// The group of one flow.
    fn from(f: Flow) -> Self {
        let mut group = Self::new(f.src_node, f.dst_node);
        group.add(f.bytes);
        group
    }
}

/// Per-node tallies of one round, held by the caller so that pricing a
/// round allocates nothing once the buffers have grown to the node count.
#[derive(Clone, Debug, Default)]
pub struct RoundScratch {
    egress: Vec<u64>,
    ingress: Vec<u64>,
    egress_streams: Vec<u32>,
    ingress_streams: Vec<u32>,
}

impl RoundScratch {
    /// Zeroes every tally for a machine of `nodes` nodes.
    fn reset(&mut self, nodes: usize) {
        for tally in [&mut self.egress, &mut self.ingress] {
            tally.clear();
            tally.resize(nodes, 0);
        }
        for tally in [&mut self.egress_streams, &mut self.ingress_streams] {
            tally.clear();
            tally.resize(nodes, 0);
        }
    }
}

/// Computes round completion times for sets of concurrent flows.
#[derive(Clone, Debug)]
pub struct FlowSolver {
    machine: MachineConfig,
}

impl FlowSolver {
    /// Builds a solver for a machine.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            machine: machine.clone(),
        }
    }

    /// Completion time of one round of concurrent flows, each priced as
    /// its own [`FlowGroup`].
    ///
    /// Intra-node flows (`src == dst`) are rejected: those are shared-memory
    /// copies and must be costed by [`crate::NetworkModel::shm_copy_time`].
    pub fn round_time(&self, flows: &[Flow]) -> SimTime {
        self.price(
            flows.iter().map(|&f| FlowGroup::from(f)),
            &mut RoundScratch::default(),
        )
    }

    /// Completion time of one round given as flow groups: the same price
    /// as [`Self::round_time`] over the flows the groups summarise, in
    /// O(groups + nodes) and without allocating once `scratch` has grown.
    pub fn round_time_grouped(&self, groups: &[FlowGroup], scratch: &mut RoundScratch) -> SimTime {
        self.price(groups.iter().copied(), scratch)
    }

    /// The one pricing loop: endpoint tallies, then each group's slowest
    /// flow, then the endpoint aggregates.
    fn price(
        &self,
        groups: impl Iterator<Item = FlowGroup> + Clone,
        scratch: &mut RoundScratch,
    ) -> SimTime {
        if groups.clone().next().is_none() {
            return SimTime::ZERO;
        }
        let nodes = self.machine.nodes;
        scratch.reset(nodes);
        for g in groups.clone() {
            assert!(
                g.src_node != g.dst_node,
                "intra-node flow {g:?}: use shm_copy_time"
            );
            assert!(
                g.src_node < nodes && g.dst_node < nodes,
                "flow {g:?} out of range"
            );
            scratch.egress[g.src_node] += g.bytes;
            scratch.ingress[g.dst_node] += g.bytes;
            // Zero-byte flows complete in one latency and consume no
            // bandwidth share.
            scratch.egress_streams[g.src_node] += g.streams;
            scratch.ingress_streams[g.dst_node] += g.streams;
        }

        let latency = self.machine.nic.latency_s;
        let mut worst = SimTime::ZERO;
        for g in groups {
            if g.has_empty {
                worst = worst.max(SimTime::from_secs(latency));
            }
            if g.streams == 0 {
                continue;
            }
            // Per-stream cap: a single connection cannot stripe both ports.
            let stream_bw = self.machine.nic.per_stream_bw;
            // Fair share of the saturating endpoint aggregates.
            let src_share = self.machine.node_net_bw(g.src_node)
                / f64::from(scratch.egress_streams[g.src_node].max(1));
            let dst_share = self.machine.node_net_bw(g.dst_node)
                / f64::from(scratch.ingress_streams[g.dst_node].max(1));
            let bw = stream_bw.min(src_share).min(dst_share);
            let t = SimTime::from_secs(latency + g.max_bytes as f64 / bw);
            worst = worst.max(t);
        }

        // Endpoint aggregates can also bind when shares are uneven.
        for n in 0..nodes {
            let agg = self.machine.node_net_bw(n);
            let t_out = SimTime::from_secs(scratch.egress[n] as f64 / agg);
            let t_in = SimTime::from_secs(scratch.ingress[n] as f64 / agg);
            worst = worst.max(t_out).max(t_in);
        }
        worst
    }

    /// The machine this solver models.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::presets;

    fn solver(nodes: usize) -> FlowSolver {
        FlowSolver::new(&presets::xeon_x7550_cluster(nodes))
    }

    #[test]
    fn empty_round_is_free() {
        assert_eq!(solver(2).round_time(&[]), SimTime::ZERO);
    }

    #[test]
    fn single_flow_is_stream_capped() {
        let s = solver(2);
        let bytes = 1u64 << 30;
        let t = s.round_time(&[Flow::new(0, 1, bytes)]);
        let expect = s.machine().nic.latency_s
            + bytes as f64
                / s.machine()
                    .nic
                    .per_stream_bw
                    .min(s.machine().node_net_bw(0));
        assert!((t.as_secs() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn parallel_streams_beat_single_stream() {
        // Heart of Fig. 4 / Section III.B: the same total bytes move faster
        // when split over many concurrent streams, up to port saturation.
        let s = solver(2);
        let total = 1u64 << 30;
        let one = s.round_time(&[Flow::new(0, 1, total)]);
        let eight: Vec<Flow> = (0..8).map(|_| Flow::new(0, 1, total / 8)).collect();
        let eight_t = s.round_time(&eight);
        let speedup = one / eight_t;
        assert!(
            (1.5..=2.4).contains(&speedup),
            "8-stream speedup {speedup} outside the Fig. 4 band (~2x)"
        );
    }

    #[test]
    fn aggregate_egress_binds() {
        // One node sending to many: limited by its own aggregate, not by
        // the receivers.
        let s = solver(4);
        let per = 1u64 << 28;
        let flows: Vec<Flow> = (1..4).map(|d| Flow::new(0, d, per)).collect();
        let t = s.round_time(&flows);
        let floor = (3 * per) as f64 / s.machine().node_net_bw(0);
        assert!(t.as_secs() >= floor * 0.999);
    }

    #[test]
    fn weak_node_slows_its_flows_only() {
        let m = presets::xeon_x7550_cluster(4).with_weak_node(2, 0.4);
        let s = FlowSolver::new(&m);
        let bytes = 1u64 << 29;
        let healthy = s.round_time(&[Flow::new(0, 1, bytes)]);
        let weak_src = s.round_time(&[Flow::new(2, 1, bytes)]);
        let weak_dst = s.round_time(&[Flow::new(0, 2, bytes)]);
        assert!(weak_src > healthy);
        assert!(weak_dst > healthy);
        // An unrelated pair is unaffected.
        let other = s.round_time(&[Flow::new(3, 1, bytes)]);
        assert_eq!(other, healthy);
    }

    #[test]
    fn disjoint_pairs_run_fully_parallel() {
        let s = solver(4);
        let bytes = 1u64 << 29;
        let single = s.round_time(&[Flow::new(0, 1, bytes)]);
        let pairs = s.round_time(&[Flow::new(0, 1, bytes), Flow::new(2, 3, bytes)]);
        assert_eq!(single, pairs, "disjoint pairs must not slow each other");
    }

    #[test]
    #[should_panic(expected = "use shm_copy_time")]
    fn intra_node_flow_rejected() {
        solver(2).round_time(&[Flow::new(1, 1, 100)]);
    }

    #[test]
    fn latency_floors_small_messages() {
        let s = solver(2);
        let t = s.round_time(&[Flow::new(0, 1, 1)]);
        assert!(t.as_secs() >= s.machine().nic.latency_s);
    }
}

//! Node-level communication costs: inter-node rounds and intra-node copies.
//!
//! [`NetworkModel`] is the single entry point `nbfs-comm` uses to cost its
//! collective algorithms. It wraps the [`FlowSolver`] for wire transfers and
//! adds the *intra-node* side: the gather/broadcast steps of the classic
//! leader-based allgather are `memcpy`s through the node's memory system,
//! and Fig. 6 of the paper shows precisely those copies dominating — which
//! is what the shared-`in_queue`/`out_queue` optimization deletes.

use nbfs_topology::MachineConfig;
use nbfs_util::SimTime;

use crate::flows::{Flow, FlowGroup, FlowSolver, RoundScratch};

/// Communication cost model for one machine.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    machine: MachineConfig,
    solver: FlowSolver,
}

impl NetworkModel {
    /// Builds the model.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            machine: machine.clone(),
            solver: FlowSolver::new(machine),
        }
    }

    /// Completion time of one round of concurrent inter-node flows.
    pub fn round_time(&self, flows: &[Flow]) -> SimTime {
        self.solver.round_time(flows)
    }

    /// Completion time of one round given as node-pair flow groups (see
    /// [`FlowSolver::round_time_grouped`]).
    pub fn round_time_grouped(&self, groups: &[FlowGroup], scratch: &mut RoundScratch) -> SimTime {
        self.solver.round_time_grouped(groups, scratch)
    }

    /// Time for `copiers` concurrent threads (across one node) to each copy
    /// `bytes_per_copier` through shared memory, reading from buffers spread
    /// over `source_sockets` sockets' memory.
    ///
    /// Three limits apply: one core's copy bandwidth, the node aggregate
    /// (each copy reads and writes every byte), and — crucially for Fig. 6 —
    /// the *source* sockets' memory controllers. The broadcast step of a
    /// leader-based allgather has all children reading the leader's buffer,
    /// so a single socket's controller feeds every copier; that is why "the
    /// communication time spent within nodes may take an unexpectedly high
    /// percentage" \[23\] (paper Section II.D.2).
    pub fn shm_copy_time(
        &self,
        bytes_per_copier: u64,
        copiers: usize,
        source_sockets: usize,
    ) -> SimTime {
        if bytes_per_copier == 0 || copiers == 0 {
            return SimTime::ZERO;
        }
        let src = source_sockets.clamp(1, self.machine.sockets_per_node);
        let per_core = self.machine.shm_copy_bw;
        let aggregate = self.machine.node_mem_bw() / 2.0; // read + write
        let source_bw = self.machine.socket.mem_bw * src as f64;
        let per_copier_bw = per_core
            .min(aggregate / copiers as f64)
            .min(source_bw / copiers as f64);
        // Per-operation software overhead (pinning, queueing).
        SimTime::from_secs(self.machine.sw_overhead_s + bytes_per_copier as f64 / per_copier_bw)
    }

    /// The modelled machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::presets;

    fn model() -> NetworkModel {
        NetworkModel::new(&presets::cluster2012())
    }

    #[test]
    fn copy_scales_until_memory_saturates() {
        let m = model();
        let bytes = 64u64 << 20;
        let one = m.shm_copy_time(bytes, 1, 8);
        let eight = m.shm_copy_time(bytes, 8, 8);
        // 8 concurrent copiers each move the same bytes; per-copier slowdown
        // must stay below 8x (they share a big aggregate) but cannot be free.
        assert!(eight >= one);
        let many = m.shm_copy_time(bytes, 64, 8);
        assert!(many > eight, "64 copiers must contend harder");
    }

    #[test]
    fn single_source_socket_throttles_fanout() {
        // The Fig. 6 mechanism: many copiers draining one socket's memory.
        let m = model();
        let bytes = 64u64 << 20;
        let spread = m.shm_copy_time(bytes, 7, 7);
        let single = m.shm_copy_time(bytes, 7, 1);
        assert!(single > spread, "single-source fan-out must be slower");
    }

    #[test]
    fn copy_zero_is_free() {
        assert_eq!(model().shm_copy_time(0, 8, 1), SimTime::ZERO);
        assert_eq!(model().shm_copy_time(100, 0, 1), SimTime::ZERO);
    }

    #[test]
    fn fig6_regime_intra_node_copies_rival_the_wire() {
        // Fig. 6: for a 512 MB allgather over 16 nodes x 8 ranks, the
        // leader-based gather+broadcast copies inside a node take *longer*
        // than the inter-node exchange. Reproduce the ordering.
        let m = model();
        let total: u64 = 512 << 20;
        let nodes = 16u64;
        let ppn = 8u64;
        let per_rank = total / (nodes * ppn);

        // Step 1: gather children -> leader (7 copies of per_rank, leader does them).
        let gather = m.shm_copy_time(per_rank * (ppn - 1), 1, (ppn - 1) as usize);
        // Step 3: broadcast full buffer to 7 children, all reading the
        // leader's socket (each child copies total bytes).
        let bcast = m.shm_copy_time(total, (ppn - 1) as usize, 1);
        let intra = gather + bcast;

        // Step 2: ring allgather between leaders: each leader sends
        // total/nodes bytes 15 times.
        let per_node = total / nodes;
        let mut inter = SimTime::ZERO;
        for _ in 0..nodes - 1 {
            let flows: Vec<Flow> = (0..nodes as usize)
                .map(|n| Flow::new(n, (n + 1) % nodes as usize, per_node))
                .collect();
            inter += m.round_time(&flows);
        }

        assert!(
            intra > inter,
            "intra-node {:?} must dominate inter-node {:?} as in Fig. 6",
            intra,
            inter
        );
    }
}

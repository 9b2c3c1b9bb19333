//! The small collective: allreduce.
//!
//! It carries control data (frontier population counts, termination
//! flags), not bitmaps, so it is latency-dominated. The hybrid switch
//! heuristic calls an allreduce every level to learn the global frontier
//! size before choosing top-down vs bottom-up.

use nbfs_simnet::NetworkModel;
use nbfs_topology::ProcessMap;
use nbfs_trace::{CollectiveStats, CommCost};
use nbfs_util::SimTime;

use crate::fault::FaultEdge;

/// Result of an allreduce.
#[derive(Clone, Debug, PartialEq)]
pub struct AllreduceOutcome {
    /// The reduced value, identical on every rank.
    pub value: u64,
    /// Charged time.
    pub cost: CommCost,
    /// Volume tally for the run-event layer (rounds, flows, bytes).
    pub stats: CollectiveStats,
}

/// Sums `contributions[i]` (one value per rank) with a recursive-doubling
/// tree over the node leaders plus a shared-memory tree inside each node;
/// every rank learns the total. When `edges` is given, the leader
/// transfers of the tree are appended to it for the fault layer.
pub fn allreduce_sum(
    contributions: &[u64],
    pmap: &ProcessMap,
    net: &NetworkModel,
    mut edges: Option<&mut Vec<FaultEdge>>,
) -> AllreduceOutcome {
    assert_eq!(contributions.len(), pmap.world_size());
    let value = contributions.iter().sum();
    // 8-byte payloads: pure latency. In wire round `k` node `n` exchanges
    // one value with node `n ^ 2^k`; a partner past the last node (a
    // non-power-of-two count) sits the round out.
    let nodes = pmap.nodes();
    let (mut node_rounds, mut flows) = (0u32, 0u64);
    while (1usize << node_rounds) < nodes {
        for n in 0..nodes {
            let partner = n ^ (1usize << node_rounds);
            if partner < nodes {
                flows += 1;
                if let Some(edges) = edges.as_deref_mut() {
                    edges.push(FaultEdge::new(
                        u64::from(node_rounds),
                        pmap.leader_of_node(n),
                        pmap.leader_of_node(partner),
                    ));
                }
            }
        }
        node_rounds += 1;
    }
    let wire = SimTime::from_secs(net.machine().nic.latency_s * 2.0 * f64::from(node_rounds));
    let shm_rounds = pmap.ppn().next_power_of_two().trailing_zeros();
    let shm = SimTime::from_secs(0.5 * net.machine().sw_overhead_s * f64::from(shm_rounds));
    // Every shm round touches one value per rank. The 8-byte control
    // values are never codec-compressed.
    let stats = CollectiveStats {
        rounds: u64::from(node_rounds + shm_rounds),
        flows,
        wire_bytes: 8 * flows,
        shm_bytes: 8 * u64::from(shm_rounds) * pmap.world_size() as u64,
        raw_bytes: 8 * flows,
    };
    AllreduceOutcome {
        value,
        cost: CommCost::inter_only(wire + shm),
        stats,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::{presets, PlacementPolicy, ProcessMap};

    #[test]
    fn allreduce_sums_correctly() {
        let m = presets::xeon_x7550_cluster(4);
        let pmap = ProcessMap::new(&m, 8, PlacementPolicy::BindToSocket);
        let net = NetworkModel::new(&m);
        let vals: Vec<u64> = (0..32).collect();
        let out = allreduce_sum(&vals, &pmap, &net, None);
        assert_eq!(out.value, 31 * 32 / 2);
        assert!(out.cost.total() > SimTime::ZERO);
        assert!(
            out.cost.total() < SimTime::from_micros(100.0),
            "allreduce must be latency-scale"
        );
    }

    #[test]
    fn an_odd_node_count_tallies_the_transfers_it_lists() {
        // Three nodes: round 0 pairs nodes 0 and 1 while node 2 has no
        // partner; round 1 pairs nodes 0 and 2 while node 1 has none.
        let m = presets::xeon_x7550_cluster(3);
        let pmap = ProcessMap::new(&m, 8, PlacementPolicy::BindToSocket);
        let net = NetworkModel::new(&m);
        let mut edges = Vec::new();
        let out = allreduce_sum(&[1; 24], &pmap, &net, Some(&mut edges));
        let listed: Vec<(u64, usize, usize)> =
            edges.iter().map(|e| (e.round, e.src, e.dst)).collect();
        assert_eq!(listed, [(0, 0, 8), (0, 8, 0), (1, 0, 16), (1, 16, 0)]);
        assert_eq!(out.stats.flows, 4);
        assert_eq!(out.stats.wire_bytes, 4 * 8);
        assert_eq!(out.stats.rounds, 2 + 3, "two wire rounds + log2(8) shm");
        assert_eq!(out.cost, allreduce_sum(&[1; 24], &pmap, &net, None).cost);
    }
}

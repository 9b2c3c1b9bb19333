//! The small collective: allreduce.
//!
//! It carries control data (frontier population counts, termination
//! flags), not bitmaps, so it is latency-dominated. The hybrid switch
//! heuristic calls an allreduce every level to learn the global frontier
//! size before choosing top-down vs bottom-up.

use nbfs_simnet::NetworkModel;
use nbfs_topology::ProcessMap;
use nbfs_trace::CollectiveStats;
use nbfs_util::SimTime;

use crate::profile::CommCost;

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
/// tree; every rank learns the total.
pub fn allreduce_sum(
    contributions: &[u64],
    pmap: &ProcessMap,
    net: &NetworkModel,
) -> AllreduceOutcome {
    assert_eq!(contributions.len(), pmap.world_size());
    let value = contributions.iter().sum();
    // 8-byte payloads: pure latency. ceil(log2(nodes)) wire rounds + shm
    // rounds.
    let ceil_log2 = |k: usize| k.max(1).next_power_of_two().trailing_zeros();
    let node_rounds = ceil_log2(pmap.nodes());
    let wire = SimTime::from_secs(net.machine().nic.latency_s * 2.0 * f64::from(node_rounds));
    let shm_rounds = ceil_log2(pmap.ppn());
    let shm = SimTime::from_secs(0.5 * net.machine().sw_overhead_s * f64::from(shm_rounds));
    // Volume tally mirrors the tree shape: every wire round exchanges one
    // 8-byte value per node both ways; every shm round touches one value
    // per rank.
    let wire_rounds = u64::from(node_rounds);
    let stats = CollectiveStats {
        rounds: wire_rounds + u64::from(shm_rounds),
        flows: wire_rounds * pmap.nodes() as u64,
        wire_bytes: 8 * wire_rounds * pmap.nodes() as u64,
        shm_bytes: 8 * u64::from(shm_rounds) * pmap.world_size() as u64,
        // The 8-byte control values are never codec-compressed.
        raw_bytes: 8 * wire_rounds * pmap.nodes() as u64,
    };
    AllreduceOutcome {
        value,
        cost: CommCost::inter_only(wire + shm),
        stats,
    }
}

/// Fault-layer twin of the allreduce: resolves `plan` against the
/// leader-level recursive-doubling schedule (`fault::allreduce_edges`),
/// charging retransmit + backoff penalties against the supplied cost
/// sample.
pub fn inject_allreduce_faults(
    plan: &crate::fault::FaultPlan,
    level: usize,
    pmap: &ProcessMap,
    cost: &CommCost,
    stats: &CollectiveStats,
) -> crate::fault::FaultAdjustment {
    crate::fault::inject_collective(
        plan,
        level,
        nbfs_trace::CollectiveKind::Allreduce,
        &crate::fault::allreduce_edges(pmap),
        cost,
        stats,
    )
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
        let out = allreduce_sum(&vals, &pmap, &net);
        assert_eq!(out.value, 31 * 32 / 2);
        assert!(out.cost.total() > SimTime::ZERO);
        assert!(
            out.cost.total() < SimTime::from_micros(100.0),
            "allreduce must be latency-scale"
        );
    }
}

//! Allgather algorithms over word (bitmap) buffers.
//!
//! The frontier reassembly of Fig. 1 — "all processes need to perform
//! *allgather* to construct the next frontier" — is the paper's entire
//! communication phase, and each optimization of Section III is a different
//! allgather algorithm. Every variant here produces the *same* result (the
//! rank-order concatenation of the input segments; word-aligned partitions
//! make that exact) but charges different simulated time, split into the
//! Fig. 5a steps by [`CommCost`].
//!
//! Each algorithm is one walk over its rounds: the loop that prices a
//! round also tallies its volume ([`CollectiveStats`]) and, under a fault
//! plan, lists its rank-to-rank transfers ([`FaultEdge`]), so the price,
//! the trace and the fault schedule cannot drift apart.
//!
//! Cost conventions:
//!
//! * Intra-node hops go through a shared-memory staging buffer, as in Open
//!   MPI's `sm` BTL: copy-in plus copy-out, i.e. two traversals of the
//!   payload (`shm_msg` below).
//! * Inter-node rounds are priced by the [`NetworkModel`]'s flow solver,
//!   which enforces the per-stream cap and per-node aggregate of Fig. 4.
//!   A zero-byte flow is still priced (the solver charges it a latency)
//!   but carries no volume in the tally. A round's flows between one node
//!   pair are handed to the solver as one [`FlowGroup`], which prices them
//!   bit for bit as if they were listed one by one, so the parallel
//!   allgather's round costs O(nodes), not O(ranks).
//! * A ring round's time is its slowest hop (the ring is a synchronous
//!   pipeline), and rounds are sequential.

use nbfs_simnet::{Flow, FlowGroup, NetworkModel, RoundScratch};
use nbfs_topology::ProcessMap;
use nbfs_trace::{CollectiveStats, CommCost};
use nbfs_util::SimTime;
use serde::{Deserialize, Serialize};

use crate::fault::FaultEdge;

/// The allgather algorithm ladder (see crate docs for the paper mapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllgatherAlgorithm {
    /// Flat ring over all ranks — Open MPI's default for large messages,
    /// used by the paper's `Original` implementation.
    Ring,
    /// Leader-based three-step allgather (Mamidala et al. \[31\], Fig. 5a):
    /// gather to leader, leader ring, broadcast to children.
    LeaderBased,
    /// Shared destination buffer (`Share in_queue`, Fig. 5b): children push
    /// segments to the leader, leaders ring, children read the shared
    /// result in place — step 3 eliminated.
    SharedDest,
    /// Shared source and destination (`Share all`): leaders send straight
    /// out of the node-shared `out_queue` segments — steps 1 and 3
    /// eliminated.
    SharedBoth,
    /// Parallelized allgather (Fig. 7): every rank joins the subgroup of
    /// its node-local index; each subgroup rings its slice of the data
    /// concurrently, saturating both IB ports. Implies shared buffers.
    ParallelSubgroup,
}

impl AllgatherAlgorithm {
    /// Figure label used in the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            AllgatherAlgorithm::Ring => "ring (Open MPI default)",
            AllgatherAlgorithm::LeaderBased => "leader-based",
            AllgatherAlgorithm::SharedDest => "share in_queue",
            AllgatherAlgorithm::SharedBoth => "share all",
            AllgatherAlgorithm::ParallelSubgroup => "parallel allgather",
        }
    }
}

/// Effective payload traversals per intra-node hop: Open MPI's `sm` BTL
/// copies into and out of a staging buffer, but pipelines the two copies
/// over chunks, so a hop costs ~1.5 traversals rather than 2.
const SHM_PIPELINE_TRAVERSALS: f64 = 1.5;

/// Intra-node message time through an `sm`-style staging buffer:
/// pipelined copy-in + copy-out of `bytes`, `copiers` ranks of the node
/// doing this concurrently, sources spread over `src_sockets` sockets
/// (clamped to the node's sockets by the model).
fn shm_msg(net: &NetworkModel, bytes: u64, copiers: usize, src_sockets: usize) -> SimTime {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "1.5x a message's byte count stays far below 2^64"
    )]
    let effective = (bytes as f64 * SHM_PIPELINE_TRAVERSALS) as u64;
    net.shm_copy_time(effective, copiers, src_sockets)
}

/// Concatenates the per-rank word segments into `dst` (which must hold
/// exactly the total word count) and returns the cost of moving them
/// with `algo`. `parts[i]` is rank `i`'s segment (its slice of
/// `out_queue` in Fig. 1); segments may have different lengths (the
/// final partition block is usually shorter).
///
/// ```
/// use nbfs_comm::allgather::{allgather_words_into, AllgatherAlgorithm};
/// use nbfs_simnet::NetworkModel;
/// use nbfs_topology::{presets, PlacementPolicy, ProcessMap};
///
/// let machine = presets::xeon_x7550_cluster(2);
/// let pmap = ProcessMap::new(&machine, 8, PlacementPolicy::BindToSocket);
/// let net = NetworkModel::new(&machine);
/// let parts: Vec<Vec<u64>> = (0..16).map(|r| vec![r as u64]).collect();
/// let refs: Vec<&[u64]> = parts.iter().map(Vec::as_slice).collect();
/// let mut words = vec![0; 16];
/// let algo = AllgatherAlgorithm::ParallelSubgroup;
/// let cost = allgather_words_into(&mut words, &refs, &pmap, &net, algo);
/// assert_eq!(words, (0..16).collect::<Vec<u64>>());
/// assert!(cost.total().as_secs() > 0.0);
/// ```
pub fn allgather_words_into(
    dst: &mut [u64],
    parts: &[&[u64]],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
) -> CommCost {
    let bytes: Vec<u64> = parts.iter().map(|p| p.len() as u64 * 8).collect();
    concat_into(dst, parts, pmap);
    allgather_cost_bytes(&bytes, pmap, net, algo)
}

/// The data movement of every word allgather: the rank-order
/// concatenation of `parts` into `dst`.
pub(crate) fn concat_into(dst: &mut [u64], parts: &[&[u64]], pmap: &ProcessMap) {
    assert_eq!(parts.len(), pmap.world_size(), "need one segment per rank");
    let total: usize = parts.iter().map(|p| p.len()).sum();
    assert_eq!(
        dst.len(),
        total,
        "dst must hold exactly the concatenated segments"
    );
    // hot-path
    // The allgather level loop: every bottom-up level concatenates all
    // ranks' out_queue segments into the receiving bitmap's own words.
    // Persistent destination, caller-owned sources, no heap.
    let mut at = 0usize;
    for p in parts {
        dst[at..at + p.len()].copy_from_slice(p);
        at += p.len();
    }
    // end-hot-path
}

/// Cost of allgathering segments of the given byte sizes (one per rank)
/// without materializing them — used for secondary payloads like
/// `in_queue_summary`, whose sub-word segment boundaries make a literal
/// word-concatenation awkward but whose *cost* is exactly a smaller
/// allgather (the paper: "the size of in_queue is 64 times of
/// in_queue_summary").
pub fn allgather_cost_bytes(
    bytes: &[u64],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
) -> CommCost {
    walk(bytes, pmap, Some(net), algo, None).0
}

/// One walk of `algo` over segments whose wire sizes are `wire` (one per
/// rank): the cost, the volume tally and, when `edges` is given, the
/// transfer schedule the fault layer resolves (appended in round order;
/// a hierarchical algorithm's round index counts its leader-ring rounds
/// only).
///
/// `raw` holds the same segments' uncompressed sizes. When a codec shrank
/// them, a tally-only pass over `raw` fills `stats.raw_bytes`; otherwise
/// it equals `stats.wire_bytes`.
pub fn allgather_sizes(
    wire: &[u64],
    raw: &[u64],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
    edges: Option<&mut Vec<FaultEdge>>,
) -> (CommCost, CollectiveStats) {
    let (cost, mut stats) = walk(wire, pmap, Some(net), algo, edges);
    if raw != wire {
        stats.raw_bytes = walk(raw, pmap, None, algo, None).1.wire_bytes;
    }
    (cost, stats)
}

/// Walks `algo`'s rounds once; without `net` the pass only tallies.
fn walk(
    bytes: &[u64],
    pmap: &ProcessMap,
    net: Option<&NetworkModel>,
    algo: AllgatherAlgorithm,
    edges: Option<&mut Vec<FaultEdge>>,
) -> (CommCost, CollectiveStats) {
    assert_eq!(bytes.len(), pmap.world_size(), "one size per rank");
    let mut w = Walk {
        pmap,
        net,
        edges,
        groups: Vec::new(),
        scratch: RoundScratch::default(),
        cost: CommCost::ZERO,
        stats: CollectiveStats::ZERO,
    };
    match algo {
        AllgatherAlgorithm::Ring => w.ring(bytes),
        AllgatherAlgorithm::LeaderBased => w.hierarchical(bytes, true, true),
        AllgatherAlgorithm::SharedDest => w.hierarchical(bytes, true, false),
        AllgatherAlgorithm::SharedBoth => w.hierarchical(bytes, false, false),
        AllgatherAlgorithm::ParallelSubgroup => w.parallel(bytes),
    }
    w.stats.raw_bytes = w.stats.wire_bytes;
    (w.cost, w.stats)
}

/// The state of one walk: the cost and tally so far, the current round's
/// wire flow groups, the solver's scratch, and the edge sink.
struct Walk<'a> {
    pmap: &'a ProcessMap,
    net: Option<&'a NetworkModel>,
    edges: Option<&'a mut Vec<FaultEdge>>,
    groups: Vec<FlowGroup>,
    scratch: RoundScratch,
    cost: CommCost,
    stats: CollectiveStats,
}

impl Walk<'_> {
    /// Lists the transfer `src -> dst` of round `round` for the fault
    /// layer.
    fn edge(&mut self, round: usize, src: usize, dst: usize) {
        if let Some(edges) = self.edges.as_deref_mut() {
            edges.push(FaultEdge::new(round as u64, src, dst));
        }
    }

    /// Adds one inter-node flow to the current round.
    fn wire(&mut self, src_node: usize, dst_node: usize, bytes: u64) {
        self.wire_group(Flow::new(src_node, dst_node, bytes).into());
    }

    /// Adds one node pair's flows to the current round.
    fn wire_group(&mut self, group: FlowGroup) {
        if self.net.is_some() {
            self.groups.push(group);
        }
        self.stats.flows += u64::from(group.streams());
        self.stats.wire_bytes += group.bytes();
    }

    /// Closes a round and returns its wire time.
    fn end_round(&mut self) -> SimTime {
        self.stats.rounds += 1;
        let time = self.net.map_or(SimTime::ZERO, |net| {
            net.round_time_grouped(&self.groups, &mut self.scratch)
        });
        self.groups.clear();
        time
    }

    /// Prices one intra-node message (see [`shm_msg`]).
    fn shm(&self, bytes: u64, copiers: usize, src_sockets: usize) -> SimTime {
        self.net.map_or(SimTime::ZERO, |net| {
            shm_msg(net, bytes, copiers, src_sockets)
        })
    }

    /// Flat ring over all ranks: `np - 1` rounds; in round `r` rank `i`
    /// forwards chunk `(i - r) mod np` to rank `(i + 1) mod np`.
    fn ring(&mut self, bytes: &[u64]) {
        let np = bytes.len();
        let nodes = self.pmap.nodes();
        let mut shm_copiers = vec![0usize; nodes];
        let mut shm_max_bytes = vec![0u64; nodes];
        for r in 0..np.saturating_sub(1) {
            shm_copiers.fill(0);
            shm_max_bytes.fill(0);
            for i in 0..np {
                let dst = (i + 1) % np;
                let chunk = bytes[(i + np - r) % np];
                let (sn, dn) = (self.pmap.node_of(i), self.pmap.node_of(dst));
                self.edge(r, i, dst);
                if sn == dn {
                    shm_copiers[sn] += 1;
                    shm_max_bytes[sn] = shm_max_bytes[sn].max(chunk);
                    self.stats.shm_bytes += chunk;
                } else {
                    self.wire(sn, dn, chunk);
                }
            }
            let wire = self.end_round();
            let shm = (0..nodes)
                .map(|n| self.shm(shm_max_bytes[n], shm_copiers[n].max(1), shm_copiers[n]))
                .fold(SimTime::ZERO, SimTime::max);
            // A ring round is a synchronous pipeline stage: the slowest
            // hop gates it. Attribute the whole round to whichever medium
            // gated it.
            if wire >= shm {
                self.cost.inter += wire;
            } else {
                self.cost.intra_gather += shm;
            }
        }
    }

    /// The three-step hierarchy of Fig. 5a/5b. `gather`/`bcast` toggle
    /// steps 1 and 3; the inter-node step is a ring over node blocks.
    fn hierarchical(&mut self, bytes: &[u64], gather: bool, bcast: bool) {
        let pmap = self.pmap;
        let (nodes, ppn) = (pmap.nodes(), pmap.ppn());

        // Step 1: children push their segments into the leader's staging.
        if gather && ppn > 1 {
            let children = (0..bytes.len())
                .filter(|&i| !pmap.is_leader(i))
                .map(|i| bytes[i]);
            let max_child = children.clone().max().unwrap_or(0);
            self.stats.rounds += 1;
            self.stats.shm_bytes += children.sum::<u64>();
            self.cost.intra_gather = self.shm(max_child, ppn - 1, ppn - 1);
        }

        // Step 2: ring over the leaders, chunk = one node's block.
        let node_block = |n: usize| -> u64 { bytes[pmap.ranks_of_node(n)].iter().sum() };
        for r in 0..nodes.saturating_sub(1) {
            for n in 0..nodes {
                let next = (n + 1) % nodes;
                self.edge(r, pmap.leader_of_node(n), pmap.leader_of_node(next));
                self.wire(n, next, node_block((n + nodes - r) % nodes));
            }
            let wire = self.end_round();
            self.cost.inter += wire;
        }

        // Step 3: every child copies the full result from the leader's
        // buffer, all draining one socket's memory — the Fig. 6
        // bottleneck.
        if bcast && ppn > 1 {
            let total: u64 = bytes.iter().sum();
            self.stats.rounds += 1;
            self.stats.shm_bytes += (nodes * (ppn - 1)) as u64 * total;
            self.cost.intra_bcast = self.shm(total, ppn - 1, 1);
        }
    }

    /// The parallelized allgather of Fig. 7: the `ppn` subgroups (one per
    /// node-local index) each ring their rank's segments concurrently.
    /// Shared buffers are implied, so there are no intra-node steps.
    ///
    /// In round `r` subgroup `j` on node `n` forwards node `(n - r)`'s
    /// segment `j` to node `n + 1`, so the round's flows from `n` are
    /// exactly the origin node's `ppn` segments: each origin is summarised
    /// into one [`FlowGroup`] once, and a round prices `nodes` groups.
    ///
    /// Every round sends each origin group once, and each node sends one
    /// group and receives one. With no weak node every node has the same
    /// network bandwidth, so a group's price depends on the group alone
    /// and every round prices to the bits of round 0 (DESIGN.md §2): round
    /// 0 is priced and its wire time is added once per round, in round
    /// order. A weak-node map prices every round.
    fn parallel(&mut self, bytes: &[u64]) {
        let pmap = self.pmap;
        let (nodes, ppn) = (pmap.nodes(), pmap.ppn());
        let uniform = self.net.is_none_or(|net| net.machine().weak_node.is_none());
        // The node pair of an origin's group is set per round.
        let origins: Vec<FlowGroup> = (0..nodes)
            .map(|o| {
                let mut group = FlowGroup::default();
                for &b in &bytes[pmap.ranks_of_node(o)] {
                    group.add(b);
                }
                group
            })
            .collect();
        // What every round carries: each origin group once.
        let (round_flows, round_bytes) = origins.iter().fold((0, 0), |(flows, bytes), g| {
            (flows + u64::from(g.streams()), bytes + g.bytes())
        });
        let mut round_wire = None;
        // hot-path
        // The round loop: every top-down level of a cluster run walks it
        // (`nodes - 1` rounds). A priced round costs `nodes` groups in the
        // walk's recycled buffers; a repeated one costs a few additions.
        for r in 0..nodes.saturating_sub(1) {
            if self.edges.is_some() {
                for n in 0..nodes {
                    let next = (n + 1) % nodes;
                    let (src, dst) = (pmap.leader_of_node(n), pmap.leader_of_node(next));
                    for j in 0..ppn {
                        self.edge(r, src + j, dst + j);
                    }
                }
            }
            let wire = match round_wire {
                Some(wire) => {
                    self.stats.rounds += 1;
                    self.stats.flows += round_flows;
                    self.stats.wire_bytes += round_bytes;
                    wire
                }
                None => {
                    for n in 0..nodes {
                        let mut group = origins[(n + nodes - r) % nodes];
                        (group.src_node, group.dst_node) = (n, (n + 1) % nodes);
                        self.wire_group(group);
                    }
                    let wire = self.end_round();
                    if uniform {
                        round_wire = Some(wire);
                    }
                    wire
                }
            };
            self.cost.inter += wire;
        }
        // end-hot-path
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::{presets, MachineConfig, PlacementPolicy, ProcessMap};

    const ALGOS: [AllgatherAlgorithm; 5] = [
        AllgatherAlgorithm::Ring,
        AllgatherAlgorithm::LeaderBased,
        AllgatherAlgorithm::SharedDest,
        AllgatherAlgorithm::SharedBoth,
        AllgatherAlgorithm::ParallelSubgroup,
    ];

    fn setup(nodes: usize, ppn: usize) -> (MachineConfig, ProcessMap, NetworkModel) {
        let m = presets::xeon_x7550_cluster(nodes);
        let policy = if ppn == 8 {
            PlacementPolicy::BindToSocket
        } else {
            PlacementPolicy::Interleave
        };
        let pmap = ProcessMap::new(&m, ppn, policy);
        let net = NetworkModel::new(&m);
        (m, pmap, net)
    }

    fn equal_parts(np: usize, words_each: usize) -> Vec<Vec<u64>> {
        (0..np)
            .map(|i| (0..words_each).map(|w| (i * 1000 + w) as u64).collect())
            .collect()
    }

    fn sizes(parts: &[Vec<u64>]) -> Vec<u64> {
        parts.iter().map(|p| p.len() as u64 * 8).collect()
    }

    fn cost(
        parts: &[Vec<u64>],
        pmap: &ProcessMap,
        net: &NetworkModel,
        algo: AllgatherAlgorithm,
    ) -> CommCost {
        allgather_cost_bytes(&sizes(parts), pmap, net, algo)
    }

    /// One walk with its edge list.
    fn walk_with_edges(
        bytes: &[u64],
        pmap: &ProcessMap,
        net: &NetworkModel,
        algo: AllgatherAlgorithm,
    ) -> (CommCost, CollectiveStats, Vec<FaultEdge>) {
        let mut edges = Vec::new();
        let (cost, stats) = allgather_sizes(bytes, bytes, pmap, net, algo, Some(&mut edges));
        (cost, stats, edges)
    }

    /// Test oracle: a *functional* flat-ring allgather that actually shuttles
    /// chunks between per-rank staging buffers round by round, returning every
    /// rank's final buffer. Used to prove the one-shot concatenation of
    /// [`allgather_words_into`] matches what the distributed algorithm would
    /// build.
    fn ring_allgather_functional(parts: &[Vec<u64>]) -> Vec<Vec<Vec<u64>>> {
        let np = parts.len();
        // have[i][c] = chunk c if rank i holds it.
        let mut have: Vec<Vec<Option<Vec<u64>>>> = (0..np)
            .map(|i| {
                (0..np)
                    .map(|c| if c == i { Some(parts[c].clone()) } else { None })
                    .collect()
            })
            .collect();
        for r in 0..np.saturating_sub(1) {
            let moves: Vec<(usize, usize, usize)> = (0..np)
                .map(|i| (i, (i + 1) % np, (i + np - r) % np))
                .collect();
            for (src, dst, chunk) in moves {
                let data = have[src][chunk].clone().expect("ring invariant broken");
                have[dst][chunk] = Some(data);
            }
        }
        have.into_iter()
            .map(|row| row.into_iter().map(|c| c.expect("chunk missing")).collect())
            .collect()
    }

    #[test]
    fn all_algorithms_produce_the_same_words() {
        let (_, pmap, net) = setup(4, 8);
        let mut parts = equal_parts(32, 7);
        parts[31].truncate(3); // ragged tail segment
        let refs: Vec<&[u64]> = parts.iter().map(Vec::as_slice).collect();
        let expect: Vec<u64> = parts.iter().flatten().copied().collect();
        for algo in ALGOS {
            let mut dst = vec![u64::MAX; expect.len()];
            let c = allgather_words_into(&mut dst, &refs, &pmap, &net, algo);
            assert_eq!(dst, expect, "{algo:?}");
            assert_eq!(c, cost(&parts, &pmap, &net, algo), "{algo:?}");
            assert!(c.total() > SimTime::ZERO, "{algo:?} must cost time");
        }
    }

    #[test]
    fn functional_ring_matches_concatenation() {
        let parts = equal_parts(6, 3);
        let expect: Vec<u64> = parts.iter().flatten().copied().collect();
        for buf in ring_allgather_functional(&parts) {
            let flat: Vec<u64> = buf.into_iter().flatten().collect();
            assert_eq!(flat, expect);
        }
    }

    #[test]
    fn optimization_ladder_monotonically_cheapens() {
        // Fig. 13's heart: each optimization must strictly reduce the cost
        // of a large allgather in the paper's regime.
        let (_, pmap, net) = setup(8, 8);
        // 32 MiB total across 64 ranks (scale-28-like in_queue at 8 nodes,
        // scaled down with everything else).
        let words_each = 32 * 1024 * 1024 / 8 / 64;
        let parts = equal_parts(64, words_each);
        let cost = |algo| cost(&parts, &pmap, &net, algo).total();
        let ring = cost(AllgatherAlgorithm::Ring);
        let leader = cost(AllgatherAlgorithm::LeaderBased);
        let shared = cost(AllgatherAlgorithm::SharedDest);
        let shared_all = cost(AllgatherAlgorithm::SharedBoth);
        let par = cost(AllgatherAlgorithm::ParallelSubgroup);
        assert!(
            shared < leader,
            "shared dest {shared:?} < leader {leader:?}"
        );
        assert!(shared_all < shared, "{shared_all:?} < {shared:?}");
        assert!(par < shared_all, "{par:?} < {shared_all:?}");
        // Overall reduction vs the Original ring: the paper measures 4.07x
        // on eight nodes; accept a generous band around it.
        let reduction = ring / par;
        assert!(
            (2.5..=8.0).contains(&reduction),
            "total comm reduction {reduction} outside the Fig. 13 band"
        );
    }

    #[test]
    fn leader_based_bcast_dominates_at_scale() {
        // Fig. 6: intra-node steps of the leader-based allgather outweigh
        // the inter-node exchange for large payloads.
        let (_, pmap, net) = setup(16, 8);
        let words_each = 64 * 1024 * 1024 / 8 / 128; // 64 MiB total
        let parts = equal_parts(128, words_each);
        let c = cost(&parts, &pmap, &net, AllgatherAlgorithm::LeaderBased);
        assert!(
            c.intra() > c.inter,
            "intra {:?} must exceed inter {:?}",
            c.intra(),
            c.inter
        );
        assert!(
            c.intra_bcast > c.intra_gather,
            "broadcast is the heavy step"
        );
    }

    #[test]
    fn ppn8_ring_costs_more_than_ppn1_ring() {
        // Fig. 12: spawning 8 processes per socket makes the Original
        // allgather ~2.3x more expensive than one process per node.
        let (_, pmap8, net) = setup(8, 8);
        let (_, pmap1, _) = setup(8, 1);
        let total_words = 32 * 1024 * 1024 / 8;
        let parts8 = equal_parts(64, total_words / 64);
        let parts1 = equal_parts(8, total_words / 8);
        let c8 = cost(&parts8, &pmap8, &net, AllgatherAlgorithm::Ring).total();
        let c1 = cost(&parts1, &pmap1, &net, AllgatherAlgorithm::Ring).total();
        let ratio = c8 / c1;
        assert!(
            (1.5..=3.5).contains(&ratio),
            "ppn=8/ppn=1 comm ratio {ratio} outside the Fig. 12 band (paper: 2.34)"
        );
    }

    #[test]
    fn parallel_subgroups_beat_single_leader_stream() {
        let (_, pmap, net) = setup(8, 8);
        let parts = equal_parts(64, 64 * 1024);
        let one = cost(&parts, &pmap, &net, AllgatherAlgorithm::SharedBoth).total();
        let par = cost(&parts, &pmap, &net, AllgatherAlgorithm::ParallelSubgroup).total();
        let speedup = one / par;
        assert!(
            (1.3..=2.5).contains(&speedup),
            "parallel allgather speedup {speedup} outside the Fig. 4-derived band"
        );
    }

    #[test]
    fn single_node_has_no_wire_volume_or_edges_off_the_ring() {
        let (_, pmap, net) = setup(1, 8);
        let bytes = vec![8 * 1024u64; 8];
        for algo in ALGOS {
            let (c, s, edges) = walk_with_edges(&bytes, &pmap, &net, algo);
            assert_eq!(c.inter, SimTime::ZERO, "{algo:?}");
            assert_eq!((s.wire_bytes, s.flows), (0, 0), "{algo:?}");
            // Only the flat ring hops between ranks of one node.
            assert_eq!(
                edges.is_empty(),
                algo != AllgatherAlgorithm::Ring,
                "{algo:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one segment per rank")]
    fn wrong_part_count_rejected() {
        let (_, pmap, net) = setup(2, 8);
        let parts = equal_parts(3, 10);
        let refs: Vec<&[u64]> = parts.iter().map(Vec::as_slice).collect();
        allgather_words_into(&mut [0; 30], &refs, &pmap, &net, AllgatherAlgorithm::Ring);
    }

    #[test]
    fn the_walk_tallies_the_round_structure() {
        let (_, pmap, net) = setup(4, 8);
        let bytes = sizes(&equal_parts(32, 7));
        let total: u64 = bytes.iter().sum();
        let tally = |algo| allgather_sizes(&bytes, &bytes, &pmap, &net, algo, None).1;
        for algo in ALGOS {
            let s = tally(algo);
            assert!(s.rounds > 0 && s.wire_bytes > 0, "{algo:?}");
            assert_eq!(s.raw_bytes, s.wire_bytes, "{algo:?}: no codec");
        }
        // Ring: np-1 rounds; every chunk crosses the wire or shared memory.
        let ring = tally(AllgatherAlgorithm::Ring);
        assert_eq!(ring.rounds, 31);
        assert_eq!(ring.wire_bytes + ring.shm_bytes, 31 * total);
        // Leader-based: gather + 3 leader rounds + bcast.
        let leader = tally(AllgatherAlgorithm::LeaderBased);
        assert_eq!((leader.rounds, leader.flows), (5, 3 * 4));
        assert_eq!(leader.wire_bytes, 3 * total);
        // Parallel subgroups: nodes-1 rounds, all slices nonzero.
        let par = tally(AllgatherAlgorithm::ParallelSubgroup);
        assert_eq!(par.rounds, 3);
        assert_eq!(par.flows, 3 * 32);
        assert_eq!(par.wire_bytes, 3 * total);
        assert_eq!(par.shm_bytes, 0);
    }

    #[test]
    fn zero_byte_segments_are_priced_but_not_tallied() {
        let (_, pmap, net) = setup(2, 8);
        let bytes: Vec<u64> = (0..16).map(|r| if r % 2 == 0 { 64 } else { 0 }).collect();
        let (_, par, _) =
            walk_with_edges(&bytes, &pmap, &net, AllgatherAlgorithm::ParallelSubgroup);
        assert_eq!((par.rounds, par.flows, par.wire_bytes), (1, 8, 8 * 64));
        let empty = vec![0u64; 16];
        let (c, s, edges) =
            walk_with_edges(&empty, &pmap, &net, AllgatherAlgorithm::ParallelSubgroup);
        assert!(c.inter > SimTime::ZERO, "an empty round still pays latency");
        assert_eq!((s.rounds, s.flows, s.wire_bytes), (1, 0, 0));
        assert_eq!(edges.len(), 16, "the schedule does not depend on the bytes");
    }

    #[test]
    fn a_codec_tally_walks_the_raw_sizes_without_moving_the_price() {
        let (_, pmap, net) = setup(4, 8);
        let raw = vec![800u64; 32];
        let wire = vec![100u64; 32];
        for algo in ALGOS {
            let (c, s) = allgather_sizes(&wire, &raw, &pmap, &net, algo, None);
            let (plain_c, plain_s) = allgather_sizes(&wire, &wire, &pmap, &net, algo, None);
            let raw_s = allgather_sizes(&raw, &raw, &pmap, &net, algo, None).1;
            assert_eq!(c, plain_c, "{algo:?}");
            assert_eq!(s.raw_bytes, raw_s.wire_bytes, "{algo:?}");
            assert_eq!(s.wire_bytes, plain_s.wire_bytes, "{algo:?}");
        }
    }

    #[test]
    fn edge_schedules_cover_every_algorithm() {
        let (_, pmap, net) = setup(4, 8);
        let np = pmap.world_size();
        let bytes = vec![64u64; np];
        let edges = |algo| {
            let (c, s, edges) = walk_with_edges(&bytes, &pmap, &net, algo);
            // Listing the edges never moves the price or the tally.
            let plain = allgather_sizes(&bytes, &bytes, &pmap, &net, algo, None);
            assert_eq!((c, s), plain, "{algo:?}");
            edges
        };
        let ring = edges(AllgatherAlgorithm::Ring);
        assert_eq!(ring.len(), (np - 1) * np);
        for algo in [
            AllgatherAlgorithm::LeaderBased,
            AllgatherAlgorithm::SharedDest,
            AllgatherAlgorithm::SharedBoth,
        ] {
            let leader = edges(algo);
            assert_eq!(leader.len(), 3 * 4);
            assert!(leader
                .iter()
                .all(|e| pmap.is_leader(e.src) && pmap.is_leader(e.dst)));
            // Tags count leader-ring rounds, not the gather step.
            assert_eq!(leader.first().unwrap().round, 0, "{algo:?}");
        }
        let par = edges(AllgatherAlgorithm::ParallelSubgroup);
        assert_eq!(par.len(), 3 * 4 * 8);
        // Single-rank worlds have no edges.
        let (_, solo, solo_net) = setup(1, 1);
        let (_, _, none) = walk_with_edges(&[8], &solo, &solo_net, AllgatherAlgorithm::Ring);
        assert!(none.is_empty());
    }
}

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
//! Cost conventions:
//!
//! * Intra-node hops go through a shared-memory staging buffer, as in Open
//!   MPI's `sm` BTL: copy-in plus copy-out, i.e. two traversals of the
//!   payload (`shm_msg` below).
//! * Inter-node rounds are priced by the [`NetworkModel`]'s flow solver,
//!   which enforces the per-stream cap and per-node aggregate of Fig. 4.
//! * A ring round's time is its slowest hop (the ring is a synchronous
//!   pipeline), and rounds are sequential.

use nbfs_simnet::{Flow, NetworkModel};
use nbfs_topology::ProcessMap;
use nbfs_trace::CollectiveStats;
use nbfs_util::SimTime;
use serde::{Deserialize, Serialize};

use crate::profile::CommCost;

/// The allgather algorithm ladder (see crate docs for the paper mapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllgatherAlgorithm {
    /// Flat ring over all ranks — Open MPI's default for large messages,
    /// used by the paper's `Original` implementation.
    Ring,
    /// Flat recursive doubling over all ranks (Thakur & Gropp \[41\], the
    /// small/medium-message default). Falls back to ring cost when the
    /// world size is not a power of two.
    RecursiveDoubling,
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
            AllgatherAlgorithm::RecursiveDoubling => "recursive doubling",
            AllgatherAlgorithm::LeaderBased => "leader-based",
            AllgatherAlgorithm::SharedDest => "share in_queue",
            AllgatherAlgorithm::SharedBoth => "share all",
            AllgatherAlgorithm::ParallelSubgroup => "parallel allgather",
        }
    }
}

/// Result of an allgather: the reassembled words plus the charged cost.
#[derive(Clone, Debug, PartialEq)]
pub struct AllgatherOutcome {
    /// Concatenation of all ranks' segments in rank order.
    pub words: Vec<u64>,
    /// Simulated time, split into the Fig. 5a steps.
    pub cost: CommCost,
}

/// Effective payload traversals per intra-node hop: Open MPI's `sm` BTL
/// copies into and out of a staging buffer, but pipelines the two copies
/// over chunks, so a hop costs ~1.5 traversals rather than 2.
const SHM_PIPELINE_TRAVERSALS: f64 = 1.5;

/// Intra-node message time through an `sm`-style staging buffer:
/// pipelined copy-in + copy-out of `bytes`, `copiers` ranks of the node
/// doing this concurrently, sources spread over `src_sockets` sockets.
fn shm_msg(net: &NetworkModel, bytes: u64, copiers: usize, src_sockets: usize) -> SimTime {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "1.5x a message's byte count stays far below 2^64"
    )]
    let effective = (bytes as f64 * SHM_PIPELINE_TRAVERSALS) as u64;
    net.shm_copy_time(effective, copiers, src_sockets)
}

/// Performs the allgather: returns the concatenated words and the cost of
/// moving them with `algo` on the modelled machine.
///
/// `parts[i]` is rank `i`'s segment (its slice of `out_queue` in Fig. 1);
/// segments may have different lengths (the final partition block is
/// usually shorter).
///
/// ```
/// use nbfs_comm::allgather::{allgather_words, AllgatherAlgorithm};
/// use nbfs_simnet::NetworkModel;
/// use nbfs_topology::{presets, PlacementPolicy, ProcessMap};
///
/// let machine = presets::xeon_x7550_cluster(2);
/// let pmap = ProcessMap::new(&machine, 8, PlacementPolicy::BindToSocket);
/// let net = NetworkModel::new(&machine);
/// let parts: Vec<Vec<u64>> = (0..16).map(|r| vec![r as u64]).collect();
/// let out = allgather_words(&parts, &pmap, &net, AllgatherAlgorithm::ParallelSubgroup);
/// assert_eq!(out.words, (0..16).collect::<Vec<u64>>());
/// assert!(out.cost.total().as_secs() > 0.0);
/// ```
pub fn allgather_words(
    parts: &[Vec<u64>],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
) -> AllgatherOutcome {
    assert_eq!(parts.len(), pmap.world_size(), "need one segment per rank");
    let words: Vec<u64> = parts.iter().flat_map(|p| p.iter().copied()).collect();
    let cost = allgather_cost(parts, pmap, net, algo);
    AllgatherOutcome { words, cost }
}

/// In-place variant of [`allgather_words`]: concatenates the segments into
/// `dst` (which must hold exactly the total word count) and returns only the
/// cost. The engine calls this every bottom-up level with persistent
/// buffers — the receiving bitmap's own words — so the staging path does no
/// per-level allocation.
pub fn allgather_words_into(
    dst: &mut [u64],
    parts: &[&[u64]],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
) -> CommCost {
    assert_eq!(parts.len(), pmap.world_size(), "need one segment per rank");
    let total: usize = parts.iter().map(|p| p.len()).sum();
    assert_eq!(
        dst.len(),
        total,
        "dst must hold exactly the concatenated segments"
    );
    // Per-rank byte sizes for the cost model: one small allocation, kept
    // out of the copy path below so the hot region stays allocation-free.
    let bytes: Vec<u64> = parts.iter().map(|p| p.len() as u64 * 8).collect();
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
    allgather_cost_bytes(&bytes, pmap, net, algo)
}

/// Cost-only variant of [`allgather_words`].
pub fn allgather_cost(
    parts: &[Vec<u64>],
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
) -> CommCost {
    let bytes: Vec<u64> = parts.iter().map(|p| p.len() as u64 * 8).collect();
    allgather_cost_bytes(&bytes, pmap, net, algo)
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
    assert_eq!(bytes.len(), pmap.world_size(), "one size per rank");
    match algo {
        AllgatherAlgorithm::Ring => ring_cost(bytes, pmap, net),
        AllgatherAlgorithm::RecursiveDoubling => {
            if pmap.world_size().is_power_of_two() {
                recursive_doubling_cost(bytes, pmap, net)
            } else {
                ring_cost(bytes, pmap, net)
            }
        }
        AllgatherAlgorithm::LeaderBased => hierarchical_cost(bytes, pmap, net, true, true),
        AllgatherAlgorithm::SharedDest => hierarchical_cost(bytes, pmap, net, true, false),
        AllgatherAlgorithm::SharedBoth => hierarchical_cost(bytes, pmap, net, false, false),
        AllgatherAlgorithm::ParallelSubgroup => parallel_cost(bytes, pmap, net, pmap.ppn()),
    }
}

/// Volume tally of an allgather without pricing it: rounds, nonzero wire
/// flows, wire bytes and shared-memory bytes, mirroring the round
/// structure of [`allgather_cost_bytes`] step for step. The run-event
/// layer (`nbfs-trace`) records these per collective; keeping the counting
/// separate from the costing guarantees observability can never perturb a
/// simulated time.
pub fn allgather_stats_bytes(
    bytes: &[u64],
    pmap: &ProcessMap,
    algo: AllgatherAlgorithm,
) -> CollectiveStats {
    assert_eq!(bytes.len(), pmap.world_size(), "one size per rank");
    let mut stats = match algo {
        AllgatherAlgorithm::Ring => ring_stats(bytes, pmap),
        AllgatherAlgorithm::RecursiveDoubling => {
            if pmap.world_size().is_power_of_two() {
                recursive_doubling_stats(bytes, pmap)
            } else {
                ring_stats(bytes, pmap)
            }
        }
        AllgatherAlgorithm::LeaderBased => hierarchical_stats(bytes, pmap, true, true),
        AllgatherAlgorithm::SharedDest => hierarchical_stats(bytes, pmap, true, false),
        AllgatherAlgorithm::SharedBoth => hierarchical_stats(bytes, pmap, false, false),
        AllgatherAlgorithm::ParallelSubgroup => parallel_stats(bytes, pmap, pmap.ppn()),
    };
    // `bytes` is whatever the caller is really exchanging; without a codec
    // the raw volume *is* the wire volume. The codec layer overrides
    // `raw_bytes` with the uncompressed walk (`codec::allgather_codec_stats`).
    stats.raw_bytes = stats.wire_bytes;
    stats
}

/// Fault-layer twin of the cost/stats walks: resolves `plan` against this
/// allgather's transfer schedule (`fault::allgather_edges`), charging
/// retransmit + backoff penalties against the supplied cost sample.
/// `kind` distinguishes the frontier-word and summary allgathers in the
/// records.
pub fn inject_allgather_faults(
    plan: &crate::fault::FaultPlan,
    level: usize,
    kind: nbfs_trace::CollectiveKind,
    pmap: &ProcessMap,
    algo: AllgatherAlgorithm,
    cost: &CommCost,
    stats: &CollectiveStats,
) -> crate::fault::FaultAdjustment {
    crate::fault::inject_collective(
        plan,
        level,
        kind,
        &crate::fault::allgather_edges(pmap, algo),
        cost,
        stats,
    )
}

/// Counting twin of [`ring_cost`].
fn ring_stats(bytes: &[u64], pmap: &ProcessMap) -> CollectiveStats {
    let np = bytes.len();
    if np <= 1 {
        return CollectiveStats::ZERO;
    }
    let mut s = CollectiveStats {
        rounds: (np - 1) as u64,
        ..CollectiveStats::ZERO
    };
    for r in 0..np - 1 {
        for i in 0..np {
            let dst = (i + 1) % np;
            let chunk = bytes[(i + np - r) % np];
            if chunk == 0 {
                continue;
            }
            if pmap.node_of(i) == pmap.node_of(dst) {
                s.shm_bytes += chunk;
            } else {
                s.flows += 1;
                s.wire_bytes += chunk;
            }
        }
    }
    s
}

/// Counting twin of [`recursive_doubling_cost`].
fn recursive_doubling_stats(bytes: &[u64], pmap: &ProcessMap) -> CollectiveStats {
    let np = bytes.len();
    debug_assert!(np.is_power_of_two());
    if np <= 1 {
        return CollectiveStats::ZERO;
    }
    let mut prefix = vec![0u64; np + 1];
    for i in 0..np {
        prefix[i + 1] = prefix[i] + bytes[i];
    }
    let held = |i: usize, k: u32| -> u64 {
        let block = 1usize << k;
        let start = i & !(block - 1);
        prefix[start + block] - prefix[start]
    };
    let rounds = np.trailing_zeros();
    let mut s = CollectiveStats {
        rounds: u64::from(rounds),
        ..CollectiveStats::ZERO
    };
    for k in 0..rounds {
        for i in 0..np {
            let partner = i ^ (1usize << k);
            if partner < i {
                continue; // count each pair once
            }
            let pair_bytes = held(i, k) + held(partner, k);
            if pmap.node_of(i) == pmap.node_of(partner) {
                s.shm_bytes += pair_bytes;
            } else {
                if held(i, k) > 0 {
                    s.flows += 1;
                }
                if held(partner, k) > 0 {
                    s.flows += 1;
                }
                s.wire_bytes += pair_bytes;
            }
        }
    }
    s
}

/// Counting twin of [`hierarchical_cost`].
fn hierarchical_stats(
    bytes: &[u64],
    pmap: &ProcessMap,
    gather: bool,
    bcast: bool,
) -> CollectiveStats {
    let np = bytes.len();
    let nodes = pmap.nodes();
    let ppn = pmap.ppn();
    let total: u64 = bytes.iter().sum();
    let mut s = CollectiveStats::ZERO;
    if gather && ppn > 1 {
        s.rounds += 1;
        s.shm_bytes += (0..np)
            .filter(|&i| !pmap.is_leader(i))
            .map(|i| bytes[i])
            .sum::<u64>();
    }
    if nodes > 1 {
        // Every ring round moves each node block exactly once.
        let node_block = |n: usize| -> u64 { (n * ppn..(n + 1) * ppn).map(|i| bytes[i]).sum() };
        let nonzero_blocks = (0..nodes).filter(|&n| node_block(n) > 0).count() as u64;
        s.rounds += (nodes - 1) as u64;
        s.flows += (nodes - 1) as u64 * nonzero_blocks;
        s.wire_bytes += (nodes - 1) as u64 * total;
    }
    if bcast && ppn > 1 {
        // Each child copies the full result out of the leader's buffer.
        s.rounds += 1;
        s.shm_bytes += nodes as u64 * (ppn - 1) as u64 * total;
    }
    s
}

/// Counting twin of [`parallel_cost`].
fn parallel_stats(bytes: &[u64], pmap: &ProcessMap, k: usize) -> CollectiveStats {
    let nodes = pmap.nodes();
    let ppn = pmap.ppn();
    assert!(k >= 1 && k <= ppn && ppn % k == 0, "k must divide ppn");
    if nodes <= 1 {
        return CollectiveStats::ZERO;
    }
    let slice_bytes = |n: usize, j: usize| -> u64 {
        (0..ppn)
            .filter(|li| li % k == j)
            .map(|li| bytes[n * ppn + li])
            .sum()
    };
    let total: u64 = bytes.iter().sum();
    let nonzero_slices: u64 = (0..nodes)
        .flat_map(|n| (0..k).map(move |j| (n, j)))
        .filter(|&(n, j)| slice_bytes(n, j) > 0)
        .count() as u64;
    CollectiveStats {
        rounds: (nodes - 1) as u64,
        flows: (nodes - 1) as u64 * nonzero_slices,
        wire_bytes: (nodes - 1) as u64 * total,
        shm_bytes: 0,
        ..CollectiveStats::ZERO
    }
}

/// Flat ring over all ranks: `np - 1` rounds; in round `r` rank `i`
/// forwards chunk `(i - r) mod np` to rank `(i + 1) mod np`.
fn ring_cost(bytes: &[u64], pmap: &ProcessMap, net: &NetworkModel) -> CommCost {
    let np = bytes.len();
    if np <= 1 {
        return CommCost::ZERO;
    }
    let sockets = net.machine().sockets_per_node;
    let mut inter = SimTime::ZERO;
    let mut intra = SimTime::ZERO;
    for r in 0..np - 1 {
        let mut flows: Vec<Flow> = Vec::new();
        let mut shm_copiers = vec![0usize; pmap.nodes()];
        let mut shm_max_bytes = vec![0u64; pmap.nodes()];
        for i in 0..np {
            let dst = (i + 1) % np;
            let chunk = bytes[(i + np - r) % np];
            let (sn, dn) = (pmap.node_of(i), pmap.node_of(dst));
            if sn == dn {
                shm_copiers[sn] += 1;
                shm_max_bytes[sn] = shm_max_bytes[sn].max(chunk);
            } else {
                flows.push(Flow::new(sn, dn, chunk));
            }
        }
        let wire = net.round_time(&flows);
        let shm = (0..pmap.nodes())
            .map(|n| {
                shm_msg(
                    net,
                    shm_max_bytes[n],
                    shm_copiers[n].max(1),
                    shm_copiers[n].clamp(1, sockets),
                )
            })
            .fold(SimTime::ZERO, SimTime::max);
        // A ring round is a synchronous pipeline stage: the slowest hop
        // gates it. Attribute the whole round to whichever medium gated it.
        if wire >= shm {
            inter += wire;
        } else {
            intra += shm;
        }
    }
    CommCost {
        intra_gather: intra,
        inter,
        intra_bcast: SimTime::ZERO,
    }
}

/// Flat recursive doubling: `log2(np)` rounds; in round `k` rank `i`
/// exchanges everything it holds with rank `i ^ 2^k`.
fn recursive_doubling_cost(bytes: &[u64], pmap: &ProcessMap, net: &NetworkModel) -> CommCost {
    let np = bytes.len();
    debug_assert!(np.is_power_of_two());
    if np <= 1 {
        return CommCost::ZERO;
    }
    let sockets = net.machine().sockets_per_node;
    // Prefix sums for block-aligned held-byte queries.
    let mut prefix = vec![0u64; np + 1];
    for i in 0..np {
        prefix[i + 1] = prefix[i] + bytes[i];
    }
    let held = |i: usize, k: u32| -> u64 {
        let block = 1usize << k;
        let start = i & !(block - 1);
        prefix[start + block] - prefix[start]
    };

    let mut inter = SimTime::ZERO;
    let mut intra = SimTime::ZERO;
    let rounds = np.trailing_zeros();
    for k in 0..rounds {
        let mut flows: Vec<Flow> = Vec::new();
        let mut any_intra = false;
        let mut max_held = 0u64;
        for i in 0..np {
            let partner = i ^ (1usize << k);
            if partner < i {
                continue; // count each pair once
            }
            let h = held(i, k);
            let (a, b) = (pmap.node_of(i), pmap.node_of(partner));
            if a == b {
                any_intra = true;
                max_held = max_held.max(h);
            } else {
                // Exchange: both directions on the wire.
                flows.push(Flow::new(a, b, h));
                flows.push(Flow::new(b, a, held(partner, k)));
            }
        }
        if any_intra {
            // Every rank writes its held bytes and reads its partner's —
            // ppn concurrent copiers per node.
            intra += shm_msg(net, max_held, pmap.ppn(), pmap.ppn().clamp(1, sockets));
        }
        if !flows.is_empty() {
            inter += net.round_time(&flows);
        }
    }
    CommCost {
        intra_gather: intra,
        inter,
        intra_bcast: SimTime::ZERO,
    }
}

/// The three-step hierarchy of Fig. 5a/5b. `gather`/`bcast` toggle steps 1
/// and 3; the inter-node step is a ring over node blocks.
fn hierarchical_cost(
    bytes: &[u64],
    pmap: &ProcessMap,
    net: &NetworkModel,
    gather: bool,
    bcast: bool,
) -> CommCost {
    let np = bytes.len();
    let nodes = pmap.nodes();
    let ppn = pmap.ppn();
    let sockets = net.machine().sockets_per_node;
    let total: u64 = bytes.iter().sum();
    let node_block = |n: usize| -> u64 { (n * ppn..(n + 1) * ppn).map(|i| bytes[i]).sum() };

    // Step 1: children push their segments into the leader's staging.
    let intra_gather = if gather && ppn > 1 {
        let max_child = (0..np)
            .filter(|&i| !pmap.is_leader(i))
            .map(|i| bytes[i])
            .max()
            .unwrap_or(0);
        shm_msg(net, max_child, ppn - 1, (ppn - 1).clamp(1, sockets))
    } else {
        SimTime::ZERO
    };

    // Step 2: ring over the leaders, chunk = one node's block.
    let mut inter = SimTime::ZERO;
    if nodes > 1 {
        for r in 0..nodes - 1 {
            let flows: Vec<Flow> = (0..nodes)
                .map(|n| Flow::new(n, (n + 1) % nodes, node_block((n + nodes - r) % nodes)))
                .collect();
            inter += net.round_time(&flows);
        }
    }

    // Step 3: every child copies the full result from the leader's buffer,
    // all draining one socket's memory — the Fig. 6 bottleneck.
    let intra_bcast = if bcast && ppn > 1 {
        shm_msg(net, total, ppn - 1, 1)
    } else {
        SimTime::ZERO
    };

    CommCost {
        intra_gather,
        inter,
        intra_bcast,
    }
}

/// The parallelized allgather of Fig. 7: `k` subgroups (one per node-local
/// index class) each ring their slice concurrently. Shared buffers are
/// implied, so there are no intra-node steps.
fn parallel_cost(bytes: &[u64], pmap: &ProcessMap, net: &NetworkModel, k: usize) -> CommCost {
    let nodes = pmap.nodes();
    let ppn = pmap.ppn();
    assert!(k >= 1 && k <= ppn && ppn % k == 0, "k must divide ppn");
    if nodes <= 1 {
        return CommCost::ZERO;
    }
    // Subgroup j on node n forwards the slice of node (n - r)'s block that
    // belongs to local indices {j, j + k, j + 2k, ...}.
    let slice_bytes = |n: usize, j: usize| -> u64 {
        (0..ppn)
            .filter(|li| li % k == j)
            .map(|li| bytes[n * ppn + li])
            .sum()
    };
    let mut inter = SimTime::ZERO;
    for r in 0..nodes - 1 {
        let mut flows = Vec::with_capacity(nodes * k);
        for n in 0..nodes {
            let origin = (n + nodes - r) % nodes;
            for j in 0..k {
                flows.push(Flow::new(n, (n + 1) % nodes, slice_bytes(origin, j)));
            }
        }
        inter += net.round_time(&flows);
    }
    CommCost::inter_only(inter)
}

/// Result of a ragged item allgather ([`allgatherv_items`]).
#[derive(Clone, Debug, PartialEq)]
pub struct AllgathervOutcome<T> {
    /// Concatenation of all ranks' items in rank order.
    pub items: Vec<T>,
    /// Simulated time.
    pub cost: CommCost,
}

/// Allgathers ragged per-rank item lists (MPI `allgatherv`). The top-down
/// phase of the replicated hybrid BFS exchanges newly discovered frontier
/// *vertex lists* this way — sized by the frontier, not by the whole
/// bitmap, which is why the paper's top-down communication stays cheap
/// while its bottom-up allgathers dominate (Fig. 11).
pub fn allgatherv_items<T: Copy>(
    lists: &[impl AsRef<[T]>],
    item_bytes: usize,
    pmap: &ProcessMap,
    net: &NetworkModel,
    algo: AllgatherAlgorithm,
) -> AllgathervOutcome<T> {
    assert_eq!(lists.len(), pmap.world_size(), "one list per rank");
    let items: Vec<T> = lists
        .iter()
        .flat_map(|l| l.as_ref().iter().copied())
        .collect();
    let bytes: Vec<u64> = lists
        .iter()
        .map(|l| (l.as_ref().len() * item_bytes) as u64)
        .collect();
    let cost = allgather_cost_bytes(&bytes, pmap, net, algo);
    AllgathervOutcome { items, cost }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::{presets, MachineConfig, PlacementPolicy, ProcessMap};

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

    /// Test oracle: a *functional* flat-ring allgather that actually shuttles
    /// chunks between per-rank staging buffers round by round, returning every
    /// rank's final buffer. Used to prove the one-shot concatenation of
    /// [`allgather_words`] matches what the distributed algorithm would build.
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
        let parts = equal_parts(32, 7);
        let expect: Vec<u64> = parts.iter().flatten().copied().collect();
        for algo in [
            AllgatherAlgorithm::Ring,
            AllgatherAlgorithm::RecursiveDoubling,
            AllgatherAlgorithm::LeaderBased,
            AllgatherAlgorithm::SharedDest,
            AllgatherAlgorithm::SharedBoth,
            AllgatherAlgorithm::ParallelSubgroup,
        ] {
            let out = allgather_words(&parts, &pmap, &net, algo);
            assert_eq!(out.words, expect, "{algo:?}");
            assert!(out.cost.total() > SimTime::ZERO, "{algo:?} must cost time");
        }
    }

    #[test]
    fn in_place_variant_matches_allocating_one() {
        let (_, pmap, net) = setup(4, 8);
        let mut parts = equal_parts(32, 7);
        parts[31].truncate(3); // ragged tail segment
        let refs: Vec<&[u64]> = parts.iter().map(|p| p.as_slice()).collect();
        for algo in [
            AllgatherAlgorithm::Ring,
            AllgatherAlgorithm::SharedBoth,
            AllgatherAlgorithm::ParallelSubgroup,
        ] {
            let out = allgather_words(&parts, &pmap, &net, algo);
            let mut dst = vec![u64::MAX; out.words.len()];
            let cost = allgather_words_into(&mut dst, &refs, &pmap, &net, algo);
            assert_eq!(dst, out.words, "{algo:?}");
            assert_eq!(cost.total(), out.cost.total(), "{algo:?}");
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
        let cost = |algo| allgather_cost(&parts, &pmap, &net, algo).total();
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
        let c = allgather_cost(&parts, &pmap, &net, AllgatherAlgorithm::LeaderBased);
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
        let c8 = allgather_cost(&parts8, &pmap8, &net, AllgatherAlgorithm::Ring).total();
        let c1 = allgather_cost(&parts1, &pmap1, &net, AllgatherAlgorithm::Ring).total();
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
        let one = allgather_cost(&parts, &pmap, &net, AllgatherAlgorithm::SharedBoth).total();
        let par = allgather_cost(&parts, &pmap, &net, AllgatherAlgorithm::ParallelSubgroup).total();
        let speedup = one / par;
        assert!(
            (1.3..=2.5).contains(&speedup),
            "parallel allgather speedup {speedup} outside the Fig. 4-derived band"
        );
    }

    #[test]
    fn parallel_k_interpolates() {
        let (_, pmap, net) = setup(8, 8);
        let parts = equal_parts(64, 64 * 1024);
        let bytes: Vec<u64> = parts.iter().map(|p| p.len() as u64 * 8).collect();
        let [k1, k2, k4, k8] = [1, 2, 4, 8].map(|k| parallel_cost(&bytes, &pmap, &net, k).total());
        assert!(
            k1 >= k2 && k2 >= k4 && k4 >= k8,
            "{k1:?} {k2:?} {k4:?} {k8:?}"
        );
    }

    #[test]
    fn single_node_has_no_wire_cost() {
        let (_, pmap, net) = setup(1, 8);
        let parts = equal_parts(8, 1024);
        for algo in [
            AllgatherAlgorithm::Ring,
            AllgatherAlgorithm::LeaderBased,
            AllgatherAlgorithm::SharedBoth,
            AllgatherAlgorithm::ParallelSubgroup,
        ] {
            let c = allgather_cost(&parts, &pmap, &net, algo);
            assert_eq!(c.inter, SimTime::ZERO, "{algo:?}");
        }
    }

    #[test]
    fn unequal_tail_segment_supported() {
        let (_, pmap, net) = setup(2, 8);
        let mut parts = equal_parts(16, 100);
        parts[15].truncate(37); // shorter final block
        let out = allgather_words(&parts, &pmap, &net, AllgatherAlgorithm::Ring);
        assert_eq!(out.words.len(), 15 * 100 + 37);
    }

    #[test]
    #[should_panic(expected = "one segment per rank")]
    fn wrong_part_count_rejected() {
        let (_, pmap, net) = setup(2, 8);
        let parts = equal_parts(3, 10);
        allgather_words(&parts, &pmap, &net, AllgatherAlgorithm::Ring);
    }

    #[test]
    fn stats_mirror_the_round_structure() {
        let (_, pmap, net) = setup(4, 8);
        let parts = equal_parts(32, 7);
        let bytes: Vec<u64> = parts.iter().map(|p| p.len() as u64 * 8).collect();
        let total: u64 = bytes.iter().sum();
        for algo in [
            AllgatherAlgorithm::Ring,
            AllgatherAlgorithm::RecursiveDoubling,
            AllgatherAlgorithm::LeaderBased,
            AllgatherAlgorithm::SharedDest,
            AllgatherAlgorithm::SharedBoth,
            AllgatherAlgorithm::ParallelSubgroup,
        ] {
            let s = allgather_stats_bytes(&bytes, &pmap, algo);
            assert!(s.rounds > 0, "{algo:?}");
            assert!(s.wire_bytes > 0, "{algo:?} crosses nodes");
            // The stats fn must not perturb or depend on the cost fn.
            let c = allgather_cost_bytes(&bytes, &pmap, &net, algo);
            assert!(c.total() > SimTime::ZERO, "{algo:?}");
        }
        // Ring: np-1 rounds; every chunk crosses the wire or shared memory.
        let ring = allgather_stats_bytes(&bytes, &pmap, AllgatherAlgorithm::Ring);
        assert_eq!(ring.rounds, 31);
        assert_eq!(ring.wire_bytes + ring.shm_bytes, 31 * total);
        // Parallel subgroups: nodes-1 rounds, all slices nonzero.
        let par = allgather_stats_bytes(&bytes, &pmap, AllgatherAlgorithm::ParallelSubgroup);
        assert_eq!(par.rounds, 3);
        assert_eq!(par.flows, 3 * 32);
        assert_eq!(par.wire_bytes, 3 * total);
        assert_eq!(par.shm_bytes, 0);
        // Fewer subgroups move the same bytes in fewer, fatter flows.
        let k2 = parallel_stats(&bytes, &pmap, 2);
        assert_eq!((k2.rounds, k2.flows, k2.wire_bytes), (3, 3 * 8, 3 * total));
    }

    #[test]
    fn single_node_stats_have_no_wire_volume() {
        let (_, pmap, _) = setup(1, 8);
        let bytes = vec![64u64; 8];
        for algo in [
            AllgatherAlgorithm::Ring,
            AllgatherAlgorithm::LeaderBased,
            AllgatherAlgorithm::ParallelSubgroup,
        ] {
            let s = allgather_stats_bytes(&bytes, &pmap, algo);
            assert_eq!(s.wire_bytes, 0, "{algo:?}");
            assert_eq!(s.flows, 0, "{algo:?}");
        }
    }

    #[test]
    fn recursive_doubling_cheaper_than_ring_for_small_messages() {
        // Thakur & Gropp's rule: fewer rounds win when latency dominates.
        let (_, pmap, net) = setup(8, 8);
        let parts = equal_parts(64, 2); // 16 bytes each
        let rd = allgather_cost(&parts, &pmap, &net, AllgatherAlgorithm::RecursiveDoubling).total();
        let ring = allgather_cost(&parts, &pmap, &net, AllgatherAlgorithm::Ring).total();
        assert!(rd < ring, "rd {rd:?} vs ring {ring:?}");
    }
}

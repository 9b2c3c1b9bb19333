//! Personalized all-to-all exchange (MPI `alltoallv`).
//!
//! The 2-D engine's fold sends `(vertex, parent)` records to the
//! vertex's owner rank, like the record exchange of the Graph500
//! `mpi_simple` code. It must be functionally correct for the BFS tree
//! to validate, and it is priced like every other collective: the bytes
//! that really cross each medium.

use nbfs_simnet::{Flow, FlowGroup, NetworkModel, RoundScratch};
use nbfs_topology::ProcessMap;
use nbfs_trace::{CollectiveStats, CommCost};
use nbfs_util::SimTime;

use crate::codec::Codec;

/// Reusable staging for [`alltoallv_pairs_codec_into`]: the receive
/// inboxes, the per-message transfer list, the encode buffer and the
/// pricing tallies.
///
/// The fold runs one exchange per level; with a workspace the inboxes are
/// cleared and refilled rather than reallocated.
/// [`AlltoallvWorkspace::default`] is empty; buffers grow to the
/// high-water mark of the run and stay there.
#[derive(Debug, Default)]
pub struct AlltoallvWorkspace {
    /// `received[j]` after an exchange = everything rank `j` received, in
    /// sender-rank order (deterministic).
    pub received: Vec<Vec<(u32, u32)>>,
    transfers: Vec<(usize, usize, u64)>,
    scratch: Vec<u8>,
    pricing: ExchangeScratch,
}

/// The tallies [`exchange_round_cost`] fills on every call, held by the
/// caller so that pricing a round allocates nothing once they have grown
/// to the machine. [`ExchangeScratch::default`] is empty.
#[derive(Debug, Default)]
pub struct ExchangeScratch {
    /// Inter-node bytes per `(src node, dst node)`, row-major.
    wire: Vec<u64>,
    /// Intra-node bytes per node.
    shm_bytes: Vec<u64>,
    /// Whether each rank sends some intra-node bytes.
    sender_intra: Vec<bool>,
    /// Intra-node senders per node.
    shm_copiers: Vec<usize>,
    /// The round's node-pair flows, one group each.
    flows: Vec<FlowGroup>,
    round: RoundScratch,
}

/// Prices one round of concurrent rank-to-rank transfers
/// `(src, dst, bytes)`: inter-node traffic is aggregated per node pair and
/// priced by the flow solver, intra-node traffic is a shared-memory copy
/// round (each sending rank is one copier). The round ends when the
/// slower medium finishes. `stats.raw_bytes` equals `stats.wire_bytes`;
/// a caller that compressed the payloads overwrites it.
///
/// Each node pair's aggregate is one flow, and each flow is its own
/// [`FlowGroup`], priced with the caller's tallies: the price
/// `NetworkModel::round_time` gives the same flows.
pub fn exchange_round_cost(
    transfers: &[(usize, usize, u64)],
    pmap: &ProcessMap,
    net: &NetworkModel,
    scratch: &mut ExchangeScratch,
) -> (CommCost, CollectiveStats) {
    let nodes = pmap.nodes();
    let ExchangeScratch {
        wire,
        shm_bytes,
        sender_intra,
        shm_copiers,
        flows,
        round,
    } = scratch;
    // hot-path
    // Every expand, row update and fold round of the 2-D engine is priced
    // here; the tallies are the caller's recycled buffers.
    wire.clear();
    wire.resize(nodes * nodes, 0);
    shm_bytes.clear();
    shm_bytes.resize(nodes, 0);
    sender_intra.clear();
    sender_intra.resize(pmap.world_size(), false);
    for &(src, dst, bytes) in transfers {
        if bytes == 0 {
            continue;
        }
        let sn = pmap.node_of(src);
        let dn = pmap.node_of(dst);
        if sn == dn {
            shm_bytes[sn] += bytes;
            sender_intra[src] = true;
        } else {
            wire[sn * nodes + dn] += bytes;
        }
    }
    shm_copiers.clear();
    shm_copiers.resize(nodes, 0);
    for (r, &intra) in sender_intra.iter().enumerate() {
        if intra {
            shm_copiers[pmap.node_of(r)] += 1;
        }
    }
    flows.clear();
    let mut wire_bytes = 0u64;
    for s in 0..nodes {
        for d in (0..nodes).filter(|&d| d != s && wire[s * nodes + d] > 0) {
            flows.push(FlowGroup::from(Flow::new(s, d, wire[s * nodes + d])));
            wire_bytes += wire[s * nodes + d];
        }
    }
    let t_wire = net.round_time_grouped(flows, round);
    let sockets = net.machine().sockets_per_node;
    let t_shm = (0..nodes)
        .filter(|&n| shm_copiers[n] > 0)
        .map(|n| {
            let per_copier = shm_bytes[n] / shm_copiers[n] as u64;
            net.shm_copy_time(
                2 * per_copier,
                shm_copiers[n],
                shm_copiers[n].clamp(1, sockets),
            )
        })
        .fold(SimTime::ZERO, SimTime::max);
    // end-hot-path
    let stats = CollectiveStats {
        rounds: 1,
        flows: flows.len() as u64,
        wire_bytes,
        shm_bytes: shm_bytes.iter().sum(),
        raw_bytes: wire_bytes,
    };
    (CommCost::inter_only(t_wire.max(t_shm)), stats)
}

/// Exchanges the `(vertex, parent)` records of a send matrix into
/// `ws.received`, returning the simulated cost ([`exchange_round_cost`]
/// of the messages) and volume stats.
///
/// `rows[i]` is rank `i`'s send row. Every row has the same length `g`,
/// which divides the world size, and `rows[i][k]` is the message rank `i`
/// addresses to rank `i / g * g + k`: `g` equal to the world size is the
/// dense matrix, a smaller `g` lets each rank address only its own group
/// of `g` consecutive ranks (the 2-D fold's grid row).
///
/// Under [`Codec::Raw`] messages are copied as they are and priced at 8
/// bytes per record. Otherwise every non-empty message is really encoded
/// into the workspace scratch buffer and really decoded into the
/// receiver's inbox — a codec defect corrupts the BFS parents rather
/// than silently discounting bytes — and the *encoded* message sizes are
/// what is priced. `stats.raw_bytes` carries the wire volume the same
/// exchange would have moved uncompressed.
///
/// # Panics
/// If there is not one row per rank, or the rows differ in length or
/// their length does not divide the world size.
pub fn alltoallv_pairs_codec_into<R: AsRef<[Vec<(u32, u32)>]>>(
    ws: &mut AlltoallvWorkspace,
    rows: &[R],
    pmap: &ProcessMap,
    net: &NetworkModel,
    codec: Codec,
) -> (CommCost, CollectiveStats) {
    let np = pmap.world_size();
    assert_eq!(rows.len(), np, "need a send matrix row per rank");
    let g = rows[0].as_ref().len();
    assert!(
        g > 0 && np % g == 0,
        "a send row of {g} ranks does not tile {np} ranks"
    );
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.as_ref().len(),
            g,
            "rank {i}'s send row must cover {g} ranks"
        );
    }
    let imp = codec.implementation();

    ws.received.resize_with(np, Vec::new);
    for inbox in ws.received.iter_mut() {
        inbox.clear();
    }
    ws.transfers.clear();

    // hot-path
    // Sender-major walk: each inbox fills in sender-rank order. Inboxes,
    // transfer list and encode buffer are the workspace's.
    let mut raw_wire = 0u64;
    for (i, row) in rows.iter().enumerate() {
        let first = i / g * g;
        for (k, msg) in row.as_ref().iter().enumerate() {
            if msg.is_empty() {
                continue;
            }
            let j = first + k;
            let inbox = &mut ws.received[j];
            let raw_bytes = (msg.len() * 8) as u64;
            let bytes = if codec.is_raw() {
                inbox.extend_from_slice(msg);
                raw_bytes
            } else {
                imp.encode_pairs(msg, &mut ws.scratch);
                let before = inbox.len();
                imp.decode_pairs(&ws.scratch, inbox);
                assert_eq!(&inbox[before..], msg.as_slice(), "codec round trip");
                ws.scratch.len() as u64
            };
            ws.transfers.push((i, j, bytes));
            if !pmap.same_node(i, j) {
                raw_wire += raw_bytes;
            }
        }
    }
    // end-hot-path

    let (cost, mut stats) = exchange_round_cost(&ws.transfers, pmap, net, &mut ws.pricing);
    stats.raw_bytes = raw_wire;
    (cost, stats)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::{presets, PlacementPolicy, ProcessMap};

    type Sends = Vec<Vec<Vec<(u32, u32)>>>;

    fn setup(nodes: usize, ppn: usize) -> (ProcessMap, NetworkModel) {
        let m = presets::xeon_x7550_cluster(nodes);
        let policy = if ppn > 1 {
            PlacementPolicy::BindToSocket
        } else {
            PlacementPolicy::Interleave
        };
        (ProcessMap::new(&m, ppn, policy), NetworkModel::new(&m))
    }

    /// One exchange through a fresh workspace.
    fn exchange(
        sends: &Sends,
        pmap: &ProcessMap,
        net: &NetworkModel,
        codec: Codec,
    ) -> (AlltoallvWorkspace, CommCost, CollectiveStats) {
        let mut ws = AlltoallvWorkspace::default();
        let rows: Vec<&[Vec<(u32, u32)>]> = sends.iter().map(Vec::as_slice).collect();
        let (cost, stats) = alltoallv_pairs_codec_into(&mut ws, &rows, pmap, net, codec);
        (ws, cost, stats)
    }

    /// Dense consecutive-destination records: rank `i` sends `k` records
    /// to each rank.
    fn record_matrix(np: usize, k: usize) -> Sends {
        (0..np)
            .map(|i| {
                (0..np)
                    .map(|j| (0..k).map(|r| ((j * k + r) as u32, i as u32)).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn exchange_routes_everything_in_sender_order() {
        let (pmap, net) = setup(2, 8);
        let np = pmap.world_size();
        // Rank i sends the pair (i, j) to rank j.
        let sends: Sends = (0..np)
            .map(|i| (0..np).map(|j| vec![(i as u32, j as u32)]).collect())
            .collect();
        let (ws, cost, stats) = exchange(&sends, &pmap, &net, Codec::Raw);
        for (j, inbox) in ws.received.iter().enumerate() {
            let expect: Vec<(u32, u32)> = (0..np).map(|i| (i as u32, j as u32)).collect();
            assert_eq!(inbox, &expect, "receiver {j}");
        }
        assert!(cost.total() > SimTime::ZERO);
        assert_eq!(stats.rounds, 1);
        // 2 nodes: one aggregated flow per direction.
        assert_eq!(stats.flows, 2);
        // Half of each rank's np pairs cross the wire, half stay local.
        let total = (np * np * 8) as u64;
        assert_eq!(stats.wire_bytes, total / 2);
        assert_eq!(stats.shm_bytes, total / 2);
    }

    #[test]
    fn empty_exchange_is_cheap_and_empty() {
        let (pmap, net) = setup(2, 1);
        let np = pmap.world_size();
        let sends: Sends = vec![vec![Vec::new(); np]; np];
        let (ws, cost, _) = exchange(&sends, &pmap, &net, Codec::Raw);
        assert!(ws.received.iter().all(Vec::is_empty));
        assert_eq!(cost.total(), SimTime::ZERO);
    }

    #[test]
    fn intra_node_only_exchange_has_no_wire_time() {
        let (pmap, net) = setup(1, 8);
        let np = pmap.world_size();
        let mut sends: Sends = vec![vec![Vec::new(); np]; np];
        sends[0][1] = vec![(1, 2), (3, 4)];
        let (ws, cost, stats) = exchange(&sends, &pmap, &net, Codec::Raw);
        assert_eq!(ws.received[1], vec![(1, 2), (3, 4)]);
        assert_eq!(stats.wire_bytes, 0);
        // Still costs shm time, but far less than any wire transfer would.
        assert!(cost.total() < SimTime::from_micros(100.0));
    }

    #[test]
    fn bigger_payload_costs_more() {
        let (pmap, net) = setup(4, 8);
        let np = pmap.world_size();
        let small = exchange(&record_matrix(np, 10), &pmap, &net, Codec::Raw).1;
        let big = exchange(&record_matrix(np, 10_000), &pmap, &net, Codec::Raw).1;
        assert!(big.total() > small.total());
    }

    #[test]
    #[should_panic(expected = "send matrix row per rank")]
    fn bad_matrix_rejected() {
        let (pmap, net) = setup(2, 1);
        let sends: Sends = vec![vec![Vec::new(); 2]];
        exchange(&sends, &pmap, &net, Codec::Raw);
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn row_length_must_divide_the_world() {
        let (pmap, net) = setup(2, 8);
        let sends: Sends = vec![vec![Vec::new(); 3]; pmap.world_size()];
        exchange(&sends, &pmap, &net, Codec::Raw);
    }

    #[test]
    fn codec_exchange_matches_raw_inboxes() {
        let (pmap, net) = setup(2, 8);
        let np = pmap.world_size();
        let sends = record_matrix(np, 7);
        let (raw_ws, _, raw_stats) = exchange(&sends, &pmap, &net, Codec::Raw);
        assert_eq!(raw_stats.raw_bytes, raw_stats.wire_bytes);
        let (ws, cost, stats) = exchange(&sends, &pmap, &net, Codec::DeltaVarint);
        assert_eq!(ws.received, raw_ws.received);
        assert_eq!(stats.raw_bytes, raw_stats.wire_bytes);
        assert!(
            stats.wire_bytes <= raw_stats.wire_bytes + (np * np) as u64,
            "wire volume beyond the tag-byte cap"
        );
        assert!(cost.total() > SimTime::ZERO, "moved bytes for free");
    }

    #[test]
    fn delta_varint_exchange_compresses_dense_records() {
        let (pmap, net) = setup(2, 8);
        let np = pmap.world_size();
        let sends = record_matrix(np, 200);
        let (_, _, stats) = exchange(&sends, &pmap, &net, Codec::DeltaVarint);
        assert!(
            stats.wire_bytes * 2 < stats.raw_bytes,
            "consecutive destinations must compress at least 2x: wire {} raw {}",
            stats.wire_bytes,
            stats.raw_bytes
        );
        // Shm hops carry the compressed payload too (sender encodes once).
        let raw_shm = exchange(&sends, &pmap, &net, Codec::Raw).2.shm_bytes;
        assert!(
            stats.shm_bytes < raw_shm,
            "shm must also carry encoded bytes"
        );
    }

    #[test]
    fn workspace_reuse_matches_fresh() {
        // Exchanges of different shapes through one workspace must
        // produce exactly what fresh workspaces produce — stale buffer
        // contents may not leak into inboxes, costs or stats.
        let (pmap, net) = setup(2, 8);
        let np = pmap.world_size();
        for codec in Codec::ALL {
            let mut ws = AlltoallvWorkspace::default();
            for k in [9, 2, 0, 9] {
                let sends = record_matrix(np, k);
                let rows: Vec<&[Vec<(u32, u32)>]> = sends.iter().map(Vec::as_slice).collect();
                let (cost, stats) = alltoallv_pairs_codec_into(&mut ws, &rows, &pmap, &net, codec);
                let (fresh, fcost, fstats) = exchange(&sends, &pmap, &net, codec);
                assert_eq!(ws.received, fresh.received, "{codec:?} k={k}");
                assert_eq!(cost, fcost, "{codec:?} k={k}");
                assert_eq!(stats, fstats, "{codec:?} k={k}");
            }
        }
    }
}

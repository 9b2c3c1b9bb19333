//! Property-based tests for the cost models: costs must behave like
//! physical quantities (non-negative, monotone in work, additive-ish).

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use proptest::prelude::*;

use nbfs_simnet::compute::{ModelParams, ProbeClass};
use nbfs_simnet::{
    CacheModel, ComputeContext, ComputeEvents, Flow, FlowGroup, FlowSolver, NetworkModel,
    Residence, RoundScratch,
};
use nbfs_topology::{presets, MachineConfig, MemoryProfile, PlacementPolicy, ProcessMap};
use nbfs_util::SimTime;

fn residences() -> impl Strategy<Value = Residence> {
    prop_oneof![
        Just(Residence::SocketPrivate),
        Just(Residence::NodeShared),
        Just(Residence::InterleavedPrivateCache),
    ]
}

/// `ComputeContext::time` as one expression per bottleneck, every
/// denominator computed in place: the formula the simulated clock was
/// pinned with, kept here as the oracle of the context's precomputed form.
fn time_by_formula(
    machine: &MachineConfig,
    cores: usize,
    prof: &MemoryProfile,
    ranks_on_node: usize,
    p: ModelParams,
    events: &ComputeEvents,
) -> SimTime {
    let cache = CacheModel::new(machine);
    let cores = cores as f64;
    let mut probe_ns_total = 0.0;
    let mut probe_miss_bytes = 0.0;
    let mut loaded_qpi_bytes = 0.0;
    let mut shared_qpi_bytes = 0.0;
    let line = machine.socket.cache.line_bytes as f64;
    for pc in events.probes.iter().filter(|pc| pc.count > 0) {
        let b = cache.probe_breakdown(pc.working_set, pc.residence);
        probe_ns_total += pc.count as f64 * b.mean_ns;
        probe_miss_bytes += pc.count as f64 * b.dram_fraction * line;
        let qpi = pc.count as f64 * b.cross_socket_fraction * line;
        match pc.residence {
            Residence::NodeShared => shared_qpi_bytes += qpi,
            _ => loaded_qpi_bytes += qpi,
        }
    }
    let t_lat = SimTime::from_nanos(probe_ns_total / (cores * p.mlp) / prof.scheduling_efficiency);
    let stream_bytes = (events.vertex_scan_bytes + events.edge_bytes + events.write_bytes) as f64;
    let rank_stream_bw =
        (cores * p.core_stream_bw).min(prof.node_stream_bw(machine) / ranks_on_node as f64);
    let t_stream = SimTime::from_secs(stream_bytes / rank_stream_bw);
    let dram_bytes = probe_miss_bytes + stream_bytes;
    let node_dram_bw = machine.socket.mem_bw * prof.channels;
    let t_dram = SimTime::from_secs(dram_bytes / (node_dram_bw / ranks_on_node as f64));
    let raw_fabric =
        machine.sockets_per_node as f64 * machine.socket.qpi_links as f64 * machine.socket.qpi_bw
            / 2.0;
    let t_qpi = if machine.sockets_per_node > 1 {
        let loaded = loaded_qpi_bytes + (1.0 - prof.local_fraction) * stream_bytes;
        let ranks = ranks_on_node as f64;
        let t_loaded = SimTime::from_secs(
            loaded / (raw_fabric * p.qpi_loaded_efficiency * prof.scheduling_efficiency / ranks),
        );
        let t_shared = SimTime::from_secs(
            shared_qpi_bytes / (raw_fabric * p.qpi_shared_read_efficiency / ranks),
        );
        t_loaded.max(t_shared)
    } else {
        SimTime::ZERO
    };
    let t_cpu =
        SimTime::from_secs(events.cpu_ops as f64 / (cores * machine.socket.ghz * 1e9 * p.ipc));
    t_lat.max(t_stream).max(t_dram).max(t_qpi).max(t_cpu)
}

/// One probe class from its draw, with no probes when `sel == 0`.
fn probe_class((sel, count, working_set, residence): (u8, u64, usize, Residence)) -> ProbeClass {
    ProbeClass {
        count: if sel == 0 { 0 } else { count },
        working_set,
        residence,
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(512))]

    /// The context computes its denominators once, at construction, and
    /// must still price every event record to the bits of the formula it
    /// replaced: on one 8-socket node, a cluster and a single-socket node,
    /// under every placement, with random cores, ranks per node, cache
    /// scales, model constants and events.
    #[test]
    fn context_time_matches_the_formula_bit_for_bit(
        shape in 0u8..3,
        nodes in 2usize..17,
        cache_shift in 0u32..16,
        policy in 0u8..3,
        ppn in 1usize..17,
        cores in 1usize..65,
        ranks_on_node in 1usize..65,
        params in (0.5f64..4.0, 1e9f64..1e10, 0.5f64..3.0, 0.01f64..1.0, 0.1f64..1.0),
        bytes in (0u64..(1 << 40), 0u64..(1 << 40), 0u64..(1 << 40), 0u64..(1 << 40)),
        first in (0u8..4, 1u64..(1 << 32), 1usize..(1 << 32), residences()),
        second in (0u8..4, 1u64..(1 << 32), 1usize..(1 << 32), residences()),
    ) {
        let machine = match shape {
            0 => presets::xeon_x7550_node(),
            1 => presets::xeon_x7550_cluster(nodes),
            _ => presets::xeon_x7550_node().with_sockets_per_node(1),
        }
        .scaled_to_graph(28 - cache_shift, 28);
        let (policy, ppn) = match policy {
            0 => (PlacementPolicy::BindToSocket, machine.sockets_per_node),
            1 => (PlacementPolicy::Interleave, ppn),
            _ => (PlacementPolicy::Noflag, ppn),
        };
        let prof = ProcessMap::new(&machine, ppn, policy).memory_profile(&machine);
        let (mlp, core_stream_bw, ipc, qpi_loaded_efficiency, qpi_shared_read_efficiency) = params;
        let params = ModelParams {
            mlp,
            core_stream_bw,
            ipc,
            qpi_loaded_efficiency,
            qpi_shared_read_efficiency,
        };
        let (vertex_scan_bytes, edge_bytes, write_bytes, cpu_ops) = bytes;
        let events = ComputeEvents {
            vertex_scan_bytes,
            edge_bytes,
            write_bytes,
            cpu_ops,
            probes: [probe_class(first), probe_class(second)],
        };
        let ctx = ComputeContext::new(&machine, cores, prof, ranks_on_node, params);
        let want = time_by_formula(&machine, cores, &prof, ranks_on_node, params, &events);
        prop_assert_eq!(ctx.time(&events).as_secs().to_bits(), want.as_secs().to_bits());
        // An empty record and a recycled context price the same way.
        let empty = ComputeEvents::default();
        let want_empty = time_by_formula(&machine, cores, &prof, ranks_on_node, params, &empty);
        prop_assert_eq!(ctx.time(&empty).as_secs().to_bits(), want_empty.as_secs().to_bits());
    }
}

proptest! {
    /// Probe latency is positive, finite and monotone in the working set.
    #[test]
    fn probe_latency_sane(res in residences(), ws in 1usize..(1 << 30)) {
        let cache = CacheModel::new(&presets::cluster2012());
        let lat = cache.probe_ns(ws, res, 1);
        prop_assert!(lat.is_finite() && lat > 0.0);
        let bigger = cache.probe_ns(ws.saturating_mul(2), res, 1);
        prop_assert!(bigger + 1e-9 >= lat);
    }

    /// Probe breakdown fractions are probabilities consistent with the
    /// latency model.
    #[test]
    fn probe_breakdown_fractions(res in residences(), ws in 1usize..(1 << 30)) {
        let cache = CacheModel::new(&presets::cluster2012());
        let b = cache.probe_breakdown(ws, res);
        prop_assert!((0.0..=1.0).contains(&b.dram_fraction));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&b.cross_socket_fraction));
        prop_assert!((b.mean_ns - cache.probe_ns(ws, res, 1)).abs() < 1e-9);
    }

    /// More of any work component never makes a phase faster.
    #[test]
    fn compute_time_monotone_in_work(
        base_edges in 0u64..1_000_000,
        extra in 1u64..1_000_000,
        probes in 0u64..1_000_000,
    ) {
        let m = presets::xeon_x7550_node();
        let pmap = ProcessMap::new(&m, 8, PlacementPolicy::BindToSocket);
        let prof = pmap.memory_profile(&m);
        let ctx = ComputeContext::new(&m, 8, prof, 8, ModelParams::default());
        let ev = |edges: u64, p: u64| ComputeEvents {
            vertex_scan_bytes: 1000,
            edge_bytes: edges,
            write_bytes: 0,
            cpu_ops: edges,
            probes: [
                ProbeClass {
                    count: p,
                    working_set: 1 << 22,
                    residence: Residence::SocketPrivate,
                },
                ProbeClass::NONE,
            ],
        };
        let t0 = ctx.time(&ev(base_edges, probes));
        let t1 = ctx.time(&ev(base_edges + extra, probes));
        let t2 = ctx.time(&ev(base_edges, probes + extra));
        prop_assert!(t1 >= t0);
        prop_assert!(t2 >= t0);
    }

    /// More cores never slow a rank down.
    #[test]
    fn compute_time_monotone_in_cores(cores in 1usize..8, edges in 1u64..1_000_000) {
        let m = presets::xeon_x7550_node();
        let pmap = ProcessMap::new(&m, 8, PlacementPolicy::BindToSocket);
        let prof = pmap.memory_profile(&m);
        let ev = ComputeEvents {
            vertex_scan_bytes: edges,
            edge_bytes: edges * 4,
            write_bytes: edges / 8,
            cpu_ops: edges * 3,
            probes: [
                ProbeClass {
                    count: edges,
                    working_set: 1 << 20,
                    residence: Residence::SocketPrivate,
                },
                ProbeClass::NONE,
            ],
        };
        let t_few = ComputeContext::new(&m, cores, prof, 8, ModelParams::default()).time(&ev);
        let t_more = ComputeContext::new(&m, cores + 1, prof, 8, ModelParams::default()).time(&ev);
        prop_assert!(t_more <= t_few + SimTime::from_nanos(1.0));
    }

    /// A round with strictly more bytes on some flow takes at least as long.
    #[test]
    fn flow_round_monotone(
        flows in prop::collection::vec((0usize..4, 0usize..4, 0u64..(1 << 28)), 1..12),
        bump in 1u64..(1 << 20),
    ) {
        let solver = FlowSolver::new(&presets::xeon_x7550_cluster(4));
        let clean: Vec<Flow> = flows
            .iter()
            .filter(|&&(s, d, _)| s != d)
            .map(|&(s, d, b)| Flow::new(s, d, b))
            .collect();
        prop_assume!(!clean.is_empty());
        let t0 = solver.round_time(&clean);
        let mut bigger = clean.clone();
        bigger[0].bytes += bump;
        let t1 = solver.round_time(&bigger);
        prop_assert!(t1 >= t0);
    }

    /// Adding a flow never speeds the round up.
    #[test]
    fn extra_flow_never_helps(
        s in 0usize..4, d in 0usize..4, bytes in 1u64..(1 << 28),
        s2 in 0usize..4, d2 in 0usize..4, bytes2 in 1u64..(1 << 28),
    ) {
        prop_assume!(s != d && s2 != d2);
        let solver = FlowSolver::new(&presets::xeon_x7550_cluster(4));
        let one = solver.round_time(&[Flow::new(s, d, bytes)]);
        let two = solver.round_time(&[Flow::new(s, d, bytes), Flow::new(s2, d2, bytes2)]);
        prop_assert!(two >= one);
    }

    /// Summarising a round's flows into one group per node pair never moves
    /// its price: bit-equal to pricing every flow as its own group, with
    /// empty flows (every flow of the round when `all_empty == 0`, where
    /// only the latency prices it), sizes that differ inside a pair, and a
    /// weak node when `weak < nodes`.
    #[test]
    fn grouped_round_prices_like_its_flows(
        nodes in 2usize..17,
        flows in prop::collection::vec((0usize..16, 0usize..15, 0u8..3, 1u64..(1 << 28)), 1..64),
        all_empty in 0u8..4,
        weak in 0usize..32,
        factor in 0.1f64..1.0,
    ) {
        let mut machine = presets::xeon_x7550_cluster(nodes);
        if weak < nodes {
            machine = machine.with_weak_node(weak, factor);
        }
        let solver = FlowSolver::new(&machine);
        let flows: Vec<Flow> = flows
            .iter()
            .map(|&(s, hop, size, bytes)| {
                let src = s % nodes;
                let dst = (src + 1 + hop % (nodes - 1)) % nodes;
                let bytes = match size {
                    _ if all_empty == 0 => 0,
                    0 => 0,
                    1 => bytes % 1024 + 1,
                    _ => bytes,
                };
                Flow::new(src, dst, bytes)
            })
            .collect();
        let mut groups: Vec<FlowGroup> = Vec::new();
        for f in &flows {
            let at = match groups
                .iter()
                .position(|g| (g.src_node, g.dst_node) == (f.src_node, f.dst_node))
            {
                Some(at) => at,
                None => {
                    groups.push(FlowGroup::new(f.src_node, f.dst_node));
                    groups.len() - 1
                }
            };
            groups[at].add(f.bytes);
        }
        let mut scratch = RoundScratch::default();
        let flat = solver.round_time(&flows);
        // Twice through one scratch: a recycled buffer prices the same.
        for _ in 0..2 {
            let grouped = solver.round_time_grouped(&groups, &mut scratch);
            prop_assert_eq!(grouped.as_secs().to_bits(), flat.as_secs().to_bits());
        }
    }

    /// Shared-memory copy time grows with bytes and with copier count.
    #[test]
    fn shm_copy_monotone(bytes in 1u64..(1 << 28), copiers in 1usize..32) {
        let net = NetworkModel::new(&presets::xeon_x7550_node());
        let t = net.shm_copy_time(bytes, copiers, 8);
        prop_assert!(t > SimTime::ZERO);
        prop_assert!(net.shm_copy_time(bytes * 2, copiers, 8) >= t);
        prop_assert!(net.shm_copy_time(bytes, copiers + 1, 8) >= t);
    }
}

//! Roofline-style cost model for the BFS computation phases.
//!
//! The engines in `nbfs-core` execute the real algorithm and *count* what it
//! did — vertices scanned, summary/`in_queue` probes issued, adjacency bytes
//! streamed, queue bits written. This module converts those counts into
//! simulated time for one rank by finding the binding bottleneck:
//!
//! * exposed latency of random bitmap probes (BFS is latency-bound; this is
//!   usually the roof),
//! * streaming bandwidth for the CSR adjacency scan,
//! * DRAM bandwidth consumed by probe misses,
//! * cross-socket QPI bandwidth (what strangles the `interleave`/`noflag`
//!   policies in Figs. 3, 10 and 11),
//! * instruction throughput.
//!
//! The max-of-bottlenecks form is the standard roofline argument: a
//! well-pipelined loop overlaps these resources, so the slowest one sets the
//! pace.

use nbfs_topology::{MachineConfig, MemoryProfile};
use nbfs_util::SimTime;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheModel, Residence};

/// Microarchitectural constants of the model, exposed for ablation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Outstanding misses one core overlaps (memory-level parallelism).
    pub mlp: f64,
    /// Sustained copy/stream bandwidth of a single core, bytes/s.
    pub core_stream_bw: f64,
    /// Average instructions per cycle for the scalar BFS inner loops.
    pub ipc: f64,
    /// Fraction of the raw QPI fabric usable by *loaded* mixed traffic —
    /// bulk remote streaming plus random misses with ownership transfers,
    /// as the `interleave`/`noflag` policies generate. Snoop storms and
    /// coherence overhead eat most of the raw rate on Nehalem-EX \[39\].
    pub qpi_loaded_efficiency: f64,
    /// Fraction of the raw QPI fabric usable by read-only sharing traffic
    /// (cache-to-cache forwards of a node-shared bitmap): no ownership
    /// transfers, no writebacks, much higher achievable utilization.
    pub qpi_shared_read_efficiency: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        Self {
            // Dependent loads plus a mispredicted hit-check branch per
            // neighbour barely overlap misses; effective MLP for
            // Nehalem-class BFS inner loops sits near 1.5.
            mlp: 1.5,
            core_stream_bw: 4.5e9,
            ipc: 1.3,
            qpi_loaded_efficiency: 0.06,
            qpi_shared_read_efficiency: 0.55,
        }
    }
}

/// One class of uniform random probes (e.g. all `in_queue` probes of a
/// level share a working set and a residence).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProbeClass {
    /// Number of probes issued.
    pub count: u64,
    /// Size of the probed structure, bytes.
    pub working_set: usize,
    /// Where the structure lives.
    pub residence: Residence,
}

impl ProbeClass {
    /// No probes: the filler of an unused [`ComputeEvents::probes`] slot.
    pub const NONE: Self = Self {
        count: 0,
        working_set: 0,
        residence: Residence::SocketPrivate,
    };
}

impl Default for ProbeClass {
    fn default() -> Self {
        Self::NONE
    }
}

/// Work counted for one rank during one computation phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ComputeEvents {
    /// Bytes streamed sequentially over per-vertex state (parent array,
    /// visited bitmap words).
    pub vertex_scan_bytes: u64,
    /// Bytes streamed from the CSR adjacency arrays.
    pub edge_bytes: u64,
    /// Bytes written to queues / parent entries.
    pub write_bytes: u64,
    /// Abstract ALU/branch operations retired.
    pub cpu_ops: u64,
    /// Random-probe classes: a bottom-up scan's summary and `in_queue`
    /// probes, a top-down scan's index lookups and [`ProbeClass::NONE`].
    /// A fixed size keeps the record off the heap; a class with no probes
    /// costs nothing.
    pub probes: [ProbeClass; 2],
}

impl ComputeEvents {
    /// Total sequentially streamed bytes.
    fn stream_bytes(&self) -> u64 {
        self.vertex_scan_bytes + self.edge_bytes + self.write_bytes
    }
}

/// Execution context of one rank during a computation phase.
///
/// Everything [`Self::time`] divides by is a constant of the context, so
/// [`Self::new`] computes the denominators once, with the expressions and
/// operand order the model was pinned with; `time` keeps every division,
/// and `x / d` with `d` computed ahead is the same IEEE operation.
#[derive(Clone, Debug)]
pub struct ComputeContext {
    /// The probe model of the machine the rank runs on.
    cache: CacheModel,
    /// Line size of the machine's caches, bytes.
    line: f64,
    /// Misses the rank's cores overlap: `cores · mlp`.
    overlapped_misses: f64,
    /// The placement's scheduling efficiency.
    scheduling_efficiency: f64,
    /// Streaming bandwidth of the rank: its cores' own, capped by its
    /// share of the node's.
    stream_bw: f64,
    /// The rank's share of the node's DRAM bandwidth.
    dram_bw: f64,
    /// Share of streamed bytes that cross a QPI link: `1 − local_fraction`.
    remote_stream_fraction: f64,
    /// The rank's share of the fabric under loaded mixed traffic and under
    /// read-only sharing; `None` on a single-socket node, which has no QPI
    /// term.
    qpi_bw: Option<(f64, f64)>,
    /// Operations the rank's cores retire per second.
    ops_per_sec: f64,
}

impl ComputeContext {
    /// Context on `machine` for a rank driven by `cores` cores ("OpenMP
    /// threads" of the paper's hybrid programming model), whose graph data
    /// is placed as `graph_profile`, among `ranks_on_node` ranks active on
    /// its node (they share the node's memory channels and QPI fabric),
    /// with the model constants `params`.
    pub fn new(
        machine: &MachineConfig,
        cores: usize,
        graph_profile: MemoryProfile,
        ranks_on_node: usize,
        params: ModelParams,
    ) -> Self {
        assert!(cores >= 1 && ranks_on_node >= 1);
        let prof = &graph_profile;
        let cores = cores as f64;
        let ranks = ranks_on_node as f64;
        // Raw node fabric: every socket's links, each link shared by its
        // two endpoints.
        let raw_fabric = machine.sockets_per_node as f64
            * machine.socket.qpi_links as f64
            * machine.socket.qpi_bw
            / 2.0;
        // Unbound threads (noflag) migrate between sockets, dragging
        // cached lines behind them — the scheduling haircut applies to
        // fabric efficiency too.
        let qpi_bw = (machine.sockets_per_node > 1).then(|| {
            (
                raw_fabric * params.qpi_loaded_efficiency * prof.scheduling_efficiency / ranks,
                raw_fabric * params.qpi_shared_read_efficiency / ranks,
            )
        });
        Self {
            cache: CacheModel::new(machine),
            line: machine.socket.cache.line_bytes as f64,
            overlapped_misses: cores * params.mlp,
            scheduling_efficiency: prof.scheduling_efficiency,
            stream_bw: (cores * params.core_stream_bw).min(prof.node_stream_bw(machine) / ranks),
            dram_bw: machine.socket.mem_bw * prof.channels / ranks,
            remote_stream_fraction: 1.0 - prof.local_fraction,
            qpi_bw,
            ops_per_sec: cores * machine.socket.ghz * 1e9 * params.ipc,
        }
    }

    /// Simulated duration of the counted work.
    pub fn time(&self, events: &ComputeEvents) -> SimTime {
        let cache = &self.cache;

        // --- exposed probe latency -------------------------------------
        let mut probe_ns_total = 0.0;
        let mut probe_miss_bytes = 0.0;
        let mut loaded_qpi_bytes = 0.0;
        let mut shared_qpi_bytes = 0.0;
        let line = self.line;
        // A class with no probes would add +0.0 to every sum: skip it.
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
        let t_lat = SimTime::from_nanos(
            probe_ns_total / self.overlapped_misses / self.scheduling_efficiency,
        );

        // --- streaming bandwidth ----------------------------------------
        let stream_bytes = events.stream_bytes() as f64;
        let t_stream = SimTime::from_secs(stream_bytes / self.stream_bw);

        // --- DRAM bandwidth (random misses + streams) --------------------
        let dram_bytes = probe_miss_bytes + stream_bytes;
        let t_dram = SimTime::from_secs(dram_bytes / self.dram_bw);

        // --- QPI fabric ---------------------------------------------------
        let t_qpi = match self.qpi_bw {
            Some((loaded_bw, shared_bw)) => {
                let loaded = loaded_qpi_bytes + self.remote_stream_fraction * stream_bytes;
                let t_loaded = SimTime::from_secs(loaded / loaded_bw);
                let t_shared = SimTime::from_secs(shared_qpi_bytes / shared_bw);
                t_loaded.max(t_shared)
            }
            None => SimTime::ZERO,
        };

        // --- instruction throughput --------------------------------------
        let t_cpu = SimTime::from_secs(events.cpu_ops as f64 / self.ops_per_sec);

        t_lat.max(t_stream).max(t_dram).max(t_qpi).max(t_cpu)
    }
}

/// Detailed result of a probe-class analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeBreakdown {
    /// Expected latency per probe, ns.
    pub mean_ns: f64,
    /// Fraction of probes that miss every cache and touch DRAM.
    pub dram_fraction: f64,
    /// Fraction of probes whose line crosses a QPI link (remote-L3 hit or
    /// remote DRAM access).
    pub cross_socket_fraction: f64,
}

impl CacheModel {
    /// Probe statistics for the compute model; consistent with
    /// [`CacheModel::probe_ns`].
    pub fn probe_breakdown(&self, working_set: usize, residence: Residence) -> ProbeBreakdown {
        let m = self.machine();
        let c = m.socket.cache;
        let ws = working_set.max(1) as f64;
        let sockets = m.sockets_per_node as f64;
        let l3 = c.l3_bytes as f64 * crate::cache::effective_capacity_factor();
        let (dram_fraction, cross_socket_fraction) = match residence {
            Residence::SocketPrivate => {
                let p_l3 = (l3 / ws).min(1.0);
                (1.0 - p_l3, 0.0)
            }
            Residence::NodeShared => {
                // Replication model (see CacheModel::probe_ns): local-L3
                // hits stay on-socket; remote-L3 forwards and the remote
                // share of interleaved DRAM misses cross QPI.
                let p_l3_local = (l3 / ws).min(1.0);
                let p_l3_any = (l3 * sockets / ws).min(1.0);
                let dram = 1.0 - p_l3_any;
                let cross = (p_l3_any - p_l3_local) + dram * (sockets - 1.0) / sockets;
                (dram, cross)
            }
            Residence::InterleavedPrivateCache => {
                let p_l3 = (l3 / ws).min(1.0);
                let dram = 1.0 - p_l3;
                (dram, dram * (sockets - 1.0) / sockets)
            }
        };
        ProbeBreakdown {
            mean_ns: self.probe_ns(working_set, residence, 1),
            dram_fraction,
            cross_socket_fraction,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::{presets, PlacementPolicy, ProcessMap};

    fn machine() -> MachineConfig {
        presets::xeon_x7550_node()
    }

    /// A synthetic bottom-up-like workload: probe-heavy, stream-moderate.
    fn workload(scale_bytes: usize) -> ComputeEvents {
        let n = 4_000_000u64;
        ComputeEvents {
            vertex_scan_bytes: n,
            edge_bytes: 16 * n,
            write_bytes: n / 4,
            cpu_ops: 20 * n,
            probes: [
                ProbeClass {
                    count: 2 * n,
                    working_set: scale_bytes,
                    residence: Residence::SocketPrivate,
                },
                ProbeClass::NONE,
            ],
        }
    }

    #[test]
    fn more_cores_is_faster_with_diminishing_returns() {
        let m = machine();
        let prof = ProcessMap::new(&m, 8, PlacementPolicy::BindToSocket).memory_profile(&m);
        let ev = workload(64 << 20);
        let t1 = ComputeContext::new(&m, 1, prof, 1, ModelParams::default()).time(&ev);
        let t8 = ComputeContext::new(&m, 8, prof, 1, ModelParams::default()).time(&ev);
        let speedup = t1 / t8;
        assert!(
            (4.0..=8.0).contains(&speedup),
            "8-core speedup {speedup} out of band"
        );
    }

    #[test]
    fn interleave_slower_than_bind_per_socket() {
        // Fig. 3 / Fig. 10 direction: the same work is slower when graph
        // accesses are interleaved across sockets.
        let m = machine();
        let bind = ProcessMap::new(&m, 8, PlacementPolicy::BindToSocket).memory_profile(&m);
        let inter = ProcessMap::new(&m, 1, PlacementPolicy::Interleave).memory_profile(&m);
        let mut ev = workload(64 << 20);
        let t_bind = ComputeContext::new(&m, 8, bind, 8, ModelParams::default()).time(&ev);
        // Interleaved run probes a full-size in_queue with remote DRAM mix.
        for pc in &mut ev.probes {
            pc.residence = Residence::InterleavedPrivateCache;
        }
        let t_inter = ComputeContext::new(&m, 8, inter, 8, ModelParams::default()).time(&ev);
        let ratio = t_inter / t_bind;
        assert!(
            ratio > 1.3,
            "interleaved must be clearly slower, got {ratio}"
        );
    }

    #[test]
    fn empty_events_cost_nothing() {
        let m = machine();
        let prof = ProcessMap::new(&m, 8, PlacementPolicy::BindToSocket).memory_profile(&m);
        let t = ComputeContext::new(&m, 8, prof, 8, ModelParams::default())
            .time(&ComputeEvents::default());
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn probe_breakdown_consistency() {
        let cache = CacheModel::new(&machine());
        for residence in [
            Residence::SocketPrivate,
            Residence::NodeShared,
            Residence::InterleavedPrivateCache,
        ] {
            for ws in [1usize << 12, 1 << 20, 1 << 25, 1 << 30] {
                let b = cache.probe_breakdown(ws, residence);
                assert!((0.0..=1.0).contains(&b.dram_fraction));
                assert!((0.0..=1.0).contains(&b.cross_socket_fraction));
                assert!(b.mean_ns > 0.0);
                assert!(
                    (b.mean_ns - cache.probe_ns(ws, residence, 1)).abs() < 1e-9,
                    "breakdown latency must equal probe_ns"
                );
            }
        }
    }

    #[test]
    fn cross_socket_traffic_zero_when_private() {
        let cache = CacheModel::new(&machine());
        let b = cache.probe_breakdown(1 << 30, Residence::SocketPrivate);
        assert_eq!(b.cross_socket_fraction, 0.0);
        let b = cache.probe_breakdown(1 << 30, Residence::InterleavedPrivateCache);
        assert!(
            b.cross_socket_fraction > 0.5,
            "interleaved misses cross QPI"
        );
    }

    #[test]
    fn single_socket_machine_has_no_qpi_term() {
        let mut m = machine();
        m.sockets_per_node = 1;
        let prof = ProcessMap::new(&m, 1, PlacementPolicy::Interleave).memory_profile(&m);
        let ev = workload(64 << 20);
        // Must not panic or produce infinite time.
        let t = ComputeContext::new(&m, 8, prof, 1, ModelParams::default()).time(&ev);
        assert!(t.as_secs().is_finite() && t.as_secs() > 0.0);
    }
}

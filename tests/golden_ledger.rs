//! Golden snapshots of the Fig. 11 collective-volume ledger: per-kind
//! call / round / flow / byte totals for the two scenarios the paper
//! contrasts at scale 16 — `Original.ppn=8` (private buffers, ring
//! allgather) and `Share all` (both summary and in-queue shared).
//!
//! The goldens pin the cost model's *communication volume* independent of
//! timing parameters: any change to collective call sites, round counts
//! or wire/shm byte accounting trips a diff here. Regenerate on purpose
//! with:
//!
//! ```text
//! NBFS_UPDATE_GOLDEN=1 cargo test --test golden_ledger
//! ```

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use numa_bfs::comm::codec::Codec;
use numa_bfs::core::engine::{DistributedBfs, Scenario};
use numa_bfs::core::opt::OptLevel;
use numa_bfs::graph::GraphBuilder;
use numa_bfs::topology::presets;
use numa_bfs::trace::{TraceConfig, TraceReport};

const SCALE: u32 = 16;
const NODES: usize = 16;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LedgerRow {
    calls: u64,
    rounds: u64,
    flows: u64,
    raw_bytes: u64,
    wire_bytes: u64,
    shm_bytes: u64,
}

/// Aggregate every collective record of the report (levels and the
/// post-run tail) into one row per collective kind, sorted by label.
fn ledger(report: &TraceReport) -> BTreeMap<&'static str, LedgerRow> {
    let mut table: BTreeMap<&'static str, LedgerRow> = BTreeMap::new();
    let records = report
        .levels
        .iter()
        .flat_map(|l| l.collectives.iter())
        .chain(report.post_collectives.iter());
    for record in records {
        let row = table.entry(record.kind.label()).or_default();
        row.calls += 1;
        row.rounds += record.stats.rounds;
        row.flows += record.stats.flows;
        row.raw_bytes += record.stats.raw_bytes;
        row.wire_bytes += record.stats.wire_bytes;
        row.shm_bytes += record.stats.shm_bytes;
    }
    table
}

/// Canonical JSON rendering (sorted keys, fixed indentation) so the
/// golden diff is stable and reviewable without a serializer.
fn render(table: &BTreeMap<&'static str, LedgerRow>) -> String {
    let mut out = String::from("{\n");
    for (i, (label, row)) in table.iter().enumerate() {
        let comma = if i + 1 == table.len() { "" } else { "," };
        writeln!(
            out,
            "  \"{label}\": {{ \"calls\": {}, \"rounds\": {}, \"flows\": {}, \
             \"raw_bytes\": {}, \"wire_bytes\": {}, \"shm_bytes\": {} }}{comma}",
            row.calls, row.rounds, row.flows, row.raw_bytes, row.wire_bytes, row.shm_bytes
        )
        .unwrap();
    }
    out.push_str("}\n");
    out
}

fn trace_scale16(opt: OptLevel) -> TraceReport {
    trace_scale16_codec(opt, Codec::Raw)
}

fn trace_scale16_codec(opt: OptLevel, codec: Codec) -> TraceReport {
    let g = GraphBuilder::rmat(SCALE, 16).seed(1).build();
    let machine = presets::xeon_x7550_cluster(NODES).scaled_to_graph(SCALE, 28);
    let scenario = Scenario::builder(machine, opt)
        .trace(TraceConfig::Standard)
        .codec(codec)
        .build()
        .unwrap();
    let root = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
    let (_, report) = DistributedBfs::new(&g, &scenario).run_traced(root);
    report
}

fn check_golden(name: &str, rendered: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("NBFS_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with NBFS_UPDATE_GOLDEN=1)",
            name
        )
    });
    assert_eq!(
        rendered, golden,
        "collective-volume ledger drifted from {name}; if the change is \
         intentional regenerate with NBFS_UPDATE_GOLDEN=1"
    );
}

#[test]
fn fig11_ledger_original_ppn8_is_pinned() {
    let report = trace_scale16(OptLevel::OriginalPpn8);
    let table = ledger(&report);
    // Sanity on shape before pinning bytes: the ring exchange of the
    // baseline pushes every frontier segment over the wire.
    assert!(table.contains_key("allreduce"), "control plane missing");
    assert!(
        table.values().any(|row| row.wire_bytes > 0),
        "Original.ppn=8 recorded no wire traffic"
    );
    check_golden("fig11_ledger_original_ppn8.json", &render(&table));
}

#[test]
fn fig11_ledger_share_all_is_pinned() {
    let report = trace_scale16(OptLevel::ShareAll);
    let table = ledger(&report);
    assert!(table.contains_key("allreduce"), "control plane missing");
    // Share-all moves intra-node exchange into shared regions; some of
    // the collective volume must actually land there.
    assert!(
        table.values().any(|row| row.shm_bytes > 0),
        "Share all recorded no shared-region traffic"
    );
    check_golden("fig11_ledger_share_all.json", &render(&table));
}

/// The compression layer under `Share all`: same scenario as the plain
/// share-all pin but with the delta-varint wire codec. Pins the
/// raw-vs-wire split of the compressed run, so both the codec's output
/// sizes and the honest raw accounting are frozen.
#[test]
fn fig11_ledger_share_all_delta_varint_is_pinned() {
    let report = trace_scale16_codec(OptLevel::ShareAll, Codec::DeltaVarint);
    let table = ledger(&report);
    assert!(table.contains_key("allreduce"), "control plane missing");
    // Compression must actually bite at this scale: summed over the run,
    // the encoded wire volume undercuts the raw volume it stands in for.
    let raw: u64 = table.values().map(|r| r.raw_bytes).sum();
    let wire: u64 = table.values().map(|r| r.wire_bytes).sum();
    assert!(
        wire < raw,
        "delta-varint wire volume {wire} must undercut raw {raw}"
    );
    check_golden("fig11_ledger_share_all_delta_varint.json", &render(&table));
}

/// A raw run charges every collective exactly its uncompressed size: the
/// raw/wire split is the identity, and the raw ledger of the compressed
/// run matches the wire ledger of the uncompressed one (delta-varint
/// never drops records).
#[test]
fn raw_accounting_is_honest() {
    let raw_run = ledger(&trace_scale16(OptLevel::ShareAll));
    for (label, row) in &raw_run {
        assert_eq!(
            row.raw_bytes, row.wire_bytes,
            "{label}: raw codec must charge raw == wire"
        );
    }
    let dv_run = ledger(&trace_scale16_codec(OptLevel::ShareAll, Codec::DeltaVarint));
    for (label, row) in &dv_run {
        let base = raw_run
            .get(label)
            .unwrap_or_else(|| panic!("{label} missing from raw run"));
        assert_eq!(
            row.raw_bytes, base.wire_bytes,
            "{label}: compressed run's raw accounting drifted from the raw run"
        );
    }
}

/// The two scenarios differ exactly the way Fig. 11 says: sharing strictly
/// reduces the wire volume of the frontier exchange.
#[test]
fn sharing_strictly_reduces_wire_volume() {
    let base = ledger(&trace_scale16(OptLevel::OriginalPpn8));
    let shared = ledger(&trace_scale16(OptLevel::ShareAll));
    let wire = |t: &BTreeMap<&str, LedgerRow>| -> u64 { t.values().map(|r| r.wire_bytes).sum() };
    assert!(
        wire(&shared) < wire(&base),
        "share-all wire volume {} must undercut original {}",
        wire(&shared),
        wire(&base)
    );
}

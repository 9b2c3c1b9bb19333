//! The record vocabulary a trace shares with its producers.
//!
//! Collective kinds and statistics and fault records: the level driver
//! builds these values and the [`crate::Tracer`] appends them to
//! the [`crate::TraceReport`] as they are, so the type recorded is the
//! type serialized.

use serde::{Deserialize, Serialize};

use nbfs_util::SimTime;

/// Which collective operation a cost sample came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// The frontier-word allgather of the bottom-up exchange (Fig. 1).
    AllgatherWords,
    /// The `in_queue_summary` allgather that follows it.
    AllgatherSummary,
    /// The variable-length frontier-list allgather of sparse top-down.
    Allgatherv,
    /// The pairwise `(vertex, parent)` record fold of the 2-D engine.
    Alltoallv,
    /// A scalar allreduce (frontier size / termination vote).
    Allreduce,
    /// The row-ring frontier expansion of the 2-D engine.
    Expand2d,
}

impl CollectiveKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            CollectiveKind::AllgatherWords => "allgather-words",
            CollectiveKind::AllgatherSummary => "allgather-summary",
            CollectiveKind::Allgatherv => "allgatherv",
            CollectiveKind::Alltoallv => "alltoallv",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Expand2d => "expand-2d",
        }
    }
}

/// What an injected fault did to a transfer.
///
/// The taxonomy of the deterministic fault-injection layer (see
/// `nbfs-comm::fault`): the first four perturb a single message or
/// collective edge, the last two act on a whole rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The transfer is lost and must be retried (bounded budget).
    Drop,
    /// The transfer arrives late; a fixed penalty is charged.
    Delay,
    /// The transfer arrives twice; the receiver discards the copy.
    Duplicate,
    /// The transfer is held back one slot and overtaken by the next one.
    Reorder,
    /// A rank stalls for a fixed penalty before progressing.
    Stall,
    /// A rank dies; the world degrades to a structured error, never a hang.
    Crash,
}

impl FaultKind {
    /// Every kind, for matrix-style harnesses.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Stall,
        FaultKind::Crash,
    ];

    /// Short label for tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Stall => "stall",
            FaultKind::Crash => "crash",
        }
    }
}

/// Which operation a fault hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultOp {
    /// An edge of a simulated collective.
    Collective(CollectiveKind),
    /// A whole-rank fate (stall / crash), not tied to a transfer.
    Rank,
}

impl FaultOp {
    /// Short label for tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultOp::Collective(kind) => kind.label(),
            FaultOp::Rank => "rank",
        }
    }
}

/// One injected fault and how it resolved: an entry of
/// `TraceReport::faults`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// BFS level the fault fired in.
    pub level: usize,
    /// What the fault did.
    pub kind: FaultKind,
    /// The operation it hit.
    pub op: FaultOp,
    /// Source rank of the affected edge (the rank itself for rank fates).
    pub src: usize,
    /// Destination rank of the affected edge.
    pub dst: usize,
    /// Round index of the affected collective edge (0 for rank fates).
    pub tag: u64,
    /// Delivery attempts consumed, including the final successful one.
    pub attempts: u32,
    /// Whether the transfer ultimately completed.
    pub recovered: bool,
    /// Simulated time charged for retries / backoff / stalls.
    pub penalty: SimTime,
}

/// Integer byproducts of a collective cost evaluation: how the algorithm
/// moved the bytes, not just how long it took. Filled by the cost models in
/// `nbfs-comm` while they walk their rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CollectiveStats {
    /// Algorithm rounds executed (ring steps, doubling rounds, tree depth).
    pub rounds: u64,
    /// Wire flows solved by the network model across all rounds.
    pub flows: u64,
    /// Bytes that crossed the inter-node wire (post-codec: what the
    /// network model actually priced).
    pub wire_bytes: u64,
    /// Bytes moved through shared memory inside nodes.
    pub shm_bytes: u64,
    /// Wire bytes the same exchange would have moved uncompressed. Equal
    /// to `wire_bytes` under the `Raw` codec; the `wire/raw` quotient is
    /// the compression ratio the trace ledger reports. Schema v3; absent
    /// in v2 reports, whose imports backfill `raw_bytes = wire_bytes`
    /// (see the manual [`serde::Deserialize`] impl below).
    pub raw_bytes: u64,
}

/// Manual impl instead of the derive for one reason: schema-v2 reports
/// predate `raw_bytes`, and an uncompressed exchange's raw volume *is*
/// its wire volume, so the missing field backfills from `wire_bytes`
/// rather than erroring or defaulting to zero.
impl serde::Deserialize for CollectiveStats {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let entries = content
            .as_map_slice()
            .ok_or_else(|| serde::DeError::expected("map", content))?;
        let field = |name: &str| -> Result<u64, serde::DeError> {
            match serde::map_find(entries, name) {
                Some(value) => serde::Deserialize::from_content(value),
                None => Err(serde::DeError::missing_field(name)),
            }
        };
        let wire_bytes = field("wire_bytes")?;
        Ok(CollectiveStats {
            rounds: field("rounds")?,
            flows: field("flows")?,
            wire_bytes,
            shm_bytes: field("shm_bytes")?,
            raw_bytes: match serde::map_find(entries, "raw_bytes") {
                Some(value) => serde::Deserialize::from_content(value)?,
                None => wire_bytes,
            },
        })
    }
}

impl CollectiveStats {
    /// No work.
    pub const ZERO: CollectiveStats = CollectiveStats {
        rounds: 0,
        flows: 0,
        wire_bytes: 0,
        shm_bytes: 0,
        raw_bytes: 0,
    };

    /// Componentwise sum.
    pub fn merge(&mut self, other: CollectiveStats) {
        self.rounds += other.rounds;
        self.flows += other.flows;
        self.wire_bytes += other.wire_bytes;
        self.shm_bytes += other.shm_bytes;
        self.raw_bytes += other.raw_bytes;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_is_componentwise() {
        let mut a = CollectiveStats {
            rounds: 1,
            flows: 2,
            wire_bytes: 3,
            shm_bytes: 4,
            raw_bytes: 5,
        };
        a.merge(CollectiveStats {
            rounds: 10,
            flows: 20,
            wire_bytes: 30,
            shm_bytes: 40,
            raw_bytes: 50,
        });
        assert_eq!(
            a,
            CollectiveStats {
                rounds: 11,
                flows: 22,
                wire_bytes: 33,
                shm_bytes: 44,
                raw_bytes: 55,
            }
        );
    }

    #[test]
    fn fault_labels_are_distinct() {
        let rec = FaultRecord {
            level: 3,
            kind: FaultKind::Drop,
            op: FaultOp::Collective(CollectiveKind::AllgatherWords),
            src: 1,
            dst: 2,
            tag: 0,
            attempts: 2,
            recovered: true,
            penalty: SimTime::ZERO,
        };
        assert_eq!(rec.op.label(), "allgather-words");
        assert_eq!(FaultOp::Rank.label(), "rank");
        // Labels are distinct across the whole kind matrix.
        for (i, a) in FaultKind::ALL.iter().enumerate() {
            for b in &FaultKind::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn kind_labels_are_distinct() {
        let kinds = [
            CollectiveKind::AllgatherWords,
            CollectiveKind::AllgatherSummary,
            CollectiveKind::Allgatherv,
            CollectiveKind::Alltoallv,
            CollectiveKind::Allreduce,
            CollectiveKind::Expand2d,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }
}

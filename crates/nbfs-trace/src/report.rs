//! The serializable output of a traced run.
//!
//! [`TraceReport`] is the superset the three sinks share: the in-memory
//! structure itself, the versioned JSON exporter
//! ([`TraceReport::to_json`] / [`TraceReport::from_json`], guarded by
//! [`SCHEMA_VERSION`]), and the `nbfs trace` CLI table, which formats it.
//! A search's [`RunProfile`] is computed from it:
//! [`TraceReport::run_profile`] folds the per-level spans in level order,
//! one addition per field per level.

use serde::{Deserialize, Serialize};

use nbfs_util::{NbfsError, SimTime};

use crate::cost::CommCost;
use crate::direction::Direction;
use crate::event::{CollectiveKind, CollectiveStats, FaultRecord};
use crate::profile::{LevelProfile, RunProfile};

/// Version stamp of the JSON layout. Bump when renaming or removing fields.
///
/// v5 removed the `queries` array (per-lane records of batched
/// multi-source waves, which nothing produced); a v4 report's `queries`
/// key is ignored on import.
/// v4 added the `queries` array.
/// v3 added `CollectiveStats::raw_bytes` (codec-aware compression
/// accounting); v2 reports deserialize with `raw_bytes = wire_bytes`.
/// v2 added the `faults` array (deterministic fault-injection records);
/// v1 reports deserialize with it empty ([`MIN_SCHEMA_VERSION`]).
pub const SCHEMA_VERSION: u32 = 5;

/// Oldest schema version [`TraceReport::from_json`] still imports.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// Identity of a traced run, supplied by the engine when it finishes the
/// trace.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMeta {
    /// MPI world size (ranks).
    pub world: usize,
    /// Nodes in the machine.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: usize,
    /// Label of the optimization level executed.
    pub opt_label: String,
    /// BFS root vertex.
    pub root: u64,
}

/// One collective cost sample attached to a level.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CollectiveRecord {
    /// Level the collective ran in (the terminal allreduce carries the
    /// level that never executed).
    pub level: usize,
    /// Which operation.
    pub kind: CollectiveKind,
    /// Step-wise simulated cost.
    pub cost: CommCost,
    /// Byte/round/flow counters from the cost model.
    pub stats: CollectiveStats,
}

/// One rank's computation counters for one level.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RankLevelRecord {
    /// Rank id.
    pub rank: usize,
    /// Vertices this rank discovered.
    pub discovered: u64,
    /// Edges scanned (CSR adjacency entries touched).
    pub edges_scanned: u64,
    /// Summary-bitmap word probes issued (each zero result saved a full
    /// `in_queue` word load — the Section III.C instrument).
    pub summary_probes: u64,
    /// `in_queue` bitmap probes issued.
    pub inqueue_probes: u64,
    /// Bytes written to queues / parent entries.
    pub write_bytes: u64,
    /// Simulated computation time of this rank.
    pub comp: SimTime,
}

/// One α/β switch decision.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Level the decision applies to.
    pub level: usize,
    /// Direction of the previous level.
    pub prev: Direction,
    /// Direction chosen.
    pub chosen: Direction,
    /// Edges incident to the current frontier.
    pub m_f: u64,
    /// Edges incident to still-unvisited vertices.
    pub m_u: u64,
    /// Vertices in the current frontier.
    pub n_f: u64,
    /// Total vertices.
    pub n: u64,
}

/// The per-level span of a committed BFS level plus everything recorded
/// while it ran.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LevelReport {
    /// BFS level index.
    pub level: usize,
    /// Direction executed.
    pub direction: Direction,
    /// Vertices discovered across all ranks.
    pub discovered: u64,
    /// Mean per-rank computation time.
    pub comp: SimTime,
    /// Communication time (collectives plus control allreduce).
    pub comm: SimTime,
    /// Barrier skew absorbed at the end of the level.
    pub stall: SimTime,
    /// Data-structure conversion time charged to this level.
    pub switch: SimTime,
    /// Step split of the bottom-up collectives (zero for top-down).
    pub detail: CommCost,
    /// Host wall-clock seconds spent in this level's kernels (zero under
    /// `NoClock`).
    pub wall_comp_secs: f64,
    /// Collective cost samples, in execution order.
    pub collectives: Vec<CollectiveRecord>,
    /// Per-rank computation counters, in rank order.
    pub ranks: Vec<RankLevelRecord>,
}

impl LevelReport {
    /// Total simulated time of the level.
    pub fn total(&self) -> SimTime {
        self.comp + self.comm + self.stall + self.switch
    }
}

/// The output of a traced run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Run identity.
    pub meta: RunMeta,
    /// Committed levels, in execution order.
    pub levels: Vec<LevelReport>,
    /// Switch decisions, in execution order.
    pub decisions: Vec<DecisionRecord>,
    /// Collectives that ran outside any committed level (the terminal
    /// allreduce that detected the empty frontier).
    pub post_collectives: Vec<CollectiveRecord>,
    /// Always 0: the tracer keeps every record. Kept so readers that
    /// check it still load.
    pub dropped_events: u64,
    /// Injected faults and how they resolved, in recording order. Empty
    /// for fault-free runs and for imported v1 reports.
    #[serde(default)]
    pub faults: Vec<FaultRecord>,
}

impl TraceReport {
    /// An empty report carrying only identity.
    pub fn empty(meta: RunMeta) -> Self {
        TraceReport {
            schema_version: SCHEMA_VERSION,
            meta,
            levels: Vec::new(),
            decisions: Vec::new(),
            post_collectives: Vec::new(),
            dropped_events: 0,
            faults: Vec::new(),
        }
    }

    /// Number of faults that were recovered (retried to completion).
    pub fn recovered_faults(&self) -> usize {
        self.faults.iter().filter(|f| f.recovered).count()
    }

    /// Total simulated penalty charged by the fault layer (retries,
    /// backoff, delays, stalls).
    pub fn fault_penalty(&self) -> SimTime {
        self.faults.iter().map(|f| f.penalty).sum()
    }

    /// The [`RunProfile`] of the per-level spans: what a search returns as
    /// its profile.
    ///
    /// Folds levels in execution order with one addition per field per
    /// level, so the phase totals are a deterministic function of the
    /// level records (IEEE 754 addition is deterministic) and a report
    /// read back from JSON reproduces its search's profile bit for bit.
    pub fn run_profile(&self) -> RunProfile {
        let mut p = RunProfile::default();
        for lv in &self.levels {
            match lv.direction {
                Direction::TopDown => {
                    p.td_comp += lv.comp;
                    p.td_comm += lv.comm;
                }
                Direction::BottomUp => {
                    p.bu_comp += lv.comp;
                    p.bu_comm += lv.comm;
                    p.bu_comm_detail += lv.detail;
                    p.bu_comm_phases += 1;
                }
            }
            p.switch += lv.switch;
            p.stall += lv.stall;
            p.levels.push(LevelProfile {
                direction: lv.direction,
                discovered: lv.discovered,
                comp: lv.comp,
                comm: lv.comm,
                stall: lv.stall,
            });
        }
        p
    }

    /// Total simulated run time across all levels.
    pub fn total(&self) -> SimTime {
        self.levels
            .iter()
            .map(LevelReport::total)
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Serializes to pretty-printed, versioned JSON.
    pub fn to_json(&self) -> nbfs_util::Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| NbfsError::Serde(e.to_string()))
    }

    /// Parses a report exported by [`TraceReport::to_json`].
    ///
    /// Accepts versions [`MIN_SCHEMA_VERSION`]`..=`[`SCHEMA_VERSION`]: a v1
    /// report (pre-fault-layer) imports with an empty `faults` array, a v2
    /// report (pre-codec) with `raw_bytes = wire_bytes` on every
    /// collective record (uncompressed exchanges move their raw volume),
    /// and a v4 report's `queries` array is skipped; future versions are
    /// refused, not misread.
    pub fn from_json(text: &str) -> nbfs_util::Result<TraceReport> {
        let report: TraceReport =
            serde_json::from_str(text).map_err(|e| NbfsError::Serde(e.to_string()))?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&report.schema_version) {
            return Err(NbfsError::invalid_data(format!(
                "trace schema version {} (this build reads {}..={})",
                report.schema_version, MIN_SCHEMA_VERSION, SCHEMA_VERSION
            )));
        }
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    fn level(level: usize, direction: Direction, ms: f64) -> LevelReport {
        LevelReport {
            level,
            direction,
            discovered: 10 * level as u64,
            comp: SimTime::from_millis(ms),
            comm: SimTime::from_millis(ms / 2.0),
            stall: SimTime::from_millis(ms / 10.0),
            switch: SimTime::ZERO,
            detail: CommCost::inter_only(SimTime::from_millis(ms / 2.0)),
            wall_comp_secs: 0.0,
            collectives: Vec::new(),
            ranks: Vec::new(),
        }
    }

    fn sample() -> TraceReport {
        let mut r = TraceReport::empty(RunMeta {
            world: 8,
            nodes: 4,
            ppn: 2,
            opt_label: "ShareAll".to_string(),
            root: 42,
        });
        r.levels.push(level(0, Direction::TopDown, 1.0));
        r.levels.push(level(1, Direction::BottomUp, 4.0));
        r.levels.push(level(2, Direction::BottomUp, 2.0));
        r.levels.push(level(3, Direction::TopDown, 0.5));
        r
    }

    #[test]
    fn projection_folds_levels_in_order() {
        let r = sample();
        let p = r.run_profile();
        assert_eq!(p.levels.len(), 4);
        assert_eq!(p.bu_comm_phases, 2);
        let td_comp = SimTime::from_millis(1.0) + SimTime::from_millis(0.5);
        assert_eq!(p.td_comp, td_comp);
        let bu_comm = SimTime::from_millis(2.0) + SimTime::from_millis(1.0);
        assert_eq!(p.bu_comm, bu_comm);
        // Projection total equals the span total (same additions).
        assert!((p.total().as_secs() - r.total().as_secs()).abs() < 1e-15);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let r = sample();
        let text = r.to_json().unwrap();
        let back = TraceReport::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn foreign_schema_versions_are_rejected() {
        let mut r = sample();
        r.schema_version = SCHEMA_VERSION + 1;
        let text = r.to_json().unwrap();
        let err = TraceReport::from_json(&text).unwrap_err();
        assert!(matches!(err, NbfsError::InvalidData(_)));
    }

    #[test]
    fn v1_reports_import_with_empty_faults() {
        let mut r = sample();
        r.schema_version = 1;
        let text = r.to_json().unwrap();
        // A v1 exporter never wrote a `faults` key at all.
        let v1 = text.replace(",\n  \"faults\": []", "");
        assert!(!v1.contains("faults"), "{v1}");
        let back = TraceReport::from_json(&v1).unwrap();
        assert_eq!(back.schema_version, 1);
        assert!(back.faults.is_empty());
        assert_eq!(back.levels, r.levels);
    }

    #[test]
    fn v2_reports_import_with_raw_equal_wire() {
        let mut r = sample();
        r.schema_version = 2;
        r.levels[0].collectives.push(CollectiveRecord {
            level: 0,
            kind: CollectiveKind::Allgatherv,
            cost: CommCost::ZERO,
            stats: CollectiveStats {
                rounds: 3,
                flows: 6,
                wire_bytes: 4096,
                shm_bytes: 512,
                raw_bytes: 4096,
            },
        });
        let text = r.to_json().unwrap();
        // A v2 exporter never wrote a `raw_bytes` key at all: splice the
        // field out from its preceding comma to the end of its line.
        let key = text.find("\"raw_bytes\"").unwrap();
        let comma = text[..key].rfind(',').unwrap();
        let line_end = key + text[key..].find('\n').unwrap();
        let v2 = format!("{}{}", &text[..comma], &text[line_end..]);
        assert!(!v2.contains("raw_bytes"), "{v2}");
        let back = TraceReport::from_json(&v2).unwrap();
        assert_eq!(back.schema_version, 2);
        let stats = back.levels[0].collectives[0].stats;
        assert_eq!(stats.raw_bytes, stats.wire_bytes);
        assert_eq!(back.levels, r.levels);
    }

    #[test]
    fn v4_reports_import_without_their_queries() {
        let mut r = sample();
        r.schema_version = 4;
        let text = r.to_json().unwrap();
        // A v4 exporter wrote one record per lane of each multi-source
        // wave after the faults.
        let record = "{ \"wave\": 2, \"lane\": 0, \"batch\": 1, \"root\": 100, \
                      \"levels\": 5, \"visited\": 4000, \"edges_scanned\": 123456, \
                      \"wall_secs\": 0.25 }";
        let end = text.rfind('}').unwrap();
        let v4 = format!("{},\n  \"queries\": [{record}]\n}}", text[..end].trim_end());
        assert!(v4.contains("\"queries\": [{"), "{v4}");
        let back = TraceReport::from_json(&v4).unwrap();
        assert_eq!(back.schema_version, 4);
        assert_eq!(back.levels, r.levels);
        assert_eq!(back.to_json().unwrap(), text);
    }

    #[test]
    fn fault_summaries_fold_records() {
        use crate::event::{FaultKind, FaultOp};
        let mut r = sample();
        for (kind, recovered, us) in [
            (FaultKind::Drop, true, 10.0),
            (FaultKind::Crash, false, 0.0),
            (FaultKind::Delay, true, 50.0),
        ] {
            r.faults.push(FaultRecord {
                level: 1,
                kind,
                op: FaultOp::Rank,
                src: 0,
                dst: 1,
                tag: 9,
                attempts: 1,
                recovered,
                penalty: SimTime::from_micros(us),
            });
        }
        assert_eq!(r.recovered_faults(), 2);
        assert!((r.fault_penalty().as_micros() - 60.0).abs() < 1e-9);
        // And the records survive a round trip.
        let back = TraceReport::from_json(&r.to_json().unwrap()).unwrap();
        assert_eq!(back.faults, r.faults);
    }
}

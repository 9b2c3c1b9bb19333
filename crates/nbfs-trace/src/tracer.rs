//! The recording facade the engines thread through a run.
//!
//! A [`Tracer`] is either off (`inner: None`) or holds the [`TraceReport`]
//! it will return, plus the collectives and rank records of the level in
//! flight. Producers record the report's own record types, so each record
//! is stored once, where the report keeps it:
//! [`Tracer::commit_level`] moves the level's records into its
//! [`LevelReport`], and [`Tracer::finish`] files the collectives of a level
//! that never committed (the terminal allreduce) under `post_collectives`.
//! The engines drive simulated ranks from a single thread (rayon
//! parallelism lives *inside* kernels, which do not record), so recording
//! is an `Option` check and a push, with no synchronization.

use std::mem;

use crate::config::TraceConfig;
use crate::event::{FaultRecord, QueryRecord};
use crate::report::{
    CollectiveRecord, DecisionRecord, LevelReport, RankLevelRecord, RunMeta, TraceReport,
};

struct Recording {
    report: TraceReport,
    /// Collectives of the level in flight, in execution order.
    collectives: Vec<CollectiveRecord>,
    /// Rank records of the level in flight, in recording (rank) order.
    ranks: Vec<RankLevelRecord>,
}

/// Run-event recorder. Construct with [`Tracer::off`] (free) or
/// [`Tracer::new`]; feed with the record methods and
/// [`Tracer::commit_level`]; take the report with [`Tracer::finish`].
pub struct Tracer {
    inner: Option<Recording>,
}

impl Tracer {
    /// A disabled tracer: every record call reduces to one discriminant
    /// check. This is the `TraceConfig::Off` fast path.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer per `config` ([`TraceConfig::Off`] yields a disabled
    /// tracer).
    pub fn new(config: TraceConfig) -> Tracer {
        if !config.is_enabled() {
            return Tracer::off();
        }
        Tracer {
            inner: Some(Recording {
                report: TraceReport::empty(RunMeta::default()),
                collectives: Vec::new(),
                ranks: Vec::new(),
            }),
        }
    }

    /// Whether records are being kept. Callers may use this to skip
    /// building records whose inputs are not otherwise needed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    // hot-path
    /// Records an α/β switch decision.
    #[inline]
    pub fn decision(&mut self, record: DecisionRecord) {
        if let Some(rec) = self.inner.as_mut() {
            rec.report.decisions.push(record);
        }
    }

    /// Records a collective of the level in flight.
    #[inline]
    pub fn collective(&mut self, record: CollectiveRecord) {
        if let Some(rec) = self.inner.as_mut() {
            rec.collectives.push(record);
        }
    }

    /// Records one rank's counters for the level in flight; call in rank
    /// order.
    #[inline]
    pub fn rank(&mut self, record: RankLevelRecord) {
        if let Some(rec) = self.inner.as_mut() {
            rec.ranks.push(record);
        }
    }

    /// Records an injected fault and how it resolved.
    #[inline]
    pub fn fault(&mut self, record: FaultRecord) {
        if let Some(rec) = self.inner.as_mut() {
            rec.report.faults.push(record);
        }
    }

    /// Records one query lane of a batched multi-source wave.
    #[inline]
    pub fn query(&mut self, record: QueryRecord) {
        if let Some(rec) = self.inner.as_mut() {
            rec.report.queries.push(record);
        }
    }

    /// Commits a level: appends `level` to the report with the collectives
    /// and rank records recorded since the last commit (whatever `level`
    /// carried in those two fields is replaced).
    #[inline]
    pub fn commit_level(&mut self, mut level: LevelReport) {
        if let Some(rec) = self.inner.as_mut() {
            level.collectives = mem::take(&mut rec.collectives);
            level.ranks = mem::take(&mut rec.ranks);
            rec.report.levels.push(level);
        }
    }
    // end-hot-path

    /// The recorded report, stamped with `meta`. Collectives of a level
    /// that never committed go to `post_collectives`; its rank records
    /// have no level to belong to and are discarded. A disabled tracer
    /// yields [`TraceReport::empty`].
    pub fn finish(self, meta: RunMeta) -> TraceReport {
        let Some(rec) = self.inner else {
            return TraceReport::empty(meta);
        };
        let mut report = rec.report;
        report.meta = meta;
        report.post_collectives = rec.collectives;
        report
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cost::CommCost;
    use crate::direction::Direction;
    use crate::event::{CollectiveKind, CollectiveStats, FaultKind, FaultOp};
    use nbfs_util::SimTime;

    fn meta() -> RunMeta {
        RunMeta {
            world: 2,
            nodes: 2,
            ppn: 1,
            opt_label: "Original".to_string(),
            root: 0,
        }
    }

    fn level(level: usize) -> LevelReport {
        LevelReport {
            level,
            direction: Direction::TopDown,
            discovered: 5,
            comp: SimTime::from_millis(1.0),
            comm: SimTime::from_millis(0.5),
            stall: SimTime::ZERO,
            switch: SimTime::ZERO,
            detail: CommCost::ZERO,
            wall_comp_secs: 0.0,
            collectives: Vec::new(),
            ranks: Vec::new(),
        }
    }

    fn allreduce(level: usize) -> CollectiveRecord {
        CollectiveRecord {
            level,
            kind: CollectiveKind::Allreduce,
            cost: CommCost::ZERO,
            stats: CollectiveStats::ZERO,
        }
    }

    fn rank(rank: usize) -> RankLevelRecord {
        RankLevelRecord {
            rank,
            discovered: 2,
            edges_scanned: 8,
            summary_probes: 1,
            inqueue_probes: 1,
            write_bytes: 16,
            comp: SimTime::from_millis(1.0),
        }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        t.collective(allreduce(0));
        t.rank(rank(0));
        t.commit_level(level(0));
        let r = t.finish(meta());
        assert_eq!(r, TraceReport::empty(meta()));
    }

    #[test]
    fn off_config_yields_disabled_tracer() {
        assert!(!Tracer::new(TraceConfig::Off).enabled());
        assert!(Tracer::new(TraceConfig::Standard).enabled());
    }

    #[test]
    fn commit_moves_the_level_in_flight() {
        let mut t = Tracer::new(TraceConfig::Standard);
        t.decision(DecisionRecord {
            level: 0,
            prev: Direction::TopDown,
            chosen: Direction::TopDown,
            m_f: 1,
            m_u: 100,
            n_f: 1,
            n: 64,
        });
        t.collective(allreduce(0));
        t.rank(rank(0));
        t.rank(rank(1));
        t.commit_level(level(0));
        // Terminal allreduce: level 1 never commits.
        t.collective(allreduce(1));
        let r = t.finish(meta());
        assert_eq!(r.meta, meta());
        assert_eq!(r.levels.len(), 1);
        assert_eq!(r.decisions.len(), 1);
        assert_eq!(r.levels[0].collectives, vec![allreduce(0)]);
        assert_eq!(r.levels[0].ranks, vec![rank(0), rank(1)]);
        assert_eq!(r.post_collectives, vec![allreduce(1)]);
    }

    #[test]
    fn every_level_is_kept() {
        let mut t = Tracer::new(TraceConfig::Standard);
        for i in 0..10_000 {
            t.collective(allreduce(i));
            t.commit_level(level(i));
        }
        let r = t.finish(meta());
        assert_eq!(r.levels.len(), 10_000);
        assert!(r
            .levels
            .iter()
            .enumerate()
            .all(|(i, lv)| lv.level == i && lv.collectives == [allreduce(i)]));
        assert!(r.post_collectives.is_empty());
    }

    #[test]
    fn faults_and_queries_keep_recording_order() {
        let fault = |src: usize| FaultRecord {
            level: 0,
            kind: FaultKind::Drop,
            op: FaultOp::Rank,
            src,
            dst: 0,
            tag: 1,
            attempts: 2,
            recovered: true,
            penalty: SimTime::ZERO,
        };
        let mut t = Tracer::new(TraceConfig::Standard);
        for src in [11, 99, 10] {
            t.fault(fault(src));
        }
        for lane in 0..4u32 {
            t.query(QueryRecord {
                wave: 0,
                lane,
                batch: 4,
                root: u64::from(lane) * 10,
                levels: 3,
                visited: 100,
                edges_scanned: 999,
                wall_secs: 0.0,
            });
        }
        let r = t.finish(meta());
        let srcs: Vec<usize> = r.faults.iter().map(|f| f.src).collect();
        assert_eq!(srcs, vec![11, 99, 10]);
        let lanes: Vec<u32> = r.queries.iter().map(|q| q.lane).collect();
        assert_eq!(lanes, vec![0, 1, 2, 3]);
    }
}

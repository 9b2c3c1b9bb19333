//! The recording facade the level driver threads through a search.
//!
//! A [`Tracer`] holds the [`TraceReport`] it will return. Every
//! configuration keeps each committed [`LevelReport`]: the search's
//! [`RunProfile`](crate::RunProfile) is computed from them
//! ([`TraceReport::run_profile`]), so the level records are the one
//! per-level accumulator. [`TraceConfig::Standard`] also keeps the
//! decisions, faults, and the collectives and rank records of the level in
//! flight; [`Tracer::commit_level`] moves those into the level, and
//! [`Tracer::finish`] files the collectives of a level that never
//! committed (the terminal allreduce) under `post_collectives`. The driver
//! runs simulated ranks from a single thread (rayon parallelism lives
//! *inside* kernels, which do not record), so recording is an `Option`
//! check and a push, with no synchronization.

use std::mem;

use crate::config::TraceConfig;
use crate::event::FaultRecord;
use crate::report::{
    CollectiveRecord, DecisionRecord, LevelReport, RankLevelRecord, RunMeta, TraceReport,
};

/// The records [`TraceConfig::Standard`] keeps beside the levels, for the
/// level in flight.
#[derive(Default)]
struct InFlight {
    /// Collectives, in execution order.
    collectives: Vec<CollectiveRecord>,
    /// Rank records, in recording (rank) order.
    ranks: Vec<RankLevelRecord>,
}

/// Run-event recorder. Construct with [`Tracer::new`]; feed with the
/// record methods and [`Tracer::commit_level`]; take the report with
/// [`Tracer::finish`].
pub struct Tracer {
    report: TraceReport,
    /// `None` under [`TraceConfig::Off`]: levels only.
    detail: Option<InFlight>,
}

impl Tracer {
    /// A tracer per `config`: [`TraceConfig::Off`] keeps the committed
    /// levels and nothing else.
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            report: TraceReport::empty(RunMeta::default()),
            detail: (config == TraceConfig::Standard).then(InFlight::default),
        }
    }

    /// Whether records beyond the levels are kept. Callers may use this to
    /// skip building records whose inputs are not otherwise needed.
    #[inline]
    pub fn detailed(&self) -> bool {
        self.detail.is_some()
    }

    // hot-path
    /// Records an α/β switch decision.
    #[inline]
    pub fn decision(&mut self, record: DecisionRecord) {
        if self.detail.is_some() {
            self.report.decisions.push(record);
        }
    }

    /// Records a collective of the level in flight.
    #[inline]
    pub fn collective(&mut self, record: CollectiveRecord) {
        if let Some(detail) = self.detail.as_mut() {
            detail.collectives.push(record);
        }
    }

    /// Records one rank's counters for the level in flight; call in rank
    /// order.
    #[inline]
    pub fn rank(&mut self, record: RankLevelRecord) {
        if let Some(detail) = self.detail.as_mut() {
            detail.ranks.push(record);
        }
    }

    /// Records an injected fault and how it resolved.
    #[inline]
    pub fn fault(&mut self, record: FaultRecord) {
        if self.detail.is_some() {
            self.report.faults.push(record);
        }
    }

    /// Commits a level: appends `level` to the report with the collectives
    /// and rank records recorded since the last commit (whatever `level`
    /// carried in those two fields is replaced; under
    /// [`TraceConfig::Off`] both stay as given).
    #[inline]
    pub fn commit_level(&mut self, mut level: LevelReport) {
        if let Some(detail) = self.detail.as_mut() {
            level.collectives = mem::take(&mut detail.collectives);
            level.ranks = mem::take(&mut detail.ranks);
        }
        self.report.levels.push(level);
    }
    // end-hot-path

    /// The recorded report, stamped with `meta`. Collectives of a level
    /// that never committed go to `post_collectives`; its rank records
    /// have no level to belong to and are discarded.
    pub fn finish(self, meta: RunMeta) -> TraceReport {
        let mut report = self.report;
        report.meta = meta;
        if let Some(detail) = self.detail {
            report.post_collectives = detail.collectives;
        }
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

    fn fault(src: usize) -> FaultRecord {
        FaultRecord {
            level: 0,
            kind: FaultKind::Drop,
            op: FaultOp::Rank,
            src,
            dst: 0,
            tag: 1,
            attempts: 2,
            recovered: true,
            penalty: SimTime::ZERO,
        }
    }

    #[test]
    fn off_tracer_keeps_levels_only() {
        let mut t = Tracer::new(TraceConfig::Off);
        assert!(!t.detailed());
        assert!(Tracer::new(TraceConfig::Standard).detailed());
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
        t.fault(fault(0));
        t.commit_level(level(0));
        t.collective(allreduce(1));
        let r = t.finish(meta());
        let mut expected = TraceReport::empty(meta());
        expected.levels.push(level(0));
        assert_eq!(r, expected);
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
    fn faults_keep_recording_order() {
        let mut t = Tracer::new(TraceConfig::Standard);
        for src in [11, 99, 10] {
            t.fault(fault(src));
        }
        let r = t.finish(meta());
        let srcs: Vec<usize> = r.faults.iter().map(|f| f.src).collect();
        assert_eq!(srcs, vec![11, 99, 10]);
    }
}

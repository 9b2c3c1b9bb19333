//! The recording facade the engines thread through a run.
//!
//! A [`Tracer`] is either off (`inner: None`) or holds one control-plane
//! ring plus one ring per rank. The engines drive simulated ranks from a
//! single thread (rayon parallelism lives *inside* kernels, which do not
//! record), so no synchronization is needed: recording is an `Option`
//! check and a ring store.

use crate::config::TraceConfig;
use crate::event::TraceEvent;
use crate::report::{RunMeta, TraceReport};
use crate::ring::EventRing;

struct Inner {
    control: EventRing,
    ranks: Vec<EventRing>,
}

/// Run-event recorder. Construct with [`Tracer::off`] (free) or
/// [`Tracer::new`]; feed with [`Tracer::record`] / [`Tracer::record_rank`];
/// merge with [`Tracer::finish`].
pub struct Tracer {
    inner: Option<Inner>,
}

impl Tracer {
    /// A disabled tracer: every record call reduces to one discriminant
    /// check. This is the `TraceConfig::Off` fast path.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer for `world` ranks per `config`
    /// ([`TraceConfig::Off`] yields a disabled tracer).
    pub fn new(config: TraceConfig, world: usize) -> Tracer {
        if !config.is_enabled() {
            return Tracer::off();
        }
        let cap = config.ring_capacity();
        Tracer {
            inner: Some(Inner {
                control: EventRing::with_capacity(cap),
                ranks: (0..world).map(|_| EventRing::with_capacity(cap)).collect(),
            }),
        }
    }

    /// Whether events are being kept. Callers may use this to skip
    /// building events whose inputs are not otherwise needed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a control-plane event (level spans, collectives, decisions).
    // hot-path
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if let Some(inner) = self.inner.as_mut() {
            inner.control.push(ev);
        }
    }

    /// Records a per-rank event. Out-of-range ranks are ignored rather
    /// than panicking (the engine owns the world size it was built with).
    #[inline]
    pub fn record_rank(&mut self, rank: usize, ev: TraceEvent) {
        if let Some(inner) = self.inner.as_mut() {
            if let Some(ring) = inner.ranks.get_mut(rank) {
                ring.push(ev);
            }
        }
    }
    // end-hot-path

    /// Merges the rings into a [`TraceReport`]. A disabled tracer yields
    /// [`TraceReport::empty`].
    pub fn finish(self, meta: RunMeta) -> TraceReport {
        let mut report = TraceReport::empty(meta);
        let Some(inner) = self.inner else {
            return report;
        };
        report.dropped_events =
            inner.control.dropped() + inner.ranks.iter().map(EventRing::dropped).sum::<u64>();

        // Pass 1: Level events define the committed levels, in order.
        for ev in inner.control.iter_in_order() {
            if let TraceEvent::Level {
                level,
                direction,
                discovered,
                comp,
                comm,
                stall,
                switch,
                detail,
                wall_comp_secs,
            } = *ev
            {
                report.levels.push(crate::report::LevelReport {
                    level,
                    direction,
                    discovered,
                    comp,
                    comm,
                    stall,
                    switch,
                    detail,
                    wall_comp_secs,
                    collectives: Vec::new(),
                    ranks: Vec::new(),
                });
            }
        }

        // Pass 2: attach collectives (by level) and collect decisions.
        for ev in inner.control.iter_in_order() {
            match *ev {
                TraceEvent::Collective {
                    level,
                    kind,
                    cost,
                    stats,
                } => {
                    let rec = crate::report::CollectiveRecord {
                        level,
                        kind,
                        cost,
                        stats,
                    };
                    match report.levels.iter_mut().find(|l| l.level == level) {
                        Some(lv) => lv.collectives.push(rec),
                        None => report.post_collectives.push(rec),
                    }
                }
                TraceEvent::Decision {
                    level,
                    prev,
                    chosen,
                    m_f,
                    m_u,
                    n_f,
                    n,
                } => report.decisions.push(crate::report::DecisionRecord {
                    level,
                    prev,
                    chosen,
                    m_f,
                    m_u,
                    n_f,
                    n,
                }),
                TraceEvent::Fault(record) => report.faults.push(record),
                TraceEvent::Query(record) => report.queries.push(record),
                _ => {}
            }
        }

        // Pass 3: attach per-rank counters (rings are already in rank
        // order, and each ring is in level order). Faults recorded on rank
        // rings land after the control-plane ones, still deterministically.
        for ring in &inner.ranks {
            for ev in ring.iter_in_order() {
                match *ev {
                    TraceEvent::RankLevel {
                        level,
                        rank,
                        discovered,
                        edges_scanned,
                        summary_probes,
                        inqueue_probes,
                        write_bytes,
                        comp,
                    } => {
                        if let Some(lv) = report.levels.iter_mut().find(|l| l.level == level) {
                            lv.ranks.push(crate::report::RankLevelRecord {
                                rank,
                                discovered,
                                edges_scanned,
                                summary_probes,
                                inqueue_probes,
                                write_bytes,
                                comp,
                            });
                        }
                    }
                    TraceEvent::Fault(record) => report.faults.push(record),
                    _ => {}
                }
            }
        }
        report
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::cost::CommCost;
    use crate::direction::Direction;
    use crate::event::{CollectiveKind, CollectiveStats};
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

    fn level_event(level: usize) -> TraceEvent {
        TraceEvent::Level {
            level,
            direction: Direction::TopDown,
            discovered: 5,
            comp: SimTime::from_millis(1.0),
            comm: SimTime::from_millis(0.5),
            stall: SimTime::ZERO,
            switch: SimTime::ZERO,
            detail: CommCost::ZERO,
            wall_comp_secs: 0.0,
        }
    }

    #[test]
    fn off_tracer_records_nothing_and_is_cheap() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        t.record(level_event(0));
        t.record_rank(0, level_event(0));
        let r = t.finish(meta());
        assert!(r.levels.is_empty());
        assert_eq!(r.dropped_events, 0);
    }

    #[test]
    fn off_config_yields_disabled_tracer() {
        assert!(!Tracer::new(TraceConfig::Off, 4).enabled());
        assert!(Tracer::new(TraceConfig::Standard, 4).enabled());
    }

    #[test]
    fn merge_groups_by_level() {
        let mut t = Tracer::new(TraceConfig::Ring(64), 2);
        t.record(TraceEvent::Decision {
            level: 0,
            prev: Direction::TopDown,
            chosen: Direction::TopDown,
            m_f: 1,
            m_u: 100,
            n_f: 1,
            n: 64,
        });
        t.record(TraceEvent::Collective {
            level: 0,
            kind: CollectiveKind::Allreduce,
            cost: CommCost::ZERO,
            stats: CollectiveStats::ZERO,
        });
        for rank in 0..2usize {
            t.record_rank(
                rank,
                TraceEvent::RankLevel {
                    level: 0,
                    rank,
                    discovered: 2,
                    edges_scanned: 8,
                    summary_probes: 1,
                    inqueue_probes: 1,
                    write_bytes: 16,
                    comp: SimTime::from_millis(1.0),
                },
            );
        }
        t.record(level_event(0));
        // Terminal allreduce: level 1 never commits.
        t.record(TraceEvent::Collective {
            level: 1,
            kind: CollectiveKind::Allreduce,
            cost: CommCost::ZERO,
            stats: CollectiveStats::ZERO,
        });
        let r = t.finish(meta());
        assert_eq!(r.levels.len(), 1);
        assert_eq!(r.decisions.len(), 1);
        assert_eq!(r.levels[0].collectives.len(), 1);
        assert_eq!(r.levels[0].ranks.len(), 2);
        assert_eq!(r.levels[0].ranks[1].rank, 1);
        assert_eq!(r.post_collectives.len(), 1);
        assert_eq!(r.post_collectives[0].level, 1);
        assert_eq!(r.dropped_events, 0);
    }

    #[test]
    fn fault_events_merge_control_first_then_ranks() {
        use crate::event::{FaultKind, FaultOp, FaultRecord};
        let rec = |src: usize| FaultRecord {
            level: 0,
            kind: FaultKind::Drop,
            op: FaultOp::P2p,
            src,
            dst: 0,
            tag: 1,
            attempts: 2,
            recovered: true,
            penalty: SimTime::ZERO,
        };
        let mut t = Tracer::new(TraceConfig::Ring(8), 2);
        t.record_rank(1, TraceEvent::Fault(rec(11)));
        t.record(TraceEvent::Fault(rec(99)));
        t.record_rank(0, TraceEvent::Fault(rec(10)));
        t.record(level_event(0));
        let r = t.finish(meta());
        let srcs: Vec<usize> = r.faults.iter().map(|f| f.src).collect();
        assert_eq!(srcs, vec![99, 10, 11]);
    }

    #[test]
    fn query_events_merge_in_recording_order() {
        use crate::event::QueryRecord;
        let mut t = Tracer::new(TraceConfig::Ring(16), 1);
        for lane in 0..4u32 {
            t.record(TraceEvent::Query(QueryRecord {
                wave: 0,
                lane,
                batch: 4,
                root: u64::from(lane) * 10,
                levels: 3,
                visited: 100,
                edges_scanned: 999,
                wall_secs: 0.0,
            }));
        }
        let r = t.finish(meta());
        assert_eq!(r.queries.len(), 4);
        let lanes: Vec<u32> = r.queries.iter().map(|q| q.lane).collect();
        assert_eq!(lanes, vec![0, 1, 2, 3]);
        assert_eq!(r.queries[3].root, 30);
    }

    #[test]
    fn out_of_range_rank_is_ignored() {
        let mut t = Tracer::new(TraceConfig::Ring(8), 1);
        t.record_rank(5, level_event(0));
        let r = t.finish(meta());
        assert!(r.levels.is_empty());
    }

    #[test]
    fn dropped_events_are_summed() {
        let mut t = Tracer::new(TraceConfig::Ring(2), 1);
        for i in 0..5 {
            t.record(level_event(i));
        }
        let r = t.finish(meta());
        assert_eq!(r.dropped_events, 3);
        assert_eq!(r.levels.len(), 2);
    }
}

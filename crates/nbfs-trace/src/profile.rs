//! Execution-time breakdown of a distributed BFS run.
//!
//! Mirrors the slices of the paper's Fig. 11 — top-down computation,
//! bottom-up computation, top-down communication, bottom-up communication,
//! switch and stall — plus the step split of the bottom-up collectives that
//! Figs. 6/13 need. A search computes its [`RunProfile`] from the level
//! records of its [`crate::TraceReport`]
//! ([`crate::TraceReport::run_profile`]); it remains the compact type the
//! harness averages across roots and the figures consume.

use serde::{Deserialize, Serialize};

use nbfs_util::SimTime;

use crate::cost::CommCost;
use crate::direction::Direction;
use crate::phase::Phase;

/// Profile of a single BFS level.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LevelProfile {
    /// Direction executed.
    pub direction: Direction,
    /// Vertices discovered.
    pub discovered: u64,
    /// Mean per-rank computation time.
    pub comp: SimTime,
    /// Communication time (the level's collectives plus control).
    pub comm: SimTime,
    /// Barrier skew absorbed at the end of the level.
    pub stall: SimTime,
}

/// Accumulated profile of a whole BFS run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunProfile {
    /// Top-down computation time (mean across ranks).
    pub td_comp: SimTime,
    /// Bottom-up computation time (mean across ranks).
    pub bu_comp: SimTime,
    /// Top-down communication time.
    pub td_comm: SimTime,
    /// Bottom-up communication time (the Fig. 12/13/14 quantity).
    pub bu_comm: SimTime,
    /// Step split of the bottom-up collectives (gather/inter/bcast).
    pub bu_comm_detail: CommCost,
    /// Conversion time at direction switches.
    pub switch: SimTime,
    /// Total barrier skew.
    pub stall: SimTime,
    /// Number of bottom-up communication phases (levels), for Fig. 12's
    /// "average time of each communication phase".
    pub bu_comm_phases: usize,
    /// Per-level profiles.
    pub levels: Vec<LevelProfile>,
}

impl RunProfile {
    /// Total simulated run time (the TEPS denominator).
    pub fn total(&self) -> SimTime {
        self.td_comp + self.bu_comp + self.td_comm + self.bu_comm + self.switch + self.stall
    }

    /// One slice of the breakdown.
    pub fn phase(&self, phase: Phase) -> SimTime {
        match phase {
            Phase::TdComp => self.td_comp,
            Phase::BuComp => self.bu_comp,
            Phase::TdComm => self.td_comm,
            Phase::BuComm => self.bu_comm,
            Phase::Switch => self.switch,
            Phase::Stall => self.stall,
        }
    }

    /// Fraction of total time spent in bottom-up communication — the
    /// y-axis of Fig. 14.
    pub fn bu_comm_fraction(&self) -> f64 {
        let t = self.total();
        if t == SimTime::ZERO {
            0.0
        } else {
            self.bu_comm / t
        }
    }

    /// Mean duration of one bottom-up communication phase — the y-axis of
    /// Figs. 12 and 13.
    pub fn mean_bu_comm_phase(&self) -> SimTime {
        if self.bu_comm_phases == 0 {
            SimTime::ZERO
        } else {
            self.bu_comm / self.bu_comm_phases as f64
        }
    }

    /// Sums another run's profile into this one (for averaging across
    /// roots; divide by the run count afterwards via [`RunProfile::scaled`]).
    pub fn accumulate(&mut self, other: &RunProfile) {
        self.td_comp += other.td_comp;
        self.bu_comp += other.bu_comp;
        self.td_comm += other.td_comm;
        self.bu_comm += other.bu_comm;
        self.bu_comm_detail += other.bu_comm_detail;
        self.switch += other.switch;
        self.stall += other.stall;
        self.bu_comm_phases += other.bu_comm_phases;
    }

    /// Returns a copy with every time divided by `k` (phase counts are
    /// rounded to the nearest integer).
    pub fn scaled(&self, k: f64) -> RunProfile {
        assert!(k > 0.0);
        RunProfile {
            td_comp: self.td_comp / k,
            bu_comp: self.bu_comp / k,
            td_comm: self.td_comm / k,
            bu_comm: self.bu_comm / k,
            bu_comm_detail: CommCost {
                intra_gather: self.bu_comm_detail.intra_gather / k,
                inter: self.bu_comm_detail.inter / k,
                intra_bcast: self.bu_comm_detail.intra_bcast / k,
            },
            switch: self.switch / k,
            stall: self.stall / k,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the mean of usize phase counts fits in usize"
            )]
            bu_comm_phases: ((self.bu_comm_phases as f64 / k).round()) as usize,
            levels: Vec::new(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    fn sample() -> RunProfile {
        RunProfile {
            td_comp: SimTime::from_millis(1.0),
            bu_comp: SimTime::from_millis(4.0),
            td_comm: SimTime::from_millis(0.5),
            bu_comm: SimTime::from_millis(3.0),
            bu_comm_detail: CommCost::inter_only(SimTime::from_millis(3.0)),
            switch: SimTime::from_millis(1.0),
            stall: SimTime::from_millis(0.5),
            bu_comm_phases: 6,
            levels: Vec::new(),
        }
    }

    #[test]
    fn totals_and_fractions() {
        let p = sample();
        assert!((p.total().as_millis() - 10.0).abs() < 1e-9);
        assert!((p.bu_comm_fraction() - 0.3).abs() < 1e-9);
        assert!((p.mean_bu_comm_phase().as_millis() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn phase_lookup_covers_total() {
        let p = sample();
        let sum: SimTime = Phase::ALL.iter().map(|&ph| p.phase(ph)).sum();
        assert!((sum.as_secs() - p.total().as_secs()).abs() < 1e-12);
    }

    #[test]
    fn accumulate_then_scale_averages() {
        let mut acc = RunProfile::default();
        acc.accumulate(&sample());
        acc.accumulate(&sample());
        let avg = acc.scaled(2.0);
        assert!((avg.total().as_millis() - 10.0).abs() < 1e-9);
        assert_eq!(avg.bu_comm_phases, 6);
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = RunProfile::default();
        assert_eq!(p.total(), SimTime::ZERO);
        assert_eq!(p.bu_comm_fraction(), 0.0);
        assert_eq!(p.mean_bu_comm_phase(), SimTime::ZERO);
    }
}

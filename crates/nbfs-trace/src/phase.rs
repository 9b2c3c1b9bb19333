//! The breakdown slice names of the paper's Fig. 11.

use serde::{Deserialize, Serialize};

/// The breakdown slice names of Fig. 11.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Top-down computation.
    TdComp,
    /// Bottom-up computation.
    BuComp,
    /// Top-down communication (the frontier allgathers; expand and fold
    /// in the 2-D engine).
    TdComm,
    /// Bottom-up communication (the two allgathers of Fig. 1).
    BuComm,
    /// Data-structure conversion at direction switches.
    Switch,
    /// Idle time from load imbalance at phase barriers.
    Stall,
}

impl Phase {
    /// All slices in presentation order.
    pub const ALL: [Phase; 6] = [
        Phase::TdComp,
        Phase::BuComp,
        Phase::TdComm,
        Phase::BuComm,
        Phase::Switch,
        Phase::Stall,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::TdComp => "top-down comp",
            Phase::BuComp => "bottom-up comp",
            Phase::TdComm => "top-down comm",
            Phase::BuComm => "bottom-up comm",
            Phase::Switch => "switch",
            Phase::Stall => "stall",
        }
    }
}

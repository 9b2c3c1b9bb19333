//! Trace recording configuration.

use serde::{Deserialize, Serialize};

/// How much run-event recording a scenario performs.
///
/// Both values keep every committed level: the search's `RunProfile` is
/// computed from the level records. The default, [`TraceConfig::Off`],
/// keeps nothing else, so on the hot path every other record call reduces
/// to one `Option` discriminant check (see DESIGN.md §8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceConfig {
    /// Level records only — the engine's default.
    #[default]
    Off,
    /// Also record every decision, collective, rank counter and fault of
    /// the run into the report the search returns.
    Standard,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn off_is_default() {
        assert_eq!(TraceConfig::default(), TraceConfig::Off);
    }

    #[test]
    fn serde_round_trip() {
        for cfg in [TraceConfig::Off, TraceConfig::Standard] {
            let v = serde_json::to_value(cfg).unwrap();
            let back: TraceConfig = serde_json::from_value(v).unwrap();
            assert_eq!(back, cfg);
        }
    }
}

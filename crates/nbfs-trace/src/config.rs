//! Trace recording configuration.

use serde::{Deserialize, Serialize};

/// How much run-event recording a scenario performs.
///
/// The default is [`TraceConfig::Off`], which must cost near-zero work on
/// the hot path: every record call reduces to one `Option` discriminant
/// check (see DESIGN.md §8 for the guarantee and the bench that pins it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceConfig {
    /// No recording. `Tracer::off()` — the engine's default.
    #[default]
    Off,
    /// Record every level, collective, rank counter, decision, fault and
    /// query of the run into the report the search returns.
    Standard,
}

impl TraceConfig {
    /// Whether this configuration records anything at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TraceConfig::Off)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn off_is_default_and_disabled() {
        assert_eq!(TraceConfig::default(), TraceConfig::Off);
        assert!(!TraceConfig::Off.is_enabled());
        assert!(TraceConfig::Standard.is_enabled());
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

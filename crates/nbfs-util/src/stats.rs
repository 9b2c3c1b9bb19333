//! Run statistics, including the Graph500 harmonic-mean TEPS rule.
//!
//! The Graph500 run rules report the harmonic mean of per-root TEPS
//! (traversed edges per second) over 64 search keys; the paper follows them
//! (Section IV.A). The harmonic mean is the right average for rates because
//! it corresponds to total-work-over-total-time when work is fixed.

use serde::{Deserialize, Serialize};

/// Harmonic mean of a sequence of positive rates.
///
/// Returns `None` for an empty input or if any value is non-positive
/// (the harmonic mean is undefined there).
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let denom: f64 = values.iter().map(|v| 1.0 / v).sum();
    Some(values.len() as f64 / denom)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Sample standard deviation; `None` when fewer than two samples.
fn stddev(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    Some(var.sqrt())
}

/// Linear-interpolation percentile; `p` in `\[0, 100\]`. `None` when empty.
// rank lies in [0, len - 1], so floor/ceil fit usize exactly.
#[allow(clippy::cast_possible_truncation)]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Summary of one Graph500-style measurement campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RateSummary {
    /// Number of samples (BFS roots).
    pub count: usize,
    /// Harmonic mean — the headline Graph500 statistic.
    pub harmonic_mean: f64,
    /// Arithmetic mean, for reference.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Sample standard deviation (0 for a single sample).
    pub stddev: f64,
}

impl RateSummary {
    /// Builds a summary from raw rate samples. `None` when `samples` is
    /// empty or contains a non-positive value (the harmonic mean — the
    /// headline Graph500 statistic — is undefined there).
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let harmonic_mean = harmonic_mean(samples)?;
        Some(RateSummary {
            count: samples.len(),
            harmonic_mean,
            mean: mean(samples)?,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            stddev: stddev(samples).unwrap_or(0.0),
        })
    }
}

/// Formats a TEPS value the way Graph500 result tables do (GTEPS, MTEPS...).
pub fn format_teps(teps: f64) -> String {
    if teps >= 1e9 {
        format!("{:.2} GTEPS", teps / 1e9)
    } else if teps >= 1e6 {
        format!("{:.2} MTEPS", teps / 1e6)
    } else if teps >= 1e3 {
        format!("{:.2} kTEPS", teps / 1e3)
    } else {
        format!("{teps:.2} TEPS")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_known_values() {
        // HM(1, 2, 4) = 3 / (1 + 0.5 + 0.25) = 12/7
        let hm = harmonic_mean(&[1.0, 2.0, 4.0]).unwrap();
        assert!((hm - 12.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_leq_arithmetic() {
        let vals = [3.0, 9.0, 27.0, 81.0];
        assert!(harmonic_mean(&vals).unwrap() <= mean(&vals).unwrap());
    }

    #[test]
    fn harmonic_mean_rejects_bad_input() {
        assert!(harmonic_mean(&[]).is_none());
        assert!(harmonic_mean(&[1.0, 0.0]).is_none());
        assert!(harmonic_mean(&[1.0, -2.0]).is_none());
        assert!(harmonic_mean(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert!(stddev(&[5.0, 5.0, 5.0]).unwrap().abs() < 1e-12);
        assert!(stddev(&[5.0]).is_none());
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0).unwrap(), 10.0);
        assert_eq!(percentile(&v, 100.0).unwrap(), 40.0);
        assert_eq!(percentile(&v, 50.0).unwrap(), 25.0);
        assert!(percentile(&[], 50.0).is_none());
        assert!(percentile(&v, 101.0).is_none());
    }

    #[test]
    fn rate_summary_fields() {
        let s = RateSummary::from_samples(&[2.0, 4.0]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 4.0);
        assert!((s.harmonic_mean - 8.0 / 3.0).abs() < 1e-12);
        assert!((s.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn teps_formatting() {
        assert_eq!(format_teps(39.2e9), "39.20 GTEPS");
        assert_eq!(format_teps(1.5e6), "1.50 MTEPS");
        assert_eq!(format_teps(2500.0), "2.50 kTEPS");
        assert_eq!(format_teps(12.0), "12.00 TEPS");
    }
}

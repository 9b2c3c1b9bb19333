//! The few statistics the benchmark needs beyond `nbfs_util::stats`.

use nbfs_util::stats::{harmonic_mean, percentile};

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// The highest whole percentile (from 99 down to 51) that has at least ten
/// samples beyond it, with its value; the median when the sample is too
/// small for any.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let pct = (51..=99u32)
        .rev()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
        .map_or(50.0, f64::from);
    (pct, percentile(values, pct).unwrap_or(0.0))
}

/// Graph500 harmonic-mean rate over search keys: `edges[i]` traversed in
/// `seconds[i]`, in units of `per` edges per second. 0 when any sample is
/// unusable, which the caller reports as a failed run.
pub fn harmonic_rate(edges: &[u64], seconds: &[f64], per: f64) -> f64 {
    let rates: Vec<f64> = edges
        .iter()
        .zip(seconds)
        .map(|(&e, &s)| e as f64 / s / per)
        .collect();
    harmonic_mean(&rates).unwrap_or(0.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method) — the rule the benchmark's driver applies to ten runs.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 120 waves: 10 % of 120 = 12 samples beyond p90, 9 % would be 10.8.
        assert_eq!(tail(&samples(120)).0, 91.0);
        // 600 solos: 2 % = 12 beyond p98; 1 % = 6 beyond p99 is too few.
        assert_eq!(tail(&samples(600)).0, 98.0);
        // 1000 samples reach p99 exactly.
        assert_eq!(tail(&samples(1000)).0, 99.0);
        // Fewer than ~21 samples: no percentile above the median qualifies.
        assert_eq!(tail(&samples(12)), (50.0, 5.5));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn harmonic_rate_is_total_edges_over_total_time_for_equal_edges() {
        // Two roots, 8 edges each, 2 s and 6 s: rates 4 and 4/3, harmonic
        // mean 2 = 16 edges / 8 s.
        assert!((harmonic_rate(&[8, 8], &[2.0, 6.0], 1.0) - 2.0).abs() < 1e-12);
        // A slow root dominates: arithmetic mean would say 50.5.
        assert!((harmonic_rate(&[100, 100], &[1.0, 100.0], 1.0) - 200.0 / 101.0).abs() < 1e-12);
        // Unusable samples do not produce a rate.
        assert_eq!(harmonic_rate(&[8], &[0.0], 1.0), 0.0);
        assert_eq!(harmonic_rate(&[], &[], 1.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((iqr_spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

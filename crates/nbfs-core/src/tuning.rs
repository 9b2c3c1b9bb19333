//! Summary-granularity auto-tuning.
//!
//! Section III.C ends with "there may be a trade-off point for the
//! granularity of bitmap"; Fig. 16 finds it empirically (256 at scale 32).
//! This module predicts that trade-off point *analytically* from the two
//! quantities the paper identifies — the summary's cache locality (its
//! size against the cache hierarchy) and its zero fraction (how often it
//! saves an `in_queue` probe) — so a run can pick the granularity without
//! sweeping. The prediction model is the same cache model the simulator
//! charges, applied to a measured or estimated frontier density.

use nbfs_simnet::{CacheModel, Residence};
use nbfs_topology::MachineConfig;
use nbfs_util::{Bitmap, SummaryBitmap};

/// Expected cost (ns) of one neighbour check in the bottom-up inner loop,
/// given the summary granularity and the frontier bitmap.
///
/// A check always probes the summary; with probability `1 - zero_fraction`
/// it must also probe `in_queue`.
pub fn expected_check_ns(
    machine: &MachineConfig,
    frontier: &Bitmap,
    granularity: usize,
    summary_residence: Residence,
    in_queue_residence: Residence,
) -> f64 {
    let cache = CacheModel::new(machine);
    let summary = SummaryBitmap::build(frontier, granularity);
    let p_fallthrough = 1.0 - summary.zero_fraction();
    let t_summary = cache.probe_ns(summary.size_bytes(), summary_residence, 1);
    let t_inqueue = cache.probe_ns(frontier.size_bytes(), in_queue_residence, 1);
    t_summary + p_fallthrough * t_inqueue
}

/// Picks the granularity minimizing [`expected_check_ns`] over the
/// candidate set (powers of two, 64..=4096 — the Fig. 16 sweep range).
pub fn auto_granularity(
    machine: &MachineConfig,
    frontier: &Bitmap,
    summary_residence: Residence,
    in_queue_residence: Residence,
) -> usize {
    // Plain fold (first minimum wins) instead of `min_by` + `expect`:
    // the candidate set is a non-empty literal and the comparison never
    // needs a total order, so nothing here can panic (`clippy::expect_used` is denied).
    let mut best = 64usize;
    let mut best_cost = expected_check_ns(
        machine,
        frontier,
        best,
        summary_residence,
        in_queue_residence,
    );
    for g in [128usize, 256, 512, 1024, 2048, 4096] {
        let cost = expected_check_ns(machine, frontier, g, summary_residence, in_queue_residence);
        if cost < best_cost {
            best = g;
            best_cost = cost;
        }
    }
    best
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use nbfs_topology::presets;
    use nbfs_util::rng::Xoroshiro128;

    /// A frontier with the given density over `n` bits.
    fn frontier(n: usize, density: f64, seed: u64) -> Bitmap {
        let mut bm = Bitmap::new(n);
        let mut rng = Xoroshiro128::new(seed);
        let target = (n as f64 * density) as usize;
        let mut ones = 0usize;
        while ones < target {
            if bm.set_returning_fresh(rng.next_below(n as u64) as usize) {
                ones += 1;
            }
        }
        bm
    }

    fn scale32_regime() -> MachineConfig {
        // Testing at 2^22 bits with caches scaled 2^-10 reproduces the
        // scale-32 working-set ratios.
        presets::cluster2012().with_cache_scale(1.0 / 1024.0)
    }

    #[test]
    fn dense_frontier_prefers_the_reference_granularity() {
        // When the frontier is very dense the summary is all ones at any
        // granularity, so only its own probe cost matters and every
        // granularity is nearly equal; the tuner must not pick an
        // aggressively coarse one for a *sparse* frontier though.
        let m = scale32_regime();
        let sparse = frontier(1 << 22, 0.002, 7);
        let g = auto_granularity(&m, &sparse, Residence::NodeShared, Residence::NodeShared);
        assert!(
            g >= 128,
            "sparse frontier should tolerate coarse summaries, got {g}"
        );
    }

    #[test]
    fn tuner_beats_or_matches_reference_everywhere() {
        let m = scale32_regime();
        for density in [0.001, 0.01, 0.05, 0.2, 0.5] {
            let f = frontier(1 << 20, density, 42);
            let g = auto_granularity(&m, &f, Residence::NodeShared, Residence::NodeShared);
            let chosen = expected_check_ns(&m, &f, g, Residence::NodeShared, Residence::NodeShared);
            let reference =
                expected_check_ns(&m, &f, 64, Residence::NodeShared, Residence::NodeShared);
            assert!(
                chosen <= reference * 1.0001,
                "density {density}: tuned g={g} ({chosen} ns) must not lose to 64 ({reference} ns)"
            );
        }
    }

    #[test]
    fn cost_reflects_the_figure16_tradeoff() {
        // At a mid-density frontier in the scale-32 regime, a moderate
        // granularity must beat both extremes, reproducing the Fig. 16
        // peak-in-the-middle shape analytically.
        let m = scale32_regime();
        let f = frontier(1 << 22, 0.02, 3);
        let cost = |g| expected_check_ns(&m, &f, g, Residence::NodeShared, Residence::NodeShared);
        let best_mid = cost(256).min(cost(512)).min(cost(128));
        assert!(
            best_mid < cost(64) || best_mid < cost(4096),
            "middle granularities should win somewhere in the sweep"
        );
        // The coarsest granularity pays in fall-through probability.
        let s64 = SummaryBitmap::build(&f, 64);
        let s4096 = SummaryBitmap::build(&f, 4096);
        assert!(s4096.zero_fraction() < s64.zero_fraction());
    }

    #[test]
    fn expected_cost_is_positive_and_finite() {
        let m = scale32_regime();
        let f = frontier(1 << 16, 0.1, 1);
        for g in [64, 256, 4096] {
            let c = expected_check_ns(
                &m,
                &f,
                g,
                Residence::SocketPrivate,
                Residence::SocketPrivate,
            );
            assert!(c.is_finite() && c > 0.0);
        }
    }
}

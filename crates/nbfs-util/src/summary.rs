//! The summary bitmap (`in_queue_summary`) with tunable granularity.
//!
//! Section II.B.2 of the paper: one bit of the summary covers `granularity`
//! bits of the underlying frontier bitmap, and is zero only when *all* covered
//! bits are zero. Checking the (much smaller, cache-resident) summary first
//! lets the bottom-up phase skip probing the big `in_queue` bitmap for
//! frontier-free regions.
//!
//! Section III.C then tunes the granularity: the Graph500 reference uses 64
//! (one summary bit per `unsigned long` of `in_queue`); larger granularities
//! shrink the summary (better cache locality) but lower its zero fraction
//! (fewer skippable probes). Fig. 16 finds 256 optimal at scale 32.
//!
//! The granularity in force is the opt rung's (`OptLevel::Granularity(g)`,
//! `--opt granularity=G` on the command line). The bottom-up kernels test
//! a region with a shift and a word load on [`SummaryBitmap::as_bitmap`]'s
//! words; [`SummaryBitmap::maybe_set`] is the same test bit by bit.

use crate::bitmap::Bitmap;
use crate::WORD_BITS;

thread_local! {
    /// Per-thread count of granularity validations (see
    /// [`granularity_checks_on_current_thread`]).
    static GRANULARITY_CHECKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Checks the summary-granularity contract: positive, a multiple of the
/// word size (keeps the word-parallel rebuild exact) and a power of two
/// (the only granularities the paper considers: 64, 128, 256, ...).
///
/// Long-lived engines call this **once at construction** and then build
/// per-run summaries with [`SummaryBitmap::new_prevalidated`]; the
/// per-thread check counter lets regression tests pin that validation
/// does not creep back into the per-run path.
pub fn check_granularity(granularity: usize) -> Result<(), String> {
    GRANULARITY_CHECKS.with(|c| c.set(c.get() + 1));
    if granularity == 0 {
        return Err("granularity must be positive".to_string());
    }
    if granularity % WORD_BITS != 0 {
        return Err(format!(
            "granularity must be a multiple of {WORD_BITS}, got {granularity}"
        ));
    }
    if !granularity.is_power_of_two() {
        return Err(format!(
            "granularity must be a power of two, got {granularity}"
        ));
    }
    Ok(())
}

/// How many granularity validations the current thread has performed —
/// a test-observability hook for pinning *when* validation happens
/// (once per engine construction, never per run).
#[doc(hidden)]
pub fn granularity_checks_on_current_thread() -> u64 {
    GRANULARITY_CHECKS.with(std::cell::Cell::get)
}

/// A bitmap-of-a-bitmap with configurable coverage per summary bit.
///
/// ```
/// use nbfs_util::{Bitmap, SummaryBitmap};
/// let frontier = Bitmap::from_indices(1024, &[3, 500]);
/// let summary = SummaryBitmap::build(&frontier, 256);
/// assert!(summary.maybe_set(3));        // covered region is non-empty
/// assert!(!summary.maybe_set(900));     // provably empty: skip in_queue
/// assert_eq!(summary.len(), 4);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryBitmap {
    bits: Bitmap,
    granularity: usize,
    covered_bits: usize,
}

impl SummaryBitmap {
    /// Granularity used by the Graph500 reference code.
    pub const REFERENCE_GRANULARITY: usize = 64;

    /// Granularity the paper's Fig. 16 sweep finds optimal (g = 256, +10.2%
    /// over the reference 64 at scale 32) — the tuned default of the
    /// `Granularity(g)` opt rung (`--opt best` in the CLI).
    pub const TUNED_GRANULARITY: usize = 256;

    /// Creates an all-zero summary covering `covered_bits` underlying bits at
    /// the given granularity.
    ///
    /// # Panics
    /// If `granularity` is zero, not a multiple of 64, or not a power of two.
    /// Multiples of the word size keep the word-parallel rebuild exact, and
    /// the paper only ever considers powers of two (64, 128, 256, ...).
    pub fn new(covered_bits: usize, granularity: usize) -> Self {
        let checked = check_granularity(granularity);
        assert!(checked.is_ok(), "{}", checked.err().unwrap_or_default());
        Self::new_prevalidated(covered_bits, granularity)
    }

    /// Like [`SummaryBitmap::new`] for a granularity the caller has
    /// already validated with [`check_granularity`] (typically once, at
    /// engine construction). Skips re-validation so per-run summary
    /// creation is contract-check-free; the contract still holds in
    /// debug builds.
    pub fn new_prevalidated(covered_bits: usize, granularity: usize) -> Self {
        debug_assert!(granularity > 0 && granularity % WORD_BITS == 0);
        debug_assert!(granularity.is_power_of_two());
        Self {
            bits: Bitmap::new(covered_bits.div_ceil(granularity)),
            granularity,
            covered_bits,
        }
    }

    /// The number of underlying bits one summary bit covers.
    #[inline]
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// `log2(granularity)`, so region lookup is a shift instead of a divide.
    #[inline]
    pub fn granularity_shift(&self) -> u32 {
        self.granularity.trailing_zeros()
    }

    /// Number of bits in the summary itself.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when the summary has no bits (covers an empty bitmap).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Summary storage footprint in bytes — the quantity that drives the
    /// cache-locality side of the Fig. 16 trade-off.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.bits.size_bytes()
    }

    /// Is the region covering underlying bit `idx` possibly non-empty?
    ///
    /// `false` guarantees every covered bit is zero; `true` guarantees
    /// nothing (the check must fall through to the real bitmap).
    #[inline]
    pub fn maybe_set(&self, idx: usize) -> bool {
        self.bits.get(idx / self.granularity)
    }

    /// Resets the summary to all-zero.
    pub fn clear_all(&mut self) {
        self.bits.clear_all();
    }

    /// Rebuilds the summary from the underlying bitmap.
    ///
    /// This is the data-conversion step charged as *Switch* time in the
    /// paper's Fig. 11 breakdown when entering the bottom-up procedure.
    pub fn rebuild_from(&mut self, source: &Bitmap) {
        assert_eq!(
            source.len(),
            self.covered_bits,
            "summary covers {} bits but source has {}",
            self.covered_bits,
            source.len()
        );
        self.bits.clear_all();
        let words_per_bit = self.granularity / WORD_BITS;
        let src = source.words();
        for (summary_idx, chunk) in src.chunks(words_per_bit).enumerate() {
            if chunk.iter().any(|&w| w != 0) {
                self.bits.set(summary_idx);
            }
        }
    }

    /// Builds a fresh summary of the given granularity from a bitmap.
    pub fn build(source: &Bitmap, granularity: usize) -> Self {
        let mut s = Self::new(source.len(), granularity);
        s.rebuild_from(source);
        s
    }

    /// The fraction of summary bits that are zero — the "usefulness" metric
    /// of Section III.C (a zero summary bit is the only case that saves
    /// work). Returns 1.0 for an empty summary.
    pub fn zero_fraction(&self) -> f64 {
        if self.bits.is_empty() {
            return 1.0;
        }
        1.0 - self.bits.count_ones() as f64 / self.bits.len() as f64
    }

    /// Read-only view of the summary's own bitmap.
    pub fn as_bitmap(&self) -> &Bitmap {
        &self.bits
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn shift_is_log2_of_granularity() {
        for g in [64usize, 256, 4096] {
            let s = SummaryBitmap::new(1 << 13, g);
            assert_eq!(1 << s.granularity_shift(), g);
        }
    }

    #[test]
    fn reference_granularity_matches_word() {
        assert_eq!(SummaryBitmap::REFERENCE_GRANULARITY, 64);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rejects_sub_word_granularity() {
        SummaryBitmap::new(1024, 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        SummaryBitmap::new(1024, 192);
    }

    #[test]
    fn build_sets_exactly_covering_bits() {
        let mut bm = Bitmap::new(1024);
        bm.set(0); // covered by summary bit 0 at g=128
        bm.set(200); // summary bit 1
        bm.set(1023); // summary bit 7
        let s = SummaryBitmap::build(&bm, 128);
        assert_eq!(s.len(), 8);
        let set: Vec<usize> = s.as_bitmap().iter_ones().collect();
        assert_eq!(set, vec![0, 1, 7]);
        assert!(s.maybe_set(0));
        assert!(s.maybe_set(127));
        assert!(!s.maybe_set(128 * 2));
        assert!(s.maybe_set(1000));
    }

    #[test]
    fn zero_fraction_decreases_with_granularity() {
        // The paper's worked example: sparse ones spread out; coarser summary
        // bits cover more of them, so the zero fraction must be monotonically
        // non-increasing in granularity.
        let mut bm = Bitmap::new(1 << 14);
        for i in (0..bm.len()).step_by(97) {
            bm.set(i);
        }
        let mut prev = f64::INFINITY;
        for g in [64, 128, 256, 512, 1024] {
            let zf = SummaryBitmap::build(&bm, g).zero_fraction();
            assert!(zf <= prev + 1e-12, "zero fraction must not grow: g={g}");
            prev = zf;
        }
    }

    #[test]
    fn size_shrinks_linearly_with_granularity() {
        let bm = Bitmap::new(1 << 16);
        let s64 = SummaryBitmap::build(&bm, 64);
        let s256 = SummaryBitmap::build(&bm, 256);
        assert_eq!(s64.size_bytes(), 4 * s256.size_bytes());
    }

    #[test]
    fn clear_all_empties_the_summary() {
        let mut s = SummaryBitmap::build(&Bitmap::from_indices(512, &[70]), 64);
        assert!(s.maybe_set(64));
        assert!(s.maybe_set(127));
        assert!(!s.maybe_set(128));
        s.clear_all();
        assert!(!s.maybe_set(70));
        assert_eq!(s.zero_fraction(), 1.0);
    }

    #[test]
    fn rebuild_matches_bit_by_bit_definition() {
        let mut bm = Bitmap::new(4096);
        // pseudo-random pattern
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..bm.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 11 == 0 {
                bm.set(i);
            }
        }
        for g in [64usize, 256, 1024] {
            let s = SummaryBitmap::build(&bm, g);
            for sb in 0..s.len() {
                let any = (sb * g..((sb + 1) * g).min(bm.len())).any(|i| bm.get(i));
                assert_eq!(s.as_bitmap().get(sb), any, "g={g} summary bit {sb}");
            }
        }
    }

    #[test]
    fn check_granularity_matches_constructor_contract() {
        assert!(check_granularity(0).is_err());
        assert!(check_granularity(32).is_err());
        assert!(check_granularity(192).is_err());
        for g in [64usize, 128, 256, 1024] {
            assert!(check_granularity(g).is_ok());
        }
    }

    #[test]
    fn prevalidated_constructor_skips_the_check() {
        let before = granularity_checks_on_current_thread();
        let s = SummaryBitmap::new_prevalidated(1024, 256);
        assert_eq!(granularity_checks_on_current_thread(), before);
        assert_eq!(s.granularity(), 256);
        assert_eq!(s.len(), 4);
        let checked = SummaryBitmap::new(1024, 256);
        assert_eq!(granularity_checks_on_current_thread(), before + 1);
        assert_eq!(s.len(), checked.len());
    }

    #[test]
    fn empty_summary_zero_fraction_is_one() {
        let s = SummaryBitmap::new(0, 64);
        assert!(s.is_empty());
        assert_eq!(s.zero_fraction(), 1.0);
    }
}

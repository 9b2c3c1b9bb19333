//! Property-based tests for the bit-level foundations.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use std::collections::BTreeSet;

use proptest::prelude::*;

use nbfs_util::rng::{counter_u64, Xoroshiro128};
use nbfs_util::stats::{harmonic_mean, mean, percentile};
use nbfs_util::{Bitmap, BlockPartition, SummaryBitmap};

/// Counts set bits by walking words directly, padding included — the
/// ground truth the padding-safety properties compare against.
fn ones_in_words(bm: &Bitmap) -> usize {
    bm.words().iter().map(|w| w.count_ones() as usize).sum()
}

proptest! {
    /// The bitmap behaves exactly like a set of indices under set/clear.
    #[test]
    fn bitmap_models_a_set(
        ops in prop::collection::vec((0usize..2000, prop::bool::ANY), 0..300),
        len in 2000usize..2500,
    ) {
        let mut bm = Bitmap::new(len);
        let mut model = BTreeSet::new();
        for (idx, set) in ops {
            if set {
                bm.set(idx);
                model.insert(idx);
            } else {
                bm.clear(idx);
                model.remove(&idx);
            }
        }
        prop_assert_eq!(bm.count_ones(), model.len());
        prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        for idx in (0..len).step_by(97) {
            prop_assert_eq!(bm.get(idx), model.contains(&idx));
        }
    }

    /// Summary zero-fraction is monotone non-increasing in granularity for
    /// any bit pattern.
    #[test]
    fn summary_zero_fraction_monotone(
        bits in prop::collection::btree_set(0usize..(1 << 13), 0..500),
    ) {
        let bm = Bitmap::from_indices(1 << 13, &bits.iter().copied().collect::<Vec<_>>());
        let mut prev = f64::INFINITY;
        for g in [64usize, 128, 256, 512, 1024] {
            let zf = SummaryBitmap::build(&bm, g).zero_fraction();
            prop_assert!(zf <= prev + 1e-12);
            prev = zf;
        }
    }

    /// A summary never produces false negatives: a set bit always has its
    /// covering summary bit set.
    #[test]
    fn summary_never_false_negative(
        bits in prop::collection::btree_set(0usize..4096, 1..200),
        g_exp in 0u32..5,
    ) {
        let g = 64usize << g_exp;
        let bm = Bitmap::from_indices(4096, &bits.iter().copied().collect::<Vec<_>>());
        let s = SummaryBitmap::build(&bm, g);
        for &b in &bits {
            prop_assert!(s.maybe_set(b), "bit {b} lost at granularity {g}");
        }
    }

    /// Owner/to_local/to_global are mutually consistent for any partition.
    #[test]
    fn partition_translation_roundtrip(total in 1usize..50_000, parts in 1usize..64) {
        let p = BlockPartition::new(total, parts);
        let step = (total / 50).max(1);
        for idx in (0..total).step_by(step) {
            let owner = p.owner(idx);
            prop_assert!(owner < parts);
            prop_assert_eq!(p.to_global(owner, p.to_local(idx)), idx);
        }
    }

    /// Counter-based randomness: same key -> same draw; the stream through
    /// differing indices has no obvious collisions at small scale.
    #[test]
    fn counter_rng_is_a_pure_function(seed in any::<u64>(), idx in 0u64..10_000) {
        prop_assert_eq!(counter_u64(seed, idx, 0), counter_u64(seed, idx, 0));
        prop_assert_ne!(counter_u64(seed, idx, 0), counter_u64(seed, idx, 1));
    }

    /// Harmonic mean is bounded by min and the arithmetic mean.
    #[test]
    fn harmonic_mean_bounds(values in prop::collection::vec(0.001f64..1e9, 1..50)) {
        let hm = harmonic_mean(&values).unwrap();
        let am = mean(&values).unwrap();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(hm <= am * (1.0 + 1e-9));
        prop_assert!(hm >= min * (1.0 - 1e-9));
    }

    /// Percentiles are monotone in p and bounded by the extremes.
    #[test]
    fn percentiles_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..60)) {
        let p25 = percentile(&values, 25.0).unwrap();
        let p50 = percentile(&values, 50.0).unwrap();
        let p75 = percentile(&values, 75.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(min <= p25 && p75 <= max);
    }

    /// Shuffling preserves the multiset.
    #[test]
    fn shuffle_preserves_elements(mut v in prop::collection::vec(any::<u32>(), 0..200), seed in any::<u64>()) {
        let mut sorted = v.clone();
        sorted.sort_unstable();
        Xoroshiro128::new(seed).shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted);
    }
}

// Padding safety of the word-level APIs: whatever ragged `len_bits` and
// whatever garbage the source words carry, no operation may observe or
// leave a set bit at index >= len_bits. The padding bits of the final
// word must stay zero, or `count_ones`/allgather word transfers would
// silently corrupt.
proptest! {
    /// `copy_words_from` masks whatever the source words carry in the
    /// positions beyond `len_bits`.
    #[test]
    fn copy_words_from_never_leaks_padding(
        len in 65usize..1000,
        words in prop::collection::vec(any::<u64>(), 1..8),
        start_frac in 0usize..8,
    ) {
        let mut bm = Bitmap::new(len);
        let word_len = bm.words().len();
        let start = (start_frac * word_len / 8).min(word_len.saturating_sub(words.len()));
        let n = words.len().min(word_len - start);
        bm.copy_words_from(start, &words[..n]);
        prop_assert_eq!(ones_in_words(&bm), bm.count_ones(), "padding bit set");
        prop_assert!(bm.iter_ones().all(|i| i < len));
    }

    /// `or_words_from` masks the tail exactly like `copy_words_from`.
    #[test]
    fn or_words_from_never_leaks_padding(
        len in 65usize..1000,
        seed in prop::collection::vec(any::<usize>(), 0..40),
        words in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let seed: Vec<usize> = seed.iter().map(|&i| i % len).collect();
        let mut bm = Bitmap::from_indices(len, &seed);
        let word_len = bm.words().len();
        let start = word_len.saturating_sub(words.len());
        let n = words.len().min(word_len - start);
        bm.or_words_from(start, &words[..n]);
        prop_assert_eq!(ones_in_words(&bm), bm.count_ones(), "padding bit set");
        prop_assert!(bm.iter_ones().all(|i| i < len));
        // OR never clears: the seed bits all survive.
        for &i in &seed {
            prop_assert!(bm.get(i), "or cleared bit {i}");
        }
    }
}

//! 1-D block partition arithmetic.
//!
//! The Graph500 reference code (and therefore the paper's implementation)
//! splits the vertex id space into `np` contiguous blocks, one per MPI rank.
//! Each rank owns the adjacency of its block and the matching slice of every
//! full-length bitmap, so partitions are aligned to 64-bit words: the
//! `allgather` of Fig. 1 then concatenates *word ranges* with no bit
//! shifting.

use crate::WORD_BITS;

/// A word-aligned contiguous partition of `total_items` into `parts` blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    total_items: usize,
    parts: usize,
    /// Words per part for all but possibly the last part.
    words_per_part: usize,
}

impl BlockPartition {
    /// Creates a partition of `total_items` bit-indexed items into `parts`
    /// word-aligned blocks.
    ///
    /// # Panics
    /// If `parts == 0`.
    pub fn new(total_items: usize, parts: usize) -> Self {
        assert!(parts > 0, "cannot partition into zero parts");
        let total_words = total_items.div_ceil(WORD_BITS);
        // Every part gets the same number of whole words (rounded up), the
        // final part absorbs the remainder (possibly fewer words).
        let words_per_part = total_words.div_ceil(parts).max(1);
        Self {
            total_items,
            parts,
            words_per_part,
        }
    }

    /// Total number of items partitioned.
    #[inline]
    pub fn total_items(&self) -> usize {
        self.total_items
    }

    /// Number of parts.
    #[inline]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Word span `[start, end)` of `part` within a full-length bitmap.
    #[inline]
    pub fn word_range(&self, part: usize) -> (usize, usize) {
        debug_assert!(part < self.parts);
        let total_words = self.total_items.div_ceil(WORD_BITS);
        let start = (self.words_per_part * part).min(total_words);
        let end = (start + self.words_per_part).min(total_words);
        (start, end)
    }

    /// Item (bit) span `[start, end)` owned by `part`.
    #[inline]
    pub fn item_range(&self, part: usize) -> (usize, usize) {
        let (ws, we) = self.word_range(part);
        (
            (ws * WORD_BITS).min(self.total_items),
            (we * WORD_BITS).min(self.total_items),
        )
    }

    /// Number of items owned by `part`.
    #[inline]
    pub fn items_of(&self, part: usize) -> usize {
        let (s, e) = self.item_range(part);
        e - s
    }

    /// The part that owns item `idx`.
    #[inline]
    pub fn owner(&self, idx: usize) -> usize {
        debug_assert!(idx < self.total_items, "item {idx} out of range");
        ((idx / WORD_BITS) / self.words_per_part).min(self.parts - 1)
    }

    /// Translates a global item id to an offset local to its owner.
    #[inline]
    pub fn to_local(&self, idx: usize) -> usize {
        let (start, _) = self.item_range(self.owner(idx));
        idx - start
    }

    /// Translates a local offset within `part` back to the global id.
    #[inline]
    pub fn to_global(&self, part: usize, local: usize) -> usize {
        let (start, end) = self.item_range(part);
        debug_assert!(local < end - start, "local {local} out of part {part}");
        start + local
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::needless_range_loop)] // item ids are the subject under test
    fn covers_everything_exactly_once() {
        for (n, p) in [
            (1usize, 1usize),
            (64, 1),
            (65, 2),
            (1000, 3),
            (4096, 8),
            (4097, 8),
            (100, 16),
        ] {
            let part = BlockPartition::new(n, p);
            let mut covered = vec![false; n];
            for rank in 0..p {
                let (s, e) = part.item_range(rank);
                for i in s..e {
                    assert!(!covered[i], "item {i} covered twice (n={n}, p={p})");
                    covered[i] = true;
                    assert_eq!(part.owner(i), rank, "owner mismatch (n={n}, p={p})");
                }
            }
            assert!(covered.iter().all(|&c| c), "gap in coverage (n={n}, p={p})");
        }
    }

    #[test]
    fn word_ranges_are_aligned_and_contiguous() {
        let part = BlockPartition::new(10_000, 7);
        let mut expected_start = 0;
        for rank in 0..7 {
            let (ws, we) = part.word_range(rank);
            assert_eq!(ws, expected_start);
            assert!(we >= ws);
            expected_start = we;
        }
        assert_eq!(expected_start, 10_000usize.div_ceil(64));
    }

    #[test]
    fn local_global_roundtrip() {
        let part = BlockPartition::new(5000, 6);
        for idx in (0..5000).step_by(13) {
            let owner = part.owner(idx);
            let local = part.to_local(idx);
            assert_eq!(part.to_global(owner, local), idx);
        }
    }

    #[test]
    fn more_parts_than_words_leaves_trailing_parts_empty() {
        // 100 items = 2 words, 16 parts: first two parts own a word each.
        let part = BlockPartition::new(100, 16);
        assert_eq!(part.items_of(0), 64);
        assert_eq!(part.items_of(1), 36);
        for rank in 2..16 {
            assert_eq!(part.items_of(rank), 0, "rank {rank} should be empty");
        }
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        BlockPartition::new(10, 0);
    }
}

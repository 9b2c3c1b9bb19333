//! Dense bitmaps over vertex ids.
//!
//! The frontier queues of the hybrid BFS (`in_queue`, `out_queue` in Fig. 1 of
//! the paper) are bitmaps with one bit per vertex of the whole graph. Each
//! rank owns a word-aligned slice of the bitmap (see
//! [`crate::ownership::BlockPartition`]) and the full bitmap is reassembled by
//! an `allgather`.

use crate::WORD_BITS;

/// A fixed-length dense bitmap backed by `u64` words.
///
/// The length is given in *bits*; storage is rounded up to whole words and
/// the trailing padding bits are guaranteed to stay zero, which keeps
/// word-level operations (`count_ones`, word import/export for
/// communication) exact.
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len_bits: usize,
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bitmap")
            .field("len_bits", &self.len_bits)
            .field("ones", &self.count_ones())
            .finish()
    }
}

impl Bitmap {
    /// Creates an all-zero bitmap with room for `len_bits` bits.
    pub fn new(len_bits: usize) -> Self {
        Self {
            words: vec![0; len_bits.div_ceil(WORD_BITS)],
            len_bits,
        }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// `true` when the bitmap has zero addressable bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Number of backing words.
    #[inline]
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Read-only view of the backing words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable view of the backing words.
    ///
    /// Callers must keep the padding bits (beyond [`Self::len`]) zero;
    /// [`Self::repair_padding`] can restore the invariant after bulk writes.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Zeroes any set bits in the final partial word beyond `len` bits.
    pub fn repair_padding(&mut self) {
        let tail = self.len_bits % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Tests bit `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(
            idx < self.len_bits,
            "bit {idx} out of range {}",
            self.len_bits
        );
        (self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `idx` to one.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        debug_assert!(idx < self.len_bits);
        self.words[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
    }

    /// Clears bit `idx`.
    #[inline]
    pub fn clear(&mut self, idx: usize) {
        debug_assert!(idx < self.len_bits);
        self.words[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
    }

    /// Sets bit `idx` and reports whether it was previously clear.
    #[inline]
    pub fn set_returning_fresh(&mut self, idx: usize) -> bool {
        debug_assert!(idx < self.len_bits);
        let word = &mut self.words[idx / WORD_BITS];
        let mask = 1u64 << (idx % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Resets every bit to zero, keeping the allocation.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Copies the word range `[word_start, word_start + src.len())` from a
    /// word slice into this bitmap. Used to install allgather results.
    /// Padding bits beyond [`Self::len`] are masked off even if `src` has
    /// them set, so the zero-padding invariant survives bulk installs.
    pub fn copy_words_from(&mut self, word_start: usize, src: &[u64]) {
        self.words[word_start..word_start + src.len()].copy_from_slice(src);
        if word_start + src.len() == self.words.len() {
            self.repair_padding();
        }
    }

    /// Bitwise OR of a word slice into the range starting at `word_start`.
    /// Padding bits are masked off, mirroring [`Self::copy_words_from`].
    pub fn or_words_from(&mut self, word_start: usize, src: &[u64]) {
        for (i, &w) in src.iter().enumerate() {
            self.words[word_start + i] |= w;
        }
        if word_start + src.len() == self.words.len() {
            self.repair_padding();
        }
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            len_bits: self.len_bits,
        }
    }

    /// Builds a bitmap of length `len_bits` with the given bits set.
    pub fn from_indices(len_bits: usize, indices: &[usize]) -> Self {
        let mut bm = Self::new(len_bits);
        for &i in indices {
            bm.set(i);
        }
        bm
    }

    /// The fraction of bits set, in `\[0, 1\]`; `0` for an empty bitmap.
    pub fn density(&self) -> f64 {
        if self.len_bits == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len_bits as f64
        }
    }

    /// Size of the backing storage in bytes (the quantity the paper's
    /// communication-volume formulas count).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Iterator over set bit indices; see [`Bitmap::iter_ones`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    len_bits: usize,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * WORD_BITS + bit;
                debug_assert!(idx < self.len_bits, "padding bit set");
                return Some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let bm = Bitmap::new(130);
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.word_len(), 3);
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bm = Bitmap::new(200);
        for idx in [0, 1, 63, 64, 65, 127, 128, 199] {
            assert!(!bm.get(idx));
            bm.set(idx);
            assert!(bm.get(idx));
        }
        assert_eq!(bm.count_ones(), 8);
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 7);
    }

    #[test]
    fn set_returning_fresh_reports_first_set_only() {
        let mut bm = Bitmap::new(10);
        assert!(bm.set_returning_fresh(3));
        assert!(!bm.set_returning_fresh(3));
        assert!(bm.get(3));
    }

    #[test]
    fn iter_ones_matches_inserted() {
        let idxs = [0usize, 5, 63, 64, 100, 191];
        let bm = Bitmap::from_indices(192, &idxs);
        let got: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(got, idxs);
    }

    #[test]
    fn iter_ones_empty() {
        let bm = Bitmap::new(77);
        assert_eq!(bm.iter_ones().count(), 0);
    }

    #[test]
    fn copy_words_from_installs_remote_segment() {
        let mut dst = Bitmap::new(256);
        let src = [u64::MAX, 0b1010];
        dst.copy_words_from(1, &src);
        assert_eq!(dst.words()[0], 0);
        assert_eq!(dst.words()[1], u64::MAX);
        assert_eq!(dst.words()[2], 0b1010);
        assert_eq!(dst.words()[3], 0);
    }

    #[test]
    fn repair_padding_clears_tail() {
        let mut bm = Bitmap::new(70);
        bm.words_mut()[1] = u64::MAX;
        bm.repair_padding();
        assert_eq!(bm.words()[1], 0b11_1111);
        assert_eq!(bm.count_ones(), 6);
    }

    #[test]
    fn copy_words_from_masks_tail_padding() {
        let mut dst = Bitmap::new(70);
        dst.copy_words_from(0, &[u64::MAX, u64::MAX]);
        assert_eq!(dst.words()[1], 0b11_1111, "padding must stay zero");
        assert_eq!(dst.count_ones(), 70);
    }

    #[test]
    fn density_and_size() {
        let mut bm = Bitmap::new(128);
        assert_eq!(bm.density(), 0.0);
        for i in 0..32 {
            bm.set(i);
        }
        assert!((bm.density() - 0.25).abs() < 1e-12);
        assert_eq!(bm.size_bytes(), 16);
        assert!(!bm.is_empty());
        assert!(Bitmap::new(0).is_empty());
    }
}

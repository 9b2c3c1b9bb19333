//! A concurrently-updatable bitmap.
//!
//! Inside one simulated node, the *shared `out_queue`* optimization
//! (Section III.A.2 of the paper) lets every rank of the node publish its
//! own segment of the next frontier into one shared mapping. Ranks write
//! disjoint segments, but the top-down phase may also have several worker
//! threads of one rank race on neighbouring words, so the structure is atomic.
//!
//! All operations use `Relaxed` ordering for the bit content plus the
//! synchronization provided externally by the barrier/collective that
//! separates the write phase from the read phase — mirroring how the MPI
//! program relies on `allgather` as its synchronization point. The only
//! method with stronger semantics is [`AtomicBitmap::fetch_set`], whose
//! atomic read-modify-write is what makes "first writer wins parent
//! election" well defined.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bitmap::Bitmap;
use crate::WORD_BITS;

/// A fixed-length bitmap whose words are `AtomicU64`.
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len_bits: usize,
}

impl std::fmt::Debug for AtomicBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicBitmap")
            .field("len_bits", &self.len_bits)
            .field("ones", &self.count_ones())
            .finish()
    }
}

impl AtomicBitmap {
    /// Creates an all-zero atomic bitmap with room for `len_bits` bits.
    pub fn new(len_bits: usize) -> Self {
        let mut words = Vec::with_capacity(len_bits.div_ceil(WORD_BITS));
        words.resize_with(len_bits.div_ceil(WORD_BITS), || AtomicU64::new(0));
        Self { words, len_bits }
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

    /// Tests bit `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len_bits);
        (self.words[idx / WORD_BITS].load(Ordering::Relaxed) >> (idx % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `idx`, returning `true` if this call flipped it from 0 to 1.
    ///
    /// The atomic `fetch_or` makes concurrent setters agree on exactly one
    /// winner, which the top-down phase uses for parent election.
    #[inline]
    pub fn fetch_set(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len_bits);
        let mask = 1u64 << (idx % WORD_BITS);
        self.words[idx / WORD_BITS].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Sets bit `idx` without caring about the previous value.
    #[inline]
    pub fn set(&self, idx: usize) {
        self.fetch_set(idx);
    }

    /// Loads word `w`.
    #[inline]
    pub fn load_word(&self, w: usize) -> u64 {
        self.words[w].load(Ordering::Relaxed)
    }

    /// Stores word `w`. Callers must not race this with bit-level writers.
    #[inline]
    pub fn store_word(&self, w: usize, value: u64) {
        self.words[w].store(value, Ordering::Relaxed);
    }

    /// Atomically ORs `mask` into word `w`, returning the previous value.
    ///
    /// This is the word-granular merge used when a whole remote frontier
    /// word is folded into the shared `out_queue`; the single `fetch_or`
    /// is what keeps concurrent merges lost-update-free (the property the
    /// `atomic_bitmap_linearizability` test checks exhaustively).
    #[inline]
    pub fn fetch_or_word(&self, w: usize, mask: u64) -> u64 {
        self.words[w].fetch_or(mask, Ordering::Relaxed)
    }

    /// Resets every bit to zero. Requires external quiescence.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Total number of set bits (racy if writers are active).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Copies the word range starting at `word_start` out into a plain slice.
    pub fn export_words(&self, word_start: usize, dst: &mut [u64]) {
        for (i, d) in dst.iter_mut().enumerate() {
            *d = self.words[word_start + i].load(Ordering::Relaxed);
        }
    }

    /// Snapshot into an owned, non-atomic [`Bitmap`].
    pub fn snapshot(&self) -> Bitmap {
        let mut bm = Bitmap::new(self.len_bits);
        for (i, w) in self.words.iter().enumerate() {
            bm.words_mut()[i] = w.load(Ordering::Relaxed);
        }
        bm
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fetch_set_reports_single_winner_per_bit() {
        let bm = Arc::new(AtomicBitmap::new(1024));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let bm = Arc::clone(&bm);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0usize;
                for i in 0..1024 {
                    if bm.fetch_set(i) {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1024, "each bit must have exactly one winner");
        assert_eq!(bm.count_ones(), 1024);
    }

    #[test]
    fn snapshot_roundtrip() {
        let bm = AtomicBitmap::new(130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        let snap = bm.snapshot();
        assert_eq!(snap.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn export_words_reads_one_segment() {
        let bm = AtomicBitmap::new(256);
        bm.store_word(1, 0xdead);
        bm.store_word(2, 0xbeef);
        let mut out = [0u64; 2];
        bm.export_words(1, &mut out);
        assert_eq!(out, [0xdead, 0xbeef]);
        assert_eq!(bm.load_word(0), 0);
        assert_eq!(bm.load_word(3), 0);
    }

    #[test]
    fn clear_all_resets() {
        let bm = AtomicBitmap::new(100);
        for i in (0..100).step_by(7) {
            bm.set(i);
        }
        assert!(bm.count_ones() > 0);
        bm.clear_all();
        assert_eq!(bm.count_ones(), 0);
        assert!(!bm.is_empty());
        assert_eq!(bm.word_len(), 2);
    }
}

//! Per-vertex lane words for bit-parallel multi-source BFS.
//!
//! Buluç & Madduri (arXiv:1104.4518) observe that frontier work is
//! word-level at heart: up to 64 independent BFS queries can share one
//! traversal by giving every vertex a single `u64` whose bit *l* means
//! "query lane *l* has reached this vertex". A [`LaneBitmap`] is exactly
//! that table — one word per *vertex* (where [`crate::Bitmap`] packs 64
//! *vertices* per word, this packs 64 *queries* per vertex).
//!
//! The table offers loads and stores, never a read-modify-write: every
//! word has one writer per phase. Expansion workers only read it; settle
//! phases own disjoint vertex ranges and store into them through a shared
//! reference, which is why the words are `Relaxed` atomic cells. The level
//! barrier between phases provides the synchronization, exactly as the
//! collectives do for the distributed frontier words.

use std::sync::atomic::{AtomicU64, Ordering};

/// One `u64` lane word per slot (vertex).
pub struct LaneBitmap {
    words: Vec<AtomicU64>,
}

impl std::fmt::Debug for LaneBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneBitmap")
            .field("len", &self.words.len())
            .finish()
    }
}

impl LaneBitmap {
    /// Creates an all-zero lane table with one word per slot.
    pub fn new(len: usize) -> Self {
        let mut words = Vec::with_capacity(len);
        words.resize_with(len, || AtomicU64::new(0));
        Self { words }
    }

    /// Number of slots (vertices).
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the table has zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Loads slot `v`'s lane word.
    #[inline]
    pub fn load_word(&self, v: usize) -> u64 {
        self.words[v].load(Ordering::Relaxed)
    }

    /// Stores slot `v`'s lane word. The caller must be the slot's only
    /// writer in this phase (settle phases own disjoint vertex ranges).
    #[inline]
    pub fn store_word(&self, v: usize, value: u64) {
        self.words[v].store(value, Ordering::Relaxed);
    }

    /// Resets every lane word to zero. Requires external quiescence.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot into an owned plain vector of lane words.
    pub fn snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_load_roundtrip() {
        let lanes = LaneBitmap::new(4);
        lanes.store_word(2, 0xdead_beef);
        assert_eq!(lanes.load_word(2), 0xdead_beef);
        assert_eq!(lanes.load_word(1), 0);
        assert_eq!(lanes.snapshot(), vec![0, 0, 0xdead_beef, 0]);
        assert_eq!(lanes.len(), 4);
        assert!(!lanes.is_empty());
    }

    #[test]
    fn clear_all_resets() {
        let lanes = LaneBitmap::new(10);
        for v in 0..10 {
            lanes.store_word(v, 1 << v);
        }
        lanes.clear_all();
        assert_eq!(lanes.snapshot(), vec![0; 10]);
    }
}

//! Per-vertex lane words for bit-parallel multi-source BFS.
//!
//! Buluç & Madduri (arXiv:1104.4518) observe that frontier work is
//! word-level at heart: up to 64 independent BFS queries can share one
//! traversal by giving every vertex a single `u64` whose bit *l* means
//! "query lane *l* has reached this vertex". A [`LaneBitmap`] is exactly
//! that table — one atomic word per *vertex* (where [`crate::AtomicBitmap`]
//! packs 64 *vertices* per word, this packs 64 *queries* per vertex).
//!
//! The concurrency contract mirrors the frontier bitmaps: expansion
//! workers race `fetch_or_word` claims on shared vertices (the single RMW
//! keeps concurrent lane merges lost-update-free — the property the
//! `atomic_bitmap_linearizability` test checks), while settle phases that own
//! disjoint vertex ranges may use plain `store_word`. All ordering is
//! `Relaxed`; the level barrier between expand and settle provides the
//! synchronization, exactly as the collectives do for the distributed
//! frontier words.

use std::sync::atomic::{AtomicU64, Ordering};

/// One atomic `u64` lane word per slot (vertex).
pub struct LaneBitmap {
    words: Vec<AtomicU64>,
}

impl std::fmt::Debug for LaneBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneBitmap")
            .field("len", &self.words.len())
            .field("active", &self.count_active())
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

    /// Stores slot `v`'s lane word. Callers must not race this with
    /// concurrent writers of the same slot (settle phases own disjoint
    /// vertex ranges, so a plain store suffices there).
    #[inline]
    pub fn store_word(&self, v: usize, value: u64) {
        self.words[v].store(value, Ordering::Relaxed);
    }

    /// Atomically ORs `mask` into slot `v`, returning the previous word.
    ///
    /// `prev` tells the caller exactly which lanes it newly claimed
    /// (`mask & !prev`): concurrent expanders agree on one claimer per
    /// lane, the multi-source analogue of `AtomicBitmap::fetch_set`'s
    /// "first writer wins" parent election.
    #[inline]
    pub fn fetch_or_word(&self, v: usize, mask: u64) -> u64 {
        self.words[v].fetch_or(mask, Ordering::Relaxed)
    }

    /// Resets every lane word to zero. Requires external quiescence.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of slots with at least one live lane (racy if writers are
    /// active).
    pub fn count_active(&self) -> usize {
        self.words
            .iter()
            .filter(|w| w.load(Ordering::Relaxed) != 0)
            .count()
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
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fetch_or_word_reports_exactly_one_claimer_per_lane() {
        // 8 threads race the same 64-lane claim on every slot; the prev
        // word each RMW returns partitions the lanes, so summing the
        // newly-claimed bits across threads must count each lane once.
        let lanes = Arc::new(LaneBitmap::new(256));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lanes = Arc::clone(&lanes);
            handles.push(std::thread::spawn(move || {
                let mut claimed = 0u64;
                for v in 0..256 {
                    // Every thread tries a different (overlapping) mask.
                    let mask = u64::MAX.rotate_left((t * 8) as u32);
                    let prev = lanes.fetch_or_word(v, mask);
                    claimed += u64::from((mask & !prev).count_ones());
                }
                claimed
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 256 * 64, "each lane must have exactly one claimer");
        assert!(lanes.snapshot().iter().all(|&w| w == u64::MAX));
        assert_eq!(lanes.count_active(), 256);
    }

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
            lanes.fetch_or_word(v, 1 << v);
        }
        assert_eq!(lanes.count_active(), 10);
        lanes.clear_all();
        assert_eq!(lanes.count_active(), 0);
    }
}

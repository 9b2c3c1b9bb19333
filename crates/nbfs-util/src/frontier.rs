//! Reusable frontier arena: per-chunk local next-queues carved from one
//! pre-sized allocation.
//!
//! Every parallel BFS kernel in this workspace faces the same problem: a
//! level's workers each discover some vertices, and the next frontier must
//! be (a) assembled without per-chunk heap allocations in the hot path and
//! (b) identical no matter how the chunks were scheduled. The classic
//! `flat_map(|chunk| Vec::new())` pattern fails (a) — one fresh allocation
//! per chunk per level — and collecting into unordered buffers fails (b).
//!
//! [`FrontierArena`] solves both. Before the parallel phase the caller
//! declares one capacity per chunk; [`FrontierArena::begin`] carves that
//! many disjoint slots out of a single grow-only storage vector (resizing
//! happens *here*, outside any hot region, and is amortized away because
//! the arena is reused across levels and runs). Workers push into their
//! own [`FrontierSlot`] — a borrowed slice with a cursor, so the push is a
//! bounds-checked store, never an allocation. Afterwards the caller walks
//! the filled slots *in chunk order*, which makes the merged result a pure
//! function of the chunk decomposition: bit-identical across 1-thread and
//! N-thread pools.
//!
//! ```
//! use nbfs_util::FrontierArena;
//!
//! let mut arena: FrontierArena<u32> = FrontierArena::new();
//! // Level: 2 chunks may discover up to 3 and 2 vertices respectively.
//! let mut slots = arena.begin(&[3, 2]);
//! slots[0].push(10);
//! slots[0].push(11);
//! slots[1].push(40);
//! let merged: Vec<u32> = slots.iter().flat_map(|s| s.as_slice()).copied().collect();
//! assert_eq!(merged, [10, 11, 40]);
//! ```

/// One grow-only backing allocation, recycled across levels and runs.
///
/// The arena itself is cheap to construct; all real memory is acquired by
/// [`FrontierArena::begin`] and kept for subsequent levels.
#[derive(Debug, Default)]
pub struct FrontierArena<T> {
    storage: Vec<T>,
}

/// A worker-owned segment of the arena: fixed capacity, cursor-tracked
/// length. Produced by [`FrontierArena::begin`]; the borrow ends when the
/// slots are dropped, after the caller's order-preserving merge.
#[derive(Debug)]
pub struct FrontierSlot<'a, T> {
    buf: &'a mut [T],
    len: usize,
}

impl<T: Copy + Default> FrontierArena<T> {
    /// An empty arena; storage is acquired lazily by [`Self::begin`].
    pub fn new() -> Self {
        Self {
            storage: Vec::new(),
        }
    }

    /// An arena pre-sized for `capacity` total items across all slots.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            storage: vec![T::default(); capacity],
        }
    }

    /// Total items the current backing storage can hold without growing.
    pub fn capacity(&self) -> usize {
        self.storage.len()
    }

    /// Carves one slot per entry of `caps` (slot `i` holds up to `caps[i]`
    /// items) out of the backing storage, growing it if this level needs
    /// more than any previous one. Slots are disjoint `&mut` segments, so
    /// they can be filled from parallel workers; their index order is the
    /// merge order.
    pub fn begin(&mut self, caps: &[usize]) -> Vec<FrontierSlot<'_, T>> {
        let total: usize = caps.iter().sum();
        if self.storage.len() < total {
            self.storage.resize(total, T::default());
        }
        let mut rest = self.storage.as_mut_slice();
        let mut slots = Vec::with_capacity(caps.len());
        for &cap in caps {
            let (slot, tail) = rest.split_at_mut(cap);
            rest = tail;
            slots.push(FrontierSlot { buf: slot, len: 0 });
        }
        slots
    }
}

impl<T: Copy> FrontierSlot<'_, T> {
    /// Appends `item`.
    ///
    /// # Panics
    /// If the slot is already at the capacity declared to
    /// [`FrontierArena::begin`] — per-chunk caps are exact upper bounds by
    /// construction in every caller, so overflow is a caller logic error.
    #[inline]
    pub fn push(&mut self, item: T) {
        // hot-path
        // One bounds-checked store per discovered vertex; the whole point
        // of the arena is that this compiles to the body of a Vec::push
        // without ever growing (`tests/hot_path_alloc.rs` keeps it that way).
        self.buf[self.len] = item;
        self.len += 1;
        // end-hot-path
    }

    /// Items pushed so far, in push order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..self.len]
    }

    /// Number of items pushed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn slots_are_disjoint_and_merge_in_chunk_order() {
        let mut arena: FrontierArena<u32> = FrontierArena::new();
        let mut slots = arena.begin(&[2, 0, 3]);
        assert_eq!(slots.len(), 3);
        slots[2].push(30);
        slots[0].push(1);
        slots[2].push(31);
        slots[0].push(2);
        let merged: Vec<u32> = slots.iter().flat_map(|s| s.as_slice()).copied().collect();
        assert_eq!(merged, [1, 2, 30, 31]);
        assert!(slots[1].is_empty());
    }

    #[test]
    fn storage_grows_once_and_is_reused() {
        let mut arena: FrontierArena<u64> = FrontierArena::with_capacity(4);
        assert_eq!(arena.capacity(), 4);
        {
            let slots = arena.begin(&[8, 8]);
            assert_eq!(slots.len(), 2);
        }
        assert_eq!(arena.capacity(), 16, "grown to the larger level");
        {
            let mut slots = arena.begin(&[1]);
            slots[0].push(7);
            assert_eq!(slots[0].as_slice(), [7]);
        }
        assert_eq!(arena.capacity(), 16, "smaller levels reuse storage");
    }

    #[test]
    fn parallel_fill_is_schedule_independent() {
        // The arena's contract: merged output depends only on the chunk
        // decomposition, not on which worker filled which slot when.
        let items: Vec<u32> = (0..1000).collect();
        let caps: Vec<usize> = items.chunks(64).map(<[u32]>::len).collect();
        let mut arena: FrontierArena<u32> = FrontierArena::new();
        let slots = arena.begin(&caps);
        let filled: Vec<FrontierSlot<'_, u32>> = slots
            .into_par_iter()
            .zip(items.par_chunks(64))
            .map(|(mut slot, chunk)| {
                for &x in chunk {
                    if x % 3 != 0 {
                        slot.push(x);
                    }
                }
                slot
            })
            .collect();
        let merged: Vec<u32> = filled.iter().flat_map(|s| s.as_slice()).copied().collect();
        let expect: Vec<u32> = (0..1000).filter(|x| x % 3 != 0).collect();
        assert_eq!(merged, expect);
    }

    #[test]
    #[should_panic]
    fn overflowing_a_slot_panics() {
        let mut arena: FrontierArena<u8> = FrontierArena::new();
        let mut slots = arena.begin(&[1]);
        slots[0].push(1);
        slots[0].push(2);
    }

    #[test]
    fn empty_caps_produce_no_slots() {
        let mut arena: FrontierArena<u32> = FrontierArena::new();
        assert!(arena.begin(&[]).is_empty());
    }
}

//! A pre-sized event ring buffer.
//!
//! The ring is allocated once, up front, at its full capacity; pushing an
//! event after that never allocates (the `Vec::push` below lands in
//! reserved capacity, and overwrites reuse slots in place). When full, the
//! oldest event is overwritten and counted, so a runaway run degrades to
//! "most recent window" instead of unbounded memory — the discipline
//! DESIGN.md §8 documents.

use crate::event::TraceEvent;

/// Fixed-capacity ring of [`TraceEvent`]s with overwrite-oldest semantics.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped; 0 before that.
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (clamped to ≥ 1),
    /// allocating the full backing store immediately.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            capacity,
        }
    }

    /// Records one event. Allocation-free: below capacity this pushes into
    /// reserved storage; at capacity it overwrites the oldest slot.
    // hot-path
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }
    // end-hot-path

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held events oldest-first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &TraceEvent> {
        let (older, newer) = (&self.buf[self.head..], &self.buf[..self.head]);
        older.iter().chain(newer.iter())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::cost::CommCost;
    use crate::event::{CollectiveKind, CollectiveStats};

    fn ev(level: usize) -> TraceEvent {
        TraceEvent::Collective {
            level,
            kind: CollectiveKind::Allreduce,
            cost: CommCost::ZERO,
            stats: CollectiveStats::ZERO,
        }
    }

    fn levels(ring: &EventRing) -> Vec<usize> {
        ring.iter_in_order().map(|e| e.level()).collect()
    }

    #[test]
    fn fills_in_order_below_capacity() {
        let mut r = EventRing::with_capacity(4);
        assert!(r.is_empty());
        for i in 0..3 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        assert_eq!(levels(&r), vec![0, 1, 2]);
    }

    #[test]
    fn wraps_and_counts_drops() {
        let mut r = EventRing::with_capacity(3);
        for i in 0..7 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        // Oldest-first view holds the last three events.
        assert_eq!(levels(&r), vec![4, 5, 6]);
    }

    #[test]
    fn never_reallocates_past_construction() {
        let mut r = EventRing::with_capacity(8);
        let cap_before = r.buf.capacity();
        for i in 0..1000 {
            r.push(ev(i));
        }
        assert_eq!(r.buf.capacity(), cap_before);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = EventRing::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(levels(&r), vec![2]);
        assert_eq!(r.dropped(), 1);
    }
}

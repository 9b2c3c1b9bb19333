//! Seeded randomized stress test for [`AtomicBitmap`]'s concurrent path.
//!
//! Real rayon threads hammer one shared bitmap with `fetch_set` and
//! `fetch_or_word` — the exact operations the distributed engine's
//! frontier-publish path uses. Every operation is OR-monotone, so the
//! final bit pattern is order-independent: whatever the interleaving, it
//! must equal a sequential replay on the scalar [`Bitmap`] oracle. The
//! companion *exhaustive* check over small schedules lives in
//! `atomic_bitmap_linearizability.rs`; this test covers the large/concurrent regime
//! the model checker cannot enumerate.

// Test code opts back into unwrap/narrowing ergonomics; the workspace
// denies both in library targets (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use rayon::prelude::*;

use nbfs_util::rng::Xoroshiro128;
use nbfs_util::{AtomicBitmap, Bitmap, WORD_BITS};

#[derive(Clone, Copy, Debug)]
enum StressOp {
    /// `fetch_set` of one bit.
    Set(usize),
    /// `fetch_or_word` of a whole-word mask (the allgather merge step).
    Merge(usize, u64),
}

/// Deterministic per-thread operation list.
fn op_list(seed: u64, bits: usize, count: usize) -> Vec<StressOp> {
    let mut rng = Xoroshiro128::new(seed);
    (0..count)
        .map(|_| {
            if rng.next_below(4) == 0 {
                let w = rng.next_below((bits / WORD_BITS) as u64) as usize;
                StressOp::Merge(w, rng.next_u64())
            } else {
                StressOp::Set(rng.next_below(bits as u64) as usize)
            }
        })
        .collect()
}

fn apply_atomic(bm: &AtomicBitmap, op: StressOp) {
    match op {
        StressOp::Set(idx) => {
            bm.fetch_set(idx);
        }
        StressOp::Merge(w, mask) => {
            bm.fetch_or_word(w, mask);
        }
    }
}

fn apply_scalar(bm: &mut Bitmap, op: StressOp) {
    match op {
        StressOp::Set(idx) => bm.set(idx),
        StressOp::Merge(w, mask) => {
            let old = bm.get_word(w);
            bm.words_mut()[w] = old | mask;
        }
    }
}

#[test]
fn parallel_or_monotone_ops_match_sequential_oracle() {
    let bits = 64 * 64; // 64 words
    let threads = 8;
    let ops_per_thread = 20_000;

    for campaign_seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
        let lists: Vec<Vec<StressOp>> = (0..threads)
            .map(|t| op_list(campaign_seed.wrapping_add(t as u64), bits, ops_per_thread))
            .collect();

        let shared = AtomicBitmap::new(bits);
        lists.par_iter().for_each(|ops| {
            for &op in ops {
                apply_atomic(&shared, op);
            }
        });

        let mut oracle = Bitmap::new(bits);
        for ops in &lists {
            for &op in ops {
                apply_scalar(&mut oracle, op);
            }
        }

        assert_eq!(
            shared.snapshot().words(),
            oracle.words(),
            "seed {campaign_seed:#x}: concurrent result diverged from the \
             sequential oracle — a word merge lost an update"
        );
    }
}

#[test]
fn fetch_set_has_exactly_one_winner_per_bit() {
    let bits = 2048;
    let threads = 8;
    let attempts_per_thread = 4096;

    let lists: Vec<Vec<usize>> = (0..threads)
        .map(|t| {
            let mut rng = Xoroshiro128::new(0xb17_0000 + t as u64);
            (0..attempts_per_thread)
                .map(|_| rng.next_below(bits as u64) as usize)
                .collect()
        })
        .collect();

    let shared = AtomicBitmap::new(bits);
    let wins: usize = lists
        .par_iter()
        .map(|idxs| idxs.iter().filter(|&&i| shared.fetch_set(i)).count())
        .sum();

    // Every contended bit must be won exactly once: total wins equals the
    // number of distinct bits anyone attempted.
    let mut distinct = Bitmap::new(bits);
    for idxs in &lists {
        for &i in idxs {
            distinct.set(i);
        }
    }
    assert_eq!(wins, distinct.count_ones());
    assert_eq!(shared.snapshot().words(), distinct.words());
}

//! When a level's parallel call is worth a dispatch.
//!
//! Handing a piece of work to another thread costs a few microseconds
//! (more when that thread has to be woken), and a level loop on a deep
//! graph makes several such calls per level for a frontier of a hundred
//! vertices. Every per-level call site therefore tells rayon, through
//! `with_min_len`, how many of its items make one piece worth that cost —
//! computed from counts the level already holds (frontier length, arcs out
//! of the frontier, words to walk), never from a flag. A call with fewer
//! than two such pieces runs inline on the caller.
//!
//! The piece count reaches no result (DESIGN.md §6): splits are uniform,
//! recombination is in piece order and every tally is an integer, so the
//! grain is free to be an estimate.

/// Elementary operations — a load and a little arithmetic, about a
/// nanosecond — a piece must hold to repay its dispatch.
const PIECE_OPS: u64 = 1 << 14;

/// The `with_min_len` of a parallel call over `items` items that does about
/// `ops` elementary operations in all, evenly spread: the fewest items
/// holding [`PIECE_OPS`] of them.
pub(crate) fn min_len(items: usize, ops: u64) -> usize {
    let len = (items as u64)
        .saturating_mul(PIECE_OPS)
        .div_ceil(ops.max(1));
    usize::try_from(len).unwrap_or(usize::MAX).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_piece_holds_piece_ops_operations() {
        let ops = |pieces: u64| pieces * PIECE_OPS;
        // 16 tasks sharing four pieces' worth of work: four tasks a piece.
        assert_eq!(min_len(16, ops(4)), 4);
        // Less than two pieces' worth: no split leaves two pieces.
        assert!(16 / min_len(16, ops(2) - 1) < 2);
        // Heavy items split down to one each; an idle level splits nowhere.
        assert_eq!(min_len(16, ops(1_000)), 1);
        assert!(min_len(16, 0) > 16);
        assert_eq!(min_len(0, 0), 1);
    }
}

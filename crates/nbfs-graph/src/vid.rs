//! The sanctioned vertex-id width conversions.
//!
//! Vertex ids travel as `usize` through the public API but are stored as
//! `u32` in parent arrays, frontier queues and wire chunks (graphs up to
//! scale 31, matching the paper's largest runs). That narrowing is the
//! single most dangerous cast in the codebase — a silently truncated id
//! corrupts the BFS tree only at scales large enough that nobody is
//! looking. The workspace therefore denies `clippy::cast_possible_truncation`
//! and this module holds its one sanctioned vertex-id `#[expect]`: all
//! narrowing funnels through [`to_stored`], which checks the range in
//! debug builds and documents the invariant in one place.

use crate::VertexId;

/// Narrows a vertex id to its stored `u32` form.
///
/// The graph substrate never constructs more than `u32::MAX` vertices
/// (scale ≤ 31 is enforced by the builder), so the narrowing is lossless
/// for every id that names a real vertex. Debug builds verify it.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the sanctioned vertex-id narrowing: ids fit in u32 up to scale 31"
)]
pub fn to_stored(v: VertexId) -> u32 {
    debug_assert!(
        u32::try_from(v).is_ok(),
        "vertex id {v} exceeds the stored u32 width"
    );
    v as u32
}

/// Widens a stored `u32` vertex id back to the API width. Total.
#[inline]
pub fn from_stored(s: u32) -> VertexId {
    s as VertexId
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for v in [0usize, 1, 63, 64, 1 << 20, u32::MAX as usize] {
            assert_eq!(from_stored(to_stored(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the stored u32 width")]
    #[cfg(debug_assertions)]
    fn overflow_is_caught_in_debug() {
        let _ = to_stored(u32::MAX as usize + 1);
    }
}

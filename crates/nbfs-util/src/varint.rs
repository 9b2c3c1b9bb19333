//! LEB128 varint primitives shared by the wire codecs and the
//! compressed graph storage.
//!
//! `nbfs-comm`'s delta-varint frontier codec and `nbfs-graph`'s
//! `CompressedCsr` adjacency encoding use the same byte format:
//! little-endian base-128, 7 payload bits per byte, high bit set on
//! every byte except the last. Signed deltas go through the zigzag
//! transform first so small magnitudes of either sign stay short.

/// Appends `value` as a LEB128 varint (7 bits per byte, high bit = more).
pub fn push_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push((value & 0x7f) as u8 | 0x80);
        value >>= 7;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the loop leaves value < 0x80"
    )]
    buf.push(value as u8);
}

/// Reads one LEB128 varint starting at `at`, returning `(value, next)`.
///
/// # Panics
///
/// Panics on a truncated buffer or a varint wider than 64 bits; both
/// indicate a corrupted payload, which the codecs treat as fatal.
pub fn read_varint(buf: &[u8], at: usize) -> (u64, usize) {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut pos = at;
    loop {
        assert!(pos < buf.len(), "truncated varint");
        let byte = buf[pos];
        pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return (value, pos);
        }
        shift += 7;
        assert!(shift < 64, "varint overflows u64");
    }
}

/// Zigzag: maps a signed delta onto an unsigned varint-friendly value.
pub fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        let samples = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &samples {
            push_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &samples {
            let (got, next) = read_varint(&buf, pos);
            assert_eq!(got, v);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_round_trips() {
        for delta in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(delta)), delta);
        }
        // Small magnitudes stay small: the codec depends on this.
        assert!(zigzag(-1) < 0x80);
        assert!(zigzag(1) < 0x80);
    }
}

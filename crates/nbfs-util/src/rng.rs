//! Deterministic random number generation.
//!
//! Graph generation must be reproducible across runs and independent of the
//! number of worker threads, so the R-MAT generator uses *counter-based*
//! randomness: the random stream for edge `i` is a pure function of
//! `(seed, i)`. [`SplitMix64`] supplies the stateless mixing function and
//! [`Xoroshiro128`] a fast sequential stream for everything else (root
//! sampling, permutations).

/// Stateless SplitMix64 mixing: maps any 64-bit input to a well-distributed
/// 64-bit output. `mix(seed ^ counter)` yields independent streams.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable SplitMix64 sequential generator (also used to seed others).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Xoroshiro128++ — fast, high-quality sequential PRNG.
#[derive(Clone, Debug)]
pub struct Xoroshiro128 {
    s0: u64,
    s1: u64,
}

impl Xoroshiro128 {
    /// Creates a generator from a seed (expanded via SplitMix64, per the
    /// xoroshiro authors' recommendation).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s0 = sm.next_u64();
        let mut s1 = sm.next_u64();
        if s0 == 0 && s1 == 0 {
            s1 = 1; // the all-zero state is the one forbidden state
        }
        Self { s0, s1 }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let (s0, mut s1) = (self.s0, self.s1);
        let result = s0.wrapping_add(s1).rotate_left(17).wrapping_add(s0);
        s1 ^= s0;
        self.s0 = s0.rotate_left(49) ^ s1 ^ (s1 << 21);
        self.s1 = s1.rotate_left(28);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased enough for workload generation; bound must be non-zero).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle of a slice.
    // Cast is value-preserving: next_below(i + 1) < i + 1 <= slice.len().
    #[allow(clippy::cast_possible_truncation)]
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// The counter-based stream of one logical index under one seed, with the
/// index hashed once: a caller that takes many draws of one index (the
/// R-MAT generator takes `2 * scale`) pays one mix per draw, not two.
#[derive(Clone, Copy, Debug)]
pub struct CounterStream {
    seed: u64,
    key: u64,
}

impl CounterStream {
    /// The stream of index `idx` under `seed`.
    #[inline]
    pub fn new(seed: u64, idx: u64) -> Self {
        Self {
            seed,
            key: splitmix64(idx),
        }
    }

    /// Draw number `draw` of this stream.
    #[inline]
    pub fn draw(&self, draw: u32) -> u64 {
        splitmix64(
            self.seed
                ^ self
                    .key
                    .wrapping_add(u64::from(draw).wrapping_mul(0xa076_1d64_78bd_642f)),
        )
    }
}

/// A counter-based stream: `n`-th draw for logical index `idx` under `seed`.
/// Pure function — safe to evaluate from any thread in any order.
#[inline]
pub fn counter_u64(seed: u64, idx: u64, draw: u32) -> u64 {
    CounterStream::new(seed, idx).draw(draw)
}

/// Counter-based uniform `f64` in `[0, 1)`.
#[inline]
pub fn counter_f64(seed: u64, idx: u64, draw: u32) -> f64 {
    (counter_u64(seed, idx, draw) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(42);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(42);
            (0..8).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = SplitMix64::new(43).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut g = Xoroshiro128::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn counter_stream_is_order_independent() {
        let forward: Vec<u64> = (0..100).map(|i| counter_u64(5, i, 0)).collect();
        let mut backward: Vec<u64> = (0..100).rev().map(|i| counter_u64(5, i, 0)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn counter_draws_differ() {
        assert_ne!(counter_u64(1, 10, 0), counter_u64(1, 10, 1));
        assert_ne!(counter_u64(1, 10, 0), counter_u64(2, 10, 0));
        assert_ne!(counter_u64(1, 10, 0), counter_u64(1, 11, 0));
    }

    #[test]
    fn counter_stream_is_the_counter_formula() {
        // The values the R-MAT generator and the fault layer were built on.
        let stream = CounterStream::new(7, 3);
        assert_eq!(stream.draw(0), counter_u64(7, 3, 0));
        assert_eq!(stream.draw(5), counter_u64(7, 3, 5));
        assert_eq!(
            counter_u64(7, 3, 5),
            splitmix64(7 ^ splitmix64(3).wrapping_add(5u64.wrapping_mul(0xa076_1d64_78bd_642f)))
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut v: Vec<u32> = (0..257).collect();
        let mut g = Xoroshiro128::new(2024);
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..257).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..257).collect::<Vec<u32>>(),
            "shuffle should move things"
        );
    }
}

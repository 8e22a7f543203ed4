//! Seeded pseudo-random numbers for the graph generators.
//!
//! The generators only need a deterministic, well-mixed stream — not
//! cryptographic quality — so this is xoshiro256++ seeded through
//! SplitMix64 (the reference seeding procedure from Blackman & Vigna).
//! Keeping the RNG in-tree pins the corpus byte-for-byte across builds:
//! the exact graphs only depend on this file, never on an external
//! crate's algorithm choice.

/// Mixes a master seed with a stream index into an independent derived
/// seed (a SplitMix64 finalizer round over the combined words).
///
/// The parallel generators carve their output into fixed-size blocks and
/// seed each block's private [`SeededRng`] with `mix64(seed, block)`, so
/// the emitted stream depends only on the seed and the block layout —
/// never on thread count or schedule. Distinct stream constants derive
/// independent sub-generators (shuffle permutations, diagonals, ...).
pub fn mix64(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .rotate_left(17)
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: [u64; 4],
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SeededRng {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`.
    #[cfg(test)]
    pub(crate) fn gen_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw output.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from a half-open or inclusive integer range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformInt,
        R: std::ops::RangeBounds<T>,
    {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&x) => x.to_u64(),
            Bound::Excluded(&x) => x.to_u64() + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) => x.to_u64() + 1,
            Bound::Excluded(&x) => x.to_u64(),
            Bound::Unbounded => u64::MAX,
        };
        assert!(lo < hi, "gen_range called with an empty range");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire): rejects the short tail.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                low = m as u64;
            }
        }
        T::from_u64(lo + (m >> 64) as u64)
    }
}

/// Integer types [`SeededRng::gen_range`] can draw.
pub trait UniformInt: Copy {
    /// Widens to the sampling domain.
    fn to_u64(self) -> u64;
    /// Narrows back after sampling (value is in range by construction).
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::seed_from_u64(42);
        let mut b = SeededRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::seed_from_u64(1);
        let mut b = SeededRng::seed_from_u64(2);
        assert!((0..10).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = SeededRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: u32 = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: usize = rng.gen_range(0..=4);
            assert!(w <= 4);
            let x: i32 = rng.gen_range(1..256);
            assert!((1..256).contains(&x));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SeededRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "8-value range left values unseen");
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = SeededRng::seed_from_u64(3);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor spread: [{lo}, {hi}]");
    }
}

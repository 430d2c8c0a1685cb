//! Offline stand-in for `rand`: seeded deterministic generators with the
//! `SeedableRng` / `RngExt` surface this workspace uses. The generator is
//! xoshiro256++ seeded through SplitMix64 — high-quality enough for
//! simulation draws and property tests, and fully reproducible.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Core of every generator: a 64-bit output stream.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Derive a full generator state from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Values samplable uniformly from all bit patterns (the `random()` call).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Half-open ranges samplable uniformly (the `random_range(a..b)` call).
pub trait SampleUniform: Sized {
    /// Draw uniformly from `[lo, hi)`. Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range");
                let span = (hi as u128).wrapping_sub(lo as u128) as u64;
                // Multiply-shift bounded draw (Lemire); bias < 2^-64.
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo.wrapping_add(v as $t)
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range");
        let u: f64 = Standard::sample(rng);
        let v = lo + u * (hi - lo);
        // Guard against rounding up to the excluded bound.
        if v >= hi {
            lo
        } else {
            v
        }
    }
}

/// Convenience methods on any generator.
pub trait RngExt: RngCore {
    /// Uniform draw over every bit pattern of `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from a half-open range.
    fn random_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Biased coin flip with probability `p` of `true`.
    fn random_bool(&mut self, p: f64) -> bool {
        <f64 as Standard>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small fast generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    /// The default "strong" generator — same engine in this stand-in.
    pub type StdRng = SmallRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.random_range(10u32..20);
            assert!((10..20).contains(&v));
            let f = r.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v: f64 = r.random();
            assert!((0.0..1.0).contains(&v));
        }
    }
}

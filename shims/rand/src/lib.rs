//! Offline stand-in for `rand`.
//!
//! Provides the subset this workspace uses: `rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::gen` for the primitive types the
//! simulator draws, and `Rng::gen_range` over integer ranges.  The engine
//! is xoshiro256++ seeded through SplitMix64 — deterministic, fast, and
//! statistically solid for simulation workloads (it is not, and does not
//! claim to be, cryptographically secure).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Core trait: a source of 64 random bits.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Types that can be sampled uniformly from an RNG (the shim's analogue of
/// sampling from rand's `Standard` distribution).
pub trait UniformSample: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl UniformSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl UniformSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl UniformSample for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl UniformSample for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl UniformSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl UniformSample for i64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl UniformSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl UniformSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision (rand's convention).
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl UniformSample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Integer types usable with `gen_range(lo..hi)`.
pub trait RangeSample: Copy + PartialOrd {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = range.end.abs_diff(range.start) as u64;
                // Unbiased sampling via rejection from the widest multiple
                // of `span` that fits in 64 bits.
                let zone = u64::MAX - (u64::MAX % span);
                loop {
                    let draw = rng.next_u64();
                    if draw < zone {
                        return range.start.wrapping_add((draw % span) as $t);
                    }
                }
            }
        }
    )*};
}
impl_range_sample!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl RangeSample for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let unit = f64::sample(rng);
        range.start + (range.end - range.start) * unit
    }
}

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    fn gen<T: UniformSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    fn gen_range<T: RangeSample>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p.clamp(0.0, 1.0)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    type Seed;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (the shim's `StdRng`).
    ///
    /// Note: unlike the real `rand::rngs::StdRng` (ChaCha12) this is not
    /// cryptographically secure; the simulator only needs determinism and
    /// good equidistribution.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(chunk);
                s[i] = u64::from_le_bytes(bytes);
            }
            // An all-zero state is a fixed point of xoshiro; perturb it.
            if s == [0; 4] {
                return StdRng::seed_from_u64(0);
            }
            StdRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(10);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let i = r.gen_range(0..5usize);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..5 should appear");
        for _ in 0..200 {
            let x = r.gen_range(-3i64..4);
            assert!((-3..4).contains(&x));
        }
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut r = StdRng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}

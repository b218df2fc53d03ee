//! Offline stand-in for the `rand` 0.10 surface this workspace uses:
//! `Rng`, `RngExt::{random, random_range}`, `SeedableRng::seed_from_u64`
//! and `rngs::StdRng`. The generator is xoshiro256++ seeded through
//! splitmix64, so streams differ from the published crate but are fixed
//! by the seed.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait Rng {
    fn next_u64(&mut self) -> u64;
}

/// Generators that can be built from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `RngExt::random` can produce.
pub trait Standard: Sized {
    fn from_word(word: u64) -> Self;
}

impl Standard for f64 {
    fn from_word(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_word(word: u64) -> f32 {
        (word >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges `RngExt::random_range` can sample from.
pub trait SampleRange<T> {
    fn sample(self, word: u64) -> T;
}

fn below(word: u64, span: u64) -> u64 {
    ((u128::from(word) * u128::from(span)) >> 64) as u64
}

impl SampleRange<usize> for Range<usize> {
    fn sample(self, word: u64) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + below(word, (self.end - self.start) as u64) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn sample(self, word: u64) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        match ((hi - lo) as u64).checked_add(1) {
            Some(span) => lo + below(word, span) as usize,
            None => word as usize,
        }
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, word: u64) -> f64 {
        self.start + (self.end - self.start) * f64::from_word(word)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample(self, word: u64) -> f32 {
        self.start + (self.end - self.start) * f32::from_word(word)
    }
}

/// Convenience sampling on top of any [`Rng`].
pub trait RngExt: Rng {
    fn random<T: Standard>(&mut self) -> T {
        T::from_word(self.next_u64())
    }

    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self.next_u64())
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
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

//! Deterministic random-number helpers.
//!
//! Everything in the reproduction is seeded so that experiments are exactly
//! repeatable. The base generator is the workspace's own `StdRng`
//! (xoshiro256++ seeded through splitmix64, `crates/rand`); Gaussian
//! samples are produced with the Box–Muller transform.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Create a deterministic RNG from a seed.
///
/// # Examples
///
/// ```
/// let mut a = minidnn::rng::seeded(7);
/// let mut b = minidnn::rng::seeded(7);
/// assert_eq!(minidnn::rng::normal(&mut a), minidnn::rng::normal(&mut b));
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draw a standard-normal sample using the Box–Muller transform.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    let mag = (-2.0 * u1.ln()).sqrt();
    (mag * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Fisher–Yates shuffle of a slice of indices.
pub fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = seeded(99);
        let mut b = seeded(99);
        for _ in 0..32 {
            assert_eq!(normal(&mut a), normal(&mut b));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| f64::from(normal(&mut rng))).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = seeded(4);
        let mut v: Vec<u32> = (0..100).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "100 elements should not shuffle to identity");
    }
}

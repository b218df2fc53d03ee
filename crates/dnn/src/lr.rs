//! Learning-rate scaling for adaptive batch sizes.
//!
//! When an adaptive system grows the global batch from `B₀` to `B`, the
//! learning rate must be rescaled or convergence degrades. Table 5 of the
//! paper pairs SGD with **AdaScale**: the gain form derived from the
//! gradient-noise analysis of McCandlish et al., `r(B) = (1 + φ/B₀) /
//! (1 + φ/B)` where `φ` is the gradient noise scale. The gain is bounded
//! by `1 + φ/B₀` as `B → ∞`, which is what makes AdaScale safe at large
//! batch sizes. (The paper's square-root rule goes with Adam/AdamW, which
//! this crate does not implement.)

/// AdaScale's multiplicative gain on the base learning rate when training
/// with global batch `batch` instead of `base_batch`; exactly `1.0` at
/// `batch == base_batch`.
///
/// `noise_scale` is the current gradient noise scale estimate `φ`
/// (`B_noise` in the paper); a missing estimate falls back to linear
/// scaling capped at 2× (the conservative warm-up behaviour of the
/// AdaScale reference implementation).
///
/// # Panics
///
/// Panics if `base_batch == 0` or `batch == 0`.
pub fn adascale_gain(base_batch: u64, batch: u64, noise_scale: Option<f64>) -> f64 {
    assert!(base_batch > 0 && batch > 0, "batch sizes must be positive");
    match noise_scale {
        Some(phi) if phi > 0.0 => (1.0 + phi / base_batch as f64) / (1.0 + phi / batch as f64),
        _ => (batch as f64 / base_batch as f64).min(2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_gain_at_base_batch() {
        // Bit for bit: a fixed-batch run's rate is its base rate whatever φ is.
        for phi in [Some(100.0), Some(0.5), Some(1e9), Some(0.0), None] {
            for b in [1u64, 7, 64, 1000] {
                assert_eq!(adascale_gain(b, b, phi).to_bits(), 1.0f64.to_bits(), "B={b}, φ={phi:?}");
            }
        }
    }

    #[test]
    fn adascale_gain_bounded() {
        let phi = 500.0;
        let b0 = 64u64;
        let bound = 1.0 + phi / b0 as f64;
        let g_small = adascale_gain(b0, 128, Some(phi));
        let g_huge = adascale_gain(b0, 1_000_000, Some(phi));
        assert!(g_small > 1.0 && g_small < bound);
        assert!(g_huge < bound && g_huge > g_small);
    }

    #[test]
    fn adascale_between_one_and_linear() {
        // The AdaScale gain never exceeds the linear ratio.
        let phi = 200.0;
        for b in [128u64, 256, 512, 1024] {
            let g = adascale_gain(64, b, Some(phi));
            let linear = b as f64 / 64.0;
            assert!(g >= 1.0 && g <= linear, "gain {g} for batch {b}");
        }
    }

    #[test]
    fn adascale_without_noise_caps_at_two() {
        assert_eq!(adascale_gain(64, 1024, None), 2.0);
        assert!((adascale_gain(64, 96, None) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn downscaling_reduces_lr() {
        // Shrinking the batch below B₀ lowers the learning rate, with or
        // without a noise estimate.
        for phi in [Some(100.0), None] {
            assert!(adascale_gain(64, 32, phi) < 1.0, "{phi:?}");
        }
    }
}

//! Learning-rate scaling rules for adaptive batch sizes.
//!
//! When an adaptive system grows the global batch from `B₀` to `B`, the
//! learning rate must be rescaled or convergence degrades. Table 5 of the
//! paper uses two rules:
//!
//! - **AdaScale** (vision/speech + SGD): the gain form derived from the
//!   gradient-noise analysis of McCandlish et al., `r(B) = (1 + φ/B₀) /
//!   (1 + φ/B)` where `φ` is the gradient noise scale. The gain is bounded
//!   by `1 + φ/B₀` as `B → ∞`, which is what makes AdaScale safe at large
//!   batch sizes.
//! - **Square-root** (Adam/AdamW): `r(B) = sqrt(B / B₀)`.
//!
//! A linear rule is included for completeness (classic Goyal et al.
//! scaling).

/// A learning-rate scaling rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrScaler {
    /// Gradient-noise-aware gain (used with SGD in the paper).
    AdaScale,
    /// `sqrt(B/B₀)` (used with Adam/AdamW in the paper).
    SquareRoot,
    /// `B/B₀`.
    Linear,
}

impl LrScaler {
    /// Multiplicative gain to apply to the base learning rate when training
    /// with global batch `batch` instead of `base_batch`.
    ///
    /// `noise_scale` is the current gradient noise scale estimate `φ`
    /// (`B_noise` in the paper); it is only used by [`LrScaler::AdaScale`],
    /// where a missing estimate falls back to linear scaling capped at 2×
    /// (the conservative warm-up behaviour of the AdaScale reference
    /// implementation).
    ///
    /// # Panics
    ///
    /// Panics if `base_batch == 0` or `batch == 0`.
    pub fn gain(&self, base_batch: u64, batch: u64, noise_scale: Option<f64>) -> f64 {
        assert!(base_batch > 0 && batch > 0, "batch sizes must be positive");
        let ratio = batch as f64 / base_batch as f64;
        match self {
            LrScaler::AdaScale => match noise_scale {
                Some(phi) if phi > 0.0 => {
                    (1.0 + phi / base_batch as f64) / (1.0 + phi / batch as f64)
                }
                _ => ratio.min(2.0),
            },
            LrScaler::SquareRoot => ratio.sqrt(),
            LrScaler::Linear => ratio,
        }
    }

    /// Learning rate for the given batch: `base_lr * gain`.
    pub fn scaled_lr(&self, base_lr: f64, base_batch: u64, batch: u64, noise_scale: Option<f64>) -> f64 {
        base_lr * self.gain(base_batch, batch, noise_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_gain_at_base_batch() {
        for scaler in [LrScaler::AdaScale, LrScaler::SquareRoot, LrScaler::Linear] {
            assert!((scaler.gain(64, 64, Some(100.0)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn adascale_gain_bounded() {
        let phi = 500.0;
        let b0 = 64u64;
        let bound = 1.0 + phi / b0 as f64;
        let g_small = LrScaler::AdaScale.gain(b0, 128, Some(phi));
        let g_huge = LrScaler::AdaScale.gain(b0, 1_000_000, Some(phi));
        assert!(g_small > 1.0 && g_small < bound);
        assert!(g_huge < bound && g_huge > g_small);
    }

    #[test]
    fn adascale_between_one_and_linear() {
        // The AdaScale gain never exceeds the linear ratio.
        let phi = 200.0;
        for b in [128u64, 256, 512, 1024] {
            let g = LrScaler::AdaScale.gain(64, b, Some(phi));
            let linear = b as f64 / 64.0;
            assert!(g >= 1.0 && g <= linear, "gain {g} for batch {b}");
        }
    }

    #[test]
    fn adascale_without_noise_caps_at_two() {
        assert_eq!(LrScaler::AdaScale.gain(64, 1024, None), 2.0);
        assert!((LrScaler::AdaScale.gain(64, 96, None) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sqrt_and_linear_rules() {
        assert!((LrScaler::SquareRoot.gain(64, 256, None) - 2.0).abs() < 1e-12);
        assert!((LrScaler::Linear.gain(64, 256, None) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_lr_multiplies_base() {
        let lr = LrScaler::SquareRoot.scaled_lr(0.1, 64, 256, None);
        assert!((lr - 0.2).abs() < 1e-12);
    }

    #[test]
    fn downscaling_reduces_lr() {
        // Shrinking the batch below B₀ lowers the learning rate for every rule.
        for scaler in [LrScaler::AdaScale, LrScaler::SquareRoot, LrScaler::Linear] {
            assert!(scaler.gain(64, 32, Some(100.0)) < 1.0, "{scaler:?}");
        }
    }
}

//! Metric-vs-progress curves.
//!
//! The simulator measures *time*; statistical progress is measured in
//! effective epochs (samples weighted by statistical efficiency). The
//! remaining link to the paper's figures is a map from progress to the
//! task metric. A single saturating-exponential family covers all five
//! workloads — rising metrics (accuracy, F1, hit rate) and falling ones
//! (word error rate) alike — and is calibrated per workload to the
//! published epochs-to-target.

/// `value(t) = limit + (start − limit)·exp(−rate·t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturatingCurve {
    /// Metric value at zero progress.
    pub start: f64,
    /// Asymptotic metric value.
    pub limit: f64,
    /// Exponential approach rate per effective epoch.
    pub rate: f64,
}

impl SaturatingCurve {
    /// Create a curve.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0` or `start == limit`.
    pub fn new(start: f64, limit: f64, rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!(start != limit, "start and limit must differ");
        SaturatingCurve { start, limit, rate }
    }

    /// Metric value after `effective_epochs` of progress.
    pub fn value_at(&self, effective_epochs: f64) -> f64 {
        self.limit + (self.start - self.limit) * (-self.rate * effective_epochs.max(0.0)).exp()
    }

    /// Progress needed to reach `target`, or `None` if the target lies
    /// outside `(start, limit)` (unreachable or already surpassed).
    pub fn progress_to(&self, target: f64) -> Option<f64> {
        let num = self.start - self.limit;
        let den = target - self.limit;
        // target strictly between start and limit ⇔ den has the same sign
        // as num and |den| < |num|.
        if den == 0.0 || num.signum() != den.signum() || den.abs() >= num.abs() {
            return None;
        }
        Some((num / den).ln() / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_curve_roundtrip() {
        let c = SaturatingCurve::new(0.3, 0.95, 0.05);
        assert!((c.value_at(0.0) - 0.3).abs() < 1e-12);
        assert!(c.value_at(1e9) > 0.9499);
        let t = c.progress_to(0.9).unwrap();
        assert!((c.value_at(t) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn falling_curve_roundtrip() {
        // WER-style: starts at 1.0, saturates at 0.25.
        let c = SaturatingCurve::new(1.0, 0.25, 0.06);
        let t = c.progress_to(0.40).unwrap();
        assert!((c.value_at(t) - 0.40).abs() < 1e-12);
        assert!(c.value_at(t + 1.0) < 0.40, "metric keeps falling");
    }

    #[test]
    fn unreachable_targets() {
        let c = SaturatingCurve::new(0.3, 0.95, 0.05);
        assert!(c.progress_to(0.96).is_none(), "beyond the limit");
        assert!(c.progress_to(0.2).is_none(), "behind the start");
        assert!(c.progress_to(0.95).is_none(), "exactly the limit");
    }

    #[test]
    fn monotone_in_progress() {
        let c = SaturatingCurve::new(0.1, 0.8, 0.1);
        let mut prev = c.value_at(0.0);
        for i in 1..50 {
            let v = c.value_at(i as f64);
            assert!(v > prev);
            prev = v;
        }
    }
}

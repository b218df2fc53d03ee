//! Gradient noise scale in heterogeneous clusters (§4.4, Theorem 4.1).
//!
//! The gradient noise scale `B_noise = tr(Σ)/|G|²` predicts the largest
//! statistically efficient batch size. Estimating it needs estimates of
//! `|G|²` (squared norm of the true gradient) and `tr(Σ)` (total gradient
//! variance). Homogeneous systems build those from per-node gradients with
//! *equal* local batches; Cannikin's contribution is the heterogeneous
//! case, where local batches differ:
//!
//! 1. every node forms the unbiased local estimates of Eq. (10):
//!    `𝒢ᵢ = (B·|g|² − bᵢ·|gᵢ|²)/(B − bᵢ)` and
//!    `𝒮ᵢ = (bᵢB/(B − bᵢ))·(|gᵢ|² − |g|²)`;
//! 2. the cluster combines them with the minimum-variance unbiased weights
//!    of Theorem 4.1, `w = 𝟙ᵀA⁻¹ / 𝟙ᵀA⁻¹𝟙`, where `A` is the (scaled)
//!    covariance matrix of the estimators — both the variances *and* the
//!    cross-node correlations induced by the shared `|g|²` term;
//! 3. `B_noise = 𝒮/𝒢`, smoothed over batches with the usual EMA.
//!
//! The naive alternative (plain averaging of `𝒢ᵢ`/`𝒮ᵢ`) is also provided;
//! §5.3 of the paper quantifies how much worse it is.

mod efficiency;
mod estimators;
mod weighting;

pub use efficiency::{epoch_progress, goodput, statistical_efficiency};
pub use estimators::{local_estimates, GnsEstimate, GradientSample, LocalEstimates};
pub use weighting::{optimal_weights, WeightKind};

use crate::error::CannikinError;
use cannikin_telemetry::{self as telemetry, Event as TelemetryEvent};

/// Aggregation strategy for the per-node estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Theorem 4.1 minimum-variance weights (Cannikin).
    MinimumVariance,
    /// Plain averaging (the homogeneous-cluster baseline; biased toward
    /// high-variance small-batch nodes in heterogeneous clusters).
    NaiveMean,
}

/// Compute the cluster-wide GNS estimate for one batch.
///
/// `samples` carries each node's local batch size and squared gradient
/// norm; `global_sq_norm` is `|g|²` of the Eq. (9)-aggregated global
/// gradient.
///
/// # Errors
///
/// Returns an error when fewer than two nodes report, any `bᵢ ≥ B`, or the
/// Theorem 4.1 system is singular.
pub fn estimate_gns(
    samples: &[GradientSample],
    global_sq_norm: f64,
    aggregation: Aggregation,
) -> Result<GnsEstimate, CannikinError> {
    let locals = local_estimates(samples, global_sq_norm)?;
    let n = samples.len();
    let (wg, ws) = match aggregation {
        Aggregation::MinimumVariance => {
            let b: Vec<f64> = samples.iter().map(|s| s.local_batch as f64).collect();
            let total: f64 = b.iter().sum();
            (
                optimal_weights(&b, total, WeightKind::GradNorm)?,
                optimal_weights(&b, total, WeightKind::Variance)?,
            )
        }
        Aggregation::NaiveMean => (vec![1.0 / n as f64; n], vec![1.0 / n as f64; n]),
    };
    let grad_sq: f64 = locals.iter().zip(&wg).map(|(l, w)| w * l.g).sum();
    let trace: f64 = locals.iter().zip(&ws).map(|(l, w)| w * l.s).sum();
    if telemetry::enabled() {
        telemetry::emit(TelemetryEvent::GnsEstimated(cannikin_telemetry::GnsEstimated {
            b_noise: if grad_sq > 0.0 { trace / grad_sq } else { f64::NAN },
            grad_sq,
            variance: trace,
            weights: ws,
        }));
    }
    Ok(GnsEstimate { grad_sq, trace })
}

/// Exponential-moving-average smoother for the GNS ratio.
///
/// Following McCandlish et al. (and AdaptDL), the numerator and
/// denominator are smoothed *separately* before taking the ratio — the
/// ratio of EMAs is far less biased than an EMA of ratios.
#[derive(Debug, Clone)]
pub struct GnsTracker {
    decay: f64,
    grad_sq: f64,
    trace: f64,
    initialized: bool,
}

impl GnsTracker {
    /// Create a tracker with the given EMA decay (e.g. `0.9`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= decay < 1`.
    pub fn new(decay: f64) -> Self {
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1)");
        GnsTracker { decay, grad_sq: 0.0, trace: 0.0, initialized: false }
    }

    /// Fold in one batch's estimate.
    pub fn observe(&mut self, estimate: GnsEstimate) {
        if self.initialized {
            self.grad_sq = self.decay * self.grad_sq + (1.0 - self.decay) * estimate.grad_sq;
            self.trace = self.decay * self.trace + (1.0 - self.decay) * estimate.trace;
        } else {
            self.grad_sq = estimate.grad_sq;
            self.trace = estimate.trace;
            self.initialized = true;
        }
    }

    /// Smoothed `B_noise = tr(Σ)/|G|²`, or `None` before the first
    /// observation or while the smoothed `|G|²` is non-positive (which can
    /// happen transiently: the unbiased estimator can go negative on noisy
    /// batches).
    pub fn noise_scale(&self) -> Option<f64> {
        if !self.initialized || self.grad_sq <= 0.0 || self.trace <= 0.0 {
            return None;
        }
        Some(self.trace / self.grad_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(b: u64, sq: f64) -> GradientSample {
        GradientSample { local_batch: b, local_sq_norm: sq }
    }

    #[test]
    fn equal_batches_reduce_to_plain_average() {
        // With equal local batches the minimum-variance weights collapse
        // to 1/n, so both aggregations agree.
        let samples = vec![sample(16, 2.0), sample(16, 2.4), sample(16, 1.8)];
        let mv = estimate_gns(&samples, 1.9, Aggregation::MinimumVariance).unwrap();
        let naive = estimate_gns(&samples, 1.9, Aggregation::NaiveMean).unwrap();
        assert!((mv.grad_sq - naive.grad_sq).abs() < 1e-9);
        assert!((mv.trace - naive.trace).abs() < 1e-9);
    }

    #[test]
    fn tracker_smooths_and_ratios() {
        let mut t = GnsTracker::new(0.5);
        assert!(t.noise_scale().is_none());
        t.observe(GnsEstimate { grad_sq: 1.0, trace: 10.0 });
        assert!((t.noise_scale().unwrap() - 10.0).abs() < 1e-12);
        t.observe(GnsEstimate { grad_sq: 3.0, trace: 10.0 });
        // grad_sq EMA: 0.5·1 + 0.5·3 = 2; trace stays 10 → ratio 5.
        assert!((t.noise_scale().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_hides_negative_transients() {
        let mut t = GnsTracker::new(0.0);
        t.observe(GnsEstimate { grad_sq: -0.5, trace: 4.0 });
        assert!(t.noise_scale().is_none());
        t.observe(GnsEstimate { grad_sq: 2.0, trace: 4.0 });
        assert_eq!(t.noise_scale(), Some(2.0));
    }

    #[test]
    fn single_node_rejected() {
        let err = estimate_gns(&[sample(8, 1.0)], 1.0, Aggregation::MinimumVariance);
        assert!(err.is_err());
    }
}

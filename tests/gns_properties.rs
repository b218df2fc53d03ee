//! Property-based tests for the heterogeneous gradient-noise-scale
//! machinery (Eq. 10, Theorem 4.1) and the goodput model.

use cannikin::core::gns::{
    estimate_gns, local_estimates, optimal_weights, statistical_efficiency, Aggregation,
    GradientSample, WeightKind,
};
use propcheck::{check, Gen};

const CASES: usize = 256;

fn batch_vector(g: &mut Gen) -> Vec<u64> {
    g.vec(2..10, |g| g.u64(1..64))
}

/// Exactness identity: if every node's |gᵢ|² sits exactly at its
/// expectation |G|² + tr(Σ)/bᵢ (and |g|² likewise), the Eq. (10)
/// estimators recover |G|² and tr(Σ) *exactly*, for any batch profile.
#[test]
fn estimators_invert_expectations_exactly() {
    check(CASES, |g| {
        let batches = batch_vector(g);
        let g_sq = g.f64(0.01..100.0);
        let trace = g.f64(0.01..1000.0);
        let total: u64 = batches.iter().sum();
        if !batches.iter().all(|&b| b < total) {
            return;
        }
        let samples: Vec<GradientSample> = batches
            .iter()
            .map(|&b| GradientSample { local_batch: b, local_sq_norm: g_sq + trace / b as f64 })
            .collect();
        let global = g_sq + trace / total as f64;
        let locals = local_estimates(&samples, global).expect("valid");
        for l in &locals {
            assert!((l.g - g_sq).abs() < 1e-6 * g_sq.max(1.0), "g {} vs {}", l.g, g_sq);
            assert!((l.s - trace).abs() < 1e-6 * trace.max(1.0), "s {} vs {}", l.s, trace);
        }
        // Any convex combination therefore recovers the exact noise scale.
        for aggregation in [Aggregation::MinimumVariance, Aggregation::NaiveMean] {
            let est = estimate_gns(&samples, global, aggregation).expect("estimate");
            let phi = est.noise_scale().expect("positive");
            assert!((phi - trace / g_sq).abs() < 1e-5 * (trace / g_sq), "{aggregation:?}");
        }
    });
}

/// Theorem 4.1 weights always form a convex-combination weight vector
/// (sum 1) and are permutation-equivariant.
#[test]
fn weights_sum_to_one_and_are_equivariant() {
    check(CASES, |g| {
        let batches = batch_vector(g);
        let total: u64 = batches.iter().sum();
        if !batches.iter().all(|&b| b < total) {
            return;
        }
        let b: Vec<f64> = batches.iter().map(|&x| x as f64).collect();
        for kind in [WeightKind::GradNorm, WeightKind::Variance] {
            let w = optimal_weights(&b, total as f64, kind).expect("weights");
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Reverse the node order: weights must reverse with it.
            let mut rb = b.clone();
            rb.reverse();
            let mut rw = optimal_weights(&rb, total as f64, kind).expect("weights");
            rw.reverse();
            for (a, c) in w.iter().zip(&rw) {
                assert!((a - c).abs() < 1e-9);
            }
        }
    });
}

/// Statistical efficiency is 1 at B₀, monotone decreasing in B, and
/// monotone increasing in φ (for B > B₀).
#[test]
fn efficiency_monotonicity() {
    check(CASES, |g| {
        let phi = g.f64(1.0..1e5);
        let b0 = g.u64(1..512);
        let mult = g.u64(2..64);
        let b = b0 * mult;
        assert!((statistical_efficiency(phi, b0, b0) - 1.0).abs() < 1e-12);
        let e1 = statistical_efficiency(phi, b0, b);
        let e2 = statistical_efficiency(phi, b0, b * 2);
        assert!(e2 < e1 && e1 < 1.0);
        let noisier = statistical_efficiency(phi * 4.0, b0, b);
        assert!(noisier > e1);
    });
}

/// Monte-Carlo variance comparison: the Theorem 4.1 combination never has
/// materially larger spread than naive averaging, and is strictly better
/// for strongly skewed batch profiles.
#[test]
fn minimum_variance_beats_naive_on_skewed_batches() {
    use cannikin::dnn::rng;
    let dim = 64usize;
    let g_true: Vec<f64> = (0..dim).map(|i| 0.1 * ((i as f64).sin() + 0.3)).collect();
    let sigma2 = 0.05f64;
    let batches = [2u64, 3, 59]; // heavily skewed
    let total: u64 = batches.iter().sum();
    let mut r = rng::seeded(2024);
    let trials = 4000;
    let mut sums = [0.0f64; 2];
    let mut sq = [0.0f64; 2];
    let mut counts = [0usize; 2];
    for _ in 0..trials {
        let mut global = vec![0.0f64; dim];
        let mut locals = Vec::new();
        for &b in &batches {
            let gi: Vec<f64> = g_true
                .iter()
                .map(|&g| g + f64::from(rng::normal(&mut r)) * (sigma2 / b as f64).sqrt())
                .collect();
            for (acc, v) in global.iter_mut().zip(&gi) {
                *acc += b as f64 / total as f64 * v;
            }
            locals.push(gi);
        }
        let global_sq: f64 = global.iter().map(|v| v * v).sum();
        let samples: Vec<GradientSample> = batches
            .iter()
            .zip(&locals)
            .map(|(&b, gi)| GradientSample { local_batch: b, local_sq_norm: gi.iter().map(|v| v * v).sum() })
            .collect();
        for (idx, agg) in [Aggregation::MinimumVariance, Aggregation::NaiveMean].into_iter().enumerate() {
            let est = estimate_gns(&samples, global_sq, agg).expect("estimate");
            sums[idx] += est.trace;
            sq[idx] += est.trace * est.trace;
            counts[idx] += 1;
        }
    }
    let var = |idx: usize| {
        let mean = sums[idx] / counts[idx] as f64;
        sq[idx] / counts[idx] as f64 - mean * mean
    };
    let (mv, naive) = (var(0), var(1));
    assert!(mv < naive, "minimum-variance {mv} should beat naive {naive}");
    // Both stay unbiased for tr(Σ) = dim·σ².
    let truth = dim as f64 * sigma2;
    for idx in 0..2 {
        let mean = sums[idx] / counts[idx] as f64;
        assert!((mean / truth - 1.0).abs() < 0.05, "agg {idx} mean {mean} vs {truth}");
    }
}

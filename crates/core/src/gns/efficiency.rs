//! Statistical efficiency and goodput (§2.1, §4.1).

/// Statistical efficiency of training at global batch `batch` relative to
/// the reference batch `base_batch`, given gradient noise scale φ:
///
/// ```text
/// η(B) = (B₀ + φ) / (B + φ)
/// ```
///
/// This is the McCandlish et al. examples-to-target ratio: reaching a
/// fixed loss needs `∝ B + φ` examples at batch `B`, so each sample at
/// batch `B` is worth `η(B)` samples at batch `B₀`. `η > 1` for `B < B₀`
/// and `η → φ/(B+φ) · …` decays toward 0 as `B` grows far beyond the noise
/// scale — exactly the diminishing returns adaptive batch sizing exploits.
///
/// # Panics
///
/// Panics if any argument is non-positive.
pub fn statistical_efficiency(noise_scale: f64, base_batch: u64, batch: u64) -> f64 {
    assert!(noise_scale > 0.0, "noise scale must be positive");
    assert!(base_batch > 0 && batch > 0, "batch sizes must be positive");
    (base_batch as f64 + noise_scale) / (batch as f64 + noise_scale)
}

/// Goodput (Pollux): throughput × statistical efficiency, in
/// *reference-batch-equivalent* samples per second.
///
/// `batch_time` is the (predicted or measured) wall time of one batch of
/// `batch` samples.
///
/// # Panics
///
/// Panics if `batch_time` is non-positive or the efficiency arguments are
/// invalid.
pub fn goodput(noise_scale: f64, base_batch: u64, batch: u64, batch_time: f64) -> f64 {
    assert!(batch_time > 0.0, "batch time must be positive");
    let throughput = batch as f64 / batch_time;
    throughput * statistical_efficiency(noise_scale, base_batch, batch)
}

/// Statistical progress of one epoch, in effective epochs: `steps`
/// batches of `batch` samples, each sample worth `efficiency` reference
/// samples, over a dataset of `dataset_size` samples — `steps·B·η/|D|`.
pub fn epoch_progress(steps: usize, batch: u64, efficiency: f64, dataset_size: usize) -> f64 {
    steps as f64 * batch as f64 * efficiency / dataset_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_one_at_base() {
        assert!((statistical_efficiency(100.0, 64, 64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_decreases_with_batch() {
        let e1 = statistical_efficiency(100.0, 64, 128);
        let e2 = statistical_efficiency(100.0, 64, 1024);
        assert!(e1 < 1.0 && e2 < e1);
    }

    #[test]
    fn high_noise_tolerates_large_batches() {
        // With huge noise, large batches barely lose efficiency.
        let noisy = statistical_efficiency(1e6, 64, 4096);
        let quiet = statistical_efficiency(10.0, 64, 4096);
        assert!(noisy > 0.99);
        assert!(quiet < 0.05);
    }

    #[test]
    fn goodput_balances_throughput_and_efficiency() {
        // Perfect linear scaling of throughput: doubling B halves the batch
        // time contribution per sample. With low noise, goodput should NOT
        // keep improving with batch size.
        let phi = 1000.0;
        let t = |b: u64| 0.1 + b as f64 * 0.001; // linear batch time
        let g_small = goodput(phi, 64, 64, t(64));
        let g_mid = goodput(phi, 64, 256, t(256));
        let g_huge = goodput(phi, 64, 16384, t(16384));
        assert!(g_mid > g_small, "mid {g_mid} vs small {g_small}");
        assert!(g_huge < g_mid, "huge {g_huge} vs mid {g_mid}");
    }

    #[test]
    fn goodput_optimum_tracks_noise_scale() {
        // The goodput-maximizing batch size grows with φ.
        let t = |b: u64| 0.1 + b as f64 * 0.001;
        let argmax = |phi: f64| {
            (1u64..200)
                .map(|i| i * 32)
                .max_by(|&a, &b| goodput(phi, 64, a, t(a)).total_cmp(&goodput(phi, 64, b, t(b))))
                .unwrap()
        };
        let low = argmax(50.0);
        let high = argmax(2000.0);
        assert!(high > low, "low-noise argmax {low}, high-noise argmax {high}");
    }
}

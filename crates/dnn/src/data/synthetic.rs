//! Deterministic synthetic dataset generators.

use super::ClassificationDataset;
use crate::rng;
use crate::tensor::Tensor;

/// Gaussian-blob classification: `classes` well-separated clusters in
/// `dim`-dimensional space. Stands in for the dense-feature workloads.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn gaussian_blobs(n: usize, classes: usize, dim: usize, seed: u64) -> ClassificationDataset {
    assert!(n > 0 && classes > 0 && dim > 0, "dataset dimensions must be positive");
    let mut r = rng::seeded(seed);
    // Random unit-ish centers scaled apart so classes are learnable.
    let centers: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..dim).map(|_| 3.0 * rng::normal(&mut r)).collect())
        .collect();
    let mut data = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        labels.push(c);
        for d in 0..dim {
            data.push(centers[c][d] + rng::normal(&mut r));
        }
    }
    let features = Tensor::from_vec(data, &[n, dim]).expect("blob shape");
    ClassificationDataset::new(features, labels, classes)
}

/// Image-shaped Gaussian blobs `[n, channels, side, side]` — a CIFAR-like
/// stand-in for the CNN training path.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn gaussian_blob_images(n: usize, classes: usize, channels: usize, side: usize, seed: u64) -> ClassificationDataset {
    let flat = gaussian_blobs(n, classes, channels * side * side, seed);
    let labels = flat.labels().to_vec();
    let (features, _) = flat.batch(&(0..n).collect::<Vec<_>>());
    let features = features.reshape(&[n, channels, side, side]);
    ClassificationDataset::new(features, labels, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_learnable_by_nearest_center() {
        // Estimate class centers from data and check most points are
        // closest to their own center — i.e. the generated task is solvable.
        let dim = 6;
        let classes = 4;
        let ds = gaussian_blobs(400, classes, dim, 5);
        let (x, y) = ds.batch(&(0..400).collect::<Vec<_>>());
        let mut centers = vec![vec![0.0f32; dim]; classes];
        let mut counts = vec![0usize; classes];
        for i in 0..400 {
            counts[y[i]] += 1;
            for d in 0..dim {
                centers[y[i]][d] += x.data()[i * dim + d];
            }
        }
        for (c, count) in centers.iter_mut().zip(&counts) {
            for v in c.iter_mut() {
                *v /= *count as f32;
            }
        }
        let mut correct = 0;
        for i in 0..400 {
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (k, c) in centers.iter().enumerate() {
                let d: f32 = (0..dim).map(|d| (x.data()[i * dim + d] - c[d]).powi(2)).sum();
                if d < best_d {
                    best_d = d;
                    best = k;
                }
            }
            if best == y[i] {
                correct += 1;
            }
        }
        assert!(correct > 360, "only {correct}/400 nearest-center correct");
    }

    #[test]
    fn blob_images_have_image_shape() {
        let ds = gaussian_blob_images(10, 2, 3, 8, 6);
        assert_eq!(ds.sample_shape(), &[3, 8, 8]);
        let (x, _) = ds.batch(&[0, 1]);
        assert_eq!(x.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = gaussian_blobs(30, 3, 5, 9);
        let b = gaussian_blobs(30, 3, 5, 9);
        assert_eq!(a.batch(&[3]).0, b.batch(&[3]).0);
    }
}

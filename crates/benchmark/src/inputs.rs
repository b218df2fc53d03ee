//! Seeded input generation. Everything a workload feeds the program is
//! made here from `--seed`; the program receives only the generated
//! values.

use cannikin::dnn::data::ClassificationDataset;
use cannikin::dnn::Tensor;
use cannikin::prelude::{Gpu, NodeSpec};

/// splitmix64: small, seedable, and independent of the `rand` stand-in
/// the library is built against.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let (u1, u2) = (1.0 - self.unit(), self.unit());
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }
}

/// `n` samples of `classes` Gaussian blobs in `dim` dimensions whose
/// centres are `separation`·N(0,1) per coordinate, labels round-robin.
///
/// This is `minidnn::data::gaussian_blobs` with the centre scale exposed.
/// The library's fixed scale of 3.0 makes the classes separable by
/// ~48σ at 128 dimensions: the loss reaches exactly 0 within two epochs
/// and every later gradient GEMM runs on denormal floats, which is 2–3×
/// slower and depends on the learning rate. At 0.25 the classes overlap,
/// the loss stays O(0.1) for the whole run and step time is stationary.
pub fn blobs(n: usize, classes: usize, dim: usize, separation: f32, seed: u64) -> ClassificationDataset {
    let mut rng = SplitMix::new(seed);
    let centres: Vec<f32> = (0..classes * dim).map(|_| separation * rng.normal()).collect();
    let mut features = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        labels.push(class);
        features.extend((0..dim).map(|d| centres[class * dim + d] + rng.normal()));
    }
    let features = Tensor::from_vec(features, &[n, dim]).expect("n*dim values were generated");
    ClassificationDataset::new(features, labels, classes)
}

/// The fleet's shared pool: 2×A100 + 2×V100 + 4×RTX6000, the mixed
/// cluster shape `BENCH_fleet.json` is measured on.
pub fn fleet_pool() -> Vec<NodeSpec> {
    [(Gpu::A100, 2), (Gpu::V100, 2), (Gpu::Rtx6000, 4)]
        .into_iter()
        .flat_map(|(gpu, count)| (0..count).map(move |i| NodeSpec::new(format!("{gpu}-{i}"), gpu)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (
            blobs(64, 4, 8, 0.25, 7),
            blobs(64, 4, 8, 0.25, 7),
            blobs(64, 4, 8, 0.25, 8),
        );
        let all: Vec<usize> = (0..64).collect();
        assert_eq!(a.batch(&all).0.data(), b.batch(&all).0.data());
        assert_ne!(a.batch(&all).0.data(), c.batch(&all).0.data());
        assert_eq!(a.labels()[..5], [0, 1, 2, 3, 0]);
        assert_eq!(fleet_pool().len(), 8);
    }
}

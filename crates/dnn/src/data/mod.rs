//! Synthetic datasets and batch iteration.
//!
//! The reproduction cannot ship ImageNet, LibriSpeech, SQuAD or MovieLens;
//! instead two generators produce deterministic Gaussian-blob
//! classification sets — dense features for the MLP, `[n, c, h, w]` images
//! for the CNN — so that the functional training path (real gradients,
//! real losses, real gradient-noise measurements) is exercised end to end.
//! [`EpochPlan`] deals an epoch's shuffled indices into uneven per-node
//! shards.

mod synthetic;

pub use synthetic::{gaussian_blob_images, gaussian_blobs};

use crate::rng;
use crate::tensor::Tensor;

/// An in-memory classification dataset: features plus integer labels.
#[derive(Debug, Clone)]
pub struct ClassificationDataset {
    features: Tensor,
    labels: Vec<usize>,
}

impl ClassificationDataset {
    /// Bundle features (first dimension = sample count) with labels.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the sample count or a label
    /// is `>= classes`.
    pub fn new(features: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(features.rows(), labels.len(), "feature/label count mismatch");
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        ClassificationDataset { features, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Shape of a single sample (the feature shape without the leading
    /// sample dimension).
    pub fn sample_shape(&self) -> &[usize] {
        &self.features.shape()[1..]
    }

    /// Gather a batch by sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let cols = self.features.cols();
        let mut out = Vec::with_capacity(indices.len() * cols);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "sample index {i} out of range {}", self.len());
            out.extend_from_slice(&self.features.data()[i * cols..(i + 1) * cols]);
            labels.push(self.labels[i]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(self.sample_shape());
        (Tensor::from_vec(out, &shape).expect("batch shape"), labels)
    }

    /// All labels (for accuracy computation).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

/// A shuffled epoch of sample indices, split into *uneven* per-node shards —
/// the index-level mechanism behind Cannikin's `HeteroDataLoader`.
///
/// Every sample of the epoch is assigned to exactly one node, and each
/// node's shard is chunked into its local mini-batches.
///
/// # Examples
///
/// ```
/// use minidnn::data::EpochPlan;
/// // 100 samples, nodes take local batches of 6 and 2 per step.
/// let plan = EpochPlan::new(100, &[6, 2], 7);
/// assert_eq!(plan.steps(), 100 / 8);
/// let (node0, node1) = (plan.node_batches(0), plan.node_batches(1));
/// assert_eq!(node0[0].len(), 6);
/// assert_eq!(node1[0].len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct EpochPlan {
    per_node: Vec<Vec<Vec<usize>>>,
    steps: usize,
}

impl EpochPlan {
    /// Shuffle `dataset_len` indices with `seed` and deal them out in
    /// global-batch-sized rounds, giving node `i` exactly
    /// `local_batches[i]` samples per round. Trailing samples that do not
    /// fill a complete global batch are dropped (the paper's loaders do the
    /// same).
    ///
    /// # Panics
    ///
    /// Panics if `local_batches` is empty or sums to zero.
    pub fn new(dataset_len: usize, local_batches: &[u64], seed: u64) -> Self {
        let total: u64 = local_batches.iter().sum();
        assert!(total > 0, "global batch must be positive");
        assert!(!local_batches.is_empty(), "need at least one node");
        let mut indices: Vec<usize> = (0..dataset_len).collect();
        let mut r = rng::seeded(seed);
        rng::shuffle(&mut r, &mut indices);
        let steps = dataset_len / total as usize;
        let mut per_node: Vec<Vec<Vec<usize>>> = local_batches.iter().map(|_| Vec::with_capacity(steps)).collect();
        let mut cursor = 0;
        for _ in 0..steps {
            for (node, &b) in local_batches.iter().enumerate() {
                per_node[node].push(indices[cursor..cursor + b as usize].to_vec());
                cursor += b as usize;
            }
        }
        EpochPlan { per_node, steps }
    }

    /// Like [`EpochPlan::new`], but alternating between two splits on even
    /// and odd steps. Running two local batch sizes per node *within* one
    /// epoch is how the functional trainer measures both points of each
    /// node's linear compute model under identical thermal conditions.
    ///
    /// # Panics
    ///
    /// Panics if the splits are empty, have different lengths, or either
    /// sums to zero.
    pub fn new_alternating(dataset_len: usize, split_even: &[u64], split_odd: &[u64], seed: u64) -> Self {
        assert!(!split_even.is_empty(), "need at least one node");
        assert_eq!(split_even.len(), split_odd.len(), "splits must cover the same nodes");
        let total_even: u64 = split_even.iter().sum();
        let total_odd: u64 = split_odd.iter().sum();
        assert!(total_even > 0 && total_odd > 0, "global batch must be positive");
        let mut indices: Vec<usize> = (0..dataset_len).collect();
        let mut r = rng::seeded(seed);
        rng::shuffle(&mut r, &mut indices);
        let pair = (total_even + total_odd) as usize;
        let steps = 2 * (dataset_len / pair);
        let mut per_node: Vec<Vec<Vec<usize>>> = split_even.iter().map(|_| Vec::with_capacity(steps)).collect();
        let mut cursor = 0;
        for step in 0..steps {
            let split = if step % 2 == 0 { split_even } else { split_odd };
            for (node, &b) in split.iter().enumerate() {
                per_node[node].push(indices[cursor..cursor + b as usize].to_vec());
                cursor += b as usize;
            }
        }
        EpochPlan { per_node, steps }
    }

    /// Number of global steps in the epoch.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The sequence of local mini-batches for one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_batches(&self, node: usize) -> &[Vec<usize>] {
        &self.per_node[node]
    }

    /// Number of nodes the plan covers.
    pub fn nodes(&self) -> usize {
        self.per_node.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_gathers_rows() {
        let ds = gaussian_blobs(20, 3, 4, 1);
        let (x, y) = ds.batch(&[0, 5, 19]);
        assert_eq!(x.shape(), &[3, 4]);
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn epoch_plan_partitions_without_overlap() {
        let plan = EpochPlan::new(64, &[3, 5], 9);
        assert_eq!(plan.steps(), 8);
        let mut seen = std::collections::HashSet::new();
        for node in 0..plan.nodes() {
            for batch in plan.node_batches(node) {
                for &idx in batch {
                    assert!(seen.insert(idx), "index {idx} assigned twice");
                }
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn epoch_plan_respects_local_sizes() {
        let plan = EpochPlan::new(100, &[7, 2, 1], 3);
        for (node, &b) in [7usize, 2, 1].iter().enumerate() {
            for batch in plan.node_batches(node) {
                assert_eq!(batch.len(), b);
            }
        }
    }

    #[test]
    fn epoch_plan_is_deterministic() {
        let a = EpochPlan::new(50, &[4, 4], 11);
        let b = EpochPlan::new(50, &[4, 4], 11);
        assert_eq!(a.node_batches(0), b.node_batches(0));
        let c = EpochPlan::new(50, &[4, 4], 12);
        assert_ne!(a.node_batches(0), c.node_batches(0));
    }

    #[test]
    #[should_panic(expected = "global batch")]
    fn epoch_plan_rejects_zero_batch() {
        let _ = EpochPlan::new(10, &[0, 0], 1);
    }
}

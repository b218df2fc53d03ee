//! Loss functions.
//!
//! Each loss returns `(mean loss, gradient w.r.t. the input)` where the
//! gradient is already divided by the batch size, matching the PyTorch
//! `reduction="mean"` convention that the paper's training loops use. This
//! matters for Cannikin: Eq. (1) of the paper defines the local gradient as
//! the *mean* over the local mini batch, and the weighted aggregation of
//! Eq. (9) relies on that normalization.

use crate::tensor::Tensor;

/// A differentiable loss over a batch.
pub trait Loss<Target: ?Sized> {
    /// Compute the mean loss and the gradient w.r.t. `input`.
    fn loss(&self, input: &Tensor, target: &Target) -> (f32, Tensor);
}

/// Softmax + cross-entropy over integer class labels.
///
/// # Examples
///
/// ```
/// use minidnn::loss::{Loss, SoftmaxCrossEntropy};
/// use minidnn::tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 0.0, 3.0, 0.0], &[2, 3]).unwrap();
/// let (loss, grad) = SoftmaxCrossEntropy::default().loss(&logits, &[0usize, 1]);
/// assert!(loss > 0.0);
/// assert_eq!(grad.shape(), &[2, 3]);
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct SoftmaxCrossEntropy;

impl Loss<[usize]> for SoftmaxCrossEntropy {
    /// # Panics
    ///
    /// Panics if `target.len() != input.rows()` or a label is out of range.
    fn loss(&self, input: &Tensor, target: &[usize]) -> (f32, Tensor) {
        let (rows, cols) = (input.rows(), input.cols());
        assert_eq!(target.len(), rows, "label count {} != batch {rows}", target.len());
        let mut grad = Tensor::zeros(&[rows, cols]);
        let mut total = 0.0f64;
        for i in 0..rows {
            let row = &input.data()[i * cols..(i + 1) * cols];
            let label = target[i];
            assert!(label < cols, "label {label} out of range {cols}");
            // Numerically stable log-softmax.
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let sum_exp: f32 = row.iter().map(|&v| (v - max).exp()).sum();
            let log_z = f64::from(max) + f64::from(sum_exp.ln());
            total += log_z - f64::from(row[label]);
            for j in 0..cols {
                let softmax = ((row[j] - max).exp()) / sum_exp;
                grad.data_mut()[i * cols + j] = (softmax - if j == label { 1.0 } else { 0.0 }) / rows as f32;
            }
        }
        ((total / rows as f64) as f32, grad)
    }
}

/// Mean squared error against a target tensor of identical shape.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mse;

impl Loss<Tensor> for Mse {
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn loss(&self, input: &Tensor, target: &Tensor) -> (f32, Tensor) {
        assert_eq!(input.shape(), target.shape(), "mse shape mismatch");
        let n = input.len() as f32;
        let diff = input.sub(target);
        let loss = (diff.sq_l2() / f64::from(n)) as f32;
        let grad = diff.scale(2.0 / n);
        (loss, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits() {
        // Uniform logits over k classes give loss = ln(k).
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, grad) = SoftmaxCrossEntropy.loss(&logits, &[0, 1, 2, 3]);
        assert!((loss - 10f32.ln()).abs() < 1e-5);
        // Gradient sums to zero per row (softmax sums to 1, one-hot sums to 1).
        for i in 0..4 {
            let row_sum: f32 = grad.data()[i * 10..(i + 1) * 10].iter().sum();
            assert!(row_sum.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.data_mut()[0] = 20.0;
        let (loss, _) = SoftmaxCrossEntropy.loss(&logits, &[0]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let logits = Tensor::randn(&[3, 4], 51);
        let labels = [1usize, 3, 0];
        let (_, grad) = SoftmaxCrossEntropy.loss(&logits, &labels);
        let eps = 1e-2f32;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let numeric = (SoftmaxCrossEntropy.loss(&lp, &labels).0 - SoftmaxCrossEntropy.loss(&lm, &labels).0) / (2.0 * eps);
            assert!((numeric - grad.data()[idx]).abs() < 1e-3, "idx {idx}");
        }
    }

    #[test]
    fn mse_known_value_and_gradcheck() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let t = Tensor::from_slice(&[0.0, 0.0]);
        let (loss, grad) = Mse.loss(&x, &t);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
    }
}

//! The two models the functional trainer trains: an MLP (three near-equal
//! `Linear` buckets) and a small CNN (two small conv buckets, parameterless
//! layers between them, a linear head) — the second being the shape with
//! strongly uneven per-layer gradient buckets that the overlapped step is
//! measured against.

use crate::layers::{AvgPool2d, Conv2d, Layer, Linear, Relu, Sequential};
use crate::tensor::Tensor;

/// Build a multi-layer perceptron classifier: `dim → hidden → hidden → classes`.
///
/// # Examples
///
/// ```
/// use minidnn::layers::Layer;
/// use minidnn::models::mlp_classifier;
/// use minidnn::tensor::Tensor;
///
/// let mut net = mlp_classifier(10, 32, 4, 1);
/// let y = net.forward(&Tensor::randn(&[2, 10], 2), true);
/// assert_eq!(y.shape(), &[2, 4]);
/// ```
pub fn mlp_classifier(dim: usize, hidden: usize, classes: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(dim, hidden, seed))
        .push(Relu::new())
        .push(Linear::new(hidden, hidden, seed.wrapping_add(1)))
        .push(Relu::new())
        .push(Linear::new(hidden, classes, seed.wrapping_add(2)))
}

/// Build a small CNN for `[batch, channels, side, side]` images: two conv
/// blocks, global average pooling and a linear head. A miniature stand-in
/// for ResNet-18 in the functional tests; every piece of its state is a
/// parameter, so replicas rebuilt from a checkpoint are bitwise equal.
pub fn mini_cnn(channels: usize, side: usize, classes: usize, seed: u64) -> Sequential {
    let _ = side; // architecture is size-agnostic thanks to global pooling
    Sequential::new()
        .push(Conv2d::new(channels, 8, 3, 1, 1, seed))
        .push(Relu::new())
        .push(Conv2d::new(8, 16, 3, 2, 1, seed.wrapping_add(1)))
        .push(Relu::new())
        .push(AvgPool2d::new())
        .push(Linear::new(16, classes, seed.wrapping_add(2)))
}

/// Classification accuracy of a model over a feature/label batch.
pub fn accuracy(model: &mut dyn Layer, x: &Tensor, labels: &[usize]) -> f64 {
    let logits = model.forward(x, false);
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::gaussian_blobs;
    use crate::layers::zero_grads;
    use crate::loss::{Loss, SoftmaxCrossEntropy};
    use crate::optim::{Optimizer, Sgd};

    #[test]
    fn mlp_learns_blobs() {
        let ds = gaussian_blobs(256, 4, 8, 1);
        let mut net = mlp_classifier(8, 32, 4, 2);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        let idx: Vec<usize> = (0..256).collect();
        let (x, y) = ds.batch(&idx);
        for _ in 0..60 {
            zero_grads(&mut net.parameters_mut());
            let logits = net.forward(&x, true);
            let (_, grad) = SoftmaxCrossEntropy.loss(&logits, &y);
            net.backward(&grad);
            opt.step(&mut net.parameters_mut());
        }
        let acc = accuracy(&mut net, &x, &y);
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn cnn_shapes_and_one_step() {
        let mut net = mini_cnn(3, 8, 5, 3);
        let x = Tensor::randn(&[4, 3, 8, 8], 4);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[4, 5]);
        let (_, grad) = SoftmaxCrossEntropy.loss(&y, &[0, 1, 2, 3]);
        net.backward(&grad);
        let mut opt = Sgd::new(0.01);
        opt.step(&mut net.parameters_mut());
    }
}

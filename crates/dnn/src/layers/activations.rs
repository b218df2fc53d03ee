//! The elementwise activation layer.

use super::{Grads, Layer};
use crate::tensor::Tensor;

/// Rectified linear unit: `max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    input: Option<Tensor>,
}

impl Relu {
    /// Create the activation layer.
    pub fn new() -> Self {
        Self { input: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.input = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backward_to(&mut self, grad_out: &Tensor, _: Grads<'_>) -> Tensor {
        let x = self.input.as_ref().expect("backward called before forward");
        grad_out.mul(&x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }))
    }

    fn replicate(&self) -> Box<dyn Layer> {
        Box::new(Relu::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_gradcheck() {
        let mut layer = Relu::new();
        let x = Tensor::randn(&[3, 4], 21).scale(2.0);
        let y = layer.forward(&x, true);
        let gx = layer.backward(&Tensor::ones(y.shape()));
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let n = (layer.forward(&xp, true).sum() - layer.forward(&xm, true).sum()) / (2.0 * eps);
            // The kink at zero makes finite differences noisy.
            assert!((n - gx.data()[idx]).abs() < 5e-2, "idx {idx}: numeric {n} vs analytic {}", gx.data()[idx]);
        }
    }

    #[test]
    fn relu_known_values() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]), true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }
}

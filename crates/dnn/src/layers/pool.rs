//! Global average pooling.

use super::{Layer, Param};
use crate::tensor::Tensor;

/// Average pooling over the full spatial extent (global average pool),
/// producing `[batch, c]`.
#[derive(Debug, Default)]
pub struct AvgPool2d {
    in_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Create a global average-pooling layer.
    pub fn new() -> Self {
        AvgPool2d { in_shape: None }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "pool input must be [batch, c, h, w]");
        let (batch, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let spatial = (h * w) as f32;
        let mut out = Vec::with_capacity(batch * c);
        for bc in 0..batch * c {
            out.push(x.data()[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() / spatial);
        }
        self.in_shape = Some(shape.to_vec());
        Tensor::from_vec(out, &[batch, c]).expect("avgpool output shape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.in_shape.as_ref().expect("backward called before forward");
        let (batch, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(grad_out.len(), batch * c, "avgpool backward shape mismatch");
        let spatial = (h * w) as f32;
        let mut dx = Vec::with_capacity(batch * c * h * w);
        for &g in grad_out.data() {
            for _ in 0..h * w {
                dx.push(g / spatial);
            }
        }
        Tensor::from_vec(dx, shape).expect("avgpool dx shape")
    }

    fn parameters(&self) -> Vec<&Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avgpool_forward_backward() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let mut pool = AvgPool2d::new();
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1]);
        assert_eq!(y.data(), &[2.5]);
        let dx = pool.backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap());
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }
}

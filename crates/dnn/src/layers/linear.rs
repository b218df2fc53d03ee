//! Fully-connected layer.

use super::{add_or_store, Grads, Layer, Param};
use crate::tensor::{gemm_a_bt, gemm_at_b, matmul, Tensor};

/// A fully-connected layer: `y = x W + b`, `x: [batch, in]`,
/// `W: [in, out]`, `b: [out]`.
///
/// # Examples
///
/// ```
/// use minidnn::layers::{Layer, Linear};
/// use minidnn::tensor::Tensor;
///
/// let mut fc = Linear::new(3, 5, 42);
/// let y = fc.forward(&Tensor::randn(&[2, 3], 1), true);
/// assert_eq!(y.shape(), &[2, 5]);
/// ```
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Create a layer with Kaiming-initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0, "linear dimensions must be positive");
        Linear {
            weight: Param::new(Tensor::kaiming(&[in_features, out_features], in_features, seed), "linear.weight"),
            bias: Param::new(Tensor::zeros(&[out_features]), "linear.bias"),
            input: None,
            in_features,
            out_features,
        }
    }

    /// The backward pass, with the input gradient only if `input_grad`.
    fn backward_with(&mut self, grad_out: &Tensor, grads: Grads<'_>, input_grad: bool) -> Option<Tensor> {
        let x = self.input.as_ref().expect("backward called before forward");
        assert_eq!(grad_out.rows(), x.rows(), "linear backward batch mismatch");
        assert_eq!(grad_out.cols(), self.out_features, "linear backward width mismatch");
        let lens = (self.weight.len(), self.bias.len());
        let (dw, db, accumulate) = grads.weight_and_bias(&mut self.weight.grad, &mut self.bias.grad, lens);
        // `grad_out` is read in place as `[rows, out]`, whatever its shape
        // says: dW (+)= xᵀ g (no temporary), db (+)= Σ_rows g,
        // dx = g Wᵀ (onto fresh zeros, exactly what `matmul_a_bt` does).
        let (rows, g) = (grad_out.rows(), grad_out.data());
        gemm_at_b(self.in_features, self.out_features, rows, x.data(), g, dw, accumulate);
        add_or_store(db, grad_out.sum_rows().into_data(), accumulate);
        input_grad.then(|| {
            let mut dx = vec![0.0f32; rows * self.in_features];
            gemm_a_bt(rows, self.in_features, self.out_features, g, self.weight.value.data(), &mut dx, true);
            Tensor::from_vec(dx, &[rows, self.in_features]).expect("linear input-gradient shape")
        })
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.cols(), self.in_features, "linear input width {} != {}", x.cols(), self.in_features);
        let x2 = x.clone().reshape(&[x.rows(), self.in_features]);
        let mut y = matmul(&x2, &self.weight.value);
        for row in y.data_mut().chunks_exact_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(self.bias.value.data()) {
                *v += b;
            }
        }
        self.input = Some(x2);
        y
    }

    fn backward_to(&mut self, grad_out: &Tensor, grads: Grads<'_>) -> Tensor {
        self.backward_with(grad_out, grads, true).expect("input gradient requested")
    }

    fn backward_params(&mut self, grad_out: &Tensor, grads: Grads<'_>) {
        self.backward_with(grad_out, grads, false);
    }

    fn parameters(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn replicate(&self) -> Box<dyn Layer> {
        Box::new(Linear { weight: self.weight.clone(), bias: self.bias.clone(), input: None, ..*self })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check: perturb each parameter and compare the
    /// analytic gradient of a scalar loss `sum(y)` to finite differences.
    #[test]
    fn gradient_check_weights() {
        let mut fc = Linear::new(3, 2, 5);
        let x = Tensor::randn(&[4, 3], 6);
        let y = fc.forward(&x, true);
        fc.backward(&Tensor::ones(y.shape()));
        let analytic = fc.weight.grad.clone();

        let eps = 1e-3f32;
        for idx in 0..fc.weight.value.len() {
            let orig = fc.weight.value.data()[idx];
            fc.weight.value.data_mut()[idx] = orig + eps;
            let plus = fc.forward(&x, true).sum();
            fc.weight.value.data_mut()[idx] = orig - eps;
            let minus = fc.forward(&x, true).sum();
            fc.weight.value.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - analytic.data()[idx]).abs() < 1e-2, "idx {idx}: {numeric} vs {}", analytic.data()[idx]);
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut fc = Linear::new(3, 2, 7);
        let x = Tensor::randn(&[2, 3], 8);
        let y = fc.forward(&x, true);
        let gx = fc.backward(&Tensor::ones(y.shape()));

        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let plus = fc.forward(&xp, true).sum();
            let minus = fc.forward(&xm, true).sum();
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - gx.data()[idx]).abs() < 1e-2);
        }
    }

    /// One- and two-sample batches through a layer wide enough (256 → 192,
    /// over `SMALL_WORK` even at one sample) that the kernels' skinny rule
    /// is what selects the unpacked path for all three products: `dW`, `db`
    /// and `dX` against central differences of `L = Σ y ⊙ g`, which is
    /// linear in each of them, so the step can be large.
    #[test]
    fn gradient_check_at_batch_one_and_two() {
        for batch in [1, 2] {
            let mut fc = Linear::new(256, 192, 21);
            fc.bias.value = Tensor::randn(&[192], 22);
            let x = Tensor::randn(&[batch, 256], 23);
            let g = Tensor::randn(&[batch, 192], 24);
            let loss = |fc: &mut Linear, x: &Tensor| -> f64 {
                fc.forward(x, true).data().iter().zip(g.data()).map(|(&y, &g)| f64::from(y) * f64::from(g)).sum()
            };
            fc.forward(&x, true);
            let dx = fc.backward(&g);
            let (dw, db) = (fc.weight.grad.clone(), fc.bias.grad.clone());

            let eps = 1e-2f32;
            let check = |what: &str, idx: usize, numeric: f64, analytic: f32| {
                assert!(
                    (numeric - f64::from(analytic)).abs() < 5e-3,
                    "batch {batch} {what}[{idx}]: {numeric} vs {analytic}"
                );
            };
            let central = |fc: &mut Linear, param: fn(&mut Linear) -> &mut Tensor, idx: usize| {
                let orig = param(fc).data()[idx];
                param(fc).data_mut()[idx] = orig + eps;
                let plus = loss(fc, &x);
                param(fc).data_mut()[idx] = orig - eps;
                let minus = loss(fc, &x);
                param(fc).data_mut()[idx] = orig;
                (plus - minus) / f64::from(2.0 * eps)
            };
            // Every 97th weight reaches every row and column of W.
            for idx in (0..dw.len()).step_by(97) {
                check("dW", idx, central(&mut fc, |fc| &mut fc.weight.value, idx), dw.data()[idx]);
            }
            for idx in 0..db.len() {
                check("db", idx, central(&mut fc, |fc| &mut fc.bias.value, idx), db.data()[idx]);
            }
            for idx in 0..x.len() {
                let (mut xp, mut xm) = (x.clone(), x.clone());
                xp.data_mut()[idx] += eps;
                xm.data_mut()[idx] -= eps;
                let numeric = (loss(&mut fc, &xp) - loss(&mut fc, &xm)) / f64::from(2.0 * eps);
                check("dX", idx, numeric, dx.data()[idx]);
            }
        }
    }

    #[test]
    fn bias_gradient_is_row_count() {
        // With grad_out = 1, db = batch size for every output.
        let mut fc = Linear::new(2, 3, 9);
        let x = Tensor::randn(&[5, 2], 10);
        let y = fc.forward(&x, true);
        fc.backward(&Tensor::ones(y.shape()));
        for &g in fc.bias.grad.data() {
            assert_eq!(g, 5.0);
        }
    }

    #[test]
    fn higher_rank_input_is_flattened() {
        let mut fc = Linear::new(6, 2, 11);
        let x = Tensor::randn(&[4, 2, 3], 12);
        let y = fc.forward(&x, true);
        assert_eq!(y.shape(), &[4, 2]);
    }
}

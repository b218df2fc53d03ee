//! Stochastic gradient descent with momentum.

use super::Optimizer;
use crate::layers::Param;
use crate::tensor::Tensor;

/// SGD with optional Polyak momentum.
///
/// Update rule (PyTorch convention): `v ← μ·v + g`, `θ ← θ − lr·v`.
///
/// # Examples
///
/// ```
/// use minidnn::optim::{Optimizer, Sgd};
/// let mut opt = Sgd::new(0.1).momentum(0.9);
/// assert_eq!(opt.learning_rate(), 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Create plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Enable momentum (builder style).
    #[must_use]
    pub fn momentum(mut self, mu: f64) -> Self {
        assert!((0.0..1.0).contains(&mu), "momentum must be in [0, 1)");
        self.momentum = mu;
        self
    }

    /// One step with the gradient read from `grads` — every parameter's, in
    /// parameter order, as [`Grads::Store`](crate::layers::Grads::Store)
    /// writes them — instead of from each [`Param::grad`], which is not
    /// read and may be released. The same update as [`Optimizer::step`],
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the total parameter count.
    pub fn step_from(&mut self, params: &mut [&mut Param], grads: &[f32]) {
        assert_eq!(grads.len(), params.iter().map(|p| p.len()).sum::<usize>(), "flat gradient length mismatch");
        self.update(params, Some(grads));
    }

    /// The one update loop: each parameter's gradient is its window of
    /// `flat`, or its `Param::grad` without one.
    fn update(&mut self, params: &mut [&mut Param], flat: Option<&[f32]>) {
        // A different parameter list (count or any shape) is a different
        // model: its momentum starts over rather than zip-truncating.
        if self.velocity.len() != params.len()
            || self.velocity.iter().zip(params.iter()).any(|(v, p)| v.shape() != p.value.shape())
        {
            self.velocity = params.iter().map(|p| Tensor::zeros(p.value.shape())).collect();
        }
        let (mu, lr) = (self.momentum as f32, self.lr as f32);
        let mut offset = 0;
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            let Param { value, grad, .. } = &mut **p;
            let grad = match flat {
                Some(flat) => &flat[offset..offset + value.len()],
                None => grad.data(),
            };
            offset += value.len();
            for ((vv, &g), th) in v.data_mut().iter_mut().zip(grad).zip(value.data_mut()) {
                *vv = mu * *vv + g;
                *th -= lr * *vv;
            }
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.update(params, None);
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::test_util::fit_line;

    #[test]
    fn fits_linear_function() {
        let mut opt = Sgd::new(0.2);
        let loss = fit_line(&mut opt, 200);
        assert!(loss < 1e-4, "final loss {loss}");
    }

    #[test]
    fn momentum_accelerates() {
        let mut plain = Sgd::new(0.05);
        let mut with_momentum = Sgd::new(0.05).momentum(0.9);
        let slow = fit_line(&mut plain, 50);
        let fast = fit_line(&mut with_momentum, 50);
        assert!(fast < slow, "momentum {fast} should beat plain {slow}");
    }

    #[test]
    fn velocity_restarts_when_a_parameter_shape_changes() {
        let grad = |p: &mut Param| p.grad.data_mut().fill(1.0);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        let mut narrow = Param::new(Tensor::zeros(&[2]), "w");
        grad(&mut narrow);
        opt.step(&mut [&mut narrow]);
        // Same count, wider shape: every element must take a first,
        // velocity-free step (-lr * g), not inherit or truncate.
        let mut wide = Param::new(Tensor::zeros(&[4]), "w");
        grad(&mut wide);
        opt.step(&mut [&mut wide]);
        assert_eq!(wide.value.data(), &[-0.1f32; 4]);
        // Same shapes again: the velocity now carries (v = 0.9 * 1 + 1).
        opt.step(&mut [&mut wide]);
        assert!(wide.value.data().iter().all(|&v| (v + 0.29).abs() < 1e-6), "{:?}", wide.value.data());
    }

    #[test]
    fn step_from_a_flat_gradient_is_bitwise_step() {
        let params = |seed: u64| -> Vec<Param> {
            vec![Param::new(Tensor::randn(&[3, 4], seed), "w"), Param::new(Tensor::randn(&[4], seed + 1), "b")]
        };
        let (mut assigned, mut flat) = (params(1), params(1));
        for p in &mut flat {
            p.release_grad();
        }
        let (mut a, mut b) = (Sgd::new(0.1).momentum(0.9), Sgd::new(0.1).momentum(0.9));
        for step in 0..3u64 {
            let g = Tensor::randn(&[16], 10 + step);
            let (dw, db) = g.data().split_at(12);
            assigned[0].grad.data_mut().copy_from_slice(dw);
            assigned[1].grad.data_mut().copy_from_slice(db);
            a.step(&mut assigned.iter_mut().collect::<Vec<_>>());
            b.step_from(&mut flat.iter_mut().collect::<Vec<_>>(), g.data());
        }
        for (x, y) in assigned.iter().zip(&flat) {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.value), bits(&y.value), "{}", x.name);
            assert!(y.grad.is_empty(), "the flat step leaves a released gradient released");
        }
    }

    #[test]
    fn set_learning_rate_roundtrip() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0);
    }
}

//! Stochastic gradient descent with momentum and weight decay.

use super::Optimizer;
use crate::layers::Param;
use crate::tensor::Tensor;

/// SGD with optional Polyak momentum and L2 weight decay.
///
/// Update rule (PyTorch convention):
/// `v ← μ·v + (g + wd·θ)`, `θ ← θ − lr·v`.
///
/// # Examples
///
/// ```
/// use minidnn::optim::{Optimizer, Sgd};
/// let mut opt = Sgd::new(0.1).momentum(0.9).weight_decay(1e-4);
/// assert_eq!(opt.learning_rate(), 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    weight_decay: f64,
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
        Sgd { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Enable momentum (builder style).
    #[must_use]
    pub fn momentum(mut self, mu: f64) -> Self {
        assert!((0.0..1.0).contains(&mu), "momentum must be in [0, 1)");
        self.momentum = mu;
        self
    }

    /// Enable L2 weight decay (builder style).
    #[must_use]
    pub fn weight_decay(mut self, wd: f64) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        // A different parameter list (count or any shape) is a different
        // model: its momentum starts over rather than zip-truncating.
        if self.velocity.len() != params.len()
            || self.velocity.iter().zip(params.iter()).any(|(v, p)| v.shape() != p.value.shape())
        {
            self.velocity = params.iter().map(|p| Tensor::zeros(p.value.shape())).collect();
        }
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            let mu = self.momentum as f32;
            let wd = self.weight_decay as f32;
            let lr = self.lr as f32;
            for ((vv, &g), th) in v.data_mut().iter_mut().zip(p.grad.data()).zip(p.value.data_mut()) {
                let g = g + wd * *th;
                *vv = mu * *vv + g;
                *th -= lr * *vv;
            }
        }
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
    fn weight_decay_shrinks_weights() {
        let mut p = Param::new(Tensor::ones(&[4]), "w");
        // Zero gradient: only decay acts.
        let mut opt = Sgd::new(0.1).weight_decay(0.5);
        opt.step(&mut [&mut p]);
        for &v in p.value.data() {
            assert!((v - 0.95).abs() < 1e-6);
        }
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

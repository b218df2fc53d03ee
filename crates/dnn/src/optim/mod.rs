//! The optimizer.
//!
//! SGD with momentum and weight decay is the one optimizer the trainer
//! steps with (`cannikin_core::engine::ParallelTrainer`), so it is the one
//! kept; Table 5's Adam/AdamW workloads exist here as timing profiles
//! (`cannikin_workloads::profiles`), not as training recipes. [`Sgd`] keys
//! its velocity by position in the parameter list, which is stable for a
//! fixed model.

mod sgd;

pub use sgd::Sgd;

use crate::layers::Param;

/// An optimizer updates parameters in place from their accumulated
/// gradients. Gradients are *not* cleared by `step`; call
/// [`crate::layers::zero_grads`] explicitly, mirroring PyTorch.
pub trait Optimizer: Send {
    /// Apply one update step.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Current learning rate (after any scaling).
    fn learning_rate(&self) -> f64;

    /// Replace the learning rate. Used by the LR scalers in [`crate::lr`].
    fn set_learning_rate(&mut self, lr: f64);
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::layers::{Layer, Linear, Sequential};
    use crate::loss::{Loss, Mse};
    use crate::optim::Optimizer;
    use crate::tensor::Tensor;

    /// Train y = 2x + 1 with a single linear layer; returns the final loss.
    pub fn fit_line<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        let mut net = Sequential::new().push(Linear::new(1, 1, 7));
        let x = Tensor::from_vec((0..16).map(|i| i as f32 / 8.0 - 1.0).collect(), &[16, 1]).unwrap();
        let t = x.map(|v| 2.0 * v + 1.0);
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            crate::layers::zero_grads(&mut net.parameters_mut());
            let y = net.forward(&x, true);
            let (loss, grad) = Mse.loss(&y, &t);
            net.backward(&grad);
            opt.step(&mut net.parameters_mut());
            last = loss;
        }
        last
    }
}

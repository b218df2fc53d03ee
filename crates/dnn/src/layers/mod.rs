//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer implements [`Layer`]: `forward` caches whatever activations
//! its backward pass needs, `backward` consumes the gradient w.r.t. the
//! layer output and returns the gradient w.r.t. the layer input while
//! *accumulating* parameter gradients into each [`Param`]. Accumulation (as
//! opposed to overwriting) is what lets a worker process several
//! micro-batches before an optimizer step, mirroring PyTorch semantics.

mod activations;
mod conv;
mod linear;
mod pool;

pub use activations::Relu;
pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::AvgPool2d;

use crate::tensor::Tensor;

/// A trainable parameter: its current value and the accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Human-readable name, used in debugging output.
    pub name: String,
}

impl Param {
    /// Wrap an initial value as a parameter with a zeroed gradient.
    pub fn new(value: Tensor, name: impl Into<String>) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad, name: name.into() }
    }

    /// Reset the accumulated gradient to zero (allocating it again after
    /// [`Param::release_grad`]).
    pub fn zero_grad(&mut self) {
        if self.grad.len() == self.value.len() {
            self.grad.data_mut().fill(0.0);
        } else {
            self.grad = Tensor::zeros(self.value.shape());
        }
    }

    /// Free the gradient buffer: a replica that idles between epochs holds
    /// no use for it. The next [`Param::zero_grad`] brings it back.
    pub fn release_grad(&mut self) {
        self.grad = Tensor::zeros(&[0]);
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty (never true for real layers).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable module.
///
/// The trait is object-safe so models can be composed as
/// `Vec<Box<dyn Layer>>` (see [`Sequential`]).
pub trait Layer: Send {
    /// Run the forward pass. `train` marks a training pass; no layer kept
    /// here behaves differently under it.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Run the backward pass for the most recent `forward` call, returning
    /// the gradient with respect to the layer input and accumulating
    /// parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Immutable access to the layer's parameters (empty for stateless
    /// layers).
    fn parameters(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the layer's parameters.
    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Composition of layers applied in sequence.
///
/// # Examples
///
/// ```
/// use minidnn::layers::{Layer, Linear, Relu, Sequential};
/// use minidnn::tensor::Tensor;
///
/// let mut net = Sequential::new()
///     .push(Linear::new(8, 4, 0))
///     .push(Relu::new());
/// let y = net.forward(&Tensor::randn(&[2, 8], 1), true);
/// assert_eq!(y.shape(), &[2, 4]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers, {} params)", self.layers.len(), num_elements(&self.parameters()))
    }
}

impl Sequential {
    /// Create an empty sequential container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer (consuming builder).
    #[must_use]
    pub fn push<L: Layer + 'static>(mut self, layer: L) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Immutable access to the layers, in forward order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers, in forward order. Distributed training
    /// engines use this to drive the backward pass layer by layer so
    /// gradient buckets can be communicated while earlier layers still
    /// compute (compute/communication overlap); calling
    /// `layer.backward(...)` over this slice in reverse is equivalent to
    /// [`Sequential`]'s own `backward`.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Whether the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn parameters(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.parameters_mut()).collect()
    }
}

/// Total number of scalar parameters across a parameter list.
pub fn num_elements(params: &[&Param]) -> usize {
    params.iter().map(|p| p.len()).sum()
}

/// Flatten all parameter gradients into a single 1-D tensor, in parameter
/// order. This is the "full local gradient" consumed by the collectives and
/// the gradient-noise-scale estimators.
pub fn flatten_grads(params: &[&Param]) -> Tensor {
    let total: usize = params.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(total);
    for p in params {
        out.extend_from_slice(p.grad.data());
    }
    Tensor::from_vec(out, &[total.max(1)]).unwrap_or_else(|_| Tensor::zeros(&[1]))
}

/// Flatten all parameter gradients into a caller-owned buffer, reusing its
/// capacity — the allocation-free form of [`flatten_grads`] for training
/// loops that flatten every step.
pub fn flatten_grads_into(params: &[&Param], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(params.iter().map(|p| p.len()).sum());
    for p in params {
        out.extend_from_slice(p.grad.data());
    }
}

/// Scatter a flat gradient slice back into the parameter gradients.
///
/// # Panics
///
/// Panics if `flat.len()` differs from the total parameter count.
pub fn assign_grads_from(params: &mut [&mut Param], flat: &[f32]) {
    let total: usize = params.iter().map(|p| p.len()).sum();
    assert_eq!(flat.len(), total, "flat gradient length mismatch");
    let mut off = 0;
    for p in params.iter_mut() {
        let n = p.len();
        p.grad.data_mut().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
}

/// Flatten all parameter values into a single 1-D tensor.
pub fn flatten_values(params: &[&Param]) -> Tensor {
    let total: usize = params.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(total);
    for p in params {
        out.extend_from_slice(p.value.data());
    }
    Tensor::from_vec(out, &[total.max(1)]).unwrap_or_else(|_| Tensor::zeros(&[1]))
}

/// Scatter a flat value vector back into the parameters (used to broadcast
/// initial weights so every data-parallel worker starts identically).
///
/// # Panics
///
/// Panics if `flat.len()` differs from the total parameter count.
pub fn assign_values(params: &mut [&mut Param], flat: &Tensor) {
    let total: usize = params.iter().map(|p| p.len()).sum();
    assert_eq!(flat.len(), total, "flat value length mismatch");
    let mut off = 0;
    for p in params.iter_mut() {
        let n = p.len();
        p.value.data_mut().copy_from_slice(&flat.data()[off..off + n]);
        off += n;
    }
}

/// Reset every gradient in the list to zero.
pub fn zero_grads(params: &mut [&mut Param]) {
    for p in params.iter_mut() {
        p.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_composes_shapes() {
        let mut net = Sequential::new()
            .push(Linear::new(6, 12, 1))
            .push(Relu::new())
            .push(Linear::new(12, 3, 2));
        let x = Tensor::randn(&[4, 6], 3);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[4, 3]);
        let gx = net.backward(&Tensor::ones(&[4, 3]));
        assert_eq!(gx.shape(), &[4, 6]);
    }

    #[test]
    fn flatten_assign_roundtrip() {
        let mut net = Sequential::new().push(Linear::new(3, 2, 1));
        let x = Tensor::randn(&[2, 3], 9);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        let flat = flatten_grads(&net.parameters());
        assert_eq!(flat.len(), 3 * 2 + 2);
        let doubled = flat.scale(2.0);
        assign_grads_from(&mut net.parameters_mut(), doubled.data());
        let back = flatten_grads(&net.parameters());
        assert_eq!(back, doubled);
    }

    #[test]
    fn flatten_into_reuses_buffer_and_matches() {
        let mut net = Sequential::new().push(Linear::new(3, 2, 1));
        let x = Tensor::randn(&[2, 3], 9);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        let mut buf = Vec::new();
        flatten_grads_into(&net.parameters(), &mut buf);
        assert_eq!(buf, flatten_grads(&net.parameters()).into_data());
        let ptr = buf.as_ptr();
        flatten_grads_into(&net.parameters(), &mut buf);
        assert_eq!(buf.as_ptr(), ptr, "repeated flatten must reuse the buffer");
        let doubled: Vec<f32> = buf.iter().map(|v| v * 2.0).collect();
        assign_grads_from(&mut net.parameters_mut(), &doubled);
        assert_eq!(flatten_grads(&net.parameters()).into_data(), doubled);
    }

    #[test]
    fn values_roundtrip_preserves_model() {
        let mut a = Sequential::new().push(Linear::new(4, 4, 7));
        let mut b = Sequential::new().push(Linear::new(4, 4, 8));
        let weights = flatten_values(&a.parameters());
        assign_values(&mut b.parameters_mut(), &weights);
        let x = Tensor::randn(&[3, 4], 11);
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }

    #[test]
    fn zero_grads_clears() {
        let mut net = Sequential::new().push(Linear::new(2, 2, 1));
        let x = Tensor::randn(&[1, 2], 2);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        assert!(flatten_grads(&net.parameters()).sq_l2() > 0.0);
        zero_grads(&mut net.parameters_mut());
        assert_eq!(flatten_grads(&net.parameters()).sq_l2(), 0.0);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut net = Sequential::new().push(Linear::new(2, 1, 1));
        let x = Tensor::randn(&[1, 2], 5);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        let once = flatten_grads(&net.parameters());
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        let twice = flatten_grads(&net.parameters());
        for (a, b) in once.data().iter().zip(twice.data()) {
            assert!((b - 2.0 * a).abs() < 1e-5);
        }
    }
}

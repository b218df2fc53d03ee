//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer implements [`Layer`]: `forward` caches whatever activations
//! its backward pass needs, and the backward pass consumes the gradient
//! w.r.t. the layer output and returns the gradient w.r.t. the layer input.
//! Where the parameter gradients go is an argument of that one pass
//! ([`Grads`]):
//!
//! - [`Layer::backward`] *accumulates* them into each [`Param::grad`].
//!   Accumulation (as opposed to overwriting) is what lets a worker process
//!   several micro-batches before an optimizer step, mirroring PyTorch
//!   semantics; the caller zeroes the gradients between steps
//!   ([`zero_grads`]).
//! - [`Layer::backward_to`] with [`Grads::Store`] *stores* them into a
//!   window of the caller's flat buffer, in parameter order, and leaves
//!   `Param::grad` alone: each value is what accumulating onto a zeroed
//!   gradient gives, bit for bit, with no zeroing pass and no copy out.
//!   This is how a data-parallel step writes each layer's gradients
//!   straight into the buffer it exchanges — DDP's gradient-as-bucket-view
//!   — and the optimizer steps from that buffer
//!   ([`Sgd::step_from`](crate::optim::Sgd::step_from)).

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
    /// Accumulated gradient (same shape as `value`, or empty after
    /// [`Param::release_grad`]).
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

    /// Free the gradient buffer, for a model whose backward passes store
    /// their gradients elsewhere ([`Grads::Store`]). The next
    /// [`Param::zero_grad`] brings it back.
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

/// Where a backward pass puts the gradients of a layer's parameters.
#[derive(Debug)]
pub enum Grads<'a> {
    /// Added into each [`Param::grad`].
    Accumulate,
    /// Stored into this window of a flat buffer — one value per parameter
    /// element, in parameter order — overwriting whatever it held, with
    /// `Param::grad` untouched. Each value is `0 + g`: what adding `g` onto
    /// a zeroed gradient gives, a −0 landing as +0 included.
    Store(&'a mut [f32]),
}

impl<'a> Grads<'a> {
    /// A weight-and-bias layer's two destinations: its `Param::grad`s to
    /// add into, or the `Store` window split after the weight's
    /// `lens.0` values to store into — and whether to add.
    ///
    /// # Panics
    ///
    /// Panics if a `Store` window is not `lens.0 + lens.1` long.
    pub(crate) fn weight_and_bias(
        self,
        weight: &'a mut Tensor,
        bias: &'a mut Tensor,
        lens: (usize, usize),
    ) -> (&'a mut [f32], &'a mut [f32], bool) {
        match self {
            Grads::Accumulate => (weight.data_mut(), bias.data_mut(), true),
            Grads::Store(window) => {
                assert_eq!(window.len(), lens.0 + lens.1, "gradient window length mismatch");
                let (weight, bias) = window.split_at_mut(lens.0);
                (weight, bias, false)
            }
        }
    }
}

/// `dst (+)= src` elementwise: added when `accumulate`, else stored as
/// `0 + src` — what adding onto a zeroed gradient gives. For gradients a
/// layer sums itself (a bias, say); products go through the GEMM's `acc`.
pub(crate) fn add_or_store(dst: &mut [f32], src: impl IntoIterator<Item = f32>, accumulate: bool) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = if accumulate { *d } else { 0.0 } + s;
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
    /// parameter gradients into each [`Param::grad`].
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_to(grad_out, Grads::Accumulate)
    }

    /// The backward pass with the parameter gradients' destination named:
    /// the one body both destinations run. Layers without parameters
    /// ignore `grads` (a `Store` window for them is empty).
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`, or if a `Store`
    /// window's length is not the layer's parameter count.
    fn backward_to(&mut self, grad_out: &Tensor, grads: Grads<'_>) -> Tensor;

    /// [`Layer::backward_to`] for a layer whose input needs no gradient, a
    /// model's first: the same parameter gradients to the bit, without the
    /// input gradient. The default runs `backward_to` and drops its result;
    /// layers with a costly input gradient override it.
    fn backward_params(&mut self, grad_out: &Tensor, grads: Grads<'_>) {
        self.backward_to(grad_out, grads);
    }

    /// Immutable access to the layer's parameters (empty for stateless
    /// layers).
    fn parameters(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the layer's parameters.
    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// A new layer holding copies of this one's parameters and none of
    /// what a forward pass cached: what constructing it again and
    /// assigning these weights would give, without drawing them anew.
    fn replicate(&self) -> Box<dyn Layer>;
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
    /// `layer.backward_to(...)` over this slice in reverse, each layer with
    /// its window of the flat gradient, is equivalent to [`Sequential`]'s
    /// own `backward_to`.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Whether the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// [`Layer::replicate`] of every layer: a model with these weights and
    /// no cached activations, as a `Sequential`.
    pub fn replicate(&self) -> Sequential {
        Sequential { layers: self.layers.iter().map(|l| l.replicate()).collect() }
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

    fn backward_to(&mut self, grad_out: &Tensor, mut grads: Grads<'_>) -> Tensor {
        if let Grads::Store(window) = &grads {
            assert_eq!(window.len(), num_elements(&self.parameters()), "gradient window length mismatch");
        }
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            let layer_grads = match &mut grads {
                Grads::Accumulate => Grads::Accumulate,
                Grads::Store(window) => {
                    let at = window.len() - num_elements(&layer.parameters());
                    let (rest, mine) = std::mem::take(window).split_at_mut(at);
                    *window = rest;
                    Grads::Store(mine)
                }
            };
            cur = layer.backward_to(&cur, layer_grads);
        }
        cur
    }

    fn parameters(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.parameters_mut()).collect()
    }

    fn replicate(&self) -> Box<dyn Layer> {
        Box::new(Sequential::replicate(self))
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
/// capacity — the allocation-free form of [`flatten_grads`]. Kept solely
/// for the frozen benchmark (`crates/benchmark/src/real.rs`); a training
/// step stores its gradients flat to begin with ([`Grads::Store`]).
pub fn flatten_grads_into(params: &[&Param], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(params.iter().map(|p| p.len()).sum());
    for p in params {
        out.extend_from_slice(p.grad.data());
    }
}

/// Scatter a flat gradient slice back into the parameter gradients. Kept
/// solely for the frozen benchmark (`crates/benchmark/src/real.rs`); an
/// optimizer steps from the flat slice itself
/// ([`Sgd::step_from`](crate::optim::Sgd::step_from)).
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

    /// Storing into a window gives, bit for bit, what zeroing the
    /// gradients and accumulating gives, on both models the trainer trains
    /// — Linear and Conv2d storing natively, the parameterless layers
    /// between them, Sequential splitting the window — whatever the window
    /// held, and without touching a released `Param::grad`. Wide enough
    /// that the products leave the kernels' unpacked path.
    #[test]
    fn store_is_bitwise_accumulate_onto_zero() {
        use crate::models::{mini_cnn, mlp_classifier};
        let cases = [
            (mlp_classifier(64, 256, 4, 1), Tensor::randn(&[12, 64], 2)),
            (mlp_classifier(64, 256, 4, 1), Tensor::randn(&[3, 64], 3)),
            (mini_cnn(3, 8, 4, 4), Tensor::randn(&[5, 3, 8, 8], 5)),
        ];
        for (mut net, x) in cases {
            let y = net.forward(&x, true);
            // A loss gradient with exact zeros in it, as ReLU's backward makes.
            let g = Tensor::randn(y.shape(), 6).map(|v| if v > 0.5 { 0.0 } else { v });
            zero_grads(&mut net.parameters_mut());
            net.backward(&g);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let accumulated = bits(flatten_grads(&net.parameters()).data());

            for p in net.parameters_mut() {
                p.release_grad();
            }
            let mut window = vec![f32::NAN; accumulated.len()];
            net.forward(&x, true);
            net.backward_to(&g, Grads::Store(&mut window));
            assert_eq!(bits(&window), accumulated, "{net:?}");
            assert!(net.parameters().iter().all(|p| p.grad.is_empty()), "Param::grad left alone");
        }
    }

    /// `backward_params` leaves the dW and db bits `backward_to` leaves,
    /// stored into a window and added onto a gradient alike: on a skinny
    /// and a square Linear, and on a Conv2d.
    #[test]
    fn backward_params_is_backward_to_without_the_input_gradient() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cases: [(Box<dyn Layer>, Tensor); 3] = [
            (Box::new(Linear::new(256, 192, 1)), Tensor::randn(&[1, 256], 2)),
            (Box::new(Linear::new(64, 48, 3)), Tensor::randn(&[12, 64], 4)),
            (Box::new(Conv2d::new(3, 8, 3, 1, 1, 5)), Tensor::randn(&[5, 3, 8, 8], 6)),
        ];
        for (mut layer, x) in cases {
            let y = layer.forward(&x, true);
            let g = Tensor::randn(y.shape(), 7);
            let len = num_elements(&layer.parameters());
            let (mut full, mut params) = (vec![f32::NAN; len], vec![f32::NAN; len]);
            layer.backward_to(&g, Grads::Store(&mut full));
            layer.backward_params(&g, Grads::Store(&mut params));
            assert_eq!(bits(&params), bits(&full), "Store, input {:?}", x.shape());

            // Twice each from zero: the first pass adds onto zeros, the
            // second onto a gradient.
            let mut passes = |params_only: bool| -> Vec<Vec<u32>> {
                zero_grads(&mut layer.parameters_mut());
                (0..2)
                    .map(|_| {
                        if params_only {
                            layer.backward_params(&g, Grads::Accumulate);
                        } else {
                            layer.backward_to(&g, Grads::Accumulate);
                        }
                        bits(flatten_grads(&layer.parameters()).data())
                    })
                    .collect()
            };
            let full = passes(false);
            assert_eq!(passes(true), full, "Accumulate, input {:?}", x.shape());
        }
    }

    #[test]
    #[should_panic(expected = "gradient window length mismatch")]
    fn store_rejects_a_window_of_the_wrong_length() {
        let mut net = Sequential::new().push(Linear::new(3, 2, 1));
        let y = net.forward(&Tensor::randn(&[2, 3], 9), true);
        net.backward_to(&Tensor::ones(y.shape()), Grads::Store(&mut [0.0; 7]));
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

    #[test]
    fn a_replica_is_a_fresh_model_with_the_same_weights() {
        use crate::models::mini_cnn;
        let bits = |t: Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        // The original has run a pass, so it holds cached activations and
        // a filled im2col buffer; its replica holds neither.
        let mut original = mini_cnn(3, 6, 4, 5);
        let y = original.forward(&Tensor::randn(&[2, 3, 6, 6], 1), true);
        original.backward(&Tensor::ones(y.shape()));
        let mut replica = original.replicate();
        assert_eq!(bits(flatten_values(&replica.parameters())), bits(flatten_values(&original.parameters())));
        let ones = Tensor::ones(y.shape());
        let cached = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replica.backward(&ones)));
        assert!(cached.is_err(), "a replica has no forward pass to run backward from");
        // From here on both compute the same bits.
        let x = Tensor::randn(&[3, 3, 6, 6], 2);
        assert_eq!(bits(replica.forward(&x, true)), bits(original.forward(&x, true)));
        let g = Tensor::randn(&[3, 4], 3);
        assert_eq!(bits(replica.backward(&g)), bits(original.backward(&g)));
        assert_eq!(bits(flatten_grads(&replica.parameters())), bits(flatten_grads(&original.parameters())));
    }
}

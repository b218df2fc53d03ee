//! # minidnn — a from-scratch CPU deep-learning library
//!
//! `minidnn` is the numerical substrate of the Cannikin reproduction: what
//! the functional trainer (`cannikin_core::engine::ParallelTrainer`) needs
//! to produce real gradients on real replicas, and nothing it does not
//! train. Cannikin consumes per-node timings and flat gradients, and its
//! estimators do not depend on the model's shape, so two small models stand
//! in for the paper's five workloads (whose *timing* is
//! `cannikin_workloads::profiles`):
//!
//! - [`tensor::Tensor`] — contiguous row-major `f32` tensors with the usual
//!   elementwise, reduction and matrix-multiplication kernels;
//! - [`layers`] — a [`layers::Layer`] trait with cached-activation
//!   forward/backward passes: [`layers::Linear`], [`layers::Conv2d`],
//!   [`layers::Relu`], [`layers::AvgPool2d`], composed by
//!   [`layers::Sequential`];
//! - [`loss`] — softmax cross-entropy and mean squared error, each giving
//!   the scalar loss and the input gradient;
//! - [`optim`] — SGD with momentum and weight decay;
//! - [`lr`] — the AdaScale, square-root and linear learning-rate scalers
//!   of Table 5;
//! - [`data`] — deterministic Gaussian-blob datasets (flat and
//!   image-shaped) and uneven (heterogeneity-aware) partitioned loading;
//! - [`models`] — an MLP and a small CNN, the two models the trainer's
//!   tests hold on both of its step paths.
//!
//! ## Example
//!
//! ```
//! use minidnn::layers::{Layer, Linear, Relu, Sequential};
//! use minidnn::loss::{Loss, SoftmaxCrossEntropy};
//! use minidnn::optim::{Optimizer, Sgd};
//! use minidnn::tensor::Tensor;
//!
//! let mut model = Sequential::new()
//!     .push(Linear::new(4, 16, 1))
//!     .push(Relu::new())
//!     .push(Linear::new(16, 3, 2));
//! let mut opt = Sgd::new(0.1).momentum(0.9);
//! let x = Tensor::randn(&[8, 4], 42);
//! let y = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//!
//! let logits = model.forward(&x, true);
//! let (loss, grad) = SoftmaxCrossEntropy::default().loss(&logits, &y);
//! model.backward(&grad);
//! opt.step(&mut model.parameters_mut());
//! assert!(loss.is_finite());
//! ```

// Indexed loops are the clearest way to write the numerical kernels in
// this crate (explicit strides, symmetric forward/backward passes);
// clippy's iterator suggestions would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod data;
pub mod error;
pub mod layers;
pub mod loss;
pub mod lr;
pub mod models;
pub mod optim;
pub mod rng;
pub mod tensor;

pub use error::DnnError;
pub use tensor::Tensor;

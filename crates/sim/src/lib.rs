//! # hetsim — a discrete-event simulator of heterogeneous GPU clusters
//!
//! The Cannikin paper evaluates on real NVIDIA GPUs (clusters A and B,
//! Tables 3–4). This crate replaces that hardware with a simulator that
//! produces exactly the observables Cannikin's algorithms consume:
//!
//! - per-node, per-batch **compute timings** that are linear in the local
//!   batch size (`a_i = q_i·b + s_i`, `P_i = k_i·b + m_i`, §3.2.1 of the
//!   paper), with multiplicative log-normal measurement noise;
//! - **bucketed ring all-reduce** timing with compute/communication
//!   overlap: the first gradient bucket becomes ready at
//!   `syncStart_i = a_i + γ·P_i`, later buckets are evenly spread over the
//!   rest of backpropagation, and bucket synchronizations serialize on the
//!   ring (§3.2.2–3.2.3);
//! - noisy per-node observations of the **overlap ratio γ** and the
//!   **communication times** `T_o`/`T_u`, with per-node observation
//!   variances — the raw material for the paper's inverse-variance-weighted
//!   measurement fusion (§4.5, evaluated in §5.3).
//!
//! The event-driven batch simulation in [`event`] is the *ground truth*
//! against which the analytic OptPerf predictions of `cannikin-core` are
//! validated: it implements Eq. (7) mechanically (bucket-by-bucket) rather
//! than via the paper's closed forms.
//!
//! ## Example
//!
//! ```
//! use hetsim::catalog::Gpu;
//! use hetsim::cluster::{ClusterSpec, NodeSpec};
//! use hetsim::job::JobSpec;
//! use hetsim::Simulator;
//!
//! let cluster = ClusterSpec::new(
//!     "demo",
//!     vec![NodeSpec::new("fast", Gpu::A100), NodeSpec::new("slow", Gpu::Rtx6000)],
//! );
//! let job = JobSpec::resnet50_imagenet();
//! let mut sim = Simulator::new(cluster, job, 42);
//! let trace = sim.simulate_batch(&[96, 32]);
//! assert!(trace.batch_time > 0.0);
//! ```

pub mod catalog;
pub mod cluster;
pub mod event;
pub mod fault;
pub mod job;
mod stream;
pub mod timing;
pub mod trace;

pub use event::{cores, Simulator};
pub use fault::{FaultEvent, FaultPlan};
pub use trace::{BatchTrace, NodeObservation};

//! # cannikin-core — the Cannikin system
//!
//! The paper's contribution, implemented as four layers:
//!
//! 1. **Measurement** ([`perf`]) — per-node linear compute-time models
//!    (`a_i = q_i·b + s_i`, `P_i = k_i·b + m_i`) learned online by least
//!    squares from batch traces, and cluster-wide constants (γ, `T_o`,
//!    `T_u`) fused across nodes by inverse-variance weighting (§4.5).
//! 2. **Optimization** ([`optperf`]) — the *OptPerf* solver: given a total
//!    batch size it determines each node's overlap state
//!    (compute-bottleneck vs communication-bottleneck) and the optimal
//!    local batch split (Algorithm 1 + Appendix A), plus the Eq. (8)
//!    bootstrap used while no model exists yet.
//! 3. **Statistics** ([`gns`]) — heterogeneity-correct gradient noise
//!    scale: the unbiased per-node estimators of Eq. (10) combined with the
//!    minimum-variance weights of Theorem 4.1, and the Pollux-style
//!    statistical-efficiency model built on it.
//! 4. **Control** ([`goodput`], [`engine`]) — goodput-maximizing total
//!    batch selection with the `OptPerf_init` candidate cache and
//!    warm-started overlap-state search, the epoch-level
//!    [`engine::CannikinTrainer`] driving a [`hetsim::Simulator`], and the
//!    thread-parallel functional trainer ([`engine::parallel`]) that runs
//!    real `minidnn` models through real ring all-reduce.
//!
//! ## Example: one OptPerf solve
//!
//! ```
//! use cannikin_core::optperf::{OptPerfSolver, SolverInput};
//! use hetsim::catalog::Gpu;
//! use hetsim::cluster::{ClusterSpec, NodeSpec};
//! use hetsim::job::JobSpec;
//!
//! let cluster = ClusterSpec::new(
//!     "demo",
//!     vec![NodeSpec::new("fast", Gpu::A100), NodeSpec::new("slow", Gpu::Rtx6000)],
//! );
//! let input = SolverInput::from_ground_truth(&cluster, &JobSpec::resnet50_imagenet());
//! let plan = OptPerfSolver::new(input).solve(128).expect("feasible");
//! assert_eq!(plan.local_batches.iter().sum::<u64>(), 128);
//! // The A100 gets the larger share.
//! assert!(plan.local_batches[0] > plan.local_batches[1]);
//! ```

// Indexed loops keep the linear-system and split arithmetic explicit.
#![allow(clippy::needless_range_loop)]

pub mod engine;
pub mod error;
pub mod gns;
pub mod goodput;
pub mod linalg;
pub mod optperf;
pub mod perf;
pub mod policy;
pub mod runtime;

pub use error::CannikinError;

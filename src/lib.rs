//! # Cannikin — optimal adaptive distributed DNN training over heterogeneous clusters
//!
//! This meta-crate re-exports every crate of the Cannikin reproduction
//! workspace so that examples and downstream users can depend on a single
//! package:
//!
//! - [`core`] (`cannikin-core`) — the paper's contribution: performance
//!   models, the *OptPerf* solver (Algorithm 1), the heterogeneity-correct
//!   gradient-noise-scale estimators (Theorem 4.1), the goodput engine and
//!   the [`core::engine::CannikinTrainer`] orchestration loop.
//! - [`dnn`] (`minidnn`) — a from-scratch CPU tensor library and what the
//!   functional trainer trains with it: the layers of an MLP and a small
//!   CNN, softmax cross-entropy, SGD and the learning-rate scalers.
//! - [`collectives`] (`cannikin-collectives`) — in-process bucketed ring
//!   all-reduce and the batch-ratio-weighted gradient aggregation of Eq. (9).
//! - [`sim`] (`hetsim`) — a discrete-event heterogeneous GPU cluster
//!   simulator with bucket-level compute/communication overlap.
//! - [`baselines`] (`cannikin-baselines`) — PyTorch-DDP-, AdaptDL-, LB-BSP-
//!   and HetPipe-style comparison systems.
//! - [`workloads`] (`cannikin-workloads`) — the paper's five evaluation
//!   workload profiles and the clusters A/B/C used in the evaluation.
//! - [`telemetry`] (`cannikin-telemetry`) — the workspace-wide observability
//!   layer: a low-overhead structured-event recorder, histograms, and
//!   JSONL / Chrome-trace exporters (enable file export with
//!   `CANNIKIN_TELEMETRY=jsonl:/path[,chrome:/path]`).
//! - [`insight`] (`cannikin-insight`) — online diagnostics over the
//!   telemetry stream (straggler/calibration/GNS-drift/bucket-imbalance
//!   detectors behind [`insight::Monitor`]) plus the `cannikin-insight`
//!   trace-replay CLI that reruns the same detectors offline.
//! - [`fleet`] (`cannikin-fleet`) — the multi-tenant cluster control
//!   plane (§6 direction): an admission queue with priority classes, a
//!   fleet allocator that generalizes OptPerf from "a batch over n GPUs"
//!   to "a node pool over m jobs", and epoch-boundary preemption through
//!   the trainers' elastic-membership path.
//!
//! ## Quickstart
//!
//! Everyday types live in the [`prelude`]; trainers are constructed with
//! fluent builders:
//!
//! ```
//! use cannikin::prelude::*;
//! use cannikin::workloads::{clusters, profiles};
//!
//! // Train the paper's 16-GPU cluster B on ResNet-18/CIFAR-10 for two
//! // epochs under the full Cannikin pipeline.
//! let profile = profiles::cifar10_resnet18();
//! let mut trainer = CannikinTrainer::builder()
//!     .simulator(Simulator::new(clusters::cluster_b(), profile.job, 7))
//!     .noise(profile.noise)
//!     .dataset_size(profile.dataset_size)
//!     .batch_range(profile.base_batch, profile.max_batch)
//!     .transport(TransportKind::InProcess) // or TransportKind::tcp()
//!     .build()
//!     .expect("valid configuration");
//! let records = trainer.run_epochs(2).expect("training runs");
//! assert_eq!(records.len(), 2);
//! ```
//!
//! The lower layers remain directly accessible, e.g. one OptPerf solve:
//!
//! ```
//! use cannikin::prelude::*;
//! use cannikin::workloads::{clusters, profiles};
//!
//! let cluster = clusters::cluster_b();
//! let profile = profiles::cifar10_resnet18();
//! let input = SolverInput::from_ground_truth(&cluster, &profile.job);
//! let plan = OptPerfSolver::new(input).solve(512).expect("feasible batch size");
//! assert_eq!(plan.local_batches.iter().sum::<u64>(), 512);
//! ```

pub use cannikin_baselines as baselines;
pub use cannikin_collectives as collectives;
pub use cannikin_core as core;
pub use cannikin_fleet as fleet;
pub use cannikin_insight as insight;
pub use cannikin_telemetry as telemetry;
pub use cannikin_workloads as workloads;
pub use hetsim as sim;
pub use minidnn as dnn;

/// The everyday API in one import: `use cannikin::prelude::*;`.
///
/// Re-exports the two trainers and their builders, their config/report
/// types, the error type, the OptPerf solver,
/// the ask/tell adaptation policies (the [`Policy`](prelude::Policy)
/// trait, [`PolicyKind`](prelude::PolicyKind), and the four shipped
/// implementations), the simulator and cluster-description types, the
/// collective layer (including the pluggable
/// [`TransportKind`](prelude::TransportKind)), and the health monitor. Specialized types stay at their crate paths
/// (`cannikin::core::gns`, `cannikin::telemetry`, …).
pub mod prelude {
    pub use cannikin_collectives::{
        CommError, CommFaultPlan, CommGroup, Communicator, RetryPolicy, Transport, TransportKind,
    };
    pub use cannikin_core::engine::{
        CannikinTrainer, CannikinTrainerBuilder, EpochRecord, LinearNoiseGrowth, NoiseModel, ParallelConfig,
        ParallelEpochReport, ParallelTrainer, ParallelTrainerBuilder, TrainerConfig, TrainingSubject,
    };
    pub use cannikin_core::optperf::{OptPerfSolver, SolverInput};
    pub use cannikin_core::policy::{
        EpochObservation, EpochPlan, EvenSplit, LbBspIterative, OptPerfGoodput, Policy, PolicyContext,
        PolicyKind, RlBatchPolicy,
    };
    pub use cannikin_core::CannikinError;
    pub use cannikin_fleet::{AllocPolicy, FleetController, FleetJobSpec, FleetReport, Priority};
    pub use cannikin_insight::Monitor;
    pub use cannikin_telemetry::Session;
    pub use hetsim::catalog::Gpu;
    pub use hetsim::cluster::{ClusterSpec, NodeSpec};
    pub use hetsim::job::JobSpec;
    pub use hetsim::{FaultPlan, Simulator};
    pub use minidnn::lr::LrScaler;
}

//! # cannikin-fleet — a multi-tenant control plane over Cannikin jobs
//!
//! The paper's §6 argument is that Cannikin-style jobs absorb *any*
//! heterogeneous node mix, so a cluster scheduler no longer has to carve
//! out homogeneous slices: it can hand every job whatever nodes are
//! spare and let the job-level system (OptPerf split + GNS-driven batch
//! sizing) make the mix productive. This crate is that scheduler:
//!
//! - [`FleetJobSpec`] describes one submission in a *stream* of jobs —
//!   workload, trainer configuration, priority class, arrival time, node
//!   range and an optional fault plan;
//! - [`FleetController`] admits arrivals into a queue, runs each admitted
//!   job's own [`CannikinTrainer`](cannikin_core::engine::CannikinTrainer)
//!   on its granted nodes, and at every epoch boundary re-runs the fleet
//!   allocator ([`AllocPolicy`]) — generalizing OptPerf's "split B over n
//!   GPUs" to "split the pool's nodes over m jobs";
//! - demand is GNS-driven ([`demand`]): a job whose gradient noise scale
//!   has grown wants a larger total batch and therefore more nodes, a job
//!   past its statistical knee (or near its target) shrinks back, and the
//!   weighted fair-share allocator arbitrates under priority weights;
//! - preemption and grants flow through the existing elastic-membership
//!   path (`Simulator::{add_node,remove_node}` +
//!   `CannikinTrainer::on_cluster_change`), so a reallocation costs the
//!   affected job a bootstrap re-profile, never a restart;
//! - everything is deterministic: same pool, same specs, same policy →
//!   bitwise-identical schedules ([`FleetController::schedule_log`]),
//!   down to fault-plan-driven node crashes surviving via the chaos
//!   machinery;
//! - the controller records its decisions, grants, admissions,
//!   preemptions and fleet gauges as telemetry events and reads no
//!   verdict back: service-level objectives are judged afterwards over
//!   the recorded trace (`cannikin_insight::replay_slos`), with rules the
//!   caller passes there, so a job spec carries none.
//!
//! ```
//! use cannikin_fleet::{AllocPolicy, FleetController, FleetJobSpec, Priority};
//! use cannikin_core::engine::TrainerConfig;
//! use hetsim::catalog::Gpu;
//! use hetsim::cluster::NodeSpec;
//! use hetsim::job::JobSpec;
//!
//! let pool = vec![
//!     NodeSpec::new("a100-0", Gpu::A100),
//!     NodeSpec::new("v100-0", Gpu::V100),
//!     NodeSpec::new("rtx-0", Gpu::Rtx6000),
//! ];
//! let jobs = vec![
//!     FleetJobSpec::new("cifar", JobSpec::resnet18_cifar10(), TrainerConfig::new(6_400, 64, 512), 2.0)
//!         .priority(Priority::Production)
//!         .seed(1),
//!     FleetJobSpec::new("neumf", JobSpec::neumf_movielens(), TrainerConfig::new(6_400, 64, 512), 1.0)
//!         .arrival(5.0)
//!         .seed(2),
//! ];
//! let mut fleet = FleetController::new(pool, jobs, AllocPolicy::Cannikin).expect("valid fleet");
//! let report = fleet.run_to_completion(2_000).expect("stream drains");
//! assert_eq!(report.jobs.len(), 2);
//! assert!(report.makespan > 0.0);
//! ```

pub mod alloc;
pub mod controller;
pub mod demand;
pub mod metrics;
pub mod pool;
pub mod spec;

pub use alloc::{AllocPolicy, JobDemand};
pub use controller::{FleetController, FleetError};
pub use metrics::{jain_fairness, FleetReport, JobOutcome};
pub use pool::NodePool;
pub use spec::{synthetic_trace, FleetJobSpec, Priority};

//! The *OptPerf* solver (§3.3, §4.2, Algorithm 1).
//!
//! Given per-node linear performance models and the cluster communication
//! constants, the solver answers: *for a total batch size `B`, what local
//! batch split minimizes the synchronized batch processing time, and what
//! is that time?*
//!
//! The paper's three optimality conditions (Appendix A) are all instances
//! of one parametric family indexed by the **bottleneck boundary** `C`:
//! order the nodes so that the first `C` are compute-bottleneck and the
//! rest communication-bottleneck, then solve the linear system
//!
//! ```text
//! cᵢ·bᵢ + dᵢ           = μ        for compute-bottleneck nodes
//! eᵢ·bᵢ + fᵢ + T_o     = μ        for communication-bottleneck nodes
//! Σ bᵢ = B
//! ```
//!
//! where `cᵢ = qᵢ+kᵢ`, `dᵢ = sᵢ+mᵢ` (total compute time) and
//! `eᵢ = qᵢ+γkᵢ`, `fᵢ = sᵢ+γmᵢ` (`syncStart`). `C = n` is the paper's
//! Check 1 (OptPerf = μ + T_u with equal compute times), `C = 0` is Check 2
//! (equal sync starts, OptPerf = syncStart + T_comm), and `0 < C < n` is
//! the mixed case where compute nodes finish their gradient exactly when
//! the communication chain catches up (`t_compute = syncStart' + T_o`).
//!
//! Nodes are ranked by their **transition threshold** `μ*ᵢ` — the makespan
//! at which node `i` flips from communication- to compute-bottleneck —
//! which makes the consistent boundary unique and binary-searchable
//! (the `O(log n)` search of Algorithm 1). A warm-start boundary from the
//! previous solve (§4.5 "overlap state searching") usually reduces the
//! search to a single verification.

mod bootstrap;
mod solver;

pub use bootstrap::{bootstrap_split, ensure_distinct_split, even_split};
pub use solver::{predict_batch_time, Bottleneck, OptPerfSolver, Plan};

use hetsim::cluster::ClusterSpec;
use hetsim::job::JobSpec;
use hetsim::timing::{comm_times, node_coefficients};

/// One node's learned (or oracle) performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePerf {
    /// Per-sample coefficient of `a_i` (load + forward), s/sample.
    pub q: f64,
    /// Fixed part of `a_i`, s.
    pub s: f64,
    /// Per-sample coefficient of `P_i` (backward), s/sample.
    pub k: f64,
    /// Fixed part of `P_i`, s.
    pub m: f64,
    /// Memory cap on the local batch, if known.
    pub max_batch: Option<u64>,
}

impl NodePerf {
    /// Total-compute slope `c = q + k`.
    pub fn compute_slope(&self) -> f64 {
        self.q + self.k
    }

    /// Total-compute intercept `d = s + m`.
    pub fn compute_intercept(&self) -> f64 {
        self.s + self.m
    }

    /// `syncStart` slope `e = q + γk`.
    pub fn sync_slope(&self, gamma: f64) -> f64 {
        self.q + gamma * self.k
    }

    /// `syncStart` intercept `f = s + γm`.
    pub fn sync_intercept(&self, gamma: f64) -> f64 {
        self.s + gamma * self.m
    }

    /// Backpropagation time `P(b) = k·b + m`.
    pub fn p(&self, b: f64) -> f64 {
        self.k * b + self.m
    }

    /// Total compute time `t_compute(b)`.
    pub fn compute(&self, b: f64) -> f64 {
        self.compute_slope() * b + self.compute_intercept()
    }

    /// `syncStart(b) = a(b) + γP(b)`.
    pub fn sync_start(&self, b: f64, gamma: f64) -> f64 {
        self.sync_slope(gamma) * b + self.sync_intercept(gamma)
    }
}

/// Everything the solver needs: per-node models plus cluster constants.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverInput {
    /// Per-node performance models.
    pub nodes: Vec<NodePerf>,
    /// Overlap ratio γ (cluster-wide constant, §3.2.3).
    pub gamma: f64,
    /// Synchronization time of all buckets except the last, s.
    pub t_o: f64,
    /// Last-bucket synchronization time, s.
    pub t_u: f64,
}

impl SolverInput {
    /// Total gradient-synchronization time `T_comm = T_o + T_u`.
    pub fn t_comm(&self) -> f64 {
        self.t_o + self.t_u
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the input has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Oracle input assembled from the simulator's ground-truth physics —
    /// used by tests and by experiments that isolate the solver from the
    /// measurement layer.
    pub fn from_ground_truth(cluster: &ClusterSpec, job: &JobSpec) -> Self {
        let (_, t_o, t_u) = comm_times(cluster, job);
        let nodes = cluster
            .nodes
            .iter()
            .map(|n| {
                let c = node_coefficients(n, job);
                NodePerf {
                    q: c.q,
                    s: c.s,
                    k: c.k,
                    m: c.m,
                    max_batch: Some(job.max_local_batch(n.effective_memory_bytes())),
                }
            })
            .collect();
        SolverInput { nodes, gamma: job.gamma, t_o, t_u }
    }
}
